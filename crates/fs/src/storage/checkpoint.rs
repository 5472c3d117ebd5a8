//! Compact checkpoints of the live catalog state.
//!
//! A checkpoint is a JSONL file (the same wire idiom as
//! [`crate::snapshot`]) capturing everything the recovery path needs to
//! rebuild the *exact* live `(CatalogIndex, DeltaBuffer)` pair:
//!
//! ```text
//! {"version":1,"covered_seq":S,"files":F,"buffer_deltas":B,"raw_pending":R}
//! <F index entries, each a JSON Upsert delta in (user, path) order>
//! <B pending buffer deltas, each a JSON delta in node-id order>
//! {"footer_crc":C}
//! ```
//!
//! `covered_seq` is the last WAL sequence folded into this state —
//! recovery replays only records past it. The pending buffer rides
//! along (with its raw-delta count) so a checkpoint taken while deltas
//! are still buffered is still a complete cut.
//! The footer CRC32 covers every preceding byte; a checkpoint whose
//! footer is missing, unparsable, or wrong is rejected wholesale and
//! recovery falls back to the previous one (two are retained). Writes
//! go through a `.tmp` + rename so a crash mid-checkpoint can never
//! shadow a good file with a half-written one.

use super::checksum::Crc32;
use super::{FsyncPolicy, StorageError};
use crate::changelog::Delta;
use crate::delta_buffer::DeltaBuffer;
use crate::exemption::ExemptionList;
use crate::index::CatalogIndex;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};

/// How many checkpoint generations stay on disk.
pub const RETAINED_CHECKPOINTS: usize = 2;

/// First line of a checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointHeader {
    /// Format version (currently 1).
    pub version: u32,
    /// Last WAL sequence whose effects are folded into this state.
    pub covered_seq: u64,
    /// Index entry lines that follow.
    pub files: u64,
    /// Pending-buffer delta lines that follow the index entries.
    pub buffer_deltas: u64,
    /// The buffer's raw (pre-coalescing) pending count at capture time.
    pub raw_pending: u64,
}

/// Trailing integrity line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct CheckpointFooter {
    footer_crc: u32,
}

/// A successfully loaded checkpoint, ready to rehydrate.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    pub header: CheckpointHeader,
    /// Index entries (Upsert deltas) followed by nothing else.
    pub index_entries: Vec<Delta>,
    /// Pending buffer deltas in drain order.
    pub buffer_entries: Vec<Delta>,
}

impl LoadedCheckpoint {
    /// Rebuild the live pair this checkpoint captured. `exemptions`
    /// must be the run's list (exemption flags are derived, not
    /// stored — the engine's list is fixed per run, and callers that
    /// mutate theirs re-checkpoint at the mutation).
    pub fn rehydrate(
        self,
        buffer_cap: usize,
        exemptions: &ExemptionList,
    ) -> (CatalogIndex, DeltaBuffer) {
        let mut index = CatalogIndex::new();
        let mut seed = DeltaBuffer::unbounded();
        seed.absorb(self.index_entries);
        index.flush(&mut seed, exemptions);
        let mut buffer = DeltaBuffer::with_capacity(buffer_cap);
        buffer.absorb(self.buffer_entries);
        buffer.set_raw_pending(self.header.raw_pending);
        (index, buffer)
    }
}

/// The file name for a checkpoint covering `seq` (zero-padded so
/// lexical and numeric order agree).
pub fn checkpoint_file_name(seq: u64) -> String {
    format!("checkpoint-{seq:020}.ckpt")
}

/// Write a checkpoint of `(index, buffer)` covering `covered_seq` into
/// `dir`, pruning generations beyond [`RETAINED_CHECKPOINTS`]. Returns
/// the bytes written.
pub fn write_checkpoint(
    dir: &Path,
    covered_seq: u64,
    index: &CatalogIndex,
    buffer: &DeltaBuffer,
    fsync: FsyncPolicy,
) -> Result<u64, StorageError> {
    let mut body: Vec<u8> = Vec::new();
    let mut crc = Crc32::new();
    let line = |body: &mut Vec<u8>, crc: &mut Crc32, value: &[u8]| {
        body.extend_from_slice(value);
        body.push(b'\n');
        crc.update(value);
        crc.update(b"\n");
    };

    let index_entries: Vec<Delta> = index.export_deltas().collect();
    let buffer_entries: Vec<&Delta> = buffer.pending_deltas().collect();
    let header = CheckpointHeader {
        version: 1,
        covered_seq,
        files: u64::try_from(index_entries.len()).unwrap_or(u64::MAX),
        buffer_deltas: u64::try_from(buffer_entries.len()).unwrap_or(u64::MAX),
        raw_pending: buffer.raw_pending(),
    };
    line(&mut body, &mut crc, &encode_line(&header)?);
    for entry in &index_entries {
        line(&mut body, &mut crc, &encode_line(entry)?);
    }
    for entry in buffer_entries {
        line(&mut body, &mut crc, &encode_line(entry)?);
    }
    let footer = CheckpointFooter {
        footer_crc: crc.finish(),
    };
    body.extend_from_slice(&encode_line(&footer)?);
    body.push(b'\n');

    let final_path = dir.join(checkpoint_file_name(covered_seq));
    let tmp_path = dir.join(format!("{}.tmp", checkpoint_file_name(covered_seq)));
    {
        let mut file = std::fs::File::create(&tmp_path).map_err(StorageError::Io)?;
        file.write_all(&body).map_err(StorageError::Io)?;
        if matches!(fsync, FsyncPolicy::Always) {
            file.sync_all().map_err(StorageError::Io)?;
        }
    }
    std::fs::rename(&tmp_path, &final_path).map_err(StorageError::Io)?;
    prune_checkpoints(dir)?;
    Ok(u64::try_from(body.len()).unwrap_or(0))
}

/// List `(covered_seq, path)` of every checkpoint in `dir`, newest
/// first.
pub fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StorageError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(StorageError::Io(e)),
    };
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry.map_err(StorageError::Io)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(seq) = name
            .strip_prefix("checkpoint-")
            .and_then(|rest| rest.strip_suffix(".ckpt"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        found.push((seq, entry.path()));
    }
    found.sort_by_key(|entry| std::cmp::Reverse(entry.0));
    Ok(found)
}

/// Delete checkpoint generations beyond the newest
/// [`RETAINED_CHECKPOINTS`].
fn prune_checkpoints(dir: &Path) -> Result<(), StorageError> {
    for (_, path) in list_checkpoints(dir)?
        .into_iter()
        .skip(RETAINED_CHECKPOINTS)
    {
        std::fs::remove_file(path).map_err(StorageError::Io)?;
    }
    Ok(())
}

/// Load and verify one checkpoint file. Any framing, parse, count, or
/// checksum problem is a `Corrupt` error — the caller falls back to an
/// older generation.
pub fn load_checkpoint(path: &Path) -> Result<LoadedCheckpoint, StorageError> {
    let text = std::fs::read_to_string(path).map_err(StorageError::Io)?;
    let corrupt = |what: &str| StorageError::Corrupt(format!("{}: {what}", path.display()));

    // Split the footer (last non-empty line) from the covered body.
    let trimmed = text.trim_end_matches('\n');
    let Some((body, footer_line)) = trimmed.rsplit_once('\n') else {
        return Err(corrupt("no footer line"));
    };
    let footer: CheckpointFooter =
        serde_json::from_str(footer_line).map_err(|_| corrupt("footer does not parse"))?;
    let mut crc = Crc32::new();
    crc.update(body.as_bytes());
    crc.update(b"\n");
    if crc.finish() != footer.footer_crc {
        return Err(corrupt("footer checksum mismatch"));
    }

    let mut lines = body.lines();
    let header: CheckpointHeader = lines
        .next()
        .ok_or_else(|| corrupt("missing header"))
        .and_then(|l| serde_json::from_str(l).map_err(|_| corrupt("header does not parse")))?;
    if header.version != 1 {
        return Err(corrupt("unsupported version"));
    }
    let mut index_entries = Vec::new();
    let mut buffer_entries = Vec::new();
    for line in lines {
        let delta: Delta =
            serde_json::from_str(line).map_err(|_| corrupt("entry does not parse"))?;
        if u64::try_from(index_entries.len()).unwrap_or(u64::MAX) < header.files {
            index_entries.push(delta);
        } else {
            buffer_entries.push(delta);
        }
    }
    if u64::try_from(index_entries.len()).unwrap_or(u64::MAX) != header.files
        || u64::try_from(buffer_entries.len()).unwrap_or(u64::MAX) != header.buffer_deltas
    {
        return Err(corrupt("entry counts disagree with the header"));
    }
    Ok(LoadedCheckpoint {
        header,
        index_entries,
        buffer_entries,
    })
}

/// Serialize one JSONL line's value.
fn encode_line<T: Serialize>(value: &T) -> Result<Vec<u8>, StorageError> {
    serde_json::to_vec(value).map_err(|e| StorageError::Encode(format!("{e:?}")))
}

//! Integration: the crash-safe durable catalog (WAL + checkpoint +
//! recovery, `activedr_fs::storage`).
//!
//! Two layers of proof:
//!
//! 1. **Storage torture** — hand-corrupted on-disk state (truncated tail
//!    record, bit-flipped payload, duplicate sequence, checkpoint-footer
//!    corruption, cold starts) must recover to exactly the state a
//!    never-corrupted control reaches.
//! 2. **Crash-point sweep** — a durable engine replay killed at *every*
//!    trigger boundary, and at injected mid-write byte offsets inside the
//!    WAL, must recover and finish with a `SimResult` bitwise-identical
//!    to an uninterrupted run (which itself is identical to a
//!    no-durability run).

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test helper plumbing panics on harness failures by design"
)]

use activedr_core::time::Timestamp;
use activedr_core::user::UserId;
use activedr_fs::storage::{
    encode_record, load_checkpoint, recover, scan_wal, write_checkpoint, Wal, WalPayload,
};
use activedr_fs::{
    diff_catalogs, CatalogIndex, Delta, DeltaBuffer, DurabilityConfig, DurableCatalog,
    ExemptionList, FsyncPolicy, InjectedCrash, VirtualFs,
};
use activedr_sim::{
    run_instrumented, run_until, run_with_telemetry, CatalogMode, Scale, Scenario, SimConfig,
    SimResult, Telemetry,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------
// Harness plumbing
// ---------------------------------------------------------------------

/// A unique scratch directory per call, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "activedr-wal-test-{}-{tag}-{n}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The canonical replay fingerprint: every result field that the paper's
/// artifacts derive from, with only the wall-clock micros zeroed (they
/// are the one legitimately nondeterministic output) and the final
/// quadrant map put in a deterministic order.
fn digest(result: &SimResult) -> String {
    let mut r = result.clone();
    for ev in &mut r.retentions {
        ev.eval_micros = 0;
        ev.scan_micros = 0;
        ev.decision_micros = 0;
        ev.apply_micros = 0;
    }
    let mut quadrants: Vec<(UserId, _)> = r.final_quadrants.drain().collect();
    quadrants.sort_by_key(|(u, _)| *u);
    let mut out = format!(
        "policy={} lifetime={} capacity={}\n",
        r.policy, r.lifetime_days, r.capacity
    );
    for d in &r.daily {
        out.push_str(&format!("daily {d:?}\n"));
    }
    for ev in &r.retentions {
        out.push_str(&format!("retention {ev:?}\n"));
    }
    out.push_str(&format!(
        "final_used={} final_files={}\n",
        r.final_used, r.final_files
    ));
    for (u, q) in quadrants {
        out.push_str(&format!("quadrant {} {q:?}\n", u.0));
    }
    out.push_str(&format!("archive {:?}\n", r.archive));
    out
}

/// A file system with its changelog recording, plus the seeded index.
fn changelog_fs() -> (VirtualFs, CatalogIndex, ExemptionList) {
    let mut fs = VirtualFs::with_capacity(1 << 30);
    fs.enable_changelog();
    let ex = ExemptionList::new();
    let index = CatalogIndex::from_fs(&fs, &ex);
    (fs, index, ex)
}

/// Drive `fs` through `days` of synthetic churn (creates, touches,
/// removes, overwrites), returning one drained delta batch per day.
fn churn_batches(fs: &mut VirtualFs, days: u32) -> Vec<Vec<Delta>> {
    let mut batches = Vec::new();
    for day in 0..i64::from(days) {
        let ts = Timestamp::from_days(day);
        let user = UserId(u32::try_from(day % 3).unwrap() + 1);
        fs.create(
            &format!("/u{}/d{day}/f", user.0),
            user,
            100 + day as u64,
            ts,
        )
        .expect("create");
        if day > 0 {
            fs.access(&format!("/u{}/d{}/f", 1 + (day - 1) % 3, day - 1), ts);
        }
        if day % 4 == 3 {
            fs.remove(&format!("/u{}/d{}/f", 1 + (day - 2) % 3, day - 2));
        }
        if day % 5 == 2 {
            // Overwrite an existing path with new metadata.
            fs.create(&format!("/u{}/d{day}/f", user.0), user, 7, ts)
                .expect("overwrite");
        }
        batches.push(fs.drain_changelog());
    }
    batches
}

/// Assert the recovered `(index, buffer)` pair observably equals the
/// control pair: identical catalog snapshots after flushing both, same
/// pending-set size, same raw-pending count.
fn assert_pairs_equal(
    mut got: (CatalogIndex, DeltaBuffer),
    mut want: (CatalogIndex, DeltaBuffer),
    ex: &ExemptionList,
    label: &str,
) {
    assert_eq!(got.1.len(), want.1.len(), "{label}: pending set size");
    assert_eq!(
        got.1.raw_pending(),
        want.1.raw_pending(),
        "{label}: raw pending count"
    );
    got.0.flush(&mut got.1, ex);
    want.0.flush(&mut want.1, ex);
    assert_eq!(got.0.file_count(), want.0.file_count(), "{label}: files");
    assert_eq!(got.0.total_bytes(), want.0.total_bytes(), "{label}: bytes");
    let diffs = diff_catalogs(got.0.snapshot(), want.0.snapshot());
    assert!(diffs.is_empty(), "{label}: recovered != control: {diffs:?}");
}

/// Raw bytes of the WAL file.
fn wal_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join("wal.log")).expect("read wal.log")
}

fn write_wal_bytes(dir: &Path, bytes: &[u8]) {
    std::fs::write(dir.join("wal.log"), bytes).expect("write wal.log");
}

// ---------------------------------------------------------------------
// Storage torture: hand-corrupted on-disk state
// ---------------------------------------------------------------------

#[test]
fn truncated_tail_record_recovers_to_last_complete_record() {
    let scratch = ScratchDir::new("trunc");
    let (mut fs, index, ex) = changelog_fs();
    let batches = churn_batches(&mut fs, 6);

    // Durable side: checkpoint 0, then log every batch.
    let buffer = DeltaBuffer::with_capacity(1 << 16);
    write_checkpoint(scratch.path(), 0, &index, &buffer, FsyncPolicy::Never).expect("checkpoint 0");
    let mut wal = Wal::open_for_append(scratch.path(), FsyncPolicy::Never, 1).expect("open wal");
    for batch in &batches {
        wal.append_record(&WalPayload::Batch(batch.clone()))
            .expect("append");
    }
    drop(wal);

    // Tear the file mid-way through the last frame, at every cut depth
    // from "only the length prefix" to "one byte short of complete".
    let full = wal_bytes(scratch.path());
    let scan = scan_wal(scratch.path()).expect("scan");
    assert!(scan.torn.is_none() && scan.records.len() == batches.len());
    let last_frame_start = {
        // Re-scan a prefix missing the final record to find its offset.
        let mut cut = full.len();
        let last = encode_record(
            scan.records.len() as u64,
            &WalPayload::Batch(batches[batches.len() - 1].clone()),
        )
        .expect("encode");
        cut -= last.len();
        cut
    };
    for cut in [last_frame_start + 3, last_frame_start + 20, full.len() - 1] {
        write_wal_bytes(scratch.path(), &full[..cut]);
        let recovered = recover(scratch.path(), 1 << 16, &ex)
            .expect("recover")
            .expect("checkpoint present");
        assert_eq!(
            recovered.stats.replayed_records,
            batches.len() as u64 - 1,
            "cut at {cut}: torn final record must not replay"
        );
        assert!(
            recovered.stats.truncated_bytes > 0,
            "cut at {cut}: torn tail must be truncated"
        );
        // Control: everything but the final batch, absorbed but never
        // flushed — exactly what the live pair held pre-crash.
        let mut control_buffer = DeltaBuffer::with_capacity(1 << 16);
        for batch in &batches[..batches.len() - 1] {
            control_buffer.absorb(batch.clone());
        }
        assert_pairs_equal(
            (recovered.index, recovered.buffer),
            (CatalogIndex::new(), control_buffer),
            &ex,
            &format!("cut at {cut}"),
        );
        // And the truncation is durable: a re-scan sees a clean log.
        let rescan = scan_wal(scratch.path()).expect("rescan");
        assert!(rescan.torn.is_none(), "cut at {cut}: tail still torn");
    }
}

#[test]
fn bit_flipped_payload_is_rejected_by_checksum() {
    let scratch = ScratchDir::new("bitflip");
    let (mut fs, index, ex) = changelog_fs();
    let batches = churn_batches(&mut fs, 4);
    let buffer = DeltaBuffer::with_capacity(1 << 16);
    write_checkpoint(scratch.path(), 0, &index, &buffer, FsyncPolicy::Never).expect("checkpoint 0");
    let mut wal = Wal::open_for_append(scratch.path(), FsyncPolicy::Never, 1).expect("open wal");
    let mut frame_starts = vec![0u64];
    for batch in &batches {
        let (_, bytes) = wal
            .append_record(&WalPayload::Batch(batch.clone()))
            .expect("append");
        frame_starts.push(frame_starts.last().unwrap() + bytes);
    }
    drop(wal);
    let full = wal_bytes(scratch.path());

    // Flip one payload byte inside the third frame: records 1-2 must
    // survive, the flipped record and everything after must not.
    let victim = usize::try_from(frame_starts[2]).unwrap() + 14; // inside seq/kind/payload
    let mut corrupt = full.clone();
    corrupt[victim] ^= 0x40;
    write_wal_bytes(scratch.path(), &corrupt);
    let recovered = recover(scratch.path(), 1 << 16, &ex)
        .expect("recover")
        .expect("checkpoint present");
    assert_eq!(
        recovered.stats.replayed_records, 2,
        "replay must stop at the flipped record"
    );
    let mut control_buffer = DeltaBuffer::with_capacity(1 << 16);
    for batch in &batches[..2] {
        control_buffer.absorb(batch.clone());
    }
    assert_pairs_equal(
        (recovered.index, recovered.buffer),
        (CatalogIndex::new(), control_buffer),
        &ex,
        "bit-flipped payload",
    );
}

#[test]
fn duplicate_sequence_replay_is_idempotent() {
    let scratch = ScratchDir::new("dupseq");
    let (mut fs, index, ex) = changelog_fs();
    let batches = churn_batches(&mut fs, 3);
    let buffer = DeltaBuffer::with_capacity(1 << 16);
    write_checkpoint(scratch.path(), 0, &index, &buffer, FsyncPolicy::Never).expect("checkpoint 0");

    // Hand-build a log where record 2 appears twice (a crash between
    // append and ack, then a retry, produces exactly this shape).
    let mut log = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        let frame = encode_record(i as u64 + 1, &WalPayload::Batch(batch.clone())).expect("encode");
        if i == 1 {
            log.extend_from_slice(&frame);
        }
        log.extend_from_slice(&frame);
    }
    write_wal_bytes(scratch.path(), &log);

    let recovered = recover(scratch.path(), 1 << 16, &ex)
        .expect("recover")
        .expect("checkpoint present");
    assert_eq!(recovered.stats.replayed_records, 3, "each seq applies once");
    assert_eq!(recovered.stats.skipped_records, 1, "duplicate skipped");
    let mut control_buffer = DeltaBuffer::with_capacity(1 << 16);
    for batch in &batches {
        control_buffer.absorb(batch.clone());
    }
    assert_pairs_equal(
        (recovered.index, recovered.buffer),
        (CatalogIndex::new(), control_buffer),
        &ex,
        "duplicate sequence",
    );
}

#[test]
fn corrupt_checkpoint_footer_falls_back_to_previous_generation() {
    let scratch = ScratchDir::new("footer");
    let (mut fs, index, ex) = changelog_fs();
    let batches = churn_batches(&mut fs, 6);

    // Build: checkpoint 0, log batches 1-3, checkpoint covering seq 3
    // (with batches 1-3 flushed into the live pair), log batches 4-6.
    let buffer = DeltaBuffer::with_capacity(1 << 16);
    write_checkpoint(scratch.path(), 0, &index, &buffer, FsyncPolicy::Never).expect("checkpoint 0");
    let mut wal = Wal::open_for_append(scratch.path(), FsyncPolicy::Never, 1).expect("open wal");
    let live_index = CatalogIndex::new();
    let mut live_buffer = DeltaBuffer::with_capacity(1 << 16);
    for batch in &batches[..3] {
        wal.append_record(&WalPayload::Batch(batch.clone()))
            .expect("append");
        live_buffer.absorb(batch.clone());
    }
    write_checkpoint(
        scratch.path(),
        3,
        &live_index,
        &live_buffer,
        FsyncPolicy::Never,
    )
    .expect("checkpoint 3");
    for batch in &batches[3..] {
        wal.append_record(&WalPayload::Batch(batch.clone()))
            .expect("append");
        live_buffer.absorb(batch.clone());
    }
    drop(wal);
    drop(live_index);

    // Sanity: the newest checkpoint loads before corruption.
    let newest = scratch.path().join("checkpoint-00000000000000000003.ckpt");
    load_checkpoint(&newest).expect("newest checkpoint valid before corruption");

    // Corrupt the newest checkpoint's footer.
    let mut bytes = std::fs::read(&newest).expect("read checkpoint");
    let n = bytes.len();
    bytes[n - 5] ^= 0x01;
    std::fs::write(&newest, &bytes).expect("write corrupted checkpoint");

    // Recovery must fall back to checkpoint 0 and replay the *whole* WAL.
    let recovered = recover(scratch.path(), 1 << 16, &ex)
        .expect("recover")
        .expect("older checkpoint present");
    assert_eq!(
        recovered.stats.fallback_checkpoints, 1,
        "one bad generation"
    );
    assert_eq!(
        recovered.stats.checkpoint_seq, 0,
        "fell back to checkpoint 0"
    );
    assert_eq!(
        recovered.stats.replayed_records, 6,
        "full WAL replay from the older cut"
    );
    let mut control_buffer = DeltaBuffer::with_capacity(1 << 16);
    for batch in &batches {
        control_buffer.absorb(batch.clone());
    }
    assert_pairs_equal(
        (recovered.index, recovered.buffer),
        (CatalogIndex::new(), control_buffer),
        &ex,
        "footer fallback",
    );
}

#[test]
fn cold_start_on_empty_or_stale_directory() {
    // Missing directory: recover() finds nothing.
    let scratch = ScratchDir::new("cold");
    let missing = scratch.path().join("never-created");
    let ex = ExemptionList::new();
    assert!(
        recover(&missing, 1 << 16, &ex).expect("recover").is_none(),
        "missing dir must cold-start"
    );

    // A stale WAL with no checkpoint must not be replayed: open()
    // discards it, reseeds from the live namespace, writes checkpoint 0.
    let (mut fs, _, ex) = changelog_fs();
    fs.create("/u1/live", UserId(1), 42, Timestamp::from_days(0))
        .expect("create");
    fs.drain_changelog();
    write_wal_bytes(scratch.path(), b"stale garbage that is not a wal frame");
    let cfg = DurabilityConfig::new(scratch.path());
    let opened = DurableCatalog::open(&cfg, &fs, &ex, 1 << 16).expect("open");
    assert!(opened.recovered.is_none(), "stale WAL must not recover");
    assert_eq!(opened.durable.checkpoints_written(), 1, "checkpoint 0");
    assert_eq!(opened.index.file_count(), 1, "seeded from the namespace");
    let scan = scan_wal(scratch.path()).expect("scan");
    assert!(
        scan.records.is_empty() && scan.torn.is_none(),
        "stale WAL must be discarded"
    );

    // And the cold-started state round-trips: recover() now succeeds.
    drop(opened);
    let recovered = recover(scratch.path(), 1 << 16, &ex)
        .expect("recover")
        .expect("checkpoint 0 present");
    assert_eq!(recovered.index.file_count(), 1);
    assert_eq!(recovered.stats.replayed_records, 0);
}

#[test]
fn fsync_always_recovers_identically_to_fsync_never() {
    // `FsyncPolicy::Always` changes when bytes are forced to the device,
    // never what they are: a full log/flush/checkpoint cycle under each
    // policy must leave byte-identical WAL files and recover to the same
    // pair. (The crash matrix runs under `Never` because the injected
    // fault shim tears the buffered write itself; this pins the other
    // policy's plumbing.)
    let (mut fs, _, ex) = changelog_fs();
    let batches = churn_batches(&mut fs, 5);
    let mut images = Vec::new();
    for fsync in [FsyncPolicy::Never, FsyncPolicy::Always] {
        let scratch = ScratchDir::new("fsync");
        let cfg = DurabilityConfig::new(scratch.path()).with_fsync(fsync);
        let opened = DurableCatalog::open(&cfg, &VirtualFs::with_capacity(1 << 30), &ex, 1 << 16)
            .expect("open");
        let mut durable = opened.durable;
        let mut index = opened.index;
        let mut buffer = opened.buffer;
        for batch in &batches {
            durable.log_batch(batch).expect("log batch");
            buffer.absorb(batch.clone());
        }
        durable.log_flush_mark().expect("log flush mark");
        index.flush(&mut buffer, &ex);
        durable.checkpoint_now(&index, &buffer).expect("checkpoint");
        let recovered = recover(scratch.path(), 1 << 16, &ex)
            .expect("recover")
            .expect("checkpoint present");
        assert_pairs_equal(
            (recovered.index, recovered.buffer),
            (index, buffer),
            &ex,
            &format!("{fsync:?}"),
        );
        images.push(wal_bytes(scratch.path()));
    }
    assert_eq!(images[0], images[1], "fsync policy altered the WAL bytes");
}

// ---------------------------------------------------------------------
// Engine equivalence + crash-point sweep
// ---------------------------------------------------------------------

/// Trigger-by-trigger probe fingerprints of a run.
fn probed_run(
    scenario: &Scenario,
    config: &SimConfig,
    until: Option<i64>,
) -> (SimResult, Vec<(i64, Option<u64>)>) {
    let mut probes = Vec::new();
    let (result, _) = run_instrumented(
        &scenario.traces,
        scenario.initial_fs.clone(),
        config,
        until,
        &mut |p| probes.push((p.day, p.event.map(|e| e.purged_files))),
    );
    (result, probes)
}

#[test]
fn durable_replay_is_bitwise_identical_to_in_memory_replay() {
    let scenario = Scenario::build(Scale::Tiny, 91);
    let plain = SimConfig::activedr(30).with_catalog_mode(CatalogMode::Incremental);
    let scratch = ScratchDir::new("equiv");
    let durable = plain
        .clone()
        .with_durability(DurabilityConfig::new(scratch.path()).with_checkpoint_every(2));

    let (plain_res, plain_probes) = probed_run(&scenario, &plain, None);
    let (durable_res, durable_probes) = probed_run(&scenario, &durable, None);
    assert_eq!(
        plain_probes, durable_probes,
        "durable replay diverged at a trigger"
    );
    assert_eq!(
        digest(&plain_res),
        digest(&durable_res),
        "durable replay result differs from in-memory replay"
    );
    assert!(
        scratch.path().join("wal.log").exists(),
        "durable run must actually write a WAL"
    );
}

#[test]
fn crash_point_sweep_recovers_identically_everywhere() {
    let scenario = Scenario::build(Scale::Tiny, 92);
    let start = i64::from(scenario.traces.replay_start_day);
    // Bound each sweep to a few trigger boundaries so the whole matrix
    // stays in seconds while still crossing checkpoint cadence (every 2
    // triggers). The weekly config crosses it several times; the monthly
    // one makes every trigger flush a month of churn — a backlog several
    // times the first week's — so kills also land on large flushes.
    for (interval, triggers) in [(7u32, 8u32), (30, 4)] {
        let mut base = SimConfig::activedr(30).with_catalog_mode(CatalogMode::Incremental);
        base.purge_interval_days = interval;
        let until = Some(start + i64::from(interval * triggers) + 1);

        // Golden: the uninterrupted durable run (itself proven equal to
        // the in-memory run by the test above).
        let golden_dir = ScratchDir::new(&format!("golden-{interval}"));
        let golden_cfg = base
            .clone()
            .with_durability(DurabilityConfig::new(golden_dir.path()).with_checkpoint_every(2));
        let (golden_res, golden_probes) = probed_run(&scenario, &golden_cfg, until);
        let golden = digest(&golden_res);
        let boundaries = u32::try_from(golden_probes.len()).unwrap();
        assert!(
            boundaries >= triggers,
            "interval {interval}: expected {triggers} trigger boundaries"
        );
        let total_wal = wal_bytes(golden_dir.path()).len() as u64;
        assert!(
            total_wal > 0,
            "interval {interval}: golden run wrote no WAL"
        );

        // Kill at every trigger boundary.
        for t in 1..=boundaries {
            let scratch = ScratchDir::new(&format!("at-trigger-{interval}-{t}"));
            let cfg = base.clone().with_durability(
                DurabilityConfig::new(scratch.path())
                    .with_checkpoint_every(2)
                    .with_injected_crash(InjectedCrash::AtTrigger(t)),
            );
            let (res, probes) = probed_run(&scenario, &cfg, until);
            assert_eq!(
                probes, golden_probes,
                "interval {interval}, trigger {t}: probe divergence"
            );
            assert_eq!(
                digest(&res),
                golden,
                "interval {interval}, trigger {t}: result divergence"
            );
        }

        // Kill mid-write at byte offsets spread across the WAL.
        let offsets: Vec<u64> = (1..=8).map(|i| i * total_wal / 9).collect();
        for off in offsets {
            let scratch = ScratchDir::new(&format!("at-byte-{interval}-{off}"));
            let cfg = base.clone().with_durability(
                DurabilityConfig::new(scratch.path())
                    .with_checkpoint_every(2)
                    .with_injected_crash(InjectedCrash::AtWalByte(off)),
            );
            let (res, probes) = probed_run(&scenario, &cfg, until);
            assert_eq!(
                probes, golden_probes,
                "interval {interval}, byte {off}: probe divergence"
            );
            assert_eq!(
                digest(&res),
                golden,
                "interval {interval}, byte {off}: result divergence"
            );
        }
    }
}

#[test]
fn torn_write_recovery_is_visible_in_telemetry() {
    let scenario = Scenario::build(Scale::Tiny, 93);
    let scratch = ScratchDir::new("tele");
    let config = SimConfig::activedr(30)
        .with_catalog_mode(CatalogMode::Incremental)
        .with_durability(
            DurabilityConfig::new(scratch.path())
                .with_checkpoint_every(2)
                // Offset 40 lands inside the first batch frame.
                .with_injected_crash(InjectedCrash::AtWalByte(40)),
        );
    let tele = Telemetry::on();
    let (_, _) = run_with_telemetry(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &config,
        &tele,
    );
    let report = tele.report();
    let json = report.to_json();
    let counter = |name: &str| -> u64 {
        let needle = format!("\"{name}\":");
        json.find(&needle)
            .and_then(|at| {
                let rest = &json[at + needle.len()..];
                let end = rest.find([',', '}']).unwrap_or(rest.len());
                rest[..end].trim().parse().ok()
            })
            .unwrap_or(0)
    };
    assert!(
        counter("wal.appends") > 0,
        "no WAL appends recorded: {json}"
    );
    assert!(counter("wal.bytes") > 0, "no WAL bytes recorded");
    assert_eq!(counter("wal.torn_writes"), 1, "torn write not counted");
    assert!(counter("recovery.recoveries") >= 1, "recovery not counted");
    assert!(counter("checkpoint.writes") >= 1, "no checkpoint counted");
}

// Keep `run_until` exercised with durability on: stopping early and
// recovering the directory in a *fresh* engine run must pick up the
// durable state rather than cold-starting.
#[test]
fn reopened_directory_recovers_rather_than_cold_starts() {
    let scenario = Scenario::build(Scale::Tiny, 94);
    let start = i64::from(scenario.traces.replay_start_day);
    let scratch = ScratchDir::new("reopen");
    let config = SimConfig::activedr(30)
        .with_catalog_mode(CatalogMode::Incremental)
        .with_durability(DurabilityConfig::new(scratch.path()).with_checkpoint_every(2));
    let (_, fs_after) = run_until(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &config,
        Some(start + 15),
    );

    // The directory now holds a checkpoint + WAL tail. Recovering it
    // directly must match an index built fresh from the surviving fs.
    let ex = config.exemptions.clone();
    let recovered = recover(scratch.path(), config.delta_buffer_cap, &ex)
        .expect("recover")
        .expect("durable state present");
    let (mut rec_index, mut rec_buffer) = (recovered.index, recovered.buffer);
    rec_index.flush(&mut rec_buffer, &ex);
    let mut truth = CatalogIndex::from_fs(&fs_after, &ex);
    let diffs = diff_catalogs(rec_index.snapshot(), truth.snapshot());
    assert!(
        diffs.is_empty(),
        "recovered catalog != live namespace: {diffs:?}"
    );
}

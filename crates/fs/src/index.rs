//! Incrementally maintained retention catalog (Robinhood-style index).
//!
//! [`CatalogIndex`] is the consumer side of the [`crate::changelog`]
//! stream: it keeps per-user file listings — ordered exactly as a trie
//! walk would order them — plus per-user byte/atime aggregates, and folds
//! buffered [`Delta`] batches in O(changes). A retention trigger then
//! materializes the policy-facing [`Catalog`] from the index instead of
//! re-walking the namespace; users untouched since the previous trigger
//! reuse their cached listing verbatim, so a no-change trigger costs O(1).
//!
//! # Batched ingestion
//!
//! Deltas arrive through a [`DeltaBuffer`], which collapses a window of
//! changes to one net effect per node. [`CatalogIndex::flush`] applies a
//! drained window in two phases: first each net delta is *resolved*
//! against the pre-flush index into **positional slot events** — a dense
//! id→(user, slot) reverse map turns touches into O(1) in-place patches
//! and overwrites/removes into integer positions, so only genuinely new
//! paths pay a binary search; then the events are ordered by one integer
//! sort and each touched user's listing is rebuilt by a single
//! **sort-merge** pass of its old records against its event run — one
//! pass per user per flush instead of one tree insert per delta — with
//! the byte/atime aggregates recomputed once per shard from the merge
//! tallies and every reshaped shard's positions re-bound in a finalize
//! sweep. [`CatalogIndex::apply`] remains as the convenience wrapper that
//! buffers and flushes in one step.
//!
//! # Equivalence guarantee
//!
//! [`CatalogIndex::snapshot`] is *identical* to
//! [`crate::VirtualFs::catalog`] over the same file system state and
//! exemption list: the same `FileId` space (trie node ids), the same user
//! order (ascending [`UserId`]), the same per-user file order
//! (component-lexicographic path order, via [`PathKey`]), and the same
//! exemption flags. `tests/integration_catalog_mode.rs` pins this at every
//! trigger of full replays under all four policies, and the differential
//! oracle (`crates/oracle`) additionally pins buffered application to
//! per-delta application across randomized op tapes with explicit flush
//! boundaries.

use crate::changelog::Delta;
use crate::delta_buffer::DeltaBuffer;
use crate::exemption::ExemptionList;
use crate::meta::FileMeta;
use crate::trie::NodeId;
use crate::vfs::VirtualFs;
use activedr_core::convert;
use activedr_core::files::{Catalog, FileId, FileRecord, UserFiles};
use activedr_core::time::Timestamp;
use activedr_core::user::UserId;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A canonical path that orders the way the trie iterates:
/// lexicographically by *component*, not by raw string. The two differ
/// when a component contains bytes below `/` (0x2F): as raw strings
/// `"/x/a.b" < "/x/a/b"`, but component order puts `a` before `a.b`.
///
/// Backed by `Arc<str>`: cheaply cloneable and `Send + Sync`, so shard
/// listings can be snapshotted or handed across threads without copying
/// path bytes. The flush hot path itself never clones a key — each
/// inserted path's `String` moves straight into its slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathKey(Arc<str>);

impl PathKey {
    /// Key for `path` (normalized: empty and `.` components dropped).
    pub fn new(path: &str) -> PathKey {
        PathKey(crate::changelog::canonical_path(path).into())
    }

    /// Key for a path that is *already* canonical — what every changelog
    /// delta and trie walk emits — skipping re-normalization.
    pub fn from_canonical(path: String) -> PathKey {
        debug_assert_eq!(
            crate::changelog::canonical_path(&path),
            path,
            "PathKey::from_canonical requires a canonical path"
        );
        PathKey(path.into())
    }

    /// The canonical path string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Rank a path byte for comparison: the separator sorts below every
/// other byte, which makes plain byte order on canonical paths agree
/// with component-lexicographic order (the expensive per-component walk
/// the flush merge would otherwise pay on every comparison).
#[inline]
fn sep_low(b: u8) -> u16 {
    if b == b'/' {
        0
    } else {
        u16::from(b) + 1
    }
}

/// Component-lexicographic comparison of two canonical paths, as raw
/// bytes. Skips the common prefix eight bytes at a time (a word compare),
/// then ranks only the first differing pair — per-byte mapping is only
/// needed at the divergence point, since [`sep_low`] is a bijection and
/// so preserves byte equality.
fn cmp_canonical(a: &[u8], b: &[u8]) -> Ordering {
    let mut matched = 0;
    for (ca, cb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        if ca != cb {
            break;
        }
        matched += 8;
    }
    for (&x, &y) in a.iter().zip(b.iter()).skip(matched) {
        let (x, y) = (sep_low(x), sep_low(y));
        if x != y {
            return x.cmp(&y);
        }
    }
    a.len().cmp(&b.len())
}

impl Ord for PathKey {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_canonical(self.0.as_bytes(), other.0.as_bytes())
    }
}

impl PartialOrd for PathKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One indexed file: everything a [`FileRecord`] needs, minus the owner
/// (implied by the owning [`UserShard`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexedFile {
    id: NodeId,
    size: u64,
    atime: Timestamp,
    ctime: Timestamp,
    access_count: u32,
    exempt: bool,
}

impl IndexedFile {
    fn record(&self) -> FileRecord {
        let mut rec = FileRecord::new(FileId(u64::from(self.id.0)), self.size, self.atime)
            .with_ctime(self.ctime)
            .with_access_count(self.access_count);
        rec.exempt = self.exempt;
        rec
    }
}

/// One user's slice of the index: a path-ordered record vector (merged
/// wholesale at flush time, binary-searched for in-place touches) plus
/// aggregates maintained per flush.
#[derive(Debug, Clone, Default)]
struct UserShard {
    files: Vec<(PathKey, IndexedFile)>,
    /// Total bytes owned, recomputed from merge tallies per flush.
    bytes: u64,
    /// Sum of atimes in seconds, maintained alongside — the basis of the
    /// mean-age aggregate (exact integer arithmetic; removal-safe, unlike
    /// a min/max which would need a rescan on delete).
    atime_secs_sum: i128,
}

/// Per-user aggregate view exposed by [`CatalogIndex::user_aggregates`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserAggregates {
    /// The owning user.
    pub user: UserId,
    /// Files currently owned.
    pub files: usize,
    /// Bytes currently owned.
    pub bytes: u64,
    /// Sum of the files' atimes, in seconds since the epoch.
    pub atime_secs_sum: i128,
}

impl UserAggregates {
    /// Mean age of the user's files at `now`, in seconds; `None` for a
    /// user with no files.
    pub fn mean_age_secs(&self, now: Timestamp) -> Option<i128> {
        if self.files == 0 {
            return None;
        }
        let n = i128::from(activedr_core::convert::u64_from_usize(self.files));
        Some(i128::from(now.secs()) - self.atime_secs_sum / n)
    }
}

/// One resolution-phase event against a slot of an owner's pre-flush
/// shard. `Remove` and `Put` target an *existing* slot by position (the
/// record's path key is kept); `Insert` lands a new record ahead of a
/// position. Events are collected into a single flush-wide vector in
/// delta order and sorted by the packed (owner, position, at-slot) key —
/// an integer sort, since only same-position inserts ever compare paths.
#[derive(Debug)]
enum SlotEv {
    Remove,
    Put(IndexedFile),
    Insert(PathKey, IndexedFile),
}

/// Sort key for one slot event: owner in the high 32 bits, then the
/// target slot position, then an at-slot flag so insert-before events
/// order ahead of same-slot replacements.
#[inline]
fn pack(user: UserId, pos: usize, at_slot: bool) -> u64 {
    (u64::from(user.0) << 32) | (convert::u64_from_usize(pos) << 1) | u64::from(at_slot)
}

/// Resolve an upsert that lands on a path not currently bound to its id:
/// binary-search the owner's pre-flush shard, emitting a same-slot `Put`
/// when the path already exists there (a remove-and-recreate window, or
/// the defensive double-bind case) and an `Insert` otherwise.
fn insert_event(
    users: &BTreeMap<UserId, UserShard>,
    events: &mut Vec<(u64, u64, SlotEv)>,
    user: UserId,
    path: String,
    file: IndexedFile,
) {
    let found = match users.get(&user) {
        Some(shard) => shard
            .files
            .binary_search_by(|(k, _)| cmp_canonical(k.as_str().as_bytes(), path.as_bytes())),
        None => Err(0),
    };
    let seq = convert::u64_from_usize(events.len());
    match found {
        Ok(pos) => events.push((pack(user, pos, true), seq, SlotEv::Put(file))),
        Err(pos) => events.push((
            pack(user, pos, false),
            seq,
            SlotEv::Insert(PathKey::from_canonical(path), file),
        )),
    }
}

/// Append an inserted record to a user's merged listing. The defensive
/// same-key collision (two inserts on one path inside a window — the
/// producer's id-binding invariant makes it unreachable) resolves last
/// writer wins, exactly as per-delta application would.
fn push_insert(
    merged: &mut Vec<(PathKey, IndexedFile)>,
    tally: &mut MergeTally,
    unmapped: &mut Vec<u32>,
    key: PathKey,
    file: IndexedFile,
) {
    if let Some((last_key, last_file)) = merged.last_mut() {
        if *last_key == key {
            if last_file.id != file.id {
                unmapped.push(last_file.id.0);
            }
            tally.drop_old(last_file);
            tally.add(&file);
            *last_file = file;
            return;
        }
    }
    tally.add(&file);
    merged.push((key, file));
}

/// Running byte/atime/file-count deltas of one user's merge, applied to
/// the shard and index totals once per flush instead of once per delta.
#[derive(Debug, Default)]
struct MergeTally {
    bytes_added: u64,
    bytes_removed: u64,
    atime_added: i128,
    atime_removed: i128,
    files_added: usize,
    files_removed: usize,
}

impl MergeTally {
    fn add(&mut self, file: &IndexedFile) {
        self.bytes_added += file.size;
        self.atime_added += i128::from(file.atime.secs());
        self.files_added += 1;
    }

    fn drop_old(&mut self, file: &IndexedFile) {
        self.bytes_removed += file.size;
        self.atime_removed += i128::from(file.atime.secs());
        self.files_removed += 1;
    }
}

/// Bind `id`'s reverse-map slot, growing the dense vector on demand.
fn id_slot_set(by_id: &mut Vec<Option<(UserId, u32)>>, id: u32, slot: (UserId, u32)) {
    let i = convert::usize_from_u32(id);
    if i >= by_id.len() {
        by_id.resize(i + 1, None);
    }
    if let Some(entry) = by_id.get_mut(i) {
        *entry = Some(slot);
    }
}

/// The incrementally maintained catalog: per-user listings + aggregates +
/// a cached [`Catalog`] that is patched, not rebuilt, at snapshot time.
#[derive(Debug, Clone, Default)]
pub struct CatalogIndex {
    users: BTreeMap<UserId, UserShard>,
    /// Reverse map from node id to (owner, slot position in the owner's
    /// shard), so `Touch`/`Remove` deltas (which carry only ids) resolve
    /// in O(1) without a path. Node ids are trie slab indices, so a dense
    /// vector beats hashing on the flush hot path; vacant slots are
    /// `None`. Every flush that reshapes a shard rebinds the positions of
    /// all its surviving records.
    by_id: Vec<Option<(UserId, u32)>>,
    /// The materialized catalog, users sorted ascending; only entries for
    /// users in `dirty` are rebuilt at snapshot time.
    cached: Catalog,
    /// Users whose cached `UserFiles` is stale.
    dirty: BTreeSet<UserId>,
    files: usize,
    total_bytes: u64,
    deltas_applied: u64,
}

impl CatalogIndex {
    /// An empty index.
    pub fn new() -> Self {
        CatalogIndex::default()
    }

    /// Seed the index with one full walk of `fs` — the single initial scan
    /// Robinhood also cannot avoid. Every subsequent trigger is fed from
    /// the changelog alone.
    pub fn from_fs(fs: &VirtualFs, exemptions: &ExemptionList) -> Self {
        let mut index = CatalogIndex::new();
        let mut buffer = DeltaBuffer::unbounded();
        buffer.absorb(fs.iter().map(|(path, id, meta)| Delta::Upsert {
            path,
            id,
            meta: *meta,
        }));
        index.flush(&mut buffer, exemptions);
        // The seeding walk is not part of the changelog stream.
        index.deltas_applied = 0;
        index
    }

    /// Fold a delta batch into the index in one buffered flush.
    /// `exemptions` must be the same list the full scan would use (the
    /// engine's is fixed per run).
    pub fn apply(&mut self, deltas: impl IntoIterator<Item = Delta>, exemptions: &ExemptionList) {
        let mut buffer = DeltaBuffer::unbounded();
        buffer.absorb(deltas);
        self.flush(&mut buffer, exemptions);
    }

    /// Drain `buffer` and fold its net deltas into the index: resolve
    /// each delta against the pre-flush state into per-user slot
    /// operations, then rebuild each touched user's listing with one
    /// sort-merge pass (see the module docs).
    pub fn flush(&mut self, buffer: &mut DeltaBuffer, exemptions: &ExemptionList) {
        self.deltas_applied += buffer.raw_pending();
        if buffer.is_empty() {
            return;
        }

        // Phase 1 — resolution. `by_id` entries consumed here are
        // re-established for every surviving record in the finalize step,
        // so each net delta resolves against the pre-flush state exactly
        // once (the buffer holds at most one delta per id).
        let mut events: Vec<(u64, u64, SlotEv)> = Vec::with_capacity(buffer.len());
        let mut touched_users: Vec<UserId> = Vec::new();
        let mut unmapped: Vec<u32> = Vec::new();
        for delta in buffer.drain() {
            match delta {
                Delta::Upsert { path, id, meta } => {
                    let exempt = exemptions.is_exempt(&path);
                    let file = IndexedFile {
                        id,
                        size: meta.size,
                        atime: meta.atime,
                        ctime: meta.ctime,
                        access_count: meta.access_count,
                        exempt,
                    };
                    // The id may already be indexed (an overwrite at the
                    // same path keeps its node id; a rename re-uses the id
                    // at a new path): same slot is a positional replace,
                    // anything else kills the old slot and re-resolves.
                    let old = self
                        .by_id
                        .get_mut(convert::usize_from_u32(id.0))
                        .and_then(Option::take);
                    if let Some((old_user, old_pos)) = old {
                        let same_slot = old_user == meta.owner
                            && self
                                .users
                                .get(&old_user)
                                .and_then(|s| s.files.get(convert::usize_from_u32(old_pos)))
                                .is_some_and(|(k, _)| k.as_str() == path);
                        let pos = convert::usize_from_u32(old_pos);
                        if same_slot {
                            let seq = convert::u64_from_usize(events.len());
                            events.push((pack(old_user, pos, true), seq, SlotEv::Put(file)));
                            continue;
                        }
                        let seq = convert::u64_from_usize(events.len());
                        events.push((pack(old_user, pos, true), seq, SlotEv::Remove));
                    }
                    insert_event(&self.users, &mut events, meta.owner, path, file);
                }
                Delta::Touch {
                    id,
                    atime,
                    access_count,
                } => self.touch_in_place(id, atime, access_count, &mut touched_users),
                Delta::Remove { id } => {
                    let old = self
                        .by_id
                        .get_mut(convert::usize_from_u32(id.0))
                        .and_then(Option::take);
                    if let Some((user, pos)) = old {
                        let seq = convert::u64_from_usize(events.len());
                        events.push((
                            pack(user, convert::usize_from_u32(pos), true),
                            seq,
                            SlotEv::Remove,
                        ));
                    }
                }
            }
        }
        self.dirty.extend(touched_users);
        // Order events by (owner, position, at-slot): an integer sort —
        // paths only compare between same-position inserts, with the
        // arrival sequence as the final tiebreak so the defensive
        // same-key fold stays deterministic.
        events.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| match (&a.2, &b.2) {
                    (SlotEv::Insert(ka, _), SlotEv::Insert(kb, _)) => ka.cmp(kb),
                    _ => Ordering::Equal,
                })
                .then(a.1.cmp(&b.1))
        });

        // Phase 2 — one merge pass per touched user: walk the old
        // records by position, splicing this user's run of slot events in
        // as it goes. Positions refer to the pre-flush shard, which phase
        // 1 never reshapes (touches only patch records in place).
        let mut rebound: Vec<UserId> = Vec::new();
        let mut events = events.into_iter().peekable();
        while let Some(user_bits) = events.peek().map(|e| e.0 >> 32) {
            let user = UserId(convert::u32_from_u64(user_bits));
            self.dirty.insert(user);
            rebound.push(user);
            let shard = self.users.entry(user).or_default();
            let prior = std::mem::take(&mut shard.files);
            let mut merged: Vec<(PathKey, IndexedFile)> = Vec::with_capacity(prior.len() + 8);
            let mut tally = MergeTally::default();
            for (i, (old_key, old_file)) in prior.into_iter().enumerate() {
                let before = pack(user, i, false);
                let at = pack(user, i, true);
                // New records landing ahead of this slot.
                while events.peek().is_some_and(|e| e.0 == before) {
                    if let Some((_, _, SlotEv::Insert(key, file))) = events.next() {
                        push_insert(&mut merged, &mut tally, &mut unmapped, key, file);
                    }
                }
                // At most a remove plus a put target one slot (the put
                // arrives via the remove-and-recreate or defensive
                // double-bind resolution); either way the old record
                // retires, and a put re-lands on the old key.
                if events.peek().is_some_and(|e| e.0 == at) {
                    let mut put: Option<IndexedFile> = None;
                    while events.peek().is_some_and(|e| e.0 == at) {
                        if let Some((_, _, SlotEv::Put(file))) = events.next() {
                            put = Some(file);
                        }
                    }
                    tally.drop_old(&old_file);
                    if let Some(new) = put {
                        if new.id != old_file.id {
                            // The displaced record's id loses its binding
                            // — unless it relocated in this window, in
                            // which case the rebind pass below re-binds it
                            // after the unmapping sweep.
                            unmapped.push(old_file.id.0);
                        }
                        tally.add(&new);
                        merged.push((old_key, new));
                    }
                } else {
                    merged.push((old_key, old_file));
                }
            }
            // Records past the last old slot are pure insertions.
            while events.peek().is_some_and(|e| (e.0 >> 32) == user_bits) {
                if let Some((_, _, SlotEv::Insert(key, file))) = events.next() {
                    push_insert(&mut merged, &mut tally, &mut unmapped, key, file);
                }
            }
            let empty = merged.is_empty();
            shard.bytes -= tally.bytes_removed;
            shard.bytes += tally.bytes_added;
            shard.atime_secs_sum += tally.atime_added - tally.atime_removed;
            shard.files = merged;
            self.total_bytes -= tally.bytes_removed;
            self.total_bytes += tally.bytes_added;
            self.files -= tally.files_removed;
            self.files += tally.files_added;
            if empty {
                self.users.remove(&user);
            }
        }

        // Finalize the reverse map: dead ids first, then every surviving
        // record of every reshaped shard gets its (possibly shifted)
        // position re-bound — in that order, so an id whose old slot was
        // clobbered in the same window keeps its new binding.
        for id in unmapped {
            if let Some(slot) = self.by_id.get_mut(convert::usize_from_u32(id)) {
                *slot = None;
            }
        }
        for user in rebound {
            if let Some(shard) = self.users.get(&user) {
                for (p, (_, file)) in shard.files.iter().enumerate() {
                    let pos = convert::u32_from_u64(convert::u64_from_usize(p));
                    id_slot_set(&mut self.by_id, file.id.0, (user, pos));
                }
            }
        }
    }

    /// Apply a `Touch` directly to the indexed record. Touches never move
    /// a record between slots, so they bypass the batch merge entirely —
    /// the reverse map points straight at the slot, no search at all.
    fn touch_in_place(
        &mut self,
        id: NodeId,
        atime: Timestamp,
        access_count: u32,
        touched: &mut Vec<UserId>,
    ) {
        let Some(&(user, pos)) = self
            .by_id
            .get(convert::usize_from_u32(id.0))
            .and_then(Option::as_ref)
        else {
            return; // touch of an untracked file: nothing to update
        };
        if let Some(shard) = self.users.get_mut(&user) {
            if let Some((_, file)) = shard.files.get_mut(convert::usize_from_u32(pos)) {
                shard.atime_secs_sum += i128::from(atime.secs()) - i128::from(file.atime.secs());
                file.atime = atime;
                file.access_count = access_count;
                touched.push(user);
            }
        }
    }

    /// Materialize the catalog. Only users touched since the previous
    /// snapshot are re-listed — collected into one batch and merged into
    /// the cached catalog in a single pass; a no-change snapshot returns
    /// the cached catalog untouched, in O(1).
    pub fn snapshot(&mut self) -> &Catalog {
        if self.dirty.is_empty() {
            return &self.cached;
        }
        let dirty = std::mem::take(&mut self.dirty);
        let mut upserts: Vec<UserFiles> = Vec::with_capacity(dirty.len());
        let mut removals: Vec<UserId> = Vec::new();
        for user in dirty {
            match self.users.get(&user) {
                Some(shard) => {
                    let files: Vec<FileRecord> =
                        shard.files.iter().map(|(_, f)| f.record()).collect();
                    upserts.push(UserFiles::new(user, files));
                }
                None => removals.push(user),
            }
        }
        // Both vectors are ascending by user id (`dirty` is an ordered
        // set), as `merge_users` requires.
        self.cached.merge_users(upserts, &removals);
        &self.cached
    }

    /// Files currently indexed.
    pub fn file_count(&self) -> usize {
        self.files
    }

    /// Bytes currently indexed.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Users currently holding at least one file.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Raw (pre-coalescing) deltas folded in over the index's lifetime.
    pub fn deltas_applied(&self) -> u64 {
        self.deltas_applied
    }

    /// Users whose cached listing is stale and will be re-materialized by
    /// the next [`CatalogIndex::snapshot`].
    pub fn dirty_user_count(&self) -> usize {
        self.dirty.len()
    }

    /// Aggregates for one user, if they own any files.
    pub fn user_aggregates(&self, user: UserId) -> Option<UserAggregates> {
        self.users.get(&user).map(|shard| UserAggregates {
            user,
            files: shard.files.len(),
            bytes: shard.bytes,
            atime_secs_sum: shard.atime_secs_sum,
        })
    }

    /// Aggregates for every user, ascending by user id.
    pub fn aggregates(&self) -> Vec<UserAggregates> {
        self.users
            .iter()
            .map(|(&user, shard)| UserAggregates {
                user,
                files: shard.files.len(),
                bytes: shard.bytes,
                atime_secs_sum: shard.atime_secs_sum,
            })
            .collect()
    }

    /// Export every indexed record as an [`Delta::Upsert`], ascending by
    /// (user, path) — the checkpoint writer's view ([`crate::storage`]).
    /// Feeding these back through [`CatalogIndex::flush`] with the same
    /// exemption list reconstructs an index with identical contents and
    /// aggregates. Stripe counts are not retained by the index, so the
    /// exported metadata normalizes them to 1; no index observable reads
    /// them.
    pub fn export_deltas(&self) -> impl Iterator<Item = Delta> + '_ {
        self.users.iter().flat_map(|(&user, shard)| {
            shard.files.iter().map(move |(key, f)| Delta::Upsert {
                path: key.as_str().to_string(),
                id: f.id,
                meta: FileMeta {
                    owner: user,
                    size: f.size,
                    atime: f.atime,
                    ctime: f.ctime,
                    stripes: 1,
                    access_count: f.access_count,
                },
            })
        })
    }
}

/// Describe every way two catalogs differ, as human-readable lines
/// (empty when identical). Used by the engine's debug-mode catalog guard
/// to report incremental-vs-full-scan drift through the flight recorder
/// with enough detail to localize the broken delta path.
pub fn diff_catalogs(incremental: &Catalog, full_scan: &Catalog) -> Vec<String> {
    let mut out = Vec::new();
    let inc_users: BTreeMap<UserId, &UserFiles> =
        incremental.users.iter().map(|u| (u.user, u)).collect();
    let scan_users: BTreeMap<UserId, &UserFiles> =
        full_scan.users.iter().map(|u| (u.user, u)).collect();
    for (&user, _) in inc_users
        .iter()
        .filter(|(u, _)| !scan_users.contains_key(u))
    {
        out.push(format!(
            "user {}: present in index, absent in full scan",
            user.0
        ));
    }
    for (&user, &scanned) in &scan_users {
        let Some(indexed) = inc_users.get(&user) else {
            out.push(format!(
                "user {}: absent in index, present in full scan",
                user.0
            ));
            continue;
        };
        if indexed.files.len() != scanned.files.len() {
            out.push(format!(
                "user {}: {} file(s) in index, {} in full scan",
                user.0,
                indexed.files.len(),
                scanned.files.len()
            ));
        }
        for (i, s) in indexed.files.iter().zip(scanned.files.iter()) {
            if i != s {
                out.push(format!(
                    "user {} file {}: index {:?} != scan {:?}",
                    user.0, s.id.0, i, s
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use activedr_core::user::UserId;

    fn day(d: i64) -> Timestamp {
        Timestamp::from_days(d)
    }

    fn populated() -> (VirtualFs, ExemptionList) {
        let mut fs = VirtualFs::with_capacity(0);
        fs.create("/u2/x", UserId(2), 10, day(1)).unwrap();
        fs.create("/u1/keep", UserId(1), 20, day(2)).unwrap();
        fs.create("/u1/drop", UserId(1), 30, day(3)).unwrap();
        fs.create("/u1/deep/run/out.dat", UserId(1), 40, day(4))
            .unwrap();
        let mut ex = ExemptionList::new();
        ex.reserve_file("/u1/keep");
        (fs, ex)
    }

    #[test]
    fn path_key_orders_like_the_trie() {
        // Raw string order would put "/x/a.b" first ('.' < '/'); component
        // order puts the shorter component "a" first, like the trie.
        let mut keys = [
            PathKey::new("/x/a.b"),
            PathKey::new("/x/a/b"),
            PathKey::new("/x/a"),
        ];
        keys.sort();
        let sorted: Vec<&str> = keys.iter().map(PathKey::as_str).collect();
        assert_eq!(sorted, vec!["/x/a", "/x/a/b", "/x/a.b"]);
        // And normalization matches the trie's.
        assert_eq!(PathKey::new("//a/./b").as_str(), "/a/b");
        // The ownership-taking constructor agrees with the normalizing one
        // on already-canonical input.
        assert_eq!(
            PathKey::from_canonical("/a/b".to_string()),
            PathKey::new("/a/b")
        );
    }

    #[test]
    fn seeded_index_matches_full_scan() {
        let (fs, ex) = populated();
        let mut index = CatalogIndex::from_fs(&fs, &ex);
        assert_eq!(index.snapshot(), &fs.catalog(&ex));
        assert_eq!(index.file_count(), fs.file_count());
        assert_eq!(index.total_bytes(), fs.used_bytes());
        assert_eq!(index.user_count(), 2);
        assert_eq!(index.deltas_applied(), 0);
    }

    #[test]
    fn deltas_keep_index_identical_to_rescans() {
        let (mut fs, ex) = populated();
        fs.enable_changelog();
        let mut index = CatalogIndex::from_fs(&fs, &ex);

        // Creates, overwrites, touches, removals — then compare.
        fs.create("/u3/new", UserId(3), 7, day(5)).unwrap();
        fs.create("/u1/drop", UserId(1), 99, day(6)).unwrap(); // overwrite
        fs.access("/u2/x", day(7));
        fs.remove("/u1/keep").unwrap();
        index.apply(fs.drain_changelog(), &ex);
        assert_eq!(index.snapshot(), &fs.catalog(&ex));
        assert_eq!(index.total_bytes(), fs.used_bytes());

        // Removing a user's last file drops the user entirely.
        fs.remove("/u2/x").unwrap();
        index.apply(fs.drain_changelog(), &ex);
        assert_eq!(index.snapshot(), &fs.catalog(&ex));
        assert!(index.user_aggregates(UserId(2)).is_none());

        // Subtree teardown and rename flow through as deltas too.
        fs.rename("/u3/new", "/u1/moved").unwrap();
        fs.remove_subtree("/u1/deep");
        index.apply(fs.drain_changelog(), &ex);
        assert_eq!(index.snapshot(), &fs.catalog(&ex));
    }

    #[test]
    fn buffered_flush_matches_per_delta_application() {
        // The batched sort-merge path and one-delta-at-a-time application
        // must land on identical indexes — including a create/remove pair
        // that coalesces to a net no-op and a rename that relocates an id.
        let (mut fs, ex) = populated();
        fs.enable_changelog();
        let mut per_delta = CatalogIndex::from_fs(&fs, &ex);
        let mut batched = CatalogIndex::from_fs(&fs, &ex);

        fs.create("/u3/tmp", UserId(3), 5, day(5)).unwrap();
        fs.remove("/u3/tmp").unwrap();
        fs.create("/u1/drop", UserId(1), 99, day(6)).unwrap();
        fs.access("/u1/drop", day(7));
        fs.rename("/u1/drop", "/u2/taken").unwrap();
        let deltas = fs.drain_changelog();

        for delta in deltas.clone() {
            per_delta.apply([delta], &ex);
        }
        let mut buffer = DeltaBuffer::unbounded();
        buffer.absorb(deltas);
        batched.flush(&mut buffer, &ex);

        assert_eq!(batched.snapshot(), per_delta.snapshot());
        assert_eq!(batched.snapshot(), &fs.catalog(&ex));
        assert_eq!(batched.total_bytes(), per_delta.total_bytes());
        assert_eq!(batched.file_count(), per_delta.file_count());
        // Raw delta accounting survives coalescing.
        assert_eq!(batched.deltas_applied(), per_delta.deltas_applied());
    }

    #[test]
    fn no_change_snapshot_is_cached() {
        let (mut fs, ex) = populated();
        fs.enable_changelog();
        let mut index = CatalogIndex::from_fs(&fs, &ex);
        let first = index.snapshot().clone();
        // Nothing changed: the snapshot must be the cached value and the
        // dirty set empty (O(1) path).
        index.apply(fs.drain_changelog(), &ex);
        assert!(index.dirty.is_empty());
        assert_eq!(index.snapshot(), &first);
    }

    #[test]
    fn aggregates_track_bytes_and_mean_age() {
        let (fs, ex) = populated();
        let index = CatalogIndex::from_fs(&fs, &ex);
        let u1 = index.user_aggregates(UserId(1)).unwrap();
        assert_eq!(u1.files, 3);
        assert_eq!(u1.bytes, 90);
        let expect_sum =
            i128::from(day(2).secs()) + i128::from(day(3).secs()) + i128::from(day(4).secs());
        assert_eq!(u1.atime_secs_sum, expect_sum);
        let mean_age = u1.mean_age_secs(day(10)).unwrap();
        assert_eq!(mean_age, i128::from(day(10).secs()) - expect_sum / 3);
        assert!(index.user_aggregates(UserId(9)).is_none());
        let all = index.aggregates();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].user, UserId(1));
        assert_eq!(all[1].user, UserId(2));
        assert_eq!(
            all.iter().map(|a| a.bytes).sum::<u64>(),
            index.total_bytes()
        );
    }

    #[test]
    fn owner_change_on_overwrite_moves_the_record() {
        let mut fs = VirtualFs::with_capacity(0);
        fs.create("/shared/f", UserId(1), 10, day(1)).unwrap();
        fs.enable_changelog();
        let ex = ExemptionList::new();
        let mut index = CatalogIndex::from_fs(&fs, &ex);
        // Overwrite transfers ownership to user 2.
        fs.create("/shared/f", UserId(2), 25, day(2)).unwrap();
        index.apply(fs.drain_changelog(), &ex);
        assert_eq!(index.snapshot(), &fs.catalog(&ex));
        assert!(index.user_aggregates(UserId(1)).is_none());
        assert_eq!(index.user_aggregates(UserId(2)).unwrap().bytes, 25);
    }

    #[test]
    fn dirty_user_count_tracks_pending_rematerialization() {
        let (mut fs, ex) = populated();
        fs.enable_changelog();
        let mut index = CatalogIndex::from_fs(&fs, &ex);
        index.snapshot();
        assert_eq!(index.dirty_user_count(), 0);
        fs.access("/u2/x", day(9));
        index.apply(fs.drain_changelog(), &ex);
        assert_eq!(index.dirty_user_count(), 1);
        index.snapshot();
        assert_eq!(index.dirty_user_count(), 0);
    }

    #[test]
    fn diff_catalogs_is_empty_for_identical_states() {
        let (fs, ex) = populated();
        let mut index = CatalogIndex::from_fs(&fs, &ex);
        assert!(diff_catalogs(index.snapshot(), &fs.catalog(&ex)).is_empty());
    }

    #[test]
    fn diff_catalogs_localizes_injected_drift() {
        // Regression for the KNOWN_FAILURES changelog-drift watch item:
        // fabricate a lost-delta scenario (a Remove the changelog never
        // saw reaching the index as a spurious extra delta) and assert
        // the guard's differ pinpoints the divergence.
        let (mut fs, ex) = populated();
        fs.enable_changelog();
        let mut index = CatalogIndex::from_fs(&fs, &ex);
        let victim = fs
            .iter()
            .find(|(p, _, _)| p == "/u2/x")
            .map(|(_, id, _)| id);
        let victim = victim.expect("fixture file");
        index.apply([Delta::Remove { id: victim }], &ex);
        let diffs = diff_catalogs(index.snapshot(), &fs.catalog(&ex));
        assert!(!diffs.is_empty());
        assert!(
            diffs.iter().any(|d| d.contains("user 2")),
            "expected user 2 in {diffs:?}"
        );
        // And a size-drift divergence names the file.
        let (mut fs2, ex2) = populated();
        fs2.enable_changelog();
        let mut index2 = CatalogIndex::from_fs(&fs2, &ex2);
        let (id, meta) = fs2
            .iter()
            .find(|(p, _, _)| p == "/u1/drop")
            .map(|(_, id, m)| (id, *m))
            .expect("fixture file");
        let mut drifted = meta;
        drifted.size += 1;
        index2.apply(
            [Delta::Upsert {
                path: "/u1/drop".to_string(),
                id,
                meta: drifted,
            }],
            &ex2,
        );
        let diffs2 = diff_catalogs(index2.snapshot(), &fs2.catalog(&ex2));
        assert!(diffs2.iter().any(|d| d.contains("file")), "{diffs2:?}");
    }

    #[test]
    fn exemption_flags_follow_the_list() {
        let (fs, ex) = populated();
        let mut index = CatalogIndex::from_fs(&fs, &ex);
        let catalog = index.snapshot();
        let u1 = catalog.get(UserId(1)).unwrap();
        let keep = u1
            .files
            .iter()
            .zip(["/u1/deep/run/out.dat", "/u1/drop", "/u1/keep"])
            .find(|(_, p)| *p == "/u1/keep")
            .unwrap()
            .0;
        assert!(keep.exempt);
        assert_eq!(u1.files.iter().filter(|f| f.exempt).count(), 1);
    }
}

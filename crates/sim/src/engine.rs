//! The trace-driven emulation engine (§4.1.3).
//!
//! The engine restores a virtual file system from the initial snapshot,
//! replays the application-log access stream day by day, and triggers the
//! configured retention policy at the purge interval (the paper replays
//! 2016 with a 7-day trigger). Every file read against a path the virtual
//! file system no longer holds is a **file miss**, attributed to the
//! owner's activeness quadrant at the most recent evaluation.

#![allow(
    clippy::indexing_slicing,
    reason = "index sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]
#![allow(
    clippy::expect_used,
    reason = "expect sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]
#![allow(
    clippy::missing_panics_doc,
    reason = "asserts guard scenario invariants; every panic site is tracked by the xtask panic-freedom ratchet"
)]

use crate::archive::{ArchiveConfig, ArchiveStats, ArchiveTier};
use crate::metrics::DailyMetrics;
use activedr_core::convert;
use activedr_core::prelude::*;
use activedr_fs::changelog::Delta;
use activedr_fs::{
    diff_catalogs, flush_beats_scan, CatalogIndex, DeltaBuffer, DurabilityConfig, DurableCatalog,
    ExemptionList, InjectedCrash, VirtualFs,
};
use activedr_obs::{Counter, Histogram, ObsConfig, Telemetry};
use activedr_trace::{activity_events, AccessKind, TraceSet};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Which retention policy drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    Flt,
    ActiveDr,
    /// §2 related work: scratch-as-a-cache (evict everything idle longer
    /// than the purge interval).
    ScratchCache,
    /// §2 related work: global file-value ranking.
    ValueBased,
}

impl PolicyKind {
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Flt => "FLT",
            PolicyKind::ActiveDr => "ActiveDR",
            PolicyKind::ScratchCache => "ScratchCache",
            PolicyKind::ValueBased => "ValueBased",
        }
    }
}

/// How user activeness is evaluated at each trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EvalMode {
    /// Re-derive every rank from the full trace at each trigger — what
    /// the paper's prototype does.
    #[default]
    Batch,
    /// Maintain per-user event windows incrementally
    /// ([`activedr_core::streaming::StreamingEvaluator`]); each trigger
    /// touches only in-window events. Identical results, production
    /// scaling.
    Streaming,
}

/// How the trigger-time catalog is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CatalogMode {
    /// Re-walk the whole namespace at every trigger — what the paper's
    /// prototype does (O(total files) per trigger).
    #[default]
    FullScan,
    /// Robinhood-style incremental catalog: the file system records a
    /// changelog and a [`CatalogIndex`] folds it in O(changes), then
    /// snapshots a catalog identical to the full scan.
    Incremental,
}

/// How a missed (purged) file comes back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryModel {
    /// No recovery: a missed file stays missing (every later access
    /// misses again).
    None,
    /// Fixed re-staging delay after the miss (coarse model).
    FixedDelay(TimeDelta),
    /// Queue the retrieval on a modeled archive tier: recovery time
    /// depends on file size, stream contention and request latency
    /// (see [`crate::archive`]).
    Archive(ArchiveConfig),
}

impl Default for RecoveryModel {
    fn default() -> Self {
        RecoveryModel::FixedDelay(TimeDelta::from_days(2))
    }
}

impl RecoveryModel {
    fn enabled(&self) -> bool {
        !matches!(self, RecoveryModel::None)
    }
}

/// Full configuration of one emulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub policy: PolicyKind,
    /// The facility's file lifetime `d` — also used as the activeness
    /// period length, as in the paper's evaluation (§4.4 varies both
    /// together as "period length").
    pub lifetime_days: u32,
    /// Days between purge triggers (paper: 7).
    pub purge_interval_days: u32,
    /// ActiveDR's purge target as a fraction of capacity that must remain
    /// *used* after the purge — the paper sets 0.5 ("50 % of the total
    /// storage capacity"). `None` disables targeting (unbounded scan).
    pub purge_target_utilization: Option<f64>,
    pub retention: RetentionConfig,
    pub activeness: ActivenessConfig,
    pub registry: ActivityTypeRegistry,
    pub exemptions: ExemptionList,
    /// Users recover purged files by re-transmission or re-generation
    /// ("it can take hours to days for the users to recover their data",
    /// §2). See [`RecoveryModel`].
    pub recovery: RecoveryModel,
    /// Batch (paper-faithful) or streaming (incremental) evaluation.
    pub eval_mode: EvalMode,
    /// Shard count for data-parallel activeness evaluation in
    /// [`EvalMode::Batch`] (see [`crate::parallel`]). `None` (default)
    /// evaluates serially; the sharded path is bitwise-identical by
    /// construction. Ignored in [`EvalMode::Streaming`], whose evaluator
    /// carries cross-call state.
    pub eval_shards: Option<usize>,
    /// Full-scan (paper-faithful) or changelog-driven catalogs.
    pub catalog_mode: CatalogMode,
    /// Telemetry knobs (disabled by default). Strictly side-channel: the
    /// engine's results are byte-identical with telemetry on or off.
    pub obs: ObsConfig,
    /// Debug-mode consistency guard for [`CatalogMode::Incremental`]:
    /// every this-many days (at a trigger), diff the incremental index
    /// snapshot against a fresh full scan and report divergence through
    /// the flight recorder and `catalog.guard_*` counters. Read-only —
    /// replay results are unaffected. `None` (default) disables it.
    pub catalog_guard_interval_days: Option<u32>,
    /// Coalescing delta-buffer bound for [`CatalogMode::Incremental`]:
    /// once more than this many distinct nodes are pending, the engine
    /// folds the buffer into the index early (a *forced flush*, counted
    /// by `catalog.forced_flushes`) instead of waiting for the next
    /// trigger, so a bursty trace cannot grow the pending set without
    /// limit. Ignored in [`CatalogMode::FullScan`].
    pub delta_buffer_cap: usize,
    /// Opt-in crash-safe persistence for [`CatalogMode::Incremental`]:
    /// drained delta batches are write-ahead logged and flush boundaries
    /// marked *before* the in-memory state changes, with a checkpoint of
    /// the `(index, buffer)` pair every N triggers, so a service death
    /// mid-replay recovers to the exact live state (see
    /// `activedr_fs::storage`). Strictly side-channel — replay results
    /// are byte-identical with durability on or off, crash or no crash.
    /// Ignored in [`CatalogMode::FullScan`]. `None` (default) keeps the
    /// catalog purely in memory.
    pub durability: Option<DurabilityConfig>,
}

impl SimConfig {
    /// The paper's FLT baseline at a given lifetime.
    pub fn flt(lifetime_days: u32) -> Self {
        SimConfig {
            policy: PolicyKind::Flt,
            ..SimConfig::base(lifetime_days)
        }
    }

    /// The paper's ActiveDR setup at a given lifetime, purging to 50 %
    /// utilization.
    pub fn activedr(lifetime_days: u32) -> Self {
        SimConfig {
            policy: PolicyKind::ActiveDr,
            ..SimConfig::base(lifetime_days)
        }
    }

    /// §2 scratch-as-a-cache baseline (lifetime parameter ignored by the
    /// policy itself; the eviction window is the purge interval).
    pub fn scratch_cache() -> Self {
        SimConfig {
            policy: PolicyKind::ScratchCache,
            ..SimConfig::base(7)
        }
    }

    /// §2 value-based baseline at the same 50 % utilization target as
    /// ActiveDR.
    pub fn value_based(lifetime_days: u32) -> Self {
        SimConfig {
            policy: PolicyKind::ValueBased,
            ..SimConfig::base(lifetime_days)
        }
    }

    fn base(lifetime_days: u32) -> Self {
        assert!(lifetime_days > 0);
        SimConfig {
            policy: PolicyKind::Flt,
            lifetime_days,
            purge_interval_days: 7,
            purge_target_utilization: Some(0.5),
            retention: RetentionConfig::new(lifetime_days),
            activeness: ActivenessConfig::year_window(lifetime_days),
            registry: ActivityTypeRegistry::paper_default(),
            exemptions: ExemptionList::new(),
            recovery: RecoveryModel::default(),
            eval_mode: EvalMode::default(),
            eval_shards: None,
            catalog_mode: CatalogMode::default(),
            obs: ObsConfig::default(),
            catalog_guard_interval_days: None,
            delta_buffer_cap: 1 << 16,
            durability: None,
        }
    }

    pub fn with_exemptions(mut self, exemptions: ExemptionList) -> Self {
        self.exemptions = exemptions;
        self
    }

    pub fn with_catalog_mode(mut self, mode: CatalogMode) -> Self {
        self.catalog_mode = mode;
        self
    }

    pub fn with_eval_shards(mut self, shards: usize) -> Self {
        self.eval_shards = Some(shards);
        self
    }

    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    pub fn with_catalog_guard(mut self, interval_days: u32) -> Self {
        self.catalog_guard_interval_days = Some(interval_days);
        self
    }

    pub fn with_delta_buffer_cap(mut self, cap: usize) -> Self {
        self.delta_buffer_cap = cap;
        self
    }

    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }
}

/// Diagnostics from one retention trigger.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RetentionEvent {
    pub day: i64,
    pub used_before: u64,
    pub used_after: u64,
    pub target_bytes: Option<u64>,
    pub target_met: bool,
    pub purged_files: u64,
    pub purged_bytes: u64,
    pub users_affected: usize,
    /// The users who lost the most bytes at this trigger (top 5), for the
    /// administrator digest.
    pub top_losers: Vec<(UserId, u64)>,
    pub breakdown: RetentionBreakdown,
    pub group_scans: Vec<GroupScan>,
    /// Fig. 12b probes, microseconds.
    pub eval_micros: u64,
    pub scan_micros: u64,
    pub decision_micros: u64,
    pub apply_micros: u64,
}

/// The outcome of a full emulation run.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct SimResult {
    pub policy: String,
    pub lifetime_days: u32,
    pub capacity: u64,
    pub daily: Vec<DailyMetrics>,
    pub retentions: Vec<RetentionEvent>,
    pub final_used: u64,
    pub final_files: u64,
    /// Quadrant of each user at the final activeness evaluation.
    pub final_quadrants: HashMap<UserId, Quadrant>,
    /// Archive-tier retrieval statistics (populated when
    /// [`RecoveryModel::Archive`] drives recovery).
    pub archive: Option<ArchiveStats>,
}

impl SimResult {
    pub fn total_misses(&self) -> u64 {
        self.daily.iter().map(|d| d.misses).sum()
    }

    pub fn total_reads(&self) -> u64 {
        self.daily.iter().map(|d| d.reads).sum()
    }

    pub fn misses_by_quadrant(&self) -> [u64; 4] {
        let mut out = [0u64; 4];
        for d in &self.daily {
            for (acc, m) in out.iter_mut().zip(d.misses_by_quadrant.iter()) {
                *acc += m;
            }
        }
        out
    }

    pub fn total_purged_bytes(&self) -> u64 {
        self.retentions.iter().map(|r| r.purged_bytes).sum()
    }

    /// Total re-transmission traffic users paid to recover purged files —
    /// the §2 I/O burden that disqualifies scratch-as-a-cache.
    pub fn total_restage_bytes(&self) -> u64 {
        self.daily.iter().map(|d| d.restage_bytes).sum()
    }

    pub fn total_restages(&self) -> u64 {
        self.daily.iter().map(|d| d.restages).sum()
    }
}

/// Build the initial virtual file system from a trace bundle. The capacity
/// is the total synthesized size of the initial snapshot, exactly as the
/// paper defines it (§4.1.3).
pub fn build_initial_fs(traces: &TraceSet) -> VirtualFs {
    let total: u64 = traces.initial_files.iter().map(|f| f.size).sum();
    let mut fs = VirtualFs::with_capacity(total);
    for f in &traces.initial_files {
        let meta = activedr_fs::FileMeta::new(f.owner, f.size, f.atime)
            .with_ctime(f.created)
            .with_stripes(activedr_fs::recommended_stripes(f.size));
        fs.insert_meta(&f.path, meta)
            .expect("initial snapshot contains conflicting paths");
    }
    fs
}

/// Apply the pre-replay FLT pass: the paper's initial snapshot "has already
/// been a result of the 90-day FLT data retention", so scenario setups run
/// one unbounded FLT-90 purge before replay begins.
pub fn pre_purge_flt(fs: &mut VirtualFs, at: Timestamp, lifetime_days: u32) -> u64 {
    let catalog = fs.catalog(&ExemptionList::new());
    let table = ActivenessTable::new();
    let outcome = FltPolicy::days(lifetime_days).run(PurgeRequest {
        tc: at,
        catalog: &catalog,
        activeness: &table,
        target_bytes: None,
    });
    fs.apply(&outcome)
}

/// Run one full emulation over the whole replay window.
pub fn run(traces: &TraceSet, fs: VirtualFs, config: &SimConfig) -> SimResult {
    run_until(traces, fs, config, None).0
}

/// Run the emulation, optionally stopping at `until_day` (exclusive), and
/// hand back the virtual file system state — used by the snapshot
/// experiments (Figs. 9-11) that dissect the state at a specific date.
pub fn run_until(
    traces: &TraceSet,
    fs: VirtualFs,
    config: &SimConfig,
    until_day: Option<i64>,
) -> (SimResult, VirtualFs) {
    run_instrumented(traces, fs, config, until_day, &mut |_| {})
}

/// Everything a [`run_instrumented`] probe sees at one retention trigger:
/// the catalog the policy consumed (built by whichever [`CatalogMode`] is
/// configured), the recorded event when the trigger actually purged
/// (`None` when a targeted policy skipped below-target), and the post-purge
/// file system.
pub struct TriggerProbe<'a> {
    pub day: i64,
    pub catalog: &'a Catalog,
    pub event: Option<&'a RetentionEvent>,
    pub fs: &'a VirtualFs,
}

/// [`run_until`] with a probe invoked at *every* retention trigger —
/// including the skipped ones — exposing the trigger-time catalog, the
/// event just recorded (if the trigger purged), and the post-purge file
/// system. This is the hook for weekly-snapshot capture, live dashboards,
/// or custom audit trails (filter on [`TriggerProbe::event`] for the
/// triggers that purged); the catalog-equivalence tests use it to compare
/// [`CatalogMode`]s trigger by trigger.
pub fn run_instrumented(
    traces: &TraceSet,
    fs: VirtualFs,
    config: &SimConfig,
    until_day: Option<i64>,
    probe: &mut dyn FnMut(TriggerProbe<'_>),
) -> (SimResult, VirtualFs) {
    let tele = Telemetry::new(&config.obs);
    run_engine(traces, fs, config, until_day, probe, &tele)
}

/// Run one full emulation recording into a caller-owned [`Telemetry`]
/// instance, so the caller can snapshot a [`activedr_obs::TelemetryReport`]
/// afterwards (the CLI's `--telemetry` path). `config.obs` is ignored —
/// the passed handle decides whether anything is recorded. Telemetry is
/// strictly observational: the returned `SimResult` is byte-identical to a
/// [`run`] without it.
pub fn run_with_telemetry(
    traces: &TraceSet,
    fs: VirtualFs,
    config: &SimConfig,
    tele: &Telemetry,
) -> (SimResult, VirtualFs) {
    run_engine(traces, fs, config, None, &mut |_| {}, tele)
}

/// Telemetry handles the engine hot paths touch, resolved once up front so
/// the replay loop never does a name lookup.
struct EngineMetrics {
    reads: Counter,
    misses: Counter,
    writes: Counter,
    restages_enqueued: Counter,
    restages_completed: Counter,
    restage_bytes: Counter,
    purged_files: Counter,
    purged_bytes: Counter,
    triggers_fired: Counter,
    triggers_skipped: Counter,
    changelog_deltas: Counter,
    forced_flushes: Counter,
    scan_fallbacks: Counter,
    guard_checks: Counter,
    guard_divergences: Counter,
    wal_appends: Counter,
    wal_bytes: Counter,
    wal_torn_writes: Counter,
    checkpoint_writes: Counter,
    checkpoint_bytes: Counter,
    recoveries: Counter,
    replayed_records: Counter,
    purged_bytes_per_trigger: Histogram,
    trigger_micros: Histogram,
    /// Per-trigger activeness classification time (`core::classify` via
    /// the evaluator) — the paper's Fig. 12b "evaluation" phase.
    eval_micros: Histogram,
    /// Per-trigger ranking + purge decision time (`core::rank` /
    /// `core::policy`).
    decision_micros: Histogram,
    /// Durable-catalog checkpoint write time.
    checkpoint_micros: Histogram,
}

impl EngineMetrics {
    /// Purged-bytes-per-trigger buckets: 1 MiB to 1 TiB in x16 steps.
    const BYTES_BOUNDS: [u64; 6] = [1 << 20, 1 << 24, 1 << 28, 1 << 32, 1 << 36, 1 << 40];
    /// Trigger-latency buckets: 10 µs to 10 s in decades.
    const MICROS_BOUNDS: [u64; 7] = [10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

    fn new(tele: &Telemetry) -> Self {
        EngineMetrics {
            reads: tele.counter("replay.reads"),
            misses: tele.counter("replay.misses"),
            writes: tele.counter("replay.writes"),
            restages_enqueued: tele.counter("recovery.restages_enqueued"),
            restages_completed: tele.counter("recovery.restages_completed"),
            restage_bytes: tele.counter("recovery.restage_bytes"),
            purged_files: tele.counter("retention.purged_files"),
            purged_bytes: tele.counter("retention.purged_bytes"),
            triggers_fired: tele.counter("retention.triggers_fired"),
            triggers_skipped: tele.counter("retention.triggers_skipped"),
            changelog_deltas: tele.counter("catalog.changelog_deltas"),
            forced_flushes: tele.counter("catalog.forced_flushes"),
            scan_fallbacks: tele.counter("catalog.scan_fallbacks"),
            guard_checks: tele.counter("catalog.guard_checks"),
            guard_divergences: tele.counter("catalog.guard_divergences"),
            wal_appends: tele.counter("wal.appends"),
            wal_bytes: tele.counter("wal.bytes"),
            wal_torn_writes: tele.counter("wal.torn_writes"),
            checkpoint_writes: tele.counter("checkpoint.writes"),
            checkpoint_bytes: tele.counter("checkpoint.bytes"),
            recoveries: tele.counter("recovery.recoveries"),
            replayed_records: tele.counter("recovery.replayed_records"),
            purged_bytes_per_trigger: tele
                .histogram("retention.purged_bytes_per_trigger", &Self::BYTES_BOUNDS),
            trigger_micros: tele.histogram("retention.trigger_micros", &Self::MICROS_BOUNDS),
            eval_micros: tele.histogram("activeness.eval_micros", &Self::MICROS_BOUNDS),
            decision_micros: tele.histogram("policy.decision_micros", &Self::MICROS_BOUNDS),
            checkpoint_micros: tele.histogram("checkpoint.duration_micros", &Self::MICROS_BOUNDS),
        }
    }
}

/// Reopen the durability directory after a (real or injected) crash:
/// recovery loads the newest valid checkpoint, replays the WAL tail, and
/// the live `(index, buffer)` pair is replaced wholesale by the recovered
/// one. Write-ahead ordering guarantees the recovered pair equals the
/// live pair at every append boundary, so the swap is observably a
/// no-op — which is exactly what the crash-point sweep test proves.
/// Returns `None` (degraded, in-memory-only from here on) if the reopen
/// itself fails.
#[allow(clippy::too_many_arguments)]
fn durable_reopen(
    dcfg: &DurabilityConfig,
    fs: &VirtualFs,
    exemptions: &ExemptionList,
    buffer_cap: usize,
    index: &mut CatalogIndex,
    buffer: &mut DeltaBuffer,
    day: i64,
    metrics: &EngineMetrics,
    tele: &Telemetry,
) -> Option<DurableCatalog> {
    match DurableCatalog::open(dcfg, fs, exemptions, buffer_cap) {
        Ok(opened) => {
            match opened.recovered {
                Some(stats) => {
                    metrics.recoveries.inc();
                    metrics.replayed_records.add(stats.replayed_records);
                    tele.flight(day, "durable-recover", || {
                        format!(
                            "checkpoint seq {} + {} WAL record(s) replayed \
                             ({} truncated byte(s), {} fallback(s))",
                            stats.checkpoint_seq,
                            stats.replayed_records,
                            stats.truncated_bytes,
                            stats.fallback_checkpoints
                        )
                    });
                }
                None => {
                    // No valid checkpoint survived (shouldn't happen —
                    // open wrote checkpoint 0): the cold-start path
                    // reseeded from the live namespace, which is still
                    // the truth. Count its checkpoint.
                    metrics
                        .checkpoint_writes
                        .add(opened.durable.checkpoints_written());
                }
            }
            *index = opened.index;
            *buffer = opened.buffer;
            Some(opened.durable)
        }
        Err(e) => {
            tele.flight(day, "durable-degraded", || {
                format!("recovery reopen failed, continuing in-memory: {e}")
            });
            None
        }
    }
}

/// Write-ahead log one record — `Some(batch)` for a drained delta batch,
/// `None` for a buffer→index flush mark. Empty batches are skipped. A
/// torn write (injected or real) triggers crash-and-recover in place:
/// drop the handle, recover from disk (truncating the torn tail),
/// replace the live pair with the recovered one, and re-append the
/// interrupted record. If even that fails the layer degrades to `None`
/// and the replay continues purely in memory.
#[allow(clippy::too_many_arguments)]
fn durable_append(
    durable: &mut Option<DurableCatalog>,
    reopen_cfg: Option<&DurabilityConfig>,
    fs: &VirtualFs,
    exemptions: &ExemptionList,
    buffer_cap: usize,
    index: &mut CatalogIndex,
    buffer: &mut DeltaBuffer,
    payload: Option<&[Delta]>,
    day: i64,
    metrics: &EngineMetrics,
    tele: &Telemetry,
) {
    if durable.is_none() {
        return;
    }
    if matches!(payload, Some(batch) if batch.is_empty()) {
        return;
    }
    let attempt = |handle: &mut DurableCatalog| match payload {
        Some(batch) => handle.log_batch(batch),
        None => handle.log_flush_mark(),
    };
    let Some(handle) = durable.as_mut() else {
        return;
    };
    match attempt(handle) {
        Ok(bytes) => {
            metrics.wal_appends.inc();
            metrics.wal_bytes.add(bytes);
        }
        Err(e) => {
            if e.is_injected_crash() {
                metrics.wal_torn_writes.inc();
                tele.flight(day, "wal-torn", || format!("injected torn write: {e}"));
            } else {
                tele.flight(day, "wal-error", || format!("append failed: {e}"));
            }
            *durable = None; // the "crash": this handle's tail may be torn
            let Some(cfg) = reopen_cfg else { return };
            *durable = durable_reopen(
                cfg, fs, exemptions, buffer_cap, index, buffer, day, metrics, tele,
            );
            if let Some(handle) = durable.as_mut() {
                match attempt(handle) {
                    Ok(bytes) => {
                        metrics.wal_appends.inc();
                        metrics.wal_bytes.add(bytes);
                    }
                    Err(e2) => {
                        tele.flight(day, "durable-degraded", || {
                            format!("re-append after recovery failed, continuing in-memory: {e2}")
                        });
                        *durable = None;
                    }
                }
            }
        }
    }
}

fn run_engine(
    traces: &TraceSet,
    fs: VirtualFs,
    config: &SimConfig,
    until_day: Option<i64>,
    probe: &mut dyn FnMut(TriggerProbe<'_>),
    tele: &Telemetry,
) -> (SimResult, VirtualFs) {
    let mut fs = fs;
    let metrics = EngineMetrics::new(tele);
    // Post-mortem context: if anything below panics, dump the flight
    // recorder before unwinding out of the engine.
    let _unwind_dump = tele.unwind_dump();
    let _run_span = tele.span("run");
    let evaluator = ActivenessEvaluator::new(config.registry.clone(), config.activeness);
    let users = traces.user_ids();

    let replay_start = i64::from(traces.replay_start_day);
    let horizon = until_day
        .map(|d| d.min(i64::from(traces.horizon_days)))
        .unwrap_or(i64::from(traces.horizon_days));

    let mut result = SimResult {
        policy: config.policy.name().to_string(),
        lifetime_days: config.lifetime_days,
        capacity: fs.capacity(),
        ..Default::default()
    };

    // Streaming mode: extract the event stream once, sorted by time, and
    // feed it to the incremental evaluator as the clock advances.
    let mut streaming = match config.eval_mode {
        EvalMode::Batch => None,
        EvalMode::Streaming => {
            let mut all_events =
                activity_events(traces, &config.registry, Timestamp::from_days(horizon));
            all_events.sort_by_key(|e| e.ts);
            let mut ev = activedr_core::streaming::StreamingEvaluator::new(
                config.registry.clone(),
                config.activeness,
            );
            for &u in &users {
                ev.register_user(u);
            }
            Some((ev, all_events, 0usize))
        }
    };

    // Initial activeness evaluation for miss attribution before the first
    // retention trigger.
    let mut quadrant_of: HashMap<UserId, Quadrant> = HashMap::new();
    let mut evaluate = |tc: Timestamp,
                        quadrant_of: &mut HashMap<UserId, Quadrant>|
     -> (ActivenessTable, u64) {
        // xtask-allow: determinism -- wall-clock runtime reported alongside results
        let start = Instant::now();
        let table = match &mut streaming {
            None => {
                let events = activity_events(traces, &config.registry, tc);
                match config.eval_shards {
                    None => evaluator.evaluate(tc, &users, &events),
                    Some(shards) => {
                        crate::parallel::parallel_evaluate(&evaluator, tc, &users, &events, shards)
                            .table
                    }
                }
            }
            Some((ev, all_events, cursor)) => {
                while *cursor < all_events.len() && all_events[*cursor].ts <= tc {
                    ev.observe(all_events[*cursor]);
                    *cursor += 1;
                }
                ev.evaluate(tc)
            }
        };
        for (u, a) in table.iter() {
            quadrant_of.insert(u, Quadrant::of(a));
        }
        (table, convert::u64_from_micros(start.elapsed().as_micros()))
    };
    {
        let _eval_span = tele.span("evaluate");
        let (_, _) = evaluate(Timestamp::from_days(replay_start), &mut quadrant_of);
    }

    // Incremental catalog mode: record a changelog and seed the index
    // with the one unavoidable initial walk; every trigger after that is
    // fed deltas only, staged through a bounded coalescing buffer that
    // collapses each day's churn to per-node net effects.
    // Durability state: the WAL + checkpoint handle, the crash injection
    // (consumed once), and the reopen config (injection stripped so a
    // recovery never re-arms the fault that caused it). `durable` is
    // `None` when durability is off, in FullScan mode, or after the
    // layer degraded on an unrecoverable storage error — the replay
    // itself never stops for durability trouble.
    let mut durable: Option<DurableCatalog> = None;
    let mut injected_crash = config.durability.as_ref().and_then(|d| d.injected_crash);
    let durable_reopen_cfg = config.durability.as_ref().map(|d| DurabilityConfig {
        injected_crash: None,
        ..d.clone()
    });
    let mut trigger_count: u32 = 0;
    let mut incremental = match config.catalog_mode {
        CatalogMode::FullScan => None,
        CatalogMode::Incremental => {
            fs.enable_changelog();
            match config.durability.as_ref() {
                None => Some((
                    CatalogIndex::from_fs(&fs, &config.exemptions),
                    DeltaBuffer::with_capacity(config.delta_buffer_cap),
                )),
                Some(dcfg) => {
                    match DurableCatalog::open(
                        dcfg,
                        &fs,
                        &config.exemptions,
                        config.delta_buffer_cap,
                    ) {
                        Ok(opened) => {
                            metrics
                                .checkpoint_writes
                                .add(opened.durable.checkpoints_written());
                            if let Some(stats) = opened.recovered {
                                metrics.recoveries.inc();
                                metrics.replayed_records.add(stats.replayed_records);
                                tele.flight(replay_start, "durable-recover", || {
                                    format!(
                                        "checkpoint seq {} + {} WAL record(s) replayed \
                                         ({} truncated byte(s), {} fallback(s))",
                                        stats.checkpoint_seq,
                                        stats.replayed_records,
                                        stats.truncated_bytes,
                                        stats.fallback_checkpoints
                                    )
                                });
                            }
                            durable = Some(opened.durable);
                            Some((opened.index, opened.buffer))
                        }
                        Err(e) => {
                            tele.flight(replay_start, "durable-degraded", || {
                                format!("open failed, continuing in-memory: {e}")
                            });
                            Some((
                                CatalogIndex::from_fs(&fs, &config.exemptions),
                                DeltaBuffer::with_capacity(config.delta_buffer_cap),
                            ))
                        }
                    }
                }
            }
        }
    };

    // Access stream cursor.
    let mut access_idx = 0usize;

    // Re-staging state: metadata of purged files so a miss can recover
    // them, the queue of pending recoveries, and the in-flight path set
    // mirroring the queue (O(1) duplicate checks in the replay hot loop).
    let mut purged_meta: HashMap<String, (UserId, u64)> = HashMap::new();
    let mut restage_queue: Vec<(Timestamp, String)> = Vec::new();
    let mut restage_inflight: HashSet<String> = HashSet::new();
    let mut archive_tier = match config.recovery {
        RecoveryModel::Archive(cfg) => Some(ArchiveTier::new(cfg)),
        _ => None,
    };

    // Debug-mode catalog guard state: day of the last incremental-vs-full
    // consistency check.
    let mut last_guard_day = replay_start;

    for day in replay_start..horizon {
        let _day_span = tele.span("day");
        // Complete any recoveries that are due, accounting the
        // re-transmission traffic.
        let mut restages_today = 0u64;
        let mut restage_bytes_today = 0u64;
        if config.recovery.enabled() {
            let _restage_span = tele.span("restage_drain");
            let now = Timestamp::from_days(day);
            let mut i = 0;
            while i < restage_queue.len() {
                if restage_queue[i].0 <= now {
                    let (ts, path) = restage_queue.swap_remove(i);
                    restage_inflight.remove(&path);
                    if fs.exists(&path) {
                        // The user re-wrote the file while the restage was
                        // in flight; landing it anyway would clobber the
                        // fresh file with stale owner/size and a backdated
                        // atime. Drop the restage and its stale metadata.
                        purged_meta.remove(&path);
                    } else if let Some((owner, size)) = purged_meta.remove(&path) {
                        if fs.create(&path, owner, size, ts).is_ok() {
                            restages_today += 1;
                            restage_bytes_today += size;
                            metrics.restages_completed.inc();
                            metrics.restage_bytes.add(size);
                            tele.flight(day, "restage-complete", || format!("{path} ({size} B)"));
                        }
                    }
                } else {
                    i += 1;
                }
            }
        }
        // Retention triggers at the start of the day, every interval,
        // beginning one interval into the replay.
        let days_in = day - replay_start;
        let is_trigger = days_in > 0 && days_in % i64::from(config.purge_interval_days) == 0;
        if is_trigger {
            let _trigger_span = tele.span("trigger");
            trigger_count += 1;
            // Crash-point injection: simulate the service dying at this
            // trigger boundary by dropping the live durable state and
            // recovering everything from disk. The replay then continues
            // on the recovered pair — the crash-point sweep test asserts
            // the final SimResult is bitwise-identical either way.
            if matches!(injected_crash, Some(InjectedCrash::AtTrigger(n)) if n == trigger_count) {
                injected_crash = None;
                if durable.is_some() {
                    durable = None; // the "crash": live WAL handle gone
                    if let (Some(cfg), Some((index, buffer))) =
                        (durable_reopen_cfg.as_ref(), incremental.as_mut())
                    {
                        tele.flight(day, "durable-crash", || {
                            format!("injected crash at trigger boundary {trigger_count}")
                        });
                        durable = durable_reopen(
                            cfg,
                            &fs,
                            &config.exemptions,
                            config.delta_buffer_cap,
                            index,
                            buffer,
                            day,
                            &metrics,
                            tele,
                        );
                    }
                }
            }
            let tc = Timestamp::from_days(day);
            let (table, eval_micros) = {
                let _eval_span = tele.span("evaluate");
                evaluate(tc, &mut quadrant_of)
            };

            // xtask-allow: determinism -- phase timing for the performance report
            let scan_start = Instant::now();
            let catalog_span = tele.span("catalog");
            let full_catalog;
            let catalog: &Catalog = match incremental.as_mut() {
                None => {
                    full_catalog = fs.catalog(&config.exemptions);
                    &full_catalog
                }
                Some((index, buffer)) => {
                    tele.gauge("catalog.changelog_depth")
                        .set_u64(convert::u64_from_usize(fs.changelog_depth()));
                    let deltas = fs.drain_changelog();
                    metrics
                        .changelog_deltas
                        .add(convert::u64_from_usize(deltas.len()));
                    // Write-ahead: the batch must be on disk before it
                    // can touch the in-memory pair, so a crash between
                    // here and the absorb recovers to a state that
                    // either has the whole batch or none of it.
                    durable_append(
                        &mut durable,
                        durable_reopen_cfg.as_ref(),
                        &fs,
                        &config.exemptions,
                        config.delta_buffer_cap,
                        index,
                        buffer,
                        Some(&deltas),
                        day,
                        &metrics,
                        tele,
                    );
                    buffer.absorb(deltas);
                    let raw = buffer.raw_pending();
                    let net = buffer.len();
                    tele.gauge("catalog.buffer_depth")
                        .set_u64(convert::u64_from_usize(net));
                    let indexed = index.file_count();
                    let flush = flush_beats_scan(net, indexed);
                    // Net-pending/indexed crossover ratio in basis points
                    // (10 000 bp = backlog as large as the index), so the
                    // series can chart how close each trigger sat to the
                    // flush/scan decision boundary.
                    let ratio_bp = convert::u64_from_usize(net).saturating_mul(10_000)
                        / convert::u64_from_usize(indexed).max(1);
                    tele.gauge("catalog.net_pending_ratio_bp").set_u64(ratio_bp);
                    tele.flight(day, "trigger-decision", || {
                        format!(
                            "net={net} indexed={indexed} ratio_bp={ratio_bp} raw={raw} \
                             decision={}",
                            if flush { "flush" } else { "scan" }
                        )
                    });
                    if flush {
                        tele.flight(day, "changelog-flush", || {
                            format!(
                                "{raw} raw delta(s) coalesced to {net} net, folded into the catalog index"
                            )
                        });
                        durable_append(
                            &mut durable,
                            durable_reopen_cfg.as_ref(),
                            &fs,
                            &config.exemptions,
                            config.delta_buffer_cap,
                            index,
                            buffer,
                            None,
                            day,
                            &metrics,
                            tele,
                        );
                        index.flush(buffer, &config.exemptions);
                        tele.gauge("catalog.dirty_users")
                            .set_u64(convert::u64_from_usize(index.dirty_user_count()));
                        tele.gauge("catalog.index_files")
                            .set_u64(convert::u64_from_usize(index.file_count()));
                        index.snapshot()
                    } else {
                        // Past the flush/scan crossover a namespace walk
                        // is cheaper than folding the backlog. The index
                        // and buffer stay intact — pending deltas keep
                        // coalescing, so `index ⊕ buffer` still equals
                        // the truth and a quieter trigger (or the forced
                        // end-of-day flush) drains the backlog later.
                        metrics.scan_fallbacks.inc();
                        tele.flight(day, "changelog-scan", || {
                            format!(
                                "{net} net pending delta(s) vs {} indexed file(s): past the \
                                 flush/scan crossover, serving this trigger from a full walk",
                                index.file_count()
                            )
                        });
                        full_catalog = fs.catalog(&config.exemptions);
                        &full_catalog
                    }
                }
            };
            drop(catalog_span);
            let scan_micros = convert::u64_from_micros(scan_start.elapsed().as_micros());

            // Debug-mode consistency guard (KNOWN_FAILURES changelog-drift
            // watch item): periodically re-walk the namespace and diff it
            // against the incremental snapshot. Read-only — it can report
            // drift but never alters the replay.
            if matches!(config.catalog_mode, CatalogMode::Incremental) {
                if let Some(interval) = config.catalog_guard_interval_days {
                    if day - last_guard_day >= i64::from(interval) {
                        last_guard_day = day;
                        let _guard_span = tele.span("guard");
                        let full = fs.catalog(&config.exemptions);
                        let diffs = diff_catalogs(catalog, &full);
                        metrics.guard_checks.inc();
                        if diffs.is_empty() {
                            tele.flight(day, "catalog-guard", || {
                                format!(
                                    "ok: index matches full scan ({} files)",
                                    full.total_files()
                                )
                            });
                        } else {
                            metrics
                                .guard_divergences
                                .add(convert::u64_from_usize(diffs.len()));
                            tele.flight(day, "catalog-guard", || {
                                let head: Vec<String> = diffs.iter().take(5).cloned().collect();
                                format!(
                                    "DIVERGENCE: {} difference(s): {}",
                                    diffs.len(),
                                    head.join("; ")
                                )
                            });
                        }
                    }
                }
            }

            let utilization_target = || {
                config.purge_target_utilization.map(|u| {
                    let allowed = convert::trunc_to_u64(convert::approx_f64(fs.capacity()) * u);
                    fs.used_bytes().saturating_sub(allowed)
                })
            };
            let target_bytes = match config.policy {
                // FLT and scratch-as-a-cache purge by their rule alone.
                PolicyKind::Flt | PolicyKind::ScratchCache => None,
                // The targeted policies purge down to the utilization goal.
                PolicyKind::ActiveDr | PolicyKind::ValueBased => utilization_target(),
            };

            // Targeted policies skip the scan entirely when utilization is
            // already at or below the goal.
            let skip = matches!(config.policy, PolicyKind::ActiveDr | PolicyKind::ValueBased)
                && target_bytes == Some(0);
            if !skip {
                let used_before = fs.used_bytes();
                // xtask-allow: determinism -- phase timing for the performance report
                let decision_start = Instant::now();
                let decide_span = tele.span("decide");
                let request = PurgeRequest {
                    tc,
                    catalog,
                    activeness: &table,
                    target_bytes,
                };
                let outcome = match config.policy {
                    PolicyKind::Flt => FltPolicy::days(config.lifetime_days).run(request),
                    PolicyKind::ActiveDr => ActiveDrPolicy::new(RetentionConfig {
                        initial_lifetime: TimeDelta::from_days(i64::from(config.lifetime_days)),
                        ..config.retention
                    })
                    .run(request),
                    PolicyKind::ScratchCache => ScratchCachePolicy::new(TimeDelta::from_days(
                        i64::from(config.purge_interval_days),
                    ))
                    .run(request),
                    PolicyKind::ValueBased => ValueBasedPolicy::default().run(request),
                };
                drop(decide_span);
                let decision_micros =
                    convert::u64_from_micros(decision_start.elapsed().as_micros());

                // xtask-allow: determinism -- phase timing for the performance report
                let apply_start = Instant::now();
                let apply_span = tele.span("apply");
                if config.recovery.enabled() {
                    for p in &outcome.purged {
                        let path = fs.path_of(activedr_fs::NodeId(convert::u32_from_u64(p.id.0)));
                        if !path.is_empty() {
                            purged_meta.insert(path, (p.user, p.size));
                        }
                    }
                }
                fs.apply(&outcome);
                drop(apply_span);
                let apply_micros = convert::u64_from_micros(apply_start.elapsed().as_micros());

                metrics.triggers_fired.inc();
                metrics.eval_micros.record(eval_micros);
                metrics.decision_micros.record(decision_micros);
                metrics.purged_files.add(outcome.purged_files());
                metrics.purged_bytes.add(outcome.purged_bytes);
                metrics
                    .purged_bytes_per_trigger
                    .record(outcome.purged_bytes);
                metrics
                    .trigger_micros
                    .record(eval_micros + scan_micros + decision_micros + apply_micros);
                tele.flight(day, "trigger", || {
                    format!(
                        "{}: purged {} file(s) / {} B, target_met={}",
                        config.policy.name(),
                        outcome.purged_files(),
                        outcome.purged_bytes,
                        outcome.target_met
                    )
                });

                let breakdown = RetentionBreakdown::compute(catalog, &table, &outcome);
                let mut top_losers: Vec<(UserId, u64)> =
                    outcome.purged_bytes_by_user().into_iter().collect();
                top_losers.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                top_losers.truncate(5);
                result.retentions.push(RetentionEvent {
                    day,
                    used_before,
                    used_after: fs.used_bytes(),
                    target_bytes,
                    target_met: outcome.target_met,
                    purged_files: outcome.purged_files(),
                    purged_bytes: outcome.purged_bytes,
                    users_affected: outcome.users_affected(),
                    top_losers,
                    breakdown,
                    group_scans: outcome.group_scans.clone(),
                    eval_micros,
                    scan_micros,
                    decision_micros,
                    apply_micros,
                });
                probe(TriggerProbe {
                    day,
                    catalog,
                    event: Some(result.retentions.last().expect("event just pushed")),
                    fs: &fs,
                });
            } else {
                metrics.triggers_skipped.inc();
                tele.flight(day, "trigger-skip", || {
                    "utilization already at or below target".to_string()
                });
                probe(TriggerProbe {
                    day,
                    catalog,
                    event: None,
                    fs: &fs,
                });
            }
        }
        if is_trigger {
            // Checkpoint cadence: every N-th trigger cuts a compact cut
            // of the live pair, bounding the WAL tail recovery would
            // have to replay. Sits outside the trigger block so the
            // catalog borrow taken for the purge scan has ended.
            let mut degrade = false;
            if let (Some(handle), Some((index, buffer))) = (durable.as_mut(), incremental.as_ref())
            {
                // xtask-allow: determinism -- checkpoint timing for the durability report
                let ckpt_start = Instant::now();
                match handle.note_trigger(index, buffer) {
                    Ok(Some(bytes)) => {
                        metrics.checkpoint_writes.inc();
                        metrics.checkpoint_bytes.add(bytes);
                        metrics
                            .checkpoint_micros
                            .record(convert::u64_from_micros(ckpt_start.elapsed().as_micros()));
                        tele.flight(day, "checkpoint", || {
                            format!("{bytes} byte(s), WAL tail reset")
                        });
                    }
                    Ok(None) => {}
                    Err(e) => {
                        tele.flight(day, "durable-degraded", || {
                            format!("checkpoint failed, continuing in-memory: {e}")
                        });
                        degrade = true;
                    }
                }
            }
            if degrade {
                durable = None;
            }
            // Close a trigger-granularity telemetry window (fired or
            // skipped), capturing the adaptive-trigger gauges set above.
            tele.sample_trigger(day);
        }

        // Replay the day's accesses.
        let mut daily = DailyMetrics::new(day);
        daily.restages = restages_today;
        daily.restage_bytes = restage_bytes_today;
        let day_end = Timestamp::from_days(day + 1);
        let _replay_span = tele.span("replay_accesses");
        while access_idx < traces.accesses.len() && traces.accesses[access_idx].ts < day_end {
            let a = &traces.accesses[access_idx];
            access_idx += 1;
            if a.ts < Timestamp::from_days(day) {
                continue; // before replay window start (defensive)
            }
            match a.kind {
                AccessKind::Read => {
                    daily.reads += 1;
                    metrics.reads.inc();
                    if fs.access(&a.path, a.ts).is_miss() {
                        daily.misses += 1;
                        metrics.misses.inc();
                        let q = quadrant_of
                            .get(&a.user)
                            .copied()
                            .unwrap_or(Quadrant::BothActive); // new users are neutral
                        daily.misses_by_quadrant[q.index()] += 1;
                        // The user notices the loss and re-stages the file
                        // from archive/regeneration.
                        if config.recovery.enabled()
                            && purged_meta.contains_key(&a.path)
                            && !restage_inflight.contains(&a.path)
                        {
                            let ready = match (&config.recovery, &mut archive_tier) {
                                (RecoveryModel::FixedDelay(delay), _) => a.ts + *delay,
                                (RecoveryModel::Archive(_), Some(tier)) => {
                                    let size = purged_meta[&a.path].1;
                                    tier.request(a.ts, size)
                                }
                                _ => unreachable!("enabled() checked"),
                            };
                            restage_inflight.insert(a.path.clone());
                            restage_queue.push((ready, a.path.clone()));
                            metrics.restages_enqueued.inc();
                            tele.flight(day, "restage-enqueue", || a.path.clone());
                        }
                    }
                }
                AccessKind::Write { size } => {
                    daily.writes += 1;
                    metrics.writes.inc();
                    // Overwrites and fresh creates both succeed; conflicts
                    // (a path shadowing a directory) are ignored like any
                    // failed write in the paper's emulator.
                    if fs.create(&a.path, a.user, size, a.ts).is_ok() && config.recovery.enabled() {
                        // The write supersedes any purged version of this
                        // path: a later miss must not restage the obsolete
                        // metadata over the fresh file.
                        purged_meta.remove(&a.path);
                    }
                }
            }
        }

        // Stage the day's mutations into the coalescing buffer, so the
        // pending set sits at net-effect size between triggers. A bursty
        // day that overruns the bound forces an early fold into the index
        // (identical end state — the buffer's flush boundary placement is
        // semantically free).
        if let Some((index, buffer)) = incremental.as_mut() {
            let deltas = fs.drain_changelog();
            metrics
                .changelog_deltas
                .add(convert::u64_from_usize(deltas.len()));
            durable_append(
                &mut durable,
                durable_reopen_cfg.as_ref(),
                &fs,
                &config.exemptions,
                config.delta_buffer_cap,
                index,
                buffer,
                Some(&deltas),
                day,
                &metrics,
                tele,
            );
            buffer.absorb(deltas);
            if buffer.over_capacity() {
                metrics.forced_flushes.inc();
                let net = buffer.len();
                let cap = buffer.capacity();
                tele.flight(day, "changelog-flush", || {
                    format!("forced: {net} net delta(s) exceeded buffer capacity {cap}")
                });
                durable_append(
                    &mut durable,
                    durable_reopen_cfg.as_ref(),
                    &fs,
                    &config.exemptions,
                    config.delta_buffer_cap,
                    index,
                    buffer,
                    None,
                    day,
                    &metrics,
                    tele,
                );
                index.flush(buffer, &config.exemptions);
            }
        }
        result.daily.push(daily);
        // Close a day-granularity telemetry window.
        tele.sample_day(day);
    }

    if incremental.is_some() {
        fs.disable_changelog();
    }
    result.final_used = fs.used_bytes();
    result.final_files = convert::u64_from_usize(fs.file_count());
    result.final_quadrants = quadrant_of;
    result.archive = archive_tier.map(|t| t.stats());

    // End-of-run state gauges, sampled from deterministic replay facts.
    let ops = fs.op_counts();
    tele.gauge("fs.ops_creates").set_u64(ops.creates);
    tele.gauge("fs.ops_removes").set_u64(ops.removes);
    tele.gauge("fs.ops_accesses").set_u64(ops.accesses);
    tele.gauge("fs.ops_hits").set_u64(ops.hits);
    tele.gauge("fs.ops_misses").set_u64(ops.misses);
    tele.gauge("fs.ops_renames").set_u64(ops.renames);
    tele.gauge("fs.final_files").set_u64(result.final_files);
    tele.gauge("fs.final_used_bytes").set_u64(result.final_used);
    // Final sample: closes both series delta chains and the stream, so
    // per-window sums reconcile exactly with the cumulative counters.
    tele.sample_final(horizon);

    (result, fs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use activedr_trace::{generate, SynthConfig};

    fn scenario() -> (TraceSet, VirtualFs) {
        let traces = generate(&SynthConfig::tiny(21));
        let mut fs = build_initial_fs(&traces);
        pre_purge_flt(&mut fs, traces.replay_start(), 90);
        (traces, fs)
    }

    #[test]
    fn build_initial_fs_matches_seeds() {
        let traces = generate(&SynthConfig::tiny(21));
        let fs = build_initial_fs(&traces);
        assert_eq!(fs.file_count(), traces.initial_files.len());
        assert_eq!(
            fs.used_bytes(),
            traces.initial_files.iter().map(|f| f.size).sum::<u64>()
        );
        assert_eq!(fs.capacity(), fs.used_bytes());
    }

    #[test]
    fn pre_purge_removes_only_stale_files() {
        let traces = generate(&SynthConfig::tiny(21));
        let mut fs = build_initial_fs(&traces);
        let at = traces.replay_start();
        let before = fs.file_count();
        pre_purge_flt(&mut fs, at, 90);
        assert!(fs.file_count() < before, "expected some stale files purged");
        // Every survivor was accessed within 90 days of replay start.
        for (_, _, meta) in fs.iter() {
            assert!(at.age_since(meta.atime) <= TimeDelta::from_days(90));
        }
    }

    #[test]
    fn flt_run_produces_daily_series_and_retentions() {
        let (traces, fs) = scenario();
        let result = run(&traces, fs, &SimConfig::flt(90));
        let replay_days = convert::usize_from_u32(traces.horizon_days - traces.replay_start_day);
        assert_eq!(result.daily.len(), replay_days);
        // Weekly trigger -> one event per full week of replay.
        let expected_retentions = (replay_days - 1) / 7;
        assert_eq!(result.retentions.len(), expected_retentions);
        assert_eq!(result.policy, "FLT");
        assert!(result.total_reads() > 0);
    }

    #[test]
    fn activedr_run_skips_retention_below_target() {
        let (traces, fs) = scenario();
        let result = run(&traces, fs, &SimConfig::activedr(90));
        // ActiveDR only fires when utilization exceeds the 50 % target, so
        // it must not fire more often than FLT.
        let (traces2, fs2) = scenario();
        let flt = run(&traces2, fs2, &SimConfig::flt(90));
        assert!(result.retentions.len() <= flt.retentions.len());
        for r in &result.retentions {
            assert!(r.target_bytes.unwrap() > 0);
        }
    }

    #[test]
    fn misses_attributed_to_quadrants_sum_up() {
        let (traces, fs) = scenario();
        let result = run(&traces, fs, &SimConfig::flt(90));
        for d in &result.daily {
            assert_eq!(d.misses_by_quadrant.iter().sum::<u64>(), d.misses);
            assert!(d.misses <= d.reads);
        }
        assert_eq!(
            result.misses_by_quadrant().iter().sum::<u64>(),
            result.total_misses()
        );
    }

    #[test]
    fn byte_conservation_per_retention() {
        let (traces, fs) = scenario();
        let result = run(&traces, fs, &SimConfig::activedr(30));
        for r in &result.retentions {
            assert_eq!(r.used_before - r.purged_bytes, r.used_after);
            assert_eq!(r.breakdown.total_purged_bytes(), r.purged_bytes);
        }
    }

    #[test]
    fn deterministic_runs() {
        let (traces, fs) = scenario();
        let a = run(&traces, fs.clone(), &SimConfig::activedr(60));
        let b = run(&traces, fs, &SimConfig::activedr(60));
        assert_eq!(a.daily, b.daily);
        assert_eq!(a.total_purged_bytes(), b.total_purged_bytes());
    }
}

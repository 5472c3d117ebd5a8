//! Smoke benchmark: full-scan vs incremental catalog triggers.
//!
//! ```text
//! cargo run --release --example bench_catalog
//! ```
//!
//! Replays a `Small`-scale scenario two months in, then times the two ways
//! of producing the trigger-time catalog on the resulting state:
//!
//! * **full scan** — `VirtualFs::catalog`, the paper-prototype O(files)
//!   walk the engine performs at every trigger in `CatalogMode::FullScan`;
//! * **incremental, no change** — an empty-buffer `CatalogIndex::flush` +
//!   `snapshot`, the steady-state trigger cost in
//!   `CatalogMode::Incremental`;
//! * **incremental churn sweep** — the trigger at churn rates from 0 %
//!   to 100 % of the population, against a full scan of the same
//!   churned state. Six days of each week's deltas are pre-staged in the
//!   coalescing `DeltaBuffer` (the engine's end-of-day drains); the
//!   timed region absorbs the last day's tranche, flushes and snapshots,
//!   exactly as every engine trigger does. The 65 % and 100 % points
//!   chart what a flush costs under heavy turnover.
//!
//! Writes `docs/results/BENCH_catalog.json` (BENCH schema v2, consumed
//! by `cargo xtask perf`) and exits nonzero unless the no-change trigger
//! is at least 5× faster than the full scan, the week-churn (15 %) point
//! beats the full scan (the regression this benchmark exists to pin:
//! one-at-a-time application was 0.71× there), AND every point up to
//! and including 35 % churn beats the full scan.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "bench harness code may panic on a broken fixture"
)]
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_precision_loss,
    reason = "benchmark durations and fixture indices fit comfortably in the narrower types"
)]

use activedr_core::time::Timestamp;
use activedr_core::user::UserId;
use activedr_fs::{diff_catalogs, CatalogIndex, DeltaBuffer, ExemptionList, VirtualFs};
use activedr_obs::{BenchEmitter, Direction, MetricKind};
use activedr_sim::{run_until, Scale, Scenario, SimConfig};
use std::hint::black_box;
use std::time::Duration;

/// One point of the churn sweep: a week in which `churn_pct` % of the
/// population was touched/overwritten/removed (plus fresh arrivals).
struct SweepPoint {
    churn_pct: u64,
    /// Raw deltas the week recorded.
    raw_deltas: u64,
    /// Net deltas after coalescing — what the flush actually applies.
    net_deltas: usize,
    files_after: usize,
    full_scan_micros: u64,
    incremental_micros: u64,
    speedup: f64,
}

struct BenchReport {
    files: usize,
    users: usize,
    full_scan_micros: u64,
    incremental_nochange_micros: u64,
    incremental_week_churn_micros: u64,
    churn_deltas: u64,
    speedup_nochange: f64,
    speedup_week_churn: f64,
    churn_sweep: Vec<SweepPoint>,
}

/// Minimum wall time of `iters` runs of `f` (minimum, not mean: the
/// cleanest sample of a deterministic computation).
fn min_time<T>(iters: u32, mut f: impl FnMut() -> T) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..iters {
        // xtask-allow: determinism -- wall-clock benchmark probe
        let start = std::time::Instant::now();
        black_box(f());
        best = best.min(start.elapsed());
    }
    best
}

/// [`min_time`] with per-iteration state built *outside* the timed
/// region (the incremental trigger consumes its input, so each sample
/// needs a fresh index + delta batch that must not be billed to it).
fn min_time_with_setup<S, T>(
    iters: u32,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S) -> T,
) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..iters {
        let state = setup();
        // xtask-allow: determinism -- wall-clock benchmark probe
        let start = std::time::Instant::now();
        black_box(run(state));
        best = best.min(start.elapsed());
    }
    best
}

/// Replay one synthetic week of mutations in which `pct` % of the files
/// are churned — evenly split between atime renewals, in-place
/// overwrites, and removals — and one fresh file arrives per eight
/// churned ones.
fn churn_one_week(fs: &mut VirtualFs, day: i64, pct: u64) {
    let population: Vec<(String, UserId)> = fs.iter().map(|(p, _, m)| (p, m.owner)).collect();
    for (i, (path, _)) in population.iter().enumerate() {
        if (i as u64) % 100 >= pct {
            continue;
        }
        match i % 3 {
            0 => {
                fs.access(path, Timestamp::from_days(day + (i as i64 % 7)));
            }
            1 => {
                let meta = *fs.meta(path).unwrap();
                fs.create(
                    path,
                    meta.owner,
                    meta.size / 2 + 1,
                    Timestamp::from_days(day),
                )
                .unwrap();
            }
            _ => {
                fs.remove(path).unwrap();
            }
        }
    }
    for (i, (path, owner)) in population.iter().enumerate() {
        if (i as u64) % 100 >= pct || i % 8 != 1 {
            continue;
        }
        fs.create(
            &format!("{path}.wk{}", i % 7),
            *owner,
            4096,
            Timestamp::from_days(day + 1),
        )
        .unwrap();
    }
}

/// Time one sweep point: full scan of the churned state vs the buffered
/// incremental trigger folding the week's deltas into a pre-churn index.
fn run_sweep_point(
    pct: u64,
    base_fs: &VirtualFs,
    seed_index: &CatalogIndex,
    exemptions: &ExemptionList,
    day: i64,
    iters: u32,
) -> SweepPoint {
    let mut fs = base_fs.clone();
    fs.enable_changelog();
    let before = fs.changelog_recorded_total();
    churn_one_week(&mut fs, day, pct);
    let raw_deltas = fs.changelog_recorded_total() - before;
    let deltas = fs.drain_changelog();

    // Net size after coalescing (reported, not timed).
    let mut probe = DeltaBuffer::unbounded();
    probe.absorb(deltas.iter().cloned());
    let net_deltas = probe.len();

    // Correctness first: the buffered trigger must land exactly on the
    // full scan of the churned state.
    let mut check = seed_index.clone();
    check.flush(&mut probe, exemptions);
    let scan = fs.catalog(exemptions);
    let drift = diff_catalogs(check.snapshot(), &scan);
    assert!(
        drift.is_empty(),
        "churn {pct}%: incremental catalog diverged: {drift:?}"
    );

    let full = min_time(iters, || fs.catalog(exemptions));
    // The flush the engine actually runs: six days of the week's deltas
    // were already absorbed by the daily end-of-day drains (streaming
    // work, not trigger-time work), so the trigger absorbs only the last
    // day's tranche, then flushes and snapshots.
    let last_day = deltas.len() - deltas.len() / 7;
    let mut staged = DeltaBuffer::unbounded();
    staged.absorb(deltas.iter().take(last_day).cloned());
    let incremental = min_time_with_setup(
        iters,
        || {
            (
                seed_index.clone(),
                staged.clone(),
                deltas.get(last_day..).unwrap_or(&[]).to_vec(),
            )
        },
        |(mut index, mut buffer, tail)| {
            buffer.absorb(tail);
            index.flush(&mut buffer, exemptions);
            index.snapshot().total_files()
        },
    );

    SweepPoint {
        churn_pct: pct,
        raw_deltas,
        net_deltas,
        files_after: fs.file_count(),
        full_scan_micros: full.as_micros() as u64,
        incremental_micros: incremental.as_micros() as u64,
        speedup: ratio(full, incremental),
    }
}

fn ratio(scan: Duration, inc: Duration) -> f64 {
    scan.as_nanos() as f64 / inc.as_nanos().max(1) as f64
}

fn main() {
    let iters = 7u32;
    let seed = 42u64;
    let scenario = Scenario::build(Scale::Small, seed);

    // Two months of ActiveDR replay gives a realistically churned state.
    let until = i64::from(scenario.traces.replay_start_day) + 56;
    let (_, mut fs) = run_until(
        &scenario.traces,
        scenario.initial_fs.clone(),
        &SimConfig::activedr(90),
        Some(until),
    );
    let exemptions = ExemptionList::new();
    let files = fs.file_count();

    // 1. The paper-prototype trigger: walk everything.
    let full_scan = min_time(iters, || fs.catalog(&exemptions));

    // 2. Incremental trigger with nothing changed since the last one.
    let mut index = CatalogIndex::from_fs(&fs, &exemptions);
    fs.enable_changelog();
    assert_eq!(
        index.snapshot(),
        &fs.catalog(&exemptions),
        "incremental catalog diverged from the full scan"
    );
    let mut idle_buffer = DeltaBuffer::unbounded();
    let nochange = min_time(iters, || {
        idle_buffer.absorb(fs.drain_changelog());
        index.flush(&mut idle_buffer, &exemptions);
        index.snapshot().total_files()
    });
    let users = index.snapshot().users.len();
    fs.disable_changelog();

    // 3. The churn sweep: 15 % is the profile the old per-delta path lost
    //    on (0.71× — the week-churn regression), 100 % is total turnover.
    let sweep: Vec<SweepPoint> = [0u64, 5, 15, 35, 65, 100]
        .iter()
        .map(|&pct| run_sweep_point(pct, &fs, &index, &exemptions, until, iters))
        .collect();
    let week = sweep
        .iter()
        .find(|p| p.churn_pct == 15)
        .expect("15% sweep point");

    let report = BenchReport {
        files,
        users,
        full_scan_micros: full_scan.as_micros() as u64,
        incremental_nochange_micros: nochange.as_micros() as u64,
        incremental_week_churn_micros: week.incremental_micros,
        churn_deltas: week.raw_deltas,
        speedup_nochange: ratio(full_scan, nochange),
        speedup_week_churn: week.speedup,
        churn_sweep: sweep,
    };

    // BENCH schema v2: ratio metrics gate on every machine, time metrics
    // only against a matching env fingerprint, info metrics never.
    let mut emitter = BenchEmitter::new("catalog", u64::from(iters));
    // Info, not Ratio: the no-change denominator is ~0.1 µs, so this
    // ratio jitters by integer factors run to run. The hard assert
    // below still enforces its 5x floor; the watchdog gates the
    // stable-denominator ratios instead.
    emitter.metric(
        "speedup_nochange",
        MetricKind::Info,
        Direction::Neutral,
        report.speedup_nochange,
        "x",
    );
    emitter.metric(
        "speedup_week_churn",
        MetricKind::Ratio,
        Direction::HigherBetter,
        report.speedup_week_churn,
        "x",
    );
    emitter.metric(
        "full_scan_micros",
        MetricKind::Time,
        Direction::LowerBetter,
        report.full_scan_micros as f64,
        "us",
    );
    emitter.metric(
        "incremental_nochange_micros",
        MetricKind::Time,
        Direction::LowerBetter,
        report.incremental_nochange_micros as f64,
        "us",
    );
    emitter.metric(
        "incremental_week_churn_micros",
        MetricKind::Time,
        Direction::LowerBetter,
        report.incremental_week_churn_micros as f64,
        "us",
    );
    emitter.metric(
        "files",
        MetricKind::Info,
        Direction::Neutral,
        report.files as f64,
        "files",
    );
    emitter.metric(
        "users",
        MetricKind::Info,
        Direction::Neutral,
        report.users as f64,
        "users",
    );
    emitter.metric(
        "churn_deltas",
        MetricKind::Info,
        Direction::Neutral,
        report.churn_deltas as f64,
        "deltas",
    );
    let pcts: Vec<f64> = report
        .churn_sweep
        .iter()
        .map(|p| p.churn_pct as f64)
        .collect();
    emitter.series(
        "churn_sweep_speedup",
        "x",
        &pcts,
        &report
            .churn_sweep
            .iter()
            .map(|p| p.speedup)
            .collect::<Vec<f64>>(),
    );
    emitter.series(
        "churn_sweep_full_scan_micros",
        "us",
        &pcts,
        &report
            .churn_sweep
            .iter()
            .map(|p| p.full_scan_micros as f64)
            .collect::<Vec<f64>>(),
    );
    emitter.series(
        "churn_sweep_incremental_micros",
        "us",
        &pcts,
        &report
            .churn_sweep
            .iter()
            .map(|p| p.incremental_micros as f64)
            .collect::<Vec<f64>>(),
    );
    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/results/BENCH_catalog.json"
    );
    std::fs::write(out, emitter.to_json()).unwrap();

    println!("catalog trigger benchmark — Small scale, {files} files, {users} users");
    println!(
        "  full scan          : {:>10.1} µs",
        full_scan.as_nanos() as f64 / 1e3
    );
    println!(
        "  incremental (idle) : {:>10.1} µs  ({:.1}x)",
        nochange.as_nanos() as f64 / 1e3,
        report.speedup_nochange
    );
    println!("  churn sweep (full scan vs buffered incremental):");
    for p in &report.churn_sweep {
        println!(
            "    {:>3}% churn: scan {:>8.1} µs  inc {:>8.1} µs  ({:>5.1}x, {} raw -> {} net deltas over {} files)",
            p.churn_pct,
            p.full_scan_micros as f64,
            p.incremental_micros as f64,
            p.speedup,
            p.raw_deltas,
            p.net_deltas,
            p.files_after
        );
    }
    println!("  wrote {out}");

    assert!(
        report.speedup_nochange >= 5.0,
        "incremental no-change trigger must be >= 5x faster than a full scan \
         (got {:.1}x)",
        report.speedup_nochange
    );
    assert!(
        report.speedup_week_churn > 1.0,
        "incremental week-churn trigger must beat the full scan \
         (got {:.2}x — the churn regression is back)",
        report.speedup_week_churn
    );
    for p in report.churn_sweep.iter().filter(|p| p.churn_pct <= 35) {
        assert!(
            p.speedup > 1.0,
            "incremental trigger no faster than a full scan at {}% churn ({:.2}x)",
            p.churn_pct,
            p.speedup
        );
    }
}

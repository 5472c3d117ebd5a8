//! Smoke benchmark: instrumentation overhead, disabled vs enabled.
//!
//! ```text
//! cargo run --release -p activedr-obs --example bench_obs
//! ```
//!
//! Times the hot-path telemetry operations the replay engine leans on —
//! counter increment, span enter/exit, flight-recorder push, and the
//! per-day series sample — once against a **disabled** `Telemetry` (the
//! default every ordinary replay runs with) and once against an
//! **enabled** one. Writes `docs/results/BENCH_obs.json` (BENCH schema
//! v2, consumed by `cargo xtask perf`) and exits nonzero if any
//! disabled-path operation costs more than [`DISABLED_CEILING_NANOS`]
//! ns — the contract that telemetry-off replay is effectively
//! uninstrumented.

#![allow(
    clippy::unwrap_used,
    reason = "bench harness code may panic on a broken fixture"
)]
#![allow(
    clippy::cast_precision_loss,
    reason = "benchmark durations fit comfortably in f64"
)]

use activedr_obs::{BenchEmitter, Direction, MetricKind, Telemetry};
use std::hint::black_box;
use std::time::Instant;

/// A disabled-path op slower than this is a broken side-channel contract.
/// Generous on purpose: shared CI boxes jitter, and the real disabled cost
/// is a branch on an `Option` (single-digit ns at worst).
const DISABLED_CEILING_NANOS: f64 = 25.0;

/// Per-op nanoseconds for each of `reps` repetitions of `ops` iterations
/// of `f`. The watchdog's min-of-N discipline: the *minimum* is the
/// robust location estimate, but every sample is recorded so the
/// validator can recompute it.
fn per_op_samples(reps: u32, ops: u64, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            // xtask-allow: determinism -- wall-clock benchmark probe
            let start = Instant::now();
            for _ in 0..ops {
                f();
            }
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect()
}

fn min_of(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::MAX, f64::min)
}

struct Case {
    name: &'static str,
    disabled: Vec<f64>,
    enabled: Vec<f64>,
}

/// An enabled instance with an engine-like registry population, so the
/// series-sample cost is measured against a realistic column count.
fn populated_telemetry() -> Telemetry {
    let tele = Telemetry::on();
    for name in [
        "replay.reads",
        "replay.misses",
        "replay.writes",
        "recovery.restages_completed",
        "recovery.restage_bytes",
        "retention.triggers_fired",
        "retention.purged_files",
        "retention.purged_bytes",
        "catalog.changelog_deltas",
        "catalog.scan_fallbacks",
    ] {
        tele.counter(name).add(7);
    }
    for name in [
        "catalog.changelog_depth",
        "catalog.buffer_depth",
        "catalog.index_files",
        "fs.final_files",
    ] {
        tele.gauge(name).set(11);
    }
    tele.histogram("retention.trigger_micros", &[100, 1_000, 10_000])
        .record(250);
    tele.histogram("retention.purged_bytes_per_trigger", &[1 << 20, 1 << 30])
        .record(1 << 22);
    tele
}

fn main() {
    let reps = 5u32;
    let off = Telemetry::off();
    let on = Telemetry::on();

    let counter_off = off.counter("bench.counter");
    let counter_on = on.counter("bench.counter");
    let series_on = populated_telemetry();
    let mut series_day = 0i64;
    let cases = vec![
        Case {
            name: "counter_inc",
            disabled: per_op_samples(reps, 10_000_000, || {
                black_box(&counter_off).inc();
            }),
            enabled: per_op_samples(reps, 10_000_000, || {
                black_box(&counter_on).inc();
            }),
        },
        Case {
            name: "span_enter_exit",
            disabled: per_op_samples(reps, 1_000_000, || {
                black_box(off.span("bench.span"));
            }),
            enabled: per_op_samples(reps, 1_000_000, || {
                black_box(on.span("bench.span"));
            }),
        },
        Case {
            name: "flight_push",
            disabled: per_op_samples(reps, 1_000_000, || {
                off.flight(0, "bench", || String::from("event"));
            }),
            enabled: per_op_samples(reps, 1_000_000, || {
                on.flight(0, "bench", || String::from("event"));
            }),
        },
        Case {
            // The disabled path must stay a single Option branch even
            // though the enabled path snapshots the whole registry; the
            // enabled cost is amortised once per replay *day*, not per
            // access, so tens of microseconds would still be invisible.
            name: "series_sample",
            disabled: per_op_samples(reps, 10_000_000, || {
                off.sample_day(black_box(0));
            }),
            enabled: per_op_samples(reps, 10_000, || {
                series_on.sample_day(series_day);
                series_day += 1;
            }),
        },
    ];

    let mut emitter = BenchEmitter::new("obs", u64::from(reps));
    emitter.metric(
        "disabled_ceiling_nanos",
        MetricKind::Info,
        Direction::Neutral,
        DISABLED_CEILING_NANOS,
        "ns",
    );
    for case in &cases {
        let disabled_name = format!("{}_disabled_nanos", case.name);
        emitter.metric(
            &disabled_name,
            MetricKind::Time,
            Direction::LowerBetter,
            min_of(&case.disabled),
            "ns",
        );
        emitter.samples_for(&disabled_name, "ns", &case.disabled);
        let enabled_name = format!("{}_enabled_nanos", case.name);
        emitter.metric(
            &enabled_name,
            MetricKind::Time,
            Direction::LowerBetter,
            min_of(&case.enabled),
            "ns",
        );
        emitter.samples_for(&enabled_name, "ns", &case.enabled);
    }

    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/results/BENCH_obs.json"
    );
    std::fs::write(out, emitter.to_json()).unwrap();

    println!("telemetry overhead benchmark (best of {reps} reps)");
    for case in &cases {
        println!(
            "  {:<16} disabled {:>7.2} ns/op   enabled {:>8.2} ns/op",
            case.name,
            min_of(&case.disabled),
            min_of(&case.enabled)
        );
    }
    println!("  wrote {out}");

    for case in &cases {
        assert!(
            min_of(&case.disabled) <= DISABLED_CEILING_NANOS,
            "disabled {} costs {:.2} ns/op, over the {DISABLED_CEILING_NANOS} ns ceiling",
            case.name,
            min_of(&case.disabled)
        );
    }
}

//! Telemetry integration: the side-channel contract, counter/SimResult
//! reconciliation under all four policies, sink validity, and the
//! incremental-catalog consistency guard.

#![allow(
    clippy::expect_used,
    reason = "test helper plumbing panics on harness failures by design"
)]

use activedr_sim::{
    complete_lines, run, run_with_telemetry, CatalogMode, ObsConfig, Scale, Scenario, SimConfig,
    SimResult, StreamOptions, Telemetry,
};
use serde_json::Value;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// In-memory `Write` sink for exercising the streaming path without
/// touching the filesystem.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buf lock").extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().expect("buf lock").clone()).expect("stream is utf8")
    }
}

fn scenario() -> Scenario {
    Scenario::build(Scale::Tiny, 42)
}

fn all_policies() -> Vec<SimConfig> {
    vec![
        SimConfig::flt(90),
        SimConfig::activedr(90),
        SimConfig::scratch_cache(),
        SimConfig::value_based(90),
    ]
}

/// Serialize the deterministic payload of a [`SimResult`] to a stable
/// byte string. Two fields cannot be compared raw: the Fig. 12b
/// wall-clock probes (`*_micros`, timing differs run to run by
/// definition) and `final_quadrants` (HashMap serialization order is
/// seeded per instance). Everything else — every read, miss, purge,
/// restage, quadrant, and trigger decision — must match to the byte.
fn result_bytes(result: &SimResult) -> String {
    let mut r = result.clone();
    for ev in &mut r.retentions {
        ev.eval_micros = 0;
        ev.scan_micros = 0;
        ev.decision_micros = 0;
        ev.apply_micros = 0;
    }
    let mut quads: Vec<_> = std::mem::take(&mut r.final_quadrants).into_iter().collect();
    quads.sort();
    format!(
        "{}|{quads:?}",
        serde_json::to_string(&r).expect("SimResult serializes")
    )
}

#[test]
fn simresult_is_byte_identical_with_telemetry_on_or_off() {
    let sc = scenario();
    for config in all_policies() {
        let plain = run(&sc.traces, sc.initial_fs.clone(), &config);
        let tele = Telemetry::on();
        let (observed, _) = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &tele);
        assert_eq!(
            result_bytes(&plain),
            result_bytes(&observed),
            "{}: telemetry changed the replay outcome",
            config.policy.name()
        );
        assert!(tele.report().counter("replay.reads").unwrap_or(0) > 0);
        // A disabled handle through the same entry point is also identical.
        let off = Telemetry::off();
        let (dark, _) = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &off);
        assert_eq!(result_bytes(&plain), result_bytes(&dark));
        assert_eq!(off.report().counter("replay.reads"), None);
    }
    // And the incremental catalog path is covered by the same contract.
    let config = SimConfig::activedr(90).with_catalog_mode(CatalogMode::Incremental);
    let plain = run(&sc.traces, sc.initial_fs.clone(), &config);
    let tele = Telemetry::on();
    let (observed, _) = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &tele);
    assert_eq!(result_bytes(&plain), result_bytes(&observed));
}

#[test]
fn simresult_is_byte_identical_with_series_and_streaming_on_or_off() {
    let sc = scenario();
    for config in [
        SimConfig::activedr(90),
        SimConfig::activedr(90).with_catalog_mode(CatalogMode::Incremental),
    ] {
        let plain = run(&sc.traces, sc.initial_fs.clone(), &config);

        // Series recording at a tiny capacity (forcing rollups) plus an
        // attached JSONL stream: still byte-identical.
        let mut obs = ObsConfig::on();
        obs.series_capacity = 4;
        let tele = Telemetry::new(&obs);
        let buf = SharedBuf::default();
        tele.attach_stream(
            Box::new(buf.clone()),
            StreamOptions {
                prom_path: None,
                every_days: 1,
            },
        );
        let (streamed, _) = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &tele);
        assert_eq!(
            result_bytes(&plain),
            result_bytes(&streamed),
            "series/streaming changed the replay outcome"
        );
        let report = tele.report();
        assert!(report.stream_lines > 0, "stream never emitted");
        assert_eq!(report.stream_write_errors, 0);
        assert!(!buf.text().is_empty());

        // Series recording disabled on an otherwise-enabled instance:
        // also identical, and the report carries empty tracks.
        let mut obs_off = ObsConfig::on();
        obs_off.series_capacity = 0;
        let tele_off = Telemetry::new(&obs_off);
        let (dark, _) = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &tele_off);
        assert_eq!(result_bytes(&plain), result_bytes(&dark));
        assert_eq!(tele_off.report().day_series.raw_samples, 0);
    }
}

#[test]
fn series_sums_reconcile_exactly_with_final_counters() {
    let sc = scenario();
    for config in [
        SimConfig::activedr(90),
        SimConfig::activedr(90).with_catalog_mode(CatalogMode::Incremental),
        SimConfig::flt(90),
    ] {
        // A small capacity so the day track provably rolls up mid-run.
        let mut obs = ObsConfig::on();
        obs.series_capacity = 8;
        let tele = Telemetry::new(&obs);
        let _ = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &tele);
        let report = tele.report();
        assert!(report.day_series.raw_samples > 0);
        assert!(
            report.day_series.rollups > 0,
            "a Tiny replay should overflow a capacity-8 day ring"
        );
        for track in [&report.day_series, &report.trigger_series] {
            for counter in &report.counters {
                assert_eq!(
                    track.counter_sum(&counter.name),
                    Some(counter.value),
                    "{}: series sum diverged from cumulative counter",
                    counter.name
                );
            }
        }
        // The trigger track closes one window per trigger boundary plus
        // the final flush window.
        let triggers = report.counter("retention.triggers_fired").unwrap_or(0)
            + report.counter("retention.triggers_skipped").unwrap_or(0);
        assert_eq!(report.trigger_series.raw_samples, triggers + 1);
    }
}

#[test]
fn streamed_jsonl_parses_and_reconciles_after_truncation() {
    let sc = scenario();
    let config = SimConfig::activedr(90).with_catalog_mode(CatalogMode::Incremental);
    let tele = Telemetry::on();
    let buf = SharedBuf::default();
    tele.attach_stream(
        Box::new(buf.clone()),
        StreamOptions {
            prom_path: None,
            every_days: 1,
        },
    );
    let _ = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &tele);
    let report = tele.report();
    let text = buf.text();

    // Every line is complete JSON; the first is meta, the last is final.
    let lines = complete_lines(&text);
    assert_eq!(
        u64::try_from(lines.len()).expect("fits"),
        report.stream_lines
    );
    let first: Value = serde_json::from_str(lines.first().expect("meta line")).expect("parses");
    assert_eq!(first.get("type").and_then(Value::as_str), Some("meta"));
    let last: Value = serde_json::from_str(lines.last().expect("final line")).expect("parses");
    assert_eq!(last.get("type").and_then(Value::as_str), Some("final"));

    // Per-line deltas sum to the end-of-run cumulative counters.
    let sum_deltas = |payload: &str, name: &str| -> u64 {
        complete_lines(payload)
            .iter()
            .filter_map(|l| serde_json::from_str::<Value>(l).ok())
            .filter_map(|v| v.get("counters")?.get(name)?.as_u64())
            .sum()
    };
    for name in ["replay.reads", "retention.purged_files"] {
        assert_eq!(
            sum_deltas(&text, name),
            report.counter(name).unwrap_or(0),
            "{name}: stream deltas diverged"
        );
    }

    // Simulated crash: cut the payload mid-way through the last line.
    // The complete-lines reader recovers exactly the untruncated prefix.
    let cut = text.len() - 7;
    let truncated = text.get(..cut).expect("cut inside the final line");
    let recovered = complete_lines(truncated);
    assert_eq!(recovered.len(), lines.len() - 1);
    for line in &recovered {
        assert!(
            serde_json::from_str::<Value>(line).is_ok(),
            "bad line {line}"
        );
    }
}

#[test]
fn counters_reconcile_with_simresult_under_all_policies() {
    let sc = scenario();
    for config in all_policies() {
        let tele = Telemetry::on();
        let (result, _) = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &tele);
        let report = tele.report();
        let name = config.policy.name();
        let counter = |key: &str| report.counter(key).unwrap_or(0);

        assert_eq!(counter("replay.reads"), result.total_reads(), "{name}");
        assert_eq!(counter("replay.misses"), result.total_misses(), "{name}");
        assert_eq!(
            counter("replay.writes"),
            result.daily.iter().map(|d| d.writes).sum::<u64>(),
            "{name}"
        );
        assert_eq!(
            counter("recovery.restages_completed"),
            result.total_restages(),
            "{name}"
        );
        assert_eq!(
            counter("recovery.restage_bytes"),
            result.total_restage_bytes(),
            "{name}"
        );
        assert_eq!(
            counter("retention.purged_files"),
            result
                .retentions
                .iter()
                .map(|r| r.purged_files)
                .sum::<u64>(),
            "{name}"
        );
        assert_eq!(
            counter("retention.purged_bytes"),
            result.total_purged_bytes(),
            "{name}"
        );
        assert_eq!(
            counter("retention.triggers_fired"),
            u64::try_from(result.retentions.len()).expect("count fits"),
            "{name}"
        );
        // Gauges sampled from the deterministic fs counters agree with the
        // replay totals too.
        assert_eq!(
            report.gauge("fs.final_files").map(|v| v.unsigned_abs()),
            Some(result.final_files),
            "{name}"
        );
        assert_eq!(
            report
                .gauge("fs.final_used_bytes")
                .map(|v| v.unsigned_abs()),
            Some(result.final_used),
            "{name}"
        );
    }
}

#[test]
fn telemetry_json_and_trace_export_are_valid() {
    let sc = scenario();
    let config = SimConfig::activedr(90).with_catalog_mode(CatalogMode::Incremental);
    let tele = Telemetry::on();
    let (result, _) = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &tele);
    let report = tele.report();

    let parsed: Value = serde_json::from_str(&report.to_json()).expect("telemetry.json parses");
    assert_eq!(parsed.get("version").and_then(Value::as_u64), Some(2));
    for key in [
        "counters",
        "gauges",
        "histograms",
        "spans",
        "flight",
        "series",
        "stream",
        "dropped",
    ] {
        assert!(parsed.get(key).is_some(), "missing {key}");
    }
    // The series object carries both tracks with points and column names.
    let day = parsed
        .get("series")
        .and_then(|s| s.get("day"))
        .expect("day series");
    assert!(
        day.get("raw_samples").and_then(Value::as_u64).unwrap_or(0) > 0,
        "no day samples recorded"
    );
    let day_points = day
        .get("points")
        .and_then(Value::as_array)
        .expect("day points");
    assert!(!day_points.is_empty());
    let day_counters = day
        .get("counters")
        .and_then(Value::as_array)
        .expect("day counter names");
    assert!(day_counters
        .iter()
        .any(|n| n.as_str() == Some("replay.reads")));
    let counters = parsed.get("counters").expect("counters");
    assert_eq!(
        counters.get("replay.reads").and_then(Value::as_u64),
        Some(result.total_reads())
    );
    // Span tree: one top-level "run" span entered once, with children.
    let spans = parsed
        .get("spans")
        .and_then(Value::as_array)
        .expect("spans");
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].get("name").and_then(Value::as_str), Some("run"));
    assert_eq!(spans[0].get("count").and_then(Value::as_u64), Some(1));
    let children = spans[0]
        .get("children")
        .and_then(Value::as_array)
        .expect("children");
    assert!(children
        .iter()
        .any(|c| c.get("name").and_then(Value::as_str) == Some("day")));

    // Flight recorder holds engine events, newest within the ring bound.
    let flight = parsed
        .get("flight")
        .and_then(Value::as_array)
        .expect("flight");
    assert!(!flight.is_empty());
    let kinds: Vec<&str> = flight
        .iter()
        .filter_map(|e| e.get("kind").and_then(Value::as_str))
        .collect();
    assert!(
        kinds.contains(&"trigger") || kinds.contains(&"trigger-skip"),
        "no trigger events in {kinds:?}"
    );
    assert!(kinds.contains(&"changelog-flush"));

    // Trace-event export: a JSON array of complete ("X") events whose
    // names come from the span tree.
    let trace: Value = serde_json::from_str(&report.trace_json()).expect("trace parses");
    let events = trace.as_array().expect("trace is an array");
    assert!(!events.is_empty());
    for e in events {
        assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"));
        assert!(e.get("ts").and_then(Value::as_u64).is_some());
        assert!(e.get("dur").and_then(Value::as_u64).is_some());
    }
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(Value::as_str) == Some("run")));
}

#[test]
fn catalog_guard_runs_clean_and_changes_nothing() {
    let sc = scenario();
    let base = SimConfig::activedr(90).with_catalog_mode(CatalogMode::Incremental);
    let guarded = base.clone().with_catalog_guard(7);

    let plain = run(&sc.traces, sc.initial_fs.clone(), &base);
    let tele = Telemetry::on();
    let (watched, _) = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &guarded, &tele);
    assert_eq!(
        result_bytes(&plain),
        result_bytes(&watched),
        "the catalog guard must be read-only"
    );

    let report = tele.report();
    let checks = report.counter("catalog.guard_checks").unwrap_or(0);
    assert!(checks > 0, "guard never ran");
    assert_eq!(
        report.counter("catalog.guard_divergences"),
        Some(0),
        "incremental catalog diverged from the full scan"
    );
    // Every check reports through the flight recorder, though the
    // bounded ring may have evicted the oldest entries by run end.
    let guard_events: Vec<_> = report
        .flight
        .iter()
        .filter(|e| e.kind == "catalog-guard")
        .collect();
    assert!(!guard_events.is_empty(), "no guard events retained");
    assert!(u64::try_from(guard_events.len()).expect("count fits") <= checks);
    assert!(guard_events.iter().all(|e| e.detail.starts_with("ok:")));
}

#[test]
fn every_trigger_flushes_under_heavy_churn() {
    let sc = scenario();
    // Stretch the trigger interval so each trigger faces ~60 days of
    // accumulated churn: at Tiny scale the net backlog reaches a large
    // share of the index, and the trigger must still fold all of it.
    let mut config = SimConfig::activedr(30)
        .with_catalog_mode(CatalogMode::Incremental)
        .with_catalog_guard(1);
    config.purge_interval_days = 60;
    let mut full_cfg = config.clone();
    full_cfg.catalog_mode = CatalogMode::FullScan;
    let full = run(&sc.traces, sc.initial_fs.clone(), &full_cfg);

    // A ring large enough that no trigger's events are evicted.
    let mut obs = ObsConfig::on();
    obs.flight_capacity = 1 << 16;
    let tele = Telemetry::new(&obs);
    let (inc, _) = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &tele);
    assert_eq!(
        result_bytes(&full),
        result_bytes(&inc),
        "flushing a large backlog changed the replay outcome"
    );
    let report = tele.report();
    assert!(report.counter("catalog.guard_checks").unwrap_or(0) >= 1);
    assert_eq!(report.counter("catalog.guard_divergences"), Some(0));

    let trigger_days: Vec<i64> = report
        .flight
        .iter()
        .filter(|e| e.kind == "trigger" || e.kind == "trigger-skip")
        .map(|e| e.day)
        .collect();
    let triggers = report.counter("retention.triggers_fired").unwrap_or(0)
        + report.counter("retention.triggers_skipped").unwrap_or(0);
    assert!(triggers >= 1, "the replay should reach a trigger");
    assert_eq!(
        u64::try_from(trigger_days.len()).expect("count fits"),
        triggers,
        "every trigger's flight event should be retained"
    );
    for day in trigger_days {
        assert!(
            report.flight.iter().any(|e| e.day == day
                && e.kind == "changelog-flush"
                && !e.detail.starts_with("forced:")),
            "the trigger on day {day} was not served by a flush"
        );
    }
}

#[test]
fn guard_interval_caps_check_frequency() {
    let sc = scenario();
    // A guard interval far beyond the replay window: at most one check.
    let config = SimConfig::activedr(90)
        .with_catalog_mode(CatalogMode::Incremental)
        .with_catalog_guard(10_000);
    let tele = Telemetry::on();
    let _ = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &tele);
    assert_eq!(tele.report().counter("catalog.guard_checks"), Some(0));
    // Guard configured but the catalog is full-scan: nothing to diff.
    let config = SimConfig::activedr(90).with_catalog_guard(7);
    let tele = Telemetry::on();
    let _ = run_with_telemetry(&sc.traces, sc.initial_fs.clone(), &config, &tele);
    assert_eq!(tele.report().counter("catalog.guard_checks"), Some(0));
}

//! Planted-corruption tests of the telemetry schema validators: start
//! from a known-good artifact of each kind (`telemetry.json` v2, a
//! streamed JSONL log, a BENCH-v2 document), plant one corruption at a
//! time, and prove each malformed shape is rejected with a pointed
//! message while the pristine document still passes.
//!
//! The good fixtures mirror what the real emitters produce (the unit
//! tests in `activedr-obs` pin the emitter side; `cargo xtask smoke`
//! ties both ends together against a live replay).

#![allow(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "test harness: failing fast with a message is the point"
)]

use xtask::telemetry::{validate_bench, validate_jsonl, validate_telemetry, validate_wal};

const TELEMETRY: &str = r#"{"version":2,
    "counters":{"replay.reads":100,"retention.purged_files":40},
    "gauges":{"catalog.buffer_depth":1200},
    "histograms":[{"name":"retention.trigger_micros","bounds":[100,1000],
                   "counts":[3,1,0],"count":4,"sum":900}],
    "spans":[{"name":"run","count":1,"total_micros":9,"children":[]}],
    "flight":[{"seq":0,"day":30,"kind":"changelog-flush",
               "detail":"5 raw delta(s) coalesced to 4 net, folded into the catalog index"}],
    "series":{
      "day":{"capacity":8,"stride":2,"rollups":1,"raw_samples":5,
        "counters":["replay.reads","retention.purged_files"],
        "gauges":["catalog.buffer_depth"],
        "histograms":["retention.trigger_micros"],
        "points":[
          {"start_day":0,"end_day":1,"windows":2,"complete":true,
           "counters":[40,10],"gauges":[900],"p50":[100],"p99":[1000]},
          {"start_day":2,"end_day":3,"windows":2,"complete":true,
           "counters":[50,20],"gauges":[1100],"p50":[0],"p99":[0]},
          {"start_day":4,"end_day":4,"windows":1,"complete":false,
           "counters":[10,10],"gauges":[1200],"p50":[0],"p99":[0]}]},
      "trigger":{"capacity":4,"stride":1,"rollups":0,"raw_samples":0,
        "counters":[],"gauges":[],"histograms":[],"points":[]}},
    "stream":{"lines":7,"write_errors":0},
    "dropped":{"span_instances":0,"flight_events":0}}"#;

/// Plant one textual corruption and require rejection mentioning
/// `expect`.
fn rejects(
    base: &str,
    validate: fn(&str) -> Result<(), Vec<String>>,
    from: &str,
    to: &str,
    expect: &str,
) {
    let doc = base.replace(from, to);
    assert_ne!(doc, base, "corruption {from:?} -> {to:?} did not apply");
    let errs = validate(&doc).expect_err("corrupted document must be rejected");
    assert!(
        errs.iter().any(|e| e.contains(expect)),
        "expected an error mentioning {expect:?}, got: {errs:?}"
    );
}

#[test]
fn pristine_telemetry_passes() {
    assert_eq!(validate_telemetry(TELEMETRY), Ok(()));
}

#[test]
fn telemetry_corruptions_are_each_rejected() {
    let cases = [
        // Wrong schema version.
        ("\"version\":2", "\"version\":1", "not 2"),
        // A counter delta shaved off one rollup point: 40+50+10 != 100.
        ("\"counters\":[50,20]", "\"counters\":[49,20]", "reconciliation drift"),
        // Ring capacity not a power of two.
        ("\"capacity\":8", "\"capacity\":6", "power of two"),
        // Stride not a power of two.
        ("\"stride\":2,", "\"stride\":3,", "power of two"),
        // Partial point in the middle of the ring.
        (
            "\"windows\":2,\"complete\":true,\n           \"counters\":[40,10]",
            "\"windows\":2,\"complete\":false,\n           \"counters\":[40,10]",
            "is not last",
        ),
        // Overlapping day windows.
        ("\"start_day\":2", "\"start_day\":1", "overlaps"),
        // A zero-width window.
        ("\"windows\":1,", "\"windows\":0,", "positive \"windows\""),
        // Column vector misaligned with the name list.
        ("\"gauges\":[900]", "\"gauges\":[900,1]", "2 gauges column(s), want 1"),
        // A series column that is not a registered counter.
        ("\"replay.reads\",\"retention.purged_files\"],",
         "\"replay.reads\",\"ghost.counter\"],",
         "not a top-level counter"),
        // Stream accounting lost.
        ("\"lines\":7", "\"lines\":-7", "\"lines\""),
        // Idle track claiming stored points.
        ("\"raw_samples\":0,\n        \"counters\":[],\"gauges\":[],\"histograms\":[],\"points\":[]",
         "\"raw_samples\":0,\n        \"counters\":[],\"gauges\":[],\"histograms\":[],\"points\":[{}]",
         "raw_samples\" is 0"),
    ];
    for (from, to, expect) in cases {
        rejects(TELEMETRY, validate_telemetry, from, to, expect);
    }
}

const JSONL: &str = concat!(
    "{\"type\":\"meta\",\"version\":1,\"every_days\":7}\n",
    "{\"type\":\"day\",\"day\":0,\"counters\":{\"replay.reads\":40},\"gauges\":{\"fs.final_files\":9}}\n",
    "{\"type\":\"trigger\",\"day\":30,\"counters\":{\"replay.reads\":55},\"gauges\":{}}\n",
    "{\"type\":\"final\",\"day\":30,\"counters\":{\"replay.reads\":5},\"gauges\":{}}\n",
);

#[test]
fn pristine_stream_log_passes() {
    assert_eq!(validate_jsonl(JSONL), Ok(()));
}

#[test]
fn stream_log_corruptions_are_each_rejected() {
    let cases = [
        // Meta line demoted to an ordinary event.
        ("\"type\":\"meta\"", "\"type\":\"day\"", "meta"),
        // Unknown event type.
        (
            "\"type\":\"trigger\"",
            "\"type\":\"checkpoint\"",
            "unknown type",
        ),
        // Day stamps going backwards.
        (
            "\"type\":\"trigger\",\"day\":30",
            "\"type\":\"trigger\",\"day\":-2",
            "goes backwards",
        ),
        // Negative counter delta.
        (
            "\"replay.reads\":55",
            "\"replay.reads\":-55",
            "non-negative",
        ),
        // Gauge that is not an integer.
        (
            "\"gauges\":{\"fs.final_files\":9}",
            "\"gauges\":{\"fs.final_files\":9.5}",
            "not an integer",
        ),
        // The closing line lost.
        (
            "{\"type\":\"final\",\"day\":30,\"counters\":{\"replay.reads\":5},\"gauges\":{}}\n",
            "",
            "\"final\"",
        ),
        // A line that is not JSON at all.
        (
            "{\"type\":\"trigger\"",
            "{\"type\":\"trigg",
            "does not parse",
        ),
    ];
    for (from, to, expect) in cases {
        rejects(JSONL, validate_jsonl, from, to, expect);
    }
    // Crash truncation mid-line: the complete-file validator flags it
    // (the reader-side recovery contract — parse the untruncated
    // prefix — is proven in the obs integration tests).
    let truncated = &JSONL[..JSONL.len() - 10];
    let errs = validate_jsonl(truncated).expect_err("truncated log must be flagged");
    assert!(errs.iter().any(|e| e.contains("newline")), "{errs:?}");
}

const BENCH: &str = r#"{"bench_schema":2,"name":"catalog",
    "env":{"os":"linux","arch":"x86_64","cpus":16},"min_of":7,
    "metrics":[
      {"name":"speedup_week_churn","kind":"ratio","direction":"higher_better","value":1.33,"unit":"x"},
      {"name":"full_scan_micros","kind":"time","direction":"lower_better","value":520,"unit":"us"},
      {"name":"files","kind":"info","direction":"none","value":4807,"unit":"files"}],
    "series":[
      {"name":"full_scan_micros_samples","unit":"us","index":[0,1,2],
       "samples":[530,520,544],"summary":"full_scan_micros","reduce":"min"},
      {"name":"churn_sweep_speedup","unit":"x","index":[0,5,25],"samples":[15.8,2.1,1.2]}]}"#;

#[test]
fn pristine_bench_document_passes() {
    assert_eq!(validate_bench(BENCH), Ok(()));
}

/// A realistic WAL image built with the *real* encoder from
/// `activedr-fs` — not the validator's own frame builder — so this test
/// pins writer and independent validator to the same on-disk format. A
/// drift on either side (layout, checksum polynomial, sequence rules)
/// breaks it.
fn real_wal_image() -> Vec<u8> {
    use activedr_core::time::Timestamp;
    use activedr_core::user::UserId;
    use activedr_fs::storage::{encode_record, WalPayload};
    use activedr_fs::{Delta, FileMeta, NodeId};

    let batch = WalPayload::Batch(vec![Delta::Upsert {
        path: "/scratch/u1/f0".to_string(),
        id: NodeId(7),
        meta: FileMeta::new(UserId(1), 4096, Timestamp::from_days(3)),
    }]);
    let mut image = Vec::new();
    for (seq, payload) in [
        (1, &batch),
        (2, &WalPayload::FlushMark),
        (3, &WalPayload::Batch(Vec::new())),
    ] {
        image.extend(encode_record(seq, payload).expect("encode frame"));
    }
    image
}

#[test]
fn real_wal_frames_pass_the_independent_validator() {
    assert_eq!(validate_wal(&real_wal_image()), Ok(()));
}

#[test]
fn planted_wal_corruptions_are_each_rejected() {
    // Torn tail: any cut inside the last frame must be flagged — this
    // validator certifies *complete* logs from clean shutdowns.
    let image = real_wal_image();
    for cut in 1..17 {
        let truncated = &image[..image.len() - cut];
        let errs = validate_wal(truncated).expect_err("torn tail must be flagged");
        assert!(
            errs.iter()
                .any(|e| e.contains("truncated") || e.contains("checksum")),
            "cut {cut}: {errs:?}"
        );
    }

    // A single flipped bit anywhere must be caught by the frame CRC (or
    // surface as a framing failure when it hits a length prefix).
    for i in 0..image.len() {
        let mut flipped = image.clone();
        flipped[i] ^= 0x10;
        assert!(
            validate_wal(&flipped).is_err(),
            "bit flip at byte {i} survived validation"
        );
    }

    // A sequence gap — a frame silently lost from the middle — framed
    // and checksummed correctly but must still be rejected.
    use activedr_fs::storage::{encode_record, WalPayload};
    let mut gapped = Vec::new();
    gapped.extend(encode_record(1, &WalPayload::FlushMark).expect("encode"));
    gapped.extend(encode_record(3, &WalPayload::FlushMark).expect("encode"));
    let errs = validate_wal(&gapped).expect_err("sequence gap must be flagged");
    assert!(
        errs.iter().any(|e| e.contains("sequence 3 after 1")),
        "{errs:?}"
    );
}

#[test]
fn bench_corruptions_are_each_rejected() {
    let cases = [
        // v1 document.
        ("\"bench_schema\":2", "\"bench_schema\":1", "bench_schema"),
        // Env fingerprint half-missing.
        ("\"os\":\"linux\",", "", "\"os\""),
        // Unknown metric kind / direction.
        ("\"kind\":\"ratio\"", "\"kind\":\"speed\"", "bad kind"),
        (
            "\"direction\":\"lower_better\"",
            "\"direction\":\"downhill\"",
            "bad direction",
        ),
        // Non-finite summary value (JSON null).
        ("\"value\":1.33", "\"value\":null", "finite"),
        // Index/sample length mismatch.
        (
            "\"index\":[0,5,25]",
            "\"index\":[0,5]",
            "2 index value(s) for 3 sample(s)",
        ),
        // Summary pointing at a metric that does not exist.
        (
            "\"summary\":\"full_scan_micros\"",
            "\"summary\":\"scan_micros\"",
            "does not exist",
        ),
        // Unknown reduction.
        ("\"reduce\":\"min\"", "\"reduce\":\"p50\"", "unknown reduce"),
        // The planted drift: min(samples) is 520 but the metric says 510.
        (
            "\"value\":520",
            "\"value\":510",
            "series-reconciliation drift",
        ),
    ];
    for (from, to, expect) in cases {
        rejects(BENCH, validate_bench, from, to, expect);
    }
}

//! End-to-end tests of the baseline ratchets (panic-freedom, plus dead-api
//! as a second, independent one) and the waiver mechanism, run against
//! throwaway miniature workspaces in a temp dir.

#![allow(
    clippy::expect_used,
    reason = "test harness: failing fast with a message is the point"
)]

use std::fs;
use std::path::{Path, PathBuf};

use xtask::runner::{run, Config, Report};

/// A fresh miniature workspace root: `crates/core/src/` for scanned code and
/// `crates/xtask/` for the baseline file.
fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xtask-ratchet-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("crates/core/src")).expect("create temp tree");
    fs::create_dir_all(dir.join("crates/xtask")).expect("create temp tree");
    dir
}

/// Write a lib.rs with `unwraps` many `.unwrap()` sites.
fn write_lib(root: &Path, unwraps: usize) {
    let mut body = String::from("fn f(o: Option<u32>) -> u32 {\n    let mut acc = 0;\n");
    for _ in 0..unwraps {
        body.push_str("    acc += o.unwrap();\n");
    }
    body.push_str("    acc\n}\n");
    fs::write(root.join("crates/core/src/lib.rs"), body).expect("write fixture lib");
}

fn check(root: &Path, update_baseline: bool) -> Report {
    let cfg = Config {
        root: root.to_path_buf(),
        only: None,
        update_baseline,
        ..Config::default()
    };
    run(&cfg).expect("runner succeeds on the miniature tree")
}

#[test]
fn missing_baseline_means_zero_allowance() {
    let root = temp_root("zero");
    write_lib(&root, 2);
    let report = check(&root, false);
    assert!(!report.is_clean());
    assert_eq!(
        report.errors.len(),
        2,
        "each unwrap site is pinpointed:\n{}",
        report.render()
    );
    for e in &report.errors {
        assert_eq!(e.check, "panic-freedom");
        assert_eq!(e.file, "crates/core/src/lib.rs");
        assert!(e.line > 0, "regressions point at the offending line");
        assert!(e.message.contains("baseline allows 0"), "{}", e.message);
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn update_baseline_then_clean() {
    let root = temp_root("update");
    write_lib(&root, 2);
    let report = check(&root, true);
    assert!(
        report.baseline_updated && report.is_clean(),
        "{}",
        report.render()
    );
    let text =
        fs::read_to_string(root.join("crates/xtask/panic-baseline.txt")).expect("baseline written");
    assert!(text.contains("2 unwrap crates/core/src/lib.rs"), "{text}");
    assert!(check(&root, false).is_clean(), "baselined tree passes");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn count_above_baseline_is_a_regression() {
    let root = temp_root("regress");
    write_lib(&root, 2);
    check(&root, true);
    write_lib(&root, 3);
    let report = check(&root, false);
    assert!(!report.is_clean());
    assert_eq!(
        report.errors.len(),
        3,
        "all candidate sites are listed:\n{}",
        report.render()
    );
    assert!(report
        .errors
        .iter()
        .all(|e| e.message.contains("baseline allows 2")));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn improvement_is_stale_until_locked_in() {
    let root = temp_root("stale");
    write_lib(&root, 2);
    check(&root, true);
    write_lib(&root, 1);
    let report = check(&root, false);
    assert!(
        !report.is_clean(),
        "an unlocked improvement must fail the check"
    );
    assert_eq!(report.errors.len(), 1);
    let err = report.errors.first().expect("one stale-baseline error");
    assert!(
        err.message.contains("lock in the improvement"),
        "{}",
        err.message
    );

    // `--update-baseline` tightens the ratchet; afterwards the tree is clean
    // and the old allowance is gone for good.
    let report = check(&root, true);
    assert!(report.baseline_updated && report.is_clean());
    let text = fs::read_to_string(root.join("crates/xtask/panic-baseline.txt"))
        .expect("baseline rewritten");
    assert!(text.contains("1 unwrap crates/core/src/lib.rs"), "{text}");
    assert!(check(&root, false).is_clean());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn removing_the_last_site_makes_the_entry_obsolete() {
    let root = temp_root("obsolete");
    write_lib(&root, 1);
    check(&root, true);
    write_lib(&root, 0);
    let report = check(&root, false);
    assert!(!report.is_clean());
    assert!(
        report.errors.iter().any(|e| e.message.contains("obsolete")),
        "{}",
        report.render()
    );
    check(&root, true);
    assert!(check(&root, false).is_clean());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn waiver_silences_a_finding_without_counting_it() {
    let root = temp_root("waiver");
    fs::write(
        root.join("crates/core/src/lib.rs"),
        "fn f(o: Option<u32>) -> u32 {\n\
         \x20   // xtask-allow: panic-freedom -- fixture: justified at this one site\n\
         \x20   o.unwrap()\n\
         }\n",
    )
    .expect("write fixture lib");
    let report = check(&root, false);
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.waived.len(), 1);
    assert!(
        report.panic_counts.is_empty(),
        "waived sites stay out of the ratchet"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn stale_waiver_is_an_error() {
    let root = temp_root("stale-waiver");
    fs::write(
        root.join("crates/core/src/lib.rs"),
        "// xtask-allow: panic-freedom -- nothing here panics any more\n\
         fn f(x: u32) -> u32 {\n    x\n}\n",
    )
    .expect("write fixture lib");
    let report = check(&root, false);
    assert!(!report.is_clean());
    let err = report.errors.first().expect("stale waiver reported");
    assert_eq!(err.check, "stale-waiver");
    assert!(err.message.contains("waives nothing"), "{}", err.message);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn waiver_for_a_scoped_out_check_is_not_stale() {
    let root = temp_root("scoped-waiver");
    fs::write(
        root.join("crates/core/src/lib.rs"),
        "// xtask-allow: determinism -- seeded by the caller\nfn f(x: u32) -> u32 {\n    x\n}\n",
    )
    .expect("write fixture lib");
    // Full run: the waiver matches nothing, so it is stale.
    assert!(!check(&root, false).is_clean());
    // A run scoped away from determinism leaves the waiver unexercised,
    // which must not count as stale.
    let cfg = Config {
        root: root.clone(),
        only: Some(vec!["panic-freedom".to_string()]),
        update_baseline: false,
        ..Config::default()
    };
    let report = run(&cfg).expect("runner succeeds on the miniature tree");
    assert!(report.is_clean(), "{}", report.render());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn unknown_check_name_in_waiver_is_an_error() {
    let root = temp_root("bad-waiver");
    fs::write(
        root.join("crates/core/src/lib.rs"),
        "// xtask-allow: no-such-check -- typo\nfn f(x: u32) -> u32 {\n    x\n}\n",
    )
    .expect("write fixture lib");
    let report = check(&root, false);
    assert!(!report.is_clean());
    assert!(
        report
            .errors
            .iter()
            .any(|e| e.message.contains("unknown check")),
        "{}",
        report.render()
    );
    let _ = fs::remove_dir_all(&root);
}

/// `--update-baseline` must be idempotent: running it twice on an
/// unchanged tree rewrites every ratchet file byte-identically (sorted,
/// deduplicated, zero-free — the render order is the BTreeMap key order,
/// not discovery order).
#[test]
fn update_baseline_twice_is_byte_identical() {
    let root = temp_root("idempotent");
    fs::write(
        root.join("crates/core/src/lib.rs"),
        "fn f(o: Option<u32>) -> u32 {\n\
         \x20   o.unwrap() + o.expect(\"twice\")\n\
         }\n",
    )
    .expect("write fixture lib");
    assert!(check(&root, true).baseline_updated);
    let read_all = |root: &Path| -> Vec<(String, String)> {
        let mut out = Vec::new();
        for entry in fs::read_dir(root.join("crates/xtask")).expect("baseline dir") {
            let p = entry.expect("dir entry").path();
            out.push((
                p.file_name().expect("name").to_string_lossy().into_owned(),
                fs::read_to_string(&p).expect("baseline readable"),
            ));
        }
        out.sort();
        out
    };
    let first = read_all(&root);
    assert!(
        first.iter().any(|(name, _)| name == "panic-baseline.txt"),
        "fixture produced no panic baseline: {first:?}"
    );
    assert!(check(&root, true).baseline_updated);
    assert_eq!(first, read_all(&root), "second rewrite must change nothing");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn both_ratchets_operate_independently() {
    let root = temp_root("both");
    fs::write(
        root.join("crates/core/src/lib.rs"),
        "fn f(o: Option<u32>) -> u32 {\n\
         \x20   o.unwrap()\n\
         }\n\
         pub fn unused_api() -> u32 {\n\
         \x20   1\n\
         }\n",
    )
    .expect("write fixture lib");
    let report = check(&root, true);
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.panic_counts.len(), 1, "one unwrap entry");
    assert_eq!(report.dead_counts.len(), 1, "one dead pub fn entry");
    // Demoting only the dead fn leaves the panic baseline untouched but
    // makes the dead-api baseline stale.
    fs::write(
        root.join("crates/core/src/lib.rs"),
        "fn f(o: Option<u32>) -> u32 {\n\
         \x20   o.unwrap()\n\
         }\n\
         fn unused_api() -> u32 {\n\
         \x20   1\n\
         }\n",
    )
    .expect("write fixture lib");
    let report = check(&root, false);
    assert_eq!(report.errors.len(), 1, "{}", report.render());
    let err = report.errors.first().expect("one stale entry");
    assert_eq!(err.check, "dead-api");
    let _ = fs::remove_dir_all(&root);
}

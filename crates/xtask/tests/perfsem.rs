//! End-to-end tests of the performance-semantics layer (checks 13 and 14),
//! run through the full runner against throwaway miniature workspaces:
//! each planted bug must fail the gate, and the repaired form of the same
//! workspace must pass it.

#![allow(
    clippy::expect_used,
    reason = "test harness: failing fast with a message is the point"
)]

use std::fs;
use std::path::{Path, PathBuf};

use xtask::runner::{run, Config, Report};

/// A fresh miniature workspace with the crate layout the hot-path entry
/// points expect.
fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xtask-perfsem-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    for sub in ["crates/core/src", "crates/sim/src", "crates/xtask"] {
        fs::create_dir_all(dir.join(sub)).expect("create temp tree");
    }
    dir
}

fn write(root: &Path, rel: &str, body: &str) {
    fs::write(root.join(rel), body).expect("write fixture");
}

fn check_only(root: &Path, only: &[&str], update_baseline: bool) -> Report {
    let cfg = Config {
        root: root.to_path_buf(),
        only: Some(only.iter().map(ToString::to_string).collect()),
        update_baseline,
        ..Config::default()
    };
    run(&cfg).expect("runner succeeds on the miniature tree")
}

#[test]
fn fresh_hot_path_clone_fails_with_a_witness_path() {
    let root = temp_root("alloc");
    // Clean form: the hot path allocates nothing.
    write(
        &root,
        "crates/sim/src/engine.rs",
        "pub fn run(xs: &[u32]) -> u32 { helper(xs) }\n\
         fn helper(xs: &[u32]) -> u32 { xs.iter().sum() }\n",
    );
    let report = check_only(&root, &["alloc-hot-path"], true);
    assert!(report.is_clean(), "{}", report.render());

    // Planted bug: a clone sneaks into the helper the engine entry calls.
    write(
        &root,
        "crates/sim/src/engine.rs",
        "pub fn run(xs: &[u32]) -> u32 { helper(xs) }\n\
         fn helper(xs: &[u32]) -> u32 { let own = xs.to_vec(); own.clone().len() as u32 }\n",
    );
    let report = check_only(&root, &["alloc-hot-path"], false);
    assert!(!report.is_clean(), "a fresh hot-path alloc must fail");
    let allocs: Vec<_> = report
        .errors
        .iter()
        .filter(|e| e.check == "alloc-hot-path")
        .collect();
    assert_eq!(allocs.len(), 2, "to_vec and clone:\n{}", report.render());
    assert!(
        allocs
            .iter()
            .all(|e| e.message.contains("run -> helper") && e.file == "crates/sim/src/engine.rs"),
        "each finding carries the BFS witness path:\n{}",
        report.render()
    );
}

#[test]
fn insert_in_loop_fails_and_batched_sort_merge_passes() {
    let root = temp_root("loop");
    // Planted bug: per-delta insert into a field-rooted map, the
    // CatalogIndex churn shape.
    write(
        &root,
        "crates/core/src/lib.rs",
        "impl Index {\n\
         pub fn apply(&mut self, deltas: Vec<Delta>) {\n\
         for d in deltas { self.files.insert(d.key, d.meta); }\n\
         } }\n",
    );
    let report = check_only(&root, &["loop-complexity"], false);
    assert!(!report.is_clean(), "per-element churn must fail");
    let found: Vec<_> = report
        .errors
        .iter()
        .filter(|e| e.check == "loop-complexity")
        .collect();
    assert_eq!(found.len(), 1, "{}", report.render());
    assert!(
        found[0].message.contains("growing-insert") || found[0].message.contains("self.files"),
        "{}",
        found[0].message
    );

    // Fixed form: batch the whole delta set, sort once, rebuild.
    write(
        &root,
        "crates/core/src/lib.rs",
        "impl Index {\n\
         pub fn apply(&mut self, mut deltas: Vec<Delta>) {\n\
         deltas.sort_by_key(|d| d.key);\n\
         let mut merged = Vec::new();\n\
         for d in deltas { merged.push(d); }\n\
         self.files = merged;\n\
         } }\n",
    );
    let report = check_only(&root, &["loop-complexity"], false);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn one_hop_insert_is_caught_through_the_callee() {
    let root = temp_root("hop");
    write(
        &root,
        "crates/core/src/lib.rs",
        "impl Index {\n\
         pub fn apply(&mut self, deltas: Vec<Delta>) {\n\
         for d in deltas { self.upsert(d); }\n\
         }\n\
         fn upsert(&mut self, d: Delta) { self.files.insert(d.key, d.meta); }\n\
         }\n",
    );
    let report = check_only(&root, &["loop-complexity"], false);
    let found: Vec<_> = report
        .errors
        .iter()
        .filter(|e| e.check == "loop-complexity")
        .collect();
    assert_eq!(found.len(), 1, "{}", report.render());
    assert!(
        found[0].message.contains("upsert") && found[0].message.contains("self.files"),
        "the finding names the callee and the inner receiver: {}",
        found[0].message
    );
}

#[test]
fn json_rendering_covers_perfsem_findings() {
    let root = temp_root("json");
    write(
        &root,
        "crates/core/src/lib.rs",
        "impl Index {\n\
         pub fn apply(&mut self, deltas: Vec<Delta>) {\n\
         for d in deltas { self.files.insert(d.key, d.meta); }\n\
         } }\n",
    );
    let report = check_only(&root, &["loop-complexity"], false);
    let json = report.render_json();
    assert_eq!(json.lines().count(), report.errors.len());
    let line = json.lines().next().expect("one finding");
    assert!(line.starts_with("{\"check\":\"loop-complexity\""), "{line}");
    assert!(
        line.contains("\"file\":\"crates/core/src/lib.rs\""),
        "{line}"
    );
    assert!(line.ends_with('}'), "{line}");
}

#[test]
fn output_is_identical_across_thread_counts() {
    let root = temp_root("threads");
    // Enough files and findings that parallel scheduling could plausibly
    // reorder something if merging were not deterministic.
    for i in 0..6 {
        write(
            &root,
            &format!("crates/core/src/m{i}.rs"),
            &format!(
                "impl Index{i} {{\n\
                 pub fn apply(&mut self, deltas: Vec<Delta>) {{\n\
                 for d in deltas {{ self.files.insert(d.key, d.meta); }}\n\
                 }} }}\n\
                 pub fn first{i}(o: Option<u32>) -> u32 {{ o.unwrap() }}\n"
            ),
        );
    }
    write(
        &root,
        "crates/sim/src/engine.rs",
        "pub fn run(xs: &[u32]) -> Vec<u32> { xs.to_vec() }\n",
    );
    let run_with = |threads: &str| {
        std::env::set_var("XTASK_THREADS", threads);
        let report = check_only(
            &root,
            &["panic-freedom", "alloc-hot-path", "loop-complexity"],
            false,
        );
        std::env::remove_var("XTASK_THREADS");
        (
            report.render_json(),
            report
                .errors
                .iter()
                .map(|e| format!("{}:{}:{}:{}", e.check, e.file, e.line, e.message))
                .collect::<Vec<_>>(),
            report.panic_sites.clone(),
            report.alloc_sites.clone(),
            report.loop_sites.clone(),
        )
    };
    let one = run_with("1");
    let many = run_with("8");
    assert_eq!(one, many, "findings must not depend on the worker count");
    assert!(!one.1.is_empty(), "the fixture actually produces findings");
}

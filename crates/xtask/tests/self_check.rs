//! The checker must pass over the tree that ships it: `cargo xtask check`
//! clean and the panic-freedom ratchet strictly below its pre-introduction
//! level (18 `.unwrap()`/`.expect()` sites in non-test library code). The
//! cast guarantee lives in clippy, not in the checker; this file also pins
//! the lint configuration that carries it, so `cargo test` notices when the
//! guarantee is weakened even where clippy is not run.

#![allow(
    clippy::expect_used,
    reason = "test harness: failing fast with a message is the point"
)]

use std::path::Path;

use xtask::runner::{run, Config};

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}

#[test]
fn workspace_is_clean() {
    let cfg = Config {
        root: workspace_root(),
        only: None,
        update_baseline: false,
        ..Config::default()
    };
    let report = run(&cfg).expect("checker runs over the shipped tree");
    assert!(
        report.is_clean(),
        "xtask check found errors on the shipped tree:\n{}",
        report.render()
    );
    assert!(
        report.files_scanned > 50,
        "only {} files scanned — crate discovery is broken",
        report.files_scanned
    );
}

#[test]
fn unwrap_expect_ratchet_is_below_pre_introduction_level() {
    let cfg = Config {
        root: workspace_root(),
        only: Some(vec!["panic-freedom".to_string()]),
        update_baseline: false,
        ..Config::default()
    };
    let report = run(&cfg).expect("checker runs over the shipped tree");
    let total: u32 = report
        .panic_counts
        .iter()
        .filter(|((_, cat), _)| cat == "unwrap" || cat == "expect")
        .map(|(_, n)| *n)
        .sum();
    assert!(
        total < 18,
        "{total} unwrap/expect sites in library code — the ratchet started at 18 \
         and must only go down"
    );
}

/// The clippy cast lints that together deny every lossy numeric `as` cast
/// (and route the lossless ones through `From`).
const CAST_LINTS: [&str; 5] = [
    "cast_possible_truncation",
    "cast_possible_wrap",
    "cast_sign_loss",
    "cast_precision_loss",
    "cast_lossless",
];

/// The one library file allowed to cast raw: the conversions module.
const CAST_HOME: &str = "crates/core/src/convert.rs";

/// Recursively collect `.rs` files under `dir`.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|e| e.path()) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The lint list of every file-level `#![allow(…)]`/`#![expect(…)]`
/// attribute in `src`.
fn inner_lint_attrs(src: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for opener in ["#![allow(", "#![expect("] {
        let mut rest = src;
        while let Some((_, tail)) = rest.split_once(opener) {
            let (attr, after) = tail.split_once(")]").unwrap_or((tail, ""));
            out.push(attr);
            rest = after;
        }
    }
    out
}

#[test]
fn lossy_casts_are_denied_by_clippy_outside_convert() {
    let root = workspace_root();
    let manifest =
        std::fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml is readable");
    let section = manifest
        .split("[workspace.lints.clippy]")
        .nth(1)
        .expect("root Cargo.toml has a [workspace.lints.clippy] table");
    let section = section.split("\n[").next().unwrap_or(section);
    let listed: Vec<&str> = section
        .lines()
        .filter_map(|l| l.split_once('='))
        .map(|(key, _)| key.trim())
        .collect();
    for lint in CAST_LINTS {
        assert!(
            listed.contains(&lint),
            "[workspace.lints.clippy] does not list `{lint}`"
        );
    }

    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let krate = krate.expect("crates/ entry is readable").path();
        rust_files(&krate.join("src"), &mut files);
    }
    assert!(files.len() > 50, "only {} library files found", files.len());
    let mut offenders = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if rel == CAST_HOME {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("library source is readable");
        if inner_lint_attrs(&src)
            .iter()
            .any(|attr| attr.contains("clippy::cast_"))
        {
            offenders.push(rel);
        }
    }
    assert!(
        offenders.is_empty(),
        "file-level clippy cast allows outside {CAST_HOME}: {offenders:?}; route the casts \
         through activedr_core::convert or `From` instead"
    );
}

/// Every checked-in machine-maintained baseline must be a fixed point of
/// parse → render: sorted, deduplicated (BTreeMap keys), zero-free, with
/// the canonical header. This is what makes `--update-baseline` idempotent
/// — rewriting a clean tree's baselines is a byte-level no-op.
#[test]
fn checked_in_baselines_are_parse_render_fixed_points() {
    use xtask::baseline::{self, Ratchet};
    let root = workspace_root();
    for ratchet in [
        Ratchet::PanicFreedom,
        Ratchet::PanicReach,
        Ratchet::DeadApi,
        Ratchet::ChangelogEmits,
        Ratchet::AllocHotPath,
        Ratchet::LoopComplexity,
    ] {
        let path = root.join(ratchet.path());
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let counts = baseline::parse(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        assert_eq!(
            baseline::render(ratchet, &counts),
            text,
            "{} is not in canonical form; run `cargo xtask check --update-baseline`",
            path.display()
        );
    }
}

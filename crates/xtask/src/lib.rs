//! Repo-specific static analysis for the ActiveDR workspace.
//!
//! `cargo xtask check` enforces fourteen invariants that rustc and clippy
//! cannot express because they are about *this* codebase's architecture.
//! (Numeric casts are not among them: the root `Cargo.toml`'s
//! `[workspace.lints.clippy]` denies every lossy `as` cast outside
//! `core::convert`, with full type information.) Five are token-level
//! (over the [`lexer`] stream):
//!
//! 1. **panic-freedom** — no `.unwrap()`/`.expect()`/panicking macros/index
//!    expressions in non-test library code, ratcheted by a checked-in
//!    baseline ([`baseline`]).
//! 2. **newtype** — no raw arithmetic on `.0` of the domain newtypes
//!    (`Timestamp`, `TimeDelta`, `UserId`, `FileId`, …) outside their
//!    defining modules.
//! 3. **dispatch** — no `_` wildcard arms in matches over the policy and
//!    activity enums, so adding a variant forces every dispatch site to be
//!    revisited.
//! 4. **float-cmp** — no `==`/`!=` against floats outside `core::approx`.
//! 5. **determinism** — no wall clocks or ambient-entropy RNGs; replay must
//!    be reproducible from a seed.
//!
//! Three are semantic, over the expression tree built by [`ast`] and
//! traversed via [`visit`] (see [`semantic`]):
//!
//! 6. **ignored-result** — no `let _ =` or bare-statement discards of
//!    `Result`-returning or `#[must_use]` calls resolved against a
//!    workspace-wide signature table.
//! 7. **unit-safety** — no arithmetic mixing seconds, days, bytes, and
//!    timestamps without going through the typed conversions.
//! 8. **par-determinism** — no `RefCell`/`Cell` captures, held locks, or
//!    order-sensitive float reductions inside rayon parallel pipelines.
//!
//! Four are interprocedural, over the workspace symbol table ([`resolve`]),
//! the call graph ([`callgraph`]), and per-function dataflow facts
//! ([`dataflow`]) — see [`interproc`]:
//!
//! 9. **determinism-taint** — no function reachable from the engine's
//!    replay entry points (`run`, `run_instrumented`, trigger evaluation)
//!    may transitively reach a nondeterminism source (hash-container
//!    iteration, wall clocks, `RandomState`, thread ids) except through
//!    the hand-audited exemption file `determinism-exemptions.txt`.
//! 10. **changelog-completeness** — every path in `fs::vfs` that mutates
//!     the trie must also reach a changelog emit (`Delta::Upsert`/`Touch`/
//!     `Remove`), and an emit census pins the exact number of emit sites.
//! 11. **panic-reachability** — the panic ratchet, restricted to panic
//!     sites reachable from the engine hot path, with its own baseline.
//! 12. **dead-api** — pub functions in the library crates that nothing in
//!     the workspace references, ratcheted so the public surface only
//!     shrinks.
//!
//! Two are performance-semantic, layered on the same workspace table — see
//! [`perfsem`]:
//!
//! 13. **alloc-hot-path** — allocation sites (`Vec::new`, `Box::new`,
//!     `clone`, `collect`, `to_owned`/`to_string`, `format!`, `vec!`)
//!     in functions reachable from the engine hot-path entries, with a BFS
//!     witness path per finding, ratcheted in `alloc-baseline.txt`.
//! 14. **loop-complexity** — loop-carried superlinear shapes
//!     (`Vec::insert`/`remove` shifting in a loop, binary-search-then-
//!     insert, sort/contains on a growing collection, nested loops over
//!     the same collection), ratcheted in `loop-baseline.txt`.
//!
//! Individual findings from the file-local checks can be waived in place
//! with a `// xtask-allow: <check> -- <reason>` comment on the same line or
//! the line above; unused waivers are themselves errors. The
//! interprocedural checks deliberately ignore inline waivers — their
//! findings are properties of call paths, not lines — and are governed by
//! their ratchet/exemption files instead.

pub mod ast;
pub mod baseline;
pub mod callgraph;
pub mod checks;
pub mod dataflow;
pub mod interproc;
pub mod lexer;
pub mod perf;
pub mod perfsem;
pub mod resolve;
pub mod runner;
pub mod semantic;
pub mod telemetry;
pub mod visit;

//! The performance-semantics checks (13 and 14): hot-path allocation
//! census and loop-complexity detection.
//!
//! Both run over the same stack as [`crate::interproc`] — workspace table,
//! call graph, per-function facts — and return [`RatchetFindings`] for the
//! runner to compare against `alloc-baseline.txt` / `loop-baseline.txt`.
//!
//! **alloc-hot-path** mirrors panic-reachability: every allocation fact in
//! a function reachable from the engine entry points is counted per file
//! and category, with a BFS witness path in the message. The retention
//! engine's hot loop runs once per simulated day over every user; an
//! allocation there is O(users × days) even when the code reads as
//! innocent, which is exactly the class of regression a reviewer cannot
//! see in a diff.
//!
//! **loop-complexity** walks each function body with a stack of enclosing
//! loops and flags loop-carried superlinear shapes:
//!
//! * `binary-insert` — `binary_search*` followed by `.insert` on the same
//!   receiver inside one loop: O(n²) element shifting that reads as
//!   O(n log n).
//! * `growing-insert` — `.insert` into a struct-field-rooted collection
//!   inside a loop, either directly or one resolved call away (the
//!   `CatalogIndex::apply` → `upsert` shape: the loop is in the caller,
//!   the insert in the callee).
//! * `shift-remove` — positional `.remove(i)` in a loop (a by-key
//!   `.remove(&k)` passes: its argument is a reference).
//! * `sort-in-loop` / `contains-in-loop` — sorting or linearly scanning a
//!   collection that persists across iterations of the innermost loop.
//!   Loop-local bindings are exempt: they are fresh per iteration.
//! * `nested-loop` — an inner `for` over the same iterated expression as
//!   an enclosing loop.
//!
//! Like the other interprocedural checks these ignore inline waivers —
//! their findings are properties of call paths and loop nests, not single
//! lines — and are governed by their ratchet files instead.

#![allow(
    clippy::indexing_slicing,
    reason = "function ids are dense indices produced by enumerate() over the same fn table the facts vector is sized from"
)]

use std::collections::BTreeSet;

use crate::ast::{Block, Expr, ExprKind, Stmt};
use crate::callgraph::CallGraph;
use crate::dataflow::{expr_text, rooted_in_field, FnFacts};
use crate::interproc::RatchetFindings;
use crate::resolve::{FnDef, Workspace};

/// Check 13 — **alloc-hot-path**: allocation sites inside functions
/// reachable from the engine entry points, counted per file and category
/// against `alloc-baseline.txt`.
pub fn alloc_hot_path(
    ws: &Workspace<'_>,
    graph: &CallGraph,
    facts: &[FnFacts],
    entries: &[(&str, &str)],
) -> RatchetFindings {
    let seeds = ws.find_entries(entries);
    let pred = graph.reachable_from(&seeds);
    let mut out = RatchetFindings::default();
    for &f in pred.keys() {
        let def = &ws.fns[f];
        for fact in &facts[f].allocs {
            let path = graph.witness_path(ws, &pred, f);
            out.push(
                def.path,
                fact.category.to_string(),
                fact.line,
                format!(
                    "{} inside `{}`, reachable from the engine hot path ({path})",
                    fact.what, def.item.name
                ),
            );
        }
    }
    out.sites.sort();
    out
}

/// Check 14 — **loop-complexity**: loop-carried superlinear shapes in the
/// library crates, counted per file and category against
/// `loop-baseline.txt`.
pub fn loop_complexity(
    ws: &Workspace<'_>,
    facts: &[FnFacts],
    lib_files: &BTreeSet<String>,
) -> RatchetFindings {
    let mut out = RatchetFindings::default();
    for (id, def) in ws.fns.iter().enumerate() {
        if !lib_files.contains(def.path) {
            continue;
        }
        let Some(body) = &def.item.body else {
            continue;
        };
        let _ = id;
        let mut walk = LoopWalk {
            ws,
            def,
            facts,
            out: &mut out,
            stack: Vec::new(),
        };
        walk.block(body);
    }
    out.sites.sort();
    out
}

/// One enclosing loop while walking a body.
struct LoopCtx {
    /// Dotted text of the iterated expression (`for` loops), empty for
    /// `while`/`loop`.
    iter_text: String,
    /// Names bound by `let` inside this loop's body — fresh per iteration.
    locals: BTreeSet<String>,
    /// Receiver texts of `binary_search*` calls seen in this loop.
    binsearch_recvs: Vec<String>,
}

struct LoopWalk<'w, 'a, 'o> {
    ws: &'w Workspace<'a>,
    def: &'w FnDef<'a>,
    facts: &'w [FnFacts],
    out: &'o mut RatchetFindings,
    stack: Vec<LoopCtx>,
}

/// The single root binding name of a receiver chain (`v.windows(2)` → `v`,
/// `self.users` → `None`: not a lone binding).
fn root_name(e: &Expr) -> Option<&str> {
    match &e.kind {
        ExprKind::Path(p) => {
            let mut segs = p.split_whitespace();
            let first = segs.next()?;
            segs.next().is_none().then_some(first)
        }
        ExprKind::Field { base, .. }
        | ExprKind::Index { base, .. }
        | ExprKind::Method { recv: base, .. }
        | ExprKind::Ref(base)
        | ExprKind::Try(base)
        | ExprKind::Unary { operand: base, .. } => root_name(base),
        _ => None,
    }
}

impl LoopWalk<'_, '_, '_> {
    fn push_finding(&mut self, category: &str, line: u32, message: String) {
        self.out
            .push(self.def.path, category.to_string(), line, message);
    }

    /// Does the receiver persist across iterations of the innermost loop?
    /// Field-rooted chains always do; lone bindings only when they were
    /// not introduced inside that loop (its pattern variables were added
    /// to `locals` on entry).
    fn persists(&self, recv: &Expr) -> bool {
        if rooted_in_field(recv) {
            return true;
        }
        match (root_name(recv), self.stack.last()) {
            (Some(name), Some(ctx)) => name != "self" && !ctx.locals.contains(name),
            _ => false,
        }
    }

    fn enter_loop(&mut self, iter_text: String, pat: &str, body: &Block) {
        let mut locals = BTreeSet::new();
        for w in pat.split(|c: char| !c.is_alphanumeric() && c != '_') {
            if !w.is_empty()
                && w != "mut"
                && w != "ref"
                && w.chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
            {
                locals.insert(w.to_string());
            }
        }
        self.stack.push(LoopCtx {
            iter_text,
            locals,
            binsearch_recvs: Vec::new(),
        });
        self.block(body);
        self.stack.pop();
    }

    fn block(&mut self, b: &Block) {
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let { pat, init, .. } => {
                    if let Some(e) = init {
                        self.expr(e);
                    }
                    if let Some(ctx) = self.stack.last_mut() {
                        for w in pat.split(|c: char| !c.is_alphanumeric() && c != '_') {
                            if !w.is_empty() && w != "mut" && w != "ref" {
                                ctx.locals.insert(w.to_string());
                            }
                        }
                    }
                }
                Stmt::Expr { expr, .. } => self.expr(expr),
                Stmt::Item(_) => {}
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::ForLoop { pat, iter, body } => {
                let text = expr_text(iter);
                if text != "?" {
                    if let Some(outer) = self
                        .stack
                        .iter()
                        .find(|c| !c.iter_text.is_empty() && c.iter_text == text)
                    {
                        let _ = outer;
                        self.push_finding(
                            "nested-loop",
                            e.line,
                            format!(
                                "nested `for` over `{text}` inside a loop already iterating \
                                 `{text}` in `{}` — O(n²) over the same collection",
                                self.def.item.name
                            ),
                        );
                    }
                }
                self.expr(iter);
                self.enter_loop(text, pat, body);
            }
            ExprKind::While { cond, body, pat } => {
                self.expr(cond);
                self.enter_loop(String::new(), pat.as_deref().unwrap_or(""), body);
            }
            ExprKind::Loop { body } => {
                self.enter_loop(String::new(), "", body);
            }
            ExprKind::Method {
                recv, name, args, ..
            } => {
                if !self.stack.is_empty() {
                    self.method_in_loop(e.line, recv, name, args);
                }
                self.expr(recv);
                for a in args {
                    self.expr(a);
                }
            }
            ExprKind::Call { callee, args } => {
                if !self.stack.is_empty() {
                    if let ExprKind::Path(p) = &callee.kind {
                        let targets = self.ws.resolve_path_call(p, self.def);
                        self.call_hop(e.line, &targets, &expr_text(callee));
                    }
                }
                self.expr(callee);
                for a in args {
                    self.expr(a);
                }
            }
            _ => crate::visit::walk_expr(e, &mut |child| self.expr(child)),
        }
    }

    fn method_in_loop(&mut self, line: u32, recv: &Expr, name: &str, args: &[Expr]) {
        let fn_name = &self.def.item.name;
        let recv_text = expr_text(recv);
        if name.starts_with("binary_search") {
            if let Some(ctx) = self.stack.last_mut() {
                ctx.binsearch_recvs.push(recv_text.clone());
            }
        }
        if name == "insert" {
            let binary = self
                .stack
                .last()
                .is_some_and(|c| c.binsearch_recvs.contains(&recv_text));
            if binary {
                self.push_finding(
                    "binary-insert",
                    line,
                    format!(
                        "binary-search-then-insert on `{recv_text}` in a loop in `{fn_name}` \
                         — each insert shifts O(n) elements, O(n²) total; batch and sort \
                         once, or use a BTreeMap"
                    ),
                );
            } else if rooted_in_field(recv) {
                self.push_finding(
                    "growing-insert",
                    line,
                    format!(
                        "`.insert` into `{recv_text}` (a struct field that outlives the \
                         call) inside a loop in `{fn_name}` — per-element churn on a \
                         growing collection"
                    ),
                );
            }
            return;
        }
        if name == "remove"
            && args.len() == 1
            && !matches!(&args[0].kind, ExprKind::Ref(_))
            && self.persists(recv)
        {
            self.push_finding(
                "shift-remove",
                line,
                format!(
                    "positional `.remove(i)` on `{recv_text}` in a loop in `{fn_name}` — \
                     each remove shifts O(n) elements; use retain, swap_remove, or drain"
                ),
            );
        }
        if name.starts_with("sort") && self.persists(recv) {
            self.push_finding(
                "sort-in-loop",
                line,
                format!(
                    "`.{name}()` on `{recv_text}` inside a loop in `{fn_name}` — re-sorting \
                     a persistent collection per iteration is O(n² log n); sort once after \
                     the loop"
                ),
            );
        }
        if name == "contains" && args.len() == 1 && self.persists(recv) {
            self.push_finding(
                "contains-in-loop",
                line,
                format!(
                    "`.contains(…)` linear scan of `{recv_text}` inside a loop in \
                     `{fn_name}` — O(n²) membership testing; use a set"
                ),
            );
        }
        // One call hop: a loop calling a function that inserts into a
        // field-rooted collection is the same growing-insert shape with
        // the loop and the insert in different frames.
        if name != "insert" {
            let recv_is_self = matches!(&recv.kind, ExprKind::Path(p) if p.trim() == "self");
            let targets = self.ws.resolve_method_call(name, recv_is_self, self.def);
            self.call_hop(line, &targets, name);
        }
    }

    fn call_hop(&mut self, line: u32, targets: &[usize], callee_text: &str) {
        let fn_name = &self.def.item.name;
        for &t in targets {
            if t < self.facts.len() && !self.facts[t].field_inserts.is_empty() {
                let inner = &self.facts[t].field_inserts[0];
                let callee = &self.ws.fns[t].item.name;
                self.push_finding(
                    "growing-insert",
                    line,
                    format!(
                        "loop in `{fn_name}` calls `{callee_text}` → `{callee}`, which \
                         inserts into `{}` (line {}) — per-element churn on a growing \
                         collection; consider batching the whole delta set",
                        inner.what, inner.line
                    ),
                );
                return; // one finding per call site, not per candidate
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_file;
    use crate::dataflow;
    use crate::lexer::lex;

    fn findings(sources: &[(&str, &str)]) -> RatchetFindings {
        let files: Vec<(String, crate::ast::File)> = sources
            .iter()
            .map(|(p, s)| (p.to_string(), parse_file(&lex(s).tokens)))
            .collect();
        let ws = Workspace::build(&files);
        let facts = dataflow::compute(&ws);
        let lib: BTreeSet<String> = sources.iter().map(|(p, _)| p.to_string()).collect();
        loop_complexity(&ws, &facts, &lib)
    }

    fn cats(f: &RatchetFindings) -> Vec<&str> {
        f.sites.iter().map(|s| s.1.as_str()).collect()
    }

    #[test]
    fn binary_search_then_insert_is_flagged() {
        let src = "fn merge(dst: &mut Vec<u32>, src: &[u32]) { for x in src { \
                   if let Err(i) = dst.binary_search(x) { dst.insert(i, *x); } } }";
        let f = findings(&[("crates/core/src/x.rs", src)]);
        assert_eq!(cats(&f), vec!["binary-insert"], "{:?}", f.sites);
    }

    #[test]
    fn batched_sort_after_the_loop_passes() {
        let src = "fn merge(dst: &mut Vec<u32>, src: &[u32]) { \
                   for x in src { dst.push(*x); } dst.sort_unstable(); dst.dedup(); }";
        let f = findings(&[("crates/core/src/x.rs", src)]);
        assert!(f.sites.is_empty(), "{:?}", f.sites);
    }

    #[test]
    fn field_insert_in_loop_is_growing_insert_direct_and_one_hop() {
        let direct = "impl Index { fn apply(&mut self, deltas: Vec<Delta>) { \
                      for d in deltas { self.files.insert(d.key, d.meta); } } }";
        let f = findings(&[("crates/fs/src/x.rs", direct)]);
        assert_eq!(cats(&f), vec!["growing-insert"], "{:?}", f.sites);

        let hop = "impl Index { fn apply(&mut self, deltas: Vec<Delta>) { \
                   for d in deltas { self.upsert(d); } } \
                   fn upsert(&mut self, d: Delta) { self.files.insert(d.key, d.meta); } }";
        let f = findings(&[("crates/fs/src/x.rs", hop)]);
        assert_eq!(cats(&f), vec!["growing-insert"], "{:?}", f.sites);
        assert!(f.sites[0].3.contains("upsert"), "{:?}", f.sites);
    }

    #[test]
    fn sort_and_contains_on_persistent_collections_are_flagged_loop_locals_pass() {
        let src = "fn f(names: &mut Vec<String>, batches: &[Batch]) { \
                   for b in batches { names.sort(); \
                   if names.contains(&b.name) { skip(b); } \
                   let mut scratch = Vec::new(); scratch.push(b.id); scratch.sort(); } }";
        let f = findings(&[("crates/core/src/x.rs", src)]);
        assert_eq!(
            cats(&f),
            vec!["contains-in-loop", "sort-in-loop"],
            "{:?}",
            f.sites
        );
    }

    #[test]
    fn positional_remove_is_flagged_and_by_key_remove_passes() {
        let src = "fn f(v: &mut Vec<u32>, m: &mut BTreeMap<u32, u32>, idxs: &[usize]) { \
                   for i in idxs { v.remove(*i); m.remove(&3); } }";
        let f = findings(&[("crates/core/src/x.rs", src)]);
        assert_eq!(cats(&f), vec!["shift-remove"], "{:?}", f.sites);
    }

    #[test]
    fn nested_loop_over_the_same_collection_is_flagged() {
        let src = "fn f(items: &[u32]) -> u32 { let mut hits = 0; \
                   for a in items { for b in items { if a == b { hits += 1; } } } hits }";
        let f = findings(&[("crates/core/src/x.rs", src)]);
        assert_eq!(cats(&f), vec!["nested-loop"], "{:?}", f.sites);
    }

    #[test]
    fn alloc_census_counts_only_reachable_functions() {
        let sources = &[
            (
                "crates/sim/src/engine.rs",
                "pub fn run() { hot(); } fn hot() { let v: Vec<u32> = Vec::new(); go(v); }",
            ),
            (
                "crates/core/src/cold.rs",
                "pub fn cold() -> String { format!(\"never on the hot path\") }",
            ),
        ];
        let files: Vec<(String, crate::ast::File)> = sources
            .iter()
            .map(|(p, s)| (p.to_string(), parse_file(&lex(s).tokens)))
            .collect();
        let ws = Workspace::build(&files);
        let graph = CallGraph::build(&ws);
        let facts = dataflow::compute(&ws);
        let got = alloc_hot_path(&ws, &graph, &facts, &[("crates/sim/src/engine.rs", "run")]);
        assert_eq!(got.sites.len(), 1, "{:?}", got.sites);
        assert_eq!(got.sites[0].1, "vec-new");
        assert!(got.sites[0].3.contains("run -> hot"));
    }
}

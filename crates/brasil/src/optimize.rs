//! Algebraic optimization of compiled plans.
//!
//! Three rewrites, mirroring §4.2:
//!
//! * [`constant_fold`] — evaluate constant subtrees at compile time (the
//!   garden-variety algebraic rewrite; `rand()` and agent reads block
//!   folding).
//! * [`dead_code`] — remove `Let`s whose slot is never read, `If`s with
//!   constant conditions, and empty loops/branches (the paper's "rewrite
//!   rules that function like dead-code elimination").
//! * [`invert_effects`] — **effect inversion** (Theorems 2/3): rewrite
//!   non-local effect assignments `p.f <- E(this, p)` into local ones
//!   `f <- E(p, this)` by swapping the roles of the querying agent and the
//!   loop variable, eliminating the second reduce pass of the runtime.
//!
//! ### Inversion correctness conditions
//!
//! The rewrite is exact when (a) every agent runs the same script with the
//! same visibility bound — so visibility is *symmetric*: `q` sees `this`
//! iff `this` sees `q` — and (b) the inverted fragment draws no randomness
//! (the draw would move from the assigner's stream to the target's,
//! changing the realization). Condition (a) is the uniform-distance-bound
//! special case of the paper's Theorem 3 in which the factor-2 relaxation
//! of the visibility bound is unnecessary; `invert_effects` returns an
//! error rather than silently changing semantics when the conditions fail.

use crate::analyze::stmts_cost;
use crate::ast::{BinOp, UnOp};
use crate::exec::CompiledClass;
use crate::plan::{
    AgentRef, Axis, Bound, ColSrc, EmitStep, LaneInstr, LaneProgram, PExpr, PStmt, ProbeBounds, QueryPlan, SplatSrc,
};
use brace_common::{BraceError, Result};
use std::collections::{HashMap, HashSet};

/// Apply the always-safe (bit-preserving) passes: the standard pipeline of
/// constant folding, common-subexpression elimination, dead code, predicate
/// pushdown, and lane emission, run to fixpoint.
pub fn optimize(class: CompiledClass) -> CompiledClass {
    Pipeline::standard().run(class).0
}

// ---------------------------------------------------------------------------
// Pass pipeline
// ---------------------------------------------------------------------------

/// One rewrite pass over a compiled class. A pass must return the class
/// *untouched* with a rewrite count of zero when it has nothing to do —
/// the pipeline's fixpoint detection depends on it (and `with_query` drops
/// derived artifacts, so a gratuitous rebuild would force the derivation
/// passes to re-fire every round).
pub trait Pass {
    fn name(&self) -> &'static str;
    fn run(&self, class: CompiledClass) -> (CompiledClass, usize);
}

/// Per-pass rewrite total accumulated across all rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassReport {
    pub name: &'static str,
    pub rewrites: usize,
}

/// What the pipeline did: how many rounds ran and what each pass rewrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineReport {
    pub rounds: usize,
    pub passes: Vec<PassReport>,
}

impl PipelineReport {
    pub fn total_rewrites(&self) -> usize {
        self.passes.iter().map(|p| p.rewrites).sum()
    }
}

/// An ordered list of passes run round-robin until a full round makes no
/// rewrite. Every pass here is semantics-preserving bit-for-bit; effect
/// inversion (which is only ~1e-9-equivalent) is opt-in via
/// [`Pipeline::with_inversion`].
pub struct Pipeline {
    passes: Vec<Box<dyn Pass>>,
}

/// Safety net; real plans reach fixpoint in two or three rounds.
const MAX_ROUNDS: usize = 8;

impl Pipeline {
    /// Folding, CSE, dead code, visibility-predicate pushdown, lane
    /// emission — the always-safe set.
    pub fn standard() -> Pipeline {
        Pipeline {
            passes: vec![Box::new(ConstFold), Box::new(Cse), Box::new(DeadCode), Box::new(Pushdown), Box::new(Emit)],
        }
    }

    /// The standard set with effect inversion (Theorems 2/3) first. Only
    /// numerically equivalent, not bit-identical, to the uninverted class —
    /// A/B comparisons must invert both sides or neither.
    pub fn with_inversion() -> Pipeline {
        let mut p = Pipeline::standard();
        p.passes.insert(0, Box::new(Invert));
        p
    }

    /// Run all passes to fixpoint, returning the rewritten class and a
    /// report of per-pass rewrite counts.
    pub fn run(&self, mut class: CompiledClass) -> (CompiledClass, PipelineReport) {
        let mut report = PipelineReport {
            rounds: 0,
            passes: self.passes.iter().map(|p| PassReport { name: p.name(), rewrites: 0 }).collect(),
        };
        for _ in 0..MAX_ROUNDS {
            report.rounds += 1;
            let mut round_total = 0;
            for (i, pass) in self.passes.iter().enumerate() {
                let (next, n) = pass.run(class);
                class = next;
                report.passes[i].rewrites += n;
                round_total += n;
            }
            if round_total == 0 {
                break;
            }
        }
        (class, report)
    }
}

/// Count expression nodes (rewrite metric for the folding pass).
fn expr_nodes(e: &PExpr) -> usize {
    let mut n = 0;
    e.any(&mut |_| {
        n += 1;
        false
    });
    n
}

fn plan_nodes(stmts: &[PStmt]) -> usize {
    let mut n = 0;
    for s in stmts {
        s.visit(&mut |st| match st {
            PStmt::Let { value, .. } | PStmt::LocalEffect { value, .. } | PStmt::RemoteEffect { value, .. } => {
                n += expr_nodes(value)
            }
            PStmt::If { cond, .. } => n += expr_nodes(cond),
            PStmt::Foreach { .. } => {}
        });
    }
    n
}

struct ConstFold;

impl Pass for ConstFold {
    fn name(&self) -> &'static str {
        "const-fold"
    }

    fn run(&self, class: CompiledClass) -> (CompiledClass, usize) {
        let folded_stmts = fold_stmts(class.query.stmts.clone());
        let folded_updates: Vec<_> = class
            .updates
            .iter()
            .map(|r| crate::plan::UpdateRule { target: r.target, expr: fold_expr(r.expr.clone()) })
            .collect();
        let stmts_changed = folded_stmts != class.query.stmts;
        if !stmts_changed && folded_updates == class.updates {
            return (class, 0);
        }
        let before = plan_nodes(&class.query.stmts) + class.updates.iter().map(|r| expr_nodes(&r.expr)).sum::<usize>();
        let after = plan_nodes(&folded_stmts) + folded_updates.iter().map(|r| expr_nodes(&r.expr)).sum::<usize>();
        let mut out = if stmts_changed {
            class.with_query(QueryPlan {
                stmts: folded_stmts,
                n_locals: class.query.n_locals,
                raw_slots: class.query.raw_slots.clone(),
            })
        } else {
            class
        };
        out.updates = folded_updates;
        (out, before.saturating_sub(after).max(1))
    }
}

struct DeadCode;

impl Pass for DeadCode {
    fn name(&self) -> &'static str {
        "dead-code"
    }

    fn run(&self, class: CompiledClass) -> (CompiledClass, usize) {
        let mut stmts = class.query.stmts.clone();
        let before = size(&stmts);
        // Iterate to fixpoint: removing an If can orphan a Let, etc.
        loop {
            let used = used_slots(&stmts);
            let n = size(&stmts);
            stmts = sweep(stmts, &used);
            if size(&stmts) == n {
                break;
            }
        }
        let after = size(&stmts);
        if after == before {
            return (class, 0);
        }
        let plan = QueryPlan { stmts, n_locals: class.query.n_locals, raw_slots: class.query.raw_slots.clone() };
        (class.with_query(plan), before - after)
    }
}

struct Invert;

impl Pass for Invert {
    fn name(&self) -> &'static str {
        "invert"
    }

    fn run(&self, class: CompiledClass) -> (CompiledClass, usize) {
        if !class.query.has_remote_effects() {
            return (class, 0);
        }
        // Inversion refusals (rand in loop, remote outside loop) leave the
        // class alone: the two-pass reduce path still runs it correctly.
        match invert_effects(class.clone()) {
            Ok(inv) => (inv, 1),
            Err(_) => (class, 0),
        }
    }
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

/// Fold constant subtrees of an expression.
pub fn constant_fold(e: PExpr) -> PExpr {
    fold_expr(e)
}

fn fold_expr(e: PExpr) -> PExpr {
    e.map(&mut |node| match node {
        PExpr::Unary(op, inner) => match (*inner).clone() {
            PExpr::Const(v) => PExpr::Const(match op {
                UnOp::Neg => -v,
                UnOp::Not => ((v == 0.0) as i32) as f64,
            }),
            _ => PExpr::Unary(op, inner),
        },
        PExpr::Binary(op, a, b) => match ((*a).clone(), (*b).clone()) {
            (PExpr::Const(l), PExpr::Const(r)) => PExpr::Const(match op {
                BinOp::Add => l + r,
                BinOp::Sub => l - r,
                BinOp::Mul => l * r,
                BinOp::Div => l / r,
                BinOp::Rem => l % r,
                BinOp::Lt => ((l < r) as i32) as f64,
                BinOp::Le => ((l <= r) as i32) as f64,
                BinOp::Gt => ((l > r) as i32) as f64,
                BinOp::Ge => ((l >= r) as i32) as f64,
                BinOp::Eq => ((l == r) as i32) as f64,
                BinOp::Ne => ((l != r) as i32) as f64,
                BinOp::And => ((l != 0.0 && r != 0.0) as i32) as f64,
                BinOp::Or => ((l != 0.0 || r != 0.0) as i32) as f64,
            }),
            // x + 0, x - 0, x * 1, x / 1 identities.
            (lhs, PExpr::Const(r)) if r == 0.0 && matches!(op, BinOp::Add | BinOp::Sub) => lhs,
            (lhs, PExpr::Const(r)) if r == 1.0 && matches!(op, BinOp::Mul | BinOp::Div) => lhs,
            (PExpr::Const(l), rhs) if l == 0.0 && op == BinOp::Add => rhs,
            (PExpr::Const(l), rhs) if l == 1.0 && op == BinOp::Mul => rhs,
            _ => PExpr::Binary(op, a, b),
        },
        PExpr::Call(b, args) => {
            if args.iter().all(|a| matches!(a, PExpr::Const(_))) {
                let vals: Vec<f64> = args
                    .iter()
                    .map(|a| match a {
                        PExpr::Const(v) => *v,
                        _ => unreachable!(),
                    })
                    .collect();
                PExpr::Const(b.apply(&vals))
            } else {
                PExpr::Call(b, args)
            }
        }
        other => other,
    })
}

fn fold_stmts(stmts: Vec<PStmt>) -> Vec<PStmt> {
    stmts
        .into_iter()
        .map(|s| match s {
            PStmt::Let { slot, value } => PStmt::Let { slot, value: fold_expr(value) },
            PStmt::LocalEffect { field, value } => PStmt::LocalEffect { field, value: fold_expr(value) },
            PStmt::RemoteEffect { field, value } => PStmt::RemoteEffect { field, value: fold_expr(value) },
            PStmt::If { cond, then_, else_ } => {
                PStmt::If { cond: fold_expr(cond), then_: fold_stmts(then_), else_: fold_stmts(else_) }
            }
            PStmt::Foreach { body } => PStmt::Foreach { body: fold_stmts(body) },
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Dead code elimination
// ---------------------------------------------------------------------------

/// Remove unread `Let`s, constant `If`s and empty control structures.
pub fn dead_code(class: CompiledClass) -> CompiledClass {
    DeadCode.run(class).0
}

fn size(stmts: &[PStmt]) -> usize {
    let mut n = 0;
    for s in stmts {
        s.visit(&mut |_| n += 1);
    }
    n
}

fn used_slots(stmts: &[PStmt]) -> Vec<bool> {
    let mut used = vec![false; u16::MAX as usize + 1];
    let mut mark = |e: &PExpr| {
        let mut any = |n: &PExpr| {
            if let PExpr::Local(i) = n {
                used[*i as usize] = true;
            }
            false
        };
        e.any(&mut any);
    };
    for s in stmts {
        s.visit(&mut |st| match st {
            PStmt::Let { value, .. } => mark(value),
            PStmt::LocalEffect { value, .. } | PStmt::RemoteEffect { value, .. } => mark(value),
            PStmt::If { cond, .. } => mark(cond),
            PStmt::Foreach { .. } => {}
        });
    }
    used
}

fn sweep(stmts: Vec<PStmt>, used: &[bool]) -> Vec<PStmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            PStmt::Let { slot, value } => {
                // Keep the binding only if read somewhere. (Expressions are
                // pure — no effects are lost by dropping the computation.)
                if used[slot as usize] {
                    out.push(PStmt::Let { slot, value });
                }
            }
            PStmt::If { cond, then_, else_ } => {
                let then_ = sweep(then_, used);
                let else_ = sweep(else_, used);
                match cond {
                    PExpr::Const(v) if v != 0.0 => out.extend(then_),
                    PExpr::Const(_) => out.extend(else_),
                    cond => {
                        if !(then_.is_empty() && else_.is_empty()) {
                            out.push(PStmt::If { cond, then_, else_ });
                        }
                    }
                }
            }
            PStmt::Foreach { body } => {
                let body = sweep(body, used);
                if !body.is_empty() {
                    out.push(PStmt::Foreach { body });
                }
            }
            other => out.push(other),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Effect inversion (Theorems 2 and 3)
// ---------------------------------------------------------------------------

/// Swap the roles of `this` and the loop variable in an expression.
fn swap_roles(e: PExpr) -> PExpr {
    e.map(&mut |node| match node {
        PExpr::SelfPos(a) => PExpr::OtherPos(a),
        PExpr::OtherPos(a) => PExpr::SelfPos(a),
        PExpr::SelfState(i) => PExpr::OtherState(i),
        PExpr::OtherState(i) => PExpr::SelfState(i),
        PExpr::AgentEq { left, right, negate } => PExpr::AgentEq { left: flip(left), right: flip(right), negate },
        other => other,
    })
}

fn flip(r: AgentRef) -> AgentRef {
    match r {
        AgentRef::This => AgentRef::Other,
        AgentRef::Other => AgentRef::This,
    }
}

/// Offset every local slot in a statement tree (for the duplicated inverted
/// copy, whose bindings must not collide with the original's).
fn offset_slots(stmts: Vec<PStmt>, delta: u16) -> Vec<PStmt> {
    let bump = |e: PExpr| {
        e.map(&mut |n| match n {
            PExpr::Local(i) => PExpr::Local(i + delta),
            other => other,
        })
    };
    stmts
        .into_iter()
        .map(|s| match s {
            PStmt::Let { slot, value } => PStmt::Let { slot: slot + delta, value: bump(value) },
            PStmt::LocalEffect { field, value } => PStmt::LocalEffect { field, value: bump(value) },
            PStmt::RemoteEffect { field, value } => PStmt::RemoteEffect { field, value: bump(value) },
            PStmt::If { cond, then_, else_ } => {
                PStmt::If { cond: bump(cond), then_: offset_slots(then_, delta), else_: offset_slots(else_, delta) }
            }
            PStmt::Foreach { body } => PStmt::Foreach { body: offset_slots(body, delta) },
        })
        .collect()
}

/// Drop every `RemoteEffect` from a tree (keeping structure).
fn strip_remote(stmts: Vec<PStmt>) -> Vec<PStmt> {
    stmts
        .into_iter()
        .filter_map(|s| match s {
            PStmt::RemoteEffect { .. } => None,
            PStmt::If { cond, then_, else_ } => {
                Some(PStmt::If { cond, then_: strip_remote(then_), else_: strip_remote(else_) })
            }
            PStmt::Foreach { body } => Some(PStmt::Foreach { body: strip_remote(body) }),
            other => Some(other),
        })
        .collect()
}

/// Drop every `LocalEffect` from a tree, then swap agent roles everywhere —
/// producing the fragment "what each neighbor would have assigned to me,
/// computed by me".
fn remote_as_local(stmts: Vec<PStmt>) -> Vec<PStmt> {
    stmts
        .into_iter()
        .filter_map(|s| match s {
            PStmt::LocalEffect { .. } => None,
            PStmt::RemoteEffect { field, value } => Some(PStmt::LocalEffect { field, value: swap_roles(value) }),
            PStmt::Let { slot, value } => Some(PStmt::Let { slot, value: swap_roles(value) }),
            PStmt::If { cond, then_, else_ } => {
                Some(PStmt::If { cond: swap_roles(cond), then_: remote_as_local(then_), else_: remote_as_local(else_) })
            }
            PStmt::Foreach { body } => Some(PStmt::Foreach { body: remote_as_local(body) }),
        })
        .collect()
}

fn contains_rand(stmts: &[PStmt]) -> bool {
    let mut found = false;
    for s in stmts {
        s.visit(&mut |st| {
            let mut check = |e: &PExpr| {
                if e.any(&mut |n| matches!(n, PExpr::Rand)) {
                    found = true;
                }
            };
            match st {
                PStmt::Let { value, .. } | PStmt::LocalEffect { value, .. } | PStmt::RemoteEffect { value, .. } => {
                    check(value)
                }
                PStmt::If { cond, .. } => check(cond),
                PStmt::Foreach { .. } => {}
            }
        });
    }
    found
}

/// Rewrite the class so all effect assignments are local. See the module
/// docs for the correctness conditions. Idempotent on local-only classes.
pub fn invert_effects(class: CompiledClass) -> Result<CompiledClass> {
    if !class.query.has_remote_effects() {
        return Ok(class);
    }
    let n_locals = class.query.n_locals;
    let mut out: Vec<PStmt> = Vec::new();
    for stmt in class.query.stmts.clone() {
        match stmt {
            PStmt::Foreach { body } => {
                if contains_rand(&body) {
                    return Err(BraceError::Rewrite(
                        "effect inversion would move a rand() draw between agent streams; \
                         refusing to change the random realization"
                            .into(),
                    ));
                }
                // Original loop minus its non-local assignments…
                let local_part = strip_remote(body.clone());
                // …plus the inverted fragment with fresh local slots.
                let inverted = offset_slots(remote_as_local(body), n_locals);
                let mut merged = local_part;
                merged.extend(inverted);
                if !merged.is_empty() {
                    out.push(PStmt::Foreach { body: merged });
                }
            }
            other => {
                if matches!(other, PStmt::RemoteEffect { .. }) {
                    return Err(BraceError::Rewrite(
                        "non-local effect assignment outside a foreach loop cannot be inverted".into(),
                    ));
                }
                out.push(other);
            }
        }
    }
    // The duplicated fragment duplicates raw (optimizer-introduced) slots
    // along with everything else.
    let mut raw_slots = class.query.raw_slots.clone();
    raw_slots.extend(class.query.raw_slots.iter().map(|s| s + n_locals));
    let plan = QueryPlan { stmts: out, n_locals: n_locals * 2, raw_slots };
    debug_assert!(!plan.has_remote_effects());
    Ok(class.with_query(plan))
}

// ---------------------------------------------------------------------------
// Common-subexpression elimination
// ---------------------------------------------------------------------------

/// Hoist repeated non-trivial pure subexpressions into fresh *raw* local
/// slots (`Let` bindings that skip the NaN→NIL coercion, making the hoist
/// exactly equivalent to inlining). Scopes are handled innermost-first:
/// duplicates confined to an `If` branch or loop body are hoisted inside
/// it; the outer scan then only sees cross-scope repeats. Candidates must
/// be position-insensitive within one loop iteration — no `rand()` (draw
/// count), no effect reads (the shadow mutates mid-iteration), no source
/// locals (a hoist above the defining `Let` would read a stale slot).
struct Cse;

struct CseCtx {
    next_slot: u16,
    raw: Vec<u16>,
    hoists: usize,
}

impl Pass for Cse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&self, class: CompiledClass) -> (CompiledClass, usize) {
        let mut stmts = class.query.stmts.clone();
        let mut ctx = CseCtx { next_slot: class.query.n_locals, raw: class.query.raw_slots.clone(), hoists: 0 };
        cse_level(&mut stmts, &mut ctx);
        if ctx.hoists == 0 {
            return (class, 0);
        }
        let hoists = ctx.hoists;
        let plan = QueryPlan { stmts, n_locals: ctx.next_slot, raw_slots: ctx.raw };
        (class.with_query(plan), hoists)
    }
}

fn cse_level(stmts: &mut Vec<PStmt>, ctx: &mut CseCtx) {
    for s in stmts.iter_mut() {
        match s {
            PStmt::If { then_, else_, .. } => {
                cse_level(then_, ctx);
                cse_level(else_, ctx);
            }
            PStmt::Foreach { body } => cse_level(body, ctx),
            _ => {}
        }
    }
    while ctx.next_slot < u16::MAX {
        let Some(target) = best_candidate(stmts) else { break };
        // Insertion point: directly before the first statement at this
        // level that mentions the expression (evaluation is pure, so
        // hoisting above an `If` that guards some occurrences is
        // unobservable).
        let Some(at) = stmts.iter().position(|s| stmt_contains(s, &target)) else { break };
        let slot = ctx.next_slot;
        ctx.next_slot += 1;
        ctx.raw.push(slot);
        ctx.hoists += 1;
        for s in stmts.iter_mut() {
            replace_in_stmt(s, &target, slot);
        }
        stmts.insert(at, PStmt::Let { slot, value: target });
    }
}

/// Root expressions at one scope level: statement expressions here and
/// inside `If` branches, never crossing into a `Foreach` body (its own
/// level, and `Other*` reads are meaningless outside it).
fn level_exprs<'a>(stmts: &'a [PStmt], out: &mut Vec<&'a PExpr>) {
    for s in stmts {
        match s {
            PStmt::Let { value, .. } | PStmt::LocalEffect { value, .. } | PStmt::RemoteEffect { value, .. } => {
                out.push(value)
            }
            PStmt::If { cond, then_, else_ } => {
                out.push(cond);
                level_exprs(then_, out);
                level_exprs(else_, out);
            }
            PStmt::Foreach { .. } => {}
        }
    }
}

fn subtrees<'a>(e: &'a PExpr, out: &mut Vec<&'a PExpr>) {
    out.push(e);
    match e {
        PExpr::Unary(_, a) => subtrees(a, out),
        PExpr::Binary(_, a, b) => {
            subtrees(a, out);
            subtrees(b, out);
        }
        PExpr::Call(_, args) => {
            for a in args {
                subtrees(a, out);
            }
        }
        _ => {}
    }
}

fn op_count(e: &PExpr) -> usize {
    let mut n = 0;
    e.any(&mut |x| {
        if matches!(x, PExpr::Unary(..) | PExpr::Binary(..) | PExpr::Call(..)) {
            n += 1;
        }
        false
    });
    n
}

fn hoistable(e: &PExpr) -> bool {
    !e.any(&mut |x| matches!(x, PExpr::Rand | PExpr::SelfEffect(_) | PExpr::Local(_)))
}

/// The most profitable repeated subexpression at this level: highest op
/// count among those occurring at least twice, earliest first occurrence
/// on ties (deterministic output).
fn best_candidate(stmts: &[PStmt]) -> Option<PExpr> {
    let mut roots: Vec<&PExpr> = Vec::new();
    level_exprs(stmts, &mut roots);
    let mut cands: Vec<(&PExpr, usize)> = Vec::new();
    for root in &roots {
        let mut subs = Vec::new();
        subtrees(root, &mut subs);
        for e in subs {
            if op_count(e) < 2 || !hoistable(e) {
                continue;
            }
            match cands.iter_mut().find(|(c, _)| *c == e) {
                Some((_, n)) => *n += 1,
                None => cands.push((e, 1)),
            }
        }
    }
    let mut best: Option<(&PExpr, usize)> = None;
    for (e, n) in &cands {
        if *n < 2 {
            continue;
        }
        let ops = op_count(e);
        if best.is_none_or(|(_, b)| ops > b) {
            best = Some((e, ops));
        }
    }
    best.map(|(e, _)| e.clone())
}

fn expr_contains(e: &PExpr, target: &PExpr) -> bool {
    e.any(&mut |n| n == target)
}

fn stmt_contains(s: &PStmt, target: &PExpr) -> bool {
    match s {
        PStmt::Let { value, .. } | PStmt::LocalEffect { value, .. } | PStmt::RemoteEffect { value, .. } => {
            expr_contains(value, target)
        }
        PStmt::If { cond, then_, else_ } => {
            expr_contains(cond, target)
                || then_.iter().any(|s| stmt_contains(s, target))
                || else_.iter().any(|s| stmt_contains(s, target))
        }
        PStmt::Foreach { .. } => false,
    }
}

/// Top-down replacement: an occurrence is rewritten whole, so nested
/// duplicates inside it survive for the next round.
fn replace_expr(e: PExpr, target: &PExpr, slot: u16) -> PExpr {
    if e == *target {
        return PExpr::Local(slot);
    }
    match e {
        PExpr::Unary(op, a) => PExpr::Unary(op, Box::new(replace_expr(*a, target, slot))),
        PExpr::Binary(op, a, b) => {
            PExpr::Binary(op, Box::new(replace_expr(*a, target, slot)), Box::new(replace_expr(*b, target, slot)))
        }
        PExpr::Call(b, args) => PExpr::Call(b, args.into_iter().map(|a| replace_expr(a, target, slot)).collect()),
        other => other,
    }
}

fn replace_in_stmt(s: &mut PStmt, target: &PExpr, slot: u16) {
    match s {
        PStmt::Let { value, .. } | PStmt::LocalEffect { value, .. } | PStmt::RemoteEffect { value, .. } => {
            *value = replace_expr(std::mem::replace(value, PExpr::Rand), target, slot);
        }
        PStmt::If { cond, then_, else_ } => {
            *cond = replace_expr(std::mem::replace(cond, PExpr::Rand), target, slot);
            for t in then_.iter_mut().chain(else_.iter_mut()) {
                replace_in_stmt(t, target, slot);
            }
        }
        PStmt::Foreach { .. } => {}
    }
}

// ---------------------------------------------------------------------------
// Visibility-predicate pushdown
// ---------------------------------------------------------------------------

/// Derive [`ProbeBounds`] from a loop whose entire body is guarded by a
/// single `if` with no else branch, and record them on the class so the
/// executor probes a smaller rect. Sound because comparison and `&&` nodes
/// always evaluate to 0/1 (never NIL/NaN): if the root conjunction is
/// non-zero, every comparison reachable through `&&` spines alone evaluated
/// to 1 — so a candidate violating any harvested bound makes the guard
/// false (or NIL, which also skips the `if`) and contributed nothing.
struct Pushdown;

impl Pass for Pushdown {
    fn name(&self) -> &'static str {
        "pushdown"
    }

    fn run(&self, mut class: CompiledClass) -> (CompiledClass, usize) {
        let derived = derive_probe_bounds(&class.query);
        if class.probe_bounds == derived {
            return (class, 0);
        }
        class.probe_bounds = derived;
        (class, 1)
    }
}

/// See `Pushdown`. Public for the `brace compile` inspector.
pub fn derive_probe_bounds(plan: &QueryPlan) -> Option<ProbeBounds> {
    let body = sole_loop_body(plan)?;
    if contains_rand(body) {
        return None;
    }
    // Shape: any number of `Let`s, then exactly one guard `if` with an
    // empty else, then nothing. Effects outside the guard would make
    // excluded candidates observable.
    let mut guard: Option<&PExpr> = None;
    for s in body {
        if guard.is_some() {
            return None;
        }
        match s {
            PStmt::Let { .. } => {}
            PStmt::If { cond, else_, .. } if else_.is_empty() => guard = Some(cond),
            _ => return None,
        }
    }
    let mut b = ProbeBounds::default();
    collect_bounds(guard?, &mut b);
    if b.is_empty() {
        None
    } else {
        Some(b)
    }
}

/// The body of the plan's single `Foreach`, if it has exactly one and it
/// sits at the top level.
fn sole_loop_body(plan: &QueryPlan) -> Option<&Vec<PStmt>> {
    let mut loops = 0;
    for s in &plan.stmts {
        s.visit(&mut |st| {
            if matches!(st, PStmt::Foreach { .. }) {
                loops += 1;
            }
        });
    }
    if loops != 1 {
        return None;
    }
    plan.stmts.iter().find_map(|s| match s {
        PStmt::Foreach { body } => Some(body),
        _ => None,
    })
}

fn collect_bounds(e: &PExpr, b: &mut ProbeBounds) {
    match e {
        PExpr::Binary(BinOp::And, l, r) => {
            collect_bounds(l, b);
            collect_bounds(r, b);
        }
        PExpr::Binary(op @ (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge), l, r) => {
            if let PExpr::OtherPos(axis) = **l {
                // p.axis OP bound: Gt/Ge is a lower bound, Lt/Le an upper.
                if let Some(bound) = self_side(r, axis) {
                    push_bound(b, axis, matches!(op, BinOp::Gt | BinOp::Ge), bound);
                }
            } else if let PExpr::OtherPos(axis) = **r {
                // bound OP p.axis: mirrored.
                if let Some(bound) = self_side(l, axis) {
                    push_bound(b, axis, matches!(op, BinOp::Lt | BinOp::Le), bound);
                }
            }
        }
        _ => {}
    }
}

fn push_bound(b: &mut ProbeBounds, axis: Axis, lo: bool, bound: Bound) {
    match (axis, lo) {
        (Axis::X, true) => b.x_lo.push(bound),
        (Axis::X, false) => b.x_hi.push(bound),
        (Axis::Y, true) => b.y_lo.push(bound),
        (Axis::Y, false) => b.y_hi.push(bound),
    }
}

/// A guard operand expressible as a probe-time bound: a constant, the
/// querying agent's own coordinate on the same axis, or that coordinate
/// plus/minus a constant. (Strict vs non-strict comparison is deliberately
/// ignored — the rect keeps boundary candidates and the guard re-filters.)
fn self_side(e: &PExpr, axis: Axis) -> Option<Bound> {
    match e {
        PExpr::Const(c) => Some(Bound::Abs(*c)),
        PExpr::SelfPos(a) if *a == axis => Some(Bound::Rel(0.0)),
        PExpr::Binary(BinOp::Add, a, b) => match (&**a, &**b) {
            (PExpr::SelfPos(ax), PExpr::Const(c)) if *ax == axis => Some(Bound::Rel(*c)),
            (PExpr::Const(c), PExpr::SelfPos(ax)) if *ax == axis => Some(Bound::Rel(*c)),
            _ => None,
        },
        PExpr::Binary(BinOp::Sub, a, b) => match (&**a, &**b) {
            (PExpr::SelfPos(ax), PExpr::Const(c)) if *ax == axis => Some(Bound::Rel(-*c)),
            _ => None,
        },
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Lane emission
// ---------------------------------------------------------------------------

/// Compile a query-phase-pure loop body into a [`LaneProgram`] — a
/// register machine over per-candidate columns — and record it on the
/// class for `Behavior::query_batch`. Bodies with `rand()` (per-candidate
/// draw order), remote effects, or source-level (NaN→NIL-coercing) `const`
/// bindings stay on the interpreter.
struct Emit;

impl Pass for Emit {
    fn name(&self) -> &'static str {
        "lane-emit"
    }

    fn run(&self, mut class: CompiledClass) -> (CompiledClass, usize) {
        let derived = build_lane(&class.query);
        if class.lane == derived {
            return (class, 0);
        }
        class.lane = derived;
        (class, 1)
    }
}

/// See `Emit`. Public for the `brace compile` inspector.
pub fn build_lane(plan: &QueryPlan) -> Option<LaneProgram> {
    let body = sole_loop_body(plan)?;
    let mut b = LaneBuilder {
        instrs: Vec::new(),
        gather: Vec::new(),
        prelude: Vec::new(),
        body_regs: HashMap::new(),
        raw: plan.raw_slots.iter().copied().collect(),
    };
    let emit = b.compile_body(body)?;
    if emit.is_empty() {
        return None;
    }
    Some(LaneProgram {
        gather_slots: b.gather,
        prelude_slots: b.prelude,
        instrs: b.instrs,
        emit,
        cost: stmts_cost(body),
    })
}

struct LaneBuilder {
    instrs: Vec<LaneInstr>,
    gather: Vec<u16>,
    prelude: Vec<u16>,
    /// Raw body `Let` slot → register holding its column.
    body_regs: HashMap<u16, u16>,
    raw: HashSet<u16>,
}

impl LaneBuilder {
    /// Append an instruction, value-numbering duplicates away: register i
    /// is written by instruction i from strictly earlier registers (SSA).
    fn push(&mut self, i: LaneInstr) -> Option<u16> {
        if let Some(at) = self.instrs.iter().position(|x| *x == i) {
            return Some(at as u16);
        }
        if self.instrs.len() >= u16::MAX as usize {
            return None;
        }
        self.instrs.push(i);
        Some((self.instrs.len() - 1) as u16)
    }

    fn intern(list: &mut Vec<u16>, v: u16) -> u16 {
        match list.iter().position(|&x| x == v) {
            Some(i) => i as u16,
            None => {
                list.push(v);
                (list.len() - 1) as u16
            }
        }
    }

    fn compile_expr(&mut self, e: &PExpr) -> Option<u16> {
        match e {
            PExpr::Const(v) => self.push(LaneInstr::Splat(SplatSrc::Const(*v))),
            PExpr::SelfPos(Axis::X) => self.push(LaneInstr::Splat(SplatSrc::SelfX)),
            PExpr::SelfPos(Axis::Y) => self.push(LaneInstr::Splat(SplatSrc::SelfY)),
            PExpr::SelfState(i) => self.push(LaneInstr::Splat(SplatSrc::SelfState(*i))),
            PExpr::OtherPos(Axis::X) => self.push(LaneInstr::Column(ColSrc::OtherX)),
            PExpr::OtherPos(Axis::Y) => self.push(LaneInstr::Column(ColSrc::OtherY)),
            PExpr::OtherState(i) => {
                let k = Self::intern(&mut self.gather, *i);
                self.push(LaneInstr::Column(ColSrc::OtherState(k)))
            }
            PExpr::Local(s) => match self.body_regs.get(s) {
                Some(&r) => Some(r),
                None => {
                    // Defined before the loop: splat the resolved value.
                    let k = Self::intern(&mut self.prelude, *s);
                    self.push(LaneInstr::Splat(SplatSrc::Prelude(k)))
                }
            },
            // Per-candidate draw order, effect-shadow reads mid-loop, and
            // identity tests have no column representation.
            PExpr::SelfEffect(_) | PExpr::AgentEq { .. } | PExpr::Rand => None,
            PExpr::Unary(op, a) => {
                let a = self.compile_expr(a)?;
                self.push(LaneInstr::Unary(*op, a))
            }
            PExpr::Binary(op, a, b) => {
                let a = self.compile_expr(a)?;
                let b = self.compile_expr(b)?;
                self.push(LaneInstr::Binary(*op, a, b))
            }
            PExpr::Call(b, args) => {
                let regs: Option<Vec<u16>> = args.iter().map(|a| self.compile_expr(a)).collect();
                self.push(LaneInstr::Call(*b, regs?))
            }
        }
    }

    fn compile_body(&mut self, stmts: &[PStmt]) -> Option<Vec<EmitStep>> {
        let mut out = Vec::new();
        for s in stmts {
            match s {
                PStmt::Let { slot, value } => {
                    // Only raw (optimizer-introduced) bindings: a source
                    // `const` coerces NaN to NIL, which columns can't
                    // represent.
                    if !self.raw.contains(slot) {
                        return None;
                    }
                    let r = self.compile_expr(value)?;
                    self.body_regs.insert(*slot, r);
                }
                PStmt::LocalEffect { field, value } => {
                    let r = self.compile_expr(value)?;
                    out.push(EmitStep::Effect { field: *field, value: r });
                }
                PStmt::If { cond, then_, else_ } => {
                    let c = self.compile_expr(cond)?;
                    let t = self.compile_body(then_)?;
                    let e = self.compile_body(else_)?;
                    out.push(EmitStep::If { cond: c, then_: t, else_: e });
                }
                PStmt::RemoteEffect { .. } | PStmt::Foreach { .. } => return None,
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::exec::{compile, BrasilBehavior};
    use crate::parser::parse;
    use brace_common::{AgentId, DetRng, Vec2};
    use brace_core::{Agent, Behavior, Simulation};

    fn compile_src(src: &str) -> CompiledClass {
        let prog = parse(src).unwrap();
        compile(&analyze(&prog.classes[0]).unwrap()).unwrap()
    }

    #[test]
    fn folding_collapses_constants() {
        let e = PExpr::Binary(
            BinOp::Add,
            Box::new(PExpr::Const(1.0)),
            Box::new(PExpr::Binary(BinOp::Mul, Box::new(PExpr::Const(2.0)), Box::new(PExpr::Const(3.0)))),
        );
        assert_eq!(constant_fold(e), PExpr::Const(7.0));
    }

    #[test]
    fn folding_applies_identities() {
        let x = PExpr::SelfState(0);
        let e = PExpr::Binary(BinOp::Add, Box::new(x.clone()), Box::new(PExpr::Const(0.0)));
        assert_eq!(constant_fold(e), x.clone());
        let e = PExpr::Binary(BinOp::Mul, Box::new(PExpr::Const(1.0)), Box::new(x.clone()));
        assert_eq!(constant_fold(e), x);
    }

    #[test]
    fn folding_stops_at_rand() {
        let e = PExpr::Binary(BinOp::Add, Box::new(PExpr::Rand), Box::new(PExpr::Const(0.0)));
        // x + 0 identity applies, but Rand itself cannot become Const.
        assert_eq!(constant_fold(e), PExpr::Rand);
    }

    #[test]
    fn dead_let_removed() {
        let class = compile_src(
            r#"
            class A {
                public state float x : x #range[-1, 1];
                private effect float e : sum;
                public void run() {
                    const float unused = 42;
                    const float used = 2;
                    foreach (A p : Extent<A>) { e <- used; }
                }
            }
        "#,
        );
        let optimized = optimize(class);
        let lets = optimized.query.count(&mut |s| matches!(s, PStmt::Let { .. }));
        assert_eq!(lets, 1, "only the used let survives");
    }

    #[test]
    fn constant_if_pruned() {
        let class = compile_src(
            r#"
            class A {
                public state float x : x #range[-1, 1];
                private effect float e : sum;
                public void run() {
                    foreach (A p : Extent<A>) {
                        if (1 > 2) { e <- 1; } else { e <- 5; }
                    }
                }
            }
        "#,
        );
        let optimized = optimize(class);
        assert_eq!(optimized.query.count(&mut |s| matches!(s, PStmt::If { .. })), 0);
        // The else branch's assignment survives inline.
        assert_eq!(optimized.query.count(&mut |s| matches!(s, PStmt::LocalEffect { .. })), 1);
    }

    #[test]
    fn empty_foreach_removed() {
        let class = compile_src(
            r#"
            class A {
                public state float x : x #range[-1, 1];
                private effect float e : sum;
                public void run() {
                    const float dead = 3;
                    foreach (A p : Extent<A>) {
                        if (false) { e <- dead; }
                    }
                }
            }
        "#,
        );
        let optimized = optimize(class);
        assert!(optimized.query.stmts.is_empty(), "{:?}", optimized.query.stmts);
    }

    const PAPER_FISH: &str = r#"
        class Fish {
            public state float x : x #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float ax : avoidx;
            public state float ay : avoidy;
            public state float c : count;
            private effect float avoidx : sum;
            private effect float avoidy : sum;
            private effect float count : sum;
            public void run() {
                foreach (Fish p : Extent<Fish>) {
                    p.avoidx <- 1 / abs(x - p.x);
                    p.avoidy <- 1 / abs(y - p.y);
                    p.count <- 1;
                }
            }
        }
    "#;

    #[test]
    fn inversion_produces_the_papers_rewrite() {
        let class = compile_src(PAPER_FISH);
        assert!(class.schema().has_nonlocal_effects());
        let inverted = invert_effects(class).unwrap();
        assert!(!inverted.schema().has_nonlocal_effects());
        assert!(!inverted.query.has_remote_effects());
        // The paper's rewritten loop assigns 1/abs(p.x - x) locally: the
        // expression must read OtherPos - SelfPos now.
        let locals = inverted.query.count(&mut |s| matches!(s, PStmt::LocalEffect { .. }));
        assert_eq!(locals, 3);
    }

    #[test]
    fn inversion_preserves_semantics() {
        // Run the same population through original and inverted scripts;
        // aggregated effects (and hence next-tick states) must agree.
        let run = |class: CompiledClass| {
            let behavior = BrasilBehavior::new(class);
            let schema = behavior.schema().clone();
            let mut rng = DetRng::seed_from_u64(8);
            let agents: Vec<Agent> = (0..40)
                .map(|i| Agent::new(AgentId::new(i), Vec2::new(rng.range(0.0, 6.0), rng.range(0.0, 6.0)), &schema))
                .collect();
            let mut sim = Simulation::builder(behavior).agents(agents).seed(5).build().unwrap();
            sim.step();
            sim.agents().iter().map(|a| (a.id, a.state.clone())).collect::<Vec<_>>()
        };
        let original = run(compile_src(PAPER_FISH));
        let inverted = run(invert_effects(compile_src(PAPER_FISH)).unwrap());
        assert_eq!(original.len(), inverted.len());
        for ((id_a, s_a), (id_b, s_b)) in original.iter().zip(&inverted) {
            assert_eq!(id_a, id_b);
            for (va, vb) in s_a.iter().zip(s_b) {
                let scale = va.abs().max(vb.abs()).max(1.0);
                assert!((va - vb).abs() <= 1e-9 * scale, "agent {id_a}: {va} vs {vb}");
            }
        }
    }

    #[test]
    fn inversion_handles_conditionals() {
        let src = r#"
            class Biter {
                public state float x : x #range[-2, 2];
                public state float y : y #range[-2, 2];
                public state float size : size;
                public state float pain : hurt;
                private effect float hurt : sum;
                public void run() {
                    foreach (Biter p : Extent<Biter>) {
                        if (size > p.size) { p.hurt <- size - p.size; }
                    }
                }
            }
        "#;
        let run = |class: CompiledClass| {
            let behavior = BrasilBehavior::new(class);
            let schema = behavior.schema().clone();
            let agents: Vec<Agent> = (0..6)
                .map(|i| {
                    let mut a = Agent::new(AgentId::new(i), Vec2::new(i as f64 * 0.8, 0.0), &schema);
                    a.state[0] = i as f64; // size
                    a
                })
                .collect();
            let mut sim = Simulation::builder(behavior).agents(agents).seed(2).build().unwrap();
            sim.step();
            sim.agents().iter().map(|a| a.state[1]).collect::<Vec<_>>()
        };
        let original = run(compile_src(src));
        let inverted = run(invert_effects(compile_src(src)).unwrap());
        assert_eq!(original, inverted);
        // Sanity: bigger fish are never hurt by smaller neighbors only.
        assert_eq!(original[5], 0.0, "largest fish takes no damage");
        assert!(original[0] > 0.0, "smallest fish is bitten");
    }

    #[test]
    fn inversion_refuses_randomized_loops() {
        let src = r#"
            class R {
                public state float x : x #range[-1, 1];
                private effect float e : sum;
                public void run() {
                    foreach (R p : Extent<R>) { p.e <- rand(); }
                }
            }
        "#;
        let err = invert_effects(compile_src(src)).expect_err("must refuse");
        assert!(err.to_string().contains("rand()"));
    }

    #[test]
    fn inversion_is_identity_on_local_scripts() {
        let src = r#"
            class L {
                public state float x : x #range[-1, 1];
                private effect float e : sum;
                public void run() {
                    foreach (L p : Extent<L>) { e <- 1; }
                }
            }
        "#;
        let class = compile_src(src);
        let before = class.query.clone();
        let after = invert_effects(class).unwrap();
        assert_eq!(before, after.query);
    }

    #[test]
    fn inverted_class_runs_single_reduce_pass() {
        // The schema flag drives the runtime's 1-vs-2 reduce decision.
        let class = compile_src(PAPER_FISH);
        assert!(class.schema().has_nonlocal_effects());
        let inv = invert_effects(class).unwrap();
        assert!(!inv.schema().has_nonlocal_effects());
    }

    /// Local-effects-only schooling script with a repeated denominator —
    /// the CSE and lane-emission showcase.
    const SCHOOL: &str = r#"
        class Fish {
            public state float x : x #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float ax : avoidx;
            public state float ay : avoidy;
            private effect float avoidx : sum;
            private effect float avoidy : sum;
            public void run() {
                foreach (Fish p : Extent<Fish>) {
                    avoidx <- (x - p.x) / max((x - p.x) * (x - p.x) + (y - p.y) * (y - p.y), 0.04);
                    avoidy <- (y - p.y) / max((x - p.x) * (x - p.x) + (y - p.y) * (y - p.y), 0.04);
                }
            }
        }
    "#;

    const GUARDED: &str = r#"
        class Car {
            public state float x : x #range[0, 100];
            public state float y : y;
            public state float g : gap;
            private effect float gap : sum;
            public void run() {
                foreach (Car p : Extent<Car>) {
                    if (p.x > x) { gap <- p.x - x; }
                }
            }
        }
    "#;

    fn states_after_steps(class: CompiledClass) -> Vec<(AgentId, Vec<f64>)> {
        let behavior = BrasilBehavior::new(class);
        let schema = behavior.schema().clone();
        let mut rng = DetRng::seed_from_u64(11);
        let agents: Vec<Agent> = (0..50)
            .map(|i| Agent::new(AgentId::new(i), Vec2::new(rng.range(0.0, 4.0), rng.range(0.0, 4.0)), &schema))
            .collect();
        let mut sim = Simulation::builder(behavior).agents(agents).seed(9).build().unwrap();
        for _ in 0..3 {
            sim.step();
        }
        sim.agents().iter().map(|a| (a.id, a.state.clone())).collect()
    }

    #[test]
    fn pipeline_reports_and_reaches_fixpoint() {
        let (out, report) = Pipeline::with_inversion().run(compile_src(PAPER_FISH));
        assert!(report.rounds <= MAX_ROUNDS);
        let invert = report.passes.iter().find(|p| p.name == "invert").unwrap();
        assert_eq!(invert.rewrites, 1);
        // Re-running the pipeline is a no-op: fixpoint in one quiet round.
        let (_, again) = Pipeline::with_inversion().run(out);
        assert_eq!(again.rounds, 1);
        assert_eq!(again.total_rewrites(), 0, "{again:?}");
    }

    #[test]
    fn cse_hoists_repeated_denominator() {
        let (out, report) = Pipeline::standard().run(compile_src(SCHOOL));
        let cse = report.passes.iter().find(|p| p.name == "cse").unwrap();
        assert!(cse.rewrites >= 1, "{report:?}");
        assert!(!out.query.raw_slots.is_empty());
        // The hoisted binding lives inside the loop body, before both uses.
        let lets = out.query.count(&mut |s| matches!(s, PStmt::Let { .. }));
        assert!(lets >= 1);
    }

    #[test]
    fn cse_and_lane_output_is_bit_identical() {
        let a = states_after_steps(compile_src(SCHOOL));
        let b = states_after_steps(Pipeline::standard().run(compile_src(SCHOOL)).0);
        assert_eq!(a, b);
    }

    #[test]
    fn pushdown_derives_lower_bound_from_guard() {
        let (out, report) = Pipeline::standard().run(compile_src(GUARDED));
        let pd = report.passes.iter().find(|p| p.name == "pushdown").unwrap();
        assert_eq!(pd.rewrites, 1);
        let b = out.probe_bounds.expect("bounds derived");
        assert_eq!(b.x_lo, vec![Bound::Rel(0.0)]);
        assert!(b.x_hi.is_empty() && b.y_lo.is_empty() && b.y_hi.is_empty());
    }

    #[test]
    fn pushdown_refuses_unguarded_loop() {
        let (out, _) = Pipeline::standard().run(compile_src(SCHOOL));
        assert!(out.probe_bounds.is_none());
    }

    #[test]
    fn pushdown_output_is_bit_identical() {
        let a = states_after_steps(compile_src(GUARDED));
        let b = states_after_steps(Pipeline::standard().run(compile_src(GUARDED)).0);
        assert_eq!(a, b);
    }

    #[test]
    fn emit_builds_lane_for_pure_body() {
        use crate::analyze::BATCH_COST_THRESHOLD;
        let (out, report) = Pipeline::standard().run(compile_src(SCHOOL));
        let emit = report.passes.iter().find(|p| p.name == "lane-emit").unwrap();
        assert_eq!(emit.rewrites, 1);
        let lane = out.lane.expect("lane emitted");
        assert!(!lane.instrs.is_empty());
        assert!(lane.cost >= BATCH_COST_THRESHOLD, "cost {}", lane.cost);
        // CSE ran first, so the shared denominator is computed once: fewer
        // instructions than a naive re-expansion of both effect values.
        assert!(lane.instrs.len() < 2 * plan_nodes(&out.query.stmts));
    }

    #[test]
    fn emit_refuses_randomized_body() {
        let src = r#"
            class R {
                public state float x : x #range[-1, 1];
                private effect float e : sum;
                public void run() {
                    foreach (R p : Extent<R>) { e <- rand(); }
                }
            }
        "#;
        let (out, _) = Pipeline::standard().run(compile_src(src));
        assert!(out.lane.is_none());
    }

    #[test]
    fn emit_refuses_source_level_consts_in_body() {
        // A source `const` coerces NaN to NIL — not representable in lanes.
        let src = r#"
            class C {
                public state float x : x #range[-1, 1];
                private effect float e : sum;
                public void run() {
                    foreach (C p : Extent<C>) {
                        const float d = 1 / (x - p.x);
                        e <- d;
                    }
                }
            }
        "#;
        let (out, _) = Pipeline::standard().run(compile_src(src));
        assert!(out.lane.is_none());
    }
}

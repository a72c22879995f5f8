//! Compilation to the dataflow plan and the interpreting backend.
//!
//! [`compile`] lowers an [`AnalyzedClass`] to a [`CompiledClass`] (schema +
//! query plan + update rules); [`BrasilBehavior`] interprets it as a
//! [`brace_core::Behavior`], so compiled scripts run unchanged on the
//! single-node executor and on every worker of the distributed runtime —
//! which is the whole point of the language ("hides all the complexities of
//! modeling computations in MapReduce and parallel programming").
//!
//! ## NIL semantics
//!
//! BRASIL specifies weak-reference semantics: a value derived from an agent
//! that is not visible resolves to NIL, NIL propagates through expressions,
//! and aggregates ignore NIL (Appendix B). Evaluation therefore returns
//! `Option<f64>`; an effect assignment whose value is NIL is skipped. In
//! the executable subset, loop variables are always visible (the runtime
//! materializes exactly the visible region — the two sides of the paper's
//! Theorem 1), so NIL is only reachable through undefined arithmetic,
//! which maps NaN → NIL at assignment boundaries.

use crate::analyze::AnalyzedClass;
use crate::ast::{self, BinOp, Expr, Stmt, UnOp};
use crate::plan::{
    AgentRef, Axis, Builtin, ColSrc, EmitStep, LaneInstr, LaneProgram, PExpr, PStmt, ProbeBounds, QueryPlan, SplatSrc,
    UpdateRule, UpdateTarget,
};
use brace_common::{BraceError, DetRng, FieldId, Rect, Result, Vec2};
use brace_core::behavior::batch_engaged;
use brace_core::behavior::{Behavior, GatheredBatch, NeighborBatch, Neighbors, UpdateCtx};
use brace_core::effect::EffectWriter;
use brace_core::kernels::with_lane_scratch;
use brace_core::{Agent, AgentRead, AgentRef as RowRef, AgentSchema};
use std::collections::HashMap;

/// A fully compiled agent class.
#[derive(Debug, Clone)]
pub struct CompiledClass {
    schema: AgentSchema,
    pub query: QueryPlan,
    pub updates: Vec<UpdateRule>,
    /// Probe-rect bounds proven by the optimizer's pushdown pass; `None`
    /// until (and unless) the pass derives any.
    pub probe_bounds: Option<ProbeBounds>,
    /// Lane program emitted by the optimizer for a query-phase-pure loop
    /// body; `None` until the emission pass runs (the unoptimized baseline
    /// always interprets).
    pub lane: Option<LaneProgram>,
}

impl CompiledClass {
    pub fn schema(&self) -> &AgentSchema {
        &self.schema
    }

    /// Rebuild with a different query plan (used by the optimizer). The
    /// schema's non-local flag is re-derived from the plan; derived
    /// artifacts (probe bounds, lane program) are dropped — they describe
    /// the *old* plan, and the pipeline re-derives them after every change.
    pub fn with_query(&self, query: QueryPlan) -> CompiledClass {
        let has_remote = query.has_remote_effects();
        let mut b = AgentSchema::builder(self.schema.name());
        for s in self.schema.state_defs() {
            b = b.state(s.name.clone());
        }
        for e in self.schema.effect_defs() {
            b = b.effect(e.name.clone(), e.combinator);
        }
        let schema = b
            .visibility(self.schema.visibility())
            .reachability(self.schema.reachability())
            .nonlocal_effects(has_remote)
            .build()
            .expect("schema rebuilt from a valid schema");
        CompiledClass { schema, query, updates: self.updates.clone(), probe_bounds: None, lane: None }
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

struct Compiler<'a> {
    state_ids: HashMap<&'a str, u16>,
    effect_ids: HashMap<&'a str, u16>,
    locals: Vec<(String, u16)>,
    loop_var: Option<String>,
    next_local: u16,
}

impl<'a> Compiler<'a> {
    fn expr(&self, e: &Expr) -> Result<PExpr> {
        Ok(match e {
            Expr::Number(n) => PExpr::Const(*n),
            Expr::Bool(b) => PExpr::Const(*b as i32 as f64),
            Expr::This => return Err(BraceError::Semantic("bare `this` outside comparison".into())),
            Expr::Ident(name) => self.ident(name, false)?,
            Expr::Field(base, field) => {
                // Analysis guarantees base is agent-typed: `this` or loop var.
                match &**base {
                    Expr::This => self.ident(field, false)?,
                    Expr::Ident(v) if Some(v) == self.loop_var.as_ref() => self.ident(field, true)?,
                    _ => return Err(BraceError::Semantic(format!("unsupported field base for `.{field}`"))),
                }
            }
            Expr::Unary(op, inner) => PExpr::Unary(*op, Box::new(self.expr(inner)?)),
            Expr::Binary(op @ (BinOp::Eq | BinOp::Ne), a, b) if self.is_agent(a) && self.is_agent(b) => {
                PExpr::AgentEq { left: self.agent_ref(a), right: self.agent_ref(b), negate: *op == BinOp::Ne }
            }
            Expr::Binary(op, a, b) => PExpr::Binary(*op, Box::new(self.expr(a)?), Box::new(self.expr(b)?)),
            Expr::Call(name, args) => {
                if name == "rand" {
                    PExpr::Rand
                } else {
                    let b = Builtin::parse(name)
                        .ok_or_else(|| BraceError::Semantic(format!("unknown function `{name}`")))?;
                    PExpr::Call(b, args.iter().map(|a| self.expr(a)).collect::<Result<_>>()?)
                }
            }
        })
    }

    fn is_agent(&self, e: &Expr) -> bool {
        matches!(e, Expr::This) || matches!(e, Expr::Ident(v) if Some(v) == self.loop_var.as_ref())
    }

    fn agent_ref(&self, e: &Expr) -> AgentRef {
        if matches!(e, Expr::This) {
            AgentRef::This
        } else {
            AgentRef::Other
        }
    }

    /// Resolve an identifier against (loop-var-qualified) field tables.
    fn ident(&self, name: &str, on_other: bool) -> Result<PExpr> {
        if !on_other {
            if let Some((_, slot)) = self.locals.iter().rev().find(|(n, _)| n == name) {
                return Ok(PExpr::Local(*slot));
            }
        }
        match name {
            "x" => Ok(if on_other { PExpr::OtherPos(Axis::X) } else { PExpr::SelfPos(Axis::X) }),
            "y" => Ok(if on_other { PExpr::OtherPos(Axis::Y) } else { PExpr::SelfPos(Axis::Y) }),
            _ => {
                if let Some(&id) = self.state_ids.get(name) {
                    Ok(if on_other { PExpr::OtherState(id) } else { PExpr::SelfState(id) })
                } else if let Some(&id) = self.effect_ids.get(name) {
                    if on_other {
                        Err(BraceError::Semantic(format!("effect `{name}` of another agent is unreadable")))
                    } else {
                        Ok(PExpr::SelfEffect(id))
                    }
                } else {
                    Err(BraceError::Semantic(format!("unknown identifier `{name}`")))
                }
            }
        }
    }

    fn block(&mut self, block: &ast::Block) -> Result<Vec<PStmt>> {
        let scope_mark = self.locals.len();
        let mut out = Vec::with_capacity(block.stmts.len());
        for stmt in &block.stmts {
            match stmt {
                Stmt::Const { name, value, .. } => {
                    let value = self.expr(value)?;
                    let slot = self.next_local;
                    self.next_local += 1;
                    self.locals.push((name.clone(), slot));
                    out.push(PStmt::Let { slot, value });
                }
                Stmt::EffectAssign { target, field, value, .. } => {
                    let fid = *self.effect_ids.get(field.as_str()).expect("checked by analysis");
                    let value = self.expr(value)?;
                    if target.is_some() {
                        out.push(PStmt::RemoteEffect { field: fid, value });
                    } else {
                        out.push(PStmt::LocalEffect { field: fid, value });
                    }
                }
                Stmt::If { cond, then_, else_, .. } => {
                    let cond = self.expr(cond)?;
                    let then_ = self.block(then_)?;
                    let else_ = match else_ {
                        Some(b) => self.block(b)?,
                        None => Vec::new(),
                    };
                    out.push(PStmt::If { cond, then_, else_ });
                }
                Stmt::Foreach { var, body, .. } => {
                    self.loop_var = Some(var.clone());
                    let body = self.block(body)?;
                    self.loop_var = None;
                    out.push(PStmt::Foreach { body });
                }
            }
        }
        self.locals.truncate(scope_mark);
        Ok(out)
    }
}

/// Lower an analyzed class to an executable [`CompiledClass`].
pub fn compile(a: &AnalyzedClass) -> Result<CompiledClass> {
    let mut builder = AgentSchema::builder(a.decl.name.clone());
    for s in &a.state_names {
        builder = builder.state(s.clone());
    }
    for (e, c) in a.effect_names.iter().zip(&a.combinators) {
        builder = builder.effect(e.clone(), *c);
    }
    let schema =
        builder.visibility(a.visibility).reachability(a.reachability).nonlocal_effects(a.has_nonlocal).build()?;

    let mut c = Compiler {
        state_ids: a.state_names.iter().enumerate().map(|(i, n)| (n.as_str(), i as u16)).collect(),
        effect_ids: a.effect_names.iter().enumerate().map(|(i, n)| (n.as_str(), i as u16)).collect(),
        locals: Vec::new(),
        loop_var: None,
        next_local: 0,
    };
    let stmts = c.block(&a.decl.run)?;
    let query = QueryPlan { stmts, n_locals: c.next_local, raw_slots: Vec::new() };

    // Update rules, in field declaration order.
    let mut updates = Vec::new();
    for f in &a.decl.fields {
        if let ast::FieldKind::State { update: Some(rule), .. } = &f.kind {
            let expr = c.expr(rule)?;
            let target = match f.name.as_str() {
                "x" => UpdateTarget::PosX,
                "y" => UpdateTarget::PosY,
                name => UpdateTarget::State(*c.state_ids.get(name).expect("state field")),
            };
            updates.push(UpdateRule { target, expr });
        }
    }
    Ok(CompiledClass { schema, query, updates, probe_bounds: None, lane: None })
}

// ---------------------------------------------------------------------------
// Interpretation
// ---------------------------------------------------------------------------

/// Evaluation context for one query/update invocation. Generic over the
/// agent representation ([`AgentRead`]): the query phase evaluates against
/// pool row views, the update phase against a snapshot record — both
/// monomorphize to direct reads.
struct EvalCtx<'a, R: AgentRead + Copy> {
    me: R,
    other: Option<R>,
    locals: &'a mut [Option<f64>],
    /// Locally-aggregated effect shadow (query) or the final aggregated
    /// effects (update).
    effects: &'a [f64],
    rng: &'a mut DetRng,
}

/// NIL-propagating evaluation.
fn eval<R: AgentRead + Copy>(e: &PExpr, ctx: &mut EvalCtx<'_, R>) -> Option<f64> {
    Some(match e {
        PExpr::Const(c) => *c,
        PExpr::SelfPos(Axis::X) => ctx.me.pos().x,
        PExpr::SelfPos(Axis::Y) => ctx.me.pos().y,
        PExpr::OtherPos(Axis::X) => ctx.other?.pos().x,
        PExpr::OtherPos(Axis::Y) => ctx.other?.pos().y,
        PExpr::SelfState(i) => ctx.me.state(*i),
        PExpr::OtherState(i) => ctx.other?.state(*i),
        PExpr::SelfEffect(i) => ctx.effects[*i as usize],
        PExpr::Local(i) => ctx.locals[*i as usize]?,
        PExpr::AgentEq { left, right, negate } => {
            let l = match left {
                AgentRef::This => ctx.me.id(),
                AgentRef::Other => ctx.other?.id(),
            };
            let r = match right {
                AgentRef::This => ctx.me.id(),
                AgentRef::Other => ctx.other?.id(),
            };
            (((l == r) != *negate) as i32) as f64
        }
        PExpr::Unary(op, inner) => {
            let v = eval(inner, ctx)?;
            match op {
                UnOp::Neg => -v,
                UnOp::Not => ((v == 0.0) as i32) as f64,
            }
        }
        PExpr::Binary(op, a, b) => {
            // Short-circuit logic evaluates lazily; everything else strictly.
            match op {
                BinOp::And => {
                    let l = eval(a, ctx)?;
                    if l == 0.0 {
                        0.0
                    } else {
                        ((eval(b, ctx)? != 0.0) as i32) as f64
                    }
                }
                BinOp::Or => {
                    let l = eval(a, ctx)?;
                    if l != 0.0 {
                        1.0
                    } else {
                        ((eval(b, ctx)? != 0.0) as i32) as f64
                    }
                }
                _ => {
                    let l = eval(a, ctx)?;
                    let r = eval(b, ctx)?;
                    match op {
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
                        BinOp::And | BinOp::Or => unreachable!("handled above"),
                    }
                }
            }
        }
        PExpr::Call(b, args) => {
            let mut vals = [0.0f64; 3];
            for (i, a) in args.iter().enumerate() {
                vals[i] = eval(a, ctx)?;
            }
            b.apply(&vals[..args.len()])
        }
        PExpr::Rand => ctx.rng.unit(),
    })
}

/// A compiled class as a runnable behavior.
#[derive(Debug, Clone)]
pub struct BrasilBehavior {
    class: CompiledClass,
    /// Per-slot NaN-transparency mask, from `QueryPlan::raw_slots`.
    raw: Vec<bool>,
    /// Test/bench override of the analyzer's batch-engagement decision.
    batch_override: Option<bool>,
}

impl BrasilBehavior {
    pub fn new(class: CompiledClass) -> Self {
        let mut raw = vec![false; class.query.n_locals as usize];
        for &s in &class.query.raw_slots {
            if let Some(f) = raw.get_mut(s as usize) {
                *f = true;
            }
        }
        BrasilBehavior { class, raw, batch_override: None }
    }

    pub fn class(&self) -> &CompiledClass {
        &self.class
    }

    /// Force batch engagement on (`true`) or off (`false`) regardless of
    /// the analyzer's cost estimate. Pure scheduling policy — the lane and
    /// interpreted paths are bit-identical by construction — used by the
    /// conformance tests to exercise lane programs
    /// whose estimated cost falls below the engagement threshold.
    pub fn with_batch_engagement(mut self, engaged: bool) -> Self {
        self.batch_override = Some(engaged);
        self
    }

    #[allow(clippy::too_many_arguments)] // interpreter context, flattened for the hot path
    fn exec_stmts<'v>(
        &self,
        stmts: &[PStmt],
        me: RowRef<'v>,
        neighbors: &Neighbors<'v>,
        eff: &mut EffectWriter<'_>,
        shadow: &mut [f64],
        locals: &mut [Option<f64>],
        other: Option<(RowRef<'v>, u32)>,
        rng: &mut DetRng,
    ) {
        let schema = self.class.schema();
        for stmt in stmts {
            match stmt {
                PStmt::Let { slot, value } => {
                    let v = {
                        let mut ctx = EvalCtx { me, other: other.map(|o| o.0), locals, effects: shadow, rng };
                        eval(value, &mut ctx)
                    };
                    // Source-level bindings coerce NaN → NIL; optimizer
                    // temporaries (raw slots) bind verbatim, so reading one
                    // back is exactly inlining the hoisted expression.
                    locals[*slot as usize] = if self.raw[*slot as usize] { v } else { v.filter(|v| !v.is_nan()) };
                }
                PStmt::LocalEffect { field, value } => {
                    let v = {
                        let mut ctx = EvalCtx { me, other: other.map(|o| o.0), locals, effects: shadow, rng };
                        eval(value, &mut ctx)
                    };
                    if let Some(v) = v.filter(|v| !v.is_nan()) {
                        let fid = FieldId::new(*field);
                        eff.local(fid, v);
                        let comb = schema.combinator(fid);
                        shadow[*field as usize] = comb.combine(shadow[*field as usize], v);
                    }
                }
                PStmt::RemoteEffect { field, value } => {
                    let Some((_, target_row)) = other else {
                        unreachable!("remote effect outside foreach (rejected by analysis)")
                    };
                    let v = {
                        let mut ctx = EvalCtx { me, other: other.map(|o| o.0), locals, effects: shadow, rng };
                        eval(value, &mut ctx)
                    };
                    if let Some(v) = v.filter(|v| !v.is_nan()) {
                        eff.remote(target_row, FieldId::new(*field), v);
                    }
                }
                PStmt::If { cond, then_, else_ } => {
                    let c = {
                        let mut ctx = EvalCtx { me, other: other.map(|o| o.0), locals, effects: shadow, rng };
                        eval(cond, &mut ctx)
                    };
                    let branch = match c {
                        Some(v) if v != 0.0 => then_,
                        Some(_) => else_,
                        None => continue, // NIL condition: whole statement is skipped
                    };
                    self.exec_stmts(branch, me, neighbors, eff, shadow, locals, other, rng);
                }
                PStmt::Foreach { body } => {
                    for nb in neighbors.iter() {
                        self.exec_stmts(body, me, neighbors, eff, shadow, locals, Some((nb.agent, nb.row)), rng);
                    }
                }
            }
        }
    }

    /// Execute a lane program over one gathered candidate batch: run the
    /// instruction columns (the vectorizable map), then fold the emit steps
    /// per candidate in canonical probe order — the same order, same
    /// self-exclusion, and same NaN/NIL rules as the interpreter, which is
    /// what makes the two paths bit-identical.
    fn run_lane(
        &self,
        lane: &LaneProgram,
        me: RowRef<'_>,
        g: &GatheredBatch<'_>,
        prelude: &[f64],
        eff: &mut EffectWriter<'_>,
        shadow: &mut [f64],
    ) {
        let n = g.len();
        with_lane_scratch(|s| {
            let cols = s.ensure_cols(lane.instrs.len());
            for (i, instr) in lane.instrs.iter().enumerate() {
                // SSA: instruction i writes column i from strictly earlier
                // columns, so the split borrow is always disjoint.
                let (prev, rest) = cols.split_at_mut(i);
                let out = &mut rest[0];
                match instr {
                    LaneInstr::Splat(src) => {
                        let v = match src {
                            SplatSrc::Const(c) => *c,
                            SplatSrc::SelfX => me.pos().x,
                            SplatSrc::SelfY => me.pos().y,
                            SplatSrc::SelfState(k) => me.state(*k),
                            SplatSrc::Prelude(k) => prelude[*k as usize],
                        };
                        out.clear();
                        out.resize(n, v);
                    }
                    LaneInstr::Column(src) => {
                        let col = match src {
                            ColSrc::OtherX => g.xs,
                            ColSrc::OtherY => g.ys,
                            ColSrc::OtherState(k) => g.state(*k as usize),
                        };
                        out.clear();
                        out.extend_from_slice(col);
                    }
                    LaneInstr::Unary(op, a) => lane_unary(*op, &prev[*a as usize], out),
                    LaneInstr::Binary(op, a, b) => lane_binary(*op, &prev[*a as usize], &prev[*b as usize], out),
                    LaneInstr::Call(b, args) => lane_call(*b, args, prev, out),
                }
            }
            let cols = &*cols;
            let schema = self.class.schema();
            for i in 0..n {
                if g.rows[i] == g.me {
                    continue;
                }
                emit_steps(&lane.emit, i, cols, eff, shadow, schema);
            }
        });
    }
}

fn lane_unary(op: UnOp, a: &[f64], out: &mut Vec<f64>) {
    out.clear();
    match op {
        UnOp::Neg => out.extend(a.iter().map(|&x| -x)),
        UnOp::Not => out.extend(a.iter().map(|&x| ((x == 0.0) as i32) as f64)),
    }
}

fn lane_binary(op: BinOp, a: &[f64], b: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.reserve(a.len());
    let b = &b[..a.len()];
    macro_rules! zip {
        ($f:expr) => {
            out.extend(a.iter().zip(b).map(|(&x, &y)| $f(x, y)))
        };
    }
    match op {
        BinOp::Add => zip!(|x, y| x + y),
        BinOp::Sub => zip!(|x, y| x - y),
        BinOp::Mul => zip!(|x, y| x * y),
        BinOp::Div => zip!(|x, y| x / y),
        BinOp::Rem => zip!(|x: f64, y: f64| x % y),
        BinOp::Lt => zip!(|x, y| ((x < y) as i32) as f64),
        BinOp::Le => zip!(|x, y| ((x <= y) as i32) as f64),
        BinOp::Gt => zip!(|x, y| ((x > y) as i32) as f64),
        BinOp::Ge => zip!(|x, y| ((x >= y) as i32) as f64),
        BinOp::Eq => zip!(|x, y| ((x == y) as i32) as f64),
        BinOp::Ne => zip!(|x, y| ((x != y) as i32) as f64),
        // Mirrors the interpreter's short-circuit results exactly (lane
        // operands are pure, so evaluating the right side unconditionally
        // is unobservable): a NaN left side takes the non-zero path.
        BinOp::And => zip!(|x: f64, y: f64| if x == 0.0 { 0.0 } else { ((y != 0.0) as i32) as f64 }),
        BinOp::Or => zip!(|x: f64, y: f64| if x != 0.0 { 1.0 } else { ((y != 0.0) as i32) as f64 }),
    }
}

fn lane_call(b: Builtin, args: &[u16], regs: &[Vec<f64>], out: &mut Vec<f64>) {
    out.clear();
    match args {
        [a] => {
            let a = &regs[*a as usize];
            match b {
                Builtin::Abs => out.extend(a.iter().map(|&x| x.abs())),
                Builtin::Sqrt => out.extend(a.iter().map(|&x| x.sqrt())),
                _ => out.extend(a.iter().map(|&x| b.apply(&[x]))),
            }
        }
        [a, c] => {
            let (a, c) = (&regs[*a as usize], &regs[*c as usize]);
            let c = &c[..a.len()];
            match b {
                Builtin::Min => out.extend(a.iter().zip(c).map(|(&x, &y)| x.min(y))),
                Builtin::Max => out.extend(a.iter().zip(c).map(|(&x, &y)| x.max(y))),
                _ => out.extend(a.iter().zip(c).map(|(&x, &y)| b.apply(&[x, y]))),
            }
        }
        [a, c, d] => {
            let (a, c, d) = (&regs[*a as usize], &regs[*c as usize], &regs[*d as usize]);
            let c = &c[..a.len()];
            let d = &d[..a.len()];
            out.extend(a.iter().zip(c).zip(d).map(|((&x, &y), &z)| b.apply(&[x, y, z])));
        }
        _ => unreachable!("builtins take 1..=3 arguments"),
    }
}

/// Per-candidate ordered fold over the computed columns: the only part of
/// lane execution with observable order, and it runs in exactly the
/// interpreter's candidate order.
fn emit_steps(
    steps: &[EmitStep],
    i: usize,
    cols: &[Vec<f64>],
    eff: &mut EffectWriter<'_>,
    shadow: &mut [f64],
    schema: &AgentSchema,
) {
    for step in steps {
        match step {
            EmitStep::Effect { field, value } => {
                let v = cols[*value as usize][i];
                if !v.is_nan() {
                    let fid = FieldId::new(*field);
                    eff.local(fid, v);
                    let comb = schema.combinator(fid);
                    shadow[*field as usize] = comb.combine(shadow[*field as usize], v);
                }
            }
            EmitStep::If { cond, then_, else_ } => {
                // Lane bodies never evaluate to NIL (every source is
                // defined); NaN ≠ 0.0 takes the then branch — exactly the
                // interpreter's `Some(v) if v != 0.0` rule.
                if cols[*cond as usize][i] != 0.0 {
                    emit_steps(then_, i, cols, eff, shadow, schema);
                } else {
                    emit_steps(else_, i, cols, eff, shadow, schema);
                }
            }
        }
    }
}

impl Behavior for BrasilBehavior {
    fn schema(&self) -> &AgentSchema {
        self.class.schema()
    }

    fn query(&self, me: RowRef<'_>, neighbors: &Neighbors<'_>, eff: &mut EffectWriter<'_>, rng: &mut DetRng) {
        let schema = self.class.schema();
        let mut shadow = schema.effect_identities();
        let mut locals = vec![None; self.class.query.n_locals as usize];
        self.exec_stmts(&self.class.query.stmts, me, neighbors, eff, &mut shadow, &mut locals, None, rng);
    }

    fn probe_rect(&self, pos: Vec2, vis: f64) -> Rect {
        let rect = Rect::centered(pos, vis);
        match &self.class.probe_bounds {
            Some(b) => b.tighten(pos, rect),
            None => rect,
        }
    }

    fn batch_profitable(&self) -> bool {
        // Classes with no lane program cost 0: never engaged unless pinned
        // (engaging would pay the gather just to fall back to the
        // interpreter).
        batch_engaged(self.class.lane.as_ref().map_or(0, |l| l.cost), self.batch_override)
    }

    fn query_batch(&self, me: RowRef<'_>, batch: &mut NeighborBatch<'_>, eff: &mut EffectWriter<'_>, rng: &mut DetRng) {
        let Some(lane) = &self.class.lane else {
            return self.query(me, &batch.neighbors(), eff, rng);
        };
        let schema = self.class.schema();
        let mut shadow = schema.effect_identities();
        let mut locals = vec![None; self.class.query.n_locals as usize];
        let neighbors = batch.neighbors();
        for stmt in &self.class.query.stmts {
            if let PStmt::Foreach { body } = stmt {
                // Resolve the loop-invariant prelude slots the lane program
                // splats. A NIL prelude value means the body can observe
                // NIL — the lane columns can't represent that, so fall back
                // to the interpreter for this (rare) probe.
                let prelude: Option<Vec<f64>> = lane.prelude_slots.iter().map(|&s| locals[s as usize]).collect();
                match prelude {
                    Some(prelude) => {
                        let g = batch.gather(&lane.gather_slots);
                        self.run_lane(lane, me, &g, &prelude, eff, &mut shadow);
                    }
                    None => {
                        for nb in neighbors.iter() {
                            self.exec_stmts(
                                body,
                                me,
                                &neighbors,
                                eff,
                                &mut shadow,
                                &mut locals,
                                Some((nb.agent, nb.row)),
                                rng,
                            );
                        }
                    }
                }
            } else {
                self.exec_stmts(std::slice::from_ref(stmt), me, &neighbors, eff, &mut shadow, &mut locals, None, rng);
            }
        }
    }

    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        // Simultaneous semantics: evaluate every rule against the
        // pre-update snapshot, then commit.
        let snapshot = me.clone();
        let mut locals: Vec<Option<f64>> = Vec::new();
        let mut staged: Vec<(UpdateTarget, f64)> = Vec::with_capacity(self.class.updates.len());
        for rule in &self.class.updates {
            let v = {
                let mut ec = EvalCtx {
                    me: &snapshot,
                    other: None,
                    locals: &mut locals,
                    effects: &snapshot.effects,
                    rng: &mut ctx.rng,
                };
                eval(&rule.expr, &mut ec)
            };
            // NIL update leaves the field unchanged (weak-reference
            // semantics: a rule depending on NIL data is a no-op).
            if let Some(v) = v.filter(|v| !v.is_nan()) {
                staged.push((rule.target, v));
            }
        }
        for (target, v) in staged {
            match target {
                UpdateTarget::PosX => me.pos.x = v,
                UpdateTarget::PosY => me.pos.y = v,
                UpdateTarget::State(i) => me.state[i as usize] = v,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::parser::parse;
    use brace_common::{AgentId, Vec2};
    use brace_core::Simulation;
    use brace_spatial::IndexKind;

    fn compile_src(src: &str) -> CompiledClass {
        let prog = parse(src).unwrap();
        compile(&analyze(&prog.classes[0]).unwrap()).unwrap()
    }

    const COUNTER: &str = r#"
        class Bird {
            public state float x : x #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float seen : n;
            private effect float n : sum;
            public void run() {
                foreach (Bird p : Extent<Bird>) { n <- 1; }
            }
        }
    "#;

    fn grid_agents(schema: &AgentSchema, n: usize, gap: f64) -> Vec<Agent> {
        (0..n).map(|i| Agent::new(AgentId::new(i as u64), Vec2::new(i as f64 * gap, 0.0), schema)).collect()
    }

    #[test]
    fn neighbor_count_script_counts_correctly() {
        let class = compile_src(COUNTER);
        let behavior = BrasilBehavior::new(class);
        let agents = grid_agents(behavior.schema(), 5, 0.9);
        let mut sim = Simulation::builder(behavior).agents(agents).seed(1).build().unwrap();
        sim.step();
        let seen: Vec<f64> = sim.agents().iter().map(|a| a.state[0]).collect();
        // Ends see 1 neighbor; middles see 2 (visibility 1.0, gap 0.9).
        assert_eq!(seen, vec![1.0, 2.0, 2.0, 2.0, 1.0]);
    }

    /// Theorem 1 (empirical form): the engine materializes exactly the
    /// visible region, so a script's foreach sees precisely the agents
    /// within the `#range` bound — the weak-reference semantics and the
    /// replica-filtering implementation agree.
    #[test]
    fn theorem1_visibility_semantics_match_runtime_filtering() {
        let class = compile_src(COUNTER);
        let behavior = BrasilBehavior::new(class);
        let schema = behavior.schema().clone();
        let mut rng = DetRng::seed_from_u64(3);
        let agents: Vec<Agent> = (0..60)
            .map(|i| Agent::new(AgentId::new(i), Vec2::new(rng.range(0.0, 10.0), rng.range(0.0, 10.0)), &schema))
            .collect();
        let reference: Vec<f64> = agents
            .iter()
            .map(|a| {
                agents
                    .iter()
                    .filter(|b| b.id != a.id && (b.pos.x - a.pos.x).abs() <= 1.0 && (b.pos.y - a.pos.y).abs() <= 1.0)
                    .count() as f64
            })
            .collect();
        let mut sim = Simulation::builder(behavior).agents(agents).seed(9).build().unwrap();
        sim.step();
        let got: Vec<f64> = sim.agents().iter().map(|a| a.state[0]).collect();
        assert_eq!(got, reference);
    }

    #[test]
    fn update_rules_are_simultaneous() {
        // swapx/swapy exchange values; simultaneous semantics swap them,
        // sequential semantics would duplicate one.
        let src = r#"
            class S {
                public state float a : b;
                public state float b : a;
                public void run() {}
            }
        "#;
        let class = compile_src(src);
        let behavior = BrasilBehavior::new(class);
        let schema = behavior.schema().clone();
        let mut agent = Agent::new(AgentId::new(0), Vec2::ZERO, &schema);
        agent.state = vec![1.0, 2.0];
        let mut sim = Simulation::builder(behavior).agents(vec![agent]).build().unwrap();
        sim.step();
        assert_eq!(sim.agents()[0].state, vec![2.0, 1.0]);
    }

    #[test]
    fn reachability_crops_movement() {
        let src = r#"
            class M {
                public state float x : x + 100 #range[-1, 1];
                public state float y : y #range[-1, 1];
                public void run() {}
            }
        "#;
        let behavior = BrasilBehavior::new(compile_src(src));
        let schema = behavior.schema().clone();
        let agent = Agent::new(AgentId::new(0), Vec2::ZERO, &schema);
        let mut sim = Simulation::builder(behavior).agents(vec![agent]).build().unwrap();
        sim.step();
        assert_eq!(sim.agents()[0].pos.x, 1.0, "movement cropped to the reachable region");
    }

    #[test]
    fn effect_read_after_loop_sees_local_aggregate() {
        let src = r#"
            class R {
                public state float x : x #range[-5, 5];
                public state float y : y #range[-5, 5];
                public state float res : flag;
                private effect float n : sum;
                private effect float flag : max;
                public void run() {
                    foreach (R p : Extent<R>) { n <- 1; }
                    if (n >= 2) { flag <- 1; }
                }
            }
        "#;
        let behavior = BrasilBehavior::new(compile_src(src));
        let schema = behavior.schema().clone();
        let agents: Vec<Agent> =
            (0..3).map(|i| Agent::new(AgentId::new(i), Vec2::new(i as f64, 0.0), &schema)).collect();
        let mut sim = Simulation::builder(behavior).agents(agents).build().unwrap();
        sim.step();
        // All three see 2 neighbors -> flag set.
        for a in sim.agents() {
            assert_eq!(a.state[0], 1.0);
        }
    }

    #[test]
    fn rand_is_deterministic_per_seed() {
        let src = r#"
            class J {
                public state float x : x + rand() #range[-1, 1];
                public state float y : y #range[-1, 1];
                public void run() {}
            }
        "#;
        let run = |seed| {
            let behavior = BrasilBehavior::new(compile_src(src));
            let schema = behavior.schema().clone();
            let agents: Vec<Agent> =
                (0..10).map(|i| Agent::new(AgentId::new(i), Vec2::new(i as f64 * 3.0, 0.0), &schema)).collect();
            let mut sim = Simulation::builder(behavior).agents(agents).seed(seed).build().unwrap();
            sim.run(3);
            sim.agents().iter().map(|a| a.pos.x).collect::<Vec<_>>()
        };
        assert_eq!(run(4), run(4));
        assert_ne!(run(4), run(5));
    }

    #[test]
    fn nonlocal_script_assigns_remote_effects() {
        let src = r#"
            class P {
                public state float x : x #range[-2, 2];
                public state float y : y #range[-2, 2];
                public state float hits : got;
                private effect float got : sum;
                public void run() {
                    foreach (P p : Extent<P>) { p.got <- 1; }
                }
            }
        "#;
        let class = compile_src(src);
        assert!(class.schema().has_nonlocal_effects());
        let behavior = BrasilBehavior::new(class);
        let schema = behavior.schema().clone();
        let agents: Vec<Agent> =
            (0..4).map(|i| Agent::new(AgentId::new(i), Vec2::new(i as f64, 0.0), &schema)).collect();
        let mut sim = Simulation::builder(behavior).agents(agents).index(IndexKind::KdTree).build().unwrap();
        sim.step();
        // Line of 4 with visibility 2: ends are hit by 2, middles by 3.
        let hits: Vec<f64> = sim.agents().iter().map(|a| a.state[0]).collect();
        assert_eq!(hits, vec![2.0, 3.0, 3.0, 2.0]);
    }

    #[test]
    fn division_by_zero_yields_nil_and_skips_assignment() {
        // 1/abs(x - p.x) is infinite for coincident agents (the paper's own
        // fish script has this hazard); inf is a number and aggregates, but
        // 0/0 is NaN -> NIL -> skipped.
        let src = r#"
            class D {
                public state float x : x #range[-1, 1];
                public state float y : y #range[-1, 1];
                public state float got : n;
                private effect float n : sum;
                public void run() {
                    foreach (D p : Extent<D>) {
                        n <- (x - p.x) / abs(x - p.x);
                    }
                }
            }
        "#;
        let behavior = BrasilBehavior::new(compile_src(src));
        let schema = behavior.schema().clone();
        // Two coincident agents: (x - p.x)/|x - p.x| = 0/0 = NaN -> skipped.
        let agents: Vec<Agent> = (0..2).map(|i| Agent::new(AgentId::new(i), Vec2::ZERO, &schema)).collect();
        let mut sim = Simulation::builder(behavior).agents(agents).build().unwrap();
        sim.step();
        for a in sim.agents() {
            assert_eq!(a.state[0], 0.0, "NIL assignment must be skipped, leaving the sum identity");
        }
    }

    #[test]
    fn locals_bind_and_scope() {
        let src = r#"
            class L {
                public state float x : x #range[-3, 3];
                public state float y : y #range[-3, 3];
                public state float out : acc;
                private effect float acc : sum;
                public void run() {
                    const float two = 1 + 1;
                    foreach (L p : Extent<L>) {
                        const float d = abs(x - p.x);
                        if (d < two) { acc <- d; }
                    }
                }
            }
        "#;
        let behavior = BrasilBehavior::new(compile_src(src));
        let schema = behavior.schema().clone();
        let agents: Vec<Agent> =
            (0..3).map(|i| Agent::new(AgentId::new(i), Vec2::new(i as f64, 0.0), &schema)).collect();
        let mut sim = Simulation::builder(behavior).agents(agents).build().unwrap();
        sim.step();
        // Agent 1 sees agents 0 and 2 at distance 1 each (< 2): acc = 2.
        assert_eq!(sim.agents()[1].state[0], 2.0);
        // Agents 0/2 see distances 1 and 2; only 1 < 2 counts: acc = 1.
        assert_eq!(sim.agents()[0].state[0], 1.0);
    }
}

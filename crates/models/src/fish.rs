//! The Couzin et al. fish-school model (information transfer in animal
//! groups, Nature 433, 2005) — the paper's second evaluation workload.
//!
//! Per tick, each fish inspects its visible neighborhood:
//!
//! * **Avoidance** (highest priority): if any neighbor is closer than the
//!   personal-zone radius α, turn away from the sum of directions to those
//!   neighbors.
//! * **Attraction + alignment**: otherwise, steer toward neighbors within
//!   the visible radius ρ > α and align with their headings.
//! * **Informed individuals**: a fraction of fish have a preferred
//!   direction g (e.g. toward food or a migration route) and balance it
//!   against the social vector with weight ω. Everyone else is naive.
//!
//! The "ocean" is unbounded and the school's spatial distribution changes
//! dramatically as informed individuals lead — which is precisely why this
//! workload drives the paper's load-balancing experiments (Figures 7/8):
//! with **two** informed classes pulling in opposite directions the
//! population splits into two schools that drift apart, starving all but
//! two partitions unless the balancer intervenes.
//!
//! All effects are local (each fish aggregates its neighbors' influence on
//! itself), so the runtime needs a single reduce pass.

use brace_common::{AgentId, DetRng, FieldId, Vec2};
use brace_core::behavior::{Behavior, NeighborBatch, Neighbors, UpdateCtx};
use brace_core::effect::EffectWriter;
use brace_core::kernels::with_lane_scratch;
use brace_core::{Agent, AgentRef, AgentSchema, Combinator};

/// Model parameters. Distances in body lengths, speeds in body lengths per
/// tick.
#[derive(Debug, Clone, PartialEq)]
pub struct FishParams {
    /// Personal (repulsion) zone radius α.
    pub alpha: f64,
    /// Visible (attraction/alignment) radius ρ > α; also the schema
    /// visibility bound.
    pub rho: f64,
    /// Swim speed (distance per tick).
    pub speed: f64,
    /// Informed-direction weight ω.
    pub omega: f64,
    /// Random heading perturbation magnitude.
    pub jitter: f64,
    /// Fraction of fish informed of direction A (+x).
    pub informed_a: f64,
    /// Fraction informed of direction B (−x). Set to 0 for the classic
    /// single-leader configuration.
    pub informed_b: f64,
    /// Initial school radius.
    pub school_radius: f64,
    /// Batch-engagement override. `None` (default) applies the engine-wide
    /// cost rule (`brace_core::behavior::batch_engaged`) to
    /// [`FORCE_KERNEL_COST`] — which engages [`force_kernel`], matching
    /// the measured 2–8× batched gains that made fish the motivating case
    /// for lane kernels. Pure scheduling policy, bit-identical either way.
    /// Re-measured after the grid's bucket arena made the index-side
    /// filter kernel-native: most of the grid's batched gain now comes
    /// from that filter, and the force kernel's own margin there is near
    /// parity (within run noise at 100k) — engagement stays on, carried by
    /// the KD-tree and scan cases the shared cost rule also governs.
    pub batch_engagement: Option<bool>,
}

impl Default for FishParams {
    fn default() -> Self {
        FishParams {
            alpha: 1.0,
            rho: 6.0,
            speed: 0.75,
            omega: 0.5,
            jitter: 0.05,
            informed_a: 0.05,
            informed_b: 0.05,
            school_radius: 20.0,
            batch_engagement: None,
        }
    }
}

/// State slots.
pub mod state {
    /// Heading x component (unit vector).
    pub const HX: u16 = 0;
    /// Heading y component.
    pub const HY: u16 = 1;
    /// Informed class: 0 naive, 1 prefers +x, 2 prefers −x.
    pub const CLASS: u16 = 2;
}

/// Effect slots.
pub mod effect {
    /// Repulsion vector (sum over personal-zone neighbors).
    pub const REP_X: u16 = 0;
    pub const REP_Y: u16 = 1;
    /// Attraction vector (sum over visible neighbors).
    pub const ATT_X: u16 = 2;
    pub const ATT_Y: u16 = 3;
    /// Alignment vector (sum of neighbor headings).
    pub const ALI_X: u16 = 4;
    pub const ALI_Y: u16 = 5;
    /// Personal-zone neighbor count.
    pub const N_REP: u16 = 6;
    /// Visible neighbor count.
    pub const N_VIS: u16 = 7;
}

/// Per-candidate cost of `candidate_force` plus the zone fold, in the
/// analyzer's ALU-op units (the same scale the BRASIL compiler scores its
/// lane programs on): squared distance 3, square root 8, two divides for
/// the unit direction 16, zone compares and force accumulation ≈6 — well
/// above `brace_core::behavior::BATCH_COST_THRESHOLD`, so the force kernel
/// engages by default.
pub const FORCE_KERNEL_COST: u32 = 33;

/// Per-candidate force geometry, shared verbatim by the scalar query path
/// and (op for op) the lane kernel [`force_kernel`], so the two are
/// bit-identical: squared distance from the querying fish to the candidate
/// plus the unit direction toward it — zero when (near) coincident, the
/// same guard `Vec2::normalized` applies, but on `sqrt(d²)` rather than
/// `hypot` so the root vectorizes. Zone cutoffs compare against squared
/// radii for the same reason.
#[inline]
pub(crate) fn candidate_force(mx: f64, my: f64, cx: f64, cy: f64) -> (f64, f64, f64) {
    let dx = cx - mx;
    let dy = cy - my;
    let d2 = dx * dx + dy * dy;
    let d = d2.sqrt();
    if d > f64::EPSILON {
        (d2, dx / d, dy / d)
    } else {
        (d2, 0.0, 0.0)
    }
}

/// Lane kernel behind [`FishBehavior`]'s batched query: `candidate_force`
/// over whole candidate columns. Written branch-free (the division always
/// runs; degenerate lanes — including the querying fish itself at distance
/// zero — select the zero direction afterwards) so LLVM vectorizes the
/// squares, the root and the divides; every element is IEEE-identical to
/// the scalar helper.
pub fn force_kernel(xs: &[f64], ys: &[f64], mx: f64, my: f64, d2: &mut Vec<f64>, ux: &mut Vec<f64>, uy: &mut Vec<f64>) {
    let n = xs.len();
    debug_assert_eq!(ys.len(), n, "coordinate columns must be parallel");
    d2.clear();
    d2.resize(n, 0.0);
    ux.clear();
    ux.resize(n, 0.0);
    uy.clear();
    uy.resize(n, 0.0);
    // Lockstep iterators (not indexing): the bounds checks that block the
    // loop vectorizer disappear, and LLVM emits packed sqrt/div.
    let ys = &ys[..n];
    let it = xs.iter().zip(ys).zip(d2.iter_mut().zip(ux.iter_mut()).zip(uy.iter_mut()));
    for ((&x, &y), ((d2i, uxi), uyi)) in it {
        let dx = x - mx;
        let dy = y - my;
        let q = dx * dx + dy * dy;
        let d = q.sqrt();
        let inv_x = dx / d;
        let inv_y = dy / d;
        let ok = d > f64::EPSILON;
        *d2i = q;
        *uxi = if ok { inv_x } else { 0.0 };
        *uyi = if ok { inv_y } else { 0.0 };
    }
}

/// The fish school as a BRACE behavior.
#[derive(Debug, Clone)]
pub struct FishBehavior {
    params: FishParams,
    schema: AgentSchema,
}

impl FishBehavior {
    pub fn new(params: FishParams) -> Self {
        assert!(params.rho > params.alpha, "visible zone must exceed the personal zone");
        let schema = AgentSchema::builder("Fish")
            .state("hx")
            .state("hy")
            .state("class")
            .effect("rep_x", Combinator::Sum)
            .effect("rep_y", Combinator::Sum)
            .effect("att_x", Combinator::Sum)
            .effect("att_y", Combinator::Sum)
            .effect("ali_x", Combinator::Sum)
            .effect("ali_y", Combinator::Sum)
            .effect("n_rep", Combinator::Sum)
            .effect("n_vis", Combinator::Sum)
            .visibility(params.rho)
            .reachability(params.speed)
            .build()
            .expect("static schema is valid");
        FishBehavior { params, schema }
    }

    pub fn params(&self) -> &FishParams {
        &self.params
    }

    /// A school of `n` fish around the origin with random headings;
    /// informed classes assigned by the configured fractions.
    pub fn population(&self, n: usize, seed: u64) -> Vec<Agent> {
        let p = &self.params;
        let mut rng = DetRng::seed_from_u64(seed).stream(0xF155);
        (0..n)
            .map(|i| {
                let r = p.school_radius * rng.unit().sqrt();
                let theta = rng.range(0.0, std::f64::consts::TAU);
                let pos = Vec2::new(r * theta.cos(), r * theta.sin());
                let heading = rng.range(0.0, std::f64::consts::TAU);
                let class = {
                    let u = rng.unit();
                    if u < p.informed_a {
                        1.0
                    } else if u < p.informed_a + p.informed_b {
                        2.0
                    } else {
                        0.0
                    }
                };
                let mut a = Agent::new(AgentId::new(i as u64), pos, &self.schema);
                a.state[state::HX as usize] = heading.cos();
                a.state[state::HY as usize] = heading.sin();
                a.state[state::CLASS as usize] = class;
                a
            })
            .collect()
    }
}

impl Behavior for FishBehavior {
    fn schema(&self) -> &AgentSchema {
        &self.schema
    }

    fn batch_profitable(&self) -> bool {
        brace_core::behavior::batch_engaged(FORCE_KERNEL_COST, self.params.batch_engagement)
    }

    fn query(&self, me: AgentRef<'_>, nbrs: &Neighbors<'_>, eff: &mut EffectWriter<'_>, _rng: &mut DetRng) {
        let p = &self.params;
        let (alpha2, rho2) = (p.alpha * p.alpha, p.rho * p.rho);
        let my_pos = me.pos();
        for nb in nbrs.iter() {
            let npos = nb.agent.pos();
            let (d2, ux, uy) = candidate_force(my_pos.x, my_pos.y, npos.x, npos.y);
            if d2 > rho2 {
                // Corner of the square visible region beyond ρ: the model
                // is radial, the index is rectangular; filter here.
                continue;
            }
            if d2 <= alpha2 {
                eff.local(FieldId::new(effect::REP_X), -ux);
                eff.local(FieldId::new(effect::REP_Y), -uy);
                eff.local(FieldId::new(effect::N_REP), 1.0);
            } else {
                eff.local(FieldId::new(effect::ATT_X), ux);
                eff.local(FieldId::new(effect::ATT_Y), uy);
                eff.local(FieldId::new(effect::ALI_X), nb.agent.state(state::HX));
                eff.local(FieldId::new(effect::ALI_Y), nb.agent.state(state::HY));
                eff.local(FieldId::new(effect::N_VIS), 1.0);
            }
        }
    }

    /// Batched query: gather positions + headings, run [`force_kernel`]
    /// over the candidate columns, then emit effects in candidate order —
    /// the same fold, over lane-computed values, as the scalar path.
    fn query_batch(
        &self,
        me: AgentRef<'_>,
        batch: &mut NeighborBatch<'_>,
        eff: &mut EffectWriter<'_>,
        _rng: &mut DetRng,
    ) {
        let p = &self.params;
        let (alpha2, rho2) = (p.alpha * p.alpha, p.rho * p.rho);
        let my_pos = me.pos();
        let g = batch.gather(&[state::HX, state::HY]);
        with_lane_scratch(|s| {
            force_kernel(g.xs, g.ys, my_pos.x, my_pos.y, &mut s.a, &mut s.b, &mut s.c);
            let (hx, hy) = (g.state(0), g.state(1));
            for i in 0..g.len() {
                if g.rows[i] == g.me {
                    continue;
                }
                let d2 = s.a[i];
                if d2 > rho2 {
                    continue;
                }
                if d2 <= alpha2 {
                    eff.local(FieldId::new(effect::REP_X), -s.b[i]);
                    eff.local(FieldId::new(effect::REP_Y), -s.c[i]);
                    eff.local(FieldId::new(effect::N_REP), 1.0);
                } else {
                    eff.local(FieldId::new(effect::ATT_X), s.b[i]);
                    eff.local(FieldId::new(effect::ATT_Y), s.c[i]);
                    eff.local(FieldId::new(effect::ALI_X), hx[i]);
                    eff.local(FieldId::new(effect::ALI_Y), hy[i]);
                    eff.local(FieldId::new(effect::N_VIS), 1.0);
                }
            }
        });
    }

    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        let p = &self.params;
        let n_rep = me.effect(FieldId::new(effect::N_REP));
        let social = if n_rep > 0.0 {
            // Avoidance overrides everything (highest priority).
            Vec2::new(me.effect(FieldId::new(effect::REP_X)), me.effect(FieldId::new(effect::REP_Y)))
        } else if me.effect(FieldId::new(effect::N_VIS)) > 0.0 {
            let att = Vec2::new(me.effect(FieldId::new(effect::ATT_X)), me.effect(FieldId::new(effect::ATT_Y)));
            let ali = Vec2::new(me.effect(FieldId::new(effect::ALI_X)), me.effect(FieldId::new(effect::ALI_Y)));
            att.normalized() + ali.normalized()
        } else {
            // Alone: keep heading.
            Vec2::new(me.state[state::HX as usize], me.state[state::HY as usize])
        };
        let preferred = match me.state[state::CLASS as usize] as i64 {
            1 => Vec2::new(1.0, 0.0),
            2 => Vec2::new(-1.0, 0.0),
            _ => Vec2::ZERO,
        };
        let jitter = Vec2::new(ctx.rng.range(-p.jitter, p.jitter), ctx.rng.range(-p.jitter, p.jitter));
        let mut heading = (social.normalized() + preferred * p.omega + jitter).normalized();
        if heading == Vec2::ZERO {
            heading = Vec2::new(me.state[state::HX as usize], me.state[state::HY as usize]);
        }
        me.state[state::HX as usize] = heading.x;
        me.state[state::HY as usize] = heading.y;
        me.pos += heading * p.speed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One engagement rule governs hand-coded and compiled behaviors: the
    /// force kernel's cost clears the shared threshold (engaged by
    /// default), and the override pins the decision either way.
    #[test]
    fn batch_engagement_follows_the_shared_cost_rule() {
        use brace_core::behavior::{batch_engaged, Behavior};
        assert!(batch_engaged(FORCE_KERNEL_COST, None));
        assert!(FishBehavior::new(FishParams::default()).batch_profitable());
        let off = FishParams { batch_engagement: Some(false), ..FishParams::default() };
        assert!(!FishBehavior::new(off).batch_profitable());
    }

    use brace_core::Simulation;

    fn behavior() -> FishBehavior {
        FishBehavior::new(FishParams::default())
    }

    /// Pin the force kernel's scalar-tail handling at candidate counts
    /// straddling the lane width (0, 1, L−1, L, L+1, 2L−1): every element
    /// must match the per-candidate definition bit for bit.
    #[test]
    fn force_kernel_tail_counts_match_scalar_definition() {
        const L: usize = brace_spatial::kernels::LANES;
        let (mx, my) = (0.3, -1.7);
        for n in [0, 1, L - 1, L, L + 1, 2 * L - 1] {
            let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.7 - 1.0).collect();
            let mut ys: Vec<f64> = (0..n).map(|i| 2.0 - i as f64 * 0.3).collect();
            if n > 1 {
                // Coincident candidate: the degenerate-direction select.
                ys[1] = my;
            }
            let (mut d2, mut ux, mut uy) = (Vec::new(), Vec::new(), Vec::new());
            force_kernel(&xs, &ys, mx, my, &mut d2, &mut ux, &mut uy);
            assert_eq!(d2.len(), n);
            for i in 0..n {
                let (sd2, sux, suy) = candidate_force(mx, my, xs[i], ys[i]);
                assert_eq!(d2[i].to_bits(), sd2.to_bits(), "count {n} element {i}");
                assert_eq!(ux[i].to_bits(), sux.to_bits(), "count {n} element {i}");
                assert_eq!(uy[i].to_bits(), suy.to_bits(), "count {n} element {i}");
            }
        }
    }

    #[test]
    fn population_has_requested_shape() {
        let b = behavior();
        let pop = b.population(200, 1);
        assert_eq!(pop.len(), 200);
        for a in &pop {
            assert!(a.pos.norm() <= 20.0 + 1e-9);
            let h = Vec2::new(a.state[0], a.state[1]);
            assert!((h.norm() - 1.0).abs() < 1e-9);
        }
        // Informed classes near the configured 5% + 5%.
        let informed = pop.iter().filter(|a| a.state[2] != 0.0).count();
        assert!((10..=35).contains(&informed), "{informed} informed of 200");
    }

    #[test]
    fn close_pair_repels() {
        let b = behavior();
        let schema = b.schema().clone();
        let mut a0 = Agent::new(AgentId::new(0), Vec2::new(0.0, 0.0), &schema);
        let mut a1 = Agent::new(AgentId::new(1), Vec2::new(0.5, 0.0), &schema);
        for a in [&mut a0, &mut a1] {
            a.state[state::HX as usize] = 0.0;
            a.state[state::HY as usize] = 1.0;
        }
        let mut sim = Simulation::builder(b).agents(vec![a0, a1]).seed(2).build().unwrap();
        sim.step();
        let d_after = sim.agents()[0].pos.dist(sim.agents()[1].pos);
        assert!(d_after > 0.5, "repulsion must separate a close pair, d = {d_after}");
    }

    #[test]
    fn distant_pair_attracts() {
        let b = behavior();
        let schema = b.schema().clone();
        let mut a0 = Agent::new(AgentId::new(0), Vec2::new(0.0, 0.0), &schema);
        let mut a1 = Agent::new(AgentId::new(1), Vec2::new(4.0, 0.0), &schema);
        // Headings perpendicular so attraction dominates the alignment sum.
        a0.state[state::HX as usize] = 0.0;
        a0.state[state::HY as usize] = 1.0;
        a1.state[state::HX as usize] = 0.0;
        a1.state[state::HY as usize] = -1.0;
        let b2 = FishBehavior::new(FishParams { jitter: 0.0, ..FishParams::default() });
        let mut sim = Simulation::builder(b2).agents(vec![a0, a1]).seed(3).build().unwrap();
        let _ = b;
        sim.step();
        let d_after = sim.agents()[0].pos.dist(sim.agents()[1].pos);
        assert!(d_after < 4.0, "attraction must pull a visible pair together, d = {d_after}");
    }

    #[test]
    fn informed_fish_lead_the_school() {
        // All fish informed of +x must march right.
        let params = FishParams { informed_a: 1.0, informed_b: 0.0, jitter: 0.0, omega: 2.0, ..Default::default() };
        let b = FishBehavior::new(params);
        let pop = b.population(100, 4);
        let cx0: f64 = pop.iter().map(|a| a.pos.x).sum::<f64>() / 100.0;
        let mut sim = Simulation::builder(b).agents(pop).seed(4).build().unwrap();
        sim.run(30);
        let cx1: f64 = sim.agents().iter().map(|a| a.pos.x).sum::<f64>() / 100.0;
        assert!(cx1 > cx0 + 10.0, "school must travel +x: {cx0} -> {cx1}");
    }

    #[test]
    fn two_informed_classes_split_the_school() {
        let params = FishParams {
            informed_a: 0.15,
            informed_b: 0.15,
            omega: 1.5,
            jitter: 0.02,
            school_radius: 10.0,
            ..Default::default()
        };
        let b = FishBehavior::new(params);
        let pop = b.population(300, 5);
        let mut sim = Simulation::builder(b).agents(pop).seed(5).build().unwrap();
        sim.run(150);
        let xs: Vec<f64> = sim.agents().iter().map(|a| a.pos.x).collect();
        let spread =
            xs.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x)) - xs.iter().fold(f64::INFINITY, |m, &x| m.min(x));
        assert!(spread > 60.0, "two leader classes must stretch the school, spread = {spread}");
    }

    #[test]
    fn heading_stays_unit_length() {
        let b = behavior();
        let pop = b.population(50, 6);
        let mut sim = Simulation::builder(b).agents(pop).seed(6).build().unwrap();
        sim.run(20);
        for a in sim.agents() {
            let h = Vec2::new(a.state[0], a.state[1]);
            assert!((h.norm() - 1.0).abs() < 1e-6, "heading norm {}", h.norm());
        }
    }

    #[test]
    fn speed_is_bounded_by_reachability() {
        let b = behavior();
        let pop = b.population(80, 7);
        let before: Vec<Vec2> = pop.iter().map(|a| a.pos).collect();
        let mut sim = Simulation::builder(b).agents(pop).seed(7).build().unwrap();
        sim.step();
        for (a, b0) in sim.agents().iter().zip(&before) {
            assert!(a.pos.dist_linf(*b0) <= 0.75 + 1e-9);
        }
    }
}

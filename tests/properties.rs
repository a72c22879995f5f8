//! Property-based tests on the invariants the paper's design rests on.
//!
//! * Effect aggregation is order-independent (the state-effect pattern's
//!   foundational assumption): any partition of any sequence of effect
//!   assignments, merged in any order, yields the same aggregate.
//! * The distributed spatial join equals the single-node join for *every*
//!   partitioning and visibility (the Appendix A decomposition).
//! * Replication is exactly the visible-region membership — no agent is
//!   missing where it is visible, none is shipped where it is not.
//! * Codec round-trips are lossless (checkpoints and messages cannot
//!   corrupt a world).
//! * The sharded/parallel executor phases equal the serial reference at
//!   the bit level — for every thread count, shard granule, index kind and
//!   seed (the determinism contract of `brace_core::executor`).
//! * The pool-backed executor equals the `Vec<Agent>` reference path at
//!   the bit level, and incremental index maintenance equals a fresh
//!   rebuild every tick — the contracts of the struct-of-arrays refactor.

use brace_common::ids::AgentIdGen;
use brace_common::{AgentId, DetRng, FieldId, Rect, Vec2};
use brace_core::behavior::{Behavior, Neighbors, UpdateCtx};
use brace_core::executor::{
    query_phase, query_phase_sharded_with, reference_step, update_phase, update_phase_sharded, MaintainedIndex,
    TickScratch,
};
use brace_core::{
    Agent, AgentPool, AgentRef, AgentSchema, Combinator, EffectTable, EffectWriter, IndexMaintenance, QueryKernel,
};
use brace_mapreduce::codec;
use brace_spatial::join::{distribute, nested_loop_join, partitioned_join};
use brace_spatial::{GridPartitioning, KdTree, Partitioner, ScanIndex, SpatialIndex, UniformGrid};
use proptest::prelude::*;

fn any_combinator() -> impl Strategy<Value = Combinator> {
    prop::sample::select(Combinator::ALL.to_vec())
}

fn any_index_kind() -> impl Strategy<Value = brace_spatial::IndexKind> {
    prop::sample::select(vec![
        brace_spatial::IndexKind::Scan,
        brace_spatial::IndexKind::KdTree,
        brace_spatial::IndexKind::Grid,
    ])
}

/// Local-effects model with float-valued aggregates (Sum + Min + Max):
/// every agent records, per neighbor, a distance-derived float. Local
/// effects shard-merge by copy, so the parallel path must match the serial
/// reference bit for bit even though the values are "awkward" floats.
struct LocalFloat(AgentSchema);

impl LocalFloat {
    fn new(vis: f64) -> Self {
        LocalFloat(
            AgentSchema::builder("LocalFloat")
                .state("s")
                .effect("acc", Combinator::Sum)
                .effect("near", Combinator::Min)
                .effect("far", Combinator::Max)
                .visibility(vis)
                .reachability(1.0)
                .build()
                .unwrap(),
        )
    }
}

impl Behavior for LocalFloat {
    fn schema(&self) -> &AgentSchema {
        &self.0
    }
    fn query(&self, me: AgentRef<'_>, nbrs: &Neighbors<'_>, eff: &mut EffectWriter<'_>, rng: &mut DetRng) {
        let my_pos = me.pos();
        for nb in nbrs.iter() {
            let d = my_pos.dist_linf(nb.agent.pos());
            eff.local(FieldId::new(0), d * rng.range(0.1, 1.3));
            eff.local(FieldId::new(1), d);
            eff.local(FieldId::new(2), d);
        }
    }
    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        let acc = me.effect(FieldId::new(0));
        me.set(FieldId::new(0), me.get(FieldId::new(0)) + acc);
        me.pos.x += ctx.rng.range(-0.6, 0.6);
        me.pos.y += ctx.rng.range(-0.6, 0.6);
    }
}

/// Non-local model whose aggregates are exactly associative: integer Sum
/// (pings of 1.0) and lattice Min (distance). Parallel shard ⊕-merges may
/// re-associate, but on these values re-association is exact, so serial ≡
/// parallel holds at the bit level here too.
struct NonlocalExact(AgentSchema);

impl NonlocalExact {
    fn new(vis: f64) -> Self {
        NonlocalExact(
            AgentSchema::builder("NonlocalExact")
                .state("hits")
                .effect("pings", Combinator::Sum)
                .effect("near", Combinator::Min)
                .visibility(vis)
                .reachability(0.5)
                .nonlocal_effects(true)
                .build()
                .unwrap(),
        )
    }
}

impl Behavior for NonlocalExact {
    fn schema(&self) -> &AgentSchema {
        &self.0
    }
    fn query(&self, me: AgentRef<'_>, nbrs: &Neighbors<'_>, eff: &mut EffectWriter<'_>, _rng: &mut DetRng) {
        let my_pos = me.pos();
        for nb in nbrs.iter() {
            eff.remote(nb.row, FieldId::new(0), 1.0);
            eff.remote(nb.row, FieldId::new(1), my_pos.dist_linf(nb.agent.pos()));
        }
    }
    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        let pings = me.effect(FieldId::new(0));
        me.set(FieldId::new(0), me.get(FieldId::new(0)) + pings);
        me.pos.x += ctx.rng.range(-0.3, 0.3);
    }
}

/// Non-local model with arbitrary float aggregation: serial and sharded
/// runs may legitimately differ in the last bit (re-association), but any
/// two runs of the *same shard plan* must agree bitwise regardless of
/// thread count — that is the determinism contract.
struct NonlocalFloat(AgentSchema);

impl NonlocalFloat {
    fn new(vis: f64) -> Self {
        NonlocalFloat(
            AgentSchema::builder("NonlocalFloat")
                .effect("w", Combinator::Sum)
                .visibility(vis)
                .reachability(0.5)
                .nonlocal_effects(true)
                .build()
                .unwrap(),
        )
    }
}

impl Behavior for NonlocalFloat {
    fn schema(&self) -> &AgentSchema {
        &self.0
    }
    fn query(&self, me: AgentRef<'_>, nbrs: &Neighbors<'_>, eff: &mut EffectWriter<'_>, rng: &mut DetRng) {
        let my_pos = me.pos();
        for nb in nbrs.iter() {
            eff.remote(nb.row, FieldId::new(0), (my_pos.x - nb.agent.pos().x) * rng.range(0.01, 2.7));
        }
    }
    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        me.pos.y += ctx.rng.range(-0.2, 0.2);
    }
}

/// Update-phase model exercising spawns, kills and RNG in one pass.
struct Churn(AgentSchema);

impl Churn {
    fn new() -> Self {
        Churn(AgentSchema::builder("Churn").state("age").visibility(1.0).reachability(2.0).build().unwrap())
    }
}

impl Behavior for Churn {
    fn schema(&self) -> &AgentSchema {
        &self.0
    }
    fn query(&self, _m: AgentRef<'_>, _n: &Neighbors<'_>, _e: &mut EffectWriter<'_>, _rng: &mut DetRng) {}
    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        me.set(FieldId::new(0), me.get(FieldId::new(0)) + 1.0);
        if ctx.rng.chance(0.15) {
            ctx.spawn(me.pos + Vec2::new(0.1, -0.1), vec![0.0]);
        }
        if ctx.rng.chance(0.1) {
            me.alive = false;
        }
        me.pos.x += ctx.rng.range(-1.5, 1.5);
    }
}

/// Churn plus a float-effect query: the full lifecycle model for the
/// pool ≡ reference end-to-end property (spawns, kills, movement, effect
/// aggregation all in one world).
struct ChurnField(AgentSchema);

impl ChurnField {
    fn new(vis: f64) -> Self {
        ChurnField(
            AgentSchema::builder("ChurnField")
                .state("age")
                .effect("mass", Combinator::Sum)
                .effect("near", Combinator::Min)
                .visibility(vis)
                .reachability(1.5)
                .build()
                .unwrap(),
        )
    }
}

impl Behavior for ChurnField {
    fn schema(&self) -> &AgentSchema {
        &self.0
    }
    fn query(&self, me: AgentRef<'_>, nbrs: &Neighbors<'_>, eff: &mut EffectWriter<'_>, _rng: &mut DetRng) {
        let my_pos = me.pos();
        for nb in nbrs.iter() {
            let d = my_pos.dist_linf(nb.agent.pos());
            eff.local(FieldId::new(0), 1.0 / (1.0 + d));
            eff.local(FieldId::new(1), d);
        }
    }
    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        me.set(FieldId::new(0), me.get(FieldId::new(0)) + 1.0);
        let mass = me.effect(FieldId::new(0));
        if ctx.rng.chance(0.1) && mass < 3.0 {
            ctx.spawn(me.pos + Vec2::new(0.2, 0.2), vec![0.0]);
        }
        if ctx.rng.chance(0.08) {
            me.alive = false;
            return;
        }
        me.pos.x += ctx.rng.range(-1.2, 1.2);
        me.pos.y += ctx.rng.range(-1.2, 1.2);
    }
}

/// Collecting k-NN helper for assertions over `k_nearest_into`.
fn knn<I: SpatialIndex>(idx: &I, q: Vec2, k: usize) -> Vec<u32> {
    let mut out = Vec::new();
    idx.k_nearest_into(q, k, None, &mut out);
    out
}

fn random_population(schema: &AgentSchema, n: usize, seed: u64) -> Vec<Agent> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..n)
        .map(|i| Agent::new(AgentId::new(i as u64), Vec2::new(rng.range(0.0, 40.0), rng.range(0.0, 40.0)), schema))
        .collect()
}

/// Assert two effect tables agree bitwise on every row.
fn assert_tables_bit_identical(a: &EffectTable, b: &EffectTable, rows: usize) -> Result<(), String> {
    for r in 0..rows as u32 {
        let (ra, rb) = (a.row(r), b.row(r));
        let same = ra.len() == rb.len() && ra.iter().zip(&rb).all(|(x, y)| x.to_bits() == y.to_bits());
        if !same {
            return Err(format!("row {r} differs: {ra:?} vs {rb:?}"));
        }
    }
    Ok(())
}

fn schema_with(comb: Combinator) -> AgentSchema {
    AgentSchema::builder("P").effect("e", comb).nonlocal_effects(true).build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Splitting an assignment stream across "partitions", aggregating
    /// partially, and ⊕-merging equals aggregating the whole stream — for
    /// every combinator, every split point, every permutation. This is the
    /// exact algebraic fact the second reduce pass relies on.
    #[test]
    fn partial_aggregation_merges_exactly(
        comb in any_combinator(),
        values in prop::collection::vec(-100.0f64..100.0, 0..24),
        split in 0usize..24,
        swap in any::<bool>(),
    ) {
        let schema = schema_with(comb);
        let split = split.min(values.len());
        // Whole-stream aggregate (lattice ops are exactly associative;
        // Sum/Prod get a tolerance below).
        let mut whole = EffectTable::new(&schema);
        whole.reset(1);
        for &v in &values {
            whole.combine(0, brace_common::FieldId::new(0), v);
        }
        // Two partitions, merged in either order.
        let (a, b) = values.split_at(split);
        let (a, b) = if swap { (b, a) } else { (a, b) };
        let mut pa = EffectTable::new(&schema);
        pa.reset(1);
        for &v in a {
            pa.combine(0, brace_common::FieldId::new(0), v);
        }
        let mut pb = EffectTable::new(&schema);
        pb.reset(1);
        for &v in b {
            pb.combine(0, brace_common::FieldId::new(0), v);
        }
        pa.merge_row(0, &pb.row(0));
        let (w, m) = (whole.row(0)[0], pa.row(0)[0]);
        match comb {
            Combinator::Sum | Combinator::Prod => {
                let scale = w.abs().max(m.abs()).max(1.0);
                prop_assert!((w - m).abs() <= 1e-9 * scale, "{} vs {}", w, m);
            }
            _ => prop_assert_eq!(w.to_bits(), m.to_bits()),
        }
    }

    /// Appendix A, as a property: the partitioned spatial join equals the
    /// single-node join for arbitrary populations, visibilities and grid
    /// shapes.
    #[test]
    fn partitioned_join_always_equals_reference(
        seed in 0u64..1000,
        n in 1usize..120,
        vis in 0.0f64..30.0,
        cols in 1usize..6,
        rows in 1usize..4,
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let points: Vec<Vec2> =
            (0..n).map(|_| Vec2::new(rng.range(-20.0, 120.0), rng.range(-20.0, 120.0))).collect();
        let part = GridPartitioning::uniform(Rect::from_bounds(0.0, 100.0, 0.0, 100.0), cols, rows);
        let mut reference = nested_loop_join(&points, vis);
        let mut got = partitioned_join(&points, &part, vis);
        reference.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(reference, got);
    }

    /// Replication invariant: agent a is shipped to partition p iff a lies
    /// in p's visible region.
    #[test]
    fn replication_is_exactly_visible_region_membership(
        seed in 0u64..1000,
        n in 1usize..80,
        vis in 0.0f64..25.0,
        cols in 1usize..6,
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let points: Vec<Vec2> =
            (0..n).map(|_| Vec2::new(rng.range(-10.0, 110.0), rng.range(0.0, 50.0))).collect();
        let part = GridPartitioning::columns(0.0, 100.0, cols);
        let slices = distribute(&points, &part, vis);
        for (p, slice) in slices.iter().enumerate() {
            let vr = part.visible_region(brace_common::PartitionId::new(p as u32), vis);
            for (i, pt) in points.iter().enumerate() {
                let shipped = slice.visible.contains(&(i as u32));
                prop_assert_eq!(
                    shipped,
                    vr.contains(*pt),
                    "agent {} at {} vs partition {} visible region {}",
                    i, pt, p, vr
                );
            }
        }
    }

    /// All three spatial indexes answer every range query identically.
    #[test]
    fn all_indexes_agree_on_range_queries(
        seed in 0u64..1000,
        n in 0usize..150,
        probes in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0, 0.0f64..40.0), 1..8),
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let pts: Vec<(Vec2, u32)> =
            (0..n).map(|i| (Vec2::new(rng.range(0.0, 100.0), rng.range(0.0, 100.0)), i as u32)).collect();
        let kd = KdTree::build(&pts);
        let grid = UniformGrid::build(&pts);
        let scan = ScanIndex::build(&pts);
        for (x, y, r) in probes {
            let rect = Rect::centered(Vec2::new(x, y), r);
            let mut a = Vec::new();
            let mut b = Vec::new();
            let mut c = Vec::new();
            kd.range(&rect, &mut a);
            grid.range(&rect, &mut b);
            scan.range(&rect, &mut c);
            a.sort_unstable();
            b.sort_unstable();
            c.sort_unstable();
            prop_assert_eq!(&a, &c, "kd vs scan");
            prop_assert_eq!(&b, &c, "grid vs scan");
        }
    }

    /// Codec round-trips preserve agents bit-for-bit, including NaN-free
    /// extremes and dead agents.
    #[test]
    fn agent_codec_round_trips(
        id in any::<u64>(),
        x in -1e12f64..1e12,
        y in -1e12f64..1e12,
        state in prop::collection::vec(-1e9f64..1e9, 0..6),
        effects in prop::collection::vec(-1e9f64..1e9, 0..6),
        alive in any::<bool>(),
    ) {
        let a = Agent { id: AgentId::new(id), pos: Vec2::new(x, y), state, effects, alive };
        let decoded = codec::decode_agents(codec::encode_agents(std::slice::from_ref(&a)));
        prop_assert_eq!(vec![a], decoded);
    }

    /// Pool conversion round-trips preserve agents bit-for-bit: the
    /// serialization boundary (checkpoints, transfers) cannot corrupt a
    /// world that passed through the columnar representation.
    #[test]
    fn pool_conversion_round_trips(
        seed in 0u64..10_000,
        n in 0usize..60,
        n_states in 0usize..4,
        n_effects in 0usize..4,
    ) {
        let mut b = AgentSchema::builder("RT");
        for i in 0..n_states {
            b = b.state(format!("s{i}"));
        }
        for i in 0..n_effects {
            b = b.effect(format!("e{i}"), Combinator::Sum);
        }
        let schema = b.build().unwrap();
        let mut rng = DetRng::seed_from_u64(seed);
        let agents: Vec<Agent> = (0..n)
            .map(|i| {
                let mut a = Agent::new(AgentId::new(i as u64), Vec2::new(rng.unit(), rng.unit()), &schema);
                for s in &mut a.state {
                    *s = rng.range(-1e6, 1e6);
                }
                for e in &mut a.effects {
                    *e = rng.range(-1e6, 1e6);
                }
                a.alive = rng.chance(0.9);
                a
            })
            .collect();
        let pool = AgentPool::from_agents(&schema, &agents);
        prop_assert_eq!(pool.to_agents(), agents);
    }

    /// Snapshot round-trips preserve the whole worker state.
    #[test]
    fn snapshot_codec_round_trips(
        tick in any::<u64>(),
        next in any::<u64>(),
        seed in any::<u64>(),
        n in 0usize..20,
    ) {
        let schema = AgentSchema::builder("S").state("v").effect("e", Combinator::Sum).build().unwrap();
        let mut rng = DetRng::seed_from_u64(seed);
        let agents: Vec<Agent> = (0..n)
            .map(|i| {
                let mut a = Agent::new(AgentId::new(i as u64), Vec2::new(rng.unit(), rng.unit()), &schema);
                a.state[0] = rng.range(-5.0, 5.0);
                a
            })
            .collect();
        let snap = codec::WorkerSnapshot { tick, next_spawn_id: next, rng, agents };
        let back = codec::decode_snapshot(codec::encode_snapshot(&snap));
        prop_assert_eq!(snap, back);
    }

    /// All three indexes agree on k-NN — exactly, including ties, because
    /// every implementation breaks ties by ascending payload.
    #[test]
    fn all_indexes_agree_on_knn(
        seed in 0u64..1000,
        n in 0usize..120,
        k in 1usize..12,
        qx in -20.0f64..120.0,
        qy in -20.0f64..120.0,
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let pts: Vec<(Vec2, u32)> =
            (0..n).map(|i| (Vec2::new(rng.range(0.0, 100.0), rng.range(0.0, 100.0)), i as u32)).collect();
        let kd = KdTree::build(&pts);
        let grid = UniformGrid::build(&pts);
        let scan = ScanIndex::build(&pts);
        let q = Vec2::new(qx, qy);
        let a = knn(&kd, q, k);
        let b = knn(&grid, q, k);
        let c = knn(&scan, q, k);
        prop_assert_eq!(&a, &c, "kd vs scan");
        prop_assert_eq!(&b, &c, "grid vs scan");
        // Sorted ascending by distance, and buffer-reuse variant agrees.
        let dists: Vec<f64> = c.iter().map(|&i| pts[i as usize].0.dist2(q)).collect();
        prop_assert!(dists.windows(2).all(|w| w[0] <= w[1]));
        let mut buf = vec![7u32; 3];
        kd.k_nearest_into(q, k, None, &mut buf);
        prop_assert_eq!(buf, a);
    }

    /// KD-tree nearest neighbor matches brute force for arbitrary inputs.
    #[test]
    fn kdtree_nearest_matches_brute_force(
        seed in 0u64..1000,
        n in 1usize..100,
        qx in -50.0f64..150.0,
        qy in -50.0f64..150.0,
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let pts: Vec<(Vec2, u32)> =
            (0..n).map(|i| (Vec2::new(rng.range(0.0, 100.0), rng.range(0.0, 100.0)), i as u32)).collect();
        let kd = KdTree::build(&pts);
        let q = Vec2::new(qx, qy);
        let got = kd.nearest(q, None).unwrap();
        let best = pts.iter().map(|&(p, _)| p.dist2(q)).fold(f64::INFINITY, f64::min);
        prop_assert!((pts[got as usize].0.dist2(q) - best).abs() < 1e-12);
    }

    /// Incrementally maintained indexes answer every query exactly like a
    /// fresh rebuild over the moved points — across several rounds of
    /// bounded motion, for every index kind, including after lazy
    /// restructuring (`maintain`).
    #[test]
    fn incremental_maintenance_equals_fresh_rebuild(
        seed in 0u64..10_000,
        n in 1usize..120,
        rounds in 1usize..6,
        move_frac in 0.0f64..1.0,
        step in 0.0f64..2.0,
        k in 1usize..8,
        budget in 0.0f64..3.0,
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut pts: Vec<(Vec2, u32)> =
            (0..n).map(|i| (Vec2::new(rng.range(0.0, 60.0), rng.range(0.0, 60.0)), i as u32)).collect();
        let mut kd = KdTree::build(&pts);
        let mut grid = UniformGrid::build(&pts);
        let mut scan = ScanIndex::build(&pts);
        for _ in 0..rounds {
            let mut moved: Vec<(u32, Vec2)> = Vec::new();
            for &(p, payload) in &pts {
                if rng.chance(move_frac) {
                    moved.push((payload, p + Vec2::new(rng.range(-step, step), rng.range(-step, step))));
                }
            }
            for &(payload, new) in &moved {
                pts[payload as usize].0 = new;
            }
            // The KD-tree declines dense batches by contract (a rebuild
            // is cheaper); the caller rebuilds — same as the executor.
            if !kd.update(&moved) {
                kd = KdTree::build(&pts);
            }
            prop_assert!(grid.update(&moved), "grid update must apply for dense payloads");
            prop_assert!(scan.update(&moved), "scan update must apply for dense payloads");
            kd.maintain(budget);
            grid.maintain(budget);
            scan.maintain(budget);
            let fresh = KdTree::build(&pts);
            for _ in 0..8 {
                let q = Vec2::new(rng.range(-10.0, 70.0), rng.range(-10.0, 70.0));
                let rect = Rect::centered(q, rng.range(0.0, 10.0));
                let mut want = Vec::new();
                fresh.range(&rect, &mut want);
                want.sort_unstable();
                for (name, got) in [
                    ("kd", {
                        let mut v = Vec::new();
                        kd.range(&rect, &mut v);
                        v
                    }),
                    ("grid", {
                        let mut v = Vec::new();
                        grid.range(&rect, &mut v);
                        v
                    }),
                    ("scan", {
                        let mut v = Vec::new();
                        scan.range(&rect, &mut v);
                        v
                    }),
                ] {
                    let mut got = got;
                    got.sort_unstable();
                    prop_assert_eq!(&got, &want, "{} range diverged after incremental updates", name);
                }
                let want_knn = knn(&fresh, q, k);
                prop_assert_eq!(&knn(&kd, q, k), &want_knn, "kd k-NN diverged");
                prop_assert_eq!(&knn(&grid, q, k), &want_knn, "grid k-NN diverged");
                prop_assert_eq!(&knn(&scan, q, k), &want_knn, "scan k-NN diverged");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel executor ≡ serial executor (the sharded determinism contract)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Local-effect schemas: the sharded query phase must equal the serial
    /// reference bit for bit — for every index kind, shard granule, thread
    /// count, population and visibility. Shards merge disjoint row slices
    /// by copy, so no float re-association can occur.
    #[test]
    fn sharded_query_equals_serial_for_local_effects(
        seed in 0u64..10_000,
        n in 1usize..220,
        owned_frac in 0.3f64..1.0,
        vis in 0.4f64..8.0,
        kind in any_index_kind(),
        shard_rows in 1usize..40,
        threads in 1usize..5,
    ) {
        let b = LocalFloat::new(vis);
        let agents = random_population(b.schema(), n, seed);
        let n_owned = ((n as f64 * owned_frac) as usize).max(1);
        let pool = AgentPool::from_agents(b.schema(), &agents);
        let mut serial = EffectTable::new(b.schema());
        let s_stats = query_phase(&b, &pool, n_owned, kind, &mut serial, 3, seed);
        let mut sh_pool = AgentPool::from_agents(b.schema(), &agents);
        let mut index = MaintainedIndex::new(kind);
        let mut scratch = TickScratch::new();
        let p_stats = query_phase_sharded_with(
            &b, &mut sh_pool, n_owned, &mut index, 3, seed, &mut scratch, shard_rows, threads,
            QueryKernel::Batched,
        );
        prop_assert_eq!(s_stats.neighbor_visits, p_stats.neighbor_visits);
        prop_assert_eq!(s_stats.nonlocal_writes, p_stats.nonlocal_writes);
        assert_tables_bit_identical(&serial, sh_pool.effects(), n)?;
    }

    /// Non-local schemas whose aggregation is exactly associative (integer
    /// Sum, lattice Min): shard ⊕-merges re-associate, but on these values
    /// re-association is exact, so parallel must still equal serial at the
    /// bit level — including the partial rows of replica agents.
    #[test]
    fn sharded_query_equals_serial_for_exact_nonlocal_effects(
        seed in 0u64..10_000,
        n in 2usize..160,
        owned_frac in 0.3f64..1.0,
        vis in 0.4f64..8.0,
        kind in any_index_kind(),
        shard_rows in 1usize..40,
        threads in 1usize..5,
    ) {
        let b = NonlocalExact::new(vis);
        let agents = random_population(b.schema(), n, seed);
        let n_owned = ((n as f64 * owned_frac) as usize).max(1);
        let pool = AgentPool::from_agents(b.schema(), &agents);
        let mut serial = EffectTable::new(b.schema());
        query_phase(&b, &pool, n_owned, kind, &mut serial, 1, seed);
        let mut sh_pool = AgentPool::from_agents(b.schema(), &agents);
        let mut index = MaintainedIndex::new(kind);
        let mut scratch = TickScratch::new();
        query_phase_sharded_with(
            &b, &mut sh_pool, n_owned, &mut index, 1, seed, &mut scratch, shard_rows, threads,
            QueryKernel::Batched,
        );
        assert_tables_bit_identical(&serial, sh_pool.effects(), n)?;
    }

    /// Non-local schemas with arbitrary float aggregation: the thread count
    /// must never influence the result — only the (deterministic) shard
    /// plan defines the reduction tree. Same granule, different thread
    /// counts ⇒ bitwise identical tables.
    #[test]
    fn sharded_query_is_thread_count_invariant_for_float_nonlocal(
        seed in 0u64..10_000,
        n in 2usize..180,
        vis in 0.4f64..8.0,
        kind in any_index_kind(),
        shard_rows in 1usize..30,
        threads_a in 1usize..6,
        threads_b in 1usize..6,
    ) {
        let b = NonlocalFloat::new(vis);
        let agents = random_population(b.schema(), n, seed);
        let run = |threads: usize| {
            let mut pool = AgentPool::from_agents(b.schema(), &agents);
            let mut index = MaintainedIndex::new(kind);
            let mut scratch = TickScratch::new();
            query_phase_sharded_with(
                &b, &mut pool, n, &mut index, 2, seed, &mut scratch, shard_rows, threads,
                QueryKernel::Batched,
            );
            pool
        };
        let (pa, pb) = (run(threads_a), run(threads_b));
        assert_tables_bit_identical(pa.effects(), pb.effects(), n)?;
    }

    /// The sharded update phase (spawns, kills, RNG, movement cropping)
    /// must reproduce the serial reference exactly for every thread count:
    /// same survivors, same new states, same spawn ids in the same order.
    #[test]
    fn sharded_update_equals_serial(
        seed in 0u64..10_000,
        n in 1usize..300,
        threads in 1usize..6,
        tick in 0u64..50,
    ) {
        let b = Churn::new();
        let mut serial_agents = random_population(b.schema(), n, seed);
        let mut pool = AgentPool::from_agents(b.schema(), &serial_agents);
        let mut gen_a = AgentIdGen::from(n as u64);
        let mut gen_b = AgentIdGen::from(n as u64);
        let s = update_phase(&b, &mut serial_agents, tick, seed, &mut gen_a);
        let mut scratch = TickScratch::new();
        let p = update_phase_sharded(&b, &mut pool, tick, seed, &mut gen_b, &mut scratch, threads);
        prop_assert_eq!(s.spawned, p.spawned);
        prop_assert_eq!(s.killed, p.killed);
        prop_assert_eq!(serial_agents, pool.to_agents());
    }

    /// End to end: a multi-tick simulation stepped under different thread
    /// budgets converges on bitwise-identical worlds (local-effect model,
    /// spawning population crossing shard boundaries).
    #[test]
    fn executor_is_parallelism_invariant_end_to_end(
        seed in 0u64..10_000,
        n in 2usize..120,
        vis in 0.5f64..5.0,
        kind in any_index_kind(),
        threads in 2usize..5,
    ) {
        let run = |parallelism: usize| {
            let b = LocalFloat::new(vis);
            let agents = random_population(b.schema(), n, seed);
            let mut exec = brace_core::Simulation::new(b, agents, kind, seed);
            exec.set_parallelism(parallelism);
            exec.run(6);
            exec.agents()
        };
        prop_assert_eq!(run(1), run(threads));
    }

    /// End to end: the pool-backed sharded executor (persistent scratch,
    /// incremental index maintenance, columnar effects) produces a world
    /// bit-identical to the `Vec<Agent>` reference path (per-tick pool
    /// conversion, fresh index build, serial phases) — across seeds,
    /// models with churn, visibilities and every index kind.
    #[test]
    fn pool_executor_equals_vec_agent_reference(
        seed in 0u64..10_000,
        n in 2usize..100,
        vis in 0.5f64..5.0,
        kind in any_index_kind(),
        ticks in 1u64..6,
        threads in 1usize..4,
    ) {
        let b = ChurnField::new(vis);
        let mut world = random_population(b.schema(), n, seed);
        let mut exec = brace_core::Simulation::new(ChurnField::new(vis), world.clone(), kind, seed);
        exec.set_parallelism(threads);
        let mut id_gen = AgentIdGen::from(n as u64);
        for tick in 0..ticks {
            exec.step();
            reference_step(&b, &mut world, kind, tick, seed, &mut id_gen);
        }
        prop_assert_eq!(exec.agents(), world);
    }

    /// End to end: incremental index maintenance never changes results —
    /// the executor under `Incremental` equals the executor under
    /// `Rebuild` bit for bit, for every model shape and index kind.
    #[test]
    fn incremental_executor_equals_rebuild_executor(
        seed in 0u64..10_000,
        n in 2usize..120,
        vis in 0.5f64..5.0,
        kind in any_index_kind(),
        ticks in 1u64..8,
    ) {
        let run = |mode: IndexMaintenance| {
            let b = LocalFloat::new(vis);
            let agents = random_population(b.schema(), n, seed);
            let mut exec = brace_core::Simulation::new(b, agents, kind, seed);
            exec.set_index_maintenance(mode);
            exec.run(ticks);
            exec.agents()
        };
        prop_assert_eq!(run(IndexMaintenance::Incremental), run(IndexMaintenance::Rebuild));
    }
}

// ---------------------------------------------------------------------------
// Kernel conformance: batched lane kernels ≡ scalar per-row paths, bitwise
// (the contract of the `kernels` layer; CI reruns this section with
// PROPTEST_CASES=256)
// ---------------------------------------------------------------------------

use brace_models::{
    fish, traffic, FishBehavior, FishParams, PredatorBehavior, PredatorParams, TrafficBehavior, TrafficParams,
};

/// Point sets that stress the lane kernels' compare/select paths: ordinary
/// coordinates salted with signed zeros, subnormals and coincident pairs
/// (NaN-free — NaN positions are a model bug the executor debug-asserts
/// against).
fn edge_points(n: usize, seed: u64) -> Vec<(Vec2, u32)> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut pts: Vec<(Vec2, u32)> =
        (0..n).map(|i| (Vec2::new(rng.range(-40.0, 40.0), rng.range(-40.0, 40.0)), i as u32)).collect();
    for i in 0..n {
        match i % 9 {
            1 => pts[i].0.x = 0.0,
            3 => pts[i].0.y = -0.0,
            5 => pts[i].0.x = f64::from_bits(1),   // smallest subnormal
            7 if i > 0 => pts[i].0 = pts[i - 1].0, // coincident pair
            _ => {}
        }
    }
    pts
}

/// Bitwise world equality: stricter than `Agent == Agent` (which treats
/// `0.0 == -0.0`), because the kernel contract is bit-identity.
fn worlds_bit_identical(a: &[Agent], b: &[Agent]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("world sizes differ: {} vs {}", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(b) {
        let same = x.id == y.id
            && x.alive == y.alive
            && x.pos.x.to_bits() == y.pos.x.to_bits()
            && x.pos.y.to_bits() == y.pos.y.to_bits()
            && x.state.len() == y.state.len()
            && x.state.iter().zip(&y.state).all(|(u, v)| u.to_bits() == v.to_bits())
            && x.effects.len() == y.effects.len()
            && x.effects.iter().zip(&y.effects).all(|(u, v)| u.to_bits() == v.to_bits());
        if !same {
            return Err(format!("agent {} diverged:\n  batched: {:?}\n  scalar:  {:?}", x.id, x, y));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Range filter: for every index kind, the batched path (coarse
    /// emission + lane-kernel containment) produces exactly the candidates
    /// of the scalar `range` — the same *sequence* for canonical indexes
    /// (scan, grid), the same *set* for the KD-tree — across random
    /// populations including empty/singleton sets, signed zeros, denormals
    /// and coincident points.
    #[test]
    fn kernel_range_filter_batched_equals_scalar(
        seed in 0u64..10_000,
        n in 0usize..170,
        probes in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0, 0.0f64..30.0), 1..8),
    ) {
        let pts = edge_points(n, seed);
        let kd = KdTree::build(&pts);
        let grid = UniformGrid::build(&pts);
        let scan = ScanIndex::build(&pts);
        for (x, y, r) in probes {
            let rect = Rect::centered(Vec2::new(x, y), r);
            let (mut batched, mut scalar) = (Vec::new(), Vec::new());
            scan.range_batch(&rect, &mut batched);
            scan.range(&rect, &mut scalar);
            prop_assert_eq!(&batched, &scalar, "scan sequence diverged");
            batched.clear();
            scalar.clear();
            grid.range_batch(&rect, &mut batched);
            grid.range(&rect, &mut scalar);
            prop_assert_eq!(&batched, &scalar, "grid sequence diverged");
            batched.clear();
            scalar.clear();
            kd.range_batch(&rect, &mut batched);
            kd.range(&rect, &mut scalar);
            batched.sort_unstable();
            scalar.sort_unstable();
            prop_assert_eq!(&batched, &scalar, "kd set diverged");
        }
    }

    /// Grid bucket arena under churn: across rounds of migration (bounded
    /// moves, applied through `update`), spawns and kills (row-mapping
    /// changes, applied through a rebuild — exactly the executor's
    /// contract), the incrementally maintained grid's native-batched
    /// emission, its scalar emission, and a fresh build over the same
    /// point set are all bit-identical — and globally ascending by
    /// payload, the canonical order the pre-arena grid emitted. This pins
    /// the SoA arena (run relocation, slack slots, dead-slot compaction)
    /// as invisible to every query path.
    #[test]
    fn grid_arena_churn_preserves_canonical_emission(
        seed in 0u64..10_000,
        n in 1usize..120,
        cell in 0.5f64..12.0,
        rounds in 1usize..6,
        move_frac in 0.0f64..1.0,
        step in 0.0f64..15.0,
        churn in 0.0f64..0.4,
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut pts: Vec<(Vec2, u32)> =
            (0..n).map(|i| (Vec2::new(rng.range(0.0, 60.0), rng.range(0.0, 60.0)), i as u32)).collect();
        let mut grid = UniformGrid::with_cell(&pts, cell);
        for _ in 0..rounds {
            // Migration: bounded moves through the incremental path (large
            // steps cross buckets, forcing run relocation in the arena).
            let mut moved: Vec<(u32, Vec2)> = Vec::new();
            for &(p, payload) in &pts {
                if rng.chance(move_frac) {
                    moved.push((payload, p + Vec2::new(rng.range(-step, step), rng.range(-step, step))));
                }
            }
            for &(payload, new) in &moved {
                pts[payload as usize].0 = new;
            }
            prop_assert!(grid.update(&moved), "grid update must apply for dense payloads");
            // Spawns and kills change the row mapping; the executor
            // rebuilds (`MaintainedIndex` falls back on mapping changes) —
            // with compacted payloads, as the pool compacts rows.
            if rng.chance(churn) {
                let kills = (rng.below(1 + pts.len() as u64 / 4)) as usize;
                for _ in 0..kills.min(pts.len().saturating_sub(1)) {
                    let victim = rng.below(pts.len() as u64) as usize;
                    pts.swap_remove(victim);
                }
                let spawns = rng.below(12);
                for _ in 0..spawns {
                    pts.push((Vec2::new(rng.range(0.0, 60.0), rng.range(0.0, 60.0)), 0));
                }
                for (i, p) in pts.iter_mut().enumerate() {
                    p.1 = i as u32;
                }
                grid = UniformGrid::with_cell(&pts, cell);
            }
            let fresh = UniformGrid::with_cell(&pts, cell);
            for _ in 0..6 {
                let q = Vec2::new(rng.range(-10.0, 70.0), rng.range(-10.0, 70.0));
                let rect = Rect::centered(q, rng.range(0.0, 20.0));
                let (mut batched, mut scalar, mut rebuilt) = (Vec::new(), Vec::new(), Vec::new());
                grid.range_batch(&rect, &mut batched);
                grid.range(&rect, &mut scalar);
                fresh.range_batch(&rect, &mut rebuilt);
                prop_assert_eq!(&batched, &scalar, "maintained grid: batched vs scalar diverged");
                prop_assert_eq!(&batched, &rebuilt, "maintained vs fresh-build emission diverged");
                prop_assert!(batched.windows(2).all(|w| w[0] < w[1]), "emission not ascending: {:?}", batched);
            }
        }
    }

    /// k-NN: the batched gather (squared distances as one lane kernel over
    /// the columns) selects exactly the scalar brute-force sequence —
    /// canonical (distance, payload) order, exclusion respected — for
    /// every index kind, including empty and singleton point sets.
    #[test]
    fn kernel_knn_batched_equals_scalar(
        seed in 0u64..10_000,
        n in 0usize..140,
        k in 1usize..10,
        qx in -50.0f64..50.0,
        qy in -50.0f64..50.0,
        exclude in 0u32..150,
    ) {
        let pts = edge_points(n, seed);
        let q = Vec2::new(qx, qy);
        let exclude = if n == 0 { None } else { Some(exclude % n as u32) };
        // Scalar reference: the exact per-point arithmetic and canonical
        // selection the batched path must reproduce.
        let mut want: Vec<(f64, u32)> = pts
            .iter()
            .filter(|&&(_, pl)| Some(pl) != exclude)
            .map(|&(p, pl)| (p.dist2(q), pl))
            .collect();
        want.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        want.truncate(k);
        let want: Vec<u32> = want.into_iter().map(|(_, pl)| pl).collect();
        for (name, got) in [
            ("scan", {
                let mut out = Vec::new();
                ScanIndex::build(&pts).k_nearest_into(q, k, exclude, &mut out);
                out
            }),
            ("grid", {
                let mut out = Vec::new();
                UniformGrid::build(&pts).k_nearest_into(q, k, exclude, &mut out);
                out
            }),
            ("kd", {
                let mut out = Vec::new();
                KdTree::build(&pts).k_nearest_into(q, k, exclude, &mut out);
                out
            }),
        ] {
            prop_assert_eq!(&got, &want, "{} k-NN diverged from scalar reference", name);
        }
    }

    /// Fish forces: the batched force kernel (vectorized distances and
    /// unit directions, ordered emission) is bit-identical to the scalar
    /// per-row query over multi-tick runs — random schools salted with a
    /// coincident pair (distance zero exercises the degenerate-direction
    /// select), every index kind, serial and sharded-parallel.
    #[test]
    fn kernel_fish_forces_batched_equals_scalar(
        seed in 0u64..10_000,
        n in 0usize..90,
        kind in any_index_kind(),
        ticks in 1u64..5,
        threads in 1usize..4,
    ) {
        let params = FishParams { school_radius: 8.0, ..FishParams::default() };
        let mut pop = FishBehavior::new(params.clone()).population(n, seed);
        if n >= 2 {
            pop[1].pos = pop[0].pos; // coincident pair
        }
        let run = |kernel: QueryKernel| {
            let mut exec =
                brace_core::Simulation::new(FishBehavior::new(params.clone()), pop.clone(), kind, seed);
            exec.set_parallelism(threads);
            exec.set_query_kernel(kernel);
            exec.run(ticks);
            exec.agents()
        };
        worlds_bit_identical(&run(QueryKernel::Batched), &run(QueryKernel::Scalar))?;
    }

    /// Traffic gap scan: the batched kernel (vectorized offsets/gaps,
    /// ordered nearest-per-lane fold) is bit-identical to the scalar query
    /// over multi-tick runs with churn (exit + respawn), for both probe
    /// modes (range scan and k-NN) and every index kind.
    #[test]
    fn kernel_traffic_gap_scan_batched_equals_scalar(
        seed in 0u64..10_000,
        lanes in 1usize..5,
        density in 0.005f64..0.04,
        kind in any_index_kind(),
        ticks in 1u64..5,
        use_knn in any::<bool>(),
    ) {
        let params = TrafficParams {
            segment: 600.0,
            lanes,
            density,
            knn: use_knn.then_some(6),
            // Engage the gap-scan kernel (below the cost threshold by
            // default) so the equivalence under test is actually exercised.
            batch_engagement: Some(true),
            ..TrafficParams::default()
        };
        let pop = TrafficBehavior::new(params.clone()).population(seed);
        let run = |kernel: QueryKernel| {
            let mut exec =
                brace_core::Simulation::new(TrafficBehavior::new(params.clone()), pop.clone(), kind, seed);
            exec.set_query_kernel(kernel);
            exec.run(ticks);
            exec.agents()
        };
        worlds_bit_identical(&run(QueryKernel::Batched), &run(QueryKernel::Scalar))?;
    }

    /// Predator bite scan: the batched kernel (vectorized damage columns in
    /// both role assignments, scalar-gated emission in canonical candidate
    /// order) is bit-identical to the scalar query over multi-tick runs
    /// with the full population dynamics (bites, deaths, spawns), in both
    /// the non-local and the hand-inverted local form, for every index
    /// kind, serial and sharded-parallel.
    #[test]
    fn kernel_predator_bite_scan_batched_equals_scalar(
        seed in 0u64..10_000,
        n in 0usize..90,
        kind in any_index_kind(),
        ticks in 1u64..5,
        threads in 1usize..4,
        nonlocal in any::<bool>(),
    ) {
        let params = PredatorParams {
            nonlocal,
            // Engage the bite-scan kernel (below the cost threshold by
            // default) so the equivalence under test is actually exercised.
            batch_engagement: Some(true),
            ..PredatorParams::default()
        };
        let mut pop = PredatorBehavior::new(params.clone()).population(n, 12.0, seed);
        if n >= 2 {
            pop[1].pos = pop[0].pos; // coincident pair still scans cleanly
        }
        let run = |kernel: QueryKernel| {
            let mut exec =
                brace_core::Simulation::new(PredatorBehavior::new(params.clone()), pop.clone(), kind, seed);
            exec.set_parallelism(threads);
            exec.set_query_kernel(kernel);
            exec.run(ticks);
            exec.agents()
        };
        worlds_bit_identical(&run(QueryKernel::Batched), &run(QueryKernel::Scalar))?;
    }

    /// The model kernels' scalar tails, property-sized: candidate counts
    /// straddling the lane width produce per-element results identical to
    /// the shared scalar helpers (spot-checked against the per-candidate
    /// definitions; the `brace_spatial::kernels` unit tests pin the exact
    /// 0 / 1 / LANES±1 / 2·LANES−1 counts).
    #[test]
    fn kernel_model_maps_match_scalar_helpers(
        seed in 0u64..10_000,
        n in 0usize..11,
        mx in -5.0f64..5.0,
        my in -5.0f64..5.0,
    ) {
        let pts = edge_points(n, seed);
        let xs: Vec<f64> = pts.iter().map(|&(p, _)| p.x).collect();
        let ys: Vec<f64> = pts.iter().map(|&(p, _)| p.y).collect();
        let (mut d2, mut ux, mut uy) = (Vec::new(), Vec::new(), Vec::new());
        fish::force_kernel(&xs, &ys, mx, my, &mut d2, &mut ux, &mut uy);
        let (mut dx, mut lead, mut rear) = (Vec::new(), Vec::new(), Vec::new());
        traffic::gap_kernel(&xs, mx, 5.0, &mut dx, &mut lead, &mut rear);
        for i in 0..n {
            // Fish: the scalar definition, op for op.
            let (sdx, sdy) = (xs[i] - mx, ys[i] - my);
            let sd2 = sdx * sdx + sdy * sdy;
            let sd = sd2.sqrt();
            let (sux, suy) = if sd > f64::EPSILON { (sdx / sd, sdy / sd) } else { (0.0, 0.0) };
            prop_assert_eq!(d2[i].to_bits(), sd2.to_bits());
            prop_assert_eq!(ux[i].to_bits(), sux.to_bits());
            prop_assert_eq!(uy[i].to_bits(), suy.to_bits());
            // Traffic: the views_from_scan arithmetic, op for op.
            let sdxl = xs[i] - mx;
            prop_assert_eq!(dx[i].to_bits(), sdxl.to_bits());
            prop_assert_eq!(lead[i].to_bits(), ((sdxl - 5.0).max(0.0)).to_bits());
            prop_assert_eq!(rear[i].to_bits(), ((-sdxl - 5.0).max(0.0)).to_bits());
        }
    }
}

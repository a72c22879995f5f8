//! The tick executor: query phase, effect finalization, update phase —
//! sharded for intra-worker parallelism, columnar, and incremental about
//! its spatial index.
//!
//! The two phase functions ([`query_phase_sharded`], [`update_phase_sharded`])
//! are exposed separately because the distributed runtime interleaves
//! communication between them (Table 1 of the paper):
//!
//! ```text
//!   mapᵗ        = update phase of t−1 + distribute (runtime)
//!   reduceᵗ₁    = query phase over owned agents       (this module)
//!   reduceᵗ₂    = ⊕-merge of shipped partial effects  (EffectTable::merge_row)
//!   mapᵗ⁺¹      = update phase                         (this module)
//! ```
//!
//! The single-node [`Simulation`](crate::Simulation) simply calls them back
//! to back — it *is* the one-partition special case of the runtime, and the
//! integration tests exploit that: the distributed engine must produce
//! bit-identical agents.
//!
//! # Columnar working representation
//!
//! Both phases run over an [`AgentPool`] (struct-of-arrays; see
//! `crate::agent`). The query phase reads positions and state as flat
//! column scans through a copyable [`PoolView`], and the tick's aggregated
//! effects land directly in the pool's effect columns — there is no
//! separate final table and no per-tick `write_into` copy. `Vec<Agent>`
//! survives only at the serialization boundary; [`reference_step`] keeps a
//! row-oriented executable specification around for property tests.
//!
//! # Incremental index maintenance
//!
//! The reachability bound caps per-tick movement, so the spatial index is
//! *maintained*, not rebuilt: a [`MaintainedIndex`] diffs the pool's
//! position columns against the positions it indexed last tick, applies
//! only the rows that actually moved ([`SpatialIndex::update`] — grid
//! bucket moves, KD-tree in-place slot updates with bound expansion), and
//! lets the index restructure lazily once accumulated motion exceeds a
//! budget of half the visibility range ([`SpatialIndex::maintain`] — the
//! KD-tree's per-subtree rebuild threshold). A full rebuild happens only
//! when the row ↔ agent mapping changed (spawns, kills, repartitioning) or
//! an index reports it cannot maintain itself. The
//! [`IndexMaintenance::Rebuild`] mode forces the old rebuild-every-tick
//! behavior for ablations.
//!
//! Probe results are **canonicalized** per index kind: grid and scan emit
//! range candidates in an order that is already a pure function of the
//! point set (`SpatialIndex::RANGE_CANONICAL`), the KD-tree's candidates
//! are row-sorted here, and k-NN ties break by row everywhere — so a
//! maintained index and a fresh rebuild aggregate float effects in exactly
//! the same order and produce bit-identical effect tables.
//!
//! # Sharded execution model
//!
//! The state-effect pattern makes the per-partition query phase
//! embarrassingly parallel: queries read only frozen previous-tick state,
//! and effect assignments combine through associative, commutative ⊕
//! operators. The executor exploits this by cutting the owned-row range
//! into **logical shards** and running shards on a pool of scoped threads
//! (the `parallelism` knob; `0` means one thread per available core):
//!
//! * Each shard accumulates into its **own** [`EffectTable`] and reuses its
//!   own candidate scratch buffer, so the hot loop performs no allocation
//!   and no synchronization. All per-tick buffers live in a
//!   [`TickScratch`] that persists across ticks.
//! * For **local-effect** schemas a shard's writes land only in its own row
//!   range, so its table covers just that slice and the merge is a bitwise
//!   column-segment copy — parallel output is identical to serial output at
//!   the bit level, for any shard plan and any thread count.
//! * For **non-local** schemas any shard may write to any visible row, so
//!   every shard table spans the visible set and shards are ⊕-merged in
//!   ascending shard order.
//! * The inner probe loop is monomorphized over the concrete index type
//!   ([`ScanIndex`] / [`KdTree`] / [`UniformGrid`]): the `BuiltIndex`
//!   enum is dispatched once per tick, not once per probe.
//!
//! # Determinism argument
//!
//! The shard plan is a pure function of `(n_owned, has_nonlocal_effects)` —
//! **never** of the thread count — and shards merge in ascending order, so
//! the ⊕ reduction tree is fixed: running with 1 thread or 64 produces
//! bit-identical effect tables and agent states (`tests/properties.rs`
//! proves this across seeds, populations and every [`IndexKind`]). Relative
//! to the unsharded serial reference ([`query_phase`]), results are also
//! bit-identical whenever effects are local (copy-merge) or the combinators
//! are exactly associative on the values involved (the lattice ops
//! Min/Max/Or/And always; Sum/Prod on integer-valued effects) — the same
//! contract the distributed runtime already imposes on cross-partition
//! effect aggregation. Candidate canonicalization extends the argument
//! across index state: incremental maintenance ≡ rebuild-every-tick at the
//! bit level, for every model (also proven in `tests/properties.rs`). The
//! update phase parallelizes with any contiguous chunking: each agent's
//! update depends only on `(seed, tick, agent)`, and per-chunk spawn
//! queues are concatenated in chunk order, preserving the serial spawn-id
//! assignment exactly.
//!
//! # Visible-set convention
//!
//! The pool passed to the query phase holds the *owned* agents first
//! (rows `0..n_owned`) followed by replicas shipped from other partitions.
//! Queries run only for owned rows; effects may land on any row.

use crate::agent::{Agent, AgentPool, PoolView, UpdateChunk};
use crate::behavior::{BatchScratch, Behavior, NeighborBatch, NeighborProbe, Neighbors, UpdateCtx};
use crate::effect::{EffectTable, EffectWriter};
use crate::schema::AgentSchema;
use brace_common::ids::AgentIdGen;
use brace_common::{AgentId, DetRng, Vec2};
use brace_spatial::{IndexKind, KdTree, ScanIndex, SpatialIndex, UniformGrid};
use std::ops::Range;
use std::time::Instant;

/// Deterministic RNG stream for `(seed, tick, agent, phase)`. Phase 0 =
/// query, phase 1 = update. Placement- and order-independent by
/// construction.
#[inline]
pub fn agent_rng(seed: u64, tick: u64, agent: brace_common::AgentId, phase: u64) -> DetRng {
    DetRng::seed_from_u64(seed).stream(tick.wrapping_shl(1) | phase).stream(agent.raw())
}

/// Rows per logical shard of the query phase. Small enough to give a
/// thread pool slack for balancing, large enough that per-shard overhead
/// (a table reset and a merge) stays negligible.
pub const SHARD_ROWS: usize = 2048;

/// Shard-count cap for schemas with non-local effects, whose shard tables
/// span the whole visible set: bounds both memory (`shards × rows × width`)
/// and the ⊕-merge cost.
const MAX_NONLOCAL_SHARDS: usize = 8;

/// Fraction of the schema's visibility bound that accumulated index motion
/// may reach before the maintained index restructures (KD-tree subtree
/// rebuilds). Half the visible range keeps bounding-box inflation well
/// below the probe rectangle size, so pruning quality stays near-fresh.
const MOTION_BUDGET_VIS_FRACTION: f64 = 0.5;

/// The logical shard plan for `n_owned` rows: a pure function of the row
/// count, effect locality and the rows-per-shard granule — independent of
/// thread count, which is what makes parallel execution bit-reproducible
/// (see the module docs).
fn shard_count(n_owned: usize, nonlocal: bool, shard_rows: usize) -> usize {
    let k = n_owned.div_ceil(shard_rows.max(1));
    if nonlocal {
        k.min(MAX_NONLOCAL_SHARDS)
    } else {
        k
    }
}

/// Row range of shard `i` of `k` over `n` rows (balanced contiguous split).
fn shard_range(n: usize, k: usize, i: usize) -> Range<usize> {
    (i * n / k)..((i + 1) * n / k)
}

/// True when the id column is strictly increasing — the case for every
/// single-node pool (initial populations are id-ordered, spawns append
/// increasing ids, compaction preserves order). Distributed workers mutate
/// rows in place (swap-removal, persistent replica tails), so their pools
/// lose monotonicity; the query phase then canonicalizes candidates by
/// **agent id** instead of row, making per-agent neighbor iteration order —
/// and therefore float effect aggregation — a pure function of the agent
/// set, independent of row placement. When ids are monotone the two orders
/// coincide, so the fast row-order paths (and the committed golden
/// checksums) are untouched.
#[inline]
fn ids_strictly_increasing(ids: &[AgentId]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
}

/// Resolve a `parallelism` knob: `0` = one thread per available core.
pub fn effective_parallelism(parallelism: usize) -> usize {
    if parallelism == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        parallelism
    }
}

/// An index over the visible set. The enum exists so [`IndexKind`] can
/// live in run configuration; it is dispatched **once per tick** into a
/// monomorphized shard loop, so no per-probe branching remains in the hot
/// path.
enum BuiltIndex {
    Scan(ScanIndex),
    Kd(KdTree),
    Grid(UniformGrid),
}

impl BuiltIndex {
    fn build(kind: IndexKind, points: &[(Vec2, u32)], vis: f64) -> BuiltIndex {
        match kind {
            IndexKind::Scan => BuiltIndex::Scan(ScanIndex::build(points)),
            IndexKind::KdTree => BuiltIndex::Kd(KdTree::build(points)),
            IndexKind::Grid => {
                // Cell ≈ visibility is the classic tuning; fall back to the
                // auto heuristic when visibility is unbounded.
                if vis.is_finite() && vis > 0.0 {
                    BuiltIndex::Grid(UniformGrid::with_cell(points, vis))
                } else {
                    BuiltIndex::Grid(UniformGrid::build(points))
                }
            }
        }
    }

    fn update(&mut self, moved: &[(u32, Vec2)]) -> bool {
        match self {
            BuiltIndex::Scan(i) => i.update(moved),
            BuiltIndex::Kd(i) => i.update(moved),
            BuiltIndex::Grid(i) => i.update(moved),
        }
    }

    fn maintain(&mut self, motion_budget: f64) {
        match self {
            BuiltIndex::Scan(i) => i.maintain(motion_budget),
            BuiltIndex::Kd(i) => i.maintain(motion_budget),
            BuiltIndex::Grid(i) => i.maintain(motion_budget),
        }
    }
}

/// Which implementation of the query phase's probe loop the executor runs
/// (ablation knob, like [`IndexMaintenance`]). The two are bit-identical —
/// proven by the kernel conformance properties in `tests/properties.rs` —
/// so the knob only ever changes speed, never results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryKernel {
    /// Batched lane kernels (default): behaviors run through
    /// [`Behavior::query_batch`] (vectorized per-candidate math, ordered
    /// emission), and indexes whose batched filter is gather-free
    /// (`SpatialIndex::RANGE_BATCH_NATIVE` — the scan's native columns,
    /// the grid's bucket-major SoA arena) answer range probes through
    /// `range_batch` (containment as a lane kernel) instead of the
    /// per-point test.
    #[default]
    Batched,
    /// The per-row scalar path (`range` + [`Behavior::query`]) — the
    /// pre-kernel behavior, kept as the ablation baseline.
    Scalar,
}

/// Index maintenance policy of a [`MaintainedIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexMaintenance {
    /// Diff positions against the last sync and update the index in place;
    /// rebuild only on row-mapping changes (default).
    #[default]
    Incremental,
    /// Rebuild from scratch every tick (the pre-incremental behavior;
    /// kept as the ablation baseline).
    Rebuild,
}

/// A spatial index kept in sync with a pool's position columns across
/// ticks. Owns the policy described in the module docs: diff → in-place
/// update → lazy restructure, with full rebuilds only when the row ↔ agent
/// mapping changed or the index kind cannot maintain itself.
pub struct MaintainedIndex {
    kind: IndexKind,
    mode: IndexMaintenance,
    built: Option<BuiltIndex>,
    /// Ids as of the last sync: a cheap identity check that the pool's
    /// rows still mean the same agents (spawns/kills/redistribution all
    /// change this and force a rebuild).
    ids: Vec<AgentId>,
    /// Positions as of the last sync (the diff baseline).
    xs: Vec<f64>,
    ys: Vec<f64>,
    points: Vec<(Vec2, u32)>,
    moved: Vec<(u32, Vec2)>,
    rebuilds: u64,
    incremental_syncs: u64,
}

impl MaintainedIndex {
    pub fn new(kind: IndexKind) -> Self {
        Self::with_mode(kind, IndexMaintenance::default())
    }

    pub fn with_mode(kind: IndexKind, mode: IndexMaintenance) -> Self {
        MaintainedIndex {
            kind,
            mode,
            built: None,
            ids: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            points: Vec::new(),
            moved: Vec::new(),
            rebuilds: 0,
            incremental_syncs: 0,
        }
    }

    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    pub fn mode(&self) -> IndexMaintenance {
        self.mode
    }

    /// Switch policy (the next sync under `Rebuild` starts from scratch).
    pub fn set_mode(&mut self, mode: IndexMaintenance) {
        self.mode = mode;
    }

    /// Full builds performed so far (ablation statistic).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Syncs served by in-place updates (ablation statistic).
    pub fn incremental_syncs(&self) -> u64 {
        self.incremental_syncs
    }

    /// Bring the index up to date with `view`'s positions.
    fn sync(&mut self, view: PoolView<'_>, vis: f64) {
        let n = view.len();
        if let Some(built) = &mut self.built {
            if self.mode == IndexMaintenance::Incremental && self.ids.as_slice() == view.ids {
                self.moved.clear();
                for r in 0..n {
                    if view.xs[r].to_bits() != self.xs[r].to_bits() || view.ys[r].to_bits() != self.ys[r].to_bits() {
                        self.moved.push((r as u32, Vec2::new(view.xs[r], view.ys[r])));
                    }
                }
                if built.update(&self.moved) {
                    let budget = if vis.is_finite() && vis > 0.0 { MOTION_BUDGET_VIS_FRACTION * vis } else { 0.0 };
                    built.maintain(budget);
                    self.xs.clear();
                    self.xs.extend_from_slice(view.xs);
                    self.ys.clear();
                    self.ys.extend_from_slice(view.ys);
                    self.incremental_syncs += 1;
                    return;
                }
            }
        }
        self.points.clear();
        self.points.extend((0..n).map(|r| (Vec2::new(view.xs[r], view.ys[r]), r as u32)));
        self.built = Some(BuiltIndex::build(self.kind, &self.points, vis));
        self.ids.clear();
        self.xs.clear();
        self.ys.clear();
        if self.mode == IndexMaintenance::Incremental {
            // Diff baselines are only consumed by incremental syncs; the
            // Rebuild ablation must not pay (or time) the column copies.
            self.ids.extend_from_slice(view.ids);
            self.xs.extend_from_slice(view.xs);
            self.ys.extend_from_slice(view.ys);
        }
        self.rebuilds += 1;
    }
}

/// Counters returned by the query phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    pub index_build_ns: u64,
    pub query_ns: u64,
    /// Time spent merging shard effect tables into the pool's effect
    /// columns — a subset of `query_ns`, broken out so the effect-merge
    /// phase is visible on its own (telemetry and the `--trace` output).
    pub merge_ns: u64,
    pub neighbor_visits: u64,
    pub nonlocal_writes: u64,
}

/// Reusable per-tick working memory, threaded through the executor so the
/// hot path allocates nothing after the first tick: one `ShardScratch`
/// (effect table + candidate buffer + spawn queue) per logical shard. One
/// `TickScratch` belongs to one behavior (its tables are shaped by the
/// behavior's schema).
#[derive(Default)]
pub struct TickScratch {
    shards: Vec<ShardScratch>,
    /// The whole-pool update's kill and spawn reports, reused across ticks.
    killed: Vec<u32>,
    spawned: Vec<PendingSpawn>,
}

/// Working memory of one logical shard.
struct ShardScratch {
    table: EffectTable,
    candidates: Vec<u32>,
    batch: BatchScratch,
    spawns: Vec<(Vec2, Vec<f64>)>,
    /// Parent agent id of each entry in `spawns`, in lockstep. Spawn ids are
    /// a pure function of `(parent id, ordinal)` so any placement of agents
    /// across shards or workers assigns the same ids.
    spawn_parents: Vec<AgentId>,
    visits: u64,
    nonlocal: u64,
}

impl ShardScratch {
    fn new(schema: &AgentSchema) -> Self {
        ShardScratch {
            table: EffectTable::new(schema),
            candidates: Vec::new(),
            batch: BatchScratch::default(),
            spawns: Vec::new(),
            spawn_parents: Vec::new(),
            visits: 0,
            nonlocal: 0,
        }
    }
}

impl TickScratch {
    pub fn new() -> Self {
        TickScratch::default()
    }

    /// Grow to at least `n` shard scratches shaped by `schema`.
    fn ensure_shards(&mut self, schema: &AgentSchema, n: usize) -> &mut [ShardScratch] {
        while self.shards.len() < n {
            self.shards.push(ShardScratch::new(schema));
        }
        &mut self.shards[..n]
    }
}

/// Serial reference implementation of the query phase: one pass over rows
/// `0..n_owned` into a single full-width `table` (which is reset first),
/// over an index built fresh for this call. This is the executable
/// specification the sharded path is tested against; production paths
/// ([`Simulation`](crate::Simulation), the MapReduce worker) call
/// [`query_phase_sharded`].
///
/// After this returns, rows `0..n_owned` hold this partition's aggregated
/// local effects and rows `n_owned..` hold partial aggregates destined for
/// the replicas' owners (the runtime ships the non-identity ones).
pub fn query_phase<B: Behavior>(
    behavior: &B,
    pool: &AgentPool,
    n_owned: usize,
    kind: IndexKind,
    table: &mut EffectTable,
    tick: u64,
    seed: u64,
) -> QueryStats {
    let schema = behavior.schema();
    let vis = schema.visibility();
    let view = pool.view();
    let mut stats = QueryStats::default();
    table.reset(view.len());

    let t0 = Instant::now();
    let points: Vec<(Vec2, u32)> = (0..view.len()).map(|r| (view.pos(r as u32), r as u32)).collect();
    let index = BuiltIndex::build(kind, &points, vis);
    stats.index_build_ns = t0.elapsed().as_nanos() as u64;

    let t1 = Instant::now();
    let mut cands: Vec<u32> = Vec::new();
    let mut batch = BatchScratch::default();
    // The reference path is the *scalar* probe loop: `range` + per-row
    // `query`. The batched kernels are proven against it.
    let k = QueryKernel::Scalar;
    let id_rows = ids_strictly_increasing(view.ids);
    let (visits, nonlocal) = match &index {
        BuiltIndex::Scan(i) => {
            query_rows(behavior, schema, i, view, 0..n_owned, 0, table, &mut cands, &mut batch, tick, seed, k, id_rows)
        }
        BuiltIndex::Kd(i) => {
            query_rows(behavior, schema, i, view, 0..n_owned, 0, table, &mut cands, &mut batch, tick, seed, k, id_rows)
        }
        BuiltIndex::Grid(i) => {
            query_rows(behavior, schema, i, view, 0..n_owned, 0, table, &mut cands, &mut batch, tick, seed, k, id_rows)
        }
    };
    stats.neighbor_visits = visits;
    stats.nonlocal_writes = nonlocal;
    stats.query_ns = t1.elapsed().as_nanos() as u64;
    stats
}

/// The monomorphized inner loop: run the query phase for global rows
/// `rows`, writing into `table` whose row 0 is global row `base`. Returns
/// `(neighbor_visits, nonlocal_writes)`. Under [`QueryKernel::Batched`] the
/// range probe filters through the index's lane kernels
/// (`SpatialIndex::range_batch`) and the behavior runs through
/// [`Behavior::query_batch`]; under [`QueryKernel::Scalar`] both fall back
/// to the per-row path — bit-identical either way.
#[allow(clippy::too_many_arguments)]
fn query_rows<B: Behavior, I: SpatialIndex>(
    behavior: &B,
    schema: &AgentSchema,
    index: &I,
    view: PoolView<'_>,
    rows: Range<usize>,
    base: u32,
    table: &mut EffectTable,
    candidates: &mut Vec<u32>,
    batch: &mut BatchScratch,
    tick: u64,
    seed: u64,
    kernel: QueryKernel,
    rows_in_id_order: bool,
) -> (u64, u64) {
    let vis = schema.visibility();
    let probe = behavior.probe();
    // The behavior decides once per loop whether its batched kernel pays
    // for the candidate gather (`Behavior::batch_profitable`); the ablation
    // knob still forces the scalar path wholesale.
    let run_batched = kernel == QueryKernel::Batched && behavior.batch_profitable();
    let mut visits = 0u64;
    let mut nonlocal = 0u64;
    for row in rows {
        let row = row as u32;
        let me = view.agent(row);
        debug_assert!(me.alive(), "dead agent in query phase");
        let pos = me.pos();
        candidates.clear();
        match probe {
            NeighborProbe::Range => {
                if vis.is_finite() {
                    // Behaviors with a derived visibility predicate shrink
                    // the probe rect (pushdown); the default is the full
                    // visibility square. Semantically invisible candidates
                    // are excluded earlier, never added.
                    let rect = behavior.probe_rect(pos, vis);
                    // The lane-kernel filter is the default probe only
                    // where it is gather-free (`RANGE_BATCH_NATIVE`); see
                    // the trait docs for the measured tradeoff.
                    match kernel {
                        QueryKernel::Batched if I::RANGE_BATCH_NATIVE => index.range_batch(&rect, candidates),
                        _ => index.range(&rect, candidates),
                    }
                    // Canonical candidate order: **ascending agent id**,
                    // always. Per-agent neighbor iteration order — and
                    // therefore float effect aggregation — is a pure
                    // function of the agent set, independent of index
                    // state (maintained vs rebuilt) *and* of row placement
                    // (single-node pool vs a distributed worker's
                    // swap-mutated pool, which is what makes an N-worker
                    // cluster bit-identical to one node). When rows are
                    // already in id order (every single-node pool), row
                    // order *is* id order: scan (row-order columns) and
                    // grid (ascending-payload bucket merge) are then
                    // canonical by construction (`RANGE_CANONICAL`) and
                    // only the KD-tree (build-history emission order) pays
                    // a sort.
                    if !rows_in_id_order {
                        candidates.sort_unstable_by_key(|&r| (view.ids[r as usize], r));
                    } else if !I::RANGE_CANONICAL {
                        candidates.sort_unstable();
                    }
                } else {
                    candidates.extend(0..view.len() as u32);
                    if !rows_in_id_order {
                        candidates.sort_unstable_by_key(|&r| (view.ids[r as usize], r));
                    }
                }
            }
            NeighborProbe::Nearest(k) => {
                // Ask for k + 1 so self (always distance 0) doesn't crowd
                // out a real neighbor; crop to the visible region, which is
                // all the distributed runtime replicates. k-NN results are
                // canonical already ((distance, row) order); note the row
                // tie-break makes k-th-neighbor ties placement-dependent,
                // so Nearest-probe models carry a documented approximate
                // (not bit-exact) distributed-equivalence contract.
                index.k_nearest_into(pos, k + 1, None, candidates);
                if vis.is_finite() {
                    candidates.retain(|&i| view.pos(i).dist_linf(pos) <= vis);
                }
            }
        }
        visits += candidates.len() as u64;
        let mut writer = EffectWriter::with_base(schema, table, row, base);
        let mut rng = agent_rng(seed, tick, me.id(), 0);
        if run_batched {
            let mut nb = NeighborBatch::new(view, candidates, row, batch);
            behavior.query_batch(me, &mut nb, &mut writer, &mut rng);
        } else {
            let neighbors = Neighbors::new(view, candidates, row);
            behavior.query(me, &neighbors, &mut writer, &mut rng);
        }
        nonlocal += writer.nonlocal_writes();
    }
    (visits, nonlocal)
}

/// Sharded, optionally parallel query phase. Semantics match
/// [`query_phase`] (rows `0..n_owned` of the pool queried, effects for
/// every visible row aggregated into the **pool's own effect columns**),
/// executed over the deterministic shard plan described in the module docs
/// and against the incrementally maintained `index`. `parallelism` is the
/// physical thread budget (`0` = all cores, `1` = run shards inline); it
/// never affects results, only wall time.
#[allow(clippy::too_many_arguments)]
pub fn query_phase_sharded<B: Behavior>(
    behavior: &B,
    pool: &mut AgentPool,
    n_owned: usize,
    index: &mut MaintainedIndex,
    tick: u64,
    seed: u64,
    scratch: &mut TickScratch,
    parallelism: usize,
) -> QueryStats {
    query_phase_sharded_with(
        behavior,
        pool,
        n_owned,
        index,
        tick,
        seed,
        scratch,
        SHARD_ROWS,
        parallelism,
        QueryKernel::default(),
    )
}

/// [`query_phase_sharded`] with an explicit rows-per-shard granule and
/// query-kernel mode. Production uses [`SHARD_ROWS`] and the default
/// (batched) kernel; property tests pass tiny granules to exercise
/// many-shard merges on small worlds, and the kernel ablation passes
/// [`QueryKernel::Scalar`]. Results depend on the granule only through the
/// documented re-association of non-local float aggregates — never on
/// `parallelism` or `kernel`.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn query_phase_sharded_with<B: Behavior>(
    behavior: &B,
    pool: &mut AgentPool,
    n_owned: usize,
    index: &mut MaintainedIndex,
    tick: u64,
    seed: u64,
    scratch: &mut TickScratch,
    shard_rows: usize,
    parallelism: usize,
    kernel: QueryKernel,
) -> QueryStats {
    let schema = behavior.schema();
    let vis = schema.visibility();
    let mut stats = QueryStats::default();
    let (view, table) = pool.split_query();
    table.reset(view.len());

    let t0 = Instant::now();
    index.sync(view, vis);
    stats.index_build_ns = t0.elapsed().as_nanos() as u64;

    let nonlocal_schema = schema.has_nonlocal_effects();
    let k = shard_count(n_owned, nonlocal_schema, shard_rows);
    if k == 0 {
        return stats;
    }
    let threads = effective_parallelism(parallelism).min(k);
    let shards = scratch.ensure_shards(schema, k);

    let t1 = Instant::now();
    // Reset each shard's accumulator to the width it covers this tick.
    for (i, shard) in shards.iter_mut().enumerate() {
        let rows = if nonlocal_schema { view.len() } else { shard_range(n_owned, k, i).len() };
        shard.table.reset(rows);
        shard.visits = 0;
        shard.nonlocal = 0;
    }

    // One monomorphized dispatch per tick, then the shard loop runs against
    // the concrete index type. The id-order probe (once per tick, early-out
    // on the first inversion) picks the candidate canonicalization path.
    let id_rows = ids_strictly_increasing(view.ids);
    match index.built.as_ref().expect("sync built an index") {
        BuiltIndex::Scan(i) => run_query_shards(
            behavior,
            schema,
            i,
            view,
            n_owned,
            nonlocal_schema,
            shards,
            threads,
            tick,
            seed,
            kernel,
            id_rows,
        ),
        BuiltIndex::Kd(i) => run_query_shards(
            behavior,
            schema,
            i,
            view,
            n_owned,
            nonlocal_schema,
            shards,
            threads,
            tick,
            seed,
            kernel,
            id_rows,
        ),
        BuiltIndex::Grid(i) => run_query_shards(
            behavior,
            schema,
            i,
            view,
            n_owned,
            nonlocal_schema,
            shards,
            threads,
            tick,
            seed,
            kernel,
            id_rows,
        ),
    }

    // Deterministic merge, ascending shard order, directly into the pool's
    // effect columns. Local-effect shards own disjoint row ranges: a
    // bitwise column-segment copy. Non-local shards span the whole visible
    // set: copy the first, ⊕-merge the rest.
    let t2 = Instant::now();
    for (i, shard) in shards.iter().enumerate() {
        if nonlocal_schema {
            if i == 0 {
                table.copy_rows_from(&shard.table, 0);
            } else {
                table.merge_table(&shard.table);
            }
        } else {
            table.copy_rows_from(&shard.table, shard_range(n_owned, k, i).start);
        }
        stats.neighbor_visits += shard.visits;
        stats.nonlocal_writes += shard.nonlocal;
    }
    stats.merge_ns = t2.elapsed().as_nanos() as u64;
    stats.query_ns = t1.elapsed().as_nanos() as u64;
    stats
}

/// Distribute `shards` over up to `threads` scoped worker threads in
/// contiguous groups. Shard → result mapping is positional, so scheduling
/// cannot affect the merge order.
#[allow(clippy::too_many_arguments)]
fn run_query_shards<B: Behavior, I: SpatialIndex>(
    behavior: &B,
    schema: &AgentSchema,
    index: &I,
    view: PoolView<'_>,
    n_owned: usize,
    nonlocal_schema: bool,
    shards: &mut [ShardScratch],
    threads: usize,
    tick: u64,
    seed: u64,
    kernel: QueryKernel,
    rows_in_id_order: bool,
) {
    let k = shards.len();
    let run_one = |i: usize, shard: &mut ShardScratch| {
        let rows = shard_range(n_owned, k, i);
        let base = if nonlocal_schema { 0 } else { rows.start as u32 };
        let (visits, nonlocal) = query_rows(
            behavior,
            schema,
            index,
            view,
            rows,
            base,
            &mut shard.table,
            &mut shard.candidates,
            &mut shard.batch,
            tick,
            seed,
            kernel,
            rows_in_id_order,
        );
        shard.visits = visits;
        shard.nonlocal = nonlocal;
    };
    if threads <= 1 {
        for (i, shard) in shards.iter_mut().enumerate() {
            run_one(i, shard);
        }
        return;
    }
    std::thread::scope(|scope| {
        let mut rest = shards;
        let mut next = 0usize;
        for t in 0..threads {
            let group = shard_range(k, threads, t).len();
            let (head, tail) = rest.split_at_mut(group);
            rest = tail;
            let first = next;
            next += group;
            let run_one = &run_one;
            scope.spawn(move || {
                for (j, shard) in head.iter_mut().enumerate() {
                    run_one(first + j, shard);
                }
            });
        }
    });
}

/// Counters returned by the update phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    pub update_ns: u64,
    pub spawned: usize,
    pub killed: usize,
}

/// Serial reference implementation of the update phase over row records
/// (owned agents with final effects already written into `agent.effects`):
/// run updates, crop movement to the reachable region, remove killed
/// agents, materialize spawns with ids from `id_gen`, and reset effect
/// slots for the next tick. Production paths call
/// [`update_phase_sharded`]; this is the `Vec<Agent>` half of the
/// executable specification (see [`reference_step`]).
pub fn update_phase<B: Behavior>(
    behavior: &B,
    agents: &mut Vec<Agent>,
    tick: u64,
    seed: u64,
    id_gen: &mut AgentIdGen,
) -> UpdateStats {
    let schema = behavior.schema();
    let t0 = Instant::now();
    let mut spawns: Vec<(Vec2, Vec<f64>)> = Vec::new();
    update_rows(behavior, schema, agents, tick, seed, &mut spawns);
    let before = agents.len();
    agents.retain(|a| a.alive);
    let killed = before - agents.len();
    let mut spawned = 0;
    spawned += spawns.len();
    for (pos, state) in spawns.drain(..) {
        let id = id_gen.alloc().expect("agent id space exhausted");
        agents.push(Agent::with_state(id, pos, state, schema));
    }
    UpdateStats { update_ns: t0.elapsed().as_nanos() as u64, spawned, killed }
}

/// Update one contiguous run of row records, queueing spawns locally
/// (reference path).
fn update_rows<B: Behavior>(
    behavior: &B,
    schema: &AgentSchema,
    agents: &mut [Agent],
    tick: u64,
    seed: u64,
    spawns: &mut Vec<(Vec2, Vec<f64>)>,
) {
    let reach = schema.reachability();
    for agent in agents.iter_mut() {
        let from = agent.pos;
        let rng = agent_rng(seed, tick, agent.id, 1);
        let mut ctx = UpdateCtx::new(tick, rng, spawns);
        behavior.update(agent, &mut ctx);
        agent.pos = Agent::clamp_move(from, agent.pos, reach);
        debug_assert!(!agent.pos.is_nan(), "model produced NaN position for {}", agent.id);
        agent.reset_effects(schema);
    }
}

/// Sharded, optionally parallel update phase over the whole pool — the
/// single node's entry point: [`update_phase_prefix`] over every row, then
/// the one-partition apply step. Killed rows are dropped, each pending
/// spawn takes the next id from `id_gen` in the order returned, and the
/// effect columns are reset. Bit-identical to [`update_phase`] for every
/// chunking and thread count: each agent's update is a pure function of
/// `(seed, tick, agent)`, and chunk order is row order, which reproduces
/// the serial spawn ordering (and therefore id assignment) exactly. On an
/// id-ordered pool that is ascending parent id, the order the distributed
/// worker sequences spawns in.
pub fn update_phase_sharded<B: Behavior>(
    behavior: &B,
    pool: &mut AgentPool,
    tick: u64,
    seed: u64,
    id_gen: &mut AgentIdGen,
    scratch: &mut TickScratch,
    parallelism: usize,
) -> UpdateStats {
    let t0 = Instant::now();
    let (mut killed, mut spawned) = (std::mem::take(&mut scratch.killed), std::mem::take(&mut scratch.spawned));
    let n = pool.len();
    let mut stats = update_phase_prefix(behavior, pool, n, tick, seed, scratch, parallelism, &mut killed, &mut spawned);
    pool.retain_alive();
    for PendingSpawn { pos, state, .. } in spawned.drain(..) {
        let id = id_gen.alloc().expect("agent id space exhausted");
        pool.push_spawn(id, pos, &state);
    }
    pool.reset_effects();
    (scratch.killed, scratch.spawned) = (killed, spawned);
    stats.update_ns = t0.elapsed().as_nanos() as u64;
    stats
}

/// A spawn requested during the update phase, before any agent id has been
/// assigned. Emitted by [`update_phase_prefix`] in the canonical order —
/// chunk-concatenation order, which within any one parent is that parent's
/// spawn-call order — tagged with the parent that requested it. The
/// distributed runtime assigns final ids by the **global** ascending
/// `(parent id, ordinal)` order across all workers, so id assignment is a
/// pure function of the previous tick's world, independent of partition
/// placement or worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingSpawn {
    /// The agent whose update requested this spawn.
    pub parent: AgentId,
    /// Spawn position (already clamped by the model's own logic, not by
    /// the parent's reachability — spawns are placements, not moves).
    pub pos: Vec2,
    /// Initial state vector (schema-width).
    pub state: Vec<f64>,
}

/// Sharded update phase over rows `0..n_owned` of a pool whose tail holds
/// **persistent replica rows that must survive the tick** — the distributed
/// worker's entry point, and the update half of [`update_phase_sharded`].
/// It mutates no pool membership: killed rows are reported in `killed` (ascending row order)
/// for the caller to remove with its stable-row ops (keeping its id ↔ row
/// map in sync), and spawns are reported id-less as [`PendingSpawn`]s in
/// chunk order for the caller to sequence globally (the worker exchanges
/// per-parent spawn counts with its peers and derives each id from the
/// shared cross-worker counter). Effect columns are left for the caller to
/// reset once kills/spawns are applied.
#[allow(clippy::too_many_arguments)]
pub fn update_phase_prefix<B: Behavior>(
    behavior: &B,
    pool: &mut AgentPool,
    n_owned: usize,
    tick: u64,
    seed: u64,
    scratch: &mut TickScratch,
    parallelism: usize,
    killed: &mut Vec<u32>,
    spawned: &mut Vec<PendingSpawn>,
) -> UpdateStats {
    let schema = behavior.schema();
    let t0 = Instant::now();
    killed.clear();
    spawned.clear();
    let threads = effective_parallelism(parallelism).min(n_owned).max(1);
    let shards = scratch.ensure_shards(schema, threads);
    for shard in shards.iter_mut() {
        shard.spawns.clear();
        shard.spawn_parents.clear();
    }
    {
        let counts: Vec<usize> = (0..threads).map(|t| shard_range(n_owned, threads, t).len()).collect();
        let mut chunks = pool.update_chunks(&counts);
        if threads <= 1 {
            let ShardScratch { spawns, spawn_parents, .. } = &mut shards[0];
            update_chunk_rows(behavior, schema, &mut chunks[0], tick, seed, spawns, spawn_parents);
        } else {
            std::thread::scope(|scope| {
                let mut rest = &mut *shards;
                for mut chunk in chunks {
                    let (shard, tail) = rest.split_at_mut(1);
                    rest = tail;
                    let ShardScratch { spawns, spawn_parents, .. } = &mut shard[0];
                    scope.spawn(move || {
                        update_chunk_rows(behavior, schema, &mut chunk, tick, seed, spawns, spawn_parents)
                    });
                }
            });
        }
    }
    killed.extend((0..n_owned as u32).filter(|&r| !pool.alive(r)));
    let mut n_spawned = 0;
    for shard in shards.iter_mut() {
        n_spawned += shard.spawns.len();
        for ((pos, state), parent) in shard.spawns.drain(..).zip(shard.spawn_parents.drain(..)) {
            spawned.push(PendingSpawn { parent, pos, state });
        }
    }
    UpdateStats { update_ns: t0.elapsed().as_nanos() as u64, spawned: n_spawned, killed: killed.len() }
}

/// Update one pool chunk through a reused scratch record. Every spawn the
/// chunk queues is tagged with its requesting parent in `parents`
/// (lockstep with `spawns`).
#[allow(clippy::too_many_arguments)]
fn update_chunk_rows<B: Behavior>(
    behavior: &B,
    schema: &AgentSchema,
    chunk: &mut UpdateChunk<'_>,
    tick: u64,
    seed: u64,
    spawns: &mut Vec<(Vec2, Vec<f64>)>,
    parents: &mut Vec<AgentId>,
) {
    let reach = schema.reachability();
    let mut me = Agent {
        id: AgentId::new(0),
        pos: Vec2::ZERO,
        state: Vec::with_capacity(schema.num_states()),
        effects: Vec::with_capacity(schema.num_effects()),
        alive: true,
    };
    for i in 0..chunk.len() {
        chunk.load(i, &mut me);
        let from = me.pos;
        let rng = agent_rng(seed, tick, me.id, 1);
        let before = spawns.len();
        let mut ctx = UpdateCtx::new(tick, rng, spawns);
        behavior.update(&mut me, &mut ctx);
        for _ in before..spawns.len() {
            parents.push(me.id);
        }
        me.pos = Agent::clamp_move(from, me.pos, reach);
        debug_assert!(!me.pos.is_nan(), "model produced NaN position for {}", me.id);
        chunk.store(i, &me);
    }
}

/// One full tick over a `Vec<Agent>` world: convert to a fresh pool at the
/// boundary, run the unsharded reference query phase over a freshly built
/// index, copy effects back into the records, run the serial reference
/// update phase. This is the row-oriented executable specification the
/// pool-backed [`Simulation`](crate::Simulation) is property-tested
/// against (bit-identical worlds), and the AoS baseline of the throughput
/// ablation.
pub fn reference_step<B: Behavior>(
    behavior: &B,
    agents: &mut Vec<Agent>,
    kind: IndexKind,
    tick: u64,
    seed: u64,
    id_gen: &mut AgentIdGen,
) -> (QueryStats, UpdateStats) {
    let schema = behavior.schema();
    let pool = AgentPool::from_agents(schema, agents);
    let mut table = EffectTable::new(schema);
    let qs = query_phase(behavior, &pool, agents.len(), kind, &mut table, tick, seed);
    table.write_into(agents);
    let us = update_phase(behavior, agents, tick, seed, id_gen);
    (qs, us)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentRef;
    use crate::combinator::Combinator;
    use crate::engine::Simulation;
    use crate::schema::AgentSchema;
    use brace_common::{AgentId, FieldId, Vec2};

    /// Test model: each agent counts neighbors within distance 1 (L∞) into
    /// effect `n`, then moves right by 0.1 * n (cropped by reachability).
    struct CountAndDrift {
        schema: AgentSchema,
    }

    impl CountAndDrift {
        fn new() -> Self {
            let schema = AgentSchema::builder("CountAndDrift")
                .effect("n", Combinator::Sum)
                .visibility(1.0)
                .reachability(0.5)
                .build()
                .unwrap();
            CountAndDrift { schema }
        }
    }

    impl Behavior for CountAndDrift {
        fn schema(&self) -> &AgentSchema {
            &self.schema
        }

        fn query(&self, _me: AgentRef<'_>, nbrs: &Neighbors<'_>, eff: &mut EffectWriter<'_>, _rng: &mut DetRng) {
            for _ in nbrs.iter() {
                eff.local(FieldId::new(0), 1.0);
            }
        }

        fn update(&self, me: &mut Agent, _ctx: &mut UpdateCtx<'_>) {
            let n = me.effect(FieldId::new(0));
            me.pos.x += 0.1 * n;
        }
    }

    fn line_of_agents(schema: &AgentSchema, n: usize, gap: f64) -> Vec<Agent> {
        (0..n).map(|i| Agent::new(AgentId::new(i as u64), Vec2::new(i as f64 * gap, 0.0), schema)).collect()
    }

    #[test]
    fn neighbor_counts_are_correct() {
        let b = CountAndDrift::new();
        let agents = line_of_agents(b.schema(), 5, 0.9); // each sees adjacent only
        let mut exec = Simulation::new(b, agents, IndexKind::KdTree, 1);
        let tm = exec.step();
        assert_eq!(tm.n_agents, 5);
        // After the tick, agents moved: ends saw 1 neighbor (moved 0.1),
        // middles saw 2 (moved 0.2).
        let xs: Vec<f64> = exec.agents().iter().map(|a| a.pos.x).collect();
        assert!((xs[0] - 0.1).abs() < 1e-12);
        assert!((xs[1] - (0.9 + 0.2)).abs() < 1e-12);
        assert!((xs[4] - (3.6 + 0.1)).abs() < 1e-12);
    }

    #[test]
    fn all_index_kinds_agree() {
        let run = |kind: IndexKind| {
            let b = CountAndDrift::new();
            let agents = line_of_agents(b.schema(), 40, 0.3);
            let mut e = Simulation::new(b, agents, kind, 7);
            e.run(5);
            e.agents().iter().map(|a| a.pos).collect::<Vec<_>>()
        };
        let k = run(IndexKind::KdTree);
        assert_eq!(k, run(IndexKind::Scan));
        assert_eq!(k, run(IndexKind::Grid));
    }

    #[test]
    fn movement_cropped_to_reachability() {
        // One dense cluster: counts are large, drift would exceed 0.5.
        let b = CountAndDrift::new();
        let agents: Vec<Agent> = (0..20).map(|i| Agent::new(AgentId::new(i), Vec2::ZERO, b.schema())).collect();
        let mut exec = Simulation::new(b, agents, IndexKind::KdTree, 1);
        exec.step();
        for a in exec.agents() {
            assert!((a.pos.x - 0.5).abs() < 1e-12, "movement not cropped: {}", a.pos.x);
        }
    }

    #[test]
    fn effects_reset_between_ticks() {
        let b = CountAndDrift::new();
        let agents = line_of_agents(b.schema(), 3, 0.5);
        let mut exec = Simulation::new(b, agents, IndexKind::KdTree, 1);
        exec.step();
        for a in exec.agents() {
            assert_eq!(a.effects, vec![0.0], "effects must be identity after tick");
        }
    }

    /// Model that spawns one child per tick per agent at tick 0 and kills
    /// agents with odd ids at tick 1. Exercises spawn/kill handling.
    struct SpawnKill {
        schema: AgentSchema,
    }

    impl Behavior for SpawnKill {
        fn schema(&self) -> &AgentSchema {
            &self.schema
        }
        fn query(&self, _m: AgentRef<'_>, _n: &Neighbors<'_>, _e: &mut EffectWriter<'_>, _rng: &mut DetRng) {}
        fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
            if ctx.tick == 0 {
                ctx.spawn(me.pos + Vec2::new(0.1, 0.0), vec![]);
            }
            if ctx.tick == 1 && me.id.raw() % 2 == 1 {
                me.alive = false;
            }
        }
    }

    #[test]
    fn spawn_and_kill_lifecycle() {
        let schema = AgentSchema::builder("SpawnKill").visibility(1.0).build().unwrap();
        let b = SpawnKill { schema };
        let agents: Vec<Agent> =
            (0..4).map(|i| Agent::new(AgentId::new(i), Vec2::new(i as f64, 0.0), b.schema())).collect();
        let mut exec = Simulation::new(b, agents, IndexKind::KdTree, 1);
        let tm0 = exec.step();
        assert_eq!(tm0.spawned, 4);
        assert_eq!(exec.agents().len(), 8);
        // Spawned ids continue above the original max.
        assert!(exec.agents().iter().any(|a| a.id.raw() >= 4));
        let tm1 = exec.step();
        assert!(tm1.killed > 0);
        assert!(exec.agents().iter().all(|a| a.alive));
    }

    #[test]
    fn determinism_same_seed_same_world() {
        let run = |seed| {
            let b = CountAndDrift::new();
            let agents = line_of_agents(b.schema(), 30, 0.4);
            let mut e = Simulation::new(b, agents, IndexKind::KdTree, seed);
            e.run(10);
            e.agents().iter().map(|a| (a.id, a.pos)).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn parallel_executor_matches_serial_executor() {
        // Same world stepped with 1 and 4 threads: bit-identical states.
        let run = |threads: usize| {
            let b = CountAndDrift::new();
            let agents = line_of_agents(b.schema(), 500, 0.2);
            let mut e = Simulation::new(b, agents, IndexKind::KdTree, 9);
            e.set_parallelism(threads);
            e.run(8);
            e.agents()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn incremental_executor_matches_rebuild_executor() {
        // Incremental index maintenance must never change results — for
        // any index kind (the canonical-candidate argument).
        for kind in [IndexKind::Scan, IndexKind::KdTree, IndexKind::Grid] {
            let run = |mode: IndexMaintenance| {
                let b = CountAndDrift::new();
                let agents = line_of_agents(b.schema(), 300, 0.25);
                let mut e = Simulation::new(b, agents, kind, 11);
                e.set_index_maintenance(mode);
                e.run(10);
                e.agents()
            };
            let inc = run(IndexMaintenance::Incremental);
            let reb = run(IndexMaintenance::Rebuild);
            assert_eq!(inc, reb, "{kind:?} diverged under incremental maintenance");
        }
    }

    #[test]
    fn incremental_mode_actually_skips_rebuilds() {
        let b = CountAndDrift::new();
        let agents = line_of_agents(b.schema(), 300, 0.25);
        let mut e = Simulation::new(b, agents, IndexKind::Grid, 11);
        e.run(10);
        // Tick 0 builds; the stable population lets every later tick sync
        // incrementally.
        assert_eq!(e.index_rebuilds(), 1, "stable population must not rebuild");
    }

    #[test]
    fn pool_executor_matches_reference_step() {
        let b = CountAndDrift::new();
        let mut world = line_of_agents(b.schema(), 120, 0.3);
        let mut exec = Simulation::new(CountAndDrift::new(), world.clone(), IndexKind::Grid, 13);
        let mut id_gen = AgentIdGen::from(world.iter().map(|a| a.id.raw()).max().unwrap() + 1);
        for tick in 0..6 {
            exec.step();
            reference_step(&b, &mut world, IndexKind::Grid, tick, 13, &mut id_gen);
        }
        assert_eq!(exec.agents(), world);
    }

    #[test]
    fn sharded_phases_match_serial_reference() {
        // Direct phase-level comparison against the unsharded reference:
        // 5000 owned rows put the deterministic plan at 3 shards, and a
        // local-effect schema merges by copy, so the tables must agree
        // bit for bit.
        let b = CountAndDrift::new();
        let agents = line_of_agents(b.schema(), 5000, 0.2);
        let pool = AgentPool::from_agents(b.schema(), &agents);
        let mut ref_table = EffectTable::new(b.schema());
        let ref_stats = query_phase(&b, &pool, pool.len(), IndexKind::Grid, &mut ref_table, 0, 3);
        let mut sh_pool = AgentPool::from_agents(b.schema(), &agents);
        let n = sh_pool.len();
        let mut index = MaintainedIndex::new(IndexKind::Grid);
        let mut scratch = TickScratch::new();
        let sh_stats = query_phase_sharded(&b, &mut sh_pool, n, &mut index, 0, 3, &mut scratch, 2);
        assert_eq!(ref_stats.neighbor_visits, sh_stats.neighbor_visits);
        for r in 0..n as u32 {
            assert_eq!(ref_table.row(r), sh_pool.effects().row(r), "row {r}");
        }
    }

    #[test]
    fn scratch_reuse_is_transparent_across_population_changes() {
        // Spawning grows the population across SHARD_ROWS boundaries while
        // the scratch persists; results must stay deterministic.
        let schema = AgentSchema::builder("Spawner").visibility(1.0).build().unwrap();
        struct Spawner(AgentSchema);
        impl Behavior for Spawner {
            fn schema(&self) -> &AgentSchema {
                &self.0
            }
            fn query(&self, _m: AgentRef<'_>, _n: &Neighbors<'_>, _e: &mut EffectWriter<'_>, _rng: &mut DetRng) {}
            fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
                if me.id.raw().is_multiple_of(3) {
                    ctx.spawn(me.pos + Vec2::new(0.01, 0.0), vec![]);
                }
            }
        }
        let run = |threads: usize| {
            let b = Spawner(schema.clone());
            let agents: Vec<Agent> =
                (0..1500).map(|i| Agent::new(AgentId::new(i), Vec2::new(i as f64 * 0.1, 0.0), &schema)).collect();
            let mut e = Simulation::new(b, agents, IndexKind::Grid, 2);
            e.set_parallelism(threads);
            e.run(3); // population: 1500 -> 2000 -> ~2667 -> crosses 2048
            e.agents().iter().map(|a| (a.id, a.pos)).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(3));
    }
}

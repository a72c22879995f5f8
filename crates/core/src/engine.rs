//! The single-node engine: [`Simulation`] owns one partition's working set
//! (the columnar agent pool, the maintained spatial index, the shard
//! scratch) and runs the phase functions of [`crate::executor`] back to
//! back.
//!
//! It is one of the two engines behind the backend-erased driver in
//! `brace_scenario` — `Runner`/`SimHandle` drive either this or
//! `brace_mapreduce::ClusterSim` behind one facade, which is the surface
//! most callers should use; reach for `Simulation` directly when embedding
//! a single-node engine with a concrete behavior type (it stays
//! monomorphized over `B`, so model code inlines into the probe loop).

use crate::agent::{Agent, AgentPool};
use crate::behavior::Behavior;
use crate::executor::{
    query_phase_sharded_with, update_phase_sharded, IndexMaintenance, MaintainedIndex, QueryKernel, TickScratch,
    SHARD_ROWS,
};
use crate::metrics::TickMetrics;
use brace_common::ids::AgentIdGen;
use brace_common::{BraceError, Result};
use brace_spatial::IndexKind;
use brace_telemetry::{Counter, HistId, Telemetry};

/// Builder for a single-node [`Simulation`].
pub struct SimulationBuilder<B: Behavior> {
    behavior: B,
    agents: Vec<Agent>,
    index: IndexKind,
    seed: u64,
    parallelism: usize,
}

impl<B: Behavior> SimulationBuilder<B> {
    /// Initial population. Each agent must match the behavior's schema.
    pub fn agents(mut self, agents: Vec<Agent>) -> Self {
        self.agents = agents;
        self
    }

    /// Spatial index used by the query phase (default: KD-tree).
    pub fn index(mut self, kind: IndexKind) -> Self {
        self.index = kind;
        self
    }

    /// Master seed; every run with the same seed is bit-identical.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Thread budget for the query/update phases: `1` (default) runs the
    /// deterministic shard plan serially, `0` uses every available core,
    /// `n` caps at `n` threads. Results are identical for every setting —
    /// only wall time changes.
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<Simulation<B>> {
        let schema = self.behavior.schema();
        for a in &self.agents {
            if a.state.len() != schema.num_states() {
                return Err(BraceError::Schema(format!(
                    "agent {} has {} state slots, schema `{}` expects {}",
                    a.id,
                    a.state.len(),
                    schema.name(),
                    schema.num_states()
                )));
            }
            if a.effects.len() != schema.num_effects() {
                return Err(BraceError::Schema(format!(
                    "agent {} has {} effect slots, schema `{}` expects {}",
                    a.id,
                    a.effects.len(),
                    schema.name(),
                    schema.num_effects()
                )));
            }
        }
        let mut ids = std::collections::HashSet::new();
        for a in &self.agents {
            if !ids.insert(a.id) {
                return Err(BraceError::Config(format!("duplicate agent id {}", a.id)));
            }
        }
        let mut sim = Simulation::new(self.behavior, self.agents, self.index, self.seed);
        sim.set_parallelism(self.parallelism);
        Ok(sim)
    }
}

/// A single-node behavioral simulation: the reference implementation of a
/// BRACE tick, and the baseline of the paper's Figures 3 and 4. Runs the
/// sharded phases with a configurable thread budget
/// ([`Simulation::set_parallelism`]; default 1 = serial execution of the
/// same deterministic shard plan).
pub struct Simulation<B: Behavior> {
    behavior: B,
    pool: AgentPool,
    index: MaintainedIndex,
    scratch: TickScratch,
    id_gen: AgentIdGen,
    parallelism: usize,
    kernel: QueryKernel,
    seed: u64,
    tick: u64,
    /// Captured once at construction: recording when telemetry was enabled
    /// then, a branch-only no-op otherwise (the off path touches no
    /// atomics — see `brace_telemetry`).
    tel: Telemetry,
}

impl<B: Behavior> Simulation<B> {
    /// Start building a simulation around `behavior`.
    pub fn builder(behavior: B) -> SimulationBuilder<B> {
        SimulationBuilder { behavior, agents: Vec::new(), index: IndexKind::KdTree, seed: 0, parallelism: 1 }
    }

    /// Create a simulation without validation (see
    /// [`SimulationBuilder::build`]). `agents` must already match the
    /// behavior's schema; the id generator starts above every existing
    /// agent id.
    pub fn new(behavior: B, agents: Vec<Agent>, kind: IndexKind, seed: u64) -> Self {
        let pool = AgentPool::from_agents(behavior.schema(), &agents);
        let max_id = agents.iter().map(|a| a.id.raw()).max().map_or(0, |m| m + 1);
        Simulation {
            behavior,
            pool,
            index: MaintainedIndex::new(kind),
            scratch: TickScratch::new(),
            id_gen: AgentIdGen::from(max_id),
            parallelism: 1,
            kernel: QueryKernel::default(),
            seed,
            tick: 0,
            tel: Telemetry::current(),
        }
    }

    /// Set the thread budget for the query and update phases: `1` (the
    /// default) runs the shard plan serially, `0` uses every available
    /// core, `n` uses up to `n` threads. Never changes results — only wall
    /// time (see the module's determinism argument).
    pub fn set_parallelism(&mut self, parallelism: usize) {
        self.parallelism = parallelism;
    }

    /// Current thread budget (`0` = auto).
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Index maintenance policy (ablation knob): incremental (default) or
    /// rebuild-every-tick. Never changes results — proven by the
    /// incremental ≡ rebuild property.
    pub fn set_index_maintenance(&mut self, mode: IndexMaintenance) {
        self.index.set_mode(mode);
    }

    /// Query-kernel mode (ablation knob): batched lane kernels (default)
    /// or the per-row scalar path. Never changes results — proven by the
    /// kernel conformance properties.
    pub fn set_query_kernel(&mut self, kernel: QueryKernel) {
        self.kernel = kernel;
    }

    /// Current query-kernel mode.
    pub fn query_kernel(&self) -> QueryKernel {
        self.kernel
    }

    /// Full index builds performed so far (ablation statistic).
    pub fn index_rebuilds(&self) -> u64 {
        self.index.rebuilds()
    }

    /// Execute one tick (query → finalize effects → update).
    pub fn step(&mut self) -> TickMetrics {
        let n = self.pool.len();
        let qs = query_phase_sharded_with(
            &self.behavior,
            &mut self.pool,
            n,
            &mut self.index,
            self.tick,
            self.seed,
            &mut self.scratch,
            SHARD_ROWS,
            self.parallelism,
            self.kernel,
        );
        let us = update_phase_sharded(
            &self.behavior,
            &mut self.pool,
            self.tick,
            self.seed,
            &mut self.id_gen,
            &mut self.scratch,
            self.parallelism,
        );
        let tm = TickMetrics {
            tick: self.tick,
            n_agents: n,
            index_build_ns: qs.index_build_ns,
            query_ns: qs.query_ns,
            merge_ns: qs.merge_ns,
            update_ns: us.update_ns,
            neighbor_visits: qs.neighbor_visits,
            nonlocal_writes: qs.nonlocal_writes,
            spawned: us.spawned,
            killed: us.killed,
        };
        // Phase timings re-use the stats the executor already measured:
        // telemetry adds no clock reads to the tick, only these records.
        self.tel.observe(HistId::PhaseIndexMaintain, tm.index_build_ns);
        self.tel.observe(HistId::PhaseQuery, tm.query_ns);
        self.tel.observe(HistId::PhaseEffectMerge, tm.merge_ns);
        self.tel.observe(HistId::PhaseUpdate, tm.update_ns);
        self.tel.incr(Counter::ExecutorTicks);
        self.tel.add(Counter::ExecutorNeighborVisits, tm.neighbor_visits);
        self.tel.add(Counter::ExecutorNonlocalWrites, tm.nonlocal_writes);
        self.tel.add(Counter::ExecutorSpawned, tm.spawned as u64);
        self.tel.add(Counter::ExecutorKilled, tm.killed as u64);
        self.tick += 1;
        tm
    }

    /// Execute `n` ticks.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Materialize the world as row records (the serialization boundary;
    /// hot paths read [`Simulation::pool`]).
    pub fn agents(&self) -> Vec<Agent> {
        self.pool.to_agents()
    }

    /// The columnar working representation.
    pub fn pool(&self) -> &AgentPool {
        &self.pool
    }

    pub fn behavior(&self) -> &B {
        &self.behavior
    }

    pub fn tick(&self) -> u64 {
        self.tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{Neighbors, UpdateCtx};
    use crate::effect::EffectWriter;
    use crate::schema::AgentSchema;
    use brace_common::{AgentId, DetRng, Vec2};

    struct Noop(AgentSchema);

    impl Behavior for Noop {
        fn schema(&self) -> &AgentSchema {
            &self.0
        }
        fn query(
            &self,
            _m: crate::agent::AgentRef<'_>,
            _n: &Neighbors<'_>,
            _e: &mut EffectWriter<'_>,
            _rng: &mut DetRng,
        ) {
        }
        fn update(&self, _m: &mut Agent, _c: &mut UpdateCtx<'_>) {}
    }

    fn noop() -> Noop {
        Noop(AgentSchema::builder("Noop").state("s").visibility(1.0).build().unwrap())
    }

    #[test]
    fn builder_validates_state_shape() {
        let b = noop();
        let bad = Agent { id: AgentId::new(0), pos: Vec2::ZERO, state: vec![], effects: vec![], alive: true };
        let err = Simulation::builder(b).agents(vec![bad]).build().err().expect("shape must be rejected");
        assert!(err.to_string().contains("state slots"));
    }

    #[test]
    fn builder_rejects_duplicate_ids() {
        let b = noop();
        let a1 = Agent::new(AgentId::new(1), Vec2::ZERO, b.schema());
        let a2 = Agent::new(AgentId::new(1), Vec2::new(1.0, 0.0), b.schema());
        let err = Simulation::builder(b).agents(vec![a1, a2]).build().err().expect("duplicate ids must be rejected");
        assert!(err.to_string().contains("duplicate agent id"));
    }
}

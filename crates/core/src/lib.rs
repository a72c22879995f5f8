//! # brace-core — the state-effect pattern and the single-node engine
//!
//! The paper observes (§2.1) that nearly all behavioral simulations share a
//! structure it calls the **state-effect pattern**: agent attributes divide
//! into *states* (public, frozen during a tick, updated only at tick
//! boundaries) and *effects* (write-only intermediate values aggregated by
//! decomposable, order-independent *combinator* functions). Each tick is a
//! **query phase** (read states / assign effects) followed by an **update
//! phase** (read own state + aggregated effects / write own next state).
//! Combined with the **neighborhood property** — agents only interact within
//! a bounded *visible region* and move within a bounded *reachable region* —
//! a tick becomes a spatial self-join that can be partitioned.
//!
//! This crate implements that model:
//!
//! * [`combinator`] — the ⊕ aggregate operators with their identities;
//! * [`schema`] — agent schemas: state fields, effect fields with
//!   combinators, visibility/reachability bounds;
//! * [`agent`] — the dynamic agent record `⟨oid, s, e⟩` of Appendix A,
//!   plus the struct-of-arrays [`AgentPool`] the executor runs on;
//! * [`behavior`] — the [`Behavior`] trait every model
//!   (hand-coded Rust or compiled BRASIL) implements, plus the
//!   [`Neighbors`] view and
//!   [`EffectWriter`] through which the query phase
//!   runs;
//! * [`effect`] — staged, order-independent effect aggregation;
//! * [`executor`] — the sharded tick executor (build index → query shards
//!   in parallel → deterministic merge → update), the unit the MapReduce
//!   runtime replicates per partition;
//! * [`engine`] — [`Simulation`], the single-node engine: it owns the
//!   pool, the maintained index and the scratch, and runs the executor's
//!   phases back to back, behind a validating builder;
//! * [`metrics`] — the per-tick timings and counters every step returns.
//!
//! This crate is the *engine* layer. User-facing entry points live one
//! level up in `brace_scenario`: a `Scenario` registry (every workload —
//! hand-coded or BRASIL-compiled — behind one trait) and a backend-erased
//! `Runner` that drives a [`Simulation`] or a `brace_mapreduce` cluster
//! through one facade, bit-identically.

pub mod agent;
pub mod behavior;
pub mod combinator;
pub mod effect;
pub mod engine;
pub mod executor;
pub mod kernels;
pub mod metrics;
pub mod schema;

pub use agent::{Agent, AgentPool, AgentRead, AgentRef, PoolView};
pub use behavior::{BatchScratch, Behavior, GatheredBatch, NeighborBatch, NeighborRef, Neighbors, UpdateCtx};
pub use combinator::Combinator;
pub use effect::{EffectTable, EffectWriter};
pub use engine::{Simulation, SimulationBuilder};
pub use executor::{IndexMaintenance, MaintainedIndex, PendingSpawn, QueryKernel, TickScratch};
pub use metrics::TickMetrics;
pub use schema::{AgentSchema, SchemaBuilder};

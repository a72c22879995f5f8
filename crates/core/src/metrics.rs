//! Per-tick metrics.
//!
//! Every [`Simulation::step`](crate::Simulation::step) returns one
//! [`TickMetrics`]: the tick's per-phase timings and counters. Run-level
//! figures (the paper's total simulation time and agent-ticks per second)
//! are sums over these, taken by whoever drives the ticks.

use serde::{Deserialize, Serialize};

/// Timing and counters for one executed tick.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TickMetrics {
    pub tick: u64,
    /// Agents processed (owned agents at the start of the tick).
    pub n_agents: usize,
    /// Nanoseconds spent building the spatial index.
    pub index_build_ns: u64,
    /// Nanoseconds spent in the query phase (probes + behavior queries +
    /// the shard effect-table merge).
    pub query_ns: u64,
    /// Nanoseconds of `query_ns` spent ⊕-merging shard effect tables into
    /// the pool's effect columns (a subset, not an additional phase —
    /// `total_ns` must not count it twice).
    pub merge_ns: u64,
    /// Nanoseconds spent in the update phase.
    pub update_ns: u64,
    /// Total neighbor candidates visited across all probes (the join's
    /// output cardinality plus index false positives).
    pub neighbor_visits: u64,
    /// Non-local effect writes performed.
    pub nonlocal_writes: u64,
    pub spawned: usize,
    pub killed: usize,
}

impl TickMetrics {
    pub fn total_ns(&self) -> u64 {
        self.index_build_ns + self.query_ns + self.update_ns
    }
}

//! Tick and run metrics.
//!
//! The paper reports *total simulation time* for single-node experiments
//! (Figures 3, 4) and *agent-ticks per second* for cluster experiments
//! (Figures 5–7), discarding start-up transients. [`SimMetrics`] collects
//! exactly what those harnesses need, with per-phase breakdowns.

use brace_common::Welford;
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

/// Accumulated metrics over a run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimMetrics {
    pub ticks: u64,
    pub agent_ticks: u64,
    pub total_ns: u64,
    pub index_build_ns: u64,
    pub query_ns: u64,
    /// Shard effect-table merge time (a subset of `query_ns`).
    pub merge_ns: u64,
    pub update_ns: u64,
    pub neighbor_visits: u64,
    pub nonlocal_writes: u64,
    pub spawned: u64,
    pub killed: u64,
    /// Distribution of per-tick wall time (for the Fig. 8 epoch-time view).
    pub tick_time: Welford,
    /// Most recent tick, for probes/diagnostics.
    pub last: Option<TickMetrics>,
}

impl SimMetrics {
    pub fn record(&mut self, tm: TickMetrics) {
        self.ticks += 1;
        self.agent_ticks += tm.n_agents as u64;
        self.total_ns += tm.total_ns();
        self.index_build_ns += tm.index_build_ns;
        self.query_ns += tm.query_ns;
        self.merge_ns += tm.merge_ns;
        self.update_ns += tm.update_ns;
        self.neighbor_visits += tm.neighbor_visits;
        self.nonlocal_writes += tm.nonlocal_writes;
        self.spawned += tm.spawned as u64;
        self.killed += tm.killed as u64;
        self.tick_time.push(tm.total_ns() as f64);
        self.last = Some(tm);
    }

    /// Merge metrics from another executor (per-worker → per-run roll-up).
    pub fn merge(&mut self, other: &SimMetrics) {
        self.ticks = self.ticks.max(other.ticks);
        self.agent_ticks += other.agent_ticks;
        self.total_ns += other.total_ns;
        self.index_build_ns += other.index_build_ns;
        self.query_ns += other.query_ns;
        self.merge_ns += other.merge_ns;
        self.update_ns += other.update_ns;
        self.neighbor_visits += other.neighbor_visits;
        self.nonlocal_writes += other.nonlocal_writes;
        self.spawned += other.spawned;
        self.killed += other.killed;
        self.tick_time.merge(&other.tick_time);
    }

    /// Agent-ticks per second of accumulated executor time. For wall-clock
    /// throughput across parallel workers use the harness's own wall timer;
    /// this figure is the single-thread-equivalent rate.
    pub fn throughput(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.agent_ticks as f64 / (self.total_ns as f64 / 1e9)
    }

    /// Total time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Forget everything (used to discard start-up transients, as the
    /// paper does: "we eliminate start-up transients by discarding initial
    /// ticks until a stable tick rate is achieved").
    pub fn reset(&mut self) {
        *self = SimMetrics::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tm(tick: u64, agents: usize, q: u64, u: u64) -> TickMetrics {
        TickMetrics { tick, n_agents: agents, query_ns: q, update_ns: u, ..Default::default() }
    }

    #[test]
    fn record_accumulates() {
        let mut m = SimMetrics::default();
        m.record(tm(0, 10, 100, 50));
        m.record(tm(1, 12, 200, 60));
        assert_eq!(m.ticks, 2);
        assert_eq!(m.agent_ticks, 22);
        assert_eq!(m.total_ns, 410);
        assert_eq!(m.query_ns, 300);
        assert_eq!(m.last.as_ref().unwrap().tick, 1);
    }

    #[test]
    fn throughput_uses_agent_ticks() {
        let mut m = SimMetrics::default();
        m.record(TickMetrics { n_agents: 1000, query_ns: 500_000_000, ..Default::default() });
        // 1000 agent-ticks in 0.5 s -> 2000/s.
        assert!((m.throughput() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears() {
        let mut m = SimMetrics::default();
        m.record(tm(0, 5, 10, 10));
        m.reset();
        assert_eq!(m.ticks, 0);
        assert_eq!(m.throughput(), 0.0);
        assert!(m.last.is_none());
    }

    #[test]
    fn merge_sums_work_and_keeps_max_ticks() {
        let mut a = SimMetrics::default();
        a.record(tm(0, 5, 10, 5));
        let mut b = SimMetrics::default();
        b.record(tm(0, 7, 20, 5));
        b.record(tm(1, 7, 20, 5));
        a.merge(&b);
        assert_eq!(a.ticks, 2);
        assert_eq!(a.agent_ticks, 5 + 14);
        assert_eq!(a.query_ns, 50);
    }
}

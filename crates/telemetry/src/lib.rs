//! # brace-telemetry — zero-cost-when-off observability for BRACE
//!
//! The paper's BSP tick loop (map₁/query → shuffle → map₂/update) is
//! exactly the structure worth *seeing*: per-phase wall time, candidate
//! volumes, per-traffic-class replica bytes and barrier stalls are the
//! quantities that decide every optimisation in the paper's evaluation.
//! This crate is the one place they are recorded:
//!
//! * a **static registry** of metrics — monotonic [`Counter`]s, [`Gauge`]s
//!   and log₂-bucketed [`Hist`]ograms — held in fixed arrays of
//!   `AtomicU64`, so recording is one relaxed `fetch_add` with no locks,
//!   no allocation and no labels to hash;
//! * a copyable [`Telemetry`] handle that components capture **once** at
//!   construction. The handle is an `Option<&'static Registry>`: when
//!   telemetry is disabled it is `None`, and every recording call is a
//!   single predictable branch that touches **no atomics and no clock** —
//!   the off path costs nothing measurable, and the on path is gated at
//!   ≤ 2% of tick throughput by `tests/telemetry_equivalence.rs`;
//! * a scoped [`PhaseTimer`] for the tick loop: started through the
//!   handle, it reads the clock only when enabled and records elapsed
//!   nanoseconds into a histogram on drop;
//! * a Prometheus **text-format v0.0.4** renderer
//!   ([`render_prometheus`]) that `brace-serve` exposes as
//!   `GET /metrics`.
//!
//! ## Determinism contract
//!
//! Telemetry observes, never perturbs: nothing recorded here feeds back
//! into simulation state, RNG streams, shard plans or iteration order, so
//! every golden checksum and conformance form is bit-identical with
//! telemetry on and off (`tests/telemetry_equivalence.rs` pins this
//! across the whole scenario registry, single-node and cluster).
//!
//! ## The metric catalogue
//!
//! | family | kind | source |
//! |---|---|---|
//! | `brace_phase_index_maintain_ns` | histogram | executor: index sync/rebuild |
//! | `brace_phase_query_ns` | histogram | executor: query phase (incl. merge) |
//! | `brace_phase_effect_merge_ns` | histogram | executor: shard-table ⊕-merge |
//! | `brace_phase_update_ns` | histogram | executor: update phase |
//! | `brace_epoch_barrier_wait_ns` | histogram | cluster worker: straggler's epoch wall − own |
//! | `brace_checkpoint_write_ns` | histogram | cluster master: checkpoint store |
//! | `brace_serve_run_latency_ns` | histogram | serve: accepted-run wall time |
//! | `brace_executor_ticks_total` … | counter | executor per-tick counters |
//! | `brace_net_*_bytes_total` | counter | cluster `NetLedger`, per traffic class |
//! | `brace_cluster_epochs_total`, `brace_cluster_checkpoints_total` | counter | cluster master |
//! | `brace_serve_cache_{hits,misses}_total`, `brace_serve_runs_total` | counter | serve result cache / admissions |
//! | `brace_serve_queue_depth` | gauge | serve admission queue (set at scrape) |

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Monotonic counters. The discriminant is the registry slot; `NAMES`
/// (kept in lockstep) carries the Prometheus family name and help line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    ExecutorTicks = 0,
    ExecutorNeighborVisits,
    ExecutorNonlocalWrites,
    ExecutorSpawned,
    ExecutorKilled,
    NetTransferBytes,
    NetReplicaFullBytes,
    NetReplicaDeltaBytes,
    NetEffectsBytes,
    NetSpawnsBytes,
    NetControlBytes,
    ClusterEpochs,
    ClusterCheckpoints,
    ServeRuns,
    ServeCacheHits,
    ServeCacheMisses,
}

const COUNTER_NAMES: &[(&str, &str)] = &[
    ("brace_executor_ticks_total", "Ticks executed by single-node tick executors"),
    ("brace_executor_neighbor_visits_total", "Neighbor candidates visited across all query probes"),
    ("brace_executor_nonlocal_writes_total", "Non-local effect writes performed in query phases"),
    ("brace_executor_spawned_total", "Agents spawned by update phases"),
    ("brace_executor_killed_total", "Agents killed by update phases"),
    ("brace_net_transfer_bytes_total", "Cluster bytes: agent ownership transfers"),
    ("brace_net_replica_full_bytes_total", "Cluster bytes: full replica distribution"),
    ("brace_net_replica_delta_bytes_total", "Cluster bytes: masked columnar replica deltas"),
    ("brace_net_effects_bytes_total", "Cluster bytes: shipped partial effect aggregates"),
    ("brace_net_spawns_bytes_total", "Cluster bytes: spawn-run exchange"),
    ("brace_net_control_bytes_total", "Cluster bytes: master control traffic"),
    ("brace_cluster_epochs_total", "Cluster epochs coordinated by masters"),
    ("brace_cluster_checkpoints_total", "Coordinated cluster checkpoints written"),
    ("brace_serve_runs_total", "Runs accepted by the serve control plane"),
    ("brace_serve_cache_hits_total", "Serve result-cache hits"),
    ("brace_serve_cache_misses_total", "Serve result-cache misses"),
];

/// Instantaneous gauges (last-set-wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    ServeQueueDepth = 0,
}

const GAUGE_NAMES: &[(&str, &str)] = &[("brace_serve_queue_depth", "Jobs waiting in the serve admission queue")];

/// Log₂-bucketed histograms. All record **nanoseconds**.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistId {
    PhaseIndexMaintain = 0,
    PhaseQuery,
    PhaseEffectMerge,
    PhaseUpdate,
    EpochBarrierWait,
    CheckpointWrite,
    ServeRunLatency,
}

const HIST_NAMES: &[(&str, &str)] = &[
    ("brace_phase_index_maintain_ns", "Per-tick spatial index maintain/rebuild time"),
    ("brace_phase_query_ns", "Per-tick query phase time (probes, behavior queries, shard merge)"),
    ("brace_phase_effect_merge_ns", "Per-tick shard effect-table merge time"),
    ("brace_phase_update_ns", "Per-tick update phase time"),
    ("brace_epoch_barrier_wait_ns", "Per-epoch worker barrier wait (slowest worker's wall time minus its own)"),
    ("brace_checkpoint_write_ns", "Coordinated checkpoint write time"),
    ("brace_serve_run_latency_ns", "Wall time of accepted (non-cached) serve runs"),
];

const N_COUNTERS: usize = COUNTER_NAMES.len();
const N_GAUGES: usize = GAUGE_NAMES.len();
const N_HISTS: usize = HIST_NAMES.len();

/// Finite histogram buckets: upper bounds `2^0 .. 2^(N_BUCKETS-2)` ns, then
/// `+Inf`. 40 finite buckets reach 2³⁹ ns ≈ 9 minutes — far beyond any
/// single phase this records.
const N_BUCKETS: usize = 41;

/// One log₂ histogram: per-bucket counts (not cumulative — the renderer
/// accumulates), plus sum and count for the Prometheus `_sum`/`_count`
/// series.
pub struct Hist {
    buckets: [AtomicU64; N_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Hist {
    const fn new() -> Hist {
        Hist { buckets: [const { AtomicU64::new(0) }; N_BUCKETS], sum: AtomicU64::new(0), count: AtomicU64::new(0) }
    }

    /// Index of the smallest bucket whose upper bound holds `v`:
    /// `le = 2^i` with minimal `i` such that `v ≤ 2^i`, capped at `+Inf`.
    #[inline]
    fn bucket_index(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            (64 - (v - 1).leading_zeros() as usize).min(N_BUCKETS - 1)
        }
    }

    #[inline]
    fn observe(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }
}

/// The static metric registry: every family lives here, at a fixed slot,
/// for the whole process lifetime. There is exactly one ([`Telemetry`]
/// handles either point at it or at nothing).
pub struct Registry {
    counters: [AtomicU64; N_COUNTERS],
    gauges: [AtomicU64; N_GAUGES],
    hists: [Hist; N_HISTS],
}

static REGISTRY: Registry = Registry {
    counters: [const { AtomicU64::new(0) }; N_COUNTERS],
    gauges: [const { AtomicU64::new(0) }; N_GAUGES],
    hists: [const { Hist::new() }; N_HISTS],
};

/// The global enable flag. Read **once** per [`Telemetry::current`] call —
/// never on the per-record path, which is what makes the off path free.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn recording on or off process-wide. Handles captured **after** the
/// change observe it; handles captured before keep their state (components
/// capture at construction, so flip this before building what you want to
/// observe).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Current state of the global enable flag.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Zero every metric (tests and benchmarks; production never resets).
pub fn reset() {
    for c in &REGISTRY.counters {
        c.store(0, Ordering::Relaxed);
    }
    for g in &REGISTRY.gauges {
        g.store(0, Ordering::Relaxed);
    }
    for h in &REGISTRY.hists {
        h.reset();
    }
}

/// The recording handle: a copyable `Option<&'static Registry>`. Capture
/// one at component construction ([`Telemetry::current`]); every recording
/// method is a single branch on the option — when disabled, no atomic is
/// touched and no clock is read.
#[derive(Clone, Copy)]
pub struct Telemetry {
    inner: Option<&'static Registry>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::current()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.inner.is_some()).finish()
    }
}

impl Telemetry {
    /// A permanently-disabled handle (`const`, for defaults).
    pub const fn off() -> Telemetry {
        Telemetry { inner: None }
    }

    /// A handle bound to the current state of the global flag: recording if
    /// telemetry is enabled **now**, a no-op handle otherwise.
    pub fn current() -> Telemetry {
        if ENABLED.load(Ordering::Relaxed) {
            Telemetry { inner: Some(&REGISTRY) }
        } else {
            Telemetry { inner: None }
        }
    }

    /// Is this handle recording?
    #[inline]
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `v` to a counter.
    #[inline]
    pub fn add(&self, c: Counter, v: u64) {
        if let Some(r) = self.inner {
            r.counters[c as usize].fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Increment a counter by one.
    #[inline]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Set a gauge to `v` (last write wins).
    #[inline]
    pub fn gauge_set(&self, g: Gauge, v: u64) {
        if let Some(r) = self.inner {
            r.gauges[g as usize].store(v, Ordering::Relaxed);
        }
    }

    /// Record one observation (nanoseconds) into a histogram.
    #[inline]
    pub fn observe(&self, h: HistId, v: u64) {
        if let Some(r) = self.inner {
            r.hists[h as usize].observe(v);
        }
    }

    /// Start a scoped phase timer that records into `h` on drop. When the
    /// handle is off the timer never reads the clock.
    #[inline]
    pub fn timer(&self, h: HistId) -> PhaseTimer {
        PhaseTimer { tel: *self, hist: h, start: self.inner.map(|_| Instant::now()) }
    }
}

/// Scoped timer for one phase of the tick loop: created through
/// [`Telemetry::timer`], records elapsed nanoseconds into its histogram
/// when dropped. On a disabled handle it holds no start time and drops for
/// free.
pub struct PhaseTimer {
    tel: Telemetry,
    hist: HistId,
    start: Option<Instant>,
}

impl PhaseTimer {
    /// Stop and record now (drop does the same; this names the intent).
    pub fn stop(self) {}
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.tel.observe(self.hist, start.elapsed().as_nanos() as u64);
        }
    }
}

/// Render every registered family as Prometheus text exposition format
/// v0.0.4. Families render unconditionally (a zero counter is still a
/// family), so scrapers see a stable catalogue from the first scrape.
/// Histogram buckets are emitted cumulatively with `le` labels, closed by
/// `+Inf`, `_sum` and `_count`, per the format spec.
pub fn render_prometheus() -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(8192);
    for (i, (name, help)) in COUNTER_NAMES.iter().enumerate() {
        let v = REGISTRY.counters[i].load(Ordering::Relaxed);
        let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}");
    }
    for (i, (name, help)) in GAUGE_NAMES.iter().enumerate() {
        let v = REGISTRY.gauges[i].load(Ordering::Relaxed);
        let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}");
    }
    for (i, (name, help)) in HIST_NAMES.iter().enumerate() {
        let h = &REGISTRY.hists[i];
        let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} histogram");
        let mut cum = 0u64;
        for (b, bucket) in h.buckets.iter().enumerate() {
            cum += bucket.load(Ordering::Relaxed);
            if b == N_BUCKETS - 1 {
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
            } else {
                let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", 1u64 << b);
            }
        }
        let _ = writeln!(out, "{name}_sum {}", h.sum.load(Ordering::Relaxed));
        let _ = writeln!(out, "{name}_count {}", h.count.load(Ordering::Relaxed));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The process-global flag is shared by every test in this binary, so
    /// tests that flip it serialize behind one mutex and restore the prior
    /// state on drop.
    struct FlagGuard {
        was: bool,
        _lock: std::sync::MutexGuard<'static, ()>,
    }

    static FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn enable_for_test() -> FlagGuard {
        let lock = FLAG_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let was = enabled();
        set_enabled(true);
        reset();
        FlagGuard { was, _lock: lock }
    }

    impl Drop for FlagGuard {
        fn drop(&mut self) {
            reset();
            set_enabled(self.was);
        }
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // le bounds are 1, 2, 4, …: a value lands in the smallest bucket
        // whose bound holds it, exactly at the boundary included.
        assert_eq!(Hist::bucket_index(0), 0);
        assert_eq!(Hist::bucket_index(1), 0);
        assert_eq!(Hist::bucket_index(2), 1);
        assert_eq!(Hist::bucket_index(3), 2);
        assert_eq!(Hist::bucket_index(4), 2);
        assert_eq!(Hist::bucket_index(5), 3);
        assert_eq!(Hist::bucket_index(8), 3);
        assert_eq!(Hist::bucket_index(9), 4);
        for i in 0..N_BUCKETS - 1 {
            let bound = 1u64 << i;
            assert_eq!(Hist::bucket_index(bound), i, "2^{i} must land in its own bucket");
            if bound > 1 {
                assert_eq!(Hist::bucket_index(bound + 1), i + 1, "2^{i}+1 must spill to the next");
            }
        }
        // Beyond the largest finite bound: the +Inf bucket.
        assert_eq!(Hist::bucket_index(u64::MAX), N_BUCKETS - 1);
        assert_eq!(Hist::bucket_index(1u64 << (N_BUCKETS - 1)), N_BUCKETS - 1);
    }

    #[test]
    fn off_handle_records_nothing() {
        let _g = enable_for_test();
        let off = Telemetry::off();
        off.incr(Counter::ExecutorTicks);
        off.observe(HistId::PhaseQuery, 123);
        off.gauge_set(Gauge::ServeQueueDepth, 9);
        let t = off.timer(HistId::PhaseUpdate);
        assert!(t.start.is_none(), "off timers must not read the clock");
        drop(t);
        let text = render_prometheus();
        assert!(text.contains("brace_executor_ticks_total 0"), "{text}");
        assert!(text.contains("brace_phase_query_ns_count 0"), "{text}");
    }

    #[test]
    fn on_handle_counts_and_renders() {
        let _g = enable_for_test();
        let tel = Telemetry::current();
        assert!(tel.is_on());
        tel.add(Counter::NetEffectsBytes, 640);
        tel.incr(Counter::ServeCacheHits);
        tel.gauge_set(Gauge::ServeQueueDepth, 3);
        tel.observe(HistId::PhaseQuery, 5); // bucket le=8
        tel.observe(HistId::PhaseQuery, 8); // same bucket
        tel.observe(HistId::PhaseQuery, 9); // le=16
        let text = render_prometheus();
        assert!(text.contains("brace_net_effects_bytes_total 640"), "{text}");
        assert!(text.contains("brace_serve_cache_hits_total 1"), "{text}");
        assert!(text.contains("brace_serve_queue_depth 3"), "{text}");
        // Cumulative buckets: ≤4 none, ≤8 two, ≤16 all three.
        assert!(text.contains("brace_phase_query_ns_bucket{le=\"4\"} 0"), "{text}");
        assert!(text.contains("brace_phase_query_ns_bucket{le=\"8\"} 2"), "{text}");
        assert!(text.contains("brace_phase_query_ns_bucket{le=\"16\"} 3"), "{text}");
        assert!(text.contains("brace_phase_query_ns_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("brace_phase_query_ns_sum 22"), "{text}");
        assert!(text.contains("brace_phase_query_ns_count 3"), "{text}");
    }

    #[test]
    fn phase_timer_records_on_drop() {
        let _g = enable_for_test();
        let tel = Telemetry::current();
        tel.timer(HistId::CheckpointWrite).stop();
        {
            let _t = tel.timer(HistId::CheckpointWrite);
        }
        let text = render_prometheus();
        assert!(text.contains("brace_checkpoint_write_ns_count 2"), "{text}");
    }

    #[test]
    fn every_family_renders_with_help_and_type() {
        let _g = enable_for_test();
        let text = render_prometheus();
        for (name, _) in COUNTER_NAMES.iter().chain(GAUGE_NAMES).chain(HIST_NAMES) {
            assert!(text.contains(&format!("# HELP {name} ")), "missing HELP for {name}");
            assert!(text.contains(&format!("# TYPE {name} ")), "missing TYPE for {name}");
        }
    }

    #[test]
    fn handles_capture_the_flag_at_construction() {
        let _g = enable_for_test();
        let on = Telemetry::current();
        set_enabled(false);
        let off = Telemetry::current();
        assert!(on.is_on() && !off.is_on());
        // The earlier handle keeps recording: capture-at-construction, not
        // per-call flag reads.
        on.incr(Counter::ExecutorTicks);
        off.incr(Counter::ExecutorTicks);
        assert!(render_prometheus().contains("brace_executor_ticks_total 1"));
        set_enabled(true);
    }
}

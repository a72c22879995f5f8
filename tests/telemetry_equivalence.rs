//! Telemetry observes, never perturbs: with recording enabled, every
//! scenario's conformance run — single-node and 2-worker cluster — must
//! produce checksums bit-identical to the same run with telemetry off, and
//! recording must stay cheap.
//!
//! This is its own test binary because the enable flag is process-global:
//! flipping it here can never race another suite's expectations. The tests
//! below still share the flag with each other, so they serialize behind one
//! mutex and restore the prior state on drop.

use brace_core::{QueryKernel, Simulation};
use brace_models::{FishBehavior, FishParams};
use brace_scenario::{Backend, Registry, Runner};
use brace_spatial::IndexKind;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

static FLAG_LOCK: Mutex<()> = Mutex::new(());

/// Holds the flag lock and restores the pre-test flag state on drop.
struct FlagGuard {
    was: bool,
    _lock: MutexGuard<'static, ()>,
}

fn flag_lock() -> FlagGuard {
    let lock = FLAG_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    FlagGuard { was: brace_telemetry::enabled(), _lock: lock }
}

impl Drop for FlagGuard {
    fn drop(&mut self) {
        brace_telemetry::set_enabled(self.was);
    }
}

const TICKS: u64 = 10;

/// Run `scenario`'s conformance form on `backend` and return the checksum.
fn checksum(registry: &Registry, name: &str, backend: Backend) -> u64 {
    let scenario = registry.get(name).expect("registry scenario");
    Runner::new(scenario)
        .conformance()
        .backend(backend)
        .run(TICKS)
        .unwrap_or_else(|e| panic!("`{name}` failed: {e}"))
        .checksum
}

#[test]
fn telemetry_on_and_off_agree_bit_for_bit_across_the_registry() {
    let _g = flag_lock();
    let registry = Registry::builtin();
    for scenario in registry.iter() {
        let name = scenario.name();
        for backend in [Backend::single(), Backend::cluster(2)] {
            brace_telemetry::set_enabled(false);
            let off = checksum(&registry, name, backend.clone());
            brace_telemetry::set_enabled(true);
            let on = checksum(&registry, name, backend.clone());
            assert_eq!(
                off,
                on,
                "`{name}` on backend `{}` changed its checksum when telemetry was enabled",
                backend.label()
            );
        }
    }
}

/// The enabled runs above are not silently no-ops: an enabled run must
/// actually move the executor counters and phase histograms.
#[test]
fn enabled_runs_record_into_the_registry() {
    let _g = flag_lock();
    brace_telemetry::set_enabled(true);
    brace_telemetry::reset();
    let registry = Registry::builtin();
    let scenario = registry.get("epidemic").unwrap();
    Runner::new(scenario).conformance().run(TICKS).unwrap();
    let text = brace_telemetry::render_prometheus();
    let value = |metric: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(metric) && l.as_bytes().get(metric.len()) == Some(&b' '))
            .and_then(|l| l.split_whitespace().nth(1))
            .unwrap_or_else(|| panic!("`{metric}` missing from render"))
            .parse()
            .expect("metric value is an integer")
    };
    assert!(value("brace_executor_ticks_total") >= TICKS, "{text}");
    assert!(value("brace_phase_query_ns_count") >= TICKS);
    assert!(value("brace_phase_update_ns_count") >= TICKS);
    assert!(value("brace_executor_neighbor_visits_total") > 0, "an epidemic run visits neighbors");
    brace_telemetry::reset();
}

/// Enabled recording costs at most 2% of whole-tick throughput on fish
/// (2k agents at constant density, KD-tree, serial, batched kernel). The
/// executor captures the flag at construction, so one executor is built
/// with recording off and a twin with it on. The twins do the same work
/// tick for tick, so they step in alternation and each tick pair gives one
/// on/off time ratio, wall-clocked around `step` so the recording itself
/// counts. The median ratio is the cost: a load spike on a shared host hits
/// a few pairs, not the median. Timing is only meaningful in release, and
/// the threshold is only enforced with more than one visible core: on a
/// time-sliced single core the noise floor can exceed the effect, so the
/// number is reported without failing on it.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn telemetry_recording_costs_at_most_two_percent_of_tick_throughput() {
    const AGENTS: usize = 2_000;
    const WARMUP: u64 = 1;
    const TICKS: usize = 96;
    let _g = flag_lock();
    let build = |enabled: bool| {
        brace_telemetry::set_enabled(enabled);
        let radius = (AGENTS as f64 / std::f64::consts::PI / 0.5).sqrt();
        let behavior = FishBehavior::new(FishParams { school_radius: radius, ..FishParams::default() });
        let pop = behavior.population(AGENTS, 42);
        let mut exec = Simulation::new(behavior, pop, IndexKind::KdTree, 42);
        exec.set_parallelism(1);
        exec.set_query_kernel(QueryKernel::Batched);
        exec.run(WARMUP);
        exec
    };
    let (mut off, mut on) = (build(false), build(true));
    let timed = |exec: &mut Simulation<FishBehavior>| {
        let start = Instant::now();
        exec.step();
        start.elapsed().as_secs_f64()
    };
    let mut ratios: Vec<f64> = (0..TICKS)
        .map(|t| {
            // Swap which twin goes first every tick so neither gets the warmer cache.
            if t % 2 == 0 {
                let off_s = timed(&mut off);
                timed(&mut on) / off_s
            } else {
                let on_s = timed(&mut on);
                on_s / timed(&mut off)
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    // (off − on) / off in throughput terms, as a percentage.
    let overhead_pct = (1.0 - 1.0 / ratios[TICKS / 2]) * 100.0;
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("telemetry overhead: {overhead_pct:+.2}% of tick throughput ({cores} core(s))");
    if cores > 1 {
        assert!(overhead_pct <= 2.0, "telemetry recording overhead {overhead_pct:.2}% exceeds 2% of tick throughput");
    }
}

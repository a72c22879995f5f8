//! `fish-uniform` and `fish-hotspot`: the native fish school on one node
//! with two threads, at constant density or packed into Zipf-weighted
//! clusters the benchmark generates from its seed.

use crate::probe::{self, TickSink};
use crate::trace::{self, span};
use crate::util::{self, median, ms, Metrics, Outcome};
use crate::{Scale, Workload};
use brace_common::{DetRng, Result};
use brace_core::{Agent, Behavior, TickMetrics};
use brace_scenario::{world_checksum, Backend, Registry, Runner, Scenario, ScenarioSetup, SimHandle};
use brace_spatial::IndexKind;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Threads of the measured runs (the reference is serial).
const PARALLELISM: usize = 2;
/// Repetitions a phase runs even when its time budget is spent.
const MIN_REPS: usize = 2;
/// Set-ups a phase times; repetitions count, extra launches make up the rest.
const MIN_SETUPS: usize = 5;
/// Clusters of the hotspot layout.
const HOTSPOT_CLUSTERS: usize = 12;

/// The serial single-node run every measured repetition must reproduce.
struct Reference {
    checksum: u64,
    /// Wall times of the serial steps after the first.
    step_ms: Vec<f64>,
    /// Serial query-phase time of the last tick.
    last_query_ms: f64,
    /// The world before and after the last tick, sorted by id.
    before_last: Vec<Agent>,
    last: Vec<Agent>,
    behavior: Arc<dyn Behavior>,
    index: IndexKind,
}

pub struct Fish {
    name: &'static str,
    hotspot: bool,
    seed: u64,
    agents: usize,
    /// Ticks per repetition; the first is warm-up.
    ticks: u64,
    mismatch: bool,
    scratch: PathBuf,
    registry: Registry,
    reference: Option<Reference>,
}

impl Fish {
    pub fn new(hotspot: bool, seed: u64, scale: Scale, mismatch: bool, scratch: PathBuf) -> Fish {
        let (agents, ticks) = match (hotspot, scale) {
            (false, Scale::Full) => (50_000, 5),
            (true, Scale::Full) => (20_000, 3),
            (false, Scale::Tiny) => (800, 3),
            (true, Scale::Tiny) => (400, 3),
        };
        Fish {
            name: if hotspot { "fish-hotspot" } else { "fish-uniform" },
            hotspot,
            seed,
            agents,
            ticks,
            mismatch,
            scratch,
            registry: Registry::builtin(),
            reference: None,
        }
    }

    fn scenario(&self) -> &dyn Scenario {
        self.registry.get("fish").expect("fish is a builtin scenario")
    }

    /// The population the program receives: the scenario's seeded school,
    /// re-laid into hotspots for `fish-hotspot`.
    fn setup(&self) -> Result<ScenarioSetup> {
        let mut setup = self.scenario().build(Some(self.agents), self.seed)?;
        if self.hotspot {
            hotspotize(&mut setup.population, self.seed);
        }
        Ok(setup)
    }

    fn launch(
        &self,
        setup: ScenarioSetup,
        parallelism: usize,
        sink: &Arc<Mutex<Vec<TickMetrics>>>,
    ) -> Result<SimHandle> {
        Runner::new(self.scenario())
            .seed(self.seed)
            .backend(Backend::SingleNode { parallelism })
            .observe(Box::new(TickSink(Arc::clone(sink))))
            .launch_with(setup)
    }

    fn reference(&mut self) -> Result<&Reference> {
        if self.reference.is_none() {
            let setup = self.setup()?;
            let (behavior, index) = (Arc::clone(&setup.behavior), setup.index);
            let sink = Arc::new(Mutex::new(Vec::new()));
            let mut handle = self.launch(setup, 1, &sink)?;
            let mut step_ms = Vec::new();
            let mut before_last = Vec::new();
            for t in 0..self.ticks {
                if t + 1 == self.ticks {
                    before_last = handle.world()?;
                }
                let start = Instant::now();
                handle.run(1)?;
                if t > 0 {
                    step_ms.push(ms(start.elapsed()));
                }
            }
            let last = handle.world()?;
            self.scenario().check(&last)?;
            let last_query_ms =
                sink.lock().expect("tick sink poisoned").last().map_or(f64::NAN, |t| t.query_ns as f64 / 1e6);
            self.reference = Some(Reference {
                checksum: world_checksum(&last),
                step_ms,
                last_query_ms,
                before_last,
                last,
                behavior,
                index,
            });
        }
        Ok(self.reference.as_ref().expect("set above"))
    }
}

/// One measured repetition: set-up seconds, the first step's wall, the
/// walls of the steps after it with their tick metrics, and the final
/// checksum.
struct Rep {
    setup_s: f64,
    first_ms: f64,
    step_ms: Vec<f64>,
    ticks: Vec<TickMetrics>,
    checksum: u64,
}

impl Fish {
    fn rep(&self) -> Result<Rep> {
        let sink = Arc::new(Mutex::new(Vec::new()));
        let start = Instant::now();
        let setup = span("scenario.build", || self.setup())?;
        let mut handle = span("scenario.launch", || self.launch(setup, PARALLELISM, &sink))?;
        let setup_s = start.elapsed().as_secs_f64();
        let mut step_ms = Vec::new();
        for _ in 0..self.ticks {
            let start = Instant::now();
            span("core.step", || handle.run(1))?;
            step_ms.push(ms(start.elapsed()));
        }
        let first_ms = step_ms.remove(0);
        let checksum = span("scenario.collect", || -> Result<u64> {
            let world = handle.world()?;
            self.scenario().check(&world)?;
            Ok(world_checksum(&world))
        })?;
        let ticks = sink.lock().expect("tick sink poisoned").split_off(1);
        Ok(Rep { setup_s, first_ms, step_ms, ticks, checksum })
    }
}

impl Workload for Fish {
    fn measure(&mut self, budget: Duration, traced: bool) -> Result<Outcome> {
        let expected = self.reference()?.checksum ^ u64::from(self.mismatch);
        let mut o = Outcome::default();
        let (mut setups, mut first_ms, mut step_ms, mut rates, mut ticks) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        let mut reps = 0;
        while reps < MIN_REPS || start.elapsed() < budget {
            trace::set_run(format!("{}/seed{}/rep{reps}", self.name, self.seed));
            reps += 1;
            o.attempted += 1;
            match self.rep() {
                Ok(rep) => {
                    if rep.checksum != expected {
                        o.fail(format!("rep {reps}: checksum {:#x} != serial reference {expected:#x}", rep.checksum));
                    }
                    rates.extend(rep.ticks.iter().zip(&rep.step_ms).map(|(t, ms)| t.n_agents as f64 / (ms / 1e3)));
                    setups.push(rep.setup_s);
                    first_ms.push(rep.first_ms);
                    step_ms.extend(rep.step_ms);
                    ticks.extend(rep.ticks);
                }
                Err(e) => o.fail(format!("rep {reps}: {e}")),
            }
        }
        let peak_rss_mb = util::peak_rss_mb();
        while setups.len() < MIN_SETUPS {
            let start = Instant::now();
            let setup = span("scenario.build", || self.setup())?;
            drop(span("scenario.launch", || self.launch(setup, PARALLELISM, &Arc::default()))?);
            setups.push(start.elapsed().as_secs_f64());
        }

        let (agents, scratch) = (self.agents, self.scratch.clone());
        let reference = self.reference()?;
        let serial_step_ms = median(&reference.step_ms);
        o.e2e.push("setup_s", median(&setups), "s");
        o.e2e.push("agent_ticks_per_s", median(&rates), "1/s");
        o.e2e.push("op_p50_ms", median(&step_ms), "ms");
        o.e2e.push("alt_p50_ms", median(&first_ms), "ms");
        o.e2e.push("peak_rss_mb", peak_rss_mb, "MB");
        o.detail.push("tick_2threads_p50_ms", median(&step_ms), "ms");
        o.detail.push("first_tick_p50_ms", median(&first_ms), "ms");
        o.detail.push("tick_serial_p50_ms", serial_step_ms, "ms");
        o.detail.push("reps", reps as f64, "count");
        o.detail.push("ticks_measured", step_ms.len() as f64, "count");
        o.detail.push("serial_ticks_measured", reference.step_ms.len() as f64, "count");
        o.detail.push("agents", agents as f64, "count");
        o.detail.push("working_set_bytes_computed", working_set_bytes(&reference.last), "B");

        if traced {
            layers_of(&mut o, &ticks, &step_ms, reference, &scratch);
        }
        Ok(o)
    }
}

fn layers_of(o: &mut Outcome, ticks: &[TickMetrics], step_ms: &[f64], r: &Reference, scratch: &std::path::Path) {
    o.layers.extend(scenario_layers());
    o.layers.extend(probe::core_metrics(ticks, step_ms, median(&r.step_ms) / median(step_ms)));
    let spatial = probe::spatial(r.behavior.as_ref(), r.index, &r.before_last, &r.last);
    let probe_ms = spatial.get("spatial.probe_ms").unwrap_or(f64::NAN);
    o.layers.extend(spatial);
    // Derived, not measured: the serial query phase of the reference's last
    // tick minus the serial probe pass over the same world.
    o.layers.push("models.query_compute_ms", r.last_query_ms - probe_ms, "ms");
    o.attempted += 2;
    let (codec, err) = probe::codec(r.behavior.as_ref(), &r.last);
    o.layers.extend(codec);
    o.failures.extend(err);
    let (cp, err) = probe::checkpoint(&r.last, 0, &scratch.join("checkpoint-probe"));
    o.layers.extend(cp);
    o.failures.extend(err);
}

/// `scenario.*` from the spans of this phase.
pub fn scenario_layers() -> Metrics {
    let mut m = Metrics::default();
    for (name, span) in [
        ("scenario.build_ms", "scenario.build"),
        ("scenario.launch_ms", "scenario.launch"),
        ("scenario.collect_ms", "scenario.collect"),
    ] {
        m.push(name, median(&trace::durations_ms(span)), "ms");
    }
    m
}

/// Agents × wire row bytes: what shipping or checkpointing the world moves.
pub fn working_set_bytes(world: &[Agent]) -> f64 {
    world.first().map_or(0.0, |a| (world.len() * brace_mapreduce::codec::agent_wire_size(a)) as f64)
}

/// Re-lay a population into a heavy-tailed hotspot layout: positions are
/// drawn around `HOTSPOT_CLUSTERS` centres inside the population's bounding
/// box, each agent picking a centre with Zipf weight 1/(rank+1) and a
/// normal offset of 1/64 of the box. States and ids are untouched, so the
/// behavior is the scenario's; only the density changes.
///
/// The centres are the fixed layout of the `tick-throughput` harness
/// (its seed `0xB07`): where clusters overlap decides how dense the worst
/// hotspot is, so letting the workload seed move them would make the cost
/// of a tick depend on the seed. The seed draws each agent's cluster and
/// offset.
pub fn hotspotize(pop: &mut [Agent], seed: u64) {
    if pop.is_empty() {
        return;
    }
    let (mut lox, mut hix, mut loy, mut hiy) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for a in pop.iter() {
        lox = lox.min(a.pos.x);
        hix = hix.max(a.pos.x);
        loy = loy.min(a.pos.y);
        hiy = hiy.max(a.pos.y);
    }
    let (ex, ey) = ((hix - lox).max(f64::MIN_POSITIVE), (hiy - loy).max(f64::MIN_POSITIVE));
    let mut centres = DetRng::seed_from_u64(0xB07).stream(0xC3);
    let centres: Vec<(f64, f64)> =
        (0..HOTSPOT_CLUSTERS).map(|_| (centres.range(lox, hix), centres.range(loy, hiy))).collect();
    let total: f64 = (0..HOTSPOT_CLUSTERS).map(|k| 1.0 / (k + 1) as f64).sum();
    let mut cdf = Vec::with_capacity(HOTSPOT_CLUSTERS);
    let mut acc = 0.0;
    for k in 0..HOTSPOT_CLUSTERS {
        acc += 1.0 / (k + 1) as f64 / total;
        cdf.push(acc);
    }
    let root = DetRng::seed_from_u64(seed);
    for (i, a) in pop.iter_mut().enumerate() {
        let mut r = root.stream(i as u64 + 1);
        let u = r.unit();
        let k = cdf.iter().position(|&c| u < c).unwrap_or(HOTSPOT_CLUSTERS - 1);
        let (cx, cy) = centres[k];
        a.pos.x = (cx + r.normal() * ex / 64.0).clamp(lox, hix);
        a.pos.y = (cy + r.normal() * ey / 64.0).clamp(loy, hiy);
    }
}

//! `predator-cluster`: the native predator on a two-worker cluster, run as
//! a durable job that checkpoints every epoch into a run directory. After
//! the measured epochs the cluster is dropped (a crash with no shutdown
//! courtesy) and `ClusterSim::resume` is timed through its first epoch.

use crate::fish::{scenario_layers, working_set_bytes};
use crate::probe;
use crate::trace::{self, span};
use crate::util::{self, median, ms, quantile, Outcome};
use crate::{Scale, Workload};
use brace_common::Result;
use brace_core::{Agent, Behavior};
use brace_mapreduce::checkpoint::{list_checkpoint_epochs, load_checkpoint_file};
use brace_mapreduce::net::Counter;
use brace_mapreduce::{ClusterConfig, ClusterSim, ClusterStats, NetStats};
use brace_scenario::{world_checksum, JobSpec, Registry, Scenario};
use brace_spatial::IndexKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
/// Epochs run before measuring: the first one ships the initial replicas.
const WARM_EPOCHS: u64 = 1;
const MIN_REPS: usize = 2;
const MIN_SETUPS: usize = 5;
const RESUMES_PER_REP: usize = 2;

pub struct PredatorCluster {
    seed: u64,
    agents: usize,
    measured_epochs: u64,
    mismatch: bool,
    root: PathBuf,
    registry: Registry,
    /// Checksums of the first repetition of this seed: after the measured
    /// epochs, and one epoch later (what a resume must land on).
    first: Option<(u64, u64)>,
    dirs: usize,
}

/// What one repetition leaves behind.
struct Rep {
    setup_s: f64,
    epoch_ms: Vec<f64>,
    /// Agent-ticks per second of each measured epoch.
    rates: Vec<f64>,
    /// The first repetition ran one epoch more; a resume of its run dir has
    /// no reference to compare with.
    first: bool,
    before: ClusterStats,
    after: ClusterStats,
    checksum: u64,
    world: Vec<Agent>,
    behavior: Arc<dyn Behavior>,
    index: IndexKind,
    cfg: ClusterConfig,
}

impl PredatorCluster {
    pub fn new(seed: u64, scale: Scale, mismatch: bool, root: PathBuf) -> PredatorCluster {
        let (agents, measured_epochs) = match scale {
            Scale::Full => (100_000, 3),
            Scale::Tiny => (2_000, 2),
        };
        PredatorCluster {
            seed,
            agents,
            measured_epochs,
            mismatch,
            root,
            registry: Registry::builtin(),
            first: None,
            dirs: 0,
        }
    }

    fn scenario(&self) -> &dyn Scenario {
        self.registry.get("predator").expect("predator is a builtin scenario")
    }

    fn fresh_dir(&mut self, tag: &str) -> PathBuf {
        self.dirs += 1;
        let dir = self.root.join(format!("{tag}{}", self.dirs));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Build the population and launch a durable cluster run in `dir`.
    fn launch(&self, dir: PathBuf) -> Result<(ClusterSim, Arc<dyn Behavior>, IndexKind, ClusterConfig)> {
        let setup = span("scenario.build", || self.scenario().build(Some(self.agents), self.seed))?;
        let cfg = ClusterConfig {
            workers: WORKERS,
            epoch_len: setup.epoch_len,
            index: setup.index,
            seed: self.seed,
            space_x: setup.space_x,
            checkpoint_every: Some(1),
            keep_checkpoints: 2,
            run_dir: Some(dir),
            job: JobSpec { scenario: "predator".into(), size: Some(self.agents), conformance: false }.encode(),
            total_ticks: 1 << 40,
            ..ClusterConfig::default()
        };
        let behavior = Arc::clone(&setup.behavior);
        let sim = span("scenario.launch", || ClusterSim::new(setup.behavior, setup.population, cfg.clone()))?;
        Ok((sim, behavior, setup.index, cfg))
    }

    fn collect(&self, sim: &mut ClusterSim) -> Result<(Vec<Agent>, u64)> {
        span("scenario.collect", || {
            let world = sim.collect_agents()?;
            self.scenario().check(&world)?;
            let checksum = world_checksum(&world);
            Ok((world, checksum))
        })
    }

    fn rep(&mut self) -> Result<Rep> {
        let dir = self.fresh_dir("rep");
        let start = Instant::now();
        let (mut sim, behavior, index, cfg) = self.launch(dir)?;
        let setup_s = start.elapsed().as_secs_f64();
        for _ in 0..WARM_EPOCHS {
            span("mapreduce.epoch", || sim.run_epochs(1))?;
        }
        let before = sim.stats();
        let (mut epoch_ms, mut rates) = (Vec::new(), Vec::new());
        let mut agent_ticks = before.agent_ticks;
        for _ in 0..self.measured_epochs {
            let start = Instant::now();
            span("mapreduce.epoch", || sim.run_epochs(1))?;
            let wall_ms = ms(start.elapsed());
            let now = sim.stats().agent_ticks;
            epoch_ms.push(wall_ms);
            rates.push((now - agent_ticks) as f64 / (wall_ms / 1e3));
            agent_ticks = now;
        }
        let mut after = sim.stats();
        let (world, checksum) = self.collect(&mut sim)?;
        let first = self.first.is_none();
        if first {
            span("mapreduce.epoch", || sim.run_epochs(1))?;
            let (_, next) = self.collect(&mut sim)?;
            self.first = Some((checksum, next));
            after.wall_ns = sim.stats().wall_ns;
        }
        Ok(Rep { setup_s, epoch_ms, rates, first, before, after, checksum, world, behavior, index, cfg })
    }

    /// Copy the abandoned run dir (the original stays for the checkpoint
    /// probe), resume the copy and run one epoch.
    /// Returns the resume time, the checksum after the epoch, and the
    /// epoch's wall time as the master accounts it.
    fn resume(&mut self, rep: &Rep) -> Result<(f64, u64, u64)> {
        let src = rep.cfg.run_dir.clone().expect("durable runs have a run dir");
        let dir = self.fresh_dir("resume");
        copy_dir(&src, &dir)?;
        let cfg = ClusterConfig { run_dir: Some(dir.clone()), ..rep.cfg.clone() };
        let start = Instant::now();
        let (mut sim, _) = span("mapreduce.resume", || ClusterSim::resume(Arc::clone(&rep.behavior), cfg))?;
        span("mapreduce.epoch", || sim.run_epochs(1))?;
        let resume_ms = ms(start.elapsed());
        let (_, checksum) = self.collect(&mut sim)?;
        let wall_ns = sim.stats().wall_ns;
        drop(sim);
        let _ = std::fs::remove_dir_all(&dir);
        Ok((resume_ms, checksum, wall_ns))
    }
}

impl Workload for PredatorCluster {
    fn measure(&mut self, budget: Duration, traced: bool) -> Result<Outcome> {
        let mut o = Outcome::default();
        let (mut setups, mut rates, mut epoch_ms) = (Vec::new(), Vec::new(), Vec::new());
        let (mut bytes, mut messages) = ([0u64; 6], 0u64);
        let (mut ticks, mut replicas, mut transfers, mut wall_ns) = (0u64, 0u64, 0u64, 0u64);
        let (mut imbalance, mut resume_ms) = (Vec::new(), Vec::new());
        let mut last: Option<Rep> = None;
        let start = Instant::now();
        let mut reps = 0;
        while reps < MIN_REPS || start.elapsed() < budget {
            trace::set_run(format!("predator-cluster/seed{}/rep{reps}", self.seed));
            reps += 1;
            o.attempted += 1;
            let rep = match self.rep() {
                Ok(rep) => rep,
                Err(e) => {
                    o.fail(format!("rep {reps}: {e}"));
                    continue;
                }
            };
            let (expected, after_resume) = self.first.expect("set by the first repetition");
            if rep.checksum != expected ^ u64::from(self.mismatch) {
                o.fail(format!("rep {reps}: checksum {:#x} != first repetition {expected:#x}", rep.checksum));
            }
            let (b, a) = (&rep.before, &rep.after);
            setups.push(rep.setup_s);
            epoch_ms.extend(&rep.epoch_ms);
            rates.extend(&rep.rates);
            for (i, (x, y)) in classes(&a.net).iter().zip(classes(&b.net)).enumerate() {
                bytes[i] += x.bytes - y.bytes;
                messages += x.messages - y.messages;
            }
            ticks += a.ticks - b.ticks;
            replicas += (a.replicas_in + a.replica_deltas_in) - (b.replicas_in + b.replica_deltas_in);
            transfers += a.transfers_in - b.transfers_in;
            wall_ns += a.wall_ns;
            for counts in &a.agents_per_worker[b.agents_per_worker.len()..] {
                let total: usize = counts.iter().sum();
                imbalance.push(*counts.iter().max().unwrap_or(&0) as f64 * counts.len() as f64 / total.max(1) as f64);
            }
            // Resumes of this repetition's run dir, each from its own copy.
            // The first repetition ran one epoch further than a resume can
            // be checked against, so it is not resumed.
            let resumes = if rep.first { 0 } else { RESUMES_PER_REP };
            for r in 0..resumes {
                trace::set_run(format!("predator-cluster/seed{}/rep{reps}/resume{r}", self.seed));
                o.attempted += 1;
                match self.resume(&rep) {
                    Ok((t, checksum, epoch_wall_ns)) => {
                        resume_ms.push(t);
                        wall_ns += epoch_wall_ns;
                        if checksum != after_resume ^ u64::from(self.mismatch) {
                            o.fail(format!(
                                "resume {reps}: checksum {checksum:#x} != uninterrupted run {after_resume:#x}"
                            ));
                        }
                    }
                    Err(e) => o.fail(format!("resume {reps}: {e}")),
                }
            }
            if let Some(prev) = last.replace(rep) {
                let _ = std::fs::remove_dir_all(prev.cfg.run_dir.expect("durable runs have a run dir"));
            }
        }
        let peak_rss_mb = util::peak_rss_mb();
        while setups.len() < MIN_SETUPS {
            let dir = self.fresh_dir("setup");
            let start = Instant::now();
            drop(self.launch(dir.clone())?);
            setups.push(start.elapsed().as_secs_f64());
            let _ = std::fs::remove_dir_all(dir);
        }
        let Some(last) = last else {
            return Ok(o);
        };
        let src = last.cfg.run_dir.clone().expect("durable runs have a run dir");
        o.e2e.push("setup_s", median(&setups), "s");
        o.e2e.push("agent_ticks_per_s", median(&rates), "1/s");
        o.e2e.push("op_p50_ms", median(&epoch_ms), "ms");
        o.e2e.push("alt_p50_ms", median(&resume_ms), "ms");
        o.e2e.push("peak_rss_mb", peak_rss_mb, "MB");
        o.detail.push("epoch_p50_ms", median(&epoch_ms), "ms");
        o.detail.push("resume_s", median(&resume_ms) / 1e3, "s");
        o.detail.push("reps", reps as f64, "count");
        o.detail.push("epochs_measured", epoch_ms.len() as f64, "count");
        o.detail.push("resumes", resume_ms.len() as f64, "count");
        o.detail.push("agents", self.agents as f64, "count");
        o.detail.push("working_set_bytes_computed", working_set_bytes(&last.world), "B");

        if traced {
            let barrier_ns = telemetry_sum("brace_epoch_barrier_wait_ns");
            let checkpoint_write = telemetry_sum("brace_checkpoint_write_ns");
            let mut load_ms = Vec::new();
            if let Some(&epoch) = list_checkpoint_epochs(&src).last() {
                for _ in 0..3 {
                    let start = Instant::now();
                    if let Err(e) = span("mapreduce.checkpoint_load", || load_checkpoint_file(&src, epoch)) {
                        o.fail(format!("checkpoint load: {e}"));
                    }
                    load_ms.push(ms(start.elapsed()));
                }
            }
            o.layers.extend(scenario_layers());
            let (core, serial_query_ms, next) =
                probe::core_on_world(&last.behavior, &last.world, last.index, self.seed, 3)?;
            o.layers.extend(core);
            let spatial = probe::spatial(last.behavior.as_ref(), last.index, &last.world, &next);
            let probe_ms = spatial.get("spatial.probe_ms").unwrap_or(f64::NAN);
            o.layers.extend(spatial);
            o.layers.push("models.query_compute_ms", serial_query_ms - probe_ms, "ms");
            o.attempted += 1;
            let (codec, err) = probe::codec(last.behavior.as_ref(), &last.world);
            o.layers.extend(codec);
            o.failures.extend(err);
            o.layers.push(
                "mapreduce.checkpoint_write_ms",
                checkpoint_write.0 / checkpoint_write.1.max(1.0) / 1e6,
                "ms",
            );
            o.layers.push("mapreduce.checkpoint_load_ms", median(&load_ms), "ms");

            let per_tick = |v: u64| v as f64 / ticks.max(1) as f64;
            let x = &mut o.layer_extra;
            x.push("mapreduce.epoch_ms_p50", median(&epoch_ms), "ms");
            x.push("mapreduce.epoch_ms_p95", quantile(&epoch_ms, 0.95), "ms");
            for (class, b) in CLASSES.iter().zip(bytes) {
                x.push(format!("mapreduce.bytes_per_tick.{class}"), per_tick(b), "B");
            }
            x.push("mapreduce.messages_per_tick", per_tick(messages), "count");
            x.push("mapreduce.barrier_wait_frac", barrier_ns.0 / (WORKERS as f64 * wall_ns.max(1) as f64), "ratio");
            x.push("mapreduce.imbalance", imbalance.iter().sum::<f64>() / imbalance.len().max(1) as f64, "ratio");
            x.push("mapreduce.replicas_in_per_tick", per_tick(replicas), "count");
            x.push("mapreduce.transfers_in_per_tick", per_tick(transfers), "count");
        }
        let _ = std::fs::remove_dir_all(&src);
        Ok(o)
    }
}

/// Names of the `NetStats` traffic classes, in the order `classes` lists them.
const CLASSES: [&str; 6] = ["transfer", "replica_full", "replica_delta", "effects", "spawns", "control"];

fn classes(n: &NetStats) -> [Counter; 6] {
    [n.transfer, n.replica_full, n.replica_delta, n.effects, n.spawns, n.control]
}

/// `(sum, count)` of a telemetry histogram, read from the Prometheus
/// exposition (the registry's only public reader).
fn telemetry_sum(family: &str) -> (f64, f64) {
    let text = brace_telemetry::render_prometheus();
    let read = |suffix: &str| {
        let key = format!("{family}_{suffix} ");
        text.lines().find_map(|l| l.strip_prefix(&key)).and_then(|v| v.trim().parse::<f64>().ok()).unwrap_or(0.0)
    };
    (read("sum"), read("count"))
}

fn copy_dir(src: &Path, dst: &Path) -> Result<()> {
    let io = |e: std::io::Error| brace_common::BraceError::Config(format!("copying run dir: {e}"));
    std::fs::create_dir_all(dst).map_err(io)?;
    for entry in std::fs::read_dir(src).map_err(io)? {
        let entry = entry.map_err(io)?;
        std::fs::copy(entry.path(), dst.join(entry.file_name())).map_err(io)?;
    }
    Ok(())
}

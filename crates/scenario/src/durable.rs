//! Durable runs: the registry surface promoted to crash-safe *jobs*.
//!
//! A [`DurableRunner`] owns a root directory of runs. [`start`] creates
//! `root/<run-id>/` and launches a cluster run whose every coordinated
//! checkpoint appends to the write-ahead manifest in that directory
//! (`manifest.brace`, fsynced, checksummed per record — see
//! `brace_mapreduce::manifest`). If the process dies — crash, SIGKILL,
//! power loss — [`resume`] reads the manifest back in a *fresh* process,
//! rebuilds the behavior from the recorded job line, restores the workers
//! from the newest valid on-disk checkpoint, replays the logged epoch
//! commands, and finishes the run **bit-identically** to the uninterrupted
//! execution (`tests/durable_resume.rs` proves this across a real
//! `SIGKILL`). [`list`] summarizes what is on disk.
//!
//! The job line in the manifest header (`scenario=… size=… conformance=…`)
//! plus the recorded seed fully identify the behavior, because scenario
//! builds are pure functions of `(size, seed)` — that is the
//! [`Scenario`] determinism contract doing durability
//! work.
//!
//! [`start`]: DurableRunner::start
//! [`resume`]: DurableRunner::resume
//! [`list`]: DurableRunner::list

use crate::jobline::JobSpec;
use crate::runner::DEFAULT_SEED;
use crate::{world_checksum, Registry, Scenario};
use brace_common::{BraceError, Result};
use brace_mapreduce::cluster::index_from_u8;
use brace_mapreduce::{manifest, ClusterConfig, ClusterSim, ClusterStats};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Everything [`DurableRunner::start`] needs to create a new run.
#[derive(Debug, Clone)]
pub struct DurableOpts {
    /// Registry name of the scenario to run.
    pub scenario: String,
    /// Run directory name under the root; defaults to `<scenario>-<seed>`.
    /// Starting a run whose manifest already exists is refused (resume it
    /// instead) — run ids are identities, not scratch names.
    pub run_id: Option<String>,
    /// Population size (`None` = the scenario default).
    pub size: Option<usize>,
    /// Use the scenario's reduced, exactly-distributable conformance form.
    pub conformance: bool,
    /// Master seed (behavior, population and worker RNGs derive from it).
    pub seed: u64,
    /// Cluster worker count.
    pub workers: usize,
    /// Total ticks the job runs for (recorded in the manifest header;
    /// resume finishes exactly the remainder).
    pub ticks: u64,
    /// Coordinated-checkpoint cadence in epochs (clamped to ≥ 1: a durable
    /// run without checkpoints could never be resumed).
    pub checkpoint_every: u64,
    /// On-disk checkpoint retention (newest K kept, older pruned).
    pub keep_checkpoints: usize,
    /// Results-neutral per-epoch throttle. Only the wall clock sees it —
    /// it exists so restart tests (and demos) can reliably catch a run
    /// mid-flight.
    pub epoch_sleep_ms: u64,
}

impl Default for DurableOpts {
    fn default() -> Self {
        DurableOpts {
            scenario: String::new(),
            run_id: None,
            size: None,
            conformance: false,
            seed: DEFAULT_SEED,
            workers: 2,
            ticks: 50,
            checkpoint_every: 1,
            keep_checkpoints: 4,
            epoch_sleep_ms: 0,
        }
    }
}

/// What a finished (or resumed-to-finish) durable run reports.
#[derive(Debug, Clone)]
pub struct DurableReport {
    /// The run directory name under the root.
    pub run_id: String,
    /// Scenario registry name.
    pub scenario: String,
    /// Total ticks at completion (fresh start and resume agree on this).
    pub ticks: u64,
    /// Tick the run was restored at (`0` for a fresh start).
    pub resumed_from: u64,
    /// Final live population.
    pub agents: usize,
    /// [`world_checksum`] of the final world, sorted by id — directly
    /// comparable to [`crate::RunReport::checksum`].
    pub checksum: u64,
    /// Cluster runtime counters (checkpoints, recoveries, retries,
    /// dead letters, …) for the portion this process executed.
    pub stats: ClusterStats,
    /// Wall time of the portion this process executed.
    pub wall_secs: f64,
}

/// One row of [`DurableRunner::list`].
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Run directory name.
    pub run_id: String,
    /// The recorded job line (`scenario=… size=… conformance=…`).
    pub job: String,
    /// Current worker count (after any mid-run membership changes).
    pub workers: u32,
    /// Ticks durably completed (epochs with an `EpochDone` record).
    pub completed_ticks: u64,
    /// The job's horizon from the header.
    pub total_ticks: u64,
    /// `Some((ticks, checksum))` once a `Complete` record is on disk.
    pub complete: Option<(u64, u64)>,
    /// Partitions abandoned after exhausting their retry budget.
    pub dead_letters: usize,
    /// The manifest tail was torn (crash mid-append); everything up to the
    /// tear is still trusted and resumable.
    pub truncated: bool,
}

// The job line written to / parsed from the manifest header lives in
// [`crate::jobline`] now, shared with the serve layer's result-cache
// keys. The byte format is unchanged — old manifests stay resumable.

/// Largest epoch length ≤ `preferred` dividing `ticks` (the coordination
/// cadence never affects results, so fitting is free).
fn fit_epoch(preferred: u64, ticks: u64) -> u64 {
    (1..=preferred.max(1)).rev().find(|&e| ticks.is_multiple_of(e)).unwrap_or(1)
}

/// Start / resume / list crash-safe runs under one root directory.
pub struct DurableRunner<'r> {
    registry: &'r Registry,
    root: PathBuf,
}

impl<'r> DurableRunner<'r> {
    pub fn new(registry: &'r Registry, root: impl Into<PathBuf>) -> Self {
        DurableRunner { registry, root: root.into() }
    }

    /// Create `root/<run-id>/` and run the job to completion, appending to
    /// the write-ahead manifest at every coordinated checkpoint. Refuses a
    /// run id whose manifest already exists.
    pub fn start(&self, opts: &DurableOpts) -> Result<DurableReport> {
        let (sim, run_id, scenario) = self.launch(opts)?;
        self.finish(scenario, run_id, sim, opts.ticks, opts.epoch_sleep_ms, 0)
    }

    /// Launch a fresh durable run without driving it — [`start`] minus the
    /// epoch loop. The split exists for tests that need to abandon a run
    /// mid-flight (simulating a crash) and resume it.
    ///
    /// [`start`]: DurableRunner::start
    fn launch(&self, opts: &DurableOpts) -> Result<(ClusterSim, String, &'r dyn Scenario)> {
        let scenario = self.registry.get_or_err(&opts.scenario)?;
        let mut setup =
            if opts.conformance { scenario.conformance(opts.seed)? } else { scenario.build(opts.size, opts.seed)? };
        if opts.ticks == 0 {
            return Err(BraceError::Config("a durable run needs a positive tick horizon".into()));
        }
        setup.epoch_len = fit_epoch(setup.epoch_len, opts.ticks);
        let run_id = opts.run_id.clone().unwrap_or_else(|| format!("{}-{}", opts.scenario, opts.seed));
        let cfg = ClusterConfig {
            workers: opts.workers.max(1),
            epoch_len: setup.epoch_len,
            index: setup.index,
            seed: opts.seed,
            space_x: setup.space_x,
            checkpoint_every: Some(opts.checkpoint_every.max(1)),
            keep_checkpoints: opts.keep_checkpoints.max(1),
            run_dir: Some(self.root.join(&run_id)),
            job: JobSpec { scenario: opts.scenario.clone(), size: opts.size, conformance: opts.conformance }.encode(),
            total_ticks: opts.ticks,
            ..ClusterConfig::default()
        };
        let sim = ClusterSim::new(setup.behavior, setup.population, cfg)?;
        Ok((sim, run_id, scenario))
    }

    /// Resume `root/<run-id>/` in this process: read the manifest, rebuild
    /// the behavior from the recorded job line and seed, restore from the
    /// newest valid checkpoint, replay the logged epoch commands, and run
    /// the remaining ticks. Bit-identical to never having crashed.
    pub fn resume(&self, run_id: &str, epoch_sleep_ms: u64) -> Result<DurableReport> {
        let dir = self.root.join(run_id);
        let m = manifest::read_manifest(&dir)?;
        if let Some((ticks, checksum)) = m.complete() {
            return Err(BraceError::Config(format!(
                "run `{run_id}` already completed {ticks} ticks (checksum {checksum:#018x}); nothing to resume"
            )));
        }
        let job = JobSpec::parse(&m.header.job)?;
        let scenario = self.registry.get_or_err(&job.scenario)?;
        let seed = m.header.seed;
        let setup = if job.conformance { scenario.conformance(seed)? } else { scenario.build(job.size, seed)? };
        let cfg = ClusterConfig {
            workers: m.header.workers as usize,
            epoch_len: m.header.epoch_len,
            index: index_from_u8(m.header.index),
            seed,
            space_x: m.header.space_x,
            load_balance: m.header.load_balance,
            checkpoint_every: (m.header.checkpoint_every > 0).then_some(m.header.checkpoint_every),
            keep_checkpoints: (m.header.keep_checkpoints as usize).max(1),
            run_dir: Some(dir),
            job: m.header.job.clone(),
            total_ticks: m.header.total_ticks,
            ..ClusterConfig::default()
        };
        let (sim, m) = ClusterSim::resume(setup.behavior, cfg)?;
        let resumed_from = sim.tick();
        let remaining = m.header.total_ticks.saturating_sub(resumed_from);
        self.finish(scenario, run_id.to_string(), sim, remaining, epoch_sleep_ms, resumed_from)
    }

    /// Drive `ticks` more ticks epoch by epoch, then collect, sanity-check,
    /// checksum, and append the `Complete` record.
    fn finish(
        &self,
        scenario: &dyn Scenario,
        run_id: String,
        mut sim: ClusterSim,
        ticks: u64,
        epoch_sleep_ms: u64,
        resumed_from: u64,
    ) -> Result<DurableReport> {
        let epoch_len = sim.epoch_len();
        if !ticks.is_multiple_of(epoch_len) {
            return Err(BraceError::Config(format!(
                "{ticks} remaining ticks is not a multiple of the recorded epoch length {epoch_len}"
            )));
        }
        let t0 = Instant::now();
        for _ in 0..ticks / epoch_len {
            sim.run_epochs(1)?;
            if epoch_sleep_ms > 0 {
                std::thread::sleep(Duration::from_millis(epoch_sleep_ms));
            }
        }
        let world = sim.collect_agents()?;
        scenario.check(&world)?;
        let checksum = world_checksum(&world);
        sim.record_complete(sim.tick(), checksum)?;
        Ok(DurableReport {
            run_id,
            scenario: scenario.name().to_string(),
            ticks: sim.tick(),
            resumed_from,
            agents: world.len(),
            checksum,
            stats: sim.stats(),
            wall_secs: t0.elapsed().as_secs_f64(),
        })
    }

    /// Summaries of every run under the root, sorted by run id. Unreadable
    /// manifests are skipped (a run directory is only as good as its
    /// manifest).
    pub fn list(&self) -> Vec<RunSummary> {
        manifest::list_runs(&self.root)
            .into_iter()
            .filter_map(|run_id| {
                let m = manifest::read_manifest(&self.root.join(&run_id)).ok()?;
                Some(RunSummary {
                    run_id,
                    job: m.header.job.clone(),
                    workers: m.current_workers(),
                    completed_ticks: m.completed_epochs() * m.header.epoch_len,
                    total_ticks: m.header.total_ticks,
                    complete: m.complete(),
                    dead_letters: m.dead_letters().len(),
                    truncated: m.truncated,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_root(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("brace-durable-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn epidemic_opts() -> DurableOpts {
        DurableOpts { scenario: "epidemic".into(), conformance: true, workers: 2, ticks: 20, ..DurableOpts::default() }
    }

    #[test]
    fn job_line_round_trips() {
        // The shared jobline module owns the format; this pins that durable
        // manifests keep round-tripping through it.
        for (size, conformance) in [(None, true), (Some(123), false), (None, false)] {
            let job = JobSpec { scenario: "fish".into(), size, conformance };
            assert_eq!(JobSpec::parse(&job.encode()).unwrap(), job);
        }
        assert!(JobSpec::parse("size=3").is_err(), "a job line without a scenario must be rejected");
        assert!(JobSpec::parse("scenario=fish size=many").is_err());
        // Unknown keys from a newer writer are skipped, not fatal.
        assert!(JobSpec::parse("scenario=fish shiny=new").is_ok());
    }

    #[test]
    fn start_completes_and_lists_and_refuses_double_start() {
        let root = temp_root("start");
        let registry = Registry::builtin();
        let runner = DurableRunner::new(&registry, &root);
        let report = runner.start(&epidemic_opts()).unwrap();
        assert_eq!(report.ticks, 20);
        assert_eq!(report.resumed_from, 0);
        assert!(report.agents > 0);

        let runs = runner.list();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].run_id, report.run_id);
        assert_eq!(runs[0].complete, Some((20, report.checksum)));
        assert_eq!(runs[0].completed_ticks, 20);
        assert!(!runs[0].truncated);

        // Same run id again: the manifest already exists — identity, not scratch.
        let err = runner.start(&epidemic_opts()).unwrap_err();
        assert!(err.to_string().contains("manifest"), "{err}");
        // And resuming a complete run is an explicit error, not a silent no-op.
        let err = runner.resume(&report.run_id, 0).unwrap_err();
        assert!(err.to_string().contains("already completed"), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The tentpole contract, in-process: abandon a run mid-flight (the
    /// simulated crash — the fabric is dropped without any shutdown
    /// courtesy), resume it from disk with a freshly rebuilt behavior, and
    /// land on the same bits as a never-interrupted run.
    #[test]
    fn abandoned_run_resumes_bit_identically() {
        let registry = Registry::builtin();

        let clean_root = temp_root("clean");
        let clean = DurableRunner::new(&registry, &clean_root).start(&epidemic_opts()).unwrap();

        let crash_root = temp_root("crash");
        let runner = DurableRunner::new(&registry, &crash_root);
        let (mut sim, run_id, _) = runner.launch(&epidemic_opts()).unwrap();
        sim.run_epochs(2).unwrap();
        drop(sim); // the "crash": no Complete record, no graceful anything

        let runs = runner.list();
        assert_eq!(runs.len(), 1);
        assert!(runs[0].complete.is_none());
        // Two epochs of the fitted length 5 ran before the crash; both must
        // have durable EpochDone records.
        assert_eq!(runs[0].completed_ticks, 10);

        let resumed = runner.resume(&run_id, 0).unwrap();
        assert!(resumed.resumed_from > 0, "resume must restore mid-run, not restart");
        assert_eq!(resumed.ticks, clean.ticks);
        assert_eq!(resumed.checksum, clean.checksum, "resumed run diverged from the uninterrupted run");
        assert_eq!(resumed.agents, clean.agents);
        let _ = std::fs::remove_dir_all(&clean_root);
        let _ = std::fs::remove_dir_all(&crash_root);
    }

    #[test]
    fn fit_epoch_prefers_large_divisors() {
        assert_eq!(fit_epoch(5, 20), 5);
        assert_eq!(fit_epoch(5, 7), 1);
        assert_eq!(fit_epoch(5, 12), 4);
        assert_eq!(fit_epoch(0, 9), 1);
    }
}

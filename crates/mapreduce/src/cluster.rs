//! [`ClusterSim`] — the user-facing distributed engine.
//!
//! Mirrors `brace_core::Simulation` over a simulated shared-nothing cluster:
//! give it a behavior, an initial population and a [`ClusterConfig`]; run
//! epochs; collect agents and statistics. One worker thread per "node", one
//! spatial partition per worker, a master coordinating at epoch boundaries.

use crate::balance::LoadBalancer;
use crate::checkpoint::{self, CheckpointStore, ClusterCheckpoint};
use crate::codec::{self, WorkerSnapshot};
use crate::manifest::{self, Manifest, ManifestRecord, ManifestWriter, RunHeader};
use crate::master::{ClusterStats, Master, RetryPolicy, WorkerFault};
use crate::net::NetLedger;
use crate::runtime::{Command, PeerMsg, Report};
use crate::worker::{DistributionMode, Worker, WorkerConfig, WorkerLinks};
use brace_common::{BraceError, DetRng, Result, WorkerId};
use brace_core::{Agent, Behavior};
use brace_spatial::{GridPartitioning, IndexKind, Partitioner};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Scheduled whole-cluster failures: at each listed epoch the cluster
/// loses all live worker state "during" that epoch (its results are
/// discarded) and must recover from the last coordinated checkpoint by
/// replay.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Epochs (0-based) whose execution is lost, ascending and deduped.
    pub at_epochs: Vec<u64>,
}

impl FaultPlan {
    /// Fail exactly once, during `epoch`.
    pub fn once(epoch: u64) -> Self {
        FaultPlan { at_epochs: vec![epoch] }
    }

    /// Fail during each listed epoch.
    pub fn at(epochs: impl IntoIterator<Item = u64>) -> Self {
        let mut at_epochs: Vec<u64> = epochs.into_iter().collect();
        at_epochs.sort_unstable();
        at_epochs.dedup();
        FaultPlan { at_epochs }
    }

    /// Up to `n` faults at seeded-random epochs in `0..max_epoch`
    /// (deduped, so possibly fewer). Drives the randomized recovery
    /// proptests.
    pub fn random(seed: u64, n: usize, max_epoch: u64) -> Self {
        if max_epoch == 0 {
            return FaultPlan::default();
        }
        let mut rng = DetRng::seed_from_u64(seed).stream(0xFA_17);
        FaultPlan::at((0..n).map(|_| (rng.range(0.0, max_epoch as f64) as u64).min(max_epoch - 1)))
    }

    pub fn is_empty(&self) -> bool {
        self.at_epochs.is_empty()
    }
}

/// A scheduled cluster resize: after `at_epoch` completed epochs the run
/// continues on `workers` workers (joins and leaves both go through the
/// repartition path; results are unchanged because partition placement is
/// unobservable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipChange {
    pub at_epoch: u64,
    pub workers: usize,
}

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker nodes (= spatial partitions). ≥ 1.
    pub workers: usize,
    /// Ticks per epoch (master coordination cadence).
    pub epoch_len: u64,
    /// Spatial index each reducer builds per tick.
    pub index: IndexKind,
    /// Master seed; identical seeds give identical simulations regardless
    /// of worker count (up to floating-point aggregation order).
    pub seed: u64,
    /// Initial x-extent for the 1-D column partitioning.
    pub space_x: (f64, f64),
    /// Enable the 1-D load balancer.
    pub load_balance: bool,
    /// Balancer tuning (threshold, migration cost model).
    pub balancer: LoadBalancer,
    /// Coordinated checkpoint cadence in epochs (`None` = only the initial
    /// checkpoint).
    pub checkpoint_every: Option<u64>,
    /// Keep this many recent checkpoints in memory.
    pub keep_checkpoints: usize,
    /// Also persist checkpoints to this directory.
    pub checkpoint_dir: Option<PathBuf>,
    /// Collocate map/reduce tasks (false = ablation: every hand-off pays
    /// serialization and is charged to the network ledger).
    pub collocation: bool,
    /// Intra-worker thread budget for the query/update phases (`1` =
    /// serial, `0` = all cores, `n` = up to `n` threads **per worker**).
    /// Never affects results — the executor's shard plan is thread-count
    /// independent.
    pub parallelism: usize,
    /// Replica transport: delta frames (default) or full redistribution
    /// every tick (the ablation baseline). Never affects results for
    /// range-probe models, only bytes — proven by the
    /// `distributed_equivalence` proptests. (k-NN-probe models tie-break
    /// by pool row, so their distributed equivalence is approximate under
    /// either mode; see `DistributionMode`.)
    pub distribution: DistributionMode,
    /// Scheduled whole-cluster failures, if any.
    pub fault: Option<FaultPlan>,
    /// Injected per-worker failures (retry/dead-letter exercise).
    pub worker_faults: Vec<WorkerFault>,
    /// Retry budget for failing epochs.
    pub retry: RetryPolicy,
    /// Scheduled cluster resizes (elastic membership).
    pub membership: Vec<MembershipChange>,
    /// Durable-run directory: holds the write-ahead manifest and the
    /// checkpoint files (overrides `checkpoint_dir`). A run with `run_dir`
    /// set survives a process crash — see [`ClusterSim::resume`].
    pub run_dir: Option<PathBuf>,
    /// Opaque scenario-layer job description recorded in the manifest
    /// header (durable runs only).
    pub job: String,
    /// Total ticks the job should run (recorded in the manifest header so
    /// resume knows the remainder); 0 = unknown/ephemeral.
    pub total_ticks: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 4,
            epoch_len: 10,
            index: IndexKind::KdTree,
            seed: 0,
            space_x: (0.0, 100.0),
            load_balance: true,
            balancer: LoadBalancer::default(),
            checkpoint_every: None,
            keep_checkpoints: 2,
            checkpoint_dir: None,
            collocation: true,
            parallelism: 1,
            distribution: DistributionMode::default(),
            fault: None,
            worker_faults: Vec::new(),
            retry: RetryPolicy::default(),
            membership: Vec::new(),
            run_dir: None,
            job: String::new(),
            total_ticks: 0,
        }
    }
}

/// Scenario-layer encoding of [`IndexKind`] for the manifest header.
pub fn index_to_u8(index: IndexKind) -> u8 {
    match index {
        IndexKind::KdTree => 0,
        IndexKind::Grid => 1,
        IndexKind::Scan => 2,
    }
}

/// Inverse of [`index_to_u8`] (unknown values fall back to the default).
pub fn index_from_u8(v: u8) -> IndexKind {
    match v {
        1 => IndexKind::Grid,
        2 => IndexKind::Scan,
        _ => IndexKind::KdTree,
    }
}

/// The distributed BRACE engine.
pub struct ClusterSim {
    master: Master,
    behavior: Arc<dyn Behavior>,
    cfg: ClusterConfig,
    handles: Vec<JoinHandle<()>>,
    ledger: NetLedger,
    epoch_len: u64,
    /// Scheduled whole-cluster fault epochs not yet fired, ascending.
    fault_epochs: Vec<u64>,
    /// Scheduled resizes not yet applied, ascending by epoch.
    membership: Vec<MembershipChange>,
}

/// One worker fabric: command channels, the shared report channel and the
/// running threads.
type Fabric = (Vec<Sender<Command>>, Receiver<Report>, Vec<JoinHandle<()>>);

impl ClusterSim {
    fn validate(behavior: &Arc<dyn Behavior>, agents: &[Agent], cfg: &ClusterConfig) -> Result<()> {
        if cfg.workers == 0 {
            return Err(BraceError::Config("need at least one worker".into()));
        }
        if cfg.epoch_len == 0 {
            return Err(BraceError::Config("epoch length must be at least one tick".into()));
        }
        if cfg.space_x.0 >= cfg.space_x.1 {
            return Err(BraceError::Config("space_x must be a non-empty interval".into()));
        }
        let schema = behavior.schema();
        if schema.num_states() > crate::codec::DELTA_MAX_STATES {
            return Err(BraceError::Config(format!(
                "schema `{}` has {} state fields; the replica delta mask addresses at most {}",
                schema.name(),
                schema.num_states(),
                crate::codec::DELTA_MAX_STATES
            )));
        }
        for a in agents {
            if a.state.len() != schema.num_states() || a.effects.len() != schema.num_effects() {
                return Err(BraceError::Schema(format!("agent {} does not match schema `{}`", a.id, schema.name())));
            }
        }
        Ok(())
    }

    /// Spawn `initial.len()` worker threads over `part`'s columns, wired to
    /// a fresh channel fabric. `next_spawn_id` seeds the global spawn-id
    /// cursor (every worker advances it identically through the per-tick
    /// spawn round).
    fn spawn_fabric(
        behavior: &Arc<dyn Behavior>,
        cfg: &ClusterConfig,
        part: &GridPartitioning,
        initial: Vec<Vec<Agent>>,
        next_spawn_id: u64,
        ledger: &NetLedger,
    ) -> Result<Fabric> {
        let n = initial.len();
        let (report_tx, report_rx) = unbounded::<Report>();
        let mut peer_tx: Vec<Sender<PeerMsg>> = Vec::with_capacity(n);
        let mut peer_rx = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded::<PeerMsg>();
            peer_tx.push(tx);
            peer_rx.push(rx);
        }
        let mut cmd_tx: Vec<Sender<Command>> = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for (w, (inbox, owned)) in peer_rx.into_iter().zip(initial).enumerate() {
            let (ctx, crx) = unbounded::<Command>();
            cmd_tx.push(ctx);
            let links = WorkerLinks {
                peers: peer_tx.clone(),
                inbox,
                commands: crx,
                reports: report_tx.clone(),
                ledger: ledger.clone(),
            };
            let wcfg = WorkerConfig {
                id: WorkerId::new(w as u32),
                num_workers: n,
                index: cfg.index,
                seed: cfg.seed,
                collocation: cfg.collocation,
                parallelism: cfg.parallelism,
                distribution: cfg.distribution,
            };
            let worker = Worker::new(behavior.clone(), wcfg, links, part.clone(), owned, next_spawn_id);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("brace-worker-{w}"))
                    .spawn(move || worker.run_loop())
                    .map_err(|e| BraceError::Config(format!("spawning worker thread: {e}")))?,
            );
        }
        Ok((cmd_tx, report_rx, handles))
    }

    /// Checkpoint store honoring the durable-run directory (which
    /// overrides `checkpoint_dir`).
    fn build_store(cfg: &ClusterConfig) -> CheckpointStore {
        let mut store = CheckpointStore::new(cfg.keep_checkpoints);
        if let Some(dir) = cfg.run_dir.clone().or_else(|| cfg.checkpoint_dir.clone()) {
            store = store.with_dir(dir);
        }
        store
    }

    fn build_master(
        cfg: &ClusterConfig,
        n: usize,
        fabric: (Vec<Sender<Command>>, Receiver<Report>),
        x_bounds: Vec<f64>,
    ) -> Master {
        let mut balancer = cfg.balancer.clone();
        balancer.epoch_len = cfg.epoch_len;
        let mut master = Master::new(
            n,
            cfg.epoch_len,
            cfg.load_balance,
            balancer,
            cfg.checkpoint_every,
            Self::build_store(cfg),
            fabric.0,
            fabric.1,
            x_bounds,
        );
        master.set_retry_policy(cfg.retry);
        master.set_worker_faults(cfg.worker_faults.clone());
        master
    }

    /// Manifest header describing the job, for durable runs.
    fn run_header(cfg: &ClusterConfig, run_id: String) -> RunHeader {
        RunHeader {
            run_id,
            job: cfg.job.clone(),
            workers: cfg.workers as u32,
            epoch_len: cfg.epoch_len,
            seed: cfg.seed,
            index: index_to_u8(cfg.index),
            space_x: cfg.space_x,
            load_balance: cfg.load_balance,
            checkpoint_every: cfg.checkpoint_every.unwrap_or(0),
            keep_checkpoints: cfg.keep_checkpoints as u32,
            total_ticks: cfg.total_ticks,
        }
    }

    fn sorted_plan(cfg: &ClusterConfig) -> (Vec<u64>, Vec<MembershipChange>) {
        let mut fault_epochs = cfg.fault.clone().map(|p| p.at_epochs).unwrap_or_default();
        fault_epochs.sort_unstable();
        fault_epochs.dedup();
        let mut membership = cfg.membership.clone();
        membership.sort_by_key(|m| m.at_epoch);
        (fault_epochs, membership)
    }

    /// Build the cluster: partition `agents` over `cfg.workers` column
    /// partitions, spawn the worker threads, take the initial checkpoint.
    /// With `run_dir` set this *creates* a durable run (write-ahead
    /// manifest + on-disk checkpoints); a directory that already holds a
    /// manifest is refused — resume it with [`ClusterSim::resume`] instead.
    pub fn new(behavior: Arc<dyn Behavior>, agents: Vec<Agent>, cfg: ClusterConfig) -> Result<Self> {
        Self::validate(&behavior, &agents, &cfg)?;
        let n = cfg.workers;
        let part = GridPartitioning::columns(cfg.space_x.0, cfg.space_x.1, n);

        // Distribute the initial population to owners; spawn ids start past
        // the densest initial id (one global cursor, all workers in
        // lockstep — see the worker's spawn-sequencing round).
        let mut initial: Vec<Vec<Agent>> = (0..n).map(|_| Vec::new()).collect();
        let mut max_id = 0u64;
        for a in agents {
            max_id = max_id.max(a.id.raw() + 1);
            initial[part.partition_of(a.pos).index()].push(a);
        }

        let ledger = NetLedger::new();
        let (cmd_tx, report_rx, handles) = Self::spawn_fabric(&behavior, &cfg, &part, initial, max_id, &ledger)?;
        let mut master = Self::build_master(&cfg, n, (cmd_tx, report_rx), part.x_bounds().to_vec());
        if let Some(dir) = cfg.run_dir.clone() {
            let run_id = dir.file_name().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
            master.set_manifest(ManifestWriter::create(&dir, &Self::run_header(&cfg, run_id))?);
        }
        master.initial_checkpoint()?;
        let (fault_epochs, membership) = Self::sorted_plan(&cfg);
        Ok(ClusterSim { master, behavior, epoch_len: cfg.epoch_len, cfg, handles, ledger, fault_epochs, membership })
    }

    /// Reconstruct a durable run from `cfg.run_dir` **in a fresh process**:
    /// read the manifest, pick the newest checkpoint that verifies (torn
    /// or corrupt files fall back to older ones), replay the completed
    /// epochs past it, and land exactly where the interrupted run was.
    /// Returns the parsed manifest alongside the cluster so the caller can
    /// see total ticks, dead letters, and completion state.
    pub fn resume(behavior: Arc<dyn Behavior>, mut cfg: ClusterConfig) -> Result<(Self, Manifest)> {
        let dir = cfg.run_dir.clone().ok_or_else(|| BraceError::Config("resume requires run_dir".into()))?;
        let m = manifest::read_manifest(&dir)?;
        if m.complete().is_some() {
            return Err(BraceError::Config(format!("run `{}` already completed", m.header.run_id)));
        }
        let completed = m.completed_epochs();
        let floor = m.membership_floor();
        // Newest on-disk checkpoint that verifies, covers only completed
        // epochs, and does not precede the last membership change.
        let mut chosen: Option<ClusterCheckpoint> = None;
        for epoch in checkpoint::list_checkpoint_epochs(&dir).into_iter().rev() {
            if epoch > completed || epoch < floor {
                continue;
            }
            if let Ok(cp) = checkpoint::load_checkpoint_file(&dir, epoch) {
                chosen = Some(cp);
                break;
            }
        }
        let cp = chosen
            .ok_or_else(|| BraceError::Unrecoverable(format!("run `{}`: no valid checkpoint", m.header.run_id)))?;
        let n = cp.workers.len();
        cfg.workers = n;
        Self::validate(&behavior, &[], &cfg)?;

        let part = GridPartitioning::columns(cfg.space_x.0, cfg.space_x.1, n);
        let ledger = NetLedger::new();
        // Workers start empty; Restore from the checkpoint fills them.
        let (cmd_tx, report_rx, handles) =
            Self::spawn_fabric(&behavior, &cfg, &part, (0..n).map(|_| Vec::new()).collect(), 0, &ledger)?;
        let mut master = Self::build_master(&cfg, n, (cmd_tx, report_rx), cp.x_bounds.clone());
        master.set_manifest(ManifestWriter::open_append(&dir)?);
        let commands = m.commands_in(cp.epoch, completed);
        let (hist_range, pending_bounds) = match m.last_epoch_done() {
            Some(d) => (d.hist_range, d.pending_bounds.clone()),
            None => (cp.hist_range, None),
        };
        master.resume_from(&cp, &commands, hist_range, pending_bounds)?;
        let (fault_epochs, membership) = Self::sorted_plan(&cfg);
        let sim =
            ClusterSim { master, behavior, epoch_len: cfg.epoch_len, cfg, handles, ledger, fault_epochs, membership };
        Ok((sim, m))
    }

    /// Run `n` epochs, firing scheduled faults (recovery + replay) and
    /// membership changes as their epochs complete.
    pub fn run_epochs(&mut self, n: u64) -> Result<()> {
        for _ in 0..n {
            self.master.run_epoch()?;
            while self.fault_epochs.first().is_some_and(|&e| self.master.epoch() == e + 1) {
                // That epoch just ran but its results are lost.
                let failed = self.fault_epochs.remove(0);
                self.master.recover(failed)?;
            }
            while self.membership.first().is_some_and(|m| self.master.epoch() >= m.at_epoch) {
                let change = self.membership.remove(0);
                self.resize_workers(change.workers)?;
            }
        }
        Ok(())
    }

    /// Resize the cluster to `n_new` workers at the current epoch boundary
    /// (elastic membership). All state funnels through the repartition
    /// path: snapshot everyone, retire the old fabric, spawn the new one,
    /// repartition the agents over uniform columns, and take a fresh
    /// coordinated checkpoint (replay never spans a membership change).
    /// Results are bit-identical because partition placement is
    /// unobservable and the global spawn-id cursor travels in the
    /// snapshots.
    pub fn resize_workers(&mut self, n_new: usize) -> Result<()> {
        if n_new == 0 {
            return Err(BraceError::Config("need at least one worker".into()));
        }
        let snaps = self.master.collect_snapshots()?;
        if snaps.len() == n_new {
            return Ok(());
        }
        let decoded: Vec<WorkerSnapshot> = snaps.into_iter().map(codec::decode_snapshot).collect();
        let tick = decoded[0].tick;
        let next_spawn_id = decoded[0].next_spawn_id;
        let mut agents: Vec<Agent> = decoded.into_iter().flat_map(|s| s.agents).collect();
        agents.sort_by_key(|a| a.id);

        // Retire the old fabric.
        self.master.stop();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }

        // Uniform columns over the current occupied extent.
        let bounds = self.master.x_bounds();
        let (lo, hi) = (bounds[0], *bounds.last().unwrap());
        let part = GridPartitioning::columns(lo, hi, n_new);
        let (cmd_tx, report_rx, handles) = Self::spawn_fabric(
            &self.behavior,
            &self.cfg,
            &part,
            (0..n_new).map(|_| Vec::new()).collect(),
            0,
            &self.ledger,
        )?;
        self.handles = handles;
        self.master.replace_fabric(n_new, cmd_tx, report_rx, part.x_bounds().to_vec());

        let mut owned: Vec<Vec<Agent>> = (0..n_new).map(|_| Vec::new()).collect();
        for a in agents {
            owned[part.partition_of(a.pos).index()].push(a);
        }
        for (w, agents_w) in owned.into_iter().enumerate() {
            let snap = WorkerSnapshot {
                tick,
                next_spawn_id,
                rng: DetRng::seed_from_u64(self.cfg.seed).stream(0x5EED_0000 + w as u64),
                agents: agents_w,
            };
            self.master.restore_worker(w, codec::encode_snapshot(&snap))?;
        }
        // Fresh durable point under the new membership, then the record.
        self.master.force_checkpoint()?;
        self.master
            .append_manifest(&ManifestRecord::Membership { epoch: self.master.epoch(), workers: n_new as u32 })?;
        Ok(())
    }

    /// Record run completion (final tick count + world checksum) in the
    /// manifest. No-op for ephemeral runs.
    pub fn record_complete(&mut self, ticks: u64, checksum: u64) -> Result<()> {
        self.master.append_manifest(&ManifestRecord::Complete { ticks, checksum })
    }

    /// Run `ticks` ticks; must be a multiple of the epoch length.
    pub fn run_ticks(&mut self, ticks: u64) -> Result<()> {
        if !ticks.is_multiple_of(self.epoch_len) {
            return Err(BraceError::Config(format!(
                "{ticks} ticks is not a multiple of the epoch length {}",
                self.epoch_len
            )));
        }
        self.run_epochs(ticks / self.epoch_len)
    }

    /// Gather all agents, sorted by id.
    pub fn collect_agents(&mut self) -> Result<Vec<Agent>> {
        self.master.collect_agents()
    }

    /// Completed simulation ticks.
    pub fn tick(&self) -> u64 {
        self.master.tick()
    }

    /// Completed epochs.
    pub fn epoch(&self) -> u64 {
        self.master.epoch()
    }

    /// Ticks per epoch (the master's coordination cadence).
    pub fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    /// Current column boundaries (moves when the load balancer acts).
    pub fn x_bounds(&self) -> &[f64] {
        self.master.x_bounds()
    }

    /// Run statistics with current network totals merged in.
    pub fn stats(&self) -> ClusterStats {
        let mut s = self.master.stats().clone();
        s.net = self.ledger.stats();
        s
    }

    /// Zero the network counters (e.g. after warm-up epochs).
    pub fn reset_net(&self) {
        self.ledger.reset();
    }
}

impl Drop for ClusterSim {
    fn drop(&mut self) {
        self.master.stop();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Re-export for convenience at the crate root.
pub use crate::master::ClusterStats as Stats;

#[cfg(test)]
mod tests {
    use super::*;
    use brace_common::{AgentId, DetRng, FieldId, Vec2};
    use brace_core::behavior::{Neighbors, UpdateCtx};
    use brace_core::effect::EffectWriter;
    use brace_core::{AgentSchema, Combinator, Simulation};

    /// Local-effects model with exactly-associative aggregation (integer
    /// counts): cluster results must equal single-node results bit for bit.
    struct Flock(AgentSchema);

    impl Flock {
        fn new() -> Self {
            Flock(
                AgentSchema::builder("Flock")
                    .state("heading")
                    .effect("n", Combinator::Sum)
                    .effect("closest", Combinator::Min)
                    .visibility(3.0)
                    .reachability(1.0)
                    .build()
                    .unwrap(),
            )
        }
    }

    impl Behavior for Flock {
        fn schema(&self) -> &AgentSchema {
            &self.0
        }
        fn query(
            &self,
            me: brace_core::AgentRef<'_>,
            nbrs: &Neighbors<'_>,
            eff: &mut EffectWriter<'_>,
            _rng: &mut DetRng,
        ) {
            for nb in nbrs.iter() {
                eff.local(FieldId::new(0), 1.0);
                eff.local(FieldId::new(1), me.pos().dist_linf(nb.agent.pos()));
            }
        }
        fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
            let n = me.effect(FieldId::new(0));
            let closest = me.effect(FieldId::new(1));
            // Drift right, faster when crowded; jitter deterministically.
            let jitter = ctx.rng.range(-0.05, 0.05);
            let step = if closest.is_finite() { 0.2 + 0.01 * n } else { 0.3 };
            me.pos.x += step + jitter;
            me.pos.y += jitter;
            me.set(FieldId::new(0), n);
        }
    }

    /// Non-local model: every agent pushes a "ping" effect to each neighbor;
    /// agents then record how many pings they received. Integer sums ⇒
    /// exact distributed equivalence.
    struct Ping(AgentSchema);

    impl Ping {
        fn new() -> Self {
            Ping(
                AgentSchema::builder("Ping")
                    .state("received")
                    .effect("pings", Combinator::Sum)
                    .visibility(2.5)
                    .reachability(0.5)
                    .nonlocal_effects(true)
                    .build()
                    .unwrap(),
            )
        }
    }

    impl Behavior for Ping {
        fn schema(&self) -> &AgentSchema {
            &self.0
        }
        fn query(
            &self,
            _me: brace_core::AgentRef<'_>,
            nbrs: &Neighbors<'_>,
            eff: &mut EffectWriter<'_>,
            _rng: &mut DetRng,
        ) {
            for nb in nbrs.iter() {
                eff.remote(nb.row, FieldId::new(0), 1.0);
            }
        }
        fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
            let pings = me.effect(FieldId::new(0));
            me.set(FieldId::new(0), me.get(FieldId::new(0)) + pings);
            me.pos.x += ctx.rng.range(-0.4, 0.4);
            me.pos.y += ctx.rng.range(-0.4, 0.4);
        }
    }

    fn population(schema: &AgentSchema, n: usize, seed: u64) -> Vec<Agent> {
        let mut rng = DetRng::seed_from_u64(seed);
        (0..n)
            .map(|i| Agent::new(AgentId::new(i as u64), Vec2::new(rng.range(0.0, 100.0), rng.range(0.0, 20.0)), schema))
            .collect()
    }

    fn run_single_node<B: Behavior>(behavior: B, agents: Vec<Agent>, ticks: u64, seed: u64) -> Vec<Agent> {
        let mut sim = Simulation::builder(behavior).agents(agents).seed(seed).build().unwrap();
        sim.run(ticks);
        let mut out = sim.agents().to_vec();
        out.sort_by_key(|a| a.id);
        out
    }

    fn run_cluster(behavior: Arc<dyn Behavior>, agents: Vec<Agent>, ticks: u64, cfg: ClusterConfig) -> Vec<Agent> {
        let mut sim = ClusterSim::new(behavior, agents, cfg).unwrap();
        sim.run_ticks(ticks).unwrap();
        sim.collect_agents().unwrap()
    }

    #[test]
    fn cluster_equals_single_node_local_effects() {
        let agents = population(Flock::new().schema(), 120, 1);
        let single = run_single_node(Flock::new(), agents.clone(), 20, 42);
        for workers in [1, 2, 4] {
            let cfg =
                ClusterConfig { workers, epoch_len: 5, seed: 42, load_balance: false, ..ClusterConfig::default() };
            let distributed = run_cluster(Arc::new(Flock::new()), agents.clone(), 20, cfg);
            assert_eq!(single, distributed, "workers={workers}");
        }
    }

    #[test]
    fn cluster_equals_single_node_nonlocal_effects() {
        let agents = population(Ping::new().schema(), 80, 3);
        let single = run_single_node(Ping::new(), agents.clone(), 12, 7);
        for workers in [2, 3] {
            let cfg = ClusterConfig { workers, epoch_len: 4, seed: 7, load_balance: false, ..ClusterConfig::default() };
            let distributed = run_cluster(Arc::new(Ping::new()), agents.clone(), 12, cfg);
            assert_eq!(single, distributed, "workers={workers}");
        }
    }

    #[test]
    fn table1_comm_rounds_match_effect_locality() {
        let agents = population(Flock::new().schema(), 40, 5);
        let cfg = ClusterConfig { workers: 2, epoch_len: 2, seed: 1, load_balance: false, ..Default::default() };
        let mut local = ClusterSim::new(Arc::new(Flock::new()), agents, cfg.clone()).unwrap();
        local.run_epochs(1).unwrap();
        assert_eq!(local.stats().comm_rounds_per_tick, 1, "local effects: single reduce pass");
        assert_eq!(local.stats().net.effects.messages, 0, "no effect traffic for local model");

        let agents = population(Ping::new().schema(), 40, 5);
        let mut nonlocal = ClusterSim::new(Arc::new(Ping::new()), agents, cfg).unwrap();
        nonlocal.run_epochs(1).unwrap();
        assert_eq!(nonlocal.stats().comm_rounds_per_tick, 2, "non-local effects: map-reduce-reduce");
        assert!(nonlocal.stats().net.effects.messages > 0, "effect rows must cross the network");
    }

    #[test]
    fn fault_recovery_reproduces_failure_free_run() {
        let agents = population(Flock::new().schema(), 100, 9);
        let base = ClusterConfig {
            workers: 3,
            epoch_len: 5,
            seed: 13,
            load_balance: false,
            checkpoint_every: Some(2),
            ..Default::default()
        };
        let clean = run_cluster(Arc::new(Flock::new()), agents.clone(), 40, base.clone());
        let faulty_cfg = ClusterConfig { fault: Some(FaultPlan::once(5)), ..base };
        let mut sim = ClusterSim::new(Arc::new(Flock::new()), agents, faulty_cfg).unwrap();
        sim.run_ticks(40).unwrap();
        let stats = sim.stats();
        assert_eq!(stats.recoveries, 1);
        assert!(stats.replayed_epochs > 0);
        let recovered = sim.collect_agents().unwrap();
        assert_eq!(clean, recovered, "recovery must reproduce the failure-free run");
    }

    #[test]
    fn stats_count_ticks_once_across_fault_recovery() {
        let agents = population(Flock::new().schema(), 60, 4);
        let cfg = ClusterConfig {
            workers: 2,
            epoch_len: 5,
            seed: 3,
            load_balance: false,
            checkpoint_every: Some(2),
            fault: Some(FaultPlan::once(3)),
            ..Default::default()
        };
        let mut sim = ClusterSim::new(Arc::new(Flock::new()), agents, cfg).unwrap();
        sim.run_ticks(30).unwrap();
        let stats = sim.stats();
        assert_eq!(stats.recoveries, 1);
        assert!(stats.replayed_epochs > 0, "the fault must replay epochs");
        assert_eq!(stats.ticks, sim.tick(), "replayed epochs must not be counted again");
        assert_eq!(stats.ticks, 30);
    }

    #[test]
    fn multi_fault_plan_reproduces_failure_free_run() {
        let agents = population(Flock::new().schema(), 90, 11);
        let base = ClusterConfig {
            workers: 3,
            epoch_len: 5,
            seed: 17,
            load_balance: false,
            checkpoint_every: Some(2),
            ..Default::default()
        };
        let clean = run_cluster(Arc::new(Flock::new()), agents.clone(), 40, base.clone());
        let faulty_cfg = ClusterConfig { fault: Some(FaultPlan::at([2, 5, 6])), ..base };
        let mut sim = ClusterSim::new(Arc::new(Flock::new()), agents, faulty_cfg).unwrap();
        sim.run_ticks(40).unwrap();
        let stats = sim.stats();
        assert_eq!(stats.recoveries, 3, "every scheduled fault must recover");
        let recovered = sim.collect_agents().unwrap();
        assert_eq!(clean, recovered, "multi-fault recovery must reproduce the failure-free run");
    }

    #[test]
    fn worker_retry_within_budget_reproduces_clean_run() {
        let agents = population(Flock::new().schema(), 90, 23);
        let base = ClusterConfig {
            workers: 3,
            epoch_len: 5,
            seed: 19,
            load_balance: false,
            checkpoint_every: Some(2),
            retry: RetryPolicy { max_attempts: 3, backoff_base_ms: 1, backoff_cap_ms: 4 },
            ..Default::default()
        };
        let clean = run_cluster(Arc::new(Flock::new()), agents.clone(), 30, base.clone());
        // Worker 1 fails twice during epoch 3 — inside the 3-attempt budget.
        let cfg = ClusterConfig { worker_faults: vec![WorkerFault { worker: 1, epoch: 3, failures: 2 }], ..base };
        let mut sim = ClusterSim::new(Arc::new(Flock::new()), agents, cfg).unwrap();
        sim.run_ticks(30).unwrap();
        let stats = sim.stats();
        assert_eq!(stats.retries, 2, "two failed attempts, two retries");
        assert_eq!(stats.dead_letters, 0, "budget was enough — no dead letter");
        assert!(stats.recoveries >= 2, "each retry restores from checkpoint");
        let recovered = sim.collect_agents().unwrap();
        assert_eq!(clean, recovered, "retried run must match the clean run bit for bit");
    }

    #[test]
    fn exhausted_retry_budget_dead_letters_and_degrades() {
        let agents = population(Flock::new().schema(), 90, 29);
        let base = ClusterConfig {
            workers: 3,
            epoch_len: 5,
            seed: 31,
            load_balance: false,
            checkpoint_every: Some(2),
            retry: RetryPolicy { max_attempts: 3, backoff_base_ms: 1, backoff_cap_ms: 4 },
            ..Default::default()
        };
        let clean = run_cluster(Arc::new(Flock::new()), agents.clone(), 30, base.clone());
        // Worker 1 fails more times than the budget allows: its partition
        // must be dead-lettered and the run must *complete*, degraded.
        let cfg = ClusterConfig { worker_faults: vec![WorkerFault { worker: 1, epoch: 3, failures: 10 }], ..base };
        let mut sim = ClusterSim::new(Arc::new(Flock::new()), agents, cfg).unwrap();
        sim.run_ticks(30).unwrap();
        let stats = sim.stats();
        assert_eq!(stats.dead_letters, 1, "the failing partition must be dead-lettered");
        assert!(stats.agents_lost > 0, "the dead partition's agents are reported lost");
        let degraded = sim.collect_agents().unwrap();
        assert!(
            degraded.len() < clean.len(),
            "degraded run must have dropped the dead partition ({} vs {})",
            degraded.len(),
            clean.len()
        );
        assert_eq!(sim.tick(), 30, "the run must complete despite the dead partition");
    }

    #[test]
    fn mid_run_membership_change_preserves_results() {
        let agents = population(Flock::new().schema(), 120, 37);
        let base = ClusterConfig {
            workers: 3,
            epoch_len: 5,
            seed: 41,
            load_balance: false,
            checkpoint_every: Some(2),
            ..Default::default()
        };
        let clean = run_cluster(Arc::new(Flock::new()), agents.clone(), 40, base.clone());
        // Grow to 5 workers after epoch 3, shrink to 2 after epoch 6.
        let cfg = ClusterConfig {
            membership: vec![
                MembershipChange { at_epoch: 3, workers: 5 },
                MembershipChange { at_epoch: 6, workers: 2 },
            ],
            ..base
        };
        let mut sim = ClusterSim::new(Arc::new(Flock::new()), agents, cfg).unwrap();
        sim.run_ticks(40).unwrap();
        let elastic = sim.collect_agents().unwrap();
        assert_eq!(clean, elastic, "joins/leaves must not change results");
        assert!(sim.stats().checkpoints >= 2, "each membership change forces a checkpoint");
    }

    /// Spawning model with deterministic per-agent reproduction: children
    /// get ids from the global `(parent id, ordinal)` sequence, so an
    /// N-worker cluster must be bit-identical to the single-node executor
    /// *including* the spawned agents' identities and rng streams.
    struct Breeder(AgentSchema);

    impl Breeder {
        fn new() -> Self {
            Breeder(
                AgentSchema::builder("Breeder")
                    .state("generation")
                    .effect("n", Combinator::Sum)
                    .visibility(3.0)
                    .reachability(1.0)
                    .build()
                    .unwrap(),
            )
        }
    }

    impl Behavior for Breeder {
        fn schema(&self) -> &AgentSchema {
            &self.0
        }
        fn query(
            &self,
            _me: brace_core::AgentRef<'_>,
            nbrs: &Neighbors<'_>,
            eff: &mut EffectWriter<'_>,
            _rng: &mut DetRng,
        ) {
            for _ in nbrs.iter() {
                eff.local(FieldId::new(0), 1.0);
            }
        }
        fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
            let gen = me.get(FieldId::new(0));
            me.pos.x += ctx.rng.range(-0.3, 0.5);
            me.pos.y += ctx.rng.range(-0.3, 0.3);
            // Reproduce occasionally; children inherit generation + 1 and
            // later act (and spawn) themselves.
            if gen < 3.0 && ctx.rng.chance(0.08) {
                let pos = me.pos;
                ctx.spawn(pos, vec![gen + 1.0]);
            }
        }
    }

    #[test]
    fn spawning_cluster_equals_single_node() {
        let agents = population(Breeder::new().schema(), 100, 6);
        let single = run_single_node(Breeder::new(), agents.clone(), 20, 33);
        assert!(single.len() > 100, "the model must actually spawn");
        for workers in [1, 2, 4] {
            let cfg =
                ClusterConfig { workers, epoch_len: 5, seed: 33, load_balance: false, ..ClusterConfig::default() };
            let distributed = run_cluster(Arc::new(Breeder::new()), agents.clone(), 20, cfg);
            assert_eq!(single, distributed, "workers={workers}");
        }
    }

    #[test]
    fn spawning_survives_fault_recovery_and_membership() {
        let agents = population(Breeder::new().schema(), 100, 6);
        let base = ClusterConfig {
            workers: 3,
            epoch_len: 5,
            seed: 33,
            load_balance: false,
            checkpoint_every: Some(2),
            ..ClusterConfig::default()
        };
        let clean = run_cluster(Arc::new(Breeder::new()), agents.clone(), 30, base.clone());
        let cfg = ClusterConfig {
            fault: Some(FaultPlan::once(3)),
            membership: vec![MembershipChange { at_epoch: 4, workers: 4 }],
            ..base
        };
        let mut sim = ClusterSim::new(Arc::new(Breeder::new()), agents, cfg).unwrap();
        sim.run_ticks(30).unwrap();
        assert_eq!(clean, sim.collect_agents().unwrap(), "spawn ids must survive recovery and resize");
    }

    #[test]
    fn load_balancer_moves_boundaries_under_skew() {
        // All agents packed into the leftmost 10% of space.
        let schema = Flock::new();
        let mut rng = DetRng::seed_from_u64(2);
        let agents: Vec<Agent> = (0..300)
            .map(|i| {
                Agent::new(AgentId::new(i), Vec2::new(rng.range(0.0, 10.0), rng.range(0.0, 10.0)), schema.schema())
            })
            .collect();
        let cfg = ClusterConfig {
            workers: 4,
            epoch_len: 3,
            seed: 21,
            load_balance: true,
            balancer: LoadBalancer { imbalance_threshold: 1.2, migration_cost_ticks: 0.5, epoch_len: 3 },
            ..Default::default()
        };
        let before = GridPartitioning::columns(0.0, 100.0, 4).x_bounds().to_vec();
        let mut sim = ClusterSim::new(Arc::new(Flock::new()), agents, cfg).unwrap();
        sim.run_epochs(4).unwrap();
        let stats = sim.stats();
        assert!(stats.repartitions >= 1, "skew must trigger repartitioning");
        assert_ne!(sim.x_bounds(), &before[..], "boundaries must move");
        // Imbalance after balancing must be better than the initial 4x.
        assert!(stats.last_imbalance() < 2.5, "imbalance {} not improved", stats.last_imbalance());
    }

    #[test]
    fn run_ticks_requires_epoch_multiple() {
        let agents = population(Flock::new().schema(), 10, 1);
        let cfg = ClusterConfig { workers: 2, epoch_len: 4, ..Default::default() };
        let mut sim = ClusterSim::new(Arc::new(Flock::new()), agents, cfg).unwrap();
        assert!(sim.run_ticks(6).is_err());
        assert!(sim.run_ticks(8).is_ok());
        assert_eq!(sim.tick(), 8);
    }

    #[test]
    fn over_wide_schema_rejected_as_config_error() {
        // The replica delta mask addresses ≤ 30 state fields; a wider
        // schema must fail construction with a config error, not panic in
        // a worker thread.
        struct Wide(AgentSchema);
        impl Behavior for Wide {
            fn schema(&self) -> &AgentSchema {
                &self.0
            }
            fn query(
                &self,
                _m: brace_core::AgentRef<'_>,
                _n: &Neighbors<'_>,
                _e: &mut EffectWriter<'_>,
                _r: &mut DetRng,
            ) {
            }
            fn update(&self, _me: &mut Agent, _ctx: &mut UpdateCtx<'_>) {}
        }
        let mut b = AgentSchema::builder("Wide").visibility(1.0);
        let names: Vec<String> = (0..31).map(|i| format!("s{i}")).collect();
        for name in &names {
            b = b.state(name);
        }
        let schema = b.build().unwrap();
        let err = ClusterSim::new(Arc::new(Wide(schema)), vec![], ClusterConfig::default())
            .err()
            .expect("31 state fields must be rejected");
        assert!(err.to_string().contains("delta mask"), "unexpected error: {err}");
    }

    #[test]
    fn zero_workers_rejected() {
        let cfg = ClusterConfig { workers: 0, ..Default::default() };
        let err = ClusterSim::new(Arc::new(Flock::new()), vec![], cfg).err().expect("must reject");
        assert!(err.to_string().contains("at least one worker"));
    }

    /// A model whose agents never move nor change state: the acceptance
    /// bar for delta distribution — its boundary replicas must cost zero
    /// bytes per steady-state tick.
    struct Frozen(AgentSchema);

    impl Frozen {
        fn new() -> Self {
            Frozen(
                AgentSchema::builder("Frozen")
                    .state("s")
                    .effect("n", Combinator::Sum)
                    .visibility(5.0)
                    .reachability(1.0)
                    .build()
                    .unwrap(),
            )
        }
    }

    impl Behavior for Frozen {
        fn schema(&self) -> &AgentSchema {
            &self.0
        }
        fn query(
            &self,
            _m: brace_core::AgentRef<'_>,
            nbrs: &Neighbors<'_>,
            eff: &mut EffectWriter<'_>,
            _rng: &mut DetRng,
        ) {
            for _ in nbrs.iter() {
                eff.local(FieldId::new(0), 1.0);
            }
        }
        fn update(&self, _me: &mut Agent, _ctx: &mut UpdateCtx<'_>) {}
    }

    /// Like [`Frozen`] but agents oscillate slightly in y (staying in
    /// their partition and visibility band): persisting replicas must ship
    /// as delta frames only, never as full records. The schema carries
    /// several constant state fields (as real models do — fish has three
    /// states and eight effects), so the masked delta ships a fraction of
    /// the record.
    struct Wiggle(AgentSchema);

    impl Wiggle {
        fn new() -> Self {
            Wiggle(
                AgentSchema::builder("Wiggle")
                    .state("phase")
                    .state("c0")
                    .state("c1")
                    .state("c2")
                    .state("c3")
                    .state("c4")
                    .effect("n", Combinator::Sum)
                    .visibility(5.0)
                    .reachability(1.0)
                    .build()
                    .unwrap(),
            )
        }
    }

    impl Behavior for Wiggle {
        fn schema(&self) -> &AgentSchema {
            &self.0
        }
        fn query(
            &self,
            _m: brace_core::AgentRef<'_>,
            _n: &Neighbors<'_>,
            _e: &mut EffectWriter<'_>,
            _rng: &mut DetRng,
        ) {
        }
        fn update(&self, me: &mut Agent, _ctx: &mut UpdateCtx<'_>) {
            let phase = me.get(FieldId::new(0));
            me.pos.y += if phase == 0.0 { 0.25 } else { -0.25 };
            me.set(FieldId::new(0), 1.0 - phase);
        }
    }

    #[test]
    fn stationary_boundary_population_costs_zero_replica_bytes() {
        // Agents straddle the x = 50 boundary well inside visibility, so
        // both workers hold replicas. Epoch 1 ships them as full records;
        // every steady-state tick after that must ship *nothing*: the pool
        // is resident, the index is maintained, and empty delta frames are
        // never sent.
        let schema = Frozen::new();
        let agents: Vec<Agent> = (0..40)
            .map(|i| Agent::new(AgentId::new(i), Vec2::new(48.0 + (i % 5) as f64, i as f64), schema.schema()))
            .collect();
        let cfg = ClusterConfig { workers: 2, epoch_len: 4, seed: 3, load_balance: false, ..Default::default() };
        let mut sim = ClusterSim::new(Arc::new(Frozen::new()), agents, cfg).unwrap();
        sim.run_epochs(1).unwrap();
        let warm = sim.stats();
        assert!(warm.net.replica_full.bytes > 0, "boundary population must replicate at all");
        assert!(warm.replicas_in > 0, "replicas must arrive");
        sim.reset_net();
        sim.run_epochs(2).unwrap();
        let steady = sim.stats();
        assert_eq!(steady.net.replica_full.bytes, 0, "steady state must ship no full replicas");
        assert_eq!(steady.net.replica_delta.bytes, 0, "stationary agents must ship no deltas either");
        assert_eq!(steady.net.transfer.bytes, 0, "no ownership changes");
        // The pool-resident counters: live ticks never rebuilt a pool,
        // never materialized Vec<Agent>, and (after the first tick's
        // build) never rebuilt an index.
        assert_eq!(steady.pool_rebuilds, 0, "steady-state ticks must not rebuild pools");
        assert_eq!(steady.vec_roundtrips, 0, "steady-state ticks must not round-trip Vec<Agent>");
        assert_eq!(steady.index_rebuilds, 2, "only the post-construction first tick builds (one per worker)");
    }

    #[test]
    fn persisting_replicas_ship_delta_frames_only() {
        let schema = Wiggle::new();
        let agents: Vec<Agent> = (0..40)
            .map(|i| Agent::new(AgentId::new(i), Vec2::new(48.0 + (i % 5) as f64, i as f64), schema.schema()))
            .collect();
        let cfg = ClusterConfig { workers: 2, epoch_len: 4, seed: 3, load_balance: false, ..Default::default() };
        let mut sim = ClusterSim::new(Arc::new(Wiggle::new()), agents, cfg).unwrap();
        sim.run_epochs(1).unwrap();
        sim.reset_net();
        sim.run_epochs(2).unwrap();
        let steady = sim.stats();
        assert_eq!(steady.net.replica_full.bytes, 0, "persisting replicas must never re-ship full records");
        assert!(steady.net.replica_delta.bytes > 0, "moving replicas must ship deltas");
        assert!(steady.replica_deltas_in > 0, "delta updates must arrive");
        // Deltas (y + phase per agent per tick) are far smaller than the
        // full records the pre-delta protocol would have shipped.
        let mut full = ClusterSim::new(
            Arc::new(Wiggle::new()),
            (0..40)
                .map(|i| Agent::new(AgentId::new(i), Vec2::new(48.0 + (i % 5) as f64, i as f64), schema.schema()))
                .collect(),
            ClusterConfig {
                workers: 2,
                epoch_len: 4,
                seed: 3,
                load_balance: false,
                distribution: DistributionMode::Full,
                ..Default::default()
            },
        )
        .unwrap();
        full.run_epochs(1).unwrap();
        full.reset_net();
        full.run_epochs(2).unwrap();
        let full_stats = full.stats();
        assert!(
            steady.net.replica_bytes() * 2 < full_stats.net.replica_bytes(),
            "delta traffic ({}) must be well under full redistribution ({})",
            steady.net.replica_bytes(),
            full_stats.net.replica_bytes()
        );
        // And the transport never changes results.
        assert_eq!(sim.collect_agents().unwrap(), full.collect_agents().unwrap());
    }

    #[test]
    fn collocation_off_charges_local_traffic() {
        let agents = population(Flock::new().schema(), 60, 4);
        let mk = |collocation| ClusterConfig {
            workers: 2,
            epoch_len: 5,
            seed: 2,
            load_balance: false,
            collocation,
            ..Default::default()
        };
        let mut on = ClusterSim::new(Arc::new(Flock::new()), agents.clone(), mk(true)).unwrap();
        on.run_epochs(2).unwrap();
        let mut off = ClusterSim::new(Arc::new(Flock::new()), agents, mk(false)).unwrap();
        off.run_epochs(2).unwrap();
        let (b_on, b_off) = (on.stats().net.total_bytes(), off.stats().net.total_bytes());
        assert!(b_off > b_on, "no-collocation must move more bytes ({b_off} <= {b_on})");
        // And the simulation result is unaffected.
        assert_eq!(on.collect_agents().unwrap(), off.collect_agents().unwrap());
    }
}

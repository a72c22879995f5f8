//! Layer probes on a measured world: the spatial index, the wire codec and
//! the checkpoint file, each timed through the crate's public functions on
//! the population the workload itself produced.

use crate::trace::span;
use crate::util::{median, ms, quantile, Metrics};
use brace_common::{DetRng, Vec2};
use brace_core::behavior::NeighborProbe;
use brace_core::{Agent, AgentPool, Behavior, Simulation, TickMetrics};
use brace_mapreduce::checkpoint::{load_checkpoint_file, write_checkpoint_file};
use brace_mapreduce::codec::{self, WorkerSnapshot};
use brace_mapreduce::ClusterCheckpoint;
use brace_scenario::Observer;
use brace_spatial::{IndexKind, KdTree, ScanIndex, SpatialIndex, UniformGrid};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Repetitions of the cheap probes (build, update, codec); the median is
/// reported.
const REPS: usize = 3;

/// `spatial.*` on `before` (sorted by id), with `after` (the same world one
/// tick later, sorted by id) supplying the moves for `update`. Probing uses
/// the behavior's own probe rect and probe kind.
pub fn spatial(behavior: &dyn Behavior, kind: IndexKind, before: &[Agent], after: &[Agent]) -> Metrics {
    match kind {
        IndexKind::KdTree => spatial_with::<KdTree>(behavior, before, after),
        IndexKind::Grid => spatial_with::<UniformGrid>(behavior, before, after),
        IndexKind::Scan => spatial_with::<ScanIndex>(behavior, before, after),
    }
}

fn spatial_with<I: SpatialIndex>(behavior: &dyn Behavior, before: &[Agent], after: &[Agent]) -> Metrics {
    let points: Vec<(Vec2, u32)> = before.iter().enumerate().map(|(i, a)| (a.pos, i as u32)).collect();
    let next: Vec<(Vec2, u32)> = after.iter().enumerate().map(|(i, a)| (a.pos, i as u32)).collect();
    // Rows of `before` whose agent still exists in `after` and moved, at
    // their new positions (both worlds are sorted by id).
    let mut moved = Vec::with_capacity(before.len());
    let mut j = 0;
    for (i, a) in before.iter().enumerate() {
        while j < after.len() && after[j].id < a.id {
            j += 1;
        }
        if j < after.len() && after[j].id == a.id && after[j].pos != a.pos {
            moved.push((i as u32, after[j].pos));
        }
    }
    // `update_ms` is what bringing the index to the next tick costs: an
    // in-place update, or — when the index declines the batch, as it does
    // for dense motion — the rebuild the executor then does.
    let (mut build_ms, mut update_ms) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        let mut index = span("spatial.build", || I::build(&points));
        build_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        span("spatial.update", || {
            if !index.update(&moved) {
                index = I::build(&next);
            }
        });
        update_ms.push(ms(t.elapsed()));
    }
    let index = I::build(&points);

    let vis = behavior.schema().visibility();
    let probe = behavior.probe();
    let mut out = Vec::new();
    let probe_one = |i: usize, a: &Agent, out: &mut Vec<u32>| {
        out.clear();
        match probe {
            NeighborProbe::Range => index.range_batch(&behavior.probe_rect(a.pos, vis), out),
            NeighborProbe::Nearest(k) => index.k_nearest_into(a.pos, k, Some(i as u32), out),
        }
    };
    // The timed pass only probes; candidates are classified afterwards.
    let t = Instant::now();
    let returned_timed = span("spatial.probe", || {
        before.iter().enumerate().fold(0usize, |n, (i, a)| {
            probe_one(i, a, &mut out);
            n + out.len()
        })
    });
    let probe_ms = ms(t.elapsed());
    let (mut per_probe, mut returned, mut useful) = (Vec::with_capacity(before.len()), 0usize, 0usize);
    for (i, a) in before.iter().enumerate() {
        probe_one(i, a, &mut out);
        per_probe.push(out.len() as f64);
        returned += out.len();
        useful += out.iter().filter(|&&c| before[c as usize].pos.dist(a.pos) <= vis).count();
    }
    std::hint::black_box(returned_timed);

    let mut m = Metrics::default();
    m.push("spatial.build_ms", median(&build_ms), "ms");
    m.push("spatial.update_ms", median(&update_ms), "ms");
    m.push("spatial.probe_ms", probe_ms, "ms");
    m.push("spatial.candidates_per_probe_p50", quantile(&per_probe, 0.5), "count");
    m.push("spatial.candidates_per_probe_p99", quantile(&per_probe, 0.99), "count");
    m.push("spatial.useful_frac", if returned == 0 { 1.0 } else { useful as f64 / returned as f64 }, "ratio");
    m
}

/// `mapreduce.codec_*`: encode every row of the world as it ships between
/// workers, and decode it back. The round trip must be exact.
pub fn codec(behavior: &dyn Behavior, world: &[Agent]) -> (Metrics, Option<String>) {
    let pool = AgentPool::from_agents(behavior.schema(), world);
    let rows: Vec<u32> = (0..world.len() as u32).collect();
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut err = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let bytes = span("mapreduce.codec_encode", || codec::encode_pool_rows(&pool, &rows));
        enc.push(ms(t.elapsed()));
        let t = Instant::now();
        let back = span("mapreduce.codec_decode", || codec::decode_agents(bytes));
        dec.push(ms(t.elapsed()));
        if back != world {
            err = Some("codec round trip changed the world".to_string());
        }
    }
    let mut m = Metrics::default();
    m.push("mapreduce.codec_encode_ms", median(&enc), "ms");
    m.push("mapreduce.codec_decode_ms", median(&dec), "ms");
    (m, err)
}

/// `mapreduce.checkpoint_*` for a world that is not on a cluster: write it
/// as a one-worker checkpoint file (fsynced) under `dir` and load it back.
pub fn checkpoint(world: &[Agent], tick: u64, dir: &Path) -> (Metrics, Option<String>) {
    let snapshot = WorkerSnapshot {
        tick,
        next_spawn_id: world.iter().map(|a| a.id.raw() + 1).max().unwrap_or(0),
        rng: DetRng::seed_from_u64(tick),
        agents: world.to_vec(),
    };
    let (lo, hi) = world.iter().fold((f64::MAX, f64::MIN), |(lo, hi), a| (lo.min(a.pos.x), hi.max(a.pos.x)));
    let cp = ClusterCheckpoint {
        epoch: 1,
        tick,
        x_bounds: vec![lo, hi],
        hist_range: (lo, hi),
        workers: vec![codec::encode_snapshot(&snapshot)],
    };
    let (mut write, mut load) = (Vec::new(), Vec::new());
    let mut err = None;
    for _ in 0..REPS {
        let t = Instant::now();
        if let Err(e) = span("mapreduce.checkpoint_write", || write_checkpoint_file(dir, &cp)) {
            err = Some(format!("checkpoint write: {e}"));
            break;
        }
        write.push(ms(t.elapsed()));
        let t = Instant::now();
        match span("mapreduce.checkpoint_load", || load_checkpoint_file(dir, 1)) {
            Ok(back) if back == cp => load.push(ms(t.elapsed())),
            Ok(_) => err = Some("checkpoint round trip changed the world".into()),
            Err(e) => err = Some(format!("checkpoint load: {e}")),
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    let mut m = Metrics::default();
    m.push("mapreduce.checkpoint_write_ms", median(&write), "ms");
    m.push("mapreduce.checkpoint_load_ms", median(&load), "ms");
    (m, err)
}

/// Collects the executor's per-tick metrics from a [`brace_scenario::SimHandle`].
pub struct TickSink(pub Arc<Mutex<Vec<TickMetrics>>>);

impl Observer for TickSink {
    fn on_tick_metrics(&mut self, tm: &TickMetrics) {
        self.0.lock().expect("tick sink poisoned").push(tm.clone());
    }
}

/// `core.*` from measured ticks: their wall times and the executor's phase
/// split, plus the measured two-thread over serial `speedup` on the same
/// world sequence.
pub fn core_metrics(ticks: &[TickMetrics], step_ms: &[f64], speedup: f64) -> Metrics {
    let phase = |f: fn(&TickMetrics) -> u64| median(&ticks.iter().map(|t| f(t) as f64 / 1e6).collect::<Vec<_>>());
    let agents: usize = ticks.iter().map(|t| t.n_agents).sum();
    let visits: u64 = ticks.iter().map(|t| t.neighbor_visits).sum();
    let mut m = Metrics::default();
    m.push("core.step_ms_p50", median(step_ms), "ms");
    m.push("core.step_ms_p95", quantile(step_ms, 0.95), "ms");
    m.push("core.index_maintain_ms", phase(|t| t.index_build_ns), "ms");
    m.push("core.query_ms", phase(|t| t.query_ns), "ms");
    m.push("core.effect_merge_ms", phase(|t| t.merge_ns), "ms");
    m.push("core.update_ms", phase(|t| t.update_ns), "ms");
    m.push("core.neighbor_visits_per_agent", visits as f64 / agents.max(1) as f64, "count");
    m.push("core.parallel_speedup", speedup, "ratio");
    m
}

/// The core layer on a world the workload produced but did not step on a
/// single node itself: `ticks` serial steps and `ticks` two-thread steps
/// from the same start. Returns `core.*`, the serial query time of the
/// first tick, and the world after that tick (for the spatial probe).
pub fn core_on_world(
    behavior: &Arc<dyn Behavior>,
    world: &[Agent],
    kind: IndexKind,
    seed: u64,
    ticks: usize,
) -> brace_common::Result<(Metrics, f64, Vec<Agent>)> {
    let mut runs = Vec::new();
    let mut after_first = Vec::new();
    for parallelism in [1, 2] {
        let mut sim = Simulation::builder(Arc::clone(behavior))
            .agents(world.to_vec())
            .index(kind)
            .seed(seed)
            .parallelism(parallelism)
            .build()?;
        let (mut tms, mut walls) = (Vec::new(), Vec::new());
        for t in 0..ticks {
            let start = Instant::now();
            tms.push(span("core.step", || sim.step()));
            walls.push(ms(start.elapsed()));
            if parallelism == 1 && t == 0 {
                after_first = sim.agents();
                after_first.sort_by_key(|a| a.id);
            }
        }
        runs.push((tms, walls));
    }
    let serial_query_ms = runs[0].0[0].query_ns as f64 / 1e6;
    let metrics = core_metrics(&runs[1].0, &runs[1].1, median(&runs[0].1) / median(&runs[1].1));
    Ok((metrics, serial_query_ms, after_first))
}

//! Table 2: validating the BRACE traffic reimplementation against the
//! hand-coded baseline.
//!
//! "We validate consistency of the MITSIM model encoded in BRASIL in terms
//! of the simulated traffic conditions … We compare lane changing
//! frequencies, average lane velocity and average lane density … The
//! statistical difference is measured by RMSPE" (§5.2, Appendix C).
//!
//! Both engines are observed through the same [`TrafficObserver`]: per
//! aggregation window and lane it records vehicle density, mean velocity
//! and lane-change counts; [`compare`] then computes the RMSPE between the
//! two engines' per-window series for every lane and statistic.

use crate::mitsim::MitsimBaseline;
use crate::traffic::{state, TrafficParams};
use brace_common::stats::rmspe;
use brace_core::Agent;
use std::collections::HashMap;

/// Per-lane, per-window observation series.
#[derive(Debug, Clone, Default)]
struct LaneSeries {
    density: Vec<f64>,
    velocity: Vec<f64>,
    change_freq: Vec<f64>,
}

/// Streaming observer producing windowed per-lane statistics.
#[derive(Debug)]
pub struct TrafficObserver {
    lanes: usize,
    segment: f64,
    window: u64,
    tick_in_window: u64,
    // Window accumulators.
    count_sum: Vec<f64>,
    vel_sum: Vec<f64>,
    vel_n: Vec<u64>,
    changes: Vec<u64>,
    prev_lane: HashMap<u64, usize>,
    series: Vec<LaneSeries>,
}

impl TrafficObserver {
    /// Observe `lanes` lanes of a `segment`-length road, aggregating every
    /// `window` ticks.
    pub fn new(params: &TrafficParams, window: u64) -> Self {
        assert!(window > 0);
        TrafficObserver {
            lanes: params.lanes,
            segment: params.segment,
            window,
            tick_in_window: 0,
            count_sum: vec![0.0; params.lanes],
            vel_sum: vec![0.0; params.lanes],
            vel_n: vec![0; params.lanes],
            changes: vec![0; params.lanes],
            prev_lane: HashMap::new(),
            series: (0..params.lanes).map(|_| LaneSeries::default()).collect(),
        }
    }

    /// Record one tick of a BRACE population.
    pub fn observe_agents(&mut self, agents: &[Agent]) {
        let snapshot: Vec<(u64, usize, f64)> =
            agents.iter().map(|a| (a.id.raw(), a.pos.y.round() as usize, a.state[state::VEL as usize])).collect();
        self.observe(snapshot);
    }

    /// Record one tick of the baseline.
    pub fn observe_baseline(&mut self, sim: &MitsimBaseline) {
        let snapshot: Vec<(u64, usize, f64)> = sim
            .lanes()
            .iter()
            .enumerate()
            .flat_map(|(lane, cars)| cars.iter().map(move |c| (c.id, lane, c.vel)))
            .collect();
        self.observe(snapshot);
    }

    fn observe(&mut self, vehicles: Vec<(u64, usize, f64)>) {
        for &(id, lane, vel) in &vehicles {
            let lane = lane.min(self.lanes - 1);
            self.count_sum[lane] += 1.0;
            self.vel_sum[lane] += vel;
            self.vel_n[lane] += 1;
            if let Some(prev) = self.prev_lane.insert(id, lane) {
                if prev != lane {
                    // Attribute the change to the destination lane.
                    self.changes[lane] += 1;
                }
            }
        }
        // Forget vehicles that left the road (ids not seen get rebuilt on
        // respawn; stale entries are harmless but bounded).
        self.tick_in_window += 1;
        if self.tick_in_window == self.window {
            self.flush_window();
        }
    }

    fn flush_window(&mut self) {
        for lane in 0..self.lanes {
            let s = &mut self.series[lane];
            s.density.push(self.count_sum[lane] / self.window as f64 / self.segment);
            let v = if self.vel_n[lane] > 0 { self.vel_sum[lane] / self.vel_n[lane] as f64 } else { 0.0 };
            s.velocity.push(v);
            s.change_freq.push(self.changes[lane] as f64 / self.window as f64);
            self.count_sum[lane] = 0.0;
            self.vel_sum[lane] = 0.0;
            self.vel_n[lane] = 0;
            self.changes[lane] = 0;
        }
        self.tick_in_window = 0;
    }

    /// Completed windows so far.
    pub fn windows(&self) -> usize {
        self.series.first().map_or(0, |s| s.density.len())
    }

    /// Mean density of a lane over all windows (veh/m).
    pub fn mean_density(&self, lane: usize) -> f64 {
        mean(&self.series[lane].density)
    }

    /// Mean velocity of a lane over all windows (m/s).
    pub fn mean_velocity(&self, lane: usize) -> f64 {
        mean(&self.series[lane].velocity)
    }

    /// Mean lane-change frequency (events/tick into this lane).
    pub fn mean_change_freq(&self, lane: usize) -> f64 {
        mean(&self.series[lane].change_freq)
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// One row of Table 2: RMSPE between the two engines for one lane.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    pub lane: usize,
    pub change_freq_rmspe: f64,
    pub density_rmspe: f64,
    pub velocity_rmspe: f64,
}

/// Compare an observed engine against the reference engine (the baseline in
/// the paper's setup), producing one row per lane.
pub fn compare(observed: &TrafficObserver, reference: &TrafficObserver) -> Vec<Table2Row> {
    assert_eq!(observed.lanes, reference.lanes, "lane counts must match");
    (0..observed.lanes)
        .map(|lane| {
            let o = &observed.series[lane];
            let r = &reference.series[lane];
            Table2Row {
                lane,
                change_freq_rmspe: rmspe(&o.change_freq, &r.change_freq).unwrap_or(f64::NAN),
                density_rmspe: rmspe(&o.density, &r.density).unwrap_or(f64::NAN),
                velocity_rmspe: rmspe(&o.velocity, &r.velocity).unwrap_or(f64::NAN),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficBehavior;
    use brace_core::Simulation;

    fn params() -> TrafficParams {
        TrafficParams { segment: 1000.0, lanes: 3, density: 0.03, ..TrafficParams::default() }
    }

    #[test]
    fn observer_windows_and_means() {
        let p = params();
        let b = TrafficBehavior::new(p.clone());
        let pop = b.population(1);
        let mut sim = Simulation::builder(b).agents(pop).seed(1).build().unwrap();
        let mut obs = TrafficObserver::new(&p, 5);
        for _ in 0..20 {
            obs.observe_agents(&sim.agents());
            sim.step();
        }
        assert_eq!(obs.windows(), 4);
        for lane in 0..3 {
            assert!(obs.mean_density(lane) > 0.0);
            assert!(obs.mean_velocity(lane) > 0.0);
        }
    }

    #[test]
    fn identical_engines_give_zero_rmspe() {
        let p = params();
        let run = || {
            let b = TrafficBehavior::new(p.clone());
            let pop = b.population(2);
            let mut sim = Simulation::builder(b).agents(pop).seed(2).build().unwrap();
            let mut obs = TrafficObserver::new(&p, 10);
            for _ in 0..50 {
                obs.observe_agents(&sim.agents());
                sim.step();
            }
            obs
        };
        let a = run();
        let b = run();
        for row in compare(&a, &b) {
            assert_eq!(row.density_rmspe, 0.0);
            assert_eq!(row.velocity_rmspe, 0.0);
            // change_freq can be NaN if a lane saw no changes (all-zero
            // reference series); zero otherwise.
            assert!(row.change_freq_rmspe == 0.0 || row.change_freq_rmspe.is_nan());
        }
    }

    #[test]
    fn engines_agree_within_tolerance() {
        // The Table 2 claim, in miniature: BRACE vs the hand-coded baseline
        // on the same road agree on density and velocity within a modest
        // relative error. (`paper table2` prints the full-scale numbers.)
        let p = params();
        let b = TrafficBehavior::new(p.clone());
        let pop = b.population(3);
        let mut brace_sim = Simulation::builder(b).agents(pop).seed(3).build().unwrap();
        let mut base = MitsimBaseline::new(p.clone(), 3);
        let mut obs_brace = TrafficObserver::new(&p, 25);
        let mut obs_base = TrafficObserver::new(&p, 25);
        // Warm-up both engines to steady state, then observe.
        brace_sim.run(50);
        base.run(50);
        for _ in 0..150 {
            obs_brace.observe_agents(&brace_sim.agents());
            obs_base.observe_baseline(&base);
            brace_sim.step();
            base.step();
        }
        let rows = compare(&obs_brace, &obs_base);
        for row in &rows {
            assert!(row.velocity_rmspe < 0.25, "lane {} velocity RMSPE {} too high", row.lane, row.velocity_rmspe);
            assert!(row.density_rmspe < 0.5, "lane {} density RMSPE {} too high", row.lane, row.density_rmspe);
        }
    }
}

//! The BRACE benchmark: one command, four workloads, end-to-end metrics,
//! and a traced run for the per-layer numbers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fish-uniform|fish-hotspot|predator-cluster|serve-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Lines before it
//! carry the environment, every metric with its unit, and the
//! workload-specific detail. `perfbench/README.md` defines each metric.

mod cluster;
mod fish;
mod probe;
mod serve;
mod trace;
mod util;

use brace_common::Result;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use util::{Metrics, Outcome};

/// Input size: `Full` is the benchmark, `Tiny` the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One workload: measure for about `budget`, checking every output;
/// `traced` adds the per-layer metrics.
pub trait Workload {
    fn measure(&mut self, budget: Duration, traced: bool) -> Result<Outcome>;
}

pub const WORKLOADS: [&str; 4] = ["fish-uniform", "fish-hotspot", "predator-cluster", "serve-mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    /// Self-test hook: flip one bit of every expected checksum.
    inject_mismatch: bool,
    out: PathBuf,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        inject_mismatch: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("--scale takes full or tiny, not `{other}`")),
                }
            }
            "--inject-mismatch" => args.inject_mismatch = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<()> {
    // Run directories and probe files of this process; removed at exit.
    let scratch = args.out.join(format!("tmp-{}", std::process::id()));
    let (seed, scale, mismatch) = (args.seed, args.scale, args.inject_mismatch);
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "fish-uniform" => Box::new(fish::Fish::new(false, seed, scale, mismatch, scratch.clone())),
        "fish-hotspot" => Box::new(fish::Fish::new(true, seed, scale, mismatch, scratch.clone())),
        "predator-cluster" => Box::new(cluster::PredatorCluster::new(seed, scale, mismatch, scratch.clone())),
        _ => Box::new(serve::ServeMix::new(seed, scale, mismatch, scratch.clone())),
    };
    println!("{}", util::environment(&args.workload, seed));
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();

    let result = if args.trace {
        traced(workload.as_mut(), args, budget)
    } else {
        workload.measure(budget, false).map(|o| {
            let m = o.e2e.clone();
            (o, m)
        })
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let (mut outcome, metrics) = result?;
    outcome.attempted = outcome.attempted.max(1);
    let failed = outcome.failures.len() as u64;
    outcome.detail.push("error_rate", failed as f64 / outcome.attempted as f64, "ratio");
    outcome.detail.push("wall_s", started.elapsed().as_secs_f64(), "s");

    for (title, list) in
        [("metric", &metrics), ("detail", &outcome.detail), ("layer (this workload only)", &outcome.layer_extra)]
    {
        for m in &list.0 {
            println!("{title:>26}  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    if !outcome.layer_extra.0.is_empty() {
        println!("{{\"layer_extra\": {}}}", outcome.layer_extra.to_json());
    }
    for f in outcome.failures.iter().take(20) {
        println!("FAILED: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        outcome.attempted,
        metrics.to_json()
    );
    Ok(())
}

/// The traced run: half the budget untraced, then telemetry and span
/// recording on for the other half. Returns the traced phase's outcome and
/// the per-layer metrics, with the tracing overhead measured between the
/// two halves.
fn traced(workload: &mut dyn Workload, args: &Args, budget: Duration) -> Result<(Outcome, Metrics)> {
    let plain = workload.measure(budget / 2, false)?;
    brace_telemetry::reset();
    brace_telemetry::set_enabled(true);
    trace::enable(true);
    let mut t = workload.measure(budget / 2, true)?;
    trace::enable(false);

    let rate = |o: &Outcome| o.e2e.get("agent_ticks_per_s").unwrap_or(f64::NAN);
    let (untraced, with) = (rate(&plain), rate(&t));
    let mut layers = t.layers.clone();
    layers.push("telemetry.trace_overhead_frac", (untraced - with) / untraced, "ratio");
    t.detail.push("untraced_agent_ticks_per_s", untraced, "1/s");
    t.detail.push("traced_agent_ticks_per_s", with, "1/s");
    t.detail.push("traced_minus_untraced_agent_ticks_per_s", with - untraced, "1/s");
    t.attempted += plain.attempted;
    t.failures.extend(plain.failures);

    let spans = trace::spans();
    let path = args.out.join(format!("spans-{}-seed{}.ndjson", args.workload, args.seed));
    if let Err(e) = trace::write_ndjson(&path, &spans) {
        t.failures.push(format!("writing {}: {e}", path.display()));
    }
    for (name, count, total, self_ms) in trace::summary(&spans) {
        println!("{:>26}  {name:<40} count {count:>6}  total {total:>12.3} ms  self {self_ms:>12.3} ms", "span");
    }
    println!("spans written to {}", path.display());
    Ok((t, layers))
}

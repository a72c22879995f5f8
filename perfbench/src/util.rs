//! Small shared pieces: the metric list a workload reports, order
//! statistics, process memory, and the environment record.

use std::time::Duration;

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics (names are unique within one list).
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.into(), value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// `{"name": {"value": v, "unit": u}, ...}` with every digit of `v`.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, json_num(m.value), m.unit))
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// A JSON number; non-finite values (which the self-test rejects) become
/// `null` so the line still parses.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// What one measured phase of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// One line per failed or refused operation.
    pub failures: Vec<String>,
    /// The end-to-end metrics every workload reports (`BENCHMARK.json`).
    pub e2e: Metrics,
    /// Workload-specific end-to-end detail: tails, sample counts, the
    /// workload's own names for its two latency slots.
    pub detail: Metrics,
    /// Per-layer metrics every workload reports (traced phase only).
    pub layers: Metrics,
    /// Per-layer metrics of layers only this workload runs (traced phase
    /// only).
    pub layer_extra: Metrics,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; NaN for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The host facts every result set carries, as one JSON object.
pub fn environment(workload: &str, seed: u64) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name").map(|r| r.trim_start_matches([' ', '\t', ':']).to_string()))
        })
        .unwrap_or_else(|| "unknown".into());
    let cache = |level: &str| -> String {
        for i in 0..8 {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
            if read("level").ok().as_deref() == Some(level) && read("type").ok().as_deref() != Some("Instruction") {
                return read("size").unwrap_or_default();
            }
        }
        "unknown".into()
    };
    // Only a checkout that is itself a git repository names its commit;
    // git is not asked to search the directories above it.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| std::process::Command::new("git").args(["rev-parse", "HEAD"]).output().ok())
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    format!(
        "{{\"env\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"cores\": {cores}, \"cpu\": \"{}\", \
         \"l2\": \"{}\", \"l3\": \"{}\", \"commit\": \"{commit}\"}}}}",
        cpu.replace('"', "'"),
        cache("2"),
        cache("3")
    )
}

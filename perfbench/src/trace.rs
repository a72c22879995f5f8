//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into the
//! crates' public functions; nothing inside the program is instrumented.
//! When recording is off, [`span`] costs one relaxed load. Spans nest per
//! thread (the innermost open span is the parent) and carry the run id of
//! the operation they belong to, so the spans of one request share it.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static RUN: RefCell<String> = const { RefCell::new(String::new()) };
}

/// One closed span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub run: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Start or stop recording.
pub fn enable(on: bool) {
    epoch();
    ON.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Set the run id that spans opened on this thread carry.
pub fn set_run(run: String) {
    RUN.with(|r| *r.borrow_mut() = run);
}

/// Run `f` inside a span named `name` (a plain call when recording is off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    let run = RUN.with(|r| r.borrow().clone());
    SPANS.lock().expect("span store poisoned by a panicking recorder").push(Span {
        id,
        parent,
        name,
        run,
        start_ns,
        end_ns,
    });
    out
}

/// Record an interval timed by the caller (one that does not fit a
/// closure, such as the wait for a stream's first frame) as a child of the
/// innermost open span.
pub fn record(name: &'static str, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| s.borrow().last().copied());
    let at = |t: Instant| t.saturating_duration_since(epoch()).as_nanos() as u64;
    let run = RUN.with(|r| r.borrow().clone());
    SPANS.lock().expect("span store poisoned by a panicking recorder").push(Span {
        id,
        parent,
        name,
        run,
        start_ns: at(start),
        end_ns: at(end),
    });
}

/// Every span recorded so far, in closing order.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span store poisoned by a panicking recorder").clone()
}

/// Durations in milliseconds of every recorded span called `name`.
pub fn durations_ms(name: &str) -> Vec<f64> {
    spans().iter().filter(|s| s.name == name).map(Span::ms).collect()
}

/// Self time of each span: its duration minus the part of its interval
/// that its children cover (children on other threads included).
pub fn self_times_ms(spans: &[Span]) -> Vec<f64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns - covered) as f64 / 1e6
        })
        .collect()
}

/// Per span name: count, total and self milliseconds, in first-seen order.
pub fn summary(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let selfs = self_times_ms(spans);
    let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
    for (s, self_ms) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.ms();
                r.3 += self_ms;
            }
            None => rows.push((s.name, 1, s.ms(), self_ms)),
        }
    }
    rows
}

/// Write every span as one NDJSON line (name, start, end, parent, run id,
/// self time), then one summary line per span name.
pub fn write_ndjson(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ms) in spans.iter().zip(self_times_ms(spans)) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
             \"run\": \"{}\", \"self_ms\": {self_ms}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.run
        )?;
    }
    for (name, count, total, self_ms) in summary(spans) {
        writeln!(
            out,
            "{{\"summary\": \"{name}\", \"count\": {count}, \"total_ms\": {total}, \"self_ms\": {self_ms}}}"
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_cover_once() {
        let mk = |id, parent, start_ns, end_ns| Span { id, parent, name: "x", run: String::new(), start_ns, end_ns };
        // Parent 0..100 with overlapping children 10..40 and 30..50 and a
        // child poking past its end (90..120): cover is 10..50 + 90..100.
        let spans = [mk(1, None, 0, 100), mk(2, Some(1), 10, 40), mk(3, Some(1), 30, 50), mk(4, Some(1), 90, 120)];
        let selfs = self_times_ms(&spans);
        assert!((selfs[0] - 50.0 / 1e6).abs() < 1e-12, "{selfs:?}");
        assert!((selfs[1] - 30.0 / 1e6).abs() < 1e-12);
    }
}

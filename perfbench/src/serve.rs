//! `serve-mix`: an in-process `brace_serve::Server` with two pool workers
//! and a closed loop of two clients. Each client alternates a cold
//! `POST /runs` of `brasil-predator` (fresh seed, so BRASIL compile and
//! inversion run every time) with a cache hit: a re-POST of a job that
//! client already finished. Latency runs from the POST to the terminal
//! line of `GET /runs/:id/stream`.

use crate::fish::{scenario_layers, working_set_bytes};
use crate::probe::{self, TickSink};
use crate::trace::{self, span};
use crate::util::{self, median, ms, quantile, Metrics, Outcome};
use crate::{Scale, Workload};
use brace_common::{BraceError, DetRng, Result};
use brace_core::{Agent, TickMetrics};
use brace_scenario::{world_checksum, Backend, Registry, Runner, Scenario};
use brace_serve::{Json, ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const SCENARIO: &str = "brasil-predator";
const CLIENTS: u64 = 2;
const POOL_WORKERS: usize = 2;
/// Server starts timed before the loop, and again after it.
const SETUPS_EACH_SIDE: usize = 10;
/// A hit repeats one of the client's last this-many finished jobs (all
/// within the result cache's default capacity).
const HIT_WINDOW: usize = 16;
/// In-process runs of the traced phase that give `scenario.*` and `core.*`.
const LAYER_RUNS: usize = 3;
/// BRASIL compile/optimize repetitions of the traced phase.
const COMPILE_REPS: usize = 20;

pub struct ServeMix {
    seed: u64,
    agents: u64,
    ticks: u64,
    mismatch: bool,
    scratch: std::path::PathBuf,
}

/// One finished request as the client saw it.
struct Request {
    cold: bool,
    job_seed: u64,
    checksum: u64,
    latency_ms: f64,
    post_ms: f64,
    first_frame_ms: f64,
    stream_ms: f64,
}

impl ServeMix {
    pub fn new(seed: u64, scale: Scale, mismatch: bool, scratch: std::path::PathBuf) -> ServeMix {
        let (agents, ticks) = match scale {
            Scale::Full => (2_000, 20),
            Scale::Tiny => (200, 5),
        };
        ServeMix { seed, agents, ticks, mismatch, scratch }
    }

    fn body(&self, job_seed: u64) -> String {
        format!(
            "{{\"scenario\":\"{SCENARIO}\",\"agents\":{},\"ticks\":{},\"seed\":{job_seed}}}",
            self.agents, self.ticks
        )
    }

    /// One cold-or-hit request, POST through terminal stream line.
    fn request(&self, addr: SocketAddr, cold: bool, job_seed: u64) -> std::result::Result<Request, String> {
        let start = Instant::now();
        let (status, body) = span("serve.post", || http(addr, "POST", "/runs", &self.body(job_seed)))?;
        let post_ms = ms(start.elapsed());
        let want = if cold { 202 } else { 200 };
        if status != want {
            return Err(format!("POST /runs answered {status} (expected {want}): {body}"));
        }
        let doc = Json::parse(&body).map_err(|e| format!("POST /runs body: {e}"))?;
        let id = doc.get("run_id").and_then(Json::as_str).ok_or("POST /runs body names no run_id")?;
        if doc.get("cached").and_then(Json::as_bool) != Some(!cold) {
            return Err(format!("POST /runs cached flag is not {}: {body}", !cold));
        }
        let get = Instant::now();
        let (first, terminal) = stream(addr, id)?;
        let end = Instant::now();
        trace::record("serve.first_frame", get, first);
        trace::record("serve.stream", first, end);
        let doc = Json::parse(terminal.trim()).map_err(|e| format!("terminal line: {e}"))?;
        if doc.get("status").and_then(Json::as_str) != Some("done") {
            return Err(format!("run {id} did not finish: {terminal}"));
        }
        let checksum = doc
            .get("checksum")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x").trim_start_matches("0X"), 16).ok())
            .ok_or_else(|| format!("terminal line has no checksum: {terminal}"))?;
        Ok(Request {
            cold,
            job_seed,
            checksum,
            latency_ms: ms(end - start),
            post_ms,
            first_frame_ms: ms(first - get),
            stream_ms: ms(end - first),
        })
    }

    /// A client's closed loop: a cold request, then a hit of a job this
    /// client finished, repeated until `deadline`. The clients step in
    /// lockstep (a barrier before each request): both cold runs of a round
    /// share the pool, and the hits run while no simulation occupies a
    /// core, so neither latency depends on how the two loops happen to
    /// interleave.
    fn client(
        &self,
        addr: SocketAddr,
        c: u64,
        deadline: Instant,
        round: &Barrier,
        stop: &AtomicBool,
    ) -> (Vec<Request>, Vec<String>) {
        let mut seeds = DetRng::seed_from_u64(self.seed).stream(0x5E27E + c);
        let (mut done, mut errors) = (Vec::<Request>::new(), Vec::new());
        let mut finished: Vec<(u64, u64)> = Vec::new();
        let mut i = 0;
        loop {
            if round.wait().is_leader() {
                stop.store(i > 0 && Instant::now() >= deadline, Ordering::SeqCst);
            }
            round.wait();
            if stop.load(Ordering::SeqCst) {
                return (done, errors);
            }
            for cold in [true, false] {
                if !cold {
                    round.wait();
                }
                let (job_seed, expected) = if cold {
                    (seeds.below(1 << 40), None)
                } else if finished.is_empty() {
                    continue;
                } else {
                    let window = finished.len().min(HIT_WINDOW);
                    let (s, sum) = finished[finished.len() - 1 - seeds.below(window as u64) as usize];
                    (s, Some(sum))
                };
                trace::set_run(format!("serve-mix/seed{}/client{c}/req{i}", self.seed));
                i += 1;
                match span("serve.request", || self.request(addr, cold, job_seed)) {
                    Ok(r) => {
                        if let Some(sum) = expected {
                            if r.checksum != sum ^ u64::from(self.mismatch) {
                                errors.push(format!(
                                    "hit of seed {job_seed}: checksum {:#x} != cold run {sum:#x}",
                                    r.checksum
                                ));
                            }
                        } else {
                            finished.push((job_seed, r.checksum));
                        }
                        done.push(r);
                    }
                    Err(e) => errors.push(format!("client {c} request {i}: {e}")),
                }
            }
        }
    }

    fn start_server(&self) -> Result<(Server, f64)> {
        let start = Instant::now();
        let server =
            Server::start(Registry::builtin(), ServeConfig { workers: POOL_WORKERS, ..ServeConfig::default() })?;
        match http(server.addr(), "GET", "/scenarios", "") {
            Ok((200, _)) => Ok((server, start.elapsed().as_secs_f64())),
            Ok((status, body)) => Err(BraceError::Config(format!("GET /scenarios answered {status}: {body}"))),
            Err(e) => Err(BraceError::Config(format!("GET /scenarios: {e}"))),
        }
    }
}

impl Workload for ServeMix {
    fn measure(&mut self, budget: Duration, traced: bool) -> Result<Outcome> {
        let mut o = Outcome::default();
        // Half the set-ups before the loop and half after it, so the median
        // spans the run.
        let mut setups = Vec::new();
        let setup = |setups: &mut Vec<f64>| -> Result<()> {
            for _ in 0..SETUPS_EACH_SIDE {
                let (server, t) = self.start_server()?;
                server.shutdown();
                setups.push(t);
                // Shutdown does not join the pool; let its threads exit
                // before the next start is timed.
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(())
        };
        // The first starts of a process pay one-time costs (thread stacks,
        // allocator arenas) that no later start sees; they are not timed.
        setup(&mut Vec::new())?;
        setup(&mut setups)?;
        let (server, t) = self.start_server()?;
        setups.push(t);
        let addr = server.addr();

        let start = Instant::now();
        let deadline = start + budget;
        let (round, stop) = (Barrier::new(CLIENTS as usize), AtomicBool::new(false));
        let (this, round, stop) = (&*self, &round, &stop);
        let results: Vec<(Vec<Request>, Vec<String>)> = std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..CLIENTS).map(|c| s.spawn(move || this.client(addr, c, deadline, round, stop))).collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let loop_s = start.elapsed().as_secs_f64();
        let peak_rss_mb = util::peak_rss_mb();
        let stats = http(addr, "GET", "/stats", "").map_err(BraceError::Config)?;
        server.shutdown();
        setup(&mut setups)?;
        let stats = Json::parse(&stats.1).map_err(|e| BraceError::Config(format!("GET /stats body: {e}")))?;
        let stat =
            |path: &[&str]| path.iter().try_fold(&stats, |j, k| j.get(k)).and_then(Json::as_u64).unwrap_or(0) as f64;

        let mut requests = Vec::new();
        for (done, errors) in results {
            o.attempted += (done.len() + errors.len()) as u64;
            requests.extend(done);
            o.failures.extend(errors);
        }
        let requests_sent = o.attempted as f64;
        // Every cold result must equal an in-process run of the same job.
        let colds: Vec<&Request> = requests.iter().filter(|r| r.cold).collect();
        let registry = Registry::builtin();
        let scenario = registry.get_or_err(SCENARIO)?;
        let wrong: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = colds
                .chunks(colds.len().div_ceil(2).max(1))
                .map(|chunk| {
                    s.spawn(move || {
                        let mut wrong = Vec::new();
                        for r in chunk {
                            let run =
                                Runner::new(scenario).population(this.agents as usize).seed(r.job_seed).run(this.ticks);
                            match run {
                                Ok(rep) if rep.checksum == r.checksum ^ u64::from(this.mismatch) => {}
                                Ok(rep) => wrong.push(format!(
                                    "cold seed {}: served {:#x}, in-process Runner::run {:#x}",
                                    r.job_seed, r.checksum, rep.checksum
                                )),
                                Err(e) => wrong.push(format!("cold seed {}: in-process run failed: {e}", r.job_seed)),
                            }
                        }
                        wrong
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("reference thread panicked")).collect()
        });
        o.failures.extend(wrong);

        let pick = |cold: bool, f: fn(&Request) -> f64| -> Vec<f64> {
            requests.iter().filter(|r| r.cold == cold).map(f).collect()
        };
        let (cold, hit) = (pick(true, |r| r.latency_ms), pick(false, |r| r.latency_ms));
        o.e2e.push("setup_s", median(&setups), "s");
        o.e2e.push("agent_ticks_per_s", (cold.len() as u64 * self.agents * self.ticks) as f64 / loop_s, "1/s");
        o.e2e.push("op_p50_ms", median(&cold), "ms");
        o.e2e.push("alt_p50_ms", median(&hit), "ms");
        o.e2e.push("peak_rss_mb", peak_rss_mb, "MB");
        o.detail.push("cold_p50_ms", median(&cold), "ms");
        o.detail.push("cold_p95_ms", quantile(&cold, 0.95), "ms");
        o.detail.push("hit_p50_ms", median(&hit), "ms");
        o.detail.push("hit_p95_ms", quantile(&hit, 0.95), "ms");
        o.detail.push("cold_samples", cold.len() as f64, "count");
        o.detail.push("hit_samples", hit.len() as f64, "count");

        if traced {
            let (layers, errors, world) = self.layers(scenario, &requests)?;
            // The in-process reruns and the codec and checkpoint round trips.
            o.attempted += (2 * LAYER_RUNS + 2) as u64;
            o.layers.extend(layers);
            o.failures.extend(errors);
            o.detail.push("working_set_bytes_computed", working_set_bytes(&world), "B");
            let x = &mut o.layer_extra;
            x.extend(compile_layers());
            x.push("serve.post_ms", median(&requests.iter().map(|r| r.post_ms).collect::<Vec<_>>()), "ms");
            x.push("serve.first_frame_ms", median(&pick(true, |r| r.first_frame_ms)), "ms");
            x.push("serve.stream_ms", median(&pick(true, |r| r.stream_ms)), "ms");
            let (hits, misses) = (stat(&["cache", "hits"]), stat(&["cache", "misses"]));
            x.push("serve.cache_hit_ratio", hits / (hits + misses).max(1.0), "ratio");
            x.push("serve.rejected_frac", stat(&["rejected_saturated"]) / requests_sent.max(1.0), "ratio");
        }
        Ok(o)
    }
}

impl ServeMix {
    /// `scenario.*`, `core.*`, `spatial.*`, `models.*` and the world probes
    /// from in-process runs of jobs the server already ran (each must
    /// reproduce the served checksum).
    fn layers(&self, scenario: &dyn Scenario, requests: &[Request]) -> Result<(Metrics, Vec<String>, Vec<Agent>)> {
        let mut errors = Vec::new();
        let (mut ticks, mut walls, mut parallel_walls) = (Vec::<TickMetrics>::new(), Vec::new(), Vec::new());
        let mut last = None;
        for r in requests.iter().filter(|r| r.cold).take(LAYER_RUNS) {
            trace::set_run(format!("serve-mix/seed{}/in-process/{}", self.seed, r.job_seed));
            for parallelism in [1, 2] {
                let sink = Arc::new(Mutex::new(Vec::new()));
                let setup = span("scenario.build", || scenario.build(Some(self.agents as usize), r.job_seed))?;
                let (behavior, index) = (Arc::clone(&setup.behavior), setup.index);
                let mut handle = span("scenario.launch", || {
                    Runner::new(scenario)
                        .seed(r.job_seed)
                        .backend(Backend::SingleNode { parallelism })
                        .observe(Box::new(TickSink(Arc::clone(&sink))))
                        .launch_with(setup)
                })?;
                let mut before = Vec::new();
                for t in 0..self.ticks {
                    if t + 1 == self.ticks {
                        before = handle.world()?;
                    }
                    let start = Instant::now();
                    span("core.step", || handle.run(1))?;
                    if t > 0 {
                        if parallelism == 1 { &mut walls } else { &mut parallel_walls }.push(ms(start.elapsed()));
                    }
                }
                let (world, checksum) = span("scenario.collect", || -> Result<(Vec<Agent>, u64)> {
                    let world = handle.world()?;
                    scenario.check(&world)?;
                    let checksum = world_checksum(&world);
                    Ok((world, checksum))
                })?;
                if checksum != r.checksum {
                    errors.push(format!("in-process run of seed {} disagrees with the server", r.job_seed));
                }
                if parallelism == 1 {
                    let tms = sink.lock().expect("tick sink poisoned").clone();
                    let last_query_ms = tms.last().map_or(f64::NAN, |t| t.query_ns as f64 / 1e6);
                    ticks.extend(tms.into_iter().skip(1));
                    last = Some((behavior, index, before, world, last_query_ms));
                }
            }
        }
        let Some((behavior, index, before, world, last_query_ms)) = last else {
            return Err(BraceError::Config("no cold request finished; nothing to trace".into()));
        };
        let mut m = scenario_layers();
        m.extend(probe::core_metrics(&ticks, &walls, median(&walls) / median(&parallel_walls)));
        let spatial = probe::spatial(behavior.as_ref(), index, &before, &world);
        let probe_ms = spatial.get("spatial.probe_ms").unwrap_or(f64::NAN);
        m.extend(spatial);
        m.push("models.query_compute_ms", last_query_ms - probe_ms, "ms");
        let (codec, err) = probe::codec(behavior.as_ref(), &world);
        m.extend(codec);
        errors.extend(err);
        let (cp, err) = probe::checkpoint(&world, self.ticks, &self.scratch.join("checkpoint-probe"));
        m.extend(cp);
        errors.extend(err);
        Ok((m, errors, world))
    }
}

/// `brasil.*`: the front end (`Script::compile_unoptimized`) and the
/// optimizer with inversion (`Pipeline::run`) on the script every cold
/// request compiles.
fn compile_layers() -> Metrics {
    let (mut compile, mut optimize, mut rounds) = (Vec::new(), Vec::new(), 0usize);
    for _ in 0..COMPILE_REPS {
        let start = Instant::now();
        let script = span("brasil.compile", || brasil::Script::compile_unoptimized(brace_models::scripts::PREDATOR));
        compile.push(ms(start.elapsed()));
        let Ok(script) = script else { continue };
        let class = script.classes()[0].clone();
        let start = Instant::now();
        let (_, report) = span("brasil.optimize", || brasil::Pipeline::with_inversion().run(class));
        optimize.push(ms(start.elapsed()));
        rounds = report.rounds;
    }
    let mut m = Metrics::default();
    m.push("brasil.compile_ms", median(&compile), "ms");
    m.push("brasil.optimize_ms", median(&optimize), "ms");
    m.push("brasil.pipeline_rounds", rounds as f64, "count");
    m
}

fn connect(addr: SocketAddr) -> std::result::Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
    Ok(s)
}

fn send(s: &mut TcpStream, method: &str, path: &str, body: &str) -> std::result::Result<(), String> {
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).map_err(|e| format!("{method} {path}: {e}"))
}

/// Status line and headers (lower-cased names).
fn head(r: &mut impl BufRead) -> std::result::Result<(u16, Vec<(String, String)>), String> {
    let mut line = String::new();
    r.read_line(&mut line).map_err(|e| e.to_string())?;
    let status =
        line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or(format!("bad status line `{line}`"))?;
    let mut headers = Vec::new();
    loop {
        line.clear();
        r.read_line(&mut line).map_err(|e| e.to_string())?;
        let l = line.trim_end();
        if l.is_empty() {
            return Ok((status, headers));
        }
        if let Some((k, v)) = l.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
}

/// One request on its own connection; the whole body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::result::Result<(u16, String), String> {
    let mut s = connect(addr)?;
    send(&mut s, method, path, body)?;
    let mut r = BufReader::new(s);
    let (status, _) = head(&mut r)?;
    let mut text = String::new();
    r.read_to_string(&mut text).map_err(|e| format!("{method} {path}: {e}"))?;
    Ok((status, text))
}

/// Tail `GET /runs/:id/stream`: returns when the first frame line arrived
/// and the terminal (`"done":true`) line.
fn stream(addr: SocketAddr, id: &str) -> std::result::Result<(Instant, String), String> {
    let mut s = connect(addr)?;
    send(&mut s, "GET", &format!("/runs/{id}/stream"), "")?;
    let mut r = BufReader::new(s);
    let (status, _) = head(&mut r)?;
    if status != 200 {
        return Err(format!("GET /runs/{id}/stream answered {status}"));
    }
    let (mut first, mut pending) = (None, String::new());
    loop {
        let mut size = String::new();
        r.read_line(&mut size).map_err(|e| e.to_string())?;
        let n = usize::from_str_radix(size.trim(), 16).map_err(|_| format!("bad chunk size `{}`", size.trim()))?;
        if n == 0 {
            return Err(format!("stream of {id} ended without a terminal line"));
        }
        let mut chunk = vec![0u8; n + 2];
        r.read_exact(&mut chunk).map_err(|e| e.to_string())?;
        first.get_or_insert_with(Instant::now);
        pending.push_str(&String::from_utf8_lossy(&chunk[..n]));
        if let Some(line) = pending.lines().find(|l| l.contains("\"done\":true")) {
            return Ok((first.expect("set above"), line.to_string()));
        }
    }
}

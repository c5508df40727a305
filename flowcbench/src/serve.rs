//! `serve`: open loop. Seeded Poisson arrivals at one fixed offered rate,
//! below the knee, against an in-process `flowc-serve` on port 0 with two
//! workers and a journal in a fresh directory. The mix: hot repeats of
//! bench circuits (artifact-cache hits), cold seeded netlists as BLIF
//! text (shared nothing), `/patch` edit streams along `job_key` lineages,
//! a share of non-`compact` backends, and a few cancels.
//!
//! Load comes from two threads holding at most one connection each: the
//! generator submits at each job's due time (recording how late it ran),
//! the poller follows every job to its terminal state. Latency is timed
//! from the due time, so a late generator cannot hide queueing. This is
//! the only workload where HTTP, admission, the queue, the journal fsync
//! and the incremental ladder sit on the result path.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use flowc_baselines::{Backend, MappingBackend, SynthesisCtx};
use flowc_compact::{synthesize, Config, EditableNetlist};
use flowc_conform::{EditStreamGen, NetworkGen, Rng};
use flowc_logic::{bench_suite, blif, Network};
use flowc_report::Json;
use flowc_serve::client::request;
use flowc_serve::{JournalConfig, ServeConfig, Server};

use crate::calib::Calibration;
use crate::check::{check_design, CheckTimes, Design, Vectors};
use crate::outcome::{ms, repeated_setup, tail_note, Outcome};
use crate::stats::{self, Fastest};
use crate::trace::Tracer;
use crate::Args;

/// Load-generating threads (generator + poller).
pub const LOAD_THREADS: usize = 2;
/// Concurrent client connections (one per load thread).
pub const CONNECTIONS: usize = 2;
/// Offered load, jobs per second (see the README for the rate sweep it
/// was chosen from).
pub const RATE: f64 = 15.0;
/// The highest rate `--rate` accepts.
pub const MAX_RATE: f64 = 60.0;
/// Server worker threads.
const WORKERS: usize = 2;
/// Every job's deadline; also its latency limit for goodput.
const DEADLINE_MS: u64 = 10_000;
/// Pause between poll sweeps over the jobs in flight.
const POLL_PAUSE: Duration = Duration::from_millis(5);
/// The generator takes a calibration sample while it waits for a job's
/// due time only when at least this long remains.
const CALIBRATE_HEADROOM: Duration = Duration::from_millis(15);
/// How long to wait for stragglers after the last arrival.
const DRAIN: Duration = Duration::from_secs(60);
/// A cancel job is cancelled this long after its submit returns.
const CANCEL_AFTER: Duration = Duration::from_millis(30);
/// Every reference design is checked on `CHECK_VECTORS` vectors. The
/// fixed hot and backend designs (the ones `vectors_per_s` times) are
/// then timed after the server has stopped: `BENCH_ROUNDS` rounds of
/// `BENCH_ROUND` fresh vectors, round-robin over the designs.
const CHECK_VECTORS: usize = 1024;
const BENCH_ROUNDS: usize = 512;
const BENCH_ROUND: usize = 1_024;

/// Hot repeats: (bench circuit, γ), submitted round-robin.
const HOT: [(&str, f64); 5] = [
    ("ctrl", 0.5),
    ("int2float", 0.5),
    ("dec", 1.0),
    ("dec", 0.5),
    ("priority", 1.0),
];
/// Non-`compact` backends: (backend, bench circuit), round-robin.
const BACKENDS: [(&str, &str); 4] = [
    ("staircase", "ctrl"),
    ("magic-nor", "ctrl"),
    ("partitioned", "ctrl"),
    ("robdd-diagonal", "ctrl"),
];
/// The job mix in percent: hot, cold, patch lineage, backend, cancel.
/// No traffic model exists to take shares from; they were chosen so that
/// each path the workload must reach gets enough jobs in a 20 s run at
/// `RATE` to show in its per-layer figures (135 hot, 75 cold, 54 patch,
/// 24 backend and 12 cancel jobs).
const MIX: [usize; 5] = [45, 25, 18, 8, 4];
/// Bench circuits the `/patch` lineages start from (each lineage draws
/// its own edit stream).
const LINEAGES: [&str; 2] = ["ctrl", "ctrl"];
/// Edits per `/patch` request.
const EDITS_PER_PATCH: usize = 2;
/// The cancelled jobs' circuit: slow enough to still be in flight.
const CANCEL_CIRCUIT: &str = "c499";

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Hot(usize),
    Cold,
    Lineage,
    Backend(usize),
    Cancel,
}

/// One planned request.
struct Planned {
    due: Duration,
    kind: Kind,
    path: &'static str,
    body: String,
    /// The netlist the job synthesizes (for the reference check).
    network: Arc<Network>,
    gamma: f64,
    backend: Option<&'static str>,
}

/// One job as the client saw it.
#[derive(Debug, Clone, Default)]
struct Seen {
    plan: usize,
    id: u64,
    due: Option<Instant>,
    sent: Option<Instant>,
    accepted: Option<Instant>,
    submit: Duration,
    running: Option<Instant>,
    terminal: Option<Instant>,
    state: Option<String>,
    outcome: Option<Json>,
    cancel_at: Option<Instant>,
    cancel_sent: bool,
    /// Every `/status` poll's round trip.
    polls: Vec<(Instant, Instant)>,
    admission_degraded: bool,
}

impl Seen {
    fn latency(&self) -> Option<Duration> {
        Some(self.terminal? - self.due?)
    }

    /// Execution wall: the larger of the server's reported wall and the
    /// running span the poller observed (the server's own timer starts
    /// after per-job set-up such as chaos hooks).
    fn exec(&self) -> Duration {
        let server = self
            .outcome
            .as_ref()
            .and_then(|o| o.get("wall_ms"))
            .and_then(Json::as_f64)
            .map_or(Duration::ZERO, |w| Duration::from_secs_f64(w / 1e3));
        let observed = match (self.running, self.terminal) {
            (Some(r), Some(t)) => t.saturating_duration_since(r),
            _ => Duration::ZERO,
        };
        server.max(observed)
    }

    /// Jobs with the same netlist share a reference: hot and backend jobs
    /// by their kind, every other job by its own plan index.
    fn plan_key(&self, jobs: &[Planned]) -> usize {
        match jobs[self.plan].kind {
            Kind::Hot(i) => usize::MAX - i,
            Kind::Backend(i) => usize::MAX - 100 - i,
            _ => self.plan,
        }
    }
}

/// How late the generator sent a job: 0 when it was on time.
fn lag(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Hot(_) => "hot",
            Kind::Cold => "cold",
            Kind::Lineage => "patch",
            Kind::Backend(_) => "backend",
            Kind::Cancel => "cancel",
        }
    }
}

fn is_terminal(state: &str) -> bool {
    matches!(state, "done" | "failed" | "cancelled" | "shed")
}

fn bench_network(name: &str) -> Arc<Network> {
    Arc::new(
        bench_suite::by_name(name)
            .expect("serve circuit is registered")
            .network()
            .expect("serve circuit builds"),
    )
}

fn submit_body(fields: Vec<(&str, Json)>) -> String {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
    .to_compact()
}

/// Edits each lineage needs for a plan of `jobs` jobs: the deck deals
/// exactly `jobs × MIX[2] / 100` lineage jobs round-robin over the
/// lineages, and each one after a lineage's first submit patches
/// `EDITS_PER_PATCH` edits.
fn edits_per_lineage(jobs: usize) -> usize {
    let lineage_jobs = jobs * MIX[2] / 100;
    lineage_jobs.div_ceil(LINEAGES.len()).saturating_sub(1) * EDITS_PER_PATCH
}

/// The seeded job plan for `seconds` of arrivals: `rate × seconds` jobs
/// at sorted uniform times (a Poisson process conditioned on its count)
/// with the kinds dealt from a shuffled deck in the exact `MIX` shares,
/// so seeds differ in order and timing but not in volume or mix.
fn plan(seed: u64, seconds: f64, rate: f64) -> Vec<Planned> {
    let n = ((rate * seconds).round() as usize).max(1);
    let needed = edits_per_lineage(n);
    let mut rng = Rng::new(seed ^ 0x5E4E_0A11);
    let hot: Vec<Arc<Network>> = HOT.iter().map(|(c, _)| bench_network(c)).collect();
    let backends: Vec<Arc<Network>> = BACKENDS.iter().map(|(_, c)| bench_network(c)).collect();
    let cancel_net = bench_network(CANCEL_CIRCUIT);
    let cold_shape = NetworkGen {
        num_inputs: 8,
        max_gates: 40,
        max_outputs: 4,
    };
    // Lineages: base network, its edit stream, the edits used so far, and
    // the current materialized netlist.
    let mut lineages: Vec<(Vec<String>, usize, EditableNetlist, usize)> = LINEAGES
        .iter()
        .map(|name| {
            let base = (*bench_network(name)).clone();
            let case = EditStreamGen {
                edits: needed,
                ..EditStreamGen::default()
            }
            .replay_for(base.clone(), &mut rng);
            assert_eq!(
                case.edits.len(),
                needed,
                "the edit stream generator ran dry on lineage base {name}"
            );
            let edits = case.edits.iter().map(ToString::to_string).collect();
            (edits, 0, EditableNetlist::from_network(&base), 0)
        })
        .collect();
    let (mut hot_next, mut backend_next, mut lineage_next) = (0usize, 0usize, 0usize);
    let mut times: Vec<f64> = (0..n)
        .map(|_| (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * seconds)
        .collect();
    times.sort_by(f64::total_cmp);
    let mut deck: Vec<usize> = Vec::with_capacity(n);
    for (class, share) in MIX.iter().enumerate().skip(1) {
        deck.extend(std::iter::repeat_n(class, n * share / 100));
    }
    deck.resize(n, 0); // the rest are hot repeats
    for i in (1..n).rev() {
        deck.swap(i, rng.below(i + 1));
    }
    let mut jobs = Vec::new();
    for (&t, &class) in times.iter().zip(&deck) {
        let due = Duration::from_secs_f64(t);
        let deadline = ("deadline_ms", Json::Num(DEADLINE_MS as f64));
        let job = if class == 0 {
            let i = hot_next % HOT.len();
            hot_next += 1;
            let (circuit, gamma) = HOT[i];
            Planned {
                due,
                kind: Kind::Hot(i),
                path: "/submit",
                body: submit_body(vec![
                    ("circuit", Json::str(circuit)),
                    ("format", Json::str("bench")),
                    ("gamma", Json::Num(gamma)),
                    deadline,
                ]),
                network: Arc::clone(&hot[i]),
                gamma,
                backend: None,
            }
        } else if class == 1 {
            let text = blif::write(&cold_shape.generate(&mut rng));
            let network = Arc::new(blif::parse(&text).expect("writer output parses"));
            Planned {
                due,
                kind: Kind::Cold,
                path: "/submit",
                body: submit_body(vec![
                    ("circuit", Json::str(text)),
                    ("format", Json::str("blif")),
                    ("gamma", Json::Num(0.5)),
                    deadline,
                ]),
                network,
                gamma: 0.5,
                backend: None,
            }
        } else if class == 2 {
            let k = lineage_next % lineages.len();
            lineage_next += 1;
            let (edits, used, netlist, step) = &mut lineages[k];
            let key = |s: usize| format!("seed{seed}-lineage{k}-{s}");
            let body = if *step == 0 {
                submit_body(vec![
                    ("circuit", Json::str(LINEAGES[k])),
                    ("format", Json::str("bench")),
                    ("gamma", Json::Num(0.5)),
                    ("job_key", Json::str(key(0))),
                    deadline,
                ])
            } else {
                let chunk: Vec<Json> = edits[*used..*used + EDITS_PER_PATCH]
                    .iter()
                    .map(|e| Json::str(e.clone()))
                    .collect();
                for e in &edits[*used..*used + EDITS_PER_PATCH] {
                    let edit = flowc_compact::parse_edit(e).expect("edit text round-trips");
                    netlist.apply(&edit).expect("replay streams apply in order");
                }
                *used += EDITS_PER_PATCH;
                submit_body(vec![
                    ("base_key", Json::str(key(*step - 1))),
                    ("job_key", Json::str(key(*step))),
                    ("edits", Json::Arr(chunk)),
                    ("gamma", Json::Num(0.5)),
                    deadline,
                ])
            };
            let path = if *step == 0 { "/submit" } else { "/patch" };
            *step += 1;
            Planned {
                due,
                kind: Kind::Lineage,
                path,
                body,
                network: Arc::new(netlist.materialize().expect("lineage netlist materializes")),
                gamma: 0.5,
                backend: None,
            }
        } else if class == 3 {
            let i = backend_next % BACKENDS.len();
            backend_next += 1;
            let (backend, circuit) = BACKENDS[i];
            Planned {
                due,
                kind: Kind::Backend(i),
                path: "/submit",
                body: submit_body(vec![
                    ("circuit", Json::str(circuit)),
                    ("format", Json::str("bench")),
                    ("backend", Json::str(backend)),
                    ("gamma", Json::Num(0.5)),
                    deadline,
                ]),
                network: Arc::clone(&backends[i]),
                gamma: 0.5,
                backend: Some(backend),
            }
        } else {
            Planned {
                due,
                kind: Kind::Cancel,
                path: "/submit",
                body: submit_body(vec![
                    ("circuit", Json::str(CANCEL_CIRCUIT)),
                    ("format", Json::str("bench")),
                    ("gamma", Json::Num(0.5)),
                    deadline,
                ]),
                network: Arc::clone(&cancel_net),
                gamma: 0.5,
                backend: None,
            }
        };
        jobs.push(job);
    }
    jobs
}

/// A running server with its journal directory.
struct Service {
    server: Server,
    addr: String,
    dir: PathBuf,
}

impl Service {
    fn start(dir: PathBuf, chaos: bool) -> Service {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the journal directory");
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: WORKERS,
            enable_chaos: chaos,
            journal: Some(JournalConfig::new(dir.join("journal"))),
            ..ServeConfig::default()
        })
        .expect("start flowc-serve on port 0");
        let addr = server.addr().to_string();
        let (status, _) = request(&addr, "GET", "/healthz", "").expect("healthz");
        assert_eq!(status, 200, "healthz");
        Service { server, addr, dir }
    }

    fn stop(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn scratch_dir(out_dir: &Path, tag: &str) -> PathBuf {
    out_dir.join(format!("serve-{}-{tag}", std::process::id()))
}

fn metrics(addr: &str) -> Json {
    request(addr, "GET", "/metrics", "").map_or(Json::Null, |(_, j)| j)
}

/// A numeric field at `path` in a `/metrics` body (0 when absent).
fn num(j: &Json, path: &[&str]) -> f64 {
    let mut cur = j;
    for key in path {
        match cur.get(key) {
            Some(v) => cur = v,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer, out: &mut Outcome) {
    if !args.trace {
        let mut rep = 0;
        let ((service, jobs), setup) = repeated_setup(
            || {
                rep += 1;
                let jobs = plan(args.seed, args.seconds, args.rate);
                let dir = scratch_dir(&args.out_dir, &format!("setup{rep}"));
                (Service::start(dir, false), jobs)
            },
            |(service, _)| service.stop(),
        );
        let mut phase = measure(&service, &jobs, tracer, out);
        service.stop();
        phase.time_bench(out);
        phase.fill_end_to_end(out, setup.fastest_s());
        out.note("setup", setup.note());
        out.note("offered_rate_per_s", Json::Num(args.rate));
        return;
    }
    let half = args.seconds / 2.0;
    let jobs = plan(args.seed, half, args.rate);
    let service = Service::start(scratch_dir(&args.out_dir, "plain"), false);
    let plain = measure(&service, &jobs, &mut Tracer::new(false), out);
    service.stop();
    let service = Service::start(scratch_dir(&args.out_dir, "traced"), false);
    let traced = measure(&service, &jobs, tracer, out);
    service.stop();
    traced.fill_layers(out);
    out.note("offered_rate_per_s", Json::Num(args.rate));
    let mean_latency = |p: &Phase| stats::mean(&p.latencies_ms);
    out.layer(
        "trace.overhead_frac",
        mean_latency(&traced) / mean_latency(&plain).max(1e-9) - 1.0,
    );
    stall_self_check(args, out);
}

/// What a measured phase saw.
struct Phase {
    seen: Vec<Seen>,
    refused: BTreeMap<u16, usize>,
    /// Done jobs' latencies from their due time, ms, scaled to the
    /// reference host speed (see [`crate::calib`]).
    latencies_ms: Vec<f64>,
    by_kind: BTreeMap<&'static str, Vec<f64>>,
    good: usize,
    done: usize,
    load_seconds: f64,
    lag_ms: Vec<f64>,
    vectors: usize,
    checks: usize,
    check_wall: Duration,
    /// The library's designs of the fixed bench set, by job key, for
    /// timing `vectors_per_s`.
    bench: BTreeMap<usize, (Built, Arc<Network>)>,
    /// Their check rate (see [`Phase::time_bench`]).
    vectors_per_s: f64,
    /// Calibration samples the generator took while it waited.
    calib: Calibration,
    /// Done jobs by how far their design was compared with the library.
    compared: BTreeMap<&'static str, usize>,
    hot_shapes: BTreeMap<usize, (usize, usize, f64)>,
    before: Json,
    after: Json,
    poll_cycle: Duration,
}

impl Phase {
    fn fill_end_to_end(&self, out: &mut Outcome, setup_s: f64) {
        let secs = self.load_seconds.max(1e-9);
        let e = &mut out.end_to_end;
        e.insert("setup_s", setup_s);
        e.insert("designs_per_s", self.done as f64 / secs);
        e.insert("jobs_per_s", self.good as f64 / secs);
        e.insert("vectors_per_s", self.vectors_per_s);
        e.insert(
            "latency_p50_ms",
            stats::median(&self.latencies_ms).unwrap_or(0.0),
        );
        let tail = stats::tail(&self.latencies_ms, 10);
        e.insert("latency_tail_ms", tail.map_or(0.0, |t| t.value));
        e.insert(
            "semiperimeter_sum",
            self.hot_shapes.values().map(|s| s.0).sum::<usize>() as f64,
        );
        e.insert(
            "max_dimension_sum",
            self.hot_shapes.values().map(|s| s.1).sum::<usize>() as f64,
        );
        let gaps: Vec<f64> = self.hot_shapes.values().map(|s| s.2).collect();
        e.insert("gap_mean", stats::mean(&gaps));
        let ok = out.attempted.saturating_sub(out.failed);
        e.insert("correct_frac", ok as f64 / out.attempted.max(1) as f64);
        if let Some(t) = tail {
            out.note("latency_tail", tail_note(t, self.latencies_ms.len()));
        }
        out.note("calibration", self.calib.note());
        self.notes(out);
    }

    fn notes(&self, out: &mut Outcome) {
        out.note(
            "latency_p50_ms_by_kind",
            Json::Obj(
                self.by_kind
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(stats::median(v).unwrap_or(0.0))))
                    .collect(),
            ),
        );
        out.note(
            "latency_max_ms_by_kind",
            Json::Obj(
                self.by_kind
                    .iter()
                    .map(|(k, v)| {
                        (
                            k.to_string(),
                            Json::Num(v.iter().copied().fold(0.0, f64::max)),
                        )
                    })
                    .collect(),
            ),
        );
        out.note("jobs", Json::int(self.seen.len()));
        out.note(
            "design_compared",
            Json::Obj(
                self.compared
                    .iter()
                    .map(|(k, n)| (k.to_string(), Json::int(*n)))
                    .collect(),
            ),
        );
        out.note(
            "generator_lag_ms",
            Json::Obj(vec![
                ("mean".into(), Json::Num(stats::mean(&self.lag_ms))),
                (
                    "max".into(),
                    Json::Num(self.lag_ms.iter().copied().fold(0.0, f64::max)),
                ),
            ]),
        );
        out.note(
            "refused",
            Json::Obj(
                self.refused
                    .iter()
                    .map(|(code, n)| (code.to_string(), Json::int(*n)))
                    .collect(),
            ),
        );
    }

    fn fill_layers(&self, out: &mut Outcome) {
        let submitted = self.seen.len() + self.refused.values().sum::<usize>();
        let n = self.seen.len().max(1) as f64;
        let submits: Vec<f64> = self.seen.iter().map(|s| ms(s.submit)).collect();
        out.layer("http.submit_ms", stats::mean(&submits));
        let polls: Vec<f64> = self
            .seen
            .iter()
            .flat_map(|s| s.polls.iter().map(|(t0, t1)| ms(*t1 - *t0)))
            .collect();
        out.layer("http.poll_ms", stats::mean(&polls));
        let delta = |path: &[&str]| num(&self.after, path) - num(&self.before, path);
        let degraded = self.seen.iter().filter(|s| s.admission_degraded).count();
        out.layer("admission.degraded_frac", degraded as f64 / n);
        for code in [422u16, 429, 503] {
            let shed = self.refused.get(&code).copied().unwrap_or(0);
            out.layer(
                &format!("admission.shed_{code}_frac"),
                shed as f64 / submitted.max(1) as f64,
            );
        }
        let finished: Vec<&Seen> = self.seen.iter().filter(|s| s.terminal.is_some()).collect();
        let half_cycle = self.poll_cycle / 2;
        let waits: Vec<f64> = finished
            .iter()
            .filter_map(|s| {
                let total = s.terminal?.checked_duration_since(s.accepted?)?;
                Some(ms(total
                    .saturating_sub(s.exec())
                    .saturating_sub(half_cycle)))
            })
            .collect();
        out.layer("queue.wait_ms", stats::mean(&waits));
        let execs: Vec<f64> = finished.iter().map(|s| ms(s.exec())).collect();
        out.layer("exec.wall_ms", stats::mean(&execs));
        let hits = delta(&["cache", "hits"]);
        let misses = delta(&["cache", "misses"]);
        out.layer("cache.hit_frac", hits / (hits + misses).max(1.0));
        out.layer(
            "journal.records",
            delta(&["journal", "records_appended"]) / n,
        );
        let inc = [
            ("hit", delta(&["counters", "incremental_hits"])),
            ("repair", delta(&["counters", "incremental_repairs"])),
            ("warm", delta(&["counters", "incremental_warm_starts"])),
            ("cold", delta(&["counters", "incremental_cold"])),
        ];
        let total: f64 = inc.iter().map(|(_, v)| v).sum();
        for (name, v) in inc {
            out.layer(&format!("incremental.{name}_frac"), v / total.max(1.0));
        }
        out.layer("generator.lag_ms", stats::mean(&self.lag_ms));
        out.layer("verify.ms", ms(self.check_wall) / self.checks.max(1) as f64);
        self.notes(out);
    }
}

/// Drives one phase of open-loop load and checks every outcome.
fn measure(service: &Service, jobs: &[Planned], tracer: &mut Tracer, out: &mut Outcome) -> Phase {
    let addr = service.addr.clone();
    let before = metrics(&addr);
    let seen: Arc<Mutex<Vec<Seen>>> = Arc::new(Mutex::new(Vec::new()));
    let generator_done = Arc::new(AtomicBool::new(false));
    let poller = {
        let seen = Arc::clone(&seen);
        let done = Arc::clone(&generator_done);
        let addr = addr.clone();
        std::thread::spawn(move || poll_loop(&addr, &seen, &done))
    };

    let start = Instant::now();
    let mut refused: BTreeMap<u16, usize> = BTreeMap::new();
    let mut lag_ms = Vec::with_capacity(jobs.len());
    let mut calib = Calibration::default();
    for (i, job) in jobs.iter().enumerate() {
        let due = start + job.due;
        if due.saturating_duration_since(Instant::now()) >= CALIBRATE_HEADROOM {
            calib.tick();
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        lag_ms.push(ms(lag(due, sent)));
        out.attempted += 1;
        let response = request(&addr, "POST", job.path, &job.body);
        let accepted = Instant::now();
        match response {
            Ok((200, body)) => {
                let Some(id) = body.get("id").and_then(Json::as_u64) else {
                    out.fail(format!("job {i}: submit answered 200 without an id"));
                    continue;
                };
                let record = Seen {
                    plan: i,
                    id,
                    due: Some(due),
                    sent: Some(sent),
                    accepted: Some(accepted),
                    submit: accepted - sent,
                    cancel_at: (job.kind == Kind::Cancel).then(|| accepted + CANCEL_AFTER),
                    admission_degraded: body.get("degraded").and_then(Json::as_bool) == Some(true),
                    ..Seen::default()
                };
                seen.lock().expect("seen lock").push(record);
            }
            Ok((status, body)) => {
                *refused.entry(status).or_default() += 1;
                out.fail(format!(
                    "job {i} ({:?}): {}",
                    job.kind,
                    flowc_serve::client::describe_error(status, &body)
                ));
            }
            Err(e) => out.fail(format!("job {i}: {e}")),
        }
    }
    // The load was offered from the schedule's start until the last
    // submit returned.
    let load_seconds = start.elapsed().as_secs_f64();
    generator_done.store(true, Ordering::SeqCst);
    let poll_cycle = poller.join().expect("poller thread");
    let seen = std::mem::take(&mut *seen.lock().expect("seen lock"));
    let after = metrics(&addr);

    // Spans: per job, the submit round trip, the time queued, execution,
    // and each poll's cost (aggregated per job).
    for s in &seen {
        let (Some(due), Some(sent), Some(accepted)) = (s.due, s.sent, s.accepted) else {
            continue;
        };
        let end = s.terminal.unwrap_or(accepted);
        let job = tracer.record("job", due, end.max(sent), None, s.id);
        tracer.record("generator.lag", due, sent.max(due), job, s.id);
        tracer.record("http.submit", sent, accepted, job, s.id);
        if let Some(t) = s.terminal {
            let exec_start = t.checked_sub(s.exec()).unwrap_or(accepted).max(accepted);
            tracer.record("queue", accepted, exec_start, job, s.id);
            tracer.record("exec", exec_start, t, job, s.id);
        }
        for &(t0, t1) in &s.polls {
            tracer.record("http.poll", t0, t1, job, s.id);
        }
    }

    let mut phase = Phase {
        seen,
        refused,
        latencies_ms: Vec::new(),
        by_kind: BTreeMap::new(),
        good: 0,
        done: 0,
        load_seconds,
        lag_ms,
        vectors: 0,
        checks: 0,
        check_wall: Duration::ZERO,
        bench: BTreeMap::new(),
        vectors_per_s: 0.0,
        calib,
        compared: BTreeMap::new(),
        hot_shapes: BTreeMap::new(),
        before,
        after,
        poll_cycle,
    };
    check_outcomes(&addr, jobs, &mut phase, out);
    phase
}

/// Follows every submitted job to a terminal state: `/status` until the
/// state is terminal (noting when it was first seen running), then
/// `/result` once. Returns the mean sweep cycle.
fn poll_loop(addr: &str, seen: &Mutex<Vec<Seen>>, generator_done: &AtomicBool) -> Duration {
    let mut cycles = Duration::ZERO;
    let mut sweeps = 0u32;
    let mut drain_started: Option<Instant> = None;
    loop {
        let pending: Vec<(usize, u64, Option<Instant>, bool)> = seen
            .lock()
            .expect("seen lock")
            .iter()
            .enumerate()
            .filter(|(_, s)| s.terminal.is_none())
            .map(|(i, s)| (i, s.id, s.cancel_at, s.cancel_sent))
            .collect();
        if pending.is_empty() {
            if generator_done.load(Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(POLL_PAUSE);
            continue;
        }
        if generator_done.load(Ordering::SeqCst) {
            let since = *drain_started.get_or_insert_with(Instant::now);
            if since.elapsed() > DRAIN {
                break;
            }
        }
        let sweep_start = Instant::now();
        for (i, id, cancel_at, cancel_sent) in pending {
            if let Some(at) = cancel_at {
                if !cancel_sent && Instant::now() >= at {
                    let _ = request(addr, "POST", "/cancel", &format!("{{\"id\":{id}}}"));
                    seen.lock().expect("seen lock")[i].cancel_sent = true;
                }
            }
            let t0 = Instant::now();
            let status = request(addr, "GET", &format!("/status?id={id}"), "");
            let t1 = Instant::now();
            let state = status
                .ok()
                .and_then(|(_, j)| j.get("state").and_then(Json::as_str).map(str::to_string));
            let mut result = None;
            if let Some(st) = state.as_deref().filter(|st| is_terminal(st)) {
                result = Some((
                    st.to_string(),
                    request(addr, "GET", &format!("/result?id={id}"), "").ok(),
                ));
            }
            let mut guard = seen.lock().expect("seen lock");
            let s = &mut guard[i];
            s.polls.push((t0, t1));
            if state.as_deref() == Some("running") && s.running.is_none() {
                s.running = Some(t1);
            }
            if let Some((st, body)) = result {
                s.terminal = Some(t1);
                s.state = Some(st);
                s.outcome = body.and_then(|(_, j)| j.get("outcome").cloned());
            }
        }
        cycles += sweep_start.elapsed();
        sweeps += 1;
        std::thread::sleep(POLL_PAUSE);
    }
    if sweeps == 0 {
        Duration::ZERO
    } else {
        cycles / sweeps + POLL_PAUSE
    }
}

/// Every job reached exactly one terminal state, and every proven-optimal
/// outcome matches the library on the same (circuit, γ).
fn check_outcomes(addr: &str, jobs: &[Planned], phase: &mut Phase, out: &mut Outcome) {
    // Terminal states: each job once, and a second read agrees.
    for s in &phase.seen {
        let kind = jobs[s.plan].kind;
        let Some(state) = s.state.as_deref() else {
            out.fail(format!(
                "job {} ({kind:?}) never reached a terminal state",
                s.id
            ));
            continue;
        };
        let again = request(addr, "GET", &format!("/result?id={}", s.id), "")
            .ok()
            .and_then(|(_, j)| j.get("state").and_then(Json::as_str).map(str::to_string));
        if again.as_deref() != Some(state) {
            out.fail(format!(
                "job {} ({kind:?}) was {state}, then read back as {again:?}",
                s.id
            ));
            continue;
        }
        let expected_ok = match kind {
            Kind::Cancel => matches!(state, "cancelled" | "done"),
            _ => state == "done",
        };
        if !expected_ok {
            out.fail(format!(
                "job {} ({kind:?}) ended {state}: {:?}",
                s.id, s.outcome
            ));
        }
    }
    let delta = |path: &[&str]| num(&phase.after, path) - num(&phase.before, path);
    let terminal = delta(&["counters", "completed_ok"])
        + delta(&["counters", "completed_degraded"])
        + delta(&["counters", "failed"])
        + delta(&["counters", "cancelled"]);
    if (terminal - delta(&["counters", "accepted"])).abs() > 0.5 {
        out.fail_check(format!(
            "server counted {terminal} terminal transitions for {} accepted jobs",
            delta(&["counters", "accepted"])
        ));
    }

    // Latency and goodput over the jobs that shipped a design.
    let mut references: BTreeMap<(usize, u64), Option<Reference>> = BTreeMap::new();
    let mut rng = Rng::new(0x0EF_C4EC);
    let seen = std::mem::take(&mut phase.seen);
    for s in &seen {
        let job = &jobs[s.plan];
        if job.kind == Kind::Cancel || s.state.as_deref() != Some("done") {
            continue;
        }
        let Some(outcome) = &s.outcome else { continue };
        let (Some(latency), Some(due), Some(end)) = (s.latency(), s.due, s.terminal) else {
            continue;
        };
        phase.done += 1;
        phase.latencies_ms.push(ms(phase.calib.scaled(due, end)));
        phase
            .by_kind
            .entry(job.kind.name())
            .or_default()
            .push(ms(latency));
        let field = |k: &str| outcome.get(k).and_then(Json::as_f64);
        let (Some(sp), Some(dim)) = (field("semiperimeter"), field("max_dimension")) else {
            out.fail(format!("job {}: outcome without S and D", s.id));
            continue;
        };
        let (sp, dim) = (sp as usize, dim as usize);
        let gap = field("relative_gap").unwrap_or(0.0);
        if let Kind::Hot(i) = job.kind {
            phase.hot_shapes.entry(i).or_insert((sp, dim, gap));
        }
        // The library reference for this (netlist, γ, backend), built and
        // checked against simulate64 once.
        let key = (s.plan_key(jobs), job.gamma.to_bits());
        let reference = references.entry(key).or_insert_with(|| {
            match reference(job, &mut rng) {
                Ok((shape, built, check)) => {
                    phase.vectors += check.vectors;
                    phase.checks += 1;
                    phase.check_wall += check.sim + check.eval;
                    // The rate counts the fixed bench set only, so it does
                    // not move with the seed's cold netlists.
                    if matches!(job.kind, Kind::Hot(_) | Kind::Backend(_)) {
                        phase.bench.insert(key.0, (built, Arc::clone(&job.network)));
                    }
                    Some(shape)
                }
                Err(e) => {
                    out.fail_check(format!("reference for job {}: {e}", s.id));
                    None
                }
            }
        });
        let mut correct = true;
        if let Some(Reference {
            s: ref_s,
            d: ref_d,
            optimal: ref_optimal,
        }) = *reference
        {
            let degraded = outcome.get("degraded").and_then(Json::as_bool) == Some(true);
            let proven = job.backend.is_none() && gap == 0.0 && !degraded;
            let compared = if job.backend.is_some() {
                "backend_shape"
            } else if proven && ref_optimal {
                "optimal_objective"
            } else if !proven {
                "unchecked_not_proven"
            } else {
                "unchecked_library_not_proven"
            };
            *phase.compared.entry(compared).or_default() += 1;
            if job.backend.is_some() {
                correct = (sp, dim) == (ref_s, ref_d);
            } else if proven && ref_optimal {
                let objective =
                    |s: usize, d: usize| job.gamma * s as f64 + (1.0 - job.gamma) * d as f64;
                correct = if job.gamma == 1.0 {
                    sp == ref_s
                } else {
                    (objective(sp, dim) - objective(ref_s, ref_d)).abs() < 1e-9
                };
            }
            if !correct {
                out.fail(format!(
                    "job {} ({:?}): served (S, D) = ({sp}, {dim}), library ({ref_s}, {ref_d}) at γ={}",
                    s.id, job.kind, job.gamma
                ));
            }
        }
        if correct && latency <= Duration::from_millis(DEADLINE_MS) {
            phase.good += 1;
        }
    }
    phase.seen = seen;
}

/// The library's design for a job's (netlist, γ, backend).
#[derive(Debug, Clone, Copy)]
struct Reference {
    s: usize,
    d: usize,
    /// Proven optimal for the γ-objective (never for other backends).
    optimal: bool,
}

/// Builds the library's design for a job and checks it against
/// simulate64, returning its shape, the design and the check's timing.
///
/// The server's `/result` carries the design's shape, not the design, so
/// the crossbar checked here is the library's rebuild for the same
/// (netlist, γ, backend); the served job is compared with it by shape.
fn reference(job: &Planned, rng: &mut Rng) -> Result<(Reference, Built, CheckTimes), String> {
    let network = &*job.network;
    let config = Config::gamma(job.gamma);
    let (reference, design) = match job.backend {
        None => {
            let r = synthesize(network, &config).map_err(|e| e.to_string())?;
            let reference = Reference {
                s: r.stats.semiperimeter,
                d: r.stats.max_dimension,
                optimal: r.optimal,
            };
            (reference, Built::Crossbar(r.crossbar))
        }
        Some(name) => {
            let backend = Backend::parse(name)?;
            let d = backend
                .synthesize(network, &SynthesisCtx::new(config))
                .map_err(|e| e.to_string())?;
            let reference = Reference {
                s: d.metrics.semiperimeter,
                d: d.metrics.max_dimension,
                optimal: false,
            };
            (reference, Built::Mapped(d))
        }
    };
    let vectors = Vectors::seeded(rng, network.num_inputs(), CHECK_VECTORS);
    let check = check_design(design.design(), network, &vectors)?;
    Ok((reference, design, check))
}

/// A reference design, owned.
enum Built {
    Crossbar(flowc_xbar::Crossbar),
    Mapped(flowc_baselines::MappedDesign),
}

impl Built {
    fn design(&self) -> Design<'_> {
        match self {
            Built::Crossbar(x) => Design::Crossbar(x),
            Built::Mapped(d) => Design::Mapped(d),
        }
    }
}

impl Phase {
    /// Times the fixed bench designs' checks against simulate64 once the
    /// server has stopped, so nothing else runs beside them: rounds
    /// round-robin over the designs (each design's fastest round is drawn
    /// from the whole window), the same vectors in every run. A wrong
    /// output fails the run.
    ///
    /// These walls are not scaled: the calibration unit allocates, and
    /// after the in-process server has run, the heap it leaves moved the
    /// unit by up to 65% from run to run while the checks (which do not
    /// allocate) held within 10%.
    fn time_bench(&mut self, out: &mut Outcome) {
        let mut rounds = Vec::with_capacity(BENCH_ROUNDS * self.bench.len());
        let mut rngs: Vec<Rng> = self
            .bench
            .keys()
            .map(|key| Rng::new(0xB3_4C4E ^ *key as u64))
            .collect();
        for _ in 0..BENCH_ROUNDS {
            for ((key, (built, network)), rng) in self.bench.iter().zip(&mut rngs) {
                let vectors = Vectors::seeded(rng, network.num_inputs(), BENCH_ROUND);
                let t0 = Instant::now();
                let check = check_design(built.design(), network, &vectors);
                let t1 = Instant::now();
                match check {
                    Ok(c) => rounds.push((*key, c.vectors, t0, t1)),
                    Err(e) => {
                        out.fail_check(format!("bench design of {}: {e}", network.name()));
                        return;
                    }
                }
            }
        }
        let mut fastest = Fastest::default();
        for (key, vectors, t0, t1) in rounds {
            fastest.add(key, vectors as f64, t1 - t0);
        }
        self.vectors_per_s = fastest.rate();
        out.note("bench_designs", Json::int(self.bench.len()));
    }
}

/// Attribution self-check: a planted `stall:<ms>` job on a chaos-enabled
/// server must land in `exec.wall_ms`, not in `http.*` or the queue wait.
fn stall_self_check(args: &Args, out: &mut Outcome) {
    const STALL_MS: u64 = 300;
    let service = Service::start(scratch_dir(&args.out_dir, "stall"), true);
    let body = |chaos: Option<&str>| {
        let mut fields = vec![
            ("circuit", Json::str("ctrl")),
            ("format", Json::str("bench")),
            ("gamma", Json::Num(0.5)),
        ];
        if let Some(c) = chaos {
            fields.push(("chaos", Json::str(c)));
        }
        submit_body(fields)
    };
    let run_one = |body: String| -> Option<Seen> {
        let seen = Mutex::new(Vec::new());
        let sent = Instant::now();
        let (status, reply) = request(&service.addr, "POST", "/submit", &body).ok()?;
        let accepted = Instant::now();
        if status != 200 {
            return None;
        }
        seen.lock().ok()?.push(Seen {
            id: reply.get("id").and_then(Json::as_u64)?,
            due: Some(sent),
            sent: Some(sent),
            accepted: Some(accepted),
            submit: accepted - sent,
            ..Seen::default()
        });
        let done = AtomicBool::new(true);
        poll_loop(&service.addr, &seen, &done);
        seen.into_inner().ok()?.pop()
    };
    let control = run_one(body(None));
    let stalled = run_one(body(Some(&format!("stall:{STALL_MS}"))));
    service.stop();
    let (Some(control), Some(stalled)) = (control, stalled) else {
        out.fail_check("stall self-check: a job did not complete");
        return;
    };
    let queue = |s: &Seen| -> Duration {
        match (s.accepted, s.terminal) {
            (Some(a), Some(t)) => t.saturating_duration_since(a).saturating_sub(s.exec()),
            _ => Duration::MAX,
        }
    };
    let extra_exec = ms(stalled.exec().saturating_sub(control.exec()));
    let extra_queue = ms(queue(&stalled).saturating_sub(queue(&control)));
    let extra_http = ms(stalled.submit.saturating_sub(control.submit));
    out.note(
        "stall_self_check",
        Json::Obj(vec![
            ("stall_ms".into(), Json::Num(STALL_MS as f64)),
            ("extra_exec_ms".into(), Json::Num(extra_exec)),
            ("extra_queue_ms".into(), Json::Num(extra_queue)),
            ("extra_submit_ms".into(), Json::Num(extra_http)),
        ]),
    );
    let stall = STALL_MS as f64;
    if extra_exec < 0.8 * stall || extra_queue > 0.2 * stall || extra_http > 0.2 * stall {
        out.fail_check(format!(
            "stall self-check: a {STALL_MS} ms stall added {extra_exec:.0} ms to exec, \
             {extra_queue:.0} ms to queue wait, {extra_http:.0} ms to submit"
        ));
    } else {
        out.attempted += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_runs_from_the_due_time_not_the_send_time() {
        let due = Instant::now();
        let s = Seen {
            due: Some(due),
            // The generator ran 40 ms late; the job finished 100 ms after
            // it was due.
            sent: Some(due + Duration::from_millis(40)),
            terminal: Some(due + Duration::from_millis(100)),
            ..Seen::default()
        };
        assert_eq!(s.latency(), Some(Duration::from_millis(100)));
        assert_eq!(Seen::default().latency(), None);
    }

    #[test]
    fn plans_are_seeded_and_open_loop() {
        let a = plan(5, 3.0, RATE);
        let b = plan(5, 3.0, RATE);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.body == y.body && x.due == y.due));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.iter().all(|j| j.due < Duration::from_secs(3)));
        let c = plan(6, 3.0, RATE);
        assert!(a.len() != c.len() || a.iter().zip(&c).any(|(x, y)| x.due != y.due));
    }

    #[test]
    fn lineages_start_with_a_keyed_submit_then_patch() {
        let jobs = plan(1, 20.0, RATE);
        let lineage: Vec<&Planned> = jobs.iter().filter(|j| j.kind == Kind::Lineage).collect();
        assert!(lineage.len() >= 4);
        assert_eq!(lineage[0].path, "/submit");
        assert!(lineage[0].body.contains("\"job_key\""));
        assert!(lineage.iter().skip(2).all(|j| j.path == "/patch"));
    }

    #[test]
    fn exec_prefers_the_observed_running_span() {
        let t = Instant::now();
        let mut s = Seen {
            running: Some(t),
            terminal: Some(t + Duration::from_millis(310)),
            outcome: Some(Json::parse("{\"wall_ms\": 4}").unwrap()),
            ..Seen::default()
        };
        assert_eq!(s.exec(), Duration::from_millis(310));
        s.running = None;
        assert_eq!(s.exec(), Duration::from_millis(4));
    }

    #[test]
    fn generator_lag_is_measured_against_the_due_time() {
        // A generator that sends 25 ms after the due time records 25 ms
        // of lag; one that is early (it never is, it sleeps) records none.
        let due = Instant::now();
        let late = due + Duration::from_millis(25);
        assert_eq!(lag(due, late), Duration::from_millis(25));
        assert_eq!(lag(late, due), Duration::ZERO);
        // The job's latency still runs from the due time, lag included.
        let s = Seen {
            due: Some(due),
            sent: Some(late),
            terminal: Some(late + Duration::from_millis(10)),
            ..Seen::default()
        };
        assert_eq!(s.latency(), Some(Duration::from_millis(35)));
    }

    #[test]
    fn the_longest_run_at_the_highest_rate_has_edits_for_every_patch() {
        let seconds = crate::MAX_SECONDS;
        let jobs = plan(3, seconds, MAX_RATE);
        assert_eq!(jobs.len(), (MAX_RATE * seconds) as usize);
        let patches = jobs.iter().filter(|j| j.path == "/patch").count();
        assert_eq!(
            patches * EDITS_PER_PATCH,
            LINEAGES.len() * edits_per_lineage(jobs.len())
        );
        assert!(jobs
            .iter()
            .all(|j| j.due < Duration::from_secs_f64(seconds)));
    }
}

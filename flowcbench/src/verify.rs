//! `verify`: closed loop, one thread. Designs from every backend are built
//! in set-up; the measured loop checks them, round after round, on fresh
//! seeded vectors against `simulate64`. Evaluation does nearly all the
//! work and labeling none — the opposite of `sweep`. Monolithic, tiled
//! and NOR evaluation are separate paths, so each has its own designs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use flowc_baselines::{partitioned_with_tile, Backend, MappedDesign, MappingBackend, SynthesisCtx};
use flowc_compact::Config;
use flowc_conform::Rng;
use flowc_logic::{bench_suite, Network};
use flowc_report::Json;

use crate::check::{check_design, Design, EvalPath, Vectors};
use crate::outcome::{ms, repeated_setup, Closed, Outcome, Scaling};
use crate::trace::Tracer;
use crate::Args;

/// (backend, circuit): every backend on circuits where it builds quickly
/// (`partitioned:<n>` tiles into n × n arrays).
pub const DESIGNS: [(&str, &str); 11] = [
    ("compact", "ctrl"),
    ("compact", "int2float"),
    ("compact", "dec"),
    ("compact", "priority"),
    ("staircase", "ctrl"),
    ("staircase", "int2float"),
    ("magic-nor", "ctrl"),
    ("magic-nor", "int2float"),
    ("partitioned:16", "ctrl"),
    ("partitioned:12", "ctrl"),
    ("robdd-diagonal", "ctrl"),
];
const GAMMA: f64 = 0.5;
/// Vectors per design check.
const VECTORS: usize = 1024;
/// Samples for the backend's own `MappingBackend::verify` at set-up.
const BACKEND_VERIFY_SAMPLES: usize = 64;
/// A design check counts toward goodput within this wall.
const LATENCY_LIMIT: Duration = Duration::from_secs(1);

struct Built {
    backend: Backend,
    network: Network,
    design: Result<MappedDesign, String>,
    synth: Duration,
}

/// `name` or `partitioned:<tile>` (a square tile box).
fn parse_backend(spec: &str) -> Backend {
    match spec.split_once(':') {
        Some(("partitioned", tile)) => {
            let tile = tile.parse().expect("tile size");
            partitioned_with_tile(tile, tile)
        }
        _ => Backend::parse(spec).expect("known backend"),
    }
}

fn build() -> Vec<Built> {
    DESIGNS
        .iter()
        .map(|(backend, circuit)| {
            let backend = parse_backend(backend);
            let network = bench_suite::by_name(circuit)
                .expect("verify circuit is registered")
                .network()
                .expect("verify circuit builds");
            let t = Instant::now();
            let design = backend
                .synthesize(&network, &SynthesisCtx::new(Config::gamma(GAMMA)))
                .map_err(|e| e.to_string())
                .and_then(|d| {
                    backend
                        .verify(&d, &network, BACKEND_VERIFY_SAMPLES)
                        .map(|()| d)
                });
            Built {
                backend,
                network,
                design,
                synth: t.elapsed(),
            }
        })
        .collect()
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer, out: &mut Outcome) {
    let (built, setup) = repeated_setup(build, drop);
    let mut designs = Vec::new();
    let mut shape = (0usize, 0usize);
    let mut gaps = Vec::new();
    for b in &built {
        out.attempted += 1;
        match &b.design {
            Ok(d) => {
                shape.0 += d.metrics.semiperimeter;
                shape.1 += d.metrics.max_dimension;
                if let Some(r) = &d.compact {
                    gaps.push(r.relative_gap);
                }
                designs.push((d, &b.network, b.backend.name()));
            }
            Err(e) => out.fail(format!("{} on {}: {e}", b.backend.name(), b.network.name())),
        }
    }
    if args.trace {
        let mut synth: BTreeMap<&str, (Duration, usize)> = BTreeMap::new();
        for b in &built {
            let e = synth.entry(b.backend.name()).or_default();
            e.0 += b.synth;
            e.1 += 1;
        }
        for (name, (wall, n)) in synth {
            out.layer(&format!("backend.{name}.synth_ms"), ms(wall) / n as f64);
        }
    }
    if designs.is_empty() {
        return;
    }
    if !args.trace {
        let mut closed = measure(
            &designs,
            args,
            args.seconds,
            tracer,
            out,
            &mut Layers::default(),
        );
        closed.s_sum = shape.0;
        closed.d_sum = shape.1;
        closed.gaps = gaps;
        closed.fill(out, &setup);
        return;
    }
    let half = args.seconds / 2.0;
    let plain = measure(
        &designs,
        args,
        half,
        &mut Tracer::new(false),
        out,
        &mut Layers::default(),
    );
    let mut layers = Layers::default();
    let traced = measure(&designs, args, half, tracer, out, &mut layers);
    out.layer(
        "trace.overhead_frac",
        plain.designs_per_s() / traced.designs_per_s().max(1e-12) - 1.0,
    );
    layers.fill(out);
}

#[derive(Default)]
struct Layers {
    sim: Duration,
    checks: usize,
    eval: BTreeMap<EvalPath, (Duration, usize)>,
}

impl Layers {
    fn fill(&self, out: &mut Outcome) {
        let n = self.checks.max(1) as f64;
        out.layer("logic.sim_ms", ms(self.sim) / n);
        let mut total = self.sim;
        for (path, (wall, vectors)) in &self.eval {
            total += *wall;
            out.layer(
                &format!("eval.{}.vectors_per_s", path.name()),
                *vectors as f64 / wall.as_secs_f64().max(1e-9),
            );
        }
        out.layer("verify.ms", ms(total) / n);
    }
}

/// Whole rounds over every design until `seconds` have elapsed.
fn measure(
    designs: &[(&MappedDesign, &Network, &'static str)],
    args: &Args,
    seconds: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
    layers: &mut Layers,
) -> Closed {
    let mut rng = Rng::new(args.seed ^ 0x5EED_0E7A);
    let mut closed = Closed::default();
    // Every design repeats hundreds of times in a run.
    closed.scaling = Scaling::Fastest;
    let start = Instant::now();
    let mut request = 0u64;
    while closed.completed() == 0 || start.elapsed().as_secs_f64() < seconds {
        for (i, (design, network, backend)) in designs.iter().enumerate() {
            request += 1;
            out.attempted += 1;
            closed.calib.tick();
            let t0 = Instant::now();
            let vectors = Vectors::seeded(&mut rng, network.num_inputs(), VECTORS);
            let check = check_design(Design::Mapped(design), network, &vectors);
            let t1 = Instant::now();
            closed.op(i, t0, t1);
            match check {
                Ok(c) => {
                    closed.check(i, c.vectors, t0, t1);
                    if t1 - t0 <= LATENCY_LIMIT {
                        closed.good += 1;
                    }
                    if tracer.enabled() {
                        let span = tracer.record("check", t0, t1, None, request);
                        tracer.record("sim", t0, t0 + c.sim, span, request);
                        tracer.record("eval", t0 + c.sim, t0 + c.sim + c.eval, span, request);
                        layers.sim += c.sim;
                        layers.checks += 1;
                        let e = layers.eval.entry(c.path).or_default();
                        e.0 += c.eval;
                        e.1 += c.vectors;
                    }
                }
                Err(e) => out.fail(format!("{backend} on {}: {e}", network.name())),
            }
        }
    }
    closed.finish(start);
    out.note("designs", Json::int(designs.len()));
    closed
}

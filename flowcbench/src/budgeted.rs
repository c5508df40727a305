//! `budgeted`: closed loop, one thread. Five budget-bound circuits at
//! γ = 0.5 through the `compact` backend plus `robdd-diagonal` on c432,
//! each under the same per-design wall-clock deadline (the Fig. 11
//! population). Wall time here is the deadline, so the outputs that move
//! are quality (`gap_mean`, `semiperimeter_sum`) and, for a backend that
//! ignores its deadline, `latency_tail_ms` and goodput.
//!
//! No node ceiling is used: the parallel labeling engine ignores
//! `Budget::with_max_solver_nodes`, so only a deadline bounds the work.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use flowc_baselines::{Backend, MappedDesign, MappingBackend, SynthesisCtx};
use flowc_budget::Budget;
use flowc_compact::Config;
use flowc_conform::Rng;
use flowc_logic::{bench_suite, Network};
use flowc_report::Json;

use crate::check::{check_design, Design, Vectors};
use crate::label::{LabelFacts, LabelStats};
use crate::outcome::{ms, repeated_setup, Closed, Outcome, Scaling};
use crate::trace::Tracer;
use crate::Args;

/// (backend, circuit), in pass order.
pub const DESIGNS: [(&str, &str); 6] = [
    ("compact", "router"),
    ("compact", "cavlc"),
    ("compact", "i2c"),
    ("compact", "c880"),
    ("compact", "c432"),
    ("robdd-diagonal", "c432"),
];
/// The per-design wall-clock deadline.
pub const DEADLINE: Duration = Duration::from_secs(2);
const GAMMA: f64 = 0.5;
/// A design is late (out of goodput) past this share of its deadline.
const LATE_FACTOR: f64 = 1.25;
/// Vectors checked per design, in rounds (each round is one check sample).
const VECTORS: usize = 65_536;
const ROUND: usize = 1_024;
/// Designs checked like the others but left out of `vectors_per_s`.
/// c880's `compact` crossbar is 1164 × 2022, and every 64 vectors its
/// check scans that dense device matrix (about 38 MB), which sits at the
/// edge of what the shared last-level cache holds for this process: the
/// same design checked on the same vectors ran 7–40 ms per 256 vectors as
/// other tenants' load moved, far beyond what the calibration unit sees.
/// Evaluation speed is `verify`'s metric; here it would only time the
/// neighbours.
const UNTIMED_CHECKS: [(&str, &str); 1] = [("compact", "c880")];

struct Setup {
    jobs: Vec<(Backend, Network)>,
}

fn build() -> Setup {
    let jobs = DESIGNS
        .iter()
        .map(|(backend, circuit)| {
            let backend = Backend::parse(backend).expect("known backend");
            let network = bench_suite::by_name(circuit)
                .expect("budgeted circuit is registered")
                .network()
                .expect("budgeted circuit builds");
            (backend, network)
        })
        .collect();
    Setup { jobs }
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer, out: &mut Outcome) {
    let (setup, walls) = repeated_setup(build, drop);
    out.note("deadline_ms", Json::Num(ms(DEADLINE)));
    if !args.trace {
        let phase = measure(
            &setup,
            args,
            args.seconds,
            tracer,
            out,
            &mut Layers::default(),
        );
        phase.fill(out, &walls);
        return;
    }
    let half = args.seconds / 2.0;
    let plain = measure(
        &setup,
        args,
        half,
        &mut Tracer::new(false),
        out,
        &mut Layers::default(),
    );
    let mut layers = Layers::default();
    let traced = measure(&setup, args, half, tracer, out, &mut layers);
    out.layer(
        "trace.overhead_frac",
        plain.designs_per_s() / traced.designs_per_s().max(1e-12) - 1.0,
    );
    layers.fill(out);
}

#[derive(Default)]
struct Layers {
    synth: BTreeMap<&'static str, (Duration, usize)>,
    worst_overrun: Duration,
    sim: Duration,
    eval: Duration,
    vectors: usize,
    checks: usize,
    label: LabelStats,
}

impl Layers {
    fn fill(&self, out: &mut Outcome) {
        for (name, (wall, n)) in &self.synth {
            out.layer(
                &format!("backend.{name}.synth_ms"),
                ms(*wall) / (*n).max(1) as f64,
            );
        }
        out.layer("budget.overrun_ms", ms(self.worst_overrun));
        let n = self.checks.max(1) as f64;
        out.layer("logic.sim_ms", ms(self.sim) / n);
        out.layer(
            "eval.monolithic.vectors_per_s",
            self.vectors as f64 / self.eval.as_secs_f64().max(1e-9),
        );
        out.layer("verify.ms", ms(self.sim + self.eval) / n);
        self.label.fill(out);
    }
}

fn measure(
    setup: &Setup,
    args: &Args,
    seconds: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
    layers: &mut Layers,
) -> Closed {
    let mut rng = Rng::new(args.seed ^ 0xB0D6_E7ED);
    let mut closed = Closed::default();
    closed.deadline = Some((DEADLINE, LATE_FACTOR));
    // Each design's check repeats 64 times a pass; the one compute-bound
    // design (a backend past its deadline) runs for seconds with no sample
    // inside it, and the samples around it span well under a second.
    closed.scaling = Scaling::Fastest;
    let mut shapes: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    let mut gaps: BTreeMap<usize, f64> = BTreeMap::new();
    let mut overruns: BTreeMap<usize, f64> = BTreeMap::new();
    let start = Instant::now();
    let mut request = 0u64;
    while closed.completed() == 0 || start.elapsed().as_secs_f64() < seconds {
        for (i, (backend, network)) in setup.jobs.iter().enumerate() {
            request += 1;
            out.attempted += 1;
            let ctx = SynthesisCtx::new(Config::gamma(GAMMA))
                .with_budget(Budget::unlimited().with_deadline(DEADLINE));
            closed.calib.tick();
            let span = tracer.open("design", None, request);
            let t0 = Instant::now();
            let design = backend.synthesize(network, &ctx);
            let t1 = Instant::now();
            tracer.record("backend.synth", t0, t1, span, request);
            // The design's latency is its synthesis: the deadline bounds
            // that, and the check below is the benchmark's own work.
            let synth = t1 - t0;
            closed.op(i, t0, t1);
            let design = match design {
                Ok(d) => d,
                Err(e) => {
                    tracer.close(span);
                    out.fail(format!("{} on {}: {e}", backend.name(), network.name()));
                    continue;
                }
            };
            let timed = !UNTIMED_CHECKS.contains(&DESIGNS[i]);
            let check = check_rounds(&design, network, &mut rng, i, timed, &mut closed, layers);
            tracer.record("verify", t1, Instant::now(), span, request);
            tracer.close(span);
            let overrun = synth.saturating_sub(DEADLINE);
            overruns.insert(i, ms(overrun));
            let entry = layers.synth.entry(backend.name()).or_default();
            entry.0 += synth;
            entry.1 += 1;
            layers.worst_overrun = layers.worst_overrun.max(overrun);
            match check {
                Ok(()) => {
                    if synth.as_secs_f64() <= DEADLINE.as_secs_f64() * LATE_FACTOR {
                        closed.good += 1;
                    }
                }
                Err(e) => out.fail(format!("{} on {}: {e}", backend.name(), network.name())),
            }
            let m = &design.metrics;
            shapes
                .entry(i)
                .or_insert((m.semiperimeter, m.max_dimension));
            if let Some(r) = &design.compact {
                gaps.entry(i).or_insert(r.relative_gap);
                if let Some(d) = &r.degradation {
                    layers.label.add(LabelFacts {
                        wall: d.attempts.iter().map(|a| a.wall).sum(),
                        nodes: d.solver_nodes,
                        from_cache: d.label_cached,
                        warm_start: d.warm_start,
                        rung: d.rung.name(),
                        trace: r.trace.as_ref(),
                    });
                }
            }
        }
    }
    closed.finish(start);
    closed.s_sum = shapes.values().map(|s| s.0).sum();
    closed.d_sum = shapes.values().map(|s| s.1).sum();
    closed.gaps = gaps.into_values().collect();
    out.note(
        "overrun_ms_by_design",
        Json::Obj(
            overruns
                .iter()
                .map(|(i, o)| {
                    (
                        format!("{}:{}", DESIGNS[*i].0, DESIGNS[*i].1),
                        Json::Num(*o),
                    )
                })
                .collect(),
        ),
    );
    closed
}

/// Checks `design` on `VECTORS` fresh seeded vectors, `ROUND` at a time,
/// recording each round as a check sample of design `i` if it is `timed`.
fn check_rounds(
    design: &MappedDesign,
    network: &Network,
    rng: &mut Rng,
    i: usize,
    timed: bool,
    closed: &mut Closed,
    layers: &mut Layers,
) -> Result<(), String> {
    for _ in 0..VECTORS / ROUND {
        let vectors = Vectors::seeded(rng, network.num_inputs(), ROUND);
        closed.calib.tick();
        let t = Instant::now();
        let c = check_design(Design::Mapped(design), network, &vectors)?;
        if timed {
            closed.check(i, c.vectors, t, Instant::now());
        }
        layers.sim += c.sim;
        layers.eval += c.eval;
        layers.vectors += c.vectors;
        layers.checks += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untimed_checks_name_designs_of_the_pass() {
        for design in UNTIMED_CHECKS {
            assert!(DESIGNS.contains(&design), "{design:?}");
        }
    }
}

//! `sweep`: closed loop, one thread. The paper's 5-point γ sweep over
//! seven circuits, one `Session` per circuit per pass, every design
//! checked against `simulate64`. This is how the library is used (Table
//! II, Fig. 9, `flowc --gamma-sweep`); labeling dominates the wall.
//!
//! The untraced phase calls the library entry point `synthesize_in`. The
//! traced phase drives the same stages pass by pass (`flowc_compact::pass`)
//! with a span around each, and must ship the same S and D.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flowc_compact::pass::{BddBuildPass, GraphExtractPass, LadderPass, NormalizePass, Pass};
use flowc_compact::session::graph_key;
use flowc_compact::{synthesize_in, Config, Session, SessionConfig, StageKind};
use flowc_conform::Rng;
use flowc_logic::{bench_suite, Network};
use flowc_report::Json;

use crate::check::{check_design, Design, Vectors};
use crate::label::{LabelFacts, LabelStats};
use crate::outcome::{ms, repeated_setup, Closed, Outcome};
use crate::trace::Tracer;
use crate::Args;

/// The circuits, in pass order.
pub const CIRCUITS: [&str; 7] = [
    "ctrl",
    "int2float",
    "dec",
    "priority",
    "c499",
    "c1355",
    "c1908",
];
/// The paper's γ points, descending (each point warm-starts the next).
pub const GAMMAS: [f64; 5] = [1.0, 0.75, 0.5, 0.25, 0.0];
/// Vectors checked per design.
const VECTORS: usize = 1024;
/// A design counts toward goodput when it finishes within the labeling
/// time limit `Config::gamma` gives it.
const LATENCY_LIMIT: Duration = Duration::from_secs(30);
/// A traced design's spans must cover its wall to within this share
/// (or this absolute slack, for sub-millisecond designs).
const UNATTRIBUTED_MAX: f64 = 0.05;
const UNATTRIBUTED_SLACK_US: u64 = 100;

/// One design's shape, keyed by (circuit, γ index).
type Shapes = BTreeMap<(usize, usize), (usize, usize)>;

struct Phase {
    closed: Closed,
    shapes: Shapes,
}

fn build_networks() -> Vec<Arc<Network>> {
    CIRCUITS
        .iter()
        .map(|name| {
            let bench = bench_suite::by_name(name).expect("sweep circuit is registered");
            Arc::new(bench.network().expect("sweep circuit builds"))
        })
        .collect()
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer, out: &mut Outcome) {
    let (networks, setup) = repeated_setup(build_networks, drop);
    out.note("designs_per_pass", Json::int(CIRCUITS.len() * GAMMAS.len()));
    if !args.trace {
        let phase = measure(
            &networks,
            args,
            args.seconds,
            tracer,
            out,
            &mut LayerSums::default(),
        );
        phase.closed.fill(out, &setup);
        return;
    }
    // Traced run: an untraced half, then a traced half over the same
    // inputs; the two must ship the same designs.
    let half = args.seconds / 2.0;
    let mut untraced = Tracer::new(false);
    let plain = measure(
        &networks,
        args,
        half,
        &mut untraced,
        out,
        &mut LayerSums::default(),
    );
    let mut layers = LayerSums::default();
    let traced = measure(&networks, args, half, tracer, out, &mut layers);
    for (key, shape) in &traced.shapes {
        if let Some(expected) = plain.shapes.get(key) {
            if shape != expected {
                out.fail_check(format!(
                    "{} γ={}: pass-by-pass path shipped (S, D) = {shape:?}, synthesize_in {expected:?}",
                    CIRCUITS[key.0], GAMMAS[key.1]
                ));
            }
        }
    }
    out.layer(
        "trace.overhead_frac",
        plain.closed.designs_per_s() / traced.closed.designs_per_s().max(1e-12) - 1.0,
    );
    layers.fill(out, tracer);
}

/// Per-layer sums of the traced phase.
#[derive(Default)]
struct LayerSums {
    designs: usize,
    bdd_nodes: usize,
    graph_nodes: usize,
    devices: usize,
    sim: Duration,
    eval: Duration,
    vectors: usize,
    label: LabelStats,
}

impl LayerSums {
    fn fill(&self, out: &mut Outcome, tracer: &Tracer) {
        let n = self.designs.max(1) as f64;
        let own = tracer.self_times();
        let per = |name: &str| own.get(name).map_or(0.0, |d| ms(*d) / n);
        out.layer("logic.normalize_ms", per("normalize"));
        out.layer("bdd.build_ms", per("bdd"));
        out.layer("graph.extract_ms", per("graph"));
        out.layer("map.ms", per("map"));
        out.layer("verify.ms", per("verify"));
        out.layer("bdd.nodes", self.bdd_nodes as f64 / n);
        out.layer("graph.nodes", self.graph_nodes as f64 / n);
        out.layer("map.devices", self.devices as f64 / n);
        out.layer("logic.sim_ms", ms(self.sim) / n);
        out.layer(
            "eval.monolithic.vectors_per_s",
            self.vectors as f64 / self.eval.as_secs_f64().max(1e-9),
        );
        self.label.fill(out);
        let shares = tracer.unattributed_shares("design");
        let worst = shares.iter().map(|s| s.1).fold(0.0, f64::max);
        out.layer("selfcheck.unattributed_frac", worst);
        for (request, share, own_us) in shares {
            if share > UNATTRIBUTED_MAX && own_us > UNATTRIBUTED_SLACK_US {
                out.fail_check(format!(
                    "design {request}: layer spans cover only {:.1}% of its wall",
                    100.0 * (1.0 - share)
                ));
            }
        }
    }
}

/// Whole passes until `seconds` have elapsed (at least one).
fn measure(
    networks: &[Arc<Network>],
    args: &Args,
    seconds: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
    layers: &mut LayerSums,
) -> Phase {
    let mut rng = Rng::new(args.seed);
    let mut phase = Phase {
        closed: Closed::default(),
        shapes: Shapes::new(),
    };
    let mut gaps: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let start = Instant::now();
    let mut request = 0u64;
    while phase.closed.completed() == 0 || start.elapsed().as_secs_f64() < seconds {
        for (c, network) in networks.iter().enumerate() {
            let session = Session::new(SessionConfig {
                warm_labels: true,
                ..SessionConfig::default()
            });
            for (g, &gamma) in GAMMAS.iter().enumerate() {
                request += 1;
                out.attempted += 1;
                let vectors = Vectors::seeded(&mut rng, network.num_inputs(), VECTORS);
                let config = Config::gamma(gamma);
                phase.closed.calib.tick();
                let t0 = Instant::now();
                let design = if tracer.enabled() {
                    traced_design(
                        &session, network, &config, &vectors, tracer, request, layers,
                    )
                } else {
                    plain_design(&session, network, &config, &vectors)
                };
                let t1 = Instant::now();
                let wall = t1 - t0;
                let closed = &mut phase.closed;
                let key = c * GAMMAS.len() + g;
                closed.op(key, t0, t1);
                match design {
                    Ok(d) => {
                        // The check is the design's last step.
                        closed.check(key, d.vectors, t1 - d.check_wall, t1);
                        if wall <= LATENCY_LIMIT {
                            closed.good += 1;
                        }
                        phase.shapes.entry((c, g)).or_insert((d.s, d.d));
                        gaps.entry((c, g)).or_insert(d.gap);
                    }
                    Err(e) => out.fail(format!("{} γ={gamma}: {e}", CIRCUITS[c])),
                }
            }
        }
    }
    phase.closed.finish(start);
    phase.closed.s_sum = phase.shapes.values().map(|s| s.0).sum();
    phase.closed.d_sum = phase.shapes.values().map(|s| s.1).sum();
    phase.closed.gaps = gaps.into_values().collect();
    phase
}

struct DesignResult {
    s: usize,
    d: usize,
    gap: f64,
    vectors: usize,
    check_wall: Duration,
}

fn plain_design(
    session: &Session,
    network: &Network,
    config: &Config,
    vectors: &Vectors,
) -> Result<DesignResult, String> {
    let r = synthesize_in(session, network, config).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let check = check_design(Design::Crossbar(&r.crossbar), network, vectors)?;
    Ok(DesignResult {
        s: r.stats.semiperimeter,
        d: r.stats.max_dimension,
        gap: r.relative_gap,
        vectors: check.vectors,
        check_wall: t.elapsed(),
    })
}

/// The same stages as `synthesize_in`, pass by pass, with a span each.
fn traced_design(
    session: &Session,
    network: &Network,
    config: &Config,
    vectors: &Vectors,
    tracer: &mut Tracer,
    request: u64,
    layers: &mut LayerSums,
) -> Result<DesignResult, String> {
    let err = |e: flowc_compact::CompactError| e.to_string();
    let before = session.trace().records.len();
    let design = tracer.open("design", None, request);

    let t = Instant::now();
    let norm = NormalizePass.run(session, network).map_err(err)?;
    tracer.record("normalize", t, Instant::now(), design, request);

    let t = Instant::now();
    let bdd = BddBuildPass
        .run(session, (network, config.var_order.as_deref()))
        .map_err(err)?;
    tracer.record("bdd", t, Instant::now(), design, request);

    let t = Instant::now();
    let graph = GraphExtractPass
        .run(session, (&bdd.bdds, bdd.key))
        .map_err(err)?;
    tracer.record("graph", t, Instant::now(), design, request);

    let t = Instant::now();
    let ladder = LadderPass { config }
        .run(
            session,
            (
                &*graph,
                graph_key(bdd.key),
                norm.output_names.as_slice(),
                bdd.lift_trigger,
            ),
        )
        .map_err(err)?;
    let t_end = Instant::now();
    // The ladder measures its own labeling and mapping walls; they become
    // child spans, and the rest stays the ladder's self time.
    let span = tracer.record("ladder", t, t_end, design, request);
    let label_end = t + ladder.label_wall;
    tracer.record("label", t, label_end, span, request);
    tracer.record("map", label_end, label_end + ladder.map_wall, span, request);

    let t = Instant::now();
    let check = check_design(Design::Crossbar(&ladder.crossbar), network, vectors);
    let check_wall = t.elapsed();
    tracer.record("verify", t, Instant::now(), design, request);
    tracer.close(design);
    let check = check?;

    let items = |kind: StageKind| {
        session.trace().records[before..]
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.items)
            .sum::<usize>()
    };
    layers.designs += 1;
    layers.bdd_nodes += items(StageKind::BddBuild);
    layers.graph_nodes += graph.num_nodes();
    layers.devices += ladder.metrics.active_devices;
    layers.sim += check.sim;
    layers.eval += check.eval;
    layers.vectors += check.vectors;
    layers.label.add(LabelFacts {
        wall: ladder.label_wall,
        nodes: ladder.solver_nodes,
        from_cache: ladder.from_cache,
        warm_start: ladder.warm_start,
        rung: ladder.rung.name(),
        trace: ladder.trace.as_ref(),
    });
    let stats = ladder.labeling.stats();
    Ok(DesignResult {
        s: stats.semiperimeter,
        d: stats.max_dimension,
        gap: ladder.relative_gap,
        vectors: check.vectors,
        check_wall,
    })
}

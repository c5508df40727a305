//! What a workload hands back: attempted/failed counts, the end-to-end
//! metrics (from an untraced run) or the per-layer metrics (from a traced
//! run), and the facts a reader needs to interpret them.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use flowc_report::Json;

use crate::calib::Calibration;
use crate::stats;

/// The end-to-end metrics, with units, in output order. Every workload
/// reports every one of them (see the README for each workload's reading).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("designs_per_s", "1/s"),
    ("vectors_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("semiperimeter_sum", "wires"),
    ("max_dimension_sum", "wires"),
    ("gap_mean", "ratio"),
    ("correct_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, with units. A layer the workload does not run
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("logic.normalize_ms", "ms"),
    ("bdd.build_ms", "ms"),
    ("bdd.nodes", "count"),
    ("graph.extract_ms", "ms"),
    ("graph.nodes", "count"),
    ("map.ms", "ms"),
    ("map.devices", "count"),
    ("label.solve_ms", "ms"),
    ("label.bnb_nodes", "count"),
    ("label.nodes_per_s", "1/s"),
    ("label.cache_hit_frac", "ratio"),
    ("label.warm_accept_frac", "ratio"),
    ("label.rung_shipped.exact-mip", "ratio"),
    ("label.rung_shipped.exact-oct", "ratio"),
    ("label.rung_shipped.anytime-mip", "ratio"),
    ("label.rung_shipped.heuristic-oct", "ratio"),
    ("label.rung_shipped.all-vh", "ratio"),
    ("label.final_gap", "ratio"),
    ("label.last_incumbent_ms", "ms"),
    ("budget.overrun_ms", "ms"),
    ("verify.ms", "ms"),
    ("logic.sim_ms", "ms"),
    ("eval.monolithic.vectors_per_s", "1/s"),
    ("eval.tiled.vectors_per_s", "1/s"),
    ("eval.nor.vectors_per_s", "1/s"),
    ("backend.compact.synth_ms", "ms"),
    ("backend.staircase.synth_ms", "ms"),
    ("backend.robdd-diagonal.synth_ms", "ms"),
    ("backend.magic-nor.synth_ms", "ms"),
    ("backend.partitioned.synth_ms", "ms"),
    ("http.submit_ms", "ms"),
    ("http.poll_ms", "ms"),
    ("admission.degraded_frac", "ratio"),
    ("admission.shed_422_frac", "ratio"),
    ("admission.shed_429_frac", "ratio"),
    ("admission.shed_503_frac", "ratio"),
    ("queue.wait_ms", "ms"),
    ("exec.wall_ms", "ms"),
    ("cache.hit_frac", "ratio"),
    ("journal.records", "count"),
    ("incremental.hit_frac", "ratio"),
    ("incremental.repair_frac", "ratio"),
    ("incremental.warm_frac", "ratio"),
    ("incremental.cold_frac", "ratio"),
    ("generator.lag_ms", "ms"),
    ("selfcheck.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Failure messages kept verbatim (the count is always exact).
const KEPT_FAILURES: usize = 20;

/// A workload's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (designs, design checks, or jobs).
    pub attempted: u64,
    /// Operations that failed, were refused, wrong, or missing.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// End-to-end metric values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name.
    pub layers: BTreeMap<String, f64>,
    /// Interpretation notes (tail percentile, sample counts, defects seen).
    pub info: Vec<(String, Json)>,
}

impl Outcome {
    /// Counts one failed operation (attempts are counted separately).
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(message.into());
        }
    }

    /// Counts a failed correctness check that is not an operation of its
    /// own (a self-check or a cross-run comparison): one attempt, one
    /// failure.
    pub fn fail_check(&mut self, message: impl Into<String>) {
        self.attempted += 1;
        self.fail(message);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Sets an interpretation note (a later phase replaces an earlier one).
    pub fn note(&mut self, key: &str, value: Json) {
        match self.info.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => self.info.push((key.to_string(), value)),
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Set-ups per run: at least this many, and more until they have taken
/// `SETUP_MIN_WALL`, at most `SETUP_MAX_REPS`.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_WALL: Duration = Duration::from_secs(2);
const SETUP_MAX_REPS: usize = 5000;

/// A run's repeated set-ups.
#[derive(Debug, Default)]
pub struct SetupWalls {
    /// Each set-up's span, in order.
    reps: Vec<(Instant, Instant)>,
    /// Calibration samples, taken before each set-up.
    calib: Calibration,
}

impl SetupWalls {
    /// Set-ups of the given walls, without calibration samples.
    #[cfg(test)]
    pub fn from_walls(walls: &[f64]) -> SetupWalls {
        let t = Instant::now();
        SetupWalls {
            reps: walls
                .iter()
                .map(|w| (t, t + Duration::from_secs_f64(*w)))
                .collect(),
            calib: Calibration::default(),
        }
    }

    /// The fastest set-up at the reference host speed, seconds
    /// (`setup_s`). Like every other repeated timing here it is the
    /// fastest repeat, scaled (see [`stats::Fastest`] and
    /// [`crate::calib`]): on a shared host the median of a run's set-ups
    /// moves with the neighbours' load far more than the fastest.
    pub fn fastest_s(&self) -> f64 {
        self.reps
            .iter()
            .map(|&(t0, t1)| self.calib.scaled(t0, t1).as_secs_f64())
            .fold(f64::INFINITY, f64::min)
    }

    fn raw_s(&self) -> Vec<f64> {
        self.reps
            .iter()
            .map(|&(t0, t1)| (t1 - t0).as_secs_f64())
            .collect()
    }

    /// The record's description of the set-ups (raw walls).
    pub fn note(&self) -> Json {
        let raw = self.raw_s();
        Json::Obj(vec![
            ("reps".into(), Json::int(raw.len())),
            (
                "median_s".into(),
                Json::Num(stats::median(&raw).unwrap_or(0.0)),
            ),
            (
                "fastest_s".into(),
                Json::Num(raw.iter().copied().fold(f64::INFINITY, f64::min)),
            ),
        ])
    }
}

/// Runs `setup` repeatedly and returns the last product with the
/// set-ups' spans. Each earlier product is torn down with `teardown`
/// (outside the timing) before the next set-up, so every rep builds from
/// scratch.
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, SetupWalls) {
    let mut walls = SetupWalls::default();
    let started = Instant::now();
    let mut last: Option<T> = None;
    while walls.reps.len() < SETUP_MIN_REPS
        || (started.elapsed() < SETUP_MIN_WALL && walls.reps.len() < SETUP_MAX_REPS)
    {
        if let Some(product) = last.take() {
            teardown(product);
        }
        walls.calib.tick();
        let t0 = Instant::now();
        last = Some(setup());
        walls.reps.push((t0, Instant::now()));
    }
    walls.calib.tick();
    let product = last.expect("at least one rep");
    (product, walls)
}

/// How a closed-loop phase scales a compute-bound wall to the reference
/// host speed (see [`crate::calib`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum Scaling {
    /// By the calibration samples around the operation. For designs that
    /// repeat a few times in a run, so that a slow spell can cover every
    /// repeat of one of them.
    #[default]
    Local,
    /// By the phase's fastest calibration sample. For designs that repeat
    /// hundreds of times through the run: each one's fastest pass then
    /// falls in the run's fastest spell, as does the unit's fastest
    /// sample. The fastest of hundreds of locally scaled walls would
    /// instead pick the pass whose samples happened to read slowest, and
    /// follow the extremes of the unit's own jitter. Also for operations
    /// that run for seconds: no sample falls inside one, so the samples
    /// around it say little about the speed it ran at.
    Fastest,
}

/// The closed-loop summary of a measured phase.
///
/// A closed-loop workload repeats the same design set pass after pass.
/// Its timing metrics come from each design's fastest pass (see
/// [`stats::Fastest`]), with compute-bound walls scaled to the reference
/// host speed (see [`crate::calib`]); the raw wall-clock rates over the
/// whole window are kept as notes.
#[derive(Debug, Default)]
pub struct Closed {
    /// Operations: (design index in the workload's set, start, end).
    ops: Vec<(usize, Instant, Instant)>,
    /// Passing checks against simulate64: (design, vectors, start, end).
    checks: Vec<(usize, usize, Instant, Instant)>,
    /// Calibration samples, taken before each operation.
    pub calib: Calibration,
    /// The operations' deadline, if they have one. An operation that ends
    /// within `late × deadline` is paced by the deadline, not by compute,
    /// so its wall is not scaled; one that runs later ignored its deadline
    /// and is scaled like any compute. Checks are always scaled.
    pub deadline: Option<(Duration, f64)>,
    /// How compute-bound walls are scaled.
    pub scaling: Scaling,
    /// Operations that finished correct and within their latency limit.
    pub good: u64,
    /// Measured wall of the phase.
    pub elapsed: Duration,
    /// ΣS over the workload's design set.
    pub s_sum: usize,
    /// ΣD over the workload's design set.
    pub d_sum: usize,
    /// Final relative gaps of the designs that carry one.
    pub gaps: Vec<f64>,
}

impl Closed {
    /// Records one operation on design `design`, run over `[t0, t1]`.
    pub fn op(&mut self, design: usize, t0: Instant, t1: Instant) {
        self.ops.push((design, t0, t1));
    }

    /// Records one passing check of `vectors` vectors on design `design`.
    pub fn check(&mut self, design: usize, vectors: usize, t0: Instant, t1: Instant) {
        self.checks.push((design, vectors, t0, t1));
    }

    /// Operations completed.
    pub fn completed(&self) -> usize {
        self.ops.len()
    }

    /// Ends the phase that started at `start`: its wall, then one last
    /// calibration sample after the last operation.
    pub fn finish(&mut self, start: Instant) {
        self.elapsed = start.elapsed();
        self.calib.tick();
    }

    fn designs(&self) -> stats::Fastest {
        self.fastest_designs(true)
    }

    fn fastest_designs(&self, scale: bool) -> stats::Fastest {
        let mut f = stats::Fastest::default();
        for &(design, t0, t1) in &self.ops {
            let paced = self
                .deadline
                .is_some_and(|(d, late)| (t1 - t0).as_secs_f64() <= d.as_secs_f64() * late);
            let wall = if scale && !paced {
                self.scaled(t0, t1)
            } else {
                t1 - t0
            };
            f.add(design, 1.0, wall);
        }
        f
    }

    fn fastest_checks(&self) -> stats::Fastest {
        let mut f = stats::Fastest::default();
        for &(design, vectors, t0, t1) in &self.checks {
            f.add(design, vectors as f64, self.scaled(t0, t1));
        }
        f
    }

    fn scaled(&self, t0: Instant, t1: Instant) -> Duration {
        match self.scaling {
            Scaling::Local => self.calib.scaled(t0, t1),
            Scaling::Fastest => self.calib.scaled_by_fastest(t1 - t0),
        }
    }

    /// Designs per second at each design's fastest pass.
    pub fn designs_per_s(&self) -> f64 {
        self.designs().rate()
    }

    /// Fills the end-to-end metrics of `out` from this phase.
    pub fn fill(&self, out: &mut Outcome, setup: &SetupWalls) {
        let setup_s = setup.fastest_s();
        out.note("setup", setup.note());
        let designs = self.designs();
        let latencies = designs.walls_ms();
        let designs_per_s = designs.rate();
        let good_frac = self.good as f64 / self.completed().max(1) as f64;
        let e = &mut out.end_to_end;
        e.insert("setup_s", setup_s);
        e.insert("designs_per_s", designs_per_s);
        e.insert("vectors_per_s", self.fastest_checks().rate());
        e.insert("jobs_per_s", designs_per_s * good_frac);
        e.insert("latency_p50_ms", stats::median(&latencies).unwrap_or(0.0));
        let tail = stats::tail(&latencies, 10);
        e.insert("latency_tail_ms", tail.map_or(0.0, |t| t.value));
        e.insert("semiperimeter_sum", self.s_sum as f64);
        e.insert("max_dimension_sum", self.d_sum as f64);
        e.insert("gap_mean", stats::mean(&self.gaps));
        let ok = out.attempted.saturating_sub(out.failed);
        e.insert("correct_frac", ok as f64 / out.attempted.max(1) as f64);
        if let Some(t) = tail {
            out.note("latency_tail", tail_note(t, latencies.len()));
        }
        let secs = self.elapsed.as_secs_f64().max(1e-9);
        let vectors: usize = self.checks.iter().map(|c| c.1).sum();
        let check_wall: Duration = self.checks.iter().map(|c| c.3 - c.2).sum();
        out.note(
            "wall_clock",
            Json::Obj(vec![
                ("seconds".into(), Json::Num(secs)),
                ("operations".into(), Json::int(self.completed())),
                (
                    "designs_per_s".into(),
                    Json::Num(self.completed() as f64 / secs),
                ),
                (
                    "vectors_per_s".into(),
                    Json::Num(vectors as f64 / check_wall.as_secs_f64().max(1e-9)),
                ),
                (
                    "fastest_designs_per_s".into(),
                    Json::Num(self.fastest_designs(false).rate()),
                ),
            ]),
        );
        out.note("calibration", self.calib.note());
    }
}

/// The record's description of a tail percentile.
pub fn tail_note(t: stats::Tail, samples: usize) -> Json {
    Json::Obj(vec![
        ("percentile".into(), Json::Num(t.percentile)),
        ("samples_beyond".into(), Json::int(t.samples_beyond)),
        ("samples".into(), Json::int(samples)),
    ])
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds of a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_reports_the_fastest_and_keeps_the_last_product() {
        let mut n = 0;
        let mut torn_down = Vec::new();
        let (last, setup) = repeated_setup(
            || {
                n += 1;
                std::thread::sleep(Duration::from_millis(210));
                n
            },
            |product| torn_down.push(product),
        );
        // 210 ms set-ups pass the 2 s floor with the tenth.
        assert_eq!(last, 10);
        assert_eq!(torn_down, (1..10).collect::<Vec<_>>());
        assert_eq!(setup.reps.len(), 10);
        assert!(setup.raw_s().iter().all(|w| *w >= 0.21));
        assert!(setup.fastest_s() > 0.0);
        // Without calibration samples the fastest raw wall stands.
        let plain = SetupWalls::from_walls(&[0.3, 0.25, 0.2]);
        assert_eq!(plain.fastest_s(), 0.2);
    }

    #[test]
    fn metric_names_follow_the_naming_rule() {
        let ok = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok(name), "{name}");
            assert!(unit.len() <= 16, "{unit}");
        }
    }

    #[test]
    fn closed_loop_summary_counts_goodput_and_correctness() {
        let mut out = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        out.fail("wrong");
        // No calibration samples: walls stand as measured.
        let mut phase = Closed {
            good: 3,
            elapsed: Duration::from_secs(2),
            s_sum: 10,
            d_sum: 6,
            gaps: vec![0.0, 0.5],
            ..Closed::default()
        };
        let t = Instant::now();
        let span = |from: u64, len: u64| {
            let t0 = t + Duration::from_micros(from);
            (t0, t0 + Duration::from_micros(len))
        };
        // Design 0 twice (fastest 1 ms), designs 1 and 2 once: 3 designs
        // in 8 ms at their fastest.
        for (design, from, len) in [
            (0, 0, 2000),
            (0, 2000, 1000),
            (1, 3000, 3000),
            (2, 6000, 4000),
        ] {
            let (t0, t1) = span(from, len);
            phase.op(design, t0, t1);
        }
        // Design 0 checked twice (100 vectors, fastest 0.5 ms), design 1
        // once (100 vectors in 1.5 ms): 200 vectors in 2 ms.
        for (design, from, len) in [(0, 0, 1000), (0, 2000, 500), (1, 3000, 1500)] {
            let (t0, t1) = span(from, len);
            phase.check(design, 100, t0, t1);
        }
        assert_eq!(phase.completed(), 4);
        assert_eq!(phase.designs().walls_ms(), vec![1.0, 3.0, 4.0]);
        phase.fill(&mut out, &SetupWalls::from_walls(&[0.3, 0.25, 0.2]));
        let e = &out.end_to_end;
        assert!((e["designs_per_s"] - 375.0).abs() < 1e-9);
        // Three of four operations were good.
        assert!((e["jobs_per_s"] - 375.0 * 0.75).abs() < 1e-9);
        assert!((e["vectors_per_s"] - 100_000.0).abs() < 1e-6);
        assert_eq!(e["latency_p50_ms"], 3.0);
        assert_eq!(e["latency_tail_ms"], 4.0);
        assert_eq!(e["gap_mean"], 0.25);
        assert_eq!(e["setup_s"], 0.2);
        assert_eq!(e["correct_frac"], 0.75);
        assert!(!out.correct());
    }

    #[test]
    fn compute_is_scaled_and_deadline_paced_walls_are_not() {
        let t = Instant::now();
        let ms = Duration::from_millis;
        // The host ran at half the reference speed throughout.
        let mut phase = Closed::default();
        phase.calib = Calibration::from_samples(vec![(t, ms(2)), (t + ms(900), ms(2))]);
        phase.deadline = Some((ms(100), 1.25));
        // Design 0 stopped at its 100 ms deadline; design 1 ignored it and
        // computed for 400 ms, 200 ms at the reference speed.
        phase.op(0, t, t + ms(100));
        phase.op(1, t + ms(100), t + ms(500));
        phase.check(0, 64, t + ms(500), t + ms(520));
        assert_eq!(phase.designs().walls_ms(), vec![100.0, 200.0]);
        assert!((phase.fastest_checks().rate() - 64.0 / 0.010).abs() < 1e-6);
        assert_eq!(phase.fastest_designs(false).walls_ms(), vec![100.0, 400.0]);
    }

    #[test]
    fn fastest_scaling_pairs_the_fastest_pass_with_the_fastest_sample() {
        let t = Instant::now();
        let ms = Duration::from_millis;
        // The unit read 2 ms around the first pass of design 0 and 4 ms
        // around its second; its fastest sample read 2 ms.
        let calib = || {
            Calibration::from_samples(vec![
                (t, ms(2)),
                (t + ms(10), ms(2)),
                (t + ms(3000), ms(4)),
                (t + ms(3030), ms(4)),
            ])
        };
        let pass = |phase: &mut Closed| {
            phase.op(0, t + ms(10), t + ms(20));
            phase.op(0, t + ms(3010), t + ms(3022));
        };
        // Locally scaled, the slower raw pass wins: 12 ms at half speed.
        let mut local = Closed::default();
        local.calib = calib();
        pass(&mut local);
        assert_eq!(local.designs().walls_ms(), vec![3.0]);
        // Scaled by the fastest sample, the fastest raw pass stands.
        let mut fastest = Closed {
            scaling: Scaling::Fastest,
            ..Closed::default()
        };
        fastest.calib = calib();
        pass(&mut fastest);
        assert_eq!(fastest.designs().walls_ms(), vec![5.0]);
    }
}

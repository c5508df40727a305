//! Labeling-layer figures gathered from what the library returns per
//! design (`LadderOutcome` on the pass path, `CompactResult` on the
//! backend path).

use std::collections::BTreeMap;
use std::time::Duration;

use flowc_milp::SolveTrace;

use crate::outcome::{ms, Outcome};

/// The rung names, in ladder order.
pub const RUNGS: [&str; 5] = [
    "exact-mip",
    "exact-oct",
    "anytime-mip",
    "heuristic-oct",
    "all-vh",
];

/// One design's labeling facts.
#[derive(Debug, Clone, Copy)]
pub struct LabelFacts<'a> {
    /// Wall spent in labeling rungs.
    pub wall: Duration,
    /// Branch & bound nodes of the shipping rung.
    pub nodes: u64,
    /// Served from the session's artifact cache.
    pub from_cache: bool,
    /// Warm-start outcome (`None`: none offered).
    pub warm_start: Option<bool>,
    /// The rung that shipped.
    pub rung: &'static str,
    /// The solver's convergence trace, when the rung produced one.
    pub trace: Option<&'a SolveTrace>,
}

/// Accumulates [`LabelFacts`] into the `label.*` metrics.
#[derive(Debug, Default)]
pub struct LabelStats {
    designs: usize,
    wall: Duration,
    nodes: u64,
    cache_hits: usize,
    warm_offered: usize,
    warm_accepted: usize,
    rungs: BTreeMap<&'static str, usize>,
    final_gaps: Vec<f64>,
    last_incumbent_ms: Vec<f64>,
}

/// When the solver last improved its incumbent, ms into the solve.
pub fn last_incumbent_ms(trace: &SolveTrace) -> Option<f64> {
    let mut best: Option<f64> = None;
    let mut at = None;
    for p in trace.points() {
        if p.best_integer.is_some() && p.best_integer != best {
            best = p.best_integer;
            at = Some(ms(p.elapsed));
        }
    }
    at
}

impl LabelStats {
    /// Adds one design.
    pub fn add(&mut self, facts: LabelFacts<'_>) {
        self.designs += 1;
        self.wall += facts.wall;
        self.nodes += facts.nodes;
        self.cache_hits += usize::from(facts.from_cache);
        if let Some(accepted) = facts.warm_start {
            self.warm_offered += 1;
            self.warm_accepted += usize::from(accepted);
        }
        *self.rungs.entry(facts.rung).or_default() += 1;
        if let Some(trace) = facts.trace {
            self.final_gaps.push(trace.final_gap());
            if let Some(t) = last_incumbent_ms(trace) {
                self.last_incumbent_ms.push(t);
            }
        }
    }

    /// Writes the `label.*` metrics.
    pub fn fill(&self, out: &mut Outcome) {
        let n = self.designs.max(1) as f64;
        out.layer("label.solve_ms", ms(self.wall) / n);
        out.layer("label.bnb_nodes", self.nodes as f64 / n);
        out.layer(
            "label.nodes_per_s",
            self.nodes as f64 / self.wall.as_secs_f64().max(1e-9),
        );
        out.layer("label.cache_hit_frac", self.cache_hits as f64 / n);
        out.layer(
            "label.warm_accept_frac",
            self.warm_accepted as f64 / self.warm_offered.max(1) as f64,
        );
        for rung in RUNGS {
            let shipped = self.rungs.get(rung).copied().unwrap_or(0);
            out.layer(&format!("label.rung_shipped.{rung}"), shipped as f64 / n);
        }
        out.layer("label.final_gap", crate::stats::mean(&self.final_gaps));
        out.layer(
            "label.last_incumbent_ms",
            crate::stats::mean(&self.last_incumbent_ms),
        );
    }
}

//! The correctness check every workload shares: a design's outputs on
//! seeded input vectors against the reference `Network::simulate64`,
//! never against crossbar code.

use std::time::{Duration, Instant};

use flowc_baselines::{DesignArtifact, MappedDesign};
use flowc_conform::Rng;
use flowc_logic::Network;
use flowc_xbar::Crossbar;

/// Which evaluation path a design runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EvalPath {
    /// One crossbar, 64 lanes at a time (`Crossbar::evaluate64`).
    Monolithic,
    /// A tile schedule, one vector at a time.
    Tiled,
    /// A MAGIC NOR program, one vector at a time.
    Nor,
}

impl EvalPath {
    /// The per-layer metric prefix (`eval.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            EvalPath::Monolithic => "monolithic",
            EvalPath::Tiled => "tiled",
            EvalPath::Nor => "nor",
        }
    }
}

/// A design under check.
#[derive(Debug, Clone, Copy)]
pub enum Design<'a> {
    /// A bare crossbar (the COMPACT library entry points).
    Crossbar(&'a Crossbar),
    /// A mapping backend's output.
    Mapped(&'a MappedDesign),
}

impl Design<'_> {
    /// The evaluation path the design uses.
    pub fn path(&self) -> EvalPath {
        match self {
            Design::Crossbar(_) => EvalPath::Monolithic,
            Design::Mapped(d) => match &d.artifact {
                DesignArtifact::Monolithic(_) => EvalPath::Monolithic,
                DesignArtifact::Tiled(_) => EvalPath::Tiled,
                _ => EvalPath::Nor,
            },
        }
    }
}

/// Seeded input vectors, packed 64 lanes per word: `chunks[c][i]` holds
/// input `i` for lanes of chunk `c`; `lanes[c]` says how many lanes of the
/// chunk are in use.
#[derive(Debug, Clone)]
pub struct Vectors {
    /// Per chunk, one word per primary input.
    pub chunks: Vec<Vec<u64>>,
    /// Lanes used in each chunk.
    pub lanes: Vec<usize>,
}

impl Vectors {
    /// `count` random vectors over `inputs` inputs.
    pub fn seeded(rng: &mut Rng, inputs: usize, count: usize) -> Vectors {
        let mut chunks = Vec::new();
        let mut lanes = Vec::new();
        let mut left = count;
        while left > 0 {
            let n = left.min(64);
            let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            chunks.push((0..inputs).map(|_| rng.next() & mask).collect());
            lanes.push(n);
            left -= n;
        }
        Vectors { chunks, lanes }
    }

    /// Total vectors.
    pub fn count(&self) -> usize {
        self.lanes.iter().sum()
    }
}

/// Time split of one check.
#[derive(Debug, Clone, Copy)]
pub struct CheckTimes {
    /// Reference simulation (`simulate64`).
    pub sim: Duration,
    /// The design's own evaluation.
    pub eval: Duration,
    /// Vectors checked.
    pub vectors: usize,
    /// The evaluation path.
    pub path: EvalPath,
}

fn lane_bits(words: &[u64], lane: usize) -> Vec<bool> {
    words.iter().map(|w| w >> lane & 1 == 1).collect()
}

/// Evaluates `design` on every vector and compares with the network.
///
/// # Errors
///
/// A message naming the first disagreeing vector, or an evaluation error.
pub fn check_design(
    design: Design<'_>,
    network: &Network,
    vectors: &Vectors,
) -> Result<CheckTimes, String> {
    let path = design.path();
    let mut sim = Duration::ZERO;
    let mut eval = Duration::ZERO;
    for (words, &lanes) in vectors.chunks.iter().zip(&vectors.lanes) {
        let t0 = Instant::now();
        let want = network
            .simulate64(words)
            .map_err(|e| format!("reference simulation: {e}"))?;
        let t1 = Instant::now();
        let got: Vec<u64> = match design {
            Design::Crossbar(x) => x.evaluate64(words).map_err(|e| e.to_string())?,
            Design::Mapped(d) => match d.crossbar() {
                Some(x) => x.evaluate64(words).map_err(|e| e.to_string())?,
                None => {
                    let mut out = vec![0u64; network.num_outputs()];
                    for lane in 0..lanes {
                        let bits = d.evaluate(&lane_bits(words, lane))?;
                        for (o, b) in out.iter_mut().zip(bits) {
                            *o |= u64::from(b) << lane;
                        }
                    }
                    out
                }
            },
        };
        let t2 = Instant::now();
        sim += t1 - t0;
        eval += t2 - t1;
        let mask = if lanes == 64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        if got.len() != want.len() {
            return Err(format!(
                "design has {} outputs, the network {}",
                got.len(),
                want.len()
            ));
        }
        for (o, (g, w)) in got.iter().zip(&want).enumerate() {
            let diff = (g ^ w) & mask;
            if diff != 0 {
                let lane = diff.trailing_zeros() as usize;
                let bits: String = lane_bits(words, lane)
                    .iter()
                    .map(|&b| if b { '1' } else { '0' })
                    .collect();
                return Err(format!("output {o} disagrees with simulate64 on x={bits}"));
            }
        }
    }
    Ok(CheckTimes {
        sim,
        eval,
        vectors: vectors.count(),
        path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowc_compact::{synthesize, Config};
    use flowc_logic::GateKind;

    fn and_or() -> Network {
        let mut n = Network::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let ab = n.add_gate(GateKind::And, &[a, b], "ab").unwrap();
        let f = n.add_gate(GateKind::Or, &[ab, c], "f").unwrap();
        n.mark_output(f);
        n
    }

    #[test]
    fn seeded_vectors_fill_partial_chunks() {
        let v = Vectors::seeded(&mut Rng::new(3), 4, 100);
        assert_eq!(v.count(), 100);
        assert_eq!(v.lanes, vec![64, 36]);
        assert!(v.chunks[1].iter().all(|w| w >> 36 == 0));
        let again = Vectors::seeded(&mut Rng::new(3), 4, 100);
        assert_eq!(v.chunks, again.chunks);
    }

    #[test]
    fn a_correct_design_passes_and_a_wrong_network_fails() {
        let n = and_or();
        let r = synthesize(&n, &Config::default()).unwrap();
        let v = Vectors::seeded(&mut Rng::new(1), 3, 70);
        let times = check_design(Design::Crossbar(&r.crossbar), &n, &v).unwrap();
        assert_eq!(times.vectors, 70);

        let mut wrong = Network::new("t");
        let a = wrong.add_input("a");
        let b = wrong.add_input("b");
        let c = wrong.add_input("c");
        let ab = wrong.add_gate(GateKind::Xor, &[a, b], "ab").unwrap();
        let f = wrong.add_gate(GateKind::Or, &[ab, c], "f").unwrap();
        wrong.mark_output(f);
        assert!(check_design(Design::Crossbar(&r.crossbar), &wrong, &v).is_err());
    }
}

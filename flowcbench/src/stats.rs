//! Order statistics for the benchmark's metrics: medians, the tail
//! percentile rule, the fastest of repeated timings, quartile spread, and
//! the run-to-run bound comparison.

use std::collections::BTreeMap;
use std::time::Duration;

/// Linear-interpolated quantile of `values` at `q` in `[0, 1]` (the
/// "type 7" definition). `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median, or `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The arithmetic mean, or 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail of a latency sample: the highest percentile that still has at
/// least `beyond` samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The value at that percentile (nearest rank).
    pub value: f64,
    /// The percentile, in `(50, 100]`.
    pub percentile: f64,
    /// How many samples lie beyond it.
    pub samples_beyond: usize,
}

/// The highest percentile with at least `beyond` samples beyond it.
///
/// With `n` sorted samples the value at rank `r` (0-based) has `n - 1 - r`
/// samples after it, so the rank is `n - 1 - beyond`. A sample too small
/// for that rank to lie above its median reports its maximum instead (0
/// samples beyond), so the slowest operation still shows.
pub fn tail(values: &[f64], beyond: usize) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = if n > 2 * beyond {
        n - 1 - beyond
    } else {
        n - 1
    };
    Some(Tail {
        value: sorted[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        samples_beyond: n - 1 - rank,
    })
}

/// Repeated timings of the same units of work: each unit (a design, a
/// design's check) keeps the fastest of its repeats.
///
/// Other tenants of a shared host only ever add time to an operation, and
/// how often they do drifts from minute to minute, so a mean over a run
/// moves with the host's load. The fastest repeat moves only when the
/// work itself gets cheaper or dearer.
#[derive(Debug, Default, Clone)]
pub struct Fastest {
    /// Per unit: its work (designs, vectors) and fastest wall.
    best: BTreeMap<usize, (f64, Duration)>,
}

impl Fastest {
    /// Records one repeat of unit `key`, which did `work` in `wall`.
    pub fn add(&mut self, key: usize, work: f64, wall: Duration) {
        let best = self.best.entry(key).or_insert((work, wall));
        if wall < best.1 {
            *best = (work, wall);
        }
    }

    /// Each unit's fastest wall in ms, in key order.
    pub fn walls_ms(&self) -> Vec<f64> {
        self.best
            .values()
            .map(|(_, w)| w.as_secs_f64() * 1e3)
            .collect()
    }

    /// Work per second at every unit's fastest repeat: Σ work / Σ fastest
    /// wall (0 when nothing was recorded).
    pub fn rate(&self) -> f64 {
        let work: f64 = self.best.values().map(|(w, _)| w).sum();
        let wall: f64 = self.best.values().map(|(_, d)| d.as_secs_f64()).sum();
        if wall > 0.0 {
            work / wall
        } else {
            0.0
        }
    }
}

/// The interquartile range of `values` as a share of their median, with
/// the quartiles of Python's `statistics.quantiles(values, n=4)` (the
/// "exclusive" method). `None` for fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let exclusive = |k: usize| {
        // statistics.quantiles, method="exclusive": m = n + 1.
        let m = (n + 1) as f64;
        let pos = k as f64 * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    let q1 = exclusive(1);
    let q3 = exclusive(3);
    let med = median(&sorted)?;
    if med == 0.0 {
        return None;
    }
    Some((q3 - q1) / med.abs())
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latency, size, gap).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

/// How far `now` is worse than `before`, as a share of `before` (0 when
/// it is equal or better).
pub fn worsening(before: f64, now: f64, better: Better) -> f64 {
    if before == 0.0 {
        return if (better == Better::Lower && now > 0.0) || (better == Better::Higher && now < 0.0)
        {
            f64::INFINITY
        } else {
            0.0
        };
    }
    let change = (now - before) / before.abs();
    match better {
        Better::Lower => change.max(0.0),
        Better::Higher => (-change).max(0.0),
    }
}

/// The run-to-run comparison: the median of `after` must not be worse
/// than the median of `before` by more than `bound` (a share of the
/// first median).
pub fn within_bound(before: &[f64], after: &[f64], better: Better, bound: f64) -> bool {
    match (median(before), median(after)) {
        (Some(b), Some(a)) => worsening(b, a, better) <= bound,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quantile(&[0.0, 10.0], 0.25), Some(2.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 100 samples 1..=100: the value with 10 samples above it is 90,
        // the 90th percentile.
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values, 10).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.samples_beyond, 10);
        assert!((t.percentile - 90.0).abs() < 1e-9);

        // 400 samples: the 97.5th percentile.
        let values: Vec<f64> = (1..=400).map(f64::from).collect();
        let t = tail(&values, 10).unwrap();
        assert_eq!(t.value, 390.0);
        assert!((t.percentile - 97.5).abs() < 1e-9);

        // Order of the input does not matter.
        let mut shuffled: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        shuffled.swap(3, 70);
        assert_eq!(tail(&shuffled, 10).unwrap().value, 90.0);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        // 21 samples: rank 10 is the median's, so the rule still applies.
        let values: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&values, 10).unwrap().value, 11.0);
        // 20 samples cannot hold 10 beyond a point above the median.
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&values, 10).unwrap();
        assert_eq!(t.value, 20.0);
        assert_eq!(t.samples_beyond, 0);
        assert_eq!(t.percentile, 100.0);
        assert_eq!(tail(&[7.0], 10).unwrap().value, 7.0);
        assert_eq!(tail(&[], 10), None);
    }

    #[test]
    fn fastest_keeps_each_units_quickest_repeat() {
        let ms = Duration::from_millis;
        let mut f = Fastest::default();
        assert_eq!(f.rate(), 0.0);
        // Unit 0 ran 3 ms, then 2 ms, then 5 ms; unit 1 once, 6 ms.
        f.add(0, 1.0, ms(3));
        f.add(0, 1.0, ms(2));
        f.add(0, 1.0, ms(5));
        f.add(1, 1.0, ms(6));
        assert_eq!(f.walls_ms(), vec![2.0, 6.0]);
        // Two units of work in 8 ms of fastest wall.
        assert!((f.rate() - 250.0).abs() < 1e-9);
        // Work is weighted per unit: 1024 vectors in 2 ms, 64 in 6 ms.
        let mut v = Fastest::default();
        v.add(0, 1024.0, ms(2));
        v.add(1, 64.0, ms(6));
        assert!((v.rate() - 1088.0 / 0.008).abs() < 1e-6);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&values).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
        assert_eq!(quartile_spread(&[5.0; 10]), Some(0.0));
    }

    #[test]
    fn bound_comparison_respects_direction() {
        let before = [10.0, 10.0, 10.0];
        // Latency 12% worse: inside a 0.15 bound, outside 0.10.
        let after = [11.2, 11.2, 11.2];
        assert!(within_bound(&before, &after, Better::Lower, 0.15));
        assert!(!within_bound(&before, &after, Better::Lower, 0.10));
        // Faster is never a regression for a lower-is-better metric.
        assert!(within_bound(&before, &[5.0], Better::Lower, 0.0));
        // Throughput 12% lower fails a 0.10 bound; higher always passes.
        assert!(!within_bound(&before, &[8.8], Better::Higher, 0.10));
        assert!(within_bound(&before, &[20.0], Better::Higher, 0.0));
        assert!((worsening(10.0, 12.5, Better::Lower) - 0.25).abs() < 1e-12);
        assert!(!within_bound(&[], &after, Better::Lower, 1.0));
    }
}

//! Host-speed calibration.
//!
//! On a shared host the speed of a core drifts, by up to 2× over minutes,
//! as neighbours come and go, and every compute-bound figure drifts with
//! it. Taking each operation's fastest repeat (see [`crate::stats::Fastest`])
//! removes short interference but not a slow spell that covers a whole
//! run. So the benchmark times a fixed unit of its own work between the
//! workload's operations, and scales each compute-bound operation's wall
//! to the speed at which that unit takes [`REFERENCE`]. The unit runs only
//! the benchmark's own code: a change to the program does not move it.
//! The raw walls stay in the record (`wall_clock`, `calibration`).

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use flowc_report::Json;

use crate::stats;

/// The unit's wall at the reference speed the scaled figures are quoted at
/// (about its wall on an idle 2.1 GHz Xeon core).
pub const REFERENCE: Duration = Duration::from_millis(1);
/// The least time between two samples.
const INTERVAL: Duration = Duration::from_millis(25);
/// Samples this close to either end of an operation (or as close as the
/// operation is long, if that is more) describe its speed: wide enough
/// that their median smooths the unit's own jitter, narrow against the
/// minutes over which the host's speed drifts. No sample can be taken
/// during an operation, so a long one is judged by the host around it.
const WINDOW: Duration = Duration::from_secs(1);
/// Keys per unit.
const KEYS: u64 = 4_000;

/// Runs the calibration unit once and returns its wall.
///
/// The unit mixes what the synthesis layers spend their time on —
/// allocation churn, pointer-chasing ordered maps, hashing, sorting and
/// branchy integer code over a wide code footprint — because a neighbour
/// on the same core slows such code far more than a tight loop over an
/// array.
pub fn unit() -> Duration {
    let t = Instant::now();
    let mut x: u64 = 0x243F_6A88_85A3_08D3;
    let mut next = || {
        // splitmix64
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut ordered: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut hashed: HashMap<u64, String> = HashMap::new();
    let mut acc = 0u64;
    for i in 0..KEYS {
        let k = next() % (KEYS / 2);
        let fanout = (k % 7) as usize;
        ordered
            .entry(k)
            .or_default()
            .extend((0..fanout).map(|j| k ^ j as u64));
        if k.is_multiple_of(3) {
            hashed.insert(k, format!("{k:x}.{i}"));
        }
        if let Some((_, v)) = ordered.range(k..).nth(1) {
            acc = acc.wrapping_add(v.iter().sum::<u64>());
        }
        if i % 5 == 0 {
            ordered.remove(&(next() % (KEYS / 2)));
        }
    }
    let mut keys: Vec<u64> = ordered.keys().copied().collect();
    keys.extend(hashed.values().map(|s| s.len() as u64));
    keys.sort_unstable_by_key(|k| k.rotate_left(17));
    std::hint::black_box((acc, keys));
    t.elapsed()
}

/// Calibration samples taken through a phase: when each unit finished,
/// and its wall.
#[derive(Debug, Default)]
pub struct Calibration {
    samples: Vec<(Instant, Duration)>,
}

impl Calibration {
    /// Calibration from given samples (when each finished, its wall).
    #[cfg(test)]
    pub fn from_samples(samples: Vec<(Instant, Duration)>) -> Calibration {
        Calibration { samples }
    }

    /// Takes a sample unless one finished less than `INTERVAL` ago. Call
    /// it before each operation and once after the last.
    pub fn tick(&mut self) {
        if self
            .samples
            .last()
            .is_some_and(|(at, _)| at.elapsed() < INTERVAL)
        {
            return;
        }
        let wall = unit();
        self.samples.push((Instant::now(), wall));
    }

    /// The unit's wall around `[t0, t1]`: the median of the samples that
    /// finished within `WINDOW` (or `t1 - t0`) of it, else the nearest
    /// one. `None` without samples.
    fn local(&self, t0: Instant, t1: Instant) -> Option<Duration> {
        let window = WINDOW.max(t1.saturating_duration_since(t0));
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|(at, _)| *at + window >= t0 && at.saturating_duration_since(t1) <= window)
            .map(|(_, w)| w.as_secs_f64())
            .collect();
        if let Some(m) = stats::median(&near) {
            return Some(Duration::from_secs_f64(m));
        }
        let distance = |at: Instant| {
            if at < t0 {
                t0 - at
            } else {
                at.saturating_duration_since(t1)
            }
        };
        self.samples
            .iter()
            .min_by_key(|(at, _)| distance(*at))
            .map(|(_, w)| *w)
    }

    /// The wall of an operation over `[t0, t1]` at the reference speed:
    /// `(t1 - t0) × REFERENCE / local unit wall`. The raw wall without
    /// samples.
    pub fn scaled(&self, t0: Instant, t1: Instant) -> Duration {
        let wall = t1.saturating_duration_since(t0);
        match self.local(t0, t1) {
            Some(unit) if !unit.is_zero() => {
                wall.mul_f64(REFERENCE.as_secs_f64() / unit.as_secs_f64())
            }
            _ => wall,
        }
    }

    /// The wall `wall` at the reference speed, judged by the phase's
    /// fastest sample: `wall × REFERENCE / fastest unit wall`. The raw
    /// wall without samples. Pair it with a fastest repeat (see
    /// [`crate::outcome::Scaling::Fastest`]).
    pub fn scaled_by_fastest(&self, wall: Duration) -> Duration {
        match self.samples.iter().map(|(_, w)| *w).min() {
            Some(unit) if !unit.is_zero() => {
                wall.mul_f64(REFERENCE.as_secs_f64() / unit.as_secs_f64())
            }
            _ => wall,
        }
    }

    /// The record's description of the samples.
    pub fn note(&self) -> Json {
        let ms: Vec<f64> = self
            .samples
            .iter()
            .map(|(_, w)| w.as_secs_f64() * 1e3)
            .collect();
        let q = |p: f64| Json::Num(stats::quantile(&ms, p).unwrap_or(0.0));
        Json::Obj(vec![
            ("samples".into(), Json::int(ms.len())),
            ("unit_ms_min".into(), q(0.0)),
            ("unit_ms_p10".into(), q(0.1)),
            ("unit_ms_p50".into(), q(0.5)),
            ("unit_ms_p90".into(), q(0.9)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    fn with(samples: &[(u64, u64)]) -> (Instant, Calibration) {
        let base = Instant::now();
        let c = Calibration::from_samples(
            samples
                .iter()
                .map(|&(t, w)| (at(base, t), Duration::from_millis(w)))
                .collect(),
        );
        (base, c)
    }

    #[test]
    fn an_operation_is_scaled_by_the_samples_around_it() {
        // The host ran at half speed (unit 2 ms) around the first
        // operation and at reference speed around the second.
        let (b, c) = with(&[(0, 2), (100, 2), (3000, 1), (3100, 1)]);
        assert_eq!(c.scaled(at(b, 10), at(b, 90)), Duration::from_millis(40));
        assert_eq!(
            c.scaled(at(b, 3010), at(b, 3090)),
            Duration::from_millis(80)
        );
        // Far from every sample: the nearest one (2 ms at t = 100).
        assert_eq!(
            c.scaled(at(b, 1400), at(b, 1420)),
            Duration::from_millis(10)
        );
        // Samples within the window on both sides: their median.
        let (b, c) = with(&[(0, 1), (500, 3), (900, 2)]);
        assert_eq!(c.scaled(at(b, 400), at(b, 420)), Duration::from_millis(10));
    }

    #[test]
    fn scaling_by_the_fastest_sample_ignores_the_slow_ones() {
        // The unit's fastest sample ran at twice the reference speed.
        let (_, c) = with(&[(0, 3), (100, 1), (200, 2)]);
        let ms = Duration::from_millis;
        assert_eq!(c.scaled_by_fastest(ms(40)), ms(40));
        let (_, c) = with(&[(0, 4), (100, 2)]);
        assert_eq!(c.scaled_by_fastest(ms(40)), ms(20));
    }

    #[test]
    fn without_samples_the_raw_wall_stands() {
        let (b, c) = with(&[]);
        assert_eq!(c.scaled(at(b, 0), at(b, 30)), Duration::from_millis(30));
        let ms = Duration::from_millis;
        assert_eq!(c.scaled_by_fastest(ms(30)), ms(30));
    }

    #[test]
    fn ticks_are_spaced() {
        let mut c = Calibration::default();
        c.tick();
        c.tick();
        assert_eq!(c.samples.len(), 1);
        assert!(c.samples[0].1 > Duration::ZERO);
    }
}

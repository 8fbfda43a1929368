//! Pure helpers: the seeded generator, the open-loop schedule,
//! percentiles with the tail-sample rule, the serving ledger and span
//! self-time arithmetic. Everything here is deterministic and unit
//! tested.

use std::time::Duration;

/// SplitMix64: a small, seedable generator. The benchmark derives all
/// of its inputs (images, classes, arrival times) from one seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Send offsets of an open-loop Poisson arrival process at `rate` per
/// second, covering `[0, span)`. The same seed gives the same schedule.
pub fn poisson_schedule(seed: u64, rate: f64, span: Duration) -> Vec<Duration> {
    let mut rng = Rng::new(seed);
    let end = span.as_secs_f64();
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate * end * 1.1) as usize + 16);
    loop {
        // 1 - unit() lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Samples that lie beyond quantile `q` in a sample of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    // The epsilon absorbs binary rounding: 100 · (1 − 0.9) is 9.99…
    ((n as f64) * (1.0 - q) + 1e-9).floor() as usize
}

/// The tail rule: a percentile may be reported only when at least ten
/// samples lie beyond it (p99 needs 1000 samples).
pub fn tail_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= 10
}

/// Nearest-rank quantile of an ascending slice (`None` when empty).
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5).unwrap_or(0.0)
}

/// Which of `parts` equal sub-windows of `[lo, hi)` holds time `t`
/// (`lo <= t < hi`).
pub fn sub_window(t: u64, (lo, hi): (u64, u64), parts: usize) -> usize {
    ((t - lo) as u128 * parts as u128 / (hi - lo) as u128) as usize
}

/// The server's final ledger, as counted by its metrics snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    pub accepted: u64,
    pub completed: u64,
    pub failed: u64,
    pub timed_out: u64,
    pub shed: u64,
}

impl Ledger {
    /// Every accepted request ended exactly one way.
    pub fn balances(&self) -> bool {
        self.accepted == self.completed + self.failed + self.timed_out + self.shed
    }
}

/// Self time of a span `[start, end)`: its duration minus the part of
/// it covered by the union of its children (clipped to the parent;
/// overlapping children are counted once).
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    if pe <= ps {
        return 0;
    }
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = ps;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (pe - ps) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_repeats_per_seed_and_differs_across_seeds() {
        let span = Duration::from_secs(2);
        let a = poisson_schedule(7, 500.0, span);
        let b = poisson_schedule(7, 500.0, span);
        let c = poisson_schedule(8, 500.0, span);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().is_some_and(|t| *t < span));
        // Mean rate within 10 % of the target over ~1000 arrivals.
        let n = a.len() as f64;
        assert!((900.0..1100.0).contains(&n), "{n} arrivals");
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(1000, 0.99));
        assert!(tail_supported(100, 0.90));
        assert!(!tail_supported(99, 0.90));
        assert!(tail_supported(20, 0.5));
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(tail_supported(200, 0.95));
        assert!(!tail_supported(199, 0.95));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn sub_windows_split_the_window_evenly() {
        let w = (100, 600);
        assert_eq!(sub_window(100, w, 5), 0);
        assert_eq!(sub_window(199, w, 5), 0);
        assert_eq!(sub_window(200, w, 5), 1);
        assert_eq!(sub_window(599, w, 5), 4);
        let counts = (100..600).fold([0; 5], |mut c, t| {
            c[sub_window(t, w, 5)] += 1;
            c
        });
        assert_eq!(counts, [100; 5]);
    }

    #[test]
    fn ledger_check() {
        let ok = Ledger {
            accepted: 10,
            completed: 6,
            failed: 1,
            timed_out: 2,
            shed: 1,
        };
        assert!(ok.balances());
        assert!(!Ledger { shed: 0, ..ok }.balances());
        assert!(!Ledger { completed: 7, ..ok }.balances());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: the whole span.
        assert_eq!(self_time((10, 50), &[]), 40);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 80)]), 60);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // Nested child inside another.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children sticking out of the parent are clipped.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 30)]), 3);
        // Fully covered.
        assert_eq!(self_time((5, 9), &[(0, 100)]), 0);
        // Empty or inverted parent.
        assert_eq!(self_time((9, 9), &[(0, 1)]), 0);
    }
}

//! Estimators shared by every workload: medians, the ten-beyond tail,
//! the paired-median ladder estimator, and a seeded generator.

use std::time::{Duration, Instant};

/// Median of `v` (mean of the two middle values for even lengths);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Percentiles the tail is chosen from, in tenths of a percent.
pub const TAIL_LADDER: [usize; 4] = [750, 900, 990, 999];

/// The tail: the highest percentile of [`TAIL_LADDER`] that has at least
/// ten samples beyond it, so it is never set by a handful of outliers.
/// Returns `(value, percentile)`; with fewer than 40 samples no ladder
/// percentile qualifies and the maximum is returned, with percentile 100.
/// A fixed ladder keeps the chosen percentile the same from run to run
/// while the sample count wanders a little.
pub fn tail(v: &[f64]) -> (f64, f64) {
    if v.is_empty() {
        return (0.0, 0.0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    // Nearest-rank: the percentile is the `rank`-th smallest sample.
    let rank = |per_mille: usize| (per_mille * n).div_ceil(1000).max(1);
    match TAIL_LADDER.iter().rev().find(|&&pm| n - rank(pm) >= 10) {
        Some(&pm) => (s[rank(pm) - 1], pm as f64 / 10.0),
        None => (s[n - 1], 100.0),
    }
}

/// Result of timing two configurations as adjacent pairs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Paired {
    /// Median time of the first configuration.
    pub a: f64,
    /// Median time of the second configuration.
    pub b: f64,
    /// Median over pairs of `b / a`.
    pub ratio: f64,
    /// Median over pairs of `b - a`.
    pub diff: f64,
    /// Pairs timed.
    pub pairs: usize,
}

/// Time two configurations back to back, alternating which goes first,
/// until `budget` is spent (at least `min_pairs`, always an even count so
/// each side goes first equally often). `run(0)` and `run(1)` run one
/// side and return the seconds it measured. This is `obs_overhead`'s
/// estimator: both sides of a pair see the same machine state, and the
/// median needs only most pairs to be clean.
pub fn paired(budget: Duration, min_pairs: usize, mut run: impl FnMut(usize) -> f64) -> Paired {
    let start = Instant::now();
    let (mut ta, mut tb, mut ratios, mut diffs) = (vec![], vec![], vec![], vec![]);
    let mut i = 0usize;
    while i < min_pairs || start.elapsed() < budget || i % 2 == 1 {
        let (x, y) = if i.is_multiple_of(2) {
            let x = run(0);
            (x, run(1))
        } else {
            let y = run(1);
            (run(0), y)
        };
        ta.push(x);
        tb.push(y);
        ratios.push(y / x);
        diffs.push(y - x);
        i += 1;
    }
    Paired {
        a: median(&ta),
        b: median(&tb),
        ratio: median(&ratios),
        diff: median(&diffs),
        pairs: i,
    }
}

/// Run `f` until `budget` is spent (at least `min_reps` times) and return
/// the median of the seconds it reported.
pub fn repeat(budget: Duration, min_reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut v = Vec::new();
    while v.len() < min_reps || start.elapsed() < budget {
        v.push(f());
    }
    median(&v)
}

/// Seconds `f` took, with its result passed through `black_box`.
pub fn time<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_secs_f64()
}

/// SplitMix64: a small seeded generator, so the same seed gives the same
/// case order and session mix on every machine.
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0fa7_ba1e_57a6)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }

    /// A shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        self.shuffle(&mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_takes_highest_ladder_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v), (1980.0, 99.0));
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(tail(&v), (45.0, 75.0));
        assert_eq!(tail(&[3.0, 1.0]), (3.0, 100.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn same_seed_same_permutation() {
        assert_eq!(Rng::new(7).permutation(56), Rng::new(7).permutation(56));
        assert_ne!(Rng::new(7).permutation(56), Rng::new(8).permutation(56));
    }
}

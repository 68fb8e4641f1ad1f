//! Seeded Zipf popularity over a seeded permutation of the population.
//!
//! Rank `r` (1-based) is drawn with probability `r^-s / H(N, s)`; the rank
//! is then mapped through a Fisher–Yates permutation, so the popular
//! principals are scattered over the realm instead of being the first
//! names registered.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The generalized harmonic number `H(n, s) = Σ_{k=1..n} k^-s`.
pub fn harmonic(n: usize, s: f64) -> f64 {
    (1..=n).map(|k| (k as f64).powf(-s)).sum()
}

/// A Zipf(s) sampler over `n` items.
pub struct Zipf {
    /// Cumulative weights: `cdf[r]` is `Σ_{k=1..r+1} k^-s`.
    cdf: Vec<f64>,
    /// `perm[rank]` is the item drawn for that rank.
    perm: Vec<u32>,
    rng: StdRng,
}

impl Zipf {
    /// A sampler over items `0..n` with exponent `s`. The permutation and
    /// the draw sequence are both functions of `seed` alone.
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        assert!(
            n > 0 && n <= u32::MAX as usize,
            "population must fit in u32"
        );
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            perm.swap(i, j);
        }
        Zipf { cdf, perm, rng }
    }

    /// The item at popularity rank `rank` (0 is the most popular).
    pub fn item_at_rank(&self, rank: usize) -> usize {
        self.perm[rank] as usize
    }

    /// Draw one item.
    pub fn sample(&mut self) -> usize {
        let total = *self.cdf.last().expect("non-empty population");
        let u = self.rng.random::<f64>() * total;
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.perm[rank] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws_and_permutation() {
        let mut a = Zipf::new(10_000, 1.0, 42);
        let mut b = Zipf::new(10_000, 1.0, 42);
        let da: Vec<usize> = (0..1000).map(|_| a.sample()).collect();
        let db: Vec<usize> = (0..1000).map(|_| b.sample()).collect();
        assert_eq!(da, db);
        let mut c = Zipf::new(10_000, 1.0, 43);
        let dc: Vec<usize> = (0..1000).map(|_| c.sample()).collect();
        assert_ne!(da, dc, "another seed must give other draws");
    }

    #[test]
    fn permutation_is_a_bijection() {
        let z = Zipf::new(5000, 1.0, 7);
        let mut seen = vec![false; 5000];
        for r in 0..5000 {
            let i = z.item_at_rank(r);
            assert!(!seen[i], "item {i} appears twice");
            seen[i] = true;
        }
    }

    #[test]
    fn top_rank_share_matches_the_harmonic_number() {
        let n = 1000;
        let draws = 200_000;
        let mut z = Zipf::new(n, 1.0, 9);
        let top = z.item_at_rank(0);
        let hits = (0..draws).filter(|_| z.sample() == top).count();
        let share = hits as f64 / draws as f64;
        let expect = 1.0 / harmonic(n, 1.0);
        assert!(
            (share - expect).abs() < 0.005,
            "top-rank share {share:.4} vs 1/H(N,s) = {expect:.4}"
        );
    }
}

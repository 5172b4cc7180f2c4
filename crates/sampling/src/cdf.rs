//! CDF-inversion weighted sampling: the O(log n)-per-draw alternative to
//! the alias method.
//!
//! Construction is a single prefix-sum pass — no partitioning, no alias
//! pairing — which makes this the cheaper sampler to *build*. SUPG's
//! serving layer therefore uses it as the cold-start fallback: a one-shot
//! query over a fresh corpus draws `s ≈ 10³–10⁴` records, so paying
//! O(log n) per draw is nothing next to skipping the alias table's extra
//! O(n) construction passes. Repeated queries amortize the alias build
//! and switch back to O(1) draws (see `supg_core`'s `SamplerStrategy`).

use rand::Rng;

/// Weighted sampler that inverts the cumulative weight function with binary
/// search. Construction is O(n) (one prefix-sum pass); each draw is
/// O(log n). Implements [`crate::WeightedSampler`] alongside
/// [`crate::AliasTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct CdfSampler {
    /// Cumulative weights, strictly increasing, last element = total weight.
    cumulative: Vec<f64>,
    /// Last positive-weight index — the clamp target that keeps the
    /// zero-weight contract when a draw rounds up to the total mass.
    max_draw: usize,
}

impl CdfSampler {
    /// Builds the sampler from non-negative weights (not necessarily
    /// normalized).
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "CdfSampler: empty weights");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        let mut max_draw = 0;
        for (i, &w) in weights.iter().enumerate() {
            assert!(w.is_finite() && w >= 0.0, "CdfSampler: bad weight {w}");
            if w > 0.0 {
                max_draw = i;
            }
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "CdfSampler: weights sum to zero");
        Self {
            cumulative,
            max_draw,
        }
    }

    /// Number of indices.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True when the sampler has no entries (construction forbids this,
    /// so this is always false; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Normalized sampling probability of index `i` (the weight delta at
    /// `i` over the total mass).
    pub fn prob(&self, i: usize) -> f64 {
        let total = *self.cumulative.last().expect("non-empty");
        let prev = if i == 0 { 0.0 } else { self.cumulative[i - 1] };
        (self.cumulative[i] - prev) / total
    }

    /// Locates the drawn index for a mass coordinate `u ∈ [0, total]`:
    /// the first index whose cumulative weight exceeds `u`. Zero-weight
    /// indices have cumulative equal to their predecessor and are skipped
    /// by the strict comparison; when `u` rounds up to the total mass the
    /// result clamps to the last *positive-weight* index, never a
    /// trailing zero-weight one.
    fn locate(&self, u: f64) -> usize {
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.max_draw)
    }

    /// Draws one index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        self.locate(rng.gen::<f64>() * total)
    }

    /// Draws `k` independent indices (with replacement).
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, k: usize) -> Vec<usize> {
        (0..k).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn marginals_match_weights() {
        let weights = [5.0, 1.0, 4.0];
        let sampler = CdfSampler::new(&weights);
        let mut rng = StdRng::seed_from_u64(51);
        let n = 300_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[sampler.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = weights[i] / 10.0;
            let emp = c as f64 / n as f64;
            assert!((emp - expected).abs() < 0.005, "index {i}: emp={emp}");
        }
    }

    #[test]
    fn zero_weight_indices_are_never_drawn() {
        let sampler = CdfSampler::new(&[0.0, 3.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(52);
        for _ in 0..5_000 {
            assert_eq!(sampler.sample(&mut rng), 1);
        }
    }

    #[test]
    fn agrees_with_alias_table_distribution() {
        let weights: Vec<f64> = (1..=64).map(|i| (i as f64).sqrt()).collect();
        let cdf = CdfSampler::new(&weights);
        let alias = crate::alias::AliasTable::new(&weights);
        let mut rng = StdRng::seed_from_u64(53);
        let n = 200_000;
        let mut c1 = vec![0f64; 64];
        let mut c2 = vec![0f64; 64];
        for _ in 0..n {
            c1[cdf.sample(&mut rng)] += 1.0;
            c2[alias.sample(&mut rng)] += 1.0;
        }
        for i in 0..64 {
            assert!((c1[i] - c2[i]).abs() / (n as f64) < 0.01, "index {i}");
        }
    }

    #[test]
    fn trailing_zero_weights_are_never_drawn_even_at_total_mass() {
        // Regression: with trailing zero weights the old clamp
        // (`min(len - 1)`) returned index 4 when the uniform draw rounded
        // up to the total mass, violating the zero-weight contract.
        let sampler = CdfSampler::new(&[0.0, 2.0, 1.0, 0.0, 0.0]);
        let total = 3.0;
        // Forced `u == total` edge: must clamp to the last
        // positive-weight index, not the last index.
        assert_eq!(sampler.locate(total), 2);
        // Forced past-the-end coordinate (paranoia for `u > total` after
        // rounding): same clamp.
        assert_eq!(sampler.locate(total + 1.0), 2);
        // Interior zero weight is still skipped.
        assert_eq!(sampler.locate(0.0), 1);
        let mut rng = StdRng::seed_from_u64(54);
        for _ in 0..20_000 {
            let i = sampler.sample(&mut rng);
            assert!(i == 1 || i == 2, "drew zero-weight index {i}");
        }
    }

    #[test]
    fn zero_weight_blocks_are_skipped() {
        // Whole zero-mass blocks — leading, interior and trailing — are
        // never drawn, and the positive indices keep their marginals.
        let weights = [0.0, 0.0, 3.0, 1.0, 0.0, 0.0, 2.0, 0.0];
        let sampler = CdfSampler::new(&weights);
        assert_eq!(sampler.max_draw, 6);
        assert_eq!(sampler.locate(0.0), 2);
        assert_eq!(sampler.locate(4.0), 6, "a block boundary skips the block");
        let mut rng = StdRng::seed_from_u64(55);
        let n = 300_000;
        let mut counts = [0usize; 8];
        for _ in 0..n {
            counts[sampler.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let emp = c as f64 / n as f64;
            assert!(
                (emp - weights[i] / 6.0).abs() < 0.005,
                "index {i}: emp={emp}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn rejects_all_zero_weights() {
        CdfSampler::new(&[0.0]);
    }
}

//! Importance-weight construction for the SUPG estimators.
//!
//! Theorem 1 of the paper: for a calibrated proxy `a(x)`, sampling with
//! probability `w(x) ∝ sqrt(a(x)) · u(x)` minimizes the variance of the
//! reweighted count estimator. Algorithms 4 and 5 additionally mix 10%
//! uniform mass into the weights ("defensive mixing", after Owen & Zhou) so
//! an adversarially bad proxy can only cost a constant factor relative to
//! uniform sampling.
//!
//! [`ImportanceWeights`] captures the full recipe — an exponent `p` applied
//! to the proxy scores (`p = 0.5` is the paper's optimum, `p = 0` recovers
//! uniform, `p = 1` is the naive proportional scheme of Figure 8) plus the
//! uniform mixing ratio — and exposes the sampling probabilities `w(x)` and
//! reweighting factors `m(x) = u(x)/w(x)` every reweighted estimate needs.

use crate::alias::AliasTable;

/// The weight recipe's input validation, shared by every construction
/// path ([`ImportanceWeights::from_scores`] and the chunked builders in
/// `supg-core`), so a bad input panics with the same message wherever
/// the build runs.
///
/// # Panics
/// Panics if `exponent` is negative or any score is negative/non-finite
/// (naming the offending index and value).
pub fn validate_scores(scores: &[f64], exponent: f64) {
    assert!(
        exponent >= 0.0,
        "ImportanceWeights: exponent={exponent} < 0"
    );
    // Validation hoisted out of the mapping loop so the hot per-record
    // transform stays branch-light.
    for (index, &a) in scores.iter().enumerate() {
        assert!(
            a.is_finite() && a >= 0.0,
            "ImportanceWeights: bad score {a} at index {index}"
        );
    }
}

/// The per-record transform of the weight recipe: `A(x)^p` with fast paths
/// for the exponents that matter — 0.5 (the Theorem-1 optimum, `sqrt`),
/// 1.0 (proportional, identity) and 0.0 (uniform, no transform at all).
/// `powf` costs an order of magnitude more than `sqrt` per record, which
/// dominates dataset preparation at n ≈ 10⁶. (`sqrt` may differ from
/// `powf(0.5)` by ≤ 1 ulp; both are valid weight recipes.)
///
/// Pure and element-wise, so callers may evaluate it chunk-by-chunk on a
/// worker pool and concatenate: the result is bit-identical to one serial
/// pass.
pub fn apply_exponent(scores: &[f64], exponent: f64) -> Vec<f64> {
    if exponent == 0.0 {
        vec![1.0; scores.len()]
    } else if exponent == 0.5 {
        scores.iter().map(|&a| a.sqrt()).collect()
    } else if exponent == 1.0 {
        scores.to_vec()
    } else {
        scores.iter().map(|&a| a.powf(exponent)).collect()
    }
}

/// Normalized sampling distribution over record indices together with the
/// importance-reweighting factors.
#[derive(Debug, Clone)]
pub struct ImportanceWeights {
    probs: Vec<f64>,
}

impl ImportanceWeights {
    /// Builds weights `w(x) ∝ (1−mix) · A(x)^p / Σ A^p + mix / n` from proxy
    /// scores.
    ///
    /// * `exponent` — the power `p` applied to each score. The paper proves
    ///   `p = 1/2` optimal for calibrated proxies (Theorem 1) and sweeps
    ///   `p ∈ [0, 1]` in Figure 12.
    /// * `uniform_mix` — defensive mixing ratio in `[0, 1]`; Algorithms 4–5
    ///   use `0.1`. With `uniform_mix = 1` (or when all scores are zero) the
    ///   distribution is exactly uniform.
    ///
    /// # Panics
    /// Panics if `scores` is empty, any score is negative/non-finite (the
    /// message names the offending index and value), `exponent` is
    /// negative, or `uniform_mix` is outside `[0, 1]`.
    pub fn from_scores(scores: &[f64], exponent: f64, uniform_mix: f64) -> Self {
        validate_scores(scores, exponent);
        Self::from_powered(apply_exponent(scores, exponent), uniform_mix)
    }

    /// Builds weights from already-exponentiated non-negative values —
    /// the second half of [`from_scores`](ImportanceWeights::from_scores)
    /// (normalization + defensive mixing), split out so callers that
    /// compute the `A(x)^p` transform elsewhere (e.g. chunked over a
    /// worker pool, as `supg_core::prepared` does) reuse the exact same
    /// recipe. `from_scores(s, p, mix)` is bit-for-bit
    /// `from_powered(apply_exponent(s, p), mix)`.
    ///
    /// # Panics
    /// Panics if `powered` is empty or `uniform_mix` is outside `[0, 1]`.
    pub fn from_powered(mut powered: Vec<f64>, uniform_mix: f64) -> Self {
        assert!(!powered.is_empty(), "ImportanceWeights: empty scores");
        assert!(
            (0.0..=1.0).contains(&uniform_mix),
            "ImportanceWeights: uniform_mix={uniform_mix} outside [0, 1]"
        );
        let n = powered.len();
        let total: f64 = powered.iter().sum();
        let uniform = 1.0 / n as f64;
        if total <= 0.0 {
            // All scores zero: the proxy carries no information; fall back
            // to the uniform distribution regardless of the mixing ratio.
            return Self {
                probs: vec![uniform; n],
            };
        }
        for p in powered.iter_mut() {
            *p = (1.0 - uniform_mix) * (*p / total) + uniform_mix * uniform;
        }
        Self { probs: powered }
    }

    /// The exact uniform distribution over `n` indices.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "ImportanceWeights: n must be > 0");
        Self {
            probs: vec![1.0 / n as f64; n],
        }
    }

    /// Number of indices.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True when the distribution has no entries (construction forbids
    /// this, so this is always false; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Sampling probability `w(x)` of index `i` (sums to 1 over all `i`).
    pub fn prob(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// All sampling probabilities.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Reweighting factor `m(x) = u(x) / w(x) = 1 / (n · w(x))` for index
    /// `i`, as used by the paper's reweighted recall/precision estimates
    /// (Equations 11–12).
    pub fn reweight_factor(&self, i: usize) -> f64 {
        1.0 / (self.probs.len() as f64 * self.probs[i])
    }

    /// Builds the O(1)-draw alias sampler for this distribution.
    pub fn build_sampler(&self) -> AliasTable {
        AliasTable::new(&self.probs)
    }

    /// Alias sampler over a subset of indices, renormalizing **lazily**:
    /// the raw subset probabilities are handed straight to
    /// [`AliasTable::new`], which normalizes internally, so no intermediate
    /// probability vector is copied and re-divided. The sampler returns
    /// *positions into `subset`*; reweighting factors should still come
    /// from [`reweight_factor`](ImportanceWeights::reweight_factor) on the
    /// global distribution (ratio estimates are invariant to the constant
    /// renormalization between `w` and `w|subset`).
    ///
    /// This is the two-stage precision estimator's stage-2 sampler; prefer
    /// it over `restrict(..).build_sampler()`, which pays an extra O(k)
    /// allocation and normalization pass.
    ///
    /// # Panics
    /// Panics if `subset` is empty, contains an out-of-range index, or
    /// carries zero total mass.
    pub fn restricted_sampler(&self, subset: &[usize]) -> AliasTable {
        assert!(
            !subset.is_empty(),
            "ImportanceWeights::restricted_sampler: empty subset"
        );
        let raw: Vec<f64> = subset.iter().map(|&i| self.probs[i]).collect();
        AliasTable::new(&raw)
    }

    /// Restriction of this distribution to a subset of indices, renormalized
    /// — used by the two-stage precision estimator, whose second stage
    /// samples only from the top-scored records. Returns the restricted
    /// distribution alongside the subset it indexes into. For sampling
    /// alone, [`restricted_sampler`](ImportanceWeights::restricted_sampler)
    /// skips the intermediate normalization.
    ///
    /// # Panics
    /// Panics if `subset` is empty or contains an out-of-range index.
    pub fn restrict(&self, subset: &[usize]) -> ImportanceWeights {
        assert!(
            !subset.is_empty(),
            "ImportanceWeights::restrict: empty subset"
        );
        let raw: Vec<f64> = subset.iter().map(|&i| self.probs[i]).collect();
        let total: f64 = raw.iter().sum();
        assert!(total > 0.0, "ImportanceWeights::restrict: zero mass subset");
        Self {
            probs: raw.into_iter().map(|p| p / total).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_sum_to_one() {
        let scores = [0.9, 0.01, 0.5, 0.0, 0.3];
        for &(p, mix) in &[(0.5, 0.1), (1.0, 0.0), (0.0, 0.0), (0.25, 0.5)] {
            let w = ImportanceWeights::from_scores(&scores, p, mix);
            let total: f64 = w.probs().iter().sum();
            assert!(
                (total - 1.0).abs() < 1e-12,
                "p={p} mix={mix}: total={total}"
            );
        }
    }

    #[test]
    fn sqrt_weights_without_mixing() {
        let scores = [0.25, 1.0];
        let w = ImportanceWeights::from_scores(&scores, 0.5, 0.0);
        // sqrt weights: 0.5 and 1.0 → probabilities 1/3 and 2/3.
        assert!((w.prob(0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((w.prob(1) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn defensive_mixing_floors_probabilities() {
        // With 10% uniform mixing over n records, every probability is at
        // least 0.1/n — so reweighting factors are at most 10.
        let mut scores = vec![0.0; 99];
        scores.push(1.0);
        let w = ImportanceWeights::from_scores(&scores, 0.5, 0.1);
        for i in 0..100 {
            assert!(w.prob(i) >= 0.1 / 100.0 - 1e-15, "index {i}");
            assert!(w.reweight_factor(i) <= 10.0 + 1e-12, "index {i}");
        }
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let scores = [0.2, 0.9, 0.4];
        let w = ImportanceWeights::from_scores(&scores, 0.0, 0.0);
        for i in 0..3 {
            assert!((w.prob(i) - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn all_zero_scores_fall_back_to_uniform() {
        let w = ImportanceWeights::from_scores(&[0.0, 0.0, 0.0, 0.0], 0.5, 0.1);
        for i in 0..4 {
            assert!((w.prob(i) - 0.25).abs() < 1e-12);
            assert!((w.reweight_factor(i) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn reweight_factor_is_inverse_likelihood_ratio() {
        let scores = [0.1, 0.9];
        let w = ImportanceWeights::from_scores(&scores, 1.0, 0.0);
        // Expected value of m(x) under w equals 1 (it is a likelihood ratio).
        let mean_m: f64 = (0..2).map(|i| w.prob(i) * w.reweight_factor(i)).sum();
        assert!((mean_m - 1.0).abs() < 1e-12);
    }

    #[test]
    fn restrict_renormalizes() {
        let scores = [0.1, 0.2, 0.3, 0.4];
        let w = ImportanceWeights::from_scores(&scores, 1.0, 0.0);
        let r = w.restrict(&[2, 3]);
        assert_eq!(r.len(), 2);
        assert!((r.prob(0) - 0.3 / 0.7).abs() < 1e-12);
        assert!((r.prob(1) - 0.4 / 0.7).abs() < 1e-12);
    }

    #[test]
    fn restricted_sampler_matches_restrict_marginals() {
        let scores = [0.1, 0.2, 0.3, 0.4];
        let w = ImportanceWeights::from_scores(&scores, 1.0, 0.0);
        let sampler = w.restricted_sampler(&[2, 3]);
        assert_eq!(sampler.len(), 2);
        // AliasTable normalizes internally, so the marginals equal the
        // explicitly renormalized restriction.
        assert!((sampler.prob(0) - 0.3 / 0.7).abs() < 1e-12);
        assert!((sampler.prob(1) - 0.4 / 0.7).abs() < 1e-12);
    }

    #[test]
    fn exponent_fast_paths_match_powf() {
        let scores: Vec<f64> = (0..50).map(|i| i as f64 / 50.0).collect();
        for &(fast, slow) in &[(0.5, 0.5000000001), (1.0, 0.9999999999)] {
            let a = ImportanceWeights::from_scores(&scores, fast, 0.1);
            let b = ImportanceWeights::from_scores(&scores, slow, 0.1);
            for i in 0..scores.len() {
                assert!((a.prob(i) - b.prob(i)).abs() < 1e-8, "p={fast} index {i}");
            }
        }
        let uniform = ImportanceWeights::from_scores(&scores, 0.0, 0.3);
        for i in 0..scores.len() {
            assert!((uniform.prob(i) - 1.0 / 50.0).abs() < 1e-12);
        }
    }

    #[test]
    fn uniform_constructor() {
        let w = ImportanceWeights::uniform(5);
        assert_eq!(w.len(), 5);
        assert!((w.prob(3) - 0.2).abs() < 1e-15);
        assert!((w.reweight_factor(3) - 1.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_bad_mix() {
        ImportanceWeights::from_scores(&[0.5], 0.5, 1.5);
    }

    #[test]
    #[should_panic(expected = "bad score -0.25 at index 2")]
    fn bad_score_panic_names_index_and_value() {
        // Regression: the validation message used to lose the position.
        ImportanceWeights::from_scores(&[0.5, 0.1, -0.25, 0.9], 0.5, 0.1);
    }

    #[test]
    fn from_powered_matches_from_scores_bitwise() {
        let scores: Vec<f64> = (0..200).map(|i| (i % 37) as f64 / 40.0).collect();
        for &(p, mix) in &[(0.5, 0.1), (1.0, 0.0), (0.0, 0.3), (0.7, 0.25)] {
            let a = ImportanceWeights::from_scores(&scores, p, mix);
            let b = ImportanceWeights::from_powered(apply_exponent(&scores, p), mix);
            for i in 0..scores.len() {
                assert_eq!(a.prob(i).to_bits(), b.prob(i).to_bits(), "p={p} i={i}");
            }
        }
        // All-zero powered mass falls back to uniform, like from_scores.
        let z = ImportanceWeights::from_powered(vec![0.0; 4], 0.1);
        assert!((z.prob(2) - 0.25).abs() < 1e-15);
    }
}

//! Two-stage importance-sampled precision estimation: Algorithm 5, the
//! SUPG default for PT queries.
//!
//! Stage 1 spends half the budget estimating an upper bound `n_match` on the
//! number of positives in the dataset. Since no threshold below the
//! `⌈n_match/γ⌉`-th highest proxy score can possibly achieve precision `γ`,
//! stage 2 restricts its weighted sampling to those top records, which
//! concentrates the remaining half of the budget where candidate thresholds
//! actually live. Each stage receives `δ/2` so the union bound preserves the
//! overall failure probability.

use rand::RngCore;

use super::{precision_threshold, SelectorConfig, TauEstimate, ThresholdSelector};
use crate::error::SupgError;
use crate::oracle::Oracle;
use crate::prepared::DataView;
use crate::query::{ApproxQuery, TargetKind};
use crate::sample::OracleSample;

/// `IS-CI-P` (Algorithm 5): two-stage importance-sampled precision-target
/// threshold estimation. Guarantees `Pr[Precision(R) ≥ γ] ≥ 1 − δ`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoStagePrecision {
    cfg: SelectorConfig,
}

impl TwoStagePrecision {
    /// Creates the selector with the given configuration.
    pub fn new(cfg: SelectorConfig) -> Self {
        Self { cfg }
    }
}

impl ThresholdSelector for TwoStagePrecision {
    fn name(&self) -> &'static str {
        "IS-CI-P"
    }

    fn estimate(
        &self,
        view: DataView<'_>,
        query: &ApproxQuery,
        oracle: &mut dyn Oracle,
        rng: &mut dyn RngCore,
    ) -> Result<TauEstimate, SupgError> {
        debug_assert_eq!(query.target(), TargetKind::Precision);
        let data = view.data();
        let n = data.len();
        let s1 = query.budget() / 2;
        let s2 = query.budget() - s1;
        let artifacts = view.artifacts_with(
            self.cfg.weight_exponent,
            self.cfg.uniform_mix,
            self.cfg.sampler,
        );

        // --- Stage 1: upper-bound the number of matching records. ---
        let sampler = artifacts.sampler();
        let stage1_indices: Vec<usize> = (0..s1).map(|_| sampler.draw(rng)).collect();
        let stage1_factors: Vec<f64> = stage1_indices
            .iter()
            .map(|&i| artifacts.reweight_factor(i))
            .collect();
        let stage1 = OracleSample::label(data, stage1_indices, oracle, |pos| stage1_factors[pos])?;
        let z: Vec<f64> = stage1
            .labels()
            .iter()
            .zip(stage1.reweights())
            .map(|(&o, &m)| if o { m } else { 0.0 })
            .collect();
        let positive_fraction_ub = self
            .cfg
            .ci
            .upper(&z, query.delta() / 2.0, rng)
            .clamp(0.0, 1.0);
        let n_match = (n as f64 * positive_fraction_ub).ceil();

        // No threshold below the (n_match/γ)-th highest score can reach
        // precision γ; restrict stage 2 to the top records.
        let k = ((n_match / query.gamma()).ceil() as usize).clamp(1, n);
        let subset: Vec<usize> = data.top_k(k).iter().map(|&i| i as usize).collect();

        // --- Stage 2: candidate search within the restricted range. ---
        // The restricted sampler renormalizes lazily (inside the alias
        // build) — no intermediate probability vector is copied/divided.
        let sub_sampler = artifacts.restricted_sampler(&subset);
        let stage2_indices: Vec<usize> = (0..s2).map(|_| subset[sub_sampler.sample(rng)]).collect();
        // Reweighting factors from the *global* weights: the ratio
        // estimator is invariant to the constant renormalization between w
        // and w|D′, so the global factors are correct and cheaper to track.
        let stage2_factors: Vec<f64> = stage2_indices
            .iter()
            .map(|&i| artifacts.reweight_factor(i))
            .collect();
        let stage2 = OracleSample::label(data, stage2_indices, oracle, |pos| stage2_factors[pos])?;
        let tau = precision_threshold(&stage2, query.gamma(), query.delta() / 2.0, &self.cfg, rng);

        // Surface every labeled record (both stages) so the executor's R1
        // includes stage-1 positives too.
        let combined = concat_samples(&stage1, &stage2);
        Ok(TauEstimate {
            tau,
            sample: combined,
        })
    }
}

/// Concatenates two labeled samples (used to surface all labeled records).
fn concat_samples(a: &OracleSample, b: &OracleSample) -> OracleSample {
    let mut indices = a.indices().to_vec();
    indices.extend_from_slice(b.indices());
    let mut scores = a.scores().to_vec();
    scores.extend_from_slice(b.scores());
    let mut labels = a.labels().to_vec();
    labels.extend_from_slice(b.labels());
    let mut reweights = a.reweights().to_vec();
    reweights.extend_from_slice(b.reweights());
    OracleSample::from_parts(indices, scores, labels, reweights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::ScoredDataset;
    use crate::metrics::evaluate;
    use crate::oracle::CachedOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use supg_stats::dist::{Bernoulli, Beta};

    fn rare(n: usize, seed: u64) -> (ScoredDataset, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Beta::new(0.05, 2.0);
        let mut scores = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let a = dist.sample(&mut rng);
            scores.push(a);
            labels.push(Bernoulli::new(a).sample(&mut rng));
        }
        (ScoredDataset::new(scores).unwrap(), labels)
    }

    fn result_set(data: &ScoredDataset, est: &TauEstimate) -> Vec<usize> {
        let mut result: Vec<usize> = data.select(est.tau).iter().map(|&i| i as usize).collect();
        result.extend(est.sample.positive_indices());
        result.sort_unstable();
        result.dedup();
        result
    }

    #[test]
    fn two_stage_meets_precision_target() {
        let (data, labels) = rare(50_000, 41);
        let query = ApproxQuery::precision_target(0.8, 0.05, 2_000);
        let mut failures = 0;
        for t in 0..20 {
            let mut oracle = CachedOracle::from_labels(labels.clone(), 2_000);
            let mut rng = StdRng::seed_from_u64(4100 + t);
            let est = TwoStagePrecision::new(SelectorConfig::default())
                .estimate(DataView::cold(&data), &query, &mut oracle, &mut rng)
                .unwrap();
            if evaluate(&result_set(&data, &est), &labels).precision < 0.8 {
                failures += 1;
            }
        }
        assert!(failures <= 2, "{failures}/20 precision failures");
    }

    #[test]
    fn two_stage_recall_at_least_one_stage() {
        // The paper's Figure 7: two-stage matches or beats one-stage.
        // Averaged over a few trials to avoid flakiness.
        let (data, labels) = rare(50_000, 42);
        let query = ApproxQuery::precision_target(0.9, 0.05, 2_000);
        let trials = 5;
        let mut two_recall = 0.0;
        let mut one_recall = 0.0;
        for t in 0..trials {
            let mut o1 = CachedOracle::from_labels(labels.clone(), 2_000);
            let mut o2 = CachedOracle::from_labels(labels.clone(), 2_000);
            let mut r1 = StdRng::seed_from_u64(4200 + t);
            let mut r2 = StdRng::seed_from_u64(4200 + t);
            let two = TwoStagePrecision::new(SelectorConfig::default())
                .estimate(DataView::cold(&data), &query, &mut o1, &mut r1)
                .unwrap();
            let one = super::super::ImportancePrecision::new(SelectorConfig::default())
                .estimate(DataView::cold(&data), &query, &mut o2, &mut r2)
                .unwrap();
            two_recall += evaluate(&result_set(&data, &two), &labels).recall;
            one_recall += evaluate(&result_set(&data, &one), &labels).recall;
        }
        assert!(
            two_recall >= 0.8 * one_recall,
            "two-stage recall {two_recall} vs one-stage {one_recall}"
        );
    }

    #[test]
    fn budget_is_split_and_respected() {
        let (data, labels) = rare(20_000, 43);
        let query = ApproxQuery::precision_target(0.9, 0.05, 1_001);
        let mut oracle = CachedOracle::from_labels(labels, 1_001);
        let mut rng = StdRng::seed_from_u64(44);
        let est = TwoStagePrecision::new(SelectorConfig::default())
            .estimate(DataView::cold(&data), &query, &mut oracle, &mut rng)
            .unwrap();
        assert!(oracle.calls_used() <= 1_001);
        // Both stages' draws are surfaced.
        assert_eq!(est.sample.len(), 1_001);
    }

    #[test]
    fn degenerate_all_negative_dataset() {
        let scores: Vec<f64> = (0..5_000).map(|i| i as f64 / 5_000.0).collect();
        let data = ScoredDataset::new(scores).unwrap();
        let labels = vec![false; 5_000];
        let query = ApproxQuery::precision_target(0.9, 0.05, 400);
        let mut oracle = CachedOracle::from_labels(labels, 400);
        let mut rng = StdRng::seed_from_u64(45);
        let est = TwoStagePrecision::new(SelectorConfig::default())
            .estimate(DataView::cold(&data), &query, &mut oracle, &mut rng)
            .unwrap();
        // Nothing is certifiable; the selector must fall back to ∞.
        assert_eq!(est.tau, f64::INFINITY);
    }
}

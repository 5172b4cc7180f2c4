//! Property-based tests for the SUPG core invariants.

use std::collections::HashMap;

use proptest::prelude::*;
use supg_core::selectors::SelectorConfig;
use supg_core::{
    ApproxQuery, BatchOracle, CachedOracle, Oracle, OracleSample, RuntimeConfig, ScoredDataset,
    SelectorKind, SupgError, SupgSession, TargetKind,
};

/// Strategy: a small dataset of (score, label) pairs with at least one
/// record.
fn dataset_strategy() -> impl Strategy<Value = (Vec<f64>, Vec<bool>)> {
    prop::collection::vec((0.0f64..=1.0, any::<bool>()), 10..300)
        .prop_map(|pairs| pairs.into_iter().unzip())
}

/// Every registry entry as `(kind, target)` pairs.
fn all_registry_pairs() -> Vec<(SelectorKind, TargetKind)> {
    SelectorKind::registry().collect()
}

/// One step against a [`CachedOracle`].
#[derive(Debug, Clone)]
enum OracleOp {
    Label(usize),
    Batch(Vec<usize>),
    SetBudget(usize),
}

/// Strategy: single labels, batches over (and past) the record range,
/// duplicate-heavy batches, and budget changes.
fn oracle_op() -> impl Strategy<Value = OracleOp> {
    prop_oneof![
        (0usize..64).prop_map(OracleOp::Label),
        prop::collection::vec(0usize..64, 0..40).prop_map(OracleOp::Batch),
        prop::collection::vec(0usize..6, 0..20).prop_map(OracleOp::Batch),
        (0usize..48).prop_map(OracleOp::SetBudget),
    ]
}

/// The labels behind every oracle in the model test: a pure function of
/// the index.
fn model_truth(i: usize) -> bool {
    (i * 7_919) % 5 < 2
}

/// Reference model of [`CachedOracle`]: a plain map, labeled strictly
/// record by record.
struct ModelOracle {
    len: usize,
    budget: usize,
    used: usize,
    cache: HashMap<usize, bool>,
}

impl ModelOracle {
    fn label(&mut self, index: usize) -> Result<bool, SupgError> {
        if index >= self.len {
            return Err(SupgError::IndexOutOfRange {
                index,
                len: self.len,
            });
        }
        if let Some(&label) = self.cache.get(&index) {
            return Ok(label);
        }
        if self.used >= self.budget {
            return Err(SupgError::BudgetExhausted {
                budget: self.budget,
            });
        }
        let label = model_truth(index);
        self.cache.insert(index, label);
        self.used += 1;
        Ok(label)
    }

    fn known_positives(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .cache
            .iter()
            .filter(|&(_, &label)| label)
            .map(|(&i, _)| i)
            .collect();
        out.sort_unstable();
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cached_oracle_matches_a_hash_map_model(
        len in 1usize..60,
        budget in 0usize..48,
        ops in prop::collection::vec(oracle_op(), 1..30),
    ) {
        // Serial and shared sources, sequential and on a 4-worker pool
        // with batches small enough to span many workers.
        for (shared, parallelism) in [(false, 1), (false, 4), (true, 1), (true, 4)] {
            let runtime = RuntimeConfig::default()
                .with_parallelism(parallelism)
                .with_batch_size(3);
            let oracle = if shared {
                CachedOracle::parallel(len, budget, model_truth)
            } else {
                CachedOracle::new(len, budget, model_truth)
            };
            let mut oracle = oracle.with_runtime(runtime);
            let mut model = ModelOracle { len, budget, used: 0, cache: HashMap::new() };
            let case = format!("shared={shared} p={parallelism}");
            for op in &ops {
                match op {
                    OracleOp::Label(i) => {
                        prop_assert_eq!(oracle.label(*i), model.label(*i), "{} {:?}", case, op);
                    }
                    OracleOp::Batch(batch) => {
                        let expected: Result<Vec<bool>, SupgError> =
                            batch.iter().map(|&i| model.label(i)).collect();
                        prop_assert_eq!(oracle.label_batch(batch), expected, "{} {:?}", case, op);
                    }
                    OracleOp::SetBudget(b) => {
                        oracle.set_budget(*b);
                        model.budget = *b;
                    }
                }
                prop_assert_eq!(oracle.calls_used(), model.used, "{} {:?}", case, op);
                for i in 0..len + 8 {
                    prop_assert_eq!(oracle.cached(i), model.cache.get(&i).copied(), "{} record {}", case, i);
                }
                prop_assert_eq!(oracle.known_positives(), model.known_positives(), "{}", case);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn no_selector_ever_exceeds_the_budget(
        (scores, labels) in dataset_strategy(),
        budget in 4usize..60,
        seed in 0u64..1000,
    ) {
        let data = ScoredDataset::new(scores).unwrap();
        for (kind, target) in all_registry_pairs() {
            let query = ApproxQuery::new(target, 0.8, 0.1, budget).unwrap();
            let owned = labels.clone();
            let mut oracle = CachedOracle::new(owned.len(), budget, move |i| owned[i]);
            let result = SupgSession::over(&data)
                .query(&query)
                .selector(kind)
                .selector_config(SelectorConfig::default().with_precision_step(5))
                .seed(seed)
                .run(&mut oracle);
            let name = kind.paper_name(target).unwrap();
            prop_assert!(result.is_ok(), "{name}: {:?}", result.err());
            prop_assert!(oracle.calls_used() <= budget, "{name} overspent");
            prop_assert_eq!(result.unwrap().selector, name);
        }
    }

    #[test]
    fn executor_result_contains_all_sampled_positives(
        (scores, labels) in dataset_strategy(),
        seed in 0u64..1000,
    ) {
        let data = ScoredDataset::new(scores).unwrap();
        let budget = 20;
        let query = ApproxQuery::recall_target(0.9, 0.1, budget);
        let owned = labels.clone();
        let mut oracle = CachedOracle::new(owned.len(), budget, move |i| owned[i]);
        let outcome = SupgSession::over(&data)
            .query(&query)
            .selector(SelectorKind::Uniform)
            .seed(seed)
            .run(&mut oracle)
            .unwrap();
        // Every record the oracle labeled positive must be in the result.
        for idx in oracle.known_positives() {
            prop_assert!(outcome.result.contains(idx));
        }
        // Every returned record is above τ or a known positive.
        for idx in outcome.result.iter() {
            let above = data.score(idx) >= outcome.tau;
            let known = oracle.cached(idx) == Some(true);
            prop_assert!(above || known);
        }
    }

    #[test]
    fn recall_curve_is_monotone_in_tau(
        pairs in prop::collection::vec((0.0f64..=1.0, any::<bool>(), 0.2f64..5.0), 1..100),
    ) {
        let indices: Vec<usize> = (0..pairs.len()).collect();
        let scores: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let labels: Vec<bool> = pairs.iter().map(|p| p.1).collect();
        let weights: Vec<f64> = pairs.iter().map(|p| p.2).collect();
        let sample = OracleSample::from_parts(indices, scores, labels, weights);
        let mut last = f64::INFINITY;
        for i in 0..=20 {
            let tau = i as f64 / 20.0;
            let r = sample.recall_at(tau);
            prop_assert!(r <= last + 1e-9, "recall increased with tau");
            prop_assert!((0.0..=1.0 + 1e-9).contains(&r));
            last = r;
        }
    }

    #[test]
    fn max_tau_for_recall_achieves_requested_recall(
        pairs in prop::collection::vec((0.0f64..=1.0, any::<bool>(), 0.2f64..5.0), 1..100),
        gamma in 0.05f64..=1.0,
    ) {
        let scores: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let labels: Vec<bool> = pairs.iter().map(|p| p.1).collect();
        let weights: Vec<f64> = pairs.iter().map(|p| p.2).collect();
        let sample = OracleSample::from_parts(
            (0..pairs.len()).collect(), scores, labels, weights,
        );
        if let Some(tau) = sample.max_tau_for_recall(gamma) {
            prop_assert!(sample.recall_at(tau) + 1e-9 >= gamma.min(1.0));
        } else {
            prop_assert_eq!(sample.positive_count(), 0);
        }
    }

    #[test]
    fn selection_is_consistent_with_counts(
        scores in prop::collection::vec(0.0f64..=1.0, 1..200),
        tau in 0.0f64..=1.0,
    ) {
        let data = ScoredDataset::new(scores.clone()).unwrap();
        let selected = data.select(tau);
        prop_assert_eq!(selected.len(), data.count_at_least(tau));
        let direct = scores.iter().filter(|&&s| s >= tau).count();
        prop_assert_eq!(selected.len(), direct);
        for &i in selected {
            prop_assert!(scores[i as usize] >= tau);
        }
    }

    #[test]
    fn top_k_is_a_superset_of_k(scores in prop::collection::vec(0.0f64..=1.0, 1..100), k in 1usize..100) {
        let data = ScoredDataset::new(scores).unwrap();
        let top = data.top_k(k);
        prop_assert!(top.len() >= k.min(data.len()));
        // Everything in the top-k set scores at least the k-th score.
        let kth = data.kth_highest_score(k);
        for &i in top {
            prop_assert!(data.score(i as usize) >= kth);
        }
    }

    #[test]
    fn oracle_cache_makes_repeats_free(
        labels in prop::collection::vec(any::<bool>(), 1..100),
        queries in prop::collection::vec(0usize..100, 1..50),
    ) {
        let n = labels.len();
        let mut oracle = CachedOracle::from_labels(labels.clone(), n);
        let mut distinct = std::collections::HashSet::new();
        for q in queries {
            let idx = q % n;
            distinct.insert(idx);
            let got = oracle.label(idx).unwrap();
            prop_assert_eq!(got, labels[idx]);
        }
        prop_assert_eq!(oracle.calls_used(), distinct.len());
    }
}

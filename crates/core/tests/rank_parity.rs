//! Parity and determinism contracts of the rank-index serving path:
//!
//! 1. **Materialization parity.** `RankIndex` set materialization (binary
//!    search + rank-prefix slice) must be bit-identical to the retained
//!    linear-scan reference (`rank::materialize_linear`) across random
//!    datasets, heavy score ties, and thresholds falling exactly on,
//!    between, and outside the score boundaries.
//! 2. **JT rank-range parity.** The joint pipeline's rank-range candidate
//!    enumeration and exhaustive filter must reproduce the reference
//!    computed by a linear predicate pass over all scores.
//! 3. **Build determinism.** The parallel chunked-sort + pairwise-merge
//!    build must be bit-identical to the serial build at every
//!    parallelism / run count — the canonical comparator is a strict
//!    total order, so the sorted permutation is unique and no
//!    floating-point accumulation exists anywhere in the build.

use proptest::prelude::*;
use supg_core::rank::{materialize_linear, RankIndex};
use supg_core::{CachedOracle, ResultView, RuntimeConfig, ScoredDataset, SupgSession};

/// Quantized scores (÷ granularity) so every dataset carries heavy ties.
fn tied_dataset() -> impl Strategy<Value = Vec<f64>> {
    (2u32..40, prop::collection::vec(0u32..4000, 1..400)).prop_map(|(gran, raw)| {
        raw.into_iter()
            .map(|q| (q % (gran + 1)) as f64 / gran as f64)
            .collect()
    })
}

/// Thresholds that land on, between, and outside the score boundaries.
fn taus_for(scores: &[f64]) -> Vec<f64> {
    let mut taus = vec![-1.0, 0.0, 1.0, 1.5, f64::INFINITY];
    for &s in scores.iter().take(8) {
        taus.push(s); // exactly at a boundary
        taus.push(s + 1e-9); // just above
        taus.push((s - 1e-9).max(0.0)); // just below
    }
    taus
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rank_materialization_is_bit_identical_to_linear_scan(scores in tied_dataset()) {
        let index = RankIndex::build_serial(&scores);
        for tau in taus_for(&scores) {
            let rank = index.materialize(tau);
            let linear = materialize_linear(&scores, tau);
            prop_assert_eq!(&rank, &linear, "tau={}", tau);
            prop_assert_eq!(index.cut_for(tau), linear.len());
            // The borrowed prefix slice agrees with the owned copy.
            let slice: Vec<usize> = index.select(tau).iter().map(|&i| i as usize).collect();
            prop_assert_eq!(&rank, &slice);
        }
    }

    #[test]
    fn union_materialization_matches_the_linear_reference(
        scores in tied_dataset(),
        extra_picks in prop::collection::vec(0usize..10_000, 0..20),
    ) {
        let data = ScoredDataset::new(scores.clone()).unwrap();
        // Extras as a sorted, deduplicated index set (the labeled-positive
        // shape the session feeds in).
        let mut extras: Vec<usize> = extra_picks.iter().map(|p| p % scores.len()).collect();
        extras.sort_unstable();
        extras.dedup();
        for tau in taus_for(&scores) {
            let fused = ResultView::over(&data, tau, &extras).to_result().indices().to_vec();
            // Reference: linear threshold set, then the extras the linear
            // set does not already contain.
            let mut reference = materialize_linear(&scores, tau);
            let below: Vec<usize> = extras
                .iter()
                .copied()
                .filter(|&i| scores[i] < tau)
                .collect();
            reference.extend_from_slice(&below);
            prop_assert_eq!(&fused, &reference, "tau={}", tau);
            // Duplicate-free by construction.
            let mut seen = fused.clone();
            seen.sort_unstable();
            seen.dedup();
            prop_assert_eq!(seen.len(), fused.len());
        }
    }

    #[test]
    fn parallel_and_chunked_builds_are_bit_identical(scores in tied_dataset()) {
        let serial = RankIndex::build_serial(&scores);
        for parallelism in [1usize, 4, 8] {
            let rt = RuntimeConfig::default().with_parallelism(parallelism);
            prop_assert_eq!(&RankIndex::build(&scores, &rt), &serial);
        }
        for runs in [2usize, 3, 8] {
            prop_assert_eq!(&RankIndex::build_chunked(&scores, runs), &serial);
        }
    }
}

/// The parallel sort/merge machinery at scale (above the serial-fallback
/// threshold), pinned at parallelism ∈ {1, 4, 8} and across run counts,
/// on a tie-heavy dataset.
#[test]
fn large_parallel_build_is_deterministic() {
    let scores: Vec<f64> = (0..120_000)
        .map(|i| ((i * 7919) % 1000) as f64 / 1000.0)
        .collect();
    let serial = RankIndex::build_serial(&scores);
    for parallelism in [1usize, 4, 8] {
        let rt = RuntimeConfig::default().with_parallelism(parallelism);
        assert_eq!(
            RankIndex::build(&scores, &rt),
            serial,
            "parallelism={parallelism}"
        );
    }
    for runs in [2usize, 5, 8, 16] {
        assert_eq!(
            RankIndex::build_chunked(&scores, runs),
            serial,
            "runs={runs}"
        );
    }
    // Order really is (score desc, index asc): explicit spot-check of a
    // tie class.
    let order = serial.order();
    for w in order.windows(2) {
        let (a, b) = (w[0] as usize, w[1] as usize);
        assert!(
            scores[a] > scores[b] || (scores[a] == scores[b] && a < b),
            "canonical order violated at {a},{b}"
        );
    }
}

/// An RT query's result must be exactly the linear-scan reconstruction:
/// the linear-scan threshold set (in canonical order) followed by the
/// below-threshold labeled positives — bit-identical indices, whether the
/// index was built lazily (serial) or eagerly on the pool.
#[test]
fn rt_query_result_matches_linear_scan_reconstruction() {
    let scores: Vec<f64> = (0..30_000)
        .map(|i| ((i * 523) % 701) as f64 / 701.0)
        .collect();
    let labels: Vec<bool> = scores.iter().map(|&s| s > 0.75).collect();

    let run = |data: &ScoredDataset| {
        let mut oracle = CachedOracle::from_labels(labels.clone(), 800);
        SupgSession::over(data)
            .recall(0.9)
            .budget(800)
            .seed(91)
            .run(&mut oracle)
            .unwrap()
    };

    let lazy_data = ScoredDataset::new(scores.clone()).unwrap();
    let outcome = run(&lazy_data);

    // Reconstruct from the linear reference: R2 in canonical order, then
    // the oracle-positive draws with score < τ, ascending.
    let mut expected = materialize_linear(&scores, outcome.tau);
    let in_r2: std::collections::HashSet<usize> = expected.iter().copied().collect();
    let mut extras: Vec<usize> = (0..scores.len())
        .filter(|&i| labels[i] && scores[i] < outcome.tau)
        .filter(|i| !in_r2.contains(i))
        .collect();
    // Only sampled positives are in R1; intersect with the result set.
    extras.retain(|&i| outcome.result.contains(i));
    expected.extend_from_slice(&extras);
    assert_eq!(outcome.result.indices(), expected.as_slice());

    // Pool-built index (8 workers) reproduces the outcome bit-for-bit.
    let pooled_data = ScoredDataset::new(scores).unwrap();
    pooled_data.prepare_rank_index(&RuntimeConfig::default().with_parallelism(8));
    let pooled = run(&pooled_data);
    assert_eq!(pooled.result.indices(), outcome.result.indices());
    assert_eq!(pooled.tau.to_bits(), outcome.tau.to_bits());
}

/// The JT pipeline's rank-range filter must keep exactly the
/// oracle-positive candidates, in candidate (rank) order — the same set a
/// linear predicate pass over every score would produce.
#[test]
fn jt_filter_matches_linear_scan_reference() {
    let scores: Vec<f64> = (0..20_000)
        .map(|i| ((i * 997) % 613) as f64 / 613.0)
        .collect();
    let labels: Vec<bool> = scores.iter().map(|&s| s > 0.6).collect();
    let data = ScoredDataset::new(scores.clone()).unwrap();
    let mut oracle = CachedOracle::from_labels(labels.clone(), 0);
    let outcome = SupgSession::over(&data)
        .recall(0.85)
        .precision(0.9)
        .joint(600)
        .seed(17)
        .run(&mut oracle)
        .unwrap();
    assert!(outcome.joint);

    // Reference: every result record is oracle-positive, and every
    // τ-selected positive (linear scan) is in the result.
    for &i in outcome.result.indices() {
        assert!(labels[i], "JT kept an oracle-negative record {i}");
    }
    let reference: Vec<usize> = materialize_linear(&scores, outcome.tau)
        .into_iter()
        .filter(|&i| labels[i])
        .collect();
    // The τ-selected positives appear in the result in the same rank
    // order (the result may additionally hold below-τ sampled positives).
    let from_range: Vec<usize> = outcome
        .result
        .indices()
        .iter()
        .copied()
        .filter(|&i| scores[i] >= outcome.tau)
        .collect();
    assert_eq!(from_range, reference);
}

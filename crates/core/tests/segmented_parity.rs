//! Flat ≡ segmented parity: a session over a [`SegmentedDataset`] must
//! produce a `QueryOutcome` **bit-identical** to a session over the flat
//! [`ScoredDataset`] of the same scores — same `τ` bits, same result
//! order, same oracle-call accounting — at every segment size, every
//! parallelism level, for RT, PT and JT queries alike, and under every
//! sampler strategy (`Alias`, `Cdf` and `Auto`). Segments are a way to
//! construct a corpus: a segmented dataset holds one flat dataset, so
//! these suites pin the constructor, and the pooled rank build of its
//! prepared form, against the serial flat path.

use proptest::prelude::*;
use supg_core::{
    CachedOracle, PreparedDataset, QueryOutcome, RuntimeConfig, SamplerStrategy, ScoredDataset,
    SegmentedDataset, SelectorKind, SupgSession, TargetKind,
};

const STRATEGIES: [SamplerStrategy; 3] = [
    SamplerStrategy::Alias,
    SamplerStrategy::Cdf,
    SamplerStrategy::Auto,
];

/// Beta-distributed proxy scores with Bernoulli(A) labels — the rare-
/// positive regime the paper targets.
fn rare(n: usize, seed: u64) -> (Vec<f64>, Vec<bool>) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use supg_stats::dist::{Bernoulli, Beta};
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = Beta::new(0.08, 2.0);
    let mut scores = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let a = dist.sample(&mut rng);
        scores.push(a);
        labels.push(Bernoulli::new(a).sample(&mut rng));
    }
    (scores, labels)
}

fn assert_outcomes_identical(a: &QueryOutcome, b: &QueryOutcome, context: &str) {
    assert_eq!(a.tau.to_bits(), b.tau.to_bits(), "{context}: tau");
    assert_eq!(
        a.result.indices(),
        b.result.indices(),
        "{context}: result set (order-sensitive)"
    );
    assert_eq!(a.oracle_calls, b.oracle_calls, "{context}: oracle calls");
    assert_eq!(a.stage_calls, b.stage_calls, "{context}: stage calls");
    assert_eq!(a.filter_calls, b.filter_calls, "{context}: filter calls");
    assert_eq!(a.sample_draws, b.sample_draws, "{context}: draws");
    assert_eq!(
        a.sample_positives, b.sample_positives,
        "{context}: positives"
    );
    assert_eq!(a.candidates, b.candidates, "{context}: candidates");
    assert_eq!(a.selector, b.selector, "{context}: selector");
}

#[derive(Clone, Copy, Debug)]
enum Mode {
    Recall,
    Precision,
    Joint,
}

fn run_mode(
    session: SupgSession<'_>,
    mode: Mode,
    strategy: SamplerStrategy,
    labels: &[bool],
    seed: u64,
) -> QueryOutcome {
    let session = session.sampler_strategy(strategy);
    match mode {
        Mode::Recall => {
            let mut oracle = CachedOracle::from_labels(labels.to_vec(), 400);
            session
                .recall(0.9)
                .budget(400)
                .seed(seed)
                .run(&mut oracle)
                .unwrap()
        }
        Mode::Precision => {
            let mut oracle = CachedOracle::from_labels(labels.to_vec(), 400);
            session
                .precision(0.8)
                .budget(400)
                .seed(seed)
                .run(&mut oracle)
                .unwrap()
        }
        Mode::Joint => {
            let mut oracle = CachedOracle::from_labels(labels.to_vec(), 0);
            session
                .recall(0.8)
                .precision(0.9)
                .joint(300)
                .seed(seed)
                .run(&mut oracle)
                .unwrap()
        }
    }
}

#[test]
fn segmented_matches_flat_across_layouts_targets_and_parallelism() {
    let n = 3_000;
    let (scores, labels) = rare(n, 99);
    let data = ScoredDataset::new(scores.clone()).unwrap();
    for segment_size in [1usize, 64, n / 3, n] {
        let seg = SegmentedDataset::new(scores.clone(), segment_size).unwrap();
        for parallelism in [1usize, 4, 8] {
            for mode in [Mode::Recall, Mode::Precision, Mode::Joint] {
                for strategy in STRATEGIES {
                    let flat = SupgSession::over(&data).parallelism(parallelism);
                    let flat = run_mode(flat, mode, strategy, &labels, 4242);
                    let segd = SupgSession::over(&seg).parallelism(parallelism);
                    let segd = run_mode(segd, mode, strategy, &labels, 4242);
                    assert_outcomes_identical(
                        &flat,
                        &segd,
                        &format!("{mode:?} {strategy:?} seg={segment_size} p={parallelism}"),
                    );
                }
            }
        }
    }
}

#[test]
fn segmented_matches_flat_for_every_registry_selector() {
    let n = 2_000;
    let (scores, labels) = rare(n, 101);
    let data = ScoredDataset::new(scores.clone()).unwrap();
    let seg = SegmentedDataset::new(scores, 256).unwrap();
    for (kind, target) in SelectorKind::registry() {
        for strategy in STRATEGIES {
            let run = |session: SupgSession<'_>| -> QueryOutcome {
                let session = match target {
                    TargetKind::Recall => session.recall(0.9),
                    TargetKind::Precision => session.precision(0.85),
                };
                let mut oracle = CachedOracle::from_labels(labels.clone(), 500);
                session
                    .sampler_strategy(strategy)
                    .budget(500)
                    .selector(kind)
                    .seed(7)
                    .run(&mut oracle)
                    .unwrap()
            };
            let flat = run(SupgSession::over(&data));
            let segd = run(SupgSession::over(&seg));
            let name = kind.paper_name(target).unwrap();
            assert_outcomes_identical(&flat, &segd, &format!("{name} {strategy:?}"));
        }
    }
}

#[test]
fn prepared_segmented_matches_cold_flat() {
    // The full serving path: the rank index and sampling artifacts
    // built eagerly on an 8-wide pool, served from the
    // prepared cache — against a from-scratch flat cold session, and
    // against a flat preparation with the same history (under `Auto` the
    // backend follows the cache state: warmed means alias, while a cold
    // session draws through the CDF).
    let n = 6_000;
    let (scores, labels) = rare(n, 103);
    let data = ScoredDataset::new(scores.clone()).unwrap();
    let rt = RuntimeConfig::default().with_parallelism(8);
    for strategy in STRATEGIES {
        let prepared = PreparedDataset::from_segmented(
            SegmentedDataset::new(scores.clone(), 1 << 10).unwrap(),
        )
        .with_runtime(rt);
        let prepared_flat = PreparedDataset::new(data.clone()).with_runtime(rt);
        let cfg = supg_core::selectors::SelectorConfig {
            sampler: strategy,
            ..Default::default()
        };
        for p in [&prepared, &prepared_flat] {
            p.prepare();
            p.warm(&cfg);
        }
        let run = |session: SupgSession<'_>| {
            let mut oracle = CachedOracle::from_labels(labels.clone(), 600);
            session
                .sampler_strategy(strategy)
                .recall(0.9)
                .budget(600)
                .seed(4711)
                .run(&mut oracle)
                .unwrap()
        };
        let warm = run(SupgSession::over(&prepared));
        let warm_flat = run(SupgSession::over(&prepared_flat));
        assert_outcomes_identical(&warm_flat, &warm, &format!("prepared {strategy:?}"));
        if strategy != SamplerStrategy::Auto {
            let cold = run(SupgSession::over(&data));
            assert_outcomes_identical(&cold, &warm, &format!("cold flat {strategy:?}"));
        }
        // Repeat queries hit the cache, never rebuild.
        let again = run(SupgSession::over(&prepared));
        assert_outcomes_identical(&warm, &again, &format!("prepared {strategy:?} (warm)"));
        assert_eq!(prepared.cached_recipes(), 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Randomized layouts and seeds: any segment size from one record to
    // the whole corpus, any seed, RT and PT, any sampler strategy — flat
    // and segmented outcomes stay bit-identical.
    #[test]
    fn segmented_parity_holds_for_random_layouts(
        n in 200usize..1200,
        segment_size in 1usize..1400,
        seed in 0u64..10_000,
        recall_target in any::<bool>(),
        strategy in 0usize..STRATEGIES.len(),
    ) {
        let strategy = STRATEGIES[strategy];
        let (scores, labels) = rare(n, seed ^ 0xDEAD_BEEF);
        let data = ScoredDataset::new(scores.clone()).unwrap();
        let seg = SegmentedDataset::new(scores, segment_size.min(n)).unwrap();
        let mode = if recall_target { Mode::Recall } else { Mode::Precision };
        let flat = run_mode(SupgSession::over(&data), mode, strategy, &labels, seed);
        let segd = run_mode(SupgSession::over(&seg), mode, strategy, &labels, seed);
        assert_outcomes_identical(&flat, &segd, &format!("{mode:?} {strategy:?} n={n} seg={segment_size} seed={seed}"));
    }
}

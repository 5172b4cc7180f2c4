//! Cross-path parity & determinism contracts of the cold-start serving
//! path:
//!
//! 1. **Sampler-strategy contracts.** `SamplerStrategy::Alias` and
//!    `::Cdf` consume the seeded RNG stream differently (alias: uniform
//!    index + uniform float per draw; CDF: one uniform float), so their
//!    outcomes differ — each strategy is therefore pinned individually:
//!    bit-exact determinism per (data, seed, strategy), prepared ≡ cold
//!    bit-parity *within* each strategy, and identical guarantee
//!    accounting across strategies (budget respected, draws = budget,
//!    result = `D(τ) ∪ R1`, duplicate-free).
//! 2. **Auto transitions.** `SamplerStrategy::Auto` must serve the exact
//!    CDF outcome while a recipe is cold and the exact alias outcome once
//!    it recurs (or was warmed), through one rule: unplanned and planned
//!    `Auto` sessions keep identical outcomes and cache state.
//! 3. **Alias-build determinism.** The chunk-partitioned Vose feed build
//!    must produce bit-identical tables at every parallelism and explicit
//!    chunk count — mirroring `rank_parity.rs`'s build-determinism cases.
//! 4. **`ResultView` vs the linear reference.** Views over flat and
//!    segment-constructed datasets, and `retain`-filtered views, must agree with a linear-scan reference —
//!    same order, membership, bounds and duplicate-freedom — at
//!    thresholds on, between and outside the score boundaries, and
//!    `run_view` must reproduce `run` bit-for-bit.
//! 5. **One canonical sample order.** `OracleSample::label` and
//!    `OracleSample::from_parts` order a sample identically — by the
//!    packed `(score desc, index asc, draw position asc)` key — over flat
//!    and segment-constructed datasets alike.

use std::sync::Arc;

use proptest::prelude::*;
use supg_core::rank::materialize_linear;
use supg_core::selectors::SelectorConfig;
use supg_core::session::SessionData;
use supg_core::{
    CachedOracle, OracleSample, Planner, PreparedDataset, QueryOutcome, RecipeState, ResultView,
    RuntimeConfig, SamplerStrategy, ScoredDataset, SegmentedDataset, SelectionResult, SelectorKind,
    SupgSession, WeightArtifacts,
};

fn rare(n: usize, seed: u64) -> (ScoredDataset, Vec<bool>) {
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
    (ScoredDataset::new(scores).unwrap(), labels)
}

fn run_strategy(
    session: SupgSession<'_>,
    labels: &[bool],
    budget: usize,
    strategy: SamplerStrategy,
    seed: u64,
) -> QueryOutcome {
    let mut oracle = CachedOracle::from_labels(labels.to_vec(), budget);
    session
        .recall(0.9)
        .budget(budget)
        .selector(SelectorKind::ImportanceSampling)
        .sampler_strategy(strategy)
        .seed(seed)
        .run(&mut oracle)
        .unwrap()
}

fn assert_outcomes_identical(a: &QueryOutcome, b: &QueryOutcome, context: &str) {
    assert_eq!(a.tau.to_bits(), b.tau.to_bits(), "{context}: tau");
    assert_eq!(a.result.indices(), b.result.indices(), "{context}: result");
    assert_eq!(a.oracle_calls, b.oracle_calls, "{context}: oracle calls");
    assert_eq!(a.sample_draws, b.sample_draws, "{context}: draws");
    assert_eq!(
        a.sample_positives, b.sample_positives,
        "{context}: positives"
    );
}

/// The Algorithm-1 result-set contract every strategy must satisfy:
/// `R = D(τ) ∪ R1` — each returned record is above the threshold or a
/// labeled positive — duplicate-free, in-bounds, with the full threshold
/// set present.
fn assert_guarantee_accounting(
    outcome: &QueryOutcome,
    data: &ScoredDataset,
    labels: &[bool],
    budget: usize,
    context: &str,
) {
    assert!(
        outcome.oracle_calls <= budget,
        "{context}: {} oracle calls > budget {budget}",
        outcome.oracle_calls
    );
    assert_eq!(outcome.sample_draws, budget, "{context}: draw count");
    assert_eq!(outcome.filter_calls, 0, "{context}: no JT filter ran");
    assert_eq!(outcome.candidates, outcome.result.len(), "{context}");
    let mut seen = outcome.result.indices().to_vec();
    seen.sort_unstable();
    let dedup_len = {
        let mut d = seen.clone();
        d.dedup();
        d.len()
    };
    assert_eq!(dedup_len, outcome.result.len(), "{context}: duplicates");
    for &i in outcome.result.indices() {
        assert!(i < data.len(), "{context}: index {i} out of bounds");
        assert!(
            data.score(i) >= outcome.tau || labels[i],
            "{context}: record {i} below τ and not a labeled positive"
        );
    }
    // The threshold set is fully present.
    assert_eq!(
        outcome
            .result
            .indices()
            .iter()
            .filter(|&&i| data.score(i) >= outcome.tau)
            .count(),
        data.count_at_least(outcome.tau),
        "{context}: D(τ) incomplete"
    );
}

#[test]
fn each_strategy_is_deterministic_and_guaranteed_accountable() {
    let (data, labels) = rare(20_000, 70);
    let budget = 800;
    for strategy in [SamplerStrategy::Alias, SamplerStrategy::Cdf] {
        let a = run_strategy(SupgSession::over(&data), &labels, budget, strategy, 404);
        let b = run_strategy(SupgSession::over(&data), &labels, budget, strategy, 404);
        assert_outcomes_identical(&a, &b, &format!("{strategy:?} determinism"));
        assert_guarantee_accounting(&a, &data, &labels, budget, &format!("{strategy:?}"));
    }
}

#[test]
fn prepared_matches_cold_within_each_strategy() {
    // The prepared ≡ cold bit-parity contract holds per strategy — for
    // Cdf too, because the CDF build is the same serial prefix sum
    // wherever it runs.
    let (data, labels) = rare(16_000, 71);
    let prepared = PreparedDataset::new(data.clone());
    for strategy in [SamplerStrategy::Alias, SamplerStrategy::Cdf] {
        let cold = run_strategy(SupgSession::over(&data), &labels, 700, strategy, 31);
        let warm = run_strategy(SupgSession::over(&prepared), &labels, 700, strategy, 31);
        assert_outcomes_identical(&cold, &warm, &format!("{strategy:?} prepared vs cold"));
    }
    // Distinct backends cache under distinct keys.
    assert_eq!(prepared.cached_recipes(), 2);
}

#[test]
fn auto_serves_cdf_cold_and_alias_once_recurring() {
    let (data, labels) = rare(16_000, 72);

    // Cold views resolve Auto to the one-shot CDF build.
    let auto_cold = run_strategy(
        SupgSession::over(&data),
        &labels,
        700,
        SamplerStrategy::Auto,
        5,
    );
    let cdf_cold = run_strategy(
        SupgSession::over(&data),
        &labels,
        700,
        SamplerStrategy::Cdf,
        5,
    );
    assert_outcomes_identical(&auto_cold, &cdf_cold, "cold Auto ≡ Cdf");

    // Prepared: first request = CDF, cached at first sight; the second
    // request promotes the recipe to the cached alias table.
    let prepared = PreparedDataset::new(data.clone());
    let q1 = run_strategy(
        SupgSession::over(&prepared),
        &labels,
        700,
        SamplerStrategy::Auto,
        5,
    );
    assert_outcomes_identical(&q1, &cdf_cold, "prepared Auto first query ≡ Cdf");
    assert_eq!(prepared.cached_recipes(), 1, "first sight caches the CDF");

    let alias_ref = run_strategy(
        SupgSession::over(&data),
        &labels,
        700,
        SamplerStrategy::Alias,
        5,
    );
    let q2 = run_strategy(
        SupgSession::over(&prepared),
        &labels,
        700,
        SamplerStrategy::Auto,
        5,
    );
    assert_outcomes_identical(&q2, &alias_ref, "prepared Auto second query ≡ Alias");
    assert_eq!(prepared.cached_recipes(), 2, "promotion cached the alias");
    let q3 = run_strategy(
        SupgSession::over(&prepared),
        &labels,
        700,
        SamplerStrategy::Auto,
        5,
    );
    assert_outcomes_identical(&q3, &alias_ref, "prepared Auto steady state");
    assert_eq!(prepared.cached_recipes(), 2);
}

#[test]
fn warming_promotes_auto_to_alias_immediately() {
    let (data, labels) = rare(12_000, 73);
    let prepared = PreparedDataset::new(data.clone());
    prepared.warm(&supg_core::selectors::SelectorConfig::default());
    let alias_ref = run_strategy(
        SupgSession::over(&data),
        &labels,
        500,
        SamplerStrategy::Alias,
        8,
    );
    let warmed = run_strategy(
        SupgSession::over(&prepared),
        &labels,
        500,
        SamplerStrategy::Auto,
        8,
    );
    assert_outcomes_identical(&warmed, &alias_ref, "warmed Auto ≡ Alias");
}

/// An `Auto` session over `prepared` for target `which` (0 = RT, 1 = PT,
/// 2 = JT) with the given weight recipe.
fn auto_session(
    prepared: &PreparedDataset,
    which: usize,
    config: SelectorConfig,
) -> SupgSession<'_> {
    let session = SupgSession::over(prepared)
        .selector_config(config.with_sampler(SamplerStrategy::Auto))
        .seed(11);
    match which {
        0 => session.recall(0.9).budget(700),
        1 => session.precision(0.85).budget(700),
        _ => session.recall(0.8).precision(0.9).joint(500),
    }
}

#[test]
fn unplanned_and_planned_auto_keep_identical_cache_state() {
    // One adaptivity mechanism: an unplanned `Auto` request resolves its
    // backend through the planner's rule, so two fresh identical datasets
    // driven through the same RT/PT/JT sequence — one unplanned, one
    // planned — agree on every outcome and on the cache state after
    // every query. Each target gets its own recipe, so each recipe runs
    // cold → recurring → warm.
    let (data, labels) = rare(16_000, 75);
    let unplanned = PreparedDataset::new(data.clone());
    let planned = PreparedDataset::new(data);
    let planner = Planner::new();
    let recipes = [
        SelectorConfig::default(),
        SelectorConfig::default().with_mix(0.2),
        SelectorConfig::default().with_exponent(1.0),
    ];
    for round in 0..3 {
        for (which, &config) in recipes.iter().enumerate() {
            let context = format!("round {round} target {which}");
            let a = auto_session(&unplanned, which, config)
                .run(&mut CachedOracle::from_labels(labels.clone(), 700))
                .unwrap();
            let b = auto_session(&planned, which, config)
                .planned(&planner)
                .run(&mut CachedOracle::from_labels(labels.clone(), 700))
                .unwrap();
            assert_outcomes_identical(&a, &b, &context);
            assert_eq!(a.stage_calls, b.stage_calls, "{context}: stage calls");
            assert_eq!(a.filter_calls, b.filter_calls, "{context}: filter calls");
            assert_eq!(a.candidates, b.candidates, "{context}: candidates");
            assert_eq!(a.cache_hits, b.cache_hits, "{context}: cache hits");
            assert_eq!(a.cache_misses, b.cache_misses, "{context}: cache misses");
            for r in &recipes {
                assert_eq!(
                    unplanned.recipe_state(r.weight_exponent, r.uniform_mix),
                    planned.recipe_state(r.weight_exponent, r.uniform_mix),
                    "{context}: recipe state"
                );
            }
            assert_eq!(
                unplanned.cached_recipes(),
                planned.cached_recipes(),
                "{context}: cached recipes"
            );
            assert_eq!(
                unplanned.cache_stats(),
                planned.cache_stats(),
                "{context}: cache stats"
            );
        }
    }
    // The sequence really walked every recipe to the warm alias state.
    for r in &recipes {
        assert_eq!(
            planned.recipe_state(r.weight_exponent, r.uniform_mix),
            RecipeState::WarmAlias
        );
    }
}

#[test]
fn cdf_strategy_runs_every_importance_selector_and_jt() {
    // The strategy knob reaches the one-stage, two-stage and JT pipelines.
    let (data, labels) = rare(15_000, 74);
    for (kind, precision) in [
        (SelectorKind::ImportanceSampling, false),
        (SelectorKind::ImportanceSampling, true),
        (SelectorKind::TwoStage, true),
    ] {
        let mut oracle = CachedOracle::from_labels(labels.clone(), 600);
        let session = SupgSession::over(&data)
            .budget(600)
            .selector(kind)
            .sampler_strategy(SamplerStrategy::Cdf)
            .seed(99);
        let session = if precision {
            session.precision(0.85)
        } else {
            session.recall(0.9)
        };
        let outcome = session.run(&mut oracle).unwrap();
        assert!(outcome.oracle_calls <= 600);
    }
    let mut oracle = CachedOracle::from_labels(labels.clone(), 0);
    let jt = SupgSession::over(&data)
        .recall(0.8)
        .precision(0.9)
        .joint(500)
        .sampler_strategy(SamplerStrategy::Cdf)
        .seed(99)
        .run(&mut oracle)
        .unwrap();
    assert!(jt.joint);
    for i in jt.result.iter() {
        assert!(labels[i], "JT kept an oracle-negative record {i}");
    }
}

// --- Alias-build determinism (mirrors rank_parity.rs's build cases) ---

fn assert_artifacts_bit_identical(a: &WeightArtifacts, b: &WeightArtifacts, context: &str) {
    let n = a.sampler().len();
    assert_eq!(n, b.sampler().len(), "{context}: length");
    for i in 0..n {
        assert_eq!(
            a.prob(i).to_bits(),
            b.prob(i).to_bits(),
            "{context}: weight prob {i}"
        );
    }
    // Structural table equality: accept/alias/probs arrays, bit for bit.
    assert_eq!(
        a.alias_sampler().expect("alias-backed"),
        b.alias_sampler().expect("alias-backed"),
        "{context}: alias table layout"
    );
}

#[test]
fn alias_build_is_bit_identical_at_any_parallelism_and_chunking() {
    // Above MIN_PARALLEL_INPUT so the chunked path actually engages, with
    // heavy ties and a zero-weight band (scaled < 1 and ≥ 1 slots mixed).
    let scores: Vec<f64> = (0..60_000)
        .map(|i| ((i * 7919) % 997) as f64 / 997.0)
        .collect();
    let data = ScoredDataset::new(scores.clone()).unwrap();
    let serial = WeightArtifacts::build(&data, 0.5, 0.1, false, &RuntimeConfig::sequential());
    for parallelism in [1usize, 4, 8] {
        let rt = RuntimeConfig::default().with_parallelism(parallelism);
        let pooled = WeightArtifacts::build(&data, 0.5, 0.1, false, &rt);
        assert_artifacts_bit_identical(&serial, &pooled, &format!("parallelism={parallelism}"));
    }
    for runs in [1usize, 2, 3, 5, 8, 16] {
        let chunked = WeightArtifacts::build_chunked(&scores, 0.5, 0.1, runs);
        assert_artifacts_bit_identical(&serial, &chunked, &format!("runs={runs}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chunked_alias_builds_match_serial(raw in prop::collection::vec(0u32..1000, 1..300)) {
        let scores: Vec<f64> = raw.into_iter().map(|q| q as f64 / 1000.0).collect();
        // Small inputs take the serial path inside build_chunked; force
        // the chunk machinery through the sampling crate's feed API too.
        let serial = supg_sampling::AliasTable::new(&scores_nonzero(&scores));
        let weights = scores_nonzero(&scores);
        let total: f64 = weights.iter().sum();
        for chunks in [1usize, 2, 3, 7] {
            let n = weights.len();
            let per = n.div_ceil(chunks);
            let feeds: Vec<_> = (0..chunks)
                .map(|c| {
                    let lo = (c * per).min(n);
                    let hi = ((c + 1) * per).min(n);
                    supg_sampling::alias::feed_slice(&weights[lo..hi], total, n, lo)
                })
                .filter(|f| !f.probs.is_empty())
                .collect();
            let chunked = supg_sampling::AliasTable::from_feeds(feeds);
            prop_assert_eq!(&chunked, &serial, "chunks={}", chunks);
        }
    }
}

/// Guards against the all-zero-weight panic in the proptest above.
fn scores_nonzero(scores: &[f64]) -> Vec<f64> {
    if scores.iter().all(|&s| s == 0.0) {
        vec![1.0; scores.len()]
    } else {
        scores.to_vec()
    }
}

// --- ResultView vs SelectionResult ---

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
        taus.push(s);
        taus.push(s + 1e-9);
        taus.push((s - 1e-9).max(0.0));
    }
    taus
}

/// Checks one view against its linear reference (result order): order,
/// length, membership of every record plus probes past the end, and the
/// owned materialization.
fn check_view(view: &ResultView<'_>, reference: &[usize], n: usize) {
    let from_view: Vec<usize> = view.iter().collect();
    assert_eq!(from_view, reference);
    assert_eq!(view.len(), reference.len());
    assert_eq!(view.is_empty(), reference.is_empty());
    let mut member = vec![false; n + 3];
    for &i in reference {
        member[i] = true;
    }
    for (probe, &expect) in member.iter().enumerate() {
        assert_eq!(view.contains(probe), expect, "probe {probe}");
    }
    // `from_ranked` cross-checks duplicate-freedom in debug builds.
    assert_eq!(
        view.to_result(),
        SelectionResult::from_ranked(reference.to_vec())
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Flat, segmented (sizes 1 and 7) and `retain`-filtered views all
    // agree with the linear reference: `materialize_linear`, then the
    // extras with score `< τ`, then (filtered) the keep mask.
    #[test]
    fn view_agrees_with_owned_result_everywhere(
        scores in tied_dataset(),
        extra_picks in prop::collection::vec(0usize..10_000, 0..20),
        keep_bits in prop::collection::vec(any::<bool>(), 1..64),
    ) {
        let n = scores.len();
        let flat = ScoredDataset::new(scores.clone()).unwrap();
        let seg1 = SegmentedDataset::new(scores.clone(), 1).unwrap();
        let seg7 = SegmentedDataset::new(scores.clone(), 7).unwrap();
        let mut extras: Vec<usize> = extra_picks.iter().map(|p| p % n).collect();
        extras.sort_unstable();
        extras.dedup();
        for tau in taus_for(&scores) {
            let mut reference = materialize_linear(&scores, tau);
            let cut = reference.len();
            reference.extend(extras.iter().filter(|&&i| scores[i] < tau));
            let keep: Vec<bool> = (0..reference.len())
                .map(|k| keep_bits[k % keep_bits.len()])
                .collect();
            let kept: Vec<usize> = reference
                .iter()
                .zip(&keep)
                .filter(|&(_, &k)| k)
                .map(|(&i, _)| i)
                .collect();
            let views = [
                ResultView::over(&flat, tau, &extras),
                ResultView::over(&seg1, tau, &extras),
                ResultView::over(&seg7, tau, &extras),
            ];
            for view in views {
                prop_assert_eq!(view.threshold_len(), cut, "tau={}", tau);
                check_view(&view, &reference, n);
                let filtered = view.retain(&keep);
                prop_assert_eq!(filtered.threshold_len(), cut);
                check_view(&filtered, &kept, n);
            }
        }
    }
}

// --- One canonical sample order ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // `label` (flat or segmented corpus) and `from_parts` on the same
    // columns build equal samples: one order, (score desc, index asc,
    // draw position asc), with repeat draws and tied records drawn out
    // of index order.
    #[test]
    fn label_and_from_parts_share_one_canonical_order(
        scores in tied_dataset(),
        picks in prop::collection::vec(0usize..10_000, 1..120),
        weights in prop::collection::vec(1u32..8, 1..16),
    ) {
        let n = scores.len();
        let flat = ScoredDataset::new(scores.clone()).unwrap();
        let seg = SegmentedDataset::new(scores.clone(), 7).unwrap();
        let labels: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let mut indices: Vec<usize> = picks.iter().map(|p| p % n).collect();
        // Every draw again in reverse (repeats; any tied pair is now out
        // of index order somewhere), then the first tied pair, high
        // index first.
        let reversed: Vec<usize> = indices.iter().rev().copied().collect();
        indices.extend(reversed);
        if let Some((lo, hi)) = (0..n)
            .flat_map(|j| (0..j).map(move |i| (i, j)))
            .find(|&(i, j)| scores[i] == scores[j])
        {
            indices.extend([hi, lo]);
        }
        let reweight = |pos: usize| f64::from(weights[pos % weights.len()]) / 2.0;
        let parts = OracleSample::from_parts(
            indices.clone(),
            indices.iter().map(|&i| scores[i]).collect(),
            indices.iter().map(|&i| labels[i]).collect(),
            (0..indices.len()).map(reweight).collect(),
        );
        let mut oracle = CachedOracle::from_labels(labels.clone(), n);
        let from_flat = OracleSample::label(&flat, indices.clone(), &mut oracle, reweight).unwrap();
        prop_assert_eq!(&from_flat, &parts);
        let mut oracle = CachedOracle::from_labels(labels.clone(), n);
        let from_seg = OracleSample::label(&seg, indices.clone(), &mut oracle, reweight).unwrap();
        prop_assert_eq!(&from_seg, &parts);
    }
}

#[test]
fn run_view_reproduces_run_bit_for_bit() {
    let (data, labels) = rare(18_000, 75);
    let seg = SegmentedDataset::new(data.scores().to_vec(), 4_096).unwrap();
    let prepared = PreparedDataset::new(data.clone());
    let shared = Arc::new(PreparedDataset::from_segmented(seg.clone()));
    // Every `SupgSession::over` source: cold flat, cold segmented, a
    // borrowed prepared dataset and an owned shared one.
    let sources: [(&str, SessionData<'_>); 4] = [
        ("cold flat", (&data).into()),
        ("cold segmented", (&seg).into()),
        ("prepared", (&prepared).into()),
        ("shared segmented", Arc::clone(&shared).into()),
    ];
    for (name, source) in &sources {
        for strategy in [SamplerStrategy::Alias, SamplerStrategy::Cdf] {
            for kind in ["RT", "PT", "JT"] {
                let base = SupgSession::over(source.clone())
                    .sampler_strategy(strategy)
                    .seed(606);
                let session = match kind {
                    "RT" => base
                        .recall(0.9)
                        .budget(700)
                        .selector(SelectorKind::ImportanceSampling),
                    "PT" => base.precision(0.9).budget(700),
                    _ => base.recall(0.8).precision(0.9).joint(300),
                };
                let context = format!("{name} {strategy:?} {kind}");
                let mut o1 = CachedOracle::from_labels(labels.clone(), 700);
                let owned = session.clone().run(&mut o1).unwrap();
                let mut o2 = CachedOracle::from_labels(labels.clone(), 700);
                let streamed = session.run_view(&mut o2).unwrap();

                assert_eq!(streamed.tau.to_bits(), owned.tau.to_bits(), "{context}");
                assert_eq!(streamed.candidates, owned.candidates, "{context}");
                assert_eq!(streamed.oracle_calls, owned.oracle_calls, "{context}");
                let from_view: Vec<usize> = streamed.result.iter().collect();
                assert_eq!(from_view.as_slice(), owned.result.indices(), "{context}");
                // The prefix is the dataset's canonical rank order —
                // borrowed from the one rank index for every source.
                assert_eq!(
                    streamed.result.tau_prefix(),
                    &data.rank_index().order()[..streamed.result.threshold_len()],
                    "{context}"
                );
                // `run` is `run_view(..).into_owned()`, bit for bit.
                let materialized = streamed.into_owned();
                assert_outcomes_identical(&materialized, &owned, &context);
                assert_eq!(materialized.result, owned.result, "{context}");
                assert_eq!(
                    (materialized.stage_calls, materialized.filter_calls),
                    (owned.stage_calls, owned.filter_calls),
                    "{context}"
                );
                assert_eq!(materialized.joint, owned.joint, "{context}");
                assert_eq!(materialized.selector, owned.selector, "{context}");
            }
        }
    }
}

#[test]
fn run_view_streams_joint_sessions_and_shared_sessions() {
    let (data, labels) = rare(8_000, 76);
    let session = SupgSession::over(&data)
        .recall(0.8)
        .precision(0.9)
        .joint(300)
        .seed(77);

    // JT streams now: the filtered view reproduces run(..) bit for bit —
    // surviving prefix members are rank positions over the borrowed
    // index, never an owned copy of the record set.
    let mut o1 = CachedOracle::from_labels(labels.clone(), 300);
    let owned = session.clone().run(&mut o1).unwrap();
    let mut o2 = CachedOracle::from_labels(labels.clone(), 300);
    let streamed = session.run_view(&mut o2).unwrap();
    assert!(streamed.joint);
    assert!(streamed.result.is_filtered());
    assert_eq!(streamed.tau.to_bits(), owned.tau.to_bits());
    assert_eq!(streamed.candidates, owned.candidates);
    assert_eq!(streamed.oracle_calls, owned.oracle_calls);
    assert_eq!(streamed.stage_calls, owned.stage_calls);
    assert_eq!(streamed.filter_calls, owned.filter_calls);
    let from_view: Vec<usize> = streamed.result.iter().collect();
    assert_eq!(from_view.as_slice(), owned.result.indices());
    for probe in 0..labels.len().min(64) {
        assert_eq!(
            streamed.result.contains(probe),
            owned.result.contains(probe),
            "membership mismatch at {probe}"
        );
    }
    assert_eq!(streamed.into_owned().result, owned.result);

    // A session owning a shared prepared handle can stream too (the view
    // borrows from the session itself).
    let prepared = Arc::new(PreparedDataset::new(data));
    let session = SupgSession::over(Arc::clone(&prepared))
        .recall(0.9)
        .budget(300)
        .seed(2);
    let mut oracle = CachedOracle::from_labels(labels, 300);
    let streamed = session.run_view(&mut oracle).unwrap();
    assert!(!streamed.result.is_empty());
}

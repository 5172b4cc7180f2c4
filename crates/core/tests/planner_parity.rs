//! Planner determinism and planned-vs-hand-tuned bit parity.
//!
//! Two contracts pinned here:
//!
//! 1. **Purity** — [`Plan::resolve`] is a pure function of its
//!    [`PlanSignals`] snapshot: the same snapshot always resolves to
//!    the same plan, and every resolved plan satisfies the planner's
//!    invariants (no unresolved `Auto`, the serial floor on build
//!    chunks, caller pins honored verbatim).
//! 2. **Parity** — a query executed through a [`Planner`] is
//!    bit-identical to the same query hand-tuned to the plan's resolved
//!    configuration, across RT/PT/JT, flat and segmented layouts, cold
//!    and warm caches, and every `parallelism`/`batch_size` setting
//!    (the runtime knobs are unobservable in answer bits). The plan is
//!    a debug report, never a different answer.

use proptest::prelude::*;
use supg_core::plan::{Plan, PlanPolicy, PlanSignals, Planner};
use supg_core::runtime::MIN_PARALLEL_INPUT;
use supg_core::{
    CachedOracle, PreparedDataset, QueryOutcome, RecipeState, RuntimeConfig, SamplerStrategy,
    SegmentedDataset, SelectorKind, SupgSession,
};

fn recipe_strategy() -> impl Strategy<Value = RecipeState> {
    prop_oneof![
        Just(RecipeState::Cold),
        Just(RecipeState::WarmCdf),
        Just(RecipeState::WarmAlias),
    ]
}

fn sampler_strategy() -> impl Strategy<Value = SamplerStrategy> {
    prop_oneof![
        Just(SamplerStrategy::Auto),
        Just(SamplerStrategy::Alias),
        Just(SamplerStrategy::Cdf),
    ]
}

fn signals_strategy() -> impl Strategy<Value = PlanSignals> {
    (
        (
            0usize..(MIN_PARALLEL_INPUT * 4),
            0usize..8,
            any::<bool>(),
            recipe_strategy(),
            sampler_strategy(),
        ),
        (
            prop::option::of(1usize..16),
            prop::option::of(1.0f64..1.0e7),
            1usize..16,
            0.25f64..4.0,
            prop::option::of(sampler_strategy()),
            any::<bool>(),
        ),
    )
        .prop_map(
            |(
                (n, segments, prepared, recipe, requested_sampler),
                (pinned_par, oracle_ns, cores, speedup, pin_sampler, forbid_cdf),
            )| {
                PlanSignals {
                    n,
                    segments,
                    prepared,
                    recipe,
                    requested_sampler,
                    pinned_runtime: pinned_par
                        .map(|p| RuntimeConfig::default().with_parallelism(p)),
                    oracle_ns_per_call: oracle_ns,
                    effective_cores: cores,
                    chunked_sort_speedup: speedup,
                    policy: PlanPolicy {
                        pin_sampler,
                        forbid_cdf,
                    },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Same snapshot ⇒ same plan, field for field, rationale included.
    #[test]
    fn resolve_is_a_pure_function_of_the_snapshot(signals in signals_strategy()) {
        let a = Plan::resolve(&signals);
        let b = Plan::resolve(&signals);
        prop_assert_eq!(a, b);
    }

    // Structural invariants of every resolvable plan.
    #[test]
    fn every_plan_satisfies_the_planner_invariants(signals in signals_strategy()) {
        let plan = Plan::resolve(&signals);

        // Resolution is the planner's job: `Auto` never leaks through.
        prop_assert!(plan.sampler != SamplerStrategy::Auto);

        // Serial floor: chunked builds only where the calibration
        // measured a win on an input large enough to dispatch.
        if signals.effective_cores == 1
            || signals.chunked_sort_speedup < 1.0
            || signals.n < MIN_PARALLEL_INPUT
        {
            prop_assert_eq!(plan.chunks, 1);
        }
        prop_assert!(plan.chunks >= 1);
        prop_assert!(plan.chunks <= signals.effective_cores.max(1));

        // A caller-pinned runtime is honored verbatim.
        if let Some(pinned) = signals.pinned_runtime {
            prop_assert_eq!(plan.parallelism, pinned.parallelism);
            prop_assert_eq!(plan.batch_size, pinned.batch_size);
        }
        prop_assert!(plan.parallelism >= 1);
        prop_assert!(plan.batch_size >= 1);

        // Policy guardrails always hold, even against pins.
        if signals.policy.forbid_cdf {
            prop_assert!(plan.sampler != SamplerStrategy::Cdf);
        } else if let Some(pin) = signals.policy.pin_sampler {
            if pin != SamplerStrategy::Auto {
                prop_assert_eq!(plan.sampler, pin);
            }
        }

        // Every knob left a rationale entry.
        prop_assert!(plan.rationale.len() >= 3);
    }
}

// ---------------------------------------------------------------------
// Planned-vs-hand-tuned execution parity.
// ---------------------------------------------------------------------

const N: usize = 20_000;
const SEED: u64 = 7;
const BUDGET: usize = 1_000;

fn scores() -> Vec<f64> {
    (0..N).map(|i| (i % 1000) as f64 / 1000.0).collect()
}

fn labels() -> Vec<bool> {
    scores().iter().map(|&s| s > 0.8).collect()
}

fn oracle() -> CachedOracle {
    CachedOracle::from_labels(labels(), BUDGET * 4)
}

#[derive(Clone, Copy)]
enum Target {
    Rt,
    Pt,
    Jt,
}

fn with_target(session: SupgSession<'_>, target: Target) -> SupgSession<'_> {
    match target {
        Target::Rt => session.recall(0.9).budget(BUDGET),
        Target::Pt => session.precision(0.9).budget(BUDGET),
        Target::Jt => session.recall(0.8).precision(0.9).joint(BUDGET),
    }
}

/// Asserts two outcomes are bit-identical in every answer-bearing
/// field. Wall-clock timings and the plan report are execution
/// metadata, excluded by contract.
fn assert_bit_identical(planned: &QueryOutcome, hand: &QueryOutcome, what: &str) {
    assert_eq!(
        planned.tau.to_bits(),
        hand.tau.to_bits(),
        "{what}: tau differs"
    );
    assert_eq!(
        planned.result.indices(),
        hand.result.indices(),
        "{what}: result set differs"
    );
    assert_eq!(planned.selector, hand.selector, "{what}");
    assert_eq!(planned.oracle_calls, hand.oracle_calls, "{what}");
    assert_eq!(planned.stage_calls, hand.stage_calls, "{what}");
    assert_eq!(planned.filter_calls, hand.filter_calls, "{what}");
    assert_eq!(planned.sample_draws, hand.sample_draws, "{what}");
    assert_eq!(planned.sample_positives, hand.sample_positives, "{what}");
    assert_eq!(planned.candidates, hand.candidates, "{what}");
    assert_eq!(planned.joint, hand.joint, "{what}");
    assert_eq!(planned.cache_hits, hand.cache_hits, "{what}");
    assert_eq!(planned.cache_misses, hand.cache_misses, "{what}");
    assert_eq!(planned.n_records, hand.n_records, "{what}");
}

/// Flat layout: planned (Auto sampler, adaptive runtime) vs hand-tuned
/// to the resolved config, cold then warm, at hand parallelism
/// {1, 4, 8}.
#[test]
fn planned_matches_hand_tuned_flat() {
    for (target, name) in [(Target::Rt, "RT"), (Target::Pt, "PT"), (Target::Jt, "JT")] {
        let planner = Planner::new();
        let planned_data = PreparedDataset::from_scores(scores()).unwrap();
        let run_planned = || {
            with_target(SupgSession::over_prepared(&planned_data), target)
                .selector(SelectorKind::ImportanceSampling)
                .sampler_strategy(SamplerStrategy::Auto)
                .seed(SEED)
                .planned(&planner)
                .run(&mut oracle())
                .unwrap()
        };
        let cold = run_planned();
        let warm = run_planned();
        let cold_plan = cold.plan.as_ref().expect("planned outcome carries a plan");
        let warm_plan = warm.plan.as_ref().unwrap();

        for p in [1usize, 4, 8] {
            let hand_data = PreparedDataset::from_scores(scores()).unwrap();
            let run_hand = |plan: &supg_core::Plan| {
                with_target(SupgSession::over_prepared(&hand_data), target)
                    .selector(SelectorKind::ImportanceSampling)
                    .sampler_strategy(plan.sampler)
                    .parallelism(p)
                    .batch_size(plan.batch_size)
                    .seed(SEED)
                    .run(&mut oracle())
                    .unwrap()
            };
            let hand_cold = run_hand(cold_plan);
            let hand_warm = run_hand(warm_plan);
            assert_bit_identical(&cold, &hand_cold, &format!("{name} flat cold p={p}"));
            assert_bit_identical(&warm, &hand_warm, &format!("{name} flat warm p={p}"));
            assert!(hand_cold.plan.is_none(), "hand-tuned runs carry no plan");
        }
    }
}

/// Segmented layout: the same contract over a segmented dataset.
#[test]
fn planned_matches_hand_tuned_segmented() {
    for (target, name) in [(Target::Rt, "RT"), (Target::Pt, "PT"), (Target::Jt, "JT")] {
        let planner = Planner::new();
        let planned_data = SegmentedDataset::new(scores(), 1 << 10).unwrap();
        let cold = with_target(SupgSession::over_segmented(&planned_data), target)
            .selector(SelectorKind::ImportanceSampling)
            .sampler_strategy(SamplerStrategy::Auto)
            .seed(SEED)
            .planned(&planner)
            .run(&mut oracle())
            .unwrap();
        let plan = cold.plan.as_ref().expect("planned outcome carries a plan");

        for p in [1usize, 4, 8] {
            let hand_data = SegmentedDataset::new(scores(), 1 << 10).unwrap();
            let hand = with_target(SupgSession::over_segmented(&hand_data), target)
                .selector(SelectorKind::ImportanceSampling)
                .sampler_strategy(plan.sampler)
                .parallelism(p)
                .batch_size(plan.batch_size)
                .seed(SEED)
                .run(&mut oracle())
                .unwrap();
            assert_bit_identical(&cold, &hand, &format!("{name} segmented p={p}"));
        }
    }
}

/// A planner observing a cold prepared dataset resolves the CDF backend
/// first (cheapest measured build), then promotes the recurring recipe
/// to the alias backend (O(1) draws beat per-draw CDF binary search once
/// the recipe is warm) and keeps hitting the cached alias table from the
/// third query on — and every decision executes bit-identical to the
/// hand-tuned equivalents above. Sanity-check the resolution here so the
/// parity tests can't silently degenerate to comparing two identical
/// hand configs.
#[test]
fn planner_resolves_cold_auto_to_cdf_then_promotes() {
    let planner = Planner::new();
    let data = PreparedDataset::from_scores(scores()).unwrap();
    let run = || {
        SupgSession::over_prepared(&data)
            .recall(0.9)
            .budget(BUDGET)
            .selector(SelectorKind::ImportanceSampling)
            .sampler_strategy(SamplerStrategy::Auto)
            .seed(SEED)
            .planned(&planner)
            .run(&mut oracle())
            .unwrap()
    };
    let cold = run();
    assert_eq!(cold.plan.as_ref().unwrap().sampler, SamplerStrategy::Cdf);
    let promoted = run();
    assert_eq!(
        promoted.plan.as_ref().unwrap().sampler,
        SamplerStrategy::Alias
    );
    let warm = run();
    assert_eq!(warm.plan.as_ref().unwrap().sampler, SamplerStrategy::Alias);
    assert!(warm.cache_hits > 0, "third query must reuse artifacts");
    let stats = planner.stats();
    assert_eq!(stats.planned, 3);
    assert_eq!(stats.resolved_cdf, 1);
    assert_eq!(stats.resolved_alias, 2);
    assert_eq!(stats.pinned, 0);
}

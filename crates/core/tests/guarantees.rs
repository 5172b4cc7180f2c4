//! Trial-level validation of the paper's headline claim: a guaranteed
//! selector misses its target with probability at most `δ`.
//!
//! For each of the four CI selectors (`U-CI-R`, `U-CI-P`, `IS-CI-R`,
//! `IS-CI-P`) the suite runs many independently seeded queries on a preset
//! mixture dataset and checks the *empirical* failure rate against
//! `δ` plus binomial sampling slack: with `T` trials the failure count is
//! `Binomial(T, p)` for some `p ≤ δ`, so observing more than
//! `T·δ + 3·√(T·δ(1−δ))` failures (≈ 3σ above the worst conforming mean)
//! indicates a broken guarantee, not bad luck.
//!
//! The 200-trial configurations are `#[ignore]`d to keep tier-1 fast; CI
//! runs them in a dedicated job via `cargo test -q -- --ignored`. Quick
//! 40-trial smoke versions always run, as do two negative controls: the
//! uncorrected U-NoCI selectors must *exceed* the same failure bound.
//!
//! Trials are fanned out over threads with seeds split **by trial index**
//! (`supg_core::runtime::split_seed`), so the counts are reproducible
//! regardless of scheduling.

use std::thread;

use supg_core::metrics::evaluate;
use supg_core::runtime::{parallel_map, split_seed, RuntimeConfig};
use supg_core::selectors::SelectorConfig;
use supg_core::{
    CachedOracle, FaultPlan, FaultyOracle, ResilientOracle, RetryPolicy, SamplerStrategy,
    ScoredDataset, SelectorKind, SupgSession, TargetKind,
};
use supg_datasets::{Preset, PresetKind};

const DELTA: f64 = 0.05;
const BUDGET: usize = 1_000;
const QUICK_TRIALS: usize = 40;
const FULL_TRIALS: usize = 200;

/// The mixture-simulated night-street preset: rare-ish positives (4%) with
/// an informative but miscalibrated proxy — the regime the guarantees are
/// interesting in.
fn workload() -> (ScoredDataset, Vec<bool>) {
    let (scores, labels) = Preset::new(PresetKind::NightStreet)
        .generate_sized(0xDA7A, 20_000)
        .into_parts();
    (ScoredDataset::new(scores).unwrap(), labels)
}

/// Highest failure count compatible with a true failure probability ≤ δ:
/// the binomial mean plus three standard deviations, rounded up.
fn max_allowed_failures(trials: usize, delta: f64) -> usize {
    let t = trials as f64;
    (t * delta + 3.0 * (t * delta * (1.0 - delta)).sqrt()).ceil() as usize
}

/// Runs `trials` seeded queries under the given selector tuning (the
/// CDF-sampler configurations run the exact same harness as the default
/// path) and counts how often the achieved recall/precision lands below
/// `gamma`. Trials fan out over the same `runtime::parallel_map` pool the
/// pipeline uses, one trial per batch.
fn count_failures_with(
    kind: SelectorKind,
    target: TargetKind,
    gamma: f64,
    trials: usize,
    base_seed: u64,
    cfg: SelectorConfig,
) -> usize {
    count_failures_inner(kind, target, gamma, trials, base_seed, cfg, None)
}

/// Like [`count_failures_with`], but every trial's oracle suffers
/// injected transient faults at `transient_rate`, healed by the default
/// retry policy. The statistical guarantee must be indistinguishable
/// from the fault-free harness: retries reproduce the exact label
/// stream, so `p ≤ δ` still holds trial by trial.
#[allow(clippy::too_many_arguments)]
fn count_failures_inner(
    kind: SelectorKind,
    target: TargetKind,
    gamma: f64,
    trials: usize,
    base_seed: u64,
    cfg: SelectorConfig,
    transient_rate: Option<f64>,
) -> usize {
    let (data, labels) = workload();
    let pool = RuntimeConfig::default()
        .with_parallelism(thread::available_parallelism().map_or(4, |n| n.get()))
        .with_batch_size(1);
    let trial_ids: Vec<u64> = (0..trials as u64).collect();
    let failed = parallel_map(&pool, &trial_ids, |&trial| {
        let base = CachedOracle::from_labels(labels.clone(), BUDGET);
        // Wrap each trial's oracle in its own deterministic fault plan
        // (split by trial index) plus the retry runtime.
        let mut faulted;
        let mut clean;
        let oracle: &mut dyn supg_core::SessionOracle = match transient_rate {
            Some(rate) => {
                let plan =
                    FaultPlan::new(split_seed(base_seed ^ 0xFA17, trial)).with_transient_rate(rate);
                faulted =
                    ResilientOracle::new(FaultyOracle::new(base, plan), RetryPolicy::default());
                &mut faulted
            }
            None => {
                clean = base;
                &mut clean
            }
        };
        let session = SupgSession::over(&data)
            .delta(DELTA)
            .budget(BUDGET)
            .selector(kind)
            .selector_config(cfg)
            .seed(split_seed(base_seed, trial));
        let session = match target {
            TargetKind::Recall => session.recall(gamma),
            TargetKind::Precision => session.precision(gamma),
        };
        let outcome = session.run(oracle).expect("trial failed");
        assert!(
            outcome.oracle_calls <= BUDGET,
            "budget violation: {} > {BUDGET}",
            outcome.oracle_calls
        );
        let quality = evaluate(outcome.result.indices(), &labels);
        let achieved = match target {
            TargetKind::Recall => quality.recall,
            TargetKind::Precision => quality.precision,
        };
        achieved < gamma
    });
    failed.into_iter().filter(|&f| f).count()
}

fn assert_guarantee_holds(
    kind: SelectorKind,
    target: TargetKind,
    gamma: f64,
    trials: usize,
    base_seed: u64,
) {
    assert_guarantee_holds_with(
        kind,
        target,
        gamma,
        trials,
        base_seed,
        SelectorConfig::default(),
    );
}

fn assert_guarantee_holds_with(
    kind: SelectorKind,
    target: TargetKind,
    gamma: f64,
    trials: usize,
    base_seed: u64,
    cfg: SelectorConfig,
) {
    let failures = count_failures_with(kind, target, gamma, trials, base_seed, cfg);
    let allowed = max_allowed_failures(trials, DELTA);
    let name = kind.paper_name(target).unwrap();
    assert!(
        failures <= allowed,
        "{name} γ={gamma} ({:?} sampler): {failures}/{trials} failures exceeds δ={DELTA} \
         plus binomial slack (allowed {allowed})",
        cfg.sampler
    );
}

/// The default tuning with the CDF fallback sampler — the cold-start
/// serving path's draw backend, whose guarantee must hold empirically
/// just like the alias path's.
fn cdf_cfg() -> SelectorConfig {
    SelectorConfig::default().with_sampler(SamplerStrategy::Cdf)
}

// --- Quick smoke versions (always run; tier-1) ---

#[test]
fn u_ci_r_guarantee_smoke() {
    assert_guarantee_holds(
        SelectorKind::Uniform,
        TargetKind::Recall,
        0.9,
        QUICK_TRIALS,
        101,
    );
}

#[test]
fn u_ci_p_guarantee_smoke() {
    assert_guarantee_holds(
        SelectorKind::Uniform,
        TargetKind::Precision,
        0.9,
        QUICK_TRIALS,
        102,
    );
}

#[test]
fn is_ci_r_guarantee_smoke() {
    assert_guarantee_holds(
        SelectorKind::ImportanceSampling,
        TargetKind::Recall,
        0.9,
        QUICK_TRIALS,
        103,
    );
}

#[test]
fn is_ci_p_guarantee_smoke() {
    assert_guarantee_holds(
        SelectorKind::TwoStage,
        TargetKind::Precision,
        0.9,
        QUICK_TRIALS,
        104,
    );
}

#[test]
fn is_ci_r_cdf_sampler_guarantee_smoke() {
    assert_guarantee_holds_with(
        SelectorKind::ImportanceSampling,
        TargetKind::Recall,
        0.9,
        QUICK_TRIALS,
        105,
        cdf_cfg(),
    );
}

#[test]
fn is_ci_p_cdf_sampler_guarantee_smoke() {
    assert_guarantee_holds_with(
        SelectorKind::TwoStage,
        TargetKind::Precision,
        0.9,
        QUICK_TRIALS,
        106,
        cdf_cfg(),
    );
}

// --- Fault-injected configurations: the guarantee must survive a flaky
// oracle healed by the retry runtime (5% transient rate) ---

const FAULT_RATE: f64 = 0.05;

fn assert_faulty_guarantee_holds(
    kind: SelectorKind,
    target: TargetKind,
    gamma: f64,
    trials: usize,
    base_seed: u64,
) {
    let failures = count_failures_inner(
        kind,
        target,
        gamma,
        trials,
        base_seed,
        SelectorConfig::default(),
        Some(FAULT_RATE),
    );
    let allowed = max_allowed_failures(trials, DELTA);
    let name = kind.paper_name(target).unwrap();
    assert!(
        failures <= allowed,
        "{name} γ={gamma} under {FAULT_RATE:.0}%-transient faults: {failures}/{trials} \
         failures exceeds δ={DELTA} plus binomial slack (allowed {allowed})"
    );
}

#[test]
fn is_ci_r_guarantee_smoke_under_transient_faults() {
    assert_faulty_guarantee_holds(
        SelectorKind::ImportanceSampling,
        TargetKind::Recall,
        0.9,
        QUICK_TRIALS,
        107,
    );
}

#[test]
fn is_ci_p_guarantee_smoke_under_transient_faults() {
    assert_faulty_guarantee_holds(
        SelectorKind::TwoStage,
        TargetKind::Precision,
        0.9,
        QUICK_TRIALS,
        108,
    );
}

// --- Negative controls: the harness can fail ---
// U-NoCI-R / U-NoCI-P take the empirical threshold of a uniform sample
// with no confidence correction. The paper (Figs 5–6) shows they miss
// their target far more often than δ; the same harness that passes the
// CI selectors must reject them, or its pass verdicts show nothing.

fn assert_guarantee_fails(kind: SelectorKind, target: TargetKind, gamma: f64, base_seed: u64) {
    let failures = count_failures_with(
        kind,
        target,
        gamma,
        QUICK_TRIALS,
        base_seed,
        SelectorConfig::default(),
    );
    let allowed = max_allowed_failures(QUICK_TRIALS, DELTA);
    let name = kind.paper_name(target).unwrap();
    assert!(
        failures > allowed,
        "{name} γ={gamma}: only {failures}/{QUICK_TRIALS} failures, within the {allowed} \
         allowed — the harness cannot tell a selector without a guarantee from one with it"
    );
}

#[test]
fn u_noci_r_exceeds_the_failure_bound() {
    assert_guarantee_fails(SelectorKind::UniformNoCi, TargetKind::Recall, 0.9, 0xBEEF);
}

#[test]
fn u_noci_p_exceeds_the_failure_bound() {
    assert_guarantee_fails(
        SelectorKind::UniformNoCi,
        TargetKind::Precision,
        0.9,
        0xBEEF,
    );
}

// --- Full 200-trial configurations (γ ∈ {0.9, 0.95}, δ = 0.05) ---
// Long: run with `cargo test -q -- --ignored` (the CI guarantee-suite job).

#[test]
#[ignore = "long statistical suite; run with --ignored"]
fn u_ci_r_gamma_090_failure_rate_within_delta() {
    assert_guarantee_holds(
        SelectorKind::Uniform,
        TargetKind::Recall,
        0.9,
        FULL_TRIALS,
        201,
    );
}

#[test]
#[ignore = "long statistical suite; run with --ignored"]
fn u_ci_r_gamma_095_failure_rate_within_delta() {
    assert_guarantee_holds(
        SelectorKind::Uniform,
        TargetKind::Recall,
        0.95,
        FULL_TRIALS,
        202,
    );
}

#[test]
#[ignore = "long statistical suite; run with --ignored"]
fn u_ci_p_gamma_090_failure_rate_within_delta() {
    assert_guarantee_holds(
        SelectorKind::Uniform,
        TargetKind::Precision,
        0.9,
        FULL_TRIALS,
        203,
    );
}

#[test]
#[ignore = "long statistical suite; run with --ignored"]
fn u_ci_p_gamma_095_failure_rate_within_delta() {
    assert_guarantee_holds(
        SelectorKind::Uniform,
        TargetKind::Precision,
        0.95,
        FULL_TRIALS,
        204,
    );
}

#[test]
#[ignore = "long statistical suite; run with --ignored"]
fn is_ci_r_gamma_090_failure_rate_within_delta() {
    assert_guarantee_holds(
        SelectorKind::ImportanceSampling,
        TargetKind::Recall,
        0.9,
        FULL_TRIALS,
        205,
    );
}

#[test]
#[ignore = "long statistical suite; run with --ignored"]
fn is_ci_r_gamma_095_failure_rate_within_delta() {
    assert_guarantee_holds(
        SelectorKind::ImportanceSampling,
        TargetKind::Recall,
        0.95,
        FULL_TRIALS,
        206,
    );
}

#[test]
#[ignore = "long statistical suite; run with --ignored"]
fn is_ci_p_gamma_090_failure_rate_within_delta() {
    assert_guarantee_holds(
        SelectorKind::TwoStage,
        TargetKind::Precision,
        0.9,
        FULL_TRIALS,
        207,
    );
}

#[test]
#[ignore = "long statistical suite; run with --ignored"]
fn is_ci_p_gamma_095_failure_rate_within_delta() {
    assert_guarantee_holds(
        SelectorKind::TwoStage,
        TargetKind::Precision,
        0.95,
        FULL_TRIALS,
        208,
    );
}

// --- CDF-sampler configurations (the cold-start serving path) ---

#[test]
#[ignore = "long statistical suite; run with --ignored"]
fn is_ci_r_cdf_gamma_090_failure_rate_within_delta() {
    assert_guarantee_holds_with(
        SelectorKind::ImportanceSampling,
        TargetKind::Recall,
        0.9,
        FULL_TRIALS,
        209,
        cdf_cfg(),
    );
}

#[test]
#[ignore = "long statistical suite; run with --ignored"]
fn is_ci_r_cdf_gamma_095_failure_rate_within_delta() {
    assert_guarantee_holds_with(
        SelectorKind::ImportanceSampling,
        TargetKind::Recall,
        0.95,
        FULL_TRIALS,
        210,
        cdf_cfg(),
    );
}

#[test]
#[ignore = "long statistical suite; run with --ignored"]
fn is_ci_p_cdf_gamma_090_failure_rate_within_delta() {
    assert_guarantee_holds_with(
        SelectorKind::TwoStage,
        TargetKind::Precision,
        0.9,
        FULL_TRIALS,
        211,
        cdf_cfg(),
    );
}

#[test]
#[ignore = "long statistical suite; run with --ignored"]
fn is_ci_p_cdf_gamma_095_failure_rate_within_delta() {
    assert_guarantee_holds_with(
        SelectorKind::TwoStage,
        TargetKind::Precision,
        0.95,
        FULL_TRIALS,
        212,
        cdf_cfg(),
    );
}

// --- Fault-injected full configurations ---

#[test]
#[ignore = "long statistical suite; run with --ignored"]
fn is_ci_r_faulty_gamma_090_failure_rate_within_delta() {
    assert_faulty_guarantee_holds(
        SelectorKind::ImportanceSampling,
        TargetKind::Recall,
        0.9,
        FULL_TRIALS,
        213,
    );
}

#[test]
#[ignore = "long statistical suite; run with --ignored"]
fn is_ci_r_faulty_gamma_095_failure_rate_within_delta() {
    assert_faulty_guarantee_holds(
        SelectorKind::ImportanceSampling,
        TargetKind::Recall,
        0.95,
        FULL_TRIALS,
        214,
    );
}

#[test]
#[ignore = "long statistical suite; run with --ignored"]
fn is_ci_p_faulty_gamma_090_failure_rate_within_delta() {
    assert_faulty_guarantee_holds(
        SelectorKind::TwoStage,
        TargetKind::Precision,
        0.9,
        FULL_TRIALS,
        215,
    );
}

#[test]
#[ignore = "long statistical suite; run with --ignored"]
fn is_ci_p_faulty_gamma_095_failure_rate_within_delta() {
    assert_faulty_guarantee_holds(
        SelectorKind::TwoStage,
        TargetKind::Precision,
        0.95,
        FULL_TRIALS,
        216,
    );
}

// --- The slack arithmetic itself ---

#[test]
fn binomial_slack_is_sane() {
    // 200 trials at δ = 0.05: mean 10, σ ≈ 3.08 → allow ≤ 20.
    assert_eq!(max_allowed_failures(200, 0.05), 20);
    // 40 trials: mean 2, σ ≈ 1.38 → allow ≤ 7.
    assert_eq!(max_allowed_failures(40, 0.05), 7);
}

//! Faulted ≡ fault-free parity: a query whose oracle suffers injected
//! transient failures, retried through [`ResilientOracle`], must return
//! a [`QueryOutcome`] bit-identical to the fault-free run — same answer
//! set, same τ bits, same oracle/stage/filter call counts — differing
//! only in the retry-accounting fields (`oracle_retries`,
//! `oracle_failures`, `retry_backoff`).
//!
//! The contract holds structurally: injected faults fire *before* the
//! inner oracle is consulted, so only the final successful label of each
//! distinct record consumes budget or touches the cache, and the label
//! itself stays a pure function of the index. Pinned across all three
//! target kinds (RT/PT/JT), parallelism ∈ {1, 4, 8}, and flat vs
//! segment-constructed corpora.

use supg_core::{
    CachedOracle, FaultPlan, FaultyOracle, QueryOutcome, ResilientOracle, RetryPolicy,
    ScoredDataset, SegmentedDataset, SupgSession,
};
use supg_datasets::{Preset, PresetKind};

const FAULT_SEED: u64 = 0xBAD5_EED5;
const TRANSIENT_RATE: f64 = 0.05;

fn workload() -> (Vec<f64>, Vec<bool>) {
    Preset::new(PresetKind::NightStreet)
        .generate_sized(23, 20_000)
        .into_parts()
}

#[derive(Debug, Clone, Copy)]
enum Mode {
    Recall,
    Precision,
    Joint,
}

impl Mode {
    /// The oracle-side budget: RT/PT meter at the oracle, JT's stage
    /// budgets are driven through `set_budget` by the session.
    fn oracle_budget(self) -> usize {
        match self {
            Mode::Recall | Mode::Precision => 1_000,
            Mode::Joint => 0,
        }
    }
}

fn run_mode(
    session: SupgSession<'_>,
    mode: Mode,
    oracle: &mut dyn supg_core::SessionOracle,
) -> QueryOutcome {
    let session = match mode {
        Mode::Recall => session.recall(0.9).budget(1_000),
        Mode::Precision => session.precision(0.9).budget(1_000),
        Mode::Joint => session.recall(0.8).precision(0.9).joint(800),
    };
    session.seed(0xF00D).run(oracle).unwrap()
}

fn assert_answers_identical(clean: &QueryOutcome, faulted: &QueryOutcome, context: &str) {
    assert_eq!(
        clean.result.indices(),
        faulted.result.indices(),
        "{context}: result set"
    );
    assert_eq!(
        clean.tau.to_bits(),
        faulted.tau.to_bits(),
        "{context}: tau bits"
    );
    assert_eq!(clean.selector, faulted.selector, "{context}: selector");
    assert_eq!(
        clean.oracle_calls, faulted.oracle_calls,
        "{context}: oracle_calls"
    );
    assert_eq!(
        clean.stage_calls, faulted.stage_calls,
        "{context}: stage_calls"
    );
    assert_eq!(
        clean.filter_calls, faulted.filter_calls,
        "{context}: filter_calls"
    );
    assert_eq!(
        clean.sample_draws, faulted.sample_draws,
        "{context}: sample_draws"
    );
    assert_eq!(
        clean.candidates, faulted.candidates,
        "{context}: candidates"
    );
    assert_eq!(clean.joint, faulted.joint, "{context}: joint");
}

/// The headline parity matrix: every target kind, every parallelism,
/// flat and segmented layouts.
#[test]
fn retried_faulty_runs_match_fault_free_bit_for_bit() {
    let (scores, labels) = workload();
    let flat = ScoredDataset::new(scores.clone()).unwrap();
    let seg = SegmentedDataset::new(scores, 1 << 12).unwrap();

    for mode in [Mode::Recall, Mode::Precision, Mode::Joint] {
        for parallelism in [1usize, 4, 8] {
            for segmented in [false, true] {
                let session = || {
                    if segmented {
                        SupgSession::over(&seg).parallelism(parallelism)
                    } else {
                        SupgSession::over(&flat).parallelism(parallelism)
                    }
                };
                let context = format!("{mode:?} p={parallelism} segmented={segmented}");

                let mut clean_oracle =
                    CachedOracle::from_labels(labels.clone(), mode.oracle_budget());
                let clean = run_mode(session(), mode, &mut clean_oracle);
                assert_eq!(clean.oracle_retries, 0, "{context}: clean run retried");
                assert_eq!(
                    clean.retry_backoff.as_nanos(),
                    0,
                    "{context}: clean backoff"
                );

                let plan = FaultPlan::new(FAULT_SEED).with_transient_rate(TRANSIENT_RATE);
                let faulty = FaultyOracle::new(
                    CachedOracle::from_labels(labels.clone(), mode.oracle_budget()),
                    plan,
                );
                let mut resilient = ResilientOracle::new(faulty, RetryPolicy::default());
                let faulted = run_mode(session(), mode, &mut resilient);

                assert_answers_identical(&clean, &faulted, &context);
                // The run really exercised the retry path: the fault plan
                // at 5% transients over hundreds of labels cannot stay
                // silent, and each retry accrued (virtual) backoff.
                assert!(
                    faulted.oracle_retries > 0,
                    "{context}: no faults fired — the parity check is vacuous"
                );
                assert_eq!(faulted.oracle_failures, 0, "{context}: unexpected failures");
                assert!(
                    faulted.retry_backoff.as_nanos() > 0,
                    "{context}: retries without backoff accounting"
                );
            }
        }
    }
}

/// The injected fault pattern itself is independent of parallelism: the
/// same records fault, the same number of retries fire, whatever the
/// worker count.
#[test]
fn retry_counts_are_deterministic_across_parallelism() {
    let (scores, labels) = workload();
    let data = ScoredDataset::new(scores).unwrap();
    let run = |parallelism: usize| {
        let plan = FaultPlan::new(FAULT_SEED).with_transient_rate(TRANSIENT_RATE);
        let faulty = FaultyOracle::new(
            CachedOracle::from_labels(labels.clone(), Mode::Recall.oracle_budget()),
            plan,
        );
        let mut resilient = ResilientOracle::new(faulty, RetryPolicy::default());
        run_mode(
            SupgSession::over(&data).parallelism(parallelism),
            Mode::Recall,
            &mut resilient,
        )
    };
    let sequential = run(1);
    assert!(sequential.oracle_retries > 0);
    for parallelism in [4usize, 8] {
        let parallel = run(parallelism);
        assert_eq!(
            sequential.oracle_retries, parallel.oracle_retries,
            "retry count drifted at parallelism {parallelism}"
        );
        assert_eq!(
            sequential.retry_backoff, parallel.retry_backoff,
            "backoff accounting drifted at parallelism {parallelism}"
        );
    }
}

/// Exhausted retries surface as a permanent failure, and the failed
/// query must not have billed the budget for the failing record.
#[test]
fn permanent_faults_fail_the_query_with_a_typed_error() {
    let (scores, labels) = workload();
    let data = ScoredDataset::new(scores).unwrap();
    let plan = FaultPlan::new(FAULT_SEED).with_permanent_rate(0.02);
    let faulty = FaultyOracle::new(CachedOracle::from_labels(labels, 1_000), plan);
    let mut resilient = ResilientOracle::new(faulty, RetryPolicy::default());
    let err = SupgSession::over(&data)
        .recall(0.9)
        .budget(1_000)
        .seed(0xF00D)
        .run(&mut resilient)
        .unwrap_err();
    assert!(
        matches!(err, supg_core::SupgError::OracleFailed { .. }),
        "expected OracleFailed, got {err:?}"
    );
}

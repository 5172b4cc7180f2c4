//! The session builder's validation contract: every misconfiguration is a
//! typed [`SupgError`], never a panic, and no oracle budget is consumed by
//! a rejected plan.

use supg_core::{
    CachedOracle, Oracle as _, ScoredDataset, SelectorKind, SupgError, SupgSession, TargetKind,
};

fn dataset(n: usize) -> (ScoredDataset, Vec<bool>) {
    let scores: Vec<f64> = (0..n).map(|i| (i % 100) as f64 / 100.0).collect();
    let labels: Vec<bool> = scores.iter().map(|&s| s > 0.9).collect();
    (ScoredDataset::new(scores).unwrap(), labels)
}

#[test]
fn missing_target_is_typed() {
    let (data, labels) = dataset(1_000);
    let mut oracle = CachedOracle::from_labels(labels, 100);
    let err = SupgSession::over(&data)
        .budget(100)
        .run(&mut oracle)
        .unwrap_err();
    assert_eq!(err, SupgError::MissingTarget);
    assert_eq!(oracle.calls_used(), 0, "no budget spent on a rejected plan");
}

#[test]
fn missing_budget_on_single_target_is_typed() {
    let (data, labels) = dataset(1_000);
    let mut oracle = CachedOracle::from_labels(labels, 100);
    for session in [
        SupgSession::over(&data).recall(0.9),
        SupgSession::over(&data).precision(0.9),
    ] {
        let err = session.run(&mut oracle).unwrap_err();
        assert_eq!(err, SupgError::MissingBudget);
    }
    assert_eq!(oracle.calls_used(), 0);
}

#[test]
fn both_targets_without_joint_mode_is_typed() {
    let (data, labels) = dataset(1_000);
    let mut oracle = CachedOracle::from_labels(labels, 100);
    let err = SupgSession::over(&data)
        .recall(0.9)
        .precision(0.9)
        .budget(100)
        .run(&mut oracle)
        .unwrap_err();
    assert_eq!(err, SupgError::ConflictingTargets);
}

#[test]
fn joint_mode_still_requires_both_targets() {
    let (data, labels) = dataset(1_000);
    let mut oracle = CachedOracle::from_labels(labels, 100);
    for session in [
        SupgSession::over(&data).recall(0.9).joint(100),
        SupgSession::over(&data).precision(0.9).joint(100),
        SupgSession::over(&data).joint(100),
    ] {
        let err = session.run(&mut oracle).unwrap_err();
        assert_eq!(err, SupgError::MissingTarget);
    }
}

#[test]
fn joint_mode_rejects_an_extra_single_target_budget() {
    let (data, labels) = dataset(1_000);
    let mut oracle = CachedOracle::from_labels(labels, 100);
    let err = SupgSession::over(&data)
        .recall(0.9)
        .precision(0.9)
        .joint(100)
        .budget(500)
        .run(&mut oracle)
        .unwrap_err();
    assert!(matches!(err, SupgError::InvalidQuery(_)), "{err:?}");
}

#[test]
fn gamma_out_of_range_is_typed_not_a_panic() {
    let (data, labels) = dataset(1_000);
    let mut oracle = CachedOracle::from_labels(labels, 100);
    for gamma in [0.0, -0.5, 1.5, f64::NAN] {
        let err = SupgSession::over(&data)
            .recall(gamma)
            .budget(100)
            .run(&mut oracle)
            .unwrap_err();
        assert!(
            matches!(err, SupgError::InvalidQuery(_)),
            "gamma {gamma}: {err:?}"
        );
        // Joint mode validates both targets the same way.
        let err = SupgSession::over(&data)
            .recall(0.9)
            .precision(gamma)
            .joint(100)
            .run(&mut oracle)
            .unwrap_err();
        assert!(
            matches!(err, SupgError::InvalidQuery(_)),
            "gamma {gamma}: {err:?}"
        );
    }
}

#[test]
fn delta_out_of_range_is_typed_not_a_panic() {
    let (data, labels) = dataset(1_000);
    let mut oracle = CachedOracle::from_labels(labels, 100);
    for delta in [0.0, 1.0, -0.1, 2.0, f64::NAN] {
        let err = SupgSession::over(&data)
            .recall(0.9)
            .delta(delta)
            .budget(100)
            .run(&mut oracle)
            .unwrap_err();
        assert!(
            matches!(err, SupgError::InvalidQuery(_)),
            "delta {delta}: {err:?}"
        );
    }
}

#[test]
fn degenerate_budgets_are_typed() {
    let (data, labels) = dataset(1_000);
    let mut oracle = CachedOracle::from_labels(labels, 100);
    for budget in [0usize, 1] {
        let err = SupgSession::over(&data)
            .recall(0.9)
            .budget(budget)
            .run(&mut oracle)
            .unwrap_err();
        assert!(
            matches!(err, SupgError::InvalidQuery(_)),
            "budget {budget}: {err:?}"
        );
        let err = SupgSession::over(&data)
            .recall(0.9)
            .precision(0.9)
            .joint(budget)
            .run(&mut oracle)
            .unwrap_err();
        assert!(
            matches!(err, SupgError::InvalidQuery(_)),
            "stage {budget}: {err:?}"
        );
    }
}

#[test]
fn unsupported_selector_target_combination_is_typed() {
    let (data, labels) = dataset(1_000);
    let mut oracle = CachedOracle::from_labels(labels, 100);
    // Two-stage is a precision-only algorithm: no RT entry in the registry…
    let err = SupgSession::over(&data)
        .recall(0.9)
        .budget(100)
        .selector(SelectorKind::TwoStage)
        .run(&mut oracle)
        .unwrap_err();
    assert_eq!(
        err,
        SupgError::UnsupportedSelector {
            selector: "TwoStage",
            target: TargetKind::Recall
        }
    );
    // …and the JT pipeline's sampling stage is an RT stage.
    let err = SupgSession::over(&data)
        .recall(0.9)
        .precision(0.9)
        .joint(100)
        .selector(SelectorKind::TwoStage)
        .run(&mut oracle)
        .unwrap_err();
    assert_eq!(
        err,
        SupgError::UnsupportedSelector {
            selector: "TwoStage",
            target: TargetKind::Recall
        }
    );
    assert_eq!(oracle.calls_used(), 0);
}

#[test]
fn validate_previews_run_errors_without_executing() {
    let (data, _) = dataset(1_000);
    assert_eq!(
        SupgSession::over(&data).validate().unwrap_err(),
        SupgError::MissingTarget
    );
    assert!(SupgSession::over(&data)
        .recall(0.9)
        .budget(100)
        .validate()
        .is_ok());
    assert!(SupgSession::over(&data)
        .recall(0.9)
        .precision(0.9)
        .joint(100)
        .validate()
        .is_ok());
}

#[test]
fn bare_sessions_resolve_to_the_paper_family_defaults() {
    let (data, labels) = dataset(5_000);
    let mut oracle = CachedOracle::from_labels(labels.clone(), 500);
    let rt = SupgSession::over(&data)
        .recall(0.9)
        .budget(500)
        .run(&mut oracle)
        .unwrap();
    assert_eq!(rt.selector, "IS-CI-R");
    let mut oracle = CachedOracle::from_labels(labels.clone(), 500);
    let pt = SupgSession::over(&data)
        .precision(0.9)
        .budget(500)
        .run(&mut oracle)
        .unwrap();
    // The SUPG family default for precision is the two-stage IS-CI-P …
    assert_eq!(pt.selector, "IS-CI-P");
    // … while an explicit choice is honored verbatim.
    let mut oracle = CachedOracle::from_labels(labels, 500);
    let pt = SupgSession::over(&data)
        .precision(0.9)
        .budget(500)
        .selector(SelectorKind::ImportanceSampling)
        .run(&mut oracle)
        .unwrap();
    assert_eq!(pt.selector, "IS-CI-P-1stage");
}

#[test]
fn custom_session_oracles_run_rt_and_jt() {
    use supg_core::{Oracle, SessionOracle, SupgError};

    /// A downstream labeling service's oracle: plain `Oracle` labeling
    /// plus the one `SessionOracle` method, with no label cache.
    struct CountingOracle {
        labels: Vec<bool>,
        used: usize,
        budget: usize,
    }
    impl Oracle for CountingOracle {
        fn label(&mut self, index: usize) -> Result<bool, SupgError> {
            if self.used >= self.budget {
                return Err(SupgError::BudgetExhausted {
                    budget: self.budget,
                });
            }
            self.used += 1;
            Ok(self.labels[index])
        }
        fn calls_used(&self) -> usize {
            self.used
        }
        fn budget(&self) -> usize {
            self.budget
        }
    }
    impl SessionOracle for CountingOracle {
        fn set_budget(&mut self, budget: usize) {
            self.budget = budget;
        }
    }

    let (data, labels) = dataset(5_000);
    let mut oracle = CountingOracle {
        labels: labels.clone(),
        used: 0,
        budget: 500,
    };
    let outcome = SupgSession::over(&data)
        .recall(0.9)
        .budget(500)
        .run(&mut oracle)
        .unwrap();
    assert_eq!(outcome.selector, "IS-CI-R");
    assert!(oracle.used <= 500);

    // JT re-budgets the oracle stage by stage through `set_budget` and
    // puts the caller's budget back afterwards.
    let mut oracle = CountingOracle {
        labels: labels.clone(),
        used: 0,
        budget: 7,
    };
    let jt = SupgSession::over(&data)
        .recall(0.8)
        .precision(0.9)
        .joint(100)
        .run(&mut oracle)
        .unwrap();
    assert!(jt.joint);
    assert!(jt.stage_calls <= 100);
    assert_eq!(jt.oracle_calls, oracle.used);
    assert_eq!(oracle.budget, 7);
    assert!(jt.result.iter().all(|i| labels[i]));
}

#[test]
fn jt_queries_restore_the_oracle_budget() {
    let (data, labels) = dataset(5_000);
    let mut oracle = CachedOracle::from_labels(labels, 150);
    SupgSession::over(&data)
        .recall(0.8)
        .precision(0.9)
        .joint(100)
        .run(&mut oracle)
        .unwrap();
    // The filter stage's usize::MAX lift must not leak to later queries.
    assert_eq!(oracle.budget(), 150, "budget not restored after JT");
}

#[test]
fn error_messages_name_the_fix() {
    // The typed errors double as migration hints; keep them actionable.
    assert!(SupgError::ConflictingTargets.to_string().contains("joint"));
    assert!(SupgError::MissingBudget.to_string().contains("budget"));
    assert!(SupgError::UnsupportedSelector {
        selector: "TwoStage",
        target: TargetKind::Recall
    }
    .to_string()
    .contains("RECALL"));
}

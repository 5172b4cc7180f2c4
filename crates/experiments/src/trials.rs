//! Seeded, parallel trial runner.
//!
//! Every paper figure aggregates repeated query executions ("100 trials of
//! …"). Trials are embarrassingly parallel: the dataset is shared
//! read-only, each trial gets its own oracle (fresh budget) and a session
//! seeded from `(base_seed, trial_index)`, so results are deterministic
//! regardless of thread count or scheduling.
//!
//! Algorithms are named by [`SelectorKind`] — the registry behind
//! [`SupgSession`] — so experiment code specifies *which paper algorithm*
//! runs, not how to construct it.

use std::thread;

use supg_core::metrics::{evaluate, PrecisionRecall};
use supg_core::selectors::SelectorConfig;
use supg_core::{runtime, ApproxQuery, Oracle as _, RuntimeConfig, SelectorKind, SupgSession};

use crate::workload::Workload;

/// The measurements retained from one query execution.
#[derive(Debug, Clone, Copy)]
pub struct TrialOutcome {
    /// Precision/recall of the returned set against ground truth.
    pub quality: PrecisionRecall,
    /// Distinct oracle calls consumed.
    pub oracle_calls: usize,
    /// Estimated threshold.
    pub tau: f64,
}

/// Derives independent per-trial seeds from `(base, index)` — RNG streams
/// are split **by trial index**, never by call order, so results do not
/// depend on how trials are scheduled over threads (the contract
/// documented in [`supg_core::runtime`]).
pub fn derive_seed(base: u64, index: u64) -> u64 {
    runtime::split_seed(base, index)
}

/// Runs `trials` independent executions of `query` on `workload` with the
/// `selector` algorithm (configured by `cfg`), in parallel,
/// deterministically seeded from `base_seed`. Each trial's oracle labels
/// sequentially; see [`run_trials_with`] to give every trial a batched
/// worker-pool runtime.
///
/// # Panics
/// Panics if any trial fails (budget violations and invalid
/// selector/target combinations are bugs by construction here).
pub fn run_trials(
    workload: &Workload,
    query: &ApproxQuery,
    selector: SelectorKind,
    cfg: SelectorConfig,
    trials: usize,
    base_seed: u64,
) -> Vec<TrialOutcome> {
    run_trials_with(
        workload,
        query,
        selector,
        cfg,
        RuntimeConfig::default(),
        trials,
        base_seed,
    )
}

/// [`run_trials`] with an explicit oracle-labeling [`RuntimeConfig`]
/// applied inside every trial (batch size, per-trial worker-pool width —
/// useful when the oracle itself is slow, e.g. a latency-simulating
/// benchmark oracle). Trial `i` always uses seed `derive_seed(base_seed,
/// i)` regardless of how work is distributed over threads, and outcomes
/// are identical for every runtime setting.
///
/// # Panics
/// As [`run_trials`].
pub fn run_trials_with(
    workload: &Workload,
    query: &ApproxQuery,
    selector: SelectorKind,
    cfg: SelectorConfig,
    oracle_runtime: RuntimeConfig,
    trials: usize,
    base_seed: u64,
) -> Vec<TrialOutcome> {
    if trials == 0 {
        return Vec::new();
    }
    // One shared preparation for the whole batch: the workload's rank
    // index is built on the runtime's worker pool up front, and the pool
    // is adopted for the weight/alias artifact builds the first trial
    // triggers (chunk-partitioned feeds; bit-identical to the lazy serial
    // build either way), so every trial serves from shared artifacts
    // instead of racing to build them.
    workload.prepared.prepare_with(&oracle_runtime);
    let threads = thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(trials);
    let per_thread: Vec<Vec<(usize, TrialOutcome)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    let mut i = t;
                    while i < trials {
                        let seed = derive_seed(base_seed, i as u64);
                        local.push((
                            i,
                            run_one_trial_with(
                                workload,
                                query,
                                selector,
                                cfg,
                                oracle_runtime,
                                seed,
                            ),
                        ));
                        i += threads;
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("trial thread panicked"))
            .collect()
    });
    let mut out = vec![
        TrialOutcome {
            quality: PrecisionRecall {
                precision: 0.0,
                recall: 0.0,
                returned: 0,
                true_positives: 0,
                dataset_positives: 0
            },
            oracle_calls: 0,
            tau: 0.0,
        };
        trials
    ];
    for (i, outcome) in per_thread.into_iter().flatten() {
        out[i] = outcome;
    }
    out
}

/// Runs one trial (public for tests and single-shot callers).
pub fn run_one_trial(
    workload: &Workload,
    query: &ApproxQuery,
    selector: SelectorKind,
    cfg: SelectorConfig,
    seed: u64,
) -> TrialOutcome {
    run_one_trial_with(
        workload,
        query,
        selector,
        cfg,
        RuntimeConfig::default(),
        seed,
    )
}

/// [`run_one_trial`] with an explicit oracle-labeling runtime.
pub fn run_one_trial_with(
    workload: &Workload,
    query: &ApproxQuery,
    selector: SelectorKind,
    cfg: SelectorConfig,
    oracle_runtime: RuntimeConfig,
    seed: u64,
) -> TrialOutcome {
    let mut oracle = workload.oracle(query.budget());
    // Prepared session: the workload's shared artifact cache absorbs the
    // per-trial O(n) sampling setup (results identical to a cold session).
    let outcome = SupgSession::over(&*workload.prepared)
        .query(query)
        .selector(selector)
        .selector_config(cfg)
        .runtime(oracle_runtime)
        .seed(seed)
        .run(&mut oracle)
        .expect("trial execution failed");
    assert!(
        oracle.calls_used() <= query.budget(),
        "budget violation: {} > {}",
        oracle.calls_used(),
        query.budget()
    );
    TrialOutcome {
        quality: evaluate(outcome.result.indices(), &workload.labels),
        oracle_calls: outcome.oracle_calls,
        tau: outcome.tau,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supg_datasets::{Preset, PresetKind};

    fn workload() -> Workload {
        Workload::from_preset(Preset::new(PresetKind::NightStreet), 17, 0.02)
    }

    #[test]
    fn trial_results_are_deterministic_and_complete() {
        let w = workload();
        let query = ApproxQuery::recall_target(0.9, 0.1, w.budget);
        let cfg = SelectorConfig::default();
        let a = run_trials(&w, &query, SelectorKind::Uniform, cfg, 8, 42);
        let b = run_trials(&w, &query, SelectorKind::Uniform, cfg, 8, 42);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tau, y.tau);
            assert_eq!(x.quality.returned, y.quality.returned);
        }
        // A different base seed must change at least one trial.
        let c = run_trials(&w, &query, SelectorKind::Uniform, cfg, 8, 43);
        assert!(a.iter().zip(&c).any(|(x, y)| x.tau != y.tau));
    }

    #[test]
    fn oracle_runtime_does_not_change_outcomes() {
        let w = workload();
        let query = ApproxQuery::recall_target(0.9, 0.1, w.budget);
        let cfg = SelectorConfig::default();
        let sequential = run_trials(&w, &query, SelectorKind::ImportanceSampling, cfg, 4, 9);
        let pooled = run_trials_with(
            &w,
            &query,
            SelectorKind::ImportanceSampling,
            cfg,
            RuntimeConfig::default()
                .with_parallelism(8)
                .with_batch_size(16),
            4,
            9,
        );
        for (a, b) in sequential.iter().zip(&pooled) {
            assert_eq!(a.tau, b.tau);
            assert_eq!(a.oracle_calls, b.oracle_calls);
            assert_eq!(a.quality.returned, b.quality.returned);
        }
    }

    #[test]
    fn derive_seed_is_index_sensitive() {
        let s: Vec<u64> = (0..100).map(|i| derive_seed(7, i)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 100);
    }

    #[test]
    fn zero_trials_is_empty() {
        let w = workload();
        let query = ApproxQuery::recall_target(0.9, 0.1, w.budget);
        let cfg = SelectorConfig::default();
        assert!(run_trials(&w, &query, SelectorKind::Uniform, cfg, 0, 1).is_empty());
    }

    #[test]
    fn every_registry_selector_runs_in_trials() {
        let w = workload();
        for selector in SelectorKind::ALL {
            let query = if selector == SelectorKind::TwoStage {
                ApproxQuery::precision_target(0.9, 0.1, w.budget)
            } else {
                ApproxQuery::recall_target(0.9, 0.1, w.budget)
            };
            let outcomes = run_trials(&w, &query, selector, SelectorConfig::default(), 2, 11);
            assert_eq!(outcomes.len(), 2);
        }
    }
}

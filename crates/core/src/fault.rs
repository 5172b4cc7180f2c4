//! Deterministic oracle fault injection and the retry runtime.
//!
//! The paper's oracle is any expensive predicate — a human labeler or a
//! heavyweight DNN behind a network hop — and such backends fail
//! *transiently* in production: timeouts, dropped connections, throttled
//! replicas. This module provides both halves of arguing that the `1 − δ`
//! guarantee survives infrastructure noise, not just statistical noise:
//!
//! * [`FaultyOracle`] — a chaos harness. Wraps any [`Oracle`] and injects
//!   transient faults, permanent faults and simulated latency as a **pure
//!   function of the record index** (decided by a seeded [`FaultPlan`]
//!   through [`split_seed`]/[`split_unit`]), so a fault schedule is
//!   reproducible at any parallelism or batch size and composes over any
//!   inner oracle.
//! * [`ResilientOracle`] — the production-shaped recovery wrapper. Retries
//!   transients under a [`RetryPolicy`] (bounded attempts, deterministic
//!   exponential backoff with seeded jitter, optional per-query deadline),
//!   escalates to [`SupgError::OracleFailed`] when attempts run out, and
//!   keeps budget accounting exact: faults fire *before* the inner oracle
//!   is consulted, so only the final successful distinct label consumes
//!   budget and a retried run's
//!   [`QueryOutcome`](crate::session::QueryOutcome) is bit-identical to
//!   the fault-free run (pinned by `tests/resilience_parity.rs`), apart
//!   from the new retry-accounting fields.
//!
//! ## Determinism contract under retries
//!
//! Sampling stays on the session thread and [`FaultyOracle`] has no
//! batch-native path, so labeling requests reach it in input order for
//! every `parallelism`/`batch_size` setting; its per-index attempt
//! counters therefore evolve identically across runtime configurations,
//! and so does every injected fault. [`ResilientOracle`] never sleeps by
//! default — backoff is *accounted* (in [`RetryStats`] and against the
//! deadline's virtual clock) rather than slept — so tests are fast and
//! timing-independent; opt into real sleeping with
//! [`RetryPolicy::with_sleep`] for wall-clock-faithful deployments.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::error::SupgError;
use crate::oracle::Oracle;
use crate::runtime::{split_seed, split_unit, RuntimeConfig};
use crate::session::SessionOracle;

/// Retry-accounting totals an oracle stack reports through
/// [`Oracle::retry_stats`]: how many transient failures were retried, how
/// many records failed permanently, and how much backoff was accrued.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Transient oracle failures that were re-attempted.
    pub retries: u64,
    /// Records whose labeling failed permanently (attempts exhausted).
    pub failures: u64,
    /// Total backoff accrued between attempts (virtual unless the policy
    /// sleeps for real).
    pub backoff: Duration,
}

impl RetryStats {
    /// Component-wise sum — how a wrapper folds its own counters into its
    /// inner oracle's.
    pub fn merged(self, other: RetryStats) -> RetryStats {
        RetryStats {
            retries: self.retries + other.retries,
            failures: self.failures + other.failures,
            backoff: self.backoff + other.backoff,
        }
    }

    /// Component-wise (saturating) difference: the activity that happened
    /// *since* an earlier snapshot — how the session attributes retries to
    /// one query on a long-lived oracle.
    pub fn since(self, earlier: RetryStats) -> RetryStats {
        RetryStats {
            retries: self.retries.saturating_sub(earlier.retries),
            failures: self.failures.saturating_sub(earlier.failures),
            backoff: self.backoff.saturating_sub(earlier.backoff),
        }
    }
}

/// What the fault plan decreed for one record index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// The record labels normally.
    Clean,
    /// The first `count` labeling attempts fail transiently, then the
    /// record labels normally.
    Transient {
        /// Number of leading attempts that fail.
        count: u32,
    },
    /// Every labeling attempt fails permanently.
    Permanent,
}

/// A seeded, declarative fault schedule: per record index, decide between
/// clean labeling, a bounded run of transient failures, or a permanent
/// failure — plus a fixed simulated latency per labeling attempt.
///
/// Decisions are pure functions of `(seed, index)` via [`split_unit`], so
/// the schedule is identical whatever order, thread or batch the records
/// are labeled in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    transient_rate: f64,
    permanent_rate: f64,
    max_transients: u32,
    latency: Duration,
}

/// Sub-stream tags carving independent decision streams out of one seed.
const STREAM_KIND: u64 = 0x_FA01;
const STREAM_COUNT: u64 = 0x_FA02;
const STREAM_JITTER: u64 = 0x_FA03;

impl FaultPlan {
    /// A plan with no faults and no latency — compose rates in with the
    /// `with_*` builders.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            transient_rate: 0.0,
            permanent_rate: 0.0,
            max_transients: 2,
            latency: Duration::ZERO,
        }
    }

    /// Fraction of records (clamped to `[0, 1]`) whose first attempts fail
    /// transiently.
    pub fn with_transient_rate(mut self, rate: f64) -> Self {
        self.transient_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Fraction of records (clamped to `[0, 1]`) that fail permanently.
    /// Permanent faults take precedence over transient ones.
    pub fn with_permanent_rate(mut self, rate: f64) -> Self {
        self.permanent_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Upper bound (clamped to ≥ 1; default 2) on the consecutive
    /// transient failures one record injects; the per-record count is
    /// drawn uniformly from `1..=max`.
    pub fn with_max_transients(mut self, max: u32) -> Self {
        self.max_transients = max.max(1);
        self
    }

    /// Simulated backend latency per labeling attempt, accumulated in
    /// [`FaultyOracle::simulated_latency`] — never slept.
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self
    }

    /// The simulated per-attempt latency.
    pub fn latency(&self) -> Duration {
        self.latency
    }

    /// The plan's decree for `index` — pure, reproducible, thread-free.
    pub fn decision(&self, index: usize) -> FaultDecision {
        let u = split_unit(split_seed(self.seed, STREAM_KIND), index as u64);
        if u < self.permanent_rate {
            FaultDecision::Permanent
        } else if u < self.permanent_rate + self.transient_rate {
            let extra = split_seed(split_seed(self.seed, STREAM_COUNT), index as u64)
                % u64::from(self.max_transients);
            FaultDecision::Transient {
                count: 1 + extra as u32,
            }
        } else {
            FaultDecision::Clean
        }
    }
}

/// A chaos-injection wrapper over any [`Oracle`]: faults fire according to
/// the [`FaultPlan`] *before* the inner oracle is consulted, so an
/// injected failure never consumes budget, never caches a label, and a
/// fault that is eventually retried through leaves the inner oracle in
/// exactly the fault-free state.
///
/// Deliberately has **no** batch-native path: the blanket
/// [`BatchOracle`](crate::oracle::BatchOracle) loop labels records in
/// input order on the session thread, which keeps the per-index attempt
/// counters — and therefore the fault schedule — identical at every
/// `parallelism`/`batch_size`. This is a test/chaos harness, not a
/// throughput path.
#[derive(Debug)]
pub struct FaultyOracle<O> {
    inner: O,
    plan: FaultPlan,
    attempts: HashMap<usize, u32>,
    injected_transients: u64,
    injected_permanents: u64,
    simulated_latency: Duration,
}

impl<O: Oracle> FaultyOracle<O> {
    /// Wraps `inner` under the given fault schedule.
    pub fn new(inner: O, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            attempts: HashMap::new(),
            injected_transients: 0,
            injected_permanents: 0,
            simulated_latency: Duration::ZERO,
        }
    }

    /// Transient faults injected so far.
    pub fn injected_transients(&self) -> u64 {
        self.injected_transients
    }

    /// Permanent faults injected so far.
    pub fn injected_permanents(&self) -> u64 {
        self.injected_permanents
    }

    /// Total simulated backend latency accumulated across attempts.
    pub fn simulated_latency(&self) -> Duration {
        self.simulated_latency
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwraps the inner oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: Oracle> Oracle for FaultyOracle<O> {
    fn label(&mut self, index: usize) -> Result<bool, SupgError> {
        self.simulated_latency += self.plan.latency;
        // Only faulted records need an attempt count; clean ones (most
        // of them) never touch the map.
        let decision = self.plan.decision(index);
        if decision == FaultDecision::Clean {
            return self.inner.label(index);
        }
        let attempt = self.attempts.entry(index).or_insert(0);
        *attempt += 1;
        let attempt = *attempt;
        match decision {
            FaultDecision::Permanent => {
                self.injected_permanents += 1;
                Err(SupgError::OracleFailed {
                    index,
                    attempts: attempt,
                })
            }
            FaultDecision::Transient { count } if attempt <= count => {
                self.injected_transients += 1;
                Err(SupgError::OracleTransient {
                    index,
                    cause: format!("injected transient {attempt}/{count}"),
                })
            }
            _ => self.inner.label(index),
        }
    }

    fn calls_used(&self) -> usize {
        self.inner.calls_used()
    }

    fn budget(&self) -> usize {
        self.inner.budget()
    }

    fn configure_runtime(&mut self, runtime: RuntimeConfig) {
        self.inner.configure_runtime(runtime);
    }

    fn retry_stats(&self) -> RetryStats {
        self.inner.retry_stats()
    }
}

impl<O: SessionOracle> SessionOracle for FaultyOracle<O> {
    fn set_budget(&mut self, budget: usize) {
        self.inner.set_budget(budget);
    }
}

/// How [`ResilientOracle`] recovers from transient failures: bounded
/// attempts, capped exponential backoff with seeded jitter, and an
/// optional per-query deadline.
///
/// Backoff before retry `k` (1-based) is
/// `min(base_backoff · 2^(k−1), max_backoff)` plus a jitter fraction
/// drawn deterministically from `(seed, index, k)` — reproducible, never
/// synchronized across records (no thundering herd on a recovering
/// backend).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Labeling attempts per record, including the first (clamped to ≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Cap on the exponential backoff growth.
    pub max_backoff: Duration,
    /// Jitter as a fraction of the capped backoff (`0.1` = up to +10%).
    pub jitter: f64,
    /// Seed of the jitter stream.
    pub seed: u64,
    /// Per-query deadline checked before every attempt, against real
    /// elapsed time plus accrued virtual backoff.
    pub deadline: Option<Duration>,
    /// Whether to actually sleep the backoff (default `false`: backoff is
    /// accounted and counted against the deadline, not slept — the right
    /// mode for simulated faults and tests).
    pub sleep: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            jitter: 0.1,
            seed: 0x5097_2020,
            deadline: None,
            sleep: false,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, no backoff) — the shape
    /// serving uses when a caller sets only a deadline.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// Policy with a different attempt bound (clamped to ≥ 1).
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Policy with different backoff bounds.
    pub fn with_backoff(mut self, base: Duration, max: Duration) -> Self {
        self.base_backoff = base;
        self.max_backoff = max;
        self
    }

    /// Policy with a different jitter fraction (clamped to `[0, 1]`).
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.clamp(0.0, 1.0);
        self
    }

    /// Policy with a different jitter-stream seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Policy with a per-query deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Policy that really sleeps its backoff.
    pub fn with_sleep(mut self, sleep: bool) -> Self {
        self.sleep = sleep;
        self
    }

    /// The deterministic backoff before retry `retry` (1-based) of record
    /// `index`: capped exponential plus seeded jitter.
    pub fn backoff_for(&self, retry: u32, index: usize) -> Duration {
        let doublings = retry.saturating_sub(1).min(20);
        let exp = self.base_backoff.saturating_mul(1 << doublings);
        let capped = exp.min(self.max_backoff);
        let stream = split_seed(split_seed(self.seed, STREAM_JITTER), index as u64);
        let u = split_unit(stream, u64::from(retry));
        capped + capped.mul_f64(self.jitter.clamp(0.0, 1.0) * u)
    }
}

/// The retry runtime: wraps any [`Oracle`] and re-issues transiently
/// failing label calls under a [`RetryPolicy`], escalating to
/// [`SupgError::OracleFailed`] when attempts run out and to
/// [`SupgError::DeadlineExceeded`] when the per-query deadline elapses.
///
/// Non-transient errors ([`SupgError::is_transient`] is `false` — budget
/// exhaustion, bad indexes, permanent faults) propagate immediately:
/// retrying a deterministic failure only burns the deadline.
///
/// Budget exactness is structural: a transient fault fires before the
/// inner oracle consumes anything, so the eventual success is the one and
/// only budget-consuming call for that record, and query outcomes are
/// bit-identical to the fault-free run.
#[derive(Debug)]
pub struct ResilientOracle<O> {
    inner: O,
    policy: RetryPolicy,
    stats: RetryStats,
    started: Instant,
    virtual_backoff: Duration,
}

impl<O: Oracle> ResilientOracle<O> {
    /// Wraps `inner` under the given retry policy. The deadline clock (if
    /// any) starts now.
    pub fn new(inner: O, policy: RetryPolicy) -> Self {
        Self {
            inner,
            policy: RetryPolicy {
                max_attempts: policy.max_attempts.max(1),
                ..policy
            },
            stats: RetryStats::default(),
            started: Instant::now(),
            virtual_backoff: Duration::ZERO,
        }
    }

    /// This wrapper's own retry counters (excluding any inner stack's).
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// The active policy.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwraps the inner oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// Elapsed time against the deadline: real time, plus backoff that was
    /// accounted instead of slept.
    fn elapsed(&self) -> Duration {
        let real = self.started.elapsed();
        if self.policy.sleep {
            real
        } else {
            real + self.virtual_backoff
        }
    }

    fn check_deadline(&self) -> Result<(), SupgError> {
        if let Some(deadline) = self.policy.deadline {
            if self.elapsed() >= deadline {
                return Err(SupgError::DeadlineExceeded { deadline });
            }
        }
        Ok(())
    }

    /// Accounts (and optionally sleeps) the backoff before retry `retry`
    /// of `index`.
    fn back_off(&mut self, retry: u32, index: usize) {
        let pause = self.policy.backoff_for(retry, index);
        self.stats.backoff += pause;
        self.virtual_backoff += pause;
        if self.policy.sleep {
            std::thread::sleep(pause);
        }
    }
}

impl<O: Oracle> Oracle for ResilientOracle<O> {
    fn label(&mut self, index: usize) -> Result<bool, SupgError> {
        let max = self.policy.max_attempts;
        for attempt in 1..=max {
            self.check_deadline()?;
            match self.inner.label(index) {
                Ok(label) => return Ok(label),
                Err(e) if e.is_transient() => {
                    if attempt == max {
                        self.stats.failures += 1;
                        return Err(SupgError::OracleFailed {
                            index,
                            attempts: max,
                        });
                    }
                    self.stats.retries += 1;
                    self.back_off(attempt, index);
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("retry loop returns on every path")
    }

    fn calls_used(&self) -> usize {
        self.inner.calls_used()
    }

    fn budget(&self) -> usize {
        self.inner.budget()
    }

    fn label_batch_native(&mut self, indices: &[usize]) -> Option<Result<Vec<bool>, SupgError>> {
        // Only meaningful when the *inner* oracle is batch-native (the
        // fault harness is not — it takes the per-record blanket loop
        // through `label`, which carries the per-record retry logic).
        // A transiently failing native batch is retried whole: the
        // documented partial-failure contract guarantees every record
        // before the failing position is already cached, so the re-issue
        // costs cache hits plus the one failing record.
        let mut attempts: HashMap<usize, u32> = HashMap::new();
        loop {
            if let Err(e) = self.check_deadline() {
                return Some(Err(e));
            }
            match self.inner.label_batch_native(indices)? {
                Ok(labels) => return Some(Ok(labels)),
                Err(SupgError::OracleTransient { index, .. }) => {
                    let attempt = attempts.entry(index).or_insert(1);
                    if *attempt >= self.policy.max_attempts {
                        self.stats.failures += 1;
                        return Some(Err(SupgError::OracleFailed {
                            index,
                            attempts: *attempt,
                        }));
                    }
                    self.stats.retries += 1;
                    let retry = *attempt;
                    *attempt += 1;
                    self.back_off(retry, index);
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }

    fn configure_runtime(&mut self, runtime: RuntimeConfig) {
        self.inner.configure_runtime(runtime);
    }

    fn retry_stats(&self) -> RetryStats {
        self.stats.merged(self.inner.retry_stats())
    }
}

impl<O: SessionOracle> SessionOracle for ResilientOracle<O> {
    fn set_budget(&mut self, budget: usize) {
        self.inner.set_budget(budget);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{BatchOracle, CachedOracle};

    fn faulty(
        labels: Vec<bool>,
        budget: usize,
        transient: f64,
        permanent: f64,
    ) -> FaultyOracle<CachedOracle> {
        FaultyOracle::new(
            CachedOracle::from_labels(labels, budget),
            FaultPlan::new(77)
                .with_transient_rate(transient)
                .with_permanent_rate(permanent),
        )
    }

    #[test]
    fn fault_plan_is_a_pure_function_of_the_index() {
        let plan = FaultPlan::new(9)
            .with_transient_rate(0.3)
            .with_permanent_rate(0.05)
            .with_max_transients(3);
        let first: Vec<FaultDecision> = (0..2_000).map(|i| plan.decision(i)).collect();
        let second: Vec<FaultDecision> = (0..2_000).map(|i| plan.decision(i)).collect();
        assert_eq!(first, second);
        let transients = first
            .iter()
            .filter(|d| matches!(d, FaultDecision::Transient { .. }))
            .count();
        let permanents = first
            .iter()
            .filter(|d| matches!(d, FaultDecision::Permanent))
            .count();
        // Rates land near their nominal values (loose: 2000 draws).
        assert!((400..=800).contains(&transients), "{transients} transients");
        assert!((40..=180).contains(&permanents), "{permanents} permanents");
        for d in &first {
            if let FaultDecision::Transient { count } = d {
                assert!((1..=3).contains(count));
            }
        }
    }

    #[test]
    fn transient_faults_do_not_consume_budget_or_cache() {
        // Find a transiently faulting index under the plan.
        let plan = FaultPlan::new(77).with_transient_rate(0.2);
        let idx = (0..500)
            .find(|&i| matches!(plan.decision(i), FaultDecision::Transient { .. }))
            .expect("some index faults");
        let mut o = faulty(vec![true; 500], 10, 0.2, 0.0);
        let err = o.label(idx).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(o.calls_used(), 0, "injected fault consumed budget");
        assert_eq!(o.inner().cached(idx), None);
        // Retrying past the fault count succeeds and bills exactly once.
        let label = loop {
            match o.label(idx) {
                Ok(l) => break l,
                Err(e) => assert!(e.is_transient()),
            }
        };
        assert!(label);
        assert_eq!(o.calls_used(), 1);
        assert!(o.injected_transients() >= 1);
    }

    #[test]
    fn permanent_faults_fire_on_every_attempt() {
        let plan = FaultPlan::new(77).with_permanent_rate(0.1);
        let idx = (0..500)
            .find(|&i| matches!(plan.decision(i), FaultDecision::Permanent))
            .expect("some index faults permanently");
        let mut o = faulty(vec![true; 500], 10, 0.0, 0.1);
        for attempt in 1..=3u32 {
            let err = o.label(idx).unwrap_err();
            assert_eq!(
                err,
                SupgError::OracleFailed {
                    index: idx,
                    attempts: attempt
                }
            );
            assert!(!err.is_transient());
        }
        assert_eq!(o.calls_used(), 0);
        assert_eq!(o.injected_permanents(), 3);
    }

    #[test]
    fn simulated_latency_accumulates_without_sleeping() {
        let plan = FaultPlan::new(1).with_latency(Duration::from_millis(250));
        let mut o = FaultyOracle::new(CachedOracle::from_labels(vec![true; 4], 4), plan);
        let wall = Instant::now();
        for i in 0..4 {
            o.label(i).unwrap();
        }
        assert_eq!(o.simulated_latency(), Duration::from_millis(1_000));
        assert!(
            wall.elapsed() < Duration::from_millis(900),
            "latency was slept"
        );
    }

    #[test]
    fn resilient_oracle_retries_transients_to_success() {
        let inner = faulty((0..500).map(|i| i % 3 == 0).collect(), 500, 0.3, 0.0);
        let mut o = ResilientOracle::new(inner, RetryPolicy::default());
        let labels: Vec<bool> = (0..500).map(|i| o.label(i).unwrap()).collect();
        assert_eq!(labels, (0..500).map(|i| i % 3 == 0).collect::<Vec<_>>());
        // Every record was billed exactly once despite the faults.
        assert_eq!(o.calls_used(), 500);
        let stats = o.retry_stats();
        assert!(stats.retries > 0, "no transients were exercised");
        assert_eq!(stats.failures, 0);
        assert!(stats.backoff > Duration::ZERO);
    }

    #[test]
    fn attempt_exhaustion_escalates_to_oracle_failed() {
        let plan = FaultPlan::new(77)
            .with_transient_rate(0.2)
            .with_max_transients(5);
        let idx = (0..500)
            .find(|&i| matches!(plan.decision(i), FaultDecision::Transient { count } if count >= 3))
            .expect("some index faults at least 3 times");
        let inner = FaultyOracle::new(CachedOracle::from_labels(vec![true; 500], 500), plan);
        let mut o = ResilientOracle::new(inner, RetryPolicy::default().with_max_attempts(2));
        assert_eq!(
            o.label(idx).unwrap_err(),
            SupgError::OracleFailed {
                index: idx,
                attempts: 2
            }
        );
        assert_eq!(o.stats().failures, 1);
        assert_eq!(o.stats().retries, 1, "one re-attempt before giving up");
        assert_eq!(o.calls_used(), 0, "failed record must not be billed");
    }

    #[test]
    fn non_transient_errors_propagate_without_retry() {
        let inner = CachedOracle::from_labels(vec![true; 4], 1);
        let mut o = ResilientOracle::new(inner, RetryPolicy::default());
        o.label(0).unwrap();
        assert_eq!(
            o.label(1).unwrap_err(),
            SupgError::BudgetExhausted { budget: 1 }
        );
        assert_eq!(
            o.label(9).unwrap_err(),
            SupgError::IndexOutOfRange { index: 9, len: 4 }
        );
        let stats = o.stats();
        assert_eq!((stats.retries, stats.failures), (0, 0));
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let policy = RetryPolicy::default()
            .with_backoff(Duration::from_millis(10), Duration::from_millis(50))
            .with_jitter(0.0);
        assert_eq!(policy.backoff_for(1, 7), Duration::from_millis(10));
        assert_eq!(policy.backoff_for(2, 7), Duration::from_millis(20));
        assert_eq!(policy.backoff_for(3, 7), Duration::from_millis(40));
        assert_eq!(
            policy.backoff_for(4, 7),
            Duration::from_millis(50),
            "capped"
        );
        assert_eq!(policy.backoff_for(30, 7), Duration::from_millis(50));

        let jittered = RetryPolicy::default()
            .with_backoff(Duration::from_millis(10), Duration::from_secs(1))
            .with_jitter(0.5);
        let a = jittered.backoff_for(1, 7);
        assert_eq!(a, jittered.backoff_for(1, 7), "jitter must be seeded");
        assert!(a >= Duration::from_millis(10) && a <= Duration::from_millis(15));
        // Different records decorrelate (with overwhelming probability
        // over a fixed seed this inequality is deterministic).
        assert_ne!(jittered.backoff_for(1, 7), jittered.backoff_for(1, 8));
    }

    #[test]
    fn deadline_trips_deterministically_via_virtual_backoff() {
        // Zero deadline: the very first attempt is already late.
        let inner = CachedOracle::from_labels(vec![true; 8], 8);
        let mut o = ResilientOracle::new(inner, RetryPolicy::none().with_deadline(Duration::ZERO));
        assert_eq!(
            o.label(0).unwrap_err(),
            SupgError::DeadlineExceeded {
                deadline: Duration::ZERO
            }
        );

        // A generous wall-clock deadline tripped purely by accounted
        // (unslept) backoff: the retries charge hours of virtual time.
        let plan = FaultPlan::new(77).with_transient_rate(0.2);
        let idx = (0..500)
            .find(|&i| matches!(plan.decision(i), FaultDecision::Transient { .. }))
            .expect("some index faults");
        let inner = FaultyOracle::new(CachedOracle::from_labels(vec![true; 500], 500), plan);
        let mut o = ResilientOracle::new(
            inner,
            RetryPolicy::default()
                .with_backoff(Duration::from_secs(3_600), Duration::from_secs(3_600))
                .with_deadline(Duration::from_secs(60)),
        );
        let wall = Instant::now();
        assert_eq!(
            o.label(idx).unwrap_err(),
            SupgError::DeadlineExceeded {
                deadline: Duration::from_secs(60)
            }
        );
        assert!(wall.elapsed() < Duration::from_secs(5), "backoff was slept");
    }

    #[test]
    fn batch_native_path_retries_whole_batches() {
        // An inner CachedOracle *is* batch-native; fail its batches
        // transiently at the oracle-source level via a wrapper that fails
        // the whole native call the first two times.
        struct FlakyBatch {
            inner: CachedOracle,
            native_failures: u32,
        }
        impl Oracle for FlakyBatch {
            fn label(&mut self, index: usize) -> Result<bool, SupgError> {
                self.inner.label(index)
            }
            fn calls_used(&self) -> usize {
                self.inner.calls_used()
            }
            fn budget(&self) -> usize {
                self.inner.budget()
            }
            fn label_batch_native(
                &mut self,
                indices: &[usize],
            ) -> Option<Result<Vec<bool>, SupgError>> {
                if self.native_failures > 0 {
                    self.native_failures -= 1;
                    return Some(Err(SupgError::OracleTransient {
                        index: indices[0],
                        cause: "batch endpoint hiccup".into(),
                    }));
                }
                self.inner.label_batch_native(indices)
            }
        }
        let inner = FlakyBatch {
            inner: CachedOracle::from_labels((0..64).map(|i| i % 2 == 0).collect(), 64),
            native_failures: 2,
        };
        let mut o = ResilientOracle::new(inner, RetryPolicy::default());
        let indices: Vec<usize> = (0..64).collect();
        let labels = o.label_batch(&indices).unwrap();
        assert_eq!(labels, (0..64).map(|i| i % 2 == 0).collect::<Vec<_>>());
        assert_eq!(o.stats().retries, 2);
        assert_eq!(o.calls_used(), 64);
    }

    #[test]
    fn mut_ref_oracles_compose_with_the_wrappers() {
        // The serving layer wraps `&mut dyn SessionOracle`; prove the
        // blanket &mut impls thread budget re-planning through the stack.
        let mut base = CachedOracle::from_labels(vec![true; 16], 4);
        {
            let dynamic: &mut dyn SessionOracle = &mut base;
            let mut o = ResilientOracle::new(dynamic, RetryPolicy::default());
            o.label(0).unwrap();
            o.set_budget(16);
            assert_eq!(o.budget(), 16);
            for i in 1..10 {
                o.label(i).unwrap();
            }
        }
        assert_eq!(base.calls_used(), 10);
        assert_eq!(base.budget(), 16);
    }

    #[test]
    fn retry_stats_merge_and_diff() {
        let a = RetryStats {
            retries: 5,
            failures: 1,
            backoff: Duration::from_millis(30),
        };
        let b = RetryStats {
            retries: 2,
            failures: 0,
            backoff: Duration::from_millis(10),
        };
        assert_eq!(
            a.merged(b),
            RetryStats {
                retries: 7,
                failures: 1,
                backoff: Duration::from_millis(40)
            }
        );
        assert_eq!(a.merged(b).since(a), b);
        assert_eq!(b.since(a), RetryStats::default(), "saturating");
    }
}

//! The server: admission control in front of the pool and the tenants.
//!
//! [`SupgServer::serve`] is the one entry point a serving deployment
//! drives. Per query it (1) takes an in-flight slot — or sheds with
//! [`ServeError::Overloaded`] when the bounded limit is reached, before
//! touching any budget; (2) resolves the pooled dataset; (3) passes the
//! dataset's circuit breaker — or sheds with
//! [`ServeError::CircuitOpen`] while the dataset's oracle is failing;
//! (4) reserves the query's declared oracle cost from the tenant's
//! budget — or sheds with [`ServeError::BudgetExhausted`]; (5) runs the
//! query over the pooled `Arc<PreparedDataset>`, wrapped in a
//! [`ResilientOracle`] when the spec asks for retries or a deadline; and
//! (6) settles the reservation against the calls actually consumed and
//! folds the outcome into the tenant's aggregates. The slot, the
//! breaker pass and the reservation are all held by drop guards, so
//! shedding, error and panic paths can never leak them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use supg_core::selectors::SelectorConfig;
use supg_core::session::DEFAULT_SEED;
use supg_core::{
    PlanPolicy, PlanStats, Planner, QueryOutcome, ResilientOracle, RetryPolicy, SamplerStrategy,
    SelectorKind, SessionOracle, SupgError, SupgSession,
};

use crate::breaker::{BreakerConfig, BreakerPass, BreakerStats, CircuitBreaker};
use crate::error::ServeError;
use crate::metrics::{MetricsSnapshot, ServerMetrics};
use crate::pool::SessionPool;
use crate::tenant::{TenantRegistry, TenantState};

/// What a query asks for: one of the paper's three target kinds with its
/// `γ` value(s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryTarget {
    /// Recall-target (RT): recall ≥ `γ` with probability ≥ 1 − δ.
    Recall(f64),
    /// Precision-target (PT): precision ≥ `γ` with probability ≥ 1 − δ.
    Precision(f64),
    /// Joint-target (JT): both, via the appendix-A two-stage pipeline.
    Joint {
        /// The recall target `γ_r`.
        recall: f64,
        /// The precision target `γ_p`.
        precision: f64,
    },
}

/// A serving-layer query specification: everything
/// [`SupgServer::serve`] needs to configure a [`SupgSession`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySpec {
    /// The target kind and `γ` value(s).
    pub target: QueryTarget,
    /// Failure probability `δ` (default 0.05).
    pub delta: f64,
    /// Oracle budget: the total budget of an RT/PT query, the recall
    /// *stage* budget of a JT query (whose filter stage is unbudgeted by
    /// design — its overdraft is settled against the tenant's budget
    /// after the fact).
    pub budget: usize,
    /// Explicit algorithm family, or `None` for the paper's SUPG default.
    pub selector: Option<SelectorKind>,
    /// Selector tuning knobs (CI method, weights, sampler strategy, …).
    pub config: SelectorConfig,
    /// RNG seed — fixed per spec so a replay reproduces the outcome
    /// bit for bit.
    pub seed: u64,
    /// Per-query deadline, or `None` for no limit. Enforced inside the
    /// oracle loop (retry backoff counts against it) and surfaced as
    /// [`ServeError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Retry policy for transient oracle failures, or `None` to fail
    /// fast on the first error. Retried queries return outcomes
    /// bit-identical to a fault-free run, differing only in the retry
    /// accounting fields.
    pub retry: Option<RetryPolicy>,
}

impl QuerySpec {
    /// An RT query at the paper defaults (`δ = 0.05`, SUPG selector).
    pub fn recall(gamma: f64, budget: usize) -> Self {
        Self::new(QueryTarget::Recall(gamma), budget)
    }

    /// A PT query at the paper defaults.
    pub fn precision(gamma: f64, budget: usize) -> Self {
        Self::new(QueryTarget::Precision(gamma), budget)
    }

    /// A JT query at the paper defaults; `stage_budget` bounds the recall
    /// stage.
    pub fn joint(recall: f64, precision: f64, stage_budget: usize) -> Self {
        Self::new(QueryTarget::Joint { recall, precision }, stage_budget)
    }

    fn new(target: QueryTarget, budget: usize) -> Self {
        Self {
            target,
            delta: 0.05,
            budget,
            selector: None,
            config: SelectorConfig::default(),
            seed: DEFAULT_SEED,
            deadline: None,
            retry: None,
        }
    }

    /// Spec with a different failure probability `δ`.
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Spec with an explicit algorithm family.
    pub fn with_selector(mut self, selector: SelectorKind) -> Self {
        self.selector = Some(selector);
        self
    }

    /// Spec with different selector tuning knobs.
    pub fn with_config(mut self, config: SelectorConfig) -> Self {
        self.config = config;
        self
    }

    /// Spec with a different RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Spec with a per-query deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Spec with a retry policy for transient oracle failures.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// The oracle calls this query declares it may consume — what
    /// admission control reserves up front. (A JT query may exceed this
    /// in its unbudgeted filter stage; the overdraft is settled
    /// afterwards.)
    pub fn declared_calls(&self) -> usize {
        self.budget
    }

    /// Builds the configured session over a pooled dataset handle.
    fn session(&self, dataset: Arc<supg_core::PreparedDataset>) -> SupgSession<'static> {
        let session = SupgSession::over(dataset)
            .delta(self.delta)
            .selector_config(self.config)
            .seed(self.seed);
        let session = match self.selector {
            Some(kind) => session.selector(kind),
            None => session,
        };
        match self.target {
            QueryTarget::Recall(gamma) => session.recall(gamma).budget(self.budget),
            QueryTarget::Precision(gamma) => session.precision(gamma).budget(self.budget),
            QueryTarget::Joint { recall, precision } => session
                .recall(recall)
                .precision(precision)
                .joint(self.budget),
        }
    }
}

/// An operator's per-dataset override of the adaptive planner — policy
/// lives with the server, not the query, so a misbehaving client spec
/// can't undo an operational decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanOverride {
    /// Let the planner resolve every decision from measured signals
    /// (the default).
    #[default]
    Adaptive,
    /// Pin the sampler strategy, overriding both the planner's choice
    /// and the query spec's request.
    Pin(SamplerStrategy),
    /// Forbid the CDF backend for this dataset (e.g. its recipes are
    /// always reused, so paying the alias build up front is known-good).
    ForbidCdf,
}

impl PlanOverride {
    fn policy(self) -> PlanPolicy {
        match self {
            PlanOverride::Adaptive => PlanPolicy::default(),
            PlanOverride::Pin(s) => PlanPolicy {
                pin_sampler: Some(s),
                ..PlanPolicy::default()
            },
            PlanOverride::ForbidCdf => PlanPolicy {
                forbid_cdf: true,
                ..PlanPolicy::default()
            },
        }
    }
}

/// Server tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Bounded in-flight-query limit (clamped to ≥ 1): queries beyond it
    /// are shed with [`ServeError::Overloaded`] instead of queueing — the
    /// graceful-degradation contract of a saturated server.
    pub max_in_flight: usize,
    /// Per-dataset circuit-breaker tuning (set `failure_threshold: 0` to
    /// disable breaking).
    pub breaker: BreakerConfig,
    /// Per-dataset planner overrides; datasets not listed run fully
    /// adaptive. Applied at admission, before the query spec is read.
    pub plan_overrides: HashMap<String, PlanOverride>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_in_flight: 64,
            breaker: BreakerConfig::default(),
            plan_overrides: HashMap::new(),
        }
    }
}

impl ServerConfig {
    /// Config with a planner override for one dataset.
    pub fn with_plan_override(mut self, dataset: impl Into<String>, ov: PlanOverride) -> Self {
        self.plan_overrides.insert(dataset.into(), ov);
        self
    }
}

/// The multi-tenant SUPG query server: a [`SessionPool`], a
/// [`TenantRegistry`] and a bounded in-flight counter. `Send + Sync` —
/// share it behind an `Arc` and call [`serve`](SupgServer::serve) from
/// any number of client threads (each with its own oracle).
#[derive(Debug, Default)]
pub struct SupgServer {
    pool: SessionPool,
    tenants: TenantRegistry,
    in_flight: AtomicUsize,
    config: ServerConfig,
    /// One circuit breaker per dataset, created lazily on first serve.
    /// Only names that resolved through the pool get an entry, so the
    /// map is bounded by the registered datasets.
    breakers: RwLock<HashMap<String, Arc<CircuitBreaker>>>,
    /// One adaptive planner per dataset, created lazily on first serve
    /// with that dataset's [`PlanOverride`] policy. Shared across
    /// queries so the oracle-latency EWMA persists, and bounded by the
    /// registered datasets for the same reason as `breakers`.
    planners: RwLock<HashMap<String, Arc<Planner>>>,
    /// Server-wide counters and latency histograms, recorded on every
    /// admission decision and finished query.
    metrics: ServerMetrics,
}

/// Releases the in-flight slot on every exit path.
struct InFlightSlot<'a>(&'a AtomicUsize);

impl Drop for InFlightSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Holds a tenant budget reservation; dropping it unsettled (an error
/// return, a panicking oracle) releases the declared calls in full, so
/// no failure path can leak budget.
struct Reservation<'a> {
    tenant: &'a TenantState,
    declared: usize,
    armed: bool,
}

impl<'a> Reservation<'a> {
    fn take(tenant: &'a TenantState, declared: usize) -> Result<Self, ServeError> {
        tenant.try_reserve(declared)?;
        Ok(Self {
            tenant,
            declared,
            armed: true,
        })
    }

    /// The query completed: bill actual consumption, refund the rest.
    fn settle(mut self, actual: usize) {
        self.armed = false;
        self.tenant.settle(self.declared, actual);
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.tenant.release(self.declared);
        }
    }
}

impl SupgServer {
    /// A server with the given tuning and empty pool/registry.
    pub fn new(config: ServerConfig) -> Self {
        Self {
            pool: SessionPool::new(),
            tenants: TenantRegistry::new(),
            in_flight: AtomicUsize::new(0),
            config,
            breakers: RwLock::new(HashMap::new()),
            planners: RwLock::new(HashMap::new()),
            metrics: ServerMetrics::new(),
        }
    }

    /// The dataset pool (register/warm datasets through this).
    pub fn pool(&self) -> &SessionPool {
        &self.pool
    }

    /// The tenant registry (register/top-up tenants through this).
    pub fn tenants(&self) -> &TenantRegistry {
        &self.tenants
    }

    /// Queries currently executing.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// The server tuning.
    pub fn config(&self) -> ServerConfig {
        self.config.clone()
    }

    /// A point-in-time snapshot of the server-wide serving metrics:
    /// completed/failed/shed query counts, oracle work (calls, retries,
    /// time), cache hit rates, and per-stage latency histograms.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Aggregated planner decisions for a dataset — how many queries
    /// were planned, how the sampler resolved, and how many were pinned
    /// — or `None` when no query has reached that dataset yet.
    pub fn plan_stats(&self, dataset: &str) -> Option<PlanStats> {
        self.planners
            .read()
            .expect("planner map poisoned")
            .get(dataset)
            .map(|p| p.stats())
    }

    /// The planner for `dataset`, created on first use with the
    /// dataset's configured [`PlanOverride`] policy. Only called after
    /// the pool resolved the name, so unknown datasets never grow the
    /// map.
    fn planner_for(&self, dataset: &str) -> Arc<Planner> {
        if let Some(p) = self
            .planners
            .read()
            .expect("planner map poisoned")
            .get(dataset)
        {
            return Arc::clone(p);
        }
        let policy = self
            .config
            .plan_overrides
            .get(dataset)
            .copied()
            .unwrap_or_default()
            .policy();
        let mut map = self.planners.write().expect("planner map poisoned");
        Arc::clone(
            map.entry(dataset.to_owned())
                .or_insert_with(|| Arc::new(Planner::with_policy(policy))),
        )
    }

    /// A snapshot of a dataset's circuit breaker, or `None` when no
    /// query has reached that dataset yet (or breaking is disabled).
    pub fn breaker_stats(&self, dataset: &str) -> Option<BreakerStats> {
        self.breakers
            .read()
            .expect("breaker map poisoned")
            .get(dataset)
            .map(|b| b.stats())
    }

    /// The breaker guarding `dataset`, created closed on first use. Only
    /// called after the pool resolved the name, so unknown datasets
    /// never grow the map.
    fn breaker_for(&self, dataset: &str) -> Arc<CircuitBreaker> {
        if let Some(b) = self
            .breakers
            .read()
            .expect("breaker map poisoned")
            .get(dataset)
        {
            return Arc::clone(b);
        }
        let mut map = self.breakers.write().expect("breaker map poisoned");
        Arc::clone(
            map.entry(dataset.to_owned())
                .or_insert_with(|| Arc::new(CircuitBreaker::new(self.config.breaker))),
        )
    }

    /// Admits and runs one query for `tenant` over the pooled dataset
    /// `dataset`, against the caller's oracle. See the [module
    /// docs](self) for the admission pipeline. The returned outcome is
    /// bit-identical to running the same spec through a [`SupgSession`]
    /// directly — serving adds accounting, never different answers.
    ///
    /// # Errors
    /// [`ServeError::Overloaded`] / [`ServeError::BudgetExhausted`] /
    /// [`ServeError::CircuitOpen`] when the query is shed (nothing was
    /// executed), [`ServeError::UnknownTenant`] /
    /// [`ServeError::UnknownDataset`] for lookup failures,
    /// [`ServeError::DeadlineExceeded`] when the spec's deadline elapsed
    /// mid-query, and [`ServeError::Query`] when the SUPG pipeline itself
    /// fails. On every failure path the reservation is released in full.
    pub fn serve(
        &self,
        tenant: &str,
        dataset: &str,
        spec: &QuerySpec,
        oracle: &mut dyn SessionOracle,
    ) -> Result<QueryOutcome, ServeError> {
        let tenant = self.tenants.get(tenant)?;

        // Take an in-flight slot first: a saturated server sheds *before*
        // touching budgets, so shed queries are free for the tenant.
        let limit = self.config.max_in_flight.max(1);
        let admitted = self
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < limit).then_some(n + 1)
            });
        if admitted.is_err() {
            tenant.record_overload_shed();
            self.metrics.record_overload_shed();
            return Err(ServeError::Overloaded {
                in_flight: limit,
                limit,
            });
        }
        let _slot = InFlightSlot(&self.in_flight);

        // Resolve the dataset before reserving anything: unknown names
        // stay free and never materialize a breaker.
        let prepared = self.pool.get(dataset)?;

        // Pass the dataset's circuit breaker. An open circuit sheds at
        // zero oracle and budget cost; an unresolved pass (error/panic)
        // drops to a neutral outcome.
        let breaker = self
            .config
            .breaker
            .enabled()
            .then(|| self.breaker_for(dataset));
        let pass: Option<BreakerPass<'_>> = match breaker.as_deref() {
            Some(b) => match b.admit() {
                Ok(p) => Some(p),
                Err(retry_after) => {
                    tenant.record_circuit_shed();
                    self.metrics.record_circuit_shed();
                    return Err(ServeError::CircuitOpen {
                        dataset: dataset.to_owned(),
                        retry_after,
                    });
                }
            },
            None => None,
        };

        // A budget shed happens before any oracle call, so it says
        // nothing about oracle health: resolve the pass neutrally. When
        // the shed query was the half-open probe this releases the probe
        // slot and leaves the breaker half-open — it must not settle the
        // probe as a success (closing a circuit the oracle never proved
        // healthy) or a failure (re-opening it and restarting the
        // cooldown). Pinned by `budget_shed_during_half_open_*` in the
        // resilience integration tests.
        let reservation = match Reservation::take(&tenant, spec.declared_calls()) {
            Ok(r) => r,
            Err(shed) => {
                self.metrics.record_budget_shed();
                if let Some(p) = pass {
                    p.neutral();
                }
                return Err(shed);
            }
        };

        // Every served query runs through the dataset's planner: it
        // observes oracle latency for the EWMA and applies any operator
        // override; explicit spec knobs still pin their decisions.
        let planner = self.planner_for(dataset);

        // Wrap the caller's oracle in the retry runtime only when asked:
        // the fast path pays nothing for the capability.
        let run = if spec.retry.is_some() || spec.deadline.is_some() {
            let mut policy = spec.retry.unwrap_or_else(RetryPolicy::none);
            if let Some(deadline) = spec.deadline {
                policy.deadline = Some(match policy.deadline {
                    Some(d) => d.min(deadline),
                    None => deadline,
                });
            }
            let mut resilient = ResilientOracle::new(oracle, policy);
            spec.session(prepared).planned(planner).run(&mut resilient)
        } else {
            spec.session(prepared).planned(planner).run(oracle)
        };

        match run {
            Ok(outcome) => {
                reservation.settle(outcome.oracle_calls);
                tenant.record(&outcome);
                self.metrics.record_outcome(&outcome);
                if let Some(p) = pass {
                    p.success();
                }
                Ok(outcome)
            }
            Err(e) => {
                // The dropped reservation comes back whole: a failed
                // query's partial consumption is not billed.
                drop(reservation);
                self.metrics.record_failure();
                match e {
                    SupgError::DeadlineExceeded { deadline } => {
                        // A deadline says nothing about oracle health.
                        if let Some(p) = pass {
                            p.neutral();
                        }
                        Err(ServeError::DeadlineExceeded { deadline })
                    }
                    SupgError::OracleFailed { .. } => {
                        // Permanent oracle failure: feed the breaker.
                        if let Some(p) = pass {
                            p.failure();
                        }
                        Err(ServeError::Query(e))
                    }
                    other => {
                        if let Some(p) = pass {
                            p.neutral();
                        }
                        Err(ServeError::Query(other))
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supg_core::{CachedOracle, Oracle};

    fn server_with(n: usize, budget: usize, max_in_flight: usize) -> (SupgServer, Vec<bool>) {
        let scores: Vec<f64> = (0..n).map(|i| (i % 1000) as f64 / 1000.0).collect();
        let labels: Vec<bool> = scores.iter().map(|&s| s > 0.8).collect();
        let server = SupgServer::new(ServerConfig {
            max_in_flight,
            ..ServerConfig::default()
        });
        server.pool().register_scores("videos", scores).unwrap();
        server.tenants().register("acme", budget);
        (server, labels)
    }

    #[test]
    fn serve_runs_and_bills_the_tenant() {
        let (server, labels) = server_with(20_000, 2_500, 4);
        let mut oracle = CachedOracle::from_labels(labels, 1_000);
        let spec = QuerySpec::recall(0.9, 1_000).with_seed(7);
        let outcome = server.serve("acme", "videos", &spec, &mut oracle).unwrap();
        assert!(!outcome.result.is_empty());
        assert!(outcome.oracle_calls <= 1_000);

        let t = server.tenants().get("acme").unwrap();
        let stats = t.stats();
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.oracle_calls, outcome.oracle_calls as u64);
        // Billed actual consumption, not the declared budget.
        assert_eq!(
            t.remaining_budget(),
            2_500 - outcome.oracle_calls,
            "unused reservation must be refunded"
        );
        assert_eq!(server.in_flight(), 0);
    }

    #[test]
    fn segmented_registration_serves_identical_outcomes() {
        // The serving path over a segmented registration: same spec, same
        // seed, same answer bits as the flat registration — segments only
        // construct the corpus, which is served flat.
        let n = 20_000;
        let scores: Vec<f64> = (0..n).map(|i| (i % 1000) as f64 / 1000.0).collect();
        let labels: Vec<bool> = scores.iter().map(|&s| s > 0.8).collect();
        let server = SupgServer::new(ServerConfig {
            max_in_flight: 4,
            ..ServerConfig::default()
        });
        server
            .pool()
            .register_scores("flat", scores.clone())
            .unwrap();
        let seg = server
            .pool()
            .register_segmented("segmented", scores, 1 << 10)
            .unwrap();
        server.tenants().register("acme", 10_000);

        let spec = QuerySpec::recall(0.9, 1_000).with_seed(7);
        server.pool().warm("segmented", &spec.config).unwrap();
        assert_eq!(seg.cached_recipes(), 1);

        let mut flat_oracle = CachedOracle::from_labels(labels.clone(), 1_000);
        let mut seg_oracle = CachedOracle::from_labels(labels, 1_000);
        let flat = server
            .serve("acme", "flat", &spec, &mut flat_oracle)
            .unwrap();
        let segd = server
            .serve("acme", "segmented", &spec, &mut seg_oracle)
            .unwrap();
        assert_eq!(flat.tau.to_bits(), segd.tau.to_bits());
        assert_eq!(flat.result.indices(), segd.result.indices());
        assert_eq!(flat.oracle_calls, segd.oracle_calls);
    }

    #[test]
    fn budget_exhaustion_sheds_before_execution() {
        let (server, labels) = server_with(10_000, 700, 4);
        let spec = QuerySpec::recall(0.9, 500);
        let mut oracle = CachedOracle::from_labels(labels, 500);
        server.serve("acme", "videos", &spec, &mut oracle).unwrap();

        // Remaining budget cannot cover a second 500-call declaration.
        let mut oracle2 = CachedOracle::from_labels(vec![false; 10_000], 500);
        let err = server
            .serve("acme", "videos", &spec, &mut oracle2)
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::BudgetExhausted { requested: 500, .. }
        ));
        // The shed query never called the oracle.
        assert_eq!(oracle2.calls_used(), 0);
        assert_eq!(server.tenants().get("acme").unwrap().stats().shed_budget, 1);

        // Topping up restores service.
        server.tenants().get("acme").unwrap().add_budget(1_000);
        assert!(server.serve("acme", "videos", &spec, &mut oracle2).is_ok());
    }

    #[test]
    fn unknown_names_are_typed_and_free() {
        let (server, labels) = server_with(5_000, 1_000, 4);
        let spec = QuerySpec::recall(0.9, 300);
        let mut oracle = CachedOracle::from_labels(labels, 300);
        assert!(matches!(
            server.serve("ghost", "videos", &spec, &mut oracle),
            Err(ServeError::UnknownTenant(_))
        ));
        let err = server
            .serve("acme", "missing", &spec, &mut oracle)
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownDataset(_)));
        // The failed dataset lookup released the reservation in full.
        assert_eq!(
            server.tenants().get("acme").unwrap().remaining_budget(),
            1_000
        );
    }

    #[test]
    fn invalid_queries_release_the_reservation() {
        let (server, labels) = server_with(5_000, 1_000, 4);
        // γ out of range ⇒ the session's validation rejects it.
        let spec = QuerySpec::recall(1.5, 300);
        let mut oracle = CachedOracle::from_labels(labels, 300);
        let err = server
            .serve("acme", "videos", &spec, &mut oracle)
            .unwrap_err();
        assert!(matches!(err, ServeError::Query(_)));
        assert_eq!(
            server.tenants().get("acme").unwrap().remaining_budget(),
            1_000
        );
        assert_eq!(server.in_flight(), 0);
    }

    #[test]
    fn all_three_query_kinds_serve_through_the_pool() {
        let (server, labels) = server_with(20_000, 100_000, 4);
        for spec in [
            QuerySpec::recall(0.9, 800),
            QuerySpec::precision(0.9, 800),
            QuerySpec::joint(0.8, 0.9, 800),
        ] {
            let mut oracle = CachedOracle::from_labels(labels.clone(), 800);
            let outcome = server.serve("acme", "videos", &spec, &mut oracle).unwrap();
            assert_eq!(
                matches!(spec.target, QueryTarget::Joint { .. }),
                outcome.joint
            );
        }
        let handle = server.pool().get("videos").unwrap();
        // All kinds shared one prepared dataset: the importance recipes
        // hit one cache.
        assert!(handle.cache_stats().lookups() > 0);
        assert_eq!(server.tenants().get("acme").unwrap().stats().queries, 3);
    }

    #[test]
    fn served_queries_carry_a_plan_and_aggregate_stats() {
        let (server, labels) = server_with(20_000, 10_000, 4);
        let mut oracle = CachedOracle::from_labels(labels, 2_000);
        let spec = QuerySpec::recall(0.9, 1_000).with_seed(7);
        let outcome = server.serve("acme", "videos", &spec, &mut oracle).unwrap();
        let plan = outcome.plan.as_ref().expect("served query must be planned");
        assert!(plan.report().contains("sampler"));

        let stats = server.plan_stats("videos").expect("planner materialized");
        assert_eq!(stats.planned, 1);
        // The default spec pins SamplerStrategy::Alias, so the decision
        // counts as pinned, not an adaptive resolution.
        assert_eq!(stats.pinned, 1);
        assert!(server.plan_stats("missing").is_none());
    }

    #[test]
    fn server_metrics_cover_completions_sheds_and_latency() {
        let (server, labels) = server_with(20_000, 1_500, 4);
        let spec = QuerySpec::recall(0.9, 1_000).with_seed(7);

        let mut oracle = CachedOracle::from_labels(labels, 1_000);
        let outcome = server.serve("acme", "videos", &spec, &mut oracle).unwrap();

        // Remaining budget cannot cover a second declaration: budget shed.
        let mut oracle2 = CachedOracle::from_labels(vec![false; 20_000], 1_000);
        server
            .serve("acme", "videos", &spec, &mut oracle2)
            .unwrap_err();

        let m = server.metrics();
        assert_eq!(m.queries_ok, 1);
        assert_eq!(m.queries_failed, 0);
        assert_eq!(m.shed_budget, 1);
        assert_eq!(m.shed_total(), 1);
        assert_eq!(m.oracle_calls, outcome.oracle_calls as u64);
        assert_eq!(m.planned, 1, "served queries always carry a plan");
        assert!(m.cache_hits + m.cache_misses > 0);

        // One completed query: every histogram saw exactly one sample
        // (filter only fires for JT), and oracle time nests inside the
        // end-to-end latency.
        assert_eq!(m.query_latency.count, 1);
        assert_eq!(m.stage_latency.count, 1);
        assert_eq!(m.filter_latency.count, 0);
        assert_eq!(m.oracle_latency.count, 1);
        assert!(m.oracle_latency.total > Duration::ZERO);
        assert!(m.oracle_latency.total <= m.query_latency.total);
        assert!(m.query_latency.quantile(1.0) >= m.query_latency.mean());

        // The tenant-side mirror of the oracle-time accounting.
        let stats = server.tenants().get("acme").unwrap().stats();
        assert_eq!(stats.oracle_time, outcome.oracle_elapsed);
        assert!(stats.oracle_time <= stats.elapsed);
    }

    #[test]
    fn server_pin_override_beats_the_query_spec() {
        use supg_core::selectors::SelectorConfig;

        let n = 20_000;
        let scores: Vec<f64> = (0..n).map(|i| (i % 1000) as f64 / 1000.0).collect();
        let labels: Vec<bool> = scores.iter().map(|&s| s > 0.8).collect();
        let server = SupgServer::new(
            ServerConfig::default()
                .with_plan_override("videos", PlanOverride::Pin(SamplerStrategy::Alias)),
        );
        server.pool().register_scores("videos", scores).unwrap();
        server.tenants().register("acme", 10_000);

        // The spec asks for Auto; the operator pinned Alias.
        let spec = QuerySpec::recall(0.9, 1_000)
            .with_seed(7)
            .with_config(SelectorConfig::default().with_sampler(SamplerStrategy::Auto))
            .with_selector(SelectorKind::ImportanceSampling);
        let mut oracle = CachedOracle::from_labels(labels, 2_000);
        let outcome = server.serve("acme", "videos", &spec, &mut oracle).unwrap();
        let plan = outcome.plan.as_ref().unwrap();
        assert_eq!(plan.sampler, SamplerStrategy::Alias);
        assert!(
            plan.report().contains("server override"),
            "rationale must attribute the pin: {}",
            plan.report()
        );
        let stats = server.plan_stats("videos").unwrap();
        assert_eq!(stats.pinned, 1);
        assert_eq!(stats.resolved_alias, 1);
    }

    #[test]
    fn forbid_cdf_override_flips_cold_auto_to_alias() {
        use supg_core::selectors::SelectorConfig;

        let n = 20_000;
        let scores: Vec<f64> = (0..n).map(|i| (i % 1000) as f64 / 1000.0).collect();
        let labels: Vec<bool> = scores.iter().map(|&s| s > 0.8).collect();
        let server = SupgServer::new(
            ServerConfig::default().with_plan_override("videos", PlanOverride::ForbidCdf),
        );
        server.pool().register_scores("videos", scores).unwrap();
        server.tenants().register("acme", 10_000);

        // A cold Auto query would resolve to the CDF backend; the
        // operator forbade it, so it must come back Alias.
        let spec = QuerySpec::recall(0.9, 1_000)
            .with_seed(7)
            .with_config(SelectorConfig::default().with_sampler(SamplerStrategy::Auto))
            .with_selector(SelectorKind::ImportanceSampling);
        let mut oracle = CachedOracle::from_labels(labels, 2_000);
        let outcome = server.serve("acme", "videos", &spec, &mut oracle).unwrap();
        assert_eq!(
            outcome.plan.as_ref().unwrap().sampler,
            SamplerStrategy::Alias
        );
    }
}

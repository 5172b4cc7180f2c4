//! # supg-serve — multi-tenant concurrent SUPG query serving
//!
//! The serving layer of the SUPG reproduction (Kang et al., PVLDB 2020):
//! proxy-scored corpora are most valuable when many analysts query them
//! repeatedly, so this crate turns the per-query [`supg_core`] pipeline
//! into a shared service. Three pieces compose:
//!
//! * [`SessionPool`] — named `Arc<`[`PreparedDataset`]`>` handles. Every
//!   client and every query kind (RT/PT/JT) runs over the same prepared
//!   corpus, sharing its rank index and sampling-artifact cache; the
//!   read-optimized cache path in `supg_core::prepared` keeps warm
//!   lookups contention-free (shared read lock, atomic recency stamps).
//!   A SQL engine's catalog can be adopted wholesale
//!   ([`SessionPool::adopt_catalog`]) so the engine serves through the
//!   same cache the pool does.
//! * [`TenantRegistry`] — per-tenant oracle-call budget meters (the
//!   oracle is the expensive resource: each call is a GPU inference or a
//!   human label). A query's declared cost is reserved with one CAS
//!   before it runs and settled against actual consumption afterwards.
//! * [`SupgServer`] — admission control in front of both: a bounded
//!   in-flight-query limit with graceful shedding
//!   ([`ServeError::Overloaded`]) and typed budget rejections
//!   ([`ServeError::BudgetExhausted`]), plus per-tenant aggregation of
//!   the observability counters every [`QueryOutcome`] now carries.
//!
//! Serving adds accounting, never different answers: an admitted query's
//! outcome is bit-identical to running the same spec through a
//! [`SupgSession`](supg_core::SupgSession) directly, whatever the
//! concurrency. The server uses the same two entry points an in-process
//! caller does, with owned handles so sessions are `'static`:
//! [`SupgSession::over`](supg_core::SupgSession::over) an
//! `Arc<PreparedDataset>`, [`planned`](supg_core::SupgSession::planned)
//! with the dataset's `Arc<Planner>`.
//!
//! ## Robust serving
//!
//! Real labeling backends flake. The serving layer degrades in three
//! graduated steps rather than falling over:
//!
//! * **Retries and deadlines per query** — a [`QuerySpec`] with
//!   [`with_retry`](QuerySpec::with_retry) wraps the caller's oracle in
//!   a [`ResilientOracle`](supg_core::ResilientOracle): transient
//!   failures are retried with deterministic exponential backoff and
//!   seeded jitter, and the retried outcome is bit-identical to a
//!   fault-free run (only the new `oracle_retries` / `oracle_failures` /
//!   `retry_backoff` accounting fields differ).
//!   [`with_deadline`](QuerySpec::with_deadline) bounds the query —
//!   backoff counts against the deadline — surfacing
//!   [`ServeError::DeadlineExceeded`] when it elapses.
//! * **Budget safety on every failure path** — the reservation taken at
//!   admission is held by a drop guard: errors, sheds and even a
//!   panicking oracle release it in full, so failures never leak tenant
//!   budget.
//! * **Per-dataset circuit breaking** — consecutive permanent oracle
//!   failures ([`BreakerConfig::failure_threshold`]) trip the dataset's
//!   circuit open; subsequent queries are shed instantly with
//!   [`ServeError::CircuitOpen`] at zero oracle and budget cost. After
//!   the cooldown one half-open probe tests the backend, closing the
//!   circuit on success. Shed counts land in
//!   [`TenantStats::shed_circuit`] and
//!   [`SupgServer::breaker_stats`].
//!
//! Deterministic fault injection for testing this stack lives in
//! [`supg_core::FaultyOracle`](supg_core::FaultyOracle).
//!
//! ## Traffic & observability
//!
//! The server instruments its own admission path: every outcome and
//! every shed increments lock-free counters in [`ServerMetrics`], and
//! four fixed-bucket [`LatencyHistogram`]s record whole-query, stage,
//! filter and oracle latency (the oracle histogram uses the same
//! `oracle_elapsed` accounting that feeds the planner's latency EWMA —
//! *oracle time*, not whole-query wall time, so queue delay and
//! estimator work can't inflate the planner's view of oracle cost).
//! [`SupgServer::metrics`] returns a [`MetricsSnapshot`] with
//! nearest-rank quantiles; per-tenant mirrors land in [`TenantStats`],
//! including [`TenantStats::oracle_time`].
//!
//! The `supg-traffic` crate drives this whole stack under deterministic
//! simulated load — heavy-tailed arrivals, Zipf-skewed recipes,
//! thousands of tenants — and replays bit-identically from a seed;
//! it is the regression harness for everything above.
//!
//! ## Example
//!
//! ```
//! use supg_core::{CachedOracle, Oracle};
//! use supg_serve::{QuerySpec, ServeError, ServerConfig, SupgServer};
//!
//! // One shared corpus, two tenants with different oracle budgets.
//! let scores: Vec<f64> = (0..20_000).map(|i| (i % 1000) as f64 / 1000.0).collect();
//! let labels: Vec<bool> = scores.iter().map(|&s| s > 0.8).collect();
//! let server = SupgServer::new(ServerConfig { max_in_flight: 8, ..ServerConfig::default() });
//! server.pool().register_scores("videos", scores).unwrap();
//! server.tenants().register("analytics", 5_000);
//! server.tenants().register("trial", 300);
//!
//! // The analytics tenant runs a recall-target query.
//! let mut oracle = CachedOracle::from_labels(labels.clone(), 1_000);
//! let spec = QuerySpec::recall(0.9, 1_000).with_seed(7);
//! let outcome = server.serve("analytics", "videos", &spec, &mut oracle).unwrap();
//! assert!(!outcome.result.is_empty());
//!
//! // The trial tenant cannot afford the same query: shed *before* any
//! // oracle call, with a typed error.
//! let mut oracle = CachedOracle::from_labels(labels, 1_000);
//! match server.serve("trial", "videos", &spec, &mut oracle) {
//!     Err(ServeError::BudgetExhausted { remaining, .. }) => assert_eq!(remaining, 300),
//!     other => panic!("expected a budget rejection, got {other:?}"),
//! }
//! assert_eq!(oracle.calls_used(), 0);
//!
//! // Per-tenant accounting: actual consumption, cache hits, latency.
//! let stats = server.tenants().get("analytics").unwrap().stats();
//! assert_eq!(stats.queries, 1);
//! assert_eq!(stats.oracle_calls, outcome.oracle_calls as u64);
//! ```
//!
//! Concurrent clients share the server behind an `Arc` and bring their
//! own oracles; see the crate's `concurrent_parity` integration test for
//! the N-clients × M-recipes stress shape and the `supg-bench` saturation
//! benchmark for measured scaling.

#![warn(missing_docs)]

pub mod breaker;
pub mod error;
pub mod metrics;
pub mod pool;
pub mod server;
pub mod tenant;

pub use breaker::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker};
pub use error::ServeError;
pub use metrics::{HistogramSnapshot, LatencyHistogram, MetricsSnapshot, ServerMetrics};
pub use pool::SessionPool;
pub use server::{PlanOverride, QuerySpec, QueryTarget, ServerConfig, SupgServer};
pub use tenant::{TenantRegistry, TenantState, TenantStats};

// Re-exported so pool/server signatures are usable without importing
// supg-core separately.
pub use supg_core::{CacheStats, PreparedDataset, QueryOutcome, RetryPolicy};

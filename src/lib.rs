//! # SUPG — approximate selection with guarantees using proxies
//!
//! Umbrella crate for the reproduction of *Kang, Gan, Bailis, Hashimoto,
//! Zaharia: "Approximate Selection with Guarantees using Proxies"* (PVLDB
//! 13(11), 2020). It re-exports the public API of every workspace crate so a
//! downstream user can depend on `supg` alone:
//!
//! * [`stats`] — statistical substrate (distributions, confidence bounds).
//! * [`sampling`] — uniform / weighted / importance sampling.
//! * [`datasets`] — the paper's synthetic workloads and simulated real
//!   datasets, drift transforms and CSV I/O.
//! * [`core`] — the SUPG algorithms behind one entry point: the fluent
//!   [`core::SupgSession`] builder with its [`core::SelectorKind`]
//!   algorithm registry, budgeted oracles, and the cost model.
//! * [`query`] — a SQL-ish front-end implementing the paper's query syntax.
//! * [`serve`] — the multi-tenant serving layer: a pooled-dataset query
//!   server with per-tenant oracle budgets and admission control.
//! * [`traffic`] — a deterministic workload simulator that drives the
//!   serving layer under heavy-tailed, Zipf-skewed multi-tenant load
//!   and replays bit-identically from a seed.
//!
//! ## Quickstart
//!
//! ```
//! use supg::core::{CachedOracle, ScoredDataset, SelectorKind, SupgSession};
//! use supg::datasets::BetaDataset;
//!
//! // The paper's Beta(0.01, 2) synthetic: scores ~ Beta, labels ~ Bernoulli(score).
//! let data = BetaDataset::new(0.01, 2.0, 20_000).generate(42);
//! let (scores, labels) = data.into_parts();
//! let dataset = ScoredDataset::new(scores).unwrap();
//! let mut oracle = CachedOracle::from_labels(labels, 1_000);
//!
//! // Recall-target query: recall ≥ 0.9 with probability ≥ 0.95, 1000 oracle calls.
//! let outcome = SupgSession::over(&dataset)
//!     .recall(0.9)
//!     .delta(0.05)
//!     .budget(1_000)
//!     .selector(SelectorKind::ImportanceSampling)
//!     .seed(7)
//!     .run(&mut oracle)
//!     .unwrap();
//! assert_eq!(outcome.selector, "IS-CI-R");
//! assert!(outcome.result.len() > 0);
//! assert!(outcome.oracle_calls <= 1_000);
//! ```
//!
//! A precision-target query swaps `.recall(0.9)` for `.precision(0.9)`;
//! a joint-target query sets both and enables `.joint(stage_budget)`.
//! The same query forms are available as SQL through [`query::Engine`].
//!
//! ## Parallelism & batching
//!
//! The oracle is the expensive resource, and real oracles (GPU models,
//! labeling services) are batch-native. Every pipeline stage therefore
//! issues *batched* label requests, and two session knobs control how a
//! batch executes:
//!
//! ```
//! # use supg::core::{CachedOracle, ScoredDataset, SupgSession};
//! # use supg::datasets::BetaDataset;
//! # let (scores, labels) = BetaDataset::new(0.01, 2.0, 20_000).generate(42).into_parts();
//! # let dataset = ScoredDataset::new(scores).unwrap();
//! # let mut oracle = CachedOracle::from_labels(labels, 1_000);
//! let outcome = SupgSession::over(&dataset)
//!     .recall(0.9)
//!     .budget(1_000)
//!     .parallelism(8) // worker threads labeling each batch
//!     .batch_size(64) // records per batch request
//!     .run(&mut oracle)
//!     .unwrap();
//! ```
//!
//! Oracles built from a thread-safe source
//! ([`core::CachedOracle::parallel`] or
//! [`core::CachedOracle::from_labels`]) label cache misses on a scoped
//! worker pool; serial (`FnMut`) oracles keep labeling one record at a
//! time. **Determinism contract:** random draws stay on the session
//! thread and labels are pure functions of the record index, so a fixed
//! seed produces an identical outcome at every `parallelism` /
//! `batch_size` setting, and `parallelism(1)` is bit-for-bit the
//! sequential path. See [`core::runtime`] for details; the experiment
//! harness's trial runner and the SQL engine's
//! `EngineConfig::runtime` expose the same knobs.
//!
//! ## Serving repeated queries
//!
//! Answering many queries over one corpus should pay the per-dataset
//! preprocessing — the global [`core::RankIndex`] (one descending-score
//! permutation that turns every threshold-set materialization into an
//! O(log n + k) rank-range lookup) and the sampling artifacts (importance
//! weights + alias table) — once, not per query. Wrap the dataset in a
//! [`core::PreparedDataset`] and run sessions over it — the artifacts are
//! built on first use (or eagerly, on the multi-threaded runtime's worker
//! pool, via `PreparedDataset::prepare`/`warm`) and shared by every later
//! query and every thread (the SQL engine does this per registered proxy
//! automatically). Results are bit-identical however the artifacts were
//! built; query result sets arrive in proxy-rank order (best candidates
//! first):
//!
//! ```
//! use std::sync::Arc;
//! use supg::core::{CachedOracle, PreparedDataset, SupgSession};
//! use supg::datasets::BetaDataset;
//!
//! let (scores, labels) = BetaDataset::new(0.01, 2.0, 20_000).generate(42).into_parts();
//! let prepared = Arc::new(PreparedDataset::from_scores(scores).unwrap());
//! for seed in 0..4 {
//!     let mut oracle = CachedOracle::from_labels(labels.clone(), 1_000);
//!     SupgSession::over(Arc::clone(&prepared))
//!         .recall(0.9)
//!         .budget(1_000)
//!         .seed(seed)
//!         .run(&mut oracle)
//!         .unwrap();
//! }
//! assert_eq!(prepared.cached_recipes(), 1); // one build, four queries
//! ```
//!
//! Outcomes are identical to cold sessions on the same seed; see the
//! "Performance & serving" section of [`core`] for the measured numbers.
//!
//! ## Cold starts: the first query on a fresh corpus
//!
//! Pointing the system at a *new* dataset has its own fast path. The
//! alias table's construction feeds — normalization, scaling and Vose's
//! small/large partition — run chunk-parallel on the worker pool with a
//! bit-identical result, and a query known to run once can skip the alias
//! build entirely via [`core::SamplerStrategy`]: `Cdf` always uses the
//! single-pass CDF-inversion sampler, `Auto` uses it only while a recipe
//! is cold (caching the CDF artifacts at first sight) and promotes to the
//! cached alias table once the recipe recurs — one planner rule makes
//! that choice for planned and unplanned sessions alike
//! (`SupgSession::sampler_strategy(..)`, or `tuning.sampler` on the SQL
//! engine's `EngineConfig`). Strategies consume the seeded RNG stream
//! differently — each is deterministic, all carry the same `1 − δ`
//! guarantee. A session has one constructor, `SupgSession::over` — over
//! a `&ScoredDataset`, a `&SegmentedDataset`, a `&PreparedDataset` or an
//! `Arc<PreparedDataset>` — and two run methods: `run` returns the owned
//! result, and for huge answers `run_view` returns a borrowed
//! [`core::ResultView`] — the threshold set stays a zero-copy slice of
//! the rank index, membership is a score comparison against `τ`, and
//! the owned materialization is deferred until you call `into_owned()`
//! (which is all `run` does).
//!
//! ## Segmented datasets: 10⁸–10⁹-record corpora
//!
//! One global rank index is the wrong artifact once the corpus stops
//! fitting comfortably in a single sort: construction serializes on one
//! n-record merge and the whole index must exist before the first
//! query. [`core::SegmentedDataset`] splits the score column into
//! fixed-size segments that each own their scores and rank index —
//! built fully in parallel with no final re-merge — while threshold sets
//! are stitched across segment heads in canonical order (descending
//! score, ties by ascending record index). The sampling artifacts are
//! one array per weight recipe, exactly as for a flat corpus: only the
//! `A(x)^p` pass runs one pool job per segment. Sessions run over it
//! unchanged (`SupgSession::over(&segmented)`, or
//! `PreparedDataset::from_segmented` for the cached serving path), and
//! the outcome is **bit-identical** to the flat layout at every segment
//! size and parallelism under every sampler strategy — the layout is
//! never visible in results. CSV corpora load segment-aligned
//! via [`datasets::io::from_csv_string_segmented`] without ever
//! materializing the contiguous column. See the "Segmented datasets"
//! section of [`core`] for the design and the parity-test inventory.
//!
//! ## Serving under concurrency
//!
//! When many clients share one deployment, wrap the prepared corpora in a
//! [`serve::SupgServer`]: a named [`serve::SessionPool`] of shared
//! `Arc<PreparedDataset>` handles (a SQL engine's catalog can be adopted
//! wholesale with [`serve::SessionPool::adopt_catalog`]), per-tenant
//! oracle-call budget meters, and bounded-in-flight admission control
//! that sheds excess load with typed errors
//! ([`serve::ServeError::Overloaded`] /
//! [`serve::ServeError::BudgetExhausted`]) before any oracle call is
//! spent. Warm artifact lookups go through `supg-core`'s read-locked
//! cache path, so concurrent tenants never serialize on each other —
//! and serving adds only accounting: an admitted query's outcome is
//! bit-identical to running the same spec through a
//! [`core::SupgSession`] directly. See the "Serving under concurrency"
//! section of [`core`] and the [`serve`] crate docs for the details and
//! a runnable example; the `serving` section of `BENCH_selectors.json`
//! records the measured saturation curve.
//!
//! ## Robustness: flaky oracles, deadlines, circuit breaking
//!
//! Real labeling backends fail — transiently (rate limits, timeouts) or
//! permanently (the service is down). The fault-tolerance stack keeps
//! the guarantees intact while degrading gracefully:
//!
//! * [`core::FaultyOracle`] + [`core::FaultPlan`] inject *deterministic*
//!   faults — each record's fate is a pure function of a seed and its
//!   index, reproducible at any parallelism — for testing any oracle
//!   stack without real flakiness.
//! * [`core::ResilientOracle`] + [`core::RetryPolicy`] retry transient
//!   failures with deterministic exponential backoff, seeded jitter and
//!   an optional per-query deadline. A retried query's outcome is
//!   **bit-identical** to the fault-free run — retries re-ask the same
//!   pure label, and only the final success consumes budget — differing
//!   only in the `oracle_retries` / `oracle_failures` / `retry_backoff`
//!   accounting fields of [`core::QueryOutcome`].
//! * The server adds per-dataset **circuit breaking**: consecutive
//!   permanent failures trip the circuit and subsequent queries shed
//!   instantly ([`serve::ServeError::CircuitOpen`]) at zero oracle and
//!   budget cost until a half-open probe finds the backend healthy.
//!   Budget reservations are drop-guarded, so error and panic paths
//!   never leak tenant budget. See "Robust serving" in [`serve`]; the
//!   `resilience` section of `BENCH_selectors.json` records the retry
//!   overhead on warm serving.
//!
//! ## Adaptive planning: calibrate once, plan every query
//!
//! The execution knobs above — parallelism, batch size, sampler
//! strategy, build chunking — can all be set by hand, but
//! [`core::Planner`] resolves them from *measured* signals instead: a
//! one-time per-process calibration of the build kernels
//! ([`core::CalibrationProfile`]), the dataset's size and layout, the
//! artifact-cache state of the query's weight recipe, and an EWMA of
//! observed per-call oracle latency that persists across queries.
//! Attach one with [`core::SupgSession::planned`] (or let
//! [`serve::SupgServer`] do it — every served query is planned, with
//! per-dataset [`serve::PlanOverride`] policies for operators) and the
//! resolved [`core::Plan`] rides on the outcome as a rationale-bearing
//! debug report. Two hard properties: the planner never selects a
//! configuration measured slower than the serial floor, and a planned
//! query is bit-identical to the hand-tuned query at the same resolved
//! configuration — adaptivity changes speed, never answers. The
//! `planner` section of `BENCH_selectors.json` records Auto vs the best
//! hand-tuned configuration across a cold/warm × small/huge ×
//! fast/slow-oracle grid. Explicit knobs always win over the planner:
//! pin `.sampler_strategy(..)` or `.runtime(..)` and the plan honors
//! them verbatim.
//!
//! ## Traffic & observability
//!
//! The serving path instruments itself: [`serve::ServerMetrics`] keeps
//! lock-free counters for completions, failures and each shed cause,
//! plus fixed-bucket latency histograms with nearest-rank quantiles —
//! the oracle histogram uses the same oracle-time accounting that
//! feeds the planner's latency EWMA, so the planner and the dashboards
//! can never disagree about what the oracle costs. Snapshot them with
//! [`serve::SupgServer::metrics`]; per-tenant mirrors (including
//! [`serve::TenantStats::oracle_time`]) come from the registry.
//!
//! The [`traffic`] crate closes the loop: a seeded discrete-event
//! simulator drives a real [`serve::SupgServer`] through the full
//! admission path — bounded-Pareto inter-arrivals, a mixed RT/PT/JT
//! stream, Zipf-skewed recipe popularity, tenant counts in the
//! thousands, deterministic fault injection — and a fixed seed replays
//! the whole session bit-identically at any oracle parallelism:
//!
//! ```
//! use supg::traffic::{run, TrafficConfig};
//!
//! let mut config = TrafficConfig::quick(7);
//! config.queries = 40; // trim for the doctest
//! let report = run(&config);
//! assert_eq!(report.completed + report.failed + report.shed_overload
//!     + report.shed_budget + report.shed_circuit, report.queries);
//! assert_eq!(run(&config).hash(), report.hash()); // bit-identical replay
//! ```
//!
//! CI replays the quick workload twice through the `traffic_smoke`
//! binary and fails unless both runs hash identically.

pub use supg_core as core;
pub use supg_datasets as datasets;
pub use supg_query as query;
pub use supg_sampling as sampling;
pub use supg_serve as serve;
pub use supg_stats as stats;
pub use supg_traffic as traffic;

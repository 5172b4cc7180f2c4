//! # SUPG core — approximate selection with statistical guarantees
//!
//! This crate implements the contribution of *Kang, Gan, Bailis, Hashimoto,
//! Zaharia: "Approximate Selection with Guarantees using Proxies"* (PVLDB
//! 13(11), 2020): selection queries that return the records matching an
//! expensive oracle predicate, using a cheap proxy model plus a bounded
//! number of oracle calls, while meeting a minimum precision or recall
//! target with probability at least `1 − δ`.
//!
//! ## Quickstart
//!
//! Every query kind — recall-target (RT), precision-target (PT) and
//! joint-target (JT) — runs through one fluent entry point,
//! [`SupgSession`]:
//!
//! ```
//! use supg_core::{CachedOracle, ScoredDataset, SelectorKind, SupgSession};
//!
//! // Proxy scores for every record (cheap), ground truth behind an oracle
//! // (expensive, budgeted).
//! let scores: Vec<f64> = (0..20_000).map(|i| (i % 100) as f64 / 100.0).collect();
//! let truth: Vec<bool> = scores.iter().map(|&s| s > 0.9).collect();
//! let dataset = ScoredDataset::new(scores).unwrap();
//! let mut oracle = CachedOracle::from_labels(truth, 1_000);
//!
//! // RT query: recall ≥ 0.9 with probability ≥ 0.95, ≤ 1000 oracle calls.
//! let outcome = SupgSession::over(&dataset)
//!     .recall(0.9)
//!     .delta(0.05)
//!     .budget(1_000)
//!     .selector(SelectorKind::ImportanceSampling)
//!     .seed(7)
//!     .run(&mut oracle)
//!     .unwrap();
//!
//! assert_eq!(outcome.selector, "IS-CI-R"); // the paper's algorithm name
//! assert!(outcome.oracle_calls <= 1_000);
//! assert!(!outcome.result.is_empty());
//! ```
//!
//! Swap `.recall(0.9)` for `.precision(0.9)` for a PT query, or set both
//! targets and `.joint(stage_budget)` for the appendix-A JT pipeline — the
//! same `run` call returns the same unified [`QueryOutcome`] with
//! per-stage oracle accounting and elapsed time.
//!
//! ## Pieces
//!
//! * [`session`] — **the** entry point: the fluent [`SupgSession`]
//!   builder, the [`SelectorKind`] algorithm registry, and the unified
//!   [`QueryOutcome`].
//! * [`query`] — query semantics: recall-target (RT), precision-target (PT)
//!   and joint-target (JT) specifications.
//! * [`data`] — [`ScoredDataset`]: proxy scores plus the lazily built
//!   global [`RankIndex`] the algorithms and metrics share.
//! * [`rank`] — the [`RankIndex`] itself: the descending-score
//!   permutation and the sorted view; O(log n + k) set materialization
//!   and the parallel chunked-sort construction.
//! * [`segment`] — [`SegmentedDataset`]: fixed-size segments, each
//!   owning its own rank index, for corpora too large to index as one
//!   block; plus [`Corpus`], the flat-or-segmented view the algorithms
//!   consume.
//! * [`oracle`] — the budgeted, label-caching oracle abstraction
//!   ([`CachedOracle`]).
//! * [`fault`] — deterministic oracle fault injection ([`FaultyOracle`])
//!   and the retry runtime ([`ResilientOracle`] under a [`RetryPolicy`]).
//! * [`prepared`] — the [`PreparedDataset`] artifact layer: `Arc`-shared
//!   scores plus a keyed cache of sampling artifacts, amortizing O(n)
//!   per-dataset setup across queries and sessions.
//! * [`selectors`] — the threshold-estimation algorithms of the paper
//!   (naive baselines, uniform + confidence intervals, importance sampling
//!   one- and two-stage), all behind the [`selectors::ThresholdSelector`]
//!   trait; name them via [`SelectorKind`].
//! * [`runtime`] — the batched, multi-threaded oracle execution runtime:
//!   [`RuntimeConfig`], the scoped worker pool behind
//!   [`oracle::BatchOracle`], and index-split seeding.
//! * [`executor`] — the [`SelectionResult`] record-set type.
//! * [`metrics`] — precision/recall evaluation against ground truth, failure
//!   rates over repeated trials.
//! * [`cost`] — the query cost model of the paper's Table 5.
//!
//! ## Parallelism & batching
//!
//! Every stage that consumes oracle budget — uniform stage samples,
//! importance draws, and the JT pipeline's exhaustive filter — issues
//! batched label requests through [`oracle::BatchOracle::label_batch`]
//! instead of labeling one record at a time. Two session knobs control the
//! execution:
//!
//! ```
//! # use supg_core::{CachedOracle, ScoredDataset, SupgSession};
//! # let scores: Vec<f64> = (0..10_000).map(|i| (i % 100) as f64 / 100.0).collect();
//! # let labels: Vec<bool> = scores.iter().map(|&s| s > 0.9).collect();
//! # let dataset = ScoredDataset::new(scores).unwrap();
//! # let mut oracle = CachedOracle::from_labels(labels, 1_000);
//! let outcome = SupgSession::over(&dataset)
//!     .recall(0.9)
//!     .budget(1_000)
//!     .parallelism(8)   // worker threads labeling each batch
//!     .batch_size(64)   // records per batch request
//!     .run(&mut oracle)
//!     .unwrap();
//! ```
//!
//! `parallelism(n)` sets the width of the scoped worker pool an oracle with
//! a thread-safe source ([`CachedOracle::parallel`],
//! [`CachedOracle::from_labels`]) uses to label cache misses;
//! `batch_size(b)` sets how many records one batch request carries.
//! **Determinism contract:** sampling stays on the session thread and
//! labels are pure functions of the record index, so a fixed seed yields an
//! identical [`QueryOutcome`] for every `parallelism`/`batch_size` setting,
//! and `parallelism(1)` is bit-for-bit the sequential path. See
//! [`runtime`] for the full contract.
//!
//! ## Performance & serving
//!
//! Proxy-side work must be cheap relative to the oracle, and three layers
//! keep it that way:
//!
//! **The rank index.** Every dataset carries one global [`RankIndex`] —
//! the descending-score permutation (ties by ascending record index) and
//! the sorted score view — built once, lazily or eagerly
//! ([`PreparedDataset::prepare`](prepared::PreparedDataset::prepare)).
//! Every threshold set `{x : A(x) ≥ τ}` is a *prefix* of that
//! permutation, so warm set materialization is a binary search plus a
//! slice copy (O(log n + k), no per-query sort or dedup), membership is
//! one score comparison against `τ`, and the JT pipeline enumerates its
//! exhaustive-filter candidates as a rank range instead of a predicate
//! pass. Query results come back in canonical rank order (best
//! candidates first). The rank path is pinned **bit-identical** to a
//! linear-scan reference ([`rank::materialize_linear`]) by
//! `tests/rank_parity.rs`; measured at n = 10⁶ it materializes a 10k-set
//! **hundreds of times faster** than the scan (see `BENCH_selectors.json`).
//!
//! **Parallel cold builds.** The index is constructed from packed integer
//! keys — several times faster than a float-comparator sort at corpus
//! scale — and [`RankIndex::build`] chunks the sort over the
//! [`runtime`] worker pool with pairwise merges. The canonical order is a
//! strict total order and the weight-artifact feeds are element-wise, so
//! parallel and serial builds are bit-identical at every `parallelism`
//! setting: when and how artifacts were built is unobservable in results.
//!
//! **Sweep-based threshold estimators.** [`OracleSample`] assembly
//! performs one stable descending-score sort and snapshots running moment
//! sketches per prefix, so every estimator window `{x : A(x) ≥ τ}` is an
//! O(1) lookup. Precision-threshold search
//! ([`selectors::precision_threshold`]) is O(s log s) total with zero
//! allocation after sample assembly (closed-form CI methods), replacing
//! the naive O(M·s) per-candidate rescan; measured at `s = 10⁴, m = 100`
//! it is **~10²–10³× faster** than the retained quadratic reference (see
//! `BENCH_selectors.json` at the repo root for the recorded trajectory).
//! The sweep is pinned **bit-identical** to
//! [`selectors::reference`] over random samples, weights, strides and
//! every CI method by `tests/sweep_parity.rs`.
//!
//! **Prepared datasets.** A [`PreparedDataset`] shares one dataset plus a
//! keyed cache of `(weight_exponent, uniform_mix) → (ImportanceWeights,
//! AliasTable)` across queries, sessions and threads:
//!
//! ```
//! use std::sync::Arc;
//! use supg_core::{CachedOracle, PreparedDataset, SupgSession};
//!
//! let scores: Vec<f64> = (0..50_000).map(|i| (i % 100) as f64 / 100.0).collect();
//! let truth: Vec<bool> = scores.iter().map(|&s| s > 0.9).collect();
//! let prepared = Arc::new(PreparedDataset::from_scores(scores).unwrap());
//!
//! // Repeated queries skip the O(n) weight/alias construction; concurrent
//! // sessions clone the Arc and share one cache.
//! for seed in 0..3 {
//!     let mut oracle = CachedOracle::from_labels(truth.clone(), 1_000);
//!     let outcome = SupgSession::over(Arc::clone(&prepared))
//!         .recall(0.9)
//!         .budget(1_000)
//!         .seed(seed)
//!         .run(&mut oracle)
//!         .unwrap();
//!     assert!(!outcome.result.is_empty());
//! }
//! assert_eq!(prepared.cached_recipes(), 1);
//! ```
//!
//! Prepared and cold sessions produce identical [`QueryOutcome`]s for the
//! same data and seed (`tests/prepared_parity.rs`); only the setup cost
//! moves. On a 1M-record dataset the prepared path removes both the
//! per-query O(n) setup and the per-query result sort (measured well over
//! an order of magnitude higher repeated-query throughput; a warm query
//! runs in well under a millisecond). The artifact cache is bounded
//! (least-recently-used eviction, default capacity 64, configurable via
//! [`PreparedDataset::set_cache_capacity`](prepared::PreparedDataset::set_cache_capacity)),
//! so per-tenant recipe churn cannot grow memory without limit.
//!
//! **The cold-start path.** The *first* query against a fresh corpus has
//! its own levers. The alias table's element-wise construction passes —
//! normalization, mean-1 scaling and Vose's small/large partition scan —
//! run chunk-parallel on the worker pool
//! ([`supg_sampling::alias::feed_slice`] /
//! `AliasTable::from_feeds`), with the lone floating-point reduction kept
//! serial so the table is bit-identical at every `parallelism` (pinned by
//! `tests/sampler_parity.rs`). A query that will run **once** can skip
//! the alias build entirely: [`SamplerStrategy`]
//! (`SupgSession::sampler_strategy(..)`, or `sampler` on
//! [`selectors::SelectorConfig`]) selects the O(log n)-draw CDF fallback
//! sampler — one prefix-sum pass to build — either always (`Cdf`) or only
//! while the recipe is cold (`Auto`: one planner rule, applied to planned
//! and unplanned sessions alike, caches the CDF artifacts at first sight
//! and promotes the recipe to the cached alias table once it recurs).
//! Strategies consume the seeded RNG stream
//! differently, so each is deterministic but they are not bit-for-bit
//! interchangeable; the CDF path carries the same `1 − δ` guarantee
//! (checked empirically in `tests/guarantees.rs`). Finally,
//! [`SupgSession::run_view`](session::SupgSession::run_view) returns the
//! answer as a borrowed [`ResultView`] — the threshold set stays a
//! zero-copy rank-prefix slice, membership is a score comparison, and
//! the owned [`SelectionResult`] materialization is deferred until
//! [`ViewOutcome::into_owned`](session::ViewOutcome) actually needs it.
//!
//! ## Serving under concurrency
//!
//! A prepared corpus is built to be shared: many sessions on many threads
//! run over one `Arc<PreparedDataset>`, and the hot path is tuned so they
//! never serialize on each other.
//!
//! * **Read-locked warm lookups.** The keyed artifact cache sits behind an
//!   `RwLock`: a warm lookup takes the *shared* read lock and bumps an
//!   atomic recency stamp, so any number of concurrent queries hit the
//!   cache at once. Only a cold recipe's insertion (and explicit
//!   capacity changes) takes the write lock, and the O(n) artifact build
//!   itself runs *outside* both locks — a cold build never blocks other
//!   tenants' warm queries. Losing an insertion race just means adopting
//!   the winner's `Arc`.
//! * **Counters, not guesses.** Every dataset keeps atomic hit/miss/
//!   eviction counters ([`CacheStats`] via
//!   [`PreparedDataset::cache_stats`](prepared::PreparedDataset::cache_stats)),
//!   and every [`QueryOutcome`] reports the cache hits and misses *its*
//!   artifact requests saw plus per-stage elapsed time
//!   (`stage_elapsed` / `filter_elapsed`) — the observability a serving
//!   layer aggregates per tenant.
//! * **Determinism is unchanged.** Sharing affects only *when* artifacts
//!   are built, never what a query answers: concurrent outcomes are
//!   bit-identical to running the same specs single-threaded (pinned by
//!   the `supg-serve` crate's `concurrent_parity` stress test).
//!
//! The `supg-serve` crate builds the full multi-tenant service on these
//! primitives: a named session pool, per-tenant oracle-budget metering
//! and bounded-in-flight admission control.
//!
//! ## Segmented datasets
//!
//! At 10⁸–10⁹ records, one monolithic rank index stops being the right
//! artifact: a single packed-key sort over the whole corpus is the
//! longest serial pole in the cold path, and every byte of it must be
//! resident before the first query. A [`SegmentedDataset`]
//! ([`segment`]) splits the score column into fixed-size segments,
//! each owning its *own* scores and rank index:
//!
//! * **Fully parallel rank construction, no re-merge.** Per-segment rank
//!   indexes build independently on the worker pool
//!   ([`SegmentedDataset::prepare`]); there is no final merge pass over
//!   n records.
//! * **One sampling-artifact stack.** The importance distribution is one
//!   distribution over all of `D`, so a segmented corpus gets the same
//!   artifacts a flat one does: one [`WeightArtifacts`] per recipe, an
//!   n-length weight array plus one alias table or CDF. Only the
//!   element-wise `A(x)^p` pass is split, one pool job per segment
//!   ([`WeightArtifacts::build`](prepared::WeightArtifacts::build)).
//! * **Threshold search as a k-way merge.** `{x : A(x) ≥ τ}` is found
//!   per segment by binary search and stitched across segment heads in
//!   canonical order ([`SegmentedDataset::stitched_prefix`]); membership
//!   is a score comparison against `τ`, with no rank lookup.
//! * **Layout is unobservable.** A session over a segmented corpus
//!   ([`SupgSession::over`](session::SupgSession::over) with a
//!   `&SegmentedDataset`) returns a [`QueryOutcome`] **bit-identical** to the flat session on
//!   the concatenated scores — same `τ` bits, same result order, same
//!   oracle accounting — at every segment size and `parallelism`, under
//!   every sampler strategy (pinned by `tests/segmented_parity.rs`
//!   across RT/PT/JT, `Alias`/`Cdf`/`Auto`, the full selector registry,
//!   and randomized layouts).
//!
//! `supg_datasets::io::from_csv_string_segmented` loads a CSV corpus
//! directly into segment-aligned chunks for
//! [`SegmentedDataset::from_chunks`], so the contiguous column is never
//! materialized. Every accessor is layout-blind — [`Corpus`],
//! [`ResultView`] and the per-record [`WeightArtifacts`] accessors serve
//! both layouts, so none panics on a valid segmented corpus.
//!
//! ## Robustness: fault injection and retries
//!
//! Real oracles — GPU model services, human labeling queues — fail
//! transiently, and the [`fault`] module makes that a first-class,
//! *deterministic* concern. A [`FaultyOracle`] wraps any oracle and
//! injects transient faults, permanent faults and simulated latency as a
//! pure function of the record index (seeded through
//! [`runtime::split_seed`]), reproducible at every parallelism and batch
//! size. A [`ResilientOracle`] recovers: it retries transients under a
//! [`RetryPolicy`] (bounded attempts, capped exponential backoff with
//! seeded jitter, optional per-query deadline), escalates to
//! [`SupgError::OracleFailed`] when attempts run out, and — because
//! injected faults fire *before* the inner oracle consumes budget — a
//! retried run's [`QueryOutcome`] is **bit-identical** to the fault-free
//! run (same `τ` bits, result order and oracle accounting; pinned by
//! `tests/resilience_parity.rs` across RT/PT/JT, parallelism and
//! flat/segmented layouts). Retry totals surface on every outcome
//! (`oracle_retries` / `oracle_failures` / `retry_backoff`), and
//! `tests/guarantees.rs` re-runs the statistical guarantee suite through
//! the fault harness — the `1 − δ` contract survives infrastructure
//! noise, not just sampling noise. The `supg-serve` crate adds the
//! serving-side degradation ladder (deadlines, per-dataset circuit
//! breakers) on these primitives.
//!
//! ## Adaptive planning
//!
//! The execution knobs above — parallelism, batch size, sampler
//! strategy, build chunk counts — default to hand-tuned values, and the
//! [`plan`] module replaces the guessing with a measured loop. A
//! [`Planner`](plan::Planner) attached to a session
//! ([`SupgSession::planned`](session::SupgSession::planned)) snapshots
//! the measured signals before each run — dataset size and layout, the
//! artifact-cache state of the query's weight recipe
//! ([`PreparedDataset::recipe_state`](prepared::PreparedDataset::recipe_state)),
//! the effective core count and build-kernel throughputs from a one-time
//! per-process calibration
//! ([`CalibrationProfile`](plan::CalibrationProfile)), and an EWMA of
//! observed per-call oracle latency persisted across queries — and
//! resolves them into a [`Plan`](plan::Plan) via a *pure function* of
//! that snapshot. How signals map to decisions:
//!
//! * **Sampler**: an `Auto` request resolves from the cache state —
//!   cold recipes take the cheapest measured build (CDF, cached at first
//!   sight), recurring ones promote to the cached alias table; any
//!   explicit strategy is a pin. This is the only rule that resolves
//!   `Auto`: an unplanned `Auto` request applies it too, and the artifact
//!   cache itself is a plain keyed LRU.
//! * **Parallelism / batching**: latency-bound oracles (high EWMA) get
//!   oversubscribed workers and fine batches, throughput-bound ones one
//!   worker per core and large batches; a caller-set
//!   [`RuntimeConfig`] is honored verbatim.
//! * **Build chunking**: chunk-parallel rank/alias/segment builds run
//!   only where the calibration *measured* them faster than serial —
//!   the planner never selects a configuration slower than serial.
//!
//! The resolved plan is attached to the [`QueryOutcome`] as a debug
//! report ([`Plan::report`](plan::Plan::report) renders each decision
//! with the measured input that drove it), and planned outcomes are
//! bit-identical to hand-tuned runs at the same resolved configuration
//! (pinned by `tests/planner_parity.rs`). To pin a manual config under a
//! planner, just set the knobs explicitly — `.sampler_strategy(..)` and
//! `.runtime(..)` always win over adaptivity.
//!
//! The latency EWMA is fed from *oracle-time* accounting, not
//! whole-query wall time: each pipeline stage accumulates the time
//! spent inside oracle labeling on a thread-local clock, and the total
//! rides on the outcome as
//! [`QueryOutcome::oracle_elapsed`](session::QueryOutcome::oracle_elapsed).
//! Dividing whole-query elapsed by call count would fold estimator
//! work, artifact builds and (under a server) queue delay into the
//! per-call estimate and mislead every plan that follows — the
//! `fast_oracle_on_huge_corpus_stays_throughput_bound` regression test
//! in [`plan`] pins the distinction. The serving layer's oracle-latency
//! histogram and `TenantStats::oracle_time` report the same quantity.
//!
//! ## Guarantee contract
//!
//! For an RT query with target `γ` and failure probability `δ`, the set `R`
//! returned by a session with a guaranteed selector (`U-CI-R`, `IS-CI-R`)
//! satisfies `Pr[Recall(R) ≥ γ] ≥ 1 − δ`; PT queries symmetrically for
//! precision. The naive selectors (`U-NoCI-*`) reproduce prior systems
//! (NoScope, probabilistic predicates) and carry **no** guarantee — they
//! exist as baselines and fail exactly the way the paper's Figures 5 and 6
//! show.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod data;
pub mod error;
pub mod executor;
pub mod fault;
pub mod metrics;
pub mod oracle;
pub mod plan;
pub mod prepared;
pub mod query;
pub mod rank;
pub mod runtime;
pub mod sample;
pub mod segment;
pub mod selectors;
pub mod session;

pub use data::ScoredDataset;
pub use error::SupgError;
pub use executor::{ResultView, SelectionResult};
pub use fault::{FaultDecision, FaultPlan, FaultyOracle, ResilientOracle, RetryPolicy, RetryStats};
pub use metrics::PrecisionRecall;
pub use oracle::{BatchOracle, CachedOracle, Oracle};
pub use plan::{CalibrationProfile, Plan, PlanPolicy, PlanSignals, PlanStats, Planner};
pub use prepared::{
    CacheStats, DataView, PreparedDataset, QueryProbe, RecipeState, SamplerStrategy,
    WeightArtifacts,
};
pub use query::{ApproxQuery, JointQuery, TargetKind};
pub use rank::RankIndex;
pub use runtime::RuntimeConfig;
pub use sample::OracleSample;
pub use segment::{Corpus, SegmentedDataset};
pub use session::{QueryOutcome, SelectorKind, SessionOracle, SupgSession, ViewOutcome};

//! The unified SUPG query session: one fluent, validating entry point for
//! recall-target (RT), precision-target (PT) and joint-target (JT)
//! queries.
//!
//! The paper's Algorithm 1 is a single pipeline — sample, estimate `τ`,
//! union the labeled positives with the threshold set — and this module
//! exposes exactly one way to run it:
//!
//! ```
//! use supg_core::{CachedOracle, ScoredDataset, SelectorKind, SupgSession};
//!
//! let scores: Vec<f64> = (0..10_000).map(|i| (i % 100) as f64 / 100.0).collect();
//! let labels: Vec<bool> = scores.iter().map(|&s| s > 0.9).collect();
//! let dataset = ScoredDataset::new(scores).unwrap();
//! let mut oracle = CachedOracle::from_labels(labels, 1_000);
//!
//! let outcome = SupgSession::over(&dataset)
//!     .recall(0.9)
//!     .delta(0.05)
//!     .budget(1_000)
//!     .selector(SelectorKind::ImportanceSampling)
//!     .seed(7)
//!     .run(&mut oracle)
//!     .unwrap();
//! assert_eq!(outcome.selector, "IS-CI-R");
//! assert!(outcome.oracle_calls <= 1_000);
//! ```
//!
//! Joint-target queries go through the same builder — set both targets and
//! switch on joint mode with the stage budget of the appendix-A pipeline:
//!
//! ```
//! # use supg_core::{CachedOracle, ScoredDataset, SelectorKind, SupgSession};
//! # let scores: Vec<f64> = (0..5_000).map(|i| (i % 100) as f64 / 100.0).collect();
//! # let labels: Vec<bool> = scores.iter().map(|&s| s > 0.9).collect();
//! # let dataset = ScoredDataset::new(scores).unwrap();
//! let mut oracle = CachedOracle::from_labels(labels, 0);
//! let outcome = SupgSession::over(&dataset)
//!     .recall(0.8)
//!     .precision(0.9)
//!     .joint(500)
//!     .run(&mut oracle)
//!     .unwrap();
//! assert!(outcome.joint);
//! assert_eq!(outcome.oracle_calls, outcome.stage_calls + outcome.filter_calls);
//! ```
//!
//! Algorithms are named by [`SelectorKind`] — the paper identifier is
//! derived from the kind × target-kind registry (`U-CI-R`, `IS-CI-P`, …)
//! — and determinism is configured once on the session ([`SupgSession::seed`])
//! instead of threading an RNG through every call.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::data::ScoredDataset;
use crate::error::SupgError;
use crate::executor::{ResultView, SelectionResult};
use crate::oracle::{labeling_clock, BatchOracle, CachedOracle, Oracle};
use crate::plan::{CalibrationProfile, Plan, PlanSignals, Planner};
use crate::prepared::{DataView, PreparedDataset, QueryProbe, RecipeState, SamplerStrategy};
use crate::query::{ApproxQuery, JointQuery, TargetKind};
use crate::runtime::RuntimeConfig;
use crate::segment::SegmentedDataset;
use crate::selectors::{
    ImportancePrecision, ImportanceRecall, SelectorConfig, ThresholdSelector, TwoStagePrecision,
    UniformNoCiPrecision, UniformNoCiRecall, UniformPrecision, UniformRecall,
};

/// Default RNG seed of a session that never called [`SupgSession::seed`].
pub const DEFAULT_SEED: u64 = 0x5097_2020;

/// Stage budget of the JT pipeline's recall stage.
pub const DEFAULT_JT_STAGE_BUDGET: usize = 1_000;

/// The threshold-estimation algorithm families of the paper, independent of
/// the query's target kind. The registry maps a `(SelectorKind,
/// TargetKind)` pair to the concrete algorithm and its paper identifier:
///
/// | kind | RT | PT |
/// |---|---|---|
/// | [`UniformNoCi`](SelectorKind::UniformNoCi) | `U-NoCI-R` | `U-NoCI-P` |
/// | [`Uniform`](SelectorKind::Uniform) | `U-CI-R` | `U-CI-P` |
/// | [`ImportanceSampling`](SelectorKind::ImportanceSampling) | `IS-CI-R` | `IS-CI-P-1stage` |
/// | [`TwoStage`](SelectorKind::TwoStage) | — | `IS-CI-P` |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectorKind {
    /// Guarantee-free uniform baseline of prior systems (§5.1).
    UniformNoCi,
    /// Uniform sampling with confidence intervals (Algorithms 2–3).
    Uniform,
    /// Importance sampling: Algorithm 4 for RT, the one-stage Figure-7
    /// estimator for PT.
    ImportanceSampling,
    /// The two-stage importance precision estimator (Algorithm 5) — the
    /// paper's `IS-CI-P`. Precision targets only.
    TwoStage,
}

impl SelectorKind {
    /// Every kind, in paper order.
    pub const ALL: [SelectorKind; 4] = [
        SelectorKind::UniformNoCi,
        SelectorKind::Uniform,
        SelectorKind::ImportanceSampling,
        SelectorKind::TwoStage,
    ];

    /// Whether this kind can answer queries with the given target
    /// (derived from [`paper_name`](SelectorKind::paper_name), the
    /// registry's single source of truth).
    pub fn supports(self, target: TargetKind) -> bool {
        self.paper_name(target).is_ok()
    }

    /// Whether the built selector carries the paper's `1 − δ` guarantee.
    pub fn guaranteed(self) -> bool {
        self != SelectorKind::UniformNoCi
    }

    /// The paper's recommended member of this family for the given
    /// target: identity everywhere except `ImportanceSampling` ×
    /// precision, where the SUPG configuration is the two-stage
    /// `IS-CI-P` (Algorithm 5) rather than the one-stage Figure-7
    /// ablation. Sessions and the engine apply this when the caller asks
    /// for a *default* rather than a specific algorithm.
    pub fn paper_family_default(self, target: TargetKind) -> SelectorKind {
        match (self, target) {
            (SelectorKind::ImportanceSampling, TargetKind::Precision) => SelectorKind::TwoStage,
            _ => self,
        }
    }

    /// The paper identifier of the `(kind, target)` algorithm (the name
    /// reported by [`QueryOutcome::selector`]).
    ///
    /// # Errors
    /// [`SupgError::UnsupportedSelector`] for combinations outside the
    /// registry (two-stage recall).
    pub fn paper_name(self, target: TargetKind) -> Result<&'static str, SupgError> {
        Ok(match (self, target) {
            (SelectorKind::UniformNoCi, TargetKind::Recall) => "U-NoCI-R",
            (SelectorKind::UniformNoCi, TargetKind::Precision) => "U-NoCI-P",
            (SelectorKind::Uniform, TargetKind::Recall) => "U-CI-R",
            (SelectorKind::Uniform, TargetKind::Precision) => "U-CI-P",
            (SelectorKind::ImportanceSampling, TargetKind::Recall) => "IS-CI-R",
            (SelectorKind::ImportanceSampling, TargetKind::Precision) => "IS-CI-P-1stage",
            (SelectorKind::TwoStage, TargetKind::Precision) => "IS-CI-P",
            (SelectorKind::TwoStage, TargetKind::Recall) => {
                return Err(SupgError::UnsupportedSelector {
                    selector: "TwoStage",
                    target: TargetKind::Recall,
                })
            }
        })
    }

    /// Every `(kind, target)` pair the registry has an algorithm for, in
    /// paper order — the single source of truth for enumeration over the
    /// registry.
    pub fn registry() -> impl Iterator<Item = (SelectorKind, TargetKind)> {
        SelectorKind::ALL
            .into_iter()
            .flat_map(|kind| {
                [TargetKind::Recall, TargetKind::Precision]
                    .into_iter()
                    .map(move |target| (kind, target))
            })
            .filter(|&(kind, target)| kind.supports(target))
    }

    /// Looks a kind/target pair up by its paper identifier
    /// (`"IS-CI-R"` → `(ImportanceSampling, Recall)`).
    pub fn from_paper_name(name: &str) -> Option<(SelectorKind, TargetKind)> {
        Self::registry().find(|&(kind, target)| kind.paper_name(target) == Ok(name))
    }

    /// Builds the concrete threshold selector for this kind and target —
    /// the registry behind [`SupgSession`] and the query engine.
    ///
    /// # Errors
    /// [`SupgError::UnsupportedSelector`] for combinations outside the
    /// registry (two-stage recall).
    pub fn build(
        self,
        target: TargetKind,
        cfg: SelectorConfig,
    ) -> Result<Box<dyn ThresholdSelector + Send + Sync>, SupgError> {
        Ok(match (self, target) {
            (SelectorKind::UniformNoCi, TargetKind::Recall) => Box::new(UniformNoCiRecall),
            (SelectorKind::UniformNoCi, TargetKind::Precision) => Box::new(UniformNoCiPrecision),
            (SelectorKind::Uniform, TargetKind::Recall) => Box::new(UniformRecall::new(cfg)),
            (SelectorKind::Uniform, TargetKind::Precision) => Box::new(UniformPrecision::new(cfg)),
            (SelectorKind::ImportanceSampling, TargetKind::Recall) => {
                Box::new(ImportanceRecall::new(cfg))
            }
            (SelectorKind::ImportanceSampling, TargetKind::Precision) => {
                Box::new(ImportancePrecision::new(cfg))
            }
            (SelectorKind::TwoStage, TargetKind::Precision) => {
                Box::new(TwoStagePrecision::new(cfg))
            }
            (SelectorKind::TwoStage, TargetKind::Recall) => {
                return Err(SupgError::UnsupportedSelector {
                    selector: "TwoStage",
                    target: TargetKind::Recall,
                })
            }
        })
    }
}

/// Oracles a session can drive. Beyond plain labeling, the JT pipeline
/// re-budgets the oracle between its stages (the stage budget for the RT
/// subroutine, unlimited for the exhaustive filter).
pub trait SessionOracle: Oracle {
    /// Replaces the oracle's *total* call budget (already-consumed calls
    /// keep counting against it). The JT pipeline therefore sets
    /// `calls_used() + stage_budget` to grant a stage exactly
    /// `stage_budget` fresh calls.
    fn set_budget(&mut self, budget: usize);
}

impl SessionOracle for CachedOracle {
    fn set_budget(&mut self, budget: usize) {
        CachedOracle::set_budget(self, budget)
    }
}

/// Forwarding impl mirroring the `&mut O` [`Oracle`] impl, so wrappers
/// (the [`crate::fault`] layer, the serving layer) can re-budget through a
/// mutable borrow of a caller's oracle.
impl<O: SessionOracle + ?Sized> SessionOracle for &mut O {
    fn set_budget(&mut self, budget: usize) {
        (**self).set_budget(budget);
    }
}

/// Everything one query execution produced — RT, PT and JT alike — for
/// auditing, evaluation and reporting.
///
/// Generic over the result representation: the default is the owned
/// [`SelectionResult`]; [`SupgSession::run_view`] returns the same
/// accounting around a borrowed, zero-copy [`ResultView`] (the
/// [`ViewOutcome`] alias), which
/// [`into_owned`](QueryOutcome::into_owned) materializes on demand.
#[derive(Debug, Clone)]
pub struct QueryOutcome<R = SelectionResult> {
    /// The returned record set `R = R1 ∪ R2` (oracle-verified positives
    /// only, for JT queries).
    pub result: R,
    /// The estimated proxy threshold (`∞` = labeled positives only).
    pub tau: f64,
    /// Paper identifier of the selector that estimated `τ`
    /// (`"U-CI-R"`, `"IS-CI-P"`, …).
    pub selector: &'static str,
    /// Total distinct oracle invocations: `stage_calls + filter_calls`.
    pub oracle_calls: usize,
    /// Oracle calls consumed estimating `τ` (the sampling stage).
    pub stage_calls: usize,
    /// Oracle calls consumed by the JT exhaustive filter (0 for RT/PT).
    pub filter_calls: usize,
    /// Total sample draws (with multiplicity; ≥ `stage_calls`).
    pub sample_draws: usize,
    /// Positive labels among the sampled records.
    pub sample_positives: usize,
    /// Size of the candidate set before JT filtering (equals
    /// `result.len()` for single-target queries).
    pub candidates: usize,
    /// Whether the JT pipeline ran.
    pub joint: bool,
    /// Wall-clock execution time (sampling + selection, excluding setup).
    pub elapsed: Duration,
    /// Sampling-artifact requests this query served from a prepared
    /// dataset's cache (0 for cold sessions — there is no cache to hit).
    pub cache_hits: u64,
    /// Sampling-artifact requests this query paid a fresh build for.
    pub cache_misses: u64,
    /// Wall-clock time of the sampling/estimation stage (for single-target
    /// queries this equals `elapsed`).
    pub stage_elapsed: Duration,
    /// Wall-clock time of the JT exhaustive filter (zero for RT/PT).
    pub filter_elapsed: Duration,
    /// Wall-clock time spent *inside oracle labeling* (every
    /// `label_batch` issued by the sampling stage and the JT filter).
    /// Unlike `elapsed` this excludes threshold sweeps, artifact builds
    /// and result materialization, which is why the adaptive planner's
    /// latency EWMA feeds on `oracle_elapsed / oracle_calls` — a fast
    /// oracle over a huge corpus must not look latency-bound just
    /// because the corpus-sized work around it was slow.
    pub oracle_elapsed: Duration,
    /// Transient oracle failures retried during this query (0 unless the
    /// oracle stack includes a retrying wrapper such as
    /// [`ResilientOracle`](crate::fault::ResilientOracle)).
    pub oracle_retries: u64,
    /// Records whose labeling failed permanently during this query, as
    /// counted by the oracle stack (a failure normally aborts the query,
    /// so successful outcomes report 0 unless a custom oracle absorbs
    /// failures internally).
    pub oracle_failures: u64,
    /// Retry backoff accrued during this query (virtual unless the retry
    /// policy really sleeps).
    pub retry_backoff: Duration,
    /// Records in the queried corpus — what the §6.5 cost model charges
    /// proxy inference for ([`cost`](QueryOutcome::cost)).
    pub n_records: usize,
    /// The resolved execution plan, when this query ran through the
    /// adaptive planner ([`SupgSession::planned`]) — a debug report of
    /// what was picked and which measured input drove each decision.
    /// `None` for hand-tuned queries; excluded from the bit-parity
    /// contract (two identical executions differ only in this report).
    pub plan: Option<Arc<Plan>>,
}

/// A [`QueryOutcome`] whose result is the borrowed, zero-copy
/// [`ResultView`] — what [`SupgSession::run_view`] returns.
pub type ViewOutcome<'a> = QueryOutcome<ResultView<'a>>;

impl ViewOutcome<'_> {
    /// Materializes the borrowed result into the owned form, paying the
    /// deferred O(k) copy — bit-identical to what
    /// [`SupgSession::run`] would have returned for the same query.
    pub fn into_owned(self) -> QueryOutcome {
        QueryOutcome {
            result: self.result.to_result(),
            tau: self.tau,
            selector: self.selector,
            oracle_calls: self.oracle_calls,
            stage_calls: self.stage_calls,
            filter_calls: self.filter_calls,
            sample_draws: self.sample_draws,
            sample_positives: self.sample_positives,
            candidates: self.candidates,
            joint: self.joint,
            elapsed: self.elapsed,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            stage_elapsed: self.stage_elapsed,
            filter_elapsed: self.filter_elapsed,
            oracle_elapsed: self.oracle_elapsed,
            oracle_retries: self.oracle_retries,
            oracle_failures: self.oracle_failures,
            retry_backoff: self.retry_backoff,
            n_records: self.n_records,
            plan: self.plan,
        }
    }
}

/// A fluent, validating builder that runs SUPG queries over one dataset.
///
/// See the [module docs](self) for RT and JT examples. Construction never
/// fails; every validation problem surfaces as a typed [`SupgError`] from
/// [`run`](SupgSession::run), so callers get one error path instead of
/// panics sprinkled across the pipeline.
#[derive(Debug, Clone)]
pub struct SupgSession<'a> {
    data: SessionData<'a>,
    recall: Option<f64>,
    precision: Option<f64>,
    delta: f64,
    budget: Option<usize>,
    joint: Option<usize>,
    selector: Option<SelectorKind>,
    config: SelectorConfig,
    seed: u64,
    runtime: Option<RuntimeConfig>,
    planner: Option<Handle<'a, Planner>>,
}

impl<'a> SupgSession<'a> {
    /// Starts a session over `data` with the paper defaults: `δ = 0.05`,
    /// the SUPG selector family (IS-CI-R for recall targets, the
    /// two-stage IS-CI-P for precision targets — see
    /// [`SelectorKind::paper_family_default`]), seed [`DEFAULT_SEED`],
    /// no targets yet.
    ///
    /// `data` is any [`SessionData`] source:
    /// * `&ScoredDataset` or `&SegmentedDataset` — a cold session that
    ///   builds its sampling artifacts per query. A segmented corpus is
    ///   one flat dataset, so it produces the flat [`QueryOutcome`]s
    ///   (pinned by `crates/core/tests/segmented_parity.rs`).
    /// * `&PreparedDataset` — reuses the dataset's cached sampling
    ///   artifacts instead of paying the O(n) weight/alias-table
    ///   construction per query; results are identical to the cold
    ///   session on the same data and seed.
    /// * `Arc<PreparedDataset>` — the session *owns* a shared handle, the
    ///   form concurrent serving uses, where many `'static` sessions on
    ///   many threads share one prepared corpus. (Pass `Arc::clone(&arc)`,
    ///   or `&*arc` to borrow: deref coercion does not apply through
    ///   `impl Into`.)
    pub fn over(data: impl Into<SessionData<'a>>) -> Self {
        Self {
            data: data.into(),
            recall: None,
            precision: None,
            delta: 0.05,
            budget: None,
            joint: None,
            selector: None,
            config: SelectorConfig::default(),
            seed: DEFAULT_SEED,
            runtime: None,
            planner: None,
        }
    }

    /// The view selectors run against (dataset + optional artifact cache).
    fn view(&self) -> DataView<'_> {
        match &self.data {
            SessionData::Cold(data) => DataView::cold(data),
            SessionData::Prepared(prepared) => DataView::prepared(prepared),
        }
    }

    /// Sets a recall target `γ_r` (an RT query, or half of a JT query).
    pub fn recall(mut self, gamma: f64) -> Self {
        self.recall = Some(gamma);
        self
    }

    /// Sets a precision target `γ_p` (a PT query, or half of a JT query).
    pub fn precision(mut self, gamma: f64) -> Self {
        self.precision = Some(gamma);
        self
    }

    /// Sets the failure probability `δ` (default `0.05`).
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Sets the oracle budget `s` of a single-target query.
    pub fn budget(mut self, budget: usize) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Enables joint-target mode with the given recall-stage budget
    /// (JT queries are unbudgeted overall — appendix A).
    pub fn joint(mut self, stage_budget: usize) -> Self {
        self.joint = Some(stage_budget);
        self
    }

    /// Selects a specific algorithm family, honored verbatim — e.g.
    /// `ImportanceSampling` on a precision target runs the one-stage
    /// Figure-7 estimator. Without this call the session uses the
    /// paper's SUPG configuration for the target
    /// ([`SelectorKind::paper_family_default`] of `ImportanceSampling`).
    pub fn selector(mut self, kind: SelectorKind) -> Self {
        self.selector = Some(kind);
        self
    }

    /// Overrides the selector tuning knobs (CI method, weights, …).
    pub fn selector_config(mut self, config: SelectorConfig) -> Self {
        self.config = config;
        self
    }

    /// Picks the weighted-sampler backend the importance selectors draw
    /// through (default [`SamplerStrategy::Alias`]). `Cdf` skips the
    /// alias table's heavier O(n) construction — the right trade for a
    /// cold one-shot query — and `Auto` leaves the choice to the
    /// planner's one rule, planned or not: CDF while the recipe is cold
    /// (cached at first sight on a prepared dataset), the cached alias
    /// table once it recurs.
    /// Strategies consume the seeded RNG stream differently, so they are
    /// deterministic individually but not interchangeable bit-for-bit;
    /// see [`SamplerStrategy`].
    pub fn sampler_strategy(mut self, strategy: SamplerStrategy) -> Self {
        self.config.sampler = strategy;
        self
    }

    /// Fixes the session's RNG seed — determinism is configured once here
    /// instead of threading an RNG through every call (default
    /// [`DEFAULT_SEED`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the width of the worker pool used for batched oracle labeling
    /// (clamped to ≥ 1; default 1 = sequential). The setting is forwarded
    /// to the oracle via [`Oracle::configure_runtime`] when the query runs;
    /// it takes effect for oracles with a thread-safe source
    /// ([`CachedOracle::parallel`], [`CachedOracle::from_labels`]).
    ///
    /// A fixed seed yields an identical [`QueryOutcome`] at every
    /// parallelism level — see [`crate::runtime`] for the determinism
    /// contract.
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        let runtime = self.runtime.get_or_insert_with(RuntimeConfig::default);
        runtime.parallelism = parallelism.max(1);
        self
    }

    /// Sets how many records one batched oracle request carries (clamped
    /// to ≥ 1; default [`crate::runtime::DEFAULT_BATCH_SIZE`]). Like
    /// [`parallelism`](SupgSession::parallelism), forwarded to the oracle
    /// at run time; never changes results, only how labeling work is
    /// chunked over the pool.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        let runtime = self.runtime.get_or_insert_with(RuntimeConfig::default);
        runtime.batch_size = batch_size.max(1);
        self
    }

    /// Sets the full execution runtime in one call (equivalent to
    /// `.parallelism(rt.parallelism).batch_size(rt.batch_size)`).
    pub fn runtime(mut self, runtime: RuntimeConfig) -> Self {
        self.runtime = Some(runtime);
        self
    }

    /// Attaches the adaptive planner ([`crate::plan`]): before each run
    /// the session snapshots the measured signals ([`PlanSignals`]),
    /// resolves a [`Plan`], executes it, and attaches the plan to the
    /// [`QueryOutcome`] as a debug report. Explicit knobs stay pinned —
    /// a [`runtime`](SupgSession::runtime)/[`parallelism`](SupgSession::parallelism)
    /// setting is honored verbatim, and any sampler other than
    /// [`SamplerStrategy::Auto`] is treated as a caller pin — so full
    /// adaptivity means `.sampler_strategy(SamplerStrategy::Auto)
    /// .planned(&planner)` with no runtime call.
    ///
    /// Keep one `Planner` per oracle: it persists the oracle's per-call
    /// latency EWMA across queries, which is what the batching decisions
    /// feed on. A planned query's outcome is bit-identical to a
    /// hand-tuned query at the same resolved configuration (pinned by
    /// `crates/core/tests/planner_parity.rs`).
    ///
    /// `planner` is a `&Planner` or, for `'static` serving sessions, an
    /// owned `Arc<Planner>`.
    pub fn planned(mut self, planner: impl Into<Handle<'a, Planner>>) -> Self {
        self.planner = Some(planner.into());
        self
    }

    /// Snapshots the measured planning signals for this session — the
    /// pure input [`Plan::resolve`] consumes.
    fn signals(&self, planner: &Planner) -> PlanSignals {
        let cal = CalibrationProfile::measured();
        let recipe = match &self.data {
            SessionData::Cold(_) => RecipeState::Cold,
            SessionData::Prepared(p) => {
                p.recipe_state(self.config.weight_exponent, self.config.uniform_mix)
            }
        };
        PlanSignals {
            n: self.view().data().len(),
            segments: 0,
            prepared: matches!(self.data, SessionData::Prepared(_)),
            recipe,
            requested_sampler: self.config.sampler,
            pinned_runtime: self.runtime,
            oracle_ns_per_call: planner.oracle_ns_per_call(),
            effective_cores: cal.effective_cores,
            chunked_sort_speedup: cal.chunked_sort_speedup(),
            policy: planner.policy(),
        }
    }

    /// The effective per-run configuration: without a planner, the
    /// session's own knobs verbatim; with one, the resolved [`Plan`]
    /// applied on top of them (pins honored inside resolution).
    fn resolve_plan(&self) -> (SelectorConfig, Option<RuntimeConfig>, Option<Arc<Plan>>) {
        let Some(planner) = &self.planner else {
            return (self.config, self.runtime, None);
        };
        let signals = self.signals(planner);
        let plan = Plan::resolve(&signals);
        planner.note(&signals, &plan);
        let mut config = self.config;
        config.sampler = plan.sampler;
        let runtime = Some(plan.runtime());
        (config, runtime, Some(Arc::new(plan)))
    }

    /// Configures the session from a validated single-target query
    /// specification: sets its target, `γ`, `δ` and budget, and clears
    /// any previously set opposite target or joint mode — the session
    /// afterwards plans exactly the given query.
    pub fn query(mut self, query: &ApproxQuery) -> Self {
        match query.target() {
            TargetKind::Recall => {
                self.recall = Some(query.gamma());
                self.precision = None;
            }
            TargetKind::Precision => {
                self.precision = Some(query.gamma());
                self.recall = None;
            }
        }
        self.delta = query.delta();
        self.budget = Some(query.budget());
        self.joint = None;
        self
    }

    /// Runs the query — RT, PT or JT — with the session's own seeded RNG
    /// and returns the owned result: exactly
    /// [`run_view`](SupgSession::run_view) followed by
    /// [`ViewOutcome::into_owned`].
    ///
    /// # Errors
    /// Typed [`SupgError`]s for builder validation problems (missing
    /// target/budget, conflicting targets, out-of-range `γ`/`δ` or
    /// [`SelectorConfig`] knobs, unsupported selector/target
    /// combinations) and for oracle failures during execution.
    pub fn run(&self, oracle: &mut dyn SessionOracle) -> Result<QueryOutcome, SupgError> {
        self.run_view(oracle).map(ViewOutcome::into_owned)
    }

    /// Runs the query — RT, PT or JT — and returns the zero-copy
    /// [`ViewOutcome`]: the threshold set stays a borrowed rank-prefix
    /// slice over the session's dataset instead of an owned `Vec` — for a
    /// huge `τ`-set this skips the entire O(k) materialization until (and
    /// unless) the caller asks for it via
    /// [`ViewOutcome::into_owned`]. JT results come back as a *filtered*
    /// view ([`ResultView::retain`]): the oracle-approved prefix members
    /// are rank positions over the borrowed index, never an owned copy of
    /// the record set.
    ///
    /// The oracle is a [`SessionOracle`] because the JT pipeline
    /// re-budgets it between stages; a custom oracle implements
    /// [`Oracle`] plus the one-method [`SessionOracle::set_budget`].
    /// When a planner is attached ([`planned`](SupgSession::planned)), the
    /// configuration is resolved once before the run and the outcome is
    /// fed back to the planner afterwards.
    ///
    /// # Errors
    /// As [`run`](SupgSession::run).
    pub fn run_view(&self, oracle: &mut dyn SessionOracle) -> Result<ViewOutcome<'_>, SupgError> {
        let mode = self.mode()?;
        let (config, runtime, plan) = self.resolve_plan();
        // The JT pipeline's sampling stage is a recall stage.
        let target = match &mode {
            Mode::Single(query) => query.target(),
            Mode::Joint { .. } => TargetKind::Recall,
        };
        let selector = self.resolved_selector(target).build(target, config)?;
        if let Some(runtime) = runtime {
            oracle.configure_runtime(runtime);
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut outcome = match mode {
            Mode::Single(query) => {
                exec_single_view(self.view(), &query, selector.as_ref(), oracle, &mut rng)?
            }
            Mode::Joint {
                query,
                stage_budget,
            } => exec_joint(
                self.view(),
                &query,
                stage_budget,
                selector.as_ref(),
                oracle,
                &mut rng,
            )?,
        };
        outcome.plan = plan;
        if let Some(planner) = &self.planner {
            planner.observe(&outcome);
        }
        Ok(outcome)
    }

    /// The selector kind this session will actually run for `target`: the
    /// explicit choice if [`selector`](SupgSession::selector) was called,
    /// otherwise the SUPG family default for the target.
    fn resolved_selector(&self, target: TargetKind) -> SelectorKind {
        self.selector
            .unwrap_or_else(|| SelectorKind::ImportanceSampling.paper_family_default(target))
    }

    /// Validates the builder state without executing anything.
    ///
    /// # Errors
    /// The same typed validation errors as [`run`](SupgSession::run).
    pub fn validate(&self) -> Result<(), SupgError> {
        self.mode().map(|_| ())
    }

    fn mode(&self) -> Result<Mode, SupgError> {
        self.check_config()?;
        match (self.recall, self.precision, self.joint) {
            (None, None, _) => Err(SupgError::MissingTarget),
            (Some(_), Some(_), None) => Err(SupgError::ConflictingTargets),
            (Some(gamma_r), Some(gamma_p), Some(stage_budget)) => {
                if self.budget.is_some() {
                    return Err(SupgError::InvalidQuery(
                        "JT queries are unbudgeted; the stage budget is set via joint(..)"
                            .to_owned(),
                    ));
                }
                // Validates both γs and δ.
                let query = JointQuery::new(gamma_r, gamma_p, self.delta)?;
                if stage_budget < 2 {
                    return Err(SupgError::InvalidQuery(format!(
                        "JT stage budget {stage_budget} must be at least 2"
                    )));
                }
                // The JT pipeline's sampling stage is a recall stage.
                self.resolved_selector(TargetKind::Recall)
                    .paper_name(TargetKind::Recall)?;
                Ok(Mode::Joint {
                    query,
                    stage_budget,
                })
            }
            (recall, precision, joint) => {
                if joint.is_some() {
                    return Err(SupgError::MissingTarget);
                }
                let (target, gamma) = match (recall, precision) {
                    (Some(g), None) => (TargetKind::Recall, g),
                    (None, Some(g)) => (TargetKind::Precision, g),
                    _ => unreachable!("two-target cases handled above"),
                };
                let budget = self.budget.ok_or(SupgError::MissingBudget)?;
                self.resolved_selector(target).paper_name(target)?;
                Ok(Mode::Single(ApproxQuery::new(
                    target, gamma, self.delta, budget,
                )?))
            }
        }
    }

    /// Rejects selector knobs the sampling and estimation stages cannot
    /// run with, so a hostile [`SelectorConfig`] is a typed error instead
    /// of a panic inside the query.
    fn check_config(&self) -> Result<(), SupgError> {
        let cfg = &self.config;
        if !(cfg.weight_exponent.is_finite() && cfg.weight_exponent >= 0.0) {
            return Err(SupgError::InvalidQuery(format!(
                "weight exponent {} must be finite and non-negative",
                cfg.weight_exponent
            )));
        }
        if !(0.0..=1.0).contains(&cfg.uniform_mix) {
            return Err(SupgError::InvalidQuery(format!(
                "uniform mix {} must lie in [0, 1]",
                cfg.uniform_mix
            )));
        }
        if cfg.precision_step == 0 {
            return Err(SupgError::InvalidQuery(
                "precision step must be at least 1".to_owned(),
            ));
        }
        Ok(())
    }
}

/// What a session runs over ([`SupgSession::over`]): a cold dataset
/// whose sampling artifacts are built per query, or a
/// [`PreparedDataset`] whose artifact cache every query shares, held
/// borrowed or by an owned `Arc` (concurrent serving). Built by `From`
/// from `&ScoredDataset`, `&SegmentedDataset`, `&PreparedDataset` and
/// `Arc<PreparedDataset>`.
#[derive(Debug, Clone)]
pub enum SessionData<'a> {
    /// Per-query artifact construction over a borrowed dataset.
    Cold(&'a ScoredDataset),
    /// A prepared dataset's shared artifact cache.
    Prepared(Handle<'a, PreparedDataset>),
}

impl<'a> From<&'a ScoredDataset> for SessionData<'a> {
    fn from(data: &'a ScoredDataset) -> Self {
        SessionData::Cold(data)
    }
}

impl<'a> From<&'a SegmentedDataset> for SessionData<'a> {
    fn from(data: &'a SegmentedDataset) -> Self {
        SessionData::Cold(data)
    }
}

impl<'a> From<&'a PreparedDataset> for SessionData<'a> {
    fn from(prepared: &'a PreparedDataset) -> Self {
        SessionData::Prepared(Handle::Borrowed(prepared))
    }
}

impl From<Arc<PreparedDataset>> for SessionData<'_> {
    fn from(prepared: Arc<PreparedDataset>) -> Self {
        SessionData::Prepared(Handle::Shared(prepared))
    }
}

/// How a session holds a long-lived object (its prepared dataset or its
/// [`Planner`]): borrowed for in-process callers, shared (`Arc`) for
/// `'static` serving sessions. Derefs to the object either way.
#[derive(Debug)]
pub enum Handle<'a, T> {
    /// A borrow tied to the owner's lifetime.
    Borrowed(&'a T),
    /// An owned shared handle.
    Shared(Arc<T>),
}

impl<T> Clone for Handle<'_, T> {
    fn clone(&self) -> Self {
        match self {
            Handle::Borrowed(t) => Handle::Borrowed(t),
            Handle::Shared(t) => Handle::Shared(Arc::clone(t)),
        }
    }
}

impl<T> std::ops::Deref for Handle<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            Handle::Borrowed(t) => t,
            Handle::Shared(t) => t,
        }
    }
}

impl<'a, T> From<&'a T> for Handle<'a, T> {
    fn from(t: &'a T) -> Self {
        Handle::Borrowed(t)
    }
}

impl<T> From<Arc<T>> for Handle<'_, T> {
    fn from(t: Arc<T>) -> Self {
        Handle::Shared(t)
    }
}

enum Mode {
    Single(ApproxQuery),
    Joint {
        query: JointQuery,
        stage_budget: usize,
    },
}

/// Algorithm 1 with an explicit selector: estimate `τ`, return labeled
/// positives ∪ threshold set — as a borrowed [`ResultView`]. The
/// threshold set `R2 = D(τ)` is a binary search for the cut plus a
/// zero-copy rank-prefix slice; only the (small) below-cut labeled
/// positives are owned. Materializing the owned [`SelectionResult`]
/// (`ViewOutcome::into_owned`) performs exactly the prefix-plus-extras
/// copy the non-streaming pipeline always did.
fn exec_single_view<'v>(
    view: DataView<'v>,
    query: &ApproxQuery,
    selector: &dyn ThresholdSelector,
    oracle: &mut dyn Oracle,
    rng: &mut dyn RngCore,
) -> Result<ViewOutcome<'v>, SupgError> {
    let start = Instant::now();
    let calls_before = oracle.calls_used();
    let retry_before = oracle.retry_stats();
    let labeling_before = labeling_clock::total();
    // The dataset is borrowed *before* the probe shortens the view's
    // lifetime — the returned result view must outlive the local probe.
    let data = view.data();
    let n_records = data.len();
    let probe = QueryProbe::new();
    let estimate = selector.estimate(view.with_probe(&probe), query, oracle, rng)?;

    // R = R2 ∪ R1: the prefix is borrowed from the rank index, no copy.
    let result = ResultView::over(data, estimate.tau, estimate.sample.positive_indices());

    let stage_calls = oracle.calls_used() - calls_before;
    let retry = oracle.retry_stats().since(retry_before);
    let oracle_elapsed = labeling_clock::total() - labeling_before;
    let elapsed = start.elapsed();
    Ok(QueryOutcome {
        candidates: result.len(),
        result,
        tau: estimate.tau,
        selector: selector.name(),
        oracle_calls: stage_calls,
        stage_calls,
        filter_calls: 0,
        sample_draws: estimate.sample.len(),
        sample_positives: estimate.sample.positive_count(),
        joint: false,
        elapsed,
        cache_hits: probe.cache_hits(),
        cache_misses: probe.cache_misses(),
        stage_elapsed: elapsed,
        filter_elapsed: Duration::ZERO,
        oracle_elapsed,
        oracle_retries: retry.retries,
        oracle_failures: retry.failures,
        retry_backoff: retry.backoff,
        n_records,
        plan: None,
    })
}

/// Appendix A with an explicit RT selector: recall stage under the stage
/// budget, then exhaustive oracle filtering of the candidates (precision
/// becomes 1 ≥ γ_p while recall is untouched — only negatives are
/// removed).
fn exec_joint<'v>(
    view: DataView<'v>,
    query: &JointQuery,
    stage_budget: usize,
    rt_selector: &dyn ThresholdSelector,
    oracle: &mut dyn SessionOracle,
    rng: &mut dyn RngCore,
) -> Result<ViewOutcome<'v>, SupgError> {
    let rt_query = ApproxQuery::new(
        TargetKind::Recall,
        query.recall_gamma(),
        query.delta(),
        stage_budget,
    )?;
    // The pipeline re-budgets the oracle stage by stage; put the caller's
    // own budget back afterwards (success or error) so a reused oracle
    // keeps enforcing it.
    let saved_budget = oracle.budget();
    let result = exec_joint_stages(view, &rt_query, rt_selector, oracle, rng);
    oracle.set_budget(saved_budget);
    result
}

fn exec_joint_stages<'v>(
    view: DataView<'v>,
    rt_query: &ApproxQuery,
    rt_selector: &dyn ThresholdSelector,
    oracle: &mut dyn SessionOracle,
    rng: &mut dyn RngCore,
) -> Result<ViewOutcome<'v>, SupgError> {
    let start = Instant::now();
    let calls_before = oracle.calls_used();
    let retry_before = oracle.retry_stats();
    let labeling_before = labeling_clock::total();
    // Grant the RT stage exactly its stage budget in fresh calls even when
    // the oracle was used before (set_budget replaces the *total* budget).
    oracle.set_budget(calls_before.saturating_add(rt_query.budget()));
    let stage = exec_single_view(view, rt_query, rt_selector, oracle, rng)?;
    let stage_calls = oracle.calls_used() - calls_before;
    let stage_elapsed = stage.elapsed;

    // The candidate set is already a rank-range (the stage result is the
    // τ rank-prefix plus its labeled positives), and the stage returned a
    // borrowed view over it, so enumeration for the label batch is the
    // *only* copy — and it is dropped again right here; the surviving
    // record set is never materialized at all
    // ([`ResultView::retain`] keeps prefix positions over the borrowed
    // index). Already-labeled records are cache hits and cost nothing
    // extra; the filter is one batched request, so a parallel oracle
    // labels the candidate set on its worker pool.
    let filter_start = Instant::now();
    oracle.set_budget(usize::MAX);
    let candidates = stage.result.to_vec();
    let labels = oracle.label_batch(&candidates)?;
    drop(candidates);
    // Keeping a subsequence of the duplicate-free ranked candidates
    // preserves both properties — no sort/dedup pass here either.
    let result = stage.result.retain(&labels);
    let filter_calls = oracle.calls_used() - calls_before - stage_calls;
    let filter_elapsed = filter_start.elapsed();
    // One diff over both stages: the stage outcome's own retry fields are
    // subsumed by this query-wide accounting.
    let retry = oracle.retry_stats().since(retry_before);
    let oracle_elapsed = labeling_clock::total() - labeling_before;

    Ok(QueryOutcome {
        result,
        tau: stage.tau,
        selector: stage.selector,
        oracle_calls: stage_calls + filter_calls,
        stage_calls,
        filter_calls,
        sample_draws: stage.sample_draws,
        sample_positives: stage.sample_positives,
        candidates: stage.candidates,
        joint: true,
        elapsed: start.elapsed(),
        cache_hits: stage.cache_hits,
        cache_misses: stage.cache_misses,
        stage_elapsed,
        filter_elapsed,
        oracle_elapsed,
        oracle_retries: retry.retries,
        oracle_failures: retry.failures,
        retry_backoff: retry.backoff,
        n_records: stage.n_records,
        plan: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable(n: usize) -> (ScoredDataset, Vec<bool>) {
        let scores: Vec<f64> = (0..n).map(|i| (i % 1000) as f64 / 1000.0).collect();
        let labels: Vec<bool> = scores.iter().map(|&s| s > 0.8).collect();
        (ScoredDataset::new(scores).unwrap(), labels)
    }

    #[test]
    fn rt_pt_and_jt_run_through_one_entry_point() {
        let (data, labels) = separable(20_000);

        let mut oracle = CachedOracle::from_labels(labels.clone(), 1_000);
        let rt = SupgSession::over(&data)
            .recall(0.9)
            .budget(1_000)
            .run(&mut oracle)
            .unwrap();
        assert_eq!(rt.selector, "IS-CI-R");
        assert!(!rt.joint);
        assert_eq!(rt.filter_calls, 0);
        assert!(rt.oracle_calls <= 1_000);

        let mut oracle = CachedOracle::from_labels(labels.clone(), 1_000);
        let pt = SupgSession::over(&data)
            .precision(0.9)
            .budget(1_000)
            .selector(SelectorKind::TwoStage)
            .run(&mut oracle)
            .unwrap();
        assert_eq!(pt.selector, "IS-CI-P");

        let mut oracle = CachedOracle::from_labels(labels, 0);
        let jt = SupgSession::over(&data)
            .recall(0.8)
            .precision(0.9)
            .joint(800)
            .run(&mut oracle)
            .unwrap();
        assert!(jt.joint);
        assert_eq!(jt.selector, "IS-CI-R");
        assert!(jt.stage_calls <= 800);
        assert!(jt.filter_calls <= jt.candidates);
        assert_eq!(jt.oracle_calls, jt.stage_calls + jt.filter_calls);
        // The exhaustive filter keeps only true positives.
        for idx in jt.result.iter() {
            assert!(idx > 16_000 || idx % 1000 > 800);
        }
    }

    #[test]
    fn oracle_elapsed_measures_labeling_time_only() {
        let (data, labels) = separable(20_000);
        let mut oracle = CachedOracle::from_labels(labels.clone(), 1_000);
        let rt = SupgSession::over(&data)
            .recall(0.9)
            .budget(1_000)
            .run(&mut oracle)
            .unwrap();
        assert!(rt.oracle_calls > 0);
        assert!(
            rt.oracle_elapsed > Duration::ZERO,
            "labeling time must be accounted"
        );
        assert!(
            rt.oracle_elapsed <= rt.elapsed,
            "oracle time {:?} cannot exceed whole-query time {:?}",
            rt.oracle_elapsed,
            rt.elapsed
        );

        // JT: the diff spans both the sampling stage and the filter.
        let mut oracle = CachedOracle::from_labels(labels, 0);
        let jt = SupgSession::over(&data)
            .recall(0.8)
            .precision(0.9)
            .joint(800)
            .run(&mut oracle)
            .unwrap();
        assert!(jt.oracle_elapsed > Duration::ZERO);
        assert!(jt.oracle_elapsed <= jt.elapsed);
    }

    #[test]
    fn same_seed_same_outcome_different_seed_differs() {
        let (data, labels) = separable(10_000);
        let run = |seed: u64| {
            let mut oracle = CachedOracle::from_labels(labels.clone(), 500);
            SupgSession::over(&data)
                .recall(0.9)
                .budget(500)
                .seed(seed)
                .run(&mut oracle)
                .unwrap()
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a.tau, b.tau);
        assert_eq!(a.result.indices(), b.result.indices());
        assert!(a.tau != c.tau || a.result.indices() != c.result.indices());
    }

    #[test]
    fn joint_stage_gets_its_full_budget_on_a_reused_oracle() {
        // A JT query on an oracle that already consumed calls (e.g. to
        // reuse its label cache) must still grant the RT stage
        // `stage_budget` *fresh* calls, not fail against the old total.
        let (data, labels) = separable(10_000);
        let mut oracle = CachedOracle::from_labels(labels, 400);
        let warmup = SupgSession::over(&data)
            .recall(0.9)
            .budget(400)
            .run(&mut oracle)
            .unwrap();
        assert!(warmup.oracle_calls > 0);
        let used_before = warmup.oracle_calls;
        let jt = SupgSession::over(&data)
            .recall(0.8)
            .precision(0.9)
            .joint(400)
            .run(&mut oracle)
            .unwrap();
        assert!(jt.joint);
        assert!(
            jt.stage_calls <= 400,
            "stage consumed {} > stage budget",
            jt.stage_calls
        );
        // The stage was not silently starved by the warm-up's usage.
        assert!(oracle.calls_used() >= used_before);
    }

    #[test]
    fn query_resets_opposite_target_and_joint_mode() {
        let (data, labels) = separable(5_000);
        let pt = ApproxQuery::precision_target(0.9, 0.05, 300);
        // A builder that was configured for a JT query re-plans cleanly
        // when handed a single-target specification.
        let session = SupgSession::over(&data)
            .recall(0.8)
            .precision(0.85)
            .joint(200)
            .query(&pt);
        session.validate().unwrap();
        let mut oracle = CachedOracle::from_labels(labels, 300);
        let outcome = session
            .selector(SelectorKind::Uniform)
            .run(&mut oracle)
            .unwrap();
        assert_eq!(outcome.selector, "U-CI-P");
        assert!(!outcome.joint);
    }

    #[test]
    fn registry_iterates_exactly_the_supported_pairs() {
        let pairs: Vec<_> = SelectorKind::registry().collect();
        assert_eq!(pairs.len(), 7, "4 kinds x 2 targets minus TwoStage x RT");
        for (kind, target) in pairs {
            assert!(kind.supports(target));
            assert!(kind.paper_name(target).is_ok());
        }
    }

    #[test]
    fn registry_names_round_trip() {
        for kind in SelectorKind::ALL {
            for target in [TargetKind::Recall, TargetKind::Precision] {
                match kind.paper_name(target) {
                    Ok(name) => {
                        assert_eq!(SelectorKind::from_paper_name(name), Some((kind, target)));
                        let selector = kind.build(target, SelectorConfig::default()).unwrap();
                        assert_eq!(selector.name(), name);
                    }
                    Err(e) => {
                        assert!(matches!(e, SupgError::UnsupportedSelector { .. }));
                        assert!(kind.build(target, SelectorConfig::default()).is_err());
                        assert!(!kind.supports(target));
                    }
                }
            }
        }
        assert_eq!(SelectorKind::from_paper_name("nope"), None);
    }

    #[test]
    fn query_copies_an_approx_query() {
        let (data, labels) = separable(5_000);
        let q = ApproxQuery::precision_target(0.85, 0.1, 400);
        let mut oracle = CachedOracle::from_labels(labels, 400);
        let outcome = SupgSession::over(&data)
            .query(&q)
            .selector(SelectorKind::Uniform)
            .run(&mut oracle)
            .unwrap();
        assert_eq!(outcome.selector, "U-CI-P");
        assert!(outcome.oracle_calls <= 400);
    }

    // --- Migrated from the removed `joint::execute_joint` shim's suite ---

    fn rare(n: usize, seed: u64) -> (ScoredDataset, Vec<bool>) {
        use supg_stats::dist::{Bernoulli, Beta};
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Beta::new(0.05, 2.0);
        let mut scores = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let a = dist.sample(&mut rng);
            scores.push(a);
            labels.push(Bernoulli::new(a).sample(&mut rng));
        }
        (ScoredDataset::new(scores).unwrap(), labels)
    }

    #[test]
    fn joint_query_achieves_both_targets() {
        let (data, labels) = rare(30_000, 61);
        let mut failures = 0;
        for t in 0..10 {
            let mut oracle = CachedOracle::from_labels(labels.clone(), 0);
            let out = SupgSession::over(&data)
                .recall(0.9)
                .precision(0.9)
                .joint(1_000)
                .seed(6100 + t)
                .run(&mut oracle)
                .unwrap();
            let pr = crate::metrics::evaluate(out.result.indices(), &labels);
            // Precision is exactly 1 after exhaustive filtering.
            assert_eq!(pr.precision, 1.0);
            if pr.recall < 0.9 {
                failures += 1;
            }
        }
        assert!(failures <= 1, "{failures}/10 recall failures");
    }

    #[test]
    fn joint_filter_only_pays_for_unlabeled_candidates() {
        let (data, labels) = rare(10_000, 62);
        let mut oracle = CachedOracle::from_labels(labels, 0);
        let out = SupgSession::over(&data)
            .recall(0.8)
            .precision(0.9)
            .joint(500)
            .seed(63)
            .run(&mut oracle)
            .unwrap();
        assert!(out.stage_calls <= 500);
        assert!(out.filter_calls <= out.candidates);
        assert_eq!(out.oracle_calls, out.stage_calls + out.filter_calls);
    }

    #[test]
    fn joint_importance_uses_fewer_total_calls_than_uniform() {
        // SUPG's advantage in Figure 15: the IS recall stage returns a
        // smaller candidate set, so the exhaustive filter is cheaper.
        let (data, labels) = rare(30_000, 64);
        let mut is_total = 0usize;
        let mut u_total = 0usize;
        for t in 0..5 {
            let run = |kind: SelectorKind, labels: &[bool]| {
                let mut oracle = CachedOracle::from_labels(labels.to_vec(), 0);
                SupgSession::over(&data)
                    .recall(0.75)
                    .precision(0.9)
                    .joint(1_000)
                    .selector(kind)
                    .seed(6400 + t)
                    .run(&mut oracle)
                    .unwrap()
                    .oracle_calls
            };
            is_total += run(SelectorKind::ImportanceSampling, &labels);
            u_total += run(SelectorKind::Uniform, &labels);
        }
        assert!(
            is_total < u_total,
            "importance total {is_total} vs uniform {u_total}"
        );
    }
}

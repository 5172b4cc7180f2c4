//! The traced run: spans around each layer's public calls, a counting
//! allocator, and the replay that performs `serve`'s steps through them.
//!
//! A span records its start, its end and the span that contains it; a
//! layer's self time is its spans' time minus the time of their child
//! spans, so the layers of one query add up to the traced query time.
//! Allocation bytes are attributed the same way. Only the query's own
//! thread is counted: how the oracle's worker pool splits a batch depends
//! on scheduling, and counting its threads would make the counts vary.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use supg_core::selectors::{
    recall_threshold, SelectorConfig, ThresholdSelector, TwoStagePrecision,
};
use supg_core::{
    ApproxQuery, BatchOracle, CachedOracle, CalibrationProfile, Corpus as CorpusView, DataView,
    Oracle, OracleSample, Plan, PlanSignals, Planner, PreparedDataset, QueryOutcome, QueryProbe,
    ResultView, RetryStats, RuntimeConfig, SamplerStrategy, SessionOracle, SupgError,
};
use supg_serve::{BreakerConfig, CircuitBreaker, SupgServer};

use crate::check::{Checker, Tally};
use crate::script::{self, Corpus, Kind, Query, BUDGET, DELTA, JT_GAMMA, PT_GAMMA, RT_GAMMA};
use crate::served::{self, DATASET, TENANT};

/// Counts bytes allocated on threads that enabled counting. Installed as
/// the global allocator; in the untraced run it only adds one relaxed
/// load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
}

fn count_alloc(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }
}

fn alloc_bytes() -> u64 {
    ALLOC_BYTES.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting beside it touches only
// a const-initialized thread-local `Cell` and an atomic, neither of which
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// The layers a span can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The traced query itself; its self time is what no layer covers.
    Query,
    ServeAdmit,
    PlanResolve,
    PreparedArtifacts,
    SamplingDraw,
    OracleLabel,
    SampleAssemble,
    SelectorsSweep,
    SelectorsEstimate,
    ExecutorCut,
    ExecutorMaterialize,
    ExecutorFilter,
    ServeSettle,
    /// Outside any query: the rank build of a registration.
    RankBuild,
}

const LAYERS: usize = Layer::RankBuild as usize + 1;

/// Work counted at the layer boundaries.
#[derive(Debug, Clone, Copy)]
pub enum Counter {
    /// Cache misses of `PreparedDataset::artifacts_with`.
    ArtifactMisses,
    /// Records handed to `label_batch`, duplicates and cache hits included.
    OracleRequests,
    /// Records materialized by `ResultView::to_result`.
    Records,
}

struct Frame {
    layer: Layer,
    start: Instant,
    alloc_start: u64,
    child_ns: u64,
    child_alloc: u64,
}

/// Per-thread span stack and per-layer totals.
#[derive(Default)]
pub struct Totals {
    pub self_ns: [u64; LAYERS],
    pub self_alloc: [u64; LAYERS],
    pub spans: [u64; LAYERS],
    pub counters: [u64; 3],
}

struct Tracer {
    stack: Vec<Frame>,
    totals: Totals,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        stack: Vec::with_capacity(32),
        totals: Totals::default(),
    });
}

/// An open span; closing it (dropping) charges its self time.
pub struct Span(bool);

/// Opens a span of `layer` when this thread is tracing; otherwise free.
pub fn span(layer: Layer) -> Span {
    if !ACTIVE.with(Cell::get) {
        return Span(false);
    }
    TRACER.with(|t| {
        t.borrow_mut().stack.push(Frame {
            layer,
            start: Instant::now(),
            alloc_start: alloc_bytes(),
            child_ns: 0,
            child_alloc: 0,
        })
    });
    Span(true)
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        let end = Instant::now();
        let alloc_end = alloc_bytes();
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let f = t.stack.pop().expect("span stack underflow");
            let ns = end.duration_since(f.start).as_nanos() as u64;
            let alloc = alloc_end - f.alloc_start;
            let l = f.layer as usize;
            t.totals.self_ns[l] += ns - f.child_ns.min(ns);
            t.totals.self_alloc[l] += alloc - f.child_alloc.min(alloc);
            t.totals.spans[l] += 1;
            if let Some(parent) = t.stack.last_mut() {
                parent.child_ns += ns;
                parent.child_alloc += alloc;
            }
        });
    }
}

/// Adds `n` to a work counter when this thread is tracing.
pub fn count(counter: Counter, n: u64) {
    if ACTIVE.with(Cell::get) {
        TRACER.with(|t| t.borrow_mut().totals.counters[counter as usize] += n);
    }
}

/// Starts tracing on this thread with zeroed totals.
fn start_tracing() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.stack.clear();
        t.totals = Totals::default();
    });
    COUNTING.store(true, Ordering::Relaxed);
    ALLOC_BYTES.with(|c| c.set(0));
    ACTIVE.with(|a| a.set(true));
}

/// Stops tracing and hands back the totals.
fn stop_tracing() -> Totals {
    ACTIVE.with(|a| a.set(false));
    COUNTING.store(false, Ordering::Relaxed);
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().totals))
}

/// The benchmark's forwarding oracle: one span and one request count per
/// batch, everything else passed through to the wrapped oracle.
struct TracedOracle {
    inner: CachedOracle,
    labeling: Duration,
}

impl Oracle for TracedOracle {
    fn label(&mut self, index: usize) -> Result<bool, SupgError> {
        self.inner.label(index)
    }

    fn calls_used(&self) -> usize {
        self.inner.calls_used()
    }

    fn budget(&self) -> usize {
        self.inner.budget()
    }

    fn label_batch_native(&mut self, indices: &[usize]) -> Option<Result<Vec<bool>, SupgError>> {
        let _span = span(Layer::OracleLabel);
        count(Counter::OracleRequests, indices.len() as u64);
        let start = Instant::now();
        let labels = self.inner.label_batch(indices);
        self.labeling += start.elapsed();
        Some(labels)
    }

    fn configure_runtime(&mut self, runtime: RuntimeConfig) {
        self.inner.configure_runtime(runtime);
    }

    fn retry_stats(&self) -> RetryStats {
        self.inner.retry_stats()
    }
}

impl SessionOracle for TracedOracle {
    fn set_budget(&mut self, budget: usize) {
        self.inner.set_budget(budget);
    }
}

/// What the traced replay measured.
#[derive(Default)]
pub struct Traced {
    pub tally: Tally,
    pub totals: Totals,
    pub queries: usize,
    pub query_ns: u64,
    pub registrations: usize,
    pub errors: Vec<String>,
}

impl Traced {
    /// Mean rank-build time per registration, ms.
    pub fn rank_build_ms(&self) -> f64 {
        let builds = self.registrations.max(1) as f64;
        self.totals.self_ns[Layer::RankBuild as usize] as f64 / builds / 1e6
    }
}

/// Script queries the segmented replay of a warm workload runs.
pub const SEGMENTED_QUERIES: usize = 10 * script::PATTERN.len();
/// Corpora the segmented replay of cold-ingest registers.
pub const SEGMENTED_CORPORA: usize = 3;

/// State shared by the traced queries of one replay: the server whose
/// tenant registry and pool the admit step reads, and the replay's own
/// planner and breaker (the server keeps its own private).
struct Replay<'a> {
    server: &'a SupgServer,
    planner: Planner,
    breaker: CircuitBreaker,
    sampler: SamplerStrategy,
    checker: Checker,
    out: Traced,
}

impl Replay<'_> {
    fn query(&mut self, corpus: &Corpus, q: &Query) {
        let mut oracle = TracedOracle {
            inner: served::oracle(&corpus.truth),
            labeling: Duration::ZERO,
        };
        let start = Instant::now();
        let result = {
            let _query = span(Layer::Query);
            self.serve(q, &mut oracle)
        };
        self.out.query_ns += start.elapsed().as_nanos() as u64;
        self.out.queries += 1;
        match result {
            Ok(outcome) => {
                let answer = served::answer(q.kind, &outcome);
                if let Err(e) = self.checker.check(corpus, &answer, &mut self.out.tally) {
                    self.out.errors.push(e);
                }
            }
            Err(e) => self.out.errors.push(e),
        }
    }

    /// `SupgServer::serve`'s steps, each through its layer's public call.
    fn serve(&self, q: &Query, oracle: &mut TracedOracle) -> Result<QueryOutcome, String> {
        let spec = q.spec(self.sampler);
        let declared = spec.declared_calls();
        let (tenant, prepared, pass) = {
            let _admit = span(Layer::ServeAdmit);
            let tenant = self
                .server
                .tenants()
                .get(TENANT)
                .map_err(|e| e.to_string())?;
            let prepared = self.server.pool().get(DATASET).map_err(|e| e.to_string())?;
            let pass = self
                .breaker
                .admit()
                .map_err(|_| "circuit open".to_owned())?;
            tenant.try_reserve(declared).map_err(|e| e.to_string())?;
            (tenant, prepared, pass)
        };
        let config = {
            let _plan = span(Layer::PlanResolve);
            let plan = Plan::resolve(&self.signals(&prepared, &spec.config));
            oracle.configure_runtime(plan.runtime());
            spec.config.with_sampler(plan.sampler)
        };
        let mut outcome =
            execute(&prepared, q.kind, &config, oracle, spec.seed).map_err(|e| e.to_string())?;
        outcome.oracle_elapsed = oracle.labeling;
        {
            let _settle = span(Layer::ServeSettle);
            self.planner.observe(&outcome);
            tenant.settle(declared, outcome.oracle_calls);
            tenant.record(&outcome);
            pass.success();
        }
        Ok(outcome)
    }

    /// The snapshot `SupgSession` takes before resolving a plan.
    fn signals(&self, prepared: &PreparedDataset, config: &SelectorConfig) -> PlanSignals {
        let cal = CalibrationProfile::measured();
        PlanSignals {
            n: prepared.len(),
            segments: match prepared.corpus() {
                CorpusView::Flat(_) => 0,
                CorpusView::Segmented(s) => s.num_segments(),
            },
            prepared: true,
            recipe: prepared.recipe_state(config.weight_exponent, config.uniform_mix),
            requested_sampler: config.sampler,
            pinned_runtime: None,
            oracle_ns_per_call: self.planner.oracle_ns_per_call(),
            effective_cores: cal.effective_cores,
            chunked_sort_speedup: cal.chunked_sort_speedup(),
            policy: self.planner.policy(),
        }
    }
}

/// The importance-sampling recall stage (`ImportanceRecall::estimate`),
/// split into its artifact lookup, draws, labeled-sample assembly and
/// threshold sweep.
fn recall_stage(
    view: DataView<'_>,
    query: &ApproxQuery,
    config: &SelectorConfig,
    oracle: &mut TracedOracle,
    rng: &mut StdRng,
) -> Result<(f64, OracleSample), SupgError> {
    let artifacts = {
        let _s = span(Layer::PreparedArtifacts);
        view.artifacts_with(config.weight_exponent, config.uniform_mix, config.sampler)
    };
    let (indices, factors) = {
        let _s = span(Layer::SamplingDraw);
        let sampler = artifacts.sampler();
        let indices: Vec<usize> = (0..query.budget()).map(|_| sampler.draw(rng)).collect();
        let factors: Vec<f64> = indices
            .iter()
            .map(|&i| artifacts.reweight_factor(i))
            .collect();
        (indices, factors)
    };
    let sample = {
        let _s = span(Layer::SampleAssemble);
        OracleSample::label(view.data(), indices, oracle, |pos| factors[pos])?
    };
    let tau = {
        let _s = span(Layer::SelectorsSweep);
        recall_threshold(&sample, query.gamma(), query.delta(), config.ci, rng)
    };
    Ok((tau, sample))
}

fn cut<'a>(view: &DataView<'a>, tau: f64, sample: &OracleSample) -> ResultView<'a> {
    let _s = span(Layer::ExecutorCut);
    ResultView::over(view.rank_source(), tau, sample.positive_indices())
}

/// One query of `kind` over `prepared`, as `SupgSession::run` executes
/// it at the resolved configuration.
fn execute(
    prepared: &PreparedDataset,
    kind: Kind,
    config: &SelectorConfig,
    oracle: &mut TracedOracle,
    seed: u64,
) -> Result<QueryOutcome, SupgError> {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let probe = QueryProbe::new();
    let view = DataView::prepared(prepared);
    let probed = view.with_probe(&probe);
    let (tau, sample, view_result, stage_calls, candidates, selector) = match kind {
        Kind::Rt => {
            let query = ApproxQuery::recall_target(RT_GAMMA, DELTA, BUDGET);
            let (tau, sample) = recall_stage(probed, &query, config, oracle, &mut rng)?;
            let result = cut(&view, tau, &sample);
            (tau, sample, result, oracle.calls_used(), 0, "IS-CI-R")
        }
        Kind::Pt => {
            let query = ApproxQuery::precision_target(PT_GAMMA, DELTA, BUDGET);
            let selector = TwoStagePrecision::new(*config);
            let estimate = {
                let _s = span(Layer::SelectorsEstimate);
                selector.estimate(probed, &query, oracle, &mut rng)?
            };
            let result = cut(&view, estimate.tau, &estimate.sample);
            let calls = oracle.calls_used();
            (
                estimate.tau,
                estimate.sample,
                result,
                calls,
                0,
                selector.name(),
            )
        }
        Kind::Jt => {
            let saved_budget = oracle.budget();
            oracle.set_budget(oracle.calls_used() + BUDGET);
            let query = ApproxQuery::recall_target(JT_GAMMA.0, DELTA, BUDGET);
            let (tau, sample) = recall_stage(probed, &query, config, oracle, &mut rng)?;
            let stage = cut(&view, tau, &sample);
            let stage_calls = oracle.calls_used();
            let candidates = stage.len();
            let filtered = {
                let _s = span(Layer::ExecutorFilter);
                oracle.set_budget(usize::MAX);
                let candidates: Vec<usize> = stage.iter().collect();
                let labels = oracle.label_batch(&candidates);
                oracle.set_budget(saved_budget);
                let labels = labels?;
                drop(candidates);
                stage.retain(&labels)
            };
            (tau, sample, filtered, stage_calls, candidates, "IS-CI-R")
        }
    };
    let result = {
        let _s = span(Layer::ExecutorMaterialize);
        view_result.to_result()
    };
    count(Counter::Records, result.len() as u64);
    count(Counter::ArtifactMisses, probe.cache_misses());
    let oracle_calls = oracle.calls_used();
    let elapsed = start.elapsed();
    Ok(QueryOutcome {
        candidates: if kind == Kind::Jt {
            candidates
        } else {
            result.len()
        },
        result,
        tau,
        selector,
        oracle_calls,
        stage_calls,
        filter_calls: oracle_calls - stage_calls,
        sample_draws: sample.len(),
        sample_positives: sample.positive_count(),
        joint: kind == Kind::Jt,
        elapsed,
        cache_hits: probe.cache_hits(),
        cache_misses: probe.cache_misses(),
        stage_elapsed: elapsed,
        filter_elapsed: Duration::ZERO,
        oracle_elapsed: Duration::ZERO,
        oracle_retries: 0,
        oracle_failures: 0,
        retry_backoff: Duration::ZERO,
        n_records: prepared.len(),
        plan: None,
    })
}

fn replay<'a>(server: &'a SupgServer, sampler: SamplerStrategy) -> Replay<'a> {
    Replay {
        server,
        planner: Planner::new(),
        breaker: CircuitBreaker::new(BreakerConfig::default()),
        sampler,
        checker: Checker::new(script::RECORDS),
        out: Traced::default(),
    }
}

/// Traced replay of a warm workload in `layout`: one traced set-up, the
/// untimed warm-up, then the timed script.
pub fn replay_warm(
    layout: served::Layout,
    corpus: &Corpus,
    warmup: &[Query],
    queries: &[Query],
) -> Traced {
    let server = served::server();
    let mut r = replay(&server, SamplerStrategy::Alias);
    start_tracing();
    let ready = served::warm_register(&server, layout, corpus.scores.clone(), r.sampler);
    r.out.registrations += 1;
    let setup_totals = stop_tracing();
    if let Err(e) = ready {
        r.out.errors.push(e);
        return r.out;
    }
    for q in warmup {
        r.query(corpus, q);
    }
    r.out.tally = Tally::default();
    r.out.queries = 0;
    r.out.query_ns = 0;
    start_tracing();
    for q in queries {
        r.query(corpus, q);
    }
    let mut totals = stop_tracing();
    totals.self_ns[Layer::RankBuild as usize] = setup_totals.self_ns[Layer::RankBuild as usize];
    r.out.totals = totals;
    r.out
}

/// Traced replay of cold-ingest's first `corpora` corpora, each
/// regenerated, registered in `layout` under the rank-build span and
/// queried through the traced steps.
pub fn replay_cold(layout: served::Layout, seed: u64, corpora: usize) -> Traced {
    let server = served::server();
    let mut r = replay(&server, SamplerStrategy::Auto);
    let mut live: Option<Arc<PreparedDataset>> = None;
    let mut totals = Totals::default();
    for c in 0..corpora {
        let mut corpus = script::corpus(seed, c as u64 + 1);
        let scores = std::mem::take(&mut corpus.scores);
        start_tracing();
        let registered = served::register(&server, layout, scores);
        r.out.registrations += 1;
        if registered.is_ok() {
            let whole = std::mem::take(&mut r.out.tally);
            for q in &served::cold_script(seed, c) {
                r.query(&corpus, q);
            }
            let this = std::mem::replace(&mut r.out.tally, whole);
            r.out.tally.absorb(&this);
        }
        merge(&mut totals, &stop_tracing());
        match registered {
            Ok(p) => drop(live.replace(p)),
            Err(e) => {
                r.out.errors.push(e.to_string());
                break;
            }
        }
    }
    r.out.totals = totals;
    r.out
}

fn merge(into: &mut Totals, from: &Totals) {
    for l in 0..LAYERS {
        into.self_ns[l] += from.self_ns[l];
        into.self_alloc[l] += from.self_alloc[l];
        into.spans[l] += from.spans[l];
    }
    for c in 0..into.counters.len() {
        into.counters[c] += from.counters[c];
    }
}

/// Times the process's one-time planner calibration; must run before
/// anything else triggers it.
pub fn calibrate() -> (Duration, &'static CalibrationProfile) {
    let start = Instant::now();
    let cal = CalibrationProfile::measured();
    (start.elapsed(), cal)
}

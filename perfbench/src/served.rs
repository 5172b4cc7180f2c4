//! The untraced run: one closed-loop client drives `SupgServer::serve`
//! over the workload's script and times every call.
//!
//! Every timed operation runs [`PASSES`] times, in consecutive passes over
//! the whole script, and its time is the median of them: a stall that
//! hits one pass does not reach the tail percentiles, and the median does
//! not chase a fast state the machine only sometimes reaches (the fastest
//! of a few runs does, and jumps between runs). A slowdown that lasts
//! longer than a pass hits all of them alike; no statistic within a run
//! removes it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use supg_core::selectors::SelectorConfig;
use supg_core::{
    CachedOracle, CalibrationProfile, PlanStats, PreparedDataset, SamplerStrategy, ScoredDataset,
    SegmentedDataset, SupgError,
};
use supg_serve::{QueryOutcome, ServerConfig, SupgServer};

use crate::check::{Answer, Checker, Tally};
use crate::script::{self, Corpus, Kind, Query, BUDGET, RECORDS, SEGMENT_SIZE};
use crate::trace::{self, Layer};

pub const TENANT: &str = "bench";
pub const DATASET: &str = "corpus";

/// How many times each timed operation runs; its time is the median.
pub const PASSES: usize = 3;

/// Set-ups at the start of every warm pass. Set-up slot `k`'s time is
/// the median of its passes; `setup_s` and `ttfr_*` are taken over the
/// slots.
pub const WARM_SETUPS: usize = 6;

/// The corpus layout of a registration: the workloads serve the flat
/// one; the traced run also replays on the 16-segment one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    Flat,
    Seg16,
}

/// A fresh server with one tenant whose budget never runs out.
pub fn server() -> SupgServer {
    let server = SupgServer::new(ServerConfig::default());
    server.tenants().register(TENANT, usize::MAX / 2);
    server
}

/// Hands `scores` to the program: validation, the rank build and
/// registration under [`DATASET`]. The rank build is the traced
/// `rank.build` span (on the segmented layout, splitting into segments
/// is part of it).
pub fn register(
    server: &SupgServer,
    layout: Layout,
    scores: Vec<f64>,
) -> Result<Arc<PreparedDataset>, SupgError> {
    let prepared = match layout {
        Layout::Flat => {
            let data = ScoredDataset::new(scores)?;
            let _rank = trace::span(Layer::RankBuild);
            let prepared = PreparedDataset::new(data);
            prepared.prepare();
            prepared
        }
        Layout::Seg16 => {
            let _rank = trace::span(Layer::RankBuild);
            let prepared =
                PreparedDataset::from_segmented(SegmentedDataset::new(scores, SEGMENT_SIZE)?);
            prepared.prepare();
            prepared
        }
    };
    let prepared = Arc::new(prepared);
    server.pool().register(DATASET, Arc::clone(&prepared));
    Ok(prepared)
}

/// The warm workloads' set-up: [`register`], warm the script's recipe
/// and make sure the one-time planner calibration has run.
pub fn warm_register(
    server: &SupgServer,
    layout: Layout,
    scores: Vec<f64>,
    sampler: SamplerStrategy,
) -> Result<(), String> {
    register(server, layout, scores).map_err(|e| e.to_string())?;
    let config = SelectorConfig::default().with_sampler(sampler);
    server
        .pool()
        .warm(DATASET, &config)
        .map_err(|e| e.to_string())?;
    CalibrationProfile::measured();
    Ok(())
}

/// A fresh oracle over the corpus truth, budgeted like a served query.
pub fn oracle(truth: &Arc<Vec<bool>>) -> CachedOracle {
    let truth = Arc::clone(truth);
    CachedOracle::parallel(truth.len(), BUDGET, move |i| truth[i])
}

/// Everything the untraced run measured.
#[derive(Debug, Default)]
pub struct Served {
    /// Quality, cost and digest of the script's first pass.
    pub tally: Tally,
    /// Median latency of every scripted query, ms, per kind (RT, PT, JT).
    pub latency_ms: [Vec<f64>; 3],
    /// Median time to first result per set-up slot (warm) or corpus.
    pub ttfr_ms: Vec<f64>,
    /// Median set-up per set-up slot (warm) or corpus, seconds.
    pub setup_s: Vec<f64>,
    /// Σ of the median times of the scripted queries and, on
    /// cold-ingest, of the registrations: one typical pass.
    pub busy: Duration,
    /// Every timed `serve` call of every pass, for the trace overhead.
    pub serve_total: Duration,
    pub serves: usize,
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    pub plan_stats: Option<PlanStats>,
}

impl Served {
    /// Mean time of a timed `serve` call over all passes.
    pub fn mean_query_ns(&self) -> f64 {
        self.serve_total.as_nanos() as f64 / self.serves.max(1) as f64
    }

    /// Serves one query, checks its answer into `tally` and returns its
    /// latency, or `None` when it failed.
    fn serve(
        &mut self,
        server: &SupgServer,
        corpus: &Corpus,
        checker: &mut Checker,
        q: &Query,
        sampler: SamplerStrategy,
        tally: &mut Tally,
    ) -> Option<Duration> {
        let spec = q.spec(sampler);
        let mut oracle = oracle(&corpus.truth);
        let start = Instant::now();
        let result = server.serve(TENANT, DATASET, &spec, &mut oracle);
        let elapsed = start.elapsed();
        self.attempted += 1;
        match result {
            Ok(outcome) => {
                if let Err(e) = checker.check(corpus, &answer(q.kind, &outcome), tally) {
                    self.errors.push(e);
                }
                Some(elapsed)
            }
            Err(e) => {
                self.failed += 1;
                self.errors.push(e.to_string());
                None
            }
        }
    }

    /// Serves the timed script once; returns the pass's tally and every
    /// query's latency (`Duration::MAX` when it failed).
    fn pass(
        &mut self,
        server: &SupgServer,
        corpus: &Corpus,
        checker: &mut Checker,
        queries: &[Query],
        sampler: SamplerStrategy,
    ) -> (Tally, Vec<Duration>) {
        let mut tally = Tally::default();
        let mut latency = Vec::with_capacity(queries.len());
        for q in queries {
            let elapsed = self.serve(server, corpus, checker, q, sampler, &mut tally);
            if let Some(e) = elapsed {
                self.serve_total += e;
                self.serves += 1;
            }
            latency.push(elapsed.unwrap_or(Duration::MAX));
        }
        (tally, latency)
    }

    /// Keeps the first pass's tally and checks that every later pass
    /// gave the same answers.
    fn settle_pass(&mut self, pass: usize, first: &mut Tally, tally: Tally) {
        if pass == 0 {
            *first = tally;
        } else if tally.digest != first.digest {
            self.errors
                .push(format!("pass {pass} answered differently from pass 0"));
        }
    }

    fn push_latencies(&mut self, queries: &[Query], passes: &[Vec<Duration>]) {
        for (i, q) in queries.iter().enumerate() {
            let t = median(passes.iter().map(|p| p[i]).collect());
            self.latency_ms[q.kind as usize].push(t.as_secs_f64() * 1e3);
            self.busy += t;
        }
    }
}

/// Median of a few times (the upper one of an even count).
fn median(mut times: Vec<Duration>) -> Duration {
    times.sort_unstable();
    times[times.len() / 2]
}

pub fn answer(kind: Kind, outcome: &QueryOutcome) -> Answer<'_> {
    Answer {
        kind,
        tau: outcome.tau,
        indices: outcome.result.indices(),
        oracle_calls: outcome.oracle_calls,
        stage_calls: outcome.stage_calls,
    }
}

/// The warm workload, [`PASSES`] times: set up [`WARM_SETUPS`] times (each
/// followed by the script's first query, for the time to first result),
/// keep the last server, run the untimed warm-up, then the script.
pub fn run_warm(corpus: &Corpus, warmup: &[Query], queries: &[Query]) -> Served {
    let sampler = SamplerStrategy::Alias;
    let mut out = Served::default();
    let mut checker = Checker::new(RECORDS);
    let mut passes = Vec::with_capacity(PASSES);
    let mut setup = vec![Vec::new(); WARM_SETUPS];
    let mut ttfr = vec![Vec::new(); WARM_SETUPS];
    let mut first = Tally::default();
    for pass in 0..PASSES {
        let mut live = None;
        for k in 0..WARM_SETUPS {
            drop(live.take());
            let scores = corpus.scores.clone();
            let server = server();
            let start = Instant::now();
            let ready = warm_register(&server, Layout::Flat, scores, sampler);
            let took = start.elapsed();
            if let Err(e) = ready {
                out.errors.push(e);
                return out;
            }
            let mut unscored = Tally::default();
            let answer = out.serve(
                &server,
                corpus,
                &mut checker,
                &queries[0],
                sampler,
                &mut unscored,
            );
            setup[k].push(took);
            ttfr[k].push(took.saturating_add(answer.unwrap_or(Duration::MAX)));
            live = Some(server);
        }
        let server = live.expect("at least one set-up");
        let mut unscored = Tally::default();
        for q in warmup {
            out.serve(&server, corpus, &mut checker, q, sampler, &mut unscored);
        }
        let (tally, latency) = out.pass(&server, corpus, &mut checker, queries, sampler);
        passes.push(latency);
        out.settle_pass(pass, &mut first, tally);
        out.plan_stats = server.plan_stats(DATASET);
    }
    out.tally = first;
    out.push_latencies(queries, &passes);
    out.setup_s = setup.into_iter().map(|t| median(t).as_secs_f64()).collect();
    out.ttfr_ms = ttfr
        .into_iter()
        .map(|t| median(t).as_secs_f64() * 1e3)
        .collect();
    out
}

/// The script of cold-ingest corpus `c`: one pattern cycle. Its first RT
/// resolves the cold CDF build and its first PT promotes the recipe to a
/// cached alias table; the rest hit it.
pub fn cold_script(seed: u64, c: usize) -> Vec<Query> {
    script::script(seed, 1, (c * script::PATTERN.len()) as u64)
}

/// Cold-ingest: each fresh corpus replaces the previous one under the
/// same name, then runs its short script with the planner choosing the
/// sampler; [`PASSES`] times back to back, each from a fresh
/// registration. Generation and the freeing of the replaced corpus
/// happen outside every timed region.
pub fn run_cold(seed: u64, corpora: usize) -> Served {
    let sampler = SamplerStrategy::Auto;
    let mut out = Served::default();
    let mut checker = Checker::new(RECORDS);
    let server = server();
    CalibrationProfile::measured();
    let mut live: Option<Arc<PreparedDataset>> = None;
    for c in 0..corpora {
        let corpus = script::corpus(seed, c as u64 + 1);
        let queries = cold_script(seed, c);
        let mut passes = Vec::with_capacity(PASSES);
        let (mut setup, mut ttfr) = (Vec::with_capacity(PASSES), Vec::with_capacity(PASSES));
        let mut first = Tally::default();
        for pass in 0..PASSES {
            let scores = corpus.scores.clone();
            let start = Instant::now();
            let registered = register(&server, Layout::Flat, scores);
            let took = start.elapsed();
            match registered {
                Ok(p) => drop(live.replace(p)),
                Err(e) => {
                    out.errors.push(e.to_string());
                    return out;
                }
            }
            let (tally, latency) = out.pass(&server, &corpus, &mut checker, &queries, sampler);
            setup.push(took);
            ttfr.push(took.saturating_add(latency[0]));
            passes.push(latency);
            out.settle_pass(pass, &mut first, tally);
        }
        let setup = median(setup);
        out.tally.absorb(&first);
        out.push_latencies(&queries, &passes);
        out.busy += setup;
        out.setup_s.push(setup.as_secs_f64());
        out.ttfr_ms.push(median(ttfr).as_secs_f64() * 1e3);
    }
    out.plan_stats = server.plan_stats(DATASET);
    out
}

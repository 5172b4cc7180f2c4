//! The serving benchmark: end-to-end query latency of `SupgServer::serve`
//! on two workloads, and a traced replay that splits the same queries by
//! layer.
//!
//! ```text
//! perfbench --workload <warm-flat|cold-ingest> --seed <n> --seconds <n> \
//!           --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The lines before
//! it give the run attributes and the answer digests.
//!
//! # Load model
//!
//! A closed loop with one client thread: the client builds a fresh oracle
//! over the corpus truth, calls `serve`, blocks until the owned result
//! comes back, checks it and sends the next query. The planner already
//! spreads oracle labeling over the effective cores, so a second client
//! would oversubscribe a small machine. Open-loop capacity under arrival
//! schedules is the job of `supg-traffic`, not of this benchmark.
//!
//! # Fixed scripts
//!
//! The seed names everything a run does: the corpora (the repo's serving
//! workload — 10⁶ records with Beta(0.05, 2) proxy scores and
//! Bernoulli(score) truth), the query kinds and every query's seed. Run
//! length is a query count derived from `--seconds` by a fixed rate per
//! workload, never a time budget, so two runs of one seed ask the same
//! queries and must print the same digest (FNV-1a over every answer's τ
//! bits, result length and oracle calls). Scores and truth are generated
//! outside every timed region; the program receives only the scores.
//! Every query is RT (γ = 0.9), PT (γ = 0.9) or JT (γ_r = 0.8,
//! γ_p = 0.9) with budget 1,000 and δ = 0.05, in a repeating cycle of
//! 10 RT, 7 PT and 3 JT: the shares of the repo's traffic model
//! (`QueryMix::default_mix`). Every answer is checked against the truth:
//! indices in range and unique, RT/PT within budget, JT members oracle
//! positives.
//!
//! # Workloads
//!
//! * `warm-flat` — one corpus in the flat layout, registered and warmed
//!   before timing. The steady-state path the roadmap's headline targets.
//!   It isolates materialization (an RT answer copies a ~150k-record
//!   result) and oracle bookkeeping (a JT labels ~110k filter candidates
//!   through the label cache). It bypasses artifact builds (every lookup
//!   hits) and segment merges (the threshold prefix is borrowed).
//! * `cold-ingest` — a stream of fresh corpora, each generated from its
//!   own seed and registered under one name that replaces the previous
//!   corpus; each runs one cycle with the sampler left to the planner
//!   (`SamplerStrategy::Auto`). Writes beside reads: the rank build of
//!   registration, the planner's cold CDF build (first RT) and the alias
//!   build on the recipe's second sight (first PT) do most of the work;
//!   materialization and the JT filter do comparatively little. A change
//!   that moves query work into registration shows up in `ttfr_*`.
//!
//! # The segmented layout
//!
//! Every traced run also replays its workload on a 16-segment copy of the
//! corpus: `warm-flat` registers the same scores as 16 segments, warms
//! them and replays the first [`trace::SEGMENTED_QUERIES`] queries of its
//! script; `cold-ingest` registers its first
//! [`trace::SEGMENTED_CORPORA`] corpora as 16 segments and runs their
//! scripts. Its figures are the `segment.*` metrics: the build
//! (`SegmentedDataset::new` and `prepare`), the cut (the k-way stitch of
//! the threshold prefix in `ResultView::over`), sample assembly (the
//! per-sample global rank in `OracleSample::label`) and the traced query
//! time. Its answers are checked like every other. The segmented path is
//! left out of the end-to-end metrics because its latency swings with the
//! machine's speed far more than the flat path's — served 16-segment RT
//! medians read 10–11 ms and 17–18.5 ms in runs of one build minutes
//! apart — so no bound a regression gate can use holds on it; per-layer
//! metrics carry no bound.
//!
//! # Metrics
//!
//! End to end, from the untraced run only: per-kind latency of `serve`
//! (`rt_p50_ms`, `rt_p95_ms`, `pt_p50_ms`, `pt_p95_ms`, `jt_p50_ms`,
//! `jt_p90_ms`), time to first result (`ttfr_p50_ms`, `ttfr_p90_ms`:
//! from handing a corpus's scores to the program until its first answer
//! — one sample per corpus on cold-ingest, one per set-up slot on
//! warm-flat), `qps` (scripted queries per second of one typical pass,
//! registrations included on cold-ingest), `setup_s` (median time from
//! handing the scores over until ready to serve: validation, rank build,
//! registration and warm-up; per-corpus registration on cold-ingest),
//! `peak_rss_mb` (VmHWM), and the exact counts `oracle_calls_per_query`,
//! `rt_precision` and `pt_recall`. The RT/PT tails are p95, not p99: a
//! cold-ingest run holds a few hundred RTs, so p99 would rest on three or
//! four queries. JT is about 25× slower than RT, so its tail is p90. The
//! error share and the target miss rate are printed with the attributes
//! instead: both are 0 on a correct run.
//!
//! Per layer, from the traced replay: mean self µs per query of each
//! layer's public calls (admit, plan, artifact lookup, draw, oracle
//! labeling, sample assembly, threshold sweep or estimate, cut,
//! materialization, JT filter, settle), work counts, allocation kB on
//! the query thread, the rank build per registration, the one-time
//! calibration, the segmented replay's `segment.*` figures,
//! `trace.coverage` (Σ layer self time / traced query time) and
//! `trace.overhead` (traced / untraced mean query time). The replay must
//! reproduce the untraced digest.
//!
//! # Noise on a small VM
//!
//! The machine's speed swings: a fixed-work loop measured 3.5–4.8 G
//! iterations/s from one second to the next on a 2-vCPU VM, and a single
//! query's latency is bimodal, with a fast state the machine reaches only
//! sometimes. So every timed operation runs three times, in three passes
//! over the script, and its time is the median of the three: a stall
//! that hits one pass does not reach the tails, and the median does not
//! chase the fast state (the fastest of a few runs does, and jumps
//! between runs). Slower swings last a minute or more, during which every
//! query and set-up runs about a quarter to a third faster (warm-flat
//! `rt_p50_ms` read 0.71–0.74 ms in three consecutive runs and
//! 0.91–1.07 ms in the seven around them; cold-ingest `setup_s` read
//! 52–57 ms in two and 77–82 ms in seven). They are not CPU steal time,
//! so thread CPU time would not remove them either, and no statistic
//! within one run does: a run measures 45 s so that a short one is
//! averaged in, and two sets of runs agree only when neither straddles a
//! long one. A median that sits on a cache hit/miss boundary jumps
//! between runs, which is why cold-ingest reports one `ttfr` sample per
//! corpus. The calibration's chunked-sort speedup varies between
//! processes (0.43–1.36 across 12 processes); the registration path
//! builds with the dataset's default sequential runtime, so it does not
//! flip `setup_s`, but the implied chunk count is printed beside the
//! metrics.

mod check;
mod script;
mod served;
mod trace;

use std::process::ExitCode;

use supg_core::plan::planned_chunks;

use crate::script::RECORDS;
use crate::served::{Layout, Served};
use crate::trace::{Layer, Traced};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    WarmFlat,
    ColdIngest,
}

impl Workload {
    const NAMES: [(&'static str, Workload); 2] = [
        ("warm-flat", Self::WarmFlat),
        ("cold-ingest", Self::ColdIngest),
    ];

    fn parse(name: &str) -> Option<Self> {
        Self::NAMES
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, w)| w)
    }

    fn name(self) -> &'static str {
        Self::NAMES
            .iter()
            .find(|(_, w)| *w == self)
            .map_or("", |&(n, _)| n)
    }

    /// Script length for a run of `seconds`: pattern cycles (warm) or
    /// corpora (cold-ingest) at a fixed nominal rate, so the length
    /// depends on the arguments only.
    fn units(self, seconds: u64) -> usize {
        let per_second = match self {
            Self::WarmFlat => 2.0,
            Self::ColdIngest => 0.9,
        };
        ((seconds as f64 * per_second).ceil() as usize).max(1)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Nearest-rank percentile of an unsorted sample.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// VmHWM of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_owned()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn end_to_end(served: &Served) -> Metrics {
    let [rt, pt, jt] = &served.latency_ms;
    let t = &served.tally;
    let mut m = Metrics(Vec::new());
    m.push("rt_p50_ms", percentile(rt, 0.50), "ms");
    m.push("rt_p95_ms", percentile(rt, 0.95), "ms");
    m.push("pt_p50_ms", percentile(pt, 0.50), "ms");
    m.push("pt_p95_ms", percentile(pt, 0.95), "ms");
    m.push("jt_p50_ms", percentile(jt, 0.50), "ms");
    m.push("jt_p90_ms", percentile(jt, 0.90), "ms");
    m.push("ttfr_p50_ms", percentile(&served.ttfr_ms, 0.50), "ms");
    m.push("ttfr_p90_ms", percentile(&served.ttfr_ms, 0.90), "ms");
    m.push("qps", t.queries as f64 / served.busy.as_secs_f64(), "1/s");
    m.push("setup_s", percentile(&served.setup_s, 0.50), "s");
    m.push("peak_rss_mb", peak_rss_mb(), "MB");
    m.push(
        "oracle_calls_per_query",
        t.oracle_calls_per_query(),
        "count",
    );
    m.push("rt_precision", t.rt_precision(), "ratio");
    m.push("pt_recall", t.pt_recall(), "ratio");
    m
}

fn per_layer(
    traced: &Traced,
    segmented: &Traced,
    untraced_mean_ns: f64,
    calibrate_ms: f64,
) -> Metrics {
    let q = traced.queries.max(1) as f64;
    let tot = &traced.totals;
    let us = |l: Layer| tot.self_ns[l as usize] as f64 / q / 1e3;
    let kb = |l: Layer| tot.self_alloc[l as usize] as f64 / q / 1024.0;
    let per_query = |c: trace::Counter| tot.counters[c as usize] as f64 / q;
    let query_us = traced.query_ns as f64 / q / 1e3;
    let mut m = Metrics(Vec::new());
    m.push("serve.admit_us", us(Layer::ServeAdmit), "us");
    m.push("plan.resolve_us", us(Layer::PlanResolve), "us");
    m.push("plan.calibrate_ms", calibrate_ms, "ms");
    m.push("rank.build_ms", traced.rank_build_ms(), "ms");
    m.push("prepared.artifacts_us", us(Layer::PreparedArtifacts), "us");
    m.push(
        "prepared.misses",
        per_query(trace::Counter::ArtifactMisses),
        "count",
    );
    m.push(
        "prepared.artifacts_alloc_kb",
        kb(Layer::PreparedArtifacts),
        "kB",
    );
    m.push("sampling.draw_us", us(Layer::SamplingDraw), "us");
    m.push("oracle.label_us", us(Layer::OracleLabel), "us");
    m.push(
        "oracle.requests",
        per_query(trace::Counter::OracleRequests),
        "count",
    );
    m.push("oracle.label_alloc_kb", kb(Layer::OracleLabel), "kB");
    m.push("sample.assemble_us", us(Layer::SampleAssemble), "us");
    m.push("selectors.sweep_us", us(Layer::SelectorsSweep), "us");
    m.push("selectors.estimate_us", us(Layer::SelectorsEstimate), "us");
    m.push("executor.cut_us", us(Layer::ExecutorCut), "us");
    m.push(
        "executor.materialize_us",
        us(Layer::ExecutorMaterialize),
        "us",
    );
    m.push(
        "executor.records",
        per_query(trace::Counter::Records),
        "count",
    );
    m.push(
        "executor.materialize_alloc_kb",
        kb(Layer::ExecutorMaterialize),
        "kB",
    );
    m.push("executor.filter_us", us(Layer::ExecutorFilter), "us");
    m.push("serve.settle_us", us(Layer::ServeSettle), "us");
    let sq = segmented.queries.max(1) as f64;
    let seg_us = |l: Layer| segmented.totals.self_ns[l as usize] as f64 / sq / 1e3;
    m.push("segment.build_ms", segmented.rank_build_ms(), "ms");
    m.push("segment.cut_us", seg_us(Layer::ExecutorCut), "us");
    m.push("segment.assemble_us", seg_us(Layer::SampleAssemble), "us");
    m.push(
        "segment.query_us",
        segmented.query_ns as f64 / sq / 1e3,
        "us",
    );
    m.push("trace.unattributed_us", us(Layer::Query), "us");
    m.push("trace.query_us", query_us, "us");
    let covered: u64 = (0..Layer::RankBuild as usize)
        .filter(|&l| l != Layer::Query as usize)
        .map(|l| tot.self_ns[l])
        .sum();
    m.push(
        "trace.coverage",
        covered as f64 / traced.query_ns.max(1) as f64,
        "ratio",
    );
    m.push("trace.overhead", query_us * 1e3 / untraced_mean_ns, "ratio");
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <warm-flat|cold-ingest> --seed <n> --seconds <n> \
                 --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // First, so the one-time calibration is timed on its own.
    let (calibration, cal) = trace::calibrate();
    let units = args.workload.units(args.seconds);

    let (served, traced) = match args.workload {
        Workload::WarmFlat => {
            let corpus = script::corpus(args.seed, 0);
            let warmup = script::script(args.seed ^ 0x5741_524d, 1, 0);
            let queries = script::script(args.seed, units, 0);
            let served = served::run_warm(&corpus, &warmup, &queries);
            let traced = args.trace.then(|| {
                let prefix = &queries[..trace::SEGMENTED_QUERIES.min(queries.len())];
                (
                    trace::replay_warm(Layout::Flat, &corpus, &warmup, &queries),
                    trace::replay_warm(Layout::Seg16, &corpus, &warmup, prefix),
                )
            });
            (served, traced)
        }
        Workload::ColdIngest => {
            let served = served::run_cold(args.seed, units);
            let traced = args.trace.then(|| {
                let segmented = trace::SEGMENTED_CORPORA.min(units);
                (
                    trace::replay_cold(Layout::Flat, args.seed, units),
                    trace::replay_cold(Layout::Seg16, args.seed, segmented),
                )
            });
            (served, traced)
        }
    };

    let stats = served.plan_stats.unwrap_or_default();
    println!(
        "attributes {{\"workload\": \"{}\", \"seed\": {}, \"queries\": {}, \"passes\": {}, \
         \"samples\": {{\"rt\": {}, \"pt\": {}, \"jt\": {}, \"ttfr\": {}}}, \
         \"failed_frac\": {:?}, \"target_miss_rate\": {:?}, \
         \"effective_cores\": {}, \"chunked_sort_speedup\": {:?}, \
         \"rank_build_chunks_implied\": {}, \"plan_stats\": {{\"planned\": {}, \
         \"resolved_alias\": {}, \"resolved_cdf\": {}, \"pinned\": {}}}}}",
        args.workload.name(),
        args.seed,
        served.tally.queries,
        served::PASSES,
        served.latency_ms[0].len(),
        served.latency_ms[1].len(),
        served.latency_ms[2].len(),
        served.ttfr_ms.len(),
        served.failed as f64 / served.attempted.max(1) as f64,
        served.tally.target_miss_rate(),
        cal.effective_cores,
        cal.chunked_sort_speedup(),
        planned_chunks(RECORDS, cal),
        stats.planned,
        stats.resolved_alias,
        stats.resolved_cdf,
        stats.pinned,
    );
    println!("digest {:#018x}", served.tally.digest.0);
    let mut errors = served.errors.clone();
    let metrics = match &traced {
        None => end_to_end(&served),
        Some((t, segmented)) => {
            println!("traced_digest {:#018x}", t.tally.digest.0);
            println!("segmented_digest {:#018x}", segmented.tally.digest.0);
            errors.extend(t.errors.iter().cloned());
            errors.extend(segmented.errors.iter().cloned());
            if t.tally.digest != served.tally.digest {
                errors.push("traced replay diverged from the served answers".to_owned());
            }
            per_layer(
                t,
                segmented,
                served.mean_query_ns(),
                calibration.as_secs_f64() * 1e3,
            )
        }
    };
    for e in errors.iter().take(10) {
        eprintln!("perfbench: {e}");
    }
    let correct = errors.is_empty() && served.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        served.attempted,
        served.failed,
        metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

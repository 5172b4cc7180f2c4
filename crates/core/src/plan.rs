//! Measured-cost adaptive planning: calibrate once, snapshot per query,
//! resolve a [`Plan`], execute it.
//!
//! The paper's §6.5 cost model shows where SUPG's time and money go —
//! oracle calls ≫ proxy ≫ query processing — but the execution knobs
//! that steer those costs (`RuntimeConfig` parallelism/batching, the
//! [`SamplerStrategy`] backend, the chunk counts of rank/alias/segment
//! builds) were hand-tuned defaults. This module replaces guessing with
//! a *measure-then-pick* loop:
//!
//! 1. **Calibrate once per process** ([`CalibrationProfile::measured`],
//!    cached in a `OnceLock`): count the effective cores and time the
//!    packed-key sort serial vs. chunked at that core count — the one
//!    measurement a planner rule ([`planned_chunks`]) reads.
//! 2. **Snapshot per query** ([`PlanSignals`]): dataset size and layout
//!    (flat vs. segmented), the artifact-cache state for the query's
//!    weight recipe ([`RecipeState`]), the caller's pinned knobs, and an
//!    EWMA of observed per-call oracle latency kept by the [`Planner`]
//!    across queries.
//! 3. **Resolve** ([`Plan::resolve`]): a *pure function* of the snapshot
//!    producing `Plan { parallelism, batch_size, sampler, chunks,
//!    rationale }`. Purity is what makes planning testable — the same
//!    snapshot always yields the same plan (pinned by proptests in
//!    `crates/core/tests/planner_parity.rs`).
//!
//! # The serial floor
//!
//! The planner **never selects a configuration slower than serial**:
//! chunked builds are only chosen when the calibration *measured* them
//! faster than the serial build on this machine ([`planned_chunks`]).
//! On a single-core machine the chunk count is always 1.
//!
//! # Determinism
//!
//! A plan only ever changes *performance* knobs whose bit-neutrality is
//! already pinned elsewhere: parallelism and batch size never change a
//! [`QueryOutcome`] (the [`crate::runtime`] contract), and the resolved
//! sampler is a concrete backend, so a planned query is bit-identical to
//! a hand-tuned query run at the same resolved configuration. The only
//! nondeterministic inputs (the clock behind the calibration and the
//! latency EWMA) steer *which* configuration runs, never what it
//! computes.
//!
//! # Fan-out only when it pays
//!
//! Oracle labeling fans out over worker threads only when a batch costs
//! more than the handoff. With no latency history the runtime defaults
//! to one worker per effective core. Once the latency EWMA is known, an
//! oracle so cheap that a 256-record (`FAST_ORACLE_BATCH`) batch takes
//! less than one measured fan-out (`FAN_OUT_NS`, about 100 µs) labels on
//! the calling thread (`parallelism = 1`); a throughput-bound oracle gets
//! one worker per core and large batches; a latency-bound one (at least
//! `SLOW_ORACLE_NS`, 100 µs per call) oversubscribes with fine batches.
//! A caller's pinned runtime always wins.
//!
//! # Reading a plan
//!
//! Every planned [`QueryOutcome`] carries its plan as a debug report:
//! each [`Decision`] pairs the choice with the measured input that drove
//! it. [`Plan::report`] renders the rationale as one line per decision.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::prepared::{RecipeState, SamplerStrategy};
use crate::rank::RankIndex;
use crate::runtime::{self, RuntimeConfig, DEFAULT_BATCH_SIZE, MIN_PARALLEL_INPUT};
use crate::session::QueryOutcome;

/// Input size of the one-time calibration probe — large enough to sit
/// above [`MIN_PARALLEL_INPUT`] (so the chunked arm exercises the real
/// dispatch path), small enough that calibration costs milliseconds.
const PROBE_KEYS: usize = MIN_PARALLEL_INPUT * 2;

/// Per-call latency (ns, EWMA) above which an oracle is treated as
/// latency-bound: workers mostly wait, so oversubscribing the core count
/// and shrinking batches improves load balance without contention.
const SLOW_ORACLE_NS: f64 = 100_000.0;

/// Worker multiplier for latency-bound oracles.
const OVERSUBSCRIBE: usize = 4;

/// Batch size for latency-bound oracles (fine batches balance better
/// when each call is expensive).
const SLOW_ORACLE_BATCH: usize = 16;

/// Batch size for throughput-bound oracles (large batches amortize
/// dispatch when each call is cheap).
const FAST_ORACLE_BATCH: usize = 256;

/// Wall-clock cost (ns) of one [`runtime::parallel_map`] fan-out: the
/// threshold below which a [`FAST_ORACLE_BATCH`]-sized batch is cheaper
/// to label on the calling thread than to hand to workers. Measured on a
/// 2-vCPU VM with a `Vec<bool>` lookup as the work and batches of 256
/// (p50 of 400 calls): 1,000 items took 1.5 µs sequentially and 55 µs at
/// parallelism 2; 110k items took 160 µs sequentially and 260 µs at
/// parallelism 2. The thread handoff alone costs 50–100 µs.
const FAN_OUT_NS: f64 = 100_000.0;

/// EWMA smoothing factor for the observed oracle latency.
const EWMA_ALPHA: f64 = 0.3;

/// The one-time per-process calibration: the effective core count and the
/// measured serial vs. chunked rank-sort cost, cached in a `OnceLock` on
/// first use ([`CalibrationProfile::measured`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationProfile {
    /// Cores the OS actually grants this process — the
    /// [`runtime::effective_cores`] clamp every chunked build respects.
    pub effective_cores: usize,
    /// ns/key of the serial packed-key rank sort at the probe size.
    pub sort_serial_ns_per_key: f64,
    /// ns/key of the chunked sort + merge at `effective_cores` chunks
    /// (equals the serial cost when only one core is available).
    pub sort_chunked_ns_per_key: f64,
}

impl CalibrationProfile {
    /// The process-wide measured profile. The microbenchmark runs once
    /// on first call (a few milliseconds) and is cached for the process
    /// lifetime; every later call is a static borrow.
    pub fn measured() -> &'static CalibrationProfile {
        static CAL: OnceLock<CalibrationProfile> = OnceLock::new();
        CAL.get_or_init(Self::microbench)
    }

    fn microbench() -> CalibrationProfile {
        let cores = runtime::effective_cores();
        let scores: Vec<f64> = (0..PROBE_KEYS)
            .map(|i| runtime::split_unit(0xCA11_B7A7, i as u64))
            .collect();
        let serial_ns = median_ns(3, || {
            black_box(RankIndex::build_serial(&scores));
        });
        let chunked_ns = if cores > 1 {
            median_ns(3, || {
                black_box(RankIndex::build_chunked(&scores, cores));
            })
        } else {
            serial_ns
        };
        CalibrationProfile {
            effective_cores: cores,
            sort_serial_ns_per_key: serial_ns as f64 / PROBE_KEYS as f64,
            sort_chunked_ns_per_key: chunked_ns as f64 / PROBE_KEYS as f64,
        }
    }

    /// Measured serial/chunked sort ratio: > 1.0 means chunked builds
    /// actually paid off on this machine.
    pub fn chunked_sort_speedup(&self) -> f64 {
        if self.sort_chunked_ns_per_key <= 0.0 {
            return 1.0;
        }
        self.sort_serial_ns_per_key / self.sort_chunked_ns_per_key
    }

    /// A synthetic profile for tests: the core count and
    /// `chunked_sort_speedup` are set directly. Lets planner tests
    /// exercise multi-core decisions on any machine without timing
    /// anything.
    pub fn synthetic(effective_cores: usize, chunked_sort_speedup: f64) -> Self {
        let serial = 10.0;
        CalibrationProfile {
            effective_cores: effective_cores.max(1),
            sort_serial_ns_per_key: serial,
            sort_chunked_ns_per_key: serial / chunked_sort_speedup.max(f64::MIN_POSITIVE),
        }
    }
}

/// The build chunk count the serial-floor invariant allows for an
/// `n`-record build under `cal`: the effective core count when the
/// calibration measured chunked sorting faster than serial *and* the
/// input is large enough to dispatch at all — otherwise 1 (serial).
pub fn planned_chunks(n: usize, cal: &CalibrationProfile) -> usize {
    if n >= MIN_PARALLEL_INPUT && cal.effective_cores > 1 && cal.chunked_sort_speedup() >= 1.0 {
        cal.effective_cores
    } else {
        1
    }
}

/// Per-dataset planning policy — how `supg-serve` pins or restricts
/// what the planner may resolve (the "overrides win" knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanPolicy {
    /// Force this sampler backend regardless of what the query asked
    /// for or what the cache state suggests.
    pub pin_sampler: Option<SamplerStrategy>,
    /// Never resolve the CDF backend (applied after pinning — a
    /// guardrail for tenants that require the alias RNG stream).
    pub forbid_cdf: bool,
}

/// Everything a plan is a function of — one immutable snapshot of the
/// measured signals taken just before execution. Two identical
/// snapshots always resolve to the same [`Plan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanSignals {
    /// Records in the corpus.
    pub n: usize,
    /// Segment count (0 = flat layout).
    pub segments: usize,
    /// Whether an artifact cache backs this query (prepared/shared
    /// sessions).
    pub prepared: bool,
    /// Cache state of the query's weight recipe (always
    /// [`RecipeState::Cold`] for cold views — there is no cache).
    pub recipe: RecipeState,
    /// The sampler the caller asked for (`Auto` delegates to the
    /// planner; anything else is a caller pin).
    pub requested_sampler: SamplerStrategy,
    /// The runtime the caller pinned, if any (honored verbatim).
    pub pinned_runtime: Option<RuntimeConfig>,
    /// EWMA of observed per-call oracle latency in ns (`None` until the
    /// planner has seen an outcome for this oracle).
    pub oracle_ns_per_call: Option<f64>,
    /// Measured effective core count.
    pub effective_cores: usize,
    /// Measured serial/chunked sort ratio from the calibration.
    pub chunked_sort_speedup: f64,
    /// The serving-layer policy in force.
    pub policy: PlanPolicy,
}

/// One resolved choice and the measured input that drove it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// What was picked, e.g. `"sampler=cdf"`.
    pub choice: String,
    /// Which measured signal made the call, e.g. a throughput or a
    /// cache state.
    pub because: String,
}

/// The resolved execution configuration — what the session actually
/// runs — plus the rationale trail. Attached to every planned
/// [`QueryOutcome`] as a debug report.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Worker-pool width for batched oracle labeling.
    pub parallelism: usize,
    /// Records per batched oracle request.
    pub batch_size: usize,
    /// The concrete sampler backend (never
    /// [`SamplerStrategy::Auto`] — resolution is the planner's job).
    pub sampler: SamplerStrategy,
    /// Chunk count for this corpus's builds (1 = serial; > 1 only when
    /// the calibration measured chunking faster). A report: the builds
    /// take the same count from [`planned_chunks`].
    pub chunks: usize,
    /// One [`Decision`] per resolved knob, in resolution order.
    pub rationale: Vec<Decision>,
}

impl Plan {
    /// Resolves a snapshot into a plan. Pure: no clocks, no caches, no
    /// globals — the same `signals` always produce the same plan.
    pub fn resolve(signals: &PlanSignals) -> Plan {
        let mut rationale = Vec::new();
        let sampler = resolve_sampler(signals, &mut rationale);
        let (parallelism, batch_size) = resolve_runtime(signals, &mut rationale);
        let chunks = resolve_chunks(signals, &mut rationale);
        Plan {
            parallelism,
            batch_size,
            sampler,
            chunks,
            rationale,
        }
    }

    /// The plan's oracle-facing knobs as a [`RuntimeConfig`].
    pub fn runtime(&self) -> RuntimeConfig {
        RuntimeConfig::default()
            .with_parallelism(self.parallelism)
            .with_batch_size(self.batch_size)
    }

    /// Renders the rationale as one `choice — because` line per
    /// decision (the human-readable form of the debug report).
    pub fn report(&self) -> String {
        let mut out = String::new();
        for d in &self.rationale {
            out.push_str(&d.choice);
            out.push_str(" — ");
            out.push_str(&d.because);
            out.push('\n');
        }
        out
    }
}

/// The one rule that turns [`SamplerStrategy::Auto`] into a backend, from
/// the cache state of the query's weight recipe: a cold recipe pays the
/// cheapest measured build (the CDF scan, cached from first sight), and a
/// recurring one — CDF or alias already cached — draws through the cached
/// O(1)-draw alias table. [`Plan::resolve`] and
/// [`PreparedDataset::artifacts_with`](crate::prepared::PreparedDataset::artifacts_with)
/// both resolve `Auto` here, so planned and unplanned sessions keep the
/// same cache state.
pub(crate) fn auto_sampler(recipe: RecipeState) -> SamplerStrategy {
    match recipe {
        RecipeState::Cold => SamplerStrategy::Cdf,
        RecipeState::WarmCdf | RecipeState::WarmAlias => SamplerStrategy::Alias,
    }
}

fn resolve_sampler(s: &PlanSignals, rationale: &mut Vec<Decision>) -> SamplerStrategy {
    let mut sampler = if let Some(pin) =
        s.policy.pin_sampler.filter(|p| *p != SamplerStrategy::Auto)
    {
        rationale.push(Decision {
            choice: format!("sampler={}", strategy_name(pin)),
            because: "pinned by server override".to_owned(),
        });
        pin
    } else if s.requested_sampler != SamplerStrategy::Auto {
        rationale.push(Decision {
            choice: format!("sampler={}", strategy_name(s.requested_sampler)),
            because: "pinned by caller".to_owned(),
        });
        s.requested_sampler
    } else {
        // A cold view has no cache, so every recipe it serves is cold.
        let recipe = if s.prepared {
            s.recipe
        } else {
            RecipeState::Cold
        };
        let because = match (s.prepared, recipe) {
            (false, _) => "cold view: no artifact cache, so every build is one-shot",
            (true, RecipeState::Cold) => "cold recipe: cache the cheapest measured build first",
            (true, RecipeState::WarmCdf) => {
                "recipe recurring (CDF cached from first sight); promote to alias \
                 — O(1) draws beat per-draw CDF binary search once warm"
            }
            (true, RecipeState::WarmAlias) => "alias artifacts cached for this recipe (warm hit)",
        };
        let sampler = auto_sampler(recipe);
        rationale.push(Decision {
            choice: format!("sampler={}", strategy_name(sampler)),
            because: because.to_owned(),
        });
        sampler
    };
    if s.policy.forbid_cdf && sampler == SamplerStrategy::Cdf {
        rationale.push(Decision {
            choice: "sampler=alias".to_owned(),
            because: "CDF forbidden by server policy".to_owned(),
        });
        sampler = SamplerStrategy::Alias;
    }
    sampler
}

fn resolve_runtime(s: &PlanSignals, rationale: &mut Vec<Decision>) -> (usize, usize) {
    if let Some(rt) = s.pinned_runtime {
        rationale.push(Decision {
            choice: format!(
                "parallelism={} batch_size={}",
                rt.parallelism, rt.batch_size
            ),
            because: "runtime pinned by caller".to_owned(),
        });
        return (rt.parallelism.max(1), rt.batch_size.max(1));
    }
    let cores = s.effective_cores.max(1);
    match s.oracle_ns_per_call {
        None => {
            rationale.push(Decision {
                choice: format!("parallelism={cores} batch_size={DEFAULT_BATCH_SIZE}"),
                because: "no oracle latency history; defaults at effective cores".to_owned(),
            });
            (cores, DEFAULT_BATCH_SIZE)
        }
        Some(ns) if ns >= SLOW_ORACLE_NS => {
            let workers = cores.saturating_mul(OVERSUBSCRIBE).max(1);
            rationale.push(Decision {
                choice: format!("parallelism={workers} batch_size={SLOW_ORACLE_BATCH}"),
                because: format!(
                    "oracle EWMA {ns:.0} ns/call ≥ {SLOW_ORACLE_NS:.0} — latency-bound: \
                     oversubscribe {OVERSUBSCRIBE}x, fine batches"
                ),
            });
            (workers, SLOW_ORACLE_BATCH)
        }
        Some(ns) if ns * (FAST_ORACLE_BATCH as f64) < FAN_OUT_NS => {
            rationale.push(Decision {
                choice: format!("parallelism=1 batch_size={FAST_ORACLE_BATCH}"),
                because: format!(
                    "oracle EWMA {ns:.0} ns/call — a {FAST_ORACLE_BATCH}-record batch costs \
                     less than one thread fan-out ({FAN_OUT_NS:.0} ns): label on the calling \
                     thread"
                ),
            });
            (1, FAST_ORACLE_BATCH)
        }
        Some(ns) => {
            rationale.push(Decision {
                choice: format!("parallelism={cores} batch_size={FAST_ORACLE_BATCH}"),
                because: format!(
                    "oracle EWMA {ns:.0} ns/call — throughput-bound: one worker per core, \
                     large batches"
                ),
            });
            (cores, FAST_ORACLE_BATCH)
        }
    }
}

fn resolve_chunks(s: &PlanSignals, rationale: &mut Vec<Decision>) -> usize {
    let layout = if s.segments > 0 {
        format!("segmented x{}", s.segments)
    } else {
        "flat".to_owned()
    };
    if s.n < MIN_PARALLEL_INPUT {
        rationale.push(Decision {
            choice: "chunks=1".to_owned(),
            because: format!(
                "{layout}: n={} below the parallel threshold {MIN_PARALLEL_INPUT}",
                s.n
            ),
        });
        1
    } else if s.effective_cores <= 1 {
        rationale.push(Decision {
            choice: "chunks=1".to_owned(),
            because: format!("{layout}: one effective core — serial floor"),
        });
        1
    } else if s.chunked_sort_speedup < 1.0 {
        rationale.push(Decision {
            choice: "chunks=1".to_owned(),
            because: format!(
                "{layout}: measured chunked sort speedup {:.2}x < 1.0 — serial floor",
                s.chunked_sort_speedup
            ),
        });
        1
    } else {
        let chunks = s.effective_cores;
        rationale.push(Decision {
            choice: format!("chunks={chunks}"),
            because: format!(
                "{layout}: chunked builds measured {:.2}x faster at {chunks} cores",
                s.chunked_sort_speedup
            ),
        });
        chunks
    }
}

fn strategy_name(s: SamplerStrategy) -> &'static str {
    match s {
        SamplerStrategy::Alias => "alias",
        SamplerStrategy::Cdf => "cdf",
        SamplerStrategy::Auto => "auto",
    }
}

/// Aggregated planning decisions — what `supg-serve` surfaces per
/// dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Queries that ran through the planner.
    pub planned: u64,
    /// Plans that resolved the alias backend.
    pub resolved_alias: u64,
    /// Plans that resolved the CDF backend.
    pub resolved_cdf: u64,
    /// Plans whose sampler was pinned (by the caller or a server
    /// override) rather than adaptively resolved.
    pub pinned: u64,
}

/// The long-lived planning state for one oracle: the per-call latency
/// EWMA persisted across queries, the serving policy, and the decision
/// counters. Attach one to a session with
/// [`SupgSession::planned`](crate::session::SupgSession::planned); the
/// session snapshots signals, resolves the plan, executes it, and feeds
/// the outcome back via [`observe`](Planner::observe).
///
/// All state is atomic — one `Planner` can serve concurrent sessions.
#[derive(Debug, Default)]
pub struct Planner {
    policy: PlanPolicy,
    /// f64 bits of the EWMA; 0 = no observation yet.
    ewma_bits: AtomicU64,
    planned: AtomicU64,
    resolved_alias: AtomicU64,
    resolved_cdf: AtomicU64,
    pinned: AtomicU64,
}

impl Planner {
    /// A planner with the default (fully adaptive) policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// A planner whose resolutions are constrained by `policy`.
    pub fn with_policy(policy: PlanPolicy) -> Self {
        Planner {
            policy,
            ..Self::default()
        }
    }

    /// The policy this planner enforces.
    pub fn policy(&self) -> PlanPolicy {
        self.policy
    }

    /// The current per-call oracle latency EWMA in ns (`None` until the
    /// first observation).
    pub fn oracle_ns_per_call(&self) -> Option<f64> {
        let bits = self.ewma_bits.load(Ordering::Relaxed);
        (bits != 0).then(|| f64::from_bits(bits))
    }

    /// Feeds one finished query back into the latency EWMA, from the
    /// outcome's *oracle-time* accounting
    /// (`oracle_elapsed / oracle_calls`). Whole-query `elapsed` would be
    /// wrong here: it includes the threshold sweep, artifact builds and
    /// result materialization, all of which scale with the corpus — a
    /// µs-oracle query over 10⁷ records would average out past
    /// the slow-oracle threshold and flip the plan to the latency-bound
    /// branch.
    /// Only wall-clock spent inside `label_batch` counts. Sessions with
    /// an attached planner call this automatically; queries that never
    /// reached the oracle (or whose labeling time was immeasurably
    /// small) leave the EWMA untouched.
    pub fn observe<R>(&self, outcome: &QueryOutcome<R>) {
        if outcome.oracle_calls == 0 || outcome.oracle_elapsed.is_zero() {
            return;
        }
        self.observe_ns_per_call(
            outcome.oracle_elapsed.as_nanos() as f64 / outcome.oracle_calls as f64,
        );
    }

    /// Merges one per-call latency sample (ns) into the EWMA.
    pub fn observe_ns_per_call(&self, per_call: f64) {
        if !per_call.is_finite() || per_call <= 0.0 {
            return;
        }
        let mut cur = self.ewma_bits.load(Ordering::Relaxed);
        loop {
            let next = if cur == 0 {
                per_call
            } else {
                (1.0 - EWMA_ALPHA) * f64::from_bits(cur) + EWMA_ALPHA * per_call
            };
            match self.ewma_bits.compare_exchange_weak(
                cur,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Records one resolution in the aggregated counters.
    pub(crate) fn note(&self, signals: &PlanSignals, plan: &Plan) {
        self.planned.fetch_add(1, Ordering::Relaxed);
        match plan.sampler {
            SamplerStrategy::Alias => self.resolved_alias.fetch_add(1, Ordering::Relaxed),
            SamplerStrategy::Cdf => self.resolved_cdf.fetch_add(1, Ordering::Relaxed),
            SamplerStrategy::Auto => 0, // unreachable: resolution is always concrete
        };
        let was_pinned = signals.policy.pin_sampler.is_some()
            || signals.requested_sampler != SamplerStrategy::Auto;
        if was_pinned {
            self.pinned.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A snapshot of the aggregated decision counters.
    pub fn stats(&self) -> PlanStats {
        PlanStats {
            planned: self.planned.load(Ordering::Relaxed),
            resolved_alias: self.resolved_alias.load(Ordering::Relaxed),
            resolved_cdf: self.resolved_cdf.load(Ordering::Relaxed),
            pinned: self.pinned.load(Ordering::Relaxed),
        }
    }
}

fn median_ns(iters: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..iters.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A synthetic finished-query outcome with explicit accounting — the
    /// shape `observe` consumes, without running a real 10⁷-record query
    /// in a unit test.
    fn outcome_with(
        oracle_calls: usize,
        elapsed: Duration,
        oracle_elapsed: Duration,
        n_records: usize,
    ) -> QueryOutcome<()> {
        QueryOutcome {
            result: (),
            tau: 0.5,
            selector: "IS-CI-R",
            oracle_calls,
            stage_calls: oracle_calls,
            filter_calls: 0,
            sample_draws: oracle_calls,
            sample_positives: 0,
            candidates: 0,
            joint: false,
            elapsed,
            cache_hits: 0,
            cache_misses: 0,
            stage_elapsed: elapsed,
            filter_elapsed: Duration::ZERO,
            oracle_elapsed,
            oracle_retries: 0,
            oracle_failures: 0,
            retry_backoff: Duration::ZERO,
            n_records,
            plan: None,
        }
    }

    fn base_signals() -> PlanSignals {
        PlanSignals {
            n: 100_000,
            segments: 0,
            prepared: true,
            recipe: RecipeState::Cold,
            requested_sampler: SamplerStrategy::Auto,
            pinned_runtime: None,
            oracle_ns_per_call: None,
            effective_cores: 4,
            chunked_sort_speedup: 2.0,
            policy: PlanPolicy::default(),
        }
    }

    #[test]
    fn resolution_is_a_pure_function_of_the_snapshot() {
        let s = base_signals();
        assert_eq!(Plan::resolve(&s), Plan::resolve(&s));
    }

    #[test]
    fn auto_promotes_cold_to_warm_like_the_auto_strategy() {
        let mut s = base_signals();
        assert_eq!(Plan::resolve(&s).sampler, SamplerStrategy::Cdf);
        s.recipe = RecipeState::WarmAlias;
        assert_eq!(Plan::resolve(&s).sampler, SamplerStrategy::Alias);
        s.recipe = RecipeState::WarmCdf;
        assert_eq!(Plan::resolve(&s).sampler, SamplerStrategy::Alias);
    }

    #[test]
    fn caller_pin_beats_adaptivity_and_override_beats_caller() {
        let mut s = base_signals();
        s.requested_sampler = SamplerStrategy::Alias;
        assert_eq!(Plan::resolve(&s).sampler, SamplerStrategy::Alias);
        s.policy.pin_sampler = Some(SamplerStrategy::Cdf);
        assert_eq!(Plan::resolve(&s).sampler, SamplerStrategy::Cdf);
        s.policy.forbid_cdf = true;
        assert_eq!(Plan::resolve(&s).sampler, SamplerStrategy::Alias);
    }

    #[test]
    fn serial_floor_vetoes_unprofitable_chunking() {
        let mut s = base_signals();
        s.chunked_sort_speedup = 0.79;
        assert_eq!(Plan::resolve(&s).chunks, 1);
        s.chunked_sort_speedup = 2.0;
        s.effective_cores = 1;
        assert_eq!(Plan::resolve(&s).chunks, 1);
        s.effective_cores = 4;
        s.n = 100;
        assert_eq!(Plan::resolve(&s).chunks, 1);
        s.n = 100_000;
        assert_eq!(Plan::resolve(&s).chunks, 4);
    }

    #[test]
    fn oracle_latency_drives_batching() {
        let mut s = base_signals();
        let defaults = Plan::resolve(&s);
        assert_eq!(defaults.batch_size, DEFAULT_BATCH_SIZE);
        assert_eq!(defaults.parallelism, 4);
        s.oracle_ns_per_call = Some(1_000_000.0);
        let slow = Plan::resolve(&s);
        assert_eq!(slow.batch_size, SLOW_ORACLE_BATCH);
        assert_eq!(slow.parallelism, 16);
        s.oracle_ns_per_call = Some(500.0);
        let fast = Plan::resolve(&s);
        assert_eq!(fast.batch_size, FAST_ORACLE_BATCH);
        assert_eq!(fast.parallelism, 4);
    }

    #[test]
    fn batches_cheaper_than_a_fan_out_label_on_the_calling_thread() {
        let mut s = base_signals();
        // 40 ns/call × 256 ≈ 10 µs per batch, far below one fan-out.
        s.oracle_ns_per_call = Some(40.0);
        let plan = Plan::resolve(&s);
        assert_eq!(plan.parallelism, 1);
        assert_eq!(plan.batch_size, FAST_ORACLE_BATCH);
        assert!(plan
            .rationale
            .iter()
            .any(|d| d.choice.starts_with("parallelism=1") && d.because.contains("EWMA 40 ns")));
        // Just above the crossover the batch pays for the threads.
        s.oracle_ns_per_call = Some(FAN_OUT_NS / FAST_ORACLE_BATCH as f64 + 1.0);
        assert_eq!(Plan::resolve(&s).parallelism, 4);
        // No history still fans out, and a pinned runtime still wins.
        s.oracle_ns_per_call = None;
        assert_eq!(Plan::resolve(&s).parallelism, 4);
        s.oracle_ns_per_call = Some(40.0);
        s.pinned_runtime = Some(RuntimeConfig::default().with_parallelism(3));
        assert_eq!(Plan::resolve(&s).parallelism, 3);
    }

    #[test]
    fn pinned_runtime_is_honored_verbatim() {
        let mut s = base_signals();
        s.pinned_runtime = Some(
            RuntimeConfig::default()
                .with_parallelism(7)
                .with_batch_size(33),
        );
        let plan = Plan::resolve(&s);
        assert_eq!(plan.parallelism, 7);
        assert_eq!(plan.batch_size, 33);
        assert!(plan
            .rationale
            .iter()
            .any(|d| d.because.contains("pinned by caller")));
    }

    #[test]
    fn ewma_converges_toward_observations() {
        let planner = Planner::new();
        assert_eq!(planner.oracle_ns_per_call(), None);
        planner.observe_ns_per_call(1000.0);
        assert_eq!(planner.oracle_ns_per_call(), Some(1000.0));
        for _ in 0..50 {
            planner.observe_ns_per_call(2000.0);
        }
        let ewma = planner.oracle_ns_per_call().unwrap();
        assert!(
            (ewma - 2000.0).abs() < 1.0,
            "EWMA {ewma} should approach 2000"
        );
    }

    #[test]
    fn fast_oracle_on_huge_corpus_stays_throughput_bound() {
        // Regression for the latency-accounting bug: a µs-oracle query
        // over a 10⁷-record corpus spends ~10 s in threshold sweep,
        // artifact builds and materialization but only 1 ms inside the
        // oracle. Seeding the EWMA from whole-query `elapsed` (the old
        // accounting) averages 10⁷ ns/call — past SLOW_ORACLE_NS — and
        // flips the plan to the latency-bound branch; the oracle-time
        // accounting keeps it throughput-bound where it belongs.
        let outcome = outcome_with(
            1_000,
            Duration::from_secs(10),
            Duration::from_millis(1),
            10_000_000,
        );
        let planner = Planner::new();
        planner.observe(&outcome);
        let ewma = planner.oracle_ns_per_call().expect("EWMA seeded");
        assert!(
            ewma < SLOW_ORACLE_NS,
            "EWMA {ewma} ns/call must stay below the latency-bound cutoff \
             {SLOW_ORACLE_NS} — whole-query time leaked into the oracle accounting"
        );
        let mut s = base_signals();
        s.oracle_ns_per_call = planner.oracle_ns_per_call();
        let plan = Plan::resolve(&s);
        assert_eq!(
            plan.batch_size, FAST_ORACLE_BATCH,
            "throughput-bound batches"
        );
        assert_eq!(plan.parallelism, s.effective_cores, "no oversubscription");
    }

    #[test]
    fn observe_skips_queries_without_oracle_accounting() {
        let planner = Planner::new();
        // No oracle calls at all: nothing to average.
        planner.observe(&outcome_with(
            0,
            Duration::from_secs(1),
            Duration::ZERO,
            1_000,
        ));
        assert_eq!(planner.oracle_ns_per_call(), None);
        // Calls but immeasurably small labeling time: a zero sample must
        // not poison the EWMA (and must not divide into a bogus 0).
        planner.observe(&outcome_with(
            100,
            Duration::from_secs(1),
            Duration::ZERO,
            1_000,
        ));
        assert_eq!(planner.oracle_ns_per_call(), None);
    }

    #[test]
    fn non_finite_and_non_positive_samples_are_rejected() {
        let planner = Planner::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -5.0] {
            planner.observe_ns_per_call(bad);
            assert_eq!(planner.oracle_ns_per_call(), None, "{bad} accepted");
        }
        planner.observe_ns_per_call(500.0);
        assert_eq!(planner.oracle_ns_per_call(), Some(500.0));
        for bad in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
            planner.observe_ns_per_call(bad);
            assert_eq!(
                planner.oracle_ns_per_call(),
                Some(500.0),
                "{bad} perturbed a seeded EWMA"
            );
        }
    }

    #[test]
    fn racing_observers_converge_without_losing_the_cas_loop() {
        use std::sync::Arc;
        // All writers observe the same power-of-two value: the first
        // observation seeds the EWMA to exactly v, and the update
        // (1-α)·v + α·v is bit-exact at a power of two (both products
        // are exact scalings and fl(0.7)+fl(0.3) rounds to 1.0), so
        // under ANY interleaving the final EWMA must be exactly v —
        // anything else means the CAS loop lost or mangled an update.
        let planner = Arc::new(Planner::new());
        let v = 1024.0;
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let planner = Arc::clone(&planner);
                scope.spawn(move || {
                    for _ in 0..2_000 {
                        planner.observe_ns_per_call(v);
                    }
                });
            }
        });
        assert_eq!(planner.oracle_ns_per_call(), Some(v));

        // Mixed values under racing writers: order-dependent, but the
        // EWMA is a convex combination of observations, so it must land
        // strictly inside [min, max].
        let planner = Arc::new(Planner::new());
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let planner = Arc::clone(&planner);
                scope.spawn(move || {
                    let v = if t % 2 == 0 { 1_000.0 } else { 3_000.0 };
                    for _ in 0..2_000 {
                        planner.observe_ns_per_call(v);
                    }
                });
            }
        });
        let ewma = planner.oracle_ns_per_call().unwrap();
        assert!(
            (1_000.0..=3_000.0).contains(&ewma),
            "EWMA {ewma} escaped the observation range"
        );
    }

    #[test]
    fn planner_counters_aggregate_decisions() {
        let planner = Planner::new();
        let s = base_signals();
        let plan = Plan::resolve(&s);
        planner.note(&s, &plan);
        let mut pinned = s;
        pinned.requested_sampler = SamplerStrategy::Alias;
        let plan2 = Plan::resolve(&pinned);
        planner.note(&pinned, &plan2);
        let stats = planner.stats();
        assert_eq!(stats.planned, 2);
        assert_eq!(stats.resolved_cdf, 1);
        assert_eq!(stats.resolved_alias, 1);
        assert_eq!(stats.pinned, 1);
    }

    #[test]
    fn measured_profile_is_cached_and_sane() {
        let a = CalibrationProfile::measured();
        let b = CalibrationProfile::measured();
        assert!(std::ptr::eq(a, b));
        assert!(a.effective_cores >= 1);
        assert!(a.sort_serial_ns_per_key > 0.0);
        assert!(a.chunked_sort_speedup() > 0.0);
    }

    #[test]
    fn report_renders_one_line_per_decision() {
        let plan = Plan::resolve(&base_signals());
        let report = plan.report();
        assert_eq!(report.trim().lines().count(), plan.rationale.len());
        assert!(report.contains("sampler="));
        assert!(report.contains("chunks="));
    }
}

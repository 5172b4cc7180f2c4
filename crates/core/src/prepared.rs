//! Shared prepared-dataset artifacts for high-throughput serving.
//!
//! The SUPG sampling stage has per-dataset preprocessing that is
//! independent of any single query: the global
//! [`RankIndex`](crate::rank::RankIndex) is an
//! O(n log n) sort, building [`ImportanceWeights`] is an O(n) pass over
//! every proxy score, and the O(1)-draw [`AliasTable`] is another O(n)
//! construction. A service answering many queries over the same corpus —
//! the production regime this workspace grows toward — must pay all of
//! that once per `(dataset, weight recipe)`, not once per query.
//!
//! [`PreparedDataset`] is that amortization layer: an `Arc`-shared
//! [`ScoredDataset`] (whose rank index every query serves `D(τ)` from)
//! plus a bounded, least-recently-used keyed cache of
//! `(weight_exponent, uniform_mix) → (ImportanceWeights, AliasTable)`
//! built on first use and reused by every subsequent query, from any
//! thread. Sessions accept it borrowed or as an `Arc` through
//! [`SupgSession::over`](crate::session::SupgSession::over); selectors
//! receive it through [`DataView`], which also covers the cold
//! (unprepared) path so one code path serves both, and every artifact —
//! cached or cold — comes from the one [`WeightArtifacts::build`].
//!
//! ## Parallel construction
//!
//! Cold-start latency matters too: the first query on a fresh corpus used
//! to pay the whole serial build. [`PreparedDataset::prepare`] constructs
//! the rank index on the [`crate::runtime`] worker pool (chunked key
//! sorts merged pairwise), and [`warm`](PreparedDataset::warm) builds the
//! weight artifacts with the `A(x)^p` transform and the alias-table feeds
//! — including Vose's small/large partition scan
//! ([`alias::feed_slice`]) — evaluated chunk-by-chunk on the same pool.
//! Every parallel step is either element-wise pure or a total-order
//! merge, and the one floating-point reduction (the weight normalizer
//! `Σ A^p`) stays serial — so prepared artifacts are **bit-identical** to
//! the cold serial build at every `parallelism` setting.
//!
//! ## The cold-start sampler fallback
//!
//! Even fully parallel, the alias table is the most expensive sampling
//! artifact; a truly one-shot query does not need O(1) draws at all.
//! [`SamplerStrategy`] picks the backend per query: `Alias` (the
//! default, preserving every bit-parity contract), `Cdf` (always the
//! single-pass [`CdfSampler`] build), or `Auto`, which the planner's one
//! rule resolves from the recipe's cache state: CDF while the recipe is
//! cold (and the CDF artifacts are cached from that first sight), the
//! cached alias table once it recurs. The strategy rides on
//! [`SelectorConfig::sampler`](crate::selectors::SelectorConfig) and is
//! surfaced as `SupgSession::sampler_strategy(..)`.
//!
//! ## Cache bounds
//!
//! Recipes are few in steady state, but per-tenant recipes can
//! proliferate; the cache therefore holds at most
//! [`cache_capacity`](PreparedDataset::cache_capacity) entries (default
//! [`DEFAULT_CACHE_CAPACITY`], configurable via
//! [`set_cache_capacity`](PreparedDataset::set_cache_capacity)) and
//! evicts the least-recently-served recipe. Eviction only drops the
//! cache's own `Arc` — sessions holding an evicted artifact keep using it
//! safely.
//!
//! Sharing is by `Arc`, and the cache map sits behind a reader-writer
//! lock: a **warm lookup takes only the shared read lock** (recency is
//! stamped through an atomic, not a map mutation), so any number of
//! concurrent sessions serve cached artifacts without ever serializing —
//! the hot-swap read path of production proxy selectors. Only a cold
//! recipe's *insertion* takes the write lock, and artifact *construction*
//! still happens outside every lock, so sessions warming different
//! recipes never serialize behind each other's O(n) builds either.
//! [`cache_stats`](PreparedDataset::cache_stats) exposes lifetime
//! hit/miss/eviction counters for the serving layer's observability.
//!
//! Determinism: a prepared session runs the exact same artifact objects a
//! cold session would build fresh, so prepared and cold executions of the
//! same seeded query produce identical
//! [`QueryOutcome`](crate::session::QueryOutcome)s (enforced by
//! `crates/core/tests/prepared_parity.rs`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use supg_sampling::segmented::{normalize_powered_chunk, segment_cumulative, segment_total};
use supg_sampling::weights::validate_scores;
use supg_sampling::{
    alias, apply_exponent, AliasTable, CdfSampler, ImportanceWeights, SegmentedAlias, SegmentedCdf,
    SegmentedWeights, WeightedSampler,
};

use crate::data::ScoredDataset;
use crate::error::SupgError;
use crate::plan::auto_sampler;
use crate::runtime::{self, RuntimeConfig};
use crate::segment::{Corpus, SegmentedDataset};
use crate::selectors::SelectorConfig;

/// Default bound on cached weight recipes per dataset — generous (a
/// serving deployment uses a handful), but a bound, so per-tenant recipe
/// churn cannot grow memory without limit.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// Which weighted-sampler backend serves a query's importance draws.
///
/// The alias table draws in O(1) but its construction runs several O(n)
/// passes plus the Vose pairing loop; the CDF sampler draws in O(log n)
/// from a single O(n) prefix-sum build. For a **cold one-shot** query the
/// CDF build wins (a query draws `s ≈ 10³–10⁴ ≪ n` records, so draw cost
/// is negligible); for **repeated** queries the cached alias table wins.
///
/// **Seed-stream contract:** the two backends consume the session RNG
/// differently per draw (alias: one uniform index + one uniform float;
/// CDF: one uniform float), so switching strategies changes which records
/// a seeded query samples. Each *backend* is individually deterministic —
/// same data, seed and backend always reproduce the same
/// [`QueryOutcome`](crate::session::QueryOutcome); under `Auto` the
/// backend itself depends on the artifact-cache state ([`RecipeState`]:
/// a cold recipe draws through the CDF, a recurring one through the alias
/// table), so only `Alias` and `Cdf` are reproducible independent of
/// query history.
/// Every strategy carries the identical statistical guarantee (pinned by
/// `crates/core/tests/sampler_parity.rs` and the CDF configurations in
/// `crates/core/tests/guarantees.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SamplerStrategy {
    /// Always the O(1)-draw alias table (the default — preserves the
    /// bit-exact prepared ≡ cold parity contract at any parallelism).
    #[default]
    Alias,
    /// Always the O(log n)-draw CDF sampler (cheapest possible setup for
    /// every query; prepared sessions cache the CDF artifacts instead).
    Cdf,
    /// Resolved per request by the planner's one rule from the recipe's
    /// [`RecipeState`], planned or not: a cold recipe (and every request
    /// on a cold view) draws through the CDF, whose artifacts a prepared
    /// dataset caches at first sight; once the recipe recurs (or after
    /// [`PreparedDataset::warm`]) its alias table is built, cached and
    /// served. Trades the cold/warm bit-parity of
    /// [`Alias`](SamplerStrategy::Alias) for minimum time-to-first-result
    /// on fresh corpora.
    Auto,
}

/// Where a weight recipe stands in a [`PreparedDataset`]'s artifact
/// cache — the signal the planner's one rule resolves
/// [`SamplerStrategy::Auto`] from, for planned sessions and for unplanned
/// `Auto` requests alike. Obtained via [`PreparedDataset::recipe_state`],
/// a *pure peek*: unlike [`PreparedDataset::artifacts_with`] it never
/// builds anything and never counts a hit or miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecipeState {
    /// Nothing cached — any build will be paid from scratch.
    Cold,
    /// CDF artifacts are cached for this recipe.
    WarmCdf,
    /// The alias table is cached — the O(1)-draw steady state.
    WarmAlias,
}

/// The flat importance distribution: the validating scan, then the
/// element-wise `A(x)^p` transform in `runs` fixed contiguous chunks on the
/// worker pool (concatenated — bit-identical to one serial pass), then the
/// normalization ([`ImportanceWeights::from_powered`], whose normalizer
/// `Σ A^p` stays one serial reduction).
fn flat_weights(scores: &[f64], exponent: f64, uniform_mix: f64, runs: usize) -> ImportanceWeights {
    validate_scores(scores, exponent);
    let powered = if runs <= 1 || scores.len() < runtime::MIN_PARALLEL_INPUT {
        apply_exponent(scores, exponent)
    } else {
        let pieces = runtime::map_chunks(scores.len(), runs, |range| {
            apply_exponent(&scores[range], exponent)
        });
        let mut out = Vec::with_capacity(scores.len());
        for piece in pieces {
            out.extend_from_slice(&piece);
        }
        out
    };
    ImportanceWeights::from_powered(powered, uniform_mix)
}

/// The sampler a [`WeightArtifacts`] carries: the O(1)-draw alias table
/// or the cheap-to-build O(log n)-draw CDF fallback, each in its flat or
/// segmented (chunk-resident, never concatenated) form.
#[derive(Debug, Clone)]
enum SamplerBackend {
    Alias(AliasTable),
    Cdf(CdfSampler),
    SegAlias(SegmentedAlias),
    SegCdf(SegmentedCdf),
}

/// The importance distribution a [`WeightArtifacts`] carries: flat for
/// [`ScoredDataset`] corpora, per-segment chunks for [`SegmentedDataset`]
/// corpora. Per-index probabilities are bit-identical across the two
/// layouts (see [`supg_sampling::segmented`]), so which store backs a
/// query is unobservable in results.
#[derive(Debug, Clone)]
enum WeightStore {
    Flat(ImportanceWeights),
    Segmented(SegmentedWeights),
}

/// The per-`(dataset, weight recipe)` sampling artifacts: the normalized
/// importance distribution and a prebuilt weighted sampler over it — the
/// O(1)-draw alias table or the CDF fallback, chosen by the serving
/// layer's [`SamplerStrategy`], each in its flat or chunk-resident
/// segmented form. Built by [`build`](WeightArtifacts::build) for either
/// corpus layout.
#[derive(Debug, Clone)]
pub struct WeightArtifacts {
    weights: WeightStore,
    sampler: SamplerBackend,
}

impl WeightArtifacts {
    /// Builds one weight recipe's artifacts over a corpus — the one build
    /// for every layout × backend, shared by the prepared cache and cold
    /// views. `cdf` picks the backend: the O(log n)-draw [`CdfSampler`]
    /// (one serial prefix-sum pass — the cheapest setup for a cold
    /// one-shot query) or the O(1)-draw alias table.
    ///
    /// Every element-wise pass runs chunk-by-chunk on the `rt` worker
    /// pool ([`runtime::cpu_workers`]-clamped): the `A(x)^p` transform,
    /// the probability normalization and, for the alias table, the
    /// scaling *and* Vose's small/large partition scan
    /// ([`alias::feed_slice`]). Only the floating-point reductions (the
    /// normalizer `Σ A^p`, the CDF prefix sum) and the Vose pairing loop
    /// stay serial, so the artifacts are bit-identical at any
    /// `parallelism`.
    ///
    /// Segmented corpora build per segment, one pool job each, with the
    /// serial reductions walked in segment order (the flat left-to-right
    /// sum). Per-index probabilities, reweighting factors, alias tables
    /// and seeded alias draws are **bit-identical** to the flat build
    /// over the concatenated scores, at any segment size; segmented CDF
    /// cumulative values may differ from the flat [`CdfSampler`] in the
    /// final ulp near segment boundaries, so the bit-exact flat ≡
    /// segmented `QueryOutcome` contract rides on the default
    /// [`SamplerStrategy::Alias`].
    ///
    /// # Panics
    /// As [`ImportanceWeights::from_scores`] (negative exponent, uniform
    /// mix outside `[0, 1]`, zero total mass).
    pub fn build<'a>(
        corpus: impl Into<Corpus<'a>>,
        exponent: f64,
        uniform_mix: f64,
        cdf: bool,
        rt: &RuntimeConfig,
    ) -> Self {
        match corpus.into() {
            Corpus::Flat(data) => {
                let runs = runtime::cpu_workers(rt.parallelism);
                let weights = flat_weights(data.scores(), exponent, uniform_mix, runs);
                let sampler = if cdf {
                    SamplerBackend::Cdf(CdfSampler::new(weights.probs()))
                } else {
                    SamplerBackend::Alias(build_alias_pooled(&weights, runs))
                };
                Self {
                    weights: WeightStore::Flat(weights),
                    sampler,
                }
            }
            Corpus::Segmented(seg) => {
                let weights = build_segmented_weights(seg, exponent, uniform_mix, rt);
                let sampler = if cdf {
                    SamplerBackend::SegCdf(build_segmented_cdf(&weights, rt))
                } else {
                    SamplerBackend::SegAlias(build_segmented_alias(&weights, rt))
                };
                Self {
                    weights: WeightStore::Segmented(weights),
                    sampler,
                }
            }
        }
    }

    /// The flat alias build with an **explicit** chunk count, regardless
    /// of machine size — the deterministic core of
    /// [`build`](Self::build), exposed (like
    /// [`RankIndex::build_chunked`](crate::rank::RankIndex::build_chunked)) so the chunk-partitioned feed path
    /// stays testable even where `available_parallelism` would clamp it
    /// away. Bit-identical to the serial alias build for every `runs ≥ 1`.
    pub fn build_chunked(scores: &[f64], exponent: f64, uniform_mix: f64, runs: usize) -> Self {
        let runs = runs.max(1);
        let weights = flat_weights(scores, exponent, uniform_mix, runs);
        let sampler = build_alias_pooled(&weights, runs);
        Self {
            weights: WeightStore::Flat(weights),
            sampler: SamplerBackend::Alias(sampler),
        }
    }

    /// Sampling probability `w(x)` of record `i` (layout-independent).
    pub fn prob(&self, i: usize) -> f64 {
        match &self.weights {
            WeightStore::Flat(weights) => weights.prob(i),
            WeightStore::Segmented(weights) => weights.prob(i),
        }
    }

    /// Alias sampler over a subset of records, renormalizing lazily —
    /// the stage-2 table of the two-stage precision selector. Identical
    /// for flat and segmented artifacts of the same recipe (per-index
    /// probabilities are bit-identical).
    ///
    /// # Panics
    /// Panics if `subset` is empty, out of range, or carries zero mass.
    pub fn restricted_sampler(&self, subset: &[usize]) -> AliasTable {
        match &self.weights {
            WeightStore::Flat(weights) => weights.restricted_sampler(subset),
            WeightStore::Segmented(weights) => weights.restricted_sampler(subset),
        }
    }

    /// The prebuilt weighted sampler over the full dataset (alias table
    /// or CDF fallback, flat or segmented, per the build that produced
    /// these artifacts).
    pub fn sampler(&self) -> &dyn WeightedSampler {
        match &self.sampler {
            SamplerBackend::Alias(table) => table,
            SamplerBackend::Cdf(cdf) => cdf,
            SamplerBackend::SegAlias(table) => table,
            SamplerBackend::SegCdf(cdf) => cdf,
        }
    }

    /// The flat alias table, when these artifacts are backed by one
    /// (tests and benchmarks that compare table layouts structurally).
    pub fn alias_sampler(&self) -> Option<&AliasTable> {
        match &self.sampler {
            SamplerBackend::Alias(table) => Some(table),
            _ => None,
        }
    }

    /// True when draws go through a CDF fallback sampler (flat or
    /// segmented).
    pub fn draws_via_cdf(&self) -> bool {
        matches!(
            self.sampler,
            SamplerBackend::Cdf(_) | SamplerBackend::SegCdf(_)
        )
    }

    /// Reweighting factor `m(x) = u(x)/w(x)` of record `i`
    /// (layout-independent — bit-identical across flat and segmented
    /// artifacts of the same recipe).
    pub fn reweight_factor(&self, i: usize) -> f64 {
        match &self.weights {
            WeightStore::Flat(weights) => weights.reweight_factor(i),
            WeightStore::Segmented(weights) => weights.reweight_factor(i),
        }
    }
}

/// The per-segment worker pool used by the segmented artifact builds: one
/// job per segment, [`runtime::cpu_workers`]-clamped, batch size 1 so
/// segments spread across workers evenly.
fn segment_pool(rt: &RuntimeConfig) -> RuntimeConfig {
    RuntimeConfig::default()
        .with_parallelism(runtime::cpu_workers(rt.parallelism))
        .with_batch_size(1)
}

/// The segmented importance distribution: per-segment `A(x)^p` transform
/// and normalization on the worker pool, joined by the one serial
/// floating-point reduction (the normalizer `Σ A^p`, walked over segments
/// in order so it equals the flat left-to-right sum bit-for-bit).
fn build_segmented_weights(
    seg: &SegmentedDataset,
    exponent: f64,
    uniform_mix: f64,
    rt: &RuntimeConfig,
) -> SegmentedWeights {
    let pool = segment_pool(rt);
    let powered: Vec<Vec<f64>> = runtime::parallel_map(&pool, seg.segments(), |s| {
        validate_scores(s.scores(), exponent);
        apply_exponent(s.scores(), exponent)
    });
    let mut total = 0.0f64;
    for chunk in &powered {
        for &p in chunk {
            total += p;
        }
    }
    let n = seg.len();
    let normalized = runtime::parallel_map(&pool, &powered, |chunk| {
        let mut out = chunk.clone();
        normalize_powered_chunk(&mut out, total, uniform_mix, n);
        out
    });
    SegmentedWeights::from_normalized_chunks(normalized)
}

/// The segmented alias construction: the serial validating `Σ` (segment
/// order — the flat reduction), then one [`alias::feed_slice`] pool job
/// per segment, then the serial Vose pairing over the stitched stacks
/// ([`SegmentedAlias::from_feeds`]). Bit-identical to the flat
/// [`build_alias_pooled`] over the concatenated weights.
fn build_segmented_alias(weights: &SegmentedWeights, rt: &RuntimeConfig) -> SegmentedAlias {
    let n = weights.len();
    let k = weights.num_segments();
    let mut total = 0.0f64;
    for c in 0..k {
        for &w in weights.chunk(c) {
            total += w;
        }
    }
    assert!(total > 0.0, "SegmentedAlias: weights sum to zero");
    let mut offsets = Vec::with_capacity(k);
    let mut offset = 0usize;
    for c in 0..k {
        offsets.push(offset);
        offset += weights.chunk(c).len();
    }
    let jobs: Vec<usize> = (0..k).collect();
    let feeds = runtime::parallel_map(&segment_pool(rt), &jobs, |&c| {
        alias::feed_slice(weights.chunk(c), total, n, offsets[c])
    });
    SegmentedAlias::from_feeds(feeds)
}

/// The two-level parallel CDF build: per-segment local totals (phase 1)
/// and per-segment global prefix sums (phase 2) each one pool job per
/// segment, joined by a serial O(#segments) offset scan. Identical to
/// [`SegmentedCdf::from_weight_chunks`] at any `parallelism`.
fn build_segmented_cdf(weights: &SegmentedWeights, rt: &RuntimeConfig) -> SegmentedCdf {
    let pool = segment_pool(rt);
    let k = weights.num_segments();
    let jobs: Vec<usize> = (0..k).collect();
    let totals = runtime::parallel_map(&pool, &jobs, |&c| segment_total(weights.chunk(c)));
    let mut starts = Vec::with_capacity(k);
    let mut acc = 0.0f64;
    for &t in &totals {
        starts.push(acc);
        acc += t;
    }
    let cumulative = runtime::parallel_map(&pool, &jobs, |&c| {
        segment_cumulative(weights.chunk(c), starts[c])
    });
    SegmentedCdf::from_cumulative_chunks(cumulative)
}

/// The alias construction over an existing distribution: the serial `Σ`
/// normalizer, then [`alias::feed_slice`] chunked over `runs` pool
/// workers (normalize, scale and small/large classification evaluated
/// per chunk), then the serial Vose pairing. Chunks cover contiguous
/// index ranges in order, so the concatenated stacks equal the serial
/// scan's and the table is bit-identical at any `runs`.
fn build_alias_pooled(weights: &ImportanceWeights, runs: usize) -> AliasTable {
    let probs = weights.probs();
    let n = probs.len();
    // The lone floating-point reduction, kept serial so prepared ≡ cold
    // stays bit-exact. (The probs already sum to ≈1; re-normalizing by
    // their exact sum is what `AliasTable::new` does too.)
    let total: f64 = probs.iter().sum();
    assert!(total > 0.0, "AliasTable: weights sum to zero");
    if runs <= 1 || n < runtime::MIN_PARALLEL_INPUT {
        return AliasTable::from_feeds(vec![alias::feed_slice(probs, total, n, 0)]);
    }
    let feeds = runtime::map_chunks(n, runs, |range| {
        alias::feed_slice(&probs[range.clone()], total, n, range.start)
    });
    AliasTable::from_feeds(feeds)
}

/// Whether `strategy` draws through the CDF backend. `Auto` is resolved
/// by the planner's rule ([`auto_sampler`]) from the recipe's cache state.
fn draws_cdf(strategy: SamplerStrategy, recipe: impl FnOnce() -> RecipeState) -> bool {
    let concrete = match strategy {
        SamplerStrategy::Auto => auto_sampler(recipe()),
        concrete => concrete,
    };
    concrete == SamplerStrategy::Cdf
}

/// Cache key: the exact bit patterns of the weight recipe plus the
/// sampler backend and the corpus segment layout, so recipes that differ
/// by any representable amount — or by how they draw, or by how the
/// corpus is segmented — get distinct artifacts. (`layout` is 0 for flat
/// corpora and the segment size for segmented ones; serving pools that
/// key artifacts by dataset handle inherit the distinction.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RecipeKey {
    exponent_bits: u64,
    mix_bits: u64,
    cdf: bool,
    layout: u64,
}

impl RecipeKey {
    fn new(exponent: f64, uniform_mix: f64, cdf: bool, layout: u64) -> Self {
        Self {
            exponent_bits: exponent.to_bits(),
            mix_bits: uniform_mix.to_bits(),
            cdf,
            layout,
        }
    }
}

/// One cached recipe: the shared artifacts plus an atomically stamped
/// last-served recency mark, updatable through the cache's *read* lock.
struct CacheEntry {
    arts: Arc<WeightArtifacts>,
    last_used: AtomicU64,
}

/// The `RwLock`-guarded cache state: a plain keyed LRU of recipe →
/// [`CacheEntry`] under a capacity bound. The monotone recency clock
/// lives *outside* the lock (on [`PreparedDataset`]) so warm hits never
/// need the write lock.
struct ArtifactCache {
    map: HashMap<RecipeKey, CacheEntry>,
    capacity: usize,
}

impl ArtifactCache {
    /// Serves a cached recipe and freshens its recency stamp — `&self`,
    /// so the hot path runs under the shared read lock.
    fn touch(&self, key: RecipeKey, clock: &AtomicU64) -> Option<Arc<WeightArtifacts>> {
        self.map.get(&key).map(|entry| {
            entry
                .last_used
                .store(clock.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
            Arc::clone(&entry.arts)
        })
    }

    /// Inserts (or returns the racing winner for) `key`, then evicts
    /// least-recently-served entries down to capacity. Returns the kept
    /// artifacts and how many entries eviction dropped.
    fn insert(
        &mut self,
        key: RecipeKey,
        built: Arc<WeightArtifacts>,
        clock: &AtomicU64,
    ) -> (Arc<WeightArtifacts>, u64) {
        let stamp = clock.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = self
            .map
            .entry(key)
            .and_modify(|entry| entry.last_used.store(stamp, Ordering::Relaxed))
            .or_insert_with(|| CacheEntry {
                arts: built,
                last_used: AtomicU64::new(stamp),
            });
        let kept = Arc::clone(&entry.arts);
        let evicted = self.evict_to_capacity();
        (kept, evicted)
    }

    /// Drops least-recently-served entries until the cache fits its
    /// capacity bound (never the entry with the freshest stamp); returns
    /// how many entries were dropped.
    fn evict_to_capacity(&mut self) -> u64 {
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.last_used.load(Ordering::Relaxed))
                .map(|(&k, _)| k)
                .expect("non-empty over-capacity cache");
            self.map.remove(&oldest);
            evicted += 1;
        }
        evicted
    }
}

/// A snapshot of one [`PreparedDataset`]'s lifetime artifact-cache
/// counters ([`PreparedDataset::cache_stats`]): how many recipe requests
/// were served from the cache (`hits`), how many had to build and cache
/// their artifacts (`misses`), and how many cached recipes the LRU bound
/// dropped (`evictions`). Every strategy counts the same way: an `Auto`
/// request is counted against the backend the planner's rule resolved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Recipe requests served straight from the cache.
    pub hits: u64,
    /// Recipe requests that paid an artifact build.
    pub misses: u64,
    /// Cached recipes dropped by the LRU capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Total recipe requests observed (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of requests served from the cache (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// A per-query observability probe: interior-mutable counters a
/// [`DataView`] increments as the selectors it serves request sampling
/// artifacts. The session attaches one per execution
/// ([`DataView::with_probe`]) and surfaces the counts on
/// [`QueryOutcome`](crate::session::QueryOutcome) — the per-query face of
/// the dataset-lifetime [`CacheStats`].
#[derive(Debug, Default)]
pub struct QueryProbe {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl QueryProbe {
    /// A fresh probe with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    fn record(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Artifact requests this query served from a prepared cache.
    pub fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Artifact requests this query paid a fresh build for (every cold
    /// view request counts here — there is no cache to hit).
    pub fn cache_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// The `Arc`-shared corpus a [`PreparedDataset`] amortizes over: flat or
/// segmented.
enum PreparedCorpus {
    Flat(Arc<ScoredDataset>),
    Segmented(Arc<SegmentedDataset>),
}

/// An `Arc`-shared corpus (flat [`ScoredDataset`] or
/// [`SegmentedDataset`]) plus its lazily built, bounded keyed
/// sampling-artifact cache. `Send + Sync`; clone the surrounding `Arc` to
/// share across sessions and threads. Warm lookups take only the shared
/// read lock (see the [module docs](self)), so concurrent serving never
/// serializes on the cache.
pub struct PreparedDataset {
    corpus: PreparedCorpus,
    cache: RwLock<ArtifactCache>,
    /// Monotone recency clock for the LRU stamps — outside the cache lock
    /// so hits can stamp recency under the *read* lock.
    clock: AtomicU64,
    /// Lifetime cache counters ([`cache_stats`](Self::cache_stats)).
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Worker-pool configuration used for artifact construction — stored
    /// copy-on-set in two atomics so warm queries read it without any
    /// lock ([`prepare_with`](PreparedDataset::prepare_with) adopts a
    /// caller's pool for later artifact builds too). The pair is not
    /// updated atomically *together*, but each field is independently
    /// valid and results are bit-identical at every setting, so a torn
    /// read can only change wall time, never output.
    rt_parallelism: AtomicUsize,
    rt_batch_size: AtomicUsize,
}

impl std::fmt::Debug for PreparedDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedDataset")
            .field("records", &self.len())
            .field("cached_recipes", &self.cached_recipes())
            .finish()
    }
}

impl PreparedDataset {
    /// Prepares an owned dataset.
    pub fn new(data: ScoredDataset) -> Self {
        Self::from_arc(Arc::new(data))
    }

    /// Prepares an already-shared dataset without copying it.
    pub fn from_arc(data: Arc<ScoredDataset>) -> Self {
        Self::from_corpus(PreparedCorpus::Flat(data))
    }

    /// Prepares an owned segmented corpus: every artifact this dataset
    /// builds — per-segment rank indexes, weights, samplers — is
    /// chunk-resident and constructed segment-parallel, and queries
    /// produce bit-identical [`QueryOutcome`](crate::session::QueryOutcome)s
    /// to a flat preparation of the concatenated scores (under the
    /// default [`SamplerStrategy::Alias`]).
    pub fn from_segmented(seg: SegmentedDataset) -> Self {
        Self::from_segmented_arc(Arc::new(seg))
    }

    /// Prepares an already-shared segmented corpus without copying it.
    pub fn from_segmented_arc(seg: Arc<SegmentedDataset>) -> Self {
        Self::from_corpus(PreparedCorpus::Segmented(seg))
    }

    fn from_corpus(corpus: PreparedCorpus) -> Self {
        let rt = RuntimeConfig::sequential();
        Self {
            corpus,
            cache: RwLock::new(ArtifactCache {
                map: HashMap::new(),
                capacity: DEFAULT_CACHE_CAPACITY,
            }),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rt_parallelism: AtomicUsize::new(rt.parallelism),
            rt_batch_size: AtomicUsize::new(rt.batch_size),
        }
    }

    /// Validates raw proxy scores and prepares the resulting dataset.
    ///
    /// # Errors
    /// As [`ScoredDataset::new`].
    pub fn from_scores(scores: Vec<f64>) -> Result<Self, SupgError> {
        Ok(Self::new(ScoredDataset::new(scores)?))
    }

    /// Sets the worker-pool configuration used when this dataset builds
    /// artifacts (rank index, weights, alias feeds). Results are
    /// bit-identical at any setting; only cold-build wall time changes.
    pub fn with_runtime(self, runtime: RuntimeConfig) -> Self {
        self.set_runtime(&runtime);
        self
    }

    /// The configured artifact-construction runtime — a lock-free atomic
    /// read (the config is read on every artifact request, so warm
    /// queries must not serialize on it).
    pub fn runtime(&self) -> RuntimeConfig {
        RuntimeConfig {
            parallelism: self.rt_parallelism.load(Ordering::Relaxed),
            batch_size: self.rt_batch_size.load(Ordering::Relaxed),
        }
    }

    /// Copy-on-set store of the artifact-construction runtime.
    fn set_runtime(&self, rt: &RuntimeConfig) {
        self.rt_parallelism.store(rt.parallelism, Ordering::Relaxed);
        self.rt_batch_size.store(rt.batch_size, Ordering::Relaxed);
    }

    /// Builds the corpus's rank structure on the configured worker pool
    /// (no-op when already built), so the first query pays no sort: the
    /// global rank index for flat corpora, every per-segment index —
    /// constructed fully in parallel, one pool job per segment, with no
    /// final merge — for segmented ones. Returns `self` for chaining.
    pub fn prepare(&self) -> &Self {
        let rt = self.runtime();
        match &self.corpus {
            PreparedCorpus::Flat(data) => {
                data.prepare_rank_index(&rt);
            }
            PreparedCorpus::Segmented(seg) => {
                seg.prepare(&rt);
            }
        }
        self
    }

    /// [`prepare`](Self::prepare) with an explicit pool configuration —
    /// what the query engine and experiment harness call with their own
    /// `RuntimeConfig`. The pool is **adopted** as this dataset's
    /// artifact-construction runtime, so the weight/alias builds that
    /// follow (first query, [`warm`](Self::warm)) run on the same workers
    /// (results stay bit-identical either way; only wall time changes).
    pub fn prepare_with(&self, rt: &RuntimeConfig) -> &Self {
        self.set_runtime(rt);
        self.prepare()
    }

    /// The underlying corpus, as the layout-polymorphic [`Corpus`] view.
    pub fn corpus(&self) -> Corpus<'_> {
        match &self.corpus {
            PreparedCorpus::Flat(data) => Corpus::Flat(data),
            PreparedCorpus::Segmented(seg) => Corpus::Segmented(seg),
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        match &self.corpus {
            PreparedCorpus::Flat(data) => data.len(),
            PreparedCorpus::Segmented(seg) => seg.len(),
        }
    }

    /// True when the corpus has no records (construction forbids this,
    /// so this is always false; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cache-key layout component: 0 for flat corpora, the segment
    /// size for segmented ones.
    fn layout_key(&self) -> u64 {
        match &self.corpus {
            PreparedCorpus::Flat(_) => 0,
            PreparedCorpus::Segmented(seg) => seg.segment_size() as u64,
        }
    }

    /// The alias-backed sampling artifacts for a weight recipe — built on
    /// first use, O(1) `Arc` clone afterwards. Construction happens
    /// outside the cache lock; two threads racing on a cold key may both
    /// build, but exactly one result is kept and handed to everyone (the
    /// artifacts are pure functions of `(scores, recipe)`, so which build
    /// wins is unobservable). Serving a recipe marks it recently used;
    /// when the cache is over [`cache_capacity`](Self::cache_capacity),
    /// the least-recently-served recipe is evicted.
    pub fn artifacts(&self, exponent: f64, uniform_mix: f64) -> Arc<WeightArtifacts> {
        self.artifacts_with(exponent, uniform_mix, SamplerStrategy::Alias)
    }

    /// The sampling artifacts for a weight recipe under a
    /// [`SamplerStrategy`], cached under distinct keys per backend and
    /// built (on the configured pool) on first use.
    /// [`Auto`](SamplerStrategy::Auto) first resolves to a backend through
    /// the planner's one rule from [`recipe_state`](Self::recipe_state) —
    /// CDF for a cold recipe (cached at first sight, exactly as a planned
    /// query caches it), alias once the recipe recurs — and then takes the
    /// same cached path as an explicit request for that backend.
    pub fn artifacts_with(
        &self,
        exponent: f64,
        uniform_mix: f64,
        strategy: SamplerStrategy,
    ) -> Arc<WeightArtifacts> {
        self.artifacts_probed(exponent, uniform_mix, strategy).0
    }

    /// [`artifacts_with`](Self::artifacts_with) plus whether the request
    /// was a cache hit — what [`DataView`] feeds its [`QueryProbe`].
    pub(crate) fn artifacts_probed(
        &self,
        exponent: f64,
        uniform_mix: f64,
        strategy: SamplerStrategy,
    ) -> (Arc<WeightArtifacts>, bool) {
        let cdf = draws_cdf(strategy, || self.recipe_state(exponent, uniform_mix));
        let key = RecipeKey::new(exponent, uniform_mix, cdf, self.layout_key());
        let rt = self.runtime();
        self.cached_artifacts(key, || {
            WeightArtifacts::build(self.corpus(), exponent, uniform_mix, cdf, &rt)
        })
    }

    /// The read-lock-only warm lookup (recency stamped via the atomic
    /// clock; the map itself is untouched).
    fn read_cached(&self, key: RecipeKey) -> Option<Arc<WeightArtifacts>> {
        self.cache
            .read()
            .expect("artifact cache poisoned")
            .touch(key, &self.clock)
    }

    /// Where the weight recipe `(exponent, uniform_mix)` stands in this
    /// dataset's artifact cache — the signal `Auto` resolves from. A pure
    /// peek under the shared read lock: no build, no hit/miss accounting.
    /// An alias entry shadows a CDF entry (the O(1)-draw steady state
    /// wins).
    pub fn recipe_state(&self, exponent: f64, uniform_mix: f64) -> RecipeState {
        let layout = self.layout_key();
        let alias_key = RecipeKey::new(exponent, uniform_mix, false, layout);
        let cdf_key = RecipeKey::new(exponent, uniform_mix, true, layout);
        let cache = self.cache.read().expect("artifact cache poisoned");
        if cache.map.contains_key(&alias_key) {
            RecipeState::WarmAlias
        } else if cache.map.contains_key(&cdf_key) {
            RecipeState::WarmCdf
        } else {
            RecipeState::Cold
        }
    }

    /// Cache lookup / build-outside-the-lock / insert for one key.
    /// Returns the kept artifacts and whether the request hit the cache.
    fn cached_artifacts(
        &self,
        key: RecipeKey,
        build: impl FnOnce() -> WeightArtifacts,
    ) -> (Arc<WeightArtifacts>, bool) {
        if let Some(hit) = self.read_cached(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (hit, true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(build());
        let (kept, evicted) =
            self.cache
                .write()
                .expect("artifact cache poisoned")
                .insert(key, built, &self.clock);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        (kept, false)
    }

    /// Pre-builds everything a selector configuration will need — the
    /// rank index and the recipe's sampling artifacts — so the first
    /// query pays no O(n log n) construction at all. An
    /// [`Auto`](SamplerStrategy::Auto) configuration warms the alias
    /// table (warming declares the recipe recurring), an explicit
    /// [`Cdf`](SamplerStrategy::Cdf) configuration warms the CDF
    /// artifacts.
    pub fn warm(&self, cfg: &SelectorConfig) -> Arc<WeightArtifacts> {
        self.prepare();
        let strategy = match cfg.sampler {
            SamplerStrategy::Cdf => SamplerStrategy::Cdf,
            SamplerStrategy::Alias | SamplerStrategy::Auto => SamplerStrategy::Alias,
        };
        self.artifacts_with(cfg.weight_exponent, cfg.uniform_mix, strategy)
    }

    /// Number of cached weight recipes.
    pub fn cached_recipes(&self) -> usize {
        self.cache
            .read()
            .expect("artifact cache poisoned")
            .map
            .len()
    }

    /// The artifact-cache capacity bound.
    pub fn cache_capacity(&self) -> usize {
        self.cache.read().expect("artifact cache poisoned").capacity
    }

    /// Sets the artifact-cache capacity (clamped to ≥ 1), evicting
    /// least-recently-served recipes immediately if the cache is over the
    /// new bound.
    pub fn set_cache_capacity(&self, capacity: usize) {
        let mut cache = self.cache.write().expect("artifact cache poisoned");
        cache.capacity = capacity.max(1);
        let evicted = cache.evict_to_capacity();
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// A point-in-time snapshot of the artifact-cache counters,
    /// accumulated over the dataset's lifetime across all threads.
    ///
    /// Hits are requests served from the cache under the shared read
    /// lock; misses paid an artifact build and cached it; evictions count
    /// recipes dropped to hold the capacity bound. Counters use relaxed
    /// atomics — the snapshot is consistent-enough for monitoring, not a
    /// linearizable read.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// The borrowed view a selector runs against: the corpus (flat or
/// segmented) plus, when the session was given a [`PreparedDataset`],
/// the shared artifact cache. Cold views build artifacts fresh per call —
/// exactly the historical per-query behavior — so every selector has one
/// code path and prepared vs. cold differ only in amortization, never in
/// results.
#[derive(Debug, Clone, Copy)]
pub struct DataView<'a> {
    corpus: Corpus<'a>,
    prepared: Option<&'a PreparedDataset>,
    probe: Option<&'a QueryProbe>,
}

impl<'a> DataView<'a> {
    /// A view with no artifact cache (per-query construction) over a flat
    /// or segmented corpus.
    pub fn cold(corpus: impl Into<Corpus<'a>>) -> Self {
        Self {
            corpus: corpus.into(),
            prepared: None,
            probe: None,
        }
    }

    /// A view backed by a prepared dataset's artifact cache.
    pub fn prepared(prepared: &'a PreparedDataset) -> Self {
        Self {
            corpus: prepared.corpus(),
            prepared: Some(prepared),
            probe: None,
        }
    }

    /// Attaches a per-query [`QueryProbe`]: every artifact request made
    /// through this view records a hit or miss on it. Cold views record
    /// every request as a miss (each one pays a fresh build).
    pub fn with_probe(mut self, probe: &'a QueryProbe) -> Self {
        self.probe = Some(probe);
        self
    }

    /// The corpus under view. (`Corpus` is `Copy` and serves scores,
    /// threshold counts and top-k identically for flat and segmented
    /// layouts, so selectors are layout-blind.)
    pub fn data(&self) -> Corpus<'a> {
        self.corpus
    }

    /// True when backed by a prepared artifact cache.
    pub fn is_prepared(&self) -> bool {
        self.prepared.is_some()
    }

    /// The corpus query results are served from — equal to
    /// [`data`](Self::data). Kept only because the `perfbench` harness
    /// calls it; it can be removed together with that call.
    pub fn rank_source(&self) -> Corpus<'a> {
        self.corpus
    }

    /// The alias-backed sampling artifacts for a weight recipe: cache hit
    /// when prepared, fresh O(n) build when cold.
    pub fn artifacts(&self, exponent: f64, uniform_mix: f64) -> Arc<WeightArtifacts> {
        self.artifacts_with(exponent, uniform_mix, SamplerStrategy::Alias)
    }

    /// The sampling artifacts for a weight recipe under a
    /// [`SamplerStrategy`]. Prepared views delegate to
    /// [`PreparedDataset::artifacts_with`]; cold views build fresh per
    /// call on the serial pool. A cold view has no cache, so the planner's
    /// rule sees every recipe as [`RecipeState::Cold`] and resolves
    /// [`Auto`](SamplerStrategy::Auto) to the one-shot CDF build.
    pub fn artifacts_with(
        &self,
        exponent: f64,
        uniform_mix: f64,
        strategy: SamplerStrategy,
    ) -> Arc<WeightArtifacts> {
        let (arts, hit) = match self.prepared {
            Some(p) => p.artifacts_probed(exponent, uniform_mix, strategy),
            None => {
                let cdf = draws_cdf(strategy, || RecipeState::Cold);
                let rt = RuntimeConfig::sequential();
                let built = WeightArtifacts::build(self.corpus, exponent, uniform_mix, cdf, &rt);
                (Arc::new(built), false)
            }
        };
        if let Some(probe) = self.probe {
            probe.record(hit);
        }
        arts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> ScoredDataset {
        ScoredDataset::new((0..100).map(|i| i as f64 / 100.0).collect()).unwrap()
    }

    #[test]
    fn artifacts_are_cached_per_recipe() {
        let p = PreparedDataset::new(dataset());
        assert_eq!(p.cached_recipes(), 0);
        let a = p.artifacts(0.5, 0.1);
        let b = p.artifacts(0.5, 0.1);
        assert!(Arc::ptr_eq(&a, &b), "same recipe must hit the cache");
        assert_eq!(p.cached_recipes(), 1);
        let c = p.artifacts(1.0, 0.1);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(p.cached_recipes(), 2);
    }

    #[test]
    fn warm_prebuilds_the_configured_recipe() {
        let p = PreparedDataset::new(dataset());
        let cfg = SelectorConfig::default();
        let warmed = p.warm(&cfg);
        assert_eq!(p.cached_recipes(), 1);
        let served = p.artifacts(cfg.weight_exponent, cfg.uniform_mix);
        assert!(Arc::ptr_eq(&warmed, &served));
    }

    #[test]
    fn cold_and_prepared_views_build_identical_artifacts() {
        let data = dataset();
        let p = PreparedDataset::new(data.clone());
        let cold = DataView::cold(&data).artifacts(0.5, 0.1);
        let prepared = DataView::prepared(&p).artifacts(0.5, 0.1);
        assert!(!DataView::cold(&data).is_prepared());
        assert!(DataView::prepared(&p).is_prepared());
        for i in 0..data.len() {
            assert_eq!(cold.prob(i).to_bits(), prepared.prob(i).to_bits());
            assert_eq!(
                cold.reweight_factor(i).to_bits(),
                prepared.reweight_factor(i).to_bits()
            );
        }
    }

    #[test]
    fn pooled_artifact_build_is_bit_identical_to_serial() {
        // Big enough to cross the parallel threshold.
        let scores: Vec<f64> = (0..40_000)
            .map(|i| ((i * 13) % 997) as f64 / 997.0)
            .collect();
        let data = ScoredDataset::new(scores).unwrap();
        let serial = WeightArtifacts::build(&data, 0.5, 0.1, false, &RuntimeConfig::sequential());
        for parallelism in [2, 4, 8] {
            let rt = RuntimeConfig::default().with_parallelism(parallelism);
            let pooled = WeightArtifacts::build(&data, 0.5, 0.1, false, &rt);
            for i in (0..data.len()).step_by(997) {
                assert_eq!(
                    serial.prob(i).to_bits(),
                    pooled.prob(i).to_bits(),
                    "prob i={i} parallelism={parallelism}"
                );
                assert_eq!(
                    serial.sampler().prob(i).to_bits(),
                    pooled.sampler().prob(i).to_bits(),
                    "sampler prob i={i} parallelism={parallelism}"
                );
            }
        }
    }

    #[test]
    fn concurrent_sessions_share_one_build() {
        let p = Arc::new(PreparedDataset::new(dataset()));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || p.artifacts(0.5, 0.1))
            })
            .collect();
        let arts: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // All threads end up holding the same cached artifact object.
        let first = &arts[0];
        assert!(arts.iter().all(|a| Arc::ptr_eq(a, first)));
        assert_eq!(p.cached_recipes(), 1);
    }

    #[test]
    fn cache_evicts_least_recently_served_recipe() {
        let p = PreparedDataset::new(dataset());
        p.set_cache_capacity(2);
        assert_eq!(p.cache_capacity(), 2);
        let a = p.artifacts(0.1, 0.0);
        let _b = p.artifacts(0.2, 0.0);
        // Touch the oldest so the *middle* recipe becomes LRU.
        let a2 = p.artifacts(0.1, 0.0);
        assert!(Arc::ptr_eq(&a, &a2));
        let _c = p.artifacts(0.3, 0.0);
        assert_eq!(p.cached_recipes(), 2);
        // Recipe 0.2 was evicted: requesting it rebuilds a fresh object;
        // recipe 0.1 is still the cached original.
        assert!(Arc::ptr_eq(&a, &p.artifacts(0.1, 0.0)));
        assert_eq!(p.cached_recipes(), 2);

        // Shrinking capacity evicts immediately.
        p.set_cache_capacity(1);
        assert_eq!(p.cached_recipes(), 1);
        // Capacity clamps to ≥ 1.
        p.set_cache_capacity(0);
        assert_eq!(p.cache_capacity(), 1);
    }

    #[test]
    fn cache_stats_count_hits_misses_and_evictions() {
        let p = PreparedDataset::new(dataset());
        assert_eq!(p.cache_stats(), CacheStats::default());
        let _a = p.artifacts(0.1, 0.0); // miss (build)
        let _a2 = p.artifacts(0.1, 0.0); // hit
        let _a3 = p.artifacts(0.1, 0.0); // hit
        let _b = p.artifacts(0.2, 0.0); // miss
        let stats = p.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 2, 0));
        assert_eq!(stats.lookups(), 4);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);

        // Shrinking capacity counts its evictions.
        p.set_cache_capacity(1);
        assert_eq!(p.cache_stats().evictions, 1);

        // Auto: first sight is a miss that caches the CDF, the recurrence
        // promotes (a miss that builds the cached alias table), then hits.
        let _ = p.artifacts_with(0.3, 0.0, SamplerStrategy::Auto);
        let before = p.cache_stats();
        let _ = p.artifacts_with(0.3, 0.0, SamplerStrategy::Auto);
        let _ = p.artifacts_with(0.3, 0.0, SamplerStrategy::Auto);
        let after = p.cache_stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses + 1);
    }

    #[test]
    fn query_probe_counts_view_requests() {
        let data = dataset();
        let p = PreparedDataset::new(data.clone());

        let probe = QueryProbe::new();
        let view = DataView::prepared(&p).with_probe(&probe);
        let _ = view.artifacts(0.5, 0.1); // miss
        let _ = view.artifacts(0.5, 0.1); // hit
        assert_eq!((probe.cache_hits(), probe.cache_misses()), (1, 1));

        // Cold views record every request as a miss.
        let cold_probe = QueryProbe::new();
        let cold = DataView::cold(&data).with_probe(&cold_probe);
        let _ = cold.artifacts(0.5, 0.1);
        let _ = cold.artifacts(0.5, 0.1);
        assert_eq!((cold_probe.cache_hits(), cold_probe.cache_misses()), (0, 2));
    }

    #[test]
    fn prepare_builds_the_shared_rank_index() {
        let data = Arc::new(dataset());
        let p = PreparedDataset::from_arc(Arc::clone(&data))
            .with_runtime(RuntimeConfig::default().with_parallelism(4));
        p.prepare();
        // The index lives on the shared dataset, not a private copy.
        let Corpus::Flat(flat) = p.corpus() else {
            panic!("a flat preparation serves a flat corpus");
        };
        let idx = flat.rank_index();
        assert_eq!(idx.len(), 100);
        assert!(std::ptr::eq(idx, data.rank_index()));
        assert_eq!(p.runtime().parallelism, 4);
    }

    #[test]
    fn segmented_artifacts_match_flat_bitwise() {
        let scores: Vec<f64> = (0..2_000)
            .map(|i| ((i * 13) % 997) as f64 / 997.0)
            .collect();
        let data = ScoredDataset::new(scores.clone()).unwrap();
        let flat = WeightArtifacts::build(&data, 0.5, 0.1, false, &RuntimeConfig::sequential());
        let seg = SegmentedDataset::new(scores.clone(), 64).unwrap();
        for parallelism in [1, 4, 8] {
            let rt = RuntimeConfig::default().with_parallelism(parallelism);
            let arts = WeightArtifacts::build(&seg, 0.5, 0.1, false, &rt);
            assert!(arts.alias_sampler().is_none(), "segmented table, not flat");
            assert!(!arts.draws_via_cdf());
            for i in 0..scores.len() {
                assert_eq!(
                    flat.prob(i).to_bits(),
                    arts.prob(i).to_bits(),
                    "prob i={i} parallelism={parallelism}"
                );
                assert_eq!(
                    flat.reweight_factor(i).to_bits(),
                    arts.reweight_factor(i).to_bits(),
                    "reweight i={i} parallelism={parallelism}"
                );
                assert_eq!(
                    flat.sampler().prob(i).to_bits(),
                    arts.sampler().prob(i).to_bits(),
                    "sampler prob i={i} parallelism={parallelism}"
                );
            }
        }
    }

    #[test]
    fn segmented_cdf_build_is_parallelism_deterministic() {
        let scores: Vec<f64> = (0..1_500)
            .map(|i| ((i * 31) % 101) as f64 / 101.0)
            .collect();
        let seg = SegmentedDataset::new(scores, 100).unwrap();
        let serial = WeightArtifacts::build(&seg, 0.5, 0.1, true, &RuntimeConfig::sequential());
        assert!(serial.draws_via_cdf());
        for parallelism in [2, 4, 8] {
            let rt = RuntimeConfig::default().with_parallelism(parallelism);
            let pooled = WeightArtifacts::build(&seg, 0.5, 0.1, true, &rt);
            for i in 0..seg.len() {
                assert_eq!(
                    serial.sampler().prob(i).to_bits(),
                    pooled.sampler().prob(i).to_bits(),
                    "cdf prob i={i} parallelism={parallelism}"
                );
            }
        }
    }

    #[test]
    fn segmented_preparation_caches_and_serves() {
        let scores: Vec<f64> = (0..500).map(|i| (i % 97) as f64 / 97.0).collect();
        let p = PreparedDataset::from_segmented(SegmentedDataset::new(scores, 64).unwrap());
        assert_eq!(p.len(), 500);
        assert!(!p.is_empty());
        p.prepare();
        let a = p.artifacts(0.5, 0.1);
        let b = p.artifacts(0.5, 0.1);
        assert!(Arc::ptr_eq(&a, &b), "same recipe must hit the cache");
        assert_eq!(p.cached_recipes(), 1);
        // The corpus view serves the segmented layout.
        let corpus = p.corpus();
        assert_eq!(corpus.len(), 500);
        assert!(matches!(corpus, Corpus::Segmented(_)));
    }

    #[test]
    fn from_arc_aliases_the_dataset() {
        let arc = Arc::new(dataset());
        let p = PreparedDataset::from_arc(Arc::clone(&arc));
        assert!(matches!(p.corpus(), Corpus::Flat(flat) if std::ptr::eq(flat, &*arc)));
        assert_eq!(p.len(), 100);
        assert!(!p.is_empty());
    }
}

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

use supg_sampling::weights::validate_scores;
use supg_sampling::{
    alias, apply_exponent, AliasTable, CdfSampler, ImportanceWeights, WeightedSampler,
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

/// The flat corpus's `A(x)^p` pass: the validating scan, then the
/// element-wise transform in `runs` fixed contiguous chunks on the worker
/// pool (concatenated — bit-identical to one serial pass).
fn flat_powered(scores: &[f64], exponent: f64, runs: usize) -> Vec<f64> {
    validate_scores(scores, exponent);
    if runs <= 1 || scores.len() < runtime::MIN_PARALLEL_INPUT {
        return apply_exponent(scores, exponent);
    }
    let pieces = runtime::map_chunks(scores.len(), runs, |range| {
        apply_exponent(&scores[range], exponent)
    });
    let mut out = Vec::with_capacity(scores.len());
    for piece in pieces {
        out.extend_from_slice(&piece);
    }
    out
}

/// The segmented corpus's `A(x)^p` pass: one pool job per segment
/// validates and powers that segment's scores, and the pieces are
/// concatenated in segment order, as [`flat_powered`] concatenates its
/// chunks. Element-wise, hence bit-identical to [`flat_powered`] over the
/// concatenated scores.
fn segmented_powered(seg: &SegmentedDataset, exponent: f64, runs: usize) -> Vec<f64> {
    let pool = RuntimeConfig::default()
        .with_parallelism(runs)
        .with_batch_size(1);
    let pieces = runtime::parallel_map(&pool, seg.segments(), |segment| {
        validate_scores(segment.scores(), exponent);
        apply_exponent(segment.scores(), exponent)
    });
    pieces.concat()
}

/// The sampler a [`WeightArtifacts`] carries: the O(1)-draw alias table
/// or the cheap-to-build O(log n)-draw CDF fallback.
#[derive(Debug, Clone)]
enum SamplerBackend {
    Alias(AliasTable),
    Cdf(CdfSampler),
}

/// The per-`(dataset, weight recipe)` sampling artifacts: the normalized
/// importance distribution over all `n` records and a prebuilt weighted
/// sampler over it — the O(1)-draw alias table or the CDF fallback,
/// chosen by the serving layer's [`SamplerStrategy`]. Both are one flat
/// array per recipe whatever the corpus layout; built by
/// [`build`](WeightArtifacts::build).
#[derive(Debug, Clone)]
pub struct WeightArtifacts {
    weights: ImportanceWeights,
    sampler: SamplerBackend,
}

impl WeightArtifacts {
    /// Builds one weight recipe's artifacts over a corpus — the one build
    /// for every layout × backend, shared by the prepared cache and cold
    /// views. `cdf` picks the backend: the O(log n)-draw [`CdfSampler`]
    /// (one serial prefix-sum pass — the cheapest setup for a cold
    /// one-shot query) or the O(1)-draw alias table.
    ///
    /// The layout decides only how the `A(x)^p` transform is split into
    /// pool jobs: [`runtime::cpu_workers`]-clamped contiguous chunks of a
    /// flat corpus, one job per segment of a [`SegmentedDataset`], the
    /// pieces concatenated into one powered array. Everything after
    /// is the same flat build: the normalization
    /// ([`ImportanceWeights::from_powered`]), then the CDF prefix sum or
    /// the alias table, whose scaling and Vose small/large partition scan
    /// ([`alias::feed_slice`]) run chunk-by-chunk on the pool. Only the
    /// floating-point reductions (the normalizer `Σ A^p`, the CDF prefix
    /// sum) and the Vose pairing loop stay serial, so the artifacts —
    /// probabilities, reweighting factors, both samplers and every seeded
    /// draw — are **bit-identical** at any `parallelism` and any segment
    /// size.
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
        let runs = runtime::cpu_workers(rt.parallelism);
        let powered = match corpus.into() {
            Corpus::Flat(data) => flat_powered(data.scores(), exponent, runs),
            Corpus::Segmented(seg) => segmented_powered(seg, exponent, runs),
        };
        let weights = ImportanceWeights::from_powered(powered, uniform_mix);
        let sampler = if cdf {
            SamplerBackend::Cdf(CdfSampler::new(weights.probs()))
        } else {
            SamplerBackend::Alias(build_alias_pooled(&weights, runs))
        };
        Self { weights, sampler }
    }

    /// The flat alias build with an **explicit** chunk count, regardless
    /// of machine size — the deterministic core of
    /// [`build`](Self::build), exposed (like
    /// [`RankIndex::build_chunked`](crate::rank::RankIndex::build_chunked)) so the chunk-partitioned feed path
    /// stays testable even where `available_parallelism` would clamp it
    /// away. Bit-identical to the serial alias build for every `runs ≥ 1`.
    pub fn build_chunked(scores: &[f64], exponent: f64, uniform_mix: f64, runs: usize) -> Self {
        let runs = runs.max(1);
        let weights =
            ImportanceWeights::from_powered(flat_powered(scores, exponent, runs), uniform_mix);
        let sampler = build_alias_pooled(&weights, runs);
        Self {
            weights,
            sampler: SamplerBackend::Alias(sampler),
        }
    }

    /// Sampling probability `w(x)` of record `i`.
    pub fn prob(&self, i: usize) -> f64 {
        self.weights.prob(i)
    }

    /// Alias sampler over a subset of records, renormalizing lazily —
    /// the stage-2 table of the two-stage precision selector.
    ///
    /// # Panics
    /// Panics if `subset` is empty, out of range, or carries zero mass.
    pub fn restricted_sampler(&self, subset: &[usize]) -> AliasTable {
        self.weights.restricted_sampler(subset)
    }

    /// The prebuilt weighted sampler over the full dataset (alias table
    /// or CDF fallback, per the build that produced these artifacts).
    pub fn sampler(&self) -> &dyn WeightedSampler {
        match &self.sampler {
            SamplerBackend::Alias(table) => table,
            SamplerBackend::Cdf(cdf) => cdf,
        }
    }

    /// The alias table, when these artifacts are backed by one (tests
    /// and benchmarks that compare table layouts structurally).
    pub fn alias_sampler(&self) -> Option<&AliasTable> {
        match &self.sampler {
            SamplerBackend::Alias(table) => Some(table),
            SamplerBackend::Cdf(_) => None,
        }
    }

    /// True when draws go through the CDF fallback sampler.
    pub fn draws_via_cdf(&self) -> bool {
        matches!(self.sampler, SamplerBackend::Cdf(_))
    }

    /// Reweighting factor `m(x) = u(x)/w(x)` of record `i`.
    pub fn reweight_factor(&self, i: usize) -> f64 {
        self.weights.reweight_factor(i)
    }
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
/// sampler backend, so recipes that differ by any representable amount —
/// or by how they draw — get distinct artifacts. Each cache belongs to
/// one dataset, so the corpus needs no place in the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RecipeKey {
    exponent_bits: u64,
    mix_bits: u64,
    cdf: bool,
}

impl RecipeKey {
    fn new(exponent: f64, uniform_mix: f64, cdf: bool) -> Self {
        Self {
            exponent_bits: exponent.to_bits(),
            mix_bits: uniform_mix.to_bits(),
            cdf,
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

    /// Prepares an owned segmented corpus: each segment owns its scores
    /// and rank index (built segment-parallel by
    /// [`prepare`](Self::prepare)); the cached sampling artifacts are one
    /// array per recipe, as for a flat corpus. Queries produce
    /// bit-identical [`QueryOutcome`](crate::session::QueryOutcome)s to a
    /// flat preparation of the concatenated scores under every
    /// [`SamplerStrategy`].
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
        let key = RecipeKey::new(exponent, uniform_mix, cdf);
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
        let alias_key = RecipeKey::new(exponent, uniform_mix, false);
        let cdf_key = RecipeKey::new(exponent, uniform_mix, true);
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
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // Zero scores every 13th record, so the unmixed recipe carries
        // zero-weight entries through both samplers.
        let scores: Vec<f64> = (0..2_000)
            .map(|i| {
                if i % 13 == 0 {
                    0.0
                } else {
                    ((i * 13) % 997) as f64 / 997.0
                }
            })
            .collect();
        let data = ScoredDataset::new(scores.clone()).unwrap();
        let seq = RuntimeConfig::sequential();
        for (exponent, mix) in [(0.5, 0.1), (1.0, 0.0)] {
            let flat = WeightArtifacts::build(&data, exponent, mix, false, &seq);
            let flat_cdf = WeightArtifacts::build(&data, exponent, mix, true, &seq);
            let table = flat.alias_sampler().expect("flat alias table");
            for segment_size in [1, 7, 64, 2_000] {
                let seg = SegmentedDataset::new(scores.clone(), segment_size).unwrap();
                for parallelism in [1, 4, 8] {
                    let rt = RuntimeConfig::default().with_parallelism(parallelism);
                    let ctx =
                        format!("p={exponent} mix={mix} seg={segment_size} par={parallelism}");
                    let arts = WeightArtifacts::build(&seg, exponent, mix, false, &rt);
                    let cdf = WeightArtifacts::build(&seg, exponent, mix, true, &rt);
                    assert!(!arts.draws_via_cdf() && cdf.draws_via_cdf());
                    let seg_table = arts.alias_sampler().expect("one alias table");
                    assert_eq!(seg_table.aliases(), table.aliases(), "{ctx}: aliases");
                    let bits = |t: &AliasTable| t.accept().iter().map(|a| a.to_bits()).collect();
                    let (a, b): (Vec<u64>, Vec<u64>) = (bits(seg_table), bits(table));
                    assert_eq!(a, b, "{ctx}: accept");
                    for i in 0..scores.len() {
                        assert_eq!(
                            flat.prob(i).to_bits(),
                            arts.prob(i).to_bits(),
                            "{ctx}: prob {i}"
                        );
                        assert_eq!(
                            flat.reweight_factor(i).to_bits(),
                            arts.reweight_factor(i).to_bits(),
                            "{ctx}: reweight {i}"
                        );
                        assert_eq!(
                            flat_cdf.sampler().prob(i).to_bits(),
                            cdf.sampler().prob(i).to_bits(),
                            "{ctx}: cdf prob {i}"
                        );
                    }
                    for (f, s) in [(&flat, &arts), (&flat_cdf, &cdf)] {
                        let mut a = StdRng::seed_from_u64(7);
                        let mut b = StdRng::seed_from_u64(7);
                        let drawn = f.sampler().draw_many(&mut a, 500);
                        assert_eq!(drawn, s.sampler().draw_many(&mut b, 500), "{ctx}: draws");
                    }
                }
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

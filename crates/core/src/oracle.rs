//! Budgeted, label-caching oracle abstraction with batched labeling.
//!
//! The paper's oracle is any expensive predicate — a human labeler or a
//! heavyweight DNN — supplied by the user as a callback. Two properties
//! matter for correctness of the reproduction:
//!
//! * **Budget enforcement.** A query specifies `ORACLE LIMIT s`; no
//!   algorithm may exceed it. [`CachedOracle`] refuses the `s+1`-th distinct
//!   call with [`SupgError::BudgetExhausted`], so budget violations are
//!   bugs that fail loudly rather than silently inflating quality.
//! * **Label caching.** The i.i.d. analysis samples *with replacement*, so
//!   the same record can be drawn twice; real systems cache the label. Only
//!   cache misses count against the budget, hence distinct oracle
//!   invocations never exceed `s` while resampled records stay free.
//!
//! Real oracles (GPU models, labeling services) are batch-native, so the
//! pipeline never labels one record at a time: every stage routes through
//! [`BatchOracle::label_batch`], which is blanket-implemented for every
//! [`Oracle`] and — for oracles with a thread-safe source, such as
//! [`CachedOracle::parallel`] — executes cache misses on the
//! [`crate::runtime`] worker pool under the session's
//! [`RuntimeConfig`](crate::runtime::RuntimeConfig).
//!
//! # The label cache
//!
//! [`CachedOracle`] keeps what it knows about each record in two bits,
//! one of four states: *unknown*, *false*, *true*, or *planned*. A
//! batch that fans out over worker threads first marks its distinct
//! misses planned — which also dedupes the batch — and resolves every
//! one of them before it returns; a sequential batch is the
//! record-by-record loop itself and plans nothing. The bits live in
//! pages of 4Ki records — 1 KiB, held as `[u64; 128]` — allocated on
//! first touch and found through a directory `Vec` that grows only as
//! far as the highest page touched. Keys are full `usize` record
//! indices. Memory is therefore 1 KiB per touched page plus 8 B per 4Ki
//! records of directory: about 250 KB for every record of a 10⁶-record
//! corpus, and about 3 MB for 1,000 labels spread over 10⁹ records,
//! where a dense byte per record would take 1 GB.

use crate::error::SupgError;
use crate::fault::RetryStats;
use crate::runtime::{parallel_map, RuntimeConfig};

/// Per-thread accounting of wall-clock time spent inside oracle labeling.
///
/// Every pipeline stage labels through [`BatchOracle::label_batch`], so
/// timing that one choke point captures exactly the oracle-facing time of
/// a query — threshold sweeps, artifact builds and result materialization
/// never run inside it. Sessions diff [`labeling_clock::total`] around a
/// query (the same pattern as [`Oracle::calls_used`] /
/// [`Oracle::retry_stats`]) to fill
/// [`QueryOutcome::oracle_elapsed`](crate::session::QueryOutcome::oracle_elapsed),
/// which is what the planner's latency EWMA feeds on.
///
/// The accumulator is thread-local: a query runs synchronously on its
/// calling thread (batch-native oracles block the caller while their
/// worker pool labels), so the diff is race-free without any atomics on
/// the labeling fast path. A depth guard charges only the outermost
/// `label_batch` frame, so an oracle wrapper that batches through an
/// inner oracle cannot double-count.
pub(crate) mod labeling_clock {
    use std::cell::Cell;
    use std::time::{Duration, Instant};

    thread_local! {
        static LABELING_NS: Cell<u64> = const { Cell::new(0) };
        static DEPTH: Cell<u32> = const { Cell::new(0) };
    }

    /// Labeling time accrued on this thread so far (monotone; callers
    /// diff two readings around a query).
    pub(crate) fn total() -> Duration {
        Duration::from_nanos(LABELING_NS.with(Cell::get))
    }

    /// RAII frame: charges its wall-clock span to the thread's
    /// accumulator on drop, but only for the outermost frame.
    pub(crate) struct Frame {
        start: Instant,
        outermost: bool,
    }

    impl Frame {
        pub(crate) fn enter() -> Frame {
            let outermost = DEPTH.with(|d| {
                let depth = d.get();
                d.set(depth + 1);
                depth == 0
            });
            Frame {
                start: Instant::now(),
                outermost,
            }
        }
    }

    impl Drop for Frame {
        fn drop(&mut self) {
            DEPTH.with(|d| d.set(d.get() - 1));
            if self.outermost {
                let ns = self.start.elapsed().as_nanos() as u64;
                LABELING_NS.with(|c| c.set(c.get().saturating_add(ns)));
            }
        }
    }
}

/// An expensive ground-truth predicate with usage accounting.
pub trait Oracle {
    /// Labels the record at `index`, consuming budget on a cache miss.
    ///
    /// # Errors
    /// [`SupgError::BudgetExhausted`] when an uncached call would exceed the
    /// budget; [`SupgError::IndexOutOfRange`] for an invalid record index.
    fn label(&mut self, index: usize) -> Result<bool, SupgError>;

    /// Number of distinct (budget-consuming) oracle invocations so far.
    fn calls_used(&self) -> usize;

    /// The configured budget.
    fn budget(&self) -> usize;

    /// Remaining budget.
    fn remaining(&self) -> usize {
        self.budget().saturating_sub(self.calls_used())
    }

    /// Native batch-labeling hook consulted by [`BatchOracle::label_batch`].
    ///
    /// The default returns `None`, meaning "no batch-native path": the
    /// blanket [`BatchOracle`] impl then falls back to per-record
    /// [`label`](Oracle::label) calls in input order. Batch-native oracles
    /// (e.g. [`CachedOracle`] with a thread-safe source) override this to
    /// answer the whole batch at once; implementations must preserve the
    /// sequential path's observable semantics — same labels, same budget
    /// accounting, same error at the same position — for every runtime
    /// configuration.
    fn label_batch_native(&mut self, _indices: &[usize]) -> Option<Result<Vec<bool>, SupgError>> {
        None
    }

    /// Applies an execution runtime (worker-pool width and batch size).
    ///
    /// Sessions forward their `.parallelism(n).batch_size(b)` settings here
    /// before running a query. The default is a no-op so plain sequential
    /// oracles are unaffected.
    fn configure_runtime(&mut self, _runtime: RuntimeConfig) {}

    /// Retry-accounting totals of this oracle stack (see
    /// [`crate::fault`]). The default reports zeros — plain oracles never
    /// retry; [`ResilientOracle`](crate::fault::ResilientOracle) overrides
    /// this, and sessions diff it around a query to attribute retries,
    /// permanent failures and backoff to one
    /// [`QueryOutcome`](crate::session::QueryOutcome).
    fn retry_stats(&self) -> RetryStats {
        RetryStats::default()
    }
}

/// Forwarding impl so oracle wrappers (the [`crate::fault`] layer, the
/// serving layer) can compose over a mutable borrow — e.g. wrap a caller's
/// `&mut dyn SessionOracle` without taking ownership.
impl<O: Oracle + ?Sized> Oracle for &mut O {
    fn label(&mut self, index: usize) -> Result<bool, SupgError> {
        (**self).label(index)
    }

    fn calls_used(&self) -> usize {
        (**self).calls_used()
    }

    fn budget(&self) -> usize {
        (**self).budget()
    }

    fn label_batch_native(&mut self, indices: &[usize]) -> Option<Result<Vec<bool>, SupgError>> {
        (**self).label_batch_native(indices)
    }

    fn configure_runtime(&mut self, runtime: RuntimeConfig) {
        (**self).configure_runtime(runtime);
    }

    fn retry_stats(&self) -> RetryStats {
        (**self).retry_stats()
    }
}

/// Batched labeling, the interface the whole query pipeline uses.
///
/// Blanket-implemented for every [`Oracle`]: by default a batch is labeled
/// record by record through [`Oracle::label`] (bit-for-bit the historical
/// sequential path); oracles that implement
/// [`Oracle::label_batch_native`] — notably [`CachedOracle`] with a
/// thread-safe source — answer the batch through the
/// [`crate::runtime`] worker pool instead.
///
/// ## Determinism contract
///
/// A batch-native source must be a *pure function of the record index*: the
/// label may not depend on call order or interleaving. Under that contract
/// `label_batch` returns identical labels, identical budget accounting and
/// identical errors for every `parallelism`/`batch_size` setting, which is
/// what makes [`QueryOutcome`](crate::session::QueryOutcome)s reproducible
/// across thread counts.
pub trait BatchOracle: Oracle {
    /// Labels every record in `indices` (duplicates allowed — cached labels
    /// are free), in input order.
    ///
    /// # Errors
    /// As [`Oracle::label`]: budget exhaustion or an out-of-range index.
    /// On error, all records *before* the failing position have been
    /// labeled and cached, exactly as the sequential loop would leave them.
    fn label_batch(&mut self, indices: &[usize]) -> Result<Vec<bool>, SupgError>;
}

impl<O: Oracle + ?Sized> BatchOracle for O {
    fn label_batch(&mut self, indices: &[usize]) -> Result<Vec<bool>, SupgError> {
        // Charge the whole request — native or fallback — to the thread's
        // labeling clock: this is the single choke point every pipeline
        // stage labels through, so the diff a session takes around a
        // query measures oracle time and nothing else.
        let _frame = labeling_clock::Frame::enter();
        if let Some(native) = self.label_batch_native(indices) {
            return native;
        }
        indices.iter().map(|&i| self.label(i)).collect()
    }
}

/// The labeling callback behind a [`CachedOracle`].
///
/// `Serial` sources (arbitrary `FnMut`) are labeled one record at a time;
/// `Shared` sources (`Fn + Sync`) additionally support batch-parallel
/// labeling on the [`crate::runtime`] worker pool.
enum Source {
    Serial(Box<dyn FnMut(usize) -> bool + Send>),
    Shared(Box<dyn Fn(usize) -> bool + Send + Sync>),
}

/// Records per page of a [`LabelTable`].
const PAGE_RECORDS: usize = 1 << 12;

/// Two-bit states per `u64` word.
const STATES_PER_WORD: usize = 32;

/// One page: 4Ki two-bit states, 1 KiB.
type Page = [u64; PAGE_RECORDS / STATES_PER_WORD];

/// What the label cache knows about one record (two bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LabelState {
    Unknown = 0,
    False = 1,
    True = 2,
    /// A miss of the batch being labeled; resolved to `False`/`True`
    /// (or back to `Unknown` if the source panics) before it returns.
    Planned = 3,
}

impl LabelState {
    fn known(label: bool) -> Self {
        if label {
            Self::True
        } else {
            Self::False
        }
    }

    fn label(self) -> Option<bool> {
        match self {
            Self::False => Some(false),
            Self::True => Some(true),
            Self::Unknown | Self::Planned => None,
        }
    }
}

/// The [`CachedOracle`] label cache: two bits per record in 4Ki-record
/// pages, allocated on first touch (see the module docs).
struct LabelTable {
    /// Page `p` covers records `p * PAGE_RECORDS ..`; `None` until a
    /// record on it is first written.
    pages: Vec<Option<Box<Page>>>,
    /// Pages the oracle's records span: the directory never grows past
    /// this.
    max_pages: usize,
}

impl LabelTable {
    fn new(len: usize) -> Self {
        Self {
            pages: Vec::new(),
            max_pages: len.div_ceil(PAGE_RECORDS),
        }
    }

    #[inline]
    fn get(&self, index: usize) -> LabelState {
        let Some(Some(page)) = self.pages.get(index / PAGE_RECORDS) else {
            return LabelState::Unknown;
        };
        let slot = index % PAGE_RECORDS;
        match (page[slot / STATES_PER_WORD] >> (2 * (slot % STATES_PER_WORD))) & 3 {
            0 => LabelState::Unknown,
            1 => LabelState::False,
            2 => LabelState::True,
            _ => LabelState::Planned,
        }
    }

    /// Writes `index`'s state. The caller has checked `index < len`.
    #[inline]
    fn set(&mut self, index: usize, state: LabelState) {
        let p = index / PAGE_RECORDS;
        if !matches!(self.pages.get(p), Some(Some(_))) {
            self.touch(p);
        }
        let page = self.pages[p].as_mut().expect("page allocated above");
        let slot = index % PAGE_RECORDS;
        let shift = 2 * (slot % STATES_PER_WORD);
        let word = &mut page[slot / STATES_PER_WORD];
        *word = (*word & !(3 << shift)) | ((state as u64) << shift);
    }

    /// Allocates page `p`, first growing the directory to reach it.
    #[cold]
    #[inline(never)]
    fn touch(&mut self, p: usize) {
        if p >= self.pages.len() {
            // Amortized growth, capped at the pages `len` spans, so the
            // directory never holds more than 8 B per 4Ki records.
            let want = (p + 1).max(2 * self.pages.len()).min(self.max_pages);
            self.pages.reserve_exact(want - self.pages.len());
            self.pages.resize_with(p + 1, || None);
        }
        // `vec!` of zeros allocates zeroed memory directly, with no 1 KiB
        // stack temporary.
        let page = vec![0; PAGE_RECORDS / STATES_PER_WORD]
            .into_boxed_slice()
            .try_into()
            .expect("one page of words");
        self.pages[p] = Some(page);
    }

    /// Ascending indices of the records in state `True`.
    fn positives(&self) -> Vec<usize> {
        const LOW_BITS: u64 = 0x5555_5555_5555_5555;
        let mut out = Vec::new();
        for (p, page) in self.pages.iter().enumerate() {
            let Some(page) = page else { continue };
            for (w, &word) in page.iter().enumerate() {
                // `True` is 0b10: high bit set, low bit clear.
                let mut hits = (word >> 1) & !word & LOW_BITS;
                while hits != 0 {
                    let slot = w * STATES_PER_WORD + hits.trailing_zeros() as usize / 2;
                    out.push(p * PAGE_RECORDS + slot);
                    hits &= hits - 1;
                }
            }
        }
        out
    }
}

/// The misses of one batch, marked [`LabelState::Planned`] in the table
/// until [`resolve`](PlannedBatch::resolve) writes their labels. If the
/// source panics first, dropping the batch puts them back to `Unknown`,
/// so a planned entry never outlives its batch.
struct PlannedBatch<'t> {
    table: &'t mut LabelTable,
    misses: Vec<usize>,
}

impl PlannedBatch<'_> {
    fn resolve(mut self, labels: &[bool]) {
        for (&index, &label) in self.misses.iter().zip(labels) {
            self.table.set(index, LabelState::known(label));
        }
        self.misses.clear();
    }
}

impl Drop for PlannedBatch<'_> {
    fn drop(&mut self) {
        for &index in &self.misses {
            self.table.set(index, LabelState::Unknown);
        }
    }
}

/// A budgeted oracle wrapping a user-provided labeling function, with a
/// label cache so repeated draws of the same record are free.
///
/// Construct with [`CachedOracle::new`] for an arbitrary (`FnMut`)
/// callback, or with [`CachedOracle::parallel`] /
/// [`CachedOracle::from_labels`] for a thread-safe source that can label
/// batches on the worker pool configured via
/// [`CachedOracle::with_runtime`] (or a session's
/// `.parallelism(n).batch_size(b)`).
///
/// The cache is a paged bit table keyed by the full record index: two
/// bits per record (unknown / false / true / planned) in 1 KiB pages of
/// 4Ki records, allocated on first touch. It costs 1 KiB per touched
/// page plus 8 B of directory per 4Ki records up to the highest page
/// touched — at most about 250 KB over 10⁶ records (see the
/// [module docs](crate::oracle)).
pub struct CachedOracle {
    source: Source,
    len: usize,
    labels: LabelTable,
    used: usize,
    budget: usize,
    runtime: RuntimeConfig,
}

impl std::fmt::Debug for CachedOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedOracle")
            .field("len", &self.len)
            .field("used", &self.used)
            .field("budget", &self.budget)
            .field("runtime", &self.runtime)
            .field(
                "source",
                match self.source {
                    Source::Serial(_) => &"Serial",
                    Source::Shared(_) => &"Shared",
                },
            )
            .finish_non_exhaustive()
    }
}

impl CachedOracle {
    /// Wraps a labeling callback over a dataset of `len` records.
    ///
    /// The callback may be an arbitrary `FnMut`, so this oracle labels
    /// strictly sequentially; use [`CachedOracle::parallel`] for a
    /// thread-safe source that can exploit a worker pool.
    pub fn new(
        len: usize,
        budget: usize,
        source: impl FnMut(usize) -> bool + Send + 'static,
    ) -> Self {
        Self {
            source: Source::Serial(Box::new(source)),
            len,
            labels: LabelTable::new(len),
            used: 0,
            budget,
            runtime: RuntimeConfig::default(),
        }
    }

    /// Wraps a thread-safe labeling function that batches can call
    /// concurrently from the [`crate::runtime`] worker pool.
    ///
    /// The source must be a pure function of the record index (see the
    /// [`BatchOracle`] determinism contract). The oracle starts with the
    /// sequential [`RuntimeConfig`]; raise the pool width via
    /// [`with_runtime`](CachedOracle::with_runtime) or a session's
    /// `.parallelism(n)`.
    pub fn parallel(
        len: usize,
        budget: usize,
        source: impl Fn(usize) -> bool + Send + Sync + 'static,
    ) -> Self {
        Self {
            source: Source::Shared(Box::new(source)),
            len,
            labels: LabelTable::new(len),
            used: 0,
            budget,
            runtime: RuntimeConfig::default(),
        }
    }

    /// Oracle backed by a pre-materialized ground-truth label column (the
    /// common case for the simulated datasets). Batch-parallel capable.
    pub fn from_labels(labels: Vec<bool>, budget: usize) -> Self {
        let len = labels.len();
        Self::parallel(len, budget, move |i| labels[i])
    }

    /// Sets the execution runtime (worker-pool width, batch size) used by
    /// batch labeling when the source is thread-safe.
    pub fn with_runtime(mut self, runtime: RuntimeConfig) -> Self {
        self.runtime = runtime;
        self
    }

    /// The currently configured execution runtime.
    pub fn runtime(&self) -> RuntimeConfig {
        self.runtime
    }

    /// Replaces the budget (e.g. the JT pipeline lifts the limit for its
    /// exhaustive filtering stage). Already-consumed calls are kept.
    pub fn set_budget(&mut self, budget: usize) {
        self.budget = budget;
    }

    /// Returns the cached label for `index` without consuming budget, if
    /// that record has been labeled before.
    pub fn cached(&self, index: usize) -> Option<bool> {
        self.labels.get(index).label()
    }

    /// Record indices labeled so far that turned out positive.
    pub fn known_positives(&self) -> Vec<usize> {
        self.labels.positives()
    }

    /// Heap bytes held by the label cache: the directory's capacity plus
    /// the allocated pages.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        let pages = &self.labels.pages;
        pages.capacity() * std::mem::size_of::<Option<Box<Page>>>()
            + pages.iter().flatten().count() * std::mem::size_of::<Page>()
    }
}

/// One step of the sequential labeling loop: `index`'s cached label, or
/// one budgeted call of `source` whose answer is cached.
#[inline(always)]
fn label_one(
    labels: &mut LabelTable,
    used: &mut usize,
    budget: usize,
    len: usize,
    index: usize,
    source: impl FnOnce(usize) -> bool,
) -> Result<bool, SupgError> {
    if index >= len {
        return Err(SupgError::IndexOutOfRange { index, len });
    }
    if let Some(cached) = labels.get(index).label() {
        return Ok(cached);
    }
    if *used >= budget {
        return Err(SupgError::BudgetExhausted { budget });
    }
    let label = source(index);
    labels.set(index, LabelState::known(label));
    *used += 1;
    Ok(label)
}

/// Walks `indices` in order and marks the distinct cache misses that fit
/// in the remaining budget planned, mirroring exactly where the
/// sequential loop would stop: the returned error (if any) is what
/// record-by-record labeling would have hit, after caching everything
/// before it.
fn plan_batch<'t>(
    table: &'t mut LabelTable,
    indices: &[usize],
    len: usize,
    used: usize,
    budget: usize,
) -> (PlannedBatch<'t>, Option<SupgError>) {
    let mut batch = PlannedBatch {
        table,
        misses: Vec::new(),
    };
    for &idx in indices {
        if idx >= len {
            return (batch, Some(SupgError::IndexOutOfRange { index: idx, len }));
        }
        if batch.table.get(idx) != LabelState::Unknown {
            continue;
        }
        if used + batch.misses.len() >= budget {
            return (batch, Some(SupgError::BudgetExhausted { budget }));
        }
        batch.table.set(idx, LabelState::Planned);
        batch.misses.push(idx);
    }
    (batch, None)
}

impl Oracle for CachedOracle {
    fn label(&mut self, index: usize) -> Result<bool, SupgError> {
        let (labels, used) = (&mut self.labels, &mut self.used);
        let (budget, len) = (self.budget, self.len);
        match &mut self.source {
            Source::Serial(f) => label_one(labels, used, budget, len, index, f),
            Source::Shared(f) => label_one(labels, used, budget, len, index, f),
        }
    }

    fn calls_used(&self) -> usize {
        self.used
    }

    fn budget(&self) -> usize {
        self.budget
    }

    fn label_batch_native(&mut self, indices: &[usize]) -> Option<Result<Vec<bool>, SupgError>> {
        // Serial (FnMut) sources cannot be called from worker threads; let
        // the blanket impl label them record by record.
        let CachedOracle {
            source: Source::Shared(source),
            len,
            labels,
            used,
            budget,
            runtime,
        } = self
        else {
            return None;
        };
        // With no workers to hand misses to, the batch is the sequential
        // loop itself: no planning pass and no miss list.
        if runtime.is_sequential() {
            let mut out = Vec::with_capacity(indices.len());
            for &index in indices {
                match label_one(labels, used, *budget, *len, index, &**source) {
                    Ok(label) => out.push(label),
                    Err(e) => return Some(Err(e)),
                }
            }
            return Some(Ok(out));
        }
        let (batch, err) = plan_batch(labels, indices, *len, *used, *budget);
        // The misses are distinct uncached records within budget; their
        // labels are a pure function of the index, so the pool may compute
        // them in any order.
        let fresh = parallel_map(runtime, &batch.misses, |&i| source(i));
        *used += fresh.len();
        batch.resolve(&fresh);
        if let Some(e) = err {
            return Some(Err(e));
        }
        Some(Ok(indices
            .iter()
            .map(|&i| labels.get(i) == LabelState::True)
            .collect()))
    }

    fn configure_runtime(&mut self, runtime: RuntimeConfig) {
        self.runtime = runtime;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_counts() {
        let mut o = CachedOracle::from_labels(vec![true, false, true], 10);
        assert!(o.label(0).unwrap());
        assert!(!o.label(1).unwrap());
        assert_eq!(o.calls_used(), 2);
        assert_eq!(o.remaining(), 8);
    }

    #[test]
    fn cache_hits_are_free() {
        let mut o = CachedOracle::from_labels(vec![true, false], 1);
        assert!(o.label(0).unwrap());
        for _ in 0..5 {
            assert!(o.label(0).unwrap());
        }
        assert_eq!(o.calls_used(), 1);
        assert_eq!(o.cached(0), Some(true));
        assert_eq!(o.cached(1), None);
    }

    #[test]
    fn budget_is_enforced() {
        let mut o = CachedOracle::from_labels(vec![false; 5], 2);
        o.label(0).unwrap();
        o.label(1).unwrap();
        assert_eq!(
            o.label(2).unwrap_err(),
            SupgError::BudgetExhausted { budget: 2 }
        );
        // Cached records remain accessible after exhaustion.
        assert!(!o.label(1).unwrap());
    }

    #[test]
    fn out_of_range_is_reported() {
        let mut o = CachedOracle::from_labels(vec![true], 5);
        assert_eq!(
            o.label(7).unwrap_err(),
            SupgError::IndexOutOfRange { index: 7, len: 1 }
        );
        // A failed lookup must not consume budget.
        assert_eq!(o.calls_used(), 0);
    }

    #[test]
    fn known_positives_are_sorted() {
        let mut o = CachedOracle::from_labels(vec![true, false, true, true], 10);
        o.label(3).unwrap();
        o.label(1).unwrap();
        o.label(0).unwrap();
        assert_eq!(o.known_positives(), vec![0, 3]);
    }

    #[test]
    fn set_budget_extends_capacity() {
        let mut o = CachedOracle::from_labels(vec![false; 4], 1);
        o.label(0).unwrap();
        assert!(o.label(1).is_err());
        o.set_budget(3);
        assert!(o.label(1).is_ok());
        assert_eq!(o.remaining(), 1);
    }

    #[test]
    fn closure_oracle_works() {
        let mut o = CachedOracle::new(100, 10, |i| i % 3 == 0);
        assert!(o.label(9).unwrap());
        assert!(!o.label(10).unwrap());
    }

    #[test]
    fn batch_labels_match_sequential_for_every_runtime() {
        let labels: Vec<bool> = (0..512).map(|i| i % 7 == 0).collect();
        let indices: Vec<usize> = (0..400).map(|i| (i * 13) % 512).collect();
        let mut sequential = CachedOracle::new(512, 512, {
            let labels = labels.clone();
            move |i| labels[i]
        });
        let expected = sequential.label_batch(&indices).unwrap();
        for parallelism in [1, 2, 8] {
            for batch_size in [1, 3, 64, 1024] {
                let mut o = CachedOracle::from_labels(labels.clone(), 512).with_runtime(
                    RuntimeConfig::default()
                        .with_parallelism(parallelism)
                        .with_batch_size(batch_size),
                );
                let got = o.label_batch(&indices).unwrap();
                assert_eq!(
                    got, expected,
                    "parallelism={parallelism} batch_size={batch_size}"
                );
                assert_eq!(o.calls_used(), sequential.calls_used());
            }
        }
    }

    #[test]
    fn batch_duplicates_charge_budget_once() {
        let mut o = CachedOracle::from_labels(vec![true, false, true], 2)
            .with_runtime(RuntimeConfig::default().with_parallelism(4));
        let got = o.label_batch(&[2, 2, 0, 2, 0]).unwrap();
        assert_eq!(got, vec![true, true, true, true, true]);
        assert_eq!(o.calls_used(), 2);
    }

    #[test]
    fn batch_budget_exhaustion_matches_sequential_state() {
        let labels = vec![true; 10];
        // Sequential reference: label one by one until the error.
        let mut seq = CachedOracle::new(10, 3, |_| true);
        let indices = [0usize, 1, 1, 2, 3, 4];
        let seq_err = indices
            .iter()
            .map(|&i| seq.label(i))
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        // Parallel batch must surface the same error with the same cache
        // and budget state.
        for parallelism in [1, 4] {
            let mut o = CachedOracle::from_labels(labels.clone(), 3)
                .with_runtime(RuntimeConfig::default().with_parallelism(parallelism));
            let err = o.label_batch(&indices).unwrap_err();
            assert_eq!(err, seq_err);
            assert_eq!(o.calls_used(), seq.calls_used());
            assert_eq!(o.cached(2), Some(true));
            assert_eq!(o.cached(3), None, "past-error record must stay unlabeled");
        }
    }

    #[test]
    fn batch_out_of_range_matches_sequential_state() {
        let mut o = CachedOracle::from_labels(vec![true, false], 10)
            .with_runtime(RuntimeConfig::default().with_parallelism(4));
        let err = o.label_batch(&[0, 9, 1]).unwrap_err();
        assert_eq!(err, SupgError::IndexOutOfRange { index: 9, len: 2 });
        // Record 0 (before the bad index) was labeled; record 1 was not.
        assert_eq!(o.calls_used(), 1);
        assert_eq!(o.cached(0), Some(true));
        assert_eq!(o.cached(1), None);
    }

    #[test]
    fn native_partial_failure_contract_holds_on_the_parallel_path() {
        // The documented BatchOracle contract: "on error, all records
        // *before* the failing position have been labeled and cached,
        // exactly as the sequential loop would leave them." Pin it on the
        // batch-native path under real pool parallelism with batch sizes
        // small enough that one request spans many worker batches, with
        // duplicates in the request, for both error kinds.
        let labels: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        // Duplicates early (cache hits, charged once) and a long tail.
        let mut indices: Vec<usize> = vec![5, 9, 5, 9, 2];
        indices.extend(0..40);

        // Sequential reference for the budget-exhaustion shape.
        let budget = 17;
        let mut seq = CachedOracle::new(64, budget, {
            let labels = labels.clone();
            move |i| labels[i]
        });
        let seq_err = indices
            .iter()
            .map(|&i| seq.label(i))
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();

        for parallelism in [2, 4, 8] {
            for batch_size in [1, 3, 7] {
                let runtime = RuntimeConfig::default()
                    .with_parallelism(parallelism)
                    .with_batch_size(batch_size);
                let mut o = CachedOracle::from_labels(labels.clone(), budget).with_runtime(runtime);
                let err = o.label_batch(&indices).unwrap_err();
                assert_eq!(err, seq_err, "p={parallelism} b={batch_size}");
                assert_eq!(o.calls_used(), seq.calls_used());
                // Record-by-record cache state equals the sequential
                // loop's: everything before the failing position labeled,
                // nothing after it.
                for i in 0..64 {
                    assert_eq!(
                        o.cached(i),
                        seq.cached(i),
                        "record {i} diverges at p={parallelism} b={batch_size}"
                    );
                }

                // Out-of-range mid-batch: prefix labeled, suffix not.
                let mut o = CachedOracle::from_labels(labels.clone(), 64).with_runtime(runtime);
                let err = o.label_batch(&[3, 3, 8, 99, 11]).unwrap_err();
                assert_eq!(err, SupgError::IndexOutOfRange { index: 99, len: 64 });
                assert_eq!(o.calls_used(), 2);
                assert_eq!(o.cached(3), Some(true));
                assert_eq!(o.cached(8), Some(false));
                assert_eq!(o.cached(11), None, "past-error record labeled");
            }
        }
    }

    #[test]
    fn serial_sources_fall_back_to_per_record_labeling() {
        // A stateful FnMut source: only expressible as a Serial oracle.
        let mut seen = Vec::new();
        let mut o = CachedOracle::new(8, 8, move |i| {
            seen.push(i);
            i % 2 == 0
        });
        // No native path for FnMut sources…
        assert!(o.label_batch_native(&[0, 1]).is_none());
        // …but the blanket batch API still works.
        assert_eq!(o.label_batch(&[0, 1, 2]).unwrap(), vec![true, false, true]);
        assert_eq!(o.calls_used(), 3);
    }

    #[test]
    fn cache_keys_are_full_record_indices() {
        // Two records, one labeled: no index past `len` reads as cached,
        // least of all one that agrees with record 0 in its low 32 bits.
        let mut o = CachedOracle::from_labels(vec![true, false], 10);
        assert!(o.label(0).unwrap());
        for i in [2, 1 << 20, usize::MAX] {
            assert_eq!(o.cached(i), None, "record {i}");
        }
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn records_past_u32_range_are_labeled_and_charged_separately() {
        // Record 2³² + k must call the oracle and pay for it, not reuse
        // record k's label — on the per-record and both batch paths.
        let far = 1usize << 32;
        let mut o = CachedOracle::from_labels(vec![true, false], 10);
        assert!(o.label(0).unwrap());
        assert_eq!(o.cached(far), None);

        let truth = move |i: usize| i < far;
        let serial = CachedOracle::new(far * 2, 10, truth);
        let shared = CachedOracle::parallel(far * 2, 10, truth);
        for (name, mut o) in [("serial", serial), ("shared", shared)] {
            assert!(o.label(5).unwrap());
            assert!(!o.label(far + 5).unwrap(), "{name}");
            assert_eq!(o.calls_used(), 2, "{name}");
            assert_eq!(o.cached(far + 5), Some(false), "{name}");
            for parallelism in [1, 4] {
                o.configure_runtime(RuntimeConfig::default().with_parallelism(parallelism));
                let got = o.label_batch(&[7, far + 7 + parallelism]).unwrap();
                assert_eq!(got, vec![true, false], "{name} p={parallelism}");
            }
            assert_eq!(o.calls_used(), 5, "{name}");
            assert_eq!(o.known_positives(), vec![5, 7], "{name}");
        }
    }

    #[test]
    fn cache_memory_stays_within_its_bound() {
        // 1,000 labels spread over 10⁹ records: 1,000 pages plus the
        // directory up to the highest page touched (≈ 3 MB).
        let n = 1_000_000_000;
        let spread: Vec<usize> = (0..1_000).map(|k| k * (n / 1_000) + k).collect();
        let mut o = CachedOracle::new(n, 1_000, |i| i % 3 == 0);
        o.label_batch(&spread).unwrap();
        assert_eq!(o.calls_used(), 1_000);
        assert!(o.heap_bytes() <= 4_000_000, "{} bytes", o.heap_bytes());

        // A joint-query-sized filter batch touching every page of a
        // 10⁶-record corpus: 245 pages of 1 KiB plus 2 KB of directory.
        let n = 1_000_000;
        let candidates: Vec<usize> = (0..n).step_by(8).collect();
        let mut o = CachedOracle::parallel(n, usize::MAX, |i| i % 3 == 0);
        o.label_batch(&candidates).unwrap();
        assert_eq!(o.calls_used(), candidates.len());
        assert!(o.heap_bytes() <= 260_000, "{} bytes", o.heap_bytes());
    }

    #[test]
    fn a_panicking_source_leaves_no_planned_records() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut o = CachedOracle::parallel(64, 64, |i| {
            assert_ne!(i, 13, "source fails on record 13");
            i % 2 == 0
        })
        .with_runtime(
            RuntimeConfig::default()
                .with_parallelism(4)
                .with_batch_size(1),
        );
        let crashed = catch_unwind(AssertUnwindSafe(|| o.label_batch(&[1, 2, 13, 4])));
        assert!(crashed.is_err());
        // Nothing of the crashed batch is cached or charged, and the
        // records it planned label normally afterwards.
        assert_eq!(o.calls_used(), 0);
        for i in 0..64 {
            assert_eq!(o.cached(i), None, "record {i}");
        }
        assert_eq!(o.label_batch(&[1, 2, 4]).unwrap(), vec![false, true, true]);
        assert_eq!(o.calls_used(), 3);
    }

    #[test]
    fn configure_runtime_applies_session_settings() {
        let mut o = CachedOracle::from_labels(vec![true; 4], 4);
        assert!(o.runtime().is_sequential());
        o.configure_runtime(RuntimeConfig::default().with_parallelism(8));
        assert_eq!(o.runtime().parallelism, 8);
    }
}

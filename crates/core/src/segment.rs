//! Segmented datasets: fixed-size segments, each owning its scores and
//! rank index, answering global queries over the union with **no merged
//! global rank structure**.
//!
//! At 10⁸–10⁹ records one global sort is the longest serial step of the
//! cold path, and the chunk-parallel builds of the flat path spend their
//! multicore win re-merging sorted runs into a single allocation.
//! [`SegmentedDataset`] splits the corpus into fixed-size segments (the
//! layout BlazeIt's partitioned scans and Willump's staged cascades use
//! for the same reason): each segment is an ordinary [`ScoredDataset`]
//! whose [`RankIndex`](crate::rank::RankIndex) is built **fully in parallel with the others and
//! never merged**. Global queries are answered over the union:
//!
//! * `|D(τ)|` ([`count_at_least`](SegmentedDataset::count_at_least)) —
//!   one binary search per segment, summed.
//! * Threshold-set materialization
//!   ([`stitched_prefix`](SegmentedDataset::stitched_prefix),
//!   [`materialize`](SegmentedDataset::materialize)) — a k-way merge
//!   over the segment rank heads: each segment contributes its `D(τ)`
//!   rank *prefix*, and a binary heap stitches the prefixes in canonical
//!   order by the same packed `(score desc, index asc)` keys the flat
//!   sort uses.
//! * Membership — a score comparison against `τ`, with no rank at all.
//! * Order statistics ([`kth_highest_score`](SegmentedDataset::kth_highest_score),
//!   [`top_k`](SegmentedDataset::top_k)) — a binary search over the f64
//!   bit space driven by the exact integer `count_at_least`.
//!
//! Because canonical rank order is a **strict total order** (descending
//! score, ties by ascending global index — and a segment's local order is
//! its global order restricted to the segment, offsets preserving the
//! tie-break), every one of these answers is *bit-identical* to the flat
//! [`RankIndex`](crate::rank::RankIndex) over the concatenated scores, at every segment size and
//! every parallelism setting (pinned by `tests/segmented_parity.rs`).
//!
//! The sampling artifacts are not split: the importance distribution is
//! one distribution over all of `D`, so a segmented corpus gets one
//! weight array and one alias table or CDF per recipe, like a flat one
//! ([`WeightArtifacts::build`](crate::prepared::WeightArtifacts::build)
//! powers each segment's scores as one pool job and concatenates the
//! pieces). Seeded draws are therefore identical across layouts under
//! every sampler.
//!
//! [`Corpus`] is the borrowed either-flat-or-segmented view the selector
//! and sampling layers work against, so one code path serves both
//! layouts.

use std::sync::Arc;

use crate::data::ScoredDataset;
use crate::error::SupgError;
use crate::rank;

use crate::runtime::{cpu_workers, parallel_map, RuntimeConfig};

/// A proxy-scored corpus stored as fixed-size segments, each owning its
/// own lazily built [`RankIndex`](crate::rank::RankIndex). See the [module docs](self).
#[derive(Debug, Clone)]
pub struct SegmentedDataset {
    segments: Vec<Arc<ScoredDataset>>,
    /// The fixed segment size (every segment but the last has exactly
    /// this many records).
    segment_size: usize,
    /// Global offset of each segment's first record.
    offsets: Vec<usize>,
    len: usize,
}

impl SegmentedDataset {
    /// Splits `scores` into fixed-size segments and validates each (same
    /// score contract as [`ScoredDataset::new`]). Rank indexes are built
    /// lazily per segment — serially on first use, or eagerly in parallel
    /// via [`prepare`](Self::prepare).
    ///
    /// # Errors
    /// [`SupgError::EmptyDataset`] for zero records;
    /// [`SupgError::InvalidScore`] (with the **global** record index) if
    /// any score is non-finite or outside `[0, 1]`;
    /// [`SupgError::InvalidQuery`] for `segment_size == 0` or more than
    /// `u32::MAX` records.
    pub fn new(scores: Vec<f64>, segment_size: usize) -> Result<Self, SupgError> {
        if segment_size == 0 {
            return Err(SupgError::InvalidQuery(
                "segment_size must be positive".to_owned(),
            ));
        }
        if scores.is_empty() {
            return Err(SupgError::EmptyDataset);
        }
        let mut chunks = Vec::with_capacity(scores.len().div_ceil(segment_size));
        let mut rest = scores;
        while rest.len() > segment_size {
            let tail = rest.split_off(segment_size);
            chunks.push(rest);
            rest = tail;
        }
        chunks.push(rest);
        Self::from_chunks(chunks)
    }

    /// Assembles a segmented dataset from pre-split score chunks — the
    /// segment-aligned loading path (`supg-datasets`' CSV reader emits
    /// chunks in this shape). Every chunk but the last must have the same
    /// length (the fixed segment size).
    ///
    /// # Errors
    /// As [`new`](Self::new), plus [`SupgError::InvalidQuery`] when the
    /// chunks are not segment-aligned (unequal non-final chunk, empty
    /// chunk).
    pub fn from_chunks(chunks: Vec<Vec<f64>>) -> Result<Self, SupgError> {
        if chunks.is_empty() {
            return Err(SupgError::EmptyDataset);
        }
        let segment_size = chunks[0].len();
        let mut offsets = Vec::with_capacity(chunks.len());
        let mut segments = Vec::with_capacity(chunks.len());
        let mut base = 0usize;
        let last = chunks.len() - 1;
        for (c, chunk) in chunks.into_iter().enumerate() {
            if chunk.is_empty() {
                return Err(SupgError::InvalidQuery(format!(
                    "segment {c} is empty; segments must be non-empty"
                )));
            }
            if chunk.len() != segment_size && c != last || chunk.len() > segment_size {
                return Err(SupgError::InvalidQuery(format!(
                    "segment {c} has {} records; expected the fixed segment size {segment_size} \
                     (only the final segment may be shorter)",
                    chunk.len()
                )));
            }
            let seg = ScoredDataset::new(chunk).map_err(|e| match e {
                // Re-anchor the per-segment index to the global record.
                SupgError::InvalidScore { index, value } => SupgError::InvalidScore {
                    index: base + index,
                    value,
                },
                other => other,
            })?;
            offsets.push(base);
            base += seg.len();
            segments.push(Arc::new(seg));
        }
        if base > u32::MAX as usize {
            return Err(SupgError::InvalidQuery(
                "datasets above u32::MAX records are unsupported".to_owned(),
            ));
        }
        Ok(Self {
            segments,
            segment_size,
            offsets,
            len: base,
        })
    }

    /// Total records across all segments.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the corpus has no records (construction forbids this, so
    /// this is always false; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// The fixed segment size (the last segment may be shorter).
    pub fn segment_size(&self) -> usize {
        self.segment_size
    }

    /// The segments, in global order.
    pub fn segments(&self) -> &[Arc<ScoredDataset>] {
        &self.segments
    }

    /// Segment `c`.
    pub fn segment(&self, c: usize) -> &ScoredDataset {
        &self.segments[c]
    }

    /// Global offset of segment `c`'s first record.
    pub fn offset(&self, c: usize) -> usize {
        self.offsets[c]
    }

    /// Maps a global record index to `(segment, local index)`.
    pub fn locate(&self, i: usize) -> (usize, usize) {
        debug_assert!(i < self.len, "record {i} out of range {}", self.len);
        let c = self.offsets.partition_point(|&o| o <= i) - 1;
        (c, i - self.offsets[c])
    }

    /// Proxy score of global record `i`.
    pub fn score(&self, i: usize) -> f64 {
        let (c, local) = self.locate(i);
        self.segments[c].score(local)
    }

    /// Builds every segment's rank index **in parallel** on the worker
    /// pool — one segment per worker, each built independently, merged
    /// never. A no-op for segments already built; results are identical
    /// to the lazy serial builds (the per-segment sort is deterministic).
    pub fn prepare(&self, rt: &RuntimeConfig) -> &Self {
        let pool = RuntimeConfig::default()
            .with_parallelism(cpu_workers(rt.parallelism))
            .with_batch_size(1);
        parallel_map(&pool, &self.segments, |seg| {
            seg.rank_index();
        });
        self
    }

    /// Number of records with `A(x) ≥ tau`, i.e. `|D(τ)|` — one binary
    /// search per segment, summed. O(k log segment_size), bit-identical
    /// to the flat count.
    pub fn count_at_least(&self, tau: f64) -> usize {
        self.segments
            .iter()
            .map(|seg| seg.rank_index().cut_for(tau))
            .sum()
    }

    /// The `k`-th highest score (1-indexed; `k` clamped to `[1, n]`),
    /// found **without any global sorted array**: a binary search over
    /// the f64 bit space (scores are validated into `[0, 1]`, where bit
    /// order is value order) driven by the exact integer
    /// [`count_at_least`](Self::count_at_least). ≤ 63 probes, each
    /// O(k log segment_size); bit-identical to the flat
    /// [`RankIndex::kth_highest_score`](crate::rank::RankIndex::kth_highest_score) (which normalizes `-0.0` to
    /// `+0.0`, as the packed keys do).
    pub fn kth_highest_score(&self, k: usize) -> f64 {
        let k = k.clamp(1, self.len);
        let mut lo = 0u64;
        let mut hi = 1.0f64.to_bits();
        if self.count_at_least(f64::from_bits(hi)) >= k {
            return 1.0;
        }
        // Invariant: count_at_least(from_bits(lo)) ≥ k > count_at_least(from_bits(hi)).
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.count_at_least(f64::from_bits(mid)) >= k {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        f64::from_bits(lo)
    }

    /// The threshold set `D(τ)` as global record indices in canonical
    /// order, produced by a **k-way merge over the segment rank heads**:
    /// each segment contributes its `D(τ)` rank prefix (a binary search,
    /// no scan), and a min-heap on the packed global keys stitches the
    /// prefixes. O(k log segment_size + |D(τ)| log k); bit-identical to
    /// the flat rank-prefix slice.
    pub fn stitched_prefix(&self, tau: f64) -> Vec<u32> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let cuts: Vec<usize> = self
            .segments
            .iter()
            .map(|seg| seg.rank_index().cut_for(tau))
            .collect();
        let total: usize = cuts.iter().sum();
        let mut out = Vec::with_capacity(total);
        // Heap of (packed key, segment, position-in-segment-prefix): the
        // packed key's low 32 bits are the global record index, so the
        // popped key *is* the output.
        let mut heap: BinaryHeap<Reverse<(u128, usize, usize)>> =
            BinaryHeap::with_capacity(self.segments.len());
        for (c, &cut) in cuts.iter().enumerate() {
            if cut > 0 {
                heap.push(Reverse((self.head_key(c, 0), c, 0)));
            }
        }
        while let Some(Reverse((key, c, pos))) = heap.pop() {
            out.push(key as u32);
            let next = pos + 1;
            if next < cuts[c] {
                heap.push(Reverse((self.head_key(c, next), c, next)));
            }
        }
        out
    }

    /// The packed global key of the record at rank `pos` within segment
    /// `c` — the same `(score desc, global index asc)` key the flat sort
    /// orders by, so heap order is canonical global order.
    fn head_key(&self, c: usize, pos: usize) -> u128 {
        let idx = self.segments[c].rank_index();
        let local = idx.order()[pos] as usize;
        rank::key(idx.sorted_scores()[pos], (self.offsets[c] + local) as u32)
    }

    /// Materializes `D(τ)` as owned `usize` indices in canonical order —
    /// the segmented counterpart of [`RankIndex::materialize`](crate::rank::RankIndex::materialize).
    pub fn materialize(&self, tau: f64) -> Vec<usize> {
        self.stitched_prefix(tau)
            .into_iter()
            .map(|i| i as usize)
            .collect()
    }

    /// The top-`k` record indices by score (`k` clamped to `[1, n]`),
    /// including any records tied with the `k`-th score — exactly `D(τ)`
    /// for `τ` = the `k`-th highest score, in canonical order.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        self.materialize(self.kth_highest_score(k))
    }
}

/// A borrowed corpus view — flat or segmented — that the selector,
/// sampling and executor layers query uniformly. `Copy`, like the record
/// handles it stands in for; both layouts answer every method with
/// bit-identical results (see the [module docs](self)).
#[derive(Debug, Clone, Copy)]
pub enum Corpus<'a> {
    /// One contiguous [`ScoredDataset`] with a global [`RankIndex`](crate::rank::RankIndex).
    Flat(&'a ScoredDataset),
    /// Fixed-size segments, each with its own rank index.
    Segmented(&'a SegmentedDataset),
}

impl<'a> From<&'a ScoredDataset> for Corpus<'a> {
    fn from(data: &'a ScoredDataset) -> Self {
        Corpus::Flat(data)
    }
}

impl<'a> From<&'a SegmentedDataset> for Corpus<'a> {
    fn from(data: &'a SegmentedDataset) -> Self {
        Corpus::Segmented(data)
    }
}

impl Corpus<'_> {
    /// Number of records.
    pub fn len(&self) -> usize {
        match self {
            Corpus::Flat(d) => d.len(),
            Corpus::Segmented(d) => d.len(),
        }
    }

    /// True when the corpus has no records (construction forbids this, so
    /// this is always false; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Proxy score of record `i`.
    pub fn score(&self, i: usize) -> f64 {
        match self {
            Corpus::Flat(d) => d.score(i),
            Corpus::Segmented(d) => d.score(i),
        }
    }

    /// Number of records with `A(x) ≥ tau`, i.e. `|D(τ)|`.
    pub fn count_at_least(&self, tau: f64) -> usize {
        match self {
            Corpus::Flat(d) => d.count_at_least(tau),
            Corpus::Segmented(d) => d.count_at_least(tau),
        }
    }

    /// The `k`-th highest score (1-indexed; `k` clamped to `[1, n]`).
    pub fn kth_highest_score(&self, k: usize) -> f64 {
        match self {
            Corpus::Flat(d) => d.kth_highest_score(k),
            Corpus::Segmented(d) => d.kth_highest_score(k),
        }
    }

    /// The top-`k` record indices by score (ties at the `k`-th score
    /// included), in canonical order.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        match self {
            Corpus::Flat(d) => d.top_k(k).iter().map(|&i| i as usize).collect(),
            Corpus::Segmented(d) => d.top_k(k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ResultView;

    fn tied_scores(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7) % 10) as f64 / 10.0).collect()
    }

    fn flat_and_segmented(n: usize, segment_size: usize) -> (ScoredDataset, SegmentedDataset) {
        let scores = tied_scores(n);
        (
            ScoredDataset::new(scores.clone()).unwrap(),
            SegmentedDataset::new(scores, segment_size).unwrap(),
        )
    }

    #[test]
    fn construction_validates_and_segments() {
        let seg = SegmentedDataset::new(tied_scores(10), 3).unwrap();
        assert_eq!(seg.len(), 10);
        assert_eq!(seg.num_segments(), 4);
        assert_eq!(seg.segment_size(), 3);
        assert_eq!(seg.segment(3).len(), 1);
        assert_eq!(seg.offset(2), 6);
        assert_eq!(seg.locate(7), (2, 1));
        assert!(!seg.is_empty());
        assert!(matches!(
            SegmentedDataset::new(vec![], 4),
            Err(SupgError::EmptyDataset)
        ));
        assert!(matches!(
            SegmentedDataset::new(vec![0.5], 0),
            Err(SupgError::InvalidQuery(_))
        ));
        // Bad score reported with its global index.
        let mut scores = tied_scores(10);
        scores[7] = f64::NAN;
        assert!(matches!(
            SegmentedDataset::new(scores, 3),
            Err(SupgError::InvalidScore { index: 7, .. })
        ));
    }

    #[test]
    fn from_chunks_requires_alignment() {
        assert!(SegmentedDataset::from_chunks(vec![vec![0.1, 0.2], vec![0.3]]).is_ok());
        assert!(matches!(
            SegmentedDataset::from_chunks(vec![vec![0.1], vec![0.2, 0.3]]),
            Err(SupgError::InvalidQuery(_))
        ));
        assert!(matches!(
            SegmentedDataset::from_chunks(vec![vec![0.1], vec![]]),
            Err(SupgError::InvalidQuery(_))
        ));
        assert!(matches!(
            SegmentedDataset::from_chunks(vec![]),
            Err(SupgError::EmptyDataset)
        ));
    }

    #[test]
    fn global_queries_match_flat_at_every_segment_size() {
        let n = 501;
        for segment_size in [1, 7, 64, n / 3, n, 2 * n] {
            let (flat, seg) = flat_and_segmented(n, segment_size);
            for i in 0..n {
                assert_eq!(seg.score(i), flat.score(i), "score {i}");
            }
            for tau in [-0.5, 0.0, 0.15, 0.3, 0.7, 0.9, 1.0, 1.5] {
                assert_eq!(
                    seg.count_at_least(tau),
                    flat.count_at_least(tau),
                    "count tau={tau} seg_size={segment_size}"
                );
                assert_eq!(
                    seg.materialize(tau),
                    flat.rank_index().materialize(tau),
                    "materialize tau={tau} seg_size={segment_size}"
                );
            }
            for k in [0, 1, 2, 50, n, n + 9] {
                assert_eq!(
                    seg.kth_highest_score(k).to_bits(),
                    flat.kth_highest_score(k).to_bits(),
                    "kth k={k} seg_size={segment_size}"
                );
                let flat_top: Vec<usize> = flat.top_k(k).iter().map(|&i| i as usize).collect();
                assert_eq!(
                    seg.top_k(k),
                    flat_top,
                    "top_k k={k} seg_size={segment_size}"
                );
            }
            let extras = [0, 3, 250, 500];
            for tau in [0.0, 0.3, 0.9, 1.5] {
                let mut reference = rank::materialize_linear(flat.scores(), tau);
                reference.extend(extras.iter().filter(|&&i| flat.score(i) < tau));
                assert_eq!(
                    ResultView::over(&seg, tau, &extras).to_result().indices(),
                    reference,
                    "union tau={tau} seg_size={segment_size}"
                );
            }
        }
    }

    #[test]
    fn prepare_builds_in_parallel_with_identical_results() {
        let n = 40_000;
        let lazy = SegmentedDataset::new(tied_scores(n), 1 << 12).unwrap();
        for parallelism in [1, 4, 8] {
            let eager = SegmentedDataset::new(tied_scores(n), 1 << 12).unwrap();
            eager.prepare(&RuntimeConfig::default().with_parallelism(parallelism));
            for c in 0..lazy.num_segments() {
                assert_eq!(
                    lazy.segment(c).rank_index(),
                    eager.segment(c).rank_index(),
                    "segment {c} parallelism={parallelism}"
                );
            }
        }
    }

    #[test]
    fn corpus_views_agree() {
        let (flat, seg) = flat_and_segmented(200, 33);
        let fc = Corpus::from(&flat);
        let sc = Corpus::from(&seg);
        assert_eq!(fc.len(), sc.len());
        assert!(!fc.is_empty());
        for i in [0, 7, 150, 199] {
            assert_eq!(fc.score(i), sc.score(i));
        }
        assert_eq!(fc.count_at_least(0.5), sc.count_at_least(0.5));
        assert_eq!(
            fc.kth_highest_score(10).to_bits(),
            sc.kth_highest_score(10).to_bits()
        );
        assert_eq!(fc.top_k(10), sc.top_k(10));
    }

    #[test]
    fn negative_zero_scores_rank_like_positive_zero() {
        let flat = ScoredDataset::new(vec![-0.0, 0.5, 0.0]).unwrap();
        let seg = SegmentedDataset::new(vec![-0.0, 0.5, 0.0], 2).unwrap();
        assert_eq!(seg.materialize(0.0), flat.rank_index().materialize(0.0));
        assert_eq!(seg.count_at_least(0.0), 3);
        assert_eq!(seg.kth_highest_score(2).to_bits(), 0.0f64.to_bits());
    }
}

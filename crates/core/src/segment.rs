//! Segmented construction: a corpus handed over as fixed-size segments.
//!
//! A corpus is often produced segment by segment (one proxy pass per
//! shard or per file), and a serving layer may want to keep the segment
//! size it was given. [`SegmentedDataset`] is the constructor for that
//! case, **not** a second layout: it validates the concatenated scores
//! (reporting a bad score with its global record index), records the
//! segment size, and holds one ordinary [`ScoredDataset`]. Its
//! [`prepare`](SegmentedDataset::prepare) is the flat
//! [`prepare_rank_index`](ScoredDataset::prepare_rank_index): one
//! planner-calibrated [`RankIndex::build`](crate::rank::RankIndex::build),
//! whose chunked sort already runs in parallel and merges its runs once.
//!
//! Every query therefore takes the flat path: `|D(τ)|` is one binary
//! search, the threshold set is a zero-copy prefix of the one rank order,
//! and the sampling artifacts are the flat builds. A segmented dataset
//! derefs to its [`ScoredDataset`], so it is accepted wherever a flat
//! one is (`SupgSession::over(&seg)`, `ResultView::over(&seg, …)`,
//! `OracleSample::label(&seg, …)`), and its answers are the flat answers
//! bit for bit (pinned by `tests/segmented_parity.rs`).
//!
//! [`Corpus`] survives only as the return type of
//! [`PreparedDataset::corpus`](crate::prepared::PreparedDataset::corpus),
//! which always returns [`Corpus::Flat`].

use std::ops::Deref;

use crate::data::ScoredDataset;
use crate::error::SupgError;
use crate::runtime::RuntimeConfig;

/// A proxy-scored corpus constructed from fixed-size segments: one flat
/// [`ScoredDataset`] plus the segment size. Derefs to the dataset, so
/// `len`, `is_empty`, `scores` and every query accessor are the flat
/// ones. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct SegmentedDataset {
    pub(crate) data: ScoredDataset,
    segment_size: usize,
}

impl SegmentedDataset {
    /// Validates `scores` as one corpus of `segment_size`-record
    /// segments (same score contract as [`ScoredDataset::new`]). The rank
    /// index is built lazily on first use, or on the worker pool by
    /// [`prepare`](Self::prepare).
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
        Ok(Self {
            data: ScoredDataset::new(scores)?,
            segment_size,
        })
    }

    /// Number of segments (the last may be shorter than the others).
    pub fn num_segments(&self) -> usize {
        self.data.len().div_ceil(self.segment_size)
    }

    /// The fixed segment size (the last segment may be shorter).
    pub fn segment_size(&self) -> usize {
        self.segment_size
    }

    /// Builds the corpus's one rank index on the worker pool — the flat
    /// [`ScoredDataset::prepare_rank_index`]; a no-op when already built.
    pub fn prepare(&self, rt: &RuntimeConfig) -> &Self {
        self.data.prepare_rank_index(rt);
        self
    }
}

impl Deref for SegmentedDataset {
    type Target = ScoredDataset;

    fn deref(&self) -> &ScoredDataset {
        &self.data
    }
}

/// The corpus a [`PreparedDataset`](crate::prepared::PreparedDataset)
/// serves, as returned by its
/// [`corpus`](crate::prepared::PreparedDataset::corpus) accessor — always
/// [`Flat`](Corpus::Flat), since every constructor yields one flat
/// dataset. Kept only because the `perfbench` harness matches on both
/// variants; it is deleted together with that call.
#[derive(Debug, Clone, Copy)]
pub enum Corpus<'a> {
    /// One contiguous [`ScoredDataset`] with a global
    /// [`RankIndex`](crate::rank::RankIndex).
    Flat(&'a ScoredDataset),
    /// Never constructed.
    Segmented(&'a SegmentedDataset),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_and_segments() {
        let scores: Vec<f64> = (0..10).map(|i| ((i * 7) % 10) as f64 / 10.0).collect();
        let seg = SegmentedDataset::new(scores.clone(), 3).unwrap();
        assert_eq!(seg.len(), 10);
        assert_eq!(seg.num_segments(), 4);
        assert_eq!(seg.segment_size(), 3);
        assert!(!seg.is_empty());
        assert_eq!(seg.scores(), &scores[..]);
        assert!(matches!(
            SegmentedDataset::new(vec![], 4),
            Err(SupgError::EmptyDataset)
        ));
        assert!(matches!(
            SegmentedDataset::new(vec![0.5], 0),
            Err(SupgError::InvalidQuery(_))
        ));
        // Bad score reported with its global index.
        let mut bad = scores;
        bad[7] = f64::NAN;
        assert!(matches!(
            SegmentedDataset::new(bad, 3),
            Err(SupgError::InvalidScore { index: 7, .. })
        ));
    }

    #[test]
    fn negative_zero_scores_rank_like_positive_zero() {
        let flat = ScoredDataset::new(vec![-0.0, 0.5, 0.0]).unwrap();
        let seg = SegmentedDataset::new(vec![-0.0, 0.5, 0.0], 2).unwrap();
        seg.prepare(&RuntimeConfig::default().with_parallelism(4));
        assert_eq!(
            seg.rank_index().materialize(0.0),
            flat.rank_index().materialize(0.0)
        );
        assert_eq!(seg.count_at_least(0.0), 3);
        assert_eq!(seg.kth_highest_score(2).to_bits(), 0.0f64.to_bits());
    }
}

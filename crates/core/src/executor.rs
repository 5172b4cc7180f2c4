//! The SUPG selection result of Algorithm 1.
//!
//! ```text
//! function SUPGQuery(D, A, O):
//!     S  ← SampleOracle(D)
//!     τ  ← EstimateTau(S)
//!     R1 ← {x ∈ S : O(x) = 1}
//!     R2 ← {x ∈ D : A(x) ≥ τ}
//!     return R1 ∪ R2
//! ```
//!
//! The pipeline itself lives in [`crate::session`]; this module keeps the
//! result-set types: the owned [`SelectionResult`] and the borrowed
//! [`ResultView`] over the corpus, which serves huge `τ`-sets without
//! the O(k) materialization copy. (The `SupgExecutor` compatibility shim
//! that used to live here was deprecated for one release and has been
//! removed — run queries through [`crate::session::SupgSession`].)

use std::sync::OnceLock;

use crate::data::ScoredDataset;
use crate::rank;

pub use crate::session::QueryOutcome;

/// The record set returned by a query: deduplicated indices in **result
/// order**.
///
/// Since the rank-index serving path landed, query pipelines return the
/// threshold set `R2 = D(τ)` in canonical rank order (descending proxy
/// score — i.e. ranked, best candidates first) followed by the
/// below-threshold labeled positives `R1 \ R2` in ascending index order,
/// assembled duplicate-free in O(k) without any per-query sort
/// ([`from_ranked`](SelectionResult::from_ranked)). The
/// order-normalizing [`from_indices`](SelectionResult::from_indices)
/// constructor (ascending) remains for callers that assemble indices
/// themselves.
///
/// Indices are `usize` record positions — result sets never truncate, even
/// though [`crate::data::ScoredDataset`] itself caps datasets at
/// `u32::MAX` records for its compact rank index.
///
/// For huge `τ`-sets the borrowed [`ResultView`] serves the same records
/// without materializing this owned form at all.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    indices: Vec<usize>,
    /// Ascending shadow of `indices`, built lazily on the first
    /// [`contains`](SelectionResult::contains) call so repeated
    /// membership tests are O(log len) instead of the linear scan the
    /// rank-ordered result layout would otherwise force.
    sorted: OnceLock<Vec<usize>>,
}

impl PartialEq for SelectionResult {
    fn eq(&self, other: &Self) -> bool {
        // The membership shadow is a cache, not state.
        self.indices == other.indices
    }
}

impl Eq for SelectionResult {}

impl SelectionResult {
    /// Builds a result set from (possibly unsorted, duplicated) indices,
    /// normalizing to ascending order.
    pub fn from_indices(mut indices: Vec<usize>) -> Self {
        indices.sort_unstable();
        indices.dedup();
        Self {
            indices,
            sorted: OnceLock::new(),
        }
    }

    /// Wraps indices that are already duplicate-free, preserving their
    /// order — the O(k) constructor of the rank-index serving path, whose
    /// prefix-slice + below-cut-extras assembly is duplicate-free by
    /// construction ([`ResultView::to_result`]).
    pub fn from_ranked(indices: Vec<usize>) -> Self {
        debug_assert!(
            {
                let mut seen = indices.clone();
                seen.sort_unstable();
                seen.windows(2).all(|w| w[0] != w[1])
            },
            "from_ranked: duplicate indices"
        );
        Self {
            indices,
            sorted: OnceLock::new(),
        }
    }

    /// Number of returned records.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when no records were returned.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Record indices in result order (see the type docs).
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Membership test: a binary search over an ascending shadow of the
    /// indices, built once on the first call — O(len log len) then, and
    /// O(log len) for every test after, replacing the per-call linear
    /// scan the rank-canonical result order used to force. (A
    /// [`ResultView`] answers the same question with a score comparison
    /// and no shadow, when the view is still available.)
    pub fn contains(&self, index: usize) -> bool {
        let sorted = self.sorted.get_or_init(|| {
            let mut shadow = self.indices.clone();
            shadow.sort_unstable();
            shadow
        });
        sorted.binary_search(&index).is_ok()
    }

    /// Iterates the returned record indices in result order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.indices.iter().copied()
    }
}

/// A borrowed query result over a [`ScoredDataset`]: the threshold set
/// `D(τ)` as a rank-prefix **slice** borrowed zero-copy from the
/// dataset's [`RankIndex`](crate::rank::RankIndex), plus the below-cut
/// labeled positives as a small owned tail.
///
/// This is the streaming form of a query answer — `R = D(τ) ∪ R1` exactly
/// as [`SelectionResult`] holds it, in the same canonical order
/// (threshold set best-first, then below-`τ` positives ascending), but
/// with the O(k) prefix materialization deferred until a caller actually
/// wants owned indices ([`to_result`](ResultView::to_result)). Sessions
/// produce it via
/// [`SupgSession::run_view`](crate::session::SupgSession::run_view);
/// membership is a score comparison against `τ` — a record is in `D(τ)`
/// iff its score is `≥ τ` — so no rank lookup is needed.
#[derive(Debug, Clone)]
pub struct ResultView<'a> {
    data: &'a ScoredDataset,
    /// The threshold the view was cut at.
    tau: f64,
    /// The threshold-set prefix in canonical order, borrowed from the
    /// rank index. Its length is `|D(τ)|` (pre-filter, for filtered
    /// views).
    prefix: &'a [u32],
    /// Labeled positives below the cut — ascending, duplicate-free,
    /// disjoint from the prefix by construction. For filtered views,
    /// only the positives that survived the filter.
    extras: Vec<usize>,
    /// For filtered (joint-query) views: the ascending prefix positions
    /// of candidates that survived oracle filtering. `None` means the
    /// whole prefix is in the result (the RT/PT form).
    kept: Option<Vec<u32>>,
}

impl<'a> ResultView<'a> {
    /// Builds the view for threshold `tau` over `data`, keeping from
    /// `positives` (ascending, deduplicated record indices — a
    /// labeled-positive set) only the records below the cut, i.e. with
    /// score `< τ`. O(log n) for the cut plus O(|positives|) for the
    /// filter — independent of `|D(τ)|`.
    ///
    /// # Panics
    /// Panics if a positive index is out of range for the dataset.
    pub fn over(data: &'a ScoredDataset, tau: f64, positives: &[usize]) -> Self {
        let extras = positives
            .iter()
            .copied()
            .filter(|&i| data.score(i) < tau)
            .collect();
        Self {
            data,
            tau,
            prefix: data.select(tau),
            extras,
            kept: None,
        }
    }

    /// Narrows the view to the candidates the oracle labeled positive —
    /// the joint-query (JT) filtering step, streamed. `keep` aligns with
    /// this view's [`iter`](ResultView::iter) order: one flag per prefix
    /// candidate (canonical order), then one per extra. Kept prefix
    /// members are recorded as prefix positions — O(kept) memory, no
    /// owned copy of the surviving record set — and dropped extras are
    /// removed in place.
    ///
    /// # Panics
    /// Panics if `keep.len() != self.len()` or the view is already
    /// filtered.
    pub fn retain(mut self, keep: &[bool]) -> Self {
        assert!(
            self.kept.is_none(),
            "ResultView::retain: view is already filtered"
        );
        assert_eq!(
            keep.len(),
            self.len(),
            "ResultView::retain: one keep flag per result member"
        );
        let (prefix_keep, extras_keep) = keep.split_at(self.threshold_len());
        let kept = prefix_keep
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k)
            .map(|(pos, _)| pos as u32)
            .collect();
        let mut survives = extras_keep.iter();
        self.extras.retain(|_| *survives.next().expect("aligned"));
        self.kept = Some(kept);
        self
    }

    /// True when the view carries a joint-query oracle filter
    /// ([`retain`](ResultView::retain)) on top of the threshold cut.
    pub fn is_filtered(&self) -> bool {
        self.kept.is_some()
    }

    /// Number of returned records.
    pub fn len(&self) -> usize {
        let prefix = match &self.kept {
            Some(kept) => kept.len(),
            None => self.threshold_len(),
        };
        prefix + self.extras.len()
    }

    /// True when no records were returned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the threshold set `D(τ)` (the rank-prefix part) —
    /// **pre-filter** for filtered views, i.e. the candidate count the
    /// joint query handed to the oracle, not the survivors.
    pub fn threshold_len(&self) -> usize {
        self.prefix.len()
    }

    /// The threshold set as the rank-prefix slice (record indices in
    /// canonical order), borrowed zero-copy from the rank index. For filtered
    /// views this is still the **pre-filter** candidate prefix; the
    /// surviving members are what [`iter`](ResultView::iter) walks.
    pub fn tau_prefix(&self) -> &[u32] {
        self.prefix
    }

    /// The below-cut labeled positives (ascending record indices).
    pub fn extras(&self) -> &[usize] {
        &self.extras
    }

    /// Membership test: a score comparison against `τ` decides between
    /// the prefix and the (small) extras tail, which is binary-searched.
    /// A filtered view additionally finds the record's prefix position by
    /// binary search on the packed canonical key, then searches the kept
    /// positions — O(log k) in all.
    pub fn contains(&self, index: usize) -> bool {
        if index >= self.data.len() {
            return false;
        }
        let score = self.data.score(index);
        if score < self.tau {
            return self.extras.binary_search(&index).is_ok();
        }
        match &self.kept {
            Some(kept) => {
                let key = rank::key(score, index as u32);
                let pos = self
                    .prefix
                    .partition_point(|&j| rank::key(self.data.score(j as usize), j) < key);
                // Ascending by construction (built in prefix order).
                kept.binary_search(&(pos as u32)).is_ok()
            }
            None => true,
        }
    }

    /// Iterates the record indices in result order (threshold set — or
    /// its filter survivors — best-first, then the below-cut positives
    /// ascending) — exactly the order [`SelectionResult::indices`] would
    /// hold.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let prefix = self.prefix;
        let walk: Box<dyn Iterator<Item = usize> + '_> = match &self.kept {
            Some(kept) => Box::new(kept.iter().map(move |&p| prefix[p as usize] as usize)),
            None => Box::new(prefix.iter().map(|&i| i as usize)),
        };
        walk.chain(self.extras.iter().copied())
    }

    /// The record indices in [`iter`](ResultView::iter) order as one
    /// owned vector, allocated once at [`len`](ResultView::len) and filled
    /// by typed `extend`s of the prefix (or its kept positions) and the
    /// extras — the materialization [`to_result`](ResultView::to_result)
    /// and the joint query's candidate batch share.
    pub fn to_vec(&self) -> Vec<usize> {
        let prefix = self.prefix;
        let mut out = Vec::with_capacity(self.len());
        match &self.kept {
            Some(kept) => out.extend(kept.iter().map(|&p| prefix[p as usize] as usize)),
            None => out.extend(prefix.iter().map(|&i| i as usize)),
        }
        out.extend_from_slice(&self.extras);
        out
    }

    /// Materializes the owned [`SelectionResult`] — the one O(k) copy
    /// this view exists to defer, bit-identical to what the non-streaming
    /// pipeline returns.
    pub fn to_result(&self) -> SelectionResult {
        SelectionResult::from_ranked(self.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::CachedOracle;
    use crate::segment::SegmentedDataset;
    use crate::session::{SelectorKind, SupgSession};

    fn separable(n: usize) -> (ScoredDataset, Vec<bool>) {
        let scores: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let labels: Vec<bool> = scores.iter().map(|&s| s > 0.8).collect();
        (ScoredDataset::new(scores).unwrap(), labels)
    }

    #[test]
    fn selection_result_dedupes_and_sorts() {
        let r = SelectionResult::from_indices(vec![5, 1, 5, 3]);
        assert_eq!(r.indices(), &[1, 3, 5]);
        assert_eq!(r.len(), 3);
        assert!(r.contains(3));
        assert!(!r.contains(4));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn from_ranked_preserves_result_order() {
        let r = SelectionResult::from_ranked(vec![9, 2, 5, 1]);
        assert_eq!(r.indices(), &[9, 2, 5, 1]);
        assert!(r.contains(5));
        assert!(!r.contains(4));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![9, 2, 5, 1]);
    }

    #[test]
    fn contains_searches_rank_ordered_results_correctly() {
        // Regression: since the PR 4 rank-order change, `contains` scanned
        // the whole (rank-ordered, not index-sorted) result linearly. The
        // binary-searched membership shadow must answer identically over a
        // rank-ordered layout — hits in the prefix, hits in the extras
        // tail, misses between and outside — and stay correct after
        // clones.
        let prefix = vec![907usize, 13, 440, 2, 551]; // descending-score order
        let extras = vec![60usize, 75, 902]; // ascending below-cut positives
        let mut ranked = prefix.clone();
        ranked.extend_from_slice(&extras);
        let r = SelectionResult::from_ranked(ranked);
        for &i in prefix.iter().chain(&extras) {
            assert!(r.contains(i), "lost member {i}");
        }
        for miss in [0usize, 3, 14, 61, 550, 552, 903, 908, 10_000] {
            assert!(!r.contains(miss), "phantom member {miss}");
        }
        // Equality ignores the lazily built shadow; clones answer alike.
        let clone = r.clone();
        assert_eq!(clone, r);
        assert!(clone.contains(440) && !clone.contains(441));
        // And the indices order is untouched by membership queries.
        assert_eq!(r.indices()[..5], prefix[..]);
    }

    #[test]
    fn selection_result_holds_indices_beyond_u32() {
        // Regression: indices used to be silently cast to u32.
        let big = u32::MAX as usize + 7;
        let r = SelectionResult::from_indices(vec![big, 1]);
        assert!(r.contains(big));
        assert_eq!(r.indices(), &[1, big]);
    }

    #[test]
    fn retain_filters_prefix_and_extras_in_iter_order() {
        // 10 records, scores ascending with index ⇒ rank order is 9,8,…,0.
        let data = ScoredDataset::new((0..10).map(|i| i as f64 / 10.0).collect()).unwrap();
        // τ = 0.7 ⇒ prefix = records 9,8,7; extras = positives below τ.
        let view = ResultView::over(&data, 0.7, &[2, 4]);
        assert_eq!(view.iter().collect::<Vec<_>>(), vec![9, 8, 7, 2, 4]);
        assert!(!view.is_filtered());

        // Keep flags align with iter order: drop 8 and 2.
        let filtered = view.retain(&[true, false, true, false, true]);
        assert!(filtered.is_filtered());
        assert_eq!(filtered.iter().collect::<Vec<_>>(), vec![9, 7, 4]);
        assert_eq!(filtered.len(), 3);
        // threshold_len stays the pre-filter candidate count.
        assert_eq!(filtered.threshold_len(), 3);
        assert_eq!(filtered.tau_prefix(), &[9, 8, 7]);
        for (idx, expect) in [
            (9, true),
            (8, false),
            (7, true),
            (2, false),
            (4, true),
            (0, false),
            (10, false),
        ] {
            assert_eq!(filtered.contains(idx), expect, "contains({idx})");
        }
        // Materialization matches the subsequence the old owned path kept.
        assert_eq!(
            filtered.to_result(),
            SelectionResult::from_ranked(vec![9, 7, 4])
        );
    }

    // `from_ranked` trusts its input to be duplicate-free (the rank-index
    // serving path guarantees it by construction); in debug builds the
    // constructor still cross-checks. Audited callers: `ResultView::
    // to_result` (prefix ∪ disjoint extras), the sampler-parity harness,
    // and these unit tests — all duplicate-free by construction.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "from_ranked: duplicate indices")]
    fn from_ranked_rejects_duplicates_in_debug() {
        let _ = SelectionResult::from_ranked(vec![3, 1, 3]);
    }

    #[test]
    fn flat_and_segmented_views_agree() {
        // Scores with cross-segment ties: a segmented construction serves
        // the flat tie-break (ascending index) exactly.
        let scores: Vec<f64> = (0..64).map(|i| ((i * 7) % 10) as f64 / 10.0).collect();
        let data = ScoredDataset::new(scores.clone()).unwrap();
        let seg = SegmentedDataset::new(scores, 5).unwrap();
        let positives = [1usize, 4, 9, 33, 60];
        for tau in [0.0, 0.25, 0.5, 0.7, 0.95, 1.0] {
            let flat = ResultView::over(&data, tau, &positives);
            let segd = ResultView::over(&seg, tau, &positives);
            assert_eq!(flat.threshold_len(), segd.threshold_len(), "tau={tau}");
            assert_eq!(flat.tau_prefix(), segd.tau_prefix(), "tau={tau}");
            assert_eq!(flat.extras(), segd.extras(), "tau={tau}");
            assert_eq!(
                flat.iter().collect::<Vec<_>>(),
                segd.iter().collect::<Vec<_>>(),
                "tau={tau}"
            );
            for i in 0..70 {
                assert_eq!(flat.contains(i), segd.contains(i), "tau={tau} i={i}");
            }
            assert_eq!(flat.to_result(), segd.to_result(), "tau={tau}");
        }
    }

    #[test]
    #[should_panic(expected = "one keep flag per result member")]
    fn retain_rejects_misaligned_keep_flags() {
        let data = ScoredDataset::new((0..4).map(|i| i as f64 / 4.0).collect()).unwrap();
        let view = ResultView::over(&data, 0.5, &[]);
        let _ = view.retain(&[true]);
    }

    // Migrated from the removed `SupgExecutor` shim's test suite: the
    // Algorithm-1 union property, now exercised through the session.
    #[test]
    fn session_unions_positives_with_threshold_set() {
        let (data, labels) = separable(10_000);
        let mut oracle = CachedOracle::from_labels(labels.clone(), 1_000);
        let outcome = SupgSession::over(&data)
            .recall(0.9)
            .budget(1_000)
            .selector(SelectorKind::Uniform)
            .seed(55)
            .run(&mut oracle)
            .unwrap();
        // Every sampled positive is in the result even if below τ.
        for i in outcome.result.iter() {
            let in_threshold = data.score(i) >= outcome.tau;
            let is_known_positive = labels[i];
            assert!(in_threshold || is_known_positive);
        }
        assert!(outcome.oracle_calls <= 1_000);
        assert_eq!(outcome.sample_draws, 1_000);
        assert_eq!(outcome.selector, "U-CI-R");
    }

    #[test]
    fn session_runs_naive_selectors() {
        let (data, labels) = separable(5_000);
        let mut oracle = CachedOracle::from_labels(labels, 500);
        let outcome = SupgSession::over(&data)
            .recall(0.9)
            .budget(500)
            .selector(SelectorKind::UniformNoCi)
            .seed(56)
            .run(&mut oracle)
            .unwrap();
        assert!(!outcome.result.is_empty());
        assert_eq!(outcome.selector, "U-NoCI-R");
    }
}

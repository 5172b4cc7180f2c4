//! The oracle-labeled sample shared by all threshold selectors.

use rand::RngCore;
use supg_stats::{PairSketch, SampleSketch};

use crate::data::ScoredDataset;
use crate::error::SupgError;
use crate::oracle::{BatchOracle, Oracle};
use crate::prepared::WeightArtifacts;
use crate::rank;

/// A sample of records drawn for oracle labeling, with proxy scores, labels
/// and importance-reweighting factors `m(x) = u(x)/w(x)` (all 1 under
/// uniform sampling).
///
/// The paper's reweighted empirical recall (Equation 11) over this sample is
///
/// ```text
/// Recall_Sw(τ) = Σ 1[A(x) ≥ τ]·O(x)·m(x) / Σ O(x)·m(x)
/// ```
///
/// and the selectors' core subroutine `max{τ : Recall_Sw(τ) ≥ γ}` is
/// implemented here once, over the positives sorted by descending score.
///
/// ## The canonical sweep index
///
/// Assembly sorts the sample once into the *canonical order* — descending
/// score — and snapshots running [`PairSketch`] moments after every
/// element. Because every estimator window `{x : A(x) ≥ τ}` is a prefix of
/// the canonical order, any window's full moment sketch is an O(1) array
/// lookup ([`window_sketch`](OracleSample::window_sketch)), positive-mass
/// recall queries are O(log) binary searches over prefix sums, and the
/// threshold sweep in [`crate::selectors`] runs in O(s log s) total with
/// **zero allocation after sample assembly** (closed-form CI methods). All
/// derived quantities are accumulated left-to-right in canonical order, so
/// they are bit-identical to a naive rescan of the same order — the parity
/// contract checked against [`crate::selectors::reference`].
///
/// The canonical order is the dataset's own: ascending packed key
/// `(rank::key(score, index) << 32) | draw position` — descending score,
/// distinct records tied on score by ascending record index (the
/// [`RankIndex`](crate::rank::RankIndex) tie-break), and repeat draws of
/// one record by draw position. It is a strict total order over integer
/// keys, so the layout is deterministic and independent of how the
/// sample was built: [`label`](OracleSample::label) and
/// [`from_parts`](OracleSample::from_parts) produce equal samples from
/// equal columns.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleSample {
    indices: Vec<usize>,
    scores: Vec<f64>,
    labels: Vec<bool>,
    reweights: Vec<f64>,
    /// Sample positions in canonical (descending-score) order.
    order: Vec<u32>,
    /// Scores in canonical order (`sorted_scores[r] = scores[order[r]]`).
    sorted_scores: Vec<f64>,
    /// The indicator-weighted values `y = O·m` in canonical order — the
    /// contiguous feed of the fused split-sketch pass
    /// ([`z_sketches`](OracleSample::z_sketches)).
    y_canon: Vec<f64>,
    /// Running pair moments over the canonical order; `pair_prefix[k]` is
    /// the sketch of the first `k` elements, so `pair_prefix.len() = s+1`.
    pair_prefix: Vec<PairSketch>,
    /// Positions of positive samples in canonical order.
    positives_desc: Vec<usize>,
    /// Scores of the positives in canonical order (descending).
    positive_scores: Vec<f64>,
    /// Prefix sums of reweights over `positives_desc` (length p+1).
    positive_weight_prefix: Vec<f64>,
    /// Dataset indices of the positives, deduplicated and ascending.
    positive_indices: Vec<usize>,
    total_positive_weight: f64,
}

impl OracleSample {
    /// Labels `indices` through `oracle` as one batched request and
    /// assembles the sample with [`from_parts`](OracleSample::from_parts).
    /// The oracle chunks the request per its configured
    /// [`RuntimeConfig`](crate::runtime::RuntimeConfig) and may label cache
    /// misses on the [`crate::runtime`] worker pool.
    ///
    /// `reweight` maps a *position in `indices`* to the importance factor of
    /// the drawn record (uniform sampling passes `|_| 1.0`).
    ///
    /// # Errors
    /// Propagates oracle errors (budget exhaustion, bad indices).
    pub fn label(
        data: &ScoredDataset,
        indices: Vec<usize>,
        oracle: &mut dyn Oracle,
        reweight: impl FnMut(usize) -> f64,
    ) -> Result<Self, SupgError> {
        let labels = oracle.label_batch(&indices)?;
        let scores = indices.iter().map(|&i| data.score(i)).collect();
        let reweights = (0..indices.len()).map(reweight).collect();
        Ok(Self::from_parts(indices, scores, labels, reweights))
    }

    /// Assembles a sample from labeled columns, building the canonical
    /// sweep index: one O(s log s) sort of packed integer keys (see the
    /// [type docs](OracleSample)) plus O(s) prefix accumulation.
    ///
    /// # Panics
    /// Panics when column lengths disagree, on a negative or NaN score
    /// (the packed key orders only non-negative values), or on a record
    /// index above `u32::MAX`.
    pub fn from_parts(
        indices: Vec<usize>,
        scores: Vec<f64>,
        labels: Vec<bool>,
        reweights: Vec<f64>,
    ) -> Self {
        let s = indices.len();
        assert!(
            s == scores.len() && s == labels.len() && s == reweights.len(),
            "OracleSample: column length mismatch"
        );
        assert!(
            s <= u32::MAX as usize,
            "OracleSample: more than u32::MAX draws"
        );
        let mut keys: Vec<u128> = indices
            .iter()
            .zip(&scores)
            .enumerate()
            .map(|(pos, (&idx, &score))| {
                assert!(
                    score >= 0.0,
                    "OracleSample: score {score} of record {idx} is negative or NaN"
                );
                let idx = u32::try_from(idx).expect("OracleSample: record index above u32::MAX");
                (rank::key(score, idx) << 32) | pos as u128
            })
            .collect();
        keys.sort_unstable();
        let order: Vec<u32> = keys.into_iter().map(|k| k as u32).collect();
        let sorted_scores: Vec<f64> = order.iter().map(|&r| scores[r as usize]).collect();

        let mut y_canon = Vec::with_capacity(s);
        let mut pair_prefix = Vec::with_capacity(s + 1);
        let mut acc = PairSketch::new();
        pair_prefix.push(acc);
        let mut positives_desc = Vec::new();
        let mut positive_scores = Vec::new();
        let mut positive_weight_prefix = vec![0.0];
        let mut weight_acc = 0.0;
        for &r in &order {
            let pos = r as usize;
            let m = reweights[pos];
            let y = if labels[pos] { m } else { 0.0 };
            y_canon.push(y);
            acc.push(y, m);
            pair_prefix.push(acc);
            if labels[pos] {
                positives_desc.push(pos);
                positive_scores.push(scores[pos]);
                weight_acc += m;
                positive_weight_prefix.push(weight_acc);
            }
        }
        let total_positive_weight = weight_acc;

        let mut positive_indices: Vec<usize> =
            positives_desc.iter().map(|&pos| indices[pos]).collect();
        positive_indices.sort_unstable();
        positive_indices.dedup();

        Self {
            indices,
            scores,
            labels,
            reweights,
            order,
            sorted_scores,
            y_canon,
            pair_prefix,
            positives_desc,
            positive_scores,
            positive_weight_prefix,
            positive_indices,
            total_positive_weight,
        }
    }

    /// Number of sampled records (with multiplicity).
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when no records were sampled.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Dataset indices of the sampled records (with multiplicity).
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Proxy scores of the sampled records.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Oracle labels of the sampled records.
    pub fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// Importance factors `m(x)` of the sampled records.
    pub fn reweights(&self) -> &[f64] {
        &self.reweights
    }

    /// Number of positive samples.
    pub fn positive_count(&self) -> usize {
        self.positives_desc.len()
    }

    /// Dataset indices of the positively labeled samples (deduplicated,
    /// ascending) — the `R1` component of Algorithm 1. Computed once at
    /// assembly and served as a slice.
    pub fn positive_indices(&self) -> &[usize] {
        &self.positive_indices
    }

    /// Sampled scores in canonical (descending) order.
    pub fn sorted_scores(&self) -> &[f64] {
        &self.sorted_scores
    }

    /// Number of sampled records with score ≥ `tau` — the length of the
    /// canonical prefix that is the estimator window at `tau`.
    pub fn cut_for(&self, tau: f64) -> usize {
        self.sorted_scores.partition_point(|&s| s >= tau)
    }

    /// O(1) moment sketch of the window `{canonical rank < cut}` — the
    /// inputs to the ratio-estimator precision bound at the corresponding
    /// threshold.
    pub fn window_sketch(&self, cut: usize) -> PairSketch {
        self.pair_prefix[cut]
    }

    /// The `(y, x) = (O·m, m)` pair at canonical rank `rank`.
    pub fn pair_at(&self, rank: usize) -> (f64, f64) {
        let pos = self.order[rank] as usize;
        let m = self.reweights[pos];
        let y = if self.labels[pos] { m } else { 0.0 };
        (y, m)
    }

    /// The split-indicator value of Algorithms 2 and 4 at canonical rank
    /// `rank` for the window boundary `cut`: `z1 = 1[rank < cut]·O·m`
    /// when `above`, `z2 = 1[rank ≥ cut]·O·m` otherwise.
    pub fn z_value(&self, rank: usize, cut: usize, above: bool) -> f64 {
        let pos = self.order[rank] as usize;
        if (rank < cut) == above && self.labels[pos] {
            self.reweights[pos]
        } else {
            0.0
        }
    }

    /// Moment sketches of the full-length split indicators `z1`/`z2` at
    /// window boundary `cut`.
    ///
    /// Fused form: `z1` is the canonical `y` prefix padded with `s − cut`
    /// zeros and `z2` the suffix padded with `cut` zeros, so both sketches
    /// come from **one** combined pass over the contiguous
    /// `y_canon` array — each element is folded into exactly one sketch
    /// and the padding collapses to
    /// [`SampleSketch::absorb_zeros`] — instead of two full passes through
    /// the order/label/reweight indirection. Bit-identical to sketching
    /// the materialized vectors of [`recall_split`](OracleSample::recall_split)
    /// (zeros contribute exactly nothing to the sums; the parity is pinned
    /// by the naive-reference tests).
    pub fn z_sketches(&self, cut: usize) -> (SampleSketch, SampleSketch) {
        let s = self.len();
        let mut z1 = SampleSketch::from_values(self.y_canon[..cut].iter().copied());
        z1.absorb_zeros(s - cut);
        let mut z2 = SampleSketch::from_values(self.y_canon[cut..].iter().copied());
        z2.absorb_zeros(cut);
        (z1, z2)
    }

    /// Reweighted empirical recall at threshold `tau` (Equation 11).
    /// Returns 1.0 when the sample has no positives (vacuous).
    /// O(log p) via the positive prefix sums.
    pub fn recall_at(&self, tau: f64) -> f64 {
        if self.total_positive_weight <= 0.0 {
            return 1.0;
        }
        let k = self.positive_scores.partition_point(|&s| s >= tau);
        self.positive_weight_prefix[k] / self.total_positive_weight
    }

    /// The paper's `max{τ : Recall_Sw(τ) ≥ γ}`.
    ///
    /// A binary search over the positives' cumulative (reweighted) mass in
    /// canonical order: returns the score at which cumulative recall first
    /// reaches `γ`. Returns `None` when the sample contains no positives —
    /// the caller decides the conservative fallback (RT selectors return
    /// `τ = 0`, i.e. the whole dataset).
    pub fn max_tau_for_recall(&self, gamma: f64) -> Option<f64> {
        let p = self.positives_desc.len();
        if p == 0 || self.total_positive_weight <= 0.0 {
            return None;
        }
        // γ above 1 (a conservative γ′ clamped by the caller) or exactly 1
        // requires every positive: τ = lowest positive score.
        let target = gamma.min(1.0) * self.total_positive_weight;
        // Tiny epsilon so γ = 1.0 is not defeated by rounding. The prefix
        // is nondecreasing, so the predicate is monotone.
        let k = self.positive_weight_prefix[1..].partition_point(|&acc| acc + 1e-12 < target);
        Some(self.positive_scores[k.min(p - 1)])
    }

    /// Paired `(O·m, m)` observations for the samples with score ≥ `tau` —
    /// the inputs to the ratio-estimator precision bound, materialized in
    /// canonical order. The sweep estimators use
    /// [`window_sketch`](OracleSample::window_sketch) instead; this
    /// allocating form remains for inspection, tests and the naive
    /// reference implementations.
    pub fn precision_pairs(&self, tau: f64) -> (Vec<f64>, Vec<f64>) {
        let cut = self.cut_for(tau);
        let mut ys = Vec::with_capacity(cut);
        let mut xs = Vec::with_capacity(cut);
        for rank in 0..cut {
            let (y, x) = self.pair_at(rank);
            ys.push(y);
            xs.push(x);
        }
        (ys, xs)
    }

    /// The split indicator samples of Algorithms 2 and 4:
    /// `z1 = 1[A ≥ τ]·O·m` and `z2 = 1[A < τ]·O·m`, each of full sample
    /// length, materialized in canonical order. The sweep estimators use
    /// [`z_sketches`](OracleSample::z_sketches) instead.
    pub fn recall_split(&self, tau: f64) -> (Vec<f64>, Vec<f64>) {
        let cut = self.cut_for(tau);
        let s = self.len();
        let z1: Vec<f64> = (0..s).map(|r| self.z_value(r, cut, true)).collect();
        let z2: Vec<f64> = (0..s).map(|r| self.z_value(r, cut, false)).collect();
        (z1, z2)
    }

    /// Candidate thresholds for the precision estimators: the sampled
    /// scores sorted ascending, taken at positions `step, 2·step, …`
    /// (1-indexed), as in Algorithms 3 and 5. Deduplicated and capped at
    /// the sample size. Reads the canonical index — no per-call sort.
    pub fn candidate_thresholds(&self, step: usize) -> Vec<f64> {
        assert!(step > 0, "candidate_thresholds: step must be > 0");
        let s = self.len();
        let mut out = Vec::new();
        let mut i = step;
        while i <= s {
            // Ascending position i (1-indexed) = descending position s−i.
            out.push(self.sorted_scores[s - i]);
            i += step;
        }
        out.dedup();
        out
    }
}

/// Draws `k` records (with replacement) from prebuilt sampling artifacts
/// and labels them, attaching the artifacts' reweighting factors.
/// Convenience used by all importance selectors.
///
/// The weighted sampler — the O(1)-draw alias table or the cold-start
/// CDF fallback, per the artifacts' build — comes ready-made from the
/// [`WeightArtifacts`](crate::prepared::WeightArtifacts) — typically a
/// [`PreparedDataset`](crate::prepared::PreparedDataset) cache hit — so
/// repeated queries pay O(k) draws, never an O(n) table rebuild.
pub fn draw_weighted(
    data: &ScoredDataset,
    artifacts: &WeightArtifacts,
    k: usize,
    oracle: &mut dyn Oracle,
    rng: &mut dyn RngCore,
) -> Result<OracleSample, SupgError> {
    let sampler = artifacts.sampler();
    let indices: Vec<usize> = (0..k).map(|_| sampler.draw(rng)).collect();
    let factors: Vec<f64> = indices
        .iter()
        .map(|&i| artifacts.reweight_factor(i))
        .collect();
    OracleSample::label(data, indices, oracle, |pos| factors[pos])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::CachedOracle;

    fn sample() -> OracleSample {
        // scores:    .9  .8  .7  .6  .5
        // labels:     +   -   +   +   -
        OracleSample::from_parts(
            vec![0, 1, 2, 3, 4],
            vec![0.9, 0.8, 0.7, 0.6, 0.5],
            vec![true, false, true, true, false],
            vec![1.0; 5],
        )
    }

    #[test]
    fn recall_curve_unweighted() {
        let s = sample();
        assert!((s.recall_at(0.95) - 0.0).abs() < 1e-12);
        assert!((s.recall_at(0.9) - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.recall_at(0.7) - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.recall_at(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_tau_for_recall_unweighted() {
        let s = sample();
        assert_eq!(s.max_tau_for_recall(0.3), Some(0.9));
        assert_eq!(s.max_tau_for_recall(0.5), Some(0.7));
        assert_eq!(s.max_tau_for_recall(0.99), Some(0.6));
        assert_eq!(s.max_tau_for_recall(1.0), Some(0.6));
        // γ′ above 1 clamps to "keep every positive".
        assert_eq!(s.max_tau_for_recall(1.3), Some(0.6));
    }

    #[test]
    fn max_tau_respects_weights() {
        // Positive at 0.9 carries 3× the weight of the one at 0.6.
        let s =
            OracleSample::from_parts(vec![0, 1], vec![0.9, 0.6], vec![true, true], vec![3.0, 1.0]);
        assert_eq!(s.max_tau_for_recall(0.74), Some(0.9));
        assert_eq!(s.max_tau_for_recall(0.76), Some(0.6));
    }

    #[test]
    fn no_positives_cases() {
        let s = OracleSample::from_parts(vec![0], vec![0.5], vec![false], vec![1.0]);
        assert_eq!(s.max_tau_for_recall(0.9), None);
        assert_eq!(s.recall_at(0.4), 1.0);
        assert!(s.positive_indices().is_empty());
    }

    #[test]
    fn positive_indices_dedupe() {
        let s = OracleSample::from_parts(
            vec![7, 7, 3],
            vec![0.9, 0.9, 0.8],
            vec![true, true, true],
            vec![1.0; 3],
        );
        assert_eq!(s.positive_indices(), vec![3, 7]);
    }

    #[test]
    fn precision_pairs_filter_by_tau() {
        let s = sample();
        let (ys, xs) = s.precision_pairs(0.7);
        assert_eq!(xs.len(), 3);
        assert_eq!(ys.iter().sum::<f64>(), 2.0);
        let (ys, xs) = s.precision_pairs(2.0);
        assert!(ys.is_empty() && xs.is_empty());
    }

    #[test]
    fn recall_split_partitions_positive_mass() {
        let s = sample();
        let (z1, z2) = s.recall_split(0.7);
        assert_eq!(z1.len(), 5);
        let above: f64 = z1.iter().sum();
        let below: f64 = z2.iter().sum();
        assert_eq!(above, 2.0);
        assert_eq!(below, 1.0);
    }

    #[test]
    fn candidate_thresholds_every_step() {
        let s = sample();
        assert_eq!(s.candidate_thresholds(2), vec![0.6, 0.8]);
        assert_eq!(s.candidate_thresholds(1).len(), 5);
        assert_eq!(s.candidate_thresholds(10), Vec::<f64>::new());
    }

    #[test]
    fn canonical_order_breaks_ties_by_index_then_draw() {
        // Tied distinct records order by record index, not draw order;
        // repeat draws of one record keep draw order.
        let s = OracleSample::from_parts(
            vec![13, 12, 11, 10, 12],
            vec![0.5, 0.9, 0.5, 0.9, 0.9],
            vec![true, true, false, false, true],
            vec![1.0, 1.0, 1.0, 1.0, 2.0],
        );
        assert_eq!(s.sorted_scores(), &[0.9, 0.9, 0.9, 0.5, 0.5]);
        // Canonical positions: 3 (record 10), 1 and 4 (record 12, draw
        // order), then 2 (record 11), 0 (record 13).
        assert_eq!(s.pair_at(0), (0.0, 1.0));
        assert_eq!(s.pair_at(1), (1.0, 1.0));
        assert_eq!(s.pair_at(2), (2.0, 2.0));
        assert_eq!(s.pair_at(3), (0.0, 1.0));
        assert_eq!(s.pair_at(4), (1.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "negative or NaN")]
    fn from_parts_rejects_negative_scores() {
        let _ = OracleSample::from_parts(vec![0], vec![-0.5], vec![true], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "negative or NaN")]
    fn from_parts_rejects_nan_scores() {
        let _ = OracleSample::from_parts(vec![0], vec![f64::NAN], vec![true], vec![1.0]);
    }

    #[test]
    fn window_sketch_matches_materialized_pairs() {
        let s = OracleSample::from_parts(
            vec![0, 1, 2, 3, 4, 5],
            vec![0.9, 0.2, 0.7, 0.6, 0.5, 0.7],
            vec![true, false, true, true, false, false],
            vec![1.5, 1.0, 2.0, 0.5, 1.0, 3.0],
        );
        for tau in [0.0, 0.2, 0.55, 0.7, 0.9, 1.1] {
            let cut = s.cut_for(tau);
            let (ys, xs) = s.precision_pairs(tau);
            assert_eq!(ys.len(), cut);
            let direct = PairSketch::from_pairs(ys.iter().copied().zip(xs.iter().copied()));
            assert_eq!(s.window_sketch(cut), direct, "tau={tau}");
        }
    }

    #[test]
    fn z_sketches_match_materialized_split() {
        let s = sample();
        let cut = s.cut_for(0.7);
        let (z1, z2) = s.recall_split(0.7);
        let (sk1, sk2) = s.z_sketches(cut);
        assert_eq!(sk1, SampleSketch::from_values(z1.iter().copied()));
        assert_eq!(sk2, SampleSketch::from_values(z2.iter().copied()));
    }

    #[test]
    fn labeling_through_oracle_consumes_budget_once_per_distinct() {
        let data = ScoredDataset::new(vec![0.2, 0.4, 0.6]).unwrap();
        let mut oracle = CachedOracle::from_labels(vec![false, true, false], 2);
        let s = OracleSample::label(&data, vec![1, 1, 2], &mut oracle, |_| 1.0).unwrap();
        assert_eq!(oracle.calls_used(), 2);
        assert_eq!(s.positive_count(), 2); // record 1 sampled twice
        assert_eq!(s.positive_indices(), vec![1]);
    }
}

//! The global rank index: a once-built descending-score permutation that
//! turns per-query set materialization into a range lookup.
//!
//! Every SUPG answer contains the threshold set `D(τ) = {x : A(x) ≥ τ}`.
//! Without an index, serving it means an O(n) predicate pass (plus a sort
//! if the output must be canonically ordered) **per query** — the cost
//! that dominated warm serving at n = 10⁶. The [`RankIndex`] fixes the
//! asymptotics the way proxy-ordered scan pruning does in "Selection via
//! Proxy": one global score ordering, built once per dataset, makes every
//! `D(τ)` a *prefix* of a precomputed permutation, so materialization is
//! a binary search for `τ` plus a slice copy — O(log n + k).
//!
//! Two arrays, both in **canonical order** (descending score, ties by
//! ascending record index — a strict total order, so the layout is
//! unique and deterministic):
//!
//! * [`order`](RankIndex::order) — record indices in canonical order,
//! * [`sorted_scores`](RankIndex::sorted_scores) — the scores in the same
//!   order, kept separate so binary searches stay cache-friendly.
//!
//! Canonical order has exactly one definition: the ascending packed key
//! `(!score_bits ∥ index)` built by the crate-private `rank::key`.
//! Everything that orders records — this index, oracle-sample assembly
//! and result-view membership — compares these keys, so no inverse
//! permutation is needed: a record is in `D(τ)` iff its score is `≥ τ`,
//! and its position inside the prefix is a binary search on the key.
//!
//! ## Construction
//!
//! Sorting is done on packed integer keys (`!score_bits ∥ index`), which
//! orders exactly like `(score desc, index asc)` for the validated
//! `[0, 1]` scores and is several times faster than a comparator that
//! chases the score array. [`build`](RankIndex::build) additionally
//! chunks the key sort over the [`crate::runtime`] worker pool and
//! combines the sorted runs in pairwise merge rounds (each round halves
//! the run count, its merges running concurrently). Because the
//! comparator is a strict total
//! order, the merged permutation is the unique sorted one — **the index
//! is bit-identical at every `parallelism` setting**, with no
//! floating-point accumulation anywhere (pinned by
//! `crates/core/tests/rank_parity.rs`).

use crate::runtime::{parallel_map, RuntimeConfig};

use crate::runtime::{cpu_workers, map_chunks, MIN_PARALLEL_INPUT};

/// Packs record `i` with its score into one sortable key — the definition
/// of canonical order: ascending key order ⟺ descending score, ties by
/// ascending index. Score bits of a non-negative f64 order like the
/// value; complementing them flips the direction. `-0.0` (which passes
/// the `[0, 1]` range check) is normalized to `+0.0` so its sign bit
/// cannot poison the key order. Negative and NaN scores have no place
/// in this order; callers reject them first.
#[inline]
pub(crate) fn key(score: f64, i: u32) -> u128 {
    let bits = if score == 0.0 { 0 } else { score.to_bits() };
    ((!bits as u128) << 32) | i as u128
}

#[inline]
pub(crate) fn unpack(key: u128) -> (f64, u32) {
    let score = f64::from_bits(!((key >> 32) as u64));
    (score, key as u32)
}

/// The descending-score permutation of a dataset and the sorted score
/// view. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct RankIndex {
    /// Record indices in canonical rank order.
    order: Vec<u32>,
    /// Scores in canonical rank order.
    sorted: Vec<f64>,
}

impl RankIndex {
    /// Builds the index with a single serial key sort.
    ///
    /// # Panics
    /// Panics if `scores` exceed `u32::MAX` records (the dataset layer
    /// rejects that first). Scores must be valid per
    /// [`crate::data::ScoredDataset`] (`[0, 1]`, finite).
    pub fn build_serial(scores: &[f64]) -> Self {
        assert!(
            scores.len() <= u32::MAX as usize,
            "RankIndex: more than u32::MAX records"
        );
        let mut keys: Vec<u128> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| key(s, i as u32))
            .collect();
        keys.sort_unstable();
        Self::from_sorted_keys(&keys)
    }

    /// Builds the index on the runtime worker pool: the key array is
    /// split into contiguous chunks, each chunk is sorted by a pool
    /// worker ([`parallel_map`]), and the sorted runs are merged in
    /// pairwise rounds (round `r` merges runs `2i`/`2i+1` concurrently).
    /// The output is bit-identical to [`build_serial`](Self::build_serial)
    /// for every `parallelism` setting (strict total order ⇒ unique
    /// sorted permutation); small inputs and effective parallelism ≤ 1
    /// take the serial path directly.
    ///
    /// `rt.parallelism` is clamped to the machine's available cores —
    /// unlike oracle labeling (which may be latency-bound and profits
    /// from over-subscription), the sort is pure CPU work, where extra
    /// threads only add chunk/merge overhead. On multi-core machines the
    /// chunk count is additionally gated by the planner's one-time
    /// calibration ([`crate::plan::planned_chunks`]): chunked sorting
    /// runs only where it *measured* faster than serial, so this build
    /// is never slower than [`build_serial`](Self::build_serial) by more
    /// than noise — the planner's serial-floor invariant.
    pub fn build(scores: &[f64], rt: &RuntimeConfig) -> Self {
        let workers = cpu_workers(rt.parallelism);
        if workers <= 1 || scores.len() < MIN_PARALLEL_INPUT {
            return Self::build_serial(scores);
        }
        let cal = crate::plan::CalibrationProfile::measured();
        let chunks = crate::plan::planned_chunks(scores.len(), cal).min(workers);
        if chunks <= 1 {
            return Self::build_serial(scores);
        }
        Self::build_chunked(scores, chunks)
    }

    /// The chunked sort + pairwise-merge build with an explicit run
    /// count, regardless of machine size — the deterministic core of
    /// [`build`](Self::build), exposed so the merge path stays testable
    /// (and tunable) even where `available_parallelism` would clamp it
    /// away. Bit-identical to [`build_serial`](Self::build_serial) for
    /// every `runs ≥ 1`.
    pub fn build_chunked(scores: &[f64], runs: usize) -> Self {
        let n = scores.len();
        let runs = runs.max(1);
        if runs == 1 || n < MIN_PARALLEL_INPUT {
            return Self::build_serial(scores);
        }
        assert!(
            n <= u32::MAX as usize,
            "RankIndex: more than u32::MAX records"
        );
        // One contiguous range per run, sorted by one pool worker each.
        let mut sorted_runs: Vec<Vec<u128>> = map_chunks(n, runs, |range| {
            let mut keys: Vec<u128> = range.map(|i| key(scores[i], i as u32)).collect();
            keys.sort_unstable();
            keys
        });
        // Pairwise merge rounds: every round halves the run count, with
        // the merges of one round running concurrently on the pool. An
        // odd run sits a round out.
        while sorted_runs.len() > 1 {
            let spare = (sorted_runs.len() % 2 == 1).then(|| sorted_runs.pop().unwrap());
            let pairs: Vec<(Vec<u128>, Vec<u128>)> = {
                let mut it = sorted_runs.drain(..);
                let mut pairs = Vec::new();
                while let (Some(a), Some(b)) = (it.next(), it.next()) {
                    pairs.push((a, b));
                }
                pairs
            };
            let pool = RuntimeConfig::default()
                .with_parallelism(pairs.len())
                .with_batch_size(1);
            sorted_runs = parallel_map(&pool, &pairs, |(a, b)| merge_pair(a, b));
            sorted_runs.extend(spare);
        }
        Self::from_sorted_keys(&sorted_runs.pop().expect("at least one run"))
    }

    fn from_sorted_keys(keys: &[u128]) -> Self {
        let n = keys.len();
        let mut order = Vec::with_capacity(n);
        let mut sorted = Vec::with_capacity(n);
        for &k in keys {
            let (score, i) = unpack(k);
            order.push(i);
            sorted.push(score);
        }
        Self { order, sorted }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the index covers no records.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Record indices in canonical rank order.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Scores in canonical rank order.
    pub fn sorted_scores(&self) -> &[f64] {
        &self.sorted
    }

    /// Number of records with score ≥ `tau`, i.e. `|D(τ)|` — the length
    /// of the rank prefix that is the threshold set. O(log n).
    pub fn cut_for(&self, tau: f64) -> usize {
        self.sorted.partition_point(|&s| s >= tau)
    }

    /// The threshold set `D(τ)` as a borrowed rank-prefix slice —
    /// O(log n), no allocation.
    pub fn select(&self, tau: f64) -> &[u32] {
        &self.order[..self.cut_for(tau)]
    }

    /// The `k`-th highest score (1-indexed; `k` clamped to `[1, n]`).
    pub fn kth_highest_score(&self, k: usize) -> f64 {
        let k = k.clamp(1, self.sorted.len());
        self.sorted[k - 1]
    }

    /// Materializes `D(τ)` as owned `usize` indices in canonical rank
    /// order: binary search for `τ`, then one slice copy — O(log n + k),
    /// no allocation beyond the output. Bit-identical to
    /// [`materialize_linear`] (pinned by proptest).
    pub fn materialize(&self, tau: f64) -> Vec<usize> {
        self.select(tau).iter().map(|&i| i as usize).collect()
    }
}

/// Merges two ascending key runs into one (stable: ties — impossible for
/// these strict-total-order keys — would prefer `a`).
fn merge_pair(a: &[u128], b: &[u128]) -> Vec<u128> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The linear-scan reference: filter every record by `A(x) ≥ τ`, then
/// order the survivors canonically — the O(n) (+ O(k log k)) work a
/// query had to do per materialization before the rank index existed.
/// Retained as the parity oracle and benchmark baseline (like
/// [`crate::selectors::reference`]); do not call it from serving paths.
pub fn materialize_linear(scores: &[f64], tau: f64) -> Vec<usize> {
    let mut keys: Vec<u128> = scores
        .iter()
        .enumerate()
        .filter(|&(_, &s)| s >= tau)
        .map(|(i, &s)| key(s, i as u32))
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|k| unpack(k).1 as usize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tied_scores(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7) % 10) as f64 / 10.0).collect()
    }

    #[test]
    fn order_is_descending_with_ascending_tie_break() {
        let idx = RankIndex::build_serial(&[0.5, 0.9, 0.5, 0.0, 0.9]);
        assert_eq!(idx.order(), &[1, 4, 0, 2, 3]);
        assert_eq!(idx.sorted_scores(), &[0.9, 0.9, 0.5, 0.5, 0.0]);
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        let scores = tied_scores(100_000);
        let serial = RankIndex::build_serial(&scores);
        for parallelism in [1, 2, 4, 8] {
            let rt = RuntimeConfig::default().with_parallelism(parallelism);
            assert_eq!(
                RankIndex::build(&scores, &rt),
                serial,
                "parallelism={parallelism}"
            );
        }
        // The chunk+merge machinery itself, regardless of how many cores
        // this machine exposes (build() clamps to them).
        for runs in [2, 3, 5, 8, 16] {
            assert_eq!(
                RankIndex::build_chunked(&scores, runs),
                serial,
                "runs={runs}"
            );
        }
    }

    #[test]
    fn small_inputs_take_the_serial_path() {
        let scores = tied_scores(64);
        let rt = RuntimeConfig::default().with_parallelism(8);
        assert_eq!(
            RankIndex::build(&scores, &rt),
            RankIndex::build_serial(&scores)
        );
    }

    #[test]
    fn cut_and_select_handle_tau_everywhere() {
        let idx = RankIndex::build_serial(&[0.1, 0.9, 0.5, 0.9, 0.0]);
        assert_eq!(idx.cut_for(0.9), 2);
        assert_eq!(idx.cut_for(0.91), 0);
        assert_eq!(idx.cut_for(0.5), 3);
        assert_eq!(idx.cut_for(0.0), 5);
        assert_eq!(idx.cut_for(f64::INFINITY), 0);
        assert_eq!(idx.select(0.5), &[1, 3, 2]);
        assert_eq!(idx.kth_highest_score(2), 0.9);
        assert_eq!(idx.kth_highest_score(0), 0.9);
        assert_eq!(idx.kth_highest_score(99), 0.0);
        assert!(!idx.is_empty());
        assert_eq!(idx.len(), 5);
    }

    #[test]
    fn materialize_matches_linear_reference() {
        let scores = tied_scores(5_000);
        let idx = RankIndex::build_serial(&scores);
        for tau in [-0.5, 0.0, 0.15, 0.2, 0.45, 0.9, 1.0, 1.5] {
            assert_eq!(
                idx.materialize(tau),
                materialize_linear(&scores, tau),
                "tau={tau}"
            );
        }
    }

    #[test]
    fn negative_zero_scores_key_like_positive_zero() {
        let idx = RankIndex::build_serial(&[-0.0, 0.5, 0.0]);
        assert_eq!(idx.order(), &[1, 0, 2]);
        assert_eq!(idx.cut_for(0.0), 3);
    }
}

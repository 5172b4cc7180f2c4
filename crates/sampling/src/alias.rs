//! Vose's alias method for O(1) weighted sampling with replacement.

use rand::Rng;

/// One chunk of the element-wise alias-table feeds: the normalized
/// probabilities and their mean-1 scaling for a contiguous index range,
/// plus that range's contribution to Vose's small/large partition (global
/// `u32` indices, ascending within the chunk).
///
/// Everything the alias construction does before the Vose pairing loop is
/// element-wise — normalize, scale, classify against 1.0 — so a caller can
/// evaluate [`feed_slice`] chunk-by-chunk on a worker pool and hand the
/// chunks (in index order) to [`AliasTable::from_feeds`]: concatenating
/// per-chunk stacks built in ascending index order reproduces the exact
/// stacks one serial pass builds, so the resulting table is
/// **bit-identical** to [`AliasTable::new`] however many chunks fed it.
#[derive(Debug, Clone)]
pub struct FeedSlice {
    /// Normalized probabilities `w[i] / total` for the chunk.
    pub probs: Vec<f64>,
    /// Mean-1 scaling `probs[i] · n` for the chunk.
    pub scaled: Vec<f64>,
    /// Global indices of the chunk's `scaled < 1` entries, ascending.
    pub small: Vec<u32>,
    /// Global indices of the chunk's `scaled ≥ 1` entries, ascending.
    pub large: Vec<u32>,
}

/// Evaluates the alias-table feeds for one contiguous chunk of `weights`
/// starting at global index `offset` within a table of `n` total entries,
/// normalizing by the caller-supplied `total` (the lone floating-point
/// reduction — computed serially once so chunked and serial builds agree
/// bit for bit). The normalize (`p = w/total`) and scale (`s = p·n`)
/// maps are separate branch-free passes so they auto-vectorize; the
/// small/large classification is its own scan into preallocated stacks.
/// Exactly the operations (in the same order per element) the serial
/// construction performs.
pub fn feed_slice(weights: &[f64], total: f64, n: usize, offset: usize) -> FeedSlice {
    let n_f = n as f64;
    let probs: Vec<f64> = weights.iter().map(|&w| w / total).collect();
    let scaled: Vec<f64> = probs.iter().map(|&p| p * n_f).collect();
    // Every entry lands on exactly one stack; reserving the upper bound
    // once beats growth reallocation (untouched capacity is only virtual).
    let mut small = Vec::with_capacity(weights.len());
    let mut large = Vec::with_capacity(weights.len());
    for (i, &s) in scaled.iter().enumerate() {
        if s < 1.0 {
            small.push((offset + i) as u32);
        } else {
            large.push((offset + i) as u32);
        }
    }
    FeedSlice {
        probs,
        scaled,
        small,
        large,
    }
}

/// A preprocessed alias table over `n` weighted indices.
///
/// Construction is O(n); each draw costs one uniform index, one uniform
/// float and one comparison. This is the sampler behind the SUPG importance
/// estimators, where a single query draws `s ≈ 10⁴` records from `n ≈ 10⁶`
/// candidates. For cold one-shot queries the O(log n)-draw
/// [`crate::CdfSampler`] builds cheaper; both implement
/// [`crate::WeightedSampler`].
#[derive(Debug, Clone, PartialEq)]
pub struct AliasTable {
    /// Acceptance probability for each slot.
    accept: Vec<f64>,
    /// Alias index taken when the acceptance test fails.
    alias: Vec<u32>,
    /// Normalized weight of each index (kept for [`AliasTable::prob`]).
    probs: Vec<f64>,
}

impl AliasTable {
    /// Builds an alias table from non-negative weights.
    ///
    /// Weights need not be normalized. Zero weights are allowed (those
    /// indices are never drawn).
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "AliasTable: empty weights");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w.is_finite() && w >= 0.0, "AliasTable: bad weight {w}");
                w
            })
            .sum();
        assert!(total > 0.0, "AliasTable: weights sum to zero");
        Self::from_feeds(vec![feed_slice(weights, total, weights.len(), 0)])
    }

    /// Builds the table from chunked feeds (see [`FeedSlice`]): the chunks
    /// must cover the index range contiguously in order — exactly what a
    /// worker pool mapping [`feed_slice`] over fixed contiguous ranges
    /// produces. Concatenating the per-chunk small/large stacks in chunk
    /// order reproduces the serial partition scan's stacks, and Vose's
    /// pairing loop consumes them identically, so the table is
    /// bit-identical to [`new`](AliasTable::new) at any chunking.
    ///
    /// # Panics
    /// Panics if the feeds are empty overall or exceed `u32::MAX` entries.
    pub fn from_feeds(mut feeds: Vec<FeedSlice>) -> Self {
        let n: usize = feeds.iter().map(|f| f.probs.len()).sum();
        assert!(n > 0, "AliasTable: empty weights");
        assert!(
            n <= u32::MAX as usize,
            "AliasTable: more than u32::MAX entries"
        );
        let (probs, scaled, small, large) = if feeds.len() == 1 {
            // The serial (single-feed) build moves the feed's arrays
            // straight into Vose — no concatenation copy at all.
            let feed = feeds.pop().expect("one feed");
            (feed.probs, feed.scaled, feed.small, feed.large)
        } else {
            let mut probs = Vec::with_capacity(n);
            let mut scaled = Vec::with_capacity(n);
            let mut small = Vec::with_capacity(feeds.iter().map(|f| f.small.len()).sum());
            let mut large = Vec::with_capacity(feeds.iter().map(|f| f.large.len()).sum());
            for feed in feeds {
                probs.extend_from_slice(&feed.probs);
                scaled.extend_from_slice(&feed.scaled);
                small.extend_from_slice(&feed.small);
                large.extend_from_slice(&feed.large);
            }
            (probs, scaled, small, large)
        };
        Self::vose(probs, scaled, small, large)
    }

    /// Builds the table from the already-normalized probabilities and
    /// their mean-1 scaling `scaled[i] = probs[i] · n` — the two O(n)
    /// element-wise feeds of [`new`](AliasTable::new), split out so a
    /// caller can compute them chunk-by-chunk on a worker pool
    /// (`supg_core::prepared` does) and still get a table bit-identical
    /// to the serial construction: Vose's partitioning itself consumes
    /// the feeds in index order either way.
    ///
    /// # Panics
    /// Panics if the vectors are empty, disagree in length, or exceed
    /// `u32::MAX` entries. The caller guarantees the normalization
    /// invariants (this is a performance-path constructor; use
    /// [`new`](AliasTable::new) for arbitrary weights).
    pub fn from_normalized(probs: Vec<f64>, scaled: Vec<f64>) -> Self {
        assert!(!probs.is_empty(), "AliasTable: empty weights");
        assert_eq!(
            probs.len(),
            scaled.len(),
            "AliasTable: probs/scaled length mismatch"
        );
        assert!(
            probs.len() <= u32::MAX as usize,
            "AliasTable: more than u32::MAX entries"
        );
        // Scaled probabilities: mean 1. Partition into small/large stacks.
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        Self::vose(probs, scaled, small, large)
    }

    /// Vose's pairing loop over prebuilt small/large stacks — the one
    /// inherently serial piece of the construction (each pairing mutates
    /// the residual mass the next pairing reads).
    ///
    /// The acceptance array is the `scaled` array **moved**, not a fresh
    /// allocation: once a slot pops from the small stack its residual is
    /// final (only large slots are ever donated to again), so after the
    /// loop `scaled[i]` already holds every paired slot's acceptance
    /// probability and only the leftover slots need the 1.0 fill — one
    /// O(n) allocation + fill and one random-write stream fewer than the
    /// textbook construction, with bit-identical contents.
    fn vose(
        probs: Vec<f64>,
        mut scaled: Vec<f64>,
        mut small: Vec<u32>,
        mut large: Vec<u32>,
    ) -> Self {
        let n = probs.len();
        let mut alias = vec![0_u32; n];
        loop {
            match (small.pop(), large.pop()) {
                (Some(s), Some(l)) => {
                    alias[s as usize] = l;
                    // The large slot donates the deficit of the small
                    // slot; the small slot's residual is final and stays
                    // in `scaled` as its acceptance probability.
                    scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
                    if scaled[l as usize] < 1.0 {
                        small.push(l);
                    } else {
                        large.push(l);
                    }
                }
                (drained_s, drained_l) => {
                    // One stack ran dry (numerical residue): the slot the
                    // final probe popped off the other stack fills its
                    // own slot, like the leftovers below.
                    if let Some(s) = drained_s {
                        scaled[s as usize] = 1.0;
                    }
                    if let Some(l) = drained_l {
                        scaled[l as usize] = 1.0;
                    }
                    break;
                }
            }
        }
        // Leftovers (numerical residue): they fill their own slot.
        for i in small.into_iter().chain(large) {
            scaled[i as usize] = 1.0;
        }
        Self {
            accept: scaled,
            alias,
            probs,
        }
    }

    /// Number of indices in the table.
    pub fn len(&self) -> usize {
        self.accept.len()
    }

    /// True when the table has no entries (construction forbids this, so
    /// this is always false; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.accept.is_empty()
    }

    /// Normalized sampling probability of index `i`.
    pub fn prob(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// The acceptance-probability array (slot `i` keeps itself with this
    /// probability, else defers to [`aliases`](AliasTable::aliases)`[i]`)
    /// — exposed for structural parity tests and benchmarks.
    pub fn accept(&self) -> &[f64] {
        &self.accept
    }

    /// The alias-target array — exposed for structural parity tests and
    /// benchmarks.
    pub fn aliases(&self) -> &[u32] {
        &self.alias
    }

    /// Draws one index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.accept.len());
        if rng.gen::<f64>() < self.accept[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }

    /// Draws `k` independent indices (with replacement).
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, k: usize) -> Vec<usize> {
        (0..k).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn marginals_match_weights() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let table = AliasTable::new(&weights);
        let mut rng = StdRng::seed_from_u64(41);
        let n = 400_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[table.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = weights[i] / 10.0;
            let emp = c as f64 / n as f64;
            assert!((emp - expected).abs() < 0.005, "index {i}: emp={emp}");
        }
    }

    #[test]
    fn zero_weight_indices_are_never_drawn() {
        let table = AliasTable::new(&[0.0, 1.0, 0.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let i = table.sample(&mut rng);
            assert!(i == 1 || i == 3, "drew zero-weight index {i}");
        }
    }

    #[test]
    fn prob_returns_normalized_weights() {
        let table = AliasTable::new(&[2.0, 6.0]);
        assert!((table.prob(0) - 0.25).abs() < 1e-12);
        assert!((table.prob(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn single_element_table() {
        let table = AliasTable::new(&[7.0]);
        let mut rng = StdRng::seed_from_u64(43);
        assert_eq!(table.sample(&mut rng), 0);
        assert_eq!(table.len(), 1);
        assert!(!table.is_empty());
    }

    #[test]
    fn highly_skewed_weights() {
        // Weights spanning 12 orders of magnitude, as sqrt(Beta(0.01, ·))
        // scores produce.
        let weights = [1e-12, 1e-6, 1.0, 1e-12];
        let table = AliasTable::new(&weights);
        let mut rng = StdRng::seed_from_u64(44);
        let draws = table.sample_many(&mut rng, 100_000);
        let heavy = draws.iter().filter(|&&i| i == 2).count();
        assert!(heavy > 99_900, "heavy index drawn {heavy} times");
    }

    #[test]
    fn from_normalized_matches_new_bitwise() {
        let weights: Vec<f64> = (0..500).map(|i| ((i * 31) % 97) as f64 / 97.0).collect();
        let via_new = AliasTable::new(&weights);
        let total: f64 = weights.iter().sum();
        let probs: Vec<f64> = weights.iter().map(|&w| w / total).collect();
        let scaled: Vec<f64> = probs.iter().map(|&p| p * weights.len() as f64).collect();
        let via_parts = AliasTable::from_normalized(probs, scaled);
        let mut rng = StdRng::seed_from_u64(45);
        for _ in 0..5_000 {
            let mut r2 = rng.clone();
            assert_eq!(via_new.sample(&mut rng), via_parts.sample(&mut r2));
        }
        for i in 0..weights.len() {
            assert_eq!(via_new.prob(i).to_bits(), via_parts.prob(i).to_bits());
        }
    }

    /// The textbook Vose construction, kept self-contained as a parity
    /// reference: one validation and sum pass, separate normalize and
    /// scale passes, a partition scan into growing stacks, then the
    /// pairing loop writing a fresh acceptance array slot by slot.
    /// Returns `(accept, alias, probs)`.
    fn vose_reference(weights: &[f64]) -> (Vec<f64>, Vec<u32>, Vec<f64>) {
        assert!(!weights.is_empty(), "AliasTable: empty weights");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w.is_finite() && w >= 0.0, "AliasTable: bad weight {w}");
                w
            })
            .sum();
        assert!(total > 0.0, "AliasTable: weights sum to zero");
        let n = weights.len();
        let probs: Vec<f64> = weights.iter().map(|&w| w / total).collect();
        let mut scaled: Vec<f64> = probs.iter().map(|&p| p * n as f64).collect();
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        let mut accept = vec![1.0_f64; n];
        let mut alias = vec![0_u32; n];
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            accept[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
            if scaled[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for i in small.into_iter().chain(large) {
            accept[i as usize] = 1.0;
        }
        (accept, alias, probs)
    }

    #[test]
    fn new_matches_the_textbook_vose_reference_bitwise() {
        let weights: Vec<f64> = (0..5_000).map(|i| ((i * 31) % 97) as f64 / 97.0).collect();
        let (accept, alias, probs) = vose_reference(&weights);
        let table = AliasTable::new(&weights);
        assert_eq!(accept.as_slice(), table.accept());
        assert_eq!(alias.as_slice(), table.aliases());
        for (i, &p) in probs.iter().enumerate() {
            assert_eq!(p.to_bits(), table.prob(i).to_bits(), "prob {i}");
        }
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn rejects_all_zero_weights() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "bad weight")]
    fn rejects_negative_weights() {
        AliasTable::new(&[1.0, -0.5]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty_weights() {
        AliasTable::new(&[]);
    }
}

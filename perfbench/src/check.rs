//! Answer checking against ground truth, the run digest, and the
//! quality tallies behind `rt_precision`, `pt_recall` and the target
//! miss rate.

use crate::script::{Corpus, Kind, BUDGET, JT_GAMMA, PT_GAMMA, RT_GAMMA};

/// What the checker needs from a finished query, whichever path ran it.
pub struct Answer<'a> {
    pub kind: Kind,
    pub tau: f64,
    pub indices: &'a [usize],
    pub oracle_calls: usize,
    pub stage_calls: usize,
}

/// FNV-1a over every answer's τ bits, result length and oracle calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn add(&mut self, a: &Answer<'_>) {
        self.push(a.tau.to_bits());
        self.push(a.indices.len() as u64);
        self.push(a.oracle_calls as u64);
    }
}

/// Running quality and cost tallies over the checked answers.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub queries: usize,
    pub oracle_calls: u64,
    pub rt_queries: usize,
    pub rt_precision_sum: f64,
    pub pt_queries: usize,
    pub pt_recall_sum: f64,
    pub target_misses: usize,
    pub digest: Digest,
}

impl Tally {
    pub fn rt_precision(&self) -> f64 {
        self.rt_precision_sum / self.rt_queries.max(1) as f64
    }

    pub fn pt_recall(&self) -> f64 {
        self.pt_recall_sum / self.pt_queries.max(1) as f64
    }

    pub fn oracle_calls_per_query(&self) -> f64 {
        self.oracle_calls as f64 / self.queries.max(1) as f64
    }

    pub fn target_miss_rate(&self) -> f64 {
        self.target_misses as f64 / self.queries.max(1) as f64
    }

    /// Adds another tally's counts; the digest folds in the other digest.
    pub fn absorb(&mut self, other: &Tally) {
        self.queries += other.queries;
        self.oracle_calls += other.oracle_calls;
        self.rt_queries += other.rt_queries;
        self.rt_precision_sum += other.rt_precision_sum;
        self.pt_queries += other.pt_queries;
        self.pt_recall_sum += other.pt_recall_sum;
        self.target_misses += other.target_misses;
        self.digest.push(other.digest.0);
    }
}

/// Checks answers over one corpus. The stamp array makes the
/// duplicate check O(|result|) with no per-query allocation.
pub struct Checker {
    stamp: Vec<u32>,
    epoch: u32,
}

impl Checker {
    pub fn new(records: usize) -> Self {
        Checker {
            stamp: vec![0; records],
            epoch: 0,
        }
    }

    /// Verifies one answer and folds it into `tally`: every index in
    /// range and unique, RT/PT within budget, the JT recall stage within
    /// its budget and every JT member a true positive.
    pub fn check(
        &mut self,
        corpus: &Corpus,
        a: &Answer<'_>,
        tally: &mut Tally,
    ) -> Result<(), String> {
        self.epoch += 1;
        let truth = &corpus.truth;
        let mut true_positives = 0usize;
        for &i in a.indices {
            if i >= truth.len() {
                return Err(format!("index {i} out of range"));
            }
            if self.stamp[i] == self.epoch {
                return Err(format!("duplicate index {i}"));
            }
            self.stamp[i] = self.epoch;
            true_positives += truth[i] as usize;
        }
        let calls_ok = match a.kind {
            Kind::Rt | Kind::Pt => a.oracle_calls <= BUDGET,
            Kind::Jt => a.stage_calls <= BUDGET,
        };
        if !calls_ok {
            return Err(format!(
                "{:?} spent {} oracle calls",
                a.kind, a.oracle_calls
            ));
        }
        let recall = true_positives as f64 / corpus.positives.max(1) as f64;
        let precision = if a.indices.is_empty() {
            1.0
        } else {
            true_positives as f64 / a.indices.len() as f64
        };
        let missed = match a.kind {
            Kind::Rt => {
                tally.rt_queries += 1;
                tally.rt_precision_sum += precision;
                recall < RT_GAMMA
            }
            Kind::Pt => {
                tally.pt_queries += 1;
                tally.pt_recall_sum += recall;
                precision < PT_GAMMA
            }
            Kind::Jt => {
                if true_positives != a.indices.len() {
                    return Err("JT answer holds an oracle negative".to_owned());
                }
                recall < JT_GAMMA.0 || precision < JT_GAMMA.1
            }
        };
        tally.queries += 1;
        tally.oracle_calls += a.oracle_calls as u64;
        tally.target_misses += missed as usize;
        tally.digest.add(a);
        Ok(())
    }
}

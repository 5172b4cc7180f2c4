//! Fixed query scripts and corpora: pure functions of the workload seed.

use std::sync::Arc;

use supg_core::selectors::SelectorConfig;
use supg_core::SamplerStrategy;
use supg_serve::QuerySpec;

/// Records per corpus.
pub const RECORDS: usize = 1_000_000;
/// Records per segment of the segmented layout (16 segments).
pub const SEGMENT_SIZE: usize = RECORDS / 16;
/// Oracle budget of RT/PT queries and of the JT recall stage.
pub const BUDGET: usize = 1_000;
/// Failure probability of every query.
pub const DELTA: f64 = 0.05;
/// RT target recall.
pub const RT_GAMMA: f64 = 0.9;
/// PT target precision.
pub const PT_GAMMA: f64 = 0.9;
/// JT target recall and precision.
pub const JT_GAMMA: (f64, f64) = (0.8, 0.9);

/// The three query kinds of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Rt,
    Pt,
    Jt,
}

/// One scripted query: its kind and its own RNG seed.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    pub kind: Kind,
    pub seed: u64,
}

impl Query {
    /// The serving spec: default selector and knobs apart from the
    /// sampler strategy, which the workload chooses.
    pub fn spec(&self, sampler: SamplerStrategy) -> QuerySpec {
        let spec = match self.kind {
            Kind::Rt => QuerySpec::recall(RT_GAMMA, BUDGET),
            Kind::Pt => QuerySpec::precision(PT_GAMMA, BUDGET),
            Kind::Jt => QuerySpec::joint(JT_GAMMA.0, JT_GAMMA.1, BUDGET),
        };
        spec.with_delta(DELTA)
            .with_config(SelectorConfig::default().with_sampler(sampler))
            .with_seed(self.seed)
    }
}

/// SplitMix64 finalizer: the `index`-th value of the stream named
/// `stream` under `seed`, so every input is addressable without state.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const CORPUS_STREAM: u64 = 1;
const QUERY_STREAM: u64 = 2;

/// A generated corpus: proxy scores (what the program receives) and the
/// ground truth (what only the oracle and the answer checker see).
pub struct Corpus {
    pub scores: Vec<f64>,
    pub truth: Arc<Vec<bool>>,
    pub positives: usize,
}

/// The repo's serving workload: Beta(0.05, 2) scores with
/// Bernoulli(score) truth, the `index`-th corpus of the seed's stream.
pub fn corpus(seed: u64, index: u64) -> Corpus {
    let (scores, truth) = supg_datasets::BetaDataset::new(0.05, 2.0, RECORDS)
        .generate(mix(seed, CORPUS_STREAM, index))
        .into_parts();
    let positives = truth.iter().filter(|&&t| t).count();
    Corpus {
        scores,
        truth: Arc::new(truth),
        positives,
    }
}

/// The query cycle every workload repeats: 10 RT, 7 PT and 3 JT in 20
/// queries, the RT 0.5 / PT 0.35 / JT 0.15 shares of the repo's traffic
/// model (`supg_traffic::QueryMix::default_mix`), spread so that the
/// JTs fall apart.
pub const PATTERN: [Kind; 20] = {
    use Kind::{Jt as J, Pt as P, Rt as R};
    [R, P, R, P, R, P, J, R, P, R, P, R, J, R, P, R, P, R, R, J]
};

/// `cycles` repetitions of [`PATTERN`], every query with a distinct seed
/// drawn from the seed's query stream starting at `first`.
pub fn script(seed: u64, cycles: usize, first: u64) -> Vec<Query> {
    (0..cycles * PATTERN.len())
        .map(|i| Query {
            kind: PATTERN[i % PATTERN.len()],
            seed: mix(seed, QUERY_STREAM, first + i as u64),
        })
        .collect()
}

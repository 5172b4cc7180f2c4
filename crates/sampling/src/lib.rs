//! Sampling substrate for the SUPG reproduction.
//!
//! SUPG's threshold estimators need three sampling primitives:
//!
//! * **Uniform sampling** over record indices, with and without replacement
//!   ([`uniform`]) — the baselines (`U-NoCI`, `U-CI`) and the defensive
//!   component of the importance samplers.
//! * **Weighted sampling with replacement** proportional to importance
//!   weights ([`alias`], [`cdf`]) — the `IS-CI` estimators. The Vose alias
//!   table gives O(1) draws after O(n) setup; the CDF-inversion sampler
//!   trades O(log n) draws for a cheaper single-pass build, which makes it
//!   the cold-start fallback for one-shot queries. Both sit behind the
//!   object-safe [`WeightedSampler`] trait ([`sampler`]), so serving
//!   layers pick the backend per query, and the alias feeds can be
//!   evaluated chunk-by-chunk on a worker pool
//!   ([`alias::feed_slice`]/[`AliasTable::from_feeds`]) with a
//!   bit-identical result.
//! * **Importance-weight construction** ([`weights`]) — the paper's
//!   `sqrt(A(x))` weights (Theorem 1), arbitrary exponents for the Figure-12
//!   sweep, and the 90/10 defensive uniform mixing of Algorithms 4–5,
//!   together with the reweighting factors `m(x) = u(x)/w(x)` used by every
//!   reweighted estimate.
//!
//! [`reservoir`] adds single-pass reservoir sampling (Algorithm L) for
//! streaming ingestion scenarios.
//!
//! The importance distribution is one distribution over all of `D`, so
//! every artifact is one flat array per weight recipe; `supg-core` splits
//! only the element-wise `A(x)^p` pass ([`apply_exponent`]) into pool
//! jobs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alias;
pub mod cdf;
pub mod reservoir;
pub mod sampler;
pub mod uniform;
pub mod weights;

pub use alias::AliasTable;
pub use cdf::CdfSampler;
pub use reservoir::reservoir_sample;
pub use sampler::WeightedSampler;
pub use uniform::{sample_with_replacement, sample_without_replacement};
pub use weights::{apply_exponent, ImportanceWeights};

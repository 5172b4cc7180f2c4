//! Server-wide serving metrics: cheap atomic counters and fixed-bucket
//! latency histograms.
//!
//! [`TenantState`](crate::tenant::TenantState) meters *who* spent what;
//! [`ServerMetrics`] answers the operator's questions about the server
//! as a whole: how many queries completed or failed, how many were shed
//! and why, how much oracle work was done (calls, retries, time), how
//! the artifact caches are hitting, and where the latency distribution
//! sits — per stage, not just end to end.
//!
//! Everything on the hot path is a relaxed atomic increment: recording a
//! finished query costs a handful of uncontended `fetch_add`s, no locks
//! and no allocation, so the serving layer can afford to record every
//! query. Snapshots ([`ServerMetrics::snapshot`]) are point-in-time and
//! internally consistent *enough* for monitoring — counters are read one
//! by one, so a snapshot taken mid-query may see, say, the query counted
//! but its latency not yet folded in.
//!
//! Latency lives in [`LatencyHistogram`]s with one bucket per
//! power-of-two nanosecond range — fixed memory, no reservoir, no
//! rebinning — from which [`HistogramSnapshot::quantile`] reads
//! nearest-rank percentiles at power-of-two resolution. That resolution
//! is deliberate: serving latencies span six orders of magnitude
//! (microsecond cache hits to second-long cold builds), and an operator
//! asking for p99 needs the right order of magnitude, not the fourth
//! significant digit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use supg_core::QueryOutcome;

/// Number of power-of-two buckets: bucket `i` counts samples whose
/// nanosecond value has `i` significant bits, i.e. lies in
/// `[2^(i-1), 2^i)` (bucket 0 counts zero-ns samples). 40 buckets reach
/// `2^39` ns ≈ 9.1 minutes; anything slower saturates into the last
/// bucket.
const BUCKETS: usize = 40;

/// A fixed-bucket latency histogram with power-of-two bucket bounds.
///
/// Recording is one relaxed `fetch_add` into the sample's bucket plus
/// two for the count/total — safe from any number of threads. Memory is
/// fixed at 40 bucket counters regardless of sample count.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(ns: u64) -> usize {
        // Significant bits of `ns`: 0 for 0, 1 for 1, 10 for 512–1023 …
        ((u64::BITS - ns.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Upper bound (exclusive) of bucket `i` in nanoseconds.
    fn bucket_bound(i: usize) -> u64 {
        if i == 0 {
            1
        } else if i >= 63 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Folds one sample into the histogram.
    pub fn record(&self, sample: Duration) {
        let ns = sample.as_nanos().min(u64::MAX as u128) as u64;
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (b, a) in buckets.iter_mut().zip(&self.buckets) {
            *b = a.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            total: Duration::from_nanos(self.total_ns.load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    /// Samples recorded.
    pub count: u64,
    /// Sum of all recorded samples.
    pub total: Duration,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            total: Duration::ZERO,
        }
    }
}

impl HistogramSnapshot {
    /// Mean sample, or zero when empty.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / self.count.max(1) as u32
        }
    }

    /// The nearest-rank `p`-quantile (`0.0 ≤ p ≤ 1.0`) at power-of-two
    /// resolution: the exclusive upper bound of the bucket holding the
    /// rank-`⌈p·count⌉` sample. Zero when the histogram is empty.
    ///
    /// Nearest-rank (not interpolated) keeps the same convention as the
    /// bench harness's percentile reporting: a quantile is a sample
    /// bound that really was observed, never an average of two.
    pub fn quantile(&self, p: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Duration::from_nanos(LatencyHistogram::bucket_bound(i));
            }
        }
        Duration::from_nanos(LatencyHistogram::bucket_bound(BUCKETS - 1))
    }
}

/// Server-wide counters and latency histograms, recorded by
/// [`SupgServer::serve`](crate::SupgServer::serve) on every admission
/// decision and every finished query.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    queries_ok: AtomicU64,
    queries_failed: AtomicU64,
    shed_overload: AtomicU64,
    shed_budget: AtomicU64,
    shed_circuit: AtomicU64,
    oracle_calls: AtomicU64,
    oracle_retries: AtomicU64,
    oracle_failures: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    planned: AtomicU64,
    query_latency: LatencyHistogram,
    stage_latency: LatencyHistogram,
    filter_latency: LatencyHistogram,
    oracle_latency: LatencyHistogram,
}

impl ServerMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one successful query's accounting into the aggregates.
    pub(crate) fn record_outcome<R>(&self, outcome: &QueryOutcome<R>) {
        self.queries_ok.fetch_add(1, Ordering::Relaxed);
        self.oracle_calls
            .fetch_add(outcome.oracle_calls as u64, Ordering::Relaxed);
        self.oracle_retries
            .fetch_add(outcome.oracle_retries, Ordering::Relaxed);
        self.oracle_failures
            .fetch_add(outcome.oracle_failures, Ordering::Relaxed);
        self.cache_hits
            .fetch_add(outcome.cache_hits, Ordering::Relaxed);
        self.cache_misses
            .fetch_add(outcome.cache_misses, Ordering::Relaxed);
        if outcome.plan.is_some() {
            self.planned.fetch_add(1, Ordering::Relaxed);
        }
        self.query_latency.record(outcome.elapsed);
        self.stage_latency.record(outcome.stage_elapsed);
        if outcome.joint {
            self.filter_latency.record(outcome.filter_elapsed);
        }
        self.oracle_latency.record(outcome.oracle_elapsed);
    }

    /// Counts a query that ran but failed (deadline, oracle failure,
    /// pipeline error) — sheds are counted by cause instead.
    pub(crate) fn record_failure(&self) {
        self.queries_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a query shed at the in-flight limit.
    pub(crate) fn record_overload_shed(&self) {
        self.shed_overload.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a query shed on the tenant-budget reservation.
    pub(crate) fn record_budget_shed(&self) {
        self.shed_budget.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a query shed by an open circuit breaker.
    pub(crate) fn record_circuit_shed(&self) {
        self.shed_circuit.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time snapshot of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            queries_ok: self.queries_ok.load(Ordering::Relaxed),
            queries_failed: self.queries_failed.load(Ordering::Relaxed),
            shed_overload: self.shed_overload.load(Ordering::Relaxed),
            shed_budget: self.shed_budget.load(Ordering::Relaxed),
            shed_circuit: self.shed_circuit.load(Ordering::Relaxed),
            oracle_calls: self.oracle_calls.load(Ordering::Relaxed),
            oracle_retries: self.oracle_retries.load(Ordering::Relaxed),
            oracle_failures: self.oracle_failures.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            planned: self.planned.load(Ordering::Relaxed),
            query_latency: self.query_latency.snapshot(),
            stage_latency: self.stage_latency.snapshot(),
            filter_latency: self.filter_latency.snapshot(),
            oracle_latency: self.oracle_latency.snapshot(),
        }
    }
}

/// A point-in-time snapshot of [`ServerMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Queries that completed successfully.
    pub queries_ok: u64,
    /// Queries that ran but failed (deadline, oracle failure, pipeline
    /// error).
    pub queries_failed: u64,
    /// Queries shed at the server's in-flight limit.
    pub shed_overload: u64,
    /// Queries shed on the tenant-budget reservation.
    pub shed_budget: u64,
    /// Queries shed by an open circuit breaker.
    pub shed_circuit: u64,
    /// Oracle calls completed queries consumed.
    pub oracle_calls: u64,
    /// Transient oracle failures absorbed by the retry runtime.
    pub oracle_retries: u64,
    /// Oracle failures surfaced by completed queries.
    pub oracle_failures: u64,
    /// Sampling-artifact requests served from prepared caches.
    pub cache_hits: u64,
    /// Sampling-artifact requests that paid a fresh build.
    pub cache_misses: u64,
    /// Completed queries that carried a plan (served queries always do).
    pub planned: u64,
    /// End-to-end latency of completed queries.
    pub query_latency: HistogramSnapshot,
    /// Sampling/estimation-stage latency of completed queries.
    pub stage_latency: HistogramSnapshot,
    /// JT exhaustive-filter latency (recorded for joint queries only).
    pub filter_latency: HistogramSnapshot,
    /// Time spent inside oracle labeling, per completed query — the
    /// planner's view of oracle cost (the same accounting that feeds its
    /// latency EWMA), not whole-query wall clock.
    pub oracle_latency: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Total queries shed, across all causes.
    pub fn shed_total(&self) -> u64 {
        self.shed_overload + self.shed_budget + self.shed_circuit
    }

    /// Cache hit rate over all artifact lookups, or zero when none.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_power_of_two_ranges() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(1023), 10);
        assert_eq!(LatencyHistogram::bucket_of(1024), 11);
        // Saturation: everything past 2^39 ns lands in the last bucket.
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_nearest_rank_bucket_bounds() {
        let h = LatencyHistogram::new();
        assert_eq!(h.snapshot().quantile(0.99), Duration::ZERO);

        // 99 fast samples (~1 µs) and one slow (~1 s): p50 must stay in
        // the fast bucket, p100 must reach the slow one.
        for _ in 0..99 {
            h.record(Duration::from_micros(1));
        }
        h.record(Duration::from_secs(1));
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        let p50 = s.quantile(0.5);
        assert!(p50 >= Duration::from_micros(1) && p50 < Duration::from_micros(3));
        assert!(s.quantile(1.0) >= Duration::from_secs(1));
        // Nearest rank: p99 of 100 samples is the 99th sample — fast.
        assert!(s.quantile(0.99) < Duration::from_micros(3));
        assert!(s.mean() >= Duration::from_millis(9));
    }

    #[test]
    fn recording_is_safe_under_concurrency() {
        let h = LatencyHistogram::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1_000u64 {
                        h.record(Duration::from_nanos(i));
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 4_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4_000);
    }
}

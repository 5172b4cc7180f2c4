//! In-process regression gates for the properties the end-to-end
//! benchmark (`perfbench/`) cannot see: fast paths against the
//! reference implementations the tests also use, several concurrent
//! clients, injected oracle faults, and planner cells with a slow
//! oracle or a small corpus.
//!
//! [`perf`] measures them; the `bench_export --check` binary gates them
//! against `BENCH_selectors.json` at the workspace root. The JSON
//! numbers are machine-dependent, so every gate compares a
//! machine-*independent* within-run ratio (e.g. the sweep-vs-naive
//! threshold-search speedup) rather than absolute nanoseconds.

pub mod perf;

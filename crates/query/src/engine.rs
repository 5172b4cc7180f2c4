//! Planning and execution of parsed SUPG statements.
//!
//! The engine is a thin planner over [`supg_core::SupgSession`]: it
//! resolves tables and UDFs from the catalog, picks a [`SelectorKind`]
//! (engine default, or a per-statement override), and hands the validated
//! session one statement at a time. All three query kinds — RT, PT and JT
//! — run through the same session entry point.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use supg_core::selectors::SelectorConfig;
use supg_core::session::DEFAULT_JT_STAGE_BUDGET;
use supg_core::{CachedOracle, RuntimeConfig, SelectorKind, SupgSession, TargetKind};

use crate::ast::{Literal, SupgStatement};
use crate::catalog::{Catalog, OracleUdf, Table};
use crate::error::QueryError;
use crate::parser::parse;

/// Engine-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Tuning knobs forwarded to the guaranteed selectors — including
    /// `tuning.sampler`, the [`supg_core::SamplerStrategy`] that picks
    /// the weighted-sampler backend per statement (`Alias` default;
    /// `Cdf`/`Auto` cut time-to-first-result on freshly registered
    /// proxies by skipping the alias-table construction for cold one-shot
    /// statements).
    pub tuning: SelectorConfig,
    /// Default algorithm family for statements without an override
    /// (default: the paper's importance-sampling selectors).
    pub selector: SelectorKind,
    /// Stage budget the JT pipeline allocates to its recall stage.
    pub jt_stage_budget: usize,
    /// Batched-labeling execution runtime (worker-pool width, batch
    /// size) applied to every statement's oracle. Only UDFs registered
    /// via [`Engine::register_parallel_oracle`] (pure `Fn + Sync`) are
    /// labeled on the worker pool — stateful [`Engine::register_oracle`]
    /// UDFs always run sequentially in draw order — so results are
    /// identical at every setting.
    pub runtime: RuntimeConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            tuning: SelectorConfig::default(),
            selector: SelectorKind::ImportanceSampling,
            jt_stage_budget: DEFAULT_JT_STAGE_BUDGET,
            runtime: RuntimeConfig::default(),
        }
    }
}

/// Execution summary returned to the user alongside the record set.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// The parsed statement that ran.
    pub statement: SupgStatement,
    /// Returned record indices (sorted ascending).
    pub indices: Vec<usize>,
    /// The proxy threshold the algorithm settled on (`∞` = sample-only).
    pub tau: f64,
    /// Total distinct oracle invocations consumed.
    pub oracle_calls: usize,
    /// Oracle calls of the sampling stage (for JT: before the filter).
    pub stage_calls: usize,
    /// Oracle calls of the JT exhaustive filter (0 for RT/PT).
    pub filter_calls: usize,
    /// Paper name of the threshold-estimation algorithm used.
    pub selector: &'static str,
    /// Wall-clock execution time (excluding parse).
    pub elapsed: Duration,
}

/// The SUPG query engine: a catalog of tables/UDFs plus a seeded RNG.
///
/// ```
/// use supg_query::Engine;
///
/// let mut engine = Engine::with_seed(42);
/// engine.create_table("frames", 10_000);
/// // a proxy score per record, here synthetic:
/// let scores: Vec<f64> = (0..10_000).map(|i| (i % 100) as f64 / 100.0).collect();
/// let truth: Vec<bool> = scores.iter().map(|&s| s > 0.9).collect();
/// engine.register_proxy("frames", "bird_score", scores).unwrap();
/// engine.register_oracle("frames", "HAS_BIRD", move |i| truth[i]);
///
/// let report = engine
///     .execute(
///         "SELECT * FROM frames WHERE HAS_BIRD(frame) = true \
///          ORACLE LIMIT 500 USING bird_score RECALL TARGET 90% \
///          WITH PROBABILITY 95%",
///     )
///     .unwrap();
/// assert_eq!(report.selector, "IS-CI-R");
/// assert!(!report.indices.is_empty());
///
/// // Per-statement selector override: same SQL, uniform baseline.
/// use supg_query::SelectorKind;
/// let report = engine
///     .execute_with(
///         "SELECT * FROM frames WHERE HAS_BIRD(frame) = true \
///          ORACLE LIMIT 500 USING bird_score RECALL TARGET 90% \
///          WITH PROBABILITY 95%",
///         Some(SelectorKind::Uniform),
///     )
///     .unwrap();
/// assert_eq!(report.selector, "U-CI-R");
/// ```
pub struct Engine {
    catalog: Catalog,
    config: EngineConfig,
    rng: StdRng,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("tables", &self.catalog.table_names())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::with_seed(0x5379_9AD1)
    }
}

impl Engine {
    /// Engine with a fixed RNG seed (deterministic executions).
    pub fn with_seed(seed: u64) -> Self {
        Self {
            catalog: Catalog::new(),
            config: EngineConfig::default(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Engine with explicit configuration.
    pub fn with_config(seed: u64, config: EngineConfig) -> Self {
        Self {
            catalog: Catalog::new(),
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Creates (or replaces) a table of `len` records.
    pub fn create_table(&mut self, name: &str, len: usize) {
        self.catalog.add_table(Table::new(name, len));
    }

    /// Registers a proxy UDF's precomputed scores on a table.
    ///
    /// # Errors
    /// Unknown table, length mismatch, or invalid scores.
    pub fn register_proxy(
        &mut self,
        table: &str,
        udf: &str,
        scores: Vec<f64>,
    ) -> Result<(), QueryError> {
        self.catalog.table_mut(table)?.register_proxy(udf, scores)
    }

    /// Registers an oracle UDF callback on a table. The callback may be
    /// stateful (`FnMut`), so queries always invoke it sequentially in
    /// draw order, independent of [`EngineConfig::runtime`].
    ///
    /// # Errors
    /// Unknown table.
    pub fn register_oracle(
        &mut self,
        table: &str,
        udf: &str,
        f: impl FnMut(usize) -> bool + Send + 'static,
    ) -> Result<(), QueryError> {
        self.catalog.table_mut(table)?.register_oracle(udf, f);
        Ok(())
    }

    /// Registers a thread-safe oracle UDF that is a pure function of the
    /// record index. Queries label it batch-parallel under
    /// [`EngineConfig::runtime`], with identical results at every
    /// parallelism/batch-size setting (the [`supg_core::runtime`]
    /// determinism contract).
    ///
    /// # Errors
    /// Unknown table.
    pub fn register_parallel_oracle(
        &mut self,
        table: &str,
        udf: &str,
        f: impl Fn(usize) -> bool + Send + Sync + 'static,
    ) -> Result<(), QueryError> {
        self.catalog
            .table_mut(table)?
            .register_parallel_oracle(udf, f);
        Ok(())
    }

    /// Access to the underlying catalog (diagnostics, REPLs).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Parses and executes one SUPG statement with the engine's default
    /// selector.
    ///
    /// # Errors
    /// Parse/semantic errors, unknown tables/UDFs, or execution failures.
    pub fn execute(&mut self, sql: &str) -> Result<QueryReport, QueryError> {
        self.execute_with(sql, None)
    }

    /// Parses and executes one SUPG statement, optionally overriding the
    /// configured [`SelectorKind`] for this statement only.
    ///
    /// # Errors
    /// Parse/semantic errors, unknown tables/UDFs, or execution failures
    /// (including unsupported selector/target combinations).
    pub fn execute_with(
        &mut self,
        sql: &str,
        selector: Option<SelectorKind>,
    ) -> Result<QueryReport, QueryError> {
        let statement = parse(sql)?;
        self.execute_statement_with(statement, selector)
    }

    /// Executes an already-parsed statement with the engine's default
    /// selector.
    ///
    /// # Errors
    /// Unknown tables/UDFs or execution failures.
    pub fn execute_statement(
        &mut self,
        statement: SupgStatement,
    ) -> Result<QueryReport, QueryError> {
        self.execute_statement_with(statement, None)
    }

    /// Executes an already-parsed statement, optionally overriding the
    /// configured [`SelectorKind`] for this statement only.
    ///
    /// # Errors
    /// Unknown tables/UDFs or execution failures.
    pub fn execute_statement_with(
        &mut self,
        statement: SupgStatement,
        selector: Option<SelectorKind>,
    ) -> Result<QueryReport, QueryError> {
        let table = self.catalog.table(&statement.table)?;
        // Prepared proxy: the table keeps its rank index and sampling
        // artifacts across statements, so repeated queries skip both the
        // O(n log n) score sort and the O(n) weight/alias setup. The
        // first statement over a proxy builds the rank index on the
        // configured worker pool — which `prepare_with` also adopts for
        // the weight/alias artifact builds that follow (chunk-partitioned
        // feeds; bit-identical to the lazy serial build either way).
        let dataset = table.prepared_proxy(&statement.proxy.name)?;
        dataset.prepare_with(&self.config.runtime);
        let oracle_udf = table.oracle(&statement.predicate.name)?;

        // `WHERE F(x) = false` selects the records the oracle rejects.
        let invert = match &statement.predicate.equals {
            None | Some(Literal::Bool(true)) => false,
            Some(Literal::Bool(false)) => true,
            Some(other) => {
                return Err(QueryError::Semantic(format!(
                    "oracle predicates compare only to true/false, got {other}"
                )))
            }
        };
        let len = dataset.len();

        // Plan the session from the statement. The configured default is
        // a *family* and resolves through the registry's paper defaults
        // (`ImportanceSampling` on a PT statement runs the two-stage
        // IS-CI-P); an explicit per-statement override is honored
        // verbatim — `Some(ImportanceSampling)` on a PT statement runs
        // the one-stage Figure-7 estimator.
        let kind = selector.unwrap_or_else(|| {
            let target = if !statement.is_joint() && statement.precision_target().is_some() {
                TargetKind::Precision
            } else {
                // JT statements resolve for their recall sampling stage.
                TargetKind::Recall
            };
            self.config.selector.paper_family_default(target)
        });
        let mut session = SupgSession::over(dataset)
            .delta(statement.delta())
            .selector(kind)
            .selector_config(self.config.tuning);
        if let Some(gamma) = statement.recall_target() {
            session = session.recall(gamma);
        }
        if let Some(gamma) = statement.precision_target() {
            session = session.precision(gamma);
        }
        let budget = if statement.is_joint() {
            session = session.joint(self.config.jt_stage_budget);
            0 // the session lifts the oracle budget stage by stage
        } else {
            let budget = statement
                .oracle_limit
                .expect("validated: single-target has budget");
            session = session.budget(budget);
            budget
        };

        // Stateful (`FnMut`) UDFs get a serial oracle so their state
        // evolves in draw order regardless of `runtime.parallelism`; only
        // pure `register_parallel_oracle` UDFs go on the worker pool.
        let mut oracle = match oracle_udf {
            OracleUdf::Serial(udf) => CachedOracle::new(len, budget, move |i: usize| {
                let raw = (udf.lock().expect("oracle UDF poisoned"))(i);
                raw != invert
            }),
            OracleUdf::Shared(f) => {
                CachedOracle::parallel(len, budget, move |i: usize| f(i) != invert)
            }
        }
        .with_runtime(self.config.runtime);
        // Each statement's seed is the next draw of the engine's seeded
        // RNG, so a script replays identically per `Engine::with_seed`.
        let outcome = session
            .seed(self.rng.next_u64())
            .run(&mut oracle)
            .map_err(QueryError::Execution)?;
        Ok(QueryReport {
            indices: outcome.result.indices().to_vec(),
            tau: outcome.tau,
            oracle_calls: outcome.oracle_calls,
            stage_calls: outcome.stage_calls,
            filter_calls: outcome.filter_calls,
            selector: outcome.selector,
            elapsed: outcome.elapsed,
            statement,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A calibrated engine over separable data: positives are the records
    /// with score > 0.8.
    fn engine(n: usize) -> Engine {
        let mut e = Engine::with_seed(7);
        e.create_table("frames", n);
        let scores: Vec<f64> = (0..n).map(|i| (i % 1000) as f64 / 1000.0).collect();
        let truth: Vec<bool> = scores.iter().map(|&s| s > 0.8).collect();
        e.register_proxy("frames", "score", scores).unwrap();
        e.register_oracle("frames", "MATCH", move |i| truth[i])
            .unwrap();
        e
    }

    #[test]
    fn rt_query_end_to_end() {
        let mut e = engine(20_000);
        let report = e
            .execute(
                "SELECT * FROM frames WHERE MATCH(f) = true ORACLE LIMIT 1000 \
                 USING score RECALL TARGET 90% WITH PROBABILITY 95%",
            )
            .unwrap();
        assert_eq!(report.selector, "IS-CI-R");
        assert!(report.oracle_calls <= 1000);
        assert_eq!(report.filter_calls, 0);
        // ~20% of records are positive; a 90%-recall result should return
        // a large fraction of them.
        assert!(
            report.indices.len() >= 3_000,
            "returned {}",
            report.indices.len()
        );
    }

    #[test]
    fn pt_query_uses_two_stage() {
        let mut e = engine(20_000);
        let report = e
            .execute(
                "SELECT * FROM frames WHERE MATCH(f) ORACLE LIMIT 1000 \
                 USING score PRECISION TARGET 90% WITH PROBABILITY 95%",
            )
            .unwrap();
        assert_eq!(report.selector, "IS-CI-P");
        assert!(report.oracle_calls <= 1000);
    }

    #[test]
    fn joint_query_runs_unbudgeted() {
        let mut e = engine(10_000);
        let report = e
            .execute(
                "SELECT * FROM frames WHERE MATCH(f) USING score \
                 RECALL TARGET 80% PRECISION TARGET 90% WITH PROBABILITY 95%",
            )
            .unwrap();
        // The exhaustive filter keeps only oracle positives: scores > 0.8.
        assert!(!report.indices.is_empty());
        assert!(report.oracle_calls >= 1_000);
        assert_eq!(
            report.oracle_calls,
            report.stage_calls + report.filter_calls
        );
        assert_eq!(report.selector, "IS-CI-R");
    }

    #[test]
    fn statement_k_runs_with_the_kth_seed_of_the_engine_rng() {
        // The per-statement seed contract: statement k of a script runs
        // exactly the session seeded with the k-th `next_u64` of the
        // engine's seeded RNG.
        let n = 10_000;
        let mut e = engine(n);
        let truth: Vec<bool> = (0..n).map(|i| (i % 1000) as f64 / 1000.0 > 0.8).collect();
        let script = [
            "SELECT * FROM frames WHERE MATCH(f) ORACLE LIMIT 600 \
             USING score RECALL TARGET 90% WITH PROBABILITY 95%",
            "SELECT * FROM frames WHERE MATCH(f) ORACLE LIMIT 600 \
             USING score PRECISION TARGET 90% WITH PROBABILITY 95%",
            "SELECT * FROM frames WHERE MATCH(f) USING score \
             RECALL TARGET 80% PRECISION TARGET 90% WITH PROBABILITY 95%",
            "SELECT * FROM frames WHERE MATCH(f) ORACLE LIMIT 600 \
             USING score RECALL TARGET 90% WITH PROBABILITY 95%",
        ];
        let reports: Vec<QueryReport> = script.iter().map(|sql| e.execute(sql).unwrap()).collect();
        let prepared = e
            .catalog()
            .table("frames")
            .unwrap()
            .prepared_proxy("score")
            .unwrap();
        let mut seeds = StdRng::seed_from_u64(7);
        for (k, (sql, report)) in script.iter().zip(&reports).enumerate() {
            let statement = parse(sql).unwrap();
            let mut session = SupgSession::over(&*prepared)
                .delta(statement.delta())
                .seed(seeds.next_u64());
            if let Some(gamma) = statement.recall_target() {
                session = session.recall(gamma);
            }
            if let Some(gamma) = statement.precision_target() {
                session = session.precision(gamma);
            }
            session = match statement.oracle_limit {
                Some(budget) => session.budget(budget),
                None => session.joint(DEFAULT_JT_STAGE_BUDGET),
            };
            let budget = statement.oracle_limit.unwrap_or(0);
            let mut oracle = CachedOracle::from_labels(truth.clone(), budget);
            let expected = session.run(&mut oracle).unwrap();
            assert_eq!(
                report.tau.to_bits(),
                expected.tau.to_bits(),
                "statement {k}"
            );
            assert_eq!(report.indices, expected.result.indices(), "statement {k}");
            assert_eq!(report.selector, expected.selector, "statement {k}");
            assert_eq!(
                (report.oracle_calls, report.stage_calls, report.filter_calls),
                (
                    expected.oracle_calls,
                    expected.stage_calls,
                    expected.filter_calls
                ),
                "statement {k}"
            );
        }
    }

    #[test]
    fn inverted_predicate_selects_negatives() {
        let mut e = Engine::with_seed(9);
        e.create_table("t", 1_000);
        // Proxy for "not a match": high when the oracle says false.
        let scores: Vec<f64> = (0..1_000)
            .map(|i| if i < 900 { 0.95 } else { 0.05 })
            .collect();
        e.register_proxy("t", "not_match_score", scores).unwrap();
        e.register_oracle("t", "MATCH", |i| i >= 900).unwrap();
        let report = e
            .execute(
                "SELECT * FROM t WHERE MATCH(x) = false ORACLE LIMIT 200 \
                 USING not_match_score RECALL TARGET 80% WITH PROBABILITY 95%",
            )
            .unwrap();
        // The negatives (oracle false) are records 0..900.
        let negatives_returned = report.indices.iter().filter(|&&i| i < 900).count();
        assert!(negatives_returned >= 720, "{negatives_returned}");
    }

    #[test]
    fn unknown_entities_error_cleanly() {
        let mut e = engine(1_000);
        let err = e
            .execute(
                "SELECT * FROM nope WHERE MATCH(f) ORACLE LIMIT 10 USING score \
                 RECALL TARGET 90% WITH PROBABILITY 95%",
            )
            .unwrap_err();
        assert_eq!(err, QueryError::UnknownTable("nope".into()));
        let err = e
            .execute(
                "SELECT * FROM frames WHERE MATCH(f) ORACLE LIMIT 10 USING nope \
                 RECALL TARGET 90% WITH PROBABILITY 95%",
            )
            .unwrap_err();
        assert!(matches!(err, QueryError::UnknownUdf { .. }));
    }

    #[test]
    fn string_comparison_on_oracle_is_rejected() {
        let mut e = engine(1_000);
        let err = e
            .execute(
                "SELECT * FROM frames WHERE MATCH(f) = 'bird' ORACLE LIMIT 10 \
                 USING score RECALL TARGET 90% WITH PROBABILITY 95%",
            )
            .unwrap_err();
        assert!(matches!(err, QueryError::Semantic(_)));
    }

    #[test]
    fn uniform_engine_config_switches_selectors() {
        let mut e = Engine::with_config(
            11,
            EngineConfig {
                selector: SelectorKind::Uniform,
                ..EngineConfig::default()
            },
        );
        e.create_table("t", 5_000);
        let scores: Vec<f64> = (0..5_000).map(|i| (i % 100) as f64 / 100.0).collect();
        let truth: Vec<bool> = scores.iter().map(|&s| s > 0.9).collect();
        e.register_proxy("t", "p", scores).unwrap();
        e.register_oracle("t", "O", move |i| truth[i]).unwrap();
        let report = e
            .execute(
                "SELECT * FROM t WHERE O(x) ORACLE LIMIT 500 USING p \
                 RECALL TARGET 90% WITH PROBABILITY 95%",
            )
            .unwrap();
        assert_eq!(report.selector, "U-CI-R");
    }

    #[test]
    fn parallel_runtime_reproduces_sequential_reports() {
        let sql = "SELECT * FROM frames WHERE MATCH(f) ORACLE LIMIT 800 \
                   USING score RECALL TARGET 90% WITH PROBABILITY 95%";
        let run = |runtime: RuntimeConfig, parallel_udf: bool| {
            let mut e = Engine::with_config(
                7,
                EngineConfig {
                    runtime,
                    ..EngineConfig::default()
                },
            );
            e.create_table("frames", 20_000);
            let scores: Vec<f64> = (0..20_000).map(|i| (i % 1000) as f64 / 1000.0).collect();
            let truth: Vec<bool> = scores.iter().map(|&s| s > 0.8).collect();
            e.register_proxy("frames", "score", scores).unwrap();
            if parallel_udf {
                e.register_parallel_oracle("frames", "MATCH", move |i| truth[i])
                    .unwrap();
            } else {
                e.register_oracle("frames", "MATCH", move |i| truth[i])
                    .unwrap();
            }
            e.execute(sql).unwrap()
        };
        let sequential = run(RuntimeConfig::default(), false);
        for parallelism in [2, 8] {
            let runtime = RuntimeConfig::default()
                .with_parallelism(parallelism)
                .with_batch_size(32);
            // Both UDF flavors must reproduce the sequential report — the
            // pure one on the worker pool, the FnMut one by staying
            // sequential regardless of the configured parallelism.
            for parallel_udf in [true, false] {
                let report = run(runtime, parallel_udf);
                assert_eq!(report.indices, sequential.indices);
                assert_eq!(report.tau, sequential.tau);
                assert_eq!(report.oracle_calls, sequential.oracle_calls);
            }
        }
    }

    #[test]
    fn stateful_udf_sees_draw_order_even_under_parallel_runtime() {
        // A call-order-sensitive FnMut UDF must observe the exact
        // sequential draw order even when the engine runtime asks for a
        // worker pool (the engine keeps stateful UDFs off the pool).
        use std::sync::mpsc;
        let run = |parallelism: usize| {
            let (tx, rx) = mpsc::channel();
            let mut e = Engine::with_config(
                13,
                EngineConfig {
                    runtime: RuntimeConfig::default()
                        .with_parallelism(parallelism)
                        .with_batch_size(16),
                    ..EngineConfig::default()
                },
            );
            e.create_table("t", 5_000);
            let scores: Vec<f64> = (0..5_000).map(|i| (i % 100) as f64 / 100.0).collect();
            e.register_proxy("t", "p", scores).unwrap();
            e.register_oracle("t", "O", move |i| {
                tx.send(i).unwrap();
                i % 100 > 90
            })
            .unwrap();
            e.execute(
                "SELECT * FROM t WHERE O(x) ORACLE LIMIT 300 USING p \
                 RECALL TARGET 90% WITH PROBABILITY 95%",
            )
            .unwrap();
            rx.try_iter().collect::<Vec<usize>>()
        };
        assert_eq!(run(1), run(8), "stateful UDF call order changed");
    }

    #[test]
    fn cdf_sampler_strategy_serves_statements_deterministically() {
        use supg_core::selectors::SelectorConfig;
        use supg_core::SamplerStrategy;
        let sql = "SELECT * FROM frames WHERE MATCH(f) ORACLE LIMIT 800 \
                   USING score RECALL TARGET 90% WITH PROBABILITY 95%";
        let run = |strategy: SamplerStrategy| {
            let mut e = Engine::with_config(
                21,
                EngineConfig {
                    tuning: SelectorConfig::default().with_sampler(strategy),
                    ..EngineConfig::default()
                },
            );
            e.create_table("frames", 20_000);
            let scores: Vec<f64> = (0..20_000).map(|i| (i % 1000) as f64 / 1000.0).collect();
            let truth: Vec<bool> = scores.iter().map(|&s| s > 0.8).collect();
            e.register_proxy("frames", "score", scores).unwrap();
            e.register_oracle("frames", "MATCH", move |i| truth[i])
                .unwrap();
            e.execute(sql).unwrap()
        };
        // The CDF backend is deterministic per seed and answers the query
        // within budget; its draws differ from the alias backend's (the
        // documented seed-stream contract), so the reports need not match
        // across strategies.
        let a = run(SamplerStrategy::Cdf);
        let b = run(SamplerStrategy::Cdf);
        assert_eq!(a.indices, b.indices);
        assert_eq!(a.tau.to_bits(), b.tau.to_bits());
        assert!(a.oracle_calls <= 800);
        assert_eq!(a.selector, "IS-CI-R");
        let auto = run(SamplerStrategy::Auto);
        assert!(auto.oracle_calls <= 800);
    }

    #[test]
    fn per_statement_selector_override_beats_the_default() {
        let mut e = engine(5_000);
        let sql = "SELECT * FROM frames WHERE MATCH(f) ORACLE LIMIT 500 \
                   USING score RECALL TARGET 90% WITH PROBABILITY 95%";
        // Default is importance sampling …
        assert_eq!(e.execute(sql).unwrap().selector, "IS-CI-R");
        // … and each statement can pick its own algorithm.
        for (kind, name) in [
            (SelectorKind::Uniform, "U-CI-R"),
            (SelectorKind::UniformNoCi, "U-NoCI-R"),
            (SelectorKind::ImportanceSampling, "IS-CI-R"),
        ] {
            let report = e.execute_with(sql, Some(kind)).unwrap();
            assert_eq!(report.selector, name);
        }
        // Unsupported combinations surface as typed execution errors.
        let err = e
            .execute_with(sql, Some(SelectorKind::TwoStage))
            .unwrap_err();
        assert!(matches!(err, QueryError::Execution(_)), "{err:?}");
    }

    #[test]
    fn explicit_pt_override_is_honored_verbatim() {
        let mut e = engine(5_000);
        let sql = "SELECT * FROM frames WHERE MATCH(f) ORACLE LIMIT 500 \
                   USING score PRECISION TARGET 90% WITH PROBABILITY 95%";
        // Engine default upgrades the SUPG family to the two-stage IS-CI-P…
        assert_eq!(e.execute(sql).unwrap().selector, "IS-CI-P");
        // …but an explicit override runs exactly the registry algorithm.
        let report = e
            .execute_with(sql, Some(SelectorKind::ImportanceSampling))
            .unwrap();
        assert_eq!(report.selector, "IS-CI-P-1stage");
        let report = e.execute_with(sql, Some(SelectorKind::TwoStage)).unwrap();
        assert_eq!(report.selector, "IS-CI-P");
    }
}

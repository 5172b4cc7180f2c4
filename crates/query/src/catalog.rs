//! Tables and user-defined functions.
//!
//! The paper's operational model (§4.1): users register a table of records,
//! one or more *proxy* UDFs (cheap — evaluated over every record up front,
//! so registration takes the full score column), and one or more *oracle*
//! UDFs (expensive callbacks — invoked record-by-record under a budget).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use supg_core::{PreparedDataset, ScoredDataset};

use crate::error::QueryError;

/// A registered oracle callback.
///
/// The variant decides how the engine may execute it: `Serial` callbacks
/// (arbitrary stateful `FnMut`) are always labeled one record at a time in
/// draw order, while `Shared` callbacks (pure `Fn + Sync`, registered via
/// [`Table::register_parallel_oracle`]) may be invoked concurrently by the
/// batched oracle runtime — the distinction is what keeps stateful UDFs
/// deterministic under `EngineConfig::runtime.parallelism > 1`.
#[derive(Clone)]
pub enum OracleUdf {
    /// Arbitrary stateful callback, labeled strictly sequentially.
    Serial(Arc<Mutex<dyn FnMut(usize) -> bool + Send>>),
    /// Pure, thread-safe callback the worker pool may call concurrently.
    Shared(Arc<dyn Fn(usize) -> bool + Send + Sync>),
}

impl OracleUdf {
    /// Invokes the callback for one record (locking `Serial` variants).
    pub fn call(&self, index: usize) -> bool {
        match self {
            OracleUdf::Serial(f) => (f.lock().expect("oracle UDF poisoned"))(index),
            OracleUdf::Shared(f) => f(index),
        }
    }
}

/// One registered table: a record count plus its proxy score columns and
/// oracle callbacks.
///
/// Proxies are stored as [`PreparedDataset`]s, so the sampling artifacts
/// (importance weights + alias tables) a statement builds are kept on the
/// table and reused by every later statement over the same proxy — the
/// engine pays the O(n) preparation once per `(proxy, weight recipe)`,
/// not once per query.
pub struct Table {
    name: String,
    len: usize,
    proxies: HashMap<String, Arc<PreparedDataset>>,
    oracles: HashMap<String, OracleUdf>,
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("len", &self.len)
            .field("proxies", &self.proxies.keys().collect::<Vec<_>>())
            .field("oracles", &self.oracles.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Table {
    /// Creates an empty table of `len` records.
    pub fn new(name: impl Into<String>, len: usize) -> Self {
        Self {
            name: name.into(),
            len,
            proxies: HashMap::new(),
            oracles: HashMap::new(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table has no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Registers a proxy UDF by materializing its scores over all records
    /// (proxies are cheap by assumption; SUPG evaluates them up front).
    ///
    /// # Errors
    /// [`QueryError::Semantic`] when the score column length mismatches the
    /// table or scores are invalid.
    pub fn register_proxy(
        &mut self,
        name: impl Into<String>,
        scores: Vec<f64>,
    ) -> Result<(), QueryError> {
        if scores.len() != self.len {
            return Err(QueryError::Semantic(format!(
                "proxy column has {} scores but table {:?} has {} records",
                scores.len(),
                self.name,
                self.len
            )));
        }
        let dataset = ScoredDataset::new(scores).map_err(QueryError::Execution)?;
        self.proxies
            .insert(name.into(), Arc::new(PreparedDataset::new(dataset)));
        Ok(())
    }

    /// Registers an oracle UDF callback. The callback may be stateful
    /// (`FnMut`), so it is always invoked sequentially in draw order —
    /// use [`register_parallel_oracle`](Table::register_parallel_oracle)
    /// for a pure callback the batched runtime may parallelize.
    pub fn register_oracle(
        &mut self,
        name: impl Into<String>,
        f: impl FnMut(usize) -> bool + Send + 'static,
    ) {
        self.oracles
            .insert(name.into(), OracleUdf::Serial(Arc::new(Mutex::new(f))));
    }

    /// Registers a thread-safe oracle UDF callback that must be a pure
    /// function of the record index. Queries label it batch-parallel under
    /// `EngineConfig::runtime` with results identical at every
    /// parallelism/batch-size setting (the `supg_core::runtime`
    /// determinism contract).
    pub fn register_parallel_oracle(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(usize) -> bool + Send + Sync + 'static,
    ) {
        self.oracles
            .insert(name.into(), OracleUdf::Shared(Arc::new(f)));
    }

    /// Looks up a proxy's prepared dataset (scores + the shared rank
    /// index + the cached sampling artifacts, all reused across
    /// statements).
    pub fn prepared_proxy(&self, name: &str) -> Result<Arc<PreparedDataset>, QueryError> {
        self.proxies
            .get(name)
            .cloned()
            .ok_or_else(|| QueryError::UnknownUdf {
                table: self.name.clone(),
                udf: name.to_owned(),
            })
    }

    /// Looks up an oracle callback.
    pub fn oracle(&self, name: &str) -> Result<OracleUdf, QueryError> {
        self.oracles
            .get(name)
            .cloned()
            .ok_or_else(|| QueryError::UnknownUdf {
                table: self.name.clone(),
                udf: name.to_owned(),
            })
    }

    /// Registered proxy names (sorted, for diagnostics).
    pub fn proxy_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.proxies.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Every registered proxy as a `(name, shared prepared handle)` pair,
    /// sorted by name — what a serving pool adopts to share this table's
    /// artifact caches with sessions outside the engine.
    pub fn prepared_proxies(&self) -> Vec<(&str, Arc<PreparedDataset>)> {
        let mut v: Vec<(&str, Arc<PreparedDataset>)> = self
            .proxies
            .iter()
            .map(|(name, p)| (name.as_str(), Arc::clone(p)))
            .collect();
        v.sort_unstable_by_key(|(name, _)| *name);
        v
    }

    /// Registered oracle names (sorted, for diagnostics).
    pub fn oracle_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.oracles.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }
}

/// The collection of registered tables.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, Table>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a table.
    pub fn add_table(&mut self, table: Table) {
        self.tables.insert(table.name().to_owned(), table);
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Result<&Table, QueryError> {
        self.tables
            .get(name)
            .ok_or_else(|| QueryError::UnknownTable(name.to_owned()))
    }

    /// Mutable table lookup.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, QueryError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| QueryError::UnknownTable(name.to_owned()))
    }

    /// Registered table names (sorted).
    pub fn table_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Every registered proxy across every table as
    /// `(table, proxy, shared prepared handle)` triples, sorted — the
    /// enumeration a serving pool walks to adopt the engine's prepared
    /// datasets (and with them its artifact caches) wholesale.
    pub fn prepared_proxies(&self) -> Vec<(&str, &str, Arc<PreparedDataset>)> {
        let mut v: Vec<(&str, &str, Arc<PreparedDataset>)> = self
            .tables
            .iter()
            .flat_map(|(table, t)| {
                t.prepared_proxies()
                    .into_iter()
                    .map(move |(proxy, p)| (table.as_str(), proxy, p))
            })
            .collect();
        v.sort_unstable_by_key(|&(table, proxy, _)| (table, proxy));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut t = Table::new("video", 4);
        t.register_proxy("score", vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        t.register_oracle("truth", |i| i == 3);
        t.register_parallel_oracle("pure_truth", |i| i == 3);
        assert_eq!(t.prepared_proxy("score").unwrap().len(), 4);
        assert!(t.prepared_proxy("missing").is_err());
        let oracle = t.oracle("truth").unwrap();
        assert!(matches!(oracle, OracleUdf::Serial(_)));
        assert!(oracle.call(3));
        let oracle = t.oracle("pure_truth").unwrap();
        assert!(matches!(oracle, OracleUdf::Shared(_)));
        assert!(oracle.call(3));
        let mut names = t.oracle_names();
        names.sort_unstable();
        assert_eq!(names, vec!["pure_truth", "truth"]);
        assert_eq!(t.proxy_names(), vec!["score"]);
    }

    #[test]
    fn proxy_length_mismatch_is_rejected() {
        let mut t = Table::new("video", 4);
        let err = t.register_proxy("score", vec![0.1]).unwrap_err();
        assert!(matches!(err, QueryError::Semantic(_)));
    }

    #[test]
    fn prepared_proxies_enumerate_shared_handles() {
        let mut a = Table::new("a", 3);
        a.register_proxy("p2", vec![0.1, 0.2, 0.3]).unwrap();
        a.register_proxy("p1", vec![0.3, 0.2, 0.1]).unwrap();
        let mut b = Table::new("b", 2);
        b.register_proxy("q", vec![0.5, 0.6]).unwrap();
        let mut c = Catalog::new();
        c.add_table(a);
        c.add_table(b);

        let all = c.prepared_proxies();
        let names: Vec<(&str, &str)> = all.iter().map(|&(t, p, _)| (t, p)).collect();
        assert_eq!(names, vec![("a", "p1"), ("a", "p2"), ("b", "q")]);
        // The handles alias the catalog's own prepared datasets.
        let direct = c.table("a").unwrap().prepared_proxy("p1").unwrap();
        assert!(Arc::ptr_eq(&all[0].2, &direct));
    }

    #[test]
    fn catalog_lookup_errors() {
        let mut c = Catalog::new();
        c.add_table(Table::new("a", 2));
        assert!(c.table("a").is_ok());
        assert_eq!(
            c.table("b").unwrap_err(),
            QueryError::UnknownTable("b".into())
        );
        assert_eq!(c.table_names(), vec!["a"]);
    }
}

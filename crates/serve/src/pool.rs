//! The session pool: named, `Arc`-shared [`PreparedDataset`] handles.
//!
//! A pool is the serving-side home of prepared corpora. Every query kind
//! (RT/PT/JT) and every concurrent client runs over the *same*
//! `Arc<PreparedDataset>` handle, so the rank index and the keyed
//! sampling-artifact cache are built once and shared by everyone — the
//! read-optimized cache path in `supg_core::prepared` makes the warm
//! lookups contention-free. Registration (rare) takes the pool's write
//! lock; lookup (every query) takes the read lock for one `HashMap` get
//! plus an `Arc` clone.
//!
//! The pool is also the server's source of truth for dataset names:
//! [`SupgServer::serve`](crate::server::SupgServer::serve) resolves the
//! name here *before* reserving tenant budget or materializing a circuit
//! breaker, so unknown names stay free and the per-dataset breaker map
//! stays bounded by the registered corpora.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use supg_core::selectors::SelectorConfig;
use supg_core::{CacheStats, PreparedDataset, ScoredDataset, SegmentedDataset, SupgError};
use supg_query::Catalog;

use crate::error::ServeError;

/// A named registry of shared [`PreparedDataset`] handles.
#[derive(Debug, Default)]
pub struct SessionPool {
    datasets: RwLock<HashMap<String, Arc<PreparedDataset>>>,
}

impl SessionPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a prepared dataset under `name`, returning
    /// the shared handle. Registering an `Arc` the caller already holds
    /// shares its artifact cache — no copy, no rebuild.
    pub fn register(&self, name: impl Into<String>, dataset: Arc<PreparedDataset>) {
        self.datasets
            .write()
            .expect("session pool poisoned")
            .insert(name.into(), dataset);
    }

    /// Convenience: wraps raw proxy scores in a fresh prepared dataset and
    /// registers it.
    ///
    /// # Errors
    /// [`SupgError`] when the scores are invalid (empty, NaN, out of
    /// `[0, 1]`).
    pub fn register_scores(
        &self,
        name: impl Into<String>,
        scores: Vec<f64>,
    ) -> Result<Arc<PreparedDataset>, SupgError> {
        let prepared = Arc::new(PreparedDataset::new(ScoredDataset::new(scores)?));
        let shared = Arc::clone(&prepared);
        self.register(name, prepared);
        Ok(shared)
    }

    /// Convenience: constructs a corpus from raw proxy scores handed over
    /// as fixed-size segments ([`SegmentedDataset::new`]) and registers
    /// it. Segments are a way to construct the corpus, not a layout: the
    /// registration holds one flat dataset, so admitted queries take the
    /// flat path and answer bit-identically to
    /// [`register_scores`](Self::register_scores) of the same scores.
    ///
    /// # Errors
    /// [`SupgError`] when the scores are invalid (empty, NaN, out of
    /// `[0, 1]`) or `segment_size` is zero.
    pub fn register_segmented(
        &self,
        name: impl Into<String>,
        scores: Vec<f64>,
        segment_size: usize,
    ) -> Result<Arc<PreparedDataset>, SupgError> {
        let prepared = Arc::new(PreparedDataset::from_segmented(SegmentedDataset::new(
            scores,
            segment_size,
        )?));
        let shared = Arc::clone(&prepared);
        self.register(name, prepared);
        Ok(shared)
    }

    /// Adopts every prepared proxy of a SQL engine's catalog under
    /// `"table.proxy"` names. The pool shares the engine's own
    /// `Arc<PreparedDataset>` handles, so artifacts a SQL statement builds
    /// are warm for pool clients and vice versa — the engine serves
    /// through the same cache the pool does.
    pub fn adopt_catalog(&self, catalog: &Catalog) -> usize {
        let mut pool = self.datasets.write().expect("session pool poisoned");
        let mut adopted = 0;
        for (table, proxy, prepared) in catalog.prepared_proxies() {
            pool.insert(format!("{table}.{proxy}"), prepared);
            adopted += 1;
        }
        adopted
    }

    /// Looks a dataset up by name.
    ///
    /// # Errors
    /// [`ServeError::UnknownDataset`] when nothing is registered under
    /// `name`.
    pub fn get(&self, name: &str) -> Result<Arc<PreparedDataset>, ServeError> {
        self.datasets
            .read()
            .expect("session pool poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownDataset(name.to_owned()))
    }

    /// Pre-builds the rank index and the configuration's sampling
    /// artifacts for one dataset, so the first query it serves pays no
    /// O(n log n) setup.
    ///
    /// # Errors
    /// [`ServeError::UnknownDataset`] when nothing is registered under
    /// `name`.
    pub fn warm(&self, name: &str, cfg: &SelectorConfig) -> Result<(), ServeError> {
        self.get(name)?.warm(cfg);
        Ok(())
    }

    /// The artifact-cache counters of one registered dataset.
    ///
    /// # Errors
    /// [`ServeError::UnknownDataset`] when nothing is registered under
    /// `name`.
    pub fn cache_stats(&self, name: &str) -> Result<CacheStats, ServeError> {
        Ok(self.get(name)?.cache_stats())
    }

    /// Registered dataset names (sorted).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .datasets
            .read()
            .expect("session pool poisoned")
            .keys()
            .cloned()
            .collect();
        v.sort_unstable();
        v
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.datasets.read().expect("session pool poisoned").len()
    }

    /// True when no datasets are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supg_query::Table;

    fn scores(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64 / n as f64).collect()
    }

    #[test]
    fn register_and_lookup_share_one_handle() {
        let pool = SessionPool::new();
        assert!(pool.is_empty());
        let handle = pool.register_scores("videos", scores(100)).unwrap();
        assert_eq!(pool.len(), 1);
        let looked_up = pool.get("videos").unwrap();
        assert!(Arc::ptr_eq(&handle, &looked_up));
        assert!(matches!(
            pool.get("missing"),
            Err(ServeError::UnknownDataset(_))
        ));
        assert_eq!(pool.names(), vec!["videos".to_owned()]);
    }

    #[test]
    fn warm_prebuilds_artifacts_for_every_client() {
        let pool = SessionPool::new();
        let handle = pool.register_scores("videos", scores(100)).unwrap();
        assert_eq!(handle.cached_recipes(), 0);
        pool.warm("videos", &SelectorConfig::default()).unwrap();
        assert_eq!(handle.cached_recipes(), 1);
        assert!(pool.warm("missing", &SelectorConfig::default()).is_err());
        // The first real request is a cache hit.
        let before = pool.cache_stats("videos").unwrap();
        let cfg = SelectorConfig::default();
        let _ = handle.artifacts(cfg.weight_exponent, cfg.uniform_mix);
        let after = pool.cache_stats("videos").unwrap();
        assert_eq!(after.hits, before.hits + 1);
    }

    #[test]
    fn adopt_catalog_shares_the_engines_handles() {
        let mut table = Table::new("videos", 50);
        table.register_proxy("score", scores(50)).unwrap();
        table.register_proxy("alt", scores(50)).unwrap();
        let mut catalog = Catalog::new();
        catalog.add_table(table);

        let pool = SessionPool::new();
        assert_eq!(pool.adopt_catalog(&catalog), 2);
        assert_eq!(
            pool.names(),
            vec!["videos.alt".to_owned(), "videos.score".to_owned()]
        );
        // Same Arc as the catalog's — one artifact cache for both paths.
        let from_pool = pool.get("videos.score").unwrap();
        let from_catalog = catalog
            .table("videos")
            .unwrap()
            .prepared_proxy("score")
            .unwrap();
        assert!(Arc::ptr_eq(&from_pool, &from_catalog));
    }
}

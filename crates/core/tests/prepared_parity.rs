//! Prepared-vs-cold session parity: a session over a
//! [`PreparedDataset`] must produce a `QueryOutcome` identical to a cold
//! session over the same data and seed — the artifact cache amortizes
//! setup cost, never changes results — for every registry selector, the
//! JT pipeline, every parallelism level, and across concurrent sessions
//! sharing one prepared corpus.

use std::sync::Arc;

use supg_core::{
    CachedOracle, PreparedDataset, QueryOutcome, ScoredDataset, SelectorKind, SupgSession,
    TargetKind,
};

fn rare(n: usize, seed: u64) -> (ScoredDataset, Vec<bool>) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use supg_stats::dist::{Bernoulli, Beta};
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = Beta::new(0.08, 2.0);
    let mut scores = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let a = dist.sample(&mut rng);
        scores.push(a);
        labels.push(Bernoulli::new(a).sample(&mut rng));
    }
    (ScoredDataset::new(scores).unwrap(), labels)
}

fn assert_outcomes_identical(a: &QueryOutcome, b: &QueryOutcome, context: &str) {
    assert_eq!(a.tau.to_bits(), b.tau.to_bits(), "{context}: tau");
    assert_eq!(
        a.result.indices(),
        b.result.indices(),
        "{context}: result set"
    );
    assert_eq!(a.oracle_calls, b.oracle_calls, "{context}: oracle calls");
    assert_eq!(a.stage_calls, b.stage_calls, "{context}: stage calls");
    assert_eq!(a.filter_calls, b.filter_calls, "{context}: filter calls");
    assert_eq!(a.sample_draws, b.sample_draws, "{context}: draws");
    assert_eq!(
        a.sample_positives, b.sample_positives,
        "{context}: positives"
    );
    assert_eq!(a.selector, b.selector, "{context}: selector");
}

#[test]
fn prepared_sessions_match_cold_sessions_for_every_selector() {
    let (data, labels) = rare(20_000, 77);
    let prepared = PreparedDataset::new(data.clone());
    for (kind, target) in SelectorKind::registry() {
        for parallelism in [1usize, 4] {
            let run = |session: SupgSession<'_>| -> QueryOutcome {
                let session = match target {
                    TargetKind::Recall => session.recall(0.9),
                    TargetKind::Precision => session.precision(0.85),
                };
                let mut oracle = CachedOracle::from_labels(labels.clone(), 1_000);
                session
                    .budget(1_000)
                    .selector(kind)
                    .parallelism(parallelism)
                    .seed(4242)
                    .run(&mut oracle)
                    .unwrap()
            };
            let cold = run(SupgSession::over(&data));
            let warm = run(SupgSession::over(&prepared));
            let name = kind.paper_name(target).unwrap();
            assert_outcomes_identical(&cold, &warm, &format!("{name} @p{parallelism}"));
        }
    }
    // Every importance-family selector above shares one cached recipe.
    assert_eq!(prepared.cached_recipes(), 1);
}

#[test]
fn prepared_jt_pipeline_matches_cold() {
    let (data, labels) = rare(15_000, 78);
    let prepared = PreparedDataset::new(data.clone());
    let run = |session: SupgSession<'_>| {
        let mut oracle = CachedOracle::from_labels(labels.clone(), 0);
        session
            .recall(0.8)
            .precision(0.9)
            .joint(800)
            .seed(99)
            .run(&mut oracle)
            .unwrap()
    };
    let cold = run(SupgSession::over(&data));
    let warm = run(SupgSession::over(&prepared));
    assert!(warm.joint);
    assert_outcomes_identical(&cold, &warm, "JT");
}

#[test]
fn concurrent_shared_sessions_reproduce_the_cold_outcome() {
    let (data, labels) = rare(10_000, 79);
    let mut cold_oracle = CachedOracle::from_labels(labels.clone(), 800);
    let cold = SupgSession::over(&data)
        .recall(0.9)
        .budget(800)
        .seed(7)
        .run(&mut cold_oracle)
        .unwrap();

    let prepared = Arc::new(PreparedDataset::new(data));
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let prepared = Arc::clone(&prepared);
            let labels = labels.clone();
            std::thread::spawn(move || {
                let mut oracle = CachedOracle::from_labels(labels, 800);
                SupgSession::over(prepared)
                    .recall(0.9)
                    .budget(800)
                    .seed(7)
                    .run(&mut oracle)
                    .unwrap()
            })
        })
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let outcome = handle.join().unwrap();
        assert_outcomes_identical(&cold, &outcome, &format!("shared session {i}"));
    }
    assert_eq!(prepared.cached_recipes(), 1);
}

#[test]
fn pooled_preparation_matches_cold_sessions() {
    // Artifacts built eagerly on an 8-wide worker pool (rank index via
    // chunked sort + merge, weight feeds via chunked transforms) must
    // serve the exact outcome a cold session computes from scratch.
    let (data, labels) = rare(16_000, 81);
    let prepared = PreparedDataset::new(data.clone())
        .with_runtime(supg_core::RuntimeConfig::default().with_parallelism(8));
    prepared.prepare();
    prepared.warm(&supg_core::selectors::SelectorConfig::default());
    let run = |session: SupgSession<'_>| {
        let mut oracle = CachedOracle::from_labels(labels.clone(), 900);
        session
            .recall(0.9)
            .budget(900)
            .seed(4711)
            .run(&mut oracle)
            .unwrap()
    };
    let cold = run(SupgSession::over(&data));
    let warm = run(SupgSession::over(&prepared));
    assert_outcomes_identical(&cold, &warm, "pooled preparation");
    assert_eq!(cold.tau.to_bits(), warm.tau.to_bits());
}

#[test]
fn warmed_cache_serves_without_growth() {
    let (data, labels) = rare(5_000, 80);
    let prepared = PreparedDataset::new(data);
    prepared.warm(&supg_core::selectors::SelectorConfig::default());
    assert_eq!(prepared.cached_recipes(), 1);
    for seed in 0..4 {
        let mut oracle = CachedOracle::from_labels(labels.clone(), 400);
        SupgSession::over(&prepared)
            .precision(0.8)
            .budget(400)
            .seed(seed)
            .run(&mut oracle)
            .unwrap();
    }
    // Repeated default-recipe queries never rebuild or duplicate entries.
    assert_eq!(prepared.cached_recipes(), 1);
}

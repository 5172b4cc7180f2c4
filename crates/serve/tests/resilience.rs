//! Robust-serving integration: circuit-breaker lifecycle, zero-cost
//! shedding, deadline enforcement, retry-through-the-server parity,
//! budget safety on panic paths, and typed errors (never panics) for
//! hostile selector configurations, hostile query specs and degenerate
//! corpora.
//!
//! Failures are produced by the deterministic fault layer in
//! `supg_core::fault`, so every lifecycle transition here is replayable:
//! no sleeps, no real flakiness, no race-dependent assertions.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use supg_core::selectors::SelectorConfig;
use supg_core::{
    CachedOracle, FaultPlan, FaultyOracle, Oracle, SamplerStrategy, ScoredDataset, SupgError,
    SupgSession,
};
use supg_serve::{
    BreakerConfig, BreakerState, QuerySpec, RetryPolicy, ServeError, ServerConfig, SupgServer,
};

const N: usize = 20_000;
const TENANT_BUDGET: usize = 1_000_000;

fn scores() -> Vec<f64> {
    (0..N).map(|i| (i % 1000) as f64 / 1000.0).collect()
}

fn labels() -> Vec<bool> {
    scores().iter().map(|&s| s > 0.8).collect()
}

fn server(breaker: BreakerConfig) -> SupgServer {
    let server = SupgServer::new(ServerConfig {
        max_in_flight: 16,
        breaker,
        ..ServerConfig::default()
    });
    server.pool().register_scores("videos", scores()).unwrap();
    server.tenants().register("acme", TENANT_BUDGET);
    server
}

/// An oracle whose every label fails permanently (the backend is down).
fn broken_oracle() -> FaultyOracle<CachedOracle> {
    FaultyOracle::new(
        CachedOracle::from_labels(labels(), 1_000),
        FaultPlan::new(1).with_permanent_rate(1.0),
    )
}

fn healthy_oracle() -> CachedOracle {
    CachedOracle::from_labels(labels(), 1_000)
}

#[test]
fn breaker_walks_closed_open_half_open_closed() {
    let server = server(BreakerConfig {
        failure_threshold: 3,
        cooldown: Duration::ZERO,
    });
    let spec = QuerySpec::recall(0.9, 1_000).with_seed(7);

    // Three consecutive permanent failures trip the circuit.
    for i in 0..3 {
        let mut oracle = broken_oracle();
        let err = server
            .serve("acme", "videos", &spec, &mut oracle)
            .unwrap_err();
        assert!(
            matches!(err, ServeError::Query(SupgError::OracleFailed { .. })),
            "failure {i}: {err:?}"
        );
    }
    let stats = server.breaker_stats("videos").unwrap();
    assert_eq!(stats.state, BreakerState::Open);
    assert_eq!(stats.opened, 1);
    assert_eq!(stats.consecutive_failures, 3);

    // Zero cooldown: the next query is the half-open probe; it succeeds
    // against a recovered backend and closes the circuit.
    let mut oracle = healthy_oracle();
    let outcome = server.serve("acme", "videos", &spec, &mut oracle).unwrap();
    assert!(!outcome.result.is_empty());
    let stats = server.breaker_stats("videos").unwrap();
    assert_eq!(stats.state, BreakerState::Closed);
    assert_eq!(stats.consecutive_failures, 0);
    assert_eq!(stats.probes, 1);
}

#[test]
fn open_circuit_sheds_at_zero_oracle_and_budget_cost() {
    let server = server(BreakerConfig {
        failure_threshold: 1,
        cooldown: Duration::from_secs(3_600),
    });
    let spec = QuerySpec::recall(0.9, 1_000).with_seed(7);

    let mut oracle = broken_oracle();
    server
        .serve("acme", "videos", &spec, &mut oracle)
        .unwrap_err();
    assert_eq!(
        server.breaker_stats("videos").unwrap().state,
        BreakerState::Open
    );
    // The failed query released its reservation in full.
    let tenant = server.tenants().get("acme").unwrap();
    assert_eq!(tenant.remaining_budget(), TENANT_BUDGET);

    // While open (hour-long cooldown): instant typed shed, no oracle
    // call, no budget movement, counted per tenant and per breaker.
    let mut oracle = healthy_oracle();
    for _ in 0..5 {
        let err = server
            .serve("acme", "videos", &spec, &mut oracle)
            .unwrap_err();
        match err {
            ServeError::CircuitOpen {
                dataset,
                retry_after,
            } => {
                assert_eq!(dataset, "videos");
                assert!(retry_after > Duration::from_secs(3_000));
            }
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
    }
    assert_eq!(oracle.calls_used(), 0, "shed queries must not label");
    assert_eq!(tenant.remaining_budget(), TENANT_BUDGET);
    assert_eq!(tenant.stats().shed_circuit, 5);
    assert_eq!(server.breaker_stats("videos").unwrap().shed, 5);
    assert_eq!(server.in_flight(), 0);
}

#[test]
fn breaker_recovers_under_concurrent_load() {
    // Trip the circuit, then hammer the recovered backend from many
    // threads. The half-open probe admits exactly one query at a time,
    // but every thread must eventually get through — success or a typed
    // shed, never a wedge — and the breaker must end closed with the
    // budget accounting consistent.
    let server = Arc::new(server(BreakerConfig {
        failure_threshold: 1,
        cooldown: Duration::ZERO,
    }));
    let spec = QuerySpec::recall(0.9, 1_000).with_seed(7);
    let mut oracle = broken_oracle();
    server
        .serve("acme", "videos", &spec, &mut oracle)
        .unwrap_err();
    assert_eq!(
        server.breaker_stats("videos").unwrap().state,
        BreakerState::Open
    );

    const THREADS: usize = 8;
    const PER_THREAD: usize = 10;
    let (successes, billed): (u64, u64) = std::thread::scope(|s| {
        (0..THREADS)
            .map(|_| {
                let server = Arc::clone(&server);
                s.spawn(move || {
                    let mut ok = 0u64;
                    let mut billed = 0u64;
                    let mut oracle = healthy_oracle();
                    for _ in 0..PER_THREAD {
                        loop {
                            match server.serve("acme", "videos", &spec, &mut oracle) {
                                Ok(outcome) => {
                                    ok += 1;
                                    billed += outcome.oracle_calls as u64;
                                    break;
                                }
                                // Probe slot occupied: spin and retry.
                                Err(ServeError::CircuitOpen { .. }) => continue,
                                Err(other) => panic!("unexpected error: {other:?}"),
                            }
                        }
                    }
                    (ok, billed)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0), |(a, b), (x, y)| (a + x, b + y))
    });

    assert_eq!(successes, (THREADS * PER_THREAD) as u64);
    let stats = server.breaker_stats("videos").unwrap();
    assert_eq!(stats.state, BreakerState::Closed);
    // Every successful query billed exactly its actual consumption; shed
    // queries billed nothing.
    let tenant = server.tenants().get("acme").unwrap();
    assert_eq!(
        tenant.remaining_budget() as u64,
        TENANT_BUDGET as u64 - billed
    );
    assert_eq!(tenant.stats().queries, successes);
    assert_eq!(server.in_flight(), 0);
}

#[test]
fn budget_shed_during_half_open_leaves_the_circuit_half_open() {
    // A probe that is admitted past the breaker but sheds on the budget
    // reservation never reaches the oracle, so it must not settle the
    // probe: the circuit stays half-open (not re-opened, not closed),
    // and the freed probe slot lets the next query prove recovery.
    let server = server(BreakerConfig {
        failure_threshold: 1,
        cooldown: Duration::ZERO,
    });
    // A tenant whose budget cannot cover the query's declared calls.
    let spec = QuerySpec::recall(0.9, 1_000).with_seed(7);
    server.tenants().register("broke", 10);

    // Trip the circuit with one permanent failure.
    let mut oracle = broken_oracle();
    server
        .serve("acme", "videos", &spec, &mut oracle)
        .unwrap_err();
    assert_eq!(
        server.breaker_stats("videos").unwrap().state,
        BreakerState::Open
    );

    // Zero cooldown: the under-budgeted query is admitted as the
    // half-open probe, then sheds on the reservation.
    let mut oracle = healthy_oracle();
    let err = server
        .serve("broke", "videos", &spec, &mut oracle)
        .unwrap_err();
    assert!(
        matches!(err, ServeError::BudgetExhausted { .. }),
        "expected BudgetExhausted, got {err:?}"
    );
    assert_eq!(oracle.calls_used(), 0, "a budget shed must not label");
    let stats = server.breaker_stats("videos").unwrap();
    assert_eq!(stats.state, BreakerState::HalfOpen);
    assert_eq!(stats.opened, 1, "the shed must not re-open the circuit");
    assert_eq!(
        stats.consecutive_failures, 1,
        "the shed must not count as a probe outcome"
    );

    // The probe slot is free: a funded tenant probes and closes.
    let outcome = server.serve("acme", "videos", &spec, &mut oracle).unwrap();
    assert!(!outcome.result.is_empty());
    let stats = server.breaker_stats("videos").unwrap();
    assert_eq!(stats.state, BreakerState::Closed);
    assert_eq!(stats.probes, 2);
}

#[test]
fn retried_serving_matches_fault_free_serving_bit_for_bit() {
    let server = server(BreakerConfig::default());
    let spec = QuerySpec::recall(0.9, 1_000).with_seed(7);

    let mut clean_oracle = healthy_oracle();
    let clean = server
        .serve("acme", "videos", &spec, &mut clean_oracle)
        .unwrap();

    // The same query against a flaky backend, with retries requested.
    let mut flaky = FaultyOracle::new(
        healthy_oracle(),
        FaultPlan::new(0xF1A2).with_transient_rate(0.05),
    );
    let retried_spec = spec.with_retry(RetryPolicy::default());
    let retried = server
        .serve("acme", "videos", &retried_spec, &mut flaky)
        .unwrap();

    assert_eq!(clean.tau.to_bits(), retried.tau.to_bits());
    assert_eq!(clean.result.indices(), retried.result.indices());
    assert_eq!(clean.oracle_calls, retried.oracle_calls);
    assert!(retried.oracle_retries > 0, "faults must actually fire");
    assert_eq!(retried.oracle_failures, 0);
}

#[test]
fn deadline_exceeded_is_typed_and_releases_the_reservation() {
    let server = server(BreakerConfig::default());
    // A zero deadline trips before the first oracle attempt.
    let spec = QuerySpec::recall(0.9, 1_000)
        .with_seed(7)
        .with_deadline(Duration::ZERO);
    let mut oracle = healthy_oracle();
    let err = server
        .serve("acme", "videos", &spec, &mut oracle)
        .unwrap_err();
    assert!(
        matches!(err, ServeError::DeadlineExceeded { deadline } if deadline == Duration::ZERO),
        "expected DeadlineExceeded, got {err:?}"
    );
    assert_eq!(oracle.calls_used(), 0);
    let tenant = server.tenants().get("acme").unwrap();
    assert_eq!(tenant.remaining_budget(), TENANT_BUDGET);
    // Deadlines are breaker-neutral: the circuit stays closed.
    assert_eq!(
        server.breaker_stats("videos").unwrap().state,
        BreakerState::Closed
    );
    assert_eq!(server.in_flight(), 0);
}

#[test]
fn panicking_oracle_leaks_neither_budget_nor_slots() {
    let server = server(BreakerConfig {
        failure_threshold: 1,
        cooldown: Duration::ZERO,
    });
    let spec = QuerySpec::recall(0.9, 1_000).with_seed(7);

    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut oracle = CachedOracle::new(N, 1_000, |_| panic!("oracle crashed"));
        let _ = server.serve("acme", "videos", &spec, &mut oracle);
    }));
    assert!(result.is_err(), "the panic must propagate");

    // Every guard unwound: reservation released, slot freed, breaker
    // pass resolved neutral (a crash is not a counted oracle failure).
    let tenant = server.tenants().get("acme").unwrap();
    assert_eq!(tenant.remaining_budget(), TENANT_BUDGET);
    assert_eq!(server.in_flight(), 0);
    let stats = server.breaker_stats("videos").unwrap();
    assert_eq!(stats.state, BreakerState::Closed);
    assert_eq!(stats.consecutive_failures, 0);

    // The server still serves: a healthy query right after the crash.
    let mut oracle = healthy_oracle();
    let outcome = server.serve("acme", "videos", &spec, &mut oracle).unwrap();
    assert!(!outcome.result.is_empty());
}

#[test]
fn hostile_selector_configs_are_typed_errors_through_run_and_serve() {
    let base = SelectorConfig::default();
    let hostile = [
        ("exponent -1", base.with_exponent(-1.0)),
        ("exponent NaN", base.with_exponent(f64::NAN)),
        ("mix 1.5", base.with_mix(1.5)),
        ("mix NaN", base.with_mix(f64::NAN)),
        ("precision step 0", base.with_precision_step(0)),
    ];
    let data = ScoredDataset::new(scores()).unwrap();
    let server = server(BreakerConfig::default());
    for (name, config) in hostile {
        for precision in [false, true] {
            let (spec, session) = if precision {
                let session = SupgSession::over(&data).precision(0.9);
                (QuerySpec::precision(0.9, 1_000), session)
            } else {
                let session = SupgSession::over(&data).recall(0.9);
                (QuerySpec::recall(0.9, 1_000), session)
            };
            let run = session
                .budget(1_000)
                .selector_config(config)
                .seed(7)
                .run(&mut healthy_oracle());
            assert!(
                matches!(run, Err(SupgError::InvalidQuery(_))),
                "{name}: run returned {run:?}"
            );
            let spec = spec.with_config(config).with_seed(7);
            let served = server.serve("acme", "videos", &spec, &mut healthy_oracle());
            assert!(
                matches!(served, Err(ServeError::Query(SupgError::InvalidQuery(_)))),
                "{name}: serve returned {served:?}"
            );
        }
    }
    // Every served error released its reservation and its slot.
    let tenant = server.tenants().get("acme").unwrap();
    assert_eq!(tenant.remaining_budget(), TENANT_BUDGET);
    assert_eq!(server.in_flight(), 0);
}

#[test]
fn hostile_query_specs_return_ok_or_a_typed_error_never_panic() {
    // γ, δ and budget values outside (and on the edges of) their valid
    // ranges, for every query kind and sampler backend: 2,205 served
    // cases. `usize::MAX` is shed at admission by the tenant budget.
    let gammas = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.5,
        0.0,
        1.0,
        1.5,
    ];
    let deltas = [f64::NAN, f64::INFINITY, -1.0, 0.0, 1.0, 2.0, 0.05];
    let budgets = [0, 1, 2, 1_000, usize::MAX];
    let samplers = [
        SamplerStrategy::Alias,
        SamplerStrategy::Cdf,
        SamplerStrategy::Auto,
    ];
    let server = server(BreakerConfig::default());
    let labels = labels();
    let (mut cases, mut answered, mut shed) = (0, 0, 0);
    let mut panics = Vec::new();
    for gamma in gammas {
        for delta in deltas {
            for budget in budgets {
                for sampler in samplers {
                    let config = SelectorConfig::default().with_sampler(sampler);
                    for spec in [
                        QuerySpec::recall(gamma, budget),
                        QuerySpec::precision(gamma, budget),
                        QuerySpec::joint(gamma, gamma, budget),
                    ] {
                        let spec = spec.with_delta(delta).with_config(config).with_seed(7);
                        let mut oracle = CachedOracle::from_labels(labels.clone(), 1_000);
                        // `Ok` or any typed `ServeError` is an answer.
                        let served = catch_unwind(AssertUnwindSafe(|| {
                            server.serve("acme", "videos", &spec, &mut oracle)
                        }));
                        match served {
                            Err(_) => panics.push(format!("{spec:?}")),
                            Ok(Ok(_)) => answered += 1,
                            Ok(Err(ServeError::BudgetExhausted { .. })) => shed += 1,
                            Ok(Err(_)) => {}
                        }
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 2_205);
    assert!(panics.is_empty(), "panicked: {panics:#?}");
    // The grid reaches both the pipeline and admission control.
    assert!(answered > 0 && shed > 0, "answered {answered}, shed {shed}");
    assert_eq!(server.in_flight(), 0);
}

#[test]
fn degenerate_corpora_serve_ok_within_budget_or_a_typed_error() {
    // The corpora a proxy can degenerate to — one record, two records,
    // every score 0.0, every score 1.0 — each registered flat and as
    // one-record segments, served as RT, PT and JT under every sampler
    // strategy at budgets 2 and 1,000: 144 cases. Each must answer `Ok`
    // within budget or a typed error, and release its slot and its
    // unspent reservation.
    let corpora: [(&str, Vec<f64>); 4] = [
        ("n=1", vec![0.5]),
        ("n=2", vec![0.2, 0.8]),
        ("all 0.0", vec![0.0; 50]),
        ("all 1.0", vec![1.0; 50]),
    ];
    let samplers = [
        SamplerStrategy::Alias,
        SamplerStrategy::Cdf,
        SamplerStrategy::Auto,
    ];
    let server = SupgServer::new(ServerConfig::default());
    let tenant = server.tenants().register("acme", TENANT_BUDGET);
    let (mut cases, mut panics) = (0, Vec::new());
    for (corpus, scores) in &corpora {
        let labels: Vec<bool> = (0..scores.len()).map(|i| i % 2 == 0).collect();
        let flat = format!("{corpus} flat");
        let segmented = format!("{corpus} segmented");
        let pool = server.pool();
        pool.register_scores(flat.as_str(), scores.clone()).unwrap();
        pool.register_segmented(segmented.as_str(), scores.clone(), 1)
            .unwrap();
        for dataset in [&flat, &segmented] {
            for budget in [2, 1_000] {
                for sampler in samplers {
                    let config = SelectorConfig::default().with_sampler(sampler);
                    for spec in [
                        QuerySpec::recall(0.9, budget),
                        QuerySpec::precision(0.9, budget),
                        QuerySpec::joint(0.9, 0.9, budget),
                    ] {
                        let spec = spec.with_config(config).with_seed(7);
                        let case =
                            format!("{dataset} {:?} {sampler:?} budget {budget}", spec.target);
                        let before = tenant.remaining_budget();
                        let mut oracle = CachedOracle::from_labels(labels.clone(), budget);
                        let served = catch_unwind(AssertUnwindSafe(|| {
                            server.serve("acme", dataset, &spec, &mut oracle)
                        }));
                        let charged = match served {
                            Err(_) => {
                                panics.push(case.clone());
                                0
                            }
                            Ok(Ok(outcome)) => {
                                // The JT filter labels at most every record
                                // on top of the stage budget.
                                let limit = if outcome.joint {
                                    assert!(outcome.stage_calls <= budget, "{case}");
                                    budget + scores.len()
                                } else {
                                    budget
                                };
                                assert!(outcome.oracle_calls <= limit, "{case}");
                                outcome.oracle_calls
                            }
                            Ok(Err(_)) => 0,
                        };
                        assert_eq!(tenant.remaining_budget(), before - charged, "{case}");
                        assert_eq!(server.in_flight(), 0, "{case}");
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 144);
    assert!(panics.is_empty(), "panicked: {panics:#?}");
}

//! The simulator's headline contract: a fixed seed and config replay
//! bit-identically — across runs, across oracle parallelism — and the
//! workload shape actually exercises the admission machinery it claims
//! to (sheds of every cause, cache hits from recipe skew, retries from
//! fault injection).

use supg_traffic::{run, TrafficConfig};

#[test]
fn same_seed_and_config_replay_bit_identically() {
    let config = TrafficConfig::quick(7);
    let a = run(&config);
    let b = run(&config);
    assert_eq!(
        a.canonical_json(),
        b.canonical_json(),
        "two runs of one config must agree byte for byte"
    );
    assert_eq!(a.hash(), b.hash());
    // Wall clock may differ; everything hashed may not.
    assert_eq!(a.outcome_digest, b.outcome_digest);
}

#[test]
fn parallelism_does_not_change_a_single_report_bit() {
    // The core's determinism contract — outcomes independent of worker
    // count and batch splits — lifted to the whole simulated session.
    let base = run(&TrafficConfig::quick(11));
    for parallelism in [2, 4] {
        let p = run(&TrafficConfig::quick(11).with_parallelism(parallelism));
        // `parallelism` is itself a hashed report field, so compare the
        // workload results, not the whole hash.
        assert_eq!(p.outcome_digest, base.outcome_digest, "p={parallelism}");
        assert_eq!(p.completed, base.completed);
        assert_eq!(p.oracle_calls, base.oracle_calls);
        assert_eq!(p.cache_hits, base.cache_hits);
        assert_eq!(p.by_kind, base.by_kind);
    }
}

#[test]
fn different_seeds_diverge() {
    let a = run(&TrafficConfig::quick(1));
    let b = run(&TrafficConfig::quick(2));
    assert_ne!(
        a.hash(),
        b.hash(),
        "distinct seeds should not collide on full-run hashes"
    );
    assert_ne!(a.outcome_digest, b.outcome_digest);
}

#[test]
fn quick_shape_exercises_the_admission_machinery() {
    // 0x5097_2020 is the seed of the `traffic_smoke` CI binary.
    for seed in [7, 0x5097_2020] {
        let r = run(&TrafficConfig::quick(seed));
        assert_eq!(
            r.completed + r.failed + r.shed_overload + r.shed_budget + r.shed_circuit,
            r.queries,
            "every arrival must be accounted exactly once"
        );
        assert!(
            r.completed > r.queries / 2,
            "seed {seed:#x}: most queries should complete ({} of {})",
            r.completed,
            r.queries
        );
        assert!(r.failed > 0, "permanent-fault arrivals must surface");
        assert!(
            r.oracle_retries > 0,
            "transient faults must exercise retries"
        );
        assert!(
            r.cache_hits > 0,
            "Zipf-skewed recipes must produce artifact reuse"
        );
        assert!(
            r.planned == r.completed,
            "served queries always carry a plan"
        );
        assert!(r.by_kind.iter().sum::<u64>() == r.completed);
        assert!(r.by_kind[0] > 0 && r.by_kind[1] > 0 && r.by_kind[2] > 0);
        assert!(r.virtual_makespan_ns > 0);
    }
}

#[test]
fn standard_shape_scales_to_thousands_of_tenants() {
    let config = TrafficConfig::standard(13);
    assert!(config.tenants >= 2_000);
    let r = run(&config);
    assert_eq!(r.tenants, config.tenants as u64);
    assert_eq!(
        r.completed + r.failed + r.shed_overload + r.shed_budget + r.shed_circuit,
        r.queries
    );
    assert!(r.completed > 0);
    assert!(r.cache_hit_rate() > 0.1, "hit rate {}", r.cache_hit_rate());
    // And the contract holds at scale too.
    assert_eq!(run(&config).hash(), r.hash());
}

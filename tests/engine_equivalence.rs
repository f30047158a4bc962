//! Cross-engine equivalence: the hot-path engine (`EngineSpec`) must never
//! change a reported number. Heap, calendar and route-table paths are run
//! side by side over every topology family, both time modes, and random
//! loads/seeds, and every deterministic `SimResult` field is compared bit
//! for bit. The conservative parallel engine joins at three levels:
//! `sharded:1` is bit-identical to the calendar oracle, `sharded:{2,4}`
//! agree with it statistically, and every `(seed, shards)` pair reruns
//! bit-identically.

use meshbound::sim::SimResult;
use meshbound::{EngineSpec, Load, RouterSpec, Scenario, TrafficSpec};
use proptest::prelude::*;

/// Bitwise comparison of every deterministic `SimResult` field
/// (`events_per_sec` is wall-clock and excluded by design).
fn assert_bit_identical(label: &str, a: &SimResult, b: &SimResult) {
    let f = f64::to_bits;
    assert_eq!(f(a.avg_delay), f(b.avg_delay), "{label}: avg_delay");
    assert_eq!(f(a.delay_std_err), f(b.delay_std_err), "{label}: std_err");
    assert_eq!(a.generated, b.generated, "{label}: generated");
    assert_eq!(a.completed, b.completed, "{label}: completed");
    assert_eq!(f(a.time_avg_n), f(b.time_avg_n), "{label}: time_avg_n");
    assert_eq!(f(a.time_avg_r), f(b.time_avg_r), "{label}: time_avg_r");
    assert_eq!(f(a.time_avg_rs), f(b.time_avg_rs), "{label}: time_avg_rs");
    assert_eq!(f(a.r_ratio), f(b.r_ratio), "{label}: r_ratio");
    assert_eq!(f(a.rs_ratio), f(b.rs_ratio), "{label}: rs_ratio");
    assert_eq!(f(a.little_delay), f(b.little_delay), "{label}: little");
    assert_eq!(
        f(a.max_edge_utilization),
        f(b.max_edge_utilization),
        "{label}: max_edge_utilization"
    );
    assert_eq!(f(a.final_n), f(b.final_n), "{label}: final_n");
    assert_eq!(f(a.peak_n), f(b.peak_n), "{label}: peak_n");
    assert_eq!(
        a.events_processed, b.events_processed,
        "{label}: events_processed"
    );
    assert_eq!(a.n_samples, b.n_samples, "{label}: n_samples");
    assert_eq!(a.delay_p50, b.delay_p50, "{label}: delay_p50");
    assert_eq!(a.delay_p99, b.delay_p99, "{label}: delay_p99");
    assert_eq!(a.edge_mean_queue, b.edge_mean_queue, "{label}: edge queues");
    for (i, (x, y)) in a.edge_throughput.iter().zip(&b.edge_throughput).enumerate() {
        assert_eq!(f(*x), f(*y), "{label}: edge_throughput[{i}]");
    }
}

/// Runs one scenario under all three engines and cross-checks.
fn check_all_engines(sc: Scenario) {
    let label = sc.spec_string();
    let heap = sc.clone().engine(EngineSpec::Heap).run();
    let calendar = sc.clone().engine(EngineSpec::Calendar).run();
    let auto = sc.engine(EngineSpec::Auto).run();
    assert_bit_identical(&format!("{label} calendar-vs-heap"), &heap, &calendar);
    assert_bit_identical(&format!("{label} auto-vs-heap"), &heap, &auto);
    assert!(heap.events_processed > 0, "{label}: no events simulated");
}

/// The five topology families at a fixed operating point.
fn family(idx: usize) -> Scenario {
    match idx {
        0 => Scenario::mesh(4),
        1 => Scenario::torus(4),
        2 => Scenario::hypercube(4),
        3 => Scenario::butterfly(3),
        _ => Scenario::mesh_kd(&[3, 3, 3]),
    }
}

proptest! {
    /// All five `TopologySpec` families × slotted/continuous × random
    /// load and seed: heap, calendar and route-table engines must agree
    /// bit for bit.
    #[test]
    fn engines_agree_across_topologies_and_modes(
        topo in 0usize..5,
        slotted in any::<bool>(),
        lambda in 0.02f64..0.12,
        seed in 1u64..1_000,
    ) {
        let mut sc = family(topo)
            .load(Load::Lambda(lambda))
            .horizon(250.0)
            .warmup(25.0)
            .seed(seed);
        if slotted {
            sc = sc.slot(1.0);
        }
        check_all_engines(sc);
    }
}

#[test]
fn engines_agree_with_every_tracking_option_enabled() {
    // Saturated-service tracking (route-table saturated counts), delay
    // quantiles, per-edge queues and N(t) sampling all at once, plus the
    // Jackson (exponential) service mode.
    let sc = Scenario::mesh(5)
        .load(Load::TableRho(0.7))
        .horizon(1_500.0)
        .warmup(150.0)
        .seed(99)
        .track_saturated(true)
        .delay_quantiles(true)
        .track_edge_queues(true)
        .sample_every(100.0);
    check_all_engines(sc.clone());
    check_all_engines(sc.service(meshbound::sim::ServiceKind::Exponential));
}

#[test]
fn greedy_routing_policy_reproduces_the_pre_policy_fingerprints() {
    // Golden pin: these fingerprints were captured *before* the per-hop
    // `RoutingPolicy` refactor, when the engines consumed whole
    // `Router::route` paths. Greedy routing is oblivious — queue state
    // must never change its decisions — so routing hop by hop through
    // `next_hop` has to reproduce the old trajectories bit for bit, on
    // every engine. A mismatch means the adapter changed the physics.
    struct Pin {
        sc: fn() -> Scenario,
        lambda: f64,
        events: u64,
        delay_bits: u64,
        completed: u64,
        time_avg_n_bits: u64,
    }
    let pins = [
        Pin {
            sc: || Scenario::mesh(4),
            lambda: 0.08,
            events: 1765,
            delay_bits: 0x40034e42a2b5e7f1,
            completed: 461,
            time_avg_n_bits: 0x4008fa97cee2fe1b,
        },
        Pin {
            sc: || Scenario::torus(4),
            lambda: 0.08,
            events: 1542,
            delay_bits: 0x3fff6cfb98aa1384,
            completed: 463,
            time_avg_n_bits: 0x40045a74a48281eb,
        },
        Pin {
            sc: || Scenario::hypercube(4),
            lambda: 0.2,
            events: 3856,
            delay_bits: 0x40009025f0b3aae9,
            completed: 1132,
            time_avg_n_bits: 0x401a4bfa0449b79a,
        },
        Pin {
            sc: || Scenario::butterfly(3),
            lambda: 0.3,
            events: 3952,
            delay_bits: 0x40098a857354d1bd,
            completed: 863,
            time_avg_n_bits: 0x401f24b1257a6a4e,
        },
        Pin {
            sc: || Scenario::mesh_kd(&[3, 3, 3]),
            lambda: 0.06,
            events: 2380,
            delay_bits: 0x4005c289c7b2432a,
            completed: 576,
            time_avg_n_bits: 0x401197309818a7c1,
        },
    ];
    let engines = [
        EngineSpec::Heap,
        EngineSpec::Calendar,
        EngineSpec::Auto,
        EngineSpec::Sharded { shards: 1 },
    ];
    for pin in &pins {
        let sc = (pin.sc)()
            .load(Load::Lambda(pin.lambda))
            .horizon(400.0)
            .warmup(40.0)
            .seed(17);
        let label = sc.spec_string();
        for engine in engines {
            let res = sc.clone().engine(engine).run();
            assert_eq!(
                res.events_processed, pin.events,
                "{label} {engine}: events_processed drifted from the pre-policy pin"
            );
            assert_eq!(
                res.avg_delay.to_bits(),
                pin.delay_bits,
                "{label} {engine}: avg_delay drifted from the pre-policy pin"
            );
            assert_eq!(
                res.completed, pin.completed,
                "{label} {engine}: completed drifted from the pre-policy pin"
            );
            assert_eq!(
                res.time_avg_n.to_bits(),
                pin.time_avg_n_bits,
                "{label} {engine}: time_avg_n drifted from the pre-policy pin"
            );
        }
    }
}

#[test]
fn engines_agree_for_adaptive_routers() {
    // Adaptive routers are not table-eligible (`is_route_deterministic`
    // is false), so every engine routes them per hop through `next_hop`
    // with live queue views — heap, calendar, auto and sharded:1 must
    // still agree bit for bit on mesh and torus.
    for router in [RouterSpec::WestFirst, RouterSpec::OddEven] {
        for sc in [
            Scenario::mesh(5).load(Load::Lambda(0.12)),
            Scenario::mesh(4)
                .traffic(TrafficSpec::transpose())
                .load(Load::Lambda(0.2)),
            Scenario::torus(4).load(Load::Lambda(0.12)),
        ] {
            let sc = sc.router(router).horizon(600.0).warmup(60.0).seed(29);
            let label = sc.spec_string();
            check_all_engines(sc.clone());
            let calendar = sc.clone().engine(EngineSpec::Calendar).run();
            let sharded = sc.engine(EngineSpec::Sharded { shards: 1 }).run();
            assert_bit_identical(
                &format!("{label} sharded:1-vs-calendar"),
                &calendar,
                &sharded,
            );
        }
    }
}

#[test]
fn engines_agree_for_randomized_router_fallback() {
    // The randomized router is not table-eligible: Auto must fall back to
    // on-the-fly routing and still match the heap engine exactly.
    let sc = Scenario::mesh(5)
        .router(RouterSpec::Randomized)
        .load(Load::Lambda(0.1))
        .horizon(800.0)
        .warmup(80.0)
        .seed(7);
    check_all_engines(sc);
}

#[test]
fn engines_agree_for_nonuniform_destinations_and_rates() {
    let sc = Scenario::mesh(4)
        .traffic(TrafficSpec::nearby(0.4))
        .load(Load::Lambda(0.15))
        .horizon(900.0)
        .warmup(90.0)
        .seed(31)
        .service_rates(vec![1.5; 48]);
    check_all_engines(sc);
    let hc = Scenario::hypercube(4)
        .traffic(TrafficSpec::bernoulli(0.25))
        .load(Load::Lambda(0.3))
        .horizon(600.0)
        .warmup(60.0)
        .seed(32);
    check_all_engines(hc);
}

#[test]
fn departure_lane_follows_the_service_time_rule() {
    // `auto` and `sharded:<N>` put departures on a FIFO lane only when
    // every edge has one deterministic service time. Two distinct rates
    // must keep the calendar-only path (a lane would receive departures
    // out of time order), and still match the heap bit for bit.
    let mixed: Vec<f64> = (0..48)
        .map(|e| if e % 3 == 0 { 1.25 } else { 1.0 })
        .collect();
    let sc = Scenario::mesh(4)
        .load(Load::Lambda(0.15))
        .horizon(900.0)
        .warmup(90.0)
        .seed(37);
    check_all_engines(sc.clone().service_rates(mixed));

    // A uniform non-unit rate puts every departure 1/1.5 after its
    // service start: the lane is used with a delay other than 1.
    let uniform = sc.service_rates(vec![1.5; 48]);
    let label = uniform.spec_string();
    let calendar = uniform.clone().engine(EngineSpec::Calendar).run();
    let one = uniform
        .clone()
        .engine(EngineSpec::Sharded { shards: 1 })
        .run();
    assert_bit_identical(&format!("{label} sharded:1-vs-calendar"), &calendar, &one);
    let two = uniform.engine(EngineSpec::Sharded { shards: 2 });
    let (a, b) = (two.clone().run(), two.run());
    assert_bit_identical(&format!("{label} sharded:2 rerun"), &a, &b);
}

/// The sharded-oracle operating points: small members of the families the
/// conservative parallel engine supports, at a load where queues form.
fn sharded_cases() -> Vec<Scenario> {
    vec![
        Scenario::mesh(5).load(Load::Lambda(0.15)),
        Scenario::torus(4).load(Load::Lambda(0.12)),
        Scenario::hypercube(4).load(Load::Lambda(0.3)),
    ]
}

#[test]
fn one_shard_matches_the_calendar_engine_bit_for_bit() {
    // `sharded:1` runs the full conservative machinery — epoch windows,
    // outbox exchange, merge — on one thread, and must still reproduce
    // the single-core calendar engine exactly.
    for sc in sharded_cases() {
        let sc = sc
            .horizon(600.0)
            .warmup(60.0)
            .seed(23)
            .delay_quantiles(true)
            .track_edge_queues(true)
            .sample_every(50.0);
        let label = sc.spec_string();
        let calendar = sc.clone().engine(EngineSpec::Calendar).run();
        let sharded = sc.engine(EngineSpec::Sharded { shards: 1 }).run();
        assert_bit_identical(
            &format!("{label} sharded:1-vs-calendar"),
            &calendar,
            &sharded,
        );
    }
}

#[test]
fn sharded_engine_agrees_statistically_with_the_oracle() {
    // At shards >= 2 the partition changes the per-shard RNG streams, so
    // results differ bitwise from the single-core oracle — but they
    // simulate the same system, so the summary statistics must agree
    // within sampling noise.
    for sc in sharded_cases() {
        let sc = sc.horizon(900.0).warmup(90.0).seed(41);
        let label = sc.spec_string();
        let oracle = sc.clone().engine(EngineSpec::Calendar).run();
        for shards in [2, 4] {
            let res = sc.clone().engine(EngineSpec::Sharded { shards }).run();
            assert!(
                res.completed > 0,
                "{label} shards={shards}: nothing delivered"
            );
            let rel = (res.avg_delay - oracle.avg_delay).abs() / oracle.avg_delay;
            assert!(
                rel < 0.15,
                "{label} shards={shards}: delay {} vs oracle {} (rel {rel:.3})",
                res.avg_delay,
                oracle.avg_delay
            );
            let rel_n = (res.time_avg_n - oracle.time_avg_n).abs() / oracle.time_avg_n;
            assert!(
                rel_n < 0.15,
                "{label} shards={shards}: N {} vs oracle {} (rel {rel_n:.3})",
                res.time_avg_n,
                oracle.time_avg_n
            );
        }
    }
}

#[test]
fn sharded_engine_is_deterministic_at_every_shard_count() {
    // Fixed (seed, shards) must reproduce the identical SimResult across
    // reruns — thread scheduling is invisible by construction.
    for sc in sharded_cases() {
        let sc = sc.horizon(600.0).warmup(60.0).seed(57);
        let label = sc.spec_string();
        for shards in [1, 2, 4] {
            let spec = sc.clone().engine(EngineSpec::Sharded { shards });
            let a = spec.clone().run();
            let b = spec.run();
            assert_bit_identical(&format!("{label} shards={shards} rerun"), &a, &b);
        }
    }
}

#[test]
fn replication_runner_is_engine_invariant() {
    // run_replicated fans out over Rayon with derived seeds; the engine
    // must be invisible there too.
    let base = Scenario::torus(5)
        .load(Load::Utilization(0.5))
        .horizon(500.0)
        .warmup(50.0)
        .seed(11);
    let a = base.clone().engine(EngineSpec::Heap).run_replicated(3);
    let b = base.engine(EngineSpec::Auto).run_replicated(3);
    for (x, y) in a.runs.iter().zip(&b.runs) {
        assert_bit_identical("replicated torus", x, y);
    }
}

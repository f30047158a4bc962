//! The one spec grammar, fuzzed: a sweep spec is a scenario spec whose
//! values may be `|`-separated alternatives, plus `topo=`, `reps=`,
//! `seed=` and `horizon=`/`warmup=`.
//!
//! Clause soups are drawn from fixed vocabularies of heads, keys and values
//! — well-formed, malformed and oversized alike — and checked for four
//! properties: neither parser panics (this suite runs in a debug build, so
//! an arithmetic overflow counts as a panic), every accepted sweep
//! round-trips through its canonical spec string, every accepted scenario
//! spec is the single cell of the matching one-cell sweep, and every
//! scenario key takes `|` alternatives in a sweep.

use meshbound::{EngineSpec, Load, Scenario, SweepSpec};
use proptest::collection::vec;
use proptest::prelude::*;

/// Topology heads: valid ones up to the large-scale threshold, malformed
/// ones, and sizes whose node count overflows or exceeds the 2²⁶ cap.
const HEADS: &[&str] = &[
    "mesh:4",
    "mesh:3x5",
    "torus:4",
    "hypercube:3",
    "butterfly:2",
    "kd:3x3",
    "kd:2x2x2",
    "mesh:1",
    "torus:2",
    "hypercube:0",
    "hypercube:27",
    "hypercube:64",
    "butterfly:70",
    "mesh:100000",
    "mesh:4294967296x4294967296",
    "kd:4294967296x4294967296",
    "kd:65536x65536x65536x65536",
    "mesh:18446744073709551615",
    "mesh:-1",
    "mesh:4x",
    "ring:8",
    "mesh",
    "kd:",
];

/// Every key of either grammar, plus unknown ones.
const KEYS: &[&str] = &[
    "router",
    "traffic",
    "dest",
    "src",
    "lambda",
    "rho",
    "util",
    "load",
    "horizon",
    "warmup",
    "seed",
    "service",
    "slot",
    "sample",
    "self",
    "saturated",
    "quantiles",
    "queues",
    "faults",
    "probes",
    "engine",
    "shards",
    "topo",
    "reps",
    "jobs",
    "",
];

/// Values valid for some key and malformed for others.
const VALUES: &[&str] = &[
    "greedy",
    "oddeven",
    "randomized",
    "westfirst",
    "uniform",
    "transpose",
    "shuffle",
    "bitrev",
    "hotspot:0.25",
    "hotspot:0.5:3",
    "hotspot:2:0",
    "hotspot:1e300:18446744073709551615",
    "nearby:0.5",
    "bernoulli:0.25",
    "0.2",
    "0.5",
    "3",
    "100",
    "-1",
    "0",
    "1e-300",
    "1e308",
    "1e400",
    "nan",
    "inf",
    "rho:0.3",
    "util:0.5",
    "lambda:0.05",
    "rho:nan",
    "auto",
    "auto:100:200",
    "auto:100:nan",
    "auto:nan:100",
    "det",
    "exp",
    "true",
    "false",
    "none",
    "links:0.1",
    "nodes:0.05",
    "link:3+at:5",
    "links:0.1+repair:10",
    "node:4294967296",
    "nsys",
    "nsys,maxq",
    "all@5",
    "nsys@1e-20",
    "heap",
    "calendar",
    "sharded:2",
    "sharded:0",
    "1",
    "2",
    "18446744073709551615",
    "99999999999999999999",
    "mesh:4",
    "x=y",
    "",
];

/// Values each key accepts, so that soups also build many-cell sweeps.
fn typed_values(key: &str) -> &'static [&'static str] {
    match key {
        "router" => &["greedy", "oddeven", "westfirst", "randomized"],
        "traffic" | "dest" => &[
            "uniform",
            "transpose",
            "hotspot:0.25",
            "shuffle",
            "nearby:0.5",
        ],
        "src" => &["uniform", "hotspot:4", "hotspot:2:0"],
        "lambda" | "rho" | "util" => &["0.1", "0.3", "0.5"],
        "load" => &["rho:0.3", "util:0.5", "lambda:0.05"],
        "horizon" => &["300", "500", "auto:100:400"],
        "warmup" => &["30", "50"],
        "seed" => &["1", "7", "42"],
        "service" => &["det", "exp"],
        "slot" => &["0.5", "1"],
        "sample" => &["5", "10"],
        "self" | "saturated" | "quantiles" | "queues" => &["true", "false"],
        "faults" => &["none", "links:0.1", "nodes:0.05", "link:3+at:5"],
        "probes" => &["none", "nsys", "nsys,maxq", "all@5"],
        "engine" => &["auto", "heap", "calendar", "sharded:2"],
        "shards" => &["1", "2"],
        "topo" => &["mesh:4", "torus:4"],
        "reps" => &["1", "2"],
        _ => &["x"],
    }
}

/// A clause draw: key index, up to three value indices, the alternative
/// count, the separator before the clause, and whether the values come
/// from the key's own vocabulary or the shared one.
type ClauseDraw = (usize, (usize, usize, usize), usize, usize, bool);

fn clause_draws() -> impl Strategy<Value = Vec<ClauseDraw>> {
    vec(
        (
            0..KEYS.len(),
            (0..VALUES.len(), 0..VALUES.len(), 0..VALUES.len()),
            1usize..4,
            0usize..4,
            any::<bool>(),
        ),
        0..7,
    )
}

/// Renders clause draws as ` key=v1|v2…` text. With `alternatives` off
/// each clause keeps its first value only.
fn clauses(draws: &[ClauseDraw], alternatives: bool) -> String {
    let mut out = String::new();
    for &(key, (a, b, c), count, sep, typed) in draws {
        let key = KEYS[key];
        let vocabulary = if typed { typed_values(key) } else { VALUES };
        out.push_str([" ", ",", "  ", " ,"][sep]);
        let count = if alternatives { count } else { 1 };
        let values: Vec<&str> = [a, b, c][..count]
            .iter()
            .map(|&v| vocabulary[v % vocabulary.len()])
            .collect();
        out.push_str(&format!("{key}={}", values.join("|")));
    }
    out
}

/// Asserts the round trip `parse(spec_string(s)) == s` for one accepted
/// sweep, and that the canonical form is a fixed point.
fn check_round_trip(spec: &str, sweep: &SweepSpec) -> Result<(), TestCaseError> {
    let canonical = sweep.spec_string();
    let reparsed = SweepSpec::parse(&canonical)
        .map_err(|e| TestCaseError::fail(format!("`{spec}` → `{canonical}`: {e}")))?;
    prop_assert_eq!(reparsed.spec_string(), canonical.clone());
    // NaN never equals itself, so a NaN value can only be checked through
    // its rendering.
    if !canonical.contains("NaN") {
        prop_assert!(
            reparsed == *sweep,
            "`{spec}` does not round-trip through `{canonical}`"
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn clause_soups_never_panic_either_parser(
        soups in vec((0..HEADS.len(), clause_draws(), any::<bool>()), 8..16),
    ) {
        for (head, draws, alternatives) in soups {
            let rest = clauses(&draws, alternatives);
            let scenario = format!("{}{rest}", HEADS[head]);
            if let Ok(sc) = Scenario::parse(&scenario) {
                // An accepted spec renders and re-parses to itself.
                prop_assert_eq!(Scenario::parse(&sc.spec_string()).ok(), Some(sc));
            }
            for spec in [scenario.clone(), format!("topo={scenario}"), rest.clone()] {
                if let Ok(sweep) = SweepSpec::parse(&spec) {
                    check_round_trip(&spec, &sweep)?;
                }
            }
        }
    }

    #[test]
    fn accepted_sweeps_round_trip_through_their_canonical_form(
        soups in vec(((0..7usize, 0..7usize), (0..4usize, any::<bool>()), clause_draws()), 8..16),
    ) {
        // Mostly-valid sweeps: one or two valid heads, a load axis, then a
        // clause soup with alternatives.
        let loads = ["rho=0.2", "load=rho:0.2|util:0.5", "util=0.3|0.6", "lambda=0.05"];
        for ((h1, h2), (l, two_heads), draws) in soups {
            let heads = if two_heads {
                format!("{}|{}", HEADS[h1], HEADS[h2])
            } else {
                HEADS[h1].into()
            };
            let spec = format!("topo={heads} {}{}", loads[l], clauses(&draws, true));
            if let Ok(sweep) = SweepSpec::parse(&spec) {
                check_round_trip(&spec, &sweep)?;
                if let Ok(cells) = sweep.expand() {
                    prop_assert_eq!(cells.len(), sweep.num_cells());
                }
            }
        }
    }

    #[test]
    fn a_scenario_spec_is_the_single_cell_of_its_one_cell_sweep(
        soups in vec((0..7usize, 0..4usize, clause_draws()), 8..16),
    ) {
        // Parity over the topologies at or below the large-scale threshold
        // (4096 nodes): above it a scenario defaults to a 50-unit horizon
        // while a sweep's default fixed horizon stays 2000, so an interval
        // near the tick cap can pass in one and not the other.
        let loads = ["rho=0.2", "load=util:0.5", "util=0.3", "lambda=0.05"];
        for (head, l, draws) in soups {
            let rest = format!(" {}{}", loads[l], clauses(&draws, false));
            let Ok(sc) = Scenario::parse(&format!("{}{rest}", HEADS[head])) else {
                continue;
            };
            let spec = format!("topo={}{rest}", HEADS[head]);
            let sweep = SweepSpec::parse(&spec)
                .map_err(|e| TestCaseError::fail(format!("`{spec}`: {e}")))?;
            let cells = sweep
                .expand()
                .map_err(|e| TestCaseError::fail(format!("`{spec}`: {e}")))?;
            prop_assert_eq!(cells.len(), 1);
            let mut cell = cells[0].clone();
            cell.seed = sc.seed;
            cell.horizon = sc.horizon;
            cell.warmup = sc.warmup;
            prop_assert_eq!(cell, sc);
        }
    }
}

#[test]
fn every_scenario_key_takes_alternatives_in_a_sweep() {
    // One row per scenario key (aliases included): two alternatives for
    // it, and what each of the two cells must carry.
    type Check = fn(&Scenario, &Scenario) -> bool;
    let rows: &[(&str, Check)] = &[
        ("router=greedy|oddeven", |a, b| a.router != b.router),
        ("traffic=uniform|transpose", |a, b| a.traffic != b.traffic),
        ("dest=uniform|transpose", |a, b| a.traffic != b.traffic),
        ("src=uniform|hotspot:4", |a, b| a.traffic != b.traffic),
        ("faults=none|links:0.1", |a, b| {
            a.faults.is_none() && b.faults.is_some()
        }),
        ("probes=none|nsys,maxq", |a, b| {
            a.probes.is_none() && b.probes.is_some()
        }),
        ("engine=heap|calendar", |a, b| {
            (a.engine, b.engine) == (EngineSpec::Heap, EngineSpec::Calendar)
        }),
        ("service=det|exp", |a, b| a.service != b.service),
        ("saturated=false|true", |a, b| {
            !a.track_saturated && b.track_saturated
        }),
        // The keys the sweep grammar used to refuse.
        ("lambda=0.02|0.04", |a, b| {
            (a.load, b.load) == (Load::Lambda(0.02), Load::Lambda(0.04))
        }),
        ("rho=0.2|0.4", |a, b| {
            (a.load, b.load) == (Load::TableRho(0.2), Load::TableRho(0.4))
        }),
        ("util=0.2|0.4", |a, b| {
            (a.load, b.load) == (Load::Utilization(0.2), Load::Utilization(0.4))
        }),
        ("shards=1|2", |a, b| {
            (a.engine, b.engine)
                == (
                    EngineSpec::Sharded { shards: 1 },
                    EngineSpec::Sharded { shards: 2 },
                )
        }),
        ("slot=0.5|1", |a, b| {
            (a.slot, b.slot) == (Some(0.5), Some(1.0))
        }),
        ("sample=5|10", |a, b| {
            (a.sample_every, b.sample_every) == (Some(5.0), Some(10.0))
        }),
        ("self=true|false", |a, b| {
            a.include_self_packets && !b.include_self_packets
        }),
        ("quantiles=false|true", |a, b| {
            !a.delay_quantiles && b.delay_quantiles
        }),
        ("queues=false|true", |a, b| {
            !a.track_edge_queues && b.track_edge_queues
        }),
    ];
    for &(clause, differ) in rows {
        // `load=` is itself a row when the clause sets the load.
        let load = if ["lambda", "rho", "util"]
            .iter()
            .any(|k| clause.starts_with(k))
        {
            ""
        } else {
            " load=rho:0.3"
        };
        let spec = format!("topo=mesh:4{load} {clause} horizon=300 warmup=30");
        let sweep = SweepSpec::parse(&spec).unwrap_or_else(|e| panic!("`{spec}`: {e}"));
        let cells = sweep.expand().unwrap_or_else(|e| panic!("`{spec}`: {e}"));
        assert_eq!(cells.len(), 2, "`{spec}`");
        assert!(differ(&cells[0], &cells[1]), "`{spec}`: {cells:?}");
        assert_eq!(
            SweepSpec::parse(&sweep.spec_string()).unwrap(),
            sweep,
            "`{spec}`"
        );
        // Each cell is what the scenario parser makes of its own spec.
        for cell in &cells {
            assert_eq!(Scenario::parse(&cell.spec_string()).unwrap(), *cell);
        }
    }
}

#[test]
fn duplicate_settings_are_rejected_by_both_parsers() {
    for rest in [
        "rho=0.2 traffic=transpose dest=uniform",
        "rho=0.2 router=oddeven router=greedy",
        "rho=0.2 util=0.3",
        "load=rho:0.2 lambda=0.1",
        "rho=0.2 engine=heap shards=2",
        "rho=0.2 seed=1 seed=2",
        "rho=0.2 probes=nsys probes=maxq",
    ] {
        for (spec, err) in [
            (
                format!("mesh:4 {rest}"),
                Scenario::parse(&format!("mesh:4 {rest}"))
                    .err()
                    .map(|e| e.to_string()),
            ),
            (
                format!("topo=mesh:4 {rest}"),
                SweepSpec::parse(&format!("topo=mesh:4 {rest}"))
                    .err()
                    .map(|e| e.to_string()),
            ),
        ] {
            let err = err.unwrap_or_else(|| panic!("`{spec}` should not parse"));
            assert!(err.contains("repeats the"), "`{spec}`: {err}");
        }
    }
}

#[test]
fn oversized_topologies_are_refused_with_a_typed_error() {
    use meshbound::ScenarioError;
    for head in [
        "mesh:100000",
        "mesh:4294967296x4294967296",
        "kd:4294967296x4294967296",
        "kd:65536x65536x65536x65536",
        "torus:8193",
        "mesh:8192x8193",
    ] {
        match Scenario::parse(head) {
            Err(ScenarioError::TooManyNodes { .. }) => {}
            other => panic!("`{head}`: {other:?}"),
        }
    }
    assert!(matches!(
        Scenario::parse("mesh:8192x8193"),
        Err(ScenarioError::TooManyNodes {
            nodes: Some(67_117_056),
            ..
        })
    ));
    assert!(matches!(
        Scenario::parse("kd:4294967296x4294967296"),
        Err(ScenarioError::TooManyNodes { nodes: None, .. })
    ));
    // 2²⁶ nodes is the ceiling, in every family.
    assert!(Scenario::parse("mesh:8192").is_ok());
    assert!(Scenario::parse("hypercube:26").is_ok());
    // And a sweep refuses such a cell when it expands.
    let sweep = SweepSpec::parse("topo=mesh:4|mesh:100000 load=rho:0.2").unwrap();
    assert!(matches!(
        sweep.expand(),
        Err(meshbound::SweepError::InvalidCell(_))
    ));
}

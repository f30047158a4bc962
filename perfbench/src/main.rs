//! Child process of the meshbound benchmark (see `README.md` next to this
//! crate). `run.py` starts one fresh `perfbench` process per repetition, so
//! the process-global unit-rate cache and the allocator start cold, as they
//! do for a user's `repro scenario` / `repro sweep`.
//!
//! ```text
//! perfbench scenario <spec> [--trace]
//! perfbench sweep <spec> [--trace]
//! perfbench calibrate <threads>
//! ```
//!
//! Untraced, the child follows `repro`'s own path (parse → validate →
//! bounds → simulate → print) and times it as a whole. Traced, it times
//! each layer's public entry point on its own. Either way the report goes
//! to stdout as `repro` prints it, and the last line is `RECORD <json>`:
//! host timings in seconds, exact counts, and the run's fingerprint.
//!
//! `calibrate` times a fixed kernel that uses none of the library, on
//! `<threads>` threads at once, and prints `RECORD {"cal_s": …}`. `run.py`
//! runs it between repetitions to track the host's speed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use meshbound::routing::{DimOrder, GreedyXY, RouteTable, Router, TorusGreedy};
use meshbound::sim::engine::ROUTE_TABLE_MAX_NODES;
use meshbound::sim::events::{CalendarQueue, EventQueue, HeapQueue};
use meshbound::sim::SimResult;
use meshbound::topology::{Hypercube, Mesh2D, Partition, Topology, Torus2D};
use meshbound::{
    run_sweep, BoundsReport, EngineSpec, Jobs, ProbeSpec, RouterSpec, Scenario, SweepReport,
    SweepSpec, TopologySpec,
};

/// Worker threads: the sweep executor's pool, and the partition count
/// timed for single-core engines. The benchmark host has two cores.
const WORKERS: usize = 2;

/// Pop-then-push operations timed by the event-list hold model.
const HOLD_OPS: usize = 2_000_000;

/// Event-list operations per thread of the calibration kernel.
const CAL_OPS: usize = 3_000_000;

/// Words of the calibration kernel's scattered array (4 KiB). The kernel
/// stays in the private caches: the host's speed swings show there first,
/// while a kernel that misses the caches also picks up memory noise that
/// the workloads do not share, and tracks them worse.
const CAL_WORDS: usize = 1 << 10;

/// One flat JSON object, built field by field.
#[derive(Default)]
struct Record(String);

impl Record {
    fn raw(&mut self, key: &str, value: &str) -> &mut Self {
        let sep = if self.0.is_empty() { "" } else { "," };
        let _ = write!(self.0, "{sep}\"{key}\":{value}");
        self
    }

    fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let value = if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        };
        self.raw(key, &value)
    }

    fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.raw(key, &v.to_string())
    }

    fn text(&mut self, key: &str, v: &str) -> &mut Self {
        self.raw(key, &serde::json::to_string(v))
    }

    fn list(&mut self, key: &str, v: &[f64]) -> &mut Self {
        let items: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
        self.raw(key, &format!("[{}]", items.join(",")))
    }

    fn json(&self) -> String {
        format!("{{{}}}", self.0)
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// 64-bit FNV-1a: a stable digest of the deterministic sweep report.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The exact, seed-determined part of a run: what `run.py` compares
/// against the pinned fingerprint and across repetitions.
fn fingerprint(
    events: u64,
    completed: u64,
    generated: u64,
    delay: f64,
    digest: Option<u64>,
) -> String {
    let mut fp = Record::default();
    fp.int("events_processed", events)
        .int("completed", completed)
        .int("generated", generated)
        .text("avg_delay_bits", &format!("{:016x}", delay.to_bits()));
    if let Some(d) = digest {
        fp.text("digest", &format!("{d:016x}"));
    }
    fp.json()
}

fn print_head(out: &mut impl Write, sc: &Scenario, bounds: &BoundsReport) -> std::io::Result<()> {
    writeln!(out, "scenario: {}", sc.spec_string())?;
    write!(out, "{}", bounds.to_text())
}

/// The result lines `repro scenario` prints.
fn print_result(out: &mut impl Write, sc: &Scenario, res: &SimResult) -> std::io::Result<()> {
    writeln!(
        out,
        "  simulated: T = {:.3} (completed {} packets, E[N] = {:.2}, \
         Little cross-check {:.3}, peak edge utilization {:.3})",
        res.avg_delay, res.completed, res.time_avg_n, res.little_delay, res.max_edge_utilization
    )?;
    if sc.faults.is_some() {
        writeln!(
            out,
            "  degraded: delivered {:.4} of generated; drops: dead-end {}, \
             local-min {}, ttl {}, link-down {}",
            res.delivered_fraction,
            res.dropped.dead_end,
            res.dropped.local_minimum,
            res.dropped.ttl_exceeded,
            res.dropped.link_down
        )?;
    }
    writeln!(
        out,
        "  engine {}: {} events at {:.0}k events/s\n",
        sc.engine,
        res.events_processed,
        res.events_per_sec / 1e3
    )
}

/// Counts, engine time and fingerprint of one simulated scenario.
fn sim_fields(rec: &mut Record, res: &SimResult) {
    rec.num(
        "sim_engine_s",
        res.events_processed as f64 / res.events_per_sec,
    )
    .int("events", res.events_processed)
    .int("completed", res.completed)
    .int("generated", res.generated)
    .int("dropped", res.dropped.total())
    .int("ops", 1)
    .int("failed_ops", 0)
    .raw(
        "fingerprint",
        &fingerprint(
            res.events_processed,
            res.completed,
            res.generated,
            res.avg_delay,
            None,
        ),
    );
}

fn scenario_plain(spec: &str, out: &mut impl Write) -> Result<Record, String> {
    let t0 = Instant::now();
    let sc = Scenario::parse(spec).map_err(|e| e.to_string())?;
    sc.validate().map_err(|e| e.to_string())?;
    let bounds = BoundsReport::compute_for(&sc);
    let setup_s = t0.elapsed().as_secs_f64();
    print_head(out, &sc, &bounds).map_err(|e| e.to_string())?;
    let res = sc.try_run().map_err(|e| e.to_string())?;
    print_result(out, &sc, &res).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    let mut rec = Record::default();
    rec.num("wall_s", wall_s).num("setup_s", setup_s);
    sim_fields(&mut rec, &res);
    Ok(rec)
}

/// Probe ticks per run when the spec samples nothing itself. Only the
/// final per-shard totals are read, and each tick scans every edge, so the
/// default 256 ticks would triple the run time at 2²⁰ nodes.
const SHARD_PROBE_TICKS: f64 = 16.0;

/// `sc` with the per-shard probe series switched on (any series the spec
/// already samples are kept). Probes never change a run's results.
fn with_shard_probes(sc: &Scenario) -> Scenario {
    let mut probes = sc.probes.unwrap_or_else(|| {
        let mut p = ProbeSpec::parse_token("shards")
            .expect("`shards` is a valid probe list")
            .expect("`shards` is not `none`");
        p.every = Some(sc.horizon / SHARD_PROBE_TICKS);
        p
    });
    probes.shards = true;
    sc.clone().probes(probes)
}

/// Latest value of each `shard<k>:<suffix>` series, in shard order. The
/// series are cumulative, so the largest retained sample is the latest.
fn shard_series(res: &SimResult, suffix: &str) -> Vec<f64> {
    let Some(tel) = &res.telemetry else {
        return Vec::new();
    };
    let mut found: Vec<(usize, f64)> = tel
        .series
        .iter()
        .filter_map(|s| {
            let k = s
                .name
                .strip_prefix("shard")?
                .strip_suffix(suffix)?
                .strip_suffix(':')?;
            let last = s.samples.iter().map(|&(_, v)| v).fold(0.0, f64::max);
            Some((k.parse().ok()?, last))
        })
        .collect();
    found.sort_by_key(|&(k, _)| k);
    found.into_iter().map(|(_, v)| v).collect()
}

fn partition_shards(sc: &Scenario) -> usize {
    match sc.engine {
        EngineSpec::Sharded { shards } => shards,
        _ => WORKERS,
    }
}

/// Times the topology constructor, `Partition::contiguous`, and — where
/// the auto engine builds one — `RouteTable::build`.
fn topology_layers(sc: &Scenario) -> [f64; 3] {
    let table = sc.engine == EngineSpec::Auto
        && sc.router == RouterSpec::Greedy
        && sc.topology.num_nodes() <= ROUTE_TABLE_MAX_NODES;
    let shards = partition_shards(sc);
    match sc.topology {
        TopologySpec::Mesh { rows, cols } => {
            layers(|| Mesh2D::rect(rows, cols), GreedyXY, table, shards)
        }
        TopologySpec::Torus { n } => layers(|| Torus2D::new(n), TorusGreedy, table, shards),
        TopologySpec::Hypercube { dim } => layers(|| Hypercube::new(dim), DimOrder, table, shards),
        _ => [0.0; 3],
    }
}

fn layers<T: Topology, R: Router<T>>(
    build: impl FnOnce() -> T,
    router: R,
    table: bool,
    shards: usize,
) -> [f64; 3] {
    let (build_s, topo) = timed(build);
    let (partition_s, part) = timed(|| Partition::contiguous(&topo, shards));
    black_box(part);
    let table_s = if table {
        let (s, t) = timed(|| RouteTable::build(&topo, &router));
        black_box(t);
        s
    } else {
        0.0
    };
    [build_s, partition_s, table_s]
}

/// The classic hold model: fill `q` with `population` events, then time
/// `HOLD_OPS` pop-then-reschedule operations with exponential(1)
/// increments. Returns ns per operation.
fn hold_ns<Q: EventQueue<u32>>(mut q: Q, population: usize, seed: u64) -> f64 {
    let mut state = seed;
    let mut exp = move || {
        // splitmix64 → uniform in (0, 1] → exponential with mean 1.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        -(((z >> 11) as f64 + 1.0) / (1u64 << 53) as f64).ln()
    };
    for i in 0..population {
        q.schedule(exp(), i as u32);
    }
    let t = Instant::now();
    for _ in 0..HOLD_OPS {
        let (now, e) = q.next().expect("the hold model keeps the queue full");
        q.schedule(now + exp(), black_box(e));
    }
    t.elapsed().as_secs_f64() * 1e9 / HOLD_OPS as f64
}

/// Hold-model cost on both event-list implementations at `population`
/// pending events.
fn hold_fields(rec: &mut Record, population: usize, seed: u64) {
    let population = population.max(1);
    rec.num(
        "hold_ns_calendar",
        hold_ns(CalendarQueue::for_simulation(population), population, seed),
    )
    .num("hold_ns_heap", hold_ns(HeapQueue::new(), population, seed));
}

fn scenario_traced(spec: &str, out: &mut impl Write) -> Result<Record, String> {
    let t0 = Instant::now();
    let (parse_s, sc) = timed(|| Scenario::parse(spec));
    let sc = sc.map_err(|e| e.to_string())?;
    let (validate_s, ok) = timed(|| sc.validate());
    ok.map_err(|e| e.to_string())?;
    // Cold: nothing has asked for this scenario's rates yet. For
    // cache-eligible topologies this warms the rate cache, so `bounds_s`
    // then excludes the solve.
    let (rates_s, rates) = timed(|| sc.try_edge_rates());
    black_box(rates.map_err(|e| e.to_string())?);
    let (bounds_s, bounds) = timed(|| BoundsReport::compute_for(&sc));
    let probed = with_shard_probes(&sc);
    let (run_s, res) = timed(|| probed.try_run());
    let res = res.map_err(|e| e.to_string())?;
    let (text_s, printed) = timed(|| {
        print_head(out, &sc, &bounds)?;
        print_result(out, &sc, &res)?;
        out.flush()
    });
    printed.map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    let (json_s, json) =
        timed(|| serde::json::to_string_pretty(&bounds) + &serde::json::to_string_pretty(&res));
    black_box(json);

    let mut rec = Record::default();
    rec.num("wall_s", wall_s)
        .num("parse_s", parse_s)
        .num("validate_s", validate_s)
        .num("rates_s", rates_s)
        .num("bounds_s", bounds_s)
        .num("sim_run_s", run_s)
        .num("text_s", text_s)
        .num("json_s", json_s);
    sim_fields(&mut rec, &res);
    rec.list("shard_events", &shard_series(&res, "events"))
        .list("shard_cut", &shard_series(&res, "cut"));
    let population = sc.num_sources() + res.time_avg_n.ceil() as usize;
    drop(res);

    let [build_s, partition_s, table_s] = topology_layers(&sc);
    rec.num("topology_build_s", build_s)
        .num("partition_s", partition_s)
        .num("table_build_s", table_s);
    if matches!(sc.engine, EngineSpec::Sharded { .. }) {
        let (calendar_s, cal) = timed(|| sc.clone().engine(EngineSpec::Calendar).try_run());
        black_box(cal.map_err(|e| e.to_string())?);
        rec.num("calendar_run_s", calendar_s);
    }
    hold_fields(&mut rec, population, sc.seed);
    Ok(rec)
}

/// Sweep fields shared by both modes: counts, per-cell failures and the
/// fingerprint. A cell fails when it is unfaulted and lies outside its
/// analytic bounds.
fn sweep_fields(rec: &mut Record, report: &SweepReport) {
    let (mut events, mut completed, mut generated, mut dropped) = (0, 0, 0, 0);
    let mut delay_sum = 0.0;
    let mut failed = Vec::new();
    for cell in &report.cells {
        events += cell.events_processed;
        completed += cell.completed;
        generated += cell.generated;
        dropped += cell.dropped.total();
        delay_sum += cell.delay_mean;
        if cell.scenario.faults.is_none() && !cell.within_bounds {
            failed.push(cell.spec.clone());
        }
    }
    let digest = fnv1a(report.without_timings().to_json().as_bytes());
    let names: Vec<String> = failed
        .iter()
        .map(|s| serde::json::to_string(s.as_str()))
        .collect();
    rec.num("setup_s", report.cells.iter().map(|c| c.setup_s).sum())
        .num("cell_sim_s", report.cells.iter().map(|c| c.sim_s).sum())
        .num("speedup", report.speedup)
        .int("cells", report.num_cells as u64)
        .int("events", events)
        .int("completed", completed)
        .int("generated", generated)
        .int("dropped", dropped)
        .int("ops", report.num_cells as u64)
        .int("failed_ops", failed.len() as u64)
        .raw("failed_names", &format!("[{}]", names.join(",")))
        .raw(
            "fingerprint",
            &fingerprint(events, completed, generated, delay_sum, Some(digest)),
        );
}

fn sweep_plain(spec: &str, out: &mut impl Write) -> Result<Record, String> {
    let t0 = Instant::now();
    let sweep = SweepSpec::parse(spec).map_err(|e| e.to_string())?;
    let report = run_sweep(&sweep, Jobs::Parallel).map_err(|e| e.to_string())?;
    write!(out, "{}", report.to_text()).map_err(|e| e.to_string())?;
    black_box(report.to_json_pretty());
    out.flush().map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    let mut rec = Record::default();
    rec.num("wall_s", wall_s);
    sweep_fields(&mut rec, &report);
    Ok(rec)
}

fn sweep_traced(spec: &str, out: &mut impl Write) -> Result<Record, String> {
    let t0 = Instant::now();
    let (parse_s, sweep) = timed(|| SweepSpec::parse(spec));
    let sweep = sweep.map_err(|e| e.to_string())?;
    // `expand` validates every cell; `run_sweep` expands again.
    let (validate_s, cells) = timed(|| sweep.expand());
    let cells = cells.map_err(|e| e.to_string())?;
    let report = run_sweep(&sweep, Jobs::Parallel).map_err(|e| e.to_string())?;
    let (text_s, printed) = timed(|| write!(out, "{}", report.to_text()));
    printed.map_err(|e| e.to_string())?;
    let (json_s, json) = timed(|| report.to_json_pretty());
    black_box(json);
    out.flush().map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();

    let mut rec = Record::default();
    rec.num("wall_s", wall_s)
        .num("parse_s", parse_s)
        .num("validate_s", validate_s)
        .num("text_s", text_s)
        .num("json_s", json_s);
    sweep_fields(&mut rec, &report);

    // Topology layers once per distinct topology, summed.
    let mut seen: Vec<&TopologySpec> = Vec::new();
    let mut sums = [0.0; 3];
    for sc in &cells {
        if seen.contains(&&sc.topology) {
            continue;
        }
        seen.push(&sc.topology);
        let greedy = sc.clone().router(RouterSpec::Greedy);
        for (sum, s) in sums.iter_mut().zip(topology_layers(&greedy)) {
            *sum += s;
        }
    }
    rec.num("topology_build_s", sums[0])
        .num("partition_s", sums[1])
        .num("table_build_s", sums[2]);
    let population = report
        .cells
        .iter()
        .map(|c| c.scenario.num_sources() as f64 + c.time_avg_n.ceil())
        .sum::<f64>()
        / report.cells.len().max(1) as f64;
    hold_fields(&mut rec, population.round() as usize, sweep.seed);
    Ok(rec)
}

/// The host-speed yardstick: a hold model on a `BinaryHeap` of 2048
/// events, each step also updating a scattered word of a small array.
/// Fixed work, built from `std` alone, so a change to the library never
/// changes it. Returns its time in seconds.
fn calibration_kernel(seed: u64) -> f64 {
    let mut state = seed;
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut words = vec![0u32; CAL_WORDS];
    let mut heap = BinaryHeap::with_capacity(2048);
    for i in 0..2048u32 {
        heap.push(Reverse((next() >> 44, i)));
    }
    let t = Instant::now();
    for _ in 0..CAL_OPS {
        let Reverse((at, id)) = heap.pop().expect("the heap stays full");
        let r = next();
        let k = (r as usize) & (CAL_WORDS - 1);
        words[k] = words[k].wrapping_add(id);
        heap.push(Reverse((at + (r >> 52) + 1, black_box(id))));
    }
    black_box(&words);
    t.elapsed().as_secs_f64()
}

/// Runs the calibration kernel on `threads` threads at once; returns the
/// mean of their times.
fn calibrate(threads: usize) -> Record {
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|i| s.spawn(move || calibration_kernel(0x9E37_79B9_7F4A_7C15 ^ i)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the calibration kernel does not panic"))
            .collect()
    });
    let mut rec = Record::default();
    rec.num("cal_s", times.iter().sum::<f64>() / times.len() as f64);
    rec
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace = args.iter().any(|a| a == "--trace");
    let rest: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--trace")
        .collect();
    let [kind, spec] = rest[..] else {
        eprintln!("usage: perfbench scenario|sweep <spec> [--trace] | perfbench calibrate <threads>");
        return ExitCode::from(2);
    };
    // One global cap: the sweep executor's pool and every cell's
    // replication fan-out share the host's two cores.
    rayon::ThreadPoolBuilder::new()
        .num_threads(WORKERS)
        .build_global()
        .expect("the pool is installed once, before any parallel work");
    let mut out = std::io::stdout().lock();
    let rec = match (kind, trace) {
        ("scenario", false) => scenario_plain(spec, &mut out),
        ("scenario", true) => scenario_traced(spec, &mut out),
        ("sweep", false) => sweep_plain(spec, &mut out),
        ("sweep", true) => sweep_traced(spec, &mut out),
        ("calibrate", false) => match spec.parse::<usize>() {
            Ok(threads) if threads > 0 => Ok(calibrate(threads)),
            _ => Err(format!("calibrate needs a thread count, not `{spec}`")),
        },
        _ => {
            eprintln!("perfbench: unknown kind `{kind}` (scenario|sweep|calibrate)");
            return ExitCode::from(2);
        }
    };
    match rec.and_then(|rec| writeln!(out, "RECORD {}", rec.json()).map_err(|e| e.to_string())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

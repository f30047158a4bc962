//! The packet-level FIFO network simulator (the paper's standard model and
//! its Jackson variant).
//!
//! Each directed edge is a server with its own FIFO queue and service rate.
//! Packets are generated at source nodes by Poisson processes (or in batch
//! at slot boundaries in slotted mode, §5.2), routed incrementally by a
//! [`Router`], and leave the system on reaching their destination.
//!
//! [`NetworkSim`] holds the model (topology, router, destinations, rates,
//! fault plan) and [`NetworkSim::try_run`] picks the engine
//! ([`EngineSpec`] on [`NetConfig`]): a shard count, a future-event list
//! and whether precomputed route tables are used. Every engine then runs
//! the same event loop, in `crate::shard`:
//!
//! * **routing** calls [`Router::next_hop`] at every dequeue with a live
//!   [`LocalView`](meshbound_routing::LocalView) of the switch's output
//!   queues — the per-hop `RoutingPolicy` surface under which oblivious
//!   routers recompute their Markovian next edge (Corollary 4) and
//!   adaptive turn-model routers steer around congestion — or, for
//!   deterministic routers on gated sizes, reads hops from a precomputed
//!   [`RouteTable`](meshbound_routing::RouteTable) together with route
//!   lengths and saturated-hop counts;
//! * **edge queues** are intrusive linked lists threaded through one shared
//!   slab (`qnext[pid]`), so an edge's state is two `u32` cursors and the
//!   whole network's queue storage is a single allocation;
//! * packet records live in a free-list slab, and the loop allocates
//!   nothing per event.
//!
//! The one-shard engines are bit-identical by construction: every event
//! pops in the same `(time, seq)` order and every random draw happens in
//! the same sequence, so `SimResult` is invariant under the choice (pinned
//! by `tests/engine_equivalence.rs`).

use crate::engine::EngineSpec;
use crate::fault::{DropCounts, FaultPlan};
use crate::service::ServiceKind;
use crate::shard::EventList;
use crate::telemetry::{ProbeSpec, TelemetryReport};
use meshbound_routing::dest::DestSampler;
use meshbound_routing::{Router, ZeroView};
use meshbound_topology::{EdgeId, NodeId, Topology};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Tuning parameters common to all topologies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetConfig {
    /// Per-source Poisson arrival rate λ.
    pub lambda: f64,
    /// Simulated end time.
    pub horizon: f64,
    /// Warmup time; statistics start here.
    pub warmup: f64,
    /// Master RNG seed.
    pub seed: u64,
    /// Transmission-time distribution.
    pub service: ServiceKind,
    /// Whether packets with `source == destination` count (delay 0). The
    /// paper's model allows them; Table I averages include them.
    pub include_self_packets: bool,
    /// Slotted-time mode: packets arrive in Poisson batches of mean `λ·τ`
    /// at multiples of `τ` (§5.2).
    pub slot: Option<f64>,
    /// Sample `N(t)` every this many time units (stability diagnostics).
    pub sample_every: Option<f64>,
    /// Track delay quantiles with a bounded reservoir sample.
    pub delay_quantiles: bool,
    /// Track per-edge time-averaged queue lengths (the §4.4 "middle queues
    /// are larger" diagnostic). Adds one integrator update per enqueue and
    /// dequeue.
    pub track_edge_queues: bool,
    /// Telemetry probes: which time series to sample at deterministic
    /// sim-clock ticks. `None` (the default) schedules no probe events
    /// and leaves every result field bit-identical to a pre-telemetry
    /// build; `Some` attaches a [`TelemetryReport`] without perturbing
    /// any other field — probes read engine state but never mutate it.
    pub probes: Option<ProbeSpec>,
    /// Hot-path engine selection (event queue + routing tables). All
    /// engines produce bit-identical results.
    pub engine: EngineSpec,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            lambda: 0.1,
            horizon: 1_000.0,
            warmup: 100.0,
            seed: 1,
            service: ServiceKind::Deterministic,
            include_self_packets: true,
            slot: None,
            sample_every: None,
            delay_quantiles: false,
            track_edge_queues: false,
            probes: None,
            engine: EngineSpec::Auto,
        }
    }
}

/// Aggregated output of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Mean packet delay `T` (generation → delivery), zero-distance packets
    /// included when configured.
    pub avg_delay: f64,
    /// Standard error of the delay mean (per-packet, correlated — use
    /// replications for honest intervals).
    pub delay_std_err: f64,
    /// Packets generated after warmup.
    pub generated: u64,
    /// Packets delivered that were generated after warmup.
    pub completed: u64,
    /// Packets dropped by the fault machinery, tallied by cause. All-zero
    /// on a healthy run — nothing drops without a fault plan.
    pub dropped: DropCounts,
    /// `completed / generated`: the fraction of the measured offered load
    /// that was delivered (the rest dropped or was still in flight at the
    /// horizon). Zero when nothing was generated.
    pub delivered_fraction: f64,
    /// Time-averaged number in system `E[N]`.
    pub time_avg_n: f64,
    /// Time-averaged remaining services `E[R]` (Table II numerator).
    pub time_avg_r: f64,
    /// Time-averaged remaining saturated services `E[R_s]` (Table III).
    pub time_avg_rs: f64,
    /// `r = E[R]/E[N]`.
    pub r_ratio: f64,
    /// `r_s = E[R_s]/E[N]`.
    pub rs_ratio: f64,
    /// Little's-law delay `E[N] / λ`, with `λ = generated / measure_time`
    /// the post-warmup arrival rate — should agree with `avg_delay` on a
    /// long, stable run where nothing drops.
    pub little_delay: f64,
    /// Highest per-edge busy fraction observed.
    pub max_edge_utilization: f64,
    /// Per-edge empirical service throughput (completions per unit time).
    /// Materialized only up to [`STREAMING_STATS_MAX_EDGES`](crate::engine::STREAMING_STATS_MAX_EDGES) edges; above
    /// that scale the vector is empty and [`SimResult::edge_throughput_stats`]
    /// carries the streaming summary instead.
    pub edge_throughput: Vec<f64>,
    /// Streaming (Welford) summary of the per-edge service throughput —
    /// always present, and the only per-edge throughput view at scales
    /// where the full vector is not materialized.
    pub edge_throughput_stats: EdgeThroughputStats,
    /// `N(t)` at the horizon (large values flag instability).
    pub final_n: f64,
    /// Peak `N(t)` observed.
    pub peak_n: f64,
    /// Sampled `N(t)` trajectory, if requested.
    pub n_samples: Vec<(f64, f64)>,
    /// Measurement window length (horizon − warmup).
    pub measure_time: f64,
    /// Future-event-list events processed over the whole run (arrivals,
    /// departures, slot/sample/warmup ticks). Deterministic given the
    /// seed, so the one-shard engines must agree on it bit for bit.
    /// With more than one shard the engine replicates its per-shard ticks and adds one
    /// handoff event per cross-shard packet transfer, so its count is
    /// comparable only across runs of the same `(seed, shards)` pair.
    pub events_processed: u64,
    /// Events processed per wall-clock second — the run's throughput. The
    /// **only** nondeterministic field; zero it before comparing results.
    pub events_per_sec: f64,
    /// Median delay, when `delay_quantiles` was enabled.
    pub delay_p50: Option<f64>,
    /// 95th-percentile delay, when `delay_quantiles` was enabled.
    pub delay_p95: Option<f64>,
    /// 99th-percentile delay, when `delay_quantiles` was enabled.
    pub delay_p99: Option<f64>,
    /// Per-edge time-averaged queue length (including the packet in
    /// service), when `track_edge_queues` was enabled.
    pub edge_mean_queue: Option<Vec<f64>>,
    /// Flight-recorder telemetry, when [`NetConfig::probes`] was set.
    /// Purely additive: every other field is bit-identical to the same
    /// run with probes off.
    pub telemetry: Option<TelemetryReport>,
}

/// Streaming cross-edge summary of per-edge service throughput, computed
/// with a single Welford pass so it costs O(1) memory however many edges
/// the topology has. Deterministic given the seed (it reduces the same
/// service counts every engine must agree on bit for bit).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeThroughputStats {
    /// Number of edges summarized.
    pub edges: usize,
    /// Mean per-edge throughput (completions per unit time).
    pub mean: f64,
    /// Largest per-edge throughput.
    pub max: f64,
    /// Sample standard deviation across edges (0 with fewer than 2 edges).
    pub std_dev: f64,
}

/// A structural failure inside a simulation run.
///
/// A router stall is always a router/topology contract violation on a
/// *healthy* topology (greedy routers are total; under a fault plan an
/// unroutable packet becomes an accounted drop instead), so
/// [`NetworkSim::run`] panics on it; [`NetworkSim::try_run`] surfaces it
/// as a value for callers that prefer to handle it. An unsupported
/// configuration means the requested engine cannot honor the run's
/// parameters at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The router produced no next edge at `node` for a packet destined
    /// for `dst` on a healthy topology.
    RouterStalled {
        /// Node the packet was stranded at.
        node: NodeId,
        /// The packet's destination.
        dst: NodeId,
        /// Type name of the offending router.
        router: &'static str,
    },
    /// The selected engine cannot honor the run's configuration (e.g. the
    /// sharded engine's lookahead contract).
    UnsupportedConfig {
        /// What the engine cannot do, and why.
        reason: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::RouterStalled { node, dst, router } => write!(
                f,
                "router {router} stalled at {node} before reaching destination {dst}"
            ),
            SimError::UnsupportedConfig { reason } => {
                write!(f, "unsupported configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The generic FIFO network simulator.
///
/// Construct with [`NetworkSim::new`], optionally adjust sources, service
/// rates or the saturated-edge set, then call [`NetworkSim::run`].
pub struct NetworkSim<T, R, D>
where
    T: Topology,
    R: Router<T>,
    D: DestSampler<T>,
{
    pub(crate) topo: T,
    pub(crate) router: R,
    pub(crate) dest: D,
    pub(crate) cfg: NetConfig,
    pub(crate) sources: Vec<NodeId>,
    /// Per-source Poisson rates (`None` = every source at `cfg.lambda`,
    /// the historical scalar path — kept as `None` so the uniform case
    /// stays on the exact same code path, bit for bit).
    pub(crate) source_rates: Option<Vec<f64>>,
    pub(crate) service_rates: Vec<f64>,
    pub(crate) sat_edge: Vec<bool>,
    pub(crate) track_saturated: bool,
    /// Materialized failure timeline ([`FaultPlan::is_empty`] = healthy
    /// run on the exact pre-fault code path).
    pub(crate) fault_plan: FaultPlan,
}

impl<T, R, D> NetworkSim<T, R, D>
where
    // `Sync` lets the sharded engine borrow the simulator from its worker
    // threads; every concrete topology/router/sampler is plain data.
    T: Topology + Sync,
    R: Router<T> + Sync,
    D: DestSampler<T> + Sync,
{
    /// Creates a simulator over `topo` where every node is a source and all
    /// edges have unit service rate.
    pub fn new(topo: T, router: R, dest: D, cfg: NetConfig) -> Self {
        let sources = topo.nodes().collect();
        let num_edges = topo.num_edges();
        Self {
            topo,
            router,
            dest,
            cfg,
            sources,
            source_rates: None,
            service_rates: vec![1.0; num_edges],
            sat_edge: vec![false; num_edges],
            track_saturated: false,
            fault_plan: FaultPlan::default(),
        }
    }

    /// Installs a materialized fault plan (see [`FaultPlan::materialize`]).
    /// The engines replay its timeline: failed edges stop accepting
    /// packets, waiting packets drop where they stand, and unroutable
    /// packets become accounted drops instead of [`SimError`]s.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Restricts packet generation to the given sources (e.g. butterfly
    /// level-0 nodes). Call before [`NetworkSim::with_source_rates`] —
    /// rates are positional, so installing them against the wrong source
    /// list would silently misassign them.
    ///
    /// # Panics
    ///
    /// Panics if per-source rates were already installed, or `sources` is
    /// empty.
    #[must_use]
    pub fn with_sources(mut self, sources: Vec<NodeId>) -> Self {
        assert!(
            self.source_rates.is_none(),
            "set the source list before the per-source rates (rates are positional)"
        );
        assert!(!sources.is_empty());
        self.sources = sources;
        self
    }

    /// Sets **per-source** Poisson rates, one per entry of the source
    /// list, generalizing the scalar `NetConfig::lambda`. Zero-rate
    /// sources generate nothing (their arrival events are never
    /// scheduled).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the source count, any rate is
    /// negative or non-finite, or all rates are zero.
    #[must_use]
    pub fn with_source_rates(mut self, rates: Vec<f64>) -> Self {
        assert_eq!(rates.len(), self.sources.len(), "one rate per source");
        assert!(rates.iter().all(|&r| r >= 0.0 && r.is_finite()));
        assert!(rates.iter().any(|&r| r > 0.0), "all source rates are zero");
        self.source_rates = Some(rates);
        self
    }

    /// Sets per-edge service rates (the §5.1 variable-transmission-rate
    /// model).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the edge count or any rate is not
    /// positive.
    #[must_use]
    pub fn with_service_rates(mut self, rates: Vec<f64>) -> Self {
        assert_eq!(rates.len(), self.topo.num_edges());
        assert!(rates.iter().all(|&r| r > 0.0));
        self.service_rates = rates;
        self
    }

    /// Marks the saturated edges so `R_s(t)` is tracked (Table III).
    #[must_use]
    pub fn with_saturated_edges(mut self, edges: &[EdgeId]) -> Self {
        for &e in edges {
            self.sat_edge[e.index()] = true;
        }
        self.track_saturated = !edges.is_empty();
        self
    }

    /// Runs the simulation to the horizon and returns aggregate statistics.
    ///
    /// The one-shard engines named by [`NetConfig::engine`] only move
    /// wall-clock time; their returned statistics are bit-identical. With
    /// more than one shard a run is bit-identical per `(seed, shards)`
    /// pair and statistically equivalent to the one-shard engines (see
    /// `crate::shard`).
    ///
    /// # Panics
    ///
    /// Panics with the [`SimError`] message if the router stalls (a
    /// router/topology contract violation); use [`NetworkSim::try_run`]
    /// to handle it as a value.
    #[must_use]
    pub fn run(self) -> SimResult {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the simulation, surfacing structural failures as a value.
    ///
    /// # Errors
    ///
    /// [`SimError::RouterStalled`] if the router returns no next edge for
    /// an undelivered packet, naming the stuck `(node, dst, router)`
    /// triple.
    pub fn try_run(self) -> Result<SimResult, SimError> {
        // The throughput clock starts before any engine setup, so
        // `events_per_sec` charges every engine for its table builds —
        // ev/s and wall-clock comparisons across engines stay consistent.
        let wall = Instant::now();
        let lane_or_calendar = if self.constant_service_time() {
            EventList::Lane
        } else {
            EventList::Calendar
        };
        let (shards, list, route_tables) = match self.cfg.engine {
            EngineSpec::Auto => (1, lane_or_calendar, true),
            EngineSpec::Heap => (1, EventList::Heap, false),
            EngineSpec::Calendar => (1, EventList::Calendar, false),
            EngineSpec::Sharded { shards } => (shards, lane_or_calendar, true),
        };
        crate::shard::run(self, wall, shards, list, route_tables)
    }
}

/// Crate-internal helpers the event loop reads.
impl<T, R, D> NetworkSim<T, R, D>
where
    T: Topology,
    R: Router<T>,
    D: DestSampler<T>,
{
    /// Whether every service takes the same fixed time: deterministic
    /// service with one rate on every edge (the paper's unit-time model).
    /// Departures are then scheduled in time order, so `auto` and
    /// `sharded:<N>` put them on a [`LaneQueue`](crate::events::LaneQueue)
    /// lane.
    pub(crate) fn constant_service_time(&self) -> bool {
        self.cfg.service == ServiceKind::Deterministic
            && self.service_rates.windows(2).all(|w| w[0] == w[1])
    }

    /// The Poisson rate of source `i` (by position in the source list).
    #[inline]
    pub(crate) fn source_rate(&self, i: usize) -> f64 {
        match &self.source_rates {
            Some(r) => r[i],
            None => self.cfg.lambda,
        }
    }

    /// Saturated hops along the *canonical* (empty-network) route — the
    /// zero-view walk, which coincides with the actual route for oblivious
    /// routers and is the conventional reference path for adaptive ones.
    pub(crate) fn count_saturated_on_route(
        &self,
        src: NodeId,
        dst: NodeId,
        state: R::State,
    ) -> usize {
        let mut count = 0;
        let mut cur = src;
        while let Some(e) = self.router.next_hop(&self.topo, cur, dst, state, &ZeroView) {
            if self.sat_edge[e.index()] {
                count += 1;
            }
            cur = self.topo.edge_target(e);
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshbound_routing::dest::UniformDest;
    use meshbound_routing::GreedyXY;
    use meshbound_topology::Mesh2D;

    fn tiny_cfg() -> NetConfig {
        NetConfig {
            lambda: 0.05,
            horizon: 500.0,
            warmup: 50.0,
            seed: 3,
            ..NetConfig::default()
        }
    }

    #[test]
    fn light_load_delay_near_mean_distance() {
        let mesh = Mesh2D::square(5);
        let cfg = NetConfig {
            lambda: 0.001,
            horizon: 40_000.0,
            warmup: 100.0,
            ..tiny_cfg()
        };
        let res = NetworkSim::new(mesh.clone(), GreedyXY, UniformDest, cfg).run();
        // At vanishing load every hop costs exactly 1: T → n̄ = 3.2.
        assert!(
            (res.avg_delay - mesh.mean_distance()).abs() < 0.15,
            "delay {}",
            res.avg_delay
        );
    }

    #[test]
    fn littles_law_holds_in_simulation() {
        let mesh = Mesh2D::square(5);
        let cfg = NetConfig {
            lambda: 0.1,
            horizon: 20_000.0,
            warmup: 1_000.0,
            ..tiny_cfg()
        };
        let res = NetworkSim::new(mesh, GreedyXY, UniformDest, cfg).run();
        // With self-packets included on both sides, Little's law gives
        // avg_delay = E[N] / (total throughput incl. zero-distance packets):
        // zero-distance packets contribute 0 to both the N-integral and the
        // delay sum while inflating the throughput denominator equally.
        assert!(
            (res.avg_delay - res.little_delay).abs() < 0.12,
            "delay {} vs little {}",
            res.avg_delay,
            res.little_delay
        );
    }

    #[test]
    fn zero_distance_packets_counted_when_enabled() {
        let mesh = Mesh2D::square(3);
        let cfg = NetConfig {
            lambda: 0.02,
            horizon: 5_000.0,
            warmup: 0.0,
            ..tiny_cfg()
        };
        let with = NetworkSim::new(mesh.clone(), GreedyXY, UniformDest, cfg.clone()).run();
        let cfg_no = NetConfig {
            include_self_packets: false,
            ..cfg
        };
        let without = NetworkSim::new(mesh, GreedyXY, UniformDest, cfg_no).run();
        // Excluding zero-delay packets raises the average delay.
        assert!(without.avg_delay > with.avg_delay);
    }

    #[test]
    fn edge_throughput_matches_thm6_rates() {
        let n = 4;
        let mesh = Mesh2D::square(n);
        let lambda = 0.2;
        let cfg = NetConfig {
            lambda,
            horizon: 50_000.0,
            warmup: 1_000.0,
            seed: 11,
            ..NetConfig::default()
        };
        let res = NetworkSim::new(mesh.clone(), GreedyXY, UniformDest, cfg).run();
        let expect = meshbound_routing::rates::mesh_thm6_rates(&mesh, lambda);
        for e in mesh.edges() {
            let got = res.edge_throughput[e.index()];
            let want = expect[e.index()];
            assert!(
                (got - want).abs() < 0.05 * want.max(0.05),
                "edge {e}: throughput {got} vs Theorem 6 rate {want}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "before the per-source rates")]
    fn sources_cannot_change_under_installed_rates() {
        // Rates are positional; swapping the source list afterwards would
        // silently misassign them, so the builder refuses.
        let mesh = Mesh2D::square(3);
        let _ = NetworkSim::new(mesh.clone(), GreedyXY, UniformDest, tiny_cfg())
            .with_source_rates(vec![0.1; 9])
            .with_sources(vec![meshbound_topology::NodeId(0)]);
    }

    #[test]
    fn deterministic_given_seed() {
        let mesh = Mesh2D::square(4);
        let a = NetworkSim::new(mesh.clone(), GreedyXY, UniformDest, tiny_cfg()).run();
        let b = NetworkSim::new(mesh, GreedyXY, UniformDest, tiny_cfg()).run();
        assert_eq!(a.avg_delay, b.avg_delay);
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.time_avg_n, b.time_avg_n);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn different_seeds_differ() {
        let mesh = Mesh2D::square(4);
        let a = NetworkSim::new(mesh.clone(), GreedyXY, UniformDest, tiny_cfg()).run();
        let mut cfg = tiny_cfg();
        cfg.seed = 999;
        let b = NetworkSim::new(mesh, GreedyXY, UniformDest, cfg).run();
        assert_ne!(a.avg_delay, b.avg_delay);
    }

    /// The heart of the engine contract: heap, calendar and table engines
    /// agree bit for bit — on the plain workload and with every expensive
    /// tracking option turned on at once.
    #[test]
    fn engines_are_bit_identical() {
        let mesh = Mesh2D::square(4);
        let saturated: Vec<_> = mesh
            .edges()
            .filter(|&e| mesh.crossing_index(e) == 2)
            .collect();
        for fancy in [false, true] {
            let base = NetConfig {
                lambda: 0.2,
                horizon: 2_000.0,
                warmup: 200.0,
                seed: 21,
                track_edge_queues: fancy,
                delay_quantiles: fancy,
                sample_every: fancy.then_some(50.0),
                service: if fancy {
                    ServiceKind::Exponential
                } else {
                    ServiceKind::Deterministic
                },
                ..NetConfig::default()
            };
            let run = |engine: EngineSpec| {
                let cfg = NetConfig {
                    engine,
                    ..base.clone()
                };
                let mut sim = NetworkSim::new(mesh.clone(), GreedyXY, UniformDest, cfg)
                    .with_service_rates(vec![1.25; mesh.num_edges()]);
                if fancy {
                    sim = sim.with_saturated_edges(&saturated);
                }
                sim.run()
            };
            let heap = run(EngineSpec::Heap);
            let cal = run(EngineSpec::Calendar);
            let auto = run(EngineSpec::Auto);
            for other in [&cal, &auto] {
                assert_eq!(heap.avg_delay.to_bits(), other.avg_delay.to_bits());
                assert_eq!(heap.generated, other.generated);
                assert_eq!(heap.completed, other.completed);
                assert_eq!(heap.time_avg_n.to_bits(), other.time_avg_n.to_bits());
                assert_eq!(heap.time_avg_rs.to_bits(), other.time_avg_rs.to_bits());
                assert_eq!(heap.events_processed, other.events_processed);
                assert_eq!(heap.delay_p99, other.delay_p99);
                assert_eq!(heap.edge_mean_queue, other.edge_mean_queue);
            }
            assert!(heap.events_processed > 0);
            assert!(heap.events_per_sec > 0.0);
        }
    }

    #[test]
    fn slotted_mode_close_to_continuous() {
        let mesh = Mesh2D::square(5);
        let lambda = 0.1;
        let base = NetConfig {
            lambda,
            horizon: 30_000.0,
            warmup: 1_000.0,
            seed: 5,
            ..NetConfig::default()
        };
        let cont = NetworkSim::new(mesh.clone(), GreedyXY, UniformDest, base.clone()).run();
        let slotted_cfg = NetConfig {
            slot: Some(1.0),
            ..base
        };
        let slot = NetworkSim::new(mesh, GreedyXY, UniformDest, slotted_cfg).run();
        // §5.2: the slotted average is within τ of the continuous one
        // (plus simulation noise).
        assert!(
            (slot.avg_delay - cont.avg_delay).abs() < 1.0 + 0.3,
            "slotted {} vs continuous {}",
            slot.avg_delay,
            cont.avg_delay
        );
    }

    #[test]
    fn saturated_tracking_counts_central_edges() {
        let n = 4;
        let mesh = Mesh2D::square(n);
        let classes: Vec<_> = {
            // crossing index n/2 = 2
            mesh.edges()
                .filter(|&e| mesh.crossing_index(e) == 2)
                .collect()
        };
        let cfg = NetConfig {
            lambda: 0.2,
            horizon: 10_000.0,
            warmup: 500.0,
            seed: 4,
            ..NetConfig::default()
        };
        let res = NetworkSim::new(mesh, GreedyXY, UniformDest, cfg)
            .with_saturated_edges(&classes)
            .run();
        assert!(res.time_avg_rs > 0.0);
        assert!(res.rs_ratio > 0.0 && res.rs_ratio < res.r_ratio);
    }

    #[test]
    fn variable_service_rates_speed_up_network() {
        let mesh = Mesh2D::square(4);
        let cfg = NetConfig {
            lambda: 0.15,
            horizon: 20_000.0,
            warmup: 1_000.0,
            seed: 6,
            ..NetConfig::default()
        };
        let slow = NetworkSim::new(mesh.clone(), GreedyXY, UniformDest, cfg.clone()).run();
        let fast = NetworkSim::new(mesh.clone(), GreedyXY, UniformDest, cfg)
            .with_service_rates(vec![2.0; mesh.num_edges()])
            .run();
        assert!(
            fast.avg_delay < slow.avg_delay * 0.7,
            "fast {} vs slow {}",
            fast.avg_delay,
            slow.avg_delay
        );
    }

    /// The structured stall error: a router that refuses to route
    /// surfaces the stuck (node, dst, router) triple as a `SimError`
    /// value from `try_run`, and `run` panics with the same message.
    #[test]
    fn router_stall_reports_the_stuck_triple() {
        use meshbound_topology::{EdgeId, NodeId};
        use rand::rngs::SmallRng;

        /// A router that always stalls.
        struct Stuck;
        impl<T: Topology> Router<T> for Stuck {
            type State = ();
            fn init_state(&self, _: &T, _: NodeId, _: NodeId, _: &mut SmallRng) {}
            fn next_edge(&self, _: &T, _: NodeId, _: NodeId, (): ()) -> Option<EdgeId> {
                None
            }
            fn remaining_hops(&self, _: &T, _: NodeId, _: NodeId, (): ()) -> usize {
                1
            }
        }

        let make = || {
            NetworkSim::new(
                Mesh2D::square(3),
                Stuck,
                UniformDest,
                NetConfig {
                    lambda: 0.5,
                    horizon: 100.0,
                    warmup: 0.0,
                    ..NetConfig::default()
                },
            )
        };
        let err = make().try_run().unwrap_err();
        match &err {
            SimError::RouterStalled { node, dst, router } => {
                assert_ne!(node, dst);
                assert_eq!(*router, "Stuck");
            }
            other => panic!("expected a stall, got {other}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("Stuck") && msg.contains("stalled"), "{msg}");
        // `run()` panics with the same structured message.
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| make().run()))
            .expect_err("run() must panic on a stall");
        let text = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(text.contains("stalled"), "{text}");
    }

    /// A fault plan turns unroutable packets into accounted drops — the
    /// run completes, attributes every loss to a cause, and stays
    /// bit-identical across the one-shard engines.
    #[test]
    fn fault_plan_drops_packets_instead_of_stalling() {
        use crate::fault::{FaultPlan, FaultSpec};
        let mesh = Mesh2D::square(4);
        let plan = FaultPlan::materialize(&FaultSpec::links(0.2), 9, &mesh);
        let run = |engine: EngineSpec| {
            let cfg = NetConfig {
                lambda: 0.2,
                horizon: 2_000.0,
                warmup: 100.0,
                seed: 9,
                engine,
                ..NetConfig::default()
            };
            NetworkSim::new(mesh.clone(), GreedyXY, UniformDest, cfg)
                .with_fault_plan(plan.clone())
                .run()
        };
        let cal = run(EngineSpec::Calendar);
        assert!(cal.dropped.total() > 0, "{:?}", cal.dropped);
        assert!(cal.delivered_fraction < 1.0);
        assert!(cal.completed > 0, "some pairs must survive 20% link loss");
        for other in [run(EngineSpec::Heap), run(EngineSpec::Auto)] {
            assert_eq!(cal.avg_delay.to_bits(), other.avg_delay.to_bits());
            assert_eq!(cal.dropped, other.dropped);
            assert_eq!(cal.completed, other.completed);
            assert_eq!(cal.events_processed, other.events_processed);
        }
    }

    /// A repaired network resumes delivering: with failures confined to
    /// `[50, 250)`, more packets complete than under permanent failures.
    #[test]
    fn repairs_restore_delivery() {
        use crate::fault::{FaultPlan, FaultSpec};
        let mesh = Mesh2D::square(4);
        let cfg = NetConfig {
            lambda: 0.15,
            horizon: 4_000.0,
            warmup: 0.0,
            seed: 12,
            ..NetConfig::default()
        };
        let forever = FaultPlan::materialize(&FaultSpec::links(0.25).at(50.0), 12, &mesh);
        let transient =
            FaultPlan::materialize(&FaultSpec::links(0.25).at(50.0).repair(200.0), 12, &mesh);
        let broken = NetworkSim::new(mesh.clone(), GreedyXY, UniformDest, cfg.clone())
            .with_fault_plan(forever)
            .run();
        let healed = NetworkSim::new(mesh, GreedyXY, UniformDest, cfg)
            .with_fault_plan(transient)
            .run();
        assert!(
            healed.delivered_fraction > broken.delivered_fraction,
            "healed {} vs broken {}",
            healed.delivered_fraction,
            broken.delivered_fraction
        );
        assert!(healed.dropped.total() < broken.dropped.total());
    }

    #[test]
    fn n_sampling_produces_trajectory() {
        let mesh = Mesh2D::square(4);
        let cfg = NetConfig {
            lambda: 0.1,
            horizon: 100.0,
            warmup: 0.0,
            sample_every: Some(10.0),
            ..NetConfig::default()
        };
        let res = NetworkSim::new(mesh, GreedyXY, UniformDest, cfg).run();
        assert!(res.n_samples.len() >= 9);
        for w in res.n_samples.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
    }
}

#[cfg(test)]
mod quantile_tests {
    use super::*;
    use meshbound_routing::dest::UniformDest;
    use meshbound_routing::GreedyXY;
    use meshbound_topology::Mesh2D;

    #[test]
    fn delay_quantiles_tracked_when_enabled() {
        let mesh = Mesh2D::square(5);
        let cfg = NetConfig {
            lambda: 0.3,
            horizon: 5_000.0,
            warmup: 500.0,
            seed: 8,
            delay_quantiles: true,
            ..NetConfig::default()
        };
        let res = NetworkSim::new(mesh, GreedyXY, UniformDest, cfg).run();
        let p50 = res.delay_p50.expect("median tracked");
        let p95 = res.delay_p95.expect("p95 tracked");
        let p99 = res.delay_p99.expect("p99 tracked");
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // Mean between median and p99 for this right-skewed distribution.
        assert!(res.avg_delay >= p50 * 0.8);
        assert!(res.avg_delay <= p99);
        // Max route on a 5-mesh is 8 hops, so p50 below 8 + some queueing.
        assert!(p50 <= 12.0);
    }

    #[test]
    fn quantiles_absent_when_disabled() {
        let mesh = Mesh2D::square(4);
        let cfg = NetConfig {
            lambda: 0.1,
            horizon: 500.0,
            warmup: 0.0,
            ..NetConfig::default()
        };
        let res = NetworkSim::new(mesh, GreedyXY, UniformDest, cfg).run();
        assert!(res.delay_p50.is_none());
    }
}

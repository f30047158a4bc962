//! The packet-level FIFO network simulator (the paper's standard model and
//! its Jackson variant).
//!
//! Each directed edge is a server with its own FIFO queue and service rate.
//! Packets are generated at source nodes by Poisson processes (or in batch
//! at slot boundaries in slotted mode, §5.2), routed incrementally by a
//! [`Router`], and leave the system on reaching their destination.
//!
//! The hot loop allocates nothing per event and is driven by a selectable
//! engine ([`EngineSpec`] on [`NetConfig`]):
//!
//! * the **future-event list** is either the reference binary heap or the
//!   O(1)-amortized calendar queue (the default);
//! * **routing** calls [`Router::next_hop`] at every dequeue with a live
//!   [`LocalView`] of the switch's output queues (`QueueView`) — the
//!   per-hop `RoutingPolicy` surface under which oblivious routers recompute
//!   their Markovian next edge (Corollary 4) and adaptive turn-model routers
//!   steer around congestion — or, for deterministic routers on gated sizes,
//!   reads hops from a precomputed [`RouteTable`] together with route
//!   lengths and saturated-hop counts;
//! * **edge queues** are intrusive linked lists threaded through one shared
//!   slab (`next[pid]`), so an edge's state is two `u32` cursors and the
//!   whole network's queue storage is a single allocation;
//! * packet records live in a free-list slab.
//!
//! Engines are bit-identical by construction: every event pops in the same
//! `(time, seq)` order and every random draw happens in the same sequence,
//! so `SimResult` is invariant under the engine choice (pinned by
//! `tests/engine_equivalence.rs`).

use crate::engine::{EngineSpec, ROUTE_TABLE_MAX_NODES, STREAMING_STATS_MAX_EDGES};
use crate::events::{CalendarQueue, EventQueue, HeapQueue, LaneQueue};
use crate::fault::{ttl_budget, DropCause, DropCounts, FaultPlan};
use crate::observer::Observer;
use crate::rng::{derive_rng, exp_sample, poisson_sample};
use crate::service::ServiceKind;
use crate::telemetry::{ProbeSample, ProbeSpec, Recorder, TelemetryReport};
use meshbound_routing::dest::DestSampler;
use meshbound_routing::{LocalView, RouteOutcome, RouteTable, Router, ZeroView};
use meshbound_topology::{EdgeId, NodeId, Topology};
use rand::rngs::SmallRng;
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
    /// Materialized only up to [`STREAMING_STATS_MAX_EDGES`] edges; above
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
    /// seed, so the single-core engines must agree on it bit for bit.
    /// The sharded engine replicates its per-shard ticks and adds one
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

/// The short type name of a router (the last path segment), for
/// [`SimError::RouterStalled`].
pub(crate) fn router_name<R: ?Sized>() -> &'static str {
    let full = std::any::type_name::<R>();
    full.rsplit("::").next().unwrap_or(full)
}

/// The one [`SimError::RouterStalled`] construction site shared by every
/// engine: a packet stuck at `node` heading for `dst` under router `R`.
pub(crate) fn stall<R: ?Sized>(node: NodeId, dst: NodeId) -> SimError {
    SimError::RouterStalled {
        node,
        dst,
        router: router_name::<R>(),
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// Next external arrival at `sources[idx]`.
    Arrival(u32),
    /// Service completion at edge.
    Departure(u32),
    /// Slot boundary (slotted mode).
    Slot,
    /// Warmup boundary.
    Warmup,
    /// `N(t)` sampling tick.
    Sample,
    /// Liveness transition `k` of the run's fault plan. Scheduled only
    /// when a plan is installed, so fault-free runs process the exact
    /// pre-fault event sequence.
    Fault(u32),
    /// Telemetry probe tick. Scheduled only when probes are configured;
    /// the handler reads engine state, draws no randomness and mutates
    /// nothing, and its event count is subtracted at result assembly, so
    /// probed runs stay bit-identical to unprobed ones.
    Probe,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Packet<S> {
    pub(crate) dst: NodeId,
    pub(crate) state: S,
    pub(crate) gen_time: f64,
    /// Remaining misroute budget ([`ttl_budget`] of the route length),
    /// decremented per hop; consulted only when a fault plan is active.
    pub(crate) ttl: u32,
}

/// Sentinel for "no packet" in the intrusive edge-queue lists.
pub(crate) const NIL: u32 = u32::MAX;

/// One directed edge's server state — the hot 24 bytes touched on every
/// enqueue/departure. The FIFO queue is an intrusive linked list threaded
/// through the shared `qnext` slab (indexed by packet id), so an edge owns
/// no heap allocation — just head/tail cursors. The optional
/// queue-length-integral tracking lives in a separate cold array
/// ([`QTrack`]) so the default configuration keeps the edge array compact.
#[derive(Debug)]
pub(crate) struct EdgeState {
    /// Packet in service (when busy) and head of the waiting line.
    pub(crate) head: u32,
    /// Last packet in the line (`NIL` when empty).
    pub(crate) tail: u32,
    /// Queue length including the packet in service.
    pub(crate) qlen: u32,
    pub(crate) busy: bool,
    pub(crate) service_start: f64,
}

impl Default for EdgeState {
    fn default() -> Self {
        Self {
            head: NIL,
            tail: NIL,
            qlen: 0,
            busy: false,
            service_start: 0.0,
        }
    }
}

/// The engine's live [`LocalView`]: per-output-port queue occupancy read
/// straight off the edge-state slab. Handed to [`Router::next_hop`] at
/// every dequeue, so adaptive policies see the congestion of the instant
/// they decide in — including the effect of earlier decisions at the same
/// switch.
pub(crate) struct QueueView<'a> {
    pub(crate) edges: &'a [EdgeState],
    /// Per-edge liveness under the run's fault plan; the empty slice means
    /// "no plan" and reports every edge live at zero cost.
    pub(crate) live: &'a [bool],
}

impl LocalView for QueueView<'_> {
    #[inline]
    fn queue_len(&self, e: EdgeId) -> u32 {
        self.edges[e.index()].qlen
    }

    #[inline]
    fn is_live(&self, e: EdgeId) -> bool {
        self.live.is_empty() || self.live[e.index()]
    }
}

/// Cold per-edge tracking state: time-weighted queue-length integral and
/// its last update time (allocated only under `track_edge_queues`).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct QTrack {
    pub(crate) integral: f64,
    pub(crate) last: f64,
}

/// Accumulates an edge's queue-length integral up to `now` (post-warmup
/// clipping happens at extraction time via the warmup reset).
#[inline]
pub(crate) fn qtick(t: &mut QTrack, qlen: u32, now: f64) {
    t.integral += f64::from(qlen) * (now - t.last);
    t.last = now;
}

/// Appends `pid` to an edge's intrusive FIFO (`qnext` is the shared slab).
#[inline]
pub(crate) fn q_push(edge: &mut EdgeState, qnext: &mut Vec<u32>, pid: u32) {
    let i = pid as usize;
    if qnext.len() <= i {
        qnext.resize(i + 1, NIL);
    }
    qnext[i] = NIL;
    if edge.tail == NIL {
        edge.head = pid;
    } else {
        qnext[edge.tail as usize] = pid;
    }
    edge.tail = pid;
    edge.qlen += 1;
}

/// Removes and returns the head-of-line packet of an edge's FIFO.
#[inline]
pub(crate) fn q_pop(edge: &mut EdgeState, qnext: &[u32]) -> u32 {
    debug_assert!(edge.head != NIL, "departure from empty edge");
    let pid = edge.head;
    edge.head = qnext[pid as usize];
    if edge.head == NIL {
        edge.tail = NIL;
    }
    edge.qlen -= 1;
    pid
}

/// Little's-law delay `T = E[N] / λ` of a measurement window of length
/// `measure_time`, with `λ = generated / measure_time` the rate at which
/// packets entered the system after warmup.
///
/// The rate must count arrivals, not deliveries: `completed` misses the
/// packets still in flight at the horizon (about `λ·T` of them), so
/// dividing by the delivery rate overstates `T` by about `T / measure_time`
/// — over 10% on short runs. Zero when nothing was generated.
pub(crate) fn little_delay(time_avg_n: f64, generated: u64, measure_time: f64) -> f64 {
    let arrival_rate = generated as f64 / measure_time;
    if arrival_rate > 0.0 {
        time_avg_n / arrival_rate
    } else {
        0.0
    }
}

/// Precomputed fast-path data the `Auto` engine attaches to a run. Each
/// piece is independent: route tables are size-gated, service times only
/// exist for the deterministic distribution.
struct EngineTables {
    /// Next hop, distance and edge targets for the (deterministic)
    /// router, when the topology passes the size gate.
    routes: Option<RouteTable>,
    /// Saturated hops per `(src, dst)` pair, when `R_s` is tracked and a
    /// route table exists.
    sat_counts: Option<Vec<u32>>,
    /// Per-edge service times, when the service distribution is
    /// deterministic (saves a division per service start).
    det_service: Option<Vec<f64>>,
}

/// The deterministic service time of edge `ei`, when precomputed.
#[inline]
fn det_of(det: Option<&[f64]>, ei: usize) -> Option<f64> {
    det.map(|d| d[ei])
}

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

    /// Builds the `Auto` engine's precomputed tables. Route tables require
    /// a deterministic router and a topology under the size gate; the
    /// deterministic-service precompute applies regardless.
    fn build_tables(&self) -> EngineTables {
        // Route tables are blind to liveness, so fault runs stay on the
        // on-the-fly routing path.
        let routes = (self.fault_plan.is_empty()
            && self.router.is_route_deterministic()
            && self.topo.num_nodes() <= ROUTE_TABLE_MAX_NODES
            && RouteTable::fits(&self.topo))
        .then(|| RouteTable::build(&self.topo, &self.router));
        let sat_counts = match (&routes, self.track_saturated) {
            (Some(r), true) => Some(r.saturated_counts(&self.sat_edge)),
            _ => None,
        };
        let det_service = (self.cfg.service == ServiceKind::Deterministic)
            .then(|| self.service_rates.iter().map(|r| 1.0 / r).collect());
        EngineTables {
            routes,
            sat_counts,
            det_service,
        }
    }

    /// Runs the simulation to the horizon and returns aggregate statistics.
    ///
    /// The single-core engines named by [`NetConfig::engine`] only move
    /// wall-clock time; their returned statistics are bit-identical. The
    /// sharded engine is bit-identical per `(seed, shards)` pair and
    /// statistically equivalent to the single-core engines (see
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
        // `events_per_sec` charges the Auto engine for its table builds —
        // ev/s and wall-clock comparisons across engines stay consistent.
        let wall = Instant::now();
        let cap = 4 * self.sources.len();
        match self.cfg.engine {
            EngineSpec::Heap => self.run_with(wall, HeapQueue::with_capacity(cap), None),
            EngineSpec::Calendar => self.run_with(wall, CalendarQueue::for_simulation(cap), None),
            EngineSpec::Auto => {
                let tables = self.build_tables();
                if self.constant_service_time() {
                    // The calendar keeps about one pending arrival per
                    // source; departures ride the lane.
                    let queue = LaneQueue::for_simulation(self.sources.len());
                    self.run_with(wall, queue, Some(tables))
                } else {
                    self.run_with(wall, CalendarQueue::for_simulation(cap), Some(tables))
                }
            }
            EngineSpec::Sharded { shards } => crate::shard::run_sharded(self, wall, shards),
        }
    }

    /// Whether every service takes the same fixed time: deterministic
    /// service with one rate on every edge (the paper's unit-time model).
    /// Departures are then scheduled in time order, so the engines that
    /// precompute service times put them on a [`LaneQueue`] lane.
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

    /// The engine-generic hot loop.
    fn run_with<Q: EventQueue<Ev>>(
        self,
        wall: Instant,
        mut queue: Q,
        tables: Option<EngineTables>,
    ) -> Result<SimResult, SimError> {
        // Hoist the table views out of the loop: one flat Option each.
        let routes: Option<&RouteTable> = tables.as_ref().and_then(|t| t.routes.as_ref());
        let sat_counts: Option<&[u32]> = tables.as_ref().and_then(|t| t.sat_counts.as_deref());
        let det: Option<&[f64]> = tables.as_ref().and_then(|t| t.det_service.as_deref());
        let cfg = self.cfg.clone();
        let num_edges = self.topo.num_edges();
        let mut rng = derive_rng(cfg.seed, 0);
        let mut obs = Observer::new(num_edges, cfg.warmup);
        if cfg.delay_quantiles {
            obs.enable_delay_quantiles(1 << 16, cfg.seed ^ 0x5EED);
        }
        let mut edges: Vec<EdgeState> = (0..num_edges).map(|_| EdgeState::default()).collect();
        let mut qtrack: Vec<QTrack> = if cfg.track_edge_queues {
            vec![QTrack::default(); num_edges]
        } else {
            Vec::new()
        };
        let mut packets: Vec<Packet<R::State>> = Vec::with_capacity(1024);
        let mut qnext: Vec<u32> = Vec::with_capacity(1024);
        let mut free: Vec<u32> = Vec::new();
        // Liveness mask under the fault plan. Kept empty on healthy runs
        // so `QueueView::is_live` short-circuits and the hot loop stays
        // on the exact pre-fault path.
        let fault_active = !self.fault_plan.is_empty();
        let mut live: Vec<bool> = if fault_active {
            vec![true; num_edges]
        } else {
            Vec::new()
        };

        // Prime the event list. Zero-rate sources never get an arrival
        // event; every positive-rate source draws in list order, so the
        // uniform case consumes the RNG stream exactly as before.
        match cfg.slot {
            None => {
                for i in 0..self.sources.len() {
                    let rate = self.source_rate(i);
                    if rate > 0.0 {
                        let dt = exp_sample(&mut rng, rate);
                        queue.schedule(dt, Ev::Arrival(i as u32));
                    }
                }
            }
            Some(tau) => {
                assert!(tau > 0.0, "slot width must be positive");
                queue.schedule(tau, Ev::Slot);
            }
        }
        if cfg.warmup > 0.0 {
            queue.schedule(cfg.warmup, Ev::Warmup);
        }
        if let Some(dt) = cfg.sample_every {
            assert!(dt > 0.0);
            queue.schedule(dt, Ev::Sample);
        }
        for (k, fe) in self.fault_plan.events.iter().enumerate() {
            if fe.time <= cfg.horizon {
                queue.schedule(fe.time, Ev::Fault(k as u32));
            }
        }
        // Probe priming comes last so `probes=None` leaves the schedule
        // call sequence — and hence every event sequence number — exactly
        // as a pre-telemetry build produced it.
        let mut recorder = cfg.probes.as_ref().map(|spec| {
            let rec = Recorder::new(spec, cfg.horizon);
            queue.schedule(rec.base(), Ev::Probe);
            rec
        });

        let mut events_processed: u64 = 0;
        let mut now;
        while let Some((t, ev)) = queue.next() {
            if t > cfg.horizon {
                break;
            }
            events_processed += 1;
            now = t;
            match ev {
                Ev::Warmup => {
                    obs.reset_at_warmup();
                    if cfg.track_edge_queues {
                        for (edge, t) in edges.iter().zip(qtrack.iter_mut()) {
                            qtick(t, edge.qlen, cfg.warmup);
                            t.integral = 0.0;
                        }
                    }
                }
                Ev::Sample => {
                    obs.sample_n(now);
                    queue.schedule(now + cfg.sample_every.unwrap(), Ev::Sample);
                }
                Ev::Arrival(i) => {
                    let src = self.sources[i as usize];
                    self.inject(
                        now,
                        src,
                        &mut rng,
                        &mut obs,
                        &mut edges,
                        &live,
                        &mut qtrack,
                        &mut qnext,
                        &mut packets,
                        &mut free,
                        &mut queue,
                        routes,
                        sat_counts,
                        det,
                    )?;
                    let dt = exp_sample(&mut rng, self.source_rate(i as usize));
                    queue.schedule(now + dt, Ev::Arrival(i));
                }
                Ev::Slot => {
                    let tau = cfg.slot.unwrap();
                    for i in 0..self.sources.len() {
                        let mean = self.source_rate(i) * tau;
                        let k = poisson_sample(&mut rng, mean);
                        let src = self.sources[i];
                        for _ in 0..k {
                            self.inject(
                                now,
                                src,
                                &mut rng,
                                &mut obs,
                                &mut edges,
                                &live,
                                &mut qtrack,
                                &mut qnext,
                                &mut packets,
                                &mut free,
                                &mut queue,
                                routes,
                                sat_counts,
                                det,
                            )?;
                        }
                    }
                    queue.schedule(now + tau, Ev::Slot);
                }
                Ev::Departure(e) => {
                    let ei = e as usize;
                    if cfg.track_edge_queues {
                        qtick(&mut qtrack[ei], edges[ei].qlen, now);
                    }
                    let edge = &mut edges[ei];
                    let pid = q_pop(edge, &qnext);
                    let duration = now - edge.service_start;
                    obs.service_done(now, ei, duration, self.sat_edge[ei]);
                    edge.busy = false;
                    if edge.qlen > 0 && (live.is_empty() || live[ei]) {
                        Self::start_service(
                            edge,
                            ei,
                            now,
                            cfg.service,
                            self.service_rates[ei],
                            det_of(det, ei),
                            &mut rng,
                            &mut queue,
                        );
                    }
                    // Move the packet onward.
                    let cur = match routes {
                        Some(r) => r.edge_target(EdgeId(e)),
                        None => self.topo.edge_target(EdgeId(e)),
                    };
                    let pk = packets[pid as usize];
                    if cur == pk.dst {
                        obs.packet_exits(now, pk.gen_time, true);
                        free.push(pid);
                    } else if fault_active {
                        // Fault-aware forwarding: unroutable packets and
                        // exhausted misroute budgets become accounted
                        // drops, never run-aborting errors.
                        let decision = if pk.ttl == 0 {
                            Err(DropCause::TtlExceeded)
                        } else {
                            let view = QueueView {
                                edges: &edges,
                                live: &live,
                            };
                            match self
                                .router
                                .route_outcome(&self.topo, cur, pk.dst, pk.state, &view)
                            {
                                RouteOutcome::Forward(next) => Ok(next),
                                RouteOutcome::DeadEnd => Err(DropCause::DeadEnd),
                                RouteOutcome::LocalMinimum => Err(DropCause::LocalMinimum),
                            }
                        };
                        match decision {
                            Ok(next) => {
                                packets[pid as usize].ttl -= 1;
                                let ni = next.index();
                                Self::enqueue(
                                    &mut edges[ni],
                                    ni,
                                    pid,
                                    now,
                                    cfg.service,
                                    self.service_rates[ni],
                                    det_of(det, ni),
                                    &mut rng,
                                    &mut queue,
                                    cfg.track_edge_queues.then(|| &mut qtrack[ni]),
                                    &mut qnext,
                                );
                            }
                            Err(cause) => {
                                let remaining = self
                                    .router
                                    .remaining_hops(&self.topo, cur, pk.dst, pk.state);
                                let sat = if self.track_saturated {
                                    self.count_saturated_on_route(cur, pk.dst, pk.state)
                                } else {
                                    0
                                };
                                obs.packet_dropped(
                                    now,
                                    remaining as f64,
                                    sat as f64,
                                    pk.gen_time,
                                    cause,
                                );
                                free.push(pid);
                            }
                        }
                    } else {
                        let next = match routes {
                            Some(r) => r.next_edge(cur, pk.dst),
                            None => {
                                let view = QueueView {
                                    edges: &edges,
                                    live: &live,
                                };
                                match self
                                    .router
                                    .next_hop(&self.topo, cur, pk.dst, pk.state, &view)
                                {
                                    Some(e) => e,
                                    None => return Err(stall::<R>(cur, pk.dst)),
                                }
                            }
                        };
                        let ni = next.index();
                        Self::enqueue(
                            &mut edges[ni],
                            ni,
                            pid,
                            now,
                            cfg.service,
                            self.service_rates[ni],
                            det_of(det, ni),
                            &mut rng,
                            &mut queue,
                            cfg.track_edge_queues.then(|| &mut qtrack[ni]),
                            &mut qnext,
                        );
                    }
                }
                Ev::Fault(k) => {
                    let fe = self.fault_plan.events[k as usize];
                    let ei = fe.edge.index();
                    if fe.up {
                        live[ei] = true;
                        // Defensive: the flush below leaves at most the
                        // in-flight head queued on a dead edge, but if a
                        // packet is waiting, service must restart.
                        if edges[ei].qlen > 0 && !edges[ei].busy {
                            Self::start_service(
                                &mut edges[ei],
                                ei,
                                now,
                                cfg.service,
                                self.service_rates[ei],
                                det_of(det, ei),
                                &mut rng,
                                &mut queue,
                            );
                        }
                    } else {
                        live[ei] = false;
                        if cfg.track_edge_queues {
                            qtick(&mut qtrack[ei], edges[ei].qlen, now);
                        }
                        // The in-flight transmission (if any) finishes;
                        // everything waiting behind it drops on the spot.
                        let edge = &mut edges[ei];
                        let mut pid = if edge.busy {
                            let waiting = qnext[edge.head as usize];
                            qnext[edge.head as usize] = NIL;
                            edge.tail = edge.head;
                            edge.qlen = 1;
                            waiting
                        } else {
                            let waiting = edge.head;
                            edge.head = NIL;
                            edge.tail = NIL;
                            edge.qlen = 0;
                            waiting
                        };
                        let at = self.topo.edge_source(fe.edge);
                        while pid != NIL {
                            let next_waiting = qnext[pid as usize];
                            let pk = packets[pid as usize];
                            let remaining =
                                self.router.remaining_hops(&self.topo, at, pk.dst, pk.state);
                            let sat = if self.track_saturated {
                                self.count_saturated_on_route(at, pk.dst, pk.state)
                            } else {
                                0
                            };
                            obs.packet_dropped(
                                now,
                                remaining as f64,
                                sat as f64,
                                pk.gen_time,
                                DropCause::LinkDown,
                            );
                            free.push(pid);
                            pid = next_waiting;
                        }
                    }
                }
                Ev::Probe => {
                    let rec = recorder.as_mut().expect("probe event without recorder");
                    let spec = *rec.spec();
                    let mut sample = ProbeSample {
                        nsys: obs.n_sys.value(),
                        drops: obs.dropped.total() as f64,
                        delivered: obs.completed as f64,
                        // Engine events excluding probe ticks: this event
                        // is already counted and `rec.ticks()` holds the
                        // prior ones, so the series matches what a
                        // probes-off run would have counted at `now`.
                        events: (events_processed - rec.ticks() - 1) as f64,
                        ..ProbeSample::default()
                    };
                    if spec.maxq || spec.shards {
                        let mut maxq = 0u32;
                        let mut qmass = 0u64;
                        for e in &edges {
                            maxq = maxq.max(e.qlen);
                            qmass += u64::from(e.qlen);
                        }
                        sample.maxq = f64::from(maxq);
                        sample.qmass = qmass as f64;
                    }
                    rec.record(now, &sample);
                    crate::telemetry::emit_progress(now, cfg.horizon, sample.events as u64);
                    queue.schedule(now + rec.interval(), Ev::Probe);
                }
            }
        }

        // Close the integrals at the horizon. Probe ticks ride the event
        // list but are not engine work: subtracting them keeps
        // `events_processed` bit-identical to a probes-off run.
        if let Some(rec) = &recorder {
            events_processed -= rec.ticks();
        }
        let measure_time = (cfg.horizon - cfg.warmup).max(f64::MIN_POSITIVE);
        let time_avg_n = obs.n_sys.integral(cfg.horizon) / measure_time;
        let time_avg_r = obs.r_total.integral(cfg.horizon) / measure_time;
        let time_avg_rs = obs.rs_total.integral(cfg.horizon) / measure_time;
        let max_util = obs.edge_busy.iter().cloned().fold(0.0f64, f64::max) / measure_time;
        Ok(SimResult {
            avg_delay: obs.delay.mean(),
            delay_std_err: obs.delay.standard_error(),
            generated: obs.generated,
            completed: obs.completed,
            dropped: obs.dropped,
            delivered_fraction: if obs.generated > 0 {
                obs.completed as f64 / obs.generated as f64
            } else {
                0.0
            },
            time_avg_n,
            time_avg_r,
            time_avg_rs,
            r_ratio: if time_avg_n > 0.0 {
                time_avg_r / time_avg_n
            } else {
                0.0
            },
            rs_ratio: if time_avg_n > 0.0 {
                time_avg_rs / time_avg_n
            } else {
                0.0
            },
            little_delay: little_delay(time_avg_n, obs.generated, measure_time),
            max_edge_utilization: max_util,
            edge_throughput: if obs.edge_services.len() <= STREAMING_STATS_MAX_EDGES {
                obs.edge_services
                    .iter()
                    .map(|&c| c as f64 / measure_time)
                    .collect()
            } else {
                Vec::new()
            },
            edge_throughput_stats: {
                let mut w = meshbound_stats::Welford::new();
                for &c in &obs.edge_services {
                    w.push(c as f64 / measure_time);
                }
                EdgeThroughputStats {
                    edges: obs.edge_services.len(),
                    mean: w.mean(),
                    max: w.max(),
                    std_dev: w.sample_variance().sqrt(),
                }
            },
            final_n: obs.n_sys.value(),
            peak_n: obs.n_sys.peak(),
            measure_time,
            events_processed,
            events_per_sec: events_processed as f64 / wall.elapsed().as_secs_f64().max(1e-9),
            delay_p50: obs.delay_sample.as_ref().and_then(|r| r.quantile(0.5)),
            delay_p95: obs.delay_sample.as_ref().and_then(|r| r.quantile(0.95)),
            delay_p99: obs.delay_sample.as_ref().and_then(|r| r.quantile(0.99)),
            edge_mean_queue: cfg.track_edge_queues.then(|| {
                edges
                    .iter()
                    .zip(qtrack.iter_mut())
                    .map(|(e, t)| {
                        qtick(t, e.qlen, cfg.horizon);
                        t.integral / measure_time
                    })
                    .collect()
            }),
            n_samples: obs.n_samples.into_samples(),
            telemetry: recorder.map(Recorder::into_report),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn inject<Q: EventQueue<Ev>>(
        &self,
        now: f64,
        src: NodeId,
        rng: &mut SmallRng,
        obs: &mut Observer,
        edges: &mut [EdgeState],
        live: &[bool],
        qtrack: &mut [QTrack],
        qnext: &mut Vec<u32>,
        packets: &mut Vec<Packet<R::State>>,
        free: &mut Vec<u32>,
        queue: &mut Q,
        routes: Option<&RouteTable>,
        sat_counts: Option<&[u32]>,
        det: Option<&[f64]>,
    ) -> Result<(), SimError> {
        let dst = self.dest.sample(&self.topo, src, rng);
        if src == dst {
            if self.cfg.include_self_packets {
                obs.zero_distance_packet(now);
            }
            return Ok(());
        }
        obs.packet_generated(now);
        // Deterministic routers draw nothing here (the
        // `is_route_deterministic` contract), so the RNG stream is the
        // same with and without tables.
        let state = self.router.init_state(&self.topo, src, dst, rng);
        let (first, hops, sat) = match routes {
            Some(r) => {
                let (first, hops) = r.next_and_dist(src, dst);
                let sat = sat_counts.map_or(0, |sc| {
                    sc[src.index() * r.num_nodes() + dst.index()] as usize
                });
                (Some(first), hops, sat)
            }
            None => (
                None,
                self.router.route_len(&self.topo, src, dst, state),
                if self.track_saturated {
                    self.count_saturated_on_route(src, dst, state)
                } else {
                    0
                },
            ),
        };
        obs.packet_enters(now, hops, sat);
        let ttl = ttl_budget(hops);
        let pid = match free.pop() {
            Some(id) => {
                packets[id as usize] = Packet {
                    dst,
                    state,
                    gen_time: now,
                    ttl,
                };
                id
            }
            None => {
                packets.push(Packet {
                    dst,
                    state,
                    gen_time: now,
                    ttl,
                });
                (packets.len() - 1) as u32
            }
        };
        let first = match first {
            Some(e) => e,
            None if live.is_empty() => {
                let view = QueueView {
                    edges: &*edges,
                    live,
                };
                match self.router.next_hop(&self.topo, src, dst, state, &view) {
                    Some(e) => e,
                    None => return Err(stall::<R>(src, dst)),
                }
            }
            None => {
                // Fault-aware first hop: a source walled in by dead links
                // drops its fresh packet instead of aborting the run.
                let view = QueueView {
                    edges: &*edges,
                    live,
                };
                match self
                    .router
                    .route_outcome(&self.topo, src, dst, state, &view)
                {
                    RouteOutcome::Forward(e) => {
                        packets[pid as usize].ttl -= 1;
                        e
                    }
                    outcome => {
                        let cause = if outcome == RouteOutcome::DeadEnd {
                            DropCause::DeadEnd
                        } else {
                            DropCause::LocalMinimum
                        };
                        obs.packet_dropped(now, hops as f64, sat as f64, now, cause);
                        free.push(pid);
                        return Ok(());
                    }
                }
            }
        };
        let fi = first.index();
        Self::enqueue(
            &mut edges[fi],
            fi,
            pid,
            now,
            self.cfg.service,
            self.service_rates[fi],
            det_of(det, fi),
            rng,
            queue,
            self.cfg.track_edge_queues.then(|| &mut qtrack[fi]),
            qnext,
        );
        Ok(())
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

    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn enqueue<Q: EventQueue<Ev>>(
        edge: &mut EdgeState,
        edge_idx: usize,
        pid: u32,
        now: f64,
        service: ServiceKind,
        rate: f64,
        det: Option<f64>,
        rng: &mut SmallRng,
        queue: &mut Q,
        qt: Option<&mut QTrack>,
        qnext: &mut Vec<u32>,
    ) {
        if let Some(t) = qt {
            qtick(t, edge.qlen, now);
        }
        q_push(edge, qnext, pid);
        if !edge.busy {
            Self::start_service(edge, edge_idx, now, service, rate, det, rng, queue);
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn start_service<Q: EventQueue<Ev>>(
        edge: &mut EdgeState,
        edge_idx: usize,
        now: f64,
        service: ServiceKind,
        rate: f64,
        det: Option<f64>,
        rng: &mut SmallRng,
        queue: &mut Q,
    ) {
        debug_assert!(!edge.busy && edge.qlen > 0);
        edge.busy = true;
        edge.service_start = now;
        let dur = match det {
            Some(d) => d,
            None => service.sample(rate, rng),
        };
        queue.schedule_lane(now + dur, Ev::Departure(edge_idx as u32));
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
    /// bit-identical across the single-core engines.
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

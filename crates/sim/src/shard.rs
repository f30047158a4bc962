//! The simulator's event loop, shared by every engine.
//!
//! [`NetworkSim::try_run`] picks a shard count, an event list ([`HeapQueue`],
//! [`CalendarQueue`] or [`LaneQueue`] — all pop in the same `(time, seq)`
//! order) and whether route tables are used; this module runs the loop.
//! One shard runs on the calling thread, `N` shards on `N` threads (see
//! [`EngineSpec`]).
//!
//! # Protocol
//!
//! The topology is partitioned into contiguous node blocks
//! ([`Partition::contiguous`]); each directed edge belongs to the shard of
//! its **source** node, so every enqueue a shard performs is on an edge it
//! owns. Each shard runs the loop on its own event list, its own RNG
//! stream (`derive_rng(seed, shard)`) and its own [`Observer`], so threads
//! share nothing mutable. They share, read-only, the run's [`RouteTable`]
//! (keyed by global node id) and per-edge deterministic service times.
//!
//! Time is divided into epochs of length Δ, the **conservative lookahead**:
//! the minimum service time over cut edges (edges whose source and target
//! live on different shards). A packet crossing shard boundaries must be
//! serviced by a cut edge, which takes at least Δ, so an event executed in
//! epoch `j` can only affect other shards at times `≥ (j+1)·Δ` — each shard
//! may therefore run epoch `j` to completion without hearing from its
//! peers. Because the lookahead must be known in advance, shards > 1
//! requires [`ServiceKind::Deterministic`] service times. One shard has no
//! cut edges and runs a single unbounded epoch.
//!
//! Cross-shard transfers are *sent at service start*: when a cut edge
//! begins serving a packet at `t`, its completion time `t + 1/rate` is
//! already known, so the packet (destination, router state, generation
//! time, completion time) goes into the per-peer outbox immediately. At
//! each epoch boundary every shard sends one batch (possibly empty) to
//! every other shard over a bounded channel and then receives one from
//! every other shard — the exchange is the barrier. Received packets are
//! merged in `(time, sender, sequence)` order (a stable sort over
//! concatenated batches in fixed sender order) and scheduled as handoff
//! events, which route the packet onward from the cut edge's target node.
//!
//! # Determinism
//!
//! For a fixed `(seed, shard_count)` the result is **bit-identical across
//! reruns and thread schedules**: all cross-thread data flows through the
//! barrier exchange, whose merge order is deterministic, and everything
//! else is shard-local. The one-shard engines agree with each other bit
//! for bit whatever their event list or routing path (pinned in
//! `tests/engine_equivalence.rs`). With `shards > 1` the RNG streams
//! decompose differently, so the one-shard engines act as the
//! *statistical* oracle instead: delay, throughput and the conservation
//! ratios agree within replication noise.
//!
//! # Statistics merge
//!
//! Per-shard observers are merged in shard order after the join. Sums
//! (generated, completed, events), time integrals (`E[N]`, `E[R]`,
//! `E[R_s]` — the integral of a sum is the sum of integrals) and the
//! per-edge busy/service scatters are exact. Delay mean/variance merge via
//! [`Welford::merge`] (exact). Two quantities are approximations at
//! `shards > 1` and exact at `shards = 1`: `peak_n` reports the **sum of
//! per-shard peaks**, an upper bound on the true global peak (shards need
//! not peak simultaneously), and delay quantiles re-feed the per-shard
//! reservoir samples through a fresh reservoir, which is a uniform
//! subsample of a uniform subsample rather than of the raw stream.

use crate::engine::{EngineSpec, ROUTE_TABLE_MAX_NODES, STREAMING_STATS_MAX_EDGES};
use crate::events::{CalendarQueue, EventQueue, HeapQueue, LaneQueue};
use crate::fault::{ttl_budget, DropCause, DropCounts, FaultPlan};
use crate::network::{EdgeThroughputStats, NetworkSim, SimError, SimResult};
use crate::observer::Observer;
use crate::rng::{derive_rng, exp_sample, poisson_sample};
use crate::service::ServiceKind;
use crate::telemetry::{ProbeSample, Recorder};
use meshbound_routing::dest::DestSampler;
use meshbound_routing::{LocalView, RouteOutcome, RouteTable, Router};
use meshbound_stats::{Reservoir, Welford};
use meshbound_topology::{EdgeId, NodeId, Partition, Topology};
use rand::rngs::SmallRng;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Instant;

/// Size of the delay-quantile reservoir.
const RESERVOIR_CAPACITY: usize = 1 << 16;

/// Per-peer channel depth. One in-flight batch plus one being composed is
/// enough: the exchange is fully synchronous (every shard sends to every
/// peer, then receives from every peer, in fixed order each epoch), so no
/// sender can ever run more than one epoch ahead of a receiver.
const CHANNEL_DEPTH: usize = 2;

/// The future-event list a run uses (chosen by [`NetworkSim::try_run`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventList {
    /// [`HeapQueue`]: the reference binary heap.
    Heap,
    /// [`CalendarQueue`]: the O(1)-amortized calendar queue.
    Calendar,
    /// [`LaneQueue`]: a calendar plus a FIFO departure lane. Valid only
    /// when every service takes the same fixed time.
    Lane,
}

/// The one [`SimError::RouterStalled`] construction site: a packet stuck at
/// `node` heading for `dst` under router `R` (named by the last path
/// segment of its type).
fn stall<R: ?Sized>(node: NodeId, dst: NodeId) -> SimError {
    let full = std::any::type_name::<R>();
    SimError::RouterStalled {
        node,
        dst,
        router: full.rsplit("::").next().unwrap_or(full),
    }
}

/// A packet record in a shard's slab.
#[derive(Debug, Clone, Copy)]
struct Packet<S> {
    dst: NodeId,
    state: S,
    gen_time: f64,
    /// Remaining misroute budget ([`ttl_budget`] of the route length),
    /// decremented per hop; consulted only when a fault plan is active.
    ttl: u32,
}

/// Sentinel for "no packet" in the intrusive edge-queue lists.
const NIL: u32 = u32::MAX;

/// One directed edge's server state — the hot 24 bytes touched on every
/// enqueue/departure. The FIFO queue is an intrusive linked list threaded
/// through the shared `qnext` slab (indexed by packet id), so an edge owns
/// no heap allocation — just head/tail cursors. The optional
/// queue-length-integral tracking lives in a separate cold array
/// ([`QTrack`]) so the default configuration keeps the edge array compact.
#[derive(Debug)]
struct EdgeState {
    /// Packet in service (when busy) and head of the waiting line.
    head: u32,
    /// Last packet in the line (`NIL` when empty).
    tail: u32,
    /// Queue length including the packet in service.
    qlen: u32,
    busy: bool,
    service_start: f64,
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

/// Cold per-edge tracking state: time-weighted queue-length integral and
/// its last update time (allocated only under `track_edge_queues`).
#[derive(Debug, Clone, Copy, Default)]
struct QTrack {
    integral: f64,
    last: f64,
}

/// Accumulates an edge's queue-length integral up to `now` (post-warmup
/// clipping happens at extraction time via the warmup reset).
#[inline]
fn qtick(t: &mut QTrack, qlen: u32, now: f64) {
    t.integral += f64::from(qlen) * (now - t.last);
    t.last = now;
}

/// Appends `pid` to an edge's intrusive FIFO (`qnext` is the shared slab).
#[inline]
fn q_push(edge: &mut EdgeState, qnext: &mut Vec<u32>, pid: u32) {
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
fn q_pop(edge: &mut EdgeState, qnext: &[u32]) -> u32 {
    debug_assert!(edge.head != NIL, "departure from empty edge");
    let pid = edge.head;
    edge.head = qnext[pid as usize];
    if edge.head == NIL {
        edge.tail = NIL;
    }
    edge.qlen -= 1;
    pid
}

/// Detaches everything waiting behind the packet in service (the whole
/// line when the edge is idle) from an edge's FIFO and returns the first
/// detached packet (`NIL` if none); the rest stay chained through `qnext`.
fn q_detach_waiting(edge: &mut EdgeState, qnext: &mut [u32]) -> u32 {
    let first = if edge.busy {
        std::mem::replace(&mut qnext[edge.head as usize], NIL)
    } else {
        std::mem::replace(&mut edge.head, NIL)
    };
    edge.tail = edge.head;
    edge.qlen = u32::from(edge.busy);
    first
}

/// Little's-law delay `T = E[N] / λ` of a measurement window of length
/// `measure_time`, with `λ = generated / measure_time` the rate at which
/// packets entered the system after warmup.
///
/// The rate must count arrivals, not deliveries: `completed` misses the
/// packets still in flight at the horizon (about `λ·T` of them), so
/// dividing by the delivery rate overstates `T` by about `T / measure_time`
/// — over 10% on short runs. Zero when nothing was generated.
fn little_delay(time_avg_n: f64, generated: u64, measure_time: f64) -> f64 {
    let arrival_rate = generated as f64 / measure_time;
    if arrival_rate > 0.0 {
        time_avg_n / arrival_rate
    } else {
        0.0
    }
}

/// A packet in flight between shards: everything the receiving shard needs
/// to resume it at the cut edge's target node.
#[derive(Debug, Clone, Copy)]
struct Msg<S> {
    /// Service-completion time on the cut edge — the handoff time.
    time: f64,
    /// The cut edge's target node (where routing resumes).
    node: NodeId,
    /// The packet record, misroute budget included.
    pk: Packet<S>,
}

type Batch<S> = Vec<Msg<S>>;

/// One shard's row of outgoing channels, indexed by destination shard
/// (`None` on the diagonal — a shard never messages itself).
type TxRow<S> = Vec<Option<SyncSender<Batch<S>>>>;

/// One shard's row of incoming channels, indexed by sender shard
/// (`None` on the diagonal).
type RxRow<S> = Vec<Option<Receiver<Batch<S>>>>;

/// Event kinds. `Departure` carries the **global** edge id (service rates
/// and the saturated-edge set are indexed globally); `Arrival` carries the
/// global source index (so per-source rates stay positional).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// Next external arrival at source `idx` of the simulator's list.
    Arrival(u32),
    /// Service completion at a (globally indexed) owned edge.
    Departure(u32),
    /// A packet handed over from another shard resumes at its slab slot.
    Handoff(u32),
    /// Slot boundary (slotted mode) for this shard's sources.
    Slot,
    /// Warmup boundary.
    Warmup,
    /// `N(t)` sampling tick.
    Sample,
    /// Liveness transition `k` of the run's fault plan. Scheduled only
    /// when a plan is installed. Every shard replays the full (global)
    /// timeline so the shared liveness mask agrees everywhere; only the
    /// owning shard flushes an edge's queue.
    Fault(u32),
    /// Telemetry probe tick. Scheduled only when probes are configured.
    /// Every shard runs the identical tick schedule (same base interval,
    /// same decimation — decimation is a pure function of tick count), so
    /// per-shard recorders merge sample-by-sample after the join. The
    /// handler reads shard state, draws no randomness and mutates
    /// nothing, and its event count is subtracted at the end, so probed
    /// runs stay bit-identical to unprobed ones.
    Probe,
}

/// What every shard of a run borrows read-only: the simulator, the
/// partition and epoch schedule, and the precomputed fast-path data.
struct Shared<T, R, D>
where
    T: Topology,
    R: Router<T>,
    D: DestSampler<T>,
{
    sim: NetworkSim<T, R, D>,
    part: Partition,
    /// Epoch cutoffs ([`window_ends`]); a single `∞` without cut edges.
    windows: Vec<f64>,
    /// Each shard's sources as `(global source index, node)`, in the
    /// simulator's order (so one shard primes exactly as listed).
    sources: Vec<Vec<(u32, NodeId)>>,
    /// The event list every shard runs on.
    list: EventList,
    /// Next hop, distance and edge target per `(node, destination)`,
    /// keyed by global node id, when the run qualifies.
    routes: Option<RouteTable>,
    /// Saturated hops per `(src, dst)` pair, when `R_s` is tracked and a
    /// route table exists.
    sat_counts: Option<Vec<u32>>,
    /// Per-edge service time `1/rate` under deterministic service (saves
    /// a division per service start).
    service_time: Option<Vec<f64>>,
}

/// What one shard returns: its observer, its event count, and its
/// queue-length integrals (closed at the horizon) when tracked.
struct ShardOut {
    obs: Observer,
    events: u64,
    queue_integrals: Option<Vec<f64>>,
    /// This shard's telemetry recorder, when probes are configured.
    recorder: Option<Recorder>,
}

/// A shard's mutable world. Everything in here is owned by exactly one
/// thread; the only data leaving it mid-run are the outbox batches.
struct Local<S, Q> {
    rng: SmallRng,
    obs: Observer,
    /// Owned edges, indexed by the shard-local dense edge index.
    edges: Vec<EdgeState>,
    qtrack: Vec<QTrack>,
    /// Packet records in a free-list slab.
    packets: Vec<Packet<S>>,
    /// Resume node for packets delivered by `Ev::Handoff`, parallel to
    /// `packets`.
    hand_node: Vec<NodeId>,
    /// The edge FIFOs: intrusive linked lists threaded through this one
    /// slab (indexed by packet id), so an edge owns no allocation.
    qnext: Vec<u32>,
    free: Vec<u32>,
    queue: Q,
    /// Per-peer outgoing packets, flushed at each epoch boundary.
    outboxes: Vec<Batch<S>>,
    /// Whether each owned (local-indexed) edge crosses into another shard;
    /// empty when none does (always for a single shard), so the hot loop
    /// skips the lookup.
    is_cut: Vec<bool>,
    /// For cut edges: the target node and the shard that owns it.
    cut_to: Vec<(NodeId, u32)>,
    /// Per-edge liveness (**global** indexing) under the run's fault
    /// plan; empty on healthy runs, keeping the hot loop on the exact
    /// pre-fault path.
    live: Vec<bool>,
}

/// The [`LocalView`] handed to [`Router::next_hop`] at every dequeue:
/// per-output-port queue occupancy read straight off one shard's owned
/// edges, so adaptive policies see the congestion of the instant they
/// decide in. Out-edges belong to their source's shard, so every edge an
/// adaptive router inspects at a node this shard owns is in the shard's
/// dense `edges` slab — `edge_local` maps the global id down to it.
struct ShardView<'a> {
    edges: &'a [EdgeState],
    part: &'a Partition,
    /// Global liveness mask (empty = every edge live).
    live: &'a [bool],
}

impl LocalView for ShardView<'_> {
    #[inline]
    fn queue_len(&self, e: EdgeId) -> u32 {
        self.edges[self.part.edge_local(e)].qlen
    }

    #[inline]
    fn is_live(&self, e: EdgeId) -> bool {
        self.live.is_empty() || self.live[e.index()]
    }
}

// The per-event helpers are forced inline: a call that takes `&mut Local`
// keeps the whole shard state in memory, and the loop then reloads every
// slab's pointer and length after each store (about 10% on the Table-I
// mesh).
impl<S: Copy, Q: EventQueue<Ev>> Local<S, Q> {
    /// Allocates a packet slot from the free list (or grows the slab);
    /// `hand_node` grows in lockstep.
    #[inline]
    fn alloc(&mut self, pk: Packet<S>) -> u32 {
        match self.free.pop() {
            Some(id) => {
                self.packets[id as usize] = pk;
                id
            }
            None => {
                self.packets.push(pk);
                self.hand_node.push(NodeId(0));
                (self.packets.len() - 1) as u32
            }
        }
    }

    /// Starts service on owned edge `le` (global id `ge`). If the edge is
    /// a cut edge, the packet's handoff is emitted to the target shard's
    /// outbox *now* — its completion time is already determined, and it
    /// is `≥` the next epoch boundary by the lookahead invariant.
    #[inline(always)]
    fn start_service<T, R, D>(&mut self, run: &Shared<T, R, D>, le: usize, ge: u32, now: f64)
    where
        T: Topology,
        R: Router<T, State = S>,
        D: DestSampler<T>,
    {
        let edge = &mut self.edges[le];
        debug_assert!(!edge.busy && edge.qlen > 0);
        edge.busy = true;
        edge.service_start = now;
        let ei = ge as usize;
        let dur = match &run.service_time {
            Some(d) => d[ei],
            None => run
                .sim
                .cfg
                .service
                .sample(run.sim.service_rates[ei], &mut self.rng),
        };
        let done = now + dur;
        self.queue.schedule_lane(done, Ev::Departure(ge));
        if !self.is_cut.is_empty() && self.is_cut[le] {
            let pk = self.packets[self.edges[le].head as usize];
            let (node, to) = self.cut_to[le];
            self.outboxes[to as usize].push(Msg {
                time: done,
                node,
                pk,
            });
        }
    }

    /// Appends `pid` to edge `e`'s FIFO and starts service if the edge is
    /// idle. `e` is always owned by this shard.
    #[inline(always)]
    fn enqueue<T, R, D>(&mut self, run: &Shared<T, R, D>, e: EdgeId, pid: u32, now: f64)
    where
        T: Topology,
        R: Router<T, State = S>,
        D: DestSampler<T>,
    {
        let le = run.part.edge_local(e);
        if run.sim.cfg.track_edge_queues {
            qtick(&mut self.qtrack[le], self.edges[le].qlen, now);
        }
        q_push(&mut self.edges[le], &mut self.qnext, pid);
        if !self.edges[le].busy {
            self.start_service(run, le, e.0, now);
        }
    }

    /// Drops the packet in slot `pid` at node `at`: unwind the integrals
    /// by the remaining work, tally the cause, recycle the slot.
    #[cold]
    #[inline(never)]
    fn drop_packet<T, R, D>(
        &mut self,
        run: &Shared<T, R, D>,
        now: f64,
        at: NodeId,
        pid: u32,
        cause: DropCause,
    ) where
        T: Topology,
        R: Router<T, State = S>,
        D: DestSampler<T>,
    {
        let sim = &run.sim;
        let pk = self.packets[pid as usize];
        let remaining = sim.router.remaining_hops(&sim.topo, at, pk.dst, pk.state);
        let sat = if sim.track_saturated {
            sim.count_saturated_on_route(at, pk.dst, pk.state)
        } else {
            0
        };
        self.obs
            .packet_dropped(now, remaining as f64, sat as f64, pk.gen_time, cause);
        self.free.push(pid);
    }

    /// Generates one packet at `src` and sends it towards its first hop.
    #[inline(always)]
    fn inject<T, R, D>(
        &mut self,
        run: &Shared<T, R, D>,
        now: f64,
        src: NodeId,
    ) -> Result<(), SimError>
    where
        T: Topology,
        R: Router<T, State = S>,
        D: DestSampler<T>,
    {
        let sim = &run.sim;
        let dst = sim.dest.sample(&sim.topo, src, &mut self.rng);
        if src == dst {
            if sim.cfg.include_self_packets {
                self.obs.zero_distance_packet(now);
            }
            return Ok(());
        }
        self.obs.packet_generated(now);
        // Deterministic routers draw nothing here (the
        // `is_route_deterministic` contract), so the RNG stream is the
        // same with and without route tables.
        let state = sim.router.init_state(&sim.topo, src, dst, &mut self.rng);
        let (hops, sat) = match &run.routes {
            Some(r) => {
                let sat = run.sat_counts.as_ref().map_or(0, |sc| {
                    sc[src.index() * r.num_nodes() + dst.index()] as usize
                });
                (r.next_and_dist(src, dst).1, sat)
            }
            None => (
                sim.router.route_len(&sim.topo, src, dst, state),
                if sim.track_saturated {
                    sim.count_saturated_on_route(src, dst, state)
                } else {
                    0
                },
            ),
        };
        self.obs.packet_enters(now, hops, sat);
        let pid = self.alloc(Packet {
            dst,
            state,
            gen_time: now,
            ttl: ttl_budget(hops),
        });
        self.forward(run, now, src, pid)
    }

    /// Moves a packet onward from `cur` (its source, for a fresh packet):
    /// exit if delivered, otherwise enqueue on the next edge. The next
    /// edge is always shard-local — out-edges belong to their source's
    /// shard, and `cur` is on this shard whenever this is called.
    #[inline(always)]
    fn forward<T, R, D>(
        &mut self,
        run: &Shared<T, R, D>,
        now: f64,
        cur: NodeId,
        pid: u32,
    ) -> Result<(), SimError>
    where
        T: Topology,
        R: Router<T, State = S>,
        D: DestSampler<T>,
    {
        let sim = &run.sim;
        let pk = self.packets[pid as usize];
        if cur == pk.dst {
            self.obs.packet_exits(now, pk.gen_time, true);
            self.free.push(pid);
            return Ok(());
        }
        let next = if let Some(r) = &run.routes {
            r.next_edge(cur, pk.dst)
        } else {
            let view = ShardView {
                edges: &self.edges,
                part: &run.part,
                live: &self.live,
            };
            if self.live.is_empty() {
                match sim.router.next_hop(&sim.topo, cur, pk.dst, pk.state, &view) {
                    Some(e) => e,
                    None => return Err(stall::<R>(cur, pk.dst)),
                }
            } else if pk.ttl == 0 {
                // Fault-aware forwarding: unroutable packets (a walled-in
                // source's fresh one included) and exhausted misroute
                // budgets become accounted drops, never run-aborting
                // errors. A fresh packet's budget is never zero.
                self.drop_packet(run, now, cur, pid, DropCause::TtlExceeded);
                return Ok(());
            } else {
                match sim
                    .router
                    .route_outcome(&sim.topo, cur, pk.dst, pk.state, &view)
                {
                    RouteOutcome::Forward(e) => {
                        self.packets[pid as usize].ttl -= 1;
                        e
                    }
                    outcome => {
                        self.drop_packet(run, now, cur, pid, drop_cause(outcome));
                        return Ok(());
                    }
                }
            }
        };
        self.enqueue(run, next, pid, now);
        Ok(())
    }
}

/// The drop cause of a routing outcome that did not forward.
fn drop_cause(outcome: RouteOutcome) -> DropCause {
    if outcome == RouteOutcome::DeadEnd {
        DropCause::DeadEnd
    } else {
        DropCause::LocalMinimum
    }
}

/// Runs `sim` over `shards` node shards on `list`, with route tables
/// where `route_tables` is set and the run qualifies, and merges the
/// per-shard statistics into one [`SimResult`]. One shard runs on the
/// calling thread; more spawn one thread each.
///
/// # Errors
///
/// [`SimError::UnsupportedConfig`] when `shards > 1` produces cut edges
/// under a non-deterministic service distribution (no finite lookahead
/// exists); shard-local [`SimError`]s are collected through the barrier
/// protocol rather than unwinding across worker threads.
///
/// # Panics
///
/// Panics only when a shard thread itself panics (the panic is
/// propagated).
pub(crate) fn run<T, R, D>(
    sim: NetworkSim<T, R, D>,
    wall: Instant,
    shards: usize,
    list: EventList,
    route_tables: bool,
) -> Result<SimResult, SimError>
where
    T: Topology + Sync,
    R: Router<T> + Sync,
    D: DestSampler<T> + Sync,
{
    let part = Partition::contiguous(&sim.topo, shards);
    let k = part.shards();
    if !part.cut_edges().is_empty() && sim.cfg.service != ServiceKind::Deterministic {
        return Err(SimError::UnsupportedConfig {
            reason: "the sharded engine requires deterministic service times when shards > 1: \
                     the conservative lookahead is the minimum cut-edge service time, which \
                     only exists when service times are bounded below"
                .into(),
        });
    }
    // Epoch `j` covers event times `[w_j, w_{j+1})` where the window ends
    // come from the fault-aware lookahead schedule; the final epoch is
    // unbounded and terminates on the horizon. All handoffs emitted
    // during the final epoch would land past the horizon (their send time
    // is within Δ of it), so it needs no exchange.
    let windows = if part.cut_edges().is_empty() {
        // No cross-shard traffic (one shard): one unbounded epoch, no
        // barriers, whatever the fault plan says.
        vec![f64::INFINITY]
    } else {
        window_ends(
            part.cut_edges(),
            &sim.service_rates,
            &sim.fault_plan,
            sim.cfg.horizon,
        )
    };
    // Route tables are blind to liveness, so fault runs stay on the
    // on-the-fly routing path.
    let routes = (route_tables
        && sim.fault_plan.is_empty()
        && sim.router.is_route_deterministic()
        && sim.topo.num_nodes() <= ROUTE_TABLE_MAX_NODES
        && RouteTable::fits(&sim.topo))
    .then(|| RouteTable::build(&sim.topo, &sim.router));
    let sat_counts = match &routes {
        Some(r) if sim.track_saturated => Some(r.saturated_counts(&sim.sat_edge)),
        _ => None,
    };
    let service_time = (sim.cfg.service == ServiceKind::Deterministic)
        .then(|| sim.service_rates.iter().map(|r| 1.0 / r).collect());

    // The global source index rides along for positional rate lookup.
    let mut sources: Vec<Vec<(u32, NodeId)>> = vec![Vec::new(); k];
    for (i, &src) in sim.sources.iter().enumerate() {
        sources[part.node_shard(src)].push((i as u32, src));
    }

    let shared = Shared {
        sim,
        part,
        windows,
        sources,
        list,
        routes,
        sat_counts,
        service_time,
    };
    let results: Vec<Result<ShardOut, Option<SimError>>> = if k == 1 {
        vec![run_shard(&shared, 0, &[], &[])]
    } else {
        // The full k×k channel mesh. `txs[from][to]` / `rxs[to][from]`;
        // the diagonal stays `None`.
        let mut txs: Vec<TxRow<R::State>> =
            (0..k).map(|_| (0..k).map(|_| None).collect()).collect();
        let mut rxs: Vec<RxRow<R::State>> =
            (0..k).map(|_| (0..k).map(|_| None).collect()).collect();
        for from in 0..k {
            for to in (0..k).filter(|&to| to != from) {
                let (tx, rx) = sync_channel(CHANNEL_DEPTH);
                txs[from][to] = Some(tx);
                rxs[to][from] = Some(rx);
            }
        }
        let shared = &shared;
        std::thread::scope(|scope| {
            let handles: Vec<_> = txs
                .into_iter()
                .zip(rxs)
                .enumerate()
                .map(|(me, (tx_row, rx_row))| {
                    scope.spawn(move || run_shard(shared, me, &tx_row, &rx_row))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    // A shard panicked; its channels dropped on unwind, so
                    // the peers have already bailed out. Re-raise the panic.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    };

    let mut outs: Vec<ShardOut> = Vec::with_capacity(k);
    for r in results {
        match r {
            Ok(o) => outs.push(o),
            // The first real error in shard order wins.
            Err(Some(e)) => return Err(e),
            // Peer-died sentinel: some other shard carries the real error.
            Err(None) => {}
        }
    }
    assert_eq!(outs.len(), k, "a shard aborted without reporting an error");

    Ok(merge(&shared, outs, wall))
}

/// Runs shard `me` on a fresh event list of the run's kind, sized for its
/// source count.
fn run_shard<T, R, D>(
    run: &Shared<T, R, D>,
    me: usize,
    tx: &[Option<SyncSender<Batch<R::State>>>],
    rx: &[Option<Receiver<Batch<R::State>>>],
) -> Result<ShardOut, Option<SimError>>
where
    T: Topology,
    R: Router<T>,
    D: DestSampler<T>,
{
    let n = run.sources[me].len().max(1);
    match run.list {
        EventList::Heap => shard_loop(run, me, tx, rx, HeapQueue::with_capacity(4 * n)),
        EventList::Calendar => shard_loop(run, me, tx, rx, CalendarQueue::for_simulation(4 * n)),
        // Departures ride the lane; the calendar keeps about one pending
        // arrival per source.
        EventList::Lane => shard_loop(run, me, tx, rx, LaneQueue::for_simulation(n)),
    }
}

/// The epoch cutoffs of the conservative window protocol, fault-aware.
///
/// Each window's lookahead Δ is the minimum service time over the cut
/// edges **live during that window** (a dead edge starts no service, so
/// it cannot emit a handoff), and windows never straddle a fault event —
/// liveness transitions land exactly on epoch boundaries, where every
/// shard recomputes the same Δ from the same plan. The final entry is
/// `∞`: the last epoch runs to the horizon without a barrier.
fn window_ends(cut: &[EdgeId], service_rates: &[f64], plan: &FaultPlan, horizon: f64) -> Vec<f64> {
    let cut_set: std::collections::HashSet<EdgeId> = cut.iter().copied().collect();
    let mut dead: std::collections::HashSet<EdgeId> = std::collections::HashSet::new();
    let mut ends = Vec::new();
    let mut start = 0.0f64;
    let mut idx = 0;
    loop {
        // Apply every transition at or before the window start; what's
        // left of the plan is strictly inside or past this window.
        while idx < plan.events.len() && plan.events[idx].time <= start {
            let fe = &plan.events[idx];
            if cut_set.contains(&fe.edge) {
                if fe.up {
                    dead.remove(&fe.edge);
                } else {
                    dead.insert(fe.edge);
                }
            }
            idx += 1;
        }
        let delta = cut
            .iter()
            .filter(|e| !dead.contains(e))
            .map(|e| 1.0 / service_rates[e.index()])
            .fold(f64::INFINITY, f64::min);
        let next_fault = plan.events.get(idx).map_or(f64::INFINITY, |fe| fe.time);
        let end = (start + delta).min(next_fault);
        if !end.is_finite() || end > horizon {
            ends.push(f64::INFINITY);
            return ends;
        }
        ends.push(end);
        start = end;
    }
}

/// One shard's run: the event loop windowed into epochs, with a batch
/// exchange at each epoch boundary. Returns `Err(None)` when a peer
/// disappears mid-run (its own error is reported from its thread) and
/// `Err(Some(_))` for this shard's own structural failures.
fn shard_loop<T, R, D, Q>(
    run: &Shared<T, R, D>,
    me: usize,
    tx_row: &[Option<SyncSender<Batch<R::State>>>],
    rx_row: &[Option<Receiver<Batch<R::State>>>],
    queue: Q,
) -> Result<ShardOut, Option<SimError>>
where
    T: Topology,
    R: Router<T>,
    D: DestSampler<T>,
    Q: EventQueue<Ev>,
{
    let sim = &run.sim;
    let part = &run.part;
    let cfg = &sim.cfg;
    let sources = &run.sources[me];
    let k = part.shards();
    let local_edges = part.shard_edge_count(me);

    let owns_cut = part.cut_edges().iter().any(|&e| part.edge_shard(e) == me);
    let (mut is_cut, mut cut_to) = if owns_cut {
        (
            vec![false; local_edges],
            vec![(NodeId(0), 0u32); local_edges],
        )
    } else {
        (Vec::new(), Vec::new())
    };
    for &e in part.cut_edges() {
        if part.edge_shard(e) == me {
            let le = part.edge_local(e);
            let tgt = sim.topo.edge_target(e);
            is_cut[le] = true;
            cut_to[le] = (tgt, part.node_shard(tgt) as u32);
        }
    }

    let mut obs = Observer::new(local_edges, cfg.warmup);
    if cfg.delay_quantiles {
        obs.enable_delay_quantiles(RESERVOIR_CAPACITY, cfg.seed ^ 0x5EED);
    }
    let mut local = Local {
        rng: derive_rng(cfg.seed, me as u64),
        obs,
        edges: (0..local_edges).map(|_| EdgeState::default()).collect(),
        qtrack: if cfg.track_edge_queues {
            vec![QTrack::default(); local_edges]
        } else {
            Vec::new()
        },
        packets: Vec::with_capacity(1024),
        hand_node: Vec::with_capacity(1024),
        qnext: Vec::with_capacity(1024),
        free: Vec::new(),
        queue,
        outboxes: (0..k).map(|_| Vec::new()).collect(),
        is_cut,
        cut_to,
        live: if sim.fault_plan.is_empty() {
            Vec::new()
        } else {
            vec![true; sim.topo.num_edges()]
        },
    };

    // Prime the event list. Zero-rate sources never get an arrival event;
    // every positive-rate source draws in list order.
    match cfg.slot {
        None => {
            for &(gi, _) in sources {
                let rate = sim.source_rate(gi as usize);
                if rate > 0.0 {
                    let dt = exp_sample(&mut local.rng, rate);
                    local.queue.schedule(dt, Ev::Arrival(gi));
                }
            }
        }
        Some(tau) => {
            assert!(tau > 0.0, "slot width must be positive");
            local.queue.schedule(tau, Ev::Slot);
        }
    }
    if cfg.warmup > 0.0 {
        local.queue.schedule(cfg.warmup, Ev::Warmup);
    }
    if let Some(dt) = cfg.sample_every {
        assert!(dt > 0.0);
        local.queue.schedule(dt, Ev::Sample);
    }
    for (fk, fe) in sim.fault_plan.events.iter().enumerate() {
        if fe.time <= cfg.horizon {
            local.queue.schedule(fe.time, Ev::Fault(fk as u32));
        }
    }
    // Probe priming comes last so `probes=None` leaves the schedule call
    // sequence — and hence every event sequence number — exactly as a
    // pre-telemetry build produced it. Only the sharded engine reports
    // per-shard handoff (`cut`) series.
    let mut recorder = cfg.probes.as_ref().map(|spec| {
        let rec = if matches!(cfg.engine, EngineSpec::Sharded { .. }) {
            Recorder::for_shard(spec, cfg.horizon, me)
        } else {
            Recorder::new(spec, cfg.horizon)
        };
        local.queue.schedule(rec.base(), Ev::Probe);
        rec
    });

    let mut events: u64 = 0;
    let mut cut_handoffs: u64 = 0;
    'run: for (wi, &cutoff) in run.windows.iter().enumerate() {
        let last = wi + 1 == run.windows.len();
        while let Some((t, ev)) = local.queue.next() {
            if t >= cutoff {
                // Not ours to run yet: push it back (it re-enters the
                // queue — the calendar, even for a lane departure — with
                // a fresh sequence number, which is fine: any same-time
                // peer it could tie with is also past the cutoff) and
                // close the epoch.
                local.queue.schedule(t, ev);
                break;
            }
            if t > cfg.horizon {
                break 'run;
            }
            events += 1;
            let now = t;
            match ev {
                Ev::Warmup => {
                    local.obs.reset_at_warmup();
                    if cfg.track_edge_queues {
                        for (edge, tq) in local.edges.iter().zip(local.qtrack.iter_mut()) {
                            qtick(tq, edge.qlen, cfg.warmup);
                            tq.integral = 0.0;
                        }
                    }
                }
                Ev::Sample => {
                    local.obs.sample_n(now);
                    local
                        .queue
                        .schedule(now + cfg.sample_every.unwrap(), Ev::Sample);
                }
                Ev::Arrival(gi) => {
                    let src = sim.sources[gi as usize];
                    local.inject(run, now, src).map_err(Some)?;
                    let dt = exp_sample(&mut local.rng, sim.source_rate(gi as usize));
                    local.queue.schedule(now + dt, Ev::Arrival(gi));
                }
                Ev::Slot => {
                    let tau = cfg.slot.unwrap();
                    for &(gi, src) in sources {
                        let mean = sim.source_rate(gi as usize) * tau;
                        let batch = poisson_sample(&mut local.rng, mean);
                        for _ in 0..batch {
                            local.inject(run, now, src).map_err(Some)?;
                        }
                    }
                    local.queue.schedule(now + tau, Ev::Slot);
                }
                Ev::Departure(ge) => {
                    let ei = ge as usize;
                    let le = part.edge_local(EdgeId(ge));
                    if cfg.track_edge_queues {
                        qtick(&mut local.qtrack[le], local.edges[le].qlen, now);
                    }
                    let edge = &mut local.edges[le];
                    let pid = q_pop(edge, &local.qnext);
                    let duration = now - edge.service_start;
                    local.obs.service_done(now, le, duration, sim.sat_edge[ei]);
                    local.edges[le].busy = false;
                    if local.edges[le].qlen > 0 && (local.live.is_empty() || local.live[ei]) {
                        local.start_service(run, le, ge, now);
                    }
                    if !local.is_cut.is_empty() && local.is_cut[le] {
                        // The packet was already emitted to the target
                        // shard at service start; its slot is free again.
                        local.free.push(pid);
                    } else {
                        let cur = match &run.routes {
                            Some(r) => r.edge_target(EdgeId(ge)),
                            None => sim.topo.edge_target(EdgeId(ge)),
                        };
                        local.forward(run, now, cur, pid).map_err(Some)?;
                    }
                }
                Ev::Handoff(pid) => {
                    cut_handoffs += 1;
                    let cur = local.hand_node[pid as usize];
                    local.forward(run, now, cur, pid).map_err(Some)?;
                }
                Ev::Fault(fk) => {
                    let fe = sim.fault_plan.events[fk as usize];
                    let gi = fe.edge.index();
                    if fe.up {
                        local.live[gi] = true;
                        if part.edge_shard(fe.edge) == me {
                            let le = part.edge_local(fe.edge);
                            // Defensive: the flush below leaves at most
                            // the in-flight head queued on a dead edge,
                            // but if a packet is waiting, service must
                            // restart.
                            if local.edges[le].qlen > 0 && !local.edges[le].busy {
                                local.start_service(run, le, gi as u32, now);
                            }
                        }
                    } else {
                        local.live[gi] = false;
                        if part.edge_shard(fe.edge) == me {
                            let le = part.edge_local(fe.edge);
                            if cfg.track_edge_queues {
                                qtick(&mut local.qtrack[le], local.edges[le].qlen, now);
                            }
                            // The in-flight transmission (if any) finishes;
                            // everything waiting behind it drops here.
                            let mut pid = q_detach_waiting(&mut local.edges[le], &mut local.qnext);
                            let at = sim.topo.edge_source(fe.edge);
                            while pid != NIL {
                                let next_waiting = local.qnext[pid as usize];
                                local.drop_packet(run, now, at, pid, DropCause::LinkDown);
                                pid = next_waiting;
                            }
                        }
                    }
                }
                Ev::Probe => {
                    let rec = recorder.as_mut().expect("probe event without recorder");
                    let spec = *rec.spec();
                    let mut sample = ProbeSample {
                        nsys: local.obs.n_sys.value(),
                        drops: local.obs.dropped.total() as f64,
                        delivered: local.obs.completed as f64,
                        // Engine events excluding probe ticks: this event
                        // is counted and `rec.ticks()` holds the prior
                        // ones, matching what a probes-off shard counts.
                        events: (events - rec.ticks() - 1) as f64,
                        cut: cut_handoffs as f64,
                        ..ProbeSample::default()
                    };
                    if spec.maxq || spec.shards {
                        let mut maxq = 0u32;
                        let mut qmass = 0u64;
                        for e in &local.edges {
                            maxq = maxq.max(e.qlen);
                            qmass += u64::from(e.qlen);
                        }
                        sample.maxq = f64::from(maxq);
                        sample.qmass = qmass as f64;
                    }
                    rec.record(now, &sample);
                    if me == 0 {
                        // One writer only: shard 0 speaks for the run (its
                        // event count, the shared clock).
                        crate::telemetry::emit_progress(now, cfg.horizon, sample.events as u64);
                    }
                    local.queue.schedule(now + rec.interval(), Ev::Probe);
                }
            }
        }
        if last {
            break;
        }

        // Barrier: flush every outbox, then drain every peer, in fixed
        // order. A closed channel means a peer died on its own error —
        // bail with the sentinel so the join loop reports theirs.
        for (to, tx) in tx_row.iter().enumerate() {
            if let Some(tx) = tx {
                let batch = std::mem::take(&mut local.outboxes[to]);
                if tx.send(batch).is_err() {
                    return Err(None);
                }
            }
        }
        let mut incoming: Batch<R::State> = Vec::new();
        for rx in rx_row.iter().flatten() {
            match rx.recv() {
                Ok(batch) => incoming.extend(batch),
                Err(_) => return Err(None),
            }
        }
        // Stable sort on time: ties keep (sender, emission) order, which
        // is identical on every rerun.
        incoming.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("no NaN handoff times"));
        for m in incoming {
            let pid = local.alloc(m.pk);
            local.hand_node[pid as usize] = m.node;
            local.queue.schedule(m.time, Ev::Handoff(pid));
        }
    }

    let queue_integrals = cfg.track_edge_queues.then(|| {
        local
            .edges
            .iter()
            .zip(local.qtrack.iter_mut())
            .map(|(e, tq)| {
                qtick(tq, e.qlen, cfg.horizon);
                tq.integral
            })
            .collect()
    });
    // Probe ticks rode this shard's event list but are not engine work:
    // subtracting keeps the event count bit-identical to probes-off.
    if let Some(rec) = &recorder {
        events -= rec.ticks();
    }
    Ok(ShardOut {
        obs: local.obs,
        events,
        queue_integrals,
        recorder,
    })
}

/// Merges per-shard outputs into one [`SimResult`]. Every sum starts from
/// zero and adds the shards in order, so one shard passes through exactly.
fn merge<T, R, D>(run: &Shared<T, R, D>, mut outs: Vec<ShardOut>, wall: Instant) -> SimResult
where
    T: Topology,
    R: Router<T>,
    D: DestSampler<T>,
{
    let cfg = &run.sim.cfg;
    let part = &run.part;
    let measure_time = (cfg.horizon - cfg.warmup).max(f64::MIN_POSITIVE);
    // Per-shard telemetry recorders merge deterministically in shard
    // order: all shards ran the identical probe tick schedule, so shared
    // series combine sample-by-sample (sum/max) and per-shard series
    // concatenate.
    let recorders: Vec<Recorder> = outs.iter_mut().filter_map(|o| o.recorder.take()).collect();
    let telemetry = (!recorders.is_empty()).then(|| Recorder::merge(recorders).into_report());

    let mut delay = Welford::new();
    let mut n_integral = 0.0;
    let mut r_integral = 0.0;
    let mut rs_integral = 0.0;
    let mut final_n = 0.0;
    let mut peak_n = 0.0;
    let mut generated = 0u64;
    let mut completed = 0u64;
    let mut dropped = DropCounts::default();
    let mut events_processed = 0u64;
    for o in &outs {
        delay.merge(&o.obs.delay);
        n_integral += o.obs.n_sys.integral(cfg.horizon);
        r_integral += o.obs.r_total.integral(cfg.horizon);
        rs_integral += o.obs.rs_total.integral(cfg.horizon);
        final_n += o.obs.n_sys.value();
        peak_n += o.obs.n_sys.peak();
        generated += o.obs.generated;
        completed += o.obs.completed;
        dropped.merge(&o.obs.dropped);
        events_processed += o.events;
    }
    let time_avg_n = n_integral / measure_time;
    let time_avg_r = r_integral / measure_time;
    let time_avg_rs = rs_integral / measure_time;

    // Scatter the shard-local per-edge tallies back to global indexing.
    let num_edges = run.sim.topo.num_edges();
    let mut edge_busy = vec![0.0f64; num_edges];
    let mut edge_services = vec![0u64; num_edges];
    for ei in 0..num_edges {
        let e = EdgeId(ei as u32);
        let o = &outs[part.edge_shard(e)];
        let le = part.edge_local(e);
        edge_busy[ei] = o.obs.edge_busy[le];
        edge_services[ei] = o.obs.edge_services[le];
    }
    let max_util = edge_busy.iter().cloned().fold(0.0f64, f64::max) / measure_time;

    // `N(t)` sampling ticks fire at identical times on every shard, and
    // the flight-recorder decimation is a pure function of the tick
    // count, so every shard retains the identical tick set and the
    // trajectories zip elementwise.
    let mut n_series = outs[0].obs.n_samples.clone();
    for o in &outs[1..] {
        n_series.combine_values(&o.obs.n_samples, |a, b| a + b);
    }
    let n_samples = n_series.into_samples();

    let quantiles = cfg.delay_quantiles.then(|| {
        let mut merged = Reservoir::new(RESERVOIR_CAPACITY, cfg.seed ^ 0x5EED);
        let shard_samples = outs.iter().filter_map(|o| o.obs.delay_sample.as_ref());
        for &x in shard_samples.flat_map(Reservoir::samples) {
            merged.push(x);
        }
        merged
    });

    let edge_mean_queue = cfg.track_edge_queues.then(|| {
        (0..num_edges)
            .map(|ei| {
                let e = EdgeId(ei as u32);
                let integrals = outs[part.edge_shard(e)]
                    .queue_integrals
                    .as_ref()
                    .expect("queue integrals tracked on every shard");
                integrals[part.edge_local(e)] / measure_time
            })
            .collect()
    });

    SimResult {
        avg_delay: delay.mean(),
        delay_std_err: delay.standard_error(),
        generated,
        completed,
        dropped,
        delivered_fraction: ratio(completed as f64, generated as f64),
        time_avg_n,
        time_avg_r,
        time_avg_rs,
        r_ratio: ratio(time_avg_r, time_avg_n),
        rs_ratio: ratio(time_avg_rs, time_avg_n),
        little_delay: little_delay(time_avg_n, generated, measure_time),
        max_edge_utilization: max_util,
        edge_throughput: if num_edges <= STREAMING_STATS_MAX_EDGES {
            edge_services
                .iter()
                .map(|&c| c as f64 / measure_time)
                .collect()
        } else {
            Vec::new()
        },
        edge_throughput_stats: {
            let mut w = Welford::new();
            for &c in &edge_services {
                w.push(c as f64 / measure_time);
            }
            EdgeThroughputStats {
                edges: num_edges,
                mean: w.mean(),
                max: w.max(),
                std_dev: w.sample_variance().sqrt(),
            }
        },
        final_n,
        peak_n,
        measure_time,
        events_processed,
        events_per_sec: events_processed as f64 / wall.elapsed().as_secs_f64().max(1e-9),
        delay_p50: quantiles.as_ref().and_then(|r| r.quantile(0.5)),
        delay_p95: quantiles.as_ref().and_then(|r| r.quantile(0.95)),
        delay_p99: quantiles.as_ref().and_then(|r| r.quantile(0.99)),
        edge_mean_queue,
        n_samples,
        telemetry,
    }
}

/// `num / den`, or zero when `den` is not positive.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::EngineSpec;
    use crate::network::{NetConfig, NetworkSim, SimResult};
    use crate::service::ServiceKind;
    use meshbound_routing::dest::UniformDest;
    use meshbound_routing::GreedyXY;
    use meshbound_topology::Mesh2D;

    fn run(engine: EngineSpec) -> SimResult {
        let cfg = NetConfig {
            lambda: 0.15,
            horizon: 800.0,
            warmup: 80.0,
            seed: 9,
            delay_quantiles: true,
            track_edge_queues: true,
            sample_every: Some(40.0),
            engine,
            ..NetConfig::default()
        };
        NetworkSim::new(Mesh2D::square(5), GreedyXY, UniformDest, cfg).run()
    }

    fn assert_bits(a: &SimResult, b: &SimResult) {
        assert_eq!(a.avg_delay.to_bits(), b.avg_delay.to_bits());
        assert_eq!(a.delay_std_err.to_bits(), b.delay_std_err.to_bits());
        assert_eq!(a.time_avg_n.to_bits(), b.time_avg_n.to_bits());
        assert_eq!(a.time_avg_r.to_bits(), b.time_avg_r.to_bits());
        assert_eq!(a.final_n.to_bits(), b.final_n.to_bits());
        assert_eq!(a.peak_n.to_bits(), b.peak_n.to_bits());
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.delay_p50, b.delay_p50);
        assert_eq!(a.delay_p99, b.delay_p99);
        assert_eq!(a.edge_mean_queue, b.edge_mean_queue);
        assert_eq!(a.edge_throughput, b.edge_throughput);
        assert_eq!(a.n_samples, b.n_samples);
    }

    #[test]
    fn reruns_are_bit_identical_at_every_shard_count() {
        for shards in [2, 3, 4, 7] {
            let a = run(EngineSpec::Sharded { shards });
            let b = run(EngineSpec::Sharded { shards });
            assert_bits(&a, &b);
        }
    }

    #[test]
    fn sharded_runs_agree_statistically_with_the_oracle() {
        let oracle = run(EngineSpec::Calendar);
        let sharded = run(EngineSpec::Sharded { shards: 4 });
        // Different RNG decomposition ⇒ different sample path; physics
        // must still match within loose Monte-Carlo noise.
        let rel = (sharded.avg_delay - oracle.avg_delay).abs() / oracle.avg_delay;
        assert!(rel < 0.10, "delay off by {rel:.3}");
        assert!(sharded.completed > 0);
        assert!(sharded.completed <= sharded.generated);
        // Conservation: every serviced hop is someone's remaining work.
        assert!(sharded.r_ratio > 0.9 && sharded.r_ratio < oracle.r_ratio * 1.2);
    }

    #[test]
    #[should_panic(expected = "deterministic service times")]
    fn exponential_service_is_rejected_when_shards_cut_edges() {
        let cfg = NetConfig {
            service: ServiceKind::Exponential,
            engine: EngineSpec::Sharded { shards: 2 },
            ..NetConfig::default()
        };
        let _ = NetworkSim::new(Mesh2D::square(4), GreedyXY, UniformDest, cfg).run();
    }

    #[test]
    fn shard_count_beyond_node_count_is_clamped_and_deterministic() {
        let a = run(EngineSpec::Sharded { shards: 64 });
        let b = run(EngineSpec::Sharded { shards: 64 });
        assert_bits(&a, &b);
        assert!(a.completed > 0);
    }

    fn run_faulted(engine: EngineSpec) -> SimResult {
        use crate::fault::{FaultPlan, FaultSpec};
        let cfg = NetConfig {
            lambda: 0.15,
            horizon: 800.0,
            warmup: 80.0,
            seed: 9,
            engine,
            ..NetConfig::default()
        };
        let topo = Mesh2D::square(5);
        let spec = FaultSpec::links(0.2).at(100.0);
        let plan = FaultPlan::materialize(&spec, cfg.seed, &topo);
        NetworkSim::new(topo, GreedyXY, UniformDest, cfg)
            .with_fault_plan(plan)
            .run()
    }

    #[test]
    fn faulted_sharded_runs_are_bit_identical_and_drop_packets() {
        for shards in [1, 2, 3] {
            let a = run_faulted(EngineSpec::Sharded { shards });
            let b = run_faulted(EngineSpec::Sharded { shards });
            assert_eq!(a.avg_delay.to_bits(), b.avg_delay.to_bits());
            assert_eq!(a.generated, b.generated);
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.dropped, b.dropped);
            assert_eq!(a.events_processed, b.events_processed);
            assert!(a.dropped.total() > 0, "{shards} shards saw no drops");
            assert!(a.delivered_fraction < 1.0);
            assert!(a.completed > 0);
        }
    }

    #[test]
    fn faulted_one_shard_matches_the_calendar_engine_bit_for_bit() {
        let calendar = run_faulted(EngineSpec::Calendar);
        let sharded = run_faulted(EngineSpec::Sharded { shards: 1 });
        assert_eq!(calendar.avg_delay.to_bits(), sharded.avg_delay.to_bits());
        assert_eq!(calendar.generated, sharded.generated);
        assert_eq!(calendar.completed, sharded.completed);
        assert_eq!(calendar.dropped, sharded.dropped);
    }

    #[test]
    fn faulted_sharded_runs_agree_statistically_with_the_oracle() {
        let oracle = run_faulted(EngineSpec::Calendar);
        let sharded = run_faulted(EngineSpec::Sharded { shards: 2 });
        assert!(sharded.dropped.total() > 0);
        let rel = (sharded.delivered_fraction - oracle.delivered_fraction).abs()
            / oracle.delivered_fraction;
        assert!(rel < 0.10, "delivered fraction off by {rel:.3}");
    }
}

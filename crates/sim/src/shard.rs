//! Conservative parallel discrete-event engine: one scenario sharded
//! across threads ([`EngineSpec::Sharded`](crate::EngineSpec::Sharded)).
//!
//! # Protocol
//!
//! The topology is partitioned into contiguous node blocks
//! ([`Partition::contiguous`]); each directed edge belongs to the shard of
//! its **source** node, so every enqueue a shard performs is on an edge it
//! owns. Each shard runs the same hot loop as the single-core engines on
//! its own event list, its own RNG stream (`derive_rng(seed, shard)`)
//! and its own [`Observer`], so threads share nothing mutable.
//!
//! The event list is a [`LaneQueue`] when every edge has the same
//! deterministic service time (the paper's unit-time model): departures,
//! all scheduled a fixed delay after their service start, ride its FIFO
//! lane, while arrivals, handoffs, ticks and the epoch cut-off push-back
//! stay on its calendar. Otherwise (exponential service, or per-edge
//! rates that differ) it is a plain [`CalendarQueue`]. Both pop in the
//! same `(time, seq)` order, so the choice never changes a result.
//!
//! Time is divided into epochs of length Δ, the **conservative lookahead**:
//! the minimum service time over cut edges (edges whose source and target
//! live on different shards). A packet crossing shard boundaries must be
//! serviced by a cut edge, which takes at least Δ, so an event executed in
//! epoch `j` can only affect other shards at times `≥ (j+1)·Δ` — each shard
//! may therefore run epoch `j` to completion without hearing from its
//! peers. Because the lookahead must be known in advance, shards > 1
//! requires [`ServiceKind::Deterministic`] service times.
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
//! else is shard-local. With `shards = 1` there are no cut edges and the
//! single shard runs the single-core hot loop verbatim, reproducing
//! [`EngineSpec::Calendar`](crate::EngineSpec::Calendar) bit for bit
//! (pinned in `tests/engine_equivalence.rs`). With `shards > 1` the RNG
//! streams decompose differently, so the single-core engines act as the
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

use crate::engine::STREAMING_STATS_MAX_EDGES;
use crate::events::{CalendarQueue, EventQueue, LaneQueue};
use crate::fault::{ttl_budget, DropCause, DropCounts, FaultPlan};
use crate::network::{
    little_delay, q_pop, q_push, qtick, stall, EdgeState, EdgeThroughputStats, NetworkSim, Packet,
    QTrack, SimError, SimResult, NIL,
};
use crate::observer::Observer;
use crate::rng::{derive_rng, exp_sample, poisson_sample};
use crate::service::ServiceKind;
use crate::telemetry::{ProbeSample, Recorder};
use meshbound_routing::dest::DestSampler;
use meshbound_routing::{LocalView, RouteOutcome, Router};
use meshbound_stats::{Reservoir, Welford};
use meshbound_topology::{EdgeId, NodeId, Partition, Topology};
use rand::rngs::SmallRng;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Instant;

/// Size of the delay-quantile reservoir (matches the single-core engines).
const RESERVOIR_CAPACITY: usize = 1 << 16;

/// Per-peer channel depth. One in-flight batch plus one being composed is
/// enough: the exchange is fully synchronous (every shard sends to every
/// peer, then receives from every peer, in fixed order each epoch), so no
/// sender can ever run more than one epoch ahead of a receiver.
const CHANNEL_DEPTH: usize = 2;

/// A packet in flight between shards: everything the receiving shard needs
/// to resume it at the cut edge's target node.
#[derive(Debug, Clone, Copy)]
struct Msg<S> {
    /// Service-completion time on the cut edge — the handoff time.
    time: f64,
    /// The cut edge's target node (where routing resumes).
    node: NodeId,
    dst: NodeId,
    gen_time: f64,
    state: S,
    /// Remaining misroute budget, carried across the shard boundary.
    ttl: u32,
}

type Batch<S> = Vec<Msg<S>>;

/// One shard's row of outgoing channels, indexed by destination shard
/// (`None` on the diagonal — a shard never messages itself).
type TxRow<S> = Vec<Option<SyncSender<Batch<S>>>>;

/// One shard's row of incoming channels, indexed by sender shard
/// (`None` on the diagonal).
type RxRow<S> = Vec<Option<Receiver<Batch<S>>>>;

/// Shard-local event kinds. The single-core `Ev` plus `Handoff` for
/// packets arriving from other shards. `Departure` carries the **global**
/// edge id (service rates and the saturated-edge set are indexed
/// globally); `Arrival` indexes the shard's own source list.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SEv {
    /// Next external arrival at the shard-local source `idx`.
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
    /// Liveness transition `k` of the run's fault plan. Every shard
    /// replays the full (global) timeline so the shared liveness mask
    /// agrees everywhere; only the owning shard flushes an edge's queue.
    Fault(u32),
    /// Telemetry probe tick. Every shard runs the identical tick
    /// schedule (same base interval, same decimation — decimation is a
    /// pure function of tick count), so per-shard recorders merge
    /// sample-by-sample after the join. Scheduled only when probes are
    /// configured; the handler reads shard state and mutates nothing.
    Probe,
}

/// What one shard thread returns: its observer, its event count, and its
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
    packets: Vec<Packet<S>>,
    /// Resume node for packets delivered by `SEv::Handoff`, parallel to
    /// `packets`.
    hand_node: Vec<NodeId>,
    qnext: Vec<u32>,
    free: Vec<u32>,
    queue: Q,
    /// Per-peer outgoing packets, flushed at each epoch boundary.
    outboxes: Vec<Batch<S>>,
    /// Whether each owned (local-indexed) edge crosses into another shard.
    is_cut: Vec<bool>,
    /// For cut edges: the target node and the shard that owns it.
    cut_to: Vec<(NodeId, u32)>,
    /// Per-edge liveness (**global** indexing) under the run's fault
    /// plan; empty on healthy runs, keeping the hot loop on the exact
    /// pre-fault path.
    live: Vec<bool>,
}

/// [`LocalView`] over one shard's owned edges. Out-edges belong to their
/// source's shard, so every edge an adaptive router inspects at a node this
/// shard owns is in the shard's dense `edges` slab — `edge_local` maps the
/// global id down to it.
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

impl<S: Copy, Q: EventQueue<SEv>> Local<S, Q> {
    /// Allocates a packet slot from the free list (or grows the slab),
    /// mirroring the single-core allocator; `hand_node` grows in lockstep.
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
    fn start_service<T, R, D>(&mut self, sim: &NetworkSim<T, R, D>, le: usize, ge: u32, now: f64)
    where
        T: Topology + Sync,
        R: Router<T, State = S> + Sync,
        D: DestSampler<T> + Sync,
    {
        let edge = &mut self.edges[le];
        debug_assert!(!edge.busy && edge.qlen > 0);
        edge.busy = true;
        edge.service_start = now;
        let dur = sim
            .cfg
            .service
            .sample(sim.service_rates[ge as usize], &mut self.rng);
        let done = now + dur;
        self.queue.schedule_lane(done, SEv::Departure(ge));
        if self.is_cut[le] {
            let pid = self.edges[le].head;
            let pk = self.packets[pid as usize];
            let (node, to) = self.cut_to[le];
            self.outboxes[to as usize].push(Msg {
                time: done,
                node,
                dst: pk.dst,
                gen_time: pk.gen_time,
                state: pk.state,
                ttl: pk.ttl,
            });
        }
    }

    /// Appends `pid` to owned edge `le`'s FIFO and starts service if idle
    /// (the single-core `enqueue`, with local edge indexing).
    fn enqueue<T, R, D>(
        &mut self,
        sim: &NetworkSim<T, R, D>,
        le: usize,
        ge: u32,
        pid: u32,
        now: f64,
    ) where
        T: Topology + Sync,
        R: Router<T, State = S> + Sync,
        D: DestSampler<T> + Sync,
    {
        if sim.cfg.track_edge_queues {
            qtick(&mut self.qtrack[le], self.edges[le].qlen, now);
        }
        q_push(&mut self.edges[le], &mut self.qnext, pid);
        if !self.edges[le].busy {
            self.start_service(sim, le, ge, now);
        }
    }

    /// Drops the packet in slot `pid` at node `at` (the single-core drop
    /// accounting: unwind the integrals by the remaining work, tally the
    /// cause, recycle the slot).
    fn drop_packet<T, R, D>(
        &mut self,
        sim: &NetworkSim<T, R, D>,
        now: f64,
        at: NodeId,
        pid: u32,
        cause: DropCause,
    ) where
        T: Topology + Sync,
        R: Router<T, State = S> + Sync,
        D: DestSampler<T> + Sync,
    {
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

    /// Generates one packet at `src` (the single-core `inject`, with the
    /// on-the-fly routing path — the sharded engine never uses route
    /// tables, so the RNG draw order matches the table-free engines).
    fn inject<T, R, D>(
        &mut self,
        sim: &NetworkSim<T, R, D>,
        part: &Partition,
        now: f64,
        src: NodeId,
    ) -> Result<(), SimError>
    where
        T: Topology + Sync,
        R: Router<T, State = S> + Sync,
        D: DestSampler<T> + Sync,
    {
        let dst = sim.dest.sample(&sim.topo, src, &mut self.rng);
        if src == dst {
            if sim.cfg.include_self_packets {
                self.obs.zero_distance_packet(now);
            }
            return Ok(());
        }
        self.obs.packet_generated(now);
        let state = sim.router.init_state(&sim.topo, src, dst, &mut self.rng);
        let hops = sim.router.route_len(&sim.topo, src, dst, state);
        let sat = if sim.track_saturated {
            sim.count_saturated_on_route(src, dst, state)
        } else {
            0
        };
        self.obs.packet_enters(now, hops, sat);
        let pid = self.alloc(Packet {
            dst,
            state,
            gen_time: now,
            ttl: ttl_budget(hops),
        });
        let view = ShardView {
            edges: &self.edges,
            part,
            live: &self.live,
        };
        let first = if self.live.is_empty() {
            match sim.router.next_hop(&sim.topo, src, dst, state, &view) {
                Some(e) => e,
                None => return Err(stall::<R>(src, dst)),
            }
        } else {
            // Fault-aware first hop: a walled-in source drops its fresh
            // packet instead of aborting the run.
            match sim.router.route_outcome(&sim.topo, src, dst, state, &view) {
                RouteOutcome::Forward(e) => {
                    self.packets[pid as usize].ttl -= 1;
                    e
                }
                outcome => {
                    let cause = if outcome == RouteOutcome::DeadEnd {
                        DropCause::DeadEnd
                    } else {
                        DropCause::LocalMinimum
                    };
                    self.drop_packet(sim, now, src, pid, cause);
                    return Ok(());
                }
            }
        };
        self.enqueue(sim, part.edge_local(first), first.index() as u32, pid, now);
        Ok(())
    }

    /// Moves a packet onward from `cur`: exit if delivered, otherwise
    /// enqueue on the next edge. The next edge is always shard-local —
    /// out-edges belong to their source's shard, and `cur` is on this
    /// shard whenever this is called.
    fn forward<T, R, D>(
        &mut self,
        sim: &NetworkSim<T, R, D>,
        part: &Partition,
        now: f64,
        cur: NodeId,
        pid: u32,
    ) -> Result<(), SimError>
    where
        T: Topology + Sync,
        R: Router<T, State = S> + Sync,
        D: DestSampler<T> + Sync,
    {
        let pk = self.packets[pid as usize];
        if cur == pk.dst {
            self.obs.packet_exits(now, pk.gen_time, true);
            self.free.push(pid);
            return Ok(());
        }
        let view = ShardView {
            edges: &self.edges,
            part,
            live: &self.live,
        };
        let next = if self.live.is_empty() {
            match sim.router.next_hop(&sim.topo, cur, pk.dst, pk.state, &view) {
                Some(e) => e,
                None => return Err(stall::<R>(cur, pk.dst)),
            }
        } else if pk.ttl == 0 {
            self.drop_packet(sim, now, cur, pid, DropCause::TtlExceeded);
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
                    let cause = if outcome == RouteOutcome::DeadEnd {
                        DropCause::DeadEnd
                    } else {
                        DropCause::LocalMinimum
                    };
                    self.drop_packet(sim, now, cur, pid, cause);
                    return Ok(());
                }
            }
        };
        self.enqueue(sim, part.edge_local(next), next.index() as u32, pid, now);
        Ok(())
    }
}

/// Entry point for [`EngineSpec::Sharded`](crate::EngineSpec::Sharded):
/// partitions the topology, spawns one thread per shard, and merges the
/// per-shard statistics into one [`SimResult`].
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
pub(crate) fn run_sharded<T, R, D>(
    sim: NetworkSim<T, R, D>,
    wall: Instant,
    shards: usize,
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
    // unbounded and terminates on the horizon like the single-core loop.
    // All handoffs emitted during the final epoch would land past the
    // horizon (their send time is within Δ of it), so it needs no
    // exchange.
    let windows = if part.cut_edges().is_empty() {
        // No cross-shard traffic (shards = 1): one unbounded epoch, no
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

    // Shard-local source lists, preserving global order (and hence, for a
    // single shard, the exact single-core RNG priming order). The global
    // index rides along for positional per-source rate lookup.
    let mut source_lists: Vec<Vec<(u32, NodeId)>> = vec![Vec::new(); k];
    for (i, &src) in sim.sources.iter().enumerate() {
        source_lists[part.node_shard(src)].push((i as u32, src));
    }

    // The full k×k channel mesh. `txs[from][to]` / `rxs[to][from]`; the
    // diagonal stays `None`.
    let mut txs: Vec<TxRow<R::State>> = (0..k).map(|_| (0..k).map(|_| None).collect()).collect();
    let mut rxs: Vec<RxRow<R::State>> = (0..k).map(|_| (0..k).map(|_| None).collect()).collect();
    for from in 0..k {
        for to in 0..k {
            if from != to {
                let (tx, rx) = sync_channel(CHANNEL_DEPTH);
                txs[from][to] = Some(tx);
                rxs[to][from] = Some(rx);
            }
        }
    }

    let sim_ref = &sim;
    let part_ref = &part;
    let sources_ref = &source_lists;
    let windows_ref = &windows;
    let lane = sim.constant_service_time();
    let results: Vec<Result<ShardOut, Option<SimError>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = txs
            .into_iter()
            .zip(rxs)
            .enumerate()
            .map(|(me, (tx_row, rx_row))| {
                scope.spawn(move || {
                    let sources = &sources_ref[me];
                    let n = sources.len().max(1);
                    if lane {
                        // Departures ride the lane; the calendar keeps
                        // about one pending arrival per source.
                        let queue = LaneQueue::for_simulation(n);
                        shard_loop(
                            sim_ref,
                            part_ref,
                            me,
                            sources,
                            windows_ref,
                            &tx_row,
                            &rx_row,
                            queue,
                        )
                    } else {
                        let queue = CalendarQueue::for_simulation(4 * n);
                        shard_loop(
                            sim_ref,
                            part_ref,
                            me,
                            sources,
                            windows_ref,
                            &tx_row,
                            &rx_row,
                            queue,
                        )
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                // A shard panicked; its channels dropped on unwind, so the
                // peers have already bailed out. Re-raise the panic.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut outs: Vec<ShardOut> = Vec::with_capacity(k);
    let mut first_err: Option<SimError> = None;
    for r in results {
        match r {
            Ok(o) => outs.push(o),
            Err(Some(e)) => {
                first_err.get_or_insert(e);
            }
            // Peer-died sentinel: some other shard carries the real error.
            Err(None) => {}
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    assert_eq!(outs.len(), k, "a shard aborted without reporting an error");

    Ok(merge(&sim, &part, outs, wall))
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

/// One shard's run: the single-core hot loop windowed into epochs, with a
/// batch exchange at each epoch boundary. Returns `Err(None)` when a peer
/// disappears mid-run (its own error is reported from its thread) and
/// `Err(Some(_))` for this shard's own structural failures.
#[allow(clippy::too_many_arguments)]
fn shard_loop<T, R, D, Q>(
    sim: &NetworkSim<T, R, D>,
    part: &Partition,
    me: usize,
    sources: &[(u32, NodeId)],
    windows: &[f64],
    tx_row: &[Option<SyncSender<Batch<R::State>>>],
    rx_row: &[Option<Receiver<Batch<R::State>>>],
    queue: Q,
) -> Result<ShardOut, Option<SimError>>
where
    T: Topology + Sync,
    R: Router<T> + Sync,
    D: DestSampler<T> + Sync,
    Q: EventQueue<SEv>,
{
    let cfg = &sim.cfg;
    let k = part.shards();
    let local_edges = part.shard_edge_count(me);

    let mut is_cut = vec![false; local_edges];
    let mut cut_to = vec![(NodeId(0), 0u32); local_edges];
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

    // Prime the event list exactly like the single-core loop, restricted
    // to this shard's sources.
    match cfg.slot {
        None => {
            for &(gi, _) in sources {
                let rate = sim.source_rate(gi as usize);
                if rate > 0.0 {
                    let dt = exp_sample(&mut local.rng, rate);
                    local.queue.schedule(dt, SEv::Arrival(gi));
                }
            }
        }
        Some(tau) => {
            assert!(tau > 0.0, "slot width must be positive");
            local.queue.schedule(tau, SEv::Slot);
        }
    }
    if cfg.warmup > 0.0 {
        local.queue.schedule(cfg.warmup, SEv::Warmup);
    }
    if let Some(dt) = cfg.sample_every {
        assert!(dt > 0.0);
        local.queue.schedule(dt, SEv::Sample);
    }
    for (fk, fe) in sim.fault_plan.events.iter().enumerate() {
        if fe.time <= cfg.horizon {
            local.queue.schedule(fe.time, SEv::Fault(fk as u32));
        }
    }
    // Probe priming comes last so `probes=None` leaves the schedule call
    // sequence exactly as a pre-telemetry build produced it.
    let mut recorder = cfg.probes.as_ref().map(|spec| {
        let rec = Recorder::for_shard(spec, cfg.horizon, me);
        local.queue.schedule(rec.base(), SEv::Probe);
        rec
    });

    // `Arrival` carries the *global* source index (so rates stay
    // positional); map it back to the packed list position only for
    // clarity in the prime above — the handler needs the node and rate.
    let node_of = |gi: u32| sim.sources[gi as usize];

    let mut events: u64 = 0;
    let mut cut_handoffs: u64 = 0;
    'run: for (wi, &cutoff) in windows.iter().enumerate() {
        let last = wi + 1 == windows.len();
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
                SEv::Warmup => {
                    local.obs.reset_at_warmup();
                    if cfg.track_edge_queues {
                        for (edge, tq) in local.edges.iter().zip(local.qtrack.iter_mut()) {
                            qtick(tq, edge.qlen, cfg.warmup);
                            tq.integral = 0.0;
                        }
                    }
                }
                SEv::Sample => {
                    local.obs.sample_n(now);
                    local
                        .queue
                        .schedule(now + cfg.sample_every.unwrap(), SEv::Sample);
                }
                SEv::Arrival(gi) => {
                    local.inject(sim, part, now, node_of(gi)).map_err(Some)?;
                    let dt = exp_sample(&mut local.rng, sim.source_rate(gi as usize));
                    local.queue.schedule(now + dt, SEv::Arrival(gi));
                }
                SEv::Slot => {
                    let tau = cfg.slot.unwrap();
                    for &(gi, src) in sources {
                        let mean = sim.source_rate(gi as usize) * tau;
                        let batch = poisson_sample(&mut local.rng, mean);
                        for _ in 0..batch {
                            local.inject(sim, part, now, src).map_err(Some)?;
                        }
                    }
                    local.queue.schedule(now + tau, SEv::Slot);
                }
                SEv::Departure(ge) => {
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
                        local.start_service(sim, le, ge, now);
                    }
                    if local.is_cut[le] {
                        // The packet was already emitted to the target
                        // shard at service start; its slot is free again.
                        local.free.push(pid);
                    } else {
                        let cur = sim.topo.edge_target(EdgeId(ge));
                        local.forward(sim, part, now, cur, pid).map_err(Some)?;
                    }
                }
                SEv::Handoff(pid) => {
                    cut_handoffs += 1;
                    let cur = local.hand_node[pid as usize];
                    local.forward(sim, part, now, cur, pid).map_err(Some)?;
                }
                SEv::Fault(fk) => {
                    let fe = sim.fault_plan.events[fk as usize];
                    let gi = fe.edge.index();
                    if fe.up {
                        local.live[gi] = true;
                        if part.edge_shard(fe.edge) == me {
                            let le = part.edge_local(fe.edge);
                            // Defensive restart, mirroring the single-core
                            // engine (the flush leaves at most the
                            // in-flight head on a dead edge).
                            if local.edges[le].qlen > 0 && !local.edges[le].busy {
                                local.start_service(sim, le, gi as u32, now);
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
                            let edge = &mut local.edges[le];
                            let mut pid = if edge.busy {
                                let waiting = local.qnext[edge.head as usize];
                                local.qnext[edge.head as usize] = NIL;
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
                            let at = sim.topo.edge_source(fe.edge);
                            while pid != NIL {
                                let next_waiting = local.qnext[pid as usize];
                                local.drop_packet(sim, now, at, pid, DropCause::LinkDown);
                                pid = next_waiting;
                            }
                        }
                    }
                }
                SEv::Probe => {
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
                    local.queue.schedule(now + rec.interval(), SEv::Probe);
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
            let pid = local.alloc(Packet {
                dst: m.dst,
                state: m.state,
                gen_time: m.gen_time,
                ttl: m.ttl,
            });
            local.hand_node[pid as usize] = m.node;
            local.queue.schedule(m.time, SEv::Handoff(pid));
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

/// Merges per-shard outputs into one [`SimResult`], using the exact
/// formulas of the single-core result assembly so that `shards = 1`
/// reproduces [`EngineSpec::Calendar`](crate::EngineSpec::Calendar) bit
/// for bit.
fn merge<T, R, D>(
    sim: &NetworkSim<T, R, D>,
    part: &Partition,
    mut outs: Vec<ShardOut>,
    wall: Instant,
) -> SimResult
where
    T: Topology + Sync,
    R: Router<T> + Sync,
    D: DestSampler<T> + Sync,
{
    let cfg = &sim.cfg;
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
    let num_edges = sim.topo.num_edges();
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
        for o in &outs {
            if let Some(r) = &o.obs.delay_sample {
                for &x in r.samples() {
                    merged.push(x);
                }
            }
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
        delivered_fraction: if generated > 0 {
            completed as f64 / generated as f64
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
    fn one_shard_reproduces_the_calendar_engine_bit_for_bit() {
        let calendar = run(EngineSpec::Calendar);
        let sharded = run(EngineSpec::Sharded { shards: 1 });
        assert_bits(&calendar, &sharded);
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

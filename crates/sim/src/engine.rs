//! Hot-path engine selection for [`NetworkSim::run`](crate::NetworkSim::run).
//!
//! Every engine runs the same event loop (`crate::shard`); an engine only
//! picks a shard count, a future-event list and whether precomputed route
//! tables are used. The one-shard engines — [`EngineSpec::Auto`],
//! [`EngineSpec::Heap`], [`EngineSpec::Calendar`] and `sharded:1` —
//! produce **bit-identical** [`SimResult`](crate::SimResult)s for the same
//! scenario and seed: the choice moves wall-clock time, never a single
//! reported number. The cross-engine equivalence suite
//! (`tests/engine_equivalence.rs`) pins that guarantee across all
//! topologies and both time modes.
//!
//! With more than one shard the contract is weaker but still hard: for a
//! fixed `(seed, shard_count)` a run is bit-identical across reruns and
//! thread schedules, and the one-shard engines remain its statistical
//! oracle (delay, throughput and conservation-law ratios agree within
//! replication noise; see `crate::shard`).

use serde::{Deserialize, Serialize};

/// Node-count gate above which [`EngineSpec::Auto`] and
/// [`EngineSpec::Sharded`] skip the precomputed route tables. A table stores one packed `u32` per `(node, destination)`
/// pair, so the gate caps table memory at 512² × 4 B = 1 MiB — sized to
/// stay L2-resident on current hardware; beyond that a cache-missing
/// lookup costs more than the coordinate arithmetic it replaces, so the
/// on-the-fly router walk is kept. (Measured on the Table-I mesh workload,
/// where the 20×20 mesh's 640 KiB table is still a clear win.)
pub const ROUTE_TABLE_MAX_NODES: usize = 512;

/// Node-count gate above which `Scenario::edge_rates` tries the
/// sparse-support fast path
/// ([`edge_rates_sparse`](meshbound_routing::rates::edge_rates_sparse))
/// before falling back to the O(N² · route) all-destinations scan. Below
/// the gate enumeration is already sub-millisecond and stays the single
/// code path that every ≤512-node published number was produced by; above
/// it, permutation and hotspot workloads get O(N · diameter) rate vectors
/// that remain exact to enumeration (pinned by `tests/scale.rs`).
pub const SPARSE_RATES_MIN_NODES: usize = ROUTE_TABLE_MAX_NODES;

/// Edge-count gate above which [`SimResult`](crate::SimResult) stops
/// materializing full per-edge vectors (`edge_throughput`) and reports only
/// the streaming Welford summary (`edge_throughput_stats`). At
/// `hypercube:20` there are `20 · 2²⁰ ≈ 2.1 × 10⁷` directed edges; a
/// per-edge `f64` vector per replication is ~168 MiB of copying that no
/// caller inspects edge-by-edge at that scale. Every topology that fits a
/// route table (≤ 512 nodes ⇒ ≤ 5120 edges) sits far below this gate, so
/// published small-scale results are untouched bit-for-bit.
pub const STREAMING_STATS_MAX_EDGES: usize = 1 << 16;

/// Which engine drives the simulator's hot loop: a shard count, an
/// event list and a routing path for the one shared event loop.
///
/// * [`EngineSpec::Auto`] (the default) — one shard on a calendar-queue
///   future-event list, plus precomputed route tables when the topology
///   fits under [`ROUTE_TABLE_MAX_NODES`], the router is deterministic
///   (randomized and adaptive routers carry per-packet state or read live
///   queues, so they keep the on-the-fly path) and no fault plan is set.
///   When every edge has the same deterministic service time (the paper's
///   unit-time model), departures ride the FIFO lane of a
///   [`LaneQueue`](crate::events::LaneQueue) instead of the calendar.
/// * [`EngineSpec::Heap`] — one shard on the binary-heap future-event
///   list with on-the-fly routing: the reference implementation, kept as
///   the test oracle and the benchmark yardstick.
/// * [`EngineSpec::Calendar`] — one shard on the calendar queue with
///   on-the-fly routing (isolates the event-queue contribution in
///   ablations).
/// * [`EngineSpec::Sharded`] — conservative parallel DES: the topology is
///   partitioned into `shards` node blocks, each on its own thread with
///   the event list and route tables of `Auto`, and cross-shard packets
///   are exchanged at epoch boundaries (see `crate::shard`). More than
///   one shard requires deterministic service times (the lookahead is the
///   minimum cut-edge service time).
///
/// # Examples
///
/// Selecting an engine on a scenario spec and via the builder:
///
/// ```
/// use meshbound_sim::{EngineSpec, Load, Scenario};
///
/// let fast = Scenario::mesh(5).load(Load::TableRho(0.5)).seed(3);
/// let slow = fast.clone().engine(EngineSpec::Heap);
/// let a = fast.run();
/// let b = slow.run();
/// // Different engines, bit-identical physics:
/// assert_eq!(a.avg_delay.to_bits(), b.avg_delay.to_bits());
/// assert_eq!(a.events_processed, b.events_processed);
///
/// // Spec strings round-trip the engine choice:
/// let sc = Scenario::parse("mesh:5,rho=0.5,engine=calendar").unwrap();
/// assert_eq!(sc.engine, EngineSpec::Calendar);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineSpec {
    /// One shard: calendar queue (with a departure lane under uniform
    /// deterministic service) + route tables where eligible (the default).
    Auto,
    /// One shard: binary-heap event list, on-the-fly routing (the oracle).
    Heap,
    /// One shard: calendar queue, on-the-fly routing.
    Calendar,
    /// `shards` node shards, one thread each, with `Auto`'s event list
    /// and route tables (spec form `sharded:<N>`, or the `shards=<N>` key).
    Sharded {
        /// Requested shard count (clamped to `[1, num_nodes]` at run
        /// time; determinism depends on the requested count, not the
        /// host's core count).
        shards: usize,
    },
}

// Not `#[derive(Default)]`: the offline serde_derive stub parses the enum
// body and does not understand variant-level `#[default]` attributes.
#[allow(clippy::derivable_impls)]
impl Default for EngineSpec {
    fn default() -> Self {
        EngineSpec::Auto
    }
}

impl EngineSpec {
    /// The named one-shard engines, in the order benchmarks and sweeps
    /// enumerate them. They run the same loop on one shard and agree bit
    /// for bit (as does `sharded:1`); [`EngineSpec::Sharded`] is left out
    /// because it takes a count, and above one shard its contract is
    /// per-`(seed, shards)` determinism, not cross-engine bit-identity.
    pub const ALL: [EngineSpec; 3] = [EngineSpec::Auto, EngineSpec::Heap, EngineSpec::Calendar];

    /// The spec-string family name (`"auto"`, `"heap"`, `"calendar"`,
    /// `"sharded"` — the shard count is carried by [`std::fmt::Display`]
    /// and the `shards=` spec key).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EngineSpec::Auto => "auto",
            EngineSpec::Heap => "heap",
            EngineSpec::Calendar => "calendar",
            EngineSpec::Sharded { .. } => "sharded",
        }
    }

    /// Parses a spec-string name: `auto`, `heap`, `calendar` or
    /// `sharded:<N>` (N ≥ 1).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending input when it is not one of
    /// the forms above.
    pub fn parse_str(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(EngineSpec::Auto),
            "heap" => Ok(EngineSpec::Heap),
            "calendar" => Ok(EngineSpec::Calendar),
            other => {
                if let Some(count) = other.strip_prefix("sharded:") {
                    return match count.parse::<usize>() {
                        Ok(shards) if shards >= 1 => Ok(EngineSpec::Sharded { shards }),
                        _ => Err(format!(
                            "engine `sharded:` needs a shard count >= 1, got `{count}`"
                        )),
                    };
                }
                Err(format!(
                    "unknown engine `{other}` (expected auto, heap, calendar or sharded:<N>)"
                ))
            }
        }
    }
}

impl std::fmt::Display for EngineSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineSpec::Sharded { shards } => write!(f, "sharded:{shards}"),
            other => f.write_str(other.as_str()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for e in EngineSpec::ALL {
            assert_eq!(EngineSpec::parse_str(e.as_str()), Ok(e));
            assert_eq!(format!("{e}"), e.as_str());
        }
        assert!(EngineSpec::parse_str("quantum").is_err());
    }

    #[test]
    fn sharded_round_trips_with_its_count() {
        let e = EngineSpec::parse_str("sharded:4").unwrap();
        assert_eq!(e, EngineSpec::Sharded { shards: 4 });
        assert_eq!(e.as_str(), "sharded");
        assert_eq!(format!("{e}"), "sharded:4");
        assert_eq!(EngineSpec::parse_str(&format!("{e}")), Ok(e));
        for bad in ["sharded", "sharded:", "sharded:0", "sharded:x"] {
            assert!(EngineSpec::parse_str(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn default_is_auto() {
        assert_eq!(EngineSpec::default(), EngineSpec::Auto);
    }
}

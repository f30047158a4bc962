//! [`SweepSpec`]: a declarative grid of [`Scenario`]s.
//!
//! The paper's tables are really *sweeps* — a cartesian product of
//! topology, load, router and destination axes, one scenario per cell. A
//! [`SweepSpec`] names such a grid compactly, expands it deterministically
//! ([`SweepSpec::expand`]), and round-trips through a textual grammar
//! ([`SweepSpec::parse`] / [`SweepSpec::spec_string`]) the same way
//! [`Scenario`] specs do:
//!
//! ```
//! use meshbound_sim::SweepSpec;
//!
//! let sweep = SweepSpec::parse(
//!     "topo=mesh:5|torus:6 load=rho:0.2|rho:0.8 reps=2 horizon=800 warmup=80",
//! )
//! .unwrap();
//! let cells = sweep.expand().unwrap();
//! assert_eq!(cells.len(), 4); // 2 topologies × 2 loads
//! assert_eq!(SweepSpec::parse(&sweep.spec_string()).unwrap(), sweep);
//! ```
//!
//! Expansion is pure specification → scenarios: per-cell seeds are derived
//! by hashing each cell's parameters against the sweep seed, so the grid is
//! identical however (and in whatever order, on however many threads) the
//! cells are later executed. The parallel executor that runs an expanded
//! grid and emits the JSON report lives in the `meshbound` facade crate
//! (`meshbound::sweep`).

use crate::engine::EngineSpec;
use crate::fault::FaultSpec;
use crate::rng::splitmix64;
use crate::scenario::{
    RouterSpec, Scenario, ScenarioError, TopologySpec, DEFAULT_HORIZON, DEFAULT_WARMUP,
};
use crate::service::ServiceKind;
use crate::telemetry::ProbeSpec;
use crate::traffic::{PatternSpec, SourceSpec};
use meshbound_queueing::load::Load;
use serde::{Deserialize, Serialize};

/// How each cell's simulation horizon is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum HorizonPolicy {
    /// Every cell runs the same fixed horizon and warmup.
    Fixed {
        /// Simulated end time.
        horizon: f64,
        /// Warmup discarded from statistics.
        warmup: f64,
    },
    /// Load-adaptive: `horizon = min(base / (1 − ρ), cap)` with
    /// `ρ` the cell's peak edge utilization (clamped to `1 − 10⁻³`) and
    /// warmup one fifth of the horizon — the same growth law the paper
    /// tables use, tracking the `O(1/(1−ρ)²)` relaxation time of heavily
    /// loaded queues.
    Auto {
        /// Base horizon at light load.
        base: f64,
        /// Hard horizon cap.
        cap: f64,
    },
}

impl HorizonPolicy {
    /// The `(horizon, warmup)` pair for a cell with peak utilization `rho`.
    #[must_use]
    pub fn resolve(&self, rho: f64) -> (f64, f64) {
        match *self {
            HorizonPolicy::Fixed { horizon, warmup } => (horizon, warmup),
            HorizonPolicy::Auto { base, cap } => {
                let horizon = (base / (1.0 - rho).max(1e-3)).min(cap);
                (horizon, horizon / 5.0)
            }
        }
    }
}

/// Why a sweep specification was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The sweep grammar could not be parsed.
    Parse(String),
    /// An axis is empty, so the grid has no cells.
    EmptyAxis(String),
    /// Two cells expand to the identical scenario.
    DuplicateCell(String),
    /// A cell fails [`Scenario::validate`].
    InvalidCell(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Parse(m) => write!(f, "sweep parse error: {m}"),
            SweepError::EmptyAxis(m) => write!(f, "empty sweep axis: {m}"),
            SweepError::DuplicateCell(m) => write!(f, "duplicate sweep cell: {m}"),
            SweepError::InvalidCell(m) => write!(f, "invalid sweep cell: {m}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// A declarative grid of scenarios: axis lists plus the knobs shared by
/// every cell.
///
/// Build one with [`SweepSpec::new`] and the chainable setters, or parse
/// the textual grammar with [`SweepSpec::parse`]. [`SweepSpec::expand`]
/// turns it into concrete [`Scenario`]s in a deterministic order
/// (topology-major, then load, router, destination).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Topology axis (at least one entry).
    pub topologies: Vec<TopologySpec>,
    /// Load axis (at least one entry, any [`Load`] convention per entry).
    pub loads: Vec<Load>,
    /// Router axis.
    pub routers: Vec<RouterSpec>,
    /// Traffic-pattern axis (the destination side of the workload; the
    /// grammar key is `traffic=`, with `dest=` kept as the pre-PR-5
    /// alias). Matrix workloads have no grammar token and are
    /// builder-only at the [`Scenario`] level.
    pub patterns: Vec<PatternSpec>,
    /// Source model shared by every cell (`src=` clause; not an axis).
    pub source: SourceSpec,
    /// Fault axis (`faults=` clause; `none` is the healthy entry). Each
    /// cell materializes its own deterministic [`FaultPlan`] from the
    /// cell seed, so a faulted sweep is as replayable as a healthy one.
    ///
    /// [`FaultPlan`]: crate::fault::FaultPlan
    pub faults: Vec<Option<FaultSpec>>,
    /// Telemetry probes shared by every cell (`probes=` clause; not an
    /// axis — probes never change the physics, so sweeping them would
    /// only duplicate cells). `None` (the default) keeps every cell spec
    /// string, and therefore every derived cell seed, byte-identical to
    /// a pre-telemetry sweep.
    pub probes: Option<ProbeSpec>,
    /// Engine axis (defaults to `[Auto]`). Engines produce bit-identical
    /// results and share per-cell seeds, so an `engine=` axis measures
    /// pure wall-clock differences — the perf-ablation use case.
    pub engines: Vec<EngineSpec>,
    /// Transmission-time distribution shared by every cell.
    pub service: ServiceKind,
    /// Independent replications per cell.
    pub reps: usize,
    /// Sweep master seed; each cell derives its own scenario seed from it.
    pub seed: u64,
    /// Horizon policy shared by every cell.
    pub horizon: HorizonPolicy,
    /// Track the remaining-saturated-services integral (square meshes).
    pub track_saturated: bool,
}

impl Default for SweepSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepSpec {
    /// An empty sweep with the default shared knobs: greedy router, uniform
    /// destinations, deterministic service, one replication, seed 1, fixed
    /// horizon 2000 / warmup 200. Topology and load axes start empty and
    /// must be filled before [`SweepSpec::expand`].
    #[must_use]
    pub fn new() -> Self {
        Self {
            topologies: Vec::new(),
            loads: Vec::new(),
            routers: vec![RouterSpec::Greedy],
            patterns: vec![PatternSpec::Uniform],
            source: SourceSpec::Uniform,
            faults: vec![None],
            probes: None,
            engines: vec![EngineSpec::Auto],
            service: ServiceKind::Deterministic,
            reps: 1,
            seed: 1,
            horizon: HorizonPolicy::Fixed {
                horizon: DEFAULT_HORIZON,
                warmup: DEFAULT_WARMUP,
            },
            track_saturated: false,
        }
    }

    /// Sets the topology axis.
    #[must_use]
    pub fn topologies(mut self, topologies: Vec<TopologySpec>) -> Self {
        self.topologies = topologies;
        self
    }

    /// Sets the load axis.
    #[must_use]
    pub fn loads(mut self, loads: Vec<Load>) -> Self {
        self.loads = loads;
        self
    }

    /// Sets the router axis.
    #[must_use]
    pub fn routers(mut self, routers: Vec<RouterSpec>) -> Self {
        self.routers = routers;
        self
    }

    /// Sets the traffic-pattern axis.
    #[must_use]
    pub fn patterns(mut self, patterns: Vec<PatternSpec>) -> Self {
        self.patterns = patterns;
        self
    }

    /// Sets the shared source model.
    #[must_use]
    pub fn source(mut self, source: SourceSpec) -> Self {
        self.source = source;
        self
    }

    /// Sets the fault axis (`None` entries are healthy cells).
    #[must_use]
    pub fn faults(mut self, faults: Vec<Option<FaultSpec>>) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the shared telemetry probes (`None` turns telemetry off).
    #[must_use]
    pub fn probes(mut self, probes: Option<ProbeSpec>) -> Self {
        self.probes = probes;
        self
    }

    /// Sets the engine axis.
    #[must_use]
    pub fn engines(mut self, engines: Vec<EngineSpec>) -> Self {
        self.engines = engines;
        self
    }

    /// Sets the shared service distribution.
    #[must_use]
    pub fn service(mut self, service: ServiceKind) -> Self {
        self.service = service;
        self
    }

    /// Sets the per-cell replication count.
    #[must_use]
    pub fn reps(mut self, reps: usize) -> Self {
        self.reps = reps;
        self
    }

    /// Sets the sweep master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the horizon policy.
    #[must_use]
    pub fn horizon(mut self, horizon: HorizonPolicy) -> Self {
        self.horizon = horizon;
        self
    }

    /// Enables or disables saturated-services tracking in every cell.
    #[must_use]
    pub fn track_saturated(mut self, yes: bool) -> Self {
        self.track_saturated = yes;
        self
    }

    /// Number of cells the grid expands to (before validation).
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.topologies.len()
            * self.loads.len()
            * self.routers.len()
            * self.patterns.len()
            * self.faults.len()
            * self.engines.len()
    }

    /// Expands the grid into concrete scenarios, topology-major
    /// (`for topology { for load { for router { for traffic } } }`).
    ///
    /// Every cell gets a seed derived from the sweep seed and the cell's
    /// own parameters (see [`SweepSpec::cell_seed`]), so the expansion is a
    /// pure function of the spec — independent of execution order and
    /// thread count downstream.
    ///
    /// # Errors
    ///
    /// [`SweepError::EmptyAxis`] if any axis or `reps` is empty,
    /// [`SweepError::InvalidCell`] if a cell fails [`Scenario::validate`]
    /// (e.g. a randomized router paired with a torus), and
    /// [`SweepError::DuplicateCell`] if two cells coincide.
    pub fn expand(&self) -> Result<Vec<Scenario>, SweepError> {
        for (axis, len) in [
            ("topo", self.topologies.len()),
            ("load", self.loads.len()),
            ("router", self.routers.len()),
            ("traffic", self.patterns.len()),
            ("faults", self.faults.len()),
            ("engine", self.engines.len()),
            ("reps", self.reps),
        ] {
            if len == 0 {
                return Err(SweepError::EmptyAxis(format!(
                    "`{axis}` has no entries — a sweep needs at least one value per axis"
                )));
            }
        }
        if let Some(p) = self
            .patterns
            .iter()
            .find(|p| matches!(p, PatternSpec::Matrix { .. }))
        {
            return Err(SweepError::InvalidCell(format!(
                "`{}` traffic has no sweep grammar — run matrix workloads through \
                 `Scenario` directly",
                p.label()
            )));
        }
        let mut cells = Vec::with_capacity(self.num_cells());
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        for topology in &self.topologies {
            for &load in &self.loads {
                for &router in &self.routers {
                    for pattern in &self.patterns {
                        for faults in &self.faults {
                            for &engine in &self.engines {
                                let mut sc = Scenario::new(topology.clone())
                                    .router(router)
                                    .pattern(pattern.clone())
                                    .source(self.source.clone())
                                    .load(load)
                                    .service(self.service)
                                    .track_saturated(self.track_saturated)
                                    .engine(engine);
                                sc.faults = faults.clone();
                                sc.probes = self.probes;
                                // First validation catches unsupported
                                // combinations before `cell_rho` resolves
                                // the load against them.
                                let invalid = |sc: &Scenario, e: ScenarioError| {
                                    SweepError::InvalidCell(format!("`{}`: {e}", sc.spec_string()))
                                };
                                sc.validate().map_err(|e| invalid(&sc, e))?;
                                let (horizon, warmup) = self.horizon.resolve(cell_rho(&sc));
                                sc = sc.horizon(horizon).warmup(warmup);
                                let seed = self.cell_seed(&sc);
                                sc = sc.seed(seed);
                                sc.validate().map_err(|e| invalid(&sc, e))?;
                                let spec = sc.spec_string();
                                if !seen.insert(spec.clone()) {
                                    return Err(SweepError::DuplicateCell(format!(
                                        "`{spec}` appears twice — deduplicate the axis lists"
                                    )));
                                }
                                cells.push(sc);
                            }
                        }
                    }
                }
            }
        }
        Ok(cells)
    }

    /// The derived scenario seed of one cell: the sweep seed mixed (via
    /// FNV-1a and splitmix) with the cell's parameter string, so equal
    /// cells always get equal seeds and distinct cells get decorrelated
    /// streams.
    ///
    /// Only the cell's *physical* parameters feed the hash — its `seed`
    /// field is ignored, and so are its `engine` (engines are bit-identical,
    /// so cells differing only in engine share a seed and therefore produce
    /// identical results: an `engine=` axis is a pure wall-clock ablation)
    /// and its `probes` (telemetry reads state without perturbing it, so a
    /// probed sweep replays the exact sample paths of its unprobed twin).
    /// Re-deriving the seed of an already-expanded cell (e.g. one parsed
    /// back out of a sweep report) returns the value
    /// [`SweepSpec::expand`] assigned it.
    #[must_use]
    pub fn cell_seed(&self, cell: &Scenario) -> u64 {
        // Scenario spec strings omit the seed, engine and probes clauses
        // at their defaults, so clearing all three reproduces the
        // pre-seeding, engine-free, telemetry-free parameter string.
        let mut unseeded = cell.clone();
        unseeded.seed = crate::scenario::DEFAULT_SEED;
        unseeded.engine = EngineSpec::Auto;
        unseeded.probes = None;
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in unseeded.spec_string().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        splitmix64(self.seed ^ hash)
    }

    // ------------------------------------------------------------------
    // The textual grammar.
    // ------------------------------------------------------------------

    /// Parses the sweep grammar: whitespace-separated `key=value` clauses
    /// where axis values are `|`-separated lists.
    ///
    /// ```text
    /// topo=mesh:5|mesh:10|torus:8     (required; any Scenario topology head)
    /// load=rho:0.2|util:0.9|lambda:0.1 (required; convention:value pairs)
    /// router=greedy|oddeven            (default greedy; also randomized,
    ///                                  westfirst)
    /// traffic=uniform|transpose|hotspot:0.2 (default uniform; also
    ///                                  nearby:<stop>, bernoulli:<p>,
    ///                                  bitrev, bitcomp, shuffle,
    ///                                  hotspot:<frac>:<node>; `dest=` is
    ///                                  the pre-PR-5 alias)
    /// src=uniform|hotspot:4[:<node>]   (shared source model, not an axis)
    /// faults=none|links:0.05           (default none; fault axis — each
    ///                                  entry is a [`FaultSpec`] token such
    ///                                  as links:<rate>, nodes:<rate>,
    ///                                  link:<id>, node:<id>, joined with
    ///                                  `+`, plus at:<t> and repair:<dt>)
    /// engine=auto|heap|calendar|sharded:<N> (default auto; a perf
    ///                                  ablation axis — one-shard engines
    ///                                  are bit-identical, `sharded:<N>`
    ///                                  is the conservative parallel
    ///                                  engine)
    /// probes=nsys,maxq@10              (default none; shared telemetry
    ///                                  clause, not an axis — a comma-joined
    ///                                  subset of nsys, maxq, drops,
    ///                                  delivered, shards (or all) with an
    ///                                  optional @<dt> interval; probes
    ///                                  never change simulated results or
    ///                                  cell seeds)
    /// service=det|exp                  (default det)
    /// reps=2      seed=7               (defaults 1 and 1)
    /// horizon=2000 warmup=200          (fixed policy, the default)
    /// horizon=auto:1500:12000          (load-adaptive policy)
    /// saturated=true                   (default false)
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Parse`] for malformed input; expansion-time
    /// problems (empty axes, invalid or duplicate cells) surface from
    /// [`SweepSpec::expand`].
    pub fn parse(spec: &str) -> Result<Self, SweepError> {
        let mut sweep = SweepSpec::new();
        let bad = |msg: String| SweepError::Parse(msg);
        let f64_of = |key: &str, v: &str| -> Result<f64, SweepError> {
            v.parse::<f64>()
                .map_err(|_| bad(format!("bad number `{v}` for `{key}`")))
        };
        let mut fixed_horizon: Option<f64> = None;
        let mut warmup: Option<f64> = None;
        let mut auto_horizon: Option<(f64, f64)> = None;
        let mut seen_keys: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for clause in spec.split_whitespace() {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| bad(format!("expected `key=value`, got `{clause}`")))?;
            // `traffic=` and `dest=` spell the same axis.
            let canonical = if key == "dest" { "traffic" } else { key };
            if !seen_keys.insert(canonical) {
                return Err(bad(format!("duplicate clause `{key}=`")));
            }
            match key {
                "topo" => {
                    sweep.topologies = split_axis(value)
                        .map_err(bad)?
                        .into_iter()
                        .map(|head| TopologySpec::parse_head(head).map_err(|e| bad(format!("{e}"))))
                        .collect::<Result<_, _>>()?;
                }
                "load" => {
                    sweep.loads = split_axis(value)
                        .map_err(bad)?
                        .into_iter()
                        .map(|item| parse_load(item).map_err(bad))
                        .collect::<Result<_, _>>()?;
                }
                "router" => {
                    sweep.routers = split_axis(value)
                        .map_err(bad)?
                        .into_iter()
                        .map(|item| RouterSpec::parse_token(item).map_err(bad))
                        .collect::<Result<_, _>>()?;
                }
                "traffic" | "dest" => {
                    sweep.patterns = split_axis(value)
                        .map_err(bad)?
                        .into_iter()
                        .map(|item| PatternSpec::parse_token(item).map_err(bad))
                        .collect::<Result<_, _>>()?;
                }
                "src" => {
                    sweep.source = SourceSpec::parse_token(value).map_err(bad)?;
                }
                "faults" => {
                    sweep.faults = split_axis(value)
                        .map_err(bad)?
                        .into_iter()
                        .map(|item| FaultSpec::parse_token(item).map_err(bad))
                        .collect::<Result<_, _>>()?;
                }
                "engine" => {
                    sweep.engines = split_axis(value)
                        .map_err(bad)?
                        .into_iter()
                        .map(|item| EngineSpec::parse_str(item).map_err(bad))
                        .collect::<Result<_, _>>()?;
                }
                "probes" => {
                    sweep.probes = ProbeSpec::parse_token(value).map_err(bad)?;
                }
                "service" => {
                    sweep.service = match value {
                        "det" | "deterministic" => ServiceKind::Deterministic,
                        "exp" | "exponential" => ServiceKind::Exponential,
                        other => {
                            return Err(bad(format!(
                                "unknown service `{other}` (expected det or exp)"
                            )))
                        }
                    };
                }
                "reps" => {
                    sweep.reps = value
                        .parse::<usize>()
                        .map_err(|_| bad(format!("bad replication count `{value}`")))?;
                }
                "seed" => {
                    sweep.seed = value
                        .parse::<u64>()
                        .map_err(|_| bad(format!("bad seed `{value}`")))?;
                }
                "horizon" => {
                    if let Some(rest) = value.strip_prefix("auto:") {
                        let (base, cap) = rest.split_once(':').ok_or_else(|| {
                            bad(format!(
                                "auto horizon `{value}` must be `auto:<base>:<cap>`"
                            ))
                        })?;
                        auto_horizon =
                            Some((f64_of("horizon base", base)?, f64_of("horizon cap", cap)?));
                    } else if value == "auto" {
                        return Err(bad(
                            "auto horizon needs explicit sizes: `horizon=auto:<base>:<cap>`".into(),
                        ));
                    } else {
                        fixed_horizon = Some(f64_of("horizon", value)?);
                    }
                }
                "warmup" => warmup = Some(f64_of("warmup", value)?),
                "saturated" => {
                    sweep.track_saturated = match value {
                        "true" => true,
                        "false" => false,
                        other => {
                            return Err(bad(format!(
                                "bad boolean `{other}` for `saturated` (expected true or false)"
                            )))
                        }
                    };
                }
                other => return Err(bad(format!("unknown sweep key `{other}`"))),
            }
        }
        if sweep.topologies.is_empty() {
            return Err(bad("a sweep needs a `topo=` axis".into()));
        }
        if sweep.loads.is_empty() {
            return Err(bad("a sweep needs a `load=` axis".into()));
        }
        // A fixed and an auto horizon cannot coexist: both spell their
        // clause `horizon=`, so the duplicate-clause check above already
        // rejected that combination.
        sweep.horizon = match (auto_horizon, fixed_horizon, warmup) {
            (Some(_), _, Some(_)) => {
                return Err(bad("`warmup=` only applies to a fixed horizon".into()))
            }
            (Some((base, cap)), _, None) => HorizonPolicy::Auto { base, cap },
            (None, h, w) => {
                // An explicit horizon without a warmup keeps the default
                // 1:10 warmup ratio rather than the absolute default (a
                // 200-unit warmup would invalidate any shorter horizon).
                let horizon = h.unwrap_or(DEFAULT_HORIZON);
                HorizonPolicy::Fixed {
                    horizon,
                    warmup: w.unwrap_or(horizon * DEFAULT_WARMUP / DEFAULT_HORIZON),
                }
            }
        };
        Ok(sweep)
    }

    /// Renders the sweep as a grammar string [`SweepSpec::parse`] accepts;
    /// non-default clauses only (plus the mandatory axes).
    #[must_use]
    pub fn spec_string(&self) -> String {
        let mut out = String::from("topo=");
        out.push_str(
            &self
                .topologies
                .iter()
                .map(TopologySpec::spec_head)
                .collect::<Vec<_>>()
                .join("|"),
        );
        out.push_str(" load=");
        out.push_str(
            &self
                .loads
                .iter()
                .map(|l| match l {
                    Load::Lambda(v) => format!("lambda:{v}"),
                    Load::TableRho(v) => format!("rho:{v}"),
                    Load::Utilization(v) => format!("util:{v}"),
                })
                .collect::<Vec<_>>()
                .join("|"),
        );
        if self.routers != [RouterSpec::Greedy] {
            out.push_str(" router=");
            out.push_str(
                &self
                    .routers
                    .iter()
                    .map(|r| r.as_str())
                    .collect::<Vec<_>>()
                    .join("|"),
            );
        }
        if self.patterns != [PatternSpec::Uniform] {
            out.push_str(" traffic=");
            out.push_str(
                &self
                    .patterns
                    .iter()
                    .map(|p| {
                        p.spec_token()
                            .expect("matrix patterns are builder-only and cannot reach a sweep")
                    })
                    .collect::<Vec<_>>()
                    .join("|"),
            );
        }
        if !self.source.is_uniform() {
            if let Some(token) = self.source.spec_token() {
                out.push_str(&format!(" src={token}"));
            }
        }
        if self.faults != [None] {
            out.push_str(" faults=");
            out.push_str(
                &self
                    .faults
                    .iter()
                    .map(|f| {
                        f.as_ref()
                            .map_or_else(|| "none".into(), FaultSpec::spec_token)
                    })
                    .collect::<Vec<_>>()
                    .join("|"),
            );
        }
        if let Some(probes) = &self.probes {
            out.push_str(&format!(" probes={}", probes.spec_token()));
        }
        if self.engines != [EngineSpec::Auto] {
            out.push_str(" engine=");
            // Display, not `as_str`: `sharded:<N>` must keep its count to
            // round-trip through `EngineSpec::parse_str`.
            out.push_str(
                &self
                    .engines
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join("|"),
            );
        }
        if self.service == ServiceKind::Exponential {
            out.push_str(" service=exp");
        }
        if self.reps != 1 {
            out.push_str(&format!(" reps={}", self.reps));
        }
        if self.seed != 1 {
            out.push_str(&format!(" seed={}", self.seed));
        }
        match self.horizon {
            HorizonPolicy::Fixed { horizon, warmup }
                if horizon == DEFAULT_HORIZON && warmup == DEFAULT_WARMUP => {}
            HorizonPolicy::Fixed { horizon, warmup } => {
                out.push_str(&format!(" horizon={horizon} warmup={warmup}"));
            }
            HorizonPolicy::Auto { base, cap } => {
                out.push_str(&format!(" horizon=auto:{base}:{cap}"));
            }
        }
        if self.track_saturated {
            out.push_str(" saturated=true");
        }
        out
    }
}

/// `|`-separated axis entries. Empty entries (doubled or trailing `|`)
/// are rejected rather than silently dropped, matching the grammar's
/// otherwise strict handling of malformed input.
fn split_axis(value: &str) -> Result<Vec<&str>, String> {
    if value.split('|').any(str::is_empty) {
        return Err(format!(
            "empty axis entry in `{value}` (doubled or trailing `|`?)"
        ));
    }
    Ok(value.split('|').collect())
}

fn parse_load(item: &str) -> Result<Load, String> {
    let (conv, value) = item
        .split_once(':')
        .ok_or_else(|| format!("load `{item}` must be `<rho|util|lambda>:<value>`"))?;
    let v = value
        .parse::<f64>()
        .map_err(|_| format!("bad number `{value}` in load `{item}`"))?;
    match conv {
        "rho" => Ok(Load::TableRho(v)),
        "util" => Ok(Load::Utilization(v)),
        "lambda" => Ok(Load::Lambda(v)),
        other => Err(format!(
            "unknown load convention `{other}` (expected rho, util or lambda)"
        )),
    }
}

/// The utilization the auto horizon policy scales by: the nominal load
/// value for `rho`/`util` conventions (what the paper's tables index by),
/// the exact peak utilization for raw-λ loads.
fn cell_rho(sc: &Scenario) -> f64 {
    match sc.load {
        Load::TableRho(v) | Load::Utilization(v) => v,
        Load::Lambda(_) => sc.peak_utilization(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SweepSpec {
        SweepSpec::new()
            .topologies(vec![
                TopologySpec::Mesh { rows: 4, cols: 4 },
                TopologySpec::Torus { n: 4 },
            ])
            .loads(vec![Load::TableRho(0.2), Load::TableRho(0.8)])
    }

    #[test]
    fn expansion_counts_multiply_axes() {
        let sweep = small();
        assert_eq!(sweep.num_cells(), 4);
        let cells = sweep.expand().unwrap();
        assert_eq!(cells.len(), 4);
        // Topology-major order.
        assert_eq!(cells[0].topology, TopologySpec::Mesh { rows: 4, cols: 4 });
        assert_eq!(cells[1].topology, TopologySpec::Mesh { rows: 4, cols: 4 });
        assert_eq!(cells[2].topology, TopologySpec::Torus { n: 4 });
    }

    #[test]
    fn empty_axes_are_rejected() {
        assert!(matches!(
            SweepSpec::new().loads(vec![Load::Lambda(0.1)]).expand(),
            Err(SweepError::EmptyAxis(_))
        ));
        assert!(matches!(
            small().routers(Vec::new()).expand(),
            Err(SweepError::EmptyAxis(_))
        ));
        assert!(matches!(
            small().reps(0).expand(),
            Err(SweepError::EmptyAxis(_))
        ));
    }

    #[test]
    fn duplicate_cells_are_rejected() {
        let sweep = small().loads(vec![Load::TableRho(0.5), Load::TableRho(0.5)]);
        assert!(matches!(sweep.expand(), Err(SweepError::DuplicateCell(_))));
    }

    #[test]
    fn invalid_cells_are_rejected_with_the_offending_spec() {
        let sweep = small().routers(vec![RouterSpec::Randomized]);
        match sweep.expand() {
            Err(SweepError::InvalidCell(msg)) => {
                assert!(msg.contains("torus"), "{msg}");
            }
            other => panic!("expected InvalidCell, got {other:?}"),
        }
    }

    #[test]
    fn cell_seeds_are_deterministic_and_distinct() {
        let a = small().expand().unwrap();
        let b = small().expand().unwrap();
        let seeds: Vec<u64> = a.iter().map(|c| c.seed).collect();
        assert_eq!(seeds, b.iter().map(|c| c.seed).collect::<Vec<_>>());
        let unique: std::collections::HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(unique.len(), seeds.len(), "cell seeds collide: {seeds:?}");
        // A different sweep seed moves every cell seed.
        let c = small().seed(99).expand().unwrap();
        assert!(c.iter().zip(&a).all(|(x, y)| x.seed != y.seed));
        // Re-deriving the seed of an already-seeded cell reproduces the
        // value expand() assigned (the seed field itself is not hashed).
        let sweep = small();
        for cell in &a {
            assert_eq!(sweep.cell_seed(cell), cell.seed, "{}", cell.spec_string());
        }
    }

    #[test]
    fn auto_horizon_grows_with_load_and_caps() {
        let sweep = small().horizon(HorizonPolicy::Auto {
            base: 1_000.0,
            cap: 20_000.0,
        });
        let cells = sweep.expand().unwrap();
        // ρ = 0.2 → 1250, ρ = 0.8 → 5000.
        assert!(cells[1].horizon > cells[0].horizon);
        assert!((cells[0].horizon - 1_250.0).abs() < 1e-9);
        assert!((cells[1].horizon - 5_000.0).abs() < 1e-9);
        assert!((cells[0].warmup - cells[0].horizon / 5.0).abs() < 1e-12);
    }

    #[test]
    fn engine_axis_cells_share_seeds_and_parameters() {
        let sweep = small().engines(vec![EngineSpec::Auto, EngineSpec::Heap]);
        assert_eq!(sweep.num_cells(), 8);
        let cells = sweep.expand().unwrap();
        assert_eq!(cells.len(), 8);
        // Engine is the innermost axis; each adjacent pair differs only in
        // engine and shares the derived seed (engines are bit-identical, so
        // the axis is a pure wall-clock ablation).
        for pair in cells.chunks(2) {
            assert_eq!(pair[0].engine, EngineSpec::Auto);
            assert_eq!(pair[1].engine, EngineSpec::Heap);
            assert_eq!(pair[0].seed, pair[1].seed, "{}", pair[0].spec_string());
            let mut a = pair[0].clone();
            a.engine = pair[1].engine;
            assert_eq!(a, pair[1]);
        }
    }

    #[test]
    fn grammar_round_trips() {
        let sweeps = [
            small(),
            small().engines(vec![EngineSpec::Heap, EngineSpec::Calendar]),
            // The sharded engine's count must survive the round trip
            // (`engine=sharded:4`, not a bare `engine=sharded`).
            small().engines(vec![
                EngineSpec::Sharded { shards: 1 },
                EngineSpec::Sharded { shards: 4 },
            ]),
            small()
                .routers(vec![RouterSpec::Greedy, RouterSpec::Randomized])
                .reps(3)
                .seed(42),
            SweepSpec::new()
                .topologies(vec![TopologySpec::Hypercube { dim: 5 }])
                .loads(vec![Load::Utilization(0.5), Load::Lambda(0.25)])
                .patterns(vec![
                    PatternSpec::Uniform,
                    PatternSpec::Bernoulli { p: 0.25 },
                ])
                .service(ServiceKind::Exponential),
            SweepSpec::new()
                .topologies(vec![TopologySpec::Mesh { rows: 4, cols: 4 }])
                .loads(vec![Load::Utilization(0.3)])
                .patterns(vec![
                    PatternSpec::Uniform,
                    PatternSpec::Permutation {
                        kind: meshbound_routing::pattern::PermutationKind::Transpose,
                    },
                    PatternSpec::Hotspot {
                        node: None,
                        frac: 0.25,
                    },
                ])
                .source(SourceSpec::Hotspot {
                    node: Some(0),
                    weight: 4.0,
                }),
            small().horizon(HorizonPolicy::Auto {
                base: 1_500.0,
                cap: 12_000.0,
            }),
            small()
                .horizon(HorizonPolicy::Fixed {
                    horizon: 900.0,
                    warmup: 90.0,
                })
                .track_saturated(true),
        ];
        for sweep in sweeps {
            let spec = sweep.spec_string();
            let parsed = SweepSpec::parse(&spec).unwrap_or_else(|e| panic!("`{spec}`: {e}"));
            assert_eq!(parsed, sweep, "round trip failed for `{spec}`");
        }
    }

    #[test]
    fn grammar_rejects_malformed_specs() {
        for spec in [
            "",
            "load=rho:0.5",
            "topo=mesh:5",
            "topo=mesh:5 load=rho",
            "topo=mesh:5 load=rho:0.5 load=rho:0.2",
            "topo=ring:8 load=rho:0.5",
            "topo=mesh:5 load=watts:0.5",
            "topo=mesh:5 load=rho:0.5 horizon=auto",
            "topo=mesh:5 load=rho:0.5 horizon=auto:100:200 warmup=10",
            "topo=mesh:5 load=rho:0.5 horizon=100 horizon=auto:100:200",
            "topo=mesh:5||torus:8 load=rho:0.5",
            "topo=mesh:5 load=rho:0.2|",
            "topo=mesh:5 load=rho:0.5 jobs=4",
            "topo=mesh:5 load=rho:0.5 reps=none",
            "topo=mesh:5 load=rho:0.5 engine=quantum",
            "topo=mesh:5 load=rho:0.5 engine=heap|",
            "topo=mesh:5 load=rho:0.5 traffic=warp",
            "topo=mesh:5 load=rho:0.5 traffic=uniform dest=uniform",
            "topo=mesh:5 load=rho:0.5 src=rates",
        ] {
            assert!(SweepSpec::parse(spec).is_err(), "`{spec}` should not parse");
        }
    }

    #[test]
    fn traffic_axis_expands_and_round_trips() {
        let sweep = SweepSpec::parse(
            "topo=mesh:4 load=util:0.3 traffic=uniform|transpose|hotspot:0.25 \
             horizon=400 warmup=40",
        )
        .unwrap();
        assert_eq!(sweep.num_cells(), 3);
        let cells = sweep.expand().unwrap();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0].traffic.pattern, PatternSpec::Uniform);
        assert!(matches!(
            cells[1].traffic.pattern,
            PatternSpec::Permutation { .. }
        ));
        assert!(matches!(
            cells[2].traffic.pattern,
            PatternSpec::Hotspot { .. }
        ));
        // Every cell's spec string round-trips through Scenario::parse.
        for cell in &cells {
            let parsed = Scenario::parse(&cell.spec_string()).unwrap();
            assert_eq!(&parsed, cell, "{}", cell.spec_string());
        }
        // And the sweep grammar round-trips through its own spec string.
        assert_eq!(SweepSpec::parse(&sweep.spec_string()).unwrap(), sweep);
        // `dest=` parses as an alias for `traffic=`.
        let legacy = SweepSpec::parse(
            "topo=mesh:4 load=util:0.3 dest=uniform|transpose|hotspot:0.25 \
             horizon=400 warmup=40",
        )
        .unwrap();
        assert_eq!(legacy, sweep);
    }

    #[test]
    fn faults_axis_expands_and_round_trips() {
        let sweep = SweepSpec::parse(
            "topo=mesh:4 load=rho:0.2 faults=none|links:0.05|links:0.1+at:50+repair:100 \
             horizon=400 warmup=40",
        )
        .unwrap();
        assert_eq!(sweep.num_cells(), 3);
        let cells = sweep.expand().unwrap();
        assert_eq!(cells[0].faults, None);
        assert!(cells[1].faults.is_some());
        assert!(cells[2].faults.is_some());
        // Healthy and faulted cells differ in spec, so their derived
        // seeds decorrelate.
        assert_ne!(cells[0].seed, cells[1].seed);
        // Every cell spec round-trips through Scenario::parse, and the
        // sweep grammar through its own spec string.
        for cell in &cells {
            assert_eq!(&Scenario::parse(&cell.spec_string()).unwrap(), cell);
        }
        assert_eq!(SweepSpec::parse(&sweep.spec_string()).unwrap(), sweep);
        // A default (all-healthy) axis emits no faults clause.
        assert!(!small().spec_string().contains("faults"));
        // Malformed fault tokens are parse errors; out-of-range rates and
        // an emptied axis surface at expansion.
        assert!(SweepSpec::parse("topo=mesh:4 load=rho:0.2 faults=warp:1").is_err());
        let bad_rate = SweepSpec::parse("topo=mesh:4 load=rho:0.2 faults=links:2.0").unwrap();
        assert!(matches!(bad_rate.expand(), Err(SweepError::InvalidCell(_))));
        assert!(matches!(
            small().faults(Vec::new()).expand(),
            Err(SweepError::EmptyAxis(_))
        ));
    }

    #[test]
    fn healthy_cell_seeds_are_unchanged_by_the_faults_axis_default() {
        // `faults` defaults to `[None]`, which must leave every pre-fault
        // cell spec string — and therefore every derived seed — untouched.
        let cells = small().expand().unwrap();
        for cell in &cells {
            assert!(
                !cell.spec_string().contains("faults"),
                "{}",
                cell.spec_string()
            );
        }
    }

    #[test]
    fn probes_clause_expands_and_round_trips() {
        let sweep = SweepSpec::parse(
            "topo=mesh:4 load=rho:0.2|rho:0.6 probes=nsys,maxq@10 horizon=400 warmup=40",
        )
        .unwrap();
        let probes = sweep.probes.unwrap();
        assert!(probes.nsys && probes.maxq && !probes.shards);
        assert_eq!(probes.every, Some(10.0));
        // The shared clause reaches every cell, and every cell spec
        // round-trips through Scenario::parse.
        let cells = sweep.expand().unwrap();
        for cell in &cells {
            assert_eq!(cell.probes, Some(probes));
            assert!(cell.spec_string().contains("probes=nsys,maxq@10"));
            assert_eq!(&Scenario::parse(&cell.spec_string()).unwrap(), cell);
        }
        // The sweep grammar round-trips through its own spec string.
        assert_eq!(SweepSpec::parse(&sweep.spec_string()).unwrap(), sweep);
        // `probes=none` spells the default and emits no clause.
        let off =
            SweepSpec::parse("topo=mesh:4 load=rho:0.2|rho:0.6 probes=none horizon=400 warmup=40")
                .unwrap();
        assert_eq!(off.probes, None);
        assert!(!off.spec_string().contains("probes"));
        // Malformed probe tokens are parse errors.
        assert!(SweepSpec::parse("topo=mesh:4 load=rho:0.2 probes=speed").is_err());
        assert!(SweepSpec::parse("topo=mesh:4 load=rho:0.2 probes=nsys@0").is_err());
    }

    #[test]
    fn cell_seeds_are_unchanged_by_probes() {
        // Telemetry never changes the physics, so a probed sweep must
        // replay the exact sample paths — i.e. the exact cell seeds — of
        // its unprobed twin, and default cells carry no probes clause.
        let plain = small().expand().unwrap();
        let probed = small()
            .probes(ProbeSpec::parse_token("all").unwrap())
            .expand()
            .unwrap();
        for (a, b) in plain.iter().zip(&probed) {
            assert_eq!(a.seed, b.seed, "{}", a.spec_string());
            assert!(!a.spec_string().contains("probes"));
            assert!(b.spec_string().contains("probes="));
        }
    }

    #[test]
    fn matrix_patterns_cannot_enter_a_sweep() {
        let sweep = small().patterns(vec![PatternSpec::Matrix {
            rows: vec![vec![1.0; 16]; 16],
        }]);
        assert!(matches!(sweep.expand(), Err(SweepError::InvalidCell(_))));
    }

    #[test]
    fn explicit_horizon_scales_the_default_warmup() {
        // `horizon=100` without `warmup=` must not keep the absolute
        // 200-unit default (which would invalidate every cell); the 1:10
        // ratio applies instead, and the result round-trips.
        let sweep = SweepSpec::parse("topo=mesh:4 load=rho:0.2 horizon=100").unwrap();
        assert_eq!(
            sweep.horizon,
            HorizonPolicy::Fixed {
                horizon: 100.0,
                warmup: 10.0
            }
        );
        assert!(sweep.expand().is_ok());
        assert_eq!(SweepSpec::parse(&sweep.spec_string()).unwrap(), sweep);
    }

    #[test]
    fn parsed_and_built_sweeps_expand_identically() {
        let parsed = SweepSpec::parse("topo=mesh:4|torus:4 load=rho:0.2|rho:0.8").unwrap();
        let built = small();
        assert_eq!(parsed, built);
        let a = parsed.expand().unwrap();
        let b = built.expand().unwrap();
        assert_eq!(a, b);
    }
}

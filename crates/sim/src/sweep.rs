//! [`SweepSpec`]: a declarative grid of [`Scenario`]s.
//!
//! The paper's tables are really *sweeps* — a cartesian product of
//! topology, load, router and traffic axes, one scenario per cell. A sweep
//! spec is a scenario spec whose values may be `|`-separated
//! alternatives, with the topology head spelled `topo=` and three
//! sweep-only settings (`reps=`, `seed=` and the `horizon=`/`warmup=`
//! policy). [`SweepSpec::parse`] expands the alternatives textually and
//! hands every cell to [`Scenario::parse`]'s own parser, so each scenario
//! key is parsed in one place and works in a sweep. The grid expands
//! deterministically ([`SweepSpec::expand`]) and round-trips through
//! [`SweepSpec::spec_string`]:
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
    key_slot, load_parts, spec_clauses, spec_fields, split_clause, Scenario, ScenarioError,
    DEFAULT_HORIZON, DEFAULT_WARMUP,
};
use crate::service::ServiceKind;
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
    /// `reps=0`: the grid has no runs.
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

/// The most cells a sweep may have. Far above any grid worth running, it
/// stops a short spec from describing billions of cells (each clause's
/// alternatives multiply) before they are parsed.
const MAX_CELLS: usize = 1 << 16;

/// The order a sweep nests its `|` alternatives: `topo` outermost, then
/// these settings, then every other setting by name. Fixed, so the cell
/// order does not depend on the order the clauses were written in.
const NESTING: [&str; 5] = ["load", "router", "traffic", "faults", "engine"];

fn nesting_rank(slot: &str) -> (usize, &str) {
    let rank = NESTING.iter().position(|k| *k == slot);
    (rank.unwrap_or(NESTING.len()), slot)
}

/// One scenario setting as [`SweepSpec::spec_string`] renders it: the key,
/// its default token (the clause is left out when that is its only
/// alternative; `None` for a setting without one), and the token of one
/// cell (`None` while the setting is unset).
type Setting = (
    &'static str,
    Option<&'static str>,
    fn(&Scenario) -> Option<String>,
);

/// The settings rendered before the sweep-only clauses, in the canonical
/// order.
const SETTINGS: [Setting; 9] = [
    ("topo", None, |c| Some(c.topology.spec_head())),
    ("load", None, |c| {
        let (convention, value) = load_parts(c.load);
        Some(format!("{convention}:{value}"))
    }),
    ("router", Some("greedy"), |c| Some(c.router.as_str().into())),
    ("traffic", Some("uniform"), |c| {
        c.traffic.pattern.spec_token()
    }),
    ("src", Some("uniform"), |c| c.traffic.source.spec_token()),
    ("faults", Some("none"), |c| {
        Some(
            c.faults
                .as_ref()
                .map_or("none".into(), FaultSpec::spec_token),
        )
    }),
    ("probes", Some("none"), |c| {
        Some(c.probes.map_or("none".into(), |p| p.spec_token()))
    }),
    // Display, not `as_str`: `sharded:<N>` must keep its count.
    ("engine", Some("auto"), |c| Some(c.engine.to_string())),
    ("service", Some("det"), |c| {
        Some(match c.service {
            ServiceKind::Deterministic => "det".into(),
            ServiceKind::Exponential => "exp".into(),
        })
    }),
];

/// The settings rendered after the sweep-only clauses.
const LATE_SETTINGS: [Setting; 6] = [
    ("saturated", Some("false"), |c| {
        Some(c.track_saturated.to_string())
    }),
    ("slot", None, |c| c.slot.map(|v| v.to_string())),
    ("sample", None, |c| c.sample_every.map(|v| v.to_string())),
    ("self", Some("true"), |c| {
        Some(c.include_self_packets.to_string())
    }),
    ("quantiles", Some("false"), |c| {
        Some(c.delay_quantiles.to_string())
    }),
    ("queues", Some("false"), |c| {
        Some(c.track_edge_queues.to_string())
    }),
];

/// A declarative grid of scenarios: the parsed cells plus the knobs that
/// only a sweep has.
///
/// Parse one from the grammar with [`SweepSpec::parse`];
/// [`SweepSpec::expand`] validates the cells, applies the horizon policy
/// and derives each cell's seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// The cells in expansion order, as parsed: default horizon, warmup
    /// and seed, not yet validated.
    cells: Vec<Scenario>,
    /// Each setting with two or more alternatives and its alternative
    /// count, in nesting order. `topo` is nested outside them all, so its
    /// count is what is left of the cell count.
    axes: Vec<(String, usize)>,
    /// Independent replications per cell.
    pub reps: usize,
    /// Sweep master seed; each cell derives its own scenario seed from it.
    pub seed: u64,
    /// Horizon policy shared by every cell.
    pub horizon: HorizonPolicy,
}

impl SweepSpec {
    /// Number of cells the grid expands to (before validation).
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Expands the grid into concrete scenarios, topology-major, then in
    /// the fixed nesting order of the other settings (load, router,
    /// traffic, faults, engine, then the rest by name).
    ///
    /// Every cell gets a seed derived from the sweep seed and the cell's
    /// own parameters (see [`SweepSpec::cell_seed`]), so the expansion is a
    /// pure function of the spec — independent of execution order and
    /// thread count downstream.
    ///
    /// # Errors
    ///
    /// [`SweepError::EmptyAxis`] if `reps` is 0,
    /// [`SweepError::InvalidCell`] if a cell fails [`Scenario::validate`]
    /// (e.g. a randomized router paired with a torus), and
    /// [`SweepError::DuplicateCell`] if two cells coincide.
    pub fn expand(&self) -> Result<Vec<Scenario>, SweepError> {
        if self.reps == 0 {
            return Err(SweepError::EmptyAxis(
                "`reps` has no entries — a sweep needs at least one value per axis".into(),
            ));
        }
        let invalid = |sc: &Scenario, e: ScenarioError| {
            SweepError::InvalidCell(format!("`{}`: {e}", sc.spec_string()))
        };
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        self.cells
            .iter()
            .map(|cell| {
                let (horizon, warmup) = match self.horizon {
                    HorizonPolicy::Fixed { horizon, warmup } => (horizon, warmup),
                    // Validate before `cell_rho` resolves the load
                    // against an unsupported combination.
                    HorizonPolicy::Auto { .. } => {
                        cell.validate().map_err(|e| invalid(cell, e))?;
                        self.horizon.resolve(cell_rho(cell))
                    }
                };
                let mut sc = cell.clone().horizon(horizon).warmup(warmup);
                sc.seed = self.cell_seed(&sc);
                sc.validate().map_err(|e| invalid(&sc, e))?;
                let spec = sc.spec_string();
                if !seen.insert(spec.clone()) {
                    return Err(SweepError::DuplicateCell(format!(
                        "`{spec}` appears twice — deduplicate the axis lists"
                    )));
                }
                Ok(sc)
            })
            .collect()
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

    /// Runs every cell on `engine`, replacing the `engine=` axis (what
    /// `repro sweep --engine` does). Engines are bit-identical and share
    /// cell seeds, so only the wall clock moves.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineSpec) -> Self {
        if let Some(i) = self.axes.iter().position(|(key, _)| key == "engine") {
            let count = self.axes[i].1;
            let stride: usize = self.axes[i + 1..].iter().map(|(_, n)| n).product();
            self.cells = std::mem::take(&mut self.cells)
                .into_iter()
                .enumerate()
                .filter(|(index, _)| (index / stride).is_multiple_of(count))
                .map(|(_, cell)| cell)
                .collect();
            self.axes.remove(i);
        }
        for cell in &mut self.cells {
            cell.engine = engine;
        }
        self
    }

    // ------------------------------------------------------------------
    // The textual grammar.
    // ------------------------------------------------------------------

    /// Parses the sweep grammar: a [`Scenario::parse`] spec whose values
    /// may be `|`-separated alternatives, plus four sweep-only keys.
    ///
    /// ```text
    /// topo=mesh:5|mesh:10|torus:8      (required; the scenario heads)
    /// load=rho:0.2|util:0.9|lambda:0.1 (required, in any load spelling:
    ///                                  also rho=0.2|0.9, util=…, lambda=…)
    /// router=greedy|oddeven            (any other scenario key, e.g.
    /// traffic=uniform|transpose         traffic/dest, src, faults, probes,
    /// faults=none|links:0.05            engine/shards, service, slot,
    /// shards=1|2                        sample, self, saturated,
    ///                                   quantiles, queues)
    /// reps=2      seed=7               (defaults 1 and 1)
    /// horizon=2000 warmup=200          (fixed policy, the default)
    /// horizon=auto:1500:12000          (load-adaptive policy)
    /// ```
    ///
    /// Clauses separate on whitespace and/or commas, and each setting may
    /// be given once, exactly as in [`Scenario::parse`]. The grid is the
    /// cartesian product of the alternatives, nested `topo` first, then
    /// load, router, traffic, faults, engine and every other setting by
    /// name, whatever order the clauses come in. Each cell is parsed by
    /// the scenario parser; the sweep-only keys are not.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Parse`] for malformed input, including a cell
    /// the scenario parser rejects; expansion-time problems (`reps=0`,
    /// invalid or duplicate cells) surface from [`SweepSpec::expand`].
    pub fn parse(spec: &str) -> Result<Self, SweepError> {
        let bad = SweepError::Parse;
        let f64_of = |key: &str, v: &str| -> Result<f64, SweepError> {
            v.parse::<f64>()
                .map_err(|_| bad(format!("bad number `{v}` for `{key}`")))
        };
        let clauses = spec_clauses(spec_fields(spec)).map_err(bad)?;
        let mut heads: Option<Vec<&str>> = None;
        let mut reps = 1;
        let mut seed = 1;
        let mut fixed_horizon: Option<f64> = None;
        let mut warmup: Option<f64> = None;
        let mut auto_horizon: Option<(f64, f64)> = None;
        let mut axes: Vec<(&str, Vec<&str>)> = Vec::new();
        for clause in &clauses {
            let (key, value) = split_clause(clause);
            match key {
                "topo" => heads = Some(split_axis(value)?),
                "reps" => {
                    reps = value
                        .parse::<usize>()
                        .map_err(|_| bad(format!("bad replication count `{value}`")))?;
                }
                "seed" => {
                    seed = value
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
                        let (base, cap) =
                            (f64_of("horizon base", base)?, f64_of("horizon cap", cap)?);
                        if !(base > 0.0 && base.is_finite()) {
                            return Err(bad(format!(
                                "auto horizon base `{base}` must be positive and finite"
                            )));
                        }
                        if cap.is_nan() || cap <= 0.0 {
                            return Err(bad(format!("auto horizon cap `{cap}` must be positive")));
                        }
                        auto_horizon = Some((base, cap));
                    } else if value == "auto" {
                        return Err(bad(
                            "auto horizon needs explicit sizes: `horizon=auto:<base>:<cap>`".into(),
                        ));
                    } else {
                        fixed_horizon = Some(f64_of("horizon", value)?);
                    }
                }
                "warmup" => warmup = Some(f64_of("warmup", value)?),
                _ => axes.push((key, split_axis(value)?)),
            }
        }
        let heads = heads.ok_or_else(|| bad("a sweep needs a `topo=` axis".into()))?;
        if !axes.iter().any(|(key, _)| key_slot(key) == "load") {
            return Err(bad("a sweep needs a `load=` axis".into()));
        }
        // A fixed and an auto horizon cannot coexist: both spell their
        // clause `horizon=`, so the duplicate-clause check already
        // rejected that combination.
        let horizon = match (auto_horizon, fixed_horizon, warmup) {
            (Some(_), _, Some(_)) => {
                return Err(bad("`warmup=` only applies to a fixed horizon".into()))
            }
            (Some((base, cap)), _, None) => HorizonPolicy::Auto { base, cap },
            (None, h, w) => {
                // An explicit horizon without a warmup keeps the default
                // 1:10 warmup ratio rather than the absolute default (a
                // 200-unit warmup would invalidate any shorter horizon).
                // Divided, not multiplied by 200 first, so no finite
                // horizon overflows.
                let horizon = h.unwrap_or(DEFAULT_HORIZON);
                HorizonPolicy::Fixed {
                    horizon,
                    warmup: w.unwrap_or(horizon / (DEFAULT_HORIZON / DEFAULT_WARMUP)),
                }
            }
        };
        axes.sort_by(|a, b| nesting_rank(key_slot(a.0)).cmp(&nesting_rank(key_slot(b.0))));
        let num_cells = axes
            .iter()
            .try_fold(heads.len(), |n, (_, alternatives)| {
                n.checked_mul(alternatives.len())
            })
            .filter(|&n| n <= MAX_CELLS)
            .ok_or_else(|| bad(format!("the grid has more than {MAX_CELLS} cells")))?;
        // Odometer over the alternatives, innermost axis fastest.
        let mut cells = Vec::with_capacity(num_cells);
        let mut pick = vec![0; axes.len()];
        for head in heads {
            loop {
                let mut text = head.to_string();
                for ((key, alternatives), &i) in axes.iter().zip(&pick) {
                    text.push_str(&format!(" {key}={}", alternatives[i]));
                }
                cells.push(Scenario::parse_unvalidated(&text).map_err(|e| match e {
                    ScenarioError::Parse(m) => bad(m),
                    other => bad(other.to_string()),
                })?);
                let Some(turn) = (0..axes.len())
                    .rev()
                    .find(|&a| pick[a] + 1 < axes[a].1.len())
                else {
                    pick.fill(0);
                    break;
                };
                pick[turn] += 1;
                pick[turn + 1..].fill(0);
            }
        }
        Ok(SweepSpec {
            cells,
            axes: axes
                .iter()
                .filter(|(_, alternatives)| alternatives.len() > 1)
                .map(|(key, alternatives)| (key_slot(key).to_string(), alternatives.len()))
                .collect(),
            reps,
            seed,
            horizon,
        })
    }

    /// Renders the sweep in the canonical form [`SweepSpec::parse`]
    /// accepts: `topo=` and `load=`, the other scenario settings in a
    /// fixed order, then `reps=`, `seed=` and the horizon policy, then the
    /// remaining settings. A setting whose only alternative is its default
    /// is left out.
    #[must_use]
    pub fn spec_string(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, &SETTINGS);
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
        self.render(&mut out, &LATE_SETTINGS);
        out.trim_start().to_string()
    }

    /// Appends ` key=a|b…` for each setting, unless its only alternative
    /// is its default.
    fn render(&self, out: &mut String, settings: &[Setting]) {
        for &(key, default, token) in settings {
            let tokens: Vec<Option<String>> = self.alternatives(key).map(token).collect();
            if tokens != [default.map(String::from)] {
                let tokens: Vec<String> = tokens.into_iter().flatten().collect();
                out.push_str(&format!(" {key}={}", tokens.join("|")));
            }
        }
    }

    /// One cell per `|` alternative of setting `key` (`topo` for the
    /// heads): the cells at which that alternative first appears, i.e.
    /// every `stride`-th cell from the first, where `stride` is the
    /// product of the alternative counts nested inside `key`.
    fn alternatives(&self, key: &str) -> impl Iterator<Item = &Scenario> {
        let inner = |from: usize| -> usize { self.axes[from..].iter().map(|(_, n)| n).product() };
        let (count, stride) = if key == "topo" {
            (self.cells.len() / inner(0), inner(0))
        } else {
            match self.axes.iter().position(|(k, _)| k == key) {
                Some(i) => (self.axes[i].1, inner(i + 1)),
                None => (1, 1),
            }
        };
        self.cells.iter().step_by(stride).take(count)
    }
}

/// `|`-separated alternatives. Empty entries (doubled or trailing `|`)
/// are rejected rather than silently dropped, matching the grammar's
/// otherwise strict handling of malformed input.
fn split_axis(value: &str) -> Result<Vec<&str>, SweepError> {
    if value.split('|').any(str::is_empty) {
        return Err(SweepError::Parse(format!(
            "empty axis entry in `{value}` (doubled or trailing `|`?)"
        )));
    }
    Ok(value.split('|').collect())
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
    use crate::scenario::{RouterSpec, TopologySpec};
    use crate::telemetry::ProbeSpec;
    use crate::traffic::PatternSpec;

    const SMALL: &str = "topo=mesh:4|torus:4 load=rho:0.2|rho:0.8";

    fn small() -> SweepSpec {
        SweepSpec::parse(SMALL).unwrap()
    }

    /// [`SMALL`] with extra clauses.
    fn small_with(clauses: &str) -> SweepSpec {
        SweepSpec::parse(&format!("{SMALL} {clauses}")).unwrap()
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
            small_with("reps=0").expand(),
            Err(SweepError::EmptyAxis(_))
        ));
        // An empty value is an empty list of alternatives.
        for spec in [
            "topo= load=rho:0.2",
            "topo=mesh:4 load=",
            "topo=mesh:4 load=rho:0.2 router=",
        ] {
            assert!(
                matches!(SweepSpec::parse(spec), Err(SweepError::Parse(_))),
                "`{spec}`"
            );
        }
    }

    #[test]
    fn duplicate_cells_are_rejected() {
        let sweep = SweepSpec::parse("topo=mesh:4|torus:4 load=rho:0.5|rho:0.5").unwrap();
        assert!(matches!(sweep.expand(), Err(SweepError::DuplicateCell(_))));
    }

    #[test]
    fn invalid_cells_are_rejected_with_the_offending_spec() {
        let sweep = small_with("router=randomized");
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
        let c = small_with("seed=99").expand().unwrap();
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
        let sweep = small_with("horizon=auto:1000:20000");
        let cells = sweep.expand().unwrap();
        // ρ = 0.2 → 1250, ρ = 0.8 → 5000.
        assert!(cells[1].horizon > cells[0].horizon);
        assert!((cells[0].horizon - 1_250.0).abs() < 1e-9);
        assert!((cells[1].horizon - 5_000.0).abs() < 1e-9);
        assert!((cells[0].warmup - cells[0].horizon / 5.0).abs() < 1e-12);
    }

    #[test]
    fn engine_axis_cells_share_seeds_and_parameters() {
        let sweep = small_with("engine=auto|heap");
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
        // Overriding the engine replaces the whole axis.
        let forced = sweep.with_engine(EngineSpec::Calendar);
        assert_eq!(forced.num_cells(), 4);
        let forced_cells = forced.expand().unwrap();
        for (cell, pair) in forced_cells.iter().zip(cells.chunks(2)) {
            let mut a = pair[0].clone();
            a.engine = EngineSpec::Calendar;
            assert_eq!(*cell, a);
        }
        assert_eq!(
            forced.spec_string(),
            format!("{SMALL} engine=calendar"),
            "the override renders as a single-engine sweep"
        );
        assert_eq!(
            small_with("shards=1|2|4").with_engine(EngineSpec::Auto),
            small()
        );
    }

    #[test]
    fn grammar_round_trips() {
        for spec in [
            SMALL.to_string(),
            format!("{SMALL} engine=heap|calendar"),
            // The sharded engine's count must survive the round trip
            // (`engine=sharded:4`, not a bare `engine=sharded`).
            format!("{SMALL} engine=sharded:1|sharded:4"),
            format!("{SMALL} router=greedy|randomized reps=3 seed=42"),
            "topo=hypercube:5 load=util:0.5|lambda:0.25 traffic=uniform|bernoulli:0.25 \
             service=exp"
                .into(),
            "topo=mesh:4 load=util:0.3 traffic=uniform|transpose|hotspot:0.25 src=hotspot:4:0"
                .into(),
            format!("{SMALL} horizon=auto:1500:12000"),
            format!("{SMALL} horizon=900 warmup=90 saturated=true"),
            // Keys the sweep grammar gained from the scenario grammar.
            format!("{SMALL} shards=1|2 slot=0.5|1 sample=10 self=false|true quantiles=true"),
            format!("{SMALL} queues=true|false service=det|exp src=uniform|hotspot:2"),
            "topo=mesh:4 rho=0.2|0.5 dest=uniform|transpose probes=nsys,maxq|all@5".into(),
            "topo=mesh:4,load=util:0.3,faults=none|links:0.1+at:5,probes=drops,delivered".into(),
        ] {
            let sweep = SweepSpec::parse(&spec).unwrap_or_else(|e| panic!("`{spec}`: {e}"));
            let canonical = sweep.spec_string();
            let parsed =
                SweepSpec::parse(&canonical).unwrap_or_else(|e| panic!("`{canonical}`: {e}"));
            assert_eq!(
                parsed, sweep,
                "round trip failed for `{spec}` via `{canonical}`"
            );
            assert_eq!(parsed.spec_string(), canonical);
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
            "topo=mesh:5 load=rho:0.5 rho=0.2",
            "topo=ring:8 load=rho:0.5",
            "topo=mesh:5 load=watts:0.5",
            "topo=mesh:5 load=rho:0.5 horizon=auto",
            "topo=mesh:5 load=rho:0.5 horizon=auto:100:200 warmup=10",
            "topo=mesh:5 load=rho:0.5 horizon=100 horizon=auto:100:200",
            "topo=mesh:5 load=rho:0.5 horizon=auto:100:nan",
            "topo=mesh:5 load=rho:0.5 horizon=auto:nan:100",
            "topo=mesh:5 load=rho:0.5 horizon=auto:inf:100",
            "topo=mesh:5 load=rho:0.5 horizon=auto:0:100",
            "topo=mesh:5 load=rho:0.5 horizon=auto:100:0",
            "topo=mesh:5 load=rho:0.5 horizon=auto:100:-5",
            "topo=mesh:5||torus:8 load=rho:0.5",
            "topo=mesh:5 load=rho:0.2|",
            "topo=mesh:5 load=rho:0.5 jobs=4",
            "topo=mesh:5 load=rho:0.5 reps=none",
            "topo=mesh:5 load=rho:0.5 engine=quantum",
            "topo=mesh:5 load=rho:0.5 engine=heap|",
            "topo=mesh:5 load=rho:0.5 engine=heap shards=2",
            "topo=mesh:5 load=rho:0.5 traffic=warp",
            "topo=mesh:5 load=rho:0.5 traffic=uniform dest=uniform",
            "topo=mesh:5 load=rho:0.5 src=rates",
            "topo=mesh:5 load=rho:0.5 router=greedy router=oddeven",
        ] {
            assert!(SweepSpec::parse(spec).is_err(), "`{spec}` should not parse");
        }
        // 2 × 16⁴ = 2¹⁷ cells from a spec of a few hundred bytes are
        // refused before any is parsed.
        let sixteen = |token: &str| {
            let all: Vec<String> = (1..=16)
                .map(|i| token.replace('#', &i.to_string()))
                .collect();
            all.join("|")
        };
        let huge = format!(
            "topo=mesh:4|mesh:5 rho={} slot={} sample={} faults={}",
            sixteen("0.0#"),
            sixteen("#"),
            sixteen("#"),
            sixteen("link:#")
        );
        match SweepSpec::parse(&huge) {
            Err(SweepError::Parse(msg)) => assert!(msg.contains("cells"), "{msg}"),
            other => panic!("expected a parse error, got {other:?}"),
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
        assert!(!small_with("faults=none").spec_string().contains("faults"));
        // Malformed fault tokens are parse errors; out-of-range rates
        // surface at expansion.
        assert!(SweepSpec::parse("topo=mesh:4 load=rho:0.2 faults=warp:1").is_err());
        let bad_rate = SweepSpec::parse("topo=mesh:4 load=rho:0.2 faults=links:2.0").unwrap();
        assert!(matches!(bad_rate.expand(), Err(SweepError::InvalidCell(_))));
    }

    #[test]
    fn healthy_cell_seeds_are_unchanged_by_the_faults_axis_default() {
        // `faults` defaults to none, which must leave every pre-fault
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
        // The clause reaches every cell, and every cell spec round-trips
        // through Scenario::parse.
        let cells = sweep.expand().unwrap();
        let probes = cells[0].probes.unwrap();
        assert!(probes.nsys && probes.maxq && !probes.shards);
        assert_eq!(probes.every, Some(10.0));
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
        assert!(off.expand().unwrap().iter().all(|c| c.probes.is_none()));
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
        let probed = small_with("probes=all").expand().unwrap();
        assert_eq!(probed[0].probes, ProbeSpec::parse_token("all").unwrap());
        for (a, b) in plain.iter().zip(&probed) {
            assert_eq!(a.seed, b.seed, "{}", a.spec_string());
            assert!(!a.spec_string().contains("probes"));
            assert!(b.spec_string().contains("probes="));
        }
    }

    #[test]
    fn matrix_patterns_cannot_enter_a_sweep() {
        // Traffic matrices are builder-only: no spec token names one.
        for spec in [
            "topo=mesh:4 load=rho:0.2 traffic=matrix",
            "topo=mesh:4 load=rho:0.2 traffic=uniform|matrix",
        ] {
            assert!(
                matches!(SweepSpec::parse(spec), Err(SweepError::Parse(_))),
                "`{spec}`"
            );
        }
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
        // The grammar yields the scenarios the builder API spells out,
        // with the fixed default horizon and the derived seeds.
        let parsed = small();
        let built: Vec<Scenario> = [Scenario::mesh(4), Scenario::torus(4)]
            .into_iter()
            .flat_map(|sc| {
                [0.2, 0.8].map(|rho| {
                    let cell = sc
                        .clone()
                        .load(Load::TableRho(rho))
                        .horizon(2_000.0)
                        .warmup(200.0);
                    let seed = parsed.cell_seed(&cell);
                    cell.seed(seed)
                })
            })
            .collect();
        assert_eq!(parsed.expand().unwrap(), built);
    }

    #[test]
    fn nesting_order_ignores_clause_order() {
        // Cells nest topo, load, router, traffic, faults, engine, then the
        // rest by name, however the clauses are written.
        let a = SweepSpec::parse(
            "topo=mesh:4 traffic=uniform|transpose router=greedy|oddeven load=rho:0.2|rho:0.4 \
             shards=1|2 faults=none|links:0.1 self=true|false",
        )
        .unwrap();
        let b = SweepSpec::parse(
            "self=true|false faults=none|links:0.1 engine=sharded:1|sharded:2 \
             load=rho:0.2|rho:0.4 router=greedy|oddeven topo=mesh:4 dest=uniform|transpose",
        )
        .unwrap();
        assert_eq!(a, b);
        let cells = a.expand().unwrap();
        assert_eq!(cells.len(), 64);
        assert!(!cells[1].include_self_packets);
        assert_eq!(cells[2].engine, EngineSpec::Sharded { shards: 2 });
        assert!(cells[4].faults.is_some());
        assert!(matches!(
            cells[8].traffic.pattern,
            PatternSpec::Permutation { .. }
        ));
        assert_eq!(cells[16].router, RouterSpec::OddEven);
        assert_eq!(cells[32].load, Load::TableRho(0.4));
    }
}

//! **Parametric workload specs**: every generated workload — graph family,
//! size, seed, and family-specific parameters — behind one value,
//! [`WorkloadSpec`], that serializes to a one-line string and parses back.
//!
//! The spec string is the repro currency of the fuzz plane: every fuzz
//! failure prints `td fuzz --spec '<string>'`, and that line alone rebuilds
//! the exact instance (generators are seeded, parameters are integers, no
//! floats in the grammar). Format:
//!
//! ```text
//! <family>:size=<u32>:seed=<u64>[:<param>=<u32>]*
//! ```
//!
//! e.g. `small-world:size=32:seed=7:k=4:p_pct=15:events=10:flip_w=1:ins_w=1:del_w=1`.
//! [`std::fmt::Display`] always prints the full canonical parameter list, so
//! a displayed spec is self-contained; [`WorkloadSpec::parse`] fills omitted
//! keys with the family defaults. Probabilities and exponents ride as
//! integer percent knobs (`p_pct`, `alpha_pct`, `density_pct`).
//!
//! [`WorkloadSpec::build`] materializes the instance: a token game, a graph
//! for the orientation protocol, an assignment instance, or a live graph /
//! instance plus a seeded [`ChurnEvent`] trace drawn from the family's
//! event-mix weights.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::fmt;
use td_assign::repair::AssignChurnEngine;
use td_assign::AssignmentInstance;
use td_core::TokenGame;
use td_graph::{CsrGraph, NodeId};
use td_local::churn::{ChurnEvent, RepairEngine, RepairMode};
use td_orient::repair::OrientChurnEngine;
use td_orient::Orientation;

/// Which pipeline a family's instances run through in the fuzz plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FamilyKind {
    /// A [`TokenGame`] solved by the proposal protocol (Theorem 4.1).
    Game,
    /// A graph stably oriented by the distributed Θ(Δ⁴) protocol
    /// (Theorem 5.1) — bounded-degree families only.
    Orientation,
    /// An [`AssignmentInstance`] solved by the distributed stable /
    /// k-bounded assignment protocol (Theorems 7.3 / 7.5).
    Assignment,
    /// A live graph plus a churn trace through [`OrientChurnEngine`]
    /// (incremental repair vs full recompute).
    ///
    /// [`OrientChurnEngine`]: td_orient::repair::OrientChurnEngine
    OrientChurn,
    /// A live instance plus a churn trace through [`AssignChurnEngine`].
    ///
    /// [`AssignChurnEngine`]: td_assign::repair::AssignChurnEngine
    AssignChurn,
}

impl FamilyKind {
    /// Short label for listings.
    pub fn label(self) -> &'static str {
        match self {
            FamilyKind::Game => "game",
            FamilyKind::Orientation => "orientation",
            FamilyKind::Assignment => "assignment",
            FamilyKind::OrientChurn => "orient-churn",
            FamilyKind::AssignChurn => "assign-churn",
        }
    }
}

/// One declared family parameter: its name, default, and the closed range
/// of values [`WorkloadSpec::validate`] accepts. The bounds replace the
/// scattered `.max(..)`/`.clamp(..)` guards that used to silently rewrite
/// degenerate values inside `build` — an out-of-range parameter is now a
/// parse/build *error*, never a silently different instance.
pub struct ParamInfo {
    /// Parameter key (as it appears in the spec string).
    pub name: &'static str,
    /// Value used when the spec string omits the key.
    pub default: u32,
    /// Smallest accepted value.
    pub min: u32,
    /// Largest accepted value.
    pub max: u32,
}

/// Shorthand constructor for [`ParamInfo`] (keeps the registry readable).
const fn p(name: &'static str, default: u32, min: u32, max: u32) -> ParamInfo {
    ParamInfo {
        name,
        default,
        min,
        max,
    }
}

/// Event-mix weights get a generous but finite ceiling so that summing a
/// family's weights can never overflow `u32` arithmetic in the generators.
const WEIGHT_MAX: u32 = 1 << 20;

/// Static description of one generator family: its name, pipeline kind,
/// default size, accepted size range, size ladder (used by the fuzz
/// corpus), and the canonical parameter list with defaults and bounds.
pub struct FamilyInfo {
    /// Registry name (the first token of the spec string).
    pub name: &'static str,
    /// Pipeline the family's instances run through.
    pub kind: FamilyKind,
    /// Size used when the spec string omits `size=`.
    pub default_size: u32,
    /// Smallest size [`WorkloadSpec::validate`] accepts.
    pub min_size: u32,
    /// Largest size [`WorkloadSpec::validate`] accepts.
    pub max_size: u32,
    /// Sizes the fuzz corpus cycles through.
    pub size_ladder: &'static [u32],
    /// Canonical parameter list, in display order.
    pub params: &'static [ParamInfo],
    /// What the family generates and what `size` means.
    pub about: &'static str,
}

/// Every registered workload family.
pub static FAMILIES: &[FamilyInfo] = &[
    FamilyInfo {
        name: "regular",
        kind: FamilyKind::Orientation,
        default_size: 24,
        min_size: 4,
        max_size: u32::MAX,
        size_ladder: &[16, 24, 32],
        params: &[p("d", 3, 2, 4)],
        about: "random d-regular graph (configuration model); size = nodes (>= d + 2)",
    },
    FamilyInfo {
        name: "grid",
        kind: FamilyKind::Orientation,
        default_size: 6,
        min_size: 2,
        max_size: u32::MAX,
        size_ladder: &[4, 5, 6, 7],
        params: &[],
        about: "side x side grid; size = side length (>= 2)",
    },
    FamilyInfo {
        name: "torus",
        kind: FamilyKind::Orientation,
        default_size: 4,
        min_size: 3,
        max_size: u32::MAX,
        size_ladder: &[3, 4, 5],
        params: &[],
        about: "side x side torus (4-regular); size = side length (>= 3)",
    },
    FamilyInfo {
        name: "hypercube",
        kind: FamilyKind::Orientation,
        default_size: 4,
        min_size: 1,
        max_size: 10,
        size_ladder: &[3, 4],
        params: &[],
        about: "dim-dimensional hypercube (2^dim nodes); size = dim (1..=10)",
    },
    FamilyInfo {
        name: "small-world",
        kind: FamilyKind::OrientChurn,
        default_size: 32,
        min_size: 4,
        max_size: u32::MAX,
        size_ladder: &[24, 32, 48],
        params: &[
            p("k", 4, 2, 1 << 16),
            p("p_pct", 15, 0, 100),
            p("events", 10, 0, 10_000_000),
            p("flip_w", 1, 0, WEIGHT_MAX),
            p("ins_w", 1, 0, WEIGHT_MAX),
            p("del_w", 1, 0, WEIGHT_MAX),
        ],
        about: "Watts-Strogatz ring lattice (degree k, p_pct% rewired) under orientation churn; size = nodes (>= k + 2)",
    },
    FamilyInfo {
        name: "power-law",
        kind: FamilyKind::OrientChurn,
        default_size: 32,
        min_size: 3,
        max_size: u32::MAX,
        size_ladder: &[24, 32, 48],
        params: &[
            p("m", 2, 1, 4),
            p("events", 10, 0, 10_000_000),
            p("flip_w", 2, 0, WEIGHT_MAX),
            p("ins_w", 1, 0, WEIGHT_MAX),
            p("del_w", 1, 0, WEIGHT_MAX),
        ],
        about: "Barabasi-Albert preferential attachment (m edges/node) under orientation churn; size = nodes (>= m + 2)",
    },
    FamilyInfo {
        name: "layered",
        kind: FamilyKind::Game,
        default_size: 6,
        min_size: 2,
        max_size: u32::MAX,
        size_ladder: &[4, 6, 8],
        params: &[
            p("levels", 4, 1, 8),
            p("delta", 3, 1, 6),
            p("density_pct", 50, 1, 100),
        ],
        about: "random layered token game; size = level width (>= 2)",
    },
    FamilyInfo {
        name: "hourglass",
        kind: FamilyKind::Game,
        default_size: 8,
        min_size: 4,
        max_size: u32::MAX,
        size_ladder: &[6, 8, 10],
        params: &[p("delta", 2, 1, 6), p("density_pct", 60, 1, 100)],
        about: "5-level layered game pinched in the middle (funnel contention); size = outer width (>= 4)",
    },
    FamilyInfo {
        name: "rotor",
        kind: FamilyKind::Game,
        default_size: 8,
        min_size: 2,
        max_size: u32::MAX,
        size_ladder: &[6, 10, 14],
        params: &[],
        about: "deterministic circulant rotor sweep (seed ignored); size = width (>= 2)",
    },
    FamilyInfo {
        name: "zipf-cluster",
        kind: FamilyKind::Assignment,
        default_size: 6,
        min_size: 2,
        max_size: u32::MAX,
        size_ladder: &[4, 5, 6],
        params: &[
            p("clusters", 3, 1, u32::MAX),
            p("alpha_pct", 120, 0, 10_000),
            p("cps", 3, 1, 1 << 16),
            p("bound", 2, 0, 1 << 16),
        ],
        about: "clustered Zipf bipartite assignment (cps customers/server, bound = k or 0 for exact); size = servers (>= 2, >= clusters)",
    },
    FamilyInfo {
        name: "uniform-assign",
        kind: FamilyKind::Assignment,
        default_size: 3,
        min_size: 2,
        max_size: u32::MAX,
        size_ladder: &[3, 4, 5],
        params: &[p("cps", 3, 1, 1 << 16), p("bound", 0, 0, 1 << 16)],
        about: "uniform random assignment instance (exact protocol is O(C·S⁴): keep size small at bound=0); size = servers (>= 2)",
    },
    FamilyInfo {
        name: "churn-orient",
        kind: FamilyKind::OrientChurn,
        default_size: 48,
        min_size: 4,
        max_size: u32::MAX,
        size_ladder: &[32, 48, 64],
        params: &[
            p("d", 4, 2, 6),
            p("events", 16, 0, 10_000_000),
            p("flip_w", 2, 0, WEIGHT_MAX),
            p("ins_w", 1, 0, WEIGHT_MAX),
            p("del_w", 1, 0, WEIGHT_MAX),
        ],
        about: "random d-regular graph under a flip/insert/delete event mix; size = nodes (>= d + 2)",
    },
    FamilyInfo {
        name: "churn-assign",
        kind: FamilyKind::AssignChurn,
        default_size: 6,
        min_size: 3,
        max_size: u32::MAX,
        size_ladder: &[4, 6, 8],
        params: &[
            p("events", 16, 0, 10_000_000),
            p("join_w", 3, 0, WEIGHT_MAX),
            p("leave_w", 1, 0, WEIGHT_MAX),
            p("cap_w", 2, 0, WEIGHT_MAX),
        ],
        about: "live assignment under a join/leave/drain event mix; size = servers (>= 3)",
    },
];

/// Looks a family up by name.
pub fn find_family(name: &str) -> Option<&'static FamilyInfo> {
    FAMILIES.iter().find(|f| f.name == name)
}

/// A fully parameterized, seeded workload: one generated instance,
/// reproducible from its one-line string form alone.
///
/// ```
/// use td_bench::spec::{WorkloadInstance, WorkloadSpec};
///
/// // Parsing fills omitted keys with the family defaults…
/// let spec = WorkloadSpec::parse("torus:size=4:seed=7").unwrap();
/// // …and Display always prints the full canonical form (round-trips).
/// assert_eq!(WorkloadSpec::parse(&spec.to_string()).unwrap(), spec);
///
/// // `build` materializes the instance the string names.
/// let WorkloadInstance::Orientation(g) = spec.build().unwrap() else {
///     panic!("torus is an orientation family")
/// };
/// assert_eq!(g.num_nodes(), 16); // 4 x 4, exactly 4-regular
///
/// // Degenerate knobs are rejected, never silently patched up.
/// assert!(WorkloadSpec::parse("torus:size=0").is_err());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Canonical family name (a [`FAMILIES`] entry).
    pub family: &'static str,
    /// The family's one-dimensional size knob.
    pub size: u32,
    /// Generator seed (deterministic families ignore it).
    pub seed: u64,
    /// Full canonical parameter list, in the family's declared order.
    pub params: Vec<(&'static str, u32)>,
}

impl WorkloadSpec {
    /// A spec for `family` with default size, seed 42, default parameters.
    pub fn new(family: &str) -> Result<Self, String> {
        let info = find_family(family).ok_or_else(|| {
            format!(
                "unknown family '{family}' (known: {})",
                FAMILIES
                    .iter()
                    .map(|f| f.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
        Ok(WorkloadSpec {
            family: info.name,
            size: info.default_size,
            seed: 42,
            params: info.params.iter().map(|p| (p.name, p.default)).collect(),
        })
    }

    /// The family's static description.
    pub fn info(&self) -> &'static FamilyInfo {
        find_family(self.family).expect("spec family is registered")
    }

    /// The family's pipeline kind.
    pub fn kind(&self) -> FamilyKind {
        self.info().kind
    }

    /// Value of parameter `name`.
    ///
    /// # Panics
    /// If the family has no such parameter.
    pub fn param(&self, name: &str) -> u32 {
        self.params
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("{}: no parameter '{name}'", self.family))
    }

    /// Returns the spec with `size` replaced.
    pub fn with_size(mut self, size: u32) -> Self {
        self.size = size;
        self
    }

    /// Returns the spec with `seed` replaced.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the spec with parameter `name` set.
    ///
    /// # Panics
    /// If the family has no such parameter.
    pub fn with_param(mut self, name: &str, value: u32) -> Self {
        let slot = self
            .params
            .iter_mut()
            .find(|(k, _)| *k == name)
            .unwrap_or_else(|| panic!("{}: no parameter '{name}'", self.family));
        slot.1 = value;
        self
    }

    /// Parses the one-line form. Omitted keys take family defaults; unknown
    /// families or keys, malformed integers, and duplicate keys are errors.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut parts = s.trim().split(':');
        let family = parts.next().unwrap_or("");
        let mut spec = WorkloadSpec::new(family)?;
        let mut seen: Vec<&str> = Vec::new();
        for part in parts {
            let (key, raw) = part
                .split_once('=')
                .ok_or_else(|| format!("'{part}': expected key=value"))?;
            if seen.contains(&key) {
                return Err(format!("duplicate key '{key}'"));
            }
            match key {
                "size" => {
                    spec.size = raw
                        .parse()
                        .map_err(|_| format!("size '{raw}': not a u32"))?;
                }
                "seed" => {
                    spec.seed = raw
                        .parse()
                        .map_err(|_| format!("seed '{raw}': not a u64"))?;
                }
                _ => {
                    let value: u32 = raw
                        .parse()
                        .map_err(|_| format!("{key} '{raw}': not a u32"))?;
                    let slot = spec
                        .params
                        .iter_mut()
                        .find(|(k, _)| *k == key)
                        .ok_or_else(|| format!("{family}: unknown parameter '{key}'"))?;
                    slot.1 = value;
                }
            }
            // `seen` borrows from `part`, which lives as long as `s`.
            seen.push(key);
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Checks `size` and every parameter against the family's declared
    /// bounds, plus the structural rules the generators rely on. Both
    /// [`parse`](Self::parse) and [`build`](Self::build) run this, so a spec
    /// assembled via `with_size`/`with_param` is still checked before it can
    /// materialize an instance.
    pub fn validate(&self) -> Result<(), String> {
        let info = self.info();
        if self.size < info.min_size || self.size > info.max_size {
            return Err(format!(
                "{}: size {} out of range [{}, {}]",
                self.family, self.size, info.min_size, info.max_size
            ));
        }
        for pi in info.params {
            let v = self.param(pi.name);
            if v < pi.min || v > pi.max {
                return Err(format!(
                    "{}: {} {} out of range [{}, {}]",
                    self.family, pi.name, v, pi.min, pi.max
                ));
            }
        }
        // Structural rules that couple size to a parameter, or parameters to
        // each other — the generators assume these hold.
        let floor = |knob: &str, need: u32| -> Result<(), String> {
            if self.size < need {
                Err(format!(
                    "{}: size {} too small for {knob} (need >= {need})",
                    self.family, self.size
                ))
            } else {
                Ok(())
            }
        };
        match self.family {
            "regular" => floor("d", self.param("d") + 2)?,
            "churn-orient" => floor("d", self.param("d") + 2)?,
            "small-world" => floor("k", self.param("k") + 2)?,
            "power-law" => floor("m", self.param("m") + 2)?,
            "zipf-cluster" if self.param("clusters") > self.size => {
                return Err(format!(
                    "{}: clusters {} exceeds size {}",
                    self.family,
                    self.param("clusters"),
                    self.size
                ));
            }
            _ => {}
        }
        match self.kind() {
            FamilyKind::OrientChurn => {
                let sum = self.param("flip_w") + self.param("ins_w") + self.param("del_w");
                if sum == 0 {
                    return Err(format!(
                        "{}: event-mix weights sum to 0 (flip_w + ins_w + del_w must be >= 1)",
                        self.family
                    ));
                }
            }
            FamilyKind::AssignChurn => {
                let sum = self.param("join_w") + self.param("leave_w") + self.param("cap_w");
                if sum == 0 {
                    return Err(format!(
                        "{}: event-mix weights sum to 0 (join_w + leave_w + cap_w must be >= 1)",
                        self.family
                    ));
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Materializes the instance this spec describes, after
    /// [`validate`](Self::validate)-ing it.
    pub fn build(&self) -> Result<WorkloadInstance, String> {
        self.validate()?;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        Ok(match self.family {
            "regular" => {
                let d = self.param("d") as usize;
                let mut n = self.size as usize;
                if (n * d) % 2 == 1 {
                    n += 1;
                }
                let g = td_graph::gen::random::random_regular(n, d, &mut rng, 500)
                    .expect("configuration model converges");
                WorkloadInstance::Orientation(g)
            }
            "grid" => {
                let side = self.size as usize;
                WorkloadInstance::Orientation(td_graph::gen::classic::grid(side, side))
            }
            "torus" => {
                let side = self.size as usize;
                WorkloadInstance::Orientation(td_graph::gen::classic::torus(side, side))
            }
            "hypercube" => {
                let dim = self.size as usize;
                WorkloadInstance::Orientation(td_graph::gen::classic::hypercube(dim))
            }
            "small-world" => {
                // Ring-lattice degree must be even; k rounds down.
                let k = (self.param("k") as usize / 2) * 2;
                let n = self.size as usize;
                let p = f64::from(self.param("p_pct")) / 100.0;
                let g = td_graph::gen::random::small_world(n, k, p, &mut rng);
                let trace = self.orient_trace(&g, &mut rng);
                WorkloadInstance::OrientChurn { graph: g, trace }
            }
            "power-law" => {
                let m = self.param("m") as usize;
                let n = self.size as usize;
                let g = td_graph::gen::random::preferential_attachment(n, m, &mut rng);
                let trace = self.orient_trace(&g, &mut rng);
                WorkloadInstance::OrientChurn { graph: g, trace }
            }
            "layered" => {
                let width = self.size as usize;
                let levels = self.param("levels") as usize;
                let delta = self.param("delta") as usize;
                let density = f64::from(self.param("density_pct")) / 100.0;
                let widths = vec![width; levels + 1];
                WorkloadInstance::Game(TokenGame::random(&widths, delta, density, &mut rng))
            }
            "hourglass" => {
                let w = self.size as usize;
                let delta = self.param("delta") as usize;
                let density = f64::from(self.param("density_pct")) / 100.0;
                let widths = [w, w / 2, w / 4, w / 2, w];
                WorkloadInstance::Game(TokenGame::random(&widths, delta, density, &mut rng))
            }
            "rotor" => {
                let w = self.size as usize;
                WorkloadInstance::Game(crate::scenario::rotor_sweep_game(w))
            }
            "zipf-cluster" => {
                let ns = self.size as usize;
                let clusters = self.param("clusters") as usize;
                let alpha = f64::from(self.param("alpha_pct")) / 100.0;
                let nc = self.param("cps") as usize * ns;
                let g = td_graph::gen::random::clustered_zipf_bipartite(
                    nc,
                    ns,
                    clusters,
                    1..=3.min(ns),
                    alpha,
                    &mut rng,
                );
                let inst = AssignmentInstance::from_bipartite_graph(&g, nc);
                let b = self.param("bound");
                WorkloadInstance::Assignment {
                    inst,
                    bound: (b > 0).then_some(b),
                }
            }
            "uniform-assign" => {
                let ns = self.size as usize;
                let nc = self.param("cps") as usize * ns;
                let inst = AssignmentInstance::random(nc, ns, 1..=3.min(ns), &mut rng);
                let b = self.param("bound");
                WorkloadInstance::Assignment {
                    inst,
                    bound: (b > 0).then_some(b),
                }
            }
            "churn-orient" => {
                let d = self.param("d") as usize;
                let mut n = self.size as usize;
                if (n * d) % 2 == 1 {
                    n += 1;
                }
                let g = td_graph::gen::random::random_regular(n, d, &mut rng, 500)
                    .expect("configuration model converges");
                let trace = self.orient_trace(&g, &mut rng);
                WorkloadInstance::OrientChurn { graph: g, trace }
            }
            "churn-assign" => {
                let ns = self.size as usize;
                let base = AssignmentInstance::random(2 * ns, ns, 2..=3.min(ns), &mut rng);
                let trace = self.assign_trace(&base, ns, &mut rng);
                WorkloadInstance::AssignChurn { base, trace }
            }
            other => unreachable!("unregistered family '{other}'"),
        })
    }

    /// A seeded flip/insert/delete event trace over `g`, valid by
    /// construction: the generator tracks the evolving edge set, so flips
    /// and deletes always name a live edge and inserts never duplicate one.
    fn orient_trace(&self, g: &CsrGraph, rng: &mut SmallRng) -> Vec<ChurnEvent> {
        let events = self.param("events");
        let (fw, iw, dw) = (
            self.param("flip_w"),
            self.param("ins_w"),
            self.param("del_w"),
        );
        // validate() guarantees a nonzero sum (and WEIGHT_MAX keeps it from
        // overflowing).
        let total = fw + iw + dw;
        let n = g.num_nodes() as u32;
        let mut live: Vec<(u32, u32)> = g.edge_list().map(|(_, u, v)| (u.0, v.0)).collect();
        let mut present: HashSet<(u32, u32)> =
            live.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        let mut trace = Vec::with_capacity(events as usize);
        for _ in 0..events {
            let mut roll = rng.gen_range(0..total);
            // Insert when rolled (and a non-edge is found), delete when
            // rolled (keeping a floor of edges), otherwise flip.
            if roll < iw && n >= 2 {
                let mut found = None;
                for _ in 0..64 {
                    let u = rng.gen_range(0..n);
                    let v = rng.gen_range(0..n);
                    if u != v && !present.contains(&(u.min(v), u.max(v))) {
                        found = Some((u, v));
                        break;
                    }
                }
                if let Some((u, v)) = found {
                    present.insert((u.min(v), u.max(v)));
                    live.push((u, v));
                    trace.push(ChurnEvent::EdgeInsert {
                        u: NodeId(u),
                        v: NodeId(v),
                    });
                    continue;
                }
                roll = iw; // graph is complete: fall through
            }
            if roll < iw + dw && live.len() > (n as usize) / 2 {
                let k = rng.gen_range(0..live.len());
                let (u, v) = live.swap_remove(k);
                present.remove(&(u.min(v), u.max(v)));
                trace.push(ChurnEvent::EdgeDelete {
                    u: NodeId(u),
                    v: NodeId(v),
                });
                continue;
            }
            if live.is_empty() {
                continue;
            }
            let &(u, v) = &live[rng.gen_range(0..live.len())];
            trace.push(ChurnEvent::EdgeFlip {
                u: NodeId(u),
                v: NodeId(v),
            });
        }
        trace
    }

    /// A seeded join/leave/drain trace for a live assignment over `ns`
    /// servers. Valid by construction: leaves name alive customers, at most
    /// one server is drained at a time (and every customer has >= 2
    /// candidates, so an available server always remains), and capacity
    /// events strictly alternate drain/restore per server.
    fn assign_trace(
        &self,
        base: &AssignmentInstance,
        ns: usize,
        rng: &mut SmallRng,
    ) -> Vec<ChurnEvent> {
        let events = self.param("events");
        let (jw, lw, cw) = (
            self.param("join_w"),
            self.param("leave_w"),
            self.param("cap_w"),
        );
        // validate() guarantees a nonzero sum.
        let total = jw + lw + cw;
        let mut alive: Vec<u32> = (0..base.num_customers() as u32).collect();
        let mut next_id = base.num_customers() as u32;
        let mut drained: Option<u32> = None;
        let mut trace = Vec::with_capacity(events as usize);
        for _ in 0..events {
            let roll = rng.gen_range(0..total);
            if roll < cw {
                match drained.take() {
                    Some(s) => trace.push(ChurnEvent::ServerCapacity {
                        server: s,
                        capacity: 1,
                    }),
                    None => {
                        let s = rng.gen_range(0..ns as u32);
                        drained = Some(s);
                        trace.push(ChurnEvent::ServerCapacity {
                            server: s,
                            capacity: 0,
                        });
                    }
                }
            } else if roll < cw + lw && alive.len() > ns {
                let k = rng.gen_range(0..alive.len());
                trace.push(ChurnEvent::CustomerLeave(alive.swap_remove(k)));
            } else {
                let want = 2.min(ns) + rng.gen_range(0..=1usize).min(ns.saturating_sub(2));
                let mut servers: Vec<u32> = Vec::with_capacity(want);
                while servers.len() < want {
                    let s = rng.gen_range(0..ns as u32);
                    if !servers.contains(&s) {
                        servers.push(s);
                    }
                }
                alive.push(next_id);
                next_id += 1;
                trace.push(ChurnEvent::CustomerJoin { servers });
            }
        }
        trace
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:size={}:seed={}", self.family, self.size, self.seed)?;
        for (k, v) in &self.params {
            write!(f, ":{k}={v}")?;
        }
        Ok(())
    }
}

/// A materialized workload: what [`WorkloadSpec::build`] hands to the
/// family's pipeline.
#[derive(Clone)]
pub enum WorkloadInstance {
    /// A token dropping game (proposal protocol pipeline).
    Game(TokenGame),
    /// A graph for the distributed stable-orientation protocol.
    Orientation(CsrGraph),
    /// An assignment instance plus the protocol bound (`None` = exact).
    Assignment {
        /// The instance.
        inst: AssignmentInstance,
        /// `Some(k)` runs the k-bounded relaxation, `None` the exact protocol.
        bound: Option<u32>,
    },
    /// A live graph plus a churn trace for the orientation repair engine.
    OrientChurn {
        /// The initial graph.
        graph: CsrGraph,
        /// The event trace (valid by construction).
        trace: Vec<ChurnEvent>,
    },
    /// A live instance plus a churn trace for the assignment repair engine.
    AssignChurn {
        /// The initial instance.
        base: AssignmentInstance,
        /// The event trace (valid by construction).
        trace: Vec<ChurnEvent>,
    },
}

impl WorkloadInstance {
    /// The churn engine for a churn instance, plus its event trace: the
    /// one place the drivers build an engine. Orientations start from
    /// [`Orientation::toward_larger`], assignments from all customers
    /// unassigned. `stamp_horizon` is a test hook: it lowers the stamp
    /// renormalization horizon (see
    /// [`td_local::ChurnSim::set_stamp_horizon`]) and caps single repair
    /// runs at half of it, so headroom always exists. `None` if the
    /// instance is not a churn instance.
    pub fn into_engine(
        self,
        mode: RepairMode,
        threads: usize,
        shards: usize,
        stamp_horizon: Option<u32>,
    ) -> Option<(Box<dyn RepairEngine>, Vec<ChurnEvent>)> {
        Some(match self {
            WorkloadInstance::OrientChurn { graph, trace } => {
                let o = Orientation::toward_larger(&graph);
                let mut e = OrientChurnEngine::new(graph, o, mode)
                    .with_threads(threads)
                    .with_shards(shards);
                if let Some(h) = stamp_horizon {
                    e = e.with_max_rounds(h / 2).with_stamp_horizon(h);
                }
                (Box::new(e), trace)
            }
            WorkloadInstance::AssignChurn { base, trace } => {
                let mut e = AssignChurnEngine::new(&base, mode)
                    .with_threads(threads)
                    .with_shards(shards);
                if let Some(h) = stamp_horizon {
                    e = e.with_max_rounds(h / 2).with_stamp_horizon(h);
                }
                (Box::new(e), trace)
            }
            _ => return None,
        })
    }
}

/// Renders the family registry as an aligned listing (used by `td fuzz`).
pub fn family_listing() -> String {
    let mut t = crate::Table::new(&["family", "kind", "size", "params", "description"]);
    for f in FAMILIES {
        let params = f
            .params
            .iter()
            .map(|p| format!("{}={}", p.name, p.default))
            .collect::<Vec<_>>()
            .join(" ");
        t.row(vec![
            f.name.to_string(),
            f.kind.label().to_string(),
            f.default_size.to_string(),
            if params.is_empty() {
                "-".into()
            } else {
                params
            },
            f.about.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_have_unique_names_and_nonempty_ladders() {
        let mut names: Vec<&str> = FAMILIES.iter().map(|f| f.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate family names");
        for f in FAMILIES {
            assert!(!f.size_ladder.is_empty(), "{}: empty ladder", f.name);
            assert!(find_family(f.name).is_some());
        }
        assert!(find_family("no-such-family").is_none());
    }

    #[test]
    fn display_parse_roundtrip_for_every_family() {
        for f in FAMILIES {
            let spec = WorkloadSpec::new(f.name)
                .unwrap()
                .with_size(f.size_ladder[0])
                .with_seed(7);
            let s = spec.to_string();
            let back = WorkloadSpec::parse(&s).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(spec, back, "{s}");
        }
    }

    #[test]
    fn parse_fills_defaults_and_rejects_garbage() {
        let spec = WorkloadSpec::parse("layered:seed=9").unwrap();
        assert_eq!(spec.size, 6);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.param("delta"), 3);

        assert!(WorkloadSpec::parse("no-such-family").is_err());
        assert!(WorkloadSpec::parse("layered:delta").is_err());
        assert!(WorkloadSpec::parse("layered:delta=x").is_err());
        assert!(WorkloadSpec::parse("layered:bogus=3").is_err());
        assert!(WorkloadSpec::parse("layered:size=1:size=2").is_err());
        assert!(WorkloadSpec::parse("layered:seed=-1").is_err());
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        // size=0 / zero-valued params used to slip through and build
        // silently-patched instances; they are now parse/build errors.
        for bad in [
            "torus:size=0",
            "grid:size=0",
            "grid:size=1",
            "hypercube:size=0",
            "hypercube:size=11",
            "regular:size=24:d=1",
            "regular:size=24:d=5",
            "regular:size=4:d=3", // size < d + 2
            "small-world:size=32:k=40",
            "small-world:p_pct=200",
            "power-law:size=3:m=2", // size < m + 2
            "layered:levels=0",
            "layered:density_pct=0",
            "layered:density_pct=101",
            "hourglass:size=3",
            "zipf-cluster:size=2:clusters=3",
            "zipf-cluster:cps=0",
            "uniform-assign:size=1",
            "churn-orient:flip_w=0:ins_w=0:del_w=0",
            "churn-assign:join_w=0:leave_w=0:cap_w=0",
            "churn-assign:size=2",
        ] {
            assert!(WorkloadSpec::parse(bad).is_err(), "{bad}: should reject");
        }
        // build() re-validates, so with_size/with_param can't sneak a
        // degenerate spec past parse().
        let spec = WorkloadSpec::new("torus").unwrap().with_size(0);
        assert!(spec.validate().is_err());
        assert!(spec.build().is_err());
    }

    #[test]
    fn validation_accepts_defaults_and_single_zero_weights() {
        for f in FAMILIES {
            let spec = WorkloadSpec::new(f.name).unwrap();
            assert!(spec.validate().is_ok(), "{}: default spec", f.name);
            assert!(spec.build().is_ok(), "{}: default build", f.name);
        }
        // Individual weights may be zero as long as the mix sums to >= 1
        // (the serve stamp-horizon test runs a pure-flip mix this way).
        let spec = WorkloadSpec::parse("churn-orient:flip_w=1:ins_w=0:del_w=0").unwrap();
        assert!(spec.build().is_ok());
    }

    #[test]
    fn build_is_deterministic_per_spec() {
        for f in FAMILIES {
            let spec = WorkloadSpec::new(f.name).unwrap().with_seed(3);
            let (a, b) = (spec.build().unwrap(), spec.build().unwrap());
            let shape = |w: &WorkloadInstance| match w {
                WorkloadInstance::Game(g) => (g.num_nodes(), g.graph().num_edges()),
                WorkloadInstance::Orientation(g) => (g.num_nodes(), g.num_edges()),
                WorkloadInstance::Assignment { inst, .. } => {
                    (inst.num_customers(), inst.num_servers())
                }
                WorkloadInstance::OrientChurn { graph, trace } => {
                    (graph.num_nodes(), graph.num_edges() + trace.len())
                }
                WorkloadInstance::AssignChurn { base, trace } => {
                    (base.num_customers(), trace.len())
                }
            };
            assert_eq!(shape(&a), shape(&b), "{}", f.name);
        }
    }

    #[test]
    fn orient_traces_stay_valid_under_mutation() {
        // The trace generator tracks the evolving edge set; every flip and
        // delete must name an edge that exists at that point in the trace.
        let spec = WorkloadSpec::parse("churn-orient:size=32:seed=5:events=40").unwrap();
        let WorkloadInstance::OrientChurn { graph, trace } = spec.build().unwrap() else {
            panic!("churn-orient builds a churn instance");
        };
        assert_eq!(trace.len(), 40);
        let mut present: HashSet<(u32, u32)> = graph
            .edge_list()
            .map(|(_, u, v)| (u.0.min(v.0), u.0.max(v.0)))
            .collect();
        for ev in &trace {
            match ev {
                ChurnEvent::EdgeFlip { u, v } => {
                    assert!(present.contains(&(u.0.min(v.0), u.0.max(v.0))), "{ev:?}");
                }
                ChurnEvent::EdgeInsert { u, v } => {
                    assert!(present.insert((u.0.min(v.0), u.0.max(v.0))), "{ev:?}");
                }
                ChurnEvent::EdgeDelete { u, v } => {
                    assert!(present.remove(&(u.0.min(v.0), u.0.max(v.0))), "{ev:?}");
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn assign_traces_respect_capacity_alternation() {
        let spec = WorkloadSpec::parse("churn-assign:size=5:seed=8:events=40").unwrap();
        let WorkloadInstance::AssignChurn { base, trace } = spec.build().unwrap() else {
            panic!("churn-assign builds a churn instance");
        };
        assert_eq!(trace.len(), 40);
        let mut alive: HashSet<u32> = (0..base.num_customers() as u32).collect();
        let mut next = base.num_customers() as u32;
        let mut drained: Option<u32> = None;
        for ev in &trace {
            match ev {
                ChurnEvent::CustomerJoin { servers } => {
                    assert!(servers.len() >= 2, "{ev:?}");
                    alive.insert(next);
                    next += 1;
                }
                ChurnEvent::CustomerLeave(c) => assert!(alive.remove(c), "{ev:?}"),
                ChurnEvent::ServerCapacity { server, capacity } => {
                    if *capacity == 0 {
                        assert_eq!(drained, None, "double drain {ev:?}");
                        drained = Some(*server);
                    } else {
                        assert_eq!(drained, Some(*server), "restore mismatch {ev:?}");
                        drained = None;
                    }
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }
}

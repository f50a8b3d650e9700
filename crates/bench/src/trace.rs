//! The **portable trace plane**: a schema-versioned on-disk format for
//! churn event streams, recorded-workload *shapes* beyond the generator
//! mixes, and deterministic replay into every consumer the repo has.
//!
//! A trace file (`td-trace/v1`) is a plain-text artifact: a header binding
//! the base instance (the canonical [`WorkloadSpec`] string — graph family,
//! size, seed), the recording source, the event count, and an FNV-1a
//! content fingerprint; then one [`ChurnEvent`] per line (the
//! [`ChurnEvent::encode`] grammar); then an `end` sentinel. Everything a
//! replay needs rides in the file — no side channel, no environment.
//!
//! ```text
//! td-trace/v1
//! spec churn-orient:size=48:seed=7:d=4:events=16:flip_w=2:ins_w=1:del_w=1
//! source spec
//! events 16
//! fingerprint 8d4f0b2a91c37e56
//! ---
//! flip 3 41
//! ins 17 29
//! ...
//! end
//! ```
//!
//! **One trace, four consumers.** [`replay_engine`] drives the incremental
//! repair engines over any thread × shard grid, [`replay_differential`]
//! runs the fuzz plane's full differential (incremental vs recompute,
//! executor grid, metamorphic relabeling) on the recorded events, and
//! [`replay_serve`] streams the trace through the `td serve` daemon. All
//! consumers are bit-identical to the generator path: churn families draw
//! the base instance *before* the event mix, so rebuilding the spec and
//! substituting the recorded events reproduces exactly the run that was
//! recorded.
//!
//! **Shapes.** [`SHAPES`] registers recorded workload shapes the generator
//! mixes cannot express — diurnal sine load, correlated rack-failure
//! bursts, cascading drain waves, flash crowds with decay, and an
//! adversarial hotspot-chaser that runs a live repair engine *during
//! generation* to always attack the currently heaviest node. Shape traces
//! are seeded and re-derivable: the header records `source shape:<name>`,
//! so [`Trace::reseed`] can regenerate the same shape under a new seed.

use std::collections::HashSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use td_assign::AssignmentInstance;
use td_graph::{CsrGraph, NodeId};
use td_local::{ChurnEvent, RepairMode, RepairStats};
use td_orient::repair::OrientChurnEngine;
use td_orient::Orientation;

use crate::fuzz::{self, FuzzReport};
use crate::serve::{fnv1a_words, serve, ServeConfig, ServeReport};
use crate::spec::{FamilyKind, WorkloadInstance, WorkloadSpec};
use crate::Table;

/// Version tag on the first line of every trace file.
pub const SCHEMA: &str = "td-trace/v1";

/// Salt mixed into the workload seed for shape-generator randomness, so a
/// shape's event stream is decorrelated from the base-instance generator
/// that consumed the unsalted seed.
const SHAPE_SALT: u64 = 0x0074_6472_6163_6531; // "tdtrace1"

// ---------------------------------------------------------------- source ---

/// Where a trace's events came from — recorded in the header so
/// [`Trace::reseed`] knows how to regenerate the stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceSource {
    /// The spec's own seeded event mix (`source spec`).
    SpecMix,
    /// A registered workload shape (`source shape:<name>`).
    Shape(String),
}

impl TraceSource {
    fn label(&self) -> String {
        match self {
            TraceSource::SpecMix => "spec".to_string(),
            TraceSource::Shape(name) => format!("shape:{name}"),
        }
    }

    fn parse(raw: &str) -> Result<Self, String> {
        if raw == "spec" {
            return Ok(TraceSource::SpecMix);
        }
        if let Some(name) = raw.strip_prefix("shape:") {
            find_shape(name)?;
            return Ok(TraceSource::Shape(name.to_string()));
        }
        Err(format!("source '{raw}': expected 'spec' or 'shape:<name>'"))
    }
}

// ---------------------------------------------------------------- shapes ---

/// Static description of one recorded workload shape.
pub struct ShapeInfo {
    /// Registry name (`td trace record --shape <name>`).
    pub name: &'static str,
    /// Base spec family the shape's instance comes from.
    pub family: &'static str,
    /// Size used when the caller does not override it.
    pub default_size: u32,
    /// Event count used when the caller does not override it.
    pub default_events: u32,
    /// What the shape models.
    pub about: &'static str,
}

/// Every registered workload shape.
pub static SHAPES: &[ShapeInfo] = &[
    ShapeInfo {
        name: "diurnal",
        family: "small-world",
        default_size: 48,
        default_events: 96,
        about: "sine-modulated day/night cycle: inserts peak at midday, deletes at night, flips all day",
    },
    ShapeInfo {
        name: "rack-burst",
        family: "churn-orient",
        default_size: 48,
        default_events: 96,
        about: "correlated rack failures: bursts of edge deletions per contiguous id block, then staggered recovery",
    },
    ShapeInfo {
        name: "drain-wave",
        family: "churn-assign",
        default_size: 8,
        default_events: 96,
        about: "cascading drain wave: servers drained and restored one after another while customers churn",
    },
    ShapeInfo {
        name: "flash-crowd",
        family: "churn-assign",
        default_size: 8,
        default_events: 96,
        about: "flash crowd with decay: a join surge decaying geometrically into a leave-dominated tail",
    },
    ShapeInfo {
        name: "hotspot",
        family: "churn-orient",
        default_size: 48,
        default_events: 64,
        about: "adversarial hotspot-chaser: every flip re-targets the currently heaviest node (engine-in-the-loop)",
    },
];

/// Looks a shape up by name.
pub fn find_shape(name: &str) -> Result<&'static ShapeInfo, String> {
    SHAPES.iter().find(|s| s.name == name).ok_or_else(|| {
        format!(
            "unknown shape '{name}' (known: {})",
            SHAPES.iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
        )
    })
}

/// Renders the shape registry as an aligned listing (`td trace shapes`).
pub fn shape_listing() -> String {
    let mut t = Table::new(&["shape", "family", "size", "events", "description"]);
    for s in SHAPES {
        t.row(vec![
            s.name.to_string(),
            s.family.to_string(),
            s.default_size.to_string(),
            s.default_events.to_string(),
            s.about.to_string(),
        ]);
    }
    t.render()
}

// ----------------------------------------------------------------- trace ---

/// A recorded churn trace: the base-instance spec, the recording source,
/// and the event stream. Serializes to / parses from the `td-trace/v1`
/// text format via [`write`](Trace::write) / [`read`](Trace::read).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Base instance binding: family, size, seed, params. The spec's
    /// `events` knob always equals `events.len()`.
    pub spec: WorkloadSpec,
    /// How the stream was produced.
    pub source: TraceSource,
    /// The recorded events, in application order.
    pub events: Vec<ChurnEvent>,
}

impl Trace {
    /// Records the spec's own generated event mix (the `td trace record
    /// --spec` path; also exactly what a `td serve` run over the same spec
    /// and budget streams).
    pub fn from_spec(spec: &WorkloadSpec) -> Result<Trace, String> {
        let events = match spec.build()? {
            WorkloadInstance::OrientChurn { trace, .. } => trace,
            WorkloadInstance::AssignChurn { trace, .. } => trace,
            _ => {
                return Err(format!(
                    "'{}' is not a churn family; traces record churn event streams",
                    spec.family
                ))
            }
        };
        Ok(Trace {
            spec: spec.clone(),
            source: TraceSource::SpecMix,
            events,
        })
    }

    /// Records a registered workload shape over its base family at `size`
    /// / `seed`, `events` events long. The base instance comes from the
    /// unsalted spec seed (bit-identical to what every replay rebuilds);
    /// the shape generator draws from a salted stream.
    pub fn from_shape(name: &str, size: u32, seed: u64, events: u32) -> Result<Trace, String> {
        let info = find_shape(name)?;
        let spec = WorkloadSpec::new(info.family)?
            .with_size(size)
            .with_seed(seed)
            .with_param("events", events);
        spec.validate()?;
        let mut rng = SmallRng::seed_from_u64(seed ^ SHAPE_SALT);
        let stream = match spec.build()? {
            WorkloadInstance::OrientChurn { graph, .. } => match info.name {
                "diurnal" => gen_diurnal(&graph, events, &mut rng),
                "rack-burst" => gen_rack_burst(&graph, events, &mut rng),
                "hotspot" => gen_hotspot(&graph, events)?,
                other => unreachable!("unhandled orientation shape '{other}'"),
            },
            WorkloadInstance::AssignChurn { base, .. } => match info.name {
                "drain-wave" => gen_drain_wave(&base, size as usize, events, &mut rng),
                "flash-crowd" => gen_flash_crowd(&base, size as usize, events, &mut rng),
                other => unreachable!("unhandled assignment shape '{other}'"),
            },
            _ => unreachable!("shape families are churn families"),
        };
        debug_assert_eq!(stream.len(), events as usize, "{name}: exact event budget");
        Ok(Trace {
            spec,
            source: TraceSource::Shape(info.name.to_string()),
            events: stream,
        })
    }

    /// Regenerates the same recording under a new seed: the spec mix is
    /// re-drawn, a shape is re-generated — same size, same parameters, new
    /// randomness (the `td trace convert --seed` path).
    pub fn reseed(&self, seed: u64) -> Result<Trace, String> {
        match &self.source {
            TraceSource::SpecMix => Trace::from_spec(&self.spec.clone().with_seed(seed)),
            TraceSource::Shape(name) => {
                Trace::from_shape(name, self.spec.size, seed, self.spec.param("events"))
            }
        }
    }

    /// FNV-1a over the canonical event encoding (each line plus `\n`) —
    /// the content identity in the header. Any edit to any event changes
    /// it; two traces with equal fingerprints replay identically.
    pub fn content_fingerprint(&self) -> u64 {
        fnv1a_words(self.events.iter().flat_map(|ev| {
            ev.encode()
                .into_bytes()
                .into_iter()
                .chain(std::iter::once(b'\n'))
                .map(u64::from)
                .collect::<Vec<_>>()
        }))
    }

    /// Serializes the trace as a `td-trace/v1` document.
    pub fn write(&self) -> String {
        let mut s = String::with_capacity(64 + self.events.len() * 12);
        s.push_str(SCHEMA);
        s.push('\n');
        s.push_str(&format!("spec {}\n", self.spec));
        s.push_str(&format!("source {}\n", self.source.label()));
        s.push_str(&format!("events {}\n", self.events.len()));
        s.push_str(&format!(
            "fingerprint {:016x}\n",
            self.content_fingerprint()
        ));
        s.push_str("---\n");
        for ev in &self.events {
            s.push_str(&ev.encode());
            s.push('\n');
        }
        s.push_str("end\n");
        s
    }

    /// Parses a `td-trace/v1` document. Every malformation — wrong schema
    /// line, missing or unknown header keys, malformed or unknown event
    /// lines, truncation, a fingerprint that does not match the content —
    /// is a diagnostic `Err`, never a panic.
    pub fn read(text: &str) -> Result<Trace, String> {
        let mut lines = text.lines().enumerate();
        let (_, first) = lines.next().ok_or_else(|| "empty trace file".to_string())?;
        if first.trim_end() != SCHEMA {
            return Err(format!(
                "schema mismatch: expected '{SCHEMA}', found '{}'",
                first.trim_end()
            ));
        }
        let mut spec: Option<WorkloadSpec> = None;
        let mut source: Option<TraceSource> = None;
        let mut declared: Option<usize> = None;
        let mut fingerprint: Option<u64> = None;
        loop {
            let (i, line) = lines
                .next()
                .ok_or_else(|| "truncated trace: header never reached '---'".to_string())?;
            let line = line.trim_end();
            if line == "---" {
                break;
            }
            let (key, raw) = line
                .split_once(' ')
                .ok_or_else(|| format!("line {}: header expects 'key value'", i + 1))?;
            match key {
                "spec" => {
                    spec =
                        Some(WorkloadSpec::parse(raw).map_err(|e| format!("line {}: {e}", i + 1))?);
                }
                "source" => {
                    source =
                        Some(TraceSource::parse(raw).map_err(|e| format!("line {}: {e}", i + 1))?);
                }
                "events" => {
                    declared = Some(
                        raw.parse()
                            .map_err(|_| format!("line {}: events '{raw}': not a count", i + 1))?,
                    );
                }
                "fingerprint" => {
                    fingerprint = Some(u64::from_str_radix(raw, 16).map_err(|_| {
                        format!("line {}: fingerprint '{raw}': not 16 hex digits", i + 1)
                    })?);
                }
                other => return Err(format!("line {}: unknown header key '{other}'", i + 1)),
            }
        }
        let spec = spec.ok_or_else(|| "header missing 'spec'".to_string())?;
        let declared = declared.ok_or_else(|| "header missing 'events'".to_string())?;
        let fingerprint = fingerprint.ok_or_else(|| "header missing 'fingerprint'".to_string())?;
        let source = source.unwrap_or(TraceSource::SpecMix);
        if !matches!(
            spec.kind(),
            FamilyKind::OrientChurn | FamilyKind::AssignChurn
        ) {
            return Err(format!(
                "spec family '{}' is not a churn family; traces replay only through churn pipelines",
                spec.family
            ));
        }
        if spec.param("events") as usize != declared {
            return Err(format!(
                "header disagrees with itself: spec says events={}, header says events {declared}",
                spec.param("events")
            ));
        }
        if let TraceSource::Shape(name) = &source {
            let info = find_shape(name)?;
            if info.family != spec.family {
                return Err(format!(
                    "shape '{name}' records over family '{}', but the spec names '{}'",
                    info.family, spec.family
                ));
            }
        }
        let mut events = Vec::with_capacity(declared);
        for _ in 0..declared {
            let (i, line) = lines.next().ok_or_else(|| {
                format!(
                    "truncated trace: {declared} events declared, file ends after {}",
                    events.len()
                )
            })?;
            let line = line.trim_end();
            if line == "end" {
                return Err(format!(
                    "truncated trace: {declared} events declared, 'end' after {}",
                    events.len()
                ));
            }
            events.push(ChurnEvent::decode(line).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        match lines.next() {
            Some((_, l)) if l.trim_end() == "end" => {}
            Some((i, l)) => {
                return Err(format!(
                    "line {}: expected 'end' after {declared} events, found '{}'",
                    i + 1,
                    l.trim_end()
                ))
            }
            None => return Err("truncated trace: missing 'end' sentinel".to_string()),
        }
        if let Some((i, extra)) = lines.find(|(_, l)| !l.trim().is_empty()) {
            return Err(format!(
                "line {}: trailing content after 'end': '{}'",
                i + 1,
                extra.trim_end()
            ));
        }
        let trace = Trace {
            spec,
            source,
            events,
        };
        let actual = trace.content_fingerprint();
        if actual != fingerprint {
            return Err(format!(
                "fingerprint mismatch: header says {fingerprint:016x}, content hashes to {actual:016x}"
            ));
        }
        Ok(trace)
    }

    /// Human-readable summary (`td trace info`): header fields plus an
    /// event-kind histogram.
    pub fn summary_table(&self) -> Table {
        let mut counts: Vec<(&str, u32)> = Vec::new();
        for ev in &self.events {
            let kw = match ev {
                ChurnEvent::EdgeInsert { .. } => "ins",
                ChurnEvent::EdgeDelete { .. } => "del",
                ChurnEvent::EdgeFlip { .. } => "flip",
                ChurnEvent::TokenArrive(_) => "arrive",
                ChurnEvent::TokenDrop(_) => "drop",
                ChurnEvent::CustomerJoin { .. } => "join",
                ChurnEvent::CustomerLeave(_) => "leave",
                ChurnEvent::ServerCapacity { .. } => "cap",
            };
            match counts.iter_mut().find(|(k, _)| *k == kw) {
                Some((_, c)) => *c += 1,
                None => counts.push((kw, 1)),
            }
        }
        let mut t = Table::new(&["field", "value"]);
        let mut row = |k: &str, v: String| t.row(vec![k.to_string(), v]);
        row("schema", SCHEMA.to_string());
        row("spec", self.spec.to_string());
        row("source", self.source.label());
        row("events", self.events.len().to_string());
        row(
            "mix",
            if counts.is_empty() {
                "-".to_string()
            } else {
                counts
                    .iter()
                    .map(|(k, c)| format!("{k}={c}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            },
        );
        row(
            "fingerprint",
            format!("{:016x}", self.content_fingerprint()),
        );
        t
    }
}

// ---------------------------------------------------------------- replay ---

/// What one engine replay produced: repair work plus the final solution
/// fingerprint (same FNV-1a the serve plane reports, so fingerprints from
/// different consumers of one trace are directly diffable).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Events applied (== trace length).
    pub events: usize,
    /// Accumulated repair work (stabilization included).
    pub stats: RepairStats,
    /// FNV-1a over the final solution.
    pub solution_fp: u64,
}

/// Replays the trace through the incremental-repair engine for its family,
/// verifying stability after every event. `threads` / `shards` select the
/// executor (sequential, parallel, or sharded) — the outcome is
/// bit-identical across all of them.
pub fn replay_engine(
    trace: &Trace,
    mode: RepairMode,
    threads: usize,
    shards: usize,
) -> Result<ReplayOutcome, String> {
    match trace.spec.build()? {
        WorkloadInstance::OrientChurn { graph, .. } => {
            let (stats, fp) = fuzz::orient_trace_run(&graph, &trace.events, mode, threads, shards)?;
            Ok(ReplayOutcome {
                events: trace.events.len(),
                stats,
                solution_fp: fnv1a_words(fp.iter().map(|&v| v as u64)),
            })
        }
        WorkloadInstance::AssignChurn { base, .. } => {
            let (stats, fp) = fuzz::assign_trace_run(&base, &trace.events, mode, threads, shards)?;
            Ok(ReplayOutcome {
                events: trace.events.len(),
                stats,
                solution_fp: fnv1a_words(fp.iter().map(|&v| v as u64)),
            })
        }
        _ => Err(format!(
            "'{}' is not a churn family; nothing to replay",
            trace.spec.family
        )),
    }
}

/// Replays the trace through the fuzz plane's full differential:
/// incremental vs full recompute, thread × shard executor grid, and the
/// metamorphic relabeling, all over the recorded events.
pub fn replay_differential(trace: &Trace) -> Result<FuzzReport, String> {
    fuzz::check_churn_trace(&trace.spec, &trace.events)
}

/// Streams the trace through a full `td serve` session (daemon + open-loop
/// generator) in place of the spec's generated mix. The effective budget
/// is the trace length; `rate` 0 means unpaced.
pub fn replay_serve(
    trace: &Trace,
    rate: u64,
    threads: usize,
    shards: usize,
) -> Result<ServeReport, String> {
    let mut cfg = ServeConfig::new(trace.spec.family)?;
    cfg.spec = trace.spec.clone();
    cfg.rate = rate;
    cfg.threads = threads;
    cfg.shards = shards;
    cfg.trace = Some(trace.events.clone());
    serve(&cfg)
}

// -------------------------------------------------------- shape generators ---

/// `500 · (1 + sin(π·h/12))` for h = 0..24, precomputed to integers so the
/// diurnal curve is identical on every platform (no runtime floating-point
/// trigonometry in any generator).
const DIURNAL_PERMILLE: [u32; 24] = [
    500, 629, 750, 854, 933, 983, 1000, 983, 933, 854, 750, 629, 500, 371, 250, 146, 67, 17, 0, 17,
    67, 146, 250, 371,
];

/// Mutable live-edge bookkeeping every orientation shape shares: the same
/// validity-by-construction discipline as the spec generators (flips and
/// deletes name live edges, inserts never duplicate).
struct EdgeSet {
    live: Vec<(u32, u32)>,
    present: HashSet<(u32, u32)>,
    n: u32,
}

impl EdgeSet {
    fn of(g: &CsrGraph) -> Self {
        let live: Vec<(u32, u32)> = g.edge_list().map(|(_, u, v)| (u.0, v.0)).collect();
        let present = live.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        EdgeSet {
            live,
            present,
            n: g.num_nodes() as u32,
        }
    }

    /// Tries to insert a fresh random edge (64 draws).
    fn try_insert(&mut self, rng: &mut SmallRng) -> Option<ChurnEvent> {
        for _ in 0..64 {
            let u = rng.gen_range(0..self.n);
            let v = rng.gen_range(0..self.n);
            if u != v && !self.present.contains(&(u.min(v), u.max(v))) {
                self.present.insert((u.min(v), u.max(v)));
                self.live.push((u, v));
                return Some(ChurnEvent::EdgeInsert {
                    u: NodeId(u),
                    v: NodeId(v),
                });
            }
        }
        None
    }

    /// Deletes a random live edge, keeping a floor of `n/2` edges so the
    /// graph never empties out.
    fn try_delete_random(&mut self, rng: &mut SmallRng) -> Option<ChurnEvent> {
        if self.live.len() <= (self.n as usize) / 2 {
            return None;
        }
        let k = rng.gen_range(0..self.live.len());
        Some(self.delete_at(k))
    }

    /// Deletes the specific live edge `{u, v}` (floor-checked).
    fn try_delete(&mut self, u: u32, v: u32) -> Option<ChurnEvent> {
        if self.live.len() <= (self.n as usize) / 2 {
            return None;
        }
        let k = self.live.iter().position(|&(a, b)| (a, b) == (u, v))?;
        Some(self.delete_at(k))
    }

    fn delete_at(&mut self, k: usize) -> ChurnEvent {
        let (u, v) = self.live.swap_remove(k);
        self.present.remove(&(u.min(v), u.max(v)));
        ChurnEvent::EdgeDelete {
            u: NodeId(u),
            v: NodeId(v),
        }
    }

    /// Re-inserts a previously deleted edge, if still absent.
    fn try_reinsert(&mut self, u: u32, v: u32) -> Option<ChurnEvent> {
        if u == v || !self.present.insert((u.min(v), u.max(v))) {
            return None;
        }
        self.live.push((u, v));
        Some(ChurnEvent::EdgeInsert {
            u: NodeId(u),
            v: NodeId(v),
        })
    }

    /// Flips a random live edge (the live set is never empty: deletions
    /// keep an `n/2` floor and every base graph starts with ≥ `n/2` edges).
    fn flip_random(&mut self, rng: &mut SmallRng) -> ChurnEvent {
        let &(u, v) = &self.live[rng.gen_range(0..self.live.len())];
        ChurnEvent::EdgeFlip {
            u: NodeId(u),
            v: NodeId(v),
        }
    }
}

/// Diurnal sine load: `events` are spread over a 24-hour cycle proportional
/// to [`DIURNAL_PERMILLE`]; within an hour of weight `w`, inserts carry
/// weight `w` (load arriving at midday), deletes `1000 − w` (load leaving
/// at night), flips a constant `1000`.
fn gen_diurnal(g: &CsrGraph, events: u32, rng: &mut SmallRng) -> Vec<ChurnEvent> {
    let total_w: u64 = DIURNAL_PERMILLE.iter().map(|&w| w as u64).sum();
    let mut edges = EdgeSet::of(g);
    let mut out = Vec::with_capacity(events as usize);
    let mut cum = 0u64;
    let mut allotted = 0u64;
    for &w in &DIURNAL_PERMILLE {
        cum += w as u64;
        let upto = events as u64 * cum / total_w;
        for _ in allotted..upto {
            let roll = rng.gen_range(0..2000u32);
            let ev = if roll < w {
                edges.try_insert(rng)
            } else if roll < 1000 {
                edges.try_delete_random(rng)
            } else {
                None
            };
            out.push(ev.unwrap_or_else(|| edges.flip_random(rng)));
        }
        allotted = upto;
    }
    out
}

/// Correlated rack failures: nodes partition into contiguous id "racks"; a
/// burst deletes the live edges touching one rack, recovery re-inserts
/// them one per tick, and quiet periods in between are flips.
fn gen_rack_burst(g: &CsrGraph, events: u32, rng: &mut SmallRng) -> Vec<ChurnEvent> {
    let n = g.num_nodes() as u32;
    let rack = (n / 6).max(3);
    let racks = n.div_ceil(rack).max(1);
    let mut edges = EdgeSet::of(g);
    let mut recovery: Vec<(u32, u32)> = Vec::new();
    let mut out = Vec::with_capacity(events as usize);
    while (out.len() as u32) < events {
        // Staggered recovery first: one repaired link per tick.
        if !recovery.is_empty() {
            let (u, v) = recovery.remove(0);
            out.push(
                edges
                    .try_reinsert(u, v)
                    .unwrap_or_else(|| edges.flip_random(rng)),
            );
            continue;
        }
        // Quiet period: a few flips.
        for _ in 0..rng.gen_range(2..6u32) {
            if (out.len() as u32) >= events {
                return out;
            }
            out.push(edges.flip_random(rng));
        }
        if (out.len() as u32) >= events {
            return out;
        }
        // The burst: fail every live edge touching one rack (floor-capped).
        let r = rng.gen_range(0..racks);
        let (lo, hi) = (r * rack, ((r + 1) * rack).min(n));
        let hit: Vec<(u32, u32)> = edges
            .live
            .iter()
            .copied()
            .filter(|&(u, v)| (lo..hi).contains(&u) || (lo..hi).contains(&v))
            .collect();
        for (u, v) in hit {
            if (out.len() as u32) >= events {
                return out;
            }
            if let Some(ev) = edges.try_delete(u, v) {
                out.push(ev);
                recovery.push((u, v));
            }
        }
        if recovery.is_empty() && (out.len() as u32) < events {
            // Rack had no deletable edges (floor reached): burn one flip so
            // the loop always makes progress.
            out.push(edges.flip_random(rng));
        }
    }
    out
}

/// A random join with 2–3 distinct candidate servers (the same invariant
/// the spec generator keeps: ≥ 2 candidates, so one drained server never
/// strands a customer).
fn random_join(ns: usize, rng: &mut SmallRng) -> ChurnEvent {
    let want = 2.min(ns) + rng.gen_range(0..=1usize).min(ns.saturating_sub(2));
    let mut servers: Vec<u32> = Vec::with_capacity(want);
    while servers.len() < want {
        let s = rng.gen_range(0..ns as u32);
        if !servers.contains(&s) {
            servers.push(s);
        }
    }
    ChurnEvent::CustomerJoin { servers }
}

/// Customer-population bookkeeping for the assignment shapes: leaves name
/// alive customers and only fire while the population exceeds `ns`.
struct Population {
    alive: Vec<u32>,
    next_id: u32,
    ns: usize,
}

impl Population {
    fn of(base: &AssignmentInstance, ns: usize) -> Self {
        Population {
            alive: (0..base.num_customers() as u32).collect(),
            next_id: base.num_customers() as u32,
            ns,
        }
    }

    fn join(&mut self, rng: &mut SmallRng) -> ChurnEvent {
        self.alive.push(self.next_id);
        self.next_id += 1;
        random_join(self.ns, rng)
    }

    fn try_leave(&mut self, rng: &mut SmallRng) -> Option<ChurnEvent> {
        if self.alive.len() <= self.ns {
            return None;
        }
        let k = rng.gen_range(0..self.alive.len());
        Some(ChurnEvent::CustomerLeave(self.alive.swap_remove(k)))
    }
}

/// Cascading drain wave: servers are drained and restored one after the
/// other in id order (wrapping), with a burst of customer churn while each
/// is down. At most one server is ever drained — the invariant every
/// assignment trace keeps.
fn gen_drain_wave(
    base: &AssignmentInstance,
    ns: usize,
    events: u32,
    rng: &mut SmallRng,
) -> Vec<ChurnEvent> {
    let mut pop = Population::of(base, ns);
    let mut out = Vec::with_capacity(events as usize);
    let mut s = 0u32;
    while (out.len() as u32) < events {
        out.push(ChurnEvent::ServerCapacity {
            server: s,
            capacity: 0,
        });
        for _ in 0..rng.gen_range(1..4u32) {
            if (out.len() as u32) >= events {
                break;
            }
            let ev = if rng.gen_range(0..3u32) == 0 {
                pop.try_leave(rng)
            } else {
                None
            };
            out.push(ev.unwrap_or_else(|| pop.join(rng)));
        }
        if (out.len() as u32) < events {
            out.push(ChurnEvent::ServerCapacity {
                server: s,
                capacity: 1,
            });
        }
        s = (s + 1) % ns as u32;
    }
    out
}

/// Flash crowd with decay: the join probability starts near certainty and
/// decays linearly to a leave-dominated tail, so the population surges and
/// then drains back toward baseline.
fn gen_flash_crowd(
    base: &AssignmentInstance,
    ns: usize,
    events: u32,
    rng: &mut SmallRng,
) -> Vec<ChurnEvent> {
    let mut pop = Population::of(base, ns);
    let mut out = Vec::with_capacity(events as usize);
    for i in 0..events {
        let p_join = 950u32.saturating_sub(850 * i / events.max(1));
        let ev = if rng.gen_range(0..1000u32) < p_join {
            None
        } else {
            pop.try_leave(rng)
        };
        out.push(ev.unwrap_or_else(|| pop.join(rng)));
    }
    out
}

/// Adversarial hotspot-chaser: a live incremental-repair engine runs
/// *during generation*; each event flips an edge onto the currently
/// heaviest node (ties to the lowest id), so the recorded stream always
/// attacks wherever the repair protocol just balanced the load to. Fully
/// deterministic — the event choice ignores the seed (the base graph is
/// still seeded).
fn gen_hotspot(g: &CsrGraph, events: u32) -> Result<Vec<ChurnEvent>, String> {
    let mut eng = OrientChurnEngine::new(
        g.clone(),
        Orientation::toward_larger(g),
        RepairMode::Incremental,
    );
    eng.stabilize();
    eng.verify()
        .map_err(|e| format!("hotspot: initial stabilization: {e:?}"))?;
    let mut order: Vec<NodeId> = g.nodes().collect();
    let mut out = Vec::with_capacity(events as usize);
    for _ in 0..events {
        order.sort_by_key(|&v| (std::cmp::Reverse(eng.orientation().load(v)), v.0));
        let mut pick = None;
        'hunt: for &v in &order {
            for u in g.neighbor_ids(v) {
                let e = g.edge_between(v, u).expect("neighbor implies edge");
                if eng.orientation().head(e) != Some(v) {
                    pick = Some(ChurnEvent::EdgeFlip { u: v, v: u });
                    break 'hunt;
                }
            }
        }
        let ev = pick.ok_or_else(|| "hotspot: graph has no edges to flip".to_string())?;
        eng.apply(&ev).map_err(|e| format!("hotspot: {e}"))?;
        out.push(ev);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_trace_is_bit_identical_to_the_generator_path() {
        let spec = WorkloadSpec::parse("churn-orient:size=32:seed=9:events=24").unwrap();
        let t = Trace::from_spec(&spec).unwrap();
        let WorkloadInstance::OrientChurn { trace, .. } = spec.build().unwrap() else {
            panic!("churn family");
        };
        assert_eq!(t.events, trace, "recording captures the generator's mix");
        assert_eq!(t.spec, spec);
        assert_eq!(t.source, TraceSource::SpecMix);
    }

    #[test]
    fn write_read_roundtrip_preserves_everything() {
        for (mk, label) in [
            (
                Trace::from_spec(
                    &WorkloadSpec::parse("churn-assign:size=5:seed=3:events=30").unwrap(),
                ),
                "spec mix",
            ),
            (Trace::from_shape("diurnal", 24, 11, 40), "shape"),
        ] {
            let t = mk.unwrap_or_else(|e| panic!("{label}: {e}"));
            let text = t.write();
            assert!(text.starts_with("td-trace/v1\n"), "{label}");
            assert!(text.ends_with("end\n"), "{label}");
            let back = Trace::read(&text).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(back, t, "{label}");
        }
    }

    #[test]
    fn out_of_range_node_ids_in_a_trace_are_errors_not_panics() {
        // size=32 nodes: id 37 names no node. Flips and deletes of such
        // an edge once indexed past the CSR offsets and panicked.
        let spec = WorkloadSpec::parse("churn-orient:size=32:seed=4:events=2").unwrap();
        for events in [
            vec![
                ChurnEvent::EdgeFlip {
                    u: NodeId(1),
                    v: NodeId(2),
                },
                ChurnEvent::EdgeFlip {
                    u: NodeId(3),
                    v: NodeId(37),
                },
            ],
            vec![
                ChurnEvent::EdgeDelete {
                    u: NodeId(40),
                    v: NodeId(0),
                },
                ChurnEvent::EdgeFlip {
                    u: NodeId(0),
                    v: NodeId(1),
                },
            ],
        ] {
            let t = Trace {
                spec: spec.clone(),
                source: TraceSource::SpecMix,
                events,
            };
            let back = Trace::read(&t.write()).expect("well-formed document");
            for (threads, shards) in [(1, 1), (2, 2)] {
                let got = replay_engine(&back, RepairMode::Incremental, threads, shards);
                let err = got.expect_err("a non-edge event fails the replay");
                assert!(err.contains("no such entity"), "{err}");
            }
        }
    }

    #[test]
    fn every_shape_generates_its_exact_budget_and_replays_clean() {
        for s in SHAPES {
            let t = Trace::from_shape(s.name, s.default_size, 7, 48)
                .unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(t.events.len(), 48, "{}", s.name);
            assert_eq!(t.spec.family, s.family, "{}", s.name);
            // Engine replay verifies stability after every event — an
            // invalid event stream fails here.
            let seq = replay_engine(&t, RepairMode::Incremental, 1, 1)
                .unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(seq.events, 48, "{}", s.name);
        }
    }

    #[test]
    fn shape_traces_are_deterministic_and_reseedable() {
        let a = Trace::from_shape("flash-crowd", 6, 21, 60).unwrap();
        let b = Trace::from_shape("flash-crowd", 6, 21, 60).unwrap();
        assert_eq!(a, b);
        let c = a.reseed(22).unwrap();
        assert_eq!(c.events.len(), 60);
        assert_ne!(
            a.content_fingerprint(),
            c.content_fingerprint(),
            "new seed, new stream"
        );
        let again = c.reseed(21).unwrap();
        assert_eq!(again, a, "reseeding back recovers the original");
    }

    #[test]
    fn replay_is_bit_identical_across_engines_executors_and_serve() {
        let t = Trace::from_shape("rack-burst", 32, 5, 40).unwrap();
        let seq = replay_engine(&t, RepairMode::Incremental, 1, 1).unwrap();
        for (threads, shards) in [(2, 1), (2, 2), (4, 4)] {
            let par = replay_engine(&t, RepairMode::Incremental, threads, shards).unwrap();
            assert_eq!(par, seq, "threads {threads} x shards {shards}");
        }
        let rec = replay_engine(&t, RepairMode::FullRecompute, 1, 1).unwrap();
        assert_eq!(rec.solution_fp, seq.solution_fp, "recompute agrees");
        // The serve daemon consumes the same stream and lands on the same
        // solution fingerprint.
        let report = replay_serve(&t, 0, 1, 1).unwrap();
        assert_eq!(report.events as usize, seq.events);
        assert_eq!(report.fingerprint, seq.solution_fp);
        // And the fuzz differential accepts the recorded stream wholesale.
        let fuzzed = replay_differential(&t).unwrap();
        assert!(
            fuzzed.compared > 0,
            "differential compared executor grid points"
        );
    }

    #[test]
    fn malformed_documents_are_diagnostics_not_panics() {
        let good = Trace::from_spec(
            &WorkloadSpec::parse("churn-orient:size=32:seed=4:events=12").unwrap(),
        )
        .unwrap()
        .write();

        // Wrong schema line.
        let e = Trace::read(&good.replace("td-trace/v1", "td-trace/v9")).unwrap_err();
        assert!(e.contains("schema mismatch"), "{e}");
        // Truncated: file ends mid-events.
        let cut: String = good.lines().take(9).map(|l| format!("{l}\n")).collect();
        let e = Trace::read(&cut).unwrap_err();
        assert!(e.contains("truncated"), "{e}");
        // Truncated: no 'end' sentinel.
        let e = Trace::read(good.trim_end_matches("end\n")).unwrap_err();
        assert!(e.contains("end"), "{e}");
        // Unknown event keyword (a future schema's variant).
        let tampered = good.replacen("flip ", "teleport ", 1);
        if tampered != good {
            let e = Trace::read(&tampered).unwrap_err();
            assert!(e.contains("teleport"), "{e}");
        }
        // Fingerprint mismatch after content tampering.
        let mut lines: Vec<String> = good.lines().map(str::to_string).collect();
        let evline = lines
            .iter()
            .position(|l| l.starts_with("flip") || l.starts_with("ins") || l.starts_with("del"))
            .expect("an event line");
        lines[evline] = "flip 0 1".to_string();
        let e = Trace::read(&(lines.join("\n") + "\n"));
        assert!(e.is_err(), "tampered content must be rejected");
        // Header fingerprint edited directly.
        let forged: String = good
            .lines()
            .map(|l| {
                if l.starts_with("fingerprint ") {
                    "fingerprint deadbeefdeadbeef\n".to_string()
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let e = Trace::read(&forged).unwrap_err();
        assert!(e.contains("fingerprint mismatch"), "{e}");
        // Non-churn family in the header.
        let e = Trace::read("td-trace/v1\nspec torus:size=4:seed=1\nevents 0\nfingerprint cbf29ce484222325\n---\nend\n")
            .unwrap_err();
        assert!(e.contains("churn"), "{e}");
    }
}

//! The paper-claim experiments: e1–e9, e12, e14 and `stress`, the
//! theorem-by-theorem reproductions of §4–§7. Instances are seeded from
//! [`SEEDS`] (or a fixed per-point seed); units cache integer metrics only
//! (per-seed values as `<name>/<seed>`), and the renderers compute means,
//! maxima and fitted exponents. Each experiment runs in under a second at
//! full size, so `--quick` keeps the plan. A unit whose output fails its
//! verifier returns an error instead of caching a result.

use super::{md_table, metric, ExpConfig, ExpUnit, UnitData};
use crate::workloads::{
    assignment_instance, layered_game, matching_graph, regular_graph, skewed_assignment,
    three_level_game, uniform_assignment,
};
use crate::{fit_power_law, mean, scenario};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use td_assign::bounded::solve_2_bounded;
use td_assign::phases::{solve_stable_assignment, AssignPhaseStats};
use td_assign::semi_matching::optimal_semi_matching;
use td_core::{lockstep, matching, proposal, three_level, TokenGame};
use td_graph::gen::structured::{high_girth_regular, perfect_dary_tree};
use td_local::Simulator;
use td_orient::lower_bound::{
    check_regular_indegree_lb, check_tree_indegree_bound, stabilization_probe,
};
use td_orient::orientation::Orientation;
use td_orient::phases::{run_phases_capped, solve_stable_orientation, PhaseConfig, ProposalTie};
use td_orient::{baseline, sequential};

/// Instance seeds of the multi-seed experiments.
const SEEDS: [u64; 5] = [11, 22, 33, 44, 55];

/// Round cap of the arbitrary-start baseline.
const BASELINE_CAP: u32 = 10_000_000;

type Units = [(ExpUnit, UnitData)];

/// Fills a unit's metrics for one sweep point.
type Run<P> = fn(&mut Metrics, P) -> Result<(), String>;

/// A rendered table column: its header and the cell one unit renders to.
type Col = (&'static str, fn(&UnitData) -> String);

/// A fit axis: the value one unit contributes.
type Axis = fn(&UnitData) -> f64;

/// Metric accumulator for a unit runner.
#[derive(Default)]
struct Metrics(Vec<(String, u64)>);

impl Metrics {
    /// Sets `name`; a repeated name keeps the last value.
    fn put(&mut self, name: &str, v: u64) {
        match self.0.iter_mut().find(|(k, _)| k == name) {
            Some(slot) => slot.1 = v,
            None => self.0.push((name.into(), v)),
        }
    }

    /// A per-seed value, stored as `<name>/<seed>`.
    fn seed(&mut self, name: &str, seed: u64, v: u64) {
        self.0.push((format!("{name}/{seed}"), v));
    }
}

/// One single-threaded unit per sweep point; `spec` maps a point to its
/// canonical spec string, which doubles as the unit label.
fn sweep<P: Copy + 'static>(points: &[P], spec: impl Fn(P) -> String, run: Run<P>) -> Vec<ExpUnit> {
    points
        .iter()
        .map(|&p| {
            let spec = spec(p);
            ExpUnit::new(spec.clone(), spec, "sequential", 1, move || {
                let mut m = Metrics::default();
                run(&mut m, p)?;
                Ok(UnitData {
                    metrics: m.0,
                    ..UnitData::default()
                })
            })
        })
        .collect()
}

/// `seeds=11,22,…` — the spec-string suffix naming a seed list.
fn seeds_tag(seeds: &[u64]) -> String {
    let list: Vec<String> = seeds.iter().map(u64::to_string).collect();
    format!("seeds={}", list.join(","))
}

fn verify<E: std::fmt::Debug>(what: &str, r: Result<(), E>) -> Result<(), String> {
    r.map_err(|e| format!("{what}: {e:?}"))
}

fn get(d: &UnitData, name: &str) -> u64 {
    metric(d, name).unwrap_or(0)
}

/// The per-seed values of `name` (metrics `<name>/<seed>`), in seed order.
fn per_seed(d: &UnitData, name: &str) -> Vec<f64> {
    let prefix = format!("{name}/");
    let values = d.metrics.iter().filter(|(k, _)| k.starts_with(&prefix));
    values.map(|&(_, v)| v as f64).collect()
}

fn avg(d: &UnitData, name: &str) -> f64 {
    mean(&per_seed(d, name))
}

fn peak(d: &UnitData, name: &str) -> f64 {
    per_seed(d, name).into_iter().fold(0.0, f64::max)
}

fn int(d: &UnitData, name: &str) -> String {
    get(d, name).to_string()
}

fn f0(v: f64) -> String {
    format!("{v:.0}")
}

fn f1(v: f64) -> String {
    format!("{v:.1}")
}

fn delta_x(d: &UnitData) -> f64 {
    get(d, "delta") as f64
}

fn all(units: &Units) -> impl Iterator<Item = &UnitData> + Clone {
    units.iter().map(|(_, d)| d)
}

/// The units whose spec names the workload `family`.
fn part<'a>(units: &'a Units, family: &'a str) -> impl Iterator<Item = &'a UnitData> + Clone {
    units
        .iter()
        .filter(move |(u, _)| u.spec.split(':').next() == Some(family))
        .map(|(_, d)| d)
}

/// One markdown row per unit, one cell per column, then the note lines.
fn table<'a>(units: impl Iterator<Item = &'a UnitData>, cols: &[Col], notes: &[String]) -> String {
    let header: Vec<&str> = cols.iter().map(|c| c.0).collect();
    let rows: Vec<Vec<String>> = units
        .map(|d| cols.iter().map(|c| (c.1)(d)).collect())
        .collect();
    let mut s = md_table(&header, &rows);
    for note in notes {
        s.push('\n');
        s.push_str(note);
        s.push('\n');
    }
    s
}

/// The fitted exponent `b` of `y ≈ a·x^b` over `units`.
fn fit<'a>(units: impl Iterator<Item = &'a UnitData>, x: Axis, y: Axis) -> f64 {
    let (xs, ys): (Vec<f64>, Vec<f64>) = units.map(|d| (x(d), y(d))).unzip();
    fit_power_law(&xs, &ys)
}

// ----------------------------------------------- e1: Thm 4.1, O(L·Δ²) ---

const E1_DELTAS: &[usize] = &[2, 4, 8, 16, 24];
const E1_LEVELS: &[usize] = &[2, 4, 8, 16, 32];
/// Fixed L of the Δ sweep and fixed Δ of the L sweep.
const E1_FIXED: usize = 4;

pub(super) fn e1_units(_: &ExpConfig) -> Result<Vec<ExpUnit>, String> {
    // The two sweeps share their (Δ, L) = (4, 4) point.
    let mut points: Vec<(usize, usize)> = E1_DELTAS.iter().map(|&d| (d, E1_FIXED)).collect();
    let levels = E1_LEVELS.iter().filter(|&&l| l != E1_FIXED);
    points.extend(levels.map(|&l| (E1_FIXED, l)));
    let spec = |(d, l)| format!("layered-game:delta={d}:levels={l}:{}", seeds_tag(&SEEDS));
    Ok(sweep(&points, spec, e1_run))
}

fn e1_run(m: &mut Metrics, (delta, levels): (usize, usize)) -> Result<(), String> {
    m.put("delta", delta as u64);
    m.put("levels", levels as u64);
    for seed in SEEDS {
        let game = layered_game(delta, levels, seed);
        let res = lockstep::run(&game);
        verify("rules 1-3", td_core::verify_solution(&game, &res.solution))?;
        m.seed("rounds", seed, res.rounds as u64);
        if delta <= 8 {
            let p = proposal::run_on_simulator(&game, &Simulator::sequential());
            m.seed("comm", seed, p.comm_rounds as u64);
        }
    }
    Ok(())
}

pub(super) fn render_e1(units: &Units) -> String {
    let fixed = E1_FIXED as u64;
    let deltas = all(units).filter(move |d| get(d, "levels") == fixed);
    let mut levels: Vec<&UnitData> = all(units).filter(|d| get(d, "delta") == fixed).collect();
    levels.sort_by_key(|d| get(d, "levels"));
    let rounds = |d: &UnitData| avg(d, "rounds");
    let b = fit(deltas.clone(), delta_x, rounds);
    let delta_sweep = table(
        deltas,
        &[
            ("Δ", |d| int(d, "delta")),
            ("L", |_| E1_FIXED.to_string()),
            ("rounds(mean)", |d| f1(avg(d, "rounds"))),
            ("rounds(max)", |d| f0(peak(d, "rounds"))),
            ("bound L·Δ²", |d| {
                (E1_FIXED as u64 * get(d, "delta").pow(2)).to_string()
            }),
            ("comm rounds(protocol)", |d| match per_seed(d, "comm") {
                comm if comm.is_empty() => "-".into(),
                comm => f1(mean(&comm)),
            }),
        ],
        &[format!(
            "fitted exponent rounds ~ Δ^b at fixed L: b = {b:.2} (paper bound: ≤ 2)"
        )],
    );
    let b = fit(levels.iter().copied(), |d| get(d, "levels") as f64, rounds);
    let level_sweep = table(
        levels.into_iter(),
        &[
            ("L", |d| int(d, "levels")),
            ("Δ", |_| E1_FIXED.to_string()),
            ("rounds(mean)", |d| f1(avg(d, "rounds"))),
            ("rounds(max)", |d| f0(peak(d, "rounds"))),
            ("bound L·Δ²", |d| {
                (get(d, "levels") * (E1_FIXED * E1_FIXED) as u64).to_string()
            }),
        ],
        &[format!(
            "fitted exponent rounds ~ L^b at fixed Δ: b = {b:.2} (paper bound: ≤ 1)"
        )],
    );
    format!("{delta_sweep}\n{level_sweep}")
}

// -------------------------------------------- e2: Thm 4.7, 3-level O(Δ) ---

const E2_DELTAS: &[usize] = &[2, 4, 8, 16, 32, 48];

pub(super) fn e2_units(_: &ExpConfig) -> Result<Vec<ExpUnit>, String> {
    let spec = |d| format!("three-level-game:delta={d}:{}", seeds_tag(&SEEDS));
    Ok(sweep(E2_DELTAS, spec, e2_run))
}

fn e2_run(m: &mut Metrics, delta: usize) -> Result<(), String> {
    m.put("delta", delta as u64);
    for seed in SEEDS {
        let game = three_level_game(delta, seed);
        let a = three_level::run_lockstep(&game);
        verify("rules 1-3", td_core::verify_solution(&game, &a.solution))?;
        m.seed("three_level", seed, a.rounds as u64);
        m.seed("general", seed, lockstep::run(&game).rounds as u64);
    }
    Ok(())
}

pub(super) fn render_e2(units: &Units) -> String {
    let cols: &[Col] = &[
        ("Δ", |d| int(d, "delta")),
        ("3-level rounds", |d| f1(avg(d, "three_level"))),
        ("general rounds", |d| f1(avg(d, "general"))),
        ("bound 3Δ", |d| (3 * get(d, "delta")).to_string()),
    ];
    let b3 = fit(all(units), delta_x, |d| avg(d, "three_level"));
    let bg = fit(all(units), delta_x, |d| avg(d, "general"));
    let note = format!("fitted exponents: 3-level b = {b3:.2} (≤ 1), general b = {bg:.2}");
    table(all(units), cols, &[note])
}

// ---------------- e3 / e9: Thms 4.6 and 7.4, maximal matching reductions ---

const E3_DELTAS: &[usize] = &[2, 4, 8, 16, 32];
const E9_DELTAS: &[usize] = &[2, 4, 8, 16];

pub(super) fn e3_units(_: &ExpConfig) -> Result<Vec<ExpUnit>, String> {
    let spec = |d| format!("matching-graph:customers={}:d={d}:seed={}", 20 * d, 7 + d);
    Ok(sweep(E3_DELTAS, spec, e3_run))
}

/// The random bipartite graph of e3/e9 (`nc` customers of degree ≤ `d`),
/// with its shape recorded.
fn matching_instance(m: &mut Metrics, nc: usize, d: usize, seed: u64) -> td_graph::CsrGraph {
    let g = matching_graph(nc, d, seed);
    m.put("delta", g.max_degree() as u64);
    m.put("n_per_side", nc as u64);
    g
}

fn e3_run(m: &mut Metrics, d: usize) -> Result<(), String> {
    let g = matching_instance(m, 20 * d, d, 7 + d as u64);
    let side: Vec<u8> = (0..g.num_nodes()).map(|v| u8::from(v < 20 * d)).collect();
    let (matched, rounds) = matching::maximal_matching_via_token_dropping(&g, &side);
    if !matching::is_maximal_matching(&g, &matched) {
        return Err("matching is not maximal".into());
    }
    m.put("rounds", rounds as u64);
    m.put("matched", matched.len() as u64);
    Ok(())
}

pub(super) fn render_e3(units: &Units) -> String {
    let cols: &[Col] = &[
        ("Δ", |d| int(d, "delta")),
        ("n(per side)", |d| int(d, "n_per_side")),
        ("rounds", |d| int(d, "rounds")),
        ("matched", |d| int(d, "matched")),
        ("maximal?", |_| "true".into()),
    ];
    let note = "(the matching LB of [BBH+19] therefore applies to the game: \
                Ω(Δ + log n/log log n))";
    table(all(units), cols, &[note.into()])
}

pub(super) fn e9_units(_: &ExpConfig) -> Result<Vec<ExpUnit>, String> {
    let spec = |d| format!("matching-graph:customers={}:d={d}:seed={}", 15 * d, 31 + d);
    Ok(sweep(E9_DELTAS, spec, e9_run))
}

fn e9_run(m: &mut Metrics, d: usize) -> Result<(), String> {
    let g = matching_instance(m, 15 * d, d, 31 + d as u64);
    let red = td_assign::matching_reduction::maximal_matching_via_2_bounded(&g, 15 * d);
    if !matching::is_maximal_matching(&g, &red.matching) {
        return Err("matching is not maximal".into());
    }
    m.put("phases", red.phases as u64);
    m.put("comm", red.comm_rounds);
    m.put("matched", red.matching.len() as u64);
    Ok(())
}

pub(super) fn render_e9(units: &Units) -> String {
    let cols: &[Col] = &[
        ("Δ", |d| int(d, "delta")),
        ("n(per side)", |d| int(d, "n_per_side")),
        ("phases", |d| int(d, "phases")),
        ("comm rounds", |d| int(d, "comm")),
        ("matched", |d| int(d, "matched")),
        ("maximal?", |_| "true".into()),
    ];
    table(all(units), cols, &[])
}

// ------------------------- e4: Thm 5.1, phase algorithm vs the baseline ---

const E4_DELTAS: &[usize] = &[3, 4, 6, 8, 12, 16, 24];
/// Node-count factors of the n-independence sweep (at Δ = 6).
const E4_FACTORS: &[usize] = &[6, 12, 24, 48];
const E4_REPAIR_DELTAS: &[usize] = &[4, 8, 16, 32];
/// `regular_graph` node-count factor of the Δ sweeps.
const E4_FACTOR: usize = 12;

pub(super) fn e4_units(_: &ExpConfig) -> Result<Vec<ExpUnit>, String> {
    // Arbitrary-start baseline from the toward-larger-id orientation, the
    // n-independence sweep at Δ = 6, and the repair work from a random start.
    let (all5, first3) = (seeds_tag(&SEEDS), seeds_tag(&SEEDS[..3]));
    let mut units = sweep(
        E4_DELTAS,
        |d| format!("orient-vs-baseline:d={d}:factor={E4_FACTOR}:{all5}"),
        e4_compare,
    );
    let n_sweep = |f| format!("orient-n-sweep:d=6:factor={f}:{first3}");
    units.extend(sweep(E4_FACTORS, n_sweep, e4_n_sweep));
    let repair = |d| format!("orient-repair-work:d={d}:factor={E4_FACTOR}:{first3}");
    units.extend(sweep(E4_REPAIR_DELTAS, repair, e4_repair));
    Ok(units)
}

fn e4_compare(m: &mut Metrics, d: usize) -> Result<(), String> {
    m.put("delta", d as u64);
    for seed in SEEDS {
        let g = regular_graph(d, E4_FACTOR, seed);
        m.put("n", g.num_nodes() as u64);
        let res = solve_stable_orientation(&g, PhaseConfig::default());
        verify("stable", res.orientation.verify_stable(&g))?;
        m.seed("phases", seed, res.phases as u64);
        m.seed("comm", seed, res.comm_rounds);
        let b = baseline::run(&g, Orientation::toward_larger(&g), seed, BASELINE_CAP);
        m.seed("baseline_comm", seed, b.comm_rounds);
        let s = sequential::run(&g, Orientation::toward_larger(&g));
        m.seed("seq_flips", seed, s.flips);
    }
    Ok(())
}

fn e4_n_sweep(m: &mut Metrics, factor: usize) -> Result<(), String> {
    m.put("delta", 6);
    for &seed in &SEEDS[..3] {
        let g = regular_graph(6, factor, seed);
        m.put("n", g.num_nodes() as u64);
        let res = solve_stable_orientation(&g, PhaseConfig::default());
        m.seed("comm", seed, res.comm_rounds);
        let b = baseline::run(&g, Orientation::toward_larger(&g), seed, BASELINE_CAP);
        m.seed("baseline_comm", seed, b.comm_rounds);
    }
    Ok(())
}

fn e4_repair(m: &mut Metrics, d: usize) -> Result<(), String> {
    m.put("delta", d as u64);
    for &seed in &SEEDS[..3] {
        let g = regular_graph(d, E4_FACTOR, seed);
        m.put("m", g.num_edges() as u64);
        let init = Orientation::random(&g, &mut SmallRng::seed_from_u64(seed));
        m.seed("unhappy0", seed, init.unhappy_edges(&g).count() as u64);
        m.seed(
            "flips",
            seed,
            baseline::run(&g, init, seed, BASELINE_CAP).flips,
        );
        let ours = solve_stable_orientation(&g, PhaseConfig::default());
        let moves: usize = ours.stats.iter().map(|s| s.td_moves).sum();
        m.seed("td_moves", seed, moves as u64);
    }
    Ok(())
}

pub(super) fn render_e4(units: &Units) -> String {
    let compare = part(units, "orient-vs-baseline");
    let ours = fit(compare.clone(), delta_x, |d| avg(d, "comm"));
    let base = fit(compare.clone(), delta_x, |d| avg(d, "baseline_comm"));
    let compare = table(
        compare,
        &[
            ("Δ", |d| int(d, "delta")),
            ("n", |d| int(d, "n")),
            ("ours phases", |d| f1(avg(d, "phases"))),
            ("bound 2Δ", |d| (2 * get(d, "delta")).to_string()),
            ("ours comm", |d| f0(avg(d, "comm"))),
            ("baseline comm", |d| f0(avg(d, "baseline_comm"))),
            ("seq flips", |d| f0(avg(d, "seq_flips"))),
        ],
        &[
            format!("fitted comm-round exponents vs Δ: ours b = {ours:.2}, baseline b = {base:.2}"),
            "(baseline rounds also grow with n at fixed Δ — propagation chains; ours do not)"
                .into(),
        ],
    );
    let n_sweep = table(
        part(units, "orient-n-sweep"),
        &[
            ("Δ", |d| int(d, "delta")),
            ("n", |d| int(d, "n")),
            ("ours comm", |d| f0(avg(d, "comm"))),
            ("baseline comm", |d| f0(avg(d, "baseline_comm"))),
        ],
        &[],
    );
    let repair = table(
        part(units, "orient-repair-work"),
        &[
            ("Δ", |d| int(d, "delta")),
            ("m", |d| int(d, "m")),
            ("baseline unhappy@start", |d| f0(avg(d, "unhappy0"))),
            ("baseline flips", |d| f0(avg(d, "flips"))),
            ("ours TD moves", |d| f0(avg(d, "td_moves"))),
        ],
        &["(ours never repairs more than ~one excess unit per node per phase)".into()],
    );
    format!(
        "{compare}\n{n_sweep}\nrepair work comparison (random Δ-regular, arbitrary start \
         for baseline):\n\n{repair}"
    )
}

// ------------------------------------------- e5: §6 Ω(Δ) certificates ---

/// (Δ, perfect Δ-ary tree depth): depths capped to keep n manageable.
const E5_TREES: &[(usize, usize)] = &[(3, 6), (4, 5), (5, 4), (6, 4)];

pub(super) fn e5_units(_: &ExpConfig) -> Result<Vec<ExpUnit>, String> {
    // A perfect Δ-ary tree (`Some(depth)`) and a Δ-regular girth-5 graph
    // (`None`) per Δ.
    let points: Vec<(usize, Option<usize>)> = E5_TREES
        .iter()
        .flat_map(|&(d, depth)| [(d, Some(depth)), (d, None)])
        .collect();
    let spec = |(d, depth)| match depth {
        Some(h) => format!("dary-tree:d={d}:depth={h}"),
        None => format!(
            "high-girth-regular:n={}:d={d}:girth=5:seed={}",
            30 * d,
            99 + d
        ),
    };
    Ok(sweep(&points, spec, e5_run))
}

fn e5_run(m: &mut Metrics, (d, depth): (usize, Option<usize>)) -> Result<(), String> {
    let g = match depth {
        Some(h) => perfect_dary_tree(d, h, 500_000).0,
        None => {
            let mut rng = SmallRng::seed_from_u64(99 + d as u64);
            match high_girth_regular(30 * d, d, 5, &mut rng, 100) {
                Some(g) => g,
                // No instance within the retry budget: an empty unit, no row.
                None => return Ok(()),
            }
        }
    };
    let res = solve_stable_orientation(&g, PhaseConfig::default());
    if let Some(h) = depth {
        check_tree_indegree_bound(&g, &res.orientation)
            .map_err(|v| format!("Lemma 6.1 violated at {v:?}"))?;
        m.put("depth", h as u64);
    } else {
        let (ok, max_in) = check_regular_indegree_lb(&g, &res.orientation, d);
        if !ok {
            return Err(format!("Lemma 6.2 violated: max indegree {max_in}"));
        }
        m.put("max_in", max_in as u64);
    }
    m.put("delta", d as u64);
    m.put("n", g.num_nodes() as u64);
    m.put("max_stab", stabilization_probe(&g).max_stabilization as u64);
    Ok(())
}

pub(super) fn render_e5(units: &Units) -> String {
    let cols: &[Col] = &[
        ("family", |d| match metric(d, "depth") {
            Some(h) => format!("{}-ary tree depth {h}", get(d, "delta")),
            None => format!("{}-regular girth ≥ 5", get(d, "delta")),
        }),
        ("Δ", |d| int(d, "delta")),
        ("n", |d| int(d, "n")),
        ("Lemma", |d| match metric(d, "depth") {
            Some(_) => "6.1".into(),
            None => "6.2".into(),
        }),
        ("certificate", |d| match metric(d, "max_in") {
            Some(k) => format!("max indeg {k} ≥ ⌈Δ/2⌉ ✓"),
            None => "indeg ≤ h+1 ✓".into(),
        }),
        ("max stab. phase", |d| int(d, "max_stab")),
    ];
    let note = "(both certificates hold on every instance; stabilization grows with Δ)";
    table(
        all(units).filter(|d| metric(d, "n").is_some()),
        cols,
        &[note.into()],
    )
}

// ------------------------------ e6 / e7: Thms 7.3 and 7.5, assignment ---

/// Servers of every e6/e7 instance.
const ASSIGN_SERVERS: usize = 24;
const E6_CS: &[usize] = &[2, 3, 5];
const E6_SAVGS: &[usize] = &[4, 8, 16];
const E7_C: usize = 3;
const E7_SAVGS: &[usize] = &[4, 8, 16, 32];

fn assignment_spec((c, s_avg): (usize, usize)) -> String {
    let seeds = seeds_tag(&SEEDS[..3]);
    format!("assignment:c={c}:s_avg={s_avg}:servers={ASSIGN_SERVERS}:{seeds}")
}

pub(super) fn e6_units(_: &ExpConfig) -> Result<Vec<ExpUnit>, String> {
    let points: Vec<(usize, usize)> = E6_CS
        .iter()
        .flat_map(|&c| E6_SAVGS.iter().map(move |&s| (c, s)))
        .collect();
    Ok(sweep(&points, assignment_spec, assignment_run))
}

/// Both solvers on one (C, S_avg) point: the exact stable assignment
/// (e6, and e7's baseline) and the 2-bounded relaxation (e7).
fn assignment_run(m: &mut Metrics, (c, s_avg): (usize, usize)) -> Result<(), String> {
    m.put("c", c as u64);
    for &seed in &SEEDS[..3] {
        let inst = assignment_instance(c, s_avg, ASSIGN_SERVERS, seed);
        m.put("customers", inst.num_customers() as u64);
        m.seed("s_max", seed, inst.max_server_degree() as u64);
        let e = solve_stable_assignment(&inst);
        let b = solve_2_bounded(&inst);
        verify("stable", e.assignment.verify_stable(&inst))?;
        verify("2-bounded", b.assignment.verify_k_bounded(&inst, 2))?;
        m.seed("phases", seed, e.phases as u64);
        m.seed("comm", seed, e.comm_rounds);
        m.seed("td_max", seed, td_max(&e.stats));
        m.seed("bounded_comm", seed, b.comm_rounds);
        m.seed("bounded_td_max", seed, td_max(&b.stats));
    }
    Ok(())
}

/// The most token dropping rounds any phase needed.
fn td_max(stats: &[AssignPhaseStats]) -> u64 {
    stats.iter().map(|s| s.td_rounds).max().unwrap_or(0) as u64
}

pub(super) fn render_e6(units: &Units) -> String {
    let cols: &[Col] = &[
        ("C", |d| int(d, "c")),
        ("S(max)", |d| f0(peak(d, "s_max"))),
        ("customers", |d| int(d, "customers")),
        ("phases", |d| f1(avg(d, "phases"))),
        ("bound 2CS", |d| {
            (2 * get(d, "c") * peak(d, "s_max") as u64).to_string()
        }),
        ("comm rounds", |d| f0(avg(d, "comm"))),
        ("max td rounds/phase", |d| f0(peak(d, "td_max"))),
    ];
    table(all(units), cols, &[])
}

pub(super) fn e7_units(_: &ExpConfig) -> Result<Vec<ExpUnit>, String> {
    let points: Vec<(usize, usize)> = E7_SAVGS.iter().map(|&s| (E7_C, s)).collect();
    Ok(sweep(&points, assignment_spec, assignment_run))
}

pub(super) fn render_e7(units: &Units) -> String {
    let cols: &[Col] = &[
        ("S(max)", |d| f0(peak(d, "s_max"))),
        ("exact max td/phase", |d| f1(avg(d, "td_max"))),
        ("bounded max td/phase", |d| f1(avg(d, "bounded_td_max"))),
        ("exact comm", |d| f0(avg(d, "comm"))),
        ("bounded comm", |d| f0(avg(d, "bounded_comm"))),
    ];
    let s = |d: &UnitData| peak(d, "s_max");
    let ex = fit(all(units), s, |d| avg(d, "td_max"));
    let bd = fit(all(units), s, |d| avg(d, "bounded_td_max"));
    let note = format!(
        "fitted per-phase TD exponents vs S: exact b = {ex:.2}, bounded b = {bd:.2} \
         (theory: 2 vs 1)"
    );
    table(all(units), cols, &[note])
}

// -------------------------- e8: [CHSW12] 2-approx of the semi-matching ---

const E8_CUSTOMERS: usize = 300;
const E8_SERVERS: usize = 30;
/// Zipf exponents (percent) of the skewed workloads; 0 is uniform.
const E8_ALPHAS_PCT: &[u64] = &[0, 100, 140];

/// cost(stable) / cost(opt); an empty instance (both zero) counts as 1.
fn e8_ratio((stable, opt): (u64, u64)) -> f64 {
    stable.max(1) as f64 / opt.max(1) as f64
}

pub(super) fn e8_units(_: &ExpConfig) -> Result<Vec<ExpUnit>, String> {
    let spec = |alpha_pct| {
        let family = match alpha_pct {
            0 => "uniform-assignment".to_string(),
            a => format!("skewed-assignment:alpha_pct={a}"),
        };
        let seeds = seeds_tag(&SEEDS);
        format!("{family}:customers={E8_CUSTOMERS}:servers={E8_SERVERS}:{seeds}")
    };
    Ok(sweep(E8_ALPHAS_PCT, spec, e8_run))
}

fn e8_run(m: &mut Metrics, alpha_pct: u64) -> Result<(), String> {
    m.put("alpha_pct", alpha_pct);
    for seed in SEEDS {
        let inst = match alpha_pct {
            0 => uniform_assignment(E8_CUSTOMERS, E8_SERVERS, seed),
            a => skewed_assignment(E8_CUSTOMERS, E8_SERVERS, a as f64 / 100.0, seed),
        };
        let stable = solve_stable_assignment(&inst);
        verify("stable", stable.assignment.verify_stable(&inst))?;
        let cost = stable.assignment.cost();
        let opt = optimal_semi_matching(&inst).assignment.cost();
        if e8_ratio((cost, opt)) > 2.0 {
            return Err(format!("cost {cost} exceeds twice the optimum {opt}"));
        }
        m.seed("stable", seed, cost);
        m.seed("opt", seed, opt);
    }
    Ok(())
}

/// The seed-11 costs `(stable, optimal)` a row shows.
fn e8_first(d: &UnitData) -> (u64, u64) {
    let at = |name: &str| get(d, &format!("{name}/{}", SEEDS[0]));
    (at("stable"), at("opt"))
}

pub(super) fn render_e8(units: &Units) -> String {
    let cols: &[Col] = &[
        ("workload", |d| match get(d, "alpha_pct") {
            0 => "uniform".into(),
            a => format!("zipf α={:.1}", a as f64 / 100.0),
        }),
        ("cost(stable)", |d| e8_first(d).0.to_string()),
        ("cost(opt)", |d| e8_first(d).1.to_string()),
        ("ratio", |d| format!("{:.4}", e8_ratio(e8_first(d)))),
        ("≤ 2?", |_| "true".into()),
    ];
    let worst = all(units)
        .flat_map(|d| per_seed(d, "stable").into_iter().zip(per_seed(d, "opt")))
        .map(|(s, o)| e8_ratio((s as u64, o as u64)))
        .fold(1.0, f64::max);
    let note = format!("worst ratio over all seeds/workloads: {worst:.4} (guarantee: 2.0)");
    table(all(units), cols, &[note])
}

// ------------------------- e12: ablation, careful vs load-blind proposals ---

const E12_DELTAS: &[usize] = &[4, 8, 16];
/// Δ, node-count factor and seed of the phase-trajectory instance.
const E12_TRAJECTORY: (usize, usize, u64) = (8, 12, 77);

pub(super) fn e12_units(_: &ExpConfig) -> Result<Vec<ExpUnit>, String> {
    let spec = |d| format!("proposal-ablation:d={d}:factor=12:{}", seeds_tag(&SEEDS));
    let mut units = sweep(E12_DELTAS, spec, e12_ablation);
    let spec = |(d, f, seed)| format!("phase-trajectory:d={d}:factor={f}:seed={seed}");
    units.extend(sweep(&[E12_TRAJECTORY], spec, e12_trajectory));
    Ok(units)
}

fn e12_ablation(m: &mut Metrics, d: usize) -> Result<(), String> {
    m.put("delta", d as u64);
    let blind = PhaseConfig {
        proposal_tie: ProposalTie::IgnoreLoads,
    };
    for seed in SEEDS {
        let g = regular_graph(d, 12, seed);
        let a = solve_stable_orientation(&g, PhaseConfig::default());
        m.seed("careful_violations", seed, a.invariant_violations as u64);
        let stable = a.orientation.verify_stable(&g).is_ok();
        m.seed("careful_stable", seed, stable as u64);
        let b = solve_stable_orientation(&g, blind);
        m.seed("blind_violations", seed, b.invariant_violations as u64);
        let stable = b.orientation.verify_stable(&g).is_ok();
        m.seed("blind_stable", seed, stable as u64);
        if !stable {
            let fixed = sequential::run(&g, b.orientation);
            m.seed("repair_flips", seed, fixed.flips);
        }
    }
    Ok(())
}

/// The last phase whose partial orientation differs from the previous
/// phase's.
fn e12_trajectory(m: &mut Metrics, (d, factor, seed): (usize, usize, u64)) -> Result<(), String> {
    let g = regular_graph(d, factor, seed);
    let full = solve_stable_orientation(&g, PhaseConfig::default());
    let mut changed_at = 0;
    let mut prev = Orientation::unoriented(&g);
    for p in 1..=full.phases {
        let snap = run_phases_capped(&g, PhaseConfig::default(), p).orientation;
        if snap != prev {
            changed_at = p;
        }
        prev = snap;
    }
    m.put("changed_at", changed_at as u64);
    m.put("phases", full.phases as u64);
    Ok(())
}

fn sum(d: &UnitData, name: &str) -> String {
    (per_seed(d, name).iter().sum::<f64>() as u64).to_string()
}

fn every(d: &UnitData, name: &str) -> String {
    per_seed(d, name).iter().all(|&v| v == 1.0).to_string()
}

pub(super) fn render_e12(units: &Units) -> String {
    let cols: &[Col] = &[
        ("Δ", |d| int(d, "delta")),
        ("careful: violations", |d| sum(d, "careful_violations")),
        ("careful: stable?", |d| every(d, "careful_stable")),
        ("blind: violations", |d| sum(d, "blind_violations")),
        ("blind: stable?", |d| every(d, "blind_stable")),
        ("blind: repair flips", |d| {
            match per_seed(d, "repair_flips") {
                flips if flips.is_empty() => "0".into(),
                flips => f0(mean(&flips)),
            }
        }),
    ];
    let mut notes = vec![
        "(the paper's min-load proposal rule is load-bearing: Lemma 5.4 fails without it)".into(),
    ];
    if let Some(t) = part(units, "phase-trajectory").next() {
        notes.push(format!(
            "phase trajectory on Δ={} instance: last change at phase {} of {}",
            E12_TRAJECTORY.0,
            get(t, "changed_at"),
            get(t, "phases")
        ));
    }
    table(part(units, "proposal-ablation"), cols, &notes)
}

// --------------------------- e14: Thm 5.1 end-to-end, the Θ(Δ⁴) budget ---

const E14_DELTAS: &[usize] = &[2, 3, 4, 5];
/// `regular_graph` node-count factor and seed of the e14 instances.
const E14_FACTOR: usize = 8;
const E14_SEED: u64 = 7;

pub(super) fn e14_units(_: &ExpConfig) -> Result<Vec<ExpUnit>, String> {
    let spec = |d| format!("regular:d={d}:factor={E14_FACTOR}:seed={E14_SEED}");
    Ok(sweep(E14_DELTAS, spec, e14_run))
}

fn e14_run(m: &mut Metrics, d: usize) -> Result<(), String> {
    let g = regular_graph(d, E14_FACTOR, E14_SEED);
    let dist = td_orient::protocol::run_distributed(&g, &Simulator::sequential());
    verify("stable", dist.orientation.verify_stable(&g))?;
    let lock = solve_stable_orientation(&g, PhaseConfig::default());
    if dist.orientation != lock.orientation {
        return Err("distributed protocol diverged from the lockstep phase solver".into());
    }
    m.put("delta", d as u64);
    m.put("n", g.num_nodes() as u64);
    m.put("rounds", dist.comm_rounds as u64);
    m.put("messages", dist.messages);
    Ok(())
}

pub(super) fn render_e14(units: &Units) -> String {
    let cols: &[Col] = &[
        ("Δ", |d| int(d, "delta")),
        ("n", |d| int(d, "n")),
        ("comm rounds (budget)", |d| int(d, "rounds")),
        ("Δ⁴", |d| get(d, "delta").pow(4).to_string()),
        ("messages", |d| int(d, "messages")),
        ("matches lockstep?", |_| "true".into()),
    ];
    let note = "(phase synchronization uses the known-Δ budget, so rounds are the bound \
                itself: (2Δ+2)·(3 + 2·(2Δ³+2Δ+8)) — the explicit constant behind O(Δ⁴))";
    table(all(units), cols, &[note.into()])
}

// ------------------------------------ stress: comb and waterfall games ---

const STRESS_COMB_KS: &[usize] = &[2, 4, 8, 16, 32, 64];
/// Largest comb the protocol column runs (the lockstep column runs all).
const STRESS_PROTOCOL_MAX_K: usize = 16;
const STRESS_WATERFALLS: &[(usize, usize)] = &[(4, 4), (8, 4), (8, 8), (16, 8)];

pub(super) fn stress_units(_: &ExpConfig) -> Result<Vec<ExpUnit>, String> {
    let mut units = sweep(
        STRESS_COMB_KS,
        |k| format!("contention-comb:k={k}"),
        stress_comb,
    );
    let spec = |(k, l)| format!("waterfall:k={k}:levels={l}");
    units.extend(sweep(STRESS_WATERFALLS, spec, stress_waterfall));
    Ok(units)
}

fn stress_comb(m: &mut Metrics, k: usize) -> Result<(), String> {
    let game = TokenGame::contention_comb(k);
    let res = lockstep::run(&game);
    verify("rules 1-3", td_core::verify_solution(&game, &res.solution))?;
    m.put("k", k as u64);
    m.put("rounds", res.rounds as u64);
    if k <= STRESS_PROTOCOL_MAX_K {
        // The same registry entry `td bench contention-comb` runs; it
        // verifies its own output.
        let sc = scenario::find("contention-comb").ok_or("unregistered")?;
        let rep = sc.run(k as u32, 0, &Simulator::sequential());
        m.put("protocol_rounds", rep.rounds);
    }
    Ok(())
}

fn stress_waterfall(m: &mut Metrics, (k, levels): (usize, usize)) -> Result<(), String> {
    let game = TokenGame::waterfall(k, levels);
    let res = lockstep::run(&game);
    verify("rules 1-3", td_core::verify_solution(&game, &res.solution))?;
    m.put("k", k as u64);
    m.put("levels", levels as u64);
    m.put("rounds", res.rounds as u64);
    Ok(())
}

pub(super) fn render_stress(units: &Units) -> String {
    let comb = part(units, "contention-comb");
    let b = fit(
        comb.clone(),
        |d| get(d, "k") as f64,
        |d| get(d, "rounds") as f64,
    );
    let comb = table(
        comb,
        &[
            ("Δ = k", |d| int(d, "k")),
            ("comb rounds", |d| int(d, "rounds")),
            ("floor k", |d| int(d, "k")),
            ("protocol comm rounds", |d| {
                metric(d, "protocol_rounds").map_or("-".into(), |v| v.to_string())
            }),
        ],
        &[format!(
            "fitted exponent rounds ~ Δ^b: b = {b:.2} (serialization makes the Ω(Δ) floor tight)"
        )],
    );
    let waterfall = table(
        part(units, "waterfall"),
        &[
            ("k", |d| int(d, "k")),
            ("levels L", |d| int(d, "levels")),
            ("waterfall rounds", |d| int(d, "rounds")),
            ("k + L floor", |d| {
                (get(d, "k") + get(d, "levels")).to_string()
            }),
        ],
        &[],
    );
    format!("{comb}\n{waterfall}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_seed_reads_only_the_named_metric() {
        let metrics = [("a/11", 3), ("a_b", 9), ("a/22", 5), ("b/11", 7)];
        let d = UnitData {
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            ..UnitData::default()
        };
        assert_eq!(per_seed(&d, "a"), vec![3.0, 5.0]);
        assert_eq!((avg(&d, "a"), peak(&d, "a")), (4.0, 5.0));
        assert!(per_seed(&d, "missing").is_empty());
    }

    #[test]
    fn e14_rounds_equal_the_explicit_budget() {
        // Known-Δ phase synchronization: the protocol runs exactly
        // (2Δ+2)·(3 + 2·(2Δ³+2Δ+8)) rounds, the constant behind Θ(Δ⁴).
        let mut rounds = Vec::new();
        for unit in e14_units(&ExpConfig::default()).unwrap() {
            let data = (unit.runner)().unwrap_or_else(|e| panic!("{}: {e}", unit.label));
            let d = get(&data, "delta");
            let budget = (2 * d + 2) * (3 + 2 * (2 * d.pow(3) + 2 * d + 8));
            assert_eq!(get(&data, "rounds"), budget, "Δ = {d}");
            rounds.push(budget);
        }
        assert_eq!(rounds, vec![354, 1112, 2910, 6468]);
    }
}

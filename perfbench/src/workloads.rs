//! The three workloads and the checks on their outputs.
//!
//! `orient-mixed` and `assign-mixed` serve a seeded churn mix open-loop
//! through `td_bench::serve::serve`; `orient-solve` runs the paper's static
//! orientation algorithm on the pinned-worker engine. An untraced run
//! measures the end-to-end metrics. A traced run makes the same untraced
//! measurement, then replays the same spec and seed closed loop with a span
//! around every call into a layer, and derives the per-layer metrics from
//! those spans.

use std::any::Any;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use td_assign::AssignChurnEngine;
use td_bench::serve::{self, nearest_rank, ServeConfig, ServeReport};
use td_bench::{WorkloadInstance, WorkloadSpec};
use td_graph::{BuildError, CsrGraph, GraphBuilder, NodeId};
use td_local::{ChurnEvent, ExecPerf, RepairMode, RepairStats, Simulator};
use td_orient::protocol::{run_distributed, DistributedResult};
use td_orient::{OrientChurnEngine, Orientation};

use crate::report::{median, peak_rss_mib, ratio, Report};
use crate::spans::{span_opt, Tracer};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Orientation churn served open-loop; a third of the events rebuild.
    OrientMixed,
    /// Assignment churn served open-loop; joins and leaves rebuild.
    AssignMixed,
    /// The static stable-orientation solve on the pinned-worker engine.
    OrientSolve,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::OrientMixed,
        Workload::AssignMixed,
        Workload::OrientSolve,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OrientMixed => "orient-mixed",
            Workload::AssignMixed => "assign-mixed",
            Workload::OrientSolve => "orient-solve",
        }
    }

    /// The workload named `s`.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The layer (crate) whose engine the workload drives.
    fn layer(self) -> &'static str {
        match self {
            Workload::AssignMixed => "assign",
            Workload::OrientMixed | Workload::OrientSolve => "orient",
        }
    }
}

/// How a workload runs. [`Plan::of`] gives the benchmark's settings.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The instance; the run sets its seed (and, for serving, its event count).
    pub spec: WorkloadSpec,
    /// Offered load of the serve workloads, events per second.
    pub rate: u64,
    /// Engine worker threads.
    pub threads: usize,
    /// Engine shards.
    pub shards: usize,
}

impl Plan {
    /// The benchmark's settings for `w`.
    ///
    /// Serving uses one engine thread: with the generator beside it that is
    /// every core of a two-core host, and more engine threads would
    /// oversubscribe it.
    pub fn of(w: Workload) -> Plan {
        let (spec, rate, threads, shards) = match w {
            // Flips outweigh the rebuilding inserts and deletes 4:1:1, so the
            // median event is clearly a flip and p50 has one mode. At 50
            // ev/s the 20 ms tick period stays clear of the open-loop
            // rebuild cost (6-12 ms as the host varies); at 100-150 ev/s the
            // two meet, back-to-back rebuilds queue or not by a hair, and
            // p99 jumps between runs.
            Workload::OrientMixed => (
                WorkloadSpec::new("churn-orient").map(|s| {
                    s.with_size(8192)
                        .with_param("d", 4)
                        .with_param("flip_w", 4)
                        .with_param("ins_w", 1)
                        .with_param("del_w", 1)
                }),
                50,
                1,
                1,
            ),
            Workload::AssignMixed => (
                WorkloadSpec::new("churn-assign").map(|s| s.with_size(2048)),
                150,
                1,
                1,
            ),
            Workload::OrientSolve => (
                WorkloadSpec::new("regular").map(|s| s.with_size(16384).with_param("d", 4)),
                0,
                2,
                2,
            ),
        };
        Plan {
            workload: w,
            spec: spec.expect("registered family"),
            rate,
            threads,
            shards,
        }
    }
}

/// One run of one workload.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// What to run.
    pub plan: Plan,
    /// Workload seed.
    pub seed: u64,
    /// How long the measurement lasts.
    pub window: Duration,
    /// True for the traced run.
    pub trace: bool,
    /// Serve these events instead of the spec's generated mix; the fault
    /// injection hook of the tests.
    pub events: Option<Vec<ChurnEvent>>,
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Metrics, facts and correctness.
    pub report: Report,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

/// Worker threads the host offers.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one workload and checks its outputs. A panic anywhere counts every
/// attempted operation as failed.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut report = Report::new();
    let mut tracer = cfg.trace.then(Tracer::new);
    let result = catch_unwind(AssertUnwindSafe(|| match cfg.plan.workload {
        Workload::OrientSolve => run_solve(cfg, &mut report, tracer.as_mut()),
        _ => run_serve(cfg, &mut report, tracer.as_mut()),
    }));
    if let Err(panic) = result {
        report.attempted = report.attempted.max(1);
        report.failed = report.attempted;
        report.fail(format!("panicked: {}", panic_message(panic.as_ref())));
    }
    report.failed = report.failed.min(report.attempted);
    report.set(
        "failed_frac",
        ratio(report.failed as f64, report.attempted as f64),
    );
    match peak_rss_mib() {
        Ok(mib) => report.set("peak_rss_mb", mib),
        Err(e) => report.fail(e),
    }
    if let Some(t) = &tracer {
        set_self_times(&mut report, t);
    }
    Outcome { report, tracer }
}

// ------------------------------------------------------------ serving ---

/// A churn engine of either family, built the way `serve` builds it.
enum Engine {
    Orient(Box<OrientChurnEngine>),
    Assign(Box<AssignChurnEngine>),
}

/// Span names of one engine's public calls: new, stabilize, apply, verify.
const ORIENT_CALLS: [&str; 4] = [
    "OrientChurnEngine::new",
    "OrientChurnEngine::stabilize",
    "OrientChurnEngine::apply",
    "OrientChurnEngine::verify",
];
const ASSIGN_CALLS: [&str; 4] = [
    "AssignChurnEngine::new",
    "AssignChurnEngine::stabilize",
    "AssignChurnEngine::apply",
    "AssignChurnEngine::verify",
];

impl Engine {
    fn new(inst: WorkloadInstance, plan: &Plan) -> Result<(Engine, Vec<ChurnEvent>), String> {
        match inst {
            WorkloadInstance::OrientChurn { graph, trace } => {
                let o = Orientation::toward_larger(&graph);
                let e = OrientChurnEngine::new(graph, o, RepairMode::Incremental)
                    .with_threads(plan.threads)
                    .with_shards(plan.shards);
                Ok((Engine::Orient(Box::new(e)), trace))
            }
            WorkloadInstance::AssignChurn { base, trace } => {
                let e = AssignChurnEngine::new(&base, RepairMode::Incremental)
                    .with_threads(plan.threads)
                    .with_shards(plan.shards);
                Ok((Engine::Assign(Box::new(e)), trace))
            }
            _ => Err("the spec is not a churn family".into()),
        }
    }

    fn stabilize(&mut self) -> RepairStats {
        match self {
            Engine::Orient(e) => e.stabilize(),
            Engine::Assign(e) => e.stabilize(),
        }
    }

    fn apply(&mut self, ev: &ChurnEvent) -> Result<RepairStats, String> {
        match self {
            Engine::Orient(e) => e.apply(ev).map_err(|er| er.to_string()),
            Engine::Assign(e) => e.apply(ev).map_err(|er| er.to_string()),
        }
    }

    fn verify(&self) -> Result<(), String> {
        match self {
            Engine::Orient(e) => e.verify().map_err(|er| format!("{er:?}")),
            Engine::Assign(e) => e.verify().map_err(|er| format!("{er:?}")),
        }
    }

    fn exec_perf(&self) -> ExecPerf {
        match self {
            Engine::Orient(e) => e.exec_perf(),
            Engine::Assign(e) => e.exec_perf(),
        }
    }

    /// FNV-1a over the solution, the formula of `ServeReport::fingerprint`:
    /// the head of every edge, or `server + 1` per customer (0 = none).
    fn fingerprint(&self) -> u64 {
        match self {
            Engine::Orient(e) => fnv1a(
                e.graph()
                    .edges()
                    .map(|edge| e.orientation().head(edge).expect("complete orientation").0 as u64),
            ),
            Engine::Assign(e) => fnv1a(
                e.assignment_vector()
                    .iter()
                    .map(|a| a.map_or(0, |s| s as u64 + 1)),
            ),
        }
    }

    /// Node count and edge list of the live network: what one rebuild
    /// hands to `GraphBuilder`.
    fn network(&self) -> (usize, Vec<(u32, u32)>) {
        match self {
            Engine::Orient(e) => {
                let g = e.graph();
                let edges = g.edge_list().map(|(_, a, b)| (a.0, b.0)).collect();
                (g.num_nodes(), edges)
            }
            Engine::Assign(e) => {
                let (inst, _, _) = e.effective_instance();
                let nc = inst.num_customers();
                let edges = (0..nc)
                    .flat_map(|c| {
                        inst.servers_of(c)
                            .iter()
                            .map(move |&s| (c as u32, (nc as u32) + s))
                    })
                    .collect();
                (nc + inst.num_servers(), edges)
            }
        }
    }
}

fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The kind of an event, as the tag of its `apply` span.
fn kind(ev: &ChurnEvent) -> &'static str {
    match ev {
        ChurnEvent::EdgeFlip { .. } => "flip",
        ChurnEvent::EdgeInsert { .. } => "insert",
        ChurnEvent::EdgeDelete { .. } => "delete",
        ChurnEvent::CustomerJoin { .. } => "join",
        ChurnEvent::CustomerLeave(_) => "leave",
        ChurnEvent::ServerCapacity { .. } => "cap",
        ChurnEvent::TokenArrive(_) | ChurnEvent::TokenDrop(_) => "token",
    }
}

/// Seed of set-up `i`. Set-up 0 builds the run's own instance; the others
/// build siblings of the same family and size, so `setup_s` is a median
/// over instances and not the luck of one generator draw.
fn setup_seed(seed: u64, i: usize) -> u64 {
    seed ^ ((i as u64) << 32)
}

/// Fewest events in one timed serve session.
const SESSION_EVENTS: u32 = 1000;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// `GraphBuilder` builds timed per traced run.
const CSR_REPS: usize = 5;

/// One set-up: spec build, engine construction, first stabilize, verify.
fn setup(spec: &WorkloadSpec, plan: &Plan) -> Result<(), String> {
    let (mut eng, _) = Engine::new(spec.build()?, plan)?;
    eng.stabilize();
    eng.verify()
}

fn run_serve(cfg: &RunConfig, rep: &mut Report, tracer: Option<&mut Tracer>) {
    let plan = &cfg.plan;
    let events = (plan.rate as f64 * cfg.window.as_secs_f64())
        .round()
        .max(1.0) as u32;
    // As many sessions as give each at least SESSION_EVENTS events, so a
    // session's p99 has at least 10 samples beyond it.
    let sessions = (events / SESSION_EVENTS).max(1);
    let budget = match &cfg.events {
        Some(evs) => u32::try_from(evs.len()).expect("the injected stream fits u32"),
        None => events / sessions,
    };
    let spec = plan
        .spec
        .clone()
        .with_seed(cfg.seed)
        .with_param("events", budget);
    rep.attempted = u64::from(budget) * u64::from(sessions);
    rep.fact(format!(
        "workload {}: spec={spec} open-loop rate={} ev/s, {sessions} sessions of {budget} events",
        plan.workload.name(),
        plan.rate
    ));

    if tracer.is_none() {
        let mut secs = Vec::new();
        for i in 0..SETUP_REPS {
            let spec = spec.clone().with_seed(setup_seed(cfg.seed, i));
            let t0 = Instant::now();
            match setup(&spec, plan) {
                Ok(()) => secs.push(t0.elapsed().as_secs_f64()),
                Err(e) => rep.fail(format!("set-up: {e}")),
            }
        }
        rep.fact(format!("setup: median of {} set-ups", secs.len()));
        rep.set("setup_s", median(&secs));
    }

    let mut scfg = match ServeConfig::new(spec.family) {
        Ok(c) => c,
        Err(e) => {
            rep.failed = rep.attempted;
            return rep.fail(e);
        }
    };
    scfg.spec = spec.clone();
    scfg.rate = plan.rate;
    scfg.budget = budget;
    scfg.threads = plan.threads;
    scfg.shards = plan.shards;
    scfg.trace = cfg.events.clone();
    // Every session serves the same stream from a fresh engine; the
    // timings are medians over sessions, so one session that a host stall
    // hit does not move them. An untimed unpaced session comes first: the
    // first session of a process pays the daemon heap's first-touch page
    // faults, which a long-running daemon pays once.
    let mut warm_up = scfg.clone();
    warm_up.rate = 0;
    rep.attempted += u64::from(budget);
    let mut served: Vec<ServeReport> = Vec::new();
    let mut warmed = None;
    for s in 0..=sessions {
        let timed = s > 0;
        match serve::serve(if timed { &scfg } else { &warm_up }) {
            Ok(r) if !timed => {
                rep.failed += u64::from(budget - r.events);
                warmed = Some(r);
            }
            Ok(r) => {
                rep.failed += u64::from(budget - r.events);
                let lat = &r.latency;
                let rank99 = (990 * lat.count).div_ceil(1000).max(1);
                rep.fact(format!(
                    "session {s}: {} samples, p50={:.3} ms, p99={:.3} ms ({} samples beyond p99), \
                     max={:.3} ms, capacity={:.2} ev/s",
                    lat.count,
                    lat.p50_ns as f64 / 1e6,
                    lat.p99_ns as f64 / 1e6,
                    lat.count.saturating_sub(rank99),
                    lat.max_ns as f64 / 1e6,
                    r.saturation_eps()
                ));
                served.push(r);
            }
            Err(e) => {
                rep.failed += u64::from(budget);
                rep.fail(format!("serve: {e}"));
            }
        }
    }
    let Some(first) = served.first() else { return };
    if let Some(r) = served.iter().chain(&warmed).find(|r| {
        (r.fingerprint, r.repair, r.perf) != (first.fingerprint, first.repair, first.perf)
    }) {
        rep.fail(format!(
            "sessions disagree: fingerprint {:016x} vs {:016x}",
            r.fingerprint, first.fingerprint
        ));
    }
    rep.fact(format!(
        "ran: engine threads={} shards={} + 1 generator thread, available_parallelism={}",
        first.threads,
        first.shards,
        available_parallelism()
    ));
    if first.threads + 1 > available_parallelism() {
        rep.fact("oversubscribed: engine threads + generator exceed available_parallelism");
    }

    let med = |f: &dyn Fn(&ServeReport) -> f64| median(&served.iter().map(f).collect::<Vec<_>>());
    rep.set("capacity_eps", med(&|r| r.saturation_eps()));
    rep.set("latency_p50_ms", med(&|r| r.latency.p50_ns as f64 / 1e6));
    rep.set("latency_p99_ms", med(&|r| r.latency.p99_ns as f64 / 1e6));
    rep.set("solve_s", med(&|r| r.busy_ns as f64 / 1e9));
    rep.set(
        "serve.queue_wait_mean_ms",
        med(&|r| {
            let service_mean_ns = ratio(r.busy_ns as f64, f64::from(r.events));
            (r.latency.mean_ns as f64 - service_mean_ns) / 1e6
        }),
    );
    rep.set(
        "serve.busy_frac",
        med(&|r| ratio(r.busy_ns as f64, r.wall_ns as f64)),
    );
    let lag_max = served.iter().map(|r| r.max_lag_ns).max().unwrap_or(0);
    rep.set("serve.generator_lag_max_ms", lag_max as f64 / 1e6);
    let backpressure: u64 = served.iter().map(|r| r.backpressure).sum();
    rep.set("serve.backpressure", backpressure as f64);

    let p = &first.perf;
    counters(
        rep,
        plan.workload,
        &spec,
        &[
            ("events", u64::from(first.events)),
            ("queries", first.queries),
            ("rounds", u64::from(first.repair.rounds)),
            ("messages", first.repair.messages),
            ("node_steps", first.repair.node_steps),
            ("node_rounds", p.node_rounds),
            ("halted_scans", p.halted_scans),
            ("sparse_skips", p.sparse_skips),
            ("local_messages", p.local_messages),
            ("boundary_messages", p.boundary_messages),
            ("stamp_scans", p.stamp_scans),
            ("max_load", u64::from(first.max_load)),
            ("fingerprint", first.fingerprint),
        ],
    );
    let served_capacity = med(&|r| r.saturation_eps());

    if let Some(tr) = tracer {
        // The untraced baseline of the tracing overhead is a closed-loop
        // replay too: the open-loop capacity above also pays for the cold
        // caches of an engine that idles between events. Untraced replays
        // run on both sides of the traced one, so neither side is favoured
        // by running later.
        let before = replay(cfg, &spec, first, rep, None);
        let traced_eps = replay(cfg, &spec, first, rep, Some(tr));
        let untraced_eps = (before + replay(cfg, &spec, first, rep, None)) / 2.0;
        rep.fact(format!(
            "capacity: open-loop {served_capacity:.2} ev/s, closed-loop replay {untraced_eps:.2} ev/s"
        ));
        set_overhead(rep, untraced_eps, traced_eps);
    }
}

/// A closed-loop replay of a serve run: the same spec and events applied
/// back to back, with a span around every public engine call when a tracer
/// is given. Its final solution, repair totals and work counters must equal
/// the served run's. Returns its capacity, events per second of apply time.
fn replay(
    cfg: &RunConfig,
    spec: &WorkloadSpec,
    served: &ServeReport,
    rep: &mut Report,
    mut tr: Option<&mut Tracer>,
) -> f64 {
    let plan = &cfg.plan;
    let layer = plan.workload.layer();
    let calls = match plan.workload {
        Workload::AssignMixed => ASSIGN_CALLS,
        _ => ORIENT_CALLS,
    };
    let [c_new, c_stabilize, c_apply, c_verify] = calls;
    let root = tr.as_deref_mut().map(|t| t.open("bench", "replay", ""));
    let built = span_opt(tr.as_deref_mut(), "spec", "WorkloadSpec::build", "", || {
        spec.build()
    })
    .and_then(|inst| {
        span_opt(tr.as_deref_mut(), layer, c_new, "", || {
            Engine::new(inst, plan)
        })
    });
    let (mut eng, generated) = match built {
        Ok(b) => b,
        Err(e) => {
            if let (Some(t), Some(id)) = (tr, root) {
                t.close(id);
            }
            rep.attempted += u64::from(served.budget);
            rep.failed += u64::from(served.budget);
            rep.fail(format!("replay set-up: {e}"));
            return 0.0;
        }
    };
    let events = cfg.events.clone().unwrap_or(generated);
    span_opt(tr.as_deref_mut(), layer, c_stabilize, "", || {
        eng.stabilize()
    });
    if let Err(e) = span_opt(tr.as_deref_mut(), layer, c_verify, "", || eng.verify()) {
        rep.fail(format!("replay initial stabilization: {e}"));
    }
    rep.attempted += events.len() as u64;
    let mut repair = RepairStats::accumulator();
    let mut apply_ns = 0u64;
    let mut first_error = None;
    for ev in &events {
        let t0 = Instant::now();
        let r = span_opt(tr.as_deref_mut(), layer, c_apply, kind(ev), || {
            eng.apply(ev)
        });
        apply_ns += t0.elapsed().as_nanos() as u64;
        match r {
            Ok(s) => repair.absorb(s),
            Err(e) => {
                rep.failed += 1;
                first_error.get_or_insert(e);
            }
        }
    }
    if let Some(e) = first_error {
        rep.fail(format!("replay: {e}"));
    }
    if let Err(e) = span_opt(tr.as_deref_mut(), layer, c_verify, "", || eng.verify()) {
        rep.fail(format!("replay final state unstable: {e}"));
    }
    let fingerprint = eng.fingerprint();
    if fingerprint != served.fingerprint {
        rep.fail(format!(
            "replay fingerprint {fingerprint:016x} != served {:016x}",
            served.fingerprint
        ));
    }
    let perf = eng.exec_perf();
    if repair != served.repair || perf != served.perf {
        rep.fail(format!(
            "replay work differs from the served run: {repair:?} {perf:?} vs {:?} {:?}",
            served.repair, served.perf
        ));
    }
    let eps = ratio(events.len() as f64, apply_ns as f64 / 1e9);
    let (Some(tr), Some(root)) = (tr, root) else {
        return eps;
    };
    let (n, edges) = eng.network();
    time_csr_builds(tr, n, &edges);
    tr.close(root);

    // Per-layer metrics, from the spans.
    let kinds: &[(&str, &str)] = match plan.workload {
        Workload::AssignMixed => &[
            ("join", "assign.apply_join_us"),
            ("leave", "assign.apply_leave_us"),
            ("cap", "assign.apply_cap_us"),
        ],
        _ => &[
            ("flip", "orient.apply_flip_us"),
            ("insert", "orient.apply_insert_us"),
            ("delete", "orient.apply_delete_us"),
        ],
    };
    for &(k, metric) in kinds {
        rep.set(metric, mean(&tr.durations(c_apply, Some(k))) / 1e3);
    }
    let traced_apply_ns: u64 = tr.durations(c_apply, None).iter().sum();
    let stabilize_ns = mean(&tr.durations(c_stabilize, None));
    let n_ev = events.len() as f64;
    let per_layer = |m: &str| format!("{layer}.{m}");
    rep.set(
        &per_layer("us_per_node_step"),
        ratio(traced_apply_ns as f64 / 1e3, repair.node_steps as f64),
    );
    rep.set(&per_layer("stabilize_ms"), stabilize_ns / 1e6);
    rep.set(
        &per_layer("verify_ms"),
        mean(&tr.durations(c_verify, None)) / 1e6,
    );
    rep.set(
        &per_layer("rounds_per_event"),
        ratio(f64::from(repair.rounds), n_ev),
    );
    rep.set(
        &per_layer("messages_per_event"),
        ratio(repair.messages as f64, n_ev),
    );
    rep.set(
        &per_layer("node_steps_per_event"),
        ratio(repair.node_steps as f64, n_ev),
    );
    rep.set(
        "spec.build_ms",
        mean(&tr.durations("WorkloadSpec::build", None)) / 1e6,
    );
    set_local_counts(rep, &perf);
    rep.set(
        "local.node_rounds_per_s",
        ratio(
            perf.node_rounds as f64,
            (traced_apply_ns as f64 + stabilize_ns) / 1e9,
        ),
    );
    rep.set(
        "local.churn.active_frac",
        ratio(
            perf.node_rounds as f64,
            (perf.node_rounds + perf.sparse_skips) as f64,
        ),
    );
    eps
}

// ------------------------------------------------------------- solving ---

/// One static solve; a panic in the protocol (round cap, endpoint
/// disagreement) becomes an error.
fn solve(g: &CsrGraph, sim: &Simulator) -> Result<DistributedResult, String> {
    catch_unwind(AssertUnwindSafe(|| run_distributed(g, sim)))
        .map_err(|p| format!("run_distributed panicked: {}", panic_message(p.as_ref())))
}

/// A solve is correct when its orientation is stable and it matches the
/// sequential reference in orientation, rounds and messages.
fn check_solve(
    g: &CsrGraph,
    r: &DistributedResult,
    reference: &DistributedResult,
) -> Result<(), String> {
    r.orientation
        .verify_stable(g)
        .map_err(|e| format!("unstable orientation: {e:?}"))?;
    if (r.comm_rounds, r.messages) != (reference.comm_rounds, reference.messages) {
        return Err(format!(
            "rounds/messages {}/{} differ from the sequential reference {}/{}",
            r.comm_rounds, r.messages, reference.comm_rounds, reference.messages
        ));
    }
    if r.orientation != reference.orientation {
        return Err("orientation differs from the sequential reference".into());
    }
    Ok(())
}

fn build_graph(spec: &WorkloadSpec) -> Result<CsrGraph, String> {
    match spec.build()? {
        WorkloadInstance::Orientation(g) => Ok(g),
        _ => Err("the spec is not an orientation family".into()),
    }
}

fn run_solve(cfg: &RunConfig, rep: &mut Report, tracer: Option<&mut Tracer>) {
    let plan = &cfg.plan;
    let spec = plan.spec.clone().with_seed(cfg.seed);
    rep.fact(format!(
        "workload {}: spec={spec} closed loop, one solve at a time, sequential reference first",
        plan.workload.name()
    ));
    rep.attempted = 1;
    let mut graph = None;
    let mut secs = Vec::new();
    for i in 0..SETUP_REPS {
        let t0 = Instant::now();
        match build_graph(&spec.clone().with_seed(setup_seed(cfg.seed, i))) {
            Ok(g) => {
                secs.push(t0.elapsed().as_secs_f64());
                if i == 0 {
                    graph = Some(g);
                }
            }
            Err(e) => rep.fail(format!("set-up: {e}")),
        }
    }
    rep.set("setup_s", median(&secs));
    let Some(g) = graph else {
        rep.failed = 1;
        return;
    };

    let t0 = Instant::now();
    let reference = solve(&g, &Simulator::sequential());
    let reference_s = t0.elapsed().as_secs_f64();
    let reference = match reference.and_then(|r| {
        r.orientation
            .verify_stable(&g)
            .map(|()| r)
            .map_err(|e| format!("unstable orientation: {e:?}"))
    }) {
        Ok(r) => r,
        Err(e) => {
            rep.failed = 1;
            return rep.fail(format!("sequential reference: {e}"));
        }
    };

    let sim = Simulator::sharded(plan.shards, plan.threads);
    let mut times_ns = Vec::new();
    let mut last = None;
    rep.attempted = 0;
    let start = Instant::now();
    while rep.attempted == 0 || start.elapsed() < cfg.window {
        rep.attempted += 1;
        let t0 = Instant::now();
        let r = solve(&g, &sim);
        let ns = t0.elapsed().as_nanos() as u64;
        match r.and_then(|r| check_solve(&g, &r, &reference).map(|()| r)) {
            Ok(r) => {
                times_ns.push(ns);
                last = Some(r);
            }
            Err(e) => {
                rep.failed += 1;
                rep.fail(format!("solve {}: {e}", rep.attempted));
            }
        }
    }
    let Some(last) = last else { return };

    let shards = last.sharding.map_or(1, |s| s.shards);
    rep.fact(format!(
        "ran: executor sharded, shards={shards} threads={} (requested {}x{}), available_parallelism={}",
        plan.threads.min(shards),
        plan.shards,
        plan.threads,
        available_parallelism()
    ));
    if plan.threads.min(shards) > available_parallelism() {
        rep.fact("oversubscribed: solver threads exceed available_parallelism");
    }
    times_ns.sort_unstable();
    let p50 = nearest_rank(&times_ns, 500) as f64;
    let p99 = nearest_rank(&times_ns, 990) as f64;
    let total_ns: u64 = times_ns.iter().sum();
    rep.fact(format!(
        "solves: {} verified, p50={:.1} ms, p99 (nearest rank)={:.1} ms; sequential reference {:.1} ms",
        times_ns.len(),
        p50 / 1e6,
        p99 / 1e6,
        reference_s * 1e3
    ));
    let capacity = ratio(times_ns.len() as f64, total_ns as f64 / 1e9);
    rep.set("solve_s", p50 / 1e9);
    rep.set("latency_p50_ms", p50 / 1e6);
    rep.set("latency_p99_ms", p99 / 1e6);
    rep.set("capacity_eps", capacity);

    let p = &last.perf;
    rep.set("local.parallel_speedup", ratio(reference_s, p50 / 1e9));
    rep.set(
        "local.node_rounds_per_s",
        ratio(p.node_rounds as f64, p50 / 1e9),
    );
    set_local_counts(rep, p);
    rep.set("orient.rounds_per_event", f64::from(last.comm_rounds));
    rep.set("orient.messages_per_event", last.messages as f64);
    rep.set("orient.node_steps_per_event", p.node_rounds as f64);
    counters(
        rep,
        plan.workload,
        &spec,
        &[
            ("rounds", u64::from(last.comm_rounds)),
            ("messages", last.messages),
            ("node_rounds", p.node_rounds),
            ("halted_scans", p.halted_scans),
            ("sparse_skips", p.sparse_skips),
            ("local_messages", p.local_messages),
            ("boundary_messages", p.boundary_messages),
            ("stamp_scans", p.stamp_scans),
        ],
    );

    if let Some(tr) = tracer {
        replay_solves_traced(cfg, &spec, times_ns.len(), capacity, rep, tr);
    }
}

/// The traced replay of a solve run: graph generation, the sequential
/// reference and `solves` engine solves, each followed by `verify_stable`.
fn replay_solves_traced(
    cfg: &RunConfig,
    spec: &WorkloadSpec,
    solves: usize,
    untraced_eps: f64,
    rep: &mut Report,
    tr: &mut Tracer,
) {
    let plan = &cfg.plan;
    let root = tr.open("bench", "replay", "");
    let built = tr.span("spec", "WorkloadSpec::build", "", || build_graph(spec));
    let reference = built.and_then(|g| {
        let r = tr.span("orient", "run_distributed", "sequential", || {
            solve(&g, &Simulator::sequential())
        })?;
        tr.span("orient", "Orientation::verify_stable", "", || {
            r.orientation.verify_stable(&g)
        })
        .map_err(|e| format!("unstable orientation: {e:?}"))?;
        Ok((g, r))
    });
    let (g, reference) = match reference {
        Ok(x) => x,
        Err(e) => {
            tr.close(root);
            rep.attempted += solves as u64;
            rep.failed += solves as u64;
            return rep.fail(format!("traced sequential reference: {e}"));
        }
    };
    let sim = Simulator::sharded(plan.shards, plan.threads);
    for _ in 0..solves {
        rep.attempted += 1;
        let r = tr.span("orient", "run_distributed", "sharded", || solve(&g, &sim));
        let checked = r.and_then(|r| {
            tr.span("orient", "Orientation::verify_stable", "", || {
                check_solve(&g, &r, &reference)
            })
        });
        if let Err(e) = checked {
            rep.failed += 1;
            rep.fail(format!("traced solve: {e}"));
        }
    }
    time_csr_builds(tr, g.num_nodes(), &edge_list(&g));
    tr.close(root);

    rep.set(
        "spec.build_ms",
        mean(&tr.durations("WorkloadSpec::build", None)) / 1e6,
    );
    rep.set(
        "orient.verify_ms",
        mean(&tr.durations("Orientation::verify_stable", None)) / 1e6,
    );
    let solve_ns: u64 = tr
        .durations("run_distributed", Some("sharded"))
        .iter()
        .sum();
    set_overhead(
        rep,
        untraced_eps,
        ratio(solves as f64, solve_ns as f64 / 1e9),
    );
}

// ------------------------------------------------------------- shared ---

fn edge_list(g: &CsrGraph) -> Vec<(u32, u32)> {
    g.edge_list().map(|(_, a, b)| (a.0, b.0)).collect()
}

fn build_csr(n: usize, edges: &[(u32, u32)]) -> Result<CsrGraph, BuildError> {
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for &(a, c) in edges {
        b.add_edge(NodeId(a), NodeId(c))?;
    }
    b.build()
}

/// Builds one network's CSR graph `CSR_REPS` times, one span each: the unit
/// cost of a rebuild (`graph.csr_build_us` is their median).
fn time_csr_builds(tr: &mut Tracer, n: usize, edges: &[(u32, u32)]) {
    for _ in 0..CSR_REPS {
        let g = tr.span("graph", "GraphBuilder::build", "", || {
            build_csr(n, black_box(edges))
        });
        black_box(g.expect("the live network is a simple graph"));
    }
}

fn set_local_counts(rep: &mut Report, p: &ExecPerf) {
    rep.set("local.node_rounds", p.node_rounds as f64);
    rep.set("local.sparse_skips", p.sparse_skips as f64);
    rep.set("local.halted_scans", p.halted_scans as f64);
    rep.set(
        "local.boundary_msg_frac",
        ratio(
            p.boundary_messages as f64,
            (p.local_messages + p.boundary_messages) as f64,
        ),
    );
}

/// Tracing overhead: the share of untraced capacity the traced run lost.
fn set_overhead(rep: &mut Report, untraced_eps: f64, traced_eps: f64) {
    rep.set("trace.overhead_frac", 1.0 - ratio(traced_eps, untraced_eps));
    rep.fact(format!(
        "tracing overhead: untraced {untraced_eps:.2} ev/s, traced {traced_eps:.2} ev/s"
    ));
}

/// Per-layer self time and the median CSR build, from the spans.
fn set_self_times(rep: &mut Report, tr: &Tracer) {
    let by_layer = tr.self_ns_by_layer();
    let mut line = String::from("self time by layer:");
    for layer in ["spec", "orient", "assign", "graph", "bench"] {
        let ms = by_layer.get(layer).copied().unwrap_or(0) as f64 / 1e6;
        rep.set(&format!("{layer}.self_ms"), ms);
        line.push_str(&format!(" {layer}={ms:.3}ms"));
    }
    rep.fact(line);
    let csr: Vec<f64> = tr
        .durations("GraphBuilder::build", None)
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    rep.set("graph.csr_build_us", median(&csr));
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

fn mean(ns: &[u64]) -> f64 {
    ratio(ns.iter().sum::<u64>() as f64, ns.len() as f64)
}

/// Prints the run's exact counters and says whether they match the values
/// recorded for this spec in `counters.txt`. A mismatch is reported, never
/// failed: it flags a behaviour change next to any speed change.
fn counters(rep: &mut Report, w: Workload, spec: &WorkloadSpec, kv: &[(&str, u64)]) {
    let key = format!("counters {} {spec}", w.name());
    let body: Vec<String> = kv.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let line = format!("{key} {}", body.join(" "));
    let recorded = RECORDED.lines().find(|l| {
        l.strip_prefix(&key)
            .is_some_and(|rest| rest.starts_with(' '))
    });
    let verdict = match recorded {
        None => "no recorded values for this spec".to_string(),
        Some(r) if r == line => "match the recorded values".to_string(),
        Some(r) => format!("DIFFER from the recorded values: {r}"),
    };
    rep.fact(line);
    rep.fact(format!("counters: {verdict}"));
}

/// Counters recorded for the default seed at the default run length.
const RECORDED: &str = include_str!("../counters.txt");

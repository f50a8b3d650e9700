//! Tiny-size runs of every workload: every metric is printed with its unit,
//! the registry agrees with `BENCHMARK.json`, and a bad event lands in the
//! failure count instead of crashing the harness.

use std::time::Duration;

use perfbench::{run, Mode, Plan, RunConfig, Workload, METRICS};
use td_bench::WorkloadInstance;
use td_graph::NodeId;
use td_local::ChurnEvent;

fn tiny(w: Workload, trace: bool) -> RunConfig {
    let mut plan = Plan::of(w);
    let size = match w {
        Workload::OrientMixed => 64,
        Workload::AssignMixed => 16,
        Workload::OrientSolve => 64,
    };
    plan.spec = plan.spec.with_size(size);
    RunConfig {
        plan,
        seed: 3,
        window: Duration::from_millis(200),
        trace,
        events: None,
    }
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = run(&tiny(w, trace));
            let r = &out.report;
            assert!(r.correct, "{} trace={trace}: {:?}", w.name(), r.facts);
            assert_eq!(r.failed, 0, "{}", w.name());
            assert!(r.attempted >= 1);
            assert_eq!(out.tracer.is_some(), trace);
            let mode = if trace { Mode::Layer } else { Mode::EndToEnd };
            let line = r.result_line(mode);
            assert!(line.starts_with("{\"correct\": true,"), "{line}");
            for d in METRICS {
                let printed = format!("\"{}\": {{\"value\": ", d.name);
                let unit = format!("\"unit\": \"{}\"}}", d.unit);
                let at = line.find(&printed);
                assert_eq!(at.is_some(), d.mode == mode, "{} in {line}", d.name);
                if let Some(at) = at {
                    let rest = &line[at + printed.len()..];
                    let value_end = rest.find(',').expect("value then unit");
                    let value: f64 = rest[..value_end].parse().expect("a number");
                    assert!(value.is_finite(), "{}", d.name);
                    assert!(rest[value_end..]
                        .trim_start_matches(", ")
                        .starts_with(&unit));
                }
            }
            if !trace {
                for name in ["setup_s", "capacity_eps", "latency_p50_ms", "solve_s"] {
                    assert!(r.get(name).unwrap() > 0.0, "{}: {name}", w.name());
                }
            }
        }
    }
}

#[test]
fn registry_matches_benchmark_json() {
    let json = include_str!("../../BENCHMARK.json");
    for d in METRICS {
        let better = if d.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
            d.name, d.unit
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
    }
    let names = json.matches("\"name\": ").count();
    assert_eq!(names, METRICS.len() + Workload::ALL.len());
}

#[test]
fn an_invalid_event_counts_as_failed() {
    for trace in [false, true] {
        let mut cfg = tiny(Workload::OrientMixed, trace);
        let spec = cfg
            .plan
            .spec
            .clone()
            .with_seed(cfg.seed)
            .with_param("events", 20);
        let WorkloadInstance::OrientChurn {
            graph,
            trace: mut events,
        } = spec.build().unwrap()
        else {
            panic!("churn-orient builds an orientation churn instance");
        };
        let v = (1..graph.num_nodes() as u32)
            .find(|&v| graph.edge_between(NodeId(0), NodeId(v)).is_none())
            .expect("a non-neighbour of node 0");
        events[0] = ChurnEvent::EdgeFlip {
            u: NodeId(0),
            v: NodeId(v),
        };
        cfg.events = Some(events);
        let out = run(&cfg);
        let r = &out.report;
        // One timed session and the untimed warm-up serve the stream.
        let n = 40;
        assert!(!r.correct);
        assert_eq!(r.attempted, n);
        assert_eq!(r.failed, n, "a session that errors fails all its events");
        assert_eq!(r.get("failed_frac"), Some(1.0));
        let line = r.result_line(if trace { Mode::Layer } else { Mode::EndToEnd });
        let head = format!("{{\"correct\": false, \"attempted\": {n}, \"failed\": {n},");
        assert!(line.starts_with(&head), "{line}");
        assert!(
            r.facts.iter().any(|f| f.contains("FAILED: serve")),
            "{:?}",
            r.facts
        );
    }
}

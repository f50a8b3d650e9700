//! The metric registry and the result a run prints.
//!
//! Every metric the benchmark can print is listed once in [`METRICS`], with
//! its unit, its direction and whether it belongs to the untraced
//! (end-to-end) or the traced (per-layer) result. `BENCHMARK.json` at the
//! repository root must name the same metrics; a test checks the two agree.

use std::collections::BTreeMap;

/// Which result a metric belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Printed by an untraced run (`--trace 0`): what a user of the system sees.
    EndToEnd,
    /// Printed by a traced run (`--trace 1`): the cost of one layer.
    Layer,
}

/// One metric of the registry.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// True if a higher value is better.
    pub higher_is_better: bool,
    /// Which result prints it.
    pub mode: Mode,
}

const fn m(name: &'static str, unit: &'static str, higher: bool, mode: Mode) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        mode,
    }
}

use Mode::{EndToEnd as E, Layer as L};

/// Every metric the benchmark prints. A metric of a layer the workload does
/// not exercise (say `assign.apply_join_us` on `orient-mixed`) reads 0.
pub const METRICS: &[MetricDef] = &[
    // End to end, measured with tracing off.
    m("setup_s", "s", false, E),
    m("capacity_eps", "ev/s", true, E),
    m("latency_p50_ms", "ms", false, E),
    m("solve_s", "s", false, E),
    m("peak_rss_mb", "MiB", false, E),
    // Measured like the end-to-end metrics, but unbounded: on a shared
    // machine the tail is set by stalls of the host, and its spread between
    // runs exceeds any bound a regression gate could use.
    m("latency_p99_ms", "ms", false, L),
    // Outcome of the traced run as a whole.
    m("failed_frac", "frac", false, L),
    m("trace.overhead_frac", "frac", false, L),
    // Self time per layer over the traced replay.
    m("spec.self_ms", "ms", false, L),
    m("orient.self_ms", "ms", false, L),
    m("assign.self_ms", "ms", false, L),
    m("graph.self_ms", "ms", false, L),
    m("bench.self_ms", "ms", false, L),
    // td-bench: spec build and the serve daemon.
    m("spec.build_ms", "ms", false, L),
    m("serve.queue_wait_mean_ms", "ms", false, L),
    m("serve.busy_frac", "frac", false, L),
    m("serve.generator_lag_max_ms", "ms", false, L),
    m("serve.backpressure", "count", false, L),
    // td-graph.
    m("graph.csr_build_us", "us", false, L),
    // td-orient.
    m("orient.apply_flip_us", "us", false, L),
    m("orient.apply_insert_us", "us", false, L),
    m("orient.apply_delete_us", "us", false, L),
    m("orient.us_per_node_step", "us", false, L),
    m("orient.stabilize_ms", "ms", false, L),
    m("orient.verify_ms", "ms", false, L),
    m("orient.rounds_per_event", "count", false, L),
    m("orient.messages_per_event", "count", false, L),
    m("orient.node_steps_per_event", "count", false, L),
    // td-assign.
    m("assign.apply_join_us", "us", false, L),
    m("assign.apply_leave_us", "us", false, L),
    m("assign.apply_cap_us", "us", false, L),
    m("assign.us_per_node_step", "us", false, L),
    m("assign.stabilize_ms", "ms", false, L),
    m("assign.verify_ms", "ms", false, L),
    m("assign.rounds_per_event", "count", false, L),
    m("assign.messages_per_event", "count", false, L),
    m("assign.node_steps_per_event", "count", false, L),
    // td-local.
    m("local.parallel_speedup", "x", true, L),
    m("local.node_rounds_per_s", "1/s", true, L),
    m("local.boundary_msg_frac", "frac", false, L),
    m("local.node_rounds", "count", false, L),
    m("local.sparse_skips", "count", false, L),
    m("local.halted_scans", "count", false, L),
    m("local.churn.active_frac", "frac", false, L),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// False once any output failed its check.
    pub correct: bool,
    /// Operations attempted (events served and replayed, or solves).
    pub attempted: u64,
    /// Operations that were not applied and verified.
    pub failed: u64,
    /// Header facts and counters, printed before the result line.
    pub facts: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// An empty, so far correct report.
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Records metric `name`.
    ///
    /// # Panics
    /// If `name` is not in [`METRICS`]: a misspelt metric is a bug here.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = METRICS
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not registered"));
        self.values.insert(def.name, value);
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Marks the run incorrect and says why.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.facts.push(format!("FAILED: {}", why.into()));
    }

    /// Adds a header fact.
    pub fn fact(&mut self, line: impl Into<String>) {
        self.facts.push(line.into());
    }

    /// The one-line JSON result: every metric of `mode`, in registry order.
    /// A metric the run could not measure reads 0; non-finite values read 0.
    pub fn result_line(&self, mode: Mode) -> String {
        let metrics: Vec<String> = METRICS
            .iter()
            .filter(|d| d.mode == mode)
            .map(|d| {
                let v = self.get(d.name).filter(|v| v.is_finite()).unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `xs` (mean of the middle two for an even count; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len() / 2;
    if v.len() % 2 == 1 {
        v[k]
    } else {
        (v[k - 1] + v[k]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's resident-set high-water mark, MiB (`VmHWM` in
/// `/proc/self/status`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parse VmHWM '{line}': {e}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn result_line_prints_every_metric_of_its_mode() {
        let mut r = Report::new();
        r.set("setup_s", 0.5);
        r.set("solve_s", f64::INFINITY);
        r.attempted = 10;
        let line = r.result_line(Mode::EndToEnd);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"solve_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(!line.contains("failed_frac"));
        r.failed = 1;
        assert!(r
            .result_line(Mode::Layer)
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_names_are_unique_and_within_the_name_rules() {
        for (i, d) in METRICS.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(METRICS[i + 1..].iter().all(|o| o.name != d.name));
        }
    }
}

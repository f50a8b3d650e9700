//! In-memory span tracer for the traced run.
//!
//! A span covers one call into a layer's public API: its layer (the crate
//! the call enters), the call's name, an optional tag (the event kind of an
//! `apply`), start and end relative to the tracer's origin, and the span
//! that was open when it started. Spans stay in memory until the run ends
//! and are then written out as one JSON document.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer the call enters: `spec`, `orient`, `assign`, `graph` or
    /// `bench` (the harness itself).
    pub layer: &'static str,
    /// The public call, e.g. `OrientChurnEngine::apply`.
    pub name: &'static str,
    /// Event kind for `apply` spans, solve executor for `run_distributed`.
    pub tag: &'static str,
    /// Start, nanoseconds after the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans; nesting follows the order of [`Tracer::open`] and
/// [`Tracer::close`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn open(&mut self, layer: &'static str, name: &'static str, tag: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            tag,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        tag: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(layer, name, tag);
        let r = f();
        self.close(id);
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of the closed spans named `name` with tag `tag`
    /// (`None` = any tag), in recording order.
    pub fn durations(&self, name: &str, tag: Option<&str>) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(Span::ns)
            .collect()
    }

    /// Self time per layer, nanoseconds: each span's duration minus the part
    /// its child spans cover, summed by layer.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *by_layer.entry(s.layer).or_insert(0) += s.ns().saturating_sub(c);
        }
        by_layer
    }

    /// The spans as a JSON array of `{layer, name, tag, start_ns, end_ns,
    /// parent}` objects (`parent` is an index into the array, or -1).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"layer\":\"{}\",\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                    s.layer,
                    s.name,
                    s.tag,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or(-1, |p| p as i64)
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Runs `f` inside a span when a tracer is given, bare otherwise.
pub fn span_opt<R>(
    tracer: Option<&mut Tracer>,
    layer: &'static str,
    name: &'static str,
    tag: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(layer, name, tag, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.open("bench", "root", "");
        t.span("orient", "apply", "flip", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("graph", "build", "", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.close(root);
        let by_layer = t.self_ns_by_layer();
        let total: u64 = by_layer.values().sum();
        assert_eq!(total, t.spans()[root].ns());
        assert!(by_layer["orient"] >= 2_000_000);
        assert!(by_layer["bench"] < t.spans()[root].ns() - by_layer["orient"]);
        assert_eq!(t.durations("apply", Some("flip")).len(), 1);
        assert_eq!(t.durations("apply", Some("insert")).len(), 0);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert!(t.to_json().contains("\"parent\":-1"));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::new();
        let a = t.open("bench", "a", "");
        let _b = t.open("bench", "b", "");
        t.close(a);
    }
}

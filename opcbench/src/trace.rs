//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions (nothing inside the library crates is instrumented).
//! Each span carries the request it belongs to, its layer name, the index
//! of the span that caused it, and start/end nanoseconds from one
//! monotonic origin. They stay in memory until the run ends; then they are
//! folded into per-layer self times and, optionally, written as JSON lines.

use std::io::Write;
use std::time::Instant;

/// Every layer the traced run records, in pipeline order. Container spans
/// (`request`, `setup`) are not layers: they only group their children.
pub const LAYERS: [&str; 10] = [
    "parse",
    "route",
    "passes",
    "translate",
    "lower",
    "verify",
    "calibration",
    "density",
    "sample",
    "score",
];

/// Request id of the spans a closed-loop run records before its first
/// job (written as `null`).
pub const SETUP_REQUEST: u64 = u64::MAX;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Request (job) identifier; spans of one request share it.
    pub request: u64,
    /// Layer or container name.
    pub layer: &'static str,
    /// Index of the causing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

/// The span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            // opclint: allow(nondeterminism): the benchmark's own span clock; never reaches a result
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that is closed later with [`Tracer::close`]; returns
    /// its index, which children pass as their parent.
    pub fn open(&mut self, request: u64, layer: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            request,
            layer,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes the span at `index`.
    pub fn close(&mut self, index: usize) {
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(index) {
            span.end_ns = now;
        }
    }

    /// Runs `f` inside a span of `layer` under `parent`.
    pub fn span<T>(
        &mut self,
        request: u64,
        layer: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let index = self.open(request, layer, parent);
        let out = f();
        self.close(index);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = match s.request {
                SETUP_REQUEST => "null".to_string(),
                r => r.to_string(),
            };
            writeln!(
                out,
                "{{\"request\":{},\"layer\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                request,
                json_escape(s.layer),
                parent,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` (half-open, nanoseconds).
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        current = match current {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end_ns - s.start_ns).saturating_sub(union_len(kids)))
        .collect()
}

/// Per-layer totals: `(calls, self-time ns)` in [`LAYERS`] order.
pub fn layer_totals(spans: &[Span]) -> Vec<(u64, u64)> {
    let selfs = self_times(spans);
    LAYERS
        .iter()
        .map(|layer| {
            spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.layer == *layer)
                .fold((0, 0), |(calls, ns), (_, &t)| (calls + 1, ns + t))
        })
        .collect()
}

/// Share of `wall_ns` covered by layer spans (container spans excluded).
pub fn coverage(spans: &[Span], wall_ns: u64) -> f64 {
    let covered = union_len(
        spans
            .iter()
            .filter(|s| LAYERS.contains(&s.layer))
            .map(|s| (s.start_ns, s.end_ns))
            .collect(),
    );
    covered as f64 / wall_ns.max(1) as f64
}

/// Escapes a string for a JSON string literal (quotes, backslashes and
/// control characters).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            request: 1,
            layer,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("request", None, 0, 100),
            span("lower", Some(0), 10, 40),
            // Overlaps the first child: the union, not the sum, is removed.
            span("verify", Some(0), 30, 50),
            span("density", Some(0), 60, 90),
            // A grandchild only reduces its own parent.
            span("sample", Some(3), 70, 80),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 20, 20, 10]);
        let totals = layer_totals(&spans);
        assert_eq!(totals[4], (1, 30)); // lower
        assert_eq!(totals[7], (1, 20)); // density
        assert_eq!(totals[0], (0, 0)); // parse: never called
                                       // Layer spans cover 10..50 and 60..90 of a 100 ns wall.
        assert!((coverage(&spans, 100) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny\tz\r"), "x\\ny\\tz\\r");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("µs"), "µs");
    }
}

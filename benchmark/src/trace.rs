//! In-memory span recorder for the `--trace 1` run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer; the server is not instrumented. They stay in memory
//! until the run ends and are then written as one JSON array. With
//! tracing off `push` does nothing, which is what makes the traced and
//! untraced runs comparable (`driver.trace_overhead_pct`).

use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// `(client, frame_idx)` is the identifier the spans of one frame share.
    pub client: Option<u16>,
    pub frame_idx: Option<usize>,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created: the one clock every
    /// timestamp in the benchmark is read from.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index for children to name.
    pub fn push(&mut self, span: Span) -> Option<u32> {
        if !self.on {
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() as u32 - 1)
    }

    /// Durations, ms, of the spans called `name` that start at or after
    /// `from_ns`.
    pub fn durations_ms(&self, name: &str, from_ns: u64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.start_ns >= from_ns)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"client\":{},\"frame_idx\":{}}}{sep}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(u64::from)),
                opt(s.client.map(u64::from)),
                opt(s.frame_idx.map(|v| v as u64)),
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

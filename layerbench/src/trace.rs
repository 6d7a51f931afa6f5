//! Spans around the benchmark's calls into each layer, and the per-layer
//! table built from them.
//!
//! Spans are recorded only in a traced run, kept in memory and written out
//! when the run ends. Durations are measured in every run: the untraced
//! runs' latencies come from the same clock reads.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// An open span: its start time and, in a traced run, its slot.
pub struct Open {
    started: Instant,
    slot: Option<usize>,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_recording(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span named after the called function, for op `op`.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        let started = Instant::now();
        let slot = self.on.then(|| {
            self.spans.push(Span {
                name,
                start_ns: (started - self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
                op,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { started, slot }
    }

    /// Closes a span and returns its duration.
    pub fn exit(&mut self, open: Open) -> Duration {
        let ended = Instant::now();
        if let Some(slot) = open.slot {
            self.spans[slot].end_ns = (ended - self.origin).as_nanos() as u64;
            self.open.retain(|&s| s != slot);
        }
        ended - open.started
    }

    /// Times `f` inside a span.
    pub fn call<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.enter(name, op);
        let value = f();
        (value, self.exit(open))
    }

    /// Summed duration of every recorded span named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op
            )?;
        }
        out.flush()
    }
}

/// Rows of the per-layer table of one timed phase: each row is time spent
/// in one layer; estimated rows are marked.
pub struct LayerTable {
    pub wall_ms: f64,
    rows: Vec<(String, f64, bool)>,
}

impl LayerTable {
    pub fn new(wall_ms: f64) -> Self {
        LayerTable {
            wall_ms,
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, layer: &str, ms: f64) {
        self.rows.push((layer.to_string(), ms, false));
    }

    pub fn estimate(&mut self, layer: &str, ms: f64) {
        self.rows.push((layer.to_string(), ms, true));
    }

    /// Wall time no row accounts for.
    pub fn unattributed_ms(&self) -> f64 {
        self.wall_ms - self.rows.iter().map(|r| r.1).sum::<f64>()
    }

    pub fn print(&self) {
        println!("layer table (timed phase, traced run):");
        for (layer, ms, estimated) in &self.rows {
            println!(
                "  {layer:<38} {ms:>12.3} ms {:>6.2}%{}",
                100.0 * ms / self.wall_ms,
                if *estimated { "  (estimate)" } else { "" }
            );
        }
        let rest = self.unattributed_ms();
        println!(
            "  {:<38} {rest:>12.3} ms {:>6.2}%",
            "unattributed",
            100.0 * rest / self.wall_ms
        );
        println!("  {:<38} {:>12.3} ms", "timed phase wall", self.wall_ms);
    }
}

//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, parent and the id of the round or
//! request it belongs to. Spans stay in memory and are written at exit
//! as a Chrome trace (`{"traceEvents": [...]}`, the shape the
//! simulator's exporter writes). A layer's self time is its span's
//! duration minus the time its child spans cover; over a window, the
//! self times of all spans plus the time no root span covers add up to
//! the window's wall time exactly (integer nanoseconds).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

use gnnone_sim::jsonio::Json;

/// Handle of an open or closed span; inert when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `backend.spmm.call`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Round or request id the span belongs to.
    pub op: u64,
    /// True for a span whose length the program reported (an engine's
    /// own compute time) rather than one timed by the benchmark; it is
    /// placed at the end of its parent.
    pub reported: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. A disabled tracer records nothing and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Self time of one layer over a window.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Layer (span) name.
    pub name: String,
    /// Spans of this name in the window.
    pub count: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Per-layer self times over a window plus the time no span covers.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTable {
    /// One row per layer name, sorted by name.
    pub rows: Vec<LayerRow>,
    /// Window wall time, ns.
    pub wall_ns: u64,
    /// Window time covered by no root span, ns.
    pub unattributed_ns: u64,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
            reported: false,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Adds a child of the closed span `parent` lasting `dur` and ending
    /// where `parent` ends — the program's own report of time spent
    /// inside the call (clamped to the parent's length).
    pub fn reported_child(&mut self, parent: SpanId, name: &'static str, dur: Duration) {
        if !self.on {
            return;
        }
        let p = &self.spans[parent.0];
        let dur = (dur.as_nanos() as u64).min(p.dur_ns());
        let span = Span {
            name,
            start_ns: p.end_ns - dur,
            end_ns: p.end_ns,
            parent: Some(parent.0),
            op: p.op,
            reported: true,
        };
        self.spans.push(span);
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time per layer over the spans that start in
    /// `[from_ns, to_ns)`, and the window time no root span covers.
    pub fn layer_table(&self, from_ns: u64, to_ns: u64) -> LayerTable {
        let inside = |s: &Span| s.start_ns >= from_ns && s.start_ns < to_ns;
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in self.spans.iter().filter(|s| inside(s)) {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut rows: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let mut roots_ns = 0u64;
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| inside(s)) {
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.dur_ns() - child_ns[i];
            if s.parent.is_none() {
                roots_ns += s.dur_ns();
            }
        }
        let wall_ns = to_ns - from_ns;
        LayerTable {
            rows: rows
                .into_iter()
                .map(|(name, (count, self_ns))| LayerRow {
                    name: name.to_string(),
                    count,
                    self_ns,
                })
                .collect(),
            wall_ns,
            unattributed_ns: wall_ns.saturating_sub(roots_ns),
        }
    }

    /// Writes the spans as a Chrome trace document, streaming one event
    /// at a time. At most `per_layer` spans of each layer are written, so
    /// that a serving run's hundreds of thousands of request spans stay
    /// loadable; the layer table and the metrics use every span.
    pub fn write_chrome_trace(
        &self,
        out: &mut impl Write,
        process: &str,
        per_layer: usize,
    ) -> std::io::Result<()> {
        let meta = Json::obj(vec![
            ("name", Json::Str("process_name".to_string())),
            ("ph", Json::Str("M".to_string())),
            ("pid", Json::U64(0)),
            ("tid", Json::U64(0)),
            (
                "args",
                Json::obj(vec![("name", Json::Str(process.to_string()))]),
            ),
        ]);
        write!(out, "{{\"traceEvents\":[{}", meta.to_string_compact())?;
        let mut written: BTreeMap<&str, usize> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let n = written.entry(s.name).or_default();
            if *n >= per_layer {
                continue;
            }
            *n += 1;
            let mut args = vec![("id", Json::U64(i as u64)), ("op", Json::U64(s.op))];
            if let Some(p) = s.parent {
                args.push(("parent", Json::U64(p as u64)));
            }
            let event = Json::obj(vec![
                ("name", Json::Str(s.name.to_string())),
                (
                    "cat",
                    Json::Str(if s.reported { "reported" } else { "layer" }.to_string()),
                ),
                ("ph", Json::Str("X".to_string())),
                ("pid", Json::U64(0)),
                ("tid", Json::U64(0)),
                ("ts", Json::F64(s.start_ns as f64 / 1e3)),
                ("dur", Json::F64(s.dur_ns() as f64 / 1e3)),
                ("args", Json::obj(args)),
            ]);
            write!(out, ",{}", event.to_string_compact())?;
        }
        let other = Json::obj(vec![
            ("spans_recorded", Json::U64(self.spans.len() as u64)),
            (
                "spans_written",
                Json::U64(written.values().sum::<usize>() as u64),
            ),
            ("per_layer_cap", Json::U64(per_layer as u64)),
        ]);
        write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{}}}",
            other.to_string_compact()
        )
    }
}

impl Tracer {
    /// Checks that the spans starting in `[from_ns, to_ns)` nest, which
    /// is what makes their self times add up to the window's wall time:
    /// every span is closed by `to_ns`, lies within its parent, and its
    /// children's lengths sum to no more than its own; root spans do not
    /// overlap one another.
    pub fn check_nesting(&self, from_ns: u64, to_ns: u64) -> Result<(), String> {
        let inside = |s: &Span| s.start_ns >= from_ns && s.start_ns < to_ns;
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut last_root_end = from_ns;
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| inside(s)) {
            if s.end_ns < s.start_ns || s.end_ns > to_ns {
                return Err(format!("span {i} ({}) is not closed in the window", s.name));
            }
            match s.parent {
                Some(p) => {
                    let ps = &self.spans[p];
                    if s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                        return Err(format!("span {i} ({}) leaves its parent {p}", s.name));
                    }
                    child_ns[p] += s.dur_ns();
                    if child_ns[p] > ps.dur_ns() {
                        return Err(format!("the children of span {p} ({}) outlast it", ps.name));
                    }
                }
                None => {
                    if s.start_ns < last_root_end {
                        return Err(format!(
                            "root span {i} ({}) overlaps the one before",
                            s.name
                        ));
                    }
                    last_root_end = s.end_ns;
                }
            }
        }
        Ok(())
    }
}

impl LayerTable {
    /// Summed self time of all layers, ns.
    pub fn attributed_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.self_ns).sum()
    }

    /// Share of the window's wall time that root spans cover.
    pub fn coverage(&self) -> f64 {
        1.0 - self.unattributed_ns as f64 / self.wall_ns as f64
    }
}

impl Tracer {
    /// Renames span `id` — for a call whose layer is known only after it
    /// returns (a poll that did or did not launch a batch).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if self.on {
            self.spans[id.0].name = name;
        }
    }
}

//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer's public functions: name, start, end, parent span and
//! request id. They stay in memory until [`write_spans`] dumps them when
//! the run ends. With tracing off, [`span`] is a plain call.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
    request: u32,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread (spans already recorded stay).
pub fn enable() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.is_none() {
            *t = Some(Tracer {
                origin: Instant::now(),
                spans: Vec::new(),
                stack: Vec::new(),
                request: 0,
            });
        }
    });
}

fn now(t: &Tracer) -> u64 {
    t.origin.elapsed().as_nanos() as u64
}

/// Runs `f` inside a span named `name`. Spans are recorded only inside a
/// [`request`]; elsewhere, and with tracing off, this is a plain call.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    open_span(name, false, f)
}

fn open_span<R>(name: &'static str, root: bool, f: impl FnOnce() -> R) -> R {
    let opened = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut()?;
        if t.stack.is_empty() && !root {
            return None;
        }
        if root {
            t.request += 1;
        }
        let id = t.spans.len() as u32 + 1;
        let parent = t.stack.last().copied().unwrap_or(0);
        let start = now(t);
        t.spans.push(Span {
            id,
            parent,
            request: t.request,
            name,
            start,
            end: start,
        });
        t.stack.push(id);
        Some(id)
    });
    let r = f();
    if let Some(id) = opened {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let t = t.as_mut().expect("tracer outlives its open spans");
            let end = now(t);
            t.spans[id as usize - 1].end = end;
            t.stack.pop();
        });
    }
    r
}

/// Runs `f` as a new request: a root span named `name` with a fresh
/// request id that every span opened inside it carries.
pub fn request<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    open_span(name, true, f)
}

/// Every span recorded so far (empty with tracing off).
pub fn spans() -> Vec<Span> {
    since(0)
}

/// A position in the recording: spans recorded after it are
/// [`since`]`(mark)`.
pub fn mark() -> usize {
    TRACER.with(|t| t.borrow().as_ref().map_or(0, |t| t.spans.len()))
}

/// The spans recorded after `mark`.
pub fn since(mark: usize) -> Vec<Span> {
    TRACER.with(|t| {
        t.borrow()
            .as_ref()
            .map_or_else(Vec::new, |t| t.spans[mark.min(t.spans.len())..].to_vec())
    })
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub count: u64,
    pub nanos: u64,
    /// Duration minus the part covered by direct children.
    pub self_nanos: u64,
}

impl Totals {
    pub fn mean_us(&self) -> f64 {
        self.nanos as f64 / self.count.max(1) as f64 / 1e3
    }

    pub fn self_mean_us(&self) -> f64 {
        self.self_nanos as f64 / self.count.max(1) as f64 / 1e3
    }
}

/// Count, total and self time per span name. Children of one span run
/// one after another, so their durations add without overlap.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_nanos: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_nanos.entry(s.parent).or_default() += s.nanos();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.nanos += s.nanos();
        e.self_nanos += s
            .nanos()
            .saturating_sub(child_nanos.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Writes every span as one tab-separated line:
/// `id parent request name start_ns end_ns`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.request, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

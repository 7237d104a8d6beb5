//! Host spans recorded by the benchmark around each public call it makes
//! into the program: name, start, end, parent span and job id.
//!
//! Spans are kept in memory on the thread that opened them and written out
//! when the run ends. Recording is off unless [`enable`] was called, and a
//! disabled [`span`] costs one relaxed atomic load.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// One finished span. Times are nanoseconds since the trace epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// 1-based span id, unique within the run.
    pub id: u32,
    /// The enclosing span's id, 0 for a root span.
    pub parent: u32,
    /// The public call the span covers.
    pub name: &'static str,
    /// The job (arrival, call or round trip index) the span serves.
    pub job: u64,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    next_id: u32,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        next_id: 1,
    });
}

/// Turn span recording on or off for every thread.
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Run `f` inside a span named `name` for `job`.
pub fn span<T>(name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let (id, parent, start_ns) = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let id = t.next_id;
        t.next_id += 1;
        let parent = t.open.last().copied().unwrap_or(0);
        t.open.push(id);
        (id, parent, t.epoch.elapsed().as_nanos() as u64)
    });
    let out = f();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let end_ns = t.epoch.elapsed().as_nanos() as u64;
        t.open.pop();
        t.spans.push(Span {
            id,
            parent,
            name,
            job,
            start_ns,
            end_ns,
        });
    });
    out
}

/// Take every span this thread finished since the last call.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Write `spans` as a Chrome-trace (Perfetto) JSON document.
pub fn write_chrome_trace(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{},\"parent\":{},\"job\":{}}}}}{sep}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.job,
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

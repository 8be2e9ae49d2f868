//! Spans recorded around the benchmark's calls into the layers.
//!
//! Each client thread owns a [`Recorder`] in a thread-local. A span is
//! opened by [`span`] and closed when its guard drops. Spans nest
//! strictly (an op span holds allocator and pool spans, an allocator span
//! holds pool spans), so the part of a span's interval its children cover
//! is the sum of their durations, and self time is the duration minus
//! that sum. Totals are aggregated as spans close; the spans of the first
//! ops are also kept in memory and written out when the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use libpax::{MemSpace, PmAllocator};
use pax_pm::LINE_SIZE;

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One structure op (the root of its spans).
    Op,
    /// `PmAllocator::alloc`.
    BallocAlloc,
    /// `PmAllocator::free`.
    BallocFree,
    /// `MemSpace::read_bytes` on the pool's vPM.
    PoolRead,
    /// `MemSpace::write_bytes` on the pool's vPM.
    PoolWrite,
    /// `PaxTenant::persist`.
    Persist,
    /// Crash, reopen, re-attach and verify.
    Recovery,
}

const LAYERS: [Layer; 7] = [
    Layer::Op,
    Layer::BallocAlloc,
    Layer::BallocFree,
    Layer::PoolRead,
    Layer::PoolWrite,
    Layer::Persist,
    Layer::Recovery,
];

impl Layer {
    /// The span name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::BallocAlloc => "balloc.alloc",
            Layer::BallocFree => "balloc.free",
            Layer::PoolRead => "pool.read",
            Layer::PoolWrite => "pool.write",
            Layer::Persist => "persist",
            Layer::Recovery => "recovery",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Totals of one layer's spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    /// Spans closed.
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus the time their children cover.
    pub self_ns: u64,
    /// Cache lines touched (pool spans only).
    pub lines: u64,
    /// Spans whose parent is an op span.
    pub under_op: u64,
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Client thread that recorded it.
    pub thread: usize,
    /// Identifier shared by an op span and all its descendants.
    pub id: u64,
    /// Where the span was recorded.
    pub layer: Layer,
    /// The enclosing span's layer, if any.
    pub parent: Option<Layer>,
    /// Start, in ns since the recorder's origin.
    pub start_ns: u64,
    /// End, in ns since the recorder's origin.
    pub end_ns: u64,
}

struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

/// A thread's span state (see module docs).
pub struct Recorder {
    origin: Instant,
    thread: usize,
    stack: Vec<Frame>,
    agg: [Agg; LAYERS.len()],
    spans: Vec<Span>,
    keep_roots: u64,
    roots: u64,
    root_id: u64,
}

impl Recorder {
    /// Aggregate of one layer.
    pub fn agg(&self, layer: Layer) -> Agg {
        self.agg[layer.index()]
    }

    /// Adds another thread's totals into this one.
    pub fn absorb(&mut self, other: &Recorder) {
        for (a, b) in self.agg.iter_mut().zip(other.agg.iter()) {
            a.calls += b.calls;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
            a.lines += b.lines;
            a.under_op += b.under_op;
        }
        self.spans.extend_from_slice(&other.spans);
    }

    /// The kept spans as JSON lines.
    pub fn spans_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"thread\":{},\"id\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.thread,
                s.id,
                s.layer.name(),
                s.parent.map_or("null".to_string(), |p| format!("\"{}\"", p.name())),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }

    fn enter(&mut self, layer: Layer, lines: u64) {
        if self.stack.is_empty() {
            self.roots += 1;
            self.root_id = self.roots;
        }
        self.agg[layer.index()].lines += lines;
        self.stack.push(Frame { layer, start: Instant::now(), child_ns: 0 });
    }

    fn exit(&mut self) {
        let end = Instant::now();
        let f = self.stack.pop().expect("span guard without an open span");
        let dur = end.duration_since(f.start).as_nanos() as u64;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.layer
        });
        let a = &mut self.agg[f.layer.index()];
        a.calls += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(f.child_ns);
        if parent == Some(Layer::Op) {
            a.under_op += 1;
        }
        // Roots are always kept; descendants up to a budget per kept
        // root, so a root with a huge subtree (a recovery's verify scan)
        // cannot flood the span file.
        let room = self.spans.len() < (self.keep_roots * SPANS_PER_ROOT) as usize;
        if self.root_id <= self.keep_roots && (parent.is_none() || room) {
            self.spans.push(Span {
                thread: self.thread,
                id: self.root_id,
                layer: f.layer,
                parent,
                start_ns: f.start.duration_since(self.origin).as_nanos() as u64,
                end_ns: end.duration_since(self.origin).as_nanos() as u64,
            });
        }
    }
}

/// Kept descendant spans per kept root, on average.
const SPANS_PER_ROOT: u64 = 64;

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, keeping the spans of the first
/// `keep_roots` root spans.
pub fn install(thread: usize, origin: Instant, keep_roots: u64) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin,
            thread,
            stack: Vec::new(),
            agg: [Agg::default(); LAYERS.len()],
            spans: Vec::new(),
            keep_roots,
            roots: 0,
            root_id: 0,
        })
    });
}

/// Stops recording on this thread and returns what was recorded.
pub fn take() -> Option<Recorder> {
    RECORDER.with(|r| r.borrow_mut().take())
}

/// Closes its span when dropped.
pub struct Guard(());

impl Drop for Guard {
    fn drop(&mut self) {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.exit();
            }
        });
    }
}

/// Opens a span at `layer` (a no-op when this thread is not recording).
pub fn span(layer: Layer) -> Guard {
    span_lines(layer, 0)
}

fn span_lines(layer: Layer, lines: u64) -> Guard {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.enter(layer, lines);
        }
    });
    Guard(())
}

fn lines_touched(addr: u64, len: usize) -> u64 {
    if len == 0 {
        return 0;
    }
    let line = LINE_SIZE as u64;
    (addr + len as u64 - 1) / line - addr / line + 1
}

/// A [`MemSpace`] that records a `pool.read`/`pool.write` span around
/// every access to the space it wraps.
#[derive(Debug, Clone)]
pub struct TracedSpace<S>(pub S);

impl<S: MemSpace> MemSpace for TracedSpace<S> {
    fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> libpax::Result<()> {
        let _g = span_lines(Layer::PoolRead, lines_touched(addr, buf.len()));
        self.0.read_bytes(addr, buf)
    }

    fn write_bytes(&self, addr: u64, data: &[u8]) -> libpax::Result<()> {
        let _g = span_lines(Layer::PoolWrite, lines_touched(addr, data.len()));
        self.0.write_bytes(addr, data)
    }

    fn capacity_bytes(&self) -> u64 {
        self.0.capacity_bytes()
    }
}

/// A [`PmAllocator`] that records a `balloc.alloc`/`balloc.free` span
/// around every call to the allocator it wraps.
#[derive(Debug, Clone)]
pub struct TracedAlloc<A>(pub A);

impl<S: MemSpace, A: PmAllocator<S>> PmAllocator<S> for TracedAlloc<A> {
    fn space(&self) -> &S {
        self.0.space()
    }

    fn alloc(&self, len: u64) -> libpax::Result<u64> {
        let _g = span(Layer::BallocAlloc);
        self.0.alloc(len)
    }

    fn free(&self, addr: u64, len: u64) -> libpax::Result<()> {
        let _g = span(Layer::BallocFree);
        self.0.free(addr, len)
    }

    fn root(&self) -> libpax::Result<u64> {
        self.0.root()
    }

    fn set_root(&self, addr: u64) -> libpax::Result<()> {
        self.0.set_root(addr)
    }

    fn live_allocations(&self) -> libpax::Result<u64> {
        self.0.live_allocations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        install(0, Instant::now(), 1);
        {
            let _op = span(Layer::Op);
            {
                let _a = span(Layer::BallocAlloc);
                let _r = span_lines(Layer::PoolRead, 2);
            }
            let _w = span_lines(Layer::PoolWrite, 1);
        }
        let rec = take().expect("recorder installed");
        let op = rec.agg(Layer::Op);
        let self_sum: u64 = LAYERS.iter().map(|&l| rec.agg(l).self_ns).sum();
        assert_eq!(self_sum, op.total_ns);
        assert_eq!(rec.agg(Layer::PoolRead).lines, 2);
        assert_eq!(rec.agg(Layer::PoolRead).under_op, 0);
        assert_eq!(rec.agg(Layer::PoolWrite).under_op, 1);
        assert_eq!(rec.spans.len(), 4);
        assert!(rec.spans.iter().all(|s| s.id == 1 && s.start_ns <= s.end_ns));
    }

    #[test]
    fn lines_touched_counts_straddles() {
        assert_eq!(lines_touched(0, 8), 1);
        assert_eq!(lines_touched(60, 8), 2);
        assert_eq!(lines_touched(61, 150), 4);
        assert_eq!(lines_touched(64, 0), 0);
    }
}

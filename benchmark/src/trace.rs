//! In-memory span recorder for the traced pass.
//!
//! The benchmark records spans from its own files, around the calls into
//! each layer (spans inside the crates are a later change). A span is
//! `{id, parent, name, workload, op, start_ns, end_ns}`; a layer's *self*
//! time is its duration minus what its child spans cover. Everything runs on
//! one thread, so the recorder is a thread-local and stage closures (which
//! must be `Send + 'static`) reach it without capturing anything.
//!
//! Span names are the per-layer metric names of `catalog.rs`, so spans that
//! later move inside the crates can keep them unchanged.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Spans kept verbatim between drains (the rest only feed the aggregates):
/// bounds the trace file and the recorder's memory on the fleet workloads,
/// which close four spans every ~3 µs.
const MAX_STORED_SPANS: usize = 10_000;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Nanoseconds since the process-wide epoch (first call).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Whether spans are being recorded. One relaxed load: the untraced pass
/// pays a predicted branch per wrapped call and nothing else.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn span recording on or off (segments of the traced pass alternate).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// `0` for a root span.
    pub parent: u32,
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name aggregate over every closed span (stored or not).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

struct Frame {
    id: u32,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

#[derive(Default)]
struct Recorder {
    stack: Vec<Frame>,
    spans: Vec<Span>,
    totals: Vec<(&'static str, SpanTotals)>,
    next_id: u32,
    op: u64,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Set the op index stamped on spans opened from now on.
pub fn set_op(op: u64) {
    REC.with(|r| r.borrow_mut().op = op);
}

fn enter(name: &'static str) {
    let start_ns = now_ns();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.next_id += 1;
        let id = r.next_id;
        r.stack.push(Frame {
            id,
            name,
            start_ns,
            child_ns: 0,
        });
    });
}

fn exit(calls: u64) {
    let end_ns = now_ns();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let frame = r.stack.pop().expect("span exit without enter");
        let dur = end_ns.saturating_sub(frame.start_ns);
        let parent = match r.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let slot = match r.totals.iter().position(|(n, _)| *n == frame.name) {
            Some(i) => i,
            None => {
                r.totals.push((frame.name, SpanTotals::default()));
                r.totals.len() - 1
            }
        };
        let t = &mut r.totals[slot].1;
        t.calls += calls;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(frame.child_ns);
        if r.spans.len() < MAX_STORED_SPANS {
            let op = r.op;
            r.spans.push(Span {
                id: frame.id,
                parent,
                name: frame.name,
                op,
                start_ns: frame.start_ns,
                end_ns,
            });
        }
    });
}

/// Run `f` inside a span named `name` when tracing is on; call it bare
/// otherwise.
#[inline]
pub fn scope<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    scope_calls(name, 1, f)
}

/// Like [`scope`] for a span that covers `calls` back-to-back calls of the
/// layer (one span around a send loop perturbs sub-microsecond calls far
/// less than a span each).
#[inline]
pub fn scope_calls<R>(name: &'static str, calls: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    enter(name);
    let out = f();
    exit(calls);
    out
}

/// Everything recorded since the last drain.
#[derive(Default)]
pub struct Drained {
    pub spans: Vec<Span>,
    pub totals: Vec<(&'static str, SpanTotals)>,
}

impl Drained {
    /// Fold `other`'s aggregates into this one and append its spans.
    pub fn merge(&mut self, other: Drained) {
        for (name, t) in other.totals {
            match self.totals.iter_mut().find(|(n, _)| *n == name) {
                Some((_, mine)) => {
                    mine.calls += t.calls;
                    mine.total_ns += t.total_ns;
                    mine.self_ns += t.self_ns;
                }
                None => self.totals.push((name, t)),
            }
        }
        self.spans.extend(other.spans);
    }

    pub fn totals_of(&self, name: &str) -> SpanTotals {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }
}

/// Take the recorded spans and aggregates, leaving the recorder empty.
pub fn drain() -> Drained {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.stack.is_empty(), "drain with an open span");
        Drained {
            spans: std::mem::take(&mut r.spans),
            totals: std::mem::take(&mut r.totals),
        }
    })
}

/// Append `spans` to `out` as JSONL, one span per line.
pub fn write_jsonl(out: &mut String, workload: &str, spans: &[Span]) {
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"workload\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, workload, s.op, s.start_ns, s.end_ns
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        set_enabled(true);
        set_op(7);
        scope("parent", || {
            scope_calls("child", 3, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        set_enabled(false);
        scope("ignored", || ());
        let d = drain();
        let (parent, child) = (d.totals_of("parent"), d.totals_of("child"));
        assert_eq!((parent.calls, child.calls), (1, 3));
        assert_eq!(parent.self_ns, parent.total_ns - child.total_ns);
        assert!(child.self_ns == child.total_ns && child.total_ns >= 2_000_000);
        assert_eq!(d.totals_of("ignored").calls, 0);
        // Children close first; the child's parent id is the parent's id.
        assert_eq!(d.spans.len(), 2);
        assert_eq!(d.spans[0].parent, d.spans[1].id);
        assert_eq!((d.spans[1].parent, d.spans[1].op), (0, 7));
        let mut out = String::new();
        write_jsonl(&mut out, "w", &d.spans);
        assert_eq!(out.lines().count(), 2);
        assert!(out.contains("\"name\":\"child\",\"workload\":\"w\",\"op\":7"));
    }
}

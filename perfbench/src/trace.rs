//! In-memory span recording for the traced run, and the arithmetic that
//! turns spans into per-layer times.
//!
//! Spans are recorded only by the benchmark's own code, around the
//! public calls it makes into each layer; nothing inside the program is
//! instrumented. A span has a name, a start and an end (nanoseconds
//! since the tracer was created), an optional parent and the id of the
//! session it belongs to.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the tracer.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Session the span belongs to.
    pub session: u64,
    /// Layer boundary, e.g. `"handshake"` or `"exchange.p2"`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An open span: closed by [`Tracer::close`].
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    session: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// The id children should name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Thread-safe span store.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span now.
    pub fn open(&self, name: &'static str, session: u64, parent: Option<u64>) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            session,
            name,
            start: Instant::now(),
        }
    }

    /// Closes `open` now and returns its id.
    pub fn close(&self, open: Open) -> u64 {
        let end = Instant::now();
        self.push(
            open.id,
            open.parent,
            open.session,
            open.name,
            open.start,
            end,
        );
        open.id
    }

    fn push(
        &self,
        id: u64,
        parent: Option<u64>,
        session: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            session,
            name,
            start: ns(start),
            end: ns(end),
        };
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .push(span);
    }

    /// Every closed span, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .clone();
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }
}

/// Runs `f` inside a span when tracing, plainly otherwise.
pub fn within<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    session: u64,
    parent: Option<u64>,
    f: impl FnOnce(Option<u64>) -> T,
) -> T {
    match tracer {
        Some(t) => {
            let open = t.open(name, session, parent);
            let id = open.id();
            let out = f(Some(id));
            t.close(open);
            out
        }
        None => f(None),
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
pub fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of `span`: its duration minus the part of it that its
/// children cover (overlapping children count once).
pub fn self_time(span: &Span, children: &[&Span]) -> u64 {
    let iv: Vec<(u64, u64)> = children.iter().map(|c| (c.start, c.end)).collect();
    span.ns() - covered(&iv, span.start, span.end)
}

/// Protocol phase (1–3) of a broadcast round label: Phase II and III
/// have one label each; every other label is a Phase-I key-agreement
/// round.
pub fn phase_of(round: &str) -> usize {
    if round.starts_with("phase2") {
        2
    } else if round.starts_with("phase3") {
        3
    } else {
        1
    }
}

/// Splits the self time of a handshake run `[start, end)` across the
/// three phases, given its exchanges as `(start, end, phase)`. Compute
/// before an exchange belongs to that exchange's phase (it builds the
/// round's payloads); compute after the last exchange (Phase-III
/// verification and outcome resolution) belongs to the last phase. So
/// finishing the Phase-I key agreement, which no exchange separates
/// from Phase II, counts as Phase II.
pub fn phase_split(start: u64, end: u64, exchanges: &[(u64, u64, usize)]) -> [u64; 3] {
    let mut ex = exchanges.to_vec();
    ex.sort_unstable();
    let mut out = [0u64; 3];
    let mut cursor = start;
    let mut phase = 1;
    for &(s, e, p) in &ex {
        phase = p.clamp(1, 3);
        out[phase - 1] += s.saturating_sub(cursor);
        cursor = cursor.max(e);
    }
    out[phase - 1] += end.saturating_sub(cursor);
    out
}

/// Renders spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut s = String::new();
    for sp in spans {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        s.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"session\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            sp.id, parent, sp.session, sp.name, sp.start, sp.end
        ));
    }
    s
}

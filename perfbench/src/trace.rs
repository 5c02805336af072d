//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (ns since the tracer's epoch), the
//! span that caused it, and the operation it belongs to. Spans stay in
//! memory until the run ends and are then written out in one file.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u32,
    /// Id of the causing span; 0 for an operation's root span.
    pub parent: u32,
    /// Operation this span belongs to.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// Where a new span hangs: its parent's id and its operation's id.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    parent: u32,
    op: u32,
}

impl Ctx {
    /// The root of operation `op`.
    pub fn op(op: u32) -> Self {
        Self { parent: 0, op }
    }
}

/// An open span; recorded when dropped.
pub struct Span<'t> {
    tracer: &'t Tracer,
    id: u32,
    ctx: Ctx,
    name: &'static str,
    start: Instant,
}

impl Span<'_> {
    /// Context for spans this one causes.
    pub fn ctx(&self) -> Ctx {
        Ctx {
            parent: self.id,
            op: self.ctx.op,
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        let rec = SpanRec {
            id: self.id,
            parent: self.ctx.parent,
            op: self.ctx.op,
            name: self.name,
            start_ns: ns_between(self.tracer.epoch, self.start),
            end_ns: ns_between(self.tracer.epoch, end),
        };
        // A poisoned lock means a traced worker panicked; the span is
        // dropped rather than panicking again inside Drop.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(rec);
        }
    }
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    pub fn span(&self, name: &'static str, ctx: Ctx) -> Span<'_> {
        Span {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed), // ordering: unique id only
            ctx,
            name,
            start: Instant::now(),
        }
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<SpanRec> {
        let mut v = self.spans.lock().expect("span store poisoned").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Per-name totals over `spans`: (count, total ns, total self ns). A span's
/// self time is its duration minus the part of its interval that the union
/// of its children covers (children on worker threads may overlap).
pub fn summarize(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0, |c| union_within(c, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns() - covered;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.clamp(lo, hi), b.clamp(lo, hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            rec(1, 0, "op", 0, 100),
            rec(2, 1, "tile", 10, 50),
            rec(3, 1, "tile", 30, 70),  // overlaps the first tile
            rec(4, 1, "tile", 90, 120), // runs past its parent's end
        ];
        let s = summarize(&spans);
        assert_eq!(s["op"], (1, 100, 100 - 60 - 10));
        assert_eq!(s["tile"], (3, 40 + 40 + 30, 110));
    }

    #[test]
    fn spans_nest_and_record_on_drop() {
        let t = Tracer::default();
        {
            let op = t.span("op", Ctx::op(7));
            let _child = t.span("child", op.ctx());
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].op), ("op", 0, 7));
        assert_eq!((spans[1].name, spans[1].parent), ("child", spans[0].id));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}

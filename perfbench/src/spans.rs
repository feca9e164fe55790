//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: name, start, end, parent span and
//! the id of the operation (publication, gossip round, churn epoch) it
//! belongs to. Spans are kept in memory and written out when the run ends;
//! per-layer metrics are computed from them afterwards. With tracing off
//! the recorder is disabled and every call is a branch on one bool.

use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (its index), returned by [`Tracer::enter`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

/// Span recorder with an implicit parent stack.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off between operations (no span open).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.on = on;
    }

    /// Opens span `name` for operation `op`, child of the innermost open
    /// span.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open` (which must be the innermost open span) and returns
    /// its duration in nanoseconds (0 when tracing is off).
    pub fn exit(&mut self, open: Open) -> u64 {
        let Some(idx) = open.0 else {
            return 0;
        };
        let end = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.dur_ns()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// All recorded spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines, self time included.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once, and a
/// child reaching outside its parent counts only inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) with children [10,30) and [50,60); the first child
        // has a grandchild [12,20) that must not be subtracted from root.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(1), 12, 20),
            span(Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 8, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(None, 100, 200),
            span(Some(0), 90, 120),  // overhangs the start: 20 inside
            span(Some(0), 110, 150), // overlaps the first: adds 30
            span(Some(0), 190, 250), // overhangs the end: 10 inside
        ];
        assert_eq!(self_times(&spans)[0], 100 - 20 - 30 - 10);
    }

    #[test]
    fn recorder_nests_spans_and_is_inert_when_off() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 7);
        let inner = t.enter("inner", 7);
        t.exit(inner);
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let selfs = self_times(s);
        assert_eq!(selfs[0], s[0].dur_ns() - s[1].dur_ns());

        let mut off = Tracer::new(false);
        let o = off.enter("x", 1);
        assert_eq!(off.exit(o), 0);
        assert!(off.spans().is_empty());
    }
}

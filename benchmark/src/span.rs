//! In-memory span recorder for the traced run. Spans are taken from the
//! benchmark's side of each public call (spans *inside* the library are
//! ROADMAP item 2, a later change), kept in memory, and written once at
//! exit. A layer's self time is its span minus the part of that interval
//! its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = u32;

const NO_PARENT: SpanId = SpanId::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Interned name (see [`Recorder::name`]).
    pub name: u16,
    /// The span that caused this one, or none for a root.
    parent: SpanId,
    /// Operation id shared by every span of one op.
    pub op: u32,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a recorder's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Single-threaded span store with an explicit parent stack.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

impl Recorder {
    /// An empty recorder with room for `spans` spans (so the traced
    /// pass does not pay for reallocation); time zero is now.
    pub fn with_capacity(spans: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::with_capacity(spans),
            stack: Vec::new(),
        }
    }

    /// Intern a span name so the hot path carries a `u16`.
    pub fn name(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under whichever span is currently open.
    pub fn enter(&mut self, name: u16, op: u32) -> SpanId {
        let id = self.spans.len() as SpanId;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    /// Close the most recently opened span (which must be `id`).
    pub fn exit(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Record a child that was measured by *replaying* the parent's inner
    /// call afterwards (e.g. `core.estimate` under `session.estimate`):
    /// it is placed at the parent's start with the replayed duration. At
    /// most one replayed child per parent, so children never overlap.
    pub fn attach(&mut self, parent: SpanId, name: u16, duration_ns: u64) -> SpanId {
        let p = self.spans[parent as usize];
        self.spans.push(Span {
            name,
            parent,
            op: p.op,
            start_ns: p.start_ns,
            end_ns: p.start_ns + duration_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// All spans, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: duration minus the part of the interval its
    /// children cover (a replayed child longer than its parent clips to
    /// the parent, so self time never goes negative).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for child in &self.spans {
            if child.parent == NO_PARENT {
                continue;
            }
            let parent = &self.spans[child.parent as usize];
            let lo = child.start_ns.max(parent.start_ns);
            let hi = child.end_ns.min(parent.end_ns);
            covered[child.parent as usize] += hi.saturating_sub(lo);
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(self.names[span.name as usize]).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Durations of every span called `name`, in creation order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| self.names[s.name as usize] == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// `{"names": [...], "spans": [[name, start_ns, end_ns, parent, op], ...]}`
    /// with `parent == -1` for roots — compact, because a traced pass
    /// holds a few hundred thousand spans.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"names\":[");
        for (i, name) in self.names.iter().enumerate() {
            let _ = write!(out, "{}\"{name}\"", if i > 0 { "," } else { "" });
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "{}[{},{},{},{},{}]",
                if i > 0 { "," } else { "" },
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.op
            );
        }
        out.push_str("]}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a recorder with hand-set times (the clock is irrelevant to
    /// the arithmetic under test).
    fn recorder(spans: &[(&'static str, i64, u64, u64)]) -> Recorder {
        let mut r = Recorder::with_capacity(0);
        for &(name, parent, start_ns, end_ns) in spans {
            let name = r.name(name);
            r.spans.push(Span {
                name,
                parent: if parent < 0 {
                    NO_PARENT
                } else {
                    parent as SpanId
                },
                op: 0,
                start_ns,
                end_ns,
            });
        }
        r
    }

    #[test]
    fn self_time_subtracts_children_only_once_per_level() {
        // refresh [0,1000] ⊃ submit [0,100], submit [100,250], wait [300,900]
        // and wait ⊃ nothing; grandchildren do not count against refresh.
        let r = recorder(&[
            ("refresh", -1, 0, 1000),
            ("submit", 0, 0, 100),
            ("submit", 0, 100, 250),
            ("wait", 0, 300, 900),
            ("inner", 3, 350, 400),
        ]);
        assert_eq!(r.self_ns(), vec![150, 100, 150, 550, 50]);
        let totals = r.totals();
        assert_eq!(
            totals["submit"],
            LayerTotals {
                count: 2,
                total_ns: 250,
                self_ns: 250
            }
        );
        assert_eq!(totals["refresh"].self_ns, 150);
        assert_eq!(totals["wait"].self_ns, 550);
    }

    #[test]
    fn replayed_child_longer_than_parent_clips_to_zero_self_time() {
        let mut r = recorder(&[("session.estimate", -1, 100, 180)]);
        let core = r.name("core.estimate");
        r.attach(0, core, 95);
        assert_eq!(r.self_ns(), vec![0, 95]);
        let mut r = recorder(&[("session.estimate", -1, 100, 180)]);
        let core = r.name("core.estimate");
        r.attach(0, core, 60);
        assert_eq!(r.self_ns(), vec![20, 60]);
    }

    #[test]
    fn enter_exit_nest_by_the_stack_and_serialize() {
        let mut r = Recorder::with_capacity(0);
        let (a, b) = (r.name("a"), r.name("b"));
        let outer = r.enter(a, 7);
        let inner = r.enter(b, 7);
        r.exit(inner);
        r.exit(outer);
        assert_eq!(r.spans()[1].parent, outer);
        assert_eq!(r.spans()[0].parent, NO_PARENT);
        assert!(r.spans()[0].duration_ns() >= r.spans()[1].duration_ns());
        let mut json = String::new();
        r.write_json(&mut json);
        assert!(json.starts_with("{\"names\":[\"a\",\"b\"],\"spans\":[[0,"));
        assert!(crate::api::Json::parse(&json).is_ok());
    }
}

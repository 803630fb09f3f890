//! Host-clock spans recorded by the benchmark's own decorators around calls
//! into each layer: name, start, end, the span that caused it, and the epoch
//! it belongs to. Kept in memory and written out when the workload ends.

use serde::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Span around one `run_epochs(1)` call (the root of every epoch's tree).
pub const EPOCH: &str = "core_harness.epoch";

/// One closed host-clock span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer and call, e.g. `core_engine.checkpoint`.
    pub name: &'static str,
    /// Start, host ns since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Harness epoch the span belongs to (shared by one epoch's spans).
    pub epoch: u64,
}

impl Span {
    /// Duration in host ns.
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Inner {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    epoch: u64,
}

/// Shared handle to the span buffer (single-threaded, cheap to clone).
#[derive(Clone)]
pub struct Recorder(Rc<RefCell<Inner>>);

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Empty recorder; its clock starts now.
    pub fn new() -> Self {
        Recorder(Rc::new(RefCell::new(Inner {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            epoch: 0,
        })))
    }

    /// Epoch id stamped on spans opened from now on.
    pub fn set_epoch(&self, epoch: u64) {
        self.0.borrow_mut().epoch = epoch;
    }

    /// Run `f` inside a span named `name`, nested under whatever span is
    /// open at the time.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut i = self.0.borrow_mut();
            let id = i.spans.len() as u32;
            let start_ns = i.t0.elapsed().as_nanos() as u64;
            let (parent, epoch) = (i.open.last().copied(), i.epoch);
            i.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                epoch,
            });
            i.open.push(id);
            id
        };
        let out = f();
        let mut i = self.0.borrow_mut();
        let end_ns = i.t0.elapsed().as_nanos() as u64;
        i.spans[id as usize].end_ns = end_ns;
        i.open.pop();
        out
    }

    /// Copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.0.borrow().spans.clone()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.dur();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur().saturating_sub(c))
        .collect()
}

/// Total duration and total self time per span name, over the spans whose
/// epoch satisfies `keep`.
pub fn totals_by_name(
    spans: &[Span],
    keep: impl Fn(u64) -> bool,
) -> BTreeMap<&'static str, (u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        if keep(s.epoch) {
            let e = out.entry(s.name).or_default();
            e.0 += s.dur();
            e.1 += own;
        }
    }
    out
}

/// The spans as a JSON array of `{name, start_ns, end_ns, parent, epoch}`.
pub fn to_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::Int(s.start_ns as i128)),
                    ("end_ns".into(), Value::Int(s.end_ns as i128)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::Int(p as i128)),
                    ),
                    ("epoch".into(), Value::Int(s.epoch as i128)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, epoch: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            epoch,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // epoch [0,100) > engine [10,60) > dump [20,50); epoch > app [60,90).
        let spans = vec![
            span(EPOCH, 0, 100, None, 1),
            span("engine", 10, 60, Some(0), 1),
            span("dump", 20, 50, Some(1), 1),
            span("app", 60, 90, Some(0), 1),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 30, 30]);
        let totals = totals_by_name(&spans, |e| e == 1);
        assert_eq!(totals[EPOCH], (100, 20));
        assert_eq!(totals["engine"], (50, 20));
        assert!(totals_by_name(&spans, |e| e == 2).is_empty());
    }

    #[test]
    fn recorder_nests_and_stamps_epochs() {
        let rec = Recorder::new();
        rec.set_epoch(7);
        let v = rec.time("outer", || {
            rec.time("inner", || 1) + rec.time("inner", || 2)
        });
        assert_eq!(v, 3);
        rec.set_epoch(8);
        rec.time("outer", || ());
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!((spans[0].epoch, spans[3].epoch), (7, 8));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], spans[0].dur() - spans[1].dur() - spans[2].dur());
    }
}

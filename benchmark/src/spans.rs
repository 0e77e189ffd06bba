//! The benchmark's own spans: one per public call it makes into the
//! simulator during the traced rep, kept in memory and written out as
//! a chrome-trace file when the rep ends.
//!
//! Spans are recorded from *outside* the library (in-program spans
//! are ROADMAP 1(b)); a span's parent is whichever span was open when
//! it started. Link stepping fires millions of calls per rep, so those
//! are folded into one span per call kind per slice
//! ([`Recorder::folded`]) — the file stays under ~20k spans.

use crate::json::Json;
use std::time::Instant;

/// One recorded call (or one folded batch of calls).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The public call wrapped, e.g. `LinkSimulation::advance_to`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock. For a folded span `end - start` is the summed
    /// duration of its calls, laid out from the fold window's start.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The rep the span belongs to (every span of one rep shares it).
    pub rep: u32,
    /// Calls folded into this span (1 for a plain span).
    pub calls: u64,
}

/// All spans of one name, summed ([`Recorder::totals`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Total {
    pub name: &'static str,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// In-memory span store with a stack of open spans.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Recorder {
    /// An empty recorder for rep `rep`; its clock starts now.
    pub fn new(rep: u32) -> Recorder {
        Recorder {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep,
        }
    }

    /// A recorder that records nothing: [`Recorder::span`] just runs
    /// the call. Timed reps use this, so tracing off costs one branch
    /// per wrapped call and both passes share one code path.
    pub fn off() -> Recorder {
        Recorder {
            on: false,
            ..Recorder::new(0)
        }
    }

    /// `true` unless built by [`Recorder::off`].
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds on the recorder's clock.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `call` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, call: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return call(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
            calls: 1,
        });
        self.open.push(id);
        let out = call(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records `calls` calls of `name` that together took `busy_ns`,
    /// as one span starting at `start_ns` under the currently open
    /// span.
    pub fn folded(&mut self, name: &'static str, start_ns: u64, busy_ns: u64, calls: u64) {
        if calls == 0 || !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + busy_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
            calls,
        });
    }

    /// Every span recorded so far, in start order per nesting level.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name, sorted by name: calls, total time, and self time
    /// (a span's duration minus the part its direct children cover).
    pub fn totals(&self) -> Vec<Total> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64, u64)> =
            Default::default();
        for (s, covered) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.0 += s.calls;
            e.1 += dur;
            e.2 += dur.saturating_sub(*covered);
        }
        by_name
            .into_iter()
            .map(|(name, (calls, total_ns, self_ns))| Total {
                name,
                calls,
                total_ns,
                self_ns,
            })
            .collect()
    }

    /// The spans as a chrome-trace document (`chrome://tracing`,
    /// Perfetto): complete (`"X"`) events in microseconds, with the
    /// parent index, rep id and folded call count as arguments.
    pub fn chrome_trace(&self, workload: &str) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(workload)),
                    ("ph", Json::str("X")),
                    ("ts", Json::num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::num(1.0)),
                    ("tid", Json::num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::num(id as f64)),
                            ("parent", Json::num(s.parent.map(|p| p as f64))),
                            ("rep", Json::num(f64::from(s.rep))),
                            ("calls", Json::num(s.calls as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time() {
        let mut rec = Recorder::new(7);
        rec.span("outer", |rec| {
            rec.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            let at = rec.now_ns();
            rec.folded("step", at, 500, 10);
            rec.folded("never", at, 0, 0);
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3, "zero-call folds are dropped");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.rep == 7 && s.end_ns >= s.start_ns));

        let totals = rec.totals();
        let named = |name: &str| totals.iter().find(|t| t.name == name).unwrap();
        let (outer, inner, step) = (named("outer"), named("inner"), named("step"));
        assert_eq!((step.calls, step.total_ns), (10, 500));
        assert!(inner.total_ns >= 2_000_000);
        // Self time excludes what the children cover.
        assert_eq!(
            outer.self_ns,
            outer.total_ns - inner.total_ns - step.total_ns
        );
    }

    #[test]
    fn an_off_recorder_runs_calls_and_records_nothing() {
        let mut rec = Recorder::off();
        let out = rec.span("outer", |rec| {
            rec.folded("step", 0, 10, 1);
            41 + 1
        });
        assert_eq!(out, 42);
        assert!(rec.spans().is_empty() && !rec.is_on());
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let mut rec = Recorder::new(1);
        rec.span("run_for", |rec| rec.span("advance_to", |_| ()));
        let text = rec.chrome_trace("link_lab").to_pretty();
        let doc = Json::parse(&text).expect("trace parses");
        let events = doc.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").and_then(Json::as_str),
            Some("advance_to")
        );
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            events[0].get("args").unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}

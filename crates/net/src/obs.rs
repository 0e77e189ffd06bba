//! Deterministic telemetry: request-lifecycle spans, histogram
//! metrics, and engine profiling.
//!
//! Observability for a deterministic simulator has one extra contract
//! ordinary tracing layers don't: **recording must never perturb the
//! run**. Everything in this module is passive — it draws nothing from
//! any RNG, schedules no events, and is only ever written while the
//! network processes shared-queue events in `(time, seq)` order.
//! Consequences:
//!
//! * With telemetry off (the default), a run is bit-identical to the
//!   same run on any earlier revision: each span emission reduces to
//!   an `Option` check.
//! * With telemetry on, the run's *results* are still bit-identical
//!   to the telemetry-off run — spans and metrics are a projection of
//!   the event stream, not a participant in it.
//!
//! One switch, [`TelemetryConfig`], turns all three facets on or off
//! together (programmatic: [`NetConfig::telemetry`]; environment:
//! `QLINK_TRACE=1` via [`TelemetryConfig::from_env`], which
//! [`NetConfig::default`] reads):
//!
//! * **Spans** — the life of every request as timestamped
//!   [`SpanEvent`]s: issue → plan → per-edge CREATE → pair ADD (with
//!   its CREATE's queue wait) → swap / swap-result hops → purify
//!   parity → deliver, or the failure arcs (unsupp, reroute, retract,
//!   abandon); plus, on the network track, faults and the expire
//!   notices that land at links. The one record: everything else here
//!   is derived from it. Exportable as [`chrome_trace_json`] (load in
//!   a Chromium `about://tracing` / Perfetto UI) or line-delimited
//!   [`spans_jsonl`].
//! * **Metrics** — one fold over the spans ([`Metrics::from_spans`]):
//!   fixed-bucket [`Histogram`]s (end-to-end latency, delivered
//!   fidelity, per-CREATE queue wait) and exact `u64` counters
//!   (per-edge CREATE / RETRACT / EXPIRE / UNSUPP, completions), plus
//!   a deliveries [`TimeSeries`] for throughput-vs-time re-binning.
//!   Re-routes, abandons, purifications, faults and penalties are
//!   also [`Network`](crate::network::Network) counters, and
//!   per-class service figures are
//!   [`Network::workload_stats`](crate::network::Network::workload_stats).
//! * **Profile** — wall-clock engine introspection: run time, events
//!   drained, queue-depth high water, and cycles elided,
//!   exportable as a `BENCH_par.json`-style artifact via
//!   [`EngineProfile::to_json`]. Wall time is the *one* nondeterministic
//!   quantity here: spans and metrics never read it, so they stay
//!   byte-reproducible.
//!
//! [`NetConfig::telemetry`]: crate::network::NetConfig::telemetry
//! [`NetConfig::default`]: crate::network::NetConfig::default

use qlink_des::{Histogram, SimDuration, SimTime, TimeSeries};
use std::fmt::Write as _;

/// Whether a [`Network`](crate::network::Network) records telemetry:
/// spans (and the metrics folded from them) and the engine profile,
/// all or none. The default ([`TelemetryConfig::OFF`]) records nothing
/// and costs one branch per span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    on: bool,
}

impl TelemetryConfig {
    /// Off — the default; runs reproduce earlier revisions bit-for-bit.
    pub const OFF: TelemetryConfig = TelemetryConfig { on: false };

    /// On: every facet records.
    pub fn all() -> TelemetryConfig {
        TelemetryConfig { on: true }
    }

    /// `true` when nothing records.
    pub fn is_off(&self) -> bool {
        !self.on
    }

    /// The configuration requested by the `QLINK_TRACE` environment
    /// variable: `1` or `all` means [`TelemetryConfig::all`], anything
    /// else — unset, empty, `0` — [`TelemetryConfig::OFF`]. This is how
    /// a whole test suite or CI leg switches telemetry on without
    /// touching call sites.
    pub fn from_env() -> TelemetryConfig {
        match std::env::var("QLINK_TRACE") {
            Ok(v) => Self::parse(&v),
            Err(_) => TelemetryConfig::OFF,
        }
    }

    /// Parses a `QLINK_TRACE` value; see [`TelemetryConfig::from_env`].
    pub fn parse(s: &str) -> TelemetryConfig {
        TelemetryConfig {
            on: matches!(s.trim().to_ascii_lowercase().as_str(), "1" | "all"),
        }
    }
}

/// One stage in a request's life. Every variant corresponds to a
/// specific emission point in `crates/net/src/network.rs`; the stages
/// of one request, in timestamp order, read as its complete story.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanStage {
    /// The request entered the network (first attempt only).
    Issue { src: usize, dst: usize, fmin: f64 },
    /// An attempt was planned onto this node path (every attempt,
    /// re-routes included).
    Plan { path: Vec<usize> },
    /// An NL CREATE was submitted to a link's EGP.
    Create {
        edge: usize,
        side: usize,
        create_id: u16,
    },
    /// A link delivered an NL pair for the request, `wait` after its
    /// CREATE was submitted (the time the CREATE spent queued and
    /// attempting inside the EGP).
    Add {
        edge: usize,
        fidelity: f64,
        wait: SimDuration,
    },
    /// A repeater performed its Bell-state measurement.
    Swap { node: usize },
    /// A swap's Bell-outcome frame reached a path end.
    SwapResult { node: usize },
    /// Two pairs on an edge were measured for link-level 2→1
    /// distillation.
    Purify { edge: usize },
    /// A link-level distillation verdict arrived at a node over the
    /// edge's classical channel (one span per receiving endpoint).
    PurifyParity { edge: usize, accepted: bool },
    /// An end-to-end distillation group's parity verdict arrived.
    GroupParity { group: u64, accepted: bool },
    /// The request completed: both ends hold the pair and its Pauli
    /// frame. `latency` is measured from the *first* attempt's issue.
    Deliver { fidelity: f64, latency: SimDuration },
    /// The attempt failed (the rejecting edge when a link UNSUPP'd it,
    /// `None` on a timeout) and the request is parked for re-issue.
    Reroute { failed_edge: Option<usize> },
    /// A link terminally rejected one of the request's CREATEs as
    /// unsupported (UNSUPP).
    Unsupp { edge: usize },
    /// A still-queued CREATE of a failed or cancelled request was
    /// retracted (the expire notice is in flight to the link).
    Retract { edge: usize },
    /// A retraction's expire notice reached its link. The request is
    /// off the books by then, so this is emitted under the reserved
    /// network-track span id (`u64::MAX`), like [`SpanStage::EdgeFail`].
    Expire { edge: usize },
    /// The request was abandoned: its retry budget is exhausted, or no
    /// route is left (same `failed_edge` convention as
    /// [`SpanStage::Reroute`]). An end-to-end distillation group whose
    /// member is abandoned records one under the group id too.
    Abandon { failed_edge: Option<usize> },
    /// A RuleSet rule fired at a path node of an interpreted request
    /// (see [`crate::ruleset`]): the rule's index in its table and
    /// its action tag. Purely passive — the interpreter's decisions
    /// are identical whether or not the firing is recorded.
    RuleFired { rule: u32, action: &'static str },
    /// The fault layer took an edge's quantum link down (see
    /// [`crate::fault`]). Emitted under the reserved network-track
    /// span id (`u64::MAX`), not a request id.
    EdgeFail { edge: usize },
    /// The fault layer brought an edge back up (same reserved track
    /// as [`SpanStage::EdgeFail`]).
    EdgeRepair { edge: usize },
}

impl SpanStage {
    /// Short stable name, used by both exporters.
    pub fn name(&self) -> &'static str {
        match self {
            SpanStage::Issue { .. } => "issue",
            SpanStage::Plan { .. } => "plan",
            SpanStage::Create { .. } => "create",
            SpanStage::Add { .. } => "add",
            SpanStage::Swap { .. } => "swap",
            SpanStage::SwapResult { .. } => "swap_result",
            SpanStage::Purify { .. } => "purify",
            SpanStage::PurifyParity { .. } => "purify_parity",
            SpanStage::GroupParity { .. } => "group_parity",
            SpanStage::Deliver { .. } => "deliver",
            SpanStage::Reroute { .. } => "reroute",
            SpanStage::Unsupp { .. } => "unsupp",
            SpanStage::Retract { .. } => "retract",
            SpanStage::Expire { .. } => "expire",
            SpanStage::Abandon { .. } => "abandon",
            SpanStage::RuleFired { .. } => "rule_fired",
            SpanStage::EdgeFail { .. } => "edge_fail",
            SpanStage::EdgeRepair { .. } => "edge_repair",
        }
    }

    /// `true` for the stages that end a request's span (deliver /
    /// abandon).
    pub fn is_terminal(&self) -> bool {
        matches!(self, SpanStage::Deliver { .. } | SpanStage::Abandon { .. })
    }

    /// The stage's payload as a JSON object body (no braces).
    fn args_json(&self) -> String {
        match self {
            SpanStage::Issue { src, dst, fmin } => {
                format!("\"src\":{src},\"dst\":{dst},\"fmin\":{fmin}")
            }
            SpanStage::Plan { path } => {
                let nodes: Vec<String> = path.iter().map(|n| n.to_string()).collect();
                format!("\"path\":[{}]", nodes.join(","))
            }
            SpanStage::Create {
                edge,
                side,
                create_id,
            } => format!("\"edge\":{edge},\"side\":{side},\"create_id\":{create_id}"),
            SpanStage::Add {
                edge,
                fidelity,
                wait,
            } => format!(
                "\"edge\":{edge},\"fidelity\":{fidelity},\"wait_s\":{}",
                wait.as_secs_f64()
            ),
            SpanStage::Swap { node } | SpanStage::SwapResult { node } => {
                format!("\"node\":{node}")
            }
            SpanStage::Purify { edge } => format!("\"edge\":{edge}"),
            SpanStage::PurifyParity { edge, accepted } => {
                format!("\"edge\":{edge},\"accepted\":{accepted}")
            }
            SpanStage::GroupParity { group, accepted } => {
                format!("\"group\":{group},\"accepted\":{accepted}")
            }
            SpanStage::Deliver { fidelity, latency } => format!(
                "\"fidelity\":{fidelity},\"latency_s\":{}",
                latency.as_secs_f64()
            ),
            SpanStage::Reroute { failed_edge } | SpanStage::Abandon { failed_edge } => {
                match failed_edge {
                    Some(e) => format!("\"failed_edge\":{e}"),
                    None => "\"failed_edge\":null".to_string(),
                }
            }
            SpanStage::RuleFired { rule, action } => {
                format!("\"rule\":{rule},\"action\":\"{action}\"")
            }
            SpanStage::Unsupp { edge }
            | SpanStage::Retract { edge }
            | SpanStage::Expire { edge }
            | SpanStage::EdgeFail { edge }
            | SpanStage::EdgeRepair { edge } => format!("\"edge\":{edge}"),
        }
    }
}

/// One timestamped lifecycle event of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Global simulated time of the stage.
    pub at: SimTime,
    /// The request the stage belongs to: for [`SpanStage::GroupParity`]
    /// and a distillation group's issue, delivery or abandon, the
    /// group; for fault and expire stages, the network track
    /// (`u64::MAX`).
    pub request: u64,
    /// The attempt number the request was on (0-based; re-routes bump
    /// it). Retractions, recorded after an attempt's state is torn
    /// down, carry the attempt that owned the CREATE; group and
    /// network-track stages carry 0.
    pub attempt: u64,
    /// What happened.
    pub stage: SpanStage,
}

/// Deterministic aggregate metrics of one run: a fold over its spans
/// ([`Metrics::from_spans`]).
#[derive(Debug, Clone)]
pub struct Metrics {
    /// NL CREATEs submitted, per edge (`create` spans).
    pub creates: Vec<u64>,
    /// CREATE retractions scheduled, per edge (`retract` spans).
    pub retracts: Vec<u64>,
    /// Expire notices that reached their link, per edge (`expire`).
    pub expires: Vec<u64>,
    /// Terminal UNSUPP rejections observed, per edge (`unsupp`).
    pub unsupp: Vec<u64>,
    /// End-to-end pairs delivered (`deliver` spans).
    pub completions: u64,
    /// End-to-end latency in seconds: `[0, 60)` s in 600 buckets of
    /// 100 ms.
    pub latency: Histogram,
    /// Delivered end-to-end fidelity: `[0, 1)` in 100 buckets.
    pub fidelity: Histogram,
    /// Per-CREATE queue wait in seconds (`add` spans' `wait`): `[0, 60)`
    /// s in 600 buckets.
    pub queue_wait: Histogram,
    /// One sample per completion, at its delivery time, value 1 —
    /// re-bin with [`TimeSeries::rate_per_second`] for the
    /// throughput-vs-time series.
    pub deliveries: TimeSeries,
}

impl Metrics {
    /// The aggregates of `spans`, recorded on a network of `edges`
    /// links, in one pass in emission order.
    pub fn from_spans(spans: &[SpanEvent], edges: usize) -> Metrics {
        let mut m = Metrics {
            creates: vec![0; edges],
            retracts: vec![0; edges],
            expires: vec![0; edges],
            unsupp: vec![0; edges],
            completions: 0,
            latency: latency_histogram(),
            fidelity: fidelity_histogram(),
            queue_wait: latency_histogram(),
            deliveries: TimeSeries::new(),
        };
        for s in spans {
            match s.stage {
                SpanStage::Create { edge, .. } => m.creates[edge] += 1,
                SpanStage::Add { wait, .. } => m.queue_wait.record(wait.as_secs_f64()),
                SpanStage::Retract { edge } => m.retracts[edge] += 1,
                SpanStage::Expire { edge } => m.expires[edge] += 1,
                SpanStage::Unsupp { edge } => m.unsupp[edge] += 1,
                SpanStage::Deliver { fidelity, latency } => {
                    m.completions += 1;
                    m.latency.record(latency.as_secs_f64());
                    m.fidelity.record(fidelity);
                    m.deliveries.push(s.at, 1.0);
                }
                _ => {}
            }
        }
        m
    }
}

/// The standard latency-axis histogram: `[0, 60)` seconds, 100 ms
/// buckets. Shared by the network telemetry and the sweep driver so
/// per-seed histograms merge exactly.
pub fn latency_histogram() -> Histogram {
    Histogram::new(0.0, 60.0, 600)
}

/// The standard fidelity-axis histogram: `[0, 1)`, 100 buckets.
pub fn fidelity_histogram() -> Histogram {
    Histogram::new(0.0, 1.0, 100)
}

/// Wall-clock engine profile of one run (the only telemetry whose
/// numbers vary run to run — it measures the host machine).
#[derive(Debug, Clone, Default)]
pub struct EngineProfile {
    /// Wall nanoseconds spent inside `run_for` / `run_until_outcome`.
    pub wall_nanos: u64,
    /// Shared-queue events fired so far (simulation metric, included
    /// here to normalise the wall figures into ns/event).
    pub events_handled: u64,
    /// Most shared-queue events ever pending at once.
    pub queue_depth_high_water: usize,
    /// MHP cycles the links skipped while parked idle, as of the last
    /// run loop's end ([`Network::cycles_elided`]). A simulation
    /// count, not a wall figure: neither these cycles nor the wakes
    /// that would have observed them are in `events_handled`.
    ///
    /// [`Network::cycles_elided`]: crate::network::Network::cycles_elided
    pub cycles_elided: u64,
    #[doc(hidden)]
    pub windows: u64, // benchmark-compat: ROADMAP item 1 deletes this (always 0)
    #[doc(hidden)]
    pub coord_idle_nanos: u64, // benchmark-compat: ROADMAP item 1 deletes this (always 0)
}

impl EngineProfile {
    /// Serialises the profile as a small JSON object, the same artifact
    /// style as the scaling benchmark's `BENCH_par.json`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"wall_ns\": {},\n  \"events_handled\": {},\n  \"ns_per_event\": {:.1},\n  \"queue_depth_high_water\": {},\n  \"cycles_elided\": {}\n}}\n",
            self.wall_nanos,
            self.events_handled,
            if self.events_handled == 0 {
                0.0
            } else {
                self.wall_nanos as f64 / self.events_handled as f64
            },
            self.queue_depth_high_water,
            self.cycles_elided,
        )
    }
}

/// What a network with telemetry on has recorded. Owned by
/// [`Network`](crate::network::Network) while telemetry is on, written
/// only while it handles events, readable any time.
#[derive(Debug, Clone)]
pub struct Telemetry {
    spans: Vec<SpanEvent>,
    profile: EngineProfile,
    /// The network's link count: the length of [`Metrics`]' per-edge
    /// counters.
    edges: usize,
}

impl Telemetry {
    /// Fresh telemetry for a network with `edges` links.
    pub(crate) fn new(edges: usize) -> Telemetry {
        Telemetry {
            spans: Vec::new(),
            profile: EngineProfile::default(),
            edges,
        }
    }

    /// Every recorded span, in emission (= shared-queue) order.
    pub fn spans(&self) -> &[SpanEvent] {
        &self.spans
    }

    /// The aggregate metrics, folded from [`Telemetry::spans`].
    pub fn metrics(&self) -> Metrics {
        Metrics::from_spans(&self.spans, self.edges)
    }

    /// The wall-clock engine profile.
    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    pub(crate) fn profile_mut(&mut self) -> &mut EngineProfile {
        &mut self.profile
    }

    /// Records one span (called by `network.rs`; passive).
    pub(crate) fn emit(&mut self, at: SimTime, request: u64, attempt: u64, stage: SpanStage) {
        self.spans.push(SpanEvent {
            at,
            request,
            attempt,
            stage,
        });
    }
}

/// Serialises spans in the Chrome trace event format (the JSON a
/// Chromium `about://tracing` or Perfetto UI loads directly): one
/// async `B`/`E` pair per request spanning issue to deliver / abandon,
/// with every stage in between as an instant (`"ph":"i"`) event.
/// `pid` is always 1; `tid` is the request id, so each request renders
/// as its own track. Timestamps are microseconds with picosecond
/// precision kept in the fraction.
///
/// The output is a pure function of the span list — byte-identical
/// across runs, seeds aside.
pub fn chrome_trace_json(spans: &[SpanEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push_str(",\n");
        }
    };
    for s in spans {
        let ts = s.at.as_ps() as f64 / 1e6;
        let req = s.request;
        if matches!(s.stage, SpanStage::Issue { .. }) {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"request-{req}\",\"cat\":\"request\",\"ph\":\"B\",\"ts\":{ts:.6},\"pid\":1,\"tid\":{req}}}"
            );
        }
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts:.6},\"pid\":1,\"tid\":{req},\"args\":{{{}}}}}",
            s.stage.name(),
            s.stage.args_json()
        );
        if s.stage.is_terminal() {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"request-{req}\",\"cat\":\"request\",\"ph\":\"E\",\"ts\":{ts:.6},\"pid\":1,\"tid\":{req}}}"
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Serialises spans as JSON Lines: one self-contained object per span,
/// in emission order. The format the determinism tests compare
/// byte-for-byte, and the handiest input for ad hoc `grep`/`jq`-style
/// analysis.
pub fn spans_jsonl(spans: &[SpanEvent]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"at_ps\":{},\"request\":{},\"attempt\":{},\"stage\":\"{}\",{}}}",
            s.at.as_ps(),
            s.request,
            s.attempt,
            s.stage.name(),
            s.stage.args_json()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_parses_env_forms() {
        for on in ["1", "all", " ALL "] {
            assert_eq!(TelemetryConfig::parse(on), TelemetryConfig::all(), "{on:?}");
        }
        for off in ["", "0", "spans", "nonsense"] {
            assert!(TelemetryConfig::parse(off).is_off(), "{off:?}");
        }
        assert!(TelemetryConfig::default().is_off());
        assert!(!TelemetryConfig::all().is_off());
    }

    #[test]
    fn queue_wait_pairs_create_with_add() {
        let mut tl = Telemetry::new(1);
        let create = SpanStage::Create {
            edge: 0,
            side: 0,
            create_id: 0,
        };
        tl.emit(SimTime::ZERO, 0, 0, create);
        let wait = SimDuration::from_secs_f64(0.25);
        let add = SpanStage::Add {
            edge: 0,
            fidelity: 0.8,
            wait,
        };
        tl.emit(SimTime::ZERO + wait, 0, 0, add);
        let m = tl.metrics();
        assert_eq!(m.creates, vec![1]);
        assert_eq!(m.queue_wait.count(), 1);
        assert!((m.queue_wait.mean() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn exporters_are_pure_functions_of_the_span_list() {
        let spans = vec![
            SpanEvent {
                at: SimTime::ZERO,
                request: 0,
                attempt: 0,
                stage: SpanStage::Issue {
                    src: 0,
                    dst: 2,
                    fmin: 0.6,
                },
            },
            SpanEvent {
                at: SimTime::ZERO + SimDuration::from_micros(3),
                request: 0,
                attempt: 0,
                stage: SpanStage::Deliver {
                    fidelity: 0.8,
                    latency: SimDuration::from_micros(3),
                },
            },
        ];
        let a = chrome_trace_json(&spans);
        let b = chrome_trace_json(&spans);
        assert_eq!(a, b);
        // One B, one E, two instants.
        assert_eq!(a.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(a.matches("\"ph\":\"E\"").count(), 1);
        assert_eq!(a.matches("\"ph\":\"i\"").count(), 2);
        let l = spans_jsonl(&spans);
        assert_eq!(l.lines().count(), 2);
        assert!(l.starts_with("{\"at_ps\":0,\"request\":0,\"attempt\":0,\"stage\":\"issue\","));
    }

    #[test]
    fn profile_serialises_as_json() {
        let p = EngineProfile {
            wall_nanos: 1000,
            events_handled: 10,
            queue_depth_high_water: 4,
            cycles_elided: 7,
            ..EngineProfile::default()
        };
        let j = p.to_json();
        assert!(j.contains("\"ns_per_event\": 100.0"));
        assert!(j.contains("\"cycles_elided\": 7"));
    }
}

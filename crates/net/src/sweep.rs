//! The parallel scenario-sweep driver.
//!
//! The ROADMAP's scale goal needs many runs, not one: a sweep fans a
//! *scenario × seed* matrix across OS threads (`std::thread::scope`,
//! no external dependencies) and merges every run's statistics into
//! per-scenario aggregates. Each run is an independent, fully seeded
//! [`Network`], so the merged report is bit-identical whatever the
//! thread count — parallelism changes wall-clock time only, never
//! results.

use crate::fault::FaultPlan;
use crate::load::{ClassLoadStats, Workload};
use crate::network::{NetConfig, Network};
use crate::obs::{fidelity_histogram, latency_histogram};
use crate::route::RouteMetric;
use crate::ruleset::Policy;
use crate::topology::Topology;
use qlink_des::{DetRng, Histogram, SimDuration, SimTime, TimeSeries};
use qlink_math::stats::RunningStats;
use qlink_phys::attempt::ModelCache;
use qlink_sim::config::LinkConfig;
use qlink_sim::workload::WorkloadSpec;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

#[doc(hidden)]
pub type ExecChoice = crate::network::ExecMode; // benchmark-compat: ROADMAP item 1 deletes this

/// Which topology a sweep run instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyChoice {
    /// A linear chain ([`Topology::chain`]).
    Chain {
        /// Chain nodes (hops = nodes − 1).
        nodes: usize,
    },
    /// A rows × cols mesh ([`Topology::grid`]) — the contended
    /// workload class: many equal-length paths between most pairs.
    Grid {
        /// Grid rows (≥ 2).
        rows: usize,
        /// Grid columns (≥ 2).
        cols: usize,
    },
}

impl TopologyChoice {
    /// Number of edges in the topology.
    pub fn edge_count(&self) -> usize {
        match *self {
            TopologyChoice::Chain { nodes } => nodes.saturating_sub(1),
            TopologyChoice::Grid { rows, cols } => rows * (cols - 1) + cols * (rows - 1),
        }
    }
}

/// A data-only description of one sweep scenario: a chain or grid of
/// Lab links under FCFS link scheduling, the [`NetConfig`] each run's
/// network is built from, and the closed-loop rounds driving it.
/// (Data-only so specs are trivially `Send` + `Clone` across worker
/// threads.)
///
/// # Examples
///
/// ```
/// use qlink_des::SimDuration;
/// use qlink_net::route::RouteMetric;
/// use qlink_net::sweep::{run_one, ScenarioSpec};
///
/// // A 1-hop Lab chain, two rounds, fidelity-aware routing.
/// let spec = ScenarioSpec::lab_chain("demo", 2)
///     .with_rounds(2)
///     .with_max_time(SimDuration::from_secs(20))
///     .with_metric(RouteMetric::Fidelity);
/// assert_eq!(spec.rounds, 2);
/// assert_eq!(spec.net.metric, RouteMetric::Fidelity);
///
/// // One (scenario, seed) cell of the matrix, fully deterministic.
/// let record = run_one(&spec, 7);
/// assert_eq!(record.seed, 7);
/// assert_eq!(record.rounds, 2);
/// assert!(record.successes <= record.rounds);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Display name for the report.
    pub name: String,
    /// Requested minimum link fidelity.
    pub fmin: f64,
    /// Simulated-time budget per end-to-end round.
    pub max_time: SimDuration,
    /// End-to-end rounds per run.
    pub rounds: u32,
    /// Concurrent same-pair requests per round (1 = single path; more
    /// are split across routes by
    /// [`Network::request_entanglement_multipath`]). Ignored under
    /// [`Policy::EndToEndPurify`], whose rounds are one *logical*
    /// request each (two internal streams distilled into one pair).
    pub streams: u32,
    /// Overrides the carbon-memory dephasing time `T2*` (seconds) of
    /// every hop — the knob that models dynamically decoupled
    /// long-lived memories, without which multi-hop pairs decay to
    /// the maximally mixed 1/4 long before a partner pair for
    /// distillation can be generated. `None` keeps the scenario's
    /// Table 6 hardware value.
    pub carbon_t2: Option<f64>,
    /// Shape of each run's topology (chain by default; grids open the
    /// contended-mesh workload class).
    pub topology: TopologyChoice,
    /// Explicit concurrent `(src, dst)` requests per round. Empty
    /// (the default) keeps the classic workload: `streams` same-pair
    /// requests between node 0 and the last node. Non-empty, each
    /// round issues one request per listed pair concurrently —
    /// network-wide contention rather than same-pair multipath — and
    /// `streams` is ignored.
    pub pairs: Vec<(usize, usize)>,
    /// What each run's network is built from
    /// ([`Network::with_config`]). With [`NetConfig::workload`] set
    /// the run is open-loop: it advances the clock once for
    /// [`ScenarioSpec::max_time`] of sustained arrivals, and `rounds`,
    /// `streams`, `pairs` and `fmin` are ignored (each
    /// [`crate::load::UserClass`] carries its own pairs and fmin).
    pub net: NetConfig,
}

impl ScenarioSpec {
    /// A Lab-scenario chain with sensible defaults: Fmin 0.6, 20
    /// simulated seconds per round, one round, hop-count routing, one
    /// stream.
    pub fn lab_chain(name: impl Into<String>, nodes: usize) -> Self {
        ScenarioSpec {
            name: name.into(),
            fmin: 0.6,
            max_time: SimDuration::from_secs(20),
            rounds: 1,
            streams: 1,
            carbon_t2: None,
            topology: TopologyChoice::Chain { nodes },
            pairs: Vec::new(),
            net: NetConfig::default(),
        }
    }

    /// A Lab-scenario rows × cols grid mesh with the same defaults as
    /// [`ScenarioSpec::lab_chain`]; pair the builder with
    /// [`ScenarioSpec::with_pairs`] to put concurrent cross-traffic
    /// on it.
    ///
    /// # Panics
    /// Panics unless both dimensions are at least 2.
    pub fn lab_grid(name: impl Into<String>, rows: usize, cols: usize) -> Self {
        assert!(rows >= 2 && cols >= 2, "a grid needs both dimensions ≥ 2");
        ScenarioSpec {
            topology: TopologyChoice::Grid { rows, cols },
            ..Self::lab_chain(name, rows * cols)
        }
    }

    /// Builder: rounds per run.
    ///
    /// Clamps to at least one round: a zero-round run would measure
    /// nothing, so `with_rounds(0)` silently becomes `1` rather than
    /// producing an empty record.
    ///
    /// ```
    /// use qlink_net::sweep::ScenarioSpec;
    ///
    /// assert_eq!(ScenarioSpec::lab_chain("r", 2).with_rounds(0).rounds, 1);
    /// assert_eq!(ScenarioSpec::lab_chain("r", 2).with_rounds(7).rounds, 7);
    /// ```
    pub fn with_rounds(mut self, rounds: u32) -> Self {
        self.rounds = rounds.max(1);
        self
    }

    /// Builder: per-round simulated-time budget.
    pub fn with_max_time(mut self, max_time: SimDuration) -> Self {
        self.max_time = max_time;
        self
    }

    /// Builder: route metric.
    pub fn with_metric(mut self, metric: RouteMetric) -> Self {
        self.net.metric = metric;
        self
    }

    /// Builder: concurrent same-pair streams per round.
    ///
    /// Clamps to at least one stream — a round with zero streams could
    /// never deliver, so `with_streams(0)` silently becomes `1` (the
    /// same guard the run driver applies to hand-built specs).
    ///
    /// ```
    /// use qlink_net::sweep::ScenarioSpec;
    ///
    /// assert_eq!(ScenarioSpec::lab_chain("s", 2).with_streams(0).streams, 1);
    /// assert_eq!(ScenarioSpec::lab_chain("s", 2).with_streams(3).streams, 3);
    /// ```
    pub fn with_streams(mut self, streams: u32) -> Self {
        self.streams = streams.max(1);
        self
    }

    /// Builder: the policy every round's requests run under.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.net.policy = policy;
        self
    }

    /// Builder: carbon-memory `T2*` override (seconds) on every hop.
    pub fn with_carbon_t2(mut self, t2: f64) -> Self {
        self.carbon_t2 = Some(t2);
        self
    }

    /// Builder: explicit concurrent `(src, dst)` requests per round
    /// (overrides the default node-0-to-last workload; `streams` is
    /// then ignored).
    pub fn with_pairs(mut self, pairs: Vec<(usize, usize)>) -> Self {
        self.pairs = pairs;
        self
    }

    /// Builder: per-request re-route budget.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.net.retries = retries;
        self
    }

    /// Builder: per-attempt timeout.
    pub fn with_request_timeout(mut self, timeout: SimDuration) -> Self {
        self.net.request_timeout = Some(timeout);
        self
    }

    #[doc(hidden)]
    #[rustfmt::skip]
    pub fn with_exec(self, _: ExecChoice) -> Self { self } // benchmark-compat: ROADMAP item 1 deletes this

    /// Builder: drive the run open-loop with a sustained arrival
    /// workload instead of closed-loop rounds (see
    /// [`ScenarioSpec::net`]).
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.net.workload = Some(workload);
        self
    }

    /// Builder: subject the run to adversity — for every edge
    /// flapping, [`FaultPlan::flapping_everywhere`] over
    /// [`TopologyChoice::edge_count`].
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.net.faults = Some(faults);
        self
    }

    /// Builds the run's topology with per-edge seeds derived from the
    /// run seed (stable per edge index, independent across edges).
    fn topology(&self, run_seed: u64) -> Topology {
        let root = DetRng::new(run_seed);
        let mut link = |i: usize| {
            let seed = root.substream(&format!("edge/{i}")).seed();
            let mut cfg = LinkConfig::lab(WorkloadSpec::none(), seed);
            if let Some(t2) = self.carbon_t2 {
                cfg.scenario.nv.carbon_t2 = t2;
            }
            cfg
        };
        match self.topology {
            TopologyChoice::Chain { nodes } => Topology::chain(nodes, link),
            TopologyChoice::Grid { rows, cols } => Topology::grid(rows, cols, &mut link),
        }
    }
}

/// The measurements of one (scenario, seed) run — or, as
/// [`SweepReport::scenarios`] holds them, of every run of one scenario
/// merged ([`RunRecord::merge`]).
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Scenario display name.
    pub name: String,
    /// Index into the sweep's scenario list.
    pub scenario: usize,
    /// The run's seed (0 on a merged aggregate).
    pub seed: u64,
    /// Runs merged in: 1 for a single run, one per seed on an aggregate.
    pub runs: u32,
    /// Requests that delivered end-to-end entanglement.
    pub successes: u32,
    /// Logical requests attempted: counted as they are issued —
    /// `rounds × streams` of the spec normally, `rounds` under
    /// [`Policy::EndToEndPurify`] (one distilled pair per round,
    /// however many internal streams feed it). An outcome can only
    /// ever be counted against the round that issued its request, so
    /// `successes ≤ rounds` holds even when a stream aborts on UNSUPP
    /// and a buffered outcome straddles a round boundary.
    pub rounds: u32,
    /// Closed-loop runs only: end-to-end fidelities of successful
    /// rounds.
    pub fidelity: RunningStats,
    /// Closed-loop runs only: end-to-end latencies (seconds) of
    /// successful rounds.
    pub latency_s: RunningStats,
    /// Closed-loop: link pairs consumed by the delivered outcomes
    /// (purification spends several per edge; see
    /// [`EndToEndOutcome::pairs_consumed`](crate::network::EndToEndOutcome)).
    /// Open-loop: every link pair delivered to the network's requests
    /// ([`Network::pairs_delivered`] summed over edges), those of
    /// abandoned and still-running requests included.
    pub pairs_consumed: u64,
    /// Requests that failed to deliver within their round's budget —
    /// abandoned by the network's own timeout/rejection handling or
    /// still pending when the round's simulated-time budget ran out.
    pub timeouts: u32,
    /// Failed attempts the network re-planned and re-issued
    /// ([`Network::reroutes`](crate::network::Network::reroutes)).
    pub reroutes: u64,
    /// Total events fired (shared queue + all links).
    pub events: u64,
    /// Edge failures injected by the run's fault plan
    /// ([`Network::faults`](crate::network::Network::faults); 0 with
    /// no plan armed).
    pub faults: u64,
    /// Edge repairs applied by the run's fault plan
    /// ([`Network::repairs`](crate::network::Network::repairs)).
    pub repairs: u64,
    /// Latency distribution of the delivered requests (seconds; the
    /// standard [`latency_histogram`] layout, so per-seed histograms
    /// merge exactly; read percentiles off it via
    /// [`RunRecord::latency_percentiles`]). Always recorded — the
    /// histogram is a pure projection of the run's deterministic
    /// outcomes, so it costs nothing in reproducibility.
    pub latency_hist: Histogram,
    /// Fidelity distribution of the delivered requests (the standard
    /// [`fidelity_histogram`] layout).
    pub fidelity_hist: Histogram,
    /// Closed-loop runs only: one sample per delivered request at its
    /// delivery time — the throughput-vs-time raw series, re-binned by
    /// [`SweepReport::throughput_csv`]. Runs share the t = 0 origin, so
    /// merged per-seed series interleave ([`TimeSeries::merge`]).
    pub deliveries: TimeSeries,
    /// Open-loop runs only: per-class workload accounting, in workload
    /// class order (empty for closed-loop runs). The scalar fields
    /// above are projected from it — `rounds` is total admitted,
    /// `successes` total completed, `timeouts` total abandoned — so
    /// legacy report consumers keep working.
    pub classes: Vec<ClassLoadStats>,
    /// Open-loop runs only: simulated seconds of sustained arrivals
    /// (the spec's `max_time`; 0 for closed-loop runs). Offered and
    /// carried *rates* divide by this
    /// ([`SweepReport::service_csv`]).
    pub open_loop_secs: f64,
}

impl RunRecord {
    /// An empty record: no run merged in yet.
    fn new(name: &str, scenario: usize, seed: u64) -> Self {
        RunRecord {
            name: name.to_owned(),
            scenario,
            seed,
            runs: 0,
            successes: 0,
            rounds: 0,
            fidelity: RunningStats::new(),
            latency_s: RunningStats::new(),
            pairs_consumed: 0,
            timeouts: 0,
            reroutes: 0,
            events: 0,
            faults: 0,
            repairs: 0,
            latency_hist: latency_histogram(),
            fidelity_hist: fidelity_histogram(),
            deliveries: TimeSeries::new(),
            classes: Vec::new(),
            open_loop_secs: 0.0,
        }
    }

    /// Exact merge of another record of the same scenario (sweep
    /// aggregation across seeds).
    pub fn merge(&mut self, run: &RunRecord) {
        self.runs += run.runs;
        self.successes += run.successes;
        self.rounds += run.rounds;
        self.fidelity.merge(&run.fidelity);
        self.latency_s.merge(&run.latency_s);
        self.pairs_consumed += run.pairs_consumed;
        self.timeouts += run.timeouts;
        self.reroutes += run.reroutes;
        self.events += run.events;
        self.faults += run.faults;
        self.repairs += run.repairs;
        self.latency_hist.merge(&run.latency_hist);
        self.fidelity_hist.merge(&run.fidelity_hist);
        self.deliveries.merge(&run.deliveries);
        self.open_loop_secs += run.open_loop_secs;
        if self.classes.is_empty() {
            self.classes = run.classes.clone();
        } else {
            for (agg, c) in self.classes.iter_mut().zip(&run.classes) {
                agg.merge(c);
            }
        }
    }

    /// `(p50, p90, p99)` end-to-end latency in seconds, read from the
    /// histogram (each within one bucket width — 100 ms — of the exact
    /// order statistic). Zeros when nothing delivered.
    pub fn latency_percentiles(&self) -> (f64, f64, f64) {
        (
            self.latency_hist.quantile(0.50),
            self.latency_hist.quantile(0.90),
            self.latency_hist.quantile(0.99),
        )
    }

    /// `(p50, p90, p99)` delivered fidelity, read from the histogram
    /// (each within one bucket width — 0.01 — of the exact order
    /// statistic). Zeros when nothing delivered.
    pub fn fidelity_percentiles(&self) -> (f64, f64, f64) {
        (
            self.fidelity_hist.quantile(0.50),
            self.fidelity_hist.quantile(0.90),
            self.fidelity_hist.quantile(0.99),
        )
    }
}

/// The merged result of a sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-scenario aggregates, in scenario order.
    pub scenarios: Vec<RunRecord>,
    /// Worker threads spawned.
    pub threads_used: usize,
    /// Per-run records in deterministic (scenario-major) order.
    pub runs: Vec<RunRecord>,
}

impl SweepReport {
    /// Per-scenario latency and fidelity percentiles as CSV (one row
    /// per scenario): `scenario, delivered, latency p50/p90/p99 in
    /// seconds, fidelity p50/p90/p99, injected edge faults and
    /// repairs`. Deterministic: a pure function of the merged
    /// histograms and counters.
    pub fn percentile_csv(&self) -> String {
        let mut out = String::from(
            "scenario,delivered,latency_p50_s,latency_p90_s,latency_p99_s,\
             fidelity_p50,fidelity_p90,fidelity_p99,faults,repairs\n",
        );
        for s in &self.scenarios {
            let (l50, l90, l99) = s.latency_percentiles();
            let (f50, f90, f99) = s.fidelity_percentiles();
            let _ = writeln!(
                out,
                "{},{},{l50:.6},{l90:.6},{l99:.6},{f50:.6},{f90:.6},{f99:.6},{},{}",
                s.name, s.successes, s.faults, s.repairs
            );
        }
        out
    }

    /// Per-class open-loop service report as CSV, one row per
    /// (scenario, class): exact offered/admitted/dropped/completed/
    /// abandoned/queued/in-flight counts, offered and carried load in
    /// requests per simulated second, SLO-attainment fractions, and
    /// latency p50/p90/p99 plus queue-wait p99 read off the merged
    /// class histograms. Closed-loop scenarios (no workload) emit no
    /// rows. Deterministic: a pure function of the merged accounting.
    pub fn service_csv(&self) -> String {
        let mut out = String::from(
            "scenario,class,offered,admitted,dropped,completed,abandoned,queued,in_flight,\
             offered_per_s,carried_per_s,slo_latency,slo_fidelity,\
             latency_p50_s,latency_p90_s,latency_p99_s,queue_wait_p99_s\n",
        );
        for s in &self.scenarios {
            let per_sec = if s.open_loop_secs > 0.0 {
                1.0 / s.open_loop_secs
            } else {
                0.0
            };
            for c in &s.classes {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{},{},{:.6},{:.6},{:.4},{:.4},{:.6},{:.6},{:.6},{:.6}",
                    s.name,
                    c.name,
                    c.offered,
                    c.admitted,
                    c.dropped,
                    c.completed,
                    c.abandoned,
                    c.queued,
                    c.in_flight,
                    c.offered as f64 * per_sec,
                    c.completed as f64 * per_sec,
                    c.slo_latency_attainment(),
                    c.slo_fidelity_attainment(),
                    c.latency.quantile(0.50),
                    c.latency.quantile(0.90),
                    c.latency.quantile(0.99),
                    c.queue_wait.quantile(0.99),
                );
            }
        }
        out
    }

    /// Per-scenario throughput-vs-time as CSV: each scenario's merged
    /// delivery series re-binned into windows of `width` (closed at
    /// the last delivery, [`TimeSeries::binned`] semantics), one row
    /// per window: `scenario, window start in seconds, deliveries in
    /// the window, rate per second`. Closed-loop scenarios with no
    /// deliveries get a single zero row; open-loop scenarios (a
    /// workload) record no delivery series and emit no rows — their
    /// carried load is in [`SweepReport::service_csv`].
    ///
    /// # Panics
    /// Panics on a zero `width`.
    pub fn throughput_csv(&self, width: SimDuration) -> String {
        let mut out = String::from("scenario,window_start_s,deliveries,rate_per_s\n");
        let per_sec = 1.0 / width.as_secs_f64();
        for s in self.scenarios.iter().filter(|s| s.classes.is_empty()) {
            let end = s
                .deliveries
                .samples()
                .last()
                .map_or(SimTime::ZERO, |&(t, _)| t);
            for bin in s.deliveries.binned(width, end) {
                let _ = writeln!(
                    out,
                    "{},{:.6},{},{:.6}",
                    s.name,
                    bin.start.since(SimTime::ZERO).as_secs_f64(),
                    bin.count,
                    bin.count as f64 * per_sec
                );
            }
        }
        out
    }
}

/// Executes one (scenario, seed) cell of the matrix.
pub fn run_one(spec: &ScenarioSpec, seed: u64) -> RunRecord {
    run_cell(spec, seed, ModelCache::new())
}

/// [`run_one`] over the attempt models `models` already holds.
fn run_cell(spec: &ScenarioSpec, seed: u64, models: ModelCache) -> RunRecord {
    let mut net = Network::with_config(spec.topology(seed), seed, spec.net.clone(), models);
    // Event statistics start at the run boundary: construction
    // pre-schedules wakes and link cycles, and a queue reused across
    // runs keeps its counters through `clear()` (see
    // `EventQueue::reset_stats`), so `record.events` must re-base here.
    net.reset_event_stats();
    let mut record = RunRecord::new(&spec.name, 0, seed);
    record.runs = 1;
    if spec.net.workload.is_some() {
        // Open-loop: advance the clock once for the whole budget — the
        // workload engine issues and accounts every request itself.
        net.run_for(spec.max_time);
        let stats = net.workload_stats().expect("the config arms it");
        record.classes = stats.classes.clone();
        record.open_loop_secs = spec.max_time.as_secs_f64();
        // Project the per-class accounting onto the legacy scalar
        // fields so closed-loop report consumers keep working.
        record.rounds = u32::try_from(stats.total_admitted()).unwrap_or(u32::MAX);
        record.successes = u32::try_from(stats.total_completed()).unwrap_or(u32::MAX);
        record.timeouts = {
            let abandoned: u64 = stats.classes.iter().map(|c| c.abandoned).sum();
            u32::try_from(abandoned).unwrap_or(u32::MAX)
        };
        for c in &stats.classes {
            record.latency_hist.merge(&c.latency);
            record.fidelity_hist.merge(&c.fidelity);
        }
        record.pairs_consumed = (0..net.topology().edge_count())
            .map(|e| net.pairs_delivered(e))
            .sum();
    } else {
        let dst = net.topology().node_count() - 1;
        let streams = spec.streams.max(1);
        for _ in 0..spec.rounds {
            // A round's requests: explicit cross-traffic pairs when
            // given, else `streams` same-pair requests 0 → last. Under
            // EndToEnd a round is one logical request per pair (two
            // internal streams distilled into one delivered pair).
            let requests: Vec<u64> = if spec.pairs.is_empty() {
                if streams == 1 || spec.net.policy == Policy::EndToEndPurify {
                    vec![net.request_entanglement(0, dst, spec.fmin)]
                } else {
                    net.request_entanglement_multipath(0, dst, spec.fmin, streams as usize)
                }
            } else {
                spec.pairs
                    .iter()
                    .map(|&(src, dst)| net.request_entanglement(src, dst, spec.fmin))
                    .collect()
            };
            // Count attempts as issued, and only ever credit an outcome
            // to the round that issued its request: a stream aborting
            // on UNSUPP must not let a buffered outcome from an earlier
            // round double-count into this round's quota.
            record.rounds += requests.len() as u32;
            let mut pending: Vec<u64> = requests.clone();
            // One shared time budget per round, however many streams.
            let deadline = net.now() + spec.max_time;
            while !pending.is_empty() {
                let left = deadline.saturating_since(net.now());
                if left == SimDuration::ZERO {
                    break;
                }
                let Some(out) = net.run_until_outcome(left) else {
                    break;
                };
                let Some(at) = pending.iter().position(|&r| r == out.request) else {
                    continue; // an earlier round's stray outcome
                };
                pending.swap_remove(at);
                record.successes += 1;
                record.fidelity.push(out.end_to_end_fidelity);
                record.latency_s.push(out.latency.as_secs_f64());
                record.latency_hist.record(out.latency.as_secs_f64());
                record.fidelity_hist.record(out.end_to_end_fidelity);
                record.deliveries.push(out.delivered_at, 1.0);
                record.pairs_consumed += u64::from(out.pairs_consumed);
            }
            // Whatever did not make the budget timed out — whether the
            // network already abandoned it (retry budget exhausted) or
            // it was still limping along. Cancel is a no-op for the done.
            record.timeouts += pending.len() as u32;
            for request in requests {
                net.cancel_request(request);
            }
        }
    }
    record.reroutes = net.reroutes();
    record.events = net.events_fired();
    record.faults = net.faults();
    record.repairs = net.repairs();
    record
}

/// Fans `specs × seeds` across up to `threads` OS threads and merges
/// the results. The merge order is deterministic (scenario-major, then
/// seed order), so the report is independent of scheduling. Fan-out
/// uses at most one thread per job.
///
/// # Panics
/// Panics if `specs` or `seeds` is empty, or `threads == 0`.
pub fn sweep(specs: &[ScenarioSpec], seeds: &[u64], threads: usize) -> SweepReport {
    assert!(!specs.is_empty(), "no scenarios");
    assert!(!seeds.is_empty(), "no seeds");
    assert!(threads > 0, "no worker threads");

    let jobs: Vec<(usize, u64)> = specs
        .iter()
        .enumerate()
        .flat_map(|(si, _)| seeds.iter().map(move |&s| (si, s)))
        .collect();
    let workers = threads.min(jobs.len());
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<RunRecord>>> = Mutex::new(vec![None; jobs.len()]);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // One table per worker: a model is a pure function of
                // `(params, α)`, so the cells a worker happens to run
                // share theirs without any cross-thread traffic.
                let models = ModelCache::new();
                loop {
                    let job = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(si, seed)) = jobs.get(job) else {
                        break;
                    };
                    let mut record = run_cell(&specs[si], seed, models.clone());
                    record.scenario = si;
                    results.lock().expect("worker panicked holding results")[job] = Some(record);
                }
            });
        }
    });

    let runs: Vec<RunRecord> = results
        .into_inner()
        .expect("worker panicked holding results")
        .into_iter()
        .map(|r| r.expect("job not executed"))
        .collect();

    let scenarios = specs
        .iter()
        .enumerate()
        .map(|(si, spec)| {
            let mut stats = RunRecord::new(&spec.name, si, 0);
            for run in runs.iter().filter(|r| r.scenario == si) {
                stats.merge(run);
            }
            stats
        })
        .collect();

    SweepReport {
        scenarios,
        threads_used: workers,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_specs() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::lab_chain("1-hop", 2),
            ScenarioSpec::lab_chain("2-hop", 3).with_max_time(SimDuration::from_secs(25)),
        ]
    }

    #[test]
    fn sweep_covers_the_full_matrix() {
        let specs = tiny_specs();
        let report = sweep(&specs, &[1, 2], 2);
        assert_eq!(report.runs.len(), 4);
        assert_eq!(report.scenarios.len(), 2);
        assert_eq!(report.threads_used, 2);
        for s in &report.scenarios {
            assert_eq!(s.runs, 2);
        }
        // Deterministic order: scenario-major, then seed order.
        let order: Vec<(usize, u64)> = report.runs.iter().map(|r| (r.scenario, r.seed)).collect();
        assert_eq!(order, vec![(0, 1), (0, 2), (1, 1), (1, 2)]);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let specs = vec![ScenarioSpec::lab_chain("1-hop", 2)];
        let seeds = [3, 4, 5];
        let serial = sweep(&specs, &seeds, 1);
        let parallel = sweep(&specs, &seeds, 3);
        assert_eq!(serial.threads_used, 1);
        assert!(parallel.threads_used >= 2);
        for (a, b) in serial.runs.iter().zip(&parallel.runs) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.events, b.events, "seed {}: event counts diverged", a.seed);
            assert_eq!(a.fidelity.mean().to_bits(), b.fidelity.mean().to_bits());
            assert_eq!(a.latency_s.mean().to_bits(), b.latency_s.mean().to_bits());
        }
    }

    #[test]
    fn report_emits_percentiles_and_throughput_csv() {
        let specs = vec![ScenarioSpec::lab_chain("1-hop", 2).with_rounds(3)];
        let report = sweep(&specs, &[1, 2], 2);
        let s = &report.scenarios[0];
        assert!(s.successes > 0, "the 1-hop lab chain delivers");
        assert_eq!(s.latency_hist.count(), u64::from(s.successes));
        assert_eq!(s.fidelity_hist.count(), u64::from(s.successes));
        assert_eq!(s.deliveries.len(), s.successes as usize);
        let (p50, p90, p99) = s.latency_percentiles();
        assert!(p50 <= p90 && p90 <= p99);
        let pcsv = report.percentile_csv();
        assert_eq!(pcsv.lines().count(), 2, "header + one scenario row");
        assert!(pcsv.starts_with("scenario,delivered,latency_p50_s"));
        assert!(pcsv.contains("1-hop,"));
        let tcsv = report.throughput_csv(SimDuration::from_secs(1));
        assert!(tcsv.starts_with("scenario,window_start_s,deliveries,rate_per_s"));
        // Window counts re-add to the delivered total.
        let total: u64 = tcsv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(2).unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, u64::from(s.successes));
    }

    #[test]
    fn workers_capped_by_job_count() {
        let specs = vec![ScenarioSpec::lab_chain("1-hop", 2)];
        let report = sweep(&specs, &[9], 8);
        assert_eq!(report.threads_used, 1);
    }
}

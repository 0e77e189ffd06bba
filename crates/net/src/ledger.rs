//! The request ledger: who owns a request's resources.
//!
//! One table holds every request on the network's books, one record
//! each: the terms it was issued under ([`AttemptSeed`]), among them
//! the [`Owner`] its outcome or abandonment is reported to, and — unless it
//! is parked between a failed attempt and its re-issue — the attempt in
//! flight: its path, one record per hop, one installed rule table per
//! path node (its reservation there), and the entangled segments the
//! swaps merge until one spans the path. The CREATEs it has queued
//! inside links are indexed by key beside the table. An edge's load and
//! a node's reservations are read off the table, never kept beside it.
//!
//! Nothing outside this file can name the tables. An attempt enters by
//! [`Ledger::issue`] and leaves by the one exit, [`Ledger::teardown`];
//! in between, observations are booked against it and answered with a
//! small value saying what the network must now send.

use crate::engine::CreateKey;
use crate::obs::{SpanStage, Telemetry};
use crate::ruleset::{ArmProgram, FiredRule, NodeAction, Obs, PathRole, RuleSet, RuleState};
use crate::topology::{Edge, Topology};
use qlink_des::{DetRng, IntMap, SimDuration, SimTime};
use qlink_quantum::bell::{bell_fidelity, werner_from_fidelity, BellState};
use qlink_quantum::ops::entanglement_swap;
use qlink_quantum::purify::distill_werner;
use qlink_quantum::{channels, gates, QuantumState};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One delivered end-to-end entanglement.
#[derive(Debug, Clone)]
pub struct EndToEndOutcome {
    /// The request this outcome serves.
    pub request: u64,
    /// Node path, source first.
    pub path: Vec<usize>,
    /// Delivered link fidelity per path edge, in path order.
    pub link_fidelities: Vec<f64>,
    /// Fidelity of the end-to-end pair after all swaps and the full
    /// simulated memory decay.
    pub end_to_end_fidelity: f64,
    /// True simulated latency: CREATE submission to the instant both
    /// ends hold a usable pair (last swap result received).
    pub latency: SimDuration,
    /// Global time of completion.
    pub delivered_at: SimTime,
    /// Number of entanglement swaps performed.
    pub swaps: u32,
    /// Accumulated Pauli-Z parity of the swaps' Bell-measurement
    /// outcomes. **Already applied**: the correction is folded into
    /// the delivered state (and thus `end_to_end_fidelity`) at swap
    /// time; these bits record the classical information that had to
    /// reach the ends, they are *not* a pending correction to apply.
    pub frame_z: u8,
    /// Accumulated Pauli-X parity; already applied, see
    /// [`EndToEndOutcome::frame_z`].
    pub frame_x: u8,
    /// `true` when this pair is the survivor of a 2→1 distillation
    /// (link-level purification boosts the figures in
    /// [`EndToEndOutcome::link_fidelities`] instead and leaves this
    /// `false`; end-to-end purification merges two whole streams and
    /// sets it).
    pub distilled: bool,
    /// Link pairs the link layers delivered to produce this outcome —
    /// 1 per edge without purification, 2 per distillation attempt
    /// (rejected parities included) with it. The pair cost of the
    /// delivered fidelity.
    pub pairs_consumed: u32,
    /// Raw delivered fidelity of every link pair per path edge, in
    /// delivery order — under link-level purification these are the
    /// *inputs* to the per-edge distillations whose outputs appear in
    /// [`EndToEndOutcome::link_fidelities`]. Without purification each
    /// edge has exactly one entry, equal to its `link_fidelities`
    /// figure.
    pub pair_fidelities: Vec<Vec<f64>>,
}

/// One contiguous entangled segment of a path (initially one link
/// pair; swaps merge adjacent segments until one spans the path).
/// Qubit 0 of `state` lives at node `a`, qubit 1 at node `b`; both
/// halves sit in carbon memories and decay with the `(T1, T2)` of
/// their node's hardware.
#[derive(Debug, Clone)]
struct Segment {
    a: usize,
    b: usize,
    state: QuantumState,
    decay_a: (f64, f64),
    decay_b: (f64, f64),
    updated: SimTime,
}

impl Segment {
    /// A Werner pair of `fidelity` across `a – b` — the one-parameter
    /// model a network layer tracks per link.
    fn werner(a: usize, b: usize, fidelity: f64, decay: [(f64, f64); 2], t: SimTime) -> Self {
        Segment {
            a,
            b,
            state: werner_from_fidelity(BellState::PhiPlus, fidelity),
            decay_a: decay[0],
            decay_b: decay[1],
            updated: t,
        }
    }

    /// Reverses the segment's orientation (qubit order and metadata).
    fn flip(&mut self) {
        self.state.apply_unitary(&gates::swap(), &[0, 1]);
        std::mem::swap(&mut self.a, &mut self.b);
        std::mem::swap(&mut self.decay_a, &mut self.decay_b);
    }

    /// Applies carbon-memory decoherence from `updated` to `t`.
    fn decay_to(&mut self, t: SimTime) {
        let dt = t.saturating_since(self.updated).as_secs_f64();
        if dt > 0.0 {
            let (t1a, t2a) = self.decay_a;
            let (t1b, t2b) = self.decay_b;
            self.state
                .apply_kraus(&channels::t1t2_decay(dt, t1a, t2a), &[0]);
            self.state
                .apply_kraus(&channels::t1t2_decay(dt, t1b, t2b), &[1]);
        }
        self.updated = t;
    }

    /// Fidelity to `|Φ+⟩` after decaying to `t`.
    fn fidelity_at(&mut self, t: SimTime) -> f64 {
        self.decay_to(t);
        bell_fidelity(&self.state, (0, 1), BellState::PhiPlus)
    }
}

/// One edge of an attempt's path.
#[derive(Debug)]
struct Hop {
    edge: usize,
    /// The compiled initial pair need (regeneration after that is
    /// demand-driven — [`Ledger::take_create_demand`]).
    need: u8,
    /// The edge's link fidelity: the delivered pair's, overwritten by a
    /// link-level distillation with its output.
    fidelity: Option<f64>,
    /// A distillation has consumed this edge's pairs and its parity
    /// exchange is in flight (or succeeded — cleared only by a reject,
    /// which regenerates).
    purify_pending: bool,
    /// Raw delivered fidelities, in delivery order.
    pair_fidelities: Vec<f64>,
}

/// One attempt at a request: the reserved path, its nodes' rule
/// tables and the pairs on it.
#[derive(Debug)]
pub(crate) struct Attempt {
    path: Vec<usize>,
    /// Per path edge, in path order (`hops[i]` joins `path[i]` and
    /// `path[i + 1]`, and `path[i]` submits its CREATEs).
    hops: Vec<Hop>,
    /// Per path node, in path order: `rules[i]` is `path[i]`'s
    /// reservation.
    rules: Vec<RuleState>,
    segments: Vec<Segment>,
    ends_ready: [bool; 2],
    frame: (u8, u8),
    swaps: u32,
    /// Link pairs delivered for this attempt so far.
    pairs_consumed: u32,
}

impl Attempt {
    /// Node path, source first.
    pub(crate) fn path(&self) -> &[usize] {
        &self.path
    }

    /// The path's edges, in path order.
    pub(crate) fn edges(&self) -> impl Iterator<Item = usize> + '_ {
        self.hops.iter().map(|h| h.edge)
    }

    /// The edge `path[pos]` submits CREATEs on, and how many it starts
    /// with: the compiled program's pair need (one pair normally, two
    /// when it distills).
    pub(crate) fn create_site(&self, pos: usize) -> (usize, u8) {
        (self.hops[pos].edge, self.hops[pos].need)
    }

    /// The path position of `node`.
    pub(crate) fn position(&self, node: usize) -> Option<usize> {
        self.path.iter().position(|&n| n == node)
    }

    /// One hop from `from` toward `target` (both on the path): the next
    /// node and the path edge that leads there.
    pub(crate) fn step_toward(&self, from: usize, target: usize) -> (usize, usize) {
        let pos = self.position(from).expect("off-path sender");
        let tpos = self.position(target).expect("off-path target");
        debug_assert_ne!(pos, tpos);
        if tpos > pos {
            (self.path[pos + 1], self.hops[pos].edge)
        } else {
            (self.path[pos - 1], self.hops[pos - 1].edge)
        }
    }

    fn hop_on(&mut self, edge: usize) -> Option<&mut Hop> {
        self.hops.iter_mut().find(|h| h.edge == edge)
    }

    /// Removes and returns the first segment touching `node`.
    fn take_segment_at(&mut self, node: usize) -> Option<Segment> {
        let i = self
            .segments
            .iter()
            .position(|s| s.a == node || s.b == node)?;
        Some(self.segments.swap_remove(i))
    }
}

/// Who a request answers to: where its outcome goes when it delivers,
/// and who is told when it never will.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Owner {
    /// The API caller that issued it: its outcome is buffered for
    /// `Network::take_outcomes`.
    Caller,
    /// An arrival of the open-loop workload: its class's accounting,
    /// and the admission slot it holds.
    Workload { class: usize, arrived_at: SimTime },
    /// A member stream of the end-to-end distillation group with this
    /// id: its pair goes to the group, which answers to its own owner.
    Group(u64),
}

/// The retry/identity state a request runs under — set at issue from
/// the network's terms, and carried forward (with `attempt` bumped and the failed edges
/// excluded) each time the re-route machinery re-issues it.
#[derive(Debug, Clone)]
pub(crate) struct AttemptSeed {
    pub(crate) src: usize,
    pub(crate) dst: usize,
    pub(crate) fmin: f64,
    /// Re-issues left before a failed attempt abandons the request.
    pub(crate) retries_left: u32,
    /// Edges barred from future re-plans (every failed attempt adds
    /// the edges it implicates).
    pub(crate) excluded: Vec<usize>,
    /// Issue time of the *first* attempt (latency is measured from
    /// here across every re-route).
    pub(crate) requested_at: SimTime,
    /// Who the request answers to.
    pub(crate) owner: Owner,
    /// Attempt number, starting at 0; a request timeout carrying an
    /// older number is stale and ignored.
    pub(crate) attempt: u64,
}

impl AttemptSeed {
    /// The seed of the next attempt after a failure that implicates
    /// `failed` edges.
    fn after_failure(mut self, failed: impl Iterator<Item = usize>) -> Self {
        for e in failed {
            if !self.excluded.contains(&e) {
                self.excluded.push(e);
            }
        }
        self.retries_left -= 1;
        self.attempt += 1;
        self
    }
}

/// One request on the books. `attempt` is `None` while the request is
/// parked between a failed attempt and its re-issue: it then holds no
/// reservation and no CREATE.
#[derive(Debug)]
struct Request {
    seed: AttemptSeed,
    attempt: Option<Attempt>,
}

/// An end-to-end 2→1 distillation in progress: two concurrent streams
/// whose delivered pairs the path ends merge into one.
#[derive(Debug)]
struct PairGroup {
    /// Current live (or just-completed) member request ids.
    members: [u64; 2],
    /// Who the group id answers to.
    owner: Owner,
    /// What member streams are issued under (owned by the group): a
    /// regenerated member starts from it, with a fresh retry budget
    /// like the originals.
    template: AttemptSeed,
    /// Completed streams, parked (still decaying) until both are in:
    /// the outcome each would have delivered alone (whose path a
    /// rejected parity regenerates on), and its pair.
    done: Vec<(EndToEndOutcome, Segment)>,
    /// Swaps and pairs across every attempt, rejected ones included.
    swaps: u32,
    pairs_consumed: u32,
}

/// What [`Ledger::teardown`] took off the books.
#[derive(Debug)]
pub(crate) struct Ended {
    pub(crate) seed: AttemptSeed,
    pub(crate) attempt: Attempt,
    /// The CREATEs the attempt still had queued inside links, in key
    /// order: the network owes each submitting endpoint a retraction
    /// notice.
    pub(crate) retract: Vec<CreateKey>,
}

/// What a completed attempt amounts to ([`Ledger::complete`]).
pub(crate) enum Completion {
    /// A request of its own: deliver the outcome to `owner` (closing
    /// attempt number `attempt`'s span).
    Deliver {
        outcome: EndToEndOutcome,
        attempt: u64,
        owner: Owner,
    },
    /// The first stream of its distillation group: the pair waits.
    Waiting,
    /// The second stream: the path ends measured both pairs, and the
    /// parity bits need `delay` to cross the (slower) path's control
    /// channels before node `at` learns the verdict.
    Verdict {
        group: u64,
        accepted: bool,
        at: usize,
        delay: SimDuration,
    },
}

/// What an end-to-end distillation's verdict asks of the network
/// ([`Ledger::group_verdict`]).
pub(crate) enum GroupVerdict {
    /// Agreeing parity: the surviving boosted pair, for the group's
    /// owner.
    Deliver(EndToEndOutcome, Owner),
    /// Disagreement: both pairs are lost; issue a fresh stream on each
    /// member's route (in member order) under `template` and report
    /// them ([`Ledger::set_group_members`]).
    Regenerate {
        routes: [Vec<usize>; 2],
        template: AttemptSeed,
    },
}

/// Per-run and per-edge tallies, written only by the ledger.
#[derive(Debug)]
pub(crate) struct Counters {
    /// Attempts re-planned and re-issued after a failure.
    pub(crate) reroutes: u64,
    /// Requests abandoned.
    pub(crate) abandoned: u64,
    /// NL pairs delivered for network requests, per edge.
    pub(crate) pairs_delivered: Vec<u64>,
    /// Link-level distillations attempted / accepted, per edge.
    pub(crate) purify_attempts: Vec<u64>,
    pub(crate) purify_successes: Vec<u64>,
}

/// Every request on the books and everything it holds.
pub(crate) struct Ledger {
    /// By request id. Ordered: a fault fails the requests riding an
    /// edge in iteration order.
    requests: BTreeMap<u64, Request>,
    groups: IntMap<u64, PairGroup>,
    /// CREATEs queued inside links → the owning request and the
    /// submission instant. Ordered: retraction notices are scheduled in
    /// iteration order.
    pending_creates: BTreeMap<CreateKey, (u64, SimTime)>,
    /// The rules the last observation fired, drained into telemetry.
    fired: Vec<FiredRule>,
    next_request: u64,
    counters: Counters,
    /// Bell-measurement outcomes of the swaps.
    swap_rng: DetRng,
    /// Parity checks of the distillations.
    purify_rng: DetRng,
}

fn attempt_mut(requests: &mut BTreeMap<u64, Request>, request: u64) -> Option<&mut Attempt> {
    requests.get_mut(&request)?.attempt.as_mut()
}

/// The attempt number `request` is on, as spans are stamped — 0 once
/// its in-flight state is gone.
fn attempt_of(requests: &BTreeMap<u64, Request>, request: u64) -> u64 {
    match requests.get(&request) {
        Some(r) if r.attempt.is_some() => r.seed.attempt,
        _ => 0,
    }
}

impl Ledger {
    pub(crate) fn new(seed: u64, edges: usize) -> Self {
        Ledger {
            requests: BTreeMap::new(),
            groups: IntMap::default(),
            pending_creates: BTreeMap::new(),
            fired: Vec::new(),
            next_request: 0,
            counters: Counters {
                reroutes: 0,
                abandoned: 0,
                pairs_delivered: vec![0; edges],
                purify_attempts: vec![0; edges],
                purify_successes: vec![0; edges],
            },
            swap_rng: DetRng::new(seed).substream("net/swap"),
            purify_rng: DetRng::new(seed).substream("net/purify"),
        }
    }

    // ---- reading the books -------------------------------------------

    /// The terms and the attempt of a request with one in flight.
    pub(crate) fn in_flight(&self, request: u64) -> Option<(&AttemptSeed, &Attempt)> {
        let r = self.requests.get(&request)?;
        Some((&r.seed, r.attempt.as_ref()?))
    }

    /// Who `id` answers to: a request on the books (parked or in
    /// flight) or an open distillation group.
    pub(crate) fn owner(&self, id: u64) -> Option<Owner> {
        let group = || self.groups.get(&id).map(|g| g.owner);
        self.requests.get(&id).map(|r| r.seed.owner).or_else(group)
    }

    /// The attempt number `request`'s spans are stamped with.
    pub(crate) fn attempt_of(&self, request: u64) -> u64 {
        attempt_of(&self.requests, request)
    }

    pub(crate) fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The reservations `node` holds — one per in-flight attempt whose
    /// path visits it — as `(request, role)` in ascending id order.
    pub(crate) fn reservations_at(&self, node: usize) -> Vec<(u64, PathRole)> {
        let reservation = |(&id, r): (&u64, &Request)| {
            let att = r.attempt.as_ref()?;
            Some((id, att.rules[att.position(node)?].role()))
        };
        self.requests.iter().filter_map(reservation).collect()
    }

    fn hops(&self) -> impl Iterator<Item = &Hop> {
        let attempts = self.requests.values().filter_map(|r| r.attempt.as_ref());
        attempts.flat_map(|a| &a.hops)
    }

    /// In-flight path reservations crossing `edge`.
    pub(crate) fn edge_load(&self, edge: usize) -> u32 {
        self.hops().filter(|h| h.edge == edge).count() as u32
    }

    /// [`Ledger::edge_load`] of each of `edges` edges, into `loads`.
    pub(crate) fn edge_loads_into(&self, edges: usize, loads: &mut Vec<u32>) {
        loads.clear();
        loads.resize(edges, 0);
        for h in self.hops() {
            loads[h.edge] += 1;
        }
    }

    /// The requests with an attempt riding `edge`, in id order.
    pub(crate) fn riders(&self, edge: usize) -> Vec<u64> {
        let rides = |r: &Request| {
            r.attempt
                .as_ref()
                .is_some_and(|a| a.edges().any(|e| e == edge))
        };
        let riders = self.requests.iter().filter(|(_, r)| rides(r));
        riders.map(|(&id, _)| id).collect()
    }

    // ---- a request's life --------------------------------------------

    /// A request id never used before.
    pub(crate) fn new_id(&mut self) -> u64 {
        let id = self.next_request;
        self.next_request += 1;
        id
    }

    /// Puts attempt number `seed.attempt` of `request` on the books,
    /// over `path` and its `edges`: installs the compiled `rules` and
    /// per-edge programs (purification rounds, chosen against
    /// `est_fidelity` of each edge) for every path node. The path
    /// visits each node once.
    pub(crate) fn issue(
        &mut self,
        request: u64,
        path: Vec<usize>,
        edges: &[usize],
        rules: &Arc<RuleSet>,
        mut est_fidelity: impl FnMut(usize) -> f64,
        seed: AttemptSeed,
    ) {
        let programs: Vec<ArmProgram> = edges
            .iter()
            .map(|&e| rules.edge_program(est_fidelity(e)))
            .collect();
        let repeaters = (path.len() - 2) as u32;
        let install = |i: usize| {
            let (role, left, right) = if i == 0 || i == path.len() - 1 {
                // An end's single edge: the path's first, or its last.
                let pos = i.saturating_sub(1);
                let role = PathRole::End {
                    edge: edges[pos],
                    expected_swaps: repeaters,
                };
                (role, programs[pos], ArmProgram::default())
            } else {
                let role = PathRole::Repeater {
                    left: edges[i - 1],
                    right: edges[i],
                };
                (role, programs[i - 1], programs[i])
            };
            RuleState::new(rules.clone(), role, left, right)
        };
        let rules = (0..path.len()).map(install).collect();
        let hops = edges
            .iter()
            .zip(&programs)
            .map(|(&edge, program)| Hop {
                edge,
                need: program.need(),
                fidelity: None,
                purify_pending: false,
                pair_fidelities: Vec::new(),
            })
            .collect();
        let attempt = Some(Attempt {
            path,
            hops,
            rules,
            segments: Vec::new(),
            ends_ready: [false; 2],
            frame: (0, 0),
            swaps: 0,
            pairs_consumed: 0,
        });
        self.requests.insert(request, Request { seed, attempt });
    }

    /// The one exit — the only place an attempt leaves the books, its
    /// node reservations with it: hands back whatever CREATEs it still
    /// has queued inside links (none, for a delivered
    /// request). Delivery, failure, and cancellation all end here, so
    /// [`Ledger::edge_load`] tracks the links' true backlog whatever
    /// ended the attempt. The request's record goes with it; `None`
    /// when it had no attempt in flight (a parked request is dropped
    /// all the same — its pending re-issue then finds nothing).
    pub(crate) fn teardown(&mut self, request: u64) -> Option<Ended> {
        let Request { seed, attempt } = self.requests.remove(&request)?;
        let attempt = attempt?;
        let retract: Vec<CreateKey> = self
            .pending_creates
            .iter()
            .filter_map(|(k, &(r, _))| (r == request).then_some(*k))
            .collect();
        for key in &retract {
            self.pending_creates.remove(key);
        }
        Some(Ended {
            seed,
            attempt,
            retract,
        })
    }

    /// Keeps a failed request on the books, without an attempt, until
    /// its re-issue: the next attempt's seed excludes the edges the
    /// failure implicates — `failed_edge` when known, the whole failed
    /// path on a timeout. The caller has checked a retry is left.
    pub(crate) fn park(&mut self, request: u64, ended: Ended, failed_edge: Option<usize>) {
        self.counters.reroutes += 1;
        let seed = match failed_edge {
            Some(e) => ended.seed.after_failure(std::iter::once(e)),
            None => ended.seed.after_failure(ended.attempt.edges()),
        };
        let attempt = None;
        self.requests.insert(request, Request { seed, attempt });
    }

    /// Keeps a fresh request no route serves yet on the books, without
    /// an attempt, until its first plan. No attempt failed, so no
    /// re-route is counted.
    pub(crate) fn park_fresh(&mut self, request: u64, seed: AttemptSeed) {
        let attempt = None;
        self.requests.insert(request, Request { seed, attempt });
    }

    /// Takes a parked request off the books for re-issue; `None` if it
    /// was cancelled while parked.
    pub(crate) fn unpark(&mut self, request: u64) -> Option<AttemptSeed> {
        if self.requests.get(&request)?.attempt.is_some() {
            return None;
        }
        self.requests.remove(&request).map(|r| r.seed)
    }

    /// Counts a request that will never deliver.
    pub(crate) fn count_abandoned(&mut self) {
        self.counters.abandoned += 1;
    }

    // ---- CREATEs queued inside links ---------------------------------

    /// `request` submitted CREATE `key` at `now`.
    pub(crate) fn record_create(&mut self, key: CreateKey, request: u64, now: SimTime) {
        self.pending_creates.insert(key, (request, now));
    }

    /// The link answered CREATE `key` (a pair, or a terminal
    /// rejection): its owner and submission instant. `None` for
    /// link-local traffic or a CREATE already retracted.
    pub(crate) fn claim_create(&mut self, key: CreateKey) -> Option<(u64, SimTime)> {
        self.pending_creates.remove(&key)
    }

    /// `edge`'s link was rebuilt: bookkeeping into the old incarnation
    /// dies with it. Queued CREATEs can never be served, and dropping
    /// their keys keeps them from colliding with the rebuilt link's
    /// fresh create ids.
    pub(crate) fn forget_creates_on(&mut self, edge: usize) {
        self.pending_creates.retain(|k, _| k.0 != edge);
    }

    // ---- observations booked against an attempt ----------------------

    /// Feeds `request`'s rule table at `node` one observation and
    /// surfaces the rules it fired as [`SpanStage::RuleFired`] spans.
    /// `None`, firing nothing, when `request` has no attempt in flight
    /// or its path does not visit `node`. The firing log is always
    /// drained (the table logs unconditionally, so its decision path is
    /// identical either way), but spans are only emitted when telemetry
    /// is on — recording stays passive.
    pub(crate) fn observe(
        &mut self,
        request: u64,
        node: usize,
        obs: Obs,
        t: SimTime,
        telemetry: Option<&mut Telemetry>,
    ) -> Option<NodeAction> {
        let action = attempt_mut(&mut self.requests, request).and_then(|att| {
            let pos = att.position(node)?;
            att.rules[pos].observe(request, obs, &mut self.fired)
        });
        let fired = self.fired.drain(..);
        if let Some(tl) = telemetry {
            for f in fired {
                let (rule, action) = (f.rule, f.action);
                let attempt = attempt_of(&self.requests, f.request);
                tl.emit(t, f.request, attempt, SpanStage::RuleFired { rule, action });
            }
        }
        action
    }

    /// Books a link pair of `fidelity` delivered on `edge` (index
    /// `edge_idx`) at `t`; `false` when `request` has no attempt in
    /// flight.
    pub(crate) fn add_pair(
        &mut self,
        request: u64,
        edge_idx: usize,
        edge: &Edge,
        fidelity: f64,
        t: SimTime,
    ) -> bool {
        let Some(att) = attempt_mut(&mut self.requests, request) else {
            return false;
        };
        att.pairs_consumed += 1;
        self.counters.pairs_delivered[edge_idx] += 1;
        if let Some(hop) = att.hop_on(edge_idx) {
            hop.pair_fidelities.push(fidelity);
            // Under link-level purification this is provisional: the
            // distillation overwrites it with its output.
            hop.fidelity = Some(fidelity);
        }
        let nv = &edge.link.scenario.nv;
        let decay = [(nv.carbon_t1, nv.carbon_t2); 2];
        att.segments
            .push(Segment::werner(edge.a, edge.b, fidelity, decay, t));
        true
    }

    /// Executes a link-level 2→1 distillation on the quantum ledger:
    /// consumes the two pairs on the edge joining `ea` and `eb`, and
    /// draws the parity check from the closed-form success probability
    /// of their Werner fidelities; on an agreeing parity the boosted
    /// pair replaces the two inputs, on a reject both are lost. Both
    /// endpoints arm the rule in the same delivery instant; the first
    /// arrival does the work and gets the verdict, the
    /// `purify_pending` latch absorbs the second (`None`).
    pub(crate) fn purify(
        &mut self,
        request: u64,
        edge_idx: usize,
        (ea, eb): (usize, usize),
        t: SimTime,
    ) -> Option<bool> {
        let att = attempt_mut(&mut self.requests, request)?;
        let hop = att.hop_on(edge_idx).expect("purify on an off-path edge");
        if hop.purify_pending {
            return None;
        }
        hop.purify_pending = true;
        let on_edge = |s: &Segment| (s.a == ea && s.b == eb) || (s.a == eb && s.b == ea);
        let i2 = att
            .segments
            .iter()
            .rposition(on_edge)
            .expect("purify without a second pair");
        let mut s2 = att.segments.remove(i2);
        let i1 = att
            .segments
            .iter()
            .position(on_edge)
            .expect("purify without a first pair");
        debug_assert!(i1 < i2, "distinct pairs");
        let mut s1 = att.segments.remove(i1);
        // Each pair's current fidelity is read off the ledger (memory
        // decay included) and fed to the DEJMPS formulas.
        let f1 = s1.fidelity_at(t).clamp(0.25, 1.0);
        let f2 = s2.fidelity_at(t).clamp(0.25, 1.0);
        let out = distill_werner(f1, f2);
        let accepted = self.purify_rng.bernoulli(out.success_probability);
        self.counters.purify_attempts[edge_idx] += 1;
        if accepted {
            self.counters.purify_successes[edge_idx] += 1;
            att.hop_on(edge_idx).expect("found above").fidelity = Some(out.output_fidelity);
            let decay = [s1.decay_a, s1.decay_b];
            att.segments
                .push(Segment::werner(s1.a, s1.b, out.output_fidelity, decay, t));
        }
        Some(accepted)
    }

    /// The fresh pairs the rule table of `request` at node `at` now
    /// demands on `edge` (one to pump an accepted round, the program's
    /// full need after a reject, zero when the program completed), as
    /// `(path position, count)`. Only the endpoint that submits the
    /// edge's CREATEs restarts generation: its partner drains an
    /// identical demand and gets `None`.
    pub(crate) fn take_create_demand(
        &mut self,
        request: u64,
        at: usize,
        edge: usize,
    ) -> Option<(usize, u8)> {
        let att = attempt_mut(&mut self.requests, request)?;
        let demand = att
            .position(at)
            .map_or(0, |i| att.rules[i].take_demand(edge));
        let pos = att.hops.iter().position(|h| h.edge == edge)?;
        if att.path[pos] != at || demand == 0 {
            return None;
        }
        att.hops[pos].purify_pending = false;
        Some((pos, demand))
    }

    /// Executes repeater `node`'s entanglement swap on the quantum
    /// ledger; returns the Bell-measurement bits `(z, x)` both path
    /// ends must learn.
    pub(crate) fn swap(&mut self, request: u64, node: usize, t: SimTime) -> Option<(u8, u8)> {
        let att = attempt_mut(&mut self.requests, request)?;
        let mut s1 = att
            .take_segment_at(node)
            .expect("swap without a left segment");
        let mut s2 = att
            .take_segment_at(node)
            .expect("swap without a right segment");
        // Orient [far1 .. node][node .. far2].
        if s1.a == node {
            s1.flip();
        }
        if s2.b == node {
            s2.flip();
        }
        // Catch both halves' memories up to the swap instant.
        s1.decay_to(t);
        s2.decay_to(t);
        // Register [far1, node, node, far2]: BSM on the middle two,
        // Pauli correction folded onto far2.
        let mut joint = s1.state.tensor(&s2.state);
        let outcome = entanglement_swap(&mut joint, 1, 2, 3, &mut self.swap_rng);
        att.segments.push(Segment {
            a: s1.a,
            b: s2.b,
            state: joint.partial_trace(&[0, 3]),
            decay_a: s1.decay_a,
            decay_b: s2.decay_b,
            updated: t,
        });
        att.swaps += 1;
        Some((outcome.z_bit, outcome.x_bit))
    }

    /// Path end `node` holds its half and every swap result, with the
    /// accumulated Pauli `frame`; `true` once both ends do.
    pub(crate) fn end_ready(&mut self, request: u64, node: usize, frame: (u8, u8)) -> bool {
        let Some(att) = attempt_mut(&mut self.requests, request) else {
            return false;
        };
        let side = if node == att.path[0] { 0 } else { 1 };
        att.ends_ready[side] = true;
        att.frame = frame;
        att.ends_ready == [true; 2]
    }

    /// Books the attempt [`Ledger::teardown`] just `ended` as complete
    /// at `t`: builds the outcome it delivers — alone, or, for a
    /// stream of an end-to-end distillation group, parked (the pair
    /// keeps decaying in memory) until its partner is in too, when the
    /// path ends measure both pairs.
    pub(crate) fn complete(
        &mut self,
        request: u64,
        ended: Ended,
        t: SimTime,
        topo: &Topology,
    ) -> Completion {
        let Ended { seed, attempt, .. } = ended;
        debug_assert_eq!(attempt.segments.len(), 1, "completion with fragmented path");
        let mut seg = attempt
            .segments
            .into_iter()
            .next()
            .expect("spanning segment");
        let (mut link_fidelities, mut pair_fidelities) = (Vec::new(), Vec::new());
        for hop in attempt.hops {
            link_fidelities.push(
                hop.fidelity
                    .expect("complete path with missing link fidelity"),
            );
            pair_fidelities.push(hop.pair_fidelities);
        }
        let outcome = EndToEndOutcome {
            request,
            path: attempt.path,
            link_fidelities,
            // The pair keeps decaying until the later end learned its
            // Pauli frame — only then is the entanglement usable.
            end_to_end_fidelity: seg.fidelity_at(t),
            latency: t.since(seed.requested_at),
            delivered_at: t,
            swaps: attempt.swaps,
            frame_z: attempt.frame.0,
            frame_x: attempt.frame.1,
            distilled: false,
            pairs_consumed: attempt.pairs_consumed,
            pair_fidelities,
        };
        let Owner::Group(group) = seed.owner else {
            let (attempt, owner) = (seed.attempt, seed.owner);
            return Completion::Deliver {
                outcome,
                attempt,
                owner,
            };
        };
        let Some(g) = self.groups.get_mut(&group) else {
            return Completion::Waiting; // group cancelled; the stream's pair is dropped
        };
        g.swaps += outcome.swaps;
        g.pairs_consumed += outcome.pairs_consumed;
        g.done.push((outcome, seg));
        if g.done.len() < 2 {
            return Completion::Waiting;
        }
        let mut fids = [0.0; 2];
        for (f, (_, seg)) in fids.iter_mut().zip(&mut g.done) {
            *f = seg.fidelity_at(t).clamp(0.25, 1.0);
        }
        let out = distill_werner(fids[0], fids[1]);
        let accepted = self.purify_rng.bernoulli(out.success_probability);
        if accepted {
            // The kept stream's pair becomes the distilled output.
            let kept = &mut g.done[0].1;
            kept.state = werner_from_fidelity(BellState::PhiPlus, out.output_fidelity);
            kept.updated = t;
        }
        let delay = g
            .done
            .iter()
            .map(|(o, _)| topo.path_control_delay(&o.path))
            .max()
            .expect("two members");
        let at = g.done[0].0.path[0];
        Completion::Verdict {
            group,
            accepted,
            at,
            delay,
        }
    }

    // ---- end-to-end distillation groups ------------------------------

    /// Opens group `group`, answering to `owner`, over two streams just
    /// issued under `template` (owned by the group).
    pub(crate) fn open_group(
        &mut self,
        group: u64,
        members: [u64; 2],
        template: AttemptSeed,
        owner: Owner,
    ) {
        let group_record = PairGroup {
            members,
            owner,
            template,
            done: Vec::new(),
            swaps: 0,
            pairs_consumed: 0,
        };
        self.groups.insert(group, group_record);
    }

    /// Takes `group` off the books (it never will deliver); returns
    /// its current member streams.
    pub(crate) fn close_group(&mut self, group: u64) -> Option<[u64; 2]> {
        self.groups.remove(&group).map(|g| g.members)
    }

    /// The verdict of `group`'s distillation reached the ends at `t`:
    /// an agreeing parity closes the group over the surviving pair
    /// (which decayed while the parity bits travelled); a disagreement
    /// discards both streams' pairs.
    pub(crate) fn group_verdict(
        &mut self,
        group: u64,
        accepted: bool,
        t: SimTime,
    ) -> Option<GroupVerdict> {
        if !accepted {
            let g = self.groups.get_mut(&group)?;
            let mut done = std::mem::take(&mut g.done);
            if done[0].0.request != g.members[0] {
                done.swap(0, 1);
            }
            let mut paths = done.into_iter().map(|(outcome, _)| outcome.path);
            let mut next = || paths.next().expect("both members done");
            return Some(GroupVerdict::Regenerate {
                routes: [next(), next()],
                template: g.template.clone(),
            });
        }
        let g = self.groups.remove(&group)?;
        let (kept, mut seg) = g.done.into_iter().next().expect("resolved group");
        let outcome = EndToEndOutcome {
            request: group,
            end_to_end_fidelity: seg.fidelity_at(t),
            latency: t.since(g.template.requested_at),
            delivered_at: t,
            swaps: g.swaps,
            distilled: true,
            pairs_consumed: g.pairs_consumed,
            ..kept
        };
        Some(GroupVerdict::Deliver(outcome, g.owner))
    }

    /// The streams regenerated after a rejected parity.
    pub(crate) fn set_group_members(&mut self, group: u64, members: [u64; 2]) {
        self.groups.get_mut(&group).expect("group survives").members = members;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ruleset::PathRole::{End, Repeater};

    /// Issues `request` under SWAP-ASAP on `path` over `edges`.
    fn issue(ledger: &mut Ledger, request: u64, path: &[usize], edges: &[usize]) {
        let seed = AttemptSeed {
            src: path[0],
            dst: path[path.len() - 1],
            fmin: 0.6,
            retries_left: 1,
            excluded: Vec::new(),
            requested_at: SimTime::ZERO,
            owner: Owner::Caller,
            attempt: 0,
        };
        let rules = Arc::new(crate::ruleset::Policy::SwapAsap.ruleset());
        ledger.issue(request, path.to_vec(), edges, &rules, |_| 0.9, seed);
    }

    /// A pair on `edge` shown to `request`'s table at `node`.
    fn pair(ledger: &mut Ledger, request: u64, node: usize, edge: usize) -> Option<NodeAction> {
        ledger.observe(
            request,
            node,
            Obs::PairArrived { edge },
            SimTime::ZERO,
            None,
        )
    }

    fn ids_at(ledger: &Ledger, node: usize) -> Vec<u64> {
        ledger
            .reservations_at(node)
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    #[test]
    fn concurrent_requests_at_one_node_stay_independent() {
        let mut ledger = Ledger::new(1, 3);
        issue(&mut ledger, 1, &[0, 1, 2], &[0, 1]);
        issue(&mut ledger, 2, &[0, 1, 3], &[0, 2]);
        issue(&mut ledger, 5, &[1, 2], &[1]);
        let end = End {
            edge: 1,
            expected_swaps: 0,
        };
        assert_eq!(
            ledger.reservations_at(1),
            [
                (1, Repeater { left: 0, right: 1 }),
                (2, Repeater { left: 0, right: 2 }),
                (5, end),
            ]
        );
        assert_eq!(ledger.edge_load(0), 2, "edge 0 is shared");
        // A pair on the shared edge only advances the request it was
        // matched to; the other stays incomplete.
        assert_eq!(pair(&mut ledger, 1, 1, 0), None);
        let swap = NodeAction::Swap {
            request: 1,
            left: 0,
            right: 1,
        };
        assert_eq!(pair(&mut ledger, 1, 1, 1), Some(swap));
        assert_eq!(
            pair(&mut ledger, 2, 1, 2),
            None,
            "request 2 still lacks edge 0"
        );
        assert!(ledger.teardown(1).is_some());
        assert_eq!(ids_at(&ledger, 1), [2, 5]);
        assert_eq!(ledger.edge_load(0), 1);
    }

    #[test]
    fn observations_for_unknown_or_torn_down_requests_are_ignored() {
        let mut ledger = Ledger::new(1, 2);
        let stray = [
            Obs::PairArrived { edge: 0 },
            Obs::SwapResult { z: 1, x: 1 },
            Obs::Parity {
                edge: 0,
                accepted: true,
            },
        ];
        for obs in stray {
            assert_eq!(ledger.observe(99, 0, obs, SimTime::ZERO, None), None);
        }
        issue(&mut ledger, 1, &[0, 1, 2], &[0, 1]);
        assert_eq!(pair(&mut ledger, 1, 3, 0), None, "node 3 is off the path");
        assert_eq!(pair(&mut ledger, 1, 1, 0), None);
        ledger.teardown(1);
        assert_eq!(pair(&mut ledger, 1, 1, 1), None, "torn down: no swap");
    }

    #[test]
    fn teardown_drops_every_reservation_once() {
        let mut ledger = Ledger::new(1, 2);
        assert!(
            ledger.teardown(5).is_none(),
            "tearing down a stranger is a no-op"
        );
        issue(&mut ledger, 5, &[0, 1, 2], &[0, 1]);
        assert!((0..3).all(|n| ids_at(&ledger, n) == [5]));
        let ended = ledger.teardown(5).expect("in flight");
        assert!((0..3).all(|n| ids_at(&ledger, n).is_empty()));
        assert!(ledger.teardown(5).is_none(), "double teardown is a no-op");
        // A parked request is on the books but holds no reservation.
        ledger.park(5, ended, None);
        assert!((0..3).all(|n| ids_at(&ledger, n).is_empty()));
    }
}

//! Allocation guard for the attempt hot path.
//!
//! One MHP attempt is four events — `Cycle` (two polls, two photons
//! and two GENs handed to the station, two attempts pushed on their
//! MHPs' in-flight deques), `WindowClose` and two REPLYs — and almost
//! every attempt fails. It runs no frame codec: the GENs reach the
//! station and the REPLYs their nodes as values once each frame's
//! channel has decided its fate, and a REPLY its channel damaged
//! arrives as nothing. A failed attempt must not touch the heap:
//! REPLYs travel inline in their events, detection windows hold
//! two-slot arrays, the cycle-keyed tables and the MHPs' in-flight
//! deques sit at their working size, and the scheduler buffers nothing.
//! Only the rare outcomes may allocate: a herald (its quantum state), a
//! delivery (OK events, metrics series) and a CREATE. What deriving
//! physics from a profile acquires — one attempt model, one K-type
//! forward estimate — is pinned here too.
//!
//! This file is its own test binary because it installs a counting
//! `#[global_allocator]`. The count is per thread, so the harness's own
//! threads and the other tests in this binary do not disturb it.

use qlink::egp::feu::FidelityEstimator;
use qlink::phys::attempt::AttemptModel;
use qlink::phys::params::ScenarioParams;
use qlink::prelude::*;
use qlink::wire::fields::RequestType;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Heap acquisitions (`alloc`, `alloc_zeroed`, `realloc`) made by
    /// this thread. Const-initialised and without a destructor, so
    /// touching it from inside the allocator never allocates.
    static ACQUISITIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread that is tearing down its TLS still frees
    // memory through the allocator; it just is not counted.
    let _ = ACQUISITIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; all three are passed through as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn acquisitions() -> u64 {
    ACQUISITIONS.with(Cell::get)
}

fn request(kind: RequestKind, pairs: u16, origin: usize) -> GeneratedRequest {
    GeneratedRequest {
        kind,
        pairs,
        origin,
        fmin: 0.6,
        tmax_us: 0,
    }
}

/// Heap acquisitions one herald-to-delivery chain may make: the
/// heralded state, the density-matrix arithmetic of its decoherence
/// catch-ups and its move to memory (every matrix product is a fresh
/// buffer), the OK event lists at both nodes, the metrics series.
/// Measured at 80–240 per delivered pair; the bound only has to tell
/// "per outcome" (tens of outcomes) from "per attempt" (60 000).
const PER_OUTCOME: u64 = 512;
/// MHP cycles per `advance_to` step.
const SLICE: u64 = 100;

/// Warms `sim` up, then steps it through `cycles` MHP cycles with
/// `advance_to` and checks the heap was touched per outcome, never per
/// attempt — and that an attempt cost four events, no more.
fn assert_attempts_do_not_allocate(mut sim: LinkSimulation, mhp_cycle: SimDuration, cycles: u64) {
    // Warm-up: past `min_time`, so attempts are running; tables, event
    // queue and metrics maps reach their working size.
    let mut t = SimTime::ZERO + mhp_cycle * 5_000;
    sim.advance_to(t);

    let events_before = sim.events_fired();
    let pairs_before = sim.metrics.total_pairs();
    let before = acquisitions();
    // Slice by slice, as an embedding layer drives a link.
    let slices = cycles / SLICE;
    let mut quiet_slices = 0;
    for _ in 0..slices {
        let slice_before = acquisitions();
        t += mhp_cycle * SLICE;
        sim.advance_to(t);
        quiet_slices += u64::from(acquisitions() == slice_before);
    }
    let acquired = acquisitions() - before;
    let events = sim.events_fired() - events_before;
    let pairs = sim.metrics.total_pairs() - pairs_before;

    // A delivered pair is heralded at both nodes; a few heralds more
    // may be in flight or discarded (surplus, expired) at the edges.
    let outcomes = pairs + 4;
    // The event budget of an attempt: `Cycle`, `WindowClose` and two
    // `ReplyArrive`s. At least five cycles in six attempted (a K-type
    // attempt on Lab sits out about one cycle in ten for carbon
    // re-initialisation; pipelined M-type attempts fill every cycle) …
    assert!(
        2 * events >= 7 * cycles,
        "{events} events in {cycles} cycles: the link was not attempting"
    );
    // … and no cycle cost a fifth event, beyond the node-to-node frames
    // of the rare outcomes. One more event per attempt — a photon, GEN
    // or deadline event brought back — is at least 5/6 of a cycle's
    // worth over this ceiling.
    assert!(
        events <= 4 * cycles + 16 * outcomes,
        "{events} events in {cycles} cycles: an attempt fires more than four events"
    );
    assert!(
        acquired <= PER_OUTCOME * outcomes,
        "{acquired} heap acquisitions over {cycles} attempt cycles \
         ({events} events, {pairs} pairs delivered): a failed attempt allocates"
    );
    // Success is rare (~10⁻⁴ per attempt), so nearly every slice holds
    // failed attempts only — and those slices must not allocate at all.
    assert!(
        quiet_slices * 10 >= slices * 9,
        "only {quiet_slices} of {slices} {SLICE}-cycle slices left the heap alone"
    );
}

#[test]
fn lab_attempts_under_md_ck_backlog_do_not_allocate() {
    let cfg = LinkConfig::lab(WorkloadSpec::none(), 11);
    let mhp_cycle = cfg.scenario.mhp_cycle;
    let mut sim = LinkSimulation::new(cfg);
    for origin in [0, 1] {
        for _ in 0..4 {
            sim.submit(origin, request(RequestKind::Md, 40, origin));
            sim.submit(origin, request(RequestKind::Ck, 40, origin));
        }
    }
    assert_attempts_do_not_allocate(sim, mhp_cycle, 60_000);
}

#[test]
fn ql2020_pipelined_md_attempts_do_not_allocate() {
    let cfg = LinkConfig::ql2020(WorkloadSpec::none(), 12);
    let mhp_cycle = cfg.scenario.mhp_cycle;
    let mut sim = LinkSimulation::new(cfg);
    for origin in [0, 1] {
        for _ in 0..4 {
            sim.submit(origin, request(RequestKind::Md, 40, origin));
        }
    }
    assert_attempts_do_not_allocate(sim, mhp_cycle, 60_000);
}

/// Heap acquisitions `f` makes on this thread.
fn acquisitions_of<T>(f: impl FnOnce() -> T) -> u64 {
    let before = acquisitions();
    let out = f();
    let acquired = acquisitions() - before;
    drop(out);
    acquired
}

/// Heap acquisitions of one Lab `AttemptModel::build`: the operators of
/// the arms' shared chain and of one photon loss, the joint register,
/// the beam splitter, one electron block per click pattern and the two
/// heralded states the model keeps.
const BUILD_ACQUISITIONS: u64 = 26;
/// Heap acquisitions of one warm K-type `delivered_fidelity`: the copy
/// of the heralded state, one storage decay for both halves, the
/// operators of two moves to carbon, and the Bell ket.
const KEEP_ACQUISITIONS: u64 = 29;

/// Deriving physics from a profile is set-up, not the attempt path, but
/// a cold `Fmin → α` inversion runs about nine attempt models and, for
/// K-type, as many replays of the storage-and-move path: the kernels
/// keep their scratch on the stack, and nothing allocates per Kraus
/// term, per renormalisation or per failure pattern.
#[test]
fn deriving_physics_from_a_profile_allocates_a_pinned_amount() {
    let lab = ScenarioParams::lab();
    let build = acquisitions_of(|| AttemptModel::build(&lab, 0.2));
    assert!(
        build <= BUILD_ACQUISITIONS,
        "one AttemptModel::build made {build} heap acquisitions, over its \
         {BUILD_ACQUISITIONS} (129 when every kernel allocated its scratch and \
         each arm ran the whole chain)"
    );
    let mut feu = FidelityEstimator::new(lab);
    feu.delivered_fidelity(0.2, RequestType::Keep);
    let keep = acquisitions_of(|| feu.delivered_fidelity(0.2, RequestType::Keep));
    assert!(
        keep <= KEEP_ACQUISITIONS,
        "one warm K-type delivered_fidelity made {keep} heap acquisitions, over \
         its {KEEP_ACQUISITIONS} (91 when every kernel allocated its scratch, \
         each half decayed by a Kraus set of its own and the Bell fidelity \
         copied the pair)"
    );
}

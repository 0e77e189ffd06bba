//! The event queue at the heart of the simulator.
//!
//! Events are totally ordered by `(firing time, insertion sequence)`:
//! two events scheduled for the same instant fire in the order they were
//! scheduled. Combined with seeded randomness this makes every run
//! bit-reproducible, which the evaluation harness relies on (the paper's
//! Table 5 compares metrics across runs that differ *only* in the
//! classical-loss probability).
//!
//! # Implementation: one sorted list
//!
//! Every queue holds few events: a link pends its next cycle, its window
//! close and the replies in flight (at most 25 on a benchmark workload),
//! and a network's shared queue about one wake per busy link (≈ 20 on a
//! 16×16 grid once the 480 wakes of its construction have fired). So the
//! pending events sit in one `VecDeque` ascending by firing time. A pop
//! is `pop_front`; a schedule almost always appends (a link's next event
//! is due no earlier than its last), and otherwise inserts after the
//! last event due at or before it, found by binary search. A new event
//! was scheduled after every pending one, so its position in the list is
//! its insertion sequence. The differential test at the bottom of this
//! file pins the pop order against a reference binary heap.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A deterministic future-event list.
///
/// `E` is the caller's event type; the queue is agnostic to its content.
/// The queue tracks the current simulated time: popping an event
/// advances the clock to that event's firing time.
pub struct EventQueue<E> {
    /// Every pending event with its firing time, in pop order.
    cells: VecDeque<(SimTime, E)>,
    now: SimTime,
    popped: u64,
    high_water: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at `t = 0`.
    pub fn new() -> Self {
        EventQueue {
            cells: VecDeque::new(),
            now: SimTime::ZERO,
            popped: 0,
            high_water: 0,
        }
    }

    /// The current simulated time (the firing time of the most recently
    /// popped event, or the horizon passed to [`EventQueue::pop_until`]).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Total number of events fired so far (for run statistics).
    pub fn events_fired(&self) -> u64 {
        self.popped
    }

    /// The most events that were ever pending at once — the engine
    /// profiler's queue-depth gauge.
    pub fn depth_high_water(&self) -> usize {
        self.high_water
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — the DES never rewinds.
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        match self.cells.back() {
            Some(&(last, _)) if at < last => {
                // Behind every event due at or before `at`; at index 0
                // the deque's insert is a push to the front.
                let pos = self.cells.partition_point(|&(t, _)| t <= at);
                self.cells.insert(pos, (at, event));
            }
            _ => self.cells.push_back((at, event)),
        }
        self.high_water = self.high_water.max(self.cells.len());
    }

    /// Schedules `event` after a delay from the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.cells.front().map(|&(at, _)| at)
    }

    /// Pops the earliest event unconditionally, advancing the clock.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, event) = self.cells.pop_front()?;
        debug_assert!(at >= self.now);
        self.popped += 1;
        self.now = at;
        Some((at, event))
    }

    /// Pops the earliest event if it fires at or before `horizon`.
    ///
    /// If the next event is later (or the queue is empty), advances the
    /// clock to `horizon` and returns `None` — the standard way to run a
    /// simulation "for N seconds".
    #[inline]
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time().is_some_and(|at| at <= horizon) {
            return self.pop();
        }
        if horizon > self.now {
            self.now = horizon;
        }
        None
    }

    /// Discards all pending events. The clock ([`Self::now`]) and the
    /// run statistics ([`Self::events_fired`], [`Self::depth_high_water`])
    /// are **kept**: a caller reusing a cleared queue for a fresh run
    /// sees the previous run's statistics until [`Self::reset_stats`].
    pub fn clear(&mut self) {
        self.cells.clear();
    }

    /// Restarts the run statistics: zeroes [`Self::events_fired`] and
    /// resets [`Self::depth_high_water`] to the current backlog. The
    /// sweep driver calls this between runs that reuse one queue.
    pub fn reset_stats(&mut self) {
        self.popped = 0;
        self.high_water = self.cells.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_in(us(30), "c");
        q.schedule_in(us(10), "a");
        q.schedule_in(us(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for label in ["first", "second", "third"] {
            q.schedule_in(us(5), label);
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["first", "second", "third"]);
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_in(us(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::ZERO + us(7));
        assert_eq!(q.now(), t);
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule_in(us(10), "early");
        q.schedule_in(us(100), "late");
        let horizon = SimTime::ZERO + us(50);
        assert_eq!(q.pop_until(horizon).map(|(_, e)| e), Some("early"));
        assert_eq!(q.pop_until(horizon), None);
        // Clock parked at the horizon; the late event still pending.
        assert_eq!(q.now(), horizon);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_until_empty_queue_advances_clock() {
        let mut q: EventQueue<()> = EventQueue::new();
        let horizon = SimTime::ZERO + us(42);
        assert_eq!(q.pop_until(horizon), None);
        assert_eq!(q.now(), horizon);
    }

    #[test]
    fn schedule_during_drain() {
        // Events scheduled while draining interleave correctly.
        let mut q = EventQueue::new();
        q.schedule_in(us(10), 1u32);
        let mut fired = Vec::new();
        while let Some((_, e)) = q.pop() {
            fired.push(e);
            if e == 1 {
                q.schedule_in(us(5), 2u32);
                q.schedule_in(us(1), 3u32);
            }
        }
        assert_eq!(fired, [1, 3, 2]);
    }

    #[test]
    fn depth_high_water_tracks_peak_backlog() {
        let mut q = EventQueue::new();
        assert_eq!(q.depth_high_water(), 0);
        for _ in 0..5 {
            q.schedule_in(us(1), ());
        }
        while q.pop().is_some() {}
        q.schedule_in(us(1), ());
        assert_eq!(q.depth_high_water(), 5, "peak survives draining");
    }

    #[test]
    fn events_fired_counter() {
        let mut q = EventQueue::new();
        for _ in 0..5 {
            q.schedule_in(us(1), ());
        }
        while q.pop().is_some() {}
        assert_eq!(q.events_fired(), 5);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule_in(us(10), ());
        q.pop();
        q.schedule_at(SimTime::ZERO, ());
    }

    #[test]
    fn clear_keeps_clock() {
        let mut q = EventQueue::new();
        q.schedule_in(us(10), ());
        q.pop();
        q.schedule_in(us(10), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO + us(10));
    }

    #[test]
    fn clear_keeps_stats_until_reset() {
        let mut q = EventQueue::new();
        for _ in 0..4 {
            q.schedule_in(us(1), ());
        }
        q.pop();
        q.clear();
        // The documented contract: clearing keeps the counters.
        assert_eq!(q.events_fired(), 1);
        assert_eq!(q.depth_high_water(), 4);
        q.schedule_in(us(1), ());
        q.reset_stats();
        assert_eq!(q.events_fired(), 0);
        assert_eq!(q.depth_high_water(), 1, "reset re-bases on the backlog");
        q.pop();
        assert_eq!(q.events_fired(), 1);
    }

    #[test]
    fn cleared_queue_reuses_and_orders() {
        let mut q = EventQueue::new();
        q.schedule_in(us(3), "dropped");
        q.schedule_in(SimDuration::from_secs(500), "dropped far");
        q.clear();
        q.schedule_in(us(2), "b");
        q.schedule_in(us(1), "a");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b"]);
    }

    #[test]
    fn far_future_events_pop_in_order() {
        // Request timeouts minutes out sort among microsecond events.
        let mut q = EventQueue::new();
        q.schedule_in(SimDuration::from_secs(300), "far");
        q.schedule_in(SimDuration::from_secs(200), "mid");
        q.schedule_in(us(1), "near");
        assert_eq!(q.peek_time(), Some(SimTime::ZERO + us(1)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["near", "mid", "far"]);
    }

    #[test]
    fn far_future_ties_keep_insertion_order() {
        let mut q = EventQueue::new();
        let far = SimDuration::from_secs(250);
        for label in ["first", "second", "third"] {
            q.schedule_in(far, label);
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["first", "second", "third"]);
    }

    #[test]
    fn determinism_large_interleaving() {
        // Two identical schedules produce identical pop sequences.
        let build = || {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.schedule_in(SimDuration::from_ps((i * 37) % 101), i);
            }
            let mut out = Vec::new();
            while let Some((t, e)) = q.pop() {
                out.push((t, e));
            }
            out
        };
        assert_eq!(build(), build());
    }

    // ---- differential property test vs. the reference heap -----------

    /// The original implementation, kept verbatim as the ordering
    /// oracle: a max-heap of `(at, seq)`-keyed cells with the ordering
    /// inverted to pop earliest first.
    struct RefScheduled<E> {
        at: SimTime,
        seq: u64,
        event: E,
    }
    impl<E> PartialEq for RefScheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<E> Eq for RefScheduled<E> {}
    impl<E> PartialOrd for RefScheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for RefScheduled<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            (other.at, other.seq).cmp(&(self.at, self.seq))
        }
    }

    struct RefQueue<E> {
        heap: BinaryHeap<RefScheduled<E>>,
        next_seq: u64,
        now: SimTime,
    }

    impl<E> RefQueue<E> {
        fn new() -> Self {
            RefQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: SimTime::ZERO,
            }
        }
        fn schedule_in(&mut self, delay: SimDuration, event: E) {
            let at = self.now + delay;
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(RefScheduled { at, seq, event });
        }
        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|s| s.at)
        }
        fn pop(&mut self) -> Option<(SimTime, E)> {
            let s = self.heap.pop()?;
            self.now = s.at;
            Some((s.at, s.event))
        }
        fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
            match self.peek_time() {
                Some(t) if t <= horizon => self.pop(),
                _ => {
                    if horizon > self.now {
                        self.now = horizon;
                    }
                    None
                }
            }
        }
    }

    /// Drains both queues, asserting they pop the same sequence.
    fn drain_both(q: &mut EventQueue<u64>, oracle: &mut RefQueue<u64>) {
        loop {
            let (a, b) = (q.pop(), oracle.pop());
            assert_eq!(a, b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
    }

    /// 10^5 random schedule/pop/pop_until/clear interleavings, heavy on
    /// ties and spanning picoseconds to minutes, then a deep phase that
    /// holds over 10^4 events while inserting at the front, in the
    /// middle, at the back and on pending instants: the queue must
    /// reproduce the reference heap's pop sequence exactly.
    #[test]
    fn differential_matches_reference_heap() {
        let mut rng = crate::rng::DetRng::new(0x5eed_cafe);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut oracle: RefQueue<u64> = RefQueue::new();
        for i in 0..100_000u64 {
            let op = rng.below(100);
            if op < 62 {
                let delay = match rng.below(7) {
                    // Same instant (hot tie path).
                    0 => SimDuration::ZERO,
                    // Sub-microsecond offsets.
                    1 => SimDuration::from_ps(rng.below(1 << 20)),
                    // A small pool of repeated delays: ties behind the front.
                    2 => SimDuration::from_nanos(100 * (1 + rng.below(4))),
                    // Up to ~300 µs: tens of MHP cycles.
                    3 => SimDuration::from_ps(rng.below(300 << 20)),
                    // Microseconds to milliseconds.
                    4 => SimDuration::from_nanos(rng.below(3_000_000)),
                    // Up to a hundred seconds.
                    5 => SimDuration::from_micros(rng.below(100_000_000)),
                    // Minutes out, like a request timeout.
                    _ => SimDuration::from_secs(141 + rng.below(1000)),
                };
                q.schedule_in(delay, i);
                oracle.schedule_in(delay, i);
            } else if op < 88 {
                assert_eq!(q.pop(), oracle.pop(), "pop diverged at op {i}");
                assert_eq!(q.now(), oracle.now);
            } else if op < 97 {
                let horizon = oracle.now + SimDuration::from_nanos(rng.below(200_000));
                assert_eq!(
                    q.pop_until(horizon),
                    oracle.pop_until(horizon),
                    "pop_until diverged at op {i}"
                );
                assert_eq!(q.now(), oracle.now);
            } else if op < 99 {
                assert_eq!(q.peek_time(), oracle.peek_time());
            } else {
                q.clear();
                oracle.heap.clear();
            }
            assert_eq!(q.len(), oracle.heap.len(), "len diverged at op {i}");
        }
        drain_both(&mut q, &mut oracle);

        // Deep phase: one pop per six schedules, so the backlog grows
        // past 10^4 and the deque wraps and shifts on both sides.
        // `latest` bounds every pending firing time from above.
        let mut latest = oracle.now.as_ps();
        for i in 0..30_000u64 {
            if rng.below(7) == 0 {
                assert_eq!(q.pop(), oracle.pop(), "deep pop diverged at op {i}");
                continue;
            }
            let now = oracle.now.as_ps();
            let first = oracle.peek_time().map_or(now, SimTime::as_ps);
            let at = match rng.below(4) {
                // Front: before the earliest pending event (on it, when
                // that one is due now).
                0 => now + rng.below((first - now).max(1)),
                // Middle, on a 1 µs grid, so it often ties a pending event.
                1 => now + 1_000_000 * rng.below((latest - now) / 1_000_000 + 1),
                // Back: on or after the latest pending event.
                2 => latest + rng.below(2) * rng.below(1_000_000),
                // Exactly on the earliest or the latest pending instant.
                _ => [first, latest][rng.below(2) as usize],
            };
            latest = latest.max(at);
            let delay = SimDuration::from_ps(at - now);
            q.schedule_in(delay, i);
            oracle.schedule_in(delay, i);
            assert_eq!(q.len(), oracle.heap.len(), "deep len diverged at op {i}");
        }
        assert!(
            q.depth_high_water() >= 10_000,
            "the deep phase stayed shallow"
        );
        drain_both(&mut q, &mut oracle);
    }
}

//! Conservative-lookahead parallel execution for a single [`Network`].
//!
//! The sweep driver ([`crate::sweep`](mod@crate::sweep)) already fans *whole runs*
//! across threads; this module parallelises *within* one run, so a
//! giant topology no longer saturates a single core. The design is a
//! YAWNS/Chandy–Misra-style conservative window scheme adapted to the
//! network's architecture:
//!
//! * **Shards.** The topology's links — each a self-contained
//!   [`LinkSimulation`] with its own event queue and RNG streams — are
//!   dealt round-robin across worker threads. All *network-layer*
//!   state (node machines, the quantum ledger, route planning, every
//!   network RNG draw) stays on the coordinating thread; the workers
//!   only burn through link-internal events.
//!
//! * **Lookahead.** Links influence each other exclusively through
//!   the network layer, and the network layer touches a link only
//!   while handling a shared-queue event: it *submits* CREATEs
//!   (reservation forwarding, purification regeneration, re-issues)
//!   and *observes* deliveries. Control and re-issue events are
//!   pre-announced on the shared queue, and any such event *derived*
//!   from processing at time `t` is scheduled at least one classical
//!   control delay later — so with `d_min` the minimum control delay
//!   of the topology ([`Topology::min_control_delay`]), nothing can
//!   be submitted to any link before
//!   `min(earliest pending control/re-issue, earliest pending event + d_min)`.
//!   That bound is the window horizon; see
//!   `Network::safe_horizon` (crates/net/src/network.rs). Open-loop
//!   workload arrivals ([`crate::load`](mod@crate::load)) join the
//!   same contract: each `Arrival` event (which submits the admitted
//!   request's CREATEs at its own firing instant) and each
//!   `AdmitQueued` queue-drain event is pre-announced in the pending
//!   control set, so sustained arrival streams bound the horizon
//!   exactly like control responses and stay bit-identical across
//!   exec modes.
//!
//! * **Barriers.** Each window, the coordinator releases the workers
//!   to run every link ahead to the horizon
//!   ([`LinkSimulation::run_ahead`]), waits for all of them, then
//!   drains the shared queue up to the horizon exactly as the
//!   sequential engine would. Because links record the firing times
//!   of events computed ahead and replay them through
//!   `next_event_time`/`advance_to`, and drains only surface
//!   deliveries at or before the observation cursor, the coordinator
//!   observes the *same wake cadence, the same delivery batches, the
//!   same tie-breaking sequence numbers* as a sequential run — the
//!   merged cross-shard order is the shared queue's `(time, seq)`
//!   order either way. A sharded run is therefore **bit-identical**
//!   to a sequential one: same outcomes, same RNG draws, same event
//!   counts.
//!
//! * **Parked links.** An idle link stops its own cycle clock
//!   ([`LinkSimulation::park_when_idle`]) and then adds nothing to a
//!   window: `run_ahead` finds its queue empty, and with no next event
//!   it has no wake on the shared queue. It decides to park inside its
//!   own `Cycle` handler, from link-internal state alone, so it parks
//!   at the same cycle whether a worker ran it ahead or the
//!   coordinator stepped it. Only a submit or a retraction resumes it,
//!   and both happen in control-class event handlers — the instants
//!   the lookahead bound already guarantees no link has computed
//!   past. The bound itself is unchanged; with fewer wakes pending,
//!   windows on a sparse topology are simply longer.
//!
//! [`Network`]: crate::network::Network
//! [`Topology::min_control_delay`]: crate::topology::Topology::min_control_delay
//! [`LinkSimulation`]: qlink_sim::link::LinkSimulation
//! [`LinkSimulation::run_ahead`]: qlink_sim::link::LinkSimulation::run_ahead
//! [`LinkSimulation::park_when_idle`]: qlink_sim::link::LinkSimulation::park_when_idle

use qlink_des::SimTime;
use qlink_sim::link::LinkSimulation;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// How a [`Network`](crate::network::Network) advances its links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One thread pops the shared queue event by event (the classic
    /// engine).
    Sequential,
    /// Conservative-lookahead windows: link shards run ahead to each
    /// window's horizon on `n` threads (the coordinating thread
    /// counts as one and takes a shard itself), then the window is
    /// drained sequentially. Bit-identical to [`ExecMode::Sequential`]
    /// — parallelism changes wall-clock time only, never results.
    /// `Sharded(0)` and `Sharded(1)` run the window machinery without
    /// helper threads.
    Sharded(usize),
}

impl ExecMode {
    /// Worker threads this mode computes link events on (at least 1:
    /// the coordinator itself).
    pub fn threads(self) -> usize {
        match self {
            ExecMode::Sequential => 1,
            ExecMode::Sharded(n) => n.max(1),
        }
    }

    /// The mode requested by the `QLINK_EXEC` environment variable:
    /// `seq`/`sequential`, or `sharded:N`. Unset or unparsable means
    /// [`ExecMode::Sequential`]. This is how a whole test suite or CI
    /// leg is switched onto the parallel engine without touching any
    /// call site; an explicit
    /// [`Network::set_exec`](crate::network::Network::set_exec)
    /// overrides it.
    pub fn from_env() -> ExecMode {
        match std::env::var("QLINK_EXEC") {
            Ok(v) => Self::parse(&v).unwrap_or(ExecMode::Sequential),
            Err(_) => ExecMode::Sequential,
        }
    }

    /// Parses `seq`, `sequential`, or `sharded:N`.
    pub fn parse(s: &str) -> Option<ExecMode> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "seq" | "sequential" => Some(ExecMode::Sequential),
            _ => {
                let n = s.strip_prefix("sharded:")?.parse::<usize>().ok()?;
                Some(ExecMode::Sharded(n))
            }
        }
    }
}

/// One window's work order: the horizon to run ahead to, plus the
/// coordinator's links, lent to the workers for exactly the span of
/// the window.
///
/// Safety protocol: the pointer is written under the job mutex with a
/// bumped epoch; each worker touches only the links of its own
/// round-robin shard; the coordinator (which processes shard 0
/// inline) blocks until every worker has reported completion before
/// using the links again. Shards are disjoint, so no two threads ever
/// alias a link.
struct JobSlot {
    epoch: u64,
    completed: usize,
    /// A worker's shard panicked this window (the panic itself is
    /// caught so `completed` still advances — the coordinator must
    /// never deadlock on a dead worker — and re-raised coordinator-side
    /// after the barrier).
    poisoned: bool,
    horizon: SimTime,
    links: *mut LinkSimulation,
    len: usize,
    /// When set, each worker stopwatches its run-ahead and writes the
    /// wall nanoseconds into `busy_nanos[shard]` (engine profiling —
    /// see [`crate::obs`]). Off by default: profiling must cost zero
    /// `Instant` calls when nobody asked for it.
    timed: bool,
    busy_nanos: Vec<u64>,
    shutdown: bool,
}

// SAFETY: the raw pointer is only dereferenced by workers between the
// epoch handshake and the completion report, over disjoint indices,
// while the owning coordinator is blocked in `run_window`;
// `LinkSimulation` itself is `Send` (all state is owned).
unsafe impl Send for JobSlot {}

struct PoolShared {
    job: Mutex<JobSlot>,
    go: Condvar,
    done: Condvar,
}

/// A persistent pool of link-shard workers, spawned lazily on the
/// first sharded window and parked on a condvar between windows.
pub(crate) struct ShardPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// Total compute threads (workers + the coordinator).
    threads: usize,
}

impl ShardPool {
    /// Spawns `threads - 1` workers (the coordinator is the remaining
    /// thread).
    pub(crate) fn new(threads: usize) -> ShardPool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            job: Mutex::new(JobSlot {
                epoch: 0,
                completed: 0,
                poisoned: false,
                horizon: SimTime::ZERO,
                links: std::ptr::null_mut(),
                len: 0,
                timed: false,
                busy_nanos: Vec::new(),
                shutdown: false,
            }),
            go: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qlink-shard-{shard}"))
                    .spawn(move || worker_loop(&shared, shard, threads))
                    .expect("spawn shard worker")
            })
            .collect();
        ShardPool {
            shared,
            handles,
            threads,
        }
    }

    /// Number of compute threads (shards).
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every link ahead to `horizon` across the pool (blocking
    /// until all shards finish). The coordinator processes shard 0
    /// itself, so `Sharded(1)` needs no handshake at all.
    pub(crate) fn run_window(&self, links: &mut [LinkSimulation], horizon: SimTime) {
        self.run_window_inner(links, horizon, false);
    }

    /// [`ShardPool::run_window`] with per-shard wall-clock accounting
    /// for the engine profiler. Timing is observation only — the work,
    /// its order, and the handshake are identical to the untimed path,
    /// so profiling can never perturb simulation results.
    pub(crate) fn run_window_timed(
        &self,
        links: &mut [LinkSimulation],
        horizon: SimTime,
    ) -> WindowTiming {
        self.run_window_inner(links, horizon, true)
            .expect("timed window returns timing")
    }

    fn run_window_inner(
        &self,
        links: &mut [LinkSimulation],
        horizon: SimTime,
        timed: bool,
    ) -> Option<WindowTiming> {
        let ptr = links.as_mut_ptr();
        let len = links.len();
        if self.threads > 1 {
            let mut slot = self.shared.job.lock().expect("shard worker panicked");
            slot.epoch += 1;
            slot.completed = 0;
            slot.horizon = horizon;
            slot.links = ptr;
            slot.len = len;
            slot.timed = timed;
            if timed {
                slot.busy_nanos.clear();
                slot.busy_nanos.resize(self.threads, 0);
            }
            drop(slot);
            self.shared.go.notify_all();
        }
        // Shard 0, driven through the same pointer the workers use so
        // no fresh slice borrow aliases their derived pointers.
        let coord_start = timed.then(Instant::now);
        let mut i = 0;
        while i < len {
            // SAFETY: same disjoint-stride argument as `worker_loop`.
            unsafe { (*ptr.add(i)).run_ahead(horizon) };
            i += self.threads;
        }
        let coord_busy = coord_start.map(|s| s.elapsed().as_nanos() as u64);
        let mut timing = timed.then(|| WindowTiming {
            shard_busy_nanos: vec![coord_busy.unwrap_or(0)],
            coord_idle_nanos: 0,
        });
        if self.threads > 1 {
            let idle_start = timed.then(Instant::now);
            let mut slot = self.shared.job.lock().expect("shard worker panicked");
            while slot.completed < self.threads - 1 {
                slot = self.shared.done.wait(slot).expect("shard worker panicked");
            }
            if let (Some(timing), Some(idle)) = (timing.as_mut(), idle_start) {
                timing.coord_idle_nanos = idle.elapsed().as_nanos() as u64;
                timing
                    .shard_busy_nanos
                    .extend_from_slice(&slot.busy_nanos[1..]);
            }
            // The lent pointer is dead once the window closes.
            slot.links = std::ptr::null_mut();
            slot.len = 0;
            slot.timed = false;
            // Re-raise a worker-shard panic on the coordinator, now
            // that no thread holds the links anymore.
            assert!(!slot.poisoned, "a link shard panicked during run-ahead");
        }
        timing
    }
}

/// Wall-clock account of one sharded window: how long each shard spent
/// running links ahead (index 0 is the coordinator's own shard) and how
/// long the coordinator sat in the completion barrier after finishing
/// its shard. Large spreads in `shard_busy_nanos` mean the round-robin
/// deal left the shards imbalanced; large `coord_idle_nanos` relative
/// to busy time means the window horizon is too short to amortise the
/// handshake.
pub(crate) struct WindowTiming {
    pub(crate) shard_busy_nanos: Vec<u64>,
    pub(crate) coord_idle_nanos: u64,
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        {
            let mut slot = match self.shared.job.lock() {
                Ok(slot) => slot,
                Err(poisoned) => poisoned.into_inner(),
            };
            slot.shutdown = true;
        }
        self.shared.go.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, shard: usize, threads: usize) {
    let mut seen_epoch = 0;
    loop {
        let (links, len, horizon, timed) = {
            let mut slot = shared.job.lock().expect("coordinator panicked");
            while slot.epoch == seen_epoch && !slot.shutdown {
                slot = shared.go.wait(slot).expect("coordinator panicked");
            }
            if slot.shutdown {
                return;
            }
            seen_epoch = slot.epoch;
            (slot.links, slot.len, slot.horizon, slot.timed)
        };
        // A panicking link must not kill this thread before it reports
        // completion — the coordinator would wait on the barrier
        // forever. Catch, report, and let the coordinator re-raise.
        let start = timed.then(Instant::now);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut i = shard;
            while i < len {
                // SAFETY: `shard`-strided indices are disjoint from
                // every other thread's; the coordinator keeps the
                // slice alive and untouched until all workers report
                // done.
                unsafe { (*links.add(i)).run_ahead(horizon) };
                i += threads;
            }
        }));
        let mut slot = shared.job.lock().expect("coordinator panicked");
        if result.is_err() {
            slot.poisoned = true;
        }
        if let Some(start) = start {
            slot.busy_nanos[shard] = start.elapsed().as_nanos() as u64;
        }
        slot.completed += 1;
        if slot.completed == threads - 1 {
            shared.done.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_mode_parses() {
        assert_eq!(ExecMode::parse("seq"), Some(ExecMode::Sequential));
        assert_eq!(ExecMode::parse("Sequential"), Some(ExecMode::Sequential));
        assert_eq!(ExecMode::parse("sharded:4"), Some(ExecMode::Sharded(4)));
        assert_eq!(ExecMode::parse("sharded:0"), Some(ExecMode::Sharded(0)));
        assert_eq!(ExecMode::parse("threads"), None);
        assert_eq!(ExecMode::parse("sharded:x"), None);
    }

    #[test]
    fn exec_mode_thread_counts() {
        assert_eq!(ExecMode::Sequential.threads(), 1);
        assert_eq!(ExecMode::Sharded(0).threads(), 1);
        assert_eq!(ExecMode::Sharded(1).threads(), 1);
        assert_eq!(ExecMode::Sharded(6).threads(), 6);
    }

    #[test]
    fn pool_runs_links_ahead_in_shards() {
        use qlink_sim::config::LinkConfig;
        use qlink_sim::workload::WorkloadSpec;

        let mut links: Vec<LinkSimulation> = (0..5)
            .map(|i| LinkSimulation::new(LinkConfig::lab(WorkloadSpec::none(), 100 + i)))
            .collect();
        let pool = ShardPool::new(3);
        assert_eq!(pool.threads(), 3);
        let h = SimTime::ZERO + qlink_des::SimDuration::from_micros(200);
        pool.run_window(&mut links, h);
        for link in &links {
            // Every link computed its cycle events up to the horizon…
            assert!(link.events_fired() > 0);
            // …but none surfaced anything past the observation cursor.
            assert_eq!(link.next_event_time(), Some(SimTime::ZERO));
        }
    }

    #[test]
    fn timed_window_reports_every_shard() {
        use qlink_sim::config::LinkConfig;
        use qlink_sim::workload::WorkloadSpec;

        let mut links: Vec<LinkSimulation> = (0..4)
            .map(|i| LinkSimulation::new(LinkConfig::lab(WorkloadSpec::none(), 300 + i)))
            .collect();
        let pool = ShardPool::new(2);
        let h = SimTime::ZERO + qlink_des::SimDuration::from_micros(100);
        let timing = pool.run_window_timed(&mut links, h);
        assert_eq!(timing.shard_busy_nanos.len(), 2);
        // The same pool still serves untimed windows afterwards.
        pool.run_window(&mut links, h + qlink_des::SimDuration::from_micros(100));
        for link in &links {
            assert!(link.events_fired() > 0);
        }
    }
}

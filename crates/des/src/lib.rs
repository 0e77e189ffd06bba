//! Deterministic discrete-event simulation engine.
//!
//! The paper evaluates its protocols on a purpose-built discrete-event
//! simulator (NetSquid, built on DynAA). This crate is the equivalent
//! substrate for the Rust stack:
//!
//! * [`time`] — picosecond-resolution simulated time. Every timing
//!   constant in the paper (9.7 ns classical replies in the Lab setup,
//!   10.12 µs MHP cycles, 1040 µs memory moves, 145 µs midpoint replies
//!   on QL2020) is exactly representable.
//! * [`queue`] — a total-ordered event queue: events fire in `(time,
//!   insertion sequence)` order, so a run is a pure function of its
//!   seed. The paper's robustness claims are statistical; ours are
//!   reproducible run-by-run.
//! * [`rng`] — the workspace's one random generator, [`DetRng`]:
//!   xoshiro256** seeded from a `u64` by splitmix64, with deterministic
//!   per-component substreams, so adding a component never perturbs
//!   another component's random draws.
//! * [`hash`] — a fixed-seed integer hasher ([`IntMap`]) for the
//!   cycle-keyed tables on the per-attempt hot path.
//! * [`trace`] — lightweight time-series and fixed-bucket histogram
//!   recording used by the evaluation figures (latency vs time,
//!   throughput vs time) and the telemetry layer's deterministic
//!   percentile reports.

pub mod hash;
pub mod queue;
pub mod rng;
pub mod time;
pub mod trace;

pub use hash::IntMap;
pub use queue::EventQueue;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
pub use trace::{Histogram, TimeSeries};

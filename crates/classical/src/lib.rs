//! Classical communication substrate.
//!
//! Quantum networks need tightly integrated classical control traffic:
//! GEN/REPLY exchanges with the heralding station, distributed-queue
//! synchronisation, and EXPIRE recovery all ride classical fiber. This
//! crate models that medium:
//!
//! * [`channel`] — per-frame propagation delay (speed of light in
//!   fiber, 206,753 km/s as in the paper's §A.4), Bernoulli frame loss,
//!   and bit-corruption injection (caught by the CRC-32 trailer), all
//!   decided from the frame's length before any bytes need exist;
//! * [`ethernet`] — the 1000BASE-ZX link-budget model of Appendix
//!   D.6.1, mapping link length / connectors / splices to a frame error
//!   rate, reproducing the paper's conclusion that realistic links show
//!   FER ≈ 0, justifying its exaggerated-loss robustness sweep
//!   (10⁻¹⁰ … 10⁻⁴, Table 5).

pub mod channel;
pub mod ethernet;

pub use channel::{ChannelModel, ChannelStats, Fate, Transmission, SPEED_OF_LIGHT_FIBER_KM_PER_S};
pub use ethernet::LinkBudget;

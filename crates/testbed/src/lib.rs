//! # linkpad-testbed
//!
//! A real-time, in-process stand-in for the paper's physical testbed
//! (two TimeSys Linux gateways and a hardware network analyzer): real
//! OS threads, real monotonic-clock timers, and channel "wires" carrying
//! the fixed-size encrypted frames of `linkpad_core::wire`.
//!
//! The point of this crate is honesty: the simulator *models* gateway
//! timer jitter; here the jitter is whatever the host OS actually does.
//! The same adversary pipeline (`linkpad-adversary`) runs unchanged on
//! the captured PIATs, so the paper's central claim — CIT padding leaks
//! through timer disturbance, VIT hides it — can be checked against a
//! real scheduler, not just the model. (In-process channels lack a NIC,
//! so the payload-interrupt coupling is weaker than on the paper's
//! hardware; the live examples report whatever the host exhibits.)
//!
//! * [`timer`] — hybrid sleep+spin precision waits on `Instant`.
//! * [`live`] — the three-thread padded link: payload generator →
//!   gateway (CIT/VIT timer, dummy filling) → wire with receiver-side
//!   timestamping tap → receiver (dummy stripping).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod live;
pub mod timer;

pub use live::{run_live, LiveConfig, LiveRunReport};

/// Held by each of this crate's real-time tests for its whole capture:
/// the test harness runs tests on parallel threads, and another test's
/// timer thread spinning on the same cores is noise in this one's
/// timing.
#[cfg(test)]
pub(crate) fn real_time_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed test poisons the lock; the next capture is still valid.
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

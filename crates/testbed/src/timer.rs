//! Precision waiting on the monotonic clock.
//!
//! `thread::sleep` alone typically overshoots by the scheduler quantum
//! (1–4 ms on stock kernels) — useless for a 10 ms padding timer whose
//! security-relevant jitter is microseconds. The paper used TimeSys
//! Linux/RT for the same reason. The classic user-space substitute is
//! hybrid waiting: sleep until shortly before the deadline, then spin on
//! `Instant::now()` for the final stretch.

use std::time::{Duration, Instant};

/// How long before the deadline to switch from sleeping to spinning.
/// Generous enough to absorb a stock scheduler's wake-up latency.
pub const DEFAULT_SPIN_WINDOW: Duration = Duration::from_micros(800);

/// Block until `deadline` (monotonic). Returns the overshoot (how late
/// the wait actually returned).
///
/// Deadlines in the past return immediately with their (positive)
/// lateness.
pub fn sleep_until(deadline: Instant) -> Duration {
    sleep_until_with_window(deadline, DEFAULT_SPIN_WINDOW)
}

/// [`sleep_until`] with an explicit spin window.
pub fn sleep_until_with_window(deadline: Instant, spin_window: Duration) -> Duration {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return now - deadline;
        }
        let remaining = deadline - now;
        if remaining > spin_window {
            std::thread::sleep(remaining - spin_window);
        } else {
            // Spin: yield keeps us polite on loaded CI boxes while
            // still waking within a few µs on an idle core.
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn past_deadline_returns_immediately() {
        let _real_time = crate::real_time_lock();
        let d = Instant::now() - Duration::from_millis(5);
        let overshoot = sleep_until(d);
        assert!(overshoot >= Duration::from_millis(5));
    }

    #[test]
    fn wait_reaches_the_deadline() {
        let _real_time = crate::real_time_lock();
        let start = Instant::now();
        let d = start + Duration::from_millis(5);
        let overshoot = sleep_until(d);
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(5),
            "woke early: {elapsed:?}"
        );
        // Loose ceiling: CI boxes can be noisy, but 5 ms must not
        // become 50 ms.
        assert!(elapsed < Duration::from_millis(50), "elapsed {elapsed:?}");
        assert!(overshoot < Duration::from_millis(45));
    }

    #[test]
    fn spin_window_larger_than_wait_still_works() {
        let _real_time = crate::real_time_lock();
        let d = Instant::now() + Duration::from_micros(100);
        let overshoot = sleep_until_with_window(d, Duration::from_millis(10));
        assert!(overshoot < Duration::from_millis(10));
    }

    #[test]
    fn repeated_ticks_have_low_drift_on_average() {
        let _real_time = crate::real_time_lock();
        // 20 ticks of 2 ms: average period must stay within 25% of the
        // target even on a busy machine (absolute schedule → no drift
        // accumulation).
        let period = Duration::from_millis(2);
        let start = Instant::now();
        let mut stamps = Vec::with_capacity(21);
        for i in 1..=20u32 {
            sleep_until(start + period * i);
            stamps.push(Instant::now());
        }
        let total = stamps.last().unwrap().duration_since(start);
        let mean_period = total / 20;
        let err = mean_period.abs_diff(period);
        assert!(
            err < period / 4,
            "mean period {mean_period:?} vs target {period:?}"
        );
    }
}

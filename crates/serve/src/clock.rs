//! The threaded server's tick source.
//!
//! Everything time-dependent in this crate (the batcher's max-wait
//! deadline, request deadlines, backoffs, per-request latency) is
//! expressed in abstract **ticks**, and the serving core never reads a
//! clock itself: its driver supplies the current tick. What a tick
//! means depends on the driver:
//!
//! - under the threaded [`Server`](crate::server::Server) (and
//!   `nsflow serve`) a tick is a **wall microsecond** since server
//!   start, read from [`WallClock`];
//! - under [`simlab`](crate::simlab) a tick is a **virtual cycle** of
//!   the simulated architecture, advanced by the event loop and the
//!   cost model, which is what makes its metrics bit-reproducible.
//!
//! The `serve.*_ticks` telemetry histograms and the trace timestamps
//! carry the driver's unit unscaled.

use std::time::Instant;

/// Wall time in microseconds since construction.
#[derive(Debug)]
pub(crate) struct WallClock {
    start: Instant,
}

impl WallClock {
    /// Starts a wall clock at tick zero.
    #[must_use]
    pub fn new() -> Self {
        WallClock {
            start: Instant::now(),
        }
    }

    /// Microseconds since construction. Never decreases.
    #[must_use]
    pub fn now(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }
}

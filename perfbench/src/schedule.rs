//! Open-loop pacing.
//!
//! Operation `i` is due at `start + i · interval` whatever happened to the
//! operations before it, so a stalled system keeps receiving load and its
//! queue can grow.  When the sender itself falls behind, it does not
//! stretch the schedule (which would silently turn it into a closed loop):
//! it sends late and reports by how much.

use std::time::{Duration, Instant};

/// A fixed-rate schedule.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    start: Instant,
    interval: Duration,
}

impl OpenLoop {
    /// `rate` operations per second, the first due at `start`.
    pub fn new(start: Instant, rate: f64) -> OpenLoop {
        OpenLoop {
            start,
            interval: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When operation `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }

    /// Calls `send(i, due)` for every operation due before `end`, never
    /// before its due time, until `end` passes; returns how late each send
    /// started.  A `send` returning `false` stops the loop.
    pub fn drive(&self, end: Instant, mut send: impl FnMut(u64, Instant) -> bool) -> Vec<Duration> {
        let mut lateness = Vec::new();
        for i in 0.. {
            let due = self.due(i);
            if due >= end || Instant::now() >= end {
                break;
            }
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            lateness.push(Instant::now().saturating_duration_since(due));
            if !send(i, due) {
                break;
            }
        }
        lateness
    }
}

//! A sliding-window failure breaker.
//!
//! Two layers give up on something that keeps failing: the supervised
//! worker pool on a request that keeps crashing its worker, and the fleet
//! coordinator on a backend that keeps failing jobs. Both use one rule:
//! the breaker trips when strictly more than
//! [`BreakerPolicy::max_failures`] failures fall inside the sliding
//! [`BreakerPolicy::window`].

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// When a [`Breaker`] trips: strictly more than `max_failures` failures
/// inside a sliding `window`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Failures tolerated inside the window before the breaker trips.
    pub max_failures: u32,
    /// Sliding window the failures must fall inside.
    pub window: Duration,
}

impl Default for BreakerPolicy {
    /// The fourth failure inside a minute trips.
    fn default() -> BreakerPolicy {
        BreakerPolicy { max_failures: 3, window: Duration::from_secs(60) }
    }
}

/// A sliding-window failure counter. Time is passed in, not sampled, so
/// tests never sleep.
#[derive(Debug)]
pub struct Breaker {
    policy: BreakerPolicy,
    window: VecDeque<Instant>,
}

impl Breaker {
    /// A closed breaker under `policy`.
    pub fn new(policy: BreakerPolicy) -> Breaker {
        Breaker { policy, window: VecDeque::new() }
    }

    /// Records one failure at `now`; returns `true` when the breaker
    /// trips (the failure count inside the window exceeds the budget).
    pub fn record(&mut self, now: Instant) -> bool {
        self.window.push_back(now);
        while let Some(&front) = self.window.front() {
            if now.duration_since(front) > self.policy.window {
                self.window.pop_front();
            } else {
                break;
            }
        }
        self.window.len() as u32 > self.policy.max_failures
    }

    /// Failures currently inside the window.
    pub fn failures(&self) -> u32 {
        self.window.len() as u32
    }
}

//! Retry pacing: exponential backoff with deterministic jitter.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Random, SeedableRng};

/// Reconnect pacing after connection failures. How long to keep trying
/// is not this policy's concern: that is the reactor's time-based
/// [`retry_budget`](crate::ReactorConfig::retry_budget).
///
/// Delay before attempt *n* (n ≥ 1) is
/// `min(initial * multiplier^(n-1), max)` scaled by a jitter factor drawn
/// uniformly from `[1 - jitter, 1 + jitter]`. Jitter is seeded from the
/// destination and attempt number, so behaviour is reproducible while
/// still decorrelating peers that fail together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// Delay before the first retry.
    pub initial: Duration,
    /// Ceiling for any single delay.
    pub max: Duration,
    /// Growth factor between retries.
    pub multiplier: f64,
    /// Jitter fraction in `[0, 1)`; 0.2 means ±20 %.
    pub jitter: f64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            initial: Duration::from_millis(50),
            max: Duration::from_secs(2),
            multiplier: 2.0,
            jitter: 0.2,
        }
    }
}

impl BackoffPolicy {
    /// A fast policy for tests: small delays.
    pub fn fast() -> Self {
        BackoffPolicy {
            initial: Duration::from_millis(5),
            max: Duration::from_millis(40),
            multiplier: 2.0,
            jitter: 0.1,
        }
    }

    /// The delay to sleep after failed attempt number `attempt`
    /// (1-based). `seed` should identify the destination so two peers
    /// don't thunder in lockstep.
    pub fn delay(&self, attempt: u32, seed: u64) -> Duration {
        let exp =
            self.initial.as_secs_f64() * self.multiplier.powi(attempt.saturating_sub(1) as i32);
        let capped = exp.min(self.max.as_secs_f64());
        let mut rng = StdRng::seed_from_u64(seed ^ (u64::from(attempt).wrapping_mul(0x9e37)));
        let unit = f64::random(&mut rng);
        let factor = 1.0 + self.jitter * (2.0 * unit - 1.0);
        Duration::from_secs_f64((capped * factor).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_and_cap() {
        let p = BackoffPolicy {
            jitter: 0.0,
            ..BackoffPolicy::default()
        };
        let d1 = p.delay(1, 7);
        let d2 = p.delay(2, 7);
        let d5 = p.delay(5, 7);
        let d9 = p.delay(9, 7);
        assert!(d2 > d1);
        assert!(d5 > d2);
        assert!(d9 <= p.max, "{d9:?} within cap");
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let p = BackoffPolicy::default();
        let a = p.delay(3, 42);
        let b = p.delay(3, 42);
        assert_eq!(a, b, "same seed, same delay");
        let base = p.initial.as_secs_f64() * p.multiplier.powi(2);
        let lo = base * (1.0 - p.jitter) * 0.999;
        let hi = base * (1.0 + p.jitter) * 1.001;
        let got = a.as_secs_f64();
        assert!(got >= lo && got <= hi, "{got} in [{lo}, {hi}]");
    }

    #[test]
    fn different_seeds_decorrelate() {
        let p = BackoffPolicy::default();
        assert_ne!(p.delay(2, 1), p.delay(2, 2));
    }
}

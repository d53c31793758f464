//! The retry policy every recovering upstream path shares.
//!
//! [`RetryPolicy`] holds the knobs for `Retry(Failover(TcpTransport))`,
//! the composition that gives a call three layers of recovery a bare
//! [`LedgerClient`] lacks:
//!
//! 1. **Reconnect** — a broken stream is dropped and re-established by
//!    the transport instead of poisoning the caller forever;
//! 2. **Bounded retries** — exponential backoff with seeded jitter, so
//!    two replayed runs back off identically
//!    ([`RetryLayer`](crate::service::RetryLayer));
//! 3. **Failover** — a replica list; when one address keeps failing the
//!    stack rotates to the next ([`Failover`](crate::service::Failover)).
//!
//! Everything is bounded by a per-call deadline budget: a call never
//! blocks longer than `call_deadline`, no matter how many replicas or
//! retries remain. The escalation ladder past this point (circuit
//! breaking, stale-serve, fail-open) is more layers on the same stack —
//! see [`crate::service::stacks`] and DESIGN.md §10.
//!
//! [`LedgerClient`]: crate::client::LedgerClient

use std::time::Duration;

/// Retry/backoff/deadline knobs.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum attempts per call, including the first.
    pub max_attempts: u32,
    /// First backoff sleep; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Total wall-clock budget for one call (connects, exchanges, and
    /// backoff sleeps all count against it).
    pub call_deadline: Duration,
    /// Socket timeout for each connect/exchange attempt.
    pub io_timeout: Duration,
    /// Seed for backoff jitter (determinism for tests and E16).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            call_deadline: Duration::from_secs(2),
            io_timeout: Duration::from_millis(500),
            jitter_seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// A policy tuned for fast tests: short timeouts, small backoffs.
    pub fn fast(jitter_seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(40),
            call_deadline: Duration::from_millis(800),
            io_timeout: Duration::from_millis(150),
            jitter_seed,
        }
    }
}

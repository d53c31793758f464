//! A retrying, failing-over wrapper around [`LedgerClient`].
//!
//! [`ResilientClient`] is the composed service stack
//! `Retry(Failover(TcpTransport))` behind the familiar client API: one
//! call gets three layers of recovery the bare client lacks —
//!
//! 1. **Reconnect** — a broken stream is dropped and re-established by
//!    the transport instead of poisoning the client forever;
//! 2. **Bounded retries** — exponential backoff with seeded jitter, so
//!    two replayed runs back off identically;
//! 3. **Failover** — a replica list; when one address keeps failing the
//!    stack rotates to the next.
//!
//! Everything is bounded by a per-call deadline budget: a call never
//! blocks longer than `call_deadline`, no matter how many replicas or
//! retries remain. The escalation ladder past this point (circuit
//! breaking, stale-serve, fail-open) is more layers on the same stack —
//! see [`crate::service::stacks`] and DESIGN.md §10.
//!
//! [`LedgerClient`]: crate::client::LedgerClient

use crate::service::{CallCtx, Failover, Retry, RetryLayer, Service, ServiceExt, TcpTransport};
use crate::NetError;
use irs_core::wire::{Request, Response};
use std::net::SocketAddr;
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

/// Counters describing how hard the client has had to work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilientStats {
    /// Exchange attempts made (first tries + retries).
    pub attempts: u64,
    /// Attempts beyond the first for some call.
    pub retries: u64,
    /// Fresh connections established after a stream died.
    pub reconnects: u64,
    /// Rotations to a different replica.
    pub failovers: u64,
    /// Calls that exhausted every retry.
    pub exhausted: u64,
}

/// A [`LedgerClient`](crate::client::LedgerClient) with reconnect,
/// retry, and replica failover.
pub struct ResilientClient {
    stack: Retry<Failover<TcpTransport>>,
    /// Work counters (refreshed after every call).
    pub stats: ResilientStats,
}

impl ResilientClient {
    /// Create a client over one or more replica addresses. No connection
    /// is made until the first call (a down primary costs nothing at
    /// construction time).
    pub fn new(replicas: Vec<SocketAddr>, policy: RetryPolicy) -> ResilientClient {
        assert!(!replicas.is_empty(), "need at least one replica address");
        let transports = replicas
            .into_iter()
            .map(|addr| TcpTransport::new(addr, policy.io_timeout))
            .collect();
        ResilientClient {
            stack: Failover::new(transports).layered(RetryLayer::new(policy)),
            stats: ResilientStats::default(),
        }
    }

    /// The replica the next attempt will use.
    pub fn current_replica(&self) -> SocketAddr {
        let failover = self.stack.get_ref();
        failover.replicas()[failover.current_index()].addr()
    }

    /// One request/response exchange with retries, reconnects, and
    /// failover, all bounded by the policy's deadline. On failure returns
    /// [`NetError::Exhausted`].
    pub fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        let result = self.stack.call(request.clone(), &CallCtx::wall());
        self.refresh_stats();
        result
    }

    fn refresh_stats(&mut self) {
        let retry = self.stack.counters();
        let failover = self.stack.get_ref();
        self.stats = ResilientStats {
            attempts: retry.attempts,
            retries: retry.retries,
            exhausted: retry.exhausted,
            failovers: failover.failovers(),
            reconnects: failover.replicas().iter().map(|t| t.reconnects()).sum(),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{splitmix64, ChaosConfig, ChaosProxy, FaultMode};
    use crate::ledger_server::LedgerServer;
    use crate::service::jittered_backoff;
    use irs_core::ids::LedgerId;
    use irs_core::tsa::TimestampAuthority;
    use irs_ledger::{ConcurrentLedger, LedgerConfig};
    use std::sync::Arc;
    use std::time::Instant;

    fn ledger_server() -> LedgerServer {
        let ledger = ConcurrentLedger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(0x2E5),
        );
        LedgerServer::start_shared(Arc::new(ledger), "127.0.0.1:0").unwrap()
    }

    #[test]
    fn plain_calls_make_no_retries() {
        let server = ledger_server();
        let mut client = ResilientClient::new(vec![server.addr()], RetryPolicy::fast(1));
        for _ in 0..10 {
            assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
        }
        assert_eq!(client.stats.retries, 0);
        assert_eq!(client.stats.failovers, 0);
        server.shutdown();
    }

    #[test]
    fn retries_ride_through_partial_faults() {
        let server = ledger_server();
        let config =
            ChaosConfig::new(21, 0.5).with_modes(&[FaultMode::Reset, FaultMode::TruncateResponse]);
        let chaos = ChaosProxy::start(server.addr(), config).unwrap();
        let mut client = ResilientClient::new(vec![chaos.addr()], RetryPolicy::fast(2));
        let mut ok = 0;
        for _ in 0..40 {
            if client.call(&Request::Ping).is_ok() {
                ok += 1;
            }
        }
        // 50% per-exchange faults, 5 attempts: effectively every call
        // lands (0.5^5 ≈ 3% residual, and 40 calls make the expected
        // failures ≈ 1). Require a strong majority to stay robust.
        assert!(ok >= 36, "only {ok}/40 calls survived 50% fault rate");
        assert!(client.stats.retries > 0, "chaos must have forced retries");
        chaos.shutdown();
        server.shutdown();
    }

    #[test]
    fn fails_over_to_live_replica() {
        // A dead primary (bound then dropped, so the port refuses) plus a
        // live replica: the first call must land on the replica.
        let dead_addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let server = ledger_server();
        let mut client = ResilientClient::new(vec![dead_addr, server.addr()], RetryPolicy::fast(3));
        assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
        assert!(client.stats.failovers >= 1);
        assert_eq!(client.current_replica(), server.addr());
        server.shutdown();
    }

    #[test]
    fn exhaustion_is_typed_and_bounded() {
        let dead_addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            call_deadline: Duration::from_millis(400),
            ..RetryPolicy::fast(4)
        };
        let mut client = ResilientClient::new(vec![dead_addr], policy);
        let start = Instant::now();
        match client.call(&Request::Ping) {
            Err(NetError::Exhausted { attempts }) => assert!(attempts <= 3),
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "deadline must bound the call"
        );
        assert_eq!(client.stats.exhausted, 1);
    }

    #[test]
    fn backoff_sequence_is_deterministic() {
        let policy = RetryPolicy::fast(77);
        let seq = || -> Vec<Duration> {
            let mut state = policy.jitter_seed;
            (1..6)
                .map(|n| {
                    state = splitmix64(state);
                    jittered_backoff(&policy, n, state)
                })
                .collect()
        };
        assert_eq!(seq(), seq());
        // Monotone non-decreasing cap behaviour: the capped tail cannot
        // exceed max_backoff.
        assert!(seq().iter().all(|d| *d <= Duration::from_millis(40)));
    }
}

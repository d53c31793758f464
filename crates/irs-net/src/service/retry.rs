//! Bounded retries with seeded, jittered exponential backoff.
//!
//! [`Retry`] re-runs its inner service until it succeeds, the attempt
//! budget runs out, or the per-call deadline (the policy's
//! `call_deadline`, tightened against anything the caller already set)
//! elapses — one loop any service can wear. Backoff jitter is drawn from
//! a seeded SplitMix64 stream, so two replayed runs back off identically.

use super::{CallCtx, Layer, Service};
use crate::chaos::splitmix64;
use crate::resilient::RetryPolicy;
use crate::NetError;
use irs_core::wire::{Request, Response};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic decorrelating jitter: `base * 2^(attempt-1)` capped at
/// `max_backoff`, scaled by a factor in `[0.5, 1.0]` derived from
/// `jitter` (one SplitMix64 draw per sleep).
pub fn jittered_backoff(policy: &RetryPolicy, attempt: u32, jitter: u64) -> Duration {
    let exp = policy
        .base_backoff
        .saturating_mul(1u32 << (attempt - 1).min(16))
        .min(policy.max_backoff);
    let frac = 0.5 + 0.5 * ((jitter >> 11) as f64 / (1u64 << 53) as f64);
    exp.mul_f64(frac)
}

/// Work counters from a [`Retry`] service.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryCounters {
    /// Attempts made (first tries + retries).
    pub attempts: u64,
    /// Attempts beyond the first for some call.
    pub retries: u64,
    /// Calls that exhausted every retry.
    pub exhausted: u64,
}

struct Shared {
    attempts: AtomicU64,
    retries: AtomicU64,
    exhausted: AtomicU64,
    jitter: AtomicU64,
}

/// Wraps a service in the retry/backoff/deadline loop of a
/// [`RetryPolicy`].
#[derive(Clone, Copy, Debug)]
pub struct RetryLayer {
    policy: RetryPolicy,
}

impl RetryLayer {
    /// A layer applying `policy` to each call.
    pub fn new(policy: RetryPolicy) -> RetryLayer {
        RetryLayer { policy }
    }
}

impl<S: Service> Layer<S> for RetryLayer {
    type Out = Retry<S>;
    fn wrap(&self, inner: S) -> Retry<S> {
        Retry {
            inner,
            policy: self.policy,
            shared: Arc::new(Shared {
                attempts: AtomicU64::new(0),
                retries: AtomicU64::new(0),
                exhausted: AtomicU64::new(0),
                jitter: AtomicU64::new(self.policy.jitter_seed),
            }),
        }
    }
}

/// The [`RetryLayer`] service.
pub struct Retry<S> {
    inner: S,
    policy: RetryPolicy,
    shared: Arc<Shared>,
}

impl<S> Retry<S> {
    /// The wrapped service.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// The policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Counters so far.
    pub fn counters(&self) -> RetryCounters {
        RetryCounters {
            attempts: self.shared.attempts.load(Ordering::Relaxed),
            retries: self.shared.retries.load(Ordering::Relaxed),
            exhausted: self.shared.exhausted.load(Ordering::Relaxed),
        }
    }

    /// Advance the jitter stream one step and return the new state.
    fn next_jitter(&self) -> u64 {
        let prev = self
            .shared
            .jitter
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(splitmix64(s))
            })
            .expect("fetch_update closure never returns None");
        splitmix64(prev)
    }
}

impl<S: Service> Service for Retry<S> {
    fn call(&self, req: Request, ctx: &CallCtx) -> Result<Response, NetError> {
        let span = ctx.span("retry");
        // The budget is `min(caller's deadline, now + call_deadline)`:
        // `with_deadline` keeps the earlier instant, and the loop below
        // reads the deadline back *from the tightened ctx* — a caller
        // that granted less than the policy's allowance wins (§10:
        // layers only ever shrink the budget).
        let ctx = ctx.with_deadline(Instant::now() + self.policy.call_deadline);
        let deadline = ctx.deadline.expect("with_deadline always sets one");
        if Instant::now() >= deadline {
            // The caller arrived with nothing left: refuse rather than
            // burn an attempt that cannot finish inside the budget.
            span.verdict("deadline");
            return Err(NetError::DeadlineExceeded);
        }
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            self.shared.attempts.fetch_add(1, Ordering::Relaxed);
            if attempts > 1 {
                self.shared.retries.fetch_add(1, Ordering::Relaxed);
            }
            // A shed answer (`Response::Overloaded`) is retryable like an
            // error, but its backoff honors the server's hint: sleep at
            // least `retry_after_ms` — hammering a shedding server with
            // the normal (often shorter) backoff would feed the storm.
            let shed_hint = match self.inner.call(req.clone(), &ctx) {
                Ok(Response::Overloaded { retry_after_ms }) => Some(retry_after_ms),
                Ok(response) => {
                    span.verdict("ok");
                    return Ok(response);
                }
                Err(_) => None,
            };
            let give_up = |verdict: &'static str| {
                self.shared.exhausted.fetch_add(1, Ordering::Relaxed);
                span.verdict(verdict);
                match shed_hint {
                    // Typed, so breakers and callers see backpressure,
                    // not failure.
                    Some(retry_after_ms) => NetError::Overloaded { retry_after_ms },
                    None => NetError::Exhausted { attempts },
                }
            };
            if attempts >= self.policy.max_attempts || Instant::now() >= deadline {
                return Err(give_up("exhausted"));
            }
            let mut backoff = jittered_backoff(&self.policy, attempts, self.next_jitter());
            if let Some(retry_after_ms) = shed_hint {
                backoff = backoff.max(Duration::from_millis(retry_after_ms));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(give_up("exhausted"));
            }
            std::thread::sleep(backoff.min(remaining));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosConfig, ChaosProxy, FaultMode};
    use crate::ledger_server::{test_server, LedgerServer};
    use crate::service::{service_fn, stacks, Failover, ServiceExt, TcpTransport};
    use irs_core::time::TimeMs;

    #[test]
    fn succeeds_after_transient_failures() {
        let calls = Arc::new(AtomicU64::new(0));
        let calls_in = calls.clone();
        let svc = service_fn(move |_req, _ctx: &CallCtx| {
            if calls_in.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(NetError::ConnectionLost)
            } else {
                Ok(Response::Pong)
            }
        })
        .layered(RetryLayer::new(RetryPolicy::fast(7)));
        let ctx = CallCtx::at(TimeMs(0));
        assert_eq!(svc.call(Request::Ping, &ctx).unwrap(), Response::Pong);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        let c = svc.counters();
        assert_eq!(c.attempts, 3);
        assert_eq!(c.retries, 2);
        assert_eq!(c.exhausted, 0);
    }

    #[test]
    fn exhaustion_is_typed_and_counts_attempts() {
        let svc = service_fn(|_req, _ctx: &CallCtx| -> Result<Response, NetError> {
            Err(NetError::ConnectionLost)
        })
        .layered(RetryLayer::new(RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::fast(8)
        }));
        let ctx = CallCtx::at(TimeMs(0));
        match svc.call(Request::Ping, &ctx) {
            Err(NetError::Exhausted { attempts }) => assert_eq!(attempts, 3),
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert_eq!(svc.counters().exhausted, 1);
    }

    #[test]
    fn deadline_bounds_the_whole_call() {
        let policy = RetryPolicy {
            max_attempts: 1_000,
            call_deadline: Duration::from_millis(150),
            ..RetryPolicy::fast(9)
        };
        let svc = service_fn(|_req, _ctx: &CallCtx| -> Result<Response, NetError> {
            std::thread::sleep(Duration::from_millis(10));
            Err(NetError::ConnectionLost)
        })
        .layered(RetryLayer::new(policy));
        let start = Instant::now();
        assert!(matches!(
            svc.call(Request::Ping, &CallCtx::at(TimeMs(0))),
            Err(NetError::Exhausted { .. })
        ));
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "deadline must bound the call"
        );
    }

    #[test]
    fn inner_sees_the_retry_deadline() {
        let svc = service_fn(|_req, ctx: &CallCtx| {
            assert!(
                ctx.remaining().unwrap() <= Duration::from_millis(800),
                "fast policy grants at most 800ms"
            );
            Ok(Response::Pong)
        })
        .layered(RetryLayer::new(RetryPolicy::fast(10)));
        svc.call(Request::Ping, &CallCtx::at(TimeMs(0))).unwrap();
    }

    #[test]
    fn outer_deadline_tighter_than_policy_wins() {
        // The caller grants 20 ms; the retry policy would grant itself
        // 800 ms. The inner service must see the *caller's* budget —
        // retries must never extend a deadline the caller already
        // tightened.
        let tight = Duration::from_millis(20);
        let svc = service_fn(move |_req, ctx: &CallCtx| {
            let remaining = ctx.remaining().expect("deadline must be set");
            assert!(
                remaining <= tight,
                "retry extended the caller's {tight:?} budget to {remaining:?}"
            );
            Ok(Response::Pong)
        })
        .layered(RetryLayer::new(RetryPolicy::fast(11)));
        let ctx = CallCtx::at(TimeMs(0)).with_deadline(Instant::now() + tight);
        svc.call(Request::Ping, &ctx).unwrap();
    }

    #[test]
    fn expired_caller_deadline_fails_fast() {
        // No budget left on arrival: the loop must not burn an attempt.
        let calls = Arc::new(AtomicU64::new(0));
        let calls_in = calls.clone();
        let svc = service_fn(move |_req, _ctx: &CallCtx| {
            calls_in.fetch_add(1, Ordering::SeqCst);
            Ok(Response::Pong)
        })
        .layered(RetryLayer::new(RetryPolicy::fast(12)));
        let expired =
            CallCtx::at(TimeMs(0)).with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(matches!(
            svc.call(Request::Ping, &expired),
            Err(NetError::DeadlineExceeded)
        ));
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        assert_eq!(svc.counters().attempts, 0);
    }

    #[test]
    fn overloaded_answers_are_retried_with_the_server_hint() {
        // Shed twice with a 30 ms hint, then answer: the call succeeds,
        // and the two backoffs each waited at least the hint.
        let calls = Arc::new(AtomicU64::new(0));
        let calls_in = calls.clone();
        let svc = service_fn(move |_req, _ctx: &CallCtx| {
            if calls_in.fetch_add(1, Ordering::SeqCst) < 2 {
                Ok(Response::Overloaded { retry_after_ms: 30 })
            } else {
                Ok(Response::Pong)
            }
        })
        .layered(RetryLayer::new(RetryPolicy::fast(13)));
        let start = Instant::now();
        let resp = svc.call(Request::Ping, &CallCtx::at(TimeMs(0))).unwrap();
        assert_eq!(resp, Response::Pong);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert!(
            start.elapsed() >= Duration::from_millis(60),
            "each of the two backoffs must honor the 30 ms hint"
        );
    }

    #[test]
    fn persistent_shedding_surfaces_typed_overload_not_exhaustion() {
        let svc = service_fn(|_req, _ctx: &CallCtx| Ok(Response::Overloaded { retry_after_ms: 5 }))
            .layered(RetryLayer::new(RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::fast(14)
            }));
        match svc.call(Request::Ping, &CallCtx::at(TimeMs(0))) {
            Err(NetError::Overloaded { retry_after_ms: 5 }) => {}
            other => panic!("expected typed overload, got {other:?}"),
        }
        assert_eq!(svc.counters().attempts, 3);
        assert_eq!(svc.counters().exhausted, 1);
    }

    #[test]
    fn backoff_sequence_is_deterministic_and_capped() {
        let policy = RetryPolicy::fast(77);
        let draw = |_: ()| -> Vec<Duration> {
            let mut state = policy.jitter_seed;
            (1..6)
                .map(|n| {
                    state = splitmix64(state);
                    jittered_backoff(&policy, n, state)
                })
                .collect()
        };
        let a = draw(());
        let b = draw(());
        assert_eq!(a, b);
        assert!(a.iter().all(|d| *d <= policy.max_backoff));
        assert!(a.iter().all(|d| *d >= policy.base_backoff / 2));
    }

    /// `Retry(Failover(Tcp))` over `replicas` — the composition every
    /// recovering caller builds (the refresh worker, the ladder's core).
    fn tcp_stack(
        replicas: &[std::net::SocketAddr],
        policy: RetryPolicy,
    ) -> Retry<Failover<TcpTransport>> {
        Failover::new(stacks::transports(replicas, policy.io_timeout))
            .layered(RetryLayer::new(policy))
    }

    fn ledger_server() -> LedgerServer {
        test_server(0x2E5, "127.0.0.1:0")
    }

    /// A reserved port with nothing listening: connects are refused.
    fn dead_addr() -> std::net::SocketAddr {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    }

    #[test]
    fn retries_ride_through_partial_faults() {
        let server = ledger_server();
        let config =
            ChaosConfig::new(21, 0.5).with_modes(&[FaultMode::Reset, FaultMode::TruncateResponse]);
        let chaos = ChaosProxy::start(server.addr(), config).unwrap();
        let stack = tcp_stack(&[chaos.addr()], RetryPolicy::fast(2));
        let ok = (0..40)
            .filter(|_| stack.call(Request::Ping, &CallCtx::wall()).is_ok())
            .count();
        // 50% per-exchange faults, 5 attempts: effectively every call
        // lands (0.5^5 ≈ 3% residual, and 40 calls make the expected
        // failures ≈ 1). Require a strong majority to stay robust.
        assert!(ok >= 36, "only {ok}/40 calls survived 50% fault rate");
        assert!(
            stack.counters().retries > 0,
            "chaos must have forced retries"
        );
        chaos.shutdown();
        server.shutdown();
    }

    #[test]
    fn fails_over_to_live_replica() {
        // A dead primary plus a live replica: the first call must land
        // on the replica, and later calls stay there without retrying.
        let server = ledger_server();
        let stack = tcp_stack(&[dead_addr(), server.addr()], RetryPolicy::fast(3));
        let ctx = CallCtx::wall();
        assert_eq!(stack.call(Request::Ping, &ctx).unwrap(), Response::Pong);
        let failover = stack.get_ref();
        let rotations = failover.failovers();
        assert!(rotations >= 1);
        assert_eq!(failover.current_index(), 1);
        let retries = stack.counters().retries;
        for _ in 0..10 {
            assert_eq!(stack.call(Request::Ping, &ctx).unwrap(), Response::Pong);
        }
        assert_eq!(stack.counters().retries, retries);
        assert_eq!(failover.failovers(), rotations);
        server.shutdown();
    }

    #[test]
    fn exhaustion_is_typed_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 3,
            call_deadline: Duration::from_millis(400),
            ..RetryPolicy::fast(4)
        };
        let stack = tcp_stack(&[dead_addr()], policy);
        let start = Instant::now();
        match stack.call(Request::Ping, &CallCtx::wall()) {
            Err(NetError::Exhausted { attempts }) => assert!(attempts <= 3),
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "deadline must bound the call"
        );
        assert_eq!(stack.counters().exhausted, 1);
    }
}

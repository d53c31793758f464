//! The real-network prototype (§4.3: "we built a prototype ledger and
//! browser extension that performed revocation checks").
//!
//! One network engine serves every server, the event-loop **reactor**
//! ([`reactor`], [`mux`]): N worker threads run readiness loops over
//! non-blocking sockets; connection count is bounded by memory, not by
//! thread count, and clients multiplex pipelined requests over one
//! connection. [`LedgerServer`] and [`ProxyServer`] are reactors with
//! one [`Service`] behind them, and both answer every frame through one
//! rule, [`codec::answer`]. DESIGN.md §12 describes the architecture.
//! Blocking peers ([`client`], the [`chaos`] relay on [`server`]'s
//! accept-loop harness) speak the same frames through the same
//! [`codec`]; E19's thread-per-connection baseline is built on that
//! harness too.
//!
//! Shutdown is explicit and joins every worker/connection thread
//! (structured concurrency: no task outlives its component).
//!
//! * [`codec`] — u32-BE length-prefixed frames with a size cap: an
//!   encoder/decoder over reusable buffers, tolerant of partial
//!   reads/writes (what the reactor speaks), plus a blocking read/write
//!   pair with clean EOF handling;
//! * [`reactor`] — the epoll-based event loop: registration, readiness
//!   dispatch, per-connection state machines, bounded worker pool;
//! * [`mux`] — the multiplexing client: pipelined requests with
//!   correlation slots over one shared connection;
//! * [`server`] — the thread-per-connection accept-loop harness (the
//!   chaos relay's engine and E19's baseline);
//! * [`ledger_server`] — a shared [`irs_ledger::ConcurrentLedger`]
//!   behind the wire protocol;
//! * [`proxy_server`] — a shared [`irs_proxy::SharedProxy`] that answers
//!   locally when it can and forwards filter misses upstream;
//! * [`client`] — a blocking request/response client with timeouts;
//! * [`chaos`] — a seeded fault-injecting TCP relay;
//! * [`refresh`] — the proxy's hourly filter pull (tiered-first, legacy
//!   fallback) over the wire;
//! * [`resilient`] — the retry policy shared by every recovering path;
//! * [`service`] — the tower-style middleware stack (retry, failover,
//!   routing, breaker, stale-serve, cache, single-flight, shedding,
//!   admission, chaos as composable layers) every upstream path is
//!   built from.

pub mod chaos;
pub mod client;
pub mod codec;
pub mod ledger_server;
pub mod mux;
pub mod proxy_server;
pub mod reactor;
pub mod refresh;
pub mod resilient;
pub mod server;
pub mod service;

pub use chaos::{ChaosConfig, ChaosProxy, ChaosStats, FaultMode};
pub use client::LedgerClient;
pub use codec::{BytesBuf, FrameCodec};
pub use ledger_server::LedgerServer;
pub use mux::MuxClient;
pub use proxy_server::ProxyServer;
pub use reactor::{Reactor, ReactorConfig, ReactorHandle};
pub use refresh::{
    refresh_shared_filter, refresh_shared_filter_tiered, RefreshOutcome, RefreshWorker,
};
pub use resilient::RetryPolicy;
pub use server::ServerHandle;
pub use service::{BoxService, CallCtx, Layer, Service, ServiceExt};

/// Errors from the network layer.
#[derive(Debug)]
pub enum NetError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Frame exceeded the size cap or was malformed.
    Frame(&'static str),
    /// Peer closed the connection.
    Closed,
    /// Wire-codec failure on a received payload.
    Wire(irs_core::wire::WireError),
    /// The stream died mid-exchange (write failed, read timed out, or the
    /// peer vanished). The client holding it must [`reconnect`] before the
    /// next call — after a failed exchange the request/response framing
    /// can no longer be trusted to be in sync.
    ///
    /// [`reconnect`]: client::LedgerClient::reconnect
    ConnectionLost,
    /// A [`service::RetryLayer`] ran out of retry budget: every attempt
    /// failed and/or the per-call deadline elapsed.
    Exhausted {
        /// Attempts made (including the first).
        attempts: u32,
    },
    /// A [`service::BreakerLayer`] refused the call: the target ledger's
    /// circuit breaker is open.
    BreakerOpen,
    /// The call's wall-clock deadline elapsed before work could start
    /// (see [`service::RetryLayer`] and [`service::CallCtx::with_deadline`]).
    DeadlineExceeded,
    /// The server (or a local [`service::ShedLayer`] / governor) refused
    /// the call under overload. Distinct from [`NetError::ConnectionLost`]
    /// on purpose: the exchange path is healthy, so breakers must not
    /// count shed load as failure — the right reaction is backoff.
    Overloaded {
        /// Suggested wait before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// A [`service::Route`] could not converge on an owner for a keyed
    /// request: the target shard refused it with `WrongShard` even
    /// after the router refetched the directory. `epoch` is the
    /// router's map version at the final attempt.
    WrongShard {
        /// The router's shard-map epoch when it gave up.
        epoch: u64,
    },
}

impl NetError {
    /// A best-effort structural copy, for fanning one upstream error out
    /// to many waiters (single-flight followers).
    /// `NetError` is not `Clone` because `std::io::Error` is not; the
    /// replica of an [`NetError::Io`] preserves the kind and message.
    pub fn replicate(&self) -> NetError {
        match self {
            NetError::Io(e) => NetError::Io(std::io::Error::new(e.kind(), e.to_string())),
            NetError::Frame(what) => NetError::Frame(what),
            NetError::Closed => NetError::Closed,
            NetError::Wire(e) => NetError::Wire(e.clone()),
            NetError::ConnectionLost => NetError::ConnectionLost,
            NetError::Exhausted { attempts } => NetError::Exhausted {
                attempts: *attempts,
            },
            NetError::BreakerOpen => NetError::BreakerOpen,
            NetError::DeadlineExceeded => NetError::DeadlineExceeded,
            NetError::Overloaded { retry_after_ms } => NetError::Overloaded {
                retry_after_ms: *retry_after_ms,
            },
            NetError::WrongShard { epoch } => NetError::WrongShard { epoch: *epoch },
        }
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Frame(what) => write!(f, "framing error: {what}"),
            NetError::Closed => write!(f, "connection closed"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::ConnectionLost => write!(f, "connection lost mid-exchange"),
            NetError::Exhausted { attempts } => {
                write!(f, "retries exhausted after {attempts} attempt(s)")
            }
            NetError::BreakerOpen => write!(f, "circuit breaker open"),
            NetError::DeadlineExceeded => write!(f, "call deadline exceeded"),
            NetError::Overloaded { retry_after_ms } => {
                write!(f, "overloaded, retry after {retry_after_ms} ms")
            }
            NetError::WrongShard { epoch } => {
                write!(f, "shard routing did not converge at map epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<irs_core::wire::WireError> for NetError {
    fn from(e: irs_core::wire::WireError) -> Self {
        NetError::Wire(e)
    }
}

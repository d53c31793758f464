//! A ledger behind the wire protocol — the §4.3 "prototype ledger".
//!
//! The server runs on the [`reactor`](crate::reactor): a fixed pool of
//! worker threads runs readiness loops over non-blocking sockets, so
//! connection count is bounded by memory rather than by thread count,
//! and pipelined clients ([`crate::mux::MuxClient`]) multiplex many
//! requests per connection. Every frame is answered by
//! [`codec::answer`](crate::codec::answer) over one [`Service`] whose
//! innermost call is the ledger's own request path — optionally behind
//! admission control ([`LedgerServer::start_governed`]).
//!
//! Connections share one [`ConcurrentLedger`] behind a plain `Arc` and
//! call its `&self` request path directly: no whole-service mutex is
//! held across request handling, so independent connections proceed in
//! parallel (the E15 thread-scaling experiment measures the difference
//! against a whole-ledger mutex).

use crate::codec::{answer, FrameCodec};
use crate::reactor::{Reactor, ReactorConfig, ReactorHandle};
use crate::service::{
    service_fn, CallCtx, GovernorLayer, GovernorPolicy, Service, ServiceExt, ShedLayer, ShedPolicy,
};
use irs_ledger::sharded::DEFAULT_SHARDS;
use irs_ledger::ConcurrentLedger;
use std::net::SocketAddr;
use std::sync::Arc;

/// A running TCP ledger server.
pub struct LedgerServer {
    ledger: Arc<ConcurrentLedger>,
    handle: ReactorHandle,
}

/// The ledger's request path as a [`Service`]: it never fails, it
/// answers.
fn ledger_service(ledger: Arc<ConcurrentLedger>) -> impl Service + 'static {
    service_fn(move |req, ctx: &CallCtx| Ok(ledger.handle(req, ctx.now)))
}

impl LedgerServer {
    /// Start a *durable* ledger server: recover any state the disk holds
    /// (snapshot + WAL tail, tolerating a torn final record) **before**
    /// the listening socket accepts its first connection, then serve
    /// with every mutation write-ahead logged under `durability`'s fsync
    /// policy. A restart on the same disk therefore answers queries for
    /// every write it acknowledged before the crash. Recovery failures
    /// (mid-log corruption, generation mismatch) refuse to start — a
    /// ledger must never serve state it cannot vouch for.
    pub fn start_durable(
        config: irs_ledger::LedgerConfig,
        tsa: irs_core::tsa::TimestampAuthority,
        durability: irs_ledger::DurabilityConfig,
        addr: &str,
    ) -> std::io::Result<LedgerServer> {
        let ledger = ConcurrentLedger::recover(config, tsa, DEFAULT_SHARDS, durability)
            .map_err(|e| std::io::Error::other(format!("ledger recovery failed: {e}")))?;
        LedgerServer::start_shared(Arc::new(ledger), addr)
    }

    /// Start serving `ledger` on `addr` ("127.0.0.1:0" for ephemeral)
    /// with default reactor tuning. Callers keep their own `Arc` to
    /// drive the same instance from outside the server (publishes,
    /// appeals, stats, or attaching a shard directory with
    /// [`ConcurrentLedger::set_shard_directory`]). Reactor gauges and
    /// histograms land in the ledger's own registry, beside its
    /// counters.
    pub fn start_shared(
        ledger: Arc<ConcurrentLedger>,
        addr: &str,
    ) -> std::io::Result<LedgerServer> {
        let service = ledger_service(ledger.clone());
        LedgerServer::start(ledger, addr, ReactorConfig::default(), service)
    }

    /// Start with **priority admission control** in front of the
    /// ledger: every decoded request passes a per-connection
    /// token-bucket [`Governor`](crate::service::Governor) and a
    /// [`Shed`](crate::service::Shed) inflight gate *before* touching
    /// ledger state. Over-rate or over-capacity load is answered with
    /// `Response::Overloaded { retry_after_ms }` — an admission
    /// verdict, not a failure: retry layers back off by the hint and
    /// breakers do not count it against upstream health. The governor
    /// keys buckets on the reactor's per-connection id, so one abusive
    /// connection exhausts its own bucket while its neighbours keep
    /// their full rate.
    pub fn start_governed(
        ledger: Arc<ConcurrentLedger>,
        addr: &str,
        config: ReactorConfig,
        governor: GovernorPolicy,
        shed: ShedPolicy,
    ) -> std::io::Result<LedgerServer> {
        let registry = ledger.metrics().clone();
        let service = ledger_service(ledger.clone())
            .layered(ShedLayer::new(shed).with_registry(registry.clone()))
            .layered(GovernorLayer::new(governor).with_registry(registry));
        LedgerServer::start(ledger, addr, config, service)
    }

    /// Bind the reactor: reactor metrics in the ledger's registry,
    /// requests read under the request-frame cap, every frame answered
    /// by `service`.
    fn start(
        ledger: Arc<ConcurrentLedger>,
        addr: &str,
        mut config: ReactorConfig,
        service: impl Service + 'static,
    ) -> std::io::Result<LedgerServer> {
        config.registry = Some(ledger.metrics().clone());
        config.max_frame = FrameCodec::MAX_REQUEST_FRAME;
        let handle = Reactor::bind(
            addr,
            config,
            Arc::new(move |frame, conn| answer(&service, frame, conn)),
        )?;
        Ok(LedgerServer { ledger, handle })
    }

    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Shared access to the ledger (e.g. to publish filters or apply
    /// revocations while serving — every operation is `&self`).
    pub fn ledger(&self) -> Arc<ConcurrentLedger> {
        self.ledger.clone()
    }

    /// Open connections right now.
    pub fn live_connections(&self) -> usize {
        self.handle.live_connections()
    }

    /// Serving threads: the reactor's worker pool.
    pub fn serving_threads(&self) -> usize {
        self.handle.workers()
    }

    /// Stop the server and join all threads.
    pub fn shutdown(self) {
        self.handle.shutdown();
    }
}

/// Ledger 1, its timestamp authority seeded with `seed`, served on
/// `addr` — the fixture the crate's socket tests start from.
#[cfg(test)]
pub(crate) fn test_server(seed: u64, addr: &str) -> LedgerServer {
    let ledger = ConcurrentLedger::new(
        irs_ledger::LedgerConfig::new(irs_core::ids::LedgerId(1)),
        irs_core::tsa::TimestampAuthority::from_seed(seed),
    );
    LedgerServer::start_shared(Arc::new(ledger), addr).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::LedgerClient;
    use irs_core::claim::{ClaimRequest, RevocationStatus, RevokeRequest};
    use irs_core::ids::LedgerId;
    use irs_core::tsa::TimestampAuthority;
    use irs_core::wire::{Request, Response, Wire};
    use irs_crypto::{Digest, Keypair};
    use irs_ledger::LedgerConfig;

    const WIRE: FrameCodec = FrameCodec::new(FrameCodec::MAX_FRAME);

    fn server() -> LedgerServer {
        test_server(1, "127.0.0.1:0")
    }

    #[test]
    fn claim_query_revoke_over_tcp() {
        let server = server();
        let mut client = LedgerClient::connect(server.addr()).unwrap();
        let kp = Keypair::from_seed(&[1u8; 32]);
        let claim = ClaimRequest::create(&kp, &Digest::of(b"photo"));
        let Response::Claimed { id, .. } = client.call(&Request::Claim(claim)).unwrap() else {
            panic!("claim failed");
        };
        let Response::Status { status, epoch, .. } = client.call(&Request::Query { id }).unwrap()
        else {
            panic!("query failed");
        };
        assert_eq!(status, RevocationStatus::NotRevoked);
        let rv = RevokeRequest::create(&kp, id, true, epoch);
        let Response::RevokeAck { status, .. } = client.call(&Request::Revoke(rv)).unwrap() else {
            panic!("revoke failed");
        };
        assert_eq!(status, RevocationStatus::Revoked);
        server.shutdown();
    }

    #[test]
    fn malformed_request_gets_error_response() {
        let server = server();
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        WIRE.write(&mut stream, b"\xff\xffgarbage").unwrap();
        let frame = WIRE.read(&mut stream).unwrap();
        let Response::Error { code, .. } = Response::from_bytes(frame).unwrap() else {
            panic!("expected error response");
        };
        assert_eq!(code, irs_ledger::codes::BAD_REQUEST);
        server.shutdown();
    }

    /// A well-framed request carrying a tag this build doesn't know
    /// (a newer peer) gets a structured `Unsupported` answer — from the
    /// ledger and from a proxy in front of it alike — and the
    /// connection survives to serve the next, known request.
    #[test]
    fn unknown_request_tag_answered_not_fatal() {
        let server = server();
        let proxy = Arc::new(irs_proxy::SharedProxy::new(
            irs_proxy::ProxyConfig::default(),
        ));
        let stack = crate::service::stacks::plain_upstream(proxy.clone(), server.addr());
        let proxy = crate::ProxyServer::start_with_stack(proxy, "127.0.0.1:0", stack).unwrap();
        for addr in [server.addr(), proxy.addr()] {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            // Protocol version 1, then a tag far beyond anything assigned.
            WIRE.write(&mut stream, &[1u8, 0xee]).unwrap();
            let frame = WIRE.read(&mut stream).unwrap();
            let response = Response::from_bytes(frame).unwrap();
            assert_eq!(response, Response::Unsupported { tag: 0xee }, "from {addr}");
            // Same socket, known request: the decode failure must not
            // have poisoned the connection.
            WIRE.write(&mut stream, &Request::Ping.to_bytes().unwrap())
                .unwrap();
            let frame = WIRE.read(&mut stream).unwrap();
            assert_eq!(Response::from_bytes(frame).unwrap(), Response::Pong);
        }
        proxy.shutdown();
        server.shutdown();
    }

    #[test]
    fn ping_latency_sane() {
        let server = server();
        let mut client = LedgerClient::connect(server.addr()).unwrap();
        let start = std::time::Instant::now();
        for _ in 0..50 {
            assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
        }
        let per_call = start.elapsed().as_micros() / 50;
        // Loopback round trips should be well under 10 ms each.
        assert!(per_call < 10_000, "{per_call}µs per call");
        server.shutdown();
    }

    /// `Request::Metrics` over the wire returns a parseable exposition
    /// whose counters reflect the requests the server actually handled —
    /// now including the reactor's own gauges in the same registry.
    #[test]
    fn metrics_over_tcp_returns_parseable_exposition() {
        let server = server();
        let mut client = LedgerClient::connect(server.addr()).unwrap();
        let kp = Keypair::from_seed(&[6u8; 32]);
        let claim = ClaimRequest::create(&kp, &Digest::of(b"scraped"));
        let Response::Claimed { id, .. } = client.call(&Request::Claim(claim)).unwrap() else {
            panic!("claim failed");
        };
        client.call(&Request::Query { id }).unwrap();
        let Response::MetricsText(text) = client.call(&Request::Metrics).unwrap() else {
            panic!("expected metrics text");
        };
        let parsed = irs_obs::parse_exposition(&text);
        assert_eq!(parsed["irs_ledger_claims_total"], 1.0);
        assert_eq!(parsed["irs_ledger_queries_total"], 1.0);
        assert_eq!(parsed["irs_ledger_records"], 1.0);
        // Reactor metrics share the exposition: this very connection is
        // live, served by a bounded worker pool.
        assert_eq!(parsed["irs_net_live_connections"], 1.0);
        assert!(parsed["irs_net_reactor_workers"] >= 2.0);
        assert!(parsed["irs_net_frames_total"] >= 3.0);
        server.shutdown();
    }

    #[test]
    fn parallel_clients() {
        let server = server();
        let addr = server.addr();
        let threads: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut client = LedgerClient::connect(addr).unwrap();
                    let kp = Keypair::from_seed(&[i as u8 + 10; 32]);
                    let claim = ClaimRequest::create(&kp, &Digest::of(&[i as u8]));
                    let resp = client.call(&Request::Claim(claim)).unwrap();
                    assert!(matches!(resp, Response::Claimed { .. }));
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(server.ledger().store().len(), 4);
        server.shutdown();
    }

    #[test]
    fn mux_client_pipelines_against_default_server() {
        let server = server();
        let mux = Arc::new(crate::mux::MuxClient::connect(server.addr()).unwrap());
        let far = std::time::Instant::now() + std::time::Duration::from_secs(10);
        std::thread::scope(|scope| {
            for t in 0..4u8 {
                let mux = mux.clone();
                scope.spawn(move || {
                    let kp = Keypair::from_seed(&[t + 40; 32]);
                    let claim = ClaimRequest::create(&kp, &Digest::of(&[t]));
                    let Response::Claimed { id, .. } =
                        mux.call(&Request::Claim(claim), far).unwrap()
                    else {
                        panic!("claim failed");
                    };
                    let Response::Status { status, .. } =
                        mux.call(&Request::Query { id }, far).unwrap()
                    else {
                        panic!("query failed");
                    };
                    assert_eq!(status, RevocationStatus::NotRevoked);
                });
            }
        });
        // All eight exchanges shared one connection.
        assert_eq!(server.live_connections(), 1);
        assert_eq!(server.ledger().store().len(), 4);
        drop(mux);
        server.shutdown();
    }

    #[test]
    fn durable_server_recovers_acked_writes_across_restart() {
        use irs_ledger::{DurabilityConfig, FsyncPolicy, StdDisk};

        let dir = std::env::temp_dir().join(format!(
            "irs-net-durable-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let durability = || {
            DurabilityConfig::new(
                Arc::new(StdDisk::new(&dir).unwrap()) as Arc<dyn irs_ledger::Disk>,
                FsyncPolicy::Always,
            )
        };
        let config = irs_ledger::LedgerConfig::new(LedgerId(1));
        let tsa = TimestampAuthority::from_seed(9);

        // First life: claim + revoke over TCP, both acknowledged.
        let server =
            LedgerServer::start_durable(config.clone(), tsa.clone(), durability(), "127.0.0.1:0")
                .unwrap();
        let mut client = LedgerClient::connect(server.addr()).unwrap();
        let kp = Keypair::from_seed(&[3u8; 32]);
        let claim = ClaimRequest::create(&kp, &Digest::of(b"durable"));
        let Response::Claimed { id, .. } = client.call(&Request::Claim(claim)).unwrap() else {
            panic!("claim failed");
        };
        let rv = RevokeRequest::create(&kp, id, true, 0);
        assert!(matches!(
            client.call(&Request::Revoke(rv)).unwrap(),
            Response::RevokeAck { .. }
        ));
        server.shutdown();

        // Second life on the same disk: the revocation must be visible
        // before the first connection is accepted.
        let server = LedgerServer::start_durable(config, tsa, durability(), "127.0.0.1:0").unwrap();
        let mut client = LedgerClient::connect(server.addr()).unwrap();
        let Response::Status { status, .. } = client.call(&Request::Query { id }).unwrap() else {
            panic!("query failed after restart");
        };
        assert_eq!(status, RevocationStatus::Revoked);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_mutation_while_serving() {
        // `&self` ledger handle: external code can claim/revoke/publish
        // on the same instance the connection threads are serving.
        let server = server();
        let ledger = server.ledger();
        let kp = Keypair::from_seed(&[7u8; 32]);
        let req = ClaimRequest::create(&kp, &Digest::of(b"side"));
        let (id, _) = ledger.store().claim(
            req,
            irs_ledger::store::ClaimOrigin::Owner,
            true,
            irs_core::time::TimeMs(1),
        );
        ledger.publish_filter();
        let mut client = LedgerClient::connect(server.addr()).unwrap();
        let Response::Status { status, .. } = client.call(&Request::Query { id }).unwrap() else {
            panic!("query failed");
        };
        assert_eq!(status, RevocationStatus::Revoked);
        server.shutdown();
    }

    fn governed(governor: GovernorPolicy) -> LedgerServer {
        let ledger = ConcurrentLedger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(1),
        );
        LedgerServer::start_governed(
            Arc::new(ledger),
            "127.0.0.1:0",
            ReactorConfig {
                workers: 1,
                ..ReactorConfig::default()
            },
            governor,
            ShedPolicy::default(),
        )
        .unwrap()
    }

    /// `Response::Overloaded` end to end over a real socket: a governed
    /// server refuses over-rate queries with the typed admission answer
    /// (tag 16 survives the wire), while low-priority requests are never
    /// metered.
    #[test]
    fn governed_server_sheds_over_rate_load_on_a_live_socket() {
        let server = governed(GovernorPolicy {
            rate_per_sec: 1.0,
            burst: 2.0,
            spill_rate_per_sec: 0.0,
            spill_burst: 0.0,
            retry_after_ms: 40,
        });
        let mut client = LedgerClient::connect(server.addr()).unwrap();
        let id = irs_core::ids::RecordId::new(LedgerId(1), 9);
        let (mut served, mut shed) = (0, 0);
        for _ in 0..10 {
            match client.call(&Request::Query { id }).unwrap() {
                Response::Overloaded { retry_after_ms } => {
                    assert!(retry_after_ms >= 1, "hint must be actionable");
                    shed += 1;
                }
                _ => served += 1,
            }
        }
        assert!(served >= 1, "the burst allowance must be served");
        assert!(
            shed >= 1,
            "over-rate load must be shed, got {served} served"
        );
        // Low priority is never metered — even an exhausted bucket
        // still answers pings (health checks must not die first).
        assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
        server.shutdown();
    }

    /// Shed load crossing a real socket surfaces as the *typed*
    /// [`NetError::Overloaded`] after retry exhaustion — never
    /// `ConnectionLost` — and the client-side breaker does not count it
    /// as upstream failure.
    #[test]
    fn live_shed_load_is_typed_and_does_not_trip_client_breakers() {
        use crate::service::{
            BreakerLayer, Failover, RetryLayer, Service, ServiceExt, TcpTransport,
        };
        use crate::NetError;
        use irs_proxy::health::{BreakerConfig, BreakerState};
        use irs_proxy::{ProxyConfig, SharedProxy};
        use std::time::Duration;

        // A governor that refuses every metered request. Rate zero means
        // the hint falls back to the configured `retry_after_ms` instead
        // of the (infinite) time-to-one-token.
        let server = governed(GovernorPolicy {
            rate_per_sec: 0.0,
            burst: 0.0,
            spill_rate_per_sec: 0.0,
            spill_burst: 0.0,
            retry_after_ms: 5,
        });
        let proxy = Arc::new(
            SharedProxy::new(ProxyConfig::default()).with_breaker_config(BreakerConfig {
                failure_threshold: 2,
                open_cooldown_ms: 1_000,
            }),
        );
        let retry = crate::resilient::RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            call_deadline: Duration::from_secs(2),
            io_timeout: Duration::from_millis(500),
            jitter_seed: 7,
        };
        let svc = Failover::new(vec![TcpTransport::new(server.addr(), retry.io_timeout)])
            .layered(RetryLayer::new(retry))
            .layered(BreakerLayer::new(proxy.clone()));
        let id = irs_core::ids::RecordId::new(LedgerId(1), 9);
        let ctx = crate::service::CallCtx::wall();
        for _ in 0..4 {
            match svc.call(Request::Query { id }, &ctx) {
                Err(NetError::Overloaded { retry_after_ms }) => assert!(retry_after_ms >= 1),
                other => panic!("expected typed overload through the stack, got {other:?}"),
            }
        }
        assert_eq!(
            proxy.breaker(LedgerId(1)).state(),
            BreakerState::Closed,
            "shed load over a live socket must not open the breaker"
        );
        server.shutdown();
    }
}

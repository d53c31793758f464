//! The §4.3 prototype as an integration test: real TCP ledger + proxy on
//! loopback, exercised with the revoked-set filter and measured for the
//! properties the paper reports.

use irs::filters::BloomFilter;
use irs::ledger::{ConcurrentLedger, LedgerConfig};
use irs::net::service::stacks;
use irs::net::{LedgerClient, LedgerServer, ProxyServer};
use irs::protocol::ids::{LedgerId, RecordId};
use irs::protocol::wire::{Request, Response};
use irs::protocol::{Camera, RevocationStatus, RevokeRequest, TimestampAuthority};
use irs::proxy::{ProxyConfig, SharedProxy};
use std::sync::Arc;

#[test]
fn tcp_chain_blocks_revoked_and_reduces_load() {
    let ledger = ConcurrentLedger::new(
        LedgerConfig::new(LedgerId(1)),
        TimestampAuthority::from_seed(5),
    );
    let ledger_server = LedgerServer::start_shared(Arc::new(ledger), "127.0.0.1:0").unwrap();

    // Claim 30 photos, revoke 3.
    let mut owner = LedgerClient::connect(ledger_server.addr()).unwrap();
    let mut cam = Camera::new(4, 96, 96);
    let mut claimed = Vec::new();
    let mut revoked = Vec::new();
    for i in 0..30u64 {
        let shot = cam.capture(i);
        let Response::Claimed { id, .. } = owner.call(&Request::Claim(shot.claim)).unwrap() else {
            panic!("claim failed");
        };
        if i % 10 == 0 {
            let rv = RevokeRequest::create(&shot.keypair, id, true, 0);
            owner.call(&Request::Revoke(rv)).unwrap();
            revoked.push(id);
        }
        claimed.push(id);
    }

    // Proxy with the revoked-set filter.
    let mut filter = BloomFilter::for_capacity(1_000, 0.02).unwrap();
    for id in &revoked {
        filter.insert(id.filter_key());
    }
    let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
    proxy
        .update_filters(|fs| fs.apply_full(LedgerId(1), 1, filter.to_bytes()))
        .unwrap();
    let stack = stacks::plain_upstream(proxy.clone(), ledger_server.addr());
    let proxy_server = ProxyServer::start_with_stack(proxy, "127.0.0.1:0", stack).unwrap();

    // Browse all photos through the proxy.
    let mut browser = LedgerClient::connect(proxy_server.addr()).unwrap();
    let mut blocked = 0;
    for id in &claimed {
        let Response::Status { status, .. } = browser.call(&Request::Query { id: *id }).unwrap()
        else {
            panic!("query failed");
        };
        if !status.allows_viewing() {
            blocked += 1;
        }
    }
    assert_eq!(blocked, 3, "exactly the revoked photos are blocked");

    // Unclaimed photos answered locally too.
    for n in 0..20u64 {
        let ghost = RecordId::new(LedgerId(1), 10_000 + n);
        let Response::Status { status, .. } = browser.call(&Request::Query { id: ghost }).unwrap()
        else {
            panic!("query failed");
        };
        assert_eq!(status, RevocationStatus::NotRevoked);
    }

    // Load accounting: ≥ 50 lookups, only ~3 reached the ledger.
    {
        let stats = proxy_server.proxy().stats();
        assert_eq!(stats.lookups, 50);
        assert!(
            stats.ledger_queries <= 5,
            "{} ledger queries",
            stats.ledger_queries
        );
        assert!(stats.load_reduction() >= 10.0);
    }

    proxy_server.shutdown();
    ledger_server.shutdown();
}

#[test]
fn filter_fetch_over_wire() {
    // A proxy bootstraps its filter via the wire protocol.
    let ledger = ConcurrentLedger::new(
        LedgerConfig::new(LedgerId(1)),
        TimestampAuthority::from_seed(6),
    );
    // One revoked record.
    let mut cam = Camera::new(8, 96, 96);
    let shot = cam.capture(0);
    let Response::Claimed { id, .. } =
        ledger.handle(Request::Claim(shot.claim), irs::protocol::time::TimeMs(0))
    else {
        panic!()
    };
    let rv = RevokeRequest::create(&shot.keypair, id, true, 0);
    ledger.handle(Request::Revoke(rv), irs::protocol::time::TimeMs(1));
    ledger.publish_filter();

    let server = LedgerServer::start_shared(Arc::new(ledger), "127.0.0.1:0").unwrap();
    let mut client = LedgerClient::connect(server.addr()).unwrap();
    let Response::FilterFull { version, data } = client
        .call(&Request::GetFilter { have_version: 0 })
        .unwrap()
    else {
        panic!("expected full filter");
    };
    let proxy = SharedProxy::with_shards(ProxyConfig::default(), 1);
    proxy
        .update_filters(|fs| fs.apply_full(LedgerId(1), version, data))
        .unwrap();
    // The revoked id hits; a fresh id misses.
    use irs::proxy::LookupOutcome;
    assert_eq!(
        proxy.lookup(id, irs::protocol::time::TimeMs(10)),
        LookupOutcome::NeedsLedgerQuery
    );
    assert_eq!(
        proxy.lookup(
            RecordId::new(LedgerId(1), 999),
            irs::protocol::time::TimeMs(10)
        ),
        LookupOutcome::NotRevokedByFilter
    );
    server.shutdown();
}

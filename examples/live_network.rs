//! The §4.3 prototype, live on loopback TCP: a real ledger server, a real
//! anonymizing proxy in front of it, and a "browser" client validating
//! photos through the chain. Measures actual wall-clock check latency.
//!
//! ```sh
//! cargo run --example live_network
//! ```

use irs::filters::BloomFilter;
use irs::ledger::{ConcurrentLedger, LedgerConfig};
use irs::net::service::stacks;
use irs::net::{LedgerClient, LedgerServer, ProxyServer};
use irs::protocol::ids::{LedgerId, RecordId};
use irs::protocol::wire::{Request, Response};
use irs::protocol::{Camera, RevokeRequest, TimestampAuthority};
use irs::proxy::{ProxyConfig, SharedProxy};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // Start the ledger server.
    let ledger = ConcurrentLedger::new(
        LedgerConfig::new(LedgerId(1)),
        TimestampAuthority::from_seed(1),
    );
    let ledger_server =
        LedgerServer::start_shared(Arc::new(ledger), "127.0.0.1:0").expect("ledger server");
    println!("ledger listening on {}", ledger_server.addr());

    // Owner claims 100 photos directly with the ledger; revokes 5.
    let mut owner = LedgerClient::connect(ledger_server.addr()).expect("owner connect");
    let mut camera = Camera::new(9, 128, 128);
    let mut claimed: Vec<RecordId> = Vec::new();
    let mut revoked: Vec<RecordId> = Vec::new();
    for i in 0..100u64 {
        let shot = camera.capture(i);
        let Response::Claimed { id, .. } =
            owner.call(&Request::Claim(shot.claim)).expect("claim call")
        else {
            panic!("claim failed");
        };
        if i % 20 == 0 {
            let rv = RevokeRequest::create(&shot.keypair, id, true, 0);
            owner.call(&Request::Revoke(rv)).expect("revoke call");
            revoked.push(id);
        }
        claimed.push(id);
    }
    println!(
        "claimed {} photos, revoked {}",
        claimed.len(),
        revoked.len()
    );

    // Proxy with the ledger's revoked-set filter, in front: photos whose
    // id misses the filter are answered locally as not-revoked.
    let mut filter = BloomFilter::for_capacity(10_000, 0.02).expect("filter");
    for id in &revoked {
        filter.insert(id.filter_key());
    }
    let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
    proxy
        .update_filters(|fs| fs.apply_full(LedgerId(1), 1, filter.to_bytes()))
        .expect("install filter");
    let stack = stacks::plain_upstream(proxy.clone(), ledger_server.addr());
    let proxy_server =
        ProxyServer::start_with_stack(proxy, "127.0.0.1:0", stack).expect("proxy server");
    println!("proxy listening on {}", proxy_server.addr());

    // The "browser": validate a mix of claimed, revoked, and unclaimed
    // photos through the proxy, timing every check.
    let mut browser = LedgerClient::connect(proxy_server.addr()).expect("browser connect");
    let mut latencies_us: Vec<u128> = Vec::new();
    let mut blocked = 0u32;
    for round in 0..3 {
        for (i, &id) in claimed.iter().enumerate() {
            let start = Instant::now();
            let Response::Status { status, .. } =
                browser.call(&Request::Query { id }).expect("query")
            else {
                panic!("unexpected response");
            };
            latencies_us.push(start.elapsed().as_micros());
            if round == 0 && !status.allows_viewing() {
                blocked += 1;
            }
            // Sprinkle in unclaimed ids (filter answers these locally).
            if i % 3 == 0 {
                let ghost = RecordId::new(LedgerId(1), 1_000_000 + i as u64);
                let start = Instant::now();
                browser.call(&Request::Query { id: ghost }).expect("query");
                latencies_us.push(start.elapsed().as_micros());
            }
        }
    }
    latencies_us.sort_unstable();
    let p = |q: f64| latencies_us[(latencies_us.len() as f64 * q) as usize];
    println!(
        "validated {} photos ({} blocked as revoked on first pass)",
        latencies_us.len(),
        blocked
    );
    println!(
        "check latency over loopback: p50={}µs p90={}µs p99={}µs",
        p(0.50),
        p(0.90),
        p(0.99)
    );
    {
        let stats = proxy_server.proxy().stats();
        println!(
            "proxy stats: {} lookups, {} ledger queries ({:.1}× load reduction)",
            stats.lookups,
            stats.ledger_queries,
            stats.load_reduction()
        );
    }

    proxy_server.shutdown();
    ledger_server.shutdown();
    println!("servers shut down cleanly");
}

//! The production-shaped deployment, in one process: a durable
//! `ConcurrentLedger` (WAL on local disk, `FsyncPolicy::Always`) behind
//! `LedgerServer`, and a `SharedProxy` behind `ProxyServer` with the
//! canonical `full_upstream` ladder. Its filter set holds the real
//! ledger's tiered filter plus synthetic ledgers' filters sized past a
//! core's L2 cache.

use crate::trace::{self, SpanSink};
use crate::workload::{Inputs, LEDGER};
use irs_core::ids::LedgerId;
use irs_core::time::{Clock as _, SystemClock};
use irs_core::tsa::TimestampAuthority;
use irs_core::wire::{Request, Response};
use irs_filters::{TieredConfig, TieredPublisher, TieredServe};
use irs_ledger::{ConcurrentLedger, DurabilityConfig, FsyncPolicy, LedgerConfig, StdDisk};
use irs_net::resilient::RetryPolicy;
use irs_net::service::{stacks, TcpTransport};
use irs_net::{refresh_shared_filter_tiered, LedgerClient, LedgerServer, ProxyServer};
use irs_proxy::{ProxyConfig, SharedProxy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Status-cache entries: 2.5 % of the revoked set, so filter hits on
/// revoked records mostly miss the cache.
const CACHE_CAPACITY: usize = 128;
/// Synthetic ledgers whose revoked sets join the proxy's filter set.
const SYNTH_LEDGERS: u64 = 2;
/// Revoked keys per synthetic ledger: with fuse8 at ~9.8 bits/key the
/// two bases hold ~4.9 MB, more than one core's L2 (E23's large-key
/// regime).
const SYNTH_KEYS: usize = 2_000_000;
/// Stripes of the durable ledger.
const LEDGER_SHARDS: usize = 16;

/// A running deployment.
pub struct Deployment {
    /// The served ledger.
    pub ledger: Arc<ConcurrentLedger>,
    /// Its server.
    pub ledger_server: LedgerServer,
    /// The proxy state shared by both proxy servers.
    pub proxy: Arc<SharedProxy>,
    /// The proxy with the production ladder.
    pub proxy_server: ProxyServer,
    /// The proxy with the traced ladder (trace runs only).
    pub traced: Option<(ProxyServer, Arc<SpanSink>, Arc<TcpTransport>)>,
    /// The WAL's directory (removed at shutdown).
    pub wal_dir: PathBuf,
}

/// One synthetic ledger's revoked set (`SYNTH_KEYS` seeded random keys)
/// run through the public tiered publisher; returns the full tiered
/// state a proxy is served on first contact.
fn synthetic_filter(seed: u64, cfg: TieredConfig) -> TieredServe {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys = HashSet::with_capacity(SYNTH_KEYS);
    while keys.len() < SYNTH_KEYS {
        keys.insert(rng.gen::<u64>());
    }
    let mut publisher = TieredPublisher::new(cfg).expect("valid tiered config");
    publisher.publish(&keys).expect("synthetic publish");
    publisher.snapshot().serve(0, 0)
}

/// Install a first-contact tiered state through `FilterSet`'s apply path.
fn install(proxy: &SharedProxy, ledger: LedgerId, served: TieredServe) {
    let TieredServe::Tiered {
        epoch,
        base,
        delta_version,
        delta,
    } = served
    else {
        panic!("a first contact is served the full tiered state");
    };
    proxy
        .update_filters(|f| f.apply_tiered(ledger, epoch, base, delta_version, delta))
        .expect("synthetic tiered filter installs");
}

impl Deployment {
    /// Stand the deployment up under `root` and preload it.
    pub fn start(inputs: &Inputs, seed: u64, root: &Path, traced: bool) -> Deployment {
        let wal_dir = root.join(format!("wal-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal_dir);
        std::fs::create_dir_all(&wal_dir).expect("create WAL directory");
        let disk = Arc::new(StdDisk::new(&wal_dir).expect("open WAL directory"));
        let mut config = LedgerConfig::new(LEDGER);
        config.filter_capacity = inputs.layout.records() * 2;
        let tiered = config.tiered;
        let ledger = Arc::new(
            ConcurrentLedger::recover(
                config,
                TimestampAuthority::from_seed(seed),
                LEDGER_SHARDS,
                DurabilityConfig::new(disk, FsyncPolicy::Always),
            )
            .expect("fresh WAL recovers"),
        );
        // The synthetic builds take a core each, beside the fsync-bound
        // preload.
        let synthetic: Vec<TieredServe> = std::thread::scope(|s| {
            let builds: Vec<_> = (0..SYNTH_LEDGERS)
                .map(|i| s.spawn(move || synthetic_filter(inputs.synth_seed ^ i, tiered)))
                .collect();
            preload(&ledger, inputs);
            ledger.publish_filter();
            builds
                .into_iter()
                .map(|b| b.join().expect("synthetic filter build panicked"))
                .collect()
        });
        let ledger_server =
            LedgerServer::start_shared(ledger.clone(), "127.0.0.1:0").expect("bind ledger");
        let proxy = Arc::new(SharedProxy::new(ProxyConfig {
            cache_capacity: CACHE_CAPACITY,
            ..ProxyConfig::default()
        }));
        for (i, served) in synthetic.into_iter().enumerate() {
            install(&proxy, LedgerId(100 + i as u16), served);
        }
        let mut client =
            LedgerClient::connect(ledger_server.addr()).expect("connect refresh client");
        refresh_shared_filter_tiered(&proxy, &mut client, LEDGER).expect("initial refresh");
        let retry = RetryPolicy::default();
        let stack = stacks::full_upstream(proxy.clone(), vec![ledger_server.addr()], retry);
        let proxy_server =
            ProxyServer::start_with_stack(proxy.clone(), "127.0.0.1:0", stack).expect("bind proxy");
        let traced = traced.then(|| {
            let sink = SpanSink::new();
            let (stack, transport) =
                trace::traced_full_upstream(proxy.clone(), ledger_server.addr(), retry, &sink);
            let server = ProxyServer::start_with_stack(proxy.clone(), "127.0.0.1:0", stack)
                .expect("bind traced proxy");
            (server, sink, transport)
        });
        Deployment {
            ledger,
            ledger_server,
            proxy,
            proxy_server,
            traced,
            wal_dir,
        }
    }

    /// Stop every server, join their threads, and remove the WAL.
    pub fn shutdown(self) {
        if let Some((server, _, _)) = self.traced {
            server.shutdown();
        }
        self.proxy_server.shutdown();
        self.ledger_server.shutdown();
        drop(self.ledger);
        let _ = std::fs::remove_dir_all(&self.wal_dir);
    }
}

/// Claim every preloaded record in serial order through the ledger's
/// public request path (durably, one fsync per claim): revoke targets,
/// replay targets and live records unrevoked, then the revoked records.
fn preload(ledger: &ConcurrentLedger, inputs: &Inputs) {
    let now = SystemClock.now();
    let owned = inputs.targets.iter().chain(&inputs.replay).map(|p| p.claim);
    let live = (0..crate::workload::LIVE).map(|_| inputs.bulk_claim);
    for claim in owned.chain(live) {
        let response = ledger.handle(Request::Claim(claim), now);
        assert!(
            matches!(response, Response::Claimed { .. }),
            "preload claim failed: {response:?}"
        );
    }
    for _ in 0..crate::workload::REVOKED {
        ledger
            .claim_revoked(inputs.bulk_claim, now)
            .expect("preload revoked claim");
    }
    assert_eq!(ledger.store().len() as u64, inputs.layout.records());
}

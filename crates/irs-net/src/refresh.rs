//! Wire-level filter refresh: how a proxy keeps its revoked-set filters
//! current over the network (§4.4's hourly publication, on real sockets).
//!
//! One core per pipeline, each over a fetch closure against a
//! [`SharedProxy`]: the legacy Bloom pipeline ([`refresh_shared_filter`])
//! and the tiered one ([`refresh_shared_filter_tiered`], falling back to
//! the legacy flow when a pre-tiered server answers `Unsupported`). The
//! public functions fetch over a plain [`LedgerClient`];
//! [`RefreshWorker`] fetches over a composed `Retry(Failover)` stack.
//! Both cores run the version check and the apply inside one
//! `update_filters` transaction, so concurrent lookups keep reading the
//! old snapshot until the new one swaps in, and two racing refreshes
//! cannot interleave their version reads and writes.
//!
//! [`RefreshWorker`] runs the shared refresh on a background thread and
//! is built to survive a hostile network: a down ledger costs a failure
//! counter and a backed-off retry, never a teardown — lookups keep
//! serving the last-good snapshot throughout (the degradation ladder's
//! "stale filters beat no filters" rung).

use crate::client::LedgerClient;
use crate::resilient::RetryPolicy;
use crate::service::{CallCtx, Failover, RetryLayer, Service, ServiceExt, TransportPool};
use crate::NetError;
use irs_core::ids::LedgerId;
use irs_core::time::{Clock, SystemClock};
use irs_core::wire::{Request, Response};
use irs_obs::{Counter, Gauge};
use irs_proxy::filterset::FilterSet;
use irs_proxy::SharedProxy;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a refresh round did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefreshOutcome {
    /// Installed a full snapshot (first contact or version gap).
    InstalledFull {
        /// New version held.
        version: u64,
        /// Snapshot bytes transferred.
        bytes: usize,
    },
    /// Applied a delta (legacy filter version or tiered delta tier).
    AppliedDelta {
        /// New version held.
        version: u64,
        /// Delta bytes transferred.
        bytes: usize,
    },
    /// Installed a full tiered state (bootstrap or multi-epoch resync).
    InstalledTiered {
        /// Epoch held after the install.
        epoch: u64,
        /// Delta version held within that epoch.
        version: u64,
        /// Base + delta bytes transferred.
        bytes: usize,
    },
    /// Rolled onto a freshly sealed base tier (single-epoch advance; the
    /// delta tier was cleared locally, no delta bytes shipped).
    RolledEpoch {
        /// The newly sealed epoch.
        epoch: u64,
        /// Base bytes transferred.
        bytes: usize,
    },
    /// Already current (ledger sent an empty delta).
    AlreadyCurrent,
}

/// Pull the ledger's current filter into the proxy, using a delta when the
/// proxy's held version allows it. The wire call happens outside any
/// lock; the version check and apply run inside one filter-set
/// transaction, and in-flight lookups are never blocked for longer than
/// the snapshot pointer swap.
pub fn refresh_shared_filter(
    proxy: &SharedProxy,
    client: &mut LedgerClient,
    ledger: LedgerId,
) -> Result<RefreshOutcome, NetError> {
    refresh_legacy(proxy, ledger, &mut |req| client.call(&req))
}

/// Epoch-aware refresh against the tiered pipeline (DESIGN.md §16):
/// sends [`Request::GetFilterTiered`] with the held `(epoch, version)`
/// and applies whichever tier the serve matrix answers with. The wire
/// call runs outside any lock, and the `(epoch, version)` recheck plus
/// the apply run inside one `update_filters` transaction. A server
/// predating the tiered pipeline answers [`Response::Unsupported`], and
/// the refresh degrades to the legacy [`refresh_shared_filter`] flow in
/// the same round.
pub fn refresh_shared_filter_tiered(
    proxy: &SharedProxy,
    client: &mut LedgerClient,
    ledger: LedgerId,
) -> Result<RefreshOutcome, NetError> {
    refresh_tiered(proxy, ledger, &mut |req| client.call(&req))
}

/// One wire round trip for a refresh core.
type Fetch<'a> = dyn FnMut(Request) -> Result<Response, NetError> + 'a;

/// The legacy pipeline's core: fetch outside any lock, then recheck the
/// held version and apply inside one transaction.
fn refresh_legacy(
    proxy: &SharedProxy,
    ledger: LedgerId,
    fetch: &mut Fetch<'_>,
) -> Result<RefreshOutcome, NetError> {
    let have = proxy.filters_snapshot().version(ledger);
    let response = fetch(Request::GetFilter { have_version: have })?;
    proxy.update_filters(|filters| {
        // Another refresher may have advanced the set between our
        // snapshot read and this transaction; re-check inside it.
        if filters.version(ledger) != have {
            return Ok(RefreshOutcome::AlreadyCurrent);
        }
        apply_response(filters, ledger, response)
    })
}

/// The tiered pipeline's core, with the legacy fallback for a server
/// that answers `Unsupported` (a pre-tiered peer during a rolling
/// upgrade).
fn refresh_tiered(
    proxy: &SharedProxy,
    ledger: LedgerId,
    fetch: &mut Fetch<'_>,
) -> Result<RefreshOutcome, NetError> {
    let have = proxy.filters_snapshot().tiered_state(ledger);
    let response = fetch(Request::GetFilterTiered {
        have_epoch: have.0,
        have_version: have.1,
    })?;
    if matches!(response, Response::Unsupported { .. }) {
        return refresh_legacy(proxy, ledger, fetch);
    }
    proxy.update_filters(|filters| {
        if filters.tiered_state(ledger) != have {
            return Ok(RefreshOutcome::AlreadyCurrent);
        }
        apply_tiered_response(filters, ledger, response)
    })
}

fn apply_response(
    filters: &mut FilterSet,
    ledger: LedgerId,
    response: Response,
) -> Result<RefreshOutcome, NetError> {
    match response {
        Response::FilterFull { version, data } => {
            let bytes = data.len();
            filters
                .apply_full(ledger, version, data)
                .map_err(|_| NetError::Frame("filter payload rejected"))?;
            Ok(RefreshOutcome::InstalledFull { version, bytes })
        }
        Response::FilterDelta {
            from_version,
            to_version,
            data,
        } => {
            if from_version == to_version {
                return Ok(RefreshOutcome::AlreadyCurrent);
            }
            let bytes = data.len();
            filters
                .apply_delta(ledger, from_version, to_version, data)
                .map_err(|_| NetError::Frame("filter delta rejected"))?;
            Ok(RefreshOutcome::AppliedDelta {
                version: to_version,
                bytes,
            })
        }
        Response::Error { .. } => Err(NetError::Frame("ledger has no published filter")),
        _ => Err(NetError::Frame("unexpected response to GetFilter")),
    }
}

fn apply_tiered_response(
    filters: &mut FilterSet,
    ledger: LedgerId,
    response: Response,
) -> Result<RefreshOutcome, NetError> {
    match response {
        Response::FilterTiered {
            epoch,
            base,
            delta_version,
            delta,
        } => {
            let bytes = base.len() + delta.len();
            filters
                .apply_tiered(ledger, epoch, base, delta_version, delta)
                .map_err(|_| NetError::Frame("tiered filter payload rejected"))?;
            Ok(RefreshOutcome::InstalledTiered {
                epoch,
                version: delta_version,
                bytes,
            })
        }
        Response::FilterBase { epoch, data } => {
            let bytes = data.len();
            filters
                .apply_base(ledger, epoch, data)
                .map_err(|_| NetError::Frame("tiered base payload rejected"))?;
            Ok(RefreshOutcome::RolledEpoch { epoch, bytes })
        }
        Response::FilterDelta {
            from_version,
            to_version,
            data,
        } => {
            if from_version == to_version {
                return Ok(RefreshOutcome::AlreadyCurrent);
            }
            let bytes = data.len();
            filters
                .apply_tiered_delta(ledger, from_version, to_version, data)
                .map_err(|_| NetError::Frame("tiered delta rejected"))?;
            Ok(RefreshOutcome::AppliedDelta {
                version: to_version,
                bytes,
            })
        }
        Response::Error { .. } => Err(NetError::Frame("ledger has no published filter")),
        _ => Err(NetError::Frame("unexpected response to GetFilterTiered")),
    }
}

/// Point-in-time counters from a [`RefreshWorker`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefreshWorkerStats {
    /// Refresh rounds attempted.
    pub rounds: u64,
    /// Rounds that failed (wire error or rejected payload).
    pub failures: u64,
    /// Current run of failed rounds; 0 after any success.
    pub consecutive_failures: u32,
    /// Rounds that installed or advanced a filter.
    pub installs: u64,
}

/// One shard's refresh state: its own counters (also exposed in the
/// registry as `irs_refresh_shard_<id>_*`) and its own failure run —
/// backoff is **per shard**, so a dead shard backing off never delays a
/// healthy shard's refresh.
struct ShardRefresh {
    ledger: LedgerId,
    replicas: Vec<SocketAddr>,
    rounds: Counter,
    failures: Counter,
    consecutive_failures: Gauge,
    installs: Counter,
    filter_version: Gauge,
    /// Tiered base epoch held for this shard (0 until the shard's ledger
    /// seals one or the proxy bootstraps tiered state).
    filter_epoch: Gauge,
}

/// The worker's counters live in the proxy's metrics [`Registry`]
/// (`irs_refresh_*` aggregates plus `irs_refresh_shard_<id>_*` per
/// shard), so a scrape of the proxy shows filter freshness alongside
/// the request path.
///
/// [`Registry`]: irs_obs::Registry
struct WorkerShared {
    stop: AtomicBool,
    rounds: Counter,
    failures: Counter,
    consecutive_failures: Gauge,
    installs: Counter,
    shards: Vec<ShardRefresh>,
}

impl WorkerShared {
    /// Lift the worst per-shard failure run into the aggregate gauge.
    fn update_consecutive(&self) {
        let max = self
            .shards
            .iter()
            .map(|s| s.consecutive_failures.get())
            .max()
            .unwrap_or(0);
        self.consecutive_failures.set(max);
    }
}

/// Background threads that keep a served [`SharedProxy`]'s filters
/// current, riding through ledger outages instead of dying with them.
///
/// One thread per shard: each shard's filter version, failure counters,
/// and backoff schedule are independent, so a down shard retries on its
/// own backoff schedule (a quarter of the interval after the first
/// failure, half after the second, the full interval from the third
/// on) while every healthy shard keeps its steady-state cadence. Each
/// round refreshes tiered-first
/// ([`refresh_shared_filter_tiered`]'s flow, over a `Retry(Failover)`
/// stack) and installs into the shard's own per-ledger slot of the
/// [`FilterSet`] — filters are per-ledger already, so shard-awareness is
/// purely a scheduling concern. Threads only exit on [`stop`].
///
/// [`stop`]: RefreshWorker::stop
pub struct RefreshWorker {
    shared: Arc<WorkerShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl RefreshWorker {
    /// Spawn a single-shard worker — the unsharded deployment's shape
    /// (and the pre-sharding API, kept verbatim).
    pub fn spawn(
        proxy: Arc<SharedProxy>,
        replicas: Vec<SocketAddr>,
        ledger: LedgerId,
        interval: Duration,
        policy: RetryPolicy,
    ) -> RefreshWorker {
        RefreshWorker::spawn_sharded(proxy, vec![(ledger, replicas)], interval, policy)
    }

    /// Spawn one refresh thread per shard. Each entry is a shard's
    /// ledger id plus its replica addresses (primary first — the
    /// failover order); `interval` is the steady-state refresh period
    /// (§4.4's "hourly", shrunk for tests); `policy` bounds each fetch.
    /// All threads draw connections from one shared [`TransportPool`],
    /// so a refresh and a query stack dialing the same replica share a
    /// socket — and a poisoned connection to one shard stays that
    /// shard's problem.
    pub fn spawn_sharded(
        proxy: Arc<SharedProxy>,
        shards: Vec<(LedgerId, Vec<SocketAddr>)>,
        interval: Duration,
        policy: RetryPolicy,
    ) -> RefreshWorker {
        let registry = proxy.metrics();
        let shard_states: Vec<ShardRefresh> = shards
            .into_iter()
            .map(|(ledger, replicas)| {
                let p = format!("irs_refresh_shard_{}", ledger.0);
                ShardRefresh {
                    ledger,
                    replicas,
                    rounds: registry.counter(&format!("{p}_rounds_total")),
                    failures: registry.counter(&format!("{p}_failures_total")),
                    consecutive_failures: registry.gauge(&format!("{p}_consecutive_failures")),
                    installs: registry.counter(&format!("{p}_installs_total")),
                    filter_version: registry.gauge(&format!("{p}_filter_version")),
                    filter_epoch: registry.gauge(&format!("{p}_filter_epoch")),
                }
            })
            .collect();
        let shared = Arc::new(WorkerShared {
            stop: AtomicBool::new(false),
            rounds: registry.counter("irs_refresh_rounds_total"),
            failures: registry.counter("irs_refresh_failures_total"),
            consecutive_failures: registry.gauge("irs_refresh_consecutive_failures"),
            installs: registry.counter("irs_refresh_installs_total"),
            shards: shard_states,
        });
        let pool = Arc::new(TransportPool::new(policy.io_timeout));
        let handles = (0..shared.shards.len())
            .map(|i| {
                let proxy = proxy.clone();
                let shared = shared.clone();
                let pool = pool.clone();
                std::thread::spawn(move || run_shard(&proxy, &shared, i, &pool, interval, policy))
            })
            .collect();
        RefreshWorker { shared, handles }
    }

    /// Aggregate counters across shards (`consecutive_failures` is the
    /// worst shard's current run).
    pub fn stats(&self) -> RefreshWorkerStats {
        RefreshWorkerStats {
            rounds: self.shared.rounds.get(),
            failures: self.shared.failures.get(),
            consecutive_failures: self.shared.consecutive_failures.get() as u32,
            installs: self.shared.installs.get(),
        }
    }

    /// Per-shard counters, in spawn order.
    pub fn shard_stats(&self) -> Vec<(LedgerId, RefreshWorkerStats)> {
        self.shared
            .shards
            .iter()
            .map(|s| {
                (
                    s.ledger,
                    RefreshWorkerStats {
                        rounds: s.rounds.get(),
                        failures: s.failures.get(),
                        consecutive_failures: s.consecutive_failures.get() as u32,
                        installs: s.installs.get(),
                    },
                )
            })
            .collect()
    }

    /// Signal every shard thread and join them all.
    pub fn stop(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// One shard's refresh loop (one thread).
fn run_shard(
    proxy: &SharedProxy,
    shared: &WorkerShared,
    index: usize,
    pool: &Arc<TransportPool>,
    interval: Duration,
    policy: RetryPolicy,
) {
    let st = &shared.shards[index];
    let transports: Vec<_> = st.replicas.iter().map(|&a| pool.transport(a)).collect();
    let stack = Failover::new(transports).layered(RetryLayer::new(policy));
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        st.rounds.inc();
        shared.rounds.inc();
        // Every fetch (the fallback's included) records its outcome into
        // the proxy's per-ledger breaker, so the query path shares one
        // view of upstream health.
        let outcome = refresh_tiered(proxy, st.ledger, &mut |req| {
            let result = stack.call(req, &CallCtx::at(SystemClock.now()));
            proxy.record_upstream(st.ledger, result.is_ok(), SystemClock.now());
            result
        });
        let delay = match outcome {
            Ok(outcome) => {
                if !matches!(outcome, RefreshOutcome::AlreadyCurrent) {
                    st.installs.inc();
                    shared.installs.inc();
                }
                st.consecutive_failures.set(0);
                // Gauge whichever pipeline the shard is on: tiered state
                // when installed, else the legacy filter version.
                let snap = proxy.filters_snapshot();
                let (epoch, version) = snap.tiered_state(st.ledger);
                st.filter_epoch.set(epoch);
                st.filter_version.set(if (epoch, version) == (0, 0) {
                    snap.version(st.ledger)
                } else {
                    version
                });
                interval
            }
            Err(_) => {
                st.failures.inc();
                shared.failures.inc();
                st.consecutive_failures.add(1);
                backoff(interval, st.consecutive_failures.get() as u32)
            }
        };
        shared.update_consecutive();
        // Sleep in slices so stop() is prompt.
        let mut slept = Duration::ZERO;
        while slept < delay {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            let slice = Duration::from_millis(10).min(delay - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// The wait before retrying after the `run`-th consecutive failed
/// round (`run >= 1`): an eighth of `interval` (at least 10 ms),
/// doubled once per failure in the run, capped at `interval`.
fn backoff(interval: Duration, run: u32) -> Duration {
    (interval / 8)
        .max(Duration::from_millis(10))
        .saturating_mul(1u32 << run.min(3))
        .min(interval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger_server::{test_server, LedgerServer};
    use irs_core::camera::Camera;
    use irs_core::claim::RevokeRequest;
    use irs_core::time::TimeMs;
    use irs_core::tsa::TimestampAuthority;
    use irs_ledger::{ConcurrentLedger, LedgerConfig};
    use irs_proxy::{LookupOutcome, ProxyConfig};

    /// A failing shard waits a quarter, then half, then the whole
    /// interval — never longer.
    #[test]
    fn backoff_climbs_from_a_quarter_to_the_full_interval() {
        let interval = Duration::from_secs(8);
        let waits: Vec<_> = (1..=5).map(|run| backoff(interval, run)).collect();
        assert_eq!(
            waits,
            [
                Duration::from_secs(2),
                Duration::from_secs(4),
                Duration::from_secs(8),
                Duration::from_secs(8),
                Duration::from_secs(8),
            ]
        );
        // Short test intervals keep the 10 ms floor, still capped.
        let short = Duration::from_millis(40);
        assert_eq!(backoff(short, 1), Duration::from_millis(20));
        assert_eq!(backoff(short, 2), short);
    }

    #[test]
    fn full_then_current_over_wire() {
        let ledger = ConcurrentLedger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(9),
        );
        // One revoked record, then publish.
        let mut cam = Camera::new(9, 96, 96);
        let shot = cam.capture(0);
        let Response::Claimed { id, .. } = ledger.handle(Request::Claim(shot.claim), TimeMs(0))
        else {
            panic!("claim failed");
        };
        let rv = RevokeRequest::create(&shot.keypair, id, true, 0);
        ledger.handle(Request::Revoke(rv), TimeMs(1));
        ledger.publish_filter();
        let server = LedgerServer::start_shared(Arc::new(ledger), "127.0.0.1:0").unwrap();
        let mut client = LedgerClient::connect(server.addr()).unwrap();

        let proxy = SharedProxy::new(ProxyConfig::default());
        // First refresh: full.
        let outcome = refresh_shared_filter(&proxy, &mut client, LedgerId(1)).unwrap();
        assert!(matches!(
            outcome,
            RefreshOutcome::InstalledFull { version: 1, .. }
        ));
        assert_eq!(
            proxy.lookup(id, TimeMs(10)),
            LookupOutcome::NeedsLedgerQuery,
            "revoked id hits the freshly pulled filter"
        );
        // Second refresh with no churn: already current.
        let outcome = refresh_shared_filter(&proxy, &mut client, LedgerId(1)).unwrap();
        assert_eq!(outcome, RefreshOutcome::AlreadyCurrent);
        server.shutdown();
    }

    #[test]
    fn delta_served_when_one_version_behind() {
        let ledger = ConcurrentLedger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(11),
        );
        let mut cam = Camera::new(11, 96, 96);
        // Two claims; revoke the first, publish v1.
        let shot_a = cam.capture(0);
        let Response::Claimed { id: a, .. } =
            ledger.handle(Request::Claim(shot_a.claim), TimeMs(0))
        else {
            panic!()
        };
        let shot_b = cam.capture(1);
        let Response::Claimed { id: b, .. } =
            ledger.handle(Request::Claim(shot_b.claim), TimeMs(1))
        else {
            panic!()
        };
        let rv = RevokeRequest::create(&shot_a.keypair, a, true, 0);
        ledger.handle(Request::Revoke(rv), TimeMs(2));
        ledger.publish_filter();

        let server = LedgerServer::start_shared(Arc::new(ledger), "127.0.0.1:0").unwrap();
        let mut client = LedgerClient::connect(server.addr()).unwrap();
        let proxy = SharedProxy::new(ProxyConfig::default());
        refresh_shared_filter(&proxy, &mut client, LedgerId(1)).unwrap();
        assert_eq!(proxy.filters_snapshot().version(LedgerId(1)), 1);

        // Churn: revoke b, publish v2 while the server is live — all
        // `&self` on the shared concurrent ledger.
        {
            let l = server.ledger();
            let rv = RevokeRequest::create(&shot_b.keypair, b, true, 0);
            l.handle(Request::Revoke(rv), TimeMs(3));
            l.publish_filter();
        }
        // Refresh again: must arrive as a delta, and b must now hit.
        let outcome = refresh_shared_filter(&proxy, &mut client, LedgerId(1)).unwrap();
        assert!(
            matches!(outcome, RefreshOutcome::AppliedDelta { version: 2, .. }),
            "{outcome:?}"
        );
        assert_eq!(proxy.lookup(b, TimeMs(10)), LookupOutcome::NeedsLedgerQuery);
        server.shutdown();
    }

    #[test]
    fn worker_survives_down_ledger_then_recovers() {
        use irs_core::claim::RevokeRequest;
        // Reserve a port, keep it dead for now.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
        let policy = RetryPolicy {
            max_attempts: 1,
            call_deadline: std::time::Duration::from_millis(200),
            io_timeout: std::time::Duration::from_millis(100),
            ..RetryPolicy::fast(5)
        };
        let worker = RefreshWorker::spawn(
            proxy.clone(),
            vec![addr],
            LedgerId(1),
            Duration::from_millis(40),
            policy,
        );
        // Let it fail a few rounds against the dead port.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while worker.stats().failures < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let mid = worker.stats();
        assert!(mid.failures >= 2, "worker kept retrying: {mid:?}");
        assert!(mid.consecutive_failures >= 2);
        assert_eq!(proxy.filters_snapshot().tiered_state(LedgerId(1)), (0, 0));

        // Bring the ledger up on that same port with a published filter.
        let ledger = ConcurrentLedger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(15),
        );
        let mut cam = Camera::new(15, 96, 96);
        let shot = cam.capture(0);
        let Response::Claimed { id, .. } = ledger.handle(Request::Claim(shot.claim), TimeMs(0))
        else {
            panic!()
        };
        let rv = RevokeRequest::create(&shot.keypair, id, true, 0);
        ledger.handle(Request::Revoke(rv), TimeMs(1));
        ledger.publish_filter();
        let server = LedgerServer::start_shared(Arc::new(ledger), &addr.to_string()).unwrap();

        // The worker must recover on its own: tiered filter installed,
        // failure run reset.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while proxy.filters_snapshot().tiered_state(LedgerId(1)) == (0, 0)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(proxy.filters_snapshot().tiered_state(LedgerId(1)), (1, 1));
        assert_eq!(
            proxy.lookup(id, TimeMs(10)),
            LookupOutcome::NeedsLedgerQuery,
            "recovered filter is live on the lookup path"
        );
        let end = worker.stats();
        assert_eq!(end.consecutive_failures, 0);
        assert!(end.installs >= 1);
        worker.stop();
        server.shutdown();
    }

    #[test]
    fn one_down_shard_does_not_delay_the_healthy_shards_refresh() {
        use irs_core::claim::RevokeRequest;
        // Shard 1 is live with a published filter; shard 2 is a reserved
        // but unbound port — every fetch against it times out.
        let ledger = ConcurrentLedger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(21),
        );
        let mut cam = Camera::new(21, 96, 96);
        let shot = cam.capture(0);
        let Response::Claimed { id, .. } = ledger.handle(Request::Claim(shot.claim), TimeMs(0))
        else {
            panic!("claim failed");
        };
        let rv = RevokeRequest::create(&shot.keypair, id, true, 0);
        ledger.handle(Request::Revoke(rv), TimeMs(1));
        ledger.publish_filter();
        let live = LedgerServer::start_shared(Arc::new(ledger), "127.0.0.1:0").unwrap();
        let dead_addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };

        let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
        let policy = RetryPolicy {
            max_attempts: 1,
            call_deadline: std::time::Duration::from_millis(200),
            io_timeout: std::time::Duration::from_millis(100),
            ..RetryPolicy::fast(5)
        };
        let worker = RefreshWorker::spawn_sharded(
            proxy.clone(),
            vec![
                (LedgerId(1), vec![live.addr()]),
                (LedgerId(2), vec![dead_addr]),
            ],
            Duration::from_millis(40),
            policy,
        );

        // The healthy shard's filter must land promptly — well inside the
        // window where the dead shard is still burning its first timeouts.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while proxy.filters_snapshot().tiered_state(LedgerId(1)) == (0, 0)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            proxy.filters_snapshot().tiered_state(LedgerId(1)),
            (1, 1),
            "healthy shard's filter blocked behind the dead shard"
        );
        assert_eq!(
            proxy.lookup(id, TimeMs(10)),
            LookupOutcome::NeedsLedgerQuery,
            "healthy shard's revocation is live on the lookup path"
        );

        // Let the dead shard accumulate a visible failure run, then check
        // the two shards' counters stayed independent.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let by_shard = worker.shard_stats();
            let dead = &by_shard[1].1;
            if dead.failures >= 2 || std::time::Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let by_shard = worker.shard_stats();
        let (healthy, dead) = (&by_shard[0].1, &by_shard[1].1);
        assert!(dead.failures >= 2, "dead shard kept retrying: {dead:?}");
        assert!(dead.consecutive_failures >= 2);
        assert_eq!(dead.installs, 0);
        assert_eq!(
            healthy.failures, 0,
            "dead shard's outage leaked into the healthy shard: {healthy:?}"
        );
        assert_eq!(healthy.consecutive_failures, 0);
        assert!(healthy.installs >= 1);
        // Aggregate gauge reports the worst shard, not the average.
        assert!(worker.stats().consecutive_failures >= 2);

        worker.stop();
        live.shutdown();
    }

    #[test]
    fn unpublished_filter_is_an_error() {
        let server = test_server(10, "127.0.0.1:0");
        let mut client = LedgerClient::connect(server.addr()).unwrap();
        let proxy = SharedProxy::new(ProxyConfig::default());
        assert!(refresh_shared_filter(&proxy, &mut client, LedgerId(1)).is_err());
        server.shutdown();
    }

    #[test]
    fn tiered_refresh_full_then_delta_then_epoch_roll() {
        use irs_filters::TieredConfig;
        // Tiny compaction threshold so the test can drive an epoch roll
        // through the wire flow.
        let mut config = LedgerConfig::new(LedgerId(1));
        config.tiered = TieredConfig {
            delta_capacity: 64,
            delta_fpr: 1e-3,
            compact_at: 4,
        };
        let ledger = ConcurrentLedger::new(config, TimestampAuthority::from_seed(31));
        let mut cam = Camera::new(31, 96, 96);
        let shot = cam.capture(0);
        let Response::Claimed { id, .. } = ledger.handle(Request::Claim(shot.claim), TimeMs(0))
        else {
            panic!()
        };
        let rv = RevokeRequest::create(&shot.keypair, id, true, 0);
        ledger.handle(Request::Revoke(rv), TimeMs(1));
        ledger.publish_filter();
        let server = LedgerServer::start_shared(Arc::new(ledger), "127.0.0.1:0").unwrap();
        let mut client = LedgerClient::connect(server.addr()).unwrap();

        // Bootstrap: full tiered install (no epoch sealed yet).
        let proxy = SharedProxy::new(ProxyConfig::default());
        let outcome = refresh_shared_filter_tiered(&proxy, &mut client, LedgerId(1)).unwrap();
        assert!(
            matches!(
                outcome,
                RefreshOutcome::InstalledTiered {
                    epoch: 1,
                    version: 1,
                    ..
                }
            ),
            "{outcome:?}"
        );
        assert_eq!(
            proxy.lookup(id, TimeMs(5)),
            LookupOutcome::NeedsLedgerQuery,
            "revoked id hits the tiered filter"
        );

        // One more revocation: same epoch, delta-tier update.
        let l = server.ledger();
        let shot_b = cam.capture(1);
        let (b, _) = l.claim_revoked(shot_b.claim, TimeMs(6)).unwrap();
        l.publish_filter();
        let outcome = refresh_shared_filter_tiered(&proxy, &mut client, LedgerId(1)).unwrap();
        assert!(
            matches!(outcome, RefreshOutcome::AppliedDelta { version: 2, .. }),
            "{outcome:?}"
        );
        assert_eq!(proxy.lookup(b, TimeMs(7)), LookupOutcome::NeedsLedgerQuery);

        // Enough churn to cross compact_at: the publish seals epoch 2 and
        // the refresh arrives as a base-only roll.
        let mut more = Vec::new();
        for i in 2..7 {
            let shot = cam.capture(i);
            let (id, _) = l.claim_revoked(shot.claim, TimeMs(8 + i)).unwrap();
            more.push(id);
        }
        l.publish_filter();
        let outcome = refresh_shared_filter_tiered(&proxy, &mut client, LedgerId(1)).unwrap();
        assert!(
            matches!(outcome, RefreshOutcome::RolledEpoch { epoch: 2, .. }),
            "{outcome:?}"
        );
        assert_eq!(proxy.filters_snapshot().tiered_state(LedgerId(1)), (2, 0));
        for id in [id, b].into_iter().chain(more) {
            assert_eq!(
                proxy.lookup(id, TimeMs(40)),
                LookupOutcome::NeedsLedgerQuery,
                "revocation lost across the epoch roll"
            );
        }
        // No churn: already current.
        let outcome = refresh_shared_filter_tiered(&proxy, &mut client, LedgerId(1)).unwrap();
        assert_eq!(outcome, RefreshOutcome::AlreadyCurrent);
        server.shutdown();
    }

    #[test]
    fn tiered_refresh_falls_back_to_legacy_on_unsupported() {
        use irs_filters::BloomFilter;
        // A pre-tiered server: answers Unsupported for the new tag,
        // serves the legacy full filter.
        let mut f = BloomFilter::with_params(1 << 14, 6, 0).unwrap();
        let id = irs_core::ids::RecordId::new(LedgerId(1), 7);
        f.insert(id.filter_key());
        let data = f.to_bytes();
        let mut fetch = |req| match req {
            Request::GetFilterTiered { .. } => Ok(Response::Unsupported { tag: 12 }),
            Request::GetFilter { .. } => Ok(Response::FilterFull {
                version: 3,
                data: data.clone(),
            }),
            other => panic!("unexpected request {other:?}"),
        };
        let proxy = SharedProxy::new(ProxyConfig::default());
        let outcome = refresh_tiered(&proxy, LedgerId(1), &mut fetch).unwrap();
        assert!(
            matches!(outcome, RefreshOutcome::InstalledFull { version: 3, .. }),
            "{outcome:?}"
        );
        assert_eq!(proxy.filters_snapshot().version(LedgerId(1)), 3);
        assert_eq!(proxy.filters_snapshot().tiered_state(LedgerId(1)), (0, 0));
    }
}

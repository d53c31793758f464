//! The validate/revoke benchmark.
//!
//! Stands up a durable ledger and a full-ladder proxy on loopback TCP,
//! drives them with a seeded open-loop generator, checks every answer
//! against ground truth, and prints every metric by name and unit. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The line before it is the run record (`{"record": {...}}`).
//!
//! ```text
//! valbench --workload <validate_filtered|validate_upstream|revoke_mix>
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `README.md` beside this crate describes the workloads, the metric
//! map and the deployment settings.

mod deploy;
mod gen;
mod report;
mod sys;
mod trace;
mod workload;

use deploy::Deployment;
use gen::{Clock, Expect, Limits, Outcome, Plan, Verdict};
use irs_core::time::{Clock as _, SystemClock};
use irs_core::wire::{Request, Response, Wire};
use irs_net::{refresh_shared_filter_tiered, LedgerClient, RefreshOutcome};
use report::{median, num, quantile, string, Metrics};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::{Duration, Instant};
use workload::{Inputs, Workload, FNV_OFFSET, LEDGER};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Publish + refresh period (§4.4's hourly, scaled down as the refresh
/// tests do).
const PUBLISH_PERIOD_NS: u64 = 250_000_000;
/// Share of `--seconds` spent at the nominal rate; the rest measures
/// saturation throughput.
const NOMINAL_SHARE: f64 = 0.7;
/// Requests kept outstanding while measuring saturation throughput.
const SATURATION_INFLIGHT: usize = 16;
/// Most requests planned for the saturation phase (about 100 MB of plan
/// and outcome); a faster deployment ends the phase early, and only the
/// segments before the plan ran out are counted.
const SATURATION_MAX_REQUESTS: u64 = 1_000_000;
/// Start of the saturation phase left out of its rate (queues filling).
const SATURATION_RAMP_NS: u64 = 200_000_000;
/// Saturation throughput is counted per segment of this length and the
/// median over segments reported.
const RATE_SEGMENT_NS: u64 = 250_000_000;
/// Latency quantiles are taken per segment of this length and the
/// median over segments reported, so one disturbed second of a shared
/// machine does not set a run's tail.
const SEGMENT_NS: u64 = 500_000_000;
/// Generator lateness (p99) above which a run is marked as behind.
const BEHIND_US: f64 = 1_000.0;
/// Extra time after a window for its last responses.
const DRAIN_NS: u64 = 2_000_000_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One publish + refresh round of the operator thread.
struct Round {
    start: u64,
    end: u64,
    publish_ns: u64,
    refresh_ns: u64,
    bytes: u64,
    delta_bytes: u64,
}

/// Publish and refresh every `PUBLISH_PERIOD_NS` until `stop`.
fn operator(
    dep: &Deployment,
    mut client: LedgerClient,
    clock: Clock,
    stop: &AtomicBool,
) -> Vec<Round> {
    let mut rounds = Vec::new();
    let mut next = clock.now() + PUBLISH_PERIOD_NS;
    while !stop.load(Ordering::SeqCst) {
        let now = clock.now();
        if now < next {
            std::thread::sleep(Duration::from_nanos((next - now).min(20_000_000)));
            continue;
        }
        next += PUBLISH_PERIOD_NS;
        let start = clock.now();
        dep.ledger.publish_filter();
        let published = clock.now();
        let outcome =
            refresh_shared_filter_tiered(&dep.proxy, &mut client, LEDGER).expect("refresh round");
        let end = clock.now();
        let bytes = match outcome {
            RefreshOutcome::InstalledFull { bytes, .. }
            | RefreshOutcome::AppliedDelta { bytes, .. }
            | RefreshOutcome::InstalledTiered { bytes, .. }
            | RefreshOutcome::RolledEpoch { bytes, .. } => bytes as u64,
            RefreshOutcome::AlreadyCurrent => 0,
        };
        let delta_bytes = dep.ledger.tiered_snapshot().delta().to_bytes().len() as u64;
        rounds.push(Round {
            start,
            end,
            publish_ns: published - start,
            refresh_ns: end - published,
            bytes,
            delta_bytes,
        });
    }
    rounds
}

/// Counters read at the edges of a measured window.
struct Snapshot {
    cpu: Vec<(u32, u64)>,
    wakeups: Vec<(u32, u64)>,
    process_syscalls: u64,
    excluded_syscalls: u64,
    allocs: u64,
    proxy: irs_proxy::ProxyStats,
    degraded: irs_proxy::DegradedStats,
    frames: u64,
    request_us: u64,
}

fn snapshot(dep: &Deployment, excluded: &[u32]) -> Snapshot {
    let frames = |r: &irs_obs::Registry| r.counter("irs_net_frames_total").get();
    Snapshot {
        cpu: sys::cpu_by_thread(),
        wakeups: sys::wakeups_by_thread(),
        process_syscalls: sys::process_syscalls(),
        excluded_syscalls: excluded.iter().map(|&t| sys::thread_syscalls(t)).sum(),
        allocs: sys::program_allocs(),
        proxy: dep.proxy.stats(),
        degraded: dep.proxy.degraded_stats(),
        frames: frames(dep.proxy.metrics()) + frames(dep.ledger.metrics()),
        request_us: dep
            .proxy
            .metrics()
            .histogram("irs_proxy_request_us")
            .snapshot()
            .sum,
    }
}

/// A per-thread counter's growth between two readings, summed over
/// every thread but the excluded (the program's threads).
fn program_delta(before: &[(u32, u64)], after: &[(u32, u64)], excluded: &[u32]) -> u64 {
    let before: HashMap<u32, u64> = before.iter().copied().collect();
    after
        .iter()
        .filter(|(tid, _)| !excluded.contains(tid))
        .map(|(tid, ns)| ns.saturating_sub(before.get(tid).copied().unwrap_or(0)))
        .sum()
}

/// One measured window: the generator's outcomes plus counters.
struct WindowRun {
    outcomes: Vec<Outcome>,
    s0: Snapshot,
    s1: Snapshot,
    excluded: Vec<u32>,
}

/// Replay each plan on its connection, snapshotting counters at the
/// window's edges and sampling resident memory throughout.
fn run_window(
    dep: &Deployment,
    clock: Clock,
    conns: &mut [(TcpStream, &Plan)],
    window: (u64, u64),
    peak_rss_kib: &mut u64,
    at_start: impl FnOnce(),
) -> WindowRun {
    let tid = AtomicU32::new(0);
    let measured = AtomicBool::new(false);
    let limits = Limits {
        send_until_ns: u64::MAX,
        give_up_ns: window.1 + DRAIN_NS,
        max_inflight: usize::MAX,
    };
    std::thread::scope(|s| {
        let generator = s.spawn(|| {
            let outcomes = gen::drive(conns, clock, limits, &tid, generator_cpu());
            // Stay alive until the closing snapshot has read this
            // thread's counters.
            while !measured.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            outcomes
        });
        let sample_until = |until: u64, peak: &mut u64| loop {
            *peak = (*peak).max(sys::rss_kib());
            let now = clock.now();
            if now >= until {
                break;
            }
            std::thread::sleep(Duration::from_nanos((until - now).min(20_000_000)));
        };
        sample_until(window.0, peak_rss_kib);
        let excluded = vec![tid.load(Ordering::SeqCst), sys::thread_id()];
        at_start();
        let s0 = snapshot(dep, &excluded);
        sample_until(window.1, peak_rss_kib);
        let s1 = snapshot(dep, &excluded);
        measured.store(true, Ordering::SeqCst);
        let outcomes = generator.join().expect("generator thread panicked");
        WindowRun {
            outcomes,
            s0,
            s1,
            excluded,
        }
    })
}

/// Verdict classes for one answer.
#[derive(PartialEq)]
enum Judged {
    Ok,
    Failed,
    Wrong,
}

fn judge(expect: Expect, verdict: Verdict, sent: u64, deadline: &HashMap<u32, u64>) -> Judged {
    use Verdict as V;
    match (expect, verdict) {
        (_, V::Pending | V::Stale | V::Overloaded | V::Unavailable | V::Error) => Judged::Failed,
        (Expect::Live, V::NotRevoked) => Judged::Ok,
        (Expect::Unclaimed, V::NotRevoked | V::UnknownRecord) => Judged::Ok,
        (Expect::Revoked, V::Revoked) => Judged::Ok,
        (Expect::Probe(_), V::Revoked) => Judged::Ok,
        (Expect::Probe(t), V::NotRevoked) => match deadline.get(&t) {
            Some(&d) if sent > d => Judged::Wrong,
            _ => Judged::Ok,
        },
        (Expect::Claimed, V::Claimed) => Judged::Ok,
        (Expect::RevokeAck(_), V::RevokeAck) => Judged::Ok,
        (Expect::Claimed | Expect::RevokeAck(_), _) => Judged::Failed,
        _ => Judged::Wrong,
    }
}

/// A window's verdicts and latencies.
#[derive(Default)]
struct WindowStats {
    /// (due time, latency µs) of each answered main-stream validate.
    validate_us: Vec<(u64, f64)>,
    late_us: Vec<f64>,
    revoke_ack_us: Vec<f64>,
    visible_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    completed: u64,
    wrong: u64,
    invisible: u64,
    probed_before_ack: u64,
}

fn is_validate(e: Expect) -> bool {
    matches!(e, Expect::Live | Expect::Unclaimed | Expect::Revoked)
}

/// Judge every answer of a window's plans against ground truth. Wrong
/// verdicts count wherever they fall; attempts, failures and latencies
/// only for requests due inside the window.
fn evaluate(
    plans: &[&Plan],
    outs: &[Outcome],
    window: (u64, u64),
    rounds: &[Round],
) -> WindowStats {
    let mut st = WindowStats::default();
    let mut acks: HashMap<u32, u64> = HashMap::new();
    for (plan, out) in plans.iter().zip(outs) {
        for i in 0..plan.len() {
            if let (Expect::RevokeAck(t), Verdict::RevokeAck) = (plan.expect[i], out.verdict[i]) {
                acks.insert(t, out.done[i]);
            }
        }
    }
    // A probe sent before its key's ack can reach the ledger through a
    // filter false positive and leave "not revoked" in the proxy's cache
    // for the cache TTL: the benchmark's own schedule caused that, so
    // such keys are excused from the bound below (and counted).
    let mut early: HashSet<u32> = HashSet::new();
    for (plan, out) in plans.iter().zip(outs) {
        for i in 0..plan.len() {
            if let Expect::Probe(t) = plan.expect[i] {
                if acks
                    .get(&t)
                    .is_some_and(|&ack| out.sent[i] > 0 && out.sent[i] < ack)
                {
                    early.insert(t);
                }
            }
        }
    }
    st.probed_before_ack = early.len() as u64;
    // A refresh that began after the ack and has completed bounds how
    // long the proxy may still say "not revoked".
    let deadline: HashMap<u32, u64> = acks
        .iter()
        .filter(|(t, _)| !early.contains(t))
        .filter_map(|(&t, &ack)| Some((t, rounds.iter().find(|r| r.start > ack)?.end)))
        .collect();
    let mut visible: HashMap<u32, u64> = HashMap::new();
    for (plan, out) in plans.iter().zip(outs) {
        for i in 0..plan.len() {
            let (due, expect, verdict) = (plan.due[i], plan.expect[i], out.verdict[i]);
            let judged = judge(expect, verdict, out.sent[i], &deadline);
            if judged == Judged::Wrong {
                st.wrong += 1;
            }
            if let (Expect::Probe(t), Verdict::Revoked) = (expect, verdict) {
                visible.entry(t).or_insert(out.done[i]);
            }
            if due < window.0 || due >= window.1 {
                continue;
            }
            st.attempted += 1;
            if verdict != Verdict::Pending {
                st.completed += 1;
            }
            if out.sent[i] > 0 {
                st.late_us.push((out.sent[i] - due) as f64 / 1e3);
            }
            if judged != Judged::Ok {
                st.failed += 1;
                continue;
            }
            let latency_us = out.done[i].saturating_sub(due) as f64 / 1e3;
            if is_validate(expect) {
                st.validate_us.push((due, latency_us));
            } else if let Expect::RevokeAck(_) = expect {
                st.revoke_ack_us.push(latency_us);
            }
        }
    }
    for (plan, out) in plans.iter().zip(outs) {
        for i in 0..plan.len() {
            if let Expect::RevokeAck(t) = plan.expect[i] {
                if plan.due[i] < window.0
                    || plan.due[i] >= window.1
                    || out.verdict[i] != Verdict::RevokeAck
                {
                    continue;
                }
                match visible.get(&t) {
                    Some(&seen) => st
                        .visible_ms
                        .push(seen.saturating_sub(acks[&t]) as f64 / 1e6),
                    None => {
                        st.invisible += 1;
                        st.failed += 1;
                    }
                }
            }
        }
    }
    st
}

/// With two or more CPUs the generator gets the first to itself and the
/// deployment the rest.
fn generator_cpu() -> Option<usize> {
    (cpu_count() >= 2).then_some(0)
}

/// CPUs this process may use, as counted before the benchmark pins any
/// thread (pinning shrinks what `available_parallelism` reports).
fn cpu_count() -> usize {
    static COUNT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *COUNT.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn connect(addr: SocketAddr) -> TcpStream {
    TcpStream::connect(addr).expect("connect to the deployment")
}

/// Saturation throughput: the main stream with `SATURATION_INFLIGHT`
/// requests always outstanding, for `duration_ns`; the completion
/// rate after `SATURATION_RAMP_NS` (the median over `RATE_SEGMENT_NS`
/// segments) is the highest rate the deployment sustains without a
/// growing backlog. Returns (requests/s, completions counted, whether
/// the plan ran out before the time did).
fn saturation(
    dep: &Deployment,
    inputs: &Inputs,
    clock: Clock,
    duration_ns: u64,
    cursor: &mut usize,
    wrong: &mut u64,
) -> (f64, u64, bool) {
    let stream = connect(dep.proxy_server.addr());
    let start = clock.now() + 5_000_000;
    let end = start + duration_ns;
    let mut plan = Plan::default();
    let count = ((inputs.workload.saturation_bound() * duration_ns as f64 / 1e9) as u64)
        .min(SATURATION_MAX_REQUESTS);
    inputs.main_stream(&mut plan, start, f64::INFINITY, count, cursor);
    let tid = AtomicU32::new(0);
    let limits = Limits {
        send_until_ns: end,
        give_up_ns: end + DRAIN_NS,
        max_inflight: SATURATION_INFLIGHT,
    };
    let out = std::thread::scope(|s| {
        s.spawn(|| gen::drive(&mut [(stream, &plan)], clock, limits, &tid, generator_cpu()))
            .join()
            .expect("generator thread panicked")
    })
    .pop()
    .expect("one outcome per connection");
    let st = evaluate(&[&plan], std::slice::from_ref(&out), (0, u64::MAX), &[]);
    *wrong += st.wrong;
    // Only segments that end before the last send count: if the plan
    // ran out early, the tail measures draining, not saturation.
    let from = start + SATURATION_RAMP_NS;
    let last_send = out.sent.iter().copied().max().unwrap_or(0).min(end);
    let segments = (last_send.saturating_sub(from) / RATE_SEGMENT_NS).max(1);
    let mut per = vec![0u64; segments as usize];
    for &t in &out.done {
        if t >= from && t < from + segments * RATE_SEGMENT_NS {
            per[((t - from) / RATE_SEGMENT_NS) as usize] += 1;
        }
    }
    let mut rates: Vec<f64> = per
        .iter()
        .map(|&c| c as f64 * 1e9 / RATE_SEGMENT_NS as f64)
        .collect();
    let exhausted = out.sent.last().is_some_and(|&t| t > 0);
    (median(&mut rates), per.iter().sum(), exhausted)
}

/// Mean ns per call of `f` over `items`, best of three passes.
fn time_each<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for item in items {
            f(item);
        }
        best = best.min(t.elapsed().as_nanos() as f64 / items.len().max(1) as f64);
    }
    best
}

/// Replay the run's own messages and keys through each layer's public
/// functions (trace runs).
fn replay_layers(dep: &Deployment, inputs: &Inputs, m: &mut Metrics) {
    let payloads: Vec<bytes::Bytes> = (0..workload::POOL)
        .map(|i| {
            let frame = &inputs.pool_frames[i * inputs.frame_len..(i + 1) * inputs.frame_len];
            bytes::Bytes::copy_from_slice(&frame[4..])
        })
        .collect();
    m.put(
        "wire.query_decode_ns",
        time_each(&payloads, |p| {
            black_box(Request::from_bytes(p.clone()).expect("query decodes"));
        }),
        "ns",
    );
    let ids: Vec<_> = inputs.pool.iter().map(|(id, _)| *id).collect();
    m.put(
        "wire.status_encode_ns",
        time_each(&ids, |&id| {
            let response = Response::Status {
                id,
                status: irs_core::claim::RevocationStatus::NotRevoked,
                epoch: 0,
            };
            black_box(response.to_bytes().expect("status encodes"));
        }),
        "ns",
    );
    let revokes: Vec<bytes::Bytes> = (0..1024)
        .map(|i| {
            Request::Revoke(inputs.replay[i % inputs.replay.len()].revoke)
                .to_bytes()
                .expect("revoke encodes")
        })
        .collect();
    m.put(
        "wire.revoke_decode_ns",
        time_each(&revokes, |p| {
            black_box(Request::from_bytes(p.clone()).expect("revoke decodes"));
        }),
        "ns",
    );
    let filters = dep.proxy.filters_snapshot();
    let keys: Vec<u64> = ids.iter().map(|id| id.filter_key()).collect();
    m.put(
        "proxy.filter_probe_ns",
        time_each(&keys, |&k| {
            black_box(filters.might_be_revoked(k));
        }),
        "ns",
    );
    let now = SystemClock.now();
    m.put(
        "proxy.lookup_ns",
        time_each(&ids, |&id| {
            black_box(dep.proxy.lookup(id, now));
        }),
        "ns",
    );
    m.put(
        "ledger.query_ns",
        time_each(&ids, |&id| {
            black_box(dep.ledger.handle(Request::Query { id }, now));
        }),
        "ns",
    );
    m.put(
        "crypto.revoke_verify_us",
        time_each(&inputs.replay, |p| {
            assert!(
                p.revoke.verify(&p.claim.pubkey, 0),
                "replay revoke verifies"
            );
        }) / 1e3,
        "us",
    );
    // The replayed writes also give the WAL's counters: every workload
    // writes here, and one thread's writes are exactly one commit each.
    let wal = || dep.ledger.durability().expect("durable ledger").wal_stats();
    let before = wal();
    let fresh = &inputs.claims[inputs.targets.len()..];
    let t = Instant::now();
    for claim in fresh {
        let r = dep.ledger.handle(Request::Claim(*claim), now);
        assert!(matches!(r, Response::Claimed { .. }), "replay claim: {r:?}");
    }
    m.put(
        "ledger.claim_us",
        t.elapsed().as_nanos() as f64 / 1e3 / fresh.len() as f64,
        "us",
    );
    let t = Instant::now();
    for p in &inputs.replay {
        let r = dep.ledger.handle(Request::Revoke(p.revoke), now);
        assert!(
            matches!(r, Response::RevokeAck { .. }),
            "replay revoke: {r:?}"
        );
    }
    m.put(
        "ledger.revoke_us",
        t.elapsed().as_nanos() as f64 / 1e3 / inputs.replay.len() as f64,
        "us",
    );
    let after = wal();
    let writes = (after.appends - before.appends) as f64;
    m.put(
        "wal.fsyncs_per_write",
        ratio((after.syncs - before.syncs) as f64, writes),
        "count/op",
    );
    m.put(
        "wal.piggyback_ratio",
        ratio(
            (after.piggybacked_commits - before.piggybacked_commits) as f64,
            writes,
        ),
        "ratio",
    );
    m.put(
        "wal.bytes_per_write",
        ratio(
            (after.bytes_appended - before.bytes_appended) as f64,
            writes,
        ),
        "bytes",
    );
}

/// The median over `SEGMENT_NS` segments of `window` of each segment's
/// `q`-quantile of latency.
fn segment_quantile(samples: &[(u64, f64)], window: (u64, u64), q: f64) -> f64 {
    let segments = ((window.1 - window.0) / SEGMENT_NS).max(1);
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); segments as usize];
    for &(due, lat) in samples {
        let k = ((due.saturating_sub(window.0)) / SEGMENT_NS).min(segments - 1);
        per[k as usize].push(lat);
    }
    let mut qs: Vec<f64> = per
        .iter_mut()
        .filter(|v| !v.is_empty())
        .map(|v| quantile(v, q))
        .collect();
    median(&mut qs)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Counter metrics of the untraced window (per-layer run).
fn counter_metrics(w: &WindowRun, completed: u64, m: &mut Metrics) {
    let (s0, s1) = (&w.s0, &w.s1);
    let ops = completed.max(1) as f64;
    let excluded_before: u64 = s0.excluded_syscalls;
    let program_syscalls = (s1.process_syscalls - s0.process_syscalls)
        .saturating_sub(s1.excluded_syscalls.saturating_sub(excluded_before));
    m.put(
        "reactor.syscalls_per_op",
        program_syscalls as f64 / ops,
        "count/op",
    );
    let wakeups = program_delta(&s0.wakeups, &s1.wakeups, &w.excluded);
    m.put("reactor.wakeups_per_op", wakeups as f64 / ops, "count/op");
    m.put(
        "reactor.allocs_per_op",
        (s1.allocs - s0.allocs) as f64 / ops,
        "count/op",
    );
    m.put(
        "reactor.frames_per_op",
        (s1.frames - s0.frames) as f64 / ops,
        "count/op",
    );
    let lookups = (s1.proxy.lookups - s0.proxy.lookups) as f64;
    let negative = (s1.proxy.filter_negative - s0.proxy.filter_negative) as f64;
    let hits = (s1.proxy.cache_hits - s0.proxy.cache_hits) as f64;
    m.put(
        "proxy.filter_negative_ratio",
        ratio(negative, lookups),
        "ratio",
    );
    m.put(
        "proxy.cache_hit_ratio",
        ratio(hits, lookups - negative),
        "ratio",
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("valbench: {e}");
            eprintln!("usage: valbench --workload <validate_filtered|validate_upstream|revoke_mix> [--seed N] [--seconds S] [--trace 0|1]");
            std::process::exit(2);
        }
    };
    cpu_count();
    sys::fix_malloc_thresholds();
    let root = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&root).expect("create .bench_out");
    let total_ns = args.seconds * 1_000_000_000;
    // Untraced: one nominal window, then saturation throughput. Traced:
    // an untraced and a traced window of half the run each.
    let windows: Vec<u64> = if args.trace {
        vec![total_ns / 2, total_ns / 2]
    } else {
        vec![(total_ns as f64 * NOMINAL_SHARE) as u64]
    };
    let saturation_ns = total_ns
        .saturating_sub(windows[0])
        .saturating_sub(200_000_000)
        .max(SATURATION_RAMP_NS * 2);
    let targets = windows
        .iter()
        .map(|&w| Inputs::targets_needed(args.workload, w))
        .sum();

    let mut setup_s = Vec::new();
    let mut deployed = None;
    for rep in 0..SETUP_REPS {
        if let Some((old, _)) = deployed.take() {
            Deployment::shutdown(old);
        }
        let t = Instant::now();
        let inputs = Inputs::generate(args.workload, args.seed, targets);
        let dep = Deployment::start(&inputs, args.seed, &root, args.trace);
        setup_s.push(t.elapsed().as_secs_f64());
        eprintln!("valbench: set-up {} took {:.3} s", rep + 1, setup_s[rep]);
        deployed = Some((dep, inputs));
    }
    let (dep, inputs) = deployed.expect("at least one set-up");

    // Hand set-up's garbage back to the kernel so resident memory
    // reflects the deployment, not the synthetic key sets.
    sys::trim_heap();
    // The generator gets the first core to itself; the deployment's
    // threads (and every thread spawned from here on) the others.
    if let Some(cpu) = generator_cpu() {
        for (tid, _) in sys::cpu_by_thread() {
            sys::pin(tid, cpu + 1..cpu_count());
        }
    }
    let clock = Clock::start();
    let stop = AtomicBool::new(false);
    let mut digest = workload::fnv1a(FNV_OFFSET, &inputs.pool_frames);
    let mut peak_rss_kib = 0u64;
    let mut cursor = 0usize;
    let (mut next_target, mut next_claim) = (0usize, 0usize);
    let mut runs = Vec::new();
    let mut capacity = (0.0, 0, false);
    let mut saturation_wrong = 0u64;
    let rounds = std::thread::scope(|s| {
        // Connect before any generator socket, so every run hands the
        // ledger's reactor its connections in the same order.
        let client =
            LedgerClient::connect(dep.ledger_server.addr()).expect("connect refresh client");
        let op = s.spawn(|| operator(&dep, client, clock, &stop));
        let mut start = clock.now() + 20_000_000;
        for (k, &window_ns) in windows.iter().enumerate() {
            let revokes = inputs.revokes_for(start, window_ns, &mut next_target);
            let proxy_plan = inputs.proxy_plan(start, window_ns, &revokes, &mut cursor);
            let owner_plan = inputs.owner_plan(&revokes, &mut next_claim);
            digest = owner_plan.digest(proxy_plan.digest(digest, start), start);
            let traced = args.trace && k == 1;
            let addr = match (&dep.traced, traced) {
                (Some((server, _, _)), true) => server.addr(),
                _ => dep.proxy_server.addr(),
            };
            let mut conns = vec![(connect(addr), &proxy_plan)];
            if owner_plan.len() > 0 {
                conns.push((connect(dep.ledger_server.addr()), &owner_plan));
            }
            let window = (
                start + workload::WARMUP_NS,
                start + workload::WARMUP_NS + window_ns,
            );
            let sink = dep.traced.as_ref().map(|(_, sink, _)| sink.clone());
            let run = run_window(&dep, clock, &mut conns, window, &mut peak_rss_kib, || {
                if let Some(sink) = &sink {
                    sink.take();
                }
            });
            let spans = if traced { sink.map(|s| s.take()) } else { None };
            drop(conns);
            runs.push((proxy_plan, owner_plan, window, run, spans));
            start = clock.now() + 20_000_000;
        }
        if !args.trace {
            capacity = saturation(
                &dep,
                &inputs,
                clock,
                saturation_ns,
                &mut cursor,
                &mut saturation_wrong,
            );
        }
        stop.store(true, Ordering::SeqCst);
        op.join().expect("operator thread panicked")
    });
    digest = workload::fnv1a(
        digest,
        format!("{saturation_ns}:{SATURATION_INFLIGHT}").as_bytes(),
    );

    let mut stats = Vec::new();
    for (proxy_plan, owner_plan, window, run, _) in &runs {
        let plans: Vec<&Plan> = if owner_plan.len() > 0 {
            vec![proxy_plan, owner_plan]
        } else {
            vec![proxy_plan]
        };
        stats.push(evaluate(&plans, &run.outcomes, *window, &rounds));
    }
    let wrong: u64 = stats.iter().map(|s| s.wrong).sum::<u64>() + saturation_wrong;
    let attempted: u64 = stats.iter().map(|s| s.attempted).sum();
    let failed: u64 = stats.iter().map(|s| s.failed).sum();
    let correct = wrong == 0;

    let base = &stats[0];
    let p50 = segment_quantile(&base.validate_us, runs[0].2, 0.5);
    let p99 = segment_quantile(&base.validate_us, runs[0].2, 0.99);
    let mut late = base.late_us.clone();
    for st in &stats[1..] {
        late.extend_from_slice(&st.late_us);
    }
    let late_p99 = quantile(&mut late, 0.99);
    let late_max = late.last().copied().unwrap_or(0.0);
    let w0 = &runs[0].3;
    let cpu_ns = program_delta(&w0.s0.cpu, &w0.s1.cpu, &w0.excluded);
    let mut ack = base.revoke_ack_us.clone();
    let mut vis = base.visible_ms.clone();
    let in_window: Vec<&Round> = rounds.iter().filter(|r| r.start >= runs[0].2 .0).collect();

    let mut m = Metrics::default();
    if !args.trace {
        m.put("validate_p50_us", p50, "us");
        m.put(
            "cpu_us_per_op",
            cpu_ns as f64 / 1e3 / base.completed.max(1) as f64,
            "us",
        );
        m.put("peak_rss_mb", peak_rss_kib as f64 / 1024.0, "MiB");
        let mut setups = setup_s.clone();
        m.put("setup_s", median(&mut setups), "s");
    } else {
        counter_metrics(&runs[0].3, base.completed, &mut m);
        m.put(
            "proxy.filter_resident_bytes",
            dep.proxy.filters_snapshot().resident_filter_bytes() as f64,
            "bytes",
        );
        let spans = runs[1].4.as_deref().unwrap_or(&[]);
        let times = trace::layer_times(spans);
        for (i, layer) in trace::LAYERS.iter().enumerate() {
            m.put(
                format!("service.{layer}.self_us"),
                ratio(times.self_ns[i] as f64 / 1e3, times.calls[i] as f64),
                "us",
            );
        }
        m.put(
            "service.retry.attempts_per_call",
            ratio(times.calls[4] as f64, times.calls[3] as f64),
            "count/op",
        );
        let traced_run = &runs[1].3;
        let transport = dep.traced.as_ref().map_or(0, |(_, _, t)| t.reconnects());
        m.put("service.transport.reconnects", transport as f64, "count");
        m.put(
            "service.stale.serves",
            (traced_run.s1.degraded.stale_served - runs[0].3.s0.degraded.stale_served) as f64,
            "count",
        );
        m.put(
            "service.breaker.opens",
            (traced_run.s1.degraded.breaker_opens - runs[0].3.s0.degraded.breaker_opens) as f64,
            "count",
        );
        let handler_ns = (traced_run.s1.request_us - traced_run.s0.request_us) as f64 * 1e3;
        m.put(
            "service.coverage_pct",
            100.0 * ratio(times.root_ns as f64, handler_ns),
            "%",
        );
        replay_layers(&dep, &inputs, &mut m);
        let mean = |f: &dyn Fn(&Round) -> f64| {
            ratio(
                in_window.iter().map(|r| f(r)).sum::<f64>(),
                in_window.len() as f64,
            )
        };
        m.put(
            "ledger.publish_ms",
            mean(&|r| r.publish_ns as f64 / 1e6),
            "ms",
        );
        m.put(
            "filters.delta_bytes",
            mean(&|r| r.delta_bytes as f64),
            "bytes",
        );
        m.put(
            "refresh.round_ms",
            mean(&|r| r.refresh_ns as f64 / 1e6),
            "ms",
        );
        m.put(
            "refresh.bytes_per_round",
            mean(&|r| r.bytes as f64),
            "bytes",
        );
        m.put("gen.late_p99_us", late_p99, "us");
        m.put("gen.late_max_us", late_max, "us");
        let traced_p50 = segment_quantile(&stats[1].validate_us, runs[1].2, 0.5);
        m.put(
            "trace.overhead_pct",
            100.0 * (traced_p50 - p50) / p50.max(1e-9),
            "%",
        );
        let path = root.join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
        if let Err(e) = trace::write_spans(&path, spans) {
            eprintln!("valbench: could not write {}: {e}", path.display());
        }
    }

    let behind = late_p99 > BEHIND_US;
    let rec = [
        ("workload", string(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("schedule_digest", string(&format!("{digest:016x}"))),
        ("git_rev", string(&sys::git_rev())),
        ("nproc", cpu_count().to_string()),
        ("rustc", string(env!("VALBENCH_RUSTC"))),
        ("cpu_model", string(&sys::cpu_model())),
        ("l2_cache", string(&sys::l2_size())),
        ("wal_filesystem", string(&sys::filesystem_of(&dep.wal_dir))),
        ("fsync_policy", string("always")),
        ("generator_late_p99_us", num(late_p99)),
        ("generator_late_max_us", num(late_max)),
        ("generator_behind", behind.to_string()),
        ("nominal_rate_qps", num(args.workload.nominal_rate())),
        ("validate_p50_us", num(p50)),
        ("validate_p99_us", num(p99)),
        ("validate_samples", base.validate_us.len().to_string()),
        ("revoke_ack_p50_us", num(median(&mut ack))),
        ("revoke_ack_p99_us", num(quantile(&mut ack, 0.99))),
        ("revoke_ack_samples", ack.len().to_string()),
        ("revoke_visible_p50_ms", num(median(&mut vis))),
        ("revoke_visible_p99_ms", num(quantile(&mut vis, 0.99))),
        ("revoke_visible_samples", vis.len().to_string()),
        ("revokes_never_visible", base.invisible.to_string()),
        ("keys_probed_before_ack", base.probed_before_ack.to_string()),
        ("wrong_verdicts", wrong.to_string()),
        ("failed_ratio", num(ratio(failed as f64, attempted as f64))),
        ("publish_rounds", in_window.len().to_string()),
        (
            "setup_runs_s",
            format!(
                "[{}]",
                setup_s
                    .iter()
                    .map(|&v| num(v))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("validate_capacity_qps", num(capacity.0)),
        ("saturation_samples", capacity.1.to_string()),
        ("saturation_plan_exhausted", capacity.2.to_string()),
    ];
    let rec: Vec<String> = rec.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    Deployment::shutdown(dep);
    println!("{{\"record\": {{{}}}}}", rec.join(", "));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        m.json()
    );
    if !correct {
        eprintln!("valbench: {wrong} wrong verdict(s)");
        std::process::exit(1);
    }
}

//! The three workloads, their seeded inputs, and the request plans the
//! generator replays. Everything here is derived from the seed alone, so
//! one seed gives a byte-identical schedule (its digest is printed with
//! every result). All signing and key generation happens here, in
//! set-up, off the clock.

use crate::gen::{Expect, Plan};
use irs_core::claim::{ClaimRequest, RevokeRequest};
use irs_core::ids::{LedgerId, RecordId};
use irs_core::wire::{Request, Wire};
use irs_crypto::{Digest, Keypair};
use irs_workload::samplers::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The served ledger's id. Synthetic ledgers follow from `LedgerId(100)`.
pub const LEDGER: LedgerId = LedgerId(1);

/// Claimed, never-revoked records in `validate_filtered`'s population.
pub const LIVE: u64 = 2_000;
/// Never-claimed ids in `validate_filtered`'s population.
pub const UNCLAIMED: u64 = 2_000;
/// Records preloaded already revoked: `validate_upstream`'s population
/// and `revoke_mix`'s background stream. Above the tiered compaction
/// threshold (4 096), so the first publish seals them into a fuse base.
pub const REVOKED: u64 = 5_000;
/// Claim/revoke pairs replayed through the ledger for per-layer costs.
pub const REPLAY: usize = 64;
/// Zipf exponent for `validate_filtered` (as in E21).
pub const ZIPF_THETA: f64 = 0.99;
/// Distinct pre-encoded requests the main stream cycles through.
pub const POOL: usize = 1 << 16;

/// Warm-up before each measured window (not measured).
pub const WARMUP_NS: u64 = 500_000_000;
/// Revokes stop this long before the window ends, so every probe of a
/// window revoke completes inside the window.
pub const REVOKE_TAIL_NS: u64 = 700_000_000;
/// Visibility probes of one revoked key: the first this long after its
/// revoke is due …
pub const PROBE_START_NS: u64 = 20_000_000;
/// … then one every `PROBE_STEP_NS` …
pub const PROBE_STEP_NS: u64 = 5_000_000;
/// … this many in all (covers two 250 ms publish periods).
pub const PROBES: u64 = 116;

/// Which traffic mix a run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Zipf validates of unrevoked/unclaimed ids: the filter answers.
    Filtered,
    /// Uniform validates of revoked records: the ladder and ledger answer.
    Upstream,
    /// Claims and revokes beside upstream-shaped validates and probes.
    RevokeMix,
}

impl Workload {
    /// Parse a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "validate_filtered" => Some(Workload::Filtered),
            "validate_upstream" => Some(Workload::Upstream),
            "revoke_mix" => Some(Workload::RevokeMix),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Filtered => "validate_filtered",
            Workload::Upstream => "validate_upstream",
            Workload::RevokeMix => "revoke_mix",
        }
    }

    /// Offered rate of the main validate stream (requests/s) during the
    /// measured window.
    pub fn nominal_rate(self) -> f64 {
        match self {
            Workload::Filtered => 30_000.0,
            Workload::Upstream => 5_000.0,
            Workload::RevokeMix => 2_000.0,
        }
    }

    /// An upper bound on the main stream's saturation throughput
    /// (requests/s), to size the saturation phase's plan.
    pub fn saturation_bound(self) -> f64 {
        match self {
            Workload::Filtered => 400_000.0,
            Workload::Upstream | Workload::RevokeMix => 80_000.0,
        }
    }

    /// Owner claims per second and owner revokes per second.
    pub fn write_rate(self) -> f64 {
        match self {
            Workload::RevokeMix => 40.0,
            _ => 0.0,
        }
    }
}

/// Serial layout of the served ledger, preloaded in this order from one
/// thread so serials are deterministic: revoke targets, replay targets,
/// live records, revoked records.
pub struct Layout {
    /// Revoke targets sent during the run.
    pub targets: u64,
}

impl Layout {
    /// First serial of the replay targets.
    pub fn replay_base(&self) -> u64 {
        self.targets
    }
    /// First serial of the live (claimed, unrevoked) records.
    pub fn live_base(&self) -> u64 {
        self.targets + REPLAY as u64
    }
    /// First serial of the preloaded revoked records.
    pub fn revoked_base(&self) -> u64 {
        self.live_base() + LIVE
    }
    /// Records preloaded in all.
    pub fn records(&self) -> u64 {
        self.revoked_base() + REVOKED
    }
    /// First never-claimed serial of the validated population.
    pub fn unclaimed_base(&self) -> u64 {
        1 << 40
    }
}

/// One presigned claim plus the presigned revoke of the record it makes.
#[derive(Clone, Copy)]
pub struct Pair {
    /// What the owner submits to claim.
    pub claim: ClaimRequest,
    /// The one-shot revoke of the resulting record (status epoch 0).
    pub revoke: RevokeRequest,
}

/// Everything a run sends, generated from the seed.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Serial layout of the preload.
    pub layout: Layout,
    /// Claim material shared by the preloaded live and revoked records
    /// (the ledger does not verify claims, so one presigned request
    /// serves them all and preload pays no owner signing).
    pub bulk_claim: ClaimRequest,
    /// Revoke targets sent by owners during the run (serials from 0).
    pub targets: Vec<Pair>,
    /// Replay targets (preloaded, never touched by the run).
    pub replay: Vec<Pair>,
    /// Fresh claims owners send during the run, then the replay claims.
    pub claims: Vec<ClaimRequest>,
    /// The main validate stream: ids and what each must be answered.
    pub pool: Vec<(RecordId, Expect)>,
    /// The main stream's pre-encoded query frames, `frame_len` each.
    pub pool_frames: Vec<u8>,
    /// Length of one encoded query frame.
    pub frame_len: usize,
    /// Seed for the synthetic ledgers' revoked sets.
    pub synth_seed: u64,
}

/// Length-prefix and append one request frame.
pub fn push_frame(out: &mut Vec<u8>, request: &Request) {
    let payload = request.to_bytes().expect("benchmark requests encode");
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&payload);
}

fn owner_pair(owner: &Keypair, serial: u64, tag: &[u8]) -> Pair {
    let digest = Digest::of_parts(&[tag, &serial.to_be_bytes()]);
    let claim = ClaimRequest::create(owner, &digest);
    let revoke = RevokeRequest::create(owner, RecordId::new(LEDGER, serial), true, 0);
    Pair { claim, revoke }
}

impl Inputs {
    /// Generate a run's inputs. `targets` is how many revokes the run's
    /// windows can send (0 outside `revoke_mix`).
    pub fn generate(workload: Workload, seed: u64, targets: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7661_6c62_656e_6368);
        let layout = Layout { targets };
        let owner = Keypair::from_seed(&rng.gen::<[u8; 32]>());
        let bulk_claim = ClaimRequest::create(&owner, &Digest::of(b"preloaded record"));
        let targets: Vec<Pair> = (0..targets)
            .map(|s| owner_pair(&owner, s, b"target"))
            .collect();
        let replay: Vec<Pair> = (0..REPLAY as u64)
            .map(|i| owner_pair(&owner, layout.replay_base() + i, b"replay"))
            .collect();
        let fresh = targets.len() + REPLAY;
        let claims = (0..fresh as u64)
            .map(|i| ClaimRequest::create(&owner, &Digest::of_parts(&[b"fresh", &i.to_be_bytes()])))
            .collect();
        let pool = match workload {
            Workload::Filtered => {
                // Popularity rank → id through a seeded shuffle, so hot
                // ids are spread over live and unclaimed alike.
                let mut population: Vec<(RecordId, Expect)> = (0..LIVE)
                    .map(|i| (RecordId::new(LEDGER, layout.live_base() + i), Expect::Live))
                    .chain((0..UNCLAIMED).map(|i| {
                        let id = RecordId::new(LEDGER, layout.unclaimed_base() + i);
                        (id, Expect::Unclaimed)
                    }))
                    .collect();
                for i in (1..population.len()).rev() {
                    population.swap(i, rng.gen_range(0..=i));
                }
                let zipf = Zipf::new(population.len(), ZIPF_THETA);
                (0..POOL)
                    .map(|_| population[zipf.sample(&mut rng)])
                    .collect()
            }
            Workload::Upstream | Workload::RevokeMix => (0..POOL)
                .map(|_| {
                    let serial = layout.revoked_base() + rng.gen_range(0..REVOKED);
                    (RecordId::new(LEDGER, serial), Expect::Revoked)
                })
                .collect::<Vec<_>>(),
        };
        let mut pool_frames = Vec::with_capacity(POOL * 32);
        for (id, _) in &pool {
            push_frame(&mut pool_frames, &Request::Query { id: *id });
        }
        let frame_len = pool_frames.len() / POOL;
        assert_eq!(
            frame_len * POOL,
            pool_frames.len(),
            "query frames are fixed-size"
        );
        Inputs {
            workload,
            layout,
            bulk_claim,
            targets,
            replay,
            claims,
            pool,
            pool_frames,
            frame_len,
            synth_seed: rng.gen(),
        }
    }

    /// Append `count` main-stream requests at `rate`/s, the first due at
    /// `start_ns`, continuing the pool cycle at `*cursor`.
    pub fn main_stream(
        &self,
        plan: &mut Plan,
        start_ns: u64,
        rate: f64,
        count: u64,
        cursor: &mut usize,
    ) {
        let gap = 1e9 / rate;
        for k in 0..count {
            let i = *cursor % POOL;
            *cursor += 1;
            let frame = &self.pool_frames[i * self.frame_len..(i + 1) * self.frame_len];
            plan.push(start_ns + (k as f64 * gap) as u64, frame, self.pool[i].1);
        }
    }

    /// The proxy-socket plan for one window: warm-up plus `window_ns` of
    /// the main stream at the nominal rate, merged with visibility
    /// probes of `revokes` (target index, due time).
    pub fn proxy_plan(
        &self,
        start_ns: u64,
        window_ns: u64,
        revokes: &[(usize, u64)],
        cursor: &mut usize,
    ) -> Plan {
        let rate = self.workload.nominal_rate();
        let count = ((WARMUP_NS + window_ns) as f64 * rate / 1e9) as u64;
        let mut main = Plan::default();
        self.main_stream(&mut main, start_ns, rate, count, cursor);
        let mut probes: Vec<(u64, usize)> = revokes
            .iter()
            .flat_map(|&(t, due)| {
                // Stagger each key's probe grid by a share of a step, so
                // the probes of overlapping keys do not arrive as bursts.
                let first = due + PROBE_START_NS + (t as u64 % 5) * PROBE_STEP_NS / 5;
                (0..PROBES).map(move |m| (first + m * PROBE_STEP_NS, t))
            })
            .collect();
        probes.sort_unstable();
        let mut frame = Vec::with_capacity(64);
        let mut plan = Plan::default();
        let mut p = probes.into_iter().peekable();
        for i in 0..main.len() {
            while let Some(&(due, t)) = p.peek() {
                if due > main.due[i] {
                    break;
                }
                frame.clear();
                push_frame(
                    &mut frame,
                    &Request::Query {
                        id: self.targets[t].revoke.id,
                    },
                );
                plan.push(due, &frame, Expect::Probe(t as u32));
                p.next();
            }
            plan.push(main.due[i], main.frame(i), main.expect[i]);
        }
        for (due, t) in p {
            frame.clear();
            push_frame(
                &mut frame,
                &Request::Query {
                    id: self.targets[t].revoke.id,
                },
            );
            plan.push(due, &frame, Expect::Probe(t as u32));
        }
        plan
    }

    /// Revokes (target index, due time) for a window starting at
    /// `start_ns` (warm-up first), using targets from `*next_target`.
    pub fn revokes_for(
        &self,
        start_ns: u64,
        window_ns: u64,
        next_target: &mut usize,
    ) -> Vec<(usize, u64)> {
        let rate = self.workload.write_rate();
        if rate == 0.0 || window_ns <= REVOKE_TAIL_NS {
            return Vec::new();
        }
        let n = ((window_ns - REVOKE_TAIL_NS) as f64 * rate / 1e9) as u64;
        let first = start_ns + WARMUP_NS;
        (0..n)
            .filter_map(|k| {
                let t = *next_target;
                (t < self.targets.len()).then(|| {
                    *next_target += 1;
                    (t, first + (k as f64 * 1e9 / rate) as u64)
                })
            })
            .collect()
    }

    /// The owner-socket plan: each revoke, with a fresh claim half a
    /// period after it, from `*next_claim`.
    pub fn owner_plan(&self, revokes: &[(usize, u64)], next_claim: &mut usize) -> Plan {
        let half = (0.5e9 / self.workload.write_rate().max(1.0)) as u64;
        let mut plan = Plan::default();
        let mut frame = Vec::with_capacity(256);
        for &(t, due) in revokes {
            frame.clear();
            push_frame(&mut frame, &Request::Revoke(self.targets[t].revoke));
            plan.push(due, &frame, Expect::RevokeAck(t as u32));
            frame.clear();
            push_frame(&mut frame, &Request::Claim(self.claims[*next_claim]));
            *next_claim += 1;
            plan.push(due + half, &frame, Expect::Claimed);
        }
        plan
    }

    /// Revoke targets one window of `window_ns` sends (as
    /// [`revokes_for`](Inputs::revokes_for) counts them).
    pub fn targets_needed(workload: Workload, window_ns: u64) -> u64 {
        (window_ns.saturating_sub(REVOKE_TAIL_NS) as f64 * workload.write_rate() / 1e9) as u64
    }
}

/// FNV-1a over the bytes of a schedule.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

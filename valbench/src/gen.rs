//! The open-loop generator: replays a pre-encoded [`Plan`] on one
//! pipelined socket, sending each request at its due time whether or
//! not earlier ones were answered, and matching responses in order (the
//! reactor answers each connection in order).
//!
//! One thread drives every socket of a run and does both halves: it
//! writes every request that is due, and reads whatever responses have
//! arrived. Given a core of its own it never sleeps, so it sends on time
//! and timestamps answers as they land (an idle virtual CPU can take
//! milliseconds to be woken); sharing a core with the program, it waits
//! in `ppoll` with nanosecond timer slack instead.

use crate::sys;
use bytes::Bytes;
use irs_core::claim::RevocationStatus;
use irs_core::wire::{Response, Wire};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// The run's clock: nanoseconds since one shared origin.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock starting now.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// What a request must be answered with (ground truth from the inputs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Claimed, never revoked: `NotRevoked`.
    Live,
    /// Never claimed: `NotRevoked`, or the ledger's unknown-record error
    /// after a filter false positive.
    Unclaimed,
    /// Revoked before the run: `Revoked`.
    Revoked,
    /// Visibility probe of revoke target `n`: either verdict until a
    /// refresh that began after its revoke ack has completed, then only
    /// `Revoked`.
    Probe(u32),
    /// An owner's claim: `Claimed`.
    Claimed,
    /// An owner's revoke of target `n`: `RevokeAck` with `Revoked`.
    RevokeAck(u32),
}

/// What a response said, decoded with the program's own wire codec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No response (yet).
    Pending,
    /// `Status` allowing viewing.
    NotRevoked,
    /// `Status` forbidding viewing.
    Revoked,
    /// `Error` with the unknown-record code.
    UnknownRecord,
    /// `Claimed`.
    Claimed,
    /// `RevokeAck` reporting the record revoked.
    RevokeAck,
    /// `StatusStale`: a degraded answer.
    Stale,
    /// `Overloaded`.
    Overloaded,
    /// `Unavailable`.
    Unavailable,
    /// Any other error or unexpected response.
    Error,
}

fn classify(payload: &[u8]) -> Verdict {
    match Response::from_bytes(Bytes::copy_from_slice(payload)) {
        Ok(Response::Status { status, .. }) => match status {
            RevocationStatus::NotRevoked => Verdict::NotRevoked,
            _ => Verdict::Revoked,
        },
        Ok(Response::Error { code, .. }) if code == irs_ledger::codes::UNKNOWN_RECORD => {
            Verdict::UnknownRecord
        }
        Ok(Response::Claimed { .. }) => Verdict::Claimed,
        Ok(Response::RevokeAck { status, .. }) if status != RevocationStatus::NotRevoked => {
            Verdict::RevokeAck
        }
        Ok(Response::StatusStale { .. }) => Verdict::Stale,
        Ok(Response::Overloaded { .. }) => Verdict::Overloaded,
        Ok(Response::Unavailable { .. }) => Verdict::Unavailable,
        _ => Verdict::Error,
    }
}

/// A pre-encoded request schedule for one socket.
#[derive(Default)]
pub struct Plan {
    /// Due time of each request (run clock, ns), non-decreasing.
    pub due: Vec<u64>,
    /// End offset in `bytes` of each request's frame.
    pub ends: Vec<usize>,
    /// Every frame, back to back.
    pub bytes: Vec<u8>,
    /// Ground truth per request.
    pub expect: Vec<Expect>,
}

impl Plan {
    /// Append one request.
    pub fn push(&mut self, due: u64, frame: &[u8], expect: Expect) {
        debug_assert!(self.due.last().map_or(true, |&d| d <= due));
        self.bytes.extend_from_slice(frame);
        self.ends.push(self.bytes.len());
        self.due.push(due);
        self.expect.push(expect);
    }

    /// Requests in the plan.
    pub fn len(&self) -> usize {
        self.due.len()
    }

    /// Request `i`'s frame.
    pub fn frame(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    /// Fold the schedule (due times relative to `origin`, and frames)
    /// into an FNV-1a digest.
    pub fn digest(&self, hash: u64, origin: u64) -> u64 {
        let mut h = hash;
        for i in 0..self.len() {
            let due = self.due[i].saturating_sub(origin);
            h = crate::workload::fnv1a(h, &due.to_le_bytes());
            h = crate::workload::fnv1a(h, self.frame(i));
        }
        h
    }
}

/// What happened to each request of a plan.
pub struct Outcome {
    /// When the generator handed the request to the socket (ns).
    pub sent: Vec<u64>,
    /// When its response was read (ns; 0 = never).
    pub done: Vec<u64>,
    /// The decoded response.
    pub verdict: Vec<Verdict>,
}

/// Write one element per page of `v` so its pages are resident.
fn prefault<T: Copy>(v: &mut [T]) {
    let step = (4096 / std::mem::size_of::<T>().max(1)).max(1);
    for i in (0..v.len()).step_by(step) {
        // SAFETY: `i < v.len()`, so the pointer is in bounds and aligned;
        // the value written is the one already there.
        unsafe { std::ptr::write_volatile(v.as_mut_ptr().add(i), v[i]) };
    }
}

/// Raw response bytes reserved per request (a `Status` answer is 22).
const RAW_PER_RESPONSE: usize = 48;

/// When a replay stops sending and stops waiting.
#[derive(Clone, Copy)]
pub struct Limits {
    /// No request is sent at or after this time (ns).
    pub send_until_ns: u64,
    /// Responses still missing at this time are given up on (ns).
    pub give_up_ns: u64,
    /// At most this many requests unanswered at once per socket
    /// (`usize::MAX` for a pure open loop).
    pub max_inflight: usize,
}

/// One socket's replay state.
struct Lane<'a> {
    stream: &'a mut TcpStream,
    plan: &'a Plan,
    out: Outcome,
    next: usize,
    written: usize,
    got: usize,
    rbuf: Vec<u8>,
    rlen: usize,
    /// Raw responses, decoded after the run: the loop must not allocate,
    /// since the allocator can take the process's memory-map lock, which
    /// the program's threads hold across their own mmap/munmap calls.
    raw: Vec<u8>,
    raw_end: Vec<usize>,
    raw_len: usize,
    closed: bool,
}

impl<'a> Lane<'a> {
    fn new(stream: &'a mut TcpStream, plan: &'a Plan) -> Lane<'a> {
        let n = plan.len();
        let mut lane = Lane {
            stream,
            plan,
            out: Outcome {
                sent: vec![0; n],
                done: vec![0; n],
                verdict: vec![Verdict::Pending; n],
            },
            next: 0,
            written: 0,
            got: 0,
            rbuf: vec![0u8; 1 << 20],
            rlen: 0,
            raw: vec![0u8; n * RAW_PER_RESPONSE + (1 << 16)],
            raw_end: vec![0; n],
            raw_len: 0,
            closed: false,
        };
        // Fault every page in now, for the same reason as above.
        prefault(&mut lane.out.sent);
        prefault(&mut lane.out.done);
        prefault(&mut lane.raw);
        prefault(&mut lane.raw_end);
        prefault(&mut lane.rbuf);
        lane.stream
            .set_nonblocking(true)
            .expect("set socket non-blocking");
        lane.stream.set_nodelay(true).expect("set TCP_NODELAY");
        lane
    }

    /// Mark every due request sent and write what the socket takes.
    /// Returns whether bytes are still waiting for the socket.
    fn send(&mut self, now: u64, limits: &Limits) -> bool {
        let n = self.plan.len();
        while now < limits.send_until_ns
            && self.next < n
            && self.plan.due[self.next] <= now
            && self.next - self.got < limits.max_inflight
        {
            self.out.sent[self.next] = now;
            self.next += 1;
        }
        let target = if self.next == 0 {
            0
        } else {
            self.plan.ends[self.next - 1]
        };
        if self.written < target {
            match self.stream.write(&self.plan.bytes[self.written..target]) {
                Ok(k) => self.written += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => self.closed = true,
            }
        }
        self.written < target
    }

    /// Read and split every response that has arrived.
    fn receive(&mut self, clock: &Clock) {
        loop {
            match self.stream.read(&mut self.rbuf[self.rlen..]) {
                Ok(0) => self.closed = true,
                Ok(k) => {
                    self.rlen += k;
                    let at = clock.now();
                    let mut pos = 0;
                    while self.rlen - pos >= 4 {
                        let len = u32::from_be_bytes(
                            self.rbuf[pos..pos + 4].try_into().expect("4 bytes"),
                        ) as usize;
                        assert!(
                            len + 4 <= self.rbuf.len(),
                            "response frame of {len} bytes exceeds the read buffer"
                        );
                        if self.rlen - pos < 4 + len {
                            break;
                        }
                        if self.got < self.next {
                            if self.raw_len + len <= self.raw.len() {
                                self.raw[self.raw_len..self.raw_len + len]
                                    .copy_from_slice(&self.rbuf[pos + 4..pos + 4 + len]);
                                self.raw_len += len;
                            }
                            self.raw_end[self.got] = self.raw_len;
                            self.out.done[self.got] = at;
                            self.got += 1;
                        }
                        pos += 4 + len;
                    }
                    self.rbuf.copy_within(pos..self.rlen, 0);
                    self.rlen -= pos;
                    continue;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => self.closed = true,
            }
            return;
        }
    }

    fn finished(&self, now: u64, limits: &Limits) -> bool {
        let done_sending = self.next == self.plan.len() || now >= limits.send_until_ns;
        self.closed || (done_sending && self.got == self.next)
    }

    /// When this lane next needs the thread, absent an answer.
    fn next_due(&self, limits: &Limits) -> u64 {
        if self.next < self.plan.len() && self.next - self.got < limits.max_inflight {
            self.plan.due[self.next].min(limits.send_until_ns)
        } else {
            u64::MAX
        }
    }

    fn into_outcome(mut self) -> Outcome {
        let mut start = 0;
        for i in 0..self.got {
            // An empty slot (the raw buffer ran out) decodes as an error.
            self.out.verdict[i] = classify(&self.raw[start..self.raw_end[i]]);
            start = self.raw_end[i];
        }
        self.out
    }
}

/// Replay each plan on its socket within `limits`, on the calling
/// thread, which becomes the generator thread: its kernel id goes to
/// `tid_out`, and with `own_cpu` it is pinned there and never sleeps.
/// The send/receive loop does not allocate.
pub fn drive(
    conns: &mut [(TcpStream, &Plan)],
    clock: Clock,
    limits: Limits,
    tid_out: &AtomicU32,
    own_cpu: Option<usize>,
) -> Vec<Outcome> {
    sys::become_generator_thread();
    if let Some(cpu) = own_cpu {
        sys::pin(0, cpu..cpu + 1);
    }
    tid_out.store(sys::thread_id(), Ordering::SeqCst);
    let mut lanes: Vec<Lane> = conns.iter_mut().map(|(s, p)| Lane::new(s, p)).collect();
    let mut fds: Vec<(RawFd, i16)> = lanes
        .iter()
        .map(|l| (l.stream.as_raw_fd(), sys::POLLIN))
        .collect();
    loop {
        let now = clock.now();
        for (lane, fd) in lanes.iter_mut().zip(fds.iter_mut()) {
            let blocked = lane.send(now, &limits);
            lane.receive(&clock);
            fd.1 = if blocked {
                sys::POLLIN | sys::POLLOUT
            } else {
                sys::POLLIN
            };
        }
        let now = clock.now();
        if now >= limits.give_up_ns || lanes.iter().all(|l| l.finished(now, &limits)) {
            break;
        }
        if own_cpu.is_some() {
            std::thread::yield_now();
            continue;
        }
        let until = lanes
            .iter()
            .map(|l| l.next_due(&limits))
            .min()
            .unwrap_or(u64::MAX)
            .min(limits.give_up_ns);
        let blocked = fds.iter().any(|f| f.1 & sys::POLLOUT != 0);
        let timeout = if blocked {
            1_000_000
        } else {
            until.saturating_sub(now)
        };
        if timeout > 0 {
            sys::wait(&fds, Duration::from_nanos(timeout));
        }
    }
    lanes.into_iter().map(Lane::into_outcome).collect()
}

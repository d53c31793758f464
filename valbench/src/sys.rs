//! Operating-system hooks: the counting allocator, precise waits on
//! sockets, and readers for the kernel's per-process and per-thread
//! counters under `/proc`. Linux only, like the reactor it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counts heap allocations made by every thread except the generator's
/// own, so `reactor.allocs_per_op` measures the program alone.
pub struct CountingAlloc;

static PROGRAM_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static IS_GENERATOR: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only extra work is a relaxed counter bump and a read of a
// const-initialised thread-local without a destructor, neither of which
// allocates or can unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[inline]
fn count_alloc() {
    if !IS_GENERATOR.try_with(Cell::get).unwrap_or(false) {
        PROGRAM_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Allocations made so far by threads other than the generator's.
pub fn program_allocs() -> u64 {
    PROGRAM_ALLOCS.load(Ordering::Relaxed)
}

/// Mark the calling thread as a generator thread: its allocations no
/// longer count, and its timed waits get nanosecond timer slack so a
/// request leaves at its due time rather than up to 50 µs late.
pub fn become_generator_thread() {
    IS_GENERATOR.with(|g| g.set(true));
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: prctl(PR_SET_TIMERSLACK, 1) only changes the calling
    // thread's timer slack; it takes no pointers.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Fix glibc's thresholds so every allocation of 256 KiB or more is its
/// own mapping, unmapped when freed, and free heap tops are returned
/// above 1 MiB. By default both thresholds float upwards with the sizes
/// a process frees, so the refresh path's multi-megabyte filter copies
/// would linger in the heap for as long as timing happens to leave
/// them, and resident memory would vary from run to run.
pub fn fix_malloc_thresholds() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt takes no pointers; both values are in range.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 256 * 1024);
        mallopt(M_TRIM_THRESHOLD, 1024 * 1024);
    }
}

/// Return free heap pages to the kernel (glibc's `malloc_trim`).
pub fn trim_heap() {
    // SAFETY: malloc_trim takes no pointers and only releases memory the
    // allocator holds free.
    unsafe {
        malloc_trim(0);
    }
}

/// Restrict thread `tid` (0 = the calling thread) to CPUs `cpus`
/// (indices below 64). Returns whether the kernel accepted the mask.
pub fn pin(tid: u32, cpus: std::ops::Range<usize>) -> bool {
    let mask: u64 = cpus.filter(|&c| c < 64).fold(0, |m, c| m | 1 << c);
    // SAFETY: `mask` is a live local of the size passed; the kernel only
    // reads it.
    unsafe { sched_setaffinity(tid as i32, std::mem::size_of::<u64>(), &mask) == 0 }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn malloc_trim(pad: usize) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Readiness wanted from [`wait`].
pub const POLLIN: i16 = 0x1;
/// Readiness wanted from [`wait`].
pub const POLLOUT: i16 = 0x4;

/// Block until one of `fds` (at most four) is ready for its events or
/// `timeout` passes (an interrupted wait simply returns early; callers loop).
pub fn wait(fds: &[(RawFd, i16)], timeout: Duration) {
    // A fixed array keeps the wait allocation-free; entries with a
    // negative fd are ignored by the kernel.
    let mut pfds = [(); 4].map(|_| PollFd {
        fd: -1,
        events: 0,
        revents: 0,
    });
    for (p, &(fd, events)) in pfds.iter_mut().zip(fds) {
        p.fd = fd;
        p.events = events;
    }
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfds` and `ts` are live locals for the whole call, nfds
    // is the array's length, and a null sigmask leaves the signal mask
    // unchanged.
    unsafe {
        ppoll(pfds.as_mut_ptr(), pfds.len() as u64, &ts, std::ptr::null());
    }
}

/// This thread's kernel thread id (from `/proc/thread-self`).
pub fn thread_id() -> u32 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .expect("/proc/thread-self names the calling thread")
}

/// `syscr + syscw` of an `io` file: read- and write-family system calls
/// (file `read`/`write` and relatives; socket `recv`/`send`, which the
/// standard library's `TcpStream` uses, are not among them).
fn syscalls_in(path: &str) -> u64 {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .filter(|l| l.starts_with("syscr:") || l.starts_with("syscw:"))
        .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum()
}

/// Read/write-family system calls made by the whole process so far.
pub fn process_syscalls() -> u64 {
    syscalls_in("/proc/self/io")
}

/// Read/write-family system calls made by one thread so far.
pub fn thread_syscalls(tid: u32) -> u64 {
    syscalls_in(&format!("/proc/self/task/{tid}/io"))
}

/// Nanoseconds one thread has spent on a CPU (`schedstat`).
pub fn thread_cpu_ns(tid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// CPU nanoseconds per live thread of this process.
pub fn cpu_by_thread() -> Vec<(u32, u64)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .map(|tid| (tid, thread_cpu_ns(tid)))
        .collect()
}

/// Voluntary context switches (blocking waits) per live thread.
pub fn wakeups_by_thread() -> Vec<(u32, u64)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .map(|tid| {
            let switches = std::fs::read_to_string(format!("/proc/self/task/{tid}/status"))
                .unwrap_or_default()
                .lines()
                .find(|l| l.starts_with("voluntary_ctxt_switches:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
                .unwrap_or(0);
            (tid, switches)
        })
        .collect()
}

/// Resident set size now, in KiB.
pub fn rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// The CPU model name.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One core's L2 cache size as the kernel reports it (e.g. "2048K").
pub fn l2_size() -> String {
    (0..8)
        .find_map(|i| {
            let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let level = std::fs::read_to_string(format!("{base}/level")).ok()?;
            (level.trim() == "2")
                .then(|| std::fs::read_to_string(format!("{base}/size")).ok())
                .flatten()
        })
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The filesystem type of the mount holding `path` (longest matching
/// mount point in `/proc/self/mountinfo`).
pub fn filesystem_of(path: &std::path::Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    info.lines()
        .filter_map(|line| {
            let mut halves = line.splitn(2, " - ");
            let left: Vec<&str> = halves.next()?.split_whitespace().collect();
            let fstype = halves.next()?.split_whitespace().next()?;
            let mount = *left.get(4)?;
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".to_string())
}

/// The source revision, when the benchmark runs inside a git checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

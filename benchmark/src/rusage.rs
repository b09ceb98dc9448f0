//! Process-wide resource usage: CPU time, peak resident set, context
//! switches.
//!
//! Each from the source that gets it right:
//!
//! - CPU time from the process CPU-time clock. `utime`/`stime` (in
//!   `/proc/self/stat` and in `getrusage` alike) are sampled at the
//!   scheduler tick, far too coarse for a tenth-of-a-second slice; the
//!   clock sums the run time the scheduler accounts to each thread, in
//!   nanoseconds.
//! - Peak memory from `VmHWM` in `/proc/self/status`. `ru_maxrss` also
//!   remembers the image the process was forked from: started by `cargo
//!   run`, every workload under 26 MiB read as cargo's 25.87 MiB.
//! - Context switches from `getrusage(RUSAGE_SELF)`, which covers every
//!   thread the process has had, including session threads that already
//!   exited — `/proc/self/status` counts the main thread's only, and a
//!   walk over `/proc/self/task` the live ones'.
//!
//! It also narrows and restores the set of cores the calling thread may
//! run on (threads started afterwards inherit it), for the measurements
//! that must not depend on where the scheduler happens to put threads.

use std::ffi::{c_int, c_long};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then 14 longs.
#[repr(C)]
#[derive(Default)]
struct RawUsage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RawUsage) -> c_int;
    fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut Cores) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const Cores) -> c_int;
}

/// A `cpu_set_t`: one bit per core, 1024 of them.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cores([u64; 16]);

impl Cores {
    /// The lowest-numbered core of the set, alone.
    fn first(&self) -> Cores {
        let mut one = Cores([0; 16]);
        if let Some(word) = self.0.iter().position(|&w| w != 0) {
            one.0[word] = 1 << self.0[word].trailing_zeros();
        }
        one
    }
}

/// `struct timespec`.
#[repr(C)]
#[derive(Default)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const RUSAGE_SELF: c_int = 0;
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// A reading of the process's cumulative resource usage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Usage {
    /// CPU time of all threads, user and system, s.
    pub cpu_s: f64,
    /// Peak resident set size (`VmHWM`), MiB.
    pub peak_rss_mb: f64,
    /// Voluntary plus involuntary context switches of all threads.
    pub ctx_switches: u64,
}

/// Read the process's usage so far.
#[cfg(target_os = "linux")]
pub fn usage() -> Usage {
    let mut raw = RawUsage::default();
    // SAFETY: `raw` is a live, writable `struct rusage` of the layout
    // Linux documents for `getrusage(2)` (two `timeval`s and fourteen
    // `long`s, all `c_long` here), and RUSAGE_SELF is a valid `who`; the
    // call writes only inside that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
    Usage {
        cpu_s: cpu_seconds(),
        peak_rss_mb: peak_rss_mb(),
        ctx_switches: (raw.ru_nvcsw + raw.ru_nivcsw) as u64,
    }
}

/// `VmHWM` of this process, MiB (NaN if `/proc` does not say).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time the process has used so far, every thread, s.
#[cfg(target_os = "linux")]
pub fn cpu_seconds() -> f64 {
    let mut time = Timespec::default();
    // SAFETY: `time` is a live, writable `struct timespec` (two `long`s on
    // Linux) and CLOCK_PROCESS_CPUTIME_ID is a clock every Linux process
    // has; the call writes only inside that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) cannot fail with a valid pointer");
    time.tv_sec as f64 + time.tv_nsec as f64 / 1e9
}

/// Keep the calling thread, and every thread started from it afterwards,
/// on the first core it may run on; returns the cores it could run on
/// until now, for [`allow_cores`].
#[cfg(target_os = "linux")]
pub fn pin_to_one_core() -> Cores {
    let mut allowed = Cores([0; 16]);
    // SAFETY: `allowed` is a live, writable 128-byte `cpu_set_t`, pid 0 is
    // the calling thread, and the call writes at most the size it is given.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Cores>(), &mut allowed) };
    assert_eq!(rc, 0, "sched_getaffinity of the calling thread cannot fail with a valid pointer");
    allow_cores(&allowed.first());
    allowed
}

/// Let the calling thread run on `cores` (a set [`pin_to_one_core`]
/// returned, so one the thread was already allowed).
#[cfg(target_os = "linux")]
pub fn allow_cores(cores: &Cores) {
    // SAFETY: `cores` is a live 128-byte `cpu_set_t` the call only reads.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<Cores>(), cores) };
    assert_eq!(rc, 0, "sched_setaffinity to cores the thread already had cannot fail");
}

/// Threads the generators and the rayon pool may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_is_monotone_and_plausible() {
        let before = usage();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let after = usage();
        assert!(after.cpu_s >= before.cpu_s);
        assert!(after.ctx_switches >= before.ctx_switches);
        assert!(after.peak_rss_mb > 1.0 && after.peak_rss_mb < 1e6, "{}", after.peak_rss_mb);
    }

    #[test]
    fn pinning_narrows_to_one_core_and_is_undone() {
        // On a thread of its own: affinity is per thread, and the test
        // harness's other threads must keep theirs.
        std::thread::spawn(|| {
            let before = pin_to_one_core();
            assert_eq!(nproc(), 1, "a pinned thread sees one core");
            let pinned = pin_to_one_core();
            assert_eq!(pinned, before.first());
            assert_eq!(pinned.0.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            allow_cores(&before);
            assert_eq!(pin_to_one_core(), before);
        })
        .join()
        .unwrap();
    }
}

//! What the benchmark reads from the operating system: process CPU
//! time, peak resident set, thread names, two host-speed probes, and
//! the watchdog that turns a hang into a failed run.

use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// A Linux `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Restricts the calling thread — and every thread spawned from it
/// afterwards — to the lowest-numbered CPU it may run on, and returns
/// that CPU; `None` (nothing changed) if the kernel refuses.
///
/// For a workload whose threads only ever hand one request to each
/// other: spread over the cores of a shared VM, each hand-off is a
/// cross-CPU wake-up of a halted vCPU, whose price is the
/// hypervisor's and changes from minute to minute (`serve-warm`'s
/// median latency read 0.08 ms in one run and 0.20 ms in the next);
/// on one CPU a hand-off is a context switch.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let word = allowed.iter().position(|&w| w != 0)?;
    let bit = allowed[word].trailing_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0)
        .then_some(word * 64 + bit)
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU nanoseconds consumed by every thread of this process, living or
/// exited — the servers' reactor, submitter and worker threads, the
/// engine pool and the generator alike.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) that outlives the call, and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Names of this process's live threads (`/proc/self/task/*/comm`).
pub fn thread_names() -> Vec<String> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut names: Vec<String> = dir
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect();
    names.sort();
    names
}

/// Exit code of a run the watchdog killed.
pub const WATCHDOG_EXIT: i32 = 124;

/// Kills the process if it is still running after `limit`: prints the
/// live thread names (the picture a wedged reactor leaves behind) and
/// exits with [`WATCHDOG_EXIT`] without a result line.
pub struct Watchdog {
    disarm: mpsc::Sender<()>,
    thread: JoinHandle<()>,
}

impl Watchdog {
    /// Arms the watchdog.
    pub fn arm(limit: Duration, what: String) -> Watchdog {
        let (disarm, armed) = mpsc::channel::<()>();
        let thread = std::thread::Builder::new()
            .name("bench-watchdog".to_string())
            .spawn(move || {
                if armed.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
                    eprintln!(
                        "watchdog: {what} still running after {:.0} s; live threads: {}",
                        limit.as_secs_f64(),
                        thread_names().join(", ")
                    );
                    std::process::exit(WATCHDOG_EXIT);
                }
            })
            .expect("spawn watchdog");
        Watchdog { disarm, thread }
    }

    /// Disarms and joins the watchdog thread.
    pub fn disarm(self) {
        drop(self.disarm);
        let _ = self.thread.join();
    }
}

/// Bytes the copy probe moves per pass (read + write of 64 MiB).
const COPY_BYTES: usize = 64 << 20;

/// Host copy bandwidth in GB/s: best of five 64 MiB `copy_from_slice`
/// passes, counting the bytes read **and** the bytes written — the same
/// convention as `CompiledOp::bytes_touched`, so kernel rates divide by
/// it directly.
pub fn copy_gbps() -> f64 {
    let src = vec![1u8; COPY_BYTES];
    let mut dst = vec![0u8; COPY_BYTES];
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    2.0 * COPY_BYTES as f64 / best / 1e9
}

/// Milliseconds one core needs for a fixed integer loop (best of
/// three): the host's scalar speed at the moment of the run.
pub fn spin_ms() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work_and_rss_is_positive() {
        let before = process_cpu_ns();
        let ms = spin_ms();
        let after = process_cpu_ns();
        assert!(ms > 0.0);
        assert!(after > before, "{before} -> {after}");
        assert!(peak_rss_mib() > 0.5);
    }

    #[test]
    fn watchdog_disarms_cleanly_and_threads_are_named() {
        let dog = Watchdog::arm(Duration::from_secs(60), "test".to_string());
        // The kernel keeps 15 bytes of a thread's name; this test's own
        // thread is certainly alive and named.
        let me = std::thread::current();
        let comm: String = me
            .name()
            .expect("test threads are named")
            .chars()
            .take(15)
            .collect();
        assert!(thread_names().contains(&comm), "{:?}", thread_names());
        dog.disarm();
    }
}

//! Process resource readings: CPU time, peak resident memory, host facts.

use std::time::Duration;

/// `struct rusage` on Linux x86-64 / aarch64: two `timeval`s followed by
/// fourteen `long`s, all 64-bit.
#[repr(C)]
struct RUsage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage_self() -> RUsage {
    let mut u = RUsage {
        utime_sec: 0,
        utime_usec: 0,
        stime_sec: 0,
        stime_usec: 0,
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable `struct rusage` with the C layout
    // (`repr(C)`, 18 × 64-bit fields), and RUSAGE_SELF is a valid `who`;
    // getrusage writes only within the struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    u
}

/// User + system CPU time consumed by the whole process so far.
pub fn process_cpu() -> Duration {
    let u = rusage_self();
    let us = (u.utime_sec + u.stime_sec) * 1_000_000 + u.utime_usec + u.stime_usec;
    Duration::from_micros(u64::try_from(us).expect("CPU time is non-negative"))
}

/// Reset the kernel's peak-RSS mark to the current RSS, so a later
/// [`peak_rss_kb`] covers only what ran after this call. Returns false
/// where `/proc/self/clear_refs` is unavailable; the peak then spans the
/// whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size in KiB: `VmHWM` (which [`reset_peak_rss`]
/// resets), else the process-lifetime `ru_maxrss`.
pub fn peak_rss_kb() -> f64 {
    let hwm = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        });
    hwm.unwrap_or(rusage_self().maxrss_kb as f64)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

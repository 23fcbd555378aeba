//! Process accounting (Linux).

/// This process's peak resident set (`VmHWM`), in MiB.
pub fn self_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `struct rusage` as 64-bit Linux lays it out: two `timeval`s (user and
/// system time), then fourteen `long`s, the first of which is
/// `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Accounting of every child process waited for so far.
fn children() -> RUsage {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable value with the size and layout of
    // 64-bit Linux's `struct rusage` (the only target this compiles for,
    // see below), which is all getrusage writes to; RUSAGE_CHILDREN is a
    // valid `who`, so the call cannot fail and `u` stays zeroed if it did.
    unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    u
}

/// The largest peak resident set of any child waited for so far, in MiB.
pub fn children_peak_rss_mb() -> f64 {
    children().maxrss as f64 / 1024.0
}

/// User plus system CPU seconds of every child waited for so far.
pub fn children_cpu_s() -> f64 {
    let u = children();
    let s = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    s(u.utime) + s(u.stime)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("levi-benchmark reads 64-bit Linux process accounting (/proc, getrusage)");

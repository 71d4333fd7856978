//! Host resource readings for the end-to-end metrics: process CPU time
//! (user + sys, every thread, including threads that have exited) and
//! peak resident set, plus the heap trim between commands. Linux and
//! glibc only.

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU seconds this process has used so far.
pub fn cpu_s() -> f64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout of 64-bit Linux, and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// Returns free heap memory of every malloc arena to the system. Called
/// between commands, so that each command starts from a trimmed heap and
/// the peak resident set measures one command, not the fragmentation
/// earlier commands left in the farm threads' arenas.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` takes no pointers and only releases memory
    // the allocator holds as free.
    unsafe {
        malloc_trim(0);
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kb / 1024.0
}

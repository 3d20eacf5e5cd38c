//! Process-level measurements the harness takes around the program under
//! test: CPU time, peak resident set, and a spin-loop anchor that makes a
//! noisy or slower host visible next to the numbers it distorts.

use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of the whole process (all threads, including
/// ones that already exited) at nanosecond resolution. `/proc/self/stat`
/// reports the same total but in 10 ms ticks, too coarse for a 150 ms
/// iteration.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, which the cfg above pins) and the clock id
    // is a constant the kernel defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Wall nanoseconds of a fixed integer spin loop (median of 5). It touches
/// no memory and calls nothing in the program under test, so two sets
/// whose anchors differ were run on hosts of different speed or load.
pub fn calibration_ns() -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15_u64;
            for i in 0..20_000_000u64 {
                x = (x ^ i).wrapping_mul(0xff51_afd7_ed55_8ccd).rotate_left(31);
            }
            std::hint::black_box(x);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&mut samples)
}

/// Wall and process-CPU time of one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration, Duration) {
    let cpu0 = process_cpu();
    let t = Instant::now();
    let r = f();
    let wall = t.elapsed();
    (r, wall, process_cpu().saturating_sub(cpu0))
}

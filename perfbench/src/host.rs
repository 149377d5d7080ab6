//! Host facts and process counters: cores, last-level cache, a STREAM-style
//! triad, process CPU time and peak RSS, and the run's scratch directory.

use crate::stats;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Logical cores available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of CPU 0's highest-level data or unified cache, from sysfs.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for index in 0..16 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |file: &str| std::fs::read_to_string(format!("{dir}/{file}")).ok();
        let (Some(level), Some(size), Some(kind)) = (read("level"), read("size"), read("type"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// Parses sysfs cache sizes such as `48K` or `32M`.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * scale)
}

/// `struct timespec` of the C library.
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
}

/// Linux's clock of the CPU time of the whole process.
const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;

/// User plus system CPU seconds of this process, all threads included, to
/// the nanosecond (`/proc/self/stat` counts 10 ms ticks, too coarse for a
/// job of tens of milliseconds).
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A STREAM-style triad measurement.
#[derive(Debug, Clone, Copy)]
pub struct Triad {
    /// Bandwidth, GB/s (10^9 bytes).
    pub gbps: f64,
    /// Bytes per array (three arrays).
    pub array_bytes: usize,
    /// Threads the arrays were split across.
    pub threads: usize,
}

/// Triad array size: four times the last-level cache, kept between 32 and
/// 128 MiB so the three arrays stay a modest share of a shared host (a
/// larger cache than 32 MiB leaves the arrays under four times its size;
/// the attribution line states both).
pub fn triad_array_bytes(llc: Option<u64>) -> usize {
    let four_llc = llc.map_or(64 << 20, |b| 4 * b as usize);
    four_llc.clamp(32 << 20, 128 << 20)
}

/// STREAM triad `a = b + 3 c` over three arrays of `array_bytes` each, split
/// across `threads`: the median of `reps` timed passes after a warm one.
/// Bytes count two reads and one write per element, the STREAM convention
/// (write-allocate traffic is not counted).
pub fn triad(array_bytes: usize, threads: usize, reps: usize) -> Triad {
    let n = array_bytes / 8;
    let threads = threads.max(1);
    let chunk = n.div_ceil(threads);
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let pass = |a: &mut [f64]| {
        std::thread::scope(|scope| {
            for ((ai, bi), ci) in a.chunks_mut(chunk).zip(b.chunks(chunk)).zip(c.chunks(chunk)) {
                scope.spawn(move || {
                    for ((x, y), z) in ai.iter_mut().zip(bi).zip(ci) {
                        *x = y + 3.0 * z;
                    }
                });
            }
        });
    };
    pass(&mut a);
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            pass(&mut a);
            t.elapsed().as_secs_f64()
        })
        .collect();
    std::hint::black_box(&a);
    let secs = stats::median(&times).unwrap_or(f64::INFINITY);
    Triad { gbps: 3.0 * array_bytes as f64 / secs / 1e9, array_bytes, threads }
}

/// The run's scratch root, inside the working directory (the checkout).
const SCRATCH_ROOT: &str = ".perfbench_tmp";

/// A fresh, empty scratch directory of this process.
///
/// # Errors
/// The directory cannot be cleared or created.
pub fn scratch_dir(name: &str) -> Result<PathBuf, String> {
    let dir = Path::new(SCRATCH_ROOT).join(format!("{}-{name}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Removes the scratch root once no run's directory is left in it.
pub fn remove_scratch_root() {
    let _ = std::fs::remove_dir(SCRATCH_ROOT);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn cpu_time_counts_work_finely() {
        let before = cpu_seconds();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        let spent = cpu_seconds() - before;
        assert!(before > 0.0 && spent > 0.0 && spent < 5.0, "{before} then {spent} s");
    }

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("32M"), Some(32 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }
}

//! Host-speed calibration.
//!
//! On a shared machine the same code runs up to about 1.5× slower for
//! seconds or minutes at a time, whenever other tenants load the host: CPU
//! time rises with the wall, so the slowdown is in the core and its memory,
//! not in scheduling. Every timing of the program is therefore paired with
//! timings of a fixed kernel that does not touch the program's code, taken
//! right before and right after it, and reported scaled to the speed at
//! which the kernel takes [`REFERENCE_S`]:
//!
//! `reported = measured × REFERENCE_S / kernel time around the measurement`
//!
//! A change to the program moves the measurement and not the kernel, so it
//! shows in full; a slow spell of the host moves both, so it cancels. The
//! kernel probes a hash table of [`TABLE_MIB`] MiB, memory-bound like the
//! BDD operations it stands beside: over 100 s of a 2-vCPU VM it tracked
//! BDD rows to ±5 %, where a kernel of pure arithmetic or a 2 MiB table
//! tracked them worse.

use std::time::Instant;

/// Kernel seconds on an unloaded core of the reference machine (a 2.1 GHz
/// Xeon vCPU): reported times are seconds at that speed.
pub const REFERENCE_S: f64 = 0.005;

/// Probes per kernel run.
const PROBES: usize = 400_000;

/// Size of the kernel's table, resident for the whole run (and so part of
/// every workload's `peak_rss_mb`).
const TABLE_MIB: f64 = 8.0;

/// The calibration kernel and its scratch table.
pub struct Host {
    table: Vec<u64>,
}

impl Host {
    pub fn new() -> Host {
        let words = (TABLE_MIB * 1024.0 * 1024.0) as usize / std::mem::size_of::<u64>();
        let mut host = Host { table: vec![0; words] };
        host.kernel(); // the first run pays the table's page faults
        host
    }

    /// Runs the kernel once and returns its wall seconds.
    pub fn kernel(&mut self) -> f64 {
        let t = Instant::now();
        std::hint::black_box(probe(&mut self.table));
        t.elapsed().as_secs_f64()
    }

    /// Runs `f`, timing it between two kernel runs; returns its result, its
    /// wall seconds scaled to the reference speed, and the raw wall seconds.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.kernel();
        let t = Instant::now();
        let out = f();
        let wall = t.elapsed().as_secs_f64();
        let after = self.kernel();
        (out, scale(wall, before, after), wall)
    }
}

/// Pins the calling thread, and every thread it starts afterwards, to the
/// CPU it is running on, so that kernel runs on one thread measure the
/// CPU that another thread's work runs on: the vCPUs of a shared host slow
/// down independently. Returns whether it pinned.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> bool {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: plain libc calls; `mask` outlives the call and its size in
    // bytes is passed with it.
    unsafe {
        let cpu = sched_getcpu();
        if !(0..1024).contains(&cpu) {
            return false;
        }
        mask[cpu as usize / 64] |= 1 << (cpu % 64);
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> bool {
    false
}

/// `wall` scaled to the reference speed, given the kernel times taken
/// right before and right after it.
pub fn scale(wall: f64, before: f64, after: f64) -> f64 {
    wall * REFERENCE_S / ((before + after) / 2.0)
}

/// Open-addressing inserts and lookups of pseudo-random keys with short
/// linear probes, then a clear of the table.
fn probe(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for _ in 0..PROBES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let mut i = (x as usize) & mask;
        loop {
            let v = table[i];
            if v == 0 {
                table[i] = x;
                break;
            }
            if v == x {
                acc = acc.wrapping_add(1);
                break;
            }
            i = (i + 1) & mask;
            if i & 7 == 0 {
                acc = acc.wrapping_add(v);
                break;
            }
        }
    }
    table.fill(0);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_relative_to_the_reference_kernel_time() {
        assert!((scale(1.0, REFERENCE_S, REFERENCE_S) - 1.0).abs() < 1e-12);
        // On a host that runs the kernel at half speed, a measured second
        // is half a second at the reference speed.
        assert!((scale(1.0, 2.0 * REFERENCE_S, 2.0 * REFERENCE_S) - 0.5).abs() < 1e-12);
        assert!((scale(3.0, 0.004, 0.006) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_is_deterministic() {
        let mut a = vec![0; 1 << 12];
        let mut b = vec![0; 1 << 12];
        assert_eq!(probe(&mut a), probe(&mut b));
        assert!(a.iter().all(|&v| v == 0));
    }
}

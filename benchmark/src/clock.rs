//! The benchmark's clocks: wall time, the process's CPU time, and a
//! reference kernel that measures how fast this machine runs right now.
//!
//! Timings are CPU seconds of the process (all threads), as the kernel
//! accounts them. On a shared virtual machine this excludes the time the
//! hypervisor takes the virtual CPU away (steal) and the time spent waiting
//! to be scheduled. With one engine thread, CPU time equals wall time on an
//! idle machine. Wall time is reported beside it.
//!
//! Other tenants still change how fast the same code runs, by 10–40% over
//! minutes, so identical runs disagree. [`Reference`] is a fixed kernel of
//! the benchmark's own, sampled between the operations of every pass; the
//! gated pass time divides the pass's CPU seconds by the median sample. A
//! change to the library moves the pass and not the kernel.

use std::os::raw::{c_int, c_long};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// CPU seconds this process has run so far.
pub fn cpu_now() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // every 64-bit Linux target) and the clock id is a valid Linux clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU and wall seconds of one measured interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timing {
    /// Process CPU seconds.
    pub cpu: f64,
    /// Wall-clock seconds.
    pub wall: f64,
}

/// Reads both clocks at a start point.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Starts measuring now.
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_now(),
        }
    }

    /// The interval since the start.
    pub fn elapsed(&self) -> Timing {
        let cpu = cpu_now() - self.cpu;
        Timing {
            cpu,
            wall: self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// The kernel's nominal CPU seconds: rescaled times read as CPU seconds
/// on a machine where one [`Reference::sample`] takes this long.
pub const REFERENCE_S: f64 = 0.025;

/// The reference kernel: sorting a copy of a fixed array of pseudo-random
/// words. Its branchy, cache-resident work slows with contention from other
/// tenants much as the simulator does.
#[derive(Debug)]
pub struct Reference {
    data: Vec<u64>,
    scratch: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        let mut x = 0x853c_49e6_748f_ea9b_u64;
        let data: Vec<u64> = (0..200_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Reference {
            scratch: data.clone(),
            data,
        }
    }
}

impl Reference {
    /// CPU seconds of one kernel run.
    pub fn sample(&mut self) -> f64 {
        let watch = Stopwatch::start();
        for _ in 0..5 {
            self.scratch.copy_from_slice(&self.data);
            self.scratch.sort_unstable();
            std::hint::black_box(&self.scratch);
        }
        watch.elapsed().cpu
    }
}

/// `cpu` seconds rescaled to the reference speed, given the kernel's
/// seconds measured around them.
pub fn rescale(cpu: f64, kernel: f64) -> f64 {
    cpu * REFERENCE_S / kernel
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_not_with_sleep() {
        let watch = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = watch.elapsed();
        assert!(slept.wall >= 0.05);
        assert!(slept.cpu < 0.04, "sleeping used {} CPU seconds", slept.cpu);

        let watch = Stopwatch::start();
        let mut x = 1u64;
        while watch.elapsed().wall < 0.05 {
            x = std::hint::black_box(x.wrapping_mul(3));
        }
        assert!(watch.elapsed().cpu > 0.02);
    }

    #[test]
    fn rescaling_cancels_a_uniform_slowdown() {
        assert_eq!(rescale(2.0, REFERENCE_S), 2.0);
        assert_eq!(rescale(3.0, 1.5 * REFERENCE_S), 2.0);
        let mut kernel = Reference::default();
        assert!(kernel.sample() > 0.0);
    }
}

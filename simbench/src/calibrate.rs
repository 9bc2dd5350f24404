//! Host-speed calibration for the end-to-end times.
//!
//! On a shared host the simulator's speed drifts by a quarter or more over
//! minutes as neighbours' memory traffic comes and goes. The guest sees no
//! steal time for it, so no clock in the process can exclude it. A fixed
//! kernel, mostly random writes over a buffer larger than a core's cache
//! share plus a little dependent integer arithmetic, slows down with the
//! simulator when timed on the same thread right beside it. Each rep times
//! it before its first point and after each point, and scales that point's
//! times by the mean of the two kernel times around it. Timed in another
//! process between reps, the kernel did not track the simulator at all.
//!
//! On a 2-vCPU Sapphire Rapids KVM guest, 70 reps of each workload run in
//! rotation over 30 minutes gave medians of 4 consecutive reps whose
//! quartile spread was 0.10–0.16 of the median uncalibrated and 0.03–0.06
//! calibrated. Weighting the kernel further toward memory, or toward
//! arithmetic, tracked the workloads less well.

use std::hint::black_box;
use std::time::Instant;

/// What the calibrated times are scaled to: seconds on a host where one
/// kernel run takes this long (about an uncontended run on the host above).
pub const REFERENCE_S: f64 = 0.02;

const BUF_WORDS: usize = 1 << 21;
const MEM_ITERS: usize = 2_000_000;
const CPU_ITERS: usize = 1_500_000;

#[derive(Debug)]
pub struct Calibrator {
    buf: Vec<u64>,
    /// Every kernel time so far, in order.
    samples: Vec<f64>,
}

impl Calibrator {
    /// The buffer's share of the process's resident set.
    pub const RESIDENT_MB: f64 = (BUF_WORDS * 8) as f64 / (1024.0 * 1024.0);

    /// Allocates and touches the buffer, so page faults are not timed, and
    /// times the kernel once.
    pub fn new() -> Self {
        let mut cal = Calibrator {
            buf: (0..BUF_WORDS as u64).collect(),
            samples: Vec::new(),
        };
        let first = cal.measure();
        cal.samples.push(first);
        cal
    }

    /// Times the kernel again and returns the factor that turns host
    /// seconds spent since the previous timing into reference seconds.
    pub fn scale(&mut self) -> f64 {
        let before = *self.samples.last().expect("new() timed the kernel");
        let after = self.measure();
        self.samples.push(after);
        REFERENCE_S / ((before + after) / 2.0)
    }

    /// The median kernel time so far.
    pub fn median_s(&self) -> f64 {
        crate::record::median(&self.samples)
    }

    /// Host seconds the kernel takes this time.
    fn measure(&mut self) -> f64 {
        let t = Instant::now();
        let mask = self.buf.len() - 1;
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..MEM_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & mask;
            self.buf[i] = self.buf[i].wrapping_add(x);
        }
        let mut y = x;
        for _ in 0..CPU_ITERS {
            y = y.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) ^ (y >> 3);
        }
        black_box(y);
        t.elapsed().as_secs_f64()
    }
}

//! The host speed index. The benchmark runs on a few vCPUs of a shared
//! host, where other tenants' load changes how fast the same code runs —
//! by up to 2× over tens of seconds, far beyond any usable bound. The
//! CPU-bound figures are therefore reported at a nominal host speed: at
//! points spread through each phase of a run, the benchmark times a fixed
//! reference kernel (its own code, never the program's);
//! [`NOMINAL_PROBE_S`] over a probe's measured duration is the host's
//! speed, and the median over a phase's probes is the phase's speed
//! index `h`. A time measured at speed `h` is reported as `time × h`, a
//! rate as `rate / h`. A change to the program moves the reported figure
//! in full; a change in the host's speed moves the kernel with it and
//! cancels out.
//!
//! The probe does a fixed amount of work in two halves of about equal
//! time, the two kinds of work packed inference does: an XOR-popcount
//! sweep over a 4 MiB word buffer (larger than the per-core caches, so
//! it meets contention for memory bandwidth), and bit-sliced counting —
//! adding the bits of 4096-bit vectors into `i32` counters, then
//! thresholding — in L1 (which meets contention for the execution units
//! of a shared core). Either half alone follows the program poorly when
//! the host slows (inference slows 1.4× as much as the sweep in log
//! terms, and 0.75× as much as the counting); their sum slows about as
//! much as inference does (0.9–1.1× over several-minute traces). The
//! probe runs on one thread, so it cannot see what changes the cost of
//! two threads working or handing work to each other at once; that is
//! why the fits it scales run on one thread.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::{percentile, sorted};

/// Words in the sweep buffer (4 MiB).
const SWEEP_WORDS: usize = 1 << 19;
/// Sweeps per probe.
const SWEEPS: u64 = 4;
/// 64-bit words of one counted vector (4096 bits).
const VEC_WORDS: usize = 64;
/// Vectors in the counting table (32 KiB).
const VECTORS: usize = 64;
/// Counting steps per probe, each adding 16 vectors into the counters.
const STEPS: usize = 40;
/// Duration of one probe at speed 1.0: about its time on a 2-vCPU
/// Intel Xeon host (2.1 GHz) under its usual shared load, so scaled
/// figures read close to what that host usually measures.
pub const NOMINAL_PROBE_S: f64 = 0.005;

/// The reference kernel and its buffers.
pub struct HostSpeed {
    sweep: Vec<u64>,
    table: Vec<u64>,
    counts: Vec<i32>,
}

impl HostSpeed {
    pub fn new() -> Self {
        let mix = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i << 17);
        HostSpeed {
            sweep: (0..SWEEP_WORDS as u64).map(mix).collect(),
            table: (0..(VECTORS * VEC_WORDS) as u64).map(|i| mix(i).rotate_left(29)).collect(),
            counts: vec![0; VEC_WORDS * 64],
        }
    }

    /// Times one run of the reference work; returns the host's speed
    /// relative to nominal (above 1.0 on a faster host).
    pub fn probe(&mut self) -> f64 {
        let start = Instant::now();
        let mut acc = 0u64;
        for sweep in 0..SWEEPS {
            for &w in black_box(&self.sweep[..]) {
                acc = acc.wrapping_add(u64::from((w ^ sweep).count_ones()));
            }
        }
        for step in 0..STEPS {
            self.counts.fill(0);
            for k in 0..16 {
                let v = (step * 16 + k) * 7 % VECTORS;
                let vector = &black_box(&self.table[..])[v * VEC_WORDS..][..VEC_WORDS];
                for (counts, &word) in self.counts.chunks_exact_mut(64).zip(vector) {
                    let word = word.rotate_left(k as u32);
                    for (bit, c) in counts.iter_mut().enumerate() {
                        *c += ((word >> bit) & 1) as i32 * 2 - 1;
                    }
                }
            }
            acc = acc.wrapping_add(self.counts.iter().filter(|&&c| c < 0).count() as u64);
        }
        black_box(acc);
        NOMINAL_PROBE_S / start.elapsed().as_secs_f64().max(1e-9)
    }

    /// `n` probes in a row.
    pub fn probes(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.probe()).collect()
    }
}

/// A phase's speed index: the median of its probes.
pub fn index(probes: &[f64]) -> Option<f64> {
    percentile(&sorted(probes), 0.5).filter(|h| h.is_finite() && *h > 0.0)
}

/// Times measured at speed `h`, as they would read at nominal speed.
pub fn nominal_times(times: &[f64], h: f64) -> Vec<f64> {
    times.iter().map(|t| t * h).collect()
}

/// Rates measured at speed `h`, as they would read at nominal speed.
pub fn nominal_rates(rates: &[f64], h: f64) -> Vec<f64> {
    rates.iter().map(|r| r / h).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_faster_host_is_scaled_back_to_nominal() {
        // On a host 1.25× nominal, 0.8 s of work is 1 s of nominal work
        // and 5000 windows/s are 4000 at nominal speed.
        assert_eq!(nominal_times(&[0.8, 1.6], 1.25), vec![1.0, 2.0]);
        assert_eq!(nominal_rates(&[5000.0], 1.25), vec![4000.0]);
        // A program change still shows in full: half the time at the
        // same host speed reads as half the nominal time.
        let (before, after) = (nominal_times(&[2.0], 0.9), nominal_times(&[1.0], 0.9));
        assert_eq!(after[0] / before[0], 0.5);
    }

    #[test]
    fn the_index_is_the_median_probe() {
        assert_eq!(index(&[1.1, 0.7, 0.9]), Some(0.9));
        assert_eq!(index(&[]), None);
        assert_eq!(index(&[0.0]), None);
    }

    #[test]
    fn a_probe_measures_a_positive_speed() {
        let h = HostSpeed::new().probe();
        assert!(h.is_finite() && h > 0.0, "speed {h}");
    }
}

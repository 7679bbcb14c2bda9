//! Host-speed correction. The benchmark runs on shared hosts whose
//! speed changes while it runs: other tenants' load on the same cores
//! makes a vCPU 1.3–1.8× slower for stretches that last from under a
//! second to several minutes, longer than one run. The closed loops
//! time a fixed reference kernel, the benchmark's own code and not the
//! program's, on the thread that does the measured work, between its
//! operations, and scale each reported time by `NOMINAL_MS` over the
//! kernel's time around it. A change to the program moves the scaled
//! times as it moves the raw ones; a change in the host's speed moves
//! the kernel with them and cancels.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time at which scaled and raw times agree:
/// about its median on the 2-vCPU Xeon (2.1 GHz) VM the benchmark was
/// tuned on, while that host ran at full speed.
const NOMINAL_MS: f64 = 1.1;
/// Samples whose median sets the scale at one instant: the nearest in
/// time, about half a second of a closed loop.
const NEAREST: usize = 9;

/// The reference kernel: an unpivoted dense LU of a cache-resident
/// 96×96 matrix and two products of a sparse 65 536-row matrix (five
/// scattered entries a row, about 4 MB) with a vector, the two kinds of
/// work a sparse LU step mixes.
struct RefKernel {
    a0: Vec<f64>,
    a: Vec<f64>,
    ptr: Vec<u32>,
    idx: Vec<u32>,
    val: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
}

const DENSE_N: usize = 96;
const SPARSE_ROWS: usize = 1 << 16;
const SPARSE_PER_ROW: usize = 5;
const SPARSE_PASSES: usize = 2;

impl RefKernel {
    fn new() -> Self {
        // A fixed LCG: the kernel's inputs never depend on the seed.
        let mut s = 0x3039u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (s >> 33) as u32
        };
        let n = DENSE_N;
        let mut a0 = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                a0[i * n + j] = if i == j {
                    n as f64
                } else {
                    f64::from(next() % 1000) * 1e-3
                };
            }
        }
        let mut ptr = Vec::with_capacity(SPARSE_ROWS + 1);
        let mut idx = Vec::with_capacity(SPARSE_ROWS * SPARSE_PER_ROW);
        let mut val = Vec::with_capacity(SPARSE_ROWS * SPARSE_PER_ROW);
        ptr.push(0);
        for _ in 0..SPARSE_ROWS {
            for _ in 0..SPARSE_PER_ROW {
                idx.push(next() % SPARSE_ROWS as u32);
                val.push(f64::from(next() % 100) * 1e-3);
            }
            ptr.push(idx.len() as u32);
        }
        Self {
            a: a0.clone(),
            a0,
            ptr,
            idx,
            val,
            x: vec![1.0; SPARSE_ROWS],
            y: vec![0.0; SPARSE_ROWS],
        }
    }

    /// Run the kernel twice, the first time untimed so that the timed
    /// run finds its data in cache whatever ran before it; returns the
    /// second run's time in ms.
    fn run(&mut self) -> f64 {
        self.pass();
        let t0 = Instant::now();
        self.pass();
        t0.elapsed().as_secs_f64() * 1e3
    }

    fn pass(&mut self) {
        let n = DENSE_N;
        self.a.copy_from_slice(&self.a0);
        let a = &mut self.a;
        for k in 0..n {
            let p = a[k * n + k];
            for i in k + 1..n {
                let l = a[i * n + k] / p;
                a[i * n + k] = l;
                for j in k + 1..n {
                    a[i * n + j] -= l * a[k * n + j];
                }
            }
        }
        black_box(&mut self.a);
        for _ in 0..SPARSE_PASSES {
            for (r, y) in self.y.iter_mut().enumerate() {
                let (lo, hi) = (self.ptr[r] as usize, self.ptr[r + 1] as usize);
                *y = self.idx[lo..hi]
                    .iter()
                    .zip(&self.val[lo..hi])
                    .map(|(&c, &v)| v * self.x[c as usize])
                    .sum();
            }
            black_box(&mut self.y);
        }
    }
}

/// Timed runs of the reference kernel over one benchmark run.
pub struct HostSpeed {
    kernel: RefKernel,
    origin: Instant,
    /// (seconds since `origin`, kernel ms), in time order.
    samples: Vec<(f64, f64)>,
}

impl HostSpeed {
    pub fn new() -> Self {
        let mut kernel = RefKernel::new();
        // One untimed run faults the pages in.
        kernel.run();
        Self {
            kernel,
            origin: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Time the kernel `times` times.
    pub fn sample(&mut self, times: usize) {
        for _ in 0..times {
            let t = self.origin.elapsed().as_secs_f64();
            let ms = self.kernel.run();
            self.samples.push((t, ms));
        }
    }

    /// Median kernel time over the whole run, raw.
    pub fn kernel_ms(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// Factor that turns a raw time taken at `at` into a scaled one:
    /// `NOMINAL_MS` over the median of the `NEAREST` samples nearest in
    /// time.
    pub fn scale_at(&self, at: Instant) -> f64 {
        let t = at.saturating_duration_since(self.origin).as_secs_f64();
        let s = &self.samples;
        assert!(!s.is_empty(), "host speed read before any sample");
        let (mut lo, mut hi) = {
            let i = s.partition_point(|x| x.0 < t);
            (i, i)
        };
        while hi - lo < NEAREST.min(s.len()) {
            let take_lo = lo > 0 && (hi == s.len() || t - s[lo - 1].0 <= s[hi].0 - t);
            if take_lo {
                lo -= 1;
            } else {
                hi += 1;
            }
        }
        let near: Vec<f64> = s[lo..hi].iter().map(|x| x.1).collect();
        NOMINAL_MS / median(&near)
    }

    /// Scale factor over the whole run.
    pub fn scale(&self) -> f64 {
        NOMINAL_MS / self.kernel_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn scale_follows_the_nearest_samples() {
        let mut h = HostSpeed::new();
        // A fast second, then a slow one at twice the kernel time.
        h.samples = (0..20)
            .map(|i| {
                let ms = if i < 10 { NOMINAL_MS } else { 2.0 * NOMINAL_MS };
                (0.1 * i as f64, ms)
            })
            .collect();
        let at = |s: f64| h.origin + Duration::from_secs_f64(s);
        assert_eq!(h.scale_at(at(0.2)), 1.0);
        assert_eq!(h.scale_at(at(1.7)), 0.5);
        assert_eq!(h.scale_at(at(5.0)), 0.5);
    }
}

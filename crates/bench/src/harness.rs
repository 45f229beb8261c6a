//! Dependency-free micro-benchmark harness (`std::time`).
//!
//! The workspace must resolve and build completely offline, so `criterion`
//! cannot be a (even optional) manifest dependency — cargo contacts the
//! registry to resolve optional dependencies too. The benches therefore
//! run on this minimal harness.
//!
//! Methodology: each benchmark is calibrated so one sample lasts roughly
//! [`TARGET_SAMPLE`], then `sample_size` samples are measured and the
//! per-iteration min / median / mean are reported. Results go to stdout
//! in a stable one-line-per-bench format that diffing tools can consume.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Desired wall-clock duration of one measured sample.
const TARGET_SAMPLE: Duration = Duration::from_millis(10);

/// A named group of benchmarks, mirroring the criterion `benchmark_group`
/// surface the old benches used.
pub struct BenchGroup {
    name: String,
    sample_size: usize,
}

/// Starts a benchmark group.
pub fn group(name: &str) -> BenchGroup {
    BenchGroup {
        name: name.to_string(),
        sample_size: 20,
    }
}

impl BenchGroup {
    /// Number of measured samples per benchmark (default 20).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Runs one benchmark: calibrates an iteration count, measures
    /// `sample_size` samples, prints per-iteration statistics.
    pub fn bench<R, F: FnMut() -> R>(&mut self, id: &str, mut f: F) {
        // Warm-up + calibration: grow the iteration count until one
        // sample is long enough to time reliably.
        let mut iters = 1u64;
        let per_iter = loop {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed >= TARGET_SAMPLE || iters >= 1 << 20 {
                break elapsed / iters as u32;
            }
            iters = if elapsed.is_zero() {
                iters * 16
            } else {
                // Aim directly for the target, padded by 2x for noise.
                let scale = TARGET_SAMPLE.as_nanos() / elapsed.as_nanos().max(1) + 1;
                (iters * scale.min(16) as u64 * 2).min(1 << 20)
            };
        };
        let _ = per_iter;

        let mut samples: Vec<Duration> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples.push(t.elapsed() / iters as u32);
        }
        samples.sort();
        let min = samples[0];
        let median = samples[samples.len() / 2];
        let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
        println!(
            "bench {}/{id}: median {} (min {}, mean {}, {} samples x {} iters)",
            self.name,
            fmt(median),
            fmt(min),
            fmt(mean),
            samples.len(),
            iters,
        );
    }

    /// Criterion-compatibility shim; statistics print as benches run.
    pub fn finish(&mut self) {}
}

fn fmt(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut g = group("harness-selftest");
        g.sample_size(3);
        let mut n = 0u64;
        g.bench("incr", || {
            n = n.wrapping_add(1);
            n
        });
        g.finish();
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt(Duration::from_nanos(12)), "12ns");
        assert_eq!(fmt(Duration::from_micros(12)), "12.000us");
        assert_eq!(fmt(Duration::from_millis(12)), "12.000ms");
        assert_eq!(fmt(Duration::from_secs(2)), "2.000s");
    }
}

//! Measurement primitives: order statistics over repetitions, process CPU
//! time and peak memory read from `/proc/self`, and the metric rows the
//! benchmark prints.

use std::fs;
use std::time::Instant;

/// Median and quartiles of a sample, with the same "exclusive" method as
/// Python's `statistics.quantiles(values, n=4)`.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `values`; `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        match n {
            0 => None,
            1 => Some(Summary {
                q1: v[0],
                median: v[0],
                q3: v[0],
                n,
            }),
            _ => Some(Summary {
                q1: quantile(&v, 1),
                median: if n % 2 == 1 {
                    v[n / 2]
                } else {
                    (v[n / 2 - 1] + v[n / 2]) / 2.0
                },
                q3: quantile(&v, 3),
                n,
            }),
        }
    }
}

/// The `i`-th quartile cut of sorted `v` (`v.len() >= 2`), interpolated
/// between the two neighbouring order statistics.
fn quantile(v: &[f64], i: usize) -> f64 {
    let (len, m) = (v.len(), v.len() + 1);
    let j = (i * m / 4).clamp(1, len - 1);
    // Negative when the clamp raised `j`: extrapolates like Python does.
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// One reported metric: its value, with the quartiles and count of the
/// values it summarizes.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Summary,
}

/// Collects named metrics in a fixed order. A metric without values (a
/// `/proc` reading on a system without `/proc`) is left out, so it shows
/// as missing rather than as zero.
#[derive(Default)]
pub struct Metrics {
    pub rows: Vec<Metric>,
}

impl Metrics {
    /// Adds the median of `values`.
    pub fn median(&mut self, name: &'static str, unit: &'static str, values: &[f64]) {
        if let Some(summary) = Summary::of(values) {
            self.rows.push(Metric {
                name,
                unit,
                value: summary.median,
                summary,
            });
        }
    }

    /// Adds the mean of `values`.
    pub fn mean(&mut self, name: &'static str, unit: &'static str, values: &[f64]) {
        if let Some(summary) = Summary::of(values) {
            self.rows.push(Metric {
                name,
                unit,
                value: mean(values),
                summary,
            });
        }
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// User plus system CPU time of this process so far, in seconds, from
/// `/proc/self/stat`; `None` where `/proc` is unavailable.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are space-separated, starting at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / clock_ticks_per_second()? as f64)
}

/// The kernel's clock-tick rate (`AT_CLKTCK` in `/proc/self/auxv`), the
/// unit of the CPU times in `/proc/self/stat`.
fn clock_ticks_per_second() -> Option<u64> {
    const AT_CLKTCK: u64 = 17;
    let auxv = fs::read("/proc/self/auxv").ok()?;
    auxv.chunks_exact(16).find_map(|pair| {
        let key = u64::from_ne_bytes(pair[..8].try_into().ok()?);
        let value = u64::from_ne_bytes(pair[8..].try_into().ok()?);
        (key == AT_CLKTCK && value > 0).then_some(value)
    })
}

/// Peak resident set size of this process in MiB (`VmHWM` in
/// `/proc/self/status`); `None` where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn proc_readings_are_positive_on_linux() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(cpu_seconds().is_some());
            let buf = std::hint::black_box(vec![1u8; 64 << 20]);
            assert!(peak_rss_mib().unwrap() >= 64.0);
            drop(buf);
        }
    }
}

//! One campaign per process. The orchestrating process runs every
//! measured campaign in a fresh child process (this executable with
//! `--campaign`), the way a user runs `ruletest audit` or `ruletest
//! mutate`: each campaign starts from an empty heap and fresh
//! process-global counters, and its peak memory is the child's own
//! high-water mark rather than that of the largest campaign so far.

use crate::layers::Samples;
use ruletest::telemetry::Json;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// What a child measures.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Telemetry disabled; end-to-end metrics.
    EndToEnd,
    /// Telemetry disabled, stage calls timed: the baseline of a traced run.
    Untraced,
    /// Telemetry enabled, stage calls timed: per-layer metrics.
    Traced,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::EndToEnd => "e2e",
            Mode::Untraced => "untraced",
            Mode::Traced => "traced",
        }
    }

    fn from_name(name: &str) -> Result<Mode, String> {
        [Mode::EndToEnd, Mode::Untraced, Mode::Traced]
            .into_iter()
            .find(|m| m.name() == name)
            .ok_or_else(|| format!("unknown mode {name}"))
    }
}

/// One campaign to run in a child process.
pub struct Job {
    pub workload: &'static str,
    /// Audit generation seed (unused by `mutate`).
    pub gen_seed: u64,
    /// The campaign's cache directory (audit).
    pub dir: PathBuf,
    pub mode: Mode,
    /// Entries in the store at `dir` (warm campaigns decode them all
    /// before generation when traced).
    pub stored: usize,
    /// Run the self-test's tiny configuration.
    pub tiny: bool,
}

impl Job {
    fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--campaign".to_string(),
            self.workload.to_string(),
            "--gen-seed".to_string(),
            self.gen_seed.to_string(),
            "--dir".to_string(),
            self.dir.display().to_string(),
            "--mode".to_string(),
            self.mode.name().to_string(),
            "--stored".to_string(),
            self.stored.to_string(),
        ];
        if self.tiny {
            args.push("--tiny".to_string());
        }
        args
    }

    /// Inverse of the arguments [`spawn`] passes.
    pub fn from_args(argv: &[String]) -> Result<Job, String> {
        let value = |flag: &str| {
            argv.iter()
                .position(|a| a == flag)
                .and_then(|i| argv.get(i + 1))
                .ok_or_else(|| format!("missing {flag}"))
        };
        let number = |flag: &str| {
            value(flag)?
                .parse::<u64>()
                .map_err(|e| format!("{flag}: {e}"))
        };
        let workload = value("--campaign")?;
        Ok(Job {
            workload: crate::WORKLOADS
                .into_iter()
                .find(|w| w == workload)
                .ok_or_else(|| format!("unknown workload {workload}"))?,
            gen_seed: number("--gen-seed")?,
            dir: PathBuf::from(value("--dir")?),
            mode: Mode::from_name(value("--mode")?)?,
            stored: usize::try_from(number("--stored")?).map_err(|e| e.to_string())?,
            tiny: argv.iter().any(|a| a == "--tiny"),
        })
    }
}

/// What one child campaign measured and checked.
#[derive(Default)]
pub struct Report {
    pub samples: Samples,
    /// Hash of the campaign's deterministic output.
    pub digest: u64,
    /// Physical optimizer invocations.
    pub invocations: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Entries in the campaign's store after it finished (audit).
    pub stored: usize,
    pub problems: Vec<String>,
}

impl Report {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("samples", self.samples.to_json()),
            ("digest", Json::str(format!("{:016x}", self.digest))),
            ("invocations", Json::count(self.invocations)),
            ("attempted", Json::count(self.attempted)),
            ("failed", Json::count(self.failed)),
            ("stored", Json::count(self.stored as u64)),
            (
                "problems",
                Json::Arr(self.problems.iter().map(|p| Json::str(p.clone())).collect()),
            ),
        ])
    }

    fn from_json(doc: &Json) -> Option<Report> {
        let count = |key: &str| doc.get(key).and_then(Json::as_u64);
        Some(Report {
            samples: Samples::from_json(doc.get("samples")?)?,
            digest: u64::from_str_radix(doc.get("digest")?.as_str()?, 16).ok()?,
            invocations: count("invocations")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            stored: usize::try_from(count("stored")?).ok()?,
            problems: doc
                .get("problems")?
                .as_arr()?
                .iter()
                .map(|p| p.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
        })
    }
}

/// Runs `job` in a child process and waits for it.
pub fn spawn(job: &Job) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args(job.to_args())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running a {} campaign: {e}", job.workload))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = stdout
        .lines()
        .last()
        .and_then(|line| Json::parse(line).ok())
        .and_then(|doc| Report::from_json(&doc))
        .ok_or_else(|| {
            format!(
                "{} campaign (seed {}) exited with {} and no report",
                job.workload, job.gen_seed, out.status
            )
        })?;
    Ok(report)
}

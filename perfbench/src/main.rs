//! The simulator's benchmark binary: one workload per invocation.
//!
//! ```text
//! perfbench --workload <matrix_cold|fleet|daemon> --seed N
//!           --seconds S --trace <0|1> [--setup-only]
//! ```
//!
//! Runs in the current directory, which it treats as scratch space (result
//! caches, the daemon socket), on as many worker threads as the process may
//! run on (`nproc`). Prints human-readable lines, then one JSON result line:
//! `correct`, `attempted`, `failed`, `threads` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones this binary measures
//! (`setup_s`, `ops_per_s`, `lat_p50_ms`, `lat_p99_ms`); with `--trace 1`
//! they are the per-layer split. `--setup-only` stops after
//! set-up and reports `setup_s` alone. `perfbench/run.py` wraps this
//! binary: it builds it, repeats set-up, adds peak RSS and provenance.

mod daemon;
mod decor;
mod fleet;
mod matrix;
mod report;
mod spans;
mod stats;
mod tasks;

use std::path::Path;
use std::time::Instant;

use report::Outcome;

/// Everything a workload needs to know about its invocation.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Stop after set-up.
    pub setup_only: bool,
    /// Worker threads: the CPUs this process may run on.
    pub workers: usize,
    /// When `main` started: set-up time runs from here.
    pub start: Instant,
}

impl Ctx {
    /// Seconds since `main` started.
    pub fn since_start(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Runs one pass of a workload: a panic or an error fails the whole pass.
pub fn guarded<T>(body: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
        Ok(result) => result,
        Err(_) => Err("the pass panicked".into()),
    }
}

/// Removes `dir` and everything below it, if present.
pub fn clear_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot clear {}: {e}", dir.display()));
    }
}

/// Bytes in the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
}

/// The CPUs this process may run on, as `nproc` counts them: the bits of
/// its affinity mask (unlike `available_parallelism`, no cgroup quota).
fn affinity_cpus() -> usize {
    let mut mask = [0u8; 128];
    // SAFETY: `mask` is a writable buffer of the size passed, the layout of
    // a `cpu_set_t`; pid 0 is the calling thread.
    let ok = unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } == 0;
    let n: u32 = mask.iter().map(|b| b.count_ones()).sum();
    if ok && n > 0 {
        n as usize
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

fn usage(why: &str) -> ! {
    eprintln!(
        "perfbench: {why}\nusage: perfbench --workload <matrix_cold|fleet|daemon> \
         --seed N --seconds S --trace <0|1> [--setup-only]"
    );
    std::process::exit(2);
}

fn main() {
    let start = Instant::now();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = Some(
                    value()
                        .parse::<u64>()
                        .unwrap_or_else(|e| usage(&format!("bad --seed: {e}"))),
                )
            }
            "--seconds" => {
                let s = value()
                    .parse::<f64>()
                    .unwrap_or_else(|e| usage(&format!("bad --seconds: {e}")));
                if !(s.is_finite() && s > 0.0) {
                    usage("--seconds must be positive");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    other => usage(&format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--setup-only" => setup_only = true,
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let ctx = Ctx {
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace,
        setup_only,
        workers: affinity_cpus(),
        start,
    };
    let outcome: Outcome = match workload.as_deref() {
        Some("matrix_cold") => matrix::cold(&ctx),
        Some("fleet") => fleet::run(&ctx),
        Some("daemon") => daemon::run(&ctx),
        Some(other) => usage(&format!("unknown workload {other:?}")),
        None => usage("--workload is required"),
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    println!("{}", outcome.result_json(ctx.workers));
}

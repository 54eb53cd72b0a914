//! `fleet`: a population sweep through `run_shard` into an empty cache,
//! then `render_report`, as the `fleet` binary runs it.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use leaseos_apps::buggy::table5_cases;
use leaseos_apps::fleet::sample_mix;
use leaseos_bench::fleet::{cohort_key, render_report, run_shard, DeviceOutcome, FleetConfig};
use leaseos_bench::{build_rev, PolicyKind, ResultCache, ScenarioRunner};
use leaseos_framework::Kernel;
use leaseos_simkit::{EventKind, JsonValue, MetricsRegistry, SimDuration, SimTime};

use crate::decor::{TimedApp, TimedPolicy};
use crate::report::{mib, LayerFigures, Outcome};
use crate::spans::{span, take_thread_totals, Layer, Totals};
use crate::stats::median;
use crate::tasks::TaskLog;
use crate::{clear_dir, dir_bytes, guarded, Ctx};

/// Devices per sweep: 12 cohorts of 50, so the last cohort is a small
/// share of a pass on a 2-worker pool.
pub const DEVICES: u64 = 600;

/// The population seed. Fixed rather than drawn from `--seed`: the
/// simulated work of 600 devices differs by ±6% between populations, which
/// would read as run-to-run noise in devices per second.
const POPULATION_SEED: u64 = 42;

const DIR: &str = "fleet-cache";

/// One completed sweep.
struct Sweep {
    jsonl: Vec<u8>,
    report: String,
    wall_s: f64,
}

/// What the `fleet` binary does: a fresh cache handle, `run_shard` over
/// the whole population, `render_report`.
fn untraced_sweep(
    cfg: &FleetConfig,
    runner: &ScenarioRunner,
    registry: &MetricsRegistry,
    rev: &str,
    dir: &Path,
) -> Result<Sweep, String> {
    guarded(|| {
        let t0 = Instant::now();
        let mut cache = ResultCache::open(dir).map_err(|e| format!("open cache: {e}"))?;
        cache.attach_metrics(registry);
        let run = run_shard(cfg, 0, 1, runner, Some(&cache), rev)?;
        let elapsed = t0.elapsed().as_secs_f64();
        registry.add("fleet_devices_total", run.devices);
        registry.set_gauge("fleet_devices_per_sec", run.devices as f64 / elapsed);
        let report = render_report(&run.jsonl, cfg)?;
        Ok(Sweep {
            jsonl: run.jsonl,
            report,
            wall_s: t0.elapsed().as_secs_f64(),
        })
    })
}

#[derive(Default)]
struct Counters {
    kernel_events: AtomicU64,
    faults: AtomicU64,
}

/// One device under every arm and policy, rebuilt from public calls
/// (`PopulationSpec::device`, `sample_mix`, `Kernel`) with the timing
/// decorators in place.
fn traced_device(cfg: &FleetConfig, index: u64, counters: &Counters) -> Vec<DeviceOutcome> {
    let (params, mix, kernel_seed) = span(Layer::FleetDraw, || {
        (
            cfg.population.device(index),
            sample_mix(&mut cfg.population.mix_rng(index)),
            cfg.population.kernel_seed(index),
        )
    });
    let length = SimDuration::from_mins(params.session_mins);
    let vanilla = cfg.policies.iter().position(|p| *p == PolicyKind::Vanilla);
    let mut outcomes = Vec::with_capacity(cfg.arms.len());
    for &arm in &cfg.arms {
        let plan = span(Layer::Faults, || {
            arm.plan(kernel_seed, length, cfg.mean_interval)
        });
        let mut power_mw = Vec::with_capacity(cfg.policies.len());
        for &policy in &cfg.policies {
            let (mut kernel, apps) = span(Layer::KernelBuild, || {
                let mut kernel = Kernel::new(
                    params.profile(),
                    mix.environment(),
                    TimedPolicy::build(policy),
                    kernel_seed,
                );
                let apps: Vec<_> = mix
                    .cases
                    .iter()
                    .map(|case| kernel.add_app(TimedApp::wrap((case.build)())))
                    .collect();
                kernel.install_fault_plan(&plan);
                kernel.set_cold_restart(cfg.cold_restart);
                (kernel, apps)
            });
            let total: f64 = span(Layer::Kernel, || {
                kernel.run_until(SimTime::from_millis(0) + length);
                apps.iter()
                    .map(|&app| kernel.avg_app_power_mw(app, length))
                    .sum()
            });
            counters
                .kernel_events
                .fetch_add(kernel.events_processed(), Ordering::Relaxed);
            counters.faults.fetch_add(
                kernel.telemetry().count(EventKind::FaultInjected),
                Ordering::Relaxed,
            );
            power_mw.push((policy.cli_name().to_owned(), total));
        }
        let savings_pct = match vanilla {
            Some(vp) => {
                let base = power_mw[vp].1;
                cfg.policies
                    .iter()
                    .enumerate()
                    .filter(|(p, _)| *p != vp)
                    .map(|(p, policy)| {
                        (
                            policy.cli_name().to_owned(),
                            100.0 * (base - power_mw[p].1) / base,
                        )
                    })
                    .collect()
            }
            None => Vec::new(),
        };
        outcomes.push(DeviceOutcome {
            device: index,
            arm: arm.name().to_owned(),
            archetype: params.archetype_name().to_owned(),
            trigger: mix.trigger.name().to_owned(),
            apps: mix.case_names().iter().map(|s| (*s).to_owned()).collect(),
            battery_health: params.battery_health,
            radio: params.radio.name().to_owned(),
            screen: params.screen.name().to_owned(),
            session_mins: params.session_mins,
            power_mw,
            savings_pct,
        });
    }
    outcomes
}

/// `run_shard` (one shard) + `render_report`, rebuilt from public calls
/// with a span around each call into a layer.
fn traced_sweep(
    cfg: &FleetConfig,
    runner: &ScenarioRunner,
    registry: &MetricsRegistry,
    rev: &str,
    dir: &Path,
    figures: &mut LayerFigures,
) -> Result<Sweep, String> {
    guarded(|| {
        let t0 = Instant::now();
        let mut cache = ResultCache::open(dir).map_err(|e| format!("open cache: {e}"))?;
        cache.attach_metrics(registry);
        cfg.validate()?;
        let counters = Counters::default();
        let totals = Mutex::new(Totals::default());
        let log = TaskLog::start();
        let chunks = runner.run_tasks(cfg.cohort_count() as usize, |c| {
            log.time(|| {
                let cohort = c as u64;
                let key = span(Layer::CacheKey, || cohort_key(cfg, cohort, rev));
                let chunk = match span(Layer::CacheLoad, || cache.load(key)) {
                    Some(entry) => entry.jsonl,
                    None => {
                        let range = cfg.cohort_devices(cohort);
                        let mut jsonl = Vec::new();
                        for index in range.clone() {
                            for outcome in traced_device(cfg, index, &counters) {
                                let line = span(Layer::FleetEncode, || outcome.to_json());
                                jsonl.extend_from_slice(line.as_bytes());
                                jsonl.push(b'\n');
                            }
                        }
                        let summary = span(Layer::JsonRender, || {
                            JsonValue::Obj(vec![
                                ("cohort".into(), JsonValue::Num(cohort as f64)),
                                (
                                    "devices".into(),
                                    JsonValue::Num((range.end - range.start) as f64),
                                ),
                            ])
                        });
                        if let Err(e) =
                            span(Layer::CacheStore, || cache.store(key, &summary, &jsonl))
                        {
                            eprintln!("warning: fleet cache store failed for cohort {cohort}: {e}");
                        }
                        jsonl
                    }
                };
                totals
                    .lock()
                    .expect("totals poisoned")
                    .add(&take_thread_totals());
                chunk
            })
        });
        let pool = log.stats(runner.threads(), t0.elapsed().as_secs_f64() * 1e3);
        let jsonl = chunks.concat();
        let stats = cache.stats();
        let report = span(Layer::FleetReport, || render_report(&jsonl, cfg))?;
        let wall_s = t0.elapsed().as_secs_f64();

        let mut totals = totals.into_inner().expect("totals poisoned");
        totals.add(&take_thread_totals());
        figures.add_spans(&totals);
        figures.add_pool(&pool);
        figures.add(
            "kernel.events",
            counters.kernel_events.load(Ordering::Relaxed) as f64,
        );
        figures.add(
            "faults.injected",
            counters.faults.load(Ordering::Relaxed) as f64,
        );
        let bytes = dir_bytes(dir);
        figures.add("cache.store_mib", mib(bytes));
        figures.add("cache_mib", mib(bytes));
        let lookups = stats.hits + stats.misses;
        if lookups > 0 {
            figures.add("cache.hit_ratio", stats.hits as f64 / lookups as f64);
        }
        Ok(Sweep {
            jsonl,
            report,
            wall_s,
        })
    })
}

/// What a fleet JSONL stream holds, recounted apart from the program.
#[derive(Debug, PartialEq)]
pub struct Tally {
    /// `sums[policy][arm]`: finite savings summed, and how many.
    pub sums: Vec<Vec<(f64, u64)>>,
    /// `seen[arm][device]`: lines per device and arm.
    pub seen: Vec<Vec<u32>>,
}

/// Per-(policy, arm) savings sums and finite-sample counts, recomputed
/// from the JSONL with the generic JSON parser, and the lines each device
/// has per arm.
pub fn fleet_means(
    jsonl: &[u8],
    policies: &[&str],
    arms: &[&str],
    devices: u64,
) -> Result<Tally, String> {
    let text = std::str::from_utf8(jsonl).map_err(|e| format!("fleet JSONL: {e}"))?;
    let mut sums = vec![vec![(0.0, 0u64); arms.len()]; policies.len()];
    let mut seen = vec![vec![0u32; devices as usize]; arms.len()];
    for line in text.lines() {
        let doc = JsonValue::parse(line)?;
        let device = doc
            .get("device")
            .and_then(JsonValue::as_f64)
            .ok_or("line without a device")?;
        let arm = doc
            .get("arm")
            .and_then(JsonValue::as_str)
            .ok_or("line without an arm")?;
        let ai = arms
            .iter()
            .position(|a| *a == arm)
            .ok_or_else(|| format!("unknown arm {arm:?}"))?;
        match seen[ai].get_mut(device as usize) {
            Some(n) if device >= 0.0 && device.fract() == 0.0 => *n += 1,
            _ => return Err(format!("device {device} outside the population")),
        }
        let savings = doc.get("savings_pct").ok_or("line without savings_pct")?;
        for (pi, policy) in policies.iter().enumerate() {
            // `null` marks a 0/0 device; the report drops it, and so do we.
            if let Some(v) = savings.get(policy).and_then(JsonValue::as_f64) {
                if v.is_finite() {
                    sums[pi][ai].0 += v;
                    sums[pi][ai].1 += 1;
                }
            }
        }
    }
    Ok(Tally { sums, seen })
}

/// One report row: policy label, arm, then Mean/P5/P50/P95/P99 (%).
fn report_rows(report: &str) -> Vec<(String, String, [f64; 5])> {
    report
        .lines()
        .filter_map(|line| {
            let cols: Vec<&str> = line.split_whitespace().collect();
            if cols.len() != 9 {
                return None;
            }
            let nums: Vec<f64> = cols[4..].iter().filter_map(|c| c.parse().ok()).collect();
            let nums: [f64; 5] = nums.try_into().ok()?;
            Some((cols[0].to_owned(), cols[1].to_owned(), nums))
        })
        .collect()
}

/// The output checks of one sweep. Returns the failed devices; aggregate
/// failures go to `out`.
fn check_sweep(cfg: &FleetConfig, sweep: &Sweep, out: &mut Outcome) -> u64 {
    let policies: Vec<PolicyKind> = cfg
        .policies
        .iter()
        .copied()
        .filter(|p| *p != PolicyKind::Vanilla)
        .collect();
    let names: Vec<&str> = policies.iter().map(|p| p.cli_name()).collect();
    let arms: Vec<&str> = cfg.arms.iter().map(|a| a.name()).collect();
    let n = cfg.population.size;
    let Tally { sums, seen } = match fleet_means(&sweep.jsonl, &names, &arms, n) {
        Ok(x) => x,
        Err(e) => {
            out.fail_check(format!("fleet JSONL: {e}"));
            return n;
        }
    };
    // Every device in 0..N once per arm.
    let failed = (0..n as usize)
        .filter(|&d| seen.iter().any(|per_arm| per_arm[d] != 1))
        .count() as u64;
    let rows = report_rows(&sweep.report);
    if rows.len() != policies.len() * arms.len() {
        out.fail_check(format!(
            "report has {} rows, want {}",
            rows.len(),
            policies.len() * arms.len()
        ));
        return failed;
    }
    let mut best_control: Option<(f64, PolicyKind)> = None;
    for (pi, policy) in policies.iter().enumerate() {
        for (ai, arm) in arms.iter().enumerate() {
            let Some((_, _, [mean, p5, p50, p95, p99])) = rows
                .iter()
                .find(|(label, a, _)| label == policy.label() && a == arm)
            else {
                out.fail_check(format!("report has no row for {} / {arm}", policy.label()));
                continue;
            };
            let (sum, count) = sums[pi][ai];
            let ours = sum / count as f64;
            // The report prints two decimals; a NaN mean fails too.
            let agrees = (ours - mean).abs() <= 0.005 + 1e-9;
            if !agrees {
                out.fail_check(format!(
                    "{} / {arm}: report mean {mean:.2} vs {ours:.4} recomputed from the JSONL",
                    policy.label()
                ));
            }
            if !(p5 <= p50 && p50 <= p95 && p95 <= p99) {
                out.fail_check(format!(
                    "{} / {arm}: percentiles out of order {p5} {p50} {p95} {p99}",
                    policy.label()
                ));
            }
            if *arm == "control" && best_control.is_none_or(|(b, _)| *p50 > b) {
                best_control = Some((*p50, *policy));
            }
        }
    }
    if best_control.map(|(_, p)| p) != Some(PolicyKind::LeaseOs) {
        out.fail_check(format!(
            "LeaseOS does not have the highest control-arm median savings ({best_control:?})"
        ));
    }
    failed
}

/// Devices whose lines differ from the reference sweep's.
fn diff_devices(
    cfg: &FleetConfig,
    reference: &Sweep,
    sweep: &Sweep,
    what: &str,
    out: &mut Outcome,
) -> u64 {
    if sweep.report != reference.report {
        out.fail_check(format!("{what}: report differs"));
    }
    if sweep.jsonl == reference.jsonl {
        return 0;
    }
    let per_device = cfg.arms.len();
    let a: Vec<&[u8]> = reference.jsonl.split(|&b| b == b'\n').collect();
    let b: Vec<&[u8]> = sweep.jsonl.split(|&b| b == b'\n').collect();
    let mut bad = std::collections::BTreeSet::new();
    for i in 0..a.len().max(b.len()) {
        if a.get(i) != b.get(i) {
            bad.insert(i / per_device);
        }
    }
    bad.retain(|&d| (d as u64) < cfg.population.size);
    (bad.len() as u64).max(1)
}

/// `fleet`: every pass sweeps the whole population into an empty cache.
pub fn run(ctx: &Ctx) -> Outcome {
    let cfg = FleetConfig::new(POPULATION_SEED, DEVICES);
    cfg.validate()
        .unwrap_or_else(|e| panic!("fleet config: {e}"));
    // The Table 5 probe behind its `OnceLock` is one-time set-up work.
    table5_cases();
    let registry = Arc::new(MetricsRegistry::new());
    registry.enable();
    let runner = ScenarioRunner::with_threads(ctx.workers).with_metrics(registry.clone());
    let rev = build_rev();
    let dir = Path::new(DIR);
    clear_dir(dir);
    let setup_s = ctx.since_start();
    if ctx.setup_only {
        return Outcome::setup_only(setup_s);
    }
    let mut out = Outcome::new();

    let mut reference: Option<Sweep> = None;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut figures = LayerFigures::default();
    let window = Instant::now();
    let mut passes = 0;
    while passes == 0 || window.elapsed().as_secs_f64() < ctx.seconds {
        passes += 1;
        clear_dir(dir);
        out.attempted += DEVICES;
        let sweep = match untraced_sweep(&cfg, &runner, &registry, &rev, dir) {
            Ok(s) => s,
            Err(e) => {
                out.failed += DEVICES;
                out.note(format!("untraced sweep failed: {e}"));
                continue;
            }
        };
        untraced.push(sweep.wall_s);
        let mut failed = check_sweep(&cfg, &sweep, &mut out);
        if let Some(r) = &reference {
            failed += diff_devices(&cfg, r, &sweep, "untraced sweep", &mut out);
        }
        out.failed += failed.min(DEVICES);
        if ctx.trace {
            clear_dir(dir);
            out.attempted += DEVICES;
            match traced_sweep(&cfg, &runner, &registry, &rev, dir, &mut figures) {
                Ok(replica) => {
                    traced.push(replica.wall_s);
                    // Byte-identical to the untraced sweep it follows.
                    out.failed += diff_devices(&cfg, &sweep, &replica, "traced sweep", &mut out);
                }
                Err(e) => {
                    out.failed += DEVICES;
                    out.note(format!("traced sweep failed: {e}"));
                }
            }
        }
        if reference.is_none() {
            out.note(sweep.report.trim_end().to_owned());
            reference = Some(sweep);
        }
    }
    if untraced.is_empty() {
        eprintln!("perfbench: no untraced sweep completed; nothing to measure");
        std::process::exit(1);
    }
    if ctx.trace {
        figures.per_pass(traced.len());
        if !traced.is_empty() {
            figures.set(
                "trace.overhead_ms",
                (median(&traced) - median(&untraced)) * 1e3,
            );
        }
        figures.emit(&mut out);
    } else {
        out.metric("setup_s", setup_s, "s");
        out.batch_metrics(DEVICES, &untraced);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_are_recomputed_from_the_jsonl_and_nulls_dropped() {
        let jsonl = concat!(
            r#"{"device":0,"arm":"control","savings_pct":{"leaseos":90,"doze":50}}"#,
            "\n",
            r#"{"device":0,"arm":"all","savings_pct":{"leaseos":80,"doze":null}}"#,
            "\n",
            r#"{"device":1,"arm":"control","savings_pct":{"leaseos":70,"doze":40}}"#,
            "\n",
            r#"{"device":1,"arm":"all","savings_pct":{"leaseos":60,"doze":20}}"#,
            "\n",
        );
        let Tally { sums, seen } = fleet_means(
            jsonl.as_bytes(),
            &["leaseos", "doze"],
            &["control", "all"],
            2,
        )
        .unwrap();
        assert_eq!(sums[0][0], (160.0, 2));
        assert_eq!(sums[0][1], (140.0, 2));
        assert_eq!(sums[1][0], (90.0, 2));
        assert_eq!(sums[1][1], (20.0, 1), "the null device is dropped");
        assert_eq!(seen, vec![vec![1, 1], vec![1, 1]]);
    }

    #[test]
    fn devices_outside_the_population_are_refused() {
        let jsonl = br#"{"device":5,"arm":"control","savings_pct":{}}"#;
        assert!(fleet_means(jsonl, &[], &["control"], 2).is_err());
    }

    #[test]
    fn report_rows_parse_the_rendered_table() {
        let report = "Fleet — 2 devices\nPolicy   Arm      Devices  Dropped  Mean %  P5 %  P50 %  P95 %  P99 %\n\
                      ---\nLeaseOS  control  2  0  80.00  70.00  80.00  90.00  90.00\n";
        let rows = report_rows(report);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "LeaseOS");
        assert_eq!(rows[0].2, [80.0, 70.0, 80.0, 90.0, 90.0]);
    }
}

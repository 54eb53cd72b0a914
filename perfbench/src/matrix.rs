//! `matrix_cold`: the full conformance matrix through `run_matrix`,
//! simulated without a result cache. Its traced run also fills a result
//! cache and replays the matrix from it, for the cache layers.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use leaseos_bench::conformance::{
    cell_key, evaluate, render_table, resolve_case, run_matrix, CellOutcome, Violation,
};
use leaseos_bench::{
    build_rev, CaseHandle, FaultArm, MatrixConfig, MatrixRun, PolicyKind, ResultCache,
    ScenarioRunner, ScenarioSpec,
};
use leaseos_simkit::{DeviceProfile, EventKind, FaultPlan, JsonlSink, MetricsRegistry};

use crate::decor::{TimedApp, TimedPolicy, TimedSink};
use crate::report::{mib, LayerFigures, Outcome};
use crate::spans::{span, take_thread_totals, Layer, Totals};
use crate::stats::median;
use crate::tasks::TaskLog;
use crate::{clear_dir, dir_bytes, guarded, Ctx};

/// The paper's mean LeaseOS reduction over the Table 5 apps (§7.3), %.
const PAPER_LEASE_REDUCTION_PCT: f64 = 92.62;
/// How far the simulator's control-arm mean may sit from the paper's.
const REDUCTION_TOLERANCE_PP: f64 = 10.0;

const CACHE_DIR: &str = "matrix-cache";

/// What every pass shares: the matrix, the runner and its registry.
struct Setup {
    config: MatrixConfig,
    runner: ScenarioRunner,
    registry: Arc<MetricsRegistry>,
    rev: String,
}

/// The `chaos --full` matrix: 20 apps × 5 policies × seeds 42–44 × 8 arms.
/// Its seeds are fixed rather than drawn from `--seed`: some other kernel
/// seeds trip the degradation bound (see `CHANGES.md`), and an operation
/// that fails on some seeds only cannot be measured steadily.
const MATRIX_SEED: u64 = 42;

fn setup(ctx: &Ctx) -> Setup {
    let config = MatrixConfig::full(MATRIX_SEED, 3);
    // Resolving the apps runs the Table 5 probe behind its `OnceLock`:
    // one-time work that belongs to set-up, not to the first pass.
    for app in &config.apps {
        resolve_case(app).unwrap_or_else(|e| panic!("matrix app: {e}"));
    }
    // The same process-level registry the `chaos` binary attaches.
    let registry = Arc::new(MetricsRegistry::new());
    registry.enable();
    let runner = ScenarioRunner::with_threads(ctx.workers).with_metrics(registry.clone());
    Setup {
        config,
        runner,
        registry,
        rev: build_rev(),
    }
}

/// One completed pass over the matrix.
struct Pass {
    run: MatrixRun,
    violations: Vec<Violation>,
    table: String,
    wall_s: f64,
}

/// Opens a fresh cache handle on `dir`, as the `chaos` binary does.
fn open_cache(s: &Setup, dir: Option<&Path>) -> Result<Option<ResultCache>, String> {
    dir.map(|dir| {
        let mut cache = ResultCache::open(dir).map_err(|e| format!("open cache: {e}"))?;
        cache.attach_metrics(&s.registry);
        Ok(cache)
    })
    .transpose()
}

/// What `chaos --full --no-cache` does: `run_matrix`, `evaluate`,
/// `render_table`.
fn untraced_pass(s: &Setup) -> Result<Pass, String> {
    guarded(|| {
        let t0 = Instant::now();
        let run = run_matrix(&s.config, &s.runner, None, &s.rev)?;
        let violations = evaluate(&run);
        let table = render_table(&run);
        Ok(Pass {
            run,
            violations,
            table,
            wall_s: t0.elapsed().as_secs_f64(),
        })
    })
}

/// Byte-level outputs a pass must reproduce.
struct Reference {
    summaries: Vec<String>,
    jsonl: Vec<Vec<u8>>,
    table: String,
}

impl Reference {
    fn of(pass: &Pass) -> Reference {
        Reference {
            summaries: pass
                .run
                .cells
                .iter()
                .map(|c| c.summary_json().to_json())
                .collect(),
            jsonl: pass.run.cells.iter().map(|c| c.jsonl.clone()).collect(),
            table: pass.table.clone(),
        }
    }

    /// Indices of the cells whose summary or JSONL differ from the
    /// reference; a table difference is an aggregate failure.
    fn diff(&self, pass: &Pass, what: &str, out: &mut Outcome) -> BTreeSet<usize> {
        if pass.table != self.table {
            out.fail_check(format!("{what}: rendered table differs"));
        }
        if pass.run.cells.len() != self.summaries.len() {
            out.fail_check(format!("{what}: cell count differs"));
            return (0..pass.run.cells.len()).collect();
        }
        pass.run
            .cells
            .iter()
            .enumerate()
            .filter(|(i, c)| {
                c.jsonl != self.jsonl[*i] || c.summary_json().to_json() != self.summaries[*i]
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// The control-arm mean reductions of LeaseOS, Doze* and DefDroid vs
/// vanilla, computed here from the cells' app power.
fn control_means(run: &MatrixRun, failed: &mut BTreeSet<usize>) -> [f64; 3] {
    let cfg = &run.config;
    let pos = |p: PolicyKind| {
        cfg.policies
            .iter()
            .position(|x| *x == p)
            .expect("the full matrix has every policy")
    };
    let ctl = cfg
        .arms
        .iter()
        .position(|a| *a == FaultArm::Control)
        .expect("the full matrix has a control arm");
    let vp = pos(PolicyKind::Vanilla);
    let treated = [
        pos(PolicyKind::LeaseOs),
        pos(PolicyKind::DozeAggressive),
        pos(PolicyKind::DefDroid),
    ];
    let mut sums = [0.0; 3];
    let mut n = 0.0;
    for a in 0..run.cases.len() {
        for s in 0..cfg.seeds.len() {
            let base = run.cell(a, vp, s, ctl).app_power_mw;
            // LeaseOS must draw less app power than vanilla in every
            // control-arm cell (a NaN power fails).
            let saves = run.cell(a, treated[0], s, ctl).app_power_mw < base;
            if !saves {
                failed.insert(cfg.index(a, treated[0], s, ctl));
            }
            for (k, &p) in treated.iter().enumerate() {
                sums[k] += 100.0 * (base - run.cell(a, p, s, ctl).app_power_mw) / base;
            }
            n += 1.0;
        }
    }
    sums.map(|s| s / n)
}

/// The output checks of one matrix pass: clean `evaluate`, LeaseOS below
/// vanilla in every control cell, the paper's mean and order. Returns the
/// failed cells; aggregate failures go to `out`.
fn check_matrix(pass: &Pass, out: &mut Outcome, first: bool) -> BTreeSet<usize> {
    let run = &pass.run;
    let index: HashMap<&str, usize> = run
        .cells
        .iter()
        .enumerate()
        .map(|(i, c)| (c.label.as_str(), i))
        .collect();
    let mut failed = BTreeSet::new();
    for v in &pass.violations {
        match index.get(v.cell.as_str()) {
            Some(&i) => {
                failed.insert(i);
            }
            None => out.fail_check(format!("violation on an unknown cell: {v}")),
        }
    }
    let means = control_means(run, &mut failed);
    if (means[0] - PAPER_LEASE_REDUCTION_PCT).abs() > REDUCTION_TOLERANCE_PP {
        out.fail_check(format!(
            "LeaseOS control-arm mean reduction {:.2}% is more than {REDUCTION_TOLERANCE_PP} pp \
             from the paper's {PAPER_LEASE_REDUCTION_PCT}%",
            means[0]
        ));
    }
    if !(means[0] > means[1] && means[1] > means[2]) {
        out.fail_check(format!(
            "control-arm means break the paper's order LeaseOS > Doze* > DefDroid: \
             {:.2} / {:.2} / {:.2}",
            means[0], means[1], means[2]
        ));
    }
    if first {
        out.note(format!(
            "control-arm mean reduction vs vanilla: LeaseOS {:.2}%, Doze* {:.2}%, \
             DefDroid {:.2}% (paper LeaseOS {PAPER_LEASE_REDUCTION_PCT}%); evaluate: {} violations",
            means[0],
            means[1],
            means[2],
            pass.violations.len()
        ));
    }
    failed
}

/// Per-pass counters the replica's workers add to.
#[derive(Default)]
struct Counters {
    kernel_events: AtomicU64,
    telemetry_events: AtomicU64,
    telemetry_bytes: AtomicU64,
    faults: AtomicU64,
    load_bytes: AtomicU64,
}

fn bump(c: &AtomicU64, n: u64) {
    c.fetch_add(n, Ordering::Relaxed);
}

/// `run_cell`, rebuilt from public calls with the timing decorators in
/// place: the same kernel configuration, the same JSONL sink (wrapped).
fn traced_run_cell(
    spec: &ScenarioSpec,
    plan: &FaultPlan,
    cold_restart: bool,
    counters: &Counters,
) -> CellOutcome {
    let sink = Rc::new(RefCell::new(TimedSink::new(JsonlSink::new(
        Vec::<u8>::new(),
    ))));
    let run = span(Layer::Kernel, || {
        spec.execute_with(|kernel| {
            kernel.install_fault_plan(plan);
            kernel.set_cold_restart(cold_restart);
            kernel.set_audit_interval(Some(256));
            kernel.telemetry().attach(sink.clone());
        })
    });
    let violations = span(Layer::Kernel, || {
        run.kernel
            .audit()
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
    });
    let (jsonl, events) = {
        let sink = sink.borrow();
        (sink.inner().get_ref().clone(), sink.events())
    };
    let faults_injected = run.kernel.telemetry().count(EventKind::FaultInjected);
    bump(&counters.kernel_events, run.kernel.events_processed());
    bump(&counters.telemetry_events, events);
    bump(&counters.telemetry_bytes, jsonl.len() as u64);
    bump(&counters.faults, faults_injected);
    CellOutcome {
        label: spec.label.clone(),
        app_power_mw: run.app_power_mw(),
        system_power_mw: run.system_power_mw(),
        faults_injected,
        violations,
        jsonl,
    }
}

/// `run_matrix` + `evaluate` + `render_table`, rebuilt from public calls
/// with a span around each call into a layer. Adds the pass's per-layer
/// figures to `figures`.
fn traced_pass(s: &Setup, dir: Option<&Path>, figures: &mut LayerFigures) -> Result<Pass, String> {
    guarded(|| {
        let t0 = Instant::now();
        let bytes_before = dir.map_or(0, dir_bytes);
        let cache = open_cache(s, dir)?;
        let cfg = &s.config;
        let cases: Vec<CaseHandle> = cfg
            .apps
            .iter()
            .map(|a| resolve_case(a))
            .collect::<Result<_, _>>()?;
        let plans: Vec<Vec<FaultPlan>> = cfg
            .seeds
            .iter()
            .map(|&seed| {
                cfg.arms
                    .iter()
                    .map(|arm| {
                        span(Layer::Faults, || {
                            arm.plan(seed, cfg.length, cfg.mean_interval)
                        })
                    })
                    .collect()
            })
            .collect();
        let mut specs = Vec::with_capacity(cfg.cell_count());
        let mut coords = Vec::with_capacity(cfg.cell_count());
        for case in &cases {
            for &policy in &cfg.policies {
                for (si, &seed) in cfg.seeds.iter().enumerate() {
                    for (ai, &arm) in cfg.arms.iter().enumerate() {
                        let app = case.build.clone();
                        specs.push(ScenarioSpec {
                            label: cfg.label(case, policy, arm, seed),
                            app: Arc::new(move || TimedApp::wrap(app())),
                            policy: Arc::new(move || TimedPolicy::build(policy)),
                            device: DeviceProfile::pixel_xl(),
                            env: case.env.clone(),
                            seed,
                            length: cfg.length,
                        });
                        coords.push((si, ai));
                    }
                }
            }
        }

        let counters = Counters::default();
        let totals = Mutex::new(Totals::default());
        let cold = cfg.cold_restart;
        let log = TaskLog::start();
        let cells = s.runner.run_tasks(specs.len(), |i| {
            log.time(|| {
                let spec = &specs[i];
                let (si, ai) = coords[i];
                let plan = &plans[si][ai];
                let outcome = match (&cache, dir) {
                    (Some(cache), Some(dir)) => {
                        let key = span(Layer::CacheKey, || cell_key(spec, plan, cold, &s.rev));
                        let hit = span(Layer::CacheLoad, || cache.load(key)).and_then(|entry| {
                            // Entries are `<key>.json` + `<key>.jsonl`.
                            let summary = dir.join(format!("{}.json", key.hex()));
                            let summary_len = std::fs::metadata(summary).map_or(0, |m| m.len());
                            bump(&counters.load_bytes, entry.jsonl.len() as u64 + summary_len);
                            span(Layer::JsonParse, || {
                                CellOutcome::from_summary(&entry.summary, entry.jsonl).ok()
                            })
                        });
                        hit.unwrap_or_else(|| {
                            let outcome = traced_run_cell(spec, plan, cold, &counters);
                            let summary = span(Layer::JsonRender, || outcome.summary_json());
                            let stored = span(Layer::CacheStore, || {
                                cache.store(key, &summary, &outcome.jsonl)
                            });
                            if let Err(e) = stored {
                                eprintln!("warning: cache store failed for {}: {e}", spec.label);
                            }
                            outcome
                        })
                    }
                    _ => traced_run_cell(spec, plan, cold, &counters),
                };
                totals
                    .lock()
                    .expect("totals poisoned")
                    .add(&take_thread_totals());
                outcome
            })
        });
        let pool = log.stats(s.runner.threads(), t0.elapsed().as_secs_f64() * 1e3);
        let stats = cache.as_ref().map(ResultCache::stats);
        let run = MatrixRun {
            config: cfg.clone(),
            cases,
            cells,
            cache_stats: stats,
        };
        let violations = span(Layer::Evaluate, || evaluate(&run));
        let table = span(Layer::Table, || render_table(&run));
        let wall_s = t0.elapsed().as_secs_f64();

        let mut totals = totals.into_inner().expect("totals poisoned");
        totals.add(&take_thread_totals());
        figures.add_spans(&totals);
        figures.add_pool(&pool);
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        figures.add("kernel.events", get(&counters.kernel_events) as f64);
        figures.add("telemetry.events", get(&counters.telemetry_events) as f64);
        figures.add("telemetry.mib", mib(get(&counters.telemetry_bytes)));
        figures.add("faults.injected", get(&counters.faults) as f64);
        if let (Some(stats), Some(dir)) = (stats, dir) {
            figures.add("cache.load_mib", mib(get(&counters.load_bytes)));
            let bytes = dir_bytes(dir);
            figures.add("cache.store_mib", mib(bytes.saturating_sub(bytes_before)));
            figures.add("cache_mib", mib(bytes));
            let lookups = stats.hits + stats.misses;
            if lookups > 0 {
                figures.add("cache.hit_ratio", stats.hits as f64 / lookups as f64);
            }
        }
        Ok(Pass {
            run,
            violations,
            table,
            wall_s,
        })
    })
}

/// Counts one pass's operations; a failed pass fails all of them.
fn account(out: &mut Outcome, cells: usize, pass: &Result<Pass, String>, what: &str) -> bool {
    out.attempted += cells as u64;
    match pass {
        Ok(_) => true,
        Err(e) => {
            out.failed += cells as u64;
            out.note(format!("{what} failed: {e}"));
            false
        }
    }
}

/// Runs passes until the window closes: untraced ones, or untraced and
/// traced ones in turn.
fn measure(
    ctx: &Ctx,
    s: &Setup,
    reference: &mut Option<Reference>,
    out: &mut Outcome,
) -> (Vec<f64>, Vec<f64>, LayerFigures) {
    let cells = s.config.cell_count();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut figures = LayerFigures::default();
    let window = Instant::now();
    let mut passes = 0;
    while passes == 0 || window.elapsed().as_secs_f64() < ctx.seconds {
        passes += 1;
        let pass = untraced_pass(s);
        if !account(out, cells, &pass, "untraced pass") {
            continue;
        }
        let pass = pass.expect("checked above");
        untraced.push(pass.wall_s);
        let mut failed = check_matrix(&pass, out, reference.is_none());
        let reference = reference.get_or_insert_with(|| Reference::of(&pass));
        failed.extend(reference.diff(&pass, "untraced pass", out));
        out.failed += failed.len() as u64;
        if ctx.trace {
            let replica = traced_pass(s, None, &mut figures);
            if account(out, cells, &replica, "traced pass") {
                let replica = replica.expect("checked above");
                traced.push(replica.wall_s);
                // Byte-identical to the untraced pass it follows.
                let failed = Reference::of(&pass).diff(&replica, "traced pass", out);
                out.failed += failed.len() as u64;
            }
        }
    }
    (untraced, traced, figures)
}

/// The cache layers of the traced run, as a first and a second
/// `chaos --full` meet them: a traced replica fills an empty cache, then a
/// traced replica replays the whole matrix from it through a fresh handle.
/// Both must reproduce the untraced pass byte for byte, and the replay
/// must report no misses. Returns the fill's and the replay's figures.
fn cache_round(s: &Setup, reference: &Reference, out: &mut Outcome) -> [LayerFigures; 2] {
    let dir = Path::new(CACHE_DIR);
    clear_dir(dir);
    let mut figures = [LayerFigures::default(), LayerFigures::default()];
    for (what, figures) in ["cache fill", "warm replay"].into_iter().zip(&mut figures) {
        let pass = traced_pass(s, Some(dir), figures);
        if !account(out, s.config.cell_count(), &pass, what) {
            continue;
        }
        let pass = pass.expect("checked above");
        let failed = reference.diff(&pass, what, out);
        out.failed += failed.len() as u64;
        if what == "warm replay" {
            match pass.run.cache_stats {
                Some(stats) if stats.misses == 0 => {}
                stats => out.fail_check(format!("warm replay cache reports {stats:?}")),
            }
        }
    }
    clear_dir(dir);
    figures
}

/// `matrix_cold`: every pass simulates the whole matrix, as
/// `chaos --full --no-cache` does.
pub fn cold(ctx: &Ctx) -> Outcome {
    let s = setup(ctx);
    let setup_s = ctx.since_start();
    if ctx.setup_only {
        return Outcome::setup_only(setup_s);
    }
    let mut out = Outcome::new();
    let mut reference = None;
    let (untraced, traced, mut figures) = measure(ctx, &s, &mut reference, &mut out);
    let Some(reference) = reference else {
        eprintln!("perfbench: no untraced pass completed; nothing to measure");
        std::process::exit(1);
    };
    if !ctx.trace {
        out.metric("setup_s", setup_s, "s");
        out.batch_metrics(s.config.cell_count() as u64, &untraced);
        return out;
    }
    figures.per_pass(traced.len());
    if !traced.is_empty() {
        figures.set(
            "trace.overhead_ms",
            (median(&traced) - median(&untraced)) * 1e3,
        );
    }
    // Passes without a cache touch none of its layers: those figures come
    // from the cache round, writes from the fill and reads from the replay.
    let [fill, replay] = cache_round(&s, &reference, &mut out);
    for name in [
        "cache.store_ms",
        "cache.store_mib",
        "cache_mib",
        "json.render_ms",
    ] {
        figures.set(name, fill.get(name));
    }
    for name in [
        "cache.key_ms",
        "cache.load_ms",
        "cache.load_mib",
        "cache.hit_ratio",
        "json.parse_ms",
    ] {
        figures.set(name, replay.get(name));
    }
    figures.emit(&mut out);
    out
}

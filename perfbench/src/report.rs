//! What one run reports: operation counts, metrics and the result line.

use std::collections::BTreeMap;

use leaseos_simkit::JsonValue;

use crate::spans::{Layer, Totals};
use crate::stats::median;
use crate::tasks::PoolStats;

/// Every per-layer metric of the traced run, with its unit. Each workload
/// reports all of them; a layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("kernel.events", "count"),
    ("kernel.self_ms", "ms"),
    ("kernel.ns_per_event", "ns"),
    ("kernel.build_ms", "ms"),
    ("apps.calls", "count"),
    ("apps.self_ms", "ms"),
    ("lease.calls", "count"),
    ("lease.self_ms", "ms"),
    ("baselines.calls", "count"),
    ("baselines.self_ms", "ms"),
    ("telemetry.events", "count"),
    ("telemetry.mib", "MiB"),
    ("telemetry.self_ms", "ms"),
    ("faults.plan_ms", "ms"),
    ("faults.injected", "count"),
    ("cache.key_ms", "ms"),
    ("cache.store_ms", "ms"),
    ("cache.store_mib", "MiB"),
    ("cache.load_ms", "ms"),
    ("cache.load_mib", "MiB"),
    ("cache.hit_ratio", "ratio"),
    ("cache_mib", "MiB"),
    ("json.render_ms", "ms"),
    ("json.parse_ms", "ms"),
    ("conformance.evaluate_ms", "ms"),
    ("conformance.table_ms", "ms"),
    ("harness.busy_ms", "ms"),
    ("harness.utilization", "ratio"),
    ("harness.tail_ms", "ms"),
    ("fleet.draw_ms", "ms"),
    ("fleet.encode_ms", "ms"),
    ("fleet.report_ms", "ms"),
    ("daemon.requests", "count"),
    ("daemon.server_ms", "ms"),
    ("daemon.transport_ms", "ms"),
    ("daemon.mem_hit_ratio", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// Mebibytes in `bytes`.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// A run's result: operation counts, correctness, metrics, and the
/// human-readable lines printed before the result line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (matrix cells, fleet devices, daemon requests).
    pub attempted: u64,
    /// Operations that failed a check, panicked or were refused.
    pub failed: u64,
    /// Whether every aggregate check over the non-failed operations held.
    pub correct: bool,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable lines (checks, provenance of the figures).
    pub lines: Vec<String>,
}

impl Outcome {
    /// An empty, so-far-correct outcome.
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// What a set-up-only run reports: its set-up time.
    pub fn setup_only(setup_s: f64) -> Self {
        let mut out = Outcome::new();
        out.attempted = 1;
        out.metric("setup_s", setup_s, "s");
        out
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_owned(), value, unit.to_owned()));
    }

    /// Records a failed aggregate check.
    pub fn fail_check(&mut self, what: String) {
        self.correct = false;
        self.lines.push(format!("CHECK FAILED: {what}"));
    }

    /// Adds a line of commentary.
    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// The end-to-end throughput and latency metrics of a batch workload
    /// from its per-pass wall times: operations per second is the median
    /// over passes, and both latencies are the median pass time: a run's
    /// 7–16 passes repeat identical work, so their slow tail is the host's
    /// noise rather than the program's.
    pub fn batch_metrics(&mut self, ops_per_pass: u64, pass_s: &[f64]) {
        let rates: Vec<f64> = pass_s.iter().map(|s| ops_per_pass as f64 / s).collect();
        let pass_ms = median(&pass_s.iter().map(|s| s * 1e3).collect::<Vec<_>>());
        self.metric("ops_per_s", median(&rates), "1/s");
        self.metric("lat_p50_ms", pass_ms, "ms");
        self.metric("lat_p99_ms", pass_ms, "ms");
        self.note(format!(
            "{} passes of {ops_per_pass} operations; pass wall ms in run order: {}",
            pass_s.len(),
            pass_s
                .iter()
                .map(|s| format!("{:.1}", s * 1e3))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }

    /// The result line: `correct`, `attempted`, `failed`, the worker
    /// `threads` the run used, and `metrics`.
    pub fn result_json(&self, threads: usize) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    JsonValue::Obj(vec![
                        ("value".into(), JsonValue::Num(*value)),
                        ("unit".into(), JsonValue::Str(unit.clone())),
                    ]),
                )
            })
            .collect();
        JsonValue::Obj(vec![
            ("correct".into(), JsonValue::Bool(self.correct)),
            ("attempted".into(), JsonValue::Num(self.attempted as f64)),
            ("failed".into(), JsonValue::Num(self.failed as f64)),
            ("threads".into(), JsonValue::Num(threads as f64)),
            ("metrics".into(), JsonValue::Obj(metrics)),
        ])
        .to_json()
    }
}

/// Per-layer figures accumulated over the traced passes of one run, and
/// reported per pass (per request for the daemon).
#[derive(Debug, Default)]
pub struct LayerFigures {
    values: BTreeMap<&'static str, f64>,
}

impl LayerFigures {
    /// Adds `v` to metric `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        *self.values.entry(name).or_insert(0.0) += v;
    }

    /// Sets metric `name` to `v`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.values.insert(name, v);
    }

    /// Metric `name` so far (0 when never touched).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Adds one pass's span totals.
    pub fn add_spans(&mut self, t: &Totals) {
        self.add("kernel.self_ms", t.self_ms(Layer::Kernel));
        self.add("kernel.build_ms", t.self_ms(Layer::KernelBuild));
        self.add("apps.calls", t.calls(Layer::Apps) as f64);
        self.add("apps.self_ms", t.self_ms(Layer::Apps));
        self.add("lease.calls", t.calls(Layer::Lease) as f64);
        self.add("lease.self_ms", t.self_ms(Layer::Lease));
        self.add("baselines.calls", t.calls(Layer::Baselines) as f64);
        self.add("baselines.self_ms", t.self_ms(Layer::Baselines));
        self.add("telemetry.self_ms", t.self_ms(Layer::Telemetry));
        self.add("faults.plan_ms", t.self_ms(Layer::Faults));
        self.add("cache.key_ms", t.self_ms(Layer::CacheKey));
        self.add("cache.store_ms", t.self_ms(Layer::CacheStore));
        self.add("cache.load_ms", t.self_ms(Layer::CacheLoad));
        self.add("json.render_ms", t.self_ms(Layer::JsonRender));
        self.add("json.parse_ms", t.self_ms(Layer::JsonParse));
        self.add("conformance.evaluate_ms", t.self_ms(Layer::Evaluate));
        self.add("conformance.table_ms", t.self_ms(Layer::Table));
        self.add("fleet.draw_ms", t.self_ms(Layer::FleetDraw));
        self.add("fleet.encode_ms", t.self_ms(Layer::FleetEncode));
        self.add("fleet.report_ms", t.self_ms(Layer::FleetReport));
    }

    /// Adds one batch's worker-pool figures.
    pub fn add_pool(&mut self, p: &PoolStats) {
        self.add("harness.busy_ms", p.busy_ms);
        self.add("harness.utilization", p.utilization);
        self.add("harness.tail_ms", p.tail_ms);
    }

    /// Divides every accumulated figure by `passes`, then derives the
    /// per-event kernel cost.
    pub fn per_pass(&mut self, passes: usize) {
        let n = passes.max(1) as f64;
        for v in self.values.values_mut() {
            *v /= n;
        }
        let events = self.get("kernel.events");
        if events > 0.0 {
            let ns = self.get("kernel.self_ms") * 1e6 / events;
            self.set("kernel.ns_per_event", ns);
        }
    }

    /// Every per-layer metric into `out`, 0 where the workload never
    /// reached the layer.
    pub fn emit(&self, out: &mut Outcome) {
        for (name, unit) in PER_LAYER {
            out.metric(name, self.get(name), unit);
        }
    }
}

//! `daemon`: a closed loop of client connections against a resident
//! daemon serving every request from its in-memory front.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use leaseos_apps::buggy::case_names;
use leaseos_bench::conformance::{resolve_case, run_cell};
use leaseos_bench::daemon::{spawn, PROTOCOL_VERSION};
use leaseos_bench::dumpsys::{live_report, Format};
use leaseos_bench::explore::{render, ExploreParams};
use leaseos_bench::{
    DaemonClient, DaemonConfig, FaultArm, PolicyKind, ScenarioRunner, ScenarioSpec,
};
use leaseos_simkit::{DeviceProfile, JsonValue, MetricsRegistry, SimDuration, SimRng};

use crate::report::{LayerFigures, Outcome};
use crate::spans::{span, take_thread_totals, Layer, Totals};
use crate::stats::{median, LatencyHist};
use crate::Ctx;

/// Distinct `run-cell` requests primed at set-up.
const CELLS: usize = 24;
/// The seed the `run-cell` requests are drawn with. Fixed rather than
/// taken from `--seed`: set-up simulates each drawn cell twice (reference
/// and priming), and the set-up time of two seeds' draws differed 2.4×.
/// `--seed` draws the clients' request picks and orders.
const CELL_DRAW_SEED: u64 = 42;
/// The `dumpsys` and the `explore` requests (app, policy): fixed rather
/// than drawn, because their replies are the large ones and set the tail —
/// a drawn pair would make the tail a property of the seed.
const DUMPSYS: [(&str, PolicyKind); 2] = [
    ("Facebook", PolicyKind::Vanilla),
    ("Facebook", PolicyKind::LeaseOs),
];
const EXPLORE: [(&str, PolicyKind); 2] = [
    ("Torch", PolicyKind::LeaseOs),
    ("Torch", PolicyKind::Vanilla),
];
/// One round of a client's loop: this many `run-cell` requests plus one
/// of each `dumpsys` and `explore` request, in a seeded order — the
/// 2 : 1 : 1 mix of the daemon soak test's catalog
/// (`tests/daemon_soak.rs`) and of the CI job's scripted daemon session.
const CELLS_PER_ROUND: usize = 2;
/// The window the throughput and latency figures are taken over.
const WINDOW_S: f64 = 1.0;
/// Simulated minutes of every request.
const MINUTES: u64 = 30;

const SOCKET: &str = "perfbench-daemon.sock";

/// One distinct request: its line, the reply it must get, and whether it
/// is a `run-cell` (answered through the counted memory front).
struct Request {
    doc: JsonValue,
    expected: String,
    run_cell: bool,
}

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn s(v: &str) -> JsonValue {
    JsonValue::Str(v.to_owned())
}

fn n(v: u64) -> JsonValue {
    JsonValue::Num(v as f64)
}

/// The reply line the daemon owes for `result`.
fn ok_line(result: JsonValue) -> String {
    obj(vec![
        ("v", n(PROTOCOL_VERSION)),
        ("ok", JsonValue::Bool(true)),
        ("result", result),
    ])
    .to_json()
}

/// Draws the `run-cell` requests, adds the fixed `dumpsys` and
/// `explore` requests, and computes every reference reply in-process,
/// through the one-shot paths: `run_cell`, the dumpsys pipeline and
/// `explore::render`.
fn requests(runner: &ScenarioRunner) -> Vec<Request> {
    let mut rng = SimRng::new(CELL_DRAW_SEED);
    let apps = case_names();
    let mut cells: Vec<(&str, PolicyKind, FaultArm, u64)> = Vec::new();
    while cells.len() < CELLS {
        let cell = (
            *rng.pick(&apps),
            *rng.pick(&PolicyKind::ALL),
            *rng.pick(&FaultArm::ALL_ARMS),
            42 + rng.range_u64(0, 3),
        );
        if !cells.contains(&cell) {
            cells.push(cell);
        }
    }
    let reports = DUMPSYS.iter().chain(&EXPLORE);
    let length = SimDuration::from_mins(MINUTES);
    let mean = SimDuration::from_secs(300);
    let mut jobs: Vec<Box<dyn Fn() -> Request + Send + Sync>> = Vec::new();
    for &(app, policy, arm, cell_seed) in &cells {
        jobs.push(Box::new(move || {
            let case = resolve_case(app).expect("a Table 5 app");
            let spec = ScenarioSpec {
                label: format!(
                    "{}/{}/{}/{cell_seed}",
                    case.name,
                    policy.cli_name(),
                    arm.name()
                ),
                app: case.build.clone(),
                policy: Arc::new(move || policy.build()),
                device: DeviceProfile::pixel_xl(),
                env: case.env.clone(),
                seed: cell_seed,
                length,
            };
            let plan = arm.plan(cell_seed, length, mean);
            Request {
                doc: obj(vec![
                    ("v", n(PROTOCOL_VERSION)),
                    ("cmd", s("run-cell")),
                    ("app", s(app)),
                    ("policy", s(policy.cli_name())),
                    ("seed", n(cell_seed)),
                    ("arm", s(arm.name())),
                    ("minutes", n(MINUTES)),
                    ("cold_restart", JsonValue::Bool(true)),
                ]),
                expected: ok_line(run_cell(&spec, &plan, true).summary_json()),
                run_cell: true,
            }
        }));
    }
    for (i, &(app, policy)) in reports.enumerate() {
        if i < DUMPSYS.len() {
            jobs.push(Box::new(move || {
                let report = live_report(app, policy, 42, MINUTES);
                Request {
                    doc: obj(vec![
                        ("v", n(PROTOCOL_VERSION)),
                        ("cmd", s("dumpsys")),
                        ("app", s(app)),
                        ("policy", s(policy.cli_name())),
                        ("seed", n(42)),
                        ("minutes", n(MINUTES)),
                        ("format", s("text")),
                    ]),
                    expected: ok_line(obj(vec![
                        ("scenario", s(&report.scenario)),
                        ("violations", n(report.violations.len() as u64)),
                        ("output", s(&report.render(Format::Text))),
                    ])),
                    run_cell: false,
                }
            }));
        } else {
            jobs.push(Box::new(move || {
                let params = ExploreParams {
                    app: app.to_owned(),
                    policy: policy.cli_name().to_owned(),
                    minutes: MINUTES,
                    ..ExploreParams::default()
                };
                let output = render(&params).expect("a Table 5 app explores");
                Request {
                    doc: obj(vec![
                        ("v", n(PROTOCOL_VERSION)),
                        ("cmd", s("explore")),
                        ("app", s(app)),
                        ("policy", s(policy.cli_name())),
                        ("minutes", n(MINUTES)),
                    ]),
                    expected: ok_line(obj(vec![("output", s(&output))])),
                    run_cell: false,
                }
            }));
        }
    }
    runner.run_tasks(jobs.len(), |i| jobs[i]())
}

/// A client's seeded order of one round: indices into the request set.
fn round(rng: &mut SimRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..CELLS_PER_ROUND)
        .map(|_| rng.range_u64(0, CELLS as u64) as usize)
        .collect();
    order.push(CELLS + rng.range_u64(0, DUMPSYS.len() as u64) as usize);
    order.push(CELLS + DUMPSYS.len() + rng.range_u64(0, EXPLORE.len() as u64) as usize);
    // Fisher–Yates with the client's stream.
    for i in (1..order.len()).rev() {
        let j = rng.range_u64(0, i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// What one closed-loop phase measured.
#[derive(Default)]
struct Phase {
    /// Request latencies by the one-second window they completed in.
    windows: Vec<LatencyHist>,
    sent: u64,
    sent_cells: u64,
    failed: u64,
    wall_s: f64,
    totals: Totals,
}

/// One request as `DaemonClient::request` makes it: render, round trip,
/// parse. Returns the raw reply line.
fn call(client: &mut DaemonClient, doc: &JsonValue) -> Result<String, String> {
    let line = span(Layer::JsonRender, || doc.to_json());
    let reply = span(Layer::DaemonCall, || client.request_line(&line))
        .map_err(|e| format!("daemon io error: {e}"))?;
    span(Layer::JsonParse, || JsonValue::parse(&reply))
        .map_err(|e| format!("unparseable reply: {e}"))?;
    Ok(reply)
}

/// Runs a closed loop on each of `clients` for `seconds` in whole rounds.
/// `stream` separates the seeded orders of different phases.
fn closed_loop(
    clients: &mut [DaemonClient],
    reqs: &[Request],
    seed: u64,
    stream: u64,
    seconds: f64,
) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let phases: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    let mut rng = SimRng::new(seed).fork(stream + c as u64);
                    while Instant::now() < deadline {
                        for i in round(&mut rng) {
                            let req = &reqs[i];
                            let t0 = Instant::now();
                            let reply = call(client, &req.doc);
                            let ms = t0.elapsed().as_secs_f64() * 1e3;
                            let w = (start.elapsed().as_secs_f64() / WINDOW_S) as usize;
                            if phase.windows.len() <= w {
                                phase.windows.resize_with(w + 1, LatencyHist::new);
                            }
                            phase.windows[w].record(ms);
                            phase.sent += 1;
                            phase.sent_cells += u64::from(req.run_cell);
                            if reply.as_deref() != Ok(req.expected.as_str()) {
                                phase.failed += 1;
                            }
                        }
                    }
                    phase.totals = take_thread_totals();
                    phase
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Phase {
        wall_s: start.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for p in phases {
        if all.windows.len() < p.windows.len() {
            all.windows.resize_with(p.windows.len(), LatencyHist::new);
        }
        for (a, w) in all.windows.iter_mut().zip(&p.windows) {
            a.merge(w);
        }
        all.sent += p.sent;
        all.sent_cells += p.sent_cells;
        all.failed += p.failed;
        all.totals.add(&p.totals);
    }
    all
}

impl Phase {
    /// All of the phase's latencies in one histogram.
    fn overall(&self) -> LatencyHist {
        let mut h = LatencyHist::new();
        for w in &self.windows {
            h.merge(w);
        }
        h
    }

    /// The whole one-second windows (the last, part window dropped; a
    /// phase shorter than a window is one window as long as the phase).
    fn whole_windows(&self) -> Vec<(f64, LatencyHist)> {
        let whole = (self.wall_s / WINDOW_S).floor() as usize;
        if whole == 0 {
            return vec![(self.wall_s, self.overall())];
        }
        self.windows
            .iter()
            .take(whole)
            .map(|w| (WINDOW_S, w.clone()))
            .collect()
    }
}

/// The daemon's own counters and request-time sum.
fn server_counters(registry: &MetricsRegistry) -> (u64, u64, f64) {
    (
        registry.counter("daemon_requests_total").value(),
        registry.counter("daemon_cell_mem_hits_total").value(),
        registry
            .histogram("daemon_request_wall_ms")
            .snapshot()
            .sum(),
    )
}

/// Checks the daemon's own request and mem-hit counts against what the
/// clients sent in `phase`.
fn check_counts(before: (u64, u64, f64), after: (u64, u64, f64), phase: &Phase, out: &mut Outcome) {
    if after.0 - before.0 != phase.sent {
        out.fail_check(format!(
            "daemon counted {} requests, clients sent {}",
            after.0 - before.0,
            phase.sent
        ));
    }
    if after.1 - before.1 != phase.sent_cells {
        out.fail_check(format!(
            "daemon counted {} memory hits, clients sent {} run-cell requests",
            after.1 - before.1,
            phase.sent_cells
        ));
    }
}

/// Sends every request once, spread over the connections; returns the
/// requests whose reply differed from the reference.
fn prime(clients: &mut [DaemonClient], reqs: &[Request]) -> Vec<String> {
    let n = clients.len();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    reqs.iter()
                        .skip(c)
                        .step_by(n)
                        .filter(|req| {
                            call(client, &req.doc).as_deref() != Ok(req.expected.as_str())
                        })
                        .map(|req| req.doc.to_json())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("priming thread panicked"))
            .collect()
    })
}

/// `daemon`: set-up spawns the daemon, connects the clients, computes the
/// references and primes every request once; the window is a closed loop
/// on each connection.
pub fn run(ctx: &Ctx) -> Outcome {
    let daemon = spawn(DaemonConfig {
        socket: PathBuf::from(SOCKET),
        threads: ctx.workers,
        cache_dir: None,
    })
    .unwrap_or_else(|e| panic!("cannot start the daemon: {e}"));
    // Connect before computing the references: the daemon's accept loop
    // polls every 25 ms, and a connection made right after the spawn is
    // accepted at once or 25 ms later depending on a thread race, which
    // would make set-up time bimodal. The references take longer than one
    // poll, so every connection is accepted by the time it is used.
    let mut clients: Vec<DaemonClient> = (0..ctx.workers.min(2))
        .map(|_| {
            daemon
                .client()
                .unwrap_or_else(|e| panic!("cannot connect to the daemon: {e}"))
        })
        .collect();
    let runner = ScenarioRunner::with_threads(ctx.workers);
    let reqs = requests(&runner);
    let mut out = Outcome::new();
    for doc in prime(&mut clients, &reqs) {
        out.fail_check(format!("priming reply differs for {doc}"));
    }
    take_thread_totals();
    let setup_s = ctx.since_start();
    if ctx.setup_only {
        drop(clients);
        daemon.shutdown().expect("daemon shutdown");
        return Outcome::setup_only(setup_s);
    }

    let registry = daemon.handle().registry();
    let window = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let before = server_counters(&registry);
    let phase = closed_loop(&mut clients, &reqs, ctx.seed, 1_000, window);
    let after = server_counters(&registry);
    out.attempted += phase.sent;
    out.failed += phase.failed;
    check_counts(before, after, &phase, &mut out);
    out.note(format!(
        "{} clients, {} requests ({} run-cell) in {:.3} s, {} mismatched",
        clients.len(),
        phase.sent,
        phase.sent_cells,
        phase.wall_s,
        phase.failed
    ));

    if ctx.trace {
        let traced = closed_loop(&mut clients, &reqs, ctx.seed, 2_000, window);
        let end = server_counters(&registry);
        out.attempted += traced.sent;
        out.failed += traced.failed;
        check_counts(after, end, &traced, &mut out);
        let server_ms = end.2 - after.2;
        let mut figures = LayerFigures::default();
        figures.add_spans(&traced.totals);
        figures.add("daemon.server_ms", server_ms);
        figures.add(
            "daemon.transport_ms",
            traced.totals.self_ms(Layer::DaemonCall) - server_ms,
        );
        figures.per_pass(traced.sent as usize);
        figures.set("daemon.requests", traced.sent as f64);
        figures.set(
            "daemon.mem_hit_ratio",
            (end.1 - after.1) as f64 / traced.sent_cells.max(1) as f64,
        );
        figures.set(
            "trace.overhead_ms",
            traced.overall().mean_ms() - phase.overall().mean_ms(),
        );
        figures.emit(&mut out);
    } else {
        // Per one-second window, then the median over the windows: a few
        // seconds of a noisy neighbour do not move the figures.
        let windows = phase.whole_windows();
        let column = |f: &dyn Fn(&(f64, LatencyHist)) -> f64| {
            median(&windows.iter().map(f).collect::<Vec<_>>())
        };
        out.metric("setup_s", setup_s, "s");
        out.metric("ops_per_s", column(&|(s, h)| h.count() as f64 / s), "1/s");
        out.metric("lat_p50_ms", column(&|(_, h)| h.percentile(50.0)), "ms");
        out.metric("lat_p99_ms", column(&|(_, h)| h.percentile(99.0)), "ms");
        out.note(format!("{} one-second windows", windows.len()));
    }
    drop(clients);
    daemon.shutdown().expect("daemon shutdown");
    out
}

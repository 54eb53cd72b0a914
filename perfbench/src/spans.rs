//! In-process spans for the traced run.
//!
//! A span wraps one call into a layer. Spans nest on a per-thread stack, so
//! each layer's *self* time is its span time minus the time of the spans
//! nested directly inside it: an app callback that acquires a wakelock
//! contains a policy `on_acquire` span, and the policy's time is taken out
//! of the app's. Totals stay thread-local until a worker hands them in with
//! [`take_thread_totals`].

use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

/// The layers a span can be charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The framework kernel's event loop, ledger, settle and audits.
    Kernel,
    /// `Kernel::new` + `add_app` + `install_fault_plan`.
    KernelBuild,
    /// App-model callbacks.
    Apps,
    /// LeaseOS policy hooks.
    Lease,
    /// Doze, DefDroid and PureThrottle policy hooks.
    Baselines,
    /// The cell's telemetry sink.
    Telemetry,
    /// Fault-plan generation.
    Faults,
    /// Cache-key building.
    CacheKey,
    /// Cache reads.
    CacheLoad,
    /// Cache writes.
    CacheStore,
    /// Building or rendering JSON documents.
    JsonRender,
    /// Parsing or decoding JSON documents.
    JsonParse,
    /// `conformance::evaluate`.
    Evaluate,
    /// `conformance::render_table`.
    Table,
    /// Population and app-mix draws.
    FleetDraw,
    /// `DeviceOutcome::to_json`.
    FleetEncode,
    /// `fleet::render_report`.
    FleetReport,
    /// One daemon round trip as the client sees it.
    DaemonCall,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = 18;
}

/// Accumulated self time and call counts per layer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Totals {
    self_ns: [u64; Layer::COUNT],
    calls: [u64; Layer::COUNT],
}

impl Totals {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Totals) {
        for i in 0..Layer::COUNT {
            self.self_ns[i] += other.self_ns[i];
            self.calls[i] += other.calls[i];
        }
    }

    /// Self time charged to `layer`, in milliseconds.
    pub fn self_ms(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 / 1e6
    }

    /// Spans closed on `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }
}

#[derive(Debug)]
struct Frame {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
}

/// A stack of open spans with explicit timestamps — the arithmetic behind
/// [`span`], kept clock-free so it can be tested exactly.
#[derive(Debug, Default)]
pub struct SpanStack {
    frames: Vec<Frame>,
    totals: Totals,
}

impl SpanStack {
    /// Opens a span on `layer` at `now_ns`.
    pub fn enter(&mut self, layer: Layer, now_ns: u64) {
        self.frames.push(Frame {
            layer,
            start_ns: now_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost span at `now_ns`: its self time is its elapsed
    /// time minus its children's, and its whole elapsed time counts as a
    /// child of the enclosing span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    pub fn exit(&mut self, now_ns: u64) {
        let frame = self.frames.pop().expect("span exit without enter");
        let elapsed = now_ns.saturating_sub(frame.start_ns);
        let i = frame.layer as usize;
        self.totals.self_ns[i] += elapsed.saturating_sub(frame.child_ns);
        self.totals.calls[i] += 1;
        if let Some(parent) = self.frames.last_mut() {
            parent.child_ns += elapsed;
        }
    }

    /// Takes the accumulated totals, leaving zeros behind.
    pub fn take(&mut self) -> Totals {
        std::mem::take(&mut self.totals)
    }
}

thread_local! {
    static STACK: RefCell<SpanStack> = RefCell::new(SpanStack::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` inside a span charged to `layer` on this thread.
pub fn span<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    STACK.with(|s| s.borrow_mut().enter(layer, now_ns()));
    let out = f();
    STACK.with(|s| s.borrow_mut().exit(now_ns()));
    out
}

/// Takes this thread's accumulated totals.
pub fn take_thread_totals() -> Totals {
    STACK.with(|s| s.borrow_mut().take())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_charge_self_time_only() {
        // app [0, 100) contains policy [10, 40), which contains a sink
        // record [20, 25); a second policy call [50, 60) follows.
        let mut s = SpanStack::default();
        s.enter(Layer::Apps, 0);
        s.enter(Layer::Lease, 10);
        s.enter(Layer::Telemetry, 20);
        s.exit(25);
        s.exit(40);
        s.enter(Layer::Lease, 50);
        s.exit(60);
        s.exit(100);
        let t = s.take();
        assert_eq!(t.self_ns[Layer::Apps as usize], 100 - 30 - 10);
        assert_eq!(t.self_ns[Layer::Lease as usize], (30 - 5) + 10);
        assert_eq!(t.self_ns[Layer::Telemetry as usize], 5);
        assert_eq!(t.calls(Layer::Lease), 2);
        assert_eq!(t.calls(Layer::Apps), 1);
        // Self times of a closed tree add up to the root's span.
        let sum: u64 = t.self_ns.iter().sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn count_covers_every_layer() {
        assert_eq!(Layer::DaemonCall as usize + 1, Layer::COUNT);
    }

    #[test]
    fn same_layer_recursion_is_not_double_counted() {
        let mut s = SpanStack::default();
        s.enter(Layer::Kernel, 0);
        s.enter(Layer::Kernel, 10);
        s.exit(30);
        s.exit(50);
        let t = s.take();
        assert_eq!(t.self_ns[Layer::Kernel as usize], 50);
        assert_eq!(t.calls(Layer::Kernel), 2);
    }

    #[test]
    fn take_resets_and_totals_add() {
        let mut s = SpanStack::default();
        s.enter(Layer::CacheLoad, 0);
        s.exit(7);
        let mut a = s.take();
        assert_eq!(s.take(), Totals::default());
        a.add(&a.clone());
        assert_eq!(a.self_ns[Layer::CacheLoad as usize], 14);
        assert_eq!(a.calls(Layer::CacheLoad), 2);
    }

    #[test]
    fn thread_local_spans_count_calls() {
        let out = span(Layer::JsonParse, || {
            span(Layer::JsonRender, || std::hint::black_box(3) + 4)
        });
        assert_eq!(out, 7);
        let t = take_thread_totals();
        assert_eq!(t.calls(Layer::JsonParse), 1);
        assert_eq!(t.calls(Layer::JsonRender), 1);
    }
}

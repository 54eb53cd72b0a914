//! Timing decorators around the kernel's three extension points: the
//! resource policy, the app model and the telemetry sink. Each one
//! delegates every trait method to the wrapped value and charges the
//! hook's time to a [`Layer`], so a traced run produces the same bytes as
//! an untraced one.

use std::any::Any;

use leaseos_bench::PolicyKind;
use leaseos_framework::{
    AcquireOutcome, AcquireRequest, AppCtx, AppEvent, AppId, AppModel, ObjId, PolicyAction,
    PolicyCtx, PolicyOverhead, ResourcePolicy,
};
use leaseos_simkit::{Sink, TelemetryEvent};

use crate::spans::{span, Layer};

/// A policy whose hooks are timed as `layer`.
pub struct TimedPolicy {
    inner: Box<dyn ResourcePolicy>,
    layer: Layer,
}

impl TimedPolicy {
    /// Builds `kind`'s policy, timed as the layer that implements it.
    /// Vanilla is the framework's own ask-use-release default and stays
    /// unwrapped, so its (empty) hooks count as kernel time.
    pub fn build(kind: PolicyKind) -> Box<dyn ResourcePolicy> {
        let layer = match kind {
            PolicyKind::Vanilla => return kind.build(),
            PolicyKind::LeaseOs => Layer::Lease,
            PolicyKind::DozeAggressive | PolicyKind::DefDroid | PolicyKind::PureThrottle => {
                Layer::Baselines
            }
        };
        Box::new(TimedPolicy {
            inner: kind.build(),
            layer,
        })
    }
}

impl ResourcePolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_acquire(&mut self, ctx: &PolicyCtx<'_>, req: &AcquireRequest) -> AcquireOutcome {
        span(self.layer, || self.inner.on_acquire(ctx, req))
    }

    fn on_release(&mut self, ctx: &PolicyCtx<'_>, obj: ObjId) -> Vec<PolicyAction> {
        span(self.layer, || self.inner.on_release(ctx, obj))
    }

    fn on_object_dead(&mut self, ctx: &PolicyCtx<'_>, obj: ObjId) -> Vec<PolicyAction> {
        span(self.layer, || self.inner.on_object_dead(ctx, obj))
    }

    fn on_timer(&mut self, ctx: &PolicyCtx<'_>, key: u64) -> Vec<PolicyAction> {
        span(self.layer, || self.inner.on_timer(ctx, key))
    }

    fn on_device_state(&mut self, ctx: &PolicyCtx<'_>) -> Vec<PolicyAction> {
        span(self.layer, || self.inner.on_device_state(ctx))
    }

    fn on_alarm(&mut self, ctx: &PolicyCtx<'_>, app: AppId) -> Vec<PolicyAction> {
        span(self.layer, || self.inner.on_alarm(ctx, app))
    }

    fn overhead(&self) -> PolicyOverhead {
        span(self.layer, || self.inner.overhead())
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

/// An app model whose callbacks are timed as [`Layer::Apps`].
pub struct TimedApp {
    inner: Box<dyn AppModel>,
}

impl TimedApp {
    /// Wraps `inner`.
    pub fn wrap(inner: Box<dyn AppModel>) -> Box<dyn AppModel> {
        Box::new(TimedApp { inner })
    }
}

impl AppModel for TimedApp {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        span(Layer::Apps, || self.inner.on_start(ctx));
    }

    fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
        span(Layer::Apps, || self.inner.on_event(ctx, event));
    }

    fn on_restart(&mut self, cold: bool) {
        span(Layer::Apps, || self.inner.on_restart(cold));
    }
}

/// A telemetry sink whose `record` calls are timed as
/// [`Layer::Telemetry`] and counted.
pub struct TimedSink<S> {
    inner: S,
    events: u64,
}

impl<S: Sink> TimedSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedSink { inner, events: 0 }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Events recorded so far.
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl<S: Sink> Sink for TimedSink<S> {
    fn record(&mut self, event: &TelemetryEvent) {
        self.events += 1;
        span(Layer::Telemetry, || self.inner.record(event));
    }
}

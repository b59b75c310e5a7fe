//! The system under test: two sites with TCP collectors, an optional
//! relay, and the root coordinator served over loopback, plus the root's
//! standing-query engine.

use crate::trace::{since, Span};
use crate::workload::Spec;
use bytes::Bytes;
use setstream_core::SketchFamily;
use setstream_distributed::transport::{
    CoordinatorHandler, FrameHandler, FrameServer, ServerHandle, ServerRole,
};
use setstream_distributed::wire::WireError;
use setstream_distributed::{
    Coordinator, RelayNode, Site, TcpCollector, TransportMetrics, TransportOptions,
};
use setstream_engine::{StreamEngine, SubscriptionId, SubscriptionOptions};
use setstream_expr::SetExpr;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const SITES: usize = 2;
const RELAY_ID: u32 = 1000;
const LOOPBACK: &str = "127.0.0.1:0";

/// Frame kind names by the kind byte of the SSWL header (magic:u32, then
/// kind:u8 whose high bit flags an extension block).
fn kind_name(frame: &Bytes) -> &'static str {
    match frame.get(4).map(|b| b & 0x7f) {
        Some(1) => "coordinator.on_frame.hello",
        Some(2) => "coordinator.on_frame.synopsis",
        Some(3) => "coordinator.on_frame.flush",
        Some(4) => "coordinator.on_frame.delta",
        Some(5) => "coordinator.on_frame.commit",
        _ => "coordinator.on_frame.other",
    }
}

/// Busy-time spans of the root's frame handler, recorded while a traced
/// epoch runs. `start` stores the epoch and then sets `recording` with
/// `Release`; the server thread's `Acquire` load of `recording` pairs
/// with it, so a recorded span always carries the epoch that started it.
pub struct RootProbe {
    origin: Instant,
    recording: AtomicBool,
    epoch: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl RootProbe {
    pub fn start(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Relaxed);
        self.recording.store(true, Ordering::Release);
    }

    pub fn stop(&self) -> Vec<Span> {
        self.recording.store(false, Ordering::Release);
        std::mem::take(&mut *self.spans())
    }

    /// The span list. A push leaves the `Vec` valid at every step, so a
    /// guard poisoned by a panicking holder is still safe to use.
    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// The root's [`CoordinatorHandler`] with its `on_frame` calls timed.
struct TimedHandler {
    inner: CoordinatorHandler,
    probe: Arc<RootProbe>,
}

impl FrameHandler for TimedHandler {
    fn on_frame(&mut self, conn: u64, frame: Bytes) -> Vec<Bytes> {
        if !self.probe.recording.load(Ordering::Acquire) {
            return self.inner.on_frame(conn, frame);
        }
        let name = kind_name(&frame);
        let start = Instant::now();
        let out = self.inner.on_frame(conn, frame);
        let end = Instant::now();
        let span = Span {
            name,
            epoch: self.probe.epoch.load(Ordering::Relaxed),
            depth: 2,
            start_ns: since(self.probe.origin, start),
            end_ns: since(self.probe.origin, end),
        };
        self.probe.spans().push(span);
        out
    }

    fn on_wire_error(&mut self, conn: u64, err: &WireError) {
        self.inner.on_wire_error(conn, err);
    }

    fn on_overflow(&mut self, conn: u64) {
        self.inner.on_overflow(conn);
    }

    fn on_disconnect(&mut self, conn: u64) {
        self.inner.on_disconnect(conn);
    }
}

pub struct Stack {
    pub sites: Vec<Site>,
    pub collectors: Vec<TcpCollector>,
    pub relay: Option<RelayNode>,
    pub root: Arc<Coordinator>,
    /// One per connection end: each site's collector, the relay (both
    /// its child-facing server and its upstream collector), the root.
    pub site_metrics: Vec<Arc<TransportMetrics>>,
    pub relay_metrics: Option<Arc<TransportMetrics>>,
    pub root_metrics: Arc<TransportMetrics>,
    server: ServerHandle,
    pub probe: Arc<RootProbe>,
    pub engine: StreamEngine,
    pub subscriptions: BTreeMap<SubscriptionId, SetExpr>,
}

impl Stack {
    /// Bring the topology up: root server, relay (if the workload has
    /// one), site collectors, and the root's subscriptions. The root's
    /// frame handler is wrapped in a timing probe that records only while
    /// a traced epoch runs; span times count from `origin`.
    pub fn build(spec: &Spec, family: SketchFamily, origin: Instant) -> Result<Stack, String> {
        let opts = TransportOptions::default();
        let root = Arc::new(Coordinator::new(family));
        let root_metrics = Arc::new(TransportMetrics::new());
        let probe = Arc::new(RootProbe {
            origin,
            recording: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        });
        let handler = TimedHandler {
            inner: CoordinatorHandler::new(
                Arc::clone(&root),
                Arc::clone(&root_metrics),
                ServerRole::Coordinator,
                &opts,
            ),
            probe: Arc::clone(&probe),
        };
        let server = FrameServer::spawn(LOOPBACK, handler, opts, Arc::clone(&root_metrics))
            .map_err(|e| format!("root server: {e}"))?;

        let (relay, relay_metrics, site_target) = if spec.relay {
            let metrics = Arc::new(TransportMetrics::new());
            let node = RelayNode::spawn(
                LOOPBACK,
                server.addr(),
                RELAY_ID,
                family,
                opts,
                Arc::clone(&metrics),
            )
            .map_err(|e| format!("relay: {e}"))?;
            let addr = node.addr();
            (Some(node), Some(metrics), addr)
        } else {
            (None, None, server.addr())
        };

        let site_metrics: Vec<_> = (0..SITES)
            .map(|_| Arc::new(TransportMetrics::new()))
            .collect();
        let collectors = site_metrics
            .iter()
            .map(|m| TcpCollector::new(site_target, opts, Arc::clone(m)))
            .collect();
        let sites = (0..SITES)
            .map(|i| Site::new(i as u32 + 1, family))
            .collect();

        let mut engine = StreamEngine::new(family);
        let mut subscriptions = BTreeMap::new();
        for (expr, tolerance) in &spec.subscriptions {
            let options = SubscriptionOptions::builder()
                .tolerance(*tolerance)
                .build()
                .map_err(|e| format!("subscription options: {e}"))?;
            let id = engine
                .subscribe(expr.clone(), options)
                .map_err(|e| format!("subscribe {expr}: {e}"))?;
            subscriptions.insert(id, expr.clone());
        }

        Ok(Stack {
            sites,
            collectors,
            relay,
            root,
            site_metrics,
            relay_metrics,
            root_metrics,
            server,
            probe,
            engine,
            subscriptions,
        })
    }

    /// Every transport endpoint's metrics.
    pub fn all_transport_metrics(&self) -> impl Iterator<Item = &Arc<TransportMetrics>> {
        self.site_metrics
            .iter()
            .chain(self.relay_metrics.iter())
            .chain(std::iter::once(&self.root_metrics))
    }

    /// The coordinators that apply frames: the root, and the relay's
    /// child-facing one.
    pub fn coordinators(&self) -> impl Iterator<Item = &Arc<Coordinator>> {
        std::iter::once(&self.root).chain(self.relay.as_ref().map(|r| r.coordinator()))
    }

    /// Stop every server thread and drop every connection.
    pub fn shutdown(self) {
        let Stack {
            collectors,
            relay,
            mut server,
            ..
        } = self;
        drop(collectors);
        if let Some(relay) = relay {
            relay.shutdown();
        }
        server.shutdown();
    }
}

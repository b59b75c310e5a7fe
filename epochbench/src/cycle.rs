//! One closed-loop epoch cycle, timed from outside the system.
//!
//! Order, matching how `apps::demo` drives the system: the root's engine
//! (if it has standing queries) and both sites ingest the epoch's
//! updates; each site cuts, ships and waits for its acks; the relay (if
//! any) flushes upstream; the root's dirty streams feed `note_dirty` +
//! `publish_epoch`; the root answers the epoch's queries.

use crate::stack::{Stack, SITES};
use crate::trace::{since, Span};
use crate::workload::EpochInput;
use bytes::Bytes;
use setstream_distributed::site::DeltaMessage;
use setstream_distributed::transport::TransportError;
use setstream_distributed::wire::{decode_payload, FrameKind, WireError};
use setstream_distributed::{Site, TcpCollector, TransportOptions};
use setstream_engine::ChangeEvent;
use setstream_expr::SetExpr;
use std::time::Instant;

/// Monotone counters read before and after a cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub wire_bytes: u64,
    pub relay_upstream_bytes: u64,
    pub retransmits: u64,
    pub timeouts: u64,
    pub backpressure_stalls: u64,
    pub relay_merges: u64,
    pub root_frames: u64,
    pub rejections: u64,
    pub resyncs: u64,
    pub roots_reestimated: u64,
}

impl Counters {
    pub fn read(stack: &Stack) -> Counters {
        let mut c = Counters::default();
        for m in stack.all_transport_metrics() {
            c.wire_bytes += m.bytes_out.get();
            c.retransmits += m.retransmits.get();
            c.timeouts += m.timeouts.get();
            c.backpressure_stalls += m.backpressure_stalls.get();
        }
        if let Some(relay) = &stack.relay_metrics {
            c.relay_merges = relay.relay_merges.get();
            // Only the relay talks to the root in the relay topology.
            c.relay_upstream_bytes = stack.root_metrics.bytes_in.get();
        }
        c.root_frames = stack.root.metrics().frames_total();
        for coord in stack.coordinators() {
            c.rejections += coord.metrics().rejections_total();
            c.resyncs += coord.metrics().resync_flags.get();
        }
        c.roots_reestimated = stack.engine.subscription_metrics().nodes_evaluated.get();
        c
    }

    /// `self − before`, field by field.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            wire_bytes: self.wire_bytes - before.wire_bytes,
            relay_upstream_bytes: self.relay_upstream_bytes - before.relay_upstream_bytes,
            retransmits: self.retransmits - before.retransmits,
            timeouts: self.timeouts - before.timeouts,
            backpressure_stalls: self.backpressure_stalls - before.backpressure_stalls,
            relay_merges: self.relay_merges - before.relay_merges,
            root_frames: self.root_frames - before.root_frames,
            rejections: self.rejections - before.rejections,
            resyncs: self.resyncs - before.resyncs,
            roots_reestimated: self.roots_reestimated - before.roots_reestimated,
        }
    }

    pub fn add(&mut self, o: &Counters) {
        self.wire_bytes += o.wire_bytes;
        self.relay_upstream_bytes += o.relay_upstream_bytes;
        self.retransmits += o.retransmits;
        self.timeouts += o.timeouts;
        self.backpressure_stalls += o.backpressure_stalls;
        self.relay_merges += o.relay_merges;
        self.root_frames += o.root_frames;
        self.rejections += o.rejections;
        self.resyncs += o.resyncs;
        self.roots_reestimated += o.roots_reestimated;
    }
}

/// What one cycle did and how long each part took.
pub struct EpochRecord {
    pub updates: usize,
    pub cycle_ns: u64,
    pub cut_to_commit_ns: u64,
    pub query_ns: Vec<u64>,
    pub durable_bytes: u64,
    pub frames: u64,
    pub frame_bytes: u64,
    pub counters: Counters,
    pub events: Vec<ChangeEvent>,
    /// Traced cycles only: every span, and (nonzero, total) delta cells.
    pub spans: Vec<Span>,
    pub delta_cells: (u64, u64),
    /// The first `Site::cut_epoch` error, also counted in `failures`.
    pub cut_error: Option<WireError>,
    pub failures: Vec<String>,
}

/// Times calls and, in a traced cycle, keeps them as depth-1 spans.
struct Recorder {
    origin: Instant,
    epoch: u64,
    spans: Option<Vec<Span>>,
}

impl Recorder {
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(spans) = self.spans.as_mut() else {
            return f();
        };
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        spans.push(Span {
            name,
            epoch: self.epoch,
            depth: 1,
            start_ns: since(self.origin, start),
            end_ns: since(self.origin, end),
        });
        out
    }
}

/// Drain `collector`'s acks, answering resync demands with the site's
/// cumulative resync frames — the loop `TcpCollector::collect` runs,
/// unrolled so shipping and waiting are timed apart, with the same
/// resync budget.
fn await_acks(
    rec: &mut Recorder,
    site: &mut Site,
    collector: &mut TcpCollector,
) -> Result<(), String> {
    let max_resyncs = TransportOptions::default().max_attempts();
    let mut resyncs = 0;
    loop {
        let demand = match rec.call("transport.ack_wait", || collector.flush()) {
            Ok(()) => site.recovering(),
            Err(TransportError::ResyncRequired) => true,
            Err(e) => return Err(e.to_string()),
        };
        if !demand {
            return Ok(());
        }
        resyncs += 1;
        if resyncs > max_resyncs {
            return Err(format!("still demanding resync after {max_resyncs} rounds"));
        }
        let frames = site.resync_frames().map_err(|e| e.to_string())?;
        let epoch = site.epoch();
        rec.call("transport.ship", || collector.ship(epoch, frames))
            .map_err(|e| e.to_string())?;
    }
}

/// (nonzero, total) counter cells across the delta frames in `frames`.
fn delta_cells(frames: &[Bytes]) -> (u64, u64) {
    let mut cells = (0, 0);
    for frame in frames {
        if let Ok((FrameKind::Delta, msg)) = decode_payload::<DeltaMessage>(frame.clone()) {
            for sketch in msg.vector.sketches() {
                let counters = sketch.counters();
                cells.0 += counters.iter().filter(|&&c| c != 0).count() as u64;
                cells.1 += counters.len() as u64;
            }
        }
    }
    cells
}

/// Run one epoch cycle over `stack`, timed from the first ingest call to
/// the last root query.
pub fn run_epoch(
    stack: &mut Stack,
    input: &EpochInput,
    queries: &[SetExpr],
    epoch: u64,
    origin: Instant,
    traced: bool,
) -> EpochRecord {
    let before = Counters::read(stack);
    let mut rec = Recorder {
        origin,
        epoch,
        spans: traced.then(Vec::new),
    };
    if traced {
        stack.probe.start(epoch);
    }
    let mut failures = Vec::new();
    let mut cut_error = None;
    let mut shipped: Vec<Bytes> = Vec::new();
    let (mut durable_bytes, mut frames, mut frame_bytes) = (0u64, 0u64, 0u64);

    let cycle_start = Instant::now();
    if !stack.subscriptions.is_empty() {
        // The engine estimates from synopses of its own: feeding it the
        // same updates makes them bit-identical to the root's merge (the
        // correctness gate checks that through every change event).
        let engine = &mut stack.engine;
        rec.call("engine.ingest", || {
            engine.process_batch(input.per_site.iter().flatten())
        });
    }
    for (site, batch) in stack.sites.iter_mut().zip(&input.per_site) {
        rec.call("site.ingest", || site.observe_batch(batch));
    }
    let commit_start = Instant::now();
    for i in 0..SITES {
        let site = &mut stack.sites[i];
        let collector = &mut stack.collectors[i];
        let cut = match rec.call("site.cut", || site.cut_epoch()) {
            Ok(cut) => cut,
            Err(e) => {
                failures.push(format!("site {} cut_epoch: {e}", site.id()));
                cut_error.get_or_insert(e);
                continue;
            }
        };
        durable_bytes += cut.checkpoint.len() as u64;
        frames += cut.frames.len() as u64;
        frame_bytes += cut.frames.iter().map(|f| f.len() as u64).sum::<u64>();
        if traced {
            shipped.extend(cut.frames.iter().cloned());
        }
        let delivered = rec
            .call("transport.ship", || collector.ship(cut.epoch, cut.frames))
            .map_err(|e| e.to_string())
            .and_then(|()| await_acks(&mut rec, site, collector));
        if let Err(e) = delivered {
            failures.push(format!("site {} epoch {}: {e}", site.id(), cut.epoch));
        }
    }
    if let Some(relay) = stack.relay.as_mut() {
        if let Err(e) = rec.call("relay.flush", || relay.flush_upstream()) {
            failures.push(format!("relay flush_upstream: {e}"));
        }
    }
    let commit_end = Instant::now();
    let events = rec.call("engine.publish", || {
        stack.engine.note_dirty(stack.root.drain_dirty_streams());
        stack.engine.publish_epoch()
    });
    let mut query_ns = Vec::with_capacity(queries.len());
    for q in queries {
        let start = Instant::now();
        let answer = rec.call("coordinator.query", || stack.root.query(q));
        match answer {
            Ok(_) => query_ns.push(start.elapsed().as_nanos() as u64),
            Err(e) => failures.push(format!("root query {q}: {e}")),
        }
    }
    let cycle_end = Instant::now();

    let mut spans = rec.spans.unwrap_or_default();
    if traced {
        spans.extend(stack.probe.stop());
        spans.push(Span {
            name: "cycle",
            epoch,
            depth: 0,
            start_ns: since(origin, cycle_start),
            end_ns: since(origin, cycle_end),
        });
    }
    EpochRecord {
        updates: input.updates(),
        cycle_ns: (cycle_end - cycle_start).as_nanos() as u64,
        cut_to_commit_ns: (commit_end - commit_start).as_nanos() as u64,
        query_ns,
        durable_bytes,
        frames,
        frame_bytes,
        counters: Counters::read(stack).since(&before),
        events,
        spans,
        delta_cells: delta_cells(&shipped),
        cut_error,
        failures,
    }
}

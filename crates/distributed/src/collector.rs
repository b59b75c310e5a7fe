//! The site-side collection client, one for every transport.
//!
//! A [`Collector`] ships epoch batches (`Hello` + content frames +
//! `Commit`) and reacts to the serving coordinator's per-epoch
//! [`AckMessage`]s:
//!
//! * at most `credit_window` epochs are unacknowledged at once;
//! * an incomplete or quarantined ack retransmits that epoch, a timeout
//!   or broken connection resets the link and retransmits every pending
//!   epoch, and each transmission of a batch counts against its epoch's
//!   `max_attempts` ([`TransportError::Undelivered`] after that);
//! * a `needs_resync` ack discards every pending epoch
//!   ([`TransportError::ResyncRequired`]); an ack naming an unrecoverable
//!   rejection stops at once ([`TransportError::Rejected`]);
//! * one resync loop answers every resync demand with the sender's
//!   cumulative batch, for sites ([`Collector::collect`]) and relays
//!   ([`crate::relay::Relay::flush_to`]) alike.
//!
//! The transport is a [`Link`]: [`crate::transport::TcpLink`] over TCP
//! ([`crate::transport::TcpCollector`]), or [`crate::network::MemLink`],
//! which carries the same frames through a seeded fault-injecting
//! [`crate::network::LossyLink`] into an in-process coordinator.

use crate::metrics::TransportMetrics;
use crate::site::{Epoch, Site};
use crate::transport::{AckMessage, TransportError, TransportOptions};
use crate::wire::{decode_message, Message, WireError};
use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::Arc;

/// What one [`Link::recv`] produced.
#[derive(Debug)]
pub enum Recv {
    /// One whole frame from the peer.
    Frame(Bytes),
    /// Nothing arrived in time: the peer is slow, or the frames were lost.
    TimedOut,
    /// The connection is unusable (EOF, desync, i/o error).
    Broken,
}

/// A transport between one collector and its serving coordinator.
pub trait Link {
    /// Open a connection if none is open. An error is final: the link
    /// has already retried within its own budget.
    fn connect(&mut self) -> Result<(), TransportError>;
    /// Write one frame; `false` means the connection broke.
    fn send(&mut self, frame: &Bytes) -> bool;
    /// The next frame from the peer.
    fn recv(&mut self) -> Recv;
    /// Drop the connection; the next [`Link::connect`] opens a new one.
    fn reset(&mut self);
    /// Wait before retry number `retry` (1-based; the wait doubles).
    fn backoff(&mut self, retry: u32);
}

/// A sender that can re-ship its whole state as one cumulative batch.
pub(crate) trait ResyncSource {
    /// Whether to resync even though nobody asked (a site restored from
    /// a checkpoint cannot know whether its last cut was delivered).
    fn must_resync(&self) -> bool {
        false
    }
    /// The epoch and frames of a cumulative resync batch.
    fn resync_batch(&mut self) -> Result<(Epoch, Vec<Bytes>), WireError>;
}

impl ResyncSource for Site {
    fn must_resync(&self) -> bool {
        self.recovering()
    }

    fn resync_batch(&mut self) -> Result<(Epoch, Vec<Bytes>), WireError> {
        let frames = self.resync_frames()?;
        Ok((self.epoch(), frames))
    }
}

/// What one [`Collector::collect`] run did.
#[derive(Debug, Clone)]
pub struct CollectionReport {
    /// The epoch that was cut and shipped.
    pub epoch: Epoch,
    /// Batches written: the cut, each resync, and every retransmission
    /// (1 = delivered on the first try).
    pub attempts: u32,
    /// Frames written, retransmissions included.
    pub transmissions: u64,
    /// Cumulative resyncs shipped.
    pub resyncs: u32,
    /// The site's sealed post-cut checkpoint — persist this before
    /// acknowledging the epoch upstream, and feed it to
    /// [`Site::restore_from_bytes`] after a crash.
    pub checkpoint: Vec<u8>,
}

/// One unacknowledged epoch batch.
#[derive(Debug)]
struct PendingEpoch {
    epoch: Epoch,
    frames: Vec<Bytes>,
    /// Transmissions so far.
    attempts: u32,
}

/// One decoded event from the link, for the retry loop.
enum Event {
    Ack(AckMessage),
    TimedOut,
    Broken,
}

/// The collection client: credit window, acks, bounded retry and resync
/// over any [`Link`].
#[derive(Debug)]
pub struct Collector<L> {
    link: L,
    opts: TransportOptions,
    metrics: Arc<TransportMetrics>,
    pending: VecDeque<PendingEpoch>,
    needs_resync: bool,
    /// Batches and frames written over the collector's life.
    batches: u64,
    frames: u64,
}

impl<L: Link> Collector<L> {
    /// A collector over `link`.
    pub(crate) fn with_link(
        link: L,
        opts: TransportOptions,
        metrics: Arc<TransportMetrics>,
    ) -> Self {
        Collector {
            link,
            opts,
            metrics,
            pending: VecDeque::new(),
            needs_resync: false,
            batches: 0,
            frames: 0,
        }
    }

    /// The transport.
    pub fn link(&self) -> &L {
        &self.link
    }

    /// Epochs currently in flight (unacknowledged).
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Write one batch; `Ok(false)` means the connection broke mid-write
    /// and was reset.
    fn write(&mut self, frames: &[Bytes]) -> Result<bool, TransportError> {
        self.link.connect()?;
        self.batches += 1;
        for frame in frames {
            if !self.link.send(frame) {
                self.link.reset();
                return Ok(false);
            }
            self.frames += 1;
            self.metrics.frames_out.inc();
            self.metrics.bytes_out.add(frame.len() as u64);
        }
        Ok(true)
    }

    /// Retransmit the pending batch of `only`, or every pending batch in
    /// epoch order. Each transmission is charged to its epoch; an epoch
    /// out of attempts fails the collector. A connection that breaks
    /// mid-way loses everything in flight, so the retry resends it all.
    fn resend(&mut self, mut only: Option<Epoch>) -> Result<(), TransportError> {
        let max = self.opts.max_attempts();
        'retry: loop {
            for i in 0..self.pending.len() {
                let Some(entry) = self.pending.get_mut(i) else {
                    break;
                };
                if only.is_some_and(|epoch| epoch != entry.epoch) {
                    continue;
                }
                if entry.attempts >= max {
                    return Err(TransportError::Undelivered {
                        missing: entry.frames.len(),
                        attempts: entry.attempts,
                    });
                }
                entry.attempts += 1;
                let frames = entry.frames.clone();
                self.metrics.retransmits.add(frames.len() as u64);
                if !self.write(&frames)? {
                    only = None;
                    continue 'retry;
                }
            }
            return Ok(());
        }
    }

    /// The next ack, timeout or breakage; other frame kinds are skipped.
    fn next_event(&mut self) -> Event {
        loop {
            let frame = match self.link.recv() {
                Recv::Frame(frame) => frame,
                Recv::TimedOut => return Event::TimedOut,
                Recv::Broken => return Event::Broken,
            };
            self.metrics.frames_in.inc();
            match decode_message(frame) {
                Ok((Message::Ack(ack), _)) => return Event::Ack(ack),
                Ok(_) => continue,
                Err(_) => {
                    self.metrics.desyncs.inc();
                    return Event::Broken;
                }
            }
        }
    }

    /// Block until at least one pending epoch resolves (acked, discarded
    /// by a resync demand, or failed for good).
    fn await_progress(&mut self) -> Result<(), TransportError> {
        while !self.pending.is_empty() {
            match self.next_event() {
                Event::Ack(ack) => {
                    let Some(pos) = self.pending.iter().position(|p| p.epoch == ack.epoch) else {
                        continue; // ack for an epoch we no longer track
                    };
                    if let Some(reason) = ack.rejected {
                        // No retransmission or resync can change this.
                        self.pending.clear();
                        return Err(TransportError::Rejected {
                            site: ack.site,
                            epoch: ack.epoch,
                            reason,
                        });
                    }
                    if ack.needs_resync {
                        // Everything in flight is superseded by the
                        // cumulative resync the caller must now ship.
                        self.pending.clear();
                        self.needs_resync = true;
                        return Ok(());
                    }
                    if ack.complete && !ack.quarantined {
                        self.pending.remove(pos);
                        return Ok(());
                    }
                    // Incomplete (frames lost in flight) or quarantined:
                    // back off if told to, then retransmit that batch.
                    if ack.quarantined {
                        let retry = self.pending.get(pos).map_or(1, |p| p.attempts);
                        self.metrics.backoff_sleeps.inc();
                        self.link.backoff(retry);
                    }
                    self.resend(Some(ack.epoch))?;
                }
                Event::TimedOut => {
                    self.metrics.timeouts.inc();
                    self.metrics.backoff_sleeps.inc();
                    self.link.backoff(1);
                    self.link.reset();
                    self.resend(None)?;
                }
                Event::Broken => {
                    self.link.reset();
                    self.resend(None)?;
                }
            }
        }
        Ok(())
    }

    /// Enqueue one epoch's frames, waiting for credit if the window is
    /// full, then transmit them.
    pub fn ship(&mut self, epoch: Epoch, frames: Vec<Bytes>) -> Result<(), TransportError> {
        while self.pending.len() >= self.opts.credit_window() {
            self.metrics.backpressure_stalls.inc();
            self.await_progress()?;
            if self.needs_resync {
                // The window drained by discard; the caller must resync
                // before this epoch can meaningfully ship — but the
                // frames are not lost: they stay pending and ride behind
                // the resync.
                break;
            }
        }
        self.pending.push_back(PendingEpoch {
            epoch,
            frames: frames.clone(),
            attempts: 1,
        });
        if !self.write(&frames)? {
            self.resend(None)?;
        }
        Ok(())
    }

    /// Drain every pending ack. Returns [`TransportError::ResyncRequired`]
    /// (once, clearing the flag) if the peer demanded a cumulative
    /// resync; ship [`Site::resync_frames`] and flush again.
    pub fn flush(&mut self) -> Result<(), TransportError> {
        while !self.pending.is_empty() && !self.needs_resync {
            self.await_progress()?;
        }
        if self.needs_resync {
            self.needs_resync = false;
            return Err(TransportError::ResyncRequired);
        }
        Ok(())
    }

    /// Ship one epoch batch and flush it, answering every resync demand
    /// (and a `source` that must resync anyway) with `source`'s
    /// cumulative batch, at most `max_attempts` times. Returns the number
    /// of resyncs shipped.
    pub(crate) fn deliver(
        &mut self,
        epoch: Epoch,
        frames: Vec<Bytes>,
        source: &mut impl ResyncSource,
    ) -> Result<u32, TransportError> {
        self.ship(epoch, frames)?;
        let mut resyncs = 0u32;
        loop {
            let demand = match self.flush() {
                Ok(()) => source.must_resync(),
                Err(TransportError::ResyncRequired) => true,
                Err(e) => return Err(e),
            };
            if !demand {
                return Ok(resyncs);
            }
            resyncs += 1;
            if resyncs > self.opts.max_attempts() {
                return Err(TransportError::Undelivered {
                    missing: 0,
                    attempts: resyncs,
                });
            }
            let (epoch, frames) = source.resync_batch()?;
            self.ship(epoch, frames)?;
        }
    }

    /// Run one full collection cycle for `site`: cut the next epoch,
    /// ship it, drain its acks, answer resync demands (and a site
    /// restored from a checkpoint) with cumulative resyncs, and hand back
    /// the site's sealed checkpoint. Records the cycle in the collector's
    /// [`TransportMetrics`].
    ///
    /// The coordinator keeps answering queries throughout — a failed
    /// collection leaves it serving the last consistent state.
    pub fn collect(&mut self, site: &mut Site) -> Result<CollectionReport, TransportError> {
        let trace = site.trace().clone();
        let mut span = trace.span("collect.epoch");
        if span.is_recording() {
            span.track(format!("site-{}", site.id()));
        }
        let (batches, frames) = (self.batches, self.frames);
        let result = site
            .cut_epoch()
            .map_err(TransportError::from)
            .and_then(|cut| {
                let resyncs = self.deliver(cut.epoch, cut.frames, site)?;
                Ok(CollectionReport {
                    epoch: cut.epoch,
                    attempts: u32::try_from(self.batches - batches).unwrap_or(u32::MAX),
                    transmissions: self.frames - frames,
                    resyncs,
                    checkpoint: cut.checkpoint,
                })
            });
        match &result {
            Ok(report) => {
                self.metrics.record_collection(report);
                if span.is_recording() {
                    span.detail(format!(
                        "epoch={} attempts={} resyncs={}",
                        report.epoch, report.attempts, report.resyncs
                    ));
                }
            }
            Err(_) => self.metrics.collection_failures.inc(),
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::EpochCommit;
    use crate::transport::Rejection;
    use crate::wire::{decode_payload, encode_frame, FrameKind};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// A socketless peer. Every batch is one `Commit` frame; replies come
    /// from a script of `(kind, pick)` steps — kind 0..=4 is an ack
    /// (complete, incomplete, quarantined, needs-resync, fatal) for the
    /// `pick`-th epoch ever sent, 5 a timeout, 6 a broken connection —
    /// and then time out forever. It mirrors the collector's pending set
    /// from the acks it hands out and logs every protocol violation.
    #[derive(Debug, Default)]
    struct ScriptedLink {
        script: VecDeque<(u8, usize)>,
        /// Every batch sent, by epoch.
        sent: Vec<Epoch>,
        /// Sent epochs not yet resolved by a complete, resync or fatal ack.
        live: Vec<Epoch>,
        /// Epochs a resync demand or fatal verdict discarded.
        discarded: Vec<Epoch>,
        fatal: bool,
        violations: Vec<String>,
    }

    impl Link for ScriptedLink {
        fn connect(&mut self) -> Result<(), TransportError> {
            Ok(())
        }

        fn send(&mut self, frame: &Bytes) -> bool {
            let (_, commit): (_, EpochCommit) = decode_payload(frame.clone()).unwrap();
            let epoch = commit.epoch;
            if self.fatal || self.discarded.contains(&epoch) {
                self.violations
                    .push(format!("epoch {epoch} sent after its verdict"));
            }
            if !self.sent.contains(&epoch) {
                self.live.push(epoch);
            }
            self.sent.push(epoch);
            true
        }

        fn recv(&mut self) -> Recv {
            let mut epochs = self.sent.clone();
            epochs.sort_unstable();
            epochs.dedup();
            let Some((kind, pick)) = self.script.pop_front() else {
                return Recv::TimedOut;
            };
            let Some(&epoch) = epochs.get(pick % epochs.len().max(1)) else {
                return Recv::TimedOut;
            };
            let rejected = (kind == 4).then_some(Rejection::CoinMismatch);
            let ack = AckMessage {
                site: 1,
                epoch,
                complete: kind == 0,
                needs_resync: kind == 3,
                quarantined: kind == 2,
                rejected,
            };
            match kind {
                5 => return Recv::TimedOut,
                6 => return Recv::Broken,
                _ => {}
            }
            // Only an ack for a live epoch moves the collector.
            if let Some(pos) = self.live.iter().position(|&e| e == epoch) {
                if kind == 3 || kind == 4 {
                    self.fatal |= kind == 4;
                    self.discarded.append(&mut self.live);
                } else if kind == 0 {
                    self.live.remove(pos);
                }
            }
            Recv::Frame(encode_frame(FrameKind::Ack, &ack).unwrap())
        }

        fn reset(&mut self) {}

        fn backoff(&mut self, _retry: u32) {}
    }

    /// Only the collector's own verdicts may come out of ship/flush.
    fn typed(result: &Result<(), TransportError>, max_attempts: u32) -> Result<(), TestCaseError> {
        match result {
            Ok(()) | Err(TransportError::ResyncRequired | TransportError::Rejected { .. }) => {
                Ok(())
            }
            Err(TransportError::Undelivered { attempts, .. }) if *attempts <= max_attempts => {
                Ok(())
            }
            Err(other) => Err(TestCaseError::fail(format!("untyped failure: {other}"))),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Pending epochs never exceed the credit window; every epoch is
        /// sent at most `max_attempts` times and ends acked, discarded by
        /// a resync demand, or in a typed error; a resync demand discards
        /// everything pending; a fatal verdict stops all transmission.
        #[test]
        fn collector_keeps_window_budget_resync_and_fatal_rules(
            script in vec((0u8..7, 0usize..8), 0..48),
            window in 1usize..4,
            max_attempts in 1u32..6,
            epochs in 1u64..7,
        ) {
            let opts = TransportOptions::builder()
                .credit_window(window)
                .max_attempts(max_attempts)
                .build()
                .unwrap();
            let link = ScriptedLink { script: script.into(), ..ScriptedLink::default() };
            let mut collector = Collector::with_link(link, opts, Arc::new(TransportMetrics::new()));
            let mut result = Ok(());
            for epoch in 1..=epochs {
                let commit = EpochCommit { site: 1, epoch, deltas: 0 };
                result = collector.ship(epoch, vec![encode_frame(FrameKind::Commit, &commit).unwrap()]);
                prop_assert!(collector.in_flight() <= window, "credit window overrun");
                if result.is_err() {
                    break;
                }
                prop_assert_eq!(collector.in_flight(), collector.link().live.len());
            }
            if result.is_ok() {
                result = collector.flush();
                if matches!(result, Ok(()) | Err(TransportError::ResyncRequired)) {
                    // Acked, or discarded (later epochs ride behind the resync).
                    prop_assert_eq!(collector.in_flight(), collector.link().live.len());
                }
                if result.is_ok() {
                    prop_assert_eq!(collector.in_flight(), 0);
                }
            }
            typed(&result, max_attempts)?;
            let link = collector.link();
            prop_assert!(link.violations.is_empty(), "{:?}", link.violations);
            for epoch in 1..=epochs {
                let sends = link.sent.iter().filter(|&&e| e == epoch).count();
                prop_assert!(sends <= max_attempts as usize, "epoch {} sent {} times", epoch, sends);
            }
        }
    }
}

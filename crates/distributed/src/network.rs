//! An in-memory fault-injecting network and the in-process collection
//! link.
//!
//! The paper's deployment ships synopses from sites to a central
//! processor "periodically" over a real network; frames can be dropped,
//! corrupted, duplicated or reordered in flight. Because the coordinator
//! *merges* delta frames (cell-wise addition), raw retransmission would
//! double-count — so collection runs one protocol whatever the transport:
//! epoch batches closed by a `Commit`, honest per-epoch acks from a
//! [`CoordinatorHandler`], and the retry/resync client in
//! [`crate::collector`].
//!
//! [`LossyLink`] injects seeded faults into a frame sequence; the TCP
//! fault proxy ([`crate::transport::FaultyListener`]) and [`MemLink`] both
//! use it. [`MemLink`] is the in-process transport: frames cross a
//! `LossyLink` straight into a [`CoordinatorHandler`] — the handler a TCP
//! server runs — and its acks come back. A [`MemCollector`] over it is a
//! deterministic, sleep-free stand-in for a [`crate::TcpCollector`].

use crate::collector::{Collector, Link, Recv};
use crate::coordinator::Coordinator;
use crate::metrics::TransportMetrics;
use crate::transport::{
    CoordinatorHandler, FrameHandler, ServerRole, TransportError, TransportOptions,
};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Fault model for a simulated link.
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a surviving frame has one byte corrupted.
    pub corrupt: f64,
    /// Probability a surviving frame is delivered twice.
    pub duplicate: f64,
    /// Shuffle delivery order within a round.
    pub reorder: bool,
    /// Probability a surviving frame loses its tail (cut at a random
    /// point, at least one byte kept).
    pub truncate: f64,
    /// Probability a surviving frame is held back one delivery round.
    pub delay: f64,
    /// When nonzero, reordering shuffles within consecutive bursts of
    /// this many frames instead of the whole round — models switch-queue
    /// jitter rather than wholesale scrambling. Only meaningful with
    /// `reorder` set.
    pub reorder_burst: u32,
    /// When nonzero, the link blacks out the first [`partition_for`]
    /// frames of every `partition_every`-frame window (counted over
    /// frames offered for transmission). Models a recurring partition.
    ///
    /// [`partition_for`]: FaultSpec::partition_for
    pub partition_every: u64,
    /// Length of each partition window, in frames. A value ≥
    /// `partition_every` is a permanent blackout.
    pub partition_for: u64,
}

/// A [`FaultSpec`] field that is not a probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpecError {
    /// Which probability field is out of range.
    pub field: &'static str,
    /// The offending value.
    pub value: f64,
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fault probability `{}` = {} outside [0, 1]",
            self.field, self.value
        )
    }
}

impl std::error::Error for FaultSpecError {}

impl FaultSpec {
    /// A perfect link.
    pub fn reliable() -> Self {
        FaultSpec {
            drop: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            reorder: false,
            truncate: 0.0,
            delay: 0.0,
            reorder_burst: 0,
            partition_every: 0,
            partition_for: 0,
        }
    }

    /// A nasty link: 30% drops, 10% corruption, 10% duplication,
    /// reordering, 5% truncation, 10% one-round delays.
    pub fn nasty() -> Self {
        FaultSpec {
            drop: 0.3,
            corrupt: 0.1,
            duplicate: 0.1,
            reorder: true,
            truncate: 0.05,
            delay: 0.1,
            ..FaultSpec::reliable()
        }
    }

    /// Check every probability is in `[0, 1]` (and not NaN).
    pub fn validate(&self) -> Result<(), FaultSpecError> {
        for (field, value) in [
            ("drop", self.drop),
            ("corrupt", self.corrupt),
            ("duplicate", self.duplicate),
            ("truncate", self.truncate),
            ("delay", self.delay),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(FaultSpecError { field, value });
            }
        }
        Ok(())
    }
}

/// The fault seed for soak/acceptance tests: `SETSTREAM_FAULT_SEED` if
/// set and parseable, else `default`. Pair with [`SeedEcho`] so a red run
/// prints the seed it used and replays deterministically.
pub fn fault_seed(default: u64) -> u64 {
    match std::env::var("SETSTREAM_FAULT_SEED") {
        Ok(v) => v.trim().parse().unwrap_or(default),
        Err(_) => default,
    }
}

/// Drop guard that prints `SETSTREAM_FAULT_SEED=<seed>` to stderr when
/// the owning thread is panicking — i.e. exactly when a seeded test goes
/// red — so the failure can be replayed with
/// `SETSTREAM_FAULT_SEED=<seed> cargo test ...`.
#[derive(Debug)]
pub struct SeedEcho {
    seed: u64,
}

impl SeedEcho {
    /// Guard the current scope with `seed`.
    pub fn new(seed: u64) -> Self {
        SeedEcho { seed }
    }

    /// The seed this guard will echo.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl Drop for SeedEcho {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "test failed under fault seed — replay with SETSTREAM_FAULT_SEED={}",
                self.seed
            );
        }
    }
}

/// A seeded, fault-injecting unidirectional link.
#[derive(Debug)]
pub struct LossyLink {
    spec: FaultSpec,
    rng: StdRng,
    in_flight: Vec<Bytes>,
    delayed: Vec<Bytes>,
    /// Total frames accepted for transmission.
    pub sent: u64,
    /// Frames dropped by the link (including partition blackouts).
    pub dropped: u64,
    /// Frames corrupted by the link.
    pub corrupted: u64,
    /// Frames cut short by the link.
    pub truncated: u64,
}

impl LossyLink {
    /// A link with the given faults and deterministic seed.
    pub fn new(spec: FaultSpec, seed: u64) -> Result<Self, FaultSpecError> {
        spec.validate()?;
        Ok(LossyLink {
            spec,
            rng: StdRng::seed_from_u64(seed),
            in_flight: Vec::new(),
            delayed: Vec::new(),
            sent: 0,
            dropped: 0,
            corrupted: 0,
            truncated: 0,
        })
    }

    /// Offer a frame for transmission.
    ///
    /// Extra fault draws (`truncate`, `delay`) only consume RNG state
    /// when their probability is nonzero, so seeded schedules for the
    /// original drop/corrupt/duplicate specs are unchanged.
    pub fn send(&mut self, frame: Bytes) {
        self.sent += 1;
        if self.spec.partition_every > 0
            && (self.sent - 1) % self.spec.partition_every < self.spec.partition_for
        {
            self.dropped += 1;
            return;
        }
        if self.rng.gen_bool(self.spec.drop) {
            self.dropped += 1;
            return;
        }
        let frame = if self.spec.truncate > 0.0 && self.rng.gen_bool(self.spec.truncate) {
            self.truncated += 1;
            let mut bytes = frame.to_vec();
            if bytes.len() > 1 {
                bytes.truncate(self.rng.gen_range(1..bytes.len()));
            }
            Bytes::from(bytes)
        } else {
            frame
        };
        let frame = if self.rng.gen_bool(self.spec.corrupt) {
            self.corrupted += 1;
            let mut bytes = frame.to_vec();
            if !bytes.is_empty() {
                let i = self.rng.gen_range(0..bytes.len());
                // analyze: allow(indexing) — `i` drawn from `0..bytes.len()` on a non-empty buffer
                bytes[i] ^= 1 << self.rng.gen_range(0..8);
            }
            Bytes::from(bytes)
        } else {
            frame
        };
        if self.rng.gen_bool(self.spec.duplicate) {
            self.in_flight.push(frame.clone());
        }
        if self.spec.delay > 0.0 && self.rng.gen_bool(self.spec.delay) {
            self.delayed.push(frame);
        } else {
            self.in_flight.push(frame);
        }
    }

    /// Drain everything currently in flight (one delivery round). Frames
    /// the `delay` fault held back join the *next* round's traffic.
    pub fn drain(&mut self) -> Vec<Bytes> {
        if self.spec.reorder {
            if self.spec.reorder_burst > 1 {
                // Shuffle within consecutive bursts only.
                let burst = self.spec.reorder_burst as usize;
                for chunk in self.in_flight.chunks_mut(burst) {
                    for i in (1..chunk.len()).rev() {
                        let j = self.rng.gen_range(0..=i);
                        chunk.swap(i, j);
                    }
                }
            } else {
                // Fisher–Yates with the link's own RNG.
                for i in (1..self.in_flight.len()).rev() {
                    let j = self.rng.gen_range(0..=i);
                    self.in_flight.swap(i, j);
                }
            }
        }
        let out = std::mem::take(&mut self.in_flight);
        self.in_flight = std::mem::take(&mut self.delayed);
        out
    }
}

/// The in-process [`Link`]: frames cross a seeded [`LossyLink`] into a
/// [`CoordinatorHandler`], and the handler's acks come straight back
/// (acks are reliable, as through the TCP fault proxy).
///
/// One [`LossyLink::drain`] is one delivery round. A read with no ack
/// queued runs a round and times out if it produced none; a backoff runs
/// rounds instead of sleeping, so collection over a `MemLink` is fully
/// determined by the fault seed. Frames still in the link (delayed ones)
/// surface in later rounds, where the coordinator's watermarks refuse
/// them like any duplicate.
pub struct MemLink {
    faults: LossyLink,
    handler: CoordinatorHandler,
    acks: VecDeque<Bytes>,
}

impl MemLink {
    /// A link into `coordinator` through `faults`. The coordinator side
    /// keeps its own transport counters: it is not a server, so it does
    /// not add to the collector's.
    fn new(coordinator: Arc<Coordinator>, faults: LossyLink, opts: &TransportOptions) -> Self {
        let metrics = Arc::new(TransportMetrics::new());
        MemLink {
            faults,
            handler: CoordinatorHandler::new(coordinator, metrics, ServerRole::Coordinator, opts),
            acks: VecDeque::new(),
        }
    }

    /// The fault injector and its tallies.
    pub fn faults(&self) -> &LossyLink {
        &self.faults
    }

    /// Deliver one round of traffic.
    fn round(&mut self) {
        for frame in self.faults.drain() {
            self.acks.extend(self.handler.on_frame(0, frame));
        }
    }
}

impl fmt::Debug for MemLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemLink")
            .field("faults", &self.faults)
            .field("acks", &self.acks.len())
            .finish()
    }
}

impl Link for MemLink {
    fn connect(&mut self) -> Result<(), TransportError> {
        Ok(())
    }

    fn send(&mut self, frame: &Bytes) -> bool {
        self.faults.send(frame.clone());
        true
    }

    fn recv(&mut self) -> Recv {
        if self.acks.is_empty() {
            self.round();
        }
        self.acks.pop_front().map_or(Recv::TimedOut, Recv::Frame)
    }

    fn reset(&mut self) {}

    fn backoff(&mut self, retry: u32) {
        for _ in 0..1u32 << retry.saturating_sub(1).min(10) {
            self.round();
        }
    }
}

/// In-process collection client: a [`Collector`] over a [`MemLink`].
pub type MemCollector = Collector<MemLink>;

impl Collector<MemLink> {
    /// A collector shipping into `coordinator` through `faults`.
    pub fn new(
        coordinator: Arc<Coordinator>,
        faults: LossyLink,
        opts: TransportOptions,
        metrics: Arc<TransportMetrics>,
    ) -> Self {
        Collector::with_link(MemLink::new(coordinator, faults, &opts), opts, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Site;
    use setstream_core::SketchFamily;
    use setstream_expr::SetExpr;
    use setstream_stream::{StreamId, Update};

    fn family() -> SketchFamily {
        SketchFamily::builder()
            .copies(32)
            .second_level(8)
            .seed(5)
            .build()
    }

    /// An in-process collector into `coord` through `faults`, with its
    /// metrics.
    fn mem_collector(
        coord: &Arc<Coordinator>,
        faults: FaultSpec,
        seed: u64,
        max_attempts: u32,
    ) -> (MemCollector, Arc<TransportMetrics>) {
        let opts = TransportOptions::builder()
            .max_attempts(max_attempts)
            .build()
            .unwrap();
        let metrics = Arc::new(TransportMetrics::new());
        let link = LossyLink::new(faults, seed).unwrap();
        let collector = MemCollector::new(Arc::clone(coord), link, opts, Arc::clone(&metrics));
        (collector, metrics)
    }

    /// Deliver one epoch batch (Hello, a delta per stream, Commit) of a
    /// site that saw 2000 inserts over three streams through `faults`,
    /// and check the coordinator ends exactly where a perfect link
    /// leaves it, despite duplicates, corruption and reordering.
    fn converges(
        faults: FaultSpec,
        seed: u64,
        max_attempts: u32,
    ) -> (Vec<Bytes>, MemCollector, Arc<TransportMetrics>) {
        let frames = site_frames();
        let clean = Coordinator::new(family());
        for f in &frames {
            clean.ingest_frame(f).unwrap();
        }
        let coord = Arc::new(Coordinator::new(family()));
        let (mut collector, metrics) = mem_collector(&coord, faults, seed, max_attempts);
        deliver(&mut collector, &frames).unwrap();
        assert_eq!(collector.in_flight(), 0, "every frame acknowledged");
        for stream in clean.streams() {
            let expr = SetExpr::stream(stream.0);
            assert_eq!(
                clean.query(&expr).unwrap().estimate.value,
                coord.query(&expr).unwrap().estimate.value,
                "stream {stream}"
            );
        }
        (frames, collector, metrics)
    }

    fn site_frames() -> Vec<Bytes> {
        let mut site = Site::new(1, family());
        for e in 0..2000u64 {
            site.observe(&Update::insert(StreamId((e % 3) as u32), e, 1));
        }
        site.cut_epoch().unwrap().frames
    }

    /// Ship `frames` as one epoch and wait for its ack.
    fn deliver(collector: &mut MemCollector, frames: &[Bytes]) -> Result<(), TransportError> {
        collector.ship(1, frames.to_vec())?;
        collector.flush()
    }

    fn assert_matches_site(coord: &Coordinator, site: &Site) {
        let merged = coord.merged_synopsis(StreamId(0)).unwrap();
        for (m, s) in merged
            .sketches()
            .iter()
            .zip(site.synopsis(StreamId(0)).unwrap().sketches())
        {
            assert_eq!(m.counters(), s.counters());
        }
    }

    #[test]
    fn reliable_link_delivers_in_one_round() {
        let (frames, _, metrics) = converges(FaultSpec::reliable(), 1, 3);
        assert_eq!(metrics.retransmits.get(), 0);
        assert_eq!(metrics.frames_out.get() as usize, frames.len());
    }

    #[test]
    fn nasty_link_converges_to_exact_state() {
        let (_, collector, metrics) = converges(FaultSpec::nasty(), 99, 64);
        assert!(
            metrics.retransmits.get() > 0,
            "faults should force retransmission"
        );
        let link = collector.link().faults();
        assert!(link.dropped > 0 || link.corrupted > 0);
    }

    #[test]
    fn total_blackout_reports_incomplete() {
        let frames = site_frames();
        let coord = Arc::new(Coordinator::new(family()));
        let blackout = FaultSpec {
            drop: 1.0,
            ..FaultSpec::reliable()
        };
        let (mut collector, _) = mem_collector(&coord, blackout, 3, 5);
        match deliver(&mut collector, &frames) {
            Err(TransportError::Undelivered { missing, attempts }) => {
                assert_eq!(missing, frames.len());
                assert_eq!(attempts, 5);
            }
            other => panic!("expected Undelivered, got {other:?}"),
        }
    }

    #[test]
    fn coin_mismatch_is_fatal_not_retried() {
        let other = SketchFamily::builder()
            .copies(32)
            .second_level(8)
            .seed(6)
            .build();
        let mut site = Site::new(2, other);
        site.observe(&Update::insert(StreamId(0), 1, 1));
        let coord = Arc::new(Coordinator::new(family()));
        let (mut collector, metrics) = mem_collector(&coord, FaultSpec::reliable(), 4, 10);
        match collector.collect(&mut site) {
            Err(TransportError::Rejected { .. }) => {}
            other => panic!("expected Rejected, got {other:?}"),
        }
        assert_eq!(metrics.retransmits.get(), 0);
    }

    /// A CRC-valid frame whose payload does not decode is a wire failure
    /// of the site its link is bound to, whichever path it takes.
    #[test]
    fn undecodable_payloads_are_charged_to_the_bound_site() {
        use crate::site::EpochCommit;
        use crate::wire::{encode_frame, FrameKind};

        let site = Site::new(5, family());
        let mut frames = vec![site.hello_frame().unwrap()];
        frames.extend((0..20).map(|_| encode_frame(FrameKind::Delta, &0u8).unwrap()));
        let commit = EpochCommit {
            site: 5,
            epoch: 1,
            deltas: 20,
        };
        frames.push(encode_frame(FrameKind::Commit, &commit).unwrap());

        let direct = Coordinator::new(family());
        for f in &frames {
            let _ = direct.ingest_frame_from(5, f);
        }
        let coord = Arc::new(Coordinator::new(family()));
        let (mut collector, _) = mem_collector(&coord, FaultSpec::reliable(), 0, 1);
        collector.ship(1, frames).unwrap();
        assert!(
            collector.flush().is_err(),
            "a quarantined batch is undelivered"
        );

        for c in [&direct, &*coord] {
            let status = c.site_status(5).unwrap();
            assert!(status.quarantined, "{status:?}");
            assert_eq!(status.wire_failures, 8);
            assert_eq!(c.metrics().rejections_for("wire"), 8);
        }
    }

    #[test]
    fn link_stats_are_tracked() {
        let mut link = LossyLink::new(
            FaultSpec {
                drop: 0.5,
                ..FaultSpec::reliable()
            },
            7,
        )
        .unwrap();
        for _ in 0..1000 {
            link.send(Bytes::from_static(b"xyz"));
        }
        assert_eq!(link.sent, 1000);
        assert!(link.dropped > 400 && link.dropped < 600, "{}", link.dropped);
        assert_eq!(link.drain().len() as u64, 1000 - link.dropped);
        assert!(link.drain().is_empty(), "drain empties the link");
    }

    #[test]
    fn duplicates_do_not_double_merge() {
        let duplicating = FaultSpec {
            duplicate: 1.0,
            ..FaultSpec::reliable()
        };
        converges(duplicating, 11, 3);
    }

    #[test]
    fn partition_window_blackholes_in_cycles() {
        let mut link = LossyLink::new(
            FaultSpec {
                partition_every: 10,
                partition_for: 4,
                ..FaultSpec::reliable()
            },
            0,
        )
        .unwrap();
        for _ in 0..30 {
            link.send(Bytes::from_static(b"frame"));
        }
        // First 4 of every 10 frames vanish: 3 windows × 4 frames.
        assert_eq!(link.dropped, 12);
        assert_eq!(link.drain().len(), 18);
    }

    #[test]
    fn permanent_partition_recovers_after_spec_swap() {
        // partition_for >= partition_every is a total blackout; the soak
        // harness lifts a partition by rebuilding the link, which the
        // collection protocol must survive via retransmission.
        let frames = site_frames();
        let coord = Arc::new(Coordinator::new(family()));
        let dark = FaultSpec {
            partition_every: 1,
            partition_for: 1,
            ..FaultSpec::reliable()
        };
        let (mut collector, _) = mem_collector(&coord, dark, 0, 3);
        assert!(deliver(&mut collector, &frames).is_err());
        let (mut collector, _) = mem_collector(&coord, FaultSpec::reliable(), 0, 3);
        deliver(&mut collector, &frames).unwrap();
    }

    #[test]
    fn delayed_frames_arrive_next_round() {
        let mut link = LossyLink::new(
            FaultSpec {
                delay: 1.0,
                ..FaultSpec::reliable()
            },
            0,
        )
        .unwrap();
        link.send(Bytes::from_static(b"late"));
        assert!(link.drain().is_empty(), "delayed out of this round");
        assert_eq!(link.drain().len(), 1, "and into the next");
    }

    #[test]
    fn truncation_is_survivable_loss() {
        let truncating = FaultSpec {
            truncate: 0.5,
            ..FaultSpec::reliable()
        };
        let (_, collector, _) = converges(truncating, 13, 64);
        assert!(
            collector.link().faults().truncated > 0,
            "seed must exercise truncation"
        );
    }

    #[test]
    fn reorder_burst_shuffles_within_bursts_only() {
        let mut link = LossyLink::new(
            FaultSpec {
                reorder: true,
                reorder_burst: 4,
                ..FaultSpec::reliable()
            },
            3,
        )
        .unwrap();
        for i in 0..16u8 {
            link.send(Bytes::from(vec![i]));
        }
        for (burst, chunk) in link.drain().chunks(4).enumerate() {
            for b in chunk {
                let v = b[0] as usize;
                assert!(
                    v / 4 == burst,
                    "frame {v} escaped burst {burst} — burst reorder must be local"
                );
            }
        }
    }

    #[test]
    fn fault_seed_prefers_env_and_seed_echo_is_quiet_on_success() {
        // No env override in the test environment → default wins. (Tests
        // run in-process; we avoid mutating the process environment.)
        if std::env::var("SETSTREAM_FAULT_SEED").is_err() {
            assert_eq!(fault_seed(77), 77);
        }
        let echo = SeedEcho::new(42);
        assert_eq!(echo.seed(), 42);
        drop(echo); // not panicking → silent
    }

    #[test]
    fn invalid_fault_spec_is_a_typed_error() {
        let bad = FaultSpec {
            drop: 1.5,
            ..FaultSpec::reliable()
        };
        let err = bad.validate().unwrap_err();
        assert_eq!(err.field, "drop");
        assert_eq!(err.value, 1.5);
        assert!(LossyLink::new(bad, 0).is_err());
        let nan = FaultSpec {
            corrupt: f64::NAN,
            ..FaultSpec::reliable()
        };
        assert_eq!(nan.validate().unwrap_err().field, "corrupt");
    }

    #[test]
    fn collect_over_nasty_link_matches_ground_truth() {
        let fam = family();
        let mut site = Site::new(1, fam);
        let coord = Arc::new(Coordinator::new(fam));
        let (mut collector, _) = mem_collector(&coord, FaultSpec::nasty(), 17, 64);
        for epoch in 0..3 {
            for e in 0..400u64 {
                site.observe(&Update::insert(StreamId(0), epoch * 1000 + e, 1));
            }
            let report = collector.collect(&mut site).unwrap();
            assert_eq!(report.epoch, epoch + 1);
            assert!(!report.checkpoint.is_empty());
        }
        assert_matches_site(&coord, &site);
    }

    #[test]
    fn collect_survives_quarantine_with_backoff() {
        let fam = family();
        let mut site = Site::new(3, fam);
        // Quarantine trips on the very first corrupt frame.
        let coord = Arc::new(Coordinator::new(fam).with_quarantine_after(1));
        let corrupting = FaultSpec {
            corrupt: 0.4,
            ..FaultSpec::reliable()
        };
        let (mut collector, _) = mem_collector(&coord, corrupting, 23, 16);
        for e in 0..300u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        let report = collector.collect(&mut site).unwrap();
        assert!(
            report.attempts > 1,
            "corruption should have tripped quarantine"
        );
        assert!(!coord.site_status(3).unwrap().quarantined);
        assert_matches_site(&coord, &site);
    }

    #[test]
    fn collect_blackout_is_undelivered() {
        let fam = family();
        let mut site = Site::new(1, fam);
        site.observe(&Update::insert(StreamId(0), 1, 1));
        let coord = Arc::new(Coordinator::new(fam));
        let blackout = FaultSpec {
            drop: 1.0,
            ..FaultSpec::reliable()
        };
        let (mut collector, _) = mem_collector(&coord, blackout, 0, 2);
        match collector.collect(&mut site) {
            Err(TransportError::Undelivered {
                missing,
                attempts: 2,
            }) => {
                assert!(missing > 0);
            }
            other => panic!("expected Undelivered, got {other:?}"),
        }
    }

    #[test]
    fn crash_restart_resyncs_and_converges() {
        let fam = family();
        let coord = Arc::new(Coordinator::new(fam));
        let (mut collector, _) = mem_collector(&coord, FaultSpec::nasty(), 31, 64);

        let mut site = Site::new(9, fam);
        for e in 0..500u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        let r1 = collector.collect(&mut site).unwrap();

        // Epoch 2 is cut and WAL'd but never shipped — then the site dies.
        for e in 500..700u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        let lost_cut = site.cut_epoch().unwrap();
        drop(site);
        let _ = r1;

        // Restart from the epoch-2 WAL: the first delta after restart
        // chains from epoch 2, the coordinator is at 1 → gap → resync.
        let mut site = Site::restore_from_bytes(&lost_cut.checkpoint).unwrap();
        for e in 700..900u64 {
            site.observe(&Update::insert(StreamId(0), e, 1));
        }
        let report = collector.collect(&mut site).unwrap();
        assert!(report.resyncs >= 1, "gap must force a resync");
        assert_matches_site(&coord, &site);
    }
}

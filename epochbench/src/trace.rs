//! In-memory spans recorded around each layer call, and the self-time
//! analysis over them.
//!
//! Depth 0 is the epoch cycle, depth 1 a call the generator thread makes
//! into a layer, depth 2 the root coordinator's busy time on its server
//! thread. A span's self time is its duration minus the part of it that
//! deeper spans cover; the part of a cycle no depth-1 span covers is
//! reported as uncovered.

use crate::json::Json;
use setstream_obs::trace::TraceEvent;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub epoch: u64,
    pub depth: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds since the run's origin.
pub fn since(origin: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(origin).as_nanos() as u64
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Per-layer totals over the traced epochs.
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// Layer name → (total duration, total self time), ns.
    pub layers: BTreeMap<&'static str, (u64, u64)>,
    pub cycle_ns: u64,
    pub uncovered_ns: u64,
    pub epochs: u64,
}

impl SelfTimes {
    /// Fold one traced epoch's spans in.
    pub fn add_epoch(&mut self, spans: &[Span]) {
        for cycle in spans.iter().filter(|s| s.depth == 0) {
            let mut calls: Vec<(u64, u64)> = spans
                .iter()
                .filter(|s| s.depth == 1)
                .map(|s| (s.start_ns, s.end_ns))
                .collect();
            self.cycle_ns += cycle.dur();
            self.uncovered_ns += cycle.dur() - covered(cycle.start_ns, cycle.end_ns, &mut calls);
            self.epochs += 1;
        }
        for span in spans.iter().filter(|s| s.depth > 0) {
            let mut deeper: Vec<(u64, u64)> = spans
                .iter()
                .filter(|s| s.depth > span.depth)
                .map(|s| (s.start_ns, s.end_ns))
                .collect();
            let own = span.dur() - covered(span.start_ns, span.end_ns, &mut deeper);
            let entry = self.layers.entry(span.name).or_default();
            entry.0 += span.dur();
            entry.1 += own;
        }
    }

    /// Mean self time per traced epoch of `layer`, in ms.
    pub fn self_ms(&self, layer: &str) -> f64 {
        let own = self.layers.get(layer).map_or(0, |&(_, own)| own);
        own as f64 / 1e6 / self.epochs.max(1) as f64
    }

    pub fn to_json(&self) -> Json {
        let per_epoch = |ns: u64| Json::from(ns as f64 / 1e6 / self.epochs.max(1) as f64);
        Json::obj([
            ("epochs", Json::from(self.epochs)),
            ("cycle_ms_per_epoch", per_epoch(self.cycle_ns)),
            ("uncovered_ms_per_epoch", per_epoch(self.uncovered_ns)),
            (
                "layers",
                Json::obj(self.layers.iter().map(|(&name, &(total, own))| {
                    (
                        name,
                        Json::obj([
                            ("total_ms_per_epoch", per_epoch(total)),
                            ("self_ms_per_epoch", per_epoch(own)),
                        ]),
                    )
                })),
            ),
        ])
    }
}

/// Chrome trace-event JSON of `spans` (load it in `about:tracing` or
/// Perfetto): the generator thread and the root server as two tracks.
pub fn chrome_json(spans: &[Span]) -> String {
    let events: Vec<TraceEvent> = spans
        .iter()
        .zip(1..)
        .map(|(s, id)| TraceEvent {
            id,
            trace_id: 0,
            parent_id: 0,
            name: s.name,
            detail: format!("epoch {}", s.epoch),
            track: if s.depth == 2 {
                "root server"
            } else {
                "generator"
            }
            .into(),
            start_ns: s.start_ns,
            duration_ns: s.dur(),
        })
        .collect();
    setstream_obs::chrome::render_events(&events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, depth: u8, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            epoch: 1,
            depth,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_deeper_spans_and_reports_the_gap() {
        let spans = [
            span("cycle", 0, 0, 100),
            span("wait", 1, 10, 60),
            span("root", 2, 20, 30),
            span("root", 2, 25, 40),
            span("publish", 1, 70, 90),
        ];
        let mut t = SelfTimes::default();
        t.add_epoch(&spans);
        assert_eq!(t.layers["wait"], (50, 30));
        assert_eq!(t.layers["root"], (25, 25));
        assert_eq!(t.uncovered_ns, 30);
    }
}

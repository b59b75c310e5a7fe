//! The paper-scale probe: one epoch at the §5.1 family (r=512, s=32)
//! through the same stack and cycle the workloads use. Its frames exceed
//! the wire's payload cap today, so the expected outcome is
//! `WireError::Oversize` from `Site::cut_epoch`; the row reports whatever
//! actually happens, and checks the root's state if the epoch does land.

use crate::cycle::run_epoch;
use crate::gate;
use crate::json::Json;
use crate::stack::Stack;
use crate::workload::{self, Generator, Spec};
use setstream_distributed::wire::WireError;
use std::time::Instant;

const UPDATES: usize = 1_000;

pub struct ProbeRow {
    pub json: Json,
    /// The epoch was collected but the root disagrees with the sites.
    pub wrong: bool,
}

fn spec() -> Spec {
    Spec {
        name: "paper_scale",
        relay: false,
        elements: workload::windows,
        streams: 2,
        touched: 2,
        updates_per_epoch: UPDATES,
        copies: 512,
        second_level: 32,
        queries: Vec::new(),
        query_reps: 0,
        subscriptions: Vec::new(),
        min_epochs: 1,
    }
}

/// Collect one epoch; the outcome name, its detail, and the time the
/// sites spent in `cut_epoch`.
fn attempt(spec: &Spec, seed: u64) -> Result<(&'static str, String, f64), String> {
    let origin = Instant::now();
    let input = Generator::new(spec, seed).next_epoch(true)?;
    let mut stack = Stack::build(spec, spec.family(seed), origin)?;
    let rec = run_epoch(&mut stack, &input, &[], 0, origin, true);
    let cut_ns: u64 = rec
        .spans
        .iter()
        .filter(|s| s.name == "site.cut")
        .map(|s| s.dur())
        .sum();
    let (outcome, detail) = match (&rec.cut_error, rec.failures.is_empty()) {
        (Some(e @ WireError::Oversize(_)), _) => ("oversize", format!("Site::cut_epoch: {e}")),
        (Some(e), _) => ("cut_error", format!("Site::cut_epoch: {e}")),
        (None, false) => ("transport_error", rec.failures.join("; ")),
        (None, true) => {
            let verdict = gate::check_synopses(&stack);
            if verdict.failures.is_empty() {
                ("collected", "root matches the sites".into())
            } else {
                ("mismatch", verdict.failures.join("; "))
            }
        }
    };
    stack.shutdown();
    Ok((outcome, detail, cut_ns as f64 / 1e6))
}

pub fn run(seed: u64) -> ProbeRow {
    let spec = spec();
    let (outcome, detail, cut_ms) =
        attempt(&spec, seed).unwrap_or_else(|e| ("setup_error", e, f64::NAN));
    ProbeRow {
        json: Json::obj([
            ("probe", Json::from(spec.name)),
            ("copies", Json::from(spec.copies)),
            ("second_level", Json::from(spec.second_level as u64)),
            ("updates", Json::from(spec.updates_per_epoch)),
            ("outcome", Json::from(outcome)),
            ("detail", Json::Str(detail)),
            ("cut_ms", Json::from(cut_ms)),
        ]),
        wrong: outcome == "mismatch",
    }
}

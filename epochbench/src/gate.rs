//! The correctness gate: checks outside the timed region that the system
//! computed what it should have.

use crate::stack::Stack;
use setstream_core::SketchVector;
use setstream_engine::ChangeEvent;
use setstream_expr::eval::exact_cardinality;
use setstream_expr::SetExpr;
use setstream_stream::StreamSet;
use std::collections::HashMap;

/// Checks made and mismatches found.
#[derive(Debug, Default)]
pub struct Verdict {
    pub checks: u64,
    pub failures: Vec<String>,
}

impl Verdict {
    fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(failure());
        }
    }

    pub fn absorb(&mut self, other: Verdict) {
        self.checks += other.checks;
        self.failures.extend(other.failures);
    }
}

/// Every change event must carry exactly the root's answer for its
/// subscription's expression.
pub fn check_events(stack: &Stack, events: &[ChangeEvent]) -> Verdict {
    let mut verdict = Verdict::default();
    let mut answers: HashMap<String, Result<f64, String>> = HashMap::new();
    for event in events {
        let Some(expr) = stack.subscriptions.get(&event.sub_id) else {
            verdict.check(false, || {
                format!("event for unknown subscription {:?}", event.sub_id)
            });
            continue;
        };
        let root = answers
            .entry(expr.to_string())
            .or_insert_with(|| {
                stack
                    .root
                    .query(expr)
                    .map(|a| a.estimate.value)
                    .map_err(|e| e.to_string())
            })
            .clone();
        verdict.check(
            matches!(root, Ok(v) if v.to_bits() == event.new.to_bits()),
            || {
                format!(
                    "subscription `{expr}` notified {} but the root answers {root:?}",
                    event.new
                )
            },
        );
    }
    verdict
}

/// Counters of every copy of `a` and `b` agree.
fn same_counters(a: &SketchVector, b: &SketchVector) -> bool {
    a.sketches().len() == b.sketches().len()
        && a.sketches()
            .iter()
            .zip(b.sketches())
            .all(|(x, y)| x.counters() == y.counters())
}

/// After the final cut, each stream's merged root synopsis must equal the
/// merge of the sites' live synopses, copy by copy.
pub fn check_synopses(stack: &Stack) -> Verdict {
    let mut verdict = Verdict::default();
    let mut streams: Vec<_> = stack.sites.iter().flat_map(|s| s.streams()).collect();
    streams.sort();
    streams.dedup();
    for stream in streams {
        let mut expected: Option<SketchVector> = None;
        for site in &stack.sites {
            if let Some(v) = site.synopsis(stream) {
                match expected.as_mut() {
                    None => expected = Some(v.clone()),
                    Some(acc) => {
                        if let Err(e) = acc.merge_from(v) {
                            verdict
                                .check(false, || format!("merging site synopses of {stream}: {e}"));
                        }
                    }
                }
            }
        }
        let root = stack.root.merged_synopsis(stream);
        verdict.check(
            matches!((&expected, &root), (Some(e), Some(r)) if same_counters(e, r)),
            || format!("root synopsis of stream {stream} differs from the merge of the sites'"),
        );
    }
    verdict
}

/// One root answer scored against the exact ground truth.
pub struct Scored {
    pub expr: String,
    pub estimate: f64,
    pub exact: usize,
    pub rel_err: f64,
}

/// The root's current answers to `queries`.
pub fn root_answers(stack: &Stack, queries: &[SetExpr]) -> Vec<Result<f64, String>> {
    queries
        .iter()
        .map(|q| {
            stack
                .root
                .query(q)
                .map(|a| a.estimate.value)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Relative error of the root's `answers` to `queries` against exact
/// evaluation over `truth`.
pub fn score_answers(
    queries: &[SetExpr],
    answers: &[Result<f64, String>],
    truth: &StreamSet,
) -> (Vec<Scored>, Verdict) {
    let mut verdict = Verdict::default();
    let mut scored = Vec::new();
    for (q, answer) in queries.iter().zip(answers) {
        let exact = exact_cardinality(q, truth);
        match answer {
            Ok(estimate) => {
                let rel_err = (estimate - exact as f64).abs() / (exact.max(1) as f64);
                verdict.check(rel_err.is_finite(), || {
                    format!("non-finite error for `{q}`")
                });
                scored.push(Scored {
                    expr: q.to_string(),
                    estimate: *estimate,
                    exact,
                    rel_err,
                });
            }
            Err(e) => verdict.check(false, || format!("final root query `{q}`: {e}")),
        }
    }
    (scored, verdict)
}

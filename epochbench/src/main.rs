//! Epoch-cycle benchmark for the stored-coins deployment: two sites →
//! loopback TCP → (optional relay) → root coordinator → standing queries.
//!
//! ```text
//! cargo run --release --manifest-path epochbench/Cargo.toml -- \
//!     --workload relay_small_epochs --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path epochbench/Cargo.toml -- --self-test
//! ```
//!
//! The loop is closed and epoch-synchronous: one generator thread drives
//! both sites, and an epoch starts only after the previous one committed
//! at the root. All timing happens outside the system, around calls into
//! each crate's public API. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` alternates untraced and traced epochs and reports the
//! per-layer metrics from spans recorded around every layer call. The
//! last line of standard output is the JSON result; a fuller record
//! (host, tails, probe row, self times) goes to `epochbench/out/`.

mod cycle;
mod gate;
mod host;
mod json;
mod probe;
mod stack;
mod stats;
mod trace;
mod workload;

use cycle::{run_epoch, Counters, EpochRecord};
use gate::Verdict;
use host::Host;
use json::Json;
use stack::Stack;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{SelfTimes, Span};
use workload::{Generator, Spec};

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("updates_per_s", "updates/s"),
    ("cut_to_commit_ms_p50", "ms"),
    ("cut_to_commit_ms_tail", "ms"),
    ("query_ms_p50", "ms"),
    ("query_ms_tail", "ms"),
    ("wire_bytes_per_epoch", "B"),
    ("durable_bytes_per_epoch", "B"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), with units. Per-epoch values are
/// means over the traced epochs; counts of rare events are run totals.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("site.ingest_ns_per_update", "ns"),
    ("site.ingest_updates", "count/epoch"),
    ("site.cut_ms", "ms/epoch"),
    ("site.frames_per_epoch", "count/epoch"),
    ("site.frame_bytes_per_epoch", "B/epoch"),
    ("site.checkpoint_bytes_per_epoch", "B/epoch"),
    ("site.delta_nonzero_fraction", "fraction"),
    ("transport.ship_ms", "ms/epoch"),
    ("transport.ack_wait_ms", "ms/epoch"),
    ("transport.ack_wait_self_ms", "ms/epoch"),
    ("transport.retransmits", "count"),
    ("transport.timeouts", "count"),
    ("transport.backpressure_stalls", "count"),
    ("transport.resyncs", "count"),
    ("coordinator.on_frame_ms", "ms/epoch"),
    ("coordinator.on_frame_ms.hello", "ms/epoch"),
    ("coordinator.on_frame_ms.delta", "ms/epoch"),
    ("coordinator.on_frame_ms.commit", "ms/epoch"),
    ("coordinator.on_frame_ms.synopsis", "ms/epoch"),
    ("coordinator.frames", "count/epoch"),
    ("coordinator.rejections", "count"),
    ("relay.flush_ms", "ms/epoch"),
    ("relay.flush_self_ms", "ms/epoch"),
    ("relay.merges", "count/epoch"),
    ("relay.upstream_bytes_per_epoch", "B/epoch"),
    ("coordinator.queries_per_epoch", "count/epoch"),
    ("coordinator.query_ms", "ms/epoch"),
    ("engine.ingest_ms", "ms/epoch"),
    ("engine.publish_ms", "ms/epoch"),
    ("engine.roots_reestimated", "count/epoch"),
    ("engine.events", "count/epoch"),
    ("est_rel_err_p50", "fraction"),
    ("est_rel_err_max", "fraction"),
    ("obs.trace_overhead", "ratio"),
    ("trace.cycle_ms", "ms/epoch"),
    ("trace.uncovered_ms", "ms/epoch"),
    ("trace.uncovered_fraction", "fraction"),
    ("trace.epochs", "count"),
];

/// Times the stack is brought up per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Wall-clock ceiling on the measurement phase, whatever the minimum
/// epoch count asks for, so a run always ends well inside three minutes.
const PHASE_CAP: Duration = Duration::from_secs(120);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

const USAGE: &str = "usage: epochbench --workload <relay_small_epochs|bulk_ingest|wide_dashboard> \
--seed <n> --seconds <n> --trace <0|1>\n       epochbench --self-test";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.self_test && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Totals over a set of measured epochs.
#[derive(Default)]
struct Tally {
    epochs: u64,
    updates: u64,
    cycle_ms: Vec<f64>,
    /// Per-epoch rate: updates committed per second of that cycle.
    rates: Vec<f64>,
    cut_to_commit_ms: Vec<f64>,
    query_ms: Vec<f64>,
    durable_bytes: u64,
    frames: u64,
    frame_bytes: u64,
    counters: Counters,
    events: u64,
    delta_cells: (u64, u64),
    self_times: SelfTimes,
}

impl Tally {
    fn add(&mut self, rec: &EpochRecord) {
        self.epochs += 1;
        self.updates += rec.updates as u64;
        self.cycle_ms.push(rec.cycle_ns as f64 / 1e6);
        self.rates
            .push(rec.updates as f64 / (rec.cycle_ns as f64 / 1e9));
        self.cut_to_commit_ms
            .push(rec.cut_to_commit_ns as f64 / 1e6);
        self.query_ms
            .extend(rec.query_ns.iter().map(|&ns| ns as f64 / 1e6));
        self.durable_bytes += rec.durable_bytes;
        self.frames += rec.frames;
        self.frame_bytes += rec.frame_bytes;
        self.counters.add(&rec.counters);
        self.events += rec.events.len() as u64;
        self.delta_cells.0 += rec.delta_cells.0;
        self.delta_cells.1 += rec.delta_cells.1;
        if !rec.spans.is_empty() {
            self.self_times.add_epoch(&rec.spans);
        }
    }

    /// Median over epochs of the per-cycle commit rate.
    fn updates_per_s(&self) -> f64 {
        stats::median(&self.rates)
    }

    fn per_epoch(&self, total: u64) -> f64 {
        total as f64 / self.epochs.max(1) as f64
    }

    /// Total ms per epoch spent in spans named `layer`.
    fn layer_ms(&self, layer: &str) -> f64 {
        let total = self.self_times.layers.get(layer).map_or(0, |&(t, _)| t);
        total as f64 / 1e6 / self.epochs.max(1) as f64
    }
}

/// Everything one run produced.
struct Outcome {
    metrics: Vec<(&'static str, &'static str, f64)>,
    attempted: u64,
    failures: Vec<String>,
    record: Json,
    spans: Vec<Span>,
}

fn run(spec: &Spec, seed: u64, seconds: f64, traced_run: bool) -> Result<Outcome, String> {
    let origin = Instant::now();
    let host = Host::record();
    let family = spec.family(seed);
    let mut gen = Generator::new(spec, seed);
    let queries = spec.epoch_queries();
    let mut verdict = Verdict::default();
    let mut attempted = 0u64;

    // Set-up: bring the stack up and run the warm-up epoch that creates
    // every stream at the root. Repeated; the last stack is measured.
    let warmup = gen.next_epoch(true)?;
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut stack = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let mut s = Stack::build(spec, family, origin)?;
        let rec = run_epoch(&mut s, &warmup, &queries, 0, origin, false);
        setup_s.push(start.elapsed().as_secs_f64());
        attempted += 1 + queries.len() as u64;
        if !rec.failures.is_empty() {
            return Err(format!("warm-up epoch failed: {}", rec.failures.join("; ")));
        }
        if i + 1 == SETUPS {
            verdict.absorb(gate::check_events(&s, &rec.events));
            stack = Some(s);
        } else {
            s.shutdown();
        }
    }
    let mut stack = stack.ok_or("no set-up ran")?;

    // Measurement: closed loop until the time is up (and at least
    // `min_epochs` ran); in a traced run every other epoch is traced.
    let mut plain = Tally::default();
    let mut traced = Tally::default();
    let mut spans = Vec::new();
    let mut transport_failures = Vec::new();
    let phase = Instant::now();
    let mut epoch = 1u64;
    let mut answers = Vec::new();
    let mut peak_rss_mb = f64::NAN;
    let mut harness_bytes = 0;
    while (phase.elapsed().as_secs_f64() < seconds || (epoch as usize) <= spec.min_epochs)
        && phase.elapsed() < PHASE_CAP
    {
        let input = gen.next_epoch(false)?;
        let trace_this = traced_run && epoch.is_multiple_of(2);
        let rec = run_epoch(&mut stack, &input, &queries, epoch, origin, trace_this);
        attempted += 1 + queries.len() as u64;
        verdict.absorb(gate::check_events(&stack, &rec.events));
        if trace_this {
            traced.add(&rec);
        } else {
            plain.add(&rec);
        }
        spans.extend_from_slice(&rec.spans);
        if epoch as usize == spec.min_epochs {
            // Take the answers to score and read the memory high-water
            // mark after a fixed amount of work, so neither depends on
            // how many epochs the time allowed. The ground truth is built
            // only after the run, so its memory is not in the mark; what
            // the benchmark itself holds at this point is recorded.
            answers = gate::root_answers(&stack, &spec.queries);
            peak_rss_mb = host::peak_rss_mb();
            harness_bytes = gen.held_bytes() + input.bytes();
        }
        epoch += 1;
        if !rec.failures.is_empty() {
            // A failed transport leaves the stack in an unknown state.
            transport_failures = rec.failures;
            break;
        }
    }

    verdict.absorb(gate::check_synopses(&stack));
    stack.shutdown();
    let mut scored = Vec::new();
    if !answers.is_empty() {
        let truth = Generator::replay_truth(spec, seed, spec.min_epochs)?;
        let (s, v) = gate::score_answers(&spec.queries, &answers, &truth);
        verdict.absorb(v);
        scored = s;
    }
    let errs: Vec<f64> = scored.iter().map(|s| s.rel_err).collect();
    let probe = probe::run(seed);
    if probe.wrong {
        verdict.absorb(Verdict {
            checks: 1,
            failures: vec!["paper-scale probe: root differs from the site".into()],
        });
    }
    attempted += verdict.checks;

    let cut_tail = stats::tail(&plain.cut_to_commit_ms);
    let query_tail = stats::tail(&plain.query_ms);
    let metrics: Vec<(&'static str, &'static str, f64)> = if traced_run {
        per_layer(&plain, &traced, &errs)
    } else {
        let values = [
            plain.updates_per_s(),
            stats::median(&plain.cut_to_commit_ms),
            cut_tail.value,
            stats::mid_mean(&plain.query_ms),
            query_tail.value,
            plain.per_epoch(plain.counters.wire_bytes),
            plain.per_epoch(plain.durable_bytes),
            peak_rss_mb,
            stats::median(&setup_s),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };

    let mut failures = transport_failures;
    failures.extend(verdict.failures);
    let tail_json = |t: stats::Tail| {
        Json::obj([
            ("percentile", Json::from(t.percentile)),
            ("value_ms", Json::from(t.value)),
            ("samples", Json::from(t.samples)),
        ])
    };
    let record = Json::obj([
        ("workload", Json::from(spec.name)),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("trace", Json::from(traced_run)),
        ("host", host.to_json()),
        (
            "family",
            Json::obj([
                ("copies", Json::from(spec.copies)),
                ("second_level", Json::from(spec.second_level as u64)),
            ]),
        ),
        (
            "setup_s_samples",
            Json::Arr(setup_s.iter().map(|&s| Json::from(s)).collect()),
        ),
        (
            "harness_bytes_at_peak_rss",
            Json::from(harness_bytes as u64),
        ),
        ("epochs_untraced", Json::from(plain.epochs)),
        ("epochs_traced", Json::from(traced.epochs)),
        ("updates_per_epoch", Json::from(spec.updates_per_epoch)),
        ("queries_per_epoch", Json::from(queries.len())),
        ("subscriptions", Json::from(spec.subscriptions.len())),
        ("cut_to_commit_tail", tail_json(cut_tail)),
        (
            "cycle_ms_by_epoch",
            Json::Arr(plain.cycle_ms.iter().map(|&v| Json::from(v)).collect()),
        ),
        (
            "cut_to_commit_ms_by_epoch",
            Json::Arr(
                plain
                    .cut_to_commit_ms
                    .iter()
                    .map(|&v| Json::from(v))
                    .collect(),
            ),
        ),
        ("query_tail", tail_json(query_tail)),
        (
            "query_p50_read_as",
            Json::from("mean of the samples from p40 to p60"),
        ),
        ("accuracy_scored_at_epoch", Json::from(spec.min_epochs)),
        (
            "accuracy",
            Json::Arr(
                scored
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("expr", Json::str(&s.expr)),
                            ("estimate", Json::from(s.estimate)),
                            ("exact", Json::from(s.exact)),
                            ("rel_err", Json::from(s.rel_err)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("self_times", traced.self_times.to_json()),
        ("paper_scale_probe", probe.json),
        ("metrics", metrics_json(&metrics)),
        (
            "failures",
            Json::Arr(failures.iter().map(Json::str).collect()),
        ),
    ]);
    Ok(Outcome {
        metrics,
        attempted,
        failures,
        record,
        spans,
    })
}

fn per_layer(plain: &Tally, t: &Tally, errs: &[f64]) -> Vec<(&'static str, &'static str, f64)> {
    let st = &t.self_times;
    let on_frame = |kind: &str| t.layer_ms(&format!("coordinator.on_frame.{kind}"));
    let on_frame_total: f64 = ["hello", "synopsis", "flush", "delta", "commit", "other"]
        .iter()
        .map(|k| on_frame(k))
        .sum();
    let ingest_ns = st.layers.get("site.ingest").map_or(0, |&(total, _)| total);
    let all = {
        let mut c = plain.counters;
        c.add(&t.counters);
        c
    };
    let cycle_ms = st.cycle_ns as f64 / 1e6 / st.epochs.max(1) as f64;
    let uncovered_ms = st.uncovered_ns as f64 / 1e6 / st.epochs.max(1) as f64;
    let values = [
        ingest_ns as f64 / t.updates.max(1) as f64,
        t.per_epoch(t.updates),
        t.layer_ms("site.cut"),
        t.per_epoch(t.frames),
        t.per_epoch(t.frame_bytes),
        t.per_epoch(t.durable_bytes),
        t.delta_cells.0 as f64 / t.delta_cells.1.max(1) as f64,
        t.layer_ms("transport.ship"),
        t.layer_ms("transport.ack_wait"),
        st.self_ms("transport.ack_wait"),
        all.retransmits as f64,
        all.timeouts as f64,
        all.backpressure_stalls as f64,
        all.resyncs as f64,
        on_frame_total,
        on_frame("hello"),
        on_frame("delta"),
        on_frame("commit"),
        on_frame("synopsis"),
        t.per_epoch(t.counters.root_frames),
        all.rejections as f64,
        t.layer_ms("relay.flush"),
        st.self_ms("relay.flush"),
        t.per_epoch(t.counters.relay_merges),
        t.per_epoch(t.counters.relay_upstream_bytes),
        t.per_epoch(t.query_ms.len() as u64),
        t.layer_ms("coordinator.query"),
        t.layer_ms("engine.ingest"),
        t.layer_ms("engine.publish"),
        t.per_epoch(t.counters.roots_reestimated),
        t.per_epoch(t.events),
        stats::median(errs),
        errs.iter().copied().fold(0.0, f64::max),
        plain.updates_per_s() / t.updates_per_s(),
        cycle_ms,
        uncovered_ms,
        uncovered_ms / cycle_ms,
        t.epochs as f64,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write the full record (and, for a traced run, the spans as Chrome
/// trace-event JSON) next to the benchmark.
fn write_record(spec: &Spec, seed: u64, trace: bool, outcome: &Outcome) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!("{}-seed{seed}-trace{}", spec.name, u8::from(trace));
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, format!("{}\n", outcome.record)).map_err(|e| e.to_string())?;
    if trace {
        let spans = dir.join(format!("{stem}.spans.json"));
        std::fs::write(&spans, trace::chrome_json(&outcome.spans)).map_err(|e| e.to_string())?;
    }
    Ok(path)
}

fn result_line(outcome: &Outcome) -> Json {
    let failed = outcome.failures.len() as u64;
    Json::obj([
        ("correct", Json::from(failed == 0)),
        ("attempted", Json::from(outcome.attempted.max(1))),
        ("failed", Json::from(failed)),
        ("metrics", metrics_json(&outcome.metrics)),
    ])
}

/// `{"<name>": {"value": v, "unit": u}, ...}`.
fn metrics_json(metrics: &[(&str, &str, f64)]) -> Json {
    Json::obj(metrics.iter().map(|&(name, unit, v)| {
        (
            name,
            Json::obj([("value", Json::from(v)), ("unit", Json::from(unit))]),
        )
    }))
}

fn print_report(outcome: &Outcome) {
    let r = &outcome.record;
    let field = |k: &str| r.get(k).map(|v| v.to_string()).unwrap_or_default();
    println!(
        "epochbench workload={} seed={} trace={} epochs={}+{} host={}",
        field("workload"),
        field("seed"),
        field("trace"),
        field("epochs_untraced"),
        field("epochs_traced"),
        field("host"),
    );
    for &(name, unit, v) in &outcome.metrics {
        println!("  {name:<34} {v:>16.6} {unit}");
    }
    println!("  cut_to_commit tail: {}", field("cut_to_commit_tail"));
    println!("  query tail:         {}", field("query_tail"));
    println!("  {}", field("paper_scale_probe"));
    for f in &outcome.failures {
        println!("  FAILED: {f}");
    }
}

/// Run every workload at tiny sizes, both traced and untraced, through
/// the same code path, and check that the gate passes and that exactly
/// the metrics `BENCHMARK.json` names are reported.
fn self_test() -> Result<(), String> {
    let contract = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&contract).map_err(|e| format!("{}: {e}", contract.display()))?;
    let contract = Json::parse(&text)?;
    let names = |key: &str| -> Vec<String> {
        contract
            .get(key)
            .map(|v| v.as_array())
            .unwrap_or_default()
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::as_str).map(String::from))
            .collect()
    };
    for name in workload::NAMES {
        let spec = Spec::named(name, true).ok_or("unknown workload")?;
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = run(&spec, 7, 0.0, trace)?;
            if !outcome.failures.is_empty() {
                return Err(format!("{name} trace={trace}: {:?}", outcome.failures));
            }
            let got: Vec<String> = outcome.metrics.iter().map(|m| m.0.to_string()).collect();
            if got != names(key) {
                return Err(format!(
                    "{name}: reported {got:?}, BENCHMARK.json {key} names {:?}",
                    names(key)
                ));
            }
            if let Some(m) = outcome.metrics.iter().find(|m| !m.2.is_finite()) {
                return Err(format!("{name}: {} is not a number", m.0));
            }
            let line = result_line(&outcome).to_string();
            let parsed = Json::parse(&line)?;
            if parsed.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!("{name}: result line {line}"));
            }
            println!(
                "self-test {name} trace={}: ok ({} metrics)",
                u8::from(trace),
                got.len()
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return match self_test() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("self-test failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(spec) = Spec::named(&args.workload, false) else {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let outcome = match run(&spec, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("epochbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_report(&outcome);
    match write_record(&spec, args.seed, args.trace, &outcome) {
        Ok(path) => println!("  record: {}", path.display()),
        Err(e) => eprintln!("epochbench: could not write the record: {e}"),
    }
    println!("{}", result_line(&outcome));
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

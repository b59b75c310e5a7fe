//! The three workloads and their seeded input generators.
//!
//! Every input is drawn from one `StdRng` seeded by `--seed`, so a seed
//! fixes the whole update sequence, and replaying the seed rebuilds it.
//! The measured run generates without a ground truth, so the truth's
//! memory stays out of the run's peak RSS; the accuracy check replays
//! the seed into an exact `StreamSet` afterwards. The generator only ever
//! deletes elements that are live in their stream, so no update is
//! illegal.

use crate::stack::SITES;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use setstream_core::SketchFamily;
use setstream_engine::Tolerance;
use setstream_expr::SetExpr;
use setstream_stream::gen::{VennData, VennSpec, ZipfSampler};
use setstream_stream::{StreamId, StreamSet, Update};

/// Family shape every workload collects at: the `setstream site`
/// default, and the largest family whose frames fit the wire cap.
pub const COPIES: usize = 64;
pub const SECOND_LEVEL: u32 = 32;

/// Share of each epoch's updates that delete a live element.
const DELETE_FRACTION: f64 = 0.1;

/// Live elements remembered per stream as deletion candidates. Small,
/// because the pools live through the measured run.
const POOL_CAP: usize = 1 << 16;

pub const NAMES: [&str; 3] = ["relay_small_epochs", "bulk_ingest", "wide_dashboard"];

/// How a workload draws its elements, and the generator's state for it.
pub enum Elements {
    /// Venn-cell assignment over a pre-drawn universe: each insertion
    /// event adds one element to every stream of its cell.
    Venn { data: VennData, next: usize },
    /// Zipf-skewed ranks; stream `i` is shifted by `i * shift` so the hot
    /// sets overlap only partly.
    Zipf { sampler: ZipfSampler, shift: u64 },
    /// Uniform over a window per stream; neighbouring windows overlap by
    /// half, so expressions over adjacent streams are non-trivial.
    Windows { width: u64 },
}

fn venn(rng: &mut StdRng) -> Elements {
    let cells = VennSpec::from_cells(2, &[(0b01, 0.35), (0b10, 0.35), (0b11, 0.3)]);
    Elements::Venn {
        data: cells.generate(1 << 17, rng),
        next: 0,
    }
}

fn zipf(_: &mut StdRng) -> Elements {
    Elements::Zipf {
        sampler: ZipfSampler::new(1 << 20, 0.9),
        shift: 1 << 16,
    }
}

pub fn windows(_: &mut StdRng) -> Elements {
    Elements::Windows { width: 1 << 15 }
}

/// A workload's shape: topology, traffic and the read side.
pub struct Spec {
    pub name: &'static str,
    pub relay: bool,
    /// Builds the element generator from the run's random source.
    pub elements: fn(&mut StdRng) -> Elements,
    pub streams: u32,
    /// Streams that receive updates in one epoch (rotating).
    pub touched: u32,
    pub updates_per_epoch: usize,
    pub copies: usize,
    pub second_level: u32,
    /// The distinct root queries; each is asked `query_reps` times per
    /// epoch. They are also the fixed set the accuracy check scores.
    pub queries: Vec<SetExpr>,
    pub query_reps: usize,
    pub subscriptions: Vec<(SetExpr, Tolerance)>,
    /// Epochs a measurement runs at least, whatever `--seconds` says.
    pub min_epochs: usize,
}

fn expr(text: &str) -> SetExpr {
    text.parse()
        .unwrap_or_else(|e| panic!("built-in expression {text:?} must parse: {e:?}"))
}

fn letter(i: u32) -> char {
    (b'A' + i as u8) as char
}

/// The four root queries of the two-stream workloads.
fn two_stream_queries() -> Vec<SetExpr> {
    ["A | B", "A & B", "A - B", "B - A"].map(expr).to_vec()
}

/// 32 distinct 2–4-stream expressions over eight streams, and the 16 of
/// them the dashboard subscribes to.
fn dashboard_expressions() -> (Vec<SetExpr>, Vec<SetExpr>) {
    let mut queries = Vec::new();
    let mut subscribed = Vec::new();
    for i in 0..8 {
        let [a, b, c, d] = [i, i + 1, i + 2, i + 3].map(|k| letter(k % 8));
        let exprs = [
            format!("{a} | {b}"),
            format!("{a} & {b}"),
            format!("({a} | {b}) - {c}"),
            format!("({a} & {b}) | ({c} - {d})"),
        ]
        .map(|t| expr(&t));
        subscribed.push(exprs[1].clone());
        subscribed.push(exprs[2].clone());
        queries.extend(exprs);
    }
    (queries, subscribed)
}

impl Spec {
    /// The named workload at full size, or at self-test size when `tiny`.
    pub fn named(name: &str, tiny: bool) -> Option<Spec> {
        let (copies, second_level) = if tiny { (8, 8) } else { (COPIES, SECOND_LEVEL) };
        let pick = |full: usize, small: usize| if tiny { small } else { full };
        let min_epochs = pick(20, 3);
        let spec = match name {
            "relay_small_epochs" => Spec {
                name: "relay_small_epochs",
                relay: true,
                elements: venn,
                streams: 2,
                touched: 2,
                updates_per_epoch: pick(1_000, 200),
                copies,
                second_level,
                queries: two_stream_queries(),
                // As on bulk_ingest: enough samples for a steady query tail.
                query_reps: pick(8, 1),
                subscriptions: two_stream_queries()
                    .into_iter()
                    .map(|e| (e, Tolerance::Absolute(0.0)))
                    .collect(),
                min_epochs,
            },
            "bulk_ingest" => Spec {
                name: "bulk_ingest",
                relay: false,
                elements: zipf,
                streams: 2,
                touched: 2,
                updates_per_epoch: pick(200_000, 2_000),
                copies,
                second_level,
                queries: two_stream_queries(),
                // Enough samples per run that the query tail is not decided
                // by a handful of allocator or scheduler stalls.
                query_reps: pick(8, 1),
                subscriptions: Vec::new(),
                min_epochs,
            },
            "wide_dashboard" => {
                let (queries, subscribed) = dashboard_expressions();
                let tolerances = [
                    Tolerance::Absolute(0.0),
                    Tolerance::Relative(0.01),
                    Tolerance::Relative(0.05),
                    Tolerance::Absolute(100.0),
                ];
                Spec {
                    name: "wide_dashboard",
                    relay: false,
                    elements: windows,
                    streams: 8,
                    touched: 2,
                    updates_per_epoch: pick(4_000, 400),
                    copies,
                    second_level,
                    queries,
                    query_reps: pick(8, 1),
                    subscriptions: subscribed
                        .iter()
                        .flat_map(|e| tolerances.iter().map(move |&t| (e.clone(), t)))
                        .collect(),
                    min_epochs,
                }
            }
            _ => return None,
        };
        Some(spec)
    }

    /// The sketch family every node of a run shares.
    pub fn family(&self, seed: u64) -> SketchFamily {
        SketchFamily::builder()
            .copies(self.copies)
            .second_level(self.second_level)
            .seed(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5e15_7ead)
            .build()
    }

    /// The root queries of one epoch, in the order they are asked.
    pub fn epoch_queries(&self) -> Vec<SetExpr> {
        (0..self.query_reps)
            .flat_map(|_| self.queries.iter().cloned())
            .collect()
    }
}

/// One epoch's inputs: each site's share.
pub struct EpochInput {
    pub per_site: Vec<Vec<Update>>,
}

impl EpochInput {
    pub fn updates(&self) -> usize {
        self.per_site.iter().map(Vec::len).sum()
    }

    /// Bytes the batches occupy.
    pub fn bytes(&self) -> usize {
        self.per_site
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<Update>())
            .sum()
    }
}

pub struct Generator {
    rng: StdRng,
    elements: Elements,
    streams: u32,
    touched: u32,
    updates_per_epoch: usize,
    /// Live occurrences per stream that a deletion may retract.
    pools: Vec<Vec<u64>>,
    epoch: u64,
    /// The exact ground truth, kept only by a replaying generator.
    truth: Option<StreamSet>,
}

impl Generator {
    /// A generator of `spec`'s inputs for `seed`, without a ground truth.
    pub fn new(spec: &Spec, seed: u64) -> Generator {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6570_6f63_6862_656e);
        let elements = (spec.elements)(&mut rng);
        Generator {
            rng,
            elements,
            streams: spec.streams,
            touched: spec.touched,
            updates_per_epoch: spec.updates_per_epoch,
            pools: vec![Vec::new(); spec.streams as usize],
            epoch: 0,
            truth: None,
        }
    }

    /// Replay `seed`'s warm-up epoch and first `epochs` epochs into the
    /// exact ground truth they leave behind.
    pub fn replay_truth(spec: &Spec, seed: u64, epochs: usize) -> Result<StreamSet, String> {
        let mut gen = Generator::new(spec, seed);
        gen.truth = Some(StreamSet::new());
        gen.next_epoch(true)?;
        for _ in 0..epochs {
            gen.next_epoch(false)?;
        }
        Ok(gen.truth.unwrap_or_default())
    }

    /// Bytes the generator holds between epochs (the deletion pools).
    pub fn held_bytes(&self) -> usize {
        self.pools.iter().map(|p| p.capacity() * 8).sum()
    }

    /// Streams one epoch updates: all of them in the warm-up epoch (so
    /// every stream exists at the root before queries start), then a
    /// rotating window of `touched`.
    fn touched_streams(&self, warmup: bool) -> Vec<u32> {
        if warmup {
            return (0..self.streams).collect();
        }
        let first = (self.epoch * self.touched as u64) % self.streams as u64;
        (0..self.touched)
            .map(|k| ((first + k as u64) % self.streams as u64) as u32)
            .collect()
    }

    fn remember(&mut self, stream: u32, element: u64) {
        let pool = &mut self.pools[stream as usize];
        if pool.len() < POOL_CAP {
            pool.push(element);
        } else {
            // Full pool: the evicted occurrence stays live, it just can no
            // longer be chosen for deletion.
            let slot = self.rng.gen_range(0..POOL_CAP);
            pool[slot] = element;
        }
    }

    /// Append one insertion event into `stream` (for Venn cells, into
    /// every stream of the next element's cell).
    fn insertion(&mut self, stream: u32, out: &mut Vec<Update>) {
        match &mut self.elements {
            Elements::Venn { data, next } => {
                let pairs = data.memberships();
                let (element, mask) = pairs[*next % pairs.len()];
                *next += 1;
                for s in 0..self.streams {
                    if mask & (1 << s) != 0 {
                        out.push(Update::insert(StreamId(s), element, 1));
                    }
                }
            }
            Elements::Zipf { sampler, shift } => {
                let element = sampler.sample(&mut self.rng) + stream as u64 * *shift;
                out.push(Update::insert(StreamId(stream), element, 1));
            }
            Elements::Windows { width } => {
                let base = stream as u64 * (*width / 2);
                let element = base + self.rng.gen_range(0..*width);
                out.push(Update::insert(StreamId(stream), element, 1));
            }
        }
    }

    /// Generate the next epoch's batch and apply it to the ground truth.
    pub fn next_epoch(&mut self, warmup: bool) -> Result<EpochInput, String> {
        let touched = self.touched_streams(warmup);
        let mut all = Vec::with_capacity(self.updates_per_epoch + 2);
        while all.len() < self.updates_per_epoch {
            let stream = touched[self.rng.gen_range(0..touched.len())];
            let pool = &mut self.pools[stream as usize];
            if !pool.is_empty() && self.rng.gen_bool(DELETE_FRACTION) {
                let victim = pool.swap_remove(self.rng.gen_range(0..pool.len()));
                all.push(Update::delete(StreamId(stream), victim, 1));
            } else {
                let from = all.len();
                self.insertion(stream, &mut all);
                for u in &all[from..] {
                    self.remember(u.stream.0, u.element);
                }
            }
        }
        if let Some(truth) = self.truth.as_mut() {
            truth
                .apply_all(&all)
                .map_err(|e| format!("generated an illegal update: {e}"))?;
        }
        let mut per_site = vec![Vec::new(); SITES];
        for u in &all {
            per_site[self.rng.gen_range(0..SITES)].push(*u);
        }
        if !warmup {
            self.epoch += 1;
        }
        Ok(EpochInput { per_site })
    }
}

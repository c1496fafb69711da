//! The three serving workloads and the closed loop that drives them.
//!
//! Each workload is a single-thread closed loop: the benchmark is the only
//! client of the in-process server and waits for every answer. A run is a
//! sequence of whole rounds of the same operations:
//!
//! ```text
//! round = batches × (update batch, refresh, query burst),
//!         RESTARTS × (save, restart), query burst
//! ```
//!
//! An update batch inserts and removes the same number of points, so `n`
//! stays constant. Each restart cold-starts a new server from the saved
//! container and the run continues on it. No query is timed while a publish runs, and the rebuild
//! pool is busy only inside `refresh()`. Every operation is checked (see
//! [`State::check_query`]) and a mismatch counts it as failed.

use std::hint::black_box;
use std::time::Instant;

use skyline_core::geometry::{Dataset, Point};
use skyline_core::maintained::Handle;
use skyline_core::parallel::ParallelConfig;
use skyline_core::sync::Arc;
use skyline_serve::{ServerOptions, SkylineServer, Snapshot, SnapshotReader};

use crate::cpus::Cpus;
use crate::gen::{self, Distribution, Rng};
use crate::layers::{Layers, QueryTrace};
use crate::oracle;
use crate::stats::{median, quantile, Histogram};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Quadrant,
    Global,
    Dynamic,
    SafeZone,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Quadrant, Kind::Global, Kind::Dynamic, Kind::SafeZone];

    pub fn slot(self) -> usize {
        self as usize
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// Uniform over the whole domain.
    Uniform,
    /// Within ±15 (scaled units) of a random live data point.
    NearData,
    /// Drawn uniformly from a fixed set of this many uniform query points.
    HotSet(usize),
}

#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub dist: Distribution,
    pub n: usize,
    /// Domain size per axis before the ×4 scaling of [`gen`].
    pub s: u64,
    pub with_global: bool,
    pub with_dynamic: bool,
    /// Rebuild on the sequential formulation (`threads = 0`) instead of
    /// the environment-default pool.
    pub sequential: bool,
    /// Percent weights over [`Kind::ALL`].
    pub mix: [u32; 4],
    pub source: Source,
    /// Timed queries per burst.
    pub burst: usize,
    /// Inserts (and as many removes) per update batch.
    pub updates: usize,
    /// Update batches (and publishes) per round.
    pub batches: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Untimed warm-up queries at the end of each set-up.
    pub warmup: usize,
    /// Every `sample_every`-th query of a burst is checked.
    pub sample_every: usize,
}

pub const SPECS: [Spec; 3] = [
    // The read path over a working set far larger than the result cache
    // and L2; construction shows only in set-up and the rare publishes.
    Spec {
        name: "read-uniform",
        dist: Distribution::Independent,
        n: 400,
        s: 4000,
        with_global: true,
        with_dynamic: false,
        sequential: false,
        mix: [50, 30, 0, 20],
        source: Source::Uniform,
        burst: 1_000_000,
        updates: 64,
        batches: 1,
        setups: 5,
        warmup: 50_000,
        sample_every: 4096,
    },
    // Writes beside reads: construction dominates, and every burst reads
    // a fresh snapshot with cold caches.
    Spec {
        name: "churn-global",
        dist: Distribution::Anticorrelated,
        n: 400,
        s: 4000,
        with_global: true,
        with_dynamic: false,
        sequential: false,
        mix: [40, 40, 0, 20],
        source: Source::NearData,
        burst: 512,
        updates: 16,
        batches: 2,
        setups: 5,
        warmup: 2_000,
        sample_every: 16,
    },
    // The O(n⁴) subcell diagram on the sequential formulation, read from
    // a hot set small enough that the caches hit.
    Spec {
        name: "dynamic-hot",
        dist: Distribution::Independent,
        n: 48,
        s: 400,
        with_global: true,
        with_dynamic: true,
        sequential: true,
        mix: [25, 25, 50, 0],
        source: Source::HotSet(64),
        burst: 400_000,
        updates: 4,
        batches: 2,
        setups: 9,
        warmup: 20_000,
        sample_every: 1024,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    pub fn parallel(&self) -> ParallelConfig {
        if self.sequential {
            ParallelConfig::sequential()
        } else {
            ParallelConfig::from_env()
        }
    }

    pub fn options(&self) -> ServerOptions {
        ServerOptions {
            with_global: self.with_global,
            with_dynamic: self.with_dynamic,
            // Publication happens only at the explicit refresh barrier, so
            // each refresh is one timed publish of one update batch.
            rebuild_threshold: usize::MAX,
            parallel: self.parallel(),
            ..ServerOptions::default()
        }
    }
}

/// The figures of one round.
pub struct Round {
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub qps: f64,
    pub publish_ms: f64,
    pub save_ms: f64,
    pub restart_ms: f64,
}

/// End-to-end observations of one phase of a run.
///
/// Every timing is first reduced per round: the p50 and p99 of the round's
/// queries, their throughput, and the medians of its publishes, saves and
/// restarts. A run reports the 10th percentile of its per-round figures
/// (the 90th for throughput), the level of its quietest rounds. On a
/// shared host, stretches in which everything runs ~30% slower come and
/// go and at times cover most of a run; the per-round p50 of `dynamic-hot`
/// in such runs had a median of 134–141 ns against ~104 ns in quiet runs,
/// while its 10th percentile stayed at 111–118 ns. A change to the program
/// moves every round, so it moves the percentile too.
pub struct Measures {
    pub setup_s: Vec<f64>,
    /// The current round's query latencies, publish, save and restart times.
    latency: Histogram,
    round_queries: u64,
    round_wall_ns: u64,
    publish_ms: Vec<f64>,
    save_ms: Vec<f64>,
    restart_ms: Vec<f64>,
    pub rounds: Vec<Round>,
    pub snapshot_bytes: Vec<f64>,
    pub container_bytes: Vec<f64>,
}

impl Measures {
    pub fn new() -> Self {
        Measures {
            setup_s: Vec::new(),
            latency: Histogram::new(),
            round_queries: 0,
            round_wall_ns: 0,
            publish_ms: Vec::new(),
            save_ms: Vec::new(),
            restart_ms: Vec::new(),
            rounds: Vec::new(),
            snapshot_bytes: Vec::new(),
            container_bytes: Vec::new(),
        }
    }

    fn close_round(&mut self) {
        self.rounds.push(Round {
            p50_ns: self.latency.quantile(0.50) as f64,
            p99_ns: self.latency.quantile(0.99) as f64,
            qps: self.round_queries as f64 / (self.round_wall_ns as f64 / 1e9),
            publish_ms: median(&self.publish_ms),
            save_ms: median(&self.save_ms),
            restart_ms: median(&self.restart_ms),
        });
        self.latency.clear();
        self.round_queries = 0;
        self.round_wall_ns = 0;
        self.publish_ms.clear();
        self.save_ms.clear();
        self.restart_ms.clear();
    }

    /// The run's figure of a lower-is-better per-round timing.
    pub fn quiet(&self, figure: fn(&Round) -> f64) -> f64 {
        quantile(&self.rounds.iter().map(figure).collect::<Vec<_>>(), 0.1)
    }

    /// The run's query throughput (higher is better).
    pub fn quiet_qps(&self) -> f64 {
        quantile(&self.rounds.iter().map(|r| r.qps).collect::<Vec<_>>(), 0.9)
    }

    pub fn query_p50_ns(&self) -> f64 {
        self.quiet(|r| r.p50_ns)
    }

    pub fn publish_p50_ms(&self) -> f64 {
        self.quiet(|r| r.publish_ms)
    }
}

fn ns(t0: Instant, t1: Instant) -> u64 {
    t1.duration_since(t0).as_nanos() as u64
}

fn ms(t0: Instant, t1: Instant) -> f64 {
    t1.duration_since(t0).as_secs_f64() * 1e3
}

/// Save-and-restart cycles per round.
const RESTARTS: usize = 5;

/// One sampled query of a burst, checked after the burst.
struct Sample {
    kind: Kind,
    q: Point,
    answer: Option<Arc<[Handle]>>,
}

pub struct State {
    pub spec: &'static Spec,
    server: SkylineServer,
    reader: SnapshotReader,
    /// The benchmark's own model of the live points.
    model: Vec<(Handle, Point)>,
    /// Sorted distinct data coordinates of the published epoch, for the
    /// independent cell location of the safe-zone check.
    xs: Vec<i64>,
    ys: Vec<i64>,
    epoch: u64,
    hot: Vec<Point>,
    query_rng: Rng,
    update_rng: Rng,
    check_rng: Rng,
    cpus: Cpus,
    rounds_done: usize,
    pub attempted: u64,
    pub failed: u64,
}

/// The next query of the workload's mix.
pub fn next_query(
    rng: &mut Rng,
    spec: &Spec,
    model: &[(Handle, Point)],
    hot: &[Point],
) -> (Kind, Point) {
    let mut r = rng.below(100) as u32;
    let mut kind = Kind::Quadrant;
    for k in Kind::ALL {
        if r < spec.mix[k.slot()] {
            kind = k;
            break;
        }
        r -= spec.mix[k.slot()];
    }
    let q = match spec.source {
        Source::Uniform => gen::uniform_query(rng, spec.s),
        Source::NearData => {
            let p = model[rng.below(model.len() as u64) as usize].1;
            gen::near_query(rng, p)
        }
        Source::HotSet(_) => hot[rng.below(hot.len() as u64) as usize],
    };
    (kind, q)
}

impl State {
    /// Generation, the first publish and warm-up: the work `setup_s` times.
    pub fn setup(spec: &'static Spec, seed: u64) -> State {
        let mut data_rng = Rng::stream(seed, 1);
        let points = gen::dataset(&mut data_rng, spec.dist, spec.n, spec.s);
        let dataset = Dataset::new(points.clone()).expect("generated points are in range");
        let (server, handles) = SkylineServer::with_dataset(&dataset, spec.options());
        let reader = server.reader();
        let mut hot_rng = Rng::stream(seed, 2);
        let hot = match spec.source {
            Source::HotSet(k) => (0..k)
                .map(|_| gen::uniform_query(&mut hot_rng, spec.s))
                .collect(),
            _ => Vec::new(),
        };
        let mut state = State {
            spec,
            server,
            reader,
            model: handles.into_iter().zip(points).collect(),
            xs: Vec::new(),
            ys: Vec::new(),
            epoch: 1,
            hot,
            query_rng: Rng::stream(seed, 3),
            update_rng: Rng::stream(seed, 4),
            check_rng: Rng::stream(seed, 5),
            cpus: Cpus::new(),
            rounds_done: 0,
            attempted: 0,
            failed: 0,
        };
        state.index_model();
        let mut warm_rng = Rng::stream(seed, 6);
        let snap = state.reader.snapshot();
        for _ in 0..spec.warmup {
            let (kind, q) = next_query(&mut warm_rng, spec, &state.model, &state.hot);
            black_box(answer(&snap, kind, q));
        }
        state
    }

    fn index_model(&mut self) {
        let distinct = |f: fn(&Point) -> i64, model: &[(Handle, Point)]| {
            let mut v: Vec<i64> = model.iter().map(|(_, p)| f(p)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        self.xs = distinct(|p| p.x, &self.model);
        self.ys = distinct(|p| p.y, &self.model);
    }

    fn fail_unless(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The model's live points sorted by handle, as a dataset.
    pub fn model_dataset(&self) -> Dataset {
        let mut live = self.model.clone();
        live.sort_unstable();
        Dataset::new(live.into_iter().map(|(_, p)| p).collect()).expect("model points are valid")
    }

    fn update_batch(&mut self) {
        for _ in 0..self.spec.updates {
            let p = gen::data_point(&mut self.update_rng, self.spec.dist, self.spec.s);
            let h = self.server.insert(p);
            let fresh = self.model.iter().all(|&(m, _)| m != h);
            self.fail_unless(fresh);
            self.model.push((h, p));
            let victim = self.update_rng.below(self.model.len() as u64) as usize;
            let (h, _) = self.model.swap_remove(victim);
            let removed = self.server.remove(h);
            self.fail_unless(removed);
        }
    }

    fn publish(&mut self, m: &mut Measures, mut layers: Option<&mut Layers>) {
        self.cpus.unpin();
        let builds = layers.as_deref_mut().map(|l| l.measure_builds(self));
        let t0 = Instant::now();
        let epoch = self.server.refresh();
        let t1 = Instant::now();
        m.publish_ms.push(ms(t0, t1));
        if let (Some(l), Some(builds)) = (layers, builds) {
            l.pair_publish(builds, ms(t0, t1));
        }
        let advanced = epoch == self.epoch + 1;
        self.epoch = epoch;
        self.index_model();
        let matches = self.snapshot_matches_model(&self.server.latest());
        self.fail_unless(advanced && matches);
        self.cpus.repin();
    }

    fn snapshot_matches_model(&self, snap: &Snapshot) -> bool {
        let Some(dataset) = snap.dataset() else {
            return self.model.is_empty();
        };
        let mut published: Vec<(Handle, Point)> = snap
            .handles()
            .iter()
            .copied()
            .zip(dataset.points().iter().copied())
            .collect();
        published.sort_unstable();
        let mut model = self.model.clone();
        model.sort_unstable();
        published == model
    }

    /// One burst of timed queries on the current epoch.
    fn burst(&mut self, m: &mut Measures, mut trace: Option<&mut QueryTrace>) {
        let spec = self.spec;
        // Pin the epoch first: advancing the reader releases the previous
        // epoch here, outside the timed queries.
        let pinned = self.reader.snapshot();
        let replay = self.query_rng.clone();
        let mut samples = Vec::with_capacity(spec.burst / spec.sample_every + 1);
        if let Some(tr) = trace.as_deref_mut() {
            tr.start_burst(&pinned);
        }
        let phase = Instant::now();
        for i in 0..spec.burst {
            let (kind, q) = next_query(&mut self.query_rng, spec, &self.model, &self.hot);
            let sampled = i % spec.sample_every == 0;
            let t0 = Instant::now();
            let snap = self.reader.snapshot();
            let ta = trace.is_some().then(Instant::now);
            let got = answer(&snap, kind, q);
            drop(snap);
            let kept = if sampled {
                got
            } else {
                drop(got);
                None
            };
            let t1 = Instant::now();
            m.latency.record(ns(t0, t1));
            if let (Some(tr), Some(ta)) = (trace.as_deref_mut(), ta) {
                tr.record(kind, ns(t0, ta), ns(ta, t1));
            }
            if sampled {
                samples.push(Sample {
                    kind,
                    q,
                    answer: kept,
                });
            }
        }
        let wall = ns(phase, Instant::now());
        m.round_queries += spec.burst as u64;
        m.round_wall_ns += wall;
        if let Some(tr) = trace {
            tr.finish_burst(&pinned, spec, replay, &self.model, &self.hot);
        }
        m.snapshot_bytes.push(pinned.heap_bytes() as f64);
        for s in samples {
            let ok = self.check_query(&pinned, &s);
            self.attempted += 1;
            if !ok {
                self.failed += 1;
            }
        }
        // The unsampled queries of the burst.
        self.attempted += (spec.burst - spec.burst.div_ceil(spec.sample_every)) as u64;
    }

    /// Oracle and property checks for one sampled query.
    fn check_query(&mut self, snap: &Snapshot, s: &Sample) -> bool {
        let (q, model) = (s.q, &self.model);
        let got = s.answer.as_deref().unwrap_or(&[]);
        let right = match s.kind {
            Kind::Quadrant => oracle::same(&oracle::quadrant(model, q), got),
            Kind::Global => oracle::same(&oracle::global(model, q), got),
            Kind::Dynamic => oracle::same(&oracle::dynamic(model, q), got),
            Kind::SafeZone => self.check_safe_zone(snap, q),
        };
        let (quad, glob, dynm) = (snap.quadrant(q), snap.global(q), snap.dynamic(q));
        right && oracle::subset(&quad, &glob) && oracle::subset(&dynm, &glob)
    }

    /// The safe zone holds the query's cell, and a sampled cell of it gives
    /// the query's quadrant answer, which is the oracle's.
    fn check_safe_zone(&mut self, snap: &Snapshot, q: Point) -> bool {
        let Some(zone) = snap.safe_zone(q) else {
            return false;
        };
        let cell_of = |lines: &[i64], v: i64| lines.partition_point(|&l| l < v) as u32;
        let cell = (cell_of(&self.xs, q.x), cell_of(&self.ys, q.y));
        if !zone.cells.contains(&cell) {
            return false;
        }
        let (i, j) = zone.cells[self.check_rng.below(zone.cells.len() as u64) as usize];
        // An interior point of column i / row j: just past line i-1 (lines
        // are multiples of 4, so +1 stays strictly inside).
        let inside = |lines: &[i64], k: u32| match k {
            0 => lines[0] - 1,
            k => lines[k as usize - 1] + 1,
        };
        let other = Point::new(inside(&self.xs, i), inside(&self.ys, j));
        let answer = snap.quadrant(q);
        snap.quadrant(other) == answer && oracle::same(&oracle::quadrant(&self.model, q), &answer)
    }

    /// Saves the current epoch, cold-starts a server from the container and
    /// continues on it, [`RESTARTS`] times.
    fn save_restart(&mut self, m: &mut Measures, mut layers: Option<&mut Layers>) {
        for _ in 0..RESTARTS {
            let source = self.reader.snapshot();
            if let Some(l) = layers.as_deref_mut() {
                l.measure_encode(&source);
            }
            let t0 = Instant::now();
            let bytes = source.to_container();
            let t1 = Instant::now();
            m.save_ms.push(ms(t0, t1));
            self.fail_unless(bytes.is_some());
            let Some(bytes) = bytes else {
                // The restart cannot be attempted: count it as failed too,
                // so every round attempts the same operations.
                self.fail_unless(false);
                continue;
            };
            m.container_bytes.push(bytes.len() as f64);
            let decode_ms = layers.as_deref_mut().map(|l| l.measure_decode(&bytes));

            let t0 = Instant::now();
            let restored = SkylineServer::from_container(&bytes, self.spec.options());
            let restored = restored.map(|(server, handles)| {
                let mut reader = server.reader();
                let snap = reader.snapshot();
                (server, handles, reader, snap)
            });
            let t1 = Instant::now();
            let Ok((server, handles, reader, snap)) = restored else {
                self.fail_unless(false);
                continue;
            };
            m.restart_ms.push(ms(t0, t1));
            if let (Some(l), Some(decode)) = (layers.as_deref_mut(), decode_ms) {
                l.push("container.restart_overhead_ms", ms(t0, t1) - decode);
            }
            let same = snap.epoch() == 1
                && handles.as_slice() == source.handles()
                && self.cold_start_agrees(&source, &snap);
            self.fail_unless(same);
            drop((snap, source));
            let old = std::mem::replace(&mut self.server, server);
            self.reader = reader;
            self.epoch = 1;
            drop(old);
        }
    }

    /// A cold-started snapshot answers sampled queries exactly as its
    /// source did, in every semantics.
    fn cold_start_agrees(&mut self, source: &Snapshot, restored: &Snapshot) -> bool {
        (0..16).all(|_| {
            let (_, q) = next_query(&mut self.check_rng, self.spec, &self.model, &self.hot);
            source.quadrant(q) == restored.quadrant(q)
                && source.global(q) == restored.global(q)
                && source.dynamic(q) == restored.dynamic(q)
                && source.safe_zone(q).map(|z| z.cells.to_vec())
                    == restored.safe_zone(q).map(|z| z.cells.to_vec())
        })
    }

    /// One round of the workload.
    pub fn round(&mut self, m: &mut Measures, mut layers: Option<&mut Layers>) {
        self.cpus.pin_round(self.rounds_done);
        self.rounds_done += 1;
        for _ in 0..self.spec.batches {
            self.update_batch();
            self.publish(m, layers.as_deref_mut());
            self.burst(m, layers.as_deref_mut().map(|l| &mut l.queries));
        }
        self.save_restart(m, layers.as_deref_mut());
        self.burst(m, layers.map(|l| &mut l.queries));
        m.close_round();
    }
}

/// The timed operation of one query. Safe-zone answers borrow the
/// snapshot, so only their size leaves it.
fn answer(snap: &Snapshot, kind: Kind, q: Point) -> Option<Arc<[Handle]>> {
    match kind {
        Kind::Quadrant => Some(snap.quadrant(q)),
        Kind::Global => Some(snap.global(q)),
        Kind::Dynamic => Some(snap.dynamic(q)),
        Kind::SafeZone => {
            black_box(snap.safe_zone(q).map(|z| z.cells.len()));
            None
        }
    }
}

/// Runs whole rounds until `seconds` have passed (at least one round).
pub fn run_rounds(
    state: &mut State,
    seconds: f64,
    m: &mut Measures,
    mut layers: Option<&mut Layers>,
) {
    let start = Instant::now();
    loop {
        state.round(m, layers.as_deref_mut());
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

/// Peak resident set of this process (VmHWM), in bytes.
pub fn peak_rss_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0)
}

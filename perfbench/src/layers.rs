//! The traced run: the same operations on the same inputs, with the calls
//! into each layer's public functions timed from the benchmark's own code.
//!
//! * Before each traced publish, the layers the publish is made of are
//!   built once more, one at a time, on the same live points: quadrant
//!   sweep, the four reflected sweeps, the global diagram (on the
//!   workload's pool and on the other configuration), the polyomino merge,
//!   the subcell grid, the dynamic diagram and the whole index.
//! * Each traced query times the epoch acquire and the serve call apart;
//!   after the burst, the same queries are replayed as raw index lookups,
//!   timed per batch (a lookup is far below the cost of a timer read).
//! * Each traced save and restart times the container encode and decode
//!   apart.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use skyline_core::container;
use skyline_core::diagram::merge::merge;
use skyline_core::dynamic::SubcellGrid;
use skyline_core::geometry::{Dataset, Point};
use skyline_core::index::SkylineIndexBuilder;
use skyline_core::maintained::Handle;
use skyline_core::parallel::ParallelConfig;
use skyline_core::telemetry::mem;
use skyline_serve::Snapshot;

use crate::gen::Rng;
use crate::stats::median;
use crate::workload::{next_query, Kind, Measures, Spec, State};

/// Queries replayed as raw lookups per burst, at most.
const REPLAY_CAP: usize = 200_000;

fn alloc_bytes() -> u64 {
    mem::stats().alloc_bytes
}

/// Times `f`, returning its output, wall milliseconds and bytes allocated.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let a0 = alloc_bytes();
    let t0 = Instant::now();
    let out = f();
    let elapsed = t0.elapsed().as_secs_f64() * 1e3;
    let mb = (alloc_bytes() - a0) as f64 / 1e6;
    (out, elapsed, mb)
}

fn reflect(ds: &Dataset, flip_x: bool, flip_y: bool) -> Dataset {
    let sign = |flip: bool| if flip { -1 } else { 1 };
    Dataset::new(
        ds.points()
            .iter()
            .map(|p| Point::new(sign(flip_x) * p.x, sign(flip_y) * p.y))
            .collect(),
    )
    .expect("reflection keeps coordinates in range")
}

/// Per-query layer times of the traced bursts.
#[derive(Default)]
pub struct QueryTrace {
    acquire_ns: u64,
    acquires: u64,
    call_ns: [u64; 4],
    calls: [u64; 4],
    index_ns: [u64; 3],
    index_lookups: [u64; 3],
    allocs: u64,
    queries: u64,
    hits: u64,
    misses: u64,
    cache_before: (u64, u64),
    allocs_before: u64,
}

impl QueryTrace {
    pub fn start_burst(&mut self, pinned: &Snapshot) {
        let stats = pinned.cache_stats();
        self.cache_before = (stats.hits, stats.misses);
        self.allocs_before = mem::stats().allocs;
    }

    pub fn record(&mut self, kind: Kind, acquire_ns: u64, call_ns: u64) {
        self.acquire_ns += acquire_ns;
        self.acquires += 1;
        self.call_ns[kind.slot()] += call_ns;
        self.calls[kind.slot()] += 1;
    }

    /// Closes a burst: allocator and cache deltas, then the raw index
    /// lookups of the same queries.
    pub fn finish_burst(
        &mut self,
        pinned: &Snapshot,
        spec: &Spec,
        mut replay: Rng,
        model: &[(Handle, Point)],
        hot: &[Point],
    ) {
        self.allocs += mem::stats().allocs - self.allocs_before;
        self.queries += spec.burst as u64;
        let stats = pinned.cache_stats();
        self.hits += stats.hits - self.cache_before.0;
        self.misses += stats.misses - self.cache_before.1;

        let Some(index) = pinned.index() else {
            return;
        };
        let mut points: [Vec<Point>; 3] = Default::default();
        for _ in 0..spec.burst.min(REPLAY_CAP) {
            let (kind, q) = next_query(&mut replay, spec, model, hot);
            if kind != Kind::SafeZone {
                points[kind.slot()].push(q);
            }
        }
        self.time_lookups(0, &points[0], |q| index.quadrant(q).len());
        if let Some(d) = index.global_diagram() {
            self.time_lookups(1, &points[1], |q| d.query(q).len());
        }
        if let Some(d) = index.dynamic_diagram() {
            self.time_lookups(2, &points[2], |q| d.query(q).len());
        }
    }

    fn time_lookups(&mut self, slot: usize, points: &[Point], lookup: impl Fn(Point) -> usize) {
        let t0 = Instant::now();
        for &q in points {
            black_box(lookup(black_box(q)));
        }
        self.index_ns[slot] += t0.elapsed().as_nanos() as u64;
        self.index_lookups[slot] += points.len() as u64;
    }
}

/// Per-layer samples of a traced run.
pub struct Layers {
    pub queries: QueryTrace,
    samples: BTreeMap<&'static str, Vec<f64>>,
    timer_ns: f64,
}

impl Layers {
    pub fn new(timer_ns: f64) -> Self {
        Layers {
            queries: QueryTrace::default(),
            samples: BTreeMap::new(),
            timer_ns,
        }
    }

    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| median(v))
    }

    /// Builds each layer of the coming publish on the same live points.
    /// Returns the summed time of the builds a publish is made of
    /// (quadrant, merge, global, dynamic) and the whole index build's.
    pub fn measure_builds(&mut self, state: &State) -> (f64, f64) {
        let spec = state.spec;
        let opts = spec.options();
        let cfg = spec.parallel();
        let ds = state.model_dataset();

        let (quadrant, t, mb) = timed(|| opts.engine.build_with(&ds, &cfg));
        let mut layers_ms = t;
        let cells = quadrant.grid().cell_count() as f64;
        self.push("quadrant.build_ms", t);
        self.push("quadrant.alloc_mb", mb);
        self.push("quadrant.build_ns_per_cell", t * 1e6 / cells);
        self.push("geometry.cells", cells);
        self.push(
            "result_set.quadrant_results",
            quadrant.results().len() as f64,
        );

        let (merged, t, _) = timed(|| merge(&quadrant));
        self.push("diagram.merge_ms", t);
        layers_ms += t;
        self.push("diagram.polyominoes", merged.len() as f64);
        drop((quadrant, merged));

        if spec.with_global {
            let reflected_ms: f64 = [(false, false), (true, false), (true, true), (false, true)]
                .iter()
                .map(|&(fx, fy)| {
                    let r = reflect(&ds, fx, fy);
                    timed(|| opts.engine.build_with(&r, &cfg)).1
                })
                .sum();
            let (global, t, mb) =
                timed(|| skyline_core::global::build_with(&ds, opts.engine, &cfg));
            self.push("global.build_ms", t);
            layers_ms += t;
            self.push("global.alloc_mb", mb);
            self.push("global.union_ms", t - reflected_ms);
            self.push("result_set.global_results", global.results().len() as f64);
            drop(global);
            let other = if cfg.is_sequential() {
                ParallelConfig::from_env()
            } else {
                ParallelConfig::sequential()
            };
            let (_, t_other, _) =
                timed(|| skyline_core::global::build_with(&ds, opts.engine, &other));
            let (seq, pool) = if cfg.is_sequential() {
                (t, t_other)
            } else {
                (t_other, t)
            };
            self.push("parallel.global_speedup", seq / pool);
        }

        if spec.with_dynamic {
            let (grid, t, _) = timed(|| SubcellGrid::new_with(&ds, &cfg));
            self.push("dynamic.subcell_grid_ms", t);
            let subcells = grid.subcell_count() as f64;
            self.push("dynamic.subcells", subcells);
            drop(grid);
            let (dynamic, t, mb) = timed(|| opts.dynamic_engine.build_with(&ds, &cfg));
            self.push("dynamic.build_ms", t);
            layers_ms += t;
            self.push("dynamic.alloc_mb", mb);
            self.push("dynamic.build_ns_per_subcell", t * 1e6 / subcells);
            self.push("result_set.dynamic_results", dynamic.results().len() as f64);
        }

        let builder = SkylineIndexBuilder::default()
            .engine(opts.engine)
            .dynamic_engine(opts.dynamic_engine)
            .with_global(opts.with_global)
            .with_dynamic(opts.with_dynamic);
        let (index, t, _) = timed(|| builder.build_with(&ds, &cfg));
        self.push("index.build_ms", t);
        self.push("index.heap_mb", index.heap_bytes() as f64 / 1e6);
        (layers_ms, t)
    }

    /// Reconciles one publish against the builds measured just before it
    /// on the same points, so host drift between the two cancels.
    pub fn pair_publish(&mut self, (layers_ms, index_ms): (f64, f64), publish_ms: f64) {
        self.push("reconcile.publish_layers_ms", layers_ms);
        self.push("reconcile.publish_remainder_ms", publish_ms - layers_ms);
        self.push("serve.publish_overhead_ms", publish_ms - index_ms);
    }

    pub fn measure_encode(&mut self, snap: &Snapshot) {
        if let Some(index) = snap.index() {
            let (bytes, t, _) = timed(|| container::encode_index(index, snap.handles()));
            self.push("container.encode_ms", t);
            drop(bytes);
        }
    }

    /// Times a decode of `bytes`; returns the milliseconds.
    pub fn measure_decode(&mut self, bytes: &[u8]) -> f64 {
        let (loaded, t, _) = timed(|| container::decode_index(bytes));
        drop(loaded);
        self.push("container.decode_ms", t);
        t
    }

    /// The per-layer metrics. The layer sums are reconciled against the
    /// traced half's own publishes and queries (measured alongside them);
    /// the tracing overhead is traced − untraced. Layers that do not run
    /// on the workload read 0.
    pub fn report(
        &self,
        untraced: &Measures,
        traced: &Measures,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let q = &self.queries;
        let per = |sum: u64, n: u64| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
        let timer = self.timer_ns;
        let serve = |k: Kind| {
            let n = q.calls[k.slot()];
            if n == 0 {
                0.0
            } else {
                per(q.call_ns[k.slot()], n) - timer
            }
        };
        let index = |k: Kind| per(q.index_ns[k.slot()], q.index_lookups[k.slot()]);
        let acquire = per(q.acquire_ns, q.acquires) - timer;

        // Translation: serve minus raw lookup, weighted by the mix.
        let lookups = [Kind::Quadrant, Kind::Global, Kind::Dynamic];
        let lookup_calls: u64 = lookups.iter().map(|k| q.calls[k.slot()]).sum();
        let translate = lookups
            .iter()
            .map(|&k| (serve(k) - index(k)) * q.calls[k.slot()] as f64)
            .sum::<f64>()
            / lookup_calls.max(1) as f64;
        let all_calls: u64 = q.calls.iter().sum();
        let serve_mix = Kind::ALL
            .iter()
            .map(|&k| serve(k) * q.calls[k.slot()] as f64)
            .sum::<f64>()
            / all_calls.max(1) as f64;

        let query_layers = acquire + serve_mix;

        let m = |name: &'static str, unit: &'static str| (name, self.median(name), unit);
        vec![
            m("quadrant.build_ms", "ms"),
            m("quadrant.alloc_mb", "MB"),
            m("quadrant.build_ns_per_cell", "ns"),
            m("global.build_ms", "ms"),
            m("global.union_ms", "ms"),
            m("global.alloc_mb", "MB"),
            m("parallel.global_speedup", "x"),
            m("diagram.merge_ms", "ms"),
            m("dynamic.subcell_grid_ms", "ms"),
            m("dynamic.build_ms", "ms"),
            m("dynamic.alloc_mb", "MB"),
            m("dynamic.build_ns_per_subcell", "ns"),
            m("index.build_ms", "ms"),
            m("serve.publish_overhead_ms", "ms"),
            ("index.quadrant_ns", index(Kind::Quadrant), "ns"),
            ("index.global_ns", index(Kind::Global), "ns"),
            ("index.dynamic_ns", index(Kind::Dynamic), "ns"),
            ("serve.quadrant_ns", serve(Kind::Quadrant), "ns"),
            ("serve.global_ns", serve(Kind::Global), "ns"),
            ("serve.dynamic_ns", serve(Kind::Dynamic), "ns"),
            ("serve.safe_zone_ns", serve(Kind::SafeZone), "ns"),
            ("serve.translate_ns", translate, "ns"),
            ("serve.allocs_per_query", per(q.allocs, q.queries), "count"),
            (
                "serve.cache_hit_ratio",
                per(q.hits, q.hits + q.misses),
                "ratio",
            ),
            ("epoch.acquire_ns", acquire, "ns"),
            m("container.encode_ms", "ms"),
            m("container.decode_ms", "ms"),
            m("container.restart_overhead_ms", "ms"),
            m("index.heap_mb", "MB"),
            m("result_set.quadrant_results", "count"),
            m("result_set.global_results", "count"),
            m("result_set.dynamic_results", "count"),
            m("geometry.cells", "count"),
            m("dynamic.subcells", "count"),
            m("diagram.polyominoes", "count"),
            m("reconcile.publish_layers_ms", "ms"),
            m("reconcile.publish_remainder_ms", "ms"),
            ("reconcile.query_layers_ns", query_layers, "ns"),
            (
                "reconcile.query_remainder_ns",
                traced.query_p50_ns() - query_layers,
                "ns",
            ),
            (
                "trace.publish_overhead_ms",
                traced.publish_p50_ms() - untraced.publish_p50_ms(),
                "ms",
            ),
            (
                "trace.query_overhead_ns",
                traced.query_p50_ns() - untraced.query_p50_ns(),
                "ns",
            ),
            ("bench.timer_ns", timer, "ns"),
        ]
    }
}

/// The cost of one timer read pair: the median gap between two
/// back-to-back `Instant::now()` calls.
pub fn timer_cost_ns() -> f64 {
    let gaps: Vec<f64> = (0..20_001)
        .map(|_| {
            let t0 = Instant::now();
            let t1 = Instant::now();
            t1.duration_since(t0).as_nanos() as f64
        })
        .collect();
    median(&gaps)
}

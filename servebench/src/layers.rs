//! Replays of the deeper layers for the traced run: the CPU engine, the
//! forest layouts and their per-query work, and the modeled devices.
//!
//! These call internal crate APIs directly and are kept apart from the
//! timed serving path, so a refactor of those APIs touches only this file.

use crate::stats::median;
use rfx_core::hier::builder::build_forest;
use rfx_core::memprobe::CountingSink;
use rfx_core::{FilForest, FrequencyProfile, HierForest, PackPlan, PackedFilForest};
use rfx_forest::dataset::QueryView;
use rfx_forest::{Dataset, RandomForest};
use rfx_fpga_sim::{FpgaConfig, Replication};
use rfx_gpu_sim::{GpuConfig, GpuSim};
use rfx_kernels::engine::{Predictor, ShardedEngine, TreeEnsemble};
use rfx_kernels::fpga::independent::run_independent;
use rfx_kernels::gpu::hybrid::run_hybrid;
use rfx_telemetry::TraceRecorder;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time each engine measurement runs for.
const ENGINE_BUDGET: Duration = Duration::from_millis(400);
/// Rows the per-query work counts are averaged over.
const WORK_ROWS: usize = 4_096;
/// Rows of the profile the packed layout is built from.
const CALIBRATION_ROWS: usize = 256;
/// Rows of the block the modeled devices run.
const DEVICE_ROWS: usize = 256;
/// Repetitions of each layout build; the median is reported.
const BUILD_REPS: usize = 3;

/// Per-layer readings of the replays, plus how many of the replayed
/// predict calls were checked against the serial reference and how many
/// of those disagreed with it.
pub struct Replays {
    pub metrics: Vec<(&'static str, f64)>,
    pub checked: usize,
    pub wrong: usize,
}

impl Replays {
    fn check(&mut self, got: &[u32], expected: &[u32]) {
        self.checked += 1;
        self.wrong += usize::from(got != expected);
    }
}

fn view(pool: &Dataset, rows: std::ops::Range<usize>) -> QueryView<'_> {
    let nf = pool.num_features();
    QueryView::new(&pool.raw_features()[rows.start * nf..rows.end * nf], nf)
        .expect("pool rows are well shaped")
}

/// Rows per second of `engine` over consecutive `block`-row blocks of the
/// pool, for about [`ENGINE_BUDGET`].
fn engine_rows_per_s<E: TreeEnsemble>(
    engine: &ShardedEngine<E>,
    pool: &Dataset,
    reference: &[u32],
    block: usize,
    replays: &mut Replays,
) -> f64 {
    let blocks = pool.num_rows() / block;
    let mut out = vec![0u32; block];
    let (mut rows, mut i) = (0usize, 0usize);
    let start = Instant::now();
    while i < 3 || start.elapsed() < ENGINE_BUDGET {
        let lo = (i % blocks) * block;
        engine.predict_into(black_box(view(pool, lo..lo + block)), &mut out);
        replays.check(black_box(&out), &reference[lo..lo + block]);
        rows += block;
        i += 1;
    }
    rows as f64 / start.elapsed().as_secs_f64()
}

/// Runs `f` inside a span named `name`, nested under the open span.
fn time<T>(tracer: &TraceRecorder, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = tracer.start_span(name);
    f()
}

fn median_secs(reps: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f()?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

/// Runs every replay on `forest` (the deployed forest), its served
/// hierarchical layout `hier`, and the workload's query `pool`.
/// `occupancy` is the mean batch occupancy the traced pass measured.
pub fn replay(
    forest: &RandomForest,
    hier: &HierForest,
    pool: &Dataset,
    reference: &[u32],
    occupancy: f64,
    tracer: &TraceRecorder,
) -> Result<Replays, String> {
    let mut r = Replays { metrics: Vec::new(), checked: 0, wrong: 0 };
    let _replay = tracer.start_span("replay");

    // rfx-kernels: the engine the `cpu-sharded` backend runs, and the
    // same engine over the packed layout.
    let sharded = ShardedEngine::new(forest);
    let b2048 = time(tracer, "kernels.sharded.b2048", || {
        engine_rows_per_s(&sharded, pool, reference, 2_048, &mut r)
    });
    let occ = (occupancy.round() as usize).clamp(1, pool.num_rows());
    let bocc = time(tracer, "kernels.sharded.bocc", || {
        engine_rows_per_s(&sharded, pool, reference, occ, &mut r)
    });
    let calibration = view(pool, 0..CALIBRATION_ROWS);
    let profile = FrequencyProfile::collect(forest, calibration);
    let packed = PackedFilForest::build(forest, &profile, PackPlan::default())
        .map_err(|e| format!("PackedFilForest::build: {e}"))?;
    let packed_engine = ShardedEngine::new(&packed);
    let packed_b2048 = time(tracer, "kernels.packed_fil.b2048", || {
        engine_rows_per_s(&packed_engine, pool, reference, 2_048, &mut r)
    });
    r.metrics.push(("kernels.sharded.rows_per_s.b2048", b2048));
    r.metrics.push(("kernels.sharded.rows_per_s.bocc", bocc));
    r.metrics.push(("kernels.packed_fil.rows_per_s.b2048", packed_b2048));

    // rfx-core: per-query work through the traced FIL traversal.
    let fil = FilForest::build(forest);
    let rows = WORK_ROWS.min(pool.num_rows());
    let sink = time(tracer, "core.work", || {
        let mut sink = CountingSink::default();
        for q in 0..rows {
            for t in 0..fil.num_trees() {
                fil.predict_tree_traced(t, pool.row(q), &mut sink);
            }
        }
        sink
    });
    let bytes = sink.attribute_bytes + sink.topology_bytes + 4 * sink.query_fetches;
    r.metrics.push(("core.work.nodes_per_query", sink.attribute_fetches as f64 / rows as f64));
    r.metrics.push(("core.work.bytes_per_query", bytes as f64 / rows as f64));
    r.metrics.push(("core.resident_bytes.forest", TreeEnsemble::footprint(forest).total() as f64));
    r.metrics.push(("core.resident_bytes.hier", hier.footprint().total() as f64));
    r.metrics.push(("core.resident_bytes.packed_fil", packed.footprint().total() as f64));

    let cfg = hier.config();
    let hier_s = time(tracer, "core.hier_build", || {
        median_secs(BUILD_REPS, || {
            build_forest(black_box(forest), cfg).map(drop).map_err(|e| format!("build_forest: {e}"))
        })
    });
    let pack_s = time(tracer, "core.pack_build", || {
        median_secs(BUILD_REPS, || {
            let profile = FrequencyProfile::collect(black_box(forest), calibration);
            PackedFilForest::build(forest, &profile, PackPlan::default())
                .map(drop)
                .map_err(|e| format!("PackedFilForest::build: {e}"))
        })
    });
    let (hier_s, pack_s) = (hier_s?, pack_s?);
    r.metrics.push(("core.hier_build_s", hier_s));
    r.metrics.push(("core.pack_build_s", pack_s));

    // rfx-gpu-sim and rfx-fpga-sim: modeled device time on one block.
    let block = view(pool, 0..DEVICE_ROWS.min(pool.num_rows()));
    let expected = &reference[..block.num_rows()];
    let sim = GpuSim::new(GpuConfig::titan_xp());
    let gpu = time(tracer, "gpusim.hybrid", || run_hybrid(&sim, hier, block))
        .map_err(|e| format!("run_hybrid: {e:?}"))?;
    r.check(&gpu.predictions, expected);
    let fpga = FpgaConfig::alveo_u250();
    let fpga_run = time(tracer, "fpgasim.independent", || {
        run_independent(&fpga, Replication::single(&fpga), hier, block)
    })
    .map_err(|e| format!("run_independent: {e:?}"))?;
    r.check(&fpga_run.predictions, expected);
    r.metrics.push(("gpusim.hybrid.device_ms", gpu.stats.device_seconds * 1e3));
    r.metrics.push(("gpusim.global_load_transactions", gpu.stats.global_load_transactions as f64));
    r.metrics.push(("fpgasim.independent.ms", fpga_run.stats.seconds * 1e3));

    Ok(r)
}

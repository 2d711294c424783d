//! rfx serving benchmark.
//!
//! ```text
//! rfx-servebench fixtures --cache DIR
//! rfx-servebench run --workload NAME --seed N --seconds S --trace 0|1 --cache DIR --out DIR
//! ```
//!
//! `fixtures` trains (or verifies) the two cached forests. `run` deploys
//! the workload's forest, offers it load for `--seconds` and prints a
//! report followed, on the last line, by one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` they are the per-layer ones, and
//! the spans recorded are written to `DIR/trace-<workload>.json` in the
//! Chrome trace format.

mod drive;
mod fixtures;
mod layers;
mod metrics;
mod stats;
mod workload;

use drive::{deploy, open_loop, DeployTimes, Pass};
use rfx_bench::tracestats::self_time_by_name;
use rfx_forest::serialize::read_forest;
use rfx_forest::Dataset;
use rfx_serve::RfxServe;
use rfx_telemetry::export::to_chrome_trace;
use rfx_telemetry::{Snapshot, TraceConfig, TraceRecorder, TraceSnapshot};
use stats::{quantile, sorted, tail_percentile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{query_pool, Workload, POOL_ROWS};

/// Cold deploys per run, at least; `setup_s` is their 10th percentile.
/// Half run before the load and half after it: the machine's speed
/// drifts over seconds, and one burst of deploys would sample a single
/// moment.
const DEPLOYS: usize = 30;

/// Each half keeps deploying until it has also run this long, so a
/// small forest, whose deploys take milliseconds, gets enough samples,
/// and each half outlasts the host's shorter slow spells.
const DEPLOY_TIME: Duration = Duration::from_secs(2);

/// Completed spans a traced run keeps: room for every span of a 60 s
/// run of the heaviest workload.
const SPAN_CAPACITY: usize = 1 << 21;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    cache: PathBuf,
    out: PathBuf,
}

fn flag(args: &[String], name: &str) -> Result<String, String> {
    let key = format!("--{name}");
    args.iter()
        .position(|a| *a == key)
        .and_then(|i| args.get(i + 1).cloned())
        .ok_or_else(|| format!("missing {key} <value>"))
}

fn parse_run(args: &[String]) -> Result<Args, String> {
    let name = flag(args, "workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; expected one of {}", names.join(", "))
    })?;
    let seed = flag(args, "seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = flag(args, "seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let trace = match flag(args, "trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?}; expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        cache: flag(args, "cache")?.into(),
        out: flag(args, "out")?.into(),
    })
}

/// A memory figure of this process from `/proc/self/status`, MiB:
/// `VmHWM` is the peak resident set, `VmRSS` the current one.
fn status_mib(key: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no {key} in /proc/self/status"))?;
    Ok(kib / 1024.0)
}

/// Steal and total CPU time of the whole machine so far, in clock ticks
/// (`/proc/stat`), or `None` where it is not available. Time the
/// hypervisor gives to other guests shows up as steal.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// The workload's inputs and the serial-reference labels, prepared
/// outside any timed region.
struct Inputs {
    bytes: Vec<u8>,
    pool: Dataset,
    reference: Vec<u32>,
}

/// The forest parsed here only labels the pool and is dropped before
/// the first deploy, so the only parsed forests resident while serving
/// are the served ones.
fn prepare_inputs(args: &Args) -> Result<Inputs, String> {
    let bytes = fixtures::load(&args.cache, &args.workload.fixture())?;
    let forest = read_forest(&bytes[..]).map_err(|e| format!("read_forest: {e}"))?;
    let pool = query_pool(args.seed, POOL_ROWS);
    let reference = (0..pool.num_rows()).map(|r| forest.predict(pool.row(r))).collect();
    Ok(Inputs { bytes, pool, reference })
}

/// A span recorder that records every span, or none.
fn tracer(enabled: bool) -> Arc<TraceRecorder> {
    let sample_every_n = u64::from(enabled);
    Arc::new(TraceRecorder::with_config(TraceConfig { sample_every_n, capacity: SPAN_CAPACITY }))
}

/// Deploys at least `n` times and for at least [`DEPLOY_TIME`], keeping
/// the last service running.
fn deploy_repeatedly(
    bytes: &[u8],
    n: usize,
    tracer: &TraceRecorder,
) -> Result<(RfxServe, Vec<DeployTimes>), String> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    let start = Instant::now();
    while times.len() < n || start.elapsed() < DEPLOY_TIME {
        // Stop the previous service before timing the next deploy.
        drop(last.take());
        let (serve, t) = deploy(bytes, tracer)?;
        times.push(t);
        last = Some(serve);
    }
    Ok((last.expect("at least one deploy"), times))
}

fn offer_load(
    serve: &RfxServe,
    inputs: &Inputs,
    args: &Args,
    span: Duration,
    tracer: &Arc<TraceRecorder>,
) -> Pass {
    let rate = args.workload.rate_per_s();
    open_loop(serve, &inputs.pool, &inputs.reference, args.seed, rate, span, tracer)
}

/// One reported number.
struct Reading {
    name: &'static str,
    unit: &'static str,
    value: f64,
    note: String,
}

fn reading(name: &'static str, value: f64, note: String) -> Reading {
    let unit = metrics::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(metrics::PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("{name} is not in the metric catalog"));
    Reading { name, unit, value, note }
}

/// Median and tail of a pass's request latencies, with sample counts.
fn latency_note(pass: &Pass) -> (f64, String) {
    let lat = sorted(&pass.latencies_ms());
    if lat.is_empty() {
        return (f64::NAN, "no request was answered".into());
    }
    let tail = match tail_percentile(lat.len()) {
        Some(p) => format!("p{} {:.3} ms", p * 100.0, quantile(&lat, p)),
        None => "too few samples for a tail percentile".into(),
    };
    (quantile(&lat, 0.5), format!("n={}, {tail}", lat.len()))
}

fn end_to_end(times: &[DeployTimes], pass: &Pass, rss_before: f64) -> Result<Vec<Reading>, String> {
    let setup: Vec<f64> = times.iter().map(DeployTimes::total_s).collect();
    let (p50, lat_note) = latency_note(pass);
    let median_s = stats::median(&setup);
    Ok(vec![
        reading(
            "setup_s",
            stats::setup_s(&setup),
            format!("10th percentile of n={} deploys; median {median_s:.4} s", setup.len()),
        ),
        reading("request_p50_ms", p50, lat_note),
        reading(
            "goodput_rps",
            pass.goodput_rps(),
            format!("n={} requests in {:.3} s", pass.outcomes.len(), pass.window_s),
        ),
        reading(
            "rss_peak_mb",
            status_mib("VmHWM")?,
            format!("VmHWM; {rss_before:.1} MiB resident before the first deploy"),
        ),
    ])
}

fn ms(ns: &[u64], q: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e6).collect();
    quantile(&sorted(&v), q)
}

struct Traced {
    readings: Vec<Reading>,
    attempted: usize,
    failed: usize,
    wrong: usize,
}

/// The traced run: an untraced pass and a traced pass of half the
/// seconds each, on separate deployments, then the layer replays.
fn per_layer(
    args: &Args,
    inputs: &Inputs,
    serve: RfxServe,
    tracer: &Arc<TraceRecorder>,
) -> Result<Traced, String> {
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let untraced_tracer = self::tracer(false);
    let untraced = offer_load(&serve, inputs, args, half, &untraced_tracer);
    drop(serve);
    let (serve, _) = deploy(&inputs.bytes, &untraced_tracer)?;
    let traced = offer_load(&serve, inputs, args, half, tracer);
    let st = serve.stats();
    let model = serve.model();
    drop(serve);

    let traverse = st
        .backends
        .iter()
        .find(|b| b.backend == "cpu-sharded")
        .ok_or("no cpu-sharded backend in the stats")?
        .batch_latency
        .clone();
    let backlog_us =
        st.request_latency.p50_us as f64 - st.queue_wait.p50_us as f64 - traverse.p50_us as f64;
    let (p50_untraced, _) = latency_note(&untraced);
    let (p50_traced, _) = latency_note(&traced);
    let late = &untraced.late_ns;
    let lat = sorted(&untraced.latencies_ms());
    let tail = |q: f64| if lat.is_empty() { 0.0 } else { quantile(&lat, q) };
    let mut readings = vec![
        reading(
            "serve.submit_us_p50",
            ms(&traced.submit_ns, 0.5) * 1e3,
            format!("n={}", traced.submit_ns.len()),
        ),
        reading(
            "serve.queue_wait_p50_us",
            st.queue_wait.p50_us as f64,
            format!("n={}", st.queue_wait.count),
        ),
        reading(
            "serve.batch_occupancy_mean",
            st.mean_batch_occupancy,
            format!("{} batches", st.batches),
        ),
        reading("serve.batches", st.batches as f64, format!("{} rows", st.completed_rows)),
        reading("serve.traverse_us_p50", traverse.p50_us as f64, format!("n={}", traverse.count)),
        reading(
            "serve.backlog_ms_p50",
            backlog_us / 1e3,
            format!(
                "request {} us - queue wait {} us - batch {} us (p50s)",
                st.request_latency.p50_us, st.queue_wait.p50_us, traverse.p50_us
            ),
        ),
        reading("serve.rejected", st.rejected_rows as f64, "rows".into()),
        reading(
            "serve.failed",
            (st.failed_requests + st.shed_requests) as f64,
            "failed + shed requests".into(),
        ),
    ];
    let replays = layers::replay(
        model.forest(),
        model.hier(),
        &inputs.pool,
        &inputs.reference,
        st.mean_batch_occupancy,
        tracer,
    )?;
    readings.extend(replays.metrics.iter().map(|&(name, v)| reading(name, v, String::new())));
    readings.extend([
        reading("loadgen.late_ms_p99", ms(late, 0.99), format!("n={}", late.len())),
        reading("loadgen.late_ms_max", ms(late, 1.0), format!("n={}", late.len())),
        reading("request_p99_ms", tail(0.99), format!("n={}", lat.len())),
        reading("request_p999_ms", tail(0.999), format!("n={}", lat.len())),
        reading(
            "trace.overhead",
            p50_traced / p50_untraced,
            format!("request p50 traced {p50_traced:.4} ms / untraced {p50_untraced:.4} ms"),
        ),
    ]);
    println!(
        "  collector found {} of {} tickets already resolved (untraced pass)",
        untraced.ready_on_arrival, untraced.attempted
    );
    Ok(Traced {
        readings,
        attempted: untraced.attempted + traced.attempted + replays.checked,
        failed: untraced.failed + traced.failed + replays.wrong,
        wrong: untraced.wrong + traced.wrong + replays.wrong,
    })
}

/// Each set-up call over the deploys, at the quantile `setup_s` reports.
fn deploy_readings(times: &[DeployTimes]) -> Vec<Reading> {
    let pick =
        |f: fn(&DeployTimes) -> f64| stats::setup_s(&times.iter().map(f).collect::<Vec<_>>());
    let note = || format!("10th percentile of n={}", times.len());
    vec![
        reading("forest.read_s", pick(|t| t.read_s), note()),
        reading("serve.prepare_s", pick(|t| t.prepare_s), note()),
        reading("serve.start_s", pick(|t| t.start_s), note()),
    ]
}

/// What the measured part of a run produced.
enum Measured {
    Untraced(Pass),
    Traced(Traced),
}

fn write_spans(dir: &Path, workload: Workload, trace: TraceSnapshot) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", workload.name()));
    let snapshot = Snapshot { metrics: Default::default(), trace };
    std::fs::write(&path, to_chrome_trace(&snapshot))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

fn run(args: &Args) -> Result<(), String> {
    let inputs = prepare_inputs(args)?;
    let rss_before = status_mib("VmRSS")?;
    let ticks_before = cpu_ticks();
    let tracer = tracer(args.trace);
    let (serve, mut times) = deploy_repeatedly(&inputs.bytes, DEPLOYS / 2, &tracer)?;
    let fixture = args.workload.fixture();
    println!(
        "workload {} seed {} seconds {} trace {} forest {} ({} trees, depth {}), {} threads available",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fixture.name,
        fixture.trees,
        fixture.depth,
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    );
    let measured = if args.trace {
        Measured::Traced(per_layer(args, &inputs, serve, &tracer)?)
    } else {
        let span = Duration::from_secs_f64(args.seconds);
        let pass = offer_load(&serve, &inputs, args, span, &tracer);
        drop(serve);
        Measured::Untraced(pass)
    };
    let (last, more) = deploy_repeatedly(&inputs.bytes, DEPLOYS / 2, &tracer)?;
    drop(last);
    times.extend(more);
    let (readings, attempted, failed, wrong) = match measured {
        Measured::Traced(t) => {
            let mut readings = deploy_readings(&times);
            readings.extend(t.readings);
            (readings, t.attempted, t.failed, t.wrong)
        }
        Measured::Untraced(pass) => {
            (end_to_end(&times, &pass, rss_before)?, pass.attempted, pass.failed, pass.wrong)
        }
    };

    for r in &readings {
        let about = metrics::PER_LAYER
            .iter()
            .find(|m| m.name == r.name)
            .map(|m| format!("{} is better; moves {}", m.better, m.moves))
            .or_else(|| {
                let m = metrics::END_TO_END.iter().find(|m| m.name == r.name)?;
                Some(format!("{} is better; {}", m.better, m.what))
            })
            .unwrap_or_default();
        println!("  {:<36} {:>16.4} {:<10} {}  [{about}]", r.name, r.value, r.unit, r.note);
    }
    println!("  attempted {attempted}, failed {failed}, wrong answers {wrong}");
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, cpu_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!("  host steal: {:.1}% of CPU time during the run", 100.0 * share);
    }
    if args.trace {
        let snapshot = tracer.snapshot();
        if snapshot.dropped > 0 {
            return Err(format!("{} spans did not fit the recorder", snapshot.dropped));
        }
        let table = self_time_by_name(&snapshot);
        let spans = snapshot.spans.len();
        let path = write_spans(&args.out, args.workload, snapshot)?;
        println!("  {spans} spans written to {}; self time per span name:", path.display());
        for row in table {
            println!("    {:<36} n={:<8} {:.3} ms", row.name, row.count, row.self_us as f64 / 1e3);
        }
    }
    if let Some(bad) = readings.iter().find(|r| !r.value.is_finite()) {
        return Err(format!("{} is not a finite number ({})", bad.name, bad.note));
    }
    let metrics: Vec<String> = readings
        .iter()
        .map(|r| format!(r#""{}": {{"value": {}, "unit": "{}"}}"#, r.name, r.value, r.unit))
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        wrong == 0,
        metrics.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("fixtures") => flag(&args, "cache").and_then(|cache| {
            let cache = PathBuf::from(cache);
            [fixtures::LIGHT, fixtures::DEEP].iter().try_for_each(|f| fixtures::ensure(&cache, f))
        }),
        Some("run") => parse_run(&args).and_then(|a| run(&a)),
        _ => Err("usage: rfx-servebench fixtures --cache DIR | run --workload NAME --seed N \
                  --seconds S --trace 0|1 --cache DIR --out DIR"
            .into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rfx-servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

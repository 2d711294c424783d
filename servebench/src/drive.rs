//! The timed path: deploying the service and offering it load, through
//! the stable `rfx-serve` facade only.

use crate::stats::Outcome;
use crate::workload::{arrival_schedule, query_stream, GOODPUT_LIMIT, WARMUP};
use rfx_forest::serialize::read_forest;
use rfx_forest::Dataset;
use rfx_serve::{BackendKind, RfxServe, ServeConfig, ServeError, ServeModel, Ticket};
use rfx_telemetry::{OwnedSpan, TraceRecorder};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Every workload serves from a CPU-only pool, so routing never depends
/// on timing; every other setting is the shipped default.
pub fn serve_config() -> ServeConfig {
    ServeConfig { backends: vec![BackendKind::CpuSharded], ..ServeConfig::default() }
}

/// Seconds spent in each set-up call of one deploy.
#[derive(Debug, Clone, Copy)]
pub struct DeployTimes {
    pub read_s: f64,
    pub prepare_s: f64,
    pub start_s: f64,
}

impl DeployTimes {
    pub fn total_s(&self) -> f64 {
        self.read_s + self.prepare_s + self.start_s
    }
}

/// One cold deploy from serialized forest bytes already in memory:
/// `read_forest`, then `ServeModel::prepare`, then `RfxServe::start`.
pub fn deploy(bytes: &[u8], tracer: &TraceRecorder) -> Result<(RfxServe, DeployTimes), String> {
    let _deploy = tracer.start_span("deploy");
    let span = tracer.start_span("forest.read_forest");
    let t0 = Instant::now();
    let forest = read_forest(bytes).map_err(|e| format!("read_forest: {e}"))?;
    let t1 = Instant::now();
    drop(span);
    let span = tracer.start_span("serve.prepare");
    let t2 = Instant::now();
    let model = ServeModel::prepare(forest).map_err(|e| format!("ServeModel::prepare: {e}"))?;
    let t3 = Instant::now();
    drop(span);
    let span = tracer.start_span("serve.start");
    let t4 = Instant::now();
    let serve = RfxServe::start(model, serve_config());
    let t5 = Instant::now();
    drop(span);
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok((
        serve,
        DeployTimes { read_s: secs(t0, t1), prepare_s: secs(t2, t3), start_s: secs(t4, t5) },
    ))
}

/// What one pass of load produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Outcomes of the requests inside the measured window.
    pub outcomes: Vec<Outcome>,
    /// The measured window, from its start to the last answer in it.
    pub window_s: f64,
    /// Requests sent, warm-up included.
    pub attempted: usize,
    /// Requests that failed, warm-up included (`Outcome::failed`).
    pub failed: usize,
    /// Answers whose labels differ from the serial reference.
    pub wrong: usize,
    /// How late each measured request was sent, ns.
    pub late_ns: Vec<u64>,
    /// Time spent inside `submit`, per measured request, ns.
    pub submit_ns: Vec<u64>,
    /// Tickets already resolved when the collector reached them.
    pub ready_on_arrival: usize,
}

impl Pass {
    fn count(&mut self, outcome: Outcome) {
        self.attempted += 1;
        self.failed += usize::from(outcome.failed());
        self.wrong += usize::from(matches!(outcome, Outcome::Answered { correct: false, .. }));
    }

    /// Latencies of the answered measured requests, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Answered { latency_ns, .. } => Some(*latency_ns as f64 / 1e6),
                _ => None,
            })
            .collect()
    }

    /// Requests per second answered correctly within [`GOODPUT_LIMIT`].
    pub fn goodput_rps(&self) -> f64 {
        crate::stats::goodput_rps(&self.outcomes, GOODPUT_LIMIT.as_nanos() as u64, self.window_s)
    }
}

fn outcome_of(
    result: Result<Vec<u32>, ServeError>,
    expected: &[u32],
    latency: Duration,
) -> Outcome {
    match result {
        Ok(labels) => {
            Outcome::Answered { latency_ns: latency.as_nanos() as u64, correct: labels == expected }
        }
        Err(ServeError::Overloaded { .. }) => Outcome::Rejected,
        Err(_) => Outcome::Failed,
    }
}

/// A request in flight from the sender to the collector.
type Sent = (usize, Instant, OwnedSpan, Result<Ticket, ServeError>);

/// Open loop: one sender thread sleeps until each Poisson due time and
/// submits one row; one collector thread waits on the tickets in
/// submission order. Latency runs from the due time, so a late send or a
/// stall counts against every request it delays.
///
/// Each request is one trace in `tracer`: a `request` root from its due
/// time to its answer, with the `serve.submit` and `ticket.wait` spans
/// under it.
pub fn open_loop(
    serve: &RfxServe,
    pool: &Dataset,
    reference: &[u32],
    seed: u64,
    rate_per_s: f64,
    span: Duration,
    tracer: &Arc<TraceRecorder>,
) -> Pass {
    let due = arrival_schedule(seed, rate_per_s, WARMUP, span);
    let stream = query_stream(seed, due.len(), pool.num_rows());
    let measured_from = WARMUP.as_nanos() as u64;
    let first_measured = due.partition_point(|&d| d < measured_from);
    // Leave the threads a moment to start before the first due time.
    let start = Instant::now() + Duration::from_millis(5);
    let (tx, rx) = mpsc::channel::<Sent>();

    let (sender, collector) = thread::scope(|s| {
        let (due, stream) = (&due, &stream);
        let sender = s.spawn(move || {
            let mut late_ns = Vec::with_capacity(due.len() - first_measured);
            let mut submit_ns = Vec::with_capacity(due.len() - first_measured);
            for (i, &d) in due.iter().enumerate() {
                let due_at = start + Duration::from_nanos(d);
                let now = Instant::now();
                if now < due_at {
                    thread::sleep(due_at - now);
                }
                let request = tracer.start_owned("request", due_at);
                let submit = tracer.start_span_child_of("serve.submit", request.context());
                let t0 = Instant::now();
                let result = serve.submit(pool.row(stream[i] as usize));
                let t1 = Instant::now();
                drop(submit);
                if i >= first_measured {
                    late_ns.push(t0.saturating_duration_since(due_at).as_nanos() as u64);
                    submit_ns.push((t1 - t0).as_nanos() as u64);
                }
                tx.send((i, due_at, request, result)).expect("the collector outlives the sender");
            }
            (late_ns, submit_ns)
        });
        let collector = s.spawn(move || {
            let mut pass = Pass::default();
            for (i, due_at, request, result) in rx {
                let expected = &reference[stream[i] as usize..stream[i] as usize + 1];
                let outcome = match result {
                    Ok(ticket) => {
                        pass.ready_on_arrival += usize::from(ticket.is_ready());
                        let wait = tracer.start_span_child_of("ticket.wait", request.context());
                        let labels = ticket.wait();
                        let done = Instant::now();
                        drop(wait);
                        request.finish();
                        outcome_of(labels, expected, done.saturating_duration_since(due_at))
                    }
                    Err(e) => outcome_of(Err(e), expected, Duration::ZERO),
                };
                pass.count(outcome);
                if i >= first_measured {
                    pass.outcomes.push(outcome);
                }
            }
            // The channel closes after the last send, so this is the
            // last answer.
            pass.window_s = (Instant::now() - (start + WARMUP)).as_secs_f64();
            pass
        });
        (
            sender.join().expect("sender thread panicked"),
            collector.join().expect("collector thread panicked"),
        )
    });
    let ((late_ns, submit_ns), mut pass) = (sender, collector);
    pass.late_ns = late_ns;
    pass.submit_ns = submit_ns;
    pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::query_pool;
    use rfx_forest::serialize::write_forest;
    use rfx_forest::train::TrainConfig;
    use rfx_forest::RandomForest;
    use std::collections::HashMap;

    #[test]
    fn each_request_is_one_trace_holding_its_submit_and_wait() {
        let cfg = TrainConfig { n_trees: 4, max_depth: 6, seed: 1, ..TrainConfig::default() };
        let forest = RandomForest::fit(&query_pool(99, 512), &cfg).expect("a small forest trains");
        let mut bytes = Vec::new();
        write_forest(&forest, &mut bytes).expect("writing to memory succeeds");
        let pool = query_pool(7, 256);
        let reference: Vec<u32> =
            (0..pool.num_rows()).map(|r| forest.predict(pool.row(r))).collect();
        let tracer = Arc::new(TraceRecorder::with_capacity(1 << 16));

        let (serve, _) = deploy(&bytes, &tracer).expect("the forest deploys");
        let span = Duration::from_millis(200);
        let pass = open_loop(&serve, &pool, &reference, 7, 500.0, span, &tracer);
        drop(serve);

        // 500 requests in the 1 s warm-up, 100 measured.
        assert_eq!((pass.attempted, pass.outcomes.len()), (600, 100));
        assert_eq!((pass.failed, pass.wrong), (0, 0));
        let snapshot = tracer.snapshot();
        assert_eq!(snapshot.dropped, 0);
        let count = |name: &str| snapshot.spans.iter().filter(|s| s.name == name).count();
        assert_eq!([count("deploy"), count("serve.prepare"), count("request")], [1, 1, 600]);
        assert_eq!([count("serve.submit"), count("ticket.wait")], [600, 600]);
        let roots: HashMap<u64, u64> = snapshot
            .spans
            .iter()
            .filter(|s| s.name == "request")
            .map(|s| (s.id, s.trace))
            .collect();
        for s in
            snapshot.spans.iter().filter(|s| s.name == "serve.submit" || s.name == "ticket.wait")
        {
            assert_eq!(roots.get(&s.parent), Some(&s.trace), "{} outside its request", s.name);
        }
    }
}

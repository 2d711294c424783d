//! The metric catalog: every metric the benchmark reports, with its
//! unit, which direction is better and, for per-layer metrics, the
//! end-to-end metric and workload it should move. `BENCHMARK.json` at the
//! repository root lists the same names and units.

/// A metric the untraced run reports.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub what: &'static str,
}

/// A metric the traced run reports.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        what: "10th-percentile cold deploy: read_forest + ServeModel::prepare + RfxServe::start",
    },
    EndToEnd {
        name: "request_p50_ms",
        unit: "ms",
        better: "lower",
        what: "median request latency from its scheduled send time to its answer",
    },
    EndToEnd {
        name: "goodput_rps",
        unit: "1/s",
        better: "higher",
        what: "requests per second answered correctly within 10 ms",
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MiB",
        better: "lower",
        what: "peak resident memory of the serving process",
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

/// A doubled traversal raised request_p50_ms on singles-heavy by about
/// 15%, inside its bound (see the README).
const TRAVERSAL: &str = "request_p50_ms on singles-heavy, weakly: doubled traversal adds ~15%";
const DEVICES: &str = "no CPU-only end-to-end metric: the paper's modeled device result";
const NOT_GATED: &str = "nothing gated; a diagnostic of the run";

pub const PER_LAYER: [PerLayer; 29] = [
    layer("forest.read_s", "s", "lower", "setup_s on all workloads"),
    layer("serve.prepare_s", "s", "lower", "setup_s on singles-heavy"),
    layer("serve.start_s", "s", "lower", "setup_s on all workloads"),
    layer("serve.submit_us_p50", "us", "lower", "request_p50_ms on singles-heavy"),
    layer("serve.queue_wait_p50_us", "us", "lower", "request_p50_ms on singles-light"),
    layer(
        "serve.batch_occupancy_mean",
        "rows",
        "higher",
        "goodput_rps and request_p50_ms on singles-heavy",
    ),
    layer("serve.batches", "count", "lower", "goodput_rps and request_p50_ms on singles-heavy"),
    layer("serve.traverse_us_p50", "us", "lower", TRAVERSAL),
    layer("serve.backlog_ms_p50", "ms", "lower", "goodput_rps on singles-heavy"),
    layer("serve.rejected", "count", "lower", "every end-to-end metric, through the failed share"),
    layer("serve.failed", "count", "lower", "every end-to-end metric, through the failed share"),
    layer("kernels.sharded.rows_per_s.b2048", "rows/s", "higher", TRAVERSAL),
    layer("kernels.sharded.rows_per_s.bocc", "rows/s", "higher", TRAVERSAL),
    layer(
        "kernels.packed_fil.rows_per_s.b2048",
        "rows/s",
        "higher",
        "request_p50_ms on singles-heavy, weakly, if packing becomes the default",
    ),
    layer(
        "core.work.nodes_per_query",
        "nodes",
        "lower",
        "the kernel rows/s metrics, and through them request_p50_ms on singles-heavy",
    ),
    layer(
        "core.work.bytes_per_query",
        "bytes",
        "lower",
        "the kernel rows/s metrics, and through them request_p50_ms on singles-heavy",
    ),
    layer("core.resident_bytes.forest", "bytes", "lower", "rss_peak_mb on all workloads"),
    layer("core.resident_bytes.hier", "bytes", "lower", "rss_peak_mb on all workloads"),
    layer("core.resident_bytes.packed_fil", "bytes", "lower", "rss_peak_mb on all workloads"),
    layer("core.hier_build_s", "s", "lower", "setup_s on singles-heavy"),
    layer(
        "core.pack_build_s",
        "s",
        "lower",
        "setup_s on singles-heavy, once packing is the default",
    ),
    layer("gpusim.hybrid.device_ms", "ms-modeled", "lower", DEVICES),
    layer("gpusim.global_load_transactions", "count", "lower", DEVICES),
    layer("fpgasim.independent.ms", "ms-modeled", "lower", DEVICES),
    layer("loadgen.late_ms_p99", "ms", "lower", NOT_GATED),
    layer("loadgen.late_ms_max", "ms", "lower", NOT_GATED),
    layer("request_p99_ms", "ms", "lower", NOT_GATED),
    layer("request_p999_ms", "ms", "lower", NOT_GATED),
    layer("trace.overhead", "ratio", "lower", NOT_GATED),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
    }

    #[test]
    fn benchmark_json_lists_the_catalog() {
        let json = benchmark_json();
        for m in &END_TO_END {
            let entry =
                format!(r#""name": "{}", "unit": "{}", "better": "{}""#, m.name, m.unit, m.better);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in &PER_LAYER {
            let entry =
                format!(r#""name": "{}", "unit": "{}", "better": "{}""#, m.name, m.unit, m.better);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches(r#""name": "#).count(), END_TO_END.len() + PER_LAYER.len() + 2);
    }

    #[test]
    fn readme_documents_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
        let readme = std::fs::read_to_string(path).expect("servebench/README.md exists");
        for name in END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)) {
            assert!(readme.contains(&format!("`{name}`")), "README.md lacks {name}");
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "{n} listed twice");
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "._-".contains(c))
            );
        }
    }
}

//! The metric tables `BENCHMARK.json` declares, and the result line.
//!
//! Every workload reports every metric: an untraced run prints each
//! end-to-end metric, a traced run each per-layer metric. Layers a
//! workload's own loop does not pass through are measured on that
//! workload's graph by the traced run's probes.

use std::collections::BTreeMap;

use gnnone_sim::jsonio::Json;

use crate::round::ROUTINES;

/// A declared metric: name, unit, and whether higher is better.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

fn m(name: &str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
    }
}

/// End-to-end metrics, printed by an untraced run.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        m("setup_s", "s", "lower"),
        m("peak_rss_mb", "MiB", "lower"),
        m("edges_per_s", "edges/s", "higher"),
        m("op_ms_p50", "ms", "lower"),
        m("req_per_s", "req/s", "higher"),
        m("sim_cycles", "cycles", "lower"),
    ]
}

/// Per-layer metrics, printed by a traced run.
pub fn per_layer() -> Vec<Metric> {
    let mut v = vec![
        m("sparse.generate_s", "s", "lower"),
        m("kernels.graph_build_s", "s", "lower"),
        m("serve.build_s", "s", "lower"),
    ];
    for r in ROUTINES {
        let b = format!("backend.{}", r.name());
        v.push(m(&format!("{b}.call_ms_p50"), "ms", "lower"));
        v.push(m(&format!("{b}.compute_ms_p50"), "ms", "lower"));
        v.push(m(&format!("{b}.outside_ms_p50"), "ms", "lower"));
        v.push(m(&format!("{b}.bytes"), "bytes", "lower"));
        v.push(m(&format!("{b}.compute_gbps"), "GB/s", "higher"));
    }
    v.extend([
        m("host.copy_gbps", "GB/s", "higher"),
        m("host.steal_pct", "%", "lower"),
        m("buffer.upload_ms", "ms", "lower"),
        m("buffer.download_ms", "ms", "lower"),
        m("rayon.empty_call_us", "us", "lower"),
        m("serve.submit_us_p50", "us", "lower"),
        m("serve.batch_graph_ms_p50", "ms", "lower"),
        m("ir.lower_us_p50", "us", "lower"),
        m("serve.gcn.launch_ms_p50", "ms", "lower"),
        m("serve.gcn.compute_ms_p50", "ms", "lower"),
        m("serve.gat.launch_ms_p50", "ms", "lower"),
        m("serve.gat.compute_ms_p50", "ms", "lower"),
        m("serve.cache_bytes_per_batch", "bytes", "lower"),
        m("serve.batches", "count", "higher"),
        m("serve.rows_per_batch", "count", "higher"),
    ]);
    for r in ROUTINES {
        v.push(m(&format!("sim.{}.host_ms_p50", r.name()), "ms", "lower"));
        v.push(m(&format!("sim.{}.cycles", r.name()), "cycles", "lower"));
    }
    v.extend([
        m("sim.host_ns_per_warp", "ns", "lower"),
        m("sim.warps", "count", "lower"),
        m("sim.atomics", "count", "lower"),
        m("sim.atomic_conflicts", "count", "lower"),
        m("sim.read_bytes", "bytes", "lower"),
        m("sim.compute_instr", "count", "lower"),
        m("loop.wall_ms", "ms", "lower"),
        m("loop.unattributed_ms", "ms", "lower"),
        m("trace.overhead_pct", "%", "lower"),
    ]);
    v
}

/// What one run found: operation counts and metric values by name.
#[derive(Debug, Default)]
pub struct RunResult {
    /// False when a check that no single operation owns failed (a serve
    /// ledger that does not balance).
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
}

impl RunResult {
    /// The result line for the declared metrics `declared`, in their
    /// order. Errors name a metric that is missing or not finite.
    pub fn line(&self, declared: &[Metric]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(declared.len());
        for d in declared {
            let v = *self
                .values
                .get(&d.name)
                .ok_or_else(|| format!("metric `{}` was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric `{}` is not finite ({v})", d.name));
            }
            fields.push((
                d.name.as_str(),
                Json::obj(vec![
                    ("value", Json::F64(v)),
                    ("unit", Json::Str(d.unit.to_string())),
                ]),
            ));
        }
        Ok(Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::obj(fields)),
        ])
        .to_string_compact())
    }
}

//! Tests of the benchmark's own helpers: order statistics, the seeded
//! request schedule and batch cuts, the span arithmetic, the fused-GAT
//! reference, and the metric tables against `BENCHMARK.json`.

use std::sync::Arc;
use std::time::Duration;

use gnnone_kernels::backend::{Backend, NativeEngine};
use gnnone_kernels::graph::GraphData;
use gnnone_serve::Scale;
use gnnone_sim::jsonio::{self, Json};
use gnnone_sparse::datasets::Dataset;
use wallbench::metrics::{end_to_end, per_layer, Metric};
use wallbench::round::{self, DeviceInputs, HostInputs, Kernels, Routine, ROUTINES};
use wallbench::serve::{Pair, Replay, Schedule, BATCH_MAX};
use wallbench::stats::{median, percentile, quartiles, spread};
use wallbench::trace::Tracer;

#[test]
fn median_averages_the_middle_pair() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), Some(5.0));
    assert_eq!(percentile(&v, 90.0), Some(9.0));
    assert_eq!(percentile(&v, 99.0), Some(10.0));
    assert_eq!(percentile(&v, 0.0), Some(1.0));
    assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn quartiles_follow_the_exclusive_rule() {
    // Hand-computed with m = n + 1, j = i·m div 4, δ = i·m − 4j:
    // q_i = (s[j−1]·(4 − δ) + s[j]·δ) / 4.
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
    assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
    assert_eq!(
        quartiles(&[10.0, 12.0, 11.0, 30.0]),
        Some([10.25, 11.5, 25.5])
    );
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn spread_is_quartile_distance_over_median() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(spread(&v), Some((8.25 - 2.75) / 5.5));
    assert_eq!(spread(&[2.0, 2.0, 2.0]), Some(0.0));
}

#[test]
fn same_seed_same_requests_other_seed_other_requests() {
    let a: Vec<_> = Schedule::new(1000, 7).take(200).collect();
    let b: Vec<_> = Schedule::new(1000, 7).take(200).collect();
    let c: Vec<_> = Schedule::new(1000, 8).take(200).collect();
    assert_eq!(a, b);
    assert_ne!(
        a.iter().map(|x| x.node).collect::<Vec<_>>(),
        c.iter().map(|x| x.node).collect::<Vec<_>>()
    );
    assert!(a.windows(2).all(|w| w[1].at_ms > w[0].at_ms));
    assert!(a.iter().all(|x| x.server == (x.id % 2) as usize));
}

/// Replays `rounds` rounds on a fresh tiny server pair and returns the
/// batch cuts.
fn cuts(seed: u64, rounds: usize) -> Vec<(usize, Vec<u32>)> {
    let mut off = Tracer::new(false);
    let mut pair = Pair::new("G5", Scale::Tiny, seed, &mut off).expect("G5 tiny builds");
    let mut sched = Schedule::new(pair.vertices(), seed);
    let mut rep = Replay {
        keep_batches: usize::MAX,
        ..Replay::default()
    };
    for _ in 0..rounds {
        pair.replay_round(&mut sched, &mut rep, &mut off);
    }
    pair.drain(&mut rep);
    pair.check_batch_of_one(&mut rep);
    assert!(pair.ledgers_ok());
    assert!(rep.failed.is_empty(), "failed requests: {:?}", rep.failed);
    assert_eq!(rep.requests, rep.resolved);
    rep.batches
        .into_iter()
        .map(|b| (b.server, b.nodes))
        .collect()
}

#[test]
fn same_seed_same_batch_cuts() {
    let rounds = 6;
    let a = cuts(11, rounds);
    assert_eq!(a, cuts(11, rounds));
    assert_ne!(a, cuts(12, rounds));
    assert_eq!(a.len(), 2 * rounds);
    assert!(a.iter().all(|(_, nodes)| nodes.len() == BATCH_MAX));
    assert!(a.iter().enumerate().all(|(i, (s, _))| *s == i % 2));
}

#[test]
fn self_times_and_unattributed_add_up_to_the_window() {
    let mut tr = Tracer::new(true);
    let from = tr.now_ns();
    for op in 0..3 {
        let outer = tr.begin("outer", op);
        let inner = tr.begin("inner", op);
        std::thread::sleep(Duration::from_millis(1));
        tr.end(inner);
        tr.reported_child(inner, "reported", Duration::from_micros(300));
        tr.end(outer);
        std::thread::sleep(Duration::from_micros(200));
    }
    let to = tr.now_ns();
    let t = tr.layer_table(from, to);
    assert_eq!(t.attributed_ns() + t.unattributed_ns, t.wall_ns);
    assert!(t.unattributed_ns >= 3 * 200_000);
    assert!(t.coverage() > 0.0 && t.coverage() < 1.0);
    assert_eq!(tr.check_nesting(from, to), Ok(()));
    let names: Vec<&str> = t.rows.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, ["inner", "outer", "reported"]);
    let reported = &t.rows[2];
    assert_eq!((reported.count, reported.self_ns), (3, 3 * 300_000));
    let mut out = Vec::new();
    tr.write_chrome_trace(&mut out, "test", usize::MAX).unwrap();
    let doc = jsonio::parse(std::str::from_utf8(&out).unwrap()).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert_eq!(events.len(), 1 + 9);
    // With a cap of two spans per layer, the third of each is left out.
    let mut out = Vec::new();
    tr.write_chrome_trace(&mut out, "test", 2).unwrap();
    let doc = jsonio::parse(std::str::from_utf8(&out).unwrap()).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert_eq!(events.len(), 1 + 6);
    let other = doc.get("otherData").unwrap();
    assert_eq!(other.get("spans_recorded").and_then(Json::as_u64), Some(9));
    assert_eq!(other.get("spans_written").and_then(Json::as_u64), Some(6));
}

#[test]
fn spans_that_do_not_nest_are_caught() {
    // Two reported children, each as long as their parent: their lengths
    // sum to twice the parent's, so its self time would be negative.
    let mut tr = Tracer::new(true);
    let from = tr.now_ns();
    let call = tr.begin("call", 0);
    std::thread::sleep(Duration::from_micros(100));
    tr.end(call);
    tr.reported_child(call, "a", Duration::from_secs(1));
    tr.reported_child(call, "b", Duration::from_secs(1));
    let to = tr.now_ns();
    assert!(tr.check_nesting(from, to).is_err());
    // A window that ends before a span closes.
    let mut tr = Tracer::new(true);
    let from = tr.now_ns();
    let s = tr.begin("open", 0);
    std::thread::sleep(Duration::from_micros(100));
    let to = tr.now_ns();
    std::thread::sleep(Duration::from_micros(100));
    tr.end(s);
    assert!(tr.check_nesting(from, to).is_err());
}

#[test]
fn disabled_tracer_records_nothing() {
    let mut tr = Tracer::new(false);
    let s = tr.begin("x", 0);
    tr.end(s);
    tr.reported_child(s, "y", Duration::from_millis(1));
    assert!(tr.spans().is_empty());
}

#[test]
fn native_round_matches_the_independent_references() {
    let ds = Dataset::try_by_id("G0", Scale::Tiny).unwrap();
    let graph = Arc::new(GraphData::new(ds.coo));
    let host = HostInputs::new(graph.num_vertices(), graph.nnz(), 5);
    let dev = DeviceInputs::upload(&host);
    let kernels = Kernels::new(&graph);
    let backend = Backend::Native(NativeEngine::with_threads(2).unwrap());
    for r in ROUTINES {
        let out = kernels.alloc_out(r);
        kernels.run(&backend, &dev, r, &out).unwrap();
        let want = round::reference(r, &graph, &host);
        assert!(round::close(&out.to_vec(), &want), "{} differs", r.name());
        assert!(kernels.bytes(r) > 0);
    }
    // The fused-GAT reference is not a copy of the kernel: a wrong
    // slope moves it outside the tolerance.
    let out = kernels.alloc_out(Routine::FusedGat);
    kernels
        .run(&backend, &dev, Routine::FusedGat, &out)
        .unwrap();
    let skewed = round::edge_softmax_aggregate(&graph, &host.x, &host.el, &host.er, 0.9);
    assert!(!round::close(&out.to_vec(), &skewed));
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

fn table(ms: Vec<Metric>) -> Vec<(String, String, String)> {
    ms.into_iter()
        .map(|m| (m.name, m.unit.to_string(), m.better.to_string()))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = jsonio::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(declared(&doc, "end_to_end"), table(end_to_end()));
    assert_eq!(declared(&doc, "per_layer"), table(per_layer()));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let known: Vec<&str> = wallbench::workload::Workload::ALL
        .iter()
        .map(|w| w.name())
        .collect();
    assert_eq!(workloads, known);
}

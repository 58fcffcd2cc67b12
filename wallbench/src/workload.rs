//! The four workloads, their timed loops, and the traced layer probes.
//!
//! A run sets up its inputs [`SETUP_REPS`] times (reporting the median as
//! `setup_s`), checks a warm-up pass against independent references, then
//! runs whole rounds of its operations until `--seconds` have passed.
//! Every native call runs on exactly [`THREADS`] workers, set through
//! `rayon::ThreadPool::install`.
//!
//! A traced run spends the first half of its time untraced and the second
//! half traced; the difference between the two halves' `op_ms_p50` is the
//! tracing overhead. It then probes, on the same graph, every layer its
//! own loop does not pass through, so that each workload reports every
//! per-layer metric.

use std::hint::black_box;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gnnone_kernels::backend::{Backend, NativeEngine};
use gnnone_kernels::graph::GraphData;
use gnnone_kernels::ir::IrFusedGat;
use gnnone_serve::model::make_backend;
use gnnone_serve::BackendKind;
use gnnone_sim::{Gpu, GpuSpec, KernelReport};
use gnnone_sparse::datasets::{Dataset, Scale};
use gnnone_sparse::reference;
use rayon::prelude::*;

use crate::metrics::RunResult;
use crate::round::{
    bitwise_eq, close, reference as reference_output, DeviceInputs, HostInputs, Kernels, GAT_SLOPE,
    ROUTINES,
};
use crate::serve::{Batch, Pair, Replay, Schedule};
use crate::stats::{median, percentile, quartiles};
use crate::trace::Tracer;

/// Worker threads of every native call.
pub const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;
/// Dataset scale of every workload.
pub const SCALE: Scale = Scale::Medium;
/// Serve replay rounds run before timing.
const SERVE_WARMUP_ROUNDS: usize = 8;
/// Serve replay rounds of the serving probe on non-serving workloads.
const SERVE_PROBE_ROUNDS: usize = 64;
/// Launched batches the serving probe relaunches layer by layer.
const SERVE_PROBE_BATCHES: usize = 128;
/// Native rounds of the backend probe on non-native workloads.
const NATIVE_PROBE_ROUNDS: u64 = 5;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Five-routine rounds, native, roadNet analogue (G5): marshalling
    /// dominates.
    KernelsRoad,
    /// Five-routine rounds, native, Ogb-product analogue (G12): compute
    /// dominates.
    KernelsProducts,
    /// Alternating GCN/GAT serving requests, native, G5.
    ServeMix,
    /// Five-routine rounds on the simulator, Amazon analogue (G3).
    SimAmazon,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::KernelsRoad,
        Workload::KernelsProducts,
        Workload::ServeMix,
        Workload::SimAmazon,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KernelsRoad => "kernels-road",
            Workload::KernelsProducts => "kernels-products",
            Workload::ServeMix => "serve-mix",
            Workload::SimAmazon => "sim-amazon",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Table 1 dataset id of the workload's graph.
    pub fn dataset(self) -> &'static str {
        match self {
            Workload::KernelsRoad | Workload::ServeMix => "G5",
            Workload::KernelsProducts => "G12",
            Workload::SimAmazon => "G3",
        }
    }
}

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Measured time, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
    /// Where a traced run writes its Chrome trace.
    pub trace_out: PathBuf,
}

/// Runs one workload on a [`THREADS`]-worker pool.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build()
        .map_err(|e| format!("cannot build the worker pool: {e}"))?;
    pool.install(|| Bench::new(args).run())
}

/// Everything one workload sets up.
struct Env {
    graph: Arc<GraphData>,
    host: HostInputs,
    dev: DeviceInputs,
    kernels: Kernels,
    pair: Option<Pair>,
}

/// Generates the dataset, builds the graph, draws and uploads the
/// operands, builds the GNNOne kernels and, for `serve-mix`, both servers.
fn setup(w: Workload, seed: u64, tr: &mut Tracer) -> Result<Env, String> {
    let root = tr.begin("setup", 0);
    let span = tr.begin("sparse.generate", 0);
    let dataset = Dataset::try_by_id(w.dataset(), SCALE).map_err(|e| e.to_string())?;
    tr.end(span);
    let span = tr.begin("kernels.graph_build", 0);
    let graph = Arc::new(GraphData::new(dataset.coo));
    tr.end(span);
    let span = tr.begin("setup.inputs", 0);
    let host = HostInputs::new(graph.num_vertices(), graph.nnz(), seed);
    let dev = DeviceInputs::upload(&host);
    let kernels = Kernels::new(&graph);
    tr.end(span);
    let pair = match w {
        Workload::ServeMix => {
            Some(Pair::new(w.dataset(), SCALE, seed, tr).map_err(|e| e.to_string())?)
        }
        _ => None,
    };
    tr.end(root);
    Ok(Env {
        graph,
        host,
        dev,
        kernels,
        pair,
    })
}

/// When a timed loop stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// After the first whole round that ends past this many seconds.
    Seconds(f64),
    /// After this many rounds.
    Rounds(u64),
}

impl Stop {
    fn done(self, start: Instant, rounds: u64) -> bool {
        match self {
            Stop::Seconds(s) => rounds > 0 && start.elapsed().as_secs_f64() >= s,
            Stop::Rounds(n) => rounds >= n,
        }
    }
}

/// Caller and engine times of one routine's calls.
#[derive(Debug, Default, Clone)]
struct Calls {
    call_ms: Vec<f64>,
    compute_ms: Vec<f64>,
}

/// What one timed loop measured.
#[derive(Debug, Default)]
struct LoopStats {
    /// Caller wall time of each operation (round or launched batch), ms.
    op_ms: Vec<f64>,
    /// Per round: NZEs processed by its timed calls over their caller
    /// wall time.
    edge_rate: Vec<f64>,
    /// Per round: requests resolved (routine calls, or serving requests)
    /// over the caller wall time they took.
    req_rate: Vec<f64>,
    /// Per-routine samples, in `ROUTINES` order.
    per: [Calls; 5],
    /// Traced window `[from, to)` in tracer ns.
    window: (u64, u64),
}

impl LoopStats {
    fn op_ms_p50(&self) -> f64 {
        p50(&self.op_ms)
    }
}

/// One simulated round: host time and kernel report per routine.
struct SimRound {
    host_ms: Vec<f64>,
    reports: Vec<Option<KernelReport>>,
}

struct Bench<'a> {
    args: &'a Args,
    tr: Tracer,
    res: RunResult,
    /// Launched batches of the traced serve loop, for the serving probe.
    serve_batches: Vec<Batch>,
}

impl<'a> Bench<'a> {
    fn new(args: &'a Args) -> Self {
        Bench {
            args,
            tr: Tracer::new(args.trace),
            res: RunResult {
                correct: true,
                ..RunResult::default()
            },
            serve_batches: Vec::new(),
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        self.res.values.insert(name.to_string(), value);
    }

    fn count(&mut self, ok: bool) {
        self.res.attempted += 1;
        if !ok {
            self.res.failed += 1;
        }
    }

    fn run(mut self) -> Result<RunResult, String> {
        let w = self.args.workload;
        let mut env = None;
        let mut setup_s = Vec::with_capacity(SETUP_REPS);
        for _ in 0..SETUP_REPS {
            drop(env.take());
            let t0 = Instant::now();
            env = Some(setup(w, self.args.seed, &mut self.tr)?);
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let mut env = env.expect("SETUP_REPS > 0");
        let setup_p50 = median(&setup_s).expect("SETUP_REPS > 0");
        self.set("setup_s", setup_p50);
        let refs: Vec<Vec<f32>> = ROUTINES
            .iter()
            .map(|&r| reference_output(r, &env.graph, &env.host))
            .collect();
        println!(
            "workload {} seed {}: {} {:?}, |V| {}, NZEs {}, {} workers",
            w.name(),
            self.args.seed,
            w.dataset(),
            SCALE,
            env.graph.num_vertices(),
            env.graph.nnz(),
            rayon::current_num_threads()
        );
        let [q1, _, q3] = quartiles(&setup_s).expect("SETUP_REPS > 1");
        println!("setup_s over {SETUP_REPS} set-ups: q1 {q1:.4}, p50 {setup_p50:.4}, q3 {q3:.4}");

        let half = self.args.seconds / 2.0;
        let steal0 = (Instant::now(), steal_s());
        let (stats, untraced_p50) = match w {
            Workload::KernelsRoad | Workload::KernelsProducts => {
                let backend = Backend::Native(NativeEngine::new());
                let first = self.native_warmup(&env, &backend, &refs);
                if self.args.trace {
                    let un = self.native_loop(&env, &backend, &first, Stop::Seconds(half), false);
                    let st = self.native_loop(&env, &backend, &first, Stop::Seconds(half), true);
                    (st, un.op_ms_p50())
                } else {
                    let secs = self.args.seconds;
                    let st = self.native_loop(&env, &backend, &first, Stop::Seconds(secs), false);
                    (st, f64::NAN)
                }
            }
            Workload::SimAmazon => {
                let gpu = Gpu::new(GpuSpec::a100_40gb());
                let warm = self.sim_round(&env, &gpu, &refs, None, false, 0);
                let cycles: Vec<Option<u64>> = warm
                    .reports
                    .iter()
                    .map(|r| r.as_ref().map(|r| r.cycles))
                    .collect();
                self.record_sim(&warm);
                if self.args.trace {
                    let un = self.sim_loop(&env, &gpu, &refs, &cycles, half, false);
                    let st = self.sim_loop(&env, &gpu, &refs, &cycles, half, true);
                    (st, un.op_ms_p50())
                } else {
                    let secs = self.args.seconds;
                    (
                        self.sim_loop(&env, &gpu, &refs, &cycles, secs, false),
                        f64::NAN,
                    )
                }
            }
            Workload::ServeMix => {
                let mut pair = env.pair.take().expect("serve-mix sets up a server pair");
                let mut sched = Schedule::new(pair.vertices(), self.args.seed);
                let mut rep = Replay::default();
                for _ in 0..SERVE_WARMUP_ROUNDS {
                    pair.replay_round(&mut sched, &mut rep, &mut Tracer::new(false));
                }
                self.settle_replay(&mut pair, rep);
                let out = if self.args.trace {
                    let un = self.serve_loop(&mut pair, &mut sched, half, false);
                    let st = self.serve_loop(&mut pair, &mut sched, half, true);
                    (st, un.op_ms_p50())
                } else {
                    let secs = self.args.seconds;
                    (
                        self.serve_loop(&mut pair, &mut sched, secs, false),
                        f64::NAN,
                    )
                };
                env.pair = Some(pair);
                out
            }
        };

        // CPU time the hypervisor gave to other guests while the loops
        // ran: it inflates wall time without being the program's cost.
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let steal_pct = match (steal0.1, steal_s()) {
            (Some(a), Some(b)) => {
                100.0 * (b - a) / (steal0.0.elapsed().as_secs_f64() * cpus as f64)
            }
            _ => f64::NAN,
        };
        println!("hypervisor steal during the measured loops: {steal_pct:.1}% of {cpus} CPUs");
        self.set("host.steal_pct", steal_pct);
        if self.args.trace {
            self.layers(&mut env, &refs, &stats, untraced_p50)?;
        } else {
            let pct = |p| percentile(&stats.op_ms, p).unwrap_or(f64::NAN);
            println!(
                "op_ms over {} operations: p10 {:.4}, p50 {:.4}, p90 {:.4}, p99 {:.4}",
                stats.op_ms.len(),
                pct(10.0),
                pct(50.0),
                pct(90.0),
                pct(99.0)
            );
            self.set("op_ms_p50", stats.op_ms_p50());
            self.set("edges_per_s", p50(&stats.edge_rate));
            self.set("req_per_s", p50(&stats.req_rate));
            if !self.res.values.contains_key("sim_cycles") {
                let gpu = Gpu::new(GpuSpec::a100_40gb());
                let round = self.sim_round(&env, &gpu, &refs, None, false, 0);
                self.record_sim(&round);
            }
            self.set("peak_rss_mb", peak_rss_mb()?);
        }
        Ok(self.res)
    }

    /// One untimed native round checked against the references; returns
    /// each routine's output, or `None` where it failed the check.
    fn native_warmup(
        &mut self,
        env: &Env,
        backend: &Backend,
        refs: &[Vec<f32>],
    ) -> Vec<Option<Vec<f32>>> {
        ROUTINES
            .iter()
            .zip(refs)
            .map(|(&r, want)| {
                let out = env.kernels.alloc_out(r);
                let got = env
                    .kernels
                    .run(backend, &env.dev, r, &out)
                    .ok()
                    .map(|_| out.to_vec());
                let got = got.filter(|g| close(g, want));
                self.count(got.is_some());
                got
            })
            .collect()
    }

    /// Whole native rounds until `stop`; every call's output must be
    /// bitwise equal to the warm-up output (the native determinism
    /// contract).
    fn native_loop(
        &mut self,
        env: &Env,
        backend: &Backend,
        first: &[Option<Vec<f32>>],
        stop: Stop,
        traced: bool,
    ) -> LoopStats {
        let mut off = Tracer::new(false);
        let mut st = LoopStats::default();
        let nnz = env.graph.nnz() as f64;
        let start = Instant::now();
        let from = self.tr.now_ns();
        let mut round = 0u64;
        while !stop.done(start, round) {
            let tr = if traced { &mut self.tr } else { &mut off };
            let rs = tr.begin("round", round);
            let r0 = Instant::now();
            let mut call_s = 0.0;
            let mut outs = Vec::with_capacity(ROUTINES.len());
            for (i, &r) in ROUTINES.iter().enumerate() {
                let span = tr.begin("buffer.zeros", round);
                let out = env.kernels.alloc_out(r);
                tr.end(span);
                let span = tr.begin(r.call_span(), round);
                let t0 = Instant::now();
                let report = env.kernels.run(backend, &env.dev, r, &out);
                let dt = t0.elapsed();
                tr.end(span);
                call_s += dt.as_secs_f64();
                if let Ok(rep) = &report {
                    tr.reported_child(span, r.compute_span(), ms(rep.time_ms));
                    st.per[i].call_ms.push(dt.as_secs_f64() * 1e3);
                    st.per[i].compute_ms.push(rep.time_ms);
                }
                outs.push(report.ok().map(|_| out));
            }
            let dt = r0.elapsed();
            tr.end(rs);
            st.op_ms.push(dt.as_secs_f64() * 1e3);
            let calls = ROUTINES.len() as f64;
            st.edge_rate.push(calls * nnz / call_s);
            st.req_rate.push(calls / dt.as_secs_f64());

            let ck = tr.begin("bench.check", round);
            let oks: Vec<bool> = outs
                .iter()
                .zip(first)
                .map(|(out, want)| match (out, want) {
                    (Some(o), Some(w)) => bitwise_eq(&o.to_vec(), w),
                    _ => false,
                })
                .collect();
            tr.end(ck);
            for ok in oks {
                self.count(ok);
            }
            round += 1;
        }
        st.window = (from, self.tr.now_ns());
        st
    }

    /// One simulated round; every output is checked against its
    /// reference within tolerance (not bitwise: simulator float atomics
    /// commit in host-thread order) and, when `cycles` is given, its
    /// simulated cycles must equal the warm-up round's.
    fn sim_round(
        &mut self,
        env: &Env,
        gpu: &Gpu,
        refs: &[Vec<f32>],
        cycles: Option<&[Option<u64>]>,
        traced: bool,
        op: u64,
    ) -> SimRound {
        let mut off = Tracer::new(false);
        let mut round = SimRound {
            host_ms: Vec::new(),
            reports: Vec::new(),
        };
        for (i, &r) in ROUTINES.iter().enumerate() {
            let tr = if traced { &mut self.tr } else { &mut off };
            let span = tr.begin("buffer.zeros", op);
            let out = env.kernels.alloc_out(r);
            tr.end(span);
            let span = tr.begin(r.sim_span(), op);
            let t0 = Instant::now();
            let report = env.kernels.run_sim(gpu, &env.dev, r, &out);
            let dt = t0.elapsed();
            tr.end(span);
            let ck = tr.begin("bench.check", op);
            let ok = report.as_ref().is_ok_and(|rep| {
                close(&out.to_vec(), &refs[i]) && cycles.is_none_or(|c| c[i] == Some(rep.cycles))
            });
            tr.end(ck);
            self.count(ok);
            round.host_ms.push(dt.as_secs_f64() * 1e3);
            round.reports.push(report.ok());
        }
        round
    }

    /// Simulated cycles and `KernelStats` counts of one round.
    fn record_sim(&mut self, round: &SimRound) {
        let reports: Vec<&KernelReport> = round.reports.iter().flatten().collect();
        if reports.len() != ROUTINES.len() {
            return;
        }
        let total = |f: &dyn Fn(&KernelReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
        self.set("sim_cycles", total(&|r| r.cycles) as f64);
        for (r, rep) in ROUTINES.iter().zip(&reports) {
            self.set(&format!("sim.{}.cycles", r.name()), rep.cycles as f64);
        }
        self.set("sim.warps", total(&|r| r.stats.warps) as f64);
        self.set("sim.atomics", total(&|r| r.stats.atomics) as f64);
        self.set(
            "sim.atomic_conflicts",
            total(&|r| r.stats.atomic_conflicts) as f64,
        );
        self.set("sim.read_bytes", total(&|r| r.stats.read_bytes) as f64);
        self.set(
            "sim.compute_instr",
            total(&|r| r.stats.compute_instr) as f64,
        );
    }

    /// Whole simulated rounds until `seconds` have passed.
    fn sim_loop(
        &mut self,
        env: &Env,
        gpu: &Gpu,
        refs: &[Vec<f32>],
        cycles: &[Option<u64>],
        seconds: f64,
        traced: bool,
    ) -> LoopStats {
        let mut st = LoopStats::default();
        let nnz = env.graph.nnz() as f64;
        let start = Instant::now();
        let from = self.tr.now_ns();
        let mut rounds = 0u64;
        while !Stop::Seconds(seconds).done(start, rounds) {
            let span = traced.then(|| self.tr.begin("round", rounds));
            let round = self.sim_round(env, gpu, refs, Some(cycles), traced, rounds);
            if let Some(span) = span {
                self.tr.end(span);
            }
            let call_ms: f64 = round.host_ms.iter().sum();
            for (i, &h) in round.host_ms.iter().enumerate() {
                st.per[i].call_ms.push(h);
            }
            let calls = ROUTINES.len() as f64;
            st.op_ms.push(call_ms);
            st.edge_rate.push(calls * nnz / (call_ms / 1e3));
            st.req_rate.push(calls / (call_ms / 1e3));
            rounds += 1;
        }
        st.window = (from, self.tr.now_ns());
        st
    }

    /// Replay rounds until `seconds` have passed, then the end-of-run
    /// checks (drain, batch-of-one sample, ledgers).
    fn serve_loop(
        &mut self,
        pair: &mut Pair,
        sched: &mut Schedule,
        seconds: f64,
        traced: bool,
    ) -> LoopStats {
        let mut off = Tracer::new(false);
        let mut rep = Replay {
            keep_batches: SERVE_PROBE_BATCHES,
            ..Replay::default()
        };
        let mut st = LoopStats::default();
        let start = Instant::now();
        let from = self.tr.now_ns();
        let mut rounds = 0u64;
        while !Stop::Seconds(seconds).done(start, rounds) {
            let tr = if traced { &mut self.tr } else { &mut off };
            let (batches, nnz, resolved) = (rep.batch_ms.len(), rep.batch_nnz, rep.resolved);
            let caller_ns = rep.submit_ns + rep.poll_ns;
            pair.replay_round(sched, &mut rep, tr);
            let batch_s = rep.batch_ms[batches..].iter().sum::<f64>() / 1e3;
            st.edge_rate.push((rep.batch_nnz - nnz) as f64 / batch_s);
            let caller_s = (rep.submit_ns + rep.poll_ns - caller_ns) as f64 / 1e9;
            st.req_rate
                .push((rep.resolved - resolved) as f64 / caller_s);
            rounds += 1;
        }
        st.window = (from, self.tr.now_ns());
        st.op_ms = rep.batch_ms.clone();
        if traced {
            self.record_replay(&rep);
            self.serve_batches = std::mem::take(&mut rep.batches);
        }
        self.settle_replay(pair, rep);
        st
    }

    /// Launched batches, rows per batch and admission time of a replay.
    fn record_replay(&mut self, rep: &Replay) {
        let batches = rep.batch_ms.len() as f64;
        self.set("serve.batches", batches);
        self.set("serve.rows_per_batch", rep.resolved as f64 / batches);
        self.set("serve.submit_us_p50", p50(&rep.submit_us));
    }

    /// End-of-replay checks: drain both queues, relaunch the sampled
    /// requests as batches of one, balance the ledgers; then counts every
    /// request as an operation and every failed request as failed.
    fn settle_replay(&mut self, pair: &mut Pair, mut rep: Replay) {
        pair.drain(&mut rep);
        pair.check_batch_of_one(&mut rep);
        if !pair.ledgers_ok() {
            self.res.correct = false;
        }
        self.res.attempted += rep.requests;
        self.res.failed += rep.failed.len() as u64;
    }
}

impl Bench<'_> {
    /// The per-layer metrics of a traced run: the layer table of the
    /// traced half, then probes of every layer the workload's own loop
    /// does not pass through, then the Chrome trace.
    fn layers(
        &mut self,
        env: &mut Env,
        refs: &[Vec<f32>],
        stats: &LoopStats,
        untraced_p50: f64,
    ) -> Result<(), String> {
        let w = self.args.workload;
        let table = self.tr.layer_table(stats.window.0, stats.window.1);
        let traced_p50 = stats.op_ms_p50();
        self.set("loop.wall_ms", table.wall_ns as f64 / 1e6);
        self.set("loop.unattributed_ms", table.unattributed_ns as f64 / 1e6);
        self.set(
            "trace.overhead_pct",
            (traced_p50 / untraced_p50 - 1.0) * 100.0,
        );
        print_table(w, &table);
        // The layer table means something only if the spans nest and
        // cover nearly all of the traced wall time.
        if let Err(e) = self.tr.check_nesting(stats.window.0, stats.window.1) {
            eprintln!("wallbench: traced spans do not nest: {e}");
            self.res.correct = false;
        }
        if table.coverage() < MIN_SPAN_COVERAGE {
            eprintln!(
                "wallbench: layer spans cover {:.1}% of the traced wall time, under {:.0}%",
                100.0 * table.coverage(),
                100.0 * MIN_SPAN_COVERAGE
            );
            self.res.correct = false;
        }
        println!(
            "tracing overhead: op_ms_p50 {untraced_p50:.4} ms untraced, {traced_p50:.4} ms traced ({:+.1}%)",
            (traced_p50 / untraced_p50 - 1.0) * 100.0
        );

        // Backend layer: the loop's own calls on kernels-*, a probe elsewhere.
        let per = match w {
            Workload::KernelsRoad | Workload::KernelsProducts => stats.per.clone(),
            _ => {
                let backend = Backend::Native(NativeEngine::new());
                let first = self.native_warmup(env, &backend, refs);
                let stop = Stop::Rounds(NATIVE_PROBE_ROUNDS);
                self.native_loop(env, &backend, &first, stop, true).per
            }
        };
        for (&r, calls) in ROUTINES.iter().zip(&per) {
            let outside: Vec<f64> = calls
                .call_ms
                .iter()
                .zip(&calls.compute_ms)
                .map(|(c, k)| c - k)
                .collect();
            let call = p50(&calls.call_ms);
            let compute = p50(&calls.compute_ms);
            let outside = p50(&outside);
            let bytes = env.kernels.bytes(r) as f64;
            let b = format!("backend.{}", r.name());
            self.set(&format!("{b}.call_ms_p50"), call);
            self.set(&format!("{b}.compute_ms_p50"), compute);
            self.set(&format!("{b}.outside_ms_p50"), outside);
            self.set(&format!("{b}.bytes"), bytes);
            self.set(&format!("{b}.compute_gbps"), bytes / (compute / 1e3) / 1e9);
            println!(
                "{b}: call p50 {call:.4} ms = compute {compute:.4} ms + outside {outside:.4} ms ({})",
                if outside > compute { "outside > compute" } else { "outside <= compute" }
            );
        }

        // Simulator layer: the loop's own launches on sim-amazon, one
        // simulated round elsewhere.
        let host_ms: Vec<f64> = match w {
            Workload::SimAmazon => per_median(&stats.per),
            _ => {
                let gpu = Gpu::new(GpuSpec::a100_40gb());
                let round = self.sim_round(env, &gpu, refs, None, true, 0);
                self.record_sim(&round);
                round.host_ms
            }
        };
        for (r, h) in ROUTINES.iter().zip(&host_ms) {
            self.set(&format!("sim.{}.host_ms_p50", r.name()), *h);
        }
        let warps = self
            .res
            .values
            .get("sim.warps")
            .copied()
            .unwrap_or(f64::NAN);
        self.set(
            "sim.host_ns_per_warp",
            host_ms.iter().sum::<f64>() * 1e6 / warps,
        );

        // Serving layer: the loop's own batches on serve-mix; elsewhere a
        // server pair on this workload's graph replays a short schedule.
        let (pair, batches) = match env.pair.take() {
            Some(pair) => (pair, std::mem::take(&mut self.serve_batches)),
            None => {
                let mut pair = Pair::new(w.dataset(), SCALE, self.args.seed, &mut self.tr)
                    .map_err(|e| e.to_string())?;
                let mut sched = Schedule::new(pair.vertices(), self.args.seed);
                let mut rep = Replay {
                    keep_batches: SERVE_PROBE_BATCHES,
                    ..Replay::default()
                };
                for _ in 0..SERVE_PROBE_ROUNDS {
                    pair.replay_round(&mut sched, &mut rep, &mut self.tr);
                }
                self.record_replay(&rep);
                let batches = std::mem::take(&mut rep.batches);
                self.settle_replay(&mut pair, rep);
                (pair, batches)
            }
        };
        self.serve_probe(&pair, &batches);

        let secs = |tr: &Tracer, name| p50(&tr.durations_ms(name)) / 1e3;
        let generate = secs(&self.tr, "sparse.generate");
        let graph_build = secs(&self.tr, "kernels.graph_build");
        let serve_build = secs(&self.tr, "serve.build");
        self.set("sparse.generate_s", generate);
        self.set("kernels.graph_build_s", graph_build);
        self.set("serve.build_s", serve_build);

        self.probe_buffers(&env.host);
        self.probe_copy();
        self.probe_rayon();

        let path = &self.args.trace_out;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let write = || -> std::io::Result<()> {
            let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
            let process = format!("wallbench {}", w.name());
            self.tr
                .write_chrome_trace(&mut out, &process, TRACE_SPANS_PER_LAYER)?;
            out.flush()
        };
        write().map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "chrome trace: {} ({} spans recorded, at most {TRACE_SPANS_PER_LAYER} per layer written)",
            path.display(),
            self.tr.spans().len()
        );
        Ok(())
    }

    /// Relaunches recorded batches layer by layer through the public
    /// serving calls: `ServingState::batch_graph`, `IrFusedGat::new` on
    /// the batch graph (GAT), and `ServingState::launch` with its
    /// `ExecReport`. Every launch is checked against the CPU reference
    /// logits.
    fn serve_probe(&mut self, pair: &Pair, batches: &[Batch]) {
        const LAUNCH: [&str; 2] = ["serve.gcn.launch", "serve.gat.launch"];
        const COMPUTE: [&str; 2] = ["serve.gcn.compute", "serve.gat.compute"];
        let backend = make_backend(BackendKind::Native);
        let mut batch_graph_ms = Vec::new();
        let mut lower_us = Vec::new();
        let mut launch_ms = [Vec::new(), Vec::new()];
        let mut compute_ms = [Vec::new(), Vec::new()];
        for (i, b) in batches.iter().enumerate() {
            let op = i as u64;
            let s = b.server;
            let state = pair.servers[s].state();
            let span = self.tr.begin("serve.batch_graph", op);
            let t0 = Instant::now();
            let graph = state.batch_graph(&b.nodes);
            batch_graph_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            self.tr.end(span);
            if s == 1 {
                let span = self.tr.begin("ir.lower", op);
                let t0 = Instant::now();
                black_box(IrFusedGat::new(Arc::clone(&graph), GAT_SLOPE));
                lower_us.push(t0.elapsed().as_secs_f64() * 1e6);
                self.tr.end(span);
            }
            let span = self.tr.begin(LAUNCH[s], op);
            let t0 = Instant::now();
            let out = state.launch(&backend, &b.nodes);
            let dt = t0.elapsed();
            self.tr.end(span);
            let ok = out.is_ok_and(|(logits, rep)| {
                self.tr.reported_child(span, COMPUTE[s], ms(rep.time_ms));
                launch_ms[s].push(dt.as_secs_f64() * 1e3);
                compute_ms[s].push(rep.time_ms);
                let cls = state.classes;
                let want: Vec<f32> = b
                    .nodes
                    .iter()
                    .flat_map(|&v| {
                        &state.reference_logits[v as usize * cls..(v as usize + 1) * cls]
                    })
                    .copied()
                    .collect();
                close_logits(&logits, &want)
            });
            self.count(ok);
        }
        self.set("serve.batch_graph_ms_p50", p50(&batch_graph_ms));
        self.set("ir.lower_us_p50", p50(&lower_us));
        self.set("serve.gcn.launch_ms_p50", p50(&launch_ms[0]));
        self.set("serve.gcn.compute_ms_p50", p50(&compute_ms[0]));
        self.set("serve.gat.launch_ms_p50", p50(&launch_ms[1]));
        self.set("serve.gat.compute_ms_p50", p50(&compute_ms[1]));
        // Computed, not measured: each batch copies the whole per-vertex
        // serving cache out of device buffers — GCN the |V|×C projection,
        // GAT (one output head) its |V|×C projection and |V| source term.
        let v = pair.vertices() as f64;
        let c = pair.servers[0].state().classes as f64;
        self.set(
            "serve.cache_bytes_per_batch",
            (4.0 * v * c + 4.0 * v * (c + 1.0)) / 2.0,
        );
    }

    /// `DeviceBuffer::from_slice` and `to_vec` of one |V|×F operand.
    fn probe_buffers(&mut self, host: &HostInputs) {
        let (mut up, mut down) = (Vec::new(), Vec::new());
        for i in 0..BUFFER_PROBES {
            let span = self.tr.begin("buffer.upload", i);
            let t0 = Instant::now();
            let buf = gnnone_sim::DeviceBuffer::from_slice(&host.x);
            up.push(t0.elapsed().as_secs_f64() * 1e3);
            self.tr.end(span);
            let span = self.tr.begin("buffer.download", i);
            let t0 = Instant::now();
            black_box(buf.to_vec());
            down.push(t0.elapsed().as_secs_f64() * 1e3);
            self.tr.end(span);
        }
        self.set("buffer.upload_ms", p50(&up));
        self.set("buffer.download_ms", p50(&down));
    }

    /// Host memcpy bandwidth over a buffer at least 4× the last-level
    /// cache: bytes read plus bytes written, per second.
    fn probe_copy(&mut self) {
        let len = copy_len();
        let src = vec![1u8; len];
        let mut dst = vec![0u8; len];
        dst.copy_from_slice(&src);
        let mut gbps = Vec::new();
        for i in 0..COPY_PROBES {
            let span = self.tr.begin("host.copy", i);
            let t0 = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            gbps.push(2.0 * len as f64 / t0.elapsed().as_secs_f64() / 1e9);
            self.tr.end(span);
        }
        self.set("host.copy_gbps", p50(&gbps));
    }

    /// An empty parallel call on the run's worker pool.
    fn probe_rayon(&mut self) {
        let call = || {
            (0..THREADS).into_par_iter().for_each(|i| {
                black_box(i);
            })
        };
        for _ in 0..RAYON_PROBES / 10 {
            call();
        }
        let mut us = Vec::with_capacity(RAYON_PROBES as usize);
        for i in 0..RAYON_PROBES {
            let span = self.tr.begin("rayon.empty_call", i);
            let t0 = Instant::now();
            call();
            us.push(t0.elapsed().as_secs_f64() * 1e6);
            self.tr.end(span);
        }
        self.set("rayon.empty_call_us", p50(&us));
    }
}

/// Share of a traced loop's wall time its layer spans must cover: the
/// loops do nothing outside a span but advance their counters (0–2% of
/// the wall time uncovered on the reference machine).
const MIN_SPAN_COVERAGE: f64 = 0.95;
/// Spans of each layer written to the Chrome trace.
const TRACE_SPANS_PER_LAYER: usize = 20_000;
/// Upload/download pairs of the buffer probe.
const BUFFER_PROBES: u64 = 20;
/// Copies of the memcpy probe.
const COPY_PROBES: u64 = 5;
/// Timed calls of the empty-parallel-call probe.
const RAYON_PROBES: u64 = 2000;

/// Per-routine median of `call_ms`.
fn per_median(per: &[Calls]) -> Vec<f64> {
    per.iter().map(|c| p50(&c.call_ms)).collect()
}

/// Whether served logits are within tolerance of the reference logits.
fn close_logits(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len() && reference::max_rel_error(got, want) <= crate::round::TOLERANCE
}

/// Prints the self time of every layer of the traced window, the
/// unattributed remainder, and the share the layer spans cover.
fn print_table(w: Workload, table: &crate::trace::LayerTable) {
    let wall_ms = table.wall_ns as f64 / 1e6;
    println!("layer self time, traced half of {}:", w.name());
    println!(
        "  {:<28} {:>9} {:>12} {:>7}",
        "layer", "spans", "self_ms", "share"
    );
    let mut rows = table.rows.clone();
    rows.sort_by_key(|r| std::cmp::Reverse(r.self_ns));
    for r in &rows {
        let self_ms = r.self_ns as f64 / 1e6;
        println!(
            "  {:<28} {:>9} {:>12.3} {:>6.1}%",
            r.name,
            r.count,
            self_ms,
            100.0 * self_ms / wall_ms
        );
    }
    let un_ms = table.unattributed_ns as f64 / 1e6;
    println!(
        "  {:<28} {:>9} {:>12.3} {:>6.1}%",
        "unattributed",
        "",
        un_ms,
        100.0 * un_ms / wall_ms
    );
    println!(
        "  self times + unattributed = {:.3} ms = traced wall; layer spans cover {:.1}% of it",
        (table.attributed_ns() + table.unattributed_ns) as f64 / 1e6,
        100.0 * table.coverage()
    );
}

/// Size of the memcpy probe's buffers: 4× the largest CPU cache the
/// system reports, clamped to [64 MiB, 512 MiB].
fn copy_len() -> usize {
    const MIB: usize = 1 << 20;
    let llc = (0..8)
        .filter_map(|i| {
            let p = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
            let s = std::fs::read_to_string(p).ok()?;
            let s = s.trim();
            let (num, mult) = match s.strip_suffix('K') {
                Some(k) => (k, 1 << 10),
                None => match s.strip_suffix('M') {
                    Some(m) => (m, MIB),
                    None => (s, 1),
                },
            };
            num.parse::<usize>().ok().map(|n| n * mult)
        })
        .max()
        .unwrap_or(32 * MIB);
    (4 * llc).clamp(64 * MIB, 512 * MIB)
}

/// Median of `v`; NaN for no samples, which the result line rejects.
fn p50(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

fn ms(v: f64) -> Duration {
    Duration::from_secs_f64(v.max(0.0) / 1e3)
}

/// Seconds of CPU time the hypervisor has taken from this machine since
/// boot (`steal` in `/proc/stat`, in 1/100 s ticks); `None` where the
/// system does not report it.
fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / 100.0)
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the process status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in the process status".to_string())
}

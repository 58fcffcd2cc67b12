//! The `serve-mix` replay: a GCN and a GAT [`Server`] on the native
//! backend take alternating requests for seeded uniform-random vertices.
//!
//! Arrivals follow a seeded open-loop schedule on the servers' virtual
//! clock (exponential gaps, independent of completions). The queue is
//! deep enough and deadlines long enough that every micro-batch fills to
//! [`BATCH_MAX`] and nothing is rejected or shed, so the batch cuts
//! depend only on the seed. A replay round is [`ROUND_REQUESTS`]
//! requests: exactly one full batch per server.

use std::collections::BTreeSet;
use std::time::Instant;

use gnnone_kernels::backend::Backend;
use gnnone_serve::model::make_backend;
use gnnone_serve::{
    BackendKind, GnnOneError, ModelKind, Outcome, OutcomeKind, Scale, ServeConfig, Server, Submit,
};
use gnnone_sparse::reference;

use crate::rng::Rng;
use crate::round::{bitwise_eq, TOLERANCE};
use crate::trace::Tracer;

/// Requests coalesced into one launch.
pub const BATCH_MAX: usize = 8;
/// Admission queue capacity (never reached: each server is polled after
/// every submit, so its queue holds at most `BATCH_MAX`).
pub const QUEUE_CAPACITY: usize = 64;
/// Relative request deadline, virtual ms: long enough that no batch is
/// cut early and nothing is shed.
pub const DEADLINE_MS: u64 = 86_400_000;
/// Mean gap between arrivals, virtual ms.
pub const MEAN_GAP_MS: f64 = 0.5;
/// Requests per replay round: one full batch for each of the two servers.
pub const ROUND_REQUESTS: usize = 2 * BATCH_MAX;
/// Span name of a poll that launched a batch, per server index.
pub const BATCH_SPANS: [&str; 2] = ["serve.gcn.batch", "serve.gat.batch"];
/// Batch-of-one comparisons per server; a request is sampled when its
/// seeded hash falls in one of `SAMPLE_EVERY` buckets.
pub const SAMPLE_PER_SERVER: usize = 16;
const SAMPLE_EVERY: u64 = 64;

/// The serving configuration the benchmark uses for `model`.
pub fn config(dataset: &str, scale: Scale, model: ModelKind, seed: u64) -> ServeConfig {
    ServeConfig {
        dataset: dataset.to_string(),
        scale,
        model,
        backend: BackendKind::Native,
        queue_capacity: QUEUE_CAPACITY,
        batch_max: BATCH_MAX,
        default_deadline_ms: DEADLINE_MS,
        seed,
        ..ServeConfig::default()
    }
}

/// One arrival of the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Position in the schedule.
    pub id: u64,
    /// Server index (0 = GCN, 1 = GAT); requests alternate.
    pub server: usize,
    /// Requested vertex.
    pub node: u32,
    /// Arrival time on the virtual clock, ms.
    pub at_ms: f64,
}

/// The seeded open-loop arrival schedule.
#[derive(Debug, Clone)]
pub struct Schedule {
    rng: Rng,
    vertices: u64,
    clock_ms: f64,
    next_id: u64,
}

impl Schedule {
    /// Arrivals over `vertices` vertices drawn from `seed`.
    pub fn new(vertices: usize, seed: u64) -> Self {
        Schedule {
            rng: Rng::new(seed, 2),
            vertices: vertices as u64,
            clock_ms: 0.0,
            next_id: 0,
        }
    }
}

impl Iterator for Schedule {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        let gap = -MEAN_GAP_MS * (1.0 - self.rng.unit()).ln();
        self.clock_ms += gap;
        let id = self.next_id;
        self.next_id += 1;
        Some(Arrival {
            id,
            server: (id % 2) as usize,
            node: self.rng.below(self.vertices) as u32,
            at_ms: self.clock_ms,
        })
    }
}

/// One launched micro-batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Server index.
    pub server: usize,
    /// Requested vertices, in batch order.
    pub nodes: Vec<u32>,
}

/// What a replay measured and checked so far.
#[derive(Debug, Default)]
pub struct Replay {
    /// Requests submitted.
    pub requests: u64,
    /// Requests resolved (any outcome).
    pub resolved: u64,
    /// Caller time inside `Server::submit`, ns.
    pub submit_ns: u64,
    /// Caller time inside `Server::poll`, ns (idle polls included).
    pub poll_ns: u64,
    /// Caller time of each `Server::poll` that launched a batch, ms.
    pub batch_ms: Vec<f64>,
    /// Caller time of each `Server::submit`, µs.
    pub submit_us: Vec<f64>,
    /// NZEs of the launched batch graphs.
    pub batch_nnz: u64,
    /// Launched batches, kept up to `keep_batches`.
    pub batches: Vec<Batch>,
    /// How many launched batches to keep in `batches`.
    pub keep_batches: usize,
    /// `(server, request id)` of every request that failed a check.
    pub failed: BTreeSet<(usize, u64)>,
    /// Sampled `(server, request id, node, logits)` for the
    /// batch-of-one comparison.
    pub sample: Vec<(usize, u64, u32, Vec<f32>)>,
}

/// The GCN and GAT servers of one replay.
pub struct Pair {
    /// `[GCN, GAT]`.
    pub servers: [Server; 2],
    seed: u64,
    submitted: [u64; 2],
}

impl Pair {
    /// Builds both servers on `dataset` at `scale`, with weights and
    /// features drawn from `seed`.
    pub fn new(
        dataset: &str,
        scale: Scale,
        seed: u64,
        tr: &mut Tracer,
    ) -> Result<Self, GnnOneError> {
        let mut build = |model: ModelKind| {
            let span = tr.begin("serve.build", 0);
            let server = Server::new(config(dataset, scale, model, seed));
            tr.end(span);
            server
        };
        let gcn = build(ModelKind::Gcn)?;
        let gat = build(ModelKind::Gat)?;
        Ok(Pair {
            servers: [gcn, gat],
            seed,
            submitted: [0; 2],
        })
    }

    /// Vertices the servers answer for.
    pub fn vertices(&self) -> usize {
        self.servers[0].state().num_vertices()
    }

    /// Replays one round of [`ROUND_REQUESTS`] arrivals: submit each,
    /// poll its server, check every outcome. Spans: `serve.submit`,
    /// `serve.<model>.batch` for a poll that launched, `serve.poll_idle`
    /// otherwise, and `bench.check`.
    pub fn replay_round(&mut self, sched: &mut Schedule, rep: &mut Replay, tr: &mut Tracer) {
        for a in sched.by_ref().take(ROUND_REQUESTS) {
            let s = a.server;
            let server = &mut self.servers[s];
            server.advance(a.at_ms - server.now_ms());
            let local_id = self.submitted[s];
            self.submitted[s] += 1;

            let span = tr.begin("serve.submit", a.id);
            let t0 = Instant::now();
            let submit = server.submit(a.node, None);
            let dt = t0.elapsed();
            tr.end(span);
            rep.requests += 1;
            rep.submit_ns += dt.as_nanos() as u64;
            rep.submit_us.push(dt.as_secs_f64() * 1e6);
            match submit {
                Submit::Queued(id) if id == local_id => {}
                Submit::Queued(_) | Submit::Rejected(_) => {
                    rep.failed.insert((s, local_id));
                }
            }

            let span = tr.begin("serve.poll_idle", a.id);
            let t0 = Instant::now();
            let outcomes = server.poll();
            let dt = t0.elapsed();
            tr.end(span);
            rep.poll_ns += dt.as_nanos() as u64;
            if outcomes.is_empty() {
                continue;
            }
            tr.rename(span, BATCH_SPANS[s]);
            rep.batch_ms.push(dt.as_secs_f64() * 1e3);

            let check = tr.begin("bench.check", a.id);
            let nodes: Vec<u32> = outcomes.iter().map(|o| o.node).collect();
            let state = server.state();
            rep.batch_nnz += nodes
                .iter()
                .map(|&v| state.dataset.csr.row_range(v as usize).len() as u64)
                .sum::<u64>();
            check_outcomes(server, s, &outcomes, self.seed, rep);
            if rep.batches.len() < rep.keep_batches {
                rep.batches.push(Batch { server: s, nodes });
            }
            tr.end(check);
        }
    }

    /// Drains both queues (empty after whole rounds) and checks whatever
    /// they still held.
    pub fn drain(&mut self, rep: &mut Replay) {
        for (s, server) in self.servers.iter_mut().enumerate() {
            let outcomes = server.drain();
            check_outcomes(server, s, &outcomes, self.seed, rep);
        }
    }

    /// Relaunches every sampled request as a batch of one through
    /// `ServingState::launch` and marks it failed unless its logits are
    /// bitwise equal to the batched answer. Returns the comparisons made.
    pub fn check_batch_of_one(&self, rep: &mut Replay) -> u64 {
        let backend: Backend = make_backend(BackendKind::Native);
        let sample = std::mem::take(&mut rep.sample);
        for (s, id, node, batched) in &sample {
            let single = self.servers[*s].state().launch(&backend, &[*node]);
            if !single.is_ok_and(|(l, _)| bitwise_eq(&l, batched)) {
                rep.failed.insert((*s, *id));
            }
        }
        let n = sample.len() as u64;
        rep.sample = sample;
        n
    }

    /// Whether both ledgers balance
    /// (`submitted == succeeded + degraded + rejected + deadline_exceeded`)
    /// with every request a success.
    pub fn ledgers_ok(&self) -> bool {
        self.servers.iter().all(|s| {
            let st = s.stats();
            st.submitted == st.succeeded + st.degraded + st.rejected + st.deadline_exceeded
                && st.degraded == 0
                && st.rejected == 0
                && st.deadline_exceeded == 0
        })
    }
}

/// Checks resolved outcomes of server `s`: each must be a non-degraded
/// success whose logits are within tolerance of the CPU reference
/// logits (`ServingState::reference_logits`, not the kernel path).
/// Samples some for the batch-of-one comparison.
fn check_outcomes(server: &Server, s: usize, outcomes: &[Outcome], seed: u64, rep: &mut Replay) {
    let state = server.state();
    let cls = state.classes;
    for o in outcomes {
        rep.resolved += 1;
        let row = o.node as usize * cls;
        let want = &state.reference_logits[row..row + cls];
        let ok = o.kind == OutcomeKind::Success
            && !o.degraded
            && o.logits
                .as_deref()
                .is_some_and(|l| l.len() == cls && reference::max_rel_error(l, want) <= TOLERANCE);
        if !ok {
            rep.failed.insert((s, o.id));
        }
        let room = rep.sample.iter().filter(|x| x.0 == s).count() < SAMPLE_PER_SERVER;
        let pick = Rng::new(seed ^ o.id, 3 + s as u64).below(SAMPLE_EVERY) == 0;
        if let (true, true, Some(l)) = (room, pick, &o.logits) {
            rep.sample.push((s, o.id, o.node, l.clone()));
        }
    }
}

//! `wallbench` — the caller-visible wall-clock benchmark of the GNNOne
//! kernels, the serving stack and the simulator.
//!
//! Every call into the program is timed from outside, through the public
//! API of `gnnone-sparse`, `gnnone-kernels`, `gnnone-serve` and
//! `gnnone-sim`; no program code is changed to measure it. The modules:
//!
//! * [`stats`] — medians, nearest-rank percentiles and the quartile rule
//!   the steadiness command uses;
//! * [`rng`] — the seeded generator every input is drawn from;
//! * [`trace`] — in-memory spans, per-layer self time and Chrome-trace
//!   export;
//! * [`round`] — the five-routine GNNOne round on the native backend and
//!   on the simulator, with independent reference outputs;
//! * [`serve`] — the alternating GCN/GAT request replay on two servers;
//! * [`metrics`] — the metric tables `BENCHMARK.json` declares and the
//!   result line every run prints;
//! * [`workload`] — the four workloads and the traced layer probes.

pub mod metrics;
pub mod rng;
pub mod round;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;

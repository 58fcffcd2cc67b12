//! The five-routine GNNOne round — SpMM, SDDMM, SpMV, `u_add_v` and
//! fused GAT — on one graph, with seeded operands and independent
//! reference outputs.
//!
//! Only the GNNOne kernels are built (never the baseline registry), so
//! removing baselines leaves this benchmark untouched.

use std::sync::Arc;

use gnnone_kernels::backend::{Backend, ExecReport};
use gnnone_kernels::gnnone::{GnnOneConfig, GnnOneSddmm, GnnOneSpmm, GnnOneSpmv};
use gnnone_kernels::graph::GraphData;
use gnnone_kernels::ir::{IrFusedGat, IrUAddV};
use gnnone_kernels::traits::{
    EdgeApplyKernel, FusedAttentionKernel, SddmmKernel, SpmmKernel, SpmvKernel,
};
use gnnone_sim::engine::LaunchError;
use gnnone_sim::{DeviceBuffer, Gpu, KernelReport};
use gnnone_sparse::reference;

use crate::rng::Rng;

/// Feature length of the feature-carrying routines.
pub const F: usize = 32;
/// LeakyReLU slope of the fused GAT routine (the registry's value).
pub const GAT_SLOPE: f32 = 0.2;
/// Largest relative error (`reference::max_rel_error`, denominators
/// floored at 1e-2) an output may have against its reference. Kernels
/// sum a row in another order than the sequential reference; on the
/// Amazon analogue's longest rows (3,273 NZEs) simulated SpMM differs
/// from it by 1.9e-4, while one NZE left out or counted twice moves a
/// row by far more than 1e-3.
pub const TOLERANCE: f32 = 1e-3;

/// One of the five GNNOne routines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routine {
    /// `Y = A·X`, edge-weighted.
    Spmm,
    /// `w = A ⊙ (X·Yᵀ)`.
    Sddmm,
    /// SpMM with feature length 1.
    Spmv,
    /// `w[e] = el[row] + er[col]`.
    UAddV,
    /// Edge softmax of `leaky_relu(el + er)` aggregating `z`.
    FusedGat,
}

/// The round's routines, in call order.
pub const ROUTINES: [Routine; 5] = [
    Routine::Spmm,
    Routine::Sddmm,
    Routine::Spmv,
    Routine::UAddV,
    Routine::FusedGat,
];

impl Routine {
    /// Metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            Routine::Spmm => "spmm",
            Routine::Sddmm => "sddmm",
            Routine::Spmv => "spmv",
            Routine::UAddV => "u_add_v",
            Routine::FusedGat => "fused_gat",
        }
    }

    /// Span of one `Backend::run_*` call.
    pub fn call_span(self) -> &'static str {
        match self {
            Routine::Spmm => "backend.spmm.call",
            Routine::Sddmm => "backend.sddmm.call",
            Routine::Spmv => "backend.spmv.call",
            Routine::UAddV => "backend.u_add_v.call",
            Routine::FusedGat => "backend.fused_gat.call",
        }
    }

    /// Reported child span: the engine's own compute time.
    pub fn compute_span(self) -> &'static str {
        match self {
            Routine::Spmm => "backend.spmm.compute",
            Routine::Sddmm => "backend.sddmm.compute",
            Routine::Spmv => "backend.spmv.compute",
            Routine::UAddV => "backend.u_add_v.compute",
            Routine::FusedGat => "backend.fused_gat.compute",
        }
    }

    /// Span of one simulator launch.
    pub fn sim_span(self) -> &'static str {
        match self {
            Routine::Spmm => "sim.spmm.call",
            Routine::Sddmm => "sim.sddmm.call",
            Routine::Spmv => "sim.spmv.call",
            Routine::UAddV => "sim.u_add_v.call",
            Routine::FusedGat => "sim.fused_gat.call",
        }
    }
}

/// Host copies of the seeded operands.
pub struct HostInputs {
    /// `|V| × F` features (SpMM input, SDDMM left, fused-GAT `z`).
    pub x: Vec<f32>,
    /// `|V| × F` SDDMM right operand.
    pub y: Vec<f32>,
    /// Per-NZE edge values (SpMM and SpMV).
    pub vals: Vec<f32>,
    /// `|V|` SpMV input.
    pub v: Vec<f32>,
    /// `|V|` destination attention term.
    pub el: Vec<f32>,
    /// `|V|` source attention term.
    pub er: Vec<f32>,
}

impl HostInputs {
    /// Operands for a graph with `n` vertices and `nnz` NZEs, drawn
    /// from `seed`.
    pub fn new(n: usize, nnz: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        HostInputs {
            x: rng.features(n * F),
            y: rng.features(n * F),
            vals: rng.features(nnz),
            v: rng.features(n),
            el: rng.features(n),
            er: rng.features(n),
        }
    }
}

/// Device copies of the operands.
pub struct DeviceInputs {
    x: DeviceBuffer<f32>,
    y: DeviceBuffer<f32>,
    vals: DeviceBuffer<f32>,
    v: DeviceBuffer<f32>,
    el: DeviceBuffer<f32>,
    er: DeviceBuffer<f32>,
}

impl DeviceInputs {
    /// Uploads `h`.
    pub fn upload(h: &HostInputs) -> Self {
        DeviceInputs {
            x: DeviceBuffer::from_slice(&h.x),
            y: DeviceBuffer::from_slice(&h.y),
            vals: DeviceBuffer::from_slice(&h.vals),
            v: DeviceBuffer::from_slice(&h.v),
            el: DeviceBuffer::from_slice(&h.el),
            er: DeviceBuffer::from_slice(&h.er),
        }
    }
}

/// The five GNNOne kernel objects over one graph.
pub struct Kernels {
    graph: Arc<GraphData>,
    spmm: GnnOneSpmm,
    sddmm: GnnOneSddmm,
    spmv: GnnOneSpmv,
    u_add_v: IrUAddV,
    fused: IrFusedGat,
}

impl Kernels {
    /// Builds the kernels; the two IR-lowered ones lower their plan here.
    pub fn new(graph: &Arc<GraphData>) -> Self {
        Kernels {
            graph: Arc::clone(graph),
            spmm: GnnOneSpmm::new(Arc::clone(graph), GnnOneConfig::default()),
            sddmm: GnnOneSddmm::new(Arc::clone(graph), GnnOneConfig::default()),
            spmv: GnnOneSpmv::new(Arc::clone(graph)),
            u_add_v: IrUAddV::new(Arc::clone(graph)),
            fused: IrFusedGat::new(Arc::clone(graph), GAT_SLOPE),
        }
    }

    /// A zeroed output buffer for `r`.
    pub fn alloc_out(&self, r: Routine) -> DeviceBuffer<f32> {
        DeviceBuffer::zeros(out_len(r, self.graph.num_vertices(), self.graph.nnz()))
    }

    /// One call of `r` through `Backend::run_*`, writing `out`.
    pub fn run(
        &self,
        backend: &Backend,
        d: &DeviceInputs,
        r: Routine,
        out: &DeviceBuffer<f32>,
    ) -> Result<ExecReport, LaunchError> {
        match r {
            Routine::Spmm => backend.run_spmm(&self.spmm, &d.vals, &d.x, F, out),
            Routine::Sddmm => backend.run_sddmm(&self.sddmm, &d.x, &d.y, F, out),
            Routine::Spmv => backend.run_spmv(&self.spmv, &d.vals, &d.v, out),
            Routine::UAddV => backend.run_edge_apply(&self.u_add_v, &d.el, &d.er, out),
            Routine::FusedGat => backend.run_fused(&self.fused, &d.x, &d.el, &d.er, F, out, None),
        }
    }

    /// One call of `r` on the simulator, keeping the full kernel report
    /// (cycles and `KernelStats`) that `Backend::run_*` folds away.
    pub fn run_sim(
        &self,
        gpu: &Gpu,
        d: &DeviceInputs,
        r: Routine,
        out: &DeviceBuffer<f32>,
    ) -> Result<KernelReport, LaunchError> {
        match r {
            Routine::Spmm => self.spmm.run(gpu, &d.vals, &d.x, F, out),
            Routine::Sddmm => self.sddmm.run(gpu, &d.x, &d.y, F, out),
            Routine::Spmv => self.spmv.run(gpu, &d.vals, &d.v, out),
            Routine::UAddV => self.u_add_v.run(gpu, &d.el, &d.er, out),
            Routine::FusedGat => self.fused.run(gpu, &d.x, &d.el, &d.er, F, out, None),
        }
    }

    /// Storage format `r` reads (`COO` or `CSR`).
    pub fn format(&self, r: Routine) -> &'static str {
        match r {
            Routine::Spmm => self.spmm.format(),
            Routine::Sddmm => self.sddmm.format(),
            Routine::Spmv => self.spmv.format(),
            Routine::UAddV => self.u_add_v.format(),
            Routine::FusedGat => self.fused.format(),
        }
    }

    /// Computed bytes `r` must move at least once: every operand and
    /// index array read once and the output written once (4-byte
    /// values and indices). Not measured — derived from array sizes.
    pub fn bytes(&self, r: Routine) -> u64 {
        let n = self.graph.num_vertices() as u64;
        let nnz = self.graph.nnz() as u64;
        let f = F as u64;
        let index = if self.format(r) == "CSR" {
            nnz + n + 1
        } else {
            2 * nnz
        };
        let values = match r {
            Routine::Spmm => nnz + 2 * n * f,
            Routine::Sddmm => 2 * n * f + nnz,
            Routine::Spmv => nnz + 2 * n,
            Routine::UAddV => 2 * n + nnz,
            Routine::FusedGat => n * f + 2 * n + n * f,
        };
        4 * (index + values)
    }
}

/// Output length of `r` on a graph with `n` vertices and `nnz` NZEs.
pub fn out_len(r: Routine, n: usize, nnz: usize) -> usize {
    match r {
        Routine::Spmm | Routine::FusedGat => n * F,
        Routine::Sddmm | Routine::UAddV => nnz,
        Routine::Spmv => n,
    }
}

/// Reference output of `r`: `gnnone_sparse::reference` for the four
/// plain routines and [`edge_softmax_aggregate`] for fused GAT.
pub fn reference(r: Routine, g: &GraphData, h: &HostInputs) -> Vec<f32> {
    match r {
        Routine::Spmm => reference::spmm_csr(&g.csr, &h.vals, &h.x, F),
        Routine::Sddmm => reference::sddmm_coo(&g.coo, &h.x, &h.y, F),
        Routine::Spmv => reference::spmv_csr(&g.csr, &h.vals, &h.v),
        Routine::UAddV => reference::u_add_v_coo(&g.coo, &h.el, &h.er),
        Routine::FusedGat => edge_softmax_aggregate(g, &h.x, &h.el, &h.er, GAT_SLOPE),
    }
}

/// GAT attention computed here, apart from the program: for each row
/// `r`, `y[r] = Σ_e softmax_e(leaky_relu(el[r] + er[c_e])) · z[c_e]`,
/// the softmax taken over the row's NZEs in f64.
pub fn edge_softmax_aggregate(
    g: &GraphData,
    z: &[f32],
    el: &[f32],
    er: &[f32],
    slope: f32,
) -> Vec<f32> {
    let n = g.num_vertices();
    let mut y = vec![0.0f32; n * F];
    let mut logits = Vec::new();
    for r in 0..n {
        let cols = g.csr.row_cols(r);
        if cols.is_empty() {
            continue;
        }
        logits.clear();
        logits.extend(cols.iter().map(|&c| {
            let raw = f64::from(el[r]) + f64::from(er[c as usize]);
            if raw > 0.0 {
                raw
            } else {
                raw * f64::from(slope)
            }
        }));
        let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let denom: f64 = logits.iter().map(|l| (l - max).exp()).sum();
        let mut acc = [0.0f64; F];
        for (&c, &l) in cols.iter().zip(&logits) {
            let a = (l - max).exp() / denom;
            for (o, &zv) in acc.iter_mut().zip(&z[c as usize * F..(c as usize + 1) * F]) {
                *o += a * f64::from(zv);
            }
        }
        for (o, a) in y[r * F..(r + 1) * F].iter_mut().zip(acc) {
            *o = a as f32;
        }
    }
    y
}

/// Whether `got` is within [`TOLERANCE`] of `want`.
pub fn close(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len() && reference::max_rel_error(got, want) <= TOLERANCE
}

/// Whether `a` and `b` are equal bit for bit.
pub fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

//! FEM element kernels: the computational core the paper accelerates.
//!
//! Per element and RK stage the paper's dataflow (Fig 1) is:
//!
//! ```text
//! LOAD Element ─▶ COMPUTE Diffusion ⊕ COMPUTE Convection ─▶ STORE Element Contribution
//!                  └ per node: LOAD Node → COMPUTE Gradients → COMPUTE τ / Residuals → STORE Node Contribution
//! ```
//!
//! The host hot path mirrors that fusion since PR 3: the Diffusion and
//! Convection stages no longer run as two independent contractions but as
//! one **fused** stage that accumulates the net flux and contracts once:
//!
//! ```text
//! LOAD Element (cached J⁻ᵀ, det·w slices — no per-stage geometry rebuild)
//!   ─▶ COMPUTE Fused flux  F = F_c − F_v   (convective minus viscous, per node)
//!   ─▶ COMPUTE Weak divergence  R_i += ∫ ∇N_i · F dV   (ONE contraction)
//!   ─▶ STORE Element Contribution
//! ```
//!
//! [`ElementWorkspace`] owns all per-element buffers (gathered fields,
//! gradients, flux tensors, residuals) so the hot loop never allocates;
//! [`fused_flux`] + [`weak_divergence`] implement the fused pipeline;
//! [`convective_flux`] is the inviscid flux (and the convective half of
//! the seed split kernels, whose viscous half and element loop live in
//! [`crate::oracle`]).
//! Geometry arrives as borrowed [`GeomRef`] slices — either from the
//! per-element recompute ([`fem_mesh::hex::ElementGeometry::view`]) or,
//! on the hot path, from the precomputed
//! [`fem_mesh::geometry::GeometryCache`]. The
//! Galerkin weak form integrates the flux divergence by parts, so a
//! conserved variable `U` with flux `F` obeys `M dU/dt = R`,
//! `R_i = ∫ ∇N_i · F dV`, evaluated with GLL quadrature collocated at the
//! element nodes.
//!
//! # Kernel paths: sum-factored vs full-matrix
//!
//! The contraction algorithm itself is selectable via [`KernelPath`]
//! (resolved once per assembly sweep into [`KernelOps`]):
//!
//! * **[`KernelPath::SumFactored`]** (the default, and the solver's hot
//!   path) exploits the tensor-product structure of the hex basis: the 3D
//!   gradient of a test function factors into the three Kronecker sweeps
//!   `D ⊗ I ⊗ I`, `I ⊗ D ⊗ I`, `I ⊗ I ⊗ D` over the **1D**
//!   differentiation matrix `D` ([`HexBasis::dmat`]), so the weak
//!   divergence of all five variables costs `5 · 3n` MACs per output node
//!   — O(n⁴) = O(p⁴) per element — instead of a dense
//!   `(npe × npe)` contraction. The three directional sweeps are fused
//!   into one loop nest over output nodes `(i1, i2, i3)`:
//!
//!   ```text
//!   for i3, i2, i1:                          # every output node
//!       acc = 0
//!       for m in 0..n:                       # ONE 1D line per direction
//!           acc += D[m][i1] · G(m, i2, i3).x     # ξ sweep   D ⊗ I ⊗ I
//!           acc += D[m][i2] · G(i1, m, i3).y     # η sweep   I ⊗ D ⊗ I
//!           acc += D[m][i3] · G(i1, i2, m).z     # ζ sweep   I ⊗ I ⊗ D
//!       res(i1, i2, i3) += sign · acc        # ONE store per node
//!   ```
//!
//!   where `G(q) = w_q det(J_q) · J⁻¹ F_q` is the quadrature-weighted,
//!   Jacobian-transformed flux.
//!
//! * **[`KernelPath::FullMatrix`]** materializes the three dense
//!   `(npe × npe)` directional operators ([`FullMatrixOperator`]) that the
//!   Kronecker products expand to, and contracts `G` against them —
//!   O(npe²) = O(p⁶) MACs per element. It computes the same integrals with
//!   a different floating-point summation order (flat `q`-major instead of
//!   per-direction line-major), so it serves as the *validation reference*:
//!   the proptests pin `sum_factored ≡ full_matrix` to ≤1e-12 relative
//!   over randomized meshes, orders, gas models, and backends.
//!
//! **Determinism.** Both paths accumulate each output node into a private
//! scalar `acc` in a fixed iteration order (ascending `m` with the
//! x/y/z terms interleaved for the factored path; ascending flat `q` for
//! the full-matrix path) and touch `res` exactly once per node. No
//! cross-node or cross-element accumulation order leaks into the kernel,
//! so for a given path the element residual is a pure function of the
//! element data — which is what lets every sweep (the batched serial
//! sweep, multi-device, the one-element loop of [`crate::oracle`])
//! reproduce the same answer bitwise as long as its *scatter* order is
//! canonical. The
//! sum-factored path is bit-identical to the pre-knob kernel (it *is* that
//! loop), so all golden traces and cross-backend bitwise guarantees are
//! unchanged by default. The same holds across the lanes of an element
//! batch (below): lanes never mix — every operation of a four-lane run
//! acts on each lane alone, in the one-element order, from the same start
//! values — and Rust never contracts a multiply and an add into a fused
//! multiply-add, with or without `+avx2`, so each lane holds the bits the
//! one-element kernel computes for its element.
//!
//! The factored loop nest, like [`HexBasis::reference_gradient`] behind
//! the flux stages, is written once over a [`NodeCount`] and instantiated
//! per order by [`HexBasis::with_node_count`]: `Fixed<2..=5>` for orders
//! 1–4, so the compiler unrolls the constant-length 1D lines and drops the
//! bounds checks, and `Runtime(n)` above. Every instantiation runs the
//! same multiplies and adds in the same order from the same start values,
//! so which one runs never changes a bit; a proptest pins each `Fixed<N>`
//! to `Runtime(n)` on random fluxes and geometry.
//!
//! # Element batches
//!
//! Every stage is also written once over a [`Lane`], the per-node value
//! type: the gather, the reference gradients
//! ([`HexBasis::lane_gradient`]), the fused and convective fluxes, the
//! `G` transform and both contractions. `f64` is one element; the
//! public [`ElementWorkspace`], [`fused_flux`], [`convective_flux`] and
//! [`weak_divergence`] are that one-lane instantiation, reading geometry
//! in place from a [`GeomRef`]. [`F64x4`] runs four elements side by
//! side in an `ElementWorkspace<F64x4>`, with `J⁻ᵀ` and `det·w`
//! transposed into lanes. The element-batch evaluator
//! (`crate::batch`) drives the host assembly sweeps through these
//! kernels four elements at a time inside one AVX2 entry point when the
//! CPU has AVX2, and one element at a time otherwise; the full-matrix
//! reference always runs one element at a time. Lane arithmetic is plain
//! `[f64; 4]` arrays that the compiler maps to vector instructions — no
//! `std::simd`, no intrinsics.
//!
//! [`F64x4`]: fem_numerics::tensor::F64x4

use crate::gas::GasModel;
use crate::state::{Conserved, Primitives};
use fem_mesh::hex::GeomRef;
use fem_numerics::linalg::Mat3;
use fem_numerics::tensor::{HexBasis, Lane, NodeCount, NodeKernel};

/// Number of conserved variables (ρ, ρu·3, E).
pub const NUM_VARS: usize = 5;

/// Per-element working storage for the diffusion/convection kernels.
///
/// `L` is the [`Lane`] a node value is stored in: the default `f64`
/// workspace holds one element, and the element-batch evaluator
/// (`crate::batch`) runs an `ElementWorkspace<F64x4>` holding four
/// elements lane-interleaved, lane `j` being the `j`-th element of the
/// batch.
///
/// [`F64x4`]: fem_numerics::tensor::F64x4
#[derive(Debug, Clone)]
pub struct ElementWorkspace<L: Lane = f64> {
    npe: usize,
    /// Gathered density.
    pub rho: Vec<L>,
    /// Gathered velocity components.
    pub vel: [Vec<L>; 3],
    /// Gathered temperature.
    pub temp: Vec<L>,
    /// Gathered pressure.
    pub pres: Vec<L>,
    /// Gathered total energy.
    pub energy: Vec<L>,
    /// Gathered per-node viscosity.
    pub mu: Vec<L>,
    /// Reference-space gradients of (u_x, u_y, u_z, T).
    pub(crate) grad_ref: [Vec<[L; 3]>; 4],
    /// Flux tensor per conserved variable: `flux[v][q]` is the flux vector
    /// of variable `v` at node `q`.
    pub(crate) flux: [Vec<[L; 3]>; NUM_VARS],
    /// Quadrature-weighted, Jacobian-transformed flux (`G` in the module
    /// docs): contraction input.
    g: [Vec<[L; 3]>; NUM_VARS],
    /// Element residual accumulator per variable.
    pub res: [Vec<L>; NUM_VARS],
}

impl ElementWorkspace {
    /// Allocates buffers for elements with `nodes_per_element` nodes.
    pub fn new(nodes_per_element: usize) -> Self {
        ElementWorkspace::zeroed(nodes_per_element)
    }

    /// Gathers the element's node data from the global arrays — the
    /// paper's LOAD-Element / LOAD-Node stages.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != nodes_per_element()`.
    pub fn gather(&mut self, nodes: &[u32], conserved: &Conserved, prim: &Primitives) {
        self.gather_lanes(&[nodes], conserved, prim);
    }

    /// Scatter-adds the element residuals into the global RHS — the
    /// paper's STORE-Element-Contribution stage.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != nodes_per_element()`.
    pub fn scatter_add(&self, nodes: &[u32], rhs: &mut Conserved) {
        assert_eq!(nodes.len(), self.npe, "element node count");
        for (q, &n) in nodes.iter().enumerate() {
            let n = n as usize;
            rhs.rho[n] += self.res[0][q];
            rhs.mom[0][n] += self.res[1][q];
            rhs.mom[1][n] += self.res[2][q];
            rhs.mom[2][n] += self.res[3][q];
            rhs.energy[n] += self.res[4][q];
        }
    }
}

impl<L: Lane> ElementWorkspace<L> {
    /// Allocates zeroed buffers for `L::WIDTH` elements with
    /// `nodes_per_element` nodes each.
    pub(crate) fn zeroed(nodes_per_element: usize) -> Self {
        let f = || vec![L::ZERO; nodes_per_element];
        let v = || vec![[L::ZERO; 3]; nodes_per_element];
        ElementWorkspace {
            npe: nodes_per_element,
            rho: f(),
            vel: [f(), f(), f()],
            temp: f(),
            pres: f(),
            energy: f(),
            mu: f(),
            grad_ref: [v(), v(), v(), v()],
            flux: [v(), v(), v(), v(), v()],
            g: [v(), v(), v(), v(), v()],
            res: [f(), f(), f(), f(), f()],
        }
    }

    /// Nodes per element this workspace was sized for.
    pub fn nodes_per_element(&self) -> usize {
        self.npe
    }

    /// Gathers one element per lane: lane `j` of every field reads the
    /// nodes `elements[j]`.
    ///
    /// # Panics
    ///
    /// Panics unless there is one element per lane, each with
    /// `nodes_per_element()` nodes.
    #[inline(always)]
    pub(crate) fn gather_lanes(
        &mut self,
        elements: &[&[u32]],
        conserved: &Conserved,
        prim: &Primitives,
    ) {
        assert_eq!(elements.len(), L::WIDTH, "one element per lane");
        let npe = self.npe;
        let [rho, energy, temp, pres, mu] = [
            &mut self.rho,
            &mut self.energy,
            &mut self.temp,
            &mut self.pres,
            &mut self.mu,
        ]
        .map(|f| &mut f[..npe]);
        let [vx, vy, vz] = self.vel.each_mut().map(|v| &mut v[..npe]);
        for (j, nodes) in elements.iter().enumerate() {
            assert_eq!(nodes.len(), npe, "element node count");
            for (q, &n) in nodes.iter().enumerate() {
                let n = n as usize;
                *rho[q].lane_mut(j) = conserved.rho[n];
                *energy[q].lane_mut(j) = conserved.energy[n];
                *vx[q].lane_mut(j) = prim.vel[0][n];
                *vy[q].lane_mut(j) = prim.vel[1][n];
                *vz[q].lane_mut(j) = prim.vel[2][n];
                *temp[q].lane_mut(j) = prim.temp[n];
                *pres[q].lane_mut(j) = prim.pressure[n];
                *mu[q].lane_mut(j) = prim.mu[n];
            }
        }
    }

    /// Clears the element residual accumulators.
    pub fn zero_residuals(&mut self) {
        for r in &mut self.res {
            r.fill(L::ZERO);
        }
    }

    /// The five residuals of lane `lane` at node `q`.
    #[inline(always)]
    pub(crate) fn residual(&self, lane: usize, q: usize) -> [f64; NUM_VARS] {
        self.res.each_ref().map(|r| r[q].lane(lane))
    }
}

/// A node's cached `J⁻ᵀ` as the kernels read it: the cache's [`Mat3`]
/// for one element, or `[[L; 3]; 3]` with one element per lane.
pub(crate) trait Jacobian<L>: Copy {
    /// The rows of `J⁻ᵀ`.
    fn rows(&self) -> [[L; 3]; 3];
}

impl Jacobian<f64> for Mat3 {
    #[inline(always)]
    fn rows(&self) -> [[f64; 3]; 3] {
        self.m
    }
}

impl<L: Lane> Jacobian<L> for [[L; 3]; 3] {
    #[inline(always)]
    fn rows(&self) -> [[L; 3]; 3] {
        *self
    }
}

// Three-vector arithmetic on lanes, each in the operation order of the
// `Vec3`/`Mat3` method it names, so the one-lane kernels keep the bits
// of the `Vec3` code they replaced.

/// `a + b` ([`Vec3`](fem_numerics::linalg::Vec3) `+`).
#[inline(always)]
fn add<L: Lane>(a: [L; 3], b: [L; 3]) -> [L; 3] {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

/// `a − b` ([`Vec3`](fem_numerics::linalg::Vec3) `−`).
#[inline(always)]
fn sub<L: Lane>(a: [L; 3], b: [L; 3]) -> [L; 3] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

/// `s · v` ([`Vec3`](fem_numerics::linalg::Vec3)'s `f64 * Vec3`, which
/// multiplies `v.x * s`, …).
#[inline(always)]
fn scale<L: Lane>(s: L, v: [L; 3]) -> [L; 3] {
    [v[0] * s, v[1] * s, v[2] * s]
}

/// `a · b` ([`Vec3::dot`](fem_numerics::linalg::Vec3::dot)).
#[inline(always)]
fn dot<L: Lane>(a: [L; 3], b: [L; 3]) -> L {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

/// `m v` ([`Mat3::mul_vec`]).
#[inline(always)]
fn mul_vec<L: Lane>(m: &[[L; 3]; 3], v: [L; 3]) -> [L; 3] {
    [dot(m[0], v), dot(m[1], v), dot(m[2], v)]
}

/// Fills the workspace flux tensors with the **convective** (Euler) fluxes:
///
/// * mass: `ρu`
/// * momentum `i`: `ρ u_i u + p e_i`
/// * energy: `(E + p) u`
pub fn convective_flux(ws: &mut ElementWorkspace) {
    lane_convective_flux(ws);
}

/// [`convective_flux`] of every lane.
#[inline(always)]
pub(crate) fn lane_convective_flux<L: Lane>(ws: &mut ElementWorkspace<L>) {
    let npe = ws.npe;
    let [vx, vy, vz] = ws.vel.each_ref().map(|v| &v[..npe]);
    let (rhos, pres, energy) = (&ws.rho[..npe], &ws.pres[..npe], &ws.energy[..npe]);
    let [f0, f1, f2, f3, f4] = ws.flux.each_mut().map(|f| &mut f[..npe]);
    let z = L::ZERO;
    for q in 0..npe {
        let rho = rhos[q];
        let u = [vx[q], vy[q], vz[q]];
        let p = pres[q];
        let e = energy[q];
        f0[q] = scale(rho, u);
        f1[q] = add(scale(rho * u[0], u), [p, z, z]);
        f2[q] = add(scale(rho * u[1], u), [z, p, z]);
        f3[q] = add(scale(rho * u[2], u), [z, z, p]);
        f4[q] = scale(e + p, u);
    }
}

/// Fills the workspace flux tensors with the **fused net flux**
/// `F = F_c − F_v` — the paper's merged Diffusion ⊕ Convection stage in
/// one per-node sweep:
///
/// * mass: `ρu`
/// * momentum `i`: `ρ u_i u + p e_i − τ_i`
/// * energy: `(E + p) u − (τ·u + κ∇T)`
///
/// Followed by **one** [`weak_divergence`] call with `sign = +1`, this
/// replaces the split `convective_flux` → `weak_divergence(+1)` →
/// `viscous_flux` → `weak_divergence(−1)` sequence
/// ([`crate::oracle::split_into`]), halving the dominant
/// tensor-contraction work of viscous runs (the semi-discrete form
/// `M dU/dt = ∫∇N·F_c − ∫∇N·F_v = ∫∇N·(F_c − F_v)` is contracted once).
/// Matches the split path to rounding (the per-node flux subtraction
/// regroups the floating-point accumulation), not bitwise.
pub fn fused_flux(ws: &mut ElementWorkspace, gas: &GasModel, basis: &HexBasis, geom: GeomRef) {
    lane_fused_flux(ws, gas, basis, geom.inv_jt);
}

/// [`fused_flux`] of every lane, with lane `j` reading its `J⁻ᵀ` from
/// lane `j` of `inv_jt`.
#[inline(always)]
pub(crate) fn lane_fused_flux<L: Lane, J: Jacobian<L>>(
    ws: &mut ElementWorkspace<L>,
    gas: &GasModel,
    basis: &HexBasis,
    inv_jt: &[J],
) {
    // Reference gradients of the three velocity components and T.
    let (head, tail) = ws.grad_ref.split_at_mut(3);
    basis.lane_gradient(&ws.vel[0], &mut head[0]);
    basis.lane_gradient(&ws.vel[1], &mut head[1]);
    basis.lane_gradient(&ws.vel[2], &mut head[2]);
    basis.lane_gradient(&ws.temp, &mut tail[0]);
    let kappa = L::splat(gas.kappa());
    let two_thirds = L::splat(2.0 / 3.0);
    // Every input and output re-sliced to `npe` once, so the node loop
    // carries no per-access bounds checks.
    let npe = ws.npe;
    let inv_jts = &inv_jt[..npe];
    let [gx, gy, gz, gt] = ws.grad_ref.each_ref().map(|g| &g[..npe]);
    let [vx, vy, vz] = ws.vel.each_ref().map(|v| &v[..npe]);
    let (rhos, pres, energy, mus) = (
        &ws.rho[..npe],
        &ws.pres[..npe],
        &ws.energy[..npe],
        &ws.mu[..npe],
    );
    let [f0, f1, f2, f3, f4] = ws.flux.each_mut().map(|f| &mut f[..npe]);
    let z = L::ZERO;
    for q in 0..npe {
        let m = inv_jts[q].rows();
        // Physical gradients: L[a][b] = ∂u_a/∂x_b, row a = J⁻ᵀ ∇̂u_a.
        let l = [mul_vec(&m, gx[q]), mul_vec(&m, gy[q]), mul_vec(&m, gz[q])];
        let grad_t = mul_vec(&m, gt[q]);
        let mu = mus[q];
        let div_u = l[0][0] + l[1][1] + l[2][2];
        // τ = μ(L + Lᵀ) − ⅔ μ (∇·u) I, entry by entry as `Mat3` computes
        // it: (L + Lᵀ)·μ minus the identity's entry times ⅔ μ ∇·u.
        let iso = two_thirds * mu * div_u;
        let mut tau = [[z; 3]; 3];
        for (r, row) in tau.iter_mut().enumerate() {
            for (c, t) in row.iter_mut().enumerate() {
                let identity = L::splat(if r == c { 1.0 } else { 0.0 });
                *t = (l[r][c] + l[c][r]) * mu - identity * iso;
            }
        }
        let rho = rhos[q];
        let u = [vx[q], vy[q], vz[q]];
        let p = pres[q];
        let e = energy[q];
        // Net flux per variable: convective minus viscous (mass has no
        // viscous contribution).
        f0[q] = scale(rho, u);
        f1[q] = sub(add(scale(rho * u[0], u), [p, z, z]), tau[0]);
        f2[q] = sub(add(scale(rho * u[1], u), [z, p, z]), tau[1]);
        f3[q] = sub(add(scale(rho * u[2], u), [z, z, p]), tau[2]);
        f4[q] = sub(scale(e + p, u), add(mul_vec(&tau, u), scale(kappa, grad_t)));
    }
}

/// Writes `G = w det(J) · J⁻¹ F` per node, the contraction input; with
/// `inv_jt = J⁻ᵀ` stored, `(J⁻¹ F)_d = F · column d of J⁻ᵀ`.
#[inline(always)]
fn transform_flux<L: Lane, J: Jacobian<L>>(
    flux: &[[L; 3]],
    inv_jt: &[J],
    det_w: &[L],
    g: &mut [[L; 3]],
) {
    let npe = g.len();
    let (flux, inv_jt, det_w) = (&flux[..npe], &inv_jt[..npe], &det_w[..npe]);
    for q in 0..npe {
        let f = flux[q];
        let m = inv_jt[q].rows();
        let w = det_w[q];
        g[q] = [
            w * dot(f, [m[0][0], m[1][0], m[2][0]]),
            w * dot(f, [m[0][1], m[1][1], m[2][1]]),
            w * dot(f, [m[0][2], m[1][2], m[2][2]]),
        ];
    }
}

/// Accumulates `sign · ∫ ∇N_i · F dV` into the workspace residuals for all
/// five variables, using the tensor-product GLL contraction.
///
/// `sign` is `+1` for the convective fluxes and `-1` for the viscous
/// fluxes (the semi-discrete form is
/// `M dU/dt = ∫∇N·F_c − ∫∇N·F_v`).
///
/// # Panics
///
/// Panics if the workspace was sized for a different element.
pub fn weak_divergence(ws: &mut ElementWorkspace, basis: &HexBasis, geom: GeomRef, sign: f64) {
    lane_weak_divergence(ws, basis, geom.inv_jt, geom.det_w, sign);
}

/// [`weak_divergence`] of every lane.
#[inline(always)]
pub(crate) fn lane_weak_divergence<L: Lane, J: Jacobian<L>>(
    ws: &mut ElementWorkspace<L>,
    basis: &HexBasis,
    inv_jt: &[J],
    det_w: &[L],
    sign: f64,
) {
    assert_eq!(ws.npe, basis.nodes_per_element(), "element node count");
    basis.with_node_count(WeakDivergence {
        ws,
        dmat: basis.dmat(),
        inv_jt,
        det_w,
        sign,
    });
}

/// The loop nest of [`weak_divergence`].
struct WeakDivergence<'a, L: Lane, J> {
    ws: &'a mut ElementWorkspace<L>,
    dmat: &'a [f64],
    inv_jt: &'a [J],
    det_w: &'a [L],
    sign: f64,
}

impl<L: Lane, J: Jacobian<L>> NodeKernel for WeakDivergence<'_, L, J> {
    type Output = ();

    #[inline(always)]
    fn run<N: NodeCount>(self, n: N) {
        let n = n.get();
        let npe = n * n * n;
        let d = &self.dmat[..n * n];
        let sign = L::splat(self.sign);
        let ws = self.ws;
        for v in 0..NUM_VARS {
            let g = &mut ws.g[v][..npe];
            transform_flux(&ws.flux[v], self.inv_jt, self.det_w, g);
            // res_i += Σ_m D[m][i1] G(m,i2,i3).x
            //        + Σ_m D[m][i2] G(i1,m,i3).y
            //        + Σ_m D[m][i3] G(i1,i2,m).z
            let g = &ws.g[v][..npe];
            let res = &mut ws.res[v][..npe];
            for i3 in 0..n {
                for i2 in 0..n {
                    for i1 in 0..n {
                        let mut acc = L::ZERO;
                        for m in 0..n {
                            acc += L::splat(d[m * n + i1]) * g[m + n * (i2 + n * i3)][0];
                            acc += L::splat(d[m * n + i2]) * g[i1 + n * (m + n * i3)][1];
                            acc += L::splat(d[m * n + i3]) * g[i1 + n * (i2 + n * m)][2];
                        }
                        res[i1 + n * (i2 + n * i3)] += sign * acc;
                    }
                }
            }
        }
    }
}

/// Selectable contraction algorithm for the weak-divergence stage — the
/// `KernelPath` knob on `SimulationBuilder`/`BackendSpec`.
///
/// See the module docs for the two loop nests and the determinism
/// argument. The default is [`KernelPath::SumFactored`], which is
/// bit-identical to the pre-knob kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPath {
    /// Three directional 1D sweeps against the 1D differentiation matrix —
    /// O(p⁴) MACs per element. The hot path and the default.
    #[default]
    SumFactored,
    /// Dense `(npe × npe)` directional operators — O(p⁶) MACs per
    /// element. The proptest-pinned validation reference.
    FullMatrix,
}

impl KernelPath {
    /// Every path, in ladder order (factored first — the default).
    pub const ALL: [KernelPath; 2] = [KernelPath::SumFactored, KernelPath::FullMatrix];

    /// The spec-file name of the path (`sum-factored` / `full-matrix`).
    pub fn as_str(&self) -> &'static str {
        match self {
            KernelPath::SumFactored => "sum-factored",
            KernelPath::FullMatrix => "full-matrix",
        }
    }

    /// Parses a spec-file name; `None` for anything else.
    pub fn parse(name: &str) -> Option<KernelPath> {
        match name {
            "sum-factored" => Some(KernelPath::SumFactored),
            "full-matrix" => Some(KernelPath::FullMatrix),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The three dense `(npe × npe)` directional weak-divergence operators —
/// the explicit Kronecker expansions `C_x = D ⊗ I ⊗ I`, `C_y = I ⊗ D ⊗ I`,
/// `C_z = I ⊗ I ⊗ D` (in the transposed application the contraction uses).
///
/// Built once per assembly sweep by [`KernelOps::resolve`]; at order `p`
/// this is `3 · (p+1)⁶` doubles, which is why the factored path exists.
#[derive(Debug, Clone)]
pub struct FullMatrixOperator {
    npe: usize,
    /// Row-major `npe × npe`: coefficient of `G(q).x` in `res[i]`.
    cx: Vec<f64>,
    /// Row-major `npe × npe`: coefficient of `G(q).y` in `res[i]`.
    cy: Vec<f64>,
    /// Row-major `npe × npe`: coefficient of `G(q).z` in `res[i]`.
    cz: Vec<f64>,
}

impl FullMatrixOperator {
    /// Expands the basis' 1D differentiation matrix into the three dense
    /// directional operators.
    pub fn for_basis(basis: &HexBasis) -> Self {
        let n = basis.nodes_per_dim();
        let npe = basis.nodes_per_element();
        let d = basis.dmat();
        let mut cx = vec![0.0; npe * npe];
        let mut cy = vec![0.0; npe * npe];
        let mut cz = vec![0.0; npe * npe];
        for i3 in 0..n {
            for i2 in 0..n {
                for i1 in 0..n {
                    let i = i1 + n * (i2 + n * i3);
                    for m in 0..n {
                        // Nonzeros of each Kronecker factor: the source
                        // node shares the two off-direction indices.
                        cx[i * npe + (m + n * (i2 + n * i3))] = d[m * n + i1];
                        cy[i * npe + (i1 + n * (m + n * i3))] = d[m * n + i2];
                        cz[i * npe + (i1 + n * (i2 + n * m))] = d[m * n + i3];
                    }
                }
            }
        }
        FullMatrixOperator { npe, cx, cy, cz }
    }

    /// Nodes per element the operator was built for.
    pub fn nodes_per_element(&self) -> usize {
        self.npe
    }
}

/// Accumulates `sign · ∫ ∇N_i · F dV` with the dense full-matrix
/// operators — the O(p⁶) validation reference for [`weak_divergence`].
///
/// Computes the same integrals as the factored kernel but sums in flat
/// `q`-major order, so it matches to rounding (≤1e-12 relative), not
/// bitwise.
///
/// # Panics
///
/// Panics if the operator was built for a different element size.
pub fn weak_divergence_full_matrix(
    ws: &mut ElementWorkspace,
    op: &FullMatrixOperator,
    geom: GeomRef,
    sign: f64,
) {
    lane_weak_divergence_full_matrix(ws, op, geom.inv_jt, geom.det_w, sign);
}

/// [`weak_divergence_full_matrix`] of every lane.
#[inline(always)]
fn lane_weak_divergence_full_matrix<L: Lane, J: Jacobian<L>>(
    ws: &mut ElementWorkspace<L>,
    op: &FullMatrixOperator,
    inv_jt: &[J],
    det_w: &[L],
    sign: f64,
) {
    let npe = ws.npe;
    assert_eq!(op.npe, npe, "operator element size");
    let sign = L::splat(sign);
    for v in 0..NUM_VARS {
        transform_flux(&ws.flux[v], inv_jt, det_w, &mut ws.g[v][..npe]);
        for i in 0..npe {
            let row = i * npe;
            let mut acc = L::ZERO;
            for q in 0..npe {
                let g = ws.g[v][q];
                acc += L::splat(op.cx[row + q]) * g[0]
                    + L::splat(op.cy[row + q]) * g[1]
                    + L::splat(op.cz[row + q]) * g[2];
            }
            ws.res[v][i] += sign * acc;
        }
    }
}

/// A [`KernelPath`] resolved against a basis — what the assembly loops
/// actually dispatch on. Resolving the full-matrix path materializes the
/// dense operators once per sweep so the per-element cost is contraction
/// only.
#[derive(Debug, Clone)]
pub enum KernelOps {
    /// The factored three-sweep kernel ([`weak_divergence`]); carries no
    /// state beyond the basis every caller already has.
    SumFactored,
    /// The dense reference kernel with its materialized operators.
    FullMatrix(FullMatrixOperator),
}

impl KernelOps {
    /// Resolves a path for a basis.
    pub fn resolve(path: KernelPath, basis: &HexBasis) -> KernelOps {
        match path {
            KernelPath::SumFactored => KernelOps::SumFactored,
            KernelPath::FullMatrix => KernelOps::FullMatrix(FullMatrixOperator::for_basis(basis)),
        }
    }

    /// The path this resolution came from.
    pub fn path(&self) -> KernelPath {
        match self {
            KernelOps::SumFactored => KernelPath::SumFactored,
            KernelOps::FullMatrix(_) => KernelPath::FullMatrix,
        }
    }

    /// Dispatches the weak-divergence contraction to the resolved kernel.
    pub fn weak_divergence(
        &self,
        ws: &mut ElementWorkspace,
        basis: &HexBasis,
        geom: GeomRef,
        sign: f64,
    ) {
        self.lane_weak_divergence(ws, basis, geom.inv_jt, geom.det_w, sign);
    }

    /// [`KernelOps::weak_divergence`] of every lane.
    #[inline(always)]
    pub(crate) fn lane_weak_divergence<L: Lane, J: Jacobian<L>>(
        &self,
        ws: &mut ElementWorkspace<L>,
        basis: &HexBasis,
        inv_jt: &[J],
        det_w: &[L],
        sign: f64,
    ) {
        match self {
            KernelOps::SumFactored => lane_weak_divergence(ws, basis, inv_jt, det_w, sign),
            KernelOps::FullMatrix(op) => {
                lane_weak_divergence_full_matrix(ws, op, inv_jt, det_w, sign)
            }
        }
    }
}

/// Floating-point operation counts of the element kernels, used by the
/// performance models (CPU roofline and HLS op scheduling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelOpCounts {
    /// FLOPs in the convective-flux stage per element.
    pub convection_flops: usize,
    /// FLOPs in the viscous stage (gradients + τ + fluxes) per element.
    pub diffusion_flops: usize,
    /// FLOPs in one weak-divergence contraction per element (all 5 vars)
    /// on the **sum-factored** path — the hot-path count the roofline and
    /// HLS models consume. Three 1D sweeps: O(p⁴) per element.
    pub divergence_flops: usize,
    /// FLOPs in one weak-divergence contraction per element on the
    /// **full-matrix** reference path: dense `(npe × npe)` directional
    /// operators, O(p⁶) per element.
    pub full_matrix_divergence_flops: usize,
    /// Bytes of contraction operator the factored path streams per
    /// element sweep: the single 1D differentiation matrix (`8 n²`).
    pub factored_operator_bytes: usize,
    /// Bytes of contraction operator the full-matrix path streams: three
    /// dense `(npe × npe)` matrices (`3 · 8 npe²`).
    pub full_matrix_operator_bytes: usize,
    /// FLOPs the fused stage spends subtracting `F_v` from `F_c` per
    /// element (4 variables × 3 components per node; mass is untouched).
    pub fusion_flops: usize,
    /// FLOPs in the RKU primitive update per node.
    pub rku_flops_per_node: usize,
}

impl KernelOpCounts {
    /// Counts for elements of the given basis.
    pub fn for_basis(basis: &HexBasis) -> Self {
        let n = basis.nodes_per_dim();
        let npe = basis.nodes_per_element();
        // convective_flux: ~30 flops/node (5 flux vectors of 3 comps).
        let convection_flops = 30 * npe;
        // gradients: 4 fields × 3n⁴ MACs (2 flops each) + per-node
        // transform (3 mat-vec ≈ 45) + τ (~40) + energy flux (~30).
        let diffusion_flops = 4 * 2 * 3 * n * n * n * n + npe * (45 + 15 + 40 + 30);
        // G: 5 vars × npe × (3 dots ≈ 18); factored contraction:
        // 5 × npe × 3n MACs (three 1D sweeps, O(n⁴) per element).
        let divergence_flops = 5 * npe * 18 + 5 * 2 * 3 * n * npe;
        // Full-matrix reference: same G transform, then 5 × npe × 3·npe
        // MACs against the dense directional operators (O(npe²) = O(n⁶)).
        let full_matrix_divergence_flops = 5 * npe * 18 + 5 * 2 * 3 * npe * npe;
        // fused_flux: F_c − F_v for momentum ×3 and energy, 3 comps each.
        let fusion_flops = 4 * 3 * npe;
        // RKU per node: division, dot, energy split, T, p ≈ 15 flops.
        KernelOpCounts {
            convection_flops,
            diffusion_flops,
            divergence_flops,
            full_matrix_divergence_flops,
            factored_operator_bytes: 8 * n * n,
            full_matrix_operator_bytes: 3 * 8 * npe * npe,
            fusion_flops,
            rku_flops_per_node: 15,
        }
    }

    /// The weak-divergence flop count of the given [`KernelPath`].
    pub fn divergence_flops_for(&self, path: KernelPath) -> usize {
        match path {
            KernelPath::SumFactored => self.divergence_flops,
            KernelPath::FullMatrix => self.full_matrix_divergence_flops,
        }
    }

    /// [`rkl_flops_per_element`](Self::rkl_flops_per_element) with the
    /// contraction term taken from the given [`KernelPath`].
    pub fn rkl_flops_per_element_for(&self, path: KernelPath) -> usize {
        self.convection_flops
            + self.diffusion_flops
            + self.fusion_flops
            + self.divergence_flops_for(path)
    }

    /// Total RKL flops per element of the **fused** hot path (convection
    /// plus diffusion flux work plus the `F_c − F_v` subtraction plus ONE
    /// weak-divergence contraction) — what the solver executes per
    /// viscous element since the fused kernel landed, and the count the
    /// roofline models consume.
    pub fn rkl_flops_per_element(&self) -> usize {
        self.convection_flops + self.diffusion_flops + self.fusion_flops + self.divergence_flops
    }

    /// Total RKL flops per element of the seed **split** path (convection
    /// plus diffusion plus two contractions) — kept as the reference for
    /// the fused-vs-split speedup accounting.
    pub fn split_rkl_flops_per_element(&self) -> usize {
        self.convection_flops + self.diffusion_flops + 2 * self.divergence_flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AssemblyContext;
    use crate::gas::GasModel;
    use crate::oracle::{element_loop_into, split_into};
    use fem_mesh::generator::BoxMeshBuilder;
    use fem_mesh::hex::{ElementGeometry, GeometryScratch};
    use fem_numerics::linalg::Vec3;
    use fem_numerics::tensor::{Fixed, Runtime};
    use proptest::prelude::*;

    fn setup(n: usize) -> (fem_mesh::HexMesh, HexBasis) {
        let mesh = BoxMeshBuilder::tgv_box(n).build().unwrap();
        let basis = HexBasis::new(mesh.order()).unwrap();
        (mesh, basis)
    }

    fn make_state(
        mesh: &fem_mesh::HexMesh,
        gas: &GasModel,
        f: impl Fn(Vec3) -> (f64, Vec3, f64),
    ) -> (Conserved, Primitives) {
        let nn = mesh.num_nodes();
        let mut c = Conserved::zeros(nn);
        let mut p = Primitives::zeros(nn);
        for (i, &x) in mesh.coords().iter().enumerate() {
            let (rho, u, t) = f(x);
            c.rho[i] = rho;
            c.mom[0][i] = rho * u.x;
            c.mom[1][i] = rho * u.y;
            c.mom[2][i] = rho * u.z;
            c.energy[i] = gas.total_energy(rho, u, t);
        }
        p.update_from(&c, gas);
        (c, p)
    }

    /// The assembled global RHS of the oracle sweep `sweep` on cached
    /// geometry and the sum-factored contraction.
    fn assemble_with(
        sweep: fn(&AssemblyContext<'_>, &Conserved, &Primitives, &mut Conserved),
        mesh: &fem_mesh::HexMesh,
        basis: &HexBasis,
        gas: &GasModel,
        conserved: &Conserved,
        prim: &Primitives,
    ) -> Conserved {
        let geometry = fem_mesh::geometry::GeometryCache::build(mesh, basis).unwrap();
        let ctx = AssemblyContext {
            mesh,
            basis,
            gas,
            geometry: &geometry,
            kernel: KernelPath::SumFactored,
        };
        let mut rhs = Conserved::zeros(mesh.num_nodes());
        sweep(&ctx, conserved, prim, &mut rhs);
        rhs
    }

    #[test]
    fn uniform_state_has_zero_residual() {
        let (mesh, basis) = setup(4);
        let gas = GasModel::air(1.8e-5);
        let (c, p) = make_state(&mesh, &gas, |_| (1.2, Vec3::new(30.0, -10.0, 5.0), 300.0));
        let rhs = assemble_with(element_loop_into, &mesh, &basis, &gas, &c, &p);
        let scale = 1e5; // typical flux magnitude (E+p)·u ~ 1e7, be generous
        rhs.for_each_field(|f| {
            for &v in f {
                assert!(v.abs() < 1e-7 * scale, "residual {v} not ~0");
            }
        });
    }

    #[test]
    fn conservation_sums_vanish_for_smooth_state() {
        // Galerkin + periodic: Σ_i R_i = 0 exactly (Σ_i ∇N_i = 0) for every
        // conserved variable, independent of the state.
        let (mesh, basis) = setup(4);
        let gas = GasModel::air(2.0e-2);
        let (c, p) = make_state(&mesh, &gas, |x| {
            (
                1.0 + 0.1 * x.x.sin() * x.y.cos(),
                Vec3::new(10.0 * x.y.sin(), -7.0 * x.z.cos(), 3.0 * x.x.sin()),
                300.0 + 15.0 * x.z.sin(),
            )
        });
        let rhs = assemble_with(element_loop_into, &mesh, &basis, &gas, &c, &p);
        let mut sums = Vec::new();
        rhs.for_each_field(|f| sums.push(f.iter().sum::<f64>()));
        // Scale: typical |R| entries.
        let mut max_abs: f64 = 0.0;
        rhs.for_each_field(|f| {
            for &v in f {
                max_abs = max_abs.max(v.abs());
            }
        });
        for (v, s) in sums.iter().enumerate() {
            assert!(
                s.abs() <= 1e-10 * max_abs.max(1.0),
                "variable {v}: conservation sum {s} (max residual {max_abs})"
            );
        }
    }

    #[test]
    fn viscous_shear_layer_gives_laplacian() {
        // u = (A sin(y), 0, 0), uniform ρ, T ⇒ momentum-x residual must
        // equal μ ∂²u/∂y² = -μ A sin(y) (times lumped mass).
        let (mesh, basis) = setup(12);
        let mu = 1.5e-3;
        let gas = GasModel {
            gamma: 1.4,
            r_gas: 287.0,
            mu,
            prandtl: 0.71,
        };
        let a = 2.0;
        let rho0 = 1.0;
        let (c, p) = make_state(&mesh, &gas, |x| {
            (rho0, Vec3::new(a * x.y.sin(), 0.0, 0.0), 300.0)
        });
        let rhs = assemble_with(element_loop_into, &mesh, &basis, &gas, &c, &p);
        // Lumped mass.
        let npe = mesh.nodes_per_element();
        let mut scratch = GeometryScratch::new(npe);
        let mut geom = ElementGeometry::with_capacity(npe);
        let mut mass = vec![0.0; mesh.num_nodes()];
        for e in 0..mesh.num_elements() {
            mesh.fill_element_geometry(e, &basis, &mut scratch, &mut geom)
                .unwrap();
            for (q, &n) in mesh.element_nodes(e).iter().enumerate() {
                mass[n as usize] += geom.det_w[q];
            }
        }
        let mut max_rel = 0.0f64;
        for (n, &m) in mass.iter().enumerate() {
            let y = mesh.coords()[n].y;
            let expect = -mu * a * y.sin();
            let got = rhs.mom[0][n] / m;
            let err = (got - expect).abs();
            max_rel = max_rel.max(err / (mu * a));
        }
        // Trilinear second-difference of sin on a 12-cell grid: O(h²) ≈ 2–3%.
        assert!(max_rel < 0.05, "relative laplacian error {max_rel}");
    }

    #[test]
    fn pressure_gradient_drives_momentum() {
        // Uniform ρ and u = 0; p varies through T: R_mom must equal
        // -∇p (times mass), here p = ρ R T with T = T0 + T1 sin(x).
        let (mesh, basis) = setup(12);
        let gas = GasModel::air(0.0);
        let rho0 = 1.0;
        let t0 = 300.0;
        let t1 = 3.0;
        let (c, p) = make_state(&mesh, &gas, |x| (rho0, Vec3::ZERO, t0 + t1 * x.x.sin()));
        let rhs = assemble_with(element_loop_into, &mesh, &basis, &gas, &c, &p);
        let npe = mesh.nodes_per_element();
        let mut scratch = GeometryScratch::new(npe);
        let mut geom = ElementGeometry::with_capacity(npe);
        let mut mass = vec![0.0; mesh.num_nodes()];
        for e in 0..mesh.num_elements() {
            mesh.fill_element_geometry(e, &basis, &mut scratch, &mut geom)
                .unwrap();
            for (q, &n) in mesh.element_nodes(e).iter().enumerate() {
                mass[n as usize] += geom.det_w[q];
            }
        }
        let scale = rho0 * gas.r_gas * t1; // |∂p/∂x| amplitude
        let mut max_rel = 0.0f64;
        for (n, &m) in mass.iter().enumerate() {
            let x = mesh.coords()[n].x;
            let expect = -rho0 * gas.r_gas * t1 * x.cos();
            let got = rhs.mom[0][n] / m;
            max_rel = max_rel.max((got - expect).abs() / scale);
        }
        assert!(max_rel < 0.05, "pressure gradient error {max_rel}");
        // y/z momenta stay zero.
        for n in 0..mesh.num_nodes() {
            assert!(rhs.mom[1][n].abs() < 1e-9 * scale);
            assert!(rhs.mom[2][n].abs() < 1e-9 * scale);
        }
    }

    #[test]
    fn fused_flux_matches_split_path_to_rounding() {
        // Same state, same geometry: fused single-contraction residuals
        // must agree with split convective+viscous to ≤1e-12 relative.
        let (mesh, basis) = setup(6);
        let gas = GasModel::air(2.5e-2);
        let (c, p) = make_state(&mesh, &gas, |x| {
            (
                1.0 + 0.08 * x.x.sin() * x.z.cos(),
                Vec3::new(12.0 * x.y.sin(), -6.0 * x.z.cos(), 4.0 * x.x.sin()),
                300.0 + 10.0 * x.y.sin(),
            )
        });
        let fused = assemble_with(element_loop_into, &mesh, &basis, &gas, &c, &p);
        let split = assemble_with(split_into, &mesh, &basis, &gas, &c, &p);
        let mut scale = 0.0f64;
        split.for_each_field(|f| {
            for &v in f {
                scale = scale.max(v.abs());
            }
        });
        let mut a = Vec::new();
        fused.for_each_field(|f| a.extend_from_slice(f));
        let mut b = Vec::new();
        split.for_each_field(|f| b.extend_from_slice(f));
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() <= 1e-12 * scale, "{x} vs {y}");
        }
    }

    #[test]
    fn inviscid_fused_path_is_bitwise_the_convective_path() {
        // With μ = 0 the fused sweep takes the pure-convective branch and
        // the split sweep skips its viscous half, so they run the same
        // kernels. (Cached ≡ recomputed geometry, the other half of the
        // seed loop, is pinned by fem_mesh's
        // `cache_matches_per_element_recompute`.)
        let (mesh, basis) = setup(4);
        let gas = GasModel::air(0.0);
        let (c, p) = make_state(&mesh, &gas, |x| {
            (
                1.0 + 0.05 * x.x.sin(),
                Vec3::new(20.0, 3.0 * x.y.cos(), 0.0),
                290.0,
            )
        });
        let fused = assemble_with(element_loop_into, &mesh, &basis, &gas, &c, &p);
        let split = assemble_with(split_into, &mesh, &basis, &gas, &c, &p);
        assert_eq!(fused.to_bit_vec(), split.to_bit_vec());
    }

    #[test]
    fn full_matrix_divergence_matches_factored_to_rounding() {
        // Same workspace state, same geometry: the dense reference and the
        // factored hot path are the same integral summed in different
        // orders, so they must agree to ≤1e-12 relative at every order.
        for order in 1..=4 {
            let mesh = BoxMeshBuilder::tgv_box(3).order(order).build().unwrap();
            let basis = HexBasis::new(order).unwrap();
            let gas = GasModel::air(2.0e-2);
            let (c, p) = make_state(&mesh, &gas, |x| {
                (
                    1.0 + 0.07 * x.x.sin() * x.y.cos(),
                    Vec3::new(9.0 * x.y.sin(), -5.0 * x.z.cos(), 3.0 * x.x.sin()),
                    300.0 + 8.0 * x.z.sin(),
                )
            });
            let cache = fem_mesh::geometry::GeometryCache::build(&mesh, &basis).unwrap();
            let op = FullMatrixOperator::for_basis(&basis);
            let npe = mesh.nodes_per_element();
            let mut ws_a = ElementWorkspace::new(npe);
            let mut ws_b = ElementWorkspace::new(npe);
            for e in 0..mesh.num_elements() {
                let geom = cache.element(e);
                for ws in [&mut ws_a, &mut ws_b] {
                    ws.gather(mesh.element_nodes(e), &c, &p);
                    ws.zero_residuals();
                    fused_flux(ws, &gas, &basis, geom);
                }
                weak_divergence(&mut ws_a, &basis, geom, 1.0);
                weak_divergence_full_matrix(&mut ws_b, &op, geom, 1.0);
                let mut scale = 0.0f64;
                for v in 0..NUM_VARS {
                    for q in 0..npe {
                        scale = scale.max(ws_a.res[v][q].abs());
                    }
                }
                for v in 0..NUM_VARS {
                    for q in 0..npe {
                        let (x, y) = (ws_a.res[v][q], ws_b.res[v][q]);
                        assert!(
                            (x - y).abs() <= 1e-12 * scale.max(1.0),
                            "order {order} element {e} var {v} node {q}: {x} vs {y}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_ops_dispatch_matches_the_free_functions() {
        let (mesh, basis) = setup(3);
        let gas = GasModel::air(1.5e-2);
        let (c, p) = make_state(&mesh, &gas, |x| {
            (
                1.0 + 0.05 * x.x.sin(),
                Vec3::new(8.0, 2.0 * x.y.cos(), 0.0),
                295.0,
            )
        });
        let cache = fem_mesh::geometry::GeometryCache::build(&mesh, &basis).unwrap();
        for path in KernelPath::ALL {
            let ops = KernelOps::resolve(path, &basis);
            assert_eq!(ops.path(), path);
            let npe = mesh.nodes_per_element();
            let mut via_ops = ElementWorkspace::new(npe);
            let mut via_free = ElementWorkspace::new(npe);
            let geom = cache.element(0);
            for ws in [&mut via_ops, &mut via_free] {
                ws.gather(mesh.element_nodes(0), &c, &p);
                ws.zero_residuals();
                fused_flux(ws, &gas, &basis, geom);
            }
            ops.weak_divergence(&mut via_ops, &basis, geom, 1.0);
            match path {
                KernelPath::SumFactored => weak_divergence(&mut via_free, &basis, geom, 1.0),
                KernelPath::FullMatrix => {
                    let op = FullMatrixOperator::for_basis(&basis);
                    weak_divergence_full_matrix(&mut via_free, &op, geom, 1.0);
                }
            }
            for v in 0..NUM_VARS {
                for q in 0..npe {
                    assert_eq!(
                        via_ops.res[v][q].to_bits(),
                        via_free.res[v][q].to_bits(),
                        "{path} dispatch must be the same code"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_path_names_round_trip() {
        for path in KernelPath::ALL {
            assert_eq!(KernelPath::parse(path.as_str()), Some(path));
            assert_eq!(format!("{path}"), path.as_str());
        }
        assert_eq!(KernelPath::parse("tensor"), None);
        assert_eq!(KernelPath::default(), KernelPath::SumFactored);
    }

    #[test]
    fn factored_flops_are_p4_and_full_matrix_p6() {
        // Exact per-element counts from KernelOpCounts: the factored
        // contraction term is 30 n⁴ (three 1D sweeps, 5 vars × 3n MACs
        // per node), the full-matrix term is 30 npe² = 30 n⁶; both share
        // the 90 npe G-transform.
        for order in 1..=4usize {
            let basis = HexBasis::new(order).unwrap();
            let n = order + 1;
            let npe = n * n * n;
            let c = KernelOpCounts::for_basis(&basis);
            assert_eq!(c.divergence_flops, 90 * npe + 30 * n * n * n * n);
            assert_eq!(c.full_matrix_divergence_flops, 90 * npe + 30 * npe * npe);
            assert_eq!(c.factored_operator_bytes, 8 * n * n);
            assert_eq!(c.full_matrix_operator_bytes, 3 * 8 * npe * npe);
            assert_eq!(
                c.divergence_flops_for(KernelPath::SumFactored),
                c.divergence_flops
            );
            assert_eq!(
                c.divergence_flops_for(KernelPath::FullMatrix),
                c.full_matrix_divergence_flops
            );
            assert_eq!(
                c.rkl_flops_per_element_for(KernelPath::SumFactored),
                c.rkl_flops_per_element()
            );
            // The dense contraction costs npe/n = n² times the factored
            // one — the O(p⁶) vs O(p⁴) gap, exactly.
            let factored_contraction = c.divergence_flops - 90 * npe;
            let full_contraction = c.full_matrix_divergence_flops - 90 * npe;
            assert_eq!(full_contraction, factored_contraction * n * n);
            assert!(c.full_matrix_divergence_flops > c.divergence_flops);
        }
        // Growth-rate check across the ladder: scaling the order from 1
        // to 3 doubles n, so the factored term grows 2⁴ = 16× and the
        // full-matrix term 2⁶ = 64×.
        let c1 = KernelOpCounts::for_basis(&HexBasis::new(1).unwrap());
        let c3 = KernelOpCounts::for_basis(&HexBasis::new(3).unwrap());
        assert_eq!(
            (c3.divergence_flops - 90 * 64) / (c1.divergence_flops - 90 * 8),
            16
        );
        assert_eq!(
            (c3.full_matrix_divergence_flops - 90 * 64)
                / (c1.full_matrix_divergence_flops - 90 * 8),
            64
        );
    }

    /// The contraction loop nest run at node count `n` on a copy of `ws`,
    /// as the bit patterns of the five residuals.
    fn contraction_bits<N: NodeCount>(
        ws: &ElementWorkspace,
        basis: &HexBasis,
        geom: GeomRef,
        n: N,
    ) -> Vec<u64> {
        let mut ws = ws.clone();
        WeakDivergence {
            ws: &mut ws,
            dmat: basis.dmat(),
            inv_jt: geom.inv_jt,
            det_w: geom.det_w,
            sign: -1.0,
        }
        .run(n);
        ws.res.iter().flatten().map(|x| x.to_bits()).collect()
    }

    proptest! {
        /// Every compile-time node count runs the runtime contraction bit
        /// for bit, and the dispatched `weak_divergence` is that loop —
        /// on random fluxes, geometry and prior residuals.
        #[test]
        fn prop_fixed_node_count_matches_runtime(
            values in proptest::collection::vec(-3.0f64..3.0, 125 * 30),
        ) {
            for order in 1..=4 {
                let basis = HexBasis::new(order).unwrap();
                let npe = basis.nodes_per_element();
                let mut x = values.iter().copied();
                let mut next = || x.next().unwrap();
                let mut ws = ElementWorkspace::new(npe);
                for q in 0..npe {
                    for v in 0..NUM_VARS {
                        ws.flux[v][q] = [next(), next(), next()];
                        ws.res[v][q] = next();
                    }
                }
                let inv_jt: Vec<Mat3> = (0..npe)
                    .map(|_| {
                        Mat3::from_rows(
                            Vec3::new(next(), next(), next()),
                            Vec3::new(next(), next(), next()),
                            Vec3::new(next(), next(), next()),
                        )
                    })
                    .collect();
                let det_w: Vec<f64> = (0..npe).map(|_| next()).collect();
                let geom = GeomRef {
                    inv_jt: &inv_jt,
                    det_w: &det_w,
                };
                let runtime = contraction_bits(&ws, &basis, geom, Runtime(order + 1));
                let fixed = match order {
                    1 => contraction_bits(&ws, &basis, geom, Fixed::<2>),
                    2 => contraction_bits(&ws, &basis, geom, Fixed::<3>),
                    3 => contraction_bits(&ws, &basis, geom, Fixed::<4>),
                    _ => contraction_bits(&ws, &basis, geom, Fixed::<5>),
                };
                prop_assert!(fixed == runtime, "order {order}: Fixed differs from Runtime");
                weak_divergence(&mut ws, &basis, geom, -1.0);
                let dispatched: Vec<u64> = ws.res.iter().flatten().map(|x| x.to_bits()).collect();
                prop_assert!(dispatched == runtime, "order {order}: dispatch differs from Runtime");
            }
        }
    }

    #[test]
    fn op_counts_scale_with_order() {
        let b1 = HexBasis::new(1).unwrap();
        let b2 = HexBasis::new(2).unwrap();
        let c1 = KernelOpCounts::for_basis(&b1);
        let c2 = KernelOpCounts::for_basis(&b2);
        assert!(c2.diffusion_flops > c1.diffusion_flops);
        assert!(c2.rkl_flops_per_element() > c1.rkl_flops_per_element());
        assert_eq!(c1.rku_flops_per_node, c2.rku_flops_per_node);
        // The fused path saves one full contraction minus the per-node
        // flux subtraction.
        for c in [c1, c2] {
            assert_eq!(
                c.split_rkl_flops_per_element() - c.rkl_flops_per_element(),
                c.divergence_flops - c.fusion_flops
            );
            assert!(c.rkl_flops_per_element() < c.split_rkl_flops_per_element());
        }
    }
}

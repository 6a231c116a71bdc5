//! Validation oracles: the one-element reference sweeps.
//!
//! No production run calls this module. It is the one home of the plain
//! element-at-a-time loop that the crate's guarantees are stated against:
//!
//! * [`element_loop_into`] is the **bitwise reference** of the production
//!   sweeps. The serial assembly
//!   ([`crate::parallel::assemble_rhs_into`]) runs four-element batches
//!   (`crate::batch`), and [`crate::engine::MultiDeviceBackend`] splits
//!   the mesh across devices and exchanges halos; both must produce the
//!   bits of this loop, at every device count and on both
//!   [`KernelPath`](crate::kernels::KernelPath)s.
//! * The same loop is the accelerator's **Load → Compute → Store** task
//!   chain (the paper's Fig 1) at functional fidelity. One element token
//!   passes through the three stages at a time, in element order: LOAD
//!   gathers the node data, with geometry streamed from the
//!   [`fem_mesh::geometry::GeometryCache`] and never rebuilt; COMPUTE runs
//!   the merged Diffusion ⊕ Convection stage (the fused net flux, then one
//!   contraction); STORE scatter-adds the element's contribution.
//!   [`ElementLoopBackend`] installs the loop in the driver through
//!   [`crate::driver::SimulationBuilder::custom_backend`], so a whole RK4
//!   run on it is the accelerated solver at functional fidelity.
//! * [`split_into`] runs the seed **split** kernels on cached geometry:
//!   [`convective_flux`] and [`viscous_flux`], contracted separately. It is
//!   the reference the fused flux is pinned to (≤ 1e-12 relative, not
//!   bitwise: the fused flux regroups the accumulation) and the
//!   `cached+split` rung of `repro geometry`. The seed loop that also
//!   rebuilds the geometry per element lives in `fem_bench::geometry`;
//!   fem_mesh pins cached ≡ rebuilt geometry bit for bit.

use crate::engine::{AssemblyContext, ExecutionBackend};
use crate::gas::GasModel;
use crate::kernels::{convective_flux, fused_flux, ElementWorkspace, KernelOps};
use crate::profile::PhaseProfiler;
use crate::state::{Conserved, Primitives};
use fem_mesh::hex::GeomRef;
use fem_numerics::linalg::{Mat3, Vec3};
use fem_numerics::tensor::HexBasis;

/// Assembles the RKL residual into `out` (overwriting it; not yet
/// mass-scaled) one element at a time, in ascending element order: the
/// fused flux (the convective flux when μ = 0) and one contraction on
/// `ctx.kernel`, resolved once per sweep.
///
/// # Panics
///
/// Panics if the state, output or geometry cache does not match the mesh.
pub fn element_loop_into(
    ctx: &AssemblyContext<'_>,
    conserved: &Conserved,
    prim: &Primitives,
    out: &mut Conserved,
) {
    let kernel = KernelOps::resolve(ctx.kernel, ctx.basis);
    let viscous = ctx.gas.mu > 0.0;
    sweep(ctx, conserved, prim, out, |ws, geom| {
        if viscous {
            fused_flux(ws, ctx.gas, ctx.basis, geom);
        } else {
            convective_flux(ws);
        }
        kernel.weak_divergence(ws, ctx.basis, geom, 1.0);
    });
}

/// Assembles the RKL residual into `out` like [`element_loop_into`], but
/// with the seed split kernels: the convective flux and its contraction,
/// then (when μ > 0) the viscous flux and a second contraction with
/// sign −1.
///
/// # Panics
///
/// Panics if the state, output or geometry cache does not match the mesh.
pub fn split_into(
    ctx: &AssemblyContext<'_>,
    conserved: &Conserved,
    prim: &Primitives,
    out: &mut Conserved,
) {
    let kernel = KernelOps::resolve(ctx.kernel, ctx.basis);
    let viscous = ctx.gas.mu > 0.0;
    sweep(ctx, conserved, prim, out, |ws, geom| {
        convective_flux(ws);
        kernel.weak_divergence(ws, ctx.basis, geom, 1.0);
        if viscous {
            viscous_flux(ws, ctx.gas, ctx.basis, geom);
            kernel.weak_divergence(ws, ctx.basis, geom, -1.0);
        }
    });
}

/// The one element loop: LOAD (gather, zero the residuals), COMPUTE
/// (`compute` on the element's cached geometry), STORE (scatter-add).
fn sweep(
    ctx: &AssemblyContext<'_>,
    conserved: &Conserved,
    prim: &Primitives,
    out: &mut Conserved,
    mut compute: impl FnMut(&mut ElementWorkspace, GeomRef<'_>),
) {
    let mesh = ctx.mesh;
    assert_eq!(conserved.len(), mesh.num_nodes(), "state size");
    assert_eq!(out.len(), mesh.num_nodes(), "output size");
    assert_eq!(
        ctx.geometry.num_elements(),
        mesh.num_elements(),
        "geometry cache does not cover the mesh"
    );
    out.set_zero();
    let mut ws = ElementWorkspace::new(mesh.nodes_per_element());
    for e in 0..mesh.num_elements() {
        let nodes = mesh.element_nodes(e);
        ws.gather(nodes, conserved, prim);
        ws.zero_residuals();
        compute(&mut ws, ctx.geometry.element(e));
        ws.scatter_add(nodes, out);
    }
}

/// Fills the workspace flux tensors with the **viscous** (diffusion)
/// fluxes — the paper's COMPUTE-Gradients / COMPUTE-τ stages — for the
/// split kernels:
///
/// * mass: `0`
/// * momentum `i`: row `i` of `τ = μ(∇u + ∇uᵀ − ⅔(∇·u)I)`
/// * energy: `τ·u + κ∇T`
pub fn viscous_flux(ws: &mut ElementWorkspace, gas: &GasModel, basis: &HexBasis, geom: GeomRef) {
    ws.reference_gradients(basis);
    let kappa = gas.kappa();
    for q in 0..ws.nodes_per_element() {
        let inv_jt = geom.inv_jt(q);
        // Physical gradients: L[a][b] = ∂u_a/∂x_b, row a = J⁻ᵀ ∇̂u_a.
        let l = Mat3::from_rows(
            inv_jt.mul_vec(ws.grad_ref[0][q].into()),
            inv_jt.mul_vec(ws.grad_ref[1][q].into()),
            inv_jt.mul_vec(ws.grad_ref[2][q].into()),
        );
        let grad_t = inv_jt.mul_vec(ws.grad_ref[3][q].into());
        let mu = gas.mu;
        let div_u = l.trace();
        // τ = μ(L + Lᵀ) − ⅔ μ (∇·u) I
        let tau =
            mu * (l + l.transpose()) - Mat3::diagonal(1.0, 1.0, 1.0) * (2.0 / 3.0 * mu * div_u);
        let u = Vec3::new(ws.vel[0][q], ws.vel[1][q], ws.vel[2][q]);
        ws.flux[0][q] = [0.0; 3];
        ws.flux[1][q] = tau.row(0).into();
        ws.flux[2][q] = tau.row(1).into();
        ws.flux[3][q] = tau.row(2).into();
        ws.flux[4][q] = (tau.mul_vec(u) + kappa * grad_t).into();
    }
}

/// [`element_loop_into`] as an [`ExecutionBackend`]: installed through
/// [`crate::driver::SimulationBuilder::custom_backend`], it runs a whole
/// simulation on the reference loop. It does no profiling.
#[derive(Debug)]
pub struct ElementLoopBackend;

impl ExecutionBackend for ElementLoopBackend {
    fn name(&self) -> String {
        "element-loop".to_string()
    }

    fn assemble_rhs(
        &mut self,
        ctx: &AssemblyContext<'_>,
        conserved: &Conserved,
        prim: &Primitives,
        out: &mut Conserved,
        _profiler: Option<&mut PhaseProfiler>,
    ) {
        element_loop_into(ctx, conserved, prim, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Simulation;
    use crate::kernels::KernelPath;
    use crate::scenarios::Scenario;
    use crate::tgv::TgvConfig;
    use fem_mesh::generator::BoxMeshBuilder;

    #[test]
    fn element_loop_backend_tracks_the_reference_driver_step_by_step() {
        // After every RK4 step the element-loop run and the reference
        // driver agree in bits, in time and in step count, and the flow
        // actually evolves.
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let cfg = TgvConfig::new(0.2, 400.0);
        let initial = cfg.initial_state(&mesh);

        let mut reference = Simulation::new(mesh.clone(), cfg.gas(), initial.clone()).unwrap();
        let mut oracle = Simulation::builder(mesh, cfg.gas(), initial.clone())
            .custom_backend(Box::new(ElementLoopBackend))
            .build()
            .unwrap();
        assert_eq!(oracle.backend().name(), "element-loop");
        assert!(oracle.backend().as_multi_device().is_none());
        let dt = reference.suggest_dt(0.4);
        for step in 1..=5 {
            reference.step(dt).unwrap();
            oracle.step(dt).unwrap();
            assert_eq!(
                oracle.conserved().to_bit_vec(),
                reference.conserved().to_bit_vec(),
                "trajectories diverged at step {step}"
            );
            assert_eq!(oracle.time().to_bits(), reference.time().to_bits());
            assert_eq!(oracle.steps_taken(), step);
        }
        assert_ne!(
            oracle.conserved().to_bit_vec(),
            initial.to_bit_vec(),
            "five RK4 steps left the state unchanged"
        );
    }

    #[test]
    fn element_loop_backend_pins_the_cavity_walls_bitwise() {
        // The driver's Dirichlet BC wraps the element loop exactly as it
        // wraps the production sweep, so five RK4 steps of the lid-driven
        // cavity agree in bits and every lid and wall node stays at its
        // target.
        let scenario = Scenario::lid_cavity();
        let mut reference = scenario.builder(4, 1).unwrap().build().unwrap();
        let mut oracle = scenario
            .builder(4, 1)
            .unwrap()
            .custom_backend(Box::new(ElementLoopBackend))
            .build()
            .unwrap();
        let dt = reference.suggest_dt(scenario.default_cfl());
        reference.advance(5, dt).unwrap();
        oracle.advance(5, dt).unwrap();
        assert_eq!(
            oracle.conserved().to_bit_vec(),
            reference.conserved().to_bit_vec(),
            "element-loop cavity run diverged from the reference driver"
        );
        let bc = oracle.bc().expect("the cavity is wall-bounded");
        assert!(
            bc.targets().iter().any(|(_, v)| v[1] != 0.0),
            "no lid nodes"
        );
        assert_eq!(bc.max_abs_deviation(oracle.conserved()), 0.0);
    }

    #[test]
    fn element_loop_backend_honors_the_full_matrix_kernel_path() {
        // Under the full-matrix path the element loop tracks the reference
        // driver's full-matrix trajectory bitwise, and that trajectory
        // differs in bits from the sum-factored one (the knob is live).
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let cfg = TgvConfig::new(0.2, 400.0);
        let initial = cfg.initial_state(&mesh);
        let run = |kernel: KernelPath, oracle: bool| {
            let mut builder =
                Simulation::builder(mesh.clone(), cfg.gas(), initial.clone()).kernel_path(kernel);
            if oracle {
                builder = builder.custom_backend(Box::new(ElementLoopBackend));
            }
            let mut sim = builder.build().unwrap();
            let dt = sim.suggest_dt(0.4);
            sim.advance(3, dt).unwrap();
            sim.conserved().to_bit_vec()
        };
        let full = run(KernelPath::FullMatrix, true);
        assert_eq!(
            full,
            run(KernelPath::FullMatrix, false),
            "element-loop full-matrix run diverged from the reference driver"
        );
        assert_ne!(
            full,
            run(KernelPath::SumFactored, false),
            "full-matrix and sum-factored trajectories should differ in bits"
        );
    }
}

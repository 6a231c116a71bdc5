//! Functional verification of the accelerator's task decomposition.
//!
//! Timing models say the dataflow design is *fast*; this module proves it
//! is *right*: the Load → Compute(Diffusion⊕Convection, the fused
//! single-contraction stage) → Store task pipeline, fed element tokens
//! exactly like the hardware (geometric factors streamed from the
//! precomputed cache, not rebuilt per element), computes bit-identical
//! residuals to the solver's monolithic serial element loop
//! ([`fem_solver::engine::ReferenceBackend`]), and a whole accelerated
//! RK4 run — the solver's own driver with [`StagedBackend`] installed —
//! reproduces the reference trajectory bit-for-bit.

use fem_mesh::geometry::GeometryCache;
use fem_mesh::hex::GeomRef;
use fem_mesh::HexMesh;
use fem_numerics::tensor::HexBasis;
use fem_solver::engine::{AssemblyContext, ExecutionBackend};
use fem_solver::gas::GasModel;
use fem_solver::kernels::{convective_flux, fused_flux, ElementWorkspace, KernelOps, KernelPath};
use fem_solver::profile::{Phase, PhaseProfiler};
use fem_solver::state::{Conserved, Primitives};
use std::time::Instant;

/// LOAD Element (paper step 1): gathers the element's node data into
/// `ws` and clears its residuals. Geometry is not rebuilt here: it
/// arrives precomputed, like the hardware streams γ-factors from DDR.
fn load_element(
    ws: &mut ElementWorkspace,
    nodes: &[u32],
    conserved: &Conserved,
    primitives: &Primitives,
) {
    ws.gather(nodes, conserved, primitives);
    ws.zero_residuals();
}

/// COMPUTE Diffusion ⊕ Convection (the merged module, paper step 2):
/// the fused net flux, then one weak-divergence contraction.
fn compute_diff_conv(
    ws: &mut ElementWorkspace,
    gas: &GasModel,
    basis: &HexBasis,
    geom: GeomRef,
    kernel: &KernelOps,
) {
    if gas.mu > 0.0 {
        fused_flux(ws, gas, basis, geom);
    } else {
        convective_flux(ws);
    }
    kernel.weak_divergence(ws, basis, geom, 1.0);
}

/// STORE Element Contribution (paper step 3): scatter-adds the element
/// residuals into the assembled RHS.
fn store_element(ws: &ElementWorkspace, nodes: &[u32], rhs: &mut Conserved) {
    ws.scatter_add(nodes, rhs);
}

/// Computes one RKL residual sweep through the staged task pipeline
/// (LOAD Element → COMPUTE fused Diffusion ⊕ Convection → STORE Element
/// Contribution), assembling the RHS into `out` (overwriting it; not yet
/// mass-scaled). Element tokens pass through the three stages in
/// element order, like the single-producer single-consumer FIFOs of the
/// hardware, with one reused workspace carrying each token. Geometry
/// streams from `geometry` — the pipeline never rebuilds it. The
/// weak-divergence contraction dispatches on `kernel`, resolved once
/// per sweep like every host backend does (the full-matrix path
/// materializes its dense operators here, before any token flows).
///
/// # Panics
///
/// Panics if the state, geometry cache or output does not match the
/// mesh.
#[allow(clippy::too_many_arguments)]
pub fn staged_stage_residual_into(
    mesh: &HexMesh,
    basis: &HexBasis,
    gas: &GasModel,
    geometry: &GeometryCache,
    conserved: &Conserved,
    primitives: &Primitives,
    kernel: KernelPath,
    out: &mut Conserved,
) {
    assert_eq!(conserved.len(), mesh.num_nodes());
    assert_eq!(geometry.num_elements(), mesh.num_elements());
    assert_eq!(out.len(), mesh.num_nodes());
    let kernel = KernelOps::resolve(kernel, basis);
    out.set_zero();
    let mut ws = ElementWorkspace::new(mesh.nodes_per_element());
    for e in 0..mesh.num_elements() {
        let nodes = mesh.element_nodes(e);
        load_element(&mut ws, nodes, conserved, primitives);
        compute_diff_conv(&mut ws, gas, basis, geometry.element(e), &kernel);
        store_element(&ws, nodes, out);
    }
}

/// The staged Load → Compute → Store task pipeline registered as a
/// solver [`ExecutionBackend`] — the external-backend registration path
/// ([`fem_solver::driver::SimulationBuilder::custom_backend`]) exercised by
/// the accelerator's functional model itself. Every RHS evaluation
/// routes the element tokens through [`staged_stage_residual_into`], so a
/// `Simulation` running on this backend *is* the accelerated solver at
/// functional fidelity (and bit-identical to the reference, as the tests
/// below pin).
#[derive(Debug, Default)]
pub struct StagedBackend;

impl ExecutionBackend for StagedBackend {
    fn name(&self) -> String {
        "staged-dataflow".to_string()
    }

    fn assemble_rhs(
        &mut self,
        ctx: &AssemblyContext<'_>,
        conserved: &Conserved,
        prim: &Primitives,
        out: &mut Conserved,
        profiler: Option<&mut PhaseProfiler>,
    ) {
        let t0 = profiler.is_some().then(Instant::now);
        staged_stage_residual_into(
            ctx.mesh,
            ctx.basis,
            ctx.gas,
            ctx.geometry,
            conserved,
            prim,
            ctx.kernel,
            out,
        );
        if let (Some(t0), Some(p)) = (t0, profiler) {
            // The staged sweep is timed as a whole — its Load/Compute/
            // Store stages are not separated — so the elapsed time is
            // charged to the fused compute phases (half convection, half
            // diffusion when viscous; all convection when inviscid).
            // This is coarser than the reference convention, which
            // charges gather/scatter to RK(Other) and the fused flux
            // wholly to RK(Diffusion); compare Fig-2 breakdowns across
            // backends with that in mind.
            let elapsed = t0.elapsed();
            if ctx.gas.mu > 0.0 {
                p.add(Phase::RkConvection, elapsed / 2);
                p.add(Phase::RkDiffusion, elapsed / 2);
            } else {
                p.add(Phase::RkConvection, elapsed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fem_mesh::generator::BoxMeshBuilder;
    use fem_solver::driver::Simulation;
    use fem_solver::engine::ReferenceBackend;
    use fem_solver::scenarios::Scenario;
    use fem_solver::tgv::TgvConfig;

    /// The staged sweep and the reference backend's monolithic loop on
    /// one state, as raw bits.
    fn staged_and_reference_bits(gas: &GasModel, kernel: KernelPath) -> (Vec<u64>, Vec<u64>) {
        let mesh = BoxMeshBuilder::tgv_box(5).build().unwrap();
        let basis = HexBasis::new(1).unwrap();
        let geometry = GeometryCache::build(&mesh, &basis).unwrap();
        let conserved = TgvConfig::standard().initial_state(&mesh);
        let mut primitives = Primitives::zeros(mesh.num_nodes());
        primitives.update_from(&conserved, gas);
        let ctx = AssemblyContext {
            mesh: &mesh,
            basis: &basis,
            gas,
            geometry: &geometry,
            kernel,
        };
        let mut staged = Conserved::zeros(mesh.num_nodes());
        staged_stage_residual_into(
            &mesh,
            &basis,
            gas,
            &geometry,
            &conserved,
            &primitives,
            kernel,
            &mut staged,
        );
        let mut reference = Conserved::zeros(mesh.num_nodes());
        ReferenceBackend.assemble_rhs(&ctx, &conserved, &primitives, &mut reference, None);
        (staged.to_bit_vec(), reference.to_bit_vec())
    }

    #[test]
    fn staged_residual_is_bit_identical_to_monolithic() {
        // Viscous gas, under both contraction paths.
        let gas = TgvConfig::standard().gas();
        for kernel in KernelPath::ALL {
            let (staged, reference) = staged_and_reference_bits(&gas, kernel);
            // Five fields over the 125 nodes of the periodic 5³ box.
            assert_eq!(staged.len(), 5 * 125);
            assert_eq!(staged, reference, "{kernel}");
        }
    }

    #[test]
    fn inviscid_path_matches_too() {
        // With mu = 0 the fused flux drops its viscous part; the staged
        // sweep must still match the reference bit-for-bit.
        let gas = GasModel::air(0.0);
        for kernel in KernelPath::ALL {
            let (staged, reference) = staged_and_reference_bits(&gas, kernel);
            assert_eq!(staged.len(), 5 * 125);
            assert_eq!(staged, reference, "{kernel}");
        }
    }

    #[test]
    fn accelerated_rk4_trajectory_matches_reference_solver() {
        // Step by step, not only at the end: after every RK4 step the
        // staged-backend run and the reference driver agree in bits, in
        // time and in step count, and the flow actually evolves.
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let cfg = TgvConfig::new(0.2, 400.0);
        let initial = cfg.initial_state(&mesh);

        let mut reference = Simulation::new(mesh.clone(), cfg.gas(), initial.clone()).unwrap();
        let mut accelerated = Simulation::builder(mesh, cfg.gas(), initial.clone())
            .custom_backend(Box::new(StagedBackend))
            .build()
            .unwrap();
        let dt = reference.suggest_dt(0.4);
        for step in 1..=5 {
            reference.step(dt).unwrap();
            accelerated.step(dt).unwrap();
            assert_eq!(
                accelerated.conserved().to_bit_vec(),
                reference.conserved().to_bit_vec(),
                "trajectories diverged at step {step}"
            );
            assert_eq!(accelerated.time().to_bits(), reference.time().to_bits());
            assert_eq!(accelerated.steps_taken(), step);
        }
        assert_ne!(
            accelerated.conserved().to_bit_vec(),
            initial.to_bit_vec(),
            "five RK4 steps left the state unchanged"
        );
    }

    #[test]
    fn staged_backend_plugs_into_the_driver_and_tracks_it_bitwise() {
        // The custom-backend registration path: a Simulation whose RHS is
        // assembled by the staged pipeline reproduces the reference
        // trajectory bit-for-bit (same RK loop, same lumped mass, same
        // blow-up detection — only the assembly engine is swapped).
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let cfg = TgvConfig::new(0.2, 400.0);
        let initial = cfg.initial_state(&mesh);

        let mut reference = Simulation::new(mesh.clone(), cfg.gas(), initial.clone()).unwrap();
        let dt = reference.suggest_dt(0.4);
        reference.advance(5, dt).unwrap();

        let mut accelerated = Simulation::builder(mesh, cfg.gas(), initial)
            .custom_backend(Box::new(StagedBackend))
            .build()
            .unwrap();
        assert_eq!(accelerated.backend().name(), "staged-dataflow");
        assert!(accelerated.backend().as_multi_device().is_none());
        accelerated.advance(5, dt).unwrap();

        assert_eq!(
            accelerated.conserved().to_bit_vec(),
            reference.conserved().to_bit_vec(),
            "staged backend diverged from the reference driver"
        );
    }

    #[test]
    fn staged_backend_pins_the_cavity_walls_bitwise() {
        // The wall-bounded scenario: the driver's Dirichlet BC wraps the
        // staged assembly exactly as it wraps the serial loop, so five
        // RK4 steps of the lid-driven cavity agree in bits and every lid
        // and wall node stays at its target.
        let scenario = Scenario::lid_cavity();
        let mut reference = scenario.builder(4, 1).unwrap().build().unwrap();
        let mut accelerated = scenario
            .builder(4, 1)
            .unwrap()
            .custom_backend(Box::new(StagedBackend))
            .build()
            .unwrap();
        assert_eq!(accelerated.backend().name(), "staged-dataflow");
        let dt = reference.suggest_dt(scenario.default_cfl());
        reference.advance(5, dt).unwrap();
        accelerated.advance(5, dt).unwrap();
        assert_eq!(
            accelerated.conserved().to_bit_vec(),
            reference.conserved().to_bit_vec(),
            "staged cavity run diverged from the reference driver"
        );
        let bc = accelerated.bc().expect("the cavity is wall-bounded");
        assert!(
            bc.targets().iter().any(|(_, v)| v[1] != 0.0),
            "no lid nodes"
        );
        assert_eq!(bc.max_abs_deviation(accelerated.conserved()), 0.0);
    }

    #[test]
    fn staged_backend_honors_the_full_matrix_kernel_path() {
        // The staged pipeline dispatches `ctx.kernel` like every host
        // backend: under the full-matrix path it must track the reference
        // driver's full-matrix trajectory bitwise (same serial element
        // order, same dense contraction), and that trajectory must
        // actually differ in bits from the sum-factored one (the knob is
        // live, not decorative).
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let cfg = TgvConfig::new(0.2, 400.0);
        let initial = cfg.initial_state(&mesh);

        let mut reference = Simulation::builder(mesh.clone(), cfg.gas(), initial.clone())
            .kernel_path(KernelPath::FullMatrix)
            .build()
            .unwrap();
        let dt = reference.suggest_dt(0.4);
        reference.advance(3, dt).unwrap();

        let mut accelerated = Simulation::builder(mesh.clone(), cfg.gas(), initial.clone())
            .kernel_path(KernelPath::FullMatrix)
            .custom_backend(Box::new(StagedBackend))
            .build()
            .unwrap();
        accelerated.advance(3, dt).unwrap();
        assert_eq!(
            accelerated.conserved().to_bit_vec(),
            reference.conserved().to_bit_vec(),
            "staged full-matrix run diverged from the reference driver"
        );

        let mut factored = Simulation::new(mesh, cfg.gas(), initial).unwrap();
        factored.advance(3, dt).unwrap();
        assert_ne!(
            accelerated.conserved().to_bit_vec(),
            factored.conserved().to_bit_vec(),
            "full-matrix and sum-factored trajectories should differ in bits"
        );
    }
}

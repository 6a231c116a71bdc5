//! Integration: the accelerator's staged task pipeline computes exactly
//! what the reference solver computes, on every mesh family we support.

use fem_cfd_accel::accel::functional::{staged_stage_residual_into, StagedBackend};
use fem_cfd_accel::mesh::generator::BoxMeshBuilder;
use fem_cfd_accel::mesh::geometry::GeometryCache;
use fem_cfd_accel::mesh::HexMesh;
use fem_cfd_accel::numerics::tensor::HexBasis;
use fem_cfd_accel::solver::engine::{AssemblyContext, ExecutionBackend, ReferenceBackend};
use fem_cfd_accel::solver::state::Primitives;
use fem_cfd_accel::solver::{Conserved, GasModel, KernelPath, Simulation, TgvConfig};

/// Asserts that the staged sweep equals the reference backend's
/// monolithic loop bit for bit on `state`, under viscous `gas` and its
/// inviscid counterpart, on both contraction paths.
fn assert_staged_equals_monolithic(mesh: &HexMesh, gas: GasModel, state: &Conserved, tag: &str) {
    let basis = HexBasis::new(mesh.order()).unwrap();
    let geometry = GeometryCache::build(mesh, &basis).unwrap();
    for gas in [gas, GasModel { mu: 0.0, ..gas }] {
        let mut prim = Primitives::zeros(mesh.num_nodes());
        prim.update_from(state, &gas);
        for kernel in KernelPath::ALL {
            let mut staged = Conserved::zeros(mesh.num_nodes());
            staged_stage_residual_into(
                mesh,
                &basis,
                &gas,
                &geometry,
                state,
                &prim,
                kernel,
                &mut staged,
            );
            let ctx = AssemblyContext {
                mesh,
                basis: &basis,
                gas: &gas,
                geometry: &geometry,
                kernel,
            };
            let mut reference = Conserved::zeros(mesh.num_nodes());
            ReferenceBackend.assemble_rhs(&ctx, state, &prim, &mut reference, None);
            assert_eq!(
                staged.to_bit_vec(),
                reference.to_bit_vec(),
                "decomposition diverged: {tag} mu={} {kernel}",
                gas.mu
            );
        }
    }
}

#[test]
fn staged_equals_monolithic_on_various_meshes() {
    for (edge, order) in [(4usize, 1usize), (6, 1), (3, 2), (3, 3)] {
        let mut b = BoxMeshBuilder::tgv_box(edge);
        b.order(order);
        let mesh = b.build().unwrap();
        let cfg = TgvConfig::standard();
        let state = cfg.initial_state(&mesh);
        let tag = format!("edge={edge} order={order}");
        assert_staged_equals_monolithic(&mesh, cfg.gas(), &state, &tag);
    }
}

#[test]
fn staged_equals_monolithic_on_walled_mesh() {
    let mesh = BoxMeshBuilder::new()
        .elements(4, 3, 3)
        .periodic(true, false, false)
        .extent(2.0, 1.0, 1.0)
        .build()
        .unwrap();
    let gas = GasModel::air(1.5e-3);
    let mut state = Conserved::zeros(mesh.num_nodes());
    for (n, &x) in mesh.coords().iter().enumerate() {
        let rho = 1.0 + 0.05 * (x.x * 3.0).sin();
        let u = fem_cfd_accel::numerics::linalg::Vec3::new(5.0 * x.y, -2.0 * x.z, 1.0);
        state.rho[n] = rho;
        state.mom[0][n] = rho * u.x;
        state.mom[1][n] = rho * u.y;
        state.mom[2][n] = rho * u.z;
        state.energy[n] = gas.total_energy(rho, u, 290.0 + 5.0 * x.z);
    }
    assert_staged_equals_monolithic(&mesh, gas, &state, "walled 4x3x3");
}

#[test]
fn accelerated_trajectory_tracks_reference_for_many_steps() {
    let mesh = BoxMeshBuilder::tgv_box(5).build().unwrap();
    let cfg = TgvConfig::new(0.15, 300.0);
    let gas = cfg.gas();
    let initial = cfg.initial_state(&mesh);

    let mut reference = Simulation::new(mesh.clone(), gas, initial.clone()).unwrap();
    let dt = reference.suggest_dt(0.35);
    reference.advance(15, dt).unwrap();

    let mut accelerated = Simulation::builder(mesh, gas, initial)
        .custom_backend(Box::new(StagedBackend))
        .build()
        .unwrap();
    accelerated.advance(15, dt).unwrap();
    assert_eq!(
        accelerated.conserved().to_bit_vec(),
        reference.conserved().to_bit_vec()
    );
}

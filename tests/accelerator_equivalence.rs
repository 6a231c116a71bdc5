//! Integration: the accelerator's Load → Compute → Store decomposition —
//! the one-element reference loop of `fem_solver::oracle` — computes
//! exactly what the production backend computes, on every mesh family we
//! support.

use fem_cfd_accel::mesh::generator::BoxMeshBuilder;
use fem_cfd_accel::mesh::geometry::GeometryCache;
use fem_cfd_accel::mesh::HexMesh;
use fem_cfd_accel::numerics::tensor::HexBasis;
use fem_cfd_accel::solver::engine::{AssemblyContext, ExecutionBackend, ReferenceBackend};
use fem_cfd_accel::solver::oracle::{element_loop_into, ElementLoopBackend};
use fem_cfd_accel::solver::state::Primitives;
use fem_cfd_accel::solver::{Conserved, GasModel, KernelPath, Simulation, TgvConfig};

/// Asserts that the element loop equals the reference backend's batched
/// sweep bit for bit on `state`, under viscous `gas` and its inviscid
/// counterpart, on both contraction paths.
fn assert_loop_equals_backend(mesh: &HexMesh, gas: GasModel, state: &Conserved, tag: &str) {
    let basis = HexBasis::new(mesh.order()).unwrap();
    let geometry = GeometryCache::build(mesh, &basis).unwrap();
    for gas in [gas, GasModel { mu: 0.0, ..gas }] {
        let mut prim = Primitives::zeros(mesh.num_nodes());
        prim.update_from(state, &gas);
        for kernel in KernelPath::ALL {
            let ctx = AssemblyContext {
                mesh,
                basis: &basis,
                gas: &gas,
                geometry: &geometry,
                kernel,
            };
            let mut looped = Conserved::zeros(mesh.num_nodes());
            element_loop_into(&ctx, state, &prim, &mut looped);
            let mut reference = Conserved::zeros(mesh.num_nodes());
            ReferenceBackend.assemble_rhs(&ctx, state, &prim, &mut reference, None);
            assert_eq!(
                looped.to_bit_vec(),
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
        assert_loop_equals_backend(&mesh, cfg.gas(), &state, &tag);
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
    assert_loop_equals_backend(&mesh, gas, &state, "walled 4x3x3");
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
        .custom_backend(Box::new(ElementLoopBackend))
        .build()
        .unwrap();
    accelerated.advance(15, dt).unwrap();
    assert_eq!(
        accelerated.conserved().to_bit_vec(),
        reference.conserved().to_bit_vec()
    );
}

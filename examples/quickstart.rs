//! Quickstart: simulate a small Taylor-Green Vortex on the CPU reference
//! solver, check the reference element loop (the accelerator's
//! Load → Compute → Store decomposition, one element at a time) against
//! it, and print the modeled FPGA speedup. Exits non-zero if the element
//! loop differs from the solver's backend in a single bit.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fem_cfd_accel::accel::designs::{paper_design, vitis_baseline_design};
use fem_cfd_accel::accel::perf::estimate_performance;
use fem_cfd_accel::accel::workload::RklWorkload;
use fem_cfd_accel::mesh::generator::BoxMeshBuilder;
use fem_cfd_accel::mesh::geometry::GeometryCache;
use fem_cfd_accel::numerics::tensor::HexBasis;
use fem_cfd_accel::solver::engine::{AssemblyContext, ExecutionBackend, ReferenceBackend};
use fem_cfd_accel::solver::oracle::element_loop_into;
use fem_cfd_accel::solver::state::Primitives;
use fem_cfd_accel::solver::{Conserved, KernelPath, Simulation, TgvConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A 12³-element periodic TGV box (1728 nodes).
    let mesh = BoxMeshBuilder::tgv_box(12).build()?;
    let cfg = TgvConfig::standard();
    let initial = cfg.initial_state(&mesh);
    println!(
        "mesh: {} nodes, {} elements | TGV at Mach {}, Re {}",
        mesh.num_nodes(),
        mesh.num_elements(),
        cfg.mach,
        cfg.reynolds
    );

    // 2. Run the reference solver for a few steps.
    let mut sim = Simulation::builder(mesh.clone(), cfg.gas(), initial.clone()).build()?;
    let dt = sim.suggest_dt(0.4);
    let d0 = sim.diagnostics();
    sim.advance(20, dt)?;
    let d1 = sim.diagnostics();
    println!("after 20 RK4 steps (dt = {dt:.2e}):");
    println!(
        "  kinetic energy : {:.6e} → {:.6e}",
        d0.kinetic_energy, d1.kinetic_energy
    );
    println!(
        "  mass drift     : {:.2e} (relative)",
        ((d1.total_mass - d0.total_mass) / d0.total_mass).abs()
    );

    // 3. Check the reference element loop — the accelerator's
    //    Load→Compute→Store decomposition — against the reference backend,
    //    bit for bit.
    let gas = cfg.gas();
    let basis = HexBasis::new(mesh.order())?;
    let mut prim = Primitives::zeros(mesh.num_nodes());
    prim.update_from(&initial, &gas);
    let geometry = GeometryCache::build(&mesh, &basis)?;
    let ctx = AssemblyContext {
        mesh: &mesh,
        basis: &basis,
        gas: &gas,
        geometry: &geometry,
        kernel: KernelPath::default(),
    };
    let mut looped = Conserved::zeros(mesh.num_nodes());
    element_loop_into(&ctx, &initial, &prim, &mut looped);
    let mut reference = Conserved::zeros(mesh.num_nodes());
    ReferenceBackend.assemble_rhs(&ctx, &initial, &prim, &mut reference, None);
    let max_bits_diff = looped
        .to_bit_vec()
        .iter()
        .zip(&reference.to_bit_vec())
        .map(|(x, y)| x.abs_diff(*y))
        .max()
        .unwrap_or(0);
    println!("  reference element loop check: max bit distance = {max_bits_diff} (0 = exact)");
    if max_bits_diff != 0 {
        return Err(format!("element loop diverged (max bit distance {max_bits_diff})").into());
    }

    // 4. Model the accelerator at paper scale.
    let w = RklWorkload::with_nodes(4_200_000, 1);
    let proposed = paper_design(&w);
    let baseline = vitis_baseline_design(&w);
    let rp = estimate_performance(&proposed)?;
    let rb = estimate_performance(&baseline)?;
    println!("modeled on Alveo U200 at 4.2M nodes (RK method, 20 steps):");
    println!(
        "  proposed : {:.2} s @ {:.0} MHz (bottleneck: {})",
        rp.rk_method_seconds, rp.fmax_mhz, rp.bottleneck
    );
    println!(
        "  vitis    : {:.2} s @ {:.0} MHz (bottleneck: {})",
        rb.rk_method_seconds, rb.fmax_mhz, rb.bottleneck
    );
    println!(
        "  speedup  : {:.1}× (paper reports 7.9× on average)",
        rb.rk_method_seconds / rp.rk_method_seconds
    );
    Ok(())
}

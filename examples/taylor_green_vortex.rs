//! Taylor-Green Vortex study: integrate the TGV and print the classic
//! kinetic-energy / enstrophy evolution (the physics workload behind the
//! paper's evaluation, §II-A).
//!
//! ```sh
//! cargo run --release --example taylor_green_vortex [edge] [t_end]
//! ```

use fem_cfd_accel::mesh::generator::BoxMeshBuilder;
use fem_cfd_accel::solver::{Simulation, TgvConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let edge: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(16);
    let t_end: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2.0);

    // Re=400 keeps the coarse grid stable without subgrid modeling.
    let cfg = TgvConfig::new(0.1, 400.0);
    let mesh = BoxMeshBuilder::tgv_box(edge).build()?;
    println!(
        "TGV: {}³ elements ({} nodes), Mach {}, Re {}, t_end {}",
        edge,
        mesh.num_nodes(),
        cfg.mach,
        cfg.reynolds,
        t_end
    );
    let initial = cfg.initial_state(&mesh);
    let mut sim = Simulation::new(mesh, cfg.gas(), initial)?;
    sim.set_profiling(true);
    let dt = sim.suggest_dt(0.4);
    let steps_per_report = ((t_end / 10.0) / dt).ceil().max(1.0) as usize;

    let d0 = sim.diagnostics();
    let ke0 = d0.kinetic_energy;
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>10}",
        "t", "KE/KE0", "enstrophy", "max|u|", "max Mach"
    );
    println!(
        "{:>8.3} {:>12.6} {:>12.4e} {:>12.4e} {:>10.4}",
        0.0, 1.0, d0.enstrophy, d0.max_speed, d0.max_mach
    );
    while sim.time() < t_end {
        sim.advance(steps_per_report, dt)?;
        let d = sim.diagnostics();
        println!(
            "{:>8.3} {:>12.6} {:>12.4e} {:>12.4e} {:>10.4}",
            d.time,
            d.kinetic_energy / ke0,
            d.enstrophy,
            d.max_speed,
            d.max_mach
        );
    }
    println!("\n{}", sim.profiler());
    println!(
        "\npaper Fig 2 reference: RK(Diffusion) 39.2% | RK(Convection) 21.0% | RK(Other) 16.1% | Non-RK 23.6%"
    );
    Ok(())
}

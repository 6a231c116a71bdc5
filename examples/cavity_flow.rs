//! Lid-driven cavity: a wall-bounded flow using the Dirichlet boundary
//! machinery — the "complex geometries and intricate setups" motivation
//! the paper gives for choosing FEM over FDM (§I).
//!
//! The setup comes straight from the scenario registry
//! (`Scenario::lid_cavity()`): a unit box with no-slip isothermal walls
//! and a moving lid (+x at z = max) spins up a recirculating vortex; we
//! report the swirl development and finish with the scenario's own
//! invariant checks (wall adherence, bounded interior speed, quasi mass
//! conservation).
//!
//! ```sh
//! cargo run --release --example cavity_flow [edge] [steps]
//! ```

use fem_cfd_accel::solver::scenarios::{Scenario, ScenarioKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let edge: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(10);
    // At least one step per reporting chunk, or the flow never evolves
    // and the stirring invariant below rightly fails.
    let steps: usize = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400)
        .max(8);

    let scenario = Scenario::lid_cavity();
    let ScenarioKind::LidCavity(cfg) = *scenario.kind() else {
        unreachable!("lid_cavity() is the cavity scenario");
    };
    let mut sim = scenario.builder(edge, 1)?.build()?;
    println!(
        "cavity: {}³ elements ({} nodes), {} Dirichlet nodes, lid speed {}",
        edge,
        sim.core().mesh().num_nodes(),
        sim.bc().map_or(0, |bc| bc.len()),
        cfg.lid_speed
    );

    let dt = sim.suggest_dt(scenario.default_cfl());
    println!("dt = {dt:.3e}\n");
    let start = sim.diagnostics();
    println!("{:>8} {:>14} {:>14}", "t", "KE", "max|u| interior");
    for _ in 0..8 {
        sim.advance(steps / 8, dt)?;
        let d = sim.diagnostics();
        // Interior max speed (exclude the driven lid itself).
        let core = sim.core();
        let mut max_u = 0.0f64;
        for n in 0..core.mesh().num_nodes() {
            if !core.mesh().boundary_tag(n).is_boundary() {
                max_u = max_u.max(core.primitives().velocity(n).norm());
            }
        }
        println!(
            "{:>8.4} {:>14.6e} {:>14.6e}",
            d.time, d.kinetic_energy, max_u
        );
    }

    let end = sim.diagnostics();
    let report = scenario.check_invariants(&start, &end, &sim);
    println!("\ninvariants:\n{report}");
    assert!(
        report.all_passed(),
        "cavity invariants failed — see report above"
    );
    println!("interior fluid is circulating — momentum diffused in from the lid.");
    Ok(())
}

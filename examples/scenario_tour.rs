//! Tour of the scenario registry: runs every registered workload (TGV,
//! lid-driven cavity, double shear layer, acoustic pulse) for a short
//! burst on two multi-device workers and prints each scenario's
//! invariant report — the quickest way to see the solver handle more
//! than one flow. Each member is described declaratively as a
//! `SimulationSpec` (the same JSON-round-trippable value the ensemble
//! engine serves) and built from it.
//!
//! ```sh
//! cargo run --release --example scenario_tour [edge] [steps]
//! ```

use fem_cfd_accel::solver::scenarios::Scenario;
use fem_cfd_accel::solver::{BackendSpec, SimulationSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let edge: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let steps: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(20);

    for scenario in Scenario::registry() {
        let spec = SimulationSpec {
            scenario: scenario.name().to_string(),
            edge,
            steps,
            reynolds: None,
            amplitude: None,
            cfl: None,
            backend: BackendSpec {
                kind: "multidevice".to_string(),
                strategy: Some("partitioned".to_string()),
                devices: Some(2),
                kernel: None,
            },
        };
        let mut sim = spec.build()?;
        let dt = sim.suggest_dt(scenario.default_cfl());
        let start = sim.diagnostics();
        sim.advance(steps, dt)?;
        let end = sim.diagnostics();
        let report = scenario.check_invariants(&start, &end, &sim);
        println!(
            "{} — {}\n  {} nodes, {} pinned, dt {:.3e}, {} steps, KE {:.4e} → {:.4e}",
            scenario.name(),
            scenario.description(),
            sim.core().mesh().num_nodes(),
            sim.bc().map_or(0, |bc| bc.len()),
            dt,
            steps,
            start.kinetic_energy,
            end.kinetic_energy,
        );
        print!("{report}");
        assert!(
            report.all_passed(),
            "{}: invariants failed — see report above",
            scenario.name()
        );
    }
    println!("all scenarios ran with their invariants intact.");
    Ok(())
}

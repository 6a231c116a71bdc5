//! Design-space exploration, both layers of it: serve a declarative
//! parameter sweep over the *whole* scenario registry through the
//! ensemble engine, quote the accelerator workload each scenario
//! implies, then sweep the resource budget to trace the II-vs-area
//! frontier of the merged Diffusion&Convection pipeline (§III-D).
//!
//! The CFD side of the exploration is data, not code: the sweep lives in
//! `examples/sweeps/design_space.json` as a `SweepSpec` (scenarios ×
//! edges × Reynolds × amplitudes × backends), expands into
//! `SimulationSpec` members, and runs through the `EnsembleDriver` —
//! same-mesh members share one immutable `SharedMeshContext`.
//!
//! ```sh
//! cargo run --release --example design_space_exploration
//! ```

use fem_cfd_accel::accel::designs::proposed_design;
use fem_cfd_accel::accel::experiments::scenario_workload;
use fem_cfd_accel::accel::optimizer::{optimize_design, region_resources, OptimizerConfig};
use fem_cfd_accel::accel::perf::estimate_performance;
use fem_cfd_accel::accel::workload::RklWorkload;
use fem_cfd_accel::hls::resources::ResourceUsage;
use fem_cfd_accel::hls::schedule::schedule_kernel;
use fem_cfd_accel::solver::{EnsembleDriver, Scenario, SweepSpec};

const SWEEP_JSON: &str = include_str!("sweeps/design_space.json");

fn scaled_budget(percent: u64) -> ResourceUsage {
    let base = OptimizerConfig::for_u200_slr().budget;
    ResourceUsage {
        lut: base.lut * percent / 100,
        ff: base.ff * percent / 100,
        dsp: base.dsp * percent / 100,
        bram18k: base.bram18k * percent / 100,
        uram: base.uram * percent / 100,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The declarative sweep: a JSON value, expanded over the registry.
    let sweep: SweepSpec = serde_json::from_str(SWEEP_JSON)?;
    let members = sweep.expand()?;
    println!(
        "=== sweep `{}`: {} scenarios × {} backends → {} members ===",
        sweep.name,
        sweep.scenarios.len(),
        sweep.backends.len(),
        members.len()
    );

    // 2. Serve every member through the ensemble engine.
    let report = EnsembleDriver::new().run(&members)?;
    println!(
        "{:>22} {:>26} {:>8} {:>11} {:>12} {:>8}",
        "scenario", "backend", "Re", "dt", "KE(final)", "verdict"
    );
    for m in &report.members {
        let re = members[m.index]
            .reynolds
            .map_or("-".to_string(), |r| format!("{r:.0}"));
        println!(
            "{:>22} {:>26} {:>8} {:>11.3e} {:>12.5e} {:>8}",
            m.scenario,
            m.backend,
            re,
            m.dt,
            m.kinetic_energy,
            if m.invariants_passed { "ok" } else { "FAIL" },
        );
        assert!(m.error.is_none(), "{}: {:?}", m.scenario, m.error);
    }
    println!(
        "{} members in {:.2} s ({:.1} members/s) on {} shared contexts — {:.1}x memory savings\n",
        report.members.len(),
        report.wall_s,
        report.members_per_sec,
        report.contexts,
        report.memory_savings_ratio,
    );
    assert!(report.all_passed(), "a sweep member failed its invariants");

    // 3. The accelerator workload each swept scenario implies.
    println!("=== per-scenario accelerator workload (roofline inputs) ===");
    let edge = sweep.edges[0];
    for name in &sweep.scenarios {
        let scenario = Scenario::by_name(name).expect("swept scenarios are registered");
        let mesh = scenario.mesh(edge)?;
        let w = scenario_workload(name, &mesh);
        println!(
            "  {:>22}: {:>7} nodes, {:.1} MFLOP/stage, AI {:.2} flop/B, DDR bound {:.0} GFLOP/s",
            name,
            w.nodes,
            w.rkl_flops_per_stage as f64 / 1e6,
            w.arithmetic_intensity,
            w.ddr_bound_gflops,
        );
    }
    println!();

    // 4. The §III-D trace at the default budget.
    let w = RklWorkload::with_nodes(1_000_000, 1);
    println!("=== §III-D optimization trace (1M-node workload, default budget) ===");
    let mut d = proposed_design(&w);
    let steps = optimize_design(&mut d, &OptimizerConfig::for_u200_slr())?;
    for s in &steps {
        println!(
            "  [{:<13}] II {:>3} → {:>3}  {}",
            s.task, s.ii_before, s.ii_after, s.action
        );
    }
    println!("  final region: {}\n", region_resources(&d)?);

    // 5. Budget sweep: the area-vs-II frontier.
    println!("=== resource budget sweep ===");
    println!(
        "{:>8} {:>10} {:>8} {:>10} {:>8} {:>14}",
        "budget%", "computeII", "DSP", "LUT", "fmax", "stage time"
    );
    for percent in [25u64, 50, 75, 100, 150, 200] {
        let mut cfg = OptimizerConfig::for_u200_slr();
        cfg.budget = scaled_budget(percent);
        let mut d = proposed_design(&w);
        optimize_design(&mut d, &cfg)?;
        let s = schedule_kernel(&d.rkl_tasks[1])?;
        let ii = s
            .loops
            .iter()
            .find_map(|l| (l.label == "diff_conv_nodes").then(|| l.ii.unwrap_or(0)))
            .unwrap_or(0);
        let res = region_resources(&d)?;
        let perf = estimate_performance(&d)?;
        println!(
            "{:>8} {:>10} {:>8} {:>10} {:>7.0}M {:>12.4} s",
            percent, ii, res.dsp, res.lut, perf.fmax_mhz, perf.stage_seconds
        );
    }
    println!("\nLower budgets stop the optimizer earlier (higher II, less area);");
    println!("larger ones let it unroll further until another bound binds —");
    println!("exactly the §III-D stop conditions.");
    Ok(())
}

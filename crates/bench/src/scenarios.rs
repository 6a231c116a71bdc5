//! Cross-backend scenario regression matrix: `repro scenarios`.
//!
//! Runs every entry of the solver's scenario registry
//! ([`fem_solver::scenarios::Scenario`]) on the serial loop and on
//! [`PARALLEL_BACKENDS`] and reports:
//!
//! * **Equivalence** — for each RK step, the parallel trajectories are
//!   re-launched from the serial state of that step and the per-field
//!   relative deviation after the step is recorded. Every backend must
//!   track serial at ≤ 1e-12 on every scenario — including the
//!   wall-bounded cavity whose Dirichlet zeroing rides inside the RK
//!   loop. (The multi-device executor is in fact bitwise identical to
//!   serial, so every deviation reads 0.)
//! * **Invariants** — the scenario's physical checks (conservation, KE
//!   decay, wall adherence, pulse spreading) evaluated on the serial run.
//! * **Workload quotes** — the accelerator-side DDR traffic, FLOPs,
//!   arithmetic intensity and U200 roofline bound for the scenario mesh
//!   (via [`fem_accel::experiments::scenario_workload`]).
//!
//! The `scenario_matrix` integration suite asserts on this exact study,
//! and the CI `repro-artifacts` job gates its JSON output.

use fem_accel::experiments::{scenario_workload, ScenarioWorkload};
use fem_numerics::rk::StateOps;
use fem_solver::scenarios::Scenario;
use fem_solver::state::Conserved;
use fem_solver::{AssemblyStrategy, BackendSelect, PartitionStrategy};
use serde::Serialize;

/// Maximum per-step relative deviation a backend may show against the
/// serial reference (the acceptance bar of the regression matrix).
pub const STRATEGY_EQUIVALENCE_TOL: f64 = 1e-12;

/// The parallel backends every scenario is compared against serial on.
pub const PARALLEL_BACKENDS: [BackendSelect; 2] = [
    BackendSelect::MultiDevice {
        devices: 2,
        strategy: PartitionStrategy::Partitioned,
    },
    BackendSelect::MultiDevice {
        devices: 4,
        strategy: PartitionStrategy::Partitioned,
    },
];

/// One (scenario, backend) cell of the matrix.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioRow {
    /// Scenario identifier.
    pub scenario: String,
    /// Backend label (`serial`, `multidevice(2, partitioned)`,
    /// `multidevice(4, partitioned)`).
    pub strategy: String,
    /// RK steps compared.
    pub steps: usize,
    /// Worst per-field relative deviation from the serial state over all
    /// per-step resync comparisons (0 for the serial row itself; field
    /// scales floored at 1).
    pub max_rel_dev_vs_serial: f64,
}

/// One invariant check of a scenario, serialization-friendly.
#[derive(Debug, Clone, Serialize)]
pub struct InvariantRow {
    /// Check identifier.
    pub name: String,
    /// Comparison direction (`<=` or `>=`).
    pub op: String,
    /// Measured value.
    pub value: f64,
    /// Bound compared against.
    pub bound: f64,
    /// Whether the check passed.
    pub passed: bool,
}

/// Per-scenario outcome: equivalence verdict, invariants, workload quote.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioSummary {
    /// Scenario identifier.
    pub scenario: String,
    /// One-line description.
    pub description: String,
    /// Mesh nodes.
    pub nodes: usize,
    /// Mesh elements.
    pub elements: usize,
    /// Dirichlet-pinned nodes (0 for periodic scenarios).
    pub dirichlet_nodes: usize,
    /// Time step used.
    pub dt: f64,
    /// Whether every backend stayed within
    /// [`STRATEGY_EQUIVALENCE_TOL`] of serial on every step.
    pub strategies_agree: bool,
    /// The scenario's invariant checks (evaluated on the serial run).
    pub invariants: Vec<InvariantRow>,
    /// Whether every invariant check passed.
    pub invariants_pass: bool,
    /// Accelerator workload quote for this scenario's mesh.
    pub workload: ScenarioWorkload,
}

/// The full cross-backend scenario matrix.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioMatrix {
    /// Elements per axis of every scenario mesh.
    pub edge: usize,
    /// RK steps each scenario ran.
    pub steps: usize,
    /// Worker threads available to the rayon stub.
    pub threads: usize,
    /// (scenario × backend) cells, backends in fixed order (serial, then
    /// [`PARALLEL_BACKENDS`]) per scenario.
    pub rows: Vec<ScenarioRow>,
    /// Per-scenario verdicts.
    pub summaries: Vec<ScenarioSummary>,
}

impl std::fmt::Display for ScenarioMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Scenario regression matrix ({}³-element meshes, {} steps, {} threads):",
            self.edge, self.steps, self.threads
        )?;
        writeln!(
            f,
            "  {:>22} {:>28} {:>14}",
            "scenario", "backend", "max rel dev"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>22} {:>28} {:>14.2e}",
                r.scenario, r.strategy, r.max_rel_dev_vs_serial
            )?;
        }
        for s in &self.summaries {
            writeln!(
                f,
                "  {} — {} ({} nodes, {} pinned, dt {:.3e}): backends {}, invariants {}",
                s.scenario,
                s.description,
                s.nodes,
                s.dirichlet_nodes,
                s.dt,
                if s.strategies_agree {
                    "agree"
                } else {
                    "DIVERGE"
                },
                if s.invariants_pass { "pass" } else { "FAIL" },
            )?;
            for c in &s.invariants {
                writeln!(
                    f,
                    "      [{}] {:<24} {:>12.4e} {} {:>10.3e}",
                    if c.passed { "ok" } else { "FAIL" },
                    c.name,
                    c.value,
                    c.op,
                    c.bound
                )?;
            }
            writeln!(
                f,
                "      workload: {:.1} MFLOP/stage, {:.1} MB/stage, AI {:.2} flop/B, DDR bound {:.0} GFLOP/s",
                s.workload.rkl_flops_per_stage as f64 / 1e6,
                s.workload.rkl_bytes_per_stage as f64 / 1e6,
                s.workload.arithmetic_intensity,
                s.workload.ddr_bound_gflops,
            )?;
        }
        Ok(())
    }
}

/// Worst per-field relative deviation between two states, with each
/// field's scale floored at 1 (near-cancelling fields otherwise compare
/// rounding noise against rounding noise).
pub(crate) fn max_rel_dev(reference: &Conserved, candidate: &Conserved) -> f64 {
    fn field_dev(x: &[f64], y: &[f64]) -> f64 {
        let scale = x.iter().fold(1.0f64, |m, &v| m.max(v.abs()));
        x.iter()
            .zip(y)
            .map(|(a, b)| (a - b).abs() / scale)
            .fold(0.0, f64::max)
    }
    let mut worst = field_dev(&reference.rho, &candidate.rho);
    for d in 0..3 {
        worst = worst.max(field_dev(&reference.mom[d], &candidate.mom[d]));
    }
    worst.max(field_dev(&reference.energy, &candidate.energy))
}

/// Runs the matrix: every registered scenario on an `edge`³-element mesh
/// for `steps` RK4 steps on the serial loop and [`PARALLEL_BACKENDS`].
///
/// # Panics
///
/// Panics if a scenario fails to build or a step blows up — both mean
/// the registry itself is broken, which the caller cannot recover from.
pub fn run_scenario_matrix(edge: usize, steps: usize) -> ScenarioMatrix {
    assert!(steps > 0, "steps");
    let threads = fem_solver::parallel::available_threads();
    let mut rows = Vec::new();
    let mut summaries = Vec::new();
    for scenario in Scenario::registry() {
        let name = scenario.name();
        let mut serial = scenario
            .simulation(edge)
            .unwrap_or_else(|e| panic!("{name}: build failed: {e}"));
        let dt = serial.suggest_dt(scenario.default_cfl());
        let start = serial.diagnostics();

        let mut others: Vec<(BackendSelect, fem_solver::Simulation, f64)> = PARALLEL_BACKENDS
            .iter()
            .map(|&select| {
                let mut sim = scenario
                    .simulation(edge)
                    .unwrap_or_else(|e| panic!("{name}: build failed: {e}"));
                sim.set_backend(select)
                    .unwrap_or_else(|e| panic!("{name}: {select} attach failed: {e}"));
                (select, sim, 0.0f64)
            })
            .collect();

        for _ in 0..steps {
            let before = serial.conserved().clone();
            serial
                .step(dt)
                .unwrap_or_else(|e| panic!("{name}: serial step failed: {e}"));
            for (select, sim, dev) in &mut others {
                // Per-step resync: restart from the serial state so the
                // comparison measures one step's error, not an
                // accumulated trajectory drift.
                sim.conserved_mut().copy_from(&before);
                sim.step(dt)
                    .unwrap_or_else(|e| panic!("{name}: {select} step failed: {e}"));
                *dev = dev.max(max_rel_dev(serial.conserved(), sim.conserved()));
            }
        }
        let end = serial.diagnostics();
        let report = scenario.check_invariants(&start, &end, &serial);

        rows.push(ScenarioRow {
            scenario: name.to_string(),
            strategy: AssemblyStrategy::Serial.to_string(),
            steps,
            max_rel_dev_vs_serial: 0.0,
        });
        let mut agree = true;
        for (select, _, dev) in &others {
            agree &= *dev <= STRATEGY_EQUIVALENCE_TOL;
            rows.push(ScenarioRow {
                scenario: name.to_string(),
                strategy: select.to_string(),
                steps,
                max_rel_dev_vs_serial: *dev,
            });
        }

        let mesh = serial.core().mesh();
        summaries.push(ScenarioSummary {
            scenario: name.to_string(),
            description: scenario.description().to_string(),
            nodes: mesh.num_nodes(),
            elements: mesh.num_elements(),
            dirichlet_nodes: serial
                .bc()
                .map_or(0, fem_solver::boundary::DirichletBc::len),
            dt,
            strategies_agree: agree,
            invariants_pass: report.all_passed(),
            invariants: report
                .checks()
                .iter()
                .map(|c| InvariantRow {
                    name: c.name.to_string(),
                    op: c.op.to_string(),
                    value: c.value,
                    bound: c.bound,
                    passed: c.passed,
                })
                .collect(),
            workload: scenario_workload(name, mesh),
        });
    }
    ScenarioMatrix {
        edge,
        steps,
        threads,
        rows,
        summaries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_runs_all_scenarios_and_strategies() {
        let m = run_scenario_matrix(4, 2);
        assert_eq!(m.summaries.len(), 4);
        assert_eq!(m.rows.len(), 12, "3 backends per scenario");
        for triple in m.rows.chunks(3) {
            assert_eq!(triple[0].strategy, "serial");
            assert_eq!(triple[1].strategy, "multidevice(2, partitioned)");
            assert_eq!(triple[2].strategy, "multidevice(4, partitioned)");
            for r in triple {
                // The multi-device executor is bitwise serial.
                assert_eq!(
                    r.max_rel_dev_vs_serial, 0.0,
                    "{} / {}: dev {}",
                    r.scenario, r.strategy, r.max_rel_dev_vs_serial
                );
            }
        }
        for s in &m.summaries {
            assert!(s.strategies_agree, "{}", s.scenario);
            assert!(!s.invariants.is_empty(), "{}", s.scenario);
            assert!(s.workload.rkl_flops_per_stage > 0);
            // Conservation invariants hold even at this tiny step count;
            // the evolution invariants need the longer scenario_matrix
            // runs, so all_passed is not asserted here.
            for c in &s.invariants {
                if c.name.ends_with("_drift_rel") {
                    assert!(c.passed, "{}: {} = {}", s.scenario, c.name, c.value);
                }
            }
        }
        // The cavity must actually pin nodes.
        let cavity = m
            .summaries
            .iter()
            .find(|s| s.scenario == "lid-driven-cavity")
            .unwrap();
        assert!(cavity.dirichlet_nodes > 0);
        // JSON serializes (the repro --json path).
        let json = serde_json::to_string(&m).unwrap();
        assert!(json.contains("\"summaries\""));
        let shown = format!("{m}");
        assert!(shown.contains("acoustic-pulse"), "{shown}");
    }
}

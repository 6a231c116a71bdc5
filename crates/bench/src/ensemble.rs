//! Ensemble serving study: `repro ensemble`.
//!
//! Exercises the solver's [`fem_solver::EnsembleDriver`] the way a
//! parameter-exploration service would and reports three things:
//!
//! * **Throughput scaling** — an N-member same-mesh sweep (periodic
//!   scenarios with varying Reynolds number, amplitude, and per-member
//!   execution backend) run at each member count of the sweep:
//!   members/sec, wall time, and the measured context-sharing memory
//!   savings (N same-mesh members on one [`fem_mesh::SharedMeshContext`]
//!   hold its bytes once, so the savings ratio equals the member count).
//! * **Per-backend rows over the registry** — every scenario of
//!   [`fem_solver::Scenario::registry`] under the serial reference and
//!   two multidevice decompositions, all served as *one* ensemble (two
//!   shared contexts: the periodic box and the walled cavity box), with
//!   per-member invariant verdicts and final KE/enstrophy.
//! * **Spec-vs-setters identity** — a declaratively specified member and
//!   its hand-configured twin advanced side by side and compared
//!   *bitwise*, pinning the contract that the [`fem_solver::spec`] layer
//!   is a description of the imperative API, not a second code path.
//!
//! The `ensemble_json_schema` test in `repro_json.rs` pins the JSON
//! shape and the CI `ensemble` job regenerates and gates the artifact
//! (positive throughput, savings ≥ 2× for the 8-member sweep, bitwise
//! identity) on every push.

use fem_solver::spec::{BackendSpec, SimulationSpec};
use fem_solver::{EnsembleDriver, Scenario, Simulation};
use serde::Serialize;

/// Member counts the throughput sweep serves.
pub const ENSEMBLE_MEMBER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Elements per axis of every ensemble member's mesh.
pub const ENSEMBLE_EDGE: usize = 6;

/// RK4 steps every ensemble member advances.
pub const ENSEMBLE_STEPS: usize = 2;

/// One member count of the same-mesh throughput sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingRow {
    /// Members served.
    pub members: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Distinct shared mesh contexts (1 for the same-mesh sweep).
    pub contexts: usize,
    /// End-to-end wall seconds.
    pub wall_s: f64,
    /// Members served per wall second.
    pub members_per_sec: f64,
    /// Measured context memory-sharing ratio (private copies / shared).
    pub memory_savings_ratio: f64,
    /// Shared-context resident bytes (counted once).
    pub shared_context_bytes: usize,
    /// Resident bytes if every member held a private context copy.
    pub unshared_context_bytes: usize,
    /// Whether every member passed its scenario invariants.
    pub all_passed: bool,
}

/// One (scenario, backend) member of the registry ensemble.
#[derive(Debug, Clone, Serialize)]
pub struct BackendRow {
    /// Scenario identifier.
    pub scenario: String,
    /// Backend name as the backend itself reports it.
    pub backend: String,
    /// Time-step size the member ran at.
    pub dt: f64,
    /// Whether every scenario invariant passed.
    pub invariants_passed: bool,
    /// Final kinetic energy.
    pub kinetic_energy: f64,
    /// Final enstrophy.
    pub enstrophy: f64,
    /// Wall milliseconds spent on the member.
    pub wall_ms: f64,
}

/// The full ensemble serving study.
#[derive(Debug, Clone, Serialize)]
pub struct EnsembleStudy {
    /// Elements per axis of every member mesh.
    pub edge: usize,
    /// RK steps per member.
    pub steps: usize,
    /// Worker threads available to the driver.
    pub threads: usize,
    /// The swept member counts.
    pub member_counts: Vec<usize>,
    /// Throughput sweep rows (one per member count).
    pub scaling: Vec<ScalingRow>,
    /// Registry × backend member rows, served as one ensemble.
    pub backend_rows: Vec<BackendRow>,
    /// Contexts the registry ensemble grouped onto (periodic + walled).
    pub backend_contexts: usize,
    /// Member count of the largest same-mesh sweep.
    pub same_mesh_members: usize,
    /// Its measured memory-savings ratio (= member count when every
    /// member shares one context).
    pub same_mesh_savings_ratio: f64,
    /// Whether a spec-built member and its setter-configured twin
    /// produced bitwise identical trajectories.
    pub spec_vs_setters_bitwise: bool,
}

impl std::fmt::Display for EnsembleStudy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Ensemble serving ({}³-element meshes, {} steps/member, {} threads):",
            self.edge, self.steps, self.threads
        )?;
        writeln!(
            f,
            "  same-mesh throughput sweep (shared context, mixed backends):"
        )?;
        writeln!(
            f,
            "  {:>8} {:>8} {:>9} {:>10} {:>13} {:>13} {:>7}",
            "members", "workers", "wall [s]", "mem/sec", "ctx bytes", "saved", "passed"
        )?;
        for r in &self.scaling {
            writeln!(
                f,
                "  {:>8} {:>8} {:>9.3} {:>10.2} {:>13} {:>12.1}x {:>7}",
                r.members,
                r.workers,
                r.wall_s,
                r.members_per_sec,
                r.shared_context_bytes,
                r.memory_savings_ratio,
                if r.all_passed { "yes" } else { "NO" },
            )?;
        }
        writeln!(
            f,
            "  registry x backend matrix ({} members, {} shared contexts):",
            self.backend_rows.len(),
            self.backend_contexts
        )?;
        writeln!(
            f,
            "  {:>22} {:>26} {:>11} {:>12} {:>12} {:>9}",
            "scenario", "backend", "dt", "KE(final)", "enstrophy", "verdict"
        )?;
        for r in &self.backend_rows {
            writeln!(
                f,
                "  {:>22} {:>26} {:>11.3e} {:>12.5e} {:>12.5e} {:>9}",
                r.scenario,
                r.backend,
                r.dt,
                r.kinetic_energy,
                r.enstrophy,
                if r.invariants_passed { "ok" } else { "FAIL" },
            )?;
        }
        writeln!(
            f,
            "  {}-member same-mesh sweep shares one context: {:.1}x memory savings",
            self.same_mesh_members, self.same_mesh_savings_ratio
        )?;
        writeln!(
            f,
            "  spec-built vs setter-built trajectory: {}",
            if self.spec_vs_setters_bitwise {
                "bitwise identical"
            } else {
                "DIVERGED"
            }
        )
    }
}

/// The mixed same-mesh member list: periodic scenarios with varying
/// Reynolds/amplitude overrides and per-member backend selections, all
/// on one `edge`³ periodic box.
fn same_mesh_specs(edge: usize, steps: usize, members: usize) -> Vec<SimulationSpec> {
    let scenarios = [
        "taylor-green-vortex",
        "double-shear-layer",
        "acoustic-pulse",
    ];
    let backends = [
        BackendSpec::reference_serial(),
        BackendSpec {
            kind: "multidevice".to_string(),
            strategy: Some("partitioned".to_string()),
            devices: Some(3),
            kernel: None,
        },
        BackendSpec {
            kind: "multidevice".to_string(),
            strategy: Some("contiguous".to_string()),
            devices: Some(2),
            kernel: None,
        },
        BackendSpec {
            kind: "multidevice".to_string(),
            strategy: Some("partitioned".to_string()),
            devices: Some(4),
            kernel: None,
        },
    ];
    (0..members)
        .map(|i| {
            let scenario = scenarios[i % scenarios.len()];
            // The inviscid pulse rejects a Reynolds override; vary its
            // amplitude instead.
            let reynolds = (scenario != "acoustic-pulse").then_some(200.0 + 100.0 * i as f64);
            SimulationSpec {
                scenario: scenario.to_string(),
                edge,
                steps,
                reynolds,
                amplitude: Some(0.8 + 0.1 * (i % 3) as f64),
                cfl: None,
                backend: backends[i % backends.len()].clone(),
            }
        })
        .collect()
}

/// Builds one spec two ways — declaratively and through the legacy
/// setters — and compares the 2-step trajectories bit for bit.
fn spec_vs_setters_bitwise(edge: usize, steps: usize) -> bool {
    let spec = SimulationSpec {
        scenario: "taylor-green-vortex".to_string(),
        edge,
        steps,
        reynolds: Some(250.0),
        amplitude: Some(1.1),
        cfl: None,
        backend: BackendSpec {
            kind: "multidevice".to_string(),
            strategy: Some("partitioned".to_string()),
            devices: Some(2),
            kernel: None,
        },
    };
    let mut from_spec = spec.build().expect("spec member builds");
    let dt = from_spec.suggest_dt(spec.effective_cfl().expect("cfl"));
    from_spec.advance(steps, dt).expect("spec member steps");

    let scenario = spec.resolve_scenario().expect("scenario resolves");
    let mesh = scenario.mesh(edge).expect("mesh builds");
    let initial = scenario.initial_state(&mesh);
    let mut by_hand =
        Simulation::new(mesh, scenario.gas(), initial).expect("hand-built member builds");
    by_hand
        .set_backend(spec.backend.to_select().expect("backend resolves"))
        .expect("backend installs");
    by_hand.advance(steps, dt).expect("hand-built member steps");

    from_spec.conserved().to_bit_vec() == by_hand.conserved().to_bit_vec()
}

/// Runs the study: the same-mesh throughput sweep at each member count,
/// the registry × backend ensemble, and the spec-vs-setters identity
/// check.
///
/// # Panics
///
/// Panics if a member spec fails to resolve or a sweep fails to run (a
/// broken registry or driver the caller cannot recover from).
pub fn run_ensemble_study(edge: usize, steps: usize, member_counts: &[usize]) -> EnsembleStudy {
    assert!(steps > 0, "steps");
    assert!(!member_counts.is_empty(), "member counts");
    let threads = fem_solver::parallel::available_threads();
    let driver = EnsembleDriver::new();

    // ---- Same-mesh throughput sweep. ----
    let max_members = member_counts.iter().copied().max().unwrap_or(1);
    let specs = same_mesh_specs(edge, steps, max_members);
    let mut scaling = Vec::new();
    let mut same_mesh_savings_ratio = 0.0;
    for &members in member_counts {
        let members = members.min(max_members).max(1);
        let report = driver
            .run(&specs[..members])
            .unwrap_or_else(|e| panic!("{members}-member sweep failed: {e}"));
        assert_eq!(report.contexts, 1, "same-mesh sweep split its context");
        if members == max_members {
            same_mesh_savings_ratio = report.memory_savings_ratio;
        }
        scaling.push(ScalingRow {
            members,
            workers: report.workers,
            contexts: report.contexts,
            wall_s: report.wall_s,
            members_per_sec: report.members_per_sec,
            memory_savings_ratio: report.memory_savings_ratio,
            shared_context_bytes: report.shared_context_bytes,
            unshared_context_bytes: report.unshared_context_bytes,
            all_passed: report.all_passed(),
        });
    }

    // ---- Registry × backend ensemble. ----
    let backends = [
        BackendSpec::reference_serial(),
        BackendSpec {
            kind: "multidevice".to_string(),
            strategy: Some("partitioned".to_string()),
            devices: Some(4),
            kernel: None,
        },
        BackendSpec {
            kind: "multidevice".to_string(),
            strategy: Some("contiguous".to_string()),
            devices: Some(2),
            kernel: None,
        },
    ];
    let registry_specs: Vec<SimulationSpec> = Scenario::registry()
        .iter()
        .flat_map(|s| {
            backends.iter().map(|b| SimulationSpec {
                scenario: s.name().to_string(),
                edge,
                steps,
                reynolds: None,
                amplitude: None,
                cfl: None,
                backend: b.clone(),
            })
        })
        .collect();
    let registry_report = driver
        .run(&registry_specs)
        .unwrap_or_else(|e| panic!("registry ensemble failed: {e}"));
    let backend_rows: Vec<BackendRow> = registry_report
        .members
        .iter()
        .map(|m| {
            assert!(
                m.error.is_none(),
                "{} under {}: {:?}",
                m.scenario,
                m.backend,
                m.error
            );
            BackendRow {
                scenario: m.scenario.clone(),
                backend: m.backend.clone(),
                dt: m.dt,
                invariants_passed: m.invariants_passed,
                kinetic_energy: m.kinetic_energy,
                enstrophy: m.enstrophy,
                wall_ms: m.wall_ms,
            }
        })
        .collect();

    EnsembleStudy {
        edge,
        steps,
        threads,
        member_counts: member_counts.to_vec(),
        scaling,
        backend_rows,
        backend_contexts: registry_report.contexts,
        same_mesh_members: max_members,
        same_mesh_savings_ratio,
        spec_vs_setters_bitwise: spec_vs_setters_bitwise(edge, steps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_serves_sweeps_and_pins_the_contracts() {
        let study = run_ensemble_study(4, 1, &[1, 2, 4]);
        assert_eq!(study.scaling.len(), 3);
        for row in &study.scaling {
            assert!(row.all_passed, "members={}", row.members);
            assert_eq!(row.contexts, 1);
            assert!(row.members_per_sec > 0.0);
            assert!(
                (row.memory_savings_ratio - row.members as f64).abs() < 1e-12,
                "same-mesh savings must equal the member count, got {} for {}",
                row.memory_savings_ratio,
                row.members
            );
            assert_eq!(
                row.unshared_context_bytes,
                row.shared_context_bytes * row.members
            );
        }
        assert_eq!(study.same_mesh_members, 4);
        assert!(study.same_mesh_savings_ratio >= 2.0);
        // Registry × 3 backends, grouped onto periodic + walled boxes.
        assert_eq!(study.backend_rows.len(), 4 * 3);
        assert_eq!(study.backend_contexts, 2);
        for row in &study.backend_rows {
            assert!(
                row.invariants_passed,
                "{} under {}",
                row.scenario, row.backend
            );
            assert!(row.dt > 0.0);
        }
        assert!(study.spec_vs_setters_bitwise);

        // JSON serializes (the repro --json path) and Display renders.
        let json = serde_json::to_string(&study).unwrap();
        assert!(json.contains("\"scaling\""));
        assert!(json.contains("\"same_mesh_savings_ratio\""));
        assert!(json.contains("\"spec_vs_setters_bitwise\""));
        let shown = format!("{study}");
        assert!(shown.contains("bitwise identical"), "{shown}");
        assert!(shown.contains("multidevice(4, partitioned)"), "{shown}");
        assert!(shown.contains("memory savings"), "{shown}");
    }
}

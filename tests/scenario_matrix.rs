//! The cross-backend scenario regression matrix — its own tier-1 check.
//!
//! Three layers of protection for the scenario registry:
//!
//! 1. **Matrix**: every registered scenario (TGV, lid-driven cavity,
//!    double shear layer, acoustic pulse) must run on the serial loop and
//!    on 2- and 4-device multi-device assembly with per-step deviations
//!    ≤ 1e-12 relative and
//!    its physical invariants intact — the acceptance bar of the
//!    `repro scenarios` artifact, asserted here on the exact same study.
//! 2. **Golden traces**: committed TGV kinetic-energy/enstrophy decay
//!    traces (the order-1 n = 8 seed plus the PR-9 high-order p = 2 and
//!    p = 3 boxes, 8 steps each) that new runs must match to ≤ 1e-12
//!    relative, so kernel refactors — in particular anything touching
//!    the sum-factored weak-divergence path — cannot silently change
//!    the physics at any order. Regenerate deliberately with
//!    `cargo test --test scenario_matrix -- --ignored` after a *wanted*
//!    physics change.
//! 3. **Bitwise pinning**: Dirichlet-constrained nodes of the cavity
//!    stay bitwise at their targets across full RK4 steps on the serial
//!    loop and two multi-device decompositions, and the composed RHS is
//!    exactly zero there.
//! 4. **Kernel paths**: every registered scenario runs its invariant
//!    suite at p = 2 under both the sum-factored and the full-matrix
//!    weak-divergence contraction, and the two trajectories agree.

use fem_bench::scenarios::{run_scenario_matrix, STRATEGY_EQUIVALENCE_TOL};
use fem_bench::{SCENARIO_MATRIX_EDGE, SCENARIO_MATRIX_STEPS};
use fem_cfd_accel::solver::scenarios::Scenario;
use fem_cfd_accel::solver::{
    AssemblyStrategy, BackendSelect, KernelPath, PartitionStrategy, Simulation, SimulationBuilder,
};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/tgv_n8_trace.json"
);
const GOLDEN_EDGE: usize = 8;
const GOLDEN_STEPS: usize = 8;
const GOLDEN_TOL: f64 = 1e-12;

/// The high-order golden rungs: `(file, edge, order)` — chosen so each
/// box stays small enough for tier-1 while exercising the tensor-product
/// basis the sum-factored kernels were built for.
const GOLDEN_HIGH_ORDER: [(&str, usize, usize); 2] = [
    (
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/tgv_p2_n4_trace.json"
        ),
        4,
        2,
    ),
    (
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/tgv_p3_n3_trace.json"
        ),
        3,
        3,
    ),
];

#[test]
fn matrix_passes_equivalence_and_invariants_for_all_scenarios() {
    let m = run_scenario_matrix(SCENARIO_MATRIX_EDGE, SCENARIO_MATRIX_STEPS);

    // Acceptance: at least the four canonical scenarios ran.
    assert!(
        m.summaries.len() >= 4,
        "only {} scenarios",
        m.summaries.len()
    );
    for name in [
        "taylor-green-vortex",
        "lid-driven-cavity",
        "double-shear-layer",
        "acoustic-pulse",
    ] {
        assert!(
            m.summaries.iter().any(|s| s.scenario == name),
            "scenario `{name}` missing from the matrix"
        );
    }

    // Every (scenario, backend) cell tracks serial at ≤ 1e-12.
    assert_eq!(m.rows.len(), m.summaries.len() * 3);
    for r in &m.rows {
        assert!(
            r.max_rel_dev_vs_serial <= STRATEGY_EQUIVALENCE_TOL,
            "{} / {}: deviation {:.3e} exceeds {:.0e}",
            r.scenario,
            r.strategy,
            r.max_rel_dev_vs_serial,
            STRATEGY_EQUIVALENCE_TOL
        );
    }

    // Every scenario's physical invariants hold on the serial run.
    for s in &m.summaries {
        assert!(s.strategies_agree, "{}: strategies diverged", s.scenario);
        assert!(!s.invariants.is_empty(), "{}: no invariants", s.scenario);
        for c in &s.invariants {
            assert!(
                c.passed,
                "{}: invariant `{}` failed ({:.4e} {} {:.3e})",
                s.scenario, c.name, c.value, c.op, c.bound
            );
        }
        // The accelerator workload quote rides along per scenario.
        assert!(s.workload.rkl_flops_per_stage > 0, "{}", s.scenario);
        assert!(s.workload.ddr_bound_gflops > 0.0, "{}", s.scenario);
    }

    // The cavity exercised the Dirichlet path; the periodic entries did
    // not accidentally pin anything.
    for s in &m.summaries {
        if s.scenario == "lid-driven-cavity" {
            assert!(s.dirichlet_nodes > 0);
        } else {
            assert_eq!(s.dirichlet_nodes, 0, "{}", s.scenario);
        }
    }
}

/// Runs a golden TGV configuration on the `edge`³ box of `order`-th
/// degree elements and returns per-step
/// `(time, kinetic_energy, enstrophy, total_mass)` rows.
fn tgv_trace_at(edge: usize, order: usize, dt: f64, steps: usize) -> Vec<(f64, f64, f64, f64)> {
    let scenario = Scenario::taylor_green();
    let mut sim = scenario
        .builder(edge, order)
        .and_then(SimulationBuilder::build)
        .expect("golden TGV builds");
    let mut rows = Vec::with_capacity(steps);
    for _ in 0..steps {
        sim.step(dt).expect("golden TGV steps");
        let d = sim.diagnostics();
        rows.push((d.time, d.kinetic_energy, d.enstrophy, d.total_mass));
    }
    rows
}

/// Runs the order-1 golden TGV configuration.
fn tgv_trace(dt: f64, steps: usize) -> Vec<(f64, f64, f64, f64)> {
    tgv_trace_at(GOLDEN_EDGE, 1, dt, steps)
}

/// The dt a golden trace is recorded at (CFL 0.4 on the given box).
fn golden_dt_at(edge: usize, order: usize) -> f64 {
    let scenario = Scenario::taylor_green();
    let sim = scenario
        .builder(edge, order)
        .and_then(SimulationBuilder::build)
        .expect("golden TGV builds");
    sim.suggest_dt(scenario.default_cfl())
}

/// The dt the order-1 golden trace was recorded at.
fn golden_dt() -> f64 {
    golden_dt_at(GOLDEN_EDGE, 1)
}

#[test]
fn golden_tgv_trace_matches() {
    let text = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "missing golden trace {GOLDEN_PATH} ({e}); regenerate with \
             `cargo test --test scenario_matrix -- --ignored`"
        )
    });
    let doc: serde_json::Value = serde_json::from_str(&text).expect("golden trace parses");
    assert_eq!(doc["scenario"].as_str(), Some("taylor-green-vortex"));
    assert_eq!(doc["edge"].as_u64(), Some(GOLDEN_EDGE as u64));
    let dt = doc["dt"].as_f64().expect("dt");
    let rows = doc["rows"].as_array().expect("rows");
    assert_eq!(rows.len(), GOLDEN_STEPS);

    // Replay at the *recorded* dt so the comparison is immune to
    // CFL-estimate changes, then hold every observable to ≤ 1e-12.
    let trace = tgv_trace(dt, rows.len());
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs();
    for (i, (row, &(time, ke, ens, mass))) in rows.iter().zip(&trace).enumerate() {
        for (key, ours) in [
            ("time", time),
            ("kinetic_energy", ke),
            ("enstrophy", ens),
            ("total_mass", mass),
        ] {
            let golden = row[key]
                .as_f64()
                .unwrap_or_else(|| panic!("row {i} missing `{key}`"));
            assert!(
                rel(ours, golden) <= GOLDEN_TOL,
                "step {}: `{key}` drifted from the golden trace: \
                 {ours:.17e} vs {golden:.17e} (rel {:.3e})",
                i + 1,
                rel(ours, golden)
            );
        }
    }
}

/// Replays a committed high-order golden trace at its recorded dt and
/// holds every observable to ≤ 1e-12 relative.
fn check_golden_high_order_trace(path: &str, edge: usize, order: usize) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden trace {path} ({e}); regenerate with \
             `cargo test --test scenario_matrix -- --ignored`"
        )
    });
    let doc: serde_json::Value = serde_json::from_str(&text).expect("golden trace parses");
    assert_eq!(doc["scenario"].as_str(), Some("taylor-green-vortex"));
    assert_eq!(doc["edge"].as_u64(), Some(edge as u64));
    assert_eq!(doc["order"].as_u64(), Some(order as u64));
    let dt = doc["dt"].as_f64().expect("dt");
    let rows = doc["rows"].as_array().expect("rows");
    assert_eq!(rows.len(), GOLDEN_STEPS);

    let trace = tgv_trace_at(edge, order, dt, rows.len());
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs();
    for (i, (row, &(time, ke, ens, mass))) in rows.iter().zip(&trace).enumerate() {
        for (key, ours) in [
            ("time", time),
            ("kinetic_energy", ke),
            ("enstrophy", ens),
            ("total_mass", mass),
        ] {
            let golden = row[key]
                .as_f64()
                .unwrap_or_else(|| panic!("row {i} missing `{key}`"));
            assert!(
                rel(ours, golden) <= GOLDEN_TOL,
                "p={order} step {}: `{key}` drifted from the golden trace: \
                 {ours:.17e} vs {golden:.17e} (rel {:.3e})",
                i + 1,
                rel(ours, golden)
            );
        }
    }
}

#[test]
fn golden_high_order_tgv_traces_match() {
    for (path, edge, order) in GOLDEN_HIGH_ORDER {
        check_golden_high_order_trace(path, edge, order);
    }
}

/// Serializes a golden trace document (shared by the blessing tests).
fn golden_trace_json(edge: usize, order: Option<usize>, dt: f64) -> String {
    let trace = tgv_trace_at(edge, order.unwrap_or(1), dt, GOLDEN_STEPS);
    let mut out = String::from("{\n");
    out.push_str("  \"scenario\": \"taylor-green-vortex\",\n");
    out.push_str(&format!("  \"edge\": {edge},\n"));
    if let Some(order) = order {
        out.push_str(&format!("  \"order\": {order},\n"));
    }
    out.push_str(&format!("  \"dt\": {dt},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, (time, ke, ens, mass)) in trace.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"step\": {}, \"time\": {time}, \"kinetic_energy\": {ke}, \
             \"enstrophy\": {ens}, \"total_mass\": {mass}}}{}\n",
            i + 1,
            if i + 1 < trace.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[test]
#[ignore = "writes tests/golden/tgv_n8_trace.json; run only to bless a wanted physics change"]
fn regenerate_golden_tgv_trace() {
    let dt = golden_dt();
    let out = golden_trace_json(GOLDEN_EDGE, None, dt);
    std::fs::write(GOLDEN_PATH, out).expect("write golden trace");
}

#[test]
#[ignore = "writes tests/golden/tgv_p{2,3}_*.json; run only to bless a wanted physics change"]
fn regenerate_golden_high_order_tgv_traces() {
    for (path, edge, order) in GOLDEN_HIGH_ORDER {
        let dt = golden_dt_at(edge, order);
        let out = golden_trace_json(edge, Some(order), dt);
        std::fs::write(path, out).expect("write golden trace");
    }
}

#[test]
fn registry_invariants_hold_at_p2_under_both_kernel_paths() {
    for scenario in Scenario::registry() {
        let mut ends: Vec<Vec<u64>> = Vec::new();
        for path in KernelPath::ALL {
            let mut sim = scenario
                .builder(4, 2)
                .and_then(|b| b.kernel_path(path).build())
                .unwrap_or_else(|e| panic!("{}: p=2 build failed: {e}", scenario.name()));
            let dt = sim.suggest_dt(scenario.default_cfl());
            let start = sim.diagnostics();
            sim.advance(GOLDEN_STEPS, dt)
                .unwrap_or_else(|e| panic!("{}/{path}: p=2 step failed: {e}", scenario.name()));
            let end = sim.diagnostics();
            let report = scenario.check_invariants(&start, &end, &sim);
            for c in report.checks() {
                assert!(
                    c.passed,
                    "{}/{path} at p=2: invariant `{}` failed ({:.4e} {} {:.3e})",
                    scenario.name(),
                    c.name,
                    c.value,
                    c.op,
                    c.bound
                );
            }
            ends.push(sim.conserved().rho.iter().map(|v| v.to_bits()).collect());
        }
        // Both contraction paths integrate the same physics: the two
        // trajectories track each other well below any invariant bound
        // (they are *not* bitwise equal — summation order differs).
        let [ref factored, ref full] = ends[..] else {
            panic!("expected both kernel paths")
        };
        let max_rel = factored
            .iter()
            .zip(full)
            .map(|(&a, &b)| {
                let (a, b) = (f64::from_bits(a), f64::from_bits(b));
                (a - b).abs() / b.abs()
            })
            .fold(0.0, f64::max);
        assert!(
            max_rel <= 1e-9,
            "{}: kernel paths diverged at p=2: {max_rel:.3e}",
            scenario.name()
        );
    }
}

#[test]
fn cavity_pinned_nodes_stay_bitwise_fixed_under_every_strategy() {
    let scenario = Scenario::lid_cavity();
    for select in [
        BackendSelect::Reference(AssemblyStrategy::Serial),
        BackendSelect::MultiDevice {
            devices: 2,
            strategy: PartitionStrategy::Partitioned,
        },
        BackendSelect::MultiDevice {
            devices: 3,
            strategy: PartitionStrategy::Contiguous,
        },
    ] {
        let mesh = scenario.mesh(5).expect("cavity mesh builds");
        let initial = scenario.initial_state(&mesh);
        let bc = scenario.boundary(&mesh).expect("cavity is wall-bounded");
        let mut sim = Simulation::builder(mesh, scenario.gas(), initial)
            .bc(bc)
            .backend(select)
            .build()
            .expect("cavity builds");
        let targets: Vec<(u32, [f64; 5])> = sim.bc().expect("cavity has a BC").targets().to_vec();
        assert!(!targets.is_empty());

        // The composed RHS (fused kernel, lumped mass, boundary zeroing)
        // is exactly zero at every pinned node.
        let rhs = sim.eval_rhs();
        for &(n, _) in &targets {
            let n = n as usize;
            assert_eq!(rhs.rho[n], 0.0, "{select}: rho RHS at node {n}");
            assert_eq!(rhs.energy[n], 0.0, "{select}: energy RHS at node {n}");
            for d in 0..3 {
                assert_eq!(rhs.mom[d][n], 0.0, "{select}: mom[{d}] RHS at node {n}");
            }
        }

        // Full RK4 steps leave every pinned value bit-identical.
        let dt = sim.suggest_dt(scenario.default_cfl());
        sim.advance(3, dt).expect("cavity steps");
        for &(n, vals) in &targets {
            let n = n as usize;
            assert_eq!(
                sim.conserved().rho[n].to_bits(),
                vals[0].to_bits(),
                "{select}: rho moved at node {n}"
            );
            for d in 0..3 {
                assert_eq!(
                    sim.conserved().mom[d][n].to_bits(),
                    vals[1 + d].to_bits(),
                    "{select}: mom[{d}] moved at node {n}"
                );
            }
            assert_eq!(
                sim.conserved().energy[n].to_bits(),
                vals[4].to_bits(),
                "{select}: energy moved at node {n}"
            );
        }
    }
}

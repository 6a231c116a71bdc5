//! Experiment drivers: one function per table/figure of the paper, plus
//! the ablation studies. Each returns a serializable result struct with
//! a `Display` that prints the paper-vs-reproduction comparison.

use crate::calibration::{
    self, CpuCalibration, PAPER_FIG2_BREAKDOWN, PAPER_FIG5_AVG_SPEEDUP,
    PAPER_FIG5_GROWTH_1P4M_TO_4P2M, PAPER_TABLE1_PROPOSED, PAPER_TABLE1_VITIS,
};
use crate::designs::{
    build_design, paper_design, vitis_baseline_design, DesignConfig, BATCH_ELEMENTS,
};
use crate::optimizer::{optimize_design, region_resources, OptimizerConfig};
use crate::perf::{cpu_end_to_end_seconds, estimate_performance, fpga_end_to_end_seconds};
use crate::workload::RklWorkload;
use fem_mesh::generator::{BoxMeshBuilder, FIG5_MESH_SIZES};
use fem_solver::driver::Simulation;
use fem_solver::tgv::TgvConfig;
use fpga_platform::power::FpgaPowerModel;
use fpga_platform::u200::U200;
use hls_kernel::resources::estimate_resources;
use hls_kernel::schedule::schedule_kernel;
use serde::Serialize;

/// Error type of the experiment layer.
pub type ExpError = Box<dyn std::error::Error>;

// ---------------------------------------------------------------- Fig 2

/// One measured mesh size of the Fig 2 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2Row {
    /// Mesh nodes.
    pub nodes: usize,
    /// Breakdown percentages (RK-Diffusion, RK-Convection, RK-Other,
    /// Non-RK).
    pub breakdown_percent: [f64; 4],
    /// Fraction of time inside the RK method.
    pub rk_fraction_percent: f64,
}

/// The Fig 2 reproduction: measured execution-time breakdown of the
/// reference solver.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2Result {
    /// Per-size measurements.
    pub rows: Vec<Fig2Row>,
    /// Average across sizes.
    pub average_percent: [f64; 4],
    /// The paper's reported breakdown.
    pub paper_percent: [f64; 4],
}

/// Runs the instrumented solver on `mesh_edges`-element TGV boxes and
/// measures the Fig 2 phase breakdown.
///
/// # Errors
///
/// Propagates solver failures (unstable dt cannot occur: the driver picks
/// a CFL-safe step).
pub fn run_fig2(mesh_edges: &[usize], steps: usize) -> Result<Fig2Result, ExpError> {
    let mut rows = Vec::new();
    for &n in mesh_edges {
        let mesh = BoxMeshBuilder::tgv_box(n).build()?;
        let cfg = TgvConfig::standard();
        let initial = cfg.initial_state(&mesh);
        let nodes = mesh.num_nodes();
        let mut sim = Simulation::new(mesh, cfg.gas(), initial)?;
        sim.set_profiling(true);
        let dt = sim.suggest_dt(0.4);
        for _ in 0..steps {
            sim.step(dt)?;
            // The non-RK phase of the paper's code: per-step diagnostics
            // and solution post-processing on the host.
            sim.diagnostics();
        }
        rows.push(Fig2Row {
            nodes,
            breakdown_percent: sim.profiler().breakdown_percent(),
            rk_fraction_percent: 100.0 * sim.profiler().rk_fraction(),
        });
    }
    let mut average = [0.0; 4];
    for r in &rows {
        for (a, b) in average.iter_mut().zip(r.breakdown_percent) {
            *a += b / rows.len() as f64;
        }
    }
    Ok(Fig2Result {
        rows,
        average_percent: average,
        paper_percent: PAPER_FIG2_BREAKDOWN,
    })
}

impl std::fmt::Display for Fig2Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig 2 — execution time breakdown (percent)")?;
        writeln!(
            f,
            "{:>10} {:>14} {:>15} {:>10} {:>8} {:>8}",
            "nodes", "RK(Diffusion)", "RK(Convection)", "RK(Other)", "Non-RK", "RK frac"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>10} {:>14.2} {:>15.2} {:>10.2} {:>8.2} {:>8.2}",
                r.nodes,
                r.breakdown_percent[0],
                r.breakdown_percent[1],
                r.breakdown_percent[2],
                r.breakdown_percent[3],
                r.rk_fraction_percent
            )?;
        }
        writeln!(
            f,
            "{:>10} {:>14.2} {:>15.2} {:>10.2} {:>8.2}",
            "average",
            self.average_percent[0],
            self.average_percent[1],
            self.average_percent[2],
            self.average_percent[3]
        )?;
        write!(
            f,
            "{:>10} {:>14.2} {:>15.2} {:>10.2} {:>8.2}   (paper)",
            "paper",
            self.paper_percent[0],
            self.paper_percent[1],
            self.paper_percent[2],
            self.paper_percent[3]
        )
    }
}

// ---------------------------------------------------------------- Fig 5

/// One mesh size of the Fig 5 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Row {
    /// Size label from the paper's x-axis.
    pub label: String,
    /// Actual node count used.
    pub nodes: usize,
    /// Proposed design: RK-method seconds.
    pub proposed_seconds: f64,
    /// Vitis baseline: RK-method seconds.
    pub vitis_seconds: f64,
    /// Speedup (vitis / proposed).
    pub speedup: f64,
    /// Proposed clock (MHz).
    pub proposed_fmax: f64,
    /// Baseline clock (MHz).
    pub vitis_fmax: f64,
}

/// The Fig 5 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Result {
    /// Per-size rows.
    pub rows: Vec<Fig5Row>,
    /// Geometric-mean speedup across sizes.
    pub avg_speedup: f64,
    /// Growth of proposed time from the 1.4M mesh to the 4.2M mesh.
    pub growth_1p4_to_4p2_proposed: f64,
    /// Growth of baseline time from the 1.4M mesh to the 4.2M mesh.
    pub growth_1p4_to_4p2_vitis: f64,
    /// Paper's reported average speedup (7.9×).
    pub paper_avg_speedup: f64,
    /// Paper's reported growth (3.4×).
    pub paper_growth: f64,
}

/// Regenerates Fig 5: RK-method execution time vs mesh size for the
/// proposed and Vitis-optimized designs.
///
/// # Errors
///
/// Propagates scheduling/estimation failures.
pub fn run_fig5() -> Result<Fig5Result, ExpError> {
    let mut rows = Vec::new();
    for (label, target) in FIG5_MESH_SIZES {
        let b = BoxMeshBuilder::with_node_budget(target);
        let nodes = b.node_count();
        let w = RklWorkload::with_nodes(nodes, 1);
        let proposed = paper_design(&w);
        let baseline = vitis_baseline_design(&w);
        let rp = estimate_performance(&proposed)?;
        let rb = estimate_performance(&baseline)?;
        rows.push(Fig5Row {
            label: label.to_string(),
            nodes,
            proposed_seconds: rp.rk_method_seconds,
            vitis_seconds: rb.rk_method_seconds,
            speedup: rb.rk_method_seconds / rp.rk_method_seconds,
            proposed_fmax: rp.fmax_mhz,
            vitis_fmax: rb.fmax_mhz,
        });
    }
    let avg_speedup = (rows.iter().map(|r| r.speedup.ln()).sum::<f64>() / rows.len() as f64).exp();
    let by_label = |l: &str| rows.iter().find(|r| r.label == l).expect("size present");
    let growth_p = by_label("4.2M").proposed_seconds / by_label("1.4M").proposed_seconds;
    let growth_v = by_label("4.2M").vitis_seconds / by_label("1.4M").vitis_seconds;
    Ok(Fig5Result {
        rows,
        avg_speedup,
        growth_1p4_to_4p2_proposed: growth_p,
        growth_1p4_to_4p2_vitis: growth_v,
        paper_avg_speedup: PAPER_FIG5_AVG_SPEEDUP,
        paper_growth: PAPER_FIG5_GROWTH_1P4M_TO_4P2M,
    })
}

impl std::fmt::Display for Fig5Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig 5 — RK method execution time vs mesh nodes ({} RK4 steps)",
            calibration::DEFAULT_RK_STEPS
        )?;
        writeln!(
            f,
            "{:>7} {:>10} {:>14} {:>14} {:>9} {:>9} {:>9}",
            "size", "nodes", "proposed [s]", "vitis [s]", "speedup", "f_prop", "f_vitis"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>7} {:>10} {:>14.3} {:>14.3} {:>9.2} {:>7.0}MHz {:>7.0}MHz",
                r.label,
                r.nodes,
                r.proposed_seconds,
                r.vitis_seconds,
                r.speedup,
                r.proposed_fmax,
                r.vitis_fmax
            )?;
        }
        writeln!(
            f,
            "average speedup: {:.2}×   (paper: {:.1}×)",
            self.avg_speedup, self.paper_avg_speedup
        )?;
        write!(
            f,
            "1.4M → 4.2M growth: proposed {:.2}×, vitis {:.2}×   (paper: {:.1}×)",
            self.growth_1p4_to_4p2_proposed, self.growth_1p4_to_4p2_vitis, self.paper_growth
        )
    }
}

// -------------------------------------------------------------- Table I

/// One design row of Table I.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Design name.
    pub design: String,
    /// Achieved clock (MHz).
    pub fmax_mhz: f64,
    /// FF / LUT / BRAM / URAM / DSP percent (Table I column order).
    pub utilization_percent: [f64; 5],
}

/// The Table I reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Result {
    /// Vitis baseline row.
    pub vitis: Table1Row,
    /// Proposed design row.
    pub proposed: Table1Row,
    /// Paper's baseline row.
    pub paper_vitis: [f64; 5],
    /// Paper's proposed row.
    pub paper_proposed: [f64; 5],
}

fn design_utilization(
    design: &crate::designs::AcceleratorDesign,
) -> Result<([f64; 5], f64), ExpError> {
    let device = U200::new();
    let rkl = region_resources(design)?;
    let rku_s = schedule_kernel(&design.rku)?;
    let rku = estimate_resources(&design.rku, &rku_s);
    let total = rkl + rku;
    let u = device.utilization_percent(&total);
    let placements = fpga_platform::fmax::place_two(rkl, rku, design.config.slr_split);
    let fmax =
        fpga_platform::fmax::achievable_fmax_mhz(&device, &placements, design.config.slr_split);
    Ok(([u.ff, u.lut, u.bram, u.uram, u.dsp], fmax))
}

/// Regenerates Table I: post-P&R-style utilization of both designs.
///
/// # Errors
///
/// Propagates scheduling failures.
pub fn run_table1() -> Result<Table1Result, ExpError> {
    let w = RklWorkload::with_nodes(4_200_000, 1);
    let proposed = paper_design(&w);
    let baseline = vitis_baseline_design(&w);
    let (pu, pf) = design_utilization(&proposed)?;
    let (bu, bf) = design_utilization(&baseline)?;
    Ok(Table1Result {
        vitis: Table1Row {
            design: format!("Vitis Opt.@{bf:.0}MHz"),
            fmax_mhz: bf,
            utilization_percent: bu,
        },
        proposed: Table1Row {
            design: format!("Proposed@{pf:.0}MHz"),
            fmax_mhz: pf,
            utilization_percent: pu,
        },
        paper_vitis: PAPER_TABLE1_VITIS,
        paper_proposed: PAPER_TABLE1_PROPOSED,
    })
}

impl std::fmt::Display for Table1Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table I — post-P&R resource utilization percentages")?;
        writeln!(
            f,
            "{:<24} {:>7} {:>7} {:>7} {:>7} {:>7}",
            "design", "FF%", "LUT%", "BRAM%", "URAM%", "DSP%"
        )?;
        for (row, paper) in [
            (&self.vitis, &self.paper_vitis),
            (&self.proposed, &self.paper_proposed),
        ] {
            let u = row.utilization_percent;
            writeln!(
                f,
                "{:<24} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2}",
                row.design, u[0], u[1], u[2], u[3], u[4]
            )?;
            writeln!(
                f,
                "{:<24} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2}",
                "  (paper)", paper[0], paper[1], paper[2], paper[3], paper[4]
            )?;
        }
        Ok(())
    }
}

// ------------------------------------------------------------- Table II

/// The §IV-B CPU-vs-FPGA comparison.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Result {
    /// Mesh nodes (the paper uses 4.2M).
    pub nodes: usize,
    /// CPU end-to-end seconds.
    pub cpu_seconds: f64,
    /// Accelerated-system end-to-end seconds.
    pub fpga_seconds: f64,
    /// Latency reduction `1 − fpga/cpu` (paper: 45%).
    pub latency_reduction: f64,
    /// CPU package power (W).
    pub cpu_power_w: f64,
    /// FPGA core power (W).
    pub fpga_core_w: f64,
    /// FPGA peripheral power (W).
    pub fpga_peripherals_w: f64,
    /// FPGA rest-of-card power (W).
    pub fpga_rest_w: f64,
    /// Power ratio CPU / (core + rest) — brackets the paper's 3.64×.
    pub power_ratio_core_rest: f64,
    /// Power ratio CPU / total card power.
    pub power_ratio_total: f64,
    /// Energy-to-solution ratio CPU / FPGA (whole-card power).
    pub energy_ratio: f64,
    /// Energy-delay-product ratio CPU / FPGA.
    pub edp_ratio: f64,
    /// Paper's reported latency reduction.
    pub paper_latency_reduction: f64,
    /// Paper's reported power ratio.
    pub paper_power_ratio: f64,
}

/// Regenerates the §IV-B comparison at `nodes` mesh nodes, with the CPU
/// side on the roofline calibration.
///
/// # Errors
///
/// Propagates scheduling/estimation failures.
pub fn run_table2(nodes: usize) -> Result<Table2Result, ExpError> {
    let w = RklWorkload::with_nodes(nodes, 1);
    let cal = CpuCalibration::roofline_default(&w);
    let proposed = paper_design(&w);
    let report = estimate_performance(&proposed)?;
    let cpu_s = cpu_end_to_end_seconds(&w, &cal, calibration::DEFAULT_RK_STEPS);
    let fpga_s = fpga_end_to_end_seconds(&report, &w, &cal, calibration::DEFAULT_RK_STEPS);
    let power_model = FpgaPowerModel::default();
    let power = power_model.breakdown(&report.resources, report.fmax_mhz, 4);
    let cpu = fpga_platform::cpu::CpuModel::xeon_silver_4210();
    let energy =
        fpga_platform::energy::EnergyComparison::new(cpu_s, cpu.package_power_w, fpga_s, &power);
    Ok(Table2Result {
        nodes,
        cpu_seconds: cpu_s,
        fpga_seconds: fpga_s,
        latency_reduction: 1.0 - fpga_s / cpu_s,
        cpu_power_w: cpu.package_power_w,
        fpga_core_w: power.core_w,
        fpga_peripherals_w: power.peripherals_w,
        fpga_rest_w: power.rest_w,
        power_ratio_core_rest: cpu.package_power_w / (power.core_w + power.rest_w),
        power_ratio_total: cpu.package_power_w / power.total_w(),
        energy_ratio: energy.energy_ratio(),
        edp_ratio: energy.edp_ratio(),
        paper_latency_reduction: calibration::PAPER_CPU_LATENCY_REDUCTION,
        paper_power_ratio: calibration::PAPER_POWER_RATIO,
    })
}

impl std::fmt::Display for Table2Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "§IV-B — end-to-end comparison vs Xeon Silver 4210 ({} nodes)",
            self.nodes
        )?;
        writeln!(f, "  CPU  end-to-end : {:>10.2} s", self.cpu_seconds)?;
        writeln!(f, "  FPGA end-to-end : {:>10.2} s", self.fpga_seconds)?;
        writeln!(
            f,
            "  latency reduction: {:>9.1}%   (paper: {:.0}%)",
            100.0 * self.latency_reduction,
            100.0 * self.paper_latency_reduction
        )?;
        writeln!(
            f,
            "  CPU power: {:.2} W | FPGA: core {:.1} + periph {:.1} + rest {:.1} W",
            self.cpu_power_w, self.fpga_core_w, self.fpga_peripherals_w, self.fpga_rest_w
        )?;
        writeln!(
            f,
            "  power ratio: {:.2}× (core+rest) / {:.2}× (total)   (paper: {:.2}×)",
            self.power_ratio_core_rest, self.power_ratio_total, self.paper_power_ratio
        )?;
        write!(
            f,
            "  energy-to-solution: {:.2}× less | EDP: {:.2}× better",
            self.energy_ratio, self.edp_ratio
        )
    }
}

// ------------------------------------------------------------ Ablations

/// One ablation configuration's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Configuration name.
    pub name: String,
    /// RK-method seconds.
    pub rk_method_seconds: f64,
    /// Slowdown vs the full proposed design.
    pub slowdown_vs_proposed: f64,
    /// Achieved clock (MHz).
    pub fmax_mhz: f64,
    /// DSP usage (hardware-cost indicator).
    pub dsp: u64,
}

/// The ablation study over the paper's §III optimizations.
#[derive(Debug, Clone, Serialize)]
pub struct AblationResult {
    /// Mesh nodes used.
    pub nodes: usize,
    /// Rows (first = full proposed design).
    pub rows: Vec<AblationRow>,
}

/// Runs the ablations: each §III optimization disabled in isolation.
///
/// # Errors
///
/// Propagates scheduling/estimation failures.
pub fn run_ablations(nodes: usize) -> Result<AblationResult, ExpError> {
    /// A named tweak disabling one §III optimization.
    type Ablation = (&'static str, Box<dyn Fn(&mut DesignConfig)>);
    let w = RklWorkload::with_nodes(nodes, 1);
    let variants: Vec<Ablation> = vec![
        ("proposed (full)", Box::new(|_| {})),
        (
            "no task-level pipelining",
            Box::new(|c| c.task_level_pipelining = false),
        ),
        (
            "single AXI bundle",
            Box::new(|c| c.bundle_per_array = false),
        ),
        (
            "coupled RKU interfaces",
            Box::new(|c| c.decoupled_update_interfaces = false),
        ),
        ("RKL+RKU on one SLR", Box::new(|c| c.slr_split = false)),
        (
            "separate diff/conv modules",
            Box::new(|c| c.merged_diff_conv = false),
        ),
        (
            "unrestructured accumulation",
            Box::new(|c| c.restructured_accumulation = false),
        ),
        ("no URAM binding", Box::new(|c| c.use_uram = false)),
    ];
    let mut rows = Vec::new();
    let mut base_time = None;
    for (name, tweak) in variants {
        let mut cfg = DesignConfig::proposed();
        tweak(&mut cfg);
        let mut design = build_design(name, &w, cfg)?;
        optimize_design(&mut design, &OptimizerConfig::for_u200_slr())?;
        let r = estimate_performance(&design)?;
        let base = *base_time.get_or_insert(r.rk_method_seconds);
        rows.push(AblationRow {
            name: name.to_string(),
            rk_method_seconds: r.rk_method_seconds,
            slowdown_vs_proposed: r.rk_method_seconds / base,
            fmax_mhz: r.fmax_mhz,
            dsp: r.resources.dsp,
        });
    }
    Ok(AblationResult { nodes, rows })
}

impl std::fmt::Display for AblationResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Ablations — each §III optimization disabled in isolation ({} nodes)",
            self.nodes
        )?;
        writeln!(
            f,
            "{:<30} {:>12} {:>10} {:>9} {:>7}",
            "configuration", "RK time [s]", "slowdown", "fmax", "DSP"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<30} {:>12.3} {:>9.2}× {:>6.0}MHz {:>7}",
                r.name, r.rk_method_seconds, r.slowdown_vs_proposed, r.fmax_mhz, r.dsp
            )?;
        }
        Ok(())
    }
}

// --------------------------------------------------- scenario workloads

/// Accelerator-side quote for one registered solver scenario: the DDR
/// traffic and FLOPs one RKL stage moves for that workload's mesh, the
/// resulting arithmetic intensity, and the roofline bound the U200's
/// four DDR channels put on it. This is how batching/sharding studies
/// compare scenarios without running the solver.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioWorkload {
    /// Scenario identifier (from the solver registry).
    pub scenario: String,
    /// Mesh nodes.
    pub nodes: usize,
    /// Mesh elements.
    pub elements: usize,
    /// f64 FLOPs of one RKL stage.
    pub rkl_flops_per_stage: u64,
    /// DDR bytes of one RKL stage.
    pub rkl_bytes_per_stage: u64,
    /// FLOPs per DDR byte (roofline x-coordinate).
    pub arithmetic_intensity: f64,
    /// Streaming-compute ceiling (GFLOP/s) implied by the U200's four
    /// DDR channels at the effective FEM-gather efficiency.
    pub ddr_bound_gflops: f64,
    /// Host↔card bytes per time step when the host runs the non-RK phase.
    pub host_transfer_bytes_per_step: u64,
    /// Elements per streaming batch the footprint below was computed at.
    pub streaming_batch_elements: usize,
    /// DDR bytes read per RK stage by the batched Load-Element pipeline
    /// ([`fem_mesh::partition::streaming_footprint`]; shared nodes
    /// between batches are re-read, so this ≥ the unique-node payload).
    pub streaming_bytes_in_per_stage: u64,
    /// DDR bytes written back per RK stage by the batched pipeline.
    pub streaming_bytes_out_per_stage: u64,
    /// Peak unique-node footprint of any batch (on-chip buffer sizing).
    pub peak_batch_nodes: usize,
    /// Bytes of precomputed geometric factors the mesh carries
    /// (`J⁻ᵀ` + `det(J)·w` per element node) — pinned to
    /// [`fem_mesh::geometry::GeometryCache::memory_bytes`] by test so
    /// the two memory accountings cannot drift.
    pub geometry_cache_bytes: u64,
}

/// Quotes the accelerator workload of one scenario mesh (an element-free
/// mesh yields a zero-traffic quote).
pub fn scenario_workload(name: &str, mesh: &fem_mesh::HexMesh) -> ScenarioWorkload {
    let w = RklWorkload::from_mesh(mesh);
    let device = U200::new();
    // Aggregate off-chip bandwidth from the platform's banked memory
    // system (no hard-coded channel count — a device model with a
    // different bank layout reprices every roofline quote).
    let bw = device.memory_system().total_peak_bw() * fpga_platform::axi::DDR_EFFICIENCY;
    let batch = BATCH_ELEMENTS.min(mesh.num_elements()).max(1);
    let footprint = fem_mesh::partition::streaming_footprint(mesh, batch)
        .expect("positive batch size cannot fail");
    let geometry_cache_bytes = (mesh.num_elements() * mesh.nodes_per_element()) as u64
        * fem_mesh::geometry::GeometryCache::BYTES_PER_ELEMENT_NODE as u64;
    ScenarioWorkload {
        scenario: name.to_string(),
        nodes: w.num_nodes,
        elements: w.num_elements,
        rkl_flops_per_stage: w.rkl_flops_per_stage(),
        rkl_bytes_per_stage: w.rkl_bytes_per_stage(),
        arithmetic_intensity: w.rkl_arithmetic_intensity(),
        ddr_bound_gflops: w.rkl_arithmetic_intensity() * bw / 1e9,
        host_transfer_bytes_per_step: w.host_transfer_bytes_per_step(),
        streaming_batch_elements: batch,
        streaming_bytes_in_per_stage: footprint.bytes_in as u64,
        streaming_bytes_out_per_stage: footprint.bytes_out as u64,
        peak_batch_nodes: footprint.peak_batch_nodes,
        geometry_cache_bytes,
    }
}

/// Quotes every scenario of the solver registry on `edge`-element meshes.
///
/// # Errors
///
/// Propagates mesh-generation failures.
pub fn run_scenario_workloads(edge: usize) -> Result<Vec<ScenarioWorkload>, ExpError> {
    let mut out = Vec::new();
    for scenario in fem_solver::scenarios::Scenario::registry() {
        let mesh = scenario.mesh(edge)?;
        out.push(scenario_workload(scenario.name(), &mesh));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_breakdown_sums_to_hundred_and_rk_dominates() {
        let r = run_fig2(&[8], 2).unwrap();
        let sum: f64 = r.average_percent.iter().sum();
        assert!((sum - 100.0).abs() < 1e-6);
        // Diffusion should be the largest RK phase, as in the paper.
        assert!(
            r.average_percent[0] > r.average_percent[1],
            "diffusion {}% vs convection {}%",
            r.average_percent[0],
            r.average_percent[1]
        );
        // The RK method dominates.
        assert!(r.rows[0].rk_fraction_percent > 50.0);
    }

    #[test]
    fn fig5_speedup_in_band_and_growth_matches() {
        let r = run_fig5().unwrap();
        assert_eq!(r.rows.len(), 6);
        assert!(
            (4.0..=14.0).contains(&r.avg_speedup),
            "avg speedup {:.2}",
            r.avg_speedup
        );
        // Paper: 3.4× from 1.4M → 4.2M (node ratio 3.0, mild superlinearity).
        assert!(
            (2.5..=4.0).contains(&r.growth_1p4_to_4p2_proposed),
            "growth {:.2}",
            r.growth_1p4_to_4p2_proposed
        );
        // Proposed always wins, at every size.
        for row in &r.rows {
            assert!(row.speedup > 1.0, "{}: {}", row.label, row.speedup);
            assert!(row.proposed_fmax > row.vitis_fmax);
        }
    }

    #[test]
    fn table1_shape_matches_paper() {
        let r = run_table1().unwrap();
        let p = r.proposed.utilization_percent;
        let v = r.vitis.utilization_percent;
        // Proposed uses more FF/LUT/URAM/DSP (the paper's 1.5–1.9× and
        // the 16.8× URAM jump); BRAM may trade against URAM in our
        // binding, so it only has to stay in the same league.
        for i in [0usize, 1, 3, 4] {
            assert!(
                p[i] >= v[i],
                "column {i}: proposed {:.2} < vitis {:.2}",
                p[i],
                v[i]
            );
        }
        assert!(
            p[2] >= 0.5 * v[2],
            "BRAM: proposed {:.2} ≪ vitis {:.2}",
            p[2],
            v[2]
        );
        // URAM blows up relatively (paper: 0.73% → 11.77%).
        assert!(p[3] > 5.0 * v[3].max(0.1), "URAM {} vs {}", p[3], v[3]);
        // Clocks: 150-ish vs 100-ish.
        assert!(r.proposed.fmax_mhz > r.vitis.fmax_mhz);
        // Nothing exceeds the device.
        for x in p.iter().chain(v.iter()) {
            assert!(*x < 100.0);
        }
    }

    #[test]
    fn table2_reduction_and_power_in_band() {
        let r = run_table2(4_200_000).unwrap();
        assert!(
            (0.30..=0.70).contains(&r.latency_reduction),
            "latency reduction {:.2} outside band (paper 0.45)",
            r.latency_reduction
        );
        // The paper's reported 3.64× sits between the whole-card ratio
        // and the core+rest ratio (its exact denominator is ambiguous);
        // our two interpretations must bracket it.
        assert!(
            r.power_ratio_core_rest > r.power_ratio_total,
            "core+rest ratio should exceed total ratio"
        );
        assert!(
            r.power_ratio_total <= r.paper_power_ratio + 0.5
                && r.paper_power_ratio <= r.power_ratio_core_rest + 0.5,
            "paper ratio {:.2} not bracketed by [{:.2}, {:.2}]",
            r.paper_power_ratio,
            r.power_ratio_total,
            r.power_ratio_core_rest
        );
    }

    #[test]
    fn scenario_workloads_cover_the_registry() {
        let quotes = run_scenario_workloads(6).unwrap();
        assert_eq!(quotes.len(), 4);
        // The walled cavity has (edge+1)³ nodes, the periodic boxes edge³
        // — the registry must not collapse to one mesh shape.
        let nodes: Vec<usize> = quotes.iter().map(|q| q.nodes).collect();
        assert!(nodes.contains(&216), "periodic 6³: {nodes:?}");
        assert!(nodes.contains(&343), "walled 7³: {nodes:?}");
        for q in &quotes {
            assert!(q.rkl_flops_per_stage > 0);
            assert!(q.rkl_bytes_per_stage > 0);
            assert!(q.arithmetic_intensity > 0.0);
            assert!(
                q.ddr_bound_gflops > q.arithmetic_intensity,
                "{}: DDR bound below 1 GB/s?",
                q.scenario
            );
            assert!(q.host_transfer_bytes_per_step > 0);
            // The batched streaming footprint rides along: re-reads can
            // only add to the unique-node payload, and the peak batch
            // fits in the whole mesh.
            assert!(q.streaming_batch_elements > 0);
            assert!(
                q.streaming_bytes_in_per_stage
                    >= (q.nodes * fem_mesh::HexMesh::bytes_per_node()) as u64,
                "{}: footprint under-counts",
                q.scenario
            );
            assert!(q.streaming_bytes_out_per_stage > 0);
            assert!(q.peak_batch_nodes > 0 && q.peak_batch_nodes <= q.nodes);
        }
    }

    #[test]
    fn workload_memory_accountings_cannot_drift() {
        // The quote's geometry-byte and streaming-footprint numbers must
        // match the real artifacts: the built GeometryCache and the
        // partition module's footprint, recomputed here independently.
        use fem_numerics::tensor::HexBasis;
        for scenario in fem_solver::scenarios::Scenario::registry() {
            let mesh = scenario.mesh(5).unwrap();
            let q = scenario_workload(scenario.name(), &mesh);
            let basis = HexBasis::new(mesh.order()).unwrap();
            let cache = fem_mesh::geometry::GeometryCache::build(&mesh, &basis).unwrap();
            assert_eq!(
                q.geometry_cache_bytes,
                cache.memory_bytes() as u64,
                "{}: geometry accounting drifted",
                scenario.name()
            );
            let fp = fem_mesh::partition::streaming_footprint(&mesh, q.streaming_batch_elements)
                .unwrap();
            assert_eq!(q.streaming_bytes_in_per_stage, fp.bytes_in as u64);
            assert_eq!(q.streaming_bytes_out_per_stage, fp.bytes_out as u64);
            assert_eq!(q.peak_batch_nodes, fp.peak_batch_nodes);
        }
    }

    #[test]
    fn ablations_show_every_optimization_matters() {
        let r = run_ablations(200_000).unwrap();
        assert_eq!(r.rows[0].slowdown_vs_proposed, 1.0);
        // Removing TLP or bundling must hurt.
        for name in ["no task-level pipelining", "single AXI bundle"] {
            let row = r.rows.iter().find(|x| x.name == name).unwrap();
            assert!(
                row.slowdown_vs_proposed > 1.2,
                "{name}: slowdown only {:.2}",
                row.slowdown_vs_proposed
            );
        }
        // Same-SLR packing costs clock speed.
        let slr = r
            .rows
            .iter()
            .find(|x| x.name == "RKL+RKU on one SLR")
            .unwrap();
        assert!(slr.fmax_mhz < r.rows[0].fmax_mhz);
        // Separate diff/conv costs DSPs.
        let sep = r
            .rows
            .iter()
            .find(|x| x.name == "separate diff/conv modules")
            .unwrap();
        assert!(sep.dsp > r.rows[0].dsp);
    }
}

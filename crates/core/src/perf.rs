//! End-to-end performance estimation.
//!
//! Chains every model: HLS schedules give each task's per-element cycle
//! cost; cross-task AXI bundle sharing inflates the memory-bound tasks;
//! the analytic steady-state makespan of the task region (validated
//! against the DES by test) turns task IIs into an RKL stage makespan;
//! the placement + congestion model picks the clock;
//! DDR bandwidth bounds the streaming rate; PCIe and the host's non-RK
//! share complete the end-to-end time.

use crate::calibration::{CpuCalibration, DEFAULT_RK_STEPS, NON_RK_FRACTION, RK_STAGES};
use crate::designs::AcceleratorDesign;
use crate::optimizer::region_resources;
use fpga_platform::axi::{transfer_seconds, ChannelMap};
use fpga_platform::fmax::{achievable_fmax_mhz, place_two};
use fpga_platform::u200::U200;
use hls_dataflow::analytic::analytic_makespan;
use hls_dataflow::network::{ChannelKind, Network, NetworkBuilder};
use hls_dataflow::DataflowError;
use hls_kernel::ir::ArrayKind;
use hls_kernel::resources::{estimate_resources, ResourceUsage};
use hls_kernel::schedule::schedule_kernel;
use hls_kernel::HlsError;
use std::collections::BTreeMap;

/// Per-task performance facts.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskPerf {
    /// Task name.
    pub name: String,
    /// Cycles per element from the kernel schedule alone.
    pub cycles_per_element: u64,
    /// Cycles per element after cross-task AXI bundle contention.
    pub effective_cycles_per_element: u64,
    /// Pipeline fill latency (cycles).
    pub fill_latency: u64,
}

impl TaskPerf {
    /// The task as a dataflow stage: it starts an element every
    /// `effective_cycles_per_element` cycles and retires it after that
    /// interval plus the pipeline fill.
    pub fn stage(&self) -> Stage {
        Stage::new(
            self.name.clone(),
            self.effective_cycles_per_element,
            self.effective_cycles_per_element + self.fill_latency,
        )
    }
}

/// One task of a Load → Compute → Store dataflow region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// Task name.
    pub name: String,
    /// Initiation interval (cycles per element).
    pub ii: u64,
    /// Per-element latency (cycles).
    pub latency: u64,
    /// Memory bank a load or store streams through; `None` leaves the
    /// stream out of the bank-port arbitration.
    pub bank: Option<usize>,
}

impl Stage {
    /// An unbanked stage.
    pub fn new(name: impl Into<String>, ii: u64, latency: u64) -> Self {
        Stage {
            name: name.into(),
            ii,
            latency,
            bank: None,
        }
    }
}

/// A Load → Compute → Store region streaming `tokens` element tokens.
/// Every load feeds the first compute task, the compute tasks run in
/// series, and the last one feeds every store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Element tokens every task of the region processes.
    pub tokens: u64,
    /// Tasks streaming operands in from memory.
    pub loads: Vec<Stage>,
    /// Compute tasks, in pipeline order.
    pub compute: Vec<Stage>,
    /// Tasks writing results back to memory.
    pub stores: Vec<Stage>,
}

/// Depth of every channel of a region: enough element tokens to cover
/// the deepest task pipeline in flight (the batch ping-pong buffers of
/// §III-B hold many elements; at element granularity they behave as a
/// stream with slack).
const CHANNEL_DEPTH: usize = 8;

/// Builds the dataflow network of `regions`, which run side by side in
/// one simulation. A banked load issues its reads through its bank; a
/// banked store writes through its bank into a per-region sink, so the
/// store's port occupancy is arbitrated like a load's.
///
/// # Errors
///
/// [`DataflowError`] if the network fails validation.
pub fn region_network(regions: &[Region]) -> Result<Network, DataflowError> {
    fn channel(b: &mut NetworkBuilder, name: &str, bank: Option<usize>) -> usize {
        match bank {
            Some(bank) => b.banked_channel(name, CHANNEL_DEPTH, ChannelKind::Fifo, bank),
            None => b.channel(name, CHANNEL_DEPTH, ChannelKind::Fifo),
        }
    }
    let mut b = NetworkBuilder::new();
    for region in regions {
        let mut tasks = Vec::new();
        let mut inputs = Vec::with_capacity(region.loads.len());
        for load in &region.loads {
            let c = channel(&mut b, &load.name, load.bank);
            tasks.push(b.task(&load.name, load.ii, load.latency, vec![], vec![c]));
            inputs.push(c);
        }
        for (i, stage) in region.compute.iter().enumerate() {
            let fan_out = if i + 1 == region.compute.len() {
                region.stores.len()
            } else {
                1
            };
            let outputs: Vec<usize> = (0..fan_out)
                .map(|j| channel(&mut b, &format!("{}:{j}", stage.name), None))
                .collect();
            tasks.push(b.task(
                &stage.name,
                stage.ii,
                stage.latency,
                inputs,
                outputs.clone(),
            ));
            inputs = outputs;
        }
        let mut sink_inputs = Vec::new();
        for (store, input) in region.stores.iter().zip(inputs) {
            let outputs = match store.bank {
                Some(_) => vec![channel(&mut b, &store.name, store.bank)],
                None => vec![],
            };
            sink_inputs.extend(&outputs);
            tasks.push(b.task(&store.name, store.ii, store.latency, vec![input], outputs));
        }
        if !sink_inputs.is_empty() {
            tasks.push(b.task("sink", 1, 1, sink_inputs, vec![]));
        }
        for t in tasks {
            b.task_tokens(t, region.tokens);
        }
    }
    b.build(regions.iter().map(|r| r.tokens).max().unwrap_or(0))
}

/// The complete performance estimate of a design.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformanceReport {
    /// Design name.
    pub design: String,
    /// Achievable kernel clock (MHz).
    pub fmax_mhz: f64,
    /// Per-task breakdown.
    pub tasks: Vec<TaskPerf>,
    /// Name of the bottleneck RKL task.
    pub bottleneck: String,
    /// RKL cycles per stage (dataflow makespan, or sequential sum).
    pub rkl_cycles_per_stage: u64,
    /// RKU cycles per stage.
    pub rku_cycles_per_stage: u64,
    /// Seconds per RK stage (kernel time vs DDR streaming, whichever
    /// binds).
    pub stage_seconds: f64,
    /// Seconds per RK4 step (4 stages + the per-step host transfers).
    pub step_seconds: f64,
    /// Seconds for the whole run ([`DEFAULT_RK_STEPS`] steps + initial
    /// PCIe load).
    pub total_seconds: f64,
    /// RK-method-only seconds for the whole run (the Fig 5 metric).
    pub rk_method_seconds: f64,
    /// Combined resource usage (RKL region + RKU).
    pub resources: ResourceUsage,
}

/// Per-element cycle cost of one task kernel.
fn per_element_cycles(design: &AcceleratorDesign, task_idx: usize) -> Result<(u64, u64), HlsError> {
    let k = &design.rkl_tasks[task_idx];
    let s = schedule_kernel(k)?;
    let elements = design.workload.num_elements as u64;
    let total = s.total_latency_cycles;
    let per_elem = total.div_ceil(elements.max(1));
    // Fill latency: depth of the deepest pipelined loop.
    let fill = s
        .loops
        .iter()
        .filter(|l| l.ii.is_some())
        .map(|l| l.depth as u64)
        .max()
        .unwrap_or(1);
    Ok((per_elem.max(1), fill))
}

/// Total AXI beats per bundle over one whole stage of one kernel,
/// walking the loop nest with ancestor trip multiplicity.
fn axi_beats_total(k: &hls_kernel::ir::Kernel) -> BTreeMap<String, u64> {
    fn walk(
        k: &hls_kernel::ir::Kernel,
        lp: &hls_kernel::ir::Loop,
        mult: u64,
        out: &mut BTreeMap<String, u64>,
    ) {
        let m = mult * lp.trip_count;
        for a in &lp.accesses {
            if let Some(decl) = k.array(&a.array) {
                if let ArrayKind::Axi { bundle } = &decl.kind {
                    *out.entry(bundle.clone()).or_insert(0) += a.count * m;
                }
            }
        }
        for inner in &lp.inner {
            walk(k, inner, m, out);
        }
    }
    let mut out = BTreeMap::new();
    for lp in k.body() {
        walk(k, lp, 1, &mut out);
    }
    out
}

/// Per-element AXI beats of each bundle across all RKL tasks.
fn bundle_beats_per_element(design: &AcceleratorDesign) -> Result<BTreeMap<String, u64>, HlsError> {
    let mut beats: BTreeMap<String, u64> = BTreeMap::new();
    let elements = design.workload.num_elements as u64;
    for k in &design.rkl_tasks {
        for (bundle, total) in axi_beats_total(k) {
            *beats.entry(bundle).or_insert(0) += total.div_ceil(elements.max(1));
        }
    }
    Ok(beats)
}

/// DDR bytes per RKL stage, grouped by bundle.
fn bundle_bytes_per_stage(design: &AcceleratorDesign) -> Vec<u64> {
    let w = &design.workload;
    let mut by_bundle: BTreeMap<String, u64> = BTreeMap::new();
    for k in &design.rkl_tasks {
        for a in k.arrays() {
            if let ArrayKind::Axi { bundle } = &a.kind {
                // Each streamed array moves one f64 per element node.
                let bytes = (w.num_elements * w.nodes_per_element * 8) as u64;
                *by_bundle.entry(bundle.clone()).or_insert(0) += bytes;
            }
        }
    }
    by_bundle.into_values().collect()
}

/// Per-task cycle costs of `design`'s RKL tasks, in pipeline order, with
/// cross-task AXI bundle contention applied.
///
/// # Errors
///
/// Propagates HLS scheduling errors.
pub fn task_perfs(design: &AcceleratorDesign) -> Result<Vec<TaskPerf>, HlsError> {
    let beats = bundle_beats_per_element(design)?;
    let mut tasks = Vec::new();
    for (idx, k) in design.rkl_tasks.iter().enumerate() {
        let (own, fill) = per_element_cycles(design, idx)?;
        // A task is at least as slow as the total per-element demand on
        // every bundle it touches (the interconnect time-multiplexes
        // concurrent tasks).
        let mut eff = own;
        for a in k.arrays() {
            if let ArrayKind::Axi { bundle } = &a.kind {
                if let Some(&b) = beats.get(bundle) {
                    eff = eff.max(b);
                }
            }
        }
        tasks.push(TaskPerf {
            name: k.name().to_string(),
            cycles_per_element: own,
            effective_cycles_per_element: eff,
            fill_latency: fill,
        });
    }
    Ok(tasks)
}

/// The compute timing of `design`: the slowest of the tasks between its
/// load and its store (the merged Diffusion ⊕ Convection task of the
/// paper's design).
///
/// # Errors
///
/// Propagates HLS scheduling errors.
pub fn compute_task(design: &AcceleratorDesign) -> Result<TaskPerf, HlsError> {
    let tasks = task_perfs(design)?;
    let [_load, compute @ .., _store] = tasks.as_slice() else {
        unreachable!("every design has a load and a store task")
    };
    Ok(compute
        .iter()
        .max_by_key(|t| t.effective_cycles_per_element)
        .expect("every design has a compute task")
        .clone())
}

/// Estimates the performance of `design` over a run of
/// [`DEFAULT_RK_STEPS`] RK4 steps, with the host executing the non-RK
/// phase between steps (each step pays its host↔card PCIe transfer,
/// Table II's definition of a step).
///
/// # Errors
///
/// Propagates HLS scheduling errors and dataflow design-rule violations
/// (neither occurs for designs produced by [`crate::designs`]).
pub fn estimate_performance(
    design: &AcceleratorDesign,
) -> Result<PerformanceReport, Box<dyn std::error::Error>> {
    let device = U200::new();
    let w = &design.workload;
    let elements = w.num_elements as u64;

    let tasks = task_perfs(design)?;

    // ---- RKL stage makespan (cycles). ----
    let rkl_cycles = if design.config.task_level_pipelining {
        // Dataflow pipeline of the tasks in order.
        let [load, compute @ .., store] = tasks.as_slice() else {
            unreachable!("every design has a load and a store task")
        };
        analytic_makespan(&region_network(&[Region {
            tokens: elements,
            loads: vec![load.stage()],
            compute: compute.iter().map(TaskPerf::stage).collect(),
            stores: vec![store.stage()],
        }])?)
    } else {
        // No TLP: each element traverses every task sequentially.
        let per_elem: u64 = tasks.iter().map(|t| t.effective_cycles_per_element).sum();
        per_elem * elements
    };
    let bottleneck = tasks
        .iter()
        .max_by_key(|t| t.effective_cycles_per_element)
        .map(|t| t.name.clone())
        .unwrap_or_default();

    // ---- RKU cycles. ----
    let rku_schedule = schedule_kernel(&design.rku)?;
    let rku_cycles = rku_schedule.total_latency_cycles;

    // ---- Resources, placement, clock. ----
    let rkl_res = region_resources(design)?;
    let rku_res = estimate_resources(&design.rku, &rku_schedule);
    let placements = place_two(rkl_res, rku_res, design.config.slr_split);
    let fmax = achievable_fmax_mhz(&device, &placements, design.config.slr_split);
    let cycle = 1.0 / (fmax * 1.0e6);

    // ---- Seconds per stage: kernel cycles vs DDR streaming. ----
    let bundle_bytes = bundle_bytes_per_stage(design);
    let map = if design.config.bundle_per_array {
        ChannelMap::round_robin(bundle_bytes.len(), &device)
    } else {
        ChannelMap::single_channel(bundle_bytes.len())
    };
    let ddr_seconds = transfer_seconds(&bundle_bytes, &map, &device, fmax);
    let rkl_seconds = (rkl_cycles as f64 * cycle).max(ddr_seconds);
    let rku_bytes = design.workload.rku_bytes_per_stage();
    let rku_ddr = rku_bytes as f64 / (device.ddr_peak_bw() * fpga_platform::axi::DDR_EFFICIENCY);
    let rku_seconds = (rku_cycles as f64 * cycle).max(rku_ddr);
    let stage_seconds = rkl_seconds + rku_seconds;

    // ---- Per-step and total. ----
    let step_seconds = stage_seconds * RK_STAGES as f64
        + fpga_platform::pcie::transfer_seconds(w.host_transfer_bytes_per_step());
    let init = fpga_platform::pcie::transfer_seconds(11 * w.num_nodes as u64 * 8);
    let rk_method_seconds = stage_seconds * RK_STAGES as f64 * DEFAULT_RK_STEPS as f64;
    let total_seconds = step_seconds * DEFAULT_RK_STEPS as f64 + init;

    Ok(PerformanceReport {
        design: design.name.clone(),
        fmax_mhz: fmax,
        tasks,
        bottleneck,
        rkl_cycles_per_stage: rkl_cycles,
        rku_cycles_per_stage: rku_cycles,
        stage_seconds,
        step_seconds,
        total_seconds,
        rk_method_seconds,
        resources: rkl_res + rku_res,
    })
}

/// CPU time of the full RK method for the same run (Fig 5's software
/// reference and Table II's baseline).
pub fn cpu_rk_method_seconds(
    workload: &crate::workload::RklWorkload,
    cal: &CpuCalibration,
    rk_steps: usize,
) -> f64 {
    let stage = cal.stage_seconds(workload.num_elements);
    // RKU on CPU: roofline on its sweep.
    let cpu = fpga_platform::cpu::CpuModel::xeon_silver_4210();
    let rku = cpu.time_seconds(
        workload.rku_flops_per_stage(),
        workload.rku_bytes_per_stage(),
    );
    (stage + rku) * (RK_STAGES * rk_steps) as f64
}

/// End-to-end CPU time: RK method plus the non-RK share (Fig 2: the RK
/// method is 76.5% of the total ⇒ total = RK / 0.765).
pub fn cpu_end_to_end_seconds(
    workload: &crate::workload::RklWorkload,
    cal: &CpuCalibration,
    rk_steps: usize,
) -> f64 {
    cpu_rk_method_seconds(workload, cal, rk_steps) / (1.0 - NON_RK_FRACTION)
}

/// End-to-end accelerated-system time: FPGA runs the RK method, the host
/// keeps the non-RK phase (unchanged from the CPU run) plus transfers.
pub fn fpga_end_to_end_seconds(
    report: &PerformanceReport,
    workload: &crate::workload::RklWorkload,
    cal: &CpuCalibration,
    rk_steps: usize,
) -> f64 {
    let cpu_total = cpu_end_to_end_seconds(workload, cal, rk_steps);
    let non_rk = cpu_total * NON_RK_FRACTION;
    report.total_seconds + non_rk
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::{paper_design, vitis_baseline_design};
    use crate::workload::RklWorkload;
    use hls_dataflow::sim::simulate;

    fn optimized_proposed(nodes: usize) -> AcceleratorDesign {
        paper_design(&RklWorkload::with_nodes(nodes, 1))
    }

    #[test]
    fn region_network_wires_loads_compute_and_stores() {
        // Unbanked: load → compute → store, with no sink.
        let chain = region_network(&[Region {
            tokens: 10,
            loads: vec![Stage::new("load", 2, 4)],
            compute: vec![Stage::new("compute", 5, 9)],
            stores: vec![Stage::new("store", 1, 3)],
        }])
        .unwrap();
        assert_eq!((chain.tasks().len(), chain.channels().len()), (3, 2));
        assert_eq!(chain.bottleneck_ii(), 5);
        // Banked: each region's stores drain through their banks into
        // the region's sink, and each region keeps its own token count.
        let banked = |name: &str, bank| Stage {
            bank: Some(bank),
            ..Stage::new(name, 1, 2)
        };
        let region = |tokens| Region {
            tokens,
            loads: vec![banked("a", 0), banked("b", 1)],
            compute: vec![Stage::new("compute", 3, 5)],
            stores: vec![banked("s", 0), banked("t", 1)],
        };
        let net = region_network(&[region(4), region(7)]).unwrap();
        assert_eq!((net.tasks().len(), net.channels().len()), (12, 12));
        assert_eq!(
            net.channels().iter().filter(|c| c.bank.is_some()).count(),
            8
        );
        let tokens: Vec<u64> = (0..12).map(|t| net.task_tokens(t)).collect();
        assert_eq!(tokens, [[4; 6], [7; 6]].concat());
        assert!(simulate(&net)
            .unwrap()
            .bank_stats
            .iter()
            .any(|b| b.tokens > 0));
    }

    #[test]
    fn proposed_clocks_faster_than_baseline() {
        let d = optimized_proposed(100_000);
        let b = vitis_baseline_design(&RklWorkload::with_nodes(100_000, 1));
        let rp = estimate_performance(&d).unwrap();
        let rb = estimate_performance(&b).unwrap();
        assert!(
            rp.fmax_mhz > rb.fmax_mhz,
            "proposed {} MHz vs baseline {} MHz",
            rp.fmax_mhz,
            rb.fmax_mhz
        );
    }

    #[test]
    fn fig5_speedup_band() {
        // The headline: proposed ≈ 7.9× faster than the Vitis baseline.
        let nodes = 200_000;
        let d = optimized_proposed(nodes);
        let b = vitis_baseline_design(&RklWorkload::with_nodes(nodes, 1));
        let rp = estimate_performance(&d).unwrap();
        let rb = estimate_performance(&b).unwrap();
        let speedup = rb.rk_method_seconds / rp.rk_method_seconds;
        assert!(
            (4.0..=14.0).contains(&speedup),
            "speedup {speedup:.2} outside the plausible band around the paper's 7.9×"
        );
    }

    #[test]
    fn des_and_analytic_agree_across_the_threshold() {
        // The analytic makespan `estimate_performance` prices the RKL
        // region with tracks the DES of the same network within 5% on
        // the paper's design.
        for nodes in [5_000, 20_000, 50_000] {
            let d = optimized_proposed(nodes);
            let tasks = task_perfs(&d).unwrap();
            let [load, compute, store] = tasks.as_slice() else {
                panic!("the paper's design is one load, one compute, one store: {tasks:?}")
            };
            let net = region_network(&[Region {
                tokens: d.workload.num_elements as u64,
                loads: vec![load.stage()],
                compute: vec![compute.stage()],
                stores: vec![store.stage()],
            }])
            .unwrap();
            let des = simulate(&net).unwrap().makespan as f64;
            let ana = analytic_makespan(&net) as f64;
            let rel = (des - ana).abs() / ana;
            assert!(
                rel < 0.05,
                "{nodes} nodes: DES vs analytic relative gap {rel}"
            );
        }
    }

    #[test]
    fn scaling_is_roughly_linear_in_elements() {
        let t1 = estimate_performance(&optimized_proposed(1_000_000))
            .unwrap()
            .rk_method_seconds;
        let t3 = estimate_performance(&optimized_proposed(3_000_000))
            .unwrap()
            .rk_method_seconds;
        let growth = t3 / t1;
        assert!(
            (2.5..=3.6).contains(&growth),
            "3× nodes should be ≈3× time, got {growth:.2}"
        );
    }

    #[test]
    fn baseline_bottleneck_is_memory() {
        let b = vitis_baseline_design(&RklWorkload::with_nodes(100_000, 1));
        let r = estimate_performance(&b).unwrap();
        // Load and store share `gmem`: one of them must be the bottleneck.
        assert!(
            r.bottleneck.contains("load") || r.bottleneck.contains("store"),
            "baseline bottleneck {}",
            r.bottleneck
        );
    }

    #[test]
    fn proposed_beats_cpu_on_rk_method() {
        let nodes = 1_000_000;
        let d = optimized_proposed(nodes);
        let rp = estimate_performance(&d).unwrap();
        let w = RklWorkload::with_nodes(nodes, 1);
        let cal = CpuCalibration::roofline_default(&w);
        let cpu = cpu_rk_method_seconds(&w, &cal, DEFAULT_RK_STEPS);
        assert!(
            rp.rk_method_seconds < cpu,
            "FPGA {} s vs CPU {} s",
            rp.rk_method_seconds,
            cpu
        );
    }
}

//! The accelerator designs: the paper's proposed architecture and the
//! Vitis-HLS-defaults baseline it is evaluated against.
//!
//! A design is a set of HLS task kernels (built in the `hls-kernel` IR)
//! plus configuration describing the architectural decisions of §III:
//!
//! * **Load-Compute-Store restructuring** into dataflow tasks (§III-A/B),
//! * **merged Diffusion+Convection** compute module (§III-B),
//! * **AXI bundle-per-array** assignment and **decoupled load/store
//!   interfaces** (§III-C),
//! * **SLR split** of RKL and RKU (§III-A),
//! * hand directive tuning (§III-D) vs the automatic Vitis recipe
//!   (§IV-A) — both baselines share the restructured source; the
//!   baseline simply keeps the default single `gmem` bundle, default
//!   partitioning, no URAM binding, and single-SLR placement.

use crate::optimizer::{optimize_design, OptimizerConfig};
use crate::workload::{RklWorkload, INPUT_ARRAYS, OUTPUT_ARRAYS};
use hls_kernel::directives::{apply_vitis_defaults, VitisDefaults};
use hls_kernel::ir::{Kernel, LoopBuilder, OpCount, Partition, StorageKind};
use hls_kernel::ops::{DataType, OpKind};
use hls_kernel::HlsError;

/// Architectural switches of a design (each is one paper optimization;
/// ablations toggle them individually).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignConfig {
    /// Task-level pipelining: Load/Compute/Store run as dataflow tasks
    /// (§III-B). Off = the same tasks execute sequentially per element
    /// (the pure-ILP ablation).
    pub task_level_pipelining: bool,
    /// Hand directive tuning per §III-D. Off = the automatic Vitis
    /// recipe (pipeline innermost loops, unroll/partition small things).
    pub hand_directives: bool,
    /// One `m_axi` bundle per streamed array (§III-C Fig 4). Off = the
    /// single default `gmem` bundle.
    pub bundle_per_array: bool,
    /// Separate read/write interfaces for the RKU update loops
    /// (§III-C). Off = read-modify-write through one interface.
    pub decoupled_update_interfaces: bool,
    /// RKL and RKU placed on different SLRs (§III-A). Off = same SLR.
    pub slr_split: bool,
    /// Diffusion and convection merged into one module (§III-B). Off =
    /// two separate compute modules (duplicated gradient hardware).
    pub merged_diff_conv: bool,
    /// The accumulation-reassociation restructuring that removes the
    /// residual reduction recurrence from the node pipeline.
    pub restructured_accumulation: bool,
    /// Bind large element buffers to URAM (§III-D).
    pub use_uram: bool,
}

impl DesignConfig {
    /// The paper's proposed design: every optimization on.
    pub fn proposed() -> Self {
        DesignConfig {
            task_level_pipelining: true,
            hand_directives: true,
            bundle_per_array: true,
            decoupled_update_interfaces: true,
            slr_split: true,
            merged_diff_conv: true,
            restructured_accumulation: true,
            use_uram: true,
        }
    }

    /// The Vitis-HLS optimized baseline (§IV-A): the same restructured
    /// source, but only the automatic directive recipe — default single
    /// `gmem` bundle, coupled update interfaces, no URAM, both kernels
    /// on one SLR (⇒ the 100 MHz clock of §IV-A).
    pub fn vitis_baseline() -> Self {
        DesignConfig {
            task_level_pipelining: true,
            hand_directives: false,
            bundle_per_array: false,
            decoupled_update_interfaces: false,
            slr_split: false,
            merged_diff_conv: true,
            restructured_accumulation: true,
            use_uram: false,
        }
    }
}

/// Elements buffered on-chip per batch (sizes the URAM-resident field
/// buffers the paper describes in §III-D).
pub const BATCH_ELEMENTS: usize = 512;

/// A complete accelerator design: the RKL task kernels, the RKU kernel,
/// and the configuration that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorDesign {
    /// Human-readable name.
    pub name: String,
    /// Configuration switches.
    pub config: DesignConfig,
    /// The workload it was built for.
    pub workload: RklWorkload,
    /// RKL tasks in pipeline order (Load → Compute… → Store).
    pub rkl_tasks: Vec<Kernel>,
    /// The RKU kernel.
    pub rku: Kernel,
}

fn bundle_name(cfg: &DesignConfig, idx: usize) -> String {
    if cfg.bundle_per_array {
        format!("gmem_{idx}")
    } else {
        "gmem".to_string()
    }
}

/// Builds the Load-Element task: streams the 12 input arrays for each
/// element's nodes from DDR into the on-chip element buffers.
fn build_load_task(w: &RklWorkload, cfg: &DesignConfig) -> Result<Kernel, HlsError> {
    let mut k = Kernel::new("load_element");
    for (i, name) in INPUT_ARRAYS.iter().enumerate() {
        k.add_axi_array(*name, w.num_nodes, DataType::F64, bundle_name(cfg, i))?;
    }
    // On-chip destination buffers (element batch, ping-ponged).
    k.add_array(
        "elem_fields",
        BATCH_ELEMENTS * w.nodes_per_element * 11,
        DataType::F64,
    )?;
    let mut node_loop = LoopBuilder::new("load_nodes", w.nodes_per_element as u64)
        .ops(vec![OpCount::new(OpKind::Logic, DataType::U32, 2)])
        .writes("elem_fields", 11);
    for name in INPUT_ARRAYS {
        node_loop = node_loop.reads(name, 1);
    }
    if cfg.hand_directives {
        node_loop = node_loop.unroll_complete();
        // 11·npe writes per initiation: partition the landing buffer so
        // on-chip ports never bound the AXI-limited II.
        hls_kernel::directives::set_partition(&mut k, "elem_fields", Partition::Cyclic(64))?;
        let elem_loop = LoopBuilder::new("load_elements", w.num_elements as u64)
            .nest(node_loop.build())
            .pipeline(1)
            .build();
        k.push_loop(elem_loop);
    } else {
        let elem_loop = LoopBuilder::new("load_elements", w.num_elements as u64)
            .nest(node_loop.build())
            .build();
        k.push_loop(elem_loop);
    }
    Ok(k)
}

/// Builds the merged (or split) Diffusion & Convection compute task: the
/// fused node pipeline computing gradients, τ, fluxes and the
/// weak-divergence residual contraction for a continuous stream of
/// element nodes.
///
/// `share` scales the op counts when the module is split in two
/// (duplicated gradient/transform hardware makes each part more than
/// half of the merged module).
fn build_compute_task(
    w: &RklWorkload,
    cfg: &DesignConfig,
    name: &str,
    share: f64,
) -> Result<Kernel, HlsError> {
    let mut k = Kernel::new(name);
    let npe = w.nodes_per_element;
    // Element-batch field buffers (inputs) and residual buffers (outputs).
    k.add_array("fields", BATCH_ELEMENTS * npe * 11, DataType::F64)?;
    k.add_array("geom", BATCH_ELEMENTS * npe * 12, DataType::F64)?;
    k.add_array("dmat", (w.order + 1) * (w.order + 1), DataType::F64)?;
    k.add_array("res", BATCH_ELEMENTS * npe * 5, DataType::F64)?;
    if cfg.use_uram {
        // §III-D: "larger matrices that surpass BRAM capacity are stored
        // in the 288KB URAMs" — the geometric-factor buffer is the
        // largest on-chip matrix; the field buffers stay in (partitioned)
        // BRAM for port bandwidth.
        hls_kernel::directives::set_storage(&mut k, "geom", StorageKind::Uram)?;
    }
    // The differentiation matrix is tiny: registers either way (Vitis
    // defaults complete-partition it too).
    hls_kernel::directives::set_partition(&mut k, "dmat", Partition::Complete)?;

    let ops = w.compute_ops;
    let scale = |x: u64| ((x as f64) * share).ceil() as u64;
    // One fused pipeline over every node of every element: the paper's
    // node-granular TLP (2a → 2b → 2c) keeps this pipeline full across
    // element boundaries.
    let total_nodes = (w.num_elements * npe) as u64;
    let mut node_loop = LoopBuilder::new(format!("{name}_nodes"), total_nodes)
        .ops(vec![
            OpCount::new(OpKind::MulAdd, DataType::F64, scale(ops.muladd)),
            OpCount::new(OpKind::Mul, DataType::F64, scale(ops.mul)),
            OpCount::new(OpKind::Add, DataType::F64, scale(ops.add)),
            OpCount::new(OpKind::Div, DataType::F64, scale(ops.div)),
        ])
        // Gradient stencil: each node reads its i/j/k lines of every
        // field (≈ 2 taps × 3 dirs × 4 fields) plus its own payload.
        .reads("fields", 24)
        .reads("geom", 12)
        .reads("dmat", 6)
        .writes("res", 5)
        .pipeline(1);
    if !cfg.restructured_accumulation {
        // Unrestructured code accumulates residuals through an f64 adder
        // chain carried across node iterations.
        let fadd = hls_kernel::ops::op_profile(OpKind::Add, DataType::F64).latency;
        node_loop = node_loop.carried_dep(fadd, 1, "residual accumulation");
    }
    k.push_loop(node_loop.build());
    Ok(k)
}

/// Builds the Store-Element-Contribution task: writes the five residual
/// arrays back to DDR.
fn build_store_task(w: &RklWorkload, cfg: &DesignConfig) -> Result<Kernel, HlsError> {
    let mut k = Kernel::new("store_element");
    for (i, name) in OUTPUT_ARRAYS.iter().enumerate() {
        let bundle = if cfg.bundle_per_array {
            format!("gmem_{}", INPUT_ARRAYS.len() + i)
        } else {
            "gmem".to_string()
        };
        k.add_axi_array(*name, w.num_nodes, DataType::F64, bundle)?;
    }
    k.add_array(
        "res",
        BATCH_ELEMENTS * w.nodes_per_element * 5,
        DataType::F64,
    )?;
    let mut node_loop = LoopBuilder::new("store_nodes", w.nodes_per_element as u64)
        .ops(vec![OpCount::new(OpKind::Logic, DataType::U32, 2)])
        .reads("res", 5);
    for name in OUTPUT_ARRAYS {
        node_loop = node_loop.writes(name, 1);
    }
    if cfg.hand_directives {
        node_loop = node_loop.unroll_complete();
        hls_kernel::directives::set_partition(&mut k, "res", Partition::Cyclic(32))?;
        let elem_loop = LoopBuilder::new("store_elements", w.num_elements as u64)
            .nest(node_loop.build())
            .pipeline(1)
            .build();
        k.push_loop(elem_loop);
    } else {
        let elem_loop = LoopBuilder::new("store_elements", w.num_elements as u64)
            .nest(node_loop.build())
            .build();
        k.push_loop(elem_loop);
    }
    Ok(k)
}

/// Builds the RKU kernel: the per-node update `x[i] ← f(x[i], k[i])`
/// sweep re-evaluating ρ, u, T, E, p (§III-A).
fn build_rku(w: &RklWorkload, cfg: &DesignConfig) -> Result<Kernel, HlsError> {
    let mut k = Kernel::new("rku");
    let mut lb = LoopBuilder::new("rku_nodes", w.num_nodes as u64).ops(vec![
        OpCount::new(OpKind::MulAdd, DataType::F64, 5),
        OpCount::new(OpKind::Mul, DataType::F64, 4),
        OpCount::new(OpKind::Add, DataType::F64, 3),
        OpCount::new(OpKind::Div, DataType::F64, 2),
    ]);
    if cfg.decoupled_update_interfaces {
        // Dedicated read-side and write-side pointers on separate bundles.
        for i in 0..5 {
            k.add_axi_array(
                format!("u_rd_{i}"),
                w.num_nodes,
                DataType::F64,
                format!("gmem_{i}"),
            )?;
            k.add_axi_array(
                format!("k_rd_{i}"),
                w.num_nodes,
                DataType::F64,
                format!("gmem_{}", 5 + i),
            )?;
            k.add_axi_array(
                format!("u_wr_{i}"),
                w.num_nodes,
                DataType::F64,
                format!("gmem_{}", 10 + i),
            )?;
            lb = lb
                .reads(format!("u_rd_{i}"), 1)
                .reads(format!("k_rd_{i}"), 1)
                .writes(format!("u_wr_{i}"), 1);
        }
    } else {
        // Vitis default: every pointer through `gmem`; the conserved
        // arrays are read *and* written through the same interface.
        for i in 0..5 {
            k.add_axi_array(format!("u_{i}"), w.num_nodes, DataType::F64, "gmem")?;
            k.add_axi_array(format!("k_{i}"), w.num_nodes, DataType::F64, "gmem")?;
            lb = lb
                .reads(format!("u_{i}"), 1)
                .writes(format!("u_{i}"), 1)
                .reads(format!("k_{i}"), 1);
        }
    }
    if cfg.hand_directives {
        lb = lb.pipeline(1);
        k.push_loop(lb.build());
    } else {
        k.push_loop(lb.build());
    }
    Ok(k)
}

/// Builds a complete design for `workload` under `config`.
///
/// # Errors
///
/// Propagates IR construction errors (cannot occur for valid workloads).
pub fn build_design(
    name: impl Into<String>,
    workload: &RklWorkload,
    config: DesignConfig,
) -> Result<AcceleratorDesign, HlsError> {
    let mut rkl_tasks = vec![build_load_task(workload, &config)?];
    if config.merged_diff_conv {
        rkl_tasks.push(build_compute_task(workload, &config, "diff_conv", 1.0)?);
    } else {
        // Split modules duplicate the shared gradient/transform stages:
        // each side carries ~65% of the merged op count.
        rkl_tasks.push(build_compute_task(workload, &config, "diffusion", 0.65)?);
        rkl_tasks.push(build_compute_task(workload, &config, "convection", 0.65)?);
    }
    rkl_tasks.push(build_store_task(workload, &config)?);
    let mut design = AcceleratorDesign {
        name: name.into(),
        config,
        workload: workload.clone(),
        rku: build_rku(workload, &config)?,
        rkl_tasks,
    };
    if !config.hand_directives {
        // Automatic recipe on the undirected loops.
        for k in design.rkl_tasks.iter_mut() {
            apply_vitis_defaults(k, VitisDefaults::default());
        }
        apply_vitis_defaults(&mut design.rku, VitisDefaults::default());
    }
    Ok(design)
}

/// Convenience: the proposed design.
pub fn proposed_design(workload: &RklWorkload) -> AcceleratorDesign {
    build_design("proposed", workload, DesignConfig::proposed()).expect("valid workload")
}

/// The paper's design for `workload`: the proposed design after the
/// §III-D directive optimizer on one U200 SLR.
///
/// # Panics
///
/// Panics if the optimizer fails to schedule a task (cannot occur for
/// [`proposed_design`]'s kernels).
pub fn paper_design(workload: &RklWorkload) -> AcceleratorDesign {
    let mut design = proposed_design(workload);
    optimize_design(&mut design, &OptimizerConfig::for_u200_slr())
        .expect("the proposed design schedules");
    design
}

/// Convenience: the Vitis baseline design.
pub fn vitis_baseline_design(workload: &RklWorkload) -> AcceleratorDesign {
    build_design("vitis-optimized", workload, DesignConfig::vitis_baseline())
        .expect("valid workload")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_kernel::schedule::schedule_kernel;

    fn workload() -> RklWorkload {
        RklWorkload::with_nodes(100_000, 1)
    }

    #[test]
    fn proposed_design_builds_and_schedules() {
        let d = proposed_design(&workload());
        assert_eq!(d.rkl_tasks.len(), 3);
        for k in &d.rkl_tasks {
            schedule_kernel(k).unwrap();
        }
        schedule_kernel(&d.rku).unwrap();
    }

    #[test]
    fn baseline_design_builds_and_schedules() {
        let d = vitis_baseline_design(&workload());
        for k in &d.rkl_tasks {
            schedule_kernel(k).unwrap();
        }
        schedule_kernel(&d.rku).unwrap();
    }

    #[test]
    fn bundle_per_array_creates_bundles() {
        let d = proposed_design(&workload());
        let load = &d.rkl_tasks[0];
        assert_eq!(load.bundles().len(), INPUT_ARRAYS.len());
        let b = vitis_baseline_design(&workload());
        assert_eq!(b.rkl_tasks[0].bundles().len(), 1);
    }

    #[test]
    fn load_ii_reflects_bundle_contention() {
        let w = workload();
        let proposed = proposed_design(&w);
        let ii = schedule_kernel(&proposed.rkl_tasks[0])
            .unwrap()
            .loop_schedule("load_elements")
            .unwrap()
            .ii
            .unwrap();
        // Proposed: 8 beats per element per bundle.
        assert_eq!(ii, 8);
        // Baseline: node loop pipelined, 12 arrays share one bundle.
        let baseline = vitis_baseline_design(&w);
        let s = schedule_kernel(&baseline.rkl_tasks[0]).unwrap();
        let ii_node = s.loop_schedule("load_nodes").unwrap().ii.unwrap();
        assert!(
            ii_node >= 12,
            "baseline per-node load II {ii_node} must serialize 12 arrays"
        );
    }

    #[test]
    fn rku_decoupling_removes_rmw_recurrence() {
        let w = workload();
        let proposed = proposed_design(&w);
        let baseline = vitis_baseline_design(&w);
        let ii_p = schedule_kernel(&proposed.rku)
            .unwrap()
            .loop_schedule("rku_nodes")
            .unwrap()
            .ii
            .unwrap();
        let ii_b = schedule_kernel(&baseline.rku)
            .unwrap()
            .loop_schedule("rku_nodes")
            .unwrap()
            .ii
            .unwrap();
        assert!(
            ii_b >= hls_kernel::ops::AXI_READ_LATENCY,
            "baseline RKU II {ii_b} should carry the RMW recurrence"
        );
        assert!(ii_p <= 3, "decoupled RKU II {ii_p} should be small");
    }

    #[test]
    fn unmerged_compute_costs_more_hardware() {
        let w = workload();
        let merged = proposed_design(&w);
        let mut cfg = DesignConfig::proposed();
        cfg.merged_diff_conv = false;
        let split = build_design("split", &w, cfg).unwrap();
        assert_eq!(split.rkl_tasks.len(), 4);
        let res = |d: &AcceleratorDesign| {
            d.rkl_tasks
                .iter()
                .map(|k| {
                    let s = schedule_kernel(k).unwrap();
                    hls_kernel::resources::estimate_resources(k, &s)
                })
                .fold(hls_kernel::resources::ResourceUsage::ZERO, |a, b| a + b)
        };
        let r_merged = res(&merged);
        let r_split = res(&split);
        assert!(
            r_split.dsp > r_merged.dsp,
            "split {} vs merged {} DSPs",
            r_split.dsp,
            r_merged.dsp
        );
    }

    #[test]
    fn unrestructured_compute_carries_recurrence() {
        let w = workload();
        let mut cfg = DesignConfig::proposed();
        cfg.restructured_accumulation = false;
        let d = build_design("no-restructure", &w, cfg).unwrap();
        let s = schedule_kernel(&d.rkl_tasks[1]).unwrap();
        let ii = s.loop_schedule("diff_conv_nodes").unwrap().ii.unwrap();
        assert!(ii >= 7, "accumulation recurrence should bound II, got {ii}");
    }

    #[test]
    fn compute_pipeline_is_fused_across_elements() {
        let w = workload();
        let d = proposed_design(&w);
        let s = schedule_kernel(&d.rkl_tasks[1]).unwrap();
        let nodes = s.loop_schedule("diff_conv_nodes").unwrap();
        assert_eq!(
            nodes.effective_trips,
            (w.num_elements * w.nodes_per_element) as u64
        );
    }
}

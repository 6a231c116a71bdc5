//! The paper's contribution: the dataflow-optimized FEM CFD accelerator.
//!
//! This crate assembles everything below it into the system of
//! *Dataflow Optimized Reconfigurable Acceleration for FEM-based CFD
//! Simulations* (DATE 2025):
//!
//! * [`workload`] — sizes and op counts of the RKL/RKU computation.
//! * [`designs`] — the proposed accelerator (Load-Compute-Store tasks,
//!   merged Diffusion+Convection, bundle-per-array AXI, decoupled update
//!   interfaces, SLR split) and the Vitis-defaults baseline.
//! * [`optimizer`] — the §III-D iterative directive optimizer: always
//!   improve the most latency-critical task until dependencies or the
//!   resource budget stop progress.
//! * [`perf`] — end-to-end performance estimation: HLS schedules → task
//!   IIs → analytic dataflow makespan (validated against the DES by
//!   test) → seconds at the achievable clock, plus DDR, PCIe and
//!   CPU-baseline times.
//! * [`emulation`] — the solver's shard plans mapped onto the hardware:
//!   the per-shard Load → Compute → Store DES and the banked-memory DES,
//!   as plain functions of a [`fem_mesh::partition::ShardPlan`].
//! * [`functional`] — the Load → Compute → Store task decomposition as a
//!   plain per-element loop, and proof that it computes exactly what the
//!   reference solver computes.
//! * [`experiments`] — drivers that regenerate Fig 2, Fig 5, Table I, the
//!   §IV-B comparison, and the ablation studies.
//! * [`calibration`] — every constant tying model cycles/watts to
//!   seconds/watts, with provenance.

#![deny(missing_docs)]

pub mod calibration;
pub mod designs;
pub mod emulation;
pub mod experiments;
pub mod functional;
pub mod optimizer;
pub mod perf;
pub mod report;
pub mod scaling;
pub mod workload;

pub use designs::{
    build_design, paper_design, proposed_design, vitis_baseline_design, AcceleratorDesign,
    DesignConfig,
};
pub use optimizer::{optimize_design, OptStep, OptimizerConfig};
pub use perf::{estimate_performance, PerformanceReport};
pub use workload::RklWorkload;

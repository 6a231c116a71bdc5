//! Calibration constants and paper reference values.
//!
//! Everything that ties the *dimensionless* model outputs (cycles, op
//! counts, resource vectors) to *reported physical numbers* lives here,
//! with provenance. The reproduction philosophy (DESIGN.md §5): shapes —
//! who wins, by what factor, where growth kinks — emerge from the models;
//! these constants pin absolute scale and provide the paper's reported
//! values for side-by-side tables.

/// Fig 2 reference breakdown: RK(Diffusion), RK(Convection), RK(Other),
/// Non-RK, in percent.
pub const PAPER_FIG2_BREAKDOWN: [f64; 4] = [39.2, 21.04, 16.13, 23.63];

/// Fig 2 companion statement: the RK method averages 76.5% of total
/// execution time.
pub const PAPER_RK_FRACTION_PERCENT: f64 = 76.5;

/// Fig 5 headline: average speedup of the proposed design over the
/// Vitis-HLS optimized design.
pub const PAPER_FIG5_AVG_SPEEDUP: f64 = 7.9;

/// Fig 5 scaling statement: execution time grows 3.4× from the 1.4M-node
/// mesh to the 4.2M-node mesh (for both designs).
pub const PAPER_FIG5_GROWTH_1P4M_TO_4P2M: f64 = 3.4;

/// §IV-A clock frequencies: proposed vs Vitis-optimized.
pub const PAPER_FMAX_PROPOSED_MHZ: f64 = 150.0;
/// §IV-A baseline clock.
pub const PAPER_FMAX_VITIS_MHZ: f64 = 100.0;

/// Table I reference utilization (FF%, LUT%, BRAM%, URAM%, DSP%).
pub const PAPER_TABLE1_VITIS: [f64; 5] = [17.19, 27.68, 22.96, 0.73, 9.17];
/// Table I proposed-design row.
pub const PAPER_TABLE1_PROPOSED: [f64; 5] = [25.29, 41.15, 43.98, 11.77, 18.23];

/// §IV-B: end-to-end latency reduction vs the Xeon Silver 4210 at 4.2M
/// nodes (45%).
pub const PAPER_CPU_LATENCY_REDUCTION: f64 = 0.45;

/// §IV-B power: CPU average package power (W).
pub const PAPER_CPU_POWER_W: f64 = 120.42;
/// §IV-B power: FPGA core application (W).
pub const PAPER_FPGA_CORE_W: f64 = 32.4;
/// §IV-B power: FPGA peripherals (W).
pub const PAPER_FPGA_PERIPHERALS_W: f64 = 30.7;
/// §IV-B power: rest of the system (W).
pub const PAPER_FPGA_REST_W: f64 = 1.7;
/// §IV-B headline power ratio (CPU / FPGA), as reported.
pub const PAPER_POWER_RATIO: f64 = 3.64;

/// RK4 steps assumed for absolute execution times (the paper does not
/// state its step count; Fig 5's shape is step-count invariant).
pub const DEFAULT_RK_STEPS: usize = 20;

/// RK4 stages per step.
pub const RK_STAGES: usize = 4;

/// Fraction of CPU execution time outside the RK method (Fig 2:
/// Non-RK = 23.63%); the host keeps running this part in the
/// accelerated system (§III: "The remaining computations are handled by
/// the host CPU").
pub const NON_RK_FRACTION: f64 = 0.2363;

/// Calibration of the CPU baseline's per-element cost.
///
/// It comes from the roofline model of the paper's Xeon Silver 4210
/// ([`CpuCalibration::roofline_default`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuCalibration {
    /// Seconds per element per RK stage (RKL work).
    pub seconds_per_element_stage: f64,
}

impl CpuCalibration {
    /// Roofline-derived default for the Xeon Silver 4210 on order-1
    /// elements.
    pub fn roofline_default(workload: &crate::workload::RklWorkload) -> Self {
        let cpu = fpga_platform::cpu::CpuModel::xeon_silver_4210();
        let per_elem_flops = workload.rkl_flops_per_stage() / workload.num_elements.max(1) as u64;
        let per_elem_bytes = workload.bytes_in_per_element() + workload.bytes_out_per_element();
        CpuCalibration {
            seconds_per_element_stage: cpu.time_seconds(per_elem_flops, per_elem_bytes),
        }
    }

    /// CPU time of one full RK stage (RKL sweep) for `num_elements`.
    pub fn stage_seconds(&self, num_elements: usize) -> f64 {
        self.seconds_per_element_stage * num_elements as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::RklWorkload;

    #[test]
    fn paper_constants_are_internally_consistent() {
        let rk: f64 = PAPER_FIG2_BREAKDOWN[..3].iter().sum();
        assert!((rk - PAPER_RK_FRACTION_PERCENT).abs() < 0.5);
        let total: f64 = PAPER_FIG2_BREAKDOWN.iter().sum();
        assert!((total - 100.0).abs() < 0.1);
        // The reported power ratio sits between core-only and
        // core+rest+peripheral interpretations.
        let core_only = PAPER_CPU_POWER_W / PAPER_FPGA_CORE_W;
        let with_everything =
            PAPER_CPU_POWER_W / (PAPER_FPGA_CORE_W + PAPER_FPGA_PERIPHERALS_W + PAPER_FPGA_REST_W);
        assert!(PAPER_POWER_RATIO < core_only);
        assert!(PAPER_POWER_RATIO > with_everything);
    }

    #[test]
    fn roofline_default_is_sub_microsecond_per_element() {
        let w = RklWorkload::with_nodes(1_000_000, 1);
        let cal = CpuCalibration::roofline_default(&w);
        assert!(
            cal.seconds_per_element_stage > 1e-8 && cal.seconds_per_element_stage < 1e-5,
            "{}",
            cal.seconds_per_element_stage
        );
    }
}

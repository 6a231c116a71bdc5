//! Future-work scaling study: multiple RKL compute units across SLRs.
//!
//! The paper closes with "paving the way for tackling even more
//! challenging CFD simulations"; the natural next step on a U200 is to
//! replicate the RKL pipeline per SLR and split the element stream. This
//! module models that design point: per-unit workload sharding, SLR
//! placements (one RKL per SLR, RKU co-located with the last), the
//! congestion/SLL clock implications, and the DDR ceiling shared by all
//! units.

use crate::designs::{paper_design, AcceleratorDesign};
use crate::optimizer::region_resources;
use crate::perf::estimate_performance;
use crate::workload::RklWorkload;
use fpga_platform::fmax::achievable_fmax_mhz;
use fpga_platform::u200::{Placement, SlrId, U200};
use hls_kernel::resources::estimate_resources;
use hls_kernel::schedule::schedule_kernel;
use serde::Serialize;

/// One design point of the scaling study.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingPoint {
    /// RKL compute units instantiated (1..=3, one per SLR).
    pub compute_units: usize,
    /// Achieved kernel clock (MHz).
    pub fmax_mhz: f64,
    /// RK-method seconds for the full run.
    pub rk_method_seconds: f64,
    /// Speedup vs the single-unit proposed design.
    pub speedup_vs_single: f64,
    /// Total DSP cost.
    pub dsp: u64,
    /// Whether the DDR bandwidth ceiling (not compute) set the rate.
    pub ddr_bound: bool,
}

/// The full study result.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingStudy {
    /// Mesh nodes.
    pub nodes: usize,
    /// Design points for 1..=max_units compute units.
    pub points: Vec<ScalingPoint>,
}

/// Builds one optimized RKL unit for a shard of the workload.
fn optimized_shard(nodes: usize, units: usize) -> AcceleratorDesign {
    paper_design(&RklWorkload::with_nodes(nodes / units, 1))
}

/// Runs the scaling study at `nodes` mesh nodes for 1..=`max_units`
/// compute units (capped at the 3 SLRs of the U200).
///
/// # Errors
///
/// Propagates estimation failures.
pub fn run_scaling_study(
    nodes: usize,
    max_units: usize,
) -> Result<ScalingStudy, Box<dyn std::error::Error>> {
    let device = U200::new();
    let mut points = Vec::new();
    let mut single_time = None;
    for units in 1..=max_units.min(3) {
        let shard = optimized_shard(nodes, units);
        let shard_perf = estimate_performance(&shard)?;

        // Placement: prefer the shell-free SLRs (0 and 2) for RKL units,
        // give RKU a free SLR while one exists, and only co-locate it
        // when all three SLRs carry compute units.
        let rkl_res = region_resources(&shard)?;
        let rku_sched = schedule_kernel(&shard.rku)?;
        let rku_res = estimate_resources(&shard.rku, &rku_sched);
        let rkl_slrs: &[SlrId] = match units {
            1 => &[SlrId::Slr0],
            2 => &[SlrId::Slr0, SlrId::Slr2],
            _ => &[SlrId::Slr0, SlrId::Slr2, SlrId::Slr1],
        };
        let rku_slr = match units {
            1 => SlrId::Slr2,
            2 => SlrId::Slr1,
            _ => SlrId::Slr2, // co-located: no SLR left
        };
        let mut placements: Vec<Placement> = rkl_slrs
            .iter()
            .enumerate()
            .map(|(i, &slr)| Placement {
                kernel: format!("RKL{i}"),
                slr,
                usage: rkl_res,
            })
            .collect();
        placements.push(Placement {
            kernel: "RKU".into(),
            slr: rku_slr,
            usage: rku_res,
        });
        let fmax = achievable_fmax_mhz(&device, &placements, true);

        // Per-stage kernel time: the shard's cycle count at the new clock.
        let shard_cycles = shard_perf.rkl_cycles_per_stage + shard_perf.rku_cycles_per_stage;
        let kernel_seconds = shard_cycles as f64 / (fmax * 1.0e6);
        // DDR ceiling: all units share the memory system's banks.
        let w_total = RklWorkload::with_nodes(nodes, 1);
        let total_bytes = w_total.rkl_bytes_per_stage() + w_total.rku_bytes_per_stage();
        let ddr_seconds = total_bytes as f64
            / (device.memory_system().total_peak_bw() * fpga_platform::axi::DDR_EFFICIENCY);
        let stage_seconds = kernel_seconds.max(ddr_seconds);
        let rk_method_seconds = stage_seconds
            * crate::calibration::RK_STAGES as f64
            * crate::calibration::DEFAULT_RK_STEPS as f64;
        let single = *single_time.get_or_insert(rk_method_seconds);
        points.push(ScalingPoint {
            compute_units: units,
            fmax_mhz: fmax,
            rk_method_seconds,
            speedup_vs_single: single / rk_method_seconds,
            dsp: (rkl_res.dsp * units as u64) + rku_res.dsp,
            ddr_bound: ddr_seconds > kernel_seconds,
        });
    }
    Ok(ScalingStudy { nodes, points })
}

impl std::fmt::Display for ScalingStudy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Future-work scaling: RKL compute units across SLRs ({} nodes)",
            self.nodes
        )?;
        writeln!(
            f,
            "{:>6} {:>8} {:>14} {:>10} {:>8} {:>10}",
            "units", "fmax", "RK time [s]", "speedup", "DSP", "DDR-bound"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>6} {:>6.0}MHz {:>14.3} {:>9.2}× {:>8} {:>10}",
                p.compute_units,
                p.fmax_mhz,
                p.rk_method_seconds,
                p.speedup_vs_single,
                p.dsp,
                if p.ddr_bound { "yes" } else { "no" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_units_scale_well_and_cost_hardware() {
        let study = run_scaling_study(2_000_000, 3).unwrap();
        assert_eq!(study.points.len(), 3);
        let s2 = study.points[1].speedup_vs_single;
        assert!((1.7..=2.1).contains(&s2), "2-unit speedup {s2:.2}");
        // Hardware cost grows with units.
        assert!(study.points[2].dsp > study.points[0].dsp);
        // Single-unit point is consistent with the Fig 5 clock.
        assert_eq!(study.points[0].fmax_mhz, 150.0);
    }

    #[test]
    fn third_unit_pays_a_clock_penalty() {
        // With all three SLRs occupied, RKU co-location and the shell SLR
        // cost clock speed — the study's design finding: the third unit
        // buys less than the second.
        let study = run_scaling_study(4_200_000, 3).unwrap();
        let s2 = study.points[1].speedup_vs_single;
        let s3 = study.points[2].speedup_vs_single;
        assert!(study.points[2].fmax_mhz < study.points[0].fmax_mhz);
        assert!(
            s3 - s2 < s2 - 1.0,
            "third unit should add less than the second ({s2:.2} → {s3:.2})"
        );
        assert!(s3 >= 1.0, "3 units must not lose to 1 ({s3:.2})");
    }

    #[test]
    fn display_lists_every_point() {
        let study = run_scaling_study(500_000, 2).unwrap();
        let s = format!("{study}");
        assert!(s.contains("units"));
        assert!(s.lines().count() >= 4);
    }
}

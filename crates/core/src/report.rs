//! The full design report: everything a reviewer needs about one
//! accelerator configuration on one page — schedules, resources,
//! placement, clock, power, DDR demand, and the generated HLS C++.

use crate::designs::AcceleratorDesign;
use crate::perf::{estimate_performance, PerformanceReport};
use fpga_platform::power::{FpgaPowerBreakdown, FpgaPowerModel};
use fpga_platform::u200::U200;
use hls_kernel::report::{comparison_table, KernelReport};
use std::fmt::Write as _;

/// A complete design review document.
#[derive(Debug, Clone)]
pub struct DesignReport {
    /// Design name.
    pub name: String,
    /// Per-task synthesis-style reports (RKL tasks then RKU).
    pub kernels: Vec<KernelReport>,
    /// Performance estimate.
    pub performance: PerformanceReport,
    /// Power breakdown at the achieved clock.
    pub power: FpgaPowerBreakdown,
    /// Utilization percentages (FF/LUT/BRAM/URAM/DSP).
    pub utilization: [f64; 5],
}

impl DesignReport {
    /// Assembles the report for `design`.
    ///
    /// # Errors
    ///
    /// Propagates scheduling/estimation failures.
    pub fn generate(
        design: &AcceleratorDesign,
    ) -> Result<DesignReport, Box<dyn std::error::Error>> {
        let mut kernels = Vec::new();
        for k in &design.rkl_tasks {
            kernels.push(KernelReport::generate(k)?);
        }
        kernels.push(KernelReport::generate(&design.rku)?);
        let performance = estimate_performance(design)?;
        let power =
            FpgaPowerModel::default().breakdown(&performance.resources, performance.fmax_mhz, 4);
        let device = U200::new();
        let u = device.utilization_percent(&performance.resources);
        Ok(DesignReport {
            name: design.name.clone(),
            kernels,
            performance,
            power,
            utilization: [u.ff, u.lut, u.bram, u.uram, u.dsp],
        })
    }

    /// Renders the full text document, optionally appending the
    /// generated HLS C++ of every task.
    pub fn render(&self, design: &AcceleratorDesign, with_code: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "==================================================");
        let _ = writeln!(out, " design report: {}", self.name);
        let _ = writeln!(out, "==================================================");
        let _ = writeln!(out, "\n-- kernels --");
        out.push_str(&comparison_table(&self.kernels));
        let _ = writeln!(out, "\n-- per-loop schedules --");
        for k in &self.kernels {
            let _ = writeln!(out, "{k}");
        }
        let _ = writeln!(out, "\n-- performance --");
        let p = &self.performance;
        let _ = writeln!(
            out,
            "clock: {:.0} MHz | bottleneck: {}",
            p.fmax_mhz, p.bottleneck
        );
        for t in &p.tasks {
            let _ = writeln!(
                out,
                "  {:<16} {:>5} cycles/element ({} after interconnect contention)",
                t.name, t.cycles_per_element, t.effective_cycles_per_element
            );
        }
        let _ = writeln!(
            out,
            "stage {:.4e} s | step {:.4e} s | RK method {:.3} s",
            p.stage_seconds, p.step_seconds, p.rk_method_seconds
        );
        let _ = writeln!(out, "\n-- utilization (FF/LUT/BRAM/URAM/DSP %) --");
        let _ = writeln!(
            out,
            "{:.2} / {:.2} / {:.2} / {:.2} / {:.2}",
            self.utilization[0],
            self.utilization[1],
            self.utilization[2],
            self.utilization[3],
            self.utilization[4]
        );
        let _ = writeln!(out, "\n-- power --\n{}", self.power);
        if with_code {
            let _ = writeln!(out, "\n-- generated HLS C++ --");
            for k in &design.rkl_tasks {
                out.push_str(&hls_kernel::codegen::emit_cpp(k));
                out.push('\n');
            }
            out.push_str(&hls_kernel::codegen::emit_cpp(&design.rku));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::{paper_design, vitis_baseline_design};
    use crate::workload::RklWorkload;

    #[test]
    fn report_has_all_sections() {
        let d = paper_design(&RklWorkload::with_nodes(100_000, 1));
        let r = DesignReport::generate(&d).unwrap();
        let text = r.render(&d, true);
        for needle in [
            "design report: proposed",
            "-- kernels --",
            "-- per-loop schedules --",
            "-- performance --",
            "-- utilization",
            "-- power --",
            "-- generated HLS C++ --",
            "void load_element(",
            "void diff_conv(",
            "void store_element(",
            "void rku(",
            "pragma HLS pipeline",
        ] {
            assert!(text.contains(needle), "missing `{needle}`");
        }
        // 3 RKL tasks + RKU.
        assert_eq!(r.kernels.len(), 4);
    }

    #[test]
    fn baseline_report_shows_single_bundle() {
        let w = RklWorkload::with_nodes(50_000, 1);
        let d = vitis_baseline_design(&w);
        let r = DesignReport::generate(&d).unwrap();
        let text = r.render(&d, true);
        assert!(text.contains("bundle=gmem port="));
        assert!(!text.contains("bundle=gmem_0"));
    }
}

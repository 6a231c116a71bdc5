//! Integration: the headline claims of the paper hold in the
//! reproduction, within the documented tolerance bands (EXPERIMENTS.md).

use fem_cfd_accel::accel::experiments::{
    run_ablations, run_fig2, run_fig5, run_table1, run_table2,
};

#[test]
fn fig2_diffusion_dominates_and_rk_is_the_bulk() {
    let r = run_fig2(&[10], 2).unwrap();
    // Shape: diffusion > convection; RK method > 50% of runtime.
    assert!(r.average_percent[0] > r.average_percent[1]);
    assert!(r.rows[0].rk_fraction_percent > 50.0);
    let sum: f64 = r.average_percent.iter().sum();
    assert!((sum - 100.0).abs() < 1e-9);
}

#[test]
fn fig5_headline_speedup_and_clocks() {
    let r = run_fig5().unwrap();
    // Average speedup in the paper's neighbourhood (7.9×).
    assert!(
        (5.0..=11.0).contains(&r.avg_speedup),
        "avg speedup {:.2}",
        r.avg_speedup
    );
    for row in &r.rows {
        // Proposed wins at every size, with the 150 vs 100 MHz clocks.
        assert!(row.speedup > 3.0, "{}: {:.2}", row.label, row.speedup);
        assert_eq!(row.proposed_fmax, 150.0, "{}", row.label);
        assert_eq!(row.vitis_fmax, 100.0, "{}", row.label);
    }
    // Monotone scaling in mesh size for both designs.
    for pair in r.rows.windows(2) {
        assert!(pair[1].proposed_seconds > pair[0].proposed_seconds);
        assert!(pair[1].vitis_seconds > pair[0].vitis_seconds);
    }
}

#[test]
fn table1_proposed_outspends_baseline_like_the_paper() {
    let r = run_table1().unwrap();
    let p = r.proposed.utilization_percent;
    let v = r.vitis.utilization_percent;
    // FF, LUT, URAM, DSP: proposed ≥ baseline (paper: 1.5×, 1.5×, 16.8×,
    // 1.9×).
    for i in [0usize, 1, 3, 4] {
        assert!(p[i] >= v[i], "column {i}: {:.2} < {:.2}", p[i], v[i]);
    }
    // Clock gap.
    assert!(r.proposed.fmax_mhz >= r.vitis.fmax_mhz + 25.0);
}

#[test]
fn table2_latency_and_power_bands() {
    let r = run_table2(4_200_000).unwrap();
    assert!(
        (0.30..=0.70).contains(&r.latency_reduction),
        "latency reduction {:.3} (paper 0.45)",
        r.latency_reduction
    );
    // FPGA total power well below the CPU's.
    let fpga_total = r.fpga_core_w + r.fpga_peripherals_w + r.fpga_rest_w;
    assert!(fpga_total < r.cpu_power_w);
    // The paper's 3.64× is bracketed by our two denominators.
    assert!(r.power_ratio_total <= r.paper_power_ratio + 0.5);
    assert!(r.paper_power_ratio <= r.power_ratio_core_rest + 0.5);
}

#[test]
fn every_ablated_optimization_contributes() {
    let r = run_ablations(150_000).unwrap();
    let full = &r.rows[0];
    assert_eq!(full.slowdown_vs_proposed, 1.0);
    for row in &r.rows[1..] {
        assert!(
            row.slowdown_vs_proposed >= 1.0,
            "{} unexpectedly faster ({:.2}×)",
            row.name,
            row.slowdown_vs_proposed
        );
    }
    // The big levers of the paper: TLP and AXI bundling.
    let tlp = r
        .rows
        .iter()
        .find(|x| x.name.contains("task-level"))
        .unwrap();
    let axi = r.rows.iter().find(|x| x.name.contains("AXI")).unwrap();
    assert!(tlp.slowdown_vs_proposed > 1.2);
    assert!(axi.slowdown_vs_proposed > 1.5);
}

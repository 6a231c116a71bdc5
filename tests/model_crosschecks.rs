//! Integration: the performance models cross-validate each other — the
//! discrete-event simulator against the analytic steady-state formula on
//! the *actual* accelerator networks, and the HLS schedule consistency
//! between design variants.

use fem_cfd_accel::accel::designs::{paper_design, proposed_design, vitis_baseline_design};
use fem_cfd_accel::accel::optimizer::{optimize_design, OptimizerConfig};
use fem_cfd_accel::accel::perf::{estimate_performance, region_network, task_perfs, Region};
use fem_cfd_accel::accel::workload::RklWorkload;
use fem_cfd_accel::dataflow::analytic::analytic_makespan;
use fem_cfd_accel::dataflow::sim::simulate;
use fem_cfd_accel::hls::schedule::schedule_kernel;

#[test]
fn des_matches_analytic_on_real_designs_at_multiple_sizes() {
    for nodes in [5_000usize, 20_000, 50_000] {
        let d = paper_design(&RklWorkload::with_nodes(nodes, 1));
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
        assert!(rel < 0.05, "{nodes} nodes: DES/analytic gap {rel:.3}");
    }
}

#[test]
fn task_iis_are_schedule_consistent() {
    let d = paper_design(&RklWorkload::with_nodes(100_000, 1));
    let perf = estimate_performance(&d).unwrap();
    // Every task's effective per-element cost is at least its scheduled
    // cost (contention can only add).
    for t in &perf.tasks {
        assert!(t.effective_cycles_per_element >= t.cycles_per_element);
    }
    // The bottleneck really is the max.
    let max = perf
        .tasks
        .iter()
        .map(|t| t.effective_cycles_per_element)
        .max()
        .unwrap();
    let named = perf
        .tasks
        .iter()
        .find(|t| t.name == perf.bottleneck)
        .unwrap();
    assert_eq!(named.effective_cycles_per_element, max);
}

#[test]
fn baseline_never_beats_proposed_anywhere() {
    for nodes in [10_000usize, 500_000, 2_000_000] {
        let w = RklWorkload::with_nodes(nodes, 1);
        let p = paper_design(&w);
        let b = vitis_baseline_design(&w);
        let rp = estimate_performance(&p).unwrap();
        let rb = estimate_performance(&b).unwrap();
        assert!(
            rp.rk_method_seconds < rb.rk_method_seconds,
            "{nodes} nodes: proposed {} ≥ baseline {}",
            rp.rk_method_seconds,
            rb.rk_method_seconds
        );
    }
}

#[test]
fn schedules_are_deterministic() {
    let w = RklWorkload::with_nodes(123_456, 1);
    let d1 = proposed_design(&w);
    let d2 = proposed_design(&w);
    for (a, b) in d1.rkl_tasks.iter().zip(&d2.rkl_tasks) {
        let sa = schedule_kernel(a).unwrap();
        let sb = schedule_kernel(b).unwrap();
        assert_eq!(sa, sb);
    }
    // Optimizer determinism too.
    let mut o1 = proposed_design(&w);
    let mut o2 = proposed_design(&w);
    let s1 = optimize_design(&mut o1, &OptimizerConfig::for_u200_slr()).unwrap();
    let s2 = optimize_design(&mut o2, &OptimizerConfig::for_u200_slr()).unwrap();
    assert_eq!(s1.len(), s2.len());
    assert_eq!(o1, o2);
}

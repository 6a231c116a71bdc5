//! Fig 5 bench: evaluates the whole design→optimize→estimate pipeline
//! across the paper's mesh sizes, printing the modeled RK-method times
//! alongside the bench statistics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fem_accel::designs::{paper_design, vitis_baseline_design};
use fem_accel::perf::estimate_performance;
use fem_accel::workload::RklWorkload;
use fem_mesh::generator::FIG5_MESH_SIZES;

fn bench_fig5_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_model");
    group.sample_size(10);
    for (label, nodes) in FIG5_MESH_SIZES {
        group.bench_with_input(BenchmarkId::from_parameter(label), &nodes, |b, &nodes| {
            b.iter(|| {
                let w = RklWorkload::with_nodes(nodes, 1);
                let p = paper_design(&w);
                let base = vitis_baseline_design(&w);
                let rp = estimate_performance(&p).unwrap();
                let rb = estimate_performance(&base).unwrap();
                (rp.rk_method_seconds, rb.rk_method_seconds)
            });
        });
    }
    group.finish();

    // Print the modeled Fig 5 series once.
    println!("\nmodeled Fig 5 series (RK-method seconds, 20 RK4 steps):");
    for (label, nodes) in FIG5_MESH_SIZES {
        let w = RklWorkload::with_nodes(nodes, 1);
        let p = paper_design(&w);
        let base = vitis_baseline_design(&w);
        let rp = estimate_performance(&p).unwrap();
        let rb = estimate_performance(&base).unwrap();
        println!(
            "  {label:>5}: proposed {:>8.3} s | vitis {:>8.3} s | speedup {:.2}x",
            rp.rk_method_seconds,
            rb.rk_method_seconds,
            rb.rk_method_seconds / rp.rk_method_seconds
        );
    }
}

criterion_group!(benches, bench_fig5_pipeline);
criterion_main!(benches);

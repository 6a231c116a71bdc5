//! Benchmarks of the dataflow discrete-event simulator and its analytic
//! shortcut — the substrate behind the Fig 5 timing numbers — on the
//! paper design's RKL region.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fem_accel::designs::paper_design;
use fem_accel::perf::{region_network, task_perfs, Region, TaskPerf};
use fem_accel::workload::RklWorkload;
use hls_dataflow::analytic::analytic_makespan;
use hls_dataflow::network::Network;
use hls_dataflow::sim::simulate;

/// The Load → Compute → Store region of `tasks` streaming `tokens`
/// elements.
fn rkl_network(tasks: &[TaskPerf], tokens: u64) -> Network {
    let [load, compute @ .., store] = tasks else {
        unreachable!("every design has a load and a store task")
    };
    region_network(&[Region {
        tokens,
        loads: vec![load.stage()],
        compute: compute.iter().map(TaskPerf::stage).collect(),
        stores: vec![store.stage()],
    }])
    .unwrap()
}

fn bench_des(c: &mut Criterion) {
    let tasks = task_perfs(&paper_design(&RklWorkload::with_nodes(4_200_000, 1))).unwrap();
    let mut group = c.benchmark_group("dataflow_des");
    for tokens in [1_000u64, 10_000, 100_000] {
        let net = rkl_network(&tasks, tokens);
        group.throughput(Throughput::Elements(tokens));
        group.bench_with_input(BenchmarkId::from_parameter(tokens), &net, |b, net| {
            b.iter(|| simulate(net).unwrap().makespan);
        });
    }
    group.finish();

    let net = rkl_network(&tasks, 4_200_000);
    c.bench_function("analytic_makespan_4.2M", |b| {
        b.iter(|| analytic_makespan(&net));
    });
}

criterion_group!(benches, bench_des);
criterion_main!(benches);

//! Benchmarks of the banked-memory dataflow emulation: the unbanked
//! per-shard DES against the multi-bank port-arbitrated DES, over a TGV
//! shard sweep — the substrate behind `repro banking`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fem_accel::designs::paper_design;
use fem_accel::emulation::{
    emulate_plan, emulate_plan_banked, shard_compute_floors, shard_streams,
};
use fem_accel::optimizer::optimize_bank_assignment;
use fem_accel::perf::compute_task;
use fem_accel::workload::RklWorkload;
use fem_mesh::partition::{PartitionStrategy, ShardPlan};
use fem_mesh::BoxMeshBuilder;
use fpga_platform::{BankAssignment, MemorySystem};

fn bench_banked_emulation(c: &mut Criterion) {
    let mesh = BoxMeshBuilder::tgv_box(8).build().unwrap();
    let compute = compute_task(&paper_design(&RklWorkload::from_mesh(&mesh))).unwrap();
    let elements = mesh.num_elements() as u64;
    let hbm = MemorySystem::u280_hbm2();

    let mut group = c.benchmark_group("memory_banking");
    for shards in [1usize, 4, 8] {
        let plan =
            ShardPlan::with_strategy(&mesh, shards, usize::MAX, PartitionStrategy::Partitioned)
                .unwrap();
        let streams = shard_streams(&plan);
        let floors = shard_compute_floors(&plan, &compute);
        group.throughput(Throughput::Elements(elements));

        group.bench_with_input(BenchmarkId::new("flat", shards), &plan, |b, plan| {
            b.iter(|| {
                emulate_plan(plan, &compute)
                    .unwrap()
                    .iter()
                    .map(|r| r.makespan_cycles)
                    .max()
            });
        });

        let a_hbm = BankAssignment::round_robin(&streams, &hbm);
        group.bench_with_input(BenchmarkId::new("hbm_rr", shards), &plan, |b, plan| {
            b.iter(|| {
                emulate_plan_banked(plan, &compute, &hbm, &a_hbm)
                    .unwrap()
                    .makespan_cycles
            });
        });

        group.bench_with_input(BenchmarkId::new("hbm_optimize", shards), &plan, |b, _| {
            b.iter(|| optimize_bank_assignment(&streams, &hbm, &floors).banks_used());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_banked_emulation);
criterion_main!(benches);

//! Micro-benchmarks of the FEM element kernels — the code the paper's
//! profiling (Fig 2) identifies as the hotspots (diffusion 39.2%,
//! convection 21.04%).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fem_bench::geometry::assemble_seed_recompute_split;
use fem_mesh::generator::BoxMeshBuilder;
use fem_mesh::geometry::GeometryCache;
use fem_mesh::hex::{ElementGeometry, GeometryScratch};
use fem_numerics::tensor::HexBasis;
use fem_solver::kernels::{
    convective_flux, fused_flux, weak_divergence, ElementWorkspace, KernelOps, KernelPath,
};
use fem_solver::oracle::{element_loop_into, split_into, viscous_flux};
use fem_solver::parallel::assemble_rhs_into;
use fem_solver::state::{Conserved, Primitives};
use fem_solver::tgv::TgvConfig;
use fem_solver::AssemblyContext;

fn bench_kernels(c: &mut Criterion) {
    let mesh = BoxMeshBuilder::tgv_box(8).build().unwrap();
    let basis = HexBasis::new(1).unwrap();
    let cfg = TgvConfig::standard();
    let gas = cfg.gas();
    let conserved = cfg.initial_state(&mesh);
    let mut prim = Primitives::zeros(mesh.num_nodes());
    prim.update_from(&conserved, &gas);
    let npe = mesh.nodes_per_element();
    let mut ws = ElementWorkspace::new(npe);
    let mut scratch = GeometryScratch::new(npe);
    let mut geom = ElementGeometry::with_capacity(npe);
    mesh.fill_element_geometry(0, &basis, &mut scratch, &mut geom, 0)
        .unwrap();
    ws.gather(mesh.element_nodes(0), &conserved, &prim);

    let mut group = c.benchmark_group("element_kernels");
    group.throughput(Throughput::Elements(1));
    group.bench_function("convective_flux", |b| {
        b.iter(|| convective_flux(&mut ws));
    });
    group.bench_function("viscous_flux", |b| {
        b.iter(|| viscous_flux(&mut ws, &gas, &basis, geom.view(0)));
    });
    group.bench_function("fused_flux", |b| {
        b.iter(|| fused_flux(&mut ws, &gas, &basis, geom.view(0)));
    });
    group.bench_function("weak_divergence", |b| {
        b.iter(|| {
            ws.zero_residuals();
            weak_divergence(&mut ws, &basis, geom.view(0), 1.0);
        });
    });
    group.bench_function("geometry", |b| {
        b.iter(|| {
            mesh.fill_element_geometry(0, &basis, &mut scratch, &mut geom, 0)
                .unwrap()
        });
    });
    group.bench_function("full_element_rkl_fused", |b| {
        let cache = GeometryCache::build(&mesh, &basis).unwrap();
        b.iter(|| {
            let g = cache.element(0);
            ws.gather(mesh.element_nodes(0), &conserved, &prim);
            ws.zero_residuals();
            fused_flux(&mut ws, &gas, &basis, g);
            weak_divergence(&mut ws, &basis, g, 1.0);
        });
    });
    group.bench_function("full_element_rkl_split_recompute", |b| {
        b.iter(|| {
            mesh.fill_element_geometry(0, &basis, &mut scratch, &mut geom, 0)
                .unwrap();
            ws.gather(mesh.element_nodes(0), &conserved, &prim);
            ws.zero_residuals();
            convective_flux(&mut ws);
            weak_divergence(&mut ws, &basis, geom.view(0), 1.0);
            viscous_flux(&mut ws, &gas, &basis, geom.view(0));
            weak_divergence(&mut ws, &basis, geom.view(0), -1.0);
        });
    });
    group.finish();
}

/// Element batches: the fused kernels one element at a time through the
/// public one-lane API against the assembly sweep, which runs them four
/// elements per lane group (when the CPU has AVX2) and scatters the same
/// bits.
fn bench_batch4(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch4");
    for order in [1usize, 3] {
        let mesh = BoxMeshBuilder::tgv_box(4).order(order).build().unwrap();
        let basis = HexBasis::new(order).unwrap();
        let cfg = TgvConfig::standard();
        let gas = cfg.gas();
        let conserved = cfg.initial_state(&mesh);
        let mut prim = Primitives::zeros(mesh.num_nodes());
        prim.update_from(&conserved, &gas);
        let geometry = GeometryCache::build(&mesh, &basis).unwrap();
        let mut out = Conserved::zeros(mesh.num_nodes());
        group.throughput(Throughput::Elements(mesh.num_elements() as u64));
        let ctx = AssemblyContext {
            mesh: &mesh,
            basis: &basis,
            gas: &gas,
            geometry: &geometry,
            kernel: KernelPath::SumFactored,
        };
        group.bench_function(format!("p{order}_element_loop"), |b| {
            b.iter(|| element_loop_into(&ctx, &conserved, &prim, &mut out));
        });
        group.bench_function(format!("p{order}_batched_sweep"), |b| {
            b.iter(|| {
                assemble_rhs_into(
                    &mesh,
                    &basis,
                    &gas,
                    &geometry,
                    &conserved,
                    &prim,
                    KernelPath::SumFactored,
                    &mut out,
                    None,
                )
            });
        });
    }
    group.finish();
}

/// The PR-3 optimization ladder at full-mesh granularity: seed
/// recompute+split vs cached+split vs cached+fused, plus the one-time
/// cache construction cost it amortizes away.
fn bench_geometry_cache(c: &mut Criterion) {
    let mesh = BoxMeshBuilder::tgv_box(8).build().unwrap();
    let basis = HexBasis::new(1).unwrap();
    let cfg = TgvConfig::standard();
    let gas = cfg.gas();
    let conserved = cfg.initial_state(&mesh);
    let mut prim = Primitives::zeros(mesh.num_nodes());
    prim.update_from(&conserved, &gas);
    let geometry = GeometryCache::build(&mesh, &basis).unwrap();
    let mut out = Conserved::zeros(mesh.num_nodes());

    let mut group = c.benchmark_group("geometry_cache");
    group.throughput(Throughput::Elements(mesh.num_elements() as u64));
    group.bench_function("build", |b| {
        b.iter(|| GeometryCache::build(&mesh, &basis).unwrap());
    });
    group.bench_function("rhs_recompute_split", |b| {
        b.iter(|| assemble_seed_recompute_split(&mesh, &basis, &gas, &conserved, &prim, &mut out));
    });
    let ctx = AssemblyContext {
        mesh: &mesh,
        basis: &basis,
        gas: &gas,
        geometry: &geometry,
        kernel: KernelPath::SumFactored,
    };
    group.bench_function("rhs_cached_split", |b| {
        b.iter(|| split_into(&ctx, &conserved, &prim, &mut out));
    });
    group.bench_function("rhs_cached_fused", |b| {
        b.iter(|| {
            assemble_rhs_into(
                &mesh,
                &basis,
                &gas,
                &geometry,
                &conserved,
                &prim,
                KernelPath::SumFactored,
                &mut out,
                None,
            )
        });
    });
    group.finish();
}

/// The PR-9 order ladder at single-element granularity: the O(p⁴)
/// sum-factored weak divergence vs the O(p⁶) dense full-matrix reference
/// at basis orders p = 1..4 (dense operators materialized outside the
/// timed loop, as `KernelOps::resolve` does per assembly sweep).
fn bench_kernel_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_paths");
    group.throughput(Throughput::Elements(1));
    for order in 1..=4usize {
        let mesh = BoxMeshBuilder::tgv_box(3).order(order).build().unwrap();
        let basis = HexBasis::new(order).unwrap();
        let cfg = TgvConfig::standard();
        let gas = cfg.gas();
        let conserved = cfg.initial_state(&mesh);
        let mut prim = Primitives::zeros(mesh.num_nodes());
        prim.update_from(&conserved, &gas);
        let cache = GeometryCache::build(&mesh, &basis).unwrap();
        let mut ws = ElementWorkspace::new(mesh.nodes_per_element());
        ws.gather(mesh.element_nodes(0), &conserved, &prim);
        fused_flux(&mut ws, &gas, &basis, cache.element(0));
        for path in KernelPath::ALL {
            let ops = KernelOps::resolve(path, &basis);
            group.bench_function(format!("p{order}_{path}"), |b| {
                b.iter(|| {
                    ws.zero_residuals();
                    ops.weak_divergence(&mut ws, &basis, cache.element(0), 1.0);
                });
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_batch4,
    bench_geometry_cache,
    bench_kernel_paths
);
criterion_main!(benches);

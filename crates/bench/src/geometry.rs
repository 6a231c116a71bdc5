//! Cached-vs-recompute and fused-vs-split RHS study: `repro geometry`.
//!
//! Measures one full viscous RKL residual assembly on TGV boxes along the
//! optimization ladder this repo climbed in PR 3:
//!
//! 1. `recompute+split` — the seed hot path: element Jacobians rebuilt
//!    from nodal coordinates on every evaluation, two weak-divergence
//!    contractions (convective then viscous).
//! 2. `cached+split` — same split kernels reading the precomputed
//!    [`GeometryCache`] slices: isolates the geometry-cache win.
//! 3. `cached+fused` — the production serial path: cached geometry plus
//!    the fused `F_c − F_v` single-contraction kernel.
//!
//! Every path is cross-checked against the seed residual, and the table
//! reports the cache's memory footprint — the space the optimization
//! trades for the per-stage Jacobian rebuild.
//!
//! Each reported time is the median of [`BLOCKS`] block means. Inside a
//! block every path compared (the three ladder paths of one mesh, or the
//! two kernel paths of one order) runs its repetitions in turn, the first
//! path rotating from block to block, so a burst of host load lands on
//! one block of every path instead of on one path's whole measurement.
//!
//! The study also climbs the **order ladder**: at basis orders `p = 1..=4`
//! it times one serial RHS assembly under each [`KernelPath`] — the
//! O(p⁴) sum-factored three-sweep contraction vs the O(p⁶) dense
//! full-matrix reference — locating the order where the factored path
//! overtakes, checking a 2-device [`MultiDeviceBackend`] assembly on both
//! paths bitwise against the serial one, and bounding the
//! full-vs-factored residual deviation at 1e-12.

use fem_mesh::generator::BoxMeshBuilder;
use fem_mesh::geometry::GeometryCache;
use fem_mesh::hex::{ElementGeometry, GeometryScratch};
use fem_mesh::HexMesh;
use fem_numerics::rk::StateOps;
use fem_numerics::tensor::HexBasis;
use fem_solver::kernels::{
    convective_flux, weak_divergence, ElementWorkspace, KernelOpCounts, KernelPath,
};
use fem_solver::oracle::{split_into, viscous_flux};
use fem_solver::parallel::assemble_rhs_into;
use fem_solver::state::{Conserved, Primitives};
use fem_solver::tgv::TgvConfig;
use fem_solver::{AssemblyContext, ExecutionBackend, MultiDeviceBackend, PartitionStrategy};
use serde::Serialize;
use std::time::Instant;

/// One (mesh size, RHS path) measurement.
#[derive(Debug, Clone, Serialize)]
pub struct GeometryRow {
    /// Elements per axis of the periodic TGV box.
    pub edge: usize,
    /// Total mesh nodes.
    pub nodes: usize,
    /// Path label (`recompute+split`, `cached+split`, `cached+fused`).
    pub path: String,
    /// Wall-clock milliseconds per full RHS assembly: the median of the
    /// per-block means.
    pub millis_per_assembly: f64,
    /// Seed (`recompute+split`) time divided by this path's time.
    pub speedup_vs_seed: f64,
    /// Max abs deviation from the seed residual, relative to the seed
    /// max-norm (floored at 1): a correctness cross-check.
    pub max_rel_error_vs_seed: f64,
}

/// Per-mesh-size derived summary.
#[derive(Debug, Clone, Serialize)]
pub struct GeometrySummary {
    /// Elements per axis.
    pub edge: usize,
    /// Total mesh nodes.
    pub nodes: usize,
    /// Heap bytes held by the geometry cache for this mesh.
    pub cache_memory_bytes: usize,
    /// Speedup of cached geometry alone (split kernels on both sides).
    pub cached_over_recompute: f64,
    /// Speedup of the fused single contraction alone (cached geometry on
    /// both sides).
    pub fused_over_split: f64,
    /// Headline: the full cached+fused serial path over the seed path.
    pub cached_fused_over_seed: f64,
}

/// One order-ladder rung: sum-factored vs full-matrix weak divergence at
/// basis order `p` on a fixed TGV box.
#[derive(Debug, Clone, Serialize)]
pub struct OrderLadderRung {
    /// Basis order `p`.
    pub order: usize,
    /// Nodes per element, `(p+1)³`.
    pub nodes_per_element: usize,
    /// Elements in the ladder mesh.
    pub elements: usize,
    /// Wall-clock ms per serial RHS assembly, full-matrix path (median
    /// of the per-block means).
    pub millis_full_matrix: f64,
    /// Wall-clock ms per serial RHS assembly, sum-factored path (median
    /// of the per-block means).
    pub millis_sum_factored: f64,
    /// Full-matrix time over sum-factored time (> 1 ⇒ factored wins).
    pub factored_speedup: f64,
    /// Modeled weak-divergence flops per element, sum-factored: O(p⁴).
    pub factored_divergence_flops: usize,
    /// Modeled weak-divergence flops per element, full-matrix: O(p⁶).
    pub full_matrix_divergence_flops: usize,
    /// The 2-device partitioned multi-device sum-factored assembly
    /// reproduced the serial sum-factored result bitwise at this order.
    pub factored_bitwise_vs_reference: bool,
    /// The 2-device partitioned multi-device full-matrix assembly
    /// reproduced the serial full-matrix result bitwise at this order.
    pub full_matrix_bitwise_vs_reference: bool,
    /// Max deviation of the full-matrix residual from the sum-factored
    /// reference, relative to the reference max-norm (floored at 1).
    pub max_rel_error_full_vs_factored: f64,
}

/// The full study plus the environment it was measured in.
#[derive(Debug, Clone, Serialize)]
pub struct GeometryStudy {
    /// Worker threads available to the rayon stub.
    pub threads: usize,
    /// Measurements, grouped by edge then path (fixed order, 3 per edge).
    pub rows: Vec<GeometryRow>,
    /// Per-edge derived speedups and the cache footprint.
    pub summaries: Vec<GeometrySummary>,
    /// Sum-factored vs full-matrix timings at `p = 1..=4`.
    pub order_ladder: Vec<OrderLadderRung>,
    /// Lowest order at which the sum-factored path beat the full-matrix
    /// path (`None` if it never did — a performance regression).
    pub factored_crossover_order: Option<usize>,
}

impl std::fmt::Display for GeometryStudy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Geometry cache + fused kernel: RHS assembly ladder ({} threads):",
            self.threads
        )?;
        writeln!(
            f,
            "  {:>5} {:>8} {:>22} {:>12} {:>9} {:>12}",
            "edge", "nodes", "path", "ms/assembly", "speedup", "max rel err"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>5} {:>8} {:>22} {:>12.3} {:>8.2}x {:>12.2e}",
                r.edge,
                r.nodes,
                r.path,
                r.millis_per_assembly,
                r.speedup_vs_seed,
                r.max_rel_error_vs_seed
            )?;
        }
        for s in &self.summaries {
            writeln!(
                f,
                "  edge {:>2}: cache {:>8} B | cached/recompute {:.2}x | fused/split {:.2}x | total {:.2}x",
                s.edge,
                s.cache_memory_bytes,
                s.cached_over_recompute,
                s.fused_over_split,
                s.cached_fused_over_seed,
            )?;
        }
        writeln!(f, "Order ladder: sum-factored vs full-matrix contraction:")?;
        writeln!(
            f,
            "  {:>2} {:>5} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8} {:>12}",
            "p",
            "npe",
            "ms full",
            "ms fact",
            "speedup",
            "fl flops",
            "fm flops",
            "bitwise",
            "max rel err"
        )?;
        for r in &self.order_ladder {
            writeln!(
                f,
                "  {:>2} {:>5} {:>10.3} {:>10.3} {:>7.2}x {:>10} {:>10} {:>8} {:>12.2e}",
                r.order,
                r.nodes_per_element,
                r.millis_full_matrix,
                r.millis_sum_factored,
                r.factored_speedup,
                r.factored_divergence_flops,
                r.full_matrix_divergence_flops,
                r.factored_bitwise_vs_reference && r.full_matrix_bitwise_vs_reference,
                r.max_rel_error_full_vs_factored
            )?;
        }
        match self.factored_crossover_order {
            Some(p) => writeln!(f, "  factored path ahead from p = {p}")?,
            None => writeln!(f, "  factored path never overtook full-matrix")?,
        }
        Ok(())
    }
}

/// The seed hot path, reproduced verbatim: geometry rebuilt per element,
/// split convective + viscous contractions, serial element order. It
/// overwrites `out`.
///
/// # Panics
///
/// Panics if an element's geometry is invalid.
pub fn assemble_seed_recompute_split(
    mesh: &HexMesh,
    basis: &HexBasis,
    gas: &fem_solver::gas::GasModel,
    conserved: &Conserved,
    prim: &Primitives,
    out: &mut Conserved,
) {
    let npe = mesh.nodes_per_element();
    let mut ws = ElementWorkspace::new(npe);
    let mut scratch = GeometryScratch::new(npe);
    let mut geom = ElementGeometry::with_capacity(npe);
    out.set_zero();
    for e in 0..mesh.num_elements() {
        mesh.fill_element_geometry(e, basis, &mut scratch, &mut geom)
            .expect("valid mesh geometry");
        ws.gather(mesh.element_nodes(e), conserved, prim);
        ws.zero_residuals();
        convective_flux(&mut ws);
        weak_divergence(&mut ws, basis, geom.view(), 1.0);
        if gas.mu > 0.0 {
            viscous_flux(&mut ws, gas, basis, geom.view());
            weak_divergence(&mut ws, basis, geom.view(), -1.0);
        }
        ws.scatter_add(mesh.element_nodes(e), out);
    }
}

fn max_rel_error(reference: &Conserved, candidate: &Conserved) -> f64 {
    let mut ref_flat = Vec::new();
    reference.for_each_field(|fld| ref_flat.extend_from_slice(fld));
    let mut cand_flat = Vec::new();
    candidate.for_each_field(|fld| cand_flat.extend_from_slice(fld));
    let scale = ref_flat.iter().fold(1.0f64, |m, &v| m.max(v.abs()));
    ref_flat
        .iter()
        .zip(&cand_flat)
        .map(|(a, b)| (a - b).abs() / scale)
        .fold(0.0, f64::max)
}

fn bits(c: &Conserved) -> Vec<u64> {
    let mut out = Vec::new();
    c.for_each_field(|f| out.extend(f.iter().map(|x| x.to_bits())));
    out
}

/// One labeled RHS-assembly path under measurement.
type AssemblyPath<'a> = (&'a str, Box<dyn Fn(&mut Conserved) + 'a>);

/// Timing blocks per measurement; a reported time is the median of the
/// per-block means.
pub const BLOCKS: usize = 11;

/// Times `paths` measurement paths in [`BLOCKS`] blocks: in each block,
/// every path runs `run(path)` `reps` times in turn, the first path
/// rotating from block to block. Returns each path's median per-block
/// mean, in milliseconds.
fn median_block_millis(paths: usize, reps: usize, mut run: impl FnMut(usize)) -> Vec<f64> {
    let mut means = vec![Vec::with_capacity(BLOCKS); paths];
    for block in 0..BLOCKS {
        for turn in 0..paths {
            let path = (block + turn) % paths;
            let t0 = Instant::now();
            for _ in 0..reps {
                run(path);
            }
            means[path].push(t0.elapsed().as_secs_f64() * 1e3 / reps as f64);
        }
    }
    means
        .into_iter()
        .map(|mut m| {
            m.sort_by(f64::total_cmp);
            m[BLOCKS / 2]
        })
        .collect()
}

/// Elements per axis of the order-ladder box — small, because the
/// full-matrix side grows as O(p⁶) per element.
const LADDER_EDGE: usize = 3;
/// Highest basis order on the ladder.
const LADDER_MAX_ORDER: usize = 4;

/// Times one serial RHS assembly under each [`KernelPath`] (`reps`
/// assemblies per path in each of [`BLOCKS`] blocks) at orders
/// `p = 1..=4` on a viscous TGV box, cross-checking the full-matrix
/// residual against the sum-factored reference and a 2-device
/// multi-device assembly on both paths bitwise against the serial one.
fn run_order_ladder(reps: usize) -> Vec<OrderLadderRung> {
    let mut rungs = Vec::new();
    for order in 1..=LADDER_MAX_ORDER {
        let mesh = BoxMeshBuilder::tgv_box(LADDER_EDGE)
            .order(order)
            .build()
            .expect("valid ladder box");
        let basis = HexBasis::new(order).expect("valid ladder basis");
        let cfg = TgvConfig::standard();
        let gas = cfg.gas();
        let conserved = cfg.initial_state(&mesh);
        let mut prim = Primitives::zeros(mesh.num_nodes());
        prim.update_from(&conserved, &gas);
        let geometry = GeometryCache::build(&mesh, &basis).expect("valid ladder geometry");
        let mut multidevice =
            MultiDeviceBackend::new(&mesh, &geometry, 2, PartitionStrategy::Partitioned)
                .expect("valid ladder plan");
        let counts = KernelOpCounts::for_basis(&basis);

        let assemble = |path: KernelPath, out: &mut Conserved| {
            assemble_rhs_into(
                &mesh, &basis, &gas, &geometry, &conserved, &prim, path, out, None,
            )
        };
        let mut serial = [
            Conserved::zeros(mesh.num_nodes()),
            Conserved::zeros(mesh.num_nodes()),
        ];
        let mut out = Conserved::zeros(mesh.num_nodes());
        // Warm-up doubles as the correctness snapshot.
        for (path, snapshot) in KernelPath::ALL.into_iter().zip(&mut serial) {
            assemble(path, snapshot);
        }
        let millis = median_block_millis(KernelPath::ALL.len(), reps, |i| {
            assemble(KernelPath::ALL[i], &mut out)
        });
        let mut bitwise = [false; 2];
        for (i, path) in KernelPath::ALL.into_iter().enumerate() {
            // The multi-device executor must reproduce the serial result
            // bitwise on this path too.
            let ctx = AssemblyContext {
                mesh: &mesh,
                basis: &basis,
                gas: &gas,
                geometry: &geometry,
                kernel: path,
            };
            multidevice.assemble_rhs(&ctx, &conserved, &prim, &mut out, None);
            bitwise[i] = bits(&out) == bits(&serial[i]);
        }
        let [millis_factored, millis_full] = [millis[0], millis[1]];
        rungs.push(OrderLadderRung {
            order,
            nodes_per_element: basis.nodes_per_element(),
            elements: mesh.num_elements(),
            millis_full_matrix: millis_full,
            millis_sum_factored: millis_factored,
            factored_speedup: millis_full / millis_factored.max(f64::MIN_POSITIVE),
            factored_divergence_flops: counts.divergence_flops_for(KernelPath::SumFactored),
            full_matrix_divergence_flops: counts.divergence_flops_for(KernelPath::FullMatrix),
            factored_bitwise_vs_reference: bitwise[0],
            full_matrix_bitwise_vs_reference: bitwise[1],
            max_rel_error_full_vs_factored: max_rel_error(&serial[0], &serial[1]),
        });
    }
    rungs
}

/// Runs the study on a viscous TGV box of each `edges` entry: every path
/// is timed over `reps` assemblies in each of [`BLOCKS`] blocks.
///
/// # Panics
///
/// Panics if `reps == 0` or mesh construction fails.
pub fn run_geometry_study(edges: &[usize], reps: usize) -> GeometryStudy {
    assert!(reps > 0, "reps");
    let threads = fem_solver::parallel::available_threads();
    let mut rows = Vec::new();
    let mut summaries = Vec::new();
    for &edge in edges {
        let mesh = BoxMeshBuilder::tgv_box(edge).build().expect("valid box");
        let basis = HexBasis::new(1).expect("valid basis");
        let cfg = TgvConfig::standard();
        let gas = cfg.gas();
        assert!(gas.mu > 0.0, "the study measures the viscous hot path");
        let conserved = cfg.initial_state(&mesh);
        let mut prim = Primitives::zeros(mesh.num_nodes());
        prim.update_from(&conserved, &gas);
        let geometry = GeometryCache::build(&mesh, &basis).expect("valid geometry");

        let ctx = AssemblyContext {
            mesh: &mesh,
            basis: &basis,
            gas: &gas,
            geometry: &geometry,
            kernel: KernelPath::SumFactored,
        };
        let mut out = Conserved::zeros(mesh.num_nodes());
        let mut seed = Conserved::zeros(mesh.num_nodes());

        let paths: [AssemblyPath; 3] = [
            (
                "recompute+split",
                Box::new(|out: &mut Conserved| {
                    assemble_seed_recompute_split(&mesh, &basis, &gas, &conserved, &prim, out)
                }),
            ),
            (
                "cached+split",
                Box::new(|out: &mut Conserved| split_into(&ctx, &conserved, &prim, out)),
            ),
            (
                "cached+fused",
                Box::new(|out: &mut Conserved| {
                    assemble_rhs_into(
                        &mesh,
                        &basis,
                        &gas,
                        &geometry,
                        &conserved,
                        &prim,
                        KernelPath::SumFactored,
                        out,
                        None,
                    )
                }),
            ),
        ];

        // Warm-up, which also produces the correctness snapshots.
        let mut errors = [0.0f64; 3];
        for (i, (_, assemble)) in paths.iter().enumerate() {
            assemble(&mut out);
            if i == 0 {
                seed.copy_from(&out);
            }
            errors[i] = max_rel_error(&seed, &out);
        }
        let times = median_block_millis(paths.len(), reps, |i| (paths[i].1)(&mut out));
        for (i, (label, _)) in paths.iter().enumerate() {
            let ms = times[i];
            rows.push(GeometryRow {
                edge,
                nodes: mesh.num_nodes(),
                path: (*label).to_string(),
                millis_per_assembly: ms,
                speedup_vs_seed: if ms > 0.0 { times[0] / ms } else { 0.0 },
                max_rel_error_vs_seed: errors[i],
            });
        }

        summaries.push(GeometrySummary {
            edge,
            nodes: mesh.num_nodes(),
            cache_memory_bytes: geometry.memory_bytes(),
            cached_over_recompute: times[0] / times[1].max(f64::MIN_POSITIVE),
            fused_over_split: times[1] / times[2].max(f64::MIN_POSITIVE),
            cached_fused_over_seed: times[0] / times[2].max(f64::MIN_POSITIVE),
        });
    }
    let order_ladder = run_order_ladder(reps);
    let factored_crossover_order = order_ladder
        .iter()
        .find(|r| r.factored_speedup > 1.0)
        .map(|r| r.order);
    GeometryStudy {
        threads,
        rows,
        summaries,
        order_ladder,
        factored_crossover_order,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_study_is_consistent() {
        let study = run_geometry_study(&[4], 1);
        assert_eq!(study.rows.len(), 3);
        assert_eq!(study.summaries.len(), 1);
        assert!(study.threads >= 1);
        assert_eq!(study.rows[0].path, "recompute+split");
        assert!((study.rows[0].speedup_vs_seed - 1.0).abs() < 1e-12);
        for r in &study.rows {
            assert_eq!(r.edge, 4);
            assert!(r.millis_per_assembly > 0.0, "{}: no time", r.path);
            assert!(
                r.max_rel_error_vs_seed < 1e-12,
                "{}: rel err {}",
                r.path,
                r.max_rel_error_vs_seed
            );
        }
        let s = &study.summaries[0];
        // 4³ elements × 8 nodes × (72 + 8) B.
        assert_eq!(s.cache_memory_bytes, 64 * 8 * 80);
        // The table serializes (the repro --json path).
        let json = serde_json::to_string(&study).unwrap();
        assert!(json.contains("\"summaries\""), "{json}");
        assert!(json.contains("\"order_ladder\""), "{json}");
        let shown = format!("{study}");
        assert!(shown.contains("cached+fused"), "{shown}");
        assert!(shown.contains("Order ladder"), "{shown}");
    }

    #[test]
    fn blocks_alternate_the_paths() {
        let mut calls = Vec::new();
        let millis = median_block_millis(3, 2, |path| calls.push(path));
        assert_eq!(millis.len(), 3);
        assert!(millis.iter().all(|ms| ms.is_finite() && *ms >= 0.0));
        // Each block runs every path `reps` times in turn, starting one
        // path later than the block before.
        let firsts: Vec<usize> = calls.chunks(6).map(|block| block[0]).collect();
        assert_eq!(firsts, (0..BLOCKS).map(|b| b % 3).collect::<Vec<_>>());
        for block in calls.chunks(6) {
            let mut order = block.to_vec();
            order.dedup();
            assert_eq!(order.len(), 3, "{block:?}");
        }
        assert_eq!(calls.len(), BLOCKS * 3 * 2);
    }

    #[test]
    fn order_ladder_spans_the_orders_with_verified_rungs() {
        let study = run_geometry_study(&[4], 1);
        let ladder = &study.order_ladder;
        assert_eq!(
            ladder.iter().map(|r| r.order).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        for r in ladder {
            assert_eq!(r.nodes_per_element, (r.order + 1).pow(3));
            assert!(r.elements > 0);
            assert!(r.millis_sum_factored > 0.0, "p={}: no time", r.order);
            assert!(r.millis_full_matrix > 0.0, "p={}: no time", r.order);
            // Both contraction paths compute the same integrals...
            assert!(
                r.max_rel_error_full_vs_factored < 1e-12,
                "p={}: rel err {}",
                r.order,
                r.max_rel_error_full_vs_factored
            );
            // ...and the multi-device executor is bitwise serial on both.
            assert!(r.factored_bitwise_vs_reference, "p={}", r.order);
            assert!(r.full_matrix_bitwise_vs_reference, "p={}", r.order);
            // The flop model: factored O(p⁴) vs full-matrix O(p⁶), with
            // the contraction-term ratio exactly n² = (p+1)².
            let n = r.order + 1;
            let npe = n * n * n;
            assert_eq!(r.factored_divergence_flops, 90 * npe + 30 * n.pow(4));
            assert_eq!(r.full_matrix_divergence_flops, 90 * npe + 30 * npe * npe);
        }
        // Hard perf gates live behind REPRO_PERF_GATE in the repro tests;
        // here just sanity-check the derived speedups are finite.
        assert!(ladder.iter().all(|r| r.factored_speedup.is_finite()));
    }
}

//! Host reference assembly of the RKL residual.
//!
//! The paper's software baseline is single-threaded, and so is the one
//! host path here: [`assemble_rhs_into`] walks the elements in ascending
//! order and scatters each element's residual straight into the output.
//! Parallel assembly is the §III-A element-stream decomposition of
//! [`crate::engine::MultiDeviceBackend`], which is bitwise identical to
//! this loop at every device count (see the [`crate::engine`] module docs
//! for the argument). The scatter hazard on nodes shared between devices
//! is resolved there by node ownership; `SharedRhs` is the raw-pointer
//! view of the output that the devices write their disjoint owned node
//! sets through.
//!
//! The hot path consumes the precomputed [`GeometryCache`] (no per-stage
//! Jacobian rebuild) and runs the **fused** `F_c − F_v` single-contraction
//! kernel on viscous elements, four elements at a time through the
//! element-batch evaluator (`crate::batch`; on both kernel paths, with
//! or without AVX2, and a last batch of 1–3 elements padded to four
//! lanes). Each batch is scattered lane by lane, in ascending element
//! order, so the sweep is bitwise the element-at-a-time loop. Fig 2
//! attribution of the fused path, timed once per batch: the gather (the
//! state, plus the geometry copy of a batch that is not an aligned cache
//! group) is charged to `RK(Other)`; the fused flux loop (gradients, τ,
//! net flux and its transform into the contraction input `G`) to
//! `RK(Diffusion)`; the single weak-divergence contraction of `G` — which
//! serves the convective and viscous halves equally — half to
//! `RK(Convection)` and half to `RK(Diffusion)`; the scatter to
//! `RK(Other)`. An inviscid batch charges its flux loop and contraction
//! to `RK(Convection)`.
//!
//! The element-at-a-time loop this sweep must match bit for bit, and the
//! seed split-contraction kernels the fused flux is validated against,
//! are the validation oracles of [`crate::oracle`].

use crate::batch::{BatchEvaluator, Elements, ScatterInto};
use crate::gas::GasModel;
use crate::kernels::{KernelOps, KernelPath, NUM_VARS};
use crate::profile::PhaseProfiler;
use crate::state::{Conserved, Primitives};
use fem_mesh::geometry::GeometryCache;
use fem_mesh::HexMesh;
use fem_numerics::tensor::HexBasis;
use std::num::NonZeroUsize;

/// The host reference assembly: one thread, ascending element order.
///
/// It has a single variant and is kept only because the step benchmark
/// names `AssemblyStrategy::Serial` (through
/// [`crate::engine::BackendSelect::Reference`] and
/// [`crate::engine::ReferenceBackend::new`]); parallel assembly is
/// [`crate::engine::BackendSelect::MultiDevice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssemblyStrategy {
    /// One thread, ascending element order — the paper's software
    /// baseline, with per-stage Fig 2 attribution at zero
    /// synchronization cost.
    Serial,
}

impl std::fmt::Display for AssemblyStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssemblyStrategy::Serial => write!(f, "serial"),
        }
    }
}

/// Worker threads the host offers: the ensemble driver defaults to it
/// and the studies report it.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Assembles the RKL residual into `out` with the serial element loop:
/// each element is evaluated in ascending order and scattered straight
/// into `out`.
///
/// When `profiler` is given, per-stage timings are merged into it.
///
/// # Panics
///
/// Panics if state sizes disagree with the mesh or the geometry cache
/// does not cover the mesh.
#[allow(clippy::too_many_arguments)]
pub fn assemble_rhs_into(
    mesh: &HexMesh,
    basis: &HexBasis,
    gas: &GasModel,
    geometry: &GeometryCache,
    conserved: &Conserved,
    prim: &Primitives,
    kernel: KernelPath,
    out: &mut Conserved,
    profiler: Option<&mut PhaseProfiler>,
) {
    assert_eq!(conserved.len(), mesh.num_nodes(), "state size");
    assert_eq!(out.len(), mesh.num_nodes(), "output size");
    assert_eq!(
        geometry.num_elements(),
        mesh.num_elements(),
        "geometry cache does not cover the mesh"
    );
    // Resolve once per sweep: the full-matrix path materializes its dense
    // operators here, outside the element loop.
    let kernel = KernelOps::resolve(kernel, basis);
    let eval = BatchEvaluator {
        mesh,
        basis,
        gas,
        geometry,
        conserved,
        prim,
        kernel: &kernel,
    };
    let mut local = PhaseProfiler::new();
    out.set_zero();
    eval.sweep(
        Elements::All(mesh.num_elements()),
        profiler.is_some().then_some(&mut local),
        &mut ScatterInto { mesh, out },
    );
    if let Some(agg) = profiler {
        agg.merge(&local);
    }
}

/// Raw pointers to the five RHS field arrays, shared across the device
/// workers of one [`crate::engine::MultiDeviceBackend`] assembly.
///
/// Soundness: the only writes through these pointers are a device's
/// writes to the nodes it **owns** in the `ShardPlan` — its interior
/// nodes and the frontier nodes it applies — and ownership goes to one
/// device per node (first-toucher), so the sets are disjoint by
/// construction. No two threads ever write the same index concurrently.
pub(crate) struct SharedRhs {
    rho: *mut f64,
    mom: [*mut f64; 3],
    energy: *mut f64,
}

// SAFETY: all five fields point into the `f64` arrays of one `Conserved`
// that the assembling backend borrows mutably for the whole scope the
// workers run in, so the pointers outlive every thread holding them;
// threads write only through `add_node`/`add_vals`, whose contract keeps
// concurrent writes on disjoint indices.
unsafe impl Send for SharedRhs {}
// SAFETY: as for `Send` — shared `&SharedRhs` access only reaches the
// arrays through the disjoint-index `unsafe` adders.
unsafe impl Sync for SharedRhs {}

impl SharedRhs {
    pub(crate) fn new(out: &mut Conserved) -> SharedRhs {
        SharedRhs {
            rho: out.rho.as_mut_ptr(),
            mom: [
                out.mom[0].as_mut_ptr(),
                out.mom[1].as_mut_ptr(),
                out.mom[2].as_mut_ptr(),
            ],
            energy: out.energy.as_mut_ptr(),
        }
    }

    /// Adds one packed five-variable contribution to node `n`.
    ///
    /// # Safety
    ///
    /// `n` must be in bounds and owned by the calling device: concurrent
    /// callers must target disjoint node sets.
    pub(crate) unsafe fn add_vals(&self, n: usize, vals: &[f64; NUM_VARS]) {
        *self.rho.add(n) += vals[0];
        *self.mom[0].add(n) += vals[1];
        *self.mom[1].add(n) += vals[2];
        *self.mom[2].add(n) += vals[3];
        *self.energy.add(n) += vals[4];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{
        AssemblyContext, ExecutionBackend, MultiDeviceBackend, PartitionStrategy, ReferenceBackend,
    };
    use crate::profile::Phase;
    use crate::tgv::TgvConfig;
    use fem_mesh::generator::BoxMeshBuilder;
    use proptest::prelude::*;

    #[allow(clippy::too_many_arguments)]
    fn serial_rhs(
        mesh: &HexMesh,
        basis: &HexBasis,
        gas: &GasModel,
        geometry: &GeometryCache,
        conserved: &Conserved,
        prim: &Primitives,
        kernel: KernelPath,
    ) -> Conserved {
        let mut out = Conserved::zeros(mesh.num_nodes());
        assemble_rhs_into(
            mesh, basis, gas, geometry, conserved, prim, kernel, &mut out, None,
        );
        out
    }

    /// The RHS of a freshly attached `devices`-device
    /// [`MultiDeviceBackend`].
    #[allow(clippy::too_many_arguments)]
    fn multidevice_rhs(
        mesh: &HexMesh,
        basis: &HexBasis,
        gas: &GasModel,
        geometry: &GeometryCache,
        conserved: &Conserved,
        prim: &Primitives,
        devices: usize,
        strategy: PartitionStrategy,
        kernel: KernelPath,
    ) -> Conserved {
        let mut backend = MultiDeviceBackend::new(mesh, geometry, devices, strategy).unwrap();
        let ctx = AssemblyContext {
            mesh,
            basis,
            gas,
            geometry,
            kernel,
        };
        let mut out = Conserved::zeros(mesh.num_nodes());
        backend.assemble_rhs(&ctx, conserved, prim, &mut out, None);
        out
    }

    fn bits(c: &Conserved) -> Vec<u64> {
        c.to_bit_vec()
    }

    fn flat(c: &Conserved) -> Vec<f64> {
        let mut out = Vec::new();
        c.for_each_field(|f| out.extend_from_slice(f));
        out
    }

    fn tgv_setup(
        edge: usize,
    ) -> (
        HexMesh,
        HexBasis,
        GasModel,
        GeometryCache,
        Conserved,
        Primitives,
    ) {
        let mesh = BoxMeshBuilder::tgv_box(edge).build().unwrap();
        let basis = HexBasis::new(1).unwrap();
        let cfg = TgvConfig::standard();
        let gas = cfg.gas();
        let state = cfg.initial_state(&mesh);
        let mut prim = Primitives::zeros(mesh.num_nodes());
        prim.update_from(&state, &gas);
        let geometry = GeometryCache::build(&mesh, &basis).unwrap();
        (mesh, basis, gas, geometry, state, prim)
    }

    #[test]
    fn parallel_assembly_matches_serial_to_rounding_and_is_deterministic() {
        // "To rounding" is met exactly: the multi-device assembly is
        // bitwise identical to the serial loop, and rerunning it on the
        // same backend gives the same bits whatever the thread schedule.
        let (mesh, basis, gas, geometry, state, prim) = tgv_setup(6);
        let reference = serial_rhs(
            &mesh,
            &basis,
            &gas,
            &geometry,
            &state,
            &prim,
            KernelPath::SumFactored,
        );
        let ctx = AssemblyContext {
            mesh: &mesh,
            basis: &basis,
            gas: &gas,
            geometry: &geometry,
            kernel: KernelPath::SumFactored,
        };
        for devices in [2usize, 3, 7, 16, 64] {
            let mut backend =
                MultiDeviceBackend::new(&mesh, &geometry, devices, PartitionStrategy::Partitioned)
                    .unwrap();
            for round in 0..2 {
                let mut out = Conserved::zeros(mesh.num_nodes());
                backend.assemble_rhs(&ctx, &state, &prim, &mut out, None);
                assert_eq!(
                    bits(&out),
                    bits(&reference),
                    "devices={devices} round={round} diverged from serial"
                );
            }
        }
    }

    #[test]
    fn strategy_dispatch_covers_all_paths() {
        // Every built-in backend, driven through the trait, reproduces
        // the serial function bitwise.
        let (mesh, basis, gas, geometry, state, prim) = tgv_setup(4);
        let ctx = AssemblyContext {
            mesh: &mesh,
            basis: &basis,
            gas: &gas,
            geometry: &geometry,
            kernel: KernelPath::SumFactored,
        };
        let reference = serial_rhs(
            &mesh,
            &basis,
            &gas,
            &geometry,
            &state,
            &prim,
            KernelPath::SumFactored,
        );
        let backends: [Box<dyn ExecutionBackend>; 3] = [
            Box::new(ReferenceBackend::new(AssemblyStrategy::Serial, &mesh)),
            Box::new(
                MultiDeviceBackend::new(&mesh, &geometry, 2, PartitionStrategy::Partitioned)
                    .unwrap(),
            ),
            Box::new(
                MultiDeviceBackend::new(&mesh, &geometry, 5, PartitionStrategy::Contiguous)
                    .unwrap(),
            ),
        ];
        for mut backend in backends {
            let mut out = Conserved::zeros(mesh.num_nodes());
            backend.assemble_rhs(&ctx, &state, &prim, &mut out, None);
            assert_eq!(bits(&out), bits(&reference), "{}", backend.name());
        }
    }

    #[test]
    fn parallel_profiling_merges_thread_time() {
        let (mesh, basis, gas, geometry, state, prim) = tgv_setup(4);
        let mut backend =
            MultiDeviceBackend::new(&mesh, &geometry, 4, PartitionStrategy::Contiguous).unwrap();
        let ctx = AssemblyContext {
            mesh: &mesh,
            basis: &basis,
            gas: &gas,
            geometry: &geometry,
            kernel: KernelPath::SumFactored,
        };
        let mut out = Conserved::zeros(mesh.num_nodes());
        let mut prof = PhaseProfiler::new();
        backend.assemble_rhs(&ctx, &state, &prim, &mut out, Some(&mut prof));
        for phase in [Phase::RkConvection, Phase::RkDiffusion, Phase::RkOther] {
            assert!(
                prof.total(phase) > std::time::Duration::ZERO,
                "no {phase:?} time"
            );
        }
    }

    #[test]
    fn parallel_matches_the_driver_rhs_up_to_mass_scaling() {
        // The driver divides by the lumped mass; the unscaled residual
        // must conserve: Σ residual = 0 per variable.
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let basis = HexBasis::new(1).unwrap();
        let cfg = TgvConfig::new(0.1, 500.0);
        let gas = cfg.gas();
        let state = cfg.initial_state(&mesh);
        let mut prim = Primitives::zeros(mesh.num_nodes());
        prim.update_from(&state, &gas);
        let geometry = GeometryCache::build(&mesh, &basis).unwrap();
        let ours = multidevice_rhs(
            &mesh,
            &basis,
            &gas,
            &geometry,
            &state,
            &prim,
            4,
            PartitionStrategy::Partitioned,
            KernelPath::SumFactored,
        );
        let mut max_abs: f64 = 0.0;
        ours.for_each_field(|f| {
            for &v in f {
                max_abs = max_abs.max(v.abs());
            }
        });
        ours.for_each_field(|f| {
            let s: f64 = f.iter().sum();
            assert!(s.abs() <= 1e-10 * max_abs.max(1.0), "sum {s}");
        });
    }

    fn random_box(nx: usize, ny: usize, nz: usize, order: usize, periodic: bool) -> HexMesh {
        let mut b = BoxMeshBuilder::new();
        b.elements(nx, ny, nz)
            .order(order)
            .periodic(periodic, periodic, periodic);
        b.build().unwrap()
    }

    fn partition(partitioned: bool) -> PartitionStrategy {
        if partitioned {
            PartitionStrategy::Partitioned
        } else {
            PartitionStrategy::Contiguous
        }
    }

    proptest! {
        /// The fused single-contraction kernel matches the split
        /// convective+viscous reference at ≤1e-12 relative error on
        /// randomized meshes, polynomial orders 1..4, gas models and both
        /// kernel paths, and the multi-device assembly of the fused kernel
        /// (1..5 devices, either partition strategy) is bitwise identical
        /// to the serial loop.
        #[test]
        fn prop_fused_matches_split_across_strategies(
            nx in 3usize..5,
            ny in 3usize..5,
            nz in 3usize..5,
            order in 1usize..5,
            periodic in proptest::bool::ANY,
            devices in 1usize..6,
            partitioned in proptest::bool::ANY,
            mach in 0.05f64..0.4,
            reynolds in 50.0f64..5000.0,
        ) {
            let mesh = random_box(nx, ny, nz, order, periodic);
            let basis = HexBasis::new(order).unwrap();
            let cfg = TgvConfig::new(mach, reynolds);
            let gas = cfg.gas();
            prop_assert!(gas.mu > 0.0, "viscous run required to exercise fusion");
            let state = cfg.initial_state(&mesh);
            let mut prim = Primitives::zeros(mesh.num_nodes());
            prim.update_from(&state, &gas);
            let geometry = GeometryCache::build(&mesh, &basis).unwrap();
            let strategy = partition(partitioned);

            let ctx = AssemblyContext {
                mesh: &mesh,
                basis: &basis,
                gas: &gas,
                geometry: &geometry,
                kernel: KernelPath::SumFactored,
            };
            let mut split = Conserved::zeros(mesh.num_nodes());
            crate::oracle::split_into(&ctx, &state, &prim, &mut split);
            let split_flat = flat(&split);
            let scale = split_flat.iter().fold(1.0f64, |m, &v| m.max(v.abs()));
            for kernel in [KernelPath::SumFactored, KernelPath::FullMatrix] {
                let fused = serial_rhs(&mesh, &basis, &gas, &geometry, &state, &prim, kernel);
                for (a, b) in flat(&fused).iter().zip(&split_flat) {
                    prop_assert!(
                        (a - b).abs() <= 1e-12 * scale,
                        "{} order {}: fused {} vs split {}", kernel, order, a, b
                    );
                }
                let md = multidevice_rhs(
                    &mesh, &basis, &gas, &geometry, &state, &prim, devices, strategy, kernel,
                );
                prop_assert!(
                    bits(&md) == bits(&fused),
                    "{} order {}: multidevice({}, {}) is not bitwise serial",
                    kernel, order, devices, strategy
                );
            }
        }

        /// The sum-factored hot path matches the full-matrix validation
        /// reference at ≤1e-12 relative error on randomized meshes,
        /// polynomial orders 1..4, viscous *and* inviscid gas models — the
        /// factored ≡ full guarantee at the assembly level — and under
        /// either path the multi-device assembly (1..5 devices, either
        /// partition strategy) is bitwise identical to the serial loop.
        #[test]
        fn prop_sum_factored_matches_full_matrix_across_strategies(
            nx in 3usize..5,
            ny in 3usize..5,
            nz in 3usize..5,
            order in 1usize..5,
            periodic in proptest::bool::ANY,
            devices in 1usize..6,
            partitioned in proptest::bool::ANY,
            mach in 0.05f64..0.4,
            reynolds in 50.0f64..5000.0,
            viscous in proptest::bool::ANY,
        ) {
            let mesh = random_box(nx, ny, nz, order, periodic);
            let basis = HexBasis::new(order).unwrap();
            let cfg = TgvConfig::new(mach, reynolds);
            let gas = if viscous { cfg.gas() } else { GasModel::air(0.0) };
            let state = cfg.initial_state(&mesh);
            let mut prim = Primitives::zeros(mesh.num_nodes());
            prim.update_from(&state, &gas);
            let geometry = GeometryCache::build(&mesh, &basis).unwrap();
            let strategy = partition(partitioned);

            let serial = [KernelPath::SumFactored, KernelPath::FullMatrix]
                .map(|k| serial_rhs(&mesh, &basis, &gas, &geometry, &state, &prim, k));
            let full_flat = flat(&serial[1]);
            let scale = full_flat.iter().fold(1.0f64, |m, &v| m.max(v.abs()));
            for (a, b) in flat(&serial[0]).iter().zip(&full_flat) {
                prop_assert!(
                    (a - b).abs() <= 1e-12 * scale,
                    "order {}: factored {} vs full {}", order, a, b
                );
            }
            for (kernel, reference) in [KernelPath::SumFactored, KernelPath::FullMatrix]
                .into_iter()
                .zip(&serial)
            {
                let md = multidevice_rhs(
                    &mesh, &basis, &gas, &geometry, &state, &prim, devices, strategy, kernel,
                );
                prop_assert!(
                    bits(&md) == bits(reference),
                    "{} order {}: multidevice({}, {}) is not bitwise serial",
                    kernel, order, devices, strategy
                );
            }
        }
    }
}

//! The element-batch evaluator: the host assembly sweeps run every element
//! through the four-lane kernels, four elements per batch.
//!
//! A sweep walks a list of elements in batches of four. Each batch
//! gathers its elements' state node by node into one lane-interleaved
//! [`ElementWorkspace<F64x4>`] (lane `j` = the batch's `j`-th element),
//! runs the flux and the contraction once for all lanes, and hands the
//! residuals to a [`ResidualSink`] lane 0, 1, 2, 3 — the list order — each
//! read in place from its lane. A last batch of 1–3 elements is still four
//! lanes: its spare lanes repeat its last element, are evaluated and are
//! never sunk.
//!
//! The flux loop streams the contraction input: per node it computes the
//! net flux (fused, or convective when μ = 0), transforms it into
//! `G = w·J⁻¹F` with the node's `J⁻ᵀ` and `det·w` loaded once, and stores
//! `G`. The contraction of the resolved [`KernelOps`] (sum-factored or
//! full-matrix) then reads `G` only. No flux tensor is stored: at order 3
//! the batch workspace and its geometry group come to about 100 KB, where
//! storing the flux and reading it back cost about 130 KB.
//!
//! The geometry cache stores elements `4g … 4g + 3` lane-interleaved as
//! group `g` ([`GeometryCache::group`]). A batch of an aligned group — every
//! full batch of a whole-mesh sweep — borrows the group's `J⁻ᵀ` and
//! `det·w` as they are. Any other batch (the element lists of a
//! [`MultiDevice`](crate::engine::MultiDeviceBackend) device, a padded
//! last batch) copies its elements' factors lane by lane into a batch
//! buffer.
//!
//! [`with_avx2`] runs the one four-lane sweep inside the AVX2 entry point
//! when the CPU reports AVX2, and on the baseline x86-64 instruction set
//! otherwise. Without AVX2, four lanes still beat one element at a time:
//! on the baseline instruction set the serial `assemble_rhs_into` takes
//! 0.53–0.58× the time of the one-lane `f64` sweep it replaced at order 1
//! (TGV box, edge 16) and 0.65–0.73× at order 3 (edge 8) — medians of two
//! probes of 8 alternating in-process runs each, on a 2-vCPU x86-64 host.
//!
//! Lanes never mix: every kernel operation acts on each lane alone, in
//! the one-element operation order, and Rust never fuses a multiply and
//! an add, with or without AVX2. A batch therefore computes the same bits
//! per element as a one-element run, and as long as the sink applies the
//! residuals in list order the assembled RHS is bitwise the
//! element-at-a-time loop.

use crate::gas::GasModel;
use crate::kernels::{lane_flux_g, resolved, ElementWorkspace, KernelOps, NodeGeometry, NUM_VARS};
use crate::profile::{Phase, PhaseProfiler};
use crate::state::{Conserved, Primitives};
use fem_mesh::geometry::GeometryCache;
use fem_mesh::HexMesh;
use fem_numerics::tensor::{F64x4, HexBasis, Lane};
use std::time::Instant;

/// Elements per batch: the lanes of an [`F64x4`].
const WIDTH: usize = F64x4::WIDTH;

/// Lane-interleaved geometry of a batch that is not an aligned group.
struct LaneGeometry {
    inv_jt: Vec<[[F64x4; 3]; 3]>,
    det_w: Vec<F64x4>,
}

impl LaneGeometry {
    fn new(npe: usize) -> Self {
        LaneGeometry {
            inv_jt: vec![[[F64x4::ZERO; 3]; 3]; npe],
            det_w: vec![F64x4::ZERO; npe],
        }
    }

    /// Copies the cached factors of element `ids[j]` into lane `j`.
    #[inline(always)]
    fn copy(&mut self, cache: &GeometryCache, ids: &[usize; WIDTH]) {
        let npe = self.det_w.len();
        let (inv_jt, det_w) = (&mut self.inv_jt[..npe], &mut self.det_w[..npe]);
        for (j, &e) in ids.iter().enumerate() {
            resolved!(cache.element(e), |src| {
                let src = src.nodes(npe);
                for (q, (m, w)) in inv_jt.iter_mut().zip(det_w.iter_mut()).enumerate() {
                    for (d, s) in m
                        .iter_mut()
                        .flatten()
                        .zip(src.inv_jt(q).into_iter().flatten())
                    {
                        *d.lane_mut(j) = s;
                    }
                    *w.lane_mut(j) = src.det_w(q);
                }
            });
        }
    }
}

/// A sweep written once for [`with_avx2`] to run.
pub(crate) trait LaneJob {
    /// What the sweep returns.
    type Output;

    /// Runs the sweep.
    fn run(self) -> Self::Output;
}

/// Runs `job` inside the AVX2 entry point when the CPU reports AVX2, and
/// on the baseline instruction set otherwise.
pub(crate) fn with_avx2<J: LaneJob>(job: J) -> J::Output {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `run_avx2` only enables AVX2, which the CPU reports.
        return unsafe { run_avx2(job) };
    }
    job.run()
}

/// The AVX2 entry point: `job` with every kernel of it inlined here and so
/// compiled for AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn run_avx2<J: LaneJob>(job: J) -> J::Output {
    job.run()
}

/// One element's residuals, read in place from its lane of the batch
/// workspace.
#[derive(Clone, Copy)]
pub(crate) struct Residuals<'a> {
    ws: &'a ElementWorkspace<F64x4>,
    lane: usize,
}

impl Residuals<'_> {
    /// Calls `f` with each of the element's `nodes` and the five
    /// residuals at it, in node order.
    #[inline(always)]
    pub(crate) fn for_each_node(self, nodes: &[u32], mut f: impl FnMut(u32, [f64; NUM_VARS])) {
        // `lane < 4`; the modulo lets the compiler drop the bounds check of
        // every lane read.
        let lane = self.lane % WIDTH;
        let res = self.ws.res.each_ref().map(|r| &r[..nodes.len()]);
        for (q, &n) in nodes.iter().enumerate() {
            f(n, res.map(|r| r[q].0[lane]));
        }
    }
}

/// Receives each evaluated element's residual, in the sweep's list order.
pub(crate) trait ResidualSink {
    /// Element `e`'s residual.
    fn element(&mut self, e: usize, res: Residuals<'_>);
}

/// Scatter-adds every residual straight into an RHS — the serial sweep.
pub(crate) struct ScatterInto<'a> {
    /// The mesh the element ids index.
    pub mesh: &'a HexMesh,
    /// The assembled RHS.
    pub out: &'a mut Conserved,
}

impl ResidualSink for ScatterInto<'_> {
    #[inline(always)]
    fn element(&mut self, e: usize, res: Residuals<'_>) {
        let out = &mut *self.out;
        res.for_each_node(self.mesh.element_nodes(e), |n, r| {
            let n = n as usize;
            out.rho[n] += r[0];
            out.mom[0][n] += r[1];
            out.mom[1][n] += r[2];
            out.mom[2][n] += r[3];
            out.energy[n] += r[4];
        });
    }
}

/// The elements a sweep visits, in order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Elements<'a> {
    /// Every element `0..n`.
    All(usize),
    /// The listed global ids.
    List(&'a [u32]),
}

impl Elements<'_> {
    fn len(&self) -> usize {
        match self {
            Elements::All(n) => *n,
            Elements::List(ids) => ids.len(),
        }
    }

    #[inline(always)]
    fn get(&self, i: usize) -> usize {
        match self {
            Elements::All(_) => i,
            Elements::List(ids) => ids[i] as usize,
        }
    }
}

/// Everything an element evaluation reads, borrowed for one assembly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchEvaluator<'a> {
    /// The mesh.
    pub mesh: &'a HexMesh,
    /// The element basis.
    pub basis: &'a HexBasis,
    /// The gas model (μ = 0 selects the convective-only flux).
    pub gas: &'a GasModel,
    /// The whole-mesh geometry cache.
    pub geometry: &'a GeometryCache,
    /// The conserved state.
    pub conserved: &'a Conserved,
    /// Its primitives.
    pub prim: &'a Primitives,
    /// The contraction, resolved once per assembly.
    pub kernel: &'a KernelOps,
}

impl BatchEvaluator<'_> {
    /// Evaluates `elements` and hands each residual to `sink` in list
    /// order, charging stage time to `prof` per batch with the Fig 2
    /// attribution of the [`crate::parallel`] module docs.
    pub(crate) fn sweep(
        &self,
        elements: Elements<'_>,
        prof: Option<&mut PhaseProfiler>,
        sink: &mut (impl ResidualSink + ?Sized),
    ) {
        with_avx2(Sweep {
            eval: self,
            elements,
            prof,
            sink,
        })
    }

    /// Evaluates the batch `ids`, one element per lane, and sinks its
    /// first `live` lanes lane by lane.
    #[inline(always)]
    fn batch(
        &self,
        ids: &[usize; WIDTH],
        live: usize,
        ws: &mut ElementWorkspace<F64x4>,
        geo: &mut LaneGeometry,
        clock: &mut StageClock<'_>,
        sink: &mut (impl ResidualSink + ?Sized),
    ) {
        ws.gather_lanes(
            &ids.map(|e| self.mesh.element_nodes(e)),
            self.conserved,
            self.prim,
        );
        ws.zero_residuals();
        let cache = self.geometry;
        let first = ids[0];
        let g = first / WIDTH;
        let aligned = first.is_multiple_of(WIDTH)
            && g < cache.num_groups()
            && ids.iter().enumerate().all(|(j, &e)| e == first + j);
        let geom = if aligned {
            cache.group(g)
        } else {
            geo.copy(cache, ids);
            (&geo.inv_jt[..], &geo.det_w[..])
        };
        compute(self.gas, self.basis, self.kernel, ws, geom, clock);
        for (lane, &e) in ids[..live].iter().enumerate() {
            sink.element(e, Residuals { ws, lane });
        }
        clock.lap(&[Phase::RkOther]);
    }
}

/// A batch's flux and contraction on its geometry `geom`, after the gather
/// (charged to `RK(Other)`): the flux loop writes the contraction input `G`
/// straight into the workspace, and the contraction reads `G` only.
#[inline(always)]
fn compute(
    gas: &GasModel,
    basis: &HexBasis,
    kernel: &KernelOps,
    ws: &mut ElementWorkspace<F64x4>,
    geom: impl NodeGeometry<F64x4>,
    clock: &mut StageClock<'_>,
) {
    clock.lap(&[Phase::RkOther]);
    lane_flux_g(ws, gas, basis, geom);
    if gas.mu > 0.0 {
        clock.lap(&[Phase::RkDiffusion]);
        // One contraction serves the convective and viscous halves.
        kernel.lane_contract(ws, basis, 1.0);
        clock.lap(&[Phase::RkConvection, Phase::RkDiffusion]);
    } else {
        kernel.lane_contract(ws, basis, 1.0);
        clock.lap(&[Phase::RkConvection]);
    }
}

/// One sweep of [`BatchEvaluator::sweep`].
struct Sweep<'s, 'a, S: ?Sized> {
    eval: &'s BatchEvaluator<'a>,
    elements: Elements<'s>,
    prof: Option<&'s mut PhaseProfiler>,
    sink: &'s mut S,
}

impl<S: ResidualSink + ?Sized> LaneJob for Sweep<'_, '_, S> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Sweep {
            eval,
            elements,
            prof,
            sink,
        } = self;
        let npe = eval.mesh.nodes_per_element();
        let n = elements.len();
        let mut ws = ElementWorkspace::<F64x4>::zeroed(npe);
        let mut geo = LaneGeometry::new(npe);
        let mut clock = StageClock::start(prof);
        for start in (0..n).step_by(WIDTH) {
            // The spare lanes of a last batch of 1–3 elements repeat its
            // last element.
            let live = WIDTH.min(n - start);
            let ids = std::array::from_fn(|j| elements.get(start + j.min(live - 1)));
            eval.batch(&ids, live, &mut ws, &mut geo, &mut clock, sink);
        }
    }
}

/// Charges the time since the previous lap to Fig 2 phases; does nothing
/// when the sweep is not profiled.
pub(crate) struct StageClock<'p> {
    prof: Option<(&'p mut PhaseProfiler, Instant)>,
}

impl<'p> StageClock<'p> {
    fn start(prof: Option<&'p mut PhaseProfiler>) -> Self {
        StageClock {
            prof: prof.map(|p| (p, Instant::now())),
        }
    }

    /// Splits the time since the last lap evenly over `phases`.
    #[inline(always)]
    fn lap(&mut self, phases: &[Phase]) {
        if let Some((prof, last)) = &mut self.prof {
            let now = Instant::now();
            let share = (now - *last) / phases.len() as u32;
            for &phase in phases {
                prof.add(phase, share);
            }
            *last = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AssemblyContext;
    use crate::kernels::{convective_flux, fused_flux, KernelPath};
    use crate::oracle::element_loop_into;
    use crate::parallel::assemble_rhs_into;
    use crate::tgv::TgvConfig;
    use fem_mesh::generator::BoxMeshBuilder;
    use fem_mesh::hex::GeomRef;
    use fem_numerics::linalg::Mat3;
    use proptest::prelude::*;

    /// Elements in one lane-equivalence case: one four-lane batch.
    const ELEMENTS: usize = 4;

    /// Random inputs of one element: state, prior residuals, geometry.
    #[derive(Clone)]
    struct ElementInputs {
        fields: [Vec<f64>; 7],
        res: [Vec<f64>; NUM_VARS],
        inv_jt: Vec<Mat3>,
        det_w: Vec<f64>,
    }

    impl ElementInputs {
        fn draw(npe: usize, next: &mut impl FnMut() -> f64) -> Self {
            let mut field = || (0..npe).map(|_| next()).collect::<Vec<f64>>();
            let fields = std::array::from_fn(|_| field());
            let res = std::array::from_fn(|_| field());
            let det_w = field();
            let inv_jt = (0..npe)
                .map(|_| Mat3 {
                    m: std::array::from_fn(|_| std::array::from_fn(|_| next())),
                })
                .collect();
            ElementInputs {
                fields,
                res,
                inv_jt,
                det_w,
            }
        }

        /// Loads the inputs into lane `j` of `ws`.
        fn load<L: Lane>(&self, ws: &mut ElementWorkspace<L>, j: usize) {
            let [vx, vy, vz] = &mut ws.vel;
            let dst = [
                &mut ws.rho,
                &mut ws.energy,
                vx,
                vy,
                vz,
                &mut ws.temp,
                &mut ws.pres,
            ];
            for (d, s) in dst.into_iter().zip(&self.fields) {
                for (d, &s) in d.iter_mut().zip(s) {
                    *d.lane_mut(j) = s;
                }
            }
            for (d, s) in ws.res.iter_mut().zip(&self.res) {
                for (d, &s) in d.iter_mut().zip(s) {
                    *d.lane_mut(j) = s;
                }
            }
        }
    }

    /// The batch flux and contraction ([`compute`], as every sweep runs
    /// it) of every element, one four-lane batch at a time, as each
    /// element's residual bits.
    struct KernelJob<'a> {
        basis: &'a HexBasis,
        gas: &'a GasModel,
        kernel: &'a KernelOps,
        elements: &'a [ElementInputs],
    }

    impl LaneJob for KernelJob<'_> {
        type Output = Vec<Vec<u64>>;

        fn run(self) -> Vec<Vec<u64>> {
            let npe = self.basis.nodes_per_element();
            let mut bits = Vec::new();
            for batch in self.elements.chunks(WIDTH) {
                let mut ws = ElementWorkspace::<F64x4>::zeroed(npe);
                let mut geo = LaneGeometry::new(npe);
                for (j, el) in batch.iter().enumerate() {
                    el.load(&mut ws, j);
                    for (dst, src) in geo.inv_jt.iter_mut().zip(&el.inv_jt) {
                        for (d, &s) in dst.iter_mut().flatten().zip(src.m.iter().flatten()) {
                            *d.lane_mut(j) = s;
                        }
                    }
                    for (d, &s) in geo.det_w.iter_mut().zip(&el.det_w) {
                        *d.lane_mut(j) = s;
                    }
                }
                compute(
                    self.gas,
                    self.basis,
                    self.kernel,
                    &mut ws,
                    (&geo.inv_jt[..], &geo.det_w[..]),
                    &mut StageClock::start(None),
                );
                for j in 0..WIDTH {
                    let r = ws.res.iter().flat_map(|r| r.iter().map(|x| x.lane(j)));
                    bits.push(r.map(f64::to_bits).collect());
                }
            }
            bits
        }
    }

    /// The public one-element kernels on each element.
    fn one_element_bits(
        basis: &HexBasis,
        gas: &GasModel,
        kernel: &KernelOps,
        elements: &[ElementInputs],
    ) -> Vec<Vec<u64>> {
        let npe = basis.nodes_per_element();
        elements
            .iter()
            .map(|el| {
                let mut ws = ElementWorkspace::new(npe);
                el.load(&mut ws, 0);
                let geom = GeomRef::new(&el.inv_jt, &el.det_w);
                if gas.mu > 0.0 {
                    fused_flux(&mut ws, gas, basis, geom);
                } else {
                    convective_flux(&mut ws);
                }
                kernel.weak_divergence(&mut ws, basis, geom, 1.0);
                ws.res.iter().flatten().map(|x| x.to_bits()).collect()
            })
            .collect()
    }

    proptest! {
        /// The batch's flux and contraction ([`compute`]: the flux loop
        /// writing `G`, then the contraction of `G`) compute, lane by lane,
        /// the bits the public one-element kernels compute for each
        /// element: fused (viscous) and convective (inviscid) flux plus the
        /// sum-factored and the full-matrix contraction, at orders 1–5 (so
        /// `Runtime(n)` too), on random fields, geometry and prior
        /// residuals — on the baseline instruction set and, when the CPU
        /// reports it, inside the AVX2 entry point.
        #[test]
        fn prop_four_lanes_match_one_lane(
            values in proptest::collection::vec(-3.0f64..3.0, 22 * 216 * ELEMENTS),
            mu in 0.0f64..0.5,
            viscous in proptest::bool::ANY,
        ) {
            let gas = GasModel::air(if viscous { mu } else { 0.0 });
            for order in 1..=5 {
                let basis = HexBasis::new(order).unwrap();
                let npe = basis.nodes_per_element();
                let mut x = values.iter().copied();
                let mut next = || x.next().unwrap();
                let elements: Vec<ElementInputs> =
                    (0..ELEMENTS).map(|_| ElementInputs::draw(npe, &mut next)).collect();
                for path in [KernelPath::SumFactored, KernelPath::FullMatrix] {
                    let kernel = KernelOps::resolve(path, &basis);
                    let reference = one_element_bits(&basis, &gas, &kernel, &elements);
                    let job = || KernelJob {
                        basis: &basis,
                        gas: &gas,
                        kernel: &kernel,
                        elements: &elements,
                    };
                    prop_assert!(job().run() == reference, "order {order} {path}: four lanes");
                    prop_assert!(with_avx2(job()) == reference, "order {order} {path}: dispatched");
                }
            }
        }
    }

    fn tgv_state(mesh: &HexMesh, gas: &GasModel) -> (Conserved, Primitives) {
        let state = TgvConfig::standard().initial_state(mesh);
        let mut prim = Primitives::zeros(mesh.num_nodes());
        prim.update_from(&state, gas);
        (state, prim)
    }

    #[test]
    fn sweep_with_tails_is_bitwise_the_element_loop() {
        // 5, 6 and 7 elements end in padded batches of 1, 2 and 3
        // elements; 27 ends in 3 at order 2.
        for (nx, ny, nz, order) in [(5, 1, 1, 1), (3, 2, 1, 1), (7, 1, 1, 3), (3, 3, 3, 2)] {
            let mesh = BoxMeshBuilder::new()
                .elements(nx, ny, nz)
                .order(order)
                .periodic(false, false, false)
                .build()
                .unwrap();
            let basis = HexBasis::new(order).unwrap();
            let geometry = GeometryCache::build(&mesh, &basis).unwrap();
            for path in [KernelPath::SumFactored, KernelPath::FullMatrix] {
                for gas in [TgvConfig::standard().gas(), GasModel::air(0.0)] {
                    let (state, prim) = tgv_state(&mesh, &gas);
                    let mut swept = Conserved::zeros(mesh.num_nodes());
                    assemble_rhs_into(
                        &mesh, &basis, &gas, &geometry, &state, &prim, path, &mut swept, None,
                    );
                    let ctx = AssemblyContext {
                        mesh: &mesh,
                        basis: &basis,
                        gas: &gas,
                        geometry: &geometry,
                        kernel: path,
                    };
                    let mut looped = Conserved::zeros(mesh.num_nodes());
                    element_loop_into(&ctx, &state, &prim, &mut looped);
                    assert_eq!(
                        swept.to_bit_vec(),
                        looped.to_bit_vec(),
                        "{nx}x{ny}x{nz} order {order} {path} mu {}",
                        gas.mu
                    );
                }
            }
        }
    }

    #[test]
    fn unaligned_list_sweep_is_bitwise_the_element_loop() {
        // Lists of 4k + 3 ids: every odd id (no batch is an aligned group,
        // so each copies its geometry lane by lane), and an aligned group,
        // a batch that starts a group but skips an id, an unaligned
        // contiguous run and a tail. The reference is the element loop on
        // the mesh of the listed elements alone, whose ascending walk is
        // the list order.
        let odd: Vec<u32> = (1..30).step_by(2).collect();
        let mixed = [4u32, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 16, 20, 21, 22];
        for order in [1, 2] {
            let mesh = BoxMeshBuilder::new()
                .elements(5, 3, 2)
                .order(order)
                .periodic(false, false, false)
                .build()
                .unwrap();
            let basis = HexBasis::new(order).unwrap();
            let geometry = GeometryCache::build(&mesh, &basis).unwrap();
            let kernel = KernelOps::resolve(KernelPath::SumFactored, &basis);
            for ids in [&odd[..], &mixed[..]] {
                assert_eq!(ids.len() % 4, 3);
                let connectivity = ids
                    .iter()
                    .flat_map(|&e| mesh.element_nodes(e as usize))
                    .copied()
                    .collect();
                let listed = HexMesh::new(
                    order,
                    mesh.coords().to_vec(),
                    connectivity,
                    Vec::new(),
                    mesh.periodic_extent(),
                )
                .unwrap();
                let listed_geometry = GeometryCache::build(&listed, &basis).unwrap();
                for gas in [TgvConfig::standard().gas(), GasModel::air(0.0)] {
                    let (state, prim) = tgv_state(&mesh, &gas);
                    let mut swept = Conserved::zeros(mesh.num_nodes());
                    let eval = BatchEvaluator {
                        mesh: &mesh,
                        basis: &basis,
                        gas: &gas,
                        geometry: &geometry,
                        conserved: &state,
                        prim: &prim,
                        kernel: &kernel,
                    };
                    eval.sweep(
                        Elements::List(ids),
                        None,
                        &mut ScatterInto {
                            mesh: &mesh,
                            out: &mut swept,
                        },
                    );
                    let ctx = AssemblyContext {
                        mesh: &listed,
                        basis: &basis,
                        gas: &gas,
                        geometry: &listed_geometry,
                        kernel: KernelPath::SumFactored,
                    };
                    let mut looped = Conserved::zeros(mesh.num_nodes());
                    element_loop_into(&ctx, &state, &prim, &mut looped);
                    assert_eq!(
                        swept.to_bit_vec(),
                        looped.to_bit_vec(),
                        "order {order} ids {ids:?} mu {}",
                        gas.mu
                    );
                }
            }
        }
    }
}

//! The element-batch evaluator: the host assembly sweeps run four elements
//! at a time through the lane-generic kernels.
//!
//! A sweep walks a list of elements in batches of `L::WIDTH`. Each batch
//! gathers its elements' state and cached geometry into one
//! lane-interleaved [`ElementWorkspace<L>`] (lane `j` = the batch's `j`-th
//! element; `J⁻ᵀ` and `det·w` are transposed into lanes during the
//! gather), runs the fused flux (or the convective flux when μ = 0) and
//! the contraction once for all lanes, and hands the residuals to a
//! [`ResidualSink`] lane 0, 1, 2, 3 — the list order. A tail of fewer
//! than `L::WIDTH` elements runs as one-lane batches.
//!
//! [`with_lanes`] picks the lane type once per sweep: [`F64x4`] inside
//! the one AVX2 entry point when the CPU reports AVX2, `f64` (one element
//! per batch, no geometry copy) otherwise. On the baseline x86-64
//! instruction set four lanes win at order 1 but not reliably at order 3
//! (0.95–1.05× the one-lane assembly time), so only AVX2 takes them. The
//! [`KernelPath::FullMatrix`](crate::kernels::KernelPath::FullMatrix)
//! validation reference always runs one element at a time.
//!
//! Lanes never mix: every kernel operation acts on each lane alone, in
//! the one-element operation order, and Rust never fuses a multiply and
//! an add, with or without AVX2. A batch therefore computes the same bits
//! per element as a one-element run, and as long as the sink applies the
//! residuals in list order the assembled RHS is bitwise the
//! element-at-a-time loop.

use crate::gas::GasModel;
use crate::kernels::{
    lane_convective_flux, lane_fused_flux, ElementWorkspace, Jacobian, KernelOps, NUM_VARS,
};
use crate::profile::{Phase, PhaseProfiler};
use crate::state::{Conserved, Primitives};
use fem_mesh::geometry::GeometryCache;
use fem_mesh::HexMesh;
use fem_numerics::linalg::Mat3;
use fem_numerics::tensor::{F64x4, HexBasis, Lane};
use std::time::Instant;

/// Most elements one batch holds (the widest [`Lane`]).
const MAX_WIDTH: usize = 4;

/// A lane type the batch evaluator runs on: how a batch's cached geometry
/// reaches the kernels.
pub(crate) trait BatchLane: Lane {
    /// The per-node `J⁻ᵀ` the kernels read.
    type Jacobian: Jacobian<Self>;

    /// The batch's per-node `J⁻ᵀ` and `det·w`: the cache's own slices for
    /// one element, transposed into `buf` for several.
    fn geometry<'a>(
        cache: &'a GeometryCache,
        elements: &[usize],
        buf: &'a mut LaneGeometry<Self>,
    ) -> (&'a [Self::Jacobian], &'a [Self]);
}

/// Lane-interleaved geometry of one batch (left empty for one lane, which
/// reads the cache in place).
pub(crate) struct LaneGeometry<L> {
    inv_jt: Vec<[[L; 3]; 3]>,
    det_w: Vec<L>,
}

impl<L: Lane> LaneGeometry<L> {
    fn new(npe: usize) -> Self {
        let npe = if L::WIDTH > 1 { npe } else { 0 };
        LaneGeometry {
            inv_jt: vec![[[L::ZERO; 3]; 3]; npe],
            det_w: vec![L::ZERO; npe],
        }
    }
}

impl BatchLane for f64 {
    type Jacobian = Mat3;

    #[inline(always)]
    fn geometry<'a>(
        cache: &'a GeometryCache,
        elements: &[usize],
        _buf: &'a mut LaneGeometry<f64>,
    ) -> (&'a [Mat3], &'a [f64]) {
        let geom = cache.element(elements[0]);
        (geom.inv_jt, geom.det_w)
    }
}

impl BatchLane for F64x4 {
    type Jacobian = [[F64x4; 3]; 3];

    #[inline(always)]
    fn geometry<'a>(
        cache: &'a GeometryCache,
        elements: &[usize],
        buf: &'a mut LaneGeometry<F64x4>,
    ) -> (&'a [[[F64x4; 3]; 3]], &'a [F64x4]) {
        let npe = buf.det_w.len();
        let (inv_jt, det_w) = (&mut buf.inv_jt[..npe], &mut buf.det_w[..npe]);
        for (j, &e) in elements.iter().enumerate().take(4) {
            let geom = cache.element(e);
            for (q, (m, &w)) in geom.inv_jt[..npe]
                .iter()
                .zip(&geom.det_w[..npe])
                .enumerate()
            {
                for (dst, src) in inv_jt[q].iter_mut().zip(&m.m) {
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d.lane_mut(j) = s;
                    }
                }
                *det_w[q].lane_mut(j) = w;
            }
        }
        (&buf.inv_jt, &buf.det_w)
    }
}

/// A sweep written once over its [`BatchLane`]; see [`with_lanes`].
pub(crate) trait LaneJob {
    /// What the sweep returns.
    type Output;

    /// Runs the sweep with lane type `L`.
    fn run<L: BatchLane>(self) -> Self::Output;
}

/// Runs `job` with [`F64x4`] lanes when `wide` and the CPU reports AVX2,
/// and with one `f64` lane otherwise.
pub(crate) fn with_lanes<J: LaneJob>(job: J, wide: bool) -> J::Output {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if wide && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `run_avx2` only enables AVX2, which the CPU reports.
        return unsafe { run_avx2(job) };
    }
    job.run::<f64>()
}

/// The AVX2 entry point: `job` with four lanes, every kernel of it
/// inlined here and so compiled for AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn run_avx2<J: LaneJob>(job: J) -> J::Output {
    job.run::<F64x4>()
}

/// Receives each evaluated element's residual, in the sweep's list order.
pub(crate) trait ResidualSink {
    /// Element `e`'s residual: `res[q]` holds the five variables at its
    /// node `q`.
    fn element(&mut self, e: usize, res: &[[f64; NUM_VARS]]);
}

/// Scatter-adds every residual straight into an RHS — the serial sweep.
pub(crate) struct ScatterInto<'a> {
    /// The mesh the element ids index.
    pub mesh: &'a HexMesh,
    /// The assembled RHS.
    pub out: &'a mut Conserved,
}

impl ResidualSink for ScatterInto<'_> {
    fn element(&mut self, e: usize, res: &[[f64; NUM_VARS]]) {
        let out = &mut *self.out;
        for (&n, r) in self.mesh.element_nodes(e).iter().zip(res) {
            let n = n as usize;
            out.rho[n] += r[0];
            out.mom[0][n] += r[1];
            out.mom[1][n] += r[2];
            out.mom[2][n] += r[3];
            out.energy[n] += r[4];
        }
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
    /// attribution of the [`crate::parallel`] module docs. Returns the
    /// lane width of the full batches.
    pub(crate) fn sweep(
        &self,
        elements: Elements<'_>,
        prof: Option<&mut PhaseProfiler>,
        sink: &mut dyn ResidualSink,
    ) -> usize {
        let job = Sweep {
            eval: self,
            elements,
            prof,
            sink,
        };
        // The full-matrix validation reference stays one element at a time.
        let wide = matches!(self.kernel, KernelOps::SumFactored);
        with_lanes(job, wide)
    }

    /// Evaluates one batch, one element per lane, and sinks it lane by
    /// lane through `res`.
    #[inline(always)]
    fn batch<L: BatchLane>(
        &self,
        ids: &[usize],
        ws: &mut ElementWorkspace<L>,
        geo: &mut LaneGeometry<L>,
        res: &mut [[f64; NUM_VARS]],
        clock: &mut StageClock<'_>,
        sink: &mut dyn ResidualSink,
    ) {
        let mut nodes: [&[u32]; MAX_WIDTH] = [&[]; MAX_WIDTH];
        for (n, &e) in nodes.iter_mut().zip(ids) {
            *n = self.mesh.element_nodes(e);
        }
        ws.gather_lanes(&nodes[..ids.len()], self.conserved, self.prim);
        ws.zero_residuals();
        let (inv_jt, det_w) = L::geometry(self.geometry, ids, geo);
        clock.lap(&[Phase::RkOther]);
        if self.gas.mu > 0.0 {
            lane_fused_flux(ws, self.gas, self.basis, inv_jt);
            clock.lap(&[Phase::RkDiffusion]);
            // One contraction serves the convective and viscous halves.
            self.kernel
                .lane_weak_divergence(ws, self.basis, inv_jt, det_w, 1.0);
            clock.lap(&[Phase::RkConvection, Phase::RkDiffusion]);
        } else {
            lane_convective_flux(ws);
            self.kernel
                .lane_weak_divergence(ws, self.basis, inv_jt, det_w, 1.0);
            clock.lap(&[Phase::RkConvection]);
        }
        for (lane, &e) in ids.iter().enumerate() {
            for (q, r) in res.iter_mut().enumerate() {
                *r = ws.residual(lane, q);
            }
            sink.element(e, res);
        }
        clock.lap(&[Phase::RkOther]);
    }
}

/// One sweep of [`BatchEvaluator::sweep`].
struct Sweep<'s, 'a> {
    eval: &'s BatchEvaluator<'a>,
    elements: Elements<'s>,
    prof: Option<&'s mut PhaseProfiler>,
    sink: &'s mut dyn ResidualSink,
}

impl LaneJob for Sweep<'_, '_> {
    type Output = usize;

    #[inline(always)]
    fn run<L: BatchLane>(self) -> usize {
        let Sweep {
            eval,
            elements,
            prof,
            sink,
        } = self;
        let npe = eval.mesh.nodes_per_element();
        let n = elements.len();
        let full = n - n % L::WIDTH;
        let mut ids = [0usize; MAX_WIDTH];
        let mut ws = ElementWorkspace::<L>::zeroed(npe);
        let mut geo = LaneGeometry::<L>::new(npe);
        let mut res = vec![[0.0; NUM_VARS]; npe];
        let mut clock = StageClock::start(prof);
        for start in (0..full).step_by(L::WIDTH) {
            for (j, id) in ids[..L::WIDTH].iter_mut().enumerate() {
                *id = elements.get(start + j);
            }
            let ids = &ids[..L::WIDTH];
            eval.batch(ids, &mut ws, &mut geo, &mut res, &mut clock, sink);
        }
        if full < n {
            let mut ws = ElementWorkspace::<f64>::zeroed(npe);
            let mut geo = LaneGeometry::<f64>::new(npe);
            for i in full..n {
                let ids = &[elements.get(i)];
                eval.batch(ids, &mut ws, &mut geo, &mut res, &mut clock, sink);
            }
        }
        L::WIDTH
    }
}

/// Charges the time since the previous lap to Fig 2 phases; does nothing
/// when the sweep is not profiled.
struct StageClock<'p> {
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
    use crate::kernels::{
        convective_flux, fused_flux, lane_weak_divergence, weak_divergence, KernelPath,
    };
    use crate::oracle::element_loop_into;
    use crate::parallel::assemble_rhs_into;
    use crate::tgv::TgvConfig;
    use fem_mesh::generator::BoxMeshBuilder;
    use fem_mesh::hex::GeomRef;
    use proptest::prelude::*;

    /// Elements in one lane-equivalence case: one four-lane batch.
    const ELEMENTS: usize = 4;

    /// Random inputs of one element: state, prior residuals, geometry.
    #[derive(Clone)]
    struct ElementInputs {
        fields: [Vec<f64>; 8],
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
                &mut ws.mu,
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

    /// The flux and contraction of every element, one `L`-wide batch at a
    /// time, as each element's residual bits.
    struct KernelJob<'a> {
        basis: &'a HexBasis,
        gas: &'a GasModel,
        elements: &'a [ElementInputs],
    }

    impl LaneJob for KernelJob<'_> {
        type Output = Vec<Vec<u64>>;

        fn run<L: BatchLane>(self) -> Vec<Vec<u64>> {
            let npe = self.basis.nodes_per_element();
            let mut bits = Vec::new();
            for batch in self.elements.chunks(L::WIDTH) {
                let mut ws = ElementWorkspace::<L>::zeroed(npe);
                let mut inv_jt = vec![[[L::ZERO; 3]; 3]; npe];
                let mut det_w = vec![L::ZERO; npe];
                for (j, el) in batch.iter().enumerate() {
                    el.load(&mut ws, j);
                    for (dst, src) in inv_jt.iter_mut().zip(&el.inv_jt) {
                        for (d, &s) in dst.iter_mut().flatten().zip(src.m.iter().flatten()) {
                            *d.lane_mut(j) = s;
                        }
                    }
                    for (d, &s) in det_w.iter_mut().zip(&el.det_w) {
                        *d.lane_mut(j) = s;
                    }
                }
                if self.gas.mu > 0.0 {
                    lane_fused_flux(&mut ws, self.gas, self.basis, &inv_jt);
                } else {
                    lane_convective_flux(&mut ws);
                }
                lane_weak_divergence(&mut ws, self.basis, &inv_jt, &det_w, -1.0);
                for j in 0..L::WIDTH {
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
        elements: &[ElementInputs],
    ) -> Vec<Vec<u64>> {
        let npe = basis.nodes_per_element();
        elements
            .iter()
            .map(|el| {
                let mut ws = ElementWorkspace::new(npe);
                el.load(&mut ws, 0);
                let geom = GeomRef {
                    inv_jt: &el.inv_jt,
                    det_w: &el.det_w,
                };
                if gas.mu > 0.0 {
                    fused_flux(&mut ws, gas, basis, geom);
                } else {
                    convective_flux(&mut ws);
                }
                weak_divergence(&mut ws, basis, geom, -1.0);
                ws.res.iter().flatten().map(|x| x.to_bits()).collect()
            })
            .collect()
    }

    fn avx2() -> bool {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        return std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        false
    }

    proptest! {
        /// Four lanes compute, lane by lane, the bits the one-element
        /// kernels compute for each element: fused (viscous) and
        /// convective (inviscid) flux plus the contraction, at orders 1–5
        /// (so `Runtime(n)` too), on random fields, geometry and prior
        /// residuals — on the baseline instruction set and, when the CPU
        /// reports it, inside the AVX2 entry point.
        #[test]
        fn prop_four_lanes_match_one_lane(
            values in proptest::collection::vec(-3.0f64..3.0, 23 * 216 * ELEMENTS),
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
                let reference = one_element_bits(&basis, &gas, &elements);
                let job = || KernelJob { basis: &basis, gas: &gas, elements: &elements };
                prop_assert!(job().run::<f64>() == reference, "order {order}: one lane");
                prop_assert!(job().run::<F64x4>() == reference, "order {order}: four lanes");
                prop_assert!(with_lanes(job(), true) == reference, "order {order}: dispatched");
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
        // 5, 6 and 7 elements leave tails of 1, 2 and 3 after the
        // four-lane batches; 27 leaves 3 at order 2.
        for (nx, ny, nz, order) in [(5, 1, 1, 1), (3, 2, 1, 1), (7, 1, 1, 3), (3, 3, 3, 2)] {
            let mesh = BoxMeshBuilder::new()
                .elements(nx, ny, nz)
                .order(order)
                .periodic(false, false, false)
                .build()
                .unwrap();
            let basis = HexBasis::new(order).unwrap();
            let geometry = GeometryCache::build(&mesh, &basis).unwrap();
            for gas in [TgvConfig::standard().gas(), GasModel::air(0.0)] {
                let (state, prim) = tgv_state(&mesh, &gas);
                let mut swept = Conserved::zeros(mesh.num_nodes());
                assemble_rhs_into(
                    &mesh,
                    &basis,
                    &gas,
                    &geometry,
                    &state,
                    &prim,
                    KernelPath::SumFactored,
                    &mut swept,
                    None,
                );
                let ctx = AssemblyContext {
                    mesh: &mesh,
                    basis: &basis,
                    gas: &gas,
                    geometry: &geometry,
                    kernel: KernelPath::SumFactored,
                };
                let mut looped = Conserved::zeros(mesh.num_nodes());
                element_loop_into(&ctx, &state, &prim, &mut looped);
                assert_eq!(
                    swept.to_bit_vec(),
                    looped.to_bit_vec(),
                    "{nx}x{ny}x{nz} order {order} mu {}",
                    gas.mu
                );
            }
        }
    }

    #[test]
    fn sweep_runs_four_lanes_whenever_the_cpu_has_avx2() {
        let mesh = BoxMeshBuilder::tgv_box(3).build().unwrap();
        let basis = HexBasis::new(1).unwrap();
        let gas = TgvConfig::standard().gas();
        let geometry = GeometryCache::build(&mesh, &basis).unwrap();
        let (state, prim) = tgv_state(&mesh, &gas);
        let mut out = Conserved::zeros(mesh.num_nodes());
        for (path, wide) in [
            (KernelPath::SumFactored, true),
            (KernelPath::FullMatrix, false),
        ] {
            let kernel = KernelOps::resolve(path, &basis);
            let eval = BatchEvaluator {
                mesh: &mesh,
                basis: &basis,
                gas: &gas,
                geometry: &geometry,
                conserved: &state,
                prim: &prim,
                kernel: &kernel,
            };
            let lanes = eval.sweep(
                Elements::All(mesh.num_elements()),
                None,
                &mut ScatterInto {
                    mesh: &mesh,
                    out: &mut out,
                },
            );
            let expected = if wide && avx2() { 4 } else { 1 };
            assert_eq!(lanes, expected, "{path}");
        }
    }
}

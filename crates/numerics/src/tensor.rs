//! Tensor-product index arithmetic for hexahedral spectral elements.
//!
//! A hexahedral element of polynomial order `p` carries `(p+1)³` nodes laid
//! out on the tensor product of 1D GLL nodes. Derivatives along each
//! reference direction are 1D differentiation-matrix applications along the
//! corresponding index line — the structure the accelerator's
//! "COMPUTE Gradients" stage exploits.
//!
//! The element loop nests are written once, generic over a [`NodeCount`]:
//! [`HexBasis::with_node_count`] runs them with a [`Fixed`] node count for
//! orders 1–4, so the compiler sees constant trip counts (unrolled lines,
//! no per-access bounds checks), and with a [`Runtime`] one above that.
//! Every instantiation executes the same operations in the same order, so
//! the results are bitwise identical whichever one runs.
//!
//! The same loop nests are also generic over a [`Lane`]: `f64` carries one
//! element's value per node, [`F64x4`] the values of four elements side
//! by side. Every [`F64x4`] operation is four independent `f64`
//! operations, one per lane, and Rust never contracts a multiply and an
//! add into a fused multiply-add, so each lane of a four-element run
//! holds exactly the bits the one-element run computes for that element.

use crate::lagrange::LagrangeBasis;
use crate::linalg::Vec3;
use crate::quadrature::GllRule;
use crate::NumericsError;
use std::ops::{Add, AddAssign, Mul, Sub};

/// The nodes per direction `n` of a tensor-product loop nest, as a type.
pub trait NodeCount: Copy {
    /// The node count `n = p + 1`.
    fn get(self) -> usize;
}

/// A node count known at compile time.
#[derive(Debug, Clone, Copy)]
pub struct Fixed<const N: usize>;

impl<const N: usize> NodeCount for Fixed<N> {
    #[inline(always)]
    fn get(self) -> usize {
        N
    }
}

/// A node count read at run time.
#[derive(Debug, Clone, Copy)]
pub struct Runtime(pub usize);

impl NodeCount for Runtime {
    #[inline(always)]
    fn get(self) -> usize {
        self.0
    }
}

/// The per-node value of a group of elements evaluated side by side: `f64`
/// for one element, [`F64x4`] for four. Arithmetic acts lane by lane.
pub trait Lane:
    Copy + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self> + AddAssign
{
    /// Elements per lane group.
    const WIDTH: usize;
    /// Zero in every lane.
    const ZERO: Self;

    /// `x` in every lane.
    fn splat(x: f64) -> Self;

    /// The value of lane `i`.
    fn lane(self, i: usize) -> f64;

    /// Lane `i`, to write.
    fn lane_mut(&mut self, i: usize) -> &mut f64;

    /// The group whose lane `i` is `f(i)`.
    fn from_fn(f: impl FnMut(usize) -> f64) -> Self;
}

impl Lane for f64 {
    const WIDTH: usize = 1;
    const ZERO: f64 = 0.0;

    #[inline(always)]
    fn splat(x: f64) -> f64 {
        x
    }

    #[inline(always)]
    fn lane(self, _i: usize) -> f64 {
        self
    }

    #[inline(always)]
    fn lane_mut(&mut self, _i: usize) -> &mut f64 {
        self
    }

    #[inline(always)]
    fn from_fn(mut f: impl FnMut(usize) -> f64) -> f64 {
        f(0)
    }
}

/// Four `f64` lanes, one per element of a four-element batch.
///
/// Plain array arithmetic: the compiler maps it to one 256-bit vector
/// operation where AVX2 is enabled and to two 128-bit ones on the
/// baseline x86-64 instruction set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C, align(32))]
pub struct F64x4(pub [f64; 4]);

impl Lane for F64x4 {
    const WIDTH: usize = 4;
    const ZERO: F64x4 = F64x4([0.0; 4]);

    #[inline(always)]
    fn splat(x: f64) -> F64x4 {
        F64x4([x; 4])
    }

    #[inline(always)]
    fn lane(self, i: usize) -> f64 {
        self.0[i]
    }

    #[inline(always)]
    fn lane_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }

    #[inline(always)]
    fn from_fn(f: impl FnMut(usize) -> f64) -> F64x4 {
        F64x4(std::array::from_fn(f))
    }
}

impl Add for F64x4 {
    type Output = F64x4;
    #[inline(always)]
    fn add(self, o: F64x4) -> F64x4 {
        let (a, b) = (self.0, o.0);
        F64x4([a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]])
    }
}

impl Sub for F64x4 {
    type Output = F64x4;
    #[inline(always)]
    fn sub(self, o: F64x4) -> F64x4 {
        let (a, b) = (self.0, o.0);
        F64x4([a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]])
    }
}

impl Mul for F64x4 {
    type Output = F64x4;
    #[inline(always)]
    fn mul(self, o: F64x4) -> F64x4 {
        let (a, b) = (self.0, o.0);
        F64x4([a[0] * b[0], a[1] * b[1], a[2] * b[2], a[3] * b[3]])
    }
}

impl AddAssign for F64x4 {
    #[inline(always)]
    fn add_assign(&mut self, o: F64x4) {
        *self = *self + o;
    }
}

/// An element loop nest written once over its [`NodeCount`]; see
/// [`HexBasis::with_node_count`].
pub trait NodeKernel {
    /// What the loop nest returns.
    type Output;

    /// Runs the loop nest with `n` nodes per direction.
    fn run<N: NodeCount>(self, n: N) -> Self::Output;
}

/// Node numbering and reference-space operators of a hexahedral element
/// of a given polynomial order.
///
/// Nodes are numbered lexicographically: `flat = i + n*(j + n*k)` where
/// `i/j/k` run along reference directions ξ/η/ζ and `n = order + 1`.
///
/// # Example
///
/// ```
/// use fem_numerics::tensor::HexBasis;
/// let hex = HexBasis::new(1).unwrap(); // trilinear, 8 nodes
/// assert_eq!(hex.nodes_per_element(), 8);
/// assert_eq!(hex.flat_index(1, 1, 1), 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HexBasis {
    order: usize,
    rule: GllRule,
    basis: LagrangeBasis,
    /// 1D differentiation matrix, row-major `(n × n)`.
    dmat: Vec<f64>,
}

impl HexBasis {
    /// Largest supported polynomial order, pinned by the quadrature layer:
    /// an order-`p` basis needs a `(p+1)`-point GLL rule, so the ceiling is
    /// [`GllRule::MAX_POINTS`]` - 1`.
    pub const MAX_ORDER: usize = GllRule::MAX_POINTS - 1;

    /// Builds the hex basis of polynomial order `order ≥ 1` on GLL nodes.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::OrderTooLow`] if `order == 0` and
    /// [`NumericsError::OrderTooHigh`] if
    /// `order > `[`MAX_ORDER`](Self::MAX_ORDER). Both speak in *order*
    /// terms — what the caller asked for — not the node counts the
    /// downstream `GllRule`/`LagrangeBasis` checks would quote.
    pub fn new(order: usize) -> Result<Self, NumericsError> {
        if order == 0 {
            // Report the order actually requested and the order floor —
            // not the node counts GllRule/LagrangeBasis would quote.
            return Err(NumericsError::OrderTooLow {
                requested: 0,
                minimum: 1,
            });
        }
        if order > Self::MAX_ORDER {
            // Same principle for the ceiling: name the order maximum, not
            // the (order+1)-node quadrature cap GllRule would report.
            return Err(NumericsError::OrderTooHigh {
                requested: order,
                maximum: Self::MAX_ORDER,
            });
        }
        let rule = GllRule::new(order + 1)?;
        let basis = LagrangeBasis::new(rule.points().to_vec())?;
        let dmat = basis.differentiation_matrix();
        Ok(HexBasis {
            order,
            rule,
            basis,
            dmat,
        })
    }

    /// Polynomial order `p`.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Nodes per direction, `n = p + 1`.
    pub fn nodes_per_dim(&self) -> usize {
        self.order + 1
    }

    /// Total nodes per element, `n³`.
    pub fn nodes_per_element(&self) -> usize {
        let n = self.nodes_per_dim();
        n * n * n
    }

    /// The underlying 1D GLL rule.
    pub fn rule(&self) -> &GllRule {
        &self.rule
    }

    /// The underlying 1D Lagrange basis.
    pub fn basis(&self) -> &LagrangeBasis {
        &self.basis
    }

    /// The 1D differentiation matrix, row-major.
    pub fn dmat(&self) -> &[f64] {
        &self.dmat
    }

    /// The 1D GLL points — one factor of the tensor-product node layout.
    ///
    /// Together with [`weights_1d`](Self::weights_1d),
    /// [`dmat`](Self::dmat), and the
    /// [`flat_index`](Self::flat_index)/[`ijk`](Self::ijk) map, this is the
    /// complete tensor-product structure a sum-factorized kernel needs: the
    /// 3D operator never has to be materialized, because every directional
    /// derivative is the 1D matrix applied along one index line.
    pub fn points_1d(&self) -> &[f64] {
        self.rule.points()
    }

    /// The 1D GLL quadrature weights; the 3D weight at `(i, j, k)` is the
    /// product `w_i w_j w_k` (see [`weight_3d`](Self::weight_3d)).
    pub fn weights_1d(&self) -> &[f64] {
        self.rule.weights()
    }

    /// Lexicographic flattening `(i, j, k) → flat`.
    pub fn flat_index(&self, i: usize, j: usize, k: usize) -> usize {
        let n = self.nodes_per_dim();
        debug_assert!(i < n && j < n && k < n);
        i + n * (j + n * k)
    }

    /// Inverse of [`flat_index`](Self::flat_index).
    pub fn ijk(&self, flat: usize) -> (usize, usize, usize) {
        let n = self.nodes_per_dim();
        let i = flat % n;
        let j = (flat / n) % n;
        let k = flat / (n * n);
        (i, j, k)
    }

    /// 3D quadrature weight at node `(i, j, k)`: `w_i w_j w_k`.
    pub fn weight_3d(&self, i: usize, j: usize, k: usize) -> f64 {
        let w = self.rule.weights();
        w[i] * w[j] * w[k]
    }

    /// Reference coordinates `(ξ, η, ζ)` of node `(i, j, k)`.
    pub fn ref_coords(&self, i: usize, j: usize, k: usize) -> Vec3 {
        let x = self.rule.points();
        Vec3::new(x[i], x[j], x[k])
    }

    /// Runs `kernel` with this basis' node count: [`Fixed`] for orders
    /// 1–4, [`Runtime`] above. The one place an element loop nest is
    /// specialized to the order.
    ///
    /// Always inlined, like the loop nests behind it, so a caller compiled
    /// for a wider instruction set (an AVX2 entry point running [`F64x4`]
    /// lanes) compiles the whole loop nest for that set.
    #[inline(always)]
    pub fn with_node_count<K: NodeKernel>(&self, kernel: K) -> K::Output {
        match self.nodes_per_dim() {
            2 => kernel.run(Fixed::<2>),
            3 => kernel.run(Fixed::<3>),
            4 => kernel.run(Fixed::<4>),
            5 => kernel.run(Fixed::<5>),
            n => kernel.run(Runtime(n)),
        }
    }

    /// Gradient of a nodal scalar field in *reference* coordinates at every
    /// node: `out[q] = (∂f/∂ξ, ∂f/∂η, ∂f/∂ζ)` at node `q`.
    ///
    /// `field` and `out` are indexed by flat node index.
    ///
    /// # Panics
    ///
    /// Panics if slices are not `nodes_per_element()` long.
    pub fn reference_gradient(&self, field: &[f64], out: &mut [Vec3]) {
        self.lane_gradient(field, out);
    }

    /// [`reference_gradient`](Self::reference_gradient) of every lane of
    /// a lane-interleaved field at once: `out[q]` holds `(∂f/∂ξ, ∂f/∂η,
    /// ∂f/∂ζ)` at node `q`, lane by lane. The one-lane `f64` run is
    /// `reference_gradient`.
    ///
    /// # Panics
    ///
    /// Panics if slices are not `nodes_per_element()` long.
    #[inline(always)]
    pub fn lane_gradient<L: Lane, O: From<[L; 3]>>(&self, field: &[L], out: &mut [O]) {
        let nn = self.nodes_per_element();
        assert_eq!(field.len(), nn, "field length");
        assert_eq!(out.len(), nn, "output length");
        self.with_node_count(Gradient {
            dmat: &self.dmat,
            field,
            out,
        });
    }
}

/// The loop nest of [`HexBasis::lane_gradient`].
struct Gradient<'a, L, O> {
    dmat: &'a [f64],
    field: &'a [L],
    out: &'a mut [O],
}

impl<L: Lane, O: From<[L; 3]>> NodeKernel for Gradient<'_, L, O> {
    type Output = ();

    #[inline(always)]
    fn run<N: NodeCount>(self, n: N) {
        let n = n.get();
        let d = &self.dmat[..n * n];
        let field = &self.field[..n * n * n];
        let out = &mut self.out[..n * n * n];
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let mut g = [L::ZERO; 3];
                    for m in 0..n {
                        g[0] += L::splat(d[i * n + m]) * field[m + n * (j + n * k)];
                        g[1] += L::splat(d[j * n + m]) * field[i + n * (m + n * k)];
                        g[2] += L::splat(d[k * n + m]) * field[i + n * (j + n * m)];
                    }
                    out[i + n * (j + n * k)] = O::from(g);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn vec3_bits(v: &[Vec3]) -> Vec<u64> {
        v.iter()
            .flat_map(|g| [g.x.to_bits(), g.y.to_bits(), g.z.to_bits()])
            .collect()
    }

    /// The gradient loop nest run at node count `n`, as bit patterns.
    fn gradient_bits<N: NodeCount>(hex: &HexBasis, n: N, field: &[f64]) -> Vec<u64> {
        let mut out = vec![Vec3::ZERO; field.len()];
        Gradient {
            dmat: hex.dmat(),
            field,
            out: &mut out,
        }
        .run(n);
        vec3_bits(&out)
    }

    #[test]
    fn order_zero_is_rejected() {
        assert!(HexBasis::new(0).is_err());
    }

    #[test]
    fn order_zero_error_reports_the_actual_request() {
        // Regression: the error used to quote the node counts of the
        // downstream GllRule check (requested 1, minimum 2) instead of
        // the order the caller actually asked for.
        match HexBasis::new(0) {
            Err(NumericsError::OrderTooLow { requested, minimum }) => {
                assert_eq!(requested, 0);
                assert_eq!(minimum, 1);
            }
            other => panic!("expected OrderTooLow, got {other:?}"),
        }
        // GllRule and LagrangeBasis already report their actual inputs.
        match crate::quadrature::GllRule::new(1) {
            Err(NumericsError::OrderTooLow { requested, minimum }) => {
                assert_eq!(requested, 1);
                assert_eq!(minimum, 2);
            }
            other => panic!("expected OrderTooLow, got {other:?}"),
        }
        match crate::lagrange::LagrangeBasis::new(vec![0.5]) {
            Err(NumericsError::OrderTooLow { requested, minimum }) => {
                assert_eq!(requested, 1);
                assert_eq!(minimum, 2);
            }
            other => panic!("expected OrderTooLow, got {other:?}"),
        }
    }

    #[test]
    fn order_above_maximum_error_reports_the_actual_maximum() {
        // Regression, mirror of the order-zero fix: before the cap landed,
        // an over-order request either ran unbounded or would have quoted
        // the downstream GllRule node-count limit. The error must speak in
        // order terms: the order requested and the order maximum.
        match HexBasis::new(HexBasis::MAX_ORDER + 1) {
            Err(NumericsError::OrderTooHigh { requested, maximum }) => {
                assert_eq!(requested, HexBasis::MAX_ORDER + 1);
                assert_eq!(maximum, HexBasis::MAX_ORDER);
            }
            other => panic!("expected OrderTooHigh, got {other:?}"),
        }
        // Far past the cap the message still names the same maximum.
        match HexBasis::new(10_000) {
            Err(NumericsError::OrderTooHigh { requested, maximum }) => {
                assert_eq!(requested, 10_000);
                assert_eq!(maximum, HexBasis::MAX_ORDER);
            }
            other => panic!("expected OrderTooHigh, got {other:?}"),
        }
        // The boundary order itself constructs.
        assert!(HexBasis::new(HexBasis::MAX_ORDER).is_ok());
    }

    #[test]
    fn tensor_structure_accessors_expose_the_1d_factors() {
        let hex = HexBasis::new(3).unwrap();
        assert_eq!(hex.points_1d(), hex.rule().points());
        assert_eq!(hex.weights_1d(), hex.rule().weights());
        let w = hex.weights_1d();
        for k in 0..hex.nodes_per_dim() {
            for j in 0..hex.nodes_per_dim() {
                for i in 0..hex.nodes_per_dim() {
                    assert_eq!(hex.weight_3d(i, j, k), w[i] * w[j] * w[k]);
                }
            }
        }
    }

    #[test]
    fn index_roundtrip() {
        let hex = HexBasis::new(3).unwrap();
        for flat in 0..hex.nodes_per_element() {
            let (i, j, k) = hex.ijk(flat);
            assert_eq!(hex.flat_index(i, j, k), flat);
        }
    }

    #[test]
    fn weights_sum_to_reference_volume() {
        for order in 1..5 {
            let hex = HexBasis::new(order).unwrap();
            let n = hex.nodes_per_dim();
            let mut total = 0.0;
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        total += hex.weight_3d(i, j, k);
                    }
                }
            }
            assert!((total - 8.0).abs() < 1e-11, "order {order}: {total}");
        }
    }

    #[test]
    fn gradient_of_linear_field_is_constant() {
        let hex = HexBasis::new(2).unwrap();
        let nn = hex.nodes_per_element();
        let n = hex.nodes_per_dim();
        let mut field = vec![0.0; nn];
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let p = hex.ref_coords(i, j, k);
                    field[hex.flat_index(i, j, k)] = 2.0 * p.x - 3.0 * p.y + 0.5 * p.z + 1.0;
                }
            }
        }
        let mut grad = vec![Vec3::ZERO; nn];
        hex.reference_gradient(&field, &mut grad);
        for g in grad {
            assert!((g - Vec3::new(2.0, -3.0, 0.5)).norm() < 1e-12);
        }
    }

    #[test]
    fn gradient_of_trilinear_product_field() {
        // f = ξηζ, ∂f = (ηζ, ξζ, ξη): trilinear, exact at order ≥ 1.
        let hex = HexBasis::new(1).unwrap();
        let nn = hex.nodes_per_element();
        let n = hex.nodes_per_dim();
        let mut field = vec![0.0; nn];
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let p = hex.ref_coords(i, j, k);
                    field[hex.flat_index(i, j, k)] = p.x * p.y * p.z;
                }
            }
        }
        let mut grad = vec![Vec3::ZERO; nn];
        hex.reference_gradient(&field, &mut grad);
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let p = hex.ref_coords(i, j, k);
                    let g = grad[hex.flat_index(i, j, k)];
                    let exact = Vec3::new(p.y * p.z, p.x * p.z, p.x * p.y);
                    assert!((g - exact).norm() < 1e-12);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "field length")]
    fn gradient_panics_on_wrong_length() {
        let hex = HexBasis::new(1).unwrap();
        let mut out = vec![Vec3::ZERO; 8];
        hex.reference_gradient(&[0.0; 4], &mut out);
    }

    proptest! {
        /// Gradient is exact for random polynomials of per-direction degree ≤ p.
        #[test]
        fn prop_gradient_exact_for_tensor_polynomials(
            order in 1usize..4,
            ax in -2.0f64..2.0,
            ay in -2.0f64..2.0,
            az in -2.0f64..2.0,
        ) {
            let hex = HexBasis::new(order).unwrap();
            let n = hex.nodes_per_dim();
            let nn = hex.nodes_per_element();
            let p = order as i32;
            let f = |v: Vec3| ax * v.x.powi(p) + ay * v.y.powi(p) + az * v.z.powi(p);
            let df = |v: Vec3| {
                let pf = p as f64;
                Vec3::new(
                    ax * pf * v.x.powi(p - 1),
                    ay * pf * v.y.powi(p - 1),
                    az * pf * v.z.powi(p - 1),
                )
            };
            let mut field = vec![0.0; nn];
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        field[hex.flat_index(i, j, k)] = f(hex.ref_coords(i, j, k));
                    }
                }
            }
            let mut grad = vec![Vec3::ZERO; nn];
            hex.reference_gradient(&field, &mut grad);
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        let g = grad[hex.flat_index(i, j, k)];
                        let exact = df(hex.ref_coords(i, j, k));
                        prop_assert!((g - exact).norm() < 1e-10);
                    }
                }
            }
        }

        /// Every compile-time node count runs the runtime loop nest bit
        /// for bit, and the dispatched `reference_gradient` is that loop.
        #[test]
        fn prop_fixed_node_count_matches_runtime(
            field in proptest::collection::vec(-3.0f64..3.0, 125),
        ) {
            for order in 1..=4 {
                let hex = HexBasis::new(order).unwrap();
                let field = &field[..hex.nodes_per_element()];
                let runtime = gradient_bits(&hex, Runtime(order + 1), field);
                let fixed = match order {
                    1 => gradient_bits(&hex, Fixed::<2>, field),
                    2 => gradient_bits(&hex, Fixed::<3>, field),
                    3 => gradient_bits(&hex, Fixed::<4>, field),
                    _ => gradient_bits(&hex, Fixed::<5>, field),
                };
                prop_assert!(fixed == runtime, "order {order}: Fixed differs from Runtime");
                let mut out = vec![Vec3::ZERO; field.len()];
                hex.reference_gradient(field, &mut out);
                prop_assert!(vec3_bits(&out) == runtime, "order {order}: dispatch differs from Runtime");
            }
        }

        /// Four lanes give, lane by lane, the bits of `reference_gradient`
        /// at orders 1–5.
        #[test]
        fn prop_lanes_match_one_lane(
            values in proptest::collection::vec(-3.0f64..3.0, 216 * 4),
        ) {
            for order in 1..=5 {
                let hex = HexBasis::new(order).unwrap();
                let nn = hex.nodes_per_element();
                let fields: Vec<&[f64]> = (0..4).map(|j| &values[j * 216..][..nn]).collect();
                let lanes: Vec<F64x4> = (0..nn)
                    .map(|q| F64x4(std::array::from_fn(|j| fields[j][q])))
                    .collect();
                let mut out = vec![[F64x4::ZERO; 3]; nn];
                hex.lane_gradient(&lanes, &mut out);
                for (j, field) in fields.iter().enumerate() {
                    let mut one = vec![Vec3::ZERO; nn];
                    hex.reference_gradient(field, &mut one);
                    let lane: Vec<Vec3> = out
                        .iter()
                        .map(|g| Vec3::new(g[0].lane(j), g[1].lane(j), g[2].lane(j)))
                        .collect();
                    prop_assert!(vec3_bits(&lane) == vec3_bits(&one), "order {order} lane {j}");
                }
            }
        }

        /// Gradient is linear in the field.
        #[test]
        fn prop_gradient_linear(
            field_a in proptest::collection::vec(-3.0f64..3.0, 8),
            field_b in proptest::collection::vec(-3.0f64..3.0, 8),
            s in -2.0f64..2.0,
        ) {
            let hex = HexBasis::new(1).unwrap();
            let combined: Vec<f64> = field_a
                .iter()
                .zip(&field_b)
                .map(|(a, b)| a + s * b)
                .collect();
            let mut ga = vec![Vec3::ZERO; 8];
            let mut gb = vec![Vec3::ZERO; 8];
            let mut gc = vec![Vec3::ZERO; 8];
            hex.reference_gradient(&field_a, &mut ga);
            hex.reference_gradient(&field_b, &mut gb);
            hex.reference_gradient(&combined, &mut gc);
            for q in 0..8 {
                prop_assert!((gc[q] - (ga[q] + s * gb[q])).norm() < 1e-10);
            }
        }
    }
}

//! Explicit Runge-Kutta time integration.
//!
//! The paper integrates the semi-discrete FEM system with the classical
//! fourth-order Runge-Kutta method (RK4, §II-B). The integrator here is
//! generic over a [`StateOps`] vector space so the solver can drive its
//! multi-field solution state through it, while tests exercise scalar ODEs.
//!
//! # Low storage
//!
//! [`ExplicitRk`] keeps only the state-sized buffers a step needs:
//!
//! * one **stage state** `y + Σ_j dt·a_ij·k_j`, formed in one pass by
//!   [`StateOps::assign_axpy`] plus one [`StateOps::axpy`] per further
//!   non-zero `a_ij`. A stage whose `a` row is all zero reads `y` itself.
//! * one **accumulator** `acc = y + Σ_i dt·b_i·k_i`, updated right after
//!   stage `i` evaluates `k_i` and swapped into `y` at the end of the step.
//! * only the **stage derivatives a later stage reads**. Derivative `k_m`
//!   lives until the last stage whose `a` row reads it has formed its
//!   state; a stage writes its derivative into a buffer whose previous
//!   derivative is dead by then. The buffer plan is worked out once, in
//!   [`ExplicitRk::new`]: one buffer for Euler, Heun2 and RK4 (each
//!   stage reads only the newest derivative), two for Kutta3 (its last
//!   stage reads `k_0` and `k_1`).
//!
//! Classical RK4 thus holds three state-sized buffers (stage, accumulator,
//! one derivative) instead of five (stage and four derivatives), and makes
//! seven passes over the state per step instead of eleven.
//!
//! The scheme is **bitwise** identical to the full-storage step (copy `y`
//! into the stage, add each `dt·a_ij·k_j`, then add every `dt·b_i·k_i`
//! into `y`): every element sees the same operations on the same operands
//! in the same order. `y + a·x` in one pass is the one rounding of
//! copying `y` and adding `a·x`; a zero `a_ij` or `b_i` is skipped in
//! both; the accumulator starts from `y` and adds the `b_i` terms in stage
//! order, as the full-storage step adds them into `y`; and a stage reading
//! `y` itself reads the same bits as its copy.

/// Vector-space operations an ODE state must support.
///
/// Implemented for `Vec<f64>` and usable for any struct-of-arrays state.
pub trait StateOps: Clone {
    /// Returns a zero state with the same shape as `self`.
    fn zeros_like(&self) -> Self;
    /// Copies `other` into `self` (shapes must match).
    fn copy_from(&mut self, other: &Self);
    /// `self += a * x`.
    fn axpy(&mut self, a: f64, x: &Self);
    /// `self *= a`.
    fn scale(&mut self, a: f64);
    /// `self = y + a * x`: [`StateOps::copy_from`] then
    /// [`StateOps::axpy`], with the same rounding. Override it to make
    /// one pass over the state instead of two.
    fn assign_axpy(&mut self, y: &Self, a: f64, x: &Self) {
        self.copy_from(y);
        self.axpy(a, x);
    }
}

impl StateOps for Vec<f64> {
    fn zeros_like(&self) -> Self {
        vec![0.0; self.len()]
    }

    fn copy_from(&mut self, other: &Self) {
        debug_assert_eq!(self.len(), other.len());
        self.copy_from_slice(other);
    }

    fn axpy(&mut self, a: f64, x: &Self) {
        debug_assert_eq!(self.len(), x.len());
        for (s, &v) in self.iter_mut().zip(x) {
            *s += a * v;
        }
    }

    fn scale(&mut self, a: f64) {
        for s in self.iter_mut() {
            *s *= a;
        }
    }
}

/// A right-hand-side provider `dy/dt = f(t, y)`.
pub trait OdeSystem {
    /// The state type being integrated.
    type State: StateOps;

    /// Evaluates the RHS into `dydt`.
    ///
    /// The solver's implementation of this is exactly the paper's RKL step:
    /// diffusion + convection residual evaluation, preceded by the RKU-style
    /// primitive-variable update.
    fn rhs(&mut self, t: f64, y: &Self::State, dydt: &mut Self::State);
}

/// Butcher tableau of an explicit Runge-Kutta scheme.
///
/// `a` is the strictly lower-triangular stage matrix stored by rows
/// (row `i` has `i` entries), `b` the output weights, `c` the abscissae.
///
/// # Example
///
/// ```
/// use fem_numerics::rk::ButcherTableau;
/// let rk4 = ButcherTableau::rk4();
/// assert_eq!(rk4.stages(), 4);
/// assert!(rk4.is_consistent());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ButcherTableau {
    /// Scheme name for reporting.
    name: &'static str,
    a: Vec<Vec<f64>>,
    b: Vec<f64>,
    c: Vec<f64>,
    order: usize,
}

impl ButcherTableau {
    /// Forward Euler (1 stage, order 1).
    pub fn euler() -> Self {
        ButcherTableau {
            name: "euler",
            a: vec![vec![]],
            b: vec![1.0],
            c: vec![0.0],
            order: 1,
        }
    }

    /// Heun's method (2 stages, order 2).
    pub fn heun2() -> Self {
        ButcherTableau {
            name: "heun2",
            a: vec![vec![], vec![1.0]],
            b: vec![0.5, 0.5],
            c: vec![0.0, 1.0],
            order: 2,
        }
    }

    /// Kutta's third-order method (3 stages, order 3).
    pub fn kutta3() -> Self {
        ButcherTableau {
            name: "kutta3",
            a: vec![vec![], vec![0.5], vec![-1.0, 2.0]],
            b: vec![1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
            c: vec![0.0, 0.5, 1.0],
            order: 3,
        }
    }

    /// The classical RK4 scheme used by the paper (4 stages, order 4).
    pub fn rk4() -> Self {
        ButcherTableau {
            name: "rk4",
            a: vec![vec![], vec![0.5], vec![0.0, 0.5], vec![0.0, 0.0, 1.0]],
            b: vec![1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
            c: vec![0.0, 0.5, 0.5, 1.0],
            order: 4,
        }
    }

    /// Scheme name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.b.len()
    }

    /// Formal order of accuracy.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Stage matrix row `i` (length `i`).
    pub fn a_row(&self, i: usize) -> &[f64] {
        &self.a[i]
    }

    /// Output weights.
    pub fn b(&self) -> &[f64] {
        &self.b
    }

    /// Abscissae.
    pub fn c(&self) -> &[f64] {
        &self.c
    }

    /// Checks the row-sum condition `c_i = Σ_j a_ij` and `Σ b_i = 1`.
    pub fn is_consistent(&self) -> bool {
        let b_ok = (self.b.iter().sum::<f64>() - 1.0).abs() < 1e-12;
        let c_ok = self
            .a
            .iter()
            .zip(&self.c)
            .all(|(row, &ci)| (row.iter().sum::<f64>() - ci).abs() < 1e-12);
        b_ok && c_ok
    }
}

/// An explicit Runge-Kutta integrator with preallocated, low-storage
/// stage buffers (see the [module docs](self)).
///
/// # Example
///
/// Integrate `dy/dt = -y` and compare against `e^{-t}`:
///
/// ```
/// use fem_numerics::rk::{ButcherTableau, ExplicitRk, OdeSystem};
///
/// struct Decay;
/// impl OdeSystem for Decay {
///     type State = Vec<f64>;
///     fn rhs(&mut self, _t: f64, y: &Vec<f64>, dydt: &mut Vec<f64>) {
///         dydt[0] = -y[0];
///     }
/// }
///
/// let mut rk = ExplicitRk::new(ButcherTableau::rk4(), &vec![1.0f64]);
/// let mut y = vec![1.0];
/// let mut sys = Decay;
/// let dt = 0.01;
/// for step in 0..100 {
///     rk.step(&mut sys, step as f64 * dt, dt, &mut y);
/// }
/// assert!((y[0] - (-1.0f64).exp()).abs() < 1e-10);
/// ```
#[derive(Debug, Clone)]
pub struct ExplicitRk<S: StateOps> {
    tableau: ButcherTableau,
    /// `slot[i]`: the buffer of `derivatives` stage `i` writes `k_i` to.
    slot: Vec<usize>,
    derivatives: Vec<S>,
    stage_state: S,
    acc: S,
}

/// The derivative buffer of each stage, and the buffer count: stage `i`
/// takes the first buffer whose derivative no stage after `i − 1` reads
/// (stage `i` forms its state before it writes `k_i`).
fn derivative_slots(tableau: &ButcherTableau) -> (Vec<usize>, usize) {
    let stages = tableau.stages();
    // The last stage whose state reads k_m (m itself if none does).
    let last_read: Vec<usize> = (0..stages)
        .map(|m| {
            (m + 1..stages)
                .rfind(|&i| tableau.a[i][m] != 0.0)
                .unwrap_or(m)
        })
        .collect();
    // The stage whose derivative each buffer holds.
    let mut holder: Vec<usize> = Vec::new();
    let slot = (0..stages)
        .map(|i| match holder.iter().position(|&m| last_read[m] <= i) {
            Some(b) => {
                holder[b] = i;
                b
            }
            None => {
                holder.push(i);
                holder.len() - 1
            }
        })
        .collect();
    (slot, holder.len())
}

impl<S: StateOps> ExplicitRk<S> {
    /// Creates an integrator; `prototype` fixes the state shape for the
    /// preallocated stage buffers.
    pub fn new(tableau: ButcherTableau, prototype: &S) -> Self {
        let (slot, buffers) = derivative_slots(&tableau);
        ExplicitRk {
            tableau,
            slot,
            derivatives: (0..buffers).map(|_| prototype.zeros_like()).collect(),
            stage_state: prototype.zeros_like(),
            acc: prototype.zeros_like(),
        }
    }

    /// The tableau in use.
    pub fn tableau(&self) -> &ButcherTableau {
        &self.tableau
    }

    /// Advances `y` from `t` to `t + dt` in place.
    pub fn step<Sys: OdeSystem<State = S>>(
        &mut self,
        system: &mut Sys,
        t: f64,
        dt: f64,
        y: &mut S,
    ) {
        let ExplicitRk {
            tableau,
            slot,
            derivatives,
            stage_state,
            acc,
        } = self;
        let mut accumulated = false;
        for i in 0..tableau.stages() {
            let mut terms = tableau.a[i].iter().enumerate().filter(|(_, &a)| a != 0.0);
            let stage: &S = match terms.next() {
                None => y,
                Some((j, &aij)) => {
                    stage_state.assign_axpy(y, dt * aij, &derivatives[slot[j]]);
                    for (j, &aij) in terms {
                        stage_state.axpy(dt * aij, &derivatives[slot[j]]);
                    }
                    stage_state
                }
            };
            let k = &mut derivatives[slot[i]];
            system.rhs(t + tableau.c[i] * dt, stage, k);
            let bi = tableau.b[i];
            if bi != 0.0 {
                if accumulated {
                    acc.axpy(dt * bi, k);
                } else {
                    acc.assign_axpy(y, dt * bi, k);
                    accumulated = true;
                }
            }
        }
        if accumulated {
            std::mem::swap(y, acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    struct Decay {
        lambda: f64,
    }

    impl OdeSystem for Decay {
        type State = Vec<f64>;
        fn rhs(&mut self, _t: f64, y: &Vec<f64>, dydt: &mut Vec<f64>) {
            for (d, &v) in dydt.iter_mut().zip(y) {
                *d = -self.lambda * v;
            }
        }
    }

    struct Oscillator;

    impl OdeSystem for Oscillator {
        type State = Vec<f64>;
        fn rhs(&mut self, _t: f64, y: &Vec<f64>, dydt: &mut Vec<f64>) {
            dydt[0] = y[1];
            dydt[1] = -y[0];
        }
    }

    /// The full-storage step the low-storage [`ExplicitRk::step`] must
    /// reproduce bit for bit: every stage derivative kept, each stage
    /// state copied from `y` before its `dt·a_ij·k_j` terms are added, and
    /// every `dt·b_i·k_i` added into `y` at the end.
    fn full_storage_step<Sys: OdeSystem>(
        tableau: &ButcherTableau,
        system: &mut Sys,
        t: f64,
        dt: f64,
        y: &mut Sys::State,
    ) {
        let stages = tableau.stages();
        let mut k: Vec<Sys::State> = (0..stages).map(|_| y.zeros_like()).collect();
        let mut stage_state = y.zeros_like();
        for i in 0..stages {
            stage_state.copy_from(y);
            for (j, &aij) in tableau.a_row(i).iter().enumerate() {
                if aij != 0.0 {
                    stage_state.axpy(dt * aij, &k[j]);
                }
            }
            system.rhs(t + tableau.c()[i] * dt, &stage_state, &mut k[i]);
        }
        for (i, &bi) in tableau.b().iter().enumerate() {
            if bi != 0.0 {
                y.axpy(dt * bi, &k[i]);
            }
        }
    }

    /// A nonlinear, non-autonomous three-component system (a forced
    /// Lorenz-like flow), so every stage term reaches every component.
    /// It logs the bits of every stage time and stage state it is called
    /// with: a stage state that differs in one ulp may round away in the
    /// step's output, but not in the log.
    #[derive(Default)]
    struct Forced {
        seen: Vec<u64>,
    }

    impl OdeSystem for Forced {
        type State = Vec<f64>;
        fn rhs(&mut self, t: f64, y: &Vec<f64>, dydt: &mut Vec<f64>) {
            self.seen.push(t.to_bits());
            self.seen.extend(y.iter().map(|v| v.to_bits()));
            dydt[0] = 10.0 * (y[1] - y[0]) + t.sin();
            dydt[1] = y[0] * (28.0 - y[2]) - y[1];
            dydt[2] = y[0] * y[1] - 8.0 / 3.0 * y[2] + 0.1 * t * y[2] * y[2];
        }
    }

    fn all_tableaus() -> [ButcherTableau; 4] {
        [
            ButcherTableau::euler(),
            ButcherTableau::heun2(),
            ButcherTableau::kutta3(),
            ButcherTableau::rk4(),
        ]
    }

    #[test]
    fn low_storage_matches_full_storage_bit_for_bit() {
        for tableau in all_tableaus() {
            let y0 = vec![1.0, 1.5, 20.0];
            let mut low = y0.clone();
            let mut full = y0;
            let (mut low_sys, mut full_sys) = (Forced::default(), Forced::default());
            let mut rk = ExplicitRk::new(tableau.clone(), &low);
            let dt = 1.0e-3;
            for s in 0..400 {
                let t = s as f64 * dt;
                rk.step(&mut low_sys, t, dt, &mut low);
                full_storage_step(&tableau, &mut full_sys, t, dt, &mut full);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&low), bits(&full), "{} step {s}", tableau.name());
                assert!(
                    low_sys.seen == full_sys.seen,
                    "{} step {s}: stage inputs",
                    tableau.name()
                );
            }
            assert_eq!(low_sys.seen.len(), 400 * tableau.stages() * 4);
            assert!(low.iter().all(|v| v.is_finite()), "{}", tableau.name());
        }
    }

    #[test]
    fn only_the_derivatives_a_later_stage_reads_are_kept() {
        for (tableau, buffers) in all_tableaus().into_iter().zip([1, 1, 2, 1]) {
            let rk = ExplicitRk::new(tableau, &vec![0.0; 3]);
            assert_eq!(rk.derivatives.len(), buffers, "{}", rk.tableau().name());
            assert_eq!(rk.slot.len(), rk.tableau().stages());
        }
        // Kutta3's last stage reads k0 and k1, so they take two buffers,
        // and k2 reuses the first once its state is formed.
        let rk = ExplicitRk::new(ButcherTableau::kutta3(), &vec![0.0]);
        assert_eq!(rk.slot, vec![0, 1, 0]);
    }

    #[test]
    fn default_assign_axpy_is_copy_then_axpy() {
        let y = vec![1.0, -2.0, 0.1];
        let x = vec![0.3, 0.7, -1.0 / 3.0];
        let mut a = vec![9.0; 3];
        a.assign_axpy(&y, 0.25, &x);
        let mut b = y.clone();
        b.axpy(0.25, &x);
        assert_eq!(a, b);
    }

    #[test]
    fn all_tableaus_are_consistent() {
        for t in all_tableaus() {
            assert!(t.is_consistent(), "{} inconsistent", t.name());
            assert_eq!(t.a.len(), t.stages());
            assert_eq!(t.c().len(), t.stages());
            for (i, row) in t.a.iter().enumerate() {
                assert_eq!(row.len(), i, "{}: row {i} length", t.name());
            }
        }
    }

    fn integrate_decay(tableau: ButcherTableau, dt: f64, t_end: f64) -> f64 {
        let mut sys = Decay { lambda: 1.0 };
        let mut y = vec![1.0];
        let mut rk = ExplicitRk::new(tableau, &y);
        let steps = (t_end / dt).round() as usize;
        for s in 0..steps {
            rk.step(&mut sys, s as f64 * dt, dt, &mut y);
        }
        y[0]
    }

    #[test]
    fn observed_convergence_orders() {
        // Halving dt should reduce error by ~2^order.
        for tableau in all_tableaus() {
            let order = tableau.order() as f64;
            let exact = (-1.0f64).exp();
            let e1 = (integrate_decay(tableau.clone(), 0.1, 1.0) - exact).abs();
            let e2 = (integrate_decay(tableau.clone(), 0.05, 1.0) - exact).abs();
            let observed = (e1 / e2).log2();
            assert!(
                (observed - order).abs() < 0.35,
                "{}: observed order {observed}, expected {order}",
                tableau.name()
            );
        }
    }

    #[test]
    fn rk4_conserves_oscillator_energy_well() {
        let mut sys = Oscillator;
        let mut y = vec![1.0, 0.0];
        let mut rk = ExplicitRk::new(ButcherTableau::rk4(), &y);
        let dt = 0.01;
        for s in 0..10_000 {
            rk.step(&mut sys, s as f64 * dt, dt, &mut y);
        }
        let energy = y[0] * y[0] + y[1] * y[1];
        assert!((energy - 1.0).abs() < 1e-8, "energy drift: {energy}");
    }

    #[test]
    fn vec_state_ops() {
        let a = vec![1.0, 2.0, 3.0];
        let mut b = a.zeros_like();
        assert_eq!(b, vec![0.0; 3]);
        b.copy_from(&a);
        assert_eq!(b, a);
        b.axpy(2.0, &a);
        assert_eq!(b, vec![3.0, 6.0, 9.0]);
        b.scale(0.5);
        assert_eq!(b, vec![1.5, 3.0, 4.5]);
    }

    #[test]
    fn rk4_fourth_order_on_scalar_nonlinear_ode() {
        // y' = -y², y(0) = 1 has the exact solution y(t) = 1/(1+t). A
        // nonlinear right-hand side exercises all four stages (for linear
        // ODEs some order conditions collapse). Fit the convergence slope
        // over three dt halvings: RK4 must show ~4th order.
        struct Riccati;
        impl OdeSystem for Riccati {
            type State = Vec<f64>;
            fn rhs(&mut self, _t: f64, y: &Vec<f64>, dydt: &mut Vec<f64>) {
                dydt[0] = -y[0] * y[0];
            }
        }
        let integrate = |dt: f64| -> f64 {
            let mut sys = Riccati;
            let mut y = vec![1.0];
            let mut rk = ExplicitRk::new(ButcherTableau::rk4(), &y);
            let steps = (1.0 / dt).round() as usize;
            for s in 0..steps {
                rk.step(&mut sys, s as f64 * dt, dt, &mut y);
            }
            y[0]
        };
        let exact = 0.5; // 1/(1+1)
        let errs: Vec<f64> = [0.1, 0.05, 0.025]
            .iter()
            .map(|&dt| (integrate(dt) - exact).abs())
            .collect();
        for pair in errs.windows(2) {
            let observed = (pair[0] / pair[1]).log2();
            // 0.4 of slack absorbs the higher-order terms still visible
            // at dt = 0.1 on this problem.
            assert!(
                (observed - 4.0).abs() < 0.4,
                "observed order {observed}, errors {errs:?}"
            );
        }
    }

    proptest! {
        /// Linearity of the flow for the scalar linear ODE: integrating a
        /// scaled initial condition scales the result.
        #[test]
        fn prop_linear_ode_flow_is_linear(scale in 0.1f64..10.0, lambda in 0.1f64..3.0) {
            let mut sys = Decay { lambda };
            let dt = 0.02;
            let mut y1 = vec![1.0];
            let mut y2 = vec![scale];
            let mut rk = ExplicitRk::new(ButcherTableau::rk4(), &y1);
            for s in 0..50 {
                rk.step(&mut sys, s as f64 * dt, dt, &mut y1);
            }
            let mut rk2 = ExplicitRk::new(ButcherTableau::rk4(), &y2);
            for s in 0..50 {
                rk2.step(&mut sys, s as f64 * dt, dt, &mut y2);
            }
            prop_assert!((y2[0] - scale * y1[0]).abs() < 1e-10 * scale.max(1.0));
        }

        /// RK4 on decay stays within the analytic solution's envelope.
        #[test]
        fn prop_rk4_decay_accurate(lambda in 0.1f64..5.0) {
            let mut sys = Decay { lambda };
            let mut y = vec![1.0];
            let dt = 0.01;
            let mut rk = ExplicitRk::new(ButcherTableau::rk4(), &y);
            for s in 0..100 {
                rk.step(&mut sys, s as f64 * dt, dt, &mut y);
            }
            let exact = (-lambda).exp();
            prop_assert!((y[0] - exact).abs() < 1e-7);
        }
    }
}

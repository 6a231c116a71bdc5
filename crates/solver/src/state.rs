//! Solution state: conserved fields (integrated by RK) and the primitive
//! cache (re-evaluated by the RKU kernel each stage).

use crate::gas::GasModel;
use fem_numerics::linalg::Vec3;
use fem_numerics::rk::StateOps;

/// Conserved variables per mesh node: `ρ`, `ρu` (3 components), `E`.
///
/// This is the state vector the Runge-Kutta integrator advances; it forms a
/// vector space through [`StateOps`].
#[derive(Debug, Clone, PartialEq)]
pub struct Conserved {
    /// Density ρ.
    pub rho: Vec<f64>,
    /// Momentum density ρu, one array per component.
    pub mom: [Vec<f64>; 3],
    /// Total energy density E.
    pub energy: Vec<f64>,
}

impl Conserved {
    /// Zero-filled state for `num_nodes` nodes.
    pub fn zeros(num_nodes: usize) -> Self {
        Conserved {
            rho: vec![0.0; num_nodes],
            mom: [
                vec![0.0; num_nodes],
                vec![0.0; num_nodes],
                vec![0.0; num_nodes],
            ],
            energy: vec![0.0; num_nodes],
        }
    }

    /// Zeroes all five fields in place (the RHS accumulators reuse their
    /// allocation across evaluations).
    pub fn set_zero(&mut self) {
        self.rho.iter_mut().for_each(|v| *v = 0.0);
        for d in 0..3 {
            self.mom[d].iter_mut().for_each(|v| *v = 0.0);
        }
        self.energy.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.rho.len()
    }

    /// Whether the state holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.rho.is_empty()
    }

    /// Momentum of node `n` as a vector.
    pub fn momentum(&self, n: usize) -> Vec3 {
        Vec3::new(self.mom[0][n], self.mom[1][n], self.mom[2][n])
    }

    /// Returns true if every node has positive density and internal energy —
    /// the physical-realizability check used by the driver to detect
    /// blow-up. NaN and ±∞ in either count as unphysical.
    ///
    /// Every node is evaluated and the verdicts combined with `&`, with no
    /// early exit, so the loop vectorizes.
    pub fn is_physical(&self) -> bool {
        let n = self.len();
        let (rho, energy) = (&self.rho[..n], &self.energy[..n]);
        let [mx, my, mz] = self.mom.each_ref().map(|m| &m[..n]);
        (0..n).fold(true, |ok, i| {
            let r = rho[i];
            let m = Vec3::new(mx[i], my[i], mz[i]);
            let internal = energy[i] - 0.5 * m.norm_sq() / r;
            ok & (r > 0.0) & r.is_finite() & (internal > 0.0) & internal.is_finite()
        })
    }

    /// Applies `f` to the five field arrays in a fixed order
    /// (ρ, ρu_x, ρu_y, ρu_z, E).
    pub fn for_each_field<F: FnMut(&[f64])>(&self, mut f: F) {
        f(&self.rho);
        f(&self.mom[0]);
        f(&self.mom[1]);
        f(&self.mom[2]);
        f(&self.energy);
    }

    /// Flattens every field to its raw IEEE-754 bits in
    /// [`Conserved::for_each_field`] order — the fingerprint the
    /// bitwise-equivalence tests and studies compare.
    pub fn to_bit_vec(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(5 * self.len());
        self.for_each_field(|f| out.extend(f.iter().map(|x| x.to_bits())));
        out
    }
}

impl StateOps for Conserved {
    fn zeros_like(&self) -> Self {
        Conserved::zeros(self.len())
    }

    fn copy_from(&mut self, other: &Self) {
        self.rho.copy_from_slice(&other.rho);
        for d in 0..3 {
            self.mom[d].copy_from_slice(&other.mom[d]);
        }
        self.energy.copy_from_slice(&other.energy);
    }

    fn axpy(&mut self, a: f64, x: &Self) {
        let apply = |dst: &mut [f64], src: &[f64]| {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += a * s;
            }
        };
        apply(&mut self.rho, &x.rho);
        for d in 0..3 {
            apply(&mut self.mom[d], &x.mom[d]);
        }
        apply(&mut self.energy, &x.energy);
    }

    fn assign_axpy(&mut self, y: &Self, a: f64, x: &Self) {
        let apply = |dst: &mut [f64], y: &[f64], src: &[f64]| {
            for ((d, &y), &s) in dst.iter_mut().zip(y).zip(src) {
                *d = y + a * s;
            }
        };
        apply(&mut self.rho, &y.rho, &x.rho);
        for d in 0..3 {
            apply(&mut self.mom[d], &y.mom[d], &x.mom[d]);
        }
        apply(&mut self.energy, &y.energy, &x.energy);
    }

    fn scale(&mut self, a: f64) {
        let apply = |dst: &mut [f64]| {
            for d in dst.iter_mut() {
                *d *= a;
            }
        };
        apply(&mut self.rho);
        for d in 0..3 {
            apply(&mut self.mom[d]);
        }
        apply(&mut self.energy);
    }
}

/// Primitive variables per node: velocity, temperature and pressure.
///
/// The dynamic viscosity is not stored per node: the gas is constant-μ,
/// so the flux kernels read `GasModel::mu` directly. The accelerator
/// model still streams a per-node `mu_fluid` array (the paper's Fig 4),
/// and counts it among its gather streams
/// ([`GATHER_STREAMS_PER_SHARD`](crate::engine::GATHER_STREAMS_PER_SHARD)).
#[derive(Debug, Clone, PartialEq)]
pub struct Primitives {
    /// Velocity components.
    pub vel: [Vec<f64>; 3],
    /// Temperature.
    pub temp: Vec<f64>,
    /// Pressure.
    pub pressure: Vec<f64>,
}

impl Primitives {
    /// Zero-filled primitives for `num_nodes` nodes.
    pub fn zeros(num_nodes: usize) -> Self {
        Primitives {
            vel: [
                vec![0.0; num_nodes],
                vec![0.0; num_nodes],
                vec![0.0; num_nodes],
            ],
            temp: vec![0.0; num_nodes],
            pressure: vec![0.0; num_nodes],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.temp.len()
    }

    /// Whether the cache holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.temp.is_empty()
    }

    /// Velocity of node `n` as a vector.
    pub fn velocity(&self, n: usize) -> Vec3 {
        Vec3::new(self.vel[0][n], self.vel[1][n], self.vel[2][n])
    }

    /// Re-evaluates every node's primitives from the conserved state —
    /// the paper's **RKU kernel** ("evaluates ρ, u, T, E and p at every
    /// time step", §III-A).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn update_from(&mut self, conserved: &Conserved, gas: &GasModel) {
        assert_eq!(self.len(), conserved.len(), "node count mismatch");
        for n in 0..conserved.len() {
            let rho = conserved.rho[n];
            let (vel, t, p) = gas.primitives(rho, conserved.momentum(n), conserved.energy[n]);
            self.vel[0][n] = vel.x;
            self.vel[1][n] = vel.y;
            self.vel[2][n] = vel.z;
            self.temp[n] = t;
            self.pressure[n] = p;
        }
    }

    /// Maximum velocity magnitude (for CFL estimation).
    pub fn max_speed(&self) -> f64 {
        (0..self.len())
            .map(|n| self.velocity(n).norm())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The early-exit check [`Conserved::is_physical`] must agree with.
    fn is_physical_early_exit(c: &Conserved) -> bool {
        (0..c.len()).all(|n| {
            let rho = c.rho[n];
            if rho <= 0.0 || !rho.is_finite() {
                return false;
            }
            let m = c.momentum(n);
            let internal = c.energy[n] - 0.5 * m.norm_sq() / rho;
            internal > 0.0 && internal.is_finite()
        })
    }

    /// Values that reach every branch of the check: ordinary, tiny, zero
    /// of both signs, negative, huge, infinite and NaN.
    const SPECIAL: [f64; 12] = [
        1.0,
        2.5e5,
        0.3,
        1.0e-300,
        0.0,
        -0.0,
        -1.0,
        -2.5e5,
        1.0e300,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];

    /// A state whose node fields are drawn from [`SPECIAL`], five picks
    /// per `u64`.
    fn special_state(codes: &[u64]) -> Conserved {
        let mut c = Conserved::zeros(codes.len());
        for (n, &code) in codes.iter().enumerate() {
            let pick = |k: u32| SPECIAL[((code >> (8 * k)) % SPECIAL.len() as u64) as usize];
            c.rho[n] = pick(0);
            c.mom[0][n] = pick(1);
            c.mom[1][n] = pick(2);
            c.mom[2][n] = pick(3);
            c.energy[n] = pick(4);
        }
        c
    }

    proptest! {
        /// The branch-free check returns the early-exit check's verdict on
        /// states mixing ordinary, zero, negative, infinite and NaN fields.
        #[test]
        fn prop_is_physical_matches_early_exit(
            codes in proptest::collection::vec(0u64..u64::MAX, 1..9)
        ) {
            let c = special_state(&codes);
            prop_assert_eq!(c.is_physical(), is_physical_early_exit(&c));
        }

        /// The same on physical states with one field of one node spoiled,
        /// so each failure reason is seen on its own.
        #[test]
        fn prop_is_physical_matches_early_exit_one_bad_field(
            nodes in 1usize..12,
            at in 0usize..12,
            field in 0usize..5,
            value in 0usize..12,
        ) {
            let mut c = special_state(&vec![0; nodes]);
            c.energy.fill(10.0);
            let at = at % nodes;
            let v = SPECIAL[value];
            match field {
                0 => c.rho[at] = v,
                4 => c.energy[at] = v,
                d => c.mom[d - 1][at] = v,
            }
            prop_assert_eq!(c.is_physical(), is_physical_early_exit(&c));
        }
    }

    #[test]
    fn assign_axpy_is_copy_then_axpy() {
        let mut y = Conserved::zeros(3);
        let mut x = Conserved::zeros(3);
        for n in 0..3 {
            y.rho[n] = 1.0 + n as f64;
            y.mom[1][n] = -0.1 * n as f64;
            y.energy[n] = 1.0 / 3.0 + n as f64;
            x.rho[n] = 0.7 - n as f64;
            x.mom[2][n] = 1.0 / 7.0;
            x.energy[n] = -2.0e-3;
        }
        let mut one_pass = Conserved::zeros(3);
        one_pass.assign_axpy(&y, 0.1, &x);
        let mut two_pass = y.clone();
        two_pass.axpy(0.1, &x);
        assert_eq!(one_pass.to_bit_vec(), two_pass.to_bit_vec());
    }

    #[test]
    fn state_ops_on_conserved() {
        let mut a = Conserved::zeros(4);
        a.rho = vec![1.0, 2.0, 3.0, 4.0];
        a.energy = vec![10.0, 20.0, 30.0, 40.0];
        let mut b = a.zeros_like();
        assert_eq!(b.len(), 4);
        b.copy_from(&a);
        assert_eq!(b, a);
        b.axpy(0.5, &a);
        assert_eq!(b.rho, vec![1.5, 3.0, 4.5, 6.0]);
        b.scale(2.0);
        assert_eq!(b.energy, vec![30.0, 60.0, 90.0, 120.0]);
    }

    #[test]
    fn physical_check_flags_bad_states() {
        let gas = GasModel::air(0.0);
        let mut c = Conserved::zeros(2);
        c.rho = vec![1.0, 1.0];
        c.energy = vec![
            gas.total_energy(1.0, Vec3::ZERO, 300.0),
            gas.total_energy(1.0, Vec3::ZERO, 300.0),
        ];
        assert!(c.is_physical());
        c.rho[1] = -1.0;
        assert!(!c.is_physical());
        c.rho[1] = 1.0;
        c.energy[1] = -5.0;
        assert!(!c.is_physical());
        c.energy[1] = f64::NAN;
        assert!(!c.is_physical());
        c.energy[1] = f64::INFINITY;
        assert!(!c.is_physical());
        c.energy[1] = c.energy[0];
        assert!(c.is_physical());
        for bad in [0.0, -0.0, f64::INFINITY, f64::NAN] {
            c.rho[1] = bad;
            assert!(!c.is_physical(), "rho = {bad}");
        }
        c.rho[1] = 1.0;
        c.mom[2][1] = f64::INFINITY;
        assert!(!c.is_physical());
        assert!(Conserved::zeros(0).is_physical());
    }

    #[test]
    fn rku_update_matches_gas_model() {
        let gas = GasModel::air(1.8e-5);
        let mut c = Conserved::zeros(3);
        let mut p = Primitives::zeros(3);
        for n in 0..3 {
            let rho = 1.0 + n as f64 * 0.3;
            let vel = Vec3::new(n as f64, -1.0, 0.5);
            let t = 280.0 + 10.0 * n as f64;
            c.rho[n] = rho;
            c.mom[0][n] = rho * vel.x;
            c.mom[1][n] = rho * vel.y;
            c.mom[2][n] = rho * vel.z;
            c.energy[n] = gas.total_energy(rho, vel, t);
        }
        p.update_from(&c, &gas);
        for n in 0..3 {
            let rho = c.rho[n];
            let t = 280.0 + 10.0 * n as f64;
            assert!((p.temp[n] - t).abs() < 1e-9);
            assert!((p.pressure[n] - gas.pressure(rho, t)).abs() < 1e-9);
        }
        assert!(p.max_speed() > 0.0);
    }

    #[test]
    fn field_iteration_order() {
        let c = Conserved::zeros(1);
        let mut count = 0;
        c.for_each_field(|f| {
            assert_eq!(f.len(), 1);
            count += 1;
        });
        assert_eq!(count, 5);
    }
}

//! Flow diagnostics: conservation checks and turbulence statistics.
//!
//! These quantities validate the solver (mass/momentum/energy conservation
//! on periodic domains) and reproduce the classic TGV observables (kinetic
//! energy decay, enstrophy growth) used to sanity-check the physics.
//!
//! Both reductions — the nodal norms and the per-element enstrophy
//! integral — run in parallel via the rayon `fold`/`reduce`/`sum`
//! patterns, each worker taking at least `MIN_NODES_PER_WORKER` nodes
//! (`with_min_len`), so small meshes reduce on the calling thread. The
//! per-chunk accumulators combine in input order, so results are
//! deterministic for a fixed worker count (they regroup, and thus differ
//! in the last bits, only when `available_parallelism` changes). The
//! enstrophy integral reads the precomputed [`GeometryCache`] instead of
//! rebuilding element Jacobians.

use crate::kernels::{resolved, ElementWorkspace, NodeGeometry};
use crate::state::{Conserved, Primitives};
use fem_mesh::geometry::GeometryCache;
use fem_mesh::HexMesh;
use fem_numerics::linalg::{Mat3, Vec3};
use fem_numerics::tensor::HexBasis;
use rayon::prelude::*;

/// Integral diagnostics of a flow state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowDiagnostics {
    /// Simulation time the snapshot was taken at.
    pub time: f64,
    /// `∫ ρ dV`.
    pub total_mass: f64,
    /// `∫ ρu dV`.
    pub total_momentum: Vec3,
    /// `∫ E dV`.
    pub total_energy: f64,
    /// `∫ ½ ρ |u|² dV`.
    pub kinetic_energy: f64,
    /// `∫ ½ ρ |ω|² dV` with vorticity `ω = ∇×u`.
    pub enstrophy: f64,
    /// Maximum velocity magnitude.
    pub max_speed: f64,
    /// Maximum local Mach number.
    pub max_mach: f64,
}

impl FlowDiagnostics {
    /// Computes all diagnostics for the given state.
    ///
    /// The nodal integrals use the assembled lumped mass `mass`
    /// (`mass[n] = Σ_e w det(J)` over elements containing `n`); the
    /// enstrophy integral loops over elements to evaluate per-element
    /// velocity gradients.
    ///
    /// # Panics
    ///
    /// Panics if array lengths are inconsistent with the mesh.
    #[allow(clippy::too_many_arguments)]
    pub fn compute(
        time: f64,
        mesh: &HexMesh,
        basis: &HexBasis,
        gas: &crate::gas::GasModel,
        geometry: &GeometryCache,
        conserved: &Conserved,
        prim: &Primitives,
        mass: &[f64],
    ) -> FlowDiagnostics {
        let nn = mesh.num_nodes();
        assert_eq!(conserved.len(), nn);
        assert_eq!(mass.len(), nn);
        assert_eq!(geometry.num_elements(), mesh.num_elements());

        // Nodal norms: parallel fold over nodes, chunk accumulators
        // combined in input order.
        let nodal = (0..nn)
            .into_par_iter()
            .with_min_len(MIN_NODES_PER_WORKER)
            .fold(NodalAccum::zero, |mut acc, n| {
                let m = mass[n];
                let rho = conserved.rho[n];
                acc.mass += m * rho;
                acc.momentum += m * conserved.momentum(n);
                acc.energy += m * conserved.energy[n];
                let u = prim.velocity(n);
                acc.kinetic += m * 0.5 * rho * u.norm_sq();
                let speed = u.norm();
                acc.max_speed = acc.max_speed.max(speed);
                let c = gas.sound_speed(prim.temp[n]);
                acc.max_mach = acc.max_mach.max(speed / c);
                acc
            })
            .reduce(NodalAccum::zero, NodalAccum::combine);

        // Enstrophy via per-element vorticity: each fold chunk carries
        // its own element workspace, so the hot loop never allocates;
        // geometry is read in place from the cache, and the
        // per-chunk partials combine with the ordered parallel `sum`.
        let npe = mesh.nodes_per_element();
        let enstrophy: f64 = (0..mesh.num_elements())
            .into_par_iter()
            .with_min_len(MIN_NODES_PER_WORKER.div_ceil(npe))
            .fold(
                || EnstrophyAccum::new(npe),
                |mut acc, e| {
                    acc.ws.gather(mesh.element_nodes(e), conserved, prim);
                    basis.reference_gradient(&acc.ws.vel[0], &mut acc.gref[0]);
                    basis.reference_gradient(&acc.ws.vel[1], &mut acc.gref[1]);
                    basis.reference_gradient(&acc.ws.vel[2], &mut acc.gref[2]);
                    resolved!(geometry.element(e), |geom| for q in 0..npe {
                        let inv_jt = Mat3 { m: geom.inv_jt(q) };
                        let l = Mat3::from_rows(
                            inv_jt.mul_vec(acc.gref[0][q]),
                            inv_jt.mul_vec(acc.gref[1][q]),
                            inv_jt.mul_vec(acc.gref[2][q]),
                        );
                        // ω = ∇×u from L[a][b] = ∂u_a/∂x_b.
                        let omega = Vec3::new(
                            l.m[2][1] - l.m[1][2],
                            l.m[0][2] - l.m[2][0],
                            l.m[1][0] - l.m[0][1],
                        );
                        acc.sum += geom.det_w(q) * 0.5 * acc.ws.rho[q] * omega.norm_sq();
                    });
                    acc
                },
            )
            .map(|acc| acc.sum)
            .sum();

        FlowDiagnostics {
            time,
            total_mass: nodal.mass,
            total_momentum: nodal.momentum,
            total_energy: nodal.energy,
            kinetic_energy: nodal.kinetic,
            enstrophy,
            max_speed: nodal.max_speed,
            max_mach: nodal.max_mach,
        }
    }
}

/// Fewest nodes a diagnostics worker handles: below twice this a
/// reduction runs on the calling thread, since spawning a worker costs
/// more than the nodes it would take over.
const MIN_NODES_PER_WORKER: usize = 8192;

/// Per-chunk accumulator of the nodal diagnostics reduction.
#[derive(Debug, Clone, Copy)]
struct NodalAccum {
    mass: f64,
    momentum: Vec3,
    energy: f64,
    kinetic: f64,
    max_speed: f64,
    max_mach: f64,
}

impl NodalAccum {
    fn zero() -> NodalAccum {
        NodalAccum {
            mass: 0.0,
            momentum: Vec3::ZERO,
            energy: 0.0,
            kinetic: 0.0,
            max_speed: 0.0,
            max_mach: 0.0,
        }
    }

    fn combine(a: NodalAccum, b: NodalAccum) -> NodalAccum {
        NodalAccum {
            mass: a.mass + b.mass,
            momentum: a.momentum + b.momentum,
            energy: a.energy + b.energy,
            kinetic: a.kinetic + b.kinetic,
            max_speed: a.max_speed.max(b.max_speed),
            max_mach: a.max_mach.max(b.max_mach),
        }
    }
}

/// Per-chunk state of the enstrophy reduction: the partial integral plus
/// the element workspace, allocated once per worker chunk (geometry
/// comes from the shared cache).
struct EnstrophyAccum {
    ws: ElementWorkspace,
    gref: [Vec<Vec3>; 3],
    sum: f64,
}

impl EnstrophyAccum {
    fn new(npe: usize) -> EnstrophyAccum {
        EnstrophyAccum {
            ws: ElementWorkspace::new(npe),
            gref: [
                vec![Vec3::ZERO; npe],
                vec![Vec3::ZERO; npe],
                vec![Vec3::ZERO; npe],
            ],
            sum: 0.0,
        }
    }
}

impl std::fmt::Display for FlowDiagnostics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "t={:.4e}  mass={:.8e}  KE={:.6e}  enstrophy={:.6e}  max|u|={:.3e}  maxMach={:.3}",
            self.time,
            self.total_mass,
            self.kinetic_energy,
            self.enstrophy,
            self.max_speed,
            self.max_mach
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gas::GasModel;
    use crate::tgv::TgvConfig;
    use fem_mesh::generator::BoxMeshBuilder;

    fn lumped_mass(mesh: &HexMesh, geometry: &GeometryCache) -> Vec<f64> {
        let mut mass = vec![0.0; mesh.num_nodes()];
        for e in 0..mesh.num_elements() {
            let geom = geometry.element(e);
            for (q, &n) in mesh.element_nodes(e).iter().enumerate() {
                mass[n as usize] += geom.det_w(q);
            }
        }
        mass
    }

    #[test]
    fn tgv_diagnostics_match_analytic_values() {
        let mesh = BoxMeshBuilder::tgv_box(12).build().unwrap();
        let basis = HexBasis::new(1).unwrap();
        let cfg = TgvConfig::standard();
        let gas = cfg.gas();
        let conserved = cfg.initial_state(&mesh);
        let mut prim = Primitives::zeros(mesh.num_nodes());
        prim.update_from(&conserved, &gas);
        let geometry = GeometryCache::build(&mesh, &basis).unwrap();
        let mass = lumped_mass(&mesh, &geometry);
        let d = FlowDiagnostics::compute(
            0.0, &mesh, &basis, &gas, &geometry, &conserved, &prim, &mass,
        );
        let vol = std::f64::consts::TAU.powi(3);
        // Mass ≈ ρ0 · V (density perturbation integrates to ~0).
        assert!((d.total_mass - vol).abs() < 2e-2 * vol, "{}", d.total_mass);
        // Zero net momentum by symmetry.
        assert!(d.total_momentum.norm() < 1e-8 * vol);
        // KE ≈ ρ0 v0² π³ (analytic TGV value).
        let ke_exact = std::f64::consts::PI.powi(3);
        assert!(
            (d.kinetic_energy - ke_exact).abs() < 0.02 * ke_exact,
            "KE {} vs {}",
            d.kinetic_energy,
            ke_exact
        );
        // Initial enstrophy of the TGV equals its initial KE density rate:
        // analytic ∫½|ω|² = 3π³ v0²? — check against a dense reference.
        assert!(d.enstrophy > 0.0);
        assert!((d.max_speed - cfg.v0).abs() < 0.05 * cfg.v0);
        assert!((d.max_mach - cfg.mach).abs() < 0.02 * cfg.mach);
    }

    #[test]
    fn parallel_diagnostics_are_deterministic_within_a_process() {
        // Fixed worker count ⇒ fixed fold chunking ⇒ bitwise-equal
        // reductions on repeat evaluation.
        let mesh = BoxMeshBuilder::tgv_box(7).build().unwrap();
        let basis = HexBasis::new(1).unwrap();
        let cfg = TgvConfig::standard();
        let gas = cfg.gas();
        let conserved = cfg.initial_state(&mesh);
        let mut prim = Primitives::zeros(mesh.num_nodes());
        prim.update_from(&conserved, &gas);
        let geometry = GeometryCache::build(&mesh, &basis).unwrap();
        let mass = lumped_mass(&mesh, &geometry);
        let a = FlowDiagnostics::compute(
            0.0, &mesh, &basis, &gas, &geometry, &conserved, &prim, &mass,
        );
        let b = FlowDiagnostics::compute(
            0.0, &mesh, &basis, &gas, &geometry, &conserved, &prim, &mass,
        );
        assert_eq!(a.total_mass.to_bits(), b.total_mass.to_bits());
        assert_eq!(a.kinetic_energy.to_bits(), b.kinetic_energy.to_bits());
        assert_eq!(a.enstrophy.to_bits(), b.enstrophy.to_bits());
        assert_eq!(a.max_speed.to_bits(), b.max_speed.to_bits());
    }

    #[test]
    fn uniform_state_has_zero_enstrophy() {
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let basis = HexBasis::new(1).unwrap();
        let gas = GasModel::air(1e-5);
        let mut conserved = Conserved::zeros(mesh.num_nodes());
        let u = Vec3::new(5.0, 4.0, -3.0);
        for n in 0..mesh.num_nodes() {
            conserved.rho[n] = 1.0;
            conserved.mom[0][n] = u.x;
            conserved.mom[1][n] = u.y;
            conserved.mom[2][n] = u.z;
            conserved.energy[n] = gas.total_energy(1.0, u, 300.0);
        }
        let mut prim = Primitives::zeros(mesh.num_nodes());
        prim.update_from(&conserved, &gas);
        let geometry = GeometryCache::build(&mesh, &basis).unwrap();
        let mass = lumped_mass(&mesh, &geometry);
        let d = FlowDiagnostics::compute(
            0.0, &mesh, &basis, &gas, &geometry, &conserved, &prim, &mass,
        );
        assert!(d.enstrophy.abs() < 1e-10);
        let vol = std::f64::consts::TAU.powi(3);
        assert!((d.total_momentum - u * vol).norm() < 1e-8 * vol);
    }
}

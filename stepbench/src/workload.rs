//! The benchmark's workloads, their seeded inputs and their set-up.
//!
//! In every episode of a run, one simulation of the workload steps back
//! to back in a closed loop, with `Simulation::diagnostics()` every
//! [`DIAG_EVERY`] steps.

use fem_mesh::{HexMesh, SharedMeshContext};
use fem_numerics::linalg::Vec3;
use fem_solver::scenarios::{Scenario, ScenarioKind};
use fem_solver::{AssemblyStrategy, BackendSelect, Conserved, Primitives, Simulation, SolverError};
use std::f64::consts::{PI, TAU};
use std::time::{Duration, Instant};

/// Steps between two `Simulation::diagnostics()` calls.
pub const DIAG_EVERY: usize = 10;

/// Steps per episode. The TGV on the 16³ order-1 mesh blows up after
/// ~700 steps at CFL 0.4 (t ≈ 11), and its invariants require half of the
/// kinetic energy to survive, so a run sets a fresh simulation up every
/// episode instead of stepping into that regime. A multiple of
/// `2 · DIAG_EVERY`, so traced block pairs end on episode boundaries.
pub const EPISODE_STEPS: usize = 200;

/// RK4 steps (plus one diagnostics call) run as warm-up in every set-up.
const WARMUP_STEPS: usize = 3;

/// Peak velocity of the seeded perturbation, as a share of the
/// scenario's velocity scale.
const PERTURBATION: f64 = 0.02;

/// One benchmark workload: a scenario on the serial reference backend.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Stable name, as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
    /// The registry scenario it runs.
    pub scenario: Scenario,
    /// Elements per mesh axis.
    pub edge: usize,
    /// Polynomial order of the elements.
    pub order: usize,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub fn all() -> Vec<Workload> {
        vec![
            Workload {
                name: "tgv-p1-serial",
                why: "single-threaded baseline: gather, flux and scatter dominate; \
                      no fork-join outside the diagnostics reductions",
                scenario: Scenario::taylor_green(),
                edge: 16,
                order: 1,
            },
            Workload {
                name: "cavity-p3-serial",
                why: "order 3 with a Dirichlet BC: the sum-factored contraction dominates \
                      and the geometry cache outgrows one core's L2",
                scenario: Scenario::lid_cavity(),
                edge: 8,
                order: 3,
            },
        ]
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name == name)
    }
}

/// splitmix64: a small, well-mixed generator, so the same seed gives the
/// same inputs on every platform.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> SeedRng {
        SeedRng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The scenario's initial state with a small smooth velocity disturbance
/// drawn from `seed`; density and temperature are kept, so the energy is
/// recomputed from the disturbed velocity.
///
/// * Periodic box: `δu = ε (a₁ sin(y+φ₁), a₂ sin(z+φ₂), a₃ sin(x+φ₃))`,
///   periodic and divergence-free.
/// * Walled unit box: `δu = ε s(x) d` with `s = sin πx sin πy sin πz`,
///   which vanishes on every wall, so the boundary data stay exact.
pub fn seeded_state(scenario: &Scenario, mesh: &HexMesh, seed: u64) -> Conserved {
    let gas = scenario.gas();
    let mut state = scenario.initial_state(mesh);
    let mut prim = Primitives::zeros(state.len());
    prim.update_from(&state, &gas);
    let mut rng = SeedRng::new(seed);
    let mut draw = |lo, hi| rng.uniform(lo, hi);
    let a = [draw(0.5, 1.0), draw(0.5, 1.0), draw(0.5, 1.0)];
    let phase = [draw(0.0, TAU), draw(0.0, TAU), draw(0.0, TAU)];
    let dir = Vec3::new(draw(-1.0, 1.0), draw(-1.0, 1.0), draw(-1.0, 1.0));
    let (walled, scale) = match scenario.kind() {
        ScenarioKind::TaylorGreen(c) => (false, c.v0),
        ScenarioKind::LidCavity(c) => (true, c.lid_speed),
        _ => unreachable!("the benchmark runs the TGV and the cavity only"),
    };
    let eps = PERTURBATION * scale;
    for (n, x) in mesh.coords().iter().enumerate() {
        let du = if walled {
            eps * (PI * x.x).sin() * (PI * x.y).sin() * (PI * x.z).sin() * dir
        } else {
            eps * Vec3::new(
                a[0] * (x.y + phase[0]).sin(),
                a[1] * (x.z + phase[1]).sin(),
                a[2] * (x.x + phase[2]).sin(),
            )
        };
        let rho = state.rho[n];
        let u = prim.velocity(n) + du;
        state.mom[0][n] = rho * u.x;
        state.mom[1][n] = rho * u.y;
        state.mom[2][n] = rho * u.z;
        state.energy[n] = gas.total_energy(rho, u, prim.temp[n]);
    }
    state
}

/// Wall time of each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Mesh generation.
    pub generate: Duration,
    /// `SharedMeshContext::build`: geometry cache, lumped mass.
    pub context: Duration,
    /// `SimulationBuilder::build` with the backend attach.
    pub attach: Duration,
    /// Warm-up steps and one diagnostics call.
    pub warmup: Duration,
}

impl SetupTimes {
    /// The benchmark's `setup_s`: every phase together.
    pub fn total(&self) -> Duration {
        self.generate + self.context + self.attach + self.warmup
    }
}

/// A simulation ready for the timed loop.
#[derive(Debug)]
pub struct Prepared {
    /// The warmed-up simulation.
    pub sim: Simulation,
    /// Its fixed time step.
    pub dt: f64,
    /// Time spent in each set-up phase.
    pub times: SetupTimes,
}

/// Builds the workload's simulation from the seeded inputs and warms it
/// up. Making the inputs (initial state, boundary data) is not timed.
pub fn prepare(w: &Workload, seed: u64) -> Result<Prepared, SolverError> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let mesh = w.scenario.mesh_with_order(w.edge, w.order)?;
    times.generate = t.elapsed();

    let initial = seeded_state(&w.scenario, &mesh, seed);
    let bc = w.scenario.boundary(&mesh);

    let t = Instant::now();
    let ctx = SharedMeshContext::build(mesh)?;
    times.context = t.elapsed();

    let t = Instant::now();
    let mut builder = Simulation::builder_shared(ctx, w.scenario.gas(), initial)
        .backend(BackendSelect::Reference(AssemblyStrategy::Serial));
    if let Some(bc) = bc {
        builder = builder.bc(bc);
    }
    let mut sim = builder.build()?;
    times.attach = t.elapsed();

    let t = Instant::now();
    let dt = sim.suggest_dt(w.scenario.default_cfl());
    sim.advance(WARMUP_STEPS, dt)?;
    sim.diagnostics();
    times.warmup = t.elapsed();

    Ok(Prepared { sim, dt, times })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_reproducible_and_distinct() {
        for w in Workload::all() {
            let mesh = w.scenario.mesh_with_order(4, 1).unwrap();
            let a = seeded_state(&w.scenario, &mesh, 7);
            let b = seeded_state(&w.scenario, &mesh, 7);
            let c = seeded_state(&w.scenario, &mesh, 8);
            assert_eq!(a.to_bit_vec(), b.to_bit_vec(), "{}", w.name);
            assert_ne!(a.to_bit_vec(), c.to_bit_vec(), "{}", w.name);
            assert!(a.is_physical(), "{}", w.name);
        }
    }

    #[test]
    fn cavity_perturbation_keeps_the_walls() {
        let s = Scenario::lid_cavity();
        let mesh = s.mesh_with_order(4, 2).unwrap();
        let base = s.initial_state(&mesh);
        let state = seeded_state(&s, &mesh, 3);
        let mut moved = 0;
        for n in 0..mesh.num_nodes() {
            let dm = (state.momentum(n) - base.momentum(n)).norm();
            if mesh.boundary_tag(n).is_boundary() {
                assert!(dm < 1e-15, "wall node {n} moved by {dm}");
            } else if dm > 1e-6 {
                moved += 1;
            }
        }
        assert!(moved > 0, "the interior is disturbed");
    }

    #[test]
    fn workload_names_are_unique() {
        let all = Workload::all();
        for (i, w) in all.iter().enumerate() {
            assert!(all[i + 1..].iter().all(|o| o.name != w.name));
            assert_eq!(Workload::by_name(w.name).unwrap().name, w.name);
        }
        assert!(Workload::by_name("nope").is_none());
    }
}

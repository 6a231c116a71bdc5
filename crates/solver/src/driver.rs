//! The time-stepping driver: RK4 over the FEM semi-discretization.
//!
//! [`Simulation`] — constructed through the [`SimulationBuilder`], the
//! one configuration path — holds the state and workspaces, shares the
//! immutable mesh-derived data through an
//! `Arc<`[`SharedMeshContext`]`>` (so ensemble members on one mesh hold
//! a single geometry cache / shard-plan set), and advances the
//! compressible Navier-Stokes system in time. Its right-hand side is the
//! paper's **RKL** kernel (the fused diffusion ⊕ convection residual over
//! the precomputed [`GeometryCache`]) preceded by the **RKU** primitive
//! update; the host-side glue around them (gather, scatter, lumped-mass
//! scaling) is charged to `RK(Other)` and everything outside the RK
//! method — including the one-time geometry-cache build at construction —
//! to `Non-RK`, mirroring Fig 2. Per-stage geometry rebuild time, the
//! seed's largest `RK(Other)` component, no longer exists.
//!
//! The RKL assembly itself is delegated to a pluggable
//! [`ExecutionBackend`] (see [`crate::engine`]), attached once at
//! [`SimulationBuilder::build`]: the serial [`ReferenceBackend`] by
//! default, or the parallel executor ([`MultiDeviceBackend`], bitwise
//! identical to the serial loop — see [`crate::engine`] for the
//! argument) selected through [`SimulationBuilder::backend`], without
//! touching the time loop.

use crate::boundary::DirichletBc;
use crate::diagnostics::FlowDiagnostics;
use crate::engine::{
    AssemblyContext, BackendSelect, ExecutionBackend, MultiDeviceBackend, ReferenceBackend,
};
use crate::gas::GasModel;
use crate::kernels::KernelPath;
use crate::parallel::AssemblyStrategy;
use crate::profile::{Phase, PhaseProfiler};
use crate::state::{Conserved, Primitives};
use crate::SolverError;
use fem_mesh::geometry::GeometryCache;
use fem_mesh::{HexMesh, SharedMeshContext};
use fem_numerics::rk::{ButcherTableau, ExplicitRk, OdeSystem};
use fem_numerics::tensor::HexBasis;
use std::sync::Arc;
use std::time::Instant;

/// Everything the RHS evaluation needs besides the conserved state.
///
/// All mesh-derived immutable data (mesh, basis, geometry cache, lumped
/// mass, shard plans) lives behind one
/// [`SharedMeshContext`] handle, so many simulations — e.g. the members
/// of an ensemble sweep — can share a single copy.
#[derive(Debug)]
pub struct SolverCore {
    ctx: Arc<SharedMeshContext>,
    gas: GasModel,
    primitives: Primitives,
    bc: Option<DirichletBc>,
    profiler: PhaseProfiler,
    profiling: bool,
    /// The active execution backend the RK stages assemble through.
    backend: Box<dyn ExecutionBackend>,
    /// The weak-divergence contraction algorithm every backend dispatches.
    kernel: KernelPath,
}

impl SolverCore {
    /// The mesh being solved on.
    pub fn mesh(&self) -> &HexMesh {
        self.ctx.mesh()
    }

    /// The element basis.
    pub fn basis(&self) -> &HexBasis {
        self.ctx.basis()
    }

    /// The gas model.
    pub fn gas(&self) -> &GasModel {
        &self.gas
    }

    /// The primitive cache (as of the last RHS evaluation).
    pub fn primitives(&self) -> &Primitives {
        &self.primitives
    }

    /// The assembled lumped mass vector.
    pub fn lumped_mass(&self) -> &[f64] {
        self.ctx.lumped_mass()
    }

    /// The precomputed per-element geometry cache the RHS hot path
    /// streams from (built once per [`SharedMeshContext`]).
    pub fn geometry(&self) -> &GeometryCache {
        self.ctx.geometry()
    }

    /// Smallest node spacing (CFL length scale).
    pub fn min_spacing(&self) -> f64 {
        self.ctx.min_spacing()
    }

    /// The shared mesh context this simulation solves on. Pass the clone
    /// to [`Simulation::builder_shared`] to construct further
    /// simulations that share it.
    pub fn shared_context(&self) -> &Arc<SharedMeshContext> {
        &self.ctx
    }

    /// The active execution backend.
    pub fn backend(&self) -> &dyn ExecutionBackend {
        self.backend.as_ref()
    }

    /// The active weak-divergence kernel path (see
    /// [`crate::kernels::KernelPath`]).
    pub fn kernel_path(&self) -> KernelPath {
        self.kernel
    }
}

impl OdeSystem for SolverCore {
    type State = Conserved;

    fn rhs(&mut self, _t: f64, y: &Conserved, dydt: &mut Conserved) {
        // ---- RKU: primitive update (paper's RKU kernel). ----
        let t0 = Instant::now();
        self.primitives.update_from(y, &self.gas);
        if self.profiling {
            self.profiler.add(Phase::RkOther, t0.elapsed());
        }

        // ---- RKL: element assembly through the active backend. ----
        let ctx = AssemblyContext {
            mesh: self.ctx.mesh(),
            basis: self.ctx.basis(),
            gas: &self.gas,
            geometry: self.ctx.geometry(),
            kernel: self.kernel,
        };
        self.backend.assemble_rhs(
            &ctx,
            y,
            &self.primitives,
            dydt,
            if self.profiling {
                Some(&mut self.profiler)
            } else {
                None
            },
        );

        // ---- Lumped-mass solve + boundary conditions: RK(Other). ----
        let t0 = Instant::now();
        let inv = self.ctx.lumped_mass();
        let apply = |dst: &mut [f64]| {
            for (v, &m) in dst.iter_mut().zip(inv) {
                *v /= m;
            }
        };
        apply(&mut dydt.rho);
        for d in 0..3 {
            apply(&mut dydt.mom[d]);
        }
        apply(&mut dydt.energy);
        if let Some(bc) = &self.bc {
            bc.zero_rhs(dydt);
        }
        if self.profiling {
            self.profiler.add(Phase::RkOther, t0.elapsed());
        }
    }
}

/// A complete FEM Navier-Stokes simulation.
///
/// # Example
///
/// ```
/// use fem_mesh::generator::BoxMeshBuilder;
/// use fem_solver::{driver::Simulation, tgv::TgvConfig};
///
/// # fn main() -> Result<(), fem_solver::SolverError> {
/// let mesh = BoxMeshBuilder::tgv_box(6).build().unwrap();
/// let cfg = TgvConfig::standard();
/// let initial = cfg.initial_state(&mesh);
/// let mut sim = Simulation::new(mesh, cfg.gas(), initial)?;
/// let dt = sim.suggest_dt(0.4);
/// sim.advance(5, dt)?;
/// assert!(sim.time() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulation {
    core: SolverCore,
    conserved: Conserved,
    rk: ExplicitRk<Conserved>,
    time: f64,
    steps_taken: usize,
}

/// What a [`SimulationBuilder`] constructs its [`SharedMeshContext`]
/// from: a freshly owned mesh, or an existing shared handle.
#[derive(Debug)]
pub(crate) enum MeshSource {
    Mesh(HexMesh),
    Shared(Arc<SharedMeshContext>),
}

impl MeshSource {
    /// The mesh the simulation will solve on.
    pub(crate) fn mesh(&self) -> &HexMesh {
        match self {
            MeshSource::Mesh(m) => m,
            MeshSource::Shared(c) => c.mesh(),
        }
    }
}

/// The execution backend a [`SimulationBuilder`] attaches: a built-in
/// selection, or a caller-provided backend. One field holds it, so the
/// last of [`SimulationBuilder::backend`] and
/// [`SimulationBuilder::custom_backend`] wins.
#[derive(Debug)]
enum BackendChoice {
    Select(BackendSelect),
    Custom(Box<dyn ExecutionBackend>),
}

/// The one construction path for [`Simulation`]s.
///
/// Collects every configuration choice — boundary condition, execution
/// backend, kernel path — and applies them in a fixed order at
/// [`SimulationBuilder::build`], so a spec-driven ensemble member and a
/// hand-configured simulation with the same choices are *bitwise*
/// identical. Obtain one from [`Simulation::builder`] (owns its mesh),
/// [`Simulation::builder_shared`] (shares an existing
/// [`SharedMeshContext`] with other simulations) or
/// [`crate::Scenario::builder`] (a registry scenario with its initial
/// state and boundary condition attached). The choices are fixed once
/// built; only profiling can be toggled on a running simulation
/// ([`Simulation::set_profiling`]).
///
/// # Example
///
/// ```
/// use fem_mesh::generator::BoxMeshBuilder;
/// use fem_solver::{driver::Simulation, tgv::TgvConfig, BackendSelect, PartitionStrategy};
///
/// # fn main() -> Result<(), fem_solver::SolverError> {
/// let mesh = BoxMeshBuilder::tgv_box(6).build().unwrap();
/// let cfg = TgvConfig::standard();
/// let initial = cfg.initial_state(&mesh);
/// let mut sim = Simulation::builder(mesh, cfg.gas(), initial)
///     .backend(BackendSelect::MultiDevice {
///         devices: 2,
///         strategy: PartitionStrategy::Partitioned,
///     })
///     .build()?;
/// sim.set_profiling(true);
/// let dt = sim.suggest_dt(0.4);
/// sim.advance(2, dt)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SimulationBuilder {
    source: MeshSource,
    gas: GasModel,
    initial: Conserved,
    bc: Option<DirichletBc>,
    backend: BackendChoice,
    kernel: KernelPath,
}

impl SimulationBuilder {
    pub(crate) fn from_source(
        source: MeshSource,
        gas: GasModel,
        initial: Conserved,
    ) -> SimulationBuilder {
        SimulationBuilder {
            source,
            gas,
            initial,
            bc: None,
            backend: BackendChoice::Select(BackendSelect::Reference(AssemblyStrategy::Serial)),
            kernel: KernelPath::default(),
        }
    }

    /// Attaches a Dirichlet boundary condition (applied to the initial
    /// state at build time and enforced after every RK step).
    pub fn bc(mut self, bc: DirichletBc) -> Self {
        self.bc = Some(bc);
        self
    }

    /// Selects one of the built-in execution backends (default:
    /// [`BackendSelect::Reference`] with [`AssemblyStrategy::Serial`]).
    /// Shard plans are built through (and memoized in) the
    /// [`SharedMeshContext`], so sibling ensemble members choosing the
    /// same decomposition reuse one plan.
    pub fn backend(mut self, select: BackendSelect) -> Self {
        self.backend = BackendChoice::Select(select);
        self
    }

    /// Installs a caller-provided execution backend in place of a
    /// built-in one — how external backends (e.g. the one-element
    /// reference loop, [`crate::oracle::ElementLoopBackend`]) register
    /// with the driver.
    pub fn custom_backend(mut self, backend: Box<dyn ExecutionBackend>) -> Self {
        self.backend = BackendChoice::Custom(backend);
        self
    }

    /// Selects the weak-divergence kernel path every backend dispatches
    /// (default: [`KernelPath::SumFactored`], the O(p⁴) production
    /// contraction; [`KernelPath::FullMatrix`] is the O(p⁶) dense
    /// validation reference). See [`crate::kernels`] for the three-sweep
    /// schedule and the equivalence guarantee between the two.
    pub fn kernel_path(mut self, path: KernelPath) -> Self {
        self.kernel = path;
        self
    }

    /// Validates the configuration and constructs the simulation.
    ///
    /// A fresh mesh gets its [`SharedMeshContext`] built here (Jacobians
    /// validated once, lumped mass assembled, CFL length scale derived),
    /// with the build time charged to the `Non-RK` phase; a shared
    /// context is reused as-is with no `Non-RK` charge — the sharing is
    /// what an ensemble amortizes.
    ///
    /// # Errors
    ///
    /// * [`SolverError::NodeCountMismatch`] if the state does not match
    ///   the mesh.
    /// * [`SolverError::UnphysicalState`] if the initial state has
    ///   non-positive density or internal energy.
    /// * [`SolverError::Mesh`] for inverted elements, a bad basis order,
    ///   or an invalid backend selection (zero shards).
    pub fn build(self) -> Result<Simulation, SolverError> {
        let mesh_nodes = self.source.mesh().num_nodes();
        if self.initial.len() != mesh_nodes {
            return Err(SolverError::NodeCountMismatch {
                state_nodes: self.initial.len(),
                mesh_nodes,
            });
        }
        if !self.initial.is_physical() {
            return Err(SolverError::UnphysicalState { step: 0 });
        }
        let mut profiler = PhaseProfiler::new();
        let ctx = match self.source {
            MeshSource::Mesh(mesh) => {
                let t_build = Instant::now();
                let ctx = SharedMeshContext::build(mesh)?;
                profiler.add(Phase::NonRk, t_build.elapsed());
                ctx
            }
            MeshSource::Shared(ctx) => ctx,
        };
        let backend: Box<dyn ExecutionBackend> = match self.backend {
            BackendChoice::Select(BackendSelect::Reference(AssemblyStrategy::Serial)) => {
                Box::new(ReferenceBackend)
            }
            BackendChoice::Select(BackendSelect::MultiDevice { devices, strategy }) => {
                let plan = ctx.shard_plan(devices, strategy)?;
                Box::new(MultiDeviceBackend::with_plan(
                    plan,
                    ctx.mesh(),
                    ctx.geometry(),
                )?)
            }
            BackendChoice::Custom(backend) => backend,
        };
        // The primitive cache is seeded from the initial state as given;
        // the boundary condition then pins the conserved state.
        let mut primitives = Primitives::zeros(mesh_nodes);
        primitives.update_from(&self.initial, &self.gas);
        let rk = ExplicitRk::new(ButcherTableau::rk4(), &self.initial);
        let mut conserved = self.initial;
        if let Some(bc) = &self.bc {
            bc.apply_state(&mut conserved);
        }
        Ok(Simulation {
            core: SolverCore {
                ctx,
                gas: self.gas,
                primitives,
                bc: self.bc,
                profiler,
                profiling: false,
                backend,
                kernel: self.kernel,
            },
            conserved,
            rk,
            time: 0.0,
            steps_taken: 0,
        })
    }
}

impl Simulation {
    /// Starts a [`SimulationBuilder`] that owns `mesh` (its
    /// [`SharedMeshContext`] is built at
    /// [`SimulationBuilder::build`]).
    pub fn builder(mesh: HexMesh, gas: GasModel, initial: Conserved) -> SimulationBuilder {
        SimulationBuilder::from_source(MeshSource::Mesh(mesh), gas, initial)
    }

    /// Starts a [`SimulationBuilder`] on an existing shared mesh context
    /// — how ensemble members on one mesh share a single geometry
    /// cache, lumped mass, and shard-plan set.
    pub fn builder_shared(
        ctx: Arc<SharedMeshContext>,
        gas: GasModel,
        initial: Conserved,
    ) -> SimulationBuilder {
        SimulationBuilder::from_source(MeshSource::Shared(ctx), gas, initial)
    }

    /// Builds a simulation from a mesh, gas model and initial conserved
    /// state with the default configuration — shorthand for
    /// [`Simulation::builder`] followed by
    /// [`SimulationBuilder::build`], which see for the errors.
    ///
    /// # Errors
    ///
    /// See [`SimulationBuilder::build`].
    pub fn new(mesh: HexMesh, gas: GasModel, initial: Conserved) -> Result<Self, SolverError> {
        Simulation::builder(mesh, gas, initial).build()
    }

    /// The attached Dirichlet boundary condition, if any.
    pub fn bc(&self) -> Option<&DirichletBc> {
        self.core.bc.as_ref()
    }

    /// Evaluates the semi-discrete RHS (the full RKU → RKL → lumped-mass
    /// → boundary-zeroing pipeline the RK stages integrate) at the
    /// current conserved state, through the active backend.
    ///
    /// Exposed so tests can verify properties of the composed RHS — e.g.
    /// that Dirichlet-pinned nodes carry an exactly zero residual — that
    /// are invisible from the post-step state alone.
    pub fn eval_rhs(&mut self) -> Conserved {
        let mut out = Conserved::zeros(self.conserved.len());
        self.core.rhs(self.time, &self.conserved, &mut out);
        out
    }

    /// The active weak-divergence kernel path.
    pub fn kernel_path(&self) -> KernelPath {
        self.core.kernel
    }

    /// Enables or disables phase profiling (disabled by default; timer
    /// reads add a few percent overhead to the element loop). The one
    /// runtime switch a simulation keeps, so profiling can bracket a
    /// measured window.
    pub fn set_profiling(&mut self, on: bool) {
        self.core.profiling = on;
    }

    /// The active execution backend. The multi-device executor's shard
    /// plan, link model and measured device phases are reached through
    /// [`ExecutionBackend::as_multi_device`].
    pub fn backend(&self) -> &dyn ExecutionBackend {
        self.core.backend()
    }

    /// Read access to the profiler.
    ///
    /// Construction charges the one-time geometry-cache build to
    /// `Non-RK` (setup amortization, like [`Simulation::charge_non_rk`]);
    /// call [`Simulation::reset_profiler`] after warm-up for a
    /// steady-state breakdown without that charge.
    pub fn profiler(&self) -> &PhaseProfiler {
        &self.core.profiler
    }

    /// Clears all accumulated profiler time (e.g. to drop the
    /// construction-time geometry-cache charge before a measured run).
    pub fn reset_profiler(&mut self) {
        self.core.profiler.reset();
    }

    /// Charges `d` to the Non-RK phase (diagnostics, I/O around the
    /// stepping loop).
    pub fn charge_non_rk(&mut self, d: std::time::Duration) {
        self.core.profiler.add(Phase::NonRk, d);
    }

    /// The solver internals (mesh, gas, primitives, lumped mass).
    pub fn core(&self) -> &SolverCore {
        &self.core
    }

    /// Current conserved state.
    pub fn conserved(&self) -> &Conserved {
        &self.conserved
    }

    /// Mutable conserved state (for custom initialization).
    pub fn conserved_mut(&mut self) -> &mut Conserved {
        &mut self.conserved
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Number of RK steps taken.
    pub fn steps_taken(&self) -> usize {
        self.steps_taken
    }

    /// Suggests a stable time step: `cfl · h_min / (max|u| + max c)`.
    pub fn suggest_dt(&self, cfl: f64) -> f64 {
        let max_u = self.core.primitives.max_speed();
        let max_c = (0..self.core.primitives.len())
            .map(|n| self.core.gas.sound_speed(self.core.primitives.temp[n]))
            .fold(0.0, f64::max);
        cfl * self.core.min_spacing() / (max_u + max_c)
    }

    /// Advances one RK4 step of size `dt`.
    ///
    /// # Errors
    ///
    /// [`SolverError::UnphysicalState`] if the step produced negative
    /// density or internal energy (blow-up detection).
    pub fn step(&mut self, dt: f64) -> Result<(), SolverError> {
        self.rk
            .step(&mut self.core, self.time, dt, &mut self.conserved);
        if let Some(bc) = &self.core.bc {
            bc.apply_state(&mut self.conserved);
        }
        self.time += dt;
        self.steps_taken += 1;
        if !self.conserved.is_physical() {
            return Err(SolverError::UnphysicalState {
                step: self.steps_taken,
            });
        }
        Ok(())
    }

    /// Advances `steps` RK4 steps of size `dt`.
    ///
    /// # Errors
    ///
    /// Stops at the first [`SolverError::UnphysicalState`].
    pub fn advance(&mut self, steps: usize, dt: f64) -> Result<(), SolverError> {
        for _ in 0..steps {
            self.step(dt)?;
        }
        Ok(())
    }

    /// Computes flow diagnostics for the current state, charging the cost
    /// to the Non-RK phase.
    pub fn diagnostics(&mut self) -> FlowDiagnostics {
        let t0 = Instant::now();
        self.core
            .primitives
            .update_from(&self.conserved, &self.core.gas);
        let d = FlowDiagnostics::compute(
            self.time,
            self.core.ctx.mesh(),
            self.core.ctx.basis(),
            &self.core.gas,
            self.core.ctx.geometry(),
            &self.conserved,
            &self.core.primitives,
            self.core.ctx.lumped_mass(),
        );
        if self.core.profiling {
            self.core.profiler.add(Phase::NonRk, t0.elapsed());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tgv::TgvConfig;
    use fem_mesh::generator::BoxMeshBuilder;
    use fem_numerics::linalg::Vec3;

    fn uniform_state(mesh: &HexMesh, gas: &GasModel, u: Vec3) -> Conserved {
        let mut c = Conserved::zeros(mesh.num_nodes());
        for n in 0..mesh.num_nodes() {
            c.rho[n] = 1.0;
            c.mom[0][n] = u.x;
            c.mom[1][n] = u.y;
            c.mom[2][n] = u.z;
            c.energy[n] = gas.total_energy(1.0, u, 300.0);
        }
        c
    }

    #[test]
    fn freestream_is_preserved() {
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let gas = GasModel::air(1.8e-5);
        let u = Vec3::new(20.0, -7.0, 3.0);
        let initial = uniform_state(&mesh, &gas, u);
        let mut sim = Simulation::new(mesh, gas, initial.clone()).unwrap();
        let dt = sim.suggest_dt(0.5);
        sim.advance(10, dt).unwrap();
        for n in 0..sim.conserved().len() {
            assert!((sim.conserved().rho[n] - initial.rho[n]).abs() < 1e-10);
            assert!((sim.conserved().energy[n] - initial.energy[n]).abs() < 1e-6);
        }
    }

    #[test]
    fn conservation_is_exact_to_roundoff() {
        let mesh = BoxMeshBuilder::tgv_box(6).build().unwrap();
        let cfg = TgvConfig::new(0.2, 400.0);
        let initial = cfg.initial_state(&mesh);
        let mut sim = Simulation::new(mesh, cfg.gas(), initial).unwrap();
        let d0 = sim.diagnostics();
        let dt = sim.suggest_dt(0.4);
        sim.advance(20, dt).unwrap();
        let d1 = sim.diagnostics();
        assert!(
            ((d1.total_mass - d0.total_mass) / d0.total_mass).abs() < 1e-12,
            "mass drift"
        );
        assert!(
            ((d1.total_energy - d0.total_energy) / d0.total_energy).abs() < 1e-12,
            "energy drift"
        );
        assert!(
            (d1.total_momentum - d0.total_momentum).norm() < 1e-10 * d0.total_mass * cfg.v0,
            "momentum drift {:?}",
            d1.total_momentum - d0.total_momentum
        );
    }

    #[test]
    fn tgv_kinetic_energy_decays() {
        let mesh = BoxMeshBuilder::tgv_box(8).build().unwrap();
        // Stronger viscosity (Re=100) for a clear decay on a coarse grid.
        let cfg = TgvConfig::new(0.1, 100.0);
        let initial = cfg.initial_state(&mesh);
        let mut sim = Simulation::new(mesh, cfg.gas(), initial).unwrap();
        let ke0 = sim.diagnostics().kinetic_energy;
        let dt = sim.suggest_dt(0.4);
        let steps = (0.5 / dt).ceil() as usize; // half a convective time
        sim.advance(steps, dt).unwrap();
        let ke1 = sim.diagnostics().kinetic_energy;
        assert!(ke1 < ke0, "KE must decay: {ke0} -> {ke1}");
        assert!(ke1 > 0.5 * ke0, "decay implausibly fast: {ke0} -> {ke1}");
    }

    #[test]
    fn shear_layer_decays_at_viscous_rate() {
        let mesh = BoxMeshBuilder::tgv_box(12).build().unwrap();
        let mu = 1.0;
        let gas = GasModel {
            gamma: 1.4,
            r_gas: 287.0,
            mu,
            prandtl: 0.71,
        };
        let a = 1.0;
        let mut c = Conserved::zeros(mesh.num_nodes());
        for (n, &x) in mesh.coords().iter().enumerate() {
            let u = Vec3::new(a * x.y.sin(), 0.0, 0.0);
            c.rho[n] = 1.0;
            c.mom[0][n] = u.x;
            c.energy[n] = gas.total_energy(1.0, u, 300.0);
        }
        let mut sim = Simulation::new(mesh, gas, c).unwrap();
        let dt = 1.0e-3; // convective CFL-limited (c≈347)
        let t_end: f64 = 0.6;
        let steps = (t_end / dt).round() as usize;
        sim.advance(steps, dt).unwrap();
        // Amplitude should decay like exp(-ν k² t) with ν = μ/ρ = 1, k = 1.
        let max_u = sim.core().primitives().max_speed();
        let expected = a * (-t_end).exp();
        let rel = (max_u - expected).abs() / expected;
        assert!(
            rel < 0.06,
            "decay mismatch: max|u|={max_u}, expected {expected} (rel {rel})"
        );
    }

    #[test]
    fn entropy_wave_advects_with_the_flow() {
        // Inviscid advection of a density perturbation in uniform (u, p):
        // ρ(x,t) = ρ0 + A sin(x - U t) is an exact Euler solution.
        let n = 16;
        let mesh = BoxMeshBuilder::tgv_box(n).build().unwrap();
        let gas = GasModel::air(0.0);
        let u0 = 50.0;
        let rho0 = 1.0;
        let amp = 0.01;
        let p0 = 1.0e5;
        let mut c = Conserved::zeros(mesh.num_nodes());
        for (i, &x) in mesh.coords().iter().enumerate() {
            let rho = rho0 + amp * x.x.sin();
            let t = p0 / (rho * gas.r_gas);
            let u = Vec3::new(u0, 0.0, 0.0);
            c.rho[i] = rho;
            c.mom[0][i] = rho * u.x;
            c.energy[i] = gas.total_energy(rho, u, t);
        }
        let mut sim = Simulation::new(mesh, gas, c).unwrap();
        let dt = sim.suggest_dt(0.3);
        let t_end = 0.02; // one unit of travel = 1/50 s
        let steps = (t_end / dt).ceil() as usize;
        let dt = t_end / steps as f64;
        sim.advance(steps, dt).unwrap();
        // Compare against the shifted profile.
        let mut l2_err = 0.0;
        let mut l2_ref = 0.0;
        for (i, &x) in sim.core().mesh().coords().iter().enumerate() {
            let exact = rho0 + amp * (x.x - u0 * sim.time()).sin();
            l2_err += (sim.conserved().rho[i] - exact).powi(2);
            l2_ref += (exact - rho0).powi(2);
        }
        let rel = (l2_err / l2_ref).sqrt();
        assert!(rel < 0.05, "advection error {rel}");
    }

    #[test]
    fn blow_up_is_detected() {
        let mesh = BoxMeshBuilder::tgv_box(6).build().unwrap();
        let cfg = TgvConfig::standard();
        let initial = cfg.initial_state(&mesh);
        let mut sim = Simulation::new(mesh, cfg.gas(), initial).unwrap();
        // Grossly unstable dt (CFL ≈ 50).
        let dt = sim.suggest_dt(50.0);
        let result = sim.advance(100, dt);
        assert!(matches!(result, Err(SolverError::UnphysicalState { .. })));
    }

    #[test]
    fn mismatched_state_is_rejected() {
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let gas = GasModel::air(1e-5);
        let bad = Conserved::zeros(7);
        assert!(matches!(
            Simulation::new(mesh, gas, bad),
            Err(SolverError::NodeCountMismatch { .. })
        ));
    }

    #[test]
    fn parallel_strategies_track_the_serial_trajectory() {
        let mesh = BoxMeshBuilder::tgv_box(6).build().unwrap();
        let cfg = TgvConfig::standard();
        let initial = cfg.initial_state(&mesh);
        let mut serial = Simulation::new(mesh, cfg.gas(), initial).unwrap();
        assert_eq!(serial.backend().name(), "reference(serial)");
        let dt = serial.suggest_dt(0.4);
        serial.advance(5, dt).unwrap();

        for (devices, strategy) in [
            (2, fem_mesh::PartitionStrategy::Partitioned),
            (3, fem_mesh::PartitionStrategy::Contiguous),
        ] {
            let mesh = BoxMeshBuilder::tgv_box(6).build().unwrap();
            let initial = cfg.initial_state(&mesh);
            let mut sim = Simulation::builder(mesh, cfg.gas(), initial)
                .backend(BackendSelect::MultiDevice { devices, strategy })
                .build()
                .unwrap();
            let md = sim.backend().as_multi_device().expect("multi-device");
            assert_eq!(md.plan().num_shards(), devices);
            sim.advance(5, dt).unwrap();
            assert_eq!(
                sim.conserved().to_bit_vec(),
                serial.conserved().to_bit_vec(),
                "{}: trajectory drift",
                sim.backend().name()
            );
        }
    }

    #[test]
    fn profiling_records_phases() {
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let cfg = TgvConfig::standard();
        let initial = cfg.initial_state(&mesh);
        let mut sim = Simulation::new(mesh, cfg.gas(), initial).unwrap();
        sim.set_profiling(true);
        let dt = sim.suggest_dt(0.4);
        sim.advance(2, dt).unwrap();
        sim.diagnostics();
        let p = sim.profiler();
        assert!(p.total(Phase::RkConvection) > std::time::Duration::ZERO);
        assert!(p.total(Phase::RkDiffusion) > std::time::Duration::ZERO);
        assert!(p.total(Phase::RkOther) > std::time::Duration::ZERO);
        assert!(p.total(Phase::NonRk) > std::time::Duration::ZERO);
        let pct = p.breakdown_percent();
        assert!((pct.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }
}

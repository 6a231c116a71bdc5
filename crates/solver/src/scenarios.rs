//! The scenario registry: every workload the solver is validated on.
//!
//! The paper motivates FEM over simpler discretizations precisely by its
//! ability to handle "complex geometries and intricate setups" (§II), yet
//! its evaluation — and this repo's seed — exercised only the triply
//! periodic Taylor-Green Vortex. A [`Scenario`] packages everything one
//! workload needs: the mesh recipe, the gas model, the initial condition,
//! an optional strong Dirichlet boundary condition, and the physical
//! invariants a correct run must satisfy. The registry
//! ([`Scenario::registry`]) is what the cross-backend regression matrix,
//! the `repro scenarios` study, and the accelerator workload quotes all
//! iterate over, so every later optimization is exercised on wall-bounded
//! and inviscid flows as well as the canonical TGV.
//!
//! Registered workloads:
//!
//! * **taylor-green-vortex** — the paper's benchmark (periodic, viscous,
//!   kinetic energy decays into turbulence).
//! * **lid-driven-cavity** — wall-bounded recirculating flow; exercises
//!   the [`DirichletBc`] residual-zeroing path inside the RK loop under
//!   every backend.
//! * **double-shear-layer** — two periodic tanh shear layers with a
//!   sinusoidal perturbation; a classic roll-up problem distinct from the
//!   TGV's vortex topology.
//! * **acoustic-pulse** — an inviscid Gaussian pressure pulse radiating
//!   from rest; the only registry entry with `μ = 0`, so it pins the
//!   convective-only kernel branch.
//!
//! # Example
//!
//! ```
//! use fem_solver::scenarios::Scenario;
//!
//! # fn main() -> Result<(), fem_solver::SolverError> {
//! for scenario in Scenario::registry() {
//!     let mut sim = scenario.simulation(4)?;
//!     let dt = sim.suggest_dt(scenario.default_cfl());
//!     let start = sim.diagnostics();
//!     sim.advance(2, dt)?;
//!     let end = sim.diagnostics();
//!     // Conservation invariants hold after only two steps; the
//!     // evolution invariants (KE decay, pulse spreading) need the
//!     // longer runs of the scenario_matrix suite.
//!     let report = scenario.check_invariants(&start, &end, &sim);
//!     assert!(!report.checks().is_empty());
//! }
//! # Ok(())
//! # }
//! ```

use crate::boundary::DirichletBc;
use crate::diagnostics::FlowDiagnostics;
use crate::driver::Simulation;
use crate::gas::GasModel;
use crate::state::Conserved;
use crate::tgv::TgvConfig;
use crate::SolverError;
use fem_mesh::generator::BoxMeshBuilder;
use fem_mesh::hex::BoundaryTag;
use fem_mesh::HexMesh;
use fem_numerics::linalg::Vec3;
use std::f64::consts::PI;

// ---------------------------------------------------------------- configs

/// Configuration of the lid-driven cavity: a unit box of quiescent gas
/// with no-slip isothermal walls and a lid (the interior of the `z = 1`
/// face) sliding in `+x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CavityConfig {
    /// Wall/initial density.
    pub rho0: f64,
    /// Wall/initial temperature.
    pub t0: f64,
    /// Lid speed in `+x`.
    pub lid_speed: f64,
    /// Dynamic viscosity (sets the lid Reynolds number `ρ U L / μ`).
    pub mu: f64,
    /// Ratio of specific heats.
    pub gamma: f64,
    /// Specific gas constant.
    pub r_gas: f64,
    /// Prandtl number.
    pub prandtl: f64,
}

impl CavityConfig {
    /// The standard case: unit lid speed at lid Reynolds number 500.
    pub fn standard() -> Self {
        CavityConfig {
            rho0: 1.0,
            t0: 300.0,
            lid_speed: 1.0,
            mu: 2.0e-3,
            gamma: 1.4,
            r_gas: 287.0,
            prandtl: 0.71,
        }
    }

    /// The gas model implied by the configuration.
    pub fn gas(&self) -> GasModel {
        GasModel {
            gamma: self.gamma,
            r_gas: self.r_gas,
            mu: self.mu,
            prandtl: self.prandtl,
        }
    }

    /// Quiescent interior at `(ρ0, T0)`.
    pub fn initial_state(&self, mesh: &HexMesh) -> Conserved {
        let gas = self.gas();
        let mut state = Conserved::zeros(mesh.num_nodes());
        for n in 0..mesh.num_nodes() {
            state.rho[n] = self.rho0;
            state.energy[n] = gas.total_energy(self.rho0, Vec3::ZERO, self.t0);
        }
        state
    }

    /// No-slip isothermal walls plus the moving lid. The lid is the set
    /// of nodes tagged *exactly* `Z_MAX` (rim nodes shared with a side
    /// wall stay no-slip), so the target field is single-valued.
    pub fn boundary(&self, mesh: &HexMesh) -> DirichletBc {
        let gas = self.gas();
        let lid = Vec3::new(self.lid_speed, 0.0, 0.0);
        DirichletBc::from_tagged_nodes(mesh, &gas, |_, tag| {
            if tag == BoundaryTag::Z_MAX {
                (self.rho0, lid, self.t0)
            } else {
                (self.rho0, Vec3::ZERO, self.t0)
            }
        })
    }
}

/// Configuration of the periodic double shear layer: two counter-flowing
/// tanh streams at `y = π/2` and `y = 3π/2` with a sinusoidal transverse
/// perturbation seeding the roll-up, in the TGV's `[0, 2π]³` box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShearLayerConfig {
    /// Reference Mach number `M = u0 / c0`.
    pub mach: f64,
    /// Reynolds number `Re = ρ0 u0 L / μ` (`L = 1`).
    pub reynolds: f64,
    /// Stream speed.
    pub u0: f64,
    /// Background density.
    pub rho0: f64,
    /// Shear-layer thickness (must stay resolvable on the target mesh).
    pub delta: f64,
    /// Relative amplitude of the transverse perturbation.
    pub eps: f64,
    /// Ratio of specific heats.
    pub gamma: f64,
    /// Specific gas constant.
    pub r_gas: f64,
    /// Prandtl number.
    pub prandtl: f64,
}

impl ShearLayerConfig {
    /// The standard case: `M = 0.1`, `Re = 200`, thick (`δ = 0.8`) layers
    /// that stay resolved on the coarse CI meshes.
    pub fn standard() -> Self {
        ShearLayerConfig {
            mach: 0.1,
            reynolds: 200.0,
            u0: 1.0,
            rho0: 1.0,
            delta: 0.8,
            eps: 0.05,
            gamma: 1.4,
            r_gas: 287.0,
            prandtl: 0.71,
        }
    }

    /// Background sound speed `c0 = u0 / M`.
    pub fn sound_speed(&self) -> f64 {
        self.u0 / self.mach
    }

    /// Background temperature `T0 = c0² / (γ R)`.
    pub fn temperature(&self) -> f64 {
        let c0 = self.sound_speed();
        c0 * c0 / (self.gamma * self.r_gas)
    }

    /// The gas model implied by the configuration (`μ = ρ0 u0 L / Re`).
    pub fn gas(&self) -> GasModel {
        GasModel {
            gamma: self.gamma,
            r_gas: self.r_gas,
            mu: self.rho0 * self.u0 / self.reynolds,
            prandtl: self.prandtl,
        }
    }

    /// The double-shear-layer velocity field at point `x`.
    pub fn velocity(&self, x: Vec3) -> Vec3 {
        let stream = if x.y <= PI {
            ((x.y - PI / 2.0) / self.delta).tanh()
        } else {
            ((3.0 * PI / 2.0 - x.y) / self.delta).tanh()
        };
        Vec3::new(self.u0 * stream, self.eps * self.u0 * x.x.sin(), 0.0)
    }

    /// Uniform-pressure initial state carrying the shear-layer velocity.
    pub fn initial_state(&self, mesh: &HexMesh) -> Conserved {
        let gas = self.gas();
        let t0 = self.temperature();
        let mut state = Conserved::zeros(mesh.num_nodes());
        for (n, &x) in mesh.coords().iter().enumerate() {
            let u = self.velocity(x);
            state.rho[n] = self.rho0;
            state.mom[0][n] = self.rho0 * u.x;
            state.mom[1][n] = self.rho0 * u.y;
            state.mom[2][n] = self.rho0 * u.z;
            state.energy[n] = gas.total_energy(self.rho0, u, t0);
        }
        state
    }
}

/// Configuration of the acoustic pulse: an inviscid gas at rest with a
/// Gaussian pressure/density bump at the box center that radiates
/// spherical sound waves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PulseConfig {
    /// Relative pressure amplitude of the pulse (`δp / p0`).
    pub amplitude: f64,
    /// Gaussian width of the pulse.
    pub sigma: f64,
    /// Far-field density.
    pub rho0: f64,
    /// Uniform temperature.
    pub t0: f64,
    /// Ratio of specific heats.
    pub gamma: f64,
    /// Specific gas constant.
    pub r_gas: f64,
}

impl PulseConfig {
    /// The standard case: a 1% pressure bump of width `σ = 0.7` in the
    /// `[0, 2π]³` box (the Gaussian tail at the periodic boundary is
    /// below `10⁻⁸` of the amplitude).
    pub fn standard() -> Self {
        PulseConfig {
            amplitude: 0.01,
            sigma: 0.7,
            rho0: 1.0,
            t0: 300.0,
            gamma: 1.4,
            r_gas: 287.0,
        }
    }

    /// The inviscid gas model (`μ = 0` — the registry's only entry that
    /// exercises the convective-only kernel branch).
    pub fn gas(&self) -> GasModel {
        GasModel {
            gamma: self.gamma,
            r_gas: self.r_gas,
            mu: 0.0,
            prandtl: 0.71,
        }
    }

    /// Far-field pressure `p0 = ρ0 R T0`.
    pub fn pressure(&self) -> f64 {
        self.rho0 * self.r_gas * self.t0
    }

    /// Sound speed of the far field.
    pub fn sound_speed(&self) -> f64 {
        self.gas().sound_speed(self.t0)
    }

    /// The pulse pressure field at point `x` (pulse centered at
    /// `(π, π, π)`).
    pub fn pressure_field(&self, x: Vec3) -> f64 {
        let c = Vec3::new(PI, PI, PI);
        let r2 = (x - c).norm_sq();
        self.pressure() * (1.0 + self.amplitude * (-r2 / (self.sigma * self.sigma)).exp())
    }

    /// Isothermal initial state at rest: `ρ = p / (R T0)`, `u = 0`.
    pub fn initial_state(&self, mesh: &HexMesh) -> Conserved {
        let gas = self.gas();
        let mut state = Conserved::zeros(mesh.num_nodes());
        for (n, &x) in mesh.coords().iter().enumerate() {
            let rho = self.pressure_field(x) / (self.r_gas * self.t0);
            state.rho[n] = rho;
            state.energy[n] = gas.total_energy(rho, Vec3::ZERO, self.t0);
        }
        state
    }

    /// Largest nodal density deviation from the far-field `ρ0` — the
    /// pulse-amplitude observable the spreading invariant tracks.
    pub fn peak_density_perturbation(&self, state: &Conserved) -> f64 {
        state
            .rho
            .iter()
            .map(|&r| (r - self.rho0).abs())
            .fold(0.0, f64::max)
    }
}

// ----------------------------------------------------------- invariants

/// One invariant check: a measured scalar compared against its bound.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantCheck {
    /// Check identifier (stable — consumed by the JSON artifacts).
    pub name: &'static str,
    /// Comparison direction: `"<="` (value must not exceed the bound) or
    /// `">="` (value must reach the bound).
    pub op: &'static str,
    /// Measured value.
    pub value: f64,
    /// The bound the value is compared against.
    pub bound: f64,
    /// Whether the check passed.
    pub passed: bool,
}

impl InvariantCheck {
    /// An upper-bound check: passes when `value ≤ bound`.
    pub fn le(name: &'static str, value: f64, bound: f64) -> Self {
        InvariantCheck {
            name,
            op: "<=",
            value,
            bound,
            passed: value <= bound,
        }
    }

    /// A lower-bound check: passes when `value ≥ bound`.
    pub fn ge(name: &'static str, value: f64, bound: f64) -> Self {
        InvariantCheck {
            name,
            op: ">=",
            value,
            bound,
            passed: value >= bound,
        }
    }
}

/// The outcome of a scenario's invariant checks.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantReport {
    checks: Vec<InvariantCheck>,
}

impl InvariantReport {
    /// The individual checks.
    pub fn checks(&self) -> &[InvariantCheck] {
        &self.checks
    }

    /// Whether every check passed.
    pub fn all_passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

impl std::fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for c in &self.checks {
            writeln!(
                f,
                "  [{}] {:<24} {:>12.4e} {} {:>10.3e}",
                if c.passed { "ok" } else { "FAIL" },
                c.name,
                c.value,
                c.op,
                c.bound
            )?;
        }
        Ok(())
    }
}

// ------------------------------------------------------------- scenario

/// Which physical setup a [`Scenario`] instantiates.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioKind {
    /// The paper's Taylor-Green Vortex (periodic, viscous).
    TaylorGreen(TgvConfig),
    /// The wall-bounded lid-driven cavity.
    LidCavity(CavityConfig),
    /// The periodic double shear layer.
    DoubleShearLayer(ShearLayerConfig),
    /// The inviscid acoustic pulse.
    AcousticPulse(PulseConfig),
}

/// A registered workload: mesh recipe + gas model + initial condition +
/// optional Dirichlet boundary condition + invariants (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: &'static str,
    description: &'static str,
    kind: ScenarioKind,
}

impl Scenario {
    /// The Taylor-Green Vortex registry entry.
    ///
    /// Uses `Re = 400` (not the paper's 1600) so the kinetic-energy decay
    /// invariant is viscosity-dominated — and therefore monotone — on the
    /// coarse meshes the regression matrix runs; the performance studies
    /// keep using [`TgvConfig::standard`].
    pub fn taylor_green() -> Self {
        Scenario {
            name: "taylor-green-vortex",
            description: "triply periodic TGV: smooth vortex decaying into turbulence",
            kind: ScenarioKind::TaylorGreen(TgvConfig::new(0.1, 400.0)),
        }
    }

    /// The lid-driven cavity registry entry (wall-bounded; exercises the
    /// Dirichlet residual-zeroing path inside the RK loop).
    pub fn lid_cavity() -> Self {
        Scenario {
            name: "lid-driven-cavity",
            description: "walled unit box, no-slip walls, sliding lid at z = 1",
            kind: ScenarioKind::LidCavity(CavityConfig::standard()),
        }
    }

    /// The double-shear-layer registry entry.
    pub fn double_shear_layer() -> Self {
        Scenario {
            name: "double-shear-layer",
            description: "two periodic tanh shear layers with sinusoidal perturbation",
            kind: ScenarioKind::DoubleShearLayer(ShearLayerConfig::standard()),
        }
    }

    /// The acoustic-pulse registry entry (inviscid).
    pub fn acoustic_pulse() -> Self {
        Scenario {
            name: "acoustic-pulse",
            description: "inviscid Gaussian pressure pulse radiating from rest",
            kind: ScenarioKind::AcousticPulse(PulseConfig::standard()),
        }
    }

    /// Every registered scenario, in canonical order.
    pub fn registry() -> Vec<Scenario> {
        vec![
            Scenario::taylor_green(),
            Scenario::lid_cavity(),
            Scenario::double_shear_layer(),
            Scenario::acoustic_pulse(),
        ]
    }

    /// Looks up a registry entry by its stable name (`None` for names
    /// not in [`Scenario::registry`]).
    pub fn by_name(name: &str) -> Option<Scenario> {
        Scenario::registry().into_iter().find(|s| s.name() == name)
    }

    /// Stable scenario identifier.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line human description.
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// The underlying physical configuration.
    pub fn kind(&self) -> &ScenarioKind {
        &self.kind
    }

    /// Whether the scenario pins boundary nodes with a [`DirichletBc`].
    pub fn is_wall_bounded(&self) -> bool {
        matches!(self.kind, ScenarioKind::LidCavity(_))
    }

    /// Whether a Reynolds-number override is meaningful for this
    /// scenario (`false` for the inviscid acoustic pulse, which has no
    /// viscosity to set — sweeps collapse its Reynolds axis).
    pub fn supports_reynolds(&self) -> bool {
        !matches!(self.kind, ScenarioKind::AcousticPulse(_))
    }

    /// Returns a copy with declarative parameter overrides applied — the
    /// hook [`crate::spec::SimulationSpec`] varies ensemble members
    /// through.
    ///
    /// `reynolds` replaces the scenario's Reynolds number: directly for
    /// the TGV and shear layer, via `μ = ρ0·U·L/Re` (unit box, `L = 1`)
    /// for the cavity. `amplitude` scales the initial-condition
    /// strength: the TGV reference velocity, the cavity lid speed, the
    /// shear-layer perturbation `ε`, the pulse amplitude. The lid-speed
    /// scale is applied *before* a cavity Reynolds override, so the
    /// requested Reynolds number is exact for the scaled lid.
    ///
    /// # Errors
    ///
    /// [`crate::SolverError::InvalidSpec`] for non-positive overrides,
    /// or a Reynolds override on a scenario where
    /// [`Scenario::supports_reynolds`] is `false`.
    pub fn with_overrides(
        &self,
        reynolds: Option<f64>,
        amplitude: Option<f64>,
    ) -> Result<Scenario, SolverError> {
        for (what, v) in [("reynolds", reynolds), ("amplitude", amplitude)] {
            if let Some(v) = v {
                if !(v > 0.0 && v.is_finite()) {
                    return Err(SolverError::InvalidSpec(format!(
                        "{what} override must be positive and finite, got {v}"
                    )));
                }
            }
        }
        if reynolds.is_some() && !self.supports_reynolds() {
            return Err(SolverError::InvalidSpec(format!(
                "scenario `{}` is inviscid: a reynolds override is meaningless",
                self.name
            )));
        }
        let mut out = self.clone();
        match &mut out.kind {
            ScenarioKind::TaylorGreen(c) => {
                if let Some(a) = amplitude {
                    c.v0 *= a;
                }
                if let Some(re) = reynolds {
                    c.reynolds = re;
                }
            }
            ScenarioKind::LidCavity(c) => {
                if let Some(a) = amplitude {
                    c.lid_speed *= a;
                }
                if let Some(re) = reynolds {
                    c.mu = c.rho0 * c.lid_speed / re;
                }
            }
            ScenarioKind::DoubleShearLayer(c) => {
                if let Some(a) = amplitude {
                    c.eps *= a;
                }
                if let Some(re) = reynolds {
                    c.reynolds = re;
                }
            }
            ScenarioKind::AcousticPulse(c) => {
                if let Some(a) = amplitude {
                    c.amplitude *= a;
                }
            }
        }
        Ok(out)
    }

    /// CFL number the scenario is stable and accurate at.
    pub fn default_cfl(&self) -> f64 {
        match self.kind {
            // Wall-bounded: the impulsively started lid sheds a sharp
            // startup transient, so run a little below the periodic CFL.
            ScenarioKind::LidCavity(_) => 0.3,
            _ => 0.4,
        }
    }

    /// The gas model of the scenario.
    pub fn gas(&self) -> GasModel {
        match &self.kind {
            ScenarioKind::TaylorGreen(c) => c.gas(),
            ScenarioKind::LidCavity(c) => c.gas(),
            ScenarioKind::DoubleShearLayer(c) => c.gas(),
            ScenarioKind::AcousticPulse(c) => c.gas(),
        }
    }

    /// Builds the scenario mesh with `edge` elements per axis: the
    /// periodic `[0, 2π]³` TGV box for the periodic scenarios, a walled
    /// unit box for the cavity.
    ///
    /// # Errors
    ///
    /// Propagates mesh-generation failures (e.g. `edge` too small for a
    /// periodic axis).
    pub fn mesh(&self, edge: usize) -> Result<HexMesh, SolverError> {
        self.mesh_with_order(edge, 1)
    }

    /// Like [`Scenario::mesh`], but with `order`-th degree elements —
    /// the high-order entry point the sum-factorized kernel study runs
    /// through.
    ///
    /// # Errors
    ///
    /// Propagates mesh-generation failures (e.g. `edge` too small for a
    /// periodic axis, or an unsupported order).
    pub fn mesh_with_order(&self, edge: usize, order: usize) -> Result<HexMesh, SolverError> {
        let mesh = match &self.kind {
            ScenarioKind::LidCavity(_) => BoxMeshBuilder::new()
                .elements(edge, edge, edge)
                .periodic(false, false, false)
                .origin(0.0, 0.0, 0.0)
                .extent(1.0, 1.0, 1.0)
                .order(order)
                .build()?,
            _ => BoxMeshBuilder::tgv_box(edge).order(order).build()?,
        };
        Ok(mesh)
    }

    /// The initial conserved state on `mesh`.
    pub fn initial_state(&self, mesh: &HexMesh) -> Conserved {
        match &self.kind {
            ScenarioKind::TaylorGreen(c) => c.initial_state(mesh),
            ScenarioKind::LidCavity(c) => c.initial_state(mesh),
            ScenarioKind::DoubleShearLayer(c) => c.initial_state(mesh),
            ScenarioKind::AcousticPulse(c) => c.initial_state(mesh),
        }
    }

    /// The Dirichlet boundary condition, if the scenario is wall-bounded.
    pub fn boundary(&self, mesh: &HexMesh) -> Option<DirichletBc> {
        match &self.kind {
            ScenarioKind::LidCavity(c) => Some(c.boundary(mesh)),
            _ => None,
        }
    }

    /// Builds the ready-to-step [`Simulation`] (mesh, gas, initial state,
    /// boundary condition attached).
    ///
    /// # Errors
    ///
    /// Propagates mesh and simulation construction failures.
    pub fn simulation(&self, edge: usize) -> Result<Simulation, SolverError> {
        self.simulation_with_order(edge, 1)
    }

    /// Like [`Scenario::simulation`], but on an `order`-th degree mesh —
    /// initial state and boundary condition are sampled on the
    /// high-order nodes, so the golden high-order traces and the kernel
    /// order ladder both start from the exact nodal fields.
    ///
    /// # Errors
    ///
    /// Propagates mesh and simulation construction failures.
    pub fn simulation_with_order(
        &self,
        edge: usize,
        order: usize,
    ) -> Result<Simulation, SolverError> {
        let mesh = self.mesh_with_order(edge, order)?;
        let initial = self.initial_state(&mesh);
        let bc = self.boundary(&mesh);
        let mut builder = Simulation::builder(mesh, self.gas(), initial);
        if let Some(bc) = bc {
            builder = builder.bc(bc);
        }
        builder.build()
    }

    /// Velocity scale used to normalize momentum-drift checks.
    fn velocity_scale(&self) -> f64 {
        match &self.kind {
            ScenarioKind::TaylorGreen(c) => c.v0,
            ScenarioKind::LidCavity(c) => c.lid_speed,
            ScenarioKind::DoubleShearLayer(c) => c.u0,
            // Particle velocity of the linear wave: `A·c0 / γ`.
            ScenarioKind::AcousticPulse(c) => c.amplitude * c.sound_speed() / c.gamma,
        }
    }

    /// Evaluates the scenario invariants between two diagnostic
    /// snapshots of the *same* simulation.
    ///
    /// `sim` must be the simulation `end` was computed from, with its
    /// diagnostics freshly evaluated (so the primitive cache matches the
    /// final state) — [`Simulation::diagnostics`] guarantees that.
    /// Conservation checks compare `end` against `start`; state checks
    /// (wall adherence, pulse amplitude) read `sim` directly.
    pub fn check_invariants(
        &self,
        start: &FlowDiagnostics,
        end: &FlowDiagnostics,
        sim: &Simulation,
    ) -> InvariantReport {
        let mut checks = Vec::new();
        let mass_drift = ((end.total_mass - start.total_mass) / start.total_mass).abs();
        let mom_drift = (end.total_momentum - start.total_momentum).norm()
            / (start.total_mass * self.velocity_scale());
        match &self.kind {
            ScenarioKind::TaylorGreen(_) | ScenarioKind::DoubleShearLayer(_) => {
                let energy_drift =
                    ((end.total_energy - start.total_energy) / start.total_energy).abs();
                let ke_ratio = end.kinetic_energy / start.kinetic_energy;
                checks.push(InvariantCheck::le("mass_drift_rel", mass_drift, 1e-12));
                checks.push(InvariantCheck::le("energy_drift_rel", energy_drift, 1e-12));
                checks.push(InvariantCheck::le("momentum_drift_rel", mom_drift, 1e-10));
                // Viscous flows: KE must decay, but not collapse.
                checks.push(InvariantCheck::le("ke_ratio_decayed", ke_ratio, 0.99999));
                checks.push(InvariantCheck::ge("ke_ratio_retained", ke_ratio, 0.5));
            }
            ScenarioKind::LidCavity(c) => {
                // Walls pin mass only approximately (interior compresses
                // against the fixed-ρ boundary), so the bound is loose
                // relative to the periodic 1e-12 but still catches any
                // broken boundary composition.
                checks.push(InvariantCheck::le("mass_drift_rel", mass_drift, 1e-6));
                let pin_dev = sim
                    .bc()
                    .map(|bc| bc.max_abs_deviation(sim.conserved()))
                    .unwrap_or(f64::INFINITY);
                checks.push(InvariantCheck::le("wall_pin_max_abs", pin_dev, 0.0));
                let max_u = interior_max_speed(sim);
                checks.push(InvariantCheck::le(
                    "interior_speed_vs_lid",
                    max_u / c.lid_speed,
                    1.0,
                ));
                // Momentum must have diffused in from the lid: the flow
                // is being stirred, not frozen by over-pinning.
                checks.push(InvariantCheck::ge(
                    "interior_speed_stirred",
                    max_u / c.lid_speed,
                    1e-10,
                ));
            }
            ScenarioKind::AcousticPulse(c) => {
                let energy_drift =
                    ((end.total_energy - start.total_energy) / start.total_energy).abs();
                checks.push(InvariantCheck::le("mass_drift_rel", mass_drift, 1e-12));
                checks.push(InvariantCheck::le("energy_drift_rel", energy_drift, 1e-12));
                // Spherical symmetry: no net momentum may appear.
                checks.push(InvariantCheck::le("momentum_drift_rel", mom_drift, 1e-10));
                // The pulse must spread: its peak decays as the wave
                // radiates (3D amplitude falls off like 1/r).
                let peak = c.peak_density_perturbation(sim.conserved());
                let initial_peak = c.amplitude * c.rho0;
                checks.push(InvariantCheck::le(
                    "pulse_peak_ratio",
                    peak / initial_peak,
                    0.95,
                ));
            }
        }
        InvariantReport { checks }
    }
}

/// Largest velocity magnitude over non-boundary nodes (reads the
/// primitive cache, so diagnostics must have been evaluated last).
fn interior_max_speed(sim: &Simulation) -> f64 {
    let core = sim.core();
    (0..core.mesh().num_nodes())
        .filter(|&n| !core.mesh().boundary_tag(n).is_boundary())
        .map(|n| core.primitives().velocity(n).norm())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BackendSelect, PartitionStrategy};
    use crate::parallel::AssemblyStrategy;
    use proptest::prelude::*;
    use std::f64::consts::TAU;

    #[test]
    fn registry_has_four_uniquely_named_entries() {
        let reg = Scenario::registry();
        assert_eq!(reg.len(), 4);
        let mut names: Vec<&str> = reg.iter().map(Scenario::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4, "duplicate scenario names");
        assert!(reg.iter().any(|s| s.name() == "taylor-green-vortex"));
        assert!(reg.iter().any(|s| s.name() == "lid-driven-cavity"));
        assert!(reg.iter().any(|s| s.name() == "double-shear-layer"));
        assert!(reg.iter().any(|s| s.name() == "acoustic-pulse"));
    }

    #[test]
    fn every_scenario_builds_and_steps() {
        for scenario in Scenario::registry() {
            let mut sim = scenario
                .simulation(4)
                .unwrap_or_else(|e| panic!("{}: simulation build failed: {e}", scenario.name()));
            assert!(sim.conserved().is_physical(), "{}", scenario.name());
            let dt = sim.suggest_dt(scenario.default_cfl());
            sim.advance(2, dt)
                .unwrap_or_else(|e| panic!("{}: step failed: {e}", scenario.name()));
            assert_eq!(
                scenario.is_wall_bounded(),
                sim.bc().is_some(),
                "{}: BC wiring",
                scenario.name()
            );
        }
    }

    #[test]
    fn cavity_boundary_pins_every_boundary_node_with_lid_momentum() {
        let scenario = Scenario::lid_cavity();
        let mesh = scenario.mesh(4).unwrap();
        let bc = scenario.boundary(&mesh).expect("cavity is wall-bounded");
        assert_eq!(bc.len(), mesh.boundary_nodes().len());
        let lid_nodes = bc.targets().iter().filter(|(_, v)| v[1] != 0.0).count();
        // Lid = interior of the top face: (nodes_per_axis − 2)².
        assert_eq!(lid_nodes, 3 * 3);
    }

    #[test]
    fn shear_layer_velocity_is_continuous_across_the_periodic_seam() {
        let c = ShearLayerConfig::standard();
        let lo = c.velocity(Vec3::new(1.0, 1e-12, 0.0));
        let hi = c.velocity(Vec3::new(1.0, TAU - 1e-12, 0.0));
        assert!((lo.x - hi.x).abs() < 1e-9, "{} vs {}", lo.x, hi.x);
        // Counter-flowing streams around each layer.
        assert!(c.velocity(Vec3::new(0.0, PI, 0.0)).x > 0.9 * c.u0);
        assert!(c.velocity(Vec3::new(0.0, 0.0, 0.0)).x < -0.9 * c.u0);
    }

    #[test]
    fn pulse_initial_state_is_symmetric_and_at_rest() {
        let scenario = Scenario::acoustic_pulse();
        let mesh = scenario.mesh(6).unwrap();
        let state = scenario.initial_state(&mesh);
        assert!(state.is_physical());
        for d in 0..3 {
            assert!(state.mom[d].iter().all(|&m| m == 0.0));
        }
        let ScenarioKind::AcousticPulse(cfg) = scenario.kind() else {
            panic!("kind");
        };
        let peak = cfg.peak_density_perturbation(&state);
        assert!(
            (peak - cfg.amplitude * cfg.rho0).abs() < 0.3 * cfg.amplitude,
            "peak {peak}"
        );
    }

    proptest! {
        /// Dirichlet-pinned nodes stay **bitwise** at their targets across
        /// full RK4 steps for the serial loop and the multi-device
        /// executor on randomized non-periodic meshes, and the composed
        /// RHS is exactly zero at every pinned node.
        #[test]
        fn prop_pinned_nodes_stay_bitwise_fixed_across_strategies(
            nx in 3usize..5,
            ny in 3usize..5,
            nz in 3usize..5,
            periodic_x in proptest::bool::ANY,
            lid in 0.5f64..2.0,
        ) {
            let mut builder = BoxMeshBuilder::new();
            builder
                .elements(nx, ny, nz)
                .periodic(periodic_x, false, false)
                .origin(0.0, 0.0, 0.0)
                .extent(1.0, 1.0, 1.0);
            let cfg = CavityConfig {
                lid_speed: lid,
                ..CavityConfig::standard()
            };
            for select in [
                BackendSelect::Reference(AssemblyStrategy::Serial),
                BackendSelect::MultiDevice {
                    devices: 2,
                    strategy: PartitionStrategy::Partitioned,
                },
                BackendSelect::MultiDevice {
                    devices: 3,
                    strategy: PartitionStrategy::Contiguous,
                },
            ] {
                let mesh = builder.build().unwrap();
                let bc = cfg.boundary(&mesh);
                prop_assert!(!bc.is_empty());
                let targets: Vec<(u32, [f64; 5])> = bc.targets().to_vec();
                let initial = cfg.initial_state(&mesh);
                let mut sim = Simulation::new(mesh, cfg.gas(), initial)
                    .unwrap()
                    .with_bc(bc);
                sim.set_backend(select).unwrap();
                let dt = sim.suggest_dt(0.3);

                // The RHS the RK loop integrates is exactly zero at every
                // pinned node (the zero_rhs composition with the fused
                // kernel and the multi-device owner apply).
                let rhs = sim.eval_rhs();
                for &(n, _) in &targets {
                    let n = n as usize;
                    prop_assert_eq!(rhs.rho[n].to_bits(), 0.0f64.to_bits());
                    prop_assert_eq!(rhs.energy[n].to_bits(), 0.0f64.to_bits());
                    for d in 0..3 {
                        prop_assert_eq!(rhs.mom[d][n].to_bits(), 0.0f64.to_bits());
                    }
                }

                sim.advance(2, dt).unwrap();
                for &(n, vals) in &targets {
                    let n = n as usize;
                    prop_assert_eq!(sim.conserved().rho[n].to_bits(), vals[0].to_bits());
                    for d in 0..3 {
                        prop_assert_eq!(
                            sim.conserved().mom[d][n].to_bits(),
                            vals[1 + d].to_bits()
                        );
                    }
                    prop_assert_eq!(sim.conserved().energy[n].to_bits(), vals[4].to_bits());
                }
            }
        }
    }
}

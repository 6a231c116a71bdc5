//! FEM compressible Navier-Stokes solver — the paper's numerical
//! application and its CPU software baseline.
//!
//! Implements §II of *Dataflow Optimized Reconfigurable Acceleration for
//! FEM-based CFD Simulations* (DATE 2025): the 3D compressible
//! Navier-Stokes equations (mass, momentum, energy conservation with ideal
//! gas, viscous stress tensor τ and Fourier heat conduction), discretized
//! in space with Gauss-Lobatto-Legendre spectral finite elements on
//! hexahedral meshes and integrated in time with classical RK4.
//!
//! The module structure mirrors the paper's computation graph (Fig 1):
//!
//! * [`gas`] — constitutive relations (ideal gas law, μ, κ).
//! * [`state`] — conserved state + the RKU primitive update.
//! * [`kernels`] — the RKL element kernels: gather, gradients, τ,
//!   convective/viscous fluxes, weak divergence (sum-factored or
//!   full-matrix, selected by [`KernelPath`]), scatter.
//! * [`driver`] — the RK4 time loop gluing RKL and RKU together.
//! * [`engine`] — the shard-parallel execution engine: the pluggable
//!   [`ExecutionBackend`] trait with the serial reference backend and the
//!   one parallel executor, [`MultiDeviceBackend`] (bitwise identical to
//!   the serial loop at every device count) and its closed-form
//!   inter-device link model. The accelerator emulations of a shard plan
//!   live in `fem_accel::emulation`, outside this crate.
//! * [`parallel`] — the serial host assembly loop every backend is
//!   checked against, and the split-kernel reference the fused kernel is
//!   validated against.
//! * [`tgv`] — the Taylor-Green Vortex workload of the evaluation.
//! * [`scenarios`] — the workload registry (TGV, lid-driven cavity,
//!   double shear layer, acoustic pulse) with per-scenario invariants.
//! * [`spec`] — declarative [`SimulationSpec`]/[`SweepSpec`] descriptions
//!   (serde round-trippable, unknown fields rejected) that expand into
//!   ensemble members.
//! * [`ensemble`] — the [`EnsembleDriver`] serving engine: N members
//!   through one worker pool, same-mesh members sharing one
//!   [`fem_mesh::SharedMeshContext`], results streamed into an
//!   [`EnsembleReport`].
//! * [`boundary`] — Dirichlet conditions for wall-bounded examples.
//! * [`diagnostics`] — conservation checks, kinetic energy, enstrophy.
//! * [`profile`] — the Fig 2 execution-time breakdown instrumentation.
//!
//! # Example
//!
//! ```
//! use fem_mesh::generator::BoxMeshBuilder;
//! use fem_solver::{driver::Simulation, tgv::TgvConfig};
//!
//! # fn main() -> Result<(), fem_solver::SolverError> {
//! let mesh = BoxMeshBuilder::tgv_box(6).build().unwrap();
//! let cfg = TgvConfig::standard();
//! let initial = cfg.initial_state(&mesh);
//! let mut sim = Simulation::new(mesh, cfg.gas(), initial)?;
//! let dt = sim.suggest_dt(0.4);
//! sim.advance(3, dt)?;
//! let d = sim.diagnostics();
//! assert!(d.kinetic_energy > 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub(crate) mod batch;
pub mod boundary;
pub mod checkpoint;
pub mod convergence;
pub mod diagnostics;
pub mod driver;
pub mod engine;
pub mod ensemble;
pub mod gas;
pub mod kernels;
pub mod parallel;
pub mod profile;
pub mod scenarios;
pub mod spec;
pub mod state;
pub mod tgv;

pub use diagnostics::FlowDiagnostics;
pub use driver::{Simulation, SimulationBuilder, SolverCore};
pub use engine::{
    AssemblyContext, BackendSelect, DeviceExchangeReport, DevicePhaseSeconds, ExecutionBackend,
    MultiDeviceBackend, PartitionStrategy, ReferenceBackend,
};
pub use ensemble::{EnsembleDriver, EnsembleReport, MemberResult};
pub use gas::GasModel;
pub use kernels::KernelPath;
pub use parallel::AssemblyStrategy;
pub use profile::{Phase, PhaseProfiler};
pub use scenarios::{InvariantCheck, InvariantReport, Scenario, ScenarioKind};
pub use spec::{BackendSpec, SimulationSpec, SweepSpec};
pub use state::{Conserved, Primitives};
pub use tgv::TgvConfig;

/// Errors produced by the solver.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// The initial state and mesh disagree on node count.
    NodeCountMismatch {
        /// Nodes in the provided state.
        state_nodes: usize,
        /// Nodes in the mesh.
        mesh_nodes: usize,
    },
    /// A state with non-positive density or internal energy was
    /// encountered (time-step blow-up or invalid initial data).
    UnphysicalState {
        /// RK step at which the state became unphysical (0 = initial).
        step: usize,
    },
    /// A mesh-layer failure (inverted element, bad order, ...).
    Mesh(fem_mesh::MeshError),
    /// A declarative simulation/sweep spec could not be realized
    /// (unknown scenario or backend kind, unsupported parameter
    /// override, empty sweep, ...).
    InvalidSpec(String),
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::NodeCountMismatch {
                state_nodes,
                mesh_nodes,
            } => write!(f, "state has {state_nodes} nodes but mesh has {mesh_nodes}"),
            SolverError::UnphysicalState { step } => write!(
                f,
                "unphysical state (negative density or internal energy) at step {step}"
            ),
            SolverError::Mesh(e) => write!(f, "mesh error: {e}"),
            SolverError::InvalidSpec(msg) => write!(f, "invalid spec: {msg}"),
        }
    }
}

impl std::error::Error for SolverError {}

impl From<fem_mesh::MeshError> for SolverError {
    fn from(e: fem_mesh::MeshError) -> Self {
        SolverError::Mesh(e)
    }
}

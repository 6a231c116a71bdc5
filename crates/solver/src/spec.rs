//! Declarative simulation and sweep specifications.
//!
//! A [`SimulationSpec`] names everything needed to construct one
//! simulation — a registry scenario, resolution, step count, optional
//! parameter overrides, and a [`BackendSpec`] execution-backend
//! selection — as plain serde-serializable data, so ensembles can be
//! described in JSON files instead of code. A [`SweepSpec`] is the
//! parameter-grid form: lists of scenarios, mesh edges, Reynolds
//! numbers, amplitudes, and backends whose cartesian product
//! [`SweepSpec::expand`]s into the member [`SimulationSpec`]s an
//! [`crate::ensemble::EnsembleDriver`] runs.
//!
//! Specs deserialize strictly: unknown fields are rejected (the vendored
//! serde derive always enforces `deny_unknown_fields`), so a typo'd key
//! in a sweep file fails loudly instead of silently running the default.
//! Construction goes through [`crate::SimulationBuilder`] — the same
//! path as hand-written code — which is what makes a spec-built member
//! bitwise identical to its imperatively configured twin.

use crate::driver::Simulation;
use crate::engine::BackendSelect;
use crate::kernels::KernelPath;
use crate::parallel::AssemblyStrategy;
use crate::scenarios::Scenario;
use crate::SolverError;
use fem_mesh::{PartitionStrategy, SharedMeshContext};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Declarative execution-backend selection.
///
/// | `kind`        | `strategy`                            | count field           |
/// |---------------|---------------------------------------|-----------------------|
/// | `reference`   | `serial` (default)                    | —                     |
/// | `multidevice` | `contiguous` (default), `partitioned` | `devices` (default 4) |
///
/// The removed kinds `sharded` and `dataflow-emulated`, and the removed
/// `reference` strategies `chunked` and `colored`, are rejected with an
/// error that names `multidevice` and its `devices` field. The removed
/// `shards` field fails as an unknown field.
///
/// Orthogonally to the family, `kernel` selects the weak-divergence
/// contraction every backend dispatches: `sum-factored` (default — the
/// O(p⁴) three-sweep hot path) or `full-matrix` (the O(p⁶) dense
/// validation reference).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendSpec {
    /// Backend family: `reference` or `multidevice`.
    pub kind: String,
    /// Family-specific strategy name (see the table above).
    pub strategy: Option<String>,
    /// Device count (`multidevice` only); rejected elsewhere.
    pub devices: Option<usize>,
    /// Weak-divergence kernel path: `sum-factored` (default) or
    /// `full-matrix`; honored by every backend family.
    pub kernel: Option<String>,
}

impl BackendSpec {
    /// The default selection: the serial reference backend.
    pub fn reference_serial() -> BackendSpec {
        BackendSpec {
            kind: "reference".to_string(),
            strategy: None,
            devices: None,
            kernel: None,
        }
    }

    /// Resolves the `kernel` field to a [`KernelPath`].
    ///
    /// # Errors
    ///
    /// [`SolverError::InvalidSpec`] for an unknown kernel name.
    pub fn kernel_path(&self) -> Result<KernelPath, SolverError> {
        match self.kernel.as_deref() {
            None => Ok(KernelPath::default()),
            Some(name) => KernelPath::parse(name).ok_or_else(|| {
                SolverError::InvalidSpec(format!(
                    "unknown kernel path `{name}` (sum-factored, full-matrix)"
                ))
            }),
        }
    }

    /// Resolves the spec to a [`BackendSelect`].
    ///
    /// # Errors
    ///
    /// [`SolverError::InvalidSpec`] for an unknown or removed kind or
    /// strategy name, or a device count on the serial reference.
    pub fn to_select(&self) -> Result<BackendSelect, SolverError> {
        let strategy = self.strategy.as_deref();
        match self.kind.as_str() {
            "reference" => match strategy {
                None | Some("serial") => {
                    if let Some(n) = self.devices {
                        return Err(SolverError::InvalidSpec(format!(
                            "`devices: {n}` is meaningless for reference(serial)"
                        )));
                    }
                    Ok(BackendSelect::Reference(AssemblyStrategy::Serial))
                }
                Some(removed @ ("chunked" | "colored")) => Err(SolverError::InvalidSpec(format!(
                    "reference strategy `{removed}` was removed: use `multidevice` with \
                     `devices` for parallel assembly (bitwise identical to serial)"
                ))),
                Some(other) => Err(SolverError::InvalidSpec(format!(
                    "unknown reference strategy `{other}` (serial)"
                ))),
            },
            "multidevice" => {
                let strategy = self.partition_strategy()?;
                Ok(BackendSelect::MultiDevice {
                    devices: self.devices.unwrap_or(4),
                    strategy,
                })
            }
            removed @ ("sharded" | "dataflow-emulated") => Err(SolverError::InvalidSpec(format!(
                "backend kind `{removed}` was removed: use `multidevice` with `devices` in \
                 place of `shards` (same plans, same bits)"
            ))),
            other => Err(SolverError::InvalidSpec(format!(
                "unknown backend kind `{other}` (reference, multidevice)"
            ))),
        }
    }

    fn partition_strategy(&self) -> Result<PartitionStrategy, SolverError> {
        match self.strategy.as_deref() {
            None | Some("contiguous") => Ok(PartitionStrategy::Contiguous),
            Some("partitioned") => Ok(PartitionStrategy::Partitioned),
            Some(other) => Err(SolverError::InvalidSpec(format!(
                "unknown {} strategy `{other}` (contiguous, partitioned)",
                self.kind
            ))),
        }
    }
}

/// Everything needed to construct and run one simulation, as data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationSpec {
    /// Registry scenario name (see [`Scenario::registry`]).
    pub scenario: String,
    /// Mesh elements per axis.
    pub edge: usize,
    /// RK4 steps to advance.
    pub steps: usize,
    /// Reynolds-number override ([`Scenario::with_overrides`]).
    pub reynolds: Option<f64>,
    /// Initial-condition amplitude scale ([`Scenario::with_overrides`]).
    pub amplitude: Option<f64>,
    /// CFL number for the time step (default:
    /// [`Scenario::default_cfl`]).
    pub cfl: Option<f64>,
    /// Execution-backend selection.
    pub backend: BackendSpec,
}

impl SimulationSpec {
    /// The resolved scenario with the spec's overrides applied.
    ///
    /// # Errors
    ///
    /// [`SolverError::InvalidSpec`] for an unknown scenario name or an
    /// invalid override combination.
    pub fn resolve_scenario(&self) -> Result<Scenario, SolverError> {
        let scenario = Scenario::by_name(&self.scenario).ok_or_else(|| {
            SolverError::InvalidSpec(format!("unknown scenario `{}`", self.scenario))
        })?;
        scenario.with_overrides(self.reynolds, self.amplitude)
    }

    /// The effective CFL number (`cfl` override or the scenario
    /// default).
    ///
    /// # Errors
    ///
    /// Propagates [`SimulationSpec::resolve_scenario`] failures.
    pub fn effective_cfl(&self) -> Result<f64, SolverError> {
        match self.cfl {
            Some(cfl) if cfl > 0.0 && cfl.is_finite() => Ok(cfl),
            Some(cfl) => Err(SolverError::InvalidSpec(format!(
                "cfl must be positive and finite, got {cfl}"
            ))),
            None => Ok(self.resolve_scenario()?.default_cfl()),
        }
    }

    /// Builds the simulation with its own private mesh context.
    ///
    /// # Errors
    ///
    /// [`SolverError::InvalidSpec`] for unresolvable names/overrides;
    /// otherwise whatever [`crate::SimulationBuilder::build`] reports.
    pub fn build(&self) -> Result<Simulation, SolverError> {
        let scenario = self.resolve_scenario()?;
        let mesh = scenario.mesh(self.edge)?;
        let initial = scenario.initial_state(&mesh);
        let bc = scenario.boundary(&mesh);
        let mut builder = Simulation::builder(mesh, scenario.gas(), initial)
            .backend(self.backend.to_select()?)
            .kernel_path(self.backend.kernel_path()?);
        if let Some(bc) = bc {
            builder = builder.bc(bc);
        }
        builder.build()
    }

    /// Builds the simulation on an existing [`SharedMeshContext`] — how
    /// ensemble members on one mesh share geometry and shard
    /// plans. The context's mesh must match what
    /// [`Scenario::mesh`] would build for this spec (the ensemble
    /// driver groups members by mesh shape to guarantee it); a
    /// mismatched node count is rejected by the builder.
    ///
    /// # Errors
    ///
    /// As [`SimulationSpec::build`].
    pub fn build_shared(&self, ctx: Arc<SharedMeshContext>) -> Result<Simulation, SolverError> {
        let scenario = self.resolve_scenario()?;
        let initial = scenario.initial_state(ctx.mesh());
        let bc = scenario.boundary(ctx.mesh());
        let mut builder = Simulation::builder_shared(ctx, scenario.gas(), initial)
            .backend(self.backend.to_select()?)
            .kernel_path(self.backend.kernel_path()?);
        if let Some(bc) = bc {
            builder = builder.bc(bc);
        }
        builder.build()
    }
}

/// A parameter grid that expands into ensemble members.
///
/// Empty override lists (`reynolds`, `amplitudes`) mean "scenario
/// default" — they contribute a single no-override axis value instead of
/// eliminating every member. Scenarios that don't support a Reynolds
/// override (see [`Scenario::supports_reynolds`]) collapse the Reynolds
/// axis to one member rather than erroring, so one sweep can mix viscous
/// and inviscid scenarios.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Sweep identifier (reported, not interpreted).
    pub name: String,
    /// Registry scenario names to include.
    pub scenarios: Vec<String>,
    /// Mesh edges (elements per axis) to include.
    pub edges: Vec<usize>,
    /// RK4 steps every member advances.
    pub steps: usize,
    /// Reynolds-number grid (empty = scenario default).
    pub reynolds: Vec<f64>,
    /// Initial-condition amplitude grid (empty = scenario default).
    pub amplitudes: Vec<f64>,
    /// Execution backends to include.
    pub backends: Vec<BackendSpec>,
    /// CFL number for every member (default: per-scenario).
    pub cfl: Option<f64>,
}

impl SweepSpec {
    /// Expands the grid into member [`SimulationSpec`]s, in
    /// deterministic scenario-major order.
    ///
    /// # Errors
    ///
    /// [`SolverError::InvalidSpec`] if `scenarios`, `edges`, or
    /// `backends` is empty, any scenario or backend fails to resolve, or
    /// an override is invalid for its scenario.
    pub fn expand(&self) -> Result<Vec<SimulationSpec>, SolverError> {
        for (what, empty) in [
            ("scenarios", self.scenarios.is_empty()),
            ("edges", self.edges.is_empty()),
            ("backends", self.backends.is_empty()),
        ] {
            if empty {
                return Err(SolverError::InvalidSpec(format!(
                    "sweep `{}` has an empty `{what}` list",
                    self.name
                )));
            }
        }
        let amplitudes: Vec<Option<f64>> = if self.amplitudes.is_empty() {
            vec![None]
        } else {
            self.amplitudes.iter().copied().map(Some).collect()
        };
        let mut members = Vec::new();
        for name in &self.scenarios {
            let scenario = Scenario::by_name(name).ok_or_else(|| {
                SolverError::InvalidSpec(format!("unknown scenario `{name}` in sweep"))
            })?;
            // Inviscid scenarios collapse the Reynolds axis.
            let reynolds: Vec<Option<f64>> =
                if self.reynolds.is_empty() || !scenario.supports_reynolds() {
                    vec![None]
                } else {
                    self.reynolds.iter().copied().map(Some).collect()
                };
            for &edge in &self.edges {
                for &re in &reynolds {
                    for &amp in &amplitudes {
                        for backend in &self.backends {
                            let spec = SimulationSpec {
                                scenario: name.clone(),
                                edge,
                                steps: self.steps,
                                reynolds: re,
                                amplitude: amp,
                                cfl: self.cfl,
                                backend: backend.clone(),
                            };
                            // Fail at expansion, not mid-ensemble.
                            spec.resolve_scenario()?;
                            spec.backend.to_select()?;
                            spec.backend.kernel_path()?;
                            spec.effective_cfl()?;
                            members.push(spec);
                        }
                    }
                }
            }
        }
        Ok(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A spec-built member and a setter-configured simulation of the
        /// same choices must produce bitwise identical trajectories —
        /// the declarative API is a description of, not an alternative
        /// to, the imperative configuration path.
        #[test]
        fn prop_spec_built_matches_setter_built_bitwise(
            scenario_idx in 0usize..4,
            backend_idx in 0usize..4,
            edge in 4usize..6,
            amp_scale in 1usize..4,
            full_matrix in proptest::bool::ANY,
        ) {
            let scenario = Scenario::registry()[scenario_idx].clone();
            let amplitude = Some(0.5 * amp_scale as f64);
            let kernel = full_matrix.then(|| "full-matrix".to_string());
            let backend = match backend_idx {
                0 => BackendSpec {
                    kernel: kernel.clone(),
                    ..BackendSpec::reference_serial()
                },
                1 => BackendSpec {
                    kind: "multidevice".to_string(),
                    strategy: None,
                    devices: None,
                    kernel: kernel.clone(),
                },
                2 => BackendSpec {
                    kind: "multidevice".to_string(),
                    strategy: Some("contiguous".to_string()),
                    devices: Some(2),
                    kernel: kernel.clone(),
                },
                _ => BackendSpec {
                    kind: "multidevice".to_string(),
                    strategy: Some("partitioned".to_string()),
                    devices: Some(3),
                    kernel: kernel.clone(),
                },
            };
            let spec = SimulationSpec {
                scenario: scenario.name().to_string(),
                edge,
                steps: 2,
                reynolds: None,
                amplitude,
                cfl: None,
                backend,
            };

            // Declarative path: spec → builder.
            let mut from_spec = spec.build().unwrap();
            let dt = from_spec.suggest_dt(spec.effective_cfl().unwrap());
            from_spec.advance(2, dt).unwrap();

            // Imperative path: overrides + legacy setters.
            let overridden = scenario.with_overrides(None, amplitude).unwrap();
            let mesh = overridden.mesh(edge).unwrap();
            let initial = overridden.initial_state(&mesh);
            let bc = overridden.boundary(&mesh);
            let mut by_hand =
                Simulation::new(mesh, overridden.gas(), initial).unwrap();
            if let Some(bc) = bc {
                by_hand = by_hand.with_bc(bc);
            }
            by_hand.set_backend(spec.backend.to_select().unwrap()).unwrap();
            by_hand.set_kernel_path(spec.backend.kernel_path().unwrap());
            by_hand.advance(2, dt).unwrap();

            let a = from_spec.conserved().to_bit_vec();
            let b = by_hand.conserved().to_bit_vec();
            prop_assert_eq!(a, b);
        }
    }

    fn sweep() -> SweepSpec {
        SweepSpec {
            name: "roundtrip".to_string(),
            scenarios: vec![
                "taylor-green-vortex".to_string(),
                "acoustic-pulse".to_string(),
            ],
            edges: vec![4, 6],
            steps: 3,
            reynolds: vec![100.0, 400.0],
            amplitudes: vec![],
            backends: vec![
                BackendSpec::reference_serial(),
                BackendSpec {
                    kind: "multidevice".to_string(),
                    strategy: Some("partitioned".to_string()),
                    devices: Some(2),
                    kernel: Some("full-matrix".to_string()),
                },
            ],
            cfl: Some(0.3),
        }
    }

    #[test]
    fn spec_roundtrip() {
        let sweep = sweep();
        let json = serde_json::to_string(&sweep).unwrap();
        let back: SweepSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sweep);

        let member = &sweep.expand().unwrap()[0];
        let json = serde_json::to_string_pretty(member).unwrap();
        let back: SimulationSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, member);
    }

    #[test]
    fn unknown_fields_and_names_are_rejected() {
        let err = serde_json::from_str::<BackendSpec>(r#"{"kind": "reference", "shardz": 4}"#)
            .unwrap_err();
        assert!(err.to_string().contains("unknown field"), "{err}");

        let bad = BackendSpec {
            kind: "gpu".to_string(),
            strategy: None,
            devices: None,
            kernel: None,
        };
        assert!(matches!(bad.to_select(), Err(SolverError::InvalidSpec(_))));
        let bad = BackendSpec {
            devices: Some(2),
            ..BackendSpec::reference_serial()
        };
        assert!(bad.to_select().is_err(), "devices on serial must fail");
        // The removed `shards` field fails as an unknown field.
        let err = serde_json::from_str::<BackendSpec>(r#"{"kind": "multidevice", "shards": 4}"#)
            .unwrap_err();
        assert!(err.to_string().contains("unknown field"), "{err}");
        let bad = BackendSpec {
            kernel: Some("tensor-core".to_string()),
            ..BackendSpec::reference_serial()
        };
        assert!(
            matches!(bad.kernel_path(), Err(SolverError::InvalidSpec(_))),
            "unknown kernel name must fail"
        );

        let mut sweep = sweep();
        sweep.scenarios.push("warp-drive".to_string());
        assert!(matches!(sweep.expand(), Err(SolverError::InvalidSpec(_))));

        let mut sweep = self::sweep();
        sweep.backends[0].kernel = Some("blocked".to_string());
        assert!(
            matches!(sweep.expand(), Err(SolverError::InvalidSpec(_))),
            "expansion must reject an unknown kernel name"
        );
    }

    #[test]
    fn removed_backend_kinds_name_their_replacement() {
        for kind in ["sharded", "dataflow-emulated"] {
            let old = BackendSpec {
                kind: kind.to_string(),
                strategy: Some("partitioned".to_string()),
                devices: None,
                kernel: None,
            };
            let Err(SolverError::InvalidSpec(msg)) = old.to_select() else {
                panic!("`{kind}` must be rejected");
            };
            assert!(msg.contains(&format!("`{kind}`")), "{msg}");
            assert!(msg.contains("`multidevice`"), "{msg}");
            assert!(msg.contains("`devices`"), "{msg}");
        }
    }

    #[test]
    fn removed_reference_strategies_name_their_replacement() {
        for strategy in ["chunked", "colored"] {
            let old = BackendSpec {
                strategy: Some(strategy.to_string()),
                ..BackendSpec::reference_serial()
            };
            let Err(SolverError::InvalidSpec(msg)) = old.to_select() else {
                panic!("`{strategy}` must be rejected");
            };
            assert!(msg.contains(&format!("`{strategy}`")), "{msg}");
            assert!(msg.contains("`multidevice`"), "{msg}");
            assert!(msg.contains("`devices`"), "{msg}");
        }
    }

    #[test]
    fn committed_example_sweep_expands() {
        let sweep: SweepSpec =
            serde_json::from_str(include_str!("../../../examples/sweeps/design_space.json"))
                .unwrap();
        assert!(!sweep.expand().unwrap().is_empty());
    }

    #[test]
    fn kernel_names_resolve_and_round_trip() {
        // The three accepted spellings resolve...
        let mut spec = BackendSpec::reference_serial();
        assert_eq!(spec.kernel_path().unwrap(), KernelPath::SumFactored);
        spec.kernel = Some("sum-factored".to_string());
        assert_eq!(spec.kernel_path().unwrap(), KernelPath::SumFactored);
        spec.kernel = Some("full-matrix".to_string());
        assert_eq!(spec.kernel_path().unwrap(), KernelPath::FullMatrix);
        // ...and the field survives serde both present and absent.
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"kernel\""), "{json}");
        let back: BackendSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        let absent: BackendSpec = serde_json::from_str(r#"{"kind": "reference"}"#).unwrap();
        assert_eq!(absent.kernel, None);
        assert_eq!(absent.kernel_path().unwrap(), KernelPath::SumFactored);
    }

    #[test]
    fn expansion_collapses_unsupported_axes() {
        let members = sweep().expand().unwrap();
        // TGV: 2 edges × 2 Re × 1 amp × 2 backends = 8.
        // Pulse (inviscid): Reynolds axis collapses → 2 × 1 × 1 × 2 = 4.
        assert_eq!(members.len(), 12);
        assert!(members
            .iter()
            .filter(|m| m.scenario == "acoustic-pulse")
            .all(|m| m.reynolds.is_none()));
        // Missing Option fields deserialize to None: a pulse member
        // round-trips even though its reynolds is absent.
        let pulse = members
            .iter()
            .find(|m| m.scenario == "acoustic-pulse")
            .unwrap();
        let json = serde_json::to_string(pulse).unwrap();
        let back: SimulationSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, pulse);
    }

    #[test]
    fn overrides_reach_the_configs() {
        let spec = SimulationSpec {
            scenario: "lid-driven-cavity".to_string(),
            edge: 4,
            steps: 1,
            reynolds: Some(250.0),
            amplitude: Some(2.0),
            cfl: None,
            backend: BackendSpec::reference_serial(),
        };
        let scenario = spec.resolve_scenario().unwrap();
        let crate::scenarios::ScenarioKind::LidCavity(c) = scenario.kind() else {
            panic!("wrong kind");
        };
        assert!((c.lid_speed - 2.0).abs() < 1e-15);
        // Re = ρ0·U·L/μ with the *scaled* lid: μ = 1·2·1/250.
        assert!((c.mu - 2.0 / 250.0).abs() < 1e-15);

        let inviscid = SimulationSpec {
            scenario: "acoustic-pulse".to_string(),
            reynolds: Some(100.0),
            ..spec
        };
        assert!(matches!(
            inviscid.resolve_scenario(),
            Err(SolverError::InvalidSpec(_))
        ));
    }
}

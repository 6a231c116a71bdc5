//! Ensemble serving: many scenario instances through one engine.
//!
//! An [`EnsembleDriver`] takes a list of member [`SimulationSpec`]s
//! (usually from [`SweepSpec::expand`](crate::spec::SweepSpec::expand))
//! and runs them all, scheduling members across a fixed worker pool
//! through a single shared work queue, so a long member (big mesh, many
//! steps) doesn't leave the other workers idle the way a static
//! round-robin split would.
//!
//! # Sharing contract
//!
//! Members are grouped by mesh shape (wall-bounded or periodic ×
//! edge count) and every group gets exactly one
//! [`SharedMeshContext`]: the mesh, geometry cache, lumped mass,
//! element coloring, and shard plans are built once and shared by every
//! member in the group via `Arc`. The sharing is explicit — members are
//! constructed through
//! [`SimulationSpec::build_shared`] — and measured: the
//! [`EnsembleReport`] quotes resident context bytes with sharing
//! against the sum of private copies each member would otherwise hold
//! ([`EnsembleReport::memory_savings_ratio`]).
//!
//! # Determinism contract
//!
//! Everything behind a shared context is immutable (the lazy
//! coloring/shard-plan caches are build-once), and each member owns its
//! state and workspaces outright, so a member's trajectory is
//! *bitwise* independent of which worker ran it, in what order, or
//! which other members share its context. Combined with the builder's
//! fixed configuration order and the backends' own bitwise-stability
//! guarantees, a spec-built ensemble member reproduces a hand-built
//! simulation of the same configuration bit for bit.

use crate::diagnostics::FlowDiagnostics;
use crate::spec::SimulationSpec;
use crate::SolverError;
use fem_mesh::SharedMeshContext;
use rayon::prelude::*;
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Outcome of one ensemble member.
#[derive(Debug, Clone, Serialize)]
pub struct MemberResult {
    /// Position in the submitted spec list.
    pub index: usize,
    /// Scenario name the member ran.
    pub scenario: String,
    /// Execution backend, as reported by the backend itself
    /// (e.g. `multidevice(4, contiguous)`).
    pub backend: String,
    /// Mesh elements per axis.
    pub edge: usize,
    /// RK4 steps advanced.
    pub steps: usize,
    /// Time-step size used.
    pub dt: f64,
    /// Whether every scenario invariant passed.
    pub invariants_passed: bool,
    /// Final kinetic energy.
    pub kinetic_energy: f64,
    /// Final enstrophy.
    pub enstrophy: f64,
    /// Wall-clock milliseconds spent on this member (construction
    /// through final diagnostics).
    pub wall_ms: f64,
    /// Failure description, if the member could not be built or blew
    /// up mid-run (`invariants_passed` is `false` in that case).
    pub error: Option<String>,
}

/// Aggregate outcome of an ensemble run.
#[derive(Debug, Clone, Serialize)]
pub struct EnsembleReport {
    /// Per-member results, in submitted spec order.
    pub members: Vec<MemberResult>,
    /// Worker threads the queue was drained by.
    pub workers: usize,
    /// Distinct shared mesh contexts the members were grouped onto.
    pub contexts: usize,
    /// End-to-end wall-clock seconds for the whole ensemble.
    pub wall_s: f64,
    /// Members completed per wall-clock second.
    pub members_per_sec: f64,
    /// Resident bytes of the shared contexts (each counted once).
    pub shared_context_bytes: usize,
    /// Resident bytes if every member held a private copy of its
    /// context instead (each counted once per member).
    pub unshared_context_bytes: usize,
    /// `unshared_context_bytes / shared_context_bytes` — N for N
    /// same-mesh members, 1.0 when nothing is shared.
    pub memory_savings_ratio: f64,
}

impl EnsembleReport {
    /// Whether every member ran to completion with all invariants
    /// passing.
    pub fn all_passed(&self) -> bool {
        self.members
            .iter()
            .all(|m| m.invariants_passed && m.error.is_none())
    }
}

/// Runs ensemble members from a shared work queue over a worker pool
/// (see the module docs for the sharing and determinism contracts).
#[derive(Debug, Clone)]
pub struct EnsembleDriver {
    workers: usize,
}

impl Default for EnsembleDriver {
    fn default() -> Self {
        EnsembleDriver::new()
    }
}

impl EnsembleDriver {
    /// A driver with one worker per available core.
    pub fn new() -> EnsembleDriver {
        EnsembleDriver {
            workers: crate::parallel::available_threads(),
        }
    }

    /// A driver with a fixed worker count (clamped to at least one).
    pub fn with_workers(workers: usize) -> EnsembleDriver {
        EnsembleDriver {
            workers: workers.max(1),
        }
    }

    /// The worker-pool width.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every member spec and collects the report.
    ///
    /// Spec-resolution failures (unknown scenario, bad override, bad
    /// backend) surface as an error before anything runs; a member that
    /// *blows up* mid-flight (unphysical state) is recorded in its
    /// [`MemberResult::error`] without aborting the rest of the
    /// ensemble.
    ///
    /// # Errors
    ///
    /// [`SolverError::InvalidSpec`] for an empty spec list or an
    /// unresolvable member; [`SolverError::Mesh`] if a group's mesh
    /// fails to build.
    pub fn run(&self, specs: &[SimulationSpec]) -> Result<EnsembleReport, SolverError> {
        if specs.is_empty() {
            return Err(SolverError::InvalidSpec(
                "ensemble has no member specs".to_string(),
            ));
        }
        // ---- Group members by mesh shape; one shared context each. ----
        let mut contexts: Vec<((bool, usize), Arc<SharedMeshContext>)> = Vec::new();
        let mut member_ctx = Vec::with_capacity(specs.len());
        for spec in specs {
            let scenario = spec.resolve_scenario()?;
            spec.backend.to_select()?;
            spec.effective_cfl()?;
            let key = (scenario.is_wall_bounded(), spec.edge);
            let idx = match contexts.iter().position(|(k, _)| *k == key) {
                Some(idx) => idx,
                None => {
                    let ctx = SharedMeshContext::build(scenario.mesh(spec.edge)?)?;
                    contexts.push((key, ctx));
                    contexts.len() - 1
                }
            };
            member_ctx.push(idx);
        }

        // ---- Drain the member queue across the worker pool. ----
        let queue = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<MemberResult>>> = Mutex::new(vec![None; specs.len()]);
        let workers: Vec<usize> = (0..self.workers.min(specs.len()).max(1)).collect();
        let t_run = Instant::now();
        workers.par_iter().for_each(|_| loop {
            let i = queue.fetch_add(1, Ordering::Relaxed);
            if i >= specs.len() {
                break;
            }
            let ctx = contexts[member_ctx[i]].1.clone();
            let result = run_member(i, &specs[i], ctx);
            results.lock().expect("result sink poisoned")[i] = Some(result);
        });
        let wall_s = t_run.elapsed().as_secs_f64();

        // ---- Memory accounting (after the run, so lazily built ----
        // ---- colorings/shard plans are included in both sides).  ----
        let shared_context_bytes: usize = contexts.iter().map(|(_, c)| c.memory_bytes()).sum();
        let unshared_context_bytes: usize = member_ctx
            .iter()
            .map(|&idx| contexts[idx].1.memory_bytes())
            .sum();
        let members: Vec<MemberResult> = results
            .into_inner()
            .expect("result sink poisoned")
            .into_iter()
            .map(|r| r.expect("every queued member produces a result"))
            .collect();
        Ok(EnsembleReport {
            workers: workers.len(),
            contexts: contexts.len(),
            wall_s,
            members_per_sec: if wall_s > 0.0 {
                members.len() as f64 / wall_s
            } else {
                f64::INFINITY
            },
            shared_context_bytes,
            unshared_context_bytes,
            memory_savings_ratio: unshared_context_bytes as f64 / shared_context_bytes as f64,
            members,
        })
    }
}

/// Runs one member to completion, converting mid-flight failures into a
/// recorded error instead of a panic or abort.
fn run_member(index: usize, spec: &SimulationSpec, ctx: Arc<SharedMeshContext>) -> MemberResult {
    let t0 = Instant::now();
    let mut result = MemberResult {
        index,
        scenario: spec.scenario.clone(),
        backend: String::new(),
        edge: spec.edge,
        steps: spec.steps,
        dt: 0.0,
        invariants_passed: false,
        kinetic_energy: 0.0,
        enstrophy: 0.0,
        wall_ms: 0.0,
        error: None,
    };
    match try_member(spec, ctx, &mut result) {
        Ok(()) => {}
        Err(e) => result.error = Some(e.to_string()),
    }
    result.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    result
}

fn try_member(
    spec: &SimulationSpec,
    ctx: Arc<SharedMeshContext>,
    out: &mut MemberResult,
) -> Result<(), SolverError> {
    let scenario = spec.resolve_scenario()?;
    let mut sim = spec.build_shared(ctx)?;
    out.backend = sim.backend().name();
    let dt = sim.suggest_dt(spec.effective_cfl()?);
    out.dt = dt;
    let start: FlowDiagnostics = sim.diagnostics();
    sim.advance(spec.steps, dt)?;
    let end = sim.diagnostics();
    out.kinetic_energy = end.kinetic_energy;
    out.enstrophy = end.enstrophy;
    out.invariants_passed = scenario.check_invariants(&start, &end, &sim).all_passed();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BackendSpec, SweepSpec};

    fn tgv_spec(steps: usize, backend: BackendSpec) -> SimulationSpec {
        SimulationSpec {
            scenario: "taylor-green-vortex".to_string(),
            edge: 6,
            steps,
            reynolds: None,
            amplitude: None,
            cfl: None,
            backend,
        }
    }

    #[test]
    fn same_mesh_members_share_one_context() {
        let specs: Vec<SimulationSpec> = (0..4)
            .map(|_| tgv_spec(2, BackendSpec::reference_serial()))
            .collect();
        let report = EnsembleDriver::with_workers(2).run(&specs).unwrap();
        assert_eq!(report.members.len(), 4);
        assert_eq!(report.contexts, 1);
        assert!(report.all_passed(), "{:?}", report.members);
        assert!(
            (report.memory_savings_ratio - 4.0).abs() < 1e-12,
            "4 members on one context must save 4x, got {}",
            report.memory_savings_ratio
        );
        assert!(report.members_per_sec > 0.0);
    }

    #[test]
    fn mixed_meshes_get_separate_contexts() {
        let sweep = SweepSpec {
            name: "mixed".to_string(),
            scenarios: vec![
                "taylor-green-vortex".to_string(),
                "lid-driven-cavity".to_string(),
                "acoustic-pulse".to_string(),
            ],
            edges: vec![4],
            steps: 2,
            reynolds: vec![],
            amplitudes: vec![],
            backends: vec![BackendSpec::reference_serial()],
            cfl: None,
        };
        let specs = sweep.expand().unwrap();
        assert_eq!(specs.len(), 3);
        let report = EnsembleDriver::new().run(&specs).unwrap();
        // TGV and pulse share the periodic edge-4 box; the walled cavity
        // box is its own context.
        assert_eq!(report.contexts, 2);
        assert!(report.all_passed(), "{:?}", report.members);
        assert!(report.memory_savings_ratio > 1.0);
    }

    #[test]
    fn blow_up_is_recorded_not_fatal() {
        let mut unstable = tgv_spec(50, BackendSpec::reference_serial());
        unstable.cfl = Some(50.0); // grossly unstable
        let specs = vec![tgv_spec(2, BackendSpec::reference_serial()), unstable];
        let report = EnsembleDriver::with_workers(1).run(&specs).unwrap();
        assert!(report.members[0].invariants_passed);
        let failed = &report.members[1];
        assert!(!failed.invariants_passed);
        assert!(
            failed.error.as_deref().unwrap_or("").contains("unphysical"),
            "{:?}",
            failed.error
        );
        assert!(!report.all_passed());
    }

    #[test]
    fn unknown_member_spec_fails_before_running() {
        let mut bad = tgv_spec(1, BackendSpec::reference_serial());
        bad.scenario = "warp-drive".to_string();
        assert!(matches!(
            EnsembleDriver::new().run(&[bad]),
            Err(SolverError::InvalidSpec(_))
        ));
        assert!(matches!(
            EnsembleDriver::new().run(&[]),
            Err(SolverError::InvalidSpec(_))
        ));
    }

    #[test]
    fn spec_built_member_matches_hand_built_bitwise() {
        let spec = tgv_spec(
            2,
            BackendSpec {
                kind: "multidevice".to_string(),
                strategy: None,
                shards: None,
                devices: Some(2),
                kernel: None,
            },
        );
        let report = EnsembleDriver::with_workers(2)
            .run(&[spec.clone(), spec.clone()])
            .unwrap();
        // Two identical members: identical finals, bit for bit.
        assert_eq!(
            report.members[0].kinetic_energy.to_bits(),
            report.members[1].kinetic_energy.to_bits()
        );
        assert_eq!(
            report.members[0].enstrophy.to_bits(),
            report.members[1].enstrophy.to_bits()
        );
    }
}

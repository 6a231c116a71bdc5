//! The traced step: `Simulation::step` rebuilt from the solver's public
//! layer functions, with a span around every layer call.
//!
//! `Simulation::step` cannot be split from outside, so the traced run
//! drives the same RK4 step itself: the `fem_numerics` integrator over an
//! RHS that runs the RKU update (`Primitives::update_from`), the backend
//! assembly, the lumped-mass divide and the boundary zeroing — the
//! sequence `SolverCore::rhs` runs. The assembly is the serial element
//! loop driven here through the public kernel functions, so its gather,
//! flux, contraction and scatter stages are timed one by one.
//! The run checks bit for bit that this ledger step and `Simulation::step`
//! produce the same state, and that the instrumented element loop produces
//! the same residual as `ReferenceBackend(Serial)`.
//!
//! Between steps, a cadence check also runs a 2-device
//! `MultiDeviceBackend` built on the same shared context (the *probe*),
//! so the engine's device phases, the halo exchange, the link model and
//! the parallel mass divide are measured on every workload.

use crate::trace::Tracer;
use fem_mesh::SharedMeshContext;
use fem_numerics::rk::{ButcherTableau, ExplicitRk, OdeSystem};
use fem_solver::boundary::DirichletBc;
use fem_solver::kernels::{convective_flux, fused_flux, ElementWorkspace, KernelOps};
use fem_solver::{
    AssemblyContext, AssemblyStrategy, Conserved, DeviceExchangeReport, DevicePhaseSeconds,
    ExecutionBackend, FlowDiagnostics, GasModel, KernelPath, MultiDeviceBackend, PartitionStrategy,
    Primitives, ReferenceBackend, Simulation, SolverError,
};
use rayon::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Devices of the multi-device probe.
pub const PROBE_DEVICES: usize = 2;

/// What the traced run accumulates across its episodes' ledgers.
#[derive(Debug)]
pub struct LedgerLog {
    /// Every span of the run.
    pub tracer: Tracer,
    /// Wall time of the probe's `ShardPlan` build, per episode.
    pub probe_plan_s: Vec<f64>,
    /// Wall time of the probe's attach (`MultiDeviceBackend::with_plan`,
    /// which runs the link DES), per episode.
    pub probe_attach_s: Vec<f64>,
    /// The probe's halo fraction and load imbalance.
    pub probe_plan_quality: (f64, f64),
    /// The probe's modelled exchange, per device.
    pub reports: Vec<DeviceExchangeReport>,
    /// Per cadence check, untraced wall seconds of: the serial reference
    /// assembly, the probe assembly, the serial and the parallel mass
    /// divide.
    pub cadence: Vec<CadenceTimes>,
    /// Per probe assembly: device phase seconds, averaged over devices.
    pub probe_calls: Vec<DevicePhaseSeconds>,
    /// Per device: phase seconds summed over every probe assembly.
    pub probe_totals: Vec<DevicePhaseSeconds>,
}

/// Untraced wall seconds measured by one cadence check.
#[derive(Debug, Clone, Copy)]
pub struct CadenceTimes {
    /// `ReferenceBackend(Serial)::assemble_rhs`.
    pub serial_s: f64,
    /// The probe's `assemble_rhs`.
    pub probe_s: f64,
    /// The lumped-mass divide as serial backends run it.
    pub mass_serial_s: f64,
    /// The lumped-mass divide as parallel backends run it.
    pub mass_parallel_s: f64,
}

impl LedgerLog {
    /// An empty log for the run named `run`.
    pub fn new(run: String) -> LedgerLog {
        LedgerLog {
            tracer: Tracer::new(run),
            probe_plan_s: Vec::new(),
            probe_attach_s: Vec::new(),
            probe_plan_quality: (0.0, 0.0),
            reports: Vec::new(),
            cadence: Vec::new(),
            probe_calls: Vec::new(),
            probe_totals: Vec::new(),
        }
    }

    /// Folds the probe's device phases spent between two readings into
    /// the log.
    fn add_probe_call(&mut self, before: &[DevicePhaseSeconds], after: &[DevicePhaseSeconds]) {
        self.probe_totals
            .resize(after.len(), DevicePhaseSeconds::default());
        let mut mean = DevicePhaseSeconds::default();
        let share = 1.0 / after.len().max(1) as f64;
        for ((b, a), total) in before.iter().zip(after).zip(&mut self.probe_totals) {
            let d = DevicePhaseSeconds {
                frontier_s: a.frontier_s - b.frontier_s,
                interior_s: a.interior_s - b.interior_s,
                wait_s: a.wait_s - b.wait_s,
                apply_s: a.apply_s - b.apply_s,
            };
            add_phases(total, &d, 1.0);
            add_phases(&mut mean, &d, share);
        }
        self.probe_calls.push(mean);
    }
}

fn add_phases(acc: &mut DevicePhaseSeconds, d: &DevicePhaseSeconds, weight: f64) {
    acc.frontier_s += weight * d.frontier_s;
    acc.interior_s += weight * d.interior_s;
    acc.wait_s += weight * d.wait_s;
    acc.apply_s += weight * d.apply_s;
}

fn assembly_context<'a>(
    ctx: &'a SharedMeshContext,
    gas: &'a GasModel,
    kernel: KernelPath,
) -> AssemblyContext<'a> {
    AssemblyContext {
        mesh: ctx.mesh(),
        basis: ctx.basis(),
        gas,
        geometry: ctx.geometry(),
        kernel,
    }
}

/// The RHS of the ledger step: the layers `SolverCore::rhs` runs.
#[derive(Debug)]
struct LedgerRhs<'a> {
    ctx: Arc<SharedMeshContext>,
    gas: GasModel,
    kernel: KernelPath,
    bc: Option<DirichletBc>,
    prim: Primitives,
    ops: KernelOps,
    ws: ElementWorkspace,
    log: &'a mut LedgerLog,
}

impl OdeSystem for LedgerRhs<'_> {
    type State = Conserved;

    fn rhs(&mut self, _t: f64, y: &Conserved, dydt: &mut Conserved) {
        let rhs = self.log.tracer.open("driver.rhs");

        let s = self.log.tracer.open("state.rku");
        self.prim.update_from(y, &self.gas);
        self.log.tracer.close(s);

        let s = self.log.tracer.open("engine.assemble");
        kernel_sweep(
            &self.ctx,
            &self.gas,
            &self.ops,
            &mut self.ws,
            y,
            &self.prim,
            dydt,
            &mut self.log.tracer,
        );
        self.log.tracer.close(s);

        mass_divide(dydt, self.ctx.lumped_mass(), false);
        if let Some(bc) = &self.bc {
            bc.zero_rhs(dydt);
        }
        self.log.tracer.close(rhs);
    }
}

/// The driver's lumped-mass divide: serial, or one fork-join round per
/// field for parallel backends (elementwise, so both give the same bits).
fn mass_divide(dydt: &mut Conserved, mass: &[f64], parallel: bool) {
    let chunk = mass
        .len()
        .div_ceil(fem_solver::parallel::available_threads())
        .max(1);
    let apply = |dst: &mut [f64]| {
        if parallel {
            dst.par_chunks_mut(chunk)
                .zip(mass.par_chunks(chunk))
                .for_each(|(d, m)| {
                    for (v, &mm) in d.iter_mut().zip(m) {
                        *v /= mm;
                    }
                });
        } else {
            for (v, &m) in dst.iter_mut().zip(mass) {
                *v /= m;
            }
        }
    };
    apply(&mut dydt.rho);
    for d in 0..3 {
        apply(&mut dydt.mom[d]);
    }
    apply(&mut dydt.energy);
}

/// The serial element loop of `ReferenceBackend(Serial)`, with each
/// kernel stage timed and folded into one aggregate span per sweep:
/// `kernels.gather` (gather and residual reset), `kernels.flux`,
/// `kernels.contract` (weak divergence) and `kernels.scatter`.
#[allow(clippy::too_many_arguments)]
fn kernel_sweep(
    ctx: &SharedMeshContext,
    gas: &GasModel,
    ops: &KernelOps,
    ws: &mut ElementWorkspace,
    conserved: &Conserved,
    prim: &Primitives,
    out: &mut Conserved,
    tracer: &mut Tracer,
) {
    let sweep = tracer.open("kernels.sweep");
    let (mesh, basis, geometry) = (ctx.mesh(), ctx.basis(), ctx.geometry());
    let viscous = gas.mu > 0.0;
    let mut busy = [Duration::ZERO; 4];
    out.set_zero();
    let mut t0 = Instant::now();
    for e in 0..mesh.num_elements() {
        let nodes = mesh.element_nodes(e);
        let geom = geometry.element(e);
        ws.gather(nodes, conserved, prim);
        ws.zero_residuals();
        let t1 = Instant::now();
        if viscous {
            fused_flux(ws, gas, basis, geom);
        } else {
            convective_flux(ws);
        }
        let t2 = Instant::now();
        ops.weak_divergence(ws, basis, geom, 1.0);
        let t3 = Instant::now();
        ws.scatter_add(nodes, out);
        let t4 = Instant::now();
        busy[0] += t1 - t0;
        busy[1] += t2 - t1;
        busy[2] += t3 - t2;
        busy[3] += t4 - t3;
        t0 = t4;
    }
    let calls = mesh.num_elements() as u64;
    for (name, b) in [
        "kernels.gather",
        "kernels.flux",
        "kernels.contract",
        "kernels.scatter",
    ]
    .into_iter()
    .zip(busy)
    {
        tracer.aggregate(name, b, calls);
    }
    tracer.close(sweep);
}

/// Bitwise verdicts of one cadence check against
/// `ReferenceBackend(Serial)::assemble_rhs`.
#[derive(Debug, Clone, Copy)]
pub struct CadenceCheck {
    /// The instrumented element loop.
    pub sweep_bitwise: bool,
    /// The multi-device probe.
    pub probe_bitwise: bool,
}

/// A simulation advanced by the ledger step.
#[derive(Debug)]
pub struct Ledger<'a> {
    rk: ExplicitRk<Conserved>,
    state: Conserved,
    time: f64,
    steps: usize,
    rhs: LedgerRhs<'a>,
    reference: ReferenceBackend,
    probe: MultiDeviceBackend,
    scratch: [Conserved; 3],
}

impl<'a> Ledger<'a> {
    /// A ledger copy of `sim` (same shared context, state and time) with
    /// the multi-device probe, recording into `log`.
    pub fn from_simulation(
        sim: &Simulation,
        log: &'a mut LedgerLog,
    ) -> Result<Ledger<'a>, SolverError> {
        let core = sim.core();
        let ctx = core.shared_context().clone();
        let t = Instant::now();
        let plan = ctx.shard_plan(PROBE_DEVICES, PartitionStrategy::Partitioned)?;
        log.probe_plan_s.push(t.elapsed().as_secs_f64());
        log.probe_plan_quality = (plan.halo_fraction(), plan.load_imbalance());
        let t = Instant::now();
        let probe = MultiDeviceBackend::with_plan(plan, ctx.mesh(), ctx.geometry())?;
        log.probe_attach_s.push(t.elapsed().as_secs_f64());
        log.reports = probe.exchange_reports().to_vec();

        let state = sim.conserved().clone();
        let nodes = state.len();
        Ok(Ledger {
            rk: ExplicitRk::new(ButcherTableau::rk4(), &state),
            time: sim.time(),
            steps: 0,
            reference: ReferenceBackend::new(AssemblyStrategy::Serial, ctx.mesh()),
            probe,
            rhs: LedgerRhs {
                gas: *core.gas(),
                kernel: core.kernel_path(),
                bc: sim.bc().cloned(),
                prim: Primitives::zeros(nodes),
                ops: KernelOps::resolve(core.kernel_path(), ctx.basis()),
                ws: ElementWorkspace::new(ctx.mesh().nodes_per_element()),
                log,
                ctx,
            },
            scratch: [
                Conserved::zeros(nodes),
                Conserved::zeros(nodes),
                Conserved::zeros(nodes),
            ],
            state,
        })
    }

    /// One traced RK4 step — what `Simulation::step` does.
    pub fn step(&mut self, dt: f64) -> Result<(), SolverError> {
        let s = self.rhs.log.tracer.open("driver.step");
        self.rk.step(&mut self.rhs, self.time, dt, &mut self.state);
        if let Some(bc) = &self.rhs.bc {
            bc.apply_state(&mut self.state);
        }
        self.time += dt;
        self.steps += 1;
        let physical = self.state.is_physical();
        self.rhs.log.tracer.close(s);
        if physical {
            Ok(())
        } else {
            Err(SolverError::UnphysicalState { step: self.steps })
        }
    }

    /// Traced diagnostics — what `Simulation::diagnostics` does.
    pub fn diagnostics(&mut self) -> FlowDiagnostics {
        let r = &mut self.rhs;
        let s = r.log.tracer.open("diagnostics");
        r.prim.update_from(&self.state, &r.gas);
        let d = FlowDiagnostics::compute(
            self.time,
            r.ctx.mesh(),
            r.ctx.basis(),
            &r.gas,
            r.ctx.geometry(),
            &self.state,
            &r.prim,
            r.ctx.lumped_mass(),
        );
        r.log.tracer.close(s);
        d
    }

    /// Runs, on the current state and outside every step span, the serial
    /// reference assembly, the probe assembly (in alternating order) and
    /// both mass divides untraced, and the instrumented element loop
    /// traced (as a root `kernels.sweep`); checks both assemblies against
    /// the reference bit for bit.
    pub fn cadence_check(&mut self, probe_first: bool) -> CadenceCheck {
        let r = &mut self.rhs;
        r.prim.update_from(&self.state, &r.gas);
        let [reference_out, probe_out, sweep_out] = &mut self.scratch;
        let (mut serial_s, mut probe_s) = (0.0, 0.0);
        let ctx = assembly_context(&r.ctx, &r.gas, r.kernel);
        for turn in 0..2 {
            if (turn == 0) == probe_first {
                let before = self.probe.measured_device_phases();
                let t = Instant::now();
                self.probe
                    .assemble_rhs(&ctx, &self.state, &r.prim, probe_out, None);
                probe_s = t.elapsed().as_secs_f64();
                let after = self.probe.measured_device_phases();
                r.log.add_probe_call(&before, &after);
            } else {
                let t = Instant::now();
                self.reference
                    .assemble_rhs(&ctx, &self.state, &r.prim, reference_out, None);
                serial_s = t.elapsed().as_secs_f64();
            }
        }
        let want = reference_out.to_bit_vec();
        let probe_bitwise = probe_out.to_bit_vec() == want;

        let mass = r.ctx.lumped_mass();
        let t = Instant::now();
        mass_divide(probe_out, mass, true);
        let mass_parallel_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        mass_divide(reference_out, mass, false);
        let mass_serial_s = t.elapsed().as_secs_f64();
        r.log.cadence.push(CadenceTimes {
            serial_s,
            probe_s,
            mass_serial_s,
            mass_parallel_s,
        });

        kernel_sweep(
            &r.ctx,
            &r.gas,
            &r.ops,
            &mut r.ws,
            &self.state,
            &r.prim,
            sweep_out,
            &mut r.log.tracer,
        );
        CadenceCheck {
            sweep_bitwise: sweep_out.to_bit_vec() == want,
            probe_bitwise,
        }
    }

    /// The ledger's current state.
    pub fn state(&self) -> &Conserved {
        &self.state
    }
}

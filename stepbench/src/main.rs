//! Full-RK4-step benchmark of the FEM solver.
//!
//! ```text
//! cargo run --release --manifest-path stepbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run is a closed loop in one process,
//! made of episodes until `--seconds` have passed: an episode sets a
//! simulation up from the seeded inputs (mesh, context, backend attach,
//! warm-up), then steps it back to back through `Simulation::step` for
//! [`EPISODE_STEPS`] steps with `Simulation::diagnostics()` every tenth
//! step. The seed perturbs the initial state (see
//! [`workload::seeded_state`]); the solver only ever sees that state.
//!
//! * `--trace 0` reports the end-to-end metrics: step time (median and
//!   90th percentile), throughput in mega-DOF per second, set-up time,
//!   peak resident memory, and the share of steps that passed (see
//!   `run_untraced` for how windows of steps are aggregated).
//! * `--trace 1` alternates blocks of untraced `Simulation::step` calls
//!   with blocks of the traced ledger step ([`ledger`]) and reports the
//!   per-layer metrics, the self-time ledger of the step and the cost of
//!   tracing. Spans are written to
//!   `$CARGO_TARGET_DIR/stepbench/trace-<workload>-seed<n>.jsonl` at the
//!   end of the run.
//!
//! Both workloads run on the serial reference backend. The multi-device
//! layers (device phases, halo exchange, link model, parallel mass
//! divide) are measured on every workload by the traced run's 2-device
//! probe (see [`ledger`]).
//!
//! Every run checks the outputs (set-up, scenario invariants, bitwise
//! agreement between backends and between the ledger and the solver) and
//! reports each failed check by name. Human-readable lines come first; the last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.

mod ledger;
mod stats;
mod trace;
mod workload;

use fem_mesh::geometry::GeometryCache;
use fem_solver::engine::{GATHER_STREAMS_PER_SHARD, SCATTER_STREAMS_PER_SHARD};
use fem_solver::kernels::KernelOpCounts;
use fem_solver::{FlowDiagnostics, InvariantCheck, KernelPath, Simulation, SolverError};
use ledger::{CadenceTimes, Ledger, LedgerLog, PROBE_DEVICES};
use rayon::prelude::*;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;
use workload::{prepare, Prepared, SetupTimes, Workload, DIAG_EVERY, EPISODE_STEPS};

/// Fewest episodes an untraced run makes. Every episode starts with its
/// own set-up, so `setup_s` is a median over at least this many set-ups
/// spread across the run.
const MIN_EPISODES: usize = 5;

/// Steps per timing window of the untraced run. Short windows are more
/// likely to fall between two bursts of load from other tenants.
const WINDOW_STEPS: usize = 20;

/// Steps behind each 90th percentile of the untraced run: the fewest that
/// may report one.
const TAIL_STEPS: usize = 100;

/// Fewest episodes a traced run makes.
const MIN_TRACED_EPISODES: usize = 2;

/// Profiled steps run after the traced window for the Fig 2 breakdown.
const PROFILE_STEPS: usize = 30;

/// Largest share of a traced block's wall time, timed outside the tracer,
/// that its `driver.step` spans may leave uncovered.
const MAX_UNTRACED_SHARE: f64 = 0.01;

/// Repetitions of each fork-join micro-measurement.
const RAYON_REPS: usize = 200;

/// Clock of the modelled inter-device link (the multi-device backend's
/// link DES counts cycles at 300 MHz).
const LINK_CLOCK_HZ: f64 = 300.0e6;

/// The paper's Fig 2 breakdown: diffusion, convection, other RK, non-RK.
const PAPER_FIG2_PCT: [f64; 4] = [39.2, 21.04, 16.13, 23.63];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One reported metric.
#[derive(Debug)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// One named output check.
#[derive(Debug)]
struct Check {
    name: String,
    passed: bool,
    detail: String,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
struct Outcome {
    metrics: Vec<Metric>,
    checks: Vec<Check>,
    /// Human-readable report lines printed before the metrics.
    notes: Vec<String>,
    attempted: u64,
    failed_steps: u64,
}

impl Outcome {
    fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            passed,
            detail: detail.into(),
        });
    }

    fn correct(&self) -> bool {
        self.failed_steps == 0 && self.checks.iter().all(|c| c.passed)
    }

    /// Failed steps: those that returned an error, or every step of a run
    /// whose output check failed.
    fn failed(&self) -> u64 {
        if self.checks.iter().all(|c| c.passed) {
            self.failed_steps
        } else {
            self.attempted
        }
    }
}

/// The closed loop's step counter: a failing set-up or step ends the run.
#[derive(Debug, Default)]
struct Steps {
    attempted: u64,
    failed: u64,
    error: Option<SolverError>,
    setup_error: Option<SolverError>,
}

impl Steps {
    /// Records a failed episode set-up. It counts as one failed attempt,
    /// so a run that cannot even set up still reports a failure.
    fn setup_failed(&mut self, e: SolverError) {
        self.attempted += 1;
        self.failed += 1;
        self.setup_error = Some(e);
    }

    fn ok(&self) -> bool {
        self.error.is_none() && self.setup_error.is_none()
    }

    fn record(&mut self, r: Result<(), SolverError>) -> bool {
        self.attempted += 1;
        match r {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                self.error = Some(e);
                false
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: stepbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_each_workload();
    }
    let Some(w) = Workload::by_name(&args.workload) else {
        let names: Vec<_> = Workload::all().iter().map(|w| w.name).collect();
        eprintln!(
            "error: unknown workload {} (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    println!(
        "stepbench workload={} seed={} seconds={} trace={}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    println!("meta {}", run_metadata());
    println!("why  {}", w.why);
    report(&run(&w, &args));
    ExitCode::SUCCESS
}

/// `--workload all`: runs every workload in a process of its own (so each
/// reports its own peak memory), one after the other, with the same
/// arguments.
fn run_each_workload() -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("error: cannot locate the benchmark executable");
        return ExitCode::FAILURE;
    };
    let given: Vec<String> = std::env::args().skip(1).collect();
    let mut code = ExitCode::SUCCESS;
    for w in Workload::all() {
        let mut args = given.clone();
        let at = args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed before");
        args[at + 1] = w.name.to_string();
        match std::process::Command::new(&exe).args(&args).status() {
            Ok(status) if status.success() => {}
            _ => code = ExitCode::FAILURE,
        }
    }
    code
}

fn run(w: &Workload, args: &Args) -> Outcome {
    assert!(
        stats::reportable(TAIL_STEPS, 90.0)
            && TAIL_STEPS.is_multiple_of(WINDOW_STEPS)
            && EPISODE_STEPS.is_multiple_of(TAIL_STEPS)
    );
    if args.trace {
        run_traced(w, args)
    } else {
        run_untraced(w, args)
    }
}

/// Whether the run needs another episode.
fn more_episodes(start: Instant, args: &Args, done: usize, min: usize, steps: &Steps) -> bool {
    steps.ok() && (done < min || start.elapsed().as_secs_f64() < args.seconds)
}

/// The worst value of every scenario invariant over a run's episodes.
#[derive(Debug, Default)]
struct Invariants(Vec<InvariantCheck>);

impl Invariants {
    /// Checks the episode `sim` ran between the diagnostics `first` and
    /// `last` (just computed, as `check_invariants` requires).
    fn add(
        &mut self,
        w: &Workload,
        first: &FlowDiagnostics,
        last: &FlowDiagnostics,
        sim: &Simulation,
    ) {
        for c in w.scenario.check_invariants(first, last, sim).checks() {
            match self.0.iter_mut().find(|k| k.name == c.name) {
                None => self.0.push(c.clone()),
                Some(k) => {
                    let worse = if c.op == "<=" {
                        c.value > k.value
                    } else {
                        c.value < k.value
                    };
                    let passed = k.passed && c.passed;
                    if worse {
                        *k = c.clone();
                    }
                    k.passed = passed;
                }
            }
        }
    }
}

/// The untraced closed loop: end-to-end metrics.
///
/// On a shared machine other tenants slow CPUs down in bursts of seconds.
/// The figures that stand for the code's own speed — the median step time
/// and the throughput — therefore come from the least-disturbed window of
/// [`WINDOW_STEPS`] steps (their notes also give the median over windows).
/// The tail figure, which exists to show such disturbances, is the median
/// over runs of [`TAIL_STEPS`] consecutive steps of each one's 90th
/// percentile; on a shared 2-vCPU VM, taking the least-disturbed run
/// instead spread more from run to run.
fn run_untraced(w: &Workload, args: &Args) -> Outcome {
    let mut steps = Steps::default();
    let mut invariants = Invariants::default();
    let (mut p50, mut p90, mut mdof, mut setup_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut all_ms = Vec::new();
    let mut nodes = 0;
    let start = Instant::now();
    while more_episodes(start, args, setup_s.len(), MIN_EPISODES, &steps) {
        let Prepared { mut sim, dt, times } = match prepare(w, args.seed) {
            Ok(p) => p,
            Err(e) => {
                steps.setup_failed(e);
                break;
            }
        };
        setup_s.push(times.total().as_secs_f64());
        nodes = sim.conserved().len();
        let first = sim.diagnostics();
        let mut last = first;
        let mut tail = Vec::with_capacity(TAIL_STEPS);
        'episode: for _ in 0..EPISODE_STEPS / WINDOW_STEPS {
            let mut ms = Vec::with_capacity(WINDOW_STEPS);
            let window = Instant::now();
            for i in 1..=WINDOW_STEPS {
                let t = Instant::now();
                let r = sim.step(dt);
                ms.push(t.elapsed().as_secs_f64() * 1e3);
                if !steps.record(r) {
                    break 'episode;
                }
                if i % DIAG_EVERY == 0 {
                    last = sim.diagnostics();
                }
            }
            let window_s = window.elapsed().as_secs_f64();
            p50.push(stats::median(&ms));
            mdof.push((nodes * 5 * WINDOW_STEPS) as f64 / window_s / 1e6);
            tail.extend_from_slice(&ms);
            if tail.len() == TAIL_STEPS {
                p90.push(stats::percentile(&stats::sorted(&tail), 90.0));
                tail.clear();
            }
            all_ms.extend(ms);
        }
        if steps.ok() {
            invariants.add(w, &first, &last, &sim);
        }
    }

    let mut out = Outcome {
        attempted: steps.attempted,
        failed_steps: steps.failed,
        ..Outcome::default()
    };
    output_checks(&mut out, &steps, &invariants);
    if p90.is_empty() {
        return out;
    }
    let windows = format!("{} windows of {WINDOW_STEPS} steps", p50.len());
    let tails = format!("{} runs of {TAIL_STEPS} steps", p90.len());
    let mut m = metric(
        "step_ms_p50",
        p50.iter().copied().fold(f64::INFINITY, f64::min),
        "ms",
    );
    m.note = format!(
        "least-disturbed window of {windows}; median over windows {:.4}",
        stats::median(&p50)
    );
    out.metrics.push(m);
    let mut m = metric("step_ms_p90", stats::median(&p90), "ms");
    let pooled = stats::sorted(&all_ms);
    m.note = format!("median over {tails}");
    if let Some(p) = stats::highest_reportable(pooled.len()) {
        m.note += &format!(
            "; pooled over {} steps, the highest percentile with >= {} samples beyond it is p{p} = {:.4} ms",
            pooled.len(),
            stats::MIN_TAIL_SAMPLES,
            stats::percentile(&pooled, p)
        );
    }
    out.metrics.push(m);
    let mut m = metric(
        "mdof_per_s",
        mdof.iter().copied().fold(0.0, f64::max),
        "MDOF/s",
    );
    m.note = format!(
        "least-disturbed window of {windows}: {nodes} nodes x 5 variables per step, \
         diagnostics every {DIAG_EVERY} steps included; median over windows {:.4}",
        stats::median(&mdof)
    );
    out.metrics.push(m);
    let mut m = metric("setup_s", stats::median(&setup_s), "s");
    m.note = format!("median of {} set-ups, one per episode", setup_s.len());
    out.metrics.push(m);
    let mut m = metric("peak_rss_mb", peak_rss_mb(), "MB");
    m.note = "VmHWM of the benchmark process".into();
    out.metrics.push(m);
    let passed = out.attempted - out.failed();
    let mut m = metric("pass_frac", passed as f64 / out.attempted as f64, "ratio");
    m.note = format!("{passed} of {} timed steps", out.attempted);
    out.metrics.push(m);
    out
}

/// Checks every run makes: every set-up and step without a
/// `SolverError`, and the scenario invariants of every episode.
fn output_checks(out: &mut Outcome, steps: &Steps, invariants: &Invariants) {
    out.check(
        "solver.setup",
        steps.setup_error.is_none(),
        match &steps.setup_error {
            None => "every episode set up and warmed up".to_string(),
            Some(e) => format!("{e}"),
        },
    );
    out.check(
        "solver.steps",
        steps.error.is_none(),
        match &steps.error {
            None => format!("{} steps without a SolverError", steps.attempted),
            Some(e) => format!("{e}"),
        },
    );
    if !steps.ok() {
        return;
    }
    for c in &invariants.0 {
        out.check(
            format!("invariant.{}", c.name),
            c.passed,
            format!("worst episode {:.4e} {} {:.3e}", c.value, c.op, c.bound),
        );
    }
}

/// What the traced run measures besides its spans.
#[derive(Debug, Default)]
struct TracedRun {
    setups: Vec<SetupTimes>,
    untraced_ms: Vec<f64>,
    /// Wall time of every traced block, timed outside the tracer.
    traced_block_ns: u128,
}

/// The traced run: per episode, untraced `Simulation::step` blocks
/// alternate with traced ledger blocks on a copy of the same simulation.
fn run_traced(w: &Workload, args: &Args) -> Outcome {
    let mut log = LedgerLog::new(format!(
        "{}-seed{}-pid{}",
        w.name,
        args.seed,
        std::process::id()
    ));
    let mut steps = Steps::default();
    let mut invariants = Invariants::default();
    let mut run = TracedRun::default();
    let (mut ledger_same, mut sweep_same, mut probe_same) = (true, true, true);
    let mut last_episode = None;
    let start = Instant::now();
    while more_episodes(start, args, run.setups.len(), MIN_TRACED_EPISODES, &steps) {
        drop(last_episode.take());
        let prepared = prepare(w, args.seed);
        let Ok(Prepared { mut sim, dt, times }) = prepared else {
            steps.setup_failed(prepared.err().expect("set-up failed"));
            break;
        };
        run.setups.push(times);
        let mut ledger = match Ledger::from_simulation(&sim, &mut log) {
            Ok(l) => l,
            Err(e) => {
                steps.setup_failed(e);
                break;
            }
        };
        let first = sim.diagnostics();
        let mut last = first;
        ledger.diagnostics();
        'episode: for pair in 0..EPISODE_STEPS / DIAG_EVERY {
            for block in 0..2 {
                if (block == 0) == (pair % 2 == 0) {
                    for _ in 0..DIAG_EVERY {
                        let t = Instant::now();
                        let r = sim.step(dt);
                        run.untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        if !steps.record(r) {
                            break 'episode;
                        }
                    }
                    last = sim.diagnostics();
                } else {
                    let t = Instant::now();
                    for _ in 0..DIAG_EVERY {
                        if !steps.record(ledger.step(dt)) {
                            break 'episode;
                        }
                    }
                    run.traced_block_ns += t.elapsed().as_nanos();
                    ledger.diagnostics();
                }
            }
            ledger_same &= sim.conserved().to_bit_vec() == ledger.state().to_bit_vec();
            let c = ledger.cadence_check(pair % 2 == 0);
            sweep_same &= c.sweep_bitwise;
            probe_same &= c.probe_bitwise;
        }
        drop(ledger);
        if steps.ok() {
            invariants.add(w, &first, &last, &sim);
        }
        last_episode = Some((sim, dt));
    }
    let mut out = Outcome {
        attempted: steps.attempted,
        failed_steps: steps.failed,
        ..Outcome::default()
    };
    out.check(
        "ledger.bitwise_vs_simulation",
        ledger_same,
        "ledger state equals Simulation::step state after every block pair",
    );
    out.check(
        "kernels.sweep_bitwise_vs_reference",
        sweep_same,
        "instrumented element loop equals ReferenceBackend(Serial)::assemble_rhs",
    );
    out.check(
        "engine.probe_bitwise_vs_serial",
        probe_same,
        "multi-device probe assemble_rhs equals ReferenceBackend(Serial)::assemble_rhs",
    );
    output_checks(&mut out, &steps, &invariants);
    let Some((mut sim, dt)) = last_episode.filter(|_| steps.ok()) else {
        return out;
    };

    // Fig 2 breakdown from the solver's own profiler, on a short window
    // after the last episode.
    sim.set_profiling(true);
    sim.reset_profiler();
    for i in 1..=PROFILE_STEPS {
        if !steps.record(sim.step(dt)) {
            break;
        }
        if i % DIAG_EVERY == 0 {
            sim.diagnostics();
        }
    }
    out.attempted = steps.attempted;
    out.failed_steps = steps.failed;
    let fig2 = sim.profiler().breakdown_percent();

    layer_metrics(&mut out, &run, &sim, &log, fig2);
    write_spans(w, args, &log.tracer, &mut out);
    out
}

/// Per-layer metrics of a traced run.
fn layer_metrics(
    out: &mut Outcome,
    run: &TracedRun,
    sim: &Simulation,
    log: &LedgerLog,
    fig2: [f64; 4],
) {
    let spans = log.tracer.spans();
    let selfs = trace::self_times(spans);
    let busy = |name| stats::median(&trace::busy_us(spans, name));
    let own = |name| stats::median(&trace::self_us(spans, &selfs, name));
    let setup = |f: fn(&SetupTimes) -> std::time::Duration| {
        let v: Vec<f64> = run.setups.iter().map(|t| f(t).as_secs_f64()).collect();
        stats::median(&v)
    };
    let m = &mut out.metrics;

    // fem_mesh
    let ctx = sim.core().shared_context();
    m.push(metric("mesh.generate_s", setup(|t| t.generate), "s"));
    m.push(metric("mesh.context_s", setup(|t| t.context), "s"));
    let mut p = metric("mesh.plan_s", stats::median(&log.probe_plan_s), "s");
    p.note = format!("{PROBE_DEVICES}-device partitioned plan of the probe");
    m.push(p);
    let mut b = metric("mesh.context_bytes", ctx.memory_bytes() as f64, "bytes");
    b.note = "shared context with the probe's plan".into();
    m.push(b);
    let (halo, imbalance) = log.probe_plan_quality;
    m.push(metric("mesh.halo_fraction", halo, "ratio"));
    m.push(metric("mesh.load_imbalance", imbalance, "ratio"));
    m.push(metric("engine.attach_s", setup(|t| t.attach), "s"));
    let mut a = metric(
        "engine.md_attach_s",
        stats::median(&log.probe_attach_s),
        "s",
    );
    a.note = "probe MultiDeviceBackend::with_plan, link DES included".into();
    m.push(a);

    // fem_solver::state
    m.push(metric("state.rku_us", busy("state.rku"), "us"));

    // fem_solver::kernels, with the host roofline quote
    let kernel = sim.kernel_path();
    let counts = KernelOpCounts::for_basis(ctx.basis());
    let npe = ctx.mesh().nodes_per_element();
    let operator_bytes = match kernel {
        KernelPath::SumFactored => counts.factored_operator_bytes,
        KernelPath::FullMatrix => counts.full_matrix_operator_bytes,
    };
    let flops_pe = counts.rkl_flops_per_element_for(kernel) as f64;
    let bytes_pe = ((GATHER_STREAMS_PER_SHARD + SCATTER_STREAMS_PER_SHARD) * npe * 8
        + npe * GeometryCache::BYTES_PER_ELEMENT_NODE
        + operator_bytes) as f64;
    let sweep_s = busy("kernels.sweep") / 1e6;
    let gflops = flops_pe * ctx.mesh().num_elements() as f64 / sweep_s / 1e9;
    m.push(metric("kernels.gather_us", busy("kernels.gather"), "us"));
    m.push(metric("kernels.flux_us", busy("kernels.flux"), "us"));
    m.push(metric(
        "kernels.contract_us",
        busy("kernels.contract"),
        "us",
    ));
    m.push(metric("kernels.scatter_us", busy("kernels.scatter"), "us"));
    m.push(metric("kernels.flops_per_elem", flops_pe, "flop"));
    let mut b = metric("kernels.bytes_per_elem", bytes_pe, "bytes");
    b.note = "computed: 12 gather + 5 scatter arrays, geometry slice, operator".into();
    m.push(b);
    m.push(metric(
        "kernels.flops_per_byte",
        flops_pe / bytes_pe,
        "flop/byte",
    ));
    m.push(metric("kernels.gflops", gflops, "GFLOP/s"));
    out.notes.push(format!(
        "roofline: no bandwidth ratio is reported; the largest workload array \
         (geometry cache, {} bytes) is far below 4x the last-level cache ({}), \
         so no run can measure sustained memory bandwidth",
        ctx.geometry().memory_bytes(),
        read_trimmed("/sys/devices/system/cpu/cpu0/cache/index3/size")
    ));

    // fem_solver::engine assemble and device phases
    m.push(metric("engine.assemble_us", busy("engine.assemble"), "us"));
    let cadence = |f: fn(&CadenceTimes) -> f64| {
        let v: Vec<f64> = log.cadence.iter().map(|c| f(c) * 1e6).collect();
        stats::median(&v)
    };
    let probe_us = cadence(|c| c.probe_s);
    let mut p = metric("engine.md_assemble_us", probe_us, "us");
    p.note = format!(
        "untraced {PROBE_DEVICES}-device probe, {} calls",
        log.cadence.len()
    );
    m.push(p);
    let mut r = metric(
        "engine.assemble_vs_serial",
        probe_us / cadence(|c| c.serial_s),
        "ratio",
    );
    r.note = "probe / reference(serial), untraced, paired calls on the ledger state".into();
    m.push(r);
    let calls = &log.probe_calls;
    let phase = |f: fn(&fem_solver::DevicePhaseSeconds) -> f64| {
        let v: Vec<f64> = calls.iter().map(|c| f(c) * 1e6).collect();
        stats::median(&v)
    };
    m.push(metric("engine.frontier_us", phase(|c| c.frontier_s), "us"));
    m.push(metric("engine.interior_us", phase(|c| c.interior_s), "us"));
    m.push(metric("engine.wait_us", phase(|c| c.wait_s), "us"));
    m.push(metric("engine.apply_us", phase(|c| c.apply_s), "us"));
    let interior: f64 = calls.iter().map(|c| c.interior_s).sum();
    let wait: f64 = calls.iter().map(|c| c.wait_s).sum();
    m.push(metric(
        "engine.overlap_eff",
        interior / (interior + wait),
        "ratio",
    ));
    let reports = &log.reports;
    let halo: u64 = reports.iter().map(|r| r.halo_bytes_sent).sum();
    m.push(metric("engine.halo_bytes", halo as f64, "bytes"));

    // rayon (vendored stub)
    let (fork_join_us, scope_us) = rayon_costs();
    m.push(metric("rayon.fork_join_us", fork_join_us, "us"));
    m.push(metric("rayon.scope_spawn_us", scope_us, "us"));

    // fem_solver::driver
    m.push(metric("driver.rhs_us", busy("driver.rhs"), "us"));
    m.push(metric("driver.mass_bc_us", own("driver.rhs"), "us"));
    m.push(metric("driver.rk_update_us", own("driver.step"), "us"));
    m.push(metric(
        "driver.mass_serial_us",
        cadence(|c| c.mass_serial_s),
        "us",
    ));
    let mut p = metric("driver.mass_par_us", cadence(|c| c.mass_parallel_s), "us");
    p.note = "the parallel backends' divide: one fork-join round per field".into();
    m.push(p);

    // fem_solver::diagnostics
    m.push(metric("diagnostics.us", busy("diagnostics"), "us"));

    // fem_solver::profile
    for (i, name) in [
        "profile.diffusion_pct",
        "profile.convection_pct",
        "profile.other_pct",
        "profile.nonrk_pct",
    ]
    .into_iter()
    .enumerate()
    {
        let mut p = metric(name, fig2[i], "%");
        p.note = format!("wall time; paper Fig 2: {}", PAPER_FIG2_PCT[i]);
        m.push(p);
    }

    // hls_dataflow link model, next to the measured device phases
    let us = |cycles: u64| cycles as f64 / LINK_CLOCK_HZ * 1e6;
    let max_us = |f: fn(&fem_solver::DeviceExchangeReport) -> u64| {
        reports.iter().map(|r| us(f(r))).fold(0.0, f64::max)
    };
    let makespan_us = max_us(|r| r.makespan_cycles);
    m.push(metric(
        "model.exchange_us",
        max_us(|r| r.exchange_cycles),
        "us",
    ));
    m.push(metric(
        "model.exposed_us",
        max_us(|r| r.exposed_cycles),
        "us",
    ));
    m.push(metric("model.makespan_us", makespan_us, "us"));
    let mut v = metric("model.vs_measured", makespan_us / probe_us, "ratio");
    v.note = "modelled makespan / measured engine.md_assemble_us".into();
    m.push(v);
    for r in reports {
        let calls = calls.len() as f64;
        let measured = log.probe_totals[r.device];
        out.notes.push(format!(
            "model-vs-measured device {} (us per assembly, link clock {} MHz): \
             frontier {:.1} vs {:.1}, interior {:.1} vs {:.1}, exposed {:.1} vs wait {:.1}, \
             apply {:.1} vs {:.1}, exchange {:.1}, makespan {:.1} vs {:.1}",
            r.device,
            LINK_CLOCK_HZ / 1e6,
            us(r.frontier_cycles),
            measured.frontier_s / calls * 1e6,
            us(r.interior_cycles),
            measured.interior_s / calls * 1e6,
            us(r.exposed_cycles),
            measured.wait_s / calls * 1e6,
            us(r.apply_cycles),
            measured.apply_s / calls * 1e6,
            us(r.exchange_cycles),
            us(r.makespan_cycles),
            (measured.frontier_s + measured.interior_s + measured.wait_s + measured.apply_s)
                / calls
                * 1e6,
        ));
    }

    // trace: the step ledger and the cost of tracing
    let traced_p50 = busy("driver.step") / 1e3;
    let untraced_p50 = stats::median(&run.untraced_ms);
    m.push(metric(
        "trace.overhead_pct",
        (traced_p50 / untraced_p50 - 1.0) * 100.0,
        "%",
    ));
    m.push(metric("trace.step_ms_p50", traced_p50, "ms"));
    let (rows, total) = trace::ledger(spans, "driver.step");
    let sum: i64 = rows.iter().map(|r| r.1).sum();
    let nsteps = trace::busy_us(spans, "driver.step").len() as f64;
    for (name, t) in &rows {
        out.notes.push(format!(
            "ledger self time {name:<18} {:>10.1} us/step {:>6.2} %",
            *t as f64 / 1e3 / nsteps,
            100.0 * *t as f64 / total as f64
        ));
    }
    out.notes.push(format!(
        "ledger total {:>29.1} us/step (traced step mean {:.1} us, {} steps; untraced p50 {:.1} us, {} steps)",
        sum as f64 / 1e3 / nsteps,
        total as f64 / 1e3 / nsteps,
        nsteps,
        untraced_p50 * 1e3,
        run.untraced_ms.len()
    ));
    let negative: Vec<&str> = rows.iter().filter(|r| r.1 < 0).map(|r| r.0).collect();
    out.check(
        "trace.ledger_rows_nonnegative",
        negative.is_empty(),
        if negative.is_empty() {
            format!("{} layer rows, none below zero", rows.len())
        } else {
            format!("negative self time in {}", negative.join(", "))
        },
    );
    let block_ns = run.traced_block_ns as f64;
    let covered = total as f64 / block_ns;
    out.check(
        "trace.steps_cover_traced_blocks",
        covered <= 1.0 && covered >= 1.0 - MAX_UNTRACED_SHARE,
        format!(
            "driver.step spans cover {:.4} % of the traced blocks' wall time ({total} of {block_ns} ns)",
            100.0 * covered
        ),
    );
}

/// Median cost of one 2-item `par_iter` terminal op and of one
/// `rayon::scope` with two spawns, measured alternately.
fn rayon_costs() -> (f64, f64) {
    let items = [1u64, 2u64];
    let mut fork_join = Vec::with_capacity(RAYON_REPS);
    let mut scope = Vec::with_capacity(RAYON_REPS);
    for _ in 0..RAYON_REPS {
        let t = Instant::now();
        let s: u64 = black_box(&items[..]).par_iter().map(|&x| x * 2).sum();
        black_box(s);
        fork_join.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        rayon::scope(|s| {
            s.spawn(|_| {
                black_box(1u64);
            });
            s.spawn(|_| {
                black_box(2u64);
            });
        });
        scope.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (stats::median(&fork_join), stats::median(&scope))
}

/// Writes the traced run's spans out, once, at the end of the run.
fn write_spans(w: &Workload, args: &Args, tracer: &trace::Tracer, out: &mut Outcome) {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
    )
    .join("stepbench");
    let path = dir.join(format!("trace-{}-seed{}.jsonl", w.name, args.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_jsonl(&mut f)?;
        std::io::Write::flush(&mut f)
    });
    out.notes.push(match written {
        Ok(()) => format!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => format!("spans: not written to {}: {e}", path.display()),
    });
}

/// Peak resident memory of this process, in MB (VmHWM).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path).map_or("unknown".into(), |s| s.trim().to_string())
}

/// First line of a command's output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        // Only a repository rooted here counts; never a parent's.
        .env("GIT_DIR", ".git")
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn run_metadata() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load = read_trimmed("/proc/loadavg");
    let load = load.split_whitespace().next().unwrap_or("unknown");
    format!(
        "nproc={nproc} loadavg1={load} commit={} rustc=\"{}\"",
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["--version"]),
    )
}

fn report(outcome: &Outcome) {
    for n in &outcome.notes {
        println!("{n}");
    }
    for m in &outcome.metrics {
        println!(
            "metric {:<28} {:>16.6} {:<9} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for c in &outcome.checks {
        let verdict = if c.passed { "ok  " } else { "FAIL" };
        println!("check  [{verdict}] {:<36} {}", c.name, c.detail);
    }
    let failed: Vec<&str> = outcome
        .checks
        .iter()
        .filter(|c| !c.passed)
        .map(|c| c.name.as_str())
        .collect();
    if failed.is_empty() {
        println!("verdict: correct ({} checks passed)", outcome.checks.len());
    } else {
        println!("verdict: INCORRECT, failed checks: {}", failed.join(", "));
    }
    let mut metrics = Vec::new();
    let mut correct = outcome.correct();
    for m in &outcome.metrics {
        // JSON has no NaN or infinity; a non-finite metric is a failure.
        let value = if m.value.is_finite() {
            m.value
        } else {
            correct = false;
            0.0
        };
        metrics.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed(),
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_set_up_is_a_named_failed_attempt() {
        let mut steps = Steps::default();
        steps.setup_failed(SolverError::UnphysicalState { step: 0 });
        assert!(!steps.ok());
        let mut out = Outcome {
            attempted: steps.attempted,
            failed_steps: steps.failed,
            ..Outcome::default()
        };
        output_checks(&mut out, &steps, &Invariants::default());
        assert!(!out.correct());
        assert_eq!((out.attempted, out.failed()), (1, 1));
        let setup = out.checks.iter().find(|c| c.name == "solver.setup");
        assert!(setup.is_some_and(|c| !c.passed));
    }
}

//! The shard-parallel execution engine: pluggable RHS-assembly backends.
//!
//! The paper's central observation is that FEM assembly decomposes into
//! independent element streams sized to on-chip memory (§III-A). This
//! module turns that decomposition into the solver's execution model: the
//! [`ExecutionBackend`] trait abstracts *how* the RKL residual is
//! assembled, and the driver ([`crate::driver::Simulation`]) integrates
//! through whichever backend is selected. Two implementations ship:
//!
//! * [`ReferenceBackend`] — the serial host loop
//!   ([`crate::parallel::assemble_rhs_into`]), the paper's software
//!   baseline and the reference every other backend is checked against.
//! * [`MultiDeviceBackend`] — the one parallel executor: domain
//!   decomposition over a [`fem_mesh::partition::ShardPlan`] built with
//!   either [`PartitionStrategy`] (contiguous ranges or the
//!   halo-minimizing graph partition), one worker thread per simulated
//!   device (the vendored rayon stub's [`rayon::scope`] threads are real
//!   OS threads), and a decentralized neighbor-to-neighbor halo
//!   **exchange**: each device posts its frontier contributions to
//!   per-neighbor mailboxes as soon as its frontier elements are
//!   assembled, overlaps its interior sweep with the neighbors' posts in
//!   flight, and finalizes its owned frontier nodes last, after draining
//!   its inbox. A companion DES models the inter-device links from
//!   [`fpga_platform::pcie`] numbers and separates compute, exchange, and
//!   *exposed* (non-overlapped) communication per device
//!   ([`DeviceExchangeReport`]).
//!
//! The accelerator and memory mappings are plain functions of the plan,
//! not backends: [`emulate_plan`] routes every shard through the
//! Load → Compute → Store DES of [`hls_dataflow::sim`]
//! ([`ShardCycleReport`]), and [`emulate_plan_banked`] routes the same
//! plan's memory streams through a banked memory system.
//!
//! # The shard determinism guarantee
//!
//! [`MultiDeviceBackend`] is **bitwise identical to the serial reference
//! loop for every device count and both partition strategies** — the
//! argument holds for *arbitrary* element-to-device assignments, not just
//! contiguous ranges:
//!
//! 1. every device stores its elements sorted ascending by global id and
//!    walks them in that order;
//! 2. an **interior** node (`plan.frontier()[n] == false`) is touched by
//!    exactly one device, so the direct scatter applies its contributions
//!    in ascending element order — the serial order restricted to that
//!    node. The frontier sweep evaluates frontier elements early, and
//!    scattering their interior-node contributions right then would
//!    reorder those accumulations (floating-point addition commutes but
//!    `(x + a) + b ≠ (x + b) + a`), so it *buffers* them and the interior
//!    sweep replays them in the ascending-element walk — each element is
//!    evaluated once;
//! 3. a **frontier** node's contributions (the owner's own included) are
//!    recorded per element, never pre-summed, and routed to the owning
//!    device, which sorts everything it holds by (node, element) before
//!    one sequential apply — again ascending global element order. Within
//!    one element a node appears once (the generator rejects the
//!    degenerate periodic meshes that could alias local nodes), so the
//!    (node, element) key is unique and the order is total.
//!
//! Every node therefore accumulates its contributions one at a time in
//! exactly the serial order: no regrouping, no rounding difference, the
//! same bits for 1, 2, or 64 devices, contiguous or graph-partitioned.
//! The argument never says *where* a frontier record travels — only the
//! order in which its owner applies what arrives — so the mailbox
//! transport cannot break it.
//!
//! # Registering new backends
//!
//! Anything implementing [`ExecutionBackend`] plugs into the driver via
//! [`crate::driver::Simulation::set_custom_backend`] — the accelerator's
//! staged functional pipeline in `fem_accel::functional` registers itself
//! exactly this way. Built-in backends are selected by value through
//! [`BackendSelect`] and [`crate::driver::Simulation::set_backend`].

use crate::gas::GasModel;
use crate::kernels::{ElementWorkspace, KernelOps, KernelPath, NUM_VARS};
use crate::parallel::{assemble_rhs_into, eval_element, AssemblyStrategy, SharedRhs};
use crate::profile::{Phase, PhaseProfiler};
use crate::state::{Conserved, Primitives};
use crate::SolverError;
use fem_mesh::geometry::GeometryCache;
pub use fem_mesh::partition::PartitionStrategy;
use fem_mesh::partition::ShardPlan;
use fem_mesh::HexMesh;
use fem_numerics::tensor::HexBasis;
use hls_dataflow::network::{ChannelKind, NetworkBuilder};
use hls_dataflow::sim::simulate;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Everything an RHS assembly needs besides the conserved state: the
/// solver core's mesh, basis, gas model and whole-mesh geometry cache,
/// borrowed for the duration of one evaluation, plus the [`KernelPath`]
/// the contraction should run on (every backend honors it, so the
/// factored ≡ full-matrix guarantee holds across the whole engine).
#[derive(Debug, Clone, Copy)]
pub struct AssemblyContext<'a> {
    /// The mesh being solved on.
    pub mesh: &'a HexMesh,
    /// The element basis.
    pub basis: &'a HexBasis,
    /// The gas model.
    pub gas: &'a GasModel,
    /// The whole-mesh precomputed geometry cache.
    pub geometry: &'a GeometryCache,
    /// The weak-divergence contraction algorithm to dispatch.
    pub kernel: KernelPath,
}

/// Predicted accelerator timing of one shard's element-token stream,
/// produced by routing the shard through the Load → Compute → Store
/// dataflow network of [`hls_dataflow::sim`] ([`emulate_plan`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCycleReport {
    /// Shard index within the plan.
    pub shard: usize,
    /// Element tokens the shard streams per RK stage.
    pub elements: usize,
    /// DES makespan of the shard's stage, in cycles.
    pub makespan_cycles: u64,
    /// Observed steady-state initiation interval (cycles/element).
    pub observed_ii: f64,
    /// The II bound of the slowest task (`max(load, compute, store)`).
    pub bottleneck_ii: u64,
    /// Load-task II implied by the shard's DDR read traffic.
    pub load_ii: u64,
    /// Compute-task II (one element node per cycle through the fused
    /// Diffusion ⊕ Convection pipeline).
    pub compute_ii: u64,
    /// Store-task II implied by the shard's residual write-back traffic.
    pub store_ii: u64,
}

/// A pluggable RHS-assembly engine (see the module docs).
///
/// Implementations must be deterministic: two calls with identical inputs
/// must produce bitwise-identical output.
pub trait ExecutionBackend: std::fmt::Debug + Send {
    /// Human-readable backend identifier (stable — reported by studies).
    fn name(&self) -> String;

    /// Whether assembly fans out over worker threads; the driver then
    /// runs the lumped-mass divide in parallel too (the divide is
    /// elementwise, so both paths give the same bits).
    fn parallel(&self) -> bool;

    /// Assembles the RKL residual of `conserved`/`prim` into `out`
    /// (overwriting it; not yet mass-scaled). When `profiler` is given,
    /// per-stage Fig 2 timings are merged into it.
    fn assemble_rhs(
        &mut self,
        ctx: &AssemblyContext<'_>,
        conserved: &Conserved,
        prim: &Primitives,
        out: &mut Conserved,
        profiler: Option<&mut PhaseProfiler>,
    );

    /// Per-device halo-exchange emulation, if the backend models an
    /// inter-device link (empty otherwise).
    fn exchange_reports(&self) -> &[DeviceExchangeReport] {
        &[]
    }

    /// Measured wall-clock seconds each device worker has spent per
    /// exchange phase, accumulated across assemblies (empty for backends
    /// without device workers).
    fn measured_device_phases(&self) -> Vec<DevicePhaseSeconds> {
        Vec::new()
    }
}

/// Value-level selector for the built-in backends (what
/// [`crate::driver::Simulation::set_backend`] consumes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendSelect {
    /// The serial host loop ([`ReferenceBackend`]). The
    /// [`AssemblyStrategy`] has one variant and stays only for the API the
    /// step benchmark names.
    Reference(AssemblyStrategy),
    /// The parallel executor: one worker thread per simulated device with
    /// a decentralized, overlapped neighbor-to-neighbor halo exchange
    /// plus an inter-device link DES ([`MultiDeviceBackend`]).
    MultiDevice {
        /// Requested device count (clamped to the element count).
        devices: usize,
        /// How elements are assigned to devices.
        strategy: PartitionStrategy,
    },
}

impl std::fmt::Display for BackendSelect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendSelect::Reference(s) => write!(f, "reference({s})"),
            BackendSelect::MultiDevice { devices, strategy } => {
                write!(f, "multidevice({devices}, {strategy})")
            }
        }
    }
}

// ------------------------------------------------------------ reference

/// The serial host loop behind the backend trait: the paper's software
/// baseline, against which [`MultiDeviceBackend`] is bitwise checked.
#[derive(Debug)]
pub struct ReferenceBackend;

impl ReferenceBackend {
    /// The serial reference backend. Both arguments are ignored: the
    /// signature stays only for the API the step benchmark names.
    pub fn new(_strategy: AssemblyStrategy, _mesh: &HexMesh) -> ReferenceBackend {
        ReferenceBackend
    }
}

impl ExecutionBackend for ReferenceBackend {
    fn name(&self) -> String {
        "reference(serial)".to_string()
    }

    fn parallel(&self) -> bool {
        false
    }

    fn assemble_rhs(
        &mut self,
        ctx: &AssemblyContext<'_>,
        conserved: &Conserved,
        prim: &Primitives,
        out: &mut Conserved,
        profiler: Option<&mut PhaseProfiler>,
    ) {
        assemble_rhs_into(
            ctx.mesh,
            ctx.basis,
            ctx.gas,
            ctx.geometry,
            conserved,
            prim,
            ctx.kernel,
            out,
            profiler,
        );
    }
}

// --------------------------------------------------- per-shard emulation

/// Bytes one AXI beat moves in the emulation (512-bit bus).
const AXI_BYTES_PER_CYCLE: u64 = 64;

/// Routes one shard's element stream through the 3-task pipeline DES.
fn emulate_shard(
    shard: &fem_mesh::partition::Shard,
    npe: u64,
) -> Result<ShardCycleReport, hls_dataflow::DataflowError> {
    let elements = shard.num_elements() as u64;
    let bytes_in_pe = (shard.bytes_in() as u64).div_ceil(elements.max(1));
    let bytes_out_pe = (shard.bytes_out() as u64).div_ceil(elements.max(1));
    let load_ii = bytes_in_pe.div_ceil(AXI_BYTES_PER_CYCLE).max(1);
    // The fused Diffusion ⊕ Convection module retires one element node per
    // cycle once pipelined. Under the sum-factorized schedule each output
    // node needs 5 · 3n MACs — three 1D sweeps of n MACs per variable —
    // which an unrolled 3n-wide MAC tree (n ≤ 5 on the p ≤ 4 ladder)
    // retires in one II=1 issue per node, so the element-level II stays
    // npe cycles. The full-matrix schedule would need 3·npe MACs per node
    // (n² wider) — the HLS quote assumes the factored hot path.
    let compute_ii = npe.max(1);
    let store_ii = bytes_out_pe.div_ceil(AXI_BYTES_PER_CYCLE).max(1);

    let mut b = NetworkBuilder::new();
    let lc = b.channel("load_compute", 8, ChannelKind::Fifo);
    let cs = b.channel("compute_store", 8, ChannelKind::Fifo);
    b.task("load_element", load_ii, load_ii + 16, vec![], vec![lc]);
    b.task(
        "compute_diff_conv",
        compute_ii,
        compute_ii + 32,
        vec![lc],
        vec![cs],
    );
    b.task("store_contrib", store_ii, store_ii + 8, vec![cs], vec![]);
    let net = b.build(elements)?;
    let report = simulate(&net)?;
    Ok(ShardCycleReport {
        shard: shard.index(),
        elements: shard.num_elements(),
        makespan_cycles: report.makespan,
        observed_ii: report.observed_ii(elements),
        bottleneck_ii: net.bottleneck_ii(),
        load_ii,
        compute_ii,
        store_ii,
    })
}

/// Predicted accelerator timing of every shard of `plan`: each shard's
/// element-token stream runs through its own Load → Compute → Store
/// dataflow network, sized from the shard's DDR traffic, with `npe` (nodes
/// per element) cycles per element through the compute task. The reports
/// are index-aligned with `plan.shards()`.
///
/// # Errors
///
/// [`hls_dataflow::DataflowError`] if a shard network fails to validate
/// or simulate (cannot happen for the generated 3-task chains, but
/// surfaced rather than panicking).
pub fn emulate_plan(
    plan: &ShardPlan,
    npe: u64,
) -> Result<Vec<ShardCycleReport>, hls_dataflow::DataflowError> {
    plan.shards()
        .iter()
        .map(|shard| emulate_shard(shard, npe))
        .collect()
}

// ------------------------------------------------------ banked emulation

/// State-array gather streams per shard — one per DDR-resident input
/// array (5 conserved + T/p/E/μ + 3 coordinates + connectivity, matching
/// `fem_accel`'s roofline accounting).
pub const GATHER_STREAMS_PER_SHARD: usize = 12;

/// Residual scatter streams per shard (the 5 RHS arrays).
pub const SCATTER_STREAMS_PER_SHARD: usize = 5;

/// Memory streams per shard: the gathers, one geometry-cache slice, and
/// the scatters.
pub const STREAMS_PER_SHARD: usize = GATHER_STREAMS_PER_SHARD + 1 + SCATTER_STREAMS_PER_SHARD;

/// Decomposes a plan's DDR traffic into per-shard memory streams, in a
/// fixed order: for each shard (ascending index), the
/// [`GATHER_STREAMS_PER_SHARD`] state gathers, the geometry-cache slice,
/// then the [`SCATTER_STREAMS_PER_SHARD`] RHS scatters. Bank assignments
/// index this order. Gather/scatter sizes come from the shard's
/// [`fem_mesh::partition::Shard::bytes_in`]/`bytes_out` accounting
/// (inter-batch re-reads included); the geometry slice streams
/// [`GeometryCache::BYTES_PER_ELEMENT_NODE`] bytes per element node and
/// is typically the heaviest stream — the one worth a private bank.
pub fn shard_streams(plan: &ShardPlan, npe: u64) -> Vec<fpga_platform::MemoryStream> {
    let mut out = Vec::with_capacity(plan.num_shards() * STREAMS_PER_SHARD);
    for shard in plan.shards() {
        let g = shard.index();
        let elements = shard.num_elements() as u64;
        let bytes_in_pe = (shard.bytes_in() as u64).div_ceil(elements.max(1));
        let bytes_out_pe = (shard.bytes_out() as u64).div_ceil(elements.max(1));
        let gather_pe = bytes_in_pe.div_ceil(GATHER_STREAMS_PER_SHARD as u64);
        let scatter_pe = bytes_out_pe.div_ceil(SCATTER_STREAMS_PER_SHARD as u64);
        for i in 0..GATHER_STREAMS_PER_SHARD {
            out.push(fpga_platform::MemoryStream {
                label: format!("s{g}:gather{i}"),
                group: g,
                beats_per_token: gather_pe.div_ceil(AXI_BYTES_PER_CYCLE).max(1),
                tokens: elements,
                resident_bytes: (shard.bytes_in() as u64).div_ceil(GATHER_STREAMS_PER_SHARD as u64),
            });
        }
        let geom_bytes_pe = npe * GeometryCache::BYTES_PER_ELEMENT_NODE as u64;
        out.push(fpga_platform::MemoryStream {
            label: format!("s{g}:geometry"),
            group: g,
            beats_per_token: geom_bytes_pe.div_ceil(AXI_BYTES_PER_CYCLE).max(1),
            tokens: elements,
            resident_bytes: elements * geom_bytes_pe,
        });
        for j in 0..SCATTER_STREAMS_PER_SHARD {
            out.push(fpga_platform::MemoryStream {
                label: format!("s{g}:scatter{j}"),
                group: g,
                beats_per_token: scatter_pe.div_ceil(AXI_BYTES_PER_CYCLE).max(1),
                tokens: elements,
                resident_bytes: (shard.bytes_out() as u64)
                    .div_ceil(SCATTER_STREAMS_PER_SHARD as u64),
            });
        }
    }
    out
}

/// Per-shard bank-independent makespan floors for
/// [`fpga_platform::memory::modeled_makespan_cycles`]: the compute task
/// retires one element per `npe` cycles, so shard `g` can never finish
/// in fewer than `elements · npe` cycles no matter the bank layout.
pub fn shard_compute_floors(plan: &ShardPlan, npe: u64) -> Vec<u64> {
    plan.shards()
        .iter()
        .map(|s| s.num_elements() as u64 * npe.max(1))
        .collect()
}

/// The outcome of routing a plan's streams through a banked memory
/// system.
#[derive(Debug, Clone, PartialEq)]
pub struct BankedEmulation {
    /// Memory-system identifier (`u200-ddr4`, `u280-hbm2`, `flat`).
    pub system: String,
    /// Banks in the system.
    pub banks: usize,
    /// Banks carrying at least one stream.
    pub banks_used: usize,
    /// DES makespan of the slowest shard pipeline, in cycles.
    pub makespan_cycles: u64,
    /// Per-bank port occupancy/stall counters (empty in the 1-bank
    /// degenerate mode, which runs the flat pre-banking networks).
    pub bank_stats: Vec<hls_dataflow::BankStats>,
    /// Per-shard flat reports — populated only in the 1-bank degenerate
    /// mode, where they are exactly [`emulate_plan`]'s reports.
    pub shard_reports: Vec<ShardCycleReport>,
}

/// Runs the banked dataflow emulation of a whole plan.
///
/// With a 1-bank `system` (the degenerate flat model) this is
/// [`emulate_plan`] — the per-shard Load → Compute → Store chains with no
/// bank tags and no port arbitration — so the result reproduces the flat
/// reports cycle-for-cycle. With a multi-bank system each
/// shard becomes one pipeline of [`STREAMS_PER_SHARD`] banked endpoints
/// (gather and geometry producers feeding the compute task, scatter
/// tasks draining it) in a single network whose banked channels share
/// ports per the [`hls_dataflow`] conflict rule; per-shard token counts
/// ride the per-task overrides.
///
/// # Errors
///
/// [`hls_dataflow::DataflowError`] if a network fails to validate or
/// simulate (an `assignment` that does not cover the plan's streams
/// surfaces as an unknown-bank panic upstream; callers build assignments
/// from [`shard_streams`]).
pub fn emulate_plan_banked(
    plan: &ShardPlan,
    npe: u64,
    system: &fpga_platform::MemorySystem,
    assignment: &fpga_platform::BankAssignment,
) -> Result<BankedEmulation, hls_dataflow::DataflowError> {
    let streams = shard_streams(plan, npe);
    assert_eq!(
        assignment.bank_of.len(),
        streams.len(),
        "assignment must cover every stream of the plan"
    );
    if system.num_banks() == 1 {
        let shard_reports = emulate_plan(plan, npe)?;
        let makespan_cycles = shard_reports
            .iter()
            .map(|r| r.makespan_cycles)
            .max()
            .unwrap_or(0);
        return Ok(BankedEmulation {
            system: system.name().to_string(),
            banks: 1,
            banks_used: 1,
            makespan_cycles,
            bank_stats: Vec::new(),
            shard_reports,
        });
    }

    let mut b = NetworkBuilder::new();
    let mut si = 0usize;
    for shard in plan.shards() {
        let g = shard.index();
        let elements = shard.num_elements() as u64;
        let mut shard_tasks = Vec::with_capacity(STREAMS_PER_SHARD + 2);
        // Gather + geometry producers, each issuing through its bank.
        let mut compute_inputs = Vec::with_capacity(GATHER_STREAMS_PER_SHARD + 1);
        for _ in 0..GATHER_STREAMS_PER_SHARD + 1 {
            let s = &streams[si];
            let c = b.banked_channel(
                s.label.clone(),
                8,
                ChannelKind::Fifo,
                assignment.bank_of[si],
            );
            shard_tasks.push(b.task(
                format!("ld:{}", s.label),
                s.beats_per_token,
                s.beats_per_token + 16,
                vec![],
                vec![c],
            ));
            compute_inputs.push(c);
            si += 1;
        }
        // Fused compute, fanning out to the scatter tasks.
        let store_chans: Vec<usize> = (0..SCATTER_STREAMS_PER_SHARD)
            .map(|j| b.channel(format!("s{g}:cs{j}"), 8, ChannelKind::Fifo))
            .collect();
        shard_tasks.push(b.task(
            format!("s{g}:compute"),
            npe.max(1),
            npe.max(1) + 32,
            compute_inputs,
            store_chans.clone(),
        ));
        // Scatter tasks writing through their banks into the shard sink.
        let mut sink_inputs = Vec::with_capacity(SCATTER_STREAMS_PER_SHARD);
        for &cs in &store_chans {
            let s = &streams[si];
            let oc = b.banked_channel(
                s.label.clone(),
                8,
                ChannelKind::Fifo,
                assignment.bank_of[si],
            );
            shard_tasks.push(b.task(
                format!("st:{}", s.label),
                s.beats_per_token,
                s.beats_per_token + 8,
                vec![cs],
                vec![oc],
            ));
            sink_inputs.push(oc);
            si += 1;
        }
        shard_tasks.push(b.task(format!("s{g}:sink"), 1, 1, sink_inputs, vec![]));
        for t in shard_tasks {
            b.task_tokens(t, elements);
        }
    }
    // Every task carries an override, so the network-wide count is inert.
    let net = b.build(0)?;
    let report = simulate(&net)?;
    Ok(BankedEmulation {
        system: system.name().to_string(),
        banks: system.num_banks(),
        banks_used: assignment.banks_used(),
        makespan_cycles: report.makespan,
        bank_stats: report.bank_stats,
        shard_reports: Vec::new(),
    })
}

// --------------------------------------------------------- multi-device

/// One frontier contribution: element residual values destined for a
/// node touched by several devices, routed to the node's owner. The
/// source element id is carried so the owner can restore ascending global
/// element order before applying.
#[derive(Debug, Clone)]
struct HaloContribution {
    node: u32,
    element: u32,
    vals: [f64; NUM_VARS],
}

/// Cheap identity proxy for a geometry cache: element count plus the
/// first and last quadrature weights' raw bits.
fn geometry_fingerprint(geometry: &GeometryCache) -> (usize, u64, u64) {
    let ne = geometry.num_elements();
    if ne == 0 {
        return (0, 0, 0);
    }
    let first = geometry.det_w(0).first().map_or(0, |v| v.to_bits());
    let last = geometry.det_w(ne - 1).last().map_or(0, |v| v.to_bits());
    (ne, first, last)
}

/// Clock the inter-device link DES is normalized to: link seconds from
/// [`fpga_platform::pcie`] convert to cycles at the accelerator's
/// 300 MHz fabric clock, so compute and communication share a time base.
const LINK_CLOCK_HZ: f64 = 300.0e6;

/// DMA burst granularity of one posted halo buffer: each started chunk
/// pays the link round-trip latency once
/// ([`fpga_platform::pcie::chunked_transfer_seconds`]).
const LINK_CHUNK_BYTES: u64 = 64 * 1024;

/// Wire size of one halo record on the inter-device link.
const HALO_RECORD_BYTES: u64 = std::mem::size_of::<HaloContribution>() as u64;

/// Emulated timing of one device's halo-exchange step, from routing the
/// per-device frontier → interior → apply chains and every directed
/// neighbor link through one [`hls_dataflow::sim`] network. The link DES
/// starts a device's outbound transfers the moment its frontier sweep
/// finishes and lets them fly *while* the interior sweep runs — so
/// `exposed_cycles` is exactly the communication the overlap failed to
/// hide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceExchangeReport {
    /// Device (= shard) index within the plan.
    pub device: usize,
    /// Neighbor devices this device exchanges halo buffers with.
    pub neighbors: usize,
    /// Elements touching at least one frontier node (assembled first).
    pub frontier_elements: usize,
    /// Elements touching no frontier node (overlapped with the exchange).
    pub interior_elements: usize,
    /// Halo records posted to *other* devices per assembly.
    pub halo_records_sent: usize,
    /// Bytes those records put on the inter-device links.
    pub halo_bytes_sent: u64,
    /// Records the device applies to its owned frontier nodes (its own
    /// self-owned records plus everything received).
    pub halo_records_applied: usize,
    /// Frontier-sweep compute cycles (latency before the posts go out).
    pub frontier_cycles: u64,
    /// Interior-sweep compute cycles (the overlap window).
    pub interior_cycles: u64,
    /// Total inbound link cycles (latency + chunked bandwidth per
    /// neighbor post, summed over inbound links).
    pub exchange_cycles: u64,
    /// Exchange cycles *not* hidden behind the interior sweep: how long
    /// the apply stage waited after interior compute finished.
    pub exposed_cycles: u64,
    /// Owner-apply cycles (one applied record per cycle).
    pub apply_cycles: u64,
    /// Cycle at which this device's apply stage retires — the device's
    /// contribution to the step makespan.
    pub makespan_cycles: u64,
}

/// Measured wall-clock seconds one device worker has spent per exchange
/// phase, accumulated across assemblies. `wait_s` is time blocked on the
/// mailbox *after* the interior sweep — the measured analogue of
/// [`DeviceExchangeReport::exposed_cycles`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DevicePhaseSeconds {
    /// Frontier-element assembly and record routing.
    pub frontier_s: f64,
    /// Interior sweep (overlapped with the neighbors' posts in flight).
    pub interior_s: f64,
    /// Blocked draining the inbox after the interior sweep.
    pub wait_s: f64,
    /// Sorting and applying owned frontier records.
    pub apply_s: f64,
}

impl DevicePhaseSeconds {
    /// Fraction of the post-frontier window spent computing rather than
    /// waiting: `interior / (interior + wait)`, 1.0 when both are zero.
    pub fn overlap_efficiency(&self) -> f64 {
        let busy = self.interior_s + self.wait_s;
        if busy <= 0.0 {
            1.0
        } else {
            self.interior_s / busy
        }
    }
}

/// A device's inbox: neighbors post exactly one (possibly empty) halo
/// buffer each per assembly, so the receiver knows it has drained the
/// full halo once `expected` posts arrived — no central barrier.
#[derive(Debug)]
struct Mailbox {
    posted: Mutex<Vec<(u32, Vec<HaloContribution>)>>,
    ready: Condvar,
    expected: usize,
}

impl Mailbox {
    fn new(expected: usize) -> Mailbox {
        Mailbox {
            posted: Mutex::new(Vec::with_capacity(expected)),
            ready: Condvar::new(),
            expected,
        }
    }

    fn post(&self, sender: u32, records: Vec<HaloContribution>) {
        let mut posted = self.posted.lock().unwrap();
        posted.push((sender, records));
        self.ready.notify_one();
    }

    /// Blocks until every neighbor has posted, then takes the inbox.
    fn drain(&self) -> Vec<(u32, Vec<HaloContribution>)> {
        let mut posted = self.posted.lock().unwrap();
        while posted.len() < self.expected {
            posted = self.ready.wait(posted).unwrap();
        }
        std::mem::take(&mut *posted)
    }
}

/// The shared (cross-thread) half of one device: its inbox plus the
/// return path for emptied send buffers.
#[derive(Debug)]
struct DeviceShared {
    mailbox: Mailbox,
    /// Emptied send buffers receivers hand back after applying, reclaimed
    /// by this device on its next exchange — the steady state allocates
    /// nothing.
    recycle: Mutex<Vec<Vec<HaloContribution>>>,
}

/// The private (single-worker) half of one device.
#[derive(Debug)]
struct DeviceState {
    index: usize,
    /// Global ids of this device's frontier elements, ascending.
    frontier_elements: Vec<u32>,
    /// Double-banked per-neighbor send buffers, indexed by the position
    /// of the destination in the shard's sorted neighbor list; the bank
    /// parity flips every assembly, so a buffer still in flight at a
    /// receiver is never refilled.
    send: Vec<[Vec<HaloContribution>; 2]>,
    /// Contributions to frontier nodes this device itself owns (they
    /// never cross a link, but are applied with the received ones).
    pending: Vec<HaloContribution>,
    /// Buffered residuals of the frontier sweep (`npe × NUM_VARS` floats
    /// per frontier element), replayed in the ascending-element interior
    /// walk so interior nodes accumulate in exact serial order.
    replay: Vec<f64>,
    measured: DevicePhaseSeconds,
}

/// The one sharded executor, and the only parallel assembly path: one
/// worker thread per simulated device with
/// a decentralized, overlapped halo exchange (see the module docs for the
/// protocol and the bitwise argument) plus a cached per-device link DES
/// ([`DeviceExchangeReport`]).
#[derive(Debug)]
pub struct MultiDeviceBackend {
    plan: Arc<ShardPlan>,
    /// O(1) fingerprint of the cache the shard plan was built against,
    /// re-checked on every assembly so a backend installed against the
    /// wrong mesh/geometry fails loudly instead of applying a foreign
    /// ownership plan.
    geometry_fingerprint: (usize, u64, u64),
    devices: Vec<DeviceState>,
    shared: Vec<DeviceShared>,
    reports: Vec<DeviceExchangeReport>,
    /// Send-bank parity of the *next* assembly.
    parity: usize,
}

impl MultiDeviceBackend {
    /// Decomposes `mesh` into (up to) `devices` devices under `strategy`
    /// and runs the link DES.
    ///
    /// # Errors
    ///
    /// [`SolverError::Mesh`] if `devices == 0` or the exchange network
    /// fails to simulate.
    ///
    /// # Panics
    ///
    /// Panics if `geometry` does not cover `mesh`.
    pub fn new(
        mesh: &HexMesh,
        geometry: &GeometryCache,
        devices: usize,
        strategy: PartitionStrategy,
    ) -> Result<MultiDeviceBackend, SolverError> {
        assert_eq!(
            geometry.num_elements(),
            mesh.num_elements(),
            "geometry cache does not cover the mesh"
        );
        let plan = Arc::new(ShardPlan::with_strategy(
            mesh,
            devices,
            usize::MAX,
            strategy,
        )?);
        MultiDeviceBackend::with_plan(plan, mesh, geometry)
    }

    /// Wraps an already-built (possibly shared) shard plan — the
    /// shared-plan counterpart of [`MultiDeviceBackend::new`], used by
    /// ensemble members on one [`fem_mesh::SharedMeshContext`].
    ///
    /// # Errors
    ///
    /// [`SolverError::Mesh`] if the exchange network fails to simulate.
    ///
    /// # Panics
    ///
    /// Panics if `geometry` or `mesh` does not cover the plan.
    pub fn with_plan(
        plan: Arc<ShardPlan>,
        mesh: &HexMesh,
        geometry: &GeometryCache,
    ) -> Result<MultiDeviceBackend, SolverError> {
        assert_eq!(
            plan.num_elements(),
            mesh.num_elements(),
            "shard plan does not cover the mesh"
        );
        assert_eq!(
            geometry.num_elements(),
            plan.num_elements(),
            "geometry cache does not cover the shard plan's mesh"
        );
        let frontier = plan.frontier();
        let owner = plan.owners();
        let nd = plan.num_shards();

        // Classify each device's elements and count the halo records per
        // directed (sender, owner) pair — the diagonal holds records to
        // self-owned frontier nodes, which never cross a link.
        let mut frontier_elements: Vec<Vec<u32>> = Vec::with_capacity(nd);
        let mut records = vec![vec![0u64; nd]; nd];
        for shard in plan.shards() {
            let s = shard.index();
            let mut fe = Vec::new();
            for &e32 in shard.elements() {
                let mut touches_frontier = false;
                for &n in mesh.element_nodes(e32 as usize) {
                    if frontier[n as usize] {
                        touches_frontier = true;
                        records[s][owner[n as usize] as usize] += 1;
                    }
                }
                if touches_frontier {
                    fe.push(e32);
                }
            }
            frontier_elements.push(fe);
        }

        let reports = emulate_exchange(&plan, mesh, &frontier_elements, &records).map_err(|e| {
            SolverError::Mesh(fem_mesh::MeshError::InvalidParameter(format!(
                "device exchange emulation failed: {e}"
            )))
        })?;

        let devices = plan
            .shards()
            .iter()
            .zip(frontier_elements)
            .map(|(shard, fe)| DeviceState {
                index: shard.index(),
                frontier_elements: fe,
                send: shard
                    .neighbors()
                    .iter()
                    .map(|_| [Vec::new(), Vec::new()])
                    .collect(),
                pending: Vec::new(),
                replay: Vec::new(),
                measured: DevicePhaseSeconds::default(),
            })
            .collect();
        let shared = plan
            .shards()
            .iter()
            .map(|shard| DeviceShared {
                mailbox: Mailbox::new(shard.neighbors().len()),
                recycle: Mutex::new(Vec::new()),
            })
            .collect();
        Ok(MultiDeviceBackend {
            plan,
            geometry_fingerprint: geometry_fingerprint(geometry),
            devices,
            shared,
            reports,
            parity: 0,
        })
    }

    /// The underlying shard plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }
}

/// Routes the per-device compute chains and every directed neighbor link
/// through one DES. Per device `d`: `frontier_d → interior_d → apply_d`;
/// per directed neighbor pair `(s, d)`: `frontier_s → link_s_d →
/// apply_d`, with the link latency from [`fpga_platform::pcie`]. With a
/// single token, `apply_d` fires only once interior compute *and* every
/// inbound post landed — its start minus the interior finish is the
/// exposed (non-overlapped) communication.
fn emulate_exchange(
    plan: &ShardPlan,
    mesh: &HexMesh,
    frontier_elements: &[Vec<u32>],
    records: &[Vec<u64>],
) -> Result<Vec<DeviceExchangeReport>, hls_dataflow::DataflowError> {
    let npe = mesh.nodes_per_element() as u64;
    let nd = plan.num_shards();
    let mut b = NetworkBuilder::new();

    // All channels first: tasks take fully-formed endpoint lists.
    let chain: Vec<(usize, usize)> = (0..nd)
        .map(|d| {
            (
                b.channel(format!("f{d}_i{d}"), 1, ChannelKind::Fifo),
                b.channel(format!("i{d}_a{d}"), 1, ChannelKind::Fifo),
            )
        })
        .collect();
    // Directed links: (sender, receiver, frontier→link ch, link→apply ch,
    // link cycles).
    let mut links: Vec<(usize, usize, usize, usize, u64)> = Vec::new();
    for shard in plan.shards() {
        let s = shard.index();
        for &t32 in shard.neighbors() {
            let t = t32 as usize;
            let bytes = records[s][t] * HALO_RECORD_BYTES;
            let chunks = bytes.div_ceil(LINK_CHUNK_BYTES).max(1);
            let seconds = fpga_platform::pcie::chunked_transfer_seconds(bytes, chunks);
            let cycles = (seconds * LINK_CLOCK_HZ).ceil() as u64;
            let c_fl = b.channel(format!("f{s}_l{s}_{t}"), 1, ChannelKind::Fifo);
            let c_la = b.channel(format!("l{s}_{t}_a{t}"), 1, ChannelKind::Fifo);
            links.push((s, t, c_fl, c_la, cycles));
        }
    }

    let mut frontier_tasks = Vec::with_capacity(nd);
    let mut interior_tasks = Vec::with_capacity(nd);
    let mut apply_tasks = Vec::with_capacity(nd);
    for d in 0..nd {
        let frontier_cycles = (frontier_elements[d].len() as u64 * npe).max(1);
        let interior_count =
            plan.shards()[d].num_elements() as u64 - frontier_elements[d].len() as u64;
        let interior_cycles = (interior_count * npe).max(1);
        // The owner applies one record per cycle: everything inbound plus
        // its own self-owned records.
        let applied: u64 = (0..nd).map(|s| records[s][d]).sum();

        let f_out: Vec<usize> = std::iter::once(chain[d].0)
            .chain(links.iter().filter(|l| l.0 == d).map(|l| l.2))
            .collect();
        let a_in: Vec<usize> = std::iter::once(chain[d].1)
            .chain(links.iter().filter(|l| l.1 == d).map(|l| l.3))
            .collect();
        frontier_tasks.push(b.task(format!("frontier_{d}"), 1, frontier_cycles, vec![], f_out));
        interior_tasks.push(b.task(
            format!("interior_{d}"),
            1,
            interior_cycles,
            vec![chain[d].0],
            vec![chain[d].1],
        ));
        apply_tasks.push(b.task(format!("apply_{d}"), 1, applied.max(1), a_in, vec![]));
    }
    for &(s, t, c_fl, c_la, cycles) in &links {
        b.task(format!("link_{s}_{t}"), 1, cycles, vec![c_fl], vec![c_la]);
    }

    let net = b.build(1)?;
    let report = simulate(&net)?;
    let stats = &report.task_stats;

    Ok((0..nd)
        .map(|d| {
            let interior_finish = stats[interior_tasks[d]].last_finish;
            let apply = &stats[apply_tasks[d]];
            let sent: u64 = (0..nd).filter(|&t| t != d).map(|t| records[d][t]).sum();
            let applied: u64 = (0..nd).map(|s| records[s][d]).sum();
            DeviceExchangeReport {
                device: d,
                neighbors: plan.shards()[d].neighbors().len(),
                frontier_elements: frontier_elements[d].len(),
                interior_elements: plan.shards()[d].num_elements() - frontier_elements[d].len(),
                halo_records_sent: sent as usize,
                halo_bytes_sent: sent * HALO_RECORD_BYTES,
                halo_records_applied: applied as usize,
                frontier_cycles: stats[frontier_tasks[d]].last_finish
                    - stats[frontier_tasks[d]].first_start,
                interior_cycles: interior_finish - stats[interior_tasks[d]].first_start,
                exchange_cycles: links.iter().filter(|l| l.1 == d).map(|l| l.4).sum(),
                exposed_cycles: apply.first_start.saturating_sub(interior_finish),
                apply_cycles: apply.last_finish - apply.first_start,
                makespan_cycles: apply.last_finish,
            }
        })
        .collect())
}

/// The body one device worker runs per assembly (one spawned thread per
/// device — the vendored rayon [`rayon::scope`] guarantees a real OS
/// thread per spawn, so blocking on the mailbox cannot deadlock the
/// pool).
#[allow(clippy::too_many_arguments)]
fn run_device(
    dev: &mut DeviceState,
    shard: &fem_mesh::partition::Shard,
    plan: &ShardPlan,
    boxes: &[DeviceShared],
    ctx: &AssemblyContext<'_>,
    conserved: &Conserved,
    prim: &Primitives,
    rhs: &SharedRhs,
    viscous: bool,
    parity: usize,
    profile: bool,
    agg: &Mutex<PhaseProfiler>,
) {
    let npe = ctx.mesh.nodes_per_element();
    let owner = plan.owners();
    let frontier = plan.frontier();
    let neighbors = shard.neighbors();
    let mut ws = ElementWorkspace::new(npe);
    let mut local = PhaseProfiler::new();
    // Per-device resolution: each worker materializes its own operators
    // (full-matrix) or none (factored) — no cross-device sharing needed.
    let kernel = KernelOps::resolve(ctx.kernel, ctx.basis);

    // Reclaim the emptied send buffers receivers returned earlier.
    {
        let mut pool = boxes[dev.index].recycle.lock().unwrap();
        for banks in dev.send.iter_mut() {
            let bank = &mut banks[parity];
            if bank.capacity() == 0 {
                if let Some(v) = pool.pop() {
                    *bank = v;
                }
            }
        }
    }

    // Phase 1 — frontier sweep: assemble every element touching a
    // frontier node, route frontier-node records to their owner (the
    // send bank of the owning neighbor, or `pending` when self-owned)
    // and *buffer* interior-node results for the replay below.
    let t0 = Instant::now();
    dev.replay.clear();
    for &e32 in &dev.frontier_elements {
        let e = e32 as usize;
        eval_element(
            ctx.mesh,
            ctx.basis,
            ctx.gas,
            viscous,
            conserved,
            prim,
            e,
            &mut ws,
            ctx.geometry.element(e),
            &kernel,
            if profile { Some(&mut local) } else { None },
        );
        for (q, &n) in ctx.mesh.element_nodes(e).iter().enumerate() {
            let vals = [
                ws.res[0][q],
                ws.res[1][q],
                ws.res[2][q],
                ws.res[3][q],
                ws.res[4][q],
            ];
            dev.replay.extend_from_slice(&vals);
            if frontier[n as usize] {
                let o = owner[n as usize];
                let rec = HaloContribution {
                    node: n,
                    element: e32,
                    vals,
                };
                if o as usize == dev.index {
                    dev.pending.push(rec);
                } else {
                    let j = neighbors
                        .binary_search(&o)
                        .expect("owner of a shared node is a neighbor");
                    dev.send[j][parity].push(rec);
                }
            }
        }
    }
    dev.measured.frontier_s += t0.elapsed().as_secs_f64();

    // Post one buffer to every neighbor — empty ones included, so every
    // receiver can detect completion by counting posts.
    for (j, &nb) in neighbors.iter().enumerate() {
        let buf = std::mem::take(&mut dev.send[j][parity]);
        boxes[nb as usize].mailbox.post(dev.index as u32, buf);
    }

    // Phase 2 — interior sweep, overlapped with the posts in flight:
    // walk ALL of the shard's elements ascending; frontier elements
    // replay their buffered interior-node scatters, interior elements
    // evaluate fresh. Interior nodes are touched by this device alone,
    // so the direct scatter is race-free and in serial order.
    let t0 = Instant::now();
    let stride = npe * NUM_VARS;
    let mut fcur = 0usize;
    for &e32 in shard.elements() {
        if fcur < dev.frontier_elements.len() && dev.frontier_elements[fcur] == e32 {
            let base = fcur * stride;
            for (q, &n) in ctx.mesh.element_nodes(e32 as usize).iter().enumerate() {
                if !frontier[n as usize] {
                    let o = base + q * NUM_VARS;
                    let vals = [
                        dev.replay[o],
                        dev.replay[o + 1],
                        dev.replay[o + 2],
                        dev.replay[o + 3],
                        dev.replay[o + 4],
                    ];
                    // SAFETY: in-bounds node; an interior node is
                    // touched by this device alone, so no two threads
                    // alias.
                    unsafe { rhs.add_vals(n as usize, &vals) };
                }
            }
            fcur += 1;
        } else {
            let e = e32 as usize;
            eval_element(
                ctx.mesh,
                ctx.basis,
                ctx.gas,
                viscous,
                conserved,
                prim,
                e,
                &mut ws,
                ctx.geometry.element(e),
                &kernel,
                if profile { Some(&mut local) } else { None },
            );
            for (q, &n) in ctx.mesh.element_nodes(e).iter().enumerate() {
                // An interior element touches no frontier node.
                debug_assert!(!frontier[n as usize]);
                // SAFETY: as above — interior nodes never alias.
                unsafe { rhs.add_node(n as usize, &ws.res, q) };
            }
        }
    }
    dev.measured.interior_s += t0.elapsed().as_secs_f64();

    // Phase 3 — wait for the neighbors' posts (the exposed, i.e.
    // non-overlapped, part of the exchange).
    let t0 = Instant::now();
    let inbox = boxes[dev.index].mailbox.drain();
    let wait = t0.elapsed();
    dev.measured.wait_s += wait.as_secs_f64();

    // Phase 4 — owner apply: merge received records with the self-owned
    // ones, restore ascending global element order, apply sequentially.
    // Owners target disjoint node sets, so devices never alias.
    let t0 = Instant::now();
    for (sender, mut buf) in inbox {
        dev.pending.append(&mut buf);
        // `buf` is empty now; hand its capacity back to the sender.
        boxes[sender as usize].recycle.lock().unwrap().push(buf);
    }
    // The (node, element) key is total (a node appears at most once per
    // element), so the unstable sort is deterministic.
    dev.pending
        .sort_unstable_by_key(|rec| (rec.node, rec.element));
    for rec in &dev.pending {
        // SAFETY: in-bounds node; each frontier node has exactly one
        // owner and only the owner applies, so devices never alias.
        unsafe { rhs.add_vals(rec.node as usize, &rec.vals) };
    }
    dev.pending.clear();
    let apply = t0.elapsed();
    dev.measured.apply_s += apply.as_secs_f64();

    if profile {
        local.add(Phase::RkOther, wait + apply);
        agg.lock().unwrap().merge(&local);
    }
}

impl ExecutionBackend for MultiDeviceBackend {
    fn name(&self) -> String {
        format!(
            "multidevice({}, {})",
            self.plan.num_shards(),
            self.plan.strategy()
        )
    }

    fn parallel(&self) -> bool {
        true
    }

    fn exchange_reports(&self) -> &[DeviceExchangeReport] {
        &self.reports
    }

    fn measured_device_phases(&self) -> Vec<DevicePhaseSeconds> {
        self.devices.iter().map(|d| d.measured).collect()
    }

    fn assemble_rhs(
        &mut self,
        ctx: &AssemblyContext<'_>,
        conserved: &Conserved,
        prim: &Primitives,
        out: &mut Conserved,
        profiler: Option<&mut PhaseProfiler>,
    ) {
        assert_eq!(conserved.len(), ctx.mesh.num_nodes(), "state size");
        assert_eq!(out.len(), ctx.mesh.num_nodes(), "output size");
        assert_eq!(
            self.plan.num_elements(),
            ctx.mesh.num_elements(),
            "shard plan does not cover the mesh"
        );
        // det_w sampling cannot tell uniform meshes apart, so the node
        // count (which separates e.g. periodic from walled boxes of the
        // same size) is checked alongside the geometry fingerprint.
        assert_eq!(
            self.plan.num_nodes(),
            ctx.mesh.num_nodes(),
            "shard plan node ownership does not cover the mesh"
        );
        assert_eq!(
            geometry_fingerprint(ctx.geometry),
            self.geometry_fingerprint,
            "assembly context geometry does not match the shard plan's mesh"
        );
        let viscous = ctx.gas.mu > 0.0;
        let profile = profiler.is_some();
        let parity = self.parity;
        self.parity ^= 1;

        out.set_zero();
        let rhs = SharedRhs::new(out);
        let agg = Mutex::new(PhaseProfiler::new());
        let plan: &ShardPlan = &self.plan;
        let boxes: &[DeviceShared] = &self.shared;
        rayon::scope(|scope| {
            for (dev, shard) in self.devices.iter_mut().zip(plan.shards()) {
                let rhs = &rhs;
                let agg = &agg;
                scope.spawn(move |_| {
                    run_device(
                        dev, shard, plan, boxes, ctx, conserved, prim, rhs, viscous, parity,
                        profile, agg,
                    );
                });
            }
        });

        if profile {
            let agg = agg.into_inner().unwrap();
            if let Some(p) = profiler {
                p.merge(&agg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Simulation;
    use crate::scenarios::Scenario;
    use crate::tgv::TgvConfig;
    use fem_mesh::generator::BoxMeshBuilder;
    use fpga_platform::{BankAssignment, MemorySystem};
    use proptest::prelude::*;

    fn bits(c: &Conserved) -> Vec<u64> {
        c.to_bit_vec()
    }

    fn flat(c: &Conserved) -> Vec<f64> {
        let mut out = Vec::new();
        c.for_each_field(|f| out.extend_from_slice(f));
        out
    }

    #[test]
    fn backend_select_displays() {
        assert_eq!(
            BackendSelect::Reference(AssemblyStrategy::Serial).to_string(),
            "reference(serial)"
        );
        assert_eq!(
            BackendSelect::MultiDevice {
                devices: 4,
                strategy: PartitionStrategy::Contiguous
            }
            .to_string(),
            "multidevice(4, contiguous)"
        );
    }

    #[test]
    fn sharded_trajectory_is_bitwise_identical_across_shard_counts() {
        let cfg = TgvConfig::standard();
        let mesh = BoxMeshBuilder::tgv_box(6).build().unwrap();
        let initial = cfg.initial_state(&mesh);
        let mut reference = Simulation::new(mesh, cfg.gas(), initial).unwrap();
        let dt = reference.suggest_dt(0.4);
        reference.advance(4, dt).unwrap();
        let ref_bits = bits(reference.conserved());

        for strategy in [
            PartitionStrategy::Contiguous,
            PartitionStrategy::Partitioned,
        ] {
            for devices in [1usize, 2, 3, 5, 64] {
                let mesh = BoxMeshBuilder::tgv_box(6).build().unwrap();
                let initial = cfg.initial_state(&mesh);
                let mut sim = Simulation::new(mesh, cfg.gas(), initial).unwrap();
                sim.set_backend(BackendSelect::MultiDevice { devices, strategy })
                    .unwrap();
                assert!(sim.backend().parallel());
                assert_eq!(
                    sim.backend().name(),
                    format!("multidevice({devices}, {strategy})")
                );
                sim.advance(4, dt).unwrap();
                assert_eq!(
                    bits(sim.conserved()),
                    ref_bits,
                    "devices={devices} strategy={strategy} diverged from the serial reference"
                );
            }
        }
    }

    #[test]
    fn emulate_plan_quotes_every_shard() {
        let mesh = BoxMeshBuilder::tgv_box(5).build().unwrap();
        let plan =
            ShardPlan::with_strategy(&mesh, 4, usize::MAX, PartitionStrategy::Contiguous).unwrap();
        let reports = emulate_plan(&plan, mesh.nodes_per_element() as u64).unwrap();
        assert_eq!(reports.len(), 4);
        let ne: usize = reports.iter().map(|r| r.elements).sum();
        assert_eq!(ne, 5 * 5 * 5);
        for (g, r) in reports.iter().enumerate() {
            assert_eq!(r.shard, g);
            assert!(r.makespan_cycles > 0);
            assert!(r.observed_ii >= r.bottleneck_ii as f64 - 0.5, "{r:?}");
            assert_eq!(r.bottleneck_ii, r.load_ii.max(r.compute_ii).max(r.store_ii));
        }
    }

    #[test]
    fn reference_backend_is_the_serial_loop() {
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let serial = ReferenceBackend::new(AssemblyStrategy::Serial, &mesh);
        assert!(!serial.parallel());
        assert_eq!(serial.name(), "reference(serial)");
        assert!(serial.exchange_reports().is_empty());
        assert!(serial.measured_device_phases().is_empty());
    }

    #[test]
    fn zero_shards_is_rejected() {
        let mesh = BoxMeshBuilder::tgv_box(3).build().unwrap();
        let basis = HexBasis::new(1).unwrap();
        let geometry = GeometryCache::build(&mesh, &basis).unwrap();
        for strategy in [
            PartitionStrategy::Contiguous,
            PartitionStrategy::Partitioned,
        ] {
            assert!(MultiDeviceBackend::new(&mesh, &geometry, 0, strategy).is_err());
        }
    }

    #[test]
    fn one_bank_banked_emulation_reproduces_flat_reports() {
        // The degenerate 1-bank system must reproduce the flat per-shard
        // emulation cycle-for-cycle at every shard count and both
        // strategies.
        let mesh = BoxMeshBuilder::tgv_box(6).build().unwrap();
        let npe = mesh.nodes_per_element() as u64;
        let flat_sys = MemorySystem::u200_flat();
        for strategy in [
            PartitionStrategy::Contiguous,
            PartitionStrategy::Partitioned,
        ] {
            for shards in [1usize, 2, 4, 8] {
                let plan = ShardPlan::with_strategy(&mesh, shards, usize::MAX, strategy).unwrap();
                let quotes = emulate_plan(&plan, npe).unwrap();
                let streams = shard_streams(&plan, npe);
                let a = BankAssignment::round_robin(&streams, &flat_sys);
                let banked = emulate_plan_banked(&plan, npe, &flat_sys, &a).unwrap();
                assert_eq!(banked.shard_reports, quotes);
                assert_eq!(
                    banked.makespan_cycles,
                    quotes.iter().map(|r| r.makespan_cycles).max().unwrap()
                );
                assert!(banked.bank_stats.is_empty());
            }
        }
    }

    #[test]
    fn shard_streams_cover_the_plan_traffic() {
        let mesh = BoxMeshBuilder::tgv_box(6).build().unwrap();
        let plan =
            ShardPlan::with_strategy(&mesh, 4, usize::MAX, PartitionStrategy::Contiguous).unwrap();
        let npe = mesh.nodes_per_element() as u64;
        let streams = shard_streams(&plan, npe);
        assert_eq!(streams.len(), 4 * STREAMS_PER_SHARD);
        for (g, shard) in plan.shards().iter().enumerate() {
            let mine: Vec<_> = streams.iter().filter(|s| s.group == g).collect();
            assert_eq!(mine.len(), STREAMS_PER_SHARD);
            assert!(mine.iter().all(|s| s.tokens == shard.num_elements() as u64));
            // The geometry slice is the heaviest stream at p = 1:
            // 8 nodes × 80 B = 10 beats/element vs ~1 for the others.
            let geom = mine.iter().max_by_key(|s| s.beats_per_token).unwrap();
            assert!(geom.label.ends_with("geometry"), "{}", geom.label);
            assert_eq!(geom.beats_per_token, 10);
        }
        let floors = shard_compute_floors(&plan, npe);
        assert_eq!(floors.len(), 4);
        assert_eq!(floors.iter().sum::<u64>(), mesh.num_elements() as u64 * npe);
    }

    #[test]
    fn banked_hbm_emulation_beats_round_robin_with_a_better_layout() {
        // On the 32-bank HBM model at 8 shards, round-robin co-locates
        // geometry slices with state streams; the greedy planner spreads
        // them and the DES makespan strictly improves.
        let mesh = BoxMeshBuilder::tgv_box(6).build().unwrap();
        let plan =
            ShardPlan::with_strategy(&mesh, 8, usize::MAX, PartitionStrategy::Contiguous).unwrap();
        let npe = mesh.nodes_per_element() as u64;
        let hbm = MemorySystem::u280_hbm2();
        let streams = shard_streams(&plan, npe);
        let rr = BankAssignment::round_robin(&streams, &hbm);
        let greedy = BankAssignment::greedy(&streams, &hbm);
        let r_rr = emulate_plan_banked(&plan, npe, &hbm, &rr).unwrap();
        let r_gr = emulate_plan_banked(&plan, npe, &hbm, &greedy).unwrap();
        assert!(
            r_gr.makespan_cycles < r_rr.makespan_cycles,
            "greedy {} !< round-robin {}",
            r_gr.makespan_cycles,
            r_rr.makespan_cycles
        );
        // Round-robin's contention shows up as bank port stalls.
        assert!(r_rr.bank_stats.iter().any(|b| b.stall_cycles > 0));
        assert_eq!(r_rr.banks, 32);
        assert!(r_rr.banks_used <= 32);
    }

    #[test]
    fn multidevice_trajectory_is_bitwise_identical_per_registry_scenario() {
        // The sharded executor's guarantee: the decentralized overlapped
        // exchange stays bitwise identical to the serial reference on
        // every registry scenario, at every device count up to one
        // element per device, under both partition strategies.
        for scenario in Scenario::registry() {
            let mut reference = scenario.simulation(4).unwrap();
            let dt = reference.suggest_dt(0.3);
            reference.advance(2, dt).unwrap();
            for strategy in [
                PartitionStrategy::Contiguous,
                PartitionStrategy::Partitioned,
            ] {
                for devices in [1usize, 2, 3, 4, 5, 7, 8, 64] {
                    let mut sim = scenario.simulation(4).unwrap();
                    sim.set_backend(BackendSelect::MultiDevice { devices, strategy })
                        .unwrap();
                    assert!(sim.backend().parallel());
                    sim.advance(2, dt).unwrap();
                    assert_eq!(
                        bits(sim.conserved()),
                        bits(reference.conserved()),
                        "{} devices={devices} {strategy} diverged from the serial reference",
                        scenario.name()
                    );
                }
            }
        }
    }

    #[test]
    fn multidevice_exchange_reports_model_the_overlap() {
        let cfg = TgvConfig::standard();
        let mesh = BoxMeshBuilder::tgv_box(6).build().unwrap();
        let initial = cfg.initial_state(&mesh);
        let mut sim = Simulation::new(mesh, cfg.gas(), initial).unwrap();
        sim.set_backend(BackendSelect::MultiDevice {
            devices: 4,
            strategy: PartitionStrategy::Contiguous,
        })
        .unwrap();
        assert_eq!(sim.backend().name(), "multidevice(4, contiguous)");

        let reports = sim.exchange_reports();
        assert_eq!(reports.len(), 4);
        let ne: usize = reports
            .iter()
            .map(|r| r.frontier_elements + r.interior_elements)
            .sum();
        assert_eq!(ne, 6 * 6 * 6);
        for r in reports {
            // A 4-device split of a periodic box has halo everywhere.
            assert!(r.neighbors >= 1, "{r:?}");
            assert!(r.frontier_elements > 0, "{r:?}");
            assert_eq!(r.halo_bytes_sent, 48 * r.halo_records_sent as u64);
            assert!(r.frontier_cycles > 0 && r.interior_cycles > 0, "{r:?}");
            // Each inbound post pays at least the PCIe round-trip
            // latency (15 µs at 300 MHz = 4500 cycles).
            assert!(r.exchange_cycles >= 4500 * r.neighbors as u64, "{r:?}");
            assert!(r.apply_cycles >= r.halo_records_applied as u64, "{r:?}");
            // The apply stage retires after frontier + interior compute.
            assert!(
                r.makespan_cycles >= r.frontier_cycles + r.interior_cycles + r.apply_cycles,
                "{r:?}"
            );
            // These small interior sweeps cannot hide a 15 µs link
            // round-trip — some communication stays exposed.
            assert!(r.exposed_cycles > 0, "{r:?}");
        }
        // Ownership decides who *sends* (a first-touch owner only
        // receives), so records are conserved in aggregate, not per
        // device: everything sent or self-owned is applied exactly once.
        let sent: usize = reports.iter().map(|r| r.halo_records_sent).sum();
        let applied: usize = reports.iter().map(|r| r.halo_records_applied).sum();
        assert!(sent > 0);
        assert!(applied > sent, "self-owned records are applied too");

        // Measured phases accumulate once the simulation advances.
        assert!(sim
            .measured_device_phases()
            .iter()
            .all(|m| m.frontier_s == 0.0 && m.interior_s == 0.0));
        let dt = sim.suggest_dt(0.4);
        sim.advance(2, dt).unwrap();
        let measured = sim.measured_device_phases();
        assert_eq!(measured.len(), 4);
        for m in &measured {
            assert!(m.frontier_s > 0.0 && m.interior_s > 0.0);
            assert!(m.wait_s >= 0.0 && m.apply_s >= 0.0);
            let eff = m.overlap_efficiency();
            assert!((0.0..=1.0).contains(&eff), "{eff}");
        }

        // Single device: no neighbors, no links, nothing exposed.
        let mesh = BoxMeshBuilder::tgv_box(6).build().unwrap();
        let basis = HexBasis::new(1).unwrap();
        let geometry = GeometryCache::build(&mesh, &basis).unwrap();
        let solo =
            MultiDeviceBackend::new(&mesh, &geometry, 1, PartitionStrategy::Contiguous).unwrap();
        let r = &solo.exchange_reports()[0];
        assert_eq!(r.neighbors, 0);
        assert_eq!(r.frontier_elements, 0);
        assert_eq!(r.halo_records_sent, 0);
        assert_eq!(r.exchange_cycles, 0);
        assert_eq!(r.exposed_cycles, 0);
    }

    #[test]
    fn multidevice_profiling_records_phases() {
        let cfg = TgvConfig::standard();
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let initial = cfg.initial_state(&mesh);
        let mut sim = Simulation::new(mesh, cfg.gas(), initial).unwrap();
        sim.set_backend(BackendSelect::MultiDevice {
            devices: 3,
            strategy: PartitionStrategy::Partitioned,
        })
        .unwrap();
        sim.set_profiling(true);
        let dt = sim.suggest_dt(0.4);
        sim.advance(2, dt).unwrap();
        let p = sim.profiler();
        assert!(p.total(Phase::RkConvection) > std::time::Duration::ZERO);
        assert!(p.total(Phase::RkDiffusion) > std::time::Duration::ZERO);
        assert!(p.total(Phase::RkOther) > std::time::Duration::ZERO);
    }

    proptest! {
        /// For every scenario in the registry, the sharded executor's RHS
        /// (the full composed RKU → RKL → mass → boundary pipeline)
        /// matches the serial reference at ≤ 1e-12 relative — and in fact
        /// bitwise — for randomized device counts under both partition
        /// strategies.
        #[test]
        fn prop_sharded_rhs_matches_reference_on_every_scenario(
            devices in 1usize..17,
            edge in 3usize..5,
            partitioned in proptest::bool::ANY,
        ) {
            let strategy = if partitioned {
                PartitionStrategy::Partitioned
            } else {
                PartitionStrategy::Contiguous
            };
            for scenario in Scenario::registry() {
                let mut reference = scenario.simulation(edge).unwrap();
                let mut sharded = scenario.simulation(edge).unwrap();
                sharded.set_backend(BackendSelect::MultiDevice { devices, strategy }).unwrap();
                let a = reference.eval_rhs();
                let b = sharded.eval_rhs();
                let fa = flat(&a);
                let scale = fa.iter().fold(1.0f64, |m, &v| m.max(v.abs()));
                for (x, y) in fa.iter().zip(&flat(&b)) {
                    prop_assert!(
                        (x - y).abs() <= 1e-12 * scale,
                        "{} devices={} {}: {} vs {}", scenario.name(), devices, strategy, x, y
                    );
                }
                prop_assert_eq!(bits(&a), bits(&b));
            }
        }
    }
}

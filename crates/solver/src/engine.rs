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
//!   its inbox. A closed-form link model, evaluated once when the backend
//!   is attached, prices the inter-device links from
//!   [`fpga_platform::pcie`] numbers and separates compute, exchange, and
//!   *exposed* (non-overlapped) communication per device
//!   ([`DeviceExchangeReport`]).
//!
//! This module runs no dataflow simulation. The accelerator and memory
//! mappings of a shard plan (the per-shard and banked DES) live in
//! `fem_accel::emulation`; this crate only names the array counts they
//! stream ([`GATHER_STREAMS_PER_SHARD`], [`SCATTER_STREAMS_PER_SHARD`]).
//!
//! # The shard determinism guarantee
//!
//! [`MultiDeviceBackend`] is **bitwise identical to the serial reference
//! loop for every device count and both partition strategies** — the
//! argument holds for *arbitrary* element-to-device assignments, not just
//! contiguous ranges:
//!
//! 1. every device stores its elements sorted ascending by global id and
//!    walks them in that order. It *evaluates* them in element batches
//!    (`crate::batch`) — evaluation order is free, since an element's
//!    residual depends on its own data alone — but records, replays and
//!    scatters them one element at a time in that order (the spare lanes
//!    of a padded last batch are never recorded);
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
//! A backend implements two methods, [`ExecutionBackend::name`] and
//! [`ExecutionBackend::assemble_rhs`], and plugs into the driver via
//! [`crate::driver::SimulationBuilder::custom_backend`] — the
//! validation oracle [`crate::oracle::ElementLoopBackend`] registers
//! itself exactly this way. The driver owns everything around the assembly (the
//! RKU update, the lumped-mass divide, the boundary conditions), so a
//! backend never sees them. The one provided method,
//! [`ExecutionBackend::as_multi_device`], lets callers reach the
//! [`MultiDeviceBackend`]'s shard plan and exchange telemetry; other
//! backends keep its `None` default. Built-in backends are selected by
//! value through [`BackendSelect`] and
//! [`crate::driver::SimulationBuilder::backend`]. Either way the backend
//! is attached once, at [`crate::driver::SimulationBuilder::build`], and
//! stays for the life of the simulation.

use crate::batch::{BatchEvaluator, Elements, ResidualSink, Residuals};
use crate::gas::GasModel;
use crate::kernels::{KernelOps, KernelPath, NUM_VARS};
use crate::parallel::{assemble_rhs_into, AssemblyStrategy, SharedRhs};
use crate::profile::{Phase, PhaseProfiler};
use crate::state::{Conserved, Primitives};
use crate::SolverError;
use fem_mesh::geometry::GeometryCache;
pub use fem_mesh::partition::PartitionStrategy;
use fem_mesh::partition::ShardPlan;
use fem_mesh::{HexMesh, MeshError};
use fem_numerics::tensor::HexBasis;
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

/// A pluggable RHS-assembly engine (see the module docs).
///
/// Implementations must be deterministic: two calls with identical inputs
/// must produce bitwise-identical output.
pub trait ExecutionBackend: std::fmt::Debug + Send {
    /// Human-readable backend identifier (stable — reported by studies).
    fn name(&self) -> String;

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

    /// The backend as the multi-device executor, for callers that read
    /// its shard plan, link model or measured device phases (`None` for
    /// every other backend).
    fn as_multi_device(&self) -> Option<&MultiDeviceBackend> {
        None
    }
}

/// Value-level selector for the built-in backends (what
/// [`crate::driver::SimulationBuilder::backend`] consumes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendSelect {
    /// The serial host loop ([`ReferenceBackend`]). The
    /// [`AssemblyStrategy`] has one variant and stays only for the API the
    /// step benchmark names.
    Reference(AssemblyStrategy),
    /// The parallel executor: one worker thread per simulated device with
    /// a decentralized, overlapped neighbor-to-neighbor halo exchange
    /// plus an inter-device link model ([`MultiDeviceBackend`]).
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

// ------------------------------------------------------- stream counts

/// State-array gather streams per shard of the modelled accelerator —
/// one per DDR-resident input array (5 conserved + T/p/E/μ + 3
/// coordinates + connectivity, matching `fem_accel`'s roofline
/// accounting).
///
/// This counts the accelerator's arrays, per-node μ (`mu_fluid`)
/// included, not the host gather: the host reads μ from the gas model
/// and gathers seven node fields ([`crate::kernels::ElementWorkspace`]).
pub const GATHER_STREAMS_PER_SHARD: usize = 12;

/// Residual scatter streams per shard (the 5 RHS arrays).
pub const SCATTER_STREAMS_PER_SHARD: usize = 5;

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
    let npe = geometry.nodes_per_element();
    let first = geometry.element(0).det_w(0).to_bits();
    let last = geometry.element(ne - 1).det_w(npe - 1).to_bits();
    (ne, first, last)
}

/// Attach-time validation: `Err` with `what` unless `ok`.
fn check_covers(ok: bool, what: &str) -> Result<(), SolverError> {
    if ok {
        Ok(())
    } else {
        Err(MeshError::InvalidParameter(what.to_string()).into())
    }
}

/// Clock the inter-device link model is normalized to: link seconds from
/// [`fpga_platform::pcie`] convert to cycles at the accelerator's
/// 300 MHz fabric clock, so compute and communication share a time base.
const LINK_CLOCK_HZ: f64 = 300.0e6;

/// DMA burst granularity of one posted halo buffer: each started chunk
/// pays the link round-trip latency once
/// ([`fpga_platform::pcie::chunked_transfer_seconds`]).
const LINK_CHUNK_BYTES: u64 = 64 * 1024;

/// Wire size of one halo record on the inter-device link.
const HALO_RECORD_BYTES: u64 = std::mem::size_of::<HaloContribution>() as u64;

/// Modelled timing of one device's halo-exchange step: the critical path
/// through the per-device frontier → interior → apply chains joined by
/// every directed neighbor link. A device's outbound transfers start the
/// moment its frontier sweep finishes and fly *while* the interior sweep
/// runs — so `exposed_cycles` is exactly the communication the overlap
/// failed to hide, and `makespan = frontier + interior + exposed +
/// apply`.
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
    /// Global ids of the rest of its elements, ascending.
    interior_elements: Vec<u32>,
    /// Double-banked per-neighbor send buffers, indexed by the position
    /// of the destination in the shard's sorted neighbor list; the bank
    /// parity flips every assembly, so a buffer still in flight at a
    /// receiver is never refilled.
    send: Vec<[Vec<HaloContribution>; 2]>,
    /// Contributions to frontier nodes this device itself owns (they
    /// never cross a link, but are applied with the received ones).
    pending: Vec<HaloContribution>,
    /// Buffered residuals of the frontier sweep (`npe` records per
    /// frontier element), replayed in the ascending-element interior walk
    /// so interior nodes accumulate in exact serial order.
    replay: Vec<[f64; NUM_VARS]>,
    measured: DevicePhaseSeconds,
}

/// The one sharded executor, and the only parallel assembly path: one
/// worker thread per simulated device with
/// a decentralized, overlapped halo exchange (see the module docs for the
/// protocol and the bitwise argument) plus a per-device link model,
/// computed once at attach and cached ([`DeviceExchangeReport`]).
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
    /// and models the inter-device links.
    ///
    /// # Errors
    ///
    /// [`SolverError::Mesh`] if `devices == 0` or `geometry` does not cover
    /// `mesh`.
    pub fn new(
        mesh: &HexMesh,
        geometry: &GeometryCache,
        devices: usize,
        strategy: PartitionStrategy,
    ) -> Result<MultiDeviceBackend, SolverError> {
        check_covers(
            geometry.num_elements() == mesh.num_elements(),
            "geometry cache does not cover the mesh",
        )?;
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
    /// [`SolverError::Mesh`] if the plan does not cover `mesh` (element or
    /// node count) or `geometry` does not cover the plan.
    pub fn with_plan(
        plan: Arc<ShardPlan>,
        mesh: &HexMesh,
        geometry: &GeometryCache,
    ) -> Result<MultiDeviceBackend, SolverError> {
        check_covers(
            plan.num_elements() == mesh.num_elements(),
            "shard plan does not cover the mesh",
        )?;
        // Element counts cannot tell e.g. a periodic box from a walled one
        // of the same size; the node count can.
        check_covers(
            plan.num_nodes() == mesh.num_nodes(),
            "shard plan node ownership does not cover the mesh",
        )?;
        check_covers(
            geometry.num_elements() == plan.num_elements(),
            "geometry cache does not cover the shard plan's mesh",
        )?;
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

        let npe = mesh.nodes_per_element() as u64;
        let reports = model_exchange(&plan, npe, &frontier_elements, &records);

        let devices = plan
            .shards()
            .iter()
            .zip(frontier_elements)
            .map(|(shard, fe)| DeviceState {
                index: shard.index(),
                interior_elements: shard
                    .elements()
                    .iter()
                    .copied()
                    .filter(|e| fe.binary_search(e).is_err())
                    .collect(),
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

    /// Per-device halo-exchange model, computed once at attach.
    pub fn exchange_reports(&self) -> &[DeviceExchangeReport] {
        &self.reports
    }

    /// Measured wall-clock seconds each device worker has spent per
    /// exchange phase, accumulated across assemblies.
    pub fn measured_device_phases(&self) -> Vec<DevicePhaseSeconds> {
        self.devices.iter().map(|d| d.measured).collect()
    }
}

/// The link model, computed once per plan. Per device `d`, the chain
/// `frontier_d → interior_d → apply_d` runs back to back, and every
/// inbound link `s → d` starts when `frontier_s` finishes and lasts
/// `L_sd` cycles (latency plus chunked bandwidth from
/// [`fpga_platform::pcie`]). The apply stage therefore starts at
/// `max(F_d + I_d, max_s(F_s + L_sd))`; its start minus the interior
/// finish is the exposed (non-overlapped) communication. Every stage
/// costs at least one cycle.
fn model_exchange(
    plan: &ShardPlan,
    npe: u64,
    frontier_elements: &[Vec<u32>],
    records: &[Vec<u64>],
) -> Vec<DeviceExchangeReport> {
    let link_cycles = |s: usize, d: usize| {
        let bytes = records[s][d] * HALO_RECORD_BYTES;
        let chunks = bytes.div_ceil(LINK_CHUNK_BYTES).max(1);
        let seconds = fpga_platform::pcie::chunked_transfer_seconds(bytes, chunks);
        (seconds * LINK_CLOCK_HZ).ceil() as u64
    };
    let frontier_cycles: Vec<u64> = frontier_elements
        .iter()
        .map(|fe| (fe.len() as u64 * npe).max(1))
        .collect();
    let nd = plan.num_shards();
    plan.shards()
        .iter()
        .map(|shard| {
            let d = shard.index();
            let interior_elements = shard.num_elements() - frontier_elements[d].len();
            let interior_cycles = (interior_elements as u64 * npe).max(1);
            let compute_done = frontier_cycles[d] + interior_cycles;
            // Neighbor lists are symmetric, so `d`'s neighbors are exactly
            // the senders of its inbound links.
            let mut exchange_cycles = 0;
            let mut apply_start = compute_done;
            for &s32 in shard.neighbors() {
                let s = s32 as usize;
                let cycles = link_cycles(s, d);
                exchange_cycles += cycles;
                apply_start = apply_start.max(frontier_cycles[s] + cycles);
            }
            // The owner applies one record per cycle: everything inbound
            // plus its own self-owned records.
            let sent: u64 = (0..nd).filter(|&t| t != d).map(|t| records[d][t]).sum();
            let applied: u64 = (0..nd).map(|s| records[s][d]).sum();
            let apply_cycles = applied.max(1);
            DeviceExchangeReport {
                device: d,
                neighbors: shard.neighbors().len(),
                frontier_elements: frontier_elements[d].len(),
                interior_elements,
                halo_records_sent: sent as usize,
                halo_bytes_sent: sent * HALO_RECORD_BYTES,
                halo_records_applied: applied as usize,
                frontier_cycles: frontier_cycles[d],
                interior_cycles,
                exchange_cycles,
                exposed_cycles: apply_start - compute_done,
                apply_cycles,
                makespan_cycles: apply_start + apply_cycles,
            }
        })
        .collect()
}

/// Frontier-sweep sink: buffers every residual for the interior replay
/// and routes frontier-node records to their owner — the send bank of
/// the owning neighbor, or `pending` when self-owned.
struct RouteFrontier<'a> {
    mesh: &'a HexMesh,
    frontier: &'a [bool],
    owner: &'a [u32],
    neighbors: &'a [u32],
    index: usize,
    parity: usize,
    replay: &'a mut Vec<[f64; NUM_VARS]>,
    pending: &'a mut Vec<HaloContribution>,
    send: &'a mut [[Vec<HaloContribution>; 2]],
}

impl ResidualSink for RouteFrontier<'_> {
    fn element(&mut self, e: usize, res: Residuals<'_>) {
        res.for_each_node(self.mesh.element_nodes(e), |n, vals| {
            self.replay.push(vals);
            if self.frontier[n as usize] {
                let o = self.owner[n as usize];
                let rec = HaloContribution {
                    node: n,
                    element: e as u32,
                    vals,
                };
                if o as usize == self.index {
                    self.pending.push(rec);
                } else {
                    let j = self
                        .neighbors
                        .binary_search(&o)
                        .expect("owner of a shared node is a neighbor");
                    self.send[j][self.parity].push(rec);
                }
            }
        });
    }
}

/// Interior-sweep sink: scatters interior elements straight into the
/// RHS and, before each, replays the buffered interior-node results of
/// the frontier elements below it — so the device's nodes accumulate in
/// its ascending-element walk.
struct ScatterInterior<'a> {
    mesh: &'a HexMesh,
    frontier: &'a [bool],
    frontier_elements: &'a [u32],
    replay: &'a [[f64; NUM_VARS]],
    /// Frontier elements replayed so far.
    replayed: usize,
    rhs: &'a SharedRhs,
}

impl ScatterInterior<'_> {
    /// Replays every not yet replayed frontier element below `limit`.
    fn replay_below(&mut self, limit: usize) {
        let npe = self.mesh.nodes_per_element();
        while let Some(&f) = self.frontier_elements.get(self.replayed) {
            if f as usize >= limit {
                break;
            }
            let records = &self.replay[self.replayed * npe..][..npe];
            for (&n, vals) in self.mesh.element_nodes(f as usize).iter().zip(records) {
                if !self.frontier[n as usize] {
                    // SAFETY: in-bounds node; an interior node is touched
                    // by this device alone, so no two threads alias.
                    unsafe { self.rhs.add_vals(n as usize, vals) };
                }
            }
            self.replayed += 1;
        }
    }
}

impl ResidualSink for ScatterInterior<'_> {
    fn element(&mut self, e: usize, res: Residuals<'_>) {
        self.replay_below(e);
        res.for_each_node(self.mesh.element_nodes(e), |n, vals| {
            // An interior element touches no frontier node.
            debug_assert!(!self.frontier[n as usize]);
            // SAFETY: as above — interior nodes never alias.
            unsafe { self.rhs.add_vals(n as usize, &vals) };
        });
    }
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
    parity: usize,
    profile: bool,
    agg: &Mutex<PhaseProfiler>,
) {
    let owner = plan.owners();
    let frontier = plan.frontier();
    let neighbors = shard.neighbors();
    let mut local = PhaseProfiler::new();
    // Per-device resolution: each worker materializes its own operators
    // (full-matrix) or none (factored) — no cross-device sharing needed.
    let kernel = KernelOps::resolve(ctx.kernel, ctx.basis);
    let eval = BatchEvaluator {
        mesh: ctx.mesh,
        basis: ctx.basis,
        gas: ctx.gas,
        geometry: ctx.geometry,
        conserved,
        prim,
        kernel: &kernel,
    };

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
    // frontier node, route frontier-node records to their owner and
    // *buffer* interior-node results for the replay below.
    let t0 = Instant::now();
    dev.replay.clear();
    // Both device sinks are called through `dyn`, so the device sweeps
    // share one instantiation of the batch kernels.
    let route: &mut dyn ResidualSink = &mut RouteFrontier {
        mesh: ctx.mesh,
        frontier,
        owner,
        neighbors,
        index: dev.index,
        parity,
        replay: &mut dev.replay,
        pending: &mut dev.pending,
        send: &mut dev.send,
    };
    eval.sweep(
        Elements::List(&dev.frontier_elements),
        profile.then_some(&mut local),
        route,
    );
    dev.measured.frontier_s += t0.elapsed().as_secs_f64();

    // Post one buffer to every neighbor — empty ones included, so every
    // receiver can detect completion by counting posts.
    for (j, &nb) in neighbors.iter().enumerate() {
        let buf = std::mem::take(&mut dev.send[j][parity]);
        boxes[nb as usize].mailbox.post(dev.index as u32, buf);
    }

    // Phase 2 — interior sweep, overlapped with the posts in flight:
    // interior elements evaluate fresh, and the sink interleaves the
    // frontier elements' buffered interior-node results so the shard's
    // elements scatter in ascending order. Interior nodes are touched by
    // this device alone, so the direct scatter is race-free and in serial
    // order.
    let t0 = Instant::now();
    let mut interior = ScatterInterior {
        mesh: ctx.mesh,
        frontier,
        frontier_elements: &dev.frontier_elements,
        replay: &dev.replay,
        replayed: 0,
        rhs,
    };
    eval.sweep(
        Elements::List(&dev.interior_elements),
        profile.then_some(&mut local),
        &mut interior as &mut dyn ResidualSink,
    );
    interior.replay_below(usize::MAX);
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

    fn as_multi_device(&self) -> Option<&MultiDeviceBackend> {
        Some(self)
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
                        dev, shard, plan, boxes, ctx, conserved, prim, rhs, parity, profile, agg,
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
                let mut sim = Simulation::builder(mesh, cfg.gas(), initial)
                    .backend(BackendSelect::MultiDevice { devices, strategy })
                    .build()
                    .unwrap();
                let md = sim.backend().as_multi_device().expect("multi-device");
                assert_eq!(md.plan().num_shards(), devices);
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
    fn reference_backend_is_the_serial_loop() {
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let serial = ReferenceBackend::new(AssemblyStrategy::Serial, &mesh);
        assert_eq!(serial.name(), "reference(serial)");
        assert!(serial.as_multi_device().is_none());
    }

    /// A backend implementing only the two required methods.
    #[derive(Debug)]
    struct MinimalBackend(ReferenceBackend);

    impl ExecutionBackend for MinimalBackend {
        fn name(&self) -> String {
            "minimal".to_string()
        }

        fn assemble_rhs(
            &mut self,
            ctx: &AssemblyContext<'_>,
            conserved: &Conserved,
            prim: &Primitives,
            out: &mut Conserved,
            profiler: Option<&mut PhaseProfiler>,
        ) {
            self.0.assemble_rhs(ctx, conserved, prim, out, profiler);
        }
    }

    #[test]
    fn name_and_assemble_rhs_are_a_sufficient_backend() {
        let cfg = TgvConfig::standard();
        let mesh = BoxMeshBuilder::tgv_box(5).build().unwrap();
        let initial = cfg.initial_state(&mesh);
        let mut reference = Simulation::new(mesh.clone(), cfg.gas(), initial.clone()).unwrap();
        let dt = reference.suggest_dt(0.4);
        reference.advance(3, dt).unwrap();

        let mut sim = Simulation::builder(mesh, cfg.gas(), initial)
            .custom_backend(Box::new(MinimalBackend(ReferenceBackend)))
            .build()
            .unwrap();
        assert_eq!(sim.backend().name(), "minimal");
        assert!(sim.backend().as_multi_device().is_none());
        sim.advance(3, dt).unwrap();
        assert_eq!(bits(sim.conserved()), bits(reference.conserved()));
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
    fn multidevice_trajectory_is_bitwise_identical_per_registry_scenario() {
        // The sharded executor's guarantee: the decentralized overlapped
        // exchange stays bitwise identical to the serial reference on
        // every registry scenario, at every device count up to one
        // element per device, under both partition strategies.
        for scenario in Scenario::registry() {
            let mut reference = scenario.builder(4, 1).unwrap().build().unwrap();
            let dt = reference.suggest_dt(0.3);
            reference.advance(2, dt).unwrap();
            for strategy in [
                PartitionStrategy::Contiguous,
                PartitionStrategy::Partitioned,
            ] {
                for devices in [1usize, 2, 3, 4, 5, 7, 8, 64] {
                    let mut sim = scenario
                        .builder(4, 1)
                        .unwrap()
                        .backend(BackendSelect::MultiDevice { devices, strategy })
                        .build()
                        .unwrap();
                    let md = sim.backend().as_multi_device().expect("multi-device");
                    let elements = sim.core().mesh().num_elements();
                    assert_eq!(md.plan().num_shards(), devices.min(elements));
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
        let mut sim = Simulation::builder(mesh, cfg.gas(), initial)
            .backend(BackendSelect::MultiDevice {
                devices: 4,
                strategy: PartitionStrategy::Contiguous,
            })
            .build()
            .unwrap();
        assert_eq!(sim.backend().name(), "multidevice(4, contiguous)");

        let md = sim.backend().as_multi_device().expect("multi-device");
        let reports = md.exchange_reports();
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
            // The apply stage starts once interior compute finished and
            // the exposed part of the exchange landed.
            assert_eq!(
                r.makespan_cycles,
                r.frontier_cycles + r.interior_cycles + r.exposed_cycles + r.apply_cycles,
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
        assert!(md
            .measured_device_phases()
            .iter()
            .all(|m| m.frontier_s == 0.0 && m.interior_s == 0.0));
        let dt = sim.suggest_dt(0.4);
        sim.advance(2, dt).unwrap();
        let md = sim.backend().as_multi_device().expect("multi-device");
        let measured = md.measured_device_phases();
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
    fn exchange_model_matches_the_link_des_it_replaced() {
        // Golden reports of the discrete-event link simulation the closed
        // form replaced, on the TGV at edge 6 and p = 1. Columns: device,
        // neighbors, frontier and interior elements, records sent, bytes
        // sent, records applied, then frontier, interior, exchange,
        // exposed, apply and makespan cycles.
        let report = |r: &[u64; 13]| DeviceExchangeReport {
            device: r[0] as usize,
            neighbors: r[1] as usize,
            frontier_elements: r[2] as usize,
            interior_elements: r[3] as usize,
            halo_records_sent: r[4] as usize,
            halo_bytes_sent: r[5],
            halo_records_applied: r[6] as usize,
            frontier_cycles: r[7],
            interior_cycles: r[8],
            exchange_cycles: r[9],
            exposed_cycles: r[10],
            apply_cycles: r[11],
            makespan_cycles: r[12],
        };
        let cases: [(usize, PartitionStrategy, &[[u64; 13]]); 2] = [
            (
                4,
                PartitionStrategy::Contiguous,
                &[
                    [0, 2, 54, 0, 0, 0, 672, 432, 1, 9404, 4730, 672, 5835],
                    [1, 2, 54, 0, 192, 9216, 288, 432, 1, 9173, 4672, 288, 5393],
                    [2, 2, 54, 0, 144, 6912, 384, 432, 1, 9231, 4730, 384, 5547],
                    [3, 2, 54, 0, 336, 16128, 0, 432, 1, 9000, 4499, 1, 4933],
                ],
            ),
            (
                3,
                PartitionStrategy::Partitioned,
                &[
                    [0, 2, 72, 0, 0, 0, 576, 576, 1, 9346, 4672, 576, 5825],
                    [1, 2, 72, 0, 144, 6912, 288, 576, 1, 9173, 4672, 288, 5537],
                    [2, 2, 72, 0, 288, 13824, 0, 576, 1, 9000, 4499, 1, 5077],
                ],
            ),
        ];
        let mesh = BoxMeshBuilder::tgv_box(6).build().unwrap();
        let basis = HexBasis::new(1).unwrap();
        let geometry = GeometryCache::build(&mesh, &basis).unwrap();
        for (devices, strategy, rows) in cases {
            let backend = MultiDeviceBackend::new(&mesh, &geometry, devices, strategy).unwrap();
            let golden: Vec<_> = rows.iter().map(report).collect();
            assert_eq!(backend.exchange_reports(), golden, "{devices} {strategy}");
        }
    }

    #[test]
    fn attaching_a_plan_that_does_not_cover_the_mesh_is_an_error() {
        // A periodic and a walled 4³ box have the same element count but
        // 64 vs 125 nodes: the attach must refuse the periodic plan on the
        // walled mesh rather than panic on the first assembly.
        let periodic = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let walled = BoxMeshBuilder::tgv_box(4)
            .periodic(false, false, false)
            .build()
            .unwrap();
        assert_eq!(periodic.num_elements(), walled.num_elements());
        assert_eq!((periodic.num_nodes(), walled.num_nodes()), (64, 125));
        let basis = HexBasis::new(1).unwrap();
        let geometry = GeometryCache::build(&walled, &basis).unwrap();
        let plan =
            ShardPlan::with_strategy(&periodic, 2, usize::MAX, PartitionStrategy::Contiguous);
        let attach = MultiDeviceBackend::with_plan(Arc::new(plan.unwrap()), &walled, &geometry);
        assert!(matches!(
            attach,
            Err(SolverError::Mesh(MeshError::InvalidParameter(_)))
        ));
        // A geometry cache of another element count is refused as well.
        let small = BoxMeshBuilder::tgv_box(3).build().unwrap();
        let small_geometry = GeometryCache::build(&small, &basis).unwrap();
        let strategy = PartitionStrategy::Partitioned;
        assert!(MultiDeviceBackend::new(&walled, &small_geometry, 2, strategy).is_err());
    }

    #[test]
    fn multidevice_profiling_records_phases() {
        let cfg = TgvConfig::standard();
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let initial = cfg.initial_state(&mesh);
        let mut sim = Simulation::builder(mesh, cfg.gas(), initial)
            .backend(BackendSelect::MultiDevice {
                devices: 3,
                strategy: PartitionStrategy::Partitioned,
            })
            .build()
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
                let mut reference = scenario.builder(edge, 1).unwrap().build().unwrap();
                let mut sharded = scenario
                    .builder(edge, 1)
                    .unwrap()
                    .backend(BackendSelect::MultiDevice { devices, strategy })
                    .build()
                    .unwrap();
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

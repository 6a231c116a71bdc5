//! Shard-count sweep over the scenario registry: `repro sharding`.
//!
//! For every entry of the solver's scenario registry, every *effective*
//! count of the sweep (requested counts are clamped to the element count
//! and deduplicated, so no cell is reported twice under different
//! labels) and **both** [`fem_solver::engine::PartitionStrategy`]
//! variants, the study runs one simulation under the
//! [`fem_solver::engine::MultiDeviceBackend`] — the solver's one sharded
//! executor — and reads two views off it:
//!
//! * the plan view ([`StrategyCell`] and per-shard [`ShardRow`]s): the
//!   [`fem_mesh::partition::ShardPlan`]'s per-shard DDR traffic (bytes
//!   in/out), owned/halo node split, the plan-level streamed-bytes load
//!   imbalance, the unique-halo fraction (`halo_fraction`, a true
//!   fraction in `0 ..= 1`) and the cross-shard reduction volume
//!   (`reduction_entries`, the per-sharing-shard record count that can
//!   exceed the node count); whether the trajectory is **bitwise
//!   identical** to the serial reference — the engine's shard
//!   determinism guarantee — and bitwise stable across the whole count
//!   sweep, per strategy; and the per-shard accelerator cycle emulation
//!   ([`fem_accel::emulation::emulate_plan`] at the compute II of the
//!   paper's design for the scenario mesh: DES makespan, observed II,
//!   bottleneck task II) plus the scenario's DDR roofline bound from
//!   [`fem_accel::experiments::scenario_workload`];
//! * the exchange view ([`OverlapCell`] and per-device
//!   [`DevicePhaseRow`]s): emulated frontier/interior/exchange/exposed
//!   cycles from the inter-device link model, measured wall-clock phase
//!   seconds from the device workers, the resulting overlap
//!   efficiencies, and a compute-bound vs comm-bound classification.
//!
//! Every clamp or skip is logged to stderr *and* recorded — a clamp in
//! the cell's `requested_*` fields, a skip in
//! [`ShardingStudy::skipped_device_sweeps`] — so nothing is silently
//! truncated.
//!
//! The `sharding_json_schema` test in `repro_json.rs` pins the JSON
//! shape — including the gate that the graph partitioner's halo fraction
//! never exceeds the contiguous one at ≥ 4 shards, that every overlap
//! cell stays bitwise, and that overlap efficiency is positive on ≥ 4
//! devices — and the CI `sharding` job regenerates and gates the
//! artifact on every push.

use crate::scenarios::max_rel_dev;
use fem_accel::designs::paper_design;
use fem_accel::emulation::emulate_plan;
use fem_accel::experiments::scenario_workload;
use fem_accel::perf::{compute_task, TaskPerf};
use fem_accel::workload::RklWorkload;
use fem_solver::engine::{BackendSelect, PartitionStrategy};
use fem_solver::scenarios::Scenario;
use fem_solver::{DevicePhaseSeconds, Simulation, SimulationBuilder};
use serde::Serialize;

/// Counts the study sweeps: the plan view's shard counts and the
/// exchange view's device counts alike.
pub const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Elements per axis of the sweep meshes.
pub const SHARDING_EDGE: usize = 6;

/// RK4 steps per (scenario, shard count) cell.
pub const SHARDING_STEPS: usize = 2;

/// One shard of one (scenario, shard count, strategy) cell.
#[derive(Debug, Clone, Serialize)]
pub struct ShardRow {
    /// Scenario identifier.
    pub scenario: String,
    /// Effective shard count of the plan this shard belongs to.
    pub shard_count: usize,
    /// Partition strategy of the plan ("contiguous" | "partitioned").
    pub strategy: String,
    /// Shard index within the plan.
    pub shard: usize,
    /// Elements the shard streams.
    pub elements: usize,
    /// Nodes the shard owns (accumulates during the reduction).
    pub owned_nodes: usize,
    /// Halo nodes the shard forwards to their owners.
    pub halo_nodes: usize,
    /// DDR bytes the shard reads per RK stage.
    pub bytes_in: u64,
    /// DDR bytes the shard writes per RK stage.
    pub bytes_out: u64,
    /// Emulated stage makespan of the shard (cycles).
    pub emulated_makespan_cycles: u64,
    /// Emulated steady-state initiation interval (cycles/element).
    pub emulated_ii: f64,
    /// II of the emulated bottleneck task.
    pub bottleneck_ii: u64,
}

/// One partition strategy's metrics for a (scenario, shard count) cell.
#[derive(Debug, Clone, Serialize)]
pub struct StrategyCell {
    /// Strategy identifier ("contiguous" | "partitioned").
    pub strategy: String,
    /// Largest per-shard streamed DDR traffic over the mean (1.0 =
    /// balanced) — weighted by what the DES actually schedules.
    pub load_imbalance: f64,
    /// Largest shard element count over the mean (1.0 = balanced).
    pub element_imbalance: f64,
    /// Unique halo (frontier) nodes over mesh nodes — a true fraction,
    /// always within `0 ..= 1`.
    pub halo_fraction: f64,
    /// Cross-shard reduction volume: shared-node records summed over
    /// shards. A node shared by k non-owner shards counts k times, so
    /// this can exceed the node count (the quantity the pre-fix
    /// `halo_fraction` mistakenly divided by `nodes`).
    pub reduction_entries: u64,
    /// Aggregate DDR bytes read per RK stage over all shards.
    pub total_bytes_in: u64,
    /// Aggregate DDR bytes written per RK stage over all shards.
    pub total_bytes_out: u64,
    /// Worst per-field relative deviation of the sharded trajectory from
    /// the serial reference (0 when bitwise identical).
    pub max_rel_dev_vs_reference: f64,
    /// Whether the sharded trajectory is bit-for-bit the reference one.
    pub bitwise_vs_reference: bool,
    /// Whether this cell's trajectory is bit-for-bit identical to the
    /// sweep's first shard count under the same strategy.
    pub bitwise_across_shard_counts: bool,
    /// Slowest emulated shard makespan (cycles) — the stage critical
    /// path of a shard-parallel device.
    pub max_shard_makespan_cycles: u64,
    /// Worst emulated per-shard II (cycles/element).
    pub emulated_ii_worst: f64,
}

/// Per-(scenario, shard count) verdict: both strategies side by side.
#[derive(Debug, Clone, Serialize)]
pub struct ShardingSummary {
    /// Scenario identifier.
    pub scenario: String,
    /// Effective shard count of this cell (`plan.num_shards()`).
    pub shard_count: usize,
    /// The shard count the sweep requested (can exceed `shard_count` on
    /// meshes with fewer elements; such duplicates are swept once).
    pub requested_shards: usize,
    /// Mesh elements.
    pub elements: usize,
    /// Mesh nodes.
    pub nodes: usize,
    /// The contiguous-range baseline.
    pub contiguous: StrategyCell,
    /// The halo-minimizing graph partition.
    pub partitioned: StrategyCell,
    /// The scenario's U200 DDR roofline bound (GFLOP/s) for context.
    pub ddr_bound_gflops: f64,
}

/// One device of one (scenario, device count, strategy) overlap cell —
/// straight out of [`fem_solver::engine::DeviceExchangeReport`].
#[derive(Debug, Clone, Serialize)]
pub struct DevicePhaseRow {
    /// Scenario identifier.
    pub scenario: String,
    /// Effective device count of the plan this device belongs to.
    pub device_count: usize,
    /// Partition strategy of the plan ("contiguous" | "partitioned").
    pub strategy: String,
    /// Device index within the plan.
    pub device: usize,
    /// Neighboring devices this one exchanges halos with.
    pub neighbors: usize,
    /// Elements touching a frontier node (assembled first, records
    /// posted to neighbor mailboxes before the interior sweep).
    pub frontier_elements: usize,
    /// Elements whose nodes the device owns outright (assembled while
    /// the halo exchange is in flight).
    pub interior_elements: usize,
    /// Halo records posted to other devices this step.
    pub halo_records_sent: usize,
    /// Bytes those records occupy on the inter-device links.
    pub halo_bytes_sent: u64,
    /// Emulated frontier-assembly latency (link-clock cycles).
    pub frontier_cycles: u64,
    /// Emulated interior-sweep latency (cycles) — the window that hides
    /// the exchange.
    pub interior_cycles: u64,
    /// Emulated inbound link occupancy (cycles): PCIe latency plus
    /// chunked bandwidth for every neighbor's halo buffer.
    pub exchange_cycles: u64,
    /// Exposed (non-overlapped) communication: cycles the frontier
    /// finalization stalls after the interior sweep has finished.
    pub exposed_cycles: u64,
    /// Emulated owner-apply latency (cycles).
    pub apply_cycles: u64,
    /// Emulated device makespan (cycles).
    pub makespan_cycles: u64,
}

/// Per-(scenario, device count, strategy) verdict of the MultiDevice
/// overlapped halo exchange.
#[derive(Debug, Clone, Serialize)]
pub struct OverlapCell {
    /// Scenario identifier.
    pub scenario: String,
    /// Effective device count (`plan.num_shards()`).
    pub device_count: usize,
    /// The device count the sweep requested for this cell.
    pub requested_devices: usize,
    /// Partition strategy ("contiguous" | "partitioned").
    pub strategy: String,
    /// Whether the multi-device trajectory is bit-for-bit the serial
    /// reference one — the backend's determinism guarantee.
    pub bitwise_vs_reference: bool,
    /// Worst per-field relative deviation vs the reference (0 when
    /// bitwise).
    pub max_rel_dev_vs_reference: f64,
    /// Σ frontier-assembly cycles over devices.
    pub frontier_cycles_total: u64,
    /// Σ interior-sweep cycles over devices.
    pub interior_cycles_total: u64,
    /// Σ inbound link cycles over devices.
    pub exchange_cycles_total: u64,
    /// Σ exposed (non-overlapped) communication cycles over devices.
    pub exposed_cycles_total: u64,
    /// Σ halo records crossing links.
    pub halo_records_total: usize,
    /// Slowest emulated device makespan (cycles).
    pub max_device_makespan_cycles: u64,
    /// Fraction of link traffic hidden behind the interior sweep in the
    /// DES: `1 − exposed/exchange` (1.0 when nothing crosses a link).
    pub emulated_overlap_efficiency: f64,
    /// Measured wall-clock seconds the workers spent assembling
    /// frontier elements (summed over devices and RK stages).
    pub measured_frontier_s: f64,
    /// Measured seconds in the interior sweep — work done while halos
    /// were in flight.
    pub measured_interior_s: f64,
    /// Measured seconds blocked draining neighbor mailboxes after the
    /// interior sweep.
    pub measured_wait_s: f64,
    /// Measured seconds applying owned contributions in element order.
    pub measured_apply_s: f64,
    /// Measured overlap: `interior / (interior + wait)` (1.0 when both
    /// are zero).
    pub measured_overlap_efficiency: f64,
    /// "comm-bound" when exposed link cycles exceed the interior sweep
    /// that hides them, "compute-bound" otherwise.
    pub bound: String,
}

/// A requested device count the sweep did not run as its own cell —
/// recorded (and logged to stderr) so nothing is silently truncated.
#[derive(Debug, Clone, Serialize)]
pub struct SkippedDeviceSweep {
    /// Scenario identifier.
    pub scenario: String,
    /// The device count the sweep requested.
    pub requested_devices: usize,
    /// What the request clamps to on this mesh.
    pub effective_devices: usize,
    /// Why the cell was skipped.
    pub reason: String,
}

/// The full shard-count sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ShardingStudy {
    /// Elements per axis of every scenario mesh.
    pub edge: usize,
    /// RK steps per cell.
    pub steps: usize,
    /// Worker threads available to the shard scheduler.
    pub threads: usize,
    /// Memory system whose channels priced the DDR-traffic quotes and
    /// roofline bounds (`repro banking` sweeps the alternatives).
    pub memory_system: String,
    /// The requested shard counts.
    pub shard_counts: Vec<usize>,
    /// The requested device counts of the MultiDevice overlap sweep.
    pub device_counts: Vec<usize>,
    /// Per-shard rows (scenario-major, then shard count, then strategy,
    /// then shard).
    pub rows: Vec<ShardRow>,
    /// Per-(scenario, shard count) verdicts.
    pub summaries: Vec<ShardingSummary>,
    /// Per-device phase rows of the MultiDevice overlap sweep.
    pub overlap_rows: Vec<DevicePhaseRow>,
    /// Per-(scenario, device count, strategy) overlap verdicts.
    pub overlap_cells: Vec<OverlapCell>,
    /// Requested device counts that did not run as their own cell.
    pub skipped_device_sweeps: Vec<SkippedDeviceSweep>,
}

impl std::fmt::Display for ShardingStudy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Shard-count sweep ({}³-element meshes, {} steps, shards {:?}, {} threads, {} memory):",
            self.edge, self.steps, self.shard_counts, self.threads, self.memory_system
        )?;
        for s in &self.summaries {
            for cell in [&s.contiguous, &s.partitioned] {
                writeln!(
                    f,
                    "  {:>22} ×{:<3} {:<11} DDR-imbalance {:.3}  halo {:>5.1}%  red {:>5}  \
                     DDR {:>6.2} MB/stage  worst II {:>6.1}  {} vs serial, {} across counts",
                    s.scenario,
                    s.shard_count,
                    cell.strategy,
                    cell.load_imbalance,
                    100.0 * cell.halo_fraction,
                    cell.reduction_entries,
                    (cell.total_bytes_in + cell.total_bytes_out) as f64 / 1e6,
                    cell.emulated_ii_worst,
                    if cell.bitwise_vs_reference {
                        "bitwise"
                    } else {
                        "DIVERGED"
                    },
                    if cell.bitwise_across_shard_counts {
                        "bitwise"
                    } else {
                        "UNSTABLE"
                    },
                )?;
            }
        }
        writeln!(
            f,
            "  multi-device overlap (devices {:?}):",
            self.device_counts
        )?;
        for c in &self.overlap_cells {
            writeln!(
                f,
                "  {:>22} ×{:<3} {:<11} exch {:>8} cyc  exposed {:>8} cyc  \
                 eff {:>5.2} (measured {:>5.2})  {:<13} {} vs serial",
                c.scenario,
                c.device_count,
                c.strategy,
                c.exchange_cycles_total,
                c.exposed_cycles_total,
                c.emulated_overlap_efficiency,
                c.measured_overlap_efficiency,
                c.bound,
                if c.bitwise_vs_reference {
                    "bitwise"
                } else {
                    "DIVERGED"
                },
            )?;
        }
        for s in &self.skipped_device_sweeps {
            writeln!(
                f,
                "  skipped {:>22} @ {} devices: {}",
                s.scenario, s.requested_devices, s.reason
            )?;
        }
        writeln!(f, "  per-device detail:")?;
        writeln!(
            f,
            "  {:>22} {:>6} {:>11} {:>6} {:>5} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "scenario",
            "count",
            "strategy",
            "device",
            "nbrs",
            "frontier",
            "interior",
            "exchange",
            "exposed",
            "makespan"
        )?;
        for r in &self.overlap_rows {
            writeln!(
                f,
                "  {:>22} {:>6} {:>11} {:>6} {:>5} {:>8} {:>8} {:>8} {:>8} {:>8}",
                r.scenario,
                r.device_count,
                r.strategy,
                r.device,
                r.neighbors,
                r.frontier_elements,
                r.interior_elements,
                r.exchange_cycles,
                r.exposed_cycles,
                r.makespan_cycles,
            )?;
        }
        writeln!(f, "  per-shard detail:")?;
        writeln!(
            f,
            "  {:>22} {:>6} {:>11} {:>5} {:>6} {:>7} {:>6} {:>10} {:>8}",
            "scenario", "count", "strategy", "shard", "elems", "owned", "halo", "makespan", "II"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>22} {:>6} {:>11} {:>5} {:>6} {:>7} {:>6} {:>10} {:>8.1}",
                r.scenario,
                r.shard_count,
                r.strategy,
                r.shard,
                r.elements,
                r.owned_nodes,
                r.halo_nodes,
                r.emulated_makespan_cycles,
                r.emulated_ii,
            )?;
        }
        Ok(())
    }
}

/// Runs one (scenario, count, strategy) cell: a single simulation under
/// the [`fem_solver::engine::MultiDeviceBackend`] yields both the plan
/// view (appending per-shard rows quoted by [`emulate_plan`] at the
/// `compute` timing on the plan the backend ran) and the exchange view
/// (appending per-device phase rows). `first_bits` carries the strategy's first-swept-count
/// trajectory for the across-counts stability check.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    scenario: &Scenario,
    edge: usize,
    steps: usize,
    dt: f64,
    count: usize,
    requested: usize,
    strategy: PartitionStrategy,
    compute: &TaskPerf,
    reference: &Simulation,
    ref_bits: &[u64],
    first_bits: &mut Option<Vec<u64>>,
    rows: &mut Vec<ShardRow>,
    overlap_rows: &mut Vec<DevicePhaseRow>,
) -> (StrategyCell, OverlapCell) {
    let name = scenario.name();
    let select = BackendSelect::MultiDevice {
        devices: count,
        strategy,
    };
    let mut sim = scenario
        .builder(edge, 1)
        .and_then(|b| b.backend(select).build())
        .unwrap_or_else(|e| panic!("{name}: {select} build failed: {e}"));
    sim.advance(steps, dt)
        .unwrap_or_else(|e| panic!("{name}: multidevice({count}, {strategy}) run failed: {e}"));
    let bits = sim.conserved().to_bit_vec();
    let bitwise_vs_reference = bits == ref_bits;
    let bitwise_across_shard_counts = match &first_bits {
        Some(b) => **b == bits,
        None => {
            *first_bits = Some(bits.clone());
            true
        }
    };
    let dev = max_rel_dev(reference.conserved(), sim.conserved());

    // The plan view: the plan the backend ran on.
    let backend = sim
        .backend()
        .as_multi_device()
        .unwrap_or_else(|| panic!("{name}: multidevice backend not installed"));
    let plan = backend.plan();
    assert_eq!(plan.num_shards(), count, "{name}: effective count drifted");
    let reports = emulate_plan(plan, compute)
        .unwrap_or_else(|e| panic!("{name}: shard emulation failed: {e}"));
    for (shard, rep) in plan.shards().iter().zip(&reports) {
        rows.push(ShardRow {
            scenario: name.to_string(),
            shard_count: count,
            strategy: strategy.to_string(),
            shard: shard.index(),
            elements: shard.num_elements(),
            owned_nodes: shard.owned_nodes().len(),
            halo_nodes: shard.shared_nodes().len(),
            bytes_in: shard.bytes_in() as u64,
            bytes_out: shard.bytes_out() as u64,
            emulated_makespan_cycles: rep.makespan_cycles,
            emulated_ii: rep.observed_ii,
            bottleneck_ii: rep.bottleneck_ii,
        });
    }
    let strategy_cell = StrategyCell {
        strategy: strategy.to_string(),
        load_imbalance: plan.load_imbalance(),
        element_imbalance: plan.element_imbalance(),
        halo_fraction: plan.halo_fraction(),
        reduction_entries: plan.halo_entries() as u64,
        total_bytes_in: plan.total_bytes_in() as u64,
        total_bytes_out: plan.total_bytes_out() as u64,
        max_rel_dev_vs_reference: dev,
        bitwise_vs_reference,
        bitwise_across_shard_counts,
        max_shard_makespan_cycles: reports.iter().map(|r| r.makespan_cycles).max().unwrap_or(0),
        emulated_ii_worst: reports.iter().map(|r| r.observed_ii).fold(0.0, f64::max),
    };

    // The exchange view.
    let exchange = backend.exchange_reports();
    assert_eq!(exchange.len(), count, "{name}: exchange report count");
    let measured = backend.measured_device_phases();
    assert_eq!(measured.len(), count, "{name}: phase report count");
    for r in exchange {
        overlap_rows.push(DevicePhaseRow {
            scenario: name.to_string(),
            device_count: count,
            strategy: strategy.to_string(),
            device: r.device,
            neighbors: r.neighbors,
            frontier_elements: r.frontier_elements,
            interior_elements: r.interior_elements,
            halo_records_sent: r.halo_records_sent,
            halo_bytes_sent: r.halo_bytes_sent,
            frontier_cycles: r.frontier_cycles,
            interior_cycles: r.interior_cycles,
            exchange_cycles: r.exchange_cycles,
            exposed_cycles: r.exposed_cycles,
            apply_cycles: r.apply_cycles,
            makespan_cycles: r.makespan_cycles,
        });
    }
    let frontier_total: u64 = exchange.iter().map(|r| r.frontier_cycles).sum();
    let interior_total: u64 = exchange.iter().map(|r| r.interior_cycles).sum();
    let exchange_total: u64 = exchange.iter().map(|r| r.exchange_cycles).sum();
    let exposed_total: u64 = exchange.iter().map(|r| r.exposed_cycles).sum();
    let emulated_overlap_efficiency = if exchange_total == 0 {
        1.0
    } else {
        1.0 - exposed_total as f64 / exchange_total as f64
    };
    let mut measured_total = DevicePhaseSeconds::default();
    for m in &measured {
        measured_total.frontier_s += m.frontier_s;
        measured_total.interior_s += m.interior_s;
        measured_total.wait_s += m.wait_s;
        measured_total.apply_s += m.apply_s;
    }
    let bound = if exposed_total > interior_total {
        "comm-bound"
    } else {
        "compute-bound"
    };
    let overlap_cell = OverlapCell {
        scenario: name.to_string(),
        device_count: count,
        requested_devices: requested,
        strategy: strategy.to_string(),
        bitwise_vs_reference,
        max_rel_dev_vs_reference: dev,
        frontier_cycles_total: frontier_total,
        interior_cycles_total: interior_total,
        exchange_cycles_total: exchange_total,
        exposed_cycles_total: exposed_total,
        halo_records_total: exchange.iter().map(|r| r.halo_records_sent).sum(),
        max_device_makespan_cycles: exchange
            .iter()
            .map(|r| r.makespan_cycles)
            .max()
            .unwrap_or(0),
        emulated_overlap_efficiency,
        measured_frontier_s: measured_total.frontier_s,
        measured_interior_s: measured_total.interior_s,
        measured_wait_s: measured_total.wait_s,
        measured_apply_s: measured_total.apply_s,
        measured_overlap_efficiency: measured_total.overlap_efficiency(),
        bound: bound.to_string(),
    };
    (strategy_cell, overlap_cell)
}

/// Runs the sweep: every registered scenario × every effective count of
/// `shard_counts` × both partition strategies, `steps` RK4 steps each, on
/// `edge`³-element meshes.
///
/// # Panics
///
/// Panics if a scenario fails to build or a step blows up (a broken
/// registry the caller cannot recover from).
pub fn run_sharding_study(edge: usize, steps: usize, shard_counts: &[usize]) -> ShardingStudy {
    assert!(steps > 0, "steps");
    assert!(!shard_counts.is_empty(), "shard counts");
    let threads = fem_solver::parallel::available_threads();
    let mut rows = Vec::new();
    let mut summaries = Vec::new();
    let mut overlap_rows = Vec::new();
    let mut overlap_cells = Vec::new();
    let mut skipped_device_sweeps = Vec::new();
    for scenario in Scenario::registry() {
        let name = scenario.name();
        let mut reference = scenario
            .builder(edge, 1)
            .and_then(SimulationBuilder::build)
            .unwrap_or_else(|e| panic!("{name}: build failed: {e}"));
        let dt = reference.suggest_dt(scenario.default_cfl());
        reference
            .advance(steps, dt)
            .unwrap_or_else(|e| panic!("{name}: serial run failed: {e}"));
        let ref_bits = reference.conserved().to_bit_vec();
        let mesh_elements = reference.core().mesh().num_elements();
        let mesh_nodes = reference.core().mesh().num_nodes();
        let workload = scenario_workload(name, reference.core().mesh());
        let compute = compute_task(&paper_design(&RklWorkload::from_mesh(
            reference.core().mesh(),
        )))
        .unwrap_or_else(|e| panic!("{name}: scheduling the paper's design failed: {e}"));

        let mut first_contiguous: Option<Vec<u64>> = None;
        let mut first_partitioned: Option<Vec<u64>> = None;
        let mut seen_counts: Vec<usize> = Vec::new();
        for &requested in shard_counts {
            // The plan clamps the count to the element count; label the
            // cell with the effective value and sweep each effective
            // count once — but never silently: every request that does
            // not run as its own cell is logged to stderr and recorded in
            // the study (stdout carries the JSON artifact, so the log
            // must not go there).
            let count = requested.min(mesh_elements).max(1);
            if seen_counts.contains(&count) {
                let reason = if count < requested {
                    format!(
                        "the {mesh_elements}-element mesh clamps {requested} devices \
                         to {count}, a count already swept"
                    )
                } else {
                    format!("effective device count {count} already swept")
                };
                eprintln!("sharding: {name}: skipping {requested}-device cell — {reason}");
                skipped_device_sweeps.push(SkippedDeviceSweep {
                    scenario: name.to_string(),
                    requested_devices: requested,
                    effective_devices: count,
                    reason,
                });
                continue;
            }
            seen_counts.push(count);
            if count < requested {
                eprintln!(
                    "sharding: {name}: clamping {requested} devices to {count} \
                     ({mesh_elements}-element mesh)"
                );
            }
            let (contiguous, overlap) = run_cell(
                &scenario,
                edge,
                steps,
                dt,
                count,
                requested,
                PartitionStrategy::Contiguous,
                &compute,
                &reference,
                &ref_bits,
                &mut first_contiguous,
                &mut rows,
                &mut overlap_rows,
            );
            overlap_cells.push(overlap);
            let (partitioned, overlap) = run_cell(
                &scenario,
                edge,
                steps,
                dt,
                count,
                requested,
                PartitionStrategy::Partitioned,
                &compute,
                &reference,
                &ref_bits,
                &mut first_partitioned,
                &mut rows,
                &mut overlap_rows,
            );
            overlap_cells.push(overlap);
            summaries.push(ShardingSummary {
                scenario: name.to_string(),
                shard_count: count,
                requested_shards: requested,
                elements: mesh_elements,
                nodes: mesh_nodes,
                contiguous,
                partitioned,
                ddr_bound_gflops: workload.ddr_bound_gflops,
            });
        }
    }
    ShardingStudy {
        edge,
        steps,
        threads,
        memory_system: fpga_platform::u200::U200::new()
            .memory_system()
            .name()
            .to_string(),
        shard_counts: shard_counts.to_vec(),
        device_counts: shard_counts.to_vec(),
        rows,
        summaries,
        overlap_rows,
        overlap_cells,
        skipped_device_sweeps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_registry_stays_bitwise_and_dedups() {
        // 4³ = 64 elements: 100 clamps to 64, and the second 64 request
        // is a duplicate the sweep must drop.
        let study = run_sharding_study(4, 1, &[1, 3, 100, 64]);
        assert_eq!(study.summaries.len(), 4 * 3, "dedup failed");
        for s in &study.summaries {
            assert!(matches!(s.shard_count, 1 | 3 | 64), "{}", s.shard_count);
            assert!(s.requested_shards >= s.shard_count);
            for cell in [&s.contiguous, &s.partitioned] {
                assert!(
                    cell.bitwise_vs_reference,
                    "{} ×{} {}",
                    s.scenario, s.shard_count, cell.strategy
                );
                assert!(
                    cell.bitwise_across_shard_counts,
                    "{} ×{} {}",
                    s.scenario, s.shard_count, cell.strategy
                );
                assert_eq!(cell.max_rel_dev_vs_reference, 0.0);
                assert!(cell.load_imbalance >= 1.0);
                assert!(cell.element_imbalance >= 1.0);
                assert!((0.0..=1.0).contains(&cell.halo_fraction));
                let cell_rows: Vec<&ShardRow> = study
                    .rows
                    .iter()
                    .filter(|r| {
                        r.scenario == s.scenario
                            && r.shard_count == s.shard_count
                            && r.strategy == cell.strategy
                    })
                    .collect();
                assert_eq!(cell_rows.len(), s.shard_count);
                let covered: usize = cell_rows.iter().map(|r| r.elements).sum();
                assert_eq!(covered, s.elements, "{}: shards drop elements", s.scenario);
                let owned: usize = cell_rows.iter().map(|r| r.owned_nodes).sum();
                assert_eq!(owned, s.nodes, "{}: owned sets incomplete", s.scenario);
                let entries: usize = cell_rows.iter().map(|r| r.halo_nodes).sum();
                assert_eq!(entries as u64, cell.reduction_entries);
                for r in &cell_rows {
                    assert!(r.emulated_makespan_cycles > 0);
                    assert!(r.emulated_ii > 0.0);
                }
            }
            // The tentpole gate: the graph partition never produces a
            // larger halo than the contiguous baseline.
            assert!(
                s.partitioned.halo_fraction <= s.contiguous.halo_fraction,
                "{} ×{}: partitioned {} > contiguous {}",
                s.scenario,
                s.shard_count,
                s.partitioned.halo_fraction,
                s.contiguous.halo_fraction
            );
            assert!(s.ddr_bound_gflops > 0.0);
        }
        // Single-shard cells carry no halo.
        for s in study.summaries.iter().filter(|s| s.shard_count == 1) {
            assert_eq!(s.contiguous.halo_fraction, 0.0, "{}", s.scenario);
            assert_eq!(s.partitioned.halo_fraction, 0.0, "{}", s.scenario);
            assert_eq!(s.contiguous.reduction_entries, 0);
        }
        // The MultiDevice overlap sweep covers the same effective
        // counts × both strategies and stays bitwise everywhere.
        assert_eq!(study.overlap_cells.len(), 4 * 3 * 2, "overlap dedup");
        for c in &study.overlap_cells {
            assert!(matches!(c.device_count, 1 | 3 | 64), "{}", c.device_count);
            assert!(c.requested_devices >= c.device_count);
            assert!(
                c.bitwise_vs_reference,
                "{} ×{} {}",
                c.scenario, c.device_count, c.strategy
            );
            assert_eq!(c.max_rel_dev_vs_reference, 0.0);
            assert!((0.0..=1.0).contains(&c.emulated_overlap_efficiency));
            assert!((0.0..=1.0).contains(&c.measured_overlap_efficiency));
            assert!(c.measured_frontier_s >= 0.0 && c.measured_apply_s >= 0.0);
            assert!(
                c.bound == "comm-bound" || c.bound == "compute-bound",
                "{}",
                c.bound
            );
            assert_eq!(
                c.bound == "comm-bound",
                c.exposed_cycles_total > c.interior_cycles_total,
                "{} ×{} {}: bound label inconsistent",
                c.scenario,
                c.device_count,
                c.strategy
            );
            let cell_rows: Vec<&DevicePhaseRow> = study
                .overlap_rows
                .iter()
                .filter(|r| {
                    r.scenario == c.scenario
                        && r.device_count == c.device_count
                        && r.strategy == c.strategy
                })
                .collect();
            assert_eq!(cell_rows.len(), c.device_count);
            let covered: usize = cell_rows
                .iter()
                .map(|r| r.frontier_elements + r.interior_elements)
                .sum();
            assert_eq!(covered, 64, "{}: devices drop elements", c.scenario);
            for r in &cell_rows {
                assert_eq!(r.halo_bytes_sent, 48 * r.halo_records_sent as u64);
                assert!(r.makespan_cycles >= r.exposed_cycles);
            }
            if c.device_count == 1 {
                // A solo device exchanges nothing: fully compute-bound.
                assert_eq!(c.exchange_cycles_total, 0, "{}", c.scenario);
                assert_eq!(c.exposed_cycles_total, 0);
                assert_eq!(c.halo_records_total, 0);
                assert_eq!(c.emulated_overlap_efficiency, 1.0);
                assert_eq!(c.bound, "compute-bound");
            } else {
                // Multi-device cells cross links, and the interior
                // sweep hides part of the traffic.
                assert!(c.exchange_cycles_total > 0, "{}", c.scenario);
                assert!(c.exposed_cycles_total > 0, "{}", c.scenario);
                assert!(
                    c.emulated_overlap_efficiency > 0.0,
                    "{} ×{} {}: no overlap",
                    c.scenario,
                    c.device_count,
                    c.strategy
                );
            }
        }
        // 100 clamps to 64 and *runs* (recorded via the cell's
        // requested_devices field); the later literal-64 request then
        // duplicates it and must be skipped — and recorded, per
        // scenario, not dropped.
        assert_eq!(study.skipped_device_sweeps.len(), 4, "skip log");
        for s in &study.skipped_device_sweeps {
            assert_eq!(s.requested_devices, 64, "{s:?}");
            assert_eq!(s.effective_devices, 64);
            assert!(!s.reason.is_empty());
        }
        assert!(study
            .overlap_cells
            .iter()
            .any(|c| c.requested_devices == 100 && c.device_count == 64));
        // The study records which memory system priced its DDR quotes.
        assert_eq!(study.memory_system, "u200-ddr4");
        // JSON serializes (the repro --json path) and Display renders.
        let json = serde_json::to_string(&study).unwrap();
        assert!(json.contains("\"memory_system\""));
        assert!(json.contains("\"summaries\""));
        assert!(json.contains("\"reduction_entries\""));
        assert!(json.contains("\"overlap_cells\""));
        assert!(json.contains("\"emulated_overlap_efficiency\""));
        assert!(json.contains("\"skipped_device_sweeps\""));
        let shown = format!("{study}");
        assert!(shown.contains("acoustic-pulse"), "{shown}");
        assert!(shown.contains("partitioned"), "{shown}");
        assert!(shown.contains("multi-device overlap"), "{shown}");
        assert!(shown.contains("skipped"), "{shown}");
    }
}

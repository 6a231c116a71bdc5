//! Plan-level accelerator emulation: the solver's shard decomposition
//! mapped onto the dataflow hardware and its memory system.
//!
//! The solver ([`fem_solver::engine`]) decides *what* each shard
//! computes; this module prices *how long* the accelerator takes to
//! stream it. Both models are plain functions of a
//! [`fem_mesh::partition::ShardPlan`]:
//!
//! * [`emulate_plan`] routes every shard through the Load → Compute →
//!   Store DES of [`hls_dataflow::sim`] ([`ShardCycleReport`]);
//! * [`emulate_plan_banked`] routes the same plan's memory streams
//!   ([`shard_streams`], sized from the plan alone) through a banked
//!   memory system ([`fpga_platform::MemorySystem`]) with per-bank port
//!   arbitration ([`BankedEmulation`]).
//!
//! Both build their networks with [`crate::perf::region_network`], the
//! constructor [`crate::perf::estimate_performance`] uses, and run the
//! compute task at the HLS design's timing: a [`TaskPerf`] from
//! [`crate::perf::compute_task`], usually of
//! [`crate::designs::paper_design`]. Loads and stores move one
//! [`AXI_DATA_WIDTH_BITS`]-wide beat per cycle.

use crate::perf::{region_network, Region, Stage, TaskPerf};
use fem_mesh::geometry::GeometryCache;
use fem_mesh::partition::ShardPlan;
use fem_solver::engine::{GATHER_STREAMS_PER_SHARD, SCATTER_STREAMS_PER_SHARD};
use fpga_platform::axi::AXI_DATA_WIDTH_BITS;
use fpga_platform::MemoryStream;
use hls_dataflow::sim::simulate;

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
    /// Compute-task II: the design's
    /// [`TaskPerf::effective_cycles_per_element`].
    pub compute_ii: u64,
    /// Store-task II implied by the shard's residual write-back traffic.
    pub store_ii: u64,
}

// --------------------------------------------------- per-shard emulation

/// AXI beats a memory task issues per element to move `bytes`.
fn beats(bytes: u64) -> u64 {
    bytes.div_ceil(u64::from(AXI_DATA_WIDTH_BITS / 8)).max(1)
}

/// Latency a load adds on top of its II (cycles).
const LOAD_LATENCY: u64 = 16;

/// Latency a store adds on top of its II (cycles).
const STORE_LATENCY: u64 = 8;

/// A load moving `beats_per_token` beats per element.
fn load_stage(name: impl Into<String>, beats_per_token: u64) -> Stage {
    Stage::new(name, beats_per_token, beats_per_token + LOAD_LATENCY)
}

/// A store moving `beats_per_token` beats per element.
fn store_stage(name: impl Into<String>, beats_per_token: u64) -> Stage {
    Stage::new(name, beats_per_token, beats_per_token + STORE_LATENCY)
}

/// Routes one shard's element stream through the 3-task pipeline DES.
fn emulate_shard(
    shard: &fem_mesh::partition::Shard,
    compute: &TaskPerf,
) -> Result<ShardCycleReport, hls_dataflow::DataflowError> {
    let elements = shard.num_elements() as u64;
    let bytes_in_pe = (shard.bytes_in() as u64).div_ceil(elements.max(1));
    let bytes_out_pe = (shard.bytes_out() as u64).div_ceil(elements.max(1));
    let load = load_stage("load_element", beats(bytes_in_pe));
    let compute = compute.stage();
    let store = store_stage("store_contrib", beats(bytes_out_pe));
    let (load_ii, compute_ii, store_ii) = (load.ii, compute.ii, store.ii);
    let net = region_network(&[Region {
        tokens: elements,
        loads: vec![load],
        compute: vec![compute],
        stores: vec![store],
    }])?;
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
/// dataflow network, with load and store sized from the shard's DDR
/// traffic and the `compute` task's timing. The reports are
/// index-aligned with `plan.shards()`.
///
/// # Errors
///
/// [`hls_dataflow::DataflowError`] if a shard network fails to validate
/// or simulate (cannot happen for the generated 3-task chains, but
/// surfaced rather than panicking).
pub fn emulate_plan(
    plan: &ShardPlan,
    compute: &TaskPerf,
) -> Result<Vec<ShardCycleReport>, hls_dataflow::DataflowError> {
    plan.shards()
        .iter()
        .map(|shard| emulate_shard(shard, compute))
        .collect()
}

// ------------------------------------------------------ banked emulation

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
/// [`GeometryCache::BYTES_PER_ELEMENT_NODE`] bytes per element node
/// ([`ShardPlan::nodes_per_element`]) and is typically the heaviest
/// stream — the one worth a private bank.
pub fn shard_streams(plan: &ShardPlan) -> Vec<MemoryStream> {
    let geom_bytes_pe = (plan.nodes_per_element() * GeometryCache::BYTES_PER_ELEMENT_NODE) as u64;
    let mut out = Vec::with_capacity(plan.num_shards() * STREAMS_PER_SHARD);
    for shard in plan.shards() {
        let g = shard.index();
        let elements = shard.num_elements() as u64;
        let bytes_in_pe = (shard.bytes_in() as u64).div_ceil(elements.max(1));
        let bytes_out_pe = (shard.bytes_out() as u64).div_ceil(elements.max(1));
        let gather_pe = bytes_in_pe.div_ceil(GATHER_STREAMS_PER_SHARD as u64);
        let scatter_pe = bytes_out_pe.div_ceil(SCATTER_STREAMS_PER_SHARD as u64);
        for i in 0..GATHER_STREAMS_PER_SHARD {
            out.push(MemoryStream {
                label: format!("s{g}:gather{i}"),
                group: g,
                beats_per_token: beats(gather_pe),
                tokens: elements,
                resident_bytes: (shard.bytes_in() as u64).div_ceil(GATHER_STREAMS_PER_SHARD as u64),
            });
        }
        out.push(MemoryStream {
            label: format!("s{g}:geometry"),
            group: g,
            beats_per_token: beats(geom_bytes_pe),
            tokens: elements,
            resident_bytes: elements * geom_bytes_pe,
        });
        for j in 0..SCATTER_STREAMS_PER_SHARD {
            out.push(MemoryStream {
                label: format!("s{g}:scatter{j}"),
                group: g,
                beats_per_token: beats(scatter_pe),
                tokens: elements,
                resident_bytes: (shard.bytes_out() as u64)
                    .div_ceil(SCATTER_STREAMS_PER_SHARD as u64),
            });
        }
    }
    out
}

/// Per-shard bank-independent makespan floors for
/// [`fpga_platform::memory::modeled_makespan_cycles`]: the `compute`
/// task starts one element per II, so shard `g` can never finish in
/// fewer than `elements · II` cycles no matter the bank layout.
pub fn shard_compute_floors(plan: &ShardPlan, compute: &TaskPerf) -> Vec<u64> {
    plan.shards()
        .iter()
        .map(|s| s.num_elements() as u64 * compute.effective_cycles_per_element)
        .collect()
}

/// The outcome of routing a plan's streams through a banked memory
/// system.
#[derive(Debug, Clone, PartialEq)]
pub struct BankedEmulation {
    /// Memory-system identifier (`u200-ddr4`, `u280-hbm2`).
    pub system: String,
    /// Banks in the system.
    pub banks: usize,
    /// Banks carrying at least one stream.
    pub banks_used: usize,
    /// DES makespan of the slowest shard pipeline, in cycles.
    pub makespan_cycles: u64,
    /// Per-bank port occupancy/stall counters.
    pub bank_stats: Vec<hls_dataflow::BankStats>,
}

/// Runs the banked dataflow emulation of a whole plan.
///
/// Each shard becomes one pipeline whose [`STREAMS_PER_SHARD`]
/// [`shard_streams`] are banked endpoints (gather and geometry
/// producers feeding the `compute` task, scatter tasks draining it), in
/// a single network whose banked channels share ports per the
/// [`hls_dataflow`] conflict rule; `assignment` places the streams on
/// `system`'s banks.
///
/// # Errors
///
/// [`hls_dataflow::DataflowError`] if the network fails to validate or
/// simulate.
///
/// # Panics
///
/// Panics if `assignment` does not give every stream of the plan a bank.
pub fn emulate_plan_banked(
    plan: &ShardPlan,
    compute: &TaskPerf,
    system: &fpga_platform::MemorySystem,
    assignment: &fpga_platform::BankAssignment,
) -> Result<BankedEmulation, hls_dataflow::DataflowError> {
    let streams = shard_streams(plan);
    assert_eq!(
        assignment.bank_of.len(),
        streams.len(),
        "assignment must cover every stream of the plan"
    );
    let mut streams = streams.iter().zip(&assignment.bank_of);
    let mut banked = |n: usize, stage: fn(String, u64) -> Stage| -> Vec<Stage> {
        streams
            .by_ref()
            .take(n)
            .map(|(s, &bank)| Stage {
                bank: Some(bank),
                ..stage(s.label.clone(), s.beats_per_token)
            })
            .collect()
    };
    let regions: Vec<Region> = plan
        .shards()
        .iter()
        .map(|shard| Region {
            tokens: shard.num_elements() as u64,
            // The gathers and the geometry slice feed the compute task.
            loads: banked(GATHER_STREAMS_PER_SHARD + 1, load_stage),
            compute: vec![compute.stage()],
            stores: banked(SCATTER_STREAMS_PER_SHARD, store_stage),
        })
        .collect();
    let net = region_network(&regions)?;
    let report = simulate(&net)?;
    Ok(BankedEmulation {
        system: system.name().to_string(),
        banks: system.num_banks(),
        banks_used: assignment.banks_used(),
        makespan_cycles: report.makespan,
        bank_stats: report.bank_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::paper_design;
    use crate::perf::{compute_task, task_perfs};
    use crate::workload::RklWorkload;
    use fem_mesh::generator::BoxMeshBuilder;
    use fem_mesh::partition::PartitionStrategy;
    use fem_mesh::HexMesh;
    use fpga_platform::{BankAssignment, MemorySystem};

    /// The compute task of the paper's design for `mesh`.
    fn paper_compute(mesh: &HexMesh) -> TaskPerf {
        compute_task(&paper_design(&RklWorkload::from_mesh(mesh))).unwrap()
    }

    #[test]
    fn emulate_plan_quotes_every_shard() {
        let mesh = BoxMeshBuilder::tgv_box(5).build().unwrap();
        let plan =
            ShardPlan::with_strategy(&mesh, 4, usize::MAX, PartitionStrategy::Contiguous).unwrap();
        let reports = emulate_plan(&plan, &paper_compute(&mesh)).unwrap();
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
    fn emulation_compute_ii_is_the_hls_compute_ii() {
        // The emulation runs the compute task at the II the HLS schedule
        // of the paper's design gives it, at every polynomial order.
        for order in 1..=3 {
            let mesh = BoxMeshBuilder::tgv_box(3).order(order).build().unwrap();
            let tasks = task_perfs(&paper_design(&RklWorkload::from_mesh(&mesh))).unwrap();
            let [_load, hls_compute, _store] = tasks.as_slice() else {
                panic!("the paper's design is one load, one compute, one store: {tasks:?}")
            };
            let plan =
                ShardPlan::with_strategy(&mesh, 2, usize::MAX, PartitionStrategy::Contiguous)
                    .unwrap();
            let reports = emulate_plan(&plan, &paper_compute(&mesh)).unwrap();
            assert_eq!(reports.len(), 2);
            for r in &reports {
                assert_eq!(
                    r.compute_ii, hls_compute.effective_cycles_per_element,
                    "p = {order}: {r:?}"
                );
            }
        }
    }

    #[test]
    fn shard_streams_cover_the_plan_traffic() {
        let mesh = BoxMeshBuilder::tgv_box(6).build().unwrap();
        let plan =
            ShardPlan::with_strategy(&mesh, 4, usize::MAX, PartitionStrategy::Contiguous).unwrap();
        let streams = shard_streams(&plan);
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
        let compute = paper_compute(&mesh);
        let floors = shard_compute_floors(&plan, &compute);
        assert_eq!(floors.len(), 4);
        assert_eq!(
            floors.iter().sum::<u64>(),
            mesh.num_elements() as u64 * compute.effective_cycles_per_element
        );
    }

    #[test]
    fn banked_hbm_emulation_beats_round_robin_with_a_better_layout() {
        // On the 32-bank HBM model at 8 shards, round-robin co-locates
        // geometry slices with state streams; the greedy planner spreads
        // them and the DES makespan strictly improves.
        let mesh = BoxMeshBuilder::tgv_box(6).build().unwrap();
        let plan =
            ShardPlan::with_strategy(&mesh, 8, usize::MAX, PartitionStrategy::Contiguous).unwrap();
        let compute = paper_compute(&mesh);
        let hbm = MemorySystem::u280_hbm2();
        let streams = shard_streams(&plan);
        let rr = BankAssignment::round_robin(&streams, &hbm);
        let greedy = BankAssignment::greedy(&streams, &hbm);
        let r_rr = emulate_plan_banked(&plan, &compute, &hbm, &rr).unwrap();
        let r_gr = emulate_plan_banked(&plan, &compute, &hbm, &greedy).unwrap();
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
}

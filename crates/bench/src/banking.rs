//! Banked-memory frontier study over the scenario registry:
//! `repro banking`.
//!
//! For every entry of the solver's scenario registry, every *effective*
//! shard count of the sweep (clamped to the element count and
//! deduplicated like `repro sharding`), and every streaming batch size,
//! the study builds the halo-minimizing
//! [`fem_mesh::partition::ShardPlan`], decomposes it into per-shard
//! memory streams ([`fem_accel::emulation::shard_streams`]: 12 state
//! gathers, the geometry-cache slice, 5 RHS scatters per shard), and
//! routes the streams through two memory systems × three
//! bank-assignment policies:
//!
//! * systems — the U200's 4-channel DDR4 and the u280-style
//!   32-pseudo-channel HBM2 stack ([`fpga_platform::MemorySystem`]);
//! * policies — `round-robin` (what a shell linker does with no `--sp`
//!   flags), capacity-aware `greedy`, and the swap-refinement
//!   `optimized` assignment from
//!   [`fem_accel::optimizer::optimize_bank_assignment`].
//!
//! Each cell reports both the closed-form makespan bound
//! ([`fpga_platform::memory::modeled_makespan_cycles`]) and the DES
//! makespan from [`fem_accel::emulation::emulate_plan_banked`], plus
//! per-bank port occupancy and stall totals, next to the unbanked
//! per-shard quote of [`fem_accel::emulation::emulate_plan`]. Every
//! shard's compute task runs at the HLS compute II of the paper's
//! design for the scenario mesh ([`fem_accel::perf::compute_task`]).
//! One invariant is pinned here and re-gated by `banking_json_schema`
//! in `repro_json.rs` and the CI `banking` job: at ≥ 8 shards on the
//! 32-bank HBM system the optimized assignment is **strictly faster**
//! than round-robin on DES makespan for at least two registry
//! scenarios.
//!
//! The study closes with the per-cell Pareto frontier over (bank count,
//! DES makespan): the non-dominated system × policy points that tell a
//! platform buyer how much banking actually purchases per scenario.

use fem_accel::designs::paper_design;
use fem_accel::emulation::{
    emulate_plan, emulate_plan_banked, shard_compute_floors, shard_streams,
};
use fem_accel::optimizer::optimize_bank_assignment;
use fem_accel::perf::compute_task;
use fem_accel::workload::RklWorkload;
use fem_mesh::partition::ShardPlan;
use fem_solver::engine::PartitionStrategy;
use fem_solver::scenarios::Scenario;
use fpga_platform::memory::modeled_makespan_cycles;
use fpga_platform::{BankAssignment, MemorySystem};
use serde::Serialize;

/// Shard counts the banking sweep requests per scenario.
pub const BANKING_SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Streaming batch sizes (elements) the sweep crosses with the shard
/// counts — a small batch and an effectively-unbatched plan.
pub const BANKING_BATCH_SWEEP: [usize; 2] = [32, 4096];

/// Elements per axis of the sweep meshes (matches `repro sharding`).
pub const BANKING_EDGE: usize = 6;

/// One (scenario, shard count, batch, memory system, policy) cell.
#[derive(Debug, Clone, Serialize)]
pub struct BankingRow {
    /// Scenario identifier.
    pub scenario: String,
    /// Effective shard count of the plan.
    pub shard_count: usize,
    /// The shard count the sweep requested (≥ `shard_count`).
    pub requested_shards: usize,
    /// Streaming batch size (elements) of the plan.
    pub batch_elements: usize,
    /// Memory-system identifier ("u200-ddr4" | "u280-hbm2").
    pub memory_system: String,
    /// Banks in the system.
    pub banks: usize,
    /// Assignment policy ("round-robin" | "greedy" | "optimized").
    pub policy: String,
    /// Banks carrying at least one stream under this assignment.
    pub banks_used: usize,
    /// Whether every bank's resident footprint fits its capacity.
    pub capacity_respected: bool,
    /// Closed-form makespan bound of the assignment (cycles).
    pub modeled_makespan_cycles: u64,
    /// DES makespan of the banked dataflow emulation (cycles).
    pub emulated_makespan_cycles: u64,
    /// Σ port-busy cycles over banks in the DES.
    pub bank_port_cycles_total: u64,
    /// Σ port-conflict stall cycles over banks in the DES.
    pub bank_stall_cycles_total: u64,
    /// The unbanked [`emulate_plan`] quote for this plan: the slowest
    /// per-shard DES makespan (cycles).
    pub flat_quote_cycles: u64,
}

/// One non-dominated (system, policy) point of a cell's (banks, DES
/// makespan) Pareto frontier.
#[derive(Debug, Clone, Serialize)]
pub struct FrontierPoint {
    /// Scenario identifier.
    pub scenario: String,
    /// Effective shard count of the cell.
    pub shard_count: usize,
    /// Streaming batch size of the cell.
    pub batch_elements: usize,
    /// Memory-system identifier.
    pub memory_system: String,
    /// Assignment policy.
    pub policy: String,
    /// Banks in the system (the frontier's cost axis).
    pub banks: usize,
    /// Aggregate peak bandwidth of the system (GB/s), for context.
    pub aggregate_bw_gbps: f64,
    /// DES makespan (the frontier's performance axis, cycles).
    pub emulated_makespan_cycles: u64,
}

/// The full banking sweep.
#[derive(Debug, Clone, Serialize)]
pub struct BankingStudy {
    /// Elements per axis of every scenario mesh.
    pub edge: usize,
    /// The requested shard counts.
    pub shard_counts: Vec<usize>,
    /// The streaming batch sizes.
    pub batch_sizes: Vec<usize>,
    /// Memory systems swept, in bank-count order.
    pub systems: Vec<String>,
    /// Assignment policies swept.
    pub policies: Vec<String>,
    /// Partition strategy of every plan.
    pub strategy: String,
    /// All swept cells (scenario-major, then shard count, batch,
    /// system, policy).
    pub rows: Vec<BankingRow>,
    /// Per-cell Pareto frontiers over (banks, DES makespan).
    pub frontier: Vec<FrontierPoint>,
    /// Scenarios whose largest ≥ 8-shard HBM cell has the optimized
    /// assignment strictly beating round-robin on DES makespan — the
    /// tentpole gate requires at least two.
    pub hbm_win_scenarios: Vec<String>,
}

impl std::fmt::Display for BankingStudy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Banked-memory frontier ({}³-element meshes, shards {:?}, batches {:?}, {} plans):",
            self.edge, self.shard_counts, self.batch_sizes, self.strategy
        )?;
        writeln!(
            f,
            "  {:>22} {:>6} {:>6} {:>10} {:>12} {:>5} {:>10} {:>10} {:>8} {:>10}",
            "scenario",
            "shards",
            "batch",
            "system",
            "policy",
            "banks",
            "modeled",
            "emulated",
            "stalls",
            "flat"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>22} {:>6} {:>6} {:>10} {:>12} {:>5} {:>10} {:>10} {:>8} {:>10}",
                r.scenario,
                r.shard_count,
                r.batch_elements,
                r.memory_system,
                r.policy,
                r.banks_used,
                r.modeled_makespan_cycles,
                r.emulated_makespan_cycles,
                r.bank_stall_cycles_total,
                r.flat_quote_cycles,
            )?;
        }
        writeln!(f, "  Pareto frontier (banks vs DES makespan):")?;
        for p in &self.frontier {
            writeln!(
                f,
                "  {:>22} ×{:<3} batch {:<5} {:>10}/{:<12} {:>3} banks @ {:>6.1} GB/s → {:>10} cyc",
                p.scenario,
                p.shard_count,
                p.batch_elements,
                p.memory_system,
                p.policy,
                p.banks,
                p.aggregate_bw_gbps,
                p.emulated_makespan_cycles,
            )?;
        }
        writeln!(
            f,
            "  optimized beats round-robin at ≥8 shards on HBM in: {:?}",
            self.hbm_win_scenarios
        )?;
        Ok(())
    }
}

/// Builds the assignment of `policy` for `streams` on `system`.
fn assign(
    policy: &str,
    streams: &[fpga_platform::MemoryStream],
    system: &MemorySystem,
    floors: &[u64],
) -> BankAssignment {
    match policy {
        "round-robin" => BankAssignment::round_robin(streams, system),
        "greedy" => BankAssignment::greedy(streams, system),
        "optimized" => optimize_bank_assignment(streams, system, floors),
        other => unreachable!("unknown policy {other}"),
    }
}

/// Runs the sweep: every registered scenario × every effective shard
/// count of `shard_counts` × every batch size × the two memory
/// systems × the three assignment policies, on `edge`³-element meshes
/// under the halo-minimizing graph partition.
///
/// # Panics
///
/// Panics if a scenario fails to build or a plan/emulation fails (a
/// broken registry the caller cannot recover from).
pub fn run_banking_study(
    edge: usize,
    shard_counts: &[usize],
    batch_sizes: &[usize],
) -> BankingStudy {
    assert!(!shard_counts.is_empty(), "shard counts");
    assert!(!batch_sizes.is_empty(), "batch sizes");
    let systems = [MemorySystem::u200_ddr(), MemorySystem::u280_hbm2()];
    let policies = ["round-robin", "greedy", "optimized"];
    let strategy = PartitionStrategy::Partitioned;
    let mut rows = Vec::new();
    let mut frontier = Vec::new();
    let mut hbm_win_scenarios = Vec::new();
    for scenario in Scenario::registry() {
        let name = scenario.name();
        let mesh = &scenario
            .mesh(edge)
            .unwrap_or_else(|e| panic!("{name}: mesh build failed: {e}"));
        let elements = mesh.num_elements();
        let compute = compute_task(&paper_design(&RklWorkload::from_mesh(mesh)))
            .unwrap_or_else(|e| panic!("{name}: scheduling the paper's design failed: {e}"));

        // (round-robin, optimized) DES makespans of every ≥ 8-shard
        // HBM cell — the scenario "wins" when optimized is strictly
        // faster in all of them.
        let mut hbm_cells: Vec<(u64, u64)> = Vec::new();
        let mut seen_counts: Vec<usize> = Vec::new();
        for &requested in shard_counts {
            // The plan clamps the shard count to the element count;
            // sweep each effective value once (like `repro sharding`).
            let count = requested.min(elements).max(1);
            if seen_counts.contains(&count) {
                eprintln!("banking: {name}: skipping duplicate effective count {count}");
                continue;
            }
            seen_counts.push(count);
            for &batch in batch_sizes {
                let plan = ShardPlan::with_strategy(mesh, count, batch, strategy)
                    .unwrap_or_else(|e| panic!("{name}: plan failed: {e}"));
                // The unbanked reference: the slowest per-shard DES
                // quote.
                let flat_quote = emulate_plan(&plan, &compute)
                    .unwrap_or_else(|e| panic!("{name}: flat emulation failed: {e}"))
                    .iter()
                    .map(|r| r.makespan_cycles)
                    .max()
                    .unwrap_or(0);
                let streams = shard_streams(&plan);
                let floors = shard_compute_floors(&plan, &compute);

                let mut cell: Vec<(usize, u64, String, String, f64)> = Vec::new();
                let mut hbm_cell = (0u64, 0u64);
                for system in &systems {
                    for policy in policies {
                        let a = assign(policy, &streams, system, &floors);
                        let modeled = modeled_makespan_cycles(&streams, &a, &floors);
                        let banked = emulate_plan_banked(&plan, &compute, system, &a)
                            .unwrap_or_else(|e| panic!("{name}: banked emulation failed: {e}"));
                        if system.name() == "u280-hbm2" {
                            if policy == "round-robin" {
                                hbm_cell.0 = banked.makespan_cycles;
                            }
                            if policy == "optimized" {
                                hbm_cell.1 = banked.makespan_cycles;
                            }
                        }
                        cell.push((
                            system.num_banks(),
                            banked.makespan_cycles,
                            system.name().to_string(),
                            policy.to_string(),
                            system.total_peak_bw() / 1e9,
                        ));
                        rows.push(BankingRow {
                            scenario: name.to_string(),
                            shard_count: count,
                            requested_shards: requested,
                            batch_elements: batch,
                            memory_system: system.name().to_string(),
                            banks: system.num_banks(),
                            policy: policy.to_string(),
                            banks_used: a.banks_used(),
                            capacity_respected: a.capacity_respected(&streams, system),
                            modeled_makespan_cycles: modeled,
                            emulated_makespan_cycles: banked.makespan_cycles,
                            bank_port_cycles_total: banked
                                .bank_stats
                                .iter()
                                .map(|b| b.reserved_cycles)
                                .sum(),
                            bank_stall_cycles_total: banked
                                .bank_stats
                                .iter()
                                .map(|b| b.stall_cycles)
                                .sum(),
                            flat_quote_cycles: flat_quote,
                        });
                    }
                }
                if count >= 8 {
                    hbm_cells.push(hbm_cell);
                }
                // Non-dominated points: fewer banks and lower makespan.
                for (i, a) in cell.iter().enumerate() {
                    let dominated = cell.iter().enumerate().any(|(j, b)| {
                        j != i && b.0 <= a.0 && b.1 <= a.1 && (b.0 < a.0 || b.1 < a.1 || j < i)
                    });
                    if !dominated {
                        frontier.push(FrontierPoint {
                            scenario: name.to_string(),
                            shard_count: count,
                            batch_elements: batch,
                            memory_system: a.2.clone(),
                            policy: a.3.clone(),
                            banks: a.0,
                            aggregate_bw_gbps: a.4,
                            emulated_makespan_cycles: a.1,
                        });
                    }
                }
            }
        }
        if !hbm_cells.is_empty() && hbm_cells.iter().all(|&(rr, opt)| opt < rr) {
            hbm_win_scenarios.push(name.to_string());
        }
    }
    BankingStudy {
        edge,
        shard_counts: shard_counts.to_vec(),
        batch_sizes: batch_sizes.to_vec(),
        systems: systems.iter().map(|s| s.name().to_string()).collect(),
        policies: policies.iter().map(|p| p.to_string()).collect(),
        strategy: strategy.to_string(),
        rows,
        frontier,
        hbm_win_scenarios,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_pins_both_tentpole_gates() {
        let study = run_banking_study(BANKING_EDGE, &[1, 8], &[4096]);
        // 4 scenarios × 2 counts × 1 batch × 2 systems × 3 policies.
        assert_eq!(study.rows.len(), 4 * 2 * 2 * 3);
        for r in &study.rows {
            assert!(r.emulated_makespan_cycles > 0, "{r:?}");
            assert!(r.modeled_makespan_cycles > 0, "{r:?}");
            assert!(
                r.modeled_makespan_cycles <= r.emulated_makespan_cycles,
                "closed form must lower-bound the DES: {r:?}"
            );
            assert!(r.banks_used <= r.banks);
            assert!(r.capacity_respected, "{r:?}");
        }
        // The gate: optimized strictly beats round-robin at 8 shards on
        // HBM for at least two scenarios (here: all four).
        assert!(
            study.hbm_win_scenarios.len() >= 2,
            "HBM wins: {:?}",
            study.hbm_win_scenarios
        );
        for scenario in ["taylor-green-vortex", "acoustic-pulse"] {
            let cycles = |policy: &str| {
                study
                    .rows
                    .iter()
                    .find(|r| {
                        r.scenario == scenario
                            && r.shard_count == 8
                            && r.memory_system == "u280-hbm2"
                            && r.policy == policy
                    })
                    .map(|r| r.emulated_makespan_cycles)
                    .unwrap()
            };
            assert!(
                cycles("optimized") < cycles("round-robin"),
                "{scenario}: optimized {} !< round-robin {}",
                cycles("optimized"),
                cycles("round-robin")
            );
        }
        // The frontier is per-cell non-dominated, never empty, and
        // ranks only the physical (multi-bank) systems.
        assert!(!study.frontier.is_empty());
        assert!(study.frontier.iter().all(|p| p.banks > 1));
        for p in &study.frontier {
            for q in &study.frontier {
                if p.scenario == q.scenario
                    && p.shard_count == q.shard_count
                    && p.batch_elements == q.batch_elements
                    && !std::ptr::eq(p, q)
                {
                    assert!(
                        !(q.banks <= p.banks
                            && q.emulated_makespan_cycles < p.emulated_makespan_cycles),
                        "{q:?} dominates frontier point {p:?}"
                    );
                }
            }
        }
        // JSON serializes (the repro --json path) and Display renders.
        let json = serde_json::to_string(&study).unwrap();
        assert!(json.contains("\"hbm_win_scenarios\""));
        assert!(json.contains("\"flat_quote_cycles\""));
        let shown = format!("{study}");
        assert!(shown.contains("Pareto frontier"), "{shown}");
        assert!(shown.contains("u280-hbm2"), "{shown}");
    }
}

//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro fig2        Fig 2: CPU execution-time breakdown (measured)
//! repro fig5        Fig 5: RK time vs mesh nodes, proposed vs Vitis
//! repro table1      Table I: resource utilization of both designs
//! repro table2      §IV-B: CPU-vs-FPGA latency and power
//! repro ablations   §III optimizations disabled one at a time
//! repro optimizer   §III-D optimization trace on the proposed design
//! repro scaling     future-work study: RKL units across SLRs
//! repro geometry    cached-vs-recompute, fused-vs-split, and the sum-factored vs full-matrix order ladder
//! repro scenarios   cross-backend regression matrix over the registry
//! repro sharding    shard + device sweep, contiguous vs graph-partitioned, with emulated II quotes and multi-device overlap timings
//! repro banking     banked-memory frontier: shard x batch x memory-system x assignment policy, flat vs DDR4 vs HBM2
//! repro ensemble    ensemble serving: throughput sweep, context sharing, registry x backend
//! repro all         everything above
//!
//! options: --json   machine-readable output
//! ```

use fem_accel::designs::proposed_design;
use fem_accel::experiments::{run_ablations, run_fig2, run_fig5, run_table1, run_table2, ExpError};
use fem_accel::optimizer::{optimize_design, OptimizerConfig};
use fem_accel::workload::RklWorkload;
use fem_bench::{emit, OutputMode, FIG2_MEASURED_EDGES, FIG2_MEASURED_STEPS};

fn print_optimizer_trace(mode: OutputMode) -> Result<(), ExpError> {
    let w = RklWorkload::with_nodes(4_200_000, 1);
    let mut d = proposed_design(&w);
    let steps = optimize_design(&mut d, &OptimizerConfig::for_u200_slr())?;
    match mode {
        OutputMode::Text => {
            println!("§III-D optimization trace (4.2M-node workload):");
            for s in &steps {
                println!(
                    "  [{:<14}] II {:>3} → {:>3}  {}",
                    s.task, s.ii_before, s.ii_after, s.action
                );
            }
            println!();
        }
        OutputMode::Json => {
            let rows: Vec<serde_json::Value> = steps
                .iter()
                .map(|s| {
                    serde_json::json!({
                        "task": s.task,
                        "action": s.action,
                        "ii_before": s.ii_before,
                        "ii_after": s.ii_after,
                    })
                })
                .collect();
            println!("{}", serde_json::to_string_pretty(&rows)?);
        }
    }
    Ok(())
}

fn run(cmd: &str, mode: OutputMode) -> Result<(), ExpError> {
    match cmd {
        "fig2" => emit(&run_fig2(&FIG2_MEASURED_EDGES, FIG2_MEASURED_STEPS)?, mode),
        "fig5" => emit(&run_fig5()?, mode),
        "table1" => emit(&run_table1()?, mode),
        "table2" => emit(&run_table2(4_200_000)?, mode),
        "ablations" => emit(&run_ablations(1_000_000)?, mode),
        "optimizer" => print_optimizer_trace(mode),
        "scaling" => emit(&fem_accel::scaling::run_scaling_study(4_200_000, 3)?, mode),
        "geometry" => emit(&fem_bench::geometry::run_geometry_study(&[8, 12], 5), mode),
        "scenarios" => emit(
            &fem_bench::scenarios::run_scenario_matrix(
                fem_bench::SCENARIO_MATRIX_EDGE,
                fem_bench::SCENARIO_MATRIX_STEPS,
            ),
            mode,
        ),
        "sharding" => emit(
            &fem_bench::sharding::run_sharding_study(
                fem_bench::sharding::SHARDING_EDGE,
                fem_bench::sharding::SHARDING_STEPS,
                &fem_bench::sharding::SHARD_SWEEP,
            ),
            mode,
        ),
        "banking" => emit(
            &fem_bench::banking::run_banking_study(
                fem_bench::banking::BANKING_EDGE,
                &fem_bench::banking::BANKING_SHARD_SWEEP,
                &fem_bench::banking::BANKING_BATCH_SWEEP,
            ),
            mode,
        ),
        "ensemble" => emit(
            &fem_bench::ensemble::run_ensemble_study(
                fem_bench::ensemble::ENSEMBLE_EDGE,
                fem_bench::ensemble::ENSEMBLE_STEPS,
                &fem_bench::ensemble::ENSEMBLE_MEMBER_COUNTS,
            ),
            mode,
        ),
        "all" => {
            for c in [
                "fig2",
                "fig5",
                "table1",
                "table2",
                "ablations",
                "optimizer",
                "scaling",
                "geometry",
                "scenarios",
                "sharding",
                "banking",
                "ensemble",
            ] {
                run(c, mode)?;
            }
            Ok(())
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!(
                "usage: repro <fig2|fig5|table1|table2|ablations|optimizer|scaling|geometry|scenarios|sharding|banking|ensemble|all> [--json]"
            );
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = if args.iter().any(|a| a == "--json") {
        OutputMode::Json
    } else {
        OutputMode::Text
    };
    let cmd = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    if let Err(e) = run(cmd, mode) {
        eprintln!("experiment failed: {e}");
        std::process::exit(1);
    }
}

//! HLS design review: generate the full synthesis-style report for the
//! proposed design — per-loop schedules, resources, power — and emit the
//! Vitis-HLS C++ skeleton the model corresponds to (the shape of the
//! paper's Fig 4).
//!
//! ```sh
//! cargo run --release --example hls_report            # report only
//! cargo run --release --example hls_report -- --code  # + generated C++
//! ```

use fem_cfd_accel::accel::designs::proposed_design;
use fem_cfd_accel::accel::optimizer::{optimize_design, OptimizerConfig};
use fem_cfd_accel::accel::report::DesignReport;
use fem_cfd_accel::accel::workload::RklWorkload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let with_code = std::env::args().any(|a| a == "--code");
    let w = RklWorkload::with_nodes(1_000_000, 1);
    let mut design = proposed_design(&w);
    let steps = optimize_design(&mut design, &OptimizerConfig::for_u200_slr())?;
    println!(
        "optimized the proposed design in {} §III-D steps\n",
        steps.len()
    );
    let report = DesignReport::generate(&design)?;
    println!("{}", report.render(&design, with_code));
    if !with_code {
        println!("(re-run with --code to append the generated HLS C++)");
    }
    Ok(())
}

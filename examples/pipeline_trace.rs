//! Task-level-pipelining trace: simulate the RKL dataflow region for a
//! handful of elements and draw the pipeline overlap as an ASCII Gantt
//! chart — the §III-B mechanism made visible.
//!
//! ```sh
//! cargo run --release --example pipeline_trace
//! ```

use fem_cfd_accel::accel::designs::paper_design;
use fem_cfd_accel::accel::perf::{region_network, task_perfs, Region, TaskPerf};
use fem_cfd_accel::accel::workload::RklWorkload;
use fem_cfd_accel::dataflow::analytic::{sequential_makespan, tlp_speedup};
use fem_cfd_accel::dataflow::sim::simulate_with_trace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's RKL region at its optimized HLS timing: load, merged
    // diffusion+convection, store.
    let tasks = task_perfs(&paper_design(&RklWorkload::with_nodes(4_200_000, 1)))?;
    let [load, compute @ .., store] = tasks.as_slice() else {
        unreachable!("every design has a load and a store task")
    };
    let tokens = 12;
    let net = region_network(&[Region {
        tokens,
        loads: vec![load.stage()],
        compute: compute.iter().map(TaskPerf::stage).collect(),
        stores: vec![store.stage()],
    }])?;
    let report = simulate_with_trace(&net, true)?;

    println!("RKL dataflow pipeline, {tokens} elements\n");
    let scale = 8; // cycles per character
    for (tid, task) in net.tasks().iter().enumerate() {
        let mut line = vec![b' '; (report.makespan as usize / scale) + 2];
        for ev in report.trace.iter().filter(|e| e.task == tid) {
            let s = ev.start as usize / scale;
            let e = (ev.finish as usize / scale).max(s + 1);
            let glyph = char::from(b'0' + (ev.token % 10) as u8);
            for slot in line.iter_mut().take(e).skip(s) {
                *slot = glyph as u8;
            }
        }
        println!("{:>13} |{}|", task.name, String::from_utf8_lossy(&line));
    }
    println!(
        "\n(one column = {scale} cycles; digits are element ids mod 10; overlapping\n digits across rows are the task-level pipelining of §III-B)"
    );
    println!("\nmakespan (pipelined) : {:>6} cycles", report.makespan);
    println!(
        "makespan (sequential): {:>6} cycles",
        sequential_makespan(&net)
    );
    println!("TLP speedup          : {:>6.2}×", tlp_speedup(&net));
    for t in &report.task_stats {
        println!(
            "  {:<13} invocations {:>3}, stalled {:>4} cycles",
            t.name, t.invocations, t.stall_cycles
        );
    }
    Ok(())
}

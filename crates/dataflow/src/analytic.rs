//! Closed-form steady-state performance model.
//!
//! For a pipelined task chain with ample buffering, the makespan is
//! `fill + II_max · (N − 1) + drain` where `fill` is the sum of latencies
//! along the path to the bottleneck and `II_max` the bottleneck initiation
//! interval (§III-B: "the most time-consuming task determining the II").
//! The DES ([`crate::sim`]) validates this model; the accelerator
//! performance layer uses it to extrapolate to millions of elements
//! without event-by-event simulation.

use crate::network::Network;

/// Analytic makespan estimate for `net` processing its token budget.
///
/// Exact for chains whose channels hold at least two tokens (double
/// buffering); a lower bound in the presence of tight (capacity-1 PIPO)
/// backpressure.
///
/// # Example
///
/// ```
/// use hls_dataflow::network::{ChannelKind, NetworkBuilder};
/// use hls_dataflow::analytic::analytic_makespan;
/// use hls_dataflow::sim::simulate;
///
/// let mut b = NetworkBuilder::new();
/// let c = b.channel("c", 2, ChannelKind::Fifo);
/// b.task("producer", 3, 8, vec![], vec![c]);
/// b.task("consumer", 5, 12, vec![c], vec![]);
/// let net = b.build(400).unwrap();
/// let model = analytic_makespan(&net);
/// let sim = simulate(&net).unwrap().makespan;
/// assert!((model as i64 - sim as i64).abs() < 30);
/// ```
pub fn analytic_makespan(net: &Network) -> u64 {
    let tokens = net.tokens();
    if tokens == 0 {
        return 0;
    }
    // Fill: longest path of latencies through the DAG (tasks at their
    // topological levels; for chains this is the plain latency sum).
    let levels = net.topo_levels();
    let max_level = levels.iter().copied().max().unwrap_or(0);
    let mut fill = 0u64;
    for lv in 0..=max_level {
        let worst = net
            .tasks()
            .iter()
            .zip(levels)
            .filter(|(_, &l)| l == lv)
            .map(|(t, _)| t.latency)
            .max()
            .unwrap_or(0);
        fill += worst;
    }
    fill + net.bottleneck_ii() * (tokens - 1)
}

/// Analytic makespan of the *same* work executed without task-level
/// pipelining: each token traverses every task sequentially before the
/// next begins (the unoptimized baseline the paper's TLP removes).
pub fn sequential_makespan(net: &Network) -> u64 {
    let per_token: u64 = net.tasks().iter().map(|t| t.latency).sum();
    per_token * net.tokens()
}

/// The speedup TLP delivers over sequential task execution for this
/// network (the headline mechanism of §III-B).
pub fn tlp_speedup(net: &Network) -> f64 {
    sequential_makespan(net) as f64 / analytic_makespan(net).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{ChannelKind, NetworkBuilder};
    use crate::sim::simulate;
    use proptest::prelude::*;

    fn chain(iis: &[u64], lats: &[u64], cap: usize, tokens: u64) -> Network {
        let mut b = NetworkBuilder::new();
        let n = iis.len();
        let mut chans = Vec::new();
        for i in 0..n - 1 {
            chans.push(b.channel(format!("c{i}"), cap, ChannelKind::Fifo));
        }
        for i in 0..n {
            let inputs = if i == 0 { vec![] } else { vec![chans[i - 1]] };
            let outputs = if i + 1 == n { vec![] } else { vec![chans[i]] };
            b.task(format!("t{i}"), iis[i], lats[i], inputs, outputs);
        }
        b.build(tokens).unwrap()
    }

    #[test]
    fn model_matches_simulation_for_chains() {
        for (iis, lats) in [
            (vec![4u64, 9, 2], vec![10u64, 25, 6]),
            (vec![1, 1, 1], vec![3, 3, 3]),
            (vec![7, 3], vec![20, 9]),
        ] {
            let net = chain(&iis, &lats, 4, 1000);
            let model = analytic_makespan(&net);
            let sim = simulate(&net).unwrap().makespan;
            let err = (model as i64 - sim as i64).abs();
            assert!(err <= 40, "model {model} vs sim {sim} for {iis:?}");
        }
    }

    #[test]
    fn tlp_speedup_approaches_latency_ratio() {
        // Three equal tasks: sequential = 3·L·N, pipelined ≈ II·N.
        let net = chain(&[10, 10, 10], &[10, 10, 10], 2, 10_000);
        let s = tlp_speedup(&net);
        assert!((s - 3.0).abs() < 0.05, "speedup {s}");
    }

    proptest! {
        /// DES and the analytic model agree for well-buffered chains.
        #[test]
        fn prop_model_matches_sim(
            iis in proptest::collection::vec(1u64..24, 1..6),
            tokens in 2u64..400,
        ) {
            // Latency ≥ II keeps tasks internally pipelined and realistic.
            // Channel depth must cover the in-flight window
            // (max latency/II = 8 at II=1), or backpressure legitimately
            // slows the pipeline below the model.
            let lats: Vec<u64> = iis.iter().map(|&ii| ii + 7).collect();
            let net = chain(&iis, &lats, 16, tokens);
            let model = analytic_makespan(&net);
            let sim = simulate(&net).unwrap().makespan;
            // Fill-phase interleaving can deviate by at most the total
            // fill time; steady state must match exactly.
            let slack = lats.iter().sum::<u64>() + 16;
            prop_assert!((model as i64 - sim as i64).unsigned_abs() <= slack,
                "model {model}, sim {sim}, iis {iis:?}");
        }

        /// TLP never loses to sequential execution.
        #[test]
        fn prop_tlp_never_slower(
            iis in proptest::collection::vec(1u64..16, 1..5),
            tokens in 1u64..200,
        ) {
            let lats: Vec<u64> = iis.iter().map(|&ii| ii + 3).collect();
            let net = chain(&iis, &lats, 2, tokens);
            prop_assert!(analytic_makespan(&net) <= sequential_makespan(&net));
            let sim = simulate(&net).unwrap().makespan;
            prop_assert!(sim <= sequential_makespan(&net) + 8);
        }
    }
}

//! Discrete-event simulation of HLS dataflow regions (Task-Level
//! Pipelining).
//!
//! The paper's §III-B restructures the solver into tasks
//! (`Load → Compute → Store`, at element and node granularity) connected
//! by FIFO or ping-pong (PIPO) buffers, so that `Task_k` processes token
//! `i+1` while `Task_{k+1}` processes token `i`. The achieved initiation
//! interval of the whole region is set by the slowest task; buffers
//! introduce backpressure; violating the single-producer-single-consumer
//! or no-bypass conditions risks deadlock. This crate models all of that:
//!
//! * [`network`] — process-network description: tasks (II + latency per
//!   token), channels (FIFO/PIPO, bounded capacity), design-rule checks
//!   (SPSC, bypass detection, §III-B).
//! * [`sim`] — the discrete-event engine: exact start/finish times,
//!   stalls, channel occupancy, deadlock detection, optional trace.
//! * [`analytic`] — closed-form steady-state model
//!   (`makespan ≈ fill + N · max II`), cross-validated against the DES by
//!   property tests.
//!
//! # Memory-bank port conflicts
//!
//! Channels can carry an optional *bank* id
//! ([`network::ChannelSpec::bank`], declared via
//! [`network::NetworkBuilder::banked_channel`]) marking traffic that
//! goes through one port of a banked memory system (a DDR channel or an
//! HBM2 pseudo-channel). The conflict rule: when a task starts a token,
//! it reserves the port of every distinct bank among its *banked output
//! channels* for its full II (the burst issues back-to-back beats); a
//! task cannot start while any port it needs is reserved. Same-cycle
//! contenders are resolved in ascending task-declaration order — the
//! same order the engine's fixed-point start loop already scans, so
//! banked simulation stays fully deterministic: no randomness, no
//! iteration over unordered containers, ties broken by a total order
//! fixed at build time. A network with no banked channels takes none of
//! these paths and reports byte-identical results to the pre-banking
//! engine; per-bank reserved/stall/token counters appear in
//! [`sim::SimulationReport::bank_stats`] otherwise.
//!
//! # Example
//!
//! ```
//! use hls_dataflow::network::{ChannelKind, NetworkBuilder};
//! use hls_dataflow::sim::simulate;
//!
//! // Load → Compute → Store, 1000 tokens, compute is the bottleneck.
//! // Channels are deep enough to cover the compute task's in-flight
//! // tokens (latency 40 / II 12 ⇒ ≥ 4 slots for full rate).
//! let mut b = NetworkBuilder::new();
//! let c1 = b.channel("load_to_compute", 8, ChannelKind::Fifo);
//! let c2 = b.channel("compute_to_store", 8, ChannelKind::Fifo);
//! b.task("load", 4, 10, vec![], vec![c1]);
//! b.task("compute", 12, 40, vec![c1], vec![c2]);
//! b.task("store", 4, 8, vec![c2], vec![]);
//! let net = b.build(1000).unwrap();
//! let report = simulate(&net).unwrap();
//! // Steady state: one token per 12 cycles.
//! assert!(report.makespan < 12 * 1000 + 200);
//! ```

#![deny(missing_docs)]

pub mod analytic;
pub mod network;
pub mod sim;

pub use network::{ChannelKind, Network, NetworkBuilder};
pub use sim::{simulate, BankStats, SimulationReport};

/// Errors produced by the dataflow layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataflowError {
    /// A channel has zero capacity.
    ZeroCapacity(String),
    /// A channel is written by more than one task (violates the paper's
    /// single-producer rule).
    MultipleProducers(String),
    /// A channel is read by more than one task (single-consumer rule).
    MultipleConsumers(String),
    /// A channel has no producer or no consumer.
    Dangling(String),
    /// The task graph contains a cycle.
    Cyclic,
    /// The simulation stopped making progress before completing.
    Deadlock {
        /// Cycle at which progress stopped.
        at_cycle: u64,
        /// Names of tasks that still had work.
        stuck_tasks: Vec<String>,
    },
    /// A task references a channel id that does not exist.
    UnknownChannel(usize),
    /// The network has no tasks.
    Empty,
}

impl std::fmt::Display for DataflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataflowError::ZeroCapacity(c) => write!(f, "channel `{c}` has zero capacity"),
            DataflowError::MultipleProducers(c) => {
                write!(f, "channel `{c}` has multiple producers")
            }
            DataflowError::MultipleConsumers(c) => {
                write!(f, "channel `{c}` has multiple consumers")
            }
            DataflowError::Dangling(c) => write!(f, "channel `{c}` is not fully connected"),
            DataflowError::Cyclic => write!(f, "task graph contains a cycle"),
            DataflowError::Deadlock {
                at_cycle,
                stuck_tasks,
            } => write!(
                f,
                "deadlock at cycle {at_cycle}; stuck tasks: {}",
                stuck_tasks.join(", ")
            ),
            DataflowError::UnknownChannel(id) => write!(f, "unknown channel id {id}"),
            DataflowError::Empty => write!(f, "network has no tasks"),
        }
    }
}

impl std::error::Error for DataflowError {}

//! Shared helpers of the benchmark harness.
//!
//! The heavy lifting lives in `fem_accel::experiments`; this crate adds
//! the command-line `repro` binary (one subcommand per table/figure) and
//! the Criterion benches that measure the *real* Rust artifacts (solver
//! kernels, HLS scheduler, dataflow DES) on this machine.

#![deny(missing_docs)]

pub mod banking;
pub mod ensemble;
pub mod geometry;
pub mod scenarios;
pub mod sharding;

use fem_accel::experiments::ExpError;
use serde::Serialize;

/// Output mode of the repro harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputMode {
    /// Human-readable tables.
    Text,
    /// Machine-readable JSON.
    Json,
}

/// Prints a result either as its `Display` table or as JSON.
///
/// # Errors
///
/// Propagates JSON serialization failures.
pub fn emit<T: std::fmt::Display + Serialize>(value: &T, mode: OutputMode) -> Result<(), ExpError> {
    match mode {
        OutputMode::Text => println!("{value}\n"),
        OutputMode::Json => println!("{}", serde_json::to_string_pretty(value)?),
    }
    Ok(())
}

/// Mesh edge sizes used for the measured (in-process) Fig 2 sweep.
/// 12³–24³ nodes keep the instrumented runs to seconds while showing the
/// same breakdown the paper measured at 1M–4M nodes.
pub const FIG2_MEASURED_EDGES: [usize; 3] = [12, 16, 20];

/// RK steps for the measured Fig 2 sweep.
pub const FIG2_MEASURED_STEPS: usize = 3;

/// Elements per axis of the `repro scenarios` regression-matrix meshes
/// (large enough to resolve the double shear layer's `δ = 0.8`).
pub const SCENARIO_MATRIX_EDGE: usize = 8;

/// RK steps of the `repro scenarios` matrix — enough for the evolution
/// invariants (KE decay, pulse spreading, cavity spin-up) to register.
pub const SCENARIO_MATRIX_STEPS: usize = 6;

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Dummy {
        x: u32,
    }
    impl std::fmt::Display for Dummy {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "x={}", self.x)
        }
    }

    #[test]
    fn emit_does_not_fail() {
        emit(&Dummy { x: 3 }, OutputMode::Text).unwrap();
        emit(&Dummy { x: 3 }, OutputMode::Json).unwrap();
    }
}

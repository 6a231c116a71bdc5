//! Simulation checkpointing: binary save/restore of the conserved state.
//!
//! Long CFD runs (the paper's meshes run for many hours of wall clock)
//! need restartability. The format (`FCKP`) stores the simulation time,
//! step count, and the five conserved fields, little-endian.

use crate::state::Conserved;
use crate::SolverError;
use std::io::{Read, Write};

const MAGIC: &[u8; 4] = b"FCKP";

/// A snapshot of a simulation's integrated state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Simulation time.
    pub time: f64,
    /// RK steps taken so far.
    pub steps_taken: u64,
    /// The conserved fields.
    pub state: Conserved,
}

impl Checkpoint {
    /// Serializes the checkpoint to `w`.
    ///
    /// # Errors
    ///
    /// [`SolverError::Mesh`]-wrapped I/O failures.
    pub fn write<W: Write>(&self, mut w: W) -> Result<(), SolverError> {
        let io = |e: std::io::Error| SolverError::Mesh(fem_mesh::MeshError::Io(e.to_string()));
        w.write_all(MAGIC).map_err(io)?;
        w.write_all(&self.time.to_le_bytes()).map_err(io)?;
        w.write_all(&self.steps_taken.to_le_bytes()).map_err(io)?;
        w.write_all(&(self.state.len() as u64).to_le_bytes())
            .map_err(io)?;
        let mut result = Ok(());
        self.state.for_each_field(|f| {
            if result.is_ok() {
                for v in f {
                    if let Err(e) = w.write_all(&v.to_le_bytes()) {
                        result = Err(io(e));
                        break;
                    }
                }
            }
        });
        result
    }

    /// Deserializes a checkpoint from `r`.
    ///
    /// # Errors
    ///
    /// [`SolverError::Mesh`]-wrapped format/I/O failures.
    pub fn read<R: Read>(mut r: R) -> Result<Checkpoint, SolverError> {
        let bad = |msg: &str| SolverError::Mesh(fem_mesh::MeshError::Format(msg.to_string()));
        let io = |e: std::io::Error| SolverError::Mesh(fem_mesh::MeshError::Io(e.to_string()));
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic).map_err(io)?;
        if &magic != MAGIC {
            return Err(bad("bad checkpoint magic"));
        }
        let mut b8 = [0u8; 8];
        r.read_exact(&mut b8).map_err(io)?;
        let time = f64::from_le_bytes(b8);
        r.read_exact(&mut b8).map_err(io)?;
        let steps_taken = u64::from_le_bytes(b8);
        r.read_exact(&mut b8).map_err(io)?;
        let n = u64::from_le_bytes(b8) as usize;
        if n > (1 << 33) {
            return Err(bad("implausible node count"));
        }
        let mut state = Conserved::zeros(n);
        let mut read_field = |dst: &mut [f64]| -> Result<(), SolverError> {
            for v in dst.iter_mut() {
                let mut b = [0u8; 8];
                r.read_exact(&mut b).map_err(io)?;
                *v = f64::from_le_bytes(b);
            }
            Ok(())
        };
        read_field(&mut state.rho)?;
        for d in 0..3 {
            let mut field = std::mem::take(&mut state.mom[d]);
            read_field(&mut field)?;
            state.mom[d] = field;
        }
        read_field(&mut state.energy)?;
        Ok(Checkpoint {
            time,
            steps_taken,
            state,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Simulation;
    use crate::tgv::TgvConfig;
    use fem_mesh::generator::BoxMeshBuilder;

    #[test]
    fn roundtrip_preserves_everything() {
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let cfg = TgvConfig::standard();
        let ck = Checkpoint {
            time: 1.25,
            steps_taken: 17,
            state: cfg.initial_state(&mesh),
        };
        let mut buf = Vec::new();
        ck.write(&mut buf).unwrap();
        let back = Checkpoint::read(buf.as_slice()).unwrap();
        assert_eq!(ck, back);
    }

    #[test]
    fn resume_is_bit_exact() {
        // 10 straight steps == 5 steps + checkpoint/restore + 5 steps.
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let cfg = TgvConfig::new(0.1, 200.0);
        let initial = cfg.initial_state(&mesh);
        let dt = 5.0e-3;

        let mut straight = Simulation::new(mesh.clone(), cfg.gas(), initial.clone()).unwrap();
        straight.advance(10, dt).unwrap();

        let mut first = Simulation::new(mesh.clone(), cfg.gas(), initial).unwrap();
        first.advance(5, dt).unwrap();
        let ck = Checkpoint {
            time: first.time(),
            steps_taken: first.steps_taken() as u64,
            state: first.conserved().clone(),
        };
        let mut buf = Vec::new();
        ck.write(&mut buf).unwrap();
        let restored = Checkpoint::read(buf.as_slice()).unwrap();
        let mut second = Simulation::new(mesh, cfg.gas(), restored.state).unwrap();
        second.advance(5, dt).unwrap();

        let mut a = Vec::new();
        straight
            .conserved()
            .for_each_field(|f| a.extend_from_slice(f));
        let mut b = Vec::new();
        second
            .conserved()
            .for_each_field(|f| b.extend_from_slice(f));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn restored_trajectory_is_bitwise_identical_across_backends_and_shard_counts() {
        // A mid-run checkpoint restored under the serial reference and
        // the sharded executor (several device counts, both strategies)
        // must continue on the *same* bit-exact trajectory as the
        // uninterrupted serial run — restart files written on one
        // executor are valid on any other.
        use crate::engine::{BackendSelect, PartitionStrategy};
        use crate::parallel::AssemblyStrategy;

        let mesh = BoxMeshBuilder::tgv_box(5).build().unwrap();
        let cfg = TgvConfig::new(0.1, 300.0);
        let initial = cfg.initial_state(&mesh);
        let dt = 4.0e-3;

        let mut straight = Simulation::new(mesh.clone(), cfg.gas(), initial.clone()).unwrap();
        straight.advance(8, dt).unwrap();
        let expect = straight.conserved().to_bit_vec();

        // Mid-run checkpoint (written by a *multi-device* run, so the
        // saved state itself already crossed a backend boundary).
        let mut first = Simulation::builder(mesh.clone(), cfg.gas(), initial)
            .backend(BackendSelect::MultiDevice {
                devices: 3,
                strategy: PartitionStrategy::Contiguous,
            })
            .build()
            .unwrap();
        first.advance(4, dt).unwrap();
        let ck = Checkpoint {
            time: first.time(),
            steps_taken: first.steps_taken() as u64,
            state: first.conserved().clone(),
        };
        let mut buf = Vec::new();
        ck.write(&mut buf).unwrap();

        let mut backends = vec![BackendSelect::Reference(AssemblyStrategy::Serial)];
        for strategy in [
            PartitionStrategy::Contiguous,
            PartitionStrategy::Partitioned,
        ] {
            for devices in [1, 2, 7] {
                backends.push(BackendSelect::MultiDevice { devices, strategy });
            }
        }
        for select in backends {
            let restored = Checkpoint::read(buf.as_slice()).unwrap();
            assert_eq!(restored.steps_taken, 4);
            let mut resumed = Simulation::builder(mesh.clone(), cfg.gas(), restored.state)
                .backend(select)
                .build()
                .unwrap();
            resumed.advance(4, dt).unwrap();
            let got = resumed.conserved().to_bit_vec();
            assert_eq!(got, expect, "{select}: resumed trajectory diverged");
        }
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        assert!(Checkpoint::read(&b"WRNG"[..]).is_err());
        let mesh = BoxMeshBuilder::tgv_box(3).build().unwrap();
        let ck = Checkpoint {
            time: 0.0,
            steps_taken: 0,
            state: TgvConfig::standard().initial_state(&mesh),
        };
        let mut buf = Vec::new();
        ck.write(&mut buf).unwrap();
        assert!(Checkpoint::read(&buf[..buf.len() / 2]).is_err());
    }
}

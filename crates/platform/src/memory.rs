//! Banked device-memory models and bank-assignment planning.
//!
//! The pre-banking performance model quoted one *flat* aggregate DDR
//! bound: every stream shared one pipe and the emulator could only
//! report, never choose, a layout. This module makes the memory system a
//! first-class, banked object:
//!
//! * [`MemorySystem`] — an ordered set of [`MemoryBank`]s, each with its
//!   own capacity, peak bandwidth, and SLR affinity
//!   ([`crate::u200::SlrId`]). Two production instances are provided —
//!   the U200's 4 × DDR4 channels ([`MemorySystem::u200_ddr`]) and a
//!   U280-style 32-pseudo-channel HBM2 stack
//!   ([`MemorySystem::u280_hbm2`]).
//! * [`MemoryStream`] — one DDR-resident stream a kernel reads or
//!   writes (a state-array gather, a geometry-cache slice, an RHS
//!   scatter), sized in beats/token and resident bytes.
//! * [`BankAssignment`] — a total map of streams onto banks, with the
//!   [`BankAssignment::round_robin`] baseline and the capacity-aware
//!   [`BankAssignment::greedy`] planner. The swap-refinement optimizer
//!   that minimizes the *emulated* makespan lives one layer up, in
//!   `fem_accel::optimizer` (it needs the DES cost model).
//! * [`modeled_makespan_cycles`] — the closed-form cost both planners
//!   and the optimizer agree on: every bank is a single port issuing one
//!   512-bit beat per cycle, so a bank's busy time is the beat total of
//!   its streams, and a pipeline group can go no faster than its
//!   slowest own stream or its compute floor.

use crate::u200::SlrId;

/// One addressable bank (DDR channel or HBM2 pseudo-channel).
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryBank {
    /// Bank index within its [`MemorySystem`].
    pub index: usize,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Peak bandwidth in bytes/second.
    pub peak_bw: f64,
    /// The SLR whose fabric the bank's port attaches to.
    pub slr: SlrId,
}

/// An ordered set of banks — the device's off-chip memory.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySystem {
    name: String,
    banks: Vec<MemoryBank>,
}

impl MemorySystem {
    /// The U200's four 16 GB DDR4-2400 channels (19.2 GB/s peak each).
    /// Affinity follows the card's floorplan: channel 0 attaches to
    /// SLR0, channels 1–2 to SLR1 (next to the shell), channel 3 to
    /// SLR2.
    pub fn u200_ddr() -> Self {
        let slrs = [SlrId::Slr0, SlrId::Slr1, SlrId::Slr1, SlrId::Slr2];
        MemorySystem {
            name: "u200-ddr4".into(),
            banks: slrs
                .iter()
                .enumerate()
                .map(|(index, &slr)| MemoryBank {
                    index,
                    capacity_bytes: 16 << 30,
                    peak_bw: 19.2e9,
                    slr,
                })
                .collect(),
        }
    }

    /// A U280-style HBM2 subsystem: 32 pseudo-channels of 256 MiB each
    /// (8 GB across two stacks) at 14.375 GB/s apiece (460 GB/s
    /// aggregate). Every pseudo-channel port lands in the bottom SLR —
    /// the stacks sit under SLR0, so kernels elsewhere pay an SLR
    /// crossing to reach any bank.
    pub fn u280_hbm2() -> Self {
        MemorySystem {
            name: "u280-hbm2".into(),
            banks: (0..32)
                .map(|index| MemoryBank {
                    index,
                    capacity_bytes: 256 << 20,
                    peak_bw: 14.375e9,
                    slr: SlrId::Slr0,
                })
                .collect(),
        }
    }

    /// Identifier ("u200-ddr4", "u280-hbm2").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of banks.
    pub fn num_banks(&self) -> usize {
        self.banks.len()
    }

    /// The banks in index order.
    pub fn banks(&self) -> &[MemoryBank] {
        &self.banks
    }

    /// One bank by index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn bank(&self, index: usize) -> &MemoryBank {
        &self.banks[index]
    }

    /// Total capacity over all banks.
    pub fn total_capacity_bytes(&self) -> u64 {
        self.banks.iter().map(|b| b.capacity_bytes).sum()
    }

    /// Aggregate peak bandwidth over all banks.
    pub fn total_peak_bw(&self) -> f64 {
        self.banks.iter().map(|b| b.peak_bw).sum()
    }
}

/// One DDR-resident stream of a pipelined kernel group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryStream {
    /// Diagnostic label ("rho gather", "geometry slice", ...).
    pub label: String,
    /// Pipeline group the stream belongs to (one group per shard): the
    /// group's tasks form one Load → Compute → Store chain, so its
    /// streams all advance at the group's token rate.
    pub group: usize,
    /// 512-bit beats the stream issues per token (≥ 1).
    pub beats_per_token: u64,
    /// Tokens (elements) the stream moves per stage.
    pub tokens: u64,
    /// Bytes the stream keeps resident in its bank.
    pub resident_bytes: u64,
}

impl MemoryStream {
    /// Total port-busy cycles the stream costs its bank per stage.
    pub fn total_beats(&self) -> u64 {
        self.beats_per_token * self.tokens
    }
}

/// A total assignment of streams onto the banks of a [`MemorySystem`]:
/// `bank_of[i]` is the bank of stream `i` — every stream maps to exactly
/// one bank by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankAssignment {
    /// Bank index per stream.
    pub bank_of: Vec<usize>,
    /// Bank count of the target system.
    pub banks: usize,
}

impl BankAssignment {
    /// The naive baseline: stream `i` lands on bank `i mod banks`,
    /// ignoring traffic and capacity (what a shell linker does when
    /// nobody passes `--sp` flags).
    pub fn round_robin(streams: &[MemoryStream], system: &MemorySystem) -> Self {
        let banks = system.num_banks().max(1);
        BankAssignment {
            bank_of: (0..streams.len()).map(|i| i % banks).collect(),
            banks,
        }
    }

    /// Capacity-aware greedy: streams are placed in descending
    /// beat-traffic order, each onto the least-loaded bank that still
    /// has room for its resident bytes (falling back to the least-loaded
    /// bank outright when nothing fits — oversubscription is reported by
    /// [`BankAssignment::capacity_respected`], never hidden by a panic).
    pub fn greedy(streams: &[MemoryStream], system: &MemorySystem) -> Self {
        let banks = system.num_banks().max(1);
        let mut order: Vec<usize> = (0..streams.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse((streams[i].total_beats(), i)));
        let mut load = vec![0u64; banks];
        let mut free: Vec<u64> = system.banks().iter().map(|b| b.capacity_bytes).collect();
        let mut bank_of = vec![0usize; streams.len()];
        for &i in &order {
            let s = &streams[i];
            let fits = (0..banks)
                .filter(|&b| free[b] >= s.resident_bytes)
                .min_by_key(|&b| (load[b], b));
            let b = fits.unwrap_or_else(|| {
                (0..banks)
                    .min_by_key(|&b| (load[b], b))
                    .expect("banks >= 1")
            });
            bank_of[i] = b;
            load[b] += s.total_beats();
            free[b] = free[b].saturating_sub(s.resident_bytes);
        }
        BankAssignment { bank_of, banks }
    }

    /// Whether every bank's resident footprint fits its capacity.
    pub fn capacity_respected(&self, streams: &[MemoryStream], system: &MemorySystem) -> bool {
        let mut used = vec![0u64; self.banks];
        for (s, &b) in streams.iter().zip(&self.bank_of) {
            used[b] += s.resident_bytes;
        }
        used.iter()
            .zip(system.banks())
            .all(|(&u, bank)| u <= bank.capacity_bytes)
    }

    /// Per-bank total port-busy beats under this assignment.
    pub fn bank_beats(&self, streams: &[MemoryStream]) -> Vec<u64> {
        let mut beats = vec![0u64; self.banks];
        for (s, &b) in streams.iter().zip(&self.bank_of) {
            beats[b] += s.total_beats();
        }
        beats
    }

    /// Banks with at least one stream.
    pub fn banks_used(&self) -> usize {
        let mut seen = vec![false; self.banks];
        for &b in &self.bank_of {
            seen[b] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }
}

/// Closed-form makespan bound of an assignment, in cycles: the slowest
/// single-port bank (Σ beats of its streams) or the slowest pipeline
/// group (its compute floor, or its own heaviest stream), whichever
/// dominates. `group_floor_cycles[g]` is group `g`'s bank-independent
/// floor (tokens × compute II). The DES refines this bound with fill
/// latencies and same-cycle arbitration; planners use the closed form
/// because it is exact in steady state and O(streams) to evaluate.
pub fn modeled_makespan_cycles(
    streams: &[MemoryStream],
    assignment: &BankAssignment,
    group_floor_cycles: &[u64],
) -> u64 {
    let bank_bound = assignment
        .bank_beats(streams)
        .into_iter()
        .max()
        .unwrap_or(0);
    let stream_bound = streams.iter().map(MemoryStream::total_beats).max();
    let group_bound = group_floor_cycles.iter().copied().max().unwrap_or(0);
    bank_bound.max(stream_bound.unwrap_or(0)).max(group_bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn stream(group: usize, beats: u64, tokens: u64, resident: u64) -> MemoryStream {
        MemoryStream {
            label: format!("s{group}"),
            group,
            beats_per_token: beats,
            tokens,
            resident_bytes: resident,
        }
    }

    /// A test system of `banks` identical unit-bandwidth banks.
    fn uniform(banks: usize, capacity_bytes: u64) -> MemorySystem {
        MemorySystem {
            name: "test".into(),
            banks: (0..banks)
                .map(|index| MemoryBank {
                    index,
                    capacity_bytes,
                    peak_bw: 1.0,
                    slr: SlrId::Slr0,
                })
                .collect(),
        }
    }

    #[test]
    fn production_instances_match_the_datasheets() {
        let ddr = MemorySystem::u200_ddr();
        assert_eq!(ddr.num_banks(), 4);
        assert_eq!(ddr.total_capacity_bytes(), 64 << 30);
        assert!((ddr.total_peak_bw() - 4.0 * 19.2e9).abs() < 1.0);
        assert_eq!(ddr.bank(0).slr, SlrId::Slr0);
        assert_eq!(ddr.bank(1).slr, SlrId::Slr1);
        assert_eq!(ddr.bank(2).slr, SlrId::Slr1);
        assert_eq!(ddr.bank(3).slr, SlrId::Slr2);

        let hbm = MemorySystem::u280_hbm2();
        assert_eq!(hbm.num_banks(), 32);
        assert_eq!(hbm.total_capacity_bytes(), 8 << 30);
        assert!((hbm.total_peak_bw() - 460.0e9).abs() < 1e9);
        assert!(hbm.banks().iter().all(|b| b.slr == SlrId::Slr0));
    }

    #[test]
    fn greedy_separates_the_heavy_stream() {
        // One heavy stream + four light ones on two banks: greedy must
        // not co-locate a light stream with the heavy one.
        let streams = vec![
            stream(0, 10, 100, 64),
            stream(0, 1, 100, 64),
            stream(0, 1, 100, 64),
            stream(0, 1, 100, 64),
            stream(0, 1, 100, 64),
        ];
        let one = uniform(1, 1 << 30);
        let two = uniform(2, 1 << 30);
        let g = BankAssignment::greedy(&streams, &two);
        let beats = g.bank_beats(&streams);
        assert_eq!(beats.iter().max(), Some(&1000));
        // 1-bank systems map everything to bank 0.
        let f = BankAssignment::round_robin(&streams, &one);
        assert!(f.bank_of.iter().all(|&b| b == 0));
    }

    #[test]
    fn greedy_respects_capacity_when_feasible() {
        // Two big streams that only fit one per bank.
        let streams = vec![stream(0, 1, 10, 900), stream(1, 1, 10, 900)];
        let two = uniform(2, 1000);
        let g = BankAssignment::greedy(&streams, &two);
        assert!(g.capacity_respected(&streams, &two));
        assert_ne!(g.bank_of[0], g.bank_of[1]);
    }

    proptest! {
        /// Every planner maps every stream to exactly one in-range bank.
        #[test]
        fn prop_total_in_range_assignment(
            n in 1usize..40,
            banks in 1usize..33,
            seed in 0u64..1000,
        ) {
            let streams: Vec<MemoryStream> = (0..n)
                .map(|i| stream(i, 1 + (seed + i as u64) % 12, 1 + (i as u64 % 50), 64))
                .collect();
            let sys = uniform(banks, 1 << 20);
            for a in [BankAssignment::round_robin(&streams, &sys),
                      BankAssignment::greedy(&streams, &sys)] {
                prop_assert_eq!(a.bank_of.len(), streams.len());
                prop_assert!(a.bank_of.iter().all(|&b| b < banks));
            }
        }

        /// Greedy never exceeds a bank's capacity when a feasible
        /// placement exists (here: every stream fits any bank and the
        /// per-bank stream count is unconstrained by bytes).
        #[test]
        fn prop_greedy_capacity(
            n in 1usize..30,
            banks in 1usize..8,
        ) {
            let streams: Vec<MemoryStream> = (0..n)
                .map(|i| stream(i, 1, 10, 100))
                .collect();
            let cap = 100 * n.div_ceil(banks) as u64 + 100;
            let sys = uniform(banks, cap);
            let g = BankAssignment::greedy(&streams, &sys);
            prop_assert!(g.capacity_respected(&streams, &sys));
        }

        /// Greedy's modeled makespan never loses to round-robin on
        /// capacity-unconstrained instances (it balances beat load).
        #[test]
        fn prop_greedy_beats_round_robin_on_model(
            n in 1usize..40,
            banks in 1usize..16,
            seed in 0u64..1000,
        ) {
            let streams: Vec<MemoryStream> = (0..n)
                .map(|i| stream(i, 1 + (seed * 7 + i as u64 * 13) % 20, 1 + (i as u64 % 30), 1))
                .collect();
            let sys = uniform(banks, 1 << 30);
            let rr = BankAssignment::round_robin(&streams, &sys);
            let g = BankAssignment::greedy(&streams, &sys);
            let floors = vec![0u64];
            prop_assert!(
                modeled_makespan_cycles(&streams, &g, &floors)
                    <= modeled_makespan_cycles(&streams, &rr, &floors)
            );
        }
    }
}

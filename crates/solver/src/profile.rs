//! Phase profiler reproducing the measurement behind the paper's Fig 2.
//!
//! The paper profiles its C++ solver and reports the average breakdown of
//! execution time: RK-Diffusion 39.2%, RK-Convection 21.04%, RK-Other
//! 16.13%, Non-RK 23.63%. The solver driver threads every hot block
//! through this profiler so the same breakdown can be measured here.

use std::time::{Duration, Instant};

/// The four phases of Fig 2.
///
/// Since the fused single-contraction kernel landed, viscous elements run
/// one shared weak-divergence contraction: its time is charged half to
/// [`Phase::RkConvection`] and half to [`Phase::RkDiffusion`] (it serves
/// both halves of the fused `F_c − F_v` stage), while the fused flux
/// loop (gradients, τ, net flux and, in the element batches, its
/// transform into the contraction input `G`) is all diffusion. Per-stage geometry
/// rebuild time no longer exists — the one-time [`GeometryCache`] build
/// is charged to [`Phase::NonRk`] at construction.
///
/// [`GeometryCache`]: fem_mesh::geometry::GeometryCache
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Viscous (diffusion) term: gradients, τ, heat flux, its half of the
    /// fused weak divergence.
    RkDiffusion,
    /// Convective term: flux evaluation and its half of the fused weak
    /// divergence.
    RkConvection,
    /// Remaining RK work: gather/scatter, RKU update, axpy.
    RkOther,
    /// Everything outside the RK method: diagnostics, setup amortization
    /// (including the one-time geometry-cache build).
    NonRk,
}

impl Phase {
    /// All phases in Fig 2 order.
    pub const ALL: [Phase; 4] = [
        Phase::RkDiffusion,
        Phase::RkConvection,
        Phase::RkOther,
        Phase::NonRk,
    ];

    /// Human-readable label matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            Phase::RkDiffusion => "RK(Diffusion)",
            Phase::RkConvection => "RK(Convection)",
            Phase::RkOther => "RK(Other)",
            Phase::NonRk => "Non-RK",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::RkDiffusion => 0,
            Phase::RkConvection => 1,
            Phase::RkOther => 2,
            Phase::NonRk => 3,
        }
    }
}

/// Accumulates wall-clock time per [`Phase`].
///
/// # Example
///
/// ```
/// use fem_solver::profile::{Phase, PhaseProfiler};
/// let mut prof = PhaseProfiler::new();
/// prof.time(Phase::NonRk, || std::thread::sleep(std::time::Duration::from_millis(1)));
/// assert!(prof.total(Phase::NonRk).as_micros() >= 1000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PhaseProfiler {
    totals: [Duration; 4],
}

impl PhaseProfiler {
    /// Fresh profiler with zero accumulated time.
    pub fn new() -> Self {
        Self::default()
    }

    /// Times `f` and charges the elapsed wall-clock time to `phase`.
    pub fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.totals[phase.index()] += start.elapsed();
        out
    }

    /// Adds an externally measured duration to `phase`.
    pub fn add(&mut self, phase: Phase, d: Duration) {
        self.totals[phase.index()] += d;
    }

    /// Adds every phase total of `other` into `self`.
    ///
    /// This is how the parallel assembly strategies report per-stage
    /// attribution: each worker accumulates into a thread-local profiler
    /// and the locals are merged afterwards. The merged totals are
    /// **summed thread time**, so under a parallel strategy
    /// [`PhaseProfiler::grand_total`] can exceed wall-clock time; the
    /// *relative* Fig 2 breakdown stays meaningful.
    pub fn merge(&mut self, other: &PhaseProfiler) {
        for (t, o) in self.totals.iter_mut().zip(&other.totals) {
            *t += *o;
        }
    }

    /// Accumulated time in `phase`.
    pub fn total(&self, phase: Phase) -> Duration {
        self.totals[phase.index()]
    }

    /// Sum over all phases.
    pub fn grand_total(&self) -> Duration {
        self.totals.iter().sum()
    }

    /// Percentage breakdown in [`Phase::ALL`] order; zeros when nothing was
    /// recorded.
    pub fn breakdown_percent(&self) -> [f64; 4] {
        let total = self.grand_total().as_secs_f64();
        if total == 0.0 {
            return [0.0; 4];
        }
        let mut out = [0.0; 4];
        for (i, d) in self.totals.iter().enumerate() {
            out[i] = 100.0 * d.as_secs_f64() / total;
        }
        out
    }

    /// Share of total time spent inside the RK method (the paper reports
    /// 76.5% on average).
    pub fn rk_fraction(&self) -> f64 {
        let total = self.grand_total().as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        let rk: f64 = [Phase::RkDiffusion, Phase::RkConvection, Phase::RkOther]
            .iter()
            .map(|&p| self.total(p).as_secs_f64())
            .sum();
        rk / total
    }

    /// Clears all accumulated time.
    pub fn reset(&mut self) {
        self.totals = [Duration::ZERO; 4];
    }
}

impl std::fmt::Display for PhaseProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pct = self.breakdown_percent();
        writeln!(f, "execution time breakdown (cf. paper Fig 2):")?;
        for (i, phase) in Phase::ALL.iter().enumerate() {
            writeln!(
                f,
                "  {:<15} {:>6.2}%  ({:.3?})",
                phase.label(),
                pct[i],
                self.totals[i]
            )?;
        }
        write!(f, "  RK fraction     {:>6.2}%", 100.0 * self.rk_fraction())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profiler_reports_zeros() {
        let p = PhaseProfiler::new();
        assert_eq!(p.breakdown_percent(), [0.0; 4]);
        assert_eq!(p.rk_fraction(), 0.0);
        assert_eq!(p.grand_total(), Duration::ZERO);
    }

    #[test]
    fn percentages_sum_to_hundred() {
        let mut p = PhaseProfiler::new();
        p.add(Phase::RkDiffusion, Duration::from_millis(392));
        p.add(Phase::RkConvection, Duration::from_millis(210));
        p.add(Phase::RkOther, Duration::from_millis(161));
        p.add(Phase::NonRk, Duration::from_millis(237));
        let pct = p.breakdown_percent();
        let sum: f64 = pct.iter().sum();
        assert!((sum - 100.0).abs() < 1e-9);
        assert!((pct[0] - 39.2).abs() < 0.1);
        assert!((p.rk_fraction() - 0.763).abs() < 0.01);
    }

    #[test]
    fn time_accumulates_and_returns_value() {
        let mut p = PhaseProfiler::new();
        let x = p.time(Phase::RkOther, || 41 + 1);
        assert_eq!(x, 42);
        assert!(p.total(Phase::RkOther) > Duration::ZERO);
        p.reset();
        assert_eq!(p.grand_total(), Duration::ZERO);
    }

    #[test]
    fn merge_sums_per_phase() {
        let mut a = PhaseProfiler::new();
        a.add(Phase::RkConvection, Duration::from_millis(10));
        a.add(Phase::NonRk, Duration::from_millis(1));
        let mut b = PhaseProfiler::new();
        b.add(Phase::RkConvection, Duration::from_millis(5));
        b.add(Phase::RkDiffusion, Duration::from_millis(7));
        a.merge(&b);
        assert_eq!(a.total(Phase::RkConvection), Duration::from_millis(15));
        assert_eq!(a.total(Phase::RkDiffusion), Duration::from_millis(7));
        assert_eq!(a.total(Phase::NonRk), Duration::from_millis(1));
        assert_eq!(a.grand_total(), Duration::from_millis(23));
    }

    #[test]
    fn display_contains_labels() {
        let mut p = PhaseProfiler::new();
        p.add(Phase::NonRk, Duration::from_millis(5));
        let s = format!("{p}");
        assert!(s.contains("RK(Diffusion)"));
        assert!(s.contains("Non-RK"));
    }
}

//! Programmatic directive application and the Vitis default recipe.
//!
//! The §III-D optimizer (in the `fem-accel` crate) manipulates kernels
//! through these functions; [`apply_vitis_defaults`] reproduces the
//! baseline configuration the paper compares against (§IV-A):
//! `config_compile -pipeline_loops` (pipeline innermost loops),
//! `config_unroll -tripcount_threshold` (unroll small loops), and
//! `config_array_partition -complete_threshold` (dissolve small arrays).

use crate::ir::{ArrayKind, Kernel, Loop, Partition, StorageKind};
use crate::HlsError;

/// Sets a pipeline directive (target II) on the labeled loop.
///
/// # Errors
///
/// [`HlsError::UnknownName`] if no loop carries the label;
/// [`HlsError::InvalidDirective`] for a zero target.
pub fn set_pipeline(kernel: &mut Kernel, label: &str, target_ii: u32) -> Result<(), HlsError> {
    if target_ii == 0 {
        return Err(HlsError::InvalidDirective(
            "pipeline target II must be ≥ 1".into(),
        ));
    }
    let lp = kernel
        .find_loop_mut(label)
        .ok_or_else(|| HlsError::UnknownName(label.to_string()))?;
    lp.pipeline = Some(target_ii);
    Ok(())
}

/// Sets an unroll directive on the labeled loop.
///
/// # Errors
///
/// [`HlsError::UnknownName`] for a missing loop,
/// [`HlsError::UnrollMismatch`] if `factor` does not divide the trip count.
pub fn set_unroll(kernel: &mut Kernel, label: &str, factor: u32) -> Result<(), HlsError> {
    let lp = kernel
        .find_loop_mut(label)
        .ok_or_else(|| HlsError::UnknownName(label.to_string()))?;
    if factor == 0 || lp.trip_count % factor as u64 != 0 {
        return Err(HlsError::UnrollMismatch {
            label: label.to_string(),
            factor,
            trip: lp.trip_count,
        });
    }
    lp.unroll = Some(factor);
    Ok(())
}

/// Fully unrolls the labeled loop.
///
/// # Errors
///
/// [`HlsError::UnknownName`] for a missing loop, or
/// [`HlsError::InvalidDirective`] if the trip count exceeds `u32::MAX`.
pub fn set_unroll_complete(kernel: &mut Kernel, label: &str) -> Result<(), HlsError> {
    let lp = kernel
        .find_loop_mut(label)
        .ok_or_else(|| HlsError::UnknownName(label.to_string()))?;
    let trip = u32::try_from(lp.trip_count).map_err(|_| {
        HlsError::InvalidDirective(format!(
            "cannot completely unroll `{label}`: trip count too large"
        ))
    })?;
    lp.unroll = Some(trip);
    Ok(())
}

/// Sets the partitioning of an on-chip array.
///
/// # Errors
///
/// [`HlsError::UnknownName`] for a missing array,
/// [`HlsError::InvalidDirective`] when applied to an AXI port or with a
/// zero factor.
pub fn set_partition(
    kernel: &mut Kernel,
    array: &str,
    partition: Partition,
) -> Result<(), HlsError> {
    if let Partition::Cyclic(0) | Partition::Block(0) = partition {
        return Err(HlsError::InvalidDirective(
            "partition factor must be ≥ 1".into(),
        ));
    }
    let decl = kernel
        .array_mut(array)
        .ok_or_else(|| HlsError::UnknownName(array.to_string()))?;
    match &mut decl.kind {
        ArrayKind::OnChip { partition: p, .. } => {
            *p = partition;
            Ok(())
        }
        ArrayKind::Axi { .. } => Err(HlsError::InvalidDirective(format!(
            "array `{array}` is an AXI port and cannot be partitioned"
        ))),
    }
}

/// Sets the storage binding of an on-chip array (BRAM/URAM/LUTRAM).
///
/// # Errors
///
/// [`HlsError::UnknownName`] / [`HlsError::InvalidDirective`] as for
/// [`set_partition`].
pub fn set_storage(kernel: &mut Kernel, array: &str, storage: StorageKind) -> Result<(), HlsError> {
    let decl = kernel
        .array_mut(array)
        .ok_or_else(|| HlsError::UnknownName(array.to_string()))?;
    match &mut decl.kind {
        ArrayKind::OnChip { storage: s, .. } => {
            *s = storage;
            Ok(())
        }
        ArrayKind::Axi { .. } => Err(HlsError::InvalidDirective(format!(
            "array `{array}` is an AXI port and has no on-chip storage"
        ))),
    }
}

/// Reassigns an AXI array to a different bundle (the paper's per-array
/// interface assignment, Fig 4).
///
/// # Errors
///
/// [`HlsError::UnknownName`] for a missing array,
/// [`HlsError::InvalidDirective`] when the array is on-chip.
pub fn assign_bundle(kernel: &mut Kernel, array: &str, bundle: &str) -> Result<(), HlsError> {
    let decl = kernel
        .array_mut(array)
        .ok_or_else(|| HlsError::UnknownName(array.to_string()))?;
    match &mut decl.kind {
        ArrayKind::Axi { bundle: b } => {
            *b = bundle.to_string();
            Ok(())
        }
        ArrayKind::OnChip { .. } => Err(HlsError::InvalidDirective(format!(
            "array `{array}` is on-chip and has no AXI bundle"
        ))),
    }
}

/// The Vitis default optimization configuration (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VitisDefaults {
    /// `config_compile -pipeline_loops`: pipeline innermost loops.
    pub pipeline_loops: bool,
    /// `config_unroll -tripcount_threshold`: fully unroll loops with trip
    /// count at or below this.
    pub unroll_trip_threshold: u64,
    /// `config_array_partition -complete_threshold`: completely partition
    /// arrays with at most this many elements.
    pub partition_elem_threshold: usize,
}

impl Default for VitisDefaults {
    fn default() -> Self {
        VitisDefaults {
            pipeline_loops: true,
            unroll_trip_threshold: 4,
            partition_elem_threshold: 16,
        }
    }
}

/// Applies the Vitis default recipe in place.
///
/// Innermost loops get `pipeline(1)`; loops with small trip counts are
/// fully unrolled; small on-chip arrays are completely partitioned.
pub fn apply_vitis_defaults(kernel: &mut Kernel, cfg: VitisDefaults) {
    fn visit(lp: &mut Loop, cfg: &VitisDefaults) {
        if lp.trip_count <= cfg.unroll_trip_threshold {
            lp.unroll = Some(lp.trip_count as u32);
        }
        if lp.inner.is_empty() {
            if cfg.pipeline_loops && !lp.is_fully_unrolled() {
                lp.pipeline = Some(1);
            }
        } else {
            for inner in &mut lp.inner {
                visit(inner, cfg);
            }
            // Pipeline this loop only if everything below dissolved.
            if cfg.pipeline_loops
                && lp.inner.iter().all(|l| l.is_fully_unrolled())
                && lp.trip_count > cfg.unroll_trip_threshold
            {
                lp.pipeline = Some(1);
            }
        }
    }
    // Collect array names first to avoid aliasing the kernel borrow.
    let small_arrays: Vec<String> = kernel
        .arrays()
        .filter(|a| {
            matches!(a.kind, ArrayKind::OnChip { .. }) && a.elems <= cfg.partition_elem_threshold
        })
        .map(|a| a.name.clone())
        .collect();
    for name in small_arrays {
        let _ = set_partition(kernel, &name, Partition::Complete);
    }
    // Loops.
    let mut body = std::mem::take(kernel_body_mut(kernel));
    for lp in &mut body {
        visit(lp, &cfg);
    }
    *kernel_body_mut(kernel) = body;
}

/// Internal accessor: the IR deliberately keeps `body` private; directives
/// go through `find_loop_mut`. The defaults pass needs whole-body access.
fn kernel_body_mut(kernel: &mut Kernel) -> &mut Vec<Loop> {
    // SAFETY-free: Kernel exposes this via a crate-public helper.
    kernel.body_mut()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{LoopBuilder, OpCount};
    use crate::ops::{DataType, OpKind};
    use crate::schedule::schedule_kernel;

    fn nest() -> Kernel {
        let mut k = Kernel::new("k");
        k.add_array("small", 8, DataType::F64).unwrap();
        k.add_array("big", 4096, DataType::F64).unwrap();
        let inner = LoopBuilder::new("inner", 4)
            .ops(vec![OpCount::new(OpKind::MulAdd, DataType::F64, 2)])
            .reads("small", 1)
            .build();
        let outer = LoopBuilder::new("outer", 1000)
            .nest(inner)
            .reads("big", 1)
            .build();
        k.push_loop(outer);
        k
    }

    #[test]
    fn directive_setters_work() {
        let mut k = nest();
        set_pipeline(&mut k, "outer", 1).unwrap();
        set_unroll_complete(&mut k, "inner").unwrap();
        set_partition(&mut k, "big", Partition::Cyclic(4)).unwrap();
        set_storage(&mut k, "big", StorageKind::Uram).unwrap();
        // 4 unrolled reads of `small` per initiation: needs 4 ports.
        set_partition(&mut k, "small", Partition::Cyclic(2)).unwrap();
        let s = schedule_kernel(&k).unwrap();
        assert_eq!(s.loop_schedule("outer").unwrap().ii, Some(1));
    }

    #[test]
    fn errors_on_unknown_names() {
        let mut k = nest();
        assert!(matches!(
            set_pipeline(&mut k, "ghost", 1),
            Err(HlsError::UnknownName(_))
        ));
        assert!(matches!(
            set_unroll(&mut k, "ghost", 2),
            Err(HlsError::UnknownName(_))
        ));
        assert!(matches!(
            set_partition(&mut k, "ghost", Partition::Complete),
            Err(HlsError::UnknownName(_))
        ));
    }

    #[test]
    fn unroll_must_divide() {
        let mut k = nest();
        assert!(matches!(
            set_unroll(&mut k, "outer", 7),
            Err(HlsError::UnrollMismatch { .. })
        ));
        set_unroll(&mut k, "outer", 8).unwrap();
    }

    #[test]
    fn axi_arrays_reject_onchip_directives() {
        let mut k = Kernel::new("k");
        k.add_axi_array("x", 64, DataType::F64, "gmem_0").unwrap();
        assert!(set_partition(&mut k, "x", Partition::Complete).is_err());
        assert!(set_storage(&mut k, "x", StorageKind::Uram).is_err());
        assign_bundle(&mut k, "x", "gmem_7").unwrap();
        assert_eq!(k.bundles(), vec!["gmem_7"]);
    }

    #[test]
    fn vitis_defaults_pipeline_innermost_and_unroll_small() {
        let mut k = nest();
        apply_vitis_defaults(&mut k, VitisDefaults::default());
        // inner (trip 4 ≤ threshold) fully unrolled; outer pipelined.
        let loops = k.loops();
        let inner = loops.iter().find(|l| l.label == "inner").unwrap();
        assert!(inner.is_fully_unrolled());
        let outer = loops.iter().find(|l| l.label == "outer").unwrap();
        assert_eq!(outer.pipeline, Some(1));
        // small array completely partitioned, big untouched.
        match &k.array("small").unwrap().kind {
            ArrayKind::OnChip { partition, .. } => assert_eq!(*partition, Partition::Complete),
            _ => panic!(),
        }
        match &k.array("big").unwrap().kind {
            ArrayKind::OnChip { partition, .. } => assert_eq!(*partition, Partition::None),
            _ => panic!(),
        }
        // The configured kernel schedules cleanly.
        assert!(schedule_kernel(&k).is_ok());
    }

    #[test]
    fn vitis_defaults_leave_deep_nests_sequential() {
        // A large inner loop cannot be unrolled by the defaults, so the
        // outer loop must stay unpipelined (the §III-B limitation).
        let mut k = Kernel::new("k");
        let inner = LoopBuilder::new("inner", 512)
            .ops(vec![OpCount::new(OpKind::Add, DataType::F64, 1)])
            .build();
        let outer = LoopBuilder::new("outer", 100).nest(inner).build();
        k.push_loop(outer);
        apply_vitis_defaults(&mut k, VitisDefaults::default());
        let loops = k.loops();
        let outer = loops.iter().find(|l| l.label == "outer").unwrap();
        assert_eq!(outer.pipeline, None);
        let inner = loops.iter().find(|l| l.label == "inner").unwrap();
        assert_eq!(inner.pipeline, Some(1));
    }
}

//! The shared immutable mesh context ensemble members solve on.
//!
//! Every simulation needs the same mesh-derived read-only data: the mesh
//! itself, its element basis, the precomputed [`GeometryCache`], the
//! assembled lumped mass vector, the CFL length scale, and — lazily —
//! any [`ShardPlan`]s the execution backends decompose it with. Before
//! this module each `Simulation` owned a private copy of all of it; an
//! ensemble of N members on the same mesh paid N× the memory for
//! bitwise-identical bytes.
//!
//! [`SharedMeshContext`] packages that data behind one immutable
//! `Arc`-shared handle:
//!
//! * the eager parts (mesh, basis, geometry, lumped mass, min spacing)
//!   are computed once in [`SharedMeshContext::build`];
//! * shard plans are memoized per requested `(shards, strategy)` pair
//!   ([`SharedMeshContext::shard_plan`]) behind a mutex, so every member
//!   selecting the same sharded backend reuses one plan.
//!
//! Nothing behind the handle is ever mutated after construction — the
//! lazy plan cache only *adds* entries, and the values it hands out are
//! `Arc`s of immutable data. That immutability is what makes sharing
//! across concurrently running simulations sound, and
//! [`SharedMeshContext::memory_bytes`] is what makes it *measurable*:
//! an ensemble report can quote resident bytes with sharing against the
//! sum each member would privately own without it.

use crate::geometry::GeometryCache;
use crate::hex::HexMesh;
use crate::partition::{PartitionStrategy, ShardPlan};
use crate::MeshError;
use fem_numerics::linalg::Vec3;
use fem_numerics::tensor::HexBasis;
use std::sync::{Arc, Mutex};

/// One memoized shard plan (keyed by the *requested* shard count — the
/// plan itself may clamp to fewer shards on small meshes).
#[derive(Debug)]
struct PlanEntry {
    shards: usize,
    strategy: PartitionStrategy,
    plan: Arc<ShardPlan>,
}

/// Immutable mesh-derived data shared by every simulation on one mesh
/// (see the module docs).
#[derive(Debug)]
pub struct SharedMeshContext {
    mesh: HexMesh,
    basis: HexBasis,
    geometry: GeometryCache,
    lumped_mass: Vec<f64>,
    min_spacing: f64,
    plans: Mutex<Vec<PlanEntry>>,
}

impl SharedMeshContext {
    /// Builds the context for `mesh`: element basis, geometry cache
    /// (every Jacobian validated exactly once), lumped mass matrix (the
    /// diagonal `K`), and the smallest node spacing (CFL length scale).
    ///
    /// # Errors
    ///
    /// [`MeshError`] for a bad basis order or inverted elements.
    pub fn build(mesh: HexMesh) -> Result<Arc<SharedMeshContext>, MeshError> {
        let basis = HexBasis::new(mesh.order())?;
        let geometry = GeometryCache::build(&mesh, &basis)?;
        let npe = mesh.nodes_per_element();
        let n = basis.nodes_per_dim();
        let mut lumped_mass = vec![0.0; mesh.num_nodes()];
        let mut min_spacing = f64::INFINITY;
        let mut coords = vec![Vec3::ZERO; npe];
        for e in 0..mesh.num_elements() {
            let geom = geometry.element(e);
            for (q, &node) in mesh.element_nodes(e).iter().enumerate() {
                lumped_mass[node as usize] += geom.det_w(q);
            }
            mesh.element_coords(e, &mut coords);
            // Node spacing along the i/j/k lines.
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        let q = i + n * (j + n * k);
                        if i + 1 < n {
                            min_spacing = min_spacing.min((coords[q + 1] - coords[q]).norm());
                        }
                        if j + 1 < n {
                            min_spacing = min_spacing.min((coords[q + n] - coords[q]).norm());
                        }
                        if k + 1 < n {
                            min_spacing = min_spacing.min((coords[q + n * n] - coords[q]).norm());
                        }
                    }
                }
            }
        }
        Ok(Arc::new(SharedMeshContext {
            mesh,
            basis,
            geometry,
            lumped_mass,
            min_spacing,
            plans: Mutex::new(Vec::new()),
        }))
    }

    /// The mesh being solved on.
    pub fn mesh(&self) -> &HexMesh {
        &self.mesh
    }

    /// The element basis.
    pub fn basis(&self) -> &HexBasis {
        &self.basis
    }

    /// The precomputed per-element geometry cache.
    pub fn geometry(&self) -> &GeometryCache {
        &self.geometry
    }

    /// The assembled lumped mass vector.
    pub fn lumped_mass(&self) -> &[f64] {
        &self.lumped_mass
    }

    /// Smallest node spacing (CFL length scale).
    pub fn min_spacing(&self) -> f64 {
        self.min_spacing
    }

    /// The shard plan for a requested `(shards, strategy)` pair, built on
    /// first request and memoized (single-batch streaming, like the
    /// sharded execution backends).
    ///
    /// # Errors
    ///
    /// [`MeshError::InvalidParameter`] if `shards == 0`.
    pub fn shard_plan(
        &self,
        shards: usize,
        strategy: PartitionStrategy,
    ) -> Result<Arc<ShardPlan>, MeshError> {
        let mut plans = self.plans.lock().expect("shard-plan cache poisoned");
        if let Some(entry) = plans
            .iter()
            .find(|e| e.shards == shards && e.strategy == strategy)
        {
            return Ok(entry.plan.clone());
        }
        let plan = Arc::new(ShardPlan::with_strategy(
            &self.mesh,
            shards,
            usize::MAX,
            strategy,
        )?);
        plans.push(PlanEntry {
            shards,
            strategy,
            plan: plan.clone(),
        });
        Ok(plan)
    }

    /// Approximate resident bytes of everything behind the handle: mesh,
    /// geometry cache, lumped mass, plus whatever shard plans have been
    /// built so far. An ensemble of N
    /// same-mesh members sharing one context holds this once instead of
    /// N times.
    pub fn memory_bytes(&self) -> usize {
        let plans = self
            .plans
            .lock()
            .expect("shard-plan cache poisoned")
            .iter()
            .map(|e| e.plan.memory_bytes())
            .sum::<usize>();
        self.mesh.memory_bytes()
            + self.geometry.memory_bytes()
            + self.lumped_mass.len() * std::mem::size_of::<f64>()
            + plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::BoxMeshBuilder;

    #[test]
    fn build_assembles_mass_and_spacing() {
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let ctx = SharedMeshContext::build(mesh).unwrap();
        assert_eq!(ctx.lumped_mass().len(), ctx.mesh().num_nodes());
        assert!(ctx.lumped_mass().iter().all(|&m| m > 0.0));
        // Periodic [0, 2π]³ with 4 elements per axis: spacing 2π/4.
        let h = std::f64::consts::TAU / 4.0;
        assert!((ctx.min_spacing() - h).abs() < 1e-12 * h);
        // The lumped mass sums to the box volume (partition of unity).
        let vol: f64 = ctx.lumped_mass().iter().sum();
        let expect = std::f64::consts::TAU.powi(3);
        assert!((vol - expect).abs() < 1e-9 * expect, "{vol} vs {expect}");
    }

    #[test]
    fn plans_are_built_once_and_shared() {
        let mesh = BoxMeshBuilder::tgv_box(3).build().unwrap();
        let ctx = SharedMeshContext::build(mesh).unwrap();
        let p1 = ctx.shard_plan(4, PartitionStrategy::Contiguous).unwrap();
        let p2 = ctx.shard_plan(4, PartitionStrategy::Contiguous).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "same request must hit the cache");
        let p3 = ctx.shard_plan(4, PartitionStrategy::Partitioned).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p3), "strategy is part of the key");
        assert!(ctx.shard_plan(0, PartitionStrategy::Contiguous).is_err());
    }

    #[test]
    fn memory_bytes_counts_lazy_structures_as_they_appear() {
        let mesh = BoxMeshBuilder::tgv_box(3).build().unwrap();
        let ctx = SharedMeshContext::build(mesh).unwrap();
        let base = ctx.memory_bytes();
        assert!(base > 0);
        ctx.shard_plan(2, PartitionStrategy::Contiguous).unwrap();
        let with_plan = ctx.memory_bytes();
        assert!(with_plan > base);
        ctx.shard_plan(2, PartitionStrategy::Contiguous).unwrap();
        assert_eq!(ctx.memory_bytes(), with_plan, "a cache hit adds nothing");
    }
}

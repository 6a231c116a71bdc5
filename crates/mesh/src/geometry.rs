//! Precomputed per-element geometry, stored in the order the element
//! batches read it.
//!
//! The mesh is static over a simulation, yet the seed hot path rebuilt
//! every element's Jacobians from nodal coordinates on **every RHS
//! evaluation of every RK stage**. Karp et al. (arXiv:2108.12188) and the
//! spectral-element FPGA flow (arXiv:2010.13463) instead precompute the
//! geometric factors once and stream them — [`GeometryCache`] is that
//! restructuring for the host solver: one [`HexMesh::fill_element_geometry`]
//! sweep at construction and borrowed factors afterwards.
//!
//! The host assembly evaluates four elements at a time, one per lane of
//! an [`F64x4`]. The cache stores the factors in that shape, the one layout
//! of element geometry ([`ElementGeometry`]): elements `4g … 4g + 3` form
//! group `g`, and node `q` of the group holds one `[[F64x4; 3]; 3]`
//! (`J⁻ᵀ`) and one [`F64x4`] (`det·w`) whose lane `j` belongs to element
//! `4g + j`. Every element is lane `e % 4` of group `e / 4`. When the
//! element count is not a multiple of four, the last group's spare lanes
//! hold zero factors, which add nothing to a volume or a mass. A batch
//! whose elements are a group's, in order, borrows the group's factors
//! ([`GeometryCache::group`]) as the kernels read them, with no per-batch
//! transpose; [`GeometryCache::element`] reads any one element as its
//! lane.

use crate::hex::{ElementGeometry, GeomRef, GeometryScratch};
use crate::{HexMesh, MeshError};
use fem_numerics::linalg::Mat3;
use fem_numerics::tensor::{F64x4, HexBasis, Lane};
use rayon::prelude::*;

/// Elements per group: the lanes of an [`F64x4`].
const GROUP: usize = F64x4::WIDTH;

/// All per-element geometric factors of a mesh, precomputed once.
///
/// Group `g` (elements `4g … 4g + 3`) occupies the node range
/// `[g·npe, (g+1)·npe)` of the lane-interleaved arrays, so a four-lane
/// batch streams its factors with unit stride — the host-side analogue
/// of the paper's LOAD-Element burst. See the module docs.
///
/// # Example
///
/// ```
/// use fem_mesh::generator::BoxMeshBuilder;
/// use fem_mesh::geometry::GeometryCache;
/// use fem_numerics::tensor::HexBasis;
///
/// let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
/// let basis = HexBasis::new(mesh.order()).unwrap();
/// let cache = GeometryCache::build(&mesh, &basis).unwrap();
/// assert_eq!(cache.num_elements(), mesh.num_elements());
/// assert_eq!(cache.num_groups(), mesh.num_elements() / 4);
/// let exact = std::f64::consts::TAU.powi(3);
/// assert!((cache.total_volume() - exact).abs() < 1e-9 * exact);
/// ```
#[derive(Debug, Clone)]
pub struct GeometryCache {
    num_elements: usize,
    nodes_per_element: usize,
    /// `J⁻ᵀ` per group node, lane `j` = the group's element `j`.
    inv_jt: Vec<[[F64x4; 3]; 3]>,
    /// `det(J) · w` per group node, lane `j` = the group's element `j`.
    det_w: Vec<F64x4>,
}

impl GeometryCache {
    /// Precomputes the geometric factors of every element of `mesh`.
    ///
    /// # Errors
    ///
    /// [`MeshError::InvertedElement`] if any nodal Jacobian determinant is
    /// non-positive — the same validation the per-evaluation path did,
    /// now performed exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `basis.order() != mesh.order()`.
    pub fn build(mesh: &HexMesh, basis: &HexBasis) -> Result<Self, MeshError> {
        assert_eq!(basis.order(), mesh.order(), "basis order mismatch");
        let ne = mesh.num_elements();
        let npe = mesh.nodes_per_element();
        let groups = ne.div_ceil(GROUP);
        let mut scratch = GeometryScratch::new(npe);
        let mut geom = ElementGeometry::with_capacity(npe);
        let mut inv_jt = Vec::with_capacity(groups * npe);
        let mut det_w = Vec::with_capacity(groups * npe);
        for g in 0..groups {
            let lanes = GROUP.min(ne - g * GROUP);
            if lanes < GROUP {
                // The spare lanes of the last group hold zero factors.
                geom = ElementGeometry::with_capacity(npe);
            }
            for j in 0..lanes {
                mesh.fill_element_geometry(g * GROUP + j, basis, &mut scratch, &mut geom, j)?;
            }
            inv_jt.extend_from_slice(&geom.inv_jt);
            det_w.extend_from_slice(&geom.det_w);
        }
        Ok(GeometryCache {
            num_elements: ne,
            nodes_per_element: npe,
            inv_jt,
            det_w,
        })
    }

    /// Number of cached elements.
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// Nodes per element the cache was built for.
    pub fn nodes_per_element(&self) -> usize {
        self.nodes_per_element
    }

    /// Number of four-element groups, `num_elements().div_ceil(4)`.
    pub fn num_groups(&self) -> usize {
        self.num_elements.div_ceil(GROUP)
    }

    /// The lane-interleaved `J⁻ᵀ` and `det·w` of group `g`, one entry per
    /// element node; lane `j` belongs to element `4g + j`, and the spare
    /// lanes of a last group of 1–3 elements are zero.
    ///
    /// # Panics
    ///
    /// Panics if `g >= num_groups()`.
    #[inline(always)]
    pub fn group(&self, g: usize) -> (&[[[F64x4; 3]; 3]], &[F64x4]) {
        let s = self.nodes_per_element;
        (
            &self.inv_jt[g * s..(g + 1) * s],
            &self.det_w[g * s..(g + 1) * s],
        )
    }

    /// The factors of element `e` as a kernel-ready [`GeomRef`]: lane
    /// `e % 4` of group `e / 4`.
    ///
    /// # Panics
    ///
    /// Panics if `e >= num_elements()`.
    #[inline(always)]
    pub fn element(&self, e: usize) -> GeomRef<'_> {
        assert!(
            e < self.num_elements,
            "element {e} of {}",
            self.num_elements
        );
        let (inv_jt, det_w) = self.group(e / GROUP);
        GeomRef::lane(inv_jt, det_w, e % GROUP)
    }

    /// Cached bytes per element node: one `Mat3` (`J⁻ᵀ`) plus one `f64`
    /// (`det(J)·w`), one lane of a group node. The single source of truth
    /// every other memory accounting (streaming footprints, accelerator
    /// workload quotes) is tested against.
    pub const BYTES_PER_ELEMENT_NODE: usize =
        std::mem::size_of::<Mat3>() + std::mem::size_of::<f64>();

    /// Heap bytes held by the cached factor arrays.
    ///
    /// [`GeometryCache::BYTES_PER_ELEMENT_NODE`] (80 B) per node of every
    /// lane of every group, the zero spare lanes of a last group of 1–3
    /// elements included: `4 · num_groups() · npe · 80` B, e.g. ~1.1 MiB
    /// for the 12³-element TGV box — the memory the cache trades for
    /// skipping the Jacobian rebuild on every RK stage.
    pub fn memory_bytes(&self) -> usize {
        self.inv_jt.len() * std::mem::size_of::<[[F64x4; 3]; 3]>()
            + self.det_w.len() * std::mem::size_of::<F64x4>()
    }

    /// Total mesh volume `Σ det(J)·w` over all cached quadrature nodes —
    /// a cheap integrity check against the analytic domain volume.
    pub fn total_volume(&self) -> f64 {
        self.det_w.par_iter().map(|w| w.0.iter().sum::<f64>()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::BoxMeshBuilder;
    use fem_numerics::linalg::Vec3;

    /// Meshes whose element counts leave 3, 2, 1 and 0 elements in the
    /// last group: 27, 30, 13 and 16 elements. A smooth displacement of
    /// every node gives each element its own geometry.
    fn ragged_meshes(order: usize) -> Vec<HexMesh> {
        [(3, 3, 3), (5, 3, 2), (13, 1, 1), (4, 2, 2)]
            .into_iter()
            .map(|(nx, ny, nz)| {
                let mesh = BoxMeshBuilder::new()
                    .elements(nx, ny, nz)
                    .order(order)
                    .periodic(false, false, false)
                    .build()
                    .unwrap();
                let coords = mesh
                    .coords()
                    .iter()
                    .map(|p| {
                        *p + 0.02
                            * Vec3::new(
                                (3.1 * p.y + 1.7 * p.z).sin(),
                                (2.3 * p.z + 0.7 * p.x).sin(),
                                (1.9 * p.x + 2.9 * p.y).sin(),
                            )
                    })
                    .collect();
                let conn = mesh.connectivity().to_vec();
                HexMesh::new(order, coords, conn, Vec::new(), [None; 3]).unwrap()
            })
            .collect()
    }

    fn mat_bits(m: Mat3) -> [[u64; 3]; 3] {
        m.m.map(|r| r.map(f64::to_bits))
    }

    #[test]
    fn cache_matches_per_element_recompute() {
        for order in 1..=3 {
            let basis = HexBasis::new(order).unwrap();
            for mesh in ragged_meshes(order) {
                let ne = mesh.num_elements();
                let cache = GeometryCache::build(&mesh, &basis).unwrap();
                assert_eq!(cache.num_elements(), ne);
                assert_eq!(cache.nodes_per_element(), mesh.nodes_per_element());
                assert_eq!(cache.num_groups(), ne.div_ceil(4));
                let npe = mesh.nodes_per_element();
                let mut scratch = GeometryScratch::new(npe);
                let mut geom = ElementGeometry::with_capacity(npe);
                for e in 0..ne {
                    let lane = e % 4;
                    mesh.fill_element_geometry(e, &basis, &mut scratch, &mut geom, lane)
                        .unwrap();
                    let (want, got) = (geom.view(lane), cache.element(e));
                    assert_eq!(got.len(), npe);
                    for q in 0..npe {
                        let at = format!("e={e} q={q} order={order} of {ne}");
                        assert_eq!(
                            got.det_w(q).to_bits(),
                            want.det_w(q).to_bits(),
                            "det_w {at}"
                        );
                        assert_eq!(
                            mat_bits(got.inv_jt(q)),
                            mat_bits(want.inv_jt(q)),
                            "inv_jt {at}"
                        );
                    }
                }
                // Every spare lane of the last group is zero.
                let (inv_jt, det_w) = cache.group(cache.num_groups() - 1);
                for lane in (ne - 1) % 4 + 1..4 {
                    for q in 0..npe {
                        assert_eq!(det_w[q].lane(lane).to_bits(), 0, "det_w pad {lane} of {ne}");
                        for x in inv_jt[q].iter().flatten() {
                            assert_eq!(x.lane(lane).to_bits(), 0, "inv_jt pad {lane} of {ne}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lumped_mass_is_bitwise_the_element_order_sum() {
        for order in 1..=3 {
            let basis = HexBasis::new(order).unwrap();
            for mesh in ragged_meshes(order) {
                let npe = mesh.nodes_per_element();
                let mut scratch = GeometryScratch::new(npe);
                let mut geom = ElementGeometry::with_capacity(npe);
                let mut mass = vec![0.0f64; mesh.num_nodes()];
                for e in 0..mesh.num_elements() {
                    mesh.fill_element_geometry(e, &basis, &mut scratch, &mut geom, 0)
                        .unwrap();
                    for (q, &n) in mesh.element_nodes(e).iter().enumerate() {
                        mass[n as usize] += geom.view(0).det_w(q);
                    }
                }
                let ctx = crate::SharedMeshContext::build(mesh).unwrap();
                let bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(ctx.lumped_mass()), bits(&mass), "order {order}");
            }
        }
    }

    #[test]
    fn memory_accounting_is_exact() {
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let basis = HexBasis::new(1).unwrap();
        let cache = GeometryCache::build(&mesh, &basis).unwrap();
        let per_node = std::mem::size_of::<Mat3>() + std::mem::size_of::<f64>();
        assert_eq!(per_node, GeometryCache::BYTES_PER_ELEMENT_NODE);
        assert_eq!(
            cache.memory_bytes(),
            mesh.num_elements() * mesh.nodes_per_element() * per_node
        );
        // A ragged mesh's last group is padded to four lanes.
        for mesh in ragged_meshes(2) {
            let cache = GeometryCache::build(&mesh, &HexBasis::new(2).unwrap()).unwrap();
            assert_eq!(
                cache.memory_bytes(),
                mesh.num_elements().div_ceil(4) * 4 * mesh.nodes_per_element() * per_node
            );
        }
    }

    #[test]
    fn total_volume_matches_domain() {
        // 125 elements: 32 groups, the last with one element and three
        // zero lanes.
        let mesh = BoxMeshBuilder::tgv_box(5).build().unwrap();
        let basis = HexBasis::new(1).unwrap();
        let cache = GeometryCache::build(&mesh, &basis).unwrap();
        let exact = std::f64::consts::TAU.powi(3);
        assert!((cache.total_volume() - exact).abs() < 1e-9 * exact);
    }

    #[test]
    fn inverted_elements_are_rejected_at_build() {
        use fem_numerics::linalg::Vec3;
        let coords = vec![
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 1.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(1.0, 0.0, 1.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(0.0, 1.0, 1.0),
        ];
        let mesh = HexMesh::new(1, coords, (0..8u32).collect(), Vec::new(), [None; 3]).unwrap();
        let basis = HexBasis::new(1).unwrap();
        assert!(matches!(
            GeometryCache::build(&mesh, &basis),
            Err(MeshError::InvertedElement { .. })
        ));
    }
}

//! The unstructured hexahedral mesh container.
//!
//! A [`HexMesh`] stores node coordinates and element→node connectivity for
//! hexahedral spectral elements of arbitrary polynomial order. Periodic
//! domains (the Taylor-Green Vortex box) are handled by *wrapped*
//! coordinates plus nearest-image unwrapping when an element's physical
//! geometry is needed.

use crate::MeshError;
use fem_numerics::linalg::{Mat3, Vec3};
use fem_numerics::tensor::{F64x4, HexBasis, Lane};

/// Bit flags marking which boundary face(s) a node lies on.
///
/// Generators set these; solvers use them for Dirichlet conditions.
/// A node can sit on up to three faces (a box corner).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BoundaryTag(pub u8);

impl BoundaryTag {
    /// Not on any boundary.
    pub const INTERIOR: BoundaryTag = BoundaryTag(0);
    /// Face x = min.
    pub const X_MIN: BoundaryTag = BoundaryTag(1);
    /// Face x = max.
    pub const X_MAX: BoundaryTag = BoundaryTag(2);
    /// Face y = min.
    pub const Y_MIN: BoundaryTag = BoundaryTag(4);
    /// Face y = max.
    pub const Y_MAX: BoundaryTag = BoundaryTag(8);
    /// Face z = min.
    pub const Z_MIN: BoundaryTag = BoundaryTag(16);
    /// Face z = max.
    pub const Z_MAX: BoundaryTag = BoundaryTag(32);

    /// Whether any boundary bit is set.
    pub fn is_boundary(self) -> bool {
        self.0 != 0
    }

    /// Whether all bits of `other` are set in `self`.
    pub fn contains(self, other: BoundaryTag) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two tags.
    pub fn union(self, other: BoundaryTag) -> BoundaryTag {
        BoundaryTag(self.0 | other.0)
    }
}

/// Per-node geometric factors of one four-element group: the one layout
/// every reader of element geometry shares.
///
/// For each element node `q`: the transposed inverse Jacobian
/// `inv_jt[q]` (maps reference gradients to physical gradients) and the
/// quadrature factor `det_w[q] = det(J_q) · w_q` (volume scaling times GLL
/// weight), each an [`F64x4`] whose lane `j` belongs to the group's element
/// `j`. [`HexMesh::fill_element_geometry`] writes one element into one
/// lane and [`ElementGeometry::view`] reads one lane back. A group of the
/// [`GeometryCache`](crate::geometry::GeometryCache) has this shape, and so
/// does the geometry buffer of an element batch. Reused across elements to
/// avoid per-element allocation.
#[derive(Debug, Clone, Default)]
pub struct ElementGeometry {
    /// `J⁻ᵀ` at each element node, lane `j` = the group's element `j`.
    pub inv_jt: Vec<[[F64x4; 3]; 3]>,
    /// `det(J) · w` at each element node, lane `j` = the group's element `j`.
    pub det_w: Vec<F64x4>,
}

impl ElementGeometry {
    /// Creates zeroed storage for a group of elements with
    /// `nodes_per_element` nodes.
    pub fn with_capacity(nodes_per_element: usize) -> Self {
        ElementGeometry {
            inv_jt: vec![[[F64x4::ZERO; 3]; 3]; nodes_per_element],
            det_w: vec![F64x4::ZERO; nodes_per_element],
        }
    }

    /// The factors of the group's element `lane`, in the form the FEM
    /// kernels consume.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 4`.
    pub fn view(&self, lane: usize) -> GeomRef<'_> {
        GeomRef::lane(&self.inv_jt, &self.det_w, lane)
    }
}

/// One element's geometric factors, borrowed: lane `lane` of a four-element
/// group's arrays, from on-the-fly geometry ([`ElementGeometry::view`]) or
/// from the precomputed cache
/// ([`crate::geometry::GeometryCache::element`]).
#[derive(Debug, Clone, Copy)]
pub struct GeomRef<'a> {
    inv_jt: &'a [[[F64x4; 3]; 3]],
    det_w: &'a [F64x4],
    lane: usize,
}

impl<'a> GeomRef<'a> {
    /// Lane `lane` of a group's factors.
    pub(crate) fn lane(inv_jt: &'a [[[F64x4; 3]; 3]], det_w: &'a [F64x4], lane: usize) -> Self {
        assert!(lane < F64x4::WIDTH, "lane {lane} of a four-lane group");
        assert_eq!(inv_jt.len(), det_w.len(), "one factor pair per node");
        GeomRef {
            inv_jt,
            det_w,
            lane,
        }
    }

    /// Number of element nodes.
    pub fn len(&self) -> usize {
        self.det_w.len()
    }

    /// Whether the element has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first `npe` nodes. Re-sliced once, the view lets a node loop
    /// bounded by `npe` read every node without a bounds check.
    ///
    /// # Panics
    ///
    /// Panics if `npe > len()`.
    #[inline(always)]
    pub fn nodes(self, npe: usize) -> Self {
        GeomRef {
            inv_jt: &self.inv_jt[..npe],
            det_w: &self.det_w[..npe],
            lane: self.lane,
        }
    }

    /// `J⁻ᵀ` at node `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q >= len()`.
    #[inline(always)]
    pub fn inv_jt(&self, q: usize) -> Mat3 {
        let m = &self.inv_jt[q];
        // `lane < 4` by construction; the modulo tells the compiler so,
        // which drops a bounds check per load.
        let lane = self.lane % F64x4::WIDTH;
        Mat3 {
            m: std::array::from_fn(|r| std::array::from_fn(|c| m[r][c].0[lane])),
        }
    }

    /// `det(J) · w` at node `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q >= len()`.
    #[inline(always)]
    pub fn det_w(&self, q: usize) -> f64 {
        self.det_w[q].0[self.lane % F64x4::WIDTH]
    }
}

/// An unstructured mesh of hexahedral spectral elements.
///
/// # Example
///
/// ```
/// use fem_mesh::generator::BoxMeshBuilder;
/// let mesh = BoxMeshBuilder::tgv_box(3).build().unwrap();
/// assert_eq!(mesh.nodes_per_element(), 8);
/// let nodes = mesh.element_nodes(0);
/// assert_eq!(nodes.len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HexMesh {
    order: usize,
    coords: Vec<Vec3>,
    connectivity: Vec<u32>,
    boundary_tags: Vec<BoundaryTag>,
    /// Domain extent per axis for periodic axes (`None` = not periodic).
    periodic_extent: [Option<f64>; 3],
}

impl HexMesh {
    /// Builds a mesh from raw parts and validates connectivity.
    ///
    /// `boundary_tags` may be empty (all nodes treated as interior) or one
    /// tag per node.
    ///
    /// # Errors
    ///
    /// * [`MeshError::RaggedConnectivity`] if `connectivity.len()` is not a
    ///   multiple of `(order+1)³`.
    /// * [`MeshError::NodeIndexOutOfRange`] if an element references a
    ///   missing node.
    /// * [`MeshError::InvalidParameter`] if `order == 0`, a periodic extent
    ///   is non-positive, or the tag table has the wrong length.
    pub fn new(
        order: usize,
        coords: Vec<Vec3>,
        connectivity: Vec<u32>,
        boundary_tags: Vec<BoundaryTag>,
        periodic_extent: [Option<f64>; 3],
    ) -> Result<Self, MeshError> {
        if order == 0 {
            return Err(MeshError::InvalidParameter(
                "polynomial order must be at least 1".into(),
            ));
        }
        for ext in periodic_extent.iter().flatten() {
            if *ext <= 0.0 {
                return Err(MeshError::InvalidParameter(format!(
                    "periodic extent must be positive, got {ext}"
                )));
            }
        }
        let stride = (order + 1).pow(3);
        if !connectivity.len().is_multiple_of(stride) {
            return Err(MeshError::RaggedConnectivity {
                len: connectivity.len(),
                stride,
            });
        }
        if !boundary_tags.is_empty() && boundary_tags.len() != coords.len() {
            return Err(MeshError::InvalidParameter(format!(
                "boundary tag table has {} entries for {} nodes",
                boundary_tags.len(),
                coords.len()
            )));
        }
        let num_nodes = coords.len();
        for (pos, &n) in connectivity.iter().enumerate() {
            if n as usize >= num_nodes {
                return Err(MeshError::NodeIndexOutOfRange {
                    element: pos / stride,
                    node: n,
                    num_nodes,
                });
            }
        }
        Ok(HexMesh {
            order,
            coords,
            connectivity,
            boundary_tags,
            periodic_extent,
        })
    }

    /// Polynomial order of the elements.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.coords.len()
    }

    /// Number of elements.
    pub fn num_elements(&self) -> usize {
        self.connectivity.len() / self.nodes_per_element()
    }

    /// Nodes per element, `(order+1)³`.
    pub fn nodes_per_element(&self) -> usize {
        (self.order + 1).pow(3)
    }

    /// Node coordinates table.
    pub fn coords(&self) -> &[Vec3] {
        &self.coords
    }

    /// Raw connectivity, stride [`nodes_per_element`](Self::nodes_per_element).
    pub fn connectivity(&self) -> &[u32] {
        &self.connectivity
    }

    /// Global node ids of element `e` in lexicographic (i,j,k) order.
    ///
    /// # Panics
    ///
    /// Panics if `e >= num_elements()`.
    pub fn element_nodes(&self, e: usize) -> &[u32] {
        let s = self.nodes_per_element();
        &self.connectivity[e * s..(e + 1) * s]
    }

    /// Periodic extent per axis (`None` for walls).
    pub fn periodic_extent(&self) -> [Option<f64>; 3] {
        self.periodic_extent
    }

    /// Boundary tag of node `n` ([`BoundaryTag::INTERIOR`] when the mesh has
    /// no tag table).
    pub fn boundary_tag(&self, n: usize) -> BoundaryTag {
        self.boundary_tags
            .get(n)
            .copied()
            .unwrap_or(BoundaryTag::INTERIOR)
    }

    /// Ids of all nodes with a non-trivial boundary tag, in ascending
    /// order with each node listed exactly once — consumers like
    /// `DirichletBc::from_tagged_nodes` rely on this to visit every
    /// boundary node once (corner/edge nodes carry a multi-face union
    /// tag rather than appearing per face).
    pub fn boundary_nodes(&self) -> Vec<u32> {
        self.boundary_tags
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_boundary())
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Writes the *unwrapped* physical coordinates of element `e` into
    /// `out` (length `nodes_per_element()`).
    ///
    /// On periodic axes, nodes are shifted by ± the domain extent so the
    /// element is geometrically contiguous around its first node (nearest
    /// image convention) — required for elements that straddle the
    /// periodic seam. Elements must span *less than half* the periodic
    /// extent on every periodic axis or the nearest image is ambiguous
    /// (the box generator enforces ≥ 3 elements per periodic axis).
    ///
    /// # Panics
    ///
    /// Panics if `out` has the wrong length or `e` is out of range.
    pub fn element_coords(&self, e: usize, out: &mut [Vec3]) {
        let nodes = self.element_nodes(e);
        assert_eq!(out.len(), nodes.len(), "output length");
        let anchor = self.coords[nodes[0] as usize];
        for (slot, &n) in out.iter_mut().zip(nodes) {
            let mut p = self.coords[n as usize];
            for (axis, ext) in self.periodic_extent.iter().enumerate() {
                if let Some(len) = ext {
                    let a = anchor.component(axis);
                    let mut v = p.component(axis);
                    if v - a > len / 2.0 {
                        v -= len;
                    } else if a - v > len / 2.0 {
                        v += len;
                    }
                    match axis {
                        0 => p.x = v,
                        1 => p.y = v,
                        _ => p.z = v,
                    }
                }
            }
            *slot = p;
        }
    }

    /// Computes the per-node geometric factors of element `e` into lane
    /// `lane` of the group buffer `geom`, leaving its other lanes as they
    /// are.
    ///
    /// The Jacobian at each node is assembled from the reference gradients
    /// of the coordinate fields; lane `lane` of `geom.det_w[q]` combines
    /// `det(J)` with the 3D GLL weight of node `q`.
    ///
    /// # Errors
    ///
    /// [`MeshError::InvertedElement`] if any nodal Jacobian determinant is
    /// non-positive.
    ///
    /// # Panics
    ///
    /// Panics if `basis.order() != self.order()`, if `lane >= 4`, or if
    /// `geom`/`scratch` were not sized for this mesh's elements
    /// ([`ElementGeometry::with_capacity`], [`GeometryScratch::new`]).
    pub fn fill_element_geometry(
        &self,
        e: usize,
        basis: &HexBasis,
        scratch: &mut GeometryScratch,
        geom: &mut ElementGeometry,
        lane: usize,
    ) -> Result<(), MeshError> {
        assert_eq!(basis.order(), self.order, "basis order mismatch");
        let nn = self.nodes_per_element();
        assert_eq!(geom.inv_jt.len(), nn, "geometry storage size");
        assert!(lane < F64x4::WIDTH, "lane {lane} of a four-element group");
        self.element_coords(e, &mut scratch.coords);
        for q in 0..nn {
            scratch.x[q] = scratch.coords[q].x;
            scratch.y[q] = scratch.coords[q].y;
            scratch.z[q] = scratch.coords[q].z;
        }
        basis.reference_gradient(&scratch.x, &mut scratch.gx);
        basis.reference_gradient(&scratch.y, &mut scratch.gy);
        basis.reference_gradient(&scratch.z, &mut scratch.gz);
        let n = basis.nodes_per_dim();
        for q in 0..nn {
            // J[r][c] = ∂x_r/∂ξ_c
            let j = Mat3::from_rows(scratch.gx[q], scratch.gy[q], scratch.gz[q]);
            let det = j.det();
            if det <= 0.0 {
                return Err(MeshError::InvertedElement { element: e, det });
            }
            let inv = j
                .inverse()
                .expect("positive determinant implies invertibility");
            let inv_jt = inv.transpose();
            for (d, &s) in geom.inv_jt[q]
                .iter_mut()
                .flatten()
                .zip(inv_jt.m.iter().flatten())
            {
                *d.lane_mut(lane) = s;
            }
            let i = q % n;
            let jj = (q / n) % n;
            let k = q / (n * n);
            *geom.det_w[q].lane_mut(lane) = det * basis.weight_3d(i, jj, k);
        }
        Ok(())
    }

    /// Maximum over elements of `max_node_id - min_node_id` — the
    /// connectivity bandwidth that node reordering tries to minimize.
    pub fn bandwidth(&self) -> usize {
        let s = self.nodes_per_element();
        (0..self.num_elements())
            .map(|e| {
                let nodes = &self.connectivity[e * s..(e + 1) * s];
                let min = nodes.iter().min().copied().unwrap_or(0);
                let max = nodes.iter().max().copied().unwrap_or(0);
                (max - min) as usize
            })
            .max()
            .unwrap_or(0)
    }

    /// Node-to-node adjacency lists (nodes sharing an element), sorted and
    /// deduplicated. Used by reordering and by the CPU cache model.
    pub fn node_adjacency(&self) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); self.num_nodes()];
        let s = self.nodes_per_element();
        for e in 0..self.num_elements() {
            let nodes = &self.connectivity[e * s..(e + 1) * s];
            for &a in nodes {
                for &b in nodes {
                    if a != b {
                        adj[a as usize].push(b);
                    }
                }
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        adj
    }

    /// Renumbers nodes with `perm`, where `perm[old] = new`. Returns the
    /// renumbered mesh.
    ///
    /// # Errors
    ///
    /// [`MeshError::InvalidParameter`] if `perm` is not a permutation of
    /// `0..num_nodes()`.
    pub fn renumber_nodes(&self, perm: &[u32]) -> Result<HexMesh, MeshError> {
        let n = self.num_nodes();
        if perm.len() != n {
            return Err(MeshError::InvalidParameter(format!(
                "permutation has {} entries for {} nodes",
                perm.len(),
                n
            )));
        }
        let mut seen = vec![false; n];
        for &p in perm {
            let idx = p as usize;
            if idx >= n || seen[idx] {
                return Err(MeshError::InvalidParameter(
                    "not a valid permutation".into(),
                ));
            }
            seen[idx] = true;
        }
        let mut coords = vec![Vec3::ZERO; n];
        for (old, &new) in perm.iter().enumerate() {
            coords[new as usize] = self.coords[old];
        }
        let mut tags = Vec::new();
        if !self.boundary_tags.is_empty() {
            tags = vec![BoundaryTag::INTERIOR; n];
            for (old, &new) in perm.iter().enumerate() {
                tags[new as usize] = self.boundary_tags[old];
            }
        }
        let connectivity = self
            .connectivity
            .iter()
            .map(|&c| perm[c as usize])
            .collect();
        HexMesh::new(self.order, coords, connectivity, tags, self.periodic_extent)
    }

    /// Approximate memory the paper's accelerator must stream per node per
    /// RK stage, in bytes: the five conserved fields plus primitives
    /// (u, T, p) and viscosity — the arrays shown in the paper's Fig 4
    /// (`rho`, `Tem`, `mu_fluid`, `E`, …), at f64 width.
    pub fn bytes_per_node() -> usize {
        // rho, mom(x3), E, u(x3), T, p, mu  →  11 doubles
        11 * std::mem::size_of::<f64>()
    }

    /// Approximate resident bytes of the mesh container (coordinates,
    /// connectivity, boundary tags) — what one more private copy costs
    /// an ensemble member that does not share the mesh through a
    /// [`crate::context::SharedMeshContext`].
    pub fn memory_bytes(&self) -> usize {
        self.coords.len() * std::mem::size_of::<Vec3>()
            + self.connectivity.len() * std::mem::size_of::<u32>()
            + self.boundary_tags.len() * std::mem::size_of::<BoundaryTag>()
    }
}

/// Reusable scratch buffers for [`HexMesh::fill_element_geometry`].
#[derive(Debug, Clone)]
pub struct GeometryScratch {
    coords: Vec<Vec3>,
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    gx: Vec<Vec3>,
    gy: Vec<Vec3>,
    gz: Vec<Vec3>,
}

impl GeometryScratch {
    /// Allocates scratch for elements with `nodes_per_element` nodes.
    pub fn new(nodes_per_element: usize) -> Self {
        GeometryScratch {
            coords: vec![Vec3::ZERO; nodes_per_element],
            x: vec![0.0; nodes_per_element],
            y: vec![0.0; nodes_per_element],
            z: vec![0.0; nodes_per_element],
            gx: vec![Vec3::ZERO; nodes_per_element],
            gy: vec![Vec3::ZERO; nodes_per_element],
            gz: vec![Vec3::ZERO; nodes_per_element],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::BoxMeshBuilder;

    fn unit_cube_mesh() -> HexMesh {
        // One trilinear element on [0,1]³, nodes in lexicographic order.
        let coords = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(1.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(1.0, 0.0, 1.0),
            Vec3::new(0.0, 1.0, 1.0),
            Vec3::new(1.0, 1.0, 1.0),
        ];
        let conn = (0..8u32).collect();
        HexMesh::new(1, coords, conn, Vec::new(), [None; 3]).unwrap()
    }

    #[test]
    fn validation_rejects_bad_connectivity() {
        let coords = vec![Vec3::ZERO; 4];
        let err = HexMesh::new(1, coords.clone(), vec![0, 1, 2], Vec::new(), [None; 3]);
        assert!(matches!(err, Err(MeshError::RaggedConnectivity { .. })));
        let err = HexMesh::new(
            1,
            coords,
            vec![0, 1, 2, 3, 4, 5, 6, 99],
            Vec::new(),
            [None; 3],
        );
        assert!(matches!(err, Err(MeshError::NodeIndexOutOfRange { .. })));
    }

    #[test]
    fn validation_rejects_order_zero_and_bad_extent() {
        assert!(HexMesh::new(0, vec![], vec![], Vec::new(), [None; 3]).is_err());
        assert!(HexMesh::new(
            1,
            vec![Vec3::ZERO; 8],
            (0..8u32).collect(),
            Vec::new(),
            [Some(-1.0), None, None]
        )
        .is_err());
    }

    #[test]
    fn unit_cube_geometry() {
        let mesh = unit_cube_mesh();
        let basis = HexBasis::new(1).unwrap();
        let mut scratch = GeometryScratch::new(8);
        let mut geom = ElementGeometry::with_capacity(8);
        mesh.fill_element_geometry(0, &basis, &mut scratch, &mut geom, 2)
            .unwrap();
        let g = geom.view(2);
        // J = diag(1/2): reference [-1,1]³ → [0,1]³, det = 1/8.
        for q in 0..8 {
            assert!((g.inv_jt(q) - Mat3::diagonal(2.0, 2.0, 2.0)).frobenius_norm() < 1e-12);
            // w = 1 per direction at order 1 → det_w = 1/8.
            assert!((g.det_w(q) - 0.125).abs() < 1e-12);
            // The other lanes stay untouched.
            assert_eq!(geom.view(1).det_w(q), 0.0);
        }
        // Total volume = Σ det_w = 1.
        let vol: f64 = (0..8).map(|q| g.det_w(q)).sum();
        assert!((vol - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_element_is_reported() {
        let mut mesh = unit_cube_mesh();
        // Swap two x-planes to invert the element.
        mesh.coords.swap(0, 1);
        mesh.coords.swap(2, 3);
        mesh.coords.swap(4, 5);
        mesh.coords.swap(6, 7);
        let basis = HexBasis::new(1).unwrap();
        let mut scratch = GeometryScratch::new(8);
        let mut geom = ElementGeometry::with_capacity(8);
        let err = mesh.fill_element_geometry(0, &basis, &mut scratch, &mut geom, 0);
        assert!(matches!(err, Err(MeshError::InvertedElement { .. })));
    }

    #[test]
    fn periodic_unwrapping_makes_elements_contiguous() {
        let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
        let nn = mesh.nodes_per_element();
        let mut coords = vec![Vec3::ZERO; nn];
        let h = std::f64::consts::TAU / 4.0;
        for e in 0..mesh.num_elements() {
            mesh.element_coords(e, &mut coords);
            // All nodes within one cell of the anchor on every axis.
            for c in &coords {
                assert!((c.x - coords[0].x).abs() < h + 1e-9);
                assert!((c.y - coords[0].y).abs() < h + 1e-9);
                assert!((c.z - coords[0].z).abs() < h + 1e-9);
            }
        }
    }

    #[test]
    fn periodic_mesh_volume_is_domain_volume() {
        let mesh = BoxMeshBuilder::tgv_box(3).build().unwrap();
        let basis = HexBasis::new(1).unwrap();
        let nn = mesh.nodes_per_element();
        let mut scratch = GeometryScratch::new(nn);
        let mut geom = ElementGeometry::with_capacity(nn);
        let mut vol = 0.0;
        for e in 0..mesh.num_elements() {
            mesh.fill_element_geometry(e, &basis, &mut scratch, &mut geom, 0)
                .unwrap();
            vol += (0..nn).map(|q| geom.view(0).det_w(q)).sum::<f64>();
        }
        let exact = std::f64::consts::TAU.powi(3);
        assert!((vol - exact).abs() < 1e-9 * exact, "{vol} vs {exact}");
    }

    #[test]
    fn renumber_roundtrip_preserves_geometry() {
        let mesh = BoxMeshBuilder::tgv_box(3).build().unwrap();
        let n = mesh.num_nodes() as u32;
        // Reverse permutation.
        let perm: Vec<u32> = (0..n).map(|i| n - 1 - i).collect();
        let renumbered = mesh.renumber_nodes(&perm).unwrap();
        assert_eq!(renumbered.num_nodes(), mesh.num_nodes());
        assert_eq!(renumbered.num_elements(), mesh.num_elements());
        // Element 0's node coordinates are the same set.
        let mut a = vec![Vec3::ZERO; 8];
        let mut b = vec![Vec3::ZERO; 8];
        mesh.element_coords(0, &mut a);
        renumbered.element_coords(0, &mut b);
        for (pa, pb) in a.iter().zip(&b) {
            assert!((*pa - *pb).norm() < 1e-12);
        }
    }

    #[test]
    fn renumber_rejects_non_permutations() {
        let mesh = unit_cube_mesh();
        assert!(mesh.renumber_nodes(&[0, 0, 1, 2, 3, 4, 5, 6]).is_err());
        assert!(mesh.renumber_nodes(&[0, 1]).is_err());
        assert!(mesh.renumber_nodes(&[9, 1, 2, 3, 4, 5, 6, 7]).is_err());
    }

    #[test]
    fn adjacency_is_symmetric() {
        let mesh = BoxMeshBuilder::tgv_box(3).build().unwrap();
        let adj = mesh.node_adjacency();
        for (a, list) in adj.iter().enumerate() {
            for &b in list {
                assert!(
                    adj[b as usize].contains(&(a as u32)),
                    "asymmetric adjacency {a} -> {b}"
                );
            }
        }
    }

    #[test]
    fn boundary_tags_behave() {
        let t = BoundaryTag::X_MIN.union(BoundaryTag::Z_MAX);
        assert!(t.is_boundary());
        assert!(t.contains(BoundaryTag::X_MIN));
        assert!(!t.contains(BoundaryTag::Y_MIN));
        assert!(!BoundaryTag::INTERIOR.is_boundary());
    }
}

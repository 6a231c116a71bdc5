//! Element quality metrics and whole-mesh statistics.

use crate::hex::{ElementGeometry, GeometryScratch, HexMesh};
use crate::MeshError;
use fem_numerics::tensor::HexBasis;

/// Aggregate quality statistics of a mesh.
///
/// # Example
///
/// ```
/// use fem_mesh::{generator::BoxMeshBuilder, quality::MeshStats};
/// let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
/// let stats = MeshStats::compute(&mesh).unwrap();
/// assert_eq!(stats.num_elements, 64);
/// assert!(stats.min_det_jacobian > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MeshStats {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Number of elements.
    pub num_elements: usize,
    /// Polynomial order.
    pub order: usize,
    /// Integrated mesh volume `Σ_e Σ_q det(J_q) w_q`.
    pub total_volume: f64,
    /// Smallest nodal Jacobian determinant over all elements.
    pub min_det_jacobian: f64,
    /// Largest nodal Jacobian determinant over all elements.
    pub max_det_jacobian: f64,
    /// Connectivity bandwidth (see [`HexMesh::bandwidth`]).
    pub bandwidth: usize,
    /// Bytes that must stream per RK stage for this mesh (node data only).
    pub stream_bytes_per_stage: usize,
}

impl MeshStats {
    /// Computes statistics; visits every element.
    ///
    /// # Errors
    ///
    /// Propagates [`MeshError`] for invalid bases or inverted elements.
    pub fn compute(mesh: &HexMesh) -> Result<MeshStats, MeshError> {
        let basis = HexBasis::new(mesh.order())?;
        let nn = mesh.nodes_per_element();
        let mut scratch = GeometryScratch::new(nn);
        let mut geom = ElementGeometry::with_capacity(nn);
        let mut total_volume = 0.0;
        let mut min_det = f64::INFINITY;
        let mut max_det = f64::NEG_INFINITY;
        let rule = basis.rule().clone();
        let weights = rule.weights();
        let n = basis.nodes_per_dim();
        for e in 0..mesh.num_elements() {
            mesh.fill_element_geometry(e, &basis, &mut scratch, &mut geom, 0)?;
            let g = geom.view(0);
            for q in 0..nn {
                let dw = g.det_w(q);
                total_volume += dw;
                let i = q % n;
                let j = (q / n) % n;
                let k = q / (n * n);
                let w = weights[i] * weights[j] * weights[k];
                let det = dw / w;
                min_det = min_det.min(det);
                max_det = max_det.max(det);
            }
        }
        Ok(MeshStats {
            num_nodes: mesh.num_nodes(),
            num_elements: mesh.num_elements(),
            order: mesh.order(),
            total_volume,
            min_det_jacobian: min_det,
            max_det_jacobian: max_det,
            bandwidth: mesh.bandwidth(),
            stream_bytes_per_stage: mesh.num_nodes() * HexMesh::bytes_per_node(),
        })
    }

    /// Jacobian uniformity ratio `max_det / min_det` (1.0 for a uniform box).
    pub fn jacobian_ratio(&self) -> f64 {
        self.max_det_jacobian / self.min_det_jacobian
    }
}

impl std::fmt::Display for MeshStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "mesh: {} nodes, {} elements (order {})",
            self.num_nodes, self.num_elements, self.order
        )?;
        writeln!(f, "  volume          : {:.6e}", self.total_volume)?;
        writeln!(
            f,
            "  det(J) range    : [{:.3e}, {:.3e}] (ratio {:.2})",
            self.min_det_jacobian,
            self.max_det_jacobian,
            self.jacobian_ratio()
        )?;
        writeln!(f, "  bandwidth       : {}", self.bandwidth)?;
        write!(
            f,
            "  stream per stage: {:.1} MiB",
            self.stream_bytes_per_stage as f64 / (1024.0 * 1024.0)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::BoxMeshBuilder;

    #[test]
    fn uniform_box_has_unit_jacobian_ratio() {
        let mesh = BoxMeshBuilder::tgv_box(3).build().unwrap();
        let stats = MeshStats::compute(&mesh).unwrap();
        assert!((stats.jacobian_ratio() - 1.0).abs() < 1e-9);
        let tau = std::f64::consts::TAU;
        assert!((stats.total_volume - tau.powi(3)).abs() < 1e-8);
    }

    #[test]
    fn anisotropic_box_volume() {
        let mesh = BoxMeshBuilder::new()
            .elements(2, 3, 4)
            .periodic(false, false, false)
            .extent(1.0, 2.0, 3.0)
            .build()
            .unwrap();
        let stats = MeshStats::compute(&mesh).unwrap();
        assert!((stats.total_volume - 6.0).abs() < 1e-10);
        // Uniform per-axis spacing still gives a constant Jacobian.
        assert!((stats.jacobian_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_is_nonempty() {
        let mesh = BoxMeshBuilder::tgv_box(3).build().unwrap();
        let stats = MeshStats::compute(&mesh).unwrap();
        let s = format!("{stats}");
        assert!(s.contains("nodes"));
        assert!(s.contains("bandwidth"));
    }

    #[test]
    fn higher_order_stats() {
        let mut b = BoxMeshBuilder::tgv_box(3);
        b.order(3);
        let mesh = b.build().unwrap();
        let stats = MeshStats::compute(&mesh).unwrap();
        let tau = std::f64::consts::TAU;
        assert!((stats.total_volume - tau.powi(3)).abs() < 1e-8 * tau.powi(3));
        // The isoparametric map through GLL-placed nodes reproduces the
        // affine box map exactly, so the Jacobian stays constant even at
        // high order.
        assert!((stats.jacobian_ratio() - 1.0).abs() < 1e-9);
    }
}

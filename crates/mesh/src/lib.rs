//! Unstructured hexahedral meshes for the FEM-based CFD accelerator.
//!
//! The paper's solver (§II-B) discretizes the fluid domain with a mesh of
//! volume elements "defined by vertices and edges, allowing for the
//! representation of complex geometries beyond simple cubes". This crate
//! provides:
//!
//! * [`hex`] — the unstructured hexahedral mesh container ([`HexMesh`]):
//!   arbitrary connectivity, high-order (GLL) node layouts, periodic image
//!   unwrapping, element geometry (Jacobians).
//! * [`geometry`] — the precomputed geometry cache ([`GeometryCache`]):
//!   every element's `J⁻ᵀ` and `det(J)·w` factors computed once, stored
//!   four elements per group, lane-interleaved as the solver's element
//!   batches read them.
//! * [`generator`] — mesh generation, most importantly the periodic box for
//!   the Taylor-Green Vortex workload ([`BoxMeshBuilder`]), matching the
//!   paper's mesh-size sweep (5K … 4.2M nodes).
//! * [`reorder`] — reverse Cuthill-McKee node reordering (memory locality
//!   for the CPU baseline and DDR burst efficiency for the accelerator).
//! * [`quality`] — element quality metrics and mesh statistics.
//! * [`partition`] — element batching for the accelerator's streaming
//!   Load-Compute-Store pipeline, and the [`ShardPlan`] domain
//!   decomposition (owned/halo node metadata) the shard-parallel
//!   execution backends run on, with a halo-minimizing graph
//!   partitioner selectable via [`partition::PartitionStrategy`].
//! * [`context`] — the immutable [`SharedMeshContext`] handle bundling a
//!   mesh with its basis, geometry cache, lumped mass, and lazily built
//!   shard plans, so ensemble members on one mesh share a
//!   single copy instead of each rebuilding and holding their own.
//! * [`io`] — compact binary serialization.
//!
//! # Example
//!
//! ```
//! use fem_mesh::generator::BoxMeshBuilder;
//!
//! // A periodic 4×4×4-element TGV box of trilinear hexes: 64 nodes.
//! let mesh = BoxMeshBuilder::tgv_box(4).build().unwrap();
//! assert_eq!(mesh.num_elements(), 64);
//! assert_eq!(mesh.num_nodes(), 64);
//! ```

#![deny(missing_docs)]

pub mod context;
pub mod generator;
pub mod geometry;
pub mod hex;
pub mod io;
pub mod partition;
pub mod quality;
pub mod reorder;

pub use context::SharedMeshContext;
pub use generator::BoxMeshBuilder;
pub use geometry::GeometryCache;
pub use hex::HexMesh;
pub use partition::{ElementBatch, PartitionStrategy, Shard, ShardPlan};
pub use quality::MeshStats;

/// Errors produced by the mesh layer.
#[derive(Debug, Clone, PartialEq)]
pub enum MeshError {
    /// An element references a node index beyond the coordinate table.
    NodeIndexOutOfRange {
        /// Element that holds the bad reference.
        element: usize,
        /// The offending node index.
        node: u32,
        /// Number of nodes in the mesh.
        num_nodes: usize,
    },
    /// Connectivity length is not a multiple of nodes-per-element.
    RaggedConnectivity {
        /// Length of the connectivity array.
        len: usize,
        /// Expected stride.
        stride: usize,
    },
    /// A generator parameter was invalid (zero elements, bad extent, ...).
    InvalidParameter(String),
    /// An element has a non-positive Jacobian determinant (inverted/degenerate).
    InvertedElement {
        /// The offending element.
        element: usize,
        /// The determinant found.
        det: f64,
    },
    /// Serialization failure.
    Io(String),
    /// The byte stream being deserialized is not a valid mesh.
    Format(String),
    /// A numerics-layer error (bad polynomial order).
    Numerics(fem_numerics::NumericsError),
}

impl std::fmt::Display for MeshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshError::NodeIndexOutOfRange {
                element,
                node,
                num_nodes,
            } => write!(
                f,
                "element {element} references node {node} but mesh has {num_nodes} nodes"
            ),
            MeshError::RaggedConnectivity { len, stride } => {
                write!(f, "connectivity length {len} is not a multiple of {stride}")
            }
            MeshError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            MeshError::InvertedElement { element, det } => {
                write!(f, "element {element} has non-positive jacobian {det:e}")
            }
            MeshError::Io(msg) => write!(f, "i/o failure: {msg}"),
            MeshError::Format(msg) => write!(f, "malformed mesh data: {msg}"),
            MeshError::Numerics(e) => write!(f, "numerics error: {e}"),
        }
    }
}

impl std::error::Error for MeshError {}

impl From<fem_numerics::NumericsError> for MeshError {
    fn from(e: fem_numerics::NumericsError) -> Self {
        MeshError::Numerics(e)
    }
}

impl From<std::io::Error> for MeshError {
    fn from(e: std::io::Error) -> Self {
        MeshError::Io(e.to_string())
    }
}

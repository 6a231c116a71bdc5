//! Compact binary mesh serialization.
//!
//! Format (`FMH1`): all integers little-endian.
//!
//! ```text
//! magic      : 4 bytes  b"FMH1"
//! order      : u32
//! flags      : u32      bit a (0..3) set = axis a periodic; bit 8 = tags present
//! extents    : 3 × f64  periodic extent per axis (0.0 when not periodic)
//! num_nodes  : u64
//! num_elems  : u64
//! coords     : num_nodes × 3 × f64
//! conn       : num_elems × (order+1)³ × u32
//! tags       : num_nodes × u8        (only when flag bit 8 set)
//! ```

use crate::hex::{BoundaryTag, HexMesh};
use crate::MeshError;
use fem_numerics::linalg::Vec3;
use std::io::{Read, Write};

const MAGIC: &[u8; 4] = b"FMH1";

/// Serializes `mesh` to `w`.
///
/// A `&mut` reference can be passed for `w` (e.g. `&mut Vec<u8>` or a
/// `&mut File`).
///
/// # Errors
///
/// [`MeshError::Io`] on any write failure.
pub fn write_mesh<W: Write>(mesh: &HexMesh, mut w: W) -> Result<(), MeshError> {
    w.write_all(MAGIC)?;
    w.write_all(&(mesh.order() as u32).to_le_bytes())?;
    let mut flags: u32 = 0;
    let ext = mesh.periodic_extent();
    for (a, e) in ext.iter().enumerate() {
        if e.is_some() {
            flags |= 1 << a;
        }
    }
    let has_tags = !mesh.boundary_nodes().is_empty()
        || (0..mesh.num_nodes()).any(|n| mesh.boundary_tag(n).is_boundary());
    if has_tags {
        flags |= 1 << 8;
    }
    w.write_all(&flags.to_le_bytes())?;
    for e in ext {
        w.write_all(&e.unwrap_or(0.0).to_le_bytes())?;
    }
    w.write_all(&(mesh.num_nodes() as u64).to_le_bytes())?;
    w.write_all(&(mesh.num_elements() as u64).to_le_bytes())?;
    for c in mesh.coords() {
        w.write_all(&c.x.to_le_bytes())?;
        w.write_all(&c.y.to_le_bytes())?;
        w.write_all(&c.z.to_le_bytes())?;
    }
    for &n in mesh.connectivity() {
        w.write_all(&n.to_le_bytes())?;
    }
    if has_tags {
        for n in 0..mesh.num_nodes() {
            w.write_all(&[mesh.boundary_tag(n).0])?;
        }
    }
    Ok(())
}

fn read_exact_array<R: Read, const N: usize>(r: &mut R) -> Result<[u8; N], MeshError> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Reads a block of `count` records of `size` bytes each.
///
/// # Errors
///
/// [`MeshError::Format`] when the stream ends first.
fn read_block<R: Read>(
    r: &mut R,
    count: usize,
    size: usize,
    what: &str,
) -> Result<Vec<u8>, MeshError> {
    let len = (count as u64)
        .checked_mul(size as u64)
        .ok_or_else(|| MeshError::Format(format!("implausible {what} size")))?;
    let mut bytes = Vec::new();
    r.take(len).read_to_end(&mut bytes)?;
    if bytes.len() as u64 != len {
        return Err(MeshError::Format(format!("truncated {what}")));
    }
    Ok(bytes)
}

/// Deserializes a mesh from `r`.
///
/// A `&mut` reference can be passed for `r` (e.g. `&mut &[u8]`).
///
/// # Errors
///
/// [`MeshError::Format`] for a malformed stream, [`MeshError::Io`] on read
/// failure, and any validation error from [`HexMesh::new`].
pub fn read_mesh<R: Read>(mut r: R) -> Result<HexMesh, MeshError> {
    let magic = read_exact_array::<_, 4>(&mut r)?;
    if &magic != MAGIC {
        return Err(MeshError::Format(format!(
            "bad magic {:?}, expected {:?}",
            magic, MAGIC
        )));
    }
    let order = u32::from_le_bytes(read_exact_array::<_, 4>(&mut r)?) as usize;
    if order == 0 || order > 16 {
        return Err(MeshError::Format(format!("implausible order {order}")));
    }
    let flags = u32::from_le_bytes(read_exact_array::<_, 4>(&mut r)?);
    let mut extent = [None, None, None];
    for (a, e) in extent.iter_mut().enumerate() {
        let v = f64::from_le_bytes(read_exact_array::<_, 8>(&mut r)?);
        if flags & (1 << a) != 0 {
            *e = Some(v);
        }
    }
    let num_nodes = u64::from_le_bytes(read_exact_array::<_, 8>(&mut r)?) as usize;
    let num_elems = u64::from_le_bytes(read_exact_array::<_, 8>(&mut r)?) as usize;
    const SANITY: usize = 1 << 33;
    if num_nodes > SANITY || num_elems > SANITY {
        return Err(MeshError::Format("implausible mesh size".into()));
    }
    // Read each block before sizing anything by the header: the buffer
    // grows only with the bytes the stream actually holds, so a header that
    // claims more than follows is an error, not an allocation.
    let coords = read_block(&mut r, num_nodes, 24, "coordinates")?
        .chunks_exact(24)
        .map(|c| {
            let [x, y, z] = std::array::from_fn(|i| {
                f64::from_le_bytes(c[8 * i..8 * i + 8].try_into().expect("8-byte chunk"))
            });
            Vec3::new(x, y, z)
        })
        .collect();
    let npe = (order + 1).pow(3);
    let conn = read_block(&mut r, num_elems * npe, 4, "connectivity")?
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte chunk")))
        .collect();
    let mut tags = Vec::new();
    if flags & (1 << 8) != 0 {
        tags = read_block(&mut r, num_nodes, 1, "boundary tags")?
            .into_iter()
            .map(BoundaryTag)
            .collect();
    }
    HexMesh::new(order, coords, conn, tags, extent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::BoxMeshBuilder;

    #[test]
    fn roundtrip_periodic_mesh() {
        let mesh = BoxMeshBuilder::tgv_box(3).build().unwrap();
        let mut buf = Vec::new();
        write_mesh(&mesh, &mut buf).unwrap();
        let back = read_mesh(buf.as_slice()).unwrap();
        assert_eq!(mesh, back);
    }

    #[test]
    fn roundtrip_walled_mesh_with_tags() {
        let mesh = BoxMeshBuilder::new()
            .elements(2, 3, 2)
            .periodic(false, true, false)
            .extent(1.0, 2.0, 3.0)
            .order(2)
            .build()
            .unwrap();
        let mut buf = Vec::new();
        write_mesh(&mesh, &mut buf).unwrap();
        let back = read_mesh(buf.as_slice()).unwrap();
        assert_eq!(mesh, back);
        assert_eq!(mesh.boundary_nodes(), back.boundary_nodes());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_mesh(&b"NOPE...."[..]);
        assert!(matches!(err, Err(MeshError::Format(_))));
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let mesh = BoxMeshBuilder::tgv_box(3).build().unwrap();
        let mut buf = Vec::new();
        write_mesh(&mesh, &mut buf).unwrap();
        for cut in [3, 8, 20, buf.len() / 2, buf.len() - 1] {
            let err = read_mesh(&buf[..cut]);
            assert!(err.is_err(), "cut at {cut} unexpectedly parsed");
        }
    }

    #[test]
    fn oversized_node_count_without_data_is_an_error() {
        // A header that claims 2³³ nodes and one element, with no body.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"FMH1");
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&(1u32 << 8).to_le_bytes());
        buf.extend_from_slice(&[0u8; 24]);
        buf.extend_from_slice(&(1u64 << 33).to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        assert!(matches!(
            read_mesh(buf.as_slice()),
            Err(MeshError::Format(_))
        ));
    }

    #[test]
    fn implausible_header_is_rejected() {
        // magic + order 0
        let mut buf = Vec::new();
        buf.extend_from_slice(b"FMH1");
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(read_mesh(buf.as_slice()).is_err());
    }
}

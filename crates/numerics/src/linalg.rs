//! Small dense linear algebra for 3D element geometry and flux tensors.
//!
//! Element Jacobians, the viscous stress tensor τ and momentum flux tensors
//! are all 3×3; this module provides the handful of operations the solver
//! kernels need, with no allocation.

use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub};

/// A 3-component vector (velocity, coordinates, gradients of scalars).
///
/// # Example
///
/// ```
/// use fem_numerics::linalg::Vec3;
/// let u = Vec3::new(1.0, 2.0, 3.0);
/// let v = Vec3::new(-1.0, 0.5, 2.0);
/// assert_eq!(u.dot(v), 6.0);
/// assert_eq!((u + v).x, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector from components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Squared Euclidean norm.
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Cross product.
    pub fn cross(self, other: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * other.z - self.z * other.y,
            y: self.z * other.x - self.x * other.z,
            z: self.x * other.y - self.y * other.x,
        }
    }

    /// Outer product `self ⊗ other` (used for the momentum flux ρ u⊗u).
    pub fn outer(self, other: Vec3) -> Mat3 {
        Mat3::from_rows(self.x * other, self.y * other, self.z * other)
    }

    /// Component access by axis index 0..3.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= 3`.
    pub fn component(self, axis: usize) -> f64 {
        match axis {
            0 => self.x,
            1 => self.y,
            2 => self.z,
            _ => panic!("axis {axis} out of range for Vec3"),
        }
    }
}

impl From<[f64; 3]> for Vec3 {
    #[inline]
    fn from([x, y, z]: [f64; 3]) -> Vec3 {
        Vec3 { x, y, z }
    }
}

impl From<Vec3> for [f64; 3] {
    #[inline]
    fn from(v: Vec3) -> [f64; 3] {
        [v.x, v.y, v.z]
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

/// A 3×3 matrix, row-major (Jacobians, stress tensors, velocity gradients).
///
/// # Example
///
/// ```
/// use fem_numerics::linalg::{Mat3, Vec3};
/// let j = Mat3::diagonal(2.0, 4.0, 0.5);
/// assert_eq!(j.det(), 4.0);
/// let inv = j.inverse().unwrap();
/// let v = inv.mul_vec(Vec3::new(2.0, 4.0, 0.5));
/// assert!((v - Vec3::new(1.0, 1.0, 1.0)).norm() < 1e-14);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Mat3 {
    /// Row-major entries `m[r][c]`.
    pub m: [[f64; 3]; 3],
}

impl Mat3 {
    /// The zero matrix.
    pub const ZERO: Mat3 = Mat3 { m: [[0.0; 3]; 3] };

    /// The identity matrix.
    pub const IDENTITY: Mat3 = Mat3 {
        m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };

    /// Builds from three row vectors.
    pub fn from_rows(r0: Vec3, r1: Vec3, r2: Vec3) -> Self {
        Mat3 {
            m: [[r0.x, r0.y, r0.z], [r1.x, r1.y, r1.z], [r2.x, r2.y, r2.z]],
        }
    }

    /// Builds a diagonal matrix.
    pub fn diagonal(a: f64, b: f64, c: f64) -> Self {
        Mat3 {
            m: [[a, 0.0, 0.0], [0.0, b, 0.0], [0.0, 0.0, c]],
        }
    }

    /// Row `r` as a vector.
    pub fn row(&self, r: usize) -> Vec3 {
        Vec3::new(self.m[r][0], self.m[r][1], self.m[r][2])
    }

    /// Column `c` as a vector.
    pub fn col(&self, c: usize) -> Vec3 {
        Vec3::new(self.m[0][c], self.m[1][c], self.m[2][c])
    }

    /// Determinant.
    pub fn det(&self) -> f64 {
        let m = &self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Matrix inverse, or `None` when singular (|det| < 1e-300).
    pub fn inverse(&self) -> Option<Mat3> {
        let d = self.det();
        if d.abs() < 1e-300 {
            return None;
        }
        let m = &self.m;
        let inv_det = 1.0 / d;
        let mut out = Mat3::ZERO;
        out.m[0][0] = (m[1][1] * m[2][2] - m[1][2] * m[2][1]) * inv_det;
        out.m[0][1] = (m[0][2] * m[2][1] - m[0][1] * m[2][2]) * inv_det;
        out.m[0][2] = (m[0][1] * m[1][2] - m[0][2] * m[1][1]) * inv_det;
        out.m[1][0] = (m[1][2] * m[2][0] - m[1][0] * m[2][2]) * inv_det;
        out.m[1][1] = (m[0][0] * m[2][2] - m[0][2] * m[2][0]) * inv_det;
        out.m[1][2] = (m[0][2] * m[1][0] - m[0][0] * m[1][2]) * inv_det;
        out.m[2][0] = (m[1][0] * m[2][1] - m[1][1] * m[2][0]) * inv_det;
        out.m[2][1] = (m[0][1] * m[2][0] - m[0][0] * m[2][1]) * inv_det;
        out.m[2][2] = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) * inv_det;
        Some(out)
    }

    /// Transpose.
    pub fn transpose(&self) -> Mat3 {
        let mut out = Mat3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] = self.m[c][r];
            }
        }
        out
    }

    /// Matrix-vector product.
    pub fn mul_vec(&self, v: Vec3) -> Vec3 {
        Vec3::new(self.row(0).dot(v), self.row(1).dot(v), self.row(2).dot(v))
    }

    /// Matrix-matrix product.
    pub fn mul_mat(&self, o: &Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] = (0..3).map(|k| self.m[r][k] * o.m[k][c]).sum();
            }
        }
        out
    }

    /// Trace (used for ∇·u in the viscous stress).
    pub fn trace(&self) -> f64 {
        self.m[0][0] + self.m[1][1] + self.m[2][2]
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.m.iter().flatten().map(|&x| x * x).sum::<f64>().sqrt()
    }
}

impl Add for Mat3 {
    type Output = Mat3;
    fn add(self, o: Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] = self.m[r][c] + o.m[r][c];
            }
        }
        out
    }
}

impl Sub for Mat3 {
    type Output = Mat3;
    fn sub(self, o: Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] = self.m[r][c] - o.m[r][c];
            }
        }
        out
    }
}

impl Mul<f64> for Mat3 {
    type Output = Mat3;
    fn mul(self, s: f64) -> Mat3 {
        let mut out = Mat3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] = self.m[r][c] * s;
            }
        }
        out
    }
}

impl Mul<Mat3> for f64 {
    type Output = Mat3;
    fn mul(self, m: Mat3) -> Mat3 {
        m * self
    }
}

impl Index<(usize, usize)> for Mat3 {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.m[r][c]
    }
}

impl IndexMut<(usize, usize)> for Mat3 {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.m[r][c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn vec3_basic_ops() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, -5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, -3.0, 9.0));
        assert_eq!(a - b, Vec3::new(-3.0, 7.0, -3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_eq!(a.dot(b), 12.0);
        assert!((a.norm() - 14.0f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn cross_product_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-2.0, 0.5, 4.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-12);
        assert!(c.dot(b).abs() < 1e-12);
        assert_eq!(
            Vec3::new(1.0, 0.0, 0.0).cross(Vec3::new(0.0, 1.0, 0.0)),
            Vec3::new(0.0, 0.0, 1.0)
        );
    }

    #[test]
    fn outer_product_entries() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        let o = a.outer(b);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(o[(r, c)], a.component(r) * b.component(c));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn component_out_of_range_panics() {
        Vec3::ZERO.component(3);
    }

    #[test]
    fn identity_behaves() {
        let v = Vec3::new(3.0, -1.0, 2.0);
        assert_eq!(Mat3::IDENTITY.mul_vec(v), v);
        assert_eq!(Mat3::IDENTITY.det(), 1.0);
        assert_eq!(Mat3::IDENTITY.trace(), 3.0);
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let singular = Mat3::from_rows(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(2.0, 4.0, 6.0),
            Vec3::new(0.0, 1.0, 0.0),
        );
        assert!(singular.inverse().is_none());
    }

    #[test]
    fn transpose_involutive() {
        let m = Mat3::from_rows(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(4.0, 5.0, 6.0),
            Vec3::new(7.0, 8.0, 10.0),
        );
        assert_eq!(m.transpose().transpose(), m);
    }

    fn arb_mat3() -> impl Strategy<Value = Mat3> {
        proptest::collection::vec(-10.0f64..10.0, 9).prop_map(|v| {
            Mat3::from_rows(
                Vec3::new(v[0], v[1], v[2]),
                Vec3::new(v[3], v[4], v[5]),
                Vec3::new(v[6], v[7], v[8]),
            )
        })
    }

    proptest! {
        #[test]
        fn prop_inverse_roundtrip(m in arb_mat3()) {
            prop_assume!(m.det().abs() > 1e-3);
            let inv = m.inverse().unwrap();
            let prod = m.mul_mat(&inv);
            let err = (prod - Mat3::IDENTITY).frobenius_norm();
            prop_assert!(err < 1e-9, "err = {err}");
        }

        #[test]
        fn prop_det_multiplicative(a in arb_mat3(), b in arb_mat3()) {
            let lhs = a.mul_mat(&b).det();
            let rhs = a.det() * b.det();
            prop_assert!((lhs - rhs).abs() < 1e-6 * (1.0 + rhs.abs()));
        }

        #[test]
        fn prop_matvec_distributes(a in arb_mat3(), v in proptest::collection::vec(-5.0f64..5.0, 6)) {
            let x = Vec3::new(v[0], v[1], v[2]);
            let y = Vec3::new(v[3], v[4], v[5]);
            let lhs = a.mul_vec(x + y);
            let rhs = a.mul_vec(x) + a.mul_vec(y);
            prop_assert!((lhs - rhs).norm() < 1e-9);
        }

        #[test]
        fn prop_trace_of_outer_is_dot(v in proptest::collection::vec(-5.0f64..5.0, 6)) {
            let a = Vec3::new(v[0], v[1], v[2]);
            let b = Vec3::new(v[3], v[4], v[5]);
            prop_assert!((a.outer(b).trace() - a.dot(b)).abs() < 1e-12);
        }
    }
}

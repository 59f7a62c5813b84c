//! 3×3 matrices: rotations, camera intrinsics, covariances.

use crate::vec::Vec3;
use serde::{Deserialize, Serialize};
use std::ops::{Add, Mul, Sub};

/// A row-major 3×3 matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mat3 {
    /// Rows in row-major order: `m[row][col]`.
    pub m: [[f64; 3]; 3],
}

impl Default for Mat3 {
    fn default() -> Self {
        Mat3::identity()
    }
}

impl Mat3 {
    pub const fn identity() -> Mat3 {
        Mat3 {
            m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        }
    }

    pub const fn zeros() -> Mat3 {
        Mat3 { m: [[0.0; 3]; 3] }
    }

    pub fn from_rows(r0: Vec3, r1: Vec3, r2: Vec3) -> Mat3 {
        Mat3 {
            m: [r0.to_array(), r1.to_array(), r2.to_array()],
        }
    }

    pub fn row(&self, i: usize) -> Vec3 {
        Vec3::from_array(self.m[i])
    }

    pub fn col(&self, j: usize) -> Vec3 {
        Vec3::new(self.m[0][j], self.m[1][j], self.m[2][j])
    }

    pub fn transpose(&self) -> Mat3 {
        let mut t = Mat3::zeros();
        for i in 0..3 {
            for j in 0..3 {
                t.m[j][i] = self.m[i][j];
            }
        }
        t
    }

    pub fn det(&self) -> f64 {
        let m = &self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    pub fn trace(&self) -> f64 {
        self.m[0][0] + self.m[1][1] + self.m[2][2]
    }

    /// Inverse via the adjugate. Returns `None` when the determinant is
    /// numerically zero.
    pub fn inverse(&self) -> Option<Mat3> {
        let d = self.det();
        if d.abs() < 1e-300 {
            return None;
        }
        let m = &self.m;
        let inv_d = 1.0 / d;
        let mut out = Mat3::zeros();
        out.m[0][0] = (m[1][1] * m[2][2] - m[1][2] * m[2][1]) * inv_d;
        out.m[0][1] = (m[0][2] * m[2][1] - m[0][1] * m[2][2]) * inv_d;
        out.m[0][2] = (m[0][1] * m[1][2] - m[0][2] * m[1][1]) * inv_d;
        out.m[1][0] = (m[1][2] * m[2][0] - m[1][0] * m[2][2]) * inv_d;
        out.m[1][1] = (m[0][0] * m[2][2] - m[0][2] * m[2][0]) * inv_d;
        out.m[1][2] = (m[0][2] * m[1][0] - m[0][0] * m[1][2]) * inv_d;
        out.m[2][0] = (m[1][0] * m[2][1] - m[1][1] * m[2][0]) * inv_d;
        out.m[2][1] = (m[0][1] * m[2][0] - m[0][0] * m[2][1]) * inv_d;
        out.m[2][2] = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) * inv_d;
        Some(out)
    }

    /// The skew-symmetric "hat" matrix of `v`, such that `hat(v) * w == v × w`.
    pub fn hat(v: Vec3) -> Mat3 {
        Mat3 {
            m: [[0.0, -v.z, v.y], [v.z, 0.0, -v.x], [-v.y, v.x, 0.0]],
        }
    }

    /// Outer product `a * bᵀ`.
    pub fn outer(a: Vec3, b: Vec3) -> Mat3 {
        let mut o = Mat3::zeros();
        for (i, ai) in a.to_array().iter().enumerate() {
            for (j, bj) in b.to_array().iter().enumerate() {
                o.m[i][j] = ai * bj;
            }
        }
        o
    }

    /// Multiply by a scalar.
    pub fn scale(&self, s: f64) -> Mat3 {
        let mut o = *self;
        for row in o.m.iter_mut() {
            for v in row.iter_mut() {
                *v *= s;
            }
        }
        o
    }

    /// Frobenius norm.
    pub fn frob(&self) -> f64 {
        self.m.iter().flatten().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Is this matrix a rotation (orthonormal, det ≈ +1) to tolerance `tol`?
    pub fn is_rotation(&self, tol: f64) -> bool {
        let should_be_id = *self * self.transpose();
        (should_be_id - Mat3::identity()).frob() < tol && (self.det() - 1.0).abs() < tol
    }

    /// Re-orthonormalize a near-rotation via Gram-Schmidt on the rows.
    /// SLAM pipelines accumulate drift when chaining many rotations; calling
    /// this occasionally keeps `R` on SO(3).
    pub fn orthonormalized(&self) -> Mat3 {
        let r0 = self.row(0).normalized().unwrap_or(Vec3::X);
        let mut r1 = self.row(1) - r0 * self.row(1).dot(r0);
        r1 = r1.normalized().unwrap_or(Vec3::Y);
        let r2 = r0.cross(r1);
        Mat3::from_rows(r0, r1, r2)
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3::new(self.row(0).dot(v), self.row(1).dot(v), self.row(2).dot(v))
    }
}

impl Mul for Mat3 {
    type Output = Mat3;
    fn mul(self, o: Mat3) -> Mat3 {
        let mut r = Mat3::zeros();
        for i in 0..3 {
            for j in 0..3 {
                r.m[i][j] = (0..3).map(|k| self.m[i][k] * o.m[k][j]).sum();
            }
        }
        r
    }
}

impl Add for Mat3 {
    type Output = Mat3;
    fn add(self, o: Mat3) -> Mat3 {
        let mut r = Mat3::zeros();
        for i in 0..3 {
            for j in 0..3 {
                r.m[i][j] = self.m[i][j] + o.m[i][j];
            }
        }
        r
    }
}

impl Sub for Mat3 {
    type Output = Mat3;
    fn sub(self, o: Mat3) -> Mat3 {
        let mut r = Mat3::zeros();
        for i in 0..3 {
            for j in 0..3 {
                r.m[i][j] = self.m[i][j] - o.m[i][j];
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quat::Quat;

    #[test]
    fn identity_is_neutral() {
        let v = Vec3::new(1.0, -2.0, 3.5);
        assert_eq!(Mat3::identity() * v, v);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Mat3::from_rows(
            Vec3::new(2.0, 1.0, 0.5),
            Vec3::new(-1.0, 3.0, 2.0),
            Vec3::new(0.0, 0.5, 4.0),
        );
        let inv = a.inverse().unwrap();
        assert!(((a * inv) - Mat3::identity()).frob() < 1e-12);
    }

    #[test]
    fn singular_has_no_inverse() {
        let a = Mat3::from_rows(Vec3::X, Vec3::X, Vec3::Y);
        assert!(a.inverse().is_none());
    }

    #[test]
    fn hat_matches_cross() {
        let a = Vec3::new(0.3, -1.2, 2.0);
        let b = Vec3::new(1.0, 0.4, -0.7);
        let lhs = Mat3::hat(a) * b;
        let rhs = a.cross(b);
        assert!((lhs - rhs).norm() < 1e-14);
    }

    #[test]
    fn rotation_check() {
        let r = Quat::from_axis_angle(Vec3::new(1.0, 2.0, 0.5), 1.1).to_mat3();
        assert!(r.is_rotation(1e-10));
        assert!(!Mat3::zeros().is_rotation(1e-10));
    }

    #[test]
    fn orthonormalize_repairs_drift() {
        let mut r = Quat::from_axis_angle(Vec3::Z, 0.7).to_mat3();
        // Inject drift.
        r.m[0][0] += 1e-4;
        r.m[1][2] -= 2e-4;
        let fixed = r.orthonormalized();
        assert!(fixed.is_rotation(1e-10));
        // Repair should be small.
        assert!((fixed - r).frob() < 1e-3);
    }

    #[test]
    fn det_of_rotation_is_one() {
        let r = Quat::from_axis_angle(Vec3::new(-0.3, 0.8, 0.1), 2.4).to_mat3();
        assert!((r.det() - 1.0).abs() < 1e-12);
    }
}

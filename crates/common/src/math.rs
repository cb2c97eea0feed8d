//! Small linear-algebra and geometry toolkit for the graphics pipeline.
//!
//! Implements exactly what the pipeline needs: 2/3/4-component `f32`
//! vectors, column-major 4×4 matrices with the usual 3D transform
//! constructors, integer screen-space rectangles, and color packing.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A 2-component `f32` vector (screen-space positions, texture coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
}

/// A 3-component `f32` vector (object-space positions, normals, colors).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
}

/// A 4-component `f32` vector (homogeneous/clip-space positions, RGBA).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec4 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
    /// W component.
    pub w: f32,
}

impl Vec2 {
    /// Constructs a vector from components.
    pub const fn new(x: f32, y: f32) -> Self {
        Self { x, y }
    }
}

impl Vec3 {
    /// Constructs a vector from components.
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Self { x, y, z }
    }

    /// The all-equal vector `(v, v, v)`.
    pub const fn splat(v: f32) -> Self {
        Self::new(v, v, v)
    }

    /// Dot product.
    pub fn dot(self, o: Self) -> f32 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product (right-handed).
    pub fn cross(self, o: Self) -> Self {
        Self::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Euclidean length.
    pub fn length(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Unit-length copy; returns `self` unchanged when near zero length.
    pub fn normalized(self) -> Self {
        let l = self.length();
        if l > 1e-20 {
            self / l
        } else {
            self
        }
    }

    /// Extends to homogeneous coordinates with the given `w`.
    pub fn extend(self, w: f32) -> Vec4 {
        Vec4::new(self.x, self.y, self.z, w)
    }
}

impl Vec4 {
    /// Constructs a vector from components.
    pub const fn new(x: f32, y: f32, z: f32, w: f32) -> Self {
        Self { x, y, z, w }
    }

    /// Drops the `w` component.
    pub fn truncate(self) -> Vec3 {
        Vec3::new(self.x, self.y, self.z)
    }

    /// Perspective divide: `(x/w, y/w, z/w)`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `w` is non-zero.
    pub fn perspective_divide(self) -> Vec3 {
        debug_assert!(self.w.abs() > 1e-20, "perspective divide by ~0");
        Vec3::new(self.x / self.w, self.y / self.w, self.z / self.w)
    }

    /// Component access by index 0..4.
    ///
    /// # Panics
    ///
    /// Panics if `i > 3`.
    pub fn get(self, i: usize) -> f32 {
        match i {
            0 => self.x,
            1 => self.y,
            2 => self.z,
            3 => self.w,
            _ => panic!("Vec4 index {i} out of range"),
        }
    }
}

macro_rules! impl_vec_ops {
    ($t:ty { $($f:ident),+ }) => {
        impl Add for $t {
            type Output = $t;
            fn add(self, o: $t) -> $t { Self { $($f: self.$f + o.$f),+ } }
        }
        impl Sub for $t {
            type Output = $t;
            fn sub(self, o: $t) -> $t { Self { $($f: self.$f - o.$f),+ } }
        }
        impl Mul<f32> for $t {
            type Output = $t;
            fn mul(self, s: f32) -> $t { Self { $($f: self.$f * s),+ } }
        }
        impl Mul for $t {
            type Output = $t;
            fn mul(self, o: $t) -> $t { Self { $($f: self.$f * o.$f),+ } }
        }
        impl Div<f32> for $t {
            type Output = $t;
            fn div(self, s: f32) -> $t { Self { $($f: self.$f / s),+ } }
        }
        impl Neg for $t {
            type Output = $t;
            fn neg(self) -> $t { Self { $($f: -self.$f),+ } }
        }
        impl fmt::Display for $t {
            fn fmt(&self, fm: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(fm, "(")?;
                let mut first = true;
                $(
                    if !first { write!(fm, ", ")?; }
                    write!(fm, "{}", self.$f)?;
                    #[allow(unused_assignments)]
                    { first = false; }
                )+
                write!(fm, ")")
            }
        }
    };
}

impl_vec_ops!(Vec2 { x, y });
impl_vec_ops!(Vec3 { x, y, z });
impl_vec_ops!(Vec4 { x, y, z, w });

/// A column-major 4×4 `f32` matrix.
///
/// `cols[c]` is column `c`; `mul_vec4` computes `M · v`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4 {
    /// The four columns.
    pub cols: [Vec4; 4],
}

impl Mat4 {
    /// The identity matrix.
    pub(crate) const IDENTITY: Mat4 = Mat4 {
        cols: [
            Vec4::new(1.0, 0.0, 0.0, 0.0),
            Vec4::new(0.0, 1.0, 0.0, 0.0),
            Vec4::new(0.0, 0.0, 1.0, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        ],
    };

    /// Builds a matrix from columns.
    const fn from_cols(c0: Vec4, c1: Vec4, c2: Vec4, c3: Vec4) -> Self {
        Self {
            cols: [c0, c1, c2, c3],
        }
    }

    /// Translation by `t`.
    pub fn translate(t: Vec3) -> Self {
        let mut m = Self::IDENTITY;
        m.cols[3] = t.extend(1.0);
        m
    }

    /// Non-uniform scale.
    pub fn scale(s: Vec3) -> Self {
        let mut m = Self::IDENTITY;
        m.cols[0].x = s.x;
        m.cols[1].y = s.y;
        m.cols[2].z = s.z;
        m
    }

    /// Rotation of `angle` radians about the X axis.
    pub fn rotate_x(angle: f32) -> Self {
        let (s, c) = angle.sin_cos();
        Self::from_cols(
            Vec4::new(1.0, 0.0, 0.0, 0.0),
            Vec4::new(0.0, c, s, 0.0),
            Vec4::new(0.0, -s, c, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }

    /// Rotation of `angle` radians about the Z axis.
    pub fn rotate_z(angle: f32) -> Self {
        let (s, c) = angle.sin_cos();
        Self::from_cols(
            Vec4::new(c, s, 0.0, 0.0),
            Vec4::new(-s, c, 0.0, 0.0),
            Vec4::new(0.0, 0.0, 1.0, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }

    /// Right-handed perspective projection (OpenGL clip conventions:
    /// visible z in `[-w, w]`).
    pub fn perspective(fov_y: f32, aspect: f32, near: f32, far: f32) -> Self {
        let f = 1.0 / (fov_y * 0.5).tan();
        Self::from_cols(
            Vec4::new(f / aspect, 0.0, 0.0, 0.0),
            Vec4::new(0.0, f, 0.0, 0.0),
            Vec4::new(0.0, 0.0, (far + near) / (near - far), -1.0),
            Vec4::new(0.0, 0.0, 2.0 * far * near / (near - far), 0.0),
        )
    }

    /// Right-handed look-at view matrix.
    pub fn look_at(eye: Vec3, center: Vec3, up: Vec3) -> Self {
        let f = (center - eye).normalized();
        let s = f.cross(up).normalized();
        let u = s.cross(f);
        Self::from_cols(
            Vec4::new(s.x, u.x, -f.x, 0.0),
            Vec4::new(s.y, u.y, -f.y, 0.0),
            Vec4::new(s.z, u.z, -f.z, 0.0),
            Vec4::new(-s.dot(eye), -u.dot(eye), f.dot(eye), 1.0),
        )
    }

    /// Matrix–vector product `M · v`.
    pub fn mul_vec4(&self, v: Vec4) -> Vec4 {
        self.cols[0] * v.x + self.cols[1] * v.y + self.cols[2] * v.z + self.cols[3] * v.w
    }

    /// Matrix–matrix product `self · rhs`.
    pub fn mul_mat4(&self, rhs: &Mat4) -> Mat4 {
        Mat4 {
            cols: [
                self.mul_vec4(rhs.cols[0]),
                self.mul_vec4(rhs.cols[1]),
                self.mul_vec4(rhs.cols[2]),
                self.mul_vec4(rhs.cols[3]),
            ],
        }
    }

    /// Flat column-major array of the 16 elements.
    pub fn to_array(&self) -> [f32; 16] {
        let mut out = [0.0; 16];
        for (c, col) in self.cols.iter().enumerate() {
            out[c * 4] = col.x;
            out[c * 4 + 1] = col.y;
            out[c * 4 + 2] = col.z;
            out[c * 4 + 3] = col.w;
        }
        out
    }
}

impl Default for Mat4 {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl Mul for Mat4 {
    type Output = Mat4;
    fn mul(self, rhs: Mat4) -> Mat4 {
        self.mul_mat4(&rhs)
    }
}

/// An inclusive integer rectangle in screen/tile coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct IRect {
    /// Minimum x (inclusive).
    pub x0: i32,
    /// Minimum y (inclusive).
    pub y0: i32,
    /// Maximum x (inclusive).
    pub x1: i32,
    /// Maximum y (inclusive).
    pub y1: i32,
}

impl IRect {
    /// Constructs from inclusive bounds.
    pub const fn new(x0: i32, y0: i32, x1: i32, y1: i32) -> Self {
        Self { x0, y0, x1, y1 }
    }

    /// Empty when the bounds are inverted.
    pub fn is_empty(&self) -> bool {
        self.x1 < self.x0 || self.y1 < self.y0
    }

    /// Intersection with another rectangle (may be empty).
    pub fn intersect(&self, o: &IRect) -> IRect {
        IRect::new(
            self.x0.max(o.x0),
            self.y0.max(o.y0),
            self.x1.min(o.x1),
            self.y1.min(o.y1),
        )
    }
}

/// Twice the signed area of triangle `(a, b, c)`; positive when
/// counter-clockwise in a y-up coordinate system.
pub fn signed_area2(a: Vec2, b: Vec2, c: Vec2) -> f32 {
    (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y)
}

/// Packs an RGBA color (components clamped to `[0,1]`) into `0xAABBGGRR`
/// byte order — R in the lowest byte, matching a byte-wise `[r, g, b, a]`
/// little-endian framebuffer layout.
pub fn pack_rgba8(r: f32, g: f32, b: f32, a: f32) -> u32 {
    let q = |v: f32| (v.clamp(0.0, 1.0) * 255.0 + 0.5) as u32;
    q(r) | (q(g) << 8) | (q(b) << 16) | (q(a) << 24)
}

/// Unpacks [`pack_rgba8`] output back to floats in `[0,1]`.
pub fn unpack_rgba8(px: u32) -> [f32; 4] {
    [
        (px & 0xff) as f32 / 255.0,
        ((px >> 8) & 0xff) as f32 / 255.0,
        ((px >> 16) & 0xff) as f32 / 255.0,
        ((px >> 24) & 0xff) as f32 / 255.0,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn vec3_cross_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-2.0, 0.5, 4.0);
        let c = a.cross(b);
        assert!(approx(c.dot(a), 0.0));
        assert!(approx(c.dot(b), 0.0));
    }

    #[test]
    fn normalized_has_unit_length() {
        let v = Vec3::new(3.0, 4.0, 0.0).normalized();
        assert!(approx(v.length(), 1.0));
        // Near-zero vectors pass through untouched.
        let z = Vec3::splat(0.0).normalized();
        assert_eq!(z, Vec3::splat(0.0));
    }

    #[test]
    fn identity_is_neutral() {
        let v = Vec4::new(1.0, -2.0, 3.0, 1.0);
        assert_eq!(Mat4::IDENTITY.mul_vec4(v), v);
        let m = Mat4::rotate_x(0.7);
        let i = Mat4::IDENTITY.mul_mat4(&m);
        for c in 0..4 {
            assert!(approx(i.cols[c].x, m.cols[c].x));
            assert!(approx(i.cols[c].w, m.cols[c].w));
        }
    }

    #[test]
    fn translate_moves_points_not_directions() {
        let t = Mat4::translate(Vec3::new(1.0, 2.0, 3.0));
        let p = t.mul_vec4(Vec4::new(0.0, 0.0, 0.0, 1.0));
        assert_eq!(p.truncate(), Vec3::new(1.0, 2.0, 3.0));
        let d = t.mul_vec4(Vec4::new(1.0, 0.0, 0.0, 0.0));
        assert_eq!(d.truncate(), Vec3::new(1.0, 0.0, 0.0));
    }

    #[test]
    fn rotation_preserves_length() {
        let m = Mat4::rotate_x(1.1).mul_mat4(&Mat4::rotate_z(-0.4));
        let v = Vec4::new(1.0, 2.0, 3.0, 0.0);
        let r = m.mul_vec4(v);
        assert!(approx(r.truncate().length(), v.truncate().length()));
    }

    #[test]
    fn perspective_maps_near_and_far_planes() {
        let m = Mat4::perspective(std::f32::consts::FRAC_PI_2, 1.0, 1.0, 10.0);
        let near = m
            .mul_vec4(Vec4::new(0.0, 0.0, -1.0, 1.0))
            .perspective_divide();
        let far = m
            .mul_vec4(Vec4::new(0.0, 0.0, -10.0, 1.0))
            .perspective_divide();
        assert!(approx(near.z, -1.0));
        assert!(approx(far.z, 1.0));
    }

    #[test]
    fn look_at_centers_target() {
        let m = Mat4::look_at(
            Vec3::new(0.0, 0.0, 5.0),
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        );
        let c = m.mul_vec4(Vec4::new(0.0, 0.0, 0.0, 1.0));
        assert!(approx(c.x, 0.0));
        assert!(approx(c.y, 0.0));
        assert!(approx(c.z, -5.0)); // 5 units in front of the camera
    }

    #[test]
    fn irect_basics() {
        let r = IRect::new(0, 0, 3, 1);
        let s = r.intersect(&IRect::new(2, 1, 10, 10));
        assert_eq!(s, IRect::new(2, 1, 3, 1));
        assert!(r.intersect(&IRect::new(5, 5, 6, 6)).is_empty());
    }

    #[test]
    fn rgba_pack_roundtrip() {
        let px = pack_rgba8(1.0, 0.5, 0.0, 1.0);
        let [r, g, b, a] = unpack_rgba8(px);
        assert!(approx(r, 1.0));
        assert!((g - 0.5).abs() < 0.01);
        assert!(approx(b, 0.0));
        assert!(approx(a, 1.0));
        // Out-of-range input clamps rather than wrapping.
        assert_eq!(pack_rgba8(2.0, -1.0, 0.0, 1.0) & 0xffff, 0x00ff);
    }

    #[test]
    fn signed_area_orientation() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(1.0, 0.0);
        let c = Vec2::new(0.0, 1.0);
        assert!(signed_area2(a, b, c) > 0.0);
        assert!(signed_area2(a, c, b) < 0.0);
    }
}

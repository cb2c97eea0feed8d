//! Triangle meshes and procedural generators.

use emerald_common::math::{Mat4, Vec2, Vec3};
use emerald_common::rng::Xorshift64;
use std::f32::consts::{PI, TAU};

/// An indexed triangle mesh with per-vertex position, normal and UV.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Mesh {
    /// Object-space vertex positions.
    pub positions: Vec<Vec3>,
    /// Per-vertex normals (unit length after
    /// `Mesh::compute_flat_normals`).
    pub normals: Vec<Vec3>,
    /// Per-vertex texture coordinates.
    pub uvs: Vec<Vec2>,
    /// Triangle-list indices (`3 × tri_count` entries).
    pub indices: Vec<u32>,
}

impl Mesh {
    /// An empty mesh.
    fn new() -> Self {
        Self::default()
    }

    /// Number of triangles.
    pub fn tri_count(&self) -> usize {
        self.indices.len() / 3
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.positions.len()
    }

    /// Checks structural invariants: indices in range and a multiple of 3,
    /// attribute arrays equally sized.
    pub fn validate(&self) -> bool {
        let n = self.positions.len();
        self.normals.len() == n
            && self.uvs.len() == n
            && self.indices.len().is_multiple_of(3)
            && self.indices.iter().all(|&i| (i as usize) < n)
    }

    /// Applies `m` to positions (and its rotation to normals; `m` must be a
    /// rigid transform plus uniform scale for the normals to stay valid).
    pub fn transform(&mut self, m: &Mat4) {
        for p in &mut self.positions {
            *p = m.mul_vec4(p.extend(1.0)).truncate();
        }
        for nrm in &mut self.normals {
            *nrm = m.mul_vec4(nrm.extend(0.0)).truncate().normalized();
        }
    }

    /// Appends another mesh.
    fn merge(&mut self, other: &Mesh) {
        let base = self.positions.len() as u32;
        self.positions.extend_from_slice(&other.positions);
        self.normals.extend_from_slice(&other.normals);
        self.uvs.extend_from_slice(&other.uvs);
        self.indices.extend(other.indices.iter().map(|i| i + base));
    }

    /// Replaces normals with per-face flat normals (duplicating no
    /// vertices; the last face writing a vertex wins, which is fine for
    /// the lighting term the shaders use).
    fn compute_flat_normals(&mut self) {
        self.normals = vec![Vec3::splat(0.0); self.positions.len()];
        for t in self.indices.chunks_exact(3) {
            let (a, b, c) = (t[0] as usize, t[1] as usize, t[2] as usize);
            let n = (self.positions[b] - self.positions[a])
                .cross(self.positions[c] - self.positions[a])
                .normalized();
            self.normals[a] = n;
            self.normals[b] = n;
            self.normals[c] = n;
        }
    }
}

fn push_quad(m: &mut Mesh, a: u32, b: u32, c: u32, d: u32) {
    // Counter-clockwise when viewed from the front (OpenGL convention).
    m.indices.extend_from_slice(&[a, c, b, a, d, c]);
}

/// A unit cube centered at the origin (12 triangles, 24 vertices so each
/// face gets proper normals/UVs).
pub fn unit_cube() -> Mesh {
    let mut m = Mesh::new();
    // (normal axis, sign)
    let faces = [
        (
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ),
        (
            Vec3::new(-1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, -1.0),
        ),
        (
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(1.0, 0.0, 0.0),
        ),
        (
            Vec3::new(0.0, -1.0, 0.0),
            Vec3::new(0.0, 0.0, -1.0),
            Vec3::new(1.0, 0.0, 0.0),
        ),
        (
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(-1.0, 0.0, 0.0),
        ),
        (
            Vec3::new(0.0, 0.0, -1.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
        ),
    ];
    for (n, up, right) in faces {
        let base = m.positions.len() as u32;
        let center = n * 0.5;
        let corners = [
            center - up * 0.5 - right * 0.5,
            center - up * 0.5 + right * 0.5,
            center + up * 0.5 + right * 0.5,
            center + up * 0.5 - right * 0.5,
        ];
        let uvs = [
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(0.0, 1.0),
        ];
        for (p, uv) in corners.iter().zip(uvs) {
            m.positions.push(*p);
            m.normals.push(n);
            m.uvs.push(uv);
        }
        push_quad(&mut m, base, base + 1, base + 2, base + 3);
    }
    m
}

/// An `nx × nz` grid of quads in the XZ plane, spanning `[-0.5, 0.5]²`
/// (the "Triangles" M4-style flat workload).
pub fn plane_grid(nx: usize, nz: usize) -> Mesh {
    assert!(nx > 0 && nz > 0);
    let mut m = Mesh::new();
    for z in 0..=nz {
        for x in 0..=nx {
            let fx = x as f32 / nx as f32;
            let fz = z as f32 / nz as f32;
            m.positions.push(Vec3::new(fx - 0.5, 0.0, fz - 0.5));
            m.normals.push(Vec3::new(0.0, 1.0, 0.0));
            m.uvs.push(Vec2::new(fx, fz));
        }
    }
    let stride = (nx + 1) as u32;
    for z in 0..nz as u32 {
        for x in 0..nx as u32 {
            let a = z * stride + x;
            push_quad(&mut m, a, a + 1, a + stride + 1, a + stride);
        }
    }
    m
}

/// A UV sphere of the given radius.
pub fn uv_sphere(radius: f32, stacks: usize, slices: usize) -> Mesh {
    assert!(stacks >= 2 && slices >= 3);
    let mut m = Mesh::new();
    for st in 0..=stacks {
        let phi = PI * st as f32 / stacks as f32; // 0 at +Y pole
        for sl in 0..=slices {
            let theta = TAU * sl as f32 / slices as f32;
            let n = Vec3::new(phi.sin() * theta.cos(), phi.cos(), phi.sin() * theta.sin());
            m.positions.push(n * radius);
            m.normals.push(n);
            m.uvs.push(Vec2::new(
                sl as f32 / slices as f32,
                st as f32 / stacks as f32,
            ));
        }
    }
    let stride = (slices + 1) as u32;
    for st in 0..stacks as u32 {
        for sl in 0..slices as u32 {
            let a = st * stride + sl;
            push_quad(&mut m, a, a + stride, a + stride + 1, a + 1);
        }
    }
    m
}

/// A sphere with deterministic radial noise — the stand-in for organic
/// models like Suzanne (W4/W5) and the mask (M3).
pub(crate) fn bumpy_sphere(
    radius: f32,
    stacks: usize,
    slices: usize,
    bump: f32,
    seed: u64,
) -> Mesh {
    let mut m = uv_sphere(radius, stacks, slices);
    let mut rng = Xorshift64::new(seed);
    // Low-frequency bump field from a few random spherical harmonics-ish
    // cosine lobes, so neighbouring vertices move coherently.
    let lobes: Vec<(Vec3, f32)> = (0..6)
        .map(|_| {
            let d = Vec3::new(
                rng.next_f32() * 2.0 - 1.0,
                rng.next_f32() * 2.0 - 1.0,
                rng.next_f32() * 2.0 - 1.0,
            )
            .normalized();
            (d, 1.0 + rng.next_f32() * 3.0)
        })
        .collect();
    for p in &mut m.positions {
        let dir = p.normalized();
        let mut h = 0.0;
        for (d, f) in &lobes {
            h += (dir.dot(*d) * f).cos();
        }
        *p = dir * (radius + bump * h / lobes.len() as f32);
    }
    m.compute_flat_normals();
    m
}

/// A torus (major radius `big_r`, tube radius `small_r`) — the rounded-
/// body stand-in used to build the teapot-class workload (W6).
pub fn torus(big_r: f32, small_r: f32, seg_major: usize, seg_minor: usize) -> Mesh {
    assert!(seg_major >= 3 && seg_minor >= 3);
    let mut m = Mesh::new();
    for i in 0..=seg_major {
        let u = TAU * i as f32 / seg_major as f32;
        let center = Vec3::new(u.cos() * big_r, 0.0, u.sin() * big_r);
        for j in 0..=seg_minor {
            let v = TAU * j as f32 / seg_minor as f32;
            let n = Vec3::new(u.cos() * v.cos(), v.sin(), u.sin() * v.cos());
            m.positions.push(center + n * small_r);
            m.normals.push(n);
            m.uvs.push(Vec2::new(
                i as f32 / seg_major as f32,
                j as f32 / seg_minor as f32,
            ));
        }
    }
    let stride = (seg_minor + 1) as u32;
    for i in 0..seg_major as u32 {
        for j in 0..seg_minor as u32 {
            let a = i * stride + j;
            push_quad(&mut m, a, a + stride, a + stride + 1, a + 1);
        }
    }
    m
}

/// Teapot-class composite (W6): a torus body, a sphere lid and a bent
/// torus-segment handle. Triangle count lands near the classic teapot's.
pub fn teapot_like() -> Mesh {
    let mut body = torus(0.6, 0.35, 32, 20);
    body.transform(&Mat4::scale(Vec3::new(1.0, 1.2, 1.0)));
    let mut lid = uv_sphere(0.42, 12, 18);
    lid.transform(&Mat4::translate(Vec3::new(0.0, 0.45, 0.0)));
    body.merge(&lid);
    let mut handle = torus(0.35, 0.08, 16, 8);
    handle.transform(
        &Mat4::translate(Vec3::new(-0.95, 0.1, 0.0)).mul_mat4(&Mat4::rotate_x(PI / 2.0)),
    );
    body.merge(&handle);
    let mut spout = torus(0.3, 0.1, 12, 8);
    spout
        .transform(&Mat4::translate(Vec3::new(0.95, 0.1, 0.0)).mul_mat4(&Mat4::rotate_z(PI / 3.0)));
    body.merge(&spout);
    body
}

/// Reverses winding (and normals) so the back side becomes the front.
fn flip(mesh: &mut Mesh) {
    mesh.indices.chunks_exact_mut(3).for_each(|t| t.swap(1, 2));
    for n in &mut mesh.normals {
        *n = -*n;
    }
}

/// An inward-facing room with a colonnade — the architectural stand-in for
/// the Sibenik cathedral (W1): large occluding walls, columns producing
/// uneven screen-space load. Walls are tessellated into grids so that
/// near-plane discards (this model culls rather than clips; see DESIGN.md)
/// lose only a small ring of geometry around the camera.
pub(crate) fn room_with_columns(width: f32, height: f32, depth: f32, columns: usize) -> Mesh {
    let mut room = Mesh::new();
    let grid = || plane_grid(8, 8); // front face is +Y
                                    // Each wall: orient the grid so its front face points inward.
    let mut add = |m: Mat4, flip_front: bool, scale: Vec3| {
        let mut w = grid();
        if flip_front {
            flip(&mut w);
        }
        w.transform(&m.mul_mat4(&Mat4::scale(scale)));
        room.merge(&w);
    };
    let (hw, hh, hd) = (width / 2.0, height / 2.0, depth / 2.0);
    // Floor (inward normal +Y: the grid's front).
    add(
        Mat4::translate(Vec3::new(0.0, -hh, 0.0)),
        false,
        Vec3::new(width, 1.0, depth),
    );
    // Ceiling (inward normal -Y).
    add(
        Mat4::translate(Vec3::new(0.0, hh, 0.0)),
        true,
        Vec3::new(width, 1.0, depth),
    );
    // Wall at z=+hd (inward normal -Z): rotate_x(-π/2) maps +Y → -Z.
    add(
        Mat4::translate(Vec3::new(0.0, 0.0, hd)).mul_mat4(&Mat4::rotate_x(-PI / 2.0)),
        false,
        Vec3::new(width, 1.0, height),
    );
    // Wall at z=-hd (inward normal +Z).
    add(
        Mat4::translate(Vec3::new(0.0, 0.0, -hd)).mul_mat4(&Mat4::rotate_x(PI / 2.0)),
        false,
        Vec3::new(width, 1.0, height),
    );
    // Wall at x=+hw (inward normal -X): rotate_z(π/2) maps +Y → -X.
    add(
        Mat4::translate(Vec3::new(hw, 0.0, 0.0)).mul_mat4(&Mat4::rotate_z(PI / 2.0)),
        false,
        Vec3::new(height, 1.0, depth),
    );
    // Wall at x=-hw (inward normal +X).
    add(
        Mat4::translate(Vec3::new(-hw, 0.0, 0.0)).mul_mat4(&Mat4::rotate_z(-PI / 2.0)),
        false,
        Vec3::new(height, 1.0, depth),
    );
    // Colonnade: two rows of octagonal prisms.
    for i in 0..columns {
        for side in [-1.0f32, 1.0] {
            let mut col = prism(8, 0.08 * width, height * 0.96);
            let x = (i as f32 + 0.5) / columns as f32 - 0.5;
            col.transform(&Mat4::translate(Vec3::new(
                x * width * 0.8,
                0.0,
                side * depth * 0.3,
            )));
            room.merge(&col);
        }
    }
    room
}

/// A vertical `n`-gon prism (used for columns), tessellated into 4
/// vertical segments so near-plane discards stay local.
fn prism(n: usize, radius: f32, height: f32) -> Mesh {
    assert!(n >= 3);
    const VSEG: usize = 4;
    let mut m = Mesh::new();
    for i in 0..=n {
        let a = TAU * i as f32 / n as f32;
        let nrm = Vec3::new(a.cos(), 0.0, a.sin());
        for s in 0..=VSEG {
            let v = s as f32 / VSEG as f32;
            let y = -height / 2.0 + height * v;
            m.positions
                .push(Vec3::new(nrm.x * radius, y, nrm.z * radius));
            m.normals.push(nrm);
            m.uvs.push(Vec2::new(i as f32 / n as f32, v));
        }
    }
    let stride = (VSEG + 1) as u32;
    for i in 0..n as u32 {
        for s in 0..VSEG as u32 {
            let a = i * stride + s;
            push_quad(&mut m, a, a + stride, a + stride + 1, a + 1);
        }
    }
    m
}

/// A chair-like composite of boxes (M1: the heaviest Android model).
pub(crate) fn chair() -> Mesh {
    let mut m = Mesh::new();
    let part = |scale: Vec3, at: Vec3| {
        let mut c = unit_cube();
        c.transform(&Mat4::translate(at).mul_mat4(&Mat4::scale(scale)));
        c
    };
    // Seat, back, 4 legs, 2 armrests.
    m.merge(&part(Vec3::new(1.0, 0.1, 1.0), Vec3::new(0.0, 0.0, 0.0)));
    m.merge(&part(Vec3::new(1.0, 1.0, 0.1), Vec3::new(0.0, 0.55, -0.45)));
    for (x, z) in [(-0.45, -0.45), (0.45, -0.45), (-0.45, 0.45), (0.45, 0.45)] {
        m.merge(&part(Vec3::new(0.08, 0.9, 0.08), Vec3::new(x, -0.5, z)));
    }
    for x in [-0.5, 0.5] {
        m.merge(&part(Vec3::new(0.08, 0.08, 0.9), Vec3::new(x, 0.3, 0.0)));
    }
    // Subdivide the seat into a grid for extra geometry density (the chair
    // model in the paper is the largest of the four).
    let mut detail = plane_grid(16, 16);
    detail.transform(&Mat4::translate(Vec3::new(0.0, 0.06, 0.0)));
    m.merge(&detail);
    m
}

/// A mask-like open hemisphere with a nose ridge (M3).
pub(crate) fn mask() -> Mesh {
    let mut m = uv_sphere(0.8, 20, 28);
    // Keep only the front-facing half (z > 0) by collapsing back vertices
    // onto the rim — cheap, keeps indexing intact.
    for p in &mut m.positions {
        if p.z < 0.0 {
            p.z = 0.0;
        }
    }
    // Nose ridge.
    for p in &mut m.positions {
        let r = (p.x * p.x + (p.y + 0.1) * (p.y + 0.1)).sqrt();
        if r < 0.18 && p.z > 0.0 {
            p.z += 0.25 * (1.0 - r / 0.18);
        }
    }
    m.compute_flat_normals();
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Axis-aligned bounds `(min, max)` of a non-empty mesh.
    fn bounds(m: &Mesh) -> (Vec3, Vec3) {
        let first = m.positions[0];
        m.positions.iter().fold((first, first), |(lo, hi), p| {
            (
                Vec3::new(lo.x.min(p.x), lo.y.min(p.y), lo.z.min(p.z)),
                Vec3::new(hi.x.max(p.x), hi.y.max(p.y), hi.z.max(p.z)),
            )
        })
    }

    #[test]
    fn all_generators_validate() {
        for (name, m) in [
            ("cube", unit_cube()),
            ("plane", plane_grid(4, 4)),
            ("sphere", uv_sphere(1.0, 8, 12)),
            ("bumpy", bumpy_sphere(1.0, 8, 12, 0.1, 7)),
            ("torus", torus(1.0, 0.3, 8, 6)),
            ("teapot", teapot_like()),
            ("room", room_with_columns(4.0, 2.0, 6.0, 4)),
            ("prism", prism(8, 0.2, 1.0)),
            ("chair", chair()),
            ("mask", mask()),
        ] {
            assert!(m.validate(), "{name} invalid");
            assert!(m.tri_count() > 0, "{name} empty");
        }
    }

    #[test]
    fn cube_geometry() {
        let c = unit_cube();
        assert_eq!(c.tri_count(), 12);
        assert_eq!(c.vertex_count(), 24);
        let (lo, hi) = bounds(&c);
        assert_eq!(lo, Vec3::new(-0.5, -0.5, -0.5));
        assert_eq!(hi, Vec3::new(0.5, 0.5, 0.5));
    }

    #[test]
    fn plane_grid_counts() {
        let p = plane_grid(3, 2);
        assert_eq!(p.vertex_count(), 4 * 3);
        assert_eq!(p.tri_count(), 3 * 2 * 2);
    }

    #[test]
    fn sphere_normals_are_radial() {
        let s = uv_sphere(2.0, 6, 8);
        for (p, n) in s.positions.iter().zip(&s.normals) {
            assert!((p.length() - 2.0).abs() < 1e-4);
            assert!((p.normalized() - *n).length() < 1e-4);
        }
    }

    #[test]
    fn transform_moves_bounds() {
        let mut c = unit_cube();
        c.transform(&Mat4::translate(Vec3::new(10.0, 0.0, 0.0)));
        let (lo, hi) = bounds(&c);
        assert_eq!(lo.x, 9.5);
        assert_eq!(hi.x, 10.5);
    }

    #[test]
    fn merge_offsets_indices() {
        let mut a = unit_cube();
        let b = unit_cube();
        a.merge(&b);
        assert_eq!(a.tri_count(), 24);
        assert!(a.validate());
        assert!(a.indices[36..].iter().all(|&i| i >= 24));
    }

    #[test]
    fn bumpy_sphere_is_deterministic() {
        let a = bumpy_sphere(1.0, 10, 10, 0.2, 42);
        let b = bumpy_sphere(1.0, 10, 10, 0.2, 42);
        assert_eq!(a, b);
        let c = bumpy_sphere(1.0, 10, 10, 0.2, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn room_is_bigger_than_cube() {
        let r = room_with_columns(4.0, 2.0, 6.0, 4);
        let (lo, hi) = bounds(&r);
        assert!(hi.x - lo.x >= 4.0 - 1e-3);
        assert!(r.tri_count() > 12);
    }

    #[test]
    fn flat_normals_unit_length() {
        let mut m = teapot_like();
        m.compute_flat_normals();
        for n in &m.normals {
            let l = n.length();
            assert!(l < 1.01 && (l > 0.99 || l == 0.0), "len {l}");
        }
    }
}

//! Geometry processing: clipping/culling, screen-space setup, edge
//! functions with a top-left fill rule, and perspective-correct
//! interpolation. Used by both the timing pipeline (setup/fine raster)
//! and the software reference renderer.

use emerald_common::math::{signed_area2, IRect, Vec2, Vec4};

/// Number of interpolated varyings (u, v, diffuse).
pub const NUM_VARYINGS: usize = 3;

/// A post-vertex-shading vertex: clip-space position plus varyings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClipVert {
    /// Clip-space position.
    pub pos: Vec4,
    /// Varyings (u, v, diffuse).
    pub attrs: [f32; NUM_VARYINGS],
}

/// Sub-pixel precision of the fixed-point rasterizer (1/16 pixel, the
/// granularity real GPUs snap vertices to). Exact integer edge functions
/// make coverage watertight: a pixel on a shared edge belongs to exactly
/// one of the two adjacent triangles.
const SUBPIX: i64 = 16;

/// A primitive after setup: screen-space, ready to rasterize.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreenPrim {
    /// Pixel-space positions (y grows downward).
    pub xy: [Vec2; 3],
    /// Vertex positions snapped to the 1/16-pixel grid.
    xy_fx: [(i64, i64); 3],
    /// Depths in `[0, 1]` per vertex.
    pub z: [f32; 3],
    /// `1/w` per vertex (for perspective correction).
    pub inv_w: [f32; 3],
    /// `attr/w` per vertex.
    pub attrs_over_w: [[f32; NUM_VARYINGS]; 3],
    /// Pixel bounding box clamped to the screen (inclusive).
    pub bbox: IRect,
    /// Twice the (positive) snapped screen-space area, in sub-pixel² units.
    area2_fx: i64,
}

/// Why a primitive was discarded (stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CullReason {
    /// A vertex was behind (or on) the eye plane. The full pipeline would
    /// clip; we conservatively discard (see DESIGN.md substitutions).
    NearPlane,
    /// Entirely outside one frustum plane.
    Frustum,
    /// Facing away from the camera.
    Backface,
    /// Zero screen-space area.
    Degenerate,
}

/// Transforms a clip-space triangle to screen space, applying frustum,
/// near-plane, backface and degeneracy culling.
///
/// Front faces are counter-clockwise in NDC (OpenGL default). Returns the
/// screen primitive or the reason it was culled.
pub fn setup_prim(
    verts: &[ClipVert; 3],
    width: u32,
    height: u32,
) -> Result<ScreenPrim, CullReason> {
    const EPS: f32 = 1e-6;
    if verts.iter().any(|v| v.pos.w <= EPS) {
        return Err(CullReason::NearPlane);
    }
    // Frustum reject when all three vertices are outside one plane.
    for (axis, sign) in [
        (0usize, 1.0f32),
        (0, -1.0),
        (1, 1.0),
        (1, -1.0),
        (2, 1.0),
        (2, -1.0),
    ] {
        if verts.iter().all(|v| sign * v.pos.get(axis) > v.pos.w) {
            return Err(CullReason::Frustum);
        }
    }
    let mut xy = [Vec2::default(); 3];
    let mut z = [0.0f32; 3];
    let mut inv_w = [0.0f32; 3];
    let mut attrs_over_w = [[0.0f32; NUM_VARYINGS]; 3];
    for (i, v) in verts.iter().enumerate() {
        let ndc = v.pos.perspective_divide();
        xy[i] = Vec2::new(
            (ndc.x * 0.5 + 0.5) * width as f32,
            (0.5 - ndc.y * 0.5) * height as f32, // y grows downward on screen
        );
        z[i] = (ndc.z * 0.5 + 0.5).clamp(0.0, 1.0);
        inv_w[i] = 1.0 / v.pos.w;
        for (k, a) in v.attrs.iter().enumerate() {
            attrs_over_w[i][k] = a * inv_w[i];
        }
    }
    // CCW in NDC becomes CW (negative area) in y-down screen space.
    let area = signed_area2(xy[0], xy[1], xy[2]);
    if area >= 0.0 {
        if area == 0.0 {
            return Err(CullReason::Degenerate);
        }
        return Err(CullReason::Backface);
    }
    // Swap two vertices so the winding is CCW in y-down coordinates and
    // all edge functions are positive inside.
    xy.swap(1, 2);
    z.swap(1, 2);
    inv_w.swap(1, 2);
    attrs_over_w.swap(1, 2);

    // Snap to the sub-pixel grid; coverage uses exact integer arithmetic
    // from here on. Clamp far-offscreen coordinates so products fit i64.
    let snap =
        |v: f32| -> i64 { ((v as f64 * SUBPIX as f64).round() as i64).clamp(-(1 << 24), 1 << 24) };
    let xy_fx = [
        (snap(xy[0].x), snap(xy[0].y)),
        (snap(xy[1].x), snap(xy[1].y)),
        (snap(xy[2].x), snap(xy[2].y)),
    ];
    let area2_fx = edge_fx(xy_fx[0], xy_fx[1], xy_fx[2]);
    if area2_fx <= 0 {
        // The snap collapsed the primitive (thinner than 1/16 pixel).
        return Err(CullReason::Degenerate);
    }

    let min_x = xy_fx.iter().map(|p| p.0).min().expect("3 verts");
    let max_x = xy_fx.iter().map(|p| p.0).max().expect("3 verts");
    let min_y = xy_fx.iter().map(|p| p.1).min().expect("3 verts");
    let max_y = xy_fx.iter().map(|p| p.1).max().expect("3 verts");
    let bbox = IRect::new(
        (min_x.div_euclid(SUBPIX) as i32).max(0),
        (min_y.div_euclid(SUBPIX) as i32).max(0),
        (max_x.div_euclid(SUBPIX) as i32).min(width as i32 - 1),
        (max_y.div_euclid(SUBPIX) as i32).min(height as i32 - 1),
    );
    if bbox.is_empty() {
        return Err(CullReason::Frustum);
    }
    Ok(ScreenPrim {
        xy,
        xy_fx,
        z,
        inv_w,
        attrs_over_w,
        bbox,
        area2_fx,
    })
}

/// Exact twice-signed-area of `(a, b, p)` in sub-pixel units.
fn edge_fx(a: (i64, i64), b: (i64, i64), p: (i64, i64)) -> i64 {
    (b.0 - a.0) * (p.1 - a.1) - (b.1 - a.1) * (p.0 - a.0)
}

/// Fill-rule classification on snapped edge vectors: top and left edges
/// own their boundary samples.
fn is_top_left_fx(a: (i64, i64), b: (i64, i64)) -> bool {
    let dx = b.0 - a.0;
    let dy = b.1 - a.1;
    // In y-down CCW winding: top edges run in -x, left edges run in -y.
    dy < 0 || (dy == 0 && dx < 0)
}

impl ScreenPrim {
    /// Coverage test at pixel `(px, py)` (sampling the pixel center) using
    /// exact fixed-point edge functions — watertight across shared edges.
    /// Returns `(depth, varyings)` for covered pixels.
    #[allow(clippy::needless_range_loop)] // e[i] pairs with edge index i
    pub fn sample(&self, px: i32, py: i32) -> Option<(f32, [f32; NUM_VARYINGS])> {
        let s = (
            px as i64 * SUBPIX + SUBPIX / 2,
            py as i64 * SUBPIX + SUBPIX / 2,
        );
        let mut e = [0i64; 3];
        for i in 0..3 {
            let a = self.xy_fx[i];
            let b = self.xy_fx[(i + 1) % 3];
            e[i] = edge_fx(a, b, s);
            let inside = if is_top_left_fx(a, b) {
                e[i] >= 0
            } else {
                e[i] > 0
            };
            if !inside {
                return None;
            }
        }
        // Barycentrics: λ_i weights vertex i, from the opposite edge.
        // e0+e1+e2 == area2 exactly (integer identity), so λ sums to 1.
        let area2 = self.area2_fx as f32;
        let l0 = e[1] as f32 / area2;
        let l1 = e[2] as f32 / area2;
        let l2 = e[0] as f32 / area2;
        let z = l0 * self.z[0] + l1 * self.z[1] + l2 * self.z[2];
        let w_r = l0 * self.inv_w[0] + l1 * self.inv_w[1] + l2 * self.inv_w[2];
        let mut attrs = [0.0f32; NUM_VARYINGS];
        for (k, attr) in attrs.iter_mut().enumerate() {
            let a_over_w = l0 * self.attrs_over_w[0][k]
                + l1 * self.attrs_over_w[1][k]
                + l2 * self.attrs_over_w[2][k];
            *attr = a_over_w / w_r;
        }
        Some((z, attrs))
    }

    /// Conservative tile-coverage test for a pixel-space tile rectangle
    /// (used by coarse rasterization): true when the tile may contain
    /// covered pixels.
    pub(crate) fn overlaps_tile(&self, tile: &IRect) -> bool {
        let t = self.bbox.intersect(tile);
        if t.is_empty() {
            return false;
        }
        // All four corners outside the same edge → no overlap (exact
        // integer test, consistent with `sample`).
        let corners = [
            (t.x0 as i64 * SUBPIX, t.y0 as i64 * SUBPIX),
            ((t.x1 as i64 + 1) * SUBPIX, t.y0 as i64 * SUBPIX),
            (t.x0 as i64 * SUBPIX, (t.y1 as i64 + 1) * SUBPIX),
            ((t.x1 as i64 + 1) * SUBPIX, (t.y1 as i64 + 1) * SUBPIX),
        ];
        for i in 0..3 {
            let a = self.xy_fx[i];
            let b = self.xy_fx[(i + 1) % 3];
            if corners.iter().all(|&c| edge_fx(a, b, c) < 0) {
                return false;
            }
        }
        true
    }

    /// Min/max depth over the three vertices (Hi-Z bounds).
    pub fn z_bounds(&self) -> (f32, f32) {
        let lo = self.z[0].min(self.z[1]).min(self.z[2]);
        let hi = self.z[0].max(self.z[1]).max(self.z[2]);
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A CCW-in-NDC full-screen-ish triangle.
    fn tri(p0: (f32, f32), p1: (f32, f32), p2: (f32, f32)) -> [ClipVert; 3] {
        let mk = |(x, y): (f32, f32)| ClipVert {
            pos: Vec4::new(x, y, 0.0, 1.0),
            attrs: [0.0; NUM_VARYINGS],
        };
        [mk(p0), mk(p1), mk(p2)]
    }

    #[test]
    fn ccw_in_ndc_is_front_facing() {
        let v = tri((-0.5, -0.5), (0.5, -0.5), (0.0, 0.5));
        assert!(setup_prim(&v, 64, 64).is_ok());
        // Reversed winding is a backface.
        let v = tri((0.0, 0.5), (0.5, -0.5), (-0.5, -0.5));
        assert_eq!(setup_prim(&v, 64, 64), Err(CullReason::Backface));
    }

    #[test]
    fn near_plane_and_frustum_culls() {
        let mut v = tri((-0.5, -0.5), (0.5, -0.5), (0.0, 0.5));
        v[0].pos.w = 0.0;
        assert_eq!(setup_prim(&v, 64, 64), Err(CullReason::NearPlane));
        // Entirely right of the frustum.
        let v = tri((2.0, 0.0), (3.0, 0.0), (2.0, 1.0));
        assert_eq!(setup_prim(&v, 64, 64), Err(CullReason::Frustum));
    }

    #[test]
    fn degenerate_culled() {
        let v = tri((0.0, 0.0), (0.5, 0.5), (-0.5, -0.5));
        assert!(matches!(
            setup_prim(&v, 64, 64),
            Err(CullReason::Degenerate) | Err(CullReason::Backface)
        ));
    }

    #[test]
    fn coverage_matches_containment() {
        let v = tri((-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0));
        let p = setup_prim(&v, 8, 8).unwrap();
        // This triangle covers the lower-left half of NDC, which after the
        // y-flip is the *upper*-left half of the screen... sample a few
        // obviously-inside and obviously-outside pixels.
        let inside = p.sample(1, 1).is_some() || p.sample(1, 6).is_some();
        assert!(inside, "triangle covers half the screen");
        let covered: usize = (0..8)
            .flat_map(|y| (0..8).map(move |x| (x, y)))
            .filter(|&(x, y)| p.sample(x, y).is_some())
            .count();
        // Half of an 8×8 screen ± the diagonal.
        assert!((24..=40).contains(&covered), "covered {covered}");
    }

    #[test]
    fn shared_edge_rasterizes_exactly_once() {
        // Two triangles forming a quad; every covered pixel must belong to
        // exactly one (the top-left fill rule).
        let a = tri((-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0));
        let b = tri((1.0, -1.0), (1.0, 1.0), (-1.0, 1.0));
        let pa = setup_prim(&a, 16, 16).unwrap();
        let pb = setup_prim(&b, 16, 16).unwrap();
        let mut total = 0;
        for y in 0..16 {
            for x in 0..16 {
                let hits = pa.sample(x, y).is_some() as u32 + pb.sample(x, y).is_some() as u32;
                assert!(hits <= 1, "pixel ({x},{y}) double-covered");
                total += hits;
            }
        }
        assert_eq!(total, 256, "quad must cover the whole screen exactly");
    }

    #[test]
    fn perspective_correct_interpolation() {
        // Vertex 0 at w=1 with attr 0, vertices at w=4 with attr 1:
        // linear-in-screen interpolation would give 0.5 midway; the
        // perspective-correct value is biased toward the near vertex.
        let mut v = tri((-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0));
        v[0].attrs[0] = 0.0;
        v[1].attrs[0] = 1.0;
        v[2].attrs[0] = 1.0;
        // Re-homogenize: scale clip coords by w so ndc stays put.
        for (i, w) in [(1usize, 4.0f32), (2, 4.0)] {
            v[i].pos = Vec4::new(v[i].pos.x * w, v[i].pos.y * w, 0.0, w);
        }
        let p = setup_prim(&v, 64, 64).unwrap();
        // A pixel near the centroid.
        let (_, attrs) = p
            .sample(20, 20)
            .or_else(|| p.sample(20, 40))
            .or_else(|| p.sample(10, 30))
            .expect("interior pixel");
        assert!(
            attrs[0] < 0.45,
            "perspective correction should bias toward the near vertex, got {}",
            attrs[0]
        );
    }

    #[test]
    fn tile_overlap_conservative_but_tight() {
        let v = tri((-0.25, -0.25), (0.25, -0.25), (0.0, 0.25));
        let p = setup_prim(&v, 64, 64).unwrap();
        // The bbox region definitely overlaps.
        assert!(p.overlaps_tile(&p.bbox));
        // A far corner tile does not.
        assert!(!p.overlaps_tile(&IRect::new(0, 0, 3, 3)));
        assert!(!p.overlaps_tile(&IRect::new(60, 60, 63, 63)));
    }

    #[test]
    fn z_interpolates_between_bounds() {
        let mut v = tri((-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0));
        v[0].pos.z = -0.5; // ndc z -0.5 → 0.25
        v[1].pos.z = 0.5; // → 0.75
        v[2].pos.z = 0.5;
        let p = setup_prim(&v, 32, 32).unwrap();
        let (zlo, zhi) = p.z_bounds();
        assert!((zlo - 0.25).abs() < 1e-5);
        assert!((zhi - 0.75).abs() < 1e-5);
        for y in 0..32 {
            for x in 0..32 {
                if let Some((z, _)) = p.sample(x, y) {
                    assert!(z >= zlo - 1e-4 && z <= zhi + 1e-4);
                }
            }
        }
    }
}

//! Cameras with frame-to-frame temporal coherence.
//!
//! DFSL (case study II, §6.3) exploits the similarity of consecutive
//! frames. [`OrbitCamera`] produces exactly that: each frame rotates a few
//! degrees around the subject, so workload distribution across screen
//! tiles changes slowly.

use emerald_common::math::{Mat4, Vec3};

/// A camera orbiting a target point, advancing a fixed angle per frame.
#[derive(Debug, Clone, PartialEq)]
pub struct OrbitCamera {
    /// Point the camera looks at.
    pub target: Vec3,
    /// Orbit radius.
    pub radius: f32,
    /// Camera height above the target.
    pub height: f32,
    /// Vertical field of view in radians.
    pub fov_y: f32,
    /// Near plane distance.
    pub near: f32,
    /// Far plane distance.
    pub far: f32,
    /// Orbit advance per frame, in radians.
    pub per_frame: f32,
    /// Initial angle.
    pub phase: f32,
}

impl OrbitCamera {
    /// A default orbit: radius 3, ~2° per frame, 60° fov.
    pub fn new(radius: f32) -> Self {
        Self {
            target: Vec3::splat(0.0),
            radius,
            height: radius * 0.35,
            fov_y: 60f32.to_radians(),
            near: 0.1,
            far: 100.0,
            per_frame: 2f32.to_radians(),
            phase: 0.3,
        }
    }

    /// Eye position at `frame`.
    fn eye(&self, frame: u32) -> Vec3 {
        let a = self.phase + self.per_frame * frame as f32;
        self.target + Vec3::new(a.cos() * self.radius, self.height, a.sin() * self.radius)
    }

    /// Combined view-projection matrix at `frame` for the given aspect.
    pub fn view_proj(&self, frame: u32, aspect: f32) -> Mat4 {
        let view = Mat4::look_at(self.eye(frame), self.target, Vec3::new(0.0, 1.0, 0.0));
        let proj = Mat4::perspective(self.fov_y, aspect, self.near, self.far);
        proj.mul_mat4(&view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerald_common::math::Vec4;

    #[test]
    fn consecutive_frames_are_similar() {
        let cam = OrbitCamera::new(3.0);
        let e0 = cam.eye(0);
        let e1 = cam.eye(1);
        let e10 = cam.eye(10);
        assert!((e1 - e0).length() < (e10 - e0).length());
        assert!((e1 - e0).length() < 0.2);
    }

    #[test]
    fn target_projects_to_center() {
        let cam = OrbitCamera::new(3.0);
        let vp = cam.view_proj(5, 4.0 / 3.0);
        let clip = vp.mul_vec4(Vec4::new(0.0, 0.0, 0.0, 1.0));
        let ndc = clip.perspective_divide();
        assert!(ndc.x.abs() < 1e-4);
        // Height offset means y is slightly off-center but bounded.
        assert!(ndc.y.abs() < 0.5);
        assert!(clip.w > 0.0, "target in front of camera");
    }

    #[test]
    fn orbit_radius_preserved() {
        let cam = OrbitCamera::new(5.0);
        for f in [0, 7, 123] {
            let e = cam.eye(f) - cam.target;
            let horiz = (e.x * e.x + e.z * e.z).sqrt();
            assert!((horiz - 5.0).abs() < 1e-3);
        }
    }
}

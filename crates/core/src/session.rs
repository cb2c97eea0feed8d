//! Scene-to-pipeline binding: uploads a workload's mesh/texture once and
//! produces per-frame draw calls with orbiting-camera transforms.

use crate::shaders::{self, FsOptions};
use crate::state::{DrawCall, TextureDesc, Topology, VertexBuffer};
use emerald_mem::image::SharedMem;
use emerald_scene::workloads::WorkloadDef;

/// A workload bound into simulated memory, ready to draw each frame.
#[derive(Debug, Clone)]
pub struct SceneBinding {
    vb: VertexBuffer,
    texture: Option<TextureDesc>,
    workload: WorkloadDef,
}

impl SceneBinding {
    /// Uploads `workload`'s mesh and texture into `mem`.
    pub fn new(mem: &SharedMem, workload: &WorkloadDef) -> Self {
        let vb = VertexBuffer::upload(mem, &workload.mesh);
        let texture = workload
            .texture_data()
            .map(|t| TextureDesc::upload(mem, &t));
        Self {
            vb,
            texture,
            workload: workload.clone(),
        }
    }

    /// The bound workload definition.
    pub fn workload(&self) -> &WorkloadDef {
        &self.workload
    }

    /// Fragment-shader options implied by the workload's render state.
    pub fn fs_options(&self, late_z: bool) -> FsOptions {
        FsOptions {
            textured: self.texture.is_some(),
            depth_test: true,
            depth_write: !self.workload.translucent,
            early_z: !late_z,
            blend: self.workload.translucent,
            alpha: if self.workload.translucent {
                Some(0.55)
            } else {
                None
            },
        }
    }

    /// Builds the draw call for `frame` at the given aspect ratio.
    pub fn draw_for_frame(&self, frame: u32, aspect: f32, late_z: bool) -> DrawCall {
        let fso = self.fs_options(late_z);
        let mvp = self.workload.camera.view_proj(frame, aspect);
        DrawCall {
            vb: self.vb.clone(),
            topology: Topology::Triangles,
            vs: shaders::vertex_transform(),
            fs: shaders::fragment_shader(fso),
            mvp: mvp.to_array(),
            depth_test: fso.depth_test,
            depth_write: fso.depth_write,
            blend: fso.blend,
            texture: self.texture,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerald_scene::workloads::{m_models, w_models};

    #[test]
    fn bindings_reflect_workload_state() {
        let mem = SharedMem::with_capacity(64 << 20);
        for w in w_models() {
            let b = SceneBinding::new(&mem, &w);
            let fso = b.fs_options(false);
            assert_eq!(fso.textured, w.textured(), "{}", w.id);
            assert_eq!(fso.blend, w.translucent, "{}", w.id);
            assert_eq!(fso.depth_write, !w.translucent, "{}", w.id);
            let dc = b.draw_for_frame(0, 4.0 / 3.0, false);
            assert_eq!(dc.prim_count(), w.mesh.tri_count());
        }
    }

    #[test]
    fn untextured_m4_has_no_texture() {
        let mem = SharedMem::with_capacity(64 << 20);
        let m4 = &m_models()[3];
        let b = SceneBinding::new(&mem, m4);
        assert!(b.draw_for_frame(0, 1.0, false).texture.is_none());
    }

    #[test]
    fn frames_change_the_mvp() {
        let mem = SharedMem::with_capacity(64 << 20);
        let b = SceneBinding::new(&mem, &w_models()[2]);
        let d0 = b.draw_for_frame(0, 1.0, false);
        let d1 = b.draw_for_frame(1, 1.0, false);
        assert_ne!(d0.mvp, d1.mvp);
    }
}

//! Render state: targets, textures, vertex buffers and draw calls — the
//! thin state-tracker layer that Mesa3D provides in the original Emerald.

use emerald_common::math::pack_rgba8;
use emerald_common::types::Addr;
use emerald_isa::Program;
use emerald_mem::image::SharedMem;
use emerald_scene::mesh::Mesh;
use emerald_scene::texture::TextureData;
use std::sync::Arc;

/// Vertex record layout in memory: position (3×f32), normal (3×f32),
/// uv (2×f32) — 32 bytes, interleaved.
pub(crate) const VERTEX_STRIDE: u64 = 32;

/// Output-vertex-buffer record: clip position (4×f32) + varyings
/// (u, v, diffuse) + padding — 32 bytes.
pub(crate) const OVB_STRIDE: u64 = 32;

/// The color+depth render target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderTarget {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// Base address of the RGBA8 color buffer.
    pub color_base: Addr,
    /// Base address of the f32 depth buffer.
    pub depth_base: Addr,
}

impl RenderTarget {
    /// Allocates color and depth buffers in `mem`.
    pub fn alloc(mem: &SharedMem, width: u32, height: u32) -> Self {
        let pixels = width as u64 * height as u64;
        let color_base = mem.alloc(pixels * 4, 128);
        let depth_base = mem.alloc(pixels * 4, 128);
        Self {
            width,
            height,
            color_base,
            depth_base,
        }
    }

    /// Address of pixel `(x, y)` in the color buffer.
    pub(crate) fn color_addr(&self, x: u32, y: u32) -> Addr {
        self.color_base + (y as u64 * self.width as u64 + x as u64) * 4
    }

    /// Address of pixel `(x, y)` in the depth buffer.
    pub(crate) fn depth_addr(&self, x: u32, y: u32) -> Addr {
        self.depth_base + (y as u64 * self.width as u64 + x as u64) * 4
    }

    /// Functionally clears color and depth (clears are free in the timing
    /// model; real GPUs use fast-clear metadata, which we do not model).
    pub fn clear(&self, mem: &SharedMem, rgba: [f32; 4], depth: f32) {
        let px = pack_rgba8(rgba[0], rgba[1], rgba[2], rgba[3]);
        mem.write(|m| {
            for i in 0..(self.width as u64 * self.height as u64) {
                m.write_u32(self.color_base + i * 4, px);
                m.write_f32(self.depth_base + i * 4, depth);
            }
        });
    }

    /// Encodes the color buffer as a binary PPM (P6) image, e.g. for
    /// `std::fs::write("frame.ppm", rt.to_ppm(&mem))`.
    pub fn to_ppm(&self, mem: &SharedMem) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        mem.read(|m| {
            for i in 0..(self.width as u64 * self.height as u64) {
                let px = m.read_u32(self.color_base + i * 4);
                out.push((px & 0xff) as u8);
                out.push(((px >> 8) & 0xff) as u8);
                out.push(((px >> 16) & 0xff) as u8);
            }
        });
        out
    }

    /// Reads back the color buffer as packed RGBA rows.
    pub fn read_color(&self, mem: &SharedMem) -> Vec<u32> {
        mem.read(|m| {
            (0..self.width as u64 * self.height as u64)
                .map(|i| m.read_u32(self.color_base + i * 4))
                .collect()
        })
    }
}

/// A texture bound in memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TextureDesc {
    /// Base address of the RGBA8 texel array (row-major).
    pub base: Addr,
    /// Width in texels (power of two).
    pub width: u32,
    /// Height in texels (power of two).
    pub height: u32,
}

impl TextureDesc {
    /// Uploads texture data into `mem` and returns its descriptor.
    pub fn upload(mem: &SharedMem, data: &TextureData) -> Self {
        let base = mem.alloc(data.byte_size(), 128);
        mem.write(|m| {
            for (i, t) in data.texels().iter().enumerate() {
                m.write_u32(base + (i as u64) * 4, *t);
            }
        });
        Self {
            base,
            width: data.width(),
            height: data.height(),
        }
    }

    /// Address of texel `(x, y)` (already wrapped by the caller).
    pub(crate) fn texel_addr(&self, x: u32, y: u32) -> Addr {
        self.base + (y as u64 * self.width as u64 + x as u64) * 4
    }
}

/// A vertex buffer uploaded from a [`Mesh`], plus its expanded index list.
#[derive(Debug, Clone)]
pub struct VertexBuffer {
    /// Base address of the interleaved vertex records.
    pub base: Addr,
    /// Number of vertex records.
    pub vertex_count: u32,
    /// Triangle-list indices (corner order).
    pub indices: Vec<u32>,
}

impl VertexBuffer {
    /// Uploads a mesh: positions, normals and uvs interleaved at
    /// `VERTEX_STRIDE`.
    pub fn upload(mem: &SharedMem, mesh: &Mesh) -> Self {
        assert!(mesh.validate(), "invalid mesh");
        let n = mesh.vertex_count() as u64;
        let base = mem.alloc(n * VERTEX_STRIDE, 128);
        mem.write(|m| {
            for i in 0..mesh.vertex_count() {
                let a = base + i as u64 * VERTEX_STRIDE;
                let p = mesh.positions[i];
                let nrm = mesh.normals[i];
                let uv = mesh.uvs[i];
                m.write_f32(a, p.x);
                m.write_f32(a + 4, p.y);
                m.write_f32(a + 8, p.z);
                m.write_f32(a + 12, nrm.x);
                m.write_f32(a + 16, nrm.y);
                m.write_f32(a + 20, nrm.z);
                m.write_f32(a + 24, uv.x);
                m.write_f32(a + 28, uv.y);
            }
        });
        Self {
            base,
            vertex_count: mesh.vertex_count() as u32,
            indices: mesh.indices.clone(),
        }
    }
}

/// Primitive assembly topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Independent triangles (three corners each).
    Triangles,
    /// Triangle strip (corners `i, i+1, i+2` form triangle `i`).
    TriangleStrip,
}

/// A draw call: geometry plus pipeline state.
#[derive(Debug, Clone)]
pub struct DrawCall {
    /// Vertex data.
    pub vb: VertexBuffer,
    /// Primitive topology.
    pub topology: Topology,
    /// Vertex shader.
    pub vs: Arc<Program>,
    /// Fragment shader.
    pub fs: Arc<Program>,
    /// Column-major model-view-projection matrix.
    pub mvp: [f32; 16],
    /// Depth testing enabled.
    pub depth_test: bool,
    /// Depth writes enabled (ignored when `depth_test` is off).
    pub depth_write: bool,
    /// Alpha blending enabled.
    pub blend: bool,
    /// Bound texture for sampler 0, if any.
    pub texture: Option<TextureDesc>,
}

impl DrawCall {
    /// Number of primitives this draw produces.
    pub fn prim_count(&self) -> usize {
        match self.topology {
            Topology::Triangles => self.vb.indices.len() / 3,
            Topology::TriangleStrip => self.vb.indices.len().saturating_sub(2),
        }
    }

    /// The corner vertex indices of primitive `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= prim_count()`.
    pub fn prim_corners(&self, p: usize) -> [u32; 3] {
        match self.topology {
            Topology::Triangles => [
                self.vb.indices[3 * p],
                self.vb.indices[3 * p + 1],
                self.vb.indices[3 * p + 2],
            ],
            Topology::TriangleStrip => {
                // Alternate winding to keep orientation consistent.
                if p.is_multiple_of(2) {
                    [
                        self.vb.indices[p],
                        self.vb.indices[p + 1],
                        self.vb.indices[p + 2],
                    ]
                } else {
                    [
                        self.vb.indices[p + 1],
                        self.vb.indices[p],
                        self.vb.indices[p + 2],
                    ]
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerald_scene::mesh::unit_cube;

    #[test]
    fn render_target_addressing() {
        let mem = SharedMem::with_capacity(1 << 22);
        let rt = RenderTarget::alloc(&mem, 64, 32);
        assert_eq!(rt.color_addr(0, 0), rt.color_base);
        assert_eq!(rt.color_addr(1, 0), rt.color_base + 4);
        assert_eq!(rt.color_addr(0, 1), rt.color_base + 64 * 4);
        assert_ne!(rt.color_base, rt.depth_base);
    }

    #[test]
    fn clear_and_readback() {
        let mem = SharedMem::with_capacity(1 << 22);
        let rt = RenderTarget::alloc(&mem, 8, 8);
        rt.clear(&mem, [1.0, 0.0, 0.0, 1.0], 1.0);
        let img = rt.read_color(&mem);
        assert_eq!(img.len(), 64);
        assert!(img.iter().all(|&p| p == 0xff0000ff));
        assert_eq!(mem.read_f32(rt.depth_addr(3, 3)), 1.0);
    }

    #[test]
    fn texture_upload_roundtrip() {
        let mem = SharedMem::with_capacity(1 << 22);
        let data = TextureData::checker(32, 4);
        let t = TextureDesc::upload(&mem, &data);
        assert_eq!(mem.read_u32(t.texel_addr(0, 0)), data.texel(0, 0));
        assert_eq!(mem.read_u32(t.texel_addr(5, 9)), data.texel(5, 9));
    }

    #[test]
    fn vertex_upload_layout() {
        let mem = SharedMem::with_capacity(1 << 22);
        let cube = unit_cube();
        let vb = VertexBuffer::upload(&mem, &cube);
        assert_eq!(vb.vertex_count, 24);
        // First vertex position matches the mesh.
        assert_eq!(mem.read_f32(vb.base), cube.positions[0].x);
        assert_eq!(mem.read_f32(vb.base + 28), cube.uvs[0].y);
        // Second record starts at the stride.
        assert_eq!(mem.read_f32(vb.base + VERTEX_STRIDE), cube.positions[1].x);
    }

    #[test]
    fn strip_winding_alternates() {
        let mem = SharedMem::with_capacity(1 << 20);
        let mut vb = VertexBuffer::upload(&mem, &unit_cube());
        vb.indices = vec![0, 1, 2, 3, 4];
        let dc = DrawCall {
            vb,
            topology: Topology::TriangleStrip,
            vs: Arc::new(emerald_isa::assemble("exit").unwrap()),
            fs: Arc::new(emerald_isa::assemble("exit").unwrap()),
            mvp: [0.0; 16],
            depth_test: true,
            depth_write: true,
            blend: false,
            texture: None,
        };
        assert_eq!(dc.prim_count(), 3);
        assert_eq!(dc.prim_corners(0), [0, 1, 2]);
        assert_eq!(dc.prim_corners(1), [2, 1, 3]);
        assert_eq!(dc.prim_corners(2), [2, 3, 4]);
    }
}
#[cfg(test)]
mod ppm_tests {
    use super::*;

    #[test]
    fn ppm_header_and_size() {
        let mem = SharedMem::with_capacity(1 << 20);
        let rt = RenderTarget::alloc(&mem, 8, 4);
        rt.clear(&mem, [1.0, 0.0, 0.0, 1.0], 1.0);
        let ppm = rt.to_ppm(&mem);
        assert!(ppm.starts_with(b"P6\n8 4\n255\n"));
        assert_eq!(ppm.len(), 11 + 8 * 4 * 3);
        // First pixel is red.
        assert_eq!(&ppm[11..14], &[255, 0, 0]);
    }
}

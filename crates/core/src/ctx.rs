//! The graphics execution context: what a shader warp sees of the world.
//!
//! Implements [`ExecCtx`] over live surfaces in the memory image: bilinear
//! texture sampling through L1T addresses, depth test/update at the bound
//! depth buffer (L1Z traffic), alpha blending and color writes (L1D
//! traffic). The returned addresses drive the timing model; the pixel
//! values themselves are functional.

use crate::state::{RenderTarget, TextureDesc};
use emerald_common::math::{pack_rgba8, unpack_rgba8};
use emerald_common::snap::{SnapError, SnapReader, SnapWriter};
use emerald_common::types::Addr;
use emerald_gpu::ctx::ImageCtx;
use emerald_isa::op::MemSpace;
use emerald_isa::ExecCtx;
use emerald_mem::image::{MemImage, SharedMem};

/// Functional statistics from shader-side graphics operations.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GfxCtxStats {
    /// Depth tests that passed.
    pub ztest_pass: u64,
    /// Depth tests that failed (fragment killed).
    pub ztest_fail: u64,
    /// Texture samples performed.
    pub tex_samples: u64,
    /// Framebuffer writes.
    pub fb_writes: u64,
}

/// The pipeline state shaders run against: the memory image, the bound
/// render target and samplers, and the functional tallies. Its
/// [`ImageCtx::lock`] lends a [`GfxCtx`] over the locked image.
#[derive(Debug, Clone)]
pub(crate) struct GfxState {
    mem: SharedMem,
    rt: RenderTarget,
    textures: [Option<TextureDesc>; 4],
    stats: GfxCtxStats,
}

impl GfxState {
    /// Creates a state rendering into `rt`.
    pub(crate) fn new(mem: SharedMem, rt: RenderTarget) -> Self {
        Self {
            mem,
            rt,
            textures: [None; 4],
            stats: GfxCtxStats::default(),
        }
    }

    /// Binds `tex` to sampler `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 4`.
    pub(crate) fn bind_texture(&mut self, slot: usize, tex: Option<TextureDesc>) {
        self.textures[slot] = tex;
    }

    /// The current render target.
    pub(crate) fn render_target(&self) -> &RenderTarget {
        &self.rt
    }

    /// Functional statistics so far.
    pub(crate) fn stats(&self) -> GfxCtxStats {
        self.stats
    }

    /// Resets statistics.
    pub(crate) fn reset_stats(&mut self) {
        self.stats = GfxCtxStats::default();
    }
}

impl ImageCtx for GfxState {
    fn lock<R>(&mut self, f: impl FnOnce(&mut dyn ExecCtx) -> R) -> R {
        let Self {
            mem,
            rt,
            textures,
            stats,
        } = self;
        mem.write(|img| {
            f(&mut GfxCtx {
                img,
                rt,
                textures,
                stats,
            })
        })
    }
}

/// The graphics [`ExecCtx`]: a [`GfxState`] over its locked image.
struct GfxCtx<'a> {
    img: &'a mut MemImage,
    rt: &'a RenderTarget,
    textures: &'a [Option<TextureDesc>; 4],
    stats: &'a mut GfxCtxStats,
}

impl GfxCtx<'_> {
    fn in_bounds(&self, x: u32, y: u32) -> bool {
        x < self.rt.width && y < self.rt.height
    }
}

impl ExecCtx for GfxCtx<'_> {
    fn load(&mut self, _space: MemSpace, addr: Addr) -> u32 {
        self.img.read_u32(addr)
    }

    fn store(&mut self, _space: MemSpace, addr: Addr, value: u32) {
        self.img.write_u32(addr, value);
    }

    fn tex2d(&mut self, sampler: u8, u: f32, v: f32, texel_addrs: &mut Vec<Addr>) -> [f32; 4] {
        let Some(tex) = self.textures[(sampler as usize) & 3] else {
            return [1.0, 0.0, 1.0, 1.0]; // magenta: unbound sampler
        };
        self.stats.tex_samples += 1;
        // Wrap addressing, bilinear filter.
        let fx = u * tex.width as f32 - 0.5;
        let fy = v * tex.height as f32 - 0.5;
        let x0 = fx.floor();
        let y0 = fy.floor();
        let ax = fx - x0;
        let ay = fy - y0;
        let wrap = |c: f32, n: u32| -> u32 { (c as i64).rem_euclid(n as i64) as u32 };
        let x0w = wrap(x0, tex.width);
        let x1w = wrap(x0 + 1.0, tex.width);
        let y0w = wrap(y0, tex.height);
        let y1w = wrap(y0 + 1.0, tex.height);
        let mut out = [0.0f32; 4];
        let img = &*self.img;
        let mut fetch = |x: u32, y: u32, w: f32| {
            let addr = tex.texel_addr(x, y);
            if !texel_addrs.contains(&addr) {
                texel_addrs.push(addr);
            }
            let c = unpack_rgba8(img.read_u32(addr));
            for k in 0..4 {
                out[k] += c[k] * w;
            }
        };
        fetch(x0w, y0w, (1.0 - ax) * (1.0 - ay));
        fetch(x1w, y0w, ax * (1.0 - ay));
        fetch(x0w, y1w, (1.0 - ax) * ay);
        fetch(x1w, y1w, ax * ay);
        out
    }

    fn ztest(&mut self, x: u32, y: u32, z: f32, write: bool) -> (bool, Addr) {
        if !self.in_bounds(x, y) {
            self.stats.ztest_fail += 1;
            return (false, self.rt.depth_base);
        }
        let addr = self.rt.depth_addr(x, y);
        let stored = self.img.read_f32(addr);
        let pass = z < stored;
        if pass {
            self.stats.ztest_pass += 1;
            if write {
                self.img.write_f32(addr, z);
            }
        } else {
            self.stats.ztest_fail += 1;
        }
        (pass, addr)
    }

    fn blend(&mut self, x: u32, y: u32, src: [f32; 4]) -> ([f32; 4], Addr) {
        if !self.in_bounds(x, y) {
            return (src, self.rt.color_base);
        }
        let addr = self.rt.color_addr(x, y);
        let dst = unpack_rgba8(self.img.read_u32(addr));
        let a = src[3].clamp(0.0, 1.0);
        let out = [
            src[0] * a + dst[0] * (1.0 - a),
            src[1] * a + dst[1] * (1.0 - a),
            src[2] * a + dst[2] * (1.0 - a),
            a + dst[3] * (1.0 - a),
        ];
        (out, addr)
    }

    fn fb_write(&mut self, x: u32, y: u32, rgba: [f32; 4]) -> Addr {
        if !self.in_bounds(x, y) {
            return self.rt.color_base;
        }
        self.stats.fb_writes += 1;
        let addr = self.rt.color_addr(x, y);
        self.img
            .write_u32(addr, pack_rgba8(rgba[0], rgba[1], rgba[2], rgba[3]));
        addr
    }
}

impl emerald_common::snap::Snapshot for GfxState {
    /// Serializes the pipeline bindings (render target, samplers) and the
    /// functional counters. The backing memory image is serialized
    /// separately at the SoC level.
    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_u32(self.rt.width);
        w.put_u32(self.rt.height);
        w.put_u64(self.rt.color_base);
        w.put_u64(self.rt.depth_base);
        for t in &self.textures {
            w.put_opt(t, |w, t| {
                w.put_u64(t.base);
                w.put_u32(t.width);
                w.put_u32(t.height);
            });
        }
        w.put_u64(self.stats.ztest_pass);
        w.put_u64(self.stats.ztest_fail);
        w.put_u64(self.stats.tex_samples);
        w.put_u64(self.stats.fb_writes);
    }
}

impl emerald_common::snap::Restore for GfxState {
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rt = RenderTarget {
            width: r.get_u32()?,
            height: r.get_u32()?,
            color_base: r.get_u64()?,
            depth_base: r.get_u64()?,
        };
        for t in &mut self.textures {
            *t = r.get_opt(|r| {
                Ok(TextureDesc {
                    base: r.get_u64()?,
                    width: r.get_u32()?,
                    height: r.get_u32()?,
                })
            })?;
        }
        self.stats = GfxCtxStats {
            ztest_pass: r.get_u64()?,
            ztest_fail: r.get_u64()?,
            tex_samples: r.get_u64()?,
            fb_writes: r.get_u64()?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emerald_scene::texture::TextureData;

    fn state() -> GfxState {
        let mem = SharedMem::with_capacity(1 << 22);
        let rt = RenderTarget::alloc(&mem, 16, 16);
        rt.clear(&mem, [0.0, 0.0, 0.0, 0.0], 1.0);
        GfxState::new(mem, rt)
    }

    #[test]
    fn ztest_less_semantics() {
        let mut s = state();
        let (pass, addr) = s.lock(|c| c.ztest(3, 4, 0.5, true));
        assert!(pass);
        assert_eq!(s.mem.read_f32(addr), 0.5);
        s.lock(|c| {
            // Farther fragment fails.
            assert!(!c.ztest(3, 4, 0.7, true).0);
            // Equal depth fails (strict less).
            assert!(!c.ztest(3, 4, 0.5, true).0);
            // Nearer passes without write when write=false.
            assert!(c.ztest(3, 4, 0.2, false).0);
        });
        assert_eq!(s.mem.read_f32(addr), 0.5);
        // The tallies are counted as the tests run, across locked calls.
        assert_eq!(s.stats().ztest_pass, 2);
        assert_eq!(s.stats().ztest_fail, 2);
    }

    #[test]
    fn ztest_out_of_bounds_kills() {
        let mut s = state();
        assert!(!s.lock(|c| c.ztest(99, 0, 0.1, true)).0);
        assert!(!s.lock(|c| c.ztest(0, 16, 0.1, true)).0);
        assert_eq!(s.stats().ztest_fail, 2);
    }

    #[test]
    fn fb_write_and_blend() {
        let mut s = state();
        let (addr, (out, _)) = s.lock(|c| {
            let addr = c.fb_write(2, 2, [1.0, 0.0, 0.0, 1.0]);
            // 50% green over red: the write is visible within the call.
            (addr, c.blend(2, 2, [0.0, 1.0, 0.0, 0.5]))
        });
        assert_eq!(s.mem.read_u32(addr), 0xff0000ff);
        assert!((out[0] - 0.5).abs() < 0.01);
        assert!((out[1] - 0.5).abs() < 0.01);
        assert!(out[2].abs() < 0.01);
        assert_eq!(s.stats().fb_writes, 1);
    }

    #[test]
    fn tex2d_center_sampling_and_addresses() {
        let mut s = state();
        let tex = TextureDesc::upload(&s.mem, &TextureData::gradient(16));
        s.bind_texture(0, Some(tex));
        let mut addrs = Vec::new();
        // Sampling exactly at a texel center hits one texel value.
        let uv = (5.0 + 0.5) / 16.0;
        let rgba = s.lock(|c| c.tex2d(0, uv, uv, &mut addrs));
        assert!((rgba[0] - 5.0 / 16.0).abs() < 0.01);
        assert!((rgba[1] - 5.0 / 16.0).abs() < 0.01);
        assert!(!addrs.is_empty() && addrs.len() <= 4);
        assert_eq!(s.stats().tex_samples, 1);
    }

    #[test]
    fn tex2d_bilinear_midpoint() {
        let mut s = state();
        // Black/white columns: sampling between them gives gray.
        let data = TextureData::from_fn(8, 8, |x, _| {
            if x % 2 == 0 {
                [0.0, 0.0, 0.0, 1.0]
            } else {
                [1.0, 1.0, 1.0, 1.0]
            }
        });
        let tex = TextureDesc::upload(&s.mem, &data);
        s.bind_texture(0, Some(tex));
        let mut addrs = Vec::new();
        // u halfway between texel 0 and 1 centers.
        let rgba = s.lock(|c| c.tex2d(0, 1.0 / 8.0, 0.5 / 8.0, &mut addrs));
        assert!((rgba[0] - 0.5).abs() < 0.01, "got {}", rgba[0]);
        // The full 2x2 footprint is fetched even when a row has weight 0.
        assert_eq!(addrs.len(), 4);
    }

    #[test]
    fn unbound_sampler_is_magenta() {
        let mut s = state();
        let mut addrs = Vec::new();
        let rgba = s.lock(|c| c.tex2d(0, 0.5, 0.5, &mut addrs));
        assert_eq!(rgba, [1.0, 0.0, 1.0, 1.0]);
        assert!(addrs.is_empty());
    }

    #[test]
    fn texture_wraps() {
        let mut s = state();
        let tex = TextureDesc::upload(&s.mem, &TextureData::gradient(16));
        s.bind_texture(0, Some(tex));
        let mut a1 = Vec::new();
        let mut a2 = Vec::new();
        let c1 = s.lock(|c| c.tex2d(0, 0.25, 0.25, &mut a1));
        let c2 = s.lock(|c| c.tex2d(0, 1.25, -0.75, &mut a2));
        assert_eq!(c1, c2);
        assert_eq!(a1, a2);
    }
}

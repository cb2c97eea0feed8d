//! Screen-space TC-tile → SIMT-core mapping, with adjustable WT
//! (work-tile) granularity.
//!
//! The screen is divided into TC tiles statically pre-assigned to shader
//! cores with a modular hash (§3.4). Figure 15: grouping `WT × WT` TC
//! tiles into one work tile trades load balance (small WT) against L1
//! locality (large WT); DFSL tunes this knob dynamically.

use emerald_common::math::IRect;

/// The static screen→core assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcMap {
    width: u32,
    height: u32,
    tc_px: u32,
    wt: u32,
    cores: usize,
}

impl TcMap {
    /// Builds a map for a `width × height` target with `tc_px`-pixel TC
    /// tiles distributed over `cores` cores at WT granularity `wt`.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(width: u32, height: u32, tc_px: u32, wt: u32, cores: usize) -> Self {
        assert!(width > 0 && height > 0 && tc_px > 0 && wt > 0 && cores > 0);
        Self {
            width,
            height,
            tc_px,
            wt,
            cores,
        }
    }

    /// Number of TC tiles in x and y.
    fn tiles(&self) -> (u32, u32) {
        (
            self.width.div_ceil(self.tc_px),
            self.height.div_ceil(self.tc_px),
        )
    }

    /// Current WT size.
    pub(crate) fn wt(&self) -> u32 {
        self.wt
    }

    /// Changes the WT granularity (what DFSL adjusts between frames).
    ///
    /// # Panics
    ///
    /// Panics if `wt == 0`.
    pub(crate) fn set_wt(&mut self, wt: u32) {
        assert!(wt > 0);
        self.wt = wt;
    }

    /// Owning core of TC tile `(tx, ty)` — round-robin over WT work tiles
    /// (Fig. 15), with a row skew chosen so consecutive rows never map a
    /// column onto the same core (the paper validated a "complex hashing
    /// function" on real hardware, §3.4; a skewed modular hash is our
    /// stand-in).
    pub(crate) fn owner(&self, tx: u32, ty: u32) -> usize {
        let wx = tx / self.wt;
        let wy = ty / self.wt;
        let (tiles_x, _) = self.tiles();
        let grid_w = tiles_x.div_ceil(self.wt).max(1);
        let cores = self.cores as u32;
        // Smallest skew ≥ grid_w that is not a multiple of the core count.
        let mut skew = grid_w;
        while cores > 1 && skew % cores == 0 {
            skew += 1;
        }
        ((wx + wy * skew) % cores) as usize
    }

    /// TC-tile index range (inclusive) covering a pixel rectangle.
    fn tiles_overlapping(&self, bbox: &IRect) -> (u32, u32, u32, u32) {
        let (tiles_x, tiles_y) = self.tiles();
        let tx0 = (bbox.x0.max(0) as u32) / self.tc_px;
        let ty0 = (bbox.y0.max(0) as u32) / self.tc_px;
        let tx1 = ((bbox.x1.max(0) as u32) / self.tc_px).min(tiles_x - 1);
        let ty1 = ((bbox.y1.max(0) as u32) / self.tc_px).min(tiles_y - 1);
        (tx0, ty0, tx1, ty1)
    }

    /// The set of cores whose tiles a pixel bbox overlaps, as a bitmask
    /// (used by the VPO to build per-cluster primitive masks).
    pub(crate) fn owner_mask(&self, bbox: &IRect) -> u64 {
        let (tx0, ty0, tx1, ty1) = self.tiles_overlapping(bbox);
        let mut mask = 0u64;
        // Iterate work tiles, not TC tiles, for efficiency.
        let mut wy = ty0 / self.wt;
        while wy * self.wt <= ty1 {
            let mut wx = tx0 / self.wt;
            while wx * self.wt <= tx1 {
                mask |= 1 << self.owner(wx * self.wt, wy * self.wt);
                wx += 1;
            }
            wy += 1;
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_counts_round_up() {
        let m = TcMap::new(100, 50, 8, 1, 4);
        assert_eq!(m.tiles(), (13, 7));
    }

    #[test]
    fn wt1_round_robins_neighbors() {
        let m = TcMap::new(64, 64, 8, 1, 4);
        let o = m.owner(0, 0);
        assert_ne!(m.owner(1, 0), o);
        // A full row of 8 tiles with 4 cores wraps twice.
        let owners: Vec<usize> = (0..8).map(|x| m.owner(x, 0)).collect();
        for c in 0..4 {
            assert_eq!(owners.iter().filter(|&&o| o == c).count(), 2);
        }
    }

    #[test]
    fn larger_wt_groups_tiles() {
        let m = TcMap::new(64, 64, 8, 2, 4);
        assert_eq!(m.owner(0, 0), m.owner(1, 1));
        assert_ne!(m.owner(0, 0), m.owner(2, 0));
    }

    #[test]
    fn all_cores_used_evenly_at_wt1() {
        let m = TcMap::new(256, 192, 8, 1, 6);
        let (tx, ty) = m.tiles();
        let mut counts = [0u32; 6];
        for y in 0..ty {
            for x in 0..tx {
                counts[m.owner(x, y)] += 1;
            }
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(max - min <= ty, "imbalance {min}..{max}");
    }

    #[test]
    fn owner_mask_small_prim_hits_one_core() {
        let m = TcMap::new(64, 64, 8, 1, 4);
        let mask = m.owner_mask(&IRect::new(2, 2, 5, 5));
        assert_eq!(mask.count_ones(), 1);
        assert_eq!(mask, 1 << m.owner(0, 0));
    }

    #[test]
    fn owner_mask_fullscreen_hits_all() {
        let m = TcMap::new(64, 64, 8, 1, 4);
        let mask = m.owner_mask(&IRect::new(0, 0, 63, 63));
        assert_eq!(mask, 0b1111);
    }

    #[test]
    fn set_wt_changes_assignment() {
        let mut m = TcMap::new(64, 64, 8, 1, 4);
        m.set_wt(4);
        assert_eq!(m.wt(), 4);
        assert_eq!(m.owner(1, 0), m.owner(0, 0));
    }
}

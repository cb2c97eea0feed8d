//! Vertex batching with primitive-type-dependent warp overlap (§3.3.3).
//!
//! Vertices are assigned to warps in batches whose shape depends on the
//! primitive topology, so that every primitive's corners live in a single
//! warp ("overlapped vertex warps"). This lets the VPO compute bounding
//! boxes without consulting other warps — exactly the paper's rationale.
//! The non-overlapped ablation packs warps densely instead; primitives may
//! then span warps, and the VPO must wait for both producer warps.

use crate::state::{DrawCall, Topology};

/// One corner reference: `(vertex warp sequence, lane)` — also the OVB
/// slot the shaded result lives at (`seq * 32 + lane`).
pub type CornerRef = (u32, u8);

/// A primitive's bookkeeping through the front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrimRef {
    /// Draw-order primitive id.
    pub prim_id: u32,
    /// Where each corner's shaded vertex lives.
    pub corners: [CornerRef; 3],
}

/// A vertex warp to be shaded: which vertex index each lane fetches, and
/// which primitives are anchored to this warp (a primitive is anchored to
/// the warp holding its *last* corner).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct VertexWarp {
    /// Warp sequence number within the draw.
    pub seq: u32,
    /// Vertex index shaded by each lane.
    pub vertex_indices: Vec<u32>,
    /// Primitives anchored here, in draw order.
    pub prims: Vec<PrimRef>,
}

/// Splits a draw call into vertex warps.
///
/// With `overlap`, list topologies use 30 lanes (10 whole triangles) per
/// warp and strips repeat 2 boundary vertices so all corners are local.
/// Without it, warps are packed to 32 lanes and corners may cross warps.
pub(crate) fn build_vertex_warps(dc: &DrawCall, overlap: bool) -> Vec<VertexWarp> {
    match (dc.topology, overlap) {
        (Topology::Triangles, true) => lists_overlapped(dc),
        (Topology::Triangles, false) => lists_packed(dc),
        (Topology::TriangleStrip, true) => strips_overlapped(dc),
        (Topology::TriangleStrip, false) => strips_packed(dc),
    }
}

fn lists_overlapped(dc: &DrawCall) -> Vec<VertexWarp> {
    const PRIMS_PER_WARP: usize = 10; // 30 of 32 lanes used
    let n_prims = dc.prim_count();
    let mut warps = Vec::new();
    for (seq, chunk_start) in (0..n_prims).step_by(PRIMS_PER_WARP).enumerate() {
        let seq = seq as u32;
        let mut w = VertexWarp {
            seq,
            vertex_indices: Vec::new(),
            prims: Vec::new(),
        };
        for p in chunk_start..(chunk_start + PRIMS_PER_WARP).min(n_prims) {
            let corners = dc.prim_corners(p);
            let lane0 = w.vertex_indices.len() as u8;
            w.vertex_indices.extend_from_slice(&corners);
            w.prims.push(PrimRef {
                prim_id: p as u32,
                corners: [(seq, lane0), (seq, lane0 + 1), (seq, lane0 + 2)],
            });
        }
        warps.push(w);
    }
    warps
}

fn lists_packed(dc: &DrawCall) -> Vec<VertexWarp> {
    let n_prims = dc.prim_count();
    let corners: Vec<u32> = (0..n_prims).flat_map(|p| dc.prim_corners(p)).collect();
    let mut warps: Vec<VertexWarp> = corners
        .chunks(32)
        .enumerate()
        .map(|(seq, chunk)| VertexWarp {
            seq: seq as u32,
            vertex_indices: chunk.to_vec(),
            prims: Vec::new(),
        })
        .collect();
    for p in 0..n_prims {
        let refs = [3 * p, 3 * p + 1, 3 * p + 2].map(|c| ((c / 32) as u32, (c % 32) as u8));
        let anchor = refs[2].0 as usize;
        warps[anchor].prims.push(PrimRef {
            prim_id: p as u32,
            corners: refs,
        });
    }
    warps
}

fn strips_overlapped(dc: &DrawCall) -> Vec<VertexWarp> {
    // 32 lanes covering strip positions [30k, 30k+32): 30 new + 2 overlap.
    const STEP: usize = 30;
    let n_prims = dc.prim_count();
    if n_prims == 0 {
        return Vec::new();
    }
    let n_positions = dc.vb.indices.len();
    let mut warps = Vec::new();
    let mut seq = 0u32;
    let mut start = 0usize;
    while start + 2 < n_positions {
        let end = (start + 32).min(n_positions);
        let mut w = VertexWarp {
            seq,
            vertex_indices: dc.vb.indices[start..end].to_vec(),
            prims: Vec::new(),
        };
        // Primitives fully inside [start, end).
        let first_prim = start;
        let last_prim = end.saturating_sub(3); // prim p needs positions p..p+2
        for p in first_prim..=last_prim {
            if p >= n_prims {
                break;
            }
            let l = (p - start) as u8;
            // Alternate winding matches DrawCall::prim_corners.
            let corners = if p % 2 == 0 {
                [(seq, l), (seq, l + 1), (seq, l + 2)]
            } else {
                [(seq, l + 1), (seq, l), (seq, l + 2)]
            };
            w.prims.push(PrimRef {
                prim_id: p as u32,
                corners,
            });
        }
        warps.push(w);
        start += STEP;
        seq += 1;
    }
    warps
}

fn strips_packed(dc: &DrawCall) -> Vec<VertexWarp> {
    let n_prims = dc.prim_count();
    let mut warps: Vec<VertexWarp> = dc
        .vb
        .indices
        .chunks(32)
        .enumerate()
        .map(|(seq, chunk)| VertexWarp {
            seq: seq as u32,
            vertex_indices: chunk.to_vec(),
            prims: Vec::new(),
        })
        .collect();
    for p in 0..n_prims {
        let order = if p % 2 == 0 {
            [p, p + 1, p + 2]
        } else {
            [p + 1, p, p + 2]
        };
        let refs = order.map(|c| ((c / 32) as u32, (c % 32) as u8));
        let anchor = (p + 2) / 32;
        warps[anchor].prims.push(PrimRef {
            prim_id: p as u32,
            corners: refs,
        });
    }
    warps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::VertexBuffer;
    use emerald_mem::image::SharedMem;
    use emerald_scene::mesh::plane_grid;
    use std::sync::Arc;

    fn draw(topology: Topology, indices: Option<Vec<u32>>) -> DrawCall {
        let mem = SharedMem::with_capacity(1 << 22);
        let mesh = plane_grid(8, 8); // 128 triangles, 81 vertices
        let mut vb = VertexBuffer::upload(&mem, &mesh);
        if let Some(idx) = indices {
            vb.indices = idx;
        }
        DrawCall {
            vb,
            topology,
            vs: Arc::new(emerald_isa::assemble("exit").unwrap()),
            fs: Arc::new(emerald_isa::assemble("exit").unwrap()),
            mvp: [0.0; 16],
            depth_test: true,
            depth_write: true,
            blend: false,
            texture: None,
        }
    }

    fn check_covers_all_prims(warps: &[VertexWarp], n_prims: usize) {
        let mut seen = vec![false; n_prims];
        for w in warps {
            for p in &w.prims {
                assert!(!seen[p.prim_id as usize], "prim {} duplicated", p.prim_id);
                seen[p.prim_id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some primitive unassigned");
    }

    fn check_corner_refs(warps: &[VertexWarp], dc: &DrawCall) {
        for w in warps {
            assert!(w.vertex_indices.len() <= 32);
            for p in &w.prims {
                let expect = dc.prim_corners(p.prim_id as usize);
                for (k, &(seq, lane)) in p.corners.iter().enumerate() {
                    let vw = &warps[seq as usize];
                    assert_eq!(
                        vw.vertex_indices[lane as usize], expect[k],
                        "prim {} corner {k}",
                        p.prim_id
                    );
                }
            }
        }
    }

    #[test]
    fn overlapped_lists_keep_prims_local() {
        let dc = draw(Topology::Triangles, None);
        let warps = build_vertex_warps(&dc, true);
        check_covers_all_prims(&warps, dc.prim_count());
        check_corner_refs(&warps, &dc);
        for w in &warps {
            assert!(w.vertex_indices.len() <= 30);
            for p in &w.prims {
                assert!(p.corners.iter().all(|&(s, _)| s == w.seq));
            }
        }
        // 128 prims / 10 per warp = 13 warps.
        assert_eq!(warps.len(), 13);
    }

    #[test]
    fn packed_lists_cross_warps() {
        let dc = draw(Topology::Triangles, None);
        let warps = build_vertex_warps(&dc, false);
        check_covers_all_prims(&warps, dc.prim_count());
        check_corner_refs(&warps, &dc);
        // Denser packing uses fewer warps than the overlapped layout.
        assert_eq!(warps.len(), (128usize * 3).div_ceil(32));
        // Some primitive spans two warps (32 is not a multiple of 3).
        let spans = warps
            .iter()
            .flat_map(|w| &w.prims)
            .any(|p| p.corners.iter().any(|&(s, _)| s != p.corners[2].0));
        assert!(spans);
    }

    #[test]
    fn overlapped_strips_duplicate_boundary_vertices() {
        let indices: Vec<u32> = (0..70).collect();
        let dc = draw(Topology::TriangleStrip, Some(indices));
        let n_prims = dc.prim_count();
        assert_eq!(n_prims, 68);
        let warps = build_vertex_warps(&dc, true);
        check_covers_all_prims(&warps, n_prims);
        check_corner_refs(&warps, &dc);
        // Warp 1 starts at strip position 30: vertices 30/31 shaded twice.
        assert_eq!(warps[1].vertex_indices[0], 30);
        assert_eq!(warps[0].vertex_indices[30], 30);
        for w in &warps {
            for p in &w.prims {
                assert!(p.corners.iter().all(|&(s, _)| s == w.seq));
            }
        }
    }

    #[test]
    fn packed_strips_no_duplicates() {
        let indices: Vec<u32> = (0..70).collect();
        let dc = draw(Topology::TriangleStrip, Some(indices));
        let warps = build_vertex_warps(&dc, false);
        check_covers_all_prims(&warps, dc.prim_count());
        check_corner_refs(&warps, &dc);
        let total_lanes: usize = warps.iter().map(|w| w.vertex_indices.len()).sum();
        assert_eq!(total_lanes, 70, "packed strips shade each vertex once");
    }

    #[test]
    fn overlap_costs_extra_shading_work() {
        let indices: Vec<u32> = (0..70).collect();
        let dc = draw(Topology::TriangleStrip, Some(indices));
        let with: usize = build_vertex_warps(&dc, true)
            .iter()
            .map(|w| w.vertex_indices.len())
            .sum();
        let without: usize = build_vertex_warps(&dc, false)
            .iter()
            .map(|w| w.vertex_indices.len())
            .sum();
        assert!(with > without, "overlap re-shades boundary vertices");
    }

    /// Every builder gives every warp 1..=32 vertices, whatever the index
    /// count: `chunks(32)` yields no empty chunk, an overlapped list warp
    /// holds at least one whole primitive, and an overlapped strip warp
    /// starts only while `start + 2 < n_positions`. The renderer launches
    /// each warp as built, and `Warp::new` refuses one without a lane.
    #[test]
    fn every_vertex_warp_has_a_lane() {
        let mut dc = draw(Topology::Triangles, None);
        emerald_common::check::check("every_vertex_warp_has_a_lane", |rng| {
            dc.vb.indices = (0..rng.below(200) as u32).collect();
            for topology in [Topology::Triangles, Topology::TriangleStrip] {
                dc.topology = topology;
                for overlap in [true, false] {
                    for w in build_vertex_warps(&dc, overlap) {
                        let n = w.vertex_indices.len();
                        assert!(
                            (1..=32).contains(&n),
                            "{topology:?}, overlap {overlap}, {} indices: warp {} has {n} lanes",
                            dc.vb.indices.len(),
                            w.seq
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn empty_draw_produces_no_warps() {
        let dc = draw(Topology::Triangles, Some(vec![]));
        assert!(build_vertex_warps(&dc, true).is_empty());
        assert!(build_vertex_warps(&dc, false).is_empty());
    }
}

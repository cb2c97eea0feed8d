//! One simulation as a `Send` state machine.
//!
//! A [`Session`] owns a [`Soc`], its resolved [`crate::JobParams`], and a frame
//! cursor. [`Session::step`] advances exactly one frame — the commit
//! boundary the snapshot layer already uses — which is also the
//! scheduler's time-slice: after every step the session goes back in the
//! queue, so a slow configuration shares the workers instead of pinning
//! one.
//!
//! Frame indexing is the determinism-critical part. A cold session draws
//! warmup frames `0..warmup` (always with the default shading path, so
//! the prefix is independent of divergence parameters), then measured
//! frames at indices `warmup + frame_offset + i`; bit `i` of `seed`
//! forces late-Z shading on measured frame `i`. A forked session restores
//! the post-warmup snapshot and replays exactly the measured indices —
//! byte-for-byte the same draw stream, so forked and cold runs are
//! required to land on identical cycles, framebuffers and registries.

use crate::sweep::JobSpec;
use emerald_common::snap::{SharedSnapshot, SnapError};
use emerald_core::session::SceneBinding;
use emerald_obs::Registry;
use emerald_soc::Soc;
use std::hash::Hasher;
use std::sync::Arc;

/// Per-frame simulation budget before a frame counts as hung; the same
/// bound `emerald_figures` gives a standalone-GPU frame.
const MAX_CYCLES_PER_FRAME: u64 = 500_000_000;

/// How a session obtained its initial state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartMode {
    /// Fresh `Soc`, warmup simulated in-session.
    Cold,
    /// Restored from a shared warmed snapshot.
    Forked,
}

impl StartMode {
    /// Lowercase protocol label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            StartMode::Cold => "cold",
            StartMode::Forked => "forked",
        }
    }
}

/// Final outcome of one session, in job-id order comparable across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResult {
    /// Job id from the sweep expansion.
    pub id: usize,
    /// Axis-coordinate label.
    pub label: String,
    /// Final simulated cycle count.
    pub cycles: u64,
    /// Measured frames simulated.
    pub frames: u32,
    /// FxHash-64 over the final framebuffer pixels.
    pub fb_digest: u64,
    /// Compact single-line registry dump ([`Registry::to_json_compact`]).
    pub registry_json: String,
    /// Cold or forked start.
    pub start: StartMode,
    /// Scheduler slices (frames) this session consumed.
    pub slices: u32,
}

/// One running simulation job.
#[derive(Debug)]
pub struct Session {
    spec: JobSpec,
    soc: Soc,
    binding: Arc<SceneBinding>,
    aspect: f32,
    warmup_done: u32,
    measured_done: u32,
    slices: u32,
    start: StartMode,
}

// Sessions migrate between scheduler workers; losing `Send` here breaks
// the whole engine, so fail at compile time, not at the spawn site.
#[allow(dead_code)]
fn assert_session_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Session>();
}

impl Session {
    /// Builds a cold session: fresh `Soc`, scene uploaded, nothing
    /// simulated yet.
    pub fn new_cold(spec: JobSpec) -> Result<Session, String> {
        let cfg = spec.params.soc_config()?;
        let workload = spec.params.workload()?;
        let soc = Soc::new(cfg);
        let binding = Arc::new(SceneBinding::new(&soc.mem, &workload));
        let aspect = spec.params.width as f32 / spec.params.height as f32;
        Ok(Session {
            spec,
            soc,
            binding,
            aspect,
            warmup_done: 0,
            measured_done: 0,
            slices: 0,
            start: StartMode::Cold,
        })
    }

    /// Bytes of the SoC's memory image this session has allocated.
    pub(crate) fn image_bytes(&self) -> u64 {
        self.soc.mem.allocated()
    }

    /// Forks a session from a warmed shared snapshot. The binding is the
    /// *prefix's* binding: re-uploading the scene would move the
    /// allocator and diverge from the cold run, whereas the snapshot
    /// already contains the prefix's deterministic uploads at the same
    /// addresses.
    pub(crate) fn new_forked(
        spec: JobSpec,
        snapshot: &SharedSnapshot,
        binding: Arc<SceneBinding>,
    ) -> Result<Session, SnapError> {
        let cfg = spec.params.soc_config().map_err(|_| SnapError::BadValue {
            what: "fork job has an invalid config",
        })?;
        let soc = Soc::restore_shared(snapshot, &cfg)?;
        let aspect = spec.params.width as f32 / spec.params.height as f32;
        let warmup = spec.params.warmup;
        Ok(Session {
            spec,
            soc,
            binding,
            aspect,
            warmup_done: warmup,
            measured_done: 0,
            slices: 0,
            start: StartMode::Forked,
        })
    }

    /// The job this session runs.
    pub(crate) fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Shared scene binding (handed to fork members by prefix tasks).
    pub(crate) fn binding(&self) -> Arc<SceneBinding> {
        Arc::clone(&self.binding)
    }

    /// True once warmup and all measured frames have been simulated.
    pub(crate) fn is_done(&self) -> bool {
        self.warmup_done >= self.spec.params.warmup && self.measured_done >= self.spec.params.frames
    }

    /// True once the warmup prefix is complete (prefix tasks snapshot
    /// here).
    pub(crate) fn warmup_complete(&self) -> bool {
        self.warmup_done >= self.spec.params.warmup
    }

    /// Checkpoints the current (inter-frame) state as a validated shared
    /// snapshot.
    pub(crate) fn checkpoint_shared(&mut self) -> SharedSnapshot {
        SharedSnapshot::new(self.soc.checkpoint()).expect("own checkpoint validates")
    }

    /// Simulates one frame — one scheduler slice. Returns `true` while
    /// more work remains. Calling `step` on a finished session is a
    /// scheduler bug.
    pub fn step(&mut self) -> bool {
        assert!(!self.is_done(), "step on a finished session");
        let p = &self.spec.params;
        let (frame, late_z) = if self.warmup_done < p.warmup {
            // Warmup draws ignore divergence parameters so every group
            // member shares the identical prefix.
            (self.warmup_done, false)
        } else {
            let i = self.measured_done;
            let frame = p.warmup + p.frame_offset + i;
            (frame, (p.seed >> (i % 64)) & 1 == 1)
        };
        let draw = self.binding.draw_for_frame(frame, self.aspect, late_z);
        self.soc.run_frame(vec![draw], MAX_CYCLES_PER_FRAME);
        // vsync == 0 means unpaced (checked_div yields None).
        if let Some(slot) = self.soc.now().checked_div(p.vsync) {
            self.soc.idle_until((slot + 1) * p.vsync);
        }
        if self.warmup_done < p.warmup {
            self.warmup_done += 1;
        } else {
            self.measured_done += 1;
        }
        self.slices += 1;
        !self.is_done()
    }

    /// Finishes the session: digests the framebuffer, publishes the
    /// registry, and returns the comparable result record.
    pub fn finish(self) -> SessionResult {
        let fb = self.soc.rt.read_color(&self.soc.mem);
        let mut h = emerald_common::hash::FxHasher::default();
        for px in &fb {
            h.write_u32(*px);
        }
        let mut reg = Registry::new();
        self.soc.publish(&mut reg);
        SessionResult {
            id: self.spec.id,
            label: self.spec.label,
            cycles: self.soc.now(),
            frames: self.measured_done,
            fb_digest: h.finish(),
            registry_json: reg.to_json_compact(),
            start: self.start,
            slices: self.slices,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::JobParams;

    fn spec(params: JobParams) -> JobSpec {
        JobSpec {
            id: 0,
            label: "t".to_string(),
            params,
        }
    }

    #[test]
    fn fork_is_bit_identical_to_cold() {
        let params = JobParams {
            warmup: 1,
            frames: 1,
            frame_offset: 1,
            seed: 1,
            ..JobParams::default()
        };
        // Cold arm: warmup + measured in one session.
        let mut cold = Session::new_cold(spec(params.clone())).unwrap();
        while cold.step() {}
        // Forked arm: a prefix session warms and snapshots, the member
        // restores and replays only the measured frames.
        let mut prefix_params = params.clone();
        prefix_params.frames = 0;
        prefix_params.frame_offset = 0;
        prefix_params.seed = 0;
        let mut prefix = Session::new_cold(spec(prefix_params)).unwrap();
        while !prefix.warmup_complete() {
            prefix.step();
        }
        let snap = prefix.checkpoint_shared();
        let mut fork = Session::new_forked(spec(params), &snap, prefix.binding()).unwrap();
        while fork.step() {}

        let (c, f) = (cold.finish(), fork.finish());
        assert_eq!(c.cycles, f.cycles);
        assert_eq!(c.fb_digest, f.fb_digest);
        assert_eq!(c.registry_json, f.registry_json);
        assert_eq!(c.start, StartMode::Cold);
        assert_eq!(f.start, StartMode::Forked);
    }

    #[test]
    fn divergence_axes_actually_diverge() {
        let base = JobParams {
            warmup: 1,
            frames: 1,
            ..JobParams::default()
        };
        let run = |params: JobParams| {
            let mut s = Session::new_cold(spec(params)).unwrap();
            while s.step() {}
            s.finish()
        };
        let a = run(base.clone());
        let b = run(JobParams {
            frame_offset: 3,
            ..base.clone()
        });
        let c = run(JobParams { seed: 1, ..base });
        assert_ne!(a.fb_digest, b.fb_digest, "frame_offset had no effect");
        // Late-Z switches the shading path: the image is unchanged and
        // the frame still pads to its period boundary, but the per-unit
        // instrument counts must move.
        assert_ne!(a.registry_json, c.registry_json, "seed had no effect");
    }
}

//! Dynamic Fragment-Shading Load balancing — case study II's contribution
//! (§6.3, Algorithm 1).
//!
//! DFSL exploits graphics temporal coherence: consecutive frames are
//! similar, so a WT (work-tile) granularity measured on recent frames
//! predicts the next ones. The controller alternates an *evaluation
//! phase* — rendering one frame at each candidate WT size and recording
//! its execution time — with a *run phase* that renders `run_frames`
//! frames at the best size found, then re-evaluates.

use emerald_common::types::Cycle;

/// DFSL controller parameters (Algorithm 1's `MinWT`, `MaxWT`,
/// `RunFrames`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DfslConfig {
    /// Smallest WT size evaluated.
    pub min_wt: u32,
    /// Largest WT size evaluated (inclusive — the paper evaluates WT sizes
    /// 1–10 over a 10-frame evaluation period).
    pub max_wt: u32,
    /// Frames rendered at `best_wt` between evaluations (the paper uses
    /// 100).
    pub run_frames: u32,
}

impl DfslConfig {
    /// The paper's configuration: WT 1–10, 100-frame run phase.
    pub fn paper() -> Self {
        Self {
            min_wt: 1,
            max_wt: 10,
            run_frames: 100,
        }
    }

    /// Number of evaluation frames per cycle.
    pub fn eval_frames(&self) -> u32 {
        self.max_wt - self.min_wt + 1
    }
}

/// Which phase the controller is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DfslPhase {
    /// Measuring each WT size, currently at the contained size.
    Evaluate(u32),
    /// Running at the best size found.
    Run(u32),
}

/// The DFSL controller (Algorithm 1). Drive it by asking
/// [`DfslController::wt_for_frame`] before each frame and reporting the
/// frame's execution time with [`DfslController::observe`] after.
#[derive(Debug, Clone)]
pub struct DfslController {
    cfg: DfslConfig,
    frame: u32,
    best_wt: u32,
    min_exec: Cycle,
    /// Re-evaluations completed (diagnostics).
    pub evaluations: u32,
}

impl DfslController {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics if `min_wt == 0` or `min_wt > max_wt`.
    pub fn new(cfg: DfslConfig) -> Self {
        assert!(cfg.min_wt > 0 && cfg.min_wt <= cfg.max_wt);
        Self {
            cfg,
            frame: 0,
            best_wt: cfg.min_wt,
            min_exec: Cycle::MAX,
            evaluations: 0,
        }
    }

    /// Phase for the upcoming frame.
    pub fn phase(&self) -> DfslPhase {
        let period = self.cfg.eval_frames() + self.cfg.run_frames;
        let pos = self.frame % period;
        if pos < self.cfg.eval_frames() {
            DfslPhase::Evaluate(self.cfg.min_wt + pos)
        } else {
            DfslPhase::Run(self.best_wt)
        }
    }

    /// WT size to render the upcoming frame with.
    pub fn wt_for_frame(&self) -> u32 {
        match self.phase() {
            DfslPhase::Evaluate(wt) => wt,
            DfslPhase::Run(wt) => wt,
        }
    }

    /// The best WT size found by the last completed evaluation.
    pub fn best_wt(&self) -> u32 {
        self.best_wt
    }

    /// Reports the execution time of the frame rendered at
    /// [`DfslController::wt_for_frame`], advancing Algorithm 1.
    pub fn observe(&mut self, exec_cycles: Cycle) {
        let period = self.cfg.eval_frames() + self.cfg.run_frames;
        let pos = self.frame % period;
        if pos == 0 {
            // New evaluation phase (Algorithm 1 lines 13-17).
            self.min_exec = Cycle::MAX;
            self.best_wt = self.cfg.min_wt;
        }
        if pos < self.cfg.eval_frames() {
            let wt = self.cfg.min_wt + pos;
            if exec_cycles < self.min_exec {
                self.min_exec = exec_cycles;
                self.best_wt = wt;
            }
            if pos + 1 == self.cfg.eval_frames() {
                self.evaluations += 1;
                // The controller never sees a cycle count, so rebalance
                // decisions are stamped with the frame number; the DFSL
                // track is a frame-indexed timeline, not a cycle one.
                emerald_obs::trace::instant_args(
                    emerald_obs::TraceCat::Dfsl,
                    "rebalance",
                    0,
                    self.frame as Cycle,
                    &[
                        ("best_wt", self.best_wt as u64),
                        ("min_exec_cycles", self.min_exec),
                        ("evaluation", self.evaluations as u64),
                    ],
                );
            }
        }
        self.frame += 1;
    }
}

/// Draw-call-level DFSL (§6.3: "DFSL can be extended to also track WTBest
/// at the draw call level"): one independent [`DfslController`] per draw
/// slot within the frame, so a geometry-heavy environment draw and a
/// fragment-heavy character draw can settle on different granularities.
#[derive(Debug, Clone)]
pub struct DrawLevelDfsl {
    cfg: DfslConfig,
    per_draw: Vec<DfslController>,
}

impl DrawLevelDfsl {
    /// Creates the controller bank; controllers are added lazily as draws
    /// appear.
    pub fn new(cfg: DfslConfig) -> Self {
        Self {
            cfg,
            per_draw: Vec::new(),
        }
    }

    fn ensure(&mut self, draw_idx: usize) {
        while self.per_draw.len() <= draw_idx {
            self.per_draw.push(DfslController::new(self.cfg));
        }
    }

    /// WT size for draw slot `draw_idx` of the upcoming frame.
    pub fn wt_for_draw(&mut self, draw_idx: usize) -> u32 {
        self.ensure(draw_idx);
        self.per_draw[draw_idx].wt_for_frame()
    }

    /// Reports a draw's execution time (from
    /// [`crate::GpuRenderer::draw_times`]) after the frame.
    pub fn observe_draw(&mut self, draw_idx: usize, exec_cycles: Cycle) {
        self.ensure(draw_idx);
        self.per_draw[draw_idx].observe(exec_cycles);
    }

    /// Best WT per draw slot so far.
    pub fn best_wts(&self) -> Vec<u32> {
        self.per_draw.iter().map(|c| c.best_wt()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(run: u32) -> DfslConfig {
        DfslConfig {
            min_wt: 1,
            max_wt: 4,
            run_frames: run,
        }
    }

    #[test]
    fn evaluation_sweeps_all_sizes() {
        let mut c = DfslController::new(cfg(3));
        let mut seen = Vec::new();
        for _ in 0..4 {
            seen.push(c.wt_for_frame());
            c.observe(100);
        }
        assert_eq!(seen, vec![1, 2, 3, 4]);
    }

    #[test]
    fn selects_argmin_and_runs_with_it() {
        let mut c = DfslController::new(cfg(3));
        for (wt, time) in [(1, 500), (2, 300), (3, 900), (4, 400)] {
            assert_eq!(c.wt_for_frame(), wt);
            c.observe(time);
        }
        assert_eq!(c.best_wt(), 2);
        for _ in 0..3 {
            assert_eq!(c.phase(), DfslPhase::Run(2));
            assert_eq!(c.wt_for_frame(), 2);
            c.observe(300);
        }
        // Next period re-evaluates from scratch.
        assert_eq!(c.phase(), DfslPhase::Evaluate(1));
    }

    #[test]
    fn reevaluation_adapts_to_scene_change() {
        let mut c = DfslController::new(cfg(2));
        // First period: WT 4 is best.
        for time in [400, 300, 200, 100] {
            c.observe(time);
        }
        assert_eq!(c.best_wt(), 4);
        c.observe(100);
        c.observe(100);
        // Scene changed: now WT 1 is best.
        for time in [50, 300, 200, 100] {
            assert!(matches!(c.phase(), DfslPhase::Evaluate(_)));
            c.observe(time);
        }
        assert_eq!(c.best_wt(), 1);
        assert_eq!(c.evaluations, 2);
    }

    #[test]
    fn ties_prefer_smaller_wt() {
        let mut c = DfslController::new(cfg(1));
        for _ in 0..4 {
            c.observe(100);
        }
        assert_eq!(c.best_wt(), 1, "strict less keeps the first minimum");
    }

    #[test]
    fn paper_config_eval_period_is_ten() {
        assert_eq!(DfslConfig::paper().eval_frames(), 10);
        assert_eq!(DfslConfig::paper().run_frames, 100);
    }

    #[test]
    fn draw_level_controllers_are_independent() {
        let mut d = DrawLevelDfsl::new(cfg(2));
        // Draw 0 fastest at WT4, draw 1 fastest at WT1.
        for frame in 0..4u64 {
            assert_eq!(d.wt_for_draw(0), frame as u32 + 1);
            assert_eq!(d.wt_for_draw(1), frame as u32 + 1);
            d.observe_draw(0, 400 - frame * 50);
            d.observe_draw(1, 100 + frame * 50);
        }
        assert_eq!(d.best_wts(), vec![4, 1]);
        assert_eq!(d.wt_for_draw(0), 4);
        assert_eq!(d.wt_for_draw(1), 1);
    }

    #[test]
    #[should_panic]
    fn zero_min_wt_rejected() {
        DfslController::new(DfslConfig {
            min_wt: 0,
            max_wt: 4,
            run_frames: 1,
        });
    }
}

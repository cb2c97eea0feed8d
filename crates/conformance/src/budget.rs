//! Wall-clock budgets for SoC-running conformance oracles, with
//! snapshot-on-timeout.
//!
//! The deep-fuzz job runs hundreds of random scenarios; a case that hangs
//! or degenerates into a pathological slow path used to burn the whole
//! job's timeout and leave nothing to debug. A `FrameBudget` is checked
//! at frame barriers (the simulator cannot be preempted mid-frame); when
//! the budget is exceeded the oracle checkpoints its `Soc` into
//! `EMERALD_TIMEOUT_SNAP_DIR` before failing, so CI uploads a restorable
//! snapshot of the exact simulated state that blew the budget. The
//! snapshot revives locally with `Soc::restore` (the scenario config is
//! hashed into the container, so reviving under the wrong scenario fails
//! loudly).
//!
//! Budgets are opt-in: without `EMERALD_CONF_FRAME_BUDGET_MS` the check
//! is free and never fires, so ordinary `cargo test` runs are unaffected.

use emerald_soc::soc::Soc;
use std::path::PathBuf;
use std::time::Instant;

/// A wall-clock budget for one oracle scenario, armed from the
/// environment.
#[derive(Debug)]
pub(crate) struct FrameBudget {
    start: Instant,
    /// Budget in milliseconds; `None` disarms the check entirely.
    budget_ms: Option<u64>,
}

impl FrameBudget {
    /// Starts a budget clock from `EMERALD_CONF_FRAME_BUDGET_MS`
    /// (disarmed when unset or unparsable).
    pub(crate) fn from_env() -> FrameBudget {
        FrameBudget {
            start: Instant::now(),
            budget_ms: std::env::var("EMERALD_CONF_FRAME_BUDGET_MS")
                .ok()
                .and_then(|v| v.parse().ok()),
        }
    }

    /// True once the budget is armed and spent.
    pub fn exceeded(&self) -> bool {
        match self.budget_ms {
            Some(ms) => self.start.elapsed().as_millis() as u64 >= ms,
            None => false,
        }
    }

    /// Frame-barrier check: on timeout, checkpoints `soc` (to the
    /// directory named by `EMERALD_TIMEOUT_SNAP_DIR`, when set) and
    /// returns a failure message naming the dump for the CI artifact
    /// step. `Ok` while in budget.
    pub fn check(&self, case: &str, soc: &mut Soc) -> Result<(), String> {
        if !self.exceeded() {
            return Ok(());
        }
        let where_ = match std::env::var("EMERALD_TIMEOUT_SNAP_DIR") {
            Ok(dir) => match dump_snapshot_to(&PathBuf::from(dir), case, soc) {
                Ok(path) => format!("state checkpointed to {}", path.display()),
                Err(e) => format!("snapshot dump failed: {e}"),
            },
            Err(_) => "set EMERALD_TIMEOUT_SNAP_DIR to capture the state".to_string(),
        };
        Err(format!(
            "case {case} exceeded its {} ms frame budget at cycle {} ({where_})",
            self.budget_ms.unwrap_or(0),
            soc.now(),
        ))
    }
}

/// Checkpoints `soc` as `<dir>/<case>.snap`, creating the directory. The
/// written container restores with `Soc::restore` under the scenario's
/// own config.
pub(crate) fn dump_snapshot_to(
    dir: &std::path::Path,
    case: &str,
    soc: &mut Soc,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{case}.snap"));
    std::fs::write(&path, soc.checkpoint())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socconf::{cube_draw, Cell, SocScenario};
    use emerald_mem::{DramConfig, MemorySystemConfig};

    #[test]
    fn disarmed_budget_never_fires() {
        let b = FrameBudget {
            start: Instant::now(),
            budget_ms: None,
        };
        assert!(!b.exceeded());
    }

    #[test]
    fn timeout_dump_restores_into_lockstep() {
        // A zero budget fires at the first barrier; the dumped snapshot
        // must revive into a Soc that matches the original bit for bit.
        let sc = SocScenario::two_core(
            MemorySystemConfig::baseline(2, DramConfig::lpddr3_1600()),
            16,
        );
        let cfg = sc.config(Cell::PRESET);
        let mut soc = Soc::new(cfg.clone());
        let d = cube_draw(&soc, 0);
        soc.run_frame(vec![d], 60_000_000);

        let budget = FrameBudget {
            start: Instant::now(),
            budget_ms: Some(0),
        };
        assert!(budget.exceeded(), "zero budget is immediately spent");
        let dir = std::env::temp_dir().join(format!("emerald_timeout_snap_{}", std::process::id()));
        let path = dump_snapshot_to(&dir, "budget_test", &mut soc).expect("dump snapshot");
        let bytes = std::fs::read(&path).expect("read dump");
        let mut revived = Soc::restore(&bytes, &cfg).expect("timeout snapshot restores");
        assert_eq!(revived.now(), soc.now());
        assert_eq!(
            revived.checkpoint(),
            soc.checkpoint(),
            "revived state diverges from the state that was dumped"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

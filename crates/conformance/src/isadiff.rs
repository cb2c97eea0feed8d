//! Differential execution: SIMT timing model vs. the scalar reference
//! walk, plus the metamorphic configuration matrix and the injected-bug
//! canary the conformance suite's acceptance test uses.

use crate::proggen::{shrink_candidates, GenProgram};
use crate::refmodel::run_reference;
use emerald_common::check::minimize;
use emerald_common::rng::Xorshift64;
use emerald_gpu::config::WarpSched;
use emerald_gpu::{GlobalMemCtx, Gpu, GpuConfig, Kernel, SimpleMemPort};
use emerald_isa::op::{AluKind, Op};
use emerald_isa::reg::DType;
use emerald_mem::{DramConfig, MemorySystem, MemorySystemConfig, SharedMem};
use std::sync::Arc;

/// Cycle budget for one timing run; generated kernels finish in well under
/// a million cycles, so hitting this means the pipeline hung.
const MAX_CYCLES: u64 = 20_000_000;

/// Functional observables of one run, compared bit-for-bit between the
/// timing model and the reference (and across configurations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// The per-thread output region (including register checksums).
    pub out_bytes: Vec<u8>,
    /// Warp-instructions executed.
    pub instructions: u64,
    /// Warps retired.
    pub warps_retired: u64,
}

/// A reported divergence, with enough context to replay and debug it.
#[derive(Debug, Clone)]
pub enum Divergence {
    /// The kernel did not finish within the cycle budget.
    Hang {
        /// Which run hung (configuration label).
        label: String,
    },
    /// Observables differ between the two runs.
    Mismatch {
        /// Which comparison failed.
        label: String,
        /// Human-readable field-by-field diff.
        detail: String,
    },
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::Hang { label } => write!(f, "timing model hung ({label})"),
            Divergence::Mismatch { label, detail } => {
                write!(f, "divergence in {label}:\n{detail}")
            }
        }
    }
}

/// The memory layout both sides build identically.
pub(crate) struct Layout {
    pub mem: SharedMem,
    pub in_base: u64,
    pub out_base: u64,
}

/// Allocates and seeds the input/output regions deterministically from
/// `data_seed`. Called once per side so the two images start identical.
pub(crate) fn init_mem(gp: &GenProgram, data_seed: u64) -> Layout {
    let mem = SharedMem::with_capacity(1 << 22);
    let in_base = mem.alloc(gp.in_words as u64 * 4, 256);
    let out_base = mem.alloc(gp.out_bytes() as u64, 256);
    let mut rng = Xorshift64::new(data_seed);
    mem.write(|m| {
        for w in 0..gp.in_words {
            m.write_u32(in_base + w as u64 * 4, rng.next_u32());
        }
    });
    Layout {
        mem,
        in_base,
        out_base,
    }
}

pub(crate) fn kernel_for(gp: &GenProgram, layout: &Layout) -> Kernel {
    let mut k = Kernel::linear(
        Arc::new(gp.program()),
        gp.threads,
        gp.cta_size,
        vec![layout.in_base as u32, layout.out_base as u32],
    );
    k.shared_bytes = gp.shared_bytes();
    k
}

/// The memory every conformance GPU and renderer runs against: two
/// channels of LPDDR3-1600 under FR-FCFS.
pub(crate) fn two_channel_port() -> SimpleMemPort {
    SimpleMemPort::new(MemorySystem::new(MemorySystemConfig::baseline(
        2,
        DramConfig::lpddr3_1600(),
    )))
}

/// Runs `gp` on the full timing model under `cfg` and returns the
/// functional observables plus the simulated cycle count, or a
/// [`Divergence::Hang`]. The cycle count is not part of [`RunResult`]
/// because the scalar reference has no clock; it is compared *within* the
/// timing model across the event-skip axis, where it must be identical.
pub(crate) fn run_timing(
    gp: &GenProgram,
    data_seed: u64,
    cfg: &GpuConfig,
    label: &str,
) -> Result<(RunResult, u64), Divergence> {
    let layout = init_mem(gp, data_seed);
    let mut gpu = Gpu::new(cfg.clone());
    let mut ctx = GlobalMemCtx::new(layout.mem.clone());
    let mut port = two_channel_port();
    let id = gpu.launch_kernel(kernel_for(gp, &layout));
    let cycles = gpu.run_to_idle(0, MAX_CYCLES, &mut ctx, &mut port);
    if !gpu.kernel_done(id) {
        return Err(Divergence::Hang {
            label: label.to_string(),
        });
    }
    let s = gpu.stats();
    Ok((
        RunResult {
            out_bytes: layout
                .mem
                .read(|m| m.read_bytes(layout.out_base, gp.out_bytes()).to_vec()),
            instructions: s.issued,
            warps_retired: s.warps_retired,
        },
        cycles,
    ))
}

/// Runs `gp` through the scalar reference walk on an identically seeded
/// memory image.
pub(crate) fn run_ref(gp: &GenProgram, data_seed: u64) -> RunResult {
    let layout = init_mem(gp, data_seed);
    let mut ctx = GlobalMemCtx::new(layout.mem.clone());
    let r = run_reference(&kernel_for(gp, &layout), &mut ctx);
    RunResult {
        out_bytes: layout
            .mem
            .read(|m| m.read_bytes(layout.out_base, gp.out_bytes()).to_vec()),
        instructions: r.instructions,
        warps_retired: r.warps_retired,
    }
}

/// Compares two runs field by field; `Err` carries a readable diff (first
/// few byte mismatches, counter deltas).
pub fn compare(label: &str, got: &RunResult, want: &RunResult) -> Result<(), Divergence> {
    let mut detail = String::new();
    if got.instructions != want.instructions {
        detail.push_str(&format!(
            "  instructions: {} vs {}\n",
            got.instructions, want.instructions
        ));
    }
    if got.warps_retired != want.warps_retired {
        detail.push_str(&format!(
            "  warps_retired: {} vs {}\n",
            got.warps_retired, want.warps_retired
        ));
    }
    if got.out_bytes != want.out_bytes {
        let diffs: Vec<String> = got
            .out_bytes
            .iter()
            .zip(&want.out_bytes)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .take(8)
            .map(|(i, (a, b))| format!("+{i:#x}: {a:#04x} vs {b:#04x}"))
            .collect();
        detail.push_str(&format!(
            "  out region: {} differing bytes, first at [{}]\n",
            got.out_bytes
                .iter()
                .zip(&want.out_bytes)
                .filter(|(a, b)| a != b)
                .count(),
            diffs.join(", ")
        ));
    }
    if detail.is_empty() {
        Ok(())
    } else {
        Err(Divergence::Mismatch {
            label: label.to_string(),
            detail,
        })
    }
}

/// The baseline fuzzing configuration: the tiny two-core GPU as the
/// preset ships it — single host thread, default parallel threshold — so
/// the matrix axes below are the only thing that varies dispatch policy.
pub fn base_config() -> GpuConfig {
    GpuConfig::tiny()
}

/// The deterministic metamorphic configuration matrix: functional output
/// must be invariant across host thread counts, warp schedulers, cache
/// geometries and parallel-dispatch policy (pool forced on every cycle
/// vs. never engaged). Labels are stable for failure reports.
pub fn config_matrix() -> Vec<(&'static str, GpuConfig)> {
    let base = base_config();
    let mut out = vec![("base_t1_gto", base.clone())];
    for (label, threads) in [("threads2", 2), ("threads4", 4)] {
        let mut c = base.clone();
        c.threads = threads;
        out.push((label, c));
    }
    // Dispatch-policy axes: threshold 0 forces the worker pool on every
    // non-empty cycle (even on single-CPU hosts), usize::MAX forbids it.
    // Adaptive dispatch must be invisible to results.
    for (label, threads, thr) in [
        ("t2_pool_forced", 2, 0usize),
        ("t4_pool_forced", 4, 0),
        ("t4_pool_never", 4, usize::MAX),
    ] {
        let mut c = base.clone();
        c.threads = threads;
        c.parallel_threshold = thr;
        out.push((label, c));
    }
    let mut lrr = base.clone();
    lrr.warp_sched = WarpSched::Lrr;
    out.push(("lrr", lrr));
    let mut small_l1 = base.clone();
    small_l1.l1d.size_bytes /= 2;
    small_l1.l1c.size_bytes /= 2;
    out.push(("half_l1", small_l1));
    let mut small_l2 = base.clone();
    small_l2.l2.size_bytes /= 4;
    out.push(("quarter_l2", small_l2));
    // Event-skip gate, both positions pinned explicitly (the other
    // entries run the preset's value).
    let mut skip_off = base.clone();
    skip_off.event_skip = false;
    out.push(("skip_off", skip_off));
    let mut skip_on = base;
    skip_on.event_skip = true;
    out.push(("skip_on", skip_on));
    out
}

/// The dispatch points the event-skip axis is crossed with in
/// [`check_case_matrix`]: host threads 1/2/4 with the worker pool forced
/// on every non-empty cycle and forbidden entirely.
pub fn skip_dispatch_points() -> Vec<(&'static str, usize, usize)> {
    vec![
        ("t1", 1, emerald_gpu::config::DEFAULT_PARALLEL_THRESHOLD),
        ("t2_pool_forced", 2, 0),
        ("t2_pool_never", 2, usize::MAX),
        ("t4_pool_forced", 4, 0),
        ("t4_pool_never", 4, usize::MAX),
    ]
}

/// Full differential check of one case under the baseline configuration.
pub fn check_case(gp: &GenProgram, data_seed: u64) -> Result<(), Divergence> {
    let want = run_ref(gp, data_seed);
    let (got, _) = run_timing(gp, data_seed, &base_config(), "timing_vs_ref")?;
    compare("timing_vs_ref", &got, &want)
}

/// Metamorphic check: every configuration in the matrix must produce the
/// reference observables, and across the event-skip axis — at every
/// dispatch point in [`skip_dispatch_points`] — the *simulated cycle
/// count* must additionally be bit-identical (skipping may never change
/// time, only how the host reaches it).
pub fn check_case_matrix(gp: &GenProgram, data_seed: u64) -> Result<(), Divergence> {
    let want = run_ref(gp, data_seed);
    for (label, cfg) in config_matrix() {
        let (got, _) = run_timing(gp, data_seed, &cfg, label)?;
        compare(label, &got, &want)?;
    }
    for (dlabel, threads, thr) in skip_dispatch_points() {
        let mut off = base_config();
        off.threads = threads;
        off.parallel_threshold = thr;
        off.event_skip = false;
        let mut on = off.clone();
        on.event_skip = true;
        let label_off = format!("skip_off_{dlabel}");
        let label_on = format!("skip_on_{dlabel}");
        let (got_off, cycles_off) = run_timing(gp, data_seed, &off, &label_off)?;
        compare(&label_off, &got_off, &want)?;
        let (got_on, cycles_on) = run_timing(gp, data_seed, &on, &label_on)?;
        compare(&label_on, &got_on, &want)?;
        if cycles_off != cycles_on {
            return Err(Divergence::Mismatch {
                label: format!("skip_axis_{dlabel}"),
                detail: format!("  cycles: {cycles_on} (skip on) vs {cycles_off} (skip off)\n"),
            });
        }
    }
    Ok(())
}

/// Index of the instruction `mutate_at` will corrupt: the first
/// unsigned-integer `add`. Generated programs always have one (the output
/// address computation in the prologue).
pub fn bug_site(gp: &GenProgram) -> Option<usize> {
    gp.instrs.iter().position(|i| {
        matches!(
            i.op,
            Op::Alu {
                kind: AluKind::Add,
                ty: DType::U32,
                ..
            }
        )
    })
}

/// Deliberately corrupts instruction `idx` (`add.u32` → `sub.u32`),
/// simulating a timing-pipeline execution bug. Returns the program
/// unchanged when `idx` is not an unsigned add (the mutation is then the
/// identity, so a differential check passes).
pub(crate) fn mutate_at(gp: &GenProgram, idx: usize) -> GenProgram {
    let mut m = gp.clone();
    if let Some(instr) = m.instrs.get_mut(idx) {
        if let Op::Alu {
            kind: kind @ AluKind::Add,
            ty: DType::U32,
            ..
        } = &mut instr.op
        {
            *kind = AluKind::Sub;
        }
    }
    m
}

/// The canary check: the timing model runs the program with the bug
/// injected at `idx`; the reference runs the original. A healthy harness
/// must report a divergence.
pub fn check_with_injected_bug(
    gp: &GenProgram,
    idx: usize,
    data_seed: u64,
) -> Result<(), Divergence> {
    let want = run_ref(gp, data_seed);
    let (got, _) = run_timing(
        &mutate_at(gp, idx),
        data_seed,
        &base_config(),
        "injected_bug",
    )?;
    compare("injected_bug", &got, &want)
}

/// Shrinks a failing case with [`emerald_common::check::minimize`] using
/// `fails` as the oracle; returns the minimized case and the step count.
pub fn shrink_failing<F>(gp: GenProgram, mut fails: F, max_steps: usize) -> (GenProgram, usize)
where
    F: FnMut(&GenProgram) -> bool,
{
    minimize(gp, shrink_candidates, |c| fails(c), max_steps)
}

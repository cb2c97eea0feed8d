//! Declarative sweep specs: a base configuration plus axes, expanded into
//! the cartesian job set, with fork-group planning for warmed prefixes.
//!
//! A spec is JSON (parsed with [`emerald_common::json`], so sweep files
//! need no external dependencies):
//!
//! ```json
//! {
//!   "name": "mem_sweep",
//!   "base": {"model": "I1", "warmup": 1, "frames": 2},
//!   "axes": [
//!     {"key": "mem", "values": ["bas", "dcb"]},
//!     {"key": "frame_offset", "values": [0, 1]}
//!   ],
//!   "fork": true
//! }
//! ```
//!
//! Axes expand left-to-right (the rightmost axis varies fastest), so job
//! ids are stable for a given spec — results are keyed on them.
//!
//! Fork planning groups jobs whose *warmed prefix* is identical: the
//! parameters that shape the [`SocConfig`] (model, memory system, DRAM,
//! resolution, period) plus the warmup frame count. Divergence-only
//! parameters (`frames`, `frame_offset`, `vsync`, `seed`) may differ
//! within a group because they only influence post-warmup execution —
//! warmup draws are deliberately seed-independent. Jobs with `warmup: 0`
//! have nothing to share and always start cold.

use crate::session::Session;
use emerald_common::json::Json;
use emerald_mem::DramConfig;
use emerald_scene::workloads::{self, WorkloadDef};
use emerald_soc::experiment::MemCfgKind;
use emerald_soc::{Soc, SocConfig};

/// Fully resolved parameters of one simulation job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobParams {
    /// Scene model id (`"I1"`, `"W1"`–`"W6"`, `"M1"`–`"M4"`).
    pub model: String,
    /// Memory-system kind (`"bas"`, `"dcb"`, `"dtb"`, `"hmc"`).
    pub mem: String,
    /// DRAM timing preset (`"lpddr3_1333"`, `"lpddr3_1600"`, or the
    /// reduced-bandwidth stressors `"high_load"` and `"low_bandwidth"`).
    pub dram: String,
    /// Render-target width in pixels.
    pub width: u32,
    /// Render-target height in pixels.
    pub height: u32,
    /// GPU frame period (DASH feedback grid), cycles.
    pub period: u64,
    /// Frames simulated before measurement; the forkable prefix.
    pub warmup: u32,
    /// Measured frames after the warmup.
    pub frames: u32,
    /// Offset added to measured frame indices — a cheap divergence axis.
    pub frame_offset: u32,
    /// When nonzero, idle to the next multiple of this after every frame
    /// (vsync pacing).
    pub vsync: u64,
    /// Divergence seed: bit `i` forces late-Z on measured frame `i`.
    pub seed: u64,
}

impl Default for JobParams {
    fn default() -> Self {
        Self {
            model: "I1".to_string(),
            mem: "dcb".to_string(),
            dram: "lpddr3_1333".to_string(),
            width: 48,
            height: 32,
            period: 200_000,
            warmup: 0,
            frames: 2,
            frame_offset: 0,
            vsync: 0,
            seed: 0,
        }
    }
}

fn get_u64(v: &Json, what: &str) -> Result<u64, String> {
    let n = v.as_num().ok_or_else(|| format!("{what} wants a number"))?;
    if n < 0.0 || n.fract() != 0.0 || n > (1u64 << 53) as f64 {
        return Err(format!("{what} wants a non-negative integer, got {n}"));
    }
    Ok(n as u64)
}

fn get_u32(v: &Json, what: &str) -> Result<u32, String> {
    let n = get_u64(v, what)?;
    u32::try_from(n).map_err(|_| format!("{what} wants at most {}, got {n}", u32::MAX))
}

fn get_str<'a>(v: &'a Json, what: &str) -> Result<&'a str, String> {
    v.as_str().ok_or_else(|| format!("{what} wants a string"))
}

impl JobParams {
    /// Applies one `key: value` pair from a spec's `base` object or an
    /// axis. Unknown keys are errors — a typo must not silently sweep
    /// nothing.
    fn apply(&mut self, key: &str, value: &Json) -> Result<(), String> {
        match key {
            "model" => self.model = get_str(value, key)?.to_string(),
            "mem" => self.mem = get_str(value, key)?.to_string(),
            "dram" => self.dram = get_str(value, key)?.to_string(),
            "width" => self.width = get_u32(value, key)?,
            "height" => self.height = get_u32(value, key)?,
            "period" => self.period = get_u64(value, key)?,
            "warmup" => self.warmup = get_u32(value, key)?,
            "frames" => self.frames = get_u32(value, key)?,
            "frame_offset" => self.frame_offset = get_u32(value, key)?,
            "vsync" => self.vsync = get_u64(value, key)?,
            "seed" => self.seed = get_u64(value, key)?,
            other => return Err(format!("unknown sweep parameter {other:?}")),
        }
        Ok(())
    }

    /// Resolves the scene model, validating the id.
    pub(crate) fn workload(&self) -> Result<WorkloadDef, String> {
        let all = workloads::w_models()
            .into_iter()
            .chain(workloads::m_models())
            .chain(std::iter::once(workloads::idle_model()));
        for w in all {
            if w.id == self.model {
                return Ok(w);
            }
        }
        Err(format!("unknown model {:?}", self.model))
    }

    fn mem_kind(&self) -> Result<MemCfgKind, String> {
        match self.mem.as_str() {
            "bas" => Ok(MemCfgKind::Bas),
            "dcb" => Ok(MemCfgKind::Dcb),
            "dtb" => Ok(MemCfgKind::Dtb),
            "hmc" => Ok(MemCfgKind::Hmc),
            other => Err(format!("unknown mem kind {other:?}")),
        }
    }

    fn dram_config(&self) -> Result<DramConfig, String> {
        match self.dram.as_str() {
            "lpddr3_1333" => Ok(DramConfig::lpddr3_1333()),
            "lpddr3_1600" => Ok(DramConfig::lpddr3_1600()),
            "high_load" => Ok(DramConfig::high_load()),
            "low_bandwidth" => Ok(DramConfig::low_bandwidth()),
            other => Err(format!("unknown dram preset {other:?}")),
        }
    }

    /// Rejects a job no session could run: a zero-sized render target, a
    /// zero frame period, or color and depth buffers that leave the SoC's
    /// memory image too little room for the rest of a cold session. The
    /// error names the parameter. `reserves` memoizes that rest per model.
    fn validate(&self, reserves: &mut Vec<(String, u64)>) -> Result<(), String> {
        let sizes = [
            ("width", u64::from(self.width)),
            ("height", u64::from(self.height)),
            ("period", self.period),
        ];
        if let Some((key, _)) = sizes.iter().find(|(_, v)| *v == 0) {
            return Err(format!("{key} must be at least 1"));
        }
        // Color and depth, four bytes a pixel each.
        let fb = |w: u32, h: u32| u64::from(w) * u64::from(h) * 8;
        let reserve = match reserves.iter().find(|(m, _)| *m == self.model) {
            Some(&(_, bytes)) => bytes,
            None => {
                // What a 1x1 session allocates past its own buffers: the
                // renderer's output vertex buffer, the CPU arenas, the
                // scene upload and their alignment.
                let one = JobParams {
                    width: 1,
                    height: 1,
                    ..self.clone()
                };
                let spec = JobSpec {
                    id: 0,
                    label: String::new(),
                    params: one,
                };
                let bytes = Session::new_cold(spec)?.image_bytes() - fb(1, 1);
                reserves.push((self.model.clone(), bytes));
                bytes
            }
        };
        let fb_bytes = fb(self.width, self.height);
        if fb_bytes + reserve > Soc::IMAGE_BYTES as u64 {
            return Err(format!(
                "width x height {}x{} needs {fb_bytes} framebuffer bytes, and the session \
                 {reserve} more, past the {}-byte SoC memory image",
                self.width,
                self.height,
                Soc::IMAGE_BYTES
            ));
        }
        Ok(())
    }

    /// Builds the [`SocConfig`] for this job. Every simulation runs on one
    /// host thread: host parallelism is spent across sessions.
    pub(crate) fn soc_config(&self) -> Result<SocConfig, String> {
        let memsys = self.mem_kind()?.build(self.dram_config()?);
        Ok(SocConfig::case_study_1(
            memsys,
            self.width,
            self.height,
            self.period,
        ))
    }

    /// Key identifying the warmed prefix this job can fork from: every
    /// parameter that shapes the `SocConfig` or the warmup frames. Jobs
    /// differing only in divergence parameters share a key.
    pub(crate) fn prefix_key(&self) -> String {
        format!(
            "{}/{}/{}/{}x{}/p{}/w{}",
            self.model, self.mem, self.dram, self.width, self.height, self.period, self.warmup
        )
    }
}

/// Most jobs a spec may expand to. Committed specs run at most 16; the
/// cap stops a few hundred bytes of axes from asking for an expansion no
/// host could allocate.
const MAX_JOBS: usize = 4096;

/// One expanded job: a stable id, a human-readable label naming its axis
/// coordinates, and the resolved parameters.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Index in expansion order (rightmost axis fastest) — stable for a
    /// given spec, and the key results are reported under.
    pub id: usize,
    /// `"mem=dcb,frame_offset=1"`-style coordinate label (the spec name
    /// for a job with no axes).
    pub label: String,
    /// Resolved parameters.
    pub params: JobParams,
}

/// One sweep axis: a parameter key and the values it takes.
#[derive(Debug, Clone)]
pub struct Axis {
    /// Parameter key, as accepted by `JobParams::apply`.
    pub key: String,
    /// Values swept, in spec order.
    pub values: Vec<Json>,
}

/// A parsed sweep specification.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Sweep name (reporting only).
    pub name: String,
    /// Parameters shared by every job before axes apply.
    pub base: JobParams,
    /// Axes, outermost first.
    pub axes: Vec<Axis>,
    /// Whether jobs sharing a warmed prefix fork from one snapshot.
    pub fork: bool,
}

fn axis_value_label(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        other => other.encode(),
    }
}

impl SweepSpec {
    /// Parses a spec document. Unknown top-level or parameter keys are
    /// errors.
    pub fn parse(text: &str) -> Result<SweepSpec, String> {
        let doc = Json::parse(text)?;
        Self::from_json(&doc)
    }

    /// Builds a spec from an already parsed document (the protocol embeds
    /// specs in request records).
    pub(crate) fn from_json(doc: &Json) -> Result<SweepSpec, String> {
        let Json::Obj(fields) = doc else {
            return Err("sweep spec wants an object".to_string());
        };
        let mut spec = SweepSpec {
            name: "sweep".to_string(),
            base: JobParams::default(),
            axes: Vec::new(),
            fork: true,
        };
        for (key, value) in fields {
            match key.as_str() {
                "name" => spec.name = get_str(value, "name")?.to_string(),
                "fork" => {
                    spec.fork = value
                        .as_bool()
                        .ok_or_else(|| "fork wants a bool".to_string())?
                }
                "base" => {
                    let Json::Obj(base_fields) = value else {
                        return Err("base wants an object".to_string());
                    };
                    for (k, v) in base_fields {
                        spec.base.apply(k, v)?;
                    }
                }
                "axes" => {
                    let arr = value
                        .as_arr()
                        .ok_or_else(|| "axes wants an array".to_string())?;
                    for axis in arr {
                        let key = axis
                            .get("key")
                            .and_then(Json::as_str)
                            .ok_or_else(|| "axis wants a \"key\" string".to_string())?;
                        let values = axis
                            .get("values")
                            .and_then(Json::as_arr)
                            .ok_or_else(|| "axis wants a \"values\" array".to_string())?;
                        if values.is_empty() {
                            return Err(format!("axis {key:?} has no values"));
                        }
                        spec.axes.push(Axis {
                            key: key.to_string(),
                            values: values.to_vec(),
                        });
                    }
                }
                other => return Err(format!("unknown sweep spec key {other:?}")),
            }
        }
        // Validate every coordinate now: expansion after this cannot fail.
        spec.job_count()?;
        for job in spec.expand()? {
            job.params.workload()?;
            job.params.soc_config()?;
        }
        Ok(spec)
    }

    /// Expands the axes into the full cartesian job set, rightmost axis
    /// varying fastest.
    pub fn expand(&self) -> Result<Vec<JobSpec>, String> {
        self.job_count()?;
        let mut jobs = vec![JobSpec {
            id: 0,
            label: String::new(),
            params: self.base.clone(),
        }];
        for axis in &self.axes {
            let mut next = Vec::with_capacity(jobs.len() * axis.values.len());
            for job in &jobs {
                for value in &axis.values {
                    let mut params = job.params.clone();
                    params.apply(&axis.key, value)?;
                    let coord = format!("{}={}", axis.key, axis_value_label(value));
                    let label = if job.label.is_empty() {
                        coord
                    } else {
                        format!("{},{}", job.label, coord)
                    };
                    next.push(JobSpec {
                        id: 0,
                        label,
                        params,
                    });
                }
            }
            jobs = next;
        }
        let mut reserves = Vec::new();
        for (i, job) in jobs.iter_mut().enumerate() {
            job.id = i;
            if job.label.is_empty() {
                job.label = self.name.clone();
            }
            job.params
                .validate(&mut reserves)
                .map_err(|e| format!("job {}: {e}", job.label))?;
        }
        Ok(jobs)
    }

    /// Total number of jobs the spec expands to, or an error naming it
    /// when it exceeds the cap of 4096.
    pub fn job_count(&self) -> Result<usize, String> {
        let n = self
            .axes
            .iter()
            .try_fold(1usize, |n, a| n.checked_mul(a.values.len()));
        match n {
            Some(n) if n <= MAX_JOBS => Ok(n),
            Some(n) => Err(format!(
                "sweep expands to {n} jobs; at most {MAX_JOBS} allowed"
            )),
            None => Err(format!(
                "sweep expands to more than {} jobs; at most {MAX_JOBS} allowed",
                usize::MAX
            )),
        }
    }
}

/// A set of jobs sharing one warmed prefix. `members.len() == 1` or
/// `warmup == 0` degenerates to a cold start (a snapshot nobody else
/// reuses is pure overhead).
#[derive(Debug, Clone)]
pub struct ForkGroup {
    /// Parameters of the shared prefix (divergence fields zeroed).
    pub prefix: JobParams,
    /// Jobs forked from the warmed prefix.
    pub members: Vec<JobSpec>,
}

/// The execution plan for a job set: sessions that start cold and groups
/// that fork from a shared warmed snapshot.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Jobs run end-to-end from a fresh `Soc`.
    pub cold: Vec<JobSpec>,
    /// Fork groups (only when forking is enabled and profitable).
    pub groups: Vec<ForkGroup>,
}

/// Plans fork groups: jobs with the same `JobParams::prefix_key` and a
/// nonzero warmup share one prefix simulation. With `fork` false every
/// job is cold (the `sweep_cold` baseline arm).
pub fn plan(jobs: Vec<JobSpec>, fork: bool) -> Plan {
    let mut plan = Plan::default();
    if !fork {
        plan.cold = jobs;
        return plan;
    }
    let mut groups: Vec<(String, Vec<JobSpec>)> = Vec::new();
    for job in jobs {
        if job.params.warmup == 0 {
            plan.cold.push(job);
            continue;
        }
        let key = job.params.prefix_key();
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(job),
            None => groups.push((key, vec![job])),
        }
    }
    for (_, members) in groups {
        if members.len() == 1 {
            plan.cold.extend(members);
            continue;
        }
        let mut prefix = members[0].params.clone();
        prefix.frames = 0;
        prefix.frame_offset = 0;
        prefix.seed = 0;
        plan.groups.push(ForkGroup { prefix, members });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "name": "t",
        "base": {"model": "I1", "warmup": 1, "frames": 2},
        "axes": [
            {"key": "mem", "values": ["bas", "dcb"]},
            {"key": "frame_offset", "values": [0, 1, 2]}
        ]
    }"#;

    #[test]
    fn expansion_is_cartesian_and_stable() {
        let spec = SweepSpec::parse(SPEC).unwrap();
        assert_eq!(spec.job_count(), Ok(6));
        let jobs = spec.expand().unwrap();
        assert_eq!(jobs.len(), 6);
        assert_eq!(jobs[0].label, "mem=bas,frame_offset=0");
        assert_eq!(jobs[5].label, "mem=dcb,frame_offset=2");
        // Rightmost axis fastest; ids follow expansion order.
        assert_eq!(jobs[1].params.frame_offset, 1);
        assert_eq!(jobs[1].params.mem, "bas");
        assert_eq!(jobs[3].params.mem, "dcb");
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, i);
        }
    }

    #[test]
    fn planning_groups_by_prefix() {
        let spec = SweepSpec::parse(SPEC).unwrap();
        let plan = super::plan(spec.expand().unwrap(), true);
        // Two mem kinds → two fork groups of three frame offsets each.
        assert!(plan.cold.is_empty());
        assert_eq!(plan.groups.len(), 2);
        for g in &plan.groups {
            assert_eq!(g.members.len(), 3);
            assert_eq!(g.prefix.frames, 0);
        }
        // Fork disabled: everything cold.
        let cold = super::plan(spec.expand().unwrap(), false);
        assert_eq!(cold.cold.len(), 6);
        assert!(cold.groups.is_empty());
    }

    #[test]
    fn zero_warmup_never_forks() {
        let spec = SweepSpec::parse(
            r#"{"base": {"warmup": 0}, "axes": [{"key": "seed", "values": [1, 2]}]}"#,
        )
        .unwrap();
        let plan = super::plan(spec.expand().unwrap(), true);
        assert_eq!(plan.cold.len(), 2);
        assert!(plan.groups.is_empty());
    }

    #[test]
    fn fig12_spec_runs_the_high_load_dram() {
        let text = include_str!("../../../sweeps/fig12_high_load.json");
        let jobs = SweepSpec::parse(text).unwrap().expand().unwrap();
        assert_eq!(jobs.len(), 16);
        for job in jobs {
            let dram = job.params.soc_config().unwrap().memsys.dram;
            assert_eq!(dram.burst_cycles, 144, "{}", job.label);
            assert_eq!(dram, DramConfig::high_load(), "{}", job.label);
        }
    }

    #[test]
    fn job_counts_past_the_cap_are_refused_before_expansion() {
        let seeds = |axes: usize, n: usize| {
            let values: Vec<String> = (0..n).map(|v| v.to_string()).collect();
            let axis = format!(r#"{{"key": "seed", "values": [{}]}}"#, values.join(","));
            format!(r#"{{"axes": [{}]}}"#, vec![axis; axes].join(","))
        };
        let mut spec = SweepSpec::parse(&seeds(1, 1)).unwrap();
        spec.axes[0].values = vec![Json::Num(0.0); MAX_JOBS];
        assert_eq!(spec.job_count(), Ok(MAX_JOBS));
        spec.axes[0].values.push(Json::Num(0.0));
        assert!(spec.expand().unwrap_err().contains("4097 jobs"));
        let err = SweepSpec::parse(&seeds(5, 100)).unwrap_err();
        assert!(err.contains("10000000000 jobs"), "{err}");
        // 100^11 overflows a 64-bit product: refused, not wrapped.
        let err = SweepSpec::parse(&seeds(11, 100)).unwrap_err();
        assert!(err.contains("more than"), "{err}");
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            r#"{"base": {"nope": 1}}"#,
            r#"{"axes": [{"key": "mem", "values": []}]}"#,
            r#"{"axes": [{"key": "mem", "values": ["nosuch"]}]}"#,
            r#"{"base": {"model": "Z9"}}"#,
            r#"{"unknown_key": 1}"#,
            r#"[1,2]"#,
            r#"{"base": {"frames": -1}}"#,
        ] {
            assert!(SweepSpec::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn specs_no_session_could_run_are_rejected_naming_the_parameter() {
        for (bad, names) in [
            (r#"{"base": {"width": 0}}"#, "width"),
            (r#"{"base": {"height": 0}}"#, "height"),
            (r#"{"base": {"period": 0}}"#, "period"),
            (
                r#"{"base": {"height": 16384, "frames": 1}, "axes": [{"key": "width", "values": [4, 16384]}]}"#,
                "width x height 16384x16384",
            ),
            (
                r#"{"base": {"width": 5792, "height": 5792}}"#,
                "width x height 5792x5792",
            ),
        ] {
            let err = SweepSpec::parse(bad).expect_err(bad);
            assert!(err.contains(names), "{bad}: {err}");
        }
    }

    #[test]
    fn u32_parameters_reject_what_they_cannot_hold() {
        let max = u32::MAX as f64;
        for key in ["width", "height", "warmup", "frames", "frame_offset"] {
            let mut p = JobParams::default();
            p.apply(key, &Json::Num(max)).unwrap();
            let err = p.apply(key, &Json::Num(max + 1.0)).unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
            let held = match key {
                "width" => p.width,
                "height" => p.height,
                "warmup" => p.warmup,
                "frames" => p.frames,
                _ => p.frame_offset,
            };
            assert_eq!(held, u32::MAX, "{key}");
        }
        // 2^32 + 48 would otherwise run a 48-pixel-wide job.
        let err = SweepSpec::parse(r#"{"axes": [{"key": "width", "values": [4294967344]}]}"#)
            .unwrap_err();
        assert!(err.contains("width"), "{err}");
    }
}

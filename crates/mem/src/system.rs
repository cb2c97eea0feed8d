//! The memory-system façade: multiple DRAM channels behind a steering
//! policy and a choice of scheduler.
//!
//! Three SoC memory organizations from case study I are expressible:
//!
//! * **BAS** — channels interleaved by address (baseline mapping), FR-FCFS.
//! * **DCB/DTB** — same organization, DASH scheduling (CPU-only or
//!   system-wide clustering bandwidth).
//! * **HMC** — channels partitioned by traffic source: CPU channels use
//!   the locality mapping, IP channels the bank-parallel mapping (Table 4).

use crate::dash::{DashConfig, DashShared};
use crate::dram::{ChannelStats, DramChannel, DramConfig};
use crate::mapping::AddressMapping;
use crate::req::{MemRequest, MemResponse};
use crate::sched::{DramScheduler, FrFcfs};
use emerald_common::event::NextEvent;
use emerald_common::snap::{SnapError, Walk};
use emerald_common::types::{Cycle, TrafficSource};
use emerald_obs::{Registry, Timeline};

/// How addresses/sources map to channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Steering {
    /// All sources share all channels; `mapping.channels` must equal the
    /// channel count.
    Interleaved {
        /// The address mapping (its channel field selects the channel).
        mapping: AddressMapping,
    },
    /// HMC: CPU traffic goes to `cpu_channels` with `cpu_mapping`, IP
    /// traffic to `ip_channels` with `ip_mapping`. Each mapping's channel
    /// count must equal its partition size.
    SourcePartitioned {
        /// Global channel ids serving CPU traffic.
        cpu_channels: Vec<usize>,
        /// Global channel ids serving IP traffic.
        ip_channels: Vec<usize>,
        /// Mapping within the CPU partition (locality-oriented).
        cpu_mapping: AddressMapping,
        /// Mapping within the IP partition (parallelism-oriented).
        ip_mapping: AddressMapping,
    },
}

/// Scheduler selection for all channels.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerKind {
    /// Baseline first-ready FCFS.
    FrFcfs,
    /// DASH with the given configuration (shared across channels).
    Dash(DashConfig),
}

/// Memory-system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySystemConfig {
    /// Number of DRAM channels.
    pub channels: usize,
    /// Per-channel DRAM parameters.
    pub dram: DramConfig,
    /// Channel steering policy.
    pub steering: Steering,
    /// Scheduler for every channel.
    pub scheduler: SchedulerKind,
}

impl MemorySystemConfig {
    /// The paper's baseline: `channels` interleaved channels, baseline
    /// mapping, FR-FCFS (Table 4, "Baseline").
    pub fn baseline(channels: usize, dram: DramConfig) -> Self {
        Self {
            channels,
            dram,
            steering: Steering::Interleaved {
                mapping: AddressMapping::baseline(channels),
            },
            scheduler: SchedulerKind::FrFcfs,
        }
    }

    /// Baseline organization with DASH scheduling (the DCB/DTB configs).
    pub fn dash(channels: usize, dram: DramConfig, dash: DashConfig) -> Self {
        Self {
            scheduler: SchedulerKind::Dash(dash),
            ..Self::baseline(channels, dram)
        }
    }

    /// HMC: first half of the channels serve the CPU (locality mapping),
    /// second half serve IPs (bank-parallel mapping), FR-FCFS (Table 4).
    ///
    /// # Panics
    ///
    /// Panics if `channels < 2`.
    pub fn hmc(channels: usize, dram: DramConfig) -> Self {
        assert!(channels >= 2, "HMC needs at least one channel per class");
        let half = channels / 2;
        let cpu_channels: Vec<usize> = (0..half).collect();
        let ip_channels: Vec<usize> = (half..channels).collect();
        Self {
            channels,
            dram,
            steering: Steering::SourcePartitioned {
                cpu_mapping: AddressMapping::baseline(cpu_channels.len()),
                ip_mapping: AddressMapping::ip_parallel(ip_channels.len()),
                cpu_channels,
                ip_channels,
            },
            scheduler: SchedulerKind::FrFcfs,
        }
    }
}

/// Coarse source classes used for bandwidth probes (Figures 10 and 14 plot
/// CPU vs GPU vs display bandwidth over time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SourceClass {
    /// Any CPU core.
    Cpu,
    /// The GPU.
    Gpu,
    /// The display controller.
    Display,
    /// Other IPs.
    Other,
}

impl SourceClass {
    /// Classifies a traffic source.
    pub fn of(source: TrafficSource) -> Self {
        match source {
            TrafficSource::Cpu(_) => SourceClass::Cpu,
            TrafficSource::Gpu => SourceClass::Gpu,
            TrafficSource::Display => SourceClass::Display,
            TrafficSource::OtherIp(_) => SourceClass::Other,
        }
    }

    /// All classes, for iteration.
    pub const ALL: [SourceClass; 4] = [
        SourceClass::Cpu,
        SourceClass::Gpu,
        SourceClass::Display,
        SourceClass::Other,
    ];
}

/// Per-class bandwidth timelines (one [`Timeline`] per [`SourceClass`]).
#[derive(Debug)]
struct Probes {
    cpu: Timeline,
    gpu: Timeline,
    display: Timeline,
    other: Timeline,
}

/// A restore's blank probes, before the walk reads their windows.
impl Default for Probes {
    fn default() -> Self {
        Self::new(1)
    }
}

impl Probes {
    fn new(window: Cycle) -> Self {
        Self {
            cpu: Timeline::new(window),
            gpu: Timeline::new(window),
            display: Timeline::new(window),
            other: Timeline::new(window),
        }
    }

    fn probe(&self, class: SourceClass) -> &Timeline {
        match class {
            SourceClass::Cpu => &self.cpu,
            SourceClass::Gpu => &self.gpu,
            SourceClass::Display => &self.display,
            SourceClass::Other => &self.other,
        }
    }

    fn probe_mut(&mut self, class: SourceClass) -> &mut Timeline {
        match class {
            SourceClass::Cpu => &mut self.cpu,
            SourceClass::Gpu => &mut self.gpu,
            SourceClass::Display => &mut self.display,
            SourceClass::Other => &mut self.other,
        }
    }
}

/// The full multi-channel memory system.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MemorySystemConfig,
    channels: Vec<DramChannel>,
    /// The one scheduler every channel is ticked with; FR-FCFS when absent.
    /// Owned, not shared: a memory system lives inside one `Soc` (or one
    /// GPU port), which moves between threads whole.
    dash: Option<DashShared>,
    probes: Option<Probes>,
    trace: Option<Vec<(Cycle, MemRequest)>>,
    /// What the last [`MemorySystem::drain_finished`] returned (reused).
    finished: Vec<MemResponse>,
}

impl MemorySystem {
    /// Builds the memory system described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics when the steering's mapping channel counts disagree with the
    /// partition sizes / channel count.
    pub fn new(cfg: MemorySystemConfig) -> Self {
        match &cfg.steering {
            Steering::Interleaved { mapping } => {
                assert_eq!(
                    mapping.channels, cfg.channels,
                    "interleaved mapping must span all channels"
                );
            }
            Steering::SourcePartitioned {
                cpu_channels,
                ip_channels,
                cpu_mapping,
                ip_mapping,
            } => {
                assert_eq!(cpu_mapping.channels, cpu_channels.len());
                assert_eq!(ip_mapping.channels, ip_channels.len());
                assert!(cpu_channels
                    .iter()
                    .chain(ip_channels)
                    .all(|&c| c < cfg.channels));
            }
        }
        let dash = match &cfg.scheduler {
            SchedulerKind::FrFcfs => None,
            SchedulerKind::Dash(d) => Some(DashShared::new(d.clone())),
        };
        let channels = (0..cfg.channels)
            .map(|i| {
                let mut ch = DramChannel::new(cfg.dram.clone());
                ch.set_trace_track(i as u32);
                ch
            })
            .collect();
        Self {
            cfg,
            channels,
            dash,
            probes: None,
            trace: None,
            finished: Vec::new(),
        }
    }

    /// Starts recording every accepted request (GemDroid-style trace
    /// capture, used by the trace-vs-execution methodology experiment).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Takes the recorded trace, disabling further recording.
    pub fn take_trace(&mut self) -> Vec<(Cycle, MemRequest)> {
        self.trace.take().unwrap_or_default()
    }

    /// The DASH scheduler state, when DASH is the active scheduler.
    pub fn dash(&self) -> Option<&DashShared> {
        self.dash.as_ref()
    }

    /// Mutable access to the DASH scheduler (deadline feedback).
    pub fn dash_mut(&mut self) -> Option<&mut DashShared> {
        self.dash.as_mut()
    }

    /// Starts recording per-class bandwidth over `window`-cycle windows.
    pub fn enable_probes(&mut self, window: Cycle) {
        self.probes = Some(Probes::new(window));
    }

    /// Completed-window bandwidth samples for `class` (empty when probes
    /// are disabled).
    pub fn probe_samples(&self, class: SourceClass) -> &[(Cycle, u64)] {
        match &self.probes {
            None => &[],
            Some(p) => p.probe(class).samples(),
        }
    }

    /// The mapping that decodes `req`, and the channels its channel index
    /// counts (`None`: every channel, in order).
    fn steer(&self, req: &MemRequest) -> (&AddressMapping, Option<&[usize]>) {
        match &self.cfg.steering {
            Steering::Interleaved { mapping } => (mapping, None),
            Steering::SourcePartitioned {
                cpu_channels,
                ip_channels,
                cpu_mapping,
                ip_mapping,
            } => {
                if req.source.is_cpu() {
                    (cpu_mapping, Some(cpu_channels))
                } else {
                    (ip_mapping, Some(ip_channels))
                }
            }
        }
    }

    /// Decodes a request's channel and partition-relative location.
    fn route(&self, req: &MemRequest) -> (usize, crate::mapping::DramLocation) {
        let (mapping, channels) = self.steer(req);
        let loc = mapping.decode(req.addr);
        (channels.map_or(loc.channel, |c| c[loc.channel]), loc)
    }

    /// Enqueues a request; on backpressure the request is handed back.
    pub fn enqueue(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        let (ch, loc) = self.route(&req);
        let r = self.channels[ch].enqueue(req, loc, now);
        if r.is_ok() {
            if let Some(t) = &mut self.trace {
                t.push((now, req));
            }
        }
        r
    }

    /// The channel that serves `req`: the one [`MemorySystem::enqueue`]
    /// would put it in and [`MemorySystem::can_accept`] asks about.
    pub fn channel_of(&self, req: &MemRequest) -> usize {
        let (mapping, channels) = self.steer(req);
        let ch = mapping.channel(req.addr);
        channels.map_or(ch, |c| c[ch])
    }

    /// True when the channel that would serve `req` has queue space.
    pub fn can_accept(&self, req: &MemRequest) -> bool {
        !self.channels[self.channel_of(req)].is_full()
    }

    /// Advances the scheduler's windows, then every channel, one cycle.
    pub fn tick(&mut self, now: Cycle) {
        match &mut self.dash {
            Some(dash) => {
                dash.tick(now);
                for ch in &mut self.channels {
                    ch.tick(now, dash);
                }
            }
            None => {
                for ch in &mut self.channels {
                    ch.tick(now, &mut FrFcfs);
                }
            }
        }
    }

    /// Collects all accesses finished by `now`, channel by channel. Reads
    /// need routing back to their requesters; writes are returned too for
    /// completeness. The slice is valid until the next call, which reuses
    /// its storage.
    pub fn drain_finished(&mut self, now: Cycle) -> &[MemResponse] {
        self.finished.clear();
        for ch in &mut self.channels {
            ch.pop_finished(now, &mut self.finished);
        }
        if let Some(p) = &mut self.probes {
            for r in &self.finished {
                p.probe_mut(SourceClass::of(r.source))
                    .record(r.finished, r.bytes as u64);
            }
        }
        &self.finished
    }

    /// Aggregated statistics across channels.
    pub fn stats(&self) -> ChannelStats {
        let mut agg = ChannelStats::default();
        for ch in &self.channels {
            agg.merge(ch.stats());
        }
        agg
    }

    /// Per-channel statistics.
    pub fn channel_stats(&self) -> Vec<&ChannelStats> {
        self.channels.iter().map(|c| c.stats()).collect()
    }

    /// Publishes per-channel instruments under `{prefix}.chN.*` and the
    /// cross-channel aggregate directly under `{prefix}.*`.
    pub fn publish(&self, reg: &mut Registry, prefix: &str) {
        for (i, ch) in self.channels.iter().enumerate() {
            ch.stats().publish(reg, &format!("{prefix}.ch{i}"));
        }
        self.stats().publish(reg, prefix);
        if let Some(p) = &self.probes {
            for class in SourceClass::ALL {
                let name = match class {
                    SourceClass::Cpu => "cpu",
                    SourceClass::Gpu => "gpu",
                    SourceClass::Display => "display",
                    SourceClass::Other => "other",
                };
                reg.set_counter(
                    format!("{prefix}.probe_bytes.{name}"),
                    p.probe(class).total(),
                );
            }
        }
    }

    /// True when every channel is idle.
    pub fn is_idle(&self) -> bool {
        self.channels.iter().all(|c| c.is_idle())
    }

    /// Requests waiting in channel scheduling queues, across channels.
    /// Zero means every remaining in-flight access is already in service
    /// with a precomputed completion cycle — i.e. the DRAM model has no
    /// per-cycle scheduling decisions left, only known-time events.
    pub fn queued(&self) -> usize {
        self.channels.iter().map(|c| c.queue_len()).sum()
    }

    /// Number of channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// The configuration this system was built from.
    pub fn config(&self) -> &MemorySystemConfig {
        &self.cfg
    }

    /// Walks every channel (each in its own section), the DASH shared
    /// state once, any bandwidth probes, and the request trace.
    pub fn walk(&mut self, w: &mut impl Walk) -> Result<(), SnapError> {
        w.expect(self.channels.len(), "memory system channel count mismatch")?;
        for ch in &mut self.channels {
            w.section(1, |w| ch.walk(w))?;
        }
        w.expect(self.dash.is_some(), "dash scheduler presence mismatch")?;
        if let Some(d) = &mut self.dash {
            d.walk(w)?;
        }
        w.opt(&mut self.probes, |w, p| {
            (SourceClass::ALL.into_iter()).try_for_each(|class| p.probe_mut(class).walk(w))
        })?;
        w.opt(&mut self.trace, |w, t| {
            w.seq(t, 33, |w, (cycle, req)| {
                w.u64(cycle)?;
                req.walk(w)
            })
        })
    }
}

impl NextEvent for MemorySystem {
    /// Earliest event across the scheduler and all channels: the next
    /// scheduler rollover or in-service completion, or `now + 1` while any
    /// scheduling queue is non-empty (see [`DramChannel`]'s impl).
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut ev = self.dash.as_ref().and_then(|d| d.next_event(now));
        for ch in &self.channels {
            ev = emerald_common::event::earliest(ev, ch.next_event(now));
        }
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dash::Clustering;
    use emerald_common::snap::{encode, SnapReader};
    use emerald_common::types::AccessKind;

    fn read(id: u64, addr: u64, source: TrafficSource) -> MemRequest {
        MemRequest {
            id,
            addr,
            bytes: 128,
            kind: AccessKind::Read,
            source,
            issued: 0,
        }
    }

    /// Bytes the probes recorded for `class`, open window included.
    fn probe_total_bytes(ms: &MemorySystem, class: SourceClass) -> u64 {
        ms.probes.as_ref().map_or(0, |p| p.probe(class).total())
    }

    fn drain_all(ms: &mut MemorySystem) -> Vec<MemResponse> {
        let mut out = Vec::new();
        let mut now = 0;
        while !ms.is_idle() {
            ms.tick(now);
            out.extend(ms.drain_finished(now));
            now += 1;
            assert!(now < 1_000_000);
        }
        out
    }

    #[test]
    fn baseline_interleaves_all_sources() {
        let mut ms = MemorySystem::new(MemorySystemConfig::baseline(2, DramConfig::lpddr3_1333()));
        for i in 0..8u64 {
            ms.enqueue(read(i, i * 128, TrafficSource::Gpu), 0).unwrap();
        }
        let resp = drain_all(&mut ms);
        assert_eq!(resp.len(), 8);
        // Both channels serviced traffic.
        let per = ms.channel_stats();
        assert!(per[0].serviced > 0 && per[1].serviced > 0);
    }

    #[test]
    fn hmc_partitions_by_source() {
        let mut ms = MemorySystem::new(MemorySystemConfig::hmc(2, DramConfig::lpddr3_1333()));
        for i in 0..4u64 {
            ms.enqueue(read(i, i * 128, TrafficSource::Cpu(0)), 0)
                .unwrap();
            ms.enqueue(read(100 + i, i * 128, TrafficSource::Gpu), 0)
                .unwrap();
        }
        drain_all(&mut ms);
        let per = ms.channel_stats();
        // Channel 0 only CPU bytes, channel 1 only GPU bytes.
        assert!(per[0].source_bytes.contains_key(&TrafficSource::Cpu(0)));
        assert!(!per[0].source_bytes.contains_key(&TrafficSource::Gpu));
        assert!(per[1].source_bytes.contains_key(&TrafficSource::Gpu));
        assert!(!per[1].source_bytes.contains_key(&TrafficSource::Cpu(0)));
    }

    #[test]
    fn hmc_leaves_cpu_channel_idle_under_gpu_only_traffic() {
        // The imbalance mechanism behind Figure 10: while the GPU renders,
        // the CPU-assigned channel sits idle and GPU-only throughput halves.
        let dram = DramConfig::lpddr3_1333();
        let mut bas = MemorySystem::new(MemorySystemConfig::baseline(2, dram.clone()));
        let mut hmc = MemorySystem::new(MemorySystemConfig::hmc(2, dram));
        let finish = |ms: &mut MemorySystem| {
            for i in 0..32u64 {
                ms.enqueue(read(i, i * 128, TrafficSource::Gpu), 0).unwrap();
            }
            let mut now = 0;
            while !ms.is_idle() {
                ms.tick(now);
                ms.drain_finished(now);
                now += 1;
            }
            now
        };
        let t_bas = finish(&mut bas);
        let t_hmc = finish(&mut hmc);
        // CPU partition (channel 0) serviced nothing under HMC.
        assert_eq!(hmc.channel_stats()[0].serviced, 0);
        assert!(hmc.channel_stats()[1].serviced > 0);
        // Losing a channel slows the GPU down substantially.
        assert!(t_hmc as f64 > 1.5 * t_bas as f64, "hmc={t_hmc} bas={t_bas}");
    }

    #[test]
    fn dash_system_exposes_handle() {
        let ms = MemorySystem::new(MemorySystemConfig::dash(
            2,
            DramConfig::lpddr3_1333(),
            DashConfig::paper(Clustering::CpuOnly),
        ));
        assert!(ms.dash().is_some());
        let bas = MemorySystem::new(MemorySystemConfig::baseline(1, DramConfig::lpddr3_1333()));
        assert!(bas.dash().is_none());
    }

    #[test]
    fn dash_prioritizes_nonintensive_cpu_over_gpu() {
        let mut ms = MemorySystem::new(MemorySystemConfig::dash(
            1,
            DramConfig::lpddr3_1333(),
            DashConfig::paper(Clustering::CpuOnly),
        ));
        // Saturate with GPU traffic plus a trickle of CPU: CPU requests
        // should see lower average latency than GPU ones.
        let mut id = 0;
        for i in 0..48u64 {
            ms.enqueue(read(id, i * 128, TrafficSource::Gpu), 0).ok();
            id += 1;
        }
        for i in 0..8u64 {
            ms.enqueue(read(id, (1 << 20) + i * 4096, TrafficSource::Cpu(0)), 0)
                .unwrap();
            id += 1;
        }
        let resp = drain_all(&mut ms);
        let avg = |cls: SourceClass| {
            let v: Vec<u64> = resp
                .iter()
                .filter(|r| SourceClass::of(r.source) == cls)
                .map(|r| r.finished)
                .collect();
            v.iter().sum::<u64>() as f64 / v.len() as f64
        };
        assert!(
            avg(SourceClass::Cpu) < avg(SourceClass::Gpu),
            "DASH should service non-intensive CPU first"
        );
    }

    #[test]
    fn probes_record_by_class() {
        let mut ms = MemorySystem::new(MemorySystemConfig::baseline(1, DramConfig::lpddr3_1333()));
        ms.enable_probes(100);
        ms.enqueue(read(1, 0, TrafficSource::Gpu), 0).unwrap();
        ms.enqueue(read(2, 4096, TrafficSource::Display), 0)
            .unwrap();
        let mut now = 0;
        while !ms.is_idle() {
            ms.tick(now);
            ms.drain_finished(now);
            now += 1;
        }
        assert_eq!(probe_total_bytes(&ms, SourceClass::Gpu), 128);
        assert_eq!(probe_total_bytes(&ms, SourceClass::Display), 128);
        assert_eq!(probe_total_bytes(&ms, SourceClass::Cpu), 0);
    }

    #[test]
    #[should_panic(expected = "interleaved mapping must span")]
    fn mismatched_mapping_panics() {
        let mut cfg = MemorySystemConfig::baseline(2, DramConfig::lpddr3_1333());
        cfg.steering = Steering::Interleaved {
            mapping: AddressMapping::baseline(4),
        };
        MemorySystem::new(cfg);
    }

    #[test]
    fn next_event_tracks_first_completion_exactly() {
        let mut ms = MemorySystem::new(MemorySystemConfig::baseline(2, DramConfig::lpddr3_1333()));
        ms.enqueue(read(1, 0x1000, TrafficSource::Gpu), 0).unwrap();
        assert_eq!(
            NextEvent::next_event(&ms, 0),
            Some(1),
            "queued request pins the clock"
        );
        ms.tick(0);
        assert!(ms.drain_finished(0).is_empty());
        let wake = NextEvent::next_event(&ms, 0).expect("completion is a known event");
        assert!(wake > 1, "a DRAM access takes many cycles");
        for c in 1..wake {
            ms.tick(c);
            assert!(ms.drain_finished(c).is_empty(), "completed early at {c}");
        }
        ms.tick(wake);
        assert_eq!(
            ms.drain_finished(wake).len(),
            1,
            "response lands exactly at the announced wake"
        );
        assert!(ms.is_idle());
        assert_eq!(
            NextEvent::next_event(&ms, wake),
            None,
            "idle FR-FCFS system is fully passive"
        );
    }

    #[test]
    fn snapshot_round_trip_resumes_dash_system_identically() {
        let cfg = MemorySystemConfig::dash(
            2,
            DramConfig::lpddr3_1333(),
            DashConfig::paper(Clustering::CpuOnly),
        );
        let mut ms = MemorySystem::new(cfg.clone());
        ms.enable_probes(64);
        ms.enable_trace();
        let mut id = 0;
        for i in 0..24u64 {
            ms.enqueue(read(id, i * 128, TrafficSource::Gpu), 0).ok();
            id += 1;
        }
        for i in 0..4u64 {
            ms.enqueue(read(id, (1 << 20) + i * 4096, TrafficSource::Cpu(0)), 0)
                .unwrap();
            id += 1;
        }
        let mut resp_a: Vec<MemResponse> = Vec::new();
        for c in 0..50 {
            ms.tick(c);
            resp_a.extend(ms.drain_finished(c));
        }

        let enc = encode(|w| ms.walk(w));

        let mut twin = MemorySystem::new(cfg);
        twin.enable_probes(64); // same window; contents come from the snapshot
        let mut r = SnapReader::new(&enc);
        twin.walk(&mut r).unwrap();
        r.finish().unwrap();

        // Both systems must drain identically from here on.
        let mut resp_b = Vec::new();
        let mut now = 50;
        while !ms.is_idle() || !twin.is_idle() {
            ms.tick(now);
            twin.tick(now);
            resp_a.extend(ms.drain_finished(now));
            resp_b.extend(twin.drain_finished(now));
            now += 1;
            assert!(now < 1_000_000);
        }
        let tail_a = &resp_a[resp_a.len() - resp_b.len()..];
        assert_eq!(tail_a, &resp_b[..]);
        assert_eq!(ms.stats().serviced, twin.stats().serviced);
        assert_eq!(
            probe_total_bytes(&ms, SourceClass::Gpu),
            probe_total_bytes(&twin, SourceClass::Gpu)
        );
        assert_eq!(ms.take_trace(), twin.take_trace());
        // Every single-byte truncation of the raw section stream is a
        // typed error, never a panic.
        for cut in 0..enc.len() {
            let mut fresh = MemorySystem::new(MemorySystemConfig::dash(
                2,
                DramConfig::lpddr3_1333(),
                DashConfig::paper(Clustering::CpuOnly),
            ));
            let mut r = SnapReader::new(&enc[..cut]);
            assert!(
                fresh.walk(&mut r).is_err() || r.finish().is_err(),
                "truncation at {cut} went unnoticed"
            );
        }
    }

    #[test]
    fn fr_fcfs_snapshot_rejects_dash_restore_target() {
        let mut dash = MemorySystem::new(MemorySystemConfig::dash(
            1,
            DramConfig::lpddr3_1333(),
            DashConfig::paper(Clustering::CpuOnly),
        ));
        let enc = encode(|w| dash.walk(w));
        let mut bas = MemorySystem::new(MemorySystemConfig::baseline(1, DramConfig::lpddr3_1333()));
        let mut r = SnapReader::new(&enc);
        assert!(matches!(
            bas.walk(&mut r),
            Err(SnapError::BadValue {
                what: "dash scheduler presence mismatch"
            })
        ));
    }

    #[test]
    fn idle_dash_system_still_has_boundary_events() {
        // DASH rolls shuffling/switching/quantum state at fixed boundaries
        // and draws from its RNG at switches, so even an idle system must
        // report a finite next event — skipping over a boundary would
        // desynchronize the RNG stream vs. the per-cycle reference.
        let ms = MemorySystem::new(MemorySystemConfig::dash(
            2,
            DramConfig::lpddr3_1333(),
            DashConfig::paper(Clustering::CpuOnly),
        ));
        let wake = NextEvent::next_event(&ms, 0).expect("DASH boundaries are events");
        assert!(wake > 0 && wake <= DashConfig::paper(Clustering::CpuOnly).scheduling_unit);
    }
}

//! Integration tests for the two SoC memory proposals of case study I:
//! the DASH deadline-aware scheduler (urgency promotion, long vs. short
//! deadlines, DCB vs. DTB clustering) and the HMC source-partitioned
//! channel organization — all driven through the full [`MemorySystem`]
//! façade rather than the scheduler in isolation.

use emerald_common::types::{AccessKind, Cycle, TrafficSource};
use emerald_mem::dash::{Clustering, DashConfig};
use emerald_mem::{DramConfig, MemRequest, MemorySystem, MemorySystemConfig};

fn read(id: u64, addr: u64, source: TrafficSource, now: Cycle) -> MemRequest {
    MemRequest {
        id,
        addr,
        bytes: 128,
        kind: AccessKind::Read,
        source,
        issued: now,
    }
}

/// Runs the system until every outstanding read has responded or the
/// cycle budget runs out; returns (id, finished) pairs.
fn run_until_drained(ms: &mut MemorySystem, expect: usize, budget: Cycle) -> Vec<(u64, Cycle)> {
    let mut done = Vec::new();
    let mut now = 0;
    while done.len() < expect && now < budget {
        ms.tick(now);
        for r in ms.drain_finished(now) {
            done.push((r.id, r.finished));
        }
        now += 1;
    }
    done
}

/// An urgent display controller must be serviced ahead of a backlog of
/// CPU traffic on the same channel; the same backlog without urgency
/// lets the earlier-arriving CPU stream go first.
#[test]
fn urgent_display_overtakes_cpu_backlog() {
    let finish_order = |urgent: bool| -> (Cycle, Cycle) {
        let mut ms = MemorySystem::new(MemorySystemConfig::dash(
            1,
            DramConfig::lpddr3_1600(),
            DashConfig::paper(Clustering::CpuOnly),
        ));
        if urgent {
            // Display at 10% of its frame through 90% of its refresh
            // period: hopelessly behind deadline.
            ms.dash_mut()
                .unwrap()
                .update_progress(TrafficSource::Display, 0.1, 0.9);
        }
        // CPU backlog arrives first (same bank/row stream), display after.
        for i in 0..16u64 {
            ms.enqueue(read(i, i * 128, TrafficSource::Cpu(0), 0), 0)
                .unwrap();
        }
        for i in 0..4u64 {
            ms.enqueue(
                read(100 + i, 1 << 20 | (i * 128), TrafficSource::Display, 0),
                0,
            )
            .unwrap();
        }
        let done = run_until_drained(&mut ms, 20, 200_000);
        assert_eq!(done.len(), 20, "all requests must drain");
        let last_display = done
            .iter()
            .filter(|(id, _)| *id >= 100)
            .map(|&(_, t)| t)
            .max()
            .unwrap();
        let last_cpu = done
            .iter()
            .filter(|(id, _)| *id < 100)
            .map(|&(_, t)| t)
            .max()
            .unwrap();
        (last_display, last_cpu)
    };

    let (disp_urgent, cpu_urgent) = finish_order(true);
    assert!(
        disp_urgent < cpu_urgent,
        "urgent display finishes before the CPU backlog ({disp_urgent} vs {cpu_urgent})"
    );
    let (disp_calm, _) = finish_order(false);
    assert!(
        disp_urgent < disp_calm,
        "urgency must speed the display up ({disp_urgent} vs {disp_calm})"
    );
}

/// Deadline-progress semantics: early in a long period an IP that has
/// barely started is *not* urgent (its progress rate is still fine),
/// while the same completed fraction late in a short period promotes it.
#[test]
fn long_vs_short_deadline_promotion() {
    let mut ms = MemorySystem::new(MemorySystemConfig::dash(
        1,
        DramConfig::lpddr3_1600(),
        DashConfig::paper(Clustering::CpuOnly),
    ));
    let dash = ms.dash_mut().unwrap();

    // Long deadline, just started: 4% done after 3% of the period.
    dash.update_progress(TrafficSource::OtherIp(0), 0.04, 0.03);
    assert!(
        !dash.is_urgent(TrafficSource::OtherIp(0)),
        "ahead of schedule early in a long period"
    );

    // Short deadline nearly expired with half the work left.
    dash.update_progress(TrafficSource::OtherIp(0), 0.5, 0.95);
    assert!(
        dash.is_urgent(TrafficSource::OtherIp(0)),
        "behind schedule near a short deadline"
    );

    // Deadline feedback is live: catching up demotes again.
    dash.update_progress(TrafficSource::OtherIp(0), 0.99, 0.95);
    assert!(!dash.is_urgent(TrafficSource::OtherIp(0)));

    // Degenerate zero-elapsed report never promotes.
    dash.update_progress(TrafficSource::OtherIp(0), 0.0, 0.0);
    assert!(!dash.is_urgent(TrafficSource::OtherIp(0)));

    // The GPU's threshold (0.9) is stricter than the generic IP's (0.8).
    dash.update_progress(TrafficSource::Gpu, 0.85, 1.0);
    dash.update_progress(TrafficSource::Display, 0.85, 1.0);
    assert!(dash.is_urgent(TrafficSource::Gpu));
    assert!(!dash.is_urgent(TrafficSource::Display));
}

/// DCB vs. DTB clustering through the full system: identical traffic
/// (one heavy CPU thread, one light, plus massive GPU streaming) makes
/// the heavy thread memory-intensive under CPU-only bandwidth accounting
/// but *not* when total system bandwidth dilutes the threshold — the
/// §5.1.1 ambiguity the paper's Figures 12–14 hinge on.
#[test]
fn dcb_and_dtb_clustering_diverge_on_identical_traffic() {
    let run = |clustering: Clustering| {
        let cfg = DashConfig {
            quantum: 4_000,
            ..DashConfig::paper(clustering)
        };
        let mut ms = MemorySystem::new(MemorySystemConfig::dash(1, DramConfig::lpddr3_1600(), cfg));
        let mut id = 0u64;
        let mut now = 0;
        let mut pending_cpu: Vec<MemRequest> = Vec::new();
        // Mixed workload across several quanta: CPU 1 is ~8× heavier than
        // CPU 0 and the GPU streams just below the service rate, so every
        // CPU request eventually lands despite the GPU's volume.
        while now < 20_000 {
            if now % 512 == 0 {
                pending_cpu.push(read(id, (id % 512) * 128, TrafficSource::Cpu(1), now));
                id += 1;
            }
            if now % 4096 == 0 {
                pending_cpu.push(read(
                    id,
                    1 << 18 | ((id % 64) * 128),
                    TrafficSource::Cpu(0),
                    now,
                ));
                id += 1;
            }
            pending_cpu.retain(|req| {
                if ms.can_accept(req) {
                    ms.enqueue(*req, now).unwrap();
                    false
                } else {
                    true
                }
            });
            if now % 24 == 0 {
                let gpu = read(id, 1 << 22 | ((id % 2048) * 128), TrafficSource::Gpu, now);
                if ms.can_accept(&gpu) {
                    ms.enqueue(gpu, now).unwrap();
                    id += 1;
                }
            }
            ms.tick(now);
            ms.drain_finished(now);
            now += 1;
        }
        let dash = ms.dash().unwrap();
        assert!(dash.quanta >= 2, "several quanta must have elapsed");
        (dash.is_intensive(1), dash.is_intensive(0))
    };

    let (dcb_heavy, dcb_light) = run(Clustering::CpuOnly);
    assert!(dcb_heavy, "DCB: the heavy CPU thread is intensive");
    assert!(!dcb_light, "DCB: the light CPU thread is not");

    let (dtb_heavy, dtb_light) = run(Clustering::System);
    assert!(
        !dtb_heavy && !dtb_light,
        "DTB: GPU bandwidth dominates the total, so no CPU thread crosses the threshold"
    );
}

/// HMC channel partitioning: CPU traffic lands exclusively on the first
/// half of the channels and IP traffic exclusively on the second half,
/// with the IP mapping spreading load across all of its channels.
#[test]
fn hmc_partitions_channels_by_source_class() {
    let mut ms = MemorySystem::new(MemorySystemConfig::hmc(4, DramConfig::lpddr3_1600()));
    // Feed the mixed workload gradually, respecting queue back-pressure.
    let mut pending: Vec<MemRequest> = Vec::new();
    let mut id = 0u64;
    for i in 0..64u64 {
        pending.push(read(id, i * 128, TrafficSource::Cpu((i % 2) as usize), 0));
        id += 1;
        pending.push(read(id + 1000, i * 128, TrafficSource::Gpu, 0));
        id += 1;
        pending.push(read(id + 2000, i * 4096, TrafficSource::Display, 0));
        id += 1;
    }
    pending.reverse();
    let mut now = 0;
    let mut drained = 0usize;
    while drained < 192 && now < 400_000 {
        while let Some(req) = pending.last() {
            if ms.can_accept(req) {
                ms.enqueue(pending.pop().unwrap(), now).unwrap();
            } else {
                break;
            }
        }
        ms.tick(now);
        drained += ms.drain_finished(now).len();
        now += 1;
    }
    assert_eq!(drained, 192, "all requests must drain");

    let stats = ms.channel_stats();
    assert_eq!(stats.len(), 4);
    for (ch, st) in stats.iter().enumerate() {
        let cpu_ch = ch < 2;
        for (src, bytes) in &st.source_bytes {
            assert!(*bytes > 0);
            match src {
                TrafficSource::Cpu(_) => {
                    assert!(cpu_ch, "CPU bytes must stay on channels 0-1, found on {ch}")
                }
                _ => assert!(!cpu_ch, "IP bytes must stay on channels 2-3, found on {ch}"),
            }
        }
    }
    // Both halves actually serviced traffic, and the IP mapping used both
    // of its channels.
    assert!(stats[0].serviced + stats[1].serviced > 0);
    assert!(stats[2].serviced > 0 && stats[3].serviced > 0);
}

/// HMC needs at least one channel per class.
#[test]
#[should_panic(expected = "HMC needs at least one channel")]
fn hmc_rejects_single_channel() {
    let _ = MemorySystemConfig::hmc(1, DramConfig::lpddr3_1600());
}

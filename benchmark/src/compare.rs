//! `compare A.json B.json`: holds set B against baseline A with each
//! end-to-end metric's bound. Exact statistics must be identical; timings
//! may differ by the bound; a spread wider than the bound is reported as
//! unresolved — never as unchanged.

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::report::ResultSet;
use crate::stats::Summary;

/// What a pair of summaries says about one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the bound.
    Improved,
    /// The medians agree within the bound and both spreads are inside it.
    Unchanged,
    /// B is worse than A by more than the bound.
    Regressed,
    /// The medians agree within the bound, but a spread exceeds it: more
    /// rounds are needed before "unchanged" can be said.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse B's median is than A's, as a share of A's (negative
/// when B is better), and the verdict under `m`'s bound and floor.
pub fn judge(m: &EndToEnd, a: &Summary, b: &Summary) -> (f64, Verdict) {
    let delta = match m.better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    let worse = if a.median == 0.0 {
        0.0
    } else {
        delta / a.median.abs()
    };
    // A difference below the floor (20 ms of set-up, 2 MiB) is never
    // significant, whatever its share.
    let significant = delta.abs() > m.floor;
    let wide = |s: &Summary| s.spread() > m.bound && (s.q3 - s.q1) > m.floor;
    let verdict = if worse > m.bound && significant {
        Verdict::Regressed
    } else if wide(a) || wide(b) {
        Verdict::Unresolved
    } else if worse < -m.bound && significant {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, verdict)
}

/// The outcome of comparing two sets.
#[derive(Debug, Default)]
pub struct Comparison {
    /// One table line per workload × metric.
    pub lines: Vec<String>,
    /// Problems that are not timing: failed ops, exact-count drift,
    /// missing workloads.
    pub errors: Vec<String>,
    /// Metrics that regressed.
    pub regressed: usize,
    /// Metrics whose spread exceeds their bound.
    pub unresolved: usize,
    /// The sets come from different hosts.
    pub cross_host: bool,
}

impl Comparison {
    /// Process exit code: 2 cross-host, 1 regression or error,
    /// 3 unresolved only, 0 agreement.
    pub fn exit_code(&self) -> i32 {
        if self.cross_host {
            2
        } else if self.regressed > 0 || !self.errors.is_empty() {
            1
        } else if self.unresolved > 0 {
            3
        } else {
            0
        }
    }
}

/// Compares baseline `a` with `b`.
pub fn compare(a: &ResultSet, b: &ResultSet) -> Comparison {
    let mut c = Comparison {
        cross_host: !a.host.same_host(&b.host),
        ..Comparison::default()
    };
    for (name, ra) in &a.workloads {
        let Some(rb) = b.workloads.get(name) else {
            c.errors
                .push(format!("{name}: missing from the second set"));
            continue;
        };
        for (set, r) in [("first", ra), ("second", rb)] {
            if r.ops_failed > 0 {
                c.errors.push(format!(
                    "{name}: {} of {} ops failed in the {set} set",
                    r.ops_failed, r.ops
                ));
            }
        }
        // Only sets of the same seed simulate the same thing.
        if a.seed == b.seed {
            if (ra.cycles, ra.digest) != (rb.cycles, rb.digest) {
                c.errors.push(format!(
                    "{name}: simulated outputs differ ({} vs {} cycles)",
                    ra.cycles, rb.cycles
                ));
            }
            for (k, va) in &ra.exact {
                match rb.exact.get(k) {
                    Some(vb) if va == vb => {}
                    other => c
                        .errors
                        .push(format!("{name}: exact {k} differs: {va} vs {other:?}")),
                }
            }
        }
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (ra.metrics.get(m.name), rb.metrics.get(m.name)) else {
                c.errors.push(format!("{name}: {} missing", m.name));
                continue;
            };
            let (worse, verdict) = judge(m, sa, sb);
            match verdict {
                Verdict::Regressed => c.regressed += 1,
                Verdict::Unresolved => c.unresolved += 1,
                _ => {}
            }
            c.lines.push(format!(
                "{name:<11} {:<22} {:>12.4} -> {:>12.4} {:<8} {:>+6.1}% (bound {:.0}%, spread {:.1}% / {:.1}%, n {}/{})  {}",
                m.name,
                sa.median,
                sb.median,
                m.unit,
                worse * 100.0,
                m.bound * 100.0,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                sa.n,
                sb.n,
                verdict.label()
            ));
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric with a 10 % bound, so the tests do not move with the
    /// catalogue's numbers.
    fn metric(better: Better, floor: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "u",
            better,
            bound: 0.10,
            floor,
        }
    }

    fn s(q1: f64, median: f64, q3: f64) -> Summary {
        Summary {
            n: 5,
            q1,
            median,
            q3,
        }
    }

    #[test]
    fn bounds_apply_in_the_metric_s_direction() {
        let wall = &metric(Better::Lower, 0.0);
        let tight = |m: f64| s(m * 0.99, m, m * 1.01);
        assert_eq!(judge(wall, &tight(1.0), &tight(1.05)).1, Verdict::Unchanged);
        assert_eq!(judge(wall, &tight(1.0), &tight(1.2)).1, Verdict::Regressed);
        assert_eq!(judge(wall, &tight(1.0), &tight(0.8)).1, Verdict::Improved);
        let ops = &metric(Better::Higher, 0.0);
        assert_eq!(judge(ops, &tight(10.0), &tight(8.0)).1, Verdict::Regressed);
        assert_eq!(judge(ops, &tight(10.0), &tight(12.0)).1, Verdict::Improved);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let wall = &metric(Better::Lower, 0.0);
        let wide = s(0.8, 1.0, 1.2);
        let tight = s(0.99, 1.0, 1.01);
        assert_eq!(judge(wall, &wide, &tight).1, Verdict::Unresolved);
        assert_eq!(judge(wall, &tight, &wide).1, Verdict::Unresolved);
        // A clear regression stays a regression even when noisy.
        assert_eq!(judge(wall, &wide, &s(1.4, 1.6, 1.8)).1, Verdict::Regressed);
    }

    #[test]
    fn floors_shield_tiny_absolute_changes() {
        let setup = &metric(Better::Lower, 0.020);
        // +50 % of 20 ms is 10 ms: under the 20 ms floor.
        assert_eq!(
            judge(setup, &s(0.019, 0.020, 0.021), &s(0.029, 0.030, 0.031)).1,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(setup, &s(0.99, 1.0, 1.01), &s(1.39, 1.4, 1.41)).1,
            Verdict::Regressed
        );
        let rss = &metric(Better::Lower, 2.0);
        assert_eq!(
            judge(rss, &s(7.0, 7.0, 7.0), &s(8.5, 8.5, 8.5)).1,
            Verdict::Unchanged
        );
    }
}

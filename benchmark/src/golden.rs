//! Golden outputs for the default seed: per-op simulated cycles and output
//! digests. Simulated statistics repeat exactly, so a mismatch is a failed
//! op, never noise. `benchmark golden` regenerates the file — only in a
//! change that declares a model change.

use crate::workloads::{Op, Workload};
use emerald::common::json::{Json, JsonWriter};

/// The seed `golden.json` was generated with.
pub const SEED: u64 = 1;

const TEXT: &str = include_str!("../golden.json");

/// The expected outcome of one op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldOp {
    /// Op name.
    pub name: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Output digest.
    pub digest: u64,
}

impl From<&Op> for GoldOp {
    fn from(op: &Op) -> Self {
        Self {
            name: op.name.clone(),
            cycles: op.cycles,
            digest: op.digest,
        }
    }
}

/// Formats a 64-bit digest; digests exceed 2^53, so they travel as hex
/// strings, not JSON numbers.
pub fn hex(digest: u64) -> String {
    format!("{digest:#018x}")
}

/// Parses what [`hex`] wrote.
pub fn parse_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

fn parse_ops(list: &Json) -> Option<Vec<GoldOp>> {
    list.as_arr()?
        .iter()
        .map(|o| {
            Some(GoldOp {
                name: o.get("name")?.as_str()?.to_string(),
                cycles: o.get("cycles")?.as_num()? as u64,
                digest: parse_hex(o.get("digest")?.as_str()?)?,
            })
        })
        .collect()
}

/// The golden ops of `workload`, or `None` while the file has no entry
/// for it (only before the first `benchmark golden`).
pub fn reference(workload: Workload) -> Option<Vec<GoldOp>> {
    let doc = Json::parse(TEXT).expect("golden.json parses");
    parse_ops(doc.get("workloads")?.get(workload.name())?)
}

/// Ops of `ops` that fail against `reference`: unverified output, wrong
/// cycles or digest, and any op missing or extra.
pub fn failed_ops(ops: &[Op], reference: &[GoldOp]) -> usize {
    let mismatched = ops
        .iter()
        .zip(reference)
        .filter(|(op, gold)| !op.verified || GoldOp::from(*op) != **gold)
        .count();
    mismatched + ops.len().abs_diff(reference.len())
}

/// Renders a golden file from one reference repetition per workload, one
/// op per line so regenerated files stay reviewable.
pub fn render(per_workload: &[(Workload, Vec<GoldOp>)]) -> String {
    let workloads: Vec<String> = per_workload
        .iter()
        .map(|(workload, ops)| {
            let ops: Vec<String> = ops
                .iter()
                .map(|op| {
                    let mut w = JsonWriter::new();
                    w.begin_obj();
                    w.key("name").str(&op.name);
                    w.key("cycles").num_u64(op.cycles);
                    w.key("digest").str(&hex(op.digest));
                    w.end_obj();
                    w.finish()
                })
                .collect();
            format!("\"{}\":[\n{}]", workload.name(), ops.join(",\n"))
        })
        .collect();
    format!(
        "{{\"seed\":{SEED},\"workloads\":{{{}}}}}\n",
        workloads.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops() -> Vec<Op> {
        (0..4)
            .map(|i| Op {
                name: format!("frame{i}"),
                cycles: 1000 + i,
                digest: 0xdead_beef_0000_0000 + i,
                verified: true,
            })
            .collect()
    }

    #[test]
    fn one_flipped_digest_fails_exactly_one_op() {
        let ops = ops();
        let mut gold: Vec<GoldOp> = ops.iter().map(GoldOp::from).collect();
        assert_eq!(failed_ops(&ops, &gold), 0);
        gold[2].digest ^= 1;
        assert_eq!(failed_ops(&ops, &gold), 1);
    }

    #[test]
    fn unverified_missing_and_extra_ops_fail() {
        let mut ops = ops();
        let gold: Vec<GoldOp> = ops.iter().map(GoldOp::from).collect();
        ops[0].verified = false;
        assert_eq!(failed_ops(&ops, &gold), 1);
        assert_eq!(failed_ops(&ops[..3], &gold), 2, "one bad, one missing");
        assert_eq!(failed_ops(&ops, &gold[..2]), 3, "one bad, two extra");
        ops[1].cycles += 1;
        assert_eq!(failed_ops(&ops, &gold), 2);
    }

    #[test]
    fn rendered_golden_parses_back() {
        let gold: Vec<GoldOp> = ops().iter().map(GoldOp::from).collect();
        let text = render(&[(Workload::SocDense, gold.clone())]);
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("seed").and_then(Json::as_num), Some(SEED as f64));
        let back = parse_ops(doc.get("workloads").unwrap().get("soc_dense").unwrap()).unwrap();
        assert_eq!(back, gold);
        assert_eq!(parse_hex(&hex(u64::MAX)), Some(u64::MAX));
    }

    #[test]
    fn committed_golden_covers_every_workload() {
        for w in Workload::ALL {
            let gold = reference(w).unwrap_or_else(|| panic!("no golden ops for {}", w.name()));
            assert_eq!(gold.len(), w.ops_per_rep(), "{}", w.name());
        }
    }
}

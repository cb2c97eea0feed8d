//! A tiny deterministic property-test harness.
//!
//! The offline build cannot depend on external crates, so randomized tests
//! run on this in-tree harness instead of `proptest`. Each property runs a
//! fixed number of cases drawn from [`Xorshift64`] streams seeded purely from
//! the case index, so every run of the suite exercises exactly the same
//! inputs and failures reproduce without a regression file.

use crate::rng::Xorshift64;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default number of cases for [`check`].
pub(crate) const DEFAULT_CASES: u32 = 64;

/// Environment variable overriding the case count used by [`check`].
pub(crate) const CASES_ENV: &str = "EMERALD_CHECK_CASES";

/// The case count [`check`] will use: [`CASES_ENV`] if set to a positive
/// integer, [`DEFAULT_CASES`] otherwise.
fn default_cases() -> u32 {
    env_cases(CASES_ENV, DEFAULT_CASES)
}

/// Parses a positive case count from environment variable `var`, falling
/// back to `default` when unset or unparseable. Shared by [`check`] and
/// suite-level knobs like the conformance harness's `EMERALD_CONF_CASES`.
pub fn env_cases(var: &str, default: u32) -> u32 {
    match std::env::var(var) {
        Ok(v) => match v.trim().parse::<u32>() {
            Ok(n) if n > 0 => n,
            _ => default,
        },
        Err(_) => default,
    }
}

/// Runs `prop` against `cases` deterministic RNG streams. On failure the
/// panic is re-raised annotated with the property name, case index and seed,
/// so a failing case can be reproduced from its seed.
pub fn check_n<F>(name: &str, cases: u32, mut prop: F)
where
    F: FnMut(&mut Xorshift64),
{
    for case in 0..cases {
        let seed = case_seed(case);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = Xorshift64::new(seed);
            prop(&mut rng);
        }));
        if let Err(payload) = result {
            let msg = panic_message(&*payload);
            panic!("property '{name}' failed on case {case} (seed {seed:#x}): {msg}");
        }
    }
}

/// [`check_n`] with `default_cases` cases (`DEFAULT_CASES` unless the
/// `EMERALD_CHECK_CASES` environment variable overrides it).
pub fn check<F>(name: &str, prop: F)
where
    F: FnMut(&mut Xorshift64),
{
    check_n(name, default_cases(), prop);
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".to_string())
}

/// Greedily minimizes a failing input before it is reported.
///
/// `candidates(&input)` proposes strictly "smaller" variants of `input`
/// (fewer instructions, fewer triangles, plainer render state — whatever
/// the caller's notion of simpler is); `fails(&candidate)` re-runs the
/// failing check and returns `true` if the candidate still fails. The
/// first still-failing candidate is adopted and the process repeats until
/// a fixpoint (no candidate fails) or `max_steps` adoptions, whichever
/// comes first. The caller is responsible for ensuring candidates really
/// are smaller, otherwise the `max_steps` bound is what terminates.
///
/// Returns the minimized input and the number of shrink steps taken. The
/// original `input` must itself be failing; `minimize` never re-checks it.
pub fn minimize<T, C, F>(
    mut input: T,
    mut candidates: C,
    mut fails: F,
    max_steps: usize,
) -> (T, usize)
where
    C: FnMut(&T) -> Vec<T>,
    F: FnMut(&T) -> bool,
{
    let mut steps = 0;
    while steps < max_steps {
        let mut progressed = false;
        for cand in candidates(&input) {
            if fails(&cand) {
                input = cand;
                steps += 1;
                progressed = true;
                break;
            }
        }
        if !progressed {
            break;
        }
    }
    (input, steps)
}

/// The seed used for a given case index. SplitMix64-style scrambling keeps
/// neighbouring cases' streams uncorrelated.
fn case_seed(case: u32) -> u64 {
    let mut z = (case as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_distinct_and_nonzero() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..1000 {
            let s = case_seed(i);
            assert_ne!(s, 0);
            assert!(seen.insert(s), "duplicate seed at case {i}");
        }
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let mut runs = 0;
        check_n("counts", 10, |_| runs += 1);
        assert_eq!(runs, 10);
    }

    #[test]
    fn failure_reports_case_and_seed() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            check_n("always_fails", 3, |_| panic!("boom"));
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("always_fails"), "got: {msg}");
        assert!(msg.contains("case 0"), "got: {msg}");
        assert!(msg.contains("boom"), "got: {msg}");
    }

    #[test]
    fn env_cases_parses_and_falls_back() {
        // Not using the real CASES_ENV: the test harness runs tests in
        // threads sharing one environment, so probe an unset name instead.
        assert_eq!(env_cases("EMERALD_CHECK_CASES_UNSET_TEST", 7), 7);
        std::env::set_var("EMERALD_CHECK_CASES_SET_TEST", "12");
        assert_eq!(env_cases("EMERALD_CHECK_CASES_SET_TEST", 7), 12);
        std::env::set_var("EMERALD_CHECK_CASES_SET_TEST", "zero");
        assert_eq!(env_cases("EMERALD_CHECK_CASES_SET_TEST", 7), 7);
        std::env::set_var("EMERALD_CHECK_CASES_SET_TEST", "0");
        assert_eq!(env_cases("EMERALD_CHECK_CASES_SET_TEST", 7), 7);
        std::env::remove_var("EMERALD_CHECK_CASES_SET_TEST");
    }

    #[test]
    fn minimize_reaches_smallest_failing_vector() {
        // Failing iff the vector still contains a 9; candidates drop one
        // element at a time. The minimum is the single-element [9].
        let input = vec![1, 9, 2, 9, 3];
        let candidates = |v: &Vec<i32>| {
            (0..v.len())
                .map(|i| {
                    let mut c = v.clone();
                    c.remove(i);
                    c
                })
                .collect()
        };
        let (min, steps) = minimize(input, candidates, |v| v.contains(&9), 100);
        assert_eq!(min, vec![9]);
        assert_eq!(steps, 4);
    }

    #[test]
    fn minimize_respects_step_budget() {
        let input = vec![0u8; 64];
        let candidates = |v: &Vec<u8>| {
            if v.len() > 1 {
                vec![v[..v.len() - 1].to_vec()]
            } else {
                vec![]
            }
        };
        let (min, steps) = minimize(input, candidates, |_| true, 5);
        assert_eq!(steps, 5);
        assert_eq!(min.len(), 59);
    }
}

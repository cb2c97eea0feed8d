//! Sweep-engine determinism: the scheduler's interleaving must be
//! invisible in simulated results. The same job set is run at
//! 1/2/4 workers with shuffled submission orders, cold and forked, and
//! every per-session observable (cycles, framebuffer digest, compact
//! registry dump) must be bit-identical across all of them. A sweep is
//! only trustworthy if "how it was scheduled" can never leak into "what
//! it simulated".

use emerald::common::json::Json;
use emerald::common::rng::Xorshift64;
use emerald::serve::sched::run_jobs;
use emerald::serve::sweep::JobSpec;
use emerald::serve::{JobParams, StartMode, SweepSpec};

/// Fisher–Yates with the in-tree RNG, so submission orders replay from a
/// seed.
fn shuffle<T>(v: &mut [T], rng: &mut Xorshift64) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// A seeded random job set over the divergence axes. Warmups vary so the
/// set mixes fork-group members (warmup > 0 sharing the default prefix)
/// with cold singletons, exercising both scheduler paths at once.
fn random_jobs(rng: &mut Xorshift64, n: usize) -> Vec<JobSpec> {
    (0..n)
        .map(|id| {
            let params = JobParams {
                warmup: rng.below(2) as u32,
                frames: 1 + rng.below(2) as u32,
                frame_offset: rng.below(3) as u32,
                seed: rng.below(4),
                ..JobParams::default()
            };
            JobSpec {
                id,
                label: format!("job{id}"),
                params,
            }
        })
        .collect()
}

/// The comparable signature of one finished session.
fn signature(out: &emerald::serve::SweepOutcome) -> Vec<(usize, u64, u64, String)> {
    out.results
        .iter()
        .map(|r| (r.id, r.cycles, r.fb_digest, r.registry_json.clone()))
        .collect()
}

#[test]
fn scheduler_interleaving_is_invisible() {
    let mut rng = Xorshift64::new(0xD15E_A5ED_5EED_0001);
    let jobs = random_jobs(&mut rng, 5);
    let mut reference = None;
    // Worker counts 1/2/4, each with its own shuffled submission order,
    // plus a repeat at 2 workers under a different order: every run must
    // land on the identical per-session signature.
    for (workers, shuffle_seed) in [(1usize, 11u64), (2, 22), (4, 33), (2, 44)] {
        let mut set = jobs.clone();
        shuffle(&mut set, &mut Xorshift64::new(shuffle_seed));
        let out = run_jobs(set, true, workers, None);
        assert_eq!(out.results.len(), jobs.len());
        let sig = signature(&out);
        match &reference {
            None => reference = Some(sig),
            Some(r) => assert_eq!(
                *r, sig,
                "workers={workers} shuffle={shuffle_seed} diverged from the reference run"
            ),
        }
    }
}

#[test]
fn forked_sweep_is_bit_identical_to_cold_sweep() {
    // Four sessions sharing one warmed prefix: forking must change *only*
    // the start mode, never a simulated observable.
    let spec = SweepSpec::parse(
        r#"{
            "name": "forkdiff",
            "base": {"model": "I1", "warmup": 1, "frames": 1},
            "axes": [{"key": "seed", "values": [0, 1, 2, 3]}]
        }"#,
    )
    .unwrap();
    let jobs = spec.expand().unwrap();
    let cold = run_jobs(jobs.clone(), false, 2, None);
    let forked = run_jobs(jobs, true, 2, None);
    assert_eq!(cold.prefixes, 0, "fork disabled never warms a prefix");
    assert_eq!(forked.prefixes, 1, "one shared prefix for the group");
    assert_eq!(signature(&cold), signature(&forked));
    assert_eq!(cold.total_cycles, forked.total_cycles);
    assert!(cold.results.iter().all(|r| r.start == StartMode::Cold));
    assert!(forked.results.iter().all(|r| r.start == StartMode::Forked));
}

/// One job the simulator cannot build (a 16384×16384 target exhausts the
/// memory image, which panics in `MemImage::alloc`) among seven healthy
/// ones: the sweep must end — on a watchdog, because the failure mode
/// being guarded against is a hang — with the bad job reported and the
/// other seven bit-identical to a sweep that never contained it.
#[test]
fn poisoned_session_neither_hangs_nor_kills_the_sweep() {
    let mut rng = Xorshift64::new(0xBAD5_E551_0000_0001);
    let healthy = random_jobs(&mut rng, 7);
    let clean = signature(&run_jobs(healthy.clone(), true, 2, None));
    assert_eq!(clean.len(), 7);

    let mut jobs = healthy;
    jobs.insert(
        3,
        JobSpec {
            id: 7,
            label: "poisoned".to_string(),
            params: JobParams {
                width: 16384,
                height: 16384,
                ..JobParams::default()
            },
        },
    );
    for workers in [1usize, 2, 4] {
        let (done, finished) = std::sync::mpsc::channel();
        let set = jobs.clone();
        std::thread::spawn(move || done.send(run_jobs(set, true, workers, None)));
        let out = finished
            .recv_timeout(std::time::Duration::from_secs(120))
            .unwrap_or_else(|_| panic!("sweep did not end at {workers} workers"));
        assert_eq!(signature(&out), clean, "workers={workers}");
        assert_eq!(out.failed.len(), 1, "workers={workers}");
        assert_eq!(
            (out.failed[0].id, &out.failed[0].label[..]),
            (7, "poisoned")
        );
        assert!(
            out.failed[0].error.contains("memory image exhausted"),
            "{}",
            out.failed[0].error
        );
    }
}

/// Runs the built `emerald_serve` binary — the only sweep CLI — with its
/// stdout closed straight away, returning the exit code and stderr.
fn serve_cli(args: &[&str]) -> (Option<i32>, String) {
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_emerald_serve"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn emerald_serve");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for emerald_serve");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Bad command lines are the user's mistake, not a bug: one line on
/// stderr and exit 1, never a panic backtrace. A reader that hangs up
/// mid-sweep (`| head -1`) is not an error at all.
#[test]
fn cli_reports_bad_arguments_without_panicking() {
    for args in [
        &["--spec", "/nonexistent.json"][..],
        &["--workers", "x"],
        &["--spec", "sweeps/ci_smoke.json", "--workers"],
    ] {
        let (code, stderr) = serve_cli(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
    let (code, stderr) = serve_cli(&["--spec", "sweeps/ci_smoke.json"]);
    assert_eq!(code, Some(0), "closed stdout: {stderr}");
    assert!(!stderr.contains("panicked"), "closed stdout: {stderr}");
}

/// Outside bytes cannot kill the server: a line nested deeper than the
/// parser recurses, and a few hundred bytes of axes asking for 10^10 jobs,
/// each get an error record, and the same process then answers `ping`.
#[test]
fn hostile_requests_get_errors_and_the_server_keeps_serving() {
    use std::io::Write;
    use std::process::{Command, Stdio};
    let seeds: Vec<String> = (0..100).map(|v| v.to_string()).collect();
    let axis = format!(r#"{{"key":"seed","values":[{}]}}"#, seeds.join(","));
    let spec = format!(r#"{{"axes":[{}]}}"#, vec![axis; 5].join(","));
    let sweep = format!(r#"{{"op":"sweep","spec":{spec}}}"#);
    let input = format!("{}\n{sweep}\n{{\"op\":\"ping\"}}\n", "[".repeat(200_000));
    let mut child = Command::new(env!("CARGO_BIN_EXE_emerald_serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn emerald_serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let writer = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
    let out = child.wait_with_output().expect("wait for emerald_serve");
    writer.join().unwrap().expect("write requests");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let records: Vec<Json> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).expect("response is valid JSON"))
        .collect();
    assert_eq!(records.len(), 3, "{records:?}");
    for (r, says) in records[..2]
        .iter()
        .zip(["nesting deeper", "10000000000 jobs"])
    {
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
        let err = r.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(err.contains(says), "{err}");
    }
    assert_eq!(records[2].get("ev").and_then(Json::as_str), Some("pong"));

    // `--check` refuses the same spec as a bad argument.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("huge_sweep.json");
    std::fs::write(&path, &spec).expect("write spec");
    let (code, stderr) = serve_cli(&["--spec", path.to_str().unwrap(), "--check"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("10000000000 jobs"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}

//! JSON-line sweep server over stdin/stdout.
//!
//! Reads one request per line, writes one or more response records per
//! request, and streams per-session results as they complete (see
//! `emerald_serve::proto` for the protocol). Exits on `shutdown` or EOF.
//!
//! ```text
//! $ echo '{"op": "ping"}' | emerald_serve
//! {"ok":true,"ev":"pong"}
//!
//! $ emerald_serve < requests.jsonl > results.jsonl
//! $ emerald_serve --spec sweeps/ci_smoke.json --workers 4   # one-shot
//! ```
//!
//! `--spec FILE` runs a single sweep from a spec file without the
//! protocol loop: results stream to stdout, then the process exits
//! (nonzero if the spec is invalid). With `--check` the spec is only
//! validated and expanded — every axis coordinate is resolved against
//! the real config/workload tables — without simulating anything.

use std::io::{self, BufReader};

fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("emerald_serve: {msg}");
    std::process::exit(1)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let spec_path = args
        .iter()
        .position(|a| a == "--spec")
        .and_then(|i| args.get(i + 1).cloned());
    let check_only = args.iter().any(|a| a == "--check");
    let workers = match args.iter().position(|a| a == "--workers") {
        None => 1,
        Some(i) => args
            .get(i + 1)
            .and_then(|w| w.parse::<usize>().ok())
            .unwrap_or_else(|| die("--workers wants an integer")),
    };

    let served = if let Some(path) = spec_path {
        // One-shot mode: synthesize a single sweep request from the file.
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| die(format_args!("cannot read sweep spec {path}: {e}")));
        // Validated here for the early, readable error.
        let spec = emerald_serve::SweepSpec::parse(&text)
            .unwrap_or_else(|e| die(format_args!("invalid sweep spec {path}: {e}")));
        if check_only {
            let jobs = spec.job_count().unwrap_or_else(|e| die(e));
            println!("{path}: ok ({jobs} jobs)");
            return;
        }
        let request = format!(
            "{{\"op\":\"sweep\",\"workers\":{workers},\"spec\":{}}}\n",
            text.replace('\n', " ")
        );
        emerald_serve::proto::serve(request.as_bytes(), io::stdout())
    } else {
        let stdin = io::stdin();
        emerald_serve::proto::serve(BufReader::new(stdin.lock()), io::stdout())
    };
    match served {
        Ok(()) => {}
        // The reader went away (`| head -1`): nobody is left to tell.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {}
        Err(e) => die(format_args!("i/o error: {e}")),
    }
}

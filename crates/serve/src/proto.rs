//! JSON-line protocol: one request per input line, one or more response
//! records per line of output, all single-line JSON built with
//! [`emerald_common::json::JsonWriter`].
//!
//! Requests:
//!
//! ```json
//! {"op": "ping"}
//! {"op": "sweep", "workers": 4, "spec": { ... sweep spec ... }}
//! {"op": "shutdown"}
//! ```
//!
//! Every response carries `"ok"` and an `"ev"` tag. A sweep streams
//! incrementally: a `sweep_start` record, then one `session` record *as
//! each session completes* (with its registry dump embedded compactly),
//! then one `{"ok": false, "ev": "session", "error": ...}` record per
//! session that panicked, then a `sweep_done` aggregate. Request errors
//! are `{"ok": false, "error": ...}` and never kill the connection; only
//! `shutdown` (or EOF) ends the loop.
//!
//! Framebuffer digests are 64-bit and may exceed 2^53, so they travel as
//! hex strings, not JSON numbers.

use crate::sched::{self, FailedSession};
use crate::session::SessionResult;
use crate::sweep::SweepSpec;
use emerald_common::json::{Json, JsonWriter};
use std::io::{self, BufRead, Write};
use std::sync::Mutex;
use std::time::Instant;

/// Formats one session result as a protocol record.
fn session_record(r: &SessionResult) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("ok").bool(true);
    w.key("ev").str("session");
    w.key("id").num_u64(r.id as u64);
    w.key("label").str(&r.label);
    w.key("start").str(r.start.label());
    w.key("cycles").num_u64(r.cycles);
    w.key("frames").num_u64(r.frames as u64);
    w.key("slices").num_u64(r.slices as u64);
    w.key("fb_digest").str(&format!("{:#018x}", r.fb_digest));
    w.key("registry").raw(&r.registry_json);
    w.end_obj();
    w.finish()
}

/// Formats one panicked session as a protocol record.
fn failed_session_record(f: &FailedSession) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("ok").bool(false);
    w.key("ev").str("session");
    w.key("id").num_u64(f.id as u64);
    w.key("label").str(&f.label);
    w.key("error").str(&f.error);
    w.end_obj();
    w.finish()
}

fn error_record(msg: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("ok").bool(false);
    w.key("error").str(msg);
    w.end_obj();
    w.finish()
}

fn event_record(ev: &str, fields: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("ok").bool(true);
    w.key("ev").str(ev);
    fields(&mut w);
    w.end_obj();
    w.finish()
}

fn writeln_record(out: &Mutex<impl Write>, record: &str) -> io::Result<()> {
    let mut out = out.lock().expect("protocol output");
    writeln!(out, "{record}")?;
    out.flush()
}

/// Handles one parsed request. Returns `false` when the connection should
/// close (`shutdown`).
fn handle(doc: &Json, out: &Mutex<impl Write + Send>) -> io::Result<bool> {
    let Some(op) = doc.get("op").and_then(Json::as_str) else {
        writeln_record(out, &error_record("request wants an \"op\" string"))?;
        return Ok(true);
    };
    match op {
        "ping" => writeln_record(out, &event_record("pong", |_| {}))?,
        "shutdown" => {
            writeln_record(out, &event_record("bye", |_| {}))?;
            return Ok(false);
        }
        "sweep" => {
            let workers = match doc.get("workers") {
                None => 1,
                Some(v) => match v.as_num() {
                    Some(n) if n >= 1.0 && n.fract() == 0.0 && n <= 1024.0 => n as usize,
                    _ => {
                        writeln_record(out, &error_record("workers wants an integer >= 1"))?;
                        return Ok(true);
                    }
                },
            };
            let spec = match doc.get("spec") {
                Some(s) => match SweepSpec::from_json(s) {
                    Ok(spec) => spec,
                    Err(e) => {
                        writeln_record(out, &error_record(&e))?;
                        return Ok(true);
                    }
                },
                None => {
                    writeln_record(out, &error_record("sweep wants a \"spec\" object"))?;
                    return Ok(true);
                }
            };
            run_sweep_streaming(&spec, workers, out)?;
        }
        other => writeln_record(out, &error_record(&format!("unknown op {other:?}")))?,
    }
    Ok(true)
}

/// Runs a sweep, streaming records as sessions complete.
fn run_sweep_streaming(
    spec: &SweepSpec,
    workers: usize,
    out: &Mutex<impl Write + Send>,
) -> io::Result<()> {
    let jobs = match spec.job_count() {
        Ok(n) => n,
        Err(e) => return writeln_record(out, &error_record(&e)),
    };
    writeln_record(
        out,
        &event_record("sweep_start", |w| {
            w.key("name").str(&spec.name);
            w.key("jobs").num_u64(jobs as u64);
            w.key("workers").num_u64(workers as u64);
            w.key("fork").bool(spec.fork);
        }),
    )?;
    let t0 = Instant::now();
    // Worker threads stream session records; an I/O error inside the
    // callback is latched and re-raised after the sweep completes.
    let io_err: Mutex<Option<io::Error>> = Mutex::new(None);
    let stream = |r: &SessionResult| {
        if let Err(e) = writeln_record(out, &session_record(r)) {
            io_err.lock().expect("io error latch").get_or_insert(e);
        }
    };
    let outcome = match sched::run_sweep(spec, workers, Some(&stream)) {
        Ok(o) => o,
        Err(e) => return writeln_record(out, &error_record(&e)),
    };
    if let Some(e) = io_err.into_inner().expect("io error latch") {
        return Err(e);
    }
    for f in &outcome.failed {
        writeln_record(out, &failed_session_record(f))?;
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    writeln_record(
        out,
        &event_record("sweep_done", |w| {
            w.key("name").str(&spec.name);
            w.key("sessions").num_u64(outcome.results.len() as u64);
            w.key("failed").num_u64(outcome.failed.len() as u64);
            w.key("prefixes").num_u64(outcome.prefixes as u64);
            w.key("total_cycles").num_u64(outcome.total_cycles);
            w.key("wall_ms").num(wall_ms);
        }),
    )
}

/// Serves requests line-by-line until `shutdown` or EOF. Blank lines are
/// ignored; malformed JSON answers an error record and keeps going.
pub fn serve(input: impl BufRead, output: impl Write + Send) -> io::Result<()> {
    let out = Mutex::new(output);
    for line in input.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match Json::parse(line) {
            Ok(doc) => {
                if !handle(&doc, &out)? {
                    return Ok(());
                }
            }
            Err(e) => writeln_record(&out, &error_record(&format!("bad request: {e}")))?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(lines: &str) -> Vec<Json> {
        let mut out = Vec::new();
        serve(lines.as_bytes(), &mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).expect("response is valid JSON"))
            .collect()
    }

    #[test]
    fn ping_errors_and_shutdown() {
        let rs = run("{\"op\": \"ping\"}\nnot json\n{\"op\": \"nope\"}\n\n{\"op\": \"shutdown\"}\n{\"op\": \"ping\"}\n");
        assert_eq!(rs.len(), 4, "nothing served after shutdown");
        assert_eq!(rs[0].get("ev").and_then(Json::as_str), Some("pong"));
        assert_eq!(rs[1].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(rs[2].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(rs[3].get("ev").and_then(Json::as_str), Some("bye"));
    }

    #[test]
    fn sweep_streams_sessions_then_aggregate() {
        let req = r#"{"op": "sweep", "workers": 2, "spec": {
            "name": "proto",
            "base": {"model": "I1", "warmup": 1, "frames": 1},
            "axes": [{"key": "seed", "values": [0, 1]}]
        }}"#;
        let rs = run(&format!("{}\n", req.replace('\n', " ")));
        assert_eq!(rs[0].get("ev").and_then(Json::as_str), Some("sweep_start"));
        assert_eq!(rs[0].get("jobs").and_then(Json::as_num), Some(2.0));
        let sessions: Vec<&Json> = rs
            .iter()
            .filter(|r| r.get("ev").and_then(Json::as_str) == Some("session"))
            .collect();
        assert_eq!(sessions.len(), 2);
        for s in &sessions {
            assert!(s.get("registry").is_some());
            assert!(s
                .get("fb_digest")
                .and_then(Json::as_str)
                .unwrap()
                .starts_with("0x"));
        }
        let done = rs.last().unwrap();
        assert_eq!(done.get("ev").and_then(Json::as_str), Some("sweep_done"));
        assert_eq!(done.get("sessions").and_then(Json::as_num), Some(2.0));
        assert_eq!(done.get("prefixes").and_then(Json::as_num), Some(1.0));
    }

    #[test]
    fn failed_session_is_a_session_record_with_ok_false() {
        let rec = failed_session_record(&FailedSession {
            id: 3,
            label: "width=16384".to_string(),
            error: "memory image \"exhausted\"".to_string(),
        });
        let doc = Json::parse(&rec).expect("record is valid JSON");
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("ev").and_then(Json::as_str), Some("session"));
        assert_eq!(doc.get("id").and_then(Json::as_num), Some(3.0));
        assert_eq!(
            doc.get("error").and_then(Json::as_str),
            Some("memory image \"exhausted\"")
        );
    }

    #[test]
    fn bad_sweep_requests_answer_errors() {
        for req in [
            r#"{"op": "sweep"}"#,
            r#"{"op": "sweep", "workers": 0, "spec": {}}"#,
            r#"{"op": "sweep", "spec": {"base": {"bogus": 1}}}"#,
            r#"{"nop": 1}"#,
        ] {
            let rs = run(&format!("{req}\n"));
            assert_eq!(
                rs[0].get("ok").and_then(Json::as_bool),
                Some(false),
                "{req} did not error"
            );
        }
    }
}

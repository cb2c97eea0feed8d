//! Shared-queue scheduler for concurrent sessions.
//!
//! One FIFO of tasks behind one mutex: workers pop from the front and
//! re-enqueue sliced sessions at the back (round-robin fairness: one slow
//! configuration cannot starve the queue), and a worker that finds the
//! queue empty parks on a condvar until a task arrives or the last
//! session ends. A slice is a whole frame — tens of milliseconds — so the
//! one lock is uncontended. Tasks are *whole sessions* — the simulator
//! inside each stays single-threaded, so host cores scale across
//! sessions, sidestepping the weak intra-sim scaling.
//!
//! Sessions are constructed lazily on a worker (a `Soc` eagerly maps its
//! memory image, so building a thousand-job sweep up front would be
//! gigabytes), and fork groups run as *prefix tasks*: the shared prefix
//! session warms up slice by slice like any other task, then checkpoints
//! into an Arc-shared snapshot and replaces itself with one fork task per
//! member. Scheduling order therefore never affects results — sessions
//! share nothing mutable, and the determinism tests run the same job set
//! at 1/2/4 workers with shuffled submission and require identical
//! output.
//!
//! Every slice runs under `catch_unwind`: a session that panics (a
//! configuration the simulator cannot build, a frame past its cycle
//! budget) is dropped, reported in [`SweepOutcome::failed`] and counted
//! as finished, so one bad job can neither hang nor kill the sweep.

use crate::session::{Session, SessionResult};
use crate::sweep::{self, JobSpec, SweepSpec};
use emerald_common::snap::SharedSnapshot;
use emerald_core::session::SceneBinding;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// One schedulable unit.
enum Task {
    /// A cold job not yet constructed.
    Cold(JobSpec),
    /// A running session mid-flight.
    Run(Box<Session>),
    /// A fork group's prefix, not yet constructed.
    Prefix {
        /// Prefix parameters (divergence fields zeroed, `frames: 0`).
        prefix: JobSpec,
        /// Jobs to fork once the prefix is warm.
        members: Vec<JobSpec>,
    },
    /// A warming prefix session mid-flight.
    PrefixRun {
        /// The prefix simulation.
        session: Box<Session>,
        /// Jobs to fork once the prefix is warm.
        members: Vec<JobSpec>,
    },
    /// A group member waiting to restore from the warmed snapshot.
    Fork {
        /// The job to run.
        spec: JobSpec,
        /// Shared warmed snapshot (validated once).
        snapshot: SharedSnapshot,
        /// The prefix's scene binding — forks must not re-upload.
        binding: Arc<SceneBinding>,
    },
}

impl Task {
    /// The `(id, label)` of every job that ends if this task does.
    fn jobs(&self) -> Vec<(usize, String)> {
        let job = |spec: &JobSpec| (spec.id, spec.label.clone());
        match self {
            Task::Cold(spec) | Task::Fork { spec, .. } => vec![job(spec)],
            Task::Run(session) => vec![job(session.spec())],
            Task::Prefix { members, .. } | Task::PrefixRun { members, .. } => {
                members.iter().map(job).collect()
            }
        }
    }
}

/// A session that panicked instead of finishing.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedSession {
    /// Job id from the sweep expansion.
    pub id: usize,
    /// Axis-coordinate label.
    pub label: String,
    /// The panic message.
    pub error: String,
}

/// Aggregate outcome of one sweep run.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Results of the sessions that completed, in job-id order.
    pub results: Vec<SessionResult>,
    /// Sessions that panicked, in job-id order.
    pub failed: Vec<FailedSession>,
    /// Summed final cycles across completed sessions.
    pub total_cycles: u64,
    /// Warmed prefixes simulated (0 when forking is off).
    pub prefixes: usize,
}

/// Everything the workers share, behind the one lock: the task FIFO, the
/// number of sessions not yet finished (workers exit at zero) and what
/// the finished ones left.
struct State {
    tasks: VecDeque<Task>,
    unfinished: usize,
    results: Vec<SessionResult>,
    failed: Vec<FailedSession>,
}

struct Shared<'a> {
    state: Mutex<State>,
    /// Signalled when a task is pushed and when the last session ends.
    wake: Condvar,
    on_result: Option<&'a (dyn Fn(&SessionResult) + Sync)>,
}

impl Shared<'_> {
    fn record(&self, result: SessionResult) {
        if let Some(f) = self.on_result {
            f(&result);
        }
        let mut s = self.state.lock().expect("scheduler state");
        s.results.push(result);
        self.finished(&mut s, 1);
    }

    fn finished(&self, s: &mut State, sessions: usize) {
        s.unfinished -= sessions;
        if s.unfinished == 0 {
            self.wake.notify_all();
        }
    }

    fn push(&self, task: Task) {
        let mut s = self.state.lock().expect("scheduler state");
        s.tasks.push_back(task);
        self.wake.notify_one();
    }

    /// The next task in FIFO order, parking while the queue is empty;
    /// `None` once every session has finished.
    fn next_task(&self) -> Option<Task> {
        let mut s = self.state.lock().expect("scheduler state");
        loop {
            if let Some(t) = s.tasks.pop_front() {
                return Some(t);
            }
            if s.unfinished == 0 {
                return None;
            }
            s = self.wake.wait(s).expect("scheduler state");
        }
    }

    /// Runs one slice of `task`; a panic inside it fails the task's jobs
    /// instead of the worker.
    fn run_guarded(&self, task: Task) {
        let jobs = task.jobs();
        // The task is consumed either way and sessions share nothing
        // mutable, so no broken state outlives an unwound slice.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run_slice(self, task))) {
            let error = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("session panicked")
                .to_string();
            let mut s = self.state.lock().expect("scheduler state");
            let sessions = jobs.len();
            s.failed
                .extend(jobs.into_iter().map(|(id, label)| FailedSession {
                    id,
                    label,
                    error: error.clone(),
                }));
            self.finished(&mut s, sessions);
        }
    }
}

/// Runs one task for one slice, re-enqueueing whatever work remains.
fn run_slice(shared: &Shared<'_>, task: Task) {
    match task {
        Task::Cold(spec) => {
            let session = Session::new_cold(spec).expect("spec validated at parse");
            advance(shared, session);
        }
        Task::Run(session) => advance(shared, *session),
        Task::Prefix { prefix, members } => {
            let session = Session::new_cold(prefix).expect("spec validated at parse");
            advance_prefix(shared, session, members);
        }
        Task::PrefixRun { session, members } => advance_prefix(shared, *session, members),
        Task::Fork {
            spec,
            snapshot,
            binding,
        } => {
            let session =
                Session::new_forked(spec, &snapshot, binding).expect("fork from own prefix");
            advance(shared, session);
        }
    }
}

fn advance(shared: &Shared<'_>, mut session: Session) {
    if !session.is_done() && session.step() {
        shared.push(Task::Run(Box::new(session)));
    } else {
        shared.record(session.finish());
    }
}

fn advance_prefix(shared: &Shared<'_>, mut session: Session, members: Vec<JobSpec>) {
    if !session.warmup_complete() {
        session.step();
    }
    if !session.warmup_complete() {
        shared.push(Task::PrefixRun {
            session: Box::new(session),
            members,
        });
        return;
    }
    // Warm: snapshot once, then one fork task per member.
    let snapshot = session.checkpoint_shared();
    let binding = session.binding();
    for spec in members {
        shared.push(Task::Fork {
            spec,
            snapshot: snapshot.clone(),
            binding: Arc::clone(&binding),
        });
    }
}

/// Runs a job set on `workers` threads. `fork` enables snapshot-fork warm
/// starts for jobs sharing a prefix; submission order is the order of
/// `jobs` (results are still returned in id order). `on_result` streams
/// each completed session's result, from the completing worker's thread.
pub fn run_jobs(
    jobs: Vec<JobSpec>,
    fork: bool,
    workers: usize,
    on_result: Option<&(dyn Fn(&SessionResult) + Sync)>,
) -> SweepOutcome {
    let unfinished = jobs.len();
    let plan = sweep::plan(jobs, fork);
    let prefixes = plan.groups.len();
    let mut tasks: VecDeque<Task> = plan.cold.into_iter().map(Task::Cold).collect();
    tasks.extend(plan.groups.into_iter().map(|group| Task::Prefix {
        prefix: JobSpec {
            id: usize::MAX,
            label: format!("prefix:{}", group.prefix.prefix_key()),
            params: group.prefix,
        },
        members: group.members,
    }));

    let shared = Shared {
        state: Mutex::new(State {
            tasks,
            unfinished,
            results: Vec::with_capacity(unfinished),
            failed: Vec::new(),
        }),
        wake: Condvar::new(),
        on_result,
    };
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| {
                while let Some(task) = shared.next_task() {
                    shared.run_guarded(task);
                }
            });
        }
    });

    let State {
        mut results,
        mut failed,
        ..
    } = shared.state.into_inner().expect("scheduler state");
    results.sort_by_key(|r| r.id);
    failed.sort_by_key(|f| f.id);
    let total_cycles = results.iter().map(|r| r.cycles).sum();
    SweepOutcome {
        results,
        failed,
        total_cycles,
        prefixes,
    }
}

/// Expands a sweep spec and runs it (see [`run_jobs`]).
pub(crate) fn run_sweep(
    spec: &SweepSpec,
    workers: usize,
    on_result: Option<&(dyn Fn(&SessionResult) + Sync)>,
) -> Result<SweepOutcome, String> {
    let jobs = spec.expand()?;
    Ok(run_jobs(jobs, spec.fork, workers, on_result))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec::parse(
            r#"{
                "name": "tiny",
                "base": {"model": "I1", "warmup": 1, "frames": 1},
                "axes": [{"key": "frame_offset", "values": [0, 2]}]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn results_are_id_ordered_and_complete() {
        let spec = tiny_spec();
        let out = run_sweep(&spec, 2, None).unwrap();
        assert_eq!(out.results.len(), 2);
        assert_eq!(out.results[0].id, 0);
        assert_eq!(out.results[1].id, 1);
        assert_eq!(out.prefixes, 1, "both jobs share one warmed prefix");
        assert!(out.total_cycles > 0);
        assert_ne!(
            out.results[0].fb_digest, out.results[1].fb_digest,
            "different frame offsets must diverge"
        );
    }

    #[test]
    fn streaming_callback_sees_every_session() {
        let spec = tiny_spec();
        let seen = Mutex::new(Vec::new());
        let cb = |r: &SessionResult| seen.lock().unwrap().push(r.id);
        let out = run_sweep(&spec, 2, Some(&cb)).unwrap();
        let mut ids = seen.into_inner().unwrap();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(out.results.len(), 2);
    }
}

//! Supervised single-job execution: one dedicated thread, panic capture,
//! a wall-clock watchdog, and optional trace-session collection. The
//! [`Service`](crate::Service) worker runs every computed job through it.

use crate::job::JobError;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// The outcome of one supervised execution.
#[derive(Debug)]
pub(crate) struct Supervised<T> {
    /// The job's value, or why there is none.
    pub(crate) result: Result<T, JobError>,
    /// The job thread's finished trace session, when one was requested and
    /// the job completed (even by panicking — crashes keep their timeline).
    /// `None` on timeout: the abandoned thread's session is discarded with
    /// the thread.
    pub(crate) trace: Option<ap_trace::session::Trace>,
}

/// Runs `run` on a dedicated watchdog-supervised thread and blocks until it
/// completes or overruns `deadline`.
///
/// * A panic inside `run` is caught and surfaces as
///   [`JobError::Panicked`] with the payload message preserved.
/// * On deadline overrun the thread is *abandoned* (it cannot be killed)
///   and [`JobError::TimedOut`] is returned; the thread's eventual result
///   is discarded.
/// * With `session` set, the job thread opens a thread-local trace session
///   around the body (collection is lock-free — the thread is dedicated)
///   and the finished [`Trace`](ap_trace::session::Trace), including an
///   engine-subsystem `job.run` span in wall-clock microseconds, comes
///   back in [`Supervised::trace`].
///
/// The thread gets a 16 MB stack: simulations recurse deeply and must not
/// inherit a small default.
pub(crate) fn supervise<T: Send + 'static>(
    deadline: Option<Duration>,
    session: Option<ap_trace::session::SessionConfig>,
    run: Box<dyn FnOnce() -> T + Send>,
) -> Supervised<T> {
    let (tx, rx) = mpsc::channel();
    let spawned = std::thread::Builder::new()
        .name("ap-engine-job".into())
        .stack_size(16 << 20) // deep simulations; don't inherit small default stacks
        .spawn(move || {
            if let Some(cfg) = session {
                ap_trace::session::begin(cfg);
            }
            let started = Instant::now();
            let result = std::panic::catch_unwind(AssertUnwindSafe(run));
            let trace = if session.is_some() {
                ap_trace::complete(
                    ap_trace::Subsystem::Engine,
                    "job.run",
                    0,
                    started.elapsed().as_micros() as u64,
                    result.is_ok() as u64,
                    0,
                );
                ap_trace::session::finish()
            } else {
                None
            };
            let _ = tx.send((result, trace));
        });
    if let Err(e) = spawned {
        return Supervised {
            result: Err(JobError::Panicked(format!("cannot spawn job thread: {e}"))),
            trace: None,
        };
    }
    let (received, trace) = match deadline {
        Some(deadline) => match rx.recv_timeout(deadline) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => {
                return Supervised { result: Err(JobError::TimedOut(deadline)), trace: None }
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Supervised {
                    result: Err(JobError::Panicked("job thread vanished".into())),
                    trace: None,
                }
            }
        },
        None => match rx.recv() {
            Ok(r) => r,
            Err(_) => {
                return Supervised {
                    result: Err(JobError::Panicked("job thread vanished".into())),
                    trace: None,
                }
            }
        },
    };
    Supervised {
        result: received.map_err(|payload| JobError::Panicked(panic_message(&*payload))),
        trace,
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_panics_and_timeouts() {
        let ok = supervise(None, None, Box::new(|| 41 + 1));
        assert_eq!(ok.result.unwrap(), 42);
        assert!(ok.trace.is_none(), "no session requested");

        let boom = supervise::<u32>(None, None, Box::new(|| panic!("kaboom {}", 7)));
        match boom.result {
            Err(JobError::Panicked(msg)) => assert!(msg.contains("kaboom 7"), "{msg}"),
            other => panic!("expected panic, got {other:?}"),
        }

        let slow = supervise(
            Some(Duration::from_millis(20)),
            None,
            Box::new(|| {
                std::thread::sleep(Duration::from_secs(5));
                0u32
            }),
        );
        assert!(matches!(slow.result, Err(JobError::TimedOut(_))));
    }

    #[test]
    fn sessions_come_back_with_counters_even_on_panic() {
        let cfg = ap_trace::session::SessionConfig::default();
        let ok = supervise(
            None,
            Some(cfg),
            Box::new(|| {
                ap_trace::session::count("test.work", 3);
                1u8
            }),
        );
        let trace = ok.trace.expect("session collected");
        assert_eq!(trace.counters.iter().find(|c| c.name == "test.work").unwrap().value(), 3);

        let boom = supervise::<u8>(
            None,
            Some(cfg),
            Box::new(|| {
                ap_trace::session::count("test.partial", 1);
                panic!("late failure");
            }),
        );
        assert!(boom.result.is_err());
        let trace = boom.trace.expect("panicked jobs keep their session");
        assert_eq!(trace.counters.iter().find(|c| c.name == "test.partial").unwrap().value(), 1);
    }
}

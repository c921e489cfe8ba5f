//! Run settings: the one reader of the `AP_*` environment variables (the
//! README's *Environment* table lists them), parsed once per process.
//! [`scoped`] changes them for one closure on the calling thread only, so
//! no run leaks a setting into another.

use std::cell::RefCell;
use std::ffi::OsString;
use std::path::PathBuf;
use std::sync::OnceLock;

/// The run settings, one field per environment variable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Settings {
    /// `AP_QUICK`: shrink sweeps to CI size.
    pub quick: bool,
    /// `AP_SANITIZE`: new `System`s start with the access sanitizer on.
    pub sanitize: bool,
    /// `AP_NO_CACHE`: the harness runs without its disk cache.
    pub no_cache: bool,
    /// `AP_PAGE_THREADS` (`0` reads as unset): host threads per group
    /// activation, ahead of the published budget; 1 is the sequential oracle.
    pub page_threads: Option<usize>,
    /// `AP_JOBS`: engine worker threads; `0` reads as 1.
    pub jobs: Option<usize>,
    /// `AP_JOB_TIMEOUT_SECS`: per-job deadline; `Some(0)` means none.
    pub job_timeout_secs: Option<u64>,
    /// `AP_CACHE_DIR`: the engine's disk-cache directory.
    pub cache_dir: Option<PathBuf>,
    /// `AP_RESULTS_DIR`: where result files are written.
    pub results_dir: Option<PathBuf>,
}

impl Settings {
    /// Parses settings from `var`, which looks one variable up by name.
    ///
    /// A flag is on when set to anything but `""` or `"0"`. A number may
    /// carry surrounding whitespace; one that does not parse is ignored
    /// with an `env.unparsable` warning. An empty path reads as unset.
    pub(crate) fn parse(var: impl Fn(&str) -> Option<OsString>) -> Settings {
        let flag =
            |name| var(name).is_some_and(|v| v.to_str().is_some_and(|v| !v.is_empty() && v != "0"));
        let number = |name| {
            let raw = var(name)?;
            let n = raw.to_str().and_then(|v| v.trim().parse::<usize>().ok());
            if n.is_none() {
                ap_trace::warn("env.unparsable", format!("ignoring unparsable {name}={raw:?}"));
            }
            n
        };
        let path = |name| var(name).filter(|v| !v.is_empty()).map(PathBuf::from);
        Settings {
            quick: flag("AP_QUICK"),
            sanitize: flag("AP_SANITIZE"),
            no_cache: flag("AP_NO_CACHE"),
            page_threads: number("AP_PAGE_THREADS").filter(|&n| n > 0),
            jobs: number("AP_JOBS").map(|n| n.max(1)),
            job_timeout_secs: number("AP_JOB_TIMEOUT_SECS").map(|n| n as u64),
            cache_dir: path("AP_CACHE_DIR"),
            results_dir: path("AP_RESULTS_DIR"),
        }
    }
}

static PROCESS: OnceLock<Settings> = OnceLock::new();

thread_local! {
    /// This thread's innermost [`scoped`] override, if any.
    static SCOPED: RefCell<Option<Settings>> = const { RefCell::new(None) };
}

/// Reads the settings in effect on this thread: the innermost [`scoped`]
/// override, else the process's (parsed on first use). `read` must not
/// call [`scoped`].
pub fn with<T>(read: impl FnOnce(&Settings) -> T) -> T {
    SCOPED.with(|scoped| match &*scoped.borrow() {
        Some(s) => read(s),
        None => read(PROCESS.get_or_init(|| Settings::parse(|v| std::env::var_os(v)))),
    })
}

/// A copy of the settings in effect on this thread.
pub fn current() -> Settings {
    with(Settings::clone)
}

/// Runs `f` with the current settings changed by `edit`, on this thread
/// only. The previous settings come back when `f` returns or unwinds.
pub fn scoped<R>(edit: impl FnOnce(&mut Settings), f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Settings>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED.with(|s| *s.borrow_mut() = self.0.take());
        }
    }
    let mut settings = current();
    edit(&mut settings);
    let _restore = Restore(SCOPED.with(|s| s.borrow_mut().replace(settings)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(vars: &[(&str, &str)]) -> Settings {
        Settings::parse(|name| vars.iter().find(|(n, _)| *n == name).map(|(_, v)| v.into()))
    }

    #[test]
    fn nothing_set_is_the_default() {
        assert_eq!(parse(&[]), Settings::default());
    }

    #[test]
    fn flags_are_on_unless_empty_or_zero() {
        for (value, on) in [("", false), ("0", false), ("1", true), ("yes", true)] {
            let s = parse(&[("AP_QUICK", value), ("AP_SANITIZE", value), ("AP_NO_CACHE", value)]);
            assert_eq!((s.quick, s.sanitize, s.no_cache), (on, on, on), "{value:?}");
        }
    }

    #[test]
    fn numbers_trim_whitespace() {
        let s = parse(&[
            ("AP_PAGE_THREADS", " 3 "),
            ("AP_JOBS", "\t5\n"),
            ("AP_JOB_TIMEOUT_SECS", " 60"),
        ]);
        assert_eq!((s.page_threads, s.jobs, s.job_timeout_secs), (Some(3), Some(5), Some(60)));
    }

    #[test]
    fn zero_keeps_each_numbers_meaning() {
        let s = parse(&[("AP_PAGE_THREADS", "0"), ("AP_JOBS", "0"), ("AP_JOB_TIMEOUT_SECS", "0")]);
        assert_eq!(s.page_threads, None, "AP_PAGE_THREADS=0 means unset");
        assert_eq!(s.jobs, Some(1), "AP_JOBS=0 means one worker");
        assert_eq!(s.job_timeout_secs, Some(0), "AP_JOB_TIMEOUT_SECS=0 means no deadline");
    }

    #[test]
    fn garbage_numbers_are_ignored_with_a_warning() {
        let vars = [("AP_PAGE_THREADS", "four"), ("AP_JOBS", "-2"), ("AP_JOB_TIMEOUT_SECS", "")];
        assert_eq!(parse(&vars), Settings::default());
        let warned = ap_trace::warnings();
        for (name, _) in vars {
            assert!(
                warned.iter().any(|w| w.kind == "env.unparsable" && w.message.contains(name)),
                "no env.unparsable warning for {name}"
            );
        }
    }

    #[test]
    fn empty_paths_read_as_unset() {
        let s = parse(&[("AP_CACHE_DIR", ""), ("AP_RESULTS_DIR", "out")]);
        assert_eq!((s.cache_dir, s.results_dir), (None, Some(PathBuf::from("out"))));
    }

    #[test]
    fn scopes_nest_and_restore_after_a_panic() {
        let before = current();
        let caught = std::panic::catch_unwind(|| {
            scoped(
                |s| s.page_threads = Some(7),
                || {
                    scoped(
                        |s| s.sanitize = true,
                        || {
                            assert_eq!(with(|s| (s.page_threads, s.sanitize)), (Some(7), true));
                        },
                    );
                    assert_eq!(with(|s| s.sanitize), before.sanitize);
                    panic!("unwind out of the scope");
                },
            )
        });
        assert!(caught.is_err());
        assert_eq!(current(), before);
    }

    #[test]
    fn each_thread_sees_only_its_own_scope() {
        let before = current();
        let barrier = std::sync::Barrier::new(2);
        let seen: Vec<Option<usize>> = std::thread::scope(|s| {
            let threads: Vec<_> = [2, 5]
                .map(|n| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        scoped(
                            |s| s.page_threads = Some(n),
                            || {
                                // Both scopes are open at once here.
                                barrier.wait();
                                let seen = with(|s| s.page_threads);
                                barrier.wait();
                                seen
                            },
                        )
                    })
                })
                .into_iter()
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(seen, vec![Some(2), Some(5)]);
        assert_eq!(current(), before, "this thread is untouched");
    }
}

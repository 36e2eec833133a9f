//! RAII span timers with a thread-local span stack.
//!
//! A [`SpanTimer`] measures the wall-clock time between its construction
//! and drop. Two independent sinks consume it, each behind its own
//! zero-cost guard:
//!
//! * **Stats** ([`crate::enabled`]): the elapsed nanoseconds are
//!   recorded into a histogram named `span.<path>`, where `<path>` is
//!   the `/`-joined chain of enclosing span names on the current thread
//!   (`span.plan/route`, say). Paths are interned so steady-state
//!   recording does not allocate.
//! * **Trace** ([`crate::trace::enabled`]): the open and close become
//!   [`TraceEvent`](crate::trace::TraceEvent)s carrying a process-unique
//!   span id and the id of the enclosing span, feeding the Chrome /
//!   folded-stack / JSONL exports in [`crate::trace`].

use crate::metrics::Histogram;
use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    /// Spans currently open on this thread, outermost first: the name
    /// (for stats paths) and the trace span id (0 when tracing was off
    /// at open, so a child opened under a stats-only parent still reads
    /// parent id 0).
    static SPAN_STACK: RefCell<Vec<(&'static str, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Resolve the histogram for a span path (exposed for tests; spans
/// record under `span.<path>`).
pub fn span_histogram_named(path: &str) -> &'static Histogram {
    crate::histogram_named(&format!("span.{path}"))
}

/// The guard behind [`span!`](crate::span): an RAII wall-clock timer
/// whose elapsed time is recorded when it drops. Inert (records nothing,
/// tracks no stack) while both stats and tracing are disabled. Hidden
/// from the docs: open spans with the macro, which binds the guard where
/// no caller can name it.
#[doc(hidden)]
pub struct SpanTimer {
    start: Option<Instant>,
    hist: Option<&'static Histogram>,
    /// Trace span id, 0 when tracing was disabled at open.
    trace_id: u64,
    /// Did `new` push a stack frame (and so must `drop` pop it)?
    pushed: bool,
}

impl SpanTimer {
    /// Open a span named `name`. The name must be a string literal (or
    /// otherwise `'static`) so stack frames never allocate.
    pub fn new(name: &'static str) -> SpanTimer {
        let stats = crate::enabled();
        let tracing = crate::trace::enabled();
        if !stats && !tracing {
            return SpanTimer {
                start: None,
                hist: None,
                trace_id: 0,
                pushed: false,
            };
        }
        let mut trace_id = 0;
        let mut parent = 0;
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if tracing {
                trace_id = crate::trace::next_span_id();
                parent = stack.last().map_or(0, |&(_, id)| id);
            }
            stack.push((name, trace_id));
            if stats {
                let mut path = String::new();
                for (i, (frame, _)) in stack.iter().enumerate() {
                    if i > 0 {
                        path.push('/');
                    }
                    path.push_str(frame);
                }
                Some(path)
            } else {
                None
            }
        });
        if tracing {
            crate::trace::record_begin(trace_id, parent, name);
        }
        SpanTimer {
            start: stats.then(Instant::now),
            hist: path.map(|p| crate::histogram_named(&format!("span.{p}"))),
            trace_id,
            pushed: true,
        }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if !self.pushed {
            return;
        }
        if let (Some(start), Some(hist)) = (self.start, self.hist) {
            hist.record(start.elapsed().as_nanos() as u64);
        }
        if self.trace_id != 0 {
            crate::trace::record_end(self.trace_id);
        }
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Time the rest of the enclosing block as a span named `name` (a
/// string literal, or otherwise `'static`):
///
/// ```
/// cubemesh_obs::set_enabled(true);
/// {
///     cubemesh_obs::span!("doc_outer");
///     cubemesh_obs::span!("doc_inner"); // records span.doc_outer/doc_inner
/// }
/// cubemesh_obs::set_enabled(false);
/// ```
///
/// The macro is a statement: it binds the guard under a name the caller
/// cannot see, so the span closes at the end of the block, after every
/// span opened later in it (locals drop in reverse order), and the
/// per-thread span stack stays LIFO. A guard that drops early does not
/// compile: `let _ = span!(…)` does not parse, and no code can name the
/// guard to drop, forget, return or store it.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _span_guard = $crate::SpanTimer::new($name);
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn nesting_builds_paths() {
        let _g = crate::testutil::guard();
        crate::set_enabled(true);
        {
            crate::span!("span_test_outer");
            {
                crate::span!("span_test_inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let snap = crate::snapshot();
        let outer = snap
            .histogram("span.span_test_outer")
            .expect("outer span recorded");
        let inner = snap
            .histogram("span.span_test_outer/span_test_inner")
            .expect("nested span path recorded");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(outer.max >= inner.max, "outer encloses inner");
        assert!(inner.min >= 1_000_000, "slept ≥ 1ms");
        crate::reset();
        crate::set_enabled(false);
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = crate::testutil::guard();
        crate::set_enabled(false);
        {
            let t = super::SpanTimer::new("span_test_disabled");
            assert!(t.start.is_none() && !t.pushed);
        }
        assert!(crate::snapshot()
            .histogram("span.span_test_disabled")
            .is_none());
    }

    #[test]
    fn trace_only_spans_balance_the_stack() {
        // Tracing without stats must still push/pop the stack correctly,
        // and record no histograms.
        let _g = crate::testutil::guard();
        crate::set_enabled(false);
        crate::trace::reset();
        crate::trace::set_enabled(true);
        {
            crate::span!("span_test_trace_only");
            {
                crate::span!("span_test_trace_only_inner");
            }
        }
        crate::trace::set_enabled(false);
        // A later stats-enabled span sees an empty stack (no leaked frames).
        crate::set_enabled(true);
        {
            crate::span!("span_test_after_trace");
        }
        crate::set_enabled(false);
        let snap = crate::snapshot();
        assert!(snap.histogram("span.span_test_trace_only").is_none());
        assert!(
            snap.histogram("span.span_test_after_trace").is_some(),
            "path built from a clean stack"
        );
        assert_eq!(crate::trace::drain().len(), 4, "two begins, two ends");
        crate::reset();
        crate::trace::reset();
    }
}

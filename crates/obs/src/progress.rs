//! Rate-limited progress reporting with ETA.
//!
//! audit: relaxed-domain(progress ticks): approximate tick counts for a
//! human-facing rate-limited display; no cross-thread invariants.
//!
//! [`Progress`] is safe to tick concurrently from pool workers: ticks
//! are a relaxed `fetch_add`, and only the worker that wins a
//! compare-exchange on the "next print due" timestamp formats and writes
//! the line (at most ~5 lines/second to stderr).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Minimum interval between printed progress lines, in milliseconds.
const PRINT_EVERY_MS: u64 = 200;

/// A concurrent progress meter for a loop with a known (or unknown)
/// total. Prints `\r`-rewritten lines like:
///
/// ```text
/// census: 113/512 (22.1%)  41.3 items/s  eta 9.7s
/// ```
pub struct Progress {
    label: &'static str,
    total: u64,
    done: AtomicU64,
    start: Instant,
    /// ms-since-start after which the next print is allowed.
    next_print_ms: AtomicU64,
    /// Print even when stats are globally disabled.
    always: bool,
    /// Whether anything was printed (to know if a final newline is owed).
    printed: AtomicU64,
}

impl Progress {
    /// A progress meter that only prints while stats are enabled.
    /// `total == 0` means "unknown" (no percentage or ETA shown). The
    /// first line appears one interval in, so loops that finish faster
    /// than that stay silent.
    pub fn new(label: &'static str, total: u64) -> Progress {
        Progress {
            label,
            total,
            done: AtomicU64::new(0),
            start: Instant::now(),
            next_print_ms: AtomicU64::new(PRINT_EVERY_MS),
            always: false,
            printed: AtomicU64::new(0),
        }
    }

    /// A progress meter that prints regardless of the stats switch —
    /// for long-running binaries (catalog discovery) whose progress
    /// output is the user interface, not an opt-in diagnostic.
    pub fn always(label: &'static str, total: u64) -> Progress {
        Progress {
            always: true,
            ..Progress::new(label, total)
        }
    }

    /// Record `n` completed items; prints if a print is due.
    pub fn tick(&self, n: u64) {
        if !self.always && !crate::enabled() {
            return;
        }
        let done = self.done.fetch_add(n, Ordering::Relaxed) + n;
        let elapsed_ms = self.start.elapsed().as_millis() as u64;
        let due = self.next_print_ms.load(Ordering::Relaxed);
        if elapsed_ms < due {
            return;
        }
        // One winner prints; losers skip.
        if self
            .next_print_ms
            .compare_exchange(
                due,
                elapsed_ms + PRINT_EVERY_MS,
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_err()
        {
            return;
        }
        self.printed.store(1, Ordering::Relaxed);
        eprint!("\r{}", self.render(done, elapsed_ms));
    }

    /// Current count of completed items.
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// Render the line that would be printed at `done` items after
    /// `elapsed_ms` (exposed for tests).
    pub fn render(&self, done: u64, elapsed_ms: u64) -> String {
        let rate = if elapsed_ms > 0 {
            done as f64 * 1000.0 / elapsed_ms as f64
        } else {
            0.0
        };
        if self.total > 0 {
            let pct = 100.0 * done as f64 / self.total as f64;
            let remaining = self.total.saturating_sub(done);
            let eta = if rate > 0.0 {
                format!("  eta {:.1}s", remaining as f64 / rate)
            } else {
                String::new()
            };
            format!(
                "{}: {done}/{} ({pct:.1}%)  {rate:.1} items/s{eta}",
                self.label, self.total
            )
        } else {
            format!("{}: {done}  {rate:.1} items/s", self.label)
        }
    }

    /// Finish: print the final tally (on its own line) if anything was
    /// ever printed, so partial `\r` lines don't swallow later output.
    pub fn finish(&self) {
        if !self.always && !crate::enabled() {
            return;
        }
        let done = self.done.load(Ordering::Relaxed);
        let elapsed_ms = self.start.elapsed().as_millis() as u64;
        if self.printed.load(Ordering::Relaxed) != 0 || self.always {
            eprintln!("\r{}", self.render(done, elapsed_ms));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_with_total() {
        let p = Progress::new("census", 200);
        let line = p.render(50, 2000);
        assert!(line.contains("census: 50/200 (25.0%)"), "{line}");
        assert!(line.contains("25.0 items/s"), "{line}");
        assert!(line.contains("eta 6.0s"), "{line}");
    }

    #[test]
    fn render_unknown_total() {
        let p = Progress::new("probe", 0);
        let line = p.render(7, 1000);
        assert!(line.contains("probe: 7"), "{line}");
        assert!(!line.contains("eta"), "{line}");
    }

    #[test]
    fn ticks_accumulate_across_threads() {
        let _g = crate::testutil::guard();
        crate::set_enabled(true);
        let p = Progress::new("t", 0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        p.tick(1);
                    }
                });
            }
        });
        assert_eq!(p.done(), 400);
        crate::set_enabled(false);
    }

    #[test]
    fn disabled_progress_is_silent_and_uncounted() {
        let _g = crate::testutil::guard();
        crate::set_enabled(false);
        let p = Progress::new("t", 10);
        p.tick(3);
        assert_eq!(p.done(), 0);
        let a = Progress::always("t", 10);
        a.tick(3);
        assert_eq!(a.done(), 3);
    }
}

//! One command line for every cubemesh binary.
//!
//! A binary declares a [`Cli`] and hands its work to [`Cli::run`]:
//! `--help` anywhere prints the usage on stdout and exits 0; `--stats`
//! and `--trace FILE`, where declared, may stand anywhere and are taken
//! off the line; a refused line (the work returned `Err(reason)` before
//! starting) prints `<bin>: <reason>` and the usage on stderr and exits
//! 2, so 2 only ever means a bad command line; [`Cli::outcome`] turns
//! a failed run into its reason and exit 1. Every exit but a refusal
//! records `process.peak_rss_kib`, prints the snapshot and writes the
//! trace. A run whose stdout reader has gone (`| head`) stops at its
//! next write and exits 0 ([`Halt::ReaderGone`]). Inside, [`Args::parse`]
//! splits a (sub)command's words against the flags it declares.

use std::ffi::OsString;
use std::fmt::Display;
use std::io;
use std::ops::RangeInclusive;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

/// What a binary reports about its own run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Report {
    /// Nothing; `CUBEMESH_STATS` is not read.
    Off,
    /// A snapshot at exit under `--stats` or `CUBEMESH_STATS`.
    Stats,
    /// [`Report::Stats`], plus `--trace FILE`: Chrome `trace_event` JSON
    /// at FILE, folded stacks at FILE.folded, JSONL at FILE.jsonl.
    StatsAndTrace,
    /// A text snapshot at exit unless `CUBEMESH_STATS` is set; no flag.
    Always,
}

/// A binary's command line.
#[derive(Clone, Copy, Debug)]
pub struct Cli {
    /// The name that prefixes its refusals.
    pub bin: &'static str,
    /// The usage text, starting `usage: <bin>`.
    pub usage: &'static str,
    /// What the run reports at exit.
    pub report: Report,
}

/// A command line with `--stats` and `--trace FILE` taken off.
#[derive(Debug, Default, PartialEq, Eq)]
struct Line {
    words: Vec<String>,
    stats: bool,
    trace: Option<String>,
}

impl Cli {
    /// Run `main` on the process's command line. `main` returns the exit
    /// code of a run, or the reason the line is refused.
    pub fn run(&self, main: impl FnOnce(&[String]) -> Result<ExitCode, String>) -> ExitCode {
        let line = match self.line(std::env::args_os().skip(1)) {
            Ok(Some(line)) => line,
            Ok(None) => {
                println!("{}", self.usage);
                return ExitCode::SUCCESS;
            }
            Err(reason) => return self.refuse(&reason),
        };
        self.start(line.stats, line.trace.is_some());
        match main(&line.words) {
            Ok(code) => {
                self.finish(line.trace.as_deref());
                code
            }
            Err(reason) => self.refuse(&reason),
        }
    }

    /// The line to run, or `None` when `--help` was given.
    fn line(&self, words: impl Iterator<Item = OsString>) -> Result<Option<Line>, String> {
        let utf8 = |w: OsString| {
            w.into_string()
                .map_err(|w| format!("'{}' is not valid UTF-8", w.to_string_lossy()))
        };
        let all = words.map(utf8).collect::<Result<Vec<String>, String>>()?;
        if all.iter().any(|w| w == "--help") {
            return Ok(None);
        }
        let takes_stats = matches!(self.report, Report::Stats | Report::StatsAndTrace);
        let mut line = Line::default();
        let mut it = all.into_iter();
        while let Some(w) = it.next() {
            if takes_stats && w == "--stats" {
                line.stats = true;
            } else if self.report == Report::StatsAndTrace && w == "--trace" {
                line.trace = Some(flag_value("--trace", it.next())?);
            } else {
                line.words.push(w);
            }
        }
        Ok(Some(line))
    }

    fn start(&self, stats: bool, trace: bool) {
        if self.report == Report::Off {
            return;
        }
        let env_set = std::env::var_os("CUBEMESH_STATS").is_some();
        crate::init_from_env();
        let on = stats || (self.report == Report::Always && !env_set);
        if on && crate::mode() == crate::StatsMode::Off {
            crate::set_mode(crate::StatsMode::Text);
        }
        crate::trace::set_enabled(trace);
    }

    fn finish(&self, trace: Option<&str>) {
        if self.report == Report::Off {
            return;
        }
        if let Some(kib) = crate::peak_rss_kib().filter(|_| crate::enabled()) {
            crate::counter_named("process.peak_rss_kib").add(kib);
        }
        crate::report();
        let Some(path) = trace else { return };
        crate::trace::set_enabled(false);
        let log = crate::trace::drain();
        match log.write_files(Path::new(path)) {
            Ok(paths) => {
                let names: Vec<String> = paths.iter().map(|p| p.display().to_string()).collect();
                eprintln!("trace: {} events -> {}", log.len(), names.join(", "));
            }
            Err(e) => eprintln!("trace write failed: {e}"),
        }
    }

    /// The exit code of a run whose steps may fail: its own, 0 when its
    /// stdout reader has gone, or 1 after `<bin>: <reason>` on stderr.
    pub fn outcome(&self, run: Result<ExitCode, impl Into<Halt>>) -> ExitCode {
        match run.map_err(Into::into) {
            Ok(code) => code,
            Err(Halt::ReaderGone) => ExitCode::SUCCESS,
            Err(Halt::Failed(reason)) => {
                eprintln!("{}: {reason}", self.bin);
                ExitCode::FAILURE
            }
        }
    }

    fn refuse(&self, reason: &str) -> ExitCode {
        eprintln!("{}: {reason}\n{}", self.bin, self.usage);
        ExitCode::from(2)
    }
}

/// Why a run stopped before its end.
#[derive(Debug)]
pub enum Halt {
    /// A step failed: exit 1 after the reason.
    Failed(String),
    /// The reader of stdout closed it (`| head`): exit 0, quietly.
    ReaderGone,
}

impl From<String> for Halt {
    fn from(reason: String) -> Halt {
        Halt::Failed(reason)
    }
}

impl From<io::Error> for Halt {
    /// A failed write of the report: [`Halt::ReaderGone`] for a broken
    /// pipe, the one test of it in the workspace.
    fn from(e: io::Error) -> Halt {
        if e.kind() == io::ErrorKind::BrokenPipe {
            Halt::ReaderGone
        } else {
            Halt::Failed(format!("writing the report failed: {e}"))
        }
    }
}

/// The word after a valued flag: present and not itself a flag.
fn flag_value(flag: &str, next: Option<String>) -> Result<String, String> {
    next.filter(|v| !v.starts_with("--"))
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// One (sub)command's words, split against the flags it declares.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Args {
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
    positional: Vec<String>,
}

impl Args {
    /// Split `words` into the declared `switches`, the `valued` flags
    /// with the word after each, and the positional words in order.
    /// Any other word starting with `-` is an unknown flag.
    pub fn parse(
        words: &[String],
        switches: &[&'static str],
        valued: &[&'static str],
    ) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = words.iter();
        while let Some(w) = it.next() {
            if let Some(&s) = switches.iter().find(|&&s| s == w) {
                out.switches.push(s);
            } else if let Some(&f) = valued.iter().find(|&&f| f == w) {
                out.values.push((f, flag_value(f, it.next().cloned())?));
            } else if w.starts_with('-') {
                return Err(format!("unknown flag '{w}'"));
            } else {
                out.positional.push(w.clone());
            }
        }
        Ok(out)
    }

    /// Whether `switch` was given.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// The value of `flag`, if given (the first, if given twice).
    pub fn value(&self, flag: &str) -> Option<&str> {
        let found = self.values.iter().find(|(f, _)| *f == flag);
        found.map(|(_, v)| v.as_str())
    }

    /// The numeric value of `flag`, if given.
    pub fn number<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag).map(|v| number(flag, v)).transpose()
    }

    /// The numeric value of `flag`, or `default` when it is absent.
    pub fn number_or<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        Ok(self.number(flag)?.unwrap_or(default))
    }

    /// The positional words, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Every positional word as a number.
    pub fn numbers<T: FromStr>(&self) -> Result<Vec<T>, String> {
        let parse = |w: &String| w.parse().map_err(|_| format!("'{w}' is not a number"));
        self.positional.iter().map(parse).collect()
    }

    /// Refuse positional words, for commands that take none.
    pub fn no_positional(&self) -> Result<(), String> {
        match self.positional.first() {
            Some(w) => Err(format!("unexpected argument '{w}'")),
            None => Ok(()),
        }
    }
}

/// `word`, the value of `what`, as a number.
pub fn number<T: FromStr>(what: &str, word: &str) -> Result<T, String> {
    word.parse()
        .map_err(|_| format!("{what}: '{word}' is not a number"))
}

/// `value` if it lies in `range`, else the refusal naming `what`.
pub fn within<T: PartialOrd + Display>(
    what: &str,
    value: T,
    range: RangeInclusive<T>,
) -> Result<T, String> {
    if range.contains(&value) {
        return Ok(value);
    }
    let (lo, hi) = range.into_inner();
    Err(format!("{what}: {value} is not in {lo}..={hi}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn cli(report: Report) -> Cli {
        Cli {
            bin: "demo",
            usage: "usage: demo",
            report,
        }
    }

    fn line(report: Report, text: &str) -> Result<Option<Line>, String> {
        cli(report).line(words(text).into_iter().map(OsString::from))
    }

    fn run(words: Vec<String>, stats: bool, trace: Option<&str>) -> Option<Line> {
        let trace = trace.map(String::from);
        Some(Line {
            words,
            stats,
            trace,
        })
    }

    #[test]
    fn help_anywhere_wins() {
        for text in [
            "--help",
            "embed 0 3 --help",
            "--bogus --help",
            "--trace --help",
        ] {
            assert_eq!(line(Report::StatsAndTrace, text), Ok(None), "{text}");
            assert_eq!(line(Report::Off, text), Ok(None), "{text}");
        }
    }

    #[test]
    fn declared_session_flags_come_off_anywhere() {
        assert_eq!(
            line(Report::StatsAndTrace, "--stats embed 5 --trace t.json 6"),
            Ok(run(words("embed 5 6"), true, Some("t.json")))
        );
        assert_eq!(
            line(Report::StatsAndTrace, "embed 5"),
            Ok(run(words("embed 5"), false, None))
        );
        // Undeclared, they stay on the line for the binary to refuse.
        assert_eq!(
            line(Report::Stats, "fig1 --stats --trace t"),
            Ok(run(words("fig1 --trace t"), true, None))
        );
        assert_eq!(
            line(Report::Always, "3 5 --stats"),
            Ok(run(words("3 5 --stats"), false, None))
        );
    }

    #[test]
    fn trace_needs_a_value() {
        for text in ["certify 5 5 --trace", "embed --trace --stats 5"] {
            assert_eq!(
                line(Report::StatsAndTrace, text),
                Err("--trace needs a value".to_owned()),
                "{text}"
            );
        }
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_words_are_refused() {
        use std::os::unix::ffi::OsStringExt;
        let bad = OsString::from_vec(vec![b'5', 0xff]);
        let got = cli(Report::Off).line([OsString::from("embed"), bad].into_iter());
        assert!(got.is_err_and(|e| e.contains("not valid UTF-8")));
    }

    #[test]
    fn args_split_switches_values_and_positionals() {
        let w = words("3 --json --out f.emb 4 --json 5");
        let args = Args::parse(&w, &["--json", "--quick"], &["--out", "--seed"]).unwrap();
        assert!(args.has("--json") && !args.has("--quick"));
        assert_eq!(args.value("--out"), Some("f.emb"));
        assert_eq!(args.value("--seed"), None);
        assert_eq!(args.positional(), &words("3 4 5")[..]);
        assert_eq!(args.numbers::<usize>(), Ok(vec![3, 4, 5]));
        assert!(args.no_positional().is_err());
        assert_eq!(args.number_or("--seed", 7u64), Ok(7));
    }

    #[test]
    fn args_refusals_name_the_word() {
        for (text, want) in [
            ("3 --jsn", "unknown flag '--jsn'"),
            ("3 -x", "unknown flag '-x'"),
            ("3 --out", "--out needs a value"),
            ("--out --json", "--out needs a value"),
        ] {
            let got = Args::parse(&words(text), &["--json"], &["--out"]);
            assert_eq!(got, Err(want.to_owned()), "{text}");
        }
        let args = Args::parse(&words("x --out y"), &[], &["--out"]).unwrap();
        assert_eq!(
            args.number::<u32>("--out"),
            Err("--out: 'y' is not a number".to_owned())
        );
        assert_eq!(
            args.numbers::<usize>(),
            Err("'x' is not a number".to_owned())
        );
        assert_eq!(
            Args::parse(&words("stray"), &[], &[]).and_then(|a| a.no_positional()),
            Err("unexpected argument 'stray'".to_owned())
        );
    }

    #[test]
    fn a_closed_stdout_is_a_quiet_success() {
        let demo = cli(Report::Off);
        let gone = || io::Error::from(io::ErrorKind::BrokenPipe);
        assert!(matches!(Halt::from(gone()), Halt::ReaderGone));
        assert_eq!(demo.outcome(Err(gone())), ExitCode::SUCCESS);
        let full = Halt::from(io::Error::other("disk full"));
        assert!(matches!(full, Halt::Failed(r) if r.contains("disk full")));
        assert_eq!(demo.outcome(Err("bad".to_owned())), ExitCode::FAILURE);
    }

    #[test]
    fn within_names_the_range() {
        assert_eq!(within("--dim", 26u32, 0..=26), Ok(26));
        assert_eq!(
            within("--dim", 27u32, 0..=26),
            Err("--dim: 27 is not in 0..=26".to_owned())
        );
    }
}

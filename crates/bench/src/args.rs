//! The run-artifact flags every fig bin takes.

use std::path::PathBuf;

/// Where a fig bin writes its run artifacts: `--report <path>` (the
/// run manifest, which also enables engine profiling), `--events <path>`
/// (the harness event log, JSONL) and, for a bin that traces,
/// `--trace <path>` (a Chrome trace).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunArgs {
    /// `--report <path>`.
    pub report: Option<PathBuf>,
    /// `--events <path>`.
    pub events: Option<PathBuf>,
    /// `--trace <path>`.
    pub trace: Option<PathBuf>,
}

impl RunArgs {
    /// Parse the arguments after the program name of the bin `bin`;
    /// `traces` says whether it takes `--trace`. The error names the
    /// bad argument and carries the usage line.
    pub fn parse(
        bin: &str,
        traces: bool,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let mut out = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let slot = match arg.as_str() {
                "--report" => &mut out.report,
                "--events" => &mut out.events,
                "--trace" if traces => &mut out.trace,
                other => {
                    let trace = if traces { " [--trace <path>]" } else { "" };
                    return Err(format!(
                        "{bin}: unknown argument {other:?}\n\
                         usage: {bin} [--report <path>] [--events <path>]{trace}"
                    ));
                }
            };
            *slot = Some(PathBuf::from(
                args.next()
                    .ok_or_else(|| format!("{bin}: {arg} needs a path"))?,
            ));
        }
        Ok(out)
    }

    /// [`RunArgs::parse`] over the process arguments; on an error,
    /// print it and exit with status 2.
    pub fn from_env(bin: &str, traces: bool) -> Self {
        Self::parse(bin, traces, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// Whether any artifact was asked for.
    pub fn observing(&self) -> bool {
        self.report.is_some() || self.events.is_some() || self.trace.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(traces: bool, args: &[&str]) -> Result<RunArgs, String> {
        RunArgs::parse("fig", traces, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn flags_take_one_path_each() {
        let a = parse(true, &["--events", "e.jsonl", "--report", "m.json"]).unwrap();
        assert_eq!(a.report, Some(PathBuf::from("m.json")));
        assert_eq!(a.events, Some(PathBuf::from("e.jsonl")));
        assert_eq!(a.trace, None);
        assert!(a.observing());
        assert!(!parse(false, &[]).unwrap().observing());
        assert!(parse(true, &["--trace", "t.json"]).unwrap().observing());
    }

    #[test]
    fn bad_arguments_are_errors_with_usage() {
        let e = parse(false, &["--trace", "t.json"]).unwrap_err();
        assert!(e.contains("unknown argument \"--trace\""), "{e}");
        assert!(
            e.ends_with("\nusage: fig [--report <path>] [--events <path>]"),
            "{e}"
        );
        assert_eq!(
            parse(true, &["--report"]).unwrap_err(),
            "fig: --report needs a path"
        );
        assert!(parse(true, &["-x"])
            .unwrap_err()
            .ends_with("[--trace <path>]"));
    }
}

//! Tiny argument-parsing helpers shared by the `explain`, `figures` and
//! `report` binaries (the build is offline: no clap), and the whole
//! command lines of `figures` and `report`, parsed up front so a bad
//! flag or figure id fails before any work starts.

use crate::coherence::Protocol;
use std::str::FromStr;

/// The paper's figure ids, in paper order (`figures all`).
pub const PAPER_FIGURES: [&str; 19] = [
    "fig01a", "fig01b", "fig03a", "fig03b", "fig04a", "fig04b", "fig06a", "fig06b", "fig07a",
    "fig07b", "fig08a", "fig08b", "fig09a", "fig09b", "fig10a", "fig10b", "fig11a", "fig11b",
    "fig12",
];

/// The ablation table ids (`figures ablations`).
pub const ABLATIONS: [&str; 6] = [
    "abl-bb-size",
    "abl-bb-ways",
    "abl-bb-policy",
    "abl-phys16",
    "abl-assoc",
    "abl-bus",
];

/// The extension table ids (`figures extensions`).
pub const EXTENSIONS: [&str; 7] = [
    "ext-var-vlines",
    "ext-pf-distance",
    "ext-related",
    "ext-related-traffic",
    "ext-miss-classes",
    "ext-context-switch",
    "ext-copy-vline",
];

/// `figures --help`.
pub const FIGURES_USAGE: &str = "\
figures — print the paper's figures as text tables

USAGE:
  figures [options] [id]...        ids: all (default), ablations, extensions,
                                   summary, or individual figure ids
OPTIONS:
  --small                          scaled-down problem sizes
  --jobs <n>, --jobs=<n>           worker count (default: every core)
  --sequential                     same as --jobs 1
  --cell-jobs <n>                  shard each cell's engines over n threads
  --store <dir>                    content-addressed result store
  --diff                           lockstep-diff every organization against
                                   the standard cache instead of figures
  --coherence                      multi-CPU private-vs-shared table instead
                                   of figures
  --protocol mesi|dragon           protocol of --coherence (default: mesi)
  --bench-json <path>              replay micro-benchmark report
  --obs-json <path>                probe telemetry as JSON Lines
  --timeline-json <path>           windowed timelines as JSON Lines
  --trace-json <path>              pipeline spans as a Chrome trace
  --trace-logical                  deterministic logical span timestamps
  --trace-chunks                   per-chunk spans in --trace-json
  -h, --help                       print this help
";

/// Whether `id` names a table `figures` can print, or a group of them.
pub fn is_figure_id(id: &str) -> bool {
    matches!(id, "all" | "ablations" | "extensions" | "summary")
        || PAPER_FIGURES.contains(&id)
        || ABLATIONS.contains(&id)
        || EXTENSIONS.contains(&id)
}

/// The `figures` command line, parsed and validated.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FiguresArgs {
    /// `--small`.
    pub small: bool,
    /// `--jobs N` / `--sequential` (last one wins).
    pub jobs: Option<usize>,
    /// `--cell-jobs N`.
    pub cell_jobs: Option<usize>,
    /// `--store DIR`.
    pub store: Option<String>,
    /// `--diff`.
    pub diff: bool,
    /// `--coherence`.
    pub coherence: bool,
    /// `--protocol` (MESI unless given).
    pub protocol: Protocol,
    /// `--bench-json PATH`.
    pub bench_json: Option<String>,
    /// `--obs-json PATH`.
    pub obs_json: Option<String>,
    /// `--timeline-json PATH`.
    pub timeline_json: Option<String>,
    /// `--trace-json PATH`.
    pub trace_json: Option<String>,
    /// `--trace-logical`.
    pub trace_logical: bool,
    /// `--trace-chunks`.
    pub trace_chunks: bool,
    /// Figure ids and groups, in command-line order (all known).
    pub ids: Vec<String>,
}

/// What a `figures` command line asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FiguresCommand {
    /// `--help` / `-h`: print [`FIGURES_USAGE`] and exit 0.
    Help,
    /// A run.
    Run(FiguresArgs),
}

/// Parses the `figures` command line (without the program name).
///
/// # Errors
///
/// Returns the message the binary dies with (exit 2) for an unknown
/// flag, a flag missing its value, a bad count or protocol, or an
/// unknown figure id. Arguments are read in order; `--help` returns as
/// soon as it is reached.
pub fn parse_figures_args(
    args: impl IntoIterator<Item = String>,
) -> Result<FiguresCommand, String> {
    let mut out = FiguresArgs::default();
    let mut iter = args.into_iter();
    while let Some(a) = iter.next() {
        let mut value = |flag: &str| iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "-h" | "--help" => return Ok(FiguresCommand::Help),
            "--small" => out.small = true,
            "--sequential" => out.jobs = Some(1),
            "--diff" => out.diff = true,
            "--coherence" => out.coherence = true,
            "--trace-logical" => out.trace_logical = true,
            "--trace-chunks" => out.trace_chunks = true,
            "--store" => out.store = Some(value("--store")?),
            "--bench-json" => out.bench_json = Some(value("--bench-json")?),
            "--obs-json" => out.obs_json = Some(value("--obs-json")?),
            "--timeline-json" => out.timeline_json = Some(value("--timeline-json")?),
            "--trace-json" => out.trace_json = Some(value("--trace-json")?),
            "--protocol" => {
                let name = value("--protocol")?;
                out.protocol = Protocol::by_name(&name).ok_or_else(|| {
                    format!(
                        "--protocol {name:?} not supported ({})",
                        Protocol::CLI_NAMES
                    )
                })?;
            }
            "--jobs" => out.jobs = Some(positive("--jobs", iter.next())?),
            "--cell-jobs" => out.cell_jobs = Some(positive("--cell-jobs", iter.next())?),
            _ => {
                if let Some(n) = a.strip_prefix("--jobs=") {
                    out.jobs = Some(positive("--jobs", Some(n.to_string()))?);
                } else if a.starts_with('-') {
                    return Err(format!("unknown flag: {a} (try 'figures --help')"));
                } else if is_figure_id(&a) {
                    out.ids.push(a);
                } else {
                    return Err(format!(
                        "unknown figure id: {a} (valid: all, ablations, extensions, summary, \
                         {PAPER_FIGURES:?}, {ABLATIONS:?}, {EXTENSIONS:?})"
                    ));
                }
            }
        }
    }
    Ok(FiguresCommand::Run(out))
}

/// `report --help`.
pub const REPORT_USAGE: &str = "\
report — print every table of the paper's results as markdown

USAGE:
  report [options]
OPTIONS:
  --small                          scaled-down problem sizes
  --jobs <n>, --jobs=<n>           worker count (default: every core)
  --sequential                     same as --jobs 1
  --csv <dir>                      also write one CSV per table into dir
  -h, --help                       print this help
";

/// The `report` command line, parsed and validated.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReportArgs {
    /// `--small`.
    pub small: bool,
    /// `--jobs N` / `--sequential` (last one wins).
    pub jobs: Option<usize>,
    /// `--csv DIR`.
    pub csv: Option<String>,
}

/// What a `report` command line asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportCommand {
    /// `--help` / `-h`: print [`REPORT_USAGE`] and exit 0.
    Help,
    /// A run.
    Run(ReportArgs),
}

/// Parses the `report` command line (without the program name).
///
/// # Errors
///
/// Returns the message the binary dies with (exit 2) for an unknown
/// flag, a stray argument, a flag missing its value or a bad count.
/// Arguments are read in order; `--help` returns as soon as it is
/// reached.
pub fn parse_report_args(args: impl IntoIterator<Item = String>) -> Result<ReportCommand, String> {
    let mut out = ReportArgs::default();
    let mut iter = args.into_iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "-h" | "--help" => return Ok(ReportCommand::Help),
            "--small" => out.small = true,
            "--sequential" => out.jobs = Some(1),
            "--jobs" => out.jobs = Some(positive("--jobs", iter.next())?),
            "--csv" => out.csv = Some(iter.next().ok_or("--csv needs a value")?),
            _ => {
                if let Some(n) = a.strip_prefix("--jobs=") {
                    out.jobs = Some(positive("--jobs", Some(n.to_string()))?);
                } else if a.starts_with('-') {
                    return Err(format!("unknown flag: {a} (try 'report --help')"));
                } else {
                    return Err(format!(
                        "unexpected argument: {a} (report takes no figure ids; try \
                         'report --help')"
                    ));
                }
            }
        }
    }
    Ok(ReportCommand::Run(out))
}

/// Parses the value of an integer flag, requiring it to be present,
/// numeric and strictly positive — the contract every count-like flag
/// (`--jobs`, `--window`, `--len`, ...) documents in its error message.
///
/// # Errors
///
/// Returns the exact message the binary should die with: a missing
/// value, a non-numeric value and an explicit `0` are all rejected.
pub fn positive<T>(flag: &str, value: Option<String>) -> Result<T, String>
where
    T: FromStr + PartialEq + From<u8>,
{
    let raw = value.ok_or_else(|| format!("{flag} needs a positive integer"))?;
    let n: T = raw
        .parse()
        .map_err(|_| format!("{flag} needs a positive integer, got {raw:?}"))?;
    if n == T::from(0u8) {
        return Err(format!("{flag} needs a positive integer, got {raw:?}"));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_positive_integers() {
        assert_eq!(positive::<usize>("--jobs", Some("4".into())), Ok(4));
        assert_eq!(positive::<u64>("--window", Some("8192".into())), Ok(8192));
    }

    #[test]
    fn rejects_missing_zero_and_garbage() {
        assert_eq!(
            positive::<usize>("--jobs", None),
            Err("--jobs needs a positive integer".into())
        );
        assert_eq!(
            positive::<usize>("--jobs", Some("0".into())),
            Err("--jobs needs a positive integer, got \"0\"".into())
        );
        assert_eq!(
            positive::<u64>("--window", Some("eight".into())),
            Err("--window needs a positive integer, got \"eight\"".into())
        );
        assert!(positive::<usize>("--len", Some("-3".into())).is_err());
    }

    #[test]
    fn report_command_line_parses_up_front() {
        let parse = |args: &[&str]| parse_report_args(args.iter().map(|a| a.to_string()));
        assert_eq!(
            parse(&["--small", "-h", "--bogus"]),
            Ok(ReportCommand::Help)
        );
        assert_eq!(
            parse(&["--small", "--jobs=3", "--sequential", "--csv", "out"]),
            Ok(ReportCommand::Run(ReportArgs {
                small: true,
                jobs: Some(1),
                csv: Some("out".into()),
            }))
        );
        assert!(parse(&["--bogus"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["all"]).unwrap_err().contains("unexpected argument"));
    }
}

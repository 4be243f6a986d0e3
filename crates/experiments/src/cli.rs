//! Tiny argument-parsing helpers shared by the `explain`, `figures` and
//! `report` binaries (the build is offline: no clap), and the whole
//! command lines of all three, parsed up front so a bad flag, figure id
//! or configuration name fails before any work starts or any output
//! file is created.

use crate::coherence::Protocol;
use crate::Config;
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
/// flag, a flag missing its value, a bad count or protocol, an unknown
/// figure id, `--coherence` together with `--diff`, or an output flag
/// (`--obs-json`, `--timeline-json`, `--trace-json`, `--store`) with
/// either standalone pass. Arguments are read in order; `--help`
/// returns as soon as it is reached.
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
    // The standalone passes return before any telemetry writer or store
    // would be used: reject what they would leave as an empty file.
    if out.coherence && out.diff {
        return Err("--coherence and --diff are separate passes: run one at a time".into());
    }
    let outputs = [
        (out.obs_json.is_some(), "--obs-json"),
        (out.timeline_json.is_some(), "--timeline-json"),
        (out.trace_json.is_some(), "--trace-json"),
        (out.store.is_some(), "--store"),
    ];
    for (on, pass) in [(out.coherence, "--coherence"), (out.diff, "--diff")] {
        if on {
            reject_given(&outputs, pass)?;
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

/// `explain --help`.
pub const EXPLAIN_USAGE: &str = "\
explain — dissect one cache configuration with probe telemetry

USAGE:
  explain [options]
OPTIONS:
  --config <name>                  configuration to explain (default: soft)
  --trace mixed|hit|miss           trace shape (default: mixed)
  --len <n>                        trace length (default: 500000)
  --small                          same as --len 50000
  --obs-json <path>                probe telemetry as JSON Lines
  --ring <n>                       sampled-event ring capacity (default: 4096)
  --sample <n>                     keep every n-th event in the ring
  --top <n>                        rows per ranked list (default: 5)
  --timeline                       also print the windowed timeline
  --window <n>                     timeline window in references
  --diff <name>                    lockstep-diff against a second configuration
  --diff-json <path>               the --diff report as JSON Lines
  --cpus <n>                       run the coherent n-CPU system instead
  --protocol mesi|dragon           protocol of --cpus (default: mesi)
  --store <dir>                    seed or cross-check a result store
  -h, --help                       print this help
";

/// The `explain` command line, parsed and validated.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainArgs {
    /// `--config` name (`soft` unless given).
    pub config_name: String,
    /// The configuration `config_name` names.
    pub config: Config,
    /// `--trace`: `mixed`, `hit` or `miss`.
    pub trace: String,
    /// `--len N` / `--small` (last one wins).
    pub len: usize,
    /// `--obs-json PATH`.
    pub obs_json: Option<String>,
    /// `--ring N`.
    pub ring: usize,
    /// `--sample N`.
    pub sample: u64,
    /// `--top N`.
    pub top: usize,
    /// `--timeline`.
    pub timeline: bool,
    /// `--window N`.
    pub window: u64,
    /// `--diff NAME`, with the configuration it names.
    pub diff: Option<(String, Config)>,
    /// `--diff-json PATH` (only with `--diff`).
    pub diff_json: Option<String>,
    /// `--cpus N`, between 1 and `sac_trace::MAX_CPUS`.
    pub cpus: usize,
    /// `--protocol` (MESI unless given).
    pub protocol: Protocol,
    /// `--store DIR`.
    pub store: Option<String>,
}

impl Default for ExplainArgs {
    fn default() -> Self {
        Self {
            config_name: "soft".to_string(),
            config: Config::soft(),
            trace: "mixed".to_string(),
            len: 500_000,
            obs_json: None,
            ring: 4096,
            sample: 1,
            top: 5,
            timeline: false,
            window: sac_obs::DEFAULT_WINDOW_REFS,
            diff: None,
            diff_json: None,
            cpus: 1,
            protocol: Protocol::Mesi,
            store: None,
        }
    }
}

/// What an `explain` command line asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum ExplainCommand {
    /// `--help` / `-h`: print [`EXPLAIN_USAGE`] and exit 0.
    Help,
    /// A run (boxed: the two configurations make the args large).
    Run(Box<ExplainArgs>),
}

/// Parses the `explain` command line (without the program name).
///
/// # Errors
///
/// Returns the message the binary dies with (exit 2) for an unknown
/// flag, a flag missing its value, a bad count, an unknown
/// configuration, trace or protocol name, a `--cpus` count above
/// `sac_trace::MAX_CPUS`, or `--diff-json` without `--diff`. With
/// `--cpus` above 1 only the coherence report is printed, so
/// `--obs-json`, `--timeline`, `--diff`, `--diff-json`, `--store` and an
/// explicit `--config` other than `standard` are rejected too. Arguments
/// are read in order; `--help` returns as soon as it is reached. The
/// binary creates no output file before this returns `Ok`.
pub fn parse_explain_args(
    args: impl IntoIterator<Item = String>,
) -> Result<ExplainCommand, String> {
    let mut out = ExplainArgs::default();
    let mut diff_name = None;
    let mut config_given = false;
    let mut iter = args.into_iter();
    while let Some(a) = iter.next() {
        let mut value = |flag: &str| iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "-h" | "--help" => return Ok(ExplainCommand::Help),
            "--config" => {
                out.config_name = value("--config")?;
                config_given = true;
            }
            "--trace" => out.trace = value("--trace")?,
            "--small" => out.len = 50_000,
            "--timeline" => out.timeline = true,
            "--obs-json" => out.obs_json = Some(value("--obs-json")?),
            "--diff" => diff_name = Some(value("--diff")?),
            "--diff-json" => out.diff_json = Some(value("--diff-json")?),
            "--store" => out.store = Some(value("--store")?),
            "--protocol" => {
                let name = value("--protocol")?;
                out.protocol = Protocol::by_name(&name).ok_or_else(|| {
                    format!(
                        "--protocol {name:?} not supported ({})",
                        Protocol::CLI_NAMES
                    )
                })?;
            }
            "--len" => out.len = positive("--len", iter.next())?,
            "--ring" => out.ring = positive("--ring", iter.next())?,
            "--sample" => out.sample = positive("--sample", iter.next())?,
            "--top" => out.top = positive("--top", iter.next())?,
            "--window" => out.window = positive("--window", iter.next())?,
            "--cpus" => out.cpus = positive("--cpus", iter.next())?,
            other => return Err(format!("unknown argument: {other} (try 'explain --help')")),
        }
    }
    let config_by_name = |flag: &str, name: &str| {
        Config::by_name(name)
            .ok_or_else(|| format!("{flag} {name:?} not supported ({})", Config::CLI_NAMES))
    };
    out.config = config_by_name("--config", &out.config_name)?;
    if let Some(name) = diff_name {
        let config = config_by_name("--diff", &name)?;
        out.diff = Some((name, config));
    }
    if out.diff_json.is_some() && out.diff.is_none() {
        return Err("--diff-json needs --diff <config> to name the second side".into());
    }
    if !matches!(out.trace.as_str(), "mixed" | "hit" | "miss") {
        return Err(format!(
            "--trace {:?} not supported (mixed | hit | miss)",
            out.trace
        ));
    }
    if out.cpus > sac_trace::MAX_CPUS {
        return Err(format!("--cpus: at most {} CPUs", sac_trace::MAX_CPUS));
    }
    if out.cpus > 1 {
        // Every CPU runs the standard cache, and nothing but the
        // coherence report is written.
        let cpus = format!("--cpus {}", out.cpus);
        reject_given(
            &[
                (out.obs_json.is_some(), "--obs-json"),
                (out.timeline, "--timeline"),
                (out.diff.is_some(), "--diff"),
                (out.diff_json.is_some(), "--diff-json"),
                (out.store.is_some(), "--store"),
            ],
            &cpus,
        )?;
        if config_given && out.config_name != "standard" {
            return Err(format!(
                "--config {:?} does not apply to {cpus}: every CPU runs the standard cache",
                out.config_name
            ));
        }
    }
    Ok(ExplainCommand::Run(Box::new(out)))
}

/// Fails on the first given flag of `flags`: `mode` (a standalone pass or
/// a multi-CPU run) prints only its report and would never use it.
fn reject_given(flags: &[(bool, &str)], mode: &str) -> Result<(), String> {
    match flags.iter().find(|(given, _)| *given) {
        Some((_, flag)) => Err(format!(
            "{flag} does not apply to {mode}: it prints only its report"
        )),
        None => Ok(()),
    }
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

    #[test]
    fn explain_command_line_parses_up_front() {
        let parse = |args: &[&str]| parse_explain_args(args.iter().map(|a| a.to_string()));
        assert_eq!(
            parse(&["--small", "-h", "--bogus"]),
            Ok(ExplainCommand::Help)
        );
        assert_eq!(parse(&[]), Ok(ExplainCommand::Run(Box::default())));
        assert_eq!(
            parse(&[
                "--config",
                "standard",
                "--len",
                "7",
                "--small",
                "--diff",
                "victim",
                "--diff-json",
                "d.jsonl",
            ]),
            Ok(ExplainCommand::Run(Box::new(ExplainArgs {
                config_name: "standard".into(),
                config: Config::standard(),
                len: 50_000,
                diff: Some(("victim".into(), Config::standard_victim())),
                diff_json: Some("d.jsonl".into()),
                ..ExplainArgs::default()
            })))
        );
        assert_eq!(
            parse(&[
                "--config",
                "standard",
                "--cpus",
                "4",
                "--protocol",
                "dragon"
            ]),
            Ok(ExplainCommand::Run(Box::new(ExplainArgs {
                config_name: "standard".into(),
                config: Config::standard(),
                cpus: 4,
                protocol: Protocol::Dragon,
                ..ExplainArgs::default()
            })))
        );
        for (args, needle) in [
            (&["--bogus"][..], "unknown argument: --bogus"),
            (&["--config", "bogus"], "--config \"bogus\" not supported"),
            (&["--diff", "bogus"], "--diff \"bogus\" not supported"),
            (&["--diff-json", "x"], "--diff-json needs --diff"),
            (&["--trace", "bogus"], "--trace \"bogus\" not supported"),
            (&["--cpus", "9"], "--cpus: at most"),
            (&["--cpus", "0"], "--cpus needs a positive integer"),
            (
                &["--protocol", "moesi"],
                "--protocol \"moesi\" not supported",
            ),
            (&["--obs-json"], "--obs-json needs a value"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    fn explain_cpus_rejects_what_the_coherent_run_ignores() {
        let parse = |args: &[&str]| parse_explain_args(args.iter().map(|a| a.to_string()));
        // The default configuration still runs, unchanged.
        assert!(matches!(
            parse(&["--small", "--cpus", "2"]),
            Ok(ExplainCommand::Run(a)) if a.cpus == 2 && a.config_name == "soft"
        ));
        for (args, needle) in [
            (
                &["--obs-json", "x"][..],
                "--obs-json does not apply to --cpus 2",
            ),
            (&["--timeline"], "--timeline does not apply"),
            (&["--diff", "victim"], "--diff does not apply"),
            (
                &["--diff", "victim", "--diff-json", "d"],
                "--diff does not apply",
            ),
            (&["--store", "dir"], "--store does not apply"),
            (
                &["--config", "victim"],
                "--config \"victim\" does not apply to --cpus 2",
            ),
            (&["--config", "soft"], "every CPU runs the standard cache"),
        ] {
            let mut full = args.to_vec();
            full.extend(["--cpus", "2"]);
            let err = parse(&full).unwrap_err();
            assert!(err.contains(needle), "{full:?}: {err}");
            // The same flags are fine on one CPU.
            full.truncate(args.len());
            full.extend(["--cpus", "1"]);
            assert!(parse(&full).is_ok(), "{full:?}");
        }
    }

    #[test]
    fn figures_passes_reject_outputs_they_never_write() {
        let parse = |args: &[&str]| parse_figures_args(args.iter().map(|a| a.to_string()));
        for pass in ["--coherence", "--diff"] {
            for flag in ["--obs-json", "--timeline-json", "--trace-json", "--store"] {
                let err = parse(&[pass, flag, "x"]).unwrap_err();
                assert!(
                    err.contains(&format!("{flag} does not apply to {pass}")),
                    "{err}"
                );
                assert!(parse(&[flag, "x"]).is_ok(), "{flag} alone");
            }
        }
        let err = parse(&["--coherence", "--diff"]).unwrap_err();
        assert!(err.contains("separate passes"), "{err}");
    }
}

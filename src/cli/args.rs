//! The table the whole front end is read off: every flag and every
//! subcommand is declared exactly once here. [`Args::parse`] accepts what
//! a subcommand's row lists and nothing else, `massf help` renders its
//! synopses from the same rows, and each flag's value is checked in the one
//! `set` function of its entry — so help, acceptance and parsing cannot
//! disagree.
//!
//! Parse order: words are read left to right; one that starts with `--`
//! must be a flag of the subcommand (a value flag takes the next word,
//! whatever it looks like), anything else is an operand, so flags and
//! operands may be mixed freely. Refused: an unknown flag, a value flag in
//! final position, a value its `set` rejects, a flag given twice, a
//! required flag left out, and too few or too many operands.

use super::{err, CliError};
use massf_core::prelude::{Approach, Parallelism, RebalanceMode};

/// One flag: how it is spelled, what it takes, and what it means.
pub(super) struct Flag {
    pub name: &'static str,
    /// The value's placeholder in synopses; empty for a switch.
    pub metavar: &'static str,
    /// What a valid value is: the middle of the one error message,
    /// `<name> must be <expects>, got "<value>"`.
    expects: &'static str,
    /// Checks the value (`""` for a switch) and stores it in its typed
    /// field; `None` refuses it.
    set: for<'a> fn(&mut Args<'a>, &'a str) -> Option<()>,
    help: &'static str,
}

impl Flag {
    /// The flag as a synopsis spells it: `--engines K`, `--replay`.
    fn spelled(&self) -> String {
        [self.name, self.metavar].join(" ").trim_end().to_string()
    }
}

/// Stores a checked value in its field; a refused one (`None`) passes
/// through.
fn put<T>(field: &mut Option<T>, value: Option<T>) -> Option<()> {
    *field = Some(value?);
    Some(())
}

/// Turns a switch on.
fn on(field: &mut bool) -> Option<()> {
    *field = true;
    Some(())
}

/// The longest emulated span `--duration-s` accepts, in seconds.
const MAX_DURATION_S: u64 = 1_000_000;
// The same bound the lint calls implausible (MC006), so a duration the CLI
// accepts never trips it.
const _: () = assert!(MAX_DURATION_S * 1_000_000 == massf_lint::passes::MAX_PLAUSIBLE_HORIZON_US);

static ENGINES: Flag = Flag {
    name: "--engines",
    metavar: "K",
    expects: "a number",
    set: |a, v| put(&mut a.engines, v.parse().ok()),
    help: "Simulation engines to partition the network for.",
};
static TRAFFIC: Flag = Flag {
    name: "--traffic",
    metavar: "<spec.txt>",
    expects: "",
    set: |a, v| put(&mut a.traffic, Some(v)),
    help: "Traffic spec (HTTP, CBR or OnOff) the flow schedule is generated from.",
};
static DURATION_S: Flag = Flag {
    name: "--duration-s",
    metavar: "S",
    expects: "a number of seconds between 0.000001 and 1000000",
    // At least 1 µs and at most the lint plausibility horizon: NaN (in no
    // range), zero and negatives used to emulate an empty schedule
    // silently, and `1e300` saturated to a run that never ends.
    set: |a, v| {
        let s: f64 = v.parse().ok()?;
        let in_range = (1.0..=(MAX_DURATION_S * 1_000_000) as f64).contains(&(s * 1e6));
        put(&mut a.duration, in_range.then_some((s, (s * 1e6) as u64)))
    },
    help: "Emulated span in seconds (default 10).",
};
static FORMAT: Flag = Flag {
    name: "--format",
    metavar: "human|json",
    expects: "human|json",
    set: |a, v| {
        a.json = v == "json";
        (a.json || v == "human").then_some(())
    },
    help: "How the report is rendered (default human).",
};
static THREADS: Flag = Flag {
    name: "--threads",
    metavar: "T",
    expects: "a positive number",
    set: |a, v| {
        let n: usize = v.parse().ok()?;
        put(&mut a.threads, (n > 0).then(|| Parallelism::new(n)))
    },
    help: "Worker threads of the mapping pipeline and of the emulation (default: all cores); results are identical at any T.",
};
static CAPACITIES: Flag = Flag {
    name: "--capacities",
    metavar: "C1,C2,...",
    expects: "comma-separated numbers",
    set: |a, v| {
        let caps: Result<Vec<f64>, _> = v.split(',').map(|c| c.trim().parse()).collect();
        put(&mut a.capacities, caps.ok())
    },
    help: "Audit a heterogeneous engine-capacity vector; implies --audit.",
};
static NETWORK: Flag = Flag {
    name: "--network",
    metavar: "<network.dml>",
    expects: "",
    set: |a, v| put(&mut a.network, Some(v)),
    help: "The topology a trace was recorded on: adds endpoint validity to its lint.",
};
static DENY_WARNINGS: Flag = Flag {
    name: "--deny-warnings",
    metavar: "",
    expects: "",
    set: |a, _| on(&mut a.deny_warnings),
    help: "Promote Warn diagnostics to Errors.",
};
static AUDIT: Flag = Flag {
    name: "--audit",
    metavar: "",
    expects: "",
    set: |a, _| on(&mut a.audit),
    help: "Also map a TOP partition and audit it and its routing tables (MC013..MC018).",
};
static LIST_PASSES: Flag = Flag {
    name: "--list-passes",
    metavar: "",
    expects: "",
    set: |a, _| on(&mut a.list_passes),
    help: "Print the stable-code catalog (MC001..MC020, SA000..SA007) instead of linting.",
};
static APPROACH: Flag = Flag {
    name: "--approach",
    metavar: "top|place|profile",
    expects: "top|place|profile",
    set: |a, v| {
        let by_label = |x: &Approach| x.label().to_lowercase() == v;
        put(&mut a.approach, Approach::ALL.into_iter().find(by_label))
    },
    help: "The paper's mapping approach (default profile).",
};
static REPORT: Flag = Flag {
    name: "--report",
    metavar: "<run.json>",
    expects: "",
    set: |a, v| put(&mut a.report, Some(v)),
    help: "Also write the versioned JSON run report, the audit as its `lint` block.",
};
static EPOCHS: Flag = Flag {
    name: "--epochs",
    metavar: "E",
    expects: "at least 1",
    set: |a, v| {
        let n: usize = v.parse().ok()?;
        put(&mut a.epochs, (n > 0).then_some(n))
    },
    help: "Measure per-engine load and drift (MC019/MC020) at E epoch boundaries.",
};
static REBALANCE: Flag = Flag {
    name: "--rebalance",
    metavar: "off|incremental",
    expects: "off|incremental",
    set: |a, v| put(&mut a.rebalance, RebalanceMode::parse(v)),
    help: "What every epoch boundary does (default off); alone implies 4 epochs.",
};
static REPLAY: Flag = Flag {
    name: "--replay",
    metavar: "",
    expects: "",
    set: |a, _| on(&mut a.replay),
    help: "Emulate as fast as possible instead of pacing the traffic in real time.",
};
static OUT: Flag = Flag {
    name: "--out",
    metavar: "<trace.txt>",
    expects: "",
    set: |a, v| put(&mut a.out, Some(v)),
    help: "Where the recorded trace is written.",
};

/// One subcommand: its operands, the flags it takes, what runs it and its
/// prose.
pub(super) struct Command {
    pub name: &'static str,
    /// Operand placeholders in order; a `[bracketed]` one may be left out.
    operands: &'static [&'static str],
    required: &'static [&'static Flag],
    optional: &'static [&'static Flag],
    pub run: fn(&Args) -> Result<String, CliError>,
    about: &'static str,
}

pub(super) static COMMANDS: [Command; 9] = [
    Command {
        name: "topology",
        operands: &["<campus|teragrid|brite|brite-scaleup>"],
        required: &[],
        optional: &[],
        run: super::cmd_topology,
        about: "Print the network in the description format.",
    },
    Command {
        name: "check",
        operands: &["[<network.dml|trace.txt>]"],
        required: &[],
        optional: &[
            &ENGINES,
            &TRAFFIC,
            &DURATION_S,
            &AUDIT,
            &CAPACITIES,
            &NETWORK,
            &FORMAT,
            &DENY_WARNINGS,
            &THREADS,
            &LIST_PASSES,
        ],
        run: super::cmd_check,
        about: "Statically lint the scenario: topology, partition request, traffic
      spec, and (when a spec is given) the generated flow schedule. A file
      beginning with `# massf-trace` is linted as a recorded trace instead
      (MC016). Exits 0 when no Error-level diagnostics are found, 1
      otherwise; the report is printed either way.",
    },
    Command {
        name: "srclint",
        operands: &["[<dir>]"],
        required: &[],
        optional: &[&FORMAT, &DENY_WARNINGS],
        run: super::cmd_srclint,
        about: "Source-level determinism lint over the workspace rooted at <dir>
      (default: the current directory): a comment/string-aware scan of
      src/, crates/, and tests/ for byte-determinism hazards — unordered
      HashMap iteration, wall-clock reads outside the massf-obs
      quarantine, entropy-seeded randomness, environment access, direct
      printing in libraries, thread-identity probes, and floating-point
      accumulation in thread::scope (stable codes SA000..SA007).
      Legitimate sites carry `srclint: allow(SA00x) - reason` comments;
      a stale allow is itself an Error. Exits 0 when no Error-level
      finding survives, 1 otherwise — also when <dir> holds none of the
      three directories (a mistyped root is not a clean tree).",
    },
    Command {
        name: "partition",
        operands: &["<network.dml>"],
        required: &[&ENGINES],
        optional: &[&THREADS, &DENY_WARNINGS],
        run: super::cmd_partition,
        about: "Partition the network with the TOP approach; prints node -> engine.
      The produced partition is audited (MC013, MC017, MC018) and the
      command refuses past any Error-level finding.",
    },
    Command {
        name: "run",
        operands: &["<network.dml>"],
        required: &[],
        optional: &[
            &ENGINES,
            &TRAFFIC,
            &DURATION_S,
            &APPROACH,
            &REPLAY,
            &THREADS,
            &DENY_WARNINGS,
            &REPORT,
            &EPOCHS,
            &REBALANCE,
        ],
        run: super::cmd_run,
        about: "Generate background traffic from the spec (a built-in CBR background
      when --traffic is omitted), map it with the chosen approach, emulate,
      and print the load-balance report. Defaults: 3 engines, 10 s,
      profile approach. The mapped partition and routing tables are
      audited (MC013..MC018) before emulating; Errors refuse.

      --epochs E splits the emulation into E epochs (at most one per µs
      of the run); each boundary turns the epoch's NetFlow slice into
      measured per-engine loads and drift values (surfaced in the
      report's `rebalance` block and audited as MC019/MC020; drift
      diagnoses, it decides nothing). --rebalance picks what every
      boundary does: `incremental` migrates boundary nodes locally where
      a move pays, `off` (default) only measures. The first epoch is
      mapped traffic-blind with TOP (nothing has been measured yet), so
      --approach must be top or omitted; --replay is incompatible.",
    },
    Command {
        name: "ping",
        operands: &["<network.dml>", "<src-name>", "<dst-name>"],
        required: &[],
        optional: &[],
        run: super::cmd_ping,
        about: "Emulate an ICMP echo through the discrete-event engine.",
    },
    Command {
        name: "record",
        operands: &["<network.dml>"],
        required: &[&TRAFFIC, &DURATION_S, &OUT],
        optional: &[&DENY_WARNINGS, &REPORT],
        run: super::cmd_record,
        about: "Generate a traffic schedule from the spec and save it as a trace
      (with the declared duration embedded). The trace text is audited
      (MC016) before anything is written; Errors refuse.",
    },
    Command {
        name: "replay",
        operands: &["<network.dml>", "<trace.txt>"],
        required: &[&ENGINES],
        optional: &[&APPROACH, &THREADS, &DENY_WARNINGS, &REPORT],
        run: super::cmd_replay,
        about: "Replay a recorded trace as fast as possible (isolated network
      emulation, the paper's Figures 9/10 measurement). The trace is
      checked first (MC016 shape plus endpoint validity against the
      network), and the mapped partition is audited before emulating.",
    },
    Command {
        name: "report",
        operands: &["<run.json>"],
        required: &[],
        optional: &[],
        run: super::cmd_report,
        about: "Render a JSON run report written by --report as human text:
      sparkline load timelines, imbalance-over-time, partitioner restart
      outcomes, and the wall-clock stage-timing breakdown.",
    },
];

impl Command {
    pub fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.required.iter().chain(self.optional).copied()
    }

    /// `massf <name>`'s synopsis, one word group per item: operands, then
    /// required flags bare, then optional flags bracketed.
    fn synopsis_items(&self) -> impl Iterator<Item = String> {
        let operands = self.operands.iter().map(|o| o.to_string());
        let required = self.required.iter().map(|f| f.spelled());
        let optional = self.optional.iter().map(|f| format!("[{}]", f.spelled()));
        operands.chain(required).chain(optional)
    }

    /// The synopsis as `massf help` shows it: broken between items at 78
    /// columns, continuation lines aligned under the first item.
    pub fn synopsis(&self) -> String {
        let mut out = format!("  massf {}", self.name);
        let indent = out.len();
        let mut col = indent;
        for item in self.synopsis_items() {
            if col + 1 + item.len() > 78 {
                out.push('\n');
                out.push_str(&" ".repeat(indent));
                col = indent;
            }
            out.push(' ');
            out.push_str(&item);
            col += 1 + item.len();
        }
        out
    }
}

/// The text of `massf help`, rendered from the table.
pub fn usage() -> String {
    let mut out = String::from(
        "massf — traffic-based load balance for scalable network emulation\n\nUSAGE:\n",
    );
    for cmd in &COMMANDS {
        out.push_str(&format!("{}\n      {}\n\n", cmd.synopsis(), cmd.about));
    }
    out.push_str("  massf help\n      Show this text.\n\nFLAGS:\n");
    let mut shown: Vec<&str> = Vec::new();
    for f in COMMANDS.iter().flat_map(Command::flags) {
        if !shown.contains(&f.name) {
            shown.push(f.name);
            out.push_str(&format!("  {}\n      {}\n", f.spelled(), f.help));
        }
    }
    out.push_str(
        "\nScenario-consuming subcommands run the massf-lint preflight before the\n\
         pipeline and the artifact audit after it, refusing to proceed past any\n\
         Error-level diagnostic (stable codes MC001..MC020).\n",
    );
    out
}

/// A subcommand's parsed command line: operands in order and every flag's
/// checked value in its typed field (absent flags keep `None` / `false`).
#[derive(Default)]
pub(super) struct Args<'a> {
    /// The operands; [`Args::parse`] has checked there are as many as the
    /// subcommand declares (bracketed ones may be missing from the end).
    pub operands: Vec<&'a str>,
    pub engines: Option<usize>,
    pub epochs: Option<usize>,
    pub threads: Option<Parallelism>,
    pub approach: Option<Approach>,
    pub rebalance: Option<RebalanceMode>,
    /// `--duration-s` as seconds and as the same span in µs.
    pub duration: Option<(f64, u64)>,
    pub capacities: Option<Vec<f64>>,
    pub traffic: Option<&'a str>,
    pub network: Option<&'a str>,
    pub out: Option<&'a str>,
    pub report: Option<&'a str>,
    /// `--format json`.
    pub json: bool,
    pub deny_warnings: bool,
    pub audit: bool,
    pub list_passes: bool,
    pub replay: bool,
}

impl<'a> Args<'a> {
    /// Parses `argv` (the words after the subcommand) against `cmd`'s row.
    pub(super) fn parse(cmd: &Command, argv: &'a [String]) -> Result<Self, CliError> {
        let mut args = Args::default();
        let mut seen: Vec<&str> = Vec::new();
        let mut words = argv.iter().map(String::as_str);
        while let Some(word) = words.next() {
            if !word.starts_with("--") {
                args.operands.push(word);
                continue;
            }
            let flag = cmd.flags().find(|f| f.name == word).ok_or_else(|| {
                err(format!(
                    "unknown flag {word:?} for `massf {}`; try `massf help`",
                    cmd.name
                ))
            })?;
            if seen.contains(&word) {
                return Err(err(format!("{word} given twice")));
            }
            seen.push(word);
            let value = match flag.metavar {
                "" => "",
                _ => words
                    .next()
                    .ok_or_else(|| err(format!("{word} requires a value")))?,
            };
            (flag.set)(&mut args, value)
                .ok_or_else(|| err(format!("{word} must be {}, got {value:?}", flag.expects)))?;
        }
        // The synopsis on one line, for the two operand-count errors.
        let usage = || {
            let items: Vec<String> = cmd.synopsis_items().collect();
            format!("massf {} {}", cmd.name, items.join(" "))
        };
        if let Some(extra) = args.operands.get(cmd.operands.len()) {
            return Err(err(format!(
                "unexpected operand {extra:?}; usage: {}",
                usage()
            )));
        }
        let mut left = cmd.operands.iter().skip(args.operands.len());
        if let Some(next) = left.find(|o| !o.starts_with('[')) {
            return Err(err(format!("missing {next}; usage: {}", usage())));
        }
        match cmd.required.iter().find(|f| !seen.contains(&f.name)) {
            Some(f) => Err(err(format!("missing {}", f.name))),
            None => Ok(args),
        }
    }
}

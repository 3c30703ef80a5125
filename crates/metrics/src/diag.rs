//! The diagnostics model `massf-lint` (MC codes) and `massf-srclint` (SA
//! codes) share. Each linter declares its codes as one
//! [`catalog!`](crate::catalog) table — a row per code — implementing
//! [`Code`]; a finding of either is a [`Diagnostic`], and either linter's
//! report is a [`Report`]: one per-code cap, one order, one warning
//! promotion, one human and one JSON rendering. A linter adds only what
//! its report carries beside the findings ([`Extra`]: summary counts and
//! a trailer).
//!
//! Both renderings are byte-deterministic: findings come in report order,
//! the JSON goes through the workspace's one [`Writer`], and neither form
//! holds an absolute path or a timestamp.

use crate::json::{Layout::Block, Writer};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt;

/// How serious a diagnostic is.
///
/// Ordered `Note < Warn < Error` so `max()` over a report gives the
/// overall outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; never fails a check.
    Note,
    /// Suspicious; fails only under `--deny-warnings`.
    Warn,
    /// Malformed input or a determinism hazard; always fails the check.
    Error,
}

impl Severity {
    /// Lower-case label used by every renderer (`error`, `warning`, `note`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warn => "warning",
            Severity::Error => "error",
        }
    }
}

/// Schema version stamped into the JSON report; bump on layout changes.
pub const JSON_FORMAT_VERSION: u32 = 1;

/// One catalog row: a code's whole stable contract.
#[derive(Debug)]
pub struct Row<C> {
    /// The code.
    pub code: C,
    /// Its stable string (`MC001`, `SA000`, …).
    pub id: &'static str,
    /// Short kebab-case pass name.
    pub name: &'static str,
    /// The worst severity the pass emits. A pass may gain milder
    /// findings, never a worse one.
    pub severity: Severity,
    /// One-line description for the pass catalog.
    pub summary: &'static str,
}

/// A catalog of stable diagnostic codes, declared with [`catalog!`](crate::catalog).
/// Codes are append-only: never renumbered or reused once shipped.
pub trait Code: Copy + Ord + fmt::Debug + 'static {
    /// What a finding points at; its `Display` is the rendered location.
    type Location: Clone + Ord + fmt::Debug + fmt::Display;
    /// What a report of this catalog carries beside its findings.
    type Extra: Extra<Self>;
    /// The tool's name: the human summary line starts with it, and the
    /// JSON `tool` field is `massf-` followed by it.
    const TOOL: &'static str;
    /// Findings a report stores per code. Further ones are only counted
    /// ([`Report::suppressed`]), which keeps reports bounded on
    /// pathological inputs.
    const CAP: usize;
    /// One row per code, in catalog order.
    const CATALOG: &'static [Row<Self>];

    /// Every code, in catalog order.
    fn all() -> impl Iterator<Item = Self> {
        Self::CATALOG.iter().map(|row| row.code)
    }

    /// This code's catalog row.
    fn row(self) -> &'static Row<Self> {
        Self::CATALOG
            .iter()
            .find(|row| row.code == self)
            .expect("catalog! declares a row for every code")
    }

    /// The stable code string.
    fn as_str(self) -> &'static str {
        self.row().id
    }

    /// Short kebab-case pass name.
    fn name(self) -> &'static str {
        self.row().name
    }

    /// One-line description for the pass catalog.
    fn summary(self) -> &'static str {
        self.row().summary
    }

    /// The worst severity this pass can emit.
    fn severity(self) -> Severity {
        self.row().severity
    }

    /// Parses a code string (case-sensitive) back to its code.
    fn parse(s: &str) -> Option<Self> {
        Self::all().find(|c| c.as_str() == s)
    }
}

/// What one linter's report adds to the shared one: the data it carries
/// beside the findings, the counts its summary shows, and its trailer.
pub trait Extra<C: Code>: Clone + Default + fmt::Debug + PartialEq {
    /// Counts the summary shows between the severity counts and
    /// `passes_run`, as `(JSON key, human label, value)`.
    fn counts(_report: &Report<C>) -> Vec<(&'static str, &'static str, usize)> {
        Vec::new()
    }

    /// Human lines between the findings and the summary line.
    fn human_trailer(report: &Report<C>) -> String;

    /// JSON members after the `diagnostics` array.
    fn json_trailer(report: &Report<C>, w: &mut Writer);
}

/// Declares a diagnostic-code catalog: the code enum, one variant per row
/// `Variant = ("ID", "name", Severity, "summary"),`, and its [`Code`]
/// implementation, whose table is those rows. A variant's doc comment is
/// its summary. `massf-lint`'s `Code` and `massf-srclint`'s `SaCode` are
/// the two catalogs.
#[macro_export]
macro_rules! catalog {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            tool = $tool:literal, location = $loc:ty, extra = $extra:ty, cap = $cap:expr;
            $($variant:ident = ($id:literal, $cname:literal, $sev:ident, $summary:literal),)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        $vis enum $name {
            $(#[doc = $summary] $variant,)+
        }

        impl $crate::diag::Code for $name {
            type Location = $loc;
            type Extra = $extra;
            const TOOL: &'static str = $tool;
            const CAP: usize = $cap;
            const CATALOG: &'static [$crate::diag::Row<Self>] = &[$($crate::diag::Row {
                code: $name::$variant,
                id: $id,
                name: $cname,
                severity: $crate::diag::Severity::$sev,
                summary: $summary,
            },)+];
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str($crate::diag::Code::as_str(*self))
            }
        }
    };
}

/// One finding: a code, a severity, a location, and a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic<C: Code> {
    /// The pass that produced this finding.
    pub code: C,
    /// How serious it is.
    pub severity: Severity,
    /// What it points at.
    pub location: C::Location,
    /// Human-readable explanation.
    pub message: String,
}

/// A linter's report: findings capped per code, in deterministic report
/// order once [`finish`](Report::finish)ed — severity (errors first),
/// then code, location, message.
#[derive(Debug, Clone, PartialEq)]
pub struct Report<C: Code> {
    diags: Vec<Diagnostic<C>>,
    suppressed: BTreeMap<C, usize>,
    /// How many passes ran to produce the report.
    pub passes_run: usize,
    /// What the catalog's reports carry beside the findings.
    pub extra: C::Extra,
}

impl<C: Code> Default for Report<C> {
    fn default() -> Self {
        Report {
            diags: Vec::new(),
            suppressed: BTreeMap::new(),
            passes_run: 0,
            extra: C::Extra::default(),
        }
    }
}

impl<C: Code> Report<C> {
    /// Adds a finding, or only counts it once [`Code::CAP`] findings of its
    /// code are stored.
    pub fn push(&mut self, code: C, severity: Severity, location: C::Location, message: String) {
        if self.diags.iter().filter(|d| d.code == code).count() >= C::CAP {
            *self.suppressed.entry(code).or_insert(0) += 1;
            return;
        }
        self.diags.push(Diagnostic {
            code,
            severity,
            location,
            message,
        });
    }

    /// The stored findings, in report order once finished (every lint
    /// entry point returns a finished report).
    pub fn iter(&self) -> std::slice::Iter<'_, Diagnostic<C>> {
        self.diags.iter()
    }

    /// `(code, count)` of findings suppressed past the per-code cap.
    pub fn suppressed(&self) -> impl Iterator<Item = (C, usize)> + '_ {
        self.suppressed.iter().map(|(&c, &n)| (c, n))
    }

    /// Findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == severity).count()
    }

    /// True when any Error-level finding is stored.
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// Sorts into report order: severity (errors first), then code,
    /// location, message.
    pub fn finish(&mut self) {
        self.diags.sort_by(|x, y| {
            (Reverse(x.severity), x.code, &x.location, &x.message).cmp(&(
                Reverse(y.severity),
                y.code,
                &y.location,
                &y.message,
            ))
        });
    }

    /// Promotes every Warn to Error (the `--deny-warnings` contract),
    /// leaving the report in report order.
    pub fn deny_warnings(&mut self) {
        for d in &mut self.diags {
            if d.severity == Severity::Warn {
                d.severity = Severity::Error;
            }
        }
        self.finish();
    }

    /// `tool: E error(s), W warning(s), N note(s) — [counts, ]P passes run`.
    pub fn summary_line(&self) -> String {
        let mut counts: Vec<String> = C::Extra::counts(self)
            .into_iter()
            .map(|(_, label, n)| format!("{n} {label}"))
            .collect();
        counts.push(format!("{} passes run", self.passes_run));
        format!(
            "{}: {} error(s), {} warning(s), {} note(s) \u{2014} {}",
            C::TOOL,
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Note),
            counts.join(", ")
        )
    }

    /// The human report: one `severity[CODE] location: message` line per
    /// finding, the catalog's trailer, and the summary line.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&format!(
                "{}[{}] {}: {}\n",
                d.severity.label(),
                d.code.as_str(),
                d.location,
                d.message
            ));
        }
        out.push_str(&C::Extra::human_trailer(self));
        out.push_str(&self.summary_line());
        out.push('\n');
        out
    }

    /// The JSON report: `tool`, `format`, the `summary` counts, the
    /// `diagnostics` array, and the catalog's trailer. Trailing newline
    /// included.
    pub fn json(&self) -> String {
        let mut w = Writer::new();
        w.object(Block, |w| {
            w.key("tool").string(&format!("massf-{}", C::TOOL));
            w.key("format").uint(JSON_FORMAT_VERSION as u64);
            w.key("summary").object(Block, |w| {
                w.key("errors").uint(self.count(Severity::Error) as u64);
                w.key("warnings").uint(self.count(Severity::Warn) as u64);
                w.key("notes").uint(self.count(Severity::Note) as u64);
                for (key, _, n) in C::Extra::counts(self) {
                    w.key(key).uint(n as u64);
                }
                w.key("passes_run").uint(self.passes_run as u64);
            });
            w.key("diagnostics").rows(Block, &self.diags, |w, d| {
                w.key("code").string(d.code.as_str());
                w.key("severity").string(d.severity.label());
                w.key("location").string(&d.location.to_string());
                w.key("message").string(&d.message);
            });
            C::Extra::json_trailer(self, w);
        });
        w.finish() + "\n"
    }
}

impl<C: Code<Extra = ()>> Report<C> {
    /// Merges another report into this one: its findings pass through
    /// this report's caps, suppression counts and `passes_run` add, and
    /// the result is in report order. Only reports that carry nothing
    /// beside their findings merge.
    pub fn merge(&mut self, other: Self) {
        for d in other.diags {
            self.push(d.code, d.severity, d.location, d.message);
        }
        for (code, n) in other.suppressed {
            *self.suppressed.entry(code).or_insert(0) += n;
        }
        self.passes_run += other.passes_run;
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Layout::Spaced;

    crate::catalog! {
        /// A three-code test catalog with a cap of 2.
        enum T {
            tool = "test", location = u32, extra = (), cap = 2;
            T001 = ("T001", "first", Error, "the first code"),
            T002 = ("T002", "second", Warn, "the second code"),
            T003 = ("T003", "third", Note, "the third code"),
        }
    }

    /// The test catalog's extras: one constant count and a suppression
    /// trailer.
    impl Extra<T> for () {
        fn counts(_: &Report<T>) -> Vec<(&'static str, &'static str, usize)> {
            vec![("files_scanned", "file(s) scanned", 7)]
        }
        fn human_trailer(r: &Report<T>) -> String {
            r.suppressed().map(|(c, n)| format!("{c}: {n}\n")).collect()
        }
        fn json_trailer(r: &Report<T>, w: &mut Writer) {
            w.key("suppressed")
                .rows(Spaced, r.suppressed(), |w, (c, n)| {
                    w.key("code").string(c.as_str());
                    w.key("count").uint(n as u64);
                });
        }
    }

    fn codes(r: &Report<T>) -> Vec<(&str, &str)> {
        r.iter()
            .map(|d| (d.code.as_str(), d.severity.label()))
            .collect()
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Note);
        assert_eq!(Severity::Warn.label(), "warning");
    }

    #[test]
    fn catalog_lookups_read_the_rows() {
        assert_eq!(T::all().collect::<Vec<_>>(), [T::T001, T::T002, T::T003]);
        assert_eq!(T::T002.as_str(), "T002");
        assert_eq!(T::T002.to_string(), "T002");
        assert_eq!(T::T003.name(), "third");
        assert_eq!(T::T001.summary(), "the first code");
        assert_eq!(T::T002.severity(), Severity::Warn);
        assert_eq!(T::parse("T003"), Some(T::T003));
        assert_eq!(T::parse("t003"), None);
    }

    #[test]
    fn finish_orders_errors_first_then_code_location_message() {
        let mut r = Report::<T>::default();
        r.push(T::T003, Severity::Note, 1, "z".into());
        r.push(T::T002, Severity::Warn, 9, "w".into());
        r.push(T::T002, Severity::Error, 4, "b".into());
        r.push(T::T001, Severity::Error, 4, "a".into());
        r.push(T::T003, Severity::Note, 1, "y".into());
        r.finish();
        let order: Vec<_> = r
            .iter()
            .map(|d| (d.code, d.location, &*d.message))
            .collect();
        assert_eq!(
            order,
            [
                (T::T001, 4, "a"),
                (T::T002, 4, "b"),
                (T::T002, 9, "w"),
                (T::T003, 1, "y"),
                (T::T003, 1, "z"),
            ]
        );
    }

    #[test]
    fn per_code_cap_suppresses_and_renders() {
        let mut r = Report::<T>::default();
        for i in 0..5 {
            r.push(T::T002, Severity::Warn, i, format!("finding {i}"));
        }
        r.push(T::T001, Severity::Error, 0, "e".into());
        assert_eq!(r.iter().count(), 3, "two of T002 stored, and T001");
        assert_eq!(r.suppressed().collect::<Vec<_>>(), [(T::T002, 3)]);
        assert!(r.human().contains("\nT002: 3\n"));
        assert!(r.json().contains("{ \"code\": \"T002\", \"count\": 3 }"));
    }

    #[test]
    fn merge_applies_caps_sums_and_orders() {
        let mut a = Report::<T>::default();
        a.push(T::T002, Severity::Warn, 0, "w".into());
        a.passes_run = 12;
        let mut b = Report::<T>::default();
        b.push(T::T002, Severity::Warn, 1, "w".into());
        b.push(T::T002, Severity::Warn, 2, "w".into());
        b.push(T::T002, Severity::Warn, 3, "w".into());
        b.push(T::T001, Severity::Error, 0, "e".into());
        b.passes_run = 6;
        a.merge(b);
        assert_eq!(a.passes_run, 18);
        assert_eq!(
            codes(&a),
            [("T001", "error"), ("T002", "warning"), ("T002", "warning")]
        );
        assert_eq!(a.suppressed().collect::<Vec<_>>(), [(T::T002, 2)], "1 + 1");
    }

    #[test]
    fn deny_warnings_promotes_and_reorders() {
        let mut r = Report::<T>::default();
        r.push(T::T002, Severity::Warn, 0, "w".into());
        r.push(T::T003, Severity::Note, 0, "n".into());
        r.push(T::T003, Severity::Error, 0, "e".into());
        r.finish();
        assert_eq!(
            codes(&r),
            [("T003", "error"), ("T002", "warning"), ("T003", "note")]
        );
        r.deny_warnings();
        assert!(r.has_errors());
        assert_eq!(
            codes(&r),
            [("T002", "error"), ("T003", "error"), ("T003", "note")],
            "report order without another finish(); notes stay notes"
        );
    }

    #[test]
    fn renders_lines_counts_and_trailer() {
        let mut r = Report::<T>::default();
        r.push(T::T001, Severity::Error, 3, "broken".into());
        r.push(T::T002, Severity::Warn, 5, "odd".into());
        r.passes_run = 4;
        r.finish();
        assert_eq!(
            r.human(),
            "error[T001] 3: broken\nwarning[T002] 5: odd\n\
             test: 1 error(s), 1 warning(s), 0 note(s) \u{2014} 7 file(s) scanned, 4 passes run\n"
        );
        let j = r.json();
        assert_eq!(j, r.clone().json(), "byte-identical");
        assert!(j.starts_with("{\n  \"tool\": \"massf-test\",\n  \"format\": 1,\n"));
        assert!(j.contains(
            "\"summary\": {\n    \"errors\": 1,\n    \"warnings\": 1,\n    \"notes\": 0,\n    \
             \"files_scanned\": 7,\n    \"passes_run\": 4\n  },"
        ));
        assert!(j.contains("\"location\": \"5\""));
        assert!(j.ends_with("],\n  \"suppressed\": []\n}\n"));
    }

    #[test]
    fn empty_report_renders_empty_arrays() {
        let r = Report::<T>::default();
        assert!(!r.has_errors());
        assert!(r
            .json()
            .contains("\"diagnostics\": [],\n  \"suppressed\": []\n"));
        assert_eq!(
            r.human(),
            "test: 0 error(s), 0 warning(s), 0 note(s) \u{2014} 7 file(s) scanned, 0 passes run\n"
        );
    }
}

//! On-disk traffic traces.
//!
//! "MaSSF records all network traffic trace of an emulation execution, and
//! then replays it" (§4.1.1). This module gives the recorded schedule a
//! stable, line-oriented text format so traces can be saved, diffed,
//! shipped between machines, and replayed from the CLI:
//!
//! ```text
//! # massf-trace v1
//! # duration_us <N>          (optional declared emulation horizon)
//! flow <src> <dst> <start_us> <packets> <bytes> <interval_us> [w<window>]
//! ```
//!
//! One line per flow, everything else is a comment. The `# duration_us`
//! comment is the one piece of structured metadata: `record` writes the
//! emulation duration there so `massf check <trace.txt>` (lint MC016) can
//! compare the schedule horizon against what was declared. Round-trips
//! exactly.

use crate::flow::FlowSpec;
use massf_topology::NodeId;

/// Magic first line of a trace file.
pub const HEADER: &str = "# massf-trace v1";

/// Prefix every trace header shares regardless of version; used to sniff
/// "is this file a trace at all" before judging the version.
pub const HEADER_PREFIX: &str = "# massf-trace";

/// Structured metadata comment declaring the emulation horizon.
const DURATION_KEY: &str = "# duration_us ";

/// Latest injection instant a flow may have, in µs (2⁶², some 146 000
/// years). Every event the emulator derives from a flow lands within a
/// path's worth of link time of one of its injections, so timestamps stay
/// well below 2⁶³, where the scheduler's packed event key ends.
pub const MAX_INJECTION_US: u64 = 1 << 62;

/// Most packets a flow may have: packet numbers share a packet id with the
/// flow index, 32 bits each.
pub const MAX_PACKETS: u64 = u32::MAX as u64;

/// Errors from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Missing or wrong header line.
    BadHeader,
    /// The file is a massf trace, but of a version this build cannot read.
    BadVersion {
        /// The full header line found.
        found: String,
    },
    /// A flow line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadHeader => write!(f, "not a massf trace (missing '{HEADER}')"),
            TraceError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported trace header {found:?} (this build reads '{HEADER}')"
                )
            }
            TraceError::BadLine { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A parsed trace: the flow schedule plus any structured metadata the
/// file declared.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// The flow schedule, in file order.
    pub flows: Vec<FlowSpec>,
    /// The `# duration_us <N>` horizon, when declared.
    pub declared_duration_us: Option<u64>,
}

/// Serializes a flow schedule without a declared horizon.
pub fn write(flows: &[FlowSpec]) -> String {
    write_with_duration(flows, None)
}

/// Serializes a flow schedule, declaring `duration_us` as the emulation
/// horizon when given.
pub fn write_with_duration(flows: &[FlowSpec], duration_us: Option<u64>) -> String {
    let mut out = String::with_capacity(40 * flows.len() + 64);
    out.push_str(HEADER);
    out.push('\n');
    if let Some(d) = duration_us {
        out.push_str(&format!("{DURATION_KEY}{d}\n"));
    }
    out.push_str(&format!("# {} flows\n", flows.len()));
    for f in flows {
        out.push_str(&format!(
            "flow {} {} {} {} {} {}",
            f.src, f.dst, f.start_us, f.packets, f.bytes, f.packet_interval_us
        ));
        if let Some(w) = f.window {
            out.push_str(&format!(" w{w}"));
        }
        out.push('\n');
    }
    out
}

/// Parses a trace file, returning only the flow schedule. Convenience
/// wrapper over [`parse_trace`] for callers that ignore metadata.
pub fn parse(text: &str) -> Result<Vec<FlowSpec>, TraceError> {
    parse_trace(text).map(|t| t.flows)
}

/// Parses a trace file, including structured metadata comments.
pub fn parse_trace(text: &str) -> Result<Trace, TraceError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, l)) if l.trim() == HEADER => {}
        Some((_, l)) if l.trim().starts_with(HEADER_PREFIX) => {
            return Err(TraceError::BadVersion {
                found: l.trim().to_string(),
            })
        }
        _ => return Err(TraceError::BadHeader),
    }
    let mut flows = Vec::new();
    let mut declared_duration_us = None;
    for (i, raw) in lines {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            if let Some(v) = line.strip_prefix(DURATION_KEY) {
                declared_duration_us = v.trim().parse::<u64>().ok().or(declared_duration_us);
            }
            continue;
        }
        let bad = |message: &str| TraceError::BadLine {
            line: line_no,
            message: message.into(),
        };
        let Some(rest) = line.strip_prefix("flow ") else {
            return Err(bad("expected 'flow ...'"));
        };
        let toks: Vec<&str> = rest.split_whitespace().collect();
        if !(6..=7).contains(&toks.len()) {
            return Err(bad("expected 6 fields plus optional window"));
        }
        let parse_u64 = |t: &str, what: &str| {
            t.parse::<u64>()
                .map_err(|_| bad(&format!("bad {what}: {t:?}")))
        };
        // Parsed at `NodeId` width: narrowing a `u64` would read node
        // 4294967296 as node 0.
        let parse_node = |t: &str, what: &str| {
            t.parse::<NodeId>()
                .map_err(|_| bad(&format!("bad {what}: {t:?}")))
        };
        let src = parse_node(toks[0], "src")?;
        let dst = parse_node(toks[1], "dst")?;
        let start_us = parse_u64(toks[2], "start")?;
        let packets = parse_u64(toks[3], "packets")?;
        let bytes = parse_u64(toks[4], "bytes")?;
        let packet_interval_us = parse_u64(toks[5], "interval")?;
        if packets == 0 {
            return Err(bad("packets must be >= 1"));
        }
        if packets > MAX_PACKETS {
            return Err(bad(&format!("{packets} packets exceed {MAX_PACKETS}")));
        }
        if packet_interval_us == 0 {
            return Err(bad("interval must be >= 1"));
        }
        let last_us = (packets - 1)
            .checked_mul(packet_interval_us)
            .and_then(|span| span.checked_add(start_us));
        if last_us.is_none_or(|t| t > MAX_INJECTION_US) {
            return Err(bad(&format!(
                "the last injection passes {MAX_INJECTION_US} µs"
            )));
        }
        let window = match toks.get(6) {
            None => None,
            Some(t) => {
                let w = t
                    .strip_prefix('w')
                    .and_then(|x| x.parse::<u32>().ok())
                    .ok_or_else(|| bad(&format!("bad window {t:?}")))?;
                if w == 0 {
                    return Err(bad("window must be >= 1"));
                }
                Some(w)
            }
        };
        flows.push(FlowSpec {
            src,
            dst,
            start_us,
            packets,
            bytes,
            packet_interval_us,
            window,
        });
    }
    Ok(Trace {
        flows,
        declared_duration_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<FlowSpec> {
        vec![
            FlowSpec {
                src: 3,
                dst: 9,
                start_us: 100,
                packets: 40,
                bytes: 60_000,
                packet_interval_us: 120,
                window: None,
            },
            FlowSpec {
                src: 9,
                dst: 3,
                start_us: 5_000,
                packets: 10,
                bytes: 15_000,
                packet_interval_us: 50,
                window: Some(4),
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let flows = sample();
        assert_eq!(parse(&write(&flows)).unwrap(), flows);
    }

    #[test]
    fn empty_trace_roundtrips() {
        assert_eq!(parse(&write(&[])).unwrap(), vec![]);
    }

    #[test]
    fn missing_header_rejected() {
        assert_eq!(parse("flow 1 2 0 1 100 1\n"), Err(TraceError::BadHeader));
    }

    #[test]
    fn bad_lines_rejected_with_location() {
        let text = format!("{HEADER}\nflow 1 2 0 1 100\n");
        match parse(&text) {
            Err(TraceError::BadLine { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected BadLine, got {other:?}"),
        }
        assert!(
            parse(&format!("{HEADER}\nflow 1 2 0 0 100 1\n")).is_err(),
            "zero packets"
        );
        assert!(
            parse(&format!("{HEADER}\nflow 1 2 0 1 100 1 w0\n")).is_err(),
            "zero window"
        );
        assert!(parse(&format!("{HEADER}\nblah\n")).is_err());
        assert!(
            parse(&format!("{HEADER}\nflow 4294967296 2 0 1 100 1\n")).is_err(),
            "a node id past u32 must not wrap to node 0"
        );
    }

    #[test]
    fn injections_past_the_time_bound_or_too_many_packets_are_refused() {
        let line_of = |flow: &str| match parse(&format!("{HEADER}\n# c\n{flow}\n")) {
            Err(TraceError::BadLine { line, message }) => (line, message),
            other => panic!("{flow}: expected BadLine, got {other:?}"),
        };
        for flow in [
            "flow 10 20 18446744073709550000 3 4500 1000",
            "flow 1 2 4611686018427387905 1 100 1",
            "flow 1 2 4611686018427387000 2 100 1000",
            "flow 1 2 0 4294967295 100 18446744073709551615",
        ] {
            let (line, message) = line_of(flow);
            assert_eq!(line, 3, "{flow}");
            assert!(message.contains("last injection"), "{flow}: {message}");
        }
        let (line, message) = line_of("flow 10 20 0 5000000000 4500 1000");
        assert_eq!(line, 3);
        assert!(message.contains("packets exceed"), "{message}");
        // Both bounds are inclusive.
        let edge = format!(
            "{HEADER}\nflow 1 2 {} 2 100 1\nflow 1 2 0 {MAX_PACKETS} 100 1\n",
            MAX_INJECTION_US - 1
        );
        assert_eq!(parse(&edge).unwrap().len(), 2);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = format!("{HEADER}\n# a comment\n\nflow 1 2 0 1 100 1\n");
        assert_eq!(parse(&text).unwrap().len(), 1);
    }

    #[test]
    fn window_suffix_roundtrips() {
        let text = format!("{HEADER}\nflow 1 2 0 5 7500 10 w8\n");
        let flows = parse(&text).unwrap();
        assert_eq!(flows[0].window, Some(8));
        assert_eq!(parse(&write(&flows)).unwrap(), flows);
    }

    #[test]
    fn declared_duration_roundtrips() {
        let flows = sample();
        let text = write_with_duration(&flows, Some(10_000_000));
        let trace = parse_trace(&text).unwrap();
        assert_eq!(trace.declared_duration_us, Some(10_000_000));
        assert_eq!(trace.flows, flows);
        // `write` declares nothing; `parse` ignores metadata either way.
        assert_eq!(
            parse_trace(&write(&flows)).unwrap().declared_duration_us,
            None
        );
        assert_eq!(parse(&text).unwrap(), flows);
    }

    #[test]
    fn unsupported_version_is_distinguished_from_non_trace() {
        match parse("# massf-trace v9\nflow 1 2 0 1 100 1\n") {
            Err(TraceError::BadVersion { found }) => assert_eq!(found, "# massf-trace v9"),
            other => panic!("expected BadVersion, got {other:?}"),
        }
        assert_eq!(parse("hello\n"), Err(TraceError::BadHeader));
    }
}

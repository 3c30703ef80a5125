//! The network description file format.
//!
//! MaSSF inherits SSF's DML configuration language; this module implements a
//! compact line-oriented equivalent sufficient for the mapping problem
//! ("this information is stored in the network description file and can be
//! easily translated to a vertex and adjacent edge graph", §2.2.1):
//!
//! ```text
//! # comment
//! node <id> router|host "<name>" as <as_id>
//! link <a> <b> bw <mbps> lat <microseconds>
//! ```
//!
//! Node ids must be dense and in order (this keeps the file a faithful dump
//! of the in-memory model). [`write()`] and [`parse`] round-trip exactly.

use crate::model::{Network, NodeKind};

/// Errors from [`parse`].
#[derive(Debug, Clone, PartialEq)]
pub enum DmlError {
    /// A line could not be tokenized or had the wrong shape.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// Node ids were not dense and ascending.
    NonDenseIds {
        /// 1-based line number.
        line: usize,
    },
}

impl std::fmt::Display for DmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DmlError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            DmlError::NonDenseIds { line } => {
                write!(f, "line {line}: node ids must be dense and ascending")
            }
        }
    }
}

impl std::error::Error for DmlError {}

/// Largest per-link latency [`parse`] accepts: 10¹² µs (≈ 11.6 days), the
/// same plausibility horizon the lint passes hold schedules to. Path
/// latencies are `u64` sums of link latencies and `u64::MAX` is the
/// "unreachable" sentinel; under this bound a route would need more than
/// 18 million hops to overflow into it.
pub const MAX_LINK_LATENCY_US: u64 = 1_000_000_000_000;

/// Smallest per-link bandwidth [`parse`] accepts, in Mbps:
/// 8·(2³²−1)/10¹² ≈ 0.0344. At this rate the largest packet a flow can
/// send (`u32::MAX` bytes) serializes in [`MAX_LINK_LATENCY_US`]; on a
/// slower link the engine's serialization time saturates and packet
/// arrival times wrap. Every shipped link is at least 1 Mbps.
pub const MIN_LINK_BANDWIDTH_MBPS: f64 = 8.0 * u32::MAX as f64 / MAX_LINK_LATENCY_US as f64;

/// Serializes a network to the description format.
pub fn write(net: &Network) -> String {
    let mut out = String::with_capacity(64 * net.node_count());
    out.push_str("# MaSSF network description\n");
    for n in net.nodes() {
        let kind = match n.kind {
            NodeKind::Router => "router",
            NodeKind::Host => "host",
        };
        out.push_str(&format!(
            "node {} {} \"{}\" as {}\n",
            n.id, kind, n.name, n.as_id
        ));
    }
    for l in net.links() {
        out.push_str(&format!(
            "link {} {} bw {} lat {}\n",
            l.a, l.b, l.bandwidth_mbps, l.latency_us
        ));
    }
    out
}

/// Parses a network from the description format.
pub fn parse(text: &str) -> Result<Network, DmlError> {
    let mut net = Network::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let syntax = |message: &str| DmlError::Syntax {
            line: line_no,
            message: message.into(),
        };

        if let Some(rest) = line.strip_prefix("node ") {
            let (id_kind, rest) = split_name(rest).ok_or_else(|| syntax("missing quoted name"))?;
            let mut head = id_kind.split_whitespace();
            let id: u32 = head
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| syntax("bad node id"))?;
            let kind = match head.next() {
                Some("router") => NodeKind::Router,
                Some("host") => NodeKind::Host,
                _ => return Err(syntax("expected 'router' or 'host'")),
            };
            let (name, tail) = rest;
            let mut t = tail.split_whitespace();
            if t.next() != Some("as") {
                return Err(syntax("expected 'as <id>'"));
            }
            let as_id: u32 = t
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| syntax("bad as id"))?;
            if id as usize != net.node_count() {
                return Err(DmlError::NonDenseIds { line: line_no });
            }
            match kind {
                NodeKind::Router => net.add_router(name, as_id),
                NodeKind::Host => net.add_host(name, as_id),
            };
        } else if let Some(rest) = line.strip_prefix("link ") {
            let toks: Vec<&str> = rest.split_whitespace().collect();
            match toks.as_slice() {
                [a, b, "bw", bw, "lat", lat] => {
                    let a: u32 = a.parse().map_err(|_| syntax("bad endpoint"))?;
                    let b: u32 = b.parse().map_err(|_| syntax("bad endpoint"))?;
                    let bw: f64 = bw.parse().map_err(|_| syntax("bad bandwidth"))?;
                    let lat: u64 = lat.parse().map_err(|_| syntax("bad latency"))?;
                    if a as usize >= net.node_count() || b as usize >= net.node_count() {
                        return Err(syntax("link references unknown node"));
                    }
                    if a == b {
                        return Err(syntax("self-link"));
                    }
                    // `bw <= 0.0` alone lets NaN through (all comparisons
                    // with NaN are false) and infinity saturates the weight
                    // quantization, so demand a positive finite value.
                    if !bw.is_finite() || bw <= 0.0 {
                        return Err(syntax("bandwidth must be a positive finite number"));
                    }
                    if bw < MIN_LINK_BANDWIDTH_MBPS {
                        return Err(syntax(
                            "bandwidth below 0.0344 Mbps: a 4 GiB packet would take over 10^12 microseconds",
                        ));
                    }
                    if lat == 0 {
                        return Err(syntax("latency must be positive"));
                    }
                    if lat > MAX_LINK_LATENCY_US {
                        return Err(syntax("latency exceeds 10^12 microseconds"));
                    }
                    net.add_link(a, b, bw, lat);
                }
                _ => return Err(syntax("expected 'link <a> <b> bw <mbps> lat <us>'")),
            }
        } else {
            return Err(syntax("unknown directive"));
        }
    }
    Ok(net)
}

/// Splits `<head> "<name>" <tail>` into `(head, (name, tail))`.
fn split_name(s: &str) -> Option<(&str, (String, &str))> {
    let open = s.find('"')?;
    let close_rel = s[open + 1..].find('"')?;
    let name = s[open + 1..open + 1 + close_rel].to_string();
    let head = s[..open].trim();
    let tail = &s[open + close_rel + 2..];
    Some((head, (name, tail)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campus::campus;
    use crate::teragrid::teragrid;

    #[test]
    fn roundtrip_campus() {
        let net = campus();
        let text = write(&net);
        let back = parse(&text).unwrap();
        assert_eq!(net, back);
    }

    #[test]
    fn roundtrip_teragrid() {
        let net = teragrid();
        assert_eq!(parse(&write(&net)).unwrap(), net);
    }

    #[test]
    fn parses_minimal_network() {
        let text = r#"
# tiny
node 0 router "r0" as 0
node 1 host "a host" as 3
link 0 1 bw 100.5 lat 20
"#;
        let net = parse(text).unwrap();
        assert_eq!(net.node_count(), 2);
        assert_eq!(net.node(1).name, "a host");
        assert_eq!(net.node(1).as_id, 3);
        let l = net.link(crate::model::LinkId(0));
        assert!((l.bandwidth_mbps - 100.5).abs() < 1e-9);
        assert_eq!(l.latency_us, 20);
    }

    #[test]
    fn rejects_sparse_ids() {
        let text = "node 1 router \"r\" as 0\n";
        assert!(matches!(
            parse(text),
            Err(DmlError::NonDenseIds { line: 1 })
        ));
    }

    #[test]
    fn rejects_unknown_directive() {
        assert!(matches!(
            parse("frob 1 2\n"),
            Err(DmlError::Syntax { line: 1, .. })
        ));
    }

    #[test]
    fn rejects_dangling_link() {
        let text = "node 0 router \"r\" as 0\nlink 0 5 bw 10 lat 1\n";
        assert!(matches!(parse(text), Err(DmlError::Syntax { line: 2, .. })));
    }

    #[test]
    fn rejects_non_finite_bandwidth() {
        for bad in ["NaN", "inf", "-inf"] {
            let text = format!(
                "node 0 router \"r\" as 0\nnode 1 router \"s\" as 0\nlink 0 1 bw {bad} lat 5\n"
            );
            assert!(
                matches!(parse(&text), Err(DmlError::Syntax { line: 3, .. })),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn rejects_zero_latency() {
        let text = "node 0 router \"r\" as 0\nnode 1 router \"s\" as 0\nlink 0 1 bw 10 lat 0\n";
        assert!(parse(text).is_err());
    }

    #[test]
    fn rejects_latency_beyond_the_plausibility_horizon() {
        // `u64::MAX` used to parse, then overflowed Dijkstra's distance
        // sum (`massf check --audit` panicked in dev builds and wrapped
        // into bogus MC014 errors in release).
        let head = "node 0 router \"r\" as 0\nnode 1 router \"s\" as 0\n";
        for lat in [u64::MAX, MAX_LINK_LATENCY_US + 1] {
            let err = parse(&format!("{head}link 0 1 bw 100 lat {lat}\n")).unwrap_err();
            assert!(
                matches!(&err, DmlError::Syntax { line: 3, message } if message.contains("latency")),
                "{err}"
            );
        }
        let at_bound = format!("{head}link 0 1 bw 100 lat {MAX_LINK_LATENCY_US}\n");
        assert_eq!(parse(&at_bound).unwrap().links().len(), 1);
    }

    #[test]
    fn rejects_bandwidth_below_the_serialization_floor() {
        // `bw 1e-300` used to parse; `massf run` then aborted on a wrapped
        // arrival time and `massf ping` printed a wrapped RTT.
        let head = "node 0 router \"r\" as 0\nnode 1 router \"s\" as 0\n";
        let floor = MIN_LINK_BANDWIDTH_MBPS;
        for bw in [1e-300, floor * (1.0 - 1e-9), 0.0343] {
            let err = parse(&format!("{head}link 0 1 bw {bw} lat 10\n")).unwrap_err();
            assert!(
                matches!(&err, DmlError::Syntax { line: 3, message } if message.contains("bandwidth")),
                "{bw}: {err}"
            );
        }
        let at_floor = parse(&format!("{head}link 0 1 bw {floor} lat 10\n")).unwrap();
        assert_eq!(at_floor.links()[0].bandwidth_mbps, floor);
        // The largest packet serializes within the latency bound there.
        let tx_us = (u32::MAX as f64 * 8.0 / floor).ceil();
        assert!(tx_us <= MAX_LINK_LATENCY_US as f64, "{tx_us}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# hello\n\nnode 0 host \"h\" as 0\n";
        assert_eq!(parse(text).unwrap().node_count(), 1);
    }

    #[test]
    fn name_with_spaces_roundtrips() {
        let mut net = Network::new();
        net.add_router("core router one", 7);
        assert_eq!(parse(&write(&net)).unwrap(), net);
    }
}

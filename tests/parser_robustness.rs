//! Never-panic properties for the three text formats read from outside
//! the program — the network description (`dml::parse`), the traffic spec
//! (`spec::parse_traffic`) and the trace file (`tracefile::parse`):
//! arbitrary bytes and damaged copies of the shipped
//! `examples/scenarios/*` files go in, `Ok` or `Err` comes out, and the
//! parse never holds more than a small multiple of its input.
//!
//! The inputs under `tests/fixtures/hostile/` are the named cases: each
//! used to get past its parser and panic or corrupt a later stage.

mod common;

use common::peak_bytes;
use massf_core::topology::dml;
use massf_core::traffic::{spec, tracefile, FlowSpec};
use massf_repro::cli;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Feeds `text` to all three parsers. Whatever a parser accepts must be
/// inside the bounds later stages rely on, and no parse may hold more than
/// 64 bytes per input byte (a node line of ~20 bytes becomes a name, a
/// node record and an adjacency list) plus a fixed 4 KiB.
fn parse_all(text: &str) {
    let budget = 64 * text.len() + 4096;

    let (net, peak) = peak_bytes(|| dml::parse(text));
    assert!(
        peak <= budget,
        "dml::parse held {peak} B for {} B",
        text.len()
    );
    if let Ok(net) = net {
        for l in net.links() {
            assert!((1..=dml::MAX_LINK_LATENCY_US).contains(&l.latency_us));
            assert!(
                l.bandwidth_mbps.is_finite() && l.bandwidth_mbps >= dml::MIN_LINK_BANDWIDTH_MBPS
            );
        }
    }

    let (kind, peak) = peak_bytes(|| spec::parse_traffic(text));
    assert!(
        peak <= budget,
        "parse_traffic held {peak} B for {} B",
        text.len()
    );
    let max = spec::MAX_COUNT as usize;
    match kind {
        Ok(spec::TrafficKind::Http(c)) => {
            assert!(c.server_count <= max && c.clients_per_server <= max);
            assert!(c.request_size_bytes <= spec::MAX_REQUEST_BYTES);
        }
        Ok(spec::TrafficKind::Cbr(c)) => assert!(c.sessions <= max),
        Ok(spec::TrafficKind::OnOff(c)) => assert!(c.sessions <= max),
        Err(_) => {}
    }

    let (flows, peak) = peak_bytes(|| tracefile::parse(text));
    assert!(
        peak <= budget,
        "tracefile::parse held {peak} B for {} B",
        text.len()
    );
    if let Ok(flows) = flows {
        for f in flows {
            assert!(f.packets >= 1 && f.packet_interval_us >= 1);
            assert!(f.packets <= tracefile::MAX_PACKETS, "{f:?}");
            let last_us = (f.packets - 1) as u128 * f.packet_interval_us as u128;
            assert!(f.start_us as u128 + last_us <= tracefile::MAX_INJECTION_US as u128);
        }
    }
}

/// The shipped scenario files, plus a trace (none ships under
/// `examples/`): the documents the mutation property damages.
fn documents() -> &'static [String] {
    static DOCS: OnceLock<Vec<String>> = OnceLock::new();
    DOCS.get_or_init(read_documents)
}

fn read_documents() -> Vec<String> {
    let mut docs: Vec<String> = [
        "brite.dml",
        "campus.dml",
        "teragrid.dml",
        "cbr.txt",
        "http.txt",
        "onoff.txt",
    ]
    .iter()
    .map(|f| std::fs::read_to_string(format!("examples/scenarios/{f}")).expect(f))
    .collect();
    let flows: Vec<FlowSpec> = (0..8)
        .map(|i| FlowSpec {
            src: i,
            dst: i + 1,
            start_us: 100 * i as u64,
            packets: 3 + i as u64,
            bytes: 1500,
            packet_interval_us: 50,
            window: (i % 2 == 0).then_some(4),
        })
        .collect();
    docs.push(tracefile::write_with_duration(&flows, Some(10_000)));
    docs
}

/// Tokens that sit on a numeric edge of some parser.
const HOSTILE_TOKENS: &[&str] = &[
    "18446744073709551615",
    "18446744073709551616",
    "18446744073709550000",
    "4611686018427387905",
    "5000000000",
    "4294967296",
    "4000000000",
    "1000000000001",
    "0",
    "-1",
    "1e309",
    "NaN",
    "inf",
    "18446744073709551615KByte",
    "w0",
    "\"",
    "{",
    "}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parsers_never_panic_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        parse_all(&String::from_utf8_lossy(&bytes));
    }

    /// Damage to a real file: overwrite, delete, insert or truncate a
    /// byte, or swap a whole token for a hostile one. The CLI reads files
    /// as UTF-8, so damage that breaks the encoding is folded back in
    /// lossily.
    #[test]
    fn parsers_never_panic_on_mutated_scenario_files(
        doc in any::<usize>(),
        edits in prop::collection::vec((any::<usize>(), 0u8..6, any::<u8>()), 1..8),
    ) {
        let docs = documents();
        let mut bytes = docs[doc % docs.len()].clone().into_bytes();
        for (at, op, byte) in edits {
            let at = at % bytes.len().max(1);
            match op {
                _ if bytes.is_empty() => bytes.push(byte),
                0 => bytes[at] = byte,
                1 => {
                    bytes.remove(at);
                }
                2 => bytes.insert(at, byte),
                3 => bytes.truncate(at),
                _ => {
                    // Replace the token around `at`.
                    let is_space = |b: &u8| b.is_ascii_whitespace();
                    let start = bytes[..at].iter().rposition(is_space).map_or(0, |p| p + 1);
                    let end = bytes[at..].iter().position(is_space).map_or(bytes.len(), |p| at + p);
                    let token = HOSTILE_TOKENS[byte as usize % HOSTILE_TOKENS.len()];
                    bytes.splice(start..end, token.bytes());
                }
            }
        }
        parse_all(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn shipped_scenario_files_parse_within_the_budget() {
    // Keeps the mutation property honest: its starting points are
    // documents their parsers accept.
    let docs = documents();
    for doc in docs {
        parse_all(doc);
    }
    // ... and the watermark is really wired in.
    let (net, peak) = peak_bytes(|| dml::parse(&docs[0]));
    assert!(peak >= std::mem::size_of_val(net.unwrap().links()));
    assert!(docs[..3].iter().all(|d| dml::parse(d).is_ok()));
    assert!(docs[3..6].iter().all(|d| spec::parse_traffic(d).is_ok()));
    assert!(tracefile::parse(&docs[6]).is_ok());
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[test]
fn link_latency_of_u64_max_is_a_line_numbered_diagnostic() {
    let hostile = "tests/fixtures/hostile/latency_overflow.dml";
    parse_all(&std::fs::read_to_string(hostile).unwrap());
    for extra in [&[][..], &["--engines", "2", "--audit"][..]] {
        let mut argv = vec!["check", hostile];
        argv.extend_from_slice(extra);
        let e = cli::run(&args(&argv)).unwrap_err();
        assert!(e.0.contains("line 7") && e.0.contains("latency"), "{e}");
    }
}

#[test]
fn link_bandwidth_below_the_floor_is_a_line_numbered_diagnostic() {
    let hostile = "tests/fixtures/hostile/bandwidth_underflow.dml";
    parse_all(&std::fs::read_to_string(hostile).unwrap());
    for argv in [
        &["check", hostile][..],
        &["run", hostile, "--engines", "2", "--duration-s", "1"][..],
        &["ping", hostile, "h0", "h1"][..],
    ] {
        let e = cli::run(&args(argv)).unwrap_err();
        assert!(e.0.contains("line 8") && e.0.contains("bandwidth"), "{e}");
    }
}

#[test]
fn trace_flows_past_the_time_or_packet_bound_are_a_line_numbered_diagnostic() {
    let net = "examples/scenarios/campus.dml";
    for (fixture, what) in [
        ("injection_overflow", "last injection"),
        ("packets_overflow", "packets exceed"),
    ] {
        let hostile = format!("tests/fixtures/hostile/{fixture}.txt");
        let text = std::fs::read_to_string(&hostile).unwrap();
        parse_all(&text);
        assert!(tracefile::parse(&text).is_err(), "{fixture}");
        for argv in [
            vec!["replay", net, &hostile, "--engines", "2"],
            vec!["check", &hostile, "--network", net],
        ] {
            let e = cli::run(&args(&argv)).unwrap_err();
            assert!(
                e.0.contains("line 4") && e.0.contains(what),
                "{argv:?}: {e}"
            );
        }
    }
}

#[test]
fn session_counts_past_the_bound_are_a_diagnostic() {
    let hostile = "tests/fixtures/hostile/sessions_overflow.txt";
    parse_all(&std::fs::read_to_string(hostile).unwrap());
    let net = "examples/scenarios/campus.dml";
    let e = cli::run(&args(&["check", net, "--traffic", hostile])).unwrap_err();
    assert!(e.0.contains("sessions") && e.0.contains("exceeds"), "{e}");
    let e = cli::run(&args(&["run", net, "--traffic", hostile])).unwrap_err();
    assert!(e.0.contains("sessions") && e.0.contains("exceeds"), "{e}");

    // Fits a u64 and used to reach the generator's 32 GB allocation.
    let dir = std::env::temp_dir().join(format!("massf_hostile_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (key, block) in [
        ("sessions", "name CBR\n sessions 4000000000\n rate_mbps 4"),
        ("sessions", "name ONOFF\n sessions 4000000000"),
        (
            "client_per_server",
            "name HTTP\n client_per_server 4000000000",
        ),
        ("server_number", "name HTTP\n server_number 4000000000"),
        (
            "request_size",
            "name HTTP\n request_size 18446744073709551615",
        ),
        (
            "request_size",
            "name HTTP\n request_size 18446744073709551615KByte",
        ),
    ] {
        let path = dir.join("spec.txt");
        std::fs::write(&path, format!("traffic {{\n {block}\n}}\n")).unwrap();
        let e = cli::run(&args(&["check", net, "--traffic", path.to_str().unwrap()])).unwrap_err();
        assert!(e.0.contains(key), "{block}: {e}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

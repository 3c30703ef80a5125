//! Parser for the paper's background-traffic description blocks (§4.1.4):
//!
//! ```text
//! traffic {
//!   name HTTP
//!   request_size 200KByte
//!   think_time 12
//!   client_per_server 10
//!   server_number 107
//! }
//! ```

use crate::http::HttpConfig;

/// Errors from [`parse_traffic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The block did not have the `traffic { ... }` shape.
    Malformed(String),
    /// A key had an unparsable value.
    BadValue {
        /// The offending key.
        key: String,
        /// The raw value text.
        value: String,
    },
    /// A count or size was past what the generators can hold.
    TooLarge {
        /// The offending key.
        key: String,
        /// The raw value text.
        value: String,
        /// The largest accepted value.
        max: u64,
    },
    /// The `name` was not a supported generator.
    UnknownGenerator(String),
}

/// Largest value of a count key (`sessions`, `client_per_server`,
/// `server_number`). Generators allocate per session before any flow is
/// scheduled and the linter doubles the count, so an unbounded `usize`
/// from a spec file is an allocation of its choosing; a million sessions
/// is far past any topology the emulator holds.
pub const MAX_COUNT: u64 = 1_000_000;

/// Largest `request_size`: 1 TiB. Sizes are turned into bits (`× 8`)
/// downstream.
pub const MAX_REQUEST_BYTES: u64 = 1 << 40;

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Malformed(m) => write!(f, "malformed traffic block: {m}"),
            SpecError::BadValue { key, value } => write!(f, "bad value for {key}: {value:?}"),
            SpecError::TooLarge { key, value, max } => {
                write!(f, "{key} {value} exceeds the maximum of {max}")
            }
            SpecError::UnknownGenerator(n) => write!(f, "unknown traffic generator {n:?}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Parses a size literal: plain bytes, or with `KByte` / `MByte` / `KB` /
/// `MB` suffix (case-insensitive, 1024-based as in the paper's 200KByte).
pub fn parse_size(text: &str) -> Option<u64> {
    let t = text.trim();
    let lower = t.to_ascii_lowercase();
    for (suffix, mult) in [
        ("kbyte", 1024u64),
        ("mbyte", 1024 * 1024),
        ("kb", 1024),
        ("mb", 1024 * 1024),
    ] {
        if let Some(num) = lower.strip_suffix(suffix) {
            return num.trim().parse::<u64>().ok()?.checked_mul(mult);
        }
    }
    lower.parse().ok()
}

/// `parsed` — the value as a number, `None` when it was not one — held
/// to `max`.
fn bounded(key: &str, value: &str, parsed: Option<u64>, max: u64) -> Result<u64, SpecError> {
    let (key, value) = (key.to_string(), value.to_string());
    match parsed {
        None => Err(SpecError::BadValue { key, value }),
        Some(v) if v > max => Err(SpecError::TooLarge { key, value, max }),
        Some(v) => Ok(v),
    }
}

/// Parses a count key, held to [`MAX_COUNT`].
fn count(key: &str, value: &str) -> Result<usize, SpecError> {
    bounded(key, value, value.parse().ok(), MAX_COUNT).map(|v| v as usize)
}

/// Parses a `traffic { ... }` block that names the HTTP generator into an
/// [`HttpConfig`]: [`parse_traffic`] narrowed to [`TrafficKind::Http`], so
/// a block naming another generator is [`SpecError::UnknownGenerator`].
pub fn parse_http(text: &str) -> Result<HttpConfig, SpecError> {
    match parse_traffic(text)? {
        TrafficKind::Http(cfg) => Ok(cfg),
        other => Err(SpecError::UnknownGenerator(other.label().into())),
    }
}

fn extract_body(text: &str) -> Result<&str, SpecError> {
    let t = text.trim();
    let rest = t
        .strip_prefix("traffic")
        .ok_or_else(|| SpecError::Malformed("must start with 'traffic'".into()))?
        .trim_start();
    let rest = rest
        .strip_prefix('{')
        .ok_or_else(|| SpecError::Malformed("missing '{'".into()))?;
    let close = rest
        .rfind('}')
        .ok_or_else(|| SpecError::Malformed("missing '}'".into()))?;
    Ok(&rest[..close])
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_BLOCK: &str = r#"
traffic {
  name HTTP
  request_size 200KByte
  think_time 12
  client_per_server 10
  server_number 107
}
"#;

    #[test]
    fn parses_the_papers_example() {
        let cfg = parse_http(PAPER_BLOCK).unwrap();
        assert_eq!(cfg.request_size_bytes, 200 * 1024);
        assert_eq!(cfg.think_time_s, 12.0);
        assert_eq!(cfg.clients_per_server, 10);
        assert_eq!(cfg.server_count, 107);
    }

    #[test]
    fn size_suffixes() {
        assert_eq!(parse_size("200KByte"), Some(200 * 1024));
        assert_eq!(parse_size("2MByte"), Some(2 * 1024 * 1024));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("3kb"), Some(3 * 1024));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn defaults_preserved_for_absent_keys() {
        let cfg = parse_http("traffic { name HTTP }").unwrap();
        assert_eq!(cfg, HttpConfig::default());
    }

    #[test]
    fn rejects_unknown_generator() {
        let err = parse_http("traffic { name FTP }").unwrap_err();
        assert!(matches!(err, SpecError::UnknownGenerator(_)));
    }

    #[test]
    fn rejects_unknown_key() {
        assert!(matches!(
            parse_http("traffic { name HTTP\n bogus 3 }"),
            Err(SpecError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_bad_value() {
        assert!(matches!(
            parse_http("traffic { name HTTP\n think_time soon }"),
            Err(SpecError::BadValue { .. })
        ));
    }

    #[test]
    fn rejects_missing_braces() {
        assert!(parse_http("traffic name HTTP").is_err());
        assert!(parse_http("name HTTP").is_err());
    }
}

/// Any background generator the spec format can describe.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficKind {
    /// The paper's HTTP generator (§4.1.4).
    Http(crate::http::HttpConfig),
    /// Constant bit rate.
    Cbr(crate::cbr::CbrConfig),
    /// Poisson on/off sources.
    OnOff(crate::onoff::OnOffConfig),
}

impl TrafficKind {
    /// Canonical generator name as written in the spec's `name` key.
    pub fn label(&self) -> &'static str {
        match self {
            TrafficKind::Http(_) => "HTTP",
            TrafficKind::Cbr(_) => "CBR",
            TrafficKind::OnOff(_) => "ONOFF",
        }
    }

    /// Minimum number of hosts the generator needs: every generator pairs
    /// distinct endpoints, so fewer hosts make generation panic or loop.
    pub fn min_hosts(&self) -> usize {
        2
    }

    /// True when the configuration generates no sessions at all (a
    /// degenerate spec the preflight linter flags).
    pub fn is_empty(&self) -> bool {
        match self {
            TrafficKind::Http(cfg) => cfg.server_count == 0 || cfg.clients_per_server == 0,
            TrafficKind::Cbr(cfg) => cfg.sessions == 0,
            TrafficKind::OnOff(cfg) => cfg.sessions == 0,
        }
    }
}

/// Parses any supported `traffic { ... }` block, dispatching on its `name`
/// key (HTTP, CBR, ONOFF — case-insensitive). Unknown keys are rejected;
/// absent keys keep their defaults. `name` may repeat only with the same
/// generator.
pub fn parse_traffic(text: &str) -> Result<TrafficKind, SpecError> {
    let body = extract_body(text)?;
    let mut name: Option<&str> = None;
    for_each_kv(body, |key, value| {
        match name {
            _ if key != "name" => {}
            Some(first) if !first.eq_ignore_ascii_case(value) => {
                let both = format!("'name' is both {first:?} and {value:?}");
                return Err(SpecError::Malformed(both));
            }
            _ => name = Some(value),
        }
        Ok(())
    })?;
    let name = name.ok_or_else(|| SpecError::Malformed("missing 'name' key".into()))?;
    match name.to_ascii_lowercase().as_str() {
        "http" => parse_http_body(body).map(TrafficKind::Http),
        "cbr" => parse_cbr(body).map(TrafficKind::Cbr),
        "onoff" => parse_onoff(body).map(TrafficKind::OnOff),
        _ => Err(SpecError::UnknownGenerator(name.into())),
    }
}

fn parse_http_body(body: &str) -> Result<HttpConfig, SpecError> {
    let mut cfg = HttpConfig::default();
    for_each_kv(body, |key, value| {
        let bad = || SpecError::BadValue {
            key: key.into(),
            value: value.into(),
        };
        match key {
            "name" => Ok(()),
            "request_size" => bounded(key, value, parse_size(value), MAX_REQUEST_BYTES)
                .map(|v| cfg.request_size_bytes = v),
            "think_time" => value
                .parse()
                .map(|v| cfg.think_time_s = v)
                .map_err(|_| bad()),
            "client_per_server" => count(key, value).map(|v| cfg.clients_per_server = v),
            "server_number" => count(key, value).map(|v| cfg.server_count = v),
            "seed" => value.parse().map(|v| cfg.seed = v).map_err(|_| bad()),
            _ => Err(SpecError::Malformed(format!("unknown key {key:?}"))),
        }
    })?;
    Ok(cfg)
}

fn parse_cbr(body: &str) -> Result<crate::cbr::CbrConfig, SpecError> {
    let mut cfg = crate::cbr::CbrConfig::default();
    for_each_kv(body, |key, value| {
        let bad = || SpecError::BadValue {
            key: key.into(),
            value: value.into(),
        };
        match key {
            "name" => Ok(()),
            "sessions" => count(key, value).map(|v| cfg.sessions = v),
            "rate_mbps" => value.parse().map(|v| cfg.rate_mbps = v).map_err(|_| bad()),
            "seed" => value.parse().map(|v| cfg.seed = v).map_err(|_| bad()),
            _ => Err(SpecError::Malformed(format!("unknown key {key:?}"))),
        }
    })?;
    Ok(cfg)
}

fn parse_onoff(body: &str) -> Result<crate::onoff::OnOffConfig, SpecError> {
    let mut cfg = crate::onoff::OnOffConfig::default();
    for_each_kv(body, |key, value| {
        let bad = || SpecError::BadValue {
            key: key.into(),
            value: value.into(),
        };
        match key {
            "name" => Ok(()),
            "sessions" => count(key, value).map(|v| cfg.sessions = v),
            "peak_mbps" => value.parse().map(|v| cfg.peak_mbps = v).map_err(|_| bad()),
            "mean_on_ms" => value
                .parse::<f64>()
                .map(|v| cfg.mean_on_us = v * 1e3)
                .map_err(|_| bad()),
            "mean_off_ms" => value
                .parse::<f64>()
                .map(|v| cfg.mean_off_us = v * 1e3)
                .map_err(|_| bad()),
            "seed" => value.parse().map(|v| cfg.seed = v).map_err(|_| bad()),
            _ => Err(SpecError::Malformed(format!("unknown key {key:?}"))),
        }
    })?;
    Ok(cfg)
}

fn for_each_kv<'a>(
    body: &'a str,
    mut f: impl FnMut(&'a str, &'a str) -> Result<(), SpecError>,
) -> Result<(), SpecError> {
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| SpecError::Malformed(format!("no value on line {line:?}")))?;
        f(key, value.trim())?;
    }
    Ok(())
}

#[cfg(test)]
mod kind_tests {
    use super::*;

    #[test]
    fn dispatches_on_name() {
        assert!(matches!(
            parse_traffic("traffic { name HTTP }"),
            Ok(TrafficKind::Http(_))
        ));
        assert!(matches!(
            parse_traffic("traffic { name CBR }"),
            Ok(TrafficKind::Cbr(_))
        ));
        assert!(matches!(
            parse_traffic("traffic { name OnOff }"),
            Ok(TrafficKind::OnOff(_))
        ));
        assert!(matches!(
            parse_traffic("traffic { name Carrier }"),
            Err(SpecError::UnknownGenerator(_))
        ));
    }

    #[test]
    fn cbr_fields() {
        let k = parse_traffic("traffic { name CBR\n sessions 7\n rate_mbps 3.5 }").unwrap();
        let TrafficKind::Cbr(cfg) = k else {
            panic!("wrong kind")
        };
        assert_eq!(cfg.sessions, 7);
        assert!((cfg.rate_mbps - 3.5).abs() < 1e-12);
    }

    #[test]
    fn onoff_fields_in_milliseconds() {
        let k = parse_traffic(
            "traffic { name ONOFF\n peak_mbps 20\n mean_on_ms 100\n mean_off_ms 400 }",
        )
        .unwrap();
        let TrafficKind::OnOff(cfg) = k else {
            panic!("wrong kind")
        };
        assert!((cfg.peak_mbps - 20.0).abs() < 1e-12);
        assert!((cfg.mean_on_us - 100_000.0).abs() < 1e-9);
        assert!((cfg.duty_cycle() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn counts_and_sizes_are_bounded() {
        // `sessions 18446744073709551615` used to parse and overflow the
        // linter's `2 * sessions`; `4000000000` reached a 32 GB allocation.
        for block in [
            "name CBR\n sessions 18446744073709551615",
            "name CBR\n sessions 4000000000",
            "name ONOFF\n sessions 1000001",
            "name HTTP\n client_per_server 1000001",
            "name HTTP\n server_number 1000001",
            "name HTTP\n request_size 1048577MByte",
        ] {
            let err = parse_traffic(&format!("traffic {{ {block} }}")).unwrap_err();
            assert!(matches!(err, SpecError::TooLarge { .. }), "{block}: {err}");
        }
        // The suffix multiplication itself must not overflow.
        assert_eq!(parse_size("18446744073709551615KByte"), None);
        let err = parse_traffic("traffic { name CBR\n sessions 4000000000 }").unwrap_err();
        assert_eq!(
            err.to_string(),
            "sessions 4000000000 exceeds the maximum of 1000000"
        );
        let at_bound = parse_traffic("traffic { name CBR\n sessions 1000000 }").unwrap();
        assert!(matches!(at_bound, TrafficKind::Cbr(c) if c.sessions == 1_000_000));
        assert_eq!(parse_size("1024MByte"), Some(1 << 30));
    }

    #[test]
    fn name_is_an_exact_key_given_once() {
        // `names` is not `name`: the block names no generator.
        assert_eq!(
            parse_traffic("traffic { names CBR }"),
            Err(SpecError::Malformed("missing 'name' key".into()))
        );
        // Two different generators are refused whichever comes first.
        for (first, second) in [("CBR", "HTTP"), ("HTTP", "CBR"), ("ONOFF", "cbr")] {
            let block = format!("traffic {{ name {first}\n name {second} }}");
            assert!(
                matches!(parse_traffic(&block), Err(SpecError::Malformed(_))),
                "{block}"
            );
        }
        // The same generator twice is one generator.
        assert!(matches!(
            parse_traffic("traffic { name CBR\n name cbr }"),
            Ok(TrafficKind::Cbr(_))
        ));
    }

    #[test]
    fn unknown_cbr_key_rejected() {
        assert!(parse_traffic("traffic { name CBR\n color blue }").is_err());
    }

    #[test]
    fn introspection_methods() {
        let http = parse_traffic("traffic { name HTTP }").unwrap();
        let cbr = parse_traffic("traffic { name CBR\n sessions 0 }").unwrap();
        let onoff = parse_traffic("traffic { name OnOff }").unwrap();
        assert_eq!(http.label(), "HTTP");
        assert_eq!(cbr.label(), "CBR");
        assert_eq!(onoff.label(), "ONOFF");
        assert!(!http.is_empty());
        assert!(cbr.is_empty());
        assert!(!onoff.is_empty());
        assert_eq!(http.min_hosts(), 2);
    }
}

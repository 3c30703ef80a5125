//! The background HTTP workload (§4.1.4).
//!
//! The paper parameterizes its generator with a block like:
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
//!
//! "HTTP clients and servers are selected randomly from endpoints in the
//! virtual network." Each client loops: send a small GET (1 packet), wait
//! for the response (`request_size` bytes, heavy-tailed around the mean in
//! Barford–Crovella style), think for `think_time` seconds (exponential),
//! repeat. Responses are paced at [`RESPONSE_RATE_MBPS`]. The PLACE
//! predictor summarizes each client–server pair by its average bandwidth —
//! exactly the "gross characterization" of §3.2.

use crate::flow::{FlowSpec, PredictedFlow};
use massf_topology::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Response transfer rate in Mbps (server access-link class).
pub const RESPONSE_RATE_MBPS: f64 = 100.0;

/// Parameters of the HTTP background generator.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpConfig {
    /// Mean response size in bytes (the paper's `request_size`, 200 KByte).
    pub request_size_bytes: u64,
    /// Mean think time between requests, in seconds (the paper uses 12).
    pub think_time_s: f64,
    /// Clients attached to each server (the paper uses 10).
    pub clients_per_server: usize,
    /// Number of servers (the paper uses 107).
    pub server_count: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            request_size_bytes: 200 * 1024,
            think_time_s: 12.0,
            clients_per_server: 10,
            server_count: 107,
            seed: 0x477b,
        }
    }
}

impl HttpConfig {
    /// A lighter configuration ("moderate background traffic", §4.2.1)
    /// scaled to a topology with `hosts` endpoints.
    pub fn moderate_for(hosts: usize) -> Self {
        let server_count = (hosts / 3).clamp(1, 107);
        Self {
            server_count,
            clients_per_server: 3,
            ..Self::default()
        }
    }
}

/// A client–server session assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpSession {
    /// Client host.
    pub client: NodeId,
    /// Server host.
    pub server: NodeId,
}

/// Chooses servers and clients randomly from `hosts` (§4.1.4).
///
/// Servers are drawn without replacement (clamped to the host count);
/// clients are drawn independently for each server and may overlap, as in
/// the paper's generator.
pub fn assign_sessions(hosts: &[NodeId], cfg: &HttpConfig) -> Vec<HttpSession> {
    assert!(!hosts.is_empty(), "need at least one host");
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut pool = hosts.to_vec();
    pool.shuffle(&mut rng);
    let servers: Vec<NodeId> = pool
        .iter()
        .copied()
        .take(cfg.server_count.min(hosts.len()))
        .collect();

    let mut sessions = Vec::with_capacity(servers.len() * cfg.clients_per_server);
    for &server in &servers {
        for _ in 0..cfg.clients_per_server {
            // Resample until the client differs from the server (hosts ≥ 2).
            let client = loop {
                let c = hosts[rng.gen_range(0..hosts.len())];
                if c != server || hosts.len() == 1 {
                    break c;
                }
            };
            sessions.push(HttpSession { client, server });
        }
    }
    sessions
}

/// Generates the concrete flow schedule for `duration_us` of virtual time.
///
/// Each session produces request/response pairs: a 1-packet GET from the
/// client and a heavy-tailed response from the server (bounded Pareto with
/// the configured mean, shape 1.2, capped at 20× the mean).
pub fn generate(hosts: &[NodeId], cfg: &HttpConfig, duration_us: u64) -> Vec<FlowSpec> {
    let sessions = assign_sessions(hosts, cfg);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x9e3779b97f4a7c15);
    let mut flows = Vec::new();
    let think_us = (cfg.think_time_s * 1e6).max(1.0);

    for s in &sessions {
        // Stagger session starts across one think period.
        let mut t = (rng.gen::<f64>() * think_us) as u64;
        while t < duration_us {
            // GET request: one packet.
            flows.push(FlowSpec {
                src: s.client,
                dst: s.server,
                start_us: t,
                packets: 1,
                bytes: 300,
                packet_interval_us: 1,
                window: None,
            });
            // Response: bounded-Pareto bytes around the configured mean.
            let size = bounded_pareto(&mut rng, cfg.request_size_bytes);
            let resp =
                FlowSpec::from_bytes(s.server, s.client, t + 1_000, size, RESPONSE_RATE_MBPS);
            let resp_end = resp.end_us();
            flows.push(resp);
            // Exponential think time with the configured mean.
            let think = -think_us * (1.0 - rng.gen::<f64>()).ln();
            t = resp_end + think as u64 + 1;
        }
    }
    flows.sort_by_key(|f| (f.start_us, f.src, f.dst));
    flows
}

/// The PLACE-style prediction: each session contributes its long-run
/// average bandwidth `mean_size / (think + transfer)` from server to client
/// plus a negligible request stream (§3.2: traffic generators "provide some
/// prediction of their generated traffic load, for example, specifying the
/// average traffic bandwidth between two endpoints").
pub fn predict(hosts: &[NodeId], cfg: &HttpConfig) -> Vec<PredictedFlow> {
    let sessions = assign_sessions(hosts, cfg);
    let transfer_s = (cfg.request_size_bytes * 8) as f64 / (RESPONSE_RATE_MBPS * 1e6);
    let cycle_s = cfg.think_time_s + transfer_s;
    let avg_mbps = (cfg.request_size_bytes * 8) as f64 / 1e6 / cycle_s;
    sessions
        .iter()
        .map(|s| PredictedFlow {
            src: s.server,
            dst: s.client,
            bandwidth_mbps: avg_mbps,
        })
        .collect()
}

/// Bounded Pareto sample with mean `mean`, shape 1.2, support
/// `[mean/3, 20·mean]`. Heavy-tailed like measured web responses.
fn bounded_pareto<R: Rng>(rng: &mut R, mean: u64) -> u64 {
    let alpha = 1.2f64;
    let lo = (mean as f64 / 3.0).max(64.0);
    let hi = 20.0 * mean as f64;
    let u: f64 = rng.gen_range(0.0..1.0);
    let la = lo.powf(alpha);
    let ha = hi.powf(alpha);
    let x = (-(u * (1.0 - la / ha) - 1.0) / la).powf(-1.0 / alpha);
    // Rescale so the empirical mean tracks the configured mean: the raw
    // bounded Pareto with these parameters has mean ≈ 2.7·lo.
    let raw_mean = alpha / (alpha - 1.0) * lo * (1.0 - (lo / hi).powf(alpha - 1.0))
        / (1.0 - (lo / hi).powf(alpha));
    ((x / raw_mean) * mean as f64).round().max(64.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_topology::campus::campus;

    fn hosts() -> Vec<NodeId> {
        campus().hosts()
    }

    #[test]
    fn sessions_use_given_hosts_and_avoid_self_talk() {
        let hs = hosts();
        let cfg = HttpConfig {
            server_count: 10,
            clients_per_server: 4,
            ..Default::default()
        };
        let sessions = assign_sessions(&hs, &cfg);
        assert_eq!(sessions.len(), 40);
        for s in &sessions {
            assert!(hs.contains(&s.client) && hs.contains(&s.server));
            assert_ne!(s.client, s.server);
        }
    }

    #[test]
    fn server_count_clamped_to_hosts() {
        let hs = hosts(); // 40 hosts
        let cfg = HttpConfig {
            server_count: 107,
            clients_per_server: 1,
            ..Default::default()
        };
        let sessions = assign_sessions(&hs, &cfg);
        assert_eq!(sessions.len(), 40);
    }

    #[test]
    fn flows_within_duration_and_paired() {
        let hs = hosts();
        let cfg = HttpConfig {
            server_count: 5,
            clients_per_server: 2,
            think_time_s: 0.05,
            ..Default::default()
        };
        let flows = generate(&hs, &cfg, 2_000_000);
        assert!(!flows.is_empty());
        for f in &flows {
            assert!(f.start_us < 2_000_000 + 2_000_000, "start far past horizon");
            assert!(f.packets >= 1);
        }
        // Roughly half the flows are 1-packet requests.
        let requests = flows
            .iter()
            .filter(|f| f.packets == 1 && f.bytes == 300)
            .count();
        assert!(
            requests * 2 >= flows.len() - 2,
            "requests {requests} of {}",
            flows.len()
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let hs = hosts();
        let cfg = HttpConfig::default();
        assert_eq!(generate(&hs, &cfg, 500_000), generate(&hs, &cfg, 500_000));
        let other = HttpConfig { seed: 1, ..cfg };
        assert_ne!(
            assign_sessions(&hs, &other),
            assign_sessions(&hs, &HttpConfig::default())
        );
    }

    #[test]
    fn prediction_matches_sessions() {
        let hs = hosts();
        let cfg = HttpConfig {
            server_count: 8,
            clients_per_server: 3,
            ..Default::default()
        };
        let pred = predict(&hs, &cfg);
        assert_eq!(pred.len(), 24);
        for p in &pred {
            assert!(p.bandwidth_mbps > 0.0);
            // 200 KiB every ~12 s is ~0.13 Mbps.
            assert!(
                p.bandwidth_mbps < 1.0,
                "prediction too hot: {}",
                p.bandwidth_mbps
            );
        }
    }

    #[test]
    fn pareto_mean_tracks_configured_mean() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mean = 200 * 1024u64;
        let n = 4000;
        let total: u64 = (0..n).map(|_| bounded_pareto(&mut rng, mean)).sum();
        let emp = total as f64 / n as f64;
        assert!(
            (emp / mean as f64 - 1.0).abs() < 0.35,
            "empirical mean {emp} vs configured {mean}"
        );
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mean = 100_000u64;
        let samples: Vec<u64> = (0..4000).map(|_| bounded_pareto(&mut rng, mean)).collect();
        let max = *samples.iter().max().unwrap();
        let med = {
            let mut s = samples.clone();
            s.sort_unstable();
            s[s.len() / 2]
        };
        assert!(max > 8 * med, "tail too light: max {max}, median {med}");
    }
}

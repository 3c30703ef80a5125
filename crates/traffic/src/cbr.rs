//! Constant-bit-rate background traffic.
//!
//! The simplest "aggregate of traffic" a generator can describe to the
//! PLACE mapper (§3.2): each session streams at a fixed rate between two
//! endpoints, so the generator's self-prediction is *exact*. CBR sessions
//! therefore make PLACE behave like an oracle — a useful control in
//! mapping experiments.

use crate::flow::{FlowSpec, PredictedFlow};
use massf_topology::NodeId;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Parameters of the CBR generator.
#[derive(Debug, Clone, PartialEq)]
pub struct CbrConfig {
    /// Number of concurrent sessions (endpoint pairs).
    pub sessions: usize,
    /// Stream rate per session in Mbps.
    pub rate_mbps: f64,
    /// RNG seed for endpoint selection.
    pub seed: u64,
}

impl Default for CbrConfig {
    fn default() -> Self {
        Self {
            sessions: 10,
            rate_mbps: 2.0,
            seed: 0xcb5,
        }
    }
}

/// Picks disjoint endpoint pairs from `hosts` (wrapping into overlapping
/// pairs only when hosts run short).
pub fn assign_pairs(hosts: &[NodeId], cfg: &CbrConfig) -> Vec<(NodeId, NodeId)> {
    assert!(hosts.len() >= 2, "need at least two hosts");
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut pool = hosts.to_vec();
    pool.shuffle(&mut rng);
    (0..cfg.sessions)
        .map(|i| {
            let a = pool[(2 * i) % pool.len()];
            let mut b = pool[(2 * i + 1) % pool.len()];
            if a == b {
                b = pool[(2 * i + 2) % pool.len()];
            }
            (a, b)
        })
        .collect()
}

/// Generates the flow schedule: one continuous stream per session for
/// `duration_us` of virtual time.
pub fn generate(hosts: &[NodeId], cfg: &CbrConfig, duration_us: u64) -> Vec<FlowSpec> {
    let bytes_per_session = (cfg.rate_mbps * duration_us as f64 / 8.0) as u64;
    let mut flows: Vec<FlowSpec> = assign_pairs(hosts, cfg)
        .into_iter()
        .map(|(src, dst)| {
            FlowSpec::from_bytes(src, dst, 0, bytes_per_session.max(1), cfg.rate_mbps)
        })
        .collect();
    flows.sort_by_key(|f| (f.start_us, f.src, f.dst));
    flows
}

/// The generator's self-prediction — exact, by construction.
pub fn predict(hosts: &[NodeId], cfg: &CbrConfig) -> Vec<PredictedFlow> {
    assign_pairs(hosts, cfg)
        .into_iter()
        .map(|(src, dst)| PredictedFlow {
            src,
            dst,
            bandwidth_mbps: cfg.rate_mbps,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::tests::rate_mbps;

    fn hosts() -> Vec<NodeId> {
        (0..20).collect()
    }

    #[test]
    fn streams_at_configured_rate() {
        let cfg = CbrConfig {
            sessions: 4,
            rate_mbps: 8.0,
            seed: 1,
        };
        let flows = generate(&hosts(), &cfg, 1_000_000);
        assert_eq!(flows.len(), 4);
        for f in &flows {
            let avg = rate_mbps(f);
            assert!((avg - 8.0).abs() / 8.0 < 0.05, "avg {avg}");
            assert_eq!(f.bytes, 1_000_000);
        }
    }

    #[test]
    fn prediction_is_exact() {
        let cfg = CbrConfig::default();
        let hs = hosts();
        let flows = generate(&hs, &cfg, 2_000_000);
        let pred = predict(&hs, &cfg);
        assert_eq!(flows.len(), pred.len());
        // generate() sorts its output, so compare as endpoint sets.
        let mut fp: Vec<_> = flows.iter().map(|f| (f.src, f.dst)).collect();
        let mut pp: Vec<_> = pred.iter().map(|p| (p.src, p.dst)).collect();
        fp.sort_unstable();
        pp.sort_unstable();
        assert_eq!(fp, pp);
        for f in &flows {
            let avg = rate_mbps(f);
            assert!((avg - cfg.rate_mbps).abs() / cfg.rate_mbps < 0.05);
        }
    }

    #[test]
    fn no_self_talk() {
        let cfg = CbrConfig {
            sessions: 30,
            ..Default::default()
        }; // wraps the pool
        for (a, b) in assign_pairs(&hosts(), &cfg) {
            assert_ne!(a, b);
        }
    }

    #[test]
    fn deterministic() {
        let cfg = CbrConfig::default();
        assert_eq!(
            generate(&hosts(), &cfg, 500_000),
            generate(&hosts(), &cfg, 500_000)
        );
    }
}

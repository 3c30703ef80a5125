//! Poisson on/off background sources.
//!
//! The classic bursty-aggregate model: each session alternates between
//! exponentially-distributed ON periods (streaming at peak rate) and OFF
//! periods (silent). The generator's self-prediction for PLACE is its
//! long-run average `peak · on/(on+off)` — correct in expectation but
//! blind to burst timing, sitting between CBR (exact) and live
//! applications (unpredictable) on the predictability spectrum the paper's
//! three approaches explore.

use crate::flow::{FlowSpec, PredictedFlow};
use massf_topology::NodeId;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Parameters of the on/off generator.
#[derive(Debug, Clone, PartialEq)]
pub struct OnOffConfig {
    /// Number of sessions.
    pub sessions: usize,
    /// Peak rate during ON periods, Mbps.
    pub peak_mbps: f64,
    /// Mean ON duration, µs.
    pub mean_on_us: f64,
    /// Mean OFF duration, µs.
    pub mean_off_us: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OnOffConfig {
    fn default() -> Self {
        Self {
            sessions: 10,
            peak_mbps: 10.0,
            mean_on_us: 200_000.0,
            mean_off_us: 800_000.0,
            seed: 0x0f0f,
        }
    }
}

impl OnOffConfig {
    /// Long-run duty cycle `on/(on+off)`.
    pub fn duty_cycle(&self) -> f64 {
        self.mean_on_us / (self.mean_on_us + self.mean_off_us)
    }

    /// Long-run average rate in Mbps.
    pub fn average_mbps(&self) -> f64 {
        self.peak_mbps * self.duty_cycle()
    }
}

/// Generates bursts for `duration_us` of virtual time.
pub fn generate(hosts: &[NodeId], cfg: &OnOffConfig, duration_us: u64) -> Vec<FlowSpec> {
    assert!(hosts.len() >= 2);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut flows = Vec::new();
    for _ in 0..cfg.sessions {
        let src = hosts[rng.gen_range(0..hosts.len())];
        let dst = loop {
            let d = hosts[rng.gen_range(0..hosts.len())];
            if d != src {
                break d;
            }
        };
        // Start inside an OFF period on average.
        let mut t = (expo(&mut rng, cfg.mean_off_us)) as u64;
        while t < duration_us {
            let on = expo(&mut rng, cfg.mean_on_us).max(1_000.0);
            let bytes = (cfg.peak_mbps * on / 8.0) as u64;
            flows.push(FlowSpec::from_bytes(
                src,
                dst,
                t,
                bytes.max(1),
                cfg.peak_mbps,
            ));
            t += on as u64 + expo(&mut rng, cfg.mean_off_us) as u64 + 1;
        }
    }
    flows.sort_by_key(|f| (f.start_us, f.src, f.dst));
    flows
}

/// The generator's self-prediction: the long-run average per session.
pub fn predict(hosts: &[NodeId], cfg: &OnOffConfig) -> Vec<PredictedFlow> {
    assert!(hosts.len() >= 2);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    (0..cfg.sessions)
        .map(|_| {
            let src = hosts[rng.gen_range(0..hosts.len())];
            let dst = loop {
                let d = hosts[rng.gen_range(0..hosts.len())];
                if d != src {
                    break d;
                }
            };
            PredictedFlow {
                src,
                dst,
                bandwidth_mbps: cfg.average_mbps(),
            }
        })
        .collect()
}

fn expo<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    -mean * (1.0 - rng.gen::<f64>()).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::tests::rate_mbps;

    fn hosts() -> Vec<NodeId> {
        (0..16).collect()
    }

    #[test]
    fn average_rate_tracks_duty_cycle() {
        let cfg = OnOffConfig::default();
        assert!((cfg.duty_cycle() - 0.2).abs() < 1e-12);
        assert!((cfg.average_mbps() - 2.0).abs() < 1e-12);
        let duration = 60_000_000; // 60 s for statistics
        let flows = generate(&hosts(), &cfg, duration);
        let total_bits: u64 = flows.iter().map(|f| f.bytes * 8).sum();
        let avg = total_bits as f64 / duration as f64 / cfg.sessions as f64;
        assert!(
            (avg / cfg.average_mbps() - 1.0).abs() < 0.3,
            "avg per session {avg} vs expected {}",
            cfg.average_mbps()
        );
    }

    #[test]
    fn bursts_are_at_peak_rate() {
        let cfg = OnOffConfig::default();
        let flows = generate(&hosts(), &cfg, 5_000_000);
        for f in flows.iter().take(20) {
            let r = rate_mbps(f);
            assert!((r / cfg.peak_mbps - 1.0).abs() < 0.2, "burst rate {r}");
        }
    }

    #[test]
    fn bursty_not_continuous() {
        let cfg = OnOffConfig::default();
        let duration = 10_000_000u64;
        let flows = generate(&hosts(), &cfg, duration);
        // Total ON time per session well below the horizon.
        let on_total: u64 = flows.iter().map(|f| f.end_us() - f.start_us + 1).sum();
        assert!(
            (on_total as f64) < 0.5 * (duration * cfg.sessions as u64) as f64,
            "sources should be mostly OFF"
        );
    }

    #[test]
    fn prediction_matches_session_endpoints() {
        let cfg = OnOffConfig::default();
        let hs = hosts();
        let pred = predict(&hs, &cfg);
        assert_eq!(pred.len(), cfg.sessions);
        for p in &pred {
            assert_ne!(p.src, p.dst);
            assert!((p.bandwidth_mbps - cfg.average_mbps()).abs() < 1e-12);
        }
    }

    #[test]
    fn deterministic() {
        let cfg = OnOffConfig::default();
        assert_eq!(
            generate(&hosts(), &cfg, 1_000_000),
            generate(&hosts(), &cfg, 1_000_000)
        );
    }
}

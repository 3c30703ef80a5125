//! A drifting-hotspot background workload — the §6 stress case.
//!
//! "Load imbalance happens due to burst/variation of traffic injected from
//! the application. Static partitions are fundamentally limited for large
//! emulation if traffic varies widely." This generator makes that
//! variation explicit: the emulation period is divided into phases, and in
//! phase `i` traffic concentrates inside host group `i` (e.g. one campus
//! building, one grid site). Any single static partition must either split
//! every group across engines (large cut, small lookahead) or tolerate a
//! per-phase hotspot on one engine; a dynamic mapper can follow the drift.
//!
//! A caller picks the groups and the phase schedule. Every hot transfer
//! carries [`BYTES_PER_FLOW`] at [`RATE_MBPS`]; a trickle of
//! [`TRICKLE_RATIO`] as many tenth-size transfers between hosts of all
//! groups keeps the quiet groups warm; draws come from [`SEED`].

use crate::flow::FlowSpec;
use massf_topology::NodeId;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Parameters of the drifting-hotspot generator.
#[derive(Debug, Clone, PartialEq)]
pub struct HotspotConfig {
    /// Host groups; phase `i` concentrates traffic inside
    /// `groups[i % groups.len()]`.
    pub groups: Vec<Vec<NodeId>>,
    /// Length of one phase in µs.
    pub phase_len_us: u64,
    /// Number of phases (total horizon = phases × phase_len).
    pub phases: usize,
    /// Concurrent transfers inside the hot group per phase.
    pub flows_per_phase: usize,
}

/// Bytes per hot transfer; a trickle transfer carries a tenth of it.
pub const BYTES_PER_FLOW: u64 = 600_000;
/// Transfer rate of every flow in Mbps.
pub const RATE_MBPS: f64 = 80.0;
/// Background trickle between random hosts of *all* groups, as a fraction
/// of `flows_per_phase`.
pub const TRICKLE_RATIO: f64 = 0.15;
/// RNG seed.
pub const SEED: u64 = 0x407;

impl HotspotConfig {
    /// A default drift over the given groups: 6 phases of 2 s each.
    pub fn drift_over(groups: Vec<Vec<NodeId>>) -> Self {
        Self {
            groups,
            phase_len_us: 2_000_000,
            phases: 6,
            flows_per_phase: 24,
        }
    }
}

/// Generates the drifting-hotspot schedule.
pub fn generate(cfg: &HotspotConfig) -> Vec<FlowSpec> {
    assert!(!cfg.groups.is_empty(), "need at least one host group");
    assert!(
        cfg.groups.iter().all(|g| g.len() >= 2),
        "groups need >= 2 hosts"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let mut out = Vec::new();
    let all_hosts: Vec<NodeId> = cfg.groups.iter().flatten().copied().collect();

    for phase in 0..cfg.phases {
        let start = phase as u64 * cfg.phase_len_us;
        let hot = &cfg.groups[phase % cfg.groups.len()];
        for _ in 0..cfg.flows_per_phase {
            let (src, dst) = distinct_pair(hot, &mut rng);
            let offset = rng.gen_range(0..cfg.phase_len_us / 2);
            out.push(FlowSpec::from_bytes(
                src,
                dst,
                start + offset,
                BYTES_PER_FLOW,
                RATE_MBPS,
            ));
        }
        let trickle = (cfg.flows_per_phase as f64 * TRICKLE_RATIO) as usize;
        for _ in 0..trickle {
            let (src, dst) = distinct_pair(&all_hosts, &mut rng);
            let offset = rng.gen_range(0..cfg.phase_len_us);
            out.push(FlowSpec::from_bytes(
                src,
                dst,
                start + offset,
                BYTES_PER_FLOW / 10,
                RATE_MBPS,
            ));
        }
    }
    out.sort_by_key(|f| (f.start_us, f.src, f.dst));
    out
}

fn distinct_pair<R: Rng>(hosts: &[NodeId], rng: &mut R) -> (NodeId, NodeId) {
    loop {
        let a = hosts[rng.gen_range(0..hosts.len())];
        let b = hosts[rng.gen_range(0..hosts.len())];
        if a != b {
            return (a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn groups() -> Vec<Vec<NodeId>> {
        vec![vec![0, 1, 2], vec![10, 11, 12], vec![20, 21, 22]]
    }

    /// The hot flows of `cfg`'s schedule; trickle flows carry a tenth of
    /// [`BYTES_PER_FLOW`].
    fn hot_flows(cfg: &HotspotConfig) -> Vec<FlowSpec> {
        let flows = generate(cfg);
        assert!(flows
            .iter()
            .all(|f| f.bytes == BYTES_PER_FLOW || f.bytes == BYTES_PER_FLOW / 10));
        flows
            .into_iter()
            .filter(|f| f.bytes == BYTES_PER_FLOW)
            .collect()
    }

    #[test]
    fn phases_concentrate_in_their_group() {
        let cfg = HotspotConfig::drift_over(groups());
        let hot = hot_flows(&cfg);
        assert_eq!(hot.len(), cfg.phases * cfg.flows_per_phase);
        for f in &hot {
            let phase = (f.start_us / cfg.phase_len_us) as usize;
            let group: HashSet<NodeId> = cfg.groups[phase % cfg.groups.len()]
                .iter()
                .copied()
                .collect();
            assert!(
                group.contains(&f.src) && group.contains(&f.dst),
                "flow {f:?} escaped its phase group"
            );
        }
    }

    #[test]
    fn drift_cycles_through_groups() {
        let cfg = HotspotConfig::drift_over(groups());
        // Phase 3 wraps back to group 0.
        let phase3: Vec<_> = hot_flows(&cfg)
            .into_iter()
            .filter(|f| (f.start_us / cfg.phase_len_us) == 3)
            .collect();
        assert!(!phase3.is_empty());
        assert!(phase3.iter().all(|f| cfg.groups[0].contains(&f.src)));
    }

    #[test]
    fn trickle_reaches_other_groups() {
        let cfg = HotspotConfig::drift_over(groups());
        let trickle: Vec<_> = generate(&cfg)
            .into_iter()
            .filter(|f| f.bytes == BYTES_PER_FLOW / 10)
            .collect();
        assert!(!trickle.is_empty());
        let outside = trickle.iter().any(|f| {
            let phase = (f.start_us / cfg.phase_len_us) as usize;
            !cfg.groups[phase % cfg.groups.len()].contains(&f.src)
        });
        assert!(outside, "trickle should involve non-hot hosts: {trickle:?}");
    }

    #[test]
    fn flow_count_and_determinism() {
        let cfg = HotspotConfig::drift_over(groups());
        let flows = generate(&cfg);
        let expected = cfg.phases
            * (cfg.flows_per_phase + (cfg.flows_per_phase as f64 * TRICKLE_RATIO) as usize);
        assert_eq!(flows.len(), expected);
        assert_eq!(flows, generate(&cfg));
    }

    #[test]
    #[should_panic(expected = "groups need")]
    fn tiny_groups_rejected() {
        let cfg = HotspotConfig::drift_over(vec![vec![1]]);
        generate(&cfg);
    }
}

//! A BRITE-like router-level topology generator (Medina et al., MASCOTS '01),
//! reimplemented for the paper's synthetic experiments: the 160-router /
//! 132-host "Brite" network (8 engines) and the 200-router / 364-host
//! scale-up of §4.2.3 (20 engines, single AS).
//!
//! Two growth models are provided, as in BRITE:
//!
//! * **Barabási–Albert** — incremental growth with preferential
//!   connectivity (new routers attach to `m` existing routers with
//!   probability proportional to degree), producing heavy-tailed degree
//!   distributions;
//! * **Waxman** — routers scattered on a plane, each pair connected with
//!   probability `alpha * exp(-d / (beta * L))`, then patched to
//!   connectivity with a minimum-spanning chain.
//!
//! Routers sit on a [`PLANE`]-wide square, all in AS [`AS_ID`] (the
//! scale-up uses a single AS because "the current BRITE tool cannot create
//! networks using BGP routers"). Link latency is derived from Euclidean
//! distance on the plane; router–router bandwidth is drawn uniformly from
//! [`BW_CORE`] (BRITE's `BWUniform`), and every host gets a [`BW_ACCESS`]
//! access link.

use crate::model::{Network, NodeId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Growth model selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GrowthModel {
    /// Barabási–Albert preferential attachment with `m` links per node.
    BarabasiAlbert {
        /// Links added per new router (BRITE's `m`).
        m: usize,
    },
    /// Waxman random geometric model.
    Waxman {
        /// Waxman alpha (overall edge density), typically 0.15–0.3.
        alpha: f64,
        /// Waxman beta (distance decay), typically 0.1–0.2.
        beta: f64,
    },
}

/// Side length of the placement plane (abstract units; 1 unit of distance
/// = 10 µs of propagation latency).
pub const PLANE: f64 = 1000.0;
/// Router–router bandwidth range in Mbps, drawn uniformly: OC-3 .. OC-48,
/// BRITE-ish defaults.
pub const BW_CORE: (f64, f64) = (155.0, 2488.0);
/// Host access-link bandwidth in Mbps.
pub const BW_ACCESS: f64 = 100.0;
/// AS id of every node.
pub const AS_ID: u32 = 0;

/// Parameters of the generator (a subset of BRITE's flat router model).
#[derive(Debug, Clone)]
pub struct BriteConfig {
    /// Number of routers.
    pub routers: usize,
    /// Number of hosts, attached preferentially to low-degree routers.
    pub hosts: usize,
    /// Growth model.
    pub model: GrowthModel,
    /// RNG seed.
    pub seed: u64,
}

impl BriteConfig {
    /// The paper's Table 1 "Brite" network: 160 routers, 132 hosts.
    pub fn paper_brite() -> Self {
        Self {
            routers: 160,
            hosts: 132,
            model: GrowthModel::BarabasiAlbert { m: 2 },
            seed: 0xb417e,
        }
    }

    /// The §4.2.3 scale-up: 200 routers, 364 hosts, single AS.
    pub fn paper_scaleup() -> Self {
        Self {
            routers: 200,
            hosts: 364,
            ..Self::paper_brite()
        }
    }

    /// The million-host stress configuration behind `bench_slice`'s
    /// synthetic section: Barabási–Albert growth (incremental — Waxman's
    /// O(routers²) pair scan is infeasible at this size) scaled by
    /// `scale` toward the full target of 20 000 routers / 1 000 000
    /// hosts. `scale = 1.0` is the million-host full-scale run;
    /// `bench_slice --smoke` runs quarter scale (≈250k hosts), which
    /// still clears the ≥100k-host CI bar. Deterministic in the seed at
    /// every scale.
    pub fn million_host(scale: f64) -> Self {
        let scale = scale.clamp(0.001, 1.0);
        Self {
            routers: ((20_000.0 * scale) as usize).max(16),
            hosts: ((1_000_000.0 * scale) as usize).max(64),
            ..Self::paper_brite()
        }
    }
}

/// Number of engine nodes the paper uses for the Table 1 Brite network.
pub const BRITE_ENGINES: usize = 8;

/// Number of engine nodes the paper uses for the §4.2.3 scale-up.
pub const SCALEUP_ENGINES: usize = 20;

/// Generates a network from `cfg`. Deterministic in `cfg.seed`.
pub fn generate(cfg: &BriteConfig) -> Network {
    assert!(cfg.routers >= 2, "need at least two routers");
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut net = Network::new();

    // Scatter routers on the plane.
    let pos: Vec<(f64, f64)> = (0..cfg.routers)
        .map(|_| (rng.gen_range(0.0..PLANE), rng.gen_range(0.0..PLANE)))
        .collect();
    for i in 0..cfg.routers {
        net.add_router(format!("br{i}"), AS_ID);
    }

    let latency = |a: usize, b: usize| -> u64 {
        let (dx, dy) = (pos[a].0 - pos[b].0, pos[a].1 - pos[b].1);
        let d = (dx * dx + dy * dy).sqrt();
        // Distance-proportional propagation plus a 100 µs switching floor
        // (the conservative engine's lookahead must never collapse to ~0).
        ((d * 10.0).round() as u64).max(100)
    };
    let core_bw = {
        let (lo, hi) = BW_CORE;
        move |rng: &mut ChaCha8Rng| rng.gen_range(lo..=hi)
    };

    match cfg.model {
        GrowthModel::BarabasiAlbert { m } => {
            let m = m.max(1);
            // Start from a small seed clique.
            let seed_n = (m + 1).min(cfg.routers);
            for i in 0..seed_n {
                for j in i + 1..seed_n {
                    let bw = core_bw(&mut rng);
                    net.add_link(i as NodeId, j as NodeId, bw, latency(i, j));
                }
            }
            // Degree-proportional target sampling via a repeat list.
            let mut targets: Vec<usize> = Vec::new();
            for i in 0..seed_n {
                for _ in 0..net.degree(i as NodeId) {
                    targets.push(i);
                }
            }
            for v in seed_n..cfg.routers {
                let mut chosen: Vec<usize> = Vec::with_capacity(m);
                let mut guard = 0;
                while chosen.len() < m.min(v) && guard < 1000 {
                    guard += 1;
                    let t = targets[rng.gen_range(0..targets.len())];
                    if t != v && !chosen.contains(&t) {
                        chosen.push(t);
                    }
                }
                for &t in &chosen {
                    let bw = core_bw(&mut rng);
                    net.add_link(v as NodeId, t as NodeId, bw, latency(v, t));
                    targets.push(t);
                    targets.push(v);
                }
            }
        }
        GrowthModel::Waxman { alpha, beta } => {
            let scale = PLANE * std::f64::consts::SQRT_2;
            for i in 0..cfg.routers {
                for j in i + 1..cfg.routers {
                    let (dx, dy) = (pos[i].0 - pos[j].0, pos[i].1 - pos[j].1);
                    let d = (dx * dx + dy * dy).sqrt();
                    let p = alpha * (-d / (beta * scale)).exp();
                    if rng.gen_bool(p.clamp(0.0, 1.0)) {
                        let bw = core_bw(&mut rng);
                        net.add_link(i as NodeId, j as NodeId, bw, latency(i, j));
                    }
                }
            }
            // Patch to connectivity: chain each later component root to the
            // nearest already-connected router.
            let comps = components(&net, cfg.routers);
            if comps.iter().any(|&c| c != comps[0]) {
                let mut connected: Vec<usize> =
                    (0..cfg.routers).filter(|&i| comps[i] == comps[0]).collect();
                let mut done = vec![false; cfg.routers];
                for &i in &connected {
                    done[i] = true;
                }
                for v in 0..cfg.routers {
                    if done[v] {
                        continue;
                    }
                    // Attach the whole component of v via its closest member.
                    let member: Vec<usize> = (0..cfg.routers)
                        .filter(|&i| comps[i] == comps[v] && !done[i])
                        .collect();
                    let (&best_m, &best_c) = member
                        .iter()
                        .flat_map(|mm| connected.iter().map(move |cc| (mm, cc)))
                        .min_by_key(|&(m_, c_)| latency(*m_, *c_))
                        .expect("non-empty sets");
                    let bw = core_bw(&mut rng);
                    net.add_link(
                        best_m as NodeId,
                        best_c as NodeId,
                        bw,
                        latency(best_m, best_c),
                    );
                    for i in member {
                        done[i] = true;
                        connected.push(i);
                    }
                }
            }
        }
    }

    // Host attachment: BRITE attaches end systems uniformly; we bias toward
    // low-degree (edge) routers, which mirrors real access networks.
    let router_ids: Vec<NodeId> = net.routers();
    for h in 0..cfg.hosts {
        // Tournament of 3: pick the lowest-degree candidate.
        let pick = (0..3)
            .map(|_| router_ids[rng.gen_range(0..router_ids.len())])
            .min_by_key(|&r| net.degree(r))
            .expect("at least one candidate");
        let host = net.add_host(format!("bh{h}"), AS_ID);
        net.add_link(host, pick, BW_ACCESS, 100);
    }

    debug_assert!(net.is_connected());
    net
}

/// Component labels over the first `n` nodes (routers only, pre-hosts).
fn components(net: &Network, n: usize) -> Vec<usize> {
    let mut comp = vec![usize::MAX; n];
    let mut next = 0usize;
    for s in 0..n {
        if comp[s] != usize::MAX {
            continue;
        }
        let mut stack = vec![s as NodeId];
        comp[s] = next;
        while let Some(v) = stack.pop() {
            for &(u, _) in net.neighbors(v) {
                if (u as usize) < n && comp[u as usize] == usize::MAX {
                    comp[u as usize] = next;
                    stack.push(u);
                }
            }
        }
        next += 1;
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_brite_counts() {
        let net = generate(&BriteConfig::paper_brite());
        assert_eq!(net.router_count(), 160, "Table 1: Brite has 160 routers");
        assert_eq!(net.host_count(), 132, "Table 1: Brite has 132 hosts");
        assert!(net.is_connected());
    }

    #[test]
    fn paper_scaleup_counts() {
        let net = generate(&BriteConfig::paper_scaleup());
        assert_eq!(net.router_count(), 200);
        assert_eq!(net.host_count(), 364);
        assert_eq!(net.as_router_sizes().len(), 1, "scale-up is a single AS");
        assert!(net.is_connected());
    }

    #[test]
    fn million_host_scales_linearly_and_stays_connected() {
        // A 1% miniature: the knob's shape, not its full size.
        let cfg = BriteConfig::million_host(0.01);
        assert_eq!(cfg.routers, 200);
        assert_eq!(cfg.hosts, 10_000);
        let net = generate(&cfg);
        assert_eq!(net.host_count(), 10_000);
        assert!(net.is_connected());
        // Full scale hits the paper-motivated million-host target.
        let full = BriteConfig::million_host(1.0);
        assert_eq!(full.routers, 20_000);
        assert_eq!(full.hosts, 1_000_000);
        // The floor keeps degenerate scales generable.
        assert!(BriteConfig::million_host(0.0).routers >= 16);
    }

    #[test]
    fn ba_degree_distribution_is_skewed() {
        let net = generate(&BriteConfig::paper_brite());
        let mut degrees: Vec<usize> = net.routers().iter().map(|&r| net.degree(r)).collect();
        degrees.sort_unstable();
        let max = *degrees.last().unwrap();
        let median = degrees[degrees.len() / 2];
        assert!(
            max >= 3 * median,
            "preferential attachment should produce hubs: max {max}, median {median}"
        );
    }

    #[test]
    fn waxman_is_connected_after_patching() {
        let cfg = BriteConfig {
            routers: 60,
            hosts: 30,
            model: GrowthModel::Waxman {
                alpha: 0.08,
                beta: 0.08,
            },
            ..BriteConfig::paper_brite()
        };
        let net = generate(&cfg);
        assert!(net.is_connected());
        assert_eq!(net.router_count(), 60);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = BriteConfig::paper_brite();
        assert_eq!(generate(&cfg), generate(&cfg));
        let other = BriteConfig { seed: 1, ..cfg };
        assert_ne!(generate(&other), generate(&BriteConfig::paper_brite()));
    }

    #[test]
    fn latencies_scale_with_distance() {
        let net = generate(&BriteConfig::paper_brite());
        // All latencies positive, and there is variety (plane placement).
        let lats: Vec<u64> = net.links().iter().map(|l| l.latency_us).collect();
        assert!(lats.iter().all(|&l| l > 0));
        let min = lats.iter().min().unwrap();
        let max = lats.iter().max().unwrap();
        assert!(max > min, "expected heterogeneous latencies");
    }

    #[test]
    fn hosts_attach_to_routers_only() {
        let net = generate(&BriteConfig::paper_brite());
        for h in net.hosts() {
            assert_eq!(net.degree(h), 1);
            let (r, _) = net.neighbors(h)[0];
            assert_eq!(net.node(r).kind, crate::model::NodeKind::Router);
        }
    }
}

//! Autonomous-system helpers: AS reassignment and the paper's routing-table
//! memory model hooks.

use crate::model::{Network, NodeId, NodeKind};

/// Re-assigns routers to `k` autonomous systems as BFS-contiguous regions
/// (hosts inherit their attachment router's AS). Used to study hierarchical
/// routing on generated single-AS topologies — BRITE "cannot create
/// networks using BGP routers" (§4.2.3), so AS structure must be imposed.
///
/// # Panics
/// Panics when `k` is 0 or exceeds the router count.
pub fn assign_contiguous_ases(net: &Network, k: usize) -> Network {
    let routers = net.routers();
    assert!(k >= 1 && k <= routers.len(), "need 1..=#routers ASes");

    // BFS order over the router-induced subgraph (hosts skipped), used to
    // pick spread-out region seeds.
    let mut order = Vec::with_capacity(routers.len());
    let mut seen = vec![false; net.node_count()];
    for &start in &routers {
        if seen[start as usize] {
            continue;
        }
        seen[start as usize] = true;
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &(u, _) in net.neighbors(v) {
                if !seen[u as usize] && net.node(u).kind == NodeKind::Router {
                    seen[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }

    // Pick region seeds by farthest-point sampling over router-graph hop
    // distance: each next seed maximizes its distance to the seeds chosen
    // so far. BFS-order striding can land two seeds next to each other, and
    // an enclosed seed is starved into a one-router AS.
    let mut seeds = vec![order[0]];
    let mut dist = vec![usize::MAX; net.node_count()];
    while seeds.len() < k {
        let mut queue = std::collections::VecDeque::new();
        for &s in &seeds {
            dist[s as usize] = 0;
            queue.push_back(s);
        }
        while let Some(v) = queue.pop_front() {
            for &(u, _) in net.neighbors(v) {
                if net.node(u).kind == NodeKind::Router && dist[u as usize] > dist[v as usize] + 1 {
                    dist[u as usize] = dist[v as usize] + 1;
                    queue.push_back(u);
                }
            }
        }
        // Farthest router from the current seed set; BFS order breaks ties
        // deterministically.
        let far = *order
            .iter()
            .max_by_key(|&&r| dist[r as usize])
            .expect("k <= #routers");
        seeds.push(far);
        for d in dist.iter_mut() {
            *d = usize::MAX;
        }
    }

    // Grow k regions from the seeds by round-robin BFS so every AS is a
    // *connected* router region (a requirement for intra-AS routing).
    const FREE: u32 = u32::MAX;
    let mut as_of = vec![FREE; net.node_count()];
    let mut queues: Vec<std::collections::VecDeque<NodeId>> = seeds
        .into_iter()
        .map(|s| std::collections::VecDeque::from([s]))
        .collect();
    for (i, q) in queues.iter().enumerate() {
        as_of[q[0] as usize] = i as u32;
    }
    let mut remaining = order.len() - k;
    while remaining > 0 {
        let mut progressed = false;
        for (i, q) in queues.iter_mut().enumerate() {
            // Expand one claimed frontier router per round per region.
            while let Some(&v) = q.front() {
                let mut claimed = None;
                for &(u, _) in net.neighbors(v) {
                    if net.node(u).kind == NodeKind::Router && as_of[u as usize] == FREE {
                        claimed = Some(u);
                        break;
                    }
                }
                match claimed {
                    Some(u) => {
                        as_of[u as usize] = i as u32;
                        q.push_back(u);
                        remaining -= 1;
                        progressed = true;
                        break;
                    }
                    None => {
                        q.pop_front();
                    }
                }
            }
        }
        if !progressed {
            // Disconnected remainder (cannot happen on connected router
            // graphs): assign leftovers to region 0.
            for &r in &routers {
                if as_of[r as usize] == FREE {
                    as_of[r as usize] = 0;
                    remaining -= 1;
                }
            }
        }
    }
    let as_of_router: std::collections::BTreeMap<NodeId, u32> =
        routers.iter().map(|&r| (r, as_of[r as usize])).collect();

    let mut out = Network::new();
    for n in net.nodes() {
        match n.kind {
            NodeKind::Router => out.add_router(n.name.clone(), as_of_router[&n.id]),
            NodeKind::Host => {
                let (router, _) = net.neighbors(n.id)[0];
                out.add_host(n.name.clone(), as_of_router[&router])
            }
        };
    }
    for l in net.links() {
        out.add_link(l.a, l.b, l.bandwidth_mbps, l.latency_us);
    }
    out
}

#[cfg(test)]
mod regrid_tests {
    use super::*;
    use crate::brite::{generate, BriteConfig};

    #[test]
    fn contiguous_ases_cover_all_routers() {
        let net = generate(&BriteConfig {
            routers: 40,
            hosts: 20,
            ..BriteConfig::paper_brite()
        });
        let multi = assign_contiguous_ases(&net, 4);
        let sizes = multi.as_router_sizes();
        assert_eq!(sizes.len(), 4);
        assert_eq!(sizes.values().sum::<usize>(), 40);
        // Near-equal regions (round-robin growth).
        assert!(sizes.values().all(|&s| (4..=18).contains(&s)), "{sizes:?}");
        // Every AS region must be internally connected (router subgraph).
        for (&as_id, _) in sizes.iter() {
            let members: Vec<_> = multi
                .routers()
                .into_iter()
                .filter(|&r| multi.node(r).as_id == as_id)
                .collect();
            let mut seen = std::collections::HashSet::new();
            let mut stack = vec![members[0]];
            seen.insert(members[0]);
            while let Some(v) = stack.pop() {
                for &(u, _) in multi.neighbors(v) {
                    if multi.node(u).kind == crate::model::NodeKind::Router
                        && multi.node(u).as_id == as_id
                        && seen.insert(u)
                    {
                        stack.push(u);
                    }
                }
            }
            assert_eq!(seen.len(), members.len(), "AS {as_id} disconnected");
        }
    }

    #[test]
    fn hosts_inherit_router_as() {
        let net = generate(&BriteConfig {
            routers: 30,
            hosts: 25,
            ..BriteConfig::paper_brite()
        });
        let multi = assign_contiguous_ases(&net, 3);
        for h in multi.hosts() {
            let (r, _) = multi.neighbors(h)[0];
            assert_eq!(multi.node(h).as_id, multi.node(r).as_id);
        }
    }

    #[test]
    fn structure_is_preserved() {
        let net = generate(&BriteConfig {
            routers: 25,
            hosts: 10,
            ..BriteConfig::paper_brite()
        });
        let multi = assign_contiguous_ases(&net, 5);
        assert_eq!(multi.link_count(), net.link_count());
        assert_eq!(multi.node_count(), net.node_count());
        assert!(multi.is_connected());
    }

    #[test]
    #[should_panic(expected = "need 1..=")]
    fn zero_as_rejected() {
        let net = generate(&BriteConfig {
            routers: 10,
            hosts: 4,
            ..BriteConfig::paper_brite()
        });
        assign_contiguous_ases(&net, 0);
    }
}

//! The virtual network: nodes, links, and AS membership.

use massf_graph::{CsrGraph, GraphBuilder};

/// Dense node identifier (routers and hosts share one id space).
pub type NodeId = u32;

/// Dense link identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// Whether a node models a router or an end host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Packet-forwarding router; carries routing state.
    Router,
    /// End host; traffic source/sink, exactly where applications attach.
    Host,
}

/// One node of the virtual network.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Dense id; equals the node's index in [`Network::nodes`].
    pub id: NodeId,
    /// Router or host.
    pub kind: NodeKind,
    /// Human-readable name (used by the DML format and reports).
    pub name: String,
    /// Autonomous-system id; routing-table size scales with AS size.
    pub as_id: u32,
}

/// A full-duplex network link.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Capacity in megabits per second.
    pub bandwidth_mbps: f64,
    /// Propagation latency in microseconds.
    pub latency_us: u64,
}

impl Link {
    /// The endpoint opposite `n`.
    ///
    /// # Panics
    /// Panics when `n` is not an endpoint of this link.
    pub fn opposite(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else if n == self.b {
            self.a
        } else {
            panic!("node {n} is not an endpoint of link {}-{}", self.a, self.b)
        }
    }
}

/// The emulated (virtual) network: the input to the network mapping problem.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// `adjacency[node] -> (neighbor, link)`.
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a router named `name` in AS `as_id`; returns its id.
    pub fn add_router(&mut self, name: impl Into<String>, as_id: u32) -> NodeId {
        self.add_node(NodeKind::Router, name.into(), as_id)
    }

    /// Adds a host named `name` in AS `as_id`; returns its id.
    pub fn add_host(&mut self, name: impl Into<String>, as_id: u32) -> NodeId {
        self.add_node(NodeKind::Host, name.into(), as_id)
    }

    fn add_node(&mut self, kind: NodeKind, name: String, as_id: u32) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(Node {
            id,
            kind,
            name,
            as_id,
        });
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds a full-duplex link; returns its id.
    ///
    /// # Panics
    /// Panics on self-links, unknown endpoints, non-positive bandwidth, or
    /// zero latency (the conservative engine needs strictly positive
    /// lookahead on every link).
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        bandwidth_mbps: f64,
        latency_us: u64,
    ) -> LinkId {
        assert_ne!(a, b, "self-link on node {a}");
        assert!((a as usize) < self.nodes.len(), "unknown endpoint {a}");
        assert!((b as usize) < self.nodes.len(), "unknown endpoint {b}");
        assert!(bandwidth_mbps > 0.0, "bandwidth must be positive");
        assert!(
            latency_us > 0,
            "latency must be positive (engine lookahead)"
        );
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            a,
            b,
            bandwidth_mbps,
            latency_us,
        });
        self.adjacency[a as usize].push((b, id));
        self.adjacency[b as usize].push((a, id));
        id
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links in id order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The node with id `n`.
    pub fn node(&self, n: NodeId) -> &Node {
        &self.nodes[n as usize]
    }

    /// The link with id `l`.
    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.0 as usize]
    }

    /// Number of nodes (routers + hosts).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of routers.
    pub fn router_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Router)
            .count()
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Host)
            .count()
    }

    /// Ids of all hosts.
    pub fn hosts(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Host)
            .map(|n| n.id)
            .collect()
    }

    /// Ids of all routers.
    pub fn routers(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Router)
            .map(|n| n.id)
            .collect()
    }

    /// `(neighbor, link)` pairs of node `n`.
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        &self.adjacency[n as usize]
    }

    /// Degree of node `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.adjacency[n as usize].len()
    }

    /// The `(parent, link)` uplink of `n` when `n` is a leaf: a degree-1
    /// node whose neighbour has degree ≥ 2. Neither end of a two-node
    /// island is a leaf, so a leaf's parent is never a leaf itself.
    pub fn leaf_uplink(&self, n: NodeId) -> Option<(NodeId, LinkId)> {
        match self.neighbors(n) {
            &[uplink] if self.degree(uplink.0) >= 2 => Some(uplink),
            _ => None,
        }
    }

    /// Sum of the bandwidths of all links incident to `n`, in Mbps.
    ///
    /// This is the TOP approach's vertex weight: "each virtual node is
    /// weighted with the total bandwidth in and out of it" (§3.1).
    pub fn total_bandwidth(&self, n: NodeId) -> f64 {
        self.adjacency[n as usize]
            .iter()
            .map(|&(_, l)| self.link(l).bandwidth_mbps)
            .sum()
    }

    /// The link joining `a` and `b`, if any: of parallel links, the one
    /// with the least latency, ties to the lowest id — the one a route
    /// between the two takes.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.adjacency[a as usize]
            .iter()
            .filter(|&&(nb, _)| nb == b)
            .map(|&(_, l)| l)
            .min_by_key(|&l| (self.link(l).latency_us, l))
    }

    /// Number of routers in each AS, keyed by dense AS id.
    ///
    /// Drives the paper's memory model (routing-table size is `O(x²)` for an
    /// AS of `x` routers).
    pub fn as_router_sizes(&self) -> std::collections::BTreeMap<u32, usize> {
        let mut m = std::collections::BTreeMap::new();
        for n in &self.nodes {
            if n.kind == NodeKind::Router {
                *m.entry(n.as_id).or_insert(0) += 1;
            }
        }
        m
    }

    /// True when every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        massf_graph::connectivity::is_connected(&self.to_unit_graph())
    }

    /// Converts the topology into a unit-weight CSR graph whose vertex ids
    /// equal node ids and whose edge weights are 1. Mapping approaches then
    /// re-weight it (see `massf-mapping::weights`).
    pub fn to_unit_graph(&self) -> CsrGraph {
        let mut b = GraphBuilder::with_capacity(1, self.node_count(), self.link_count());
        b.add_unit_vertices(self.node_count());
        for l in &self.links {
            // Parallel links merge by weight sum, consistent with capacity.
            b.add_edge(l.a, l.b, 1)
                .expect("network link endpoints are valid");
        }
        b.build().expect("network graph is structurally valid")
    }

    /// Summary line used by Table 1 and the examples.
    pub fn summary(&self) -> String {
        format!(
            "{} routers, {} hosts, {} links, {} ASes, connected: {}",
            self.router_count(),
            self.host_count(),
            self.link_count(),
            self.as_router_sizes().len(),
            self.is_connected()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Network {
        let mut net = Network::new();
        let r0 = net.add_router("r0", 0);
        let r1 = net.add_router("r1", 0);
        let h0 = net.add_host("h0", 0);
        let h1 = net.add_host("h1", 1);
        net.add_link(r0, r1, 1000.0, 500);
        net.add_link(r0, h0, 100.0, 50);
        net.add_link(r1, h1, 100.0, 50);
        net
    }

    #[test]
    fn counts_and_kinds() {
        let net = tiny();
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.router_count(), 2);
        assert_eq!(net.host_count(), 2);
        assert_eq!(net.link_count(), 3);
        assert_eq!(net.hosts(), vec![2, 3]);
        assert_eq!(net.routers(), vec![0, 1]);
    }

    #[test]
    fn adjacency_and_lookup() {
        let net = tiny();
        assert_eq!(net.degree(0), 2);
        assert!(net.link_between(0, 1).is_some());
        assert!(net.link_between(2, 3).is_none());
        let l = net.link(net.link_between(0, 2).unwrap());
        assert_eq!(l.opposite(0), 2);
        assert_eq!(l.opposite(2), 0);
    }

    #[test]
    fn parallel_links_resolve_to_the_fastest_then_the_lowest_id() {
        let mut net = tiny();
        let slow = net.link_between(0, 1).unwrap(); // 500 µs
        let fast = net.add_link(1, 0, 1000.0, 200);
        let twin = net.add_link(0, 1, 1000.0, 200);
        assert!(slow < fast && fast < twin);
        assert_eq!(net.link_between(0, 1), Some(fast));
        assert_eq!(net.link_between(1, 0), Some(fast));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn opposite_panics_for_nonmember() {
        let net = tiny();
        let l = net.link(LinkId(0));
        l.opposite(3);
    }

    #[test]
    fn campus_hosts_are_leaves_of_their_router() {
        let net = crate::campus::campus();
        for h in net.hosts() {
            let (parent, link) = net.leaf_uplink(h).expect("a campus host is a leaf");
            assert_eq!(net.node(parent).kind, NodeKind::Router);
            assert_eq!(net.link(link).opposite(h), parent);
        }
        assert!(net.routers().iter().all(|&r| net.leaf_uplink(r).is_none()));
    }

    #[test]
    fn island_ends_and_host_only_routers_are_not_leaves() {
        let mut net = Network::new();
        let a = net.add_host("a", 0);
        let b = net.add_host("b", 0);
        net.add_link(a, b, 10.0, 1);
        assert_eq!((net.leaf_uplink(a), net.leaf_uplink(b)), (None, None));
        // A router whose only neighbours are hosts is their parent, not a leaf.
        let mut net = Network::new();
        let r = net.add_router("r", 0);
        let hosts = ["h0", "h1"].map(|name| {
            let h = net.add_host(name, 0);
            net.add_link(r, h, 100.0, 100);
            h
        });
        assert_eq!(net.leaf_uplink(r), None);
        for h in hosts {
            assert_eq!(net.leaf_uplink(h).map(|(p, _)| p), Some(r));
        }
    }

    #[test]
    fn total_bandwidth_sums_incident_links() {
        let net = tiny();
        assert!((net.total_bandwidth(0) - 1100.0).abs() < 1e-9);
        assert!((net.total_bandwidth(3) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn as_sizes_count_routers_only() {
        let net = tiny();
        let sizes = net.as_router_sizes();
        assert_eq!(sizes.get(&0), Some(&2));
        assert_eq!(sizes.get(&1), None, "hosts must not count");
    }

    #[test]
    fn connectivity() {
        assert!(Network::new().is_connected());
        let mut net = tiny();
        assert!(net.is_connected());
        net.add_host("lonely", 0);
        assert!(!net.is_connected());
    }

    #[test]
    fn unit_graph_mirrors_structure() {
        let net = tiny();
        let g = net.to_unit_graph();
        assert_eq!(g.nvtxs(), 4);
        assert_eq!(g.nedges(), 3);
        assert!(g.edge_weight_between(0, 1).is_some());
        assert!(g.edge_weight_between(1, 3).is_some());
    }

    #[test]
    #[should_panic(expected = "latency must be positive")]
    fn zero_latency_rejected() {
        let mut net = Network::new();
        let a = net.add_router("a", 0);
        let b = net.add_router("b", 0);
        net.add_link(a, b, 10.0, 0);
    }

    #[test]
    #[should_panic(expected = "self-link")]
    fn self_link_rejected() {
        let mut net = Network::new();
        let a = net.add_router("a", 0);
        net.add_link(a, a, 10.0, 1);
    }
}

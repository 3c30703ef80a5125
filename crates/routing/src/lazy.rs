//! Lazy on-demand materialization of compressed routing rows
//! (DESIGN.md §16).
//!
//! The eager compressed build runs one Dijkstra per non-leaf source up
//! front, so build time and resident bytes scale with all n sources even
//! when an engine only ever routes packets that *originate* at its own
//! nodes. The lazy representation keeps just the O(n + links) build
//! inputs — the destination renumbering, the degree-1 leaf records, a
//! link-latency snapshot, and the topology itself — and encodes a
//! source's row on its first lookup through the exact same
//! [`encode_spf_row`] path the eager build uses.
//!
//! **Determinism.** Each row is a pure function of `(net, src, order)`:
//! no canonical-row dedup pool exists (dedup would make slot numbering
//! depend on materialization order), so the structure a lookup observes
//! is bit-identical to the eager encoding of that row regardless of which
//! rows were demanded first or how many threads raced. Per-slot
//! [`OnceLock`]s guarantee exactly-once initialization under races; a
//! loser's encoding is discarded, never observed.
//!
//! **Slicing.** A partitioned emulation only queries `entry(src, ·)` for
//! sources the querying engine owns (packets are forwarded by the engine
//! that holds the current node), so the materialized set — and therefore
//! resident bytes — follows each engine's slice of the network for free.
//! The one cross-slice exception is a leaf whose access router lives on
//! another engine: the leaf delegates to the parent's row, materializing
//! it on the parent's behalf. That is still deterministic (same demand
//! set regardless of schedule) and is accounted to the row's owner by
//! `memory::slice_residency`.

use crate::compressed::{encode_spf_row, renumber, Run};
use crate::spf::SpfScratch;
use crate::tables::NO_LINK;
use massf_topology::{LinkId, Network, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Compressed rows materialized on first lookup. Queries answer
/// bit-identically to [`CompressedTables`](crate::compressed::CompressedTables)
/// and the dense baseline; only *when* the per-source Dijkstra runs
/// differs.
#[derive(Debug)]
pub(crate) struct LazyTables {
    /// Topology snapshot rows are encoded against. Excluded from equality
    /// (it is an input, not routing structure, and `Network` carries f64
    /// bandwidths that would forfeit `Eq`).
    pub(crate) net: Network,
    /// `rank[node]` = position in the renumbered destination order.
    pub(crate) rank: Vec<u32>,
    /// The renumbered destination order itself (run coordinate space).
    pub(crate) order: Vec<NodeId>,
    /// Degree-1 leaf records: `Some((parent, uplink))` means the source
    /// stores no row and delegates to the parent, exactly as in the eager
    /// build.
    pub(crate) leaf: Vec<Option<(NodeId, LinkId)>>,
    /// Per-source row slot, encoded on first demand. Leaf sources leave
    /// their slot empty forever.
    pub(crate) rows: Vec<OnceLock<Box<[Run]>>>,
    /// Per-link latency snapshot for latency-by-walking.
    pub(crate) link_latency_us: Vec<u64>,
    /// Per-source lookup counters (relaxed; totals are deterministic
    /// because the demand multiset is fixed by the flow schedule, not the
    /// thread interleaving). Excluded from equality.
    pub(crate) lookups: Vec<AtomicU64>,
}

impl LazyTables {
    /// Captures the cheap build inputs; no Dijkstra runs here.
    pub(crate) fn build(net: &Network) -> Self {
        let n = net.node_count();
        let order = renumber(net);
        let mut rank = vec![0u32; n];
        for (pos, &v) in order.iter().enumerate() {
            rank[v as usize] = pos as u32;
        }
        // Same leaf rule as the eager build: degree-1 with a degree-≥2
        // parent, so delegation recurses at most once.
        let mut leaf: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
        for (v, slot) in leaf.iter_mut().enumerate() {
            let nb = net.neighbors(v as NodeId);
            if nb.len() == 1 && net.degree(nb[0].0) >= 2 {
                *slot = Some(nb[0]);
            }
        }
        Self {
            net: net.clone(),
            rank,
            order,
            leaf,
            rows: (0..n).map(|_| OnceLock::new()).collect(),
            link_latency_us: net.links().iter().map(|l| l.latency_us).collect(),
            lookups: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The materialized row for `src`, encoding it on first demand. The
    /// winner of a race encodes; losers observe the winner's row — and
    /// every encoding of the same row is bit-identical anyway.
    #[inline]
    fn row(&self, src: NodeId) -> &[Run] {
        self.rows[src as usize].get_or_init(|| {
            let mut out = Vec::new();
            let mut scratch = SpfScratch::new();
            encode_spf_row(&self.net, src, &self.order, &mut out, &mut scratch);
            out.into_boxed_slice()
        })
    }

    /// `(next_hop, next_link)` from `src` toward `dst` — the same answer
    /// (and the same sentinels) as the eager representations.
    #[inline]
    pub(crate) fn entry(&self, src: NodeId, dst: NodeId) -> (NodeId, LinkId) {
        if src == dst {
            return (NodeId::MAX, NO_LINK);
        }
        self.lookups[src as usize].fetch_add(1, Ordering::Relaxed);
        if let Some((parent, link)) = self.leaf[src as usize] {
            // Reachable from a leaf iff the parent is the destination or
            // the parent (a non-leaf row) reaches it. The recursive call
            // counts a lookup on — and may materialize — the parent row;
            // that demand is part of routing for this leaf.
            return if dst == parent || self.entry(parent, dst).0 != NodeId::MAX {
                (parent, link)
            } else {
                (NodeId::MAX, NO_LINK)
            };
        }
        self.run_entry(src, dst)
    }

    /// The run of `src`'s (materialized on demand) row covering `dst`.
    #[inline]
    fn run_entry(&self, src: NodeId, dst: NodeId) -> (NodeId, LinkId) {
        let row = self.row(src);
        let r = self.rank[dst as usize];
        // Last run starting at or before rank r; the row covers every
        // non-diagonal rank and callers guard the diagonal.
        let i = row.partition_point(|run| run.start <= r) - 1;
        (row[i].hop, row[i].link)
    }

    /// One step of a climb toward `dst` (`src != dst`): [`entry`](Self::entry)
    /// without the leaf's reachability probe — a leaf answers its uplink
    /// unconditionally, and the climb's next step asks the parent. Counts
    /// one lookup on `src`, none delegated.
    #[inline]
    pub(crate) fn climb_step(&self, src: NodeId, dst: NodeId) -> (NodeId, LinkId) {
        self.lookups[src as usize].fetch_add(1, Ordering::Relaxed);
        match self.leaf[src as usize] {
            Some(uplink) => uplink,
            None => self.run_entry(src, dst),
        }
    }

    /// End-to-end latency by walking the next-hop chain and summing link
    /// latencies from the snapshot; `u64::MAX` when unreachable. Same
    /// integer sum as the dense Dijkstra distance.
    pub(crate) fn latency_us(&self, src: NodeId, dst: NodeId) -> u64 {
        if src == dst {
            return 0;
        }
        let n = self.rows.len();
        let mut cur = src;
        let mut lat = 0u64;
        let mut hops = 0usize;
        loop {
            let (hop, link) = self.entry(cur, dst);
            if hop == NodeId::MAX {
                return u64::MAX;
            }
            lat += self.link_latency_us[link.0 as usize];
            cur = hop;
            hops += 1;
            debug_assert!(hops <= n, "routing loop {src} -> {dst}");
            if cur == dst {
                return lat;
            }
        }
    }

    /// Total row lookups answered so far (every `entry` call with
    /// `src != dst`, including leaf delegations).
    pub(crate) fn lookup_total(&self) -> u64 {
        self.lookups.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// Per-source lookup count.
    pub(crate) fn lookups_for(&self, src: NodeId) -> u64 {
        self.lookups[src as usize].load(Ordering::Relaxed)
    }

    /// Runs resident in `src`'s slot (0 while pending or leaf).
    pub(crate) fn resident_runs_for(&self, src: NodeId) -> usize {
        self.rows[src as usize].get().map_or(0, |r| r.len())
    }

    /// Whether `src`'s row has been materialized.
    pub(crate) fn is_materialized(&self, src: NodeId) -> bool {
        self.rows[src as usize].get().is_some()
    }

    /// Whether `src` is a shared-leaf source (never materializes a row).
    pub(crate) fn is_leaf(&self, src: NodeId) -> bool {
        self.leaf[src as usize].is_some()
    }
}

/// Clone snapshots the materialized rows and counter values; the clone's
/// slots are independent once-cells seeded with whatever was resident.
impl Clone for LazyTables {
    fn clone(&self) -> Self {
        Self {
            net: self.net.clone(),
            rank: self.rank.clone(),
            order: self.order.clone(),
            leaf: self.leaf.clone(),
            rows: self.rows.clone(),
            link_latency_us: self.link_latency_us.clone(),
            lookups: self
                .lookups
                .iter()
                .map(|a| AtomicU64::new(a.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

/// Structural equality: renumbering, leaf records, latency snapshot, and
/// the materialized row contents. The topology snapshot (an input, and
/// `f64`-bearing) and the lookup counters (telemetry, not structure) are
/// excluded — which is also what lets lazy tables be `Eq`.
impl PartialEq for LazyTables {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank
            && self.order == other.order
            && self.leaf == other.leaf
            && self.link_latency_us == other.link_latency_us
            && self.rows.len() == other.rows.len()
            && self
                .rows
                .iter()
                .zip(&other.rows)
                .all(|(a, b)| a.get() == b.get())
    }
}

impl Eq for LazyTables {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressed::CompressedTables;
    use massf_par::Parallelism;
    use massf_topology::campus::campus;
    use massf_topology::teragrid::teragrid;

    #[test]
    fn nothing_materializes_until_demand() {
        let net = campus();
        let t = LazyTables::build(&net);
        assert!((0..net.node_count() as NodeId).all(|v| !t.is_materialized(v)));
        assert_eq!(t.lookup_total(), 0);
    }

    #[test]
    fn demand_materializes_exactly_the_queried_rows() {
        let net = teragrid();
        let t = LazyTables::build(&net);
        let (src, dst) = (0, net.node_count() as NodeId - 1);
        let eager = CompressedTables::build(&net, Parallelism::serial());
        assert_eq!(t.entry(src, dst), eager.entry(src, dst));
        assert_eq!(t.latency_us(src, dst), eager.latency_us(src, dst));
        assert!(t.is_materialized(src) || t.is_leaf(src));
        // Only rows on the walked chain (plus leaf parents) exist.
        let resident = (0..net.node_count() as NodeId)
            .filter(|&v| t.is_materialized(v))
            .count();
        assert!(
            resident < net.node_count() / 2,
            "{resident} rows resident after one pair"
        );
    }

    #[test]
    fn leaf_sources_never_own_a_row() {
        let net = campus();
        let t = LazyTables::build(&net);
        let h = net.hosts()[0];
        assert!(t.is_leaf(h));
        let _ = t.entry(h, 0);
        assert!(!t.is_materialized(h), "leaf delegated, no row of its own");
        let parent = t.leaf[h as usize].unwrap().0;
        assert!(t.is_materialized(parent), "delegation materialized parent");
    }

    #[test]
    fn lookup_counters_track_demand() {
        let net = campus();
        let t = LazyTables::build(&net);
        let h = net.hosts()[0];
        let parent = t.leaf[h as usize].unwrap().0;
        let _ = t.entry(h, 0);
        // One lookup on the leaf, one delegated to the parent.
        assert_eq!(t.lookups_for(h), 1);
        assert_eq!(t.lookups_for(parent), 1);
        assert!(t.lookup_total() >= 2);
        let _ = t.entry(h, h);
        assert_eq!(t.lookups_for(h), 1, "diagonal is not a lookup");
    }
}

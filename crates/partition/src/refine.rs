//! Greedy k-way boundary refinement (Fiduccia–Mattheyses style) with
//! multi-constraint balance feasibility.

use massf_graph::{CsrGraph, VertexId, Weight};
use rand::seq::SliceRandom;
use rand::Rng;

/// How a partition must be balanced: one tolerance per constraint and one
/// target weight fraction per part.
///
/// Uniform fractions model the paper's homogeneous cluster; non-uniform
/// fractions extend the partitioner to heterogeneous simulation engines
/// (the limitation called out in §5: "The MaSSF partitioner currently
/// assumes homogeneous physical resources").
#[derive(Debug, Clone, PartialEq)]
pub struct BalanceSpec {
    /// Per-constraint imbalance tolerance (`>= 1.0`).
    pub ubs: Vec<f64>,
    /// Per-part target share of each constraint's total weight; must be
    /// positive and sum to ~1.
    pub fractions: Vec<f64>,
}

impl BalanceSpec {
    /// Uniform targets over `nparts` parts.
    pub fn uniform(nparts: usize, ubs: Vec<f64>) -> Self {
        assert!(nparts >= 1);
        Self {
            ubs,
            fractions: vec![1.0 / nparts as f64; nparts],
        }
    }

    /// Number of parts.
    pub fn nparts(&self) -> usize {
        self.fractions.len()
    }

    fn validate(&self, ncon: usize) {
        assert_eq!(self.ubs.len(), ncon, "one tolerance per constraint");
        let sum: f64 = self.fractions.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-6,
            "fractions must sum to 1, got {sum}"
        );
        assert!(self.fractions.iter().all(|&f| f > 0.0));
    }
}

/// Mutable balance bookkeeping shared by refinement and rebalancing.
struct Balancer {
    ncon: usize,
    nparts: usize,
    /// Flattened `[nparts][ncon]` part weights.
    pw: Vec<Weight>,
    /// Vertices per part (parts must stay non-empty).
    sizes: Vec<usize>,
    /// Flattened `[nparts][ncon]` caps: `ceil(ub_c * frac_p * total_c)`.
    max_allowed: Vec<Weight>,
}

impl Balancer {
    fn new(g: &CsrGraph, part: &[u32], spec: &BalanceSpec) -> Self {
        let ncon = g.ncon();
        let nparts = spec.nparts();
        spec.validate(ncon);
        let mut pw = vec![0 as Weight; nparts * ncon];
        let mut sizes = vec![0usize; nparts];
        for v in 0..g.nvtxs() {
            let p = part[v] as usize;
            sizes[p] += 1;
            let wv = g.vertex_weight(v as VertexId);
            for c in 0..ncon {
                pw[p * ncon + c] += wv[c];
            }
        }
        let totals = g.total_vertex_weight();
        let mut max_allowed = vec![0 as Weight; nparts * ncon];
        for p in 0..nparts {
            for c in 0..ncon {
                let cap = spec.ubs[c] * spec.fractions[p] * totals[c] as f64;
                max_allowed[p * ncon + c] = (cap.ceil() as Weight).max(1);
            }
        }
        Self {
            ncon,
            nparts,
            pw,
            sizes,
            max_allowed,
        }
    }

    #[inline]
    fn weight(&self, p: usize, c: usize) -> Weight {
        self.pw[p * self.ncon + c]
    }

    #[inline]
    fn cap(&self, p: usize, c: usize) -> Weight {
        self.max_allowed[p * self.ncon + c]
    }

    /// A move of `wv` from `from` to `to` is feasible when, for every
    /// constraint, the destination either stays under its cap or remains no
    /// heavier than the (pre-move) source — the latter clause lets refinement
    /// proceed on graphs whose weights are too skewed to ever satisfy the
    /// cap, without making the imbalance worse.
    fn feasible(&self, wv: &[Weight], from: usize, to: usize) -> bool {
        if self.sizes[from] <= 1 {
            return false; // never empty a part: an idle engine is useless
        }
        for c in 0..self.ncon {
            let new_to = self.weight(to, c) + wv[c];
            // Compare capacity-normalized loads when escaping via the
            // "no worse than the source" clause, so heterogeneous targets
            // are respected.
            let to_ratio = new_to as f64 / self.cap(to, c) as f64;
            let from_ratio = self.weight(from, c) as f64 / self.cap(from, c) as f64;
            if new_to > self.cap(to, c) && to_ratio > from_ratio {
                return false;
            }
        }
        true
    }

    fn apply(&mut self, wv: &[Weight], from: usize, to: usize) {
        self.sizes[from] -= 1;
        self.sizes[to] += 1;
        for c in 0..self.ncon {
            self.pw[from * self.ncon + c] -= wv[c];
            self.pw[to * self.ncon + c] += wv[c];
        }
    }

    /// Largest part weight over all constraints, normalized by cap — a
    /// scalar "how overweight are we" measure used for tie-breaking.
    fn overload(&self) -> f64 {
        let mut worst = 0.0f64;
        for p in 0..self.nparts {
            for c in 0..self.ncon {
                let r = self.weight(p, c) as f64 / self.cap(p, c) as f64;
                worst = worst.max(r);
            }
        }
        worst
    }
}

/// Per-vertex connectivity scratch: weight of edges into each part.
struct ConnScratch {
    conn: Vec<Weight>,
    touched: Vec<u32>,
}

impl ConnScratch {
    fn new(nparts: usize) -> Self {
        Self {
            conn: vec![0; nparts],
            touched: Vec::with_capacity(nparts),
        }
    }

    fn compute(&mut self, g: &CsrGraph, part: &[u32], v: VertexId) {
        for &p in &self.touched {
            self.conn[p as usize] = 0;
        }
        self.touched.clear();
        for (u, w) in g.edges(v) {
            let p = part[u as usize];
            if self.conn[p as usize] == 0 {
                self.touched.push(p);
            }
            self.conn[p as usize] += w;
        }
    }
}

/// Runs up to `passes` greedy refinement passes over the boundary; returns
/// the total cut improvement. `part` is updated in place.
///
/// Each pass visits boundary vertices in a fresh random order and applies any
/// feasible move with positive gain (or zero gain that strictly lowers the
/// balance overload). Terminates early when a pass makes no move.
pub fn kway_refine<R: Rng>(
    g: &CsrGraph,
    part: &mut [u32],
    spec: &BalanceSpec,
    passes: usize,
    rng: &mut R,
) -> Weight {
    debug_assert_eq!(part.len(), g.nvtxs());
    let nparts = spec.nparts();
    let mut bal = Balancer::new(g, part, spec);
    let mut scratch = ConnScratch::new(nparts);
    let mut total_gain: Weight = 0;

    for _ in 0..passes {
        // Boundary = vertices with at least one neighbour in another part.
        let mut boundary: Vec<VertexId> = (0..g.nvtxs() as VertexId)
            .filter(|&v| {
                g.neighbors(v)
                    .iter()
                    .any(|&u| part[u as usize] != part[v as usize])
            })
            .collect();
        boundary.shuffle(rng);

        let mut moved = 0usize;
        for v in boundary {
            let from = part[v as usize] as usize;
            scratch.compute(g, part, v);
            let internal = scratch.conn[from];
            let wv = g.vertex_weight(v);

            // Best feasible destination among connected parts.
            let mut best: Option<(Weight, usize)> = None;
            for &tp in &scratch.touched {
                let to = tp as usize;
                if to == from || !bal.feasible(wv, from, to) {
                    continue;
                }
                let gain = scratch.conn[to] - internal;
                let better = match best {
                    None => gain >= 0,
                    Some((bg, bt)) => gain > bg || (gain == bg && to < bt),
                };
                if better && gain >= 0 {
                    best = Some((gain, to));
                }
            }

            if let Some((gain, to)) = best {
                let accept = if gain > 0 {
                    true
                } else {
                    // Zero-gain move: accept only if it strictly reduces the
                    // balance overload (drains the heavier part).
                    let before = bal.overload();
                    bal.apply(wv, from, to);
                    let after = bal.overload();
                    if after < before {
                        part[v as usize] = to as u32;
                        moved += 1;
                        continue;
                    }
                    bal.apply(wv, to, from); // undo
                    false
                };
                if accept {
                    bal.apply(wv, from, to);
                    part[v as usize] = to as u32;
                    total_gain += gain;
                    moved += 1;
                }
            }
        }
        if moved == 0 {
            break;
        }
    }
    total_gain
}

/// Forces the partition toward feasibility when some constraint exceeds its
/// cap: repeatedly moves the cheapest boundary vertex out of the most
/// overloaded part into the lightest feasible part. Returns the number of
/// moves made.
///
/// Used after projecting an initial partition to a finer level, where coarse
/// granularity can leave parts overweight.
pub fn rebalance<R: Rng>(g: &CsrGraph, part: &mut [u32], spec: &BalanceSpec, rng: &mut R) -> usize {
    let nparts = spec.nparts();
    let mut bal = Balancer::new(g, part, spec);
    let mut scratch = ConnScratch::new(nparts);
    let mut moves = 0usize;
    // Bounded sweeps to guarantee termination on infeasible inputs.
    'outer: for _ in 0..4 * g.nvtxs().max(8) {
        // Find the most violated (part, constraint).
        let mut worst: Option<(f64, usize, usize)> = None;
        for p in 0..nparts {
            for c in 0..bal.ncon {
                let r = bal.weight(p, c) as f64 / bal.max_allowed[c] as f64;
                if r > 1.0 && worst.is_none_or(|(wr, _, _)| r > wr) {
                    worst = Some((r, p, c));
                }
            }
        }
        let Some((_, from, c)) = worst else { break };

        // Candidate vertices in `from`, randomized then scanned for the move
        // that loses the least cut while actually shedding constraint `c`.
        let mut members: Vec<VertexId> = (0..g.nvtxs() as VertexId)
            .filter(|&v| part[v as usize] as usize == from)
            .collect();
        members.shuffle(rng);

        let mut best: Option<(Weight, VertexId, usize)> = None; // (cut loss, v, to)
        for &v in members.iter().take(128) {
            let wv = g.vertex_weight(v);
            if wv[c] == 0 {
                continue; // moving it would not help this constraint
            }
            scratch.compute(g, part, v);
            let internal = scratch.conn[from];
            for to in 0..nparts {
                if to == from || !bal.feasible(wv, from, to) {
                    continue;
                }
                // Don't push the destination over the violated constraint.
                if bal.weight(to, c) + wv[c] > bal.cap(to, c) {
                    continue;
                }
                let loss = internal - scratch.conn[to];
                if best.is_none_or(|(bl, _, _)| loss < bl) {
                    best = Some((loss, v, to));
                }
            }
        }
        match best {
            Some((_, v, to)) => {
                let wv = g.vertex_weight(v).to_vec();
                bal.apply(&wv, from, to);
                part[v as usize] = to as u32;
                moves += 1;
            }
            None => break 'outer, // stuck: weights too coarse to fix here
        }
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::{edge_cut, worst_balance};
    use massf_graph::GraphBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(99)
    }

    /// Two 4-cliques joined by a single light edge.
    fn two_cliques() -> CsrGraph {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(8);
        for s in [0u32, 4u32] {
            for i in s..s + 4 {
                for j in i + 1..s + 4 {
                    b.add_edge(i, j, 10).unwrap();
                }
            }
        }
        b.add_edge(3, 4, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn refine_finds_the_natural_cut() {
        let g = two_cliques();
        // Balanced but awful start: alternate vertices.
        let mut part = vec![0, 1, 0, 1, 0, 1, 0, 1];
        kway_refine(
            &g,
            &mut part,
            &BalanceSpec::uniform(2, vec![1.1]),
            12,
            &mut rng(),
        );
        assert_eq!(
            edge_cut(&g, &part),
            1,
            "should cut only the bridge, part = {part:?}"
        );
        // All of each clique in one part.
        assert!(part[0..4].iter().all(|&p| p == part[0]));
        assert!(part[4..8].iter().all(|&p| p == part[4]));
        assert_ne!(part[0], part[4]);
    }

    #[test]
    fn refine_never_increases_cut() {
        let g = two_cliques();
        let mut part = vec![0, 0, 1, 1, 0, 0, 1, 1];
        let before = edge_cut(&g, &part);
        kway_refine(
            &g,
            &mut part,
            &BalanceSpec::uniform(2, vec![1.1]),
            8,
            &mut rng(),
        );
        assert!(edge_cut(&g, &part) <= before);
    }

    #[test]
    fn refine_keeps_parts_nonempty() {
        let g = two_cliques();
        let mut part = vec![0, 0, 0, 0, 0, 0, 0, 1];
        kway_refine(
            &g,
            &mut part,
            &BalanceSpec::uniform(2, vec![3.0]),
            8,
            &mut rng(),
        );
        let sizes = [
            part.iter().filter(|&&p| p == 0).count(),
            part.iter().filter(|&&p| p == 1).count(),
        ];
        assert!(sizes.iter().all(|&s| s > 0), "emptied a part: {part:?}");
    }

    #[test]
    fn rebalance_fixes_overloaded_part() {
        let g = two_cliques();
        let mut part = vec![0, 0, 0, 0, 0, 0, 0, 1]; // part 0 holds 7 of 8
        let before = worst_balance(&g, &part, 2);
        assert!(before > 1.5);
        rebalance(
            &g,
            &mut part,
            &BalanceSpec::uniform(2, vec![1.1]),
            &mut rng(),
        );
        let after = worst_balance(&g, &part, 2);
        assert!(
            after < before,
            "rebalance should improve: {before} -> {after}"
        );
        assert!(after <= 1.26, "after = {after}, part = {part:?}");
    }

    #[test]
    fn refine_respects_multiconstraint_caps() {
        // Four vertices; constraint 1 concentrated on vertices 0 and 1.
        let mut b = GraphBuilder::new(2);
        b.add_vertex(&[1, 50]);
        b.add_vertex(&[1, 50]);
        b.add_vertex(&[1, 0]);
        b.add_vertex(&[1, 0]);
        // Heavy edges pulling 0 and 1 together.
        b.add_edge(0, 1, 100).unwrap();
        b.add_edge(1, 2, 1).unwrap();
        b.add_edge(2, 3, 100).unwrap();
        b.add_edge(3, 0, 1).unwrap();
        let g = b.build().unwrap();
        let mut part = vec![0, 1, 1, 0];
        kway_refine(
            &g,
            &mut part,
            &BalanceSpec::uniform(2, vec![1.2, 1.2]),
            10,
            &mut rng(),
        );
        // Putting {0,1} together would give constraint-1 weights (100, 0):
        // infeasible at ub 1.2 (cap 60). The cut edges 100+100 tempt it, but
        // the balancer must refuse.
        let w1: Weight = part
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p == 0)
            .map(|(v, _)| g.vertex_weight(v as VertexId)[1])
            .sum();
        assert!(
            w1 <= 60,
            "constraint 1 violated: part0 weight {w1}, part = {part:?}"
        );
    }

    #[test]
    fn refine_on_single_part_is_noop() {
        let g = two_cliques();
        let mut part = vec![0; 8];
        let gain = kway_refine(
            &g,
            &mut part,
            &BalanceSpec::uniform(1, vec![1.1]),
            4,
            &mut rng(),
        );
        assert_eq!(gain, 0);
        assert_eq!(part, vec![0; 8]);
    }
}

/// One full Fiduccia–Mattheyses pass with hill climbing and rollback.
///
/// Unlike [`kway_refine`]'s greedy positive-gain moves, an FM pass applies
/// the best *feasible* move even when its gain is negative, locks the moved
/// vertex, and finally rolls back to the best prefix of the move sequence.
/// Tentative descents let it escape local minima the greedy pass cannot —
/// e.g. a tightly-coupled pair that must cross together. This is the
/// classical refinement METIS builds on; returns the net cut improvement.
///
/// Deterministic: the move heap breaks gain ties by vertex id, and stale
/// entries are re-validated on pop (lazy invalidation).
pub fn fm_pass(g: &CsrGraph, part: &mut [u32], spec: &BalanceSpec) -> Weight {
    use std::cmp::Reverse as Rev;
    use std::collections::BinaryHeap;

    let n = g.nvtxs();
    let nparts = spec.nparts();
    if nparts < 2 || n == 0 {
        return 0;
    }
    let mut bal = Balancer::new(g, part, spec);
    let mut scratch = ConnScratch::new(nparts);
    let mut locked = vec![false; n];
    let mut stamp = vec![0u32; n];

    // Best feasible move for v under the *current* state.
    let best_move = |part: &[u32],
                     bal: &Balancer,
                     scratch: &mut ConnScratch,
                     v: VertexId|
     -> Option<(Weight, usize)> {
        let from = part[v as usize] as usize;
        scratch.compute(g, part, v);
        let internal = scratch.conn[from];
        let wv = g.vertex_weight(v);
        let mut best: Option<(Weight, usize)> = None;
        for &tp in &scratch.touched {
            let to = tp as usize;
            if to == from || !bal.feasible(wv, from, to) {
                continue;
            }
            let gain = scratch.conn[to] - internal;
            let better = match best {
                None => true,
                Some((bg, bt)) => gain > bg || (gain == bg && to < bt),
            };
            if better {
                best = Some((gain, to));
            }
        }
        best
    };

    // Heap of candidate moves: (gain, vertex — lower id wins ties, stamp).
    let mut heap: BinaryHeap<(Weight, Rev<VertexId>, u32)> = BinaryHeap::new();
    for v in 0..n as VertexId {
        let on_boundary = g
            .neighbors(v)
            .iter()
            .any(|&u| part[u as usize] != part[v as usize]);
        if on_boundary {
            if let Some((gain, _)) = best_move(part, &bal, &mut scratch, v) {
                heap.push((gain, Rev(v), 0));
            }
        }
    }

    let mut applied: Vec<(VertexId, u32, u32, Weight)> = Vec::new();
    let mut cum: Weight = 0;
    let mut best_cum: Weight = 0;
    let mut best_len = 0usize;

    while let Some((gain, Rev(v), s)) = heap.pop() {
        if locked[v as usize] || s != stamp[v as usize] {
            continue;
        }
        // Re-validate: the neighbourhood may have changed since push.
        let Some((cur_gain, to)) = best_move(part, &bal, &mut scratch, v) else {
            continue; // no feasible move any more
        };
        if cur_gain != gain {
            heap.push((cur_gain, Rev(v), s));
            continue;
        }
        let from = part[v as usize];
        let wv = g.vertex_weight(v).to_vec();
        bal.apply(&wv, from as usize, to);
        part[v as usize] = to as u32;
        locked[v as usize] = true;
        cum += cur_gain;
        applied.push((v, from, to as u32, cur_gain));
        if cum > best_cum {
            best_cum = cum;
            best_len = applied.len();
        }
        // Refresh neighbours.
        for &u in g.neighbors(v) {
            if !locked[u as usize] {
                stamp[u as usize] += 1;
                if let Some((ng, _)) = best_move(part, &bal, &mut scratch, u) {
                    heap.push((ng, Rev(u), stamp[u as usize]));
                }
            }
        }
    }

    // Roll back past the best prefix.
    for &(v, from, to, _) in applied[best_len..].iter().rev() {
        let wv = g.vertex_weight(v).to_vec();
        bal.apply(&wv, to as usize, from as usize);
        part[v as usize] = from;
    }
    best_cum
}

#[cfg(test)]
mod fm_tests {
    use super::*;
    use crate::quality::edge_cut;
    use massf_graph::GraphBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A coupled pair that must cross together: greedy refinement is stuck,
    /// FM escapes via a tentative negative-gain move.
    fn coupled_pair() -> (CsrGraph, Vec<u32>) {
        let mut b = GraphBuilder::new(1);
        b.add_unit_vertices(8);
        // a=0, b=1 bound by weight 5; pulled toward part 1 by c=2, d=3,
        // which are themselves anchored in part 1 by heavy edges.
        b.add_edge(0, 1, 5).unwrap();
        b.add_edge(0, 2, 4).unwrap();
        b.add_edge(1, 3, 4).unwrap();
        b.add_edge(2, 6, 10).unwrap();
        b.add_edge(3, 7, 10).unwrap();
        // Filler structure so both parts stay populated and balanced.
        b.add_edge(4, 5, 1).unwrap();
        b.add_edge(6, 7, 1).unwrap();
        let g = b.build().unwrap();
        // Parts: {0,1,4,5} vs {2,3,6,7}; cut = 4 + 4 = 8 (a-c, b-d).
        // Every single move has negative gain: a/b lose the pair bond, c/d
        // lose their anchors, fillers gain nothing.
        (g, vec![0, 0, 1, 1, 0, 0, 1, 1])
    }

    #[test]
    fn fm_escapes_the_coupled_pair_minimum() {
        let (g, mut part) = coupled_pair();
        let spec = BalanceSpec::uniform(2, vec![1.6]);
        // Greedy refinement cannot move a or b alone (gain -1 each).
        let mut greedy_part = part.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        kway_refine(&g, &mut greedy_part, &spec, 8, &mut rng);
        assert_eq!(edge_cut(&g, &greedy_part), 8, "greedy should be stuck");

        let gain = fm_pass(&g, &mut part, &spec);
        assert_eq!(edge_cut(&g, &part), 0, "FM should move the pair: {part:?}");
        assert_eq!(gain, 8);
        assert_eq!(part[0], 1);
        assert_eq!(part[1], 1);
    }

    #[test]
    fn fm_never_worsens_the_cut() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        use rand::Rng;
        for trial in 0..20 {
            let n = 24;
            let mut b = GraphBuilder::new(1);
            b.add_unit_vertices(n);
            for v in 1..n as VertexId {
                let u = rng.gen_range(0..v);
                b.add_edge(u, v, rng.gen_range(1..20)).unwrap();
            }
            for _ in 0..30 {
                let u = rng.gen_range(0..n as VertexId);
                let v = rng.gen_range(0..n as VertexId);
                if u != v {
                    b.add_edge(u, v, rng.gen_range(1..20)).unwrap();
                }
            }
            let g = b.build().unwrap();
            let mut part: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3)).collect();
            for p in 0..3u32 {
                if !part.contains(&p) {
                    part[p as usize] = p;
                }
            }
            let before = edge_cut(&g, &part);
            let spec = BalanceSpec::uniform(3, vec![1.5]);
            let gain = fm_pass(&g, &mut part, &spec);
            let after = edge_cut(&g, &part);
            assert!(after <= before, "trial {trial}: {before} -> {after}");
            assert_eq!(
                before - after,
                gain,
                "trial {trial}: reported gain mismatch"
            );
        }
    }

    #[test]
    fn fm_respects_balance_caps() {
        let (g, part0) = coupled_pair();
        // Tight caps: cap = ceil(1.01 * 8 / 2) = 5 vertices per part, so at
        // most one vertex may cross — the pair cannot both migrate.
        let mut part = part0.clone();
        let spec = BalanceSpec::uniform(2, vec![1.01]);
        fm_pass(&g, &mut part, &spec);
        let sizes = [
            part.iter().filter(|&&p| p == 0).count(),
            part.iter().filter(|&&p| p == 1).count(),
        ];
        assert!(sizes.iter().all(|&s| s <= 5), "cap violated: {part:?}");
        // And rollback guarantees the cut never worsened.
        assert!(edge_cut(&g, &part) <= edge_cut(&g, &part0));
    }

    #[test]
    fn fm_is_deterministic() {
        let (g, part0) = coupled_pair();
        let spec = BalanceSpec::uniform(2, vec![1.6]);
        let mut a = part0.clone();
        let mut b = part0.clone();
        fm_pass(&g, &mut a, &spec);
        fm_pass(&g, &mut b, &spec);
        assert_eq!(a, b);
    }

    #[test]
    fn fm_on_single_part_is_noop() {
        let (g, _) = coupled_pair();
        let mut part = vec![0u32; 8];
        assert_eq!(
            fm_pass(&g, &mut part, &BalanceSpec::uniform(1, vec![1.1])),
            0
        );
    }
}

//! # massf-partition
//!
//! From-scratch multilevel k-way graph partitioner — the reproduction's
//! substitute for METIS, which the paper (Liu & Chien, SC 2003) uses as its
//! partitioning engine.
//!
//! The paper needs three capabilities from its partitioner, all provided
//! here:
//!
//! 1. **Single-objective k-way partitioning** with balanced vertex weights
//!    and minimized edge cut ([`partition_kway`]), implemented as the
//!    classical multilevel scheme: heavy-edge-matching coarsening, greedy
//!    graph-growing recursive bisection on the coarsest graph, and boundary
//!    FM refinement during uncoarsening.
//! 2. **Multi-constraint balancing** — each vertex carries an `ncon`-vector
//!    of weights (computation, memory, one column per profiled emulation
//!    phase) and every component must be balanced simultaneously.
//! 3. **Multi-objective edge weights** — the §2.3 normalized combination of
//!    a latency objective and a traffic objective
//!    ([`multiobjective::combine_and_partition`]).
//!
//! [`baselines`] additionally implements the simpler schemes the paper's
//! related-work section compares against (random, BFS-contiguous, and the
//! greedy k-cluster algorithm of ModelNet/Netbed).
//!
//! ```
//! use massf_graph::GraphBuilder;
//! use massf_partition::{partition_kway, PartitionConfig};
//! use massf_partition::quality::{edge_cut, worst_balance};
//!
//! // An 8-vertex ring, split in two.
//! let mut b = GraphBuilder::new(1);
//! b.add_unit_vertices(8);
//! for i in 0..8u32 {
//!     b.add_edge(i, (i + 1) % 8, 1).unwrap();
//! }
//! let g = b.build().unwrap();
//! let p = partition_kway(&g, &PartitionConfig::new(2));
//! assert_eq!(edge_cut(&g, &p.part), 2);           // a ring cuts twice
//! assert!(worst_balance(&g, &p.part, 2) <= 1.0 + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// CSR-style code indexes several parallel arrays with one counter; the
// iterator rewrites clippy suggests are less clear there.
#![allow(clippy::needless_range_loop)]

pub mod baselines;
pub mod coarsen;
pub mod initial;
pub mod kway;
pub mod multiobjective;
pub mod quality;
pub mod refine;

use massf_graph::CsrGraph;

/// Configuration for the multilevel k-way partitioner.
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    /// Number of parts (simulation-engine nodes).
    pub nparts: usize,
    /// Allowed imbalance per constraint: a part may weigh up to
    /// `ubfactor * total / nparts` in each component. METIS's default of
    /// 1.03 is too tight for the tiny, highly skewed emulation graphs the
    /// paper partitions, so we default to 1.10.
    pub ubfactor: f64,
    /// RNG seed; every run with the same seed is bit-identical.
    pub seed: u64,
    /// Independent multilevel runs (seeds `seed..seed+restarts`); the best
    /// result by (balance feasibility, edge cut) wins. Multilevel + FM is
    /// randomized, and restarts close most of the quality gap to METIS's
    /// stronger refinement at negligible cost on emulation-sized graphs.
    pub restarts: usize,
    /// Optional per-constraint imbalance tolerances overriding `ubfactor`
    /// component-wise (constraint `c` uses `ub_vec[c]` when present). Lets
    /// a caller keep the primary load constraint tight while giving
    /// secondary constraints (profiled phases, memory) more slack.
    pub ub_vec: Option<Vec<f64>>,
    /// Optional per-part target weight fractions (must sum to 1). `None`
    /// means uniform targets — the paper's homogeneous cluster. Setting
    /// fractions proportional to engine speeds extends the mapper to
    /// heterogeneous resources (the §5 limitation).
    pub target_fractions: Option<Vec<f64>>,
    /// Worker threads for the best-of-`restarts` search. Each restart is
    /// an independent seeded run, and the winner is chosen by replaying
    /// the sequential selection fold over the index-ordered results, so
    /// the chosen partition is identical at every thread count.
    pub threads: Parallelism,
}

impl PartitionConfig {
    /// A sensible default configuration for `nparts` parts.
    pub fn new(nparts: usize) -> Self {
        Self {
            nparts,
            ubfactor: 1.10,
            seed: 0x5eed_cafe,
            restarts: 6,
            ub_vec: None,
            target_fractions: None,
            threads: Parallelism::serial(),
        }
    }

    /// The target fraction of part `p` (uniform when unset).
    pub fn fraction_for(&self, p: usize) -> f64 {
        self.target_fractions
            .as_ref()
            .map(|f| f[p])
            .unwrap_or(1.0 / self.nparts as f64)
    }

    /// Returns `self` with targets proportional to `capacities`.
    pub fn with_capacities(mut self, capacities: &[f64]) -> Self {
        assert_eq!(capacities.len(), self.nparts);
        let total: f64 = capacities.iter().sum();
        assert!(total > 0.0);
        self.target_fractions = Some(capacities.iter().map(|&c| c / total).collect());
        self
    }

    /// The tolerance that applies to constraint `c`.
    pub fn ub_for(&self, c: usize) -> f64 {
        self.ub_vec
            .as_ref()
            .and_then(|v| v.get(c).copied())
            .unwrap_or(self.ubfactor)
    }

    /// Returns `self` with a different seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns `self` with a different imbalance tolerance.
    pub fn with_ubfactor(mut self, ub: f64) -> Self {
        self.ubfactor = ub;
        self
    }

    /// Returns `self` running restarts on up to `par` threads.
    pub fn with_threads(mut self, par: Parallelism) -> Self {
        self.threads = par;
        self
    }
}

/// A k-way partition of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    /// Part label per vertex, each in `0..nparts`.
    pub part: Vec<u32>,
    /// Number of parts.
    pub nparts: usize,
}

impl Partitioning {
    /// Number of vertices in each part.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.nparts];
        for &p in &self.part {
            sizes[p as usize] += 1;
        }
        sizes
    }
}

/// Partitions `g` into `cfg.nparts` parts, minimizing edge cut subject to
/// balancing every vertex-weight component.
///
/// Runs `cfg.restarts` independent multilevel passes (concurrently when
/// `cfg.threads` allows) and keeps the best partition: feasible-balance
/// results are preferred, then lower edge cut, then lower worst balance.
/// Each restart is seeded `cfg.seed + i` and scored independently; the
/// winner is selected by folding the index-ordered results with the same
/// predicate the sequential loop used, so the result is deterministic in
/// `cfg.seed` and identical at every thread count.
pub fn partition_kway(g: &CsrGraph, cfg: &PartitionConfig) -> Partitioning {
    partition_kway_obs(g, cfg, "partition", &mut Recorder::new())
}

/// [`partition_kway`] with observability: times the search as a
/// `partition/{stage}` span on `rec` and records every restart's
/// (feasibility, cut, balance) outcome plus the winner index as a restart
/// batch labeled `stage`. The partitioning returned is exactly what
/// [`partition_kway`] computes — recording never perturbs the search.
pub fn partition_kway_obs(
    g: &CsrGraph,
    cfg: &PartitionConfig,
    stage: &str,
    rec: &mut Recorder,
) -> Partitioning {
    let span = rec.start();
    let restarts = cfg.restarts.max(1);
    let scored = par_indexed_map(cfg.threads, restarts, |i| {
        let attempt =
            kway::multilevel_kway(g, &cfg.clone().with_seed(cfg.seed.wrapping_add(i as u64)));
        let cut = quality::edge_cut(g, &attempt.part);
        let bal = quality::worst_balance(g, &attempt.part, cfg.nparts);

        let fractions: Vec<f64> = (0..cfg.nparts).map(|p| cfg.fraction_for(p)).collect();
        let feasible = (0..g.ncon()).all(|c| {
            quality::target_balance(g, &attempt.part, &fractions, c) <= cfg.ub_for(c) + 1e-9
        });
        (feasible, cut, bal, attempt)
    });
    let mut outcomes = Vec::with_capacity(restarts);
    let mut best: Option<(bool, Weight, f64, usize, Partitioning)> = None;
    for (i, (feasible, cut, bal, attempt)) in scored.into_iter().enumerate() {
        outcomes.push(RestartOutcome {
            feasible,
            cut,
            balance: bal,
        });
        let better = match &best {
            None => true,
            Some((bf, bc, bb, _, _)) => {
                (feasible, std::cmp::Reverse(cut)) > (*bf, std::cmp::Reverse(*bc))
                    || (feasible == *bf && cut == *bc && bal < *bb)
            }
        };
        if better {
            best = Some((feasible, cut, bal, i, attempt));
        }
    }
    let (_, _, _, winner, part) = best.expect("restarts >= 1");
    rec.record_restarts(stage, winner, outcomes);
    rec.finish(&format!("partition/{stage}"), span);
    part
}

use massf_graph::Weight;
use massf_obs::{Recorder, RestartOutcome};
use massf_par::{par_indexed_map, Parallelism};

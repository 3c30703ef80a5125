//! Synthetic GridNPB 3.0 foreground workload (§4.1.4).
//!
//! GridNPB composes NPB kernels into workflow DAGs; the paper runs the
//! Helical Chain (HC), Visualization Pipeline (VP) and Mixed Bag (MB)
//! graphs at class S. What matters for the mapping study is that this
//! traffic is *irregular*: transfers happen in stage-bursts, volumes differ
//! per DAG edge, and different hosts dominate at different times — which is
//! exactly why PLACE's uniform prediction is poor and PROFILE wins (§4.2.1).
//!
//! The model schedules each DAG statically: a task starts when all inputs
//! have arrived, computes, then bursts its outputs to its successors at
//! [`RATE_MBPS`]. The three standard graphs are built per the GridNPB 1.0
//! spec shapes; a caller picks only the base transfer unit, while task
//! costs scale [`BASE_COMPUTE_US`] and the per-task irregularity factors
//! are drawn from [`SEED`].

use crate::flow::FlowSpec;
use massf_topology::NodeId;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One task of a workflow DAG.
#[derive(Debug, Clone)]
pub struct Task {
    /// Task label (e.g. "BT.0").
    pub name: String,
    /// Index of the host (within the placement slice) running this task.
    pub host_slot: usize,
    /// Compute time in µs.
    pub compute_us: u64,
    /// `(successor task index, bytes transferred)` pairs.
    pub outputs: Vec<(usize, u64)>,
}

/// A workflow DAG: tasks in topological order.
#[derive(Debug, Clone)]
pub struct Workflow {
    /// Human-readable name (HC / VP / MB).
    pub name: &'static str,
    /// Tasks, topologically ordered (edges point forward).
    pub tasks: Vec<Task>,
}

/// Base compute time per task in µs.
pub const BASE_COMPUTE_US: u64 = 700_000;
/// Flow transfer rate in Mbps.
pub const RATE_MBPS: f64 = 150.0;
/// Seed of the per-task irregularity factors.
pub const SEED: u64 = 0x9fb;

/// Helical Chain: nine tasks (BT→SP→LU repeated 3×) in one chain, each
/// forwarding about `base_bytes` of solution to the next.
pub fn helical_chain(base_bytes: u64) -> Workflow {
    let kernels = ["BT", "SP", "LU"];
    let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 0x1);
    let mut tasks = Vec::with_capacity(9);
    for i in 0..9 {
        let kernel = kernels[i % 3];
        // Kernels differ in cost; SP is lighter, LU heavier (irregular).
        let cost_factor = match kernel {
            "BT" => 1.0,
            "SP" => 0.6,
            _ => 1.6,
        };
        let jitter = 0.8 + 0.4 * rng.gen::<f64>();
        let outputs = if i + 1 < 9 {
            vec![(i + 1, (base_bytes as f64 * jitter) as u64)]
        } else {
            vec![]
        };
        tasks.push(Task {
            name: format!("{kernel}.{i}"),
            host_slot: i,
            compute_us: (BASE_COMPUTE_US as f64 * cost_factor) as u64,
            outputs,
        });
    }
    Workflow { name: "HC", tasks }
}

/// Visualization Pipeline: three stages of BT→MG→FT; each BT also feeds the
/// next stage's BT (pipelined flow of visualization frames).
pub fn visualization_pipeline(base_bytes: u64) -> Workflow {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 0x2);
    let mut tasks: Vec<Task> = Vec::with_capacity(9);
    // Task index layout: stage s has BT=3s, MG=3s+1, FT=3s+2.
    for s in 0..3usize {
        let frame = (base_bytes as f64 * (1.5 + rng.gen::<f64>())) as u64;
        let mut bt_out = vec![(3 * s + 1, frame)];
        if s + 1 < 3 {
            bt_out.push((3 * (s + 1), frame / 2));
        }
        tasks.push(Task {
            name: format!("BT.{s}"),
            host_slot: 3 * s,
            compute_us: BASE_COMPUTE_US,
            outputs: bt_out,
        });
        tasks.push(Task {
            name: format!("MG.{s}"),
            host_slot: 3 * s + 1,
            compute_us: BASE_COMPUTE_US / 3, // MG is cheap at class S
            outputs: vec![(3 * s + 2, frame / 4)],
        });
        tasks.push(Task {
            name: format!("FT.{s}"),
            host_slot: 3 * s + 2,
            compute_us: BASE_COMPUTE_US / 2,
            outputs: vec![],
        });
    }
    Workflow { name: "VP", tasks }
}

/// Mixed Bag: three layers of three tasks with all-to-all edges between
/// consecutive layers and strongly uneven volumes (the "bag" mixes problem
/// sizes) — the most irregular of the three graphs.
pub fn mixed_bag(base_bytes: u64) -> Workflow {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 0x3);
    let mut tasks: Vec<Task> = Vec::with_capacity(9);
    for layer in 0..3usize {
        for j in 0..3usize {
            let idx = 3 * layer + j;
            // Volume skew of up to ~8x between edges.
            let outputs = if layer < 2 {
                (0..3)
                    .map(|k| {
                        let skew = 0.25 + 2.0 * rng.gen::<f64>().powi(2) * 3.5;
                        (3 * (layer + 1) + k, (base_bytes as f64 * skew) as u64)
                    })
                    .collect()
            } else {
                vec![]
            };
            let cost = 0.3 + 1.7 * rng.gen::<f64>();
            tasks.push(Task {
                name: format!("MB{layer}{j}"),
                host_slot: idx,
                compute_us: (BASE_COMPUTE_US as f64 * cost) as u64,
                outputs,
            });
        }
    }
    Workflow { name: "MB", tasks }
}

/// The paper's combined workload: HC + VP + MB run concurrently, with
/// `base_bytes` the base transfer unit (class-S solution array, ~1 MB
/// scaled).
pub fn paper_suite(base_bytes: u64) -> Vec<Workflow> {
    vec![
        helical_chain(base_bytes),
        visualization_pipeline(base_bytes),
        mixed_bag(base_bytes),
    ]
}

/// Number of host slots the combined suite needs (tasks of concurrent
/// workflows share the same placement pool round-robin).
pub const SUITE_SLOTS: usize = 9;

/// Statically schedules `workflows` over `placement` hosts and emits the
/// flow schedule. Task `t` of each workflow runs on
/// `placement[t.host_slot % placement.len()]`; a task starts when all its
/// inputs have arrived; its outputs burst simultaneously at finish time.
pub fn flows(workflows: &[Workflow], placement: &[NodeId]) -> Vec<FlowSpec> {
    assert!(!placement.is_empty());
    let mut out = Vec::new();
    for wf in workflows {
        let n = wf.tasks.len();
        // ready[i] = max arrival time of inputs.
        let mut ready = vec![0u64; n];
        for (i, task) in wf.tasks.iter().enumerate() {
            let start = ready[i];
            let finish = start + task.compute_us;
            let src = placement[task.host_slot % placement.len()];
            for &(succ, bytes) in &task.outputs {
                assert!(succ > i, "workflow edges must point forward");
                let dst = placement[wf.tasks[succ].host_slot % placement.len()];
                if src == dst {
                    // Same host: data is local, arrives instantly.
                    ready[succ] = ready[succ].max(finish);
                    continue;
                }
                let f = FlowSpec::from_bytes(src, dst, finish, bytes.max(1), RATE_MBPS);
                ready[succ] = ready[succ].max(f.end_us() + 1);
                out.push(f);
            }
        }
    }
    out.sort_by_key(|f| (f.start_us, f.src, f.dst));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The paper-size base transfer unit.
    const BASE: u64 = 1_200_000;

    fn placement() -> Vec<NodeId> {
        (200..209).collect()
    }

    #[test]
    fn suite_has_three_nine_task_graphs() {
        let wfs = paper_suite(BASE);
        assert_eq!(wfs.len(), 3);
        for wf in &wfs {
            assert_eq!(wf.tasks.len(), 9, "{} should have 9 tasks", wf.name);
        }
        assert_eq!(
            wfs.iter().map(|w| w.name).collect::<Vec<_>>(),
            vec!["HC", "VP", "MB"]
        );
    }

    #[test]
    fn hc_is_a_chain() {
        let wf = helical_chain(BASE);
        for (i, t) in wf.tasks.iter().enumerate() {
            if i < 8 {
                assert_eq!(t.outputs.len(), 1);
                assert_eq!(t.outputs[0].0, i + 1);
            } else {
                assert!(t.outputs.is_empty());
            }
        }
    }

    #[test]
    fn mb_fans_out_between_layers() {
        let wf = mixed_bag(BASE);
        assert_eq!(wf.tasks[0].outputs.len(), 3);
        assert_eq!(wf.tasks[8].outputs.len(), 0);
        // Volume skew across MB edges is large (irregularity).
        let vols: Vec<u64> = wf
            .tasks
            .iter()
            .flat_map(|t| t.outputs.iter().map(|&(_, b)| b))
            .collect();
        let max = *vols.iter().max().unwrap();
        let min = *vols.iter().min().unwrap();
        assert!(max >= 3 * min, "MB volumes too uniform: {min}..{max}");
    }

    #[test]
    fn schedule_respects_dependencies() {
        let wf = helical_chain(BASE);
        let fl = flows(&[wf], &placement());
        // Chain: flows must be strictly time-ordered with compute gaps.
        for w in fl.windows(2) {
            assert!(
                w[1].start_us >= w[0].end_us(),
                "successor burst before predecessor transfer finished"
            );
        }
        assert_eq!(fl.len(), 8);
    }

    #[test]
    fn suite_traffic_is_irregular_across_hosts() {
        let fl = flows(&paper_suite(BASE), &placement());
        let mut by_src: HashMap<NodeId, u64> = HashMap::new();
        for f in &fl {
            *by_src.entry(f.src).or_insert(0) += f.bytes;
        }
        let vols: Vec<u64> = by_src.values().copied().collect();
        let max = *vols.iter().max().unwrap() as f64;
        let min = *vols.iter().min().unwrap() as f64;
        assert!(max / min > 2.0, "GridNPB should be skewed, got {vols:?}");
    }

    #[test]
    fn bursts_cluster_in_time() {
        // The suite should produce distinct burst epochs, not a smooth
        // stream: measure the fraction of time covered by transfers.
        let fl = flows(&paper_suite(BASE), &placement());
        let horizon = fl.iter().map(|f| f.end_us()).max().unwrap();
        let busy: u64 = fl.iter().map(|f| f.end_us() - f.start_us + 1).sum();
        // Allowing overlap, bursts cover well under the full horizon.
        assert!(
            (busy as f64) < 0.9 * horizon as f64 * fl.len() as f64,
            "no burst structure"
        );
        assert!(horizon > BASE_COMPUTE_US, "schedule too short");
    }

    #[test]
    fn same_host_edges_emit_no_flow() {
        let wf = helical_chain(BASE);
        // Two hosts: adjacent chain tasks alternate, so all 8 edges cross.
        let fl2 = flows(std::slice::from_ref(&wf), &[1, 2]);
        assert_eq!(fl2.len(), 8);
        // One host: everything is local.
        let fl1 = flows(&[wf], &[7]);
        assert!(fl1.is_empty());
    }

    #[test]
    fn deterministic() {
        let a = flows(&paper_suite(BASE), &placement());
        let b = flows(&paper_suite(BASE), &placement());
        assert_eq!(a, b);
    }
}

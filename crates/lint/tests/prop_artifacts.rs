//! The artifact audit must accept what the real pipeline produces: a
//! `partition_kway` partitioning of any generator topology — the fixed
//! paper networks and arbitrary BRITE-like graphs — audits with zero
//! Error-level diagnostics. Fragmented or singleton parts are allowed
//! (they are Notes), but empty parts, foreign labels, and coverage
//! mismatches would surface here as MC013 errors.

use massf_lint::{lint_artifacts, LintInput, Severity};
use massf_mapping::weights;
use massf_partition::{partition_kway, PartitionConfig};
use massf_topology::brite::{generate, BriteConfig, GrowthModel};
use massf_topology::campus::campus;
use massf_topology::teragrid::teragrid;
use massf_topology::Network;
use proptest::prelude::*;

fn audit_partitioned(net: &Network, engines: usize, what: &str) {
    let g = weights::latency_graph(net);
    let p = partition_kway(&g, &PartitionConfig::new(engines));
    let diags = lint_artifacts(
        &LintInput::network(net)
            .with_engines(engines)
            .with_partition(&p),
    );
    assert_eq!(
        diags.count(Severity::Error),
        0,
        "{what} at {engines} engines: {}\n{}",
        diags.summary_line(),
        diags
            .iter()
            .map(|d| format!("{}[{}] {}", d.severity.label(), d.code, d.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn paper_topology_partitions_audit_error_free() {
    audit_partitioned(&campus(), 3, "campus");
    audit_partitioned(&teragrid(), 5, "teragrid");
    audit_partitioned(&generate(&BriteConfig::paper_brite()), 8, "brite");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_topology_partitions_audit_error_free(
        routers in 6usize..20,
        hosts in 4usize..12,
        engines in 2usize..6,
        seed in any::<u64>(),
        waxman in prop::bool::ANY,
    ) {
        let model = if waxman {
            GrowthModel::Waxman { alpha: 0.2, beta: 0.15 }
        } else {
            GrowthModel::BarabasiAlbert { m: 2 }
        };
        let net = generate(&BriteConfig {
            routers,
            hosts,
            model,
            seed,
        });
        let g = weights::latency_graph(&net);
        let p = partition_kway(&g, &PartitionConfig::new(engines));
        let diags = lint_artifacts(
            &LintInput::network(&net)
                .with_engines(engines)
                .with_partition(&p),
        );
        prop_assert_eq!(
            diags.count(Severity::Error),
            0,
            "routers={} hosts={} engines={} seed={} waxman={}: {}",
            routers, hosts, engines, seed, waxman, diags.summary_line()
        );
    }
}

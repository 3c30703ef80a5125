//! Generated topologies must be lint-clean: every network the
//! `massf-topology` generators can produce — the fixed paper topologies
//! and arbitrary BRITE-like graphs — lints with zero Error-level
//! diagnostics. The generators construct connected, positively-weighted,
//! dense-id networks by design; a generator regression that violates any
//! of those invariants shows up here as an `MC*` error.

use massf_lint::{lint_scenario, LintInput, Severity};
use massf_topology::brite::{generate, BriteConfig, GrowthModel};
use massf_topology::campus::campus;
use massf_topology::teragrid::teragrid;
use massf_topology::Network;
use proptest::prelude::*;

fn assert_error_free(net: &Network, what: &str) {
    let diags = lint_scenario(&LintInput::network(net));
    assert_eq!(
        diags.count(Severity::Error),
        0,
        "{what}: {}\n{}",
        diags.summary_line(),
        diags
            .iter()
            .map(|d| format!("{}[{}] {}", d.severity.label(), d.code, d.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn paper_topologies_lint_error_free() {
    assert_error_free(&campus(), "campus");
    assert_error_free(&teragrid(), "teragrid");
    assert_error_free(
        &generate(&BriteConfig::paper_brite()),
        "brite (paper config)",
    );
    assert_error_free(
        &generate(&BriteConfig::paper_scaleup()),
        "brite (scale-up config)",
    );
}

#[test]
fn paper_topologies_pass_partition_feasibility() {
    // With their documented engine counts, the fixed topologies must also
    // clear the partition-request passes (MC007), not just the structural
    // ones.
    for (net, engines, what) in [
        (campus(), 3usize, "campus"),
        (teragrid(), 5, "teragrid"),
        (generate(&BriteConfig::paper_brite()), 8, "brite"),
    ] {
        let input = LintInput::network(&net).with_engines(engines);
        let diags = lint_scenario(&input);
        assert_eq!(
            diags.count(Severity::Error),
            0,
            "{what} at {engines} engines: {}",
            diags.summary_line()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generated_brite_topologies_lint_error_free(
        routers in 6usize..24,
        hosts in 4usize..16,
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
        let diags = lint_scenario(&LintInput::network(&net));
        prop_assert_eq!(
            diags.count(Severity::Error),
            0,
            "routers={} hosts={} seed={} waxman={}: {}",
            routers, hosts, seed, waxman, diags.summary_line()
        );
    }
}

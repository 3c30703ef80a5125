//! Post-pipeline artifact audits: thin entry points over `massf-lint`'s
//! artifact stage (MC013–MC020).
//!
//! The request preflight ([`massf_lint::lint_scenario`]) judges
//! what was asked for; these helpers judge what the pipeline produced — a
//! concrete [`Partitioning`] plus the [`MappingStudy`]'s routing tables,
//! or a recorded trace file. The CLI runs them after `partition`, `run`,
//! `record`, and `replay` and refuses past any Error, the same contract
//! as the preflight.

use massf_lint::{Diagnostics, LintInput};
use massf_mapping::MappingStudy;
use massf_partition::Partitioning;
use massf_topology::Network;
use massf_traffic::tracefile::{self, Trace};

/// What the study produced, as a lint input: `partition` plus the study's
/// routing tables under its engine count and (when configured)
/// heterogeneous capacity vector.
fn study_input<'a>(study: &'a MappingStudy, partition: &'a Partitioning) -> LintInput<'a> {
    let mut input = LintInput::network(&study.net)
        .with_engines(study.cfg.engines)
        .with_partition(partition)
        .with_tables(&study.tables);
    input.engine_capacities = study.cfg.engine_capacities.as_deref();
    input
}

/// Audits the pipeline outputs of `study` for the given `partition`.
/// Returns a finished MC013–MC020 report; the drift passes (MC019/MC020)
/// have no load evidence here and emit nothing.
pub fn audit_study(study: &MappingStudy, partition: &Partitioning) -> Diagnostics {
    massf_lint::lint_artifacts(&study_input(study, partition))
}

/// [`audit_study`] extended with the online-rebalancer's load evidence:
/// `predicted_engine_loads` (PLACE's plan, summed per engine) and
/// `epoch_engine_loads` (what NetFlow measured per epoch) additionally
/// feed the MC019/MC020 drift passes.
pub fn audit_study_online(
    study: &MappingStudy,
    partition: &Partitioning,
    predicted_engine_loads: &[f64],
    epoch_engine_loads: &[Vec<u64>],
) -> Diagnostics {
    let input = study_input(study, partition)
        .with_predicted_loads(predicted_engine_loads)
        .with_epoch_loads(epoch_engine_loads);
    massf_lint::lint_artifacts(&input)
}

/// A validated trace file: the lint report plus the parsed trace when the
/// text parsed at all.
#[derive(Debug)]
pub struct TraceAudit {
    /// MC016 findings (plus endpoint/request findings when a network was
    /// supplied), finished and ordered.
    pub diags: Diagnostics,
    /// The parsed trace, `None` when the text was rejected outright.
    pub trace: Option<Trace>,
}

/// Validates trace text: parses it, runs the MC016 trace lint, and — when
/// `net` is given — additionally runs the request passes over the parsed
/// schedule so endpoint validity (MC009) and injection feasibility are
/// checked against that topology. This is the `massf check <trace.txt>`
/// and `replay` entry point; `replay`'s former ad-hoc trace checks live
/// here as lint findings.
pub fn audit_trace(text: &str, net: Option<&Network>) -> TraceAudit {
    let parsed = tracefile::parse_trace(text);
    let mut diags = massf_lint::lint_trace(&parsed);
    if let (Some(net), Ok(trace)) = (net, &parsed) {
        let mut input = LintInput::network(net);
        input.flows = &trace.flows;
        diags.merge(massf_lint::lint_scenario(&input));
    }
    TraceAudit {
        diags,
        trace: parsed.ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_lint::Code;
    use massf_mapping::{Approach, MapperConfig};
    use massf_topology::campus::campus;
    use massf_traffic::FlowSpec;

    #[test]
    fn campus_top_partition_audits_clean_of_errors() {
        let study = MappingStudy::new(campus(), MapperConfig::new(3));
        let p = study.map(Approach::Top, &[], &[]);
        let d = audit_study(&study, &p);
        assert!(!d.has_errors(), "{}", d.summary_line());
        assert_eq!(d.passes_run, 8);
    }

    #[test]
    fn online_audit_surfaces_measured_drift() {
        let study = MappingStudy::new(campus(), MapperConfig::new(3));
        let p = study.map(Approach::Top, &[], &[]);
        // Load that flips engines between epochs: MC020 must fire.
        let epochs = vec![vec![100, 0, 0], vec![0, 100, 0]];
        let predicted = vec![34.0, 33.0, 33.0];
        let d = audit_study_online(&study, &p, &predicted, &epochs);
        assert!(d.iter().any(|x| x.code == Code::Mc020), "{d:?}");
        // A steady, well-predicted run stays drift-clean.
        let quiet = vec![vec![34, 33, 33], vec![34, 33, 33]];
        let d = audit_study_online(&study, &p, &predicted, &quiet);
        assert!(!d.iter().any(|x| x.code == Code::Mc019));
        assert!(!d.iter().any(|x| x.code == Code::Mc020));
    }

    #[test]
    fn trace_audit_catches_foreign_endpoints_with_a_network() {
        let net = campus();
        let flows = vec![FlowSpec {
            src: 9_999,
            dst: 0,
            start_us: 0,
            packets: 1,
            bytes: 1_500,
            packet_interval_us: 100,
            window: None,
        }];
        let text = tracefile::write(&flows);
        let audit = audit_trace(&text, Some(&net));
        assert!(audit.diags.has_errors());
        assert!(audit.diags.iter().any(|x| x.code == Code::Mc009));
        assert!(audit.trace.is_some());

        // Without a network, only the trace-shape checks run: this trace
        // is shape-clean.
        let solo = audit_trace(&text, None);
        assert!(!solo.diags.has_errors(), "{}", solo.diags.summary_line());
    }

    #[test]
    fn unparsable_text_yields_no_trace_and_an_error() {
        let audit = audit_trace("garbage", Some(&campus()));
        assert!(audit.trace.is_none());
        assert!(audit.diags.has_errors());
    }
}

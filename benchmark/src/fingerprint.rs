//! The correctness fingerprint of a run: the simulated results that must
//! repeat exactly across reps, thread counts and the CLI/staged pair, and that
//! a speed-only change must leave bit-identical.

use massf_core::obs::json::Value;
use massf_core::prelude::*;

#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub total_events: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub rounds: u64,
    pub remote_messages: u64,
    pub engine_events: Vec<u64>,
    pub load_imbalance: f64,
    pub modeled_time_s: f64,
}

impl Fingerprint {
    pub fn of(report: &EmulationReport) -> Self {
        Self {
            total_events: report.total_events(),
            delivered: report.delivered,
            dropped: report.dropped,
            rounds: report.rounds,
            remote_messages: report.remote_messages,
            engine_events: report.engine_events.clone(),
            load_imbalance: load_imbalance(&report.engine_events),
            modeled_time_s: report.emulation_time_s(),
        }
    }

    /// One JSON object on one line. Floats are written in Rust's shortest
    /// form that reads back to the same bits.
    pub fn to_json(&self) -> String {
        let engines: Vec<String> = self.engine_events.iter().map(u64::to_string).collect();
        format!(
            "{{\"total_events\": {}, \"delivered\": {}, \"dropped\": {}, \"rounds\": {}, \
             \"remote_messages\": {}, \"engine_events\": [{}], \"load_imbalance\": {}, \
             \"modeled_time_s\": {}}}",
            self.total_events,
            self.delivered,
            self.dropped,
            self.rounds,
            self.remote_messages,
            engines.join(", "),
            self.load_imbalance,
            self.modeled_time_s
        )
    }

    pub fn from_json(v: &Value) -> Option<Self> {
        let int = |key: &str| v.get(key)?.as_u64();
        let float = |key: &str| v.get(key)?.as_f64();
        Some(Self {
            total_events: int("total_events")?,
            delivered: int("delivered")?,
            dropped: int("dropped")?,
            rounds: int("rounds")?,
            remote_messages: int("remote_messages")?,
            engine_events: v
                .get("engine_events")?
                .as_array()?
                .iter()
                .map(Value::as_u64)
                .collect::<Option<_>>()?,
            load_imbalance: float("load_imbalance")?,
            modeled_time_s: float("modeled_time_s")?,
        })
    }

    /// What must hold of any correct run, whatever the inputs: every packet
    /// the schedule injects is delivered, none is dropped, and the per-engine
    /// counts add up.
    pub fn check_invariants(&self, expected_packets: u64) -> Result<(), String> {
        if self.delivered != expected_packets || self.dropped != 0 {
            return Err(format!(
                "schedule injects {expected_packets} packets; run delivered {} and dropped {}",
                self.delivered, self.dropped
            ));
        }
        if self.engine_events.iter().sum::<u64>() != self.total_events {
            return Err("per-engine events do not sum to the total".to_string());
        }
        Ok(())
    }
}

/// Checks that the text `massf` printed reports `report`, to the digits it
/// prints. `migrated` is the online run's migration count.
pub fn check_cli_output(
    output: &str,
    report: &EmulationReport,
    migrated: Option<usize>,
) -> Result<(), String> {
    let fp = Fingerprint::of(report);
    let mut wanted = vec![
        format!("{} packets", fp.delivered),
        format!("{:.2}s modeled", fp.modeled_time_s),
        report.balance_line(),
    ];
    if output.starts_with("replayed") {
        wanted.push(format!("imbalance {:.3}", fp.load_imbalance));
    } else {
        wanted.push(format!("imbalance    : {:.3}", fp.load_imbalance));
        wanted.push(format!("({} dropped)", fp.dropped));
        wanted.push(format!("kernel events: {}", fp.total_events));
        wanted.push(format!(
            "({} sync rounds, {} cross-engine events)",
            fp.rounds, fp.remote_messages
        ));
    }
    if let Some(m) = migrated {
        wanted.push(format!("{m} node(s) migrated"));
    }
    match wanted.iter().find(|w| !output.contains(w.as_str())) {
        None => Ok(()),
        Some(missing) => Err(format!(
            "massf output disagrees with the staged pipeline: expected {missing:?} in\n{output}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massf_core::obs::json;

    fn sample() -> Fingerprint {
        Fingerprint {
            total_events: 40,
            delivered: 4,
            dropped: 0,
            rounds: 7,
            remote_messages: 2,
            engine_events: vec![30, 10],
            load_imbalance: 0.1 + 0.2,
            modeled_time_s: 1.0 / 3.0,
        }
    }

    #[test]
    fn json_round_trip_keeps_every_bit() {
        let fp = sample();
        let back = Fingerprint::from_json(&json::parse(&fp.to_json()).unwrap()).unwrap();
        assert_eq!(back, fp);
        assert_eq!(back.load_imbalance.to_bits(), fp.load_imbalance.to_bits());
    }

    #[test]
    fn invariants_catch_lost_packets() {
        assert!(sample().check_invariants(4).is_ok());
        assert!(sample().check_invariants(5).is_err());
        let mut fp = sample();
        fp.dropped = 1;
        assert!(fp.check_invariants(4).is_err());
        fp = sample();
        fp.engine_events[0] += 1;
        assert!(fp.check_invariants(4).is_err());
    }
}

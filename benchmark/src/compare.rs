//! `massf-benchmark compare base.json new.json`: the regression rule applied
//! to two `results.json` files, per workload and end-to-end metric.

use crate::report::{bound_of, BENCHMARK_JSON, END_TO_END};
use crate::stats::{judge, median, spread, Verdict};
use massf_core::obs::json::{self, Value};

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values_of(workload: &Value, section: &str, metric: &str) -> Option<Vec<f64>> {
    workload
        .get(section)?
        .get(metric)?
        .get("values")?
        .as_array()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

fn workloads_of(results: &Value) -> Vec<(String, Value)> {
    match results.get("workloads") {
        Some(Value::Obj(members)) => members.clone(),
        _ => Vec::new(),
    }
}

/// Names of `section`'s metrics whose unit marks them exact.
fn exact_rows(workload: &Value, section: &str) -> Vec<String> {
    match workload.get(section) {
        Some(Value::Obj(members)) => members
            .iter()
            .filter(|(_, m)| {
                matches!(
                    m.get("unit").and_then(Value::as_str),
                    Some("count" | "bytes")
                )
            })
            .map(|(name, _)| name.clone())
            .collect(),
        _ => Vec::new(),
    }
}

/// Prints one line per workload × end-to-end metric and returns the exit
/// code: 0 when all PASS, 1 when anything REGRESSED, 2 when nothing
/// regressed but something is UNRESOLVED.
pub fn compare_main(base_path: &str, new_path: &str) -> Result<i32, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    let bounds = json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut worst = Verdict::Pass;
    let mut note = |v: Verdict| {
        if v == Verdict::Regressed || (v == Verdict::Unresolved && worst == Verdict::Pass) {
            worst = v;
        }
    };
    println!("workload metric unit base new new/base spread(base) spread(new) verdict");
    for (name, base_w) in workloads_of(&base) {
        let Some(new_w) = new.get("workloads").and_then(|w| w.get(&name)) else {
            println!("{name} is missing from {new_path}");
            note(Verdict::Regressed);
            continue;
        };
        for def in &END_TO_END {
            let bound = bound_of(&bounds, def.name)
                .ok_or_else(|| format!("BENCHMARK.json fixes no bound for {}", def.name))?;
            let sides = (
                values_of(&base_w, "end_to_end", def.name),
                values_of(new_w, "end_to_end", def.name),
            );
            let (Some(b), Some(n)) = sides else {
                println!("{name} {} is missing from one side", def.name);
                note(Verdict::Regressed);
                continue;
            };
            let verdict = judge(&bound, &b, &n).unwrap_or(Verdict::Regressed);
            let (bm, nm) = (
                median(&b).unwrap_or(f64::NAN),
                median(&n).unwrap_or(f64::NAN),
            );
            println!(
                "{name} {} {} {bm} {nm} {:.4} {:.4} {:.4} {}",
                def.name,
                def.unit,
                nm / bm,
                spread(&b),
                spread(&n),
                verdict.label()
            );
            note(verdict);
        }
        // failed_share: any increase is a regression.
        let share = |w: &Value| w.get("failed_share").and_then(Value::as_f64).unwrap_or(1.0);
        let verdict = if share(new_w) > share(&base_w) {
            Verdict::Regressed
        } else {
            Verdict::Pass
        };
        println!(
            "{name} failed_share ratio {} {} - {}",
            share(&base_w),
            share(new_w),
            verdict.label()
        );
        note(verdict);
        // Exact rows: reported, not judged — a change of behaviour moves
        // them on purpose, a change of speed must not.
        let changed: Vec<String> = exact_rows(&base_w, "per_layer")
            .into_iter()
            .filter(|row| {
                values_of(&base_w, "per_layer", row) != values_of(new_w, "per_layer", row)
            })
            .chain(
                (base_w.get("fingerprint") != new_w.get("fingerprint"))
                    .then(|| "fingerprint".to_string()),
            )
            .collect();
        if changed.is_empty() {
            println!("{name} exact rows identical");
        } else {
            println!("{name} exact rows CHANGED: {}", changed.join(" "));
        }
    }
    Ok(match worst {
        Verdict::Pass => 0,
        Verdict::Regressed => 1,
        Verdict::Unresolved => 2,
    })
}

//! The paper's load-imbalance metric.
//!
//! "Assuming the simulation kernel event rates are k₁, k₂, …, kₙ for n
//! nodes used by the simulation engine, the load imbalance is calculated
//! as the normalized standard deviation of {k}" (§4.1.1).

/// Normalized standard deviation (coefficient of variation) of per-engine
/// loads: `std({k}) / mean({k})`. Returns 0.0 for empty input or zero mean
/// (an all-idle system is trivially balanced).
pub fn load_imbalance(loads: &[u64]) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let n = loads.len() as f64;
    // Summed in u128: loads read back from a report can be saturated.
    let mean = loads.iter().map(|&k| k as u128).sum::<u128>() as f64 / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = loads
        .iter()
        .map(|&k| (k as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}

/// Relative improvement of `new` over `baseline`, in percent — how the
/// paper reports "PROFILE improves load balance by 50% to 66%". Positive
/// means `new` is better (smaller).
pub fn improvement_pct(baseline: f64, new: f64) -> f64 {
    if baseline == 0.0 {
        return 0.0;
    }
    100.0 * (baseline - new) / baseline
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_balanced_is_zero() {
        assert_eq!(load_imbalance(&[100, 100, 100]), 0.0);
    }

    #[test]
    fn known_value() {
        // loads 1, 3: mean 2, std 1 -> 0.5.
        assert!((load_imbalance(&[1, 3]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fully_skewed_grows_with_engine_count() {
        // One engine does everything: imbalance = sqrt(n - 1).
        let i3 = load_imbalance(&[300, 0, 0]);
        let i5 = load_imbalance(&[300, 0, 0, 0, 0]);
        assert!((i3 - 2f64.sqrt()).abs() < 1e-12);
        assert!((i5 - 4f64.sqrt()).abs() < 1e-12);
        assert!(i5 > i3, "the paper notes imbalance rises with engine count");
    }

    #[test]
    fn empty_and_idle_are_zero() {
        assert_eq!(load_imbalance(&[]), 0.0);
        assert_eq!(load_imbalance(&[0, 0]), 0.0);
    }

    #[test]
    fn improvement_direction() {
        assert!((improvement_pct(1.0, 0.34) - 66.0).abs() < 1e-9);
        assert!(improvement_pct(0.5, 0.75) < 0.0, "worse result is negative");
        assert_eq!(improvement_pct(0.0, 1.0), 0.0);
    }

    #[test]
    fn scale_invariance() {
        let a = load_imbalance(&[5, 10, 15]);
        let b = load_imbalance(&[500, 1000, 1500]);
        assert!((a - b).abs() < 1e-12);
    }
}

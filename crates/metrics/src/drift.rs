//! Load-drift metrics: how far a per-engine load distribution has moved.
//!
//! Two comparisons recur across the online-rebalancing story (ROADMAP's
//! "online repartitioning" item, DESIGN.md §15):
//!
//! * **predicted vs. measured** — PLACE's predicted per-engine load
//!   against what NetFlow actually measured (the MC019 lint pass);
//! * **epoch vs. epoch** — this epoch's measured per-engine load against
//!   the previous epoch's (the MC020 lint pass; the rebalancer records
//!   both as diagnosis and sweeps every boundary, DESIGN.md §15).
//!
//! Both reduce to the same scale-free question: *did the shape of the
//! load distribution change?* Absolute magnitudes differ wildly between
//! epochs (bursty applications) and between prediction units (predicted
//! bandwidth vs. measured packets), so loads are first normalized to
//! shares summing to 1, then compared by total-variation distance —
//! `½ · Σ |aᵢ − bᵢ|`, the largest probability mass that moved, in
//! `[0, 1]`. A drift of 0.10 reads as "10 % of the load moved engines".

/// Normalizes loads to shares summing to 1.0. An empty or all-zero input
/// yields all-zero shares (an idle system has no distribution to compare).
pub fn load_shares(loads: &[f64]) -> Vec<f64> {
    let total: f64 = loads.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        return vec![0.0; loads.len()];
    }
    loads.iter().map(|&l| l / total).collect()
}

/// [`load_shares`] over integer loads (measured kernel-event counts).
pub fn load_shares_u64(loads: &[u64]) -> Vec<f64> {
    let as_f64: Vec<f64> = loads.iter().map(|&l| l as f64).collect();
    load_shares(&as_f64)
}

/// Total-variation distance between two load distributions, in `[0, 1]`:
/// the fraction of total load that sits on different engines in `a` than
/// in `b`. Inputs are normalized to shares first, so the comparison is
/// scale-free; if either side is all-zero (idle), the drift is 0. Lengths
/// must match.
pub fn load_drift(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "drift over mismatched engine counts");
    let (sa, sb) = (load_shares(a), load_shares(b));
    if sa.iter().sum::<f64>() == 0.0 || sb.iter().sum::<f64>() == 0.0 {
        return 0.0;
    }
    0.5 * sa.iter().zip(&sb).map(|(x, y)| (x - y).abs()).sum::<f64>()
}

/// [`load_drift`] over integer loads.
pub fn load_drift_u64(a: &[u64], b: &[u64]) -> f64 {
    let af: Vec<f64> = a.iter().map(|&l| l as f64).collect();
    let bf: Vec<f64> = b.iter().map(|&l| l as f64).collect();
    load_drift(&af, &bf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_distributions_have_zero_drift() {
        assert_eq!(load_drift_u64(&[10, 20, 30], &[10, 20, 30]), 0.0);
        // Scale-free: the same shape at 100x magnitude is still zero.
        assert_eq!(load_drift_u64(&[10, 20, 30], &[1000, 2000, 3000]), 0.0);
    }

    #[test]
    fn disjoint_distributions_drift_fully() {
        assert!((load_drift_u64(&[100, 0], &[0, 100]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_value() {
        // Shares (0.5, 0.5) vs (0.75, 0.25): half of |0.25| + |0.25| = 0.25.
        assert!((load_drift_u64(&[50, 50], &[75, 25]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn idle_side_is_zero_drift() {
        assert_eq!(load_drift_u64(&[0, 0], &[10, 20]), 0.0);
        assert_eq!(load_drift_u64(&[10, 20], &[0, 0]), 0.0);
        assert_eq!(load_drift(&[], &[]), 0.0);
    }

    #[test]
    fn shares_sum_to_one() {
        let s = load_shares_u64(&[1, 2, 3, 4]);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((s[3] - 0.4).abs() < 1e-12);
        assert_eq!(load_shares_u64(&[0, 0]), vec![0.0, 0.0]);
    }

    #[test]
    fn drift_is_symmetric_and_bounded() {
        let (a, b) = ([3u64, 9, 1, 7], [8u64, 2, 6, 4]);
        let d = load_drift_u64(&a, &b);
        assert_eq!(d, load_drift_u64(&b, &a));
        assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    #[should_panic(expected = "mismatched engine counts")]
    fn mismatched_lengths_panic() {
        load_drift_u64(&[1, 2], &[1, 2, 3]);
    }
}

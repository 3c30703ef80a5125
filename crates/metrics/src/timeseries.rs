//! Fine-grained load series (Figures 2 and 8).
//!
//! Figure 2 plots each engine's load over the emulation lifetime; Figure 8
//! plots the *imbalance* computed per 2-second interval. Both derive from
//! the engine counters' virtual-time buckets.

use crate::imbalance::load_imbalance;

/// Per-interval imbalance from a `[engine][bucket]` event matrix.
///
/// Buckets whose total activity falls below `min_events` are reported as
/// 0.0 — the paper's clustering likewise discards segments where "the
/// traffic load is so low that even heavy load imbalance has no appreciable
/// affect" (§3.3).
pub fn imbalance_series(window_series: &[Vec<u64>], min_events: u64) -> Vec<f64> {
    let Some(buckets) = window_series.iter().map(Vec::len).max() else {
        return Vec::new();
    };
    let mut out = Vec::with_capacity(buckets);
    for b in 0..buckets {
        let loads: Vec<u64> = window_series
            .iter()
            .map(|e| e.get(b).copied().unwrap_or(0))
            .collect();
        // u128: counters read back from a report can be saturated.
        let total: u128 = loads.iter().map(|&l| l as u128).sum();
        out.push(if total < min_events as u128 {
            0.0
        } else {
            load_imbalance(&loads)
        });
    }
    out
}

/// Time-averaged imbalance over the active buckets only.
pub fn mean_active_imbalance(window_series: &[Vec<u64>], min_events: u64) -> f64 {
    let series = imbalance_series(window_series, min_events);
    let active: Vec<f64> = series.into_iter().filter(|&x| x > 0.0).collect();
    if active.is_empty() {
        0.0
    } else {
        active.iter().sum::<f64>() / active.len() as f64
    }
}

/// The eight block glyphs a [`sparkline`] is drawn with, lightest first.
pub const SPARK_GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders a series as a unicode sparkline, scaled to the series maximum.
///
/// A zero value maps to the lightest glyph and the maximum to the heaviest,
/// so shapes are comparable within one line but not across lines. An
/// all-zero (or empty) series renders as all-lightest glyphs. Purely a
/// function of the values — deterministic, no locale or width dependence.
pub fn sparkline(series: &[u64]) -> String {
    let max = series.iter().copied().max().unwrap_or(0);
    series
        .iter()
        .map(|&v| {
            if max == 0 {
                SPARK_GLYPHS[0]
            } else {
                // Scale into 0..=7; only v == max reaches the full block.
                let idx = (v as u128 * (SPARK_GLYPHS.len() as u128 - 1)).div_ceil(max as u128);
                SPARK_GLYPHS[idx as usize]
            }
        })
        .collect()
}

/// [`sparkline`] over an `f64` series (per-interval imbalance curves),
/// scaled via a fixed 1e6 quantization so rendering is bit-stable.
pub fn sparkline_f64(series: &[f64]) -> String {
    let quantized: Vec<u64> = series
        .iter()
        .map(|&x| {
            if x.is_finite() && x > 0.0 {
                (x * 1e6) as u64
            } else {
                0
            }
        })
        .collect();
    sparkline(&quantized)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_per_bucket() {
        let ws = vec![vec![10, 0, 5], vec![10, 0, 15]];
        let s = imbalance_series(&ws, 1);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0], 0.0, "balanced bucket");
        assert_eq!(s[1], 0.0, "idle bucket filtered");
        assert!((s[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn low_traffic_buckets_filtered() {
        let ws = vec![vec![3, 0], vec![0, 0]];
        let s = imbalance_series(&ws, 10);
        assert_eq!(s, vec![0.0, 0.0]);
    }

    #[test]
    fn ragged_rows_padded_with_zero() {
        let ws = vec![vec![4], vec![4, 8]];
        let s = imbalance_series(&ws, 1);
        assert_eq!(s.len(), 2);
        assert!(s[1] > 0.9, "engine 0 idle in bucket 1: full skew");
    }

    #[test]
    fn saturated_counters_do_not_overflow() {
        let ws = vec![vec![u64::MAX, 1], vec![u64::MAX, u64::MAX]];
        let s = imbalance_series(&ws, 1);
        assert_eq!(s[0], 0.0, "equal loads, however large");
        assert!(s[1] > 0.9, "one engine idle next to a saturated one");
    }

    #[test]
    fn mean_active_ignores_idle() {
        let ws = vec![vec![10, 0, 10], vec![30, 0, 10]];
        // Bucket 0: loads [10, 30] -> cv 0.5; bucket 2 balanced (0, not
        // active); bucket 1 idle. Mean over active buckets = 0.5.
        let m = mean_active_imbalance(&ws, 1);
        assert!((m - 0.5).abs() < 1e-12, "only bucket 0 contributes: {m}");
    }

    #[test]
    fn sparkline_scales_to_max() {
        let s = sparkline(&[0, 1, 4, 8]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁'), "{s}");
        assert!(s.ends_with('█'), "only the max gets the full block: {s}");
    }

    #[test]
    fn sparkline_empty_and_flat() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0, 0]), "▁▁▁");
        assert_eq!(sparkline(&[7, 7]), "██");
    }

    #[test]
    fn sparkline_f64_quantizes() {
        let s = sparkline_f64(&[0.0, 0.5, 1.0, f64::NAN]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.ends_with('▁'), "NaN maps to the floor: {s}");
        assert!(s.contains('█'), "{s}");
    }
}

//! # massf-metrics
//!
//! Evaluation metrics and reporting for the MaSSF reproduction (§4.1.1):
//!
//! * [`diag`] — the diagnostics model both lint crates share: the
//!   severity model, the code-catalog trait and its [`catalog!`] table,
//!   one finding type, one report with its human and JSON renderings;
//! * [`imbalance`] — the paper's load-imbalance metric: the normalized
//!   standard deviation of per-engine kernel event rates;
//! * [`drift`] — total-variation distance between per-engine load
//!   distributions (the MC019/MC020 drift metric and the incremental
//!   rebalancer's skip trigger);
//! * [`timeseries`] — fine-grained per-interval imbalance series
//!   (Figures 2 and 8);
//! * [`report`] — table/figure text rendering and JSON export for the
//!   benchmark harness;
//! * [`json`] — the workspace's only JSON writer and reader (this crate is
//!   the std-only leaf every emitter can reach; `massf_obs::json`
//!   re-exports it).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// CSR-style code indexes several parallel arrays with one counter; the
// iterator rewrites clippy suggests are less clear there.
#![allow(clippy::needless_range_loop)]

pub mod diag;
pub mod drift;
pub mod imbalance;
pub mod json;
pub mod report;
pub mod timeseries;

pub use drift::{load_drift, load_drift_u64, load_shares, load_shares_u64};
pub use imbalance::{improvement_pct, load_imbalance};

//! # massf-check
//!
//! A loom-style model checker for the engine's windowed conservative
//! synchronization protocol ([`massf_engine::protocol_loop`]).
//!
//! The production protocol is generic over [`massf_engine::SyncShim`];
//! this crate instantiates it with *virtual* primitives driven by a
//! cooperative scheduler ([`sched`]): the protocol's participants (one
//! engine each, or a group as in the pooled executor) are real OS threads,
//! but every barrier arrival, slot publish/read, and channel send/receive
//! parks the thread until the controller grants it. One thread runs at a
//! time, so a run is determined entirely by the grant sequence — and the
//! explorer ([`mod@explore`]) enumerates those sequences depth-first.
//!
//! Exhaustive enumeration is affordable because of partial-order
//! reduction: each granted operation is hashed together with the acting
//! thread's vector clock ([`vv`]) and XOR-accumulated into a trace hash,
//! so schedules that only reorder *independent* operations collide in the
//! visited set and all but the first are pruned ([`hash`]).
//!
//! On every surviving schedule the checker asserts: no deadlock, LBTS
//! never regresses, no cross-engine event is lost or delivered into a
//! closed window, all participants agree, and the state the run stops in
//! ([`scenario::StopState`]: the [`massf_engine::EmulationReport`] so
//! far, pending events, link occupancy, protocol state) is bit-identical
//! to the sequential stepping reference's. The protocol is resumable, and
//! so is the check: a scenario with a mid-run stop (a time bound or a
//! round budget, with or without a migration) is explored segment by
//! segment ([`scenario`]). Seeded faults
//! ([`sched::Fault`]) mutate the protocol at the shim level to prove the
//! checker actually detects bugs.
//!
//! ```
//! use massf_check::{explore, ExploreOpts, Scenario};
//!
//! let scenario = Scenario::two_cross();
//! let result = explore(
//!     &scenario,
//!     ExploreOpts {
//!         max_schedules: Some(50),
//!         fault: None,
//!     },
//! );
//! assert!(result.violation.is_none());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod explore;
pub mod hash;
pub mod scenario;
pub mod sched;
pub mod vv;

pub use explore::{explore, replay, ExploreOpts, ExploreResult, ExploreStats, Violation};
pub use scenario::Scenario;
pub use sched::{Fault, RunOutcome, ViolationKind};

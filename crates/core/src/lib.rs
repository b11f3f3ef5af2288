//! # asets-core
//!
//! Transaction/workflow model and scheduling policies from **"Adaptive
//! Scheduling of Web Transactions"** (Guirguis, Sharaf, Chrysanthis,
//! Labrinidis, Pruhs — ICDE 2009).
//!
//! Dynamic web pages are materialized by *web transactions* with soft
//! deadlines, weights and precedence constraints (workflows); the goal is to
//! minimize average (weighted) tardiness. This crate provides:
//!
//! * the data model — [`txn::TxnSpec`], [`table::TxnTable`],
//!   [`dag::DepDag`], [`workflow::WorkflowSet`], fixed-point
//!   [`time::SimTime`];
//! * every policy evaluated in the paper — FCFS, EDF, SRPT, Least-Slack,
//!   HDF, transaction-level ASETS, the `Ready` strawman, workflow-level
//!   **ASETS\*** and its balance-aware variant — behind the
//!   [`policy::Scheduler`] trait;
//! * metrics ([`metrics::MetricsSummary`]) implementing the paper's
//!   Definitions 3–5.
//!
//! The discrete-event engine that drives these policies lives in the
//! `asets-sim` crate; Table-I workload generation in `asets-workload`.
//!
//! ## Quick example
//!
//! ```
//! use asets_core::prelude::*;
//!
//! // Two independent transactions; one can still meet its deadline, the
//! // other has already missed. ASETS runs the Eq. 1 comparison.
//! let mut table = TxnTable::new(vec![
//!     TxnSpec::independent(
//!         SimTime::ZERO,
//!         SimTime::from_units_int(2),
//!         SimDuration::from_units_int(3),
//!         Weight::ONE,
//!     ),
//!     TxnSpec::independent(
//!         SimTime::ZERO,
//!         SimTime::from_units_int(9),
//!         SimDuration::from_units_int(4),
//!         Weight::ONE,
//!     ),
//! ])
//! .unwrap();
//! let mut policy = Asets::new();
//! let now = SimTime::ZERO;
//! for t in 0..2 {
//!     table.arrive(TxnId(t), now);
//!     policy.on_ready(TxnId(t), &table, now);
//! }
//! // T0 missed (r=3 > d=2): impacts are r_T0=3-5<0 ... T0 runs first.
//! assert_eq!(policy.select(&table, now), Some(TxnId(0)));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod csr;
pub mod dag;
pub mod metrics;
pub mod obs;
pub mod policy;
pub mod queue;
pub mod shard;
pub mod table;
pub mod time;
pub mod txn;
pub mod workflow;

/// Convenient glob-import of the commonly used types.
pub mod prelude {
    pub use crate::dag::{DagError, DepDag};
    pub use crate::metrics::{MetricsAccumulator, MetricsSummary};
    pub use crate::obs::{
        Candidate, DecisionRecord, DecisionRule, MigrationEvent, MigrationSubject, NoopObserver,
        Observer, ObserverSlot, SharedObserver, Winner,
    };
    pub use crate::policy::{
        ActivationMode, Asets, AsetsStar, AsetsStarConfig, BalanceAware, Edf, Fcfs, Hdf, Hvf,
        ImpactRule, LeastSlack, LoadSwitch, Mix, PolicyKind, Ready, Scheduler, Srpt,
    };
    pub use crate::shard::{partition, routing_keys, ShardPlan, ShardSlice};
    pub use crate::table::TxnTable;
    pub use crate::time::{SimDuration, SimTime, Slack, TICKS_PER_UNIT};
    pub use crate::txn::{TxnId, TxnOutcome, TxnPhase, TxnSpec, TxnState, Weight};
    pub use crate::workflow::{HeadRule, Representative, WfId, WorkflowSet};
}

//! # asets-sim
//!
//! Deterministic discrete-event simulator for the ASETS\* reproduction —
//! the Rust equivalent of the paper's C++ "RTDBMS simulator" (§IV-A).
//!
//! The runtime is layered: an event pump (time advance, batched arrival
//! delivery), a server pool of M logical servers (M = 1 by default —
//! the paper's single-server model, reproduced bit for bit), and a
//! sharded runtime that partitions whole workflows across K shard
//! threads by workflow root. Scheduling points fire at transaction
//! arrivals, completions and policy wake-ups; execution is
//! event-preemptive; time is exact fixed-point. Policies plug in through
//! [`asets_core::policy::Scheduler`].
//!
//! ```
//! use asets_core::prelude::*;
//! use asets_sim::simulate;
//!
//! let specs = vec![
//!     TxnSpec::independent(
//!         SimTime::ZERO,
//!         SimTime::from_units_int(6),
//!         SimDuration::from_units_int(5),
//!         Weight::ONE,
//!     ),
//!     TxnSpec::independent(
//!         SimTime::ZERO,
//!         SimTime::from_units_int(7),
//!         SimDuration::from_units_int(2),
//!         Weight::ONE,
//!     ),
//! ];
//! let result = simulate(specs, PolicyKind::Edf).unwrap();
//! assert_eq!(result.summary.avg_tardiness, 0.0); // Fig. 2(a): EDF meets both
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod events;
pub mod live;
pub mod runner;
pub mod sharded;
pub mod stats;
pub mod testutil;
pub mod threaded;
pub mod trace;

pub use engine::{Engine, EventPump, Pump, ServerPool, SimResult};
pub use live::{
    AdmissionEvent, AdmissionLog, AdmissionStats, IngestRing, JobBoard, JobProducer, JobStatus,
    LiveConfig, LiveFrontend, LivePump, LiveSnapshot, LiveStats, LiveUniverse,
};
pub use runner::{compare_policies, simulate, simulate_observed, simulate_traced, simulate_with};
pub use sharded::{
    RebalanceConfig, RebalanceEvent, RebalanceStats, ShardRun, ShardedResult, ShardedRuntime,
};
pub use stats::{BacklogSample, BacklogSeries, EpochStats, RunStats};
pub use trace::{Trace, TraceEvent};

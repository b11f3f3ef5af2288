//! # asets-repro
//!
//! Umbrella crate for the ASETS\* reproduction workspace ("Adaptive
//! Scheduling of Web Transactions", ICDE 2009). Re-exports every member
//! crate so downstream users can depend on one name:
//!
//! ```
//! use asets_repro::prelude::*;
//!
//! let specs = asets_repro::workload::generate(
//!     &TableISpec::transaction_level(0.6),
//!     42,
//! )
//! .unwrap();
//! let result = asets_repro::sim::simulate(specs, PolicyKind::asets_star()).unwrap();
//! assert_eq!(result.summary.count, 1000);
//! ```
//!
//! The real content lives in the member crates:
//!
//! * [`core`] — model + policies;
//! * [`sim`] — the discrete-event engine;
//! * [`workload`] — Table I generators;
//! * [`webdb`] — the web-database substrate;
//! * [`experiments`] — the figure-reproduction harness.

#![warn(missing_docs)]

pub use asets_core as core;
pub use asets_experiments as experiments;
pub use asets_sim as sim;
pub use asets_webdb as webdb;
pub use asets_workload as workload;

/// One-stop prelude: the member crates' most-used types.
pub mod prelude {
    pub use asets_core::prelude::*;
    pub use asets_sim::{simulate, simulate_traced, Engine, SimResult};
    pub use asets_webdb::{compile_requests, CostModel, Database, PageRequest, PageTemplate};
    pub use asets_workload::{generate, TableISpec, WorkflowParams, PAPER_SEEDS};
}

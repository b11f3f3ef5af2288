//! Experiment configuration.
//!
//! Every figure runner takes an [`ExpConfig`] controlling the sweep
//! resolution and the averaging protocol. The default is the paper protocol
//! (1000 transactions, five seeds, utilization 0.1…1.0 in steps of 0.1);
//! `quick()` is a scaled-down version for smoke tests and CI.
//!
//! [`parse_policy`] is the one policy-name parser of the command-line
//! tools (`repro replay`/`gantt`, `asets-serve --policy`).

use asets_core::policy::{ImpactRule, PolicyKind};
use asets_workload::PAPER_SEEDS;
use serde::{Deserialize, Serialize};

/// Global experiment knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpConfig {
    /// Seeds to average over (paper: five runs).
    pub seeds: Vec<u64>,
    /// Batch size per run (paper: 1000).
    pub n_txns: usize,
    /// Utilization sweep points for the U-axis figures.
    pub utilizations: Vec<f64>,
    /// Logical servers per engine (M). 1 is the paper's single-server model
    /// and the default everywhere; the scale-out figure threads it through
    /// the sharded runtime.
    pub servers: usize,
    /// Shard threads (K) for runs routed through the sharded runtime. 1 is
    /// the plain engine path. Per-figure sweeps (the scale-out figure)
    /// override this point-by-point.
    pub shards: usize,
}

impl ExpConfig {
    /// The paper's evaluation protocol (§IV-A).
    pub fn paper() -> ExpConfig {
        ExpConfig {
            seeds: PAPER_SEEDS.to_vec(),
            n_txns: 1000,
            utilizations: (1..=10).map(|i| i as f64 / 10.0).collect(),
            servers: 1,
            shards: 1,
        }
    }

    /// A scaled-down protocol for smoke tests: 2 seeds, 200 transactions,
    /// three utilization points.
    pub fn quick() -> ExpConfig {
        ExpConfig {
            seeds: vec![101, 202],
            n_txns: 200,
            utilizations: vec![0.3, 0.6, 0.9],
            servers: 1,
            shards: 1,
        }
    }

    /// Restrict the sweep to utilizations within `[lo, hi]` (inclusive).
    pub fn with_util_range(mut self, lo: f64, hi: f64) -> ExpConfig {
        self.utilizations
            .retain(|&u| u >= lo - 1e-9 && u <= hi + 1e-9);
        self
    }

    /// Set the logical server count (M) per engine.
    pub fn with_servers(mut self, m: usize) -> ExpConfig {
        self.servers = m;
        self
    }

    /// Set the shard count (K) for sharded-runtime runs.
    pub fn with_shards(mut self, k: usize) -> ExpConfig {
        self.shards = k;
        self
    }
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig::paper()
    }
}

/// Identifier of every table/figure the harness can regenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FigureId {
    /// Table I: generator audit.
    Table1,
    /// Fig. 8: avg tardiness, low utilization.
    Fig8,
    /// Fig. 9: avg tardiness, high utilization.
    Fig9,
    /// Fig. 10: normalized avg tardiness, k_max = 3.
    Fig10,
    /// Fig. 11: normalized, k_max = 1.
    Fig11,
    /// Fig. 12: normalized, k_max = 2.
    Fig12,
    /// Fig. 13: normalized, k_max = 4.
    Fig13,
    /// §IV-C text experiment: crossover vs Zipf α.
    AlphaSweep,
    /// Fig. 14: workflow level, ASETS\* vs Ready.
    Fig14,
    /// Fig. 15: general case, weighted tardiness.
    Fig15,
    /// Fig. 16: balance-aware max weighted tardiness vs activation rate.
    Fig16,
    /// Fig. 17: balance-aware avg weighted tardiness vs activation rate.
    Fig17,
    /// Design-decision ablations (impact rule, head rule, submission model).
    Ablations,
    /// Extension: fragment-cache TTL on the stock application.
    CacheTtl,
    /// Extension: deadline-miss ratio across policies (the §V metric).
    MissRatio,
    /// Extension: sharded-runtime scale-out sweep (K ∈ {1, 2, 4, 8}).
    ScaleOut,
    /// Extension: scheduler self-profile (maintain/select/dispatch wall-clock
    /// per scheduling point, K ∈ {1, 4, 8}).
    Profile,
}

impl FigureId {
    /// All figures, in paper order.
    pub const ALL: [FigureId; 17] = [
        FigureId::Table1,
        FigureId::Fig8,
        FigureId::Fig9,
        FigureId::Fig10,
        FigureId::Fig11,
        FigureId::Fig12,
        FigureId::Fig13,
        FigureId::AlphaSweep,
        FigureId::Fig14,
        FigureId::Fig15,
        FigureId::Fig16,
        FigureId::Fig17,
        FigureId::Ablations,
        FigureId::CacheTtl,
        FigureId::MissRatio,
        FigureId::ScaleOut,
        FigureId::Profile,
    ];

    /// CLI name (`repro <name>`).
    pub fn name(self) -> &'static str {
        match self {
            FigureId::Table1 => "table1",
            FigureId::Fig8 => "fig8",
            FigureId::Fig9 => "fig9",
            FigureId::Fig10 => "fig10",
            FigureId::Fig11 => "fig11",
            FigureId::Fig12 => "fig12",
            FigureId::Fig13 => "fig13",
            FigureId::AlphaSweep => "alpha",
            FigureId::Fig14 => "fig14",
            FigureId::Fig15 => "fig15",
            FigureId::Fig16 => "fig16",
            FigureId::Fig17 => "fig17",
            FigureId::Ablations => "ablations",
            FigureId::CacheTtl => "cache",
            FigureId::MissRatio => "missratio",
            FigureId::ScaleOut => "scaleout",
            FigureId::Profile => "profile",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<FigureId> {
        FigureId::ALL.into_iter().find(|f| f.name() == s)
    }
}

/// Every policy name the command-line tools accept, with the kind it
/// builds; some kinds have two spellings.
const POLICY_NAMES: [(&str, PolicyKind); 11] = [
    ("fcfs", PolicyKind::Fcfs),
    ("edf", PolicyKind::Edf),
    ("srpt", PolicyKind::Srpt),
    ("ls", PolicyKind::LeastSlack),
    ("least-slack", PolicyKind::LeastSlack),
    ("hdf", PolicyKind::Hdf),
    ("hvf", PolicyKind::Hvf),
    ("asets", PolicyKind::Asets),
    ("ready", PolicyKind::Ready),
    ("asets-star", ASETS_STAR),
    ("asets_star", ASETS_STAR),
];

const ASETS_STAR: PolicyKind = PolicyKind::AsetsStar {
    impact: ImpactRule::Paper,
};

/// Parse a command-line policy name, one of [`policy_names`].
pub fn parse_policy(name: &str) -> Option<PolicyKind> {
    POLICY_NAMES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, kind)| kind)
}

/// The accepted policy names joined by `|`, for usage lines.
pub fn policy_names() -> String {
    POLICY_NAMES.map(|(n, _)| n).join("|")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_policy_name_parses() {
        for (name, kind) in POLICY_NAMES {
            assert_eq!(parse_policy(name), Some(kind), "{name}");
            assert!(policy_names().split('|').any(|n| n == name), "{name}");
        }
        // Both binaries' former spellings, `hvf` included.
        for name in [
            "fcfs",
            "edf",
            "srpt",
            "ls",
            "least-slack",
            "hdf",
            "hvf",
            "asets",
            "ready",
            "asets-star",
            "asets_star",
        ] {
            assert!(parse_policy(name).is_some(), "{name}");
        }
        assert_eq!(parse_policy("asets_star"), Some(PolicyKind::asets_star()));
        assert_eq!(parse_policy("ASETS*"), None);
        assert_eq!(parse_policy(""), None);
    }

    #[test]
    fn paper_protocol_matches_table_i() {
        let c = ExpConfig::paper();
        assert_eq!(c.seeds.len(), 5);
        assert_eq!(c.n_txns, 1000);
        assert_eq!(c.utilizations.len(), 10);
        assert_eq!(c.utilizations[0], 0.1);
        assert_eq!(c.utilizations[9], 1.0);
        // The paper's model is single-server, unsharded.
        assert_eq!((c.servers, c.shards), (1, 1));
    }

    #[test]
    fn runtime_knobs_chain() {
        let c = ExpConfig::quick().with_servers(2).with_shards(4);
        assert_eq!((c.servers, c.shards), (2, 4));
    }

    #[test]
    fn util_range_filter() {
        let c = ExpConfig::paper().with_util_range(0.1, 0.5);
        assert_eq!(c.utilizations, vec![0.1, 0.2, 0.3, 0.4, 0.5]);
        let c = ExpConfig::paper().with_util_range(0.6, 1.0);
        assert_eq!(c.utilizations.len(), 5);
    }

    #[test]
    fn figure_names_round_trip() {
        for f in FigureId::ALL {
            assert_eq!(FigureId::parse(f.name()), Some(f));
        }
        assert_eq!(FigureId::parse("nope"), None);
    }
}

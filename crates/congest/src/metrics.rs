//! Cost accounting across the phases of a composed algorithm.

use std::fmt;

use crate::ExecutionReport;

/// Message/round costs of one phase of an algorithm.
///
/// *Simulated* costs come from actually executed message exchanges in the
/// simulator. *Charged* costs come from black-box substrates whose published
/// complexity is charged without re-implementing them (the README's
/// "Charged substrates" section: the danner construction of Theorem 1.1,
/// leader election per Corollary 1.2 and the asynchronous substrate of
/// Theorem 1.3). Reports keep the two separate so that the substitution
/// stays visible in every measurement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCost {
    /// Messages actually exchanged in the simulator.
    pub simulated_messages: u64,
    /// Rounds actually executed in the simulator.
    pub simulated_rounds: u64,
    /// Messages charged for black-box substrates.
    pub charged_messages: u64,
    /// Rounds charged for black-box substrates.
    pub charged_rounds: u64,
}

impl PhaseCost {
    /// A purely simulated cost.
    pub fn simulated(messages: u64, rounds: u64) -> Self {
        PhaseCost {
            simulated_messages: messages,
            simulated_rounds: rounds,
            ..Default::default()
        }
    }

    /// A purely charged cost.
    pub fn charged(messages: u64, rounds: u64) -> Self {
        PhaseCost {
            charged_messages: messages,
            charged_rounds: rounds,
            ..Default::default()
        }
    }

    /// Total messages (simulated + charged).
    pub fn total_messages(&self) -> u64 {
        self.simulated_messages + self.charged_messages
    }

    /// Total rounds (simulated + charged).
    pub fn total_rounds(&self) -> u64 {
        self.simulated_rounds + self.charged_rounds
    }
}

/// A labelled, ordered collection of [`PhaseCost`]s for one algorithm run.
///
/// # Example
///
/// ```
/// use symbreak_congest::{CostAccount, PhaseCost};
///
/// let mut acc = CostAccount::new();
/// acc.charge("danner construction", PhaseCost::charged(1000, 10));
/// acc.charge("coloring", PhaseCost::simulated(250, 12));
/// assert_eq!(acc.total_messages(), 1250);
/// assert_eq!(acc.simulated_messages(), 250);
/// assert_eq!(acc.total_rounds(), 22);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostAccount {
    phases: Vec<(String, PhaseCost)>,
}

impl CostAccount {
    /// Creates an empty account.
    pub fn new() -> Self {
        CostAccount::default()
    }

    /// Records the cost of a phase.
    pub fn charge(&mut self, label: impl Into<String>, cost: PhaseCost) {
        self.phases.push((label.into(), cost));
    }

    /// Records the simulated cost of an [`ExecutionReport`].
    pub fn charge_report(&mut self, label: impl Into<String>, report: &ExecutionReport) {
        self.charge(label, PhaseCost::simulated(report.messages, report.rounds));
    }

    /// Merges another account into this one, prefixing its phase labels.
    pub fn absorb(&mut self, prefix: &str, other: &CostAccount) {
        for (label, cost) in &other.phases {
            self.phases.push((format!("{prefix}/{label}"), *cost));
        }
    }

    /// The recorded phases in order.
    pub fn phases(&self) -> impl Iterator<Item = (&str, PhaseCost)> + '_ {
        self.phases.iter().map(|(l, c)| (l.as_str(), *c))
    }

    /// Total messages across all phases (simulated + charged).
    pub fn total_messages(&self) -> u64 {
        self.phases.iter().map(|(_, c)| c.total_messages()).sum()
    }

    /// Simulated messages across all phases.
    pub fn simulated_messages(&self) -> u64 {
        self.phases.iter().map(|(_, c)| c.simulated_messages).sum()
    }

    /// Charged messages across all phases.
    pub fn charged_messages(&self) -> u64 {
        self.phases.iter().map(|(_, c)| c.charged_messages).sum()
    }

    /// Total rounds across all phases (phases are sequential, so rounds add).
    pub fn total_rounds(&self) -> u64 {
        self.phases.iter().map(|(_, c)| c.total_rounds()).sum()
    }

    /// Simulated rounds across all phases.
    pub fn simulated_rounds(&self) -> u64 {
        self.phases.iter().map(|(_, c)| c.simulated_rounds).sum()
    }
}

impl fmt::Display for CostAccount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<40} {:>12} {:>12} {:>8} {:>8}",
            "phase", "sim msgs", "chg msgs", "sim rds", "chg rds"
        )?;
        for (label, c) in &self.phases {
            writeln!(
                f,
                "{:<40} {:>12} {:>12} {:>8} {:>8}",
                label,
                c.simulated_messages,
                c.charged_messages,
                c.simulated_rounds,
                c.charged_rounds
            )?;
        }
        writeln!(
            f,
            "{:<40} {:>12} {:>12} {:>8} {:>8}",
            "TOTAL",
            self.simulated_messages(),
            self.charged_messages(),
            self.simulated_rounds(),
            self.total_rounds() - self.simulated_rounds()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let mut acc = CostAccount::new();
        acc.charge("a", PhaseCost::simulated(10, 2));
        acc.charge("b", PhaseCost::charged(100, 5));
        acc.charge(
            "c",
            PhaseCost {
                simulated_messages: 1,
                simulated_rounds: 1,
                charged_messages: 2,
                charged_rounds: 3,
            },
        );
        assert_eq!(acc.total_messages(), 113);
        assert_eq!(acc.simulated_messages(), 11);
        assert_eq!(acc.charged_messages(), 102);
        assert_eq!(acc.total_rounds(), 11);
        assert_eq!(acc.simulated_rounds(), 3);
        assert_eq!(acc.phases().count(), 3);
    }

    #[test]
    fn absorb_prefixes_labels() {
        let mut inner = CostAccount::new();
        inner.charge("x", PhaseCost::simulated(5, 1));
        let mut outer = CostAccount::new();
        outer.absorb("sub", &inner);
        let labels: Vec<&str> = outer.phases().map(|(l, _)| l).collect();
        assert_eq!(labels, vec!["sub/x"]);
        assert_eq!(outer.total_messages(), 5);
    }

    #[test]
    fn display_contains_phases_and_total() {
        let mut acc = CostAccount::new();
        acc.charge("phase-one", PhaseCost::simulated(7, 3));
        let rendered = acc.to_string();
        assert!(rendered.contains("phase-one"));
        assert!(rendered.contains("TOTAL"));
    }

    #[test]
    fn phase_cost_helpers() {
        let c = PhaseCost::charged(4, 2);
        assert_eq!(c.total_messages(), 4);
        assert_eq!(c.total_rounds(), 2);
        assert_eq!(c.simulated_messages, 0);
    }
}

//! Result rows and table rendering for the reproduction experiments.

use std::fmt;

use symbreak_congest::CostAccount;
use symbreak_graphs::Graph;

/// One row of a Figure-1-style measurement: an algorithm run on one instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasurementRow {
    /// Algorithm label (e.g. "Alg1 (Δ+1)-coloring KT-1").
    pub algorithm: String,
    /// Number of nodes.
    pub n: usize,
    /// Number of edges.
    pub m: usize,
    /// Maximum degree Δ.
    pub max_degree: usize,
    /// Simulated messages.
    pub simulated_messages: u64,
    /// Charged messages (black-box substrates).
    pub charged_messages: u64,
    /// Total rounds.
    pub rounds: u64,
    /// Whether the output passed its validity check.
    pub valid: bool,
}

impl MeasurementRow {
    /// Builds a row from a graph, a cost account and a validity flag.
    pub fn new(
        algorithm: impl Into<String>,
        graph: &Graph,
        costs: &CostAccount,
        valid: bool,
    ) -> Self {
        MeasurementRow {
            algorithm: algorithm.into(),
            n: graph.num_nodes(),
            m: graph.num_edges(),
            max_degree: graph.max_degree(),
            simulated_messages: costs.simulated_messages(),
            charged_messages: costs.charged_messages(),
            rounds: costs.total_rounds(),
            valid,
        }
    }

    /// Total messages (simulated + charged).
    pub fn total_messages(&self) -> u64 {
        self.simulated_messages + self.charged_messages
    }

    /// `messages / m` — below 1.0 means the run beat the Ω(m) barrier.
    pub fn messages_per_edge(&self) -> f64 {
        if self.m == 0 {
            0.0
        } else {
            self.total_messages() as f64 / self.m as f64
        }
    }

    /// `messages / n^1.5` — the normalisation the Õ(n^1.5) bounds predict to
    /// stay roughly flat (up to polylog factors).
    pub fn messages_per_n15(&self) -> f64 {
        self.total_messages() as f64 / (self.n.max(1) as f64).powf(1.5)
    }
}

/// A collection of measurement rows rendered as an aligned text table.
#[derive(Debug, Clone, Default)]
pub struct MeasurementTable {
    /// The rows, in insertion order.
    pub rows: Vec<MeasurementRow>,
}

impl MeasurementTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a row.
    pub fn push(&mut self, row: MeasurementRow) {
        self.rows.push(row);
    }
}

impl fmt::Display for MeasurementTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<34} {:>6} {:>9} {:>6} {:>12} {:>12} {:>8} {:>8} {:>9} {:>6}",
            "algorithm",
            "n",
            "m",
            "Δ",
            "sim msgs",
            "chg msgs",
            "rounds",
            "msg/m",
            "msg/n^1.5",
            "valid"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<34} {:>6} {:>9} {:>6} {:>12} {:>12} {:>8} {:>8.3} {:>9.3} {:>6}",
                r.algorithm,
                r.n,
                r.m,
                r.max_degree,
                r.simulated_messages,
                r.charged_messages,
                r.rounds,
                r.messages_per_edge(),
                r.messages_per_n15(),
                r.valid
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbreak_congest::PhaseCost;
    use symbreak_graphs::generators;

    #[test]
    fn row_ratios() {
        let g = generators::clique(10); // n=10, m=45
        let mut costs = CostAccount::new();
        costs.charge("a", PhaseCost::simulated(90, 3));
        let row = MeasurementRow::new("test", &g, &costs, true);
        assert_eq!(row.total_messages(), 90);
        assert!((row.messages_per_edge() - 2.0).abs() < 1e-9);
        assert!(row.messages_per_n15() > 0.0);
        assert!(row.valid);
    }

    #[test]
    fn table_renders_all_rows() {
        let g = generators::cycle(5);
        let costs = CostAccount::new();
        let mut table = MeasurementTable::new();
        table.push(MeasurementRow::new("alg-one", &g, &costs, true));
        table.push(MeasurementRow::new("alg-two", &g, &costs, false));
        let text = table.to_string();
        assert!(text.contains("alg-one"));
        assert!(text.contains("alg-two"));
        assert!(text.contains("msg/m"));
    }

    #[test]
    fn empty_graph_row_has_zero_ratio() {
        let g = generators::empty(3);
        let costs = CostAccount::new();
        let row = MeasurementRow::new("x", &g, &costs, true);
        assert_eq!(row.messages_per_edge(), 0.0);
    }
}

//! Model parameters of the KT-ρ CONGEST model.

use std::fmt;

/// The initial-knowledge radius ρ of the KT-ρ CONGEST model.
///
/// In KT-ρ, every node `v` initially knows (i) the IDs of all nodes at
/// distance at most ρ from `v` and (ii) the neighbourhood of every node at
/// distance at most ρ − 1 from `v` (Section 1.4.1 of the paper).
///
/// `KT0` is the clean network model, `KT1` gives knowledge of neighbours'
/// IDs, and `KT2` additionally gives knowledge of the two-hop neighbourhood.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KtLevel(pub u32);

impl KtLevel {
    /// The clean network model (knowledge of only one's own ID).
    pub const KT0: KtLevel = KtLevel(0);
    /// Knowledge of neighbours' IDs (the model of Sections 2–3).
    pub const KT1: KtLevel = KtLevel(1);
    /// Knowledge of the two-hop neighbourhood (the model of Section 4).
    pub const KT2: KtLevel = KtLevel(2);

    /// The radius ρ.
    #[inline]
    pub fn radius(self) -> u32 {
        self.0
    }

    /// Whether a node may know the ID of a node at distance `dist`.
    #[inline]
    pub fn knows_ids_at(self, dist: u32) -> bool {
        dist <= self.0
    }

    /// Whether a node may know the full neighbourhood of a node at distance
    /// `dist`.
    #[inline]
    pub fn knows_adjacency_at(self, dist: u32) -> bool {
        self.0 > 0 && dist < self.0
    }
}

impl fmt::Display for KtLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KT-{}", self.0)
    }
}

impl Default for KtLevel {
    fn default() -> Self {
        KtLevel::KT1
    }
}

/// Default per-message budget for ordinary (non-ID) payload bits.
///
/// CONGEST messages carry `O(log n)` bits; the simulator uses a conservative
/// constant so that all of the paper's algorithms (which send a constant
/// number of IDs, colours, ranks, or counters per message) fit comfortably,
/// while anything that tried to ship whole neighbourhoods in one message
/// would be rejected.
pub const DEFAULT_MESSAGE_BITS: u32 = 256;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radii() {
        assert_eq!(KtLevel::KT0.radius(), 0);
        assert_eq!(KtLevel::KT1.radius(), 1);
        assert_eq!(KtLevel::KT2.radius(), 2);
        assert_eq!(KtLevel(5).radius(), 5);
    }

    #[test]
    fn knowledge_predicates() {
        assert!(KtLevel::KT0.knows_ids_at(0));
        assert!(!KtLevel::KT0.knows_ids_at(1));
        assert!(!KtLevel::KT0.knows_adjacency_at(0));

        assert!(KtLevel::KT1.knows_ids_at(1));
        assert!(!KtLevel::KT1.knows_ids_at(2));
        assert!(KtLevel::KT1.knows_adjacency_at(0));
        assert!(!KtLevel::KT1.knows_adjacency_at(1));

        assert!(KtLevel::KT2.knows_ids_at(2));
        assert!(KtLevel::KT2.knows_adjacency_at(1));
        assert!(!KtLevel::KT2.knows_adjacency_at(2));
    }

    #[test]
    fn display_and_default() {
        assert_eq!(KtLevel::KT2.to_string(), "KT-2");
        assert_eq!(KtLevel::default(), KtLevel::KT1);
        assert!(KtLevel::KT0 < KtLevel::KT1);
    }
}

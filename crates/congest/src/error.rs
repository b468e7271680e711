//! Simulation errors.

use crate::NodeId;
use std::error::Error;
use std::fmt;

/// Errors raised by the [`Network`](crate::Network) engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The number of protocol instances did not match the node count.
    NodeCountMismatch {
        /// Nodes in the topology.
        graph_nodes: usize,
        /// Protocol instances supplied.
        protocols: usize,
    },
    /// A node tried to send to a non-neighbor (or to itself).
    NotANeighbor {
        /// Sender.
        from: NodeId,
        /// Intended recipient.
        to: NodeId,
        /// Round in which the send was attempted.
        round: usize,
    },
    /// A directed edge carried more words in one round than the CONGEST
    /// budget allows.
    BandwidthExceeded {
        /// Sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
        /// Round of the violation.
        round: usize,
        /// Words the sender tried to push across the edge this round.
        attempted_words: usize,
        /// The per-edge budget.
        budget_words: usize,
    },
    /// The round cap was reached before every node halted.
    RoundLimitExceeded {
        /// The configured cap.
        max_rounds: usize,
        /// Nodes still not halted.
        unhalted: usize,
    },
    /// No node is active (no messages in flight, no wake-ups scheduled)
    /// yet not every node has halted: the protocol is deadlocked.
    Stalled {
        /// Round at which the stall was detected.
        round: usize,
        /// Nodes still not halted.
        unhalted: usize,
    },
    /// The configured [`Adversary`](crate::Adversary) delays messages
    /// (`delay_ppm > 0`) but bounds the delay at `max_delay == 0`, so no
    /// delay can be drawn. [`Adversary::with_delay`](crate::Adversary::with_delay)
    /// rejects this; a value built from the public fields can still hold
    /// it.
    InvalidAdversary {
        /// The configured delay probability in parts per million.
        delay_ppm: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SimError::NodeCountMismatch { graph_nodes, protocols } => write!(
                f,
                "graph has {graph_nodes} nodes but {protocols} protocol instances were supplied"
            ),
            SimError::NotANeighbor { from, to, round } => {
                write!(f, "node {from} sent to non-neighbor {to} in round {round}")
            }
            SimError::BandwidthExceeded { from, to, round, attempted_words, budget_words } => {
                write!(
                    f,
                    "edge {from}->{to} carried {attempted_words} words in round {round}, budget is {budget_words}"
                )
            }
            SimError::RoundLimitExceeded { max_rounds, unhalted } => {
                write!(f, "round limit {max_rounds} reached with {unhalted} nodes still running")
            }
            SimError::Stalled { round, unhalted } => {
                write!(f, "protocol stalled in round {round} with {unhalted} nodes still running")
            }
            SimError::InvalidAdversary { delay_ppm } => {
                write!(f, "adversary delays {delay_ppm} ppm of messages but max_delay is 0")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = [
            SimError::NodeCountMismatch { graph_nodes: 3, protocols: 2 },
            SimError::NotANeighbor { from: 0, to: 5, round: 7 },
            SimError::BandwidthExceeded {
                from: 1,
                to: 2,
                round: 3,
                attempted_words: 4,
                budget_words: 1,
            },
            SimError::RoundLimitExceeded { max_rounds: 10, unhalted: 4 },
            SimError::Stalled { round: 2, unhalted: 1 },
            SimError::InvalidAdversary { delay_ppm: 5 },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<SimError>();
    }
}

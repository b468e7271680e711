//! Execution metrics: the quantities the paper's complexity claims are
//! stated in (rounds, congestion) plus the "fully distributed" resource
//! accounting (per-node memory and computation balance).

use dhc_graph::NodeId;

/// Aggregated measurements from one [`Network`](crate::Network) run.
///
/// Equality (`==`) compares every *observable* field — everything a
/// protocol run determines bit-for-bit regardless of thread count — and
/// deliberately **excludes** [`engine_memory_words`](Metrics::engine_memory_words):
/// buffer capacities legitimately vary with worker count and allocator
/// growth policy while the computation stays identical.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Rounds executed (the paper's primary cost measure).
    pub rounds: usize,
    /// Total messages sent (a message to an already-halted node still
    /// counts: it was transmitted).
    pub messages: u64,
    /// Total message volume in `Θ(log n)`-bit words.
    pub words: u64,
    /// Messages sent per node.
    pub sent_per_node: Vec<u64>,
    /// Messages received per node.
    pub received_per_node: Vec<u64>,
    /// Local computation units charged per node (via
    /// [`Context::charge_compute`](crate::Context::charge_compute), plus one
    /// unit per delivered message).
    pub compute_per_node: Vec<u64>,
    /// Peak of `Protocol::memory_words` per node, sampled after every
    /// activation (0 if the protocol opts out).
    pub peak_memory_per_node: Vec<usize>,
    /// Messages delivered in each round (empty if recording disabled).
    pub round_traffic: Vec<u64>,
    /// Largest number of messages delivered in any single round of one
    /// constituent network — maintained **incrementally** every round,
    /// so disabling the O(rounds) [`round_traffic`](Metrics::round_traffic)
    /// log (see [`Config::record_round_traffic`](crate::Config::record_round_traffic))
    /// keeps the headline congestion figure on long lean runs. Under
    /// [`absorb_parallel`](Metrics::absorb_parallel) this is the peak of
    /// any single partition, not the cross-partition per-round sum.
    pub max_round_traffic: u64,
    /// Largest number of words any directed edge carried in any round.
    pub max_edge_words: usize,
    /// Largest number of messages any single node sent in one round
    /// (the `Δ'` of the Klauck et al. k-machine conversion theorem).
    pub max_node_sends_per_round: usize,
    /// Sampled peak engine-buffer footprint in 8-byte machine words —
    /// mailbox banks, broadcast arena, per-worker effect scratch,
    /// parallel-commit shards, and scheduling lists (see
    /// [`Network::engine_memory_words`](crate::Network::engine_memory_words)).
    /// Composes as a max: the peak footprint of any single constituent
    /// network's buffer set, which for scratch-chained sequential phases
    /// *is* the real footprint of the one shared set. **Excluded from
    /// `==`**.
    pub engine_memory_words: u64,
}

impl PartialEq for Metrics {
    fn eq(&self, other: &Self) -> bool {
        // `engine_memory_words` is intentionally absent: it reports
        // allocation capacity, which may differ across thread counts
        // while the run itself is bit-identical.
        self.rounds == other.rounds
            && self.messages == other.messages
            && self.words == other.words
            && self.sent_per_node == other.sent_per_node
            && self.received_per_node == other.received_per_node
            && self.compute_per_node == other.compute_per_node
            && self.peak_memory_per_node == other.peak_memory_per_node
            && self.round_traffic == other.round_traffic
            && self.max_round_traffic == other.max_round_traffic
            && self.max_edge_words == other.max_edge_words
            && self.max_node_sends_per_round == other.max_node_sends_per_round
    }
}

impl Metrics {
    /// An all-zero metrics value for an `n`-node network.
    ///
    /// Useful as the accumulator when composing several runs (see
    /// [`merge`](Metrics::merge) and
    /// [`absorb_parallel`](Metrics::absorb_parallel)).
    pub fn empty(n: usize) -> Self {
        Metrics::new(n)
    }

    pub(crate) fn new(n: usize) -> Self {
        Metrics {
            rounds: 0,
            messages: 0,
            words: 0,
            sent_per_node: vec![0; n],
            received_per_node: vec![0; n],
            compute_per_node: vec![0; n],
            peak_memory_per_node: vec![0; n],
            round_traffic: Vec::new(),
            max_round_traffic: 0,
            max_edge_words: 0,
            max_node_sends_per_round: 0,
            engine_memory_words: 0,
        }
    }

    /// Accumulates another run's metrics into this one (used when an
    /// algorithm executes as several sequential protocol phases): rounds
    /// and volumes add, per-node peaks take the max.
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn merge(&mut self, other: &Metrics) {
        assert_eq!(
            self.sent_per_node.len(),
            other.sent_per_node.len(),
            "cannot merge metrics for different node counts"
        );
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.words += other.words;
        for i in 0..self.sent_per_node.len() {
            self.sent_per_node[i] += other.sent_per_node[i];
            self.received_per_node[i] += other.received_per_node[i];
            self.compute_per_node[i] += other.compute_per_node[i];
            self.peak_memory_per_node[i] =
                self.peak_memory_per_node[i].max(other.peak_memory_per_node[i]);
        }
        self.round_traffic.extend_from_slice(&other.round_traffic);
        self.max_round_traffic = self.max_round_traffic.max(other.max_round_traffic);
        self.max_edge_words = self.max_edge_words.max(other.max_edge_words);
        self.max_node_sends_per_round =
            self.max_node_sends_per_round.max(other.max_node_sends_per_round);
        self.engine_memory_words = self.engine_memory_words.max(other.engine_memory_words);
    }

    /// Accumulates a run that executed **concurrently** with the runs
    /// already absorbed, over the disjoint node subset `node_map`
    /// (`node_map[local] = global`): rounds take the max (parallel
    /// phases overlap in simulated time), volumes add, and `other`'s
    /// per-node counters are scattered through `node_map`.
    ///
    /// This is how a partitioned phase — e.g. the per-partition DRA
    /// instances of DHC1/DHC2 Phase 1, each simulated as its own
    /// isolated [`Network`](crate::Network) — is accounted as one
    /// phase of the enclosing algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `node_map`'s length differs from `other`'s node count
    /// or maps outside `self`'s node range.
    pub fn absorb_parallel(&mut self, other: &Metrics, node_map: &[NodeId]) {
        assert_eq!(
            node_map.len(),
            other.sent_per_node.len(),
            "node_map must cover the absorbed run's nodes"
        );
        self.rounds = self.rounds.max(other.rounds);
        self.messages += other.messages;
        self.words += other.words;
        for (local, &global) in node_map.iter().enumerate() {
            self.sent_per_node[global as usize] += other.sent_per_node[local];
            self.received_per_node[global as usize] += other.received_per_node[local];
            self.compute_per_node[(global) as usize] += other.compute_per_node[local];
            self.peak_memory_per_node[(global) as usize] =
                self.peak_memory_per_node[(global) as usize].max(other.peak_memory_per_node[local]);
        }
        if self.round_traffic.len() < other.round_traffic.len() {
            self.round_traffic.resize(other.round_traffic.len(), 0);
        }
        for (slot, &traffic) in self.round_traffic.iter_mut().zip(&other.round_traffic) {
            *slot += traffic;
        }
        self.max_round_traffic = self.max_round_traffic.max(other.max_round_traffic);
        self.max_edge_words = self.max_edge_words.max(other.max_edge_words);
        self.max_node_sends_per_round =
            self.max_node_sends_per_round.max(other.max_node_sends_per_round);
        self.engine_memory_words = self.engine_memory_words.max(other.engine_memory_words);
    }

    /// Maximum per-node compute units (load-balance numerator).
    pub fn max_compute(&self) -> u64 {
        self.compute_per_node.iter().copied().max().unwrap_or(0)
    }

    /// Mean per-node compute units (load-balance denominator).
    pub fn mean_compute(&self) -> f64 {
        if self.compute_per_node.is_empty() {
            return 0.0;
        }
        self.compute_per_node.iter().sum::<u64>() as f64 / self.compute_per_node.len() as f64
    }

    /// `max / mean` computation ratio; 1.0 means perfectly balanced.
    /// Returns 0.0 when nothing was computed.
    pub fn compute_balance(&self) -> f64 {
        let mean = self.mean_compute();
        if mean == 0.0 {
            0.0
        } else {
            self.max_compute() as f64 / mean
        }
    }

    /// Maximum sampled per-node memory in words.
    pub fn max_memory(&self) -> usize {
        self.peak_memory_per_node.iter().copied().max().unwrap_or(0)
    }

    /// Peak engine footprint in 8-byte machine words: the scratch +
    /// arena + mailbox buffers behind the simulation (see
    /// [`engine_memory_words`](Metrics::engine_memory_words)), sampled
    /// at finish time — capacities only grow during a run, so the
    /// finish-time sample is the run's peak.
    pub fn peak_memory_words(&self) -> u64 {
        self.engine_memory_words
    }
}

/// Final result of a [`Network`](crate::Network) run, returned **by
/// value** from the consuming [`finish`](crate::Network::finish) — the
/// engine's metrics move into the report instead of being cloned.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Aggregated measurements.
    pub metrics: Metrics,
    /// Number of nodes that called [`Context::halt`](crate::Context::halt).
    pub halted: usize,
    /// Per-round cross-machine traffic when the network was built with
    /// [`Network::new_with_machines`](crate::Network::new_with_machines);
    /// `None` for plain runs. Unspecified (partial) if the run faulted.
    pub machine_log: Option<crate::machine::MachineRoundLog>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_and_maxes() {
        let mut a = Metrics::new(2);
        a.rounds = 3;
        a.messages = 10;
        a.words = 12;
        a.sent_per_node = vec![4, 6];
        a.peak_memory_per_node = vec![5, 1];
        a.max_edge_words = 2;
        let mut b = Metrics::new(2);
        b.rounds = 2;
        b.messages = 1;
        b.words = 1;
        b.sent_per_node = vec![1, 0];
        b.peak_memory_per_node = vec![2, 9];
        b.max_edge_words = 1;
        a.merge(&b);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.messages, 11);
        assert_eq!(a.sent_per_node, vec![5, 6]);
        assert_eq!(a.peak_memory_per_node, vec![5, 9]);
        assert_eq!(a.max_edge_words, 2);
    }

    #[test]
    #[should_panic(expected = "different node counts")]
    fn merge_rejects_mismatched() {
        let mut a = Metrics::new(2);
        a.merge(&Metrics::new(3));
    }

    #[test]
    fn absorb_parallel_maxes_rounds_and_scatters_nodes() {
        let mut total = Metrics::empty(4);
        let mut a = Metrics::new(2);
        a.rounds = 7;
        a.messages = 5;
        a.words = 6;
        a.sent_per_node = vec![2, 3];
        a.peak_memory_per_node = vec![10, 20];
        a.round_traffic = vec![1, 1, 1];
        let mut b = Metrics::new(2);
        b.rounds = 4;
        b.messages = 2;
        b.words = 2;
        b.sent_per_node = vec![1, 1];
        b.peak_memory_per_node = vec![30, 5];
        b.round_traffic = vec![2, 2];
        total.absorb_parallel(&a, &[0, 2]);
        total.absorb_parallel(&b, &[1, 3]);
        assert_eq!(total.rounds, 7); // parallel: max, not sum
        assert_eq!(total.messages, 7);
        assert_eq!(total.words, 8);
        assert_eq!(total.sent_per_node, vec![2, 1, 3, 1]);
        assert_eq!(total.peak_memory_per_node, vec![10, 30, 20, 5]);
        assert_eq!(total.round_traffic, vec![3, 3, 1]);
    }

    #[test]
    #[should_panic(expected = "node_map must cover")]
    fn absorb_parallel_rejects_wrong_map_len() {
        let mut total = Metrics::empty(4);
        total.absorb_parallel(&Metrics::new(2), &[0]);
    }

    #[test]
    fn balance_ratios() {
        let mut m = Metrics::new(4);
        m.compute_per_node = vec![1, 1, 1, 5];
        assert_eq!(m.max_compute(), 5);
        assert!((m.mean_compute() - 2.0).abs() < 1e-12);
        assert!((m.compute_balance() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn balance_of_empty_is_zero() {
        let m = Metrics::new(0);
        assert_eq!(m.compute_balance(), 0.0);
        assert_eq!(m.max_memory(), 0);
    }

    #[test]
    fn engine_footprint_is_outside_equality_and_composes_as_max() {
        let mut a = Metrics::new(2);
        let mut b = Metrics::new(2);
        a.engine_memory_words = 1000;
        b.engine_memory_words = 64;
        assert_eq!(a, b, "capacity sampling must not break bit-identity checks");
        a.merge(&b);
        assert_eq!(a.peak_memory_words(), 1000);
        let mut total = Metrics::empty(4);
        total.absorb_parallel(&a, &[0, 2]);
        total.absorb_parallel(&b, &[1, 3]);
        assert_eq!(total.engine_memory_words, 1000);
    }

    #[test]
    fn max_round_traffic_is_compared_and_maxed() {
        let mut a = Metrics::new(2);
        let mut b = Metrics::new(2);
        a.max_round_traffic = 7;
        b.max_round_traffic = 9;
        assert_ne!(a, b, "the streaming congestion figure is observable");
        a.merge(&b);
        assert_eq!(a.max_round_traffic, 9);
        let mut total = Metrics::empty(4);
        total.absorb_parallel(&a, &[0, 2]);
        assert_eq!(total.max_round_traffic, 9);
    }
}

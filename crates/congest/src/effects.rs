//! Per-node effect scratch for the two-phase round engine.
//!
//! During a round's **compute phase** every active node runs against an
//! immutable view of the network and records everything it wants to do —
//! unicast sends, broadcasts, a halt, a wake-up request, compute charges,
//! faults — into its own [`Effects`] value. No shared state is mutated,
//! which is what makes the compute phase safe to run on any number of
//! worker threads. The engine's **commit fold** then applies the effects
//! in ascending node-id order, and the observers (trace, k-machine layer,
//! collector) read the committed effects in the same order afterwards, so
//! the observable outcome (metrics, trace, message delivery order) is
//! bit-identical at every thread count.
//!
//! Unicast sends and broadcasts share one per-node **op sequence**: every
//! `Context::send` / `send_all` / `send_all_except` call consumes the next
//! sequence number. The number travels with the staged message (or
//! broadcast record) so the receiver-side [`Inbox`](crate::Inbox) merge
//! can reproduce the exact call-order interleaving a per-neighbor unicast
//! expansion would have produced. [`Effects::ops`] replays both lists in
//! that call order for every reader.
//!
//! `Effects` values live in a pool owned by the
//! [`Network`](crate::Network) and are reused across rounds: the vectors
//! keep their capacity, so a warmed-up engine allocates nothing per round.

use crate::{NodeId, Payload, SimError};

/// Everything one node's callback did in one round, staged for the
/// commit fold.
#[derive(Debug)]
pub(crate) struct Effects<M: Payload> {
    /// Queued unicast sends as `(op seq, destination, message)`, in call
    /// order.
    pub(crate) sends: Vec<(u32, NodeId, M)>,
    /// Queued broadcasts as `(op seq, excluded neighbor, message)`, in
    /// call order. One entry per `send_all`/`send_all_except` call —
    /// **one** payload copy regardless of the sender's degree.
    pub(crate) bcasts: Vec<(u32, Option<NodeId>, M)>,
    /// Next op sequence number (shared by sends and broadcasts).
    pub(crate) seq: u32,
    /// `sends[i].2.words().max(1)`, precomputed on the worker thread so
    /// neither the fold nor the observation walk after it calls into
    /// payload code.
    pub(crate) send_words: Vec<usize>,
    /// `bcasts[i].2.words().max(1)`, likewise.
    pub(crate) bcast_words: Vec<usize>,
    /// Sum of `bcast_words`: the broadcast word load every non-excluded
    /// neighbor receives this round.
    pub(crate) bcast_total_words: usize,
    /// `(destination, words)` of the **unicast** sends, sorted by
    /// destination — one input of the fold's per-directed-edge bandwidth
    /// check.
    pub(crate) edge_words: Vec<(NodeId, usize)>,
    /// `(excluded neighbor, words)` per broadcast that excludes one,
    /// sorted — the fold subtracts these from the broadcast base load.
    pub(crate) skip_words: Vec<(NodeId, usize)>,
    /// The node called [`Context::halt`](crate::Context::halt).
    pub(crate) halted: bool,
    /// Requested wake-up round (already minimized across `wake_in` calls).
    pub(crate) wake: Option<usize>,
    /// Compute units charged via
    /// [`Context::charge_compute`](crate::Context::charge_compute).
    pub(crate) compute: u64,
    /// First fault raised by the callback (e.g. a non-neighbor send).
    pub(crate) fault: Option<SimError>,
    /// `Protocol::memory_words` sampled after the callback.
    pub(crate) memory: usize,
}

impl<M: Payload> Default for Effects<M> {
    fn default() -> Self {
        Effects {
            sends: Vec::new(),
            bcasts: Vec::new(),
            seq: 0,
            send_words: Vec::new(),
            bcast_words: Vec::new(),
            bcast_total_words: 0,
            edge_words: Vec::new(),
            skip_words: Vec::new(),
            halted: false,
            wake: None,
            compute: 0,
            fault: None,
            memory: 0,
        }
    }
}

impl<M: Payload> Effects<M> {
    /// Clears the scratch for reuse, keeping vector capacity.
    pub(crate) fn reset(&mut self) {
        self.sends.clear();
        self.bcasts.clear();
        self.seq = 0;
        self.send_words.clear();
        self.bcast_words.clear();
        self.bcast_total_words = 0;
        self.edge_words.clear();
        self.skip_words.clear();
        self.halted = false;
        self.wake = None;
        self.compute = 0;
        self.fault = None;
        self.memory = 0;
    }

    /// Allocated footprint of the staging vectors, in bytes.
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.sends.capacity() * size_of::<(u32, NodeId, M)>()
            + self.bcasts.capacity() * size_of::<(u32, Option<NodeId>, M)>()
            + (self.send_words.capacity() + self.bcast_words.capacity()) * size_of::<usize>()
            + (self.edge_words.capacity() + self.skip_words.capacity())
                * size_of::<(NodeId, usize)>()
    }

    /// Consumes the next op sequence number.
    pub(crate) fn next_seq(&mut self) -> u32 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Finishes the compute phase for this node: records the sampled
    /// memory and precomputes the word counts the fold consumes. Runs on
    /// the worker thread, in parallel across nodes.
    pub(crate) fn seal(&mut self, memory: usize) {
        self.memory = memory;
        self.send_words.clear();
        self.send_words.extend(self.sends.iter().map(|(_, _, m)| m.words().max(1)));
        self.edge_words.clear();
        self.edge_words
            .extend(self.sends.iter().zip(&self.send_words).map(|(&(_, to, _), &w)| (to, w)));
        // Only the per-destination sums matter, so an unstable sort is
        // fine — and it is deterministic for a fixed input either way.
        self.edge_words.sort_unstable();
        self.bcast_words.clear();
        self.bcast_words.extend(self.bcasts.iter().map(|(_, _, m)| m.words().max(1)));
        self.bcast_total_words = self.bcast_words.iter().sum();
        self.skip_words.clear();
        self.skip_words.extend(
            self.bcasts
                .iter()
                .zip(&self.bcast_words)
                .filter_map(|(&(_, skip, _), &w)| skip.map(|s| (s, w))),
        );
        self.skip_words.sort_unstable();
    }

    /// The node's send ops in call order: unicasts and broadcasts merged
    /// by op sequence. Every commit fold and the observation walk read
    /// the effects through this one iterator, so they agree on the order
    /// of trace events, k-machine charges and fault draws. Valid after
    /// [`seal`](Self::seal).
    pub(crate) fn ops(&self) -> impl Iterator<Item = Op<'_, M>> {
        let (mut u, mut b) = (0, 0);
        std::iter::from_fn(move || {
            let unicast_next = match (self.sends.get(u), self.bcasts.get(b)) {
                (Some(&(useq, ..)), Some(&(bseq, ..))) => useq < bseq,
                (unicast, _) => unicast.is_some(),
            };
            if unicast_next {
                let (seq, to, ref msg) = self.sends[u];
                let words = self.send_words[u];
                u += 1;
                Some(Op { seq, dest: Dest::Node(to), words, msg })
            } else {
                let &(seq, skip, ref msg) = self.bcasts.get(b)?;
                let words = self.bcast_words[b];
                b += 1;
                Some(Op { seq, dest: Dest::Neighbors { skip }, words, msg })
            }
        })
    }
}

/// One send op, as [`Effects::ops`] yields it.
#[derive(Debug)]
pub(crate) struct Op<'a, M> {
    /// The op's sequence number (shared by sends and broadcasts).
    pub(crate) seq: u32,
    /// Whom the op addresses.
    pub(crate) dest: Dest,
    /// The payload's word count (at least 1).
    pub(crate) words: usize,
    pub(crate) msg: &'a M,
}

/// The addressees of one [`Op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dest {
    /// A unicast `send` to this neighbor.
    Node(NodeId),
    /// A broadcast to every neighbor except `skip`.
    Neighbors { skip: Option<NodeId> },
}

impl<M> Op<'_, M> {
    /// Calls `f` once per addressed node: the unicast's destination, or
    /// every neighbor in `nbrs` (ascending) but the broadcast's skip.
    pub(crate) fn for_each_dest(&self, nbrs: &[NodeId], mut f: impl FnMut(NodeId)) {
        match self.dest {
            Dest::Node(to) => f(to),
            Dest::Neighbors { skip } => {
                nbrs.iter().filter(|&&to| Some(to) != skip).for_each(|&to| f(to))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_precomputes_sorted_edge_words() {
        let mut fx: Effects<u64> = Effects::default();
        fx.sends.push((0, 3, 7));
        fx.sends.push((1, 1, 8));
        fx.sends.push((2, 3, 9));
        fx.seal(5);
        assert_eq!(fx.send_words, vec![1, 1, 1]);
        assert_eq!(fx.edge_words, vec![(1, 1), (3, 1), (3, 1)]);
        assert_eq!(fx.memory, 5);
        assert_eq!(fx.bcast_total_words, 0);
    }

    #[test]
    fn seal_precomputes_broadcast_words_and_skips() {
        let mut fx: Effects<u64> = Effects::default();
        fx.bcasts.push((0, None, 7));
        fx.bcasts.push((1, Some(4), 8));
        fx.bcasts.push((2, Some(2), 9));
        fx.seal(0);
        assert_eq!(fx.bcast_words, vec![1, 1, 1]);
        assert_eq!(fx.bcast_total_words, 3);
        assert_eq!(fx.skip_words, vec![(2, 1), (4, 1)]);
    }

    #[test]
    fn reset_clears_everything() {
        let mut fx: Effects<u64> = Effects::default();
        let seq = fx.next_seq();
        fx.sends.push((seq, 0, 1));
        let seq = fx.next_seq();
        fx.bcasts.push((seq, None, 2));
        fx.halted = true;
        fx.wake = Some(9);
        fx.compute = 4;
        fx.seal(3);
        fx.reset();
        assert!(fx.sends.is_empty() && fx.send_words.is_empty() && fx.edge_words.is_empty());
        assert!(fx.bcasts.is_empty() && fx.bcast_words.is_empty() && fx.skip_words.is_empty());
        assert_eq!((fx.seq, fx.bcast_total_words), (0, 0));
        assert!(!fx.halted && fx.wake.is_none() && fx.compute == 0 && fx.fault.is_none());
        assert_eq!(fx.memory, 0);
    }

    #[test]
    fn ops_replay_call_order() {
        let mut fx: Effects<u64> = Effects::default();
        fx.sends.extend([(0, 3, 10), (2, 1, 12)]);
        fx.bcasts.extend([(1, None, 11), (3, Some(2), 13)]);
        fx.seal(0);
        let ops: Vec<_> = fx.ops().map(|op| (op.seq, op.dest, *op.msg)).collect();
        let (all, but_2) = (Dest::Neighbors { skip: None }, Dest::Neighbors { skip: Some(2) });
        let want = [(0, Dest::Node(3), 10), (1, all, 11), (2, Dest::Node(1), 12), (3, but_2, 13)];
        assert_eq!(ops, want);
        let mut dests = Vec::new();
        fx.ops().for_each(|op| op.for_each_dest(&[1, 2, 4], |to| dests.push(to)));
        assert_eq!(dests, [3, 1, 2, 4, 1, 1, 4]);
    }
}

//! Per-shard sub-folds of the **parallel commit fold**.
//!
//! The engine's commit fold is semantically a strict left fold over the
//! round's effects in ascending node-id order. On every round without an
//! active adversary — the adversarial fold draws fates and stays
//! sequential — this module splits it into data-parallel passes whose
//! deterministic ascending-shard merge reproduces the sequential fold
//! bit-for-bit. Every observer is fed after either fold by the
//! engine's observation walk, so none of them appears here:
//!
//! 1. **Plan** (parallel, read-only): each sender shard validates its
//!    nodes — protocol faults and per-edge bandwidth — and accumulates
//!    the fold's max-type metrics. If any node fails, the engine falls
//!    back to the sequential fold over *untouched* state, reproducing
//!    the exact partial-commit error semantics (all earlier nodes fully
//!    committed, the faulty node's compute/memory charged, the typed
//!    error returned at the first bad node in ascending order).
//! 2. **Commit** (parallel, clean plans only): each sender shard copies
//!    its effects into shard-local buffers — count metrics, broadcast
//!    records, wake-ups, and per-destination-shard unicast buckets —
//!    plus disjoint slices of the per-node metric arrays. The merge adds
//!    counts, maxes maxes, and replays the buffers in ascending shard
//!    order, which *is* ascending node order.
//! 3. **Destination pass** (parallel): each destination shard drains
//!    its bucket column in ascending sender-shard order (= ascending
//!    sender id) into its slice of the back mailboxes and bumps the
//!    broadcast counters of its resident neighbors, so every inbox is
//!    byte-identical to the sequential staging.

use crate::effects::{Dest, Effects};
use crate::mailbox::DestPart;
use crate::{NodeId, Payload};

/// One sender shard's reusable output buffers. Everything here is
/// either merged by addition/max or replayed in ascending shard order,
/// so the merged totals equal the sequential fold's.
pub(crate) struct ShardOut<M: Payload> {
    /// Work index (global) of the first failing node in this shard, if
    /// the plan pass found one.
    pub(crate) first_bad: Option<usize>,
    pub(crate) max_edge: usize,
    pub(crate) max_sends: usize,
    pub(crate) words: u64,
    pub(crate) messages: u64,
    pub(crate) halts: usize,
    /// `(target round, node)` wake-ups, in commit order.
    pub(crate) wakes: Vec<(usize, NodeId)>,
    /// Broadcast records `(from, seq, skip, payload)` in commit order —
    /// replayed into the arena (and neighbor activation) by the merge.
    pub(crate) bcasts: Vec<(NodeId, u32, Option<NodeId>, M)>,
}

impl<M: Payload> ShardOut<M> {
    fn new() -> Self {
        ShardOut {
            first_bad: None,
            max_edge: 0,
            max_sends: 0,
            words: 0,
            messages: 0,
            halts: 0,
            wakes: Vec::new(),
            bcasts: Vec::new(),
        }
    }

    /// Readies the buffers for a round.
    fn reset(&mut self) {
        self.first_bad = None;
        self.max_edge = 0;
        self.max_sends = 0;
        self.words = 0;
        self.messages = 0;
        self.halts = 0;
        self.wakes.clear();
        self.bcasts.clear();
    }
}

/// The network's reusable parallel-commit scratch: one [`ShardOut`] per
/// sender shard and the `shards × shards` unicast bucket matrix
/// (`buckets[s * shards + d]` = sender shard `s` → destination shard
/// `d`), allocated once and recycled every round.
pub(crate) struct CommitScratch<M: Payload> {
    pub(crate) outs: Vec<ShardOut<M>>,
    pub(crate) buckets: Vec<Vec<(NodeId, u32, NodeId, M)>>,
}

impl<M: Payload> CommitScratch<M> {
    pub(crate) fn new() -> Self {
        CommitScratch { outs: Vec::new(), buckets: Vec::new() }
    }

    pub(crate) fn prepare(&mut self, shards: usize) {
        if self.outs.len() < shards {
            self.outs.resize_with(shards, ShardOut::new);
        }
        for out in &mut self.outs[..shards] {
            out.reset();
        }
        if self.buckets.len() < shards * shards {
            self.buckets.resize_with(shards * shards, Vec::new);
        }
        debug_assert!(self.buckets.iter().all(Vec::is_empty), "bucket matrix not drained");
    }

    /// Readies a recycled scratch for a new network: the bucket matrix
    /// is drained (a donor run may have errored between the commit and
    /// destination passes), keeping every allocation. The shard outs
    /// need nothing — [`prepare`](Self::prepare) resets them per round.
    pub(crate) fn recycle(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
    }

    /// Allocated footprint of the shard outs and the bucket matrix, in
    /// bytes.
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let outs: usize = self
            .outs
            .iter()
            .map(|o| {
                o.wakes.capacity() * size_of::<(usize, NodeId)>()
                    + o.bcasts.capacity() * size_of::<(NodeId, u32, Option<NodeId>, M)>()
            })
            .sum();
        self.outs.capacity() * size_of::<ShardOut<M>>()
            + outs
            + self.buckets.capacity() * size_of::<Vec<(NodeId, u32, NodeId, M)>>()
            + self
                .buckets
                .iter()
                .map(|b| b.capacity() * size_of::<(NodeId, u32, NodeId, M)>())
                .sum::<usize>()
    }
}

/// One sender shard's unit of work: a contiguous run of the round's
/// active nodes, the matching effect and neighbor slices, disjoint
/// `&mut` windows of the per-node metric arrays (split at the shard's
/// node-id bounds), its [`ShardOut`], and its row of the bucket matrix.
pub(crate) struct SenderRun<'run, 'g, M: Payload> {
    /// Global work index of `work[0]` (for `first_bad` reporting).
    pub(crate) base_idx: usize,
    pub(crate) work: &'run [NodeId],
    pub(crate) effects: &'run [Effects<M>],
    pub(crate) nbrs: &'run [&'g [NodeId]],
    /// First node id of this shard's metric windows.
    pub(crate) node_base: usize,
    pub(crate) sent: &'run mut [u64],
    pub(crate) compute: &'run mut [u64],
    pub(crate) peak_mem: &'run mut [usize],
    pub(crate) halted: &'run mut [bool],
    pub(crate) out: &'run mut ShardOut<M>,
    pub(crate) buckets: &'run mut [Vec<(NodeId, u32, NodeId, M)>],
}

impl<M: Payload> SenderRun<'_, '_, M> {
    /// Clean plan pass: fault + bandwidth validation and max-metric
    /// accumulation. Reads only; sets `first_bad` and stops at the
    /// shard's first failing node.
    pub(crate) fn plan(&mut self, budget: usize) {
        let out = &mut *self.out;
        for (j, fx) in self.effects.iter().enumerate() {
            if fx.fault.is_some() {
                out.first_bad = Some(self.base_idx + j);
                return;
            }
            let nbrs = self.nbrs[j];
            let (sends, _) = send_totals(fx, nbrs.len());
            out.max_sends = out.max_sends.max(sends);
            if check_bandwidth(fx, nbrs, budget, &mut out.max_edge).is_err() {
                out.first_bad = Some(self.base_idx + j);
                return;
            }
        }
    }

    /// Clean commit pass: copies the shard's effects into its local
    /// buffers and metric windows, leaving them in place for the
    /// observation walk. Only run after every shard's plan came back
    /// clean. `dest_chunk` is the destination-shard width in node ids
    /// (`⌈n / shards⌉`).
    pub(crate) fn commit(&mut self, dest_chunk: usize) {
        let SenderRun {
            work,
            effects,
            nbrs: nbrs_all,
            node_base,
            sent,
            compute,
            peak_mem,
            halted,
            out,
            buckets,
            ..
        } = self;
        let out = &mut **out;
        let node_base = *node_base;
        for (j, (&v, fx)) in work.iter().zip(effects.iter()).enumerate() {
            debug_assert!(fx.fault.is_none(), "commit pass reached a faulted node");
            let nbrs = nbrs_all[j];
            let vi = v - (node_base) as u32;
            compute[(vi) as usize] += fx.compute;
            if fx.memory > peak_mem[(vi) as usize] {
                peak_mem[(vi) as usize] = fx.memory;
            }
            let (sends, words) = send_totals(fx, nbrs.len());
            out.messages += sends as u64;
            out.words += words as u64;
            sent[(vi) as usize] += sends as u64;
            // Route in call order — exactly the sequential fold's walk,
            // writing shard-local.
            for op in fx.ops() {
                match op.dest {
                    Dest::Node(to) => {
                        let bucket = &mut buckets[(to / (dest_chunk) as u32) as usize];
                        bucket.push((v, op.seq, to, op.msg.clone()));
                    }
                    Dest::Neighbors { skip } if addresses_anyone(skip, nbrs) => {
                        out.bcasts.push((v, op.seq, skip, op.msg.clone()));
                    }
                    Dest::Neighbors { .. } => {}
                }
            }
            if let Some(target) = fx.wake {
                if !fx.halted {
                    out.wakes.push((target, v));
                }
            }
            if fx.halted && !halted[(vi) as usize] {
                halted[(vi) as usize] = true;
                out.halts += 1;
            }
        }
    }
}

/// One destination shard's unit of work: its [`DestPart`] of the back
/// mailboxes, its column of the unicast bucket matrix (ascending sender
/// shard), and the round's committed broadcast directories.
pub(crate) struct DestRun<'run, 'g, M: Payload> {
    pub(crate) part: DestPart<'run, M>,
    pub(crate) cols: Vec<Vec<(NodeId, u32, NodeId, M)>>,
    /// `(sender's neighbors, skip)` of every broadcast committed this
    /// round, in commit order.
    pub(crate) dirs: &'run [(&'g [NodeId], Option<NodeId>)],
}

impl<M: Payload> DestRun<'_, '_, M> {
    pub(crate) fn route(&mut self) {
        // Direct messages: draining the columns in ascending sender
        // shard, each in commit order, appends to every resident inbox
        // in ascending (sender, seq) — the sequential staging order.
        for col in &mut self.cols {
            for (from, seq, to, msg) in col.drain(..) {
                self.part.stage(from, seq, to, msg);
            }
        }
        // Broadcast activation: bump the counter of every addressed
        // neighbor that lives in this shard's id range. The bump order
        // relative to the stages above differs from the sequential
        // interleaving, but counters and first-touch tracking are
        // order-independent (and `seal` sorts the touch list).
        let (lo, hi) = self.part.range();
        for &(nbrs, skip) in self.dirs {
            let start = nbrs.partition_point(|&x| x < lo);
            for &to in &nbrs[start..] {
                if to >= hi {
                    break;
                }
                if Some(to) != skip {
                    self.part.deliver(to);
                }
            }
        }
    }
}

/// Directed sends and words of one node's effects, broadcasts expanded
/// per addressed neighbor: the node's `max_node_sends_per_round`
/// contribution and its message and word totals. Every broadcast
/// addresses all `degree` neighbors but its skip, if any.
pub(crate) fn send_totals<M: Payload>(fx: &Effects<M>, degree: usize) -> (usize, usize) {
    let skipped_words: usize = fx.skip_words.iter().map(|&(_, w)| w).sum();
    let sends = fx.sends.len() + fx.bcasts.len() * degree - fx.skip_words.len();
    let words = fx.send_words.iter().sum::<usize>() + fx.bcast_total_words * degree;
    (sends, words - skipped_words)
}

/// Whether a broadcast skipping `skip` addresses any of `nbrs`: a
/// skip-one broadcast from a degree-1 node addresses nobody, so there is
/// nothing to stage.
pub(crate) fn addresses_anyone(skip: Option<NodeId>, nbrs: &[NodeId]) -> bool {
    nbrs.len() > usize::from(skip.is_some())
}

/// Per-destination bandwidth check for one clean sender, updating
/// `max_edge` exactly as the sequential fold's walk does (including the
/// partial updates before a violation). Returns the first violating
/// `(destination, attempted words)` in ascending destination order.
///
/// Shared by the sequential fold and the plan pass, so the two cannot
/// drift.
pub(crate) fn check_bandwidth<M: Payload>(
    fx: &Effects<M>,
    nbrs: &[NodeId],
    budget: usize,
    max_edge: &mut usize,
) -> Result<(), (NodeId, usize)> {
    if fx.bcast_total_words == 0 {
        // Unicast-only: walk the sorted (destination, words) list.
        check_edge_loads(&fx.edge_words, budget, max_edge)?;
    } else if fx.edge_words.is_empty() && fx.skip_words.is_empty() {
        // Uniform broadcast load: every neighbor carries exactly the
        // broadcast base — one check instead of a per-neighbor walk
        // (the common flood shape; a violation's first destination is
        // the first neighbor, like the full walk's).
        if !nbrs.is_empty() {
            let words = fx.bcast_total_words;
            if words > budget {
                return Err((nbrs[0], words));
            }
            if words > *max_edge {
                *max_edge = words;
            }
        }
    } else {
        // Broadcasting sender with non-uniform load: every neighbor
        // carries the broadcast base minus per-record skips, plus any
        // unicast words — walked in ascending destination order,
        // exactly the per-edge totals (and first-violation
        // destination) of the expanded unicast equivalent.
        let base = fx.bcast_total_words;
        let (uni, skips) = (&fx.edge_words, &fx.skip_words);
        let (mut a, mut b) = (0, 0);
        for &to in nbrs {
            let mut words = base;
            while a < uni.len() && uni[a].0 < to {
                a += 1;
            }
            while a < uni.len() && uni[a].0 == to {
                words += uni[a].1;
                a += 1;
            }
            while b < skips.len() && skips[b].0 < to {
                b += 1;
            }
            while b < skips.len() && skips[b].0 == to {
                words -= skips[b].1;
                b += 1;
            }
            if words > budget {
                return Err((to, words));
            }
            if words > *max_edge {
                *max_edge = words;
            }
        }
    }
    Ok(())
}

/// Per-destination bandwidth check over `(destination, words)` charges
/// sorted by destination: sums each destination's words, updating
/// `max_edge` as it goes, and returns the first over-budget
/// `(destination, words)`. Serves the clean unicast-only walk and the
/// adversarial check, which charges duplicated copies twice.
pub(crate) fn check_edge_loads(
    charges: &[(NodeId, usize)],
    budget: usize,
    max_edge: &mut usize,
) -> Result<(), (NodeId, usize)> {
    for run in charges.chunk_by(|a, b| a.0 == b.0) {
        let words = run.iter().map(|&(_, w)| w).sum();
        if words > budget {
            return Err((run[0].0, words));
        }
        *max_edge = (*max_edge).max(words);
    }
    Ok(())
}

//! Cross-network engine buffer recycling.
//!
//! A [`Network`](crate::Network) owns a family of arena-style buffers —
//! per-node mailboxes, the broadcast arena, the per-active-node effect
//! scratch, the parallel-commit shard buffers, the scheduling scratch,
//! and (when `engine_threads > 1`) the persistent worker pool. Within
//! one network they are allocated once and reused every round, but a
//! *phase* that runs many networks back to back — the `√n` Phase 1
//! color classes, DHC2's `⌈log k⌉` merge levels — used to pay the full
//! allocation (and thread-spawn) cost once per network.
//!
//! [`EngineScratch`] breaks that: construct with
//! [`Network::new_with_scratch`](crate::Network::new_with_scratch) and
//! tear down with
//! [`Network::finish_with_scratch`](crate::Network::finish_with_scratch),
//! and the buffers flow from one network to the next. Recycling is
//! purely an allocation-level affair — every buffer is cleared and
//! resized for the new node count before use, so execution, metrics,
//! traces, and errors are bit-identical to fresh construction (pinned
//! by the `scratch_reuse` test suite).
//!
//! The scratch is typed by the **message type** `M`, not by the
//! protocol: any two protocols that exchange the same message type can
//! share one scratch. Each protocol in this workspace has its own
//! message enum, so in practice a scratch chains the networks of one
//! phase — the Phase 1 class runs, or DHC2's merge levels.

use crate::effects::Effects;
use crate::mailbox::Mailboxes;
use crate::parcommit::CommitScratch;
use crate::{NodeId, Payload};
use dhc_pool::WorkerPool;

/// Recycled allocations of finished [`Network`](crate::Network)s,
/// ready to seed the next network carrying the same message type.
///
/// Starts cold (no buffers, no threads); warms up on the first
/// [`finish_with_scratch`](crate::Network::finish_with_scratch). A
/// network constructed from a warm scratch reuses the donor's mailbox
/// buffers, broadcast arena, effect and commit-shard scratch, and —
/// when the thread counts match — its worker pool.
pub struct EngineScratch<M: Payload> {
    /// The last finished network's buffers; `None` while cold.
    parts: Option<Parts<M>>,
}

/// The buffer set a [`Network`](crate::Network) is born with — taken
/// from a warm [`EngineScratch`] or freshly allocated.
pub(crate) struct Parts<M: Payload> {
    /// Double-buffered mailboxes (per-node inbox vectors, the broadcast
    /// arenas, ranges, counters, touch lists).
    pub(crate) mail: Mailboxes<M>,
    /// Per-active-node effect scratch.
    pub(crate) effects: Vec<Effects<M>>,
    /// Per-shard parallel-commit buffers.
    pub(crate) commit: CommitScratch<M>,
    /// Per-round scheduling scratch: due wake-ups, merged active set,
    /// runnable list.
    pub(crate) woken: Vec<NodeId>,
    pub(crate) active: Vec<(NodeId, usize)>,
    pub(crate) work: Vec<NodeId>,
    /// Adversarial bandwidth-check scratch.
    pub(crate) charged: Vec<(NodeId, usize)>,
    /// Persistent worker pool, with its parked threads.
    pub(crate) pool: Option<WorkerPool>,
}

impl<M: Payload> Parts<M> {
    /// Cold start: what [`Network::new`](crate::Network::new) allocates.
    pub(crate) fn fresh(n: usize, threads: usize) -> Self {
        Parts {
            mail: Mailboxes::new(n),
            effects: Vec::new(),
            commit: CommitScratch::new(),
            woken: Vec::new(),
            active: Vec::new(),
            work: Vec::new(),
            charged: Vec::new(),
            pool: (threads > 1).then(|| WorkerPool::new(threads)),
        }
    }
}

impl<M: Payload> EngineScratch<M> {
    /// An empty (cold) scratch. The first network built from it
    /// allocates normally; every later one recycles.
    pub fn new() -> Self {
        EngineScratch { parts: None }
    }

    /// Whether the scratch holds recycled buffers (i.e. at least one
    /// network has been finished into it).
    pub fn is_warm(&self) -> bool {
        self.parts.is_some()
    }

    /// Takes the buffer set for a new `n`-node network running on
    /// `threads` effective engine threads, readying every recycled
    /// buffer (a donor run may have errored mid-round). The pool is
    /// reused only when its thread count matches; the effect scratch
    /// needs no clearing here — the engine resets each entry before
    /// use.
    pub(crate) fn take_parts(&mut self, n: usize, threads: usize) -> Parts<M> {
        let Some(mut parts) = self.parts.take() else { return Parts::fresh(n, threads) };
        parts.mail.recycle(n);
        parts.commit.recycle();
        parts.pool = match parts.pool.take() {
            Some(p) if threads > 1 && p.workers() == threads => Some(p),
            _ => (threads > 1).then(|| WorkerPool::new(threads)),
        };
        parts.woken.clear();
        parts.active.clear();
        parts.work.clear();
        parts.charged.clear();
        parts
    }

    /// Stores a finished network's buffers for the next taker,
    /// replacing whatever was held before.
    pub(crate) fn store(&mut self, parts: Parts<M>) {
        self.parts = Some(parts);
    }
}

impl<M: Payload> Default for EngineScratch<M> {
    fn default() -> Self {
        EngineScratch::new()
    }
}

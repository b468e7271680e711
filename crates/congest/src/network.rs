//! The synchronous round engine.
//!
//! Each round runs in two phases:
//!
//! 1. **Compute** — every active node executes its callback against an
//!    immutable view of the network, writing its sends / halt / wake-up /
//!    compute charges into a private [`Effects`] scratch. Nothing shared
//!    is mutated, so the nodes of one round run on any number of worker
//!    threads ([`Config::engine_threads`]).
//! 2. **Commit fold** — the effects are applied in ascending node-id
//!    order: bandwidth checks, metrics, wake-up scheduling, halting, and
//!    routing of sends into the next round's [`Mailboxes`] all happen
//!    here, so the result is bit-identical at every thread count.
//!    Broadcast effects (`send_all` / `send_all_except`) commit **one**
//!    payload copy into the round's broadcast arena and activate each
//!    addressed neighbor with a counter bump, while bandwidth and metrics
//!    are still charged per directed edge — observationally identical to
//!    the per-neighbor unicast expansion, at a fraction of the cost.
//!
//! Both phases share one persistent [`dhc_pool::WorkerPool`], built at
//! network construction and parked between dispatches, so a round costs
//! a lock-and-notify rather than thread spawns. On busy rounds without an
//! active adversary the commit fold itself runs **sharded** (see
//! [`crate::parcommit`]): the fold is validated by a read-only parallel
//! plan pass, committed into per-shard buffers, and merged in ascending
//! shard order — which *is* ascending node order — so its metrics,
//! deliveries and typed failures equal the sequential fold's bit for bit.
//! Any planned fault or bandwidth violation falls back to the sequential
//! fold over untouched state, preserving the exact partial-commit error
//! semantics. Adversarial rounds, which draw a fate per delivery, always
//! take the sequential fold, forced [`Config::commit_shards`] or not.
//!
//! No observer rides either fold. After the fold, one walk over the
//! committed prefix of the round's effects — every executed node, or the
//! nodes before the one that faulted — feeds the trace (sends, fault
//! fates, wake requests, halts), the k-machine layer and the collector.
//! The folds copy payloads out instead of draining them, so the walk
//! still reads every op, and it redraws adversarial fates from the pure
//! [`Adversary::fate`](crate::Adversary::fate). Scheduling events
//! (wake-only activations, crashes, restarts) are traced in
//! [`Network::step`], where they happen. With no observer attached the
//! walk is skipped: one branch per round.

use crate::adversary::{AdversaryState, Fate};
use crate::effects::{Dest, Effects};
use crate::machine::{MachineLayer, MachineMap};
use crate::mailbox::{Inbox, Mailboxes};
use crate::parcommit::{self, CommitScratch, DestRun, SenderRun};
use crate::scratch::{EngineScratch, Parts};
use crate::trace::{Trace, TraceEvent};
use crate::{Config, Context, Metrics, NodeId, Protocol, Report, SimError};
use dhc_graph::{Graph, Topology};
use dhc_pool::WorkerPool;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Minimum active nodes in a round before the auto-sharded commit fold
/// pays for its plan pass and merge; below this the sequential fold is
/// faster. Forcing [`Config::commit_shards`] bypasses the threshold on
/// every round without an active adversary.
const PAR_COMMIT_MIN_ACTIVE: usize = 256;

/// A synchronous CONGEST network: a topology, one [`Protocol`] instance per
/// node, and the round scheduler.
///
/// The network is generic over its [`Topology`] (defaulting to a plain
/// [`Graph`]), so the same engine simulates a whole graph, a zero-copy
/// [`dhc_graph::ClassView`] of one partition class, or any future overlay
/// topology — the engine only ever reads node counts and sorted neighbor
/// slices.
///
/// Execution is deterministic — and independent of
/// [`Config::engine_threads`]: the parallel compute phase writes only
/// per-node scratch, and all shared state is updated by the commit fold
/// (and observed by the walk after it) in ascending node-id order.
/// Inboxes are sorted by sender. Only nodes with pending messages or
/// scheduled wake-ups run in a given round.
pub struct Network<'g, P: Protocol, T: Topology = Graph> {
    graph: &'g T,
    config: Config,
    nodes: Vec<P>,
    halted: Vec<bool>,
    halted_count: usize,
    /// Double-buffered mailboxes; the sealed ready list is the
    /// message-driven active set of the upcoming round.
    mail: Mailboxes<P::Msg>,
    /// Reusable per-active-node effect scratch (compute-phase output).
    effects: Vec<Effects<P::Msg>>,
    /// Reusable per-round scheduling scratch (due wake-ups, merged
    /// active set, runnable list) — taken and restored each round so a
    /// warmed-up step allocates nothing for scheduling either.
    scratch_woken: Vec<NodeId>,
    scratch_active: Vec<(NodeId, usize)>,
    scratch_work: Vec<NodeId>,
    /// Scheduled wake-ups as (round, node).
    wakes: BinaryHeap<Reverse<(usize, NodeId)>>,
    round: usize,
    metrics: Metrics,
    trace: Trace,
    finished: bool,
    /// Persistent worker pool serving the compute phase and the sharded
    /// commit fold (`None` when the effective thread count is 1 —
    /// everything then runs inline on the caller's thread).
    pool: Option<WorkerPool>,
    /// Optional k-machine accounting layer (see [`crate::machine`]):
    /// fed only by the post-fold observation walk, so it observes the run
    /// without influencing it and is deterministic at every thread count.
    machines: Option<MachineLayer>,
    /// Optional seeded fault layer (see [`crate::adversary`]): attached
    /// like the machine layer but *influencing* delivery. `None` when no
    /// adversary — or a null one — is configured, so the clean engine
    /// paths run bit-for-bit unchanged. Fault draws are pure functions of
    /// the fault seed, made by the sequential adversarial fold (and
    /// redrawn by the observation walk), keeping every-thread-count
    /// determinism.
    adversary: Option<AdversaryState>,
    /// Reusable per-node scratch for the adversarial bandwidth check:
    /// `(destination, charged words)` per delivery.
    scratch_charged: Vec<(NodeId, usize)>,
    /// Reusable per-active-node neighbor slices for the sharded commit
    /// fold (carved on the main thread so shards need no `T: Sync`).
    scratch_nbrs: Vec<&'g [NodeId]>,
    /// Reusable `(sender's neighbors, skip)` directory of the round's
    /// committed broadcasts, in commit order, for the destination pass.
    scratch_dirs: Vec<(&'g [NodeId], Option<NodeId>)>,
    /// Reusable per-shard buffers of the parallel commit fold.
    commit: CommitScratch<P::Msg>,
    /// Optional telemetry collector (see [`dhc_obs`]), cloned out of the
    /// config once so emission needs no config borrow. Fed by the
    /// post-fold observation walk, after the round is fully committed —
    /// pure observation, like the machine layer.
    obs: Option<dhc_obs::CollectorHandle>,
    /// Reusable telemetry scratch: this round's per-executed-node
    /// compute charges, read off the effects by the observation walk.
    obs_compute: Vec<u64>,
    /// This round's crash-schedule events `[crashes, restarts]`.
    obs_crash: [u64; 2],
}

/// One active node's unit of work for the compute phase.
///
/// Carries the node's sorted neighbor slice so neither the job nor the
/// worker closure needs the topology itself — which is why the parallel
/// compute phase imposes no `Sync` bound on `T`.
struct Job<'a, P: Protocol> {
    v: NodeId,
    node: &'a mut P,
    fx: &'a mut Effects<P::Msg>,
    inbox: Inbox<'a, P::Msg>,
    nbrs: &'a [NodeId],
}

impl<'g, P: Protocol, T: Topology> Network<'g, P, T> {
    /// Creates the network and runs every node's `init` (round 0).
    ///
    /// # Errors
    ///
    /// [`SimError::NodeCountMismatch`] if `protocols.len() != n`,
    /// [`SimError::InvalidAdversary`] if the configured adversary delays
    /// messages with no delay bound, or any fault raised by an `init`
    /// callback (e.g. sending to a non-neighbor).
    pub fn new(graph: &'g T, config: Config, protocols: Vec<P>) -> Result<Self, SimError> {
        Self::new_inner(graph, config, protocols, None, None)
    }

    /// Like [`new`](Network::new), but seeded from an [`EngineScratch`]:
    /// the network starts with the recycled mailbox buffers, broadcast
    /// arena, effect and commit-shard scratch, and (when the thread
    /// counts match) the parked worker pool of a previously finished
    /// network, instead of allocating its own. Pair with
    /// [`finish_with_scratch`](Network::finish_with_scratch) to keep the
    /// buffers flowing across a phase's many networks.
    ///
    /// Recycling is invisible to execution: every buffer is cleared and
    /// resized for this network before use, so outcomes, [`Metrics`],
    /// traces, and errors are bit-identical to [`new`](Network::new).
    ///
    /// # Errors
    ///
    /// As [`new`](Network::new).
    pub fn new_with_scratch(
        graph: &'g T,
        config: Config,
        protocols: Vec<P>,
        scratch: &mut EngineScratch<P::Msg>,
    ) -> Result<Self, SimError> {
        Self::new_inner(graph, config, protocols, None, Some(scratch))
    }

    /// Like [`new`](Network::new), but with the **k-machine accounting
    /// layer** attached: every committed message is additionally charged
    /// to the directed machine-pair link between its endpoints' machines
    /// (intra-machine traffic is free; a broadcast crosses each link
    /// once), and the per-round link loads are returned as
    /// [`Report::machine_log`] from [`finish`](Network::finish). The
    /// layer is pure observation — execution, outcomes, [`Metrics`], and
    /// traces are bit-identical to [`new`](Network::new).
    ///
    /// # Errors
    ///
    /// As [`new`](Network::new).
    ///
    /// # Panics
    ///
    /// Panics if `machines` does not map exactly the graph's nodes.
    pub fn new_with_machines(
        graph: &'g T,
        config: Config,
        protocols: Vec<P>,
        machines: MachineMap,
    ) -> Result<Self, SimError> {
        assert_eq!(
            machines.len(),
            graph.node_count(),
            "machine map must cover exactly the graph's nodes"
        );
        Self::new_inner(graph, config, protocols, Some(MachineLayer::new(machines)), None)
    }

    fn new_inner(
        graph: &'g T,
        config: Config,
        protocols: Vec<P>,
        machines: Option<MachineLayer>,
        scratch: Option<&mut EngineScratch<P::Msg>>,
    ) -> Result<Self, SimError> {
        if protocols.len() != graph.node_count() {
            return Err(SimError::NodeCountMismatch {
                graph_nodes: graph.node_count(),
                protocols: protocols.len(),
            });
        }
        // `Adversary`'s fields are public, so a hand-built value can skip
        // the `with_delay` check; `Adversary::fate` would then take a
        // remainder by zero.
        if let Some(adv) = &config.adversary {
            if adv.delay_ppm > 0 && adv.max_delay == 0 {
                return Err(SimError::InvalidAdversary { delay_ppm: adv.delay_ppm });
            }
        }
        let n = graph.node_count();
        let threads = config.effective_engine_threads();
        let parts = match scratch {
            Some(s) => s.take_parts(n, threads),
            None => Parts::fresh(n, threads),
        };
        let trace_capacity = config.trace_capacity;
        // A null adversary (all knobs zero) is dropped here outright, so
        // attaching `Adversary::none()` provably cannot perturb the run:
        // the engine takes its unmodified clean code paths.
        let adversary = match &config.adversary {
            Some(adv) if !adv.is_null() => Some(AdversaryState::new(adv.clone(), n)),
            _ => None,
        };
        let obs = config.collector.clone();
        let mut net = Network {
            graph,
            config,
            nodes: protocols,
            halted: vec![false; n],
            halted_count: 0,
            mail: parts.mail,
            effects: parts.effects,
            scratch_woken: parts.woken,
            scratch_active: parts.active,
            scratch_work: parts.work,
            wakes: BinaryHeap::new(),
            round: 0,
            metrics: Metrics::new(n),
            trace: Trace::with_capacity(trace_capacity),
            finished: false,
            pool: parts.pool,
            machines,
            adversary,
            scratch_charged: parts.charged,
            scratch_nbrs: Vec::new(),
            scratch_dirs: Vec::new(),
            commit: parts.commit,
            obs,
            obs_compute: Vec::new(),
            obs_crash: [0; 2],
        };
        // Pre-schedule a wake at every restart round, so a restarted
        // node activates (with an empty inbox) even in an otherwise
        // quiescent network.
        {
            let Network { adversary, wakes, .. } = &mut net;
            if let Some(st) = adversary.as_ref() {
                for (r, v) in st.restart_wakes() {
                    wakes.push(Reverse((r, v)));
                }
            }
        }
        let all: Vec<NodeId> = (0..n as NodeId).collect();
        net.run_phase(&all, CallKind::Init, &[], 0)?;
        net.mail.seal();
        Ok(net)
    }

    /// Runs rounds until every node halts.
    ///
    /// # Errors
    ///
    /// Any [`SimError`]; in particular [`SimError::Stalled`] when no node
    /// can ever run again and [`SimError::RoundLimitExceeded`] at the cap.
    pub fn run(&mut self) -> Result<(), SimError> {
        while !self.finished {
            self.step()?;
        }
        Ok(())
    }

    /// Samples the engine's buffer footprint in 8-byte machine words:
    /// the double-buffered mailboxes and broadcast arena, the per-worker
    /// effect scratch, the parallel-commit shard buffers, and the
    /// scheduling lists. Buffer capacities only grow during a run, so a
    /// sample after [`run`](Network::run) is the run's peak; both finish
    /// paths record it as
    /// [`Metrics::engine_memory_words`](crate::Metrics::engine_memory_words).
    pub fn engine_memory_words(&self) -> usize {
        use std::mem::size_of;
        let effects = self.effects.capacity() * size_of::<Effects<P::Msg>>()
            + self.effects.iter().map(Effects::memory_bytes).sum::<usize>();
        let sched = self.scratch_woken.capacity() * size_of::<NodeId>()
            + self.scratch_active.capacity() * size_of::<(NodeId, usize)>()
            + self.scratch_work.capacity() * size_of::<NodeId>()
            + self.wakes.capacity() * size_of::<Reverse<(usize, NodeId)>>()
            + self.scratch_charged.capacity() * size_of::<(NodeId, usize)>()
            + self.scratch_nbrs.capacity() * size_of::<&[NodeId]>()
            + self.scratch_dirs.capacity() * size_of::<(&[NodeId], Option<NodeId>)>();
        let bytes = self.mail.memory_bytes() + effects + sched + self.commit.memory_bytes();
        bytes.div_ceil(size_of::<u64>())
    }

    /// Consumes the network, returning the final [`Report`] (by value, no
    /// metrics clone) and the per-node protocol states.
    pub fn finish(mut self) -> (Report, Vec<P>) {
        self.metrics.engine_memory_words = self.engine_memory_words() as u64;
        (
            Report {
                metrics: self.metrics,
                halted: self.halted_count,
                machine_log: self.machines.map(MachineLayer::into_log),
            },
            self.nodes,
        )
    }

    /// Like [`finish`](Network::finish), but donates the network's
    /// warmed-up buffers (mailboxes, broadcast arena, effect and
    /// commit-shard scratch, worker pool) to `scratch`, replacing
    /// whatever it held, so the next
    /// [`new_with_scratch`](Network::new_with_scratch) recycles them.
    /// Works regardless of how this network was constructed, and also
    /// after an errored [`run`](Network::run) — the taker re-clears
    /// everything.
    pub fn finish_with_scratch(mut self, scratch: &mut EngineScratch<P::Msg>) -> (Report, Vec<P>) {
        self.metrics.engine_memory_words = self.engine_memory_words() as u64;
        let Network {
            nodes,
            halted_count,
            mail,
            effects,
            scratch_woken,
            scratch_active,
            scratch_work,
            metrics,
            pool,
            machines,
            scratch_charged,
            commit,
            ..
        } = self;
        scratch.store(Parts {
            mail,
            effects,
            commit,
            woken: scratch_woken,
            active: scratch_active,
            work: scratch_work,
            charged: scratch_charged,
            pool,
        });
        (
            Report {
                metrics,
                halted: halted_count,
                machine_log: machines.map(MachineLayer::into_log),
            },
            nodes,
        )
    }

    /// Executes one round. Does nothing once the run has finished.
    ///
    /// # Errors
    ///
    /// See [`run`](Network::run).
    pub fn step(&mut self) -> Result<(), SimError> {
        if self.finished {
            return Ok(());
        }
        if self.halted_count == self.nodes.len() {
            self.finished = true;
            return Ok(());
        }
        if self.round >= self.config.max_rounds {
            return Err(SimError::RoundLimitExceeded {
                max_rounds: self.config.max_rounds,
                unhalted: self.nodes.len() - self.halted_count,
            });
        }
        self.round += 1;

        if self.mail.ready().is_empty() {
            // Quiescent: fast-forward to the next scheduled wake-up or
            // delayed-message due round, if any (the skipped empty rounds
            // still count toward simulated time).
            let next_wake = self.wakes.peek().map(|&Reverse((r, _))| r);
            let next_due = self.mail.next_due();
            let next = match (next_wake, next_due) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            match next {
                Some(r) => {
                    if r > self.round {
                        self.round = r;
                    }
                    if self.round > self.config.max_rounds {
                        return Err(SimError::RoundLimitExceeded {
                            max_rounds: self.config.max_rounds,
                            unhalted: self.nodes.len() - self.halted_count,
                        });
                    }
                }
                None => {
                    if self.halted_count == self.nodes.len() {
                        self.finished = true;
                        return Ok(());
                    }
                    // Under an active adversary, a starved network (no
                    // mail, wakes, delayed messages, or pending restarts)
                    // is an *environmental* outcome — message loss, not a
                    // protocol deadlock — and no future round can make
                    // progress, so it terminates as the round-cap error
                    // instead of `Stalled`.
                    if self.adversary.is_some() {
                        return Err(SimError::RoundLimitExceeded {
                            max_rounds: self.config.max_rounds,
                            unhalted: self.nodes.len() - self.halted_count,
                        });
                    }
                    return Err(SimError::Stalled {
                        round: self.round,
                        unhalted: self.nodes.len() - self.halted_count,
                    });
                }
            }
        }

        if self.adversary.is_some() {
            // Re-inject delayed messages due this round (checking them
            // against the arrival round's edge budgets), then apply the
            // crash schedule so the suppression filter below sees this
            // round's up/down states.
            if let Err(e) = self.mail.inject_due(self.round, self.config.bandwidth_words) {
                // Seal so a post-error `step` cannot re-deliver this
                // round's inboxes, mirroring the fold's error path.
                self.mail.seal();
                return Err(e);
            }
            let round = self.round;
            let Network { adversary, trace, obs_crash, .. } = &mut *self;
            *obs_crash = [0; 2];
            if let Some(st) = adversary.as_mut() {
                st.advance(round, |node, went_down| {
                    obs_crash[usize::from(!went_down)] += 1;
                    trace.push(if went_down {
                        TraceEvent::Crashed { round, node }
                    } else {
                        TraceEvent::Restarted { round, node }
                    });
                });
            }
        }

        // Pop the due wake-ups (a wake for a node that also has mail is
        // simply consumed: the node activates either way).
        let mut woken = std::mem::take(&mut self.scratch_woken);
        woken.clear();
        while let Some(&Reverse((r, v))) = self.wakes.peek() {
            if r > self.round {
                break;
            }
            self.wakes.pop();
            woken.push(v);
        }
        woken.sort_unstable();
        woken.dedup();

        // Merge the message-driven active set (the sealed mailbox list,
        // ascending) with the woken nodes; wake-only activations get an
        // empty inbox.
        let mut active = std::mem::take(&mut self.scratch_active);
        active.clear();
        {
            let ready = self.mail.ready();
            let (mut i, mut j) = (0, 0);
            while i < ready.len() || j < woken.len() {
                let take_ready = match (ready.get(i), woken.get(j)) {
                    (Some(&(v, _)), Some(&w)) => {
                        if v == w {
                            j += 1; // wake consumed by the message activation
                        }
                        v <= w
                    }
                    (Some(_), None) => true,
                    (None, _) => false,
                };
                if take_ready {
                    active.push(ready[i]);
                    i += 1;
                } else {
                    let w = woken[j];
                    j += 1;
                    let down = self.adversary.as_ref().is_some_and(|st| st.is_down(w));
                    if !self.halted[(w) as usize] && !down && self.trace.is_enabled() {
                        self.trace.push(TraceEvent::Woke { round: self.round, node: w });
                    }
                    active.push((w, 0));
                }
            }
        }

        // Unreachable in the current schedule — an empty ready list
        // either stalls/finishes above or fast-forwards onto a due wake,
        // and due wakes are merged even for since-halted nodes — but kept
        // as a defensive guard so an empty merge can never mis-run.
        debug_assert!(!active.is_empty(), "merged active set cannot be empty here");
        if active.is_empty() {
            self.scratch_woken = woken;
            self.scratch_active = active;
            if self.halted_count == self.nodes.len() {
                self.finished = true;
            }
            return Ok(());
        }

        // Delivery accounting; halted nodes consume (drop) their messages
        // without running, and so do crashed nodes — a down node's
        // receives are suppressed exactly like a halted node's (delivery
        // metrics included), but unlike halting it may run again after a
        // restart.
        let mut round_messages = 0u64;
        let mut work = std::mem::take(&mut self.scratch_work);
        work.clear();
        for &(v, len) in &active {
            round_messages += len as u64;
            self.metrics.received_per_node[(v) as usize] += len as u64;
            self.metrics.compute_per_node[(v) as usize] += len as u64;
            let down = self.adversary.as_ref().is_some_and(|st| st.is_down(v));
            if !self.halted[(v) as usize] && !down {
                work.push(v);
            }
        }
        // The O(rounds) log is optional; the running maximum is not — it
        // is the streaming congestion figure long lean runs keep.
        if self.config.record_round_traffic {
            self.metrics.round_traffic.push(round_messages);
        }
        self.metrics.max_round_traffic = self.metrics.max_round_traffic.max(round_messages);

        let result = self.run_phase(&work, CallKind::Round, &active, round_messages);
        self.scratch_woken = woken;
        self.scratch_active = active;
        self.scratch_work = work;
        // Seal even when the fold faulted: the failed round's inboxes are
        // consumed and the sends committed by pre-fault nodes are
        // delivered, exactly like the old engine (which took inboxes
        // before invoking) — a post-error `step` can never re-run the
        // same round.
        self.mail.seal();
        result
    }

    /// Runs one phase over the listed nodes (strictly ascending by node
    /// id): the parallel compute phase, the commit fold — sharded across
    /// the worker pool on busy rounds without an adversary, sequential
    /// otherwise, with bit-identical results either way — and, when an
    /// observer is attached, the observation walk over what the fold
    /// committed.
    ///
    /// `active` and `delivered` describe this round's delivery (the full
    /// activated set with inbox lengths, and the delivered message
    /// count); they are consumed only by the collector, which is fed once
    /// per *successfully* committed round.
    fn run_phase(
        &mut self,
        work: &[NodeId],
        kind: CallKind,
        active: &[(NodeId, usize)],
        delivered: u64,
    ) -> Result<(), SimError> {
        if self.effects.len() < work.len() {
            self.effects.resize_with(work.len(), Effects::default);
        }

        // --- Compute phase: per-node, no shared mutation. ---
        {
            let Network { graph, nodes, effects, mail, round, pool, .. } = self;
            let graph: &T = graph;
            let n = graph.node_count();
            let round = *round;

            let run_job = |job: &mut Job<'_, P>| {
                job.fx.reset();
                {
                    let mut ctx =
                        Context { node: job.v, round, n, nbrs: job.nbrs, fx: &mut *job.fx };
                    match kind {
                        CallKind::Init => job.node.init(&mut ctx),
                        CallKind::Round => job.node.round(&mut ctx, job.inbox.clone()),
                    }
                }
                job.fx.seal(job.node.memory_words());
            };
            let fx_pool = &mut effects[..work.len()];
            match pool {
                Some(pool) if work.len() > 1 => {
                    let mut jobs: Vec<Job<'_, P>> = Vec::with_capacity(work.len());
                    carve_jobs(graph, nodes, fx_pool, mail, work, |job| jobs.push(job));
                    pool.run_mut(&mut jobs, &|_, job| run_job(job));
                }
                // Default sequential path: run each node as it is carved,
                // with no intermediate job list.
                _ => carve_jobs(graph, nodes, fx_pool, mail, work, |mut job| run_job(&mut job)),
            }
        }

        // --- Commit fold: ascending node id. The pre-fold totals let
        // the collector report this round's deltas. ---
        let pre = (self.metrics.messages, self.metrics.words);
        let shards = self.commit_shard_count(work.len());
        let folded = if shards > 0 && self.try_commit_sharded(work, shards) {
            Ok(())
        } else {
            self.commit_sequential(work)
        };
        if self.trace.is_enabled() || self.machines.is_some() || self.obs.is_some() {
            let committed = folded.as_ref().map_or_else(|&(i, _)| i, |()| work.len());
            let closed = folded.is_ok();
            self.observe_round(&work[..committed], closed, active, delivered, pre);
        }
        folded.map_err(|(_, e)| e)?;
        self.metrics.rounds = self.round;
        Ok(())
    }

    /// The observation walk: one pass over the effects of `committed` —
    /// the prefix of the round's work list the fold committed — after the
    /// fold, on the caller's thread. Per node it pushes the `Sent` events,
    /// each followed by the fate event of a dropped, duplicated or delayed
    /// copy, then the `WakeScheduled` or `Halted` event; charges the
    /// k-machine layer (a clean broadcast crosses each link once, an
    /// adversarial copy is charged per copy); and counts what the
    /// collector reads. When the whole round committed (`closed`), it
    /// then closes the machine layer's round — every executed phase,
    /// init included, becomes one log entry, so the dilation accounting
    /// sees exactly the executed schedule — and emits the round's
    /// [`dhc_obs::RoundObs`].
    ///
    /// The walk reads effects the fold leaves in place and redraws fates
    /// with the pure [`Adversary::fate`](crate::Adversary::fate), so it
    /// cannot perturb the round and carries no state across nodes.
    fn observe_round(
        &mut self,
        committed: &[NodeId],
        closed: bool,
        active: &[(NodeId, usize)],
        delivered: u64,
        (pre_messages, pre_words): (u64, u64),
    ) {
        let Network {
            graph,
            effects,
            trace,
            machines,
            adversary,
            obs,
            obs_compute,
            obs_crash,
            metrics,
            ..
        } = self;
        let round = self.round;
        let adv = adversary.as_ref().map(|st| &st.adv);
        // Per-delivery work serves only the trace, the machine layer and
        // the fate counts.
        let per_delivery = trace.is_enabled() || machines.is_some() || adv.is_some();
        let (mut unicast_ops, mut broadcast_ops, mut wakes_scheduled, mut halts) = (0, 0, 0, 0);
        // Realized `[dropped, duplicated, delayed]` copies.
        let mut fates = [0u64; 3];
        obs_compute.clear();
        for (&v, fx) in committed.iter().zip(effects.iter()) {
            unicast_ops += fx.sends.len() as u64;
            broadcast_ops += fx.bcasts.len() as u64;
            obs_compute.push(fx.compute);
            let nbrs = graph.neighbors(v);
            if per_delivery {
                for op in fx.ops() {
                    let clean_bcast = match op.dest {
                        Dest::Neighbors { skip } if adv.is_none() => Some(skip),
                        _ => None,
                    };
                    if let (Some(skip), Some(ml)) = (clean_bcast, machines.as_mut()) {
                        ml.broadcast(v, nbrs, skip, op.words);
                    }
                    op.for_each_dest(nbrs, |to| {
                        trace.push(TraceEvent::Sent { round, from: v, to, words: op.words });
                        let fate = adv.map_or(Fate::Deliver, |a| a.fate(round, v, op.seq, to));
                        if let (None, Some(ml)) = (clean_bcast, machines.as_mut()) {
                            for _ in 0..1 + usize::from(fate == Fate::Duplicate) {
                                ml.unicast(v, to, op.words);
                            }
                        }
                        let (slot, ev) = match fate {
                            Fate::Deliver => return,
                            Fate::Drop => (0, TraceEvent::Dropped { round, from: v, to }),
                            Fate::Duplicate => (1, TraceEvent::Duplicated { round, from: v, to }),
                            Fate::Delay(d) => {
                                let until = round + 1 + d;
                                (2, TraceEvent::Delayed { round, from: v, to, until })
                            }
                        };
                        fates[slot] += 1;
                        trace.push(ev);
                    });
                }
            }
            if fx.halted {
                halts += 1;
                trace.push(TraceEvent::Halted { round, node: v });
            } else if let Some(target) = fx.wake {
                wakes_scheduled += 1;
                trace.push(TraceEvent::WakeScheduled { round, node: v, target });
            }
        }
        if !closed {
            return;
        }
        if let Some(ml) = machines.as_mut() {
            ml.end_round(round);
        }
        let Some(obs) = obs.as_ref() else { return };
        let ev = dhc_obs::RoundObs {
            round,
            executed: committed.len(),
            delivered,
            inbox: active,
            compute: obs_compute,
            unicast_ops,
            broadcast_ops,
            messages: metrics.messages - pre_messages,
            words: metrics.words - pre_words,
            wakes_scheduled,
            halts,
            faults: dhc_obs::FaultObs {
                dropped: fates[0],
                duplicated: fates[1],
                delayed: fates[2],
                crashes: obs_crash[0],
                restarts: obs_crash[1],
            },
            machine_links: machines.as_ref().map_or(&[], MachineLayer::last_round_links),
        };
        obs.with(|c| c.on_round(&ev));
    }

    /// The reference commit fold: one pass over the effects in ascending
    /// node-id order, applying everything directly to shared state. The
    /// sharded fold is pinned bit-for-bit against this path; every
    /// adversarial round runs here, and so does every faulting round, so
    /// partial-commit error semantics come from exactly one place. On a
    /// fault, returns the work index of the faulting node with its error:
    /// every node before it is fully committed.
    fn commit_sequential(&mut self, work: &[NodeId]) -> Result<(), (usize, SimError)> {
        for (i, &v) in work.iter().enumerate() {
            let fx = &mut self.effects[i];
            if let Some(err) = fx.fault.take() {
                return Err((i, err));
            }
            self.metrics.compute_per_node[(v) as usize] += fx.compute;
            let peak = &mut self.metrics.peak_memory_per_node[(v) as usize];
            *peak = (*peak).max(fx.memory);
            // The fault-influenced routing lives apart so the clean path
            // stays exactly the pre-adversary engine.
            let routed = if self.adversary.is_some() {
                self.route_adversarial(i, v)
            } else {
                self.route_clean(i, v)
            };
            if let Err((to, words)) = routed {
                let err = SimError::BandwidthExceeded {
                    from: v,
                    to,
                    round: self.round,
                    attempted_words: words,
                    budget_words: self.config.bandwidth_words,
                };
                return Err((i, err));
            }
            let fx = &self.effects[i];
            if let Some(target) = fx.wake.filter(|_| !fx.halted) {
                self.wakes.push(Reverse((target, v)));
            }
            if fx.halted && !self.halted[(v) as usize] {
                self.halted[(v) as usize] = true;
                self.halted_count += 1;
            }
        }
        Ok(())
    }

    /// Checks and routes the ops of work entry `i` (node `v`) on a round
    /// without an adversary, returning the first over-budget
    /// `(destination, words)`.
    fn route_clean(&mut self, i: usize, v: NodeId) -> Result<(), (NodeId, usize)> {
        let Network { graph, effects, mail, metrics, config, .. } = self;
        let (fx, nbrs) = (&effects[i], graph.neighbors(v));
        // Per-directed-edge accounting: every broadcast still counts one
        // message per addressed neighbor — only the payload
        // materialization is shared.
        let (sends, words) = parcommit::send_totals(fx, nbrs.len());
        metrics.max_node_sends_per_round = metrics.max_node_sends_per_round.max(sends);
        // Bandwidth check: words per destination from this sender — the
        // same walk the sharded fold's plan pass runs, so the two paths
        // cannot drift.
        parcommit::check_bandwidth(fx, nbrs, config.bandwidth_words, &mut metrics.max_edge_words)?;
        metrics.messages += sends as u64;
        metrics.words += words as u64;
        metrics.sent_per_node[(v) as usize] += sends as u64;
        // Route sends and broadcasts into the next round's mailboxes in
        // call order, so per-receiver delivery order matches the unicast
        // expansion.
        for op in fx.ops() {
            match op.dest {
                Dest::Node(to) => mail.stage(v, op.seq, to, op.msg.clone()),
                // One payload copy into the arena; every addressed
                // neighbor is activated with a counter bump.
                Dest::Neighbors { skip } if parcommit::addresses_anyone(skip, nbrs) => {
                    mail.stage_broadcast(v, op.seq, skip, op.msg.clone());
                    op.for_each_dest(nbrs, |to| mail.deliver(to));
                }
                Dest::Neighbors { .. } => {}
            }
        }
        Ok(())
    }

    /// Shard count for this round's commit fold: `0` means "run the
    /// sequential fold", which an empty round or an active adversary
    /// always does. Otherwise a forced [`Config::commit_shards`] always
    /// shards (clamped to the active count); auto mode shards only when a
    /// pool exists and the round is busy enough to amortize the merge.
    fn commit_shard_count(&self, work_len: usize) -> usize {
        if work_len == 0 || self.adversary.is_some() {
            return 0;
        }
        if self.config.commit_shards != 0 {
            return self.config.commit_shards.min(work_len);
        }
        match &self.pool {
            Some(pool) if work_len >= PAR_COMMIT_MIN_ACTIVE => pool.workers().min(work_len),
            _ => 0,
        }
    }

    /// Attempts the sharded commit fold (see [`crate::parcommit`]) on a
    /// round without an active adversary, which
    /// [`commit_shard_count`](Self::commit_shard_count) guarantees.
    /// Returns `false` — with **no** engine state mutated — when the
    /// plan pass finds a protocol fault or bandwidth violation; the
    /// caller then runs [`commit_sequential`](Self::commit_sequential),
    /// which reproduces the exact partial-commit error semantics.
    fn try_commit_sharded(&mut self, work: &[NodeId], shards: usize) -> bool {
        let n = self.nodes.len();
        let graph = self.graph;
        let budget = self.config.bandwidth_words;
        let dest_chunk = n.div_ceil(shards);
        self.scratch_nbrs.clear();
        self.scratch_nbrs.extend(work.iter().map(|&v| graph.neighbors(v)));
        self.commit.prepare(shards);

        let Network {
            halted,
            halted_count,
            mail,
            effects,
            wakes,
            metrics,
            pool,
            commit,
            scratch_nbrs,
            scratch_dirs,
            ..
        } = &mut *self;

        // Carve one SenderRun per shard: contiguous runs of the active
        // list plus disjoint windows of the per-node arrays, split at
        // the shard's node-id bounds.
        let chunk = work.len().div_ceil(shards);
        let mut sent = &mut metrics.sent_per_node[..];
        let mut compute = &mut metrics.compute_per_node[..];
        let mut peak = &mut metrics.peak_memory_per_node[..];
        let mut halt = &mut halted[..];
        let mut outs = commit.outs[..shards].iter_mut();
        let mut buckets = commit.buckets[..shards * shards].chunks_mut(shards);
        // First node id not yet covered by a carved window.
        let mut consumed = 0;
        let mut runs: Vec<SenderRun<'_, 'g, P::Msg>> = (0..shards)
            .map(|s| {
                let (lo, hi) = ((s * chunk).min(work.len()), ((s + 1) * chunk).min(work.len()));
                let next = work.get(hi).map_or(n, |&v| (v) as usize);
                let width = next - consumed;
                SenderRun {
                    base_idx: lo,
                    work: &work[lo..hi],
                    effects: &effects[lo..hi],
                    nbrs: &scratch_nbrs[lo..hi],
                    node_base: std::mem::replace(&mut consumed, next),
                    sent: split_off(&mut sent, width),
                    compute: split_off(&mut compute, width),
                    peak_mem: split_off(&mut peak, width),
                    halted: split_off(&mut halt, width),
                    out: outs.next().expect("outs sized to shards"),
                    buckets: buckets.next().expect("bucket rows sized to shards"),
                }
            })
            .collect();

        // --- Plan pass: read-only validation + max-metric accumulation. ---
        dispatch(pool.as_ref(), &mut runs, |r| r.plan(budget));
        if runs.iter().any(|r| r.out.first_bad.is_some()) {
            return false;
        }

        // --- Commit pass: shard-local buffers, disjoint metric windows. ---
        dispatch(pool.as_ref(), &mut runs, |r| r.commit(dest_chunk));
        drop(runs);

        // --- Merge: ascending shard order is ascending node order. ---
        scratch_dirs.clear();
        for out in commit.outs[..shards].iter_mut() {
            metrics.words += out.words;
            metrics.messages += out.messages;
            if out.max_edge > metrics.max_edge_words {
                metrics.max_edge_words = out.max_edge;
            }
            if out.max_sends > metrics.max_node_sends_per_round {
                metrics.max_node_sends_per_round = out.max_sends;
            }
            *halted_count += out.halts;
            for &(target, v) in &out.wakes {
                wakes.push(Reverse((target, v)));
            }
            for (from, seq, skip, msg) in out.bcasts.drain(..) {
                scratch_dirs.push((graph.neighbors(from), skip));
                mail.stage_broadcast(from, seq, skip, msg);
            }
        }

        // --- Destination pass: shard the mailboxes by receiver id. ---
        let mut dest_runs: Vec<DestRun<'_, 'g, P::Msg>> = Vec::with_capacity(shards);
        for (d, part) in mail.dest_parts(dest_chunk, shards).into_iter().enumerate() {
            let cols =
                (0..shards).map(|s| std::mem::take(&mut commit.buckets[s * shards + d])).collect();
            dest_runs.push(DestRun { part, cols, dirs: &scratch_dirs[..] });
        }
        dispatch(pool.as_ref(), &mut dest_runs, |r| r.route());
        let mut touched = Vec::with_capacity(shards);
        for (d, run) in dest_runs.into_iter().enumerate() {
            for (s, col) in run.cols.into_iter().enumerate() {
                debug_assert!(col.is_empty(), "destination pass left a bucket undrained");
                commit.buckets[s * shards + d] = col;
            }
            touched.push(run.part.into_touched());
        }
        mail.absorb_touched(touched);
        true
    }

    /// Checks and routes the ops of work entry `i` (node `v`) under an
    /// **active adversary**: the fault-influenced twin of
    /// [`route_clean`](Self::route_clean).
    ///
    /// Every delivery — broadcasts expanded over their addressed
    /// neighbors in ascending order, ops in call order — meets the
    /// [`Fate`] drawn by the pure
    /// [`Adversary::fate`](crate::Adversary::fate). The first pass checks
    /// the per-edge budgets with duplicates charged twice (a duplicated
    /// copy is extra traffic on the edge, so it can push a protocol that
    /// saturates its budget over the limit; the violation surfaces as the
    /// ordinary [`SimError::BandwidthExceeded`], never a silent queue),
    /// updating the maxima exactly as the clean check does. The second
    /// pass redraws each fate and routes: delivered copies are staged as
    /// usual, dropped ones are charged to the sender but never staged,
    /// duplicated ones are staged twice, and delayed ones are parked in
    /// the mailbox delay queue until their due round.
    ///
    /// Broadcasts are committed as **per-destination direct messages**
    /// (each copy can meet a different fate), so the broadcast arena is
    /// never used under an active adversary; the observation walk likewise
    /// charges the k-machine layer the per-edge unicast expansion.
    fn route_adversarial(&mut self, i: usize, v: NodeId) -> Result<(), (NodeId, usize)> {
        let Network { graph, effects, mail, metrics, adversary, config, scratch_charged, .. } =
            self;
        let round = self.round;
        let adv = &adversary.as_ref().expect("adversarial commit without an adversary").adv;
        let (fx, nbrs) = (&effects[i], graph.neighbors(v));
        scratch_charged.clear();
        let mut attempts = 0;
        for op in fx.ops() {
            op.for_each_dest(nbrs, |to| {
                let copies = 1 + usize::from(adv.fate(round, v, op.seq, to) == Fate::Duplicate);
                scratch_charged.push((to, op.words * copies));
                attempts += copies;
            });
        }
        metrics.max_node_sends_per_round = metrics.max_node_sends_per_round.max(attempts);
        scratch_charged.sort_unstable();
        let budget = config.bandwidth_words;
        parcommit::check_edge_loads(scratch_charged, budget, &mut metrics.max_edge_words)?;

        for op in fx.ops() {
            op.for_each_dest(nbrs, |to| {
                let fate = adv.fate(round, v, op.seq, to);
                let copies: u64 = if fate == Fate::Duplicate { 2 } else { 1 };
                metrics.words += op.words as u64 * copies;
                metrics.messages += copies;
                metrics.sent_per_node[(v) as usize] += copies;
                match fate {
                    Fate::Deliver => mail.stage(v, op.seq, to, op.msg.clone()),
                    // Charged to the sender, lost in transit.
                    Fate::Drop => {}
                    Fate::Duplicate => {
                        mail.stage(v, op.seq, to, op.msg.clone());
                        mail.stage(v, op.seq, to, op.msg.clone());
                    }
                    Fate::Delay(d) => {
                        mail.stage_delayed(round + 1 + d, v, op.seq, to, op.msg.clone())
                    }
                }
            });
        }
        Ok(())
    }

    /// Number of rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.round
    }

    /// Whether every node has halted.
    pub fn is_finished(&self) -> bool {
        self.finished || self.halted_count == self.nodes.len()
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The event trace (empty unless `Config::trace_capacity > 0`).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Immutable access to the per-node protocol states (for extracting
    /// outputs after a run).
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Consumes the network, returning the protocol states. Prefer
    /// [`finish`](Network::finish) when the final metrics are also needed.
    pub fn into_nodes(self) -> Vec<P> {
        self.nodes
    }
}

impl<P: Protocol, T: Topology> std::fmt::Debug for Network<'_, P, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("n", &self.nodes.len())
            .field("round", &self.round)
            .field("halted", &self.halted_count)
            .field("finished", &self.finished)
            .finish()
    }
}

/// Carves one disjoint `&mut` node/effects pair per listed node (ids
/// strictly ascending) and hands each [`Job`] to `with` — the shared
/// walk behind both compute-phase paths (inline execution when
/// sequential, job-list collection when parallel). The topology is read
/// only here, to attach each node's neighbor slice to its job.
fn carve_jobs<'a, P: Protocol, T: Topology>(
    graph: &'a T,
    nodes: &'a mut [P],
    effects: &'a mut [Effects<P::Msg>],
    mail: &'a Mailboxes<P::Msg>,
    work: &[NodeId],
    mut with: impl FnMut(Job<'a, P>),
) {
    let mut node_rest = nodes;
    let mut fx_rest = effects;
    let mut base = 0;
    for &v in work {
        let (_, tail) = node_rest.split_at_mut((v - base) as usize);
        let (node, tail) = tail.split_first_mut().expect("active node id in range");
        node_rest = tail;
        base = v + 1;
        let (fx, fx_tail) = fx_rest.split_first_mut().expect("effects pool sized to work");
        fx_rest = fx_tail;
        let nbrs = graph.neighbors(v);
        with(Job { v, node, fx, inbox: mail.inbox(v, nbrs), nbrs });
    }
}

/// Splits the first `k` items off `rest`, leaving it the remainder.
fn split_off<'a, T>(rest: &mut &'a mut [T], k: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(k);
    *rest = tail;
    head
}

/// Runs `f` over every item — on the worker pool when one exists,
/// inline otherwise. Both commit-fold passes and the compute phase go
/// through here, so "no pool" provably means "no extra threads".
fn dispatch<I: Send, F: Fn(&mut I) + Sync>(pool: Option<&WorkerPool>, items: &mut [I], f: F) {
    match pool {
        Some(pool) => pool.run_mut(items, &|_, item| f(item)),
        None => {
            for item in items.iter_mut() {
                f(item);
            }
        }
    }
}

/// Which protocol callback [`Network::run_phase`] should run.
#[derive(Clone, Copy, Debug)]
enum CallKind {
    Init,
    Round,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineRound;
    use crate::Payload;

    #[derive(Clone, Debug)]
    struct Token(#[allow(dead_code)] u64);
    impl Payload for Token {}

    /// Floods a token once from node 0; every node halts after forwarding.
    struct Flood {
        seen: bool,
    }
    impl Protocol for Flood {
        type Msg = Token;
        fn init(&mut self, ctx: &mut Context<'_, Token>) {
            if ctx.node() == 0 {
                self.seen = true;
                ctx.send_all(Token(1));
                ctx.halt();
            }
        }
        fn round(&mut self, ctx: &mut Context<'_, Token>, inbox: Inbox<'_, Token>) {
            if !inbox.is_empty() && !self.seen {
                self.seen = true;
                ctx.send_all(Token(1));
            }
            ctx.halt();
        }
        fn memory_words(&self) -> usize {
            2
        }
    }

    fn flood_nodes(n: usize) -> Vec<Flood> {
        (0..n).map(|_| Flood { seen: false }).collect()
    }

    #[test]
    fn flood_reaches_everyone_on_path() {
        let g = dhc_graph::generator::path_graph(5);
        let mut net = Network::new(&g, Config::default(), flood_nodes(5)).unwrap();
        net.run().unwrap();
        assert!(net.nodes().iter().all(|f| f.seen));
        let (report, _) = net.finish();
        assert_eq!(report.halted, 5);
        // Token crosses 4 hops; the last forward happens in round 4.
        assert_eq!(report.metrics.rounds, 4);
        // Sends: node 0 one, nodes 1-3 two each (send_all), node 4 one.
        assert_eq!(report.metrics.messages, 8);
    }

    #[test]
    fn metrics_count_messages_and_words() {
        let g = dhc_graph::generator::star(4);
        let mut net = Network::new(&g, Config::default(), flood_nodes(4)).unwrap();
        net.run().unwrap();
        let (report, _) = net.finish();
        // Node 0 sends 3; each leaf replies to the (halted) hub: 3 more sent.
        assert_eq!(report.metrics.messages, 6);
        assert_eq!(report.metrics.words, 6);
        assert_eq!(report.metrics.sent_per_node, vec![3, 1, 1, 1]);
        assert_eq!(report.metrics.max_edge_words, 1);
    }

    #[test]
    fn memory_peaks_sampled() {
        let g = dhc_graph::generator::path_graph(3);
        let mut net = Network::new(&g, Config::default(), flood_nodes(3)).unwrap();
        net.run().unwrap();
        assert!(net.metrics().peak_memory_per_node.iter().all(|&m| m == 2));
    }

    #[test]
    fn node_count_mismatch_rejected() {
        let g = dhc_graph::generator::path_graph(3);
        assert!(matches!(
            Network::new(&g, Config::default(), flood_nodes(2)),
            Err(SimError::NodeCountMismatch { graph_nodes: 3, protocols: 2 })
        ));
    }

    /// Sends to a fixed non-neighbor in init.
    struct BadSender;
    impl Protocol for BadSender {
        type Msg = Token;
        fn init(&mut self, ctx: &mut Context<'_, Token>) {
            if ctx.node() == 0 {
                ctx.send(2, Token(0));
            }
            ctx.halt();
        }
        fn round(&mut self, _: &mut Context<'_, Token>, _: Inbox<'_, Token>) {}
    }

    #[test]
    fn non_neighbor_send_is_error() {
        let g = dhc_graph::generator::path_graph(3); // 0-1-2: 0 and 2 not adjacent
        let err =
            Network::new(&g, Config::default(), vec![BadSender, BadSender, BadSender]).unwrap_err();
        assert!(matches!(err, SimError::NotANeighbor { from: 0, to: 2, .. }));
    }

    /// Sends two messages over one edge in one round.
    struct Chatty;
    impl Protocol for Chatty {
        type Msg = Token;
        fn init(&mut self, ctx: &mut Context<'_, Token>) {
            if ctx.node() == 0 {
                ctx.send(1, Token(1));
                ctx.send(1, Token(2));
            }
            ctx.halt();
        }
        fn round(&mut self, _: &mut Context<'_, Token>, _: Inbox<'_, Token>) {}
    }

    #[test]
    fn bandwidth_violation_is_error() {
        let g = dhc_graph::generator::path_graph(2);
        let err = Network::new(&g, Config::default(), vec![Chatty, Chatty]).unwrap_err();
        assert!(matches!(
            err,
            SimError::BandwidthExceeded { from: 0, to: 1, attempted_words: 2, budget_words: 1, .. }
        ));
    }

    #[test]
    fn wider_bandwidth_allows_it() {
        let g = dhc_graph::generator::path_graph(2);
        let net = Network::new(&g, Config::default().with_bandwidth_words(2), vec![Chatty, Chatty]);
        assert!(net.is_ok());
    }

    /// Node 0 never halts and never acts: stall.
    struct Sleeper;
    impl Protocol for Sleeper {
        type Msg = Token;
        fn init(&mut self, ctx: &mut Context<'_, Token>) {
            if ctx.node() != 0 {
                ctx.halt();
            }
        }
        fn round(&mut self, _: &mut Context<'_, Token>, _: Inbox<'_, Token>) {}
    }

    #[test]
    fn stall_detected() {
        let g = dhc_graph::generator::path_graph(2);
        let mut net = Network::new(&g, Config::default(), vec![Sleeper, Sleeper]).unwrap();
        let err = net.run().unwrap_err();
        assert!(matches!(err, SimError::Stalled { unhalted: 1, .. }));
    }

    /// Wakes itself `k` times, then halts.
    struct Timer {
        remaining: usize,
        fired_rounds: Vec<usize>,
    }
    impl Protocol for Timer {
        type Msg = Token;
        fn init(&mut self, ctx: &mut Context<'_, Token>) {
            ctx.wake_in(3);
        }
        fn round(&mut self, ctx: &mut Context<'_, Token>, _: Inbox<'_, Token>) {
            self.fired_rounds.push(ctx.round_number());
            if self.remaining == 0 {
                ctx.halt();
            } else {
                self.remaining -= 1;
                ctx.wake_in(2);
            }
        }
    }

    #[test]
    fn wake_in_schedules_exact_rounds() {
        let g = dhc_graph::Graph::from_edges(1, []).unwrap();
        let mut net =
            Network::new(&g, Config::default(), vec![Timer { remaining: 2, fired_rounds: vec![] }])
                .unwrap();
        net.run().unwrap();
        assert_eq!(net.nodes()[0].fired_rounds, vec![3, 5, 7]);
    }

    #[test]
    fn round_limit_enforced() {
        let g = dhc_graph::Graph::from_edges(1, []).unwrap();
        let mut net = Network::new(
            &g,
            Config::default().with_max_rounds(4),
            vec![Timer { remaining: 100, fired_rounds: vec![] }],
        )
        .unwrap();
        let err = net.run().unwrap_err();
        assert!(matches!(err, SimError::RoundLimitExceeded { max_rounds: 4, unhalted: 1 }));
    }

    #[test]
    fn trace_records_sends_halts_and_wakes() {
        let g = dhc_graph::generator::path_graph(3);
        let cfg = Config::default().with_trace_capacity(100);
        let mut net = Network::new(&g, cfg, flood_nodes(3)).unwrap();
        net.run().unwrap();
        let trace = net.trace();
        let sends = trace.iter().filter(|e| matches!(e, crate::TraceEvent::Sent { .. })).count();
        let halts = trace.iter().filter(|e| matches!(e, crate::TraceEvent::Halted { .. })).count();
        assert_eq!(sends as u64, net.metrics().messages);
        assert_eq!(halts, 3);
        assert_eq!(trace.dropped(), 0);
    }

    #[test]
    fn trace_records_wake_only_activations() {
        let g = dhc_graph::Graph::from_edges(1, []).unwrap();
        let cfg = Config::default().with_trace_capacity(100);
        let mut net =
            Network::new(&g, cfg, vec![Timer { remaining: 1, fired_rounds: vec![] }]).unwrap();
        net.run().unwrap();
        let woke: Vec<usize> = net
            .trace()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Woke { round, node: 0 } => Some(*round),
                _ => None,
            })
            .collect();
        // Scheduled in init for round 3, then again for round 5.
        assert_eq!(woke, vec![3, 5]);
    }

    #[test]
    fn trace_disabled_by_default() {
        let g = dhc_graph::generator::path_graph(2);
        let mut net = Network::new(&g, Config::default(), flood_nodes(2)).unwrap();
        net.run().unwrap();
        assert!(net.trace().is_empty());
    }

    /// Node 1 answers its first delivery with two messages to node 0 in
    /// one round: a bandwidth violation in the round-2 commit fold.
    struct Replier {
        invocations: usize,
    }
    impl Protocol for Replier {
        type Msg = Token;
        fn init(&mut self, ctx: &mut Context<'_, Token>) {
            if ctx.node() == 0 {
                ctx.send(1, Token(0));
            }
        }
        fn round(&mut self, ctx: &mut Context<'_, Token>, inbox: Inbox<'_, Token>) {
            self.invocations += 1;
            if ctx.node() == 1 && !inbox.is_empty() {
                ctx.send(0, Token(1));
                ctx.send(0, Token(2));
            }
        }
    }

    #[test]
    fn step_after_error_does_not_rerun_the_round() {
        let g = dhc_graph::generator::path_graph(2);
        let mut net = Network::new(
            &g,
            Config::default(),
            vec![Replier { invocations: 0 }, Replier { invocations: 0 }],
        )
        .unwrap();
        let err = net.run().unwrap_err();
        assert!(matches!(err, SimError::BandwidthExceeded { from: 1, to: 0, .. }));
        assert_eq!(net.nodes()[1].invocations, 1);
        // The failed round's inboxes were consumed: another step cannot
        // re-deliver them and re-run the callbacks (it stalls instead,
        // exactly like the pre-refactor engine).
        let again = net.step().unwrap_err();
        assert!(matches!(again, SimError::Stalled { .. }), "{again:?}");
        assert_eq!(net.nodes()[1].invocations, 1);
    }

    /// Node 0 floods everyone but node 1 via `send_all_except`; node 2
    /// echoes with interleaved unicast + broadcast ops.
    struct Skipper {
        got: Vec<(NodeId, u64)>,
    }
    impl Protocol for Skipper {
        type Msg = Token;
        fn init(&mut self, ctx: &mut Context<'_, Token>) {
            if ctx.node() == 0 {
                ctx.send_all_except(1, Token(7));
            }
            // Everyone activates in round 1 (and halts there), even the
            // skipped neighbor.
            ctx.wake_in(1);
        }
        fn round(&mut self, ctx: &mut Context<'_, Token>, inbox: Inbox<'_, Token>) {
            for (from, &Token(k)) in inbox.iter() {
                self.got.push((from, k));
            }
            if ctx.node() == 2 && ctx.round_number() == 1 {
                // Interleave: unicast, broadcast, unicast — receivers must
                // see this exact call order from sender 2.
                ctx.send(0, Token(10));
                ctx.send_all(Token(11));
                ctx.send(0, Token(12));
            }
            if ctx.node() == 0 && ctx.round_number() < 2 {
                // The hub stays up one extra round to observe node 2's
                // interleaved ops.
                ctx.stay_awake();
            } else {
                ctx.halt();
            }
        }
    }

    #[test]
    fn send_all_except_skips_exactly_one_neighbor() {
        let g = dhc_graph::generator::star(4); // hub 0, leaves 1..3
        let nodes = (0..4).map(|_| Skipper { got: Vec::new() }).collect();
        let cfg = Config::default().with_bandwidth_words(4).with_trace_capacity(100);
        let mut net = Network::new(&g, cfg, nodes).unwrap();
        net.run().unwrap();
        assert_eq!(net.nodes()[1].got, vec![], "skipped neighbor got the flood");
        assert_eq!(net.nodes()[2].got, vec![(0, 7)]);
        assert_eq!(net.nodes()[3].got, vec![(0, 7)]);
        // Init flood: 2 messages (leaves 2, 3). Round 1: node 2 sends
        // 2 unicasts + 1 broadcast to its single neighbor (the hub).
        assert_eq!(net.metrics().messages, 5);
        let sends =
            net.trace().iter().filter(|e| matches!(e, TraceEvent::Sent { .. })).count() as u64;
        assert_eq!(sends, net.metrics().messages);
    }

    #[test]
    fn interleaved_unicast_and_broadcast_arrive_in_call_order() {
        let g = dhc_graph::generator::star(4);
        let nodes = (0..4).map(|_| Skipper { got: Vec::new() }).collect();
        let cfg = Config::default().with_bandwidth_words(4);
        let mut net = Network::new(&g, cfg, nodes).unwrap();
        net.run().unwrap();
        // Node 2's round-1 ops arrive at the hub in call order, the
        // broadcast merged between the two unicasts by op sequence.
        assert_eq!(net.nodes()[0].got, vec![(2, 10), (2, 11), (2, 12)]);
        assert_eq!(net.metrics().received_per_node[0], 3);
        assert_eq!(net.metrics().sent_per_node, vec![2, 0, 3, 0]);
    }

    /// Two broadcasts in one round exceed the 1-word default budget.
    struct DoubleFlood;
    impl Protocol for DoubleFlood {
        type Msg = Token;
        fn init(&mut self, ctx: &mut Context<'_, Token>) {
            if ctx.node() == 0 {
                ctx.send_all(Token(1));
                ctx.send_all(Token(2));
            }
            ctx.halt();
        }
        fn round(&mut self, _: &mut Context<'_, Token>, _: Inbox<'_, Token>) {}
    }

    #[test]
    fn broadcast_bandwidth_enforced_per_directed_edge() {
        let g = dhc_graph::generator::path_graph(3);
        let err = Network::new(&g, Config::default(), vec![DoubleFlood, DoubleFlood, DoubleFlood])
            .unwrap_err();
        // First violating destination in ascending order is neighbor 1.
        assert!(matches!(
            err,
            SimError::BandwidthExceeded { from: 0, to: 1, attempted_words: 2, budget_words: 1, .. }
        ));
        let g = dhc_graph::generator::path_graph(3);
        let net = Network::new(
            &g,
            Config::default().with_bandwidth_words(2),
            vec![DoubleFlood, DoubleFlood, DoubleFlood],
        )
        .unwrap();
        assert_eq!(net.metrics().max_edge_words, 2);
    }

    /// The broadcast arena holds one payload per flooding op, not per
    /// edge: the flood test above plus this pin the count.
    #[test]
    fn inbox_views_share_one_broadcast_payload() {
        let g = dhc_graph::generator::complete(6);
        let nodes = (0..6).map(|_| Skipper { got: Vec::new() }).collect();
        let cfg = Config::default().with_bandwidth_words(4);
        let mut net = Network::new(&g, cfg, nodes).unwrap();
        net.step().unwrap();
        // Every neighbor of 0 except 1 saw the one arena record.
        let seen: Vec<_> = net.nodes().iter().map(|nd| nd.got.len()).collect();
        assert_eq!(seen, vec![0, 0, 1, 1, 1, 1]);
    }

    /// Records the round of every delivery; node 0 pings node 1 once.
    struct Recorder {
        got: Vec<(usize, NodeId, u64)>,
    }
    impl Protocol for Recorder {
        type Msg = Token;
        fn init(&mut self, ctx: &mut Context<'_, Token>) {
            if ctx.node() == 0 {
                ctx.send(1, Token(9));
            }
            ctx.wake_in(8); // stay reachable long enough to observe late arrivals
        }
        fn round(&mut self, ctx: &mut Context<'_, Token>, inbox: Inbox<'_, Token>) {
            for (from, &Token(k)) in inbox.iter() {
                self.got.push((ctx.round_number(), from, k));
            }
            if ctx.round_number() >= 8 {
                ctx.halt();
            }
        }
    }

    fn recorders(n: usize) -> Vec<Recorder> {
        (0..n).map(|_| Recorder { got: Vec::new() }).collect()
    }

    fn adversary_cfg(adv: crate::Adversary) -> Config {
        Config::default().with_bandwidth_words(4).with_trace_capacity(1000).with_adversary(adv)
    }

    #[test]
    fn certain_drop_loses_the_message_but_charges_the_sender() {
        let g = dhc_graph::generator::path_graph(2);
        let adv = crate::Adversary::seeded(1).with_drop_ppm(crate::adversary::PPM);
        let mut net = Network::new(&g, adversary_cfg(adv), recorders(2)).unwrap();
        net.run().unwrap();
        assert_eq!(net.nodes()[1].got, vec![], "dropped message was delivered");
        // Sender-side accounting is unchanged: the word crossed the edge.
        assert_eq!(net.metrics().messages, 1);
        assert_eq!(net.metrics().sent_per_node[0], 1);
        let drops = net
            .trace()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Dropped { from: 0, to: 1, .. }))
            .count();
        assert_eq!(drops, 1);
    }

    #[test]
    fn certain_duplicate_delivers_two_copies() {
        let g = dhc_graph::generator::path_graph(2);
        let adv = crate::Adversary::seeded(1).with_duplicate_ppm(crate::adversary::PPM);
        let mut net = Network::new(&g, adversary_cfg(adv), recorders(2)).unwrap();
        net.run().unwrap();
        assert_eq!(net.nodes()[1].got, vec![(1, 0, 9), (1, 0, 9)]);
        assert_eq!(net.metrics().messages, 2, "both copies count");
    }

    #[test]
    fn duplicates_respect_the_edge_budget() {
        // Budget 1: the duplicated copy is one word too many.
        let g = dhc_graph::generator::path_graph(2);
        let adv = crate::Adversary::seeded(1).with_duplicate_ppm(crate::adversary::PPM);
        let cfg = Config::default().with_adversary(adv);
        let err = Network::new(&g, cfg, recorders(2)).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::BandwidthExceeded {
                    from: 0,
                    to: 1,
                    attempted_words: 2,
                    budget_words: 1,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn certain_delay_arrives_late() {
        let g = dhc_graph::generator::path_graph(2);
        let adv = crate::Adversary::seeded(1).with_delay(crate::adversary::PPM, 1);
        let mut net = Network::new(&g, adversary_cfg(adv), recorders(2)).unwrap();
        net.run().unwrap();
        // Sent in init (round 0), delayed by exactly 1: arrives round 2
        // instead of round 1.
        assert_eq!(net.nodes()[1].got, vec![(2, 0, 9)]);
        assert!(net
            .trace()
            .iter()
            .any(|e| matches!(e, TraceEvent::Delayed { from: 0, to: 1, until: 2, .. })));
    }

    #[test]
    fn crashed_node_is_suppressed_and_restart_resumes_with_state() {
        // Node 1 down for rounds 1..=3: the init ping vanishes into the
        // crash, the round-8 wake (scheduled in init, surviving the
        // crash) still fires after restart.
        let g = dhc_graph::generator::path_graph(2);
        let adv = crate::Adversary::seeded(0).with_crash(1, 1, Some(4));
        let mut net = Network::new(&g, adversary_cfg(adv), recorders(2)).unwrap();
        net.run().unwrap();
        assert_eq!(net.nodes()[1].got, vec![], "delivery while down must be suppressed");
        let ev = net.trace();
        assert!(ev.iter().any(|e| matches!(e, TraceEvent::Crashed { node: 1, .. })));
        assert!(ev.iter().any(|e| matches!(e, TraceEvent::Restarted { node: 1, round: 4 })));
        // The node ran again after restart: it halted at its round-8 wake.
        assert!(net.is_finished());
    }

    #[test]
    fn crash_forever_turns_quiescence_into_round_limit() {
        // Flood on a path: node 1 crashes before forwarding, the token
        // dies with it, and the run terminates with the typed round-cap
        // outcome instead of hanging or stalling.
        let g = dhc_graph::generator::path_graph(3);
        let adv = crate::Adversary::seeded(0).with_crash(1, 1, None);
        let cfg = Config::default().with_adversary(adv);
        let mut net = Network::new(&g, cfg, flood_nodes(3)).unwrap();
        let err = net.run().unwrap_err();
        assert!(matches!(err, SimError::RoundLimitExceeded { .. }), "{err:?}");
        assert!(!net.nodes()[2].seen);
    }

    #[test]
    fn total_drop_terminates_with_round_limit() {
        let g = dhc_graph::generator::grid(3, 3);
        let adv = crate::Adversary::seeded(2).with_drop_ppm(crate::adversary::PPM);
        let cfg = Config::default().with_adversary(adv);
        let mut net = Network::new(&g, cfg, flood_nodes(9)).unwrap();
        let err = net.run().unwrap_err();
        assert!(matches!(err, SimError::RoundLimitExceeded { .. }), "{err:?}");
    }

    #[test]
    fn null_adversary_is_bit_identical_to_no_adversary() {
        let g = dhc_graph::generator::grid(4, 4);
        let run = |adv: Option<crate::Adversary>| {
            let mut cfg = Config::default().with_trace_capacity(10_000);
            if let Some(adv) = adv {
                cfg = cfg.with_adversary(adv);
            }
            let mut net = Network::new(&g, cfg, flood_nodes(16)).unwrap();
            net.run().unwrap();
            let trace = net.trace().events();
            let (report, _) = net.finish();
            (report.metrics, trace)
        };
        assert_eq!(run(None), run(Some(crate::Adversary::none())));
        assert_eq!(run(None), run(Some(crate::Adversary::seeded(77))));
    }

    #[test]
    fn faulty_runs_identical_at_all_thread_counts() {
        let g = dhc_graph::generator::grid(4, 4);
        let adv = crate::Adversary::seeded(5)
            .with_drop_ppm(200_000)
            .with_duplicate_ppm(150_000)
            .with_delay(200_000, 3)
            .with_crash(3, 2, Some(5));
        let run = |threads: usize| {
            let cfg = Config::default()
                .with_bandwidth_words(4)
                .with_trace_capacity(10_000)
                .with_engine_threads(threads)
                .with_adversary(adv.clone());
            let mut net = Network::new(&g, cfg, recorders(16)).unwrap();
            let outcome = net.run().map_err(|e| format!("{e:?}"));
            let got: Vec<_> = net.nodes().iter().map(|r| r.got.clone()).collect();
            let trace = net.trace().events();
            let (report, _) = net.finish();
            (outcome, got, report.metrics, trace)
        };
        let baseline = run(1);
        for threads in [2, 4, 0] {
            assert_eq!(baseline, run(threads), "diverged at engine_threads = {threads}");
        }
    }

    #[test]
    fn forced_shards_apply_to_every_non_adversarial_round() {
        let g = dhc_graph::generator::grid(4, 4);
        let forced = || Config::default().with_commit_shards(3);
        let clean = Network::new(&g, forced(), flood_nodes(16)).unwrap();
        assert_eq!(clean.commit_shard_count(16), 3);
        assert_eq!(clean.commit_shard_count(0), 0, "empty round sharded");
        // Trace, k-machine layer and collector are fed after the fold,
        // so none of them holds a round back from sharding.
        let traced = Network::new(&g, forced().with_trace_capacity(100), flood_nodes(16)).unwrap();
        assert_eq!(traced.commit_shard_count(16), 3, "traced round not sharded");
        let machines = MachineMap::new((0..16).map(|v| v % 4).collect(), 4);
        let layered = Network::new_with_machines(&g, forced(), flood_nodes(16), machines).unwrap();
        assert_eq!(layered.commit_shard_count(16), 3, "k-machine round not sharded");
        let (observed, _) = observed_cfg(forced());
        let observed = Network::new(&g, observed, flood_nodes(16)).unwrap();
        assert_eq!(observed.commit_shard_count(16), 3, "collector round not sharded");
        // Fate draws keep adversarial rounds on the sequential fold.
        let adv = crate::Adversary::seeded(1).with_drop_ppm(1);
        let faulty = Network::new(&g, forced().with_adversary(adv), flood_nodes(16)).unwrap();
        assert_eq!(faulty.commit_shard_count(16), 0, "adversarial round sharded");
    }

    #[test]
    fn unbounded_delay_is_a_typed_error() {
        // The public fields bypass `with_delay`'s check; construction must
        // refuse the value instead of dividing by zero in a fate draw.
        let g = dhc_graph::generator::path_graph(2);
        let adv = crate::Adversary { delay_ppm: 5, ..crate::Adversary::seeded(1) };
        assert_eq!(adv.max_delay, 0);
        let err =
            Network::new(&g, Config::default().with_adversary(adv), recorders(2)).unwrap_err();
        assert_eq!(err, SimError::InvalidAdversary { delay_ppm: 5 });
        // A zero-probability delay needs no bound.
        let adv = crate::Adversary { drop_ppm: 5, ..crate::Adversary::seeded(1) };
        assert!(Network::new(&g, Config::default().with_adversary(adv), recorders(2)).is_ok());
    }

    /// Node `v` sleeps for `v + 1` rounds, then halts when woken.
    struct Staggered;
    impl Protocol for Staggered {
        type Msg = Token;
        fn init(&mut self, ctx: &mut Context<'_, Token>) {
            ctx.wake_in(ctx.node() as usize + 1);
        }
        fn round(&mut self, ctx: &mut Context<'_, Token>, _: Inbox<'_, Token>) {
            ctx.halt();
        }
    }

    #[test]
    fn engine_memory_words_never_decreases() {
        // The wake heap drains as the nodes halt; its allocation must
        // still count, so a sample after the run is the peak.
        let g = dhc_graph::Graph::from_edges(64, []).unwrap();
        let mut net =
            Network::new(&g, Config::default(), (0..64).map(|_| Staggered).collect()).unwrap();
        let mut last = net.engine_memory_words();
        while !net.is_finished() {
            net.step().unwrap();
            let now = net.engine_memory_words();
            assert!(now >= last, "fell from {last} to {now} words at round {}", net.rounds());
            last = now;
        }
    }

    #[test]
    fn determinism_same_run_twice() {
        let g = dhc_graph::generator::grid(3, 3);
        let run = || {
            let mut net = Network::new(&g, Config::default(), flood_nodes(9)).unwrap();
            net.run().unwrap();
            net.finish().0.metrics
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn engine_threads_do_not_change_results() {
        let g = dhc_graph::generator::grid(4, 4);
        let run = |threads: usize| {
            let cfg = Config::default().with_trace_capacity(10_000).with_engine_threads(threads);
            let mut net = Network::new(&g, cfg, flood_nodes(16)).unwrap();
            net.run().unwrap();
            let trace = net.trace().events();
            let (report, _) = net.finish();
            (report.metrics, trace)
        };
        let baseline = run(1);
        for threads in [2, 4, 0] {
            assert_eq!(baseline, run(threads), "diverged at engine_threads = {threads}");
        }
    }

    /// Builds a shared [`dhc_obs::RunObserver`] and a config carrying it.
    fn observed_cfg(
        cfg: Config,
    ) -> (Config, std::sync::Arc<std::sync::Mutex<dhc_obs::RunObserver>>) {
        let shared = std::sync::Arc::new(std::sync::Mutex::new(dhc_obs::RunObserver::new()));
        let cfg = cfg.with_collector(dhc_obs::CollectorHandle::new(shared.clone()));
        (cfg, shared)
    }

    #[test]
    fn collector_counts_match_metrics() {
        let g = dhc_graph::generator::grid(4, 4);
        let (cfg, shared) = observed_cfg(Config::default());
        let mut net = Network::new(&g, cfg, flood_nodes(16)).unwrap();
        net.run().unwrap();
        let (report, _) = net.finish();
        let obs = shared.lock().unwrap();
        let c = *obs.counters();
        assert_eq!(c.messages, report.metrics.messages);
        assert_eq!(c.max_round, report.metrics.rounds as u64);
        assert_eq!(c.halts, 16);
        // Flood uses send_all: broadcasts, no unicasts.
        assert!(c.broadcast_ops > 0);
        assert_eq!(c.unicast_ops, 0);
        // Deliveries lag sends by a round, so messages still in flight
        // when every node halts are committed but never delivered.
        assert!(c.delivered > 0 && c.delivered <= report.metrics.messages);
        // Round 1's traffic equals node 0's init broadcast degree.
        assert!(obs.round_traffic_hist().count() > 0);
        assert!(obs.inbox_hist().count() > 0);
        assert_eq!(obs.machine_link_hist().count(), 0, "no machine layer attached");
    }

    #[test]
    fn collector_attachment_is_pure_observation() {
        // Attached-vs-detached runs are bit-identical, and the
        // collector's deterministic aggregates are themselves identical
        // at every thread/shard count — clean and adversarial.
        let g = dhc_graph::generator::grid(4, 4);
        let adv = crate::Adversary::seeded(5)
            .with_drop_ppm(200_000)
            .with_duplicate_ppm(150_000)
            .with_delay(200_000, 3)
            .with_crash(3, 2, Some(5));
        for adversary in [None, Some(adv)] {
            let base_cfg = || {
                let mut cfg = Config::default().with_bandwidth_words(4).with_trace_capacity(10_000);
                if let Some(adv) = &adversary {
                    cfg = cfg.with_adversary(adv.clone());
                }
                cfg
            };
            let run = |cfg: Config| {
                let mut net = Network::new(&g, cfg, recorders(16)).unwrap();
                let outcome = net.run().map_err(|e| format!("{e:?}"));
                let got: Vec<_> = net.nodes().iter().map(|r| r.got.clone()).collect();
                let trace = net.trace().events();
                let (report, _) = net.finish();
                (outcome, got, report.metrics, trace)
            };
            let detached = run(base_cfg());
            let mut summaries = Vec::new();
            for (threads, shards) in [(1, 0), (1, 3), (4, 0), (4, 3)] {
                let (cfg, shared) = observed_cfg(
                    base_cfg().with_engine_threads(threads).with_commit_shards(shards),
                );
                assert_eq!(
                    detached,
                    run(cfg),
                    "attached run diverged at threads={threads} shards={shards}"
                );
                summaries.push(shared.lock().unwrap().summary_json().render());
            }
            summaries.dedup();
            assert_eq!(summaries.len(), 1, "collector aggregates diverged across configs");
        }
    }

    /// Broadcasts every round until round 6, then halts — enough
    /// traffic that every configured fate is realized.
    struct Gossip;
    impl Protocol for Gossip {
        type Msg = Token;
        fn init(&mut self, ctx: &mut Context<'_, Token>) {
            ctx.send_all(Token(0));
        }
        fn round(&mut self, ctx: &mut Context<'_, Token>, _inbox: Inbox<'_, Token>) {
            if ctx.round_number() < 6 {
                ctx.send_all(Token(1));
            } else {
                ctx.halt();
            }
        }
    }

    #[test]
    fn collector_sees_fates_crashes_and_machine_links() {
        let g = dhc_graph::generator::grid(4, 4);
        let adv = crate::Adversary::seeded(5)
            .with_drop_ppm(200_000)
            .with_duplicate_ppm(150_000)
            .with_delay(200_000, 3)
            .with_crash(3, 2, Some(5));
        let (cfg, shared) =
            observed_cfg(Config::default().with_bandwidth_words(4).with_adversary(adv));
        let machines = MachineMap::new((0..16).map(|v| v % 4).collect(), 4);
        let nodes: Vec<Gossip> = (0..16).map(|_| Gossip).collect();
        let mut net = Network::new_with_machines(&g, cfg, nodes, machines).unwrap();
        let _ = net.run();
        let obs = shared.lock().unwrap();
        let c = obs.counters();
        assert!(c.dropped > 0, "drop adversary produced no observed drops");
        assert!(c.duplicated > 0);
        assert!(c.delayed > 0);
        assert_eq!(c.crashes, 1);
        assert_eq!(c.restarts, 1);
        assert!(obs.machine_link_hist().count() > 0, "machine layer produced no link loads");
    }

    /// What the observers recorded in one run: the outcome, the exact
    /// trace, and the k-machine log field by field — rounds, `[intra
    /// words, cross transfers]`, per-machine sent and received words.
    type Observation =
        (Result<(), SimError>, Vec<TraceEvent>, Vec<MachineRound>, [u64; 2], Vec<u64>, Vec<u64>);

    fn observe<P: Protocol>(g: &Graph, cfg: Config, nodes: Vec<P>, map: Vec<usize>) -> Observation {
        let k = map.iter().max().map_or(1, |&m| m + 1);
        let mut net = Network::new_with_machines(g, cfg, nodes, MachineMap::new(map, k)).unwrap();
        let outcome = net.run();
        let trace = net.trace().events();
        let log = net.finish().0.machine_log.expect("machine layer attached");
        let (m, volume) = (log.finalize(1), [log.intra_words(), log.cross_messages()]);
        (outcome, trace, log.rounds().to_vec(), volume, m.machine_sent_words, m.machine_recv_words)
    }

    /// Scripted rounds: `script(node, round, ctx)` acts for every
    /// activation, `init` included; every node starts with a wake-up.
    struct Script(fn(NodeId, usize, &mut Context<'_, Token>));
    impl Protocol for Script {
        type Msg = Token;
        fn init(&mut self, ctx: &mut Context<'_, Token>) {
            (self.0)(ctx.node(), 0, ctx);
        }
        fn round(&mut self, ctx: &mut Context<'_, Token>, _: Inbox<'_, Token>) {
            (self.0)(ctx.node(), ctx.round_number(), ctx);
        }
    }

    fn scripts(n: usize, f: fn(NodeId, usize, &mut Context<'_, Token>)) -> Vec<Script> {
        (0..n).map(|_| Script(f)).collect()
    }

    #[test]
    fn observers_record_exactly_the_committed_rounds() {
        use TraceEvent::{Delayed, Dropped, Duplicated, Halted, WakeScheduled, Woke};
        let s = |round, from, to| TraceEvent::Sent { round, from, to, words: 1 };
        let h = |round, node| Halted { round, node };
        let w = |round, node, target| WakeScheduled { round, node, target };
        let k = |round, node| Woke { round, node };
        let mr = |round, links: &[(u32, u64)]| MachineRound { round, links: links.to_vec() };
        for shards in [0, 2] {
            let cfg = || Config::default().with_trace_capacity(100).with_commit_shards(shards);

            // Node 0 interleaves a unicast, a broadcast and a skip-one
            // broadcast, then sleeps to round 3; node 2 answers with a
            // unicast and a broadcast; the rest halt when reached.
            // Machines {0, 3} and {1, 2}.
            let g = dhc_graph::generator::star(4);
            let nodes = scripts(4, |v, r, ctx| match (v, r) {
                (0, 0) => {
                    ctx.send(1, Token(0));
                    ctx.send_all(Token(1));
                    ctx.send_all_except(2, Token(2));
                    ctx.wake_in(3);
                }
                (0, 1..=2) | (_, 0) => {}
                (2, 1) => {
                    ctx.send(0, Token(3));
                    ctx.send_all(Token(4));
                    ctx.halt();
                }
                _ => ctx.halt(),
            });
            let got = observe(&g, cfg().with_bandwidth_words(4), nodes, vec![0, 1, 1, 0]);
            let init = [s(0, 0, 1), s(0, 0, 1), s(0, 0, 2), s(0, 0, 3), s(0, 0, 1), s(0, 0, 3)];
            let later = [h(1, 1), s(1, 2, 0), s(1, 2, 0), h(1, 2), h(1, 3), k(3, 0), h(3, 0)];
            let trace = [&init[..], &[w(0, 0, 3)], &later].concat();
            let rounds = vec![mr(0, &[(1, 3)]), mr(1, &[(2, 2)]), mr(2, &[]), mr(3, &[])];
            let want = (Ok(()), trace, rounds, [2, 5], vec![3, 2], vec![2, 3]);
            assert_eq!(got, want, "shards {shards}");

            // Certain drop, duplicate and delay: node 1 sends a unicast
            // and a broadcast in init; every node sleeps to round 4. The
            // machine layer charges per copy. Machines {0} and {1, 2}.
            let g = dhc_graph::generator::path_graph(3);
            let ppm = crate::adversary::PPM;
            let adversaries = [
                crate::Adversary::seeded(1).with_drop_ppm(ppm),
                crate::Adversary::seeded(1).with_duplicate_ppm(ppm),
                crate::Adversary::seeded(1).with_delay(ppm, 1),
            ];
            for (i, adv) in adversaries.into_iter().enumerate() {
                let nodes = scripts(3, |v, r, ctx| match (v, r) {
                    (_, 4) => ctx.halt(),
                    (1, 0) => {
                        ctx.send(0, Token(0));
                        ctx.send_all(Token(1));
                        ctx.wake_in(4);
                    }
                    (_, 0) => ctx.wake_in(4),
                    _ => {}
                });
                let cfg = cfg().with_bandwidth_words(4).with_adversary(adv);
                let got = observe(&g, cfg, nodes, vec![0, 1, 1]);
                let f = |to| match i {
                    0 => Dropped { round: 0, from: 1, to },
                    1 => Duplicated { round: 0, from: 1, to },
                    _ => Delayed { round: 0, from: 1, to, until: 2 },
                };
                let mut trace = vec![w(0, 0, 4), s(0, 1, 0), f(0), s(0, 1, 0), f(0), s(0, 1, 2)];
                trace.extend([f(2), w(0, 1, 4), w(0, 2, 4)]);
                trace.extend((0..3).map(|v| k(4, v)).chain((0..3).map(|v| h(4, v))));
                let c = if i == 1 { 2 } else { 1 };
                let mid = [vec![], vec![mr(1, &[])], vec![mr(2, &[])]][i].clone();
                let rounds = [vec![mr(0, &[(2, 2 * c)])], mid, vec![mr(4, &[])]].concat();
                let want = (Ok(()), trace, rounds, [c, 2 * c], vec![0, 2 * c], vec![2 * c, 0]);
                assert_eq!(got, want, "adversary {i}, shards {shards}");
            }

            // Every node wakes in round 1, where node 2 overdraws its edge
            // mid-list: the observers hold exactly nodes 0 and 1's
            // round-1 events, and the failed round is never closed in the
            // machine log. Machines {0, 1} and {2, 3}.
            let g = dhc_graph::generator::path_graph(4);
            let nodes = scripts(4, |v, r, ctx| match (v, r) {
                (_, 0) => ctx.wake_in(1),
                (0, _) => {
                    ctx.send(1, Token(0));
                    ctx.halt();
                }
                (1, _) => {
                    ctx.send_all(Token(1));
                    ctx.stay_awake();
                }
                (2, _) => {
                    ctx.send(1, Token(2));
                    ctx.send(1, Token(3));
                }
                _ => ctx.send(2, Token(4)),
            });
            let got = observe(&g, cfg(), nodes, vec![0, 0, 1, 1]);
            let mut trace: Vec<_> = (0..4).map(|v| w(0, v, 1)).collect();
            trace.extend((0..4).map(|v| k(1, v)));
            trace.extend([s(1, 0, 1), h(1, 0), s(1, 1, 0), s(1, 1, 2), w(1, 1, 2)]);
            let (from, to, attempted_words, budget_words) = (2, 1, 2, 1);
            let err =
                SimError::BandwidthExceeded { from, to, round: 1, attempted_words, budget_words };
            let want = (Err(err), trace, vec![mr(0, &[])], [2, 1], vec![1, 0], vec![0, 1]);
            assert_eq!(got, want, "shards {shards}");
        }
    }
}

//! Property tests pinning the **sharded parallel commit fold** against
//! the sequential fold bit-for-bit: outcomes (including typed
//! failures), [`Metrics`] and per-node activation logs must be identical
//! for every forced `commit_shards` count, on a single-threaded engine
//! (shards run inline) and across the worker pool alike.
//!
//! Every round without an active adversary shards: trace, k-machine
//! layer and collector are fed after the fold by one observation walk,
//! so the traced k-machine case pins sharded folds — trace order and
//! link loads included — against the sequential fold. The adversarial
//! case forces `commit_shards` too and pins that such rounds keep the
//! sequential fold's fault schedule unchanged.

use dhc_congest::{
    Adversary, Config, Context, Inbox, MachineMap, MachineRoundLog, Metrics, Network, NodeId,
    Payload, Protocol, TraceEvent,
};
use proptest::prelude::*;
use std::collections::VecDeque;

#[derive(Clone, Debug)]
struct Ping;
impl Payload for Ping {}

/// One scripted action: `(wake delta, send to left ring neighbor, send
/// to right ring neighbor, broadcast to both)`. A node consumes one
/// action per activation and halts once its script is exhausted.
type Step = (usize, bool, bool, bool);

#[derive(Debug)]
struct Scripted {
    id: NodeId,
    script: VecDeque<Step>,
    /// `(round, inbox len)` per activation.
    activations: Vec<(usize, usize)>,
    halt_round: Option<usize>,
}

impl Protocol for Scripted {
    type Msg = Ping;

    fn init(&mut self, ctx: &mut Context<'_, Ping>) {
        if self.script.is_empty() {
            self.halt_round = Some(0);
            ctx.halt();
        } else {
            ctx.wake_in((1 + self.id % 3) as usize);
        }
    }

    fn round(&mut self, ctx: &mut Context<'_, Ping>, inbox: Inbox<'_, Ping>) {
        let r = ctx.round_number();
        self.activations.push((r, inbox.len()));
        match self.script.pop_front() {
            Some((delta, left, right, bcast)) => {
                let n = ctx.n();
                if left {
                    ctx.send((self.id + (n) as u32 - 1) % (n) as u32, Ping);
                }
                if right {
                    ctx.send((self.id + 1) % (n) as u32, Ping);
                }
                if bcast {
                    ctx.send_all(Ping);
                }
                ctx.wake_in(delta);
            }
            None => {
                self.halt_round = Some(r);
                ctx.halt();
            }
        }
    }
}

/// Everything observable about one run, for bit-for-bit comparison.
type Observed = (
    Result<(), String>,
    Metrics,
    Vec<TraceEvent>,
    Vec<(Vec<(usize, usize)>, Option<usize>)>,
    Option<MachineRoundLog>,
);

/// Runs the scripts on a ring with the given engine settings and a
/// 1 000 000-event trace; `None` shards means "leave auto mode" (the
/// sequential baseline at 1 thread). `machines` attaches the k-machine
/// layer, `adversary` the fault layer.
fn run_scripts(
    scripts: &[Vec<Step>],
    threads: usize,
    shards: Option<usize>,
    machines: bool,
    adversary: Option<Adversary>,
) -> Observed {
    run_scripts_traced(scripts, threads, shards, machines, adversary, 1_000_000)
}

/// [`run_scripts`] with the trace capacity given (`0` disables tracing).
fn run_scripts_traced(
    scripts: &[Vec<Step>],
    threads: usize,
    shards: Option<usize>,
    machines: bool,
    adversary: Option<Adversary>,
    trace_capacity: usize,
) -> Observed {
    let n = scripts.len();
    let g = dhc_graph::generator::cycle_graph(n);
    let nodes: Vec<Scripted> = scripts
        .iter()
        .enumerate()
        .map(|(v, s)| Scripted {
            id: (v) as u32,
            script: s.clone().into(),
            activations: Vec::new(),
            halt_round: None,
        })
        .collect();
    let mut cfg = Config::default()
        .with_bandwidth_words(4)
        .with_trace_capacity(trace_capacity)
        .with_engine_threads(threads);
    if let Some(s) = shards {
        cfg = cfg.with_commit_shards(s);
    }
    if let Some(adv) = adversary {
        cfg = cfg.with_adversary(adv);
    }
    // The scripted init never sends, so construction cannot fault.
    let mut net = if machines {
        let k = 3.min(n);
        let map = MachineMap::new((0..n).map(|v| v % k).collect(), k);
        Network::new_with_machines(&g, cfg, nodes, map).expect("init cannot fault")
    } else {
        Network::new(&g, cfg, nodes).expect("init cannot fault")
    };
    let outcome = net.run().map_err(|e| format!("{e:?}"));
    let trace = net.trace().events();
    let (report, nodes) = net.finish();
    let logs = nodes.into_iter().map(|nd| (nd.activations, nd.halt_round)).collect();
    (outcome, report.metrics, trace, logs, report.machine_log)
}

/// The shard counts every case is pinned at: degenerate single shard,
/// even splits, and a count usually exceeding the active set.
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Detached engine — no trace, no k-machine layer, no adversary:
    /// forced sharding at every count, inline and pooled, equals the
    /// sequential fold.
    #[test]
    fn sharded_commit_equals_sequential_untraced(
        scripts in prop::collection::vec(
            prop::collection::vec(
                (1usize..5, any::<bool>(), any::<bool>(), any::<bool>()),
                0..6,
            ),
            3..9,
        ),
    ) {
        let baseline = run_scripts_traced(&scripts, 1, None, false, None, 0);
        for shards in SHARD_COUNTS {
            for threads in [1, 2] {
                let got = run_scripts_traced(&scripts, threads, Some(shards), false, None, 0);
                prop_assert_eq!(
                    &baseline, &got,
                    "diverged at commit_shards = {}, engine_threads = {}", shards, threads
                );
            }
        }
    }

    /// Traced engine + k-machine layer: these rounds shard too, and the
    /// sharded fold at every forced count, inline and pooled, yields the
    /// sequential fold's results, trace events and machine log.
    #[test]
    fn sharded_commit_equals_sequential(
        scripts in prop::collection::vec(
            prop::collection::vec(
                (1usize..5, any::<bool>(), any::<bool>(), any::<bool>()),
                0..6,
            ),
            3..9,
        ),
    ) {
        let baseline = run_scripts(&scripts, 1, None, true, None);
        for shards in SHARD_COUNTS {
            for threads in [1, 2] {
                let got = run_scripts(&scripts, threads, Some(shards), true, None);
                prop_assert_eq!(
                    &baseline, &got,
                    "diverged at commit_shards = {}, engine_threads = {}", shards, threads
                );
            }
        }
    }

    /// Faulty engine: forcing `commit_shards` keeps the sequential
    /// commit's fate schedule, so outcomes, traces, and realized
    /// drops/duplicates/delays/crashes stay identical.
    #[test]
    fn sharded_commit_equals_sequential_under_adversary(
        scripts in prop::collection::vec(
            prop::collection::vec(
                (1usize..5, any::<bool>(), any::<bool>(), any::<bool>()),
                0..6,
            ),
            3..9,
        ),
        fault_seed in 0u64..1_000,
    ) {
        let adv = Adversary::seeded(fault_seed)
            .with_drop_ppm(150_000)
            .with_duplicate_ppm(100_000)
            .with_delay(150_000, 2)
            .with_crash(1, 2, Some(5));
        let baseline = run_scripts(&scripts, 1, None, false, Some(adv.clone()));
        for shards in SHARD_COUNTS {
            for threads in [1, 2] {
                let got = run_scripts(&scripts, threads, Some(shards), false, Some(adv.clone()));
                prop_assert_eq!(
                    &baseline, &got,
                    "diverged at commit_shards = {}, engine_threads = {}", shards, threads
                );
            }
        }
    }
}

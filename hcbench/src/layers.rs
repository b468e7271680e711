//! The traced run's collector and the per-layer figures of one call.
//!
//! The collector only listens: it records the runners' existing span
//! closes (`phase`, `class`, `merge-level`) and timestamps every
//! `on_round`. Round gaps are kept per thread, so Phase-1 classes that
//! run concurrently on pool workers do not interleave their rounds.

use std::collections::HashMap;
use std::thread::ThreadId;
use std::time::Instant;

use dhc::core::RunOutcome;
use dhc::obs::{Collector, RoundObs, SpanClose, SpanObs};

use crate::Algo;

/// One closed span.
struct Closed {
    kind: &'static str,
    label: String,
    wall_s: f64,
    rounds: u64,
    messages: u64,
}

/// Per-thread round clock: the last event time and the node count the
/// thread's current network scans each round.
struct Lane {
    last: Instant,
    scan: usize,
}

/// Records span closes and per-round engine figures of one runner call.
pub struct LayerCollector {
    n: usize,
    lanes: HashMap<ThreadId, Lane>,
    closed: Vec<Closed>,
    round_ns: Vec<u64>,
    executed: Vec<u64>,
    messages: Vec<u64>,
    executed_sum: u64,
    scanned_sum: u64,
    broadcast_ops: u64,
    unicast_ops: u64,
    wakes: u64,
    single_node_gap_ns: u64,
}

impl LayerCollector {
    /// A collector for a call on an `n`-node graph.
    pub fn new(n: usize) -> Self {
        LayerCollector {
            n,
            lanes: HashMap::new(),
            closed: Vec::new(),
            round_ns: Vec::new(),
            executed: Vec::new(),
            messages: Vec::new(),
            executed_sum: 0,
            scanned_sum: 0,
            broadcast_ops: 0,
            unicast_ops: 0,
            wakes: 0,
            single_node_gap_ns: 0,
        }
    }
}

impl Collector for LayerCollector {
    fn on_round(&mut self, round: &RoundObs<'_>) {
        let now = Instant::now();
        let n = self.n;
        let lane =
            self.lanes.entry(std::thread::current().id()).or_insert(Lane { last: now, scan: n });
        let gap = now.duration_since(lane.last).as_nanos() as u64;
        lane.last = now;
        // Round 0 is `init`; its gap holds the network's construction.
        if round.round == 0 {
            return;
        }
        self.round_ns.push(gap);
        self.executed.push(round.executed as u64);
        self.messages.push(round.messages);
        self.executed_sum += round.executed as u64;
        self.scanned_sum += lane.scan as u64;
        self.broadcast_ops += round.broadcast_ops;
        self.unicast_ops += round.unicast_ops;
        self.wakes += round.wakes_scheduled;
        if round.executed == 1 {
            self.single_node_gap_ns = self.single_node_gap_ns.max(gap);
        }
    }

    fn on_span_open(&mut self, span: &SpanObs) {
        // A class network scans its members; every other network the
        // runners build spans the whole graph.
        let scan = match span.kind {
            "class" => class_size(&span.label).unwrap_or(self.n),
            _ => self.n,
        };
        self.lanes.insert(std::thread::current().id(), Lane { last: Instant::now(), scan });
    }

    fn on_span_close(&mut self, span: &SpanObs, close: &SpanClose) {
        self.closed.push(Closed {
            kind: span.kind,
            label: span.label.clone(),
            wall_s: close.wall_ns as f64 * 1e-9,
            rounds: close.rounds,
            messages: close.messages,
        });
    }
}

/// The member count in a class span label (`"class 3 n=120"`).
fn class_size(label: &str) -> Option<usize> {
    label.rsplit_once("n=").and_then(|(_, v)| v.trim().parse().ok())
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
fn percentile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Per-layer metric names and units, in report order. The traced call's
/// figures come back from [`call_layers`] in this order.
pub const CALL_LAYERS: &[(&str, &str)] = &[
    ("phase1.wall_s", "s"),
    ("phase1.rounds", "count"),
    ("phase1.messages", "count"),
    ("phase1.classes", "count"),
    ("phase1.class_wall_max_s", "s"),
    ("phase1.class_wall_sum_s", "s"),
    ("phase1.pool_util", "ratio"),
    ("merge.wall_s", "s"),
    ("merge.levels", "count"),
    ("merge.rounds", "count"),
    ("merge.messages", "count"),
    ("merge.round_ms", "ms"),
    ("merge.top_level_s", "s"),
    ("stitch.wall_s", "s"),
    ("stitch.rounds", "count"),
    ("stitch.messages", "count"),
    ("stitch.round_ms", "ms"),
    ("upcast.wall_s", "s"),
    ("upcast.rounds", "count"),
    ("rotation.root_solve_s", "s"),
    ("engine.round_us_p50", "us"),
    ("engine.round_us_p99", "us"),
    ("engine.executed_p50", "count"),
    ("engine.msgs_per_round_p50", "count"),
    ("engine.broadcast_ops", "count"),
    ("engine.unicast_ops", "count"),
    ("engine.wakes", "count"),
    ("engine.active_frac", "ratio"),
    ("engine.peak_words", "words"),
    ("run.traced_wall_s", "s"),
    ("run.residual_s", "s"),
];

/// The per-layer figures of one traced call, in [`CALL_LAYERS`] order.
/// `wall_s` is the call's own wall time; `workers` the Phase-1 pool size.
pub fn call_layers(
    mut c: LayerCollector,
    algo: Algo,
    outcome: &RunOutcome,
    wall_s: f64,
    workers: usize,
) -> Vec<f64> {
    let phase =
        |prefix: &str| c.closed.iter().find(|s| s.kind == "phase" && s.label.starts_with(prefix));
    let (p1_wall, p1_rounds, p1_msgs) =
        phase("phase1").map_or((0.0, 0, 0), |s| (s.wall_s, s.rounds, s.messages));
    let classes: Vec<f64> =
        c.closed.iter().filter(|s| s.kind == "class").map(|s| s.wall_s).collect();
    let class_max = classes.iter().copied().fold(0.0, f64::max);
    let class_sum: f64 = classes.iter().sum();
    let pool_util = if p1_wall > 0.0 { class_sum / (workers as f64 * p1_wall) } else { 0.0 };

    let levels: Vec<&Closed> = c.closed.iter().filter(|s| s.kind == "merge-level").collect();
    let merge_wall: f64 = levels.iter().map(|s| s.wall_s).sum();
    let merge_rounds: u64 = levels.iter().map(|s| s.rounds).sum();
    let merge_msgs: u64 = levels.iter().map(|s| s.messages).sum();
    let top_level = levels.last().map_or(0.0, |s| s.wall_s);

    let (st_wall, st_rounds, st_msgs) =
        phase("hypernode-stitch").map_or((0.0, 0, 0), |s| (s.wall_s, s.rounds, s.messages));
    let (up_wall, up_rounds) = phase("upcast").map_or((0.0, 0), |s| (s.wall_s, s.rounds));
    let root_solve = match algo {
        Algo::Upcast => c.single_node_gap_ns as f64 * 1e-9,
        _ => 0.0,
    };
    let per_round_ms = |wall: f64, rounds: u64| {
        if rounds > 0 {
            wall * 1e3 / rounds as f64
        } else {
            0.0
        }
    };
    let active_frac =
        if c.scanned_sum > 0 { c.executed_sum as f64 / c.scanned_sum as f64 } else { 0.0 };
    let residual = wall_s - (p1_wall + merge_wall + st_wall + up_wall);

    vec![
        p1_wall,
        p1_rounds as f64,
        p1_msgs as f64,
        classes.len() as f64,
        class_max,
        class_sum,
        pool_util,
        merge_wall,
        levels.len() as f64,
        merge_rounds as f64,
        merge_msgs as f64,
        per_round_ms(merge_wall, merge_rounds),
        top_level,
        st_wall,
        st_rounds as f64,
        st_msgs as f64,
        per_round_ms(st_wall, st_rounds),
        up_wall,
        up_rounds as f64,
        root_solve,
        percentile(&mut c.round_ns, 0.50) * 1e-3,
        percentile(&mut c.round_ns, 0.99) * 1e-3,
        percentile(&mut c.executed, 0.50),
        percentile(&mut c.messages, 0.50),
        c.broadcast_ops as f64,
        c.unicast_ops as f64,
        c.wakes as f64,
        active_frac,
        outcome.metrics.peak_memory_words() as f64,
        wall_s,
        residual,
    ]
}

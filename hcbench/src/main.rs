//! End-to-end and per-layer benchmark of the distributed Hamiltonian-cycle
//! runners (`run_dhc2`, `run_dhc1`, `run_upcast`). See `README.md` in
//! this directory for the workloads and the layer → metric map.
//!
//! ```text
//! hcbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod host;
mod layers;

use std::process::ExitCode;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use dhc::core::{run_dhc1, run_dhc2, run_upcast, DhcConfig, DhcError, RunOutcome};
use dhc::graph::cycle::is_hamiltonian_cycle;
use dhc::graph::rng::{derive_seed, rng_from_seed};
use dhc::graph::{generator, thresholds, Graph, Partition, PartitionedGraph};
use dhc::obs::CollectorHandle;
use dhc_bench::workload::theorem_scale;

use layers::{call_layers, LayerCollector, CALL_LAYERS};

/// The public runner a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Dhc2,
    Dhc1,
    Upcast,
}

/// One named workload: the runner, its `G(n, c ln n / n^δ)` operating
/// point, and its thread settings.
struct Workload {
    name: &'static str,
    algo: Algo,
    n: usize,
    delta: f64,
    c: f64,
    /// Phase-1 classes of about this many nodes (`n / class_size`
    /// classes) instead of the δ-derived `n^{1-δ}`.
    class_size: Option<usize>,
    /// Phase-1 worker threads (`DhcConfig::with_parallelism`).
    pool: usize,
    /// Round-engine threads (`DhcConfig::with_engine_threads`).
    engine: usize,
    /// Graphs made from the seed; the run calls each at least once.
    instances: usize,
    /// Node count under `--smoke`.
    smoke_n: usize,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "dhc2-sparse",
        algo: Algo::Dhc2,
        n: 1024,
        delta: 0.75,
        c: 8.0,
        class_size: None,
        pool: 2,
        engine: 1,
        instances: 15,
        smoke_n: 512,
    },
    Workload {
        name: "dhc2-dense",
        algo: Algo::Dhc2,
        n: 1024,
        delta: 0.5,
        c: 4.5,
        class_size: Some(48),
        pool: 1,
        engine: 2,
        instances: 16,
        smoke_n: 256,
    },
    Workload {
        name: "dhc1-stitch",
        algo: Algo::Dhc1,
        n: 1024,
        delta: 0.5,
        c: 4.5,
        class_size: Some(48),
        pool: 1,
        engine: 2,
        instances: 18,
        smoke_n: 256,
    },
    Workload {
        name: "upcast-sparse",
        algo: Algo::Upcast,
        n: 8192,
        delta: 1.0,
        c: 8.0,
        class_size: None,
        pool: 1,
        engine: 1,
        instances: 15,
        smoke_n: 512,
    },
];

const DEFAULT_SEED: u64 = 20180424;
const USAGE: &str =
    "usage: hcbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]";
/// The partition timing repeats `Partition::random` +
/// `PartitionedGraph::new` this often.
const PARTITION_REPS: usize = 5;
/// Instances generated under `--smoke`.
const SMOKE_INSTANCES: usize = 2;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
            (None, DEFAULT_SEED, 10.0, false, false);
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        WORKLOADS
                            .iter()
                            .find(|w| w.name == value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args { workload, seed, seconds, trace, smoke })
    }
}

/// Simulated counts of one successful call; identical on every
/// repetition of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sim {
    rounds: u64,
    messages: u64,
    words: u64,
    max_node_msgs: u64,
}

/// One timed runner call.
struct Call {
    wall_s: f64,
    cpu_s: f64,
}

/// The run keeps one graph in memory at a time: each call (or traced
/// pair) sets up by generating its instance's graph from the seed,
/// outside the call's timing. So `peak_rss_mb` follows the runner rather
/// than a stock of graphs, and the set-up times are spread over the whole
/// run rather than taken in one burst at its start.
struct Bench {
    w: &'static Workload,
    n: usize,
    p: f64,
    seed: u64,
    pool: usize,
    engine: usize,
    /// Edge count of each instance's graph, once generated.
    edges: Vec<Option<usize>>,
    cfgs: Vec<DhcConfig>,
    /// The time of every `gnp` call made so far. `setup_s` is their
    /// mean: the host alternates between two speeds for seconds at a
    /// time, and a median of samples from such a mix jumps between the
    /// two as the mix crosses one half, while the mean follows it.
    setup_s: Vec<f64>,
    /// The first outcome of each instance; later calls must repeat it.
    first: Vec<Option<Result<Sim, String>>>,
    violations: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Bench {
    /// The instances' runner configurations, made from `seed`; their
    /// graphs are generated call by call.
    fn new(w: &'static Workload, seed: u64, smoke: bool) -> Bench {
        let n = if smoke { w.smoke_n } else { w.n };
        let nproc = host::nproc();
        let (pool, engine) = (w.pool.min(nproc), w.engine.min(nproc));
        let instances = if smoke { SMOKE_INSTANCES } else { w.instances };
        let cfgs = (0..instances)
            .map(|i| {
                let cfg = DhcConfig::new(derive_seed(seed, 2 * i as u64 + 1))
                    .with_delta(w.delta)
                    .with_parallelism(pool)
                    .with_engine_threads(engine);
                match w.class_size {
                    Some(size) => cfg.with_partitions((n / size).max(1)),
                    None => cfg,
                }
            })
            .collect();
        Bench {
            w,
            n,
            p: thresholds::edge_probability(n, w.delta, w.c),
            seed,
            pool,
            engine,
            edges: vec![None; instances],
            cfgs,
            setup_s: Vec::new(),
            first: vec![None; instances],
            violations: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Sets up instance `i`: generates its graph from the seed, timing
    /// the generation.
    fn graph(&mut self, i: usize) -> Graph {
        let start = Instant::now();
        let g = generator::gnp(self.n, self.p, &mut rng_from_seed(graph_seed(self.seed, i)))
            .expect("edge_probability lies in [0, 1], which gnp accepts");
        self.setup_s.push(start.elapsed().as_secs_f64());
        self.edges[i] = Some(g.edge_count());
        g
    }

    /// Runs instance `i` (graph `g`) once under `cfg`, timing only the
    /// runner call, then checks its output.
    fn call(&mut self, g: &Graph, i: usize, cfg: &DhcConfig) -> (Call, Option<RunOutcome>) {
        let cpu0 = host::process_cpu_s();
        let start = Instant::now();
        let result = match self.w.algo {
            Algo::Dhc2 => run_dhc2(g, cfg),
            Algo::Dhc1 => run_dhc1(g, cfg),
            Algo::Upcast => run_upcast(g, cfg),
        };
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = host::process_cpu_s() - cpu0;
        self.check(g, i, &result);
        (Call { wall_s, cpu_s }, result.ok())
    }

    /// Verifies the cycle against the generated graph and requires the
    /// outcome to repeat that of the instance's first call exactly. A
    /// runner error is a whp failure: counted, never retried.
    fn check(&mut self, g: &Graph, i: usize, result: &Result<RunOutcome, DhcError>) {
        self.attempted += 1;
        let now = match result {
            Ok(out) => {
                let order = out.cycle.order();
                if order.len() != self.n || !is_hamiltonian_cycle(g, order) {
                    self.violations.push(format!("instance {i}: cycle is not Hamiltonian"));
                }
                let m = &out.metrics;
                Ok(Sim {
                    rounds: m.rounds as u64,
                    messages: m.messages,
                    words: m.words,
                    max_node_msgs: m.sent_per_node.iter().copied().max().unwrap_or(0),
                })
            }
            Err(e) => {
                self.failed += 1;
                if self.first[i].is_none() {
                    eprintln!("hcbench: instance {i} failed: {e}");
                }
                Err(e.to_string())
            }
        };
        match &self.first[i] {
            None => self.first[i] = Some(now),
            Some(first) if *first != now => self
                .violations
                .push(format!("instance {i}: outcome {now:?} differs from first call {first:?}")),
            Some(_) => {}
        }
    }

    fn mean_edges(&self) -> f64 {
        mean(&self.edges.iter().flatten().map(|&e| e as f64).collect::<Vec<_>>())
    }

    /// Untraced calls for `seconds`: every instance once, one
    /// repetition, then round-robin while another call fits. Returns the
    /// end-to-end metrics; `peak_rss_mb` is the high-water RSS of these
    /// calls alone where the kernel lets the mark be reset before them.
    fn untraced(&mut self, seconds: f64) -> Vec<Metric> {
        let k = self.cfgs.len();
        let mut calls: Vec<Vec<Call>> = (0..k).map(|_| Vec::new()).collect();
        host::reset_peak_rss();
        let start = Instant::now();
        let mut done = 0;
        while another(start, done, k + 1, seconds) {
            let i = done % k;
            let (g, cfg) = (self.graph(i), self.cfgs[i].clone());
            calls[i].push(self.call(&g, i, &cfg).0);
            done += 1;
        }
        // Each instance's median call, then the mean over instances: every
        // instance weighs the same however often it ran, and one disturbed
        // call of an instance that ran three times or more does not move
        // the result. The mean rather than the median over instances: a
        // call's cost varies from graph to graph (heavy-tailed on the
        // stitch), and a median over ~16 graphs jumps between them from
        // seed to seed.
        let per_instance = |f: fn(&Call) -> f64| -> Vec<f64> {
            calls.iter().map(|c| median(&c.iter().map(f).collect::<Vec<_>>())).collect()
        };
        let (wall, cpu) = (per_instance(|c| c.wall_s), per_instance(|c| c.cpu_s));
        let ok: Vec<(Sim, f64)> = self
            .first
            .iter()
            .zip(&wall)
            .filter_map(|(f, &w)| Some((f.clone()?.ok()?, w)))
            .collect();
        let med =
            |f: fn(&Sim) -> u64| median(&ok.iter().map(|(s, _)| f(s) as f64).collect::<Vec<_>>());
        let rate = ok.iter().map(|(s, _)| s.messages as f64).sum::<f64>()
            / ok.iter().map(|(_, w)| w).sum::<f64>();
        let rounds = med(|s| s.rounds);
        let succeeded = self.attempted - self.failed;
        vec![
            Metric::new("setup_s", "s", mean(&self.setup_s)),
            Metric::new("wall_s", "s", mean(&wall)),
            Metric::new("cpu_s", "s", mean(&cpu)),
            Metric::new("sim_msgs_per_s", "1/s", rate),
            Metric::new("peak_rss_mb", "MiB", host::peak_rss_mb()),
            Metric::new("rounds", "count", rounds),
            Metric::new("messages", "count", med(|s| s.messages)),
            Metric::new("words", "count", med(|s| s.words)),
            Metric::new("rounds_norm", "ratio", rounds / theorem_scale(self.n, self.w.delta)),
            Metric::new("max_node_msgs", "count", med(|s| s.max_node_msgs)),
            Metric::new("success_rate", "ratio", succeeded as f64 / self.attempted as f64),
        ]
    }

    /// Untraced/traced call pairs for `seconds`, round-robin over the
    /// instances; returns the per-layer metrics and prints the per-layer
    /// table.
    fn traced(&mut self, seconds: f64) -> Vec<Metric> {
        let partition_s = self.time_partition();
        let k = self.cfgs.len();
        let mut overhead = Vec::new();
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut untraced_wall = Vec::new();
        let start = Instant::now();
        let mut done = 0;
        while another(start, done, 1, seconds) {
            let i = done % k;
            let g = self.graph(i);
            // Alternate which of the pair runs first.
            let traced_first = done % 2 == 1;
            let (mut traced, mut plain) = (None, 0.0);
            for traced_turn in [traced_first, !traced_first] {
                if traced_turn {
                    traced = Some(self.traced_call(&g, i));
                } else {
                    let cfg = self.cfgs[i].clone();
                    plain = self.call(&g, i, &cfg).0.wall_s;
                }
            }
            let (traced_wall, row) = traced.expect("ran the traced call");
            untraced_wall.push(plain);
            overhead.push(traced_wall / plain - 1.0);
            rows.extend(row);
            done += 1;
        }
        let layer = |j: usize| mean(&rows.iter().map(|r| r[j]).collect::<Vec<_>>());
        let (q1, _, q3) = quartiles(&overhead);
        let mut out = vec![
            Metric::new("graph.edges", "count", self.mean_edges()),
            Metric::new("graph.partition_s", "s", partition_s),
        ];
        out.extend(
            CALL_LAYERS
                .iter()
                .enumerate()
                .map(|(j, &(name, unit))| Metric::new(name, unit, layer(j))),
        );
        out.push(Metric::new("obs.overhead", "ratio", median(&overhead)));
        out.push(Metric::new("obs.overhead_iqr", "ratio", q3 - q1));
        self.print_split(&out, mean(&untraced_wall), rows.len());
        out
    }

    /// One call with a fresh [`LayerCollector`] attached: its wall time
    /// and, unless the runner failed, its per-layer figures.
    fn traced_call(&mut self, g: &Graph, i: usize) -> (f64, Option<Vec<f64>>) {
        let rec = Arc::new(Mutex::new(LayerCollector::new(self.n)));
        let cfg = self.cfgs[i].clone().with_collector(CollectorHandle::new(Arc::clone(&rec)));
        let (call, outcome) = self.call(g, i, &cfg);
        drop(cfg);
        let rec = Arc::try_unwrap(rec)
            .ok()
            .expect("the runner released its collector")
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        (call.wall_s, outcome.map(|o| call_layers(rec, self.w.algo, &o, call.wall_s, self.pool)))
    }

    /// Median time of `Partition::random` + `PartitionedGraph::new` on the
    /// instances' graphs with the runners' class count; 0 for Upcast,
    /// which does not partition.
    fn time_partition(&mut self) -> f64 {
        if self.w.algo == Algo::Upcast {
            return 0.0;
        }
        let k = self.cfgs[0].partition_count(self.n);
        let mut times = Vec::with_capacity(PARTITION_REPS);
        for rep in 0..PARTITION_REPS {
            let i = rep % self.cfgs.len();
            let g = self.graph(i);
            let start = Instant::now();
            let part = Partition::random(self.n, k, &mut rng_from_seed(self.cfgs[i].seed));
            let pg = PartitionedGraph::new(&g, &part);
            std::hint::black_box(&pg);
            times.push(start.elapsed().as_secs_f64());
        }
        median(&times)
    }

    /// Prints the traced per-layer table: layer rows plus an explicit
    /// residual, summed against the traced call's wall time.
    fn print_split(&self, m: &[Metric], untraced_wall: f64, calls: usize) {
        let get = |name: &str| m.iter().find(|x| x.name == name).map_or(0.0, |x| x.value + 0.0);
        let wall = get("run.traced_wall_s");
        println!(
            "# {} traced per-layer split, mean of {calls} traced calls (s per call)",
            self.w.name
        );
        println!(
            "#   {:<34} {:>10}",
            "set-up: gnp (mean, outside wall_s)",
            fmt_s(mean(&self.setup_s))
        );
        println!(
            "#   {:<34} {:>10}",
            "partition (outside the call)",
            fmt_s(get("graph.partition_s"))
        );
        // (label, seconds, counted in the sum): the root solve is part of
        // the upcast row, shown on its own line.
        let rows = [
            ("phase1 (runner.rs, dra.rs, pool)", get("phase1.wall_s"), true),
            ("merge levels (dhc2.rs)", get("merge.wall_s"), true),
            ("hypernode stitch (dhc1.rs)", get("stitch.wall_s"), true),
            ("upcast (upcast.rs)", get("upcast.wall_s"), true),
            ("  of which root solve (rotation)", get("rotation.root_solve_s"), false),
            ("residual (outside every span)", get("run.residual_s"), true),
        ];
        for (label, v, _) in rows {
            let share = if wall > 0.0 { 100.0 * v / wall } else { 0.0 };
            println!("#   {label:<34} {:>10} {share:>6.1}%", fmt_s(v));
        }
        let sum: f64 = rows.iter().filter(|r| r.2).map(|r| r.1).sum();
        println!("#   {:<34} {:>10}", "sum of rows", fmt_s(sum));
        println!("#   {:<34} {:>10}", "traced wall_s", fmt_s(wall));
        println!("#   {:<34} {:>10}", "untraced wall_s", fmt_s(untraced_wall));
    }

    fn provenance(&self, seed: u64, smoke: bool) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"smoke\": {smoke}, \"n\": {}, \"delta\": {}, \"c\": {}, \
             \"instances\": {}, \"pool_threads\": {}, \"engine_threads\": {}, \"nproc\": {}, \
             \"cpu_model\": \"{}\", \"git_commit\": \"{}\"}}",
            self.w.name,
            self.n,
            self.w.delta,
            self.w.c,
            self.cfgs.len(),
            self.pool,
            self.engine,
            host::nproc(),
            host::cpu_model().replace(['"', '\\'], ""),
            host::git_commit(),
        )
    }
}

/// Whether to start another call (or pair): always until `min` are done,
/// then only while one more of the mean length so far fits in `seconds`.
fn another(start: Instant, done: usize, min: usize, seconds: f64) -> bool {
    let spent = start.elapsed().as_secs_f64();
    done < min || spent + spent / done as f64 <= seconds
}

/// Graph seed of instance `i`; the runner seed is the odd stream.
fn graph_seed(seed: u64, i: usize) -> u64 {
    derive_seed(seed, 2 * i as u64)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// First quartile, median and third quartile, interpolated as Python's
/// `statistics.quantiles(v, n=4)` does (its default, exclusive method).
fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let at = |q: f64| -> f64 {
        match n {
            0 => 0.0,
            1 => s[0],
            _ => {
                let pos = (q * (n + 1) as f64).clamp(1.0, n as f64);
                let lo = pos.floor() as usize;
                let frac = pos - lo as f64;
                let hi = (lo + 1).min(n);
                s[lo - 1] + frac * (s[hi - 1] - s[lo - 1])
            }
        }
    };
    (at(0.25), at(0.5), at(0.75))
}

fn fmt_s(v: f64) -> String {
    format!("{v:.4}")
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // `+ 0.0` turns the `-0.0` of an empty float sum into `0`.
            let v = if m.value.is_finite() { m.value + 0.0 } else { 0.0 };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hcbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut bench = Bench::new(args.workload, args.seed, args.smoke);
    let metrics =
        if args.trace { bench.traced(args.seconds) } else { bench.untraced(args.seconds) };
    println!("# provenance {}", bench.provenance(args.seed, args.smoke));
    for v in &bench.violations {
        eprintln!("hcbench: check failed: {v}");
    }
    let correct = bench.violations.is_empty();
    println!("{}", result_json(correct, bench.attempted, bench.failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Simulation configuration.

use crate::adversary::Adversary;
use dhc_obs::CollectorHandle;

/// Engine configuration: round budget, bandwidth, threading, and the
/// attached observers and fault model.
///
/// # Example
///
/// ```
/// let cfg = dhc_congest::Config::default()
///     .with_max_rounds(10_000)
///     .with_bandwidth_words(2);
/// assert_eq!(cfg.max_rounds, 10_000);
/// assert_eq!(cfg.bandwidth_words, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Hard cap on simulated rounds; exceeding it is
    /// [`SimError::RoundLimitExceeded`](crate::SimError::RoundLimitExceeded).
    pub max_rounds: usize,
    /// Per-directed-edge, per-round budget in message words (the CONGEST
    /// `B`, in units of `Θ(log n)`-bit words). Default 1.
    pub bandwidth_words: usize,
    /// Record the per-round message counts (cheap; enables congestion
    /// plots). Default true.
    pub record_round_traffic: bool,
    /// Capacity of the engine event trace (sends, halts, wake-ups);
    /// 0 (the default) disables tracing.
    pub trace_capacity: usize,
    /// Worker threads for the per-round engine: `1` (the default) runs
    /// everything sequentially inline, `0` uses all available cores.
    /// Results are **identical for every value** — callbacks write only
    /// per-node effect scratch, and the parallel commit fold merges its
    /// shards in ascending node-id order — so this trades wall-clock
    /// time only.
    ///
    /// Threads above 1 are served by a persistent worker pool
    /// (`dhc-pool`): workers are spawned once at network construction
    /// and parked on a condvar between rounds, so a round dispatch
    /// costs one lock + notify, not a thread spawn. An effective count
    /// of 1 (including `0` on a single-core host) never builds the
    /// pool at all and runs the fully inline engine.
    pub engine_threads: usize,
    /// Shard count for the parallel commit fold: `0` (the default)
    /// auto-shards — the fold splits across the worker pool whenever
    /// one exists and the round is busy enough to amortize the merge —
    /// while any other value **forces** that many shards through the
    /// sharded code path even on a single-threaded engine (the shards
    /// then run inline). Forced or auto, every round shards except under
    /// an active adversary, whose per-delivery fate draws keep the
    /// sequential fold; trace, k-machine layer and collector are fed
    /// after either fold and never hold a round back. Results are
    /// identical for every value; the knob exists for benchmarking and
    /// for the shard-merge equivalence suites, which pin
    /// `commit_shards ∈ {1,2,3,7}` against the sequential fold
    /// bit-for-bit.
    pub commit_shards: usize,
    /// Optional seeded fault model (message drop/duplicate/delay, node
    /// crash/restart). `None` (the default) — or a null adversary —
    /// runs the clean synchronous CONGEST engine unchanged; see
    /// [`Adversary`].
    pub adversary: Option<Adversary>,
    /// Optional telemetry collector (see [`dhc_obs`]). Like the trace and
    /// the k-machine layer, a collector is **pure observation**: it is
    /// fed once per committed round by the engine's read-only walk over
    /// the round's effects after the commit fold — neither fold touches
    /// it, and attaching one cannot change outcomes,
    /// [`Metrics`](crate::Metrics), traces, or realized fault schedules
    /// at any thread/shard count.
    /// `None` (the default) skips every telemetry code path.
    pub collector: Option<CollectorHandle>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_rounds: 1_000_000,
            bandwidth_words: 1,
            record_round_traffic: true,
            trace_capacity: 0,
            engine_threads: 1,
            commit_shards: 0,
            adversary: None,
            collector: None,
        }
    }
}

impl Config {
    /// Returns the configuration with the round cap replaced.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Returns the configuration with the per-edge bandwidth replaced.
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`.
    pub fn with_bandwidth_words(mut self, words: usize) -> Self {
        assert!(words > 0, "bandwidth must be at least one word");
        self.bandwidth_words = words;
        self
    }

    /// Returns the configuration with event tracing enabled at the given
    /// capacity.
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Enables or disables the per-round message-count log. `false`
    /// drops the only O(rounds) metrics vector; the running
    /// [`Metrics::max_round_traffic`](crate::Metrics::max_round_traffic)
    /// is maintained either way, so long lean runs keep their headline
    /// congestion figure at O(1) extra memory.
    pub fn with_record_round_traffic(mut self, record: bool) -> Self {
        self.record_round_traffic = record;
        self
    }

    /// Returns the configuration with the engine worker-thread count
    /// replaced (`0` = all available cores). Never changes results;
    /// see [`engine_threads`](Self::engine_threads).
    pub fn with_engine_threads(mut self, threads: usize) -> Self {
        self.engine_threads = threads;
        self
    }

    /// Returns the configuration with the commit-fold shard count
    /// forced (`0` = auto). Never changes results; see
    /// [`commit_shards`](Self::commit_shards).
    pub fn with_commit_shards(mut self, shards: usize) -> Self {
        self.commit_shards = shards;
        self
    }

    /// The worker count [`engine_threads`](Self::engine_threads)
    /// resolves to on this host: the setting itself, or detected
    /// hardware concurrency when it is `0`.
    pub fn effective_engine_threads(&self) -> usize {
        match self.engine_threads {
            0 => std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
            t => t,
        }
    }

    /// Returns the configuration with the given seeded fault model
    /// attached. A null adversary ([`Adversary::is_null`]) is detected
    /// at network construction and leaves the clean engine code paths
    /// bit-for-bit untouched.
    pub fn with_adversary(mut self, adversary: Adversary) -> Self {
        self.adversary = Some(adversary);
        self
    }

    /// Returns the configuration with the given telemetry collector
    /// attached. Pure observation — see [`collector`](Self::collector).
    pub fn with_collector(mut self, collector: CollectorHandle) -> Self {
        self.collector = Some(collector);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_congest() {
        let c = Config::default();
        assert_eq!(c.bandwidth_words, 1);
        assert!(c.max_rounds >= 1000);
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn zero_bandwidth_rejected() {
        Config::default().with_bandwidth_words(0);
    }

    #[test]
    fn builder_chains() {
        let c = Config::default().with_max_rounds(5).with_bandwidth_words(3).with_engine_threads(4);
        assert_eq!((c.max_rounds, c.bandwidth_words), (5, 3));
        assert_eq!(c.engine_threads, 4);
    }

    #[test]
    fn engine_is_single_threaded_by_default() {
        assert_eq!(Config::default().engine_threads, 1);
    }

    #[test]
    fn commit_shards_default_auto_and_forced() {
        assert_eq!(Config::default().commit_shards, 0);
        assert_eq!(Config::default().with_commit_shards(3).commit_shards, 3);
    }

    #[test]
    fn effective_engine_threads_resolves_zero() {
        assert_eq!(Config::default().with_engine_threads(4).effective_engine_threads(), 4);
        assert!(Config::default().with_engine_threads(0).effective_engine_threads() >= 1);
    }

    #[test]
    fn collector_attaches_and_compares_by_identity() {
        struct Noop;
        impl dhc_obs::Collector for Noop {}
        assert_eq!(Config::default().collector, None);
        let handle = CollectorHandle::new(Noop);
        let a = Config::default().with_collector(handle.clone());
        let b = Config::default().with_collector(handle);
        let c = Config::default().with_collector(CollectorHandle::new(Noop));
        // Same collector → equal configs; different collector → not.
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn adversary_attaches() {
        assert_eq!(Config::default().adversary, None);
        let c = Config::default().with_adversary(Adversary::seeded(3).with_drop_ppm(100));
        assert_eq!(c.adversary.as_ref().map(|a| a.drop_ppm), Some(100));
    }
}

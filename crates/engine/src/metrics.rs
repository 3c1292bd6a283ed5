//! Engine instrumentation: job counters, cache hit rates, per-stage
//! wall-time histograms and worker utilization.
//!
//! Counters accumulate across every batch an [`Engine`] runs, so a
//! repeated sweep shows its cache hits in the same snapshot as the
//! first sweep's misses. Snapshots render to a single JSON object
//! (hand-rolled — the schema is small and the crate stays
//! dependency-free, like the CLI's JSON output).
//!
//! [`Engine`]: crate::Engine

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use lobist_alloc::anneal::AnnealResult;
use lobist_alloc::flow::StageTimings;
use lobist_alloc::flowcache::{tally, FlowCacheStats, StageStats, SubcanonStats};
use lobist_store::StoreStats;

use crate::anneal::AnnealStats;
use crate::faultsim::FaultSimStats;
use crate::lint::LintRunStats;
use crate::pool::PoolStats;

/// The log2-microsecond bucketing every histogram here uses (defined
/// once, in the allocator crate, which records histograms of its own).
pub use lobist_alloc::flowcache::{bucket_micros, NUM_BUCKETS};

/// The flow stages a histogram is kept for, in pipeline order (matching
/// [`StageTimings::stages`]).
pub const STAGE_NAMES: [&str; 5] = [
    "module_assign",
    "register_alloc",
    "interconnect",
    "data_path",
    "bist",
];

/// Live counters owned by an engine: the snapshot itself, behind one
/// lock. Each `record_*` mutates its fields in place and a snapshot is
/// a clone, so every counter is declared once, as a
/// [`MetricsSnapshot`] field.
#[derive(Debug, Default)]
pub struct Metrics(Mutex<MetricsSnapshot>);

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ledger under its lock. Poison-tolerant: every update leaves
    /// the counters valid, so a panic elsewhere must not stop them.
    fn ledger(&self) -> MutexGuard<'_, MetricsSnapshot> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn add_submitted(&self, n: u64) {
        self.ledger().jobs_submitted += n;
    }

    pub(crate) fn job_done(&self, cache_hit: bool) {
        let mut m = self.ledger();
        m.jobs_completed += 1;
        if cache_hit {
            m.cache_hits += 1;
        } else {
            m.cache_misses += 1;
        }
    }

    /// A job answered by the durable store tier (missed the in-memory
    /// cache, found on disk, promoted).
    pub(crate) fn job_done_from_store(&self) {
        let mut m = self.ledger();
        m.jobs_completed += 1;
        m.store_hits += 1;
        // A store hit is still a miss for the in-memory tier.
        m.cache_misses += 1;
    }

    /// A job waited for an in-flight job with the same synthesis core
    /// instead of evaluating (single-flight deduplication).
    pub(crate) fn coalesced(&self) {
        self.ledger().coalesced += 1;
    }

    pub(crate) fn job_panicked(&self) {
        let mut m = self.ledger();
        m.jobs_completed += 1;
        m.panics += 1;
    }

    pub(crate) fn record_stages(&self, timings: &StageTimings) {
        let mut m = self.ledger();
        for (hist, (_, took)) in m.histograms.iter_mut().zip(timings.stages()) {
            tally(hist, took);
        }
    }

    pub(crate) fn record_pool(&self, stats: &PoolStats) {
        let mut m = self.ledger();
        m.busy += stats.busy.iter().sum::<Duration>();
        m.capacity += stats.wall * stats.workers as u32;
    }

    /// Accumulates the work accounting of one fault-simulation run
    /// ([`crate::faultsim`]).
    pub fn record_fault_sim(&self, stats: &FaultSimStats) {
        let mut m = self.ledger();
        let fs = &mut m.fault_sim;
        fs.batches_loaded += stats.counters.batches_loaded;
        fs.faults_simulated += stats.counters.faults_simulated;
        fs.cone_evals += stats.counters.cone_evals;
        fs.events_propagated += stats.counters.events_propagated;
        fs.collapsed_away += stats.collapsed_away as u64;
        fs.wall += stats.wall;
        let idx = lane_index(stats.lanes);
        fs.runs_by_lanes[idx] += 1;
        fs.batches_by_lanes[idx] += stats.counters.batches_loaded;
    }

    /// Accumulates the work accounting of one annealing run
    /// ([`crate::anneal`]).
    pub fn record_anneal(&self, result: &AnnealResult, stats: &AnnealStats) {
        let mut m = self.ledger();
        let an = &mut m.anneal;
        an.runs += 1;
        an.chains += stats.chains as u64;
        an.moves_evaluated += u64::from(result.evaluated);
        an.moves_accepted += u64::from(result.accepted);
        an.stalls += u64::from(result.stalled);
        an.speculative_waste += u64::from(result.wasted);
        an.oracle_hits += result.oracle_hits;
        an.oracle_misses += result.oracle_misses;
        an.wall += stats.wall;
        let (fc, run) = (&mut m.flow_cache, &result.flow_cache);
        accumulate_stage(&mut fc.interconnect, &run.interconnect);
        accumulate_stage(&mut fc.embeddings, &run.embeddings);
        accumulate_stage(&mut fc.selection, &run.selection);
        fc.warm_starts += run.warm_starts;
        for (acc, &n) in fc.delta_micros.iter_mut().zip(&run.delta_micros) {
            *acc += n;
        }
        for (acc, &n) in fc.full_micros.iter_mut().zip(&run.full_micros) {
            *acc += n;
        }
    }

    /// One canonization performed: its wall time lands in the log2-µs
    /// histogram, and a search that hit its leaf budget (falling back to
    /// a deterministic but not label-invariant order) counts a bailout.
    pub(crate) fn record_canonization(&self, took: Duration, bailed: bool) {
        let mut m = self.ledger();
        tally(&mut m.canon.canon_micros_log2, took);
        if bailed {
            m.canon.bailouts += 1;
        }
    }

    /// A structural-cache hit, classified by origin fingerprint: `iso`
    /// when the stored result came from a differently-labelled
    /// isomorphic submission, exact otherwise.
    pub(crate) fn canon_hit(&self, iso: bool) {
        let mut m = self.ledger();
        if iso {
            m.canon.iso_hits += 1;
        } else {
            m.canon.exact_hits += 1;
        }
    }

    /// A stored canonical-coordinate result was translated back into a
    /// requester's own names.
    pub(crate) fn canon_remap(&self) {
        self.ledger().canon.remaps += 1;
    }

    /// Accumulates the outcome and per-pass timings of one lint run
    /// ([`crate::lint::lint_parallel`]).
    pub fn record_lint(&self, report: &lobist_lint::Report, stats: &LintRunStats) {
        let mut m = self.ledger();
        let lint = &mut m.lint;
        lint.runs += 1;
        lint.errors += report.error_count() as u64;
        lint.warnings += report.warning_count() as u64;
        lint.wall += stats.wall;
        for &(name, took) in &stats.passes {
            tally(lint.pass_histograms.entry(name).or_default(), took);
        }
    }

    /// Accumulates the outcome and per-cone timings of one static
    /// testability analysis run ([`crate::analyze::analyze_parallel`]).
    pub fn record_analysis(
        &self,
        report: &lobist_lint::TestabilityReport,
        stats: &crate::analyze::AnalyzeRunStats,
    ) {
        let mut m = self.ledger();
        let ta = &mut m.testability;
        ta.runs += 1;
        ta.cones += report.cones.len() as u64;
        ta.faults += report.total_faults() as u64;
        ta.hard += report.total_hard() as u64;
        ta.redundant += report.total_redundant() as u64;
        ta.unreachable += report.total_unreachable() as u64;
        ta.wall += stats.wall;
        for (_, took) in &stats.cones {
            tally(&mut ta.cone_micros_log2, *took);
        }
    }

    /// A point-in-time copy of every counter. The live cache, store and
    /// fragment-tier views are attached by [`Engine::metrics`], the one
    /// way callers take a snapshot.
    ///
    /// [`Engine::metrics`]: crate::Engine::metrics
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        self.ledger().clone()
    }
}

/// The lane widths the per-width fault-sim tallies distinguish,
/// indexing [`FaultSimSnapshot::runs_by_lanes`].
pub const LANE_WIDTHS: [u32; 3] = [64, 256, 512];

fn lane_index(lanes: u32) -> usize {
    match lanes {
        512 => 2,
        256 => 1,
        _ => 0,
    }
}

fn accumulate_stage(acc: &mut StageStats, s: &StageStats) {
    acc.hits += s.hits;
    acc.misses += s.misses;
    acc.evictions += s.evictions;
}

/// Accumulated annealing-search work, as carried in a
/// [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnnealSnapshot {
    /// Annealing runs recorded.
    pub runs: u64,
    /// Chains across all runs.
    pub chains: u64,
    /// Committed-trajectory moves evaluated.
    pub moves_evaluated: u64,
    /// Moves accepted.
    pub moves_accepted: u64,
    /// Steps that found no feasible move within the retry budget.
    pub stalls: u64,
    /// Speculative evaluations discarded by an earlier acceptance.
    pub speculative_waste: u64,
    /// Cost-oracle cache hits.
    pub oracle_hits: u64,
    /// Cost-oracle cache misses (full interconnect + BIST solves).
    pub oracle_misses: u64,
    /// Wall time of all annealing runs.
    pub wall: Duration,
}

impl AnnealSnapshot {
    /// Oracle hits as a fraction of lookups (0.0 when none).
    pub fn oracle_hit_rate(&self) -> f64 {
        let total = self.oracle_hits + self.oracle_misses;
        if total == 0 {
            0.0
        } else {
            self.oracle_hits as f64 / total as f64
        }
    }
}

/// Accumulated fault-simulation work, as carried in a
/// [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSimSnapshot {
    /// Golden 64-pattern batch evaluations.
    pub batches_loaded: u64,
    /// Faults propagated through their cones.
    pub faults_simulated: u64,
    /// Gate re-evaluations inside fault cones.
    pub cone_evals: u64,
    /// Net-change events that survived a gate.
    pub events_propagated: u64,
    /// Faults eliminated by structural collapsing.
    pub collapsed_away: u64,
    /// Wall time of all fault-simulation runs.
    pub wall: Duration,
    /// Runs per lane width, indexed by [`LANE_WIDTHS`].
    pub runs_by_lanes: [u64; 3],
    /// Batches loaded per lane width, indexed by [`LANE_WIDTHS`].
    pub batches_by_lanes: [u64; 3],
}

/// Accumulated lint work, as carried in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintSnapshot {
    /// Lint runs recorded.
    pub runs: u64,
    /// Error-severity findings across all runs.
    pub errors: u64,
    /// Warning-severity findings across all runs.
    pub warnings: u64,
    /// Wall time of all lint runs.
    pub wall: Duration,
    /// Per-pass log2-microsecond histograms (same bucketing as the
    /// flow-stage histograms), keyed by pass name.
    pub pass_histograms: BTreeMap<&'static str, [u64; NUM_BUCKETS]>,
}

/// Accumulated static-testability-analysis work, as carried in a
/// [`MetricsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TestabilitySnapshot {
    /// Analysis runs recorded.
    pub runs: u64,
    /// Module cones analyzed.
    pub cones: u64,
    /// Faults scored.
    pub faults: u64,
    /// `T301` (random-pattern-resistant) flags.
    pub hard: u64,
    /// `T303` (redundant) flags.
    pub redundant: u64,
    /// `T302` (unreachable-in-test-mode) flags.
    pub unreachable: u64,
    /// Wall time of all analysis runs.
    pub wall: Duration,
    /// Log2-microsecond histogram of per-cone analysis wall time (same
    /// bucketing as the flow-stage histograms).
    pub cone_micros_log2: [u64; NUM_BUCKETS],
}

/// Accumulated canonization work of the structural result cache, as
/// carried in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CanonSnapshot {
    /// Cache/store hits whose origin fingerprint matched the request —
    /// the same rendered design resubmitted.
    pub exact_hits: u64,
    /// Cache/store hits answered across an isomorphism class — a
    /// renamed or reordered twin of an already-synthesized design.
    pub iso_hits: u64,
    /// Stored canonical-coordinate results translated back into a
    /// requester's own names.
    pub remaps: u64,
    /// Canonizations whose refinement search hit its leaf budget (the
    /// key stays sound; hits may be missed for that design).
    pub bailouts: u64,
    /// Log2-microsecond histogram of canonization wall time (same
    /// bucketing as the flow-stage histograms).
    pub canon_micros_log2: [u64; NUM_BUCKETS],
}

impl CanonSnapshot {
    /// Isomorphic hits as a fraction of all structural-cache hits
    /// (0.0 when none) — how much of the hit rate only canonization
    /// could have delivered.
    pub fn iso_share(&self) -> f64 {
        let total = self.exact_hits + self.iso_hits;
        if total == 0 {
            0.0
        } else {
            self.iso_hits as f64 / total as f64
        }
    }
}

/// Accumulated daemon-side request accounting, as carried in a
/// [`MetricsSnapshot`]. The server fills this in before rendering; a
/// plain engine leaves it `None` and the JSON omits the section.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerSnapshot {
    /// Requests accepted onto the queue.
    pub requests: u64,
    /// Requests that ran to completion (even if the job itself failed
    /// to synthesize — that is still a well-formed response).
    pub completed: u64,
    /// Requests that died with a protocol or I/O error.
    pub failed: u64,
    /// Requests refused by policy (malformed, over limits, shutdown).
    pub rejected: u64,
    /// Requests currently running.
    pub active: u64,
    /// Requests currently waiting for an admission slot.
    pub queue_depth: u64,
    /// High-water mark of the wait queue.
    pub peak_queue_depth: u64,
    /// Wall time spent inside request handling, summed.
    pub wall: Duration,
    /// Log2-microsecond histogram of per-request wall time (same
    /// bucketing as the flow-stage histograms).
    pub request_micros_log2: [u64; NUM_BUCKETS],
}

/// A point-in-time copy of an engine's metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Jobs handed to the engine so far.
    pub jobs_submitted: u64,
    /// Jobs finished (evaluated, served from cache, or panicked).
    pub jobs_completed: u64,
    /// Jobs answered from the result cache.
    pub cache_hits: u64,
    /// Jobs that had to run the flow (or were served by the durable
    /// store after missing the in-memory cache).
    pub cache_misses: u64,
    /// Jobs answered from the durable store tier.
    pub store_hits: u64,
    /// Jobs that waited on an in-flight job with the same synthesis
    /// core instead of evaluating (single-flight deduplication; equal
    /// job keys imply equal cores, so identical jobs count too).
    pub coalesced: u64,
    /// Jobs that panicked (isolated; reported as failures).
    pub panics: u64,
    /// Total time workers spent running jobs.
    pub busy: Duration,
    /// Total pool capacity (wall time × workers, summed over batches).
    pub capacity: Duration,
    /// Per-stage log2-microsecond histograms, indexed like
    /// [`STAGE_NAMES`].
    pub histograms: [[u64; NUM_BUCKETS]; STAGE_NAMES.len()],
    /// Accumulated fault-simulation work.
    pub fault_sim: FaultSimSnapshot,
    /// Accumulated annealing-search work.
    pub anneal: AnnealSnapshot,
    /// Accumulated incremental flow-cache work (stage-level hits /
    /// misses / evictions plus delta-vs-full evaluation timing
    /// histograms), summed over every recorded annealing run.
    pub flow_cache: FlowCacheStats,
    /// Accumulated lint work.
    pub lint: LintSnapshot,
    /// Accumulated static testability analysis work.
    pub testability: TestabilitySnapshot,
    /// Accumulated canonization work of the structural result cache.
    pub canon: CanonSnapshot,
    /// Live counters of the in-memory result cache (its own
    /// hit/miss/eviction view; attached by [`Engine::metrics`]).
    ///
    /// [`Engine::metrics`]: crate::Engine::metrics
    pub result_cache: Option<StoreStats>,
    /// Configured bound of the in-memory result cache (0 when not
    /// attached).
    pub cache_capacity: u64,
    /// Live counters of the durable store, when one is attached.
    pub store: Option<StoreStats>,
    /// Daemon request accounting, when rendered by `lobist serve`.
    pub server: Option<ServerSnapshot>,
    /// Fragment-tier counters, when the subcanon tier is enabled
    /// (attached by [`Engine::metrics`]; `None` renders no section).
    ///
    /// [`Engine::metrics`]: crate::Engine::metrics
    pub subcanon: Option<SubcanonStats>,
}

impl MetricsSnapshot {
    /// Cache hits as a fraction of completed non-panicking jobs
    /// (0.0 when nothing completed).
    pub fn cache_hit_rate(&self) -> f64 {
        let served = self.cache_hits + self.cache_misses;
        if served == 0 {
            0.0
        } else {
            self.cache_hits as f64 / served as f64
        }
    }

    /// Fraction of pool capacity spent running jobs.
    pub fn worker_utilization(&self) -> f64 {
        let capacity = self.capacity.as_secs_f64();
        if capacity <= 0.0 {
            0.0
        } else {
            (self.busy.as_secs_f64() / capacity).min(1.0)
        }
    }

    /// Renders the snapshot as one JSON object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        // Trim trailing empty buckets so the lines stay readable.
        fn trim_row(row: &[u64]) -> String {
            let last = row.iter().rposition(|&c| c > 0).map_or(0, |p| p + 1);
            let cells: Vec<String> = row[..last].iter().map(u64::to_string).collect();
            cells.join(",")
        }
        fn stage_json(s: &StageStats) -> String {
            format!(
                "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"hit_rate\":{:.4}}}",
                s.hits,
                s.misses,
                s.evictions,
                s.hit_rate()
            )
        }
        let mut hist = String::new();
        for (i, name) in STAGE_NAMES.iter().enumerate() {
            if i > 0 {
                hist.push(',');
            }
            let _ = write!(hist, "\"{name}\":[{}]", trim_row(&self.histograms[i]));
        }
        let mut lint_hist = String::new();
        for (i, (name, row)) in self.lint.pass_histograms.iter().enumerate() {
            if i > 0 {
                lint_hist.push(',');
            }
            let _ = write!(lint_hist, "\"{name}\":[{}]", trim_row(row));
        }
        fn store_json(s: &StoreStats) -> String {
            format!(
                concat!(
                    "{{\"hits\":{},\"misses\":{},\"hit_rate\":{:.4},",
                    "\"insertions\":{},\"evictions\":{},\"entries\":{},",
                    "\"payload_bytes\":{},\"bytes_read\":{},\"bytes_written\":{},",
                    "\"compactions\":{},\"recovered_drops\":{},\"write_errors\":{},",
                    "\"version_skips\":{}}}"
                ),
                s.hits,
                s.misses,
                s.hit_rate(),
                s.insertions,
                s.evictions,
                s.entries,
                s.payload_bytes,
                s.bytes_read,
                s.bytes_written,
                s.compactions,
                s.recovered_drops,
                s.write_errors,
                s.version_skips,
            )
        }
        // Optional gauges inside the "cache" section: present once the
        // engine attaches the live cache view.
        let mut cache_extra = format!(
            ",\"store_hits\":{},\"coalesced\":{}",
            self.store_hits, self.coalesced
        );
        if let Some(rc) = &self.result_cache {
            let _ = write!(
                cache_extra,
                ",\"evictions\":{},\"entries\":{},\"capacity\":{}",
                rc.evictions, rc.entries, self.cache_capacity
            );
        }
        // Optional trailing sections for the durable store and the
        // daemon.
        let mut tail = String::new();
        if let Some(sc) = &self.subcanon {
            let _ = write!(
                tail,
                concat!(
                    ",\"subcanon\":{{\"fragments\":{},\"intra_hits\":{},",
                    "\"cross_hits\":{},\"bailouts\":{},\"core_hits\":{},",
                    "\"core_misses\":{},\"registry_entries\":{},",
                    "\"extract_micros_log2\":[{}]}}"
                ),
                sc.fragments,
                sc.intra_hits,
                sc.cross_hits,
                sc.bailouts,
                sc.core_hits,
                sc.core_misses,
                sc.registry_entries,
                trim_row(&sc.extract_micros_log2),
            );
        }
        if let Some(store) = &self.store {
            let _ = write!(tail, ",\"store\":{}", store_json(store));
        }
        if let Some(sv) = &self.server {
            let _ = write!(
                tail,
                concat!(
                    ",\"server\":{{\"requests\":{},\"completed\":{},",
                    "\"failed\":{},\"rejected\":{},\"active\":{},",
                    "\"queue_depth\":{},\"peak_queue_depth\":{},",
                    "\"wall_micros\":{},\"request_micros_log2\":[{}]}}"
                ),
                sv.requests,
                sv.completed,
                sv.failed,
                sv.rejected,
                sv.active,
                sv.queue_depth,
                sv.peak_queue_depth,
                sv.wall.as_micros(),
                trim_row(&sv.request_micros_log2),
            );
        }
        format!(
            concat!(
                "{{\"jobs\":{{\"submitted\":{sub},\"completed\":{done},\"panicked\":{pan}}},",
                "\"cache\":{{\"hits\":{hits},\"misses\":{misses},\"hit_rate\":{rate:.4}",
                "{cache_extra}}},",
                "\"pool\":{{\"busy_micros\":{busy},\"capacity_micros\":{cap},",
                "\"utilization\":{util:.4}}},",
                "\"fault_sim\":{{\"batches_loaded\":{fs_batches},",
                "\"faults_simulated\":{fs_faults},\"cone_evals\":{fs_cone},",
                "\"events_propagated\":{fs_events},\"collapsed_away\":{fs_coll},",
                "\"lanes\":{{{fs_lanes}}},\"wall_micros\":{fs_wall}}},",
                "\"anneal\":{{\"runs\":{an_runs},\"chains\":{an_chains},",
                "\"moves_evaluated\":{an_eval},\"moves_accepted\":{an_acc},",
                "\"stalls\":{an_stall},\"speculative_waste\":{an_waste},",
                "\"oracle_hits\":{an_hits},\"oracle_misses\":{an_misses},",
                "\"oracle_hit_rate\":{an_rate:.4},\"wall_micros\":{an_wall}}},",
                "\"flow_cache\":{{\"interconnect\":{fc_ic},\"embeddings\":{fc_emb},",
                "\"selection\":{fc_sel},\"warm_starts\":{fc_warm},",
                "\"delta_micros_log2\":[{fc_delta}],\"full_micros_log2\":[{fc_full}]}},",
                "\"lint\":{{\"runs\":{li_runs},\"errors\":{li_err},",
                "\"warnings\":{li_warn},\"wall_micros\":{li_wall},",
                "\"pass_micros_log2_histograms\":{{{li_hist}}}}},",
                "\"testability\":{{\"runs\":{ta_runs},\"cones\":{ta_cones},",
                "\"faults\":{ta_faults},\"hard\":{ta_hard},",
                "\"redundant\":{ta_red},\"unreachable\":{ta_unreach},",
                "\"wall_micros\":{ta_wall},\"cone_micros_log2\":[{ta_hist}]}},",
                "\"canon\":{{\"exact_hits\":{cn_exact},\"iso_hits\":{cn_iso},",
                "\"iso_share\":{cn_share:.4},\"remaps\":{cn_remaps},",
                "\"bailouts\":{cn_bail},\"canon_micros_log2\":[{cn_hist}]}},",
                "\"stage_micros_log2_histograms\":{{{hist}}}{tail}}}"
            ),
            sub = self.jobs_submitted,
            done = self.jobs_completed,
            pan = self.panics,
            hits = self.cache_hits,
            misses = self.cache_misses,
            rate = self.cache_hit_rate(),
            busy = self.busy.as_micros(),
            cap = self.capacity.as_micros(),
            util = self.worker_utilization(),
            fs_batches = self.fault_sim.batches_loaded,
            fs_faults = self.fault_sim.faults_simulated,
            fs_cone = self.fault_sim.cone_evals,
            fs_events = self.fault_sim.events_propagated,
            fs_coll = self.fault_sim.collapsed_away,
            fs_lanes = LANE_WIDTHS
                .iter()
                .enumerate()
                .map(|(i, w)| format!(
                    "\"{w}\":{{\"runs\":{},\"batches_loaded\":{}}}",
                    self.fault_sim.runs_by_lanes[i], self.fault_sim.batches_by_lanes[i]
                ))
                .collect::<Vec<_>>()
                .join(","),
            fs_wall = self.fault_sim.wall.as_micros(),
            an_runs = self.anneal.runs,
            an_chains = self.anneal.chains,
            an_eval = self.anneal.moves_evaluated,
            an_acc = self.anneal.moves_accepted,
            an_stall = self.anneal.stalls,
            an_waste = self.anneal.speculative_waste,
            an_hits = self.anneal.oracle_hits,
            an_misses = self.anneal.oracle_misses,
            an_rate = self.anneal.oracle_hit_rate(),
            an_wall = self.anneal.wall.as_micros(),
            fc_ic = stage_json(&self.flow_cache.interconnect),
            fc_emb = stage_json(&self.flow_cache.embeddings),
            fc_sel = stage_json(&self.flow_cache.selection),
            fc_warm = self.flow_cache.warm_starts,
            fc_delta = trim_row(&self.flow_cache.delta_micros),
            fc_full = trim_row(&self.flow_cache.full_micros),
            li_runs = self.lint.runs,
            li_err = self.lint.errors,
            li_warn = self.lint.warnings,
            li_wall = self.lint.wall.as_micros(),
            li_hist = lint_hist,
            ta_runs = self.testability.runs,
            ta_cones = self.testability.cones,
            ta_faults = self.testability.faults,
            ta_hard = self.testability.hard,
            ta_red = self.testability.redundant,
            ta_unreach = self.testability.unreachable,
            ta_wall = self.testability.wall.as_micros(),
            ta_hist = trim_row(&self.testability.cone_micros_log2),
            cn_exact = self.canon.exact_hits,
            cn_iso = self.canon.iso_hits,
            cn_share = self.canon.iso_share(),
            cn_remaps = self.canon.remaps,
            cn_bail = self.canon.bailouts,
            cn_hist = trim_row(&self.canon.canon_micros_log2),
            hist = hist,
            cache_extra = cache_extra,
            tail = tail,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let m = Metrics::new();
        m.add_submitted(3);
        m.job_done(false);
        m.job_done(true);
        m.job_panicked();
        m.record_stages(&StageTimings {
            module_assign: Duration::from_micros(3),
            register_alloc: Duration::from_micros(900),
            ..Default::default()
        });
        let snap = m.snapshot();
        assert_eq!(snap.jobs_submitted, 3);
        assert_eq!(snap.jobs_completed, 3);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.panics, 1);
        assert!((snap.cache_hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(snap.histograms[0][1], 1); // 3 µs → bucket 1
        assert_eq!(snap.histograms[1][9], 1); // 900 µs → bucket 9
        let json = snap.to_json();
        assert!(json.contains("\"submitted\":3"), "{json}");
        assert!(json.contains("\"hit_rate\":0.5000"), "{json}");
        assert!(
            json.contains("\"register_alloc\":[0,0,0,0,0,0,0,0,0,1]"),
            "{json}"
        );
    }

    #[test]
    fn fault_sim_counters_accumulate_and_render() {
        use lobist_gatesim::diffsim::SimCounters;
        let m = Metrics::new();
        m.record_fault_sim(&FaultSimStats {
            counters: SimCounters {
                batches_loaded: 4,
                faults_simulated: 100,
                cone_evals: 700,
                events_propagated: 300,
            },
            total_faults: 120,
            simulated_faults: 100,
            collapsed_away: 20,
            workers: 2,
            lanes: 256,
            wall: Duration::from_micros(1500),
        });
        let snap = m.snapshot();
        assert_eq!(snap.fault_sim.faults_simulated, 100);
        assert_eq!(snap.fault_sim.collapsed_away, 20);
        assert_eq!(snap.fault_sim.runs_by_lanes, [0, 1, 0]);
        assert_eq!(snap.fault_sim.batches_by_lanes, [0, 4, 0]);
        let json = snap.to_json();
        assert!(
            json.contains("\"fault_sim\":{\"batches_loaded\":4"),
            "{json}"
        );
        assert!(json.contains("\"cone_evals\":700"), "{json}");
        assert!(json.contains("\"wall_micros\":1500"), "{json}");
        assert!(
            json.contains(concat!(
                "\"lanes\":{\"64\":{\"runs\":0,\"batches_loaded\":0},",
                "\"256\":{\"runs\":1,\"batches_loaded\":4},",
                "\"512\":{\"runs\":0,\"batches_loaded\":0}}"
            )),
            "{json}"
        );
    }

    /// Every section present, every value from a fixed input (no clock
    /// readings): pins the bytes `to_json` renders. Regenerate after an
    /// intentional format change with
    /// `UPDATE_GOLDENS=1 cargo test -p lobist-engine full_snapshot`.
    #[test]
    fn full_snapshot_matches_the_golden() {
        use lobist_alloc::baseline_regalloc::{allocate_registers, BaselineAlgorithm};
        use lobist_alloc::flow::{synthesize_benchmark, FlowOptions};
        use lobist_dfg::benchmarks;
        use lobist_gatesim::diffsim::SimCounters;
        use lobist_lint::{Code, Diagnostic, LintUnit, Report, Span};

        let us = Duration::from_micros;
        let m = Metrics::new();
        m.add_submitted(7);
        m.job_done(false);
        m.job_done(false);
        m.job_done(true);
        m.job_done_from_store();
        m.job_panicked();
        m.coalesced();
        m.record_stages(&StageTimings {
            module_assign: us(3),
            register_alloc: us(900),
            interconnect: us(40),
            data_path: us(17),
            bist: us(2500),
        });
        m.record_stages(&StageTimings {
            register_alloc: us(1100),
            ..Default::default()
        });
        m.record_pool(&PoolStats {
            workers: 2,
            wall: Duration::from_millis(10),
            busy: vec![Duration::from_millis(10), Duration::from_millis(5)],
        });
        for (lanes, batches) in [(64, 8), (512, 2)] {
            m.record_fault_sim(&FaultSimStats {
                counters: SimCounters {
                    batches_loaded: batches,
                    faults_simulated: 100,
                    cone_evals: 700,
                    events_propagated: 300,
                },
                total_faults: 120,
                simulated_faults: 100,
                collapsed_away: 20,
                workers: 2,
                lanes,
                wall: us(1500),
            });
        }

        let bench = benchmarks::ex1();
        let registers = allocate_registers(
            &bench.dfg,
            &bench.schedule,
            bench.lifetime_options,
            BaselineAlgorithm::LeftEdge,
        )
        .expect("left-edge colors ex1");
        let mut flow_cache = FlowCacheStats {
            interconnect: StageStats {
                hits: 9,
                misses: 3,
                evictions: 1,
            },
            embeddings: StageStats {
                hits: 5,
                misses: 5,
                evictions: 0,
            },
            selection: StageStats {
                hits: 0,
                misses: 4,
                evictions: 2,
            },
            warm_starts: 3,
            ..Default::default()
        };
        flow_cache.delta_micros[bucket_micros(70)] = 11;
        flow_cache.full_micros[bucket_micros(3000)] = 2;
        m.record_anneal(
            &AnnealResult {
                registers,
                overhead: 90,
                initial_overhead: 120,
                accepted: 12,
                evaluated: 40,
                skipped: 6,
                stalled: 1,
                infeasible: 2,
                wasted: 5,
                oracle_hits: 30,
                oracle_misses: 15,
                flow_cache,
            },
            &AnnealStats {
                wall: us(42_000),
                workers: 2,
                chains: 3,
                chain_overheads: vec![90, 95, 100],
                best_chain: 0,
            },
        );

        m.record_canonization(us(5), false);
        m.record_canonization(us(300), true);
        m.canon_hit(true);
        m.canon_hit(false);
        m.canon_remap();
        m.canon_remap();

        m.record_lint(
            &Report::new(vec![
                Diagnostic::new(Code::A101RegisterConflict, Span::Design, "x"),
                Diagnostic::new(Code::L007DeadRegister, Span::Design, "y"),
            ]),
            &LintRunStats {
                passes: vec![("structure", us(12)), ("binding", us(130))],
                wall: us(150),
                workers: 1,
            },
        );
        let opts = FlowOptions::testable();
        let design = synthesize_benchmark(&bench, &opts).expect("synthesizes");
        let unit = LintUnit::of_design(
            &bench.dfg,
            &bench.schedule,
            &design,
            bench.lifetime_options,
            &opts.area,
        );
        let (report, _) = crate::analyze::analyze_parallel(&unit, 1, None);
        m.record_analysis(
            &report,
            &crate::analyze::AnalyzeRunStats {
                cones: vec![("m0".into(), us(33)), ("m1".into(), us(650))],
                wall: us(800),
                workers: 1,
            },
        );

        let mut snap = m.snapshot();
        snap.result_cache = Some(StoreStats {
            hits: 1,
            misses: 4,
            insertions: 4,
            evictions: 1,
            entries: 3,
            payload_bytes: 900,
            ..Default::default()
        });
        snap.cache_capacity = 64;
        snap.store = Some(StoreStats {
            hits: 1,
            misses: 3,
            insertions: 3,
            evictions: 0,
            entries: 3,
            payload_bytes: 700,
            bytes_read: 250,
            bytes_written: 710,
            compactions: 1,
            recovered_drops: 2,
            write_errors: 0,
            version_skips: 1,
        });
        let mut request_micros_log2 = [0; NUM_BUCKETS];
        request_micros_log2[bucket_micros(400)] = 3;
        request_micros_log2[bucket_micros(9000)] = 1;
        snap.server = Some(ServerSnapshot {
            requests: 6,
            completed: 4,
            failed: 1,
            rejected: 2,
            active: 1,
            queue_depth: 0,
            peak_queue_depth: 3,
            wall: us(10_200),
            request_micros_log2,
        });
        let mut extract_micros_log2 = [0; NUM_BUCKETS];
        extract_micros_log2[bucket_micros(80)] = 2;
        snap.subcanon = Some(SubcanonStats {
            fragments: 14,
            intra_hits: 2,
            cross_hits: 5,
            bailouts: 1,
            core_hits: 1,
            core_misses: 2,
            registry_entries: 9,
            extract_micros_log2,
        });

        let rendered = format!("{}\n", snap.to_json());
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/goldens/metrics/full.json"
        );
        if std::env::var_os("UPDATE_GOLDENS").is_some() {
            std::fs::write(path, &rendered).expect("write golden");
            return;
        }
        let golden = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("{path}: {e} (run with UPDATE_GOLDENS=1 to create it)"));
        assert_eq!(rendered, golden, "metrics JSON drifted from {path}");
    }

    #[test]
    fn utilization_is_busy_over_capacity() {
        let m = Metrics::new();
        m.record_pool(&PoolStats {
            workers: 2,
            wall: Duration::from_millis(10),
            busy: vec![Duration::from_millis(10), Duration::from_millis(5)],
        });
        let snap = m.snapshot();
        assert!((snap.worker_utilization() - 0.75).abs() < 1e-6);
    }
}

//! The engine proper: a job queue drained by a thread pool, fronted by
//! the content-addressed cache and instrumented by the metrics layer.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use lobist_alloc::explore::{
    core_memo_key, evaluate_candidate_timed_with_tier, evaluate_canonical_timed_with_tier,
    remap_point, Candidate,
};
use lobist_alloc::flow::{FlowOptions, StageTimings};
use lobist_alloc::flowcache::FragmentTier;
use lobist_dfg::canon::canonize;
use lobist_dfg::parse::to_text;
use lobist_dfg::{subcanon, Dfg};

use lobist_store::codec::FragmentRecord;
use lobist_store::{ResultStore, StoredResult};

use crate::cache::{canonical_job_key, job_key, origin_fingerprint, JobResult, ResultCache};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::pool;

/// A progress sink: called with one JSON line per event.
pub type ProgressSink = Arc<dyn Fn(&str) + Send + Sync>;

/// One unit of work: synthesize `candidate` on `dfg` under `flow`.
#[derive(Debug, Clone)]
pub struct Job {
    /// The (shared) data-flow graph.
    pub dfg: Arc<Dfg>,
    /// The module set and schedule to synthesize.
    pub candidate: Candidate,
    /// Flow options.
    pub flow: FlowOptions,
    /// Display label for progress lines and panic reports (by
    /// convention the module-set string, matching the explore report's
    /// failure entries).
    pub label: String,
}

/// What one job produced.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job's label, echoed back.
    pub label: String,
    /// The design point, or the `(module set, error)` failure entry.
    pub result: JobResult,
    /// `true` if the result came from the in-memory cache.
    pub cache_hit: bool,
    /// `true` if the result came from the durable store (and was
    /// promoted into the in-memory cache on the way out).
    pub store_hit: bool,
    /// `true` if the hit was *isomorphic*: the stored result was
    /// produced by a differently-named (or reordered) twin of this
    /// design and was remapped into this job's coordinates. Always
    /// `false` on misses and with canonization disabled.
    pub iso_hit: bool,
    /// Per-stage wall time (zero on cache hits and failures-before-BIST).
    pub timings: StageTimings,
}

impl JobOutcome {
    /// The tier that answered: `"iso"` for an isomorphic hit (a twin's
    /// result remapped), `"memory"` or `"store"` for an exact hit,
    /// `"fresh"` for an evaluation.
    pub fn tier(&self) -> &'static str {
        if self.iso_hit {
            "iso"
        } else if self.cache_hit {
            "memory"
        } else if self.store_hit {
            "store"
        } else {
            "fresh"
        }
    }
}

/// A parallel batch-synthesis engine.
///
/// One engine owns one worker budget, one result cache and one metrics
/// ledger; batches run through [`Engine::run`] share all three, so a
/// repeated sweep is answered from cache and a long campaign accumulates
/// one coherent profile.
///
/// # Determinism
///
/// [`Engine::run`] returns outcomes in submission order regardless of
/// worker count or scheduling: every job is pure (a function of its
/// content only) and results are written into per-job slots, never
/// appended in completion order. Batch output is therefore
/// byte-for-byte identical between `workers = 1` and `workers = N`.
pub struct Engine {
    workers: usize,
    cache: ResultCache,
    store: Option<Arc<dyn ResultStore>>,
    metrics: Metrics,
    progress: Option<ProgressSink>,
    canon: bool,
    subcanon: Option<Arc<FragmentTier>>,
    inflight: Mutex<HashMap<u128, Arc<Inflight>>>,
}

/// One in-flight evaluation other workers can block on (single-flight
/// dedup of concurrent jobs that share a synthesis core).
struct Inflight {
    done: Mutex<bool>,
    cv: Condvar,
}

/// Poison-tolerant lock: an unrelated panic while a lock was held must
/// not cascade into every later job (the pool already isolates the
/// panicking job itself).
fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Removes the in-flight entry and wakes followers — on the normal exit
/// *and* when the leader's evaluation panics (via `Drop` during unwind),
/// so a follower can retry leadership instead of waiting forever.
struct InflightGuard<'a> {
    engine: &'a Engine,
    key: u128,
    slot: Arc<Inflight>,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        lock_ok(&self.engine.inflight).remove(&self.key);
        *lock_ok(&self.slot.done) = true;
        self.slot.cv.notify_all();
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers)
            .field("cached", &self.cache.len())
            .field("store", &self.store.as_ref().map(|s| s.len()))
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl Engine {
    /// An engine with `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero (the CLI rejects `--jobs 0` before
    /// getting here).
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "engine needs at least one worker");
        Self {
            workers,
            cache: ResultCache::new(),
            store: None,
            metrics: Metrics::new(),
            progress: None,
            canon: true,
            subcanon: Some(Arc::new(FragmentTier::new())),
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Enables or disables the subgraph-level fragment tier (builder
    /// style; default on). The tier memoizes the shift-invariant
    /// synthesis core by rebased canonical encoding and tracks canonical
    /// fragment keys across designs; results are byte-identical either
    /// way (shift-invariance is property-tested in the core crate), so
    /// the toggle exists only as the off-reference of the determinism
    /// tests and the overhead benchmarks.
    pub fn with_subcanon(mut self, enabled: bool) -> Self {
        self.subcanon = enabled.then(|| Arc::new(FragmentTier::new()));
        self
    }

    /// `true` when the subgraph-level fragment tier is enabled.
    pub fn subcanon(&self) -> bool {
        self.subcanon.is_some()
    }

    /// Enables or disables canonical (isomorphism-level) job keys
    /// (builder style; default on). Evaluation itself always goes
    /// through the canonical form — see
    /// [`lobist_alloc::explore::evaluate_candidate_timed`] — so results
    /// are byte-identical either way; the toggle only controls whether
    /// the cache can answer a renamed/reordered twin, and exists only as
    /// the off-reference of the determinism tests and the overhead
    /// benchmarks.
    pub fn with_canon(mut self, canon: bool) -> Self {
        self.canon = canon;
        self
    }

    /// Attaches a durable second-tier result store (builder style).
    ///
    /// Lookups check the in-memory cache first, then the store; a store
    /// hit is promoted into the cache, and every fresh evaluation is
    /// written through to both. The store outlives the engine, so a
    /// restarted daemon answers repeated jobs from disk.
    pub fn with_store(mut self, store: Arc<dyn ResultStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Bounds the in-memory result cache to `capacity` entries
    /// (builder style). Only meaningful before the first batch runs.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = ResultCache::with_capacity(capacity);
        self
    }

    /// The attached durable store, if any.
    pub fn store(&self) -> Option<&Arc<dyn ResultStore>> {
        self.store.as_ref()
    }

    /// Installs a progress sink receiving one JSON line per job and
    /// batch event (builder style).
    pub fn with_progress(mut self, sink: impl Fn(&str) + Send + Sync + 'static) -> Self {
        self.progress = Some(Arc::new(sink));
        self
    }

    /// The worker budget.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The live metrics recorder, for callers that drive work outside
    /// [`Engine::run`] (fault simulation, annealing, lint) but want it
    /// accounted in this engine's snapshot — the daemon does this.
    pub fn metrics_handle(&self) -> &Metrics {
        &self.metrics
    }

    /// Point-in-time metrics (accumulated over every batch so far),
    /// with the live cache, store and fragment-tier views attached —
    /// the one way every front-end takes a snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.result_cache = Some(self.cache.stats());
        snap.cache_capacity = self.cache.capacity() as u64;
        snap.store = self.store.as_ref().map(|s| s.stats());
        snap.subcanon = self.subcanon.as_ref().map(|t| t.stats());
        snap
    }

    /// Flushes the durable store, if one is attached.
    ///
    /// # Errors
    ///
    /// Propagates the store's I/O error.
    pub fn flush_store(&self) -> std::io::Result<()> {
        match &self.store {
            Some(store) => store.flush(),
            None => Ok(()),
        }
    }

    fn emit(&self, line: &str) {
        if let Some(sink) = &self.progress {
            sink(line);
        }
    }

    /// Runs a batch, returning one outcome per job **in submission
    /// order**. A panicking job is isolated: it becomes a failure entry
    /// `(label, "job panicked: ...")` and the rest of the batch is
    /// unaffected.
    pub fn run(&self, jobs: Vec<Job>) -> Vec<JobOutcome> {
        self.run_with_workers(jobs, self.workers)
    }

    /// [`Engine::run`] with an explicit worker budget for this batch
    /// (clamped to at least 1). The daemon uses this to honor a
    /// per-request `jobs` limit while sharing one engine, cache and
    /// store across every client.
    pub fn run_with_workers(&self, jobs: Vec<Job>, workers: usize) -> Vec<JobOutcome> {
        let workers = workers.max(1);
        let n = jobs.len();
        self.metrics.add_submitted(n as u64);
        self.emit(&format!(
            "{{\"event\":\"batch\",\"jobs\":{n},\"workers\":{workers}}}"
        ));
        let labels: Vec<String> = jobs.iter().map(|j| j.label.clone()).collect();
        let tasks: Vec<_> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| move || self.run_one(i, job))
            .collect();
        let (results, stats) = pool::run_jobs(workers, tasks);
        self.metrics.record_pool(&stats);
        let outcomes: Vec<JobOutcome> = results
            .into_iter()
            .zip(labels)
            .enumerate()
            .map(|(i, (result, label))| match result {
                Ok(outcome) => outcome,
                Err(panic_msg) => {
                    self.metrics.job_panicked();
                    self.emit(&format!(
                        "{{\"event\":\"job\",\"index\":{i},\"label\":{:?},\"panicked\":true}}",
                        label
                    ));
                    JobOutcome {
                        result: Err((label.clone(), format!("job panicked: {panic_msg}"))),
                        label,
                        cache_hit: false,
                        store_hit: false,
                        iso_hit: false,
                        timings: StageTimings::default(),
                    }
                }
            })
            .collect();
        let snap = self.metrics.snapshot();
        self.emit(&format!(
            "{{\"event\":\"batch_done\",\"jobs\":{n},\"cache_hits\":{},\"utilization\":{:.4}}}",
            snap.cache_hits,
            snap.worker_utilization()
        ));
        outcomes
    }

    /// Extracts the design's canonical fragments after a fresh
    /// evaluation, classifies each key against the session registry
    /// (falling back to the durable store's fragment records, so a
    /// restarted daemon keeps its cross-design memory), and persists
    /// first sightings.
    fn observe_fragments(&self, tier: &FragmentTier, job: &Job, origin: u64) {
        let t0 = Instant::now();
        let opts = subcanon::ExtractOptions::default();
        let (fragments, stats) =
            subcanon::extract_fragments(&job.dfg, &job.candidate.schedule, &opts);
        let mut observed = 0u64;
        for frag in &fragments {
            if frag.bailed {
                continue;
            }
            observed += 1;
            let prior = tier.lookup_fragment(frag.key).or_else(|| {
                let rec = self.store.as_ref()?.get_fragment(frag.key)?;
                tier.register_fragment(frag.key, rec.origin);
                Some(rec.origin)
            });
            match prior {
                Some(first_origin) => tier.record_fragment_hit(first_origin != origin),
                None => {
                    tier.register_fragment(frag.key, origin);
                    if let Some(store) = &self.store {
                        store.put_fragment(
                            frag.key,
                            &FragmentRecord {
                                origin,
                                size: frag.ops.len() as u32,
                                inputs: frag.boundary.inputs,
                                outputs: frag.boundary.outputs,
                                consts: frag.boundary.consts,
                            },
                        );
                    }
                }
            }
        }
        tier.record_extract(observed, stats.bailouts, t0.elapsed());
    }

    fn run_one(&self, index: usize, job: Job) -> JobOutcome {
        // Canonize first (cheap, microseconds against a synthesis of
        // milliseconds): the canonical encoding keys the cache at
        // isomorphism level, and a miss synthesizes the canonical form
        // anyway. With canonization disabled the key falls back to the
        // exact text rendering and results are stored in the
        // requester's own coordinates — no remap needed on those hits.
        let canon = if self.canon {
            let t0 = Instant::now();
            let c = canonize(&job.dfg, &job.candidate.schedule);
            self.metrics.record_canonization(t0.elapsed(), c.bailed);
            Some(c)
        } else {
            None
        };
        let origin = origin_fingerprint(&to_text(&job.dfg, &job.candidate.schedule));
        let key = match &canon {
            Some(c) => canonical_job_key(&c.encoding, &job.candidate.modules, &job.flow),
            None => job_key(&job.dfg, &job.candidate, &job.flow),
        };
        let unpack = |stored: StoredResult| -> (JobResult, bool) {
            let iso = stored.origin != origin;
            match &canon {
                Some(c) => {
                    self.metrics.canon_hit(iso);
                    self.metrics.canon_remap();
                    (remap_point(stored.result, c, &job.candidate), iso)
                }
                None => (stored.result, false),
            }
        };
        // Single-flight loop: check both cache tiers, then either become
        // the leader for this job's flight key (and fall through to
        // evaluate) or wait for the in-flight leader and re-check the
        // caches.
        let _guard = loop {
            if let Some(stored) = self.cache.get(key) {
                let (result, iso_hit) = unpack(stored);
                self.metrics.job_done(true);
                self.emit(&format!(
                    concat!(
                        "{{\"event\":\"job\",\"index\":{index},\"label\":{label:?},",
                        "\"cache_hit\":true,\"iso\":{iso},\"ok\":{ok}}}"
                    ),
                    index = index,
                    label = job.label,
                    iso = iso_hit,
                    ok = result.is_ok()
                ));
                return JobOutcome {
                    label: job.label,
                    result,
                    cache_hit: true,
                    store_hit: false,
                    iso_hit,
                    timings: StageTimings::default(),
                };
            }
            if let Some(store) = &self.store {
                if let Some(stored) = store.get(key) {
                    // Promote the durable hit into the in-memory tier so a
                    // rerun within this process skips the disk read.
                    self.cache.insert(key, stored.clone());
                    let (result, iso_hit) = unpack(stored);
                    self.metrics.job_done_from_store();
                    self.emit(&format!(
                        concat!(
                            "{{\"event\":\"job\",\"index\":{index},\"label\":{label:?},",
                            "\"cache_hit\":false,\"store_hit\":true,\"iso\":{iso},\"ok\":{ok}}}"
                        ),
                        index = index,
                        label = job.label,
                        iso = iso_hit,
                        ok = result.is_ok()
                    ));
                    return JobOutcome {
                        label: job.label,
                        result,
                        cache_hit: false,
                        store_hit: true,
                        iso_hit,
                        timings: StageTimings::default(),
                    };
                }
            }
            // Miss in both tiers: either claim leadership of the flight
            // key or coalesce onto the worker already evaluating it. With
            // the fragment tier on, the flight key is the synthesis-core
            // key, so a job waits on any in-flight job whose core it can
            // reuse: a shifted sibling never races its base past the memo,
            // which makes `core_hits` a function of the job list. Equal
            // job keys imply equal core keys, so this subsumes
            // whole-design dedup. Without the tier it is the job key.
            let flight_key = match (&canon, &self.subcanon) {
                (Some(c), Some(_)) => core_memo_key(c, &job.candidate.modules, &job.flow),
                _ => None,
            }
            .unwrap_or(key);
            let claimed = {
                let mut map = lock_ok(&self.inflight);
                match map.get(&flight_key) {
                    Some(slot) => Err(Arc::clone(slot)),
                    None => {
                        let slot = Arc::new(Inflight {
                            done: Mutex::new(false),
                            cv: Condvar::new(),
                        });
                        map.insert(flight_key, Arc::clone(&slot));
                        Ok(slot)
                    }
                }
            };
            match claimed {
                Ok(slot) => {
                    break InflightGuard {
                        engine: self,
                        key: flight_key,
                        slot,
                    }
                }
                Err(slot) => {
                    // A job with the same synthesis core is already
                    // running: block on its completion, then loop back to
                    // the caches (and, on a miss, to the core memo it
                    // filled). If the leader panicked (or its entry was
                    // evicted before we woke), the re-check misses and we
                    // claim leadership ourselves — never a wrong result, at
                    // worst a second evaluation of a pure function.
                    self.metrics.coalesced();
                    let mut done = lock_ok(&slot.done);
                    while !*done {
                        done = slot.cv.wait(done).unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        };
        // The expensive part runs outside any lock, so a panic here
        // (caught at the pool's job boundary) cannot poison the cache or
        // the metrics.
        let tier = self.subcanon.as_deref();
        let (stored, result, timings, core_hit) = match &canon {
            Some(c) => {
                // Store in canonical coordinates, return in the
                // requester's: every isomorphic requester — this one
                // included — gets the identical remapped bytes.
                let (canonical, timings, core_hit) =
                    evaluate_canonical_timed_with_tier(c, &job.candidate.modules, &job.flow, tier);
                let stored = StoredResult {
                    origin,
                    result: canonical,
                };
                self.metrics.canon_remap();
                let result = remap_point(stored.result.clone(), c, &job.candidate);
                (stored, result, timings, core_hit)
            }
            None => {
                let (result, timings, core_hit) =
                    evaluate_candidate_timed_with_tier(&job.dfg, &job.candidate, &job.flow, tier);
                let stored = StoredResult {
                    origin,
                    result: result.clone(),
                };
                (stored, result, timings, core_hit)
            }
        };
        self.cache.insert(key, stored.clone());
        if let Some(store) = &self.store {
            store.put(key, &stored);
        }
        // Fragments are observed only when a design was actually
        // synthesized: a core-memo hit's fragments were registered when
        // its core was first built, and re-walking them would put the
        // extraction cost right back on the path the memo just skipped.
        if !core_hit {
            if let Some(tier) = &self.subcanon {
                self.observe_fragments(tier, &job, origin);
            }
        }
        self.metrics.job_done(false);
        self.metrics.record_stages(&timings);
        self.emit(&format!(
            "{{\"event\":\"job\",\"index\":{index},\"label\":{:?},\"cache_hit\":false,\"ok\":{},\"micros\":{}}}",
            job.label,
            result.is_ok(),
            timings.total().as_micros()
        ));
        JobOutcome {
            label: job.label,
            result,
            cache_hit: false,
            store_hit: false,
            iso_hit: false,
            timings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobist_dfg::benchmarks;
    use std::sync::Mutex;

    fn ex1_job(flow: FlowOptions) -> Job {
        let bench = benchmarks::ex1();
        Job {
            dfg: Arc::new(bench.dfg.clone()),
            candidate: Candidate {
                modules: bench.module_allocation.clone(),
                schedule: bench.schedule.clone(),
            },
            flow: flow.with_lifetimes(bench.lifetime_options),
            label: bench.module_allocation.to_string(),
        }
    }

    #[test]
    fn repeated_jobs_hit_the_cache() {
        let engine = Engine::new(2);
        let first = engine.run(vec![ex1_job(FlowOptions::testable())]);
        assert!(!first[0].cache_hit);
        let point = first[0].result.as_ref().expect("synthesizes").clone();
        let again = engine.run(vec![ex1_job(FlowOptions::testable())]);
        assert!(again[0].cache_hit);
        let cached = again[0].result.as_ref().expect("synthesizes");
        assert_eq!(point.latency, cached.latency);
        assert_eq!(point.functional_gates, cached.functional_gates);
        assert_eq!(point.bist_gates, cached.bist_gates);
        let snap = engine.metrics();
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
    }

    #[test]
    fn different_flows_do_not_share_cache_entries() {
        let engine = Engine::new(1);
        engine.run(vec![ex1_job(FlowOptions::testable())]);
        let other = engine.run(vec![ex1_job(FlowOptions::traditional())]);
        assert!(!other[0].cache_hit);
    }

    #[test]
    fn store_tier_answers_a_fresh_engine() {
        let dir = std::env::temp_dir().join("lobist-engine-store-tier");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("tier.log");
        let _ = std::fs::remove_file(&path);
        let store: Arc<dyn ResultStore> = Arc::new(
            lobist_store::DiskStore::open(&path, lobist_store::DiskStoreConfig::default())
                .expect("open store"),
        );
        // First engine evaluates and writes through to the store.
        let first = Engine::new(1).with_store(Arc::clone(&store));
        let warm = first.run(vec![ex1_job(FlowOptions::testable())]);
        assert!(!warm[0].cache_hit && !warm[0].store_hit);
        let point = warm[0].result.as_ref().expect("synthesizes").clone();
        // A fresh engine (empty in-memory cache) sharing the store is
        // answered from disk — the restarted-daemon case.
        let second = Engine::new(1).with_store(Arc::clone(&store));
        let served = second.run(vec![ex1_job(FlowOptions::testable())]);
        assert!(!served[0].cache_hit, "memory tier was empty");
        assert!(served[0].store_hit, "disk tier must answer");
        let from_disk = served[0].result.as_ref().expect("synthesizes");
        assert_eq!(point.latency, from_disk.latency);
        assert_eq!(point.functional_gates, from_disk.functional_gates);
        assert_eq!(point.bist_gates, from_disk.bist_gates);
        let snap = second.metrics();
        assert_eq!(snap.store_hits, 1);
        assert!(snap.store.is_some(), "metrics carry the store section");
        // The hit was promoted: a rerun on the same engine is a memory
        // hit, not another disk read.
        let third = second.run(vec![ex1_job(FlowOptions::testable())]);
        assert!(third[0].cache_hit && !third[0].store_hit);
        let json = second.metrics().to_json();
        assert!(json.contains("\"store\":{"), "{json}");
        assert!(json.contains("\"store_hits\":1"), "{json}");
    }

    #[test]
    fn identical_concurrent_jobs_coalesce_to_one_evaluation() {
        // Four identical jobs in one parallel batch: exactly one may
        // evaluate. A follower either coalesces onto the in-flight
        // leader or arrives after the insert and hits the cache — both
        // paths end at misses == 1, hits == 3, deterministically.
        let engine = Engine::new(4);
        let outcomes = engine.run(vec![
            ex1_job(FlowOptions::testable()),
            ex1_job(FlowOptions::testable()),
            ex1_job(FlowOptions::testable()),
            ex1_job(FlowOptions::testable()),
        ]);
        assert_eq!(outcomes.len(), 4);
        let baseline = outcomes[0].result.as_ref().expect("synthesizes");
        for o in &outcomes {
            let point = o.result.as_ref().expect("synthesizes");
            assert_eq!(point.latency, baseline.latency);
            assert_eq!(point.functional_gates, baseline.functional_gates);
            assert_eq!(point.bist_gates, baseline.bist_gates);
        }
        let snap = engine.metrics();
        assert_eq!(snap.cache_misses, 1, "single evaluation for the batch");
        assert_eq!(snap.cache_hits, 3);
        let json = snap.to_json();
        assert!(json.contains("\"coalesced\":"), "{json}");
    }

    #[test]
    fn subcanon_tier_reports_metrics_and_can_be_disabled() {
        let engine = Engine::new(1);
        assert!(engine.subcanon(), "tier defaults on");
        engine.run(vec![ex1_job(FlowOptions::testable())]);
        let snap = engine.metrics();
        let stats = snap.subcanon.as_ref().expect("tier stats attached");
        assert_eq!(stats.core_misses, 1, "first evaluation misses the memo");
        assert!(stats.fragments > 0, "ex1 yields at least one fragment");
        let json = snap.to_json();
        assert!(json.contains("\"subcanon\":{\"fragments\":"), "{json}");
        assert!(json.contains("\"extract_micros_log2\":["), "{json}");

        let off = Engine::new(1).with_subcanon(false);
        assert!(!off.subcanon());
        off.run(vec![ex1_job(FlowOptions::testable())]);
        let json = off.metrics().to_json();
        assert!(!json.contains("\"subcanon\""), "{json}");
    }

    #[test]
    fn progress_lines_are_json_events() {
        let lines: Arc<Mutex<Vec<String>>> = Arc::default();
        let sink = Arc::clone(&lines);
        let engine =
            Engine::new(2).with_progress(move |l| sink.lock().expect("lock").push(l.to_owned()));
        engine.run(vec![ex1_job(FlowOptions::testable())]);
        let lines = lines.lock().expect("lock");
        assert!(lines.iter().any(|l| l.contains("\"event\":\"batch\"")));
        assert!(lines.iter().any(|l| l.contains("\"event\":\"job\"")));
        assert!(lines.iter().any(|l| l.contains("\"event\":\"batch_done\"")));
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}

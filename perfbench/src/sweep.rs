//! The two batch workloads: `sweep-large` (cold, every key distinct)
//! and `sweep-twins` (renamed twins, shifted twin kernels and repeats
//! over a fresh durable store).

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lobist_alloc::explore::{evaluate_candidate, Candidate};
use lobist_alloc::flow::{synthesize, FlowOptions};
use lobist_datapath::area::AreaModel;
use lobist_datapath::simulate::simulate;
use lobist_dfg::interp;
use lobist_dfg::modules::ModuleSet;
use lobist_dfg::VarId;
use lobist_engine::{Engine, Job, JobResult};
use lobist_store::codec;
use lobist_store::{DiskStore, DiskStoreConfig, StoredResult};

use crate::inputs::{is_twin, splitmix64, DesignText};
use crate::report::{median_secs, ms, quantile, sorted, Outcome, MIN_P90_SAMPLES};
use crate::trace::{load_design, Replica, Tracer};
use crate::Config;

/// Engine workers of the timed runs (the box has two CPUs).
pub const WORKERS: usize = 2;
/// Set-up repetitions behind the reported median.
pub const SETUP_REPS: usize = 9;
/// Input vectors per design for the simulation oracle.
const SIM_VECTORS: usize = 8;

/// The flow every sweep job runs: the paper's testable flow at the
/// CLI's default 8-bit width.
pub fn sweep_flow() -> FlowOptions {
    let mut flow = FlowOptions::testable();
    flow.area = AreaModel::with_width(8);
    flow
}

/// Parses and schedules the generated designs into engine jobs, the
/// way `lobist batch` does.
fn build_jobs(designs: &[DesignText], tr: &mut Tracer) -> Vec<Job> {
    let flow = sweep_flow();
    designs
        .iter()
        .map(|d| {
            let modules: ModuleSet = d.modules.parse().expect("valid module set");
            let (dfg, schedule) = load_design(tr, &d.text, &modules);
            Job {
                dfg: Arc::new(dfg),
                candidate: Candidate { modules, schedule },
                flow: flow.clone(),
                label: d.label.clone(),
            }
        })
        .collect()
}

fn fresh_store(path: &Path) -> Arc<DiskStore> {
    let _ = std::fs::remove_file(path);
    Arc::new(DiskStore::open(path, DiskStoreConfig::default()).expect("open store log"))
}

/// The store codec's bytes for a result, the byte-for-byte comparison
/// key of the oracle.
pub fn result_bytes(result: &JobResult) -> Vec<u8> {
    codec::encode(&StoredResult {
        origin: 0,
        result: result.clone(),
    })
}

/// Runs one sweep workload.
pub fn run(
    cfg: &Config,
    generate: impl Fn() -> Vec<DesignText>,
    with_store: bool,
    out: &mut Outcome,
) {
    let store_path = cfg
        .run_dir
        .join(format!("{}-s{}.log", cfg.workload, cfg.seed));

    // Set-up: input generation, parse and schedule, engine (and store)
    // construction — repeated, median reported.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut designs = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        designs = generate();
        jobs = build_jobs(&designs, &mut Tracer::new());
        let mut engine = Engine::new(WORKERS);
        if with_store {
            engine = engine.with_store(fresh_store(&store_path));
        }
        setup.push(t0.elapsed());
        drop(engine);
    }
    out.e2e("setup_s", median_secs(&setup), "s");

    // Reference results, uncached and outside the timed section.
    let reference: Vec<Vec<u8>> = jobs
        .iter()
        .map(|j| result_bytes(&evaluate_candidate(&j.dfg, &j.candidate, &j.flow)))
        .collect();
    check_designs(&designs, &jobs, cfg.seed, out);

    // Timed section: whole cold batches until the time is up (and the
    // p90 has enough samples behind it). Throughput, the median latency
    // and peak memory are medians over batches, which keeps one
    // disturbed batch on a noisy host from moving the run's figure. The
    // median latency is taken per batch first: an 8-job batch finishes
    // in separated groups, and the pooled median would fall in the gap
    // between two of them.
    let mut latencies = Vec::new();
    let (mut walls, mut peaks, mut medians) = (Vec::new(), Vec::new(), Vec::new());
    let (mut jobs_done, mut batch_wall) = (0u64, Duration::ZERO);
    let (mut busy, mut capacity) = (Duration::ZERO, Duration::ZERO);
    let (mut reused, mut coalesced, mut core_hits) = (0u64, 0u64, 0u64);
    while batch_wall.as_secs_f64() < cfg.seconds || latencies.len() < MIN_P90_SAMPLES {
        let stamps: Arc<Mutex<Vec<Instant>>> = Arc::default();
        let sink = Arc::clone(&stamps);
        let mut engine = Engine::new(WORKERS).with_progress(move |line| {
            if line.starts_with("{\"event\":\"job\"") {
                sink.lock().expect("stamp lock").push(Instant::now());
            }
        });
        if with_store {
            engine = engine.with_store(fresh_store(&store_path));
        }
        let batch = jobs.clone();
        crate::report::reset_peak_rss();
        let t0 = Instant::now();
        let outcomes = engine.run(batch);
        let wall = t0.elapsed();
        peaks.push(crate::report::peak_rss_mb());
        walls.push(wall);
        batch_wall += wall;
        jobs_done += outcomes.len() as u64;
        let batch_lat = sorted(
            stamps
                .lock()
                .expect("stamp lock")
                .iter()
                .map(|&t| ms(t - t0))
                .collect(),
        );
        medians.push(quantile(&batch_lat, 0.5));
        latencies.extend(batch_lat);
        let snap = engine.metrics();
        busy += snap.busy;
        capacity += snap.capacity;
        coalesced += snap.coalesced;
        core_hits += snap.subcanon.map_or(0, |s| s.core_hits);
        for (i, o) in outcomes.iter().enumerate() {
            reused += u64::from(o.cache_hit || o.store_hit);
            if let Err((m, e)) = &o.result {
                out.mismatch(format!("{}: job failed under {m}: {e}", o.label));
            } else if result_bytes(&o.result) != reference[i] {
                out.mismatch(format!("{}: engine result differs from reference", o.label));
            }
        }
    }
    out.attempted += jobs_done;
    let lat = sorted(latencies);
    out.e2e("jobs_per_s", jobs.len() as f64 / median_secs(&walls), "1/s");
    out.e2e("job_p50_ms", quantile(&sorted(medians), 0.5), "ms");
    out.e2e("job_p90_ms", quantile(&lat, 0.9), "ms");
    out.e2e("peak_rss_mb", quantile(&sorted(peaks), 0.5), "MB");
    let (func, bist) = gate_sums(&reference);
    out.e2e("bist_area_pct", 100.0 * bist as f64 / func as f64, "%");
    out.e2e("total_gates", (func + bist) as f64, "gates");
    out.notes.push(format!(
        "{} batches of {} jobs, {} latency samples",
        jobs_done / jobs.len() as u64,
        jobs.len(),
        lat.len()
    ));

    out.layer(
        "engine.reuse_ratio",
        (reused + core_hits) as f64 / jobs_done as f64,
        "fraction",
    );
    out.layer("engine.coalesced", coalesced as f64, "count");
    out.layer(
        "engine.pool_util",
        busy.as_secs_f64() / capacity.as_secs_f64(),
        "fraction",
    );
    out.layer("trace.samples", lat.len() as f64, "count");
    // The sweeps drive the engine directly: no wire, no admission queue.
    for name in [
        "server.queue_wait_p50_ms",
        "server.queue_wait_p90_ms",
        "server.exec_p50_ms",
    ] {
        out.layer(name, 0.0, "ms");
    }
    for (cmd, _) in crate::inputs::MIX {
        out.layer(&format!("server.exec_ms.{cmd}"), 0.0, "ms");
    }
    if cfg.trace {
        // The untraced wall of one batch at the replay's worker count
        // (median of three), the base of the tracing-plus-replica
        // overhead.
        let serial: Vec<Duration> = (0..3)
            .map(|_| {
                let mut engine = Engine::new(1);
                if with_store {
                    engine = engine.with_store(fresh_store(&store_path));
                }
                let t0 = Instant::now();
                engine.run(jobs.clone());
                t0.elapsed()
            })
            .collect();
        let serial_wall = Duration::from_secs_f64(median_secs(&serial));
        traced(
            cfg,
            &designs,
            &reference,
            with_store,
            &store_path,
            serial_wall,
            out,
        );
    }
    let _ = std::fs::remove_file(&store_path);
}

/// Σ functional and Σ BIST gates over the reference results.
fn gate_sums(reference: &[Vec<u8>]) -> (u64, u64) {
    let (mut func, mut bist) = (0u64, 0u64);
    for bytes in reference {
        if let Ok(StoredResult { result: Ok(p), .. }) = codec::decode(bytes) {
            func += p.functional_gates.get();
            bist += p.bist_gates.get();
        }
    }
    (func, bist)
}

/// Simulates each distinct base design's reference data path against
/// the DFG interpreter on seeded input vectors. Twins are isomorphic to
/// their base and are answered from the base's canonical synthesis.
pub fn check_designs(designs: &[DesignText], jobs: &[Job], seed: u64, out: &mut Outcome) {
    for (d, j) in designs.iter().zip(jobs) {
        if is_twin(d) {
            continue;
        }
        check_simulation(&d.label, &j.dfg, &j.candidate, &j.flow, seed, out);
    }
}

/// One design's simulation check.
pub fn check_simulation(
    label: &str,
    dfg: &lobist_dfg::Dfg,
    candidate: &Candidate,
    flow: &FlowOptions,
    seed: u64,
    out: &mut Outcome,
) {
    let width = flow.area.width;
    let design = match synthesize(dfg, &candidate.schedule, &candidate.modules, flow) {
        Ok(d) => d,
        Err(e) => return out.mismatch(format!("{label}: reference synthesis failed: {e}")),
    };
    let mut rng = seed ^ 0x51_u64;
    let mask = if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    for _ in 0..SIM_VECTORS {
        let inputs: HashMap<VarId, u64> = dfg
            .primary_inputs()
            .map(|v| (v, splitmix64(&mut rng) & mask))
            .collect();
        let sim = simulate(&design.data_path, dfg, &candidate.schedule, &inputs, width);
        let gold = interp::outputs(dfg, &inputs, width);
        match (sim, gold) {
            (Ok(s), Ok(g)) if s == g => {}
            _ => return out.mismatch(format!("{label}: data path simulation differs from DFG")),
        }
    }
}

/// The traced replay of one batch, with one worker.
fn traced(
    cfg: &Config,
    designs: &[DesignText],
    reference: &[Vec<u8>],
    with_store: bool,
    store_path: &Path,
    untraced_wall: Duration,
    out: &mut Outcome,
) {
    let mut tr = Tracer::new();
    let jobs = build_jobs(designs, &mut tr);
    let mut replica = Replica::new(with_store.then(|| fresh_store(store_path)));
    for (i, job) in jobs.iter().enumerate() {
        tr.set_job(i as u32 + 1);
        let (result, _) = tr.span("job", |tr| {
            replica.run_job(tr, &job.dfg, &job.candidate, &job.flow)
        });
        if result_bytes(&result) != reference[i] {
            out.mismatch(format!(
                "{}: traced replay differs from untraced run",
                job.label
            ));
        }
    }
    replica.flush(&mut tr);
    let wall = tr.wall();
    let log_bytes = if with_store {
        std::fs::metadata(store_path).map_or(0, |m| m.len())
    } else {
        0
    };
    crate::layers(cfg, &tr, &replica.counts, wall, out);
    out.layer("store.log_bytes", log_bytes as f64, "bytes");
    // Tracing plus replica overhead: the replayed jobs against one
    // untraced single-worker batch.
    let replayed = tr.total("job");
    out.layer(
        "trace.gap_frac",
        replayed.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0,
        "fraction",
    );
}

//! End-to-end benchmark of the lobist workspace.
//!
//! ```text
//! perfbench --workload <sweep-large|sweep-twins|daemon-session|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-check
//! ```
//!
//! Each workload is generated from the seed, set up several times (the
//! median set-up time is reported), measured with tracing off for the
//! given number of seconds, and checked against independent references
//! outside the timed section. `--trace 1` adds a separate single-worker
//! replay of the same work with a span around every call into a layer,
//! and reports the per-layer split instead of the end-to-end metrics.
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.

mod daemon;
mod inputs;
mod report;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use report::{Metric, Outcome};
use trace::{Counts, Tracer};

/// One workload run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Timed-section length.
    pub seconds: f64,
    /// Add the traced replay.
    pub trace: bool,
    /// Corpus sizes the workload generates its designs at.
    pub sizes: Vec<u32>,
    /// Scratch directory for store logs, sockets and span dumps.
    pub run_dir: PathBuf,
}

/// The workloads, with their default corpus sizes.
const WORKLOADS: [(&str, &[u32]); 3] = [
    ("sweep-large", &[48, 64]),
    ("sweep-twins", &[8, 12, 16, 20, 24]),
    ("daemon-session", &[8, 12, 16]),
];

/// Tiny sizes of the self-check mode.
const SELF_CHECK_SIZES: [(&str, &[u32]); 3] = [
    ("sweep-large", &[8]),
    ("sweep-twins", &[8]),
    ("daemon-session", &[8]),
];

/// End-to-end metrics every workload reports, with units.
pub const E2E: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("bist_area_pct", "%"),
    ("total_gates", "gates"),
];

/// Spans whose self time is reported as `<name>_ms`.
const LAYER_SPANS: [&str; 21] = [
    "dfg.parse",
    "dfg.schedule",
    "dfg.canonize",
    "dfg.fragments",
    "core.module_assign",
    "core.register_alloc",
    "core.interconnect",
    "core.anneal",
    "datapath.build",
    "bist.solve",
    "engine.lookup",
    "engine.remap",
    "store.put",
    "store.get",
    "store.replay",
    "store.flush",
    "gatesim.prepare",
    "gatesim.detect",
    "gatesim.collapse",
    "lint.lint",
    "lint.analyze",
];

/// Per-layer metrics every traced run reports, with units.
pub fn layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = LAYER_SPANS
        .iter()
        .map(|s| (format!("{s}_ms"), "ms"))
        .collect();
    for (name, unit) in [
        ("core.register_alloc_max_ms", "ms"),
        ("core.regalloc_candidates", "count"),
        ("engine.reuse_ratio", "fraction"),
        ("engine.coalesced", "count"),
        ("engine.pool_util", "fraction"),
        ("store.log_bytes", "bytes"),
        ("server.queue_wait_p50_ms", "ms"),
        ("server.queue_wait_p90_ms", "ms"),
        ("server.exec_p50_ms", "ms"),
        ("server.exec_ms.synth", "ms"),
        ("server.exec_ms.lint", "ms"),
        ("server.exec_ms.analyze", "ms"),
        ("server.exec_ms.faultsim", "ms"),
        ("server.exec_ms.anneal", "ms"),
        ("gatesim.cone_evals", "count"),
        ("gatesim.events", "count"),
        ("trace.explained_frac", "fraction"),
        ("trace.gap_frac", "fraction"),
        ("trace.samples", "count"),
    ] {
        names.push((name.to_owned(), unit));
    }
    names
}

/// Root spans: one per replayed job or request. Their self time is the
/// part of the traced wall no layer explains.
const ROOT_SPANS: [&str; 2] = ["job", "request"];

/// Fills the per-layer metrics that come from a traced replay.
pub fn layers(cfg: &Config, tr: &Tracer, counts: &Counts, wall: Duration, out: &mut Outcome) {
    let self_times = tr.self_times();
    for name in LAYER_SPANS {
        let t = self_times.get(name).copied().unwrap_or_default();
        out.layer_ms(&format!("{name}_ms"), t);
    }
    out.layer_ms(
        "core.register_alloc_max_ms",
        tr.max_span("core.register_alloc"),
    );
    out.layer(
        "core.regalloc_candidates",
        counts.regalloc_candidates as f64,
        "count",
    );
    out.layer("gatesim.cone_evals", counts.sim.cone_evals as f64, "count");
    out.layer(
        "gatesim.events",
        counts.sim.events_propagated as f64,
        "count",
    );
    let explained: Duration = self_times
        .iter()
        .filter(|(name, _)| !ROOT_SPANS.contains(name))
        .map(|(_, &t)| t)
        .sum();
    out.layer(
        "trace.explained_frac",
        explained.as_secs_f64() / wall.as_secs_f64(),
        "fraction",
    );
    let dump = cfg
        .run_dir
        .join(format!("spans-{}-s{}.jsonl", cfg.workload, cfg.seed));
    if let Err(e) = std::fs::write(&dump, tr.to_jsonl()) {
        eprintln!("perfbench: cannot write {}: {e}", dump.display());
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <sweep-large|sweep-twins|daemon-session|all> \
         --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-check"
    );
    std::process::exit(2);
}

fn run_workload(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let (seed, sizes) = (cfg.seed, cfg.sizes.clone());
    match cfg.workload.as_str() {
        "sweep-large" => sweep::run(cfg, || inputs::sweep_large(seed, &sizes), false, &mut out),
        "sweep-twins" => sweep::run(cfg, || inputs::sweep_twins(seed, &sizes), true, &mut out),
        "daemon-session" => daemon::run(cfg, &mut out),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            usage();
        }
    }
    out
}

fn fmt_metrics(metrics: &[Metric], prefix: &str) -> String {
    metrics
        .iter()
        .map(|m| {
            format!(
                "\"{prefix}{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                if m.value.is_finite() { m.value } else { -1.0 },
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Prints the human-readable table of one workload run.
fn print_table(workload: &str, out: &Outcome) {
    for note in &out.notes {
        println!("# {workload}: {note}");
    }
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "{workload:<16} {:<28} {:>14} fraction",
        "fail_frac", fail_frac
    );
    for m in out.e2e.iter().chain(&out.layers) {
        println!("{workload:<16} {:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
}

fn parse_args(args: &[String]) -> (Config, bool) {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut self_check = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--self-check" => self_check = true,
            _ => usage(),
        }
    }
    let workload = match (workload, self_check) {
        (Some(w), _) => w,
        (None, true) => "all".to_owned(),
        (None, false) => usage(),
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        sizes: Vec::new(),
        run_dir: PathBuf::from(".bench_run"),
    };
    (cfg, self_check)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, self_check) = parse_args(&args);
    if let Err(e) = std::fs::create_dir_all(&cfg.run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.run_dir.display());
        std::process::exit(1);
    }
    if self_check {
        std::process::exit(if run_self_check(&cfg) { 0 } else { 1 });
    }
    let selected: Vec<(&str, &[u32])> = WORKLOADS
        .iter()
        .copied()
        .filter(|(w, _)| cfg.workload == "all" || cfg.workload == *w)
        .collect();
    if selected.is_empty() {
        eprintln!("perfbench: unknown workload `{}`", cfg.workload);
        usage();
    }
    let mut parts = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (workload, sizes) in &selected {
        let wcfg = Config {
            workload: (*workload).to_owned(),
            sizes: sizes.to_vec(),
            ..cfg.clone()
        };
        report::reset_peak_rss();
        let out = run_workload(&wcfg);
        print_table(workload, &out);
        attempted += out.attempted;
        failed += out.failed;
        let metrics = if cfg.trace { &out.layers } else { &out.e2e };
        let prefix = if selected.len() > 1 {
            format!("{workload}/")
        } else {
            String::new()
        };
        parts.push(fmt_metrics(metrics, &prefix));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        parts.join(",")
    );
}

/// Checks that `BENCHMARK.json` lists exactly the metrics this program
/// reports, with the same units.
fn check_manifest(check: &mut impl FnMut(bool, String)) {
    use lobist_server::json::Json;
    let text = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(t) => t,
        Err(e) => return check(false, format!("cannot read BENCHMARK.json: {e}")),
    };
    let manifest = match Json::parse(&text) {
        Ok(m) => m,
        Err(e) => return check(false, format!("BENCHMARK.json: {e}")),
    };
    let listed = |key: &str| -> Vec<(String, String)> {
        match manifest.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                    (field("name"), field("unit"))
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    let own = |names: Vec<(String, &str)>| -> Vec<(String, String)> {
        names.into_iter().map(|(n, u)| (n, u.to_owned())).collect()
    };
    let e2e = own(E2E.iter().map(|&(n, u)| (n.to_owned(), u)).collect());
    check(
        listed("end_to_end") == e2e,
        format!("BENCHMARK.json end_to_end differs from {e2e:?}"),
    );
    let layers = own(layer_names());
    check(
        listed("per_layer") == layers,
        format!("BENCHMARK.json per_layer differs from {layers:?}"),
    );
}

/// Runs every workload on tiny sizes, traced and untraced, and checks
/// that every metric is reported with its unit, that nothing failed,
/// and that the exact counters repeat across two runs of one seed.
fn run_self_check(base: &Config) -> bool {
    let mut failures = 0usize;
    let mut check = |cond: bool, what: String| {
        if !cond {
            eprintln!("self-check: FAIL {what}");
            failures += 1;
        }
    };
    check_manifest(&mut check);
    let exact = [
        "core.regalloc_candidates",
        "gatesim.cone_evals",
        "gatesim.events",
        "store.log_bytes",
    ];
    for (workload, sizes) in SELF_CHECK_SIZES {
        let cfg = Config {
            workload: workload.to_owned(),
            seconds: 0.5,
            sizes: sizes.to_vec(),
            ..base.clone()
        };
        let plain = run_workload(&cfg);
        let traced = [true, true].map(|_| {
            run_workload(&Config {
                trace: true,
                ..cfg.clone()
            })
        });
        for out in [&plain, &traced[0], &traced[1]] {
            check(
                out.failed == 0 && out.attempted > 0,
                format!(
                    "{workload}: {} of {} failed: {:?}",
                    out.failed, out.attempted, out.notes
                ),
            );
        }
        for (name, unit) in E2E {
            let m = plain.e2e.iter().find(|m| m.name == name);
            check(
                m.is_some_and(|m| m.unit == unit && m.value.is_finite() && m.value > 0.0),
                format!("{workload}: end-to-end metric {name} [{unit}] missing or not positive"),
            );
        }
        for (name, unit) in layer_names() {
            let m = traced[0].layers.iter().find(|m| m.name == name);
            check(
                m.is_some_and(|m| m.unit == unit && m.value.is_finite()),
                format!("{workload}: per-layer metric {name} [{unit}] missing"),
            );
        }
        for name in exact
            .iter()
            .copied()
            .chain(["bist_area_pct", "total_gates"])
        {
            let get = |o: &Outcome| {
                o.layers
                    .iter()
                    .chain(&o.e2e)
                    .find(|m| m.name == name)
                    .map(|m| m.value)
            };
            let (a, b) = (get(&traced[0]), get(&traced[1]));
            let (c, d) = (get(&plain), get(&traced[1]));
            check(
                a == b && (c.is_none() || d.is_none() || c == d),
                format!("{workload}: exact counter {name} differs across runs: {a:?} vs {b:?}"),
            );
        }
        println!("self-check: {workload} checked");
    }
    println!("self-check: {failures} failure(s)");
    failures == 0
}

//! `daemon-session`: an in-process `Server` on a Unix socket, restarted
//! on a store log primed by an earlier untimed session, driven by two
//! closed-loop clients (each sends its next request only after the
//! previous one's terminal event, with zero think time).

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lobist_alloc::explore::{evaluate_candidate, Candidate, DesignPoint};
use lobist_alloc::flow::{synthesize, FlowOptions};
use lobist_datapath::area::AreaModel;
use lobist_dfg::lifetime::LifetimeOptions;
use lobist_dfg::modules::ModuleSet;
use lobist_dfg::{Dfg, Schedule};
use lobist_gatesim::bist_mode::run_session_with_controls;
use lobist_gatesim::coverage::enumerate_faults;
use lobist_server::json::Json;
use lobist_server::proto::is_terminal_event;
use lobist_server::{Server, ServerConfig, ServerHandle};
use lobist_store::{DiskStore, DiskStoreConfig};

use crate::inputs::{self, DesignText, Request, ANNEAL_ITERATIONS, FAULTSIM_WIDTH};
use crate::report::{median_secs, ms, quantile, sorted, Outcome};
use crate::sweep::{check_simulation, SETUP_REPS, WORKERS};
use crate::trace::{self, Counts, Replica, Tracer};
use crate::Config;

/// Requests generated per client (far more than a run completes).
const LIST_LEN: usize = 20_000;
/// Requests per client replayed by the traced run.
const REPLAY_PER_CLIENT: usize = 60;
/// Closed-loop clients (one connection each).
const CLIENTS: u64 = 2;

/// One completed request as the client saw it.
#[derive(Debug, Clone)]
struct Record {
    client: usize,
    index: usize,
    sent: Instant,
    accepted: Option<Instant>,
    end: Instant,
    result: Option<Arc<str>>,
    /// The result event spanned more than one line.
    split: bool,
    terminal: String,
}

fn server_config(sock: &Path, store: &Path) -> ServerConfig {
    ServerConfig {
        tcp: None,
        unix: Some(sock.to_path_buf()),
        workers: WORKERS,
        max_active: 1,
        store: Some(store.to_path_buf()),
        ..ServerConfig::default()
    }
}

/// A bound server running on its own thread.
struct Running {
    handle: ServerHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn start(server: Server) -> Self {
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Self { handle, thread }
    }

    fn stop(self) {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => panic!("server drain failed: {e}"),
            Err(_) => panic!("server thread panicked"),
        }
    }
}

/// Distinct result payloads, shared by every record that received one:
/// repeated requests get identical payloads, and keeping one copy keeps
/// the client's bookkeeping out of the peak memory it measures.
#[derive(Default)]
struct Payloads(Mutex<HashSet<Arc<str>>>);

impl Payloads {
    /// Interns a `result` event with its request id removed.
    fn intern(&self, line: &str) -> Arc<str> {
        let prefix = "{\"event\":\"result\",\"id\":";
        let body = line
            .strip_prefix(prefix)
            .map(|rest| rest.trim_start_matches(|c: char| c.is_ascii_digit()))
            .unwrap_or(line);
        let key = format!("{{\"event\":\"result\"{body}");
        let mut set = self.0.lock().expect("payload lock");
        match set.get(key.as_str()) {
            Some(p) => Arc::clone(p),
            None => {
                let p: Arc<str> = key.into();
                set.insert(Arc::clone(&p));
                p
            }
        }
    }
}

/// One client connection that sends a request and reads its events.
struct Client {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn connect(sock: &Path) -> Self {
        let stream = UnixStream::connect(sock).expect("connect to daemon");
        let reader = BufReader::new(stream.try_clone().expect("clone socket"));
        Self { stream, reader }
    }

    /// Sends one request line and reads until its terminal event.
    fn call(&mut self, payloads: &Payloads, client: usize, index: usize, line: &str) -> Record {
        let sent = Instant::now();
        self.stream
            .write_all(line.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .expect("send request");
        let (mut accepted, mut result, mut split) = (None, None::<String>, false);
        loop {
            let mut event = String::new();
            let n = self.reader.read_line(&mut event).expect("read event");
            assert!(n > 0, "daemon closed the connection mid-request");
            let event = event.trim_end_matches('\n').to_owned();
            if event.starts_with("{\"event\":\"accepted\"") {
                accepted = Some(Instant::now());
            } else if event.starts_with("{\"event\":\"result\"") {
                result = Some(event);
            } else if event.starts_with("{\"event\":") && is_terminal_event(&event) {
                return Record {
                    client,
                    index,
                    sent,
                    accepted,
                    end: Instant::now(),
                    result: result.map(|r| payloads.intern(&r)),
                    split,
                    terminal: event,
                };
            } else if let Some(r) = result.as_mut() {
                // A payload that itself contains newlines arrives split
                // over several lines; reassemble it and count the split.
                r.push('\n');
                r.push_str(&event);
                split = true;
            }
        }
    }
}

fn daemon_flow(design: &DesignText, width: u32) -> FlowOptions {
    let mut flow = FlowOptions::testable();
    flow.area = AreaModel::with_width(width);
    flow.lifetime_options = if design.port_inputs {
        LifetimeOptions::port_inputs()
    } else {
        LifetimeOptions::registered_inputs()
    };
    flow
}

fn flow_for(cmd: &str, design: &DesignText) -> FlowOptions {
    daemon_flow(design, if cmd == "faultsim" { FAULTSIM_WIDTH } else { 8 })
}

fn modules_of(design: &DesignText) -> ModuleSet {
    design.modules.parse().expect("valid module set")
}

fn load(design: &DesignText) -> (Dfg, Schedule) {
    trace::load_design(&mut Tracer::new(), &design.text, &modules_of(design))
}

/// Runs the `daemon-session` workload.
pub fn run(cfg: &Config, out: &mut Outcome) {
    let smallest = cfg.sizes.iter().copied().min().unwrap_or(8);
    let tag = format!("daemon-s{}-{}", cfg.seed, std::process::id());
    let primed = cfg.run_dir.join(format!("{tag}.primed.log"));
    let live = cfg.run_dir.join(format!("{tag}.log"));
    let replica_log = cfg.run_dir.join(format!("{tag}.replica.log"));
    // A relative socket path keeps clear of the 108-byte limit.
    let sock = cfg.run_dir.join(format!("{tag}.sock"));
    let generate = || {
        let pool = inputs::daemon_pool(cfg.seed, &cfg.sizes);
        let lines = inputs::request_lines(&pool);
        let lists: Vec<Vec<Request>> = (0..CLIENTS)
            .map(|c| inputs::daemon_requests(cfg.seed, c, &pool, LIST_LEN))
            .collect();
        (pool, lines, lists)
    };
    let line_of = |lines: &[(&str, Vec<String>)], req: &Request| -> String {
        let (_, by_design) = lines
            .iter()
            .find(|(cmd, _)| *cmd == req.cmd)
            .expect("every command has lines");
        by_design[req.design].clone()
    };

    // Priming (untimed): an earlier session synthesizes the paper suite
    // and the smaller corpus designs, leaving their results in the log.
    let (pool, _, _) = generate();
    let _ = std::fs::remove_file(&primed);
    let priming = Running::start(Server::bind(server_config(&sock, &primed)).expect("bind"));
    {
        let mut client = Client::connect(&sock);
        for (i, d) in pool.iter().enumerate() {
            if !inputs::is_twin(d) && inputs::corpus_size(d).is_none_or(|n| n <= smallest + 4) {
                client.call(
                    &Payloads::default(),
                    0,
                    i,
                    &inputs::request_line("synth", d),
                );
            }
        }
    }
    priming.stop();
    let log_bytes = std::fs::metadata(&primed).map_or(0, |m| m.len());

    // Set-up: generation, store open/replay and server bind, repeated.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut session = None;
    let (mut lists, mut lines) = (Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS {
        std::fs::copy(&primed, &live).expect("copy primed log");
        let t0 = Instant::now();
        let (_, generated_lines, generated_lists) = generate();
        let server = Server::bind(server_config(&sock, &live)).expect("bind daemon");
        setup.push(t0.elapsed());
        (lists, lines) = (generated_lists, generated_lines);
        if rep + 1 == SETUP_REPS {
            session = Some(server);
        } else {
            drop(server);
            let _ = std::fs::remove_file(&sock);
        }
    }
    out.e2e("setup_s", median_secs(&setup), "s");
    let running = Running::start(session.expect("set-up ran"));

    // Timed section: both clients in a closed loop until time is up.
    crate::report::reset_peak_rss();
    let deadline = Duration::from_secs_f64(cfg.seconds);
    let payloads = Payloads::default();
    let start = Instant::now();
    let mut records: Vec<Record> = std::thread::scope(|s| {
        let workers: Vec<_> = lists
            .iter()
            .enumerate()
            .map(|(c, list)| {
                let (sock, lines, payloads) = (&sock, &lines, &payloads);
                s.spawn(move || {
                    let mut client = Client::connect(sock);
                    let mut done = Vec::new();
                    for (i, req) in list.iter().enumerate() {
                        if start.elapsed() >= deadline {
                            break;
                        }
                        done.push(client.call(payloads, c, i, &line_of(lines, req)));
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });
    let wall = records
        .iter()
        .map(|r| r.end - start)
        .max()
        .unwrap_or(deadline);
    let peak = crate::report::peak_rss_mb();
    let metrics_json = running.handle.metrics_json();

    // Verification sweep (untimed): one synth of every pool design.
    let mut verify = Vec::new();
    {
        let mut client = Client::connect(&sock);
        for (i, d) in pool.iter().enumerate() {
            let line = inputs::request_line("synth", d);
            verify.push((i, client.call(&payloads, 0, i, &line)));
        }
    }
    running.stop();

    records.sort_by_key(|r| r.sent);
    let n = records.len();
    out.attempted += n as u64;
    let lat = sorted(records.iter().map(|r| ms(r.end - r.sent)).collect());
    out.e2e("jobs_per_s", n as f64 / wall.as_secs_f64(), "1/s");
    out.e2e("job_p50_ms", quantile(&lat, 0.5), "ms");
    out.e2e("job_p90_ms", quantile(&lat, 0.9), "ms");
    out.e2e("peak_rss_mb", peak, "MB");

    // Correctness: every response against its reference.
    let mut oracle = Oracle::new(&pool);
    for r in &records {
        let req = &lists[r.client][r.index];
        oracle.check(req.cmd, req.design, r, out);
    }
    let (mut func, mut bist) = (0u64, 0u64);
    for (i, r) in &verify {
        if let Some((f, b)) = oracle.check("synth", *i, r, out) {
            func += f;
            bist += b;
        }
    }
    for (i, d) in pool.iter().enumerate().filter(|(_, d)| !inputs::is_twin(d)) {
        let (dfg, schedule) = load(d);
        let candidate = Candidate {
            modules: modules_of(d),
            schedule,
        };
        check_simulation(
            &d.label,
            &dfg,
            &candidate,
            &flow_for("synth", d),
            cfg.seed ^ i as u64,
            out,
        );
    }
    out.e2e("bist_area_pct", 100.0 * bist as f64 / func as f64, "%");
    out.e2e("total_gates", (func + bist) as f64, "gates");
    let mix: Vec<String> = inputs::MIX
        .iter()
        .map(|(cmd, _)| {
            let k = records
                .iter()
                .filter(|r| lists[r.client][r.index].cmd == *cmd)
                .count();
            format!("{cmd} {k}")
        })
        .collect();
    out.notes.push(format!(
        "{n} requests in {:.2} s ({}), {} latency samples",
        wall.as_secs_f64(),
        mix.join(", "),
        lat.len()
    ));

    // Untraced per-layer figures: queue wait vs execution, per command.
    let waits = sorted(
        records
            .iter()
            .filter_map(|r| r.accepted.map(|a| ms(a - r.sent)))
            .collect(),
    );
    let execs = sorted(
        records
            .iter()
            .filter_map(|r| r.accepted.map(|a| ms(r.end - a)))
            .collect(),
    );
    out.layer("server.queue_wait_p50_ms", quantile(&waits, 0.5), "ms");
    out.layer("server.queue_wait_p90_ms", quantile(&waits, 0.9), "ms");
    out.layer("server.exec_p50_ms", quantile(&execs, 0.5), "ms");
    for (cmd, _) in inputs::MIX {
        let total: f64 = records
            .iter()
            .filter(|r| lists[r.client][r.index].cmd == cmd)
            .filter_map(|r| r.accepted.map(|a| ms(r.end - a)))
            .sum();
        out.layer(&format!("server.exec_ms.{cmd}"), total, "ms");
    }
    let synths = records
        .iter()
        .filter(|r| lists[r.client][r.index].cmd == "synth")
        .count();
    let reused = records
        .iter()
        .filter(|r| {
            lists[r.client][r.index].cmd == "synth" && !r.terminal.contains("\"cache\":\"fresh\"")
        })
        .count();
    let metrics = Json::parse(&metrics_json).expect("metrics JSON");
    let field = |section: &str, key: &str| {
        metrics
            .get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let core_hits = field("subcanon", "core_hits");
    out.layer(
        "engine.reuse_ratio",
        (reused as u64 + core_hits) as f64 / synths.max(1) as f64,
        "fraction",
    );
    out.layer(
        "engine.coalesced",
        field("cache", "coalesced") as f64,
        "count",
    );
    let (busy, cap) = (
        field("pool", "busy_micros"),
        field("pool", "capacity_micros"),
    );
    out.layer(
        "engine.pool_util",
        busy as f64 / cap.max(1) as f64,
        "fraction",
    );
    out.layer("trace.samples", lat.len() as f64, "count");
    let split = records.iter().filter(|r| r.split).count();
    if split > 0 {
        out.notes.push(format!(
            "{split} result events spanned several lines (payload with raw newlines)"
        ));
    }

    if cfg.trace {
        traced(
            cfg,
            &pool,
            &lists,
            &records,
            &primed,
            &replica_log,
            log_bytes,
            &mut oracle,
            out,
        );
    }
    for path in [&primed, &live, &replica_log, &sock] {
        let _ = std::fs::remove_file(path);
    }
}

/// The reference answer to one distinct request.
#[derive(Debug, Clone, PartialEq)]
enum Expected {
    /// latency, registers, functional gates, BIST gates.
    Synth(u64, u64, u64, u64),
    /// `(faults, coverage, aliased)` per module.
    FaultSim(Vec<(usize, f64, usize)>),
    /// clean, errors, warnings.
    Lint(bool, usize, usize),
    /// The report's JSON.
    Analyze(String),
    /// initial overhead, overhead, evaluated, accepted.
    Anneal(u64, u64, u32, u32),
}

impl Expected {
    fn of_point(p: &DesignPoint) -> Self {
        Expected::Synth(
            u64::from(p.latency),
            p.registers as u64,
            p.functional_gates.get(),
            p.bist_gates.get(),
        )
    }
}

/// Reference answers, computed once per distinct request from the
/// uncached evaluators and serial simulators.
struct Oracle<'p> {
    pool: &'p [DesignText],
    memo: HashMap<(&'static str, usize), Expected>,
}

fn num(v: Option<&Json>) -> Option<f64> {
    match v? {
        Json::Num(s) => s.parse().ok(),
        _ => None,
    }
}

impl<'p> Oracle<'p> {
    fn new(pool: &'p [DesignText]) -> Self {
        Self {
            pool,
            memo: HashMap::new(),
        }
    }

    fn reference(&mut self, cmd: &'static str, i: usize) -> Expected {
        let pool = self.pool;
        self.memo
            .entry((cmd, i))
            .or_insert_with(|| reference(cmd, &pool[i]))
            .clone()
    }

    /// Checks one response; returns `(functional, BIST)` gates of a
    /// matching synth answer.
    fn check(
        &mut self,
        cmd: &'static str,
        i: usize,
        r: &Record,
        out: &mut Outcome,
    ) -> Option<(u64, u64)> {
        let label = format!("{cmd} {}", self.pool[i].label);
        let Some(line) = r.result.as_deref() else {
            out.mismatch(format!("{label}: no result ({})", r.terminal));
            return None;
        };
        if !r.terminal.contains("\"ok\":true") {
            out.mismatch(format!("{label}: not ok ({})", r.terminal));
            return None;
        }
        let expected = self.reference(cmd, i);
        let v = match (&expected, Json::parse(line)) {
            (Expected::Analyze(_), _) => Json::Null,
            (_, Ok(v)) => v,
            (_, Err(e)) => {
                out.mismatch(format!("{label}: malformed result line: {e}"));
                return None;
            }
        };
        let got = match &expected {
            Expected::Synth(..) => v.get("point").map(|p| {
                let f = |k| num(p.get(k)).unwrap_or(-1.0) as u64;
                Expected::Synth(
                    f("latency"),
                    f("registers"),
                    f("functional_gates"),
                    f("bist_gates"),
                )
            }),
            Expected::FaultSim(want) => v.get("faultsim").and_then(|f| match f.get("modules") {
                Some(Json::Arr(rows)) => Some(Expected::FaultSim(
                    rows.iter()
                        .zip(want)
                        .map(|(row, w)| {
                            let cov = num(row.get("coverage")).unwrap_or(-1.0);
                            // The payload prints coverage to 4 places.
                            let cov = if (cov - w.1).abs() <= 5e-5 { w.1 } else { cov };
                            (
                                num(row.get("faults")).unwrap_or(-1.0) as usize,
                                cov,
                                num(row.get("aliased")).unwrap_or(-1.0) as usize,
                            )
                        })
                        .chain((rows.len() != want.len()).then_some((0, -1.0, 0)))
                        .collect(),
                )),
                _ => None,
            }),
            Expected::Lint(..) => v.get("lint").map(|l| {
                Expected::Lint(
                    l.get("clean").and_then(Json::as_bool).unwrap_or(false),
                    num(l.get("errors")).unwrap_or(-1.0) as usize,
                    num(l.get("warnings")).unwrap_or(-1.0) as usize,
                )
            }),
            Expected::Analyze(_) => line
                .split_once("\"analyze\":")
                .and_then(|(_, rest)| rest.trim_end().strip_suffix('}'))
                .map(|s| Expected::Analyze(s.trim().to_owned())),
            Expected::Anneal(..) => v.get("anneal").map(|a| {
                let f = |k| num(a.get(k)).unwrap_or(-1.0);
                Expected::Anneal(
                    f("initial_overhead") as u64,
                    f("overhead") as u64,
                    f("evaluated") as u32,
                    f("accepted") as u32,
                )
            }),
        };
        if got.as_ref() != Some(&expected) {
            out.mismatch(format!("{label}: got {got:?}, want {expected:?}"));
            return None;
        }
        match expected {
            Expected::Synth(_, _, f, b) => Some((f, b)),
            _ => None,
        }
    }
}

/// Computes one request's reference answer.
fn reference(cmd: &str, d: &DesignText) -> Expected {
    let (dfg, schedule) = load(d);
    let modules = modules_of(d);
    let flow = flow_for(cmd, d);
    let mut tr = Tracer::new();
    let synthesized = || synthesize(&dfg, &schedule, &modules, &flow).expect("reference synthesis");
    match cmd {
        "synth" => {
            let candidate = Candidate {
                modules: modules.clone(),
                schedule: schedule.clone(),
            };
            Expected::of_point(
                &evaluate_candidate(&dfg, &candidate, &flow).expect("reference synthesis"),
            )
        }
        "faultsim" => {
            let design = synthesized();
            let width = FAULTSIM_WIDTH.clamp(2, 32);
            let patterns = lobist_gatesim::lfsr::max_useful_patterns(width);
            Expected::FaultSim(
                design
                    .data_path
                    .module_ids()
                    .map(|m| {
                        let (net, controls) = trace::module_network(&design, &dfg, m, width);
                        let faults = enumerate_faults(&net);
                        let seeds = trace::session_seeds(m);
                        let rep = run_session_with_controls(
                            &net, &controls, width, patterns, seeds, &faults,
                        );
                        (rep.total_faults, rep.coverage(), rep.aliased())
                    })
                    .collect(),
            )
        }
        "lint" => {
            let (c, e, w) = trace::lint_summary(&mut tr, &synthesized(), &dfg, &schedule, &flow);
            Expected::Lint(c, e, w)
        }
        "analyze" => Expected::Analyze(
            trace::analyze_json(&mut tr, &synthesized(), &dfg, &schedule, &flow)
                .trim()
                .to_owned(),
        ),
        "anneal" => {
            let (i, o, e, a) =
                trace::anneal_summary(&mut tr, &dfg, &schedule, &modules, &flow, ANNEAL_ITERATIONS);
            Expected::Anneal(i, o, e, a)
        }
        other => unreachable!("unknown command {other}"),
    }
}

/// The traced replay: the first requests of each client's list,
/// executed in-process through the same public functions, one worker.
#[allow(clippy::too_many_arguments)]
fn traced(
    cfg: &Config,
    pool: &[DesignText],
    lists: &[Vec<Request>],
    records: &[Record],
    primed: &Path,
    replica_log: &PathBuf,
    log_bytes: u64,
    oracle: &mut Oracle<'_>,
    out: &mut Outcome,
) {
    std::fs::copy(primed, replica_log).expect("copy primed log");
    let mut tr = Tracer::new();
    let store = tr.span("store.replay", |_| {
        DiskStore::open(replica_log, DiskStoreConfig::default()).expect("open replica log")
    });
    let mut replica = Replica::new(Some(Arc::new(store)));
    let mut counts = Counts::default();
    let mut job = 0u32;
    let mut replay_wall = Duration::ZERO;
    let mut untraced_exec = Duration::ZERO;
    for (c, list) in lists.iter().enumerate() {
        for (i, req) in list.iter().take(REPLAY_PER_CLIENT).enumerate() {
            job += 1;
            tr.set_job(job);
            let d = &pool[req.design];
            let t0 = Instant::now();
            let got = tr.span("request", |tr| {
                replay(tr, &mut replica, &mut counts, req.cmd, d)
            });
            replay_wall += t0.elapsed();
            if let Some(r) = records.iter().find(|r| r.client == c && r.index == i) {
                untraced_exec += r.accepted.map_or(Duration::ZERO, |a| r.end - a);
                let want = oracle.reference(req.cmd, req.design);
                if got != want {
                    out.mismatch(format!(
                        "{} {}: traced replay differs from untraced run",
                        req.cmd, d.label
                    ));
                }
            }
        }
    }
    replica.flush(&mut tr);
    let wall = tr.wall();
    counts.regalloc_candidates += replica.counts.regalloc_candidates;
    crate::layers(cfg, &tr, &counts, wall, out);
    out.layer("store.log_bytes", log_bytes as f64, "bytes");
    // Tracing plus replica overhead, against the untraced execution
    // time of the same requests (where the timed run reached them).
    out.layer(
        "trace.gap_frac",
        replay_wall.as_secs_f64() / untraced_exec.as_secs_f64().max(1e-9) - 1.0,
        "fraction",
    );
}

/// Replays one request in-process.
fn replay(
    tr: &mut Tracer,
    replica: &mut Replica,
    counts: &mut Counts,
    cmd: &str,
    d: &DesignText,
) -> Expected {
    let modules = modules_of(d);
    let flow = flow_for(cmd, d);
    let (dfg, schedule) = trace::load_design(tr, &d.text, &modules);
    if cmd == "synth" {
        let candidate = Candidate { modules, schedule };
        let (result, _) = replica.run_job(tr, &dfg, &candidate, &flow);
        return Expected::of_point(&result.expect("replayed synthesis"));
    }
    if cmd == "anneal" {
        let (i, o, e, a) =
            trace::anneal_summary(tr, &dfg, &schedule, &modules, &flow, ANNEAL_ITERATIONS);
        return Expected::Anneal(i, o, e, a);
    }
    let design = trace::synth_stages(tr, counts, &dfg, &schedule, &modules, &flow)
        .expect("replayed synthesis");
    match cmd {
        "faultsim" => Expected::FaultSim(trace::faultsim_rows(
            tr,
            counts,
            &design,
            &dfg,
            FAULTSIM_WIDTH,
        )),
        "lint" => {
            let (c, e, w) = trace::lint_summary(tr, &design, &dfg, &schedule, &flow);
            Expected::Lint(c, e, w)
        }
        "analyze" => Expected::Analyze(
            trace::analyze_json(tr, &design, &dfg, &schedule, &flow)
                .trim()
                .to_owned(),
        ),
        other => unreachable!("unknown command {other}"),
    }
}

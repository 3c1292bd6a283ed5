//! The traced run: an in-memory span recorder and a single-threaded
//! replica of the program's job path that calls the same public
//! functions, in the same order, with a span around each call.
//!
//! Spans are `{name, start, end, parent, job}`; they are held in memory
//! and written out once when the benchmark ends. A layer's *self* time
//! is its span minus the part covered by its child spans, so nested
//! layers (a store write inside fragment extraction) are not counted
//! twice.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lobist_alloc::anneal::AnnealConfig;
use lobist_alloc::baseline_regalloc;
use lobist_alloc::explore::{remap_point, Candidate, DesignPoint};
use lobist_alloc::flow::{Design, FlowError, FlowOptions, RegAllocStrategy};
use lobist_alloc::flowcache::{FragmentTier, SynthCore};
use lobist_alloc::interconnect::assign_interconnect;
use lobist_alloc::module_assign::assign_modules;
use lobist_alloc::testable_regalloc;
use lobist_alloc::variable_sets::SharingContext;
use lobist_bist::embedding::PatternSource;
use lobist_datapath::stats::DataPathStats;
use lobist_datapath::DataPath;
use lobist_dfg::canon::{canonize, permute_scheduled, CanonForm};
use lobist_dfg::modules::{ModuleClass, ModuleSet};
use lobist_dfg::parse::{parse_dfg, parse_unscheduled_dfg, to_text};
use lobist_dfg::scheduling::list_schedule;
use lobist_dfg::{subcanon, Dfg, Schedule, VarId};
use lobist_engine::{canonical_job_key, origin_fingerprint, JobResult, ResultCache};
use lobist_gatesim::bist_mode::{SessionContext, SessionReport};
use lobist_gatesim::collapse::collapse_faults;
use lobist_gatesim::coverage::enumerate_faults;
use lobist_gatesim::diffsim::{DiffSim, SimCounters};
use lobist_gatesim::lanes::{auto_width, LaneWord, W256, W512};
use lobist_gatesim::net::GateNetwork;
use lobist_lint::{LintUnit, PassRegistry};
use lobist_store::codec::FragmentRecord;
use lobist_store::{DiskStore, ResultStore, StoredResult};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `core.register_alloc`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job (or request) this span belongs to.
    pub job: u32,
}

/// The span recorder of one traced run (single-threaded).
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    job: u32,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Tags the spans that follow with job id `job`.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            job: self.job,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Wall time since the tracer was created.
    pub fn wall(&self) -> Duration {
        self.t0.elapsed()
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let own = (s.end - s.start).saturating_sub(c);
            *out.entry(s.name).or_insert(Duration::ZERO) += Duration::from_nanos(own);
        }
        out
    }

    /// The longest single span named `name`.
    pub fn max_span(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| Duration::from_nanos(s.end - s.start))
            .max()
            .unwrap_or_default()
    }

    /// Total duration of every span named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| Duration::from_nanos(s.end - s.start))
            .sum()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                s.name, s.start, s.end, s.job
            );
        }
        out
    }
}

/// Exact work counts gathered along the replica.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Σ candidate-list lengths over every allocation trace step.
    pub regalloc_candidates: u64,
    /// Fault-simulation work counters.
    pub sim: SimCounters,
}

/// Parses a design the way the daemon and the CLI's `batch` do:
/// scheduled text keeps its steps; unscheduled text is list-scheduled
/// under the module set.
pub fn load_design(tr: &mut Tracer, text: &str, modules: &ModuleSet) -> (Dfg, Schedule) {
    let parsed = tr.span("dfg.parse", |_| match parse_dfg(text) {
        Ok((dfg, schedule)) => (dfg, Some(schedule)),
        Err(_) => (
            parse_unscheduled_dfg(text).expect("generated design parses"),
            None,
        ),
    });
    match parsed {
        (dfg, Some(schedule)) => (dfg, schedule),
        (dfg, None) => {
            let schedule = tr.span("dfg.schedule", |_| {
                list_schedule(&dfg, modules).expect("generated design schedules")
            });
            (dfg, schedule)
        }
    }
}

/// The five flow stages of `lobist_alloc::flow::synthesize`, each in
/// its own span.
pub fn synth_stages(
    tr: &mut Tracer,
    counts: &mut Counts,
    dfg: &Dfg,
    schedule: &Schedule,
    modules: &ModuleSet,
    flow: &FlowOptions,
) -> Result<Design, FlowError> {
    assert!(
        !flow.repair_untestable,
        "the benchmark never enables repair"
    );
    let ma = tr.span("core.module_assign", |_| {
        assign_modules(dfg, schedule, modules)
    })?;
    let (registers, trace) = tr.span("core.register_alloc", |_| match flow.strategy {
        RegAllocStrategy::Testable(opts) => {
            testable_regalloc::allocate_registers(dfg, schedule, flow.lifetime_options, &ma, &opts)
                .map(|a| (a.registers, Some(a.trace)))
        }
        RegAllocStrategy::Traditional(alg) => {
            baseline_regalloc::allocate_registers(dfg, schedule, flow.lifetime_options, alg)
                .map(|r| (r, None))
        }
    })?;
    if let Some(t) = &trace {
        counts.regalloc_candidates += t
            .steps
            .iter()
            .map(|s| s.candidates.len() as u64)
            .sum::<u64>();
    }
    let (ic, port_partitions) = tr.span("core.interconnect", |_| {
        let ctx = SharingContext::new(dfg, &ma);
        assign_interconnect(dfg, &ma, &registers, &ctx, flow.bist_aware_interconnect)
    });
    let data_path = tr.span("datapath.build", |_| {
        DataPath::build(dfg, schedule, flow.lifetime_options, &ma, &registers, &ic)
    })?;
    let (bist, stats) = tr.span("bist.solve", |_| {
        lobist_bist::solve(&data_path, &flow.area, &flow.solver)
            .map(|b| (b, DataPathStats::of(&data_path, &flow.area)))
    })?;
    Ok(Design {
        module_assignment: ma,
        register_assignment: registers,
        data_path,
        port_partitions,
        stats,
        bist,
        trace,
        test_points: Vec::new(),
    })
}

/// Reorderings the engine retries when the canonical-order synthesis
/// fails BIST embedding (mirrors `lobist_alloc::explore`).
const FEASIBILITY_RECOVERY_SEEDS: u64 = 4;

fn point_of(d: Design, modules: &ModuleSet, canon: &CanonForm) -> DesignPoint {
    DesignPoint {
        modules: modules.clone(),
        latency: canon.schedule.max_step(),
        functional_gates: d.stats.functional_gates,
        bist_gates: d.bist.overhead,
        registers: d.data_path.num_registers(),
        bist: d.bist,
        schedule: canon.schedule.clone(),
    }
}

/// Synthesizes the canonical form through the five stages, with the
/// engine's feasibility recovery on BIST-embedding failures.
fn evaluate_canonical(
    tr: &mut Tracer,
    counts: &mut Counts,
    canon: &CanonForm,
    modules: &ModuleSet,
    flow: &FlowOptions,
) -> JobResult {
    let first = match synth_stages(tr, counts, &canon.dfg, &canon.schedule, modules, flow) {
        Ok(d) => return Ok(point_of(d, modules, canon)),
        Err(e) => e,
    };
    if matches!(first, FlowError::Bist(_)) {
        for seed in 0..FEASIBILITY_RECOVERY_SEEDS {
            let (twin, twin_schedule, var_map) =
                permute_scheduled(&canon.dfg, &canon.schedule, seed);
            if let Ok(d) = synth_stages(tr, counts, &twin, &twin_schedule, modules, flow) {
                let mut point = point_of(d, modules, canon);
                let mut canonical_of = vec![VarId(0); var_map.len()];
                for (orig, &new) in var_map.iter().enumerate() {
                    canonical_of[new.index()] = VarId(orig as u32);
                }
                for e in &mut point.bist.embeddings {
                    for side in [&mut e.left, &mut e.right] {
                        if let PatternSource::Input(v) = side {
                            *v = canonical_of[v.index()];
                        }
                    }
                }
                return Ok(point);
            }
        }
    }
    Err((modules.to_string(), first.to_string()))
}

/// A single-worker replica of `Engine::run_one`: canonize, key and
/// lookup, the five stages on a miss, remap, store write and fragment
/// observation, each call in its own span.
pub struct Replica {
    cache: ResultCache,
    store: Option<Arc<DiskStore>>,
    tier: FragmentTier,
    /// Exact work counts.
    pub counts: Counts,
}

/// How one replayed job was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// Result cache or store hit.
    Hit,
    /// Synthesis-core memo hit.
    Core,
    /// Synthesized.
    Fresh,
}

impl Replica {
    /// A replica with an empty cache and tier, over `store` if any.
    pub fn new(store: Option<Arc<DiskStore>>) -> Self {
        Self {
            cache: ResultCache::new(),
            store,
            tier: FragmentTier::new(),
            counts: Counts::default(),
        }
    }

    /// Replays one job.
    pub fn run_job(
        &mut self,
        tr: &mut Tracer,
        dfg: &Dfg,
        candidate: &Candidate,
        flow: &FlowOptions,
    ) -> (JobResult, Answer) {
        let canon = tr.span("dfg.canonize", |_| canonize(dfg, &candidate.schedule));
        let (origin, key) = tr.span("engine.lookup", |_| {
            (
                origin_fingerprint(&to_text(dfg, &candidate.schedule)),
                canonical_job_key(&canon.encoding, &candidate.modules, flow),
            )
        });
        let cached = match tr.span("engine.lookup", |_| self.cache.get(key)) {
            Some(hit) => Some(hit),
            None => match &self.store {
                Some(store) => tr.span("store.get", |_| store.get(key)).inspect(|s| {
                    self.cache.insert(key, s.clone());
                }),
                None => None,
            },
        };
        if let Some(stored) = cached {
            let result = tr.span("engine.remap", |_| {
                remap_point(stored.result, &canon, candidate)
            });
            return (result, Answer::Hit);
        }
        let memo_key = tr.span("engine.lookup", |_| {
            subcanon::rebase_encoding(&canon.encoding)
                .map(|r| FragmentTier::core_key(&r, &candidate.modules, flow))
        });
        let core = memo_key.and_then(|k| tr.span("engine.lookup", |_| self.tier.lookup_core(k)));
        let (canonical, answer) = match core {
            Some(core) => (
                Ok(DesignPoint {
                    modules: candidate.modules.clone(),
                    latency: canon.schedule.max_step(),
                    functional_gates: core.functional_gates,
                    bist_gates: core.bist_gates,
                    registers: core.registers,
                    bist: core.bist,
                    schedule: canon.schedule.clone(),
                }),
                Answer::Core,
            ),
            None => {
                let r = evaluate_canonical(tr, &mut self.counts, &canon, &candidate.modules, flow);
                if let (Some(k), Ok(p)) = (memo_key, &r) {
                    tr.span("engine.lookup", |_| {
                        self.tier.insert_core(
                            k,
                            SynthCore {
                                functional_gates: p.functional_gates,
                                bist_gates: p.bist_gates,
                                registers: p.registers,
                                bist: p.bist.clone(),
                            },
                        )
                    });
                }
                (r, Answer::Fresh)
            }
        };
        let stored = StoredResult {
            origin,
            result: canonical,
        };
        let result = tr.span("engine.remap", |_| {
            remap_point(stored.result.clone(), &canon, candidate)
        });
        tr.span("engine.lookup", |_| self.cache.insert(key, stored.clone()));
        if let Some(store) = &self.store {
            tr.span("store.put", |_| store.put(key, &stored));
        }
        if answer == Answer::Fresh {
            tr.span("dfg.fragments", |tr| {
                self.observe_fragments(tr, dfg, candidate, origin)
            });
        }
        (result, answer)
    }

    /// Mirrors the engine's fragment observation after a synthesis.
    fn observe_fragments(&self, tr: &mut Tracer, dfg: &Dfg, candidate: &Candidate, origin: u64) {
        let t0 = Instant::now();
        let opts = subcanon::ExtractOptions::default();
        let (fragments, stats) = subcanon::extract_fragments(dfg, &candidate.schedule, &opts);
        let mut observed = 0u64;
        for frag in &fragments {
            if frag.bailed {
                continue;
            }
            observed += 1;
            let prior = self.tier.lookup_fragment(frag.key).or_else(|| {
                let store = self.store.as_ref()?;
                let rec = tr.span("store.get", |_| store.get_fragment(frag.key))?;
                self.tier.register_fragment(frag.key, rec.origin);
                Some(rec.origin)
            });
            match prior {
                Some(first) => self.tier.record_fragment_hit(first != origin),
                None => {
                    self.tier.register_fragment(frag.key, origin);
                    if let Some(store) = &self.store {
                        let rec = FragmentRecord {
                            origin,
                            size: frag.ops.len() as u32,
                            inputs: frag.boundary.inputs,
                            outputs: frag.boundary.outputs,
                            consts: frag.boundary.consts,
                        };
                        tr.span("store.put", |_| store.put_fragment(frag.key, &rec));
                    }
                }
            }
        }
        self.tier
            .record_extract(observed, stats.bailouts, t0.elapsed());
    }

    /// Flushes the store, if any.
    pub fn flush(&self, tr: &mut Tracer) {
        if let Some(store) = &self.store {
            tr.span("store.flush", |_| store.flush())
                .expect("store flush");
        }
    }
}

/// One module's fault-simulation session, replayed in the daemon's
/// order: fault universe and collapsing, pattern preparation with the
/// golden pass, then the per-fault cone walks.
fn session_at<W: LaneWord>(
    tr: &mut Tracer,
    counts: &mut Counts,
    net: &GateNetwork,
    controls: &[bool],
    width: u32,
    patterns: u64,
    seeds: (u64, u64),
) -> SessionReport {
    let collapsed = tr.span("gatesim.collapse", |_| {
        let _universe = enumerate_faults(net);
        collapse_faults(net)
    });
    let ctx = tr.span("gatesim.prepare", |_| {
        SessionContext::<W>::prepare(net, controls, width, patterns, seeds)
    });
    let rep_flags = tr.span("gatesim.detect", |_| {
        let mut sim = DiffSim::<W>::new(net);
        let flags = ctx.detect_flags(&mut sim, collapsed.representatives());
        counts.sim.merge(&sim.counters());
        flags
    });
    let flags = tr.span("gatesim.collapse", |_| {
        collapsed.expand_detect_flags(&rep_flags)
    });
    tr.span("gatesim.detect", |_| ctx.report_from_flags(&flags))
}

/// Builds one data-path module's gate network and its BIST session
/// inputs the way the daemon's `faultsim` command does.
pub fn module_network(
    design: &Design,
    dfg: &Dfg,
    m: lobist_datapath::ModuleId,
    width: u32,
) -> (GateNetwork, Vec<bool>) {
    match design.data_path.module_class(m) {
        ModuleClass::Op(kind) => (lobist_gatesim::modules::unit_for(kind, width), Vec::new()),
        ModuleClass::Alu => {
            let mut kinds: Vec<lobist_dfg::OpKind> = design
                .data_path
                .module_ops(m)
                .iter()
                .map(|&op| dfg.op(op).kind)
                .collect();
            kinds.sort();
            kinds.dedup();
            let mut controls = vec![false; kinds.len()];
            controls[0] = true;
            (lobist_gatesim::modules::alu(&kinds, width), controls)
        }
    }
}

/// The BIST session seeds the daemon uses for module `m`.
pub fn session_seeds(m: lobist_datapath::ModuleId) -> (u64, u64) {
    (0xACE1 + m.index() as u64, 0x1BAD + m.index() as u64)
}

/// Replays a `faultsim` request's sessions, returning one
/// `(faults, coverage, aliased)` row per module.
pub fn faultsim_rows(
    tr: &mut Tracer,
    counts: &mut Counts,
    design: &Design,
    dfg: &Dfg,
    width: u32,
) -> Vec<(usize, f64, usize)> {
    let width = width.clamp(2, 32);
    let patterns = lobist_gatesim::lfsr::max_useful_patterns(width);
    let mut rows = Vec::new();
    for m in design.data_path.module_ids() {
        let (net, controls) = tr.span("gatesim.prepare", |_| module_network(design, dfg, m, width));
        let seeds = session_seeds(m);
        let report = match auto_width(patterns) {
            512 => session_at::<W512>(tr, counts, &net, &controls, width, patterns, seeds),
            256 => session_at::<W256>(tr, counts, &net, &controls, width, patterns, seeds),
            _ => session_at::<u64>(tr, counts, &net, &controls, width, patterns, seeds),
        };
        rows.push((report.total_faults, report.coverage(), report.aliased()));
    }
    rows
}

/// Replays a `lint` request's passes: `(clean, errors, warnings)`.
pub fn lint_summary(
    tr: &mut Tracer,
    design: &Design,
    dfg: &Dfg,
    schedule: &Schedule,
    flow: &FlowOptions,
) -> (bool, usize, usize) {
    tr.span("lint.lint", |_| {
        let unit = LintUnit::of_design(dfg, schedule, design, flow.lifetime_options, &flow.area);
        let registry = PassRegistry::default_registry();
        let (report, _) = lobist_engine::lint_parallel(&unit, &registry, 1, None);
        (
            report.is_clean(),
            report.error_count(),
            report.warning_count(),
        )
    })
}

/// Replays an `analyze` request: the report's JSON rendering.
pub fn analyze_json(
    tr: &mut Tracer,
    design: &Design,
    dfg: &Dfg,
    schedule: &Schedule,
    flow: &FlowOptions,
) -> String {
    tr.span("lint.analyze", |_| {
        let unit = LintUnit::of_design(dfg, schedule, design, flow.lifetime_options, &flow.area);
        let (report, _) = lobist_engine::analyze_parallel(&unit, 1, None);
        report.to_json(false)
    })
}

/// Replays an `anneal` request: `(initial overhead, overhead,
/// evaluated, accepted)`.
pub fn anneal_summary(
    tr: &mut Tracer,
    dfg: &Dfg,
    schedule: &Schedule,
    modules: &ModuleSet,
    flow: &FlowOptions,
    iterations: u32,
) -> (u64, u64, u32, u32) {
    let ma = tr
        .span("core.module_assign", |_| {
            assign_modules(dfg, schedule, modules)
        })
        .expect("module assignment");
    let config = AnnealConfig {
        iterations,
        seed: 0xA11EA1,
        batch: 16,
        ..Default::default()
    };
    let (result, _) = tr
        .span("core.anneal", |_| {
            lobist_engine::anneal_parallel(
                dfg,
                schedule,
                flow.lifetime_options,
                &ma,
                flow,
                &config,
                1,
            )
        })
        .expect("anneal");
    (
        result.initial_overhead,
        result.overhead,
        result.evaluated,
        result.accepted,
    )
}

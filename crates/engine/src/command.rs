//! The command layer shared by the CLI and the daemon.
//!
//! `lobist synth|explore|anneal|faultsim|lint|analyze` and the
//! daemon's job commands run the same computation: load the design
//! (scheduled, or list-scheduled under the module set), build the flow
//! options, run one of this crate's drivers. A front-end maps its own
//! syntax — argv for the CLI, one JSON line for the daemon — to a
//! [`Request`], checks it with [`Request::validate`], calls the
//! command's function here and renders the typed result. Nothing in
//! this module formats output. A [`CommandError`] reports what kept a
//! command from running: a missing module set, a design that does not
//! load, or a synthesis failure.
//!
//! Only [`synth`] and [`explore`] go through the engine's cache tiers.
//! [`synth_full`], [`anneal`], [`faultsim`], [`lint`] and [`analyze`]
//! work on the requester's own design, synthesized directly: the CLI's
//! `synth` prints the netlist, trace and Verilog that only the full
//! [`Design`] carries, so it calls [`synth_full`]; the daemon answers
//! `synth` with the cached design point.

use std::fmt;
use std::sync::Arc;

use lobist_alloc::anneal::{AnnealConfig, AnnealResult};
use lobist_alloc::explore::{Candidate, ExploreConfig, ExploreResult};
use lobist_alloc::flow::{Design, FlowError, FlowOptions};
use lobist_alloc::module_assign::assign_modules;
use lobist_datapath::area::AreaModel;
use lobist_dfg::lifetime::LifetimeOptions;
use lobist_dfg::modules::{ModuleClass, ModuleSet};
use lobist_dfg::parse::{parse_dfg, parse_unscheduled_dfg, ParseDfgError};
use lobist_dfg::scheduling::list_schedule;
use lobist_dfg::{Dfg, OpKind, Schedule};
use lobist_gatesim::bist_mode::SessionReport;
use lobist_lint::{LintUnit, PassRegistry, Report, TestabilityReport};

use crate::{
    analyze_parallel, anneal_multichain, anneal_parallel, bist_session_parallel, lint_parallel,
    AnalyzeRunStats, AnnealStats, Engine, FaultSimOptions, Job, JobOutcome, LaneSelect,
    LintRunStats, Metrics,
};

/// The allocation flow a request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Flow {
    /// The paper's BIST-aware allocator (the default).
    #[default]
    Testable,
    /// The testability-blind baseline.
    Traditional,
}

impl Flow {
    /// Parses `testable` or `traditional`.
    pub fn parse(name: &str) -> Option<Flow> {
        match name {
            "testable" => Some(Flow::Testable),
            "traditional" => Some(Flow::Traditional),
            _ => None,
        }
    }

    /// The flow's name, as [`Flow::parse`] accepts it.
    pub fn name(self) -> &'static str {
        match self {
            Flow::Testable => "testable",
            Flow::Traditional => "traditional",
        }
    }
}

/// One command request, front-end independent.
#[derive(Debug, Clone)]
pub struct Request {
    /// The design text (`.dfg` contents), scheduled or not.
    pub design: String,
    /// The module set every command but `explore` allocates.
    pub modules: Option<ModuleSet>,
    /// `explore`'s candidate module sets.
    pub candidates: Vec<ModuleSet>,
    /// Allocation flow.
    pub flow: Flow,
    /// Data-path bit width.
    pub width: u32,
    /// Primary inputs live on ports instead of registers.
    pub port_inputs: bool,
    /// Insert test points for otherwise-untestable modules.
    pub repair: bool,
    /// Worker budget; `None` means the engine's own.
    pub workers: Option<usize>,
    /// Annealing iterations, seed and speculative batch size.
    pub anneal: AnnealConfig,
    /// Independent annealing chains, merged best-of.
    pub chains: usize,
    /// Fault-simulation lane width (a throughput knob only).
    pub lanes: LaneSelect,
}

impl Default for Request {
    fn default() -> Self {
        Self {
            design: String::new(),
            modules: None,
            candidates: Vec::new(),
            flow: Flow::Testable,
            width: 8,
            port_inputs: false,
            repair: false,
            workers: None,
            anneal: AnnealConfig {
                batch: 16,
                ..AnnealConfig::default()
            },
            chains: 1,
            lanes: LaneSelect::Auto,
        }
    }
}

impl Request {
    /// Checks the counts that must be at least one: `jobs`, `batch` and
    /// `chains`.
    pub fn validate(&self) -> Result<(), CommandError> {
        for (field, n) in [
            ("jobs", self.workers.unwrap_or(1)),
            ("batch", self.anneal.batch as usize),
            ("chains", self.chains),
        ] {
            if n == 0 {
                return Err(CommandError::Zero(field));
            }
        }
        Ok(())
    }

    /// The flow options this request selects.
    pub fn flow_options(&self) -> FlowOptions {
        let mut f = match self.flow {
            Flow::Testable => FlowOptions::testable(),
            Flow::Traditional => FlowOptions::traditional(),
        };
        f.area = AreaModel::with_width(self.width);
        f.lifetime_options = if self.port_inputs {
            LifetimeOptions::port_inputs()
        } else {
            LifetimeOptions::registered_inputs()
        };
        f.repair_untestable = self.repair;
        f
    }

    fn workers_on(&self, engine: &Engine) -> usize {
        self.workers.unwrap_or_else(|| engine.workers())
    }

    fn load(&self) -> Result<(Dfg, Schedule, &ModuleSet), CommandError> {
        let modules = self
            .modules
            .as_ref()
            .ok_or(CommandError::Missing("modules"))?;
        let (dfg, schedule) = load(&self.design, modules)?;
        Ok((dfg, schedule, modules))
    }
}

/// Why a command could not run.
#[derive(Debug)]
pub enum CommandError {
    /// A required field is absent.
    Missing(&'static str),
    /// A count that must be at least one is zero.
    Zero(&'static str),
    /// The design text does not parse.
    Parse(ParseDfgError),
    /// The design has no operations to allocate.
    EmptyDesign,
    /// The design carries no schedule and the list scheduler cannot
    /// schedule it under the module set.
    Schedule(String),
    /// Synthesis failed.
    Flow(FlowError),
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommandError::Missing(field) => write!(f, "missing field `{field}`"),
            CommandError::Zero(field) => write!(f, "`{field}` must be at least 1"),
            CommandError::Parse(e) => write!(f, "design: {e}"),
            CommandError::EmptyDesign => write!(f, "design has no operations"),
            CommandError::Schedule(e) => write!(f, "cannot schedule design: {e}"),
            CommandError::Flow(e) => write!(f, "synthesis: {e}"),
        }
    }
}

impl std::error::Error for CommandError {}

impl From<FlowError> for CommandError {
    fn from(e: FlowError) -> Self {
        CommandError::Flow(e)
    }
}

/// Parses design text as a graph, ignoring any `@ step` annotations
/// (exploration schedules each candidate itself).
pub fn parse_design(text: &str) -> Result<Dfg, CommandError> {
    let dfg = parse_unscheduled_dfg(text).map_err(CommandError::Parse)?;
    non_empty(dfg)
}

fn non_empty(dfg: Dfg) -> Result<Dfg, CommandError> {
    if dfg.num_ops() == 0 {
        Err(CommandError::EmptyDesign)
    } else {
        Ok(dfg)
    }
}

/// Loads design text with its schedule: the file's `@ step`
/// annotations when every operation has one, otherwise a
/// resource-constrained list schedule under `modules`.
pub fn load(text: &str, modules: &ModuleSet) -> Result<(Dfg, Schedule), CommandError> {
    if let Ok((dfg, schedule)) = parse_dfg(text) {
        return Ok((non_empty(dfg)?, schedule));
    }
    let dfg = parse_design(text)?;
    let schedule =
        list_schedule(&dfg, modules).map_err(|e| CommandError::Schedule(e.to_string()))?;
    Ok((dfg, schedule))
}

/// `synth` through the engine: the design point, answered from the
/// engine's cache tiers when they hold it.
pub fn synth(engine: &Engine, req: &Request) -> Result<JobOutcome, CommandError> {
    let (dfg, schedule, modules) = req.load()?;
    let job = Job {
        dfg: Arc::new(dfg),
        candidate: Candidate {
            modules: modules.clone(),
            schedule,
        },
        flow: req.flow_options(),
        label: modules.to_string(),
    };
    let mut outcomes = engine.run_with_workers(vec![job], req.workers_on(engine));
    Ok(outcomes.pop().expect("one job, one outcome"))
}

/// A design synthesized directly, with every artifact of the flow.
#[derive(Debug)]
pub struct Synthesized {
    /// The loaded graph.
    pub dfg: Dfg,
    /// Its schedule.
    pub schedule: Schedule,
    /// The flow options it was synthesized under.
    pub flow: FlowOptions,
    /// The synthesized design.
    pub design: Design,
}

/// Synthesizes the requester's design directly, bypassing the cache:
/// the full [`Design`] (netlist, allocator trace) in the requester's
/// own coordinates.
pub fn synth_full(req: &Request) -> Result<Synthesized, CommandError> {
    let (dfg, schedule, modules) = req.load()?;
    let flow = req.flow_options();
    let design = lobist_alloc::flow::synthesize(&dfg, &schedule, modules, &flow)?;
    Ok(Synthesized {
        dfg,
        schedule,
        flow,
        design,
    })
}

/// `explore`: the Pareto sweep over the request's candidate module
/// sets, fanned out on the engine, with the cache tier that answered
/// each engine job ([`JobOutcome::tier`]) in submission order.
pub fn explore(
    engine: &Engine,
    req: &Request,
) -> Result<(ExploreResult, Vec<&'static str>), CommandError> {
    let dfg = parse_design(&req.design)?;
    let mut config = ExploreConfig::new(req.candidates.clone());
    config.flow = req.flow_options();
    let workers = req.workers_on(engine);
    Ok(crate::explore::explore_with_workers(
        &dfg, &config, engine, workers,
    ))
}

/// `anneal`: the simulated-annealing register search. One chain runs
/// pool-backed speculative batches; several run serial chains across
/// the pool with a deterministic best-of merge. Either way the result
/// is identical for any worker count. Recorded into the engine's
/// metrics.
pub fn anneal(engine: &Engine, req: &Request) -> Result<(AnnealResult, AnnealStats), CommandError> {
    let (dfg, schedule, modules) = req.load()?;
    let flow = req.flow_options();
    let ma = assign_modules(&dfg, &schedule, modules).map_err(FlowError::from)?;
    let workers = req.workers_on(engine);
    let lt = flow.lifetime_options;
    let (result, stats) = if req.chains > 1 {
        anneal_multichain(
            &dfg,
            &schedule,
            lt,
            &ma,
            &flow,
            &req.anneal,
            req.chains,
            workers,
        )
    } else {
        anneal_parallel(&dfg, &schedule, lt, &ma, &flow, &req.anneal, workers)
    }?;
    engine.metrics_handle().record_anneal(&result, &stats);
    Ok((result, stats))
}

/// What fault simulation of a design's BIST sessions produced.
#[derive(Debug, Clone)]
pub struct FaultSim {
    /// The simulated width (the request's, clamped to 2..=32).
    pub width: u32,
    /// LFSR patterns per session.
    pub patterns: u64,
    /// Each module's label (`M<n> (<class>)`) and session report, in
    /// module order.
    pub modules: Vec<(String, SessionReport)>,
}

/// `faultsim`: gate-level stuck-at simulation of every module's BIST
/// session on the parallel simulator, recorded into the engine's
/// metrics. Faults are collapsed and partitioned across the pool; the
/// reports are identical to a serial, uncollapsed, 64-lane run for any
/// worker count or lane width.
pub fn faultsim(engine: &Engine, req: &Request) -> Result<FaultSim, CommandError> {
    let s = synth_full(req)?;
    let d = &s.design;
    let opts = FaultSimOptions {
        workers: req.workers_on(engine),
        collapse: true,
        lanes: req.lanes,
    };
    let width = req.width.clamp(2, 32);
    let patterns = lobist_gatesim::lfsr::max_useful_patterns(width);
    let mut modules = Vec::new();
    for m in d.data_path.module_ids() {
        let seeds = (0xACE1 + m.index() as u64, 0x1BAD + m.index() as u64);
        let (net, controls) = match d.data_path.module_class(m) {
            ModuleClass::Op(kind) => (lobist_gatesim::modules::unit_for(kind, width), Vec::new()),
            ModuleClass::Alu => {
                let mut kinds: Vec<OpKind> = d
                    .data_path
                    .module_ops(m)
                    .iter()
                    .map(|&op| s.dfg.op(op).kind)
                    .collect();
                kinds.sort();
                kinds.dedup();
                let mut controls = vec![false; kinds.len()];
                controls[0] = true;
                (lobist_gatesim::modules::alu(&kinds, width), controls)
            }
        };
        let (report, stats) = bist_session_parallel(&net, &controls, width, patterns, seeds, opts);
        engine.metrics_handle().record_fault_sim(&stats);
        let label = format!("M{} ({})", m.index() + 1, d.data_path.module_class(m));
        modules.push((label, report));
    }
    Ok(FaultSim {
        width,
        patterns,
        modules,
    })
}

/// What a lint run produced.
#[derive(Debug, Clone)]
pub struct Linted {
    /// The canonical report.
    pub report: Report,
    /// Per-pass timing.
    pub stats: LintRunStats,
    /// Registers of the audited design.
    pub registers: usize,
    /// Modules of the audited design.
    pub modules: usize,
}

/// `lint`: the static verifier passes over the synthesized design,
/// recorded into the engine's metrics.
pub fn lint(engine: &Engine, req: &Request) -> Result<Linted, CommandError> {
    let (dfg, schedule, modules) = req.load()?;
    lint_design(
        &dfg,
        &schedule,
        modules,
        &req.flow_options(),
        req.workers_on(engine),
        Some(engine.metrics_handle()),
    )
}

/// Synthesizes one design and runs every lint pass over it on
/// `workers` threads, recording the run into `metrics` when given.
pub fn lint_design(
    dfg: &Dfg,
    schedule: &Schedule,
    modules: &ModuleSet,
    flow: &FlowOptions,
    workers: usize,
    metrics: Option<&Metrics>,
) -> Result<Linted, CommandError> {
    let d = lobist_alloc::flow::synthesize(dfg, schedule, modules, flow)?;
    let unit = LintUnit::of_design(dfg, schedule, &d, flow.lifetime_options, &flow.area);
    let (report, stats) = lint_parallel(&unit, &PassRegistry::default_registry(), workers, metrics);
    Ok(Linted {
        report,
        stats,
        registers: d.data_path.num_registers(),
        modules: d.data_path.num_modules(),
    })
}

/// `analyze`: the static testability analyses over every module cone
/// of the synthesized design, recorded into the engine's metrics.
pub fn analyze(
    engine: &Engine,
    req: &Request,
) -> Result<(TestabilityReport, AnalyzeRunStats), CommandError> {
    let s = synth_full(req)?;
    let unit = LintUnit::of_design(
        &s.dfg,
        &s.schedule,
        &s.design,
        s.flow.lifetime_options,
        &s.flow.area,
    );
    Ok(analyze_parallel(
        &unit,
        req.workers_on(engine),
        Some(engine.metrics_handle()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEDULED: &str =
        "input a b c d\ns1 = a + b @ 1\ns2 = c + d @ 2\ny = s1 * s2 @ 3\noutput y\n";
    const UNSCHEDULED: &str = "input a b c d\ns1 = a + b\ns2 = c + d\ny = s1 * s2\noutput y\n";

    fn request(design: &str) -> Request {
        Request {
            design: design.to_owned(),
            modules: Some("1+,1*".parse().expect("valid")),
            ..Request::default()
        }
    }

    #[test]
    fn loader_keeps_annotated_steps_and_list_schedules_the_rest() {
        let modules: ModuleSet = "1+,1*".parse().expect("valid");
        let (_, scheduled) = load(SCHEDULED, &modules).expect("scheduled loads");
        assert_eq!(scheduled.max_step(), 3);
        let (_, listed) = load(UNSCHEDULED, &modules).expect("unscheduled loads");
        assert_eq!(listed.max_step(), 3);
    }

    #[test]
    fn designs_without_operations_are_typed_errors() {
        let modules: ModuleSet = "1+".parse().expect("valid");
        for text in ["", "input a\noutput a\n"] {
            assert!(matches!(
                load(text, &modules),
                Err(CommandError::EmptyDesign)
            ));
            assert!(matches!(parse_design(text), Err(CommandError::EmptyDesign)));
        }
        let engine = Engine::new(1);
        let req = request("");
        assert!(matches!(
            synth(&engine, &req),
            Err(CommandError::EmptyDesign)
        ));
        assert!(matches!(
            lint(&engine, &req),
            Err(CommandError::EmptyDesign)
        ));
        assert!(matches!(
            analyze(&engine, &req),
            Err(CommandError::EmptyDesign)
        ));
        assert!(matches!(
            faultsim(&engine, &req),
            Err(CommandError::EmptyDesign)
        ));
        assert!(matches!(
            anneal(&engine, &req),
            Err(CommandError::EmptyDesign)
        ));
    }

    #[test]
    fn validation_rejects_zero_counts() {
        assert!(Request::default().validate().is_ok());
        let zero_batch = Request {
            anneal: AnnealConfig {
                batch: 0,
                ..Request::default().anneal
            },
            ..Request::default()
        };
        let zero_chains = Request {
            chains: 0,
            ..Request::default()
        };
        let zero_jobs = Request {
            workers: Some(0),
            ..Request::default()
        };
        for (req, field) in [
            (zero_batch, "batch"),
            (zero_chains, "chains"),
            (zero_jobs, "jobs"),
        ] {
            let err = req.validate().expect_err(field);
            assert!(matches!(err, CommandError::Zero(f) if f == field), "{err}");
        }
    }

    #[test]
    fn missing_modules_is_reported_by_name() {
        let req = Request {
            modules: None,
            ..request(SCHEDULED)
        };
        let err = synth_full(&req).expect_err("no module set");
        assert_eq!(err.to_string(), "missing field `modules`");
    }

    #[test]
    fn the_flow_field_selects_the_allocator() {
        let testable = synth_full(&request(SCHEDULED)).expect("synthesizes");
        assert!(testable.design.trace.is_some());
        let traditional = synth_full(&Request {
            flow: Flow::Traditional,
            ..request(SCHEDULED)
        })
        .expect("synthesizes");
        assert!(traditional.design.trace.is_none());
        for flow in [Flow::Testable, Flow::Traditional] {
            assert_eq!(Flow::parse(flow.name()), Some(flow));
        }
    }
}

//! Request execution: runs a parsed [`Request`] through the shared
//! command layer ([`lobist_engine::command`]) on the server's engine
//! and renders the `result` event payload.
//!
//! The payload string must be a pure function of the job's result —
//! never of timing, worker count, or cache provenance — so that a
//! request answered from the durable store is byte-identical to the
//! original evaluation. Anything that legitimately varies (wall time,
//! cache tier) is reported on the `done` event by the caller.

use lobist_alloc::explore::DesignPoint;
use lobist_engine::command::{self, CommandError};
use lobist_engine::Engine;

use crate::json::escape;
use crate::proto::{Command, Request};

/// The outcome of a job-running request.
pub(crate) struct JobBody {
    /// `true` when the underlying job succeeded (a lint run with
    /// findings is still `ok`: the response is well-formed).
    pub ok: bool,
    /// Cache provenance: `"memory"`, `"store"`, or `"fresh"` for
    /// engine-cached commands; `"iso"` when the hit was isomorphic (a
    /// renamed/reordered twin answered from the canonical cache and
    /// remapped); `"none"` for commands that always run.
    pub cache: &'static str,
    /// The `result` event body: `"key":value` pairs without the
    /// surrounding braces or the `event`/`id` fields.
    pub payload: String,
}

/// Executes one admitted job request.
pub(crate) fn execute(request: &Request, engine: &Engine) -> Result<JobBody, CommandError> {
    let job = &request.job;
    let always_runs = |payload| JobBody {
        ok: true,
        cache: "none",
        payload,
    };
    Ok(match request.cmd {
        Command::Synth => {
            let outcome = command::synth(engine, job)?;
            let payload = match &outcome.result {
                Ok(p) => point_json(p),
                Err((m, e)) => format!(
                    "\"failure\":{{\"modules\":\"{}\",\"error\":\"{}\"}}",
                    escape(m),
                    escape(e)
                ),
            };
            JobBody {
                ok: outcome.result.is_ok(),
                cache: outcome.tier(),
                payload,
            }
        }
        Command::Explore => {
            let (result, tiers) = command::explore(engine, job)?;
            let pareto: Vec<String> = result.pareto.iter().map(usize::to_string).collect();
            JobBody {
                ok: result.failures.is_empty(),
                cache: provenance(&tiers),
                payload: format!(
                    "\"points\":{},\"pareto\":[{}],\"failures\":{},\"report\":\"{}\"",
                    result.points.len(),
                    pareto.join(","),
                    result.failures.len(),
                    escape(&lobist_engine::render_report(&result))
                ),
            }
        }
        Command::Anneal => {
            let (result, stats) = command::anneal(engine, job)?;
            always_runs(format!(
                concat!(
                    "\"anneal\":{{\"iterations\":{iters},\"seed\":{seed},",
                    "\"chains\":{chains},\"initial_overhead\":{init},",
                    "\"overhead\":{best},\"evaluated\":{eval},\"accepted\":{acc},",
                    "\"stalled\":{stall},\"best_chain\":{bc}}}"
                ),
                iters = job.anneal.iterations,
                seed = job.anneal.seed,
                chains = job.chains,
                init = result.initial_overhead,
                best = result.overhead,
                eval = result.evaluated,
                acc = result.accepted,
                stall = result.stalled,
                bc = stats.best_chain,
            ))
        }
        Command::FaultSim => {
            let sim = command::faultsim(engine, job)?;
            let rows: Vec<String> = sim
                .modules
                .iter()
                .map(|(label, report)| {
                    format!(
                        concat!(
                            "{{\"module\":\"{label}\",\"faults\":{faults},",
                            "\"coverage\":{cov:.4},\"aliased\":{alias}}}"
                        ),
                        label = label,
                        faults = report.total_faults,
                        cov = report.coverage(),
                        alias = report.aliased(),
                    )
                })
                .collect();
            always_runs(format!(
                "\"faultsim\":{{\"width\":{},\"patterns\":{},\"modules\":[{}]}}",
                sim.width,
                sim.patterns,
                rows.join(",")
            ))
        }
        Command::Lint => {
            let report = command::lint(engine, job)?.report;
            always_runs(format!(
                "\"lint\":{{\"clean\":{},\"errors\":{},\"warnings\":{},\"text\":\"{}\"}}",
                report.is_clean(),
                report.error_count(),
                report.warning_count(),
                escape(&report.render_text()),
            ))
        }
        // A pure function of the report, so a store-served replay is
        // byte-identical to the original run.
        Command::Analyze => always_runs(format!(
            "\"analyze\":{}",
            command::analyze(engine, job)?.0.to_json(false)
        )),
        Command::Ping | Command::Metrics | Command::Shutdown => {
            unreachable!("{:?} is answered inline", request.cmd)
        }
    })
}

/// Renders one design point as the deterministic `result` payload.
fn point_json(p: &DesignPoint) -> String {
    let styles: Vec<String> = p
        .bist
        .styles
        .iter()
        .map(|s| format!("\"{}\"", s.label()))
        .collect();
    let sessions: Vec<String> = p.bist.sessions.iter().map(u32::to_string).collect();
    format!(
        concat!(
            "\"point\":{{\"modules\":\"{modules}\",\"latency\":{latency},",
            "\"registers\":{regs},\"functional_gates\":{func},",
            "\"bist_gates\":{bist},\"overhead_gates\":{ov},",
            "\"overhead_percent\":{pct:.4},\"styles\":[{styles}],",
            "\"sessions\":[{sessions}]}}"
        ),
        modules = escape(&p.modules.to_string()),
        latency = p.latency,
        regs = p.registers,
        func = p.functional_gates.get(),
        bist = p.bist_gates.get(),
        ov = p.bist.overhead.get(),
        pct = p.bist.overhead_percent,
        styles = styles.join(","),
        sessions = sessions.join(","),
    )
}

/// Summarizes a batch's cache tiers: `"iso"` when every job was a hit
/// and at least one was isomorphic, `"memory"`/`"store"` only when
/// every job came from that tier, `"fresh"` otherwise.
fn provenance(tiers: &[&'static str]) -> &'static str {
    let all = |accept: &[&str]| !tiers.is_empty() && tiers.iter().all(|t| accept.contains(t));
    if all(&["iso", "memory", "store"]) && tiers.contains(&"iso") {
        "iso"
    } else if all(&["memory"]) {
        "memory"
    } else if all(&["memory", "store"]) {
        "store"
    } else {
        "fresh"
    }
}

//! The wire protocol: one JSON object per line, in both directions.
//!
//! A request names a command and carries the design text inline —
//! the daemon never touches the client's filesystem, and the store's
//! content addressing keys on exactly what was sent:
//!
//! ```json
//! {"cmd":"synth","design":"input a b\n...","modules":"1+,1*"}
//! {"cmd":"explore","design":"...","candidates":"1+,1*;2+,1*"}
//! {"cmd":"anneal","design":"...","modules":"1+,1*","iterations":100}
//! {"cmd":"faultsim","design":"...","modules":"1+,1*","width":6}
//! {"cmd":"lint","design":"...","modules":"1+,1*"}
//! {"cmd":"analyze","design":"...","modules":"1+,1*"}
//! {"cmd":"ping"}   {"cmd":"metrics"}   {"cmd":"shutdown"}
//! ```
//!
//! The response is a stream of JSONL events, flushed per line:
//! `accepted` (queue position), then `result` (the payload — rendered
//! only from the job's result, so a store-served replay is
//! byte-identical to the original), then the terminal `done` record
//! (timing and cache provenance, which legitimately vary between
//! runs). Failures end with a terminal `error` event instead.

use lobist_engine::command::{self, Flow};
use lobist_engine::LaneSelect;

use crate::json::Json;

/// The commands a request line can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Synthesize one design.
    Synth,
    /// Pareto exploration over candidate module sets.
    Explore,
    /// Simulated-annealing register search.
    Anneal,
    /// Gate-level stuck-at fault simulation of the BIST sessions.
    FaultSim,
    /// Static verifier passes over the synthesized design.
    Lint,
    /// Static testability analysis (COP probabilities, redundant
    /// faults, test-mode reachability) — no simulation.
    Analyze,
    /// Liveness probe.
    Ping,
    /// Engine + store + server metrics snapshot.
    Metrics,
    /// Graceful shutdown: drain in-flight work, flush the store.
    Shutdown,
}

impl Command {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "synth" => Command::Synth,
            "explore" => Command::Explore,
            "anneal" => Command::Anneal,
            "faultsim" => Command::FaultSim,
            "lint" => Command::Lint,
            "analyze" => Command::Analyze,
            "ping" => Command::Ping,
            "metrics" => Command::Metrics,
            "shutdown" => Command::Shutdown,
            _ => return None,
        })
    }

    /// `true` for commands that run synthesis work and therefore pass
    /// through the admission queue (the others are answered inline).
    pub fn is_job(self) -> bool {
        matches!(
            self,
            Command::Synth
                | Command::Explore
                | Command::Anneal
                | Command::FaultSim
                | Command::Lint
                | Command::Analyze
        )
    }
}

/// One parsed request line: the command, and for job commands the
/// typed request the shared command layer runs.
#[derive(Debug, Clone)]
pub struct Request {
    /// The command.
    pub cmd: Command,
    /// The job's parameters (defaults for `ping`, `metrics` and
    /// `shutdown`). `workers` holds the request's `jobs` field until
    /// the server clamps it by policy.
    pub job: command::Request,
}

/// Parses and validates one request line.
///
/// Fields: `design` (inline `.dfg` text, required by job commands),
/// `modules`, `candidates` (semicolon-separated module sets, required
/// by `explore`), `flow` (`"testable"` or `"traditional"`), `width`
/// (2..=64), `repair`, `port_inputs`, `jobs`, `iterations`, `seed`,
/// `batch`, `chains` and `lanes` (64, 256, 512 or `"auto"`; a
/// throughput knob only, so it never enters the job key).
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, a missing or
/// unknown command, ill-typed or out-of-range fields, a module set that
/// does not parse, or a job command without its design.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line).map_err(|e| e.to_string())?;
    if !matches!(v, Json::Obj(_)) {
        return Err("request must be a JSON object".into());
    }
    let cmd_name = v
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or("missing string field `cmd`")?;
    let cmd = Command::parse(cmd_name).ok_or_else(|| format!("unknown command `{cmd_name}`"))?;
    let str_field = |key: &str| -> Result<Option<String>, String> {
        match v.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(Json::Str(s)) => Ok(Some(s.clone())),
            Some(_) => Err(format!("field `{key}` must be a string")),
        }
    };
    let num = |key: &str| -> Result<Option<u64>, String> {
        match v.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(n) => n
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
        }
    };
    let num32 = |key: &str| -> Result<Option<u32>, String> {
        num(key)?
            .map(|n| u32::try_from(n).map_err(|_| format!("field `{key}` must fit in 32 bits")))
            .transpose()
    };
    let mut job = command::Request::default();
    if let Some(name) = str_field("flow")? {
        job.flow = Flow::parse(&name).ok_or_else(|| format!("unknown flow `{name}`"))?;
    }
    if let Some(n) = v.get("width").filter(|n| **n != Json::Null) {
        job.width = n
            .as_u32()
            .filter(|w| (2..=64).contains(w))
            .ok_or("field `width` must be an integer in 2..=64")?;
    }
    job.workers = num("jobs")?.map(|n| n as usize);
    if let Some(n) = num32("iterations")? {
        job.anneal.iterations = n;
    }
    if let Some(n) = num("seed")? {
        job.anneal.seed = n;
    }
    if let Some(n) = num32("batch")? {
        job.anneal.batch = n;
    }
    if let Some(n) = num("chains")? {
        job.chains = n as usize;
    }
    job.validate().map_err(|e| format!("field {e}"))?;
    const LANES_ERR: &str = "field `lanes` must be 64, 256, 512 or \"auto\"";
    job.lanes = match v.get("lanes") {
        None | Some(Json::Null) => LaneSelect::Auto,
        Some(Json::Str(s)) => LaneSelect::parse(s).ok_or(LANES_ERR)?,
        Some(n) => n
            .as_u64()
            .and_then(|w| LaneSelect::parse(&w.to_string()))
            .ok_or(LANES_ERR)?,
    };
    job.repair = v.get("repair").and_then(Json::as_bool).unwrap_or(false);
    job.port_inputs = v
        .get("port_inputs")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    if let Some(text) = str_field("modules")? {
        job.modules = Some(text.parse().map_err(|e| format!("modules: {e}"))?);
    }
    let candidates = str_field("candidates")?;
    let design = str_field("design")?;
    if cmd.is_job() {
        job.design = design.ok_or("missing field `design`")?;
    }
    if cmd == Command::Explore {
        job.candidates = candidates
            .ok_or("missing field `candidates`")?
            .split(';')
            .map(|s| s.trim().parse().map_err(|e| format!("candidates: {e}")))
            .collect::<Result<_, _>>()?;
    }
    Ok(Request { cmd, job })
}

/// `true` if a response line is a terminal event — the last line the
/// server sends for one request.
pub fn is_terminal_event(line: &str) -> bool {
    ["done", "error", "pong", "metrics", "shutdown"]
        .iter()
        .any(|e| line.contains(&format!("\"event\":\"{e}\"")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_synth_request() {
        let r = parse_request(
            r#"{"cmd":"synth","design":"input a\n","modules":"1+","flow":"traditional","width":16,"jobs":2,"repair":true}"#,
        )
        .expect("valid");
        assert_eq!(r.cmd, Command::Synth);
        assert!(r.cmd.is_job());
        assert_eq!(r.job.design, "input a\n");
        assert_eq!(
            r.job.modules.as_ref().map(ToString::to_string).as_deref(),
            Some("1+")
        );
        assert_eq!(r.job.flow, Flow::Traditional);
        assert_eq!(r.job.width, 16);
        assert_eq!(r.job.workers, Some(2));
        assert!(r.job.repair);
    }

    #[test]
    fn defaults_match_the_cli() {
        let r = parse_request(r#"{"cmd":"ping"}"#).expect("valid");
        assert_eq!(r.cmd, Command::Ping);
        assert!(!r.cmd.is_job());
        assert_eq!(r.job.flow, Flow::Testable);
        assert_eq!(r.job.width, 8);
        assert_eq!(r.job.workers, None);
        let anneal = parse_request(r#"{"cmd":"anneal","design":"","modules":"1+"}"#)
            .expect("valid")
            .job;
        assert_eq!(
            (
                anneal.anneal.iterations,
                anneal.anneal.seed,
                anneal.anneal.batch,
                anneal.chains
            ),
            (400, 0xA11EA1, 16, 1)
        );
    }

    #[test]
    fn rejects_bad_requests() {
        for (line, needle) in [
            ("not json", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"design":"x"}"#, "missing string field `cmd`"),
            (r#"{"cmd":"fly"}"#, "unknown command"),
            (r#"{"cmd":"synth","flow":"magic"}"#, "unknown flow"),
            (r#"{"cmd":"synth","width":1}"#, "`width`"),
            (r#"{"cmd":"synth","jobs":0}"#, "`jobs`"),
            (
                r#"{"cmd":"synth","modules":7}"#,
                "`modules` must be a string",
            ),
            (r#"{"cmd":"faultsim","lanes":128}"#, "`lanes`"),
            (r#"{"cmd":"faultsim","lanes":"wide"}"#, "`lanes`"),
            (r#"{"cmd":"faultsim","lanes":1024}"#, "`lanes`"),
            (r#"{"cmd":"faultsim","lanes":true}"#, "`lanes`"),
            (
                r#"{"cmd":"anneal","batch":0}"#,
                "field `batch` must be at least 1",
            ),
            (
                r#"{"cmd":"anneal","chains":0}"#,
                "field `chains` must be at least 1",
            ),
            (
                r#"{"cmd":"anneal","batch":4294967296}"#,
                "`batch` must fit in 32 bits",
            ),
            (r#"{"cmd":"synth","modules":"9?"}"#, "modules:"),
            (
                r#"{"cmd":"synth","modules":"1+"}"#,
                "missing field `design`",
            ),
            (
                r#"{"cmd":"explore","design":"x"}"#,
                "missing field `candidates`",
            ),
            (
                r#"{"cmd":"explore","design":"x","candidates":"1+;?"}"#,
                "candidates:",
            ),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn parses_an_analyze_request() {
        let r = parse_request(
            r#"{"cmd":"analyze","design":"input a
","modules":"1+"}"#,
        )
        .expect("parses");
        assert_eq!(r.cmd, Command::Analyze);
        assert!(r.cmd.is_job());
    }

    #[test]
    fn lanes_accept_numbers_and_auto() {
        for (line, want) in [
            (r#"{"cmd":"faultsim","design":""}"#, LaneSelect::Auto),
            (
                r#"{"cmd":"faultsim","design":"","lanes":null}"#,
                LaneSelect::Auto,
            ),
            (
                r#"{"cmd":"faultsim","design":"","lanes":"auto"}"#,
                LaneSelect::Auto,
            ),
            (
                r#"{"cmd":"faultsim","design":"","lanes":64}"#,
                LaneSelect::W64,
            ),
            (
                r#"{"cmd":"faultsim","design":"","lanes":"256"}"#,
                LaneSelect::W256,
            ),
            (
                r#"{"cmd":"faultsim","design":"","lanes":512}"#,
                LaneSelect::W512,
            ),
        ] {
            assert_eq!(parse_request(line).expect(line).job.lanes, want, "{line}");
        }
    }

    #[test]
    fn terminal_events_are_recognized() {
        assert!(is_terminal_event(r#"{"event":"done","id":1}"#));
        assert!(is_terminal_event(r#"{"event":"error","id":1}"#));
        assert!(is_terminal_event(r#"{"event":"pong","id":1}"#));
        assert!(!is_terminal_event(r#"{"event":"accepted","id":1}"#));
        assert!(!is_terminal_event(r#"{"event":"result","id":1}"#));
    }
}

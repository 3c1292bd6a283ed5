//! Front-end parity: every shipped design runs through `lobist_cli::run`
//! and through an in-process daemon, in both flows, and both must
//! report the same result. `explore`'s report and `analyze --json` are
//! compared byte for byte; the daemon's `synth`, `anneal`, `faultsim`
//! and `lint` on every number the CLI prints for the same computation.

use lobist_cli::{run, CliError};
use lobist_server::json::{escape, Json};
use lobist_server::{client, Endpoint, Server, ServerConfig};

const MODULES: &str = "2+,2*,2-";
const CANDIDATES: &str = "1+,1*,1-;2+,2*,2-;1+,2*,1-";
const FLOWS: [&str; 2] = ["testable", "traditional"];

fn designs() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../designs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("designs directory")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "dfg"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 4, "{paths:?}");
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("design text");
            (p.to_string_lossy().into_owned(), text)
        })
        .collect()
}

/// The CLI's stdout, including a lint run whose findings the default
/// policy denies.
fn cli(args: &[&str]) -> String {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    match run(&argv) {
        Ok(out) | Err(CliError::Lint { output: out, .. }) => out,
        Err(e) => panic!("{args:?}: {e}"),
    }
}

/// The daemon's `result` event for one request line, parsed. The event
/// may span several lines (`analyze` embeds its multi-line report).
fn daemon(endpoint: &Endpoint, line: &str) -> (Json, String) {
    let events = client::submit(endpoint, line).expect("submit");
    let start = events
        .iter()
        .position(|e| e.starts_with("{\"event\":\"result\""))
        .unwrap_or_else(|| panic!("no result for {line}: {events:?}"));
    let raw = events[start..events.len() - 1].join("\n");
    (Json::parse(&raw).expect("result JSON"), raw)
}

fn request(cmd: &str, text: &str, flow: &str, extra: &str) -> String {
    format!(
        r#"{{"cmd":"{cmd}","design":"{}","modules":"{MODULES}","flow":"{flow}"{extra}}}"#,
        escape(text)
    )
}

fn field<'a>(v: &'a Json, path: &[&str]) -> &'a Json {
    path.iter().fold(v, |v, k| {
        v.get(k).unwrap_or_else(|| panic!("no `{k}` in {v:?}"))
    })
}

fn num(v: &Json, path: &[&str]) -> u64 {
    field(v, path).as_u64().expect("integer")
}

/// The integers on the CLI line starting with `prefix`, in order.
fn numbers(out: &str, prefix: &str) -> Vec<u64> {
    let line = out
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in {out}"));
    line[prefix.len()..]
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("digits"))
        .collect()
}

#[test]
fn cli_and_daemon_agree_on_every_shipped_design() {
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let endpoint = Endpoint::Tcp(server.tcp_addr().expect("tcp").to_string());
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());

    for (path, text) in designs() {
        for flow in FLOWS {
            let base = |cmd: &'static str| vec![cmd, path.as_str(), "--flow", flow, "--jobs", "2"];
            let with_modules = |cmd| {
                let mut args = base(cmd);
                args.extend(["--modules", MODULES]);
                args
            };

            // explore: the report string is the CLI's output.
            let mut args = base("explore");
            args.extend(["--candidates", CANDIDATES]);
            let line = format!(
                r#"{{"cmd":"explore","design":"{}","candidates":"{CANDIDATES}","flow":"{flow}"}}"#,
                escape(&text)
            );
            let (result, _) = daemon(&endpoint, &line);
            assert_eq!(
                field(&result, &["report"]).as_str(),
                Some(cli(&args).as_str()),
                "explore {path} {flow}"
            );

            // synth: the daemon answers with the engine's design point,
            // as CLI `batch` does. (CLI `synth` prints the full design
            // of a direct synthesis, like daemon `faultsim`, `lint` and
            // `analyze` use: on a labeling-sensitive design such as
            // diffeq or ex1_renamed it can be a different allocation of
            // equal standing than the engine's canonical evaluation.)
            let args = with_modules("batch");
            let out = cli(&args);
            let row: Vec<&str> = out
                .lines()
                .nth(1)
                .expect("batch row")
                .split_whitespace()
                .collect();
            let (result, _) = daemon(&endpoint, &request("synth", &text, flow, ""));
            let point = field(&result, &["point"]);
            let Json::Num(percent) = field(point, &["overhead_percent"]) else {
                panic!("overhead_percent: {point:?}");
            };
            let percent: f64 = percent.parse().expect("percent");
            assert_eq!(
                row[1..],
                [
                    num(point, &["latency"]).to_string(),
                    num(point, &["registers"]).to_string(),
                    num(point, &["functional_gates"]).to_string(),
                    num(point, &["bist_gates"]).to_string(),
                    format!("{percent:.2}%"),
                ],
                "synth {path} {flow}"
            );

            // anneal: the committed trajectory.
            let mut args = with_modules("anneal");
            args.extend(["--iterations", "40"]);
            let out = cli(&args);
            let (result, _) = daemon(
                &endpoint,
                &request("anneal", &text, flow, r#","iterations":40"#),
            );
            let a = |k| num(&result, &["anneal", k]);
            assert_eq!(numbers(&out, "annealed search:")[0], a("iterations"));
            assert!(
                out.contains(&format!("seed 0x{:X}", a("seed"))),
                "anneal {path}: {out}"
            );
            assert_eq!(
                numbers(&out, "initial (left-edge) overhead:"),
                [a("initial_overhead")]
            );
            assert_eq!(numbers(&out, "annealed best overhead:"), [a("overhead")]);
            let moves = numbers(&out, "moves:");
            assert_eq!(
                (moves[0], moves[1], moves[3]),
                (a("evaluated"), a("accepted"), a("stalled")),
                "anneal {path} {flow}"
            );

            // faultsim: one row per module session.
            let mut args = with_modules("faultsim");
            args.extend(["--width", "6"]);
            let out = cli(&args);
            let (result, _) = daemon(
                &endpoint,
                &request("faultsim", &text, flow, r#","width":6"#),
            );
            let sim = field(&result, &["faultsim"]);
            assert_eq!(
                numbers(&out, "("),
                [num(sim, &["patterns"]), num(sim, &["width"])]
            );
            let Json::Arr(modules) = field(sim, &["modules"]) else {
                panic!("faultsim modules: {sim:?}");
            };
            let rows: Vec<&str> = out.lines().skip(1).take(modules.len()).collect();
            for (row, m) in rows.iter().zip(modules) {
                let cols: Vec<&str> = row.split_whitespace().collect();
                let label = field(m, &["module"]).as_str().expect("label");
                let Json::Num(coverage) = field(m, &["coverage"]) else {
                    panic!("coverage: {m:?}");
                };
                let coverage: f64 = coverage.parse().expect("coverage");
                assert_eq!(format!("{} {}", cols[0], cols[1]), label);
                assert_eq!(cols[2].parse::<u64>().ok(), field(m, &["faults"]).as_u64());
                assert_eq!(cols[4], format!("{:.1}%", coverage * 100.0), "{label}");
                assert_eq!(cols[5].parse::<u64>().ok(), field(m, &["aliased"]).as_u64());
            }

            // lint: the verdict, the counts and the findings text.
            let out = cli(&with_modules("lint"));
            let (result, _) = daemon(&endpoint, &request("lint", &text, flow, ""));
            let lint = field(&result, &["lint"]);
            if field(lint, &["clean"]) == &Json::Bool(true) {
                assert!(out.starts_with("lint: clean ("), "lint {path}: {out}");
            } else {
                assert_eq!(
                    out,
                    format!(
                        "{}lint: {} error(s), {} warning(s)\n",
                        field(lint, &["text"]).as_str().expect("text"),
                        num(lint, &["errors"]),
                        num(lint, &["warnings"])
                    ),
                    "lint {path} {flow}"
                );
            }

            // analyze: `--json` is the daemon's body byte for byte.
            let mut args = with_modules("analyze");
            args.push("--json");
            let out = cli(&args);
            let (_, raw) = daemon(&endpoint, &request("analyze", &text, flow, ""));
            let body = raw
                .split_once(",\"analyze\":")
                .and_then(|(_, rest)| rest.strip_suffix('}'))
                .unwrap_or_else(|| panic!("analyze event: {raw}"));
            assert_eq!(format!("{body}\n"), out, "analyze {path} {flow}");
        }
    }
    handle.shutdown();
    thread.join().expect("run thread").expect("clean shutdown");
}

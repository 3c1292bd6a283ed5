//! The metrics JSON's key paths. Every leaf of the full snapshot golden
//! (`tests/goldens/metrics/full.json`) has a row in DESIGN.md's metrics
//! table, and every CLI `--metrics` line renders the same key set, pinned
//! by `tests/goldens/metrics/cli_keys.txt`: each command takes its
//! snapshot through `Engine::metrics`, whatever work it recorded.
//!
//! To regenerate the key-set golden after an intentional change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p lobist-cli --test metrics_keys
//! ```

use lobist_cli::{run, CliError};
use lobist_server::json::Json;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Every key path of a JSON object, dot-joined, in document order; an
/// object-valued key is listed before its children.
fn key_paths(json: &Json) -> Vec<String> {
    fn walk(json: &Json, prefix: &str, out: &mut Vec<String>) {
        if let Json::Obj(fields) = json {
            for (key, value) in fields {
                let path = format!("{prefix}{key}");
                out.push(path.clone());
                walk(value, &format!("{path}."), out);
            }
        }
    }
    let mut out = Vec::new();
    walk(json, "", &mut out);
    out
}

/// The key paths with no children.
fn leaf_paths(json: &Json) -> Vec<String> {
    let all = key_paths(json);
    all.iter()
        .filter(|p| !all.iter().any(|q| q.starts_with(&format!("{p}."))))
        .cloned()
        .collect()
}

/// The `--metrics` line (the last line of stdout) of one CLI run.
fn metrics_line(args: &[&str]) -> Json {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let out = match run(&argv) {
        Ok(out) | Err(CliError::Lint { output: out, .. }) => out,
        Err(e) => panic!("{args:?}: {e}"),
    };
    let line = out.lines().last().expect("metrics line");
    Json::parse(line).unwrap_or_else(|e| panic!("{args:?}: {e:?} in {line}"))
}

#[test]
fn every_cli_metrics_line_renders_the_same_keys() {
    let design = format!("{ROOT}/designs/ex1.dfg");
    let with = |cmd: &str| {
        let json = metrics_line(&[cmd, &design, "--modules", "1+,1*", "--metrics"]);
        // Lint adds one histogram per pass it ran; nothing else does.
        let mut keys = key_paths(&json);
        keys.retain(|k| !k.starts_with("lint.pass_micros_log2_histograms."));
        keys.join("\n") + "\n"
    };
    let batch = with("batch");
    let path = format!("{ROOT}/tests/goldens/metrics/cli_keys.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &batch).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e} (run with UPDATE_GOLDENS=1 to create it)"));
    assert_eq!(batch, golden, "batch --metrics keys drifted from {path}");
    for cmd in ["faultsim", "anneal", "lint", "analyze"] {
        assert_eq!(with(cmd), batch, "{cmd} --metrics keys differ from batch");
    }
}

#[test]
fn every_metrics_key_has_a_documented_meaning() {
    let full = std::fs::read_to_string(format!("{ROOT}/tests/goldens/metrics/full.json"))
        .expect("full metrics golden");
    let full = Json::parse(full.trim_end()).expect("golden parses");
    let design = std::fs::read_to_string(format!("{ROOT}/DESIGN.md")).expect("DESIGN.md");
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("4k. Metrics"))
        .expect("DESIGN.md has the metrics section");
    let documented: Vec<&str> = section
        .lines()
        .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
        .collect();
    let leaves: Vec<String> = leaf_paths(&full)
        .into_iter()
        .map(|p| {
            if p.starts_with("lint.pass_micros_log2_histograms.") {
                "lint.pass_micros_log2_histograms.<pass>".to_owned()
            } else {
                p
            }
        })
        .collect();
    for leaf in &leaves {
        assert!(
            documented.contains(&leaf.as_str()),
            "`{leaf}` has no row in DESIGN.md's metrics table"
        );
    }
    for row in &documented {
        assert!(
            leaves.iter().any(|l| l == row),
            "DESIGN.md documents `{row}`, which the metrics JSON does not render"
        );
    }
}

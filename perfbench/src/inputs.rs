//! Seeded workload inputs. Everything here is a pure function of the
//! workload seed and size parameters, and produces *text*: the program
//! under test only ever sees the generated `.dfg` designs and request
//! lines, exactly as a user would hand them over.

use lobist_dfg::benchmarks;
use lobist_dfg::canon::{permute, permute_scheduled};
use lobist_dfg::corpus::{self, CorpusKind, KINDS};
use lobist_dfg::lifetime::LifetimeOptions;
use lobist_dfg::modules::ModuleSet;
use lobist_dfg::parse::{to_text, to_text_unscheduled};
use lobist_dfg::scheduling::list_schedule;
use lobist_dfg::Schedule;

/// The module set every corpus design is list-scheduled and synthesized
/// under (the CLI's `corpus --twin-kernels` default).
pub const CORPUS_MODULES: &str = "1+,1*,1-";

/// One design as handed to the program: its text (scheduled or not)
/// and the module set to synthesize it under.
#[derive(Debug, Clone)]
pub struct DesignText {
    /// Display label (`matmul_n64`, `ex1~twin`, ...).
    pub label: String,
    /// `.dfg` text; unscheduled text is list-scheduled under `modules`.
    pub text: String,
    /// Module set string, e.g. `1+,1*,1-`.
    pub modules: String,
    /// Primary inputs live on ports (the paper benchmarks' own
    /// convention for some designs) instead of registers.
    pub port_inputs: bool,
}

/// splitmix64, the generator the corpus itself uses.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn corpus_modules() -> ModuleSet {
    CORPUS_MODULES.parse().expect("valid module set")
}

fn corpus_label(kind: CorpusKind, size: u32) -> String {
    format!("{}_n{size}", kind.name())
}

fn scheduled_base(kind: CorpusKind, size: u32, seed: u64) -> (lobist_dfg::Dfg, Schedule) {
    let dfg = corpus::generate(kind, size, seed);
    let schedule = list_schedule(&dfg, &corpus_modules()).expect("corpus designs schedule");
    (dfg, schedule)
}

/// `sweep-large`: the corpus families at each of `sizes`, unscheduled.
pub fn sweep_large(seed: u64, sizes: &[u32]) -> Vec<DesignText> {
    let mut out = Vec::new();
    for &size in sizes {
        for kind in KINDS {
            out.push(DesignText {
                label: corpus_label(kind, size),
                text: to_text_unscheduled(&corpus::generate(kind, size, seed)),
                modules: CORPUS_MODULES.to_owned(),
                port_inputs: false,
            });
        }
    }
    out
}

/// `sweep-twins`: every corpus base at each of `sizes`, followed by two
/// renamed twins, one schedule-shifted twin kernel (renamed and moved
/// one control step later — same synthesis core, different job key)
/// and one exact repeat.
pub fn sweep_twins(seed: u64, sizes: &[u32]) -> Vec<DesignText> {
    let mut rng = seed ^ 0x7715_5EED;
    let mut out = Vec::new();
    for &size in sizes {
        for kind in KINDS {
            let label = corpus_label(kind, size);
            let (dfg, schedule) = scheduled_base(kind, size, seed);
            let base = DesignText {
                label: label.clone(),
                text: to_text_unscheduled(&dfg),
                modules: CORPUS_MODULES.to_owned(),
                port_inputs: false,
            };
            out.push(base.clone());
            for t in 0..2 {
                let (twin, twin_schedule) = permute(&dfg, &schedule, splitmix64(&mut rng));
                out.push(DesignText {
                    label: format!("{label}~twin{t}"),
                    text: to_text(&twin, &twin_schedule),
                    ..base.clone()
                });
            }
            let (twin, twin_schedule, _) = permute_scheduled(&dfg, &schedule, splitmix64(&mut rng));
            let steps: Vec<u32> = twin_schedule.as_slice().iter().map(|s| s + 1).collect();
            let moved = Schedule::new(&twin, steps).expect("uniform shifts stay topological");
            out.push(DesignText {
                label: format!("{label}~kernel"),
                text: to_text(&twin, &moved),
                ..base.clone()
            });
            out.push(DesignText {
                label: format!("{label}~repeat"),
                ..base
            });
        }
    }
    out
}

/// A daemon request: one command on one design.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// The command name (`synth`, `faultsim`, ...).
    pub cmd: &'static str,
    /// Index into the design pool.
    pub design: usize,
}

/// The daemon command mix: `(command, weight out of 100)`.
pub const MIX: [(&str, u64); 5] = [
    ("synth", 40),
    ("faultsim", 20),
    ("lint", 15),
    ("analyze", 15),
    ("anneal", 10),
];

/// Fault-simulation operand width of `faultsim` requests.
pub const FAULTSIM_WIDTH: u32 = 10;
/// Iterations of `anneal` requests.
pub const ANNEAL_ITERATIONS: u32 = 100;

/// The daemon's design pool: the paper suite plus the corpus families
/// at each of `sizes`, each followed by one renamed twin. Entries come
/// in `(base, twin)` pairs, so `pool[2 * i]` is a base design.
pub fn daemon_pool(seed: u64, sizes: &[u32]) -> Vec<DesignText> {
    let mut rng = seed ^ 0xDAE_0001;
    let mut out = Vec::new();
    for bench in benchmarks::paper_suite() {
        let base = DesignText {
            label: bench.name.clone(),
            text: to_text(&bench.dfg, &bench.schedule),
            modules: bench.module_allocation.to_string(),
            port_inputs: bench.lifetime_options == LifetimeOptions::port_inputs(),
        };
        let (twin, twin_schedule) = permute(&bench.dfg, &bench.schedule, splitmix64(&mut rng));
        out.push(base.clone());
        out.push(DesignText {
            label: format!("{}~twin", bench.name),
            text: to_text(&twin, &twin_schedule),
            ..base
        });
    }
    for &size in sizes {
        for kind in KINDS {
            let (dfg, schedule) = scheduled_base(kind, size, seed);
            let base = DesignText {
                label: corpus_label(kind, size),
                text: to_text_unscheduled(&dfg),
                modules: CORPUS_MODULES.to_owned(),
                port_inputs: false,
            };
            let (twin, twin_schedule) = permute(&dfg, &schedule, splitmix64(&mut rng));
            out.push(base.clone());
            out.push(DesignText {
                label: format!("{}~twin", base.label),
                text: to_text(&twin, &twin_schedule),
                ..base
            });
        }
    }
    out
}

/// The corpus size of a pool design, `None` for the paper suite.
pub fn corpus_size(design: &DesignText) -> Option<u32> {
    let stem = design.label.split('~').next().unwrap_or("");
    stem.rsplit_once("_n").and_then(|(_, n)| n.parse().ok())
}

/// `true` for a renamed twin of another pool design.
pub fn is_twin(design: &DesignText) -> bool {
    design.label.contains('~')
}

/// The pool designs `cmd` requests may target.
///
/// Renamed twins exist to exercise the canonical result cache, which
/// only `synth` goes through; the other commands run on base designs.
/// `anneal` runs on the paper suite only: 100 iterations take 7–18 ms
/// there but 130–250 ms on `diffeq_n8`/`matmul_n8` and seconds on
/// `matmul_n16`, where a few requests would set the session's length.
pub fn eligible(cmd: &str, design: &DesignText) -> bool {
    match cmd {
        "synth" => true,
        "anneal" => !is_twin(design) && corpus_size(design).is_none(),
        _ => !is_twin(design),
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders one request line for `cmd` on `design`.
pub fn request_line(cmd: &str, design: &DesignText) -> String {
    let mut line = format!(
        "{{\"cmd\":\"{cmd}\",\"design\":\"{}\",\"modules\":\"{}\"",
        json_escape(&design.text),
        design.modules
    );
    if design.port_inputs {
        line.push_str(",\"port_inputs\":true");
    }
    match cmd {
        "faultsim" => line.push_str(&format!(",\"width\":{FAULTSIM_WIDTH}")),
        "anneal" => line.push_str(&format!(",\"iterations\":{ANNEAL_ITERATIONS}")),
        _ => {}
    }
    line.push('}');
    line
}

/// Every request line a session can send, by command and pool index.
pub fn request_lines(pool: &[DesignText]) -> Vec<(&'static str, Vec<String>)> {
    MIX.iter()
        .map(|&(cmd, _)| (cmd, pool.iter().map(|d| request_line(cmd, d)).collect()))
        .collect()
}

/// Seeded Fisher-Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (splitmix64(rng) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// One client's seeded request list over `pool`, `len` requests long.
///
/// The list is stratified so that a run's cost depends on the seed as
/// little as possible: every block of 20 requests holds the exact
/// [`MIX`] in seeded order, and each command walks its designs in
/// seeded rounds that visit every eligible design once.
pub fn daemon_requests(seed: u64, client: u64, pool: &[DesignText], len: usize) -> Vec<Request> {
    let mut rng = seed ^ (0xC11E_0000 + client);
    let mut decks: Vec<(&'static str, Vec<usize>, usize)> = MIX
        .iter()
        .map(|&(cmd, _)| {
            let deck = (0..pool.len())
                .filter(|&i| eligible(cmd, &pool[i]))
                .collect();
            (cmd, deck, usize::MAX)
        })
        .collect();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let mut block: Vec<&'static str> = MIX
            .iter()
            .flat_map(|&(cmd, w)| std::iter::repeat_n(cmd, (w / 5) as usize))
            .collect();
        shuffle(&mut block, &mut rng);
        for cmd in block {
            let (_, deck, next) = decks
                .iter_mut()
                .find(|(c, _, _)| *c == cmd)
                .expect("every command has a deck");
            if *next >= deck.len() {
                shuffle(deck, &mut rng);
                *next = 0;
            }
            out.push(Request {
                cmd,
                design: deck[*next],
            });
            *next += 1;
        }
    }
    out.truncate(len);
    out
}

//! Golden snapshots of the testable register allocator's decisions.
//!
//! Every allocation below is pinned: the register count, how often each
//! [`ChoiceReason`] fired, and a digest of the class list plus the
//! rendered [`AllocTrace`] (the paper suite's goldens hold the full
//! text). Any change to a verdict, a choice or a trace step of
//! `allocate_registers` shows up here as a diff, so speed work on the
//! allocator can prove it made the same decisions.
//!
//! The corpus designs are list-scheduled under `1+,1*,1-` and use the
//! testable flow's lifetime conventions (registered inputs); the paper
//! benchmarks use their own schedules, module allocations and lifetime
//! options.
//!
//! To regenerate after an intentional change of the allocator:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test regalloc_goldens
//! ```

use std::fmt::Write as _;

use lobist::alloc::module_assign::assign_modules;
use lobist::alloc::testable_regalloc::{allocate_registers, TestableAllocOptions};
use lobist::alloc::trace::ChoiceReason;
use lobist::dfg::benchmarks;
use lobist::dfg::corpus::{generate, KINDS};
use lobist::dfg::lifetime::LifetimeOptions;
use lobist::dfg::modules::ModuleSet;
use lobist::dfg::scheduling::list_schedule;
use lobist::dfg::{Dfg, Schedule};

const CORPUS_SIZES: [u32; 5] = [8, 16, 32, 48, 64];
const CORPUS_SEEDS: [u64; 2] = [1, 2];
const CORPUS_MODULES: &str = "1+,1*,1-";

/// 64-bit FNV-1a: a stable digest that needs no dependency.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The allocation of one design, rendered as its summary line and its
/// full text (class list, then trace).
fn allocate(
    dfg: &Dfg,
    schedule: &Schedule,
    modules: &ModuleSet,
    lifetimes: LifetimeOptions,
) -> (String, String) {
    let ma = assign_modules(dfg, schedule, modules).expect("modules cover the design");
    let alloc = allocate_registers(
        dfg,
        schedule,
        lifetimes,
        &ma,
        &TestableAllocOptions::default(),
    )
    .expect("straight-line lifetimes are chordal");
    let mut text = String::new();
    for (r, class) in alloc.registers.classes().iter().enumerate() {
        let names: Vec<&str> = class.iter().map(|&v| dfg.var(v).name.as_str()).collect();
        writeln!(text, "R{}: {}", r + 1, names.join(" ")).unwrap();
    }
    write!(text, "{}", alloc.trace).unwrap();
    let reasons = [
        ("new", ChoiceReason::NewRegister),
        ("max_dsd", ChoiceReason::MaxDeltaSd),
        ("case1", ChoiceReason::Case1Override),
        ("case2", ChoiceReason::Case2Override),
        ("avoid", ChoiceReason::Lemma2Avoidance),
        ("unavoidable", ChoiceReason::Lemma2Unavoidable),
    ];
    let mut summary = format!("registers={}", alloc.registers.num_registers());
    for (label, reason) in &reasons {
        let n = alloc
            .trace
            .steps
            .iter()
            .filter(|s| s.reason == *reason)
            .count();
        write!(summary, " {label}={n}").unwrap();
    }
    write!(summary, " digest={:016x}", fnv1a64(text.as_bytes())).unwrap();
    (summary, text)
}

fn check_golden(file: &str, rendered: &str) {
    let path = format!(
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/regalloc/{}"),
        file
    );
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("{path}: {e}"));
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e} (run with UPDATE_GOLDENS=1 to create it)"));
    if rendered != golden {
        let first = rendered
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rendered.lines().count().min(golden.lines().count()));
        panic!(
            "{file}: allocation diverged from its golden at line {}:\n  got:    {}\n  golden: {}",
            first + 1,
            rendered.lines().nth(first).unwrap_or("<end>"),
            golden.lines().nth(first).unwrap_or("<end>")
        );
    }
}

#[test]
fn paper_suite_allocations_match_golden() {
    let mut rendered = String::new();
    for bench in benchmarks::paper_suite() {
        let (summary, text) = allocate(
            &bench.dfg,
            &bench.schedule,
            &bench.module_allocation,
            bench.lifetime_options,
        );
        writeln!(rendered, "== {} {summary}", bench.name).unwrap();
        rendered.push_str(&text);
    }
    check_golden("paper_suite.txt", &rendered);
}

#[test]
fn corpus_allocations_match_golden() {
    let modules: ModuleSet = CORPUS_MODULES.parse().unwrap();
    let mut rendered = String::new();
    for kind in KINDS {
        for size in CORPUS_SIZES {
            for seed in CORPUS_SEEDS {
                let dfg = generate(kind, size, seed);
                let schedule = list_schedule(&dfg, &modules).expect("1+,1*,1- covers the corpus");
                let (summary, _) = allocate(
                    &dfg,
                    &schedule,
                    &modules,
                    LifetimeOptions::registered_inputs(),
                );
                writeln!(rendered, "{}_n{size}_s{seed} {summary}", kind.name()).unwrap();
            }
        }
    }
    check_golden("corpus.txt", &rendered);
}

//! ASAP, ALAP and resource-constrained list scheduling.
//!
//! The paper assumes a schedule is given; these standard schedulers make
//! the library usable end-to-end from an unscheduled DFG and feed the
//! random-design experiments. All operations take one control step.

use crate::dfg::Dfg;
use crate::modules::ModuleSet;
use crate::schedule::Schedule;
use crate::types::{OpId, OpKind};

/// As-soon-as-possible schedule: every operation runs one step after its
/// latest-producing predecessor (inputs are available from step 0).
pub fn asap(dfg: &Dfg) -> Schedule {
    let mut steps = vec![0u32; dfg.num_ops()];
    for op in dfg.topo_order() {
        let ready = dfg
            .op(op)
            .input_vars()
            .filter_map(|v| dfg.var(v).producer)
            .map(|p| steps[p.index()])
            .max()
            .unwrap_or(0);
        steps[op.index()] = ready + 1;
    }
    Schedule::new(dfg, steps).expect("ASAP schedules satisfy all dependencies")
}

/// As-late-as-possible schedule for a given overall `latency` (in control
/// steps). Returns `None` if `latency` is smaller than the critical path.
pub fn alap(dfg: &Dfg, latency: u32) -> Option<Schedule> {
    let critical = asap(dfg).max_step();
    if latency < critical {
        return None;
    }
    let mut steps = vec![latency; dfg.num_ops()];
    let order = dfg.topo_order();
    for &op in order.iter().rev() {
        // The earliest consumer of this op's result bounds it from above.
        let out = dfg.op(op).out;
        let bound = dfg
            .var(out)
            .consumers
            .iter()
            .map(|c| steps[c.index()] - 1)
            .min()
            .unwrap_or(latency);
        steps[op.index()] = bound;
    }
    Some(Schedule::new(dfg, steps).expect("ALAP with latency >= critical path is valid"))
}

/// Error from resource-constrained list scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListScheduleError {
    /// No module in the set can execute an operation of this kind.
    NoCapableModule {
        /// The unsupported operation kind.
        kind: OpKind,
    },
}

impl std::fmt::Display for ListScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListScheduleError::NoCapableModule { kind } => {
                write!(f, "no module in the set can execute `{kind}` operations")
            }
        }
    }
}

impl std::error::Error for ListScheduleError {}

/// Resource-constrained list scheduling: at every step, ready operations
/// are started in order of decreasing urgency (smallest ALAP mobility
/// first) as long as a capable module is free.
///
/// Dedicated units are claimed before ALUs so ALUs stay free for the
/// kinds nothing else can serve.
///
/// The ready list is kept across steps rather than rebuilt: every op
/// counts its producing ops that are not yet placed, and an op placed at
/// step `s` releases the consumers that count drops to zero into the
/// ready list of step `s + 1`. Ops a step leaves unplaced stay ready, and
/// the list stays ordered by `(mobility, index)`, so the schedule is the
/// one the textbook per-step rescan gives in time linear in the design
/// plus the ready-list scans.
///
/// # Errors
///
/// Returns [`ListScheduleError::NoCapableModule`] if some operation kind
/// has no capable module at all.
pub fn list_schedule(dfg: &Dfg, modules: &ModuleSet) -> Result<Schedule, ListScheduleError> {
    check_capable(dfg, modules)?;
    let (mobility, latency) = mobility(dfg);
    let urgency = |op: &OpId| (mobility[op.index()], op.index());

    // Producing ops not yet placed, per op (an op reading one variable
    // on both ports waits for its producer once).
    let mut pending: Vec<u32> = dfg
        .op_ids()
        .map(|op| {
            let o = dfg.op(op);
            let mut n = 0;
            if o.lhs.var().is_some_and(|v| dfg.var(v).producer.is_some()) {
                n += 1;
            }
            if o.rhs
                .var()
                .is_some_and(|v| o.lhs.var() != Some(v) && dfg.var(v).producer.is_some())
            {
                n += 1;
            }
            n
        })
        .collect();
    let mut ready: Vec<OpId> = dfg.op_ids().filter(|op| pending[op.index()] == 0).collect();
    ready.sort_by_key(urgency);

    let mut steps = vec![0u32; dfg.num_ops()];
    let mut free: Vec<bool> = vec![true; modules.len()];
    let mut placed: Vec<OpId> = Vec::new();
    let mut released: Vec<OpId> = Vec::new();
    let mut remaining = dfg.num_ops();
    let mut step = 0u32;
    while remaining > 0 {
        step += 1;
        // A module is free until claimed this step, so a kind that found
        // no free module stays blocked for the rest of the step.
        free.fill(true);
        let mut blocked = [false; OpKind::ALL.len()];
        ready.retain(|&op| {
            let kind = dfg.op(op).kind;
            if blocked[kind as usize] {
                return true;
            }
            if claim_module(modules, &mut free, kind).is_none() {
                blocked[kind as usize] = true;
                return true;
            }
            steps[op.index()] = step;
            placed.push(op);
            false
        });
        remaining -= placed.len();
        // This step's results are available from the next step on.
        for op in placed.drain(..) {
            for &c in &dfg.var(dfg.op(op).out).consumers {
                pending[c.index()] -= 1;
                if pending[c.index()] == 0 {
                    released.push(c);
                }
            }
        }
        if !released.is_empty() {
            released.sort_by_key(urgency);
            // Two sorted runs: the stable sort merges them in linear time.
            ready.append(&mut released);
            ready.sort_by_key(urgency);
        }
        assert!(
            step <= (dfg.num_ops() as u32 + 1) * (latency + 1),
            "list scheduler failed to make progress"
        );
    }
    Ok(Schedule::new(dfg, steps).expect("list schedule respects dependencies by construction"))
}

/// Fails on the first operation kind no module of the set can execute.
fn check_capable(dfg: &Dfg, modules: &ModuleSet) -> Result<(), ListScheduleError> {
    for op in dfg.op_ids() {
        let kind = dfg.op(op).kind;
        if modules.supporting(kind).next().is_none() {
            return Err(ListScheduleError::NoCapableModule { kind });
        }
    }
    Ok(())
}

/// Per-op ALAP mobility at the critical-path latency, and that latency.
fn mobility(dfg: &Dfg) -> (Vec<u32>, u32) {
    let asap_s = asap(dfg);
    let latency = asap_s.max_step();
    let alap_s = alap(dfg, latency).expect("latency equals critical path");
    let mobility = dfg
        .op_ids()
        .map(|op| alap_s.step(op) - asap_s.step(op))
        .collect();
    (mobility, latency)
}

/// Claims a free module able to execute `kind`, preferring dedicated
/// units over ALUs (then the lowest index).
fn claim_module(modules: &ModuleSet, free: &mut [bool], kind: OpKind) -> Option<usize> {
    let m = modules
        .supporting(kind)
        .filter(|&m| free[m])
        .min_by_key(|&m| match modules.class(m) {
            crate::modules::ModuleClass::Op(_) => (0, m),
            crate::modules::ModuleClass::Alu => (1, m),
        })?;
    free[m] = false;
    Some(m)
}

/// The textbook list scheduler that rebuilds the ready list from every
/// op at every step, kept as the executable reference of
/// [`list_schedule`].
#[cfg(test)]
pub(crate) fn list_schedule_reference(
    dfg: &Dfg,
    modules: &ModuleSet,
) -> Result<Schedule, ListScheduleError> {
    check_capable(dfg, modules)?;
    let (mobility, latency) = mobility(dfg);
    let mut steps = vec![0u32; dfg.num_ops()];
    let mut done = vec![false; dfg.num_ops()];
    let mut remaining = dfg.num_ops();
    let mut step = 0u32;
    while remaining > 0 {
        step += 1;
        let mut free: Vec<bool> = vec![true; modules.len()];
        // Ready = all producing predecessors finished in earlier steps.
        let mut ready: Vec<OpId> = dfg
            .op_ids()
            .filter(|&op| !done[op.index()])
            .filter(|&op| {
                dfg.op(op)
                    .input_vars()
                    .filter_map(|v| dfg.var(v).producer)
                    .all(|p| done[p.index()] && steps[p.index()] < step)
            })
            .collect();
        ready.sort_by_key(|&op| (mobility[op.index()], op.index()));
        for op in ready {
            if claim_module(modules, &mut free, dfg.op(op).kind).is_some() {
                steps[op.index()] = step;
                done[op.index()] = true;
                remaining -= 1;
            }
        }
        assert!(
            step <= (dfg.num_ops() as u32 + 1) * (latency + 1),
            "list scheduler failed to make progress"
        );
    }
    Ok(Schedule::new(dfg, steps).expect("list schedule respects dependencies by construction"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::DfgBuilder;

    fn ladder() -> Dfg {
        // Four independent adds feeding two mults feeding one final add.
        let mut b = DfgBuilder::new();
        let ins: Vec<_> = (0..8).map(|i| b.input(&format!("x{i}"))).collect();
        let a0 = b.op(OpKind::Add, "a0", ins[0].into(), ins[1].into());
        let a1 = b.op(OpKind::Add, "a1", ins[2].into(), ins[3].into());
        let a2 = b.op(OpKind::Add, "a2", ins[4].into(), ins[5].into());
        let a3 = b.op(OpKind::Add, "a3", ins[6].into(), ins[7].into());
        let m0 = b.op(OpKind::Mul, "m0", a0.into(), a1.into());
        let m1 = b.op(OpKind::Mul, "m1", a2.into(), a3.into());
        let r = b.op(OpKind::Add, "r", m0.into(), m1.into());
        b.mark_output(r);
        b.build().unwrap()
    }

    #[test]
    fn asap_gives_critical_path() {
        let g = ladder();
        let s = asap(&g);
        assert_eq!(s.max_step(), 3);
        assert_eq!(s.step(g.op_by_name("a0_op").unwrap()), 1);
        assert_eq!(s.step(g.op_by_name("m0_op").unwrap()), 2);
        assert_eq!(s.step(g.op_by_name("r_op").unwrap()), 3);
    }

    #[test]
    fn alap_pushes_ops_late() {
        let g = ladder();
        let s = alap(&g, 5).unwrap();
        assert_eq!(s.step(g.op_by_name("r_op").unwrap()), 5);
        assert_eq!(s.step(g.op_by_name("m0_op").unwrap()), 4);
        assert_eq!(s.step(g.op_by_name("a0_op").unwrap()), 3);
    }

    #[test]
    fn alap_rejects_too_tight_latency() {
        let g = ladder();
        assert!(alap(&g, 2).is_none());
        assert!(alap(&g, 3).is_some());
    }

    #[test]
    fn list_schedule_respects_resources() {
        let g = ladder();
        let modules: ModuleSet = "1+,1*".parse().unwrap();
        let s = list_schedule(&g, &modules).unwrap();
        // Only one adder: the four adds occupy four distinct steps.
        for step in 1..=s.max_step() {
            let adds = s
                .ops_in_step(step)
                .into_iter()
                .filter(|&o| g.op(o).kind == OpKind::Add)
                .count();
            let muls = s
                .ops_in_step(step)
                .into_iter()
                .filter(|&o| g.op(o).kind == OpKind::Mul)
                .count();
            assert!(adds <= 1, "step {step} has {adds} adds");
            assert!(muls <= 1, "step {step} has {muls} muls");
        }
    }

    #[test]
    fn list_schedule_uses_parallel_resources() {
        let g = ladder();
        let wide: ModuleSet = "4+,2*".parse().unwrap();
        let s = list_schedule(&g, &wide).unwrap();
        assert_eq!(s.max_step(), 3, "ample resources recover the ASAP latency");
    }

    #[test]
    fn list_schedule_alu_fallback() {
        let g = ladder();
        let modules: ModuleSet = "1*,2ALU".parse().unwrap();
        let s = list_schedule(&g, &modules).unwrap();
        // 2 ALUs + 1 mult: adds go to ALUs.
        assert!(s.max_step() >= 3);
        for step in 1..=s.max_step() {
            assert!(s.ops_in_step(step).len() <= 3);
        }
    }

    /// The ready-list scheduler must place every op exactly where the
    /// per-step rescan does.
    fn assert_matches_reference(g: &Dfg, modules: &str, what: &str) {
        let modules: ModuleSet = modules.parse().unwrap();
        let fast = list_schedule(g, &modules).map(|s| s.as_slice().to_vec());
        let reference = list_schedule_reference(g, &modules).map(|s| s.as_slice().to_vec());
        assert_eq!(fast, reference, "{what} under {modules}");
    }

    #[test]
    fn list_schedule_matches_reference_on_random_designs() {
        let configs = [
            crate::random::RandomDfgConfig::default(),
            crate::random::RandomDfgConfig {
                num_ops: 60,
                num_inputs: 4,
                max_ops_per_step: 6,
                ..Default::default()
            },
        ];
        let module_sets = [
            "1+,1-,1*,1&",
            "2+,1-,2*,1&",
            "1*,2ALU",
            "1ALU",
            "3+,3-,3*,3&",
        ];
        for cfg in &configs {
            for seed in 0..12u64 {
                let (g, _) = crate::random::random_scheduled_dfg(seed, cfg);
                for modules in module_sets {
                    assert_matches_reference(&g, modules, &format!("random seed {seed}"));
                }
            }
        }
    }

    #[test]
    fn list_schedule_matches_reference_on_corpus() {
        for kind in crate::corpus::KINDS {
            for size in [1, 2, 5, 8, 16, 32, 48, 64] {
                let g = crate::corpus::generate(kind, size, 1);
                for modules in ["1+,1*,1-", "2+,2*,2-", "1*,1-,2ALU", "1+,3ALU"] {
                    assert_matches_reference(&g, modules, &format!("{}_n{size}", kind.name()));
                }
            }
        }
    }

    #[test]
    fn list_schedule_missing_module_kind() {
        let g = ladder();
        let modules: ModuleSet = "2+".parse().unwrap();
        assert_eq!(
            list_schedule(&g, &modules).unwrap_err(),
            ListScheduleError::NoCapableModule { kind: OpKind::Mul }
        );
    }
}

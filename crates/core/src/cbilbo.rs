//! Lemma 1 and Lemma 2: exact conditions forcing CBILBO registers.
//!
//! A register must be a CBILBO only if it is simultaneously the TPG of an
//! input port and the SA of the output port in **every** BIST embedding
//! of some module. The paper derives the exact register-assignment
//! conditions (to be followed by minimum interconnect assignment):
//!
//! * **Lemma 1.** If all embeddings of module `M_k` require a CBILBO,
//!   the output variables of `M_k` are spread over at most two registers.
//! * **Lemma 2.** `R_x` is a CBILBO in all embeddings of `M_k` iff
//!   either (i) `R_x` holds *all* of `O_Mk` and meets the operand set of
//!   every instance of `M_k`, or (ii) `R_x` holds a proper, non-empty
//!   part of `O_Mk`, meets every instance's operands, and there is an
//!   `R_y` covering the rest of `O_Mk` that also meets every instance's
//!   operands (then either of `R_x`, `R_y` must be a CBILBO).
//!
//! The testable allocator checks Lemma 2 before every merge through
//! `Lemma2State`, which keeps the lemma's counts across the coloring walk;
//! [`creates_new_forced_cbilbo`] is the same verdict recomputed from the
//! classes, and the `naive` test module the set-algebra definition. The
//! test suite pins the three to each other along real allocator walks and
//! validates the lemma against brute-force embedding enumeration.

use lobist_datapath::{ModuleAssignment, ModuleId};
use lobist_dfg::{Dfg, OpId, VarId};

use crate::variable_sets::SharingContext;

/// A register (by index into the class list) forced to be a CBILBO for a
/// module, per Lemma 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForcedCbilbo {
    /// Index of the register class.
    pub register: usize,
    /// The module whose test forces it.
    pub module: ModuleId,
    /// Which case of Lemma 2 applies.
    pub case: Lemma2Case,
}

/// The two cases of Lemma 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lemma2Case {
    /// Case (i): one register holds the entire output variable set.
    AllOutputs,
    /// Case (ii): two registers split the output variable set and both
    /// meet every instance; either must become a CBILBO.
    SplitOutputs,
}

/// Per-variable class index for a (disjoint) partial assignment.
///
/// Register classes partition variables, so each variable belongs to at
/// most one class; the map turns every set-membership test below into an
/// array lookup.
fn class_index_map(dfg: &Dfg, classes: &[Vec<VarId>]) -> Vec<Option<u32>> {
    let mut class_of = vec![None; dfg.num_vars()];
    for (c, class) in classes.iter().enumerate() {
        for &v in class {
            class_of[v.index()] = Some(c as u32);
        }
    }
    class_of
}

/// Lemma 2 for one module using counts instead of set algebra.
///
/// Because the classes are disjoint, the set comparisons of the naive
/// definition collapse to cardinality checks on the intersections
/// `i_x = R_x ∩ O_M`:
///
/// * case (i) `i_x == O_M` ⇔ `|i_x| == |O_M|`, and
/// * case (ii) `i_x ∪ i_y == O_M` ⇔ `|i_x| + |i_y| == |O_M|`,
///
/// while "meets every instance" becomes one counting sweep over the
/// module's operand lists. The `#[cfg(test)]` `naive` module keeps the
/// original `BTreeSet` formulation and the test suite asserts the two
/// agree verdict-for-verdict.
fn forced_for_module(
    dfg: &Dfg,
    ma: &ModuleAssignment,
    num_classes: usize,
    class_of: &[Option<u32>],
    m: ModuleId,
) -> Vec<ForcedCbilbo> {
    let ops = ma.ops_of(m);
    let mut out = Vec::new();
    if ops.is_empty() || num_classes == 0 {
        return out;
    }
    // |R_x ∩ O_M| per class and |O_M|, deduplicating output variables
    // (the ops of a well-formed DFG write distinct variables, but the
    // set semantics we replicate deduplicate regardless).
    let mut inter = vec![0usize; num_classes];
    let mut out_total = 0usize;
    let mut seen_out = vec![false; dfg.num_vars()];
    for &op in ops {
        let v = dfg.op(op).out;
        if seen_out[v.index()] {
            continue;
        }
        seen_out[v.index()] = true;
        out_total += 1;
        if let Some(c) = class_of[v.index()] {
            inter[c as usize] += 1;
        }
    }
    // "Meets every instance": count, per class, the instances with at
    // least one operand in the class; a stamp deduplicates within one
    // instance's operand list.
    let mut met = vec![0usize; num_classes];
    let mut stamp = vec![u32::MAX; num_classes];
    for (i, &op) in ops.iter().enumerate() {
        for v in dfg.op(op).input_vars() {
            if let Some(c) = class_of[v.index()] {
                let c = c as usize;
                if stamp[c] != i as u32 {
                    stamp[c] = i as u32;
                    met[c] += 1;
                }
            }
        }
    }
    for x in 0..num_classes {
        if inter[x] == 0 || met[x] != ops.len() {
            continue;
        }
        if inter[x] == out_total {
            out.push(ForcedCbilbo {
                register: x,
                module: m,
                case: Lemma2Case::AllOutputs,
            });
            continue;
        }
        // Case (ii): find a partner register covering the rest.
        for y in 0..num_classes {
            if y == x || inter[y] == 0 {
                continue;
            }
            if inter[x] + inter[y] == out_total && met[y] == ops.len() {
                out.push(ForcedCbilbo {
                    register: x,
                    module: m,
                    case: Lemma2Case::SplitOutputs,
                });
                break;
            }
        }
    }
    out
}

/// Evaluates Lemma 2 on a (possibly partial) register assignment given as
/// variable classes. Returns every `(register, module)` pair where the
/// register is a CBILBO in all embeddings.
///
/// Case (ii) reports both registers of the forced pair (either could be
/// chosen as the CBILBO, but one of them must be).
pub fn forced_cbilbos(
    dfg: &Dfg,
    ma: &ModuleAssignment,
    classes: &[Vec<VarId>],
) -> Vec<ForcedCbilbo> {
    let class_of = class_index_map(dfg, classes);
    let mut out = Vec::new();
    for m in ma.module_ids() {
        out.extend(forced_for_module(dfg, ma, classes.len(), &class_of, m));
    }
    out
}

/// Lemma 2 restricted to one module.
pub fn forced_cbilbos_for_module(
    dfg: &Dfg,
    ma: &ModuleAssignment,
    classes: &[Vec<VarId>],
    m: ModuleId,
) -> Vec<ForcedCbilbo> {
    let class_of = class_index_map(dfg, classes);
    forced_for_module(dfg, ma, classes.len(), &class_of, m)
}

/// Lemma 1 as a checkable predicate: if `forced_cbilbos` reports module
/// `m`, its output variables must span at most two registers.
pub fn lemma1_output_register_bound(
    dfg: &Dfg,
    ma: &ModuleAssignment,
    classes: &[Vec<VarId>],
    m: ModuleId,
) -> bool {
    let outputs = ma.output_variable_set(dfg, m);
    let spanned = classes
        .iter()
        .filter(|c| c.iter().any(|v| outputs.contains(v)))
        .count();
    spanned <= 2
}

/// `true` if assigning `v` to register `register` would create a forced
/// CBILBO that the current partial assignment does not already have.
///
/// This is the check the testable allocator runs before each merge
/// (Section III-B: "the register assignment algorithm is modified to
/// include the check and to avoid assignments leading to CBILBOs"),
/// recomputed from the classes. The allocator itself asks the incremental
/// `Lemma2State`, which must agree with this function on every probe.
pub fn creates_new_forced_cbilbo(
    dfg: &Dfg,
    ma: &ModuleAssignment,
    classes: &[Vec<VarId>],
    register: usize,
    v: VarId,
) -> bool {
    // Only the updated register's intersections change, so new forced
    // pairs can only appear for modules whose variable sets the updated
    // register (including `v`) touches — one membership-mask union over
    // the class answers that for all modules at once.
    let mut trial: Vec<Vec<VarId>> = classes.to_vec();
    trial[register].push(v);
    let ctx = SharingContext::new(dfg, ma);
    let mask = ctx.register_mask(trial[register].iter().copied());
    let class_of = class_index_map(dfg, classes);
    let mut trial_class_of = class_of.clone();
    trial_class_of[v.index()] = Some(register as u32);
    for m in ma.module_ids() {
        if !mask.touches(m.index()) {
            continue;
        }
        let before = forced_for_module(dfg, ma, classes.len(), &class_of, m).len();
        let after = forced_for_module(dfg, ma, trial.len(), &trial_class_of, m).len();
        if after > before {
            return true;
        }
    }
    false
}

/// Lemma 2 kept incrementally over a growing register assignment: the
/// state behind the testable allocator's check before every merge.
///
/// Per module `M` it holds `|O_M|`, the instance count, and for every
/// class `R_x` the counts [`forced_for_module`] derives, `|R_x ∩ O_M|`
/// and the number of instances whose operands meet `R_x`. Call the
/// classes whose intersection is non-empty and that meet every
/// instance *full*. Classes are disjoint, so the intersections of all
/// classes sum to at most `|O_M|`, and Lemma 2 forces
///
/// * one register when a single full class holds all of `O_M` (case i),
/// * two registers when exactly two full classes split `O_M` (case ii),
/// * none otherwise: a third full class holds an output the others miss.
///
/// So the forced count of a module follows from the number of full
/// classes and the sum of their intersections, both kept per module.
/// A probe re-evaluates only the modules the variable belongs to and
/// derives the probed register's new counts from the variable's
/// producing and consuming ops, without allocating; the state changes
/// only on [`commit`](Self::commit).
#[derive(Debug)]
pub(crate) struct Lemma2State<'a> {
    dfg: &'a Dfg,
    ma: &'a ModuleAssignment,
    ctx: &'a SharingContext,
    /// The class of each variable, `UNASSIGNED` if none yet.
    class_of: Vec<u32>,
    num_classes: usize,
    modules: Vec<ModuleCounts>,
    /// `|R_x ∩ O_M|` at `x * num_modules + M`.
    inter: Vec<u32>,
    /// Instances of `M` with an operand in `R_x`, at `x * num_modules + M`.
    met: Vec<u32>,
}

const UNASSIGNED: u32 = u32::MAX;

/// The per-module totals of [`Lemma2State`].
#[derive(Debug, Clone, Copy)]
struct ModuleCounts {
    /// `|O_M|`.
    outputs: u32,
    /// Number of instances (ops) of the module.
    instances: u32,
    /// Number of full classes.
    full: u32,
    /// Sum of the full classes' `|R_x ∩ O_M|`.
    full_outputs: u32,
}

impl ModuleCounts {
    fn is_full(&self, inter: u32, met: u32) -> bool {
        inter > 0 && met == self.instances
    }

    /// Registers Lemma 2 forces for this module, given its number of
    /// full classes and the sum of their intersections.
    fn forced(&self, full: u32, full_outputs: u32) -> u32 {
        if (full == 1 || full == 2) && full_outputs == self.outputs {
            full
        } else {
            0
        }
    }
}

impl<'a> Lemma2State<'a> {
    /// The state of the empty assignment (no classes).
    pub(crate) fn new(dfg: &'a Dfg, ma: &'a ModuleAssignment, ctx: &'a SharingContext) -> Self {
        let mut seen_out = vec![false; dfg.num_vars()];
        let modules = ma
            .module_ids()
            .map(|m| {
                let ops = ma.ops_of(m);
                let mut outputs = 0;
                for &op in ops {
                    let v = dfg.op(op).out;
                    if !seen_out[v.index()] {
                        seen_out[v.index()] = true;
                        outputs += 1;
                    }
                }
                for &op in ops {
                    seen_out[dfg.op(op).out.index()] = false;
                }
                ModuleCounts {
                    outputs,
                    instances: ops.len() as u32,
                    full: 0,
                    full_outputs: 0,
                }
            })
            .collect();
        Self {
            dfg,
            ma,
            ctx,
            class_of: vec![UNASSIGNED; dfg.num_vars()],
            num_classes: 0,
            modules,
            inter: Vec::new(),
            met: Vec::new(),
        }
    }

    /// How adding the unassigned `v` to class `register` grows that
    /// class's `(|R ∩ O_M|, met instances)` for module `m`: `v`'s
    /// producer adds an output of `m`, and each consumer on `m` whose
    /// other operands miss the class adds a met instance.
    fn growth(&self, register: usize, v: VarId, m: usize) -> (u32, u32) {
        let on_m = |op: OpId| self.ma.module_of(op).index() == m;
        let var = self.dfg.var(v);
        let inter = u32::from(var.producer.is_some_and(on_m));
        // `v` itself is unassigned, so only a consumer's other operand can
        // already be in the class.
        let met = var
            .consumers
            .iter()
            .filter(|&&op| {
                on_m(op)
                    && !self
                        .dfg
                        .op(op)
                        .input_vars()
                        .any(|u| self.class_of[u.index()] == register as u32)
            })
            .count() as u32;
        (inter, met)
    }

    /// `true` if adding the unassigned variable `v` to class `register`
    /// would raise some module's forced count — the verdict of
    /// [`creates_new_forced_cbilbo`] on the committed classes.
    /// `register` may be one past the last class (a new register).
    pub(crate) fn creates_new_forced(&self, register: usize, v: VarId) -> bool {
        let mut touched = self.ctx.modules_of(v);
        let fresh = register == self.num_classes;
        while touched != 0 {
            let m = touched.trailing_zeros() as usize;
            touched &= touched - 1;
            let counts = &self.modules[m];
            let (inter0, met0) = if fresh {
                (0, 0)
            } else {
                let i = register * self.modules.len() + m;
                (self.inter[i], self.met[i])
            };
            let (di, dm) = self.growth(register, v, m);
            let (inter1, met1) = (inter0 + di, met0 + dm);
            let (was, is) = (counts.is_full(inter0, met0), counts.is_full(inter1, met1));
            let full = counts.full - u32::from(was) + u32::from(is);
            let full_outputs =
                counts.full_outputs - if was { inter0 } else { 0 } + if is { inter1 } else { 0 };
            if counts.forced(full, full_outputs) > counts.forced(counts.full, counts.full_outputs) {
                return true;
            }
        }
        false
    }

    /// The forced `(register, module)` pairs of the committed classes.
    #[cfg(test)]
    pub(crate) fn forced_count(&self) -> usize {
        self.modules
            .iter()
            .map(|c| c.forced(c.full, c.full_outputs) as usize)
            .sum()
    }

    /// Adds the unassigned variable `v` to class `register`, opening a new
    /// class when `register` is one past the last.
    pub(crate) fn commit(&mut self, register: usize, v: VarId) {
        let k = self.modules.len();
        if register == self.num_classes {
            self.num_classes += 1;
            self.inter.resize(self.num_classes * k, 0);
            self.met.resize(self.num_classes * k, 0);
        }
        let mut touched = self.ctx.modules_of(v);
        while touched != 0 {
            let m = touched.trailing_zeros() as usize;
            touched &= touched - 1;
            let (di, dm) = self.growth(register, v, m);
            let i = register * k + m;
            let counts = &mut self.modules[m];
            if counts.is_full(self.inter[i], self.met[i]) {
                counts.full -= 1;
                counts.full_outputs -= self.inter[i];
            }
            self.inter[i] += di;
            self.met[i] += dm;
            if counts.is_full(self.inter[i], self.met[i]) {
                counts.full += 1;
                counts.full_outputs += self.inter[i];
            }
        }
        self.class_of[v.index()] = register as u32;
    }
}

/// The original set-algebra formulation of Lemma 2, kept as an
/// executable reference: the count-based implementation above must
/// agree with it verdict-for-verdict on disjoint classes.
#[cfg(test)]
pub(crate) mod naive {
    use std::collections::BTreeSet;

    use super::*;

    fn meets_every_instance(
        dfg: &Dfg,
        ma: &ModuleAssignment,
        m: ModuleId,
        class: &[VarId],
    ) -> bool {
        let set: BTreeSet<VarId> = class.iter().copied().collect();
        ma.ops_of(m)
            .iter()
            .all(|&op| dfg.op(op).input_vars().any(|v| set.contains(&v)))
    }

    pub fn forced_cbilbos(
        dfg: &Dfg,
        ma: &ModuleAssignment,
        classes: &[Vec<VarId>],
    ) -> Vec<ForcedCbilbo> {
        let mut out = Vec::new();
        for m in ma.module_ids() {
            out.extend(forced_cbilbos_for_module(dfg, ma, classes, m));
        }
        out
    }

    pub fn forced_cbilbos_for_module(
        dfg: &Dfg,
        ma: &ModuleAssignment,
        classes: &[Vec<VarId>],
        m: ModuleId,
    ) -> Vec<ForcedCbilbo> {
        let mut out = Vec::new();
        let outputs = ma.output_variable_set(dfg, m);
        if outputs.is_empty() {
            return out;
        }
        let inter: Vec<BTreeSet<VarId>> = classes
            .iter()
            .map(|c| c.iter().copied().filter(|v| outputs.contains(v)).collect())
            .collect();
        for (x, ix) in inter.iter().enumerate() {
            if ix.is_empty() || !meets_every_instance(dfg, ma, m, &classes[x]) {
                continue;
            }
            if *ix == outputs {
                out.push(ForcedCbilbo {
                    register: x,
                    module: m,
                    case: Lemma2Case::AllOutputs,
                });
                continue;
            }
            for (y, iy) in inter.iter().enumerate() {
                if y == x || iy.is_empty() {
                    continue;
                }
                let union: BTreeSet<VarId> = ix.union(iy).copied().collect();
                if union == outputs && meets_every_instance(dfg, ma, m, &classes[y]) {
                    out.push(ForcedCbilbo {
                        register: x,
                        module: m,
                        case: Lemma2Case::SplitOutputs,
                    });
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobist_dfg::benchmarks;

    /// Runs both the count-based and the set-based formulations and
    /// asserts they agree before returning the verdicts.
    fn forced_checked(
        dfg: &lobist_dfg::Dfg,
        ma: &ModuleAssignment,
        classes: &[Vec<VarId>],
    ) -> Vec<ForcedCbilbo> {
        let fast = forced_cbilbos(dfg, ma, classes);
        assert_eq!(fast, naive::forced_cbilbos(dfg, ma, classes));
        fast
    }

    fn ex1_setup() -> (lobist_dfg::Dfg, ModuleAssignment) {
        let bench = benchmarks::ex1();
        let ma = ModuleAssignment::from_op_names(
            &bench.dfg,
            &bench.module_allocation,
            &[("add1", 0), ("add2", 0), ("mul1", 1), ("mul2", 1)],
        )
        .unwrap();
        (bench.dfg, ma)
    }

    fn classes(dfg: &lobist_dfg::Dfg, groups: &[&[&str]]) -> Vec<Vec<VarId>> {
        groups
            .iter()
            .map(|g| g.iter().map(|n| dfg.var_by_name(n).unwrap()).collect())
            .collect()
    }

    #[test]
    fn paper_assignment_forces_adder_cbilbo() {
        // ({c,f,a}, {d,g,b,h}, {e}): the adder's outputs {d, f} are split
        // between R1 (f) and R2 (d); R1 holds a, c ∈ I of both adder
        // instances; R2 holds b, d ∈ I of both instances → case (ii).
        let (dfg, ma) = ex1_setup();
        let cl = classes(&dfg, &[&["c", "f", "a"], &["d", "g", "b", "h"], &["e"]]);
        let forced = forced_checked(&dfg, &ma, &cl);
        let adder: Vec<&ForcedCbilbo> =
            forced.iter().filter(|f| f.module == ModuleId(0)).collect();
        assert_eq!(adder.len(), 2, "both split registers are reported");
        assert!(adder.iter().all(|f| f.case == Lemma2Case::SplitOutputs));
        let regs: Vec<usize> = adder.iter().map(|f| f.register).collect();
        assert_eq!(regs, vec![0, 1]);
    }

    #[test]
    fn spreading_outputs_avoids_force() {
        // Put the adder's outputs d and f with partners that do NOT meet
        // every adder instance: {e,f} holds no adder operand at all.
        let (dfg, ma) = ex1_setup();
        let cl = classes(&dfg, &[&["e", "f"], &["g", "a", "c", "h"], &["b", "d"]]);
        let forced = forced_checked(&dfg, &ma, &cl);
        // R1 = {e,f} does not meet adder instances (e, f ∉ I_M1) → no
        // case for R1; R3 = {b,d} meets both instances and holds output d,
        // but its partner R1 (holding f) fails the instance condition →
        // not forced either.
        assert!(
            forced.iter().all(|f| f.module != ModuleId(0)),
            "adder should not be forced: {forced:?}"
        );
    }

    #[test]
    fn all_outputs_in_one_register_case_i() {
        // Mult outputs are b and h; {d,g,b,h} holds both, and g/e are mult
        // operands: g ∈ I(mul1), but does R2 meet mul2 = (c, e)? No — so
        // not forced. Make a class that meets both instances: add c.
        let (dfg, ma) = ex1_setup();
        // Hypothetical (not lifetime-proper, fine for the predicate):
        let cl = classes(&dfg, &[&["b", "h", "g", "c"], &["a", "d", "f"], &["e"]]);
        let forced = forced_checked(&dfg, &ma, &cl);
        let mult: Vec<&ForcedCbilbo> =
            forced.iter().filter(|f| f.module == ModuleId(1)).collect();
        assert_eq!(mult.len(), 1);
        assert_eq!(mult[0].case, Lemma2Case::AllOutputs);
        assert_eq!(mult[0].register, 0);
    }

    #[test]
    fn lemma1_bound_holds_for_forced_modules() {
        let (dfg, ma) = ex1_setup();
        for cl in [
            classes(&dfg, &[&["c", "f", "a"], &["d", "g", "b", "h"], &["e"]]),
            classes(&dfg, &[&["e", "f"], &["g", "a", "c", "h"], &["b", "d"]]),
            classes(&dfg, &[&["b", "h", "g", "c"], &["a", "d", "f"], &["e"]]),
        ] {
            for f in forced_checked(&dfg, &ma, &cl) {
                assert!(lemma1_output_register_bound(&dfg, &ma, &cl, f.module));
            }
        }
    }

    #[test]
    fn incremental_check_detects_new_force() {
        let (dfg, ma) = ex1_setup();
        // Partial assignment: {c,f}, {d,b}, {e}. Adding `a` to {c,f}
        // completes case (ii) for the adder ({c,f,a} meets add1 via a and
        // add2 via c; {d,b} meets add1 via b and add2 via d).
        let cl = classes(&dfg, &[&["c", "f"], &["d", "b"], &["e"]]);
        let a = dfg.var_by_name("a").unwrap();
        assert!(creates_new_forced_cbilbo(&dfg, &ma, &cl, 0, a));
        // Adding `a` to {e} creates nothing.
        assert!(!creates_new_forced_cbilbo(&dfg, &ma, &cl, 2, a));
    }

    #[test]
    fn empty_assignment_forces_nothing() {
        let (dfg, ma) = ex1_setup();
        assert!(forced_checked(&dfg, &ma, &[]).is_empty());
        assert!(forced_checked(&dfg, &ma, &[vec![], vec![]]).is_empty());
    }
}

#[cfg(test)]
mod incremental_equivalence {
    use super::*;
    use lobist_dfg::lifetime::{LifetimeOptions, Lifetimes};
    use lobist_dfg::random::{random_scheduled_dfg, RandomDfgConfig};

    /// The recompute-everything verdict: does adding `v` to class `r`
    /// raise the number of forced `(register, module)` pairs?
    fn naive(dfg: &Dfg, ma: &ModuleAssignment, classes: &[Vec<VarId>], r: usize, v: VarId) -> bool {
        let before = naive::forced_cbilbos(dfg, ma, classes);
        assert_eq!(forced_cbilbos(dfg, ma, classes), before);
        let mut trial = classes.to_vec();
        trial[r].push(v);
        let after = naive::forced_cbilbos(dfg, ma, &trial);
        assert_eq!(forced_cbilbos(dfg, ma, &trial), after);
        after.len() > before.len()
    }

    /// The optimized incremental check must agree with the naive
    /// recompute-everything definition on random partial assignments.
    #[test]
    fn optimized_check_matches_naive_on_random_designs() {
        let cfg = RandomDfgConfig {
            num_ops: 10,
            num_inputs: 4,
            max_ops_per_step: 2,
            ..RandomDfgConfig::default()
        };
        let mut compared = 0usize;
        for seed in 0..20u64 {
            let (dfg, schedule) = random_scheduled_dfg(seed, &cfg);
            let modules: lobist_dfg::modules::ModuleSet = "2+,2-,2*,2&".parse().unwrap();
            let Ok(ma) = crate::module_assign::assign_modules(&dfg, &schedule, &modules) else {
                continue;
            };
            let lt = Lifetimes::compute(&dfg, &schedule, LifetimeOptions::registered_inputs());
            // Build a partial assignment: first half of reg vars left-edge
            // style, then probe every (register, remaining var) pair.
            let vars = lt.reg_vars().to_vec();
            let half = vars.len() / 2;
            let mut classes: Vec<Vec<VarId>> = Vec::new();
            'place: for &v in &vars[..half] {
                for class in classes.iter_mut() {
                    if class.iter().all(|&u| !lt.conflicts(u, v)) {
                        class.push(v);
                        continue 'place;
                    }
                }
                classes.push(vec![v]);
            }
            for &v in &vars[half..] {
                for r in 0..classes.len() {
                    if classes[r].iter().any(|&u| lt.conflicts(u, v)) {
                        continue;
                    }
                    assert_eq!(
                        creates_new_forced_cbilbo(&dfg, &ma, &classes, r, v),
                        naive(&dfg, &ma, &classes, r, v),
                        "seed {seed}, register {r}, var {v}"
                    );
                    compared += 1;
                }
            }
        }
        assert!(compared > 50, "only {compared} probes compared");
    }

    /// A walk over a growing class list: the incremental state next to
    /// the classes it describes, checked against both references.
    struct Walk<'a> {
        dfg: &'a Dfg,
        ma: &'a ModuleAssignment,
        state: Lemma2State<'a>,
        classes: Vec<Vec<VarId>>,
        probes: usize,
    }

    impl<'a> Walk<'a> {
        fn new(dfg: &'a Dfg, ma: &'a ModuleAssignment, ctx: &'a SharingContext) -> Self {
            Self {
                dfg,
                ma,
                state: Lemma2State::new(dfg, ma, ctx),
                classes: Vec::new(),
                probes: 0,
            }
        }

        /// The incremental verdict for adding `v` to `register` (one past
        /// the last class is a fresh one) must equal both
        /// [`creates_new_forced_cbilbo`] and the naive recomputation.
        fn probe(&mut self, register: usize, v: VarId, what: &str) {
            let mut padded = self.classes.clone();
            padded.push(Vec::new());
            let incremental = self.state.creates_new_forced(register, v);
            let reference = creates_new_forced_cbilbo(self.dfg, self.ma, &padded, register, v);
            assert_eq!(
                incremental, reference,
                "{what}: register {register}, var {v}"
            );
            let recomputed = naive(self.dfg, self.ma, &padded, register, v);
            assert_eq!(
                incremental, recomputed,
                "{what}: register {register}, var {v} (naive)"
            );
            self.probes += 1;
        }

        /// Commits `v` to `register`; the state's forced count must then
        /// equal Lemma 2 on the classes so far.
        fn commit(&mut self, register: usize, v: VarId, what: &str) {
            self.state.commit(register, v);
            if register == self.classes.len() {
                self.classes.push(Vec::new());
            }
            self.classes[register].push(v);
            let forced = forced_cbilbos(self.dfg, self.ma, &self.classes).len();
            assert_eq!(
                self.state.forced_count(),
                forced,
                "{what}: after committing {v}"
            );
        }
    }

    /// Replays the testable allocator's real coloring walk on one design,
    /// probing every compatible register plus a fresh one at every step.
    /// Returns the number of probes.
    fn replay_walk(
        dfg: &Dfg,
        schedule: &lobist_dfg::Schedule,
        modules: &lobist_dfg::modules::ModuleSet,
        lifetimes: LifetimeOptions,
        what: &str,
    ) -> usize {
        let Ok(ma) = crate::module_assign::assign_modules(dfg, schedule, modules) else {
            return 0;
        };
        let alloc = crate::testable_regalloc::allocate_registers(
            dfg,
            schedule,
            lifetimes,
            &ma,
            &crate::testable_regalloc::TestableAllocOptions::default(),
        )
        .expect("chordal");
        let ctx = SharingContext::new(dfg, &ma);
        let mut walk = Walk::new(dfg, &ma, &ctx);
        for step in &alloc.trace.steps {
            let what = format!("{what}, step {}", step.position);
            let fresh = walk.classes.len();
            for r in step.candidates.iter().map(|c| c.register).chain([fresh]) {
                walk.probe(r, step.variable, &what);
            }
            walk.commit(step.chosen, step.variable, &what);
        }
        walk.probes
    }

    #[test]
    fn incremental_state_matches_references_along_the_coloring_walk() {
        let cfg = RandomDfgConfig {
            num_ops: 16,
            num_inputs: 5,
            max_ops_per_step: 3,
            ..RandomDfgConfig::default()
        };
        let lifetimes = [
            LifetimeOptions::registered_inputs(),
            LifetimeOptions::port_inputs(),
        ];
        let mut probes = 0;
        for seed in 0..24u64 {
            let (dfg, schedule) = random_scheduled_dfg(seed, &cfg);
            for modules in ["2+,2-,2*,2&", "1+,1-,1*,1&", "1*,2ALU"] {
                let modules = modules.parse().unwrap();
                for lt in lifetimes {
                    let what = format!("seed {seed} under {modules}");
                    probes += replay_walk(&dfg, &schedule, &modules, lt, &what);
                }
            }
        }
        for kind in lobist_dfg::corpus::KINDS {
            for size in [8, 12, 16] {
                let dfg = lobist_dfg::corpus::generate(kind, size, 1);
                for modules in ["1+,1*,1-", "2+,2*,2-"] {
                    let modules = modules.parse().unwrap();
                    let schedule = lobist_dfg::scheduling::list_schedule(&dfg, &modules).unwrap();
                    let what = format!("{}_n{size} under {modules}", kind.name());
                    probes += replay_walk(&dfg, &schedule, &modules, lifetimes[0], &what);
                }
            }
        }
        assert!(probes > 2000, "only {probes} probes compared");
    }

    /// Lifetime-proper classes never hold two operands of one op (both
    /// are live when it reads them), so the allocator's walk never meets a
    /// consumer whose other operand already sits in the probed class.
    /// Arbitrary classes do: commit every variable to a random class and
    /// probe every register at every step.
    #[test]
    fn incremental_state_matches_references_on_arbitrary_classes() {
        let cfg = RandomDfgConfig {
            num_ops: 12,
            num_inputs: 4,
            max_ops_per_step: 3,
            ..RandomDfgConfig::default()
        };
        let modules: lobist_dfg::modules::ModuleSet = "2+,2-,2*,2&".parse().unwrap();
        let mut probes = 0;
        for seed in 0..20u64 {
            let (dfg, schedule) = random_scheduled_dfg(seed, &cfg);
            let Ok(ma) = crate::module_assign::assign_modules(&dfg, &schedule, &modules) else {
                continue;
            };
            let ctx = SharingContext::new(&dfg, &ma);
            let mut walk = Walk::new(&dfg, &ma, &ctx);
            let mut rng = seed;
            let what = format!("seed {seed}");
            for v in dfg.var_ids() {
                let n = walk.classes.len();
                for r in 0..=n {
                    walk.probe(r, v, &what);
                }
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // At most four classes, so operands often share one.
                let chosen = (((rng >> 33) % (n as u64 + 1)) as usize).min(3);
                walk.commit(chosen, v, &what);
            }
            probes += walk.probes;
        }
        assert!(probes > 500, "only {probes} probes compared");
    }
}

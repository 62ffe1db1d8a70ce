//! Output conformance: does `T(L(S)) ⊆ L(D)` for a target schema `D`?
//!
//! Text-preservation asks how the transformation treats *text*; output
//! conformance asks whether the transformed documents still *validate*
//! against a target DTD — the classic typechecking question, restricted to
//! the paper's uniform top-down transducers where it stays in PTIME-ish
//! territory via **inverse type inference** (the standard route, cf.
//! Martens–Neven "Typechecking top-down uniform unranked tree transducers").
//!
//! The construction computes, for every input tree `t`, its **type**
//! `τ_t : Q_T → B`: what each transducer state's output `T^q(t)` *does* to
//! the target automaton. A single behavior `b ∈ B` is
//!
//! * a relation over `U`, the disjoint union of all content NFAs of `D`:
//!   `(x, y) ∈ R` iff the output hedge can drive `U` from `x` to `y` (each
//!   output tree deriving a target state `d` moves `U` along a `d`-labelled
//!   content transition); and
//! * a bit `conforms`: whether every component tree of the output hedge
//!   derives a *root* state of `D` (the top-level acceptance condition,
//!   which the relation alone cannot express).
//!
//! Behaviors compose like relations (`R₁;R₂`, `c₁∧c₂`), so the type of
//! `a(t₁…tₙ)` is a function of `a` and the pointwise product
//! `τ_{t₁} ⊗ ⋯ ⊗ τ_{tₙ}` — the content language of each type is recognized
//! by the *product monoid graph*, shared across all types and symbols, with
//! per-`(τ, a)` final sets. Types are finitely many, so a worklist closure
//! discovers them all (budget-charged per new type, product and
//! transition), and the **bad NTA** — trees whose image violates `D`,
//! i.e. `¬τ_t(q₀).conforms` — falls out directly. A violation witness is
//! then a tree of `L(S) ∩ L(bad)`, found with the existing governed
//! intersect/trim/witness pipeline.

use std::collections::HashMap;

use crate::stage::StageCtx;
use crate::transducer::{RhsNode, Transducer};
use tpx_automata::Nfa;
use tpx_treeauto::{Nta, State};
use tpx_trees::budget::{BudgetExceeded, BudgetHandle};
use tpx_trees::{Hedge, Symbol, Tree};

/// The compiled artifact of the output-conformance analysis: the NTA of
/// input trees whose image under `T` does **not** conform to the target.
/// Depends on the transducer and the target schema (and the alphabet
/// width), but not on the input schema, so the engine layer caches it per
/// `(T, D)` pair.
#[derive(Clone, Debug)]
pub struct ConformanceArtifacts {
    /// Accepts exactly the trees `t` (over the shared alphabet) with
    /// `T(t) ⊭ D`.
    pub bad: Nta,
}

impl ConformanceArtifacts {
    /// Total size of the compiled artifact.
    pub fn size(&self) -> usize {
        self.bad.size()
    }
}

// ---------------------------------------------------------------------------
// Relations over U (bitset rows) and behaviors.
// ---------------------------------------------------------------------------

fn rel_identity(u: usize, wpr: usize) -> Vec<u64> {
    let mut rel = vec![0u64; u * wpr];
    for x in 0..u {
        rel[x * wpr + x / 64] |= 1u64 << (x % 64);
    }
    rel
}

fn rel_set(rel: &mut [u64], x: usize, y: usize, wpr: usize) {
    rel[x * wpr + y / 64] |= 1u64 << (y % 64);
}

fn rel_get(rel: &[u64], x: usize, y: usize, wpr: usize) -> bool {
    rel[x * wpr + y / 64] & (1u64 << (y % 64)) != 0
}

fn rel_union_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

fn rel_compose(a: &[u64], b: &[u64], u: usize, wpr: usize) -> Vec<u64> {
    let mut out = vec![0u64; u * wpr];
    for x in 0..u {
        let arow = &a[x * wpr..(x + 1) * wpr];
        for (w, &word) in arow.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let y = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let brow = &b[y * wpr..(y + 1) * wpr];
                for (i, &bw) in brow.iter().enumerate() {
                    out[x * wpr + i] |= bw;
                }
            }
        }
    }
    out
}

/// What an output hedge does to the target automaton: a relation over `U`
/// plus the top-level acceptance bit.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Behavior {
    rel: Vec<u64>,
    conforms: bool,
}

impl Behavior {
    fn compose(&self, other: &Behavior, u: usize, wpr: usize) -> Behavior {
        Behavior {
            rel: rel_compose(&self.rel, &other.rel, u, wpr),
            conforms: self.conforms && other.conforms,
        }
    }
}

// ---------------------------------------------------------------------------
// Target-side index: U, per-child-state step relations, roots, text.
// ---------------------------------------------------------------------------

struct Block {
    init: Vec<usize>,
    fin: Vec<usize>,
}

struct TargetIndex {
    u: usize,
    wpr: usize,
    /// `blocks[d][sym]`: the content NFA of `(d, sym)` embedded in `U`.
    blocks: Vec<Vec<Option<Block>>>,
    /// `step[d]`: all `d`-labelled content transitions of `U`.
    step: Vec<Vec<u64>>,
    text_set: Vec<bool>,
    root_set: Vec<bool>,
    n_target_states: usize,
}

impl TargetIndex {
    fn build(target: &Nta, budget: &BudgetHandle) -> Result<TargetIndex, BudgetExceeded> {
        let nd = target.state_count();
        let nsym = target.symbol_count();
        let mut blocks: Vec<Vec<Option<Block>>> = Vec::with_capacity(nd);
        let mut u = 0usize;
        let mut offsets: Vec<Vec<usize>> = Vec::with_capacity(nd);
        for d in target.states() {
            let mut row = Vec::with_capacity(nsym);
            let mut offs = Vec::with_capacity(nsym);
            for sym in 0..nsym {
                let block = target.content(d, Symbol(sym as u32)).map(|nfa| {
                    let offset = u;
                    u += nfa.state_count();
                    offs.push(offset);
                    Block {
                        init: nfa
                            .initial_states()
                            .iter()
                            .map(|q| offset + q.index())
                            .collect(),
                        fin: nfa
                            .states()
                            .filter(|&q| nfa.is_final(q))
                            .map(|q| offset + q.index())
                            .collect(),
                    }
                });
                if block.is_none() {
                    offs.push(usize::MAX);
                }
                row.push(block);
            }
            blocks.push(row);
            offsets.push(offs);
        }
        budget.charge(1 + u as u64)?;
        let wpr = u.div_ceil(64);
        let mut step = vec![vec![0u64; u * wpr]; nd];
        for d in target.states() {
            for sym in 0..nsym {
                if blocks[d.0 as usize][sym].is_none() {
                    continue;
                }
                let offset = offsets[d.0 as usize][sym];
                let nfa = target.content(d, Symbol(sym as u32)).expect("block exists");
                for q in nfa.states() {
                    for &(child, r) in nfa.transitions_from(q) {
                        budget.charge(1)?;
                        rel_set(
                            &mut step[child.0 as usize],
                            offset + q.index(),
                            offset + r.index(),
                            wpr,
                        );
                    }
                }
            }
        }
        let text_set = target.states().map(|d| target.text_ok(d)).collect();
        let mut root_set = vec![false; nd];
        for &r in target.roots() {
            root_set[r.0 as usize] = true;
        }
        Ok(TargetIndex {
            u,
            wpr,
            blocks,
            step,
            text_set,
            root_set,
            n_target_states: nd,
        })
    }

    fn identity(&self) -> Behavior {
        Behavior {
            rel: rel_identity(self.u, self.wpr),
            conforms: true,
        }
    }

    /// Behavior of a single output tree deriving exactly the states
    /// `derivable` of the target.
    fn single_tree(&self, derivable: &[bool]) -> Behavior {
        let mut rel = vec![0u64; self.u * self.wpr];
        let mut conforms = false;
        for (d, &ok) in derivable.iter().enumerate() {
            if ok {
                rel_union_into(&mut rel, &self.step[d]);
                conforms |= self.root_set[d];
            }
        }
        Behavior { rel, conforms }
    }

    /// Behavior of a single output element `b(h)` where the sub-hedge has
    /// relation `inner_rel`.
    fn elem(&self, b: Symbol, inner_rel: &[u64]) -> Behavior {
        let mut derivable = vec![false; self.n_target_states];
        for (d, slot) in derivable.iter_mut().enumerate() {
            if let Some(block) = self.blocks[d].get(b.index()).and_then(Option::as_ref) {
                *slot = block.init.iter().any(|&x| {
                    block
                        .fin
                        .iter()
                        .any(|&y| rel_get(inner_rel, x, y, self.wpr))
                });
            }
        }
        self.single_tree(&derivable)
    }

    fn text(&self) -> Behavior {
        let text_set = self.text_set.clone();
        self.single_tree(&text_set)
    }
}

// ---------------------------------------------------------------------------
// Type inference.
// ---------------------------------------------------------------------------

fn eval_hedge(
    nodes: &[RhsNode],
    prod: &[Behavior],
    idx: &TargetIndex,
    budget: &BudgetHandle,
) -> Result<Behavior, BudgetExceeded> {
    let mut acc = idx.identity();
    for n in nodes {
        budget.charge(1)?;
        let b = match n {
            RhsNode::State(p) => prod[p.0 as usize].clone(),
            RhsNode::Elem(sym, sub) => {
                let inner = eval_hedge(sub, prod, idx, budget)?;
                idx.elem(*sym, &inner.rel)
            }
        };
        acc = acc.compose(&b, idx.u, idx.wpr);
    }
    Ok(acc)
}

/// The type of a tree `a(t₁…tₙ)` from the product of the children's types:
/// evaluate each state's rule template over `prod`. Symbols outside the
/// transducer's alphabet behave like missing rules (output `ε`).
fn apply_symbol(
    t: &Transducer,
    sym: usize,
    prod: &[Behavior],
    idx: &TargetIndex,
    budget: &BudgetHandle,
) -> Result<Vec<Behavior>, BudgetExceeded> {
    let mut out = Vec::with_capacity(t.state_count());
    for q in t.states() {
        let rhs = if sym < t.symbol_count() {
            t.rhs(q, Symbol(sym as u32))
        } else {
            None
        };
        out.push(match rhs {
            Some(rhs) => eval_hedge(rhs, prod, idx, budget)?,
            None => idx.identity(),
        });
    }
    Ok(out)
}

fn intern(
    arena: &mut Vec<Vec<Behavior>>,
    ids: &mut HashMap<Vec<Behavior>, usize>,
    v: Vec<Behavior>,
    budget: &BudgetHandle,
    unit: u64,
) -> Result<usize, BudgetExceeded> {
    if let Some(&i) = ids.get(&v) {
        return Ok(i);
    }
    budget.charge(unit)?;
    let i = arena.len();
    ids.insert(v.clone(), i);
    arena.push(v);
    Ok(i)
}

/// The artifact stage of the conformance analysis: the NTA of input trees
/// over an `n_symbols`-wide alphabet whose image under `t` violates
/// `target`.
///
/// `n_symbols` must cover every symbol that input trees may carry — pass
/// `max` over the transducer, the target *and* the input schema(s) the
/// artifact will be checked against (symbols unknown to `t` are transformed
/// to `ε`, which still matters for the type of their ancestors).
pub fn compile_conformance_artifacts(
    t: &Transducer,
    target: &Nta,
    n_symbols: usize,
    ctx: StageCtx<'_>,
) -> Result<ConformanceArtifacts, BudgetExceeded> {
    let budget = ctx.budget;
    budget.charge(1)?;
    let idx = TargetIndex::build(target, budget)?;
    let n_syms = n_symbols.max(t.symbol_count()).max(target.symbol_count());
    let nq = t.state_count();
    // Rough memory footprint of one type / product, in fuel units.
    let unit = 1 + (nq * (idx.u * idx.wpr + 1)) as u64;

    let mut types: Vec<Vec<Behavior>> = Vec::new();
    let mut type_ids: HashMap<Vec<Behavior>, usize> = HashMap::new();
    let mut prods: Vec<Vec<Behavior>> = Vec::new();
    let mut prod_ids: HashMap<Vec<Behavior>, usize> = HashMap::new();
    // apply_res[p][sym]: the type of `sym(h)` for a child hedge with product p.
    let mut apply_res: Vec<Vec<usize>> = Vec::new();
    // prod_trans[p][τ]: the product p ⊗ τ.
    let mut prod_trans: Vec<Vec<usize>> = Vec::new();

    let id_beh = idx.identity();
    let text_beh = idx.text();
    let text_type: Vec<Behavior> = t
        .states()
        .map(|q| {
            if t.text_rule(q) {
                text_beh.clone()
            } else {
                id_beh.clone()
            }
        })
        .collect();
    let text_tid = intern(&mut types, &mut type_ids, text_type, budget, unit)?;
    intern(
        &mut prods,
        &mut prod_ids,
        vec![id_beh.clone(); nq],
        budget,
        unit,
    )?;

    loop {
        let mut progress = false;
        while apply_res.len() < prods.len() {
            let p = apply_res.len();
            let mut row = Vec::with_capacity(n_syms);
            for sym in 0..n_syms {
                let ty = apply_symbol(t, sym, &prods[p], &idx, budget)?;
                row.push(intern(&mut types, &mut type_ids, ty, budget, unit)?);
            }
            apply_res.push(row);
            progress = true;
        }
        for p in 0..prods.len() {
            if prod_trans.len() <= p {
                prod_trans.push(Vec::new());
            }
            while prod_trans[p].len() < types.len() {
                let ti = prod_trans[p].len();
                budget.charge(1)?;
                let next: Vec<Behavior> = prods[p]
                    .iter()
                    .zip(types[ti].iter())
                    .map(|(a, b)| a.compose(b, idx.u, idx.wpr))
                    .collect();
                let pid = intern(&mut prods, &mut prod_ids, next, budget, unit)?;
                prod_trans[p].push(pid);
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }

    // Assemble the bad NTA: one state per type, content models from the
    // product monoid graph, roots = types whose initial-state behavior
    // fails the top-level acceptance check.
    let mut bad = Nta::new(n_syms);
    let states: Vec<State> = (0..types.len()).map(|_| bad.add_state()).collect();
    bad.set_text_ok(states[text_tid], true);
    for sym in 0..n_syms {
        let mut finals_for: HashMap<usize, Vec<usize>> = HashMap::new();
        for (p, row) in apply_res.iter().enumerate() {
            finals_for.entry(row[sym]).or_default().push(p);
        }
        for (&tid, fprods) in &finals_for {
            let mut nfa: Nfa<State> = Nfa::new();
            let sts: Vec<_> = (0..prods.len()).map(|_| nfa.add_state()).collect();
            nfa.set_initial(sts[0]);
            for &p in fprods {
                nfa.set_final(sts[p], true);
            }
            for (p, row) in prod_trans.iter().enumerate() {
                for (ti, &succ) in row.iter().enumerate() {
                    nfa.add_transition(sts[p], states[ti], sts[succ]);
                }
            }
            budget.charge(nfa.size() as u64)?;
            bad.set_content(states[tid], Symbol(sym as u32), nfa);
        }
    }
    let q0 = t.initial().0 as usize;
    for (tid, ty) in types.iter().enumerate() {
        if !ty[q0].conforms {
            bad.add_root(states[tid]);
        }
    }
    Ok(ConformanceArtifacts { bad })
}

/// The decision stage of the conformance analysis over a precompiled
/// artifact: a schema tree whose image violates the target, or `None` when
/// `T(L(schema)) ⊆ L(target)`. Runs the governed intersect → trim →
/// witness pipeline under the context's budget.
pub fn conformance_witness_with(
    art: &ConformanceArtifacts,
    schema: &Nta,
    ctx: StageCtx<'_>,
) -> Result<Option<Tree>, BudgetExceeded> {
    let budget = ctx.budget;
    budget.charge(1)?;
    let padded;
    let schema = if schema.symbol_count() < art.bad.symbol_count() {
        padded = pad_symbols(schema, art.bad.symbol_count());
        &padded
    } else {
        assert!(
            schema.symbol_count() == art.bad.symbol_count(),
            "conformance artifact compiled for a narrower alphabet than the schema; \
             pass the schema's symbol count to compile_conformance_artifacts"
        );
        schema
    };
    let product = art.bad.intersect(schema, budget)?.trim(budget)?;
    product.witness(budget)
}

/// Widens an NTA to a larger alphabet (new symbols get no content rules).
fn pad_symbols(nta: &Nta, n_symbols: usize) -> Nta {
    debug_assert!(n_symbols >= nta.symbol_count());
    let mut out = Nta::new(n_symbols);
    for _ in 0..nta.state_count() {
        out.add_state();
    }
    for q in nta.states() {
        out.set_text_ok(q, nta.text_ok(q));
        for sym in 0..nta.symbol_count() {
            let s = Symbol(sym as u32);
            if let Some(nfa) = nta.content(q, s) {
                out.set_content(q, s, nfa.clone());
            }
        }
    }
    for &r in nta.roots() {
        out.add_root(r);
    }
    out
}

/// A schema tree whose image under `t` does not conform to `target`, or
/// `None` when the transformation always stays inside the target.
///
/// One-shot convenience running both stages under an unlimited budget;
/// the engine's `OutputConformanceDecider` caches the artifact instead.
pub fn conformance_witness(t: &Transducer, schema: &Nta, target: &Nta) -> Option<Tree> {
    let n = t
        .symbol_count()
        .max(target.symbol_count())
        .max(schema.symbol_count());
    StageCtx::unlimited(|ctx| {
        let art = compile_conformance_artifacts(t, target, n, ctx)?;
        conformance_witness_with(&art, schema, ctx)
    })
    .expect("unlimited budget")
}

// ---------------------------------------------------------------------------
// Semantic (per-tree) oracle, used by witness validation and diffcheck.
// ---------------------------------------------------------------------------

/// Whether every component tree of the hedge is accepted by `target` — the
/// per-document conformance relation the symbolic analysis decides. The
/// empty hedge conforms vacuously.
pub fn hedge_conforms(h: &Hedge, target: &Nta) -> bool {
    let acc = target.accepting_states(h);
    h.roots().iter().all(|r| {
        acc.get(r)
            .is_some_and(|qs| qs.iter().any(|q| target.roots().contains(q)))
    })
}

/// Whether `t`'s image of one input tree conforms to `target`.
pub fn conforms_on(t: &Transducer, tree: &Tree, target: &Nta) -> bool {
    hedge_conforms(&t.transform(tree), target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;
    use crate::transducer::TransducerBuilder;
    use tpx_obs::Tracer;
    use tpx_schema::samples::recipe_dtd;
    use tpx_trees::budget::{Budget, ExhaustReason};
    use tpx_trees::samples::recipe_alphabet;
    use tpx_trees::Alphabet;

    /// The identity transducer over `alpha`: every symbol maps to itself.
    fn identity_transducer(alpha: &Alphabet) -> Transducer {
        let mut b = TransducerBuilder::new(alpha, "q");
        for s in alpha.symbols() {
            let name = alpha.name(s).to_string();
            b.rule("q", &name, &format!("{name}(q)"));
        }
        b.text_rule("q");
        b.finish()
    }

    #[test]
    fn identity_conforms_to_its_own_schema() {
        let al = recipe_alphabet();
        let nta = recipe_dtd(&al).to_nta();
        let t = identity_transducer(&al);
        assert!(conformance_witness(&t, &nta, &nta).is_none());
    }

    #[test]
    fn stripping_transducer_violates_the_original_schema() {
        let al = recipe_alphabet();
        let nta = recipe_dtd(&al).to_nta();
        // Example 4.2 deletes comments and strips item markup — its output
        // no longer validates against the recipe DTD (which requires a
        // comments section).
        let t = samples::example_4_2(&al);
        let w = conformance_witness(&t, &nta, &nta).expect("violation");
        assert!(nta.accepts(&w), "witness must be a schema tree");
        assert!(
            !conforms_on(&t, &w, &nta),
            "witness image must violate the target"
        );
    }

    #[test]
    fn relabeling_conforms_exactly_to_the_relabeled_target() {
        let al = Alphabet::from_labels(["a", "b"]);
        // Schema: a-trees, a → a*.
        let mut schema = Nta::new(2);
        let sa = schema.add_state();
        let mut c: Nfa<State> = Nfa::new();
        let c0 = c.add_state();
        c.set_initial(c0);
        c.set_final(c0, true);
        c.add_transition(c0, sa, c0);
        schema.set_content(sa, al.sym("a"), c);
        schema.add_root(sa);
        // Transducer: relabel a → b.
        let mut b = TransducerBuilder::new(&al, "q");
        b.rule("q", "a", "b(q)");
        let t = b.finish();
        // Target accepting all b-trees: conforms.
        let mut target = Nta::new(2);
        let sb = target.add_state();
        let mut cb: Nfa<State> = Nfa::new();
        let cb0 = cb.add_state();
        cb.set_initial(cb0);
        cb.set_final(cb0, true);
        cb.add_transition(cb0, sb, cb0);
        target.set_content(sb, al.sym("b"), cb);
        target.add_root(sb);
        assert!(conformance_witness(&t, &schema, &target).is_none());
        // Target accepting only b-leaves: a(a) maps to b(b), which violates.
        let mut leaf_only = Nta::new(2);
        let sl = leaf_only.add_state();
        let mut cl: Nfa<State> = Nfa::new();
        let cl0 = cl.add_state();
        cl.set_initial(cl0);
        cl.set_final(cl0, true);
        leaf_only.set_content(sl, al.sym("b"), cl);
        leaf_only.add_root(sl);
        let w = conformance_witness(&t, &schema, &leaf_only).expect("violation");
        assert!(schema.accepts(&w));
        assert!(!conforms_on(&t, &w, &leaf_only));
        assert!(w.as_hedge().node_count() >= 2, "needs a nested a-node");
    }

    #[test]
    fn deleting_everything_conforms_vacuously() {
        let al = recipe_alphabet();
        let nta = recipe_dtd(&al).to_nta();
        // A transducer with no rules at all outputs the empty hedge.
        let b = TransducerBuilder::new(&al, "q").finish();
        assert!(conformance_witness(&b, &nta, &nta).is_none());
    }

    #[test]
    fn staged_pipeline_charges_fuel_and_fails_on_zero_budget() {
        let al = recipe_alphabet();
        let nta = recipe_dtd(&al).to_nta();
        let t = samples::example_4_2(&al);
        let n = t.symbol_count().max(nta.symbol_count());
        let gen = Budget::default().with_fuel(50_000_000).start();
        let gen_ctx = StageCtx::new(&gen, Tracer::disabled_ref());
        let art = compile_conformance_artifacts(&t, &nta, n, gen_ctx).unwrap();
        conformance_witness_with(&art, &nta, gen_ctx).unwrap();
        assert!(gen.fuel_spent() > 0);
        let z = Budget::default().with_fuel(0).start();
        let z_ctx = StageCtx::new(&z, Tracer::disabled_ref());
        let err = compile_conformance_artifacts(&t, &nta, n, z_ctx)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.reason, ExhaustReason::Fuel);
        let err = conformance_witness_with(&art, &nta, z_ctx)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.reason, ExhaustReason::Fuel);
    }
}

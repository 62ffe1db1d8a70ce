//! Output checks made apart from the deciders.
//!
//! A verdict is judged by running the transformation itself (the
//! operational semantics, not the decision procedures) on concrete schema
//! trees with unique text values:
//!
//! - a violation must replay on its witness: a copying or rearranging
//!   witness yields output text that is not a subsequence of the input's
//!   (Definition 2.2), a `DeletesText` path loses its text, and a
//!   `NonConforming` output fails the target schema;
//! - a pass must hold on every schema tree up to a size bound (exact for
//!   chain schemas, whose only tree is one path);
//! - where the generator knows the answer, the verdict must equal it.
//!
//! The self-test feeds these checks flipped verdicts and corrupted
//! witnesses and confirms each one is rejected.

use std::collections::HashSet;

use textpres::dtl::bounded::enumerate_schema_trees;
use textpres::dtl::{DtlTransducer, XPathPatterns};
use textpres::engine::Outcome;
use textpres::topdown::{PathSym, Transducer};
use textpres::treeauto::Nta;
use textpres::trees::{is_subsequence, make_value_unique, Hedge, HedgeBuilder, Symbol, Tree};

/// Largest schema tree (in nodes) searched for one that carries a witness
/// path, and how many trees one bound may enumerate.
const PATH_SEARCH: (usize, usize) = (12, 20_000);

/// Schema trees of at most `max_nodes` nodes. The enumerator stops at
/// `limit` trees in an order that is not by size, so a truncated large bound
/// can miss small trees: bounds grow one node at a time, and the result is
/// the largest complete enumeration plus the first truncated one.
pub fn schema_trees(schema: &Nta, max_nodes: usize, limit: usize) -> Vec<Tree> {
    let mut complete = Vec::new();
    for bound in 1..=max_nodes {
        let trees = enumerate_schema_trees(schema, bound, limit);
        if trees.len() >= limit {
            complete.extend(trees);
            break;
        }
        complete = trees;
    }
    complete
}

/// A transformation whose outputs are replayed.
#[derive(Clone, Copy)]
pub enum Machine<'a> {
    Topdown(&'a Transducer),
    Dtl(&'a DtlTransducer<XPathPatterns>),
}

impl Machine<'_> {
    fn run(&self, t: &Tree) -> Result<Hedge, String> {
        match self {
            Machine::Topdown(m) => Ok(m.transform(t)),
            Machine::Dtl(m) => m
                .transform(t)
                .map_err(|e| format!("the DTL program does not run: {e:?}")),
        }
    }
}

/// The property an analysis decides.
#[derive(Clone, Copy)]
pub enum Property<'a> {
    TextPreservation,
    /// No text below a node with one of these labels is deleted.
    TextRetention(&'a [Symbol]),
    /// Every output tree validates against this target schema.
    Conformance(&'a Nta),
}

/// Whether `m` has the property on `tree`, judged by running it on the
/// tree with unique text values.
pub fn holds_on(m: Machine, prop: Property, tree: &Tree) -> Result<bool, String> {
    let input = make_value_unique(tree.as_hedge());
    let root = *input.roots().first().ok_or("empty input tree")?;
    let input = input.subtree(root);
    let out = m.run(&input)?;
    let h = input.as_hedge();
    Ok(match prop {
        Property::TextPreservation => is_subsequence(&out.text_content(), &h.text_content()),
        Property::TextRetention(labels) => {
            let kept: HashSet<&str> = out.text_content().into_iter().collect();
            h.text_nodes().into_iter().all(|v| {
                let selected = std::iter::successors(h.parent(v), |&p| h.parent(p))
                    .any(|p| h.label(p).elem().is_some_and(|s| labels.contains(&s)));
                !selected || h.label(v).text().is_some_and(|t| kept.contains(t))
            })
        }
        Property::Conformance(target) => {
            out.roots().iter().all(|&r| target.accepts(&out.subtree(r)))
        }
    })
}

/// The outcome's tag, as the daemon names it.
pub fn outcome_name(o: &Outcome) -> &'static str {
    match o {
        Outcome::Preserving => "preserving",
        Outcome::Copying { .. } => "copying",
        Outcome::Rearranging { .. } => "rearranging",
        Outcome::NotPreserving { .. } => "not-preserving",
        Outcome::DeletesText { .. } => "deletes-text",
        Outcome::NonConforming { .. } => "non-conforming",
    }
}

/// Checks one verdict against the transformation's behaviour on `schema`.
/// A pass is checked on every schema tree of at most `bound.0` nodes (at
/// most `bound.1` trees) when a bound is given.
pub fn check_outcome(
    m: Machine,
    prop: Property,
    schema: &Nta,
    outcome: &Outcome,
    bound: Option<(usize, usize)>,
) -> Result<(), String> {
    let kind_fits = matches!(
        (prop, outcome),
        (_, Outcome::Preserving)
            | (
                Property::TextPreservation,
                Outcome::Copying { .. }
                    | Outcome::Rearranging { .. }
                    | Outcome::NotPreserving { .. }
            )
            | (Property::TextRetention(_), Outcome::DeletesText { .. })
            | (Property::Conformance(_), Outcome::NonConforming { .. })
    );
    if !kind_fits {
        return Err(format!(
            "outcome {} does not answer this analysis",
            outcome_name(outcome)
        ));
    }
    match outcome {
        Outcome::Preserving => {
            let Some((max_nodes, limit)) = bound else {
                return Ok(());
            };
            for t in schema_trees(schema, max_nodes, limit) {
                if !holds_on(m, prop, &t)? {
                    return Err(format!(
                        "the verdict passes, yet a {}-node schema tree violates the property",
                        t.as_hedge().node_count()
                    ));
                }
            }
            Ok(())
        }
        Outcome::Copying { path } | Outcome::DeletesText { path } => {
            if let (Property::TextRetention(labels), Outcome::DeletesText { .. }) = (prop, outcome)
            {
                let through_selected = path
                    .iter()
                    .any(|p| matches!(p, PathSym::Elem(s) if labels.contains(s)));
                if !through_selected {
                    return Err("the deleted-text path passes no selected label".into());
                }
            }
            path_replays(m, outcome, schema, path)
        }
        Outcome::Rearranging { witness }
        | Outcome::NotPreserving { witness }
        | Outcome::NonConforming { witness } => {
            if !schema.accepts(witness) {
                return Err("the witness tree is not a schema tree".into());
            }
            if holds_on(m, prop, witness)? {
                return Err("the witness tree does not replay: the property holds on it".into());
            }
            Ok(())
        }
    }
}

/// A text path witness replays when a schema tree carrying the path shows
/// the violation at the path's own text node: its value is output twice
/// (copying) or not at all (deletion). The path's one-branch tree is tried
/// first, then a bounded search.
fn path_replays(
    m: Machine,
    outcome: &Outcome,
    schema: &Nta,
    path: &[PathSym],
) -> Result<(), String> {
    let labels: Vec<Symbol> = path
        .iter()
        .filter_map(|p| match p {
            PathSym::Elem(s) => Some(*s),
            PathSym::Text => None,
        })
        .collect();
    if labels.is_empty() || path.last() != Some(&PathSym::Text) {
        return Err("the witness path is not a text path".into());
    }
    let mut b = HedgeBuilder::new();
    for &s in &labels {
        b.open(s);
    }
    b.text("τ");
    for _ in &labels {
        b.close();
    }
    let branch = b.finish_tree().ok_or("the witness path builds no tree")?;
    let copying = matches!(outcome, Outcome::Copying { .. });
    let shows = |t: &Tree| -> Result<bool, String> {
        let input = make_value_unique(t.as_hedge());
        let root = *input.roots().first().ok_or("empty input tree")?;
        let input = input.subtree(root);
        let out = m.run(&input)?;
        let out_text = out.text_content();
        let h = input.as_hedge();
        Ok(h.text_nodes().into_iter().any(|v| {
            let value = h.label(v).text().unwrap_or_default();
            let times = out_text.iter().filter(|&&o| o == value).count();
            ancestor_labels(h, v) == labels && if copying { times >= 2 } else { times == 0 }
        }))
    };
    if schema.accepts(&branch) {
        return if shows(&branch)? {
            Ok(())
        } else {
            Err("the witness path does not replay on its tree".into())
        };
    }
    let (max_nodes, limit) = PATH_SEARCH;
    for t in schema_trees(schema, max_nodes, limit) {
        if shows(&t)? {
            return Ok(());
        }
    }
    Err(format!(
        "no schema tree of at most {max_nodes} nodes carries the witness path and replays it"
    ))
}

/// The element labels above node `v`, root first.
fn ancestor_labels(h: &Hedge, v: textpres::trees::NodeId) -> Vec<Symbol> {
    let mut up: Vec<Symbol> = std::iter::successors(h.parent(v), |&p| h.parent(p))
        .filter_map(|p| h.label(p).elem())
        .collect();
    up.reverse();
    up
}

/// The first text path of `t` (element labels, then `text()`), if any.
fn first_text_path(t: &Tree) -> Option<Vec<PathSym>> {
    let h = t.as_hedge();
    let v = *h.text_nodes().first()?;
    let mut path: Vec<PathSym> = ancestor_labels(h, v)
        .into_iter()
        .map(PathSym::Elem)
        .collect();
    path.push(PathSym::Text);
    Some(path)
}

/// A small schema tree on which the property holds, if one exists.
fn good_tree(m: Machine, prop: Property, schema: &Nta) -> Option<Tree> {
    schema_trees(schema, 8, 500)
        .into_iter()
        .find(|t| holds_on(m, prop, t).unwrap_or(false))
}

/// `outcome` with its verdict flipped: a violation becomes a pass, and a
/// pass becomes a violation of the analysis whose witness is a schema tree
/// on which the property in fact holds.
pub fn flipped(m: Machine, prop: Property, schema: &Nta, outcome: &Outcome) -> Option<Outcome> {
    if !outcome.is_preserving() {
        return Some(Outcome::Preserving);
    }
    let tree = good_tree(m, prop, schema)?;
    Some(match prop {
        Property::TextPreservation => Outcome::Rearranging { witness: tree },
        Property::TextRetention(_) => Outcome::DeletesText {
            path: first_text_path(&tree)?,
        },
        Property::Conformance(_) => Outcome::NonConforming { witness: tree },
    })
}

/// Violation `outcome` with a corrupted witness: a schema tree on which the
/// property holds, or that tree's first text path for a path witness. For a
/// top-down transducer a text value's fate depends only on the labels above
/// it, so no schema tree carrying that path replays. `None` for a pass, or
/// when the schema has no such tree within a small bound.
pub fn corrupted(m: Machine, prop: Property, schema: &Nta, outcome: &Outcome) -> Option<Outcome> {
    if outcome.is_preserving() {
        return None;
    }
    let tree = good_tree(m, prop, schema)?;
    Some(match outcome {
        Outcome::Copying { .. } => Outcome::Copying {
            path: first_text_path(&tree)?,
        },
        Outcome::DeletesText { .. } => Outcome::DeletesText {
            path: first_text_path(&tree)?,
        },
        Outcome::NotPreserving { .. } => Outcome::NotPreserving { witness: tree },
        Outcome::NonConforming { .. } => Outcome::NonConforming { witness: tree },
        Outcome::Rearranging { .. } | Outcome::Preserving => Outcome::Rearranging { witness: tree },
    })
}

/// The generator's ground truth for an E11 corpus case: deletion, renaming
/// and stripping preserve text, duplication copies it, reordering
/// rearranges it.
pub fn corpus_truth(case: &tpx_workload::CorpusCase) -> &'static str {
    match case.name.split('-').nth(1) {
        Some("duplicate") => "copying",
        Some("reorder") => "rearranging",
        _ => "preserving",
    }
}

/// Records a self-test failure when a check accepted a wrong output.
pub fn expect_rejected(what: &str, result: Result<(), String>, problems: &mut Vec<String>) {
    if result.is_ok() {
        problems.push(format!("self-test: the check accepted {what}"));
    }
}

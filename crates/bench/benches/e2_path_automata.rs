//! E2 — Lemma 4.8: construction time and *output size* of the path
//! automaton `A_N` and the transducer path automaton `A_T`.
//!
//! Paper claim: both constructions are polynomial. The printed size rows
//! are the polynomial witness (EXPERIMENTS.md records input size vs output
//! size).

use textpres::trees::budget::BudgetHandle;
use tpx_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tpx_workload::transducers::{deep_selector, plain_alphabet};

fn path_automaton_of_schema(c: &mut Criterion) {
    let mut g = c.benchmark_group("e2/path_automaton_nta");
    g.sample_size(10);
    for n in [4usize, 8, 16, 32, 64] {
        let (_, schema) = tpx_workload::chain_schema(n);
        let a = textpres::topdown::path_automaton_nta(&schema, &BudgetHandle::unlimited())
            .expect("unlimited budget");
        eprintln!(
            "e2: chain n={n}: |N|={} → |A_N|={}",
            schema.size(),
            a.size()
        );
        g.bench_with_input(BenchmarkId::new("chain", n), &n, |b, _| {
            b.iter(|| {
                textpres::topdown::path_automaton_nta(&schema, &BudgetHandle::unlimited())
                    .expect("unlimited budget")
                    .size()
            })
        });
    }
    for n in [4usize, 8, 16, 32] {
        let (_, schema) = tpx_workload::comb_schema(n);
        let a = textpres::topdown::path_automaton_nta(&schema, &BudgetHandle::unlimited())
            .expect("unlimited budget");
        eprintln!("e2: comb n={n}: |N|={} → |A_N|={}", schema.size(), a.size());
        g.bench_with_input(BenchmarkId::new("comb", n), &n, |b, _| {
            b.iter(|| {
                textpres::topdown::path_automaton_nta(&schema, &BudgetHandle::unlimited())
                    .expect("unlimited budget")
                    .size()
            })
        });
    }
    // The recipe schema (Example 2.3) as the fixed realistic point.
    let alpha = textpres::trees::samples::recipe_alphabet();
    let schema = textpres::schema::samples::recipe_dtd(&alpha).to_nta();
    let a = textpres::topdown::path_automaton_nta(&schema, &BudgetHandle::unlimited())
        .expect("unlimited budget");
    eprintln!("e2: recipe: |N|={} → |A_N|={}", schema.size(), a.size());
    g.bench_function("recipe", |b| {
        b.iter(|| {
            textpres::topdown::path_automaton_nta(&schema, &BudgetHandle::unlimited())
                .expect("unlimited budget")
                .size()
        })
    });
    g.finish();
}

fn path_automaton_of_transducer(c: &mut Criterion) {
    let alpha = plain_alphabet(3);
    let mut g = c.benchmark_group("e2/path_automaton_transducer");
    g.sample_size(10);
    for n in [4usize, 16, 64, 256] {
        let t = deep_selector(&alpha, n);
        let a = textpres::topdown::path_automaton_transducer(&t);
        eprintln!("e2: selector n={n}: |T|={} → |A_T|={}", t.size(), a.size());
        g.bench_with_input(BenchmarkId::new("selector", n), &n, |b, _| {
            b.iter(|| textpres::topdown::path_automaton_transducer(&t).size())
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    path_automaton_of_schema,
    path_automaton_of_transducer
);
criterion_main!(benches);

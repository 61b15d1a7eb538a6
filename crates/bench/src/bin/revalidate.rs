//! Emits `BENCH_incremental.json`: incremental revalidation
//! (`Engine::revalidate` over a dependency index) against the only
//! alternative an edit otherwise leaves — `Engine::reset` plus a full
//! re-typing — across delta sizes from 0.1% to 100% of the graph's
//! triples (E11).
//!
//! ```sh
//! cargo run --release -p shapex-bench --bin revalidate
//! ```
//!
//! Each delta replaces every k-th triple (in the deterministic
//! `triples_sorted` order) with a copy carrying a fresh literal object, so
//! the graph keeps its size and shape while the touched neighbourhoods
//! genuinely change. Per repetition the delta is applied, the timed run
//! re-types the mutated graph, and the delta is reverted (plus, on the
//! incremental engine, revalidated back) so every sample starts from the
//! same warm pre-delta state. The two strategies are sampled interleaved
//! and the reported timing is the minimum over the reps, medians alongside
//! (the work is deterministic, so the minimum is the least-disturbed run).

use serde_json::Value;
use shapex::{Engine, EngineConfig};
use shapex_bench::{min_median, time_us};
use shapex_rdf::delta::GraphDelta;
use shapex_rdf::graph::{Dataset, Triple};
use shapex_rdf::term::{Literal, Term};
use shapex_workloads::{person_network, Topology, Workload};

const REPS: usize = 9;
const FRACTIONS: [f64; 6] = [0.001, 0.01, 0.05, 0.2, 0.5, 1.0];

/// Repeated-shape × high-fanout, cascade-free: `nodes` subjects against a
/// width-`w` unordered concatenation of wildcard-object arcs,
/// `per_branch` triples per predicate. No shape references, so a delta's
/// blast radius is exactly the subjects it touches — the regime where
/// incremental revalidation should approach `touched/total` of the full
/// cost.
fn repeated_and_width(nodes: usize, w: usize, per_branch: usize) -> Workload {
    let body: Vec<String> = (0..w).map(|i| format!("e:p{i} .+")).collect();
    let schema = format!("PREFIX e: <http://e/>\n<S> {{ {} }}", body.join(", "));
    let mut dataset = Dataset::new();
    let mut focus = Vec::with_capacity(nodes);
    for n in 0..nodes {
        let subject = Term::iri(format!("http://e/n{n}"));
        for i in 0..w {
            for j in 0..per_branch {
                dataset.insert(
                    subject.clone(),
                    Term::iri(format!("http://e/p{i}")),
                    Term::Literal(Literal::integer(j as i64)),
                );
            }
        }
        focus.push(format!("http://e/n{n}"));
    }
    let expected = vec![true; nodes];
    Workload {
        name: format!("repeated_and_width/n={nodes},w={w},k={per_branch}"),
        schema,
        dataset,
        focus,
        shape: "S".to_string(),
        expected,
    }
}

/// A delta replacing a contiguous block of `fraction` of the sorted
/// triples (at least one) with copies carrying fresh integer-literal
/// objects. Contiguous in `triples_sorted` order means contiguous in
/// subjects — the localized-edit regime incremental revalidation exists
/// for ("these resources changed"), as opposed to a uniform sprinkle that
/// touches every neighbourhood no matter how small the delta.
/// Deterministic: no randomness, same selection per run.
fn make_delta(ds: &mut Dataset, fraction: f64) -> GraphDelta {
    let triples = ds.graph.triples_sorted();
    let total = triples.len();
    let count = ((total as f64 * fraction).round() as usize).clamp(1, total);
    let mut delta = GraphDelta::new();
    for (i, t) in triples.iter().take(count).enumerate() {
        delta.removed.push(*t);
        delta.added.push(Triple {
            object: ds
                .pool
                .intern(Term::Literal(Literal::integer(1_000_000 + i as i64))),
            ..*t
        });
    }
    delta
}

/// `(min, median)` of a sample vector, in microseconds.
/// One workload across all delta fractions: per fraction, warm full-reset
/// and revalidate timings plus the invalidation counters from a metered
/// revalidate pass.
fn case(name: &str, workload: Workload) -> Value {
    let schema = shapex_shex::shexc::parse(&workload.schema).expect("workload schema parses");
    let mut ds = workload.dataset;
    let mut full = Engine::compile(&schema, &mut ds.pool, EngineConfig::default())
        .expect("workload schema compiles");
    let mut inc = Engine::compile(
        &schema,
        &mut ds.pool,
        EngineConfig {
            incremental: true,
            ..EngineConfig::default()
        },
    )
    .expect("workload schema compiles");
    // Prime the incremental engine: the pre-delta typing populates the
    // memo and the dependency index every revalidation below starts from.
    inc.type_all(&ds.graph, &ds.pool);
    let total_triples = ds.graph.triples_sorted().len();

    let mut rows = Vec::new();
    for fraction in FRACTIONS {
        let delta = make_delta(&mut ds, fraction);
        let inverse = delta.inverse();

        // Correctness gate: the incremental typing of the mutated graph
        // must equal the from-scratch one.
        let applied = ds.apply_delta(&delta);
        let t_inc = inc.revalidate(&ds.graph, &ds.pool, &delta).unwrap();
        full.reset();
        let t_full = full.type_all(&ds.graph, &ds.pool);
        assert_eq!(t_inc, t_full, "{name}: incremental diverges at {fraction}");
        ds.revert_delta(&applied);
        inc.revalidate(&ds.graph, &ds.pool, &inverse).unwrap();

        let mut full_samples = Vec::with_capacity(REPS);
        let mut inc_samples = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let applied = ds.apply_delta(&delta);
            full_samples.push(time_us(|| {
                full.reset();
                full.type_all(&ds.graph, &ds.pool);
            }));
            ds.revert_delta(&applied);

            let applied = ds.apply_delta(&delta);
            inc_samples.push(time_us(|| {
                inc.revalidate(&ds.graph, &ds.pool, &delta).unwrap();
            }));
            ds.revert_delta(&applied);
            // Restore the warm pre-delta state (untimed).
            inc.revalidate(&ds.graph, &ds.pool, &inverse).unwrap();
        }
        let (full_us, full_median_us) = min_median(full_samples);
        let (inc_us, inc_median_us) = min_median(inc_samples);

        // Counter snapshot from one more revalidation.
        let before = inc.stats();
        let applied = ds.apply_delta(&delta);
        inc.revalidate(&ds.graph, &ds.pool, &delta).unwrap();
        let after = inc.stats();
        ds.revert_delta(&applied);
        inc.revalidate(&ds.graph, &ds.pool, &inverse).unwrap();

        rows.push(serde_json::json!({
            "fraction": fraction,
            "delta_triples": delta.removed.len() + delta.added.len(),
            "full_us": full_us,
            "incremental_us": inc_us,
            "full_median_us": full_median_us,
            "incremental_median_us": inc_median_us,
            "speedup": full_us as f64 / inc_us.max(1) as f64,
            "invalidated_pairs": after.invalidated_pairs - before.invalidated_pairs,
            "retyped_pairs": after.retyped_pairs - before.retyped_pairs,
            "reused_pairs": after.reused_pairs - before.reused_pairs,
        }));
    }
    serde_json::json!({
        "name": name,
        "total_triples": total_triples as u64,
        "deltas": Value::Array(rows),
    })
}

fn main() {
    let cases = vec![
        // Cascade-free high-fanout fleet: the headline regime.
        case("repeated_and_width_96x6x8", repeated_and_width(96, 6, 8)),
        // Recursive typing: invalidation must chase reference edges, so
        // a touched triple's blast radius exceeds its own subject.
        case(
            "person_network_300_random2",
            person_network(300, Topology::Random { degree: 2 }, 0.3, 7),
        ),
    ];
    let doc = serde_json::json!({
        "generated_by": "cargo run --release -p shapex-bench --bin revalidate",
        "reps_per_timing": REPS as u64,
        "cases": Value::Array(cases),
    });
    let rendered = serde_json::to_string_pretty(&doc).expect("no NaN in report") + "\n";
    let path = "BENCH_incremental.json";
    std::fs::write(path, &rendered).expect("write BENCH_incremental.json");
    for c in doc.get("cases").and_then(|c| c.as_array()).unwrap() {
        let name = c.get("name").and_then(|v| v.as_str()).unwrap_or("?");
        for d in c.get("deltas").and_then(|d| d.as_array()).unwrap() {
            let num = |k: &str| d.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
            println!(
                "{name} @ {:.1}%: {} µs full / {} µs incremental ({:.2}x, {} retyped)",
                d.get("fraction").and_then(|v| v.as_f64()).unwrap_or(0.0) * 100.0,
                num("full_us"),
                num("incremental_us"),
                d.get("speedup").and_then(|v| v.as_f64()).unwrap_or(0.0),
                num("retyped_pairs"),
            );
        }
    }
    println!("wrote {path}");
}

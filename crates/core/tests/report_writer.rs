//! The report writer, differentially: `ReportDoc` writes verdict rows
//! straight to bytes, and those bytes must equal what the vendored
//! `serde_json` pretty printer gives for the same document built as a
//! `Value` — one `result_json` per row, rendered by `render`. The graphs
//! are generated with hostile strings: literals holding every JSON escape
//! class, IRIs holding UCHAR-escaped forbidden characters, blank nodes,
//! language tags and datatypes.

use std::collections::HashMap;
use std::fmt::Write as _;

use proptest::prelude::*;
use serde_json::{json, Map, Value};
use shapex::report::{
    counter_blocks, delta_report, exhaustion_json, finish_engine_doc, push_typing_rows, render,
    result_json, typing_report, ReportDoc,
};
use shapex::{Budget, Engine, EngineConfig, ShapeId, Typing};
use shapex_rdf::graph::{Dataset, Graph};
use shapex_rdf::pool::TermPool;
use shapex_rdf::{delta, ntriples};

const SCHEMA: &str = r#"
PREFIX ex: <http://example.org/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
<Named> { ex:p xsd:string {1,2} , ex:r rdf:langString ? }
<Linked> { ( ex:p . | ex:r rdf:langString ) + , ex:q @<Named> * }
<Loop> { ex:q @<Loop> * , ex:p . * }
"#;

/// Subject-position terms: IRIs with UCHAR escapes of characters the
/// IRIREF production forbids raw, non-ASCII, and blank nodes.
const NODES: &[&str] = &[
    "<http://example.org/plain>",
    "<http://example.org/sp\\u0020ace>",
    "<http://example.org/q\\u0022uote\\u005Cback>",
    "<http://example.org/br\\u007Bace\\u007D\\u007C\\u005E\\u0060>",
    "<http://example.org/ctl\\u0001\\u001F>",
    "<http://example.org/Zürich>",
    "_:b0",
    "_:bü1",
];

/// Pieces of literal lexical forms, as N-Triples escapes: every JSON
/// escape class once decoded (quote, backslash, newline, carriage return,
/// tab, backspace, form feed, other controls) plus non-ASCII text.
const PIECES: &[&str] = &[
    "plain",
    "\\\"",
    "\\\\",
    "\\n",
    "\\r",
    "\\t",
    "\\b",
    "\\f",
    "\\u0001",
    "\\u0008",
    "\\u000C",
    "\\u001F",
    "\\u007F",
    "ü",
    "日本",
    "\\U0001F600",
    " ",
];

const SUFFIXES: &[&str] = &[
    "",
    "@en-GB",
    "@DE",
    "^^<http://www.w3.org/2001/XMLSchema#integer>",
    "^^<http://example.org/dt\\u007Bx\\u007D>",
];

const PREDICATES: &[&str] = &["p", "q", "r"];

/// One generated triple: subject index, predicate index, and an object
/// that is either a node index or a literal (pieces and a suffix).
type Triple = (usize, usize, Option<usize>, Vec<usize>, usize);

fn triple() -> impl Strategy<Value = Triple> {
    (
        0..NODES.len(),
        0..PREDICATES.len(),
        prop_oneof![
            Just(None),
            (0..NODES.len()).prop_map(Some),
            (0..NODES.len()).prop_map(Some),
        ],
        proptest::collection::vec(0..PIECES.len(), 0..5),
        0..SUFFIXES.len(),
    )
}

fn object(t: &Triple) -> String {
    match t.2 {
        Some(n) => NODES[n].to_string(),
        None => {
            let lexical: String = t.3.iter().map(|&i| PIECES[i]).collect();
            format!("\"{lexical}\"{}", SUFFIXES[t.4])
        }
    }
}

fn ntriples(triples: &[Triple]) -> String {
    let mut out = String::new();
    for t in triples {
        let _ = writeln!(
            out,
            "{} <http://example.org/{}> {} .",
            NODES[t.0],
            PREDICATES[t.1],
            object(t)
        );
    }
    out
}

fn engine(ds: &mut Dataset, budget: Budget, incremental: bool) -> Engine {
    let schema = shapex_shex::shexc::parse(SCHEMA).expect("schema parses");
    let config = EngineConfig {
        budget,
        incremental,
        ..EngineConfig::default()
    };
    Engine::compile(&schema, &mut ds.pool, config).expect("schema compiles")
}

/// The `results` and `exhausted` arrays of a full typing as `Value`s: the
/// reference the direct writer is checked against.
fn value_rows(
    engine: &mut Engine,
    graph: &Graph,
    pool: &TermPool,
    typing: &Typing,
) -> (Vec<Value>, Vec<Value>) {
    let exhausted: HashMap<_, _> = typing
        .exhausted
        .iter()
        .map(|&(n, s, e)| ((n, s), e))
        .collect();
    let (mut results, mut exhausted_rows) = (Vec::new(), Vec::new());
    for node in graph.subjects().collect::<Vec<_>>() {
        for i in 0..engine.schema().shapes.len() {
            let shape = ShapeId(i as u32);
            let node_name = pool.term(node).to_string();
            let shape_name = engine.label_of(shape).as_str().to_string();
            if typing.has(node, shape) {
                results.push(result_json(&node_name, &shape_name, "conforms", None, None));
            } else if let Some(e) = exhausted.get(&(node, shape)) {
                results.push(result_json(
                    &node_name,
                    &shape_name,
                    "exhausted",
                    None,
                    Some(e),
                ));
                exhausted_rows.push(json!({
                    "exhaustion": exhaustion_json(e),
                    "node": node_name,
                    "shape": shape_name,
                }));
            } else {
                let failure = engine
                    .check_id(graph, pool, node, shape)
                    .into_failure()
                    .map(|f| f.render(pool));
                results.push(result_json(&node_name, &shape_name, "fails", failure, None));
            }
        }
    }
    (results, exhausted_rows)
}

/// A document skeleton as a `Value` map.
fn value_doc(
    mode: &str,
    conforms: Option<bool>,
    rows: (Vec<Value>, Vec<Value>),
) -> Map<String, Value> {
    let mut root = Map::new();
    root.insert("tool".to_string(), Value::from("shapex"));
    root.insert("mode".to_string(), Value::from(mode));
    root.insert("engine".to_string(), Value::from("derivative"));
    root.insert(
        "conforms".to_string(),
        conforms.map_or(Value::Null, Value::from),
    );
    root.insert("results".to_string(), Value::Array(rows.0));
    root.insert("exhausted".to_string(), Value::Array(rows.1));
    root
}

fn typing_conforms(typing: &Typing) -> Option<bool> {
    (!typing.is_partial()).then_some(true)
}

/// Types `src` at `jobs` workers and checks the direct writer's
/// full-typing document against the `Value` reference and against
/// `ReportDoc::finish` rendered by `render`. Returns the document.
fn check_typing(src: &str, budget: Budget, jobs: usize) -> Result<String, String> {
    let mut ds = ntriples::parse(src).map_err(|e| format!("{e}\n{src}"))?;
    let mut engine = engine(&mut ds, budget, false);
    let typing = engine.type_all_par(&ds.graph, &ds.pool, jobs);
    let direct = typing_report(&mut engine, &ds.graph, &ds.pool, &typing, 0).body;

    let blocks = counter_blocks(&engine);
    let rows = value_rows(&mut engine, &ds.graph, &ds.pool, &typing);
    let mut root = value_doc("typing", typing_conforms(&typing), rows);
    for (key, block) in blocks {
        root.insert(key.to_string(), block);
    }
    let reference = render(&Value::Object(root));
    if direct != reference {
        return Err(format!(
            "direct writer diverged from the Value renderer\n{direct}\n---\n{reference}"
        ));
    }

    let mut doc = ReportDoc::new("typing", "derivative");
    push_typing_rows(&mut doc, &mut engine, &ds.graph, &ds.pool, &typing);
    for (key, block) in counter_blocks(&engine) {
        doc.set(key, block);
    }
    let finished = render(&doc.finish(typing_conforms(&typing)));
    if direct != finished {
        return Err("ReportDoc::finish diverged from ReportDoc::render".to_string());
    }
    Ok(direct)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn direct_rows_match_the_value_renderer(
        triples in proptest::collection::vec(triple(), 1..24),
        steps in prop_oneof![Just(None), (1u64..40).prop_map(Some)],
        jobs in 1usize..3,
    ) {
        let budget = steps.map_or(Budget::UNLIMITED, Budget::steps);
        let src = ntriples(&triples);
        if let Err(msg) = check_typing(&src, budget, jobs) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn nested_delta_documents_match_the_value_renderer(
        triples in proptest::collection::vec(triple(), 1..20),
        added in proptest::collection::vec(triple(), 0..4),
        removed in proptest::collection::vec(0usize..64, 0..4),
    ) {
        let src = ntriples(&triples);
        // Delta lines name IRI subjects only: a blank label in a delta
        // file does not denote the graph's node of that label.
        let iri_subject = |t: &Triple| NODES[t.0].starts_with('<')
            && t.2.is_none_or(|o| NODES[o].starts_with('<'));
        let mut diff = String::new();
        for &i in &removed {
            if let Some(t) = triples.get(i % triples.len()).filter(|t| iri_subject(t)) {
                let _ = writeln!(diff, "- {} <http://example.org/{}> {} .", NODES[t.0], PREDICATES[t.1], object(t));
            }
        }
        for t in added.iter().filter(|t| iri_subject(t)) {
            let _ = writeln!(diff, "+ {} <http://example.org/{}> {} .", NODES[t.0], PREDICATES[t.1], object(t));
        }

        let mut ds = ntriples::parse(&src).expect("data parses");
        let d = delta::parse(&diff, &mut ds.pool).expect("delta parses");
        let mut direct_engine = engine(&mut ds, Budget::UNLIMITED, true);
        let direct = delta_report(&mut direct_engine, &mut ds, &d, 1, Some("d\"\\.diff"), 0, || {})
            .expect("delta applies")
            .body;

        // The same run, every document built as a `Value`.
        let mut ds = ntriples::parse(&src).expect("data parses");
        let d = delta::parse(&diff, &mut ds.pool).expect("delta parses");
        let mut e = engine(&mut ds, Budget::UNLIMITED, true);
        let before_typing = e.type_all_par(&ds.graph, &ds.pool, 1);
        let before = value_rows(&mut e, &ds.graph, &ds.pool, &before_typing);
        let plan = e.plan_invalidation(&d);
        ds.try_apply_delta(&d).expect("delta applies");
        let after_typing = e
            .revalidate_par_planned(&ds.graph, &ds.pool, &d, plan, 1)
            .expect("revalidates");
        let blocks = counter_blocks(&e);
        let after = value_rows(&mut e, &ds.graph, &ds.pool, &after_typing);
        let stats = e.stats();
        let mut root = value_doc("delta", typing_conforms(&after_typing), (Vec::new(), Vec::new()));
        root.insert("delta".to_string(), json!({
            "added": d.added.len(),
            "removed": d.removed.len(),
            "invalidated": stats.invalidated_pairs,
            "retyped": stats.retyped_pairs,
            "reused": stats.reused_pairs,
            "file": "d\"\\.diff",
        }));
        root.insert("before".to_string(), Value::Object(value_doc("typing", typing_conforms(&before_typing), before)));
        root.insert("after".to_string(), Value::Object(value_doc("typing", typing_conforms(&after_typing), after)));
        for (key, block) in blocks {
            root.insert(key.to_string(), block);
        }
        let reference = render(&Value::Object(root));
        prop_assert_eq!(direct, reference, "delta document diverged\n{}\n{}", src, diff);
    }
}

#[test]
fn exhausted_runs_write_both_exhaustion_arrays() {
    // A reference chain over every node, checked under a budget too small
    // for the long reference checks: those rows carry `exhaustion` blocks
    // and the document its `exhausted` array. The first node's literal on
    // the reference predicate fails the closed `Named` shape early, so its
    // failure trace quotes the backspace, form feed and U+0001 escapes.
    let mut triples: Vec<Triple> = (0..NODES.len())
        .flat_map(|n| {
            [
                (n, 1, Some((n + 1) % NODES.len()), Vec::new(), 0),
                (n, 0, None, vec![n, n + 1, 3], n % SUFFIXES.len()),
                (n, 2, None, vec![n + 2], 1),
            ]
        })
        .collect();
    triples.insert(0, (0, 1, None, vec![6, 7, 8], 0));
    let doc = check_typing(&ntriples(&triples), Budget::steps(4), 1).expect("writers agree");
    let v: Value = serde_json::from_str(&doc).expect("report parses");
    let exhausted = v.get("exhausted").and_then(Value::as_array).expect("array");
    assert!(!exhausted.is_empty(), "no pair exhausted:\n{doc}");
    assert!(doc.contains("\"verdict\": \"exhausted\""));
    assert!(doc.contains("\"verdict\": \"fails\""));
    assert!(doc.contains("\\u0001") && doc.contains("\\b") && doc.contains("\\f"));
}

#[test]
fn golden_report_fixture_is_reproduced() {
    // `fixtures/report/expected*.json` are `validate --report json --jobs 1`
    // outputs recorded with the `Value`-tree row writer, so they pin the
    // bytes independently of the direct writer.
    let dir = format!("{}/../../fixtures/report", env!("CARGO_MANIFEST_DIR"));
    let read = |f: &str| {
        std::fs::read_to_string(format!("{dir}/{f}")).unwrap_or_else(|e| panic!("{f}: {e}"))
    };
    let schema = shapex_shex::shexc::parse(&read("schema.shex")).expect("schema parses");
    for (budget, expected) in [
        (Budget::UNLIMITED, "expected.json"),
        (Budget::steps(3), "expected-exhausted.json"),
    ] {
        let mut ds = shapex_rdf::turtle::parse(&read("data.ttl")).expect("data parses");
        let config = EngineConfig {
            budget,
            ..EngineConfig::default()
        };
        let mut engine = Engine::compile(&schema, &mut ds.pool, config).expect("compiles");
        let typing = engine.type_all_par(&ds.graph, &ds.pool, 1);
        let mut doc = ReportDoc::new("typing", "derivative");
        push_typing_rows(&mut doc, &mut engine, &ds.graph, &ds.pool, &typing);
        let conforms = typing_conforms(&typing);
        assert_eq!(
            finish_engine_doc(doc, &engine, 0, conforms),
            read(expected),
            "{expected}"
        );
    }
}

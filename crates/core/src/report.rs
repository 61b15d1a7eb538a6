//! JSON report documents for validation runs.
//!
//! The document schema is documented in `DESIGN.md` (§ Observability) and
//! held stable by the CLI tests and the CI smoke step. It lives in the
//! core crate — not the CLI — because byte-identical reports are the
//! contract between every front end: `shapex validate --report json` and
//! the resident server's `/validate`, `/map` and `/delta` endpoints get
//! their documents *and* their exit codes from the same run builders
//! ([`typing_report`], [`map_report`], [`delta_report`]), which is what
//! lets the CI smoke job diff one against the other byte for byte.
//!
//! Stats, metrics, and exhaustion blocks come from the engine types' own
//! `to_json` methods; this module assembles the document around them.

use serde_json::{json, Map, Value};

use shapex_rdf::graph::{Dataset, Graph};
use shapex_rdf::pool::TermPool;
use shapex_rdf::{DeltaApplyError, GraphDelta};
use shapex_shex::shapemap::ShapeMap;

use crate::budget::Exhaustion;
use crate::compile::ShapeId;
use crate::engine::{Engine, EngineError, MapOutcome, Trace};
use crate::metrics::Metrics;
use crate::result::{Stats, Typing};

/// How a run ended — the one source of the exit code the CLI returns and
/// the server sends in its `X-Shapex-Exit` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// The run completed and conforms (a full typing that ran to
    /// completion counts as conforming) — exit code 0.
    Conforms,
    /// The run completed and some verdict is non-conformance — exit
    /// code 2.
    NonConforming,
    /// A budget tripped, so the answer is unknown — exit code 3. It
    /// outranks non-conformance: a partial run's failing verdicts might
    /// flip with a larger budget.
    Exhausted(Exhaustion),
}

impl Exit {
    /// The exit code: 0 conforms, 2 non-conforming, 3 exhausted.
    pub fn code(self) -> u8 {
        match self {
            Exit::Conforms => 0,
            Exit::NonConforming => 2,
            Exit::Exhausted(_) => 3,
        }
    }

    /// The document's `conforms` value: `null` when exhausted.
    pub fn conforms(self) -> Option<bool> {
        match self {
            Exit::Conforms => Some(true),
            Exit::NonConforming => Some(false),
            Exit::Exhausted(_) => None,
        }
    }

    /// A full typing: exhausted on its first unanswered pair, otherwise
    /// conforming (it ran to completion).
    pub fn of_typing(typing: &Typing) -> Exit {
        match typing.exhausted.first() {
            Some(&(_, _, e)) => Exit::Exhausted(e),
            None => Exit::Conforms,
        }
    }

    /// A shape-map run: exhausted on its first unanswered association,
    /// else non-conforming when any verdict contradicts its expectation.
    pub fn of_map(outcomes: &[MapOutcome]) -> Exit {
        if let Some(e) = outcomes.iter().find_map(|o| o.exhaustion) {
            Exit::Exhausted(e)
        } else if outcomes.iter().all(|o| o.as_expected) {
            Exit::Conforms
        } else {
            Exit::NonConforming
        }
    }
}

/// A sealed report document and how its run ended.
#[derive(Debug)]
pub struct RunReport {
    /// The serialized document.
    pub body: String,
    /// The run's exit.
    pub exit: Exit,
}

/// Serializes a report document: pretty-printed, trailing newline.
pub fn render(v: &Value) -> String {
    let mut s = serde_json::to_string_pretty(v).expect("report values contain no NaN");
    s.push('\n');
    s
}

/// One `(node, shape)` verdict row.
pub fn result_json(
    node: &str,
    shape: &str,
    verdict: &str,
    failure: Option<String>,
    exhaustion: Option<&Exhaustion>,
) -> Value {
    let mut m = Map::new();
    m.insert("node".to_string(), Value::from(node));
    m.insert("shape".to_string(), Value::from(shape));
    m.insert("verdict".to_string(), Value::from(verdict));
    if let Some(f) = failure {
        m.insert("failure".to_string(), Value::from(f));
    }
    if let Some(e) = exhaustion {
        m.insert("exhaustion".to_string(), exhaustion_json(e));
    }
    Value::Object(m)
}

/// The `exhaustion` block of a row or document.
pub fn exhaustion_json(e: &Exhaustion) -> Value {
    e.to_json()
}

/// The `stats` block.
pub fn stats_json(s: &Stats) -> Value {
    s.to_json()
}

/// The `metrics` block; `labels(i)` names shape `i` for per-shape rows.
pub fn metrics_json(m: &Metrics, labels: &dyn Fn(usize) -> String) -> Value {
    m.to_json(labels)
}

/// A §7 derivative trace as structured steps.
pub fn trace_json(t: &Trace, pool: &TermPool) -> Value {
    let steps: Vec<Value> = t
        .steps
        .iter()
        .map(|s| {
            json!({
                "subject": pool.term(s.subject).to_string(),
                "predicate": pool.term(s.predicate).to_string(),
                "object": pool.term(s.object).to_string(),
                "inverse": s.inverse,
                "before": s.before.as_str(),
                "after": s.after.as_str(),
            })
        })
        .collect();
    json!({
        "steps": Value::Array(steps),
        "residual": t.residual.as_str(),
        "nullable": t.nullable,
        "matched": t.matched,
    })
}

/// The top-level document skeleton shared by every `validate` mode.
pub struct ReportDoc {
    root: Map<String, Value>,
    results: Vec<Value>,
    exhausted: Vec<Value>,
}

impl ReportDoc {
    /// A fresh skeleton for the given mode/engine pair.
    pub fn new(mode: &str, engine: &str) -> Self {
        let mut root = Map::new();
        root.insert("tool".to_string(), Value::from("shapex"));
        root.insert("mode".to_string(), Value::from(mode));
        root.insert("engine".to_string(), Value::from(engine));
        ReportDoc {
            root,
            results: Vec::new(),
            exhausted: Vec::new(),
        }
    }

    /// Sets a top-level key.
    pub fn set(&mut self, key: &str, value: Value) {
        self.root.insert(key.to_string(), value);
    }

    /// Appends one verdict row (see [`result_json`]).
    pub fn push_result(&mut self, row: Value) {
        self.results.push(row);
    }

    /// Appends one row to the document-level `exhausted` array.
    pub fn push_exhausted(&mut self, node: &str, shape: &str, e: &Exhaustion) {
        let mut m = Map::new();
        m.insert("node".to_string(), Value::from(node));
        m.insert("shape".to_string(), Value::from(shape));
        m.insert("exhaustion".to_string(), exhaustion_json(e));
        self.exhausted.push(Value::Object(m));
    }

    /// Seals the document. `conforms` is the run's overall verdict; it is
    /// `null` when any check exhausted (the honest answer is "unknown").
    pub fn finish(mut self, conforms: Option<bool>) -> Value {
        self.root.insert(
            "conforms".to_string(),
            conforms.map_or(Value::Null, Value::from),
        );
        self.root
            .insert("results".to_string(), Value::Array(self.results));
        self.root
            .insert("exhausted".to_string(), Value::Array(self.exhausted));
        Value::Object(self.root)
    }
}

/// Fills a report document with the per-`(node, shape)` rows of a full
/// typing: `conforms` rows straight from the typing, `exhausted` rows (plus
/// the document's exhaustion block) for unanswered pairs, and `fails` rows
/// with a recomputed failure trace for everything else. Shared by the plain
/// full-typing report, both halves of the `--delta` before/after report,
/// and the server's `/validate` endpoint.
pub fn push_typing_rows(
    doc: &mut ReportDoc,
    engine: &mut Engine,
    graph: &Graph,
    pool: &TermPool,
    typing: &Typing,
) {
    let exhausted: std::collections::HashMap<_, _> = typing
        .exhausted
        .iter()
        .map(|&(n, s, e)| ((n, s), e))
        .collect();
    for node in graph.subjects().collect::<Vec<_>>() {
        for i in 0..engine.schema().shapes.len() {
            let shape = ShapeId(i as u32);
            let node_name = pool.term(node).to_string();
            let shape_name = engine.label_of(shape).as_str().to_string();
            if typing.has(node, shape) {
                doc.push_result(result_json(&node_name, &shape_name, "conforms", None, None));
            } else if let Some(e) = exhausted.get(&(node, shape)) {
                doc.push_result(result_json(
                    &node_name,
                    &shape_name,
                    "exhausted",
                    None,
                    Some(e),
                ));
                doc.push_exhausted(&node_name, &shape_name, e);
            } else {
                let failure = engine
                    .check_id(graph, pool, node, shape)
                    .into_failure()
                    .map(|f| f.render(pool));
                doc.push_result(result_json(&node_name, &shape_name, "fails", failure, None));
            }
        }
    }
}

/// Seals a derivative-engine report document: attaches the run stats, the
/// metrics block, and the lenient skip count, then serializes it.
pub fn finish_engine_doc(
    mut doc: ReportDoc,
    engine: &Engine,
    skipped: usize,
    conforms: Option<bool>,
) -> String {
    if skipped > 0 {
        doc.set("lenient_skipped", Value::from(skipped));
    }
    doc.set("stats", stats_json(&engine.stats()));
    if let Some(m) = engine.metrics() {
        let labels = |i: usize| engine.label_of(ShapeId(i as u32)).as_str().to_string();
        doc.set("metrics", metrics_json(m, &labels));
    }
    render(&doc.finish(conforms))
}

/// The full-typing document (`mode: "typing"`) of a completed
/// [`Engine::type_all_par`] run. `skipped` is the lenient parser's skip
/// count (0 when strict).
pub fn typing_report(
    engine: &mut Engine,
    graph: &Graph,
    pool: &TermPool,
    typing: &Typing,
    skipped: usize,
) -> RunReport {
    seal_typing(
        ReportDoc::new("typing", "derivative"),
        engine,
        graph,
        pool,
        typing,
        skipped,
    )
}

/// Fills `doc` with the rows of a full typing and seals it with the
/// typing's exit — [`typing_report`] for documents of another mode that
/// carry a typing (`check --schema-delta --data`).
pub fn seal_typing(
    mut doc: ReportDoc,
    engine: &mut Engine,
    graph: &Graph,
    pool: &TermPool,
    typing: &Typing,
    skipped: usize,
) -> RunReport {
    push_typing_rows(&mut doc, engine, graph, pool, typing);
    let exit = Exit::of_typing(typing);
    RunReport {
        body: finish_engine_doc(doc, engine, skipped, exit.conforms()),
        exit,
    }
}

/// The shape-map document (`mode: "map"`): one row per association, in
/// the order [`Engine::validate_map`] returned `outcomes`, each carrying
/// its expectation.
pub fn map_report(
    engine: &Engine,
    pool: &TermPool,
    map: &ShapeMap,
    outcomes: &[MapOutcome],
    skipped: usize,
) -> RunReport {
    let mut doc = ReportDoc::new("map", "derivative");
    for outcome in outcomes {
        let assoc = &map.associations[outcome.index];
        let node = assoc.node.to_string();
        let verdict = if outcome.exhaustion.is_some() {
            "exhausted"
        } else if outcome.conforms {
            "conforms"
        } else {
            "fails"
        };
        let mut row = result_json(
            &node,
            assoc.shape.as_str(),
            verdict,
            outcome.failure.as_ref().map(|f| f.render(pool)),
            outcome.exhaustion.as_ref(),
        );
        if let Value::Object(m) = &mut row {
            m.insert("expected".to_string(), Value::from(assoc.expected));
            m.insert("as_expected".to_string(), Value::from(outcome.as_expected));
        }
        doc.push_result(row);
        if let Some(e) = &outcome.exhaustion {
            doc.push_exhausted(&node, assoc.shape.as_str(), e);
        }
    }
    let exit = Exit::of_map(outcomes);
    RunReport {
        body: finish_engine_doc(doc, engine, skipped, exit.conforms()),
        exit,
    }
}

/// Why a [`delta_report`] run failed. Either way the graph is consistent:
/// a failed application leaves it as it was, a failed revalidation leaves
/// it mutated with the engine's memo untouched.
#[derive(Debug)]
pub enum DeltaRunError {
    /// Applying the delta failed midway and was rolled back.
    Apply(DeltaApplyError),
    /// The post-delta revalidation was refused.
    Revalidate(EngineError),
}

impl std::fmt::Display for DeltaRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaRunError::Apply(e) => e.fmt(f),
            DeltaRunError::Revalidate(e) => e.fmt(f),
        }
    }
}

/// The delta run (`mode: "delta"`): types the graph for the `before`
/// rows, applies `delta` all-or-nothing, incrementally revalidates, and
/// builds the `after` rows. The exit comes from the *after* typing.
///
/// With `jobs > 1` the invalidation plan (a read of the dependency index
/// only, valid before or after the mutation) is computed concurrently
/// with the graph mutation. `commit` runs once the revalidation has
/// succeeded and before the `after` rows are built: from that point the
/// delta is part of the graph's state (the server records it in its
/// replay log there). `file` names the delta file in the `delta` block.
pub fn delta_report(
    engine: &mut Engine,
    ds: &mut Dataset,
    delta: &GraphDelta,
    jobs: usize,
    file: Option<&str>,
    skipped: usize,
    commit: impl FnOnce(),
) -> Result<RunReport, DeltaRunError> {
    let before_typing = engine.type_all_par(&ds.graph, &ds.pool, jobs);
    let before = typing_doc(engine, &ds.graph, &ds.pool, &before_typing);

    let (plan, applied) = if jobs > 1 {
        let planner_engine = &*engine;
        std::thread::scope(|s| {
            let planner = s.spawn(|| planner_engine.plan_invalidation(delta));
            let applied = ds.try_apply_delta(delta);
            let plan = planner.join().expect("invalidation planner panicked");
            (plan, applied)
        })
    } else {
        (engine.plan_invalidation(delta), ds.try_apply_delta(delta))
    };
    applied.map_err(DeltaRunError::Apply)?;
    let after_typing = engine
        .revalidate_par_planned(&ds.graph, &ds.pool, delta, plan, jobs)
        .map_err(DeltaRunError::Revalidate)?;
    commit();
    let after = typing_doc(engine, &ds.graph, &ds.pool, &after_typing);

    let stats = engine.stats();
    let mut block = json!({
        "added": delta.added.len(),
        "removed": delta.removed.len(),
        "invalidated": stats.invalidated_pairs,
        "retyped": stats.retyped_pairs,
        "reused": stats.reused_pairs,
    });
    if let (Some(file), Value::Object(m)) = (file, &mut block) {
        m.insert("file".to_string(), Value::from(file));
    }
    let mut doc = ReportDoc::new("delta", "derivative");
    doc.set("delta", block);
    doc.set("before", before);
    doc.set("after", after);
    let exit = Exit::of_typing(&after_typing);
    Ok(RunReport {
        body: finish_engine_doc(doc, engine, skipped, exit.conforms()),
        exit,
    })
}

/// One unsealed `typing` sub-document (the halves of a delta report).
fn typing_doc(engine: &mut Engine, graph: &Graph, pool: &TermPool, typing: &Typing) -> Value {
    let mut doc = ReportDoc::new("typing", "derivative");
    push_typing_rows(&mut doc, engine, graph, pool, typing);
    doc.finish(Exit::of_typing(typing).conforms())
}

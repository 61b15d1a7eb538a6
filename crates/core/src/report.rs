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
//! Verdict rows — the bulk of a large report — skip `Value` altogether:
//! [`ReportDoc`] writes them straight to bytes.

use std::fmt::Write as _;

use rustc_hash::FxHashMap;
use serde_json::pretty::{self, close, open_item, open_member, Escaped};
use serde_json::{json, Map, Value};

use shapex_rdf::graph::{Dataset, Graph};
use shapex_rdf::pool::TermPool;
use shapex_rdf::{DeltaApplyError, GraphDelta};
use shapex_shex::shapemap::ShapeMap;

use crate::budget::Exhaustion;
use crate::compile::ShapeId;
use crate::engine::{Engine, EngineError, MapOutcome, Trace};
use crate::result::{Failure, Typing};

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

/// An engine's `stats` and `metrics` blocks, keyed and in document
/// order — every report and the server's `/stats` attach them through
/// this one function.
pub fn counter_blocks(engine: &Engine) -> [(&'static str, Value); 2] {
    let labels = |i: usize| engine.label_of(ShapeId(i as u32)).as_str().to_string();
    [
        ("stats", engine.stats().to_json()),
        ("metrics", engine.metrics.to_json(&labels)),
    ]
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

/// A report document under construction: the skeleton keys as `Value`s,
/// the `results` and `exhausted` arrays as bytes.
///
/// Rows are written straight into the two arrays, in exactly the bytes the
/// vendored `serde_json` pretty printer would give the same rows inside the
/// sealed document: keys sorted, written with that printer's own layout
/// pieces (`serde_json::pretty`) at the indent they will sit at.
/// Only the small skeleton — the counter blocks, the `delta` block and the
/// other top-level keys — goes through `Value`; [`ReportDoc::render`]
/// splices the arrays in at their indent. The layout contract is
/// documented in `DESIGN.md` (§ Observability, report writer).
pub struct ReportDoc {
    root: Map<String, Value>,
    /// Sealed sub-documents, by key (the halves of a delta report).
    docs: Vec<(String, ReportDoc)>,
    /// The `results` array's items, each preceded by its separator, line
    /// break and indent.
    results: String,
    /// The `exhausted` array's items, in the same form.
    exhausted: String,
    /// The column the document's own braces sit at: 0 for a top-level
    /// document, 2 for a sub-document of one.
    indent: usize,
}

impl ReportDoc {
    /// A fresh skeleton for the given mode/engine pair.
    pub fn new(mode: &str, engine: &str) -> Self {
        Self::at(mode, engine, 0)
    }

    fn at(mode: &str, engine: &str, indent: usize) -> Self {
        let mut root = Map::new();
        root.insert("tool".to_string(), Value::from("shapex"));
        root.insert("mode".to_string(), Value::from(mode));
        root.insert("engine".to_string(), Value::from(engine));
        ReportDoc {
            root,
            docs: Vec::new(),
            results: String::new(),
            exhausted: String::new(),
            indent,
        }
    }

    /// A fresh skeleton for a sub-document that [`ReportDoc::set_doc`]
    /// will nest under a key of this one.
    pub fn child(&self, mode: &str, engine: &str) -> Self {
        Self::at(mode, engine, self.indent + pretty::STEP)
    }

    /// Sets a top-level key.
    pub fn set(&mut self, key: &str, value: Value) {
        self.root.insert(key.to_string(), value);
    }

    /// Seals `doc` with its overall verdict and nests it under `key`.
    ///
    /// # Panics
    ///
    /// If `doc` was not made by this document's [`ReportDoc::child`]: its
    /// rows are written at the indent they will sit at, so a document made
    /// at another level would break the layout.
    pub fn set_doc(&mut self, key: &str, mut doc: ReportDoc, conforms: Option<bool>) {
        assert_eq!(
            doc.indent,
            self.indent + pretty::STEP,
            "sub-document made by child()"
        );
        doc.seal(conforms);
        self.root.insert(key.to_string(), Value::Null);
        self.docs.retain(|(k, _)| k != key);
        self.docs.push((key.to_string(), doc));
    }

    /// Appends one verdict row (see [`result_json`]).
    pub fn push_result(&mut self, row: Value) {
        let indent = self.indent + 2 * pretty::STEP;
        let first = self.results.is_empty();
        open_item(&mut self.results, first, indent);
        pretty::value(&mut self.results, &row, indent);
    }

    /// Appends one row to the document-level `exhausted` array.
    pub fn push_exhausted(&mut self, node: &str, shape: &str, e: &Exhaustion) {
        self.exhausted_row(&json_string(node), &json_string(shape), e);
    }

    /// One `exhausted` item; `node` and `shape` are JSON strings, quoted.
    fn exhausted_row(&mut self, node: &str, shape: &str, e: &Exhaustion) {
        let indent = self.indent + 2 * pretty::STEP;
        let members = indent + pretty::STEP;
        let out = &mut self.exhausted;
        open_item(out, out.is_empty(), indent);
        out.push('{');
        open_member(out, true, members, "exhaustion");
        pretty::value(out, &exhaustion_json(e), members);
        open_member(out, false, members, "node");
        out.push_str(node);
        open_member(out, false, members, "shape");
        out.push_str(shape);
        close(out, indent, '}');
    }

    /// One `results` item in [`result_json`]'s layout; `node` and `shape`
    /// are JSON strings, quoted. The failure is written with its terms
    /// resolved against `pool` and escaped on the way in.
    fn result_row(
        &mut self,
        node: &str,
        shape: &str,
        verdict: &str,
        failure: Option<(&Failure, &TermPool)>,
        exhaustion: Option<&Exhaustion>,
    ) {
        let indent = self.indent + 2 * pretty::STEP;
        let members = indent + pretty::STEP;
        let out = &mut self.results;
        open_item(out, out.is_empty(), indent);
        out.push('{');
        let mut first = true;
        if let Some(e) = exhaustion {
            open_member(out, first, members, "exhaustion");
            pretty::value(out, &exhaustion_json(e), members);
            first = false;
        }
        if let Some((f, pool)) = failure {
            open_member(out, first, members, "failure");
            out.push('"');
            // Writing into a `String` cannot fail.
            let _ = write!(Escaped(out), "{}", f.display(pool));
            out.push('"');
            first = false;
        }
        open_member(out, first, members, "node");
        out.push_str(node);
        open_member(out, false, members, "shape");
        out.push_str(shape);
        open_member(out, false, members, "verdict");
        pretty::string(out, verdict);
        close(out, indent, '}');
    }

    /// Adds the keys every document gets when sealed: the overall verdict
    /// (`null` when any check exhausted — the honest answer is
    /// "unknown") and the two arrays, whose values [`ReportDoc::render`]
    /// and [`ReportDoc::finish`] take from the row buffers.
    fn seal(&mut self, conforms: Option<bool>) {
        self.root.insert(
            "conforms".to_string(),
            conforms.map_or(Value::Null, Value::from),
        );
        self.root.insert("results".to_string(), Value::Null);
        self.root.insert("exhausted".to_string(), Value::Null);
    }

    /// Seals the document and serializes it: pretty-printed, trailing
    /// newline — byte for byte what [`render`] gives for
    /// [`ReportDoc::finish`]'s value.
    pub fn render(mut self, conforms: Option<bool>) -> String {
        self.seal(conforms);
        let mut out = String::with_capacity(self.results.len() + self.exhausted.len() + 4096);
        self.write_sealed(&mut out);
        out.push('\n');
        out
    }

    /// Writes a sealed document as a pretty-printed object whose braces sit
    /// at `self.indent`.
    fn write_sealed(&self, out: &mut String) {
        let members = self.indent + pretty::STEP;
        out.push('{');
        for (i, (key, value)) in self.root.iter().enumerate() {
            open_member(out, i == 0, members, key);
            match key.as_str() {
                "results" => write_items(out, &self.results, members),
                "exhausted" => write_items(out, &self.exhausted, members),
                _ => match self.docs.iter().find(|(k, _)| k == key) {
                    Some((_, doc)) => doc.write_sealed(out),
                    None => pretty::value(out, value, members),
                },
            }
        }
        close(out, self.indent, '}');
    }

    /// Seals the document as a `Value`, for callers that nest documents by
    /// hand; [`ReportDoc::render`] is the serializing path.
    pub fn finish(mut self, conforms: Option<bool>) -> Value {
        self.seal(conforms);
        self.into_value()
    }

    fn into_value(self) -> Value {
        let mut root = self.root;
        let items = |rows: &str| {
            serde_json::from_str(&format!("[{rows}]")).expect("rows are written as JSON")
        };
        root.insert("results".to_string(), items(&self.results));
        root.insert("exhausted".to_string(), items(&self.exhausted));
        for (key, doc) in self.docs {
            root.insert(key, doc.into_value());
        }
        Value::Object(root)
    }
}

/// `s` as a quoted JSON string.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    pretty::string(&mut out, s);
    out
}

/// Writes the array of `items` (see [`ReportDoc`]) whose brackets sit at
/// `indent`.
fn write_items(out: &mut String, items: &str, indent: usize) {
    if items.is_empty() {
        out.push_str("[]");
    } else {
        out.push('[');
        out.push_str(items);
        close(out, indent, ']');
    }
}

/// Fills a report document with the per-`(node, shape)` rows of a full
/// typing: `conforms` rows straight from the typing, `exhausted` rows (plus
/// the document's exhaustion block) for unanswered pairs, and `fails` rows
/// carrying the failure diagnostic the typing run memoised — recomputed
/// by [`Engine::check_id`] only for a pair the memo has no verdict for.
/// Shared by the plain full-typing report, both halves of the `--delta`
/// before/after report, and the server's `/validate` endpoint.
///
/// Each node's name is formatted and escaped once, each shape label once
/// per call, and each failure is written from the memo entry it borrows.
pub fn push_typing_rows(
    doc: &mut ReportDoc,
    engine: &mut Engine,
    graph: &Graph,
    pool: &TermPool,
    typing: &Typing,
) {
    let exhausted: FxHashMap<_, _> = typing
        .exhausted
        .iter()
        .map(|&(n, s, e)| ((n, s), e))
        .collect();
    let shapes: Vec<String> = (0..engine.schema().shapes.len())
        .map(|i| json_string(engine.label_of(ShapeId(i as u32)).as_str()))
        .collect();
    let mut node_name = String::new();
    for node in graph.subjects() {
        node_name.clear();
        node_name.push('"');
        let _ = write!(Escaped(&mut node_name), "{}", pool.term(node));
        node_name.push('"');
        for (i, shape_name) in shapes.iter().enumerate() {
            let shape = ShapeId(i as u32);
            if typing.has(node, shape) {
                doc.result_row(&node_name, shape_name, "conforms", None, None);
            } else if let Some(e) = exhausted.get(&(node, shape)) {
                doc.result_row(&node_name, shape_name, "exhausted", None, Some(e));
                doc.exhausted_row(&node_name, shape_name, e);
            } else if let Some(failure) = engine.failed_verdict(node, shape) {
                let failure = failure.map(|f| (f, pool));
                doc.result_row(&node_name, shape_name, "fails", failure, None);
            } else {
                let failure = engine.check_id(graph, pool, node, shape).into_failure();
                let failure = failure.as_ref().map(|f| (f, pool));
                doc.result_row(&node_name, shape_name, "fails", failure, None);
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
    for (key, block) in counter_blocks(engine) {
        doc.set(key, block);
    }
    doc.render(conforms)
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
    let mut doc = ReportDoc::new("delta", "derivative");
    let before_typing = engine.type_all_par(&ds.graph, &ds.pool, jobs);
    let mut before = doc.child("typing", "derivative");
    push_typing_rows(&mut before, engine, &ds.graph, &ds.pool, &before_typing);

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
    let mut after = doc.child("typing", "derivative");
    push_typing_rows(&mut after, engine, &ds.graph, &ds.pool, &after_typing);

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
    doc.set("delta", block);
    doc.set_doc("before", before, Exit::of_typing(&before_typing).conforms());
    let exit = Exit::of_typing(&after_typing);
    doc.set_doc("after", after, exit.conforms());
    Ok(RunReport {
        body: finish_engine_doc(doc, engine, skipped, exit.conforms()),
        exit,
    })
}

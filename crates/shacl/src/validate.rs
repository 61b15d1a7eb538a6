//! The SHACL validation driver: engine checks plus front-end verdicts
//! and report attribution.
//!
//! Life of a validation: select targets, warm the engine's memo tables
//! with a parallel typing pass over the data ([`shapex::Engine::type_all_par`]),
//! then evaluate each `(focus, shape)` pair — focus-node tests and
//! verdict-level logic in the front end, neighbourhood structure via the
//! (memoised) engine. Failing pairs get an attribution pass that walks
//! the shape's components and emits `sh:ValidationResult` rows.

use std::collections::HashMap;

use shapex::report::Exit;
use shapex::{Closure, Engine, EngineConfig, Exhaustion, Outcome, ShapeId};
use shapex_rdf::graph::{Dataset, Graph};
use shapex_rdf::pool::{TermId, TermPool};
use shapex_rdf::term::TermRef;
use shapex_shex::constraint::NodeConstraint;

use crate::compile::{LogicOp, ShaclSchema};
use crate::model::{Component, Path};
use crate::target::select_targets;
use crate::{err, ShaclError};

/// One row of the validation report (a `sh:ValidationResult`). All terms
/// are pre-rendered in N-Triples form so the report layer is a plain
/// serialisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationResult {
    /// The focus node that failed.
    pub focus: String,
    /// The shape (node or property shape) the check came from.
    pub source_shape: String,
    /// The `sh:`-CURIE of the violated constraint component.
    pub component: &'static str,
    /// `sh:Violation` unless the shape declares another severity.
    pub severity: String,
    /// The property path, for property-shape results.
    pub path: Option<String>,
    /// The offending value node, when the check is value-scoped.
    pub value: Option<String>,
    /// The shape's `sh:message`, if any.
    pub message: Option<String>,
}

/// A `(focus, shape)` pair whose check tripped a resource budget before
/// completing; the report's third verdict (exit code 3).
#[derive(Debug, Clone)]
pub struct ExhaustedTarget {
    /// The focus node whose check was cut short.
    pub focus: String,
    /// The shape being checked.
    pub shape: String,
    /// What ran out, how far it got.
    pub exhaustion: Exhaustion,
}

/// The outcome of validating a data graph against a compiled SHACL
/// schema.
#[derive(Debug)]
pub struct ShaclOutcome {
    /// Number of `(focus, shape)` target pairs checked.
    pub targets: usize,
    /// Violation rows, in deterministic (shape, focus) order.
    pub results: Vec<ValidationResult>,
    /// Target pairs whose verdict is unknown due to budget exhaustion.
    pub exhausted: Vec<ExhaustedTarget>,
}

impl ShaclOutcome {
    /// `Some(true)` when every target conforms, `Some(false)` when at
    /// least one violation was found, `None` when exhaustion left the
    /// question open (mirrors the engine's three-valued reporting).
    pub fn conforms(&self) -> Option<bool> {
        if !self.results.is_empty() {
            Some(false)
        } else if self.exhausted.is_empty() {
            Some(true)
        } else {
            None
        }
    }

    /// How the run ended, for the CLI exit code and the server's
    /// `X-Shapex-Exit` header: the three values of [`ShaclOutcome::conforms`],
    /// with exhaustion carrying the first exhausted target's record.
    pub fn exit(&self) -> Exit {
        match self.conforms() {
            Some(true) => Exit::Conforms,
            Some(false) => Exit::NonConforming,
            None => Exit::Exhausted(self.exhausted[0].exhaustion),
        }
    }
}

#[derive(Debug, Clone)]
enum Verdict {
    Conforms,
    Fails,
    Exhausted(Exhaustion),
}

/// A compiled SHACL schema bound to an engine instance, ready to
/// validate datasets.
pub struct ShaclValidator {
    schema: ShaclSchema,
    engine: Engine,
    shape_ids: Vec<Option<ShapeId>>,
}

impl ShaclValidator {
    /// Compiles the engine for `schema` over the *data* term pool. The
    /// closure mode is forced to [`Closure::Open`]: the per-path
    /// translation (DESIGN.md §5h) is only correct when gathering is
    /// limited to mentioned predicates.
    pub fn new(
        schema: ShaclSchema,
        pool: &mut TermPool,
        mut config: EngineConfig,
    ) -> Result<Self, ShaclError> {
        config.closure = Closure::Open;
        let engine = Engine::compile(&schema.engine, pool, config)
            .map_err(|e| err("E008", format!("engine rejected compiled schema: {e:?}")))?;
        let shape_ids = schema
            .shapes
            .iter()
            .map(|s| s.engine_label.as_ref().and_then(|l| engine.shape_id(l)))
            .collect();
        Ok(ShaclValidator {
            schema,
            engine,
            shape_ids,
        })
    }

    /// The compiled schema this validator runs.
    pub fn schema(&self) -> &ShaclSchema {
        &self.schema
    }

    /// The underlying derivative engine (stats, metrics, calculus).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the engine, for host-level configuration such as
    /// installing a shared typing executor. The compiled schema itself is
    /// not reachable through this.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Validates `ds`, using `jobs` worker threads for the engine's
    /// typing pass. Needs `&mut Dataset` because `sh:targetNode` terms
    /// are interned into the data pool.
    pub fn validate_par(&mut self, ds: &mut Dataset, jobs: usize) -> ShaclOutcome {
        let targets = select_targets(&self.schema, ds);
        // Warm the memo tables: one parallel typing pass over the data
        // answers the bulk of the engine queries below from cache.
        self.engine.type_all_par(&ds.graph, &ds.pool, jobs);

        let mut memo: HashMap<(TermId, usize), Verdict> = HashMap::new();
        let mut results = Vec::new();
        let mut exhausted = Vec::new();
        for &(idx, focus) in &targets {
            let verdict = self.eval(&ds.graph, &ds.pool, focus, idx, &mut memo);
            match verdict {
                Verdict::Conforms => {}
                Verdict::Fails => {
                    let before = results.len();
                    self.explain(&ds.graph, &ds.pool, focus, idx, &mut memo, &mut results);
                    if results.len() == before {
                        // The derivative said ∅ but no single component
                        // re-check could be blamed; never report nothing.
                        let shape = &self.schema.shapes[idx];
                        results.push(ValidationResult {
                            focus: ds.pool.term(focus).to_string(),
                            source_shape: shape.label.clone(),
                            component: Component::Derivative.iri(),
                            severity: shape.severity.clone(),
                            path: None,
                            value: None,
                            message: shape.message.clone(),
                        });
                    }
                }
                Verdict::Exhausted(e) => exhausted.push(ExhaustedTarget {
                    focus: ds.pool.term(focus).to_string(),
                    shape: self.schema.shapes[idx].label.clone(),
                    exhaustion: e,
                }),
            }
        }
        ShaclOutcome {
            targets: targets.len(),
            results,
            exhausted,
        }
    }

    /// Three-valued conformance of `focus` against shape `idx`:
    /// focus tests ∧ engine check ∧ logic operators. Any `Fails` wins,
    /// otherwise any `Exhausted` wins, otherwise `Conforms`. Memoised;
    /// terminates because verdict-level logic is acyclic by construction.
    fn eval(
        &mut self,
        graph: &Graph,
        pool: &TermPool,
        focus: TermId,
        idx: usize,
        memo: &mut HashMap<(TermId, usize), Verdict>,
    ) -> Verdict {
        if let Some(v) = memo.get(&(focus, idx)) {
            return v.clone();
        }
        let verdict = self.eval_uncached(graph, pool, focus, idx, memo);
        memo.insert((focus, idx), verdict.clone());
        verdict
    }

    fn eval_uncached(
        &mut self,
        graph: &Graph,
        pool: &TermPool,
        focus: TermId,
        idx: usize,
        memo: &mut HashMap<(TermId, usize), Verdict>,
    ) -> Verdict {
        {
            let shape = &self.schema.shapes[idx];
            if shape.deactivated {
                return Verdict::Conforms;
            }
            let term = pool.term(focus);
            if shape.focus.iter().any(|(_, c)| !c.matches(term)) {
                return Verdict::Fails;
            }
        }
        let mut pending: Option<Exhaustion> = None;
        if let Some(sid) = self.shape_ids[idx] {
            match self.engine.check_id(graph, pool, focus, sid) {
                Outcome::Conforms => {}
                Outcome::Fails(_) => return Verdict::Fails,
                Outcome::Exhausted(e) => pending = Some(e),
            }
        }
        // Per-value residue: paths that mix class/shape membership with
        // arc constraints keep counting and tests in the engine and check
        // each value's membership here.
        let checks: Vec<(Path, Vec<Box<str>>, Vec<usize>)> = self.schema.shapes[idx]
            .value_checks
            .iter()
            .map(|c| (c.path.clone(), c.classes.clone(), c.refs.clone()))
            .collect();
        for (path, classes, refs) in checks {
            for v in values_of(graph, pool, focus, &path) {
                if classes.iter().any(|c| !has_type(graph, pool, v, c)) {
                    return Verdict::Fails;
                }
                for &r in &refs {
                    if let Some(sid) = self.shape_ids[r] {
                        match self.engine.check_id(graph, pool, v, sid) {
                            Outcome::Conforms => {}
                            Outcome::Fails(_) => return Verdict::Fails,
                            Outcome::Exhausted(e) => pending = pending.or(Some(e)),
                        }
                    }
                }
            }
        }
        // Verdict-level logic. Operand lists are cloned up front so the
        // recursive calls can borrow `self` mutably.
        let ops: Vec<LogicOp> = self.schema.shapes[idx]
            .logic
            .iter()
            .map(|op| match op {
                LogicOp::And(v) => LogicOp::And(v.clone()),
                LogicOp::Or(v) => LogicOp::Or(v.clone()),
                LogicOp::Xone(v) => LogicOp::Xone(v.clone()),
                LogicOp::Not(i) => LogicOp::Not(*i),
                LogicOp::Node(i) => LogicOp::Node(*i),
            })
            .collect();
        for op in ops {
            let v = self.eval_logic(graph, pool, focus, &op, memo);
            match v {
                Verdict::Fails => return Verdict::Fails,
                Verdict::Exhausted(e) => pending = pending.or(Some(e)),
                Verdict::Conforms => {}
            }
        }
        match pending {
            Some(e) => Verdict::Exhausted(e),
            None => Verdict::Conforms,
        }
    }

    fn eval_logic(
        &mut self,
        graph: &Graph,
        pool: &TermPool,
        focus: TermId,
        op: &LogicOp,
        memo: &mut HashMap<(TermId, usize), Verdict>,
    ) -> Verdict {
        match op {
            LogicOp::And(ops) => {
                let mut pending = None;
                for &i in ops {
                    match self.eval(graph, pool, focus, i, memo) {
                        Verdict::Fails => return Verdict::Fails,
                        Verdict::Exhausted(e) => pending = pending.or(Some(e)),
                        Verdict::Conforms => {}
                    }
                }
                pending.map_or(Verdict::Conforms, Verdict::Exhausted)
            }
            LogicOp::Node(i) => self.eval(graph, pool, focus, *i, memo),
            LogicOp::Or(ops) => {
                let mut pending = None;
                for &i in ops {
                    match self.eval(graph, pool, focus, i, memo) {
                        Verdict::Conforms => return Verdict::Conforms,
                        Verdict::Exhausted(e) => pending = pending.or(Some(e)),
                        Verdict::Fails => {}
                    }
                }
                pending.map_or(Verdict::Fails, Verdict::Exhausted)
            }
            LogicOp::Not(i) => match self.eval(graph, pool, focus, *i, memo) {
                Verdict::Conforms => Verdict::Fails,
                Verdict::Fails => Verdict::Conforms,
                exhausted => exhausted,
            },
            LogicOp::Xone(ops) => {
                let mut conforming = 0usize;
                let mut pending = None;
                for &i in ops {
                    match self.eval(graph, pool, focus, i, memo) {
                        Verdict::Conforms => conforming += 1,
                        Verdict::Exhausted(e) => pending = pending.or(Some(e)),
                        Verdict::Fails => {}
                    }
                }
                match (conforming, pending) {
                    // An unknown operand can still change "exactly one"
                    // unless two already conform.
                    (n, Some(e)) if n <= 1 => Verdict::Exhausted(e),
                    (1, _) => Verdict::Conforms,
                    _ => Verdict::Fails,
                }
            }
        }
    }

    /// Attribution: re-walks a failing `(focus, shape)` pair component by
    /// component and emits one report row per violated check.
    fn explain(
        &mut self,
        graph: &Graph,
        pool: &TermPool,
        focus: TermId,
        idx: usize,
        memo: &mut HashMap<(TermId, usize), Verdict>,
        out: &mut Vec<ValidationResult>,
    ) {
        let focus_str = pool.term(focus).to_string();
        let shape = &self.schema.shapes[idx];
        let shape_label = shape.label.clone();
        let severity = shape.severity.clone();
        let message = shape.message.clone();
        let row =
            |component: Component, path: Option<String>, value: Option<String>| ValidationResult {
                focus: focus_str.clone(),
                source_shape: shape_label.clone(),
                component: component.iri(),
                severity: severity.clone(),
                path,
                value,
                message: message.clone(),
            };

        let term = pool.term(focus);
        for (component, c) in &shape.focus {
            if !c.matches(term) {
                out.push(row(*component, None, Some(focus_str.clone())));
            }
        }
        for class in &shape.focus_classes {
            if !has_type(graph, pool, focus, class) {
                out.push(row(Component::Class, None, Some(focus_str.clone())));
            }
        }

        // Property groups: collect per-group rows first (needs engine
        // access for sh:node re-checks, so the shape borrow is re-taken).
        let group_count = self.schema.shapes[idx].groups.len();
        for g_idx in 0..group_count {
            self.explain_group(graph, pool, focus, idx, g_idx, out);
        }

        let shape = &self.schema.shapes[idx];
        if let Some(spec) = &shape.closed {
            for &(p, o) in graph.neighbourhood(focus) {
                let Some(pred) = pool.term(p).as_iri() else {
                    continue;
                };
                let pred = pred.as_str();
                let allowed = spec.mentioned.iter().any(|m| &**m == pred)
                    || spec.ignored.iter().any(|i| &**i == pred);
                if !allowed {
                    out.push(ValidationResult {
                        focus: focus_str.clone(),
                        source_shape: shape.label.clone(),
                        component: Component::Closed.iri(),
                        severity: shape.severity.clone(),
                        path: Some(format!("<{pred}>")),
                        value: Some(pool.term(o).to_string()),
                        message: shape.message.clone(),
                    });
                }
            }
        }

        let ops: Vec<LogicOp> = self.schema.shapes[idx]
            .logic
            .iter()
            .map(|op| match op {
                LogicOp::And(v) => LogicOp::And(v.clone()),
                LogicOp::Or(v) => LogicOp::Or(v.clone()),
                LogicOp::Xone(v) => LogicOp::Xone(v.clone()),
                LogicOp::Not(i) => LogicOp::Not(*i),
                LogicOp::Node(i) => LogicOp::Node(*i),
            })
            .collect();
        for op in &ops {
            if matches!(
                self.eval_logic(graph, pool, focus, op, memo),
                Verdict::Fails
            ) {
                let component = match op {
                    LogicOp::And(_) => Component::And,
                    LogicOp::Or(_) => Component::Or,
                    LogicOp::Not(_) => Component::Not,
                    LogicOp::Xone(_) => Component::Xone,
                    LogicOp::Node(_) => Component::Node,
                };
                out.push(row(component, None, Some(focus_str.clone())));
            }
        }
    }

    fn explain_group(
        &mut self,
        graph: &Graph,
        pool: &TermPool,
        focus: TermId,
        shape_idx: usize,
        g_idx: usize,
        out: &mut Vec<ValidationResult>,
    ) {
        let g = &self.schema.shapes[shape_idx].groups[g_idx];
        let focus_str = pool.term(focus).to_string();
        let path_str = g.path.render();
        let label = g.label.clone();
        let severity = g.severity.clone();
        let message = g.message.clone();
        let row = |component: Component, value: Option<String>| ValidationResult {
            focus: focus_str.clone(),
            source_shape: label.clone(),
            component: component.iri(),
            severity: severity.clone(),
            path: Some(path_str.clone()),
            value,
            message: message.clone(),
        };

        let values = values_of(graph, pool, focus, &g.path);
        if let Some(min) = g.min {
            if (values.len() as u32) < min {
                out.push(row(Component::MinCount, None));
            }
        }
        if let Some(max) = g.max {
            if values.len() as u32 > max {
                out.push(row(Component::MaxCount, None));
            }
        }
        let tests: Vec<(Component, NodeConstraint)> = g.tests.clone();
        let classes = g.classes.clone();
        let has_values = g.has_values.clone();
        let refs = g.refs.clone();
        for &v in &values {
            let vt = pool.term(v);
            for (component, c) in &tests {
                if !c.matches(vt) {
                    out.push(row(*component, Some(vt.to_string())));
                }
            }
            for class in &classes {
                if !has_type(graph, pool, v, class) {
                    out.push(row(Component::Class, Some(vt.to_string())));
                }
            }
            for &r in &refs {
                if let Some(sid) = self.shape_ids[r] {
                    if matches!(self.engine.check_id(graph, pool, v, sid), Outcome::Fails(_)) {
                        out.push(row(Component::Node, Some(vt.to_string())));
                    }
                }
            }
        }
        for t in &has_values {
            let present = pool.get(t).is_some_and(|tid| values.contains(&tid));
            if !present {
                out.push(row(Component::HasValue, None));
            }
        }
    }
}

/// The value nodes of `focus` under a (forward or inverse) path.
fn values_of(graph: &Graph, pool: &TermPool, focus: TermId, path: &Path) -> Vec<TermId> {
    let Some(pid) = pool.get_ref(TermRef::Iri(path.iri())) else {
        return Vec::new();
    };
    match path {
        Path::Forward(_) => graph.objects(focus, pid).collect(),
        Path::Inverse(_) => graph
            .incoming(focus)
            .iter()
            .filter(|&&(_, p)| p == pid)
            .map(|&(s, _)| s)
            .collect(),
    }
}

/// Direct `rdf:type` membership (see §5h: `sh:class` on value nodes uses
/// direct types; the subclass closure applies to target selection only).
fn has_type(graph: &Graph, pool: &TermPool, node: TermId, class: &str) -> bool {
    let (Some(type_id), Some(class_id)) = (
        pool.get_ref(TermRef::Iri(shapex_rdf::vocab::rdf::TYPE)),
        pool.get_ref(TermRef::Iri(class)),
    ) else {
        return false;
    };
    graph.objects(node, type_id).any(|o| o == class_id)
}

/// Convenience wrapper: compile the shapes graph, bind a validator, and
/// validate in one call (the CLI and server compose the pieces instead,
/// to reuse compiled schemas across requests).
pub fn validate(
    shapes: &Dataset,
    data: &mut Dataset,
    config: EngineConfig,
    jobs: usize,
) -> Result<(ShaclOutcome, ShaclValidator), ShaclError> {
    let schema = crate::compile::compile(shapes)?;
    let mut validator = ShaclValidator::new(schema, &mut data.pool, config)?;
    let outcome = validator.validate_par(data, jobs);
    Ok((outcome, validator))
}

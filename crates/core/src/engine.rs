//! The derivative-based validation engine (paper §6–§8).
//!
//! Matching a node consumes its neighbourhood one triple at a time
//! (`e ≃ t ⊕ ts ⇔ ∂t(e) ≃ ts`, §7), so there is no graph decomposition and
//! no backtracking. The two ingredients beyond the calculus itself:
//!
//! * **Triple classes.** `∂t` only depends on *which arc constraints* `t`
//!   satisfies, so triples are mapped to satisfaction-profile ids first and
//!   derivatives are memoised per `(expression, profile)` — the
//!   Owens–Reppy–Turon character-class idea transplanted to triples.
//! * **Typing context `Γ`.** Shape references (§8 *Arcref*) recurse through
//!   the internal `check_inner`; a reference back to an in-progress
//!   `(node, shape)` pair succeeds on a coinductive assumption (`Γ{n→l}`
//!   in Fig. 3). Results proved under assumptions are tracked as
//!   *conditional*; if an assumption later fails, tainted results are
//!   purged and the query re-runs — converging on the greatest-fixpoint
//!   typing (sound because shape references are never negated, so
//!   matching is monotone in the assumption set).

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use rustc_hash::{FxHashMap, FxHashSet};
use shapex_rdf::delta::GraphDelta;
use shapex_rdf::graph::Graph;
use shapex_rdf::pool::{TermId, TermPool};
use shapex_shex::ast::ShapeLabel;
use shapex_shex::schema::{Schema, SchemaError};
use shapex_shex::shapemap::ShapeMap;

use crate::arena::{ArcId, ExprId, Node, Simplify, EMPTY, EPSILON, UNBOUNDED};
use crate::budget::{Budget, BudgetMeter, Exhaustion, Resource, RunGovernor};
use crate::compile::{CompiledObject, CompiledPredicates, CompiledSchema, ShapeId};
use crate::dfa::{ShapeDfa, Transition};
use crate::metrics::{Metrics, ShardMetrics, WaveMetrics};
use crate::result::{Failure, FailureKind, MatchResult, Outcome, Stats, Typing};
use crate::sched::{self, Batch, BatchQueue, Executor, PubLog, WorkerCounters};

/// Whether a shape must account for the node's entire neighbourhood.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Closure {
    /// The paper's semantics: `Σg_n ∈ S_n[[e]]` — every outgoing triple
    /// must be consumed by the expression.
    #[default]
    Closed,
    /// ShEx-style: only triples whose predicate is mentioned by the shape
    /// participate; others are ignored.
    Open,
}

/// Engine configuration. `simplify`, `no_deriv_memo` and `no_sorbe` exist
/// for the E9 ablation benchmarks; `closure`, `budget`, `incremental` and
/// `prune` are operational settings the CLI and server expose.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfig {
    /// Which simplification rules the expression arena applies.
    pub simplify: Simplify,
    /// Closed (paper) vs open (ShEx) neighbourhood semantics.
    pub closure: Closure,
    /// Disable the `(expression, triple-class)` derivative memo. This
    /// disables the lazy DFA too — the transition table *is* the
    /// derivative memo in dense clothing.
    pub no_deriv_memo: bool,
    /// Disable the SORBE counting fast path (§8 future work; see
    /// [`crate::sorbe`]), forcing the general derivative algorithm.
    pub no_sorbe: bool,
    /// Per-query resource limits (see [`crate::budget`]). The default,
    /// [`Budget::UNLIMITED`], governs nothing.
    pub budget: Budget,
    /// Ignored: the engine always collects its counters (see
    /// [`crate::metrics`]). Kept so configurations that still set it
    /// compile.
    pub metrics: bool,
    /// Record a triple-dependency index during typing so that
    /// [`Engine::revalidate`] can re-check only the `(node, shape)` pairs
    /// a [`GraphDelta`] actually disturbs. Off by default: recording
    /// costs a few hash inserts per evaluated pair, and without it
    /// `revalidate` falls back to [`Engine::reset`] + a full re-typing.
    pub incremental: bool,
    /// Rewrite each compiled shape after compilation, dropping alternation
    /// branches whose language is provably empty (see
    /// [`crate::calculus::prune_empty_branches`]). Off by default; the
    /// rewrite preserves the language exactly (verdicts, failures, and
    /// typings are byte-identical), only derivative work on dead branches
    /// disappears.
    pub prune: bool,
}

/// A validation error at the API boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The queried label has no definition in the schema.
    UnknownShape(String),
    /// The schema failed well-formedness checks at compile time.
    Schema(SchemaError),
    /// A [`Engine::revalidate`] call whose delta does not match the graph:
    /// a triple the delta claims to have added is absent, or one it claims
    /// to have removed (and not re-added) is still present. This means the
    /// delta was never applied — or was applied to a different graph — and
    /// revalidating against it would serve answers from a stale dependency
    /// index.
    StaleDelta {
        /// Human-readable description of the first mismatch found.
        detail: String,
    },
    /// A resource budget tripped before the check completed (see
    /// [`crate::budget`]). Exhaustion is *not* non-conformance: the
    /// question is unanswered, and re-running with a larger budget may
    /// answer it either way.
    ResourceExhausted {
        /// The resource that ran out.
        resource: Resource,
        /// Units spent when the budget tripped.
        spent: u64,
        /// The configured limit.
        limit: u64,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownShape(l) => write!(f, "unknown shape <{l}>"),
            EngineError::Schema(e) => e.fmt(f),
            EngineError::StaleDelta { detail } => {
                write!(f, "delta does not match graph (was it applied?): {detail}")
            }
            EngineError::ResourceExhausted {
                resource,
                spent,
                limit,
            } => write!(f, "{resource} budget exhausted ({spent}/{limit})"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SchemaError> for EngineError {
    fn from(e: SchemaError) -> Self {
        EngineError::Schema(e)
    }
}

impl From<Exhaustion> for EngineError {
    fn from(e: Exhaustion) -> Self {
        EngineError::ResourceExhausted {
            resource: e.resource,
            spent: e.spent,
            limit: e.limit,
        }
    }
}

/// Outcome of one shape-map association (see [`Engine::validate_map`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapOutcome {
    /// Index into the shape map's association list.
    pub index: usize,
    /// Whether the node conforms to the shape.
    pub conforms: bool,
    /// Whether the result matches the association's stated expectation
    /// (`@!` associations expect non-conformance). Always `false` for an
    /// exhausted check: the expectation was neither met nor refuted.
    pub as_expected: bool,
    /// The failure explanation, when the node does not conform.
    pub failure: Option<Failure>,
    /// Present when the check exhausted its budget instead of completing;
    /// `conforms` is `false` but the node was *not* proven non-conforming.
    pub exhaustion: Option<Exhaustion>,
}

/// One step of a §7 derivative trace: the consumed triple and the
/// expression state around it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// The consumed triple's subject.
    pub subject: TermId,
    /// The consumed triple's predicate.
    pub predicate: TermId,
    /// The consumed triple's object.
    pub object: TermId,
    /// Whether the triple was consumed through an inverse arc.
    pub inverse: bool,
    /// Rendered expression before `∂t`.
    pub before: String,
    /// Rendered expression after `∂t`.
    pub after: String,
}

/// A full derivative trace (see [`Engine::trace`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Per-triple derivative steps, stopping early once the state is `∅`.
    pub steps: Vec<TraceStep>,
    /// The residual expression after all consumed triples.
    pub residual: String,
    /// `ν(residual)`.
    pub nullable: bool,
    /// The overall verdict (`residual ≠ ∅ ∧ ν`).
    pub matched: bool,
}

impl Trace {
    /// Renders the trace in the paper's `e ≃ {…} ⇔ ∂t(e) ≃ {…}` style.
    pub fn render(&self, pool: &TermPool) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for step in &self.steps {
            let dir = if step.inverse { "^" } else { "" };
            let _ = writeln!(
                out,
                "∂{dir}⟨{} {} {}⟩:\n    {}\n  → {}",
                pool.term(step.subject),
                pool.term(step.predicate),
                pool.term(step.object),
                step.before,
                step.after
            );
        }
        let _ = writeln!(
            out,
            "ν({}) = {} ⇒ {}",
            self.residual,
            self.nullable,
            if self.matched {
                "MATCHES"
            } else {
                "does NOT match"
            }
        );
        out
    }
}

/// Interned satisfaction-profile id (a triple class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ProfileId(u32);

type Pair = (ShapeId, TermId);

/// One publication-log entry of [`Engine::type_all_par`]: an
/// unconditional verdict, its failure diagnostic, and the worker that
/// published it (credited in [`ShardMetrics::promoted`] when the entry is
/// the coordinator's first sight of the pair).
#[derive(Debug, Clone)]
struct Published {
    pair: Pair,
    proven: bool,
    failure: Option<Failure>,
    worker: usize,
}

/// The settled part of an engine's caches (see [`Engine::settled`]),
/// each list sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Settled {
    /// Every unconditional `(shape, node)` verdict: `true` = proven.
    pub verdicts: Vec<(ShapeId, TermId, bool)>,
    /// The failure diagnostic recorded for each failed pair.
    pub failures: Vec<(ShapeId, TermId, Failure)>,
    /// Every memoised value-constraint result per `(arc, object term)`.
    pub value_sat: Vec<(ArcId, TermId, bool)>,
}

/// Triple key `(shape, predicate, other-end, inverse?)` for the per-run
/// profile cache; the value carries the assumptions used when computing it.
type TripleKey = (ShapeId, TermId, TermId, bool);

#[derive(Debug, Clone)]
enum MemoState {
    Proven,
    Failed,
    /// True under these coinductive assumptions.
    Conditional(BTreeSet<Pair>),
}

/// The triple-dependency index behind [`Engine::revalidate`], recorded
/// during typing when [`EngineConfig::incremental`] is on.
///
/// Together the three maps over-approximate "which `(node, shape)` answers
/// could a triple change disturb": `touched_out`/`touched_in` tie each
/// node's neighbourhood reads to the pairs that performed them, and
/// `rdeps` records the §8 typing-context edges — for every consumed
/// `(shape, node)` answer, the pairs whose own derivation consumed it
/// (whether by memo hit, coinductive assumption, or fresh evaluation).
/// Entries are never removed between runs (a purged pair simply re-records
/// on re-evaluation), so stale edges can only cause *over*-invalidation —
/// sound, never stale results.
#[derive(Debug, Default)]
struct TripleDeps {
    /// node → pairs whose evaluation read the node's outgoing
    /// neighbourhood (recorded even when that neighbourhood was empty, so
    /// a node's *first* triple still invalidates its old answers).
    touched_out: FxHashMap<TermId, FxHashSet<Pair>>,
    /// node → pairs whose evaluation read the node's incoming arcs
    /// (recorded only for shapes with inverse arcs — no other shape can
    /// observe an object-side change).
    touched_in: FxHashMap<TermId, FxHashSet<Pair>>,
    /// consumed pair → consuming pairs: the reverse shape-reference edges
    /// the invalidation closure walks.
    rdeps: FxHashMap<Pair, FxHashSet<Pair>>,
}

impl TripleDeps {
    fn clear(&mut self) {
        self.touched_out.clear();
        self.touched_in.clear();
        self.rdeps.clear();
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.touched_out.is_empty() && self.touched_in.is_empty() && self.rdeps.is_empty()
    }

    /// Unions another index into this one (parallel-worker merge).
    fn absorb(&mut self, other: TripleDeps) {
        for (node, pairs) in other.touched_out {
            self.touched_out.entry(node).or_default().extend(pairs);
        }
        for (node, pairs) in other.touched_in {
            self.touched_in.entry(node).or_default().extend(pairs);
        }
        for (pair, parents) in other.rdeps {
            self.rdeps.entry(pair).or_default().extend(parents);
        }
    }
}

/// A precomputed invalidation closure for
/// [`Engine::revalidate_par_planned`]: the memoised `(shape, node)` pairs a
/// [`GraphDelta`] can disturb, closed over the reverse shape-reference
/// edges.
///
/// Produced by [`Engine::plan_invalidation`], which reads only the
/// engine's dependency index and the delta — never the graph — so the
/// plan is valid whether it is computed before, after, or *concurrently
/// with* applying the delta to the graph. The server's `/delta` path uses
/// that freedom to overlap dependency-closure computation with the graph
/// mutation itself.
#[derive(Debug, Default)]
pub struct InvalidationPlan {
    dirty: FxHashSet<Pair>,
}

impl InvalidationPlan {
    /// Number of `(shape, node)` pairs the plan will purge.
    pub fn len(&self) -> usize {
        self.dirty.len()
    }

    /// True when the delta cannot disturb any memoised answer.
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }
}

/// The validator. Holds the compiled schema, the expression arena, and all
/// memo tables; reusable across many [`Engine::check`] calls over the same
/// graph/pool.
#[derive(Debug)]
pub struct Engine {
    schema: CompiledSchema,
    config: EngineConfig,
    /// `(shape, node)` results, persistent across checks.
    memo: FxHashMap<Pair, MemoState>,
    /// Value-constraint satisfaction per `(arc, object term)` — term
    /// semantics never change, so this survives re-runs.
    value_sat: FxHashMap<(ArcId, TermId), bool>,
    /// Triple → profile for entries established with *no* open assumptions:
    /// stable facts about the graph, persistent across queries and gfp
    /// reruns (they only reference `Proven`/`Failed` memo states, which are
    /// never purged). Cleared by [`Engine::reset`] — a stale entry against
    /// a changed graph would silently mis-profile.
    profile_stable: FxHashMap<TripleKey, ProfileId>,
    /// Per-run: triple → profile computed *under assumptions* (+ the
    /// assumptions used); discarded every rerun because a purged
    /// assumption invalidates the cached bits.
    profile_by_triple: FxHashMap<TripleKey, (ProfileId, Box<[Pair]>)>,
    /// Interned profile bitsets (masked to the shape's
    /// [`class_mask`](crate::compile::CompiledShape::class_mask)).
    /// Persistent: an interned `ProfileId`'s meaning (its bitset) never
    /// changes until [`Engine::reset`].
    profile_ids: FxHashMap<(ShapeId, Box<[u64]>), ProfileId>,
    profile_bits: Vec<Box<[u64]>>,
    /// Per-shape lazy DFAs (the derivative cache; see [`crate::dfa`]).
    /// `∂` is a pure function of `(expression, profile bits)`, so the
    /// tables persist across runs — but **must** be cleared together with
    /// the profile tables on [`Engine::reset`]: classes are numbered per
    /// profile-table generation, and a surviving transition would alias a
    /// different class.
    dfas: Vec<ShapeDfa>,
    /// `ProfileId → owning shape` (profiles are interned per shape).
    profile_shape: Vec<ShapeId>,
    /// `ProfileId → shape-local alphabet-class id` — the dense column
    /// index the DFA table uses in place of the profile key.
    class_local: Vec<u32>,
    /// Filled transition cells across all shape DFAs, mirrored here so
    /// the budget's arena accounting is O(1) (see `cache_units`).
    dfa_filled: usize,
    /// Pairs whose memo state is `Conditional` — kept so the purge and
    /// promotion passes touch only them, not the whole memo (which would
    /// make every query O(|memo|)).
    conditional: HashSet<Pair>,
    in_progress: HashSet<Pair>,
    failures: HashMap<Pair, Failure>,
    /// Per-query budget meter, reset by each top-level `gfp_run`/trace so
    /// every node in a batch gets the full budget (per-node fault
    /// isolation) while reruns of the same query share one allowance.
    meter: BudgetMeter,
    /// Whole-run cooperative governor, installed on parallel workers so
    /// `--timeout-ms` bounds wall-clock for the entire `type_all_par` run
    /// (per-query limits stay with each meter).
    governor: Option<Arc<RunGovernor>>,
    /// The engine's one counter record; [`Engine::stats`] is computed
    /// from it.
    pub(crate) metrics: Metrics,
    /// Triple-dependency index for [`Engine::revalidate`]; populated only
    /// when [`EngineConfig::incremental`] is set.
    deps: TripleDeps,
    /// The stack of pairs currently being evaluated, so dependency
    /// recording knows which pair is consuming a nested answer. Always
    /// empty between queries (frames pop even on budget exhaustion).
    dep_stack: Vec<Pair>,
    /// The `(shape, predicate, inverse)` heads whose candidate arcs
    /// include a shape reference — the only stable-profile keys that can
    /// embed a node-dependent answer. `Some(heads)` enumerates them
    /// (empty for a reference-free schema, where stable profiles are
    /// term-pure and never purged); `None` means a wildcard-predicate
    /// reference arc exists and invalidation must fall back to a full
    /// table scan.
    ref_heads: Option<Vec<(ShapeId, TermId, bool)>>,
    /// Shared thread pool for parallel typing, installed by the server so
    /// request-level and intra-request parallelism draw from one pool
    /// (see [`Engine::set_executor`]). `None` means [`Engine::type_all_par`]
    /// spins up a transient pool per call.
    executor: Option<Arc<Executor>>,
    /// Publication buffer for the work-stealing scheduler: when `Some`,
    /// every pair that becomes unconditional (`Proven`/`Failed` insert,
    /// or promotion of a conditional) is recorded here so the worker loop
    /// can publish it to its peers between queries. `None` (the default)
    /// keeps the hot path to a single discriminant test.
    publish: Option<Vec<Pair>>,
    /// Failed pairs whose failure diagnostic was recorded while the
    /// evaluation leaned on an open coinductive assumption. Which triple
    /// such a diagnostic names depends on what was still assumed at the
    /// time — evaluation order — so [`Engine::settle_diagnostics`]
    /// re-derives it from settled verdicts after a full typing. Always
    /// empty for reference-acyclic schemas.
    provisional: FxHashSet<Pair>,
    /// `Some` while [`Engine::settle_diagnostics`] re-evaluates a
    /// neighbourhood: reference checks then read settled verdicts only,
    /// and the first reference without one is parked here.
    settling: Option<Option<Pair>>,
}

impl Engine {
    /// Compiles a schema for validation, interning its terms into `terms`.
    pub fn compile(
        schema: &Schema,
        terms: &mut TermPool,
        config: EngineConfig,
    ) -> Result<Engine, EngineError> {
        shapex_rdf::failpoint::hit("engine-compile");
        let mut compiled = CompiledSchema::compile(schema, terms, config.simplify)?;
        if config.prune {
            crate::calculus::prune_empty_branches(&mut compiled);
        }
        let compiled = compiled;
        let metrics = Metrics::new(compiled.shapes.len());
        let dfas = vec![ShapeDfa::new(); compiled.shapes.len()];
        let mut ref_heads = Some(Vec::new());
        for arc in &compiled.arcs {
            if !matches!(arc.object, CompiledObject::Ref(_)) {
                continue;
            }
            match (&arc.predicates, &mut ref_heads) {
                (CompiledPredicates::Ids(ids), Some(heads)) => {
                    heads.extend(ids.iter().map(|&p| (arc.shape, p, arc.inverse)));
                }
                _ => {
                    ref_heads = None;
                    break;
                }
            }
        }
        if let Some(heads) = &mut ref_heads {
            heads.sort_unstable();
            heads.dedup();
        }
        Ok(Engine {
            schema: compiled,
            config,
            memo: FxHashMap::default(),
            value_sat: FxHashMap::default(),
            profile_stable: FxHashMap::default(),
            profile_by_triple: FxHashMap::default(),
            profile_ids: FxHashMap::default(),
            profile_bits: Vec::new(),
            dfas,
            profile_shape: Vec::new(),
            class_local: Vec::new(),
            dfa_filled: 0,
            conditional: HashSet::new(),
            in_progress: HashSet::new(),
            failures: HashMap::new(),
            meter: BudgetMeter::default(),
            governor: None,
            metrics,
            deps: TripleDeps::default(),
            dep_stack: Vec::new(),
            ref_heads,
            executor: None,
            publish: None,
            provisional: FxHashSet::default(),
            settling: None,
        })
    }

    /// Installs a shared [`Executor`] for parallel typing: subsequent
    /// [`Engine::type_all_par`] / [`Engine::revalidate_par`] calls fan
    /// their workers out on this pool instead of spawning a transient
    /// one. The server installs its request executor here, so one pool
    /// serves both request-level and intra-request parallelism.
    pub fn set_executor(&mut self, executor: Arc<Executor>) {
        self.executor = Some(executor);
    }

    /// Convenience compile with the default configuration.
    pub fn new(schema: &Schema, terms: &mut TermPool) -> Result<Engine, EngineError> {
        Engine::compile(schema, terms, EngineConfig::default())
    }

    /// The compiled schema this engine validates against.
    pub fn schema(&self) -> &CompiledSchema {
        &self.schema
    }

    /// Resolves a shape label to its compiled id.
    pub fn shape_id(&self, label: &ShapeLabel) -> Option<ShapeId> {
        self.schema.shape_id(label)
    }

    /// The label of a compiled shape.
    pub fn label_of(&self, shape: ShapeId) -> &ShapeLabel {
        &self.schema.shape(shape).label
    }

    /// Counters accumulated since construction (or [`Engine::reset`]): a
    /// snapshot of the counter record with the live arena size folded in.
    pub fn stats(&self) -> Stats {
        let m = &self.metrics;
        let pool = self.schema.pool.len();
        Stats {
            derivative_steps: m.derivative_steps,
            deriv_memo_hits: m.dfa_table.hits,
            triple_classes: m.triple_classes,
            node_checks: m.node_checks,
            gfp_reruns: m.gfp_reruns,
            sorbe_checks: m.sorbe_checks(),
            expr_pool_size: pool,
            budget_steps: m.budget_steps,
            peak_arena_nodes: m.arena_high_water.max(m.pool_high_water).max(pool),
            max_depth_reached: m.max_depth_reached,
            exhausted_checks: m.exhausted_checks,
            invalidated_pairs: m.delta_invalidated,
            retyped_pairs: m.delta_retyped,
            reused_pairs: m.delta_reused,
        }
    }

    /// A sorted snapshot of the settled caches: unconditional verdicts,
    /// their failure diagnostics, and value-constraint results. All three
    /// are properties of the graph alone, so a [`Engine::type_all_par`]
    /// run must leave the same snapshot as [`Engine::type_all`] — the
    /// check that every verdict a worker settled reached this engine.
    pub fn settled(&self) -> Settled {
        let mut verdicts: Vec<_> = self
            .memo
            .iter()
            .filter_map(|(&(shape, node), state)| match state {
                MemoState::Proven => Some((shape, node, true)),
                MemoState::Failed => Some((shape, node, false)),
                MemoState::Conditional(_) => None,
            })
            .collect();
        verdicts.sort_unstable();
        let mut failures: Vec<_> = self
            .failures
            .iter()
            .map(|(&(shape, node), f)| (shape, node, f.clone()))
            .collect();
        failures.sort_unstable_by_key(|&(shape, node, _)| (shape, node));
        let mut value_sat: Vec<_> = self
            .value_sat
            .iter()
            .map(|(&(arc, term), &sat)| (arc, term, sat))
            .collect();
        value_sat.sort_unstable();
        Settled {
            verdicts,
            failures,
            value_sat,
        }
    }

    /// The engine's counter record. Always `Some`: collection is always
    /// on (the `Option` keeps existing callers compiling).
    pub fn metrics(&self) -> Option<&Metrics> {
        Some(&self.metrics)
    }

    /// The budget every subsequent query runs under (also settable at
    /// compile time via [`EngineConfig::budget`]).
    pub fn set_budget(&mut self, budget: Budget) {
        self.config.budget = budget;
    }

    /// The currently configured budget.
    pub fn budget(&self) -> Budget {
        self.config.budget
    }

    /// Clears all memoised state (the compiled schema is kept), making the
    /// engine safe to reuse against a different (or mutated) graph.
    ///
    /// This must cover the *persistent* caches too, not just the
    /// `(node, shape)` memo: `profile_stable` embeds reference-arc answers
    /// computed on the old graph, and the DFA tables with their class maps
    /// are keyed by profile/class ids whose numbering restarts once the
    /// profile tables are cleared. A survivor of any of them would
    /// silently alias a different triple class on the next run.
    pub fn reset(&mut self) {
        self.memo.clear();
        self.conditional.clear();
        self.value_sat.clear();
        self.profile_stable.clear();
        self.profile_ids.clear();
        self.profile_bits.clear();
        for dfa in &mut self.dfas {
            *dfa = ShapeDfa::new();
        }
        self.profile_shape.clear();
        self.class_local.clear();
        self.dfa_filled = 0;
        self.begin_run();
        self.failures.clear();
        self.provisional.clear();
        self.deps.clear();
        self.dep_stack.clear();
        self.metrics = Metrics::new(self.schema.shapes.len());
    }

    /// Checks `node` against the shape named `label` (paper §8:
    /// `Γ ⊢ label ≃s node`).
    ///
    /// ```
    /// use shapex::Engine;
    /// let schema = shapex_shex::shexc::parse(
    ///     "PREFIX e: <http://e/>\n<S> { e:p [1 2]+ }").unwrap();
    /// let mut ds = shapex_rdf::turtle::parse(
    ///     "@prefix e: <http://e/> . e:n e:p 1, 2 .").unwrap();
    /// let mut engine = Engine::new(&schema, &mut ds.pool).unwrap();
    /// let n = ds.iri("http://e/n").unwrap();
    /// assert!(engine.check(&ds.graph, &ds.pool, n, &"S".into()).unwrap().matched);
    /// ```
    pub fn check(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        node: TermId,
        label: &ShapeLabel,
    ) -> Result<MatchResult, EngineError> {
        let shape = self
            .schema
            .shape_id(label)
            .ok_or_else(|| EngineError::UnknownShape(label.as_str().to_string()))?;
        match self.check_id(graph, terms, node, shape) {
            Outcome::Exhausted(e) => Err(e.into()),
            outcome => Ok(MatchResult {
                matched: outcome.matched(),
                failure: outcome.into_failure(),
            }),
        }
    }

    /// Checks `node` against a shape by id, driving the greatest-fixpoint
    /// loop to completion.
    ///
    /// Recursion through shape references is as deep as the data's
    /// reference chains (a 10⁵-link `knows`-chain recurses 10⁵ frames), so
    /// on recursive schemas an uncached check runs on a worker thread with
    /// a large stack; memoised answers and non-recursive schemas stay on
    /// the caller's stack.
    pub fn check_id(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        node: TermId,
        shape: ShapeId,
    ) -> Outcome {
        if let Some(answer) = self.memoised_answer(node, shape) {
            return answer;
        }
        if !self.schema.has_recursion {
            return self.gfp_run(graph, terms, node, shape);
        }
        self.on_big_stack(|engine| engine.gfp_run(graph, terms, node, shape))
    }

    /// Checks many `(node, shape)` pairs, amortising the large-stack
    /// worker (needed for data-deep reference recursion) over the whole
    /// batch — prefer this over a `check_id` loop when validating fleets
    /// of nodes against a recursive schema.
    pub fn check_many(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        queries: &[(TermId, ShapeId)],
    ) -> Vec<Outcome> {
        let all_memoised = queries
            .iter()
            .all(|&(node, shape)| self.memoised_answer(node, shape).is_some());
        if !self.schema.has_recursion || all_memoised {
            return queries
                .iter()
                .map(|&(node, shape)| match self.memoised_answer(node, shape) {
                    Some(answer) => answer,
                    None => self.gfp_run(graph, terms, node, shape),
                })
                .collect();
        }
        self.on_big_stack(|engine| {
            queries
                .iter()
                .map(|&(node, shape)| match engine.memoised_answer(node, shape) {
                    Some(answer) => answer,
                    None => engine.gfp_run(graph, terms, node, shape),
                })
                .collect()
        })
    }

    /// The fully-memoised answer for a pair, if any. Exhausted checks are
    /// never memoised — they stay retryable under a larger budget.
    fn memoised_answer(&self, node: TermId, shape: ShapeId) -> Option<Outcome> {
        match self.memo.get(&(shape, node)) {
            Some(MemoState::Proven) => Some(Outcome::Conforms),
            Some(MemoState::Failed) => {
                Some(Outcome::Fails(self.failures.get(&(shape, node)).cloned()))
            }
            _ => None,
        }
    }

    /// Runs `f` on a worker thread with a large (lazily committed) stack:
    /// comfortably ~10⁵ levels of reference recursion in debug builds.
    fn on_big_stack<R: Send>(&mut self, f: impl FnOnce(&mut Engine) -> R + Send) -> R {
        const WORKER_STACK: usize = 512 << 20;
        std::thread::scope(|scope| {
            std::thread::Builder::new()
                .name("shapex-validate".into())
                .stack_size(WORKER_STACK)
                .spawn_scoped(scope, || f(self))
                .expect("spawn validation worker")
                .join()
                .expect("validation worker panicked")
        })
    }

    /// The greatest-fixpoint driver (see the module docs): run, purge
    /// tainted conditional results, re-run until purge-free, promote.
    ///
    /// One budget meter covers the whole query *including* gfp reruns —
    /// restarts are part of the same question's cost. On exhaustion the
    /// query aborts: unpromoted conditional results are dropped (they are
    /// only sound after a purge-free complete run) while `Proven`/`Failed`
    /// entries stay (they were established without open assumptions), and
    /// the pair itself is not memoised, so it can be retried under a
    /// larger budget.
    fn gfp_run(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        node: TermId,
        shape: ShapeId,
    ) -> Outcome {
        shapex_rdf::failpoint::hit("typing-wave");
        // Query boundary: the run-wide deadline is checked here even when
        // individual queries are too small to reach an amortised poll.
        if let Some(governor) = &self.governor {
            if let Err(exhaustion) = governor.poll_deadline() {
                self.metrics.exhausted_checks += 1;
                return Outcome::Exhausted(exhaustion);
            }
        }
        self.meter = self.fresh_meter();
        self.meter.set_arena_baseline(self.arena_units());
        loop {
            self.begin_run();
            let mut deps = BTreeSet::new();
            match self.check_inner(graph, terms, node, shape, &mut deps) {
                Ok(ok) => {
                    if self.purge_tainted() == 0 {
                        self.promote_conditionals();
                        self.fold_meter();
                        return if ok {
                            Outcome::Conforms
                        } else {
                            Outcome::Fails(self.failures.get(&(shape, node)).cloned())
                        };
                    }
                    self.metrics.gfp_reruns += 1;
                }
                Err(exhaustion) => {
                    self.in_progress.clear();
                    // Frames pop their own dep_stack entries even on the
                    // error path; the clear is belt-and-braces so a bug
                    // there can't mis-attribute the next query's deps.
                    debug_assert!(self.dep_stack.is_empty());
                    self.dep_stack.clear();
                    for pair in self.conditional.drain() {
                        self.memo.remove(&pair);
                    }
                    self.metrics.exhausted_checks += 1;
                    self.fold_meter();
                    return Outcome::Exhausted(exhaustion);
                }
            }
        }
    }

    /// A per-query meter, wired to the whole-run governor when one is
    /// installed (parallel workers).
    fn fresh_meter(&self) -> BudgetMeter {
        match &self.governor {
            Some(g) => self.config.budget.meter_shared(Arc::clone(g)),
            None => self.config.budget.meter(),
        }
    }

    /// Folds the finished query's meter into the persistent stats and
    /// settles the query's tail steps with the shared governor (a tripped
    /// run-wide deadline is irrelevant for an already-finished query).
    fn fold_meter(&mut self) {
        let _ = self.meter.flush_shared();
        let m = &mut self.metrics;
        m.budget_steps += self.meter.steps_spent();
        m.max_depth_reached = m.max_depth_reached.max(self.meter.peak_depth());
        m.arena_high_water = m.arena_high_water.max(self.meter.peak_arena());
    }

    /// Whether the dense lazy-DFA derivative cache is active. The DFA
    /// *is* the derivative memo, so `no_deriv_memo` disables it.
    #[inline]
    fn use_dfa(&self) -> bool {
        !self.config.no_deriv_memo
    }

    /// The units `max_arena_nodes` governs: hash-consed expression nodes
    /// plus filled DFA transitions (table growth counts against the arena
    /// budget — the table is arena-shaped memory that grows with the same
    /// pathological inputs). Nothing is filled under `no_deriv_memo`.
    #[inline]
    fn arena_units(&self) -> usize {
        self.schema.pool.len() + self.dfa_filled
    }

    /// `ν(e)`, answered from the shape's DFA state table when the state
    /// is interned (one flat load), falling back to the arena's
    /// precomputed table.
    #[inline]
    fn nullable_of(&self, shape: ShapeId, e: ExprId) -> bool {
        if self.use_dfa() {
            if let Some(n) = self.dfas[shape.index()].nullable_of(e) {
                debug_assert_eq!(n, self.schema.pool.nullable(e));
                return n;
            }
        }
        self.schema.pool.nullable(e)
    }

    /// Per-shape lazy-DFA sizes: `(label, states, classes, filled
    /// transitions)` — the summary surfaced by `BENCH_dfa.json`.
    pub fn dfa_summary(&self) -> Vec<(String, usize, usize, usize)> {
        self.schema
            .shapes
            .iter()
            .zip(&self.dfas)
            .map(|(sh, d)| {
                (
                    sh.label.as_str().to_string(),
                    d.states(),
                    d.classes(),
                    d.filled(),
                )
            })
            .collect()
    }

    /// Validates every association of a shape map, returning per-entry
    /// outcomes: `(association index, conforms, meets expectation)`.
    /// Unknown shapes yield an error; focus nodes absent from the graph
    /// are checked against the empty neighbourhood.
    pub fn validate_map(
        &mut self,
        graph: &Graph,
        terms: &mut TermPool,
        map: &ShapeMap,
    ) -> Result<Vec<MapOutcome>, EngineError> {
        let mut queries = Vec::with_capacity(map.len());
        for assoc in map.iter() {
            let shape = self
                .schema
                .shape_id(&assoc.shape)
                .ok_or_else(|| EngineError::UnknownShape(assoc.shape.as_str().to_string()))?;
            queries.push((terms.intern_ref((&assoc.node).into()), shape));
        }
        let results = self.check_many(graph, terms, &queries);
        Ok(map
            .iter()
            .zip(results)
            .enumerate()
            .map(|(index, (assoc, result))| match result {
                Outcome::Exhausted(e) => MapOutcome {
                    index,
                    conforms: false,
                    as_expected: false,
                    failure: None,
                    exhaustion: Some(e),
                },
                outcome => MapOutcome {
                    index,
                    conforms: outcome.matched(),
                    as_expected: outcome.matched() == assoc.expected,
                    failure: outcome.into_failure(),
                    exhaustion: None,
                },
            })
            .collect())
    }

    /// Computes the shape typing of every subject in the graph against
    /// every shape in the schema — the paper's Example 2 workflow.
    ///
    /// Under a budget this is the paper's *total* typing weakened to a
    /// **partial typing**: each `(node, shape)` query gets the full budget,
    /// and a query that exhausts it is recorded in
    /// [`Typing::exhausted`] instead of poisoning the batch — every other
    /// pair's `Conforms`/`Fails` answer is unaffected.
    pub fn type_all(&mut self, graph: &Graph, terms: &TermPool) -> Typing {
        let queries: Vec<(TermId, ShapeId)> = graph
            .subjects()
            .flat_map(|node| (0..self.schema.shapes.len()).map(move |i| (node, ShapeId(i as u32))))
            .collect();
        let results = self.check_many(graph, terms, &queries);
        self.settle_diagnostics(graph, terms);
        let mut typing = Typing::new();
        for ((node, shape), result) in queries.into_iter().zip(results) {
            match result {
                Outcome::Conforms => typing.add(node, shape),
                Outcome::Fails(_) => {}
                Outcome::Exhausted(e) => typing.add_exhausted(node, shape, e),
            }
        }
        typing
    }

    /// Queries per worker per scheduler *epoch*. Verdicts circulate
    /// continuously through the publication log, so the epoch barrier
    /// only settles counters, DFA fills, and the coordinator memo.
    const EPOCH_CHUNK: usize = 256;

    /// Queries per work-stealing batch — the steal granularity. Small
    /// enough that a hub-heavy shard can be picked apart by idle peers,
    /// large enough that the deque CAS and publication-drain probes stay
    /// off the per-query path.
    const STEAL_BATCH: usize = 16;

    /// Parallel [`Engine::type_all`]: the same `subjects × shapes` query
    /// list, run in epochs by the work-stealing scheduler (DESIGN.md §5g)
    /// on `jobs` workers.
    ///
    /// Soundness follows the paper's greatest-fixpoint semantics: each
    /// `(node, shape)` answer is a property of the graph alone, so workers
    /// may compute them in any interleaving. Each worker owns a *private*
    /// memo / profile / derivative-memo shard seeded with a read-only
    /// snapshot of already **promoted unconditional** answers
    /// (`Proven`/`Failed`); conditional hypothesis state never crosses
    /// threads. Newly unconditional verdicts travel through one
    /// publication log: peers drain it mid-epoch, and this engine drains
    /// it at each epoch boundary, so the boundary costs O(new verdicts).
    /// The resulting [`Typing`] is deterministic and identical to the
    /// sequential [`Engine::type_all`] (under a budget, *which* pair trips
    /// first may differ — see `Typing::exhausted`).
    ///
    /// `jobs <= 1` (and trivially small runs) take the exact sequential
    /// path. The configured deadline, if any, additionally bounds
    /// wall-clock for the whole run via a shared [`RunGovernor`]. Each
    /// call replaces [`Metrics::waves`] with its own epoch records.
    pub fn type_all_par(&mut self, graph: &Graph, terms: &TermPool, jobs: usize) -> Typing {
        // Epoch records describe this call only: a resident engine must
        // not re-serialise every earlier run's.
        self.metrics.waves.clear();
        let queries: Vec<(TermId, ShapeId)> = graph
            .subjects()
            .flat_map(|node| (0..self.schema.shapes.len()).map(move |i| (node, ShapeId(i as u32))))
            .collect();
        let jobs = jobs.max(1);
        if jobs == 1 || queries.len() < 2 * jobs {
            return self.type_all(graph, terms);
        }
        let governor = RunGovernor::new(self.config.budget.deadline);
        // Expression ids are comparable across engines only within the
        // fork-time pool prefix: every worker's arena is a clone of this
        // one, so ids below `fork_len` mean the same node everywhere,
        // while later ids diverge per worker. DFA transition sharing is
        // restricted to that prefix.
        let fork_len = self.schema.pool.len();
        let mut workers: Vec<Engine> = (0..jobs).map(|_| self.fork_worker(&governor)).collect();
        // DFA transition log: prefix-valid transitions merged from worker
        // fill logs, named as `(shape, coordinator class id, src, dst)`
        // and re-seeded to the other workers at the next boundary (class
        // ids are translated through their masked bitsets, which are
        // engine-independent). `dfa_synced[w]` is worker w's mark.
        let mut dfa_log: Vec<(ShapeId, u32, ExprId, ExprId)> = Vec::new();
        let mut dfa_synced = vec![0usize; jobs];
        let mut results: Vec<Option<Outcome>> = vec![None; queries.len()];
        let has_recursion = self.schema.has_recursion;
        // Epoch-boundary merge discipline: every worker counter is folded
        // into this engine exactly once, as the delta accumulated since
        // the previous boundary. `snapshots` holds the per-worker records
        // the last boundary advanced to; workers left idle by a short
        // epoch contribute an empty delta.
        let mut snapshots = vec![Metrics::new(self.schema.shapes.len()); jobs];
        // Workers run on a shared executor when one is installed (the
        // server's request pool), else on a transient pool for this call
        // — either way threads are reused across every epoch of the run.
        let shared_exec = self.executor.clone();
        let transient_exec;
        let exec: &Executor = match &shared_exec {
            Some(e) => e.as_ref(),
            None => {
                transient_exec =
                    Executor::new(jobs, has_recursion.then_some(512 << 20), "shapex-par");
                &transient_exec
            }
        };
        // The calling thread may execute worker closures itself only when
        // its stack is known to be safe for them: pool threads carry the
        // big lazily-committed stack; a foreign caller joins in only for
        // recursion-free schemas.
        let participate = !has_recursion || exec.on_pool_thread();
        // The publication log is the only promotion channel: workers
        // drain it mid-epoch, this engine at each boundary. Every mark —
        // the workers' and `coordinator_mark` — survives across epochs.
        let publog: PubLog<Published> = PubLog::new();
        let mut pub_marks = vec![0usize; jobs];
        let mut coordinator_mark = 0usize;
        // Pairs promoted *during this run*, to split "answered from the
        // pre-run warm memo" from "skipped because an earlier epoch
        // already merged the answer" in the wave metrics.
        let mut run_promoted: FxHashSet<Pair> = FxHashSet::default();
        let window = jobs * Self::EPOCH_CHUNK;

        let mut next = 0;
        while next < queries.len() {
            let wave_end = (next + window).min(queries.len());
            // Answers already known are free; the commit sequencer below
            // records them straight into their query slot.
            let mut pending: Vec<usize> = Vec::new();
            let mut memo_answered = 0u64;
            let mut merged_answered = 0u64;
            for qi in next..wave_end {
                let (node, shape) = queries[qi];
                match self.memoised_answer(node, shape) {
                    Some(answer) => {
                        if run_promoted.contains(&(shape, node)) {
                            merged_answered += 1;
                        } else {
                            memo_answered += 1;
                        }
                        results[qi] = Some(answer);
                    }
                    None => pending.push(qi),
                }
            }
            let wave_queries = (wave_end - next) as u64;
            next = wave_end;
            if pending.is_empty() {
                self.metrics.waves.push(WaveMetrics {
                    queries: wave_queries,
                    memo_answered,
                    merged_answered,
                    ..WaveMetrics::default()
                });
                continue;
            }
            let wave_start = std::time::Instant::now();
            // Re-seed derivative transitions learned by peers: the worker
            // interns the class by its bits and the states by their
            // (prefix-shared) expression ids, then fills the cell without
            // logging it — a seed echoed back would bounce forever.
            if self.use_dfa() {
                for (worker, mark) in workers.iter_mut().zip(dfa_synced.iter_mut()) {
                    for &(shape, class, src, dst) in &dfa_log[*mark..] {
                        let bits = self.dfas[shape.index()].class_bits(class);
                        let wd = &mut worker.dfas[shape.index()];
                        let (wc, _) = wd.intern_class(bits);
                        let ws = wd.intern_state(src, self.schema.pool.nullable(src)).0;
                        let wdst = wd.intern_state(dst, self.schema.pool.nullable(dst)).0;
                        if wd.seed(ws, wc, wdst) {
                            worker.dfa_filled += 1;
                        }
                    }
                    *mark = dfa_log.len();
                }
            }
            // Contiguous shares preserve the sequential visit order within
            // each worker (memo locality on reference chains); each share
            // is further cut into batches so idle peers can take a loaded
            // worker's tail.
            let per = pending.len().div_ceil(jobs);
            let mut outs: Vec<Vec<(usize, Outcome)>> = (0..jobs).map(|_| Vec::new()).collect();
            let mut counters = vec![WorkerCounters::default(); jobs];
            let deques: Vec<BatchQueue> = (0..jobs)
                .map(|w| {
                    let lo = (w * per).min(pending.len());
                    let hi = ((w + 1) * per).min(pending.len());
                    let batches: Vec<Batch> = (lo..hi)
                        .step_by(Self::STEAL_BATCH)
                        .map(|s| Batch {
                            start: s as u32,
                            len: Self::STEAL_BATCH.min(hi - s) as u32,
                        })
                        .collect();
                    BatchQueue::new(&batches)
                })
                .collect();
            let deques = &deques;
            let publog = &publog;
            let pending = &pending[..];
            let queries = &queries[..];
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = workers
                .iter_mut()
                .zip(outs.iter_mut())
                .zip(counters.iter_mut())
                .zip(pub_marks.iter_mut())
                .enumerate()
                .map(|(w, (((worker, out), ctr), mark))| {
                    let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                        worker.steal_loop(
                            graph, terms, w, jobs, queries, pending, deques, publog, mark, out, ctr,
                        );
                    });
                    task
                })
                .collect();
            exec.run_tasks(tasks, participate);
            // Deterministic commit sequencer: whatever order workers
            // finished in, verdicts land in their query-index slot and the
            // final typing is assembled in query order below.
            for wave_results in &mut outs {
                for (qi, outcome) in wave_results.drain(..) {
                    results[qi] = Some(outcome);
                }
            }
            // Epoch boundary. Promote the verdicts published since the
            // last boundary — first publication wins, crediting its
            // worker — then merge DFA fill logs into the shared tables and
            // counter deltas into the run totals.
            let mut promoted = vec![0u64; jobs];
            publog.drain_from(&mut coordinator_mark, |v| {
                if let Entry::Vacant(slot) = self.memo.entry(v.pair) {
                    slot.insert(if v.proven {
                        MemoState::Proven
                    } else {
                        MemoState::Failed
                    });
                    if let Some(f) = &v.failure {
                        self.failures.insert(v.pair, f.clone());
                    }
                    run_promoted.insert(v.pair);
                    promoted[v.worker] += 1;
                }
            });
            let mut shards: Vec<ShardMetrics> = Vec::new();
            for w in 0..workers.len() {
                if self.use_dfa() {
                    let drained: Vec<Vec<Transition>> =
                        workers[w].dfas.iter_mut().map(ShapeDfa::take_log).collect();
                    for (si, entries) in drained.iter().enumerate() {
                        for t in entries {
                            // Only transitions wholly inside the shared
                            // pool prefix are meaningful engine-wide.
                            if t.src.index() >= fork_len || t.dst.index() >= fork_len {
                                continue;
                            }
                            let bits = workers[w].dfas[si].class_bits(t.class);
                            let my = &mut self.dfas[si];
                            let (c, _) = my.intern_class(bits);
                            let src = my.intern_state(t.src, self.schema.pool.nullable(t.src)).0;
                            let dst = my.intern_state(t.dst, self.schema.pool.nullable(t.dst)).0;
                            if my.seed(src, c, dst) {
                                self.dfa_filled += 1;
                                dfa_log.push((ShapeId(si as u32), c, t.src, t.dst));
                            }
                        }
                    }
                }
                let (now, prev) = (&workers[w].metrics, &mut snapshots[w]);
                let c = &counters[w];
                shards.push(ShardMetrics {
                    worker: w,
                    queries: c.executed,
                    stolen: c.stolen,
                    steals: c.steals,
                    steal_attempts: c.steal_attempts,
                    published: c.published,
                    drained: c.drained,
                    busy_us: c.busy_us,
                    idle_us: c.idle_us,
                    promoted: promoted[w],
                    budget_steps: now.budget_steps - prev.budget_steps,
                    derivative_steps: now.derivative_steps - prev.derivative_steps,
                });
                self.metrics.absorb_delta(prev, now);
                self.metrics.pool_high_water = self
                    .metrics
                    .pool_high_water
                    .max(workers[w].schema.pool.len());
                prev.clone_from(now);
            }
            self.metrics.waves.push(WaveMetrics {
                queries: wave_queries,
                memo_answered,
                merged_answered,
                dispatched: pending.len() as u64,
                steals: counters.iter().map(|c| c.steals).sum(),
                steal_attempts: counters.iter().map(|c| c.steal_attempts).sum(),
                published: counters.iter().map(|c| c.published).sum(),
                elapsed_us: wave_start.elapsed().as_micros().min(u64::MAX as u128) as u64,
                shards,
                ..WaveMetrics::default()
            });
        }
        // Run end: fold in the term-pure caches, the provisional
        // diagnostics and the dependency recordings once, so a later query
        // or `revalidate` sees what any shard learned.
        for worker in &mut workers {
            for (key, sat) in std::mem::take(&mut worker.value_sat) {
                self.value_sat.entry(key).or_insert(sat);
            }
            self.provisional.extend(worker.provisional.drain());
            if self.config.incremental {
                self.deps.absorb(std::mem::take(&mut worker.deps));
            }
        }
        self.settle_diagnostics(graph, terms);
        let mut typing = Typing::new();
        for (&(node, shape), result) in queries.iter().zip(results) {
            match result.expect("every query answered") {
                Outcome::Conforms => typing.add(node, shape),
                Outcome::Fails(_) => {}
                Outcome::Exhausted(e) => typing.add_exhausted(node, shape, e),
            }
        }
        typing
    }

    /// The work-stealing worker body for one epoch (DESIGN.md §5g).
    ///
    /// Worker `w` drains its own deque front-to-back (sequential order,
    /// memo locality); when dry it probes peers in the deterministic
    /// [`sched::steal_victim`] sequence and takes batches off their
    /// *backs* — the work the owner would reach last. Before each batch
    /// it merges every verdict its peers have published since its last
    /// drain (`or_insert`: a local answer is never overwritten), and
    /// after each query it publishes its own newly unconditional pairs.
    /// The loop ends only when every deque is empty, so each pending
    /// query is executed exactly once by exactly one worker.
    #[allow(clippy::too_many_arguments)]
    fn steal_loop(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        w: usize,
        jobs: usize,
        queries: &[(TermId, ShapeId)],
        pending: &[usize],
        deques: &[BatchQueue],
        publog: &PubLog<Published>,
        mark: &mut usize,
        out: &mut Vec<(usize, Outcome)>,
        ctr: &mut WorkerCounters,
    ) {
        self.publish = Some(Vec::new());
        loop {
            let (batch, stolen) = match deques[w].pop_front() {
                Some(b) => (b, false),
                None => {
                    let idle_start = std::time::Instant::now();
                    let mut got = None;
                    'steal: loop {
                        for attempt in 0..(2 * jobs as u64) {
                            let victim = sched::steal_victim(w, jobs, ctr.executed, attempt);
                            ctr.steal_attempts += 1;
                            if let Some(b) = deques[victim].steal_back() {
                                got = Some(b);
                                break 'steal;
                            }
                        }
                        if deques.iter().all(|d| d.remaining() == 0) {
                            break 'steal;
                        }
                        std::thread::yield_now();
                    }
                    ctr.idle_us += idle_start.elapsed().as_micros().min(u64::MAX as u128) as u64;
                    match got {
                        Some(b) => {
                            ctr.steals += 1;
                            (b, true)
                        }
                        None => break,
                    }
                }
            };
            // Merge peers' published verdicts before starting the batch:
            // free answers for everything that follows.
            ctr.drained += publog.drain_from(mark, |v| {
                self.memo.entry(v.pair).or_insert(if v.proven {
                    MemoState::Proven
                } else {
                    MemoState::Failed
                });
                if let Some(f) = &v.failure {
                    self.failures.entry(v.pair).or_insert_with(|| f.clone());
                }
            }) as u64;
            let busy_start = std::time::Instant::now();
            for i in batch.start..batch.start + batch.len {
                let qi = pending[i as usize];
                let (node, shape) = queries[qi];
                let outcome = match self.memoised_answer(node, shape) {
                    Some(answer) => answer,
                    None => self.gfp_run(graph, terms, node, shape),
                };
                out.push((qi, outcome));
                ctr.executed += 1;
                if stolen {
                    ctr.stolen += 1;
                }
                self.flush_published(publog, w, ctr);
            }
            ctr.busy_us += busy_start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        }
        self.publish = None;
    }

    /// Publishes every verdict buffered since the last flush. Buffered
    /// pairs are re-read from the memo at flush time: a pair whose query
    /// later exhausted is still publishable (unconditional inserts are
    /// never rolled back), anything not unconditional is skipped.
    fn flush_published(
        &mut self,
        publog: &PubLog<Published>,
        worker: usize,
        ctr: &mut WorkerCounters,
    ) {
        let buf = match &mut self.publish {
            Some(buf) if !buf.is_empty() => std::mem::take(buf),
            _ => return,
        };
        let entries: Vec<Published> = buf
            .iter()
            .filter_map(|&pair| {
                let proven = match self.memo.get(&pair) {
                    Some(MemoState::Proven) => true,
                    Some(MemoState::Failed) => false,
                    _ => return None,
                };
                let failure = if proven {
                    None
                } else {
                    self.failures.get(&pair).cloned()
                };
                Some(Published {
                    pair,
                    proven,
                    failure,
                    worker,
                })
            })
            .collect();
        ctr.published += publog.publish(entries) as u64;
    }

    /// Re-types the graph after a [`GraphDelta`] was applied to it,
    /// re-evaluating only the `(node, shape)` pairs the delta can disturb
    /// and answering everything else from the persistent memo — the
    /// resulting [`Typing`] is identical to a from-scratch
    /// [`Engine::type_all`] over the mutated graph.
    ///
    /// Requires [`EngineConfig::incremental`] (otherwise this degrades to
    /// [`Engine::reset`] plus a full re-typing). Call it with the
    /// *post-delta* graph; the delta tells the engine which triples
    /// changed. If the graph contradicts the delta — an added triple is
    /// absent, or a removed (and not re-added) triple is still present —
    /// the delta was never applied (or was applied to a different graph)
    /// and the call fails with [`EngineError::StaleDelta`] instead of
    /// serving answers from a stale dependency index. Applying the same
    /// delta twice is set-idempotent and therefore *not* detectable here.
    ///
    /// ```
    /// use shapex::{Engine, EngineConfig};
    /// use shapex::rdf::{delta, turtle};
    ///
    /// let schema = shapex::shex::shexc::parse(
    ///     "PREFIX e: <http://e/>\n<S> { e:p [1 2]+ }").unwrap();
    /// let mut ds = turtle::parse(
    ///     "@prefix e: <http://e/> . e:a e:p 1 . e:b e:p 3 .").unwrap();
    /// let mut engine = Engine::compile(&schema, &mut ds.pool, EngineConfig {
    ///     incremental: true,
    ///     ..EngineConfig::default()
    /// }).unwrap();
    /// let typing = engine.type_all(&ds.graph, &ds.pool);
    /// let b = ds.iri("http://e/b").unwrap();
    /// assert_eq!(typing.shapes_of(b).count(), 0);
    ///
    /// // Swap b's offending triple for a conforming one: only b's pair
    /// // is re-evaluated, a's answer is served from the memo.
    /// let d = delta::parse(
    ///     "@prefix e: <http://e/> .\n- e:b e:p 3 .\n+ e:b e:p 2 .\n",
    ///     &mut ds.pool).unwrap();
    /// ds.apply_delta(&d);
    /// let typing = engine.revalidate(&ds.graph, &ds.pool, &d).unwrap();
    /// assert_eq!(typing.shapes_of(b).count(), 1);
    /// assert_eq!(engine.stats().retyped_pairs, 1);
    /// assert_eq!(engine.stats().reused_pairs, 1);
    /// ```
    pub fn revalidate(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        delta: &GraphDelta,
    ) -> Result<Typing, EngineError> {
        self.revalidate_par(graph, terms, delta, 1)
    }

    /// [`Engine::revalidate`] with an explicit worker count: the dirty
    /// frontier is re-typed through [`Engine::type_all_par`]. With
    /// `jobs > 1` the invalidation plan (dependency-closure walk) is
    /// computed concurrently with the delta-applied check — the first
    /// stage of the pipelined revalidation path.
    pub fn revalidate_par(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        delta: &GraphDelta,
        jobs: usize,
    ) -> Result<Typing, EngineError> {
        if !self.config.incremental {
            self.check_delta_applied(graph, terms, delta)?;
            // No dependency index was recorded: the only sound move is to
            // drop every cache keyed against the old graph and start over.
            self.reset();
            return Ok(self.type_all_par(graph, terms, jobs));
        }
        let plan = if jobs > 1 {
            // The planner reads only the dependency index + delta; the
            // applied-check reads only the graph + delta. Disjoint reads,
            // so the two legs overlap safely.
            let this: &Engine = self;
            std::thread::scope(|s| {
                let planner = s.spawn(|| this.plan_invalidation(delta));
                let checked = this.check_delta_applied(graph, terms, delta);
                let plan = planner.join().expect("invalidation planner panicked");
                checked.map(|()| plan)
            })?
        } else {
            self.check_delta_applied(graph, terms, delta)?;
            self.plan_invalidation(delta)
        };
        Ok(self.revalidate_apply(graph, terms, plan, jobs))
    }

    /// [`Engine::revalidate_par`] with a caller-supplied
    /// [`InvalidationPlan`], for callers that computed the plan while the
    /// delta was still being applied to the graph (the server's `/delta`
    /// endpoint overlaps [`Engine::plan_invalidation`] with the dataset
    /// mutation). The delta-applied check still runs against the
    /// post-delta graph.
    pub fn revalidate_par_planned(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        delta: &GraphDelta,
        plan: InvalidationPlan,
        jobs: usize,
    ) -> Result<Typing, EngineError> {
        self.check_delta_applied(graph, terms, delta)?;
        if !self.config.incremental {
            self.reset();
            return Ok(self.type_all_par(graph, terms, jobs));
        }
        Ok(self.revalidate_apply(graph, terms, plan, jobs))
    }

    /// Purges the planned pairs, records reuse accounting, and re-types.
    fn revalidate_apply(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        plan: InvalidationPlan,
        jobs: usize,
    ) -> Typing {
        let invalidated = self.apply_invalidation(plan);
        // Reuse accounting over the post-delta query list, taken before
        // the typing run repopulates the memo.
        let mut reused = 0u64;
        let mut retyped = 0u64;
        for node in graph.subjects() {
            for i in 0..self.schema.shapes.len() {
                if self.memoised_answer(node, ShapeId(i as u32)).is_some() {
                    reused += 1;
                } else {
                    retyped += 1;
                }
            }
        }
        self.metrics.delta_invalidated += invalidated;
        self.metrics.delta_reused += reused;
        self.metrics.delta_retyped += retyped;
        self.type_all_par(graph, terms, jobs)
    }

    /// Seeds this engine's verdict memo from an engine that validated the
    /// *same graph and term pool* against a different schema, for the
    /// shapes named in `reusable` — the schema-delta counterpart of
    /// [`Engine::revalidate`]'s graph-delta reuse.
    ///
    /// Only unconditional verdicts move: `Proven`/`Failed` memo entries
    /// (with their failure diagnostics) plus the triple-dependency edges
    /// that lie entirely within the reusable set, remapped to this
    /// schema's shape ids. `Conditional` states are never copied — they
    /// embed coinductive assumptions local to the old run. Engine-local
    /// caches (profiles, derivative memos, DFA tables) stay cold; they are
    /// keyed by schema-local ids and rebuild on demand.
    ///
    /// Soundness rests on the caller's guarantee that every shape in
    /// `reusable` accepts the same language in both schemas *and* only
    /// references shapes that are themselves reusable — exactly what
    /// [`crate::calculus::SchemaDiff::reusable`] certifies (its `affected`
    /// closure walks reverse references). Returns the number of
    /// transplanted `(node, shape)` verdicts.
    pub fn transplant_verdicts(&mut self, old: &Engine, reusable: &[ShapeLabel]) -> usize {
        let mut remap: FxHashMap<ShapeId, ShapeId> = FxHashMap::default();
        for label in reusable {
            if let (Some(o), Some(n)) = (old.schema.shape_id(label), self.schema.shape_id(label)) {
                remap.insert(o, n);
            }
        }
        let mut moved = 0usize;
        for (&(shape, node), state) in &old.memo {
            let Some(&new_shape) = remap.get(&shape) else {
                continue;
            };
            match state {
                MemoState::Proven => {
                    self.memo.insert((new_shape, node), MemoState::Proven);
                }
                MemoState::Failed => {
                    self.memo.insert((new_shape, node), MemoState::Failed);
                    if let Some(f) = old.failures.get(&(shape, node)) {
                        self.failures.insert((new_shape, node), f.clone());
                    }
                }
                MemoState::Conditional(_) => continue,
            }
            moved += 1;
        }
        // Dependency edges survive only when both endpoints are reusable,
        // so a later *graph*-delta revalidation can still invalidate the
        // transplanted answers. Edges into affected shapes are dropped;
        // those pairs re-record when they are re-evaluated.
        if self.config.incremental {
            let remap_pair = |(s, n): Pair| remap.get(&s).map(|&ns| (ns, n));
            for (&node, pairs) in &old.deps.touched_out {
                let mapped: Vec<Pair> = pairs.iter().copied().filter_map(remap_pair).collect();
                if !mapped.is_empty() {
                    self.deps
                        .touched_out
                        .entry(node)
                        .or_default()
                        .extend(mapped);
                }
            }
            for (&node, pairs) in &old.deps.touched_in {
                let mapped: Vec<Pair> = pairs.iter().copied().filter_map(remap_pair).collect();
                if !mapped.is_empty() {
                    self.deps.touched_in.entry(node).or_default().extend(mapped);
                }
            }
            for (&pair, parents) in &old.deps.rdeps {
                let Some(p) = remap_pair(pair) else { continue };
                let mapped: Vec<Pair> = parents.iter().copied().filter_map(remap_pair).collect();
                if !mapped.is_empty() {
                    self.deps.rdeps.entry(p).or_default().extend(mapped);
                }
            }
        }
        self.metrics.delta_reused += moved as u64;
        moved
    }

    /// Cheap sanity check that `delta` was actually applied to `graph`:
    /// every added triple must be present, and every removed triple that
    /// the delta does not also re-add must be absent. O(|delta|) contains
    /// probes.
    fn check_delta_applied(
        &self,
        graph: &Graph,
        terms: &TermPool,
        delta: &GraphDelta,
    ) -> Result<(), EngineError> {
        let describe = |t: &shapex_rdf::Triple| {
            format!(
                "{} {} {}",
                terms.term(t.subject),
                terms.term(t.predicate),
                terms.term(t.object)
            )
        };
        for t in &delta.added {
            if !graph.contains(t) {
                return Err(EngineError::StaleDelta {
                    detail: format!("added triple missing from graph: {} .", describe(t)),
                });
            }
        }
        for t in &delta.removed {
            if delta.added.contains(t) {
                // Removed then re-added: net effect is presence, checked above.
                continue;
            }
            if graph.contains(t) {
                return Err(EngineError::StaleDelta {
                    detail: format!("removed triple still in graph: {} .", describe(t)),
                });
            }
        }
        Ok(())
    }

    /// Computes the set of memoised answers the delta can reach: the
    /// pairs that read a changed node's neighbourhood, closed
    /// transitively over the reverse shape-reference edges. Read-only —
    /// consults the dependency index and the delta, never the graph — so
    /// it can run concurrently with the delta being applied to the graph.
    /// Requires [`EngineConfig::incremental`] (without it the index is
    /// empty and the plan is trivially empty — callers on that path reset
    /// instead).
    pub fn plan_invalidation(&self, delta: &GraphDelta) -> InvalidationPlan {
        let mut dirty: FxHashSet<Pair> = FxHashSet::default();
        let mut work: Vec<Pair> = Vec::new();
        {
            let mut seed = |pairs: Option<&FxHashSet<Pair>>| {
                if let Some(pairs) = pairs {
                    for &p in pairs {
                        if dirty.insert(p) {
                            work.push(p);
                        }
                    }
                }
            };
            // A triple change is visible to pairs that read its subject's
            // outgoing arcs or its object's incoming arcs. Delta files
            // group triples by subject, so skipping adjacent repeats
            // collapses most probes; `touched_in` is populated only by
            // shapes with inverse arcs, so it is usually empty and the
            // object probes vanish entirely.
            let probe_objects = !self.deps.touched_in.is_empty();
            let mut last_subject = None;
            for t in delta.removed.iter().chain(delta.added.iter()) {
                if last_subject != Some(t.subject) {
                    last_subject = Some(t.subject);
                    seed(self.deps.touched_out.get(&t.subject));
                }
                if probe_objects {
                    seed(self.deps.touched_in.get(&t.object));
                }
            }
        }
        while let Some(pair) = work.pop() {
            if let Some(parents) = self.deps.rdeps.get(&pair) {
                for &q in parents {
                    if dirty.insert(q) {
                        work.push(q);
                    }
                }
            }
        }
        InvalidationPlan { dirty }
    }

    /// Purges every pair in the plan — memo, conditional residue, failure
    /// diagnostics — plus the stable profile entries whose other-end node
    /// had a pair invalidated, then opens a fresh run. Returns how many
    /// memoised answers were actually dropped.
    fn apply_invalidation(&mut self, plan: InvalidationPlan) -> u64 {
        let dirty = plan.dirty;
        let mut purged = 0u64;
        let mut dirty_nodes: FxHashSet<TermId> = FxHashSet::default();
        for &(shape, node) in &dirty {
            if self.memo.remove(&(shape, node)).is_some() {
                purged += 1;
            }
            self.conditional.remove(&(shape, node));
            self.failures.remove(&(shape, node));
            self.provisional.remove(&(shape, node));
            dirty_nodes.insert(node);
        }
        // Stable profile entries embed reference-arc answers about their
        // other-end node; any of those answers being dirty taints the
        // cached bits. Everything else the profile depends on (value
        // constraints) is term-pure and survives — so only keys at a
        // reference-capable head need purging, and those are removable
        // directly per dirty node instead of scanning the whole table.
        match &self.ref_heads {
            Some(heads) if heads.is_empty() => {}
            Some(heads) => {
                for &node in &dirty_nodes {
                    for &(shape, pred, inverse) in heads {
                        self.profile_stable.remove(&(shape, pred, node, inverse));
                    }
                }
            }
            None => {
                self.profile_stable
                    .retain(|&(_, _, other, _), _| !dirty_nodes.contains(&other));
            }
        }
        self.begin_run();
        purged
    }

    /// A worker engine for [`Engine::type_all_par`]: private copy of the
    /// compiled schema and arena, seeded with the unconditional slice of
    /// this engine's memo. Profile tables start empty — profile ids are
    /// interned per engine and must not be shared. DFA tables are forked
    /// as a snapshot of the coordinator's: class/state ids stay private,
    /// but already-filled transitions carry over, and fresh fills are
    /// logged so the epoch-boundary merge can promote them engine-wide.
    fn fork_worker(&self, governor: &Arc<RunGovernor>) -> Engine {
        Engine {
            schema: self.schema.clone(),
            config: self.config,
            memo: self
                .memo
                .iter()
                .filter(|(_, state)| matches!(state, MemoState::Proven | MemoState::Failed))
                .map(|(&pair, state)| (pair, state.clone()))
                .collect(),
            value_sat: self.value_sat.clone(),
            profile_stable: FxHashMap::default(),
            profile_by_triple: FxHashMap::default(),
            profile_ids: FxHashMap::default(),
            profile_bits: Vec::new(),
            profile_shape: Vec::new(),
            class_local: Vec::new(),
            dfas: self.dfas.iter().map(ShapeDfa::fork).collect(),
            dfa_filled: self.dfa_filled,
            conditional: HashSet::new(),
            in_progress: HashSet::new(),
            failures: self.failures.clone(),
            meter: BudgetMeter::default(),
            governor: Some(Arc::clone(governor)),
            metrics: Metrics::new(self.schema.shapes.len()),
            deps: TripleDeps::default(),
            dep_stack: Vec::new(),
            ref_heads: self.ref_heads.clone(),
            executor: None,
            publish: None,
            provisional: FxHashSet::default(),
            settling: None,
        }
    }

    /// Re-derives every provisional failure diagnostic from settled
    /// verdicts, so that a full typing's diagnostics — like its verdicts —
    /// are properties of the graph alone, identical at any `--jobs`.
    ///
    /// A failed pair's neighbourhood is evaluated again with every
    /// reference answered by its settled verdict. A reference without one
    /// (a non-subject pair dropped with a purged conditional) is settled
    /// by its own query first, then the evaluation repeats; settling
    /// queries can leave provisional diagnostics of their own, so passes
    /// repeat until none is left. This is diagnostic bookkeeping, not
    /// typing work: counters are left as they were. A pair whose
    /// re-evaluation exhausts its budget keeps its current diagnostic and
    /// stays provisional.
    fn settle_diagnostics(&mut self, graph: &Graph, terms: &TermPool) {
        if self.provisional.is_empty() {
            return;
        }
        let metrics = self.metrics.clone();
        let mut exhausted: FxHashSet<Pair> = FxHashSet::default();
        loop {
            let mut pending: Vec<Pair> = self
                .provisional
                .drain()
                .filter(|pair| !exhausted.contains(pair))
                .collect();
            if pending.is_empty() {
                break;
            }
            pending.sort_unstable();
            for (shape, node) in pending {
                if !matches!(self.memo.get(&(shape, node)), Some(MemoState::Failed)) {
                    continue;
                }
                loop {
                    self.begin_run();
                    self.meter = self.fresh_meter();
                    self.settling = Some(None);
                    let result =
                        self.match_neighbourhood(graph, terms, node, shape, &mut BTreeSet::new());
                    match (result, self.settling.take().flatten()) {
                        (_, Some((s, n))) => {
                            if let Outcome::Exhausted(_) = self.check_id(graph, terms, n, s) {
                                exhausted.insert((shape, node));
                                break;
                            }
                        }
                        (Ok(ok), None) => {
                            debug_assert!(!ok, "a settled re-evaluation flipped a failed verdict");
                            break;
                        }
                        (Err(_), None) => {
                            exhausted.insert((shape, node));
                            break;
                        }
                    }
                }
            }
        }
        self.provisional = exhausted;
        self.begin_run();
        self.metrics = metrics;
    }

    /// Discards run-scoped state before a (re)run: only the
    /// assumption-carrying profile entries and the in-progress set. The
    /// stable profile table, the interned profile ids, and the derivative
    /// memo survive — they reference nothing purgeable.
    fn begin_run(&mut self) {
        self.profile_by_triple.clear();
        self.in_progress.clear();
    }

    /// Removes conditional results whose assumptions failed (or were
    /// themselves purged). Returns how many entries were removed.
    fn purge_tainted(&mut self) -> usize {
        let mut removed = 0;
        loop {
            let tainted: Vec<Pair> = self
                .conditional
                .iter()
                .filter(|pair| {
                    let Some(MemoState::Conditional(deps)) = self.memo.get(pair) else {
                        return false;
                    };
                    deps.iter().any(|d| {
                        !matches!(
                            self.memo.get(d),
                            Some(MemoState::Proven) | Some(MemoState::Conditional(_))
                        )
                    })
                })
                .copied()
                .collect();
            if tainted.is_empty() {
                return removed;
            }
            removed += tainted.len();
            for pair in tainted {
                self.memo.remove(&pair);
                self.conditional.remove(&pair);
            }
        }
    }

    /// After a purge-free run, surviving conditional results form cycles of
    /// mutually-true assumptions — exactly the greatest fixpoint — so they
    /// are promoted to unconditional truths.
    fn promote_conditionals(&mut self) {
        for pair in self.conditional.drain() {
            if let Some(state) = self.memo.get_mut(&pair) {
                *state = MemoState::Proven;
                if let Some(buf) = &mut self.publish {
                    buf.push(pair);
                }
            }
        }
    }

    /// The typing relation: true iff `node` has shape `shape` given the
    /// current memo/assumption state. Records assumptions used in `deps`.
    ///
    /// Budgeting: memo hits and coinductive assumptions are free; an actual
    /// evaluation charges one step and one recursion level. On exhaustion
    /// the error propagates straight to [`Engine::gfp_run`], which owns the
    /// cleanup — `in_progress` entries left behind here are cleared there.
    fn check_inner(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        node: TermId,
        shape: ShapeId,
        deps: &mut BTreeSet<Pair>,
    ) -> Result<bool, Exhaustion> {
        let pair = (shape, node);
        if self.config.incremental {
            // Reverse reference edge: whoever is evaluating right now is
            // consuming this pair's answer — recorded before any of the
            // early returns below, so memo hits and coinductive
            // assumptions leave the same edge as a fresh evaluation.
            if let Some(&parent) = self.dep_stack.last() {
                if parent != pair {
                    self.deps.rdeps.entry(pair).or_default().insert(parent);
                }
            }
        }
        match self.memo.get(&pair) {
            Some(MemoState::Proven) => return Ok(true),
            Some(MemoState::Failed) => return Ok(false),
            Some(MemoState::Conditional(d)) => {
                deps.extend(d.iter().copied());
                return Ok(true);
            }
            None => {}
        }
        if let Some(unsettled) = &mut self.settling {
            // Park the first unsettled reference and answer as an open
            // assumption would: the caller settles it and evaluates again,
            // and `deps` keeps the guess out of the stable profile cache.
            unsettled.get_or_insert(pair);
            deps.insert(pair);
            return Ok(true);
        }
        if self.in_progress.contains(&pair) {
            // Γ{n→l}: the coinductive assumption (Fig. 3).
            deps.insert(pair);
            return Ok(true);
        }
        self.in_progress.insert(pair);
        self.metrics.node_checks += 1;
        self.meter.step()?;
        self.meter.enter_depth()?;
        let steps_before = self.metrics.derivative_steps;
        if self.config.incremental {
            // Neighbourhood read: this evaluation is about to consume the
            // node's outgoing arcs (and, for inverse-capable shapes, its
            // incoming arcs) — any triple change at either end must
            // invalidate this pair.
            self.deps.touched_out.entry(node).or_default().insert(pair);
            if self.schema.shape(shape).has_inverse {
                self.deps.touched_in.entry(node).or_default().insert(pair);
            }
            self.dep_stack.push(pair);
        }
        let mut local = BTreeSet::new();
        let result = self.match_neighbourhood(graph, terms, node, shape, &mut local);
        if self.config.incremental {
            self.dep_stack.pop();
        }
        self.meter.exit_depth();
        let ok = result?;
        let steps_after = self.metrics.derivative_steps;
        if let Some(sm) = self.metrics.per_shape.get_mut(shape.0 as usize) {
            sm.checks += 1;
            // Inclusive attribution: nested reference checks count
            // against the referencing shape too (and against their own).
            sm.derivative_steps += steps_after - steps_before;
            if ok {
                sm.conforms += 1;
            } else {
                sm.fails += 1;
            }
        }
        self.in_progress.remove(&pair);
        if !ok && !local.is_empty() {
            self.provisional.insert(pair);
        }
        // A self-dependency is discharged by this very completion.
        local.remove(&pair);
        if ok {
            if local.is_empty() {
                self.memo.insert(pair, MemoState::Proven);
                if let Some(buf) = &mut self.publish {
                    buf.push(pair);
                }
            } else {
                deps.extend(local.iter().copied());
                self.conditional.insert(pair);
                self.memo.insert(pair, MemoState::Conditional(local));
            }
            Ok(true)
        } else {
            // Failure is sound unconditionally: assumptions only make
            // matching more permissive (monotonicity).
            self.memo.insert(pair, MemoState::Failed);
            if let Some(buf) = &mut self.publish {
                buf.push(pair);
            }
            Ok(false)
        }
    }

    /// `Σg_n ∈ S_n[[δ(shape)]]` by iterated derivatives (§7).
    fn match_neighbourhood(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        node: TermId,
        shape: ShapeId,
        deps: &mut BTreeSet<Pair>,
    ) -> Result<bool, Exhaustion> {
        let (expr0, sorbe) = {
            let sh = self.schema.shape(shape);
            (
                sh.expr,
                if self.config.no_sorbe {
                    None
                } else {
                    sh.sorbe.clone()
                },
            )
        };
        let triples = self.gather_triples(graph, node, shape);

        if let Some(spec) = sorbe {
            return self.match_sorbe(graph, terms, node, shape, &spec, &triples, deps);
        }

        let mut e = expr0;
        for (p, other, inverse, ts, to) in triples {
            let pid = self.profile(graph, terms, shape, p, other, inverse, deps)?;
            let before = e;
            e = self.deriv(e, pid)?;
            if e == EMPTY {
                self.failures.insert(
                    (shape, node),
                    Failure {
                        kind: FailureKind::UnexpectedTriple {
                            subject: ts,
                            predicate: p,
                            object: to,
                        },
                        expectation: self.schema.render_expr(before),
                    },
                );
                return Ok(false);
            }
        }
        if self.nullable_of(shape, e) {
            Ok(true)
        } else {
            self.failures.insert(
                (shape, node),
                Failure {
                    kind: FailureKind::MissingRequired,
                    expectation: self.schema.render_expr(e),
                },
            );
            Ok(false)
        }
    }

    /// Gathers the triples a shape must account for at `node`:
    /// `(pred, other-end, inverse, subject, object)` — the last two are
    /// the original triple ends, kept for error reporting.
    fn gather_triples(
        &self,
        graph: &Graph,
        node: TermId,
        shape: ShapeId,
    ) -> Vec<(TermId, TermId, bool, TermId, TermId)> {
        let sh = self.schema.shape(shape);
        let mut triples = Vec::new();
        for &(p, o) in graph.neighbourhood(node) {
            let relevant = match (self.config.closure, &sh.forward_predicates) {
                (Closure::Closed, _) => true,
                (Closure::Open, None) => true, // wildcard: everything relevant
                (Closure::Open, Some(preds)) => preds.binary_search(&p).is_ok(),
            };
            if relevant {
                triples.push((p, o, false, node, o));
            }
        }
        if sh.has_inverse {
            // Inverse neighbourhoods are always scoped to the mentioned
            // predicates — a node is not responsible for arbitrary
            // incoming triples.
            for &(s, p) in graph.incoming(node) {
                let relevant = match &sh.inverse_predicates {
                    None => true,
                    Some(preds) => preds.binary_search(&p).is_ok(),
                };
                if relevant {
                    triples.push((p, s, true, s, node));
                }
            }
        }
        triples
    }

    /// Produces the paper's §7 derivative trace for `node` against
    /// `label`: the expression state before and after consuming each
    /// triple (Examples 9, 11, 12), always via the general derivative
    /// algorithm (the fast path has no intermediate states to show).
    /// Shape references are resolved with the full typing machinery.
    pub fn trace(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        node: TermId,
        label: &ShapeLabel,
    ) -> Result<Trace, EngineError> {
        let shape = self
            .schema
            .shape_id(label)
            .ok_or_else(|| EngineError::UnknownShape(label.as_str().to_string()))?;
        if self.schema.has_recursion {
            // Reference chains recurse with the data's depth; use the
            // large-stack worker like check_id does.
            return self
                .on_big_stack(|engine| engine.trace_inner(graph, terms, node, shape))
                .map_err(EngineError::from);
        }
        self.trace_inner(graph, terms, node, shape)
            .map_err(EngineError::from)
    }

    fn trace_inner(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        node: TermId,
        shape: ShapeId,
    ) -> Result<Trace, Exhaustion> {
        self.meter = self.fresh_meter();
        self.meter.set_arena_baseline(self.arena_units());
        self.begin_run();
        let result = self.trace_loop(graph, terms, node, shape);
        if result.is_err() {
            self.in_progress.clear();
            for pair in self.conditional.drain() {
                self.memo.remove(&pair);
            }
            self.metrics.exhausted_checks += 1;
        }
        self.fold_meter();
        result
    }

    fn trace_loop(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        node: TermId,
        shape: ShapeId,
    ) -> Result<Trace, Exhaustion> {
        let mut steps = Vec::new();
        let mut e = self.schema.shape(shape).expr;
        let mut deps = BTreeSet::new();
        for (p, other, inverse, ts, to) in self.gather_triples(graph, node, shape) {
            let before = self.schema.render_expr(e);
            let pid = self.profile(graph, terms, shape, p, other, inverse, &mut deps)?;
            e = self.deriv(e, pid)?;
            steps.push(TraceStep {
                subject: ts,
                predicate: p,
                object: to,
                inverse,
                before,
                after: self.schema.render_expr(e),
            });
            if e == EMPTY {
                break;
            }
        }
        let nullable = self.schema.pool.nullable(e);
        Ok(Trace {
            steps,
            residual: self.schema.render_expr(e),
            nullable,
            matched: e != EMPTY && nullable,
        })
    }

    /// The SORBE counting fast path (§8 future work, [`crate::sorbe`]):
    /// each triple belongs to at most one conjunct (heads are disjoint),
    /// so matching is bucket-count-and-check — no derivatives.
    #[allow(clippy::too_many_arguments)]
    fn match_sorbe(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        node: TermId,
        shape: ShapeId,
        spec: &[crate::compile::SorbeSpec],
        triples: &[(TermId, TermId, bool, TermId, TermId)],
        deps: &mut BTreeSet<Pair>,
    ) -> Result<bool, Exhaustion> {
        if let Some(sm) = self.metrics.per_shape.get_mut(shape.0 as usize) {
            sm.sorbe_checks += 1;
        }
        let mut counts = vec![0u32; spec.len()];
        for &(p, other, inverse, ts, to) in triples {
            // One step per triple: the fast path's unit of work.
            self.meter.step()?;
            let owner = spec.iter().position(|s| {
                let arc = self.schema.arc(s.arc);
                arc.inverse == inverse && arc.predicates.contains(p)
            });
            let Some(i) = owner else {
                // Closed semantics: a triple no conjunct accounts for.
                self.failures.insert(
                    (shape, node),
                    Failure {
                        kind: FailureKind::UnexpectedTriple {
                            subject: ts,
                            predicate: p,
                            object: to,
                        },
                        expectation: self.schema.render_expr(self.schema.shape(shape).expr),
                    },
                );
                return Ok(false);
            };
            let arc_id = spec[i].arc;
            if !self.arc_object_sat(graph, terms, arc_id, other, deps)? {
                self.failures.insert(
                    (shape, node),
                    Failure {
                        kind: FailureKind::UnexpectedTriple {
                            subject: ts,
                            predicate: p,
                            object: to,
                        },
                        expectation: self.schema.arc(arc_id).display.clone(),
                    },
                );
                return Ok(false);
            }
            counts[i] += 1;
        }
        for (s, &count) in spec.iter().zip(&counts) {
            if count < s.min || count > s.max {
                self.failures.insert(
                    (shape, node),
                    Failure {
                        kind: FailureKind::Cardinality {
                            arc: self.schema.arc(s.arc).display.clone(),
                            found: count,
                            min: s.min,
                            max: (s.max != UNBOUNDED).then_some(s.max),
                        },
                        expectation: self.schema.arc(s.arc).display.clone(),
                    },
                );
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Evaluates one arc's object condition against a term, memoising
    /// value constraints and routing shape references through the typing
    /// context.
    fn arc_object_sat(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        arc_id: ArcId,
        other: TermId,
        deps: &mut BTreeSet<Pair>,
    ) -> Result<bool, Exhaustion> {
        let target = {
            let arc = self.schema.arc(arc_id);
            match &arc.object {
                CompiledObject::Value(_) => None,
                CompiledObject::Ref(t) => Some(*t),
            }
        };
        match target {
            None => {
                if let Some(&cached) = self.value_sat.get(&(arc_id, other)) {
                    return Ok(cached);
                }
                let v = {
                    let CompiledObject::Value(c) = &self.schema.arc(arc_id).object else {
                        unreachable!("checked above");
                    };
                    c.matches(terms.term(other))
                };
                self.value_sat.insert((arc_id, other), v);
                Ok(v)
            }
            Some(target) => self.check_inner(graph, terms, other, target, deps),
        }
    }

    /// Maps a triple to its satisfaction-profile id (triple class) for
    /// `shape`, evaluating arc constraints as needed.
    #[allow(clippy::too_many_arguments)]
    fn profile(
        &mut self,
        graph: &Graph,
        terms: &TermPool,
        shape: ShapeId,
        pred: TermId,
        other: TermId,
        inverse: bool,
        deps: &mut BTreeSet<Pair>,
    ) -> Result<ProfileId, Exhaustion> {
        let key = (shape, pred, other, inverse);
        // A cached profile short-circuits the reference checks its
        // computation performed, so on *hits* the rdeps edges check_inner
        // would have recorded must be re-derived (they are a pure function
        // of the key). On a miss the evaluation below reaches check_inner
        // itself, which records them — no double bookkeeping, and flat
        // shapes (no reference arcs) skip the whole affair.
        let record_refs = self.config.incremental && self.schema.shape(shape).has_refs;
        self.metrics.profile_stable.lookups += 1;
        if let Some(&pid) = self.profile_stable.get(&key) {
            self.metrics.profile_stable.hits += 1;
            if record_refs {
                self.record_profile_ref_edges(shape, pred, other, inverse);
            }
            return Ok(pid);
        }
        // The assumption-carrying table is consulted only on a stable
        // miss, so its lookups count the stable fall-through exactly.
        self.metrics.profile_stable.misses += 1;
        self.metrics.profile_assumption.lookups += 1;
        if let Some((pid, cached_deps)) = self.profile_by_triple.get(&key) {
            let pid = *pid;
            deps.extend(cached_deps.iter().copied());
            self.metrics.profile_assumption.hits += 1;
            if record_refs {
                self.record_profile_ref_edges(shape, pred, other, inverse);
            }
            return Ok(pid);
        }
        self.metrics.profile_assumption.misses += 1;
        self.meter.step()?;
        // Only arcs whose head covers `(pred, inverse)` can set a bit —
        // the compile-time head index hands us exactly those instead of a
        // scan over every arc of the shape.
        let (n_arcs, candidates) = {
            let sh = self.schema.shape(shape);
            (
                sh.arcs.len(),
                sh.head_index
                    .candidates(pred, inverse)
                    .collect::<Vec<ArcId>>(),
            )
        };
        let m = &mut self.metrics;
        m.head_index_queries += 1;
        m.head_index_candidates += candidates.len() as u64;
        if let Some(sm) = m.per_shape.get_mut(shape.0 as usize) {
            sm.profiles_computed += 1;
        }
        let mut bits = vec![0u64; n_arcs.div_ceil(64)];
        let mut used: Vec<Pair> = Vec::new();
        for arc_id in candidates {
            let bit = self.schema.arc(arc_id).bit;
            let mut arc_deps = BTreeSet::new();
            let sat = self.arc_object_sat(graph, terms, arc_id, other, &mut arc_deps)?;
            used.extend(arc_deps.iter().copied());
            deps.extend(arc_deps);
            if sat {
                bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
            }
        }
        // Mask to the shape's alphabet classes: bits of arcs the compiled
        // expression cannot reach are invisible to every derivative, so
        // profiles differing only there are the same triple class. Masking
        // is a property of the class model, not of the lookup structure,
        // so it applies under `no_deriv_memo` too.
        for (b, m) in bits
            .iter_mut()
            .zip(self.schema.shape(shape).class_mask.iter())
        {
            *b &= m;
        }
        let bits: Box<[u64]> = bits.into();
        let next = ProfileId(self.profile_bits.len() as u32);
        let metrics = &mut self.metrics;
        let profile_bits = &mut self.profile_bits;
        let pid = *self
            .profile_ids
            .entry((shape, bits.clone()))
            .or_insert_with(|| {
                profile_bits.push(bits);
                metrics.triple_classes += 1;
                next
            });
        if pid == next {
            // Freshly interned: record the pid's shape and its dense
            // class id for the DFA layer (ids below `next` already have
            // their slots).
            self.profile_shape.push(shape);
            let class = if self.use_dfa() {
                let masked = &self.profile_bits[pid.0 as usize];
                let (c, fresh_class) = self.dfas[shape.index()].intern_class(masked);
                if fresh_class {
                    let classes = self.dfas[shape.index()].classes() as u64;
                    if let Some(d) = self.metrics.per_shape_dfa.get_mut(shape.0 as usize) {
                        d.classes = d.classes.max(classes);
                    }
                }
                c
            } else {
                0
            };
            self.class_local.push(class);
        }
        if used.is_empty() {
            // No open assumptions touched: a stable fact about the graph,
            // reusable by every later query and rerun.
            self.profile_stable.insert(key, pid);
        } else {
            used.sort();
            used.dedup();
            self.profile_by_triple.insert(key, (pid, used.into()));
        }
        Ok(pid)
    }

    /// Records the reverse reference edges a profile lookup implies: the
    /// currently evaluating pair consumed `(target, other)` for every
    /// reference arc whose head covers `(pred, inverse)`. Needed because
    /// profile cache hits (stable or assumption-carrying) skip the
    /// `check_inner` calls that would otherwise record these edges.
    fn record_profile_ref_edges(
        &mut self,
        shape: ShapeId,
        pred: TermId,
        other: TermId,
        inverse: bool,
    ) {
        let Some(&parent) = self.dep_stack.last() else {
            return;
        };
        // Disjoint field borrows: the schema is read while the dependency
        // index is written, so no intermediate collection is needed.
        let schema = &self.schema;
        let rdeps = &mut self.deps.rdeps;
        for arc_id in schema.shape(shape).head_index.candidates(pred, inverse) {
            if let CompiledObject::Ref(t) = &schema.arc(arc_id).object {
                let rp = (*t, other);
                if rp != parent {
                    rdeps.entry(rp).or_default().insert(parent);
                }
            }
        }
    }

    fn profile_bit(&self, pid: ProfileId, bit: u32) -> bool {
        let words = &self.profile_bits[pid.0 as usize];
        words[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
    }

    /// Interns `e` as a dense state of `shape`'s DFA, wiring the state
    /// metrics. Returns the state id.
    fn dfa_state(&mut self, shape: ShapeId, e: ExprId) -> u32 {
        let nullable = self.schema.pool.nullable(e);
        let (s, fresh) = self.dfas[shape.index()].intern_state(e, nullable);
        if fresh {
            let states = self.dfas[shape.index()].states() as u64;
            let m = &mut self.metrics;
            m.dfa_states += 1;
            if let Some(d) = m.per_shape_dfa.get_mut(shape.0 as usize) {
                d.states = d.states.max(states);
            }
        }
        s
    }

    /// `∂t(e)` with `t` abstracted to its triple class (§6 rules).
    ///
    /// Budgeting: one step per rule application (cache hits are free),
    /// and the arena cap is checked after the interleaving rule — the one
    /// rule whose `∂t(e1)‖e2 | ∂t(e2)‖e1` expansion can blow up the pool.
    ///
    /// Transitions are memoised in the dense lazy-DFA table, or not at
    /// all under the `no_deriv_memo` ablation.
    fn deriv(&mut self, e: ExprId, pid: ProfileId) -> Result<ExprId, Exhaustion> {
        // Where to record the computed transition, resolved by the probe.
        let slot = if !self.use_dfa() {
            None
        } else {
            let shape = self.profile_shape[pid.0 as usize];
            let class = self.class_local[pid.0 as usize];
            let src = self.dfa_state(shape, e);
            self.metrics.dfa_table.lookups += 1;
            if let Some(d) = self.dfas[shape.index()].target(src, class) {
                self.metrics.dfa_table.hits += 1;
                return Ok(d);
            }
            self.metrics.dfa_table.misses += 1;
            Some((shape, src, class))
        };
        self.metrics.derivative_steps += 1;
        self.meter.step()?;
        let d = match self.schema.pool.node(e) {
            // ∂t(∅) = ∅, ∂t(ε) = ∅
            Node::Empty | Node::Epsilon => EMPTY,
            // ∂t(vp→vo) = ε if the triple satisfies the arc, else ∅
            Node::Arc(a) => {
                let bit = self.schema.arc(a).bit;
                if self.profile_bit(pid, bit) {
                    EPSILON
                } else {
                    EMPTY
                }
            }
            // ∂t(e*) = ∂t(e) ‖ e*
            Node::Star(inner) => {
                let di = self.deriv(inner, pid)?;
                self.schema.pool.and(di, e)
            }
            // ∂t(e{m,n}) = ∂t(e) ‖ e{m⊖1, n−1} — the counter rule that
            // avoids the exponential §4 expansion.
            Node::Repeat(inner, m, n) => {
                if n == 0 {
                    EMPTY // only reachable with simplification disabled
                } else {
                    let di = self.deriv(inner, pid)?;
                    let n1 = if n == UNBOUNDED { UNBOUNDED } else { n - 1 };
                    let rest = self.schema.pool.repeat(inner, m.saturating_sub(1), n1);
                    self.schema.pool.and(di, rest)
                }
            }
            // ∂t(e1 ‖ e2) = ∂t(e1) ‖ e2 | ∂t(e2) ‖ e1
            Node::And(a, b) => {
                let da = self.deriv(a, pid)?;
                let db = self.deriv(b, pid)?;
                let left = self.schema.pool.and(da, b);
                let right = self.schema.pool.and(db, a);
                let d = self.schema.pool.or(left, right);
                let units = self.arena_units();
                self.meter.check_arena(units)?;
                d
            }
            // ∂t(e1 | e2) = ∂t(e1) | ∂t(e2)
            Node::Or(a, b) => {
                let da = self.deriv(a, pid)?;
                let db = self.deriv(b, pid)?;
                self.schema.pool.or(da, db)
            }
        };
        if let Some((shape, src, class)) = slot {
            shapex_rdf::failpoint::hit("dfa-fill");
            let dst = self.dfa_state(shape, d);
            if self.dfas[shape.index()].record(src, class, dst) {
                self.dfa_filled += 1;
            }
        }
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapex_rdf::graph::Dataset;
    use shapex_rdf::turtle;
    use shapex_shex::shexc;

    fn setup(schema_src: &str, data_src: &str) -> (Engine, Dataset) {
        let schema = shexc::parse(schema_src).unwrap();
        let mut ds = turtle::parse(data_src).unwrap();
        let engine = Engine::new(&schema, &mut ds.pool).unwrap();
        (engine, ds)
    }

    fn check(engine: &mut Engine, ds: &Dataset, node: &str, shape: &str) -> bool {
        let node = ds.iri(node).expect("node exists");
        engine
            .check(&ds.graph, &ds.pool, node, &shape.into())
            .unwrap()
            .matched
    }

    const EX5_SCHEMA: &str = "PREFIX e: <http://e/>\n<S> { e:a [1], e:b [1 2]* }";

    #[test]
    fn paper_example_11_accepts() {
        // e = a→1 ‖ b→{1,2}*  matches {⟨n,a,1⟩, ⟨n,b,1⟩, ⟨n,b,2⟩}
        let (mut engine, ds) = setup(EX5_SCHEMA, "@prefix e: <http://e/> . e:n e:a 1; e:b 1, 2 .");
        assert!(check(&mut engine, &ds, "http://e/n", "S"));
    }

    #[test]
    fn paper_example_12_rejects() {
        // {⟨n,a,1⟩, ⟨n,a,2⟩, ⟨n,b,1⟩}: second a-triple not allowed
        let (mut engine, ds) = setup(EX5_SCHEMA, "@prefix e: <http://e/> . e:n e:a 1, 2; e:b 1 .");
        let node = ds.iri("http://e/n").unwrap();
        let r = engine
            .check(&ds.graph, &ds.pool, node, &"S".into())
            .unwrap();
        assert!(!r.matched);
        let failure = r.failure.expect("failure explanation");
        // ⟨n,a,2⟩ is the triple the derivative rejects
        assert!(matches!(failure.kind, FailureKind::UnexpectedTriple { .. }));
        let msg = failure.render(&ds.pool);
        assert!(msg.contains("\"2\""), "{msg}");
    }

    #[test]
    fn empty_star_accepts_empty_neighbourhood() {
        let (mut engine, mut ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:b [1 2]* }",
            "@prefix e: <http://e/> . e:other e:x 1 .",
        );
        // A node with no triples at all: ν(b→{1,2}*) = true.
        let n = ds.pool.intern_iri("http://e/lonely");
        let r = engine.check(&ds.graph, &ds.pool, n, &"S".into()).unwrap();
        assert!(r.matched);
    }

    #[test]
    fn missing_required_arc_reports() {
        // EX5_SCHEMA is SORBE, so the counting fast path reports the
        // missing arc as a cardinality violation.
        let (mut engine, ds) = setup(
            EX5_SCHEMA,
            "@prefix e: <http://e/> . e:n e:b 1 .", // a→1 missing
        );
        let node = ds.iri("http://e/n").unwrap();
        let r = engine
            .check(&ds.graph, &ds.pool, node, &"S".into())
            .unwrap();
        assert!(!r.matched);
        let failure = r.failure.unwrap();
        assert!(
            matches!(
                failure.kind,
                FailureKind::Cardinality {
                    found: 0,
                    min: 1,
                    ..
                }
            ),
            "{failure:?}"
        );
        assert!(failure.expectation.contains("a→"));
    }

    #[test]
    fn missing_required_arc_reports_general_path() {
        // With the fast path disabled, the derivative engine reports the
        // residual non-nullable expectation instead.
        let schema = shexc::parse(EX5_SCHEMA).unwrap();
        let mut ds = turtle::parse("@prefix e: <http://e/> . e:n e:b 1 .").unwrap();
        let mut engine = Engine::compile(
            &schema,
            &mut ds.pool,
            EngineConfig {
                no_sorbe: true,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let node = ds.iri("http://e/n").unwrap();
        let r = engine
            .check(&ds.graph, &ds.pool, node, &"S".into())
            .unwrap();
        assert!(!r.matched);
        let failure = r.failure.unwrap();
        assert!(matches!(failure.kind, FailureKind::MissingRequired));
        assert!(failure.expectation.contains("a→"));
    }

    const PERSON_SCHEMA: &str = r#"
        PREFIX foaf: <http://xmlns.com/foaf/0.1/>
        PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
        <Person> {
          foaf:age xsd:integer
          , foaf:name xsd:string+
          , foaf:knows @<Person>*
        }
    "#;

    const PERSON_DATA: &str = r#"
        @prefix : <http://example.org/> .
        @prefix foaf: <http://xmlns.com/foaf/0.1/> .
        :john foaf:age 23;
              foaf:name "John";
              foaf:knows :bob .
        :bob foaf:age 34;
             foaf:name "Bob", "Robert" .
        :mary foaf:age 50, 65 .
    "#;

    #[test]
    fn paper_example_2_typing() {
        let (mut engine, ds) = setup(PERSON_SCHEMA, PERSON_DATA);
        assert!(check(&mut engine, &ds, "http://example.org/john", "Person"));
        assert!(check(&mut engine, &ds, "http://example.org/bob", "Person"));
        assert!(!check(
            &mut engine,
            &ds,
            "http://example.org/mary",
            "Person"
        ));
    }

    #[test]
    fn type_all_matches_example_2() {
        let (mut engine, ds) = setup(PERSON_SCHEMA, PERSON_DATA);
        let typing = engine.type_all(&ds.graph, &ds.pool);
        let person = engine.shape_id(&"Person".into()).unwrap();
        let john = ds.iri("http://example.org/john").unwrap();
        let bob = ds.iri("http://example.org/bob").unwrap();
        let mary = ds.iri("http://example.org/mary").unwrap();
        assert!(typing.has(john, person));
        assert!(typing.has(bob, person));
        assert!(!typing.has(mary, person));
        assert_eq!(typing.len(), 2);
    }

    #[test]
    fn recursive_cycle_validates_coinductively() {
        // a knows b, b knows a — both Persons under gfp semantics.
        let (mut engine, ds) = setup(
            PERSON_SCHEMA,
            r#"
            @prefix : <http://example.org/> .
            @prefix foaf: <http://xmlns.com/foaf/0.1/> .
            :a foaf:age 1; foaf:name "A"; foaf:knows :b .
            :b foaf:age 2; foaf:name "B"; foaf:knows :a .
            "#,
        );
        assert!(check(&mut engine, &ds, "http://example.org/a", "Person"));
        assert!(check(&mut engine, &ds, "http://example.org/b", "Person"));
    }

    #[test]
    fn broken_link_in_cycle_fails_both() {
        // a knows b, b knows c, c is not a person (no name) and c knows a.
        let (mut engine, ds) = setup(
            PERSON_SCHEMA,
            r#"
            @prefix : <http://example.org/> .
            @prefix foaf: <http://xmlns.com/foaf/0.1/> .
            :a foaf:age 1; foaf:name "A"; foaf:knows :b .
            :b foaf:age 2; foaf:name "B"; foaf:knows :c .
            :c foaf:age 3; foaf:knows :a .
            "#,
        );
        assert!(!check(&mut engine, &ds, "http://example.org/c", "Person"));
        assert!(!check(&mut engine, &ds, "http://example.org/b", "Person"));
        assert!(!check(&mut engine, &ds, "http://example.org/a", "Person"));
    }

    #[test]
    fn gfp_rerun_on_failed_assumption() {
        // Query :a first, so the assumption (:a, Person) is used by the
        // nested checks before :c's failure is discovered.
        let (mut engine, ds) = setup(
            PERSON_SCHEMA,
            r#"
            @prefix : <http://example.org/> .
            @prefix foaf: <http://xmlns.com/foaf/0.1/> .
            :a foaf:age 1; foaf:name "A"; foaf:knows :b .
            :b foaf:age 2; foaf:name "B"; foaf:knows :a, :c .
            :c foaf:age 3; foaf:knows :a .
            "#,
        );
        assert!(!check(&mut engine, &ds, "http://example.org/a", "Person"));
        // And the memoised verdicts stay consistent when re-queried.
        assert!(!check(&mut engine, &ds, "http://example.org/b", "Person"));
        assert!(!check(&mut engine, &ds, "http://example.org/c", "Person"));
    }

    #[test]
    fn self_loop_person() {
        let (mut engine, ds) = setup(
            PERSON_SCHEMA,
            r#"
            @prefix : <http://example.org/> .
            @prefix foaf: <http://xmlns.com/foaf/0.1/> .
            :n foaf:age 1; foaf:name "N"; foaf:knows :n .
            "#,
        );
        assert!(check(&mut engine, &ds, "http://example.org/n", "Person"));
    }

    #[test]
    fn cardinality_bounds_enforced() {
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:p .{2,3} }",
            r#"
            @prefix e: <http://e/> .
            e:one e:p 1 .
            e:two e:p 1, 2 .
            e:three e:p 1, 2, 3 .
            e:four e:p 1, 2, 3, 4 .
            "#,
        );
        assert!(!check(&mut engine, &ds, "http://e/one", "S"));
        assert!(check(&mut engine, &ds, "http://e/two", "S"));
        assert!(check(&mut engine, &ds, "http://e/three", "S"));
        assert!(!check(&mut engine, &ds, "http://e/four", "S"));
    }

    #[test]
    fn repeat_zero_zero_behaves_as_epsilon_on_every_path() {
        // e{0,0} ≡ ε: nullable, and a triple matching that arc is a
        // *closed*-shape violation, not a consumable arc — identically on
        // the SORBE fast path, the general derivative path, and with
        // simplification disabled (where Repeat(e,0,0) survives interning).
        for (name, config) in [
            ("sorbe", EngineConfig::default()),
            (
                "general",
                EngineConfig {
                    no_sorbe: true,
                    ..EngineConfig::default()
                },
            ),
            (
                "no-simplify",
                EngineConfig {
                    no_sorbe: true,
                    simplify: Simplify::none(),
                    ..EngineConfig::default()
                },
            ),
        ] {
            let schema =
                shexc::parse("PREFIX e: <http://e/>\n<S> { e:q [1], e:p .{0,0} }").unwrap();
            let mut ds =
                turtle::parse("@prefix e: <http://e/> . e:ok e:q 1 . e:bad e:q 1; e:p 5 .")
                    .unwrap();
            let mut engine = Engine::compile(&schema, &mut ds.pool, config).unwrap();
            let ok = ds.iri("http://e/ok").unwrap();
            let bad = ds.iri("http://e/bad").unwrap();
            assert!(
                engine
                    .check(&ds.graph, &ds.pool, ok, &"S".into())
                    .unwrap()
                    .matched,
                "{name}: zero occurrences of p{{0,0}} must satisfy"
            );
            assert!(
                !engine
                    .check(&ds.graph, &ds.pool, bad, &"S".into())
                    .unwrap()
                    .matched,
                "{name}: a p-triple must violate p{{0,0}}"
            );
        }
    }

    #[test]
    fn repeat_zero_one_is_optional() {
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:q [1], e:p .{0,1} }",
            "@prefix e: <http://e/> . e:none e:q 1 . e:one e:q 1; e:p 5 .\n\
             e:two e:q 1; e:p 5, 6 .",
        );
        assert!(check(&mut engine, &ds, "http://e/none", "S"));
        assert!(check(&mut engine, &ds, "http://e/one", "S"));
        assert!(!check(&mut engine, &ds, "http://e/two", "S"));
    }

    #[test]
    fn inverted_bounds_rejected_at_compile() {
        // {1,0} never reaches the arena's repeat() (whose debug_assert
        // would panic): programmatic schemas are rejected with a clear
        // error at compile time, mirroring the ShExC parse-time check.
        use shapex_shex::ast::{ArcConstraint, ShapeExpr};
        use shapex_shex::constraint::NodeConstraint;
        let schema = Schema::from_rules([(
            ShapeLabel::new("S"),
            ShapeExpr::Repeat(
                Box::new(ShapeExpr::arc(ArcConstraint::value(
                    "http://e/p",
                    NodeConstraint::Any,
                ))),
                1,
                Some(0),
            ),
        )])
        .unwrap();
        let mut terms = TermPool::new();
        let err = Engine::new(&schema, &mut terms).unwrap_err();
        let EngineError::Schema(SchemaError::InvalidBounds { min: 1, max: 0, .. }) = err else {
            panic!("expected InvalidBounds, got {err:?}");
        };
        assert!(err.to_string().contains("{1,0}"), "{err}");
    }

    #[test]
    fn closed_semantics_rejects_extra_triples() {
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:a [1] }",
            "@prefix e: <http://e/> . e:n e:a 1; e:other 2 .",
        );
        assert!(!check(&mut engine, &ds, "http://e/n", "S"));
    }

    #[test]
    fn open_semantics_ignores_unmentioned_predicates() {
        let schema = shexc::parse("PREFIX e: <http://e/>\n<S> { e:a [1] }").unwrap();
        let mut ds = turtle::parse("@prefix e: <http://e/> . e:n e:a 1; e:other 2 .").unwrap();
        let mut engine = Engine::compile(
            &schema,
            &mut ds.pool,
            EngineConfig {
                closure: Closure::Open,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let n = ds.iri("http://e/n").unwrap();
        assert!(
            engine
                .check(&ds.graph, &ds.pool, n, &"S".into())
                .unwrap()
                .matched
        );
    }

    #[test]
    fn inverse_arc_extension() {
        // Every Department must be pointed at by ≥1 worksIn triple.
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<Dept> { e:name LITERAL, ^e:worksIn IRI+ }",
            r#"
            @prefix e: <http://e/> .
            e:sales e:name "Sales" .
            e:ghost e:name "Ghost" .
            e:alice e:worksIn e:sales .
            e:bob e:worksIn e:sales .
            "#,
        );
        assert!(check(&mut engine, &ds, "http://e/sales", "Dept"));
        assert!(!check(&mut engine, &ds, "http://e/ghost", "Dept"));
    }

    #[test]
    fn or_alternatives() {
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:a [1] | e:b [2] }",
            r#"
            @prefix e: <http://e/> .
            e:x e:a 1 .
            e:y e:b 2 .
            e:z e:a 1; e:b 2 .
            "#,
        );
        assert!(check(&mut engine, &ds, "http://e/x", "S"));
        assert!(check(&mut engine, &ds, "http://e/y", "S"));
        // Or is exclusive over the whole neighbourhood under closed
        // semantics: z has both triples, neither alternative consumes both.
        assert!(!check(&mut engine, &ds, "http://e/z", "S"));
    }

    #[test]
    fn unknown_shape_is_an_error() {
        let (mut engine, ds) = setup(EX5_SCHEMA, "@prefix e: <http://e/> . e:n e:a 1 .");
        let n = ds.iri("http://e/n").unwrap();
        let err = engine
            .check(&ds.graph, &ds.pool, n, &"Nope".into())
            .unwrap_err();
        assert_eq!(err, EngineError::UnknownShape("Nope".into()));
    }

    #[test]
    fn memoisation_reuses_results() {
        let (mut engine, ds) = setup(PERSON_SCHEMA, PERSON_DATA);
        check(&mut engine, &ds, "http://example.org/john", "Person");
        let checks_before = engine.stats().node_checks;
        // Second query is fully memoised.
        check(&mut engine, &ds, "http://example.org/john", "Person");
        assert_eq!(engine.stats().node_checks, checks_before);
    }

    #[test]
    fn stats_count_sorbe_checks() {
        // EX5_SCHEMA qualifies for the SORBE fast path: no derivatives.
        let (mut engine, ds) = setup(EX5_SCHEMA, "@prefix e: <http://e/> . e:n e:a 1; e:b 1 .");
        check(&mut engine, &ds, "http://e/n", "S");
        let stats = engine.stats();
        assert_eq!(stats.derivative_steps, 0);
        assert!(stats.sorbe_checks > 0);
    }

    #[test]
    fn stats_count_derivative_steps() {
        // A shape with alternatives is not SORBE: the general engine runs.
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:a [1] | e:b [1 2]* }",
            "@prefix e: <http://e/> . e:n e:b 1 .",
        );
        check(&mut engine, &ds, "http://e/n", "S");
        let stats = engine.stats();
        assert!(stats.derivative_steps > 0);
        assert!(stats.expr_pool_size > 2);
        assert!(stats.triple_classes >= 1);
        assert_eq!(stats.sorbe_checks, 0);
    }

    #[test]
    fn reset_clears_state() {
        let (mut engine, ds) = setup(EX5_SCHEMA, "@prefix e: <http://e/> . e:n e:a 1 .");
        check(&mut engine, &ds, "http://e/n", "S");
        engine.reset();
        assert_eq!(engine.stats().derivative_steps, 0);
        // Still works after reset ({⟨n,a,1⟩} ∈ S_n[[e]], paper Example 7).
        assert!(check(&mut engine, &ds, "http://e/n", "S"));
    }

    #[test]
    fn reset_clears_stale_memos_across_graph_change() {
        // Regression: DFA tables / profile_stable persist across queries
        // for performance, so reset() MUST clear them. Validate against one
        // graph, extend the dataset so the same (shape, pred, object) key
        // now profiles differently, reset, and re-validate: a stale
        // derivative or stable-profile entry would replay the old verdict.
        let schema = shexc::parse(
            // An Or keeps the shape off the SORBE fast path so the
            // derivative memo is actually exercised.
            "PREFIX e: <http://e/>\n<S> { e:p @<T> | e:p @<T> }\n<T> { e:q [1]* }",
        )
        .unwrap();
        let mut ds = turtle::parse("@prefix e: <http://e/> . e:n e:p e:t . e:t e:q 1 .").unwrap();
        let mut engine = Engine::new(&schema, &mut ds.pool).unwrap();
        let n = ds.iri("http://e/n").unwrap();
        assert!(
            engine
                .check(&ds.graph, &ds.pool, n, &"S".into())
                .unwrap()
                .matched,
            "t conforms to <T>, so n conforms to <S>"
        );
        // Extend the graph: t gains e:q 2, which [1]* rejects — t no
        // longer conforms to <T>, so n must now fail <S>.
        turtle::parse_into("@prefix e: <http://e/> . e:t e:q 2 .", &mut ds).unwrap();
        engine.reset();
        assert!(
            !engine
                .check(&ds.graph, &ds.pool, n, &"S".into())
                .unwrap()
                .matched,
            "stale memo state survived reset()"
        );
    }

    #[test]
    fn reset_clears_dfa_tables_across_graph_change() {
        // Regression companion to the memo test above: with the lazy DFA
        // active (the default), reset() must also drop the per-shape
        // class maps and transition tables — a stale transition keyed by
        // a recycled profile id would replay the old graph's derivative.
        let schema =
            shexc::parse("PREFIX e: <http://e/>\n<S> { e:p @<T> | e:p @<T> }\n<T> { e:q [1]* }")
                .unwrap();
        let mut ds = turtle::parse("@prefix e: <http://e/> . e:n e:p e:t . e:t e:q 1 .").unwrap();
        let mut engine = Engine::new(&schema, &mut ds.pool).unwrap();
        let n = ds.iri("http://e/n").unwrap();
        assert!(
            engine
                .check(&ds.graph, &ds.pool, n, &"S".into())
                .unwrap()
                .matched
        );
        assert!(
            engine
                .dfa_summary()
                .iter()
                .any(|(_, s, c, f)| *s > 0 && *c > 0 && *f > 0),
            "the derivative run should have populated some shape's DFA: {:?}",
            engine.dfa_summary()
        );
        turtle::parse_into("@prefix e: <http://e/> . e:t e:q 2 .", &mut ds).unwrap();
        engine.reset();
        assert!(
            engine
                .dfa_summary()
                .iter()
                .all(|(_, s, c, f)| *s == 0 && *c == 0 && *f == 0),
            "reset() must clear DFA states, classes, and tables: {:?}",
            engine.dfa_summary()
        );
        assert!(
            !engine
                .check(&ds.graph, &ds.pool, n, &"S".into())
                .unwrap()
                .matched,
            "stale DFA transition survived reset()"
        );
    }

    fn setup_incremental(schema_src: &str, data_src: &str) -> (Engine, Dataset) {
        let schema = shexc::parse(schema_src).unwrap();
        let mut ds = turtle::parse(data_src).unwrap();
        let engine = Engine::compile(
            &schema,
            &mut ds.pool,
            EngineConfig {
                incremental: true,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        (engine, ds)
    }

    /// A fresh engine's from-scratch typing over the dataset's current
    /// graph — the ground truth incremental revalidation must reproduce.
    fn scratch_typing(schema_src: &str, ds: &mut Dataset) -> Typing {
        let schema = shexc::parse(schema_src).unwrap();
        let mut engine = Engine::new(&schema, &mut ds.pool).unwrap();
        engine.type_all(&ds.graph, &ds.pool)
    }

    const MARY_FIX_DELTA: &str = "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n\
        @prefix : <http://example.org/> .\n\
        - :mary foaf:age 65 .\n\
        + :mary foaf:name \"Mary\" .\n";

    #[test]
    fn reset_clears_dependency_index() {
        // Companion to the stale-memo reset regressions above: the
        // incremental dependency index and the dirty-tracking stack are
        // caches keyed against the old graph too.
        let (mut engine, ds) = setup_incremental(PERSON_SCHEMA, PERSON_DATA);
        engine.type_all(&ds.graph, &ds.pool);
        assert!(
            !engine.deps.is_empty(),
            "incremental typing must record dependencies"
        );
        assert!(
            engine.dep_stack.is_empty(),
            "the dep stack must drain between queries"
        );
        engine.reset();
        assert!(
            engine.deps.is_empty(),
            "reset() must clear the dependency index"
        );
        assert!(engine.dep_stack.is_empty());
        assert_eq!(engine.stats().invalidated_pairs, 0);
    }

    #[test]
    fn revalidate_agrees_with_scratch_on_recursive_schema() {
        let (mut engine, mut ds) = setup_incremental(PERSON_SCHEMA, PERSON_DATA);
        let before = engine.type_all(&ds.graph, &ds.pool);
        let mary = ds.iri("http://example.org/mary").unwrap();
        let john = ds.iri("http://example.org/john").unwrap();
        assert_eq!(before.shapes_of(mary).count(), 0);
        assert_eq!(before.shapes_of(john).count(), 1);

        let d = shapex_rdf::delta::parse(MARY_FIX_DELTA, &mut ds.pool).unwrap();
        ds.apply_delta(&d);
        let incremental = engine.revalidate(&ds.graph, &ds.pool, &d).unwrap();
        assert_eq!(incremental, scratch_typing(PERSON_SCHEMA, &mut ds));
        assert_eq!(incremental.shapes_of(mary).count(), 1);

        let stats = engine.stats();
        assert!(stats.invalidated_pairs >= 1, "{stats:?}");
        assert!(stats.retyped_pairs >= 1, "{stats:?}");
        assert!(
            stats.reused_pairs >= 1,
            "john and bob should be served from the memo: {stats:?}"
        );
    }

    #[test]
    fn revalidate_propagates_through_shared_profile_hits() {
        // n1 and n2 both reference t through an identical (pred, other)
        // triple, so n2's profile is served from the stable cache without
        // re-running the reference check. The dependency edge to (T, t)
        // must be re-derived on that hit: a delta at t has to dirty BOTH
        // referrers, not just the one that computed the profile.
        let (mut engine, mut ds) = setup_incremental(
            // The Or keeps the shape off the SORBE fast path, forcing the
            // profile/derivative machinery.
            "PREFIX e: <http://e/>\n<S> { e:p @<T> | e:p @<T> }\n<T> { e:q [1]* }",
            "@prefix e: <http://e/> . e:n1 e:p e:t . e:n2 e:p e:t . e:t e:q 1 .",
        );
        let before = engine.type_all(&ds.graph, &ds.pool);
        let n1 = ds.iri("http://e/n1").unwrap();
        let n2 = ds.iri("http://e/n2").unwrap();
        assert_eq!(before.shapes_of(n1).count(), 1);
        assert_eq!(before.shapes_of(n2).count(), 1);

        // t gains e:q 2, which [1]* rejects: t stops conforming to <T>,
        // so n1 AND n2 must stop conforming to <S>.
        let d = shapex_rdf::delta::parse("@prefix e: <http://e/> .\n+ e:t e:q 2 .\n", &mut ds.pool)
            .unwrap();
        ds.apply_delta(&d);
        let incremental = engine.revalidate(&ds.graph, &ds.pool, &d).unwrap();
        assert_eq!(incremental.shapes_of(n1).count(), 0);
        assert_eq!(
            incremental.shapes_of(n2).count(),
            0,
            "the stable-profile hit's reference dependency was not re-derived"
        );
        assert_eq!(
            incremental,
            scratch_typing(
                "PREFIX e: <http://e/>\n<S> { e:p @<T> | e:p @<T> }\n<T> { e:q [1]* }",
                &mut ds
            )
        );
    }

    #[test]
    fn revalidate_par_agrees_with_scratch() {
        let (mut engine, mut ds) = setup_incremental(PERSON_SCHEMA, PERSON_DATA);
        engine.type_all_par(&ds.graph, &ds.pool, 4);
        let d = shapex_rdf::delta::parse(MARY_FIX_DELTA, &mut ds.pool).unwrap();
        ds.apply_delta(&d);
        let incremental = engine.revalidate_par(&ds.graph, &ds.pool, &d, 4).unwrap();
        assert_eq!(incremental, scratch_typing(PERSON_SCHEMA, &mut ds));
    }

    #[test]
    fn empty_delta_retypes_nothing() {
        let (mut engine, ds) = setup_incremental(PERSON_SCHEMA, PERSON_DATA);
        let before = engine.type_all(&ds.graph, &ds.pool);
        let node_checks = engine.stats().node_checks;
        let after = engine
            .revalidate(&ds.graph, &ds.pool, &GraphDelta::new())
            .unwrap();
        assert_eq!(before, after);
        let stats = engine.stats();
        assert_eq!(stats.invalidated_pairs, 0);
        assert_eq!(stats.retyped_pairs, 0);
        assert_eq!(stats.reused_pairs, 3, "john, bob, mary × <Person>");
        assert_eq!(
            stats.node_checks, node_checks,
            "an empty delta must not re-evaluate anything"
        );
    }

    #[test]
    fn revalidate_without_incremental_resets_and_recomputes() {
        let (mut engine, mut ds) = setup(PERSON_SCHEMA, PERSON_DATA);
        engine.type_all(&ds.graph, &ds.pool);
        let d = shapex_rdf::delta::parse(MARY_FIX_DELTA, &mut ds.pool).unwrap();
        ds.apply_delta(&d);
        let typing = engine.revalidate(&ds.graph, &ds.pool, &d).unwrap();
        assert_eq!(typing, scratch_typing(PERSON_SCHEMA, &mut ds));
        let stats = engine.stats();
        assert_eq!(
            (
                stats.invalidated_pairs,
                stats.retyped_pairs,
                stats.reused_pairs
            ),
            (0, 0, 0),
            "the fallback path is a plain reset + full re-typing"
        );
    }

    #[test]
    fn revalidate_handles_subject_additions_and_removals() {
        let (mut engine, mut ds) = setup_incremental(PERSON_SCHEMA, PERSON_DATA);
        engine.type_all(&ds.graph, &ds.pool);
        // Remove every triple of mary (she vanishes from the typing
        // universe) and introduce a brand-new conforming subject.
        let d = shapex_rdf::delta::parse(
            "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n\
             @prefix : <http://example.org/> .\n\
             - :mary foaf:age 50 .\n\
             - :mary foaf:age 65 .\n\
             + :new foaf:age 1 .\n\
             + :new foaf:name \"New\" .\n",
            &mut ds.pool,
        )
        .unwrap();
        ds.apply_delta(&d);
        let incremental = engine.revalidate(&ds.graph, &ds.pool, &d).unwrap();
        assert_eq!(incremental, scratch_typing(PERSON_SCHEMA, &mut ds));
        let new = ds.iri("http://example.org/new").unwrap();
        let mary = ds.iri("http://example.org/mary").unwrap();
        assert_eq!(incremental.shapes_of(new).count(), 1);
        assert_eq!(incremental.shapes_of(mary).count(), 0);
    }

    #[test]
    fn alphabet_classes_refine_overlapping_predicate_sets() {
        // Two arcs share the predicate e:p but differ on the object
        // constraint. Triples satisfying both arcs must land in one
        // class; triples satisfying only the unconstrained arc in
        // another — the class partition refines by satisfaction, not by
        // predicate.
        let schema = shexc::parse("PREFIX e: <http://e/>\n<S> { e:p . , e:p [1 2] }").unwrap();
        let mut ds =
            turtle::parse("@prefix e: <http://e/> . e:n e:p 1, 2 . e:n e:p \"x\" .").unwrap();
        let mut engine = Engine::compile(
            &schema,
            &mut ds.pool,
            EngineConfig {
                no_sorbe: true, // keep the counting fast path out of the way
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let n = ds.iri("http://e/n").unwrap();
        engine.check(&ds.graph, &ds.pool, n, &"S".into()).unwrap();
        let (_, states, classes, filled) = engine.dfa_summary().remove(0);
        assert_eq!(
            classes, 2,
            "1 and 2 satisfy both arcs (one class); \"x\" only the wildcard arc (second class)"
        );
        assert!(
            states >= 2,
            "initial expression plus at least one derivative"
        );
        assert!(filled >= 1, "at least one transition computed");
    }

    #[test]
    fn type_all_par_matches_sequential_on_person_data() {
        let (mut seq, ds) = setup(PERSON_SCHEMA, PERSON_DATA);
        let sequential = seq.type_all(&ds.graph, &ds.pool);
        for jobs in [2, 4, 8] {
            let schema = shexc::parse(PERSON_SCHEMA).unwrap();
            let mut ds2 = turtle::parse(PERSON_DATA).unwrap();
            let mut par = Engine::new(&schema, &mut ds2.pool).unwrap();
            let parallel = par.type_all_par(&ds2.graph, &ds2.pool, jobs);
            assert_eq!(sequential, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn type_all_par_jobs_1_is_sequential() {
        let (mut a, ds) = setup(PERSON_SCHEMA, PERSON_DATA);
        let (mut b, _) = setup(PERSON_SCHEMA, PERSON_DATA);
        assert_eq!(
            a.type_all(&ds.graph, &ds.pool),
            b.type_all_par(&ds.graph, &ds.pool, 1)
        );
    }

    #[test]
    fn failure_diagnostics_do_not_depend_on_query_order() {
        // On a cyclic network, which triple a failure names depends on
        // what was still assumed when the pair was evaluated. Checking
        // the nodes in reverse order first changes that; the settled
        // diagnostics after a full typing must not change.
        let w = shapex_workloads::person_network(
            60,
            shapex_workloads::Topology::Random { degree: 2 },
            0.3,
            5,
        );
        let schema = shexc::parse(&w.schema).unwrap();
        let mut ds = w.dataset;
        let mut forward = Engine::new(&schema, &mut ds.pool).unwrap();
        let typing = forward.type_all(&ds.graph, &ds.pool);
        let person = forward.shape_id(&ShapeLabel::new("Person")).unwrap();
        let mut reverse = Engine::new(&schema, &mut ds.pool).unwrap();
        let mut nodes: Vec<TermId> = ds.graph.subjects().collect();
        nodes.reverse();
        let queries: Vec<_> = nodes.iter().map(|&n| (n, person)).collect();
        reverse.check_many(&ds.graph, &ds.pool, &queries);
        assert!(
            !reverse.provisional.is_empty(),
            "the reverse order should leave assumption-dependent diagnostics"
        );
        assert_eq!(reverse.type_all(&ds.graph, &ds.pool), typing);
        assert!(reverse.provisional.is_empty());
        assert_eq!(reverse.settled(), forward.settled());
    }

    #[test]
    fn settling_resolves_a_dropped_non_subject_reference() {
        // (n, P) fails on `e:x 2` while (m, Q) — m is no subject, so no
        // query of its own — is still assumed true through the cycle
        // P → Q → P. Failing n purges the conditional (m, Q), so the
        // settled diagnostic needs (m, Q) decided first; settled, it fails,
        // and the diagnostic names the `e:p` triple (the first in order
        // that fails) instead of whatever was reached under the
        // assumption.
        let schema = "PREFIX e: <http://e/>\n\
                      <P> { e:p @<Q>, e:x [1] }\n\
                      <Q> { ^e:p @<P> }";
        let data = "@prefix e: <http://e/> . e:n e:p e:m ; e:x 2 .";
        let (mut seq, ds) = setup(schema, data);
        let typing = seq.type_all(&ds.graph, &ds.pool);
        let n = ds.iri("http://e/n").unwrap();
        let m = ds.iri("http://e/m").unwrap();
        let p = seq.shape_id(&ShapeLabel::new("P")).unwrap();
        let q = seq.shape_id(&ShapeLabel::new("Q")).unwrap();
        assert!(!typing.has(n, p));
        assert!(matches!(seq.memo.get(&(q, m)), Some(MemoState::Failed)));
        let failure = seq.failures.get(&(p, n)).unwrap().render(&ds.pool);
        assert!(failure.contains("http://e/m"), "{failure}");
        assert!(seq.provisional.is_empty());
    }

    #[test]
    fn type_all_par_recursive_network() {
        // A cyclic knows-network: coinductive answers must merge across
        // waves without leaking conditional state between workers.
        let w = shapex_workloads::person_network(
            300,
            shapex_workloads::Topology::Random { degree: 2 },
            0.2,
            11,
        );
        let schema = shexc::parse(&w.schema).unwrap();
        let mut ds = w.dataset;
        let mut seq = Engine::new(&schema, &mut ds.pool).unwrap();
        let sequential = seq.type_all(&ds.graph, &ds.pool);
        let mut par = Engine::new(&schema, &mut ds.pool).unwrap();
        let parallel = par.type_all_par(&ds.graph, &ds.pool, 4);
        assert_eq!(sequential, parallel);
        // And the parallel engine's merged memo answers follow-up queries.
        let first = ds.iri(&w.focus[0]).unwrap();
        let person = par.shape_id(&ShapeLabel::new("Person")).unwrap();
        assert_eq!(
            par.check_id(&ds.graph, &ds.pool, first, person).matched(),
            sequential.has(first, person)
        );
    }

    #[test]
    fn type_all_par_shared_deadline_bounds_whole_run() {
        // A zero deadline through the shared governor: every pair either
        // exhausts or answers from trivial work; the run terminates fast
        // and reports exhaustion rather than hanging.
        let w = shapex_workloads::person_network(200, shapex_workloads::Topology::Chain, 0.0, 3);
        let schema = shexc::parse(&w.schema).unwrap();
        let mut ds = w.dataset;
        let mut engine = Engine::new(&schema, &mut ds.pool).unwrap();
        engine.set_budget(Budget::UNLIMITED.with_deadline(std::time::Duration::ZERO));
        let typing = engine.type_all_par(&ds.graph, &ds.pool, 4);
        assert!(typing.is_partial(), "zero deadline must exhaust something");
    }

    #[test]
    fn ablation_configs_agree_on_results() {
        for config in [
            EngineConfig::default(),
            EngineConfig {
                no_deriv_memo: true,
                ..EngineConfig::default()
            },
            EngineConfig {
                simplify: Simplify {
                    identities: true,
                    or_dedup: false,
                },
                ..EngineConfig::default()
            },
        ] {
            let schema = shexc::parse(PERSON_SCHEMA).unwrap();
            let mut ds = turtle::parse(PERSON_DATA).unwrap();
            let mut engine = Engine::compile(&schema, &mut ds.pool, config).unwrap();
            let person = "Person".into();
            let john = ds.iri("http://example.org/john").unwrap();
            let mary = ds.iri("http://example.org/mary").unwrap();
            assert!(
                engine
                    .check(&ds.graph, &ds.pool, john, &person)
                    .unwrap()
                    .matched
            );
            assert!(
                !engine
                    .check(&ds.graph, &ds.pool, mary, &person)
                    .unwrap()
                    .matched
            );
        }
    }

    #[test]
    fn example_10_balanced_expression() {
        // e = (a→{1,2} | b→{1,2})* requires equal counts is wrong — the
        // paper's point is only that derivatives may *grow*; the expression
        // accepts any mix of a/b arcs with values in {1,2}.
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { (e:a [1 2] | e:b [1 2])* }",
            r#"
            @prefix e: <http://e/> .
            e:n e:a 1, 2; e:b 1, 2 .
            e:m e:a 1; e:c 9 .
            "#,
        );
        assert!(check(&mut engine, &ds, "http://e/n", "S"));
        assert!(!check(&mut engine, &ds, "http://e/m", "S"));
    }

    #[test]
    fn literal_object_can_match_empty_shape() {
        // A shape with only optional arcs is satisfied by literals (their
        // neighbourhood is empty).
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:p @<T> }\n<T> { e:q .* }",
            "@prefix e: <http://e/> . e:n e:p 42 .",
        );
        assert!(check(&mut engine, &ds, "http://e/n", "S"));
    }

    #[test]
    fn wildcard_predicate_arc() {
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { . LITERAL+ }",
            r#"
            @prefix e: <http://e/> .
            e:x e:p 1; e:q "s" .
            e:y e:p e:z .
            "#,
        );
        assert!(check(&mut engine, &ds, "http://e/x", "S"));
        assert!(!check(&mut engine, &ds, "http://e/y", "S"));
    }

    #[test]
    fn validate_map_outcomes() {
        let (mut engine, mut ds) = setup(PERSON_SCHEMA, PERSON_DATA);
        let map = shapex_shex::shapemap::parse(
            "<http://example.org/john>@<Person>,\n\
             <http://example.org/mary>@!<Person>,\n\
             <http://example.org/mary>@<Person>,\n\
             <http://example.org/unknown>@!<Person>",
        )
        .unwrap();
        let outcomes = engine.validate_map(&ds.graph, &mut ds.pool, &map).unwrap();
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes[0].conforms && outcomes[0].as_expected);
        assert!(!outcomes[1].conforms && outcomes[1].as_expected);
        assert!(!outcomes[2].conforms && !outcomes[2].as_expected);
        assert!(outcomes[2].failure.is_some());
        // Unknown node: empty neighbourhood fails the Person shape.
        assert!(!outcomes[3].conforms && outcomes[3].as_expected);
    }

    #[test]
    fn validate_map_unknown_shape_errors() {
        let (mut engine, mut ds) = setup(PERSON_SCHEMA, PERSON_DATA);
        let map = shapex_shex::shapemap::parse("<http://e/x>@<Nope>").unwrap();
        assert!(matches!(
            engine.validate_map(&ds.graph, &mut ds.pool, &map),
            Err(EngineError::UnknownShape(_))
        ));
    }

    #[test]
    fn blank_node_focus() {
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:p [1] }",
            "@prefix e: <http://e/> . _:b e:p 1 .",
        );
        let node = ds.node(&shapex_rdf::Term::blank("b")).unwrap();
        assert!(
            engine
                .check(&ds.graph, &ds.pool, node, &"S".into())
                .unwrap()
                .matched
        );
    }

    #[test]
    fn literal_focus_node_against_empty_shape() {
        let (mut engine, mut ds) = setup(
            "PREFIX e: <http://e/>\n<E> { }\n<R> { e:p . }",
            "@prefix e: <http://e/> . e:x e:p 1 .",
        );
        let lit = ds
            .pool
            .intern(shapex_rdf::Term::Literal(shapex_rdf::Literal::integer(1)));
        // A literal has no outgoing triples: matches ε, fails required arcs.
        assert!(
            engine
                .check(&ds.graph, &ds.pool, lit, &"E".into())
                .unwrap()
                .matched
        );
        assert!(
            !engine
                .check(&ds.graph, &ds.pool, lit, &"R".into())
                .unwrap()
                .matched
        );
    }

    #[test]
    fn deep_recursion_chain() {
        // A 20000-link knows-chain: far beyond the default test-thread
        // stack — exercises the large-stack validation worker.
        let w = shapex_workloads::person_network(20_000, shapex_workloads::Topology::Chain, 0.0, 7);
        let schema = shexc::parse(&w.schema).unwrap();
        let mut ds = w.dataset;
        let mut engine = Engine::new(&schema, &mut ds.pool).unwrap();
        let first = ds.iri(&w.focus[0]).unwrap();
        assert!(
            engine
                .check(&ds.graph, &ds.pool, first, &ShapeLabel::new("Person"))
                .unwrap()
                .matched
        );
    }

    #[test]
    fn multiple_shapes_per_node() {
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<HasP> { e:p ., e:q .* }\n<HasQ> { e:q ., e:p .* }",
            "@prefix e: <http://e/> . e:x e:p 1; e:q 2 .",
        );
        let typing = engine.type_all(&ds.graph, &ds.pool);
        let x = ds.iri("http://e/x").unwrap();
        assert_eq!(typing.shapes_of(x).count(), 2);
    }

    #[test]
    fn sorbe_and_general_disagreement_guard_on_duplicate_values() {
        // A SORBE shape whose value constraint rejects one of two triples:
        // both paths must fail identically.
        let schema = shexc::parse("PREFIX e: <http://e/>\n<S> { e:p [1 2]{2} }").unwrap();
        let mut ds = turtle::parse("@prefix e: <http://e/> . e:n e:p 1, 3 .").unwrap();
        for no_sorbe in [false, true] {
            let mut engine = Engine::compile(
                &schema,
                &mut ds.pool,
                EngineConfig {
                    no_sorbe,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            let n = ds.iri("http://e/n").unwrap();
            assert!(
                !engine
                    .check(&ds.graph, &ds.pool, n, &"S".into())
                    .unwrap()
                    .matched
            );
        }
    }

    #[test]
    fn trace_reproduces_example_11() {
        // a→[1] ‖ b→.* over {⟨n,a,1⟩, ⟨n,b,1⟩, ⟨n,b,2⟩}: three steps,
        // residual nullable, matches.
        let (mut engine, ds) = setup(EX5_SCHEMA, "@prefix e: <http://e/> . e:n e:a 1; e:b 1, 2 .");
        let node = ds.iri("http://e/n").unwrap();
        let trace = engine
            .trace(&ds.graph, &ds.pool, node, &"S".into())
            .unwrap();
        assert_eq!(trace.steps.len(), 3);
        assert!(trace.matched);
        assert!(trace.nullable);
        // The first consumed triple is the a-arc (insertion order), and the
        // state drops the consumed obligation.
        assert!(trace.steps[0].before.contains("a→"), "{:?}", trace.steps[0]);
        let rendered = trace.render(&ds.pool);
        assert!(rendered.contains("MATCHES"), "{rendered}");
    }

    #[test]
    fn trace_reproduces_example_12() {
        // {⟨n,a,1⟩, ⟨n,a,2⟩, ⟨n,b,1⟩}: the second a-triple derives ∅ and
        // the trace stops early.
        let (mut engine, ds) = setup(EX5_SCHEMA, "@prefix e: <http://e/> . e:n e:a 1, 2; e:b 1 .");
        let node = ds.iri("http://e/n").unwrap();
        let trace = engine
            .trace(&ds.graph, &ds.pool, node, &"S".into())
            .unwrap();
        assert!(!trace.matched);
        assert_eq!(trace.residual, "∅");
        assert!(trace.steps.len() < 3, "stops at the failing triple");
        assert_eq!(trace.steps.last().unwrap().after, "∅");
    }

    #[test]
    fn trace_on_deep_recursive_chain() {
        // The trace path must use the large-stack worker too.
        let w = shapex_workloads::person_network(5_000, shapex_workloads::Topology::Chain, 0.0, 3);
        let schema = shexc::parse(&w.schema).unwrap();
        let mut ds = w.dataset;
        let mut engine = Engine::new(&schema, &mut ds.pool).unwrap();
        let first = ds.iri(&w.focus[0]).unwrap();
        let trace = engine
            .trace(&ds.graph, &ds.pool, first, &ShapeLabel::new("Person"))
            .unwrap();
        assert!(trace.matched);
        assert_eq!(trace.steps.len(), 3); // age, name, knows
    }

    #[test]
    fn trace_agrees_with_check() {
        let (mut engine, ds) = setup(PERSON_SCHEMA, PERSON_DATA);
        for node in ["john", "bob", "mary"] {
            let id = ds.iri(&format!("http://example.org/{node}")).unwrap();
            let checked = engine
                .check(&ds.graph, &ds.pool, id, &"Person".into())
                .unwrap()
                .matched;
            let traced = engine
                .trace(&ds.graph, &ds.pool, id, &"Person".into())
                .unwrap()
                .matched;
            assert_eq!(checked, traced, "{node}");
        }
    }

    /// Fig. 4, rule *Arctype*: a value-set arc matches a triple whose
    /// object is in the set, producing no typing obligations.
    #[test]
    fn rule_arctype() {
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:p [1 2] }",
            "@prefix e: <http://e/> . e:ok e:p 2 . e:bad e:p 3 .",
        );
        assert!(check(&mut engine, &ds, "http://e/ok", "S"));
        assert!(!check(&mut engine, &ds, "http://e/bad", "S"));
    }

    /// Fig. 4, rule *Arcref*: `vp→l` matches ⟨s,p,o⟩ when o has shape l —
    /// the typing obligation `Γ ⊢ l ≃s o`.
    #[test]
    fn rule_arcref() {
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:p @<T> }\n<T> { e:q [1] }",
            "@prefix e: <http://e/> . e:ok e:p e:t . e:t e:q 1 .\n\
             e:bad e:p e:u . e:u e:q 2 .",
        );
        assert!(check(&mut engine, &ds, "http://e/ok", "S"));
        assert!(!check(&mut engine, &ds, "http://e/bad", "S"));
    }

    /// Fig. 3, rule *MatchShape*: `Γ{n→l} ⊢ δ(l) ≃ Σg_n` — the assumption
    /// added for n itself is what lets a self-referential node close.
    #[test]
    fn rule_matchshape_assumption() {
        let (mut engine, ds) = setup(
            "PREFIX e: <http://e/>\n<S> { e:self @<S> }",
            "@prefix e: <http://e/> . e:n e:self e:n .",
        );
        // n's only triple points at n itself; only Γ{n→S} makes it hold.
        assert!(check(&mut engine, &ds, "http://e/n", "S"));
    }
}

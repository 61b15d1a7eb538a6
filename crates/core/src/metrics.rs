//! The derivative engine's counters: one record, always collected.
//!
//! [`Metrics`] holds every counter the engine keeps — how much work
//! happened (derivative steps, node checks, gfp reruns, budget spend,
//! delta reuse) and *where* it happened: cache-level hit/miss splits
//! (the stable vs. assumption-carrying profile caches behave very
//! differently under gfp reruns), per-shape attribution, `HeadIndex`
//! selectivity, and — for [`Engine::type_all_par`] — per-wave timings and
//! per-shard merge accounting. Each counter is stored and incremented in
//! exactly one place; [`Stats`](crate::result::Stats) is a snapshot
//! computed from this record by [`Engine::stats`], so the report's
//! `stats` and `metrics` blocks agree wherever they show the same count.
//!
//! Merge discipline (also documented in `DESIGN.md`): parallel workers
//! collect into private records; at each epoch boundary the coordinator
//! folds in exactly the *delta* each worker accumulated since the
//! previous boundary ([`Metrics::absorb_delta`]). Counters are therefore
//! merged exactly once — workers idle in an epoch contribute an empty
//! delta rather than being dropped.
//!
//! [`Engine::type_all_par`]: crate::Engine::type_all_par
//! [`Engine::stats`]: crate::Engine::stats

/// Hit/miss counters for one memo table. The defining invariant — checked
/// by the metric-invariant proptests — is `lookups == hits + misses`
/// (with [`CacheMetrics::hits`] summing every hit flavour).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Times the table was consulted.
    pub lookups: u64,
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that fell through to a fresh computation.
    pub misses: u64,
}

impl CacheMetrics {
    /// Hit ratio in `[0, 1]`; `0` when the table was never consulted.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    fn absorb_delta(&mut self, prev: &CacheMetrics, now: &CacheMetrics) {
        self.lookups += now.lookups - prev.lookups;
        self.hits += now.hits - prev.hits;
        self.misses += now.misses - prev.misses;
    }

    /// The table's counters as a JSON object.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
        })
    }
}

/// Per-shape work attribution, indexed by [`ShapeId`](crate::ShapeId).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShapeMetrics {
    /// `(node, shape)` evaluations (memo misses) against this shape.
    pub checks: u64,
    /// Evaluations that proved conformance.
    pub conforms: u64,
    /// Evaluations that refuted conformance.
    pub fails: u64,
    /// Derivative-rule applications attributed to this shape's checks.
    pub derivative_steps: u64,
    /// Checks answered by the SORBE counting fast path.
    pub sorbe_checks: u64,
    /// Satisfaction profiles computed (profile-cache misses) for this
    /// shape.
    pub profiles_computed: u64,
}

impl ShapeMetrics {
    fn absorb_delta(&mut self, prev: &ShapeMetrics, now: &ShapeMetrics) {
        self.checks += now.checks - prev.checks;
        self.conforms += now.conforms - prev.conforms;
        self.fails += now.fails - prev.fails;
        self.derivative_steps += now.derivative_steps - prev.derivative_steps;
        self.sorbe_checks += now.sorbe_checks - prev.sorbe_checks;
        self.profiles_computed += now.profiles_computed - prev.profiles_computed;
    }
}

/// Per-shape lazy-DFA structure sizes (see [`crate::dfa`]). These are
/// *gauges*, not rates: they report how large the shape's automaton has
/// grown, so the wave-boundary merge takes the max across shards instead
/// of summing deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DfaShapeMetrics {
    /// Dense expression states interned for the shape.
    pub states: u64,
    /// Alphabet classes interned for the shape.
    pub classes: u64,
}

impl DfaShapeMetrics {
    fn absorb_max(&mut self, now: &DfaShapeMetrics) {
        self.states = self.states.max(now.states);
        self.classes = self.classes.max(now.classes);
    }
}

/// One shard's contribution to a [`WaveMetrics`] record: what a single
/// worker did during that wave, measured as the delta folded in at the
/// wave boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Worker index.
    pub worker: usize,
    /// Queries this worker executed in the epoch (its own share plus any
    /// it stole).
    pub queries: u64,
    /// Queries executed from batches stolen off peers' deques.
    pub stolen: u64,
    /// Successful steals (batches taken off a peer's deque).
    pub steals: u64,
    /// Steal probes issued, successful or not; `steals / steal_attempts`
    /// measures contention.
    pub steal_attempts: u64,
    /// Unconditional verdicts this worker published to the epoch's
    /// publication log while the epoch was still running.
    pub published: u64,
    /// Verdicts this worker drained from peers' publications mid-epoch.
    pub drained: u64,
    /// Microseconds spent executing queries.
    pub busy_us: u64,
    /// Microseconds spent probing for work with an empty deque.
    pub idle_us: u64,
    /// Unconditional `(shape, node)` verdicts this shard published that
    /// were new to the coordinator when it drained the publication log at
    /// the boundary (first publication of a pair wins).
    pub promoted: u64,
    /// Budget steps the shard spent during the wave.
    pub budget_steps: u64,
    /// Derivative-rule applications during the wave.
    pub derivative_steps: u64,
}

/// One scheduler epoch of
/// [`Engine::type_all_par`](crate::Engine::type_all_par): dispatch sizes,
/// wall-clock, and the per-shard merge record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaveMetrics {
    /// Queries in the wave's window.
    pub queries: u64,
    /// Window queries answered by a verdict memoised *before* the
    /// parallel run started (schema preloading, a previous `type_all*`, a
    /// surviving revalidation memo). Disjoint from
    /// [`merged_answered`](WaveMetrics::merged_answered).
    pub memo_answered: u64,
    /// Window queries answered by a verdict another worker proved earlier
    /// in *this* run and the coordinator already merged — skipped, not
    /// re-dispatched.
    pub merged_answered: u64,
    /// Queries actually dispatched to workers.
    pub dispatched: u64,
    /// Successful steals across all workers in the epoch.
    pub steals: u64,
    /// Steal probes across all workers in the epoch.
    pub steal_attempts: u64,
    /// Verdicts published to the epoch's shared log across all workers.
    pub published: u64,
    /// Promoted pairs copied into worker snapshots before dispatch (sum
    /// over workers). Always 0 since the publication log became the only
    /// promotion channel: workers drain it themselves, from marks that
    /// persist across epochs. Kept so report consumers keep their schema.
    pub reseeded_pairs: u64,
    /// Wall-clock for the wave (dispatch through merge), microseconds.
    pub elapsed_us: u64,
    /// Per-worker deltas for the wave.
    pub shards: Vec<ShardMetrics>,
}

/// The engine's counter record; see the module docs for the collection
/// and merge discipline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Individual derivative-rule applications (`∂` node visits).
    pub derivative_steps: u64,
    /// Distinct triple classes (satisfaction profiles) interned.
    pub triple_classes: u64,
    /// `(node, shape)` checks actually evaluated (memo misses).
    pub node_checks: u64,
    /// Greatest-fixpoint restarts triggered by failed coinductive
    /// assumptions.
    pub gfp_reruns: u64,
    /// Queries aborted by budget exhaustion.
    pub exhausted_checks: u64,
    /// Deepest `(node, shape)` recursion any query reached.
    pub max_depth_reached: u32,
    /// Stable (assumption-free) profile-cache behaviour. A hit here means
    /// the triple's satisfaction profile was a persistent fact.
    pub profile_stable: CacheMetrics,
    /// Assumption-carrying profile-cache behaviour (per-run entries whose
    /// bits were computed under open coinductive assumptions).
    pub profile_assumption: CacheMetrics,
    /// Dense DFA transition-table behaviour (the derivative cache; see
    /// [`crate::dfa`]). A miss is exactly one lazy table fill. Not
    /// consulted when `EngineConfig::no_deriv_memo` is set.
    pub dfa_table: CacheMetrics,
    /// DFA expression states interned, summed over shapes.
    pub dfa_states: u64,
    /// Per-shape DFA sizes, indexed by `ShapeId` (gauges, merged by max).
    pub per_shape_dfa: Vec<DfaShapeMetrics>,
    /// `HeadIndex` consultations during profile computation.
    pub head_index_queries: u64,
    /// Candidate arcs the `HeadIndex` returned, summed over queries; the
    /// average `candidates/queries` measures index selectivity against a
    /// full arc scan.
    pub head_index_candidates: u64,
    /// Largest expression-arena size observed by any query's meter.
    pub arena_high_water: usize,
    /// Largest expression pool a parallel worker held at an epoch
    /// boundary ([`Engine::stats`](crate::Engine::stats) folds it, the
    /// meter high-water and the live pool into `peak_arena_nodes`).
    pub pool_high_water: usize,
    /// Budget steps charged across all queries.
    pub budget_steps: u64,
    /// Memoised pairs dropped by
    /// [`revalidate`](crate::Engine::revalidate)'s invalidation closure,
    /// summed over revalidations.
    pub delta_invalidated: u64,
    /// Pairs re-evaluated on the dirty frontier during revalidations.
    pub delta_retyped: u64,
    /// Pairs answered from the surviving memo during revalidations.
    pub delta_reused: u64,
    /// Per-shape attribution, indexed by `ShapeId`.
    pub per_shape: Vec<ShapeMetrics>,
    /// The epoch records of the latest
    /// [`type_all_par`](crate::Engine::type_all_par) call; empty when it
    /// took the sequential path.
    pub waves: Vec<WaveMetrics>,
}

impl Metrics {
    /// An empty metrics block with per-shape slots for `shapes` shapes.
    pub fn new(shapes: usize) -> Self {
        Metrics {
            per_shape: vec![ShapeMetrics::default(); shapes],
            per_shape_dfa: vec![DfaShapeMetrics::default(); shapes],
            ..Metrics::default()
        }
    }

    /// Total profile-cache lookups (both flavours). Each triple
    /// profiling consults the stable table first and the
    /// assumption-carrying table only on a stable miss, so stable lookups
    /// count every profiling and assumption lookups only the fall-through.
    pub fn profile_lookups(&self) -> u64 {
        self.profile_stable.lookups + self.profile_assumption.lookups
    }

    /// Profiles computed fresh (misses of both cache layers).
    pub fn profiles_computed(&self) -> u64 {
        self.profile_assumption.misses
    }

    /// Checks answered by the SORBE counting fast path, summed over
    /// shapes.
    pub fn sorbe_checks(&self) -> u64 {
        self.per_shape.iter().map(|s| s.sorbe_checks).sum()
    }

    /// Folds in the delta another collector accumulated between the
    /// `prev` and `now` snapshots — the epoch-boundary merge primitive.
    /// Monotone counters add the difference; high-water marks take the
    /// max of the *absolute* value (a high-water mark is not a rate).
    /// Calling this once per epoch with an advancing `prev` counts every
    /// increment exactly once. `triple_classes` becomes an over-count
    /// across workers, since each worker interns its own class table.
    pub fn absorb_delta(&mut self, prev: &Metrics, now: &Metrics) {
        self.derivative_steps += now.derivative_steps - prev.derivative_steps;
        self.triple_classes += now.triple_classes - prev.triple_classes;
        self.node_checks += now.node_checks - prev.node_checks;
        self.gfp_reruns += now.gfp_reruns - prev.gfp_reruns;
        self.exhausted_checks += now.exhausted_checks - prev.exhausted_checks;
        self.max_depth_reached = self.max_depth_reached.max(now.max_depth_reached);
        self.profile_stable
            .absorb_delta(&prev.profile_stable, &now.profile_stable);
        self.profile_assumption
            .absorb_delta(&prev.profile_assumption, &now.profile_assumption);
        self.dfa_table.absorb_delta(&prev.dfa_table, &now.dfa_table);
        self.dfa_states += now.dfa_states - prev.dfa_states;
        if self.per_shape_dfa.len() < now.per_shape_dfa.len() {
            self.per_shape_dfa
                .resize(now.per_shape_dfa.len(), DfaShapeMetrics::default());
        }
        for (i, slot) in self.per_shape_dfa.iter_mut().enumerate() {
            if let Some(n) = now.per_shape_dfa.get(i) {
                slot.absorb_max(n);
            }
        }
        self.head_index_queries += now.head_index_queries - prev.head_index_queries;
        self.head_index_candidates += now.head_index_candidates - prev.head_index_candidates;
        self.arena_high_water = self.arena_high_water.max(now.arena_high_water);
        self.budget_steps += now.budget_steps - prev.budget_steps;
        self.delta_invalidated += now.delta_invalidated - prev.delta_invalidated;
        self.delta_retyped += now.delta_retyped - prev.delta_retyped;
        self.delta_reused += now.delta_reused - prev.delta_reused;
        if self.per_shape.len() < now.per_shape.len() {
            self.per_shape
                .resize(now.per_shape.len(), ShapeMetrics::default());
        }
        for (i, slot) in self.per_shape.iter_mut().enumerate() {
            let zero = ShapeMetrics::default();
            let p = prev.per_shape.get(i).unwrap_or(&zero);
            let n = now.per_shape.get(i).unwrap_or(&zero);
            slot.absorb_delta(p, n);
        }
    }

    /// The metrics block as a JSON object (the `metrics` member of the
    /// `--report json` document — schema documented in `DESIGN.md`).
    /// `labels(i)` names shape `i` for the per-shape rows.
    pub fn to_json(&self, labels: &dyn Fn(usize) -> String) -> serde_json::Value {
        use serde_json::Value;
        let per_shape: Vec<Value> = self
            .per_shape
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let dfa = self.per_shape_dfa.get(i).copied().unwrap_or_default();
                serde_json::json!({
                    "shape": labels(i),
                    "checks": s.checks,
                    "conforms": s.conforms,
                    "fails": s.fails,
                    "derivative_steps": s.derivative_steps,
                    "sorbe_checks": s.sorbe_checks,
                    "profiles_computed": s.profiles_computed,
                    "dfa_states": dfa.states,
                    "dfa_classes": dfa.classes,
                })
            })
            .collect();
        let waves: Vec<Value> = self
            .waves
            .iter()
            .map(|w| {
                let shards: Vec<Value> = w
                    .shards
                    .iter()
                    .map(|s| {
                        serde_json::json!({
                            "worker": s.worker,
                            "queries": s.queries,
                            "stolen": s.stolen,
                            "steals": s.steals,
                            "steal_attempts": s.steal_attempts,
                            "published": s.published,
                            "drained": s.drained,
                            "busy_us": s.busy_us,
                            "idle_us": s.idle_us,
                            "promoted": s.promoted,
                            "budget_steps": s.budget_steps,
                            "derivative_steps": s.derivative_steps,
                        })
                    })
                    .collect();
                serde_json::json!({
                    "queries": w.queries,
                    "memo_answered": w.memo_answered,
                    "merged_answered": w.merged_answered,
                    "dispatched": w.dispatched,
                    "steals": w.steals,
                    "steal_attempts": w.steal_attempts,
                    "published": w.published,
                    "reseeded_pairs": w.reseeded_pairs,
                    "elapsed_us": w.elapsed_us,
                    "shards": Value::Array(shards),
                })
            })
            .collect();
        serde_json::json!({
            "profile_stable": self.profile_stable.to_json(),
            "profile_assumption": self.profile_assumption.to_json(),
            "dfa_table": self.dfa_table.to_json(),
            "dfa_states": self.dfa_states,
            "head_index": {
                "queries": self.head_index_queries,
                "candidates": self.head_index_candidates,
            },
            "arena_high_water": self.arena_high_water,
            "budget_steps": self.budget_steps,
            "delta": {
                "invalidated": self.delta_invalidated,
                "retyped": self.delta_retyped,
                "reused": self.delta_reused,
            },
            "per_shape": Value::Array(per_shape),
            "waves": Value::Array(waves),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_invariant_and_ratio() {
        let c = CacheMetrics {
            lookups: 10,
            hits: 7,
            misses: 3,
        };
        assert_eq!(c.lookups, c.hits + c.misses);
        assert!((c.hit_ratio() - 0.7).abs() < 1e-12);
        assert_eq!(CacheMetrics::default().hit_ratio(), 0.0);
    }

    #[test]
    fn absorb_delta_adds_counters_and_maxes_high_water() {
        let mut total = Metrics::new(2);
        let prev = Metrics {
            dfa_table: CacheMetrics {
                lookups: 5,
                hits: 4,
                misses: 1,
            },
            budget_steps: 100,
            derivative_steps: 30,
            max_depth_reached: 7,
            delta_reused: 2,
            arena_high_water: 10,
            per_shape: vec![
                ShapeMetrics {
                    checks: 1,
                    sorbe_checks: 1,
                    ..ShapeMetrics::default()
                },
                ShapeMetrics::default(),
            ],
            ..Metrics::default()
        };
        let now = Metrics {
            dfa_table: CacheMetrics {
                lookups: 9,
                hits: 6,
                misses: 3,
            },
            budget_steps: 150,
            derivative_steps: 45,
            max_depth_reached: 5,
            delta_reused: 3,
            arena_high_water: 40,
            per_shape: vec![
                ShapeMetrics {
                    checks: 3,
                    sorbe_checks: 2,
                    ..ShapeMetrics::default()
                },
                ShapeMetrics {
                    checks: 2,
                    sorbe_checks: 4,
                    ..ShapeMetrics::default()
                },
            ],
            ..Metrics::default()
        };
        total.absorb_delta(&prev, &now);
        assert_eq!(total.dfa_table.lookups, 4);
        assert_eq!(total.dfa_table.hits, 2);
        assert_eq!(total.dfa_table.misses, 2);
        assert_eq!(total.budget_steps, 50);
        assert_eq!(total.derivative_steps, 15);
        assert_eq!(total.delta_reused, 1);
        // Levels, not rates: the high-water marks take the absolute max.
        assert_eq!(total.max_depth_reached, 5);
        assert_eq!(total.arena_high_water, 40);
        assert_eq!(total.per_shape[0].checks, 2);
        assert_eq!(total.per_shape[1].checks, 2);
        assert_eq!(total.sorbe_checks(), 5);
        // Absorbing the same delta window twice would double-count; the
        // engine's epoch loop advances `prev` to `now` after every merge.
        total.absorb_delta(&now, &now);
        assert_eq!(total.budget_steps, 50);
    }
}

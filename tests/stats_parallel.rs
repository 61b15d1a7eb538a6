//! Regression suite for `--stats`/metrics totals under parallel typing.
//!
//! The wave-boundary merge in `Engine::type_all_par` folds each worker's
//! counter *delta* into the coordinator exactly once. These tests pin the
//! observable consequence: over the `fixtures/_pathological` inputs run
//! **under a steps budget**, a `--jobs 4` run reports byte-identical
//! step/memo totals to the sequential `--jobs 1` run — every exhausted
//! query deterministically burns its full budget, and exhausted pairs are
//! never memoised, so sharding cannot change any total. (Without a budget
//! the totals legitimately diverge: parallel workers re-derive recursive
//! sub-proofs a sequential run would answer from its shared memo.)
//!
//! The `stats` and `metrics` report blocks show some counts twice; they
//! are one stored counter, so every such pair must agree after every kind
//! of run (`assert_mirrors`).

use std::fs;
use std::path::{Path, PathBuf};

use shapex::{Budget, Engine, EngineConfig, Metrics, Stats};
use shapex_backtrack::BacktrackValidator;
use shapex_rdf::graph::Dataset;
use shapex_rdf::turtle;
use shapex_shex::shexc;

fn pathological(name: &str) -> (shapex_shex::Schema, Dataset) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/_pathological");
    let read = |p: PathBuf| fs::read_to_string(&p).unwrap_or_else(|e| panic!("{p:?}: {e}"));
    let schema = shexc::parse(&read(root.join(format!("{name}.shex")))).expect("schema parses");
    let ds = turtle::parse(&read(root.join(format!("{name}.ttl")))).expect("data parses");
    (schema, ds)
}

fn fixture(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures")
        .join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

/// Asserts that every count the `stats` block and the `metrics` block
/// both show is equal.
fn assert_mirrors(what: &str, engine: &Engine) {
    let s = engine.stats();
    let m = engine.metrics().expect("always collected");
    for (field, a, b) in [
        ("budget_steps", s.budget_steps, m.budget_steps),
        (
            "deriv_memo_hits/dfa_table.hits",
            s.deriv_memo_hits,
            m.dfa_table.hits,
        ),
        (
            "invalidated_pairs/delta.invalidated",
            s.invalidated_pairs,
            m.delta_invalidated,
        ),
        (
            "retyped_pairs/delta.retyped",
            s.retyped_pairs,
            m.delta_retyped,
        ),
        ("reused_pairs/delta.reused", s.reused_pairs, m.delta_reused),
    ] {
        assert_eq!(a, b, "{what}: stats and metrics disagree on {field}");
    }
}

/// Runs the full typing at the given worker count and returns the final
/// coordinator-side counters.
fn run(name: &str, budget: Budget, jobs: usize) -> (Stats, Metrics, usize, usize) {
    let (schema, mut ds) = pathological(name);
    let config = EngineConfig {
        budget,
        ..EngineConfig::default()
    };
    let mut engine = Engine::compile(&schema, &mut ds.pool, config).expect("schema compiles");
    let typing = engine.type_all_par(&ds.graph, &ds.pool, jobs);
    assert_mirrors(&format!("{name} at jobs={jobs}"), &engine);
    let metrics = engine.metrics().expect("always collected").clone();
    (
        engine.stats(),
        metrics,
        typing.len(),
        typing.exhausted.len(),
    )
}

/// Asserts the totals that must be sharding-invariant, at 2 and 4
/// workers. Arena/pool sizes are excluded by design: each worker interns
/// its own arena, so those high-water marks measure per-shard state, not
/// run totals (documented in `Metrics::absorb_delta`).
fn assert_totals_match(name: &str, budget: Budget) {
    for jobs in [2, 4] {
        assert_totals_match_at(name, budget, jobs);
    }
}

fn assert_totals_match_at(name: &str, budget: Budget, jobs: usize) {
    let (seq, seq_m, seq_typed, seq_exhausted) = run(name, budget, 1);
    let (par, par_m, par_typed, par_exhausted) = run(name, budget, jobs);
    assert_eq!(seq_typed, par_typed, "{name}: typed pairs diverged");
    assert_eq!(
        seq_exhausted, par_exhausted,
        "{name}: exhausted pairs diverged"
    );
    for (field, a, b) in [
        (
            "derivative_steps",
            seq.derivative_steps,
            par.derivative_steps,
        ),
        ("deriv_memo_hits", seq.deriv_memo_hits, par.deriv_memo_hits),
        ("triple_classes", seq.triple_classes, par.triple_classes),
        ("node_checks", seq.node_checks, par.node_checks),
        ("gfp_reruns", seq.gfp_reruns, par.gfp_reruns),
        ("sorbe_checks", seq.sorbe_checks, par.sorbe_checks),
        ("budget_steps", seq.budget_steps, par.budget_steps),
        (
            "exhausted_checks",
            seq.exhausted_checks,
            par.exhausted_checks,
        ),
        (
            "max_depth_reached",
            seq.max_depth_reached as u64,
            par.max_depth_reached as u64,
        ),
    ] {
        assert_eq!(
            a, b,
            "{name}: stats.{field} diverged between jobs=1 and jobs={jobs}"
        );
    }
    for (field, a, b) in [
        (
            "profile_stable.lookups",
            seq_m.profile_stable.lookups,
            par_m.profile_stable.lookups,
        ),
        (
            "profile_assumption.lookups",
            seq_m.profile_assumption().lookups,
            par_m.profile_assumption().lookups,
        ),
        (
            "dfa_table.lookups",
            seq_m.dfa_table.lookups,
            par_m.dfa_table.lookups,
        ),
        ("dfa_table.hits", seq_m.dfa_table.hits, par_m.dfa_table.hits),
        (
            "head_index_queries",
            seq_m.head_index_queries,
            par_m.head_index_queries,
        ),
        ("budget_steps", seq_m.budget_steps, par_m.budget_steps),
    ] {
        assert_eq!(
            a, b,
            "{name}: metrics.{field} diverged between jobs=1 and jobs={jobs}"
        );
    }
    // Per-shape attribution must agree too — it is merged through the same
    // delta discipline.
    assert_eq!(
        seq_m.per_shape, par_m.per_shape,
        "{name}: per-shape metrics diverged at jobs={jobs}"
    );
    // The merged metrics obey the cache invariant on both sides.
    for m in [&seq_m, &par_m] {
        for c in [&m.profile_stable, &m.profile_assumption(), &m.dfa_table] {
            assert_eq!(
                c.lookups,
                c.hits + c.misses,
                "{name}: cache invariant broken"
            );
        }
    }
}

#[test]
fn deep_recursion_totals_jobs_invariant() {
    // 2000 queries over the e:next cycle; each exhausts its 200-step
    // budget deterministically, whichever worker runs it.
    assert_totals_match("deep_recursion", Budget::steps(200));
}

#[test]
fn fanout_totals_jobs_invariant() {
    // One subject × one shape: the window degenerates to a single query,
    // which must produce identical totals however many workers idle.
    assert_totals_match("fanout", Budget::steps(1_000));
}

#[test]
fn interleave_totals_jobs_invariant() {
    assert_totals_match("interleave", Budget::steps(10_000));
}

#[test]
fn dfa_typing_jobs_invariant_and_matches_uncached_and_backtracking() {
    // The lazy DFA shares dense transition tables across shards: workers
    // fork a snapshot and the coordinator merges their fill logs at epoch
    // boundaries. Whatever the sharing does to *when* cells fill, the
    // typing and every failure diagnostic must be identical at every jobs
    // count, identical to the uncached `no_deriv_memo` ablation, and the
    // verdicts must match the backtracking reference. `no_sorbe` forces
    // the derivative path so the tables are genuinely exercised.
    let network = || {
        shapex_workloads::person_network(
            40,
            shapex_workloads::Topology::Random { degree: 2 },
            0.3,
            7,
        )
    };
    let schema = shexc::parse(&network().schema).expect("schema parses");
    let run = |no_deriv_memo: bool, jobs: usize| {
        let mut ds = network().dataset;
        let config = EngineConfig {
            no_deriv_memo,
            no_sorbe: true,
            ..EngineConfig::default()
        };
        let mut engine = Engine::compile(&schema, &mut ds.pool, config).expect("schema compiles");
        let typing = engine.type_all_par(&ds.graph, &ds.pool, jobs);
        let filled: usize = engine.dfa_summary().iter().map(|&(_, _, _, f)| f).sum();
        let shape = engine.shape_id(&"Person".into()).expect("Person shape");
        let failures: Vec<Option<String>> = ds
            .graph
            .subjects()
            .collect::<Vec<_>>()
            .into_iter()
            .map(|node| {
                engine
                    .check_id(&ds.graph, &ds.pool, node, shape)
                    .into_failure()
                    .map(|f| f.render(&ds.pool))
            })
            .collect();
        (typing, failures, filled)
    };
    let (dfa_seq, fail_seq, filled_seq) = run(false, 1);
    let (dfa_par, fail_par, filled_par) = run(false, 4);
    let (plain_seq, fail_plain, filled_plain) = run(true, 1);
    assert!(filled_seq > 0, "sequential run never filled a DFA cell");
    assert!(filled_par > 0, "parallel run never filled a DFA cell");
    assert_eq!(filled_plain, 0, "no_deriv_memo must not fill the DFA");
    assert_eq!(
        dfa_seq, dfa_par,
        "DFA typing diverged between jobs=1 and jobs=4"
    );
    assert_eq!(
        fail_seq, fail_par,
        "failures diverged between jobs=1 and jobs=4"
    );
    assert_eq!(dfa_seq, plain_seq, "DFA and uncached typings diverged");
    assert_eq!(fail_seq, fail_plain, "DFA and uncached failures diverged");

    let ds = network().dataset;
    let reference = BacktrackValidator::new(&schema).expect("schema compiles");
    let person = shapex::ShapeId(0);
    for node in ds.graph.subjects() {
        let expected = reference
            .check(&ds.graph, &ds.pool, node, &"Person".into())
            .expect("backtracker answers");
        assert_eq!(
            dfa_seq.has(node, person),
            expected,
            "DFA and backtracking disagree on {}",
            ds.pool.term(node)
        );
    }
}

#[test]
fn hub_typing_jobs_and_scheduler_invariant() {
    // The adversarial shape for static sharding: one (hub, Hub) mega-task
    // whose proof transitively decides every member, plus a Zipf fanout
    // tail. Whatever the work-stealing scheduler does — steals, mid-epoch
    // publication — the typing must be byte-identical to the sequential
    // run at every worker count.
    let w = shapex_workloads::scale::hub(120, 9);
    let schema = shexc::parse(&w.schema).expect("hub schema parses");
    let mut ds = w.dataset;
    let mut seq =
        Engine::compile(&schema, &mut ds.pool, EngineConfig::default()).expect("compiles");
    let reference = seq.type_all(&ds.graph, &ds.pool);
    let hub_node = ds
        .iri(&format!("{}hub", shapex_workloads::scale::HUB))
        .expect("hub interned");
    let hub_shape = seq.shape_id(&"Hub".into()).expect("Hub shape");
    let member_shape = seq.shape_id(&"Member".into()).expect("Member shape");
    assert!(reference.has(hub_node, hub_shape), "hub must conform");
    for focus in &w.focus {
        let node = ds.iri(focus).expect("member interned");
        assert!(reference.has(node, member_shape), "{focus} must conform");
    }
    for jobs in [1usize, 2, 3, 4] {
        let mut par =
            Engine::compile(&schema, &mut ds.pool, EngineConfig::default()).expect("compiles");
        let typing = par.type_all_par(&ds.graph, &ds.pool, jobs);
        assert_eq!(typing, reference, "typing diverged at jobs={jobs}");
        assert_eq!(
            par.stats().triple_classes,
            seq.stats().triple_classes,
            "triple classes diverged at jobs={jobs}"
        );
    }
}

#[test]
fn triple_classes_count_the_union_over_workers() {
    // Each parallel worker interns its own class table; the run's
    // `triple_classes` must count every distinct (shape, class) once, as
    // the sequential run does — not once per worker that met it. Checked
    // on a reference-free workload, on a recursive network (unbudgeted),
    // and again after a second run on the same engine, which must not
    // count the classes its fresh workers re-intern.
    fn flat() -> shapex_workloads::Workload {
        shapex_workloads::flat_person_records(400, 3)
    }
    fn network() -> shapex_workloads::Workload {
        shapex_workloads::person_network(
            200,
            shapex_workloads::Topology::Random { degree: 2 },
            0.2,
            5,
        )
    }
    type Make = fn() -> shapex_workloads::Workload;
    for (name, make) in [("flat records", flat as Make), ("network", network)] {
        let schema = shexc::parse(&make().schema).expect("schema parses");
        let classes = |jobs: usize| {
            let mut ds = make().dataset;
            // `no_sorbe`: the counting fast path interns no classes.
            let config = EngineConfig {
                no_sorbe: true,
                ..EngineConfig::default()
            };
            let mut engine = Engine::compile(&schema, &mut ds.pool, config).expect("compiles");
            engine.type_all_par(&ds.graph, &ds.pool, jobs);
            let first = engine.stats().triple_classes;
            engine.type_all_par(&ds.graph, &ds.pool, jobs);
            assert_eq!(
                engine.stats().triple_classes,
                first,
                "{name}: a second run re-counted classes at jobs={jobs}"
            );
            first
        };
        let sequential = classes(1);
        assert!(sequential > 0, "{name}: no class interned");
        for jobs in [2, 4] {
            assert_eq!(
                classes(jobs),
                sequential,
                "{name}: triple_classes differs between jobs=1 and jobs={jobs}"
            );
        }
    }
}

#[test]
fn hub_wave_accounting_is_consistent() {
    // Pins the wave-metrics split this refactor fixed: `memo_answered`
    // (verdicts memoised before the run) is disjoint from
    // `merged_answered` (verdicts another worker proved earlier in THIS
    // run), and together with `dispatched` they tile the window exactly.
    // On a fresh engine nothing predates the run, so the hub's cascade —
    // which decides every member while epoch 1 is still running — must
    // show up as `merged_answered`, not `memo_answered`.
    let w = shapex_workloads::scale::hub(300, 3);
    let schema = shexc::parse(&w.schema).expect("hub schema parses");
    let mut ds = w.dataset;
    let mut engine =
        Engine::compile(&schema, &mut ds.pool, EngineConfig::default()).expect("compiles");
    // jobs=2 keeps the epoch window (2 × 256) below the 602-query run, so
    // a second epoch exists to observe the first epoch's merged verdicts.
    let typing = engine.type_all_par(&ds.graph, &ds.pool, 2);
    assert!(!typing.is_partial());
    let metrics = engine.metrics().expect("always collected");
    assert!(metrics.waves.len() >= 2, "expected multiple epochs");
    let mut merged_total = 0;
    for (i, wave) in metrics.waves.iter().enumerate() {
        assert_eq!(
            wave.memo_answered + wave.merged_answered + wave.dispatched,
            wave.queries,
            "epoch {i}: answered + dispatched must tile the window"
        );
        assert_eq!(
            wave.memo_answered, 0,
            "epoch {i}: fresh engine has no pre-run memo verdicts"
        );
        assert_eq!(
            wave.steals,
            wave.shards.iter().map(|s| s.steals).sum::<u64>(),
            "epoch {i}: wave steal total must equal the shard sum"
        );
        assert_eq!(
            wave.published,
            wave.shards.iter().map(|s| s.published).sum::<u64>(),
            "epoch {i}: wave published total must equal the shard sum"
        );
        merged_total += wave.merged_answered;
    }
    assert!(
        merged_total > 0,
        "the hub cascade should answer later epochs' queries via merge"
    );
    assert!(
        metrics.waves.iter().map(|w| w.published).sum::<u64>() > 0,
        "workers should publish unconditional verdicts mid-epoch"
    );
}

#[test]
fn exhausted_queries_burn_exactly_their_budget() {
    // The determinism the jobs-invariance rests on: every exhausted query
    // spends exactly `limit` steps, so budget_steps == exhausted × limit
    // when every query exhausts.
    let (stats, metrics, typed, exhausted) = run("deep_recursion", Budget::steps(200), 4);
    assert_eq!(typed, 0, "no pair should complete under 200 steps");
    assert!(exhausted > 0);
    assert_eq!(stats.budget_steps, exhausted as u64 * 200);
    assert_eq!(metrics.budget_steps, stats.budget_steps);
    assert_eq!(stats.exhausted_checks, exhausted as u64);
}

/// Promotion completeness: the publication log is the only channel that
/// carries a worker's settled verdicts to the coordinator, so after
/// `type_all_par` the coordinator must hold exactly what a sequential
/// `type_all` leaves behind — every unconditional verdict, every failure
/// diagnostic, every value-constraint result — at every worker count.
/// Also pins the epoch accounting: nothing is re-seeded, the window tiles,
/// and the per-shard `promoted` counts add up to the verdicts merged.
fn assert_promotion_complete(name: &str, schema: &str, mut ds: Dataset, budget: Budget) {
    let schema = shexc::parse(schema).expect("schema parses");
    let config = EngineConfig {
        budget,
        ..EngineConfig::default()
    };
    let mut seq = Engine::compile(&schema, &mut ds.pool, config).expect("compiles");
    let reference = seq.type_all(&ds.graph, &ds.pool);
    let settled = seq.settled();
    assert!(!settled.verdicts.is_empty(), "{name}: nothing settled");
    for jobs in [2usize, 3, 4] {
        let mut par = Engine::compile(&schema, &mut ds.pool, config).expect("compiles");
        let typing = par.type_all_par(&ds.graph, &ds.pool, jobs);
        assert_eq!(typing, reference, "{name}: typing diverged at jobs={jobs}");
        let got = par.settled();
        assert_eq!(
            got.verdicts, settled.verdicts,
            "{name}: verdicts diverged at jobs={jobs}"
        );
        assert_eq!(
            got.failures, settled.failures,
            "{name}: failures diverged at jobs={jobs}"
        );
        assert_eq!(
            got.value_sat, settled.value_sat,
            "{name}: value_sat diverged at jobs={jobs}"
        );
        let metrics = par.metrics().expect("always collected");
        assert!(
            !metrics.waves.is_empty(),
            "{name}: jobs={jobs} ran sequentially"
        );
        let mut promoted = 0;
        for (i, wave) in metrics.waves.iter().enumerate() {
            assert_eq!(wave.reseeded_pairs, 0, "{name}: epoch {i} re-seeded pairs");
            assert_eq!(
                wave.memo_answered + wave.merged_answered + wave.dispatched,
                wave.queries,
                "{name}: epoch {i}: answered + dispatched must tile the window"
            );
            promoted += wave.shards.iter().map(|s| s.promoted).sum::<u64>();
        }
        // A fresh engine memoises nothing before the run, so every settled
        // verdict was promoted by exactly one shard.
        assert_eq!(
            promoted,
            got.verdicts.len() as u64,
            "{name}: shard promotions must count every merged verdict at jobs={jobs}"
        );
    }
}

#[test]
fn promotion_complete_on_person_records() {
    let w = shapex_workloads::flat_person_records(200, 5);
    assert_promotion_complete("person", &w.schema, w.dataset, Budget::UNLIMITED);
}

#[test]
fn promotion_complete_on_hub_skew() {
    let w = shapex_workloads::scale::hub(300, 3);
    assert_promotion_complete("hub", &w.schema, w.dataset, Budget::UNLIMITED);
}

#[test]
fn promotion_complete_on_recursive_network() {
    let w = shapex_workloads::person_network(
        300,
        shapex_workloads::Topology::Random { degree: 2 },
        0.2,
        11,
    );
    assert_promotion_complete("network", &w.schema, w.dataset, Budget::UNLIMITED);
}

#[test]
fn promotion_complete_when_a_query_exhausts_after_nested_proofs() {
    // (hub, Hub) needs ~2 steps per member, so a 40-step budget exhausts
    // it part-way through its 60 members — after the first members were
    // already proven <Leaf>. The members are not subjects, so only that
    // exhausted query ever proves them: the verdicts must still travel
    // from whichever worker ran it to the coordinator.
    let mut src = String::from("@prefix e: <http://e/> .\n");
    for i in 0..60 {
        src.push_str(&format!("e:hub e:member e:m{i} .\n"));
    }
    for i in 0..10 {
        src.push_str(&format!("e:x{i} e:v 1 .\n"));
    }
    let schema_src = "PREFIX e: <http://e/>\n<Hub> { e:member @<Leaf>* }\n<Leaf> { e:v [1]? }";
    let budget = Budget::steps(40);
    let data = || turtle::parse(&src).expect("data parses");
    assert_promotion_complete("budgeted-hub", schema_src, data(), budget);
    // The precondition the test is about: the hub query did exhaust, and
    // some members were proven before it did.
    let schema = shexc::parse(schema_src).expect("schema parses");
    let mut ds = data();
    let config = EngineConfig {
        budget,
        ..EngineConfig::default()
    };
    let mut par = Engine::compile(&schema, &mut ds.pool, config).expect("compiles");
    let typing = par.type_all_par(&ds.graph, &ds.pool, 2);
    let hub = ds.iri("http://e/hub").expect("hub interned");
    let hub_shape = par.shape_id(&"Hub".into()).expect("Hub shape");
    let leaf_shape = par.shape_id(&"Leaf".into()).expect("Leaf shape");
    assert!(
        typing
            .exhausted
            .iter()
            .any(|&(n, s, _)| (n, s) == (hub, hub_shape)),
        "(hub, Hub) must exhaust under the budget"
    );
    let members: Vec<_> = (0..60)
        .map(|i| ds.iri(&format!("http://e/m{i}")).expect("member interned"))
        .collect();
    let proven_members = par
        .settled()
        .verdicts
        .iter()
        .filter(|&&(s, n, ok)| s == leaf_shape && ok && members.contains(&n))
        .count();
    assert!(
        proven_members > 0 && proven_members < members.len(),
        "expected a partial set of members proven, got {proven_members}"
    );
}

#[test]
fn mirrored_counters_agree_after_revalidation_and_transplant() {
    // Graph delta: `revalidate_par` counts invalidated/retyped/reused pairs.
    let schema = shexc::parse(&fixture("person/schema.shex")).expect("schema parses");
    for jobs in [1, 2] {
        let mut ds = turtle::parse(&fixture("person/data.ttl")).expect("data parses");
        let config = EngineConfig {
            incremental: true,
            ..EngineConfig::default()
        };
        let mut engine = Engine::compile(&schema, &mut ds.pool, config).expect("compiles");
        engine.type_all_par(&ds.graph, &ds.pool, jobs);
        let d = shapex_rdf::delta::parse(&fixture("person/delta.diff"), &mut ds.pool)
            .expect("delta parses");
        ds.try_apply_delta(&d).expect("delta applies");
        engine
            .revalidate_par(&ds.graph, &ds.pool, &d, jobs)
            .expect("revalidates");
        assert!(engine.stats().reused_pairs > 0, "nothing was reused");
        assert_mirrors(&format!("revalidate_par at jobs={jobs}"), &engine);
    }

    // Schema delta: transplanted verdicts count as reused pairs.
    let v2 = shexc::parse(&fixture("person/schema_v2.shex")).expect("schema parses");
    let mut ds = turtle::parse(&fixture("person/data.ttl")).expect("data parses");
    let config = EngineConfig::default();
    let mut old = Engine::compile(&schema, &mut ds.pool, config).expect("compiles");
    old.type_all_par(&ds.graph, &ds.pool, 1);
    let diff = shapex::schema_diff(
        &schema,
        &v2,
        config.simplify,
        config.closure,
        &config.budget,
    )
    .expect("diff");
    let mut engine = Engine::compile(&v2, &mut ds.pool, config).expect("compiles");
    let moved = engine.transplant_verdicts(&old, &diff.reusable);
    assert!(moved > 0, "nothing was transplanted");
    engine.type_all_par(&ds.graph, &ds.pool, 1);
    assert_eq!(engine.stats().reused_pairs, moved as u64);
    assert_mirrors("transplant_verdicts", &engine);
}

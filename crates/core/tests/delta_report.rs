//! The shared delta run builder, `shapex::report::delta_report`: the CLI's
//! `--delta` mode and the server's `/delta` endpoint both go through it,
//! so its ordering (type, apply, revalidate, commit, after rows) and its
//! all-or-nothing failure behaviour are pinned here once.

use shapex::report::{delta_report, typing_report, Exit};
use shapex::{Engine, EngineConfig};
use shapex_rdf::graph::Dataset;
use shapex_rdf::{delta, turtle, GraphDelta};

fn fixture(rel: &str) -> String {
    let path = format!("{}/../../fixtures/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// The person fixture with an incremental engine and the fixture delta.
fn person() -> (Engine, Dataset, GraphDelta) {
    let schema = shapex_shex::shexc::parse(&fixture("person/schema.shex")).unwrap();
    let mut ds = turtle::parse(&fixture("person/data.ttl")).unwrap();
    let config = EngineConfig {
        incremental: true,
        ..EngineConfig::default()
    };
    let engine = Engine::compile(&schema, &mut ds.pool, config).unwrap();
    let d = delta::parse(&fixture("person/delta.diff"), &mut ds.pool).unwrap();
    (engine, ds, d)
}

#[test]
fn delta_run_commits_once_and_matches_scratch() {
    for jobs in [1, 2] {
        let (mut engine, mut ds, d) = person();
        let mut commits = 0;
        let report = delta_report(&mut engine, &mut ds, &d, jobs, Some("d.diff"), 0, || {
            commits += 1
        })
        .unwrap();
        assert_eq!(commits, 1, "jobs={jobs}");
        assert_eq!(report.exit, Exit::Conforms);
        let doc: serde_json::Value = serde_json::from_str(&report.body).unwrap();
        let block = doc.get("delta").unwrap();
        assert_eq!(block.get("file").and_then(|f| f.as_str()), Some("d.diff"));
        assert_eq!(block.get("retyped").and_then(|n| n.as_u64()), Some(1));

        // The after rows equal a from-scratch typing of the mutated data.
        let schema = shapex_shex::shexc::parse(&fixture("person/schema.shex")).unwrap();
        let mut scratch_ds = turtle::parse(&fixture("person/data_after.ttl")).unwrap();
        let mut scratch =
            Engine::compile(&schema, &mut scratch_ds.pool, EngineConfig::default()).unwrap();
        let typing = scratch.type_all_par(&scratch_ds.graph, &scratch_ds.pool, 1);
        let scratch_doc: serde_json::Value = serde_json::from_str(
            &typing_report(
                &mut scratch,
                &scratch_ds.graph,
                &scratch_ds.pool,
                &typing,
                0,
            )
            .body,
        )
        .unwrap();
        let after = doc.get("after").unwrap();
        assert_eq!(after.get("results"), scratch_doc.get("results"));
    }
}

#[cfg(feature = "fail-inject")]
#[test]
fn injected_apply_failure_leaves_the_dataset_untouched() {
    use std::collections::BTreeSet;

    use shapex::report::DeltaRunError;
    use shapex_rdf::failpoint::{self, Action};
    use shapex_rdf::graph::{Arc, Triple};
    use shapex_rdf::pool::TermId;

    /// Everything about a graph's layout a rollback must restore: the triple
    /// set, the subject iteration order, and each node's adjacency lists in
    /// order.
    type Layout = (Vec<Triple>, Vec<TermId>, Vec<(Vec<Arc>, Vec<Arc>)>);

    fn layout(ds: &Dataset) -> Layout {
        let triples = ds.graph.triples_sorted();
        let nodes: BTreeSet<TermId> = triples.iter().flat_map(|t| [t.subject, t.object]).collect();
        let adjacency = nodes
            .iter()
            .map(|&n| {
                (
                    ds.graph.neighbourhood(n).to_vec(),
                    ds.graph.incoming(n).to_vec(),
                )
            })
            .collect();
        (triples, ds.graph.subjects().collect(), adjacency)
    }

    for jobs in [1, 2] {
        let (mut engine, mut ds, d) = person();
        let before = layout(&ds);
        // Fail on the second of the delta's two operations.
        failpoint::set_after_on_this_thread(
            "delta-apply",
            Action::Error("disk full".into()),
            1,
            Some(1),
        );
        let mut committed = false;
        let result = delta_report(&mut engine, &mut ds, &d, jobs, None, 0, || committed = true);
        failpoint::reset();
        let err = result.unwrap_err();
        assert!(matches!(err, DeltaRunError::Apply(_)), "jobs={jobs}: {err}");
        assert!(err.to_string().contains("disk full"), "{err}");
        assert!(!committed, "a failed delta must not be committed");
        assert_eq!(layout(&ds), before, "jobs={jobs}: graph disturbed");

        // With the fault gone the same delta applies cleanly.
        let report = delta_report(&mut engine, &mut ds, &d, jobs, None, 0, || {}).unwrap();
        assert_eq!(report.exit, Exit::Conforms);
    }
}

//! Mini W3C-style SHACL conformance suite, driven by
//! `fixtures/shacl/conformance/manifest.json`: each manifest entry names a
//! case directory (shapes.ttl + data.ttl) and pins either the expected
//! validation report (conforms flag and every violation row, matched on
//! focus node / constraint component / result path) or the expected
//! compile-time refusal (error code + message substring).
//!
//! Two invariants ride along:
//!
//! - **No vacuous validation**: a shapes graph using an unsupported SHACL
//!   term must be refused by `compile` with a term-identified `E001` —
//!   never loaded as a weaker schema that conforms by omission.
//! - **Differential typing**: workload-generated SHACL schemas and their
//!   hand-written ShEx equivalents must produce byte-identical verdict
//!   tables over the same data (proptest below).

use std::fs;
use std::path::{Path, PathBuf};

use shapex::{Closure, Engine, EngineConfig};
use shapex_rdf::turtle;
use shapex_shacl::{compile, ShaclValidator};
use shapex_shex::shexc;

fn conformance_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/shacl/conformance")
}

fn manifest() -> serde_json::Value {
    let raw =
        fs::read_to_string(conformance_root().join("manifest.json")).expect("manifest.json exists");
    serde_json::from_str(&raw).expect("manifest.json parses")
}

/// Runs one case end to end and returns the outcome, or the compile error.
fn run_case(name: &str) -> Result<shapex_shacl::ShaclOutcome, shapex_shacl::ShaclError> {
    let dir = conformance_root().join(name);
    let shapes_src =
        fs::read_to_string(dir.join("shapes.ttl")).unwrap_or_else(|e| panic!("{name}: {e}"));
    let data_src =
        fs::read_to_string(dir.join("data.ttl")).unwrap_or_else(|e| panic!("{name}: {e}"));
    let shapes = turtle::parse(&shapes_src).unwrap_or_else(|e| panic!("{name}/shapes.ttl: {e}"));
    let schema = compile(&shapes)?;
    let mut ds = turtle::parse(&data_src).unwrap_or_else(|e| panic!("{name}/data.ttl: {e}"));
    let mut validator = ShaclValidator::new(schema, &mut ds.pool, EngineConfig::default())
        .unwrap_or_else(|e| panic!("{name}: engine refused compiled schema: {e}"));
    Ok(validator.validate_par(&mut ds, 1))
}

#[test]
fn conformance_manifest_passes() {
    let manifest = manifest();
    let entries = manifest
        .get("entries")
        .and_then(|e| e.as_array())
        .expect("entries array");
    assert!(
        entries.len() >= 14,
        "manifest should cover the component set"
    );
    for entry in entries {
        let name = entry
            .get("name")
            .and_then(|n| n.as_str())
            .expect("entry name");
        match run_case(name) {
            Ok(outcome) => {
                let expect = entry.get("expect").unwrap_or_else(|| {
                    panic!("{name}: manifest expects a compile error, got a report")
                });
                assert!(
                    outcome.exhausted.is_empty(),
                    "{name}: unexpected exhaustion: {:?}",
                    outcome.exhausted
                );
                let conforms = expect
                    .get("conforms")
                    .and_then(|c| c.as_bool())
                    .expect("conforms flag");
                assert_eq!(
                    outcome.conforms(),
                    Some(conforms),
                    "{name}: conformance flag mismatch; rows: {:?}",
                    outcome.results
                );
                if let Some(targets) = expect.get("targets").and_then(|t| t.as_u64()) {
                    assert_eq!(outcome.targets as u64, targets, "{name}: target count");
                }
                let rows = expect
                    .get("results")
                    .and_then(|r| r.as_array())
                    .expect("results array");
                assert_eq!(
                    outcome.results.len(),
                    rows.len(),
                    "{name}: violation count mismatch; rows: {:?}",
                    outcome.results
                );
                for row in rows {
                    let focus = row.get("focus").and_then(|f| f.as_str()).expect("focus");
                    let component = row
                        .get("component")
                        .and_then(|c| c.as_str())
                        .expect("component");
                    let path = row.get("path").and_then(|p| p.as_str());
                    let hit = outcome.results.iter().any(|r| {
                        r.focus == focus
                            && r.component == component
                            && path.is_none_or(|p| r.path.as_deref() == Some(p))
                    });
                    assert!(
                        hit,
                        "{name}: no row matching focus={focus} component={component} \
                         path={path:?}; rows: {:?}",
                        outcome.results
                    );
                }
            }
            Err(e) => {
                let expect = entry
                    .get("error")
                    .unwrap_or_else(|| panic!("{name}: unexpected compile error {e}"));
                let code = expect.get("code").and_then(|c| c.as_str()).expect("code");
                assert_eq!(e.code, code, "{name}: {e}");
                let needle = expect
                    .get("contains")
                    .and_then(|c| c.as_str())
                    .expect("contains");
                assert!(
                    e.detail.contains(needle),
                    "{name}: error `{e}` does not name `{needle}`"
                );
            }
        }
    }
}

/// An unsupported term must fail *compilation* with the term's name in the
/// diagnostic — silently validating the rest of the shapes graph would
/// report `sh:conforms true` for data the full schema rejects. (This is
/// the fail-pre-fix regression for the vacuous-validation bug class: drop
/// the `sh:sparql` arm from the compiler's term table and this test turns
/// a conforming report into a failure.)
#[test]
fn unsupported_terms_never_validate_vacuously() {
    let shapes_src = "\
        @prefix sh: <http://www.w3.org/ns/shacl#> .\n\
        @prefix ex: <http://example.org/> .\n\
        ex:S a sh:NodeShape ; sh:targetClass ex:T ;\n\
             sh:property [ sh:path ex:p ; sh:minCount 1 ] ;\n\
             sh:sparql ex:Query .\n";
    let shapes = turtle::parse(shapes_src).unwrap();
    let err = compile(&shapes).expect_err("sh:sparql must be refused at compile time");
    assert_eq!(err.code, "E001");
    assert!(
        err.detail.contains("sh:sparql"),
        "diagnostic names the term: {err}"
    );
    // The shape node is identified too, so the author can find it.
    assert!(
        err.detail.contains("http://example.org/S"),
        "diagnostic names the shape: {err}"
    );
}

/// The verdict table both sides must produce: `focus conforms?` lines in
/// focus order — byte-identical across the SHACL front end and the
/// hand-written ShEx schema.
fn verdict_table(verdicts: &[(String, bool)]) -> String {
    let mut out = String::new();
    for (focus, ok) in verdicts {
        out.push_str(focus);
        out.push(' ');
        out.push_str(if *ok { "conforms" } else { "fails" });
        out.push('\n');
    }
    out
}

fn shacl_verdicts(w: shapex_workloads::generators::ShaclWorkload) -> String {
    let shapes = turtle::parse(&w.shapes).expect("workload shapes graph parses");
    let schema = compile(&shapes).expect("workload shapes graph compiles");
    let mut ds = w.dataset;
    let mut validator = ShaclValidator::new(schema, &mut ds.pool, EngineConfig::default())
        .expect("engine accepts compiled workload schema");
    let outcome = validator.validate_par(&mut ds, 1);
    assert!(outcome.exhausted.is_empty());
    let table: Vec<(String, bool)> = w
        .focus
        .iter()
        .map(|f| {
            let rendered = format!("<{f}>");
            let ok = !outcome.results.iter().any(|r| r.focus == rendered);
            (rendered, ok)
        })
        .collect();
    verdict_table(&table)
}

fn shex_verdicts(w: shapex_workloads::generators::ShaclWorkload) -> String {
    let schema = shexc::parse(&w.shex).expect("workload ShEx parses");
    let mut ds = w.dataset;
    let config = EngineConfig {
        closure: Closure::Open,
        ..EngineConfig::default()
    };
    let mut engine = Engine::compile(&schema, &mut ds.pool, config).expect("ShEx compiles");
    let label = w.shex_shape.as_str().into();
    let table: Vec<(String, bool)> = w
        .focus
        .iter()
        .map(|f| {
            let node = ds.iri(f).expect("focus node interned");
            let ok = engine
                .check(&ds.graph, &ds.pool, node, &label)
                .expect("no exhaustion on workload data")
                .matched;
            (format!("<{f}>"), ok)
        })
        .collect();
    verdict_table(&table)
}

#[test]
fn differential_fixed_seed_matches_ground_truth() {
    let w = shapex_workloads::generators::shacl_person_records(60, 7);
    let shacl = shacl_verdicts(shapex_workloads::generators::shacl_person_records(60, 7));
    let shex = shex_verdicts(shapex_workloads::generators::shacl_person_records(60, 7));
    assert_eq!(
        shacl, shex,
        "SHACL and ShEx verdict tables must be byte-identical"
    );
    let truth: Vec<(String, bool)> = w
        .focus
        .iter()
        .zip(&w.expected)
        .map(|(f, &ok)| (format!("<{f}>"), ok))
        .collect();
    assert_eq!(
        shacl,
        verdict_table(&truth),
        "verdicts must match ground truth"
    );
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

    /// Differential pin: for any generated person workload, the compiled
    /// SHACL schema and the hand-written ShEx schema (open closure) type
    /// every focus node identically — rendered verdict tables are
    /// byte-identical and match the generator's ground truth.
    #[test]
    fn differential_shacl_vs_shex(n in 1usize..40, seed in 0u64..1000) {
        let w = shapex_workloads::generators::shacl_person_records(n, seed);
        let shacl = shacl_verdicts(shapex_workloads::generators::shacl_person_records(n, seed));
        let shex = shex_verdicts(shapex_workloads::generators::shacl_person_records(n, seed));
        proptest::prop_assert_eq!(&shacl, &shex);
        let truth: Vec<(String, bool)> = w
            .focus
            .iter()
            .zip(&w.expected)
            .map(|(f, &ok)| (format!("<{f}>"), ok))
            .collect();
        proptest::prop_assert_eq!(shacl, verdict_table(&truth));
    }
}

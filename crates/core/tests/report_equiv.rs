//! The resident server keeps warm engines compiled with `incremental:
//! true` (the `/delta` endpoint needs the dependency index) while the CLI
//! compiles `incremental: false` unless `--delta` is given. The CI serve
//! smoke diffs a server `/validate` response against CLI `--report json`
//! output byte-for-byte, so a cold full-typing report must not depend on
//! the incremental flag.

use shapex::report::{finish_engine_doc, push_typing_rows, ReportDoc};
use shapex::{Engine, EngineConfig};

fn report(incremental: bool, schema_src: &str, data_src: &str) -> String {
    let schema = shapex_shex::shexc::parse(schema_src).unwrap();
    let mut ds = shapex_rdf::turtle::parse(data_src).unwrap();
    let config = EngineConfig {
        incremental,
        ..EngineConfig::default()
    };
    let mut engine = Engine::compile(&schema, &mut ds.pool, config).unwrap();
    let typing = engine.type_all_par(&ds.graph, &ds.pool, 1);
    let mut doc = ReportDoc::new("typing", "derivative");
    push_typing_rows(&mut doc, &mut engine, &ds.graph, &ds.pool, &typing);
    let conforms = (!typing.is_partial()).then_some(true);
    finish_engine_doc(doc, &engine, 0, conforms)
}

fn fixture(rel: &str) -> String {
    let path = format!("{}/../../fixtures/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

#[test]
fn cold_full_typing_report_ignores_incremental_flag() {
    for (schema, data) in [
        ("person/schema.shex", "person/data.ttl"),
        ("clinical/schema.shex", "clinical/data.ttl"),
    ] {
        let schema = fixture(schema);
        let data = fixture(data);
        assert_eq!(
            report(false, &schema, &data),
            report(true, &schema, &data),
            "incremental flag leaked into the report bytes"
        );
    }
}

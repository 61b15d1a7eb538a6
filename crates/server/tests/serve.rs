//! End-to-end tests over a live listener: raw HTTP/1.1 requests against a
//! server started on an ephemeral port. The fault-injection scenarios
//! (panic quarantine, mid-delta rollback, saturation shedding) are gated
//! on `--features fail-inject`.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;

use shapex_server::registry::Registry;
use shapex_server::{start, ServerConfig, ServerHandle};

const SCHEMA: &str = "\
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>

<Person> {
  foaf:age xsd:integer
  , foaf:name xsd:string+
  , foaf:knows @<Person>*
}
";

const DATA: &str = "\
@prefix : <http://example.org/> .
@prefix foaf: <http://xmlns.com/foaf/0.1/> .

:john foaf:age 23;
      foaf:name \"John\";
      foaf:knows :bob .
:bob foaf:age 34;
     foaf:name \"Bob\", \"Robert\" .
:mary foaf:age 50, 65 .
";

const DELTA: &str = "\
@prefix : <http://example.org/> .
@prefix foaf: <http://xmlns.com/foaf/0.1/> .
- :mary foaf:age 65 .
+ :mary foaf:name \"Mary\" .
";

/// Failpoints are process-global, and every test here shares one process:
/// tests hold this lock so an armed failpoint can only fire in the test
/// that armed it.
fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// A parsed response: status line code, headers, body.
struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// One request over a fresh connection (the server is Connection: close).
fn request(handle: &ServerHandle, method: &str, target: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(handle.addr()).expect("connecting");
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("writing head");
    stream.write_all(body.as_bytes()).expect("writing body");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("reading response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    Response {
        status,
        headers,
        body: body.to_string(),
    }
}

/// Starts a server hosting the Example 1/2 fixture under id `default`.
fn serve_fixture(config: ServerConfig) -> ServerHandle {
    let registry = Arc::new(Registry::new());
    registry
        .load(
            "default",
            SCHEMA.to_string(),
            shapex_server::registry::SchemaFormat::Shex,
            DATA.to_string(),
            shapex_server::registry::DataFormat::Turtle,
            config.engine_config(),
            config.jobs,
        )
        .expect("loading fixture");
    start(config, registry).expect("starting server")
}

fn local_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    }
}

/// The report the CLI would print for `validate --report json --jobs 1`
/// over the same sources — the byte-identity reference.
fn reference_report() -> String {
    reference_report_after(&[])
}

/// The from-scratch report over DATA with `deltas` already applied: parse,
/// replay, compile fresh, full typing — exactly how a quarantine rebuild
/// reconstructs an entry.
fn reference_report_after(deltas: &[&str]) -> String {
    reference_report_for(SCHEMA, deltas)
}

/// [`reference_report_after`] generalized over the schema text.
fn reference_report_for(schema_src: &str, deltas: &[&str]) -> String {
    use shapex::report::{finish_engine_doc, push_typing_rows, ReportDoc};
    let schema = shapex_shex::shexc::parse(schema_src).unwrap();
    let mut ds = shapex_rdf::turtle::parse(DATA).unwrap();
    for text in deltas {
        let d = shapex_rdf::delta::parse(text, &mut ds.pool).unwrap();
        ds.try_apply_delta(&d).unwrap();
    }
    let mut engine =
        shapex::Engine::compile(&schema, &mut ds.pool, shapex::EngineConfig::default()).unwrap();
    let typing = engine.type_all_par(&ds.graph, &ds.pool, 1);
    let mut doc = ReportDoc::new("typing", "derivative");
    push_typing_rows(&mut doc, &mut engine, &ds.graph, &ds.pool, &typing);
    let conforms = (!typing.is_partial()).then_some(true);
    finish_engine_doc(doc, &engine, 0, conforms)
}

#[test]
fn validate_is_byte_identical_to_cli_report() {
    let _guard = test_lock();
    let handle = serve_fixture(local_config());
    let response = request(&handle, "POST", "/validate", "");
    assert_eq!(response.status, 200);
    assert_eq!(response.header("X-Shapex-Exit"), Some("0"));
    assert_eq!(response.body, reference_report());
    // A second request is served from the warm memo — still identical.
    let again = request(&handle, "POST", "/validate", "");
    assert_eq!(again.body, response.body);
    handle.shutdown();
}

#[test]
fn health_stats_and_errors() {
    let _guard = test_lock();
    let handle = serve_fixture(local_config());

    let health = request(&handle, "GET", "/health", "");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"ok\""));

    let stats = request(&handle, "GET", "/stats", "");
    assert_eq!(stats.status, 200);
    let v: serde_json::Value = serde_json::from_str(&stats.body).expect("stats JSON");
    let graphs = v.get("graphs").expect("graphs block");
    let entry = graphs.get("default").expect("default entry");
    assert_eq!(entry.get("healthy").and_then(|h| h.as_bool()), Some(true));
    assert_eq!(
        entry.get("triples").and_then(|t| t.as_u64()),
        Some(8),
        "fixture graph has 8 triples"
    );

    let missing = request(&handle, "POST", "/validate?id=nope", "");
    assert_eq!(missing.status, 404);

    let bad_map = request(&handle, "POST", "/map", "not a shape map @@@");
    assert_eq!(bad_map.status, 422);

    let unknown = request(&handle, "GET", "/nowhere", "");
    assert_eq!(unknown.status, 404);

    handle.shutdown();
}

#[test]
fn map_endpoint_reports_expectations() {
    let _guard = test_lock();
    let handle = serve_fixture(local_config());
    let map = "<http://example.org/john>@<Person>, <http://example.org/mary>@!<Person>";
    let response = request(&handle, "POST", "/map", map);
    assert_eq!(response.status, 200);
    assert_eq!(response.header("X-Shapex-Exit"), Some("0"));
    let v: serde_json::Value = serde_json::from_str(&response.body).expect("map JSON");
    assert_eq!(v.get("mode").and_then(|m| m.as_str()), Some("map"));
    assert_eq!(v.get("conforms").and_then(|c| c.as_bool()), Some(true));
    handle.shutdown();
}

#[test]
fn delta_endpoint_applies_and_revalidates() {
    let _guard = test_lock();
    let handle = serve_fixture(local_config());
    let response = request(&handle, "POST", "/delta", DELTA);
    assert_eq!(response.status, 200, "body: {}", response.body);
    let v: serde_json::Value = serde_json::from_str(&response.body).expect("delta JSON");
    assert_eq!(v.get("mode").and_then(|m| m.as_str()), Some("delta"));
    let block = v.get("delta").expect("delta block");
    assert_eq!(block.get("added").and_then(|n| n.as_u64()), Some(1));
    assert_eq!(block.get("removed").and_then(|n| n.as_u64()), Some(1));
    // After the repair delta, every node conforms.
    let after = v.get("after").expect("after report");
    assert_eq!(after.get("conforms").and_then(|c| c.as_bool()), Some(true));

    // A malformed delta is refused without disturbing the graph.
    let bad = request(&handle, "POST", "/delta", "* not an op line .");
    assert_eq!(bad.status, 422);

    // Replaying the same delta is set-idempotent: the graph already looks
    // exactly like the delta was applied, so it is accepted unchanged.
    let replay = request(&handle, "POST", "/delta", DELTA);
    assert_eq!(replay.status, 200, "body: {}", replay.body);

    handle.shutdown();
}

#[test]
fn load_registers_new_entries() {
    let _guard = test_lock();
    let handle = serve_fixture(local_config());
    let body = serde_json::to_string(&serde_json::json!({
        "schema": SCHEMA,
        "data": DATA,
    }))
    .unwrap();
    let response = request(&handle, "POST", "/load?id=second", &body);
    assert_eq!(response.status, 200, "body: {}", response.body);
    let validate = request(&handle, "POST", "/validate?id=second", "");
    assert_eq!(validate.status, 200);
    assert_eq!(validate.body, reference_report());

    // A broken schema is refused and the id stays unregistered.
    let broken = serde_json::to_string(&serde_json::json!({
        "schema": "<Person> { junk",
        "data": DATA,
    }))
    .unwrap();
    let refused = request(&handle, "POST", "/load?id=broken", &broken);
    assert_eq!(refused.status, 422);
    let missing = request(&handle, "POST", "/validate?id=broken", "");
    assert_eq!(missing.status, 404);

    handle.shutdown();
}

const SHACL_SHAPES: &str = include_str!("../../../fixtures/shacl/shapes.ttl");
const SHACL_DATA: &str = include_str!("../../../fixtures/shacl/data.ttl");

/// The report the CLI prints for `validate --shacl shapes.ttl data.ttl
/// --report json --jobs 1` over the same fixture — built through the same
/// front-end crate, so `/validate` on a SHACL entry must match it byte
/// for byte.
fn shacl_reference_report(config: &ServerConfig) -> String {
    let shapes = shapex_rdf::turtle::parse(SHACL_SHAPES).unwrap();
    let schema = shapex_shacl::compile(&shapes).unwrap();
    let mut ds = shapex_rdf::turtle::parse(SHACL_DATA).unwrap();
    let mut validator =
        shapex_shacl::ShaclValidator::new(schema, &mut ds.pool, config.engine_config()).unwrap();
    let outcome = validator.validate_par(&mut ds, 1);
    shapex_shacl::shacl_report(&outcome, validator.engine())
}

#[test]
fn shacl_entry_validates_and_refuses_map_delta() {
    let _guard = test_lock();
    let config = local_config();
    let reference = shacl_reference_report(&config);
    let handle = serve_fixture(config);

    let body = serde_json::to_string(&serde_json::json!({
        "schema": SHACL_SHAPES,
        "data": SHACL_DATA,
        "schema_format": "shacl",
    }))
    .unwrap();
    let loaded = request(&handle, "POST", "/load?id=shapes", &body);
    assert_eq!(loaded.status, 200, "body: {}", loaded.body);

    // The fixture carries three violations: sh:ValidationReport JSON,
    // exit 2 in the header, bytes identical to the CLI path.
    let validate = request(&handle, "POST", "/validate?id=shapes", "");
    assert_eq!(validate.status, 200);
    assert_eq!(validate.header("X-Shapex-Exit"), Some("2"));
    assert_eq!(validate.body, reference);

    // Shape maps address ShEx labels; deltas transplant engine-level
    // verdicts. Both are refused on a SHACL entry with 422, and the
    // entry keeps serving afterwards.
    let map = request(&handle, "POST", "/map?id=shapes", "<x>@<y>");
    assert_eq!(map.status, 422, "body: {}", map.body);
    let delta = request(&handle, "POST", "/delta?id=shapes", DELTA);
    assert_eq!(delta.status, 422, "body: {}", delta.body);
    let again = request(&handle, "POST", "/validate?id=shapes", "");
    assert_eq!(again.body, reference);

    // An unsupported SHACL term is refused at load, never served vacuously.
    let sparql = serde_json::to_string(&serde_json::json!({
        "schema": "@prefix sh: <http://www.w3.org/ns/shacl#> .\n\
                   @prefix ex: <http://example.org/> .\n\
                   ex:S a sh:NodeShape ; sh:targetClass ex:T ;\n\
                        sh:sparql ex:Q .",
        "data": SHACL_DATA,
        "schema_format": "shacl",
    }))
    .unwrap();
    let refused = request(&handle, "POST", "/load?id=sparql", &sparql);
    assert_eq!(refused.status, 422, "body: {}", refused.body);
    assert!(refused.body.contains("E001"), "body: {}", refused.body);

    handle.shutdown();
}

/// SCHEMA plus a new shape, with `<Person>` byte-identical — re-loading
/// over the same data takes the warm path and transplants every Person
/// verdict into the new engine.
const SCHEMA_V2: &str = "\
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>

<Person> {
  foaf:age xsd:integer
  , foaf:name xsd:string+
  , foaf:knows @<Person>*
}

<Named> {
  foaf:name .+
  , foaf:age .*
  , foaf:knows .*
}
";

/// The typing rows and conforms flag of a report document — the part of
/// the warm-swap contract that must match a cold build (cumulative
/// `stats` legitimately differ: a warm engine counts transplanted pairs,
/// a cold one counts the node checks that recomputed them).
fn typing_of(body: &str) -> (serde_json::Value, serde_json::Value) {
    let v: serde_json::Value = serde_json::from_str(body).expect("report JSON");
    (
        v.get("results").cloned().expect("results member"),
        v.get("conforms").cloned().expect("conforms member"),
    )
}

/// `graphs.default` of a `/stats` response.
fn default_entry(stats_body: &str) -> serde_json::Value {
    let v: serde_json::Value = serde_json::from_str(stats_body).expect("stats JSON");
    v.get("graphs")
        .and_then(|g| g.get("default"))
        .cloned()
        .expect("graphs.default entry")
}

#[test]
fn reload_same_data_swaps_schema_warm() {
    let _guard = test_lock();
    let handle = serve_fixture(local_config());
    // Warm the memo, then grow a delta log — in-memory state a cold
    // rebuild would have to reconstruct from sources.
    assert_eq!(request(&handle, "POST", "/validate", "").status, 200);
    assert_eq!(request(&handle, "POST", "/delta", DELTA).status, 200);

    // Re-register the same id over the same data with a grown schema.
    let body = serde_json::to_string(&serde_json::json!({
        "schema": SCHEMA_V2,
        "data": DATA,
    }))
    .unwrap();
    let reload = request(&handle, "POST", "/load?id=default", &body);
    assert_eq!(reload.status, 200, "body: {}", reload.body);

    // The graph and delta log survived the swap, and the unchanged
    // <Person> shape's verdicts were transplanted into the new engine.
    let stats = request(&handle, "GET", "/stats", "");
    let entry = default_entry(&stats.body);
    assert_eq!(
        entry.get("deltas_applied").and_then(|n| n.as_u64()),
        Some(1),
        "delta log kept"
    );
    assert_eq!(
        entry.get("triples").and_then(|n| n.as_u64()),
        Some(8),
        "repaired graph kept"
    );
    let reused = entry
        .get("stats")
        .and_then(|s| s.get("reused_pairs"))
        .and_then(|n| n.as_u64())
        .unwrap();
    assert!(
        reused >= 3,
        "john, bob, mary × <Person> transplanted, got {reused}"
    );
    assert_eq!(
        entry
            .get("metrics")
            .and_then(|m| m.get("delta"))
            .and_then(|d| d.get("reused"))
            .and_then(|n| n.as_u64()),
        Some(reused),
        "the metrics block mirrors stats.reused_pairs"
    );

    // The warm engine's typing is identical to a from-scratch build of
    // the new schema over the delta-repaired graph.
    let warm = request(&handle, "POST", "/validate", "");
    assert_eq!(warm.status, 200);
    let cold = reference_report_for(SCHEMA_V2, &[DELTA]);
    assert_eq!(typing_of(&warm.body), typing_of(&cold));

    // A broken replacement schema is refused with the entry unharmed:
    // the taken slot is restored and keeps serving the previous schema.
    let broken = serde_json::to_string(&serde_json::json!({
        "schema": "<Person> { junk",
        "data": DATA,
    }))
    .unwrap();
    let refused = request(&handle, "POST", "/load?id=default", &broken);
    assert_eq!(refused.status, 422);
    let still = request(&handle, "POST", "/validate", "");
    assert_eq!(still.status, 200);
    assert_eq!(typing_of(&still.body), typing_of(&cold));

    // Re-loading with *different* data takes the cold path: fresh graph,
    // empty delta log.
    let other_data = format!("{DATA}\n:extra foaf:age 1 .\n");
    let cold_body = serde_json::to_string(&serde_json::json!({
        "schema": SCHEMA,
        "data": other_data,
    }))
    .unwrap();
    let cold_reload = request(&handle, "POST", "/load?id=default", &cold_body);
    assert_eq!(cold_reload.status, 200, "body: {}", cold_reload.body);
    let stats = request(&handle, "GET", "/stats", "");
    let entry = default_entry(&stats.body);
    assert_eq!(
        entry.get("deltas_applied").and_then(|n| n.as_u64()),
        Some(0),
        "delta log reset"
    );
    assert_eq!(
        entry
            .get("stats")
            .and_then(|s| s.get("reused_pairs"))
            .and_then(|n| n.as_u64()),
        Some(0),
        "cold build"
    );

    handle.shutdown();
}

#[test]
fn wave_records_describe_only_the_latest_run() {
    let _guard = test_lock();
    let config = ServerConfig {
        jobs: 2,
        ..local_config()
    };
    // Enough subjects that a jobs-2 typing takes the parallel path.
    let mut data = DATA.to_string();
    for i in 0..20 {
        data.push_str(&format!(":p{i} foaf:age {i}; foaf:name \"P{i}\" .\n"));
    }
    let registry = Arc::new(Registry::new());
    registry
        .load(
            "default",
            SCHEMA.to_string(),
            shapex_server::registry::SchemaFormat::Shex,
            data,
            shapex_server::registry::DataFormat::Turtle,
            config.engine_config(),
            config.jobs,
        )
        .expect("loading entry");
    let handle = start(config, registry).expect("starting server");
    let waves: Vec<usize> = (0..3)
        .map(|_| {
            let response = request(&handle, "POST", "/validate", "");
            assert_eq!(response.status, 200);
            let doc: serde_json::Value = serde_json::from_str(&response.body).expect("JSON");
            doc.get("metrics")
                .and_then(|m| m.get("waves"))
                .and_then(|w| w.as_array())
                .expect("metrics.waves")
                .len()
        })
        .collect();
    assert!(waves[0] > 0, "the jobs-2 entry typed sequentially");
    assert_eq!(waves, vec![waves[0]; 3], "wave records accumulated");
    handle.shutdown();
}

/// Reads exactly one response off a persistent connection, framing by
/// `Content-Length` (unlike [`request`], which reads to EOF and therefore
/// only works on `Connection: close` conversations).
fn read_framed_response(stream: &mut TcpStream) -> Response {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("reading response header");
        assert!(n > 0, "EOF mid-header after {} bytes", head.len());
        head.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&head).into_owned();
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .expect("status line")
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    let length: usize = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.parse().expect("numeric Content-Length"))
        .expect("Content-Length header");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("reading framed body");
    Response {
        status,
        headers,
        body: String::from_utf8_lossy(&body).into_owned(),
    }
}

#[test]
fn keep_alive_serves_multiple_requests_on_one_connection() {
    let _guard = test_lock();
    let handle = serve_fixture(local_config());
    let mut stream = TcpStream::connect(handle.addr()).expect("connecting");

    // Two keep-alive requests ride the same socket, each answered with
    // `Connection: keep-alive` and the full CLI-identical report.
    for _ in 0..2 {
        stream
            .write_all(
                b"POST /validate HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n",
            )
            .expect("writing keep-alive request");
        let response = read_framed_response(&mut stream);
        assert_eq!(response.status, 200);
        assert_eq!(response.header("Connection"), Some("keep-alive"));
        assert_eq!(response.body, reference_report());
    }

    // A request *without* the opt-in header is answered with
    // `Connection: close` and the server hangs up — the pre-keep-alive
    // contract, unchanged for clients that read to EOF.
    stream
        .write_all(b"GET /health HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
        .expect("writing final request");
    let mut rest = String::new();
    stream
        .read_to_string(&mut rest)
        .expect("reading to server-side close");
    assert!(rest.contains(" 200 "), "final response: {rest}");
    assert!(rest.contains("Connection: close"), "final response: {rest}");

    handle.shutdown();
}

#[test]
fn keep_alive_idle_connections_time_out() {
    let _guard = test_lock();
    let handle = serve_fixture(local_config());
    let mut stream = TcpStream::connect(handle.addr()).expect("connecting");
    stream
        .write_all(
            b"GET /health HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n",
        )
        .expect("writing request");
    let response = read_framed_response(&mut stream);
    assert_eq!(response.status, 200);
    // Then go idle: the server must hang up on its own within the idle
    // timeout instead of pinning a pool slot forever.
    let mut rest = Vec::new();
    stream
        .set_read_timeout(Some(shapex_server::KEEPALIVE_IDLE * 4))
        .unwrap();
    let n = stream
        .read_to_end(&mut rest)
        .expect("awaiting server close");
    assert_eq!(n, 0, "server should close an idle keep-alive connection");
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains() {
    let _guard = test_lock();
    let handle = serve_fixture(local_config());
    // In-flight work completes before shutdown() returns and the port is
    // released afterwards.
    let response = request(&handle, "POST", "/validate", "");
    assert_eq!(response.status, 200);
    let addr = handle.addr();
    handle.shutdown();
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener should be closed after drain"
    );
}

#[cfg(feature = "fail-inject")]
mod fail_inject {
    use super::*;
    use shapex::failpoint::{self, Action};
    use std::time::Duration;

    /// An injected panic in the typing wave quarantines only that entry;
    /// the rebuilt engine answers byte-identically to a fresh one and the
    /// server keeps serving throughout.
    #[test]
    fn typing_wave_panic_quarantines_and_rebuilds() {
        let _guard = test_lock();
        failpoint::reset();
        let handle = serve_fixture(local_config());
        // A second entry that must stay untouched by the quarantine.
        let body = serde_json::to_string(&serde_json::json!({
            "schema": SCHEMA,
            "data": DATA,
        }))
        .unwrap();
        assert_eq!(
            request(&handle, "POST", "/load?id=other", &body).status,
            200
        );

        failpoint::set("typing-wave", Action::Panic, Some(1));
        let hit = request(&handle, "POST", "/validate", "");
        failpoint::reset();
        assert_eq!(hit.status, 500);
        let v: serde_json::Value = serde_json::from_str(&hit.body).expect("panic JSON");
        assert_eq!(v.get("quarantined").and_then(|b| b.as_bool()), Some(true));
        assert_eq!(v.get("rebuilt").and_then(|b| b.as_bool()), Some(true));

        // The other entry was never disturbed.
        let other = request(&handle, "POST", "/validate?id=other", "");
        assert_eq!(other.status, 200);

        // The rebuilt engine answers exactly like a from-scratch engine.
        let recovered = request(&handle, "POST", "/validate", "");
        assert_eq!(recovered.status, 200);
        assert_eq!(recovered.body, reference_report());

        // The quarantine and rebuild are visible in /stats.
        let stats = request(&handle, "GET", "/stats", "");
        let v: serde_json::Value = serde_json::from_str(&stats.body).unwrap();
        let entry = v
            .get("graphs")
            .and_then(|g| g.get("default"))
            .expect("default entry");
        assert_eq!(entry.get("healthy").and_then(|b| b.as_bool()), Some(true));
        assert_eq!(entry.get("quarantines").and_then(|n| n.as_u64()), Some(1));
        assert_eq!(entry.get("rebuilds").and_then(|n| n.as_u64()), Some(1));

        handle.shutdown();
    }

    /// A worker killed mid-epoch under the work-stealing scheduler
    /// (`jobs: 2`, so typing runs as parallel epochs on the shared
    /// request pool): the panic propagates off the pool thread to the
    /// request, the entry quarantines, and the rebuild's differential
    /// check — which types at the same `jobs` — still certifies a
    /// byte-identical replacement.
    #[test]
    fn worker_killed_mid_steal_quarantines_and_rebuilds() {
        let _guard = test_lock();
        failpoint::reset();
        let handle = serve_fixture(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 2,
            ..ServerConfig::default()
        });

        failpoint::set("typing-wave", Action::Panic, Some(1));
        let hit = request(&handle, "POST", "/validate", "");
        failpoint::reset();
        assert_eq!(hit.status, 500, "body: {}", hit.body);
        let v: serde_json::Value = serde_json::from_str(&hit.body).expect("panic JSON");
        assert_eq!(v.get("quarantined").and_then(|b| b.as_bool()), Some(true));
        assert_eq!(
            v.get("rebuilt").and_then(|b| b.as_bool()),
            Some(true),
            "parallel rebuild must pass its differential check"
        );

        // The rebuilt engine serves the same typing as the sequential
        // reference — scheduler jobs-invariance, observed end to end.
        let recovered = request(&handle, "POST", "/validate", "");
        assert_eq!(recovered.status, 200);
        assert_eq!(typing_of(&recovered.body), typing_of(&reference_report()));

        // And the pool survives the mid-epoch panic: further parallel
        // requests are served normally.
        let again = request(&handle, "POST", "/validate", "");
        assert_eq!(again.status, 200);
        assert_eq!(typing_of(&again.body), typing_of(&recovered.body));
        handle.shutdown();
    }

    /// A panic mid-way through a *second* delta request (after its triples
    /// were applied, during revalidation): the rebuild must replay only
    /// the committed delta log, discarding the half-applied state.
    #[test]
    fn rebuild_replays_the_delta_log() {
        let _guard = test_lock();
        failpoint::reset();
        let handle = serve_fixture(local_config());
        let applied = request(&handle, "POST", "/delta", DELTA);
        assert_eq!(applied.status, 200, "body: {}", applied.body);
        let settled = request(&handle, "POST", "/validate", "");
        assert_eq!(settled.status, 200);

        // The second delta disturbs :bob, so its revalidation must run
        // the typing wave — where the panic is waiting. The engine has
        // already mutated the graph by then; the quarantine throws that
        // half-applied state away.
        let second = "\
@prefix : <http://example.org/> .
@prefix foaf: <http://xmlns.com/foaf/0.1/> .
+ :bob foaf:knows :john .
";
        failpoint::set("typing-wave", Action::Panic, Some(1));
        let hit = request(&handle, "POST", "/delta", second);
        failpoint::reset();
        assert_eq!(hit.status, 500, "body: {}", hit.body);
        let v: serde_json::Value = serde_json::from_str(&hit.body).expect("panic JSON");
        assert_eq!(v.get("rebuilt").and_then(|b| b.as_bool()), Some(true));

        // Only the first delta was committed to the log: the rebuilt
        // engine answers byte-identically to a from-scratch engine over
        // data + first delta — the half-applied second delta is gone.
        let recovered = request(&handle, "POST", "/validate", "");
        assert_eq!(recovered.status, 200);
        assert_eq!(
            recovered.body,
            reference_report_after(&[DELTA]),
            "rebuilt engine must reconstruct the committed post-delta state"
        );
        // The verdicts (though not the engine-lifetime metrics) also match
        // the pre-panic warm engine's answers.
        let settled_v: serde_json::Value = serde_json::from_str(&settled.body).unwrap();
        let recovered_v: serde_json::Value = serde_json::from_str(&recovered.body).unwrap();
        assert_eq!(
            serde_json::to_string(settled_v.get("results").unwrap()).unwrap(),
            serde_json::to_string(recovered_v.get("results").unwrap()).unwrap(),
        );
        handle.shutdown();
    }

    /// An injected failure mid-delta rolls the graph back: the apply
    /// reports 500, and the next full report is byte-identical to the
    /// pre-delta one.
    #[test]
    fn mid_delta_failure_leaves_graph_untouched() {
        let _guard = test_lock();
        failpoint::reset();
        let handle = serve_fixture(local_config());
        let before = request(&handle, "POST", "/validate", "");
        assert_eq!(before.status, 200);

        // Fail on the second of the two delta operations.
        failpoint::set_after("delta-apply", Action::Error("disk full".into()), 1, Some(1));
        let failed = request(&handle, "POST", "/delta", DELTA);
        failpoint::reset();
        assert_eq!(failed.status, 500, "body: {}", failed.body);
        assert!(failed.body.contains("rolled back"), "body: {}", failed.body);

        let after = request(&handle, "POST", "/validate", "");
        assert_eq!(after.status, 200);
        assert_eq!(
            after.body, before.body,
            "failed delta must not disturb the graph"
        );

        // The delta still applies cleanly once the fault is gone.
        let retry = request(&handle, "POST", "/delta", DELTA);
        assert_eq!(retry.status, 200, "body: {}", retry.body);
        handle.shutdown();
    }

    /// With one worker pinned by a slow request and a queue of one, the
    /// acceptor sheds the overflow with `503` + `Retry-After` instead of
    /// buffering without bound.
    #[test]
    fn saturation_sheds_load_with_503() {
        let _guard = test_lock();
        failpoint::reset();
        let handle = serve_fixture(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue: 1,
            ..ServerConfig::default()
        });
        // Pin the single worker for a while.
        failpoint::set(
            "typing-wave",
            Action::Delay(Duration::from_millis(800)),
            Some(1),
        );
        let addr = handle.addr();
        let pinned = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(b"POST /validate HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
                .unwrap();
            let mut out = String::new();
            stream.read_to_string(&mut out).unwrap();
            out
        });
        std::thread::sleep(Duration::from_millis(150));

        // A concurrent burst: the queue holds one connection, the worker
        // is pinned, so most of the burst must be shed with 503. The
        // acceptor closes a shed socket without reading the request, so a
        // client mid-write can see a connection reset instead of the 503
        // — either way the connection was refused admission.
        let burst: Vec<_> = (0..6)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    if stream
                        .write_all(b"GET /health HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
                        .is_err()
                    {
                        return "RESET".to_string();
                    }
                    let mut out = String::new();
                    match stream.read_to_string(&mut out) {
                        Ok(_) => out,
                        Err(_) if out.is_empty() => "RESET".to_string(),
                        Err(_) => out,
                    }
                })
            })
            .collect();
        let outcomes: Vec<String> = burst.into_iter().map(|t| t.join().unwrap()).collect();
        let shed = outcomes
            .iter()
            .filter(|o| o.contains(" 503 ") || *o == "RESET")
            .count() as u64;
        let pinned_out = pinned.join().unwrap();
        failpoint::reset();
        assert!(
            pinned_out.contains("200 OK"),
            "pinned request should still complete"
        );
        assert!(shed > 0, "expected load shedding, outcomes: {outcomes:?}");
        for o in outcomes.iter().filter(|o| o.contains(" 503 ")) {
            assert!(o.contains("Retry-After: 1"), "shed response: {o}");
        }

        // After the load passes, service is back to normal.
        let after = request(&handle, "POST", "/validate", "");
        assert_eq!(after.status, 200);
        let stats = request(&handle, "GET", "/stats", "");
        let v: serde_json::Value = serde_json::from_str(&stats.body).unwrap();
        let total_shed = v
            .get("server")
            .and_then(|s| s.get("shed"))
            .and_then(|n| n.as_u64())
            .expect("shed counter");
        assert!(total_shed >= shed);
        handle.shutdown();
    }
}

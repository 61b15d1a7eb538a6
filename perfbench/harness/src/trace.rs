//! The traced run: the layers of a batch validation and of the service's
//! handlers, called in-process with a span around each call.
//!
//! The batch chain is the one `shapex validate --report json` runs:
//!
//! ```text
//! fs read → ntriples::parse_par → shexc::parse → Engine::compile
//!   → type_all_par → push_typing_rows → finish_engine_doc → drop
//! ```
//!
//! The service part loads the resident entry into a `Registry`, replays
//! the client's request bodies through `Registry::map`/`delta`, replays
//! them once more through the engine calls the `/delta` handler makes,
//! and finally sends reads over HTTP to time the transport. Spans stay in
//! memory; each carries its parent, and a span's self time is its length
//! minus its children's. The roots' self time is reported as
//! `unattributed`.

use std::collections::HashMap;
use std::fs;
use std::sync::Arc;
use std::time::Instant;

use serde_json::{json, Map, Value};
use shapex::report::{finish_engine_doc, push_typing_rows, ReportDoc};
use shapex::{Engine, EngineConfig, ShapeId};
use shapex_rdf::{delta, ntriples};
use shapex_server::registry::{DataFormat, Registry, SchemaFormat};
use shapex_server::ServerConfig;
use shapex_shex::{shapemap, shexc};

use crate::gen::{Req, Traffic};
use crate::load;
use crate::Args;

/// Requests replayed through the handlers, and reads sent over HTTP.
const REPLAY_REQUESTS: usize = 200;
const HTTP_READS: usize = 50;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

/// In-memory span recorder.
struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str) {
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: Instant::now(),
            end: None,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost span and returns its length in seconds.
    fn end(&mut self) -> f64 {
        let i = self.open.pop().expect("a span is open");
        let now = Instant::now();
        self.spans[i].end = Some(now);
        (now - self.spans[i].start).as_secs_f64()
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.begin(name);
        let r = f();
        (r, self.end())
    }

    fn len(&self, i: usize) -> f64 {
        let s = &self.spans[i];
        (s.end.expect("span closed") - s.start).as_secs_f64()
    }

    /// Per name: calls, total and self time. Root spans' self time is the
    /// unattributed remainder. Returns the table, the roots' total and
    /// the unattributed total.
    fn table(&self) -> (Value, f64, f64) {
        let mut child = vec![0.0; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child[p] += self.len(i);
            }
        }
        let mut rows: Vec<(&str, usize, f64, f64)> = Vec::new();
        let (mut wall, mut unattributed) = (0.0, 0.0);
        for (i, s) in self.spans.iter().enumerate() {
            let own = self.len(i) - child[i];
            if s.parent.is_none() {
                wall += self.len(i);
                unattributed += own;
                continue;
            }
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += self.len(i);
                    r.3 += own;
                }
                None => rows.push((s.name, 1, self.len(i), own)),
            }
        }
        let table = rows
            .iter()
            .map(|(name, calls, total, own)| {
                json!({"name": *name, "calls": *calls, "total_s": *total, "self_s": *own})
            })
            .collect();
        (Value::Array(table), wall, unattributed)
    }
}

/// User plus system CPU seconds of this process so far.
fn process_cpu_s() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes a plain integer and touches no memory of ours.
    let ticks = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    f.iter().sum::<f64>() / ticks
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[derive(Default)]
struct Out {
    metrics: Map<String, Value>,
    errors: Vec<String>,
    attempted: usize,
}

impl Out {
    fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .insert(name.to_string(), json!({"value": value, "unit": unit}));
    }
}

fn read_truth(path: &str) -> Result<HashMap<(String, String), bool>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut truth = HashMap::new();
    for line in text.lines() {
        let mut f = line.split('\t');
        let (Some(node), Some(shape), Some(verdict)) = (f.next(), f.next(), f.next()) else {
            return Err(format!("{path}: bad line {line:?}"));
        };
        truth.insert((node.to_string(), shape.to_string()), verdict == "conforms");
    }
    Ok(truth)
}

/// A number of the `batch` block of `meta.json`.
fn batch_meta(meta: &Value, key: &str) -> f64 {
    meta.get("batch")
        .and_then(|b| b.get(key))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// The batch chain. Returns the traced wall time of the chain.
fn batch(tr: &mut Tracer, out: &mut Out, dir: &str, meta: &Value) -> Result<f64, String> {
    let truth = read_truth(&format!("{dir}/truth.tsv"))?;
    let jobs = shapex::default_jobs();
    let config = EngineConfig {
        metrics: true,
        ..EngineConfig::default()
    };
    tr.begin("batch");
    let (src, read_s) = tr.span("rdf.read", || fs::read_to_string(format!("{dir}/batch.nt")));
    let src = src.map_err(|e| e.to_string())?;
    let (ds, parse_s) = tr.span("rdf.ntriples.parse", || ntriples::parse_par(&src, jobs));
    let mut ds = ds.map_err(|e| e.to_string())?;
    let schema_src = fs::read_to_string(format!("{dir}/schema.shex")).map_err(|e| e.to_string())?;
    let (schema, shexc_s) = tr.span("shex.shexc.parse", || shexc::parse(&schema_src));
    let schema = schema.map_err(|e| e.to_string())?;
    let (engine, compile_s) = tr.span("core.compile", || {
        Engine::compile(&schema, &mut ds.pool, config)
    });
    let mut engine = engine.map_err(|e| e.to_string())?;
    let cpu0 = process_cpu_s();
    let (typing, type_s) = tr.span("core.type_all", || {
        engine.type_all_par(&ds.graph, &ds.pool, jobs)
    });
    let type_cpu_s = process_cpu_s() - cpu0;
    let stats = engine.stats();
    let m = engine.metrics().cloned().unwrap_or_default();
    let mut doc = ReportDoc::new("typing", "derivative");
    let ((), rows_s) = tr.span("core.report.rows", || {
        push_typing_rows(&mut doc, &mut engine, &ds.graph, &ds.pool, &typing)
    });
    let conforms = (!typing.is_partial()).then_some(true);
    let (report, render_s) = tr.span("core.report.render", || {
        finish_engine_doc(doc, &engine, 0, conforms)
    });

    // Correctness, outside the timed layers but inside the root span so
    // the teardown below still drops everything at once.
    tr.begin("bench.check");
    let shapes = engine.schema().shapes.len();
    let mut conforming = 0usize;
    let mut checked = 0usize;
    for node in ds.graph.subjects() {
        let name = ds.pool.term(node).to_string();
        for i in 0..shapes {
            let shape = ShapeId(i as u32);
            let label = engine.label_of(shape).as_str().to_string();
            let got = typing.has(node, shape);
            conforming += usize::from(got);
            checked += 1;
            if truth.get(&(name.clone(), label.clone())) != Some(&got) {
                out.errors.push(format!("batch: {name}@<{label}> is {got}"));
            }
        }
    }
    let rows = report.matches("\"verdict\": \"").count();
    if checked != truth.len() || rows != truth.len() {
        out.errors.push(format!(
            "batch: {rows} report rows and {checked} pairs, ground truth has {}",
            truth.len()
        ));
    }
    let triples = batch_meta(meta, "triples") as usize;
    if ds.graph.len() != triples {
        out.errors.push(format!(
            "batch: parsed {} triples, generated {triples}",
            ds.graph.len()
        ));
    }
    out.attempted += 1;
    tr.end();

    let (pool_terms, graph_triples, report_bytes) = (ds.pool.len(), ds.graph.len(), report.len());
    let ((), teardown_s) = tr.span("rdf.teardown", move || {
        drop((ds, engine, report, src, typing))
    });
    let wall = tr.end();

    out.put("rdf.read_s", read_s, "s");
    out.put("rdf.ntriples.parse_s", parse_s, "s");
    out.put(
        "rdf.ntriples.mb_per_s",
        ratio(batch_meta(meta, "bytes") / 1e6, parse_s),
        "MB/s",
    );
    out.put("rdf.pool.terms", pool_terms as f64, "count");
    out.put("rdf.graph.triples", graph_triples as f64, "count");
    out.put("rdf.teardown_s", teardown_s, "s");
    out.put("shex.shexc.parse_s", shexc_s, "s");
    out.put("core.compile_s", compile_s, "s");
    out.put("core.type_all_s", type_s, "s");
    out.put("core.type_all_cpu_s", type_cpu_s, "s");
    let shards = m.waves.iter().flat_map(|w| w.shards.iter());
    let (busy, idle) = shards.fold((0u64, 0u64), |(b, i), s| (b + s.busy_us, i + s.idle_us));
    let steals: u64 = m.waves.iter().map(|w| w.steals).sum();
    let attempts: u64 = m.waves.iter().map(|w| w.steal_attempts).sum();
    out.put(
        "core.sched.busy_frac",
        ratio(busy as f64, (busy + idle) as f64),
        "ratio",
    );
    out.put(
        "core.sched.steal_ratio",
        ratio(steals as f64, attempts as f64),
        "ratio",
    );
    out.put(
        "core.sched.reseeded_pairs",
        m.waves.iter().map(|w| w.reseeded_pairs).sum::<u64>() as f64,
        "count",
    );
    out.put("core.sched.epochs", m.waves.len() as f64, "count");
    out.put("core.gfp_reruns", stats.gfp_reruns as f64, "count");
    out.put("core.node_checks", stats.node_checks as f64, "count");
    out.put("core.sorbe_checks", stats.sorbe_checks as f64, "count");
    out.put("core.budget_steps", stats.budget_steps as f64, "count");
    out.put(
        "core.derivative_steps",
        stats.derivative_steps as f64,
        "count",
    );
    out.put("core.dfa.states", m.dfa_states as f64, "count");
    out.put(
        "core.dfa.hit_ratio",
        ratio(m.dfa_table.hits as f64, m.dfa_table.lookups as f64),
        "ratio",
    );
    out.put(
        "core.head_index.candidates_per_query",
        ratio(m.head_index_candidates as f64, m.head_index_queries as f64),
        "ratio",
    );
    out.put("core.report.rows_s", rows_s, "s");
    out.put(
        "core.report.failure_traces",
        (rows - conforming) as f64,
        "count",
    );
    out.put("core.report.render_s", render_s, "s");
    out.put("core.report.bytes", report_bytes as f64, "bytes");
    out.put("bench.dfa_lookups", m.dfa_table.lookups as f64, "count");
    Ok(wall)
}

fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// The service part: registry load and replay, engine-call replay, HTTP.
fn service(tr: &mut Tracer, out: &mut Out, args: &Args, dir: &str) -> Result<(), String> {
    let w = args.workload()?;
    let seed = args.seed()?;
    let (_, service_n) = w.sizes(args.smoke());
    let graph = w.graph(service_n, seed.wrapping_add(1));
    let schema_src = fs::read_to_string(format!("{dir}/schema.shex")).map_err(|e| e.to_string())?;
    let data_src = fs::read_to_string(format!("{dir}/service.nt")).map_err(|e| e.to_string())?;
    let config = ServerConfig::default();
    let requests: Vec<Req> = {
        // The bodies of the first timed segment of an untimed run.
        let mut t = Traffic::for_round(&graph, seed, 1);
        let mut v: Vec<Req> = (0..REPLAY_REQUESTS).map(|_| t.next()).collect();
        v.extend(t.flush());
        v
    };

    tr.begin("service");
    let registry = Arc::new(Registry::new());
    let (loaded, load_s) = tr.span("server.registry.load", || {
        registry.load(
            "default",
            schema_src.clone(),
            SchemaFormat::Shex,
            data_src.clone(),
            DataFormat::NTriples,
            config.engine_config(),
            config.jobs,
        )
    });
    loaded?;
    tr.span("server.registry.validate", || registry.validate("default"));
    let (mut map_ms, mut delta_ms, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for req in &requests {
        let (resp, secs) = match req {
            Req::Map(m) => tr.span("server.registry.map", || registry.map("default", &m.body)),
            Req::Delta(d) => tr.span("server.registry.delta", || {
                registry.delta("default", &d.body)
            }),
        };
        match req {
            Req::Map(_) => map_ms.push(secs * 1e3),
            Req::Delta(_) => delta_ms.push(secs * 1e3),
        }
        bytes.push(resp.body.len() as f64);
        out.attempted += 1;
        let resp = load::Response {
            status: resp.status,
            exit: Some(resp.exit),
            body: resp.body,
        };
        if let Err(e) = load::verify(req, &resp) {
            out.errors.push(format!("registry replay: {e}"));
        }
    }

    // The same bodies through the engine calls the handlers make.
    tr.begin("core.engine_replay");
    let mut ds = ntriples::parse(&data_src).map_err(|e| e.to_string())?;
    let schema = shexc::parse(&schema_src).map_err(|e| e.to_string())?;
    let mut engine = Engine::compile(&schema, &mut ds.pool, config.engine_config())
        .map_err(|e| e.to_string())?;
    let typing = engine.type_all_par(&ds.graph, &ds.pool, config.jobs);
    push_typing_rows(
        &mut ReportDoc::new("typing", "derivative"),
        &mut engine,
        &ds.graph,
        &ds.pool,
        &typing,
    );
    let (mut vmap_ms, mut dparse_ms, mut apply_ms, mut reval_ms) = (vec![], vec![], vec![], vec![]);
    let (mut reused, mut retyped, mut invalidated) = (0u64, 0u64, Vec::new());
    for req in &requests {
        match req {
            Req::Map(m) => {
                let map = shapemap::parse(&m.body).map_err(|e| e.to_string())?;
                let (r, s) = tr.span("core.validate_map", || {
                    engine.validate_map(&ds.graph, &mut ds.pool, &map)
                });
                r.map_err(|e| e.to_string())?;
                vmap_ms.push(s * 1e3);
            }
            Req::Delta(d) => {
                let (parsed, s) =
                    tr.span("rdf.delta.parse", || delta::parse(&d.body, &mut ds.pool));
                let parsed = parsed.map_err(|e| e.to_string())?;
                dparse_ms.push(s * 1e3);
                let before_typing = tr
                    .span("core.type_all", || {
                        engine.type_all_par(&ds.graph, &ds.pool, config.jobs)
                    })
                    .0;
                let mut before = ReportDoc::new("typing", "derivative");
                tr.span("core.report.rows", || {
                    push_typing_rows(
                        &mut before,
                        &mut engine,
                        &ds.graph,
                        &ds.pool,
                        &before_typing,
                    )
                });
                let s0 = engine.stats();
                tr.begin("core.revalidate");
                let plan = engine.plan_invalidation(&parsed);
                let (applied, s) = tr.span("rdf.graph.apply_delta", || ds.try_apply_delta(&parsed));
                applied.map_err(|e| e.to_string())?;
                apply_ms.push(s * 1e3);
                let after_typing = engine
                    .revalidate_par_planned(&ds.graph, &ds.pool, &parsed, plan, config.jobs)
                    .map_err(|e| e.to_string())?;
                reval_ms.push(tr.end() * 1e3 - s * 1e3);
                let s1 = engine.stats();
                reused += s1.reused_pairs - s0.reused_pairs;
                retyped += s1.retyped_pairs - s0.retyped_pairs;
                invalidated.push((s1.invalidated_pairs - s0.invalidated_pairs) as f64);
                let mut after = ReportDoc::new("typing", "derivative");
                tr.span("core.report.rows", || {
                    push_typing_rows(&mut after, &mut engine, &ds.graph, &ds.pool, &after_typing)
                });
                tr.span("core.report.render", || {
                    let mut doc = ReportDoc::new("delta", "derivative");
                    doc.set("before", before.finish(Some(true)));
                    doc.set("after", after.finish(Some(true)));
                    finish_engine_doc(doc, &engine, 0, Some(true))
                });
            }
        }
    }
    tr.span("rdf.teardown", move || drop((ds, engine)));
    tr.end();

    // Reads over HTTP on one keep-alive connection, with and without the
    // client's quick ACKs.
    let server_config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    };
    let handle =
        shapex_server::start(server_config, Arc::clone(&registry)).map_err(|e| e.to_string())?;
    let addr = handle.addr().to_string();
    let http =
        |tr: &mut Tracer, out: &mut Out, quickack: bool| -> Result<(Vec<f64>, usize), String> {
            let mut conn = load::Conn::new(&addr, quickack);
            let (mut ms, mut shed) = (Vec::new(), 0);
            for req in requests
                .iter()
                .filter(|r| matches!(r, Req::Map(_)))
                .cycle()
                .take(HTTP_READS)
            {
                let Req::Map(m) = req else {
                    unreachable!("filtered to reads")
                };
                let (resp, s) = tr.span("server.http.map", || {
                    conn.send("POST", "/map?id=default", &m.body)
                });
                let resp = resp?;
                shed += usize::from(resp.status == 503);
                out.attempted += 1;
                if let Err(e) = load::verify(req, &resp) {
                    out.errors.push(format!("http: {e}"));
                }
                ms.push(s * 1e3);
            }
            Ok((ms, shed))
        };
    tr.begin("http");
    let quick = http(tr, out, true);
    let delayed = http(tr, out, false);
    tr.end();
    handle.shutdown();
    let ((quick_ms, shed_a), (delayed_ms, shed_b)) = (quick?, delayed?);
    tr.end();

    let registry_map = median(&map_ms);
    out.put("server.registry.load_s", load_s, "s");
    out.put("server.registry.map_ms", registry_map, "ms");
    out.put("server.registry.delta_ms", median(&delta_ms), "ms");
    out.put(
        "server.transport_ms",
        median(&quick_ms) - registry_map,
        "ms",
    );
    out.put(
        "server.ack_stall_ms",
        median(&delayed_ms) - median(&quick_ms),
        "ms",
    );
    out.put(
        "server.response_bytes",
        bytes.iter().sum::<f64>() / bytes.len().max(1) as f64,
        "bytes",
    );
    out.put("server.shed_503", (shed_a + shed_b) as f64, "count");
    out.put("core.validate_map_ms", median(&vmap_ms), "ms");
    out.put("rdf.delta.parse_ms", median(&dparse_ms), "ms");
    out.put("rdf.graph.apply_delta_ms", median(&apply_ms), "ms");
    out.put("core.revalidate_ms", median(&reval_ms), "ms");
    out.put(
        "core.delta.reuse_ratio",
        ratio(reused as f64, (reused + retyped) as f64),
        "ratio",
    );
    out.put(
        "core.delta.invalidated_pairs",
        median(&invalidated),
        "count",
    );
    out.put("bench.reused_pairs", reused as f64, "count");
    Ok(())
}

/// Runs `shapex validate` on the batch dump without tracing, for the
/// tracing overhead; returns the median wall time of three runs.
fn untraced_validate_s(shapex: &str, dir: &str) -> Result<f64, String> {
    let mut walls = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let status = std::process::Command::new(shapex)
            .current_dir(dir)
            .args([
                "validate",
                "--schema",
                "schema.shex",
                "--data",
                "batch.nt",
                "--report",
                "json",
            ])
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("{shapex}: {e}"))?;
        if !status.success() {
            return Err(format!("untraced validate exited with {status}"));
        }
        walls.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&walls))
}

/// Path checks: each workload stays on the code path it was chosen for.
fn path_checks(w: crate::gen::Workload, out: &mut Out) -> Value {
    let get = |name: &str| {
        out.metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let mut checks: Vec<(&str, bool)> = Vec::new();
    match w {
        crate::gen::Workload::Uniprot1m => {
            checks.push(("derivative_steps == 0", get("core.derivative_steps") == 0.0));
            checks.push((
                "sorbe_checks == node_checks",
                get("core.sorbe_checks") == get("core.node_checks"),
            ));
        }
        crate::gen::Workload::XrefRecursive => {
            checks.push((
                "sorbe_checks < node_checks",
                get("core.sorbe_checks") < get("core.node_checks"),
            ));
            checks.push(("dfa lookups > 0", get("bench.dfa_lookups") > 0.0));
            checks.push((
                "failure traces > 0",
                get("core.report.failure_traces") > 0.0,
            ));
        }
    }
    checks.push(("service reused pairs > 0", get("bench.reused_pairs") > 0.0));
    let mut result = Map::new();
    for (name, ok) in checks {
        if !ok {
            out.errors.push(format!("path check failed: {name}"));
        }
        result.insert(name.to_string(), Value::from(ok));
    }
    out.metrics.remove("bench.dfa_lookups");
    out.metrics.remove("bench.reused_pairs");
    Value::Object(result)
}

/// `trace`: prints `{metrics, spans, checks, attempted, failed, errors}`.
pub fn run(args: &Args) -> Result<Value, String> {
    let w = args.workload()?;
    let dir = args.get("dir")?;
    let shapex = args.get("shapex")?;
    let meta = serde_json::from_str(
        &fs::read_to_string(format!("{dir}/meta.json")).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("meta.json: {e}"))?;
    let mut out = Out::default();
    let mut tr = Tracer::new();
    let traced_batch_s = batch(&mut tr, &mut out, dir, &meta)?;
    service(&mut tr, &mut out, args, dir)?;
    let (spans, wall, unattributed) = tr.table();
    let attributed: f64 = spans
        .as_array()
        .map(|rows| {
            rows.iter()
                .filter_map(|r| r.get("self_s").and_then(Value::as_f64))
                .sum()
        })
        .unwrap_or(0.0);
    if ((attributed + unattributed) - wall).abs() > 1e-6 * wall.max(1.0) {
        out.errors.push(format!(
            "span self times {attributed} + unattributed {unattributed} != wall {wall}"
        ));
    }
    out.put("trace.wall_s", wall, "s");
    out.put("trace.unattributed_s", unattributed, "s");
    out.put(
        "trace.overhead_s",
        traced_batch_s - untraced_validate_s(shapex, dir)?,
        "s",
    );
    let checks = path_checks(w, &mut out);
    Ok(json!({
        "metrics": Value::Object(out.metrics),
        "spans": spans,
        "checks": checks,
        "attempted": out.attempted,
        "failed": out.errors.len(),
        "errors": Value::Array(out.errors.iter().take(20).map(Value::from).collect()),
    }))
}

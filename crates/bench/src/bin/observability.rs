//! Emits `BENCH_observability.json`: the engine's metrics block over
//! representative workloads, plus the cost of collecting it.
//!
//! ```sh
//! cargo run --release -p shapex-bench --bin observability
//! ```
//!
//! Three sequential workloads exercise the general derivative path, the
//! Example 10 growth regime, and recursive gfp typing; a fourth runs the
//! parallel `type_all_par` driver so the per-wave/per-shard records are
//! populated. Each case is timed twice — metrics off and metrics on — so
//! the JSON also documents the collection overhead the zero-cost-when-
//! disabled claim is about (timings are medians of a few reps; expect
//! noise, not statistics).

use serde_json::Value;
use shapex::{Engine, EngineConfig};
use shapex_bench::{median_us, time_us, DerivativeRun};
use shapex_shex::shexc;
use shapex_workloads::{balanced_ab, example8_neighbourhood, person_network, Topology, Workload};

const REPS: usize = 5;

fn shape_labels(engine: &Engine) -> impl Fn(usize) -> String + '_ {
    |i| {
        engine
            .label_of(shapex::ShapeId(i as u32))
            .as_str()
            .to_string()
    }
}

/// One sequential workload: metrics-off baseline vs metrics-on run, plus
/// the stats and metrics blocks from the final metered pass.
fn sequential_case(name: &str, workload: impl Fn() -> Workload, config: EngineConfig) -> Value {
    let mut off = DerivativeRun::prepare(workload(), config);
    let off_us = median_us(REPS, || {
        off.validate_all();
    });
    let mut on = DerivativeRun::prepare(
        workload(),
        EngineConfig {
            metrics: true,
            ..config
        },
    );
    let on_us = median_us(REPS, || {
        on.validate_all();
    });
    on.validate_all();
    let metrics = on
        .engine
        .metrics()
        .expect("metrics enabled")
        .to_json(&shape_labels(&on.engine));
    serde_json::json!({
        "name": name,
        "elapsed_us_metrics_off": off_us,
        "elapsed_us_metrics_on": on_us,
        "stats": on.engine.stats().to_json(),
        "metrics": metrics,
    })
}

/// The parallel typing driver over a recursive network, so the wave and
/// shard records have something to say.
fn parallel_case(jobs: usize) -> Value {
    // Fully valid network: with invalid seeds, non-conformance cascades
    // through `knows @<Person>*` and the gfp (correctly) empties the
    // typing, which would make the typed-pairs number uninformative.
    let mut w = person_network(800, Topology::Random { degree: 2 }, 0.0, 42);
    let schema = shexc::parse(&w.schema).expect("workload schema parses");
    let mut engine = Engine::compile(
        &schema,
        &mut w.dataset.pool,
        EngineConfig {
            metrics: true,
            ..EngineConfig::default()
        },
    )
    .expect("workload schema compiles");
    let mut typed_pairs = 0;
    let elapsed_us = time_us(|| {
        typed_pairs = engine
            .type_all_par(&w.dataset.graph, &w.dataset.pool, jobs)
            .len();
    });
    let metrics = engine.metrics().expect("metrics enabled");
    serde_json::json!({
        "name": "person_network_800_full_typing",
        "jobs": jobs,
        "typed_pairs": typed_pairs,
        "elapsed_us": elapsed_us,
        "waves": metrics.waves.len(),
        "stats": engine.stats().to_json(),
        "metrics": metrics.to_json(&shape_labels(&engine)),
    })
}

fn main() {
    let general = EngineConfig {
        no_sorbe: true,
        ..EngineConfig::default()
    };
    let cases = vec![
        sequential_case(
            "example8_256_general",
            || example8_neighbourhood(256),
            general,
        ),
        sequential_case(
            "balanced_ab_32",
            || balanced_ab(32),
            EngineConfig::default(),
        ),
        sequential_case(
            "person_network_500_random2",
            || person_network(500, Topology::Random { degree: 2 }, 0.1, 42),
            EngineConfig::default(),
        ),
        parallel_case(4),
    ];
    let doc = serde_json::json!({
        "generated_by": "cargo run --release -p shapex-bench --bin observability",
        "reps_per_timing": REPS as u64,
        "cases": Value::Array(cases),
    });
    let rendered = serde_json::to_string_pretty(&doc).expect("no NaN in report") + "\n";
    let path = "BENCH_observability.json";
    std::fs::write(path, &rendered).expect("write BENCH_observability.json");
    for case in doc.get("cases").and_then(|c| c.as_array()).unwrap() {
        let name = case.get("name").and_then(|n| n.as_str()).unwrap();
        match (
            case.get("elapsed_us_metrics_off").and_then(|v| v.as_u64()),
            case.get("elapsed_us_metrics_on").and_then(|v| v.as_u64()),
        ) {
            (Some(off), Some(on)) => println!("{name}: {off} µs off / {on} µs on"),
            _ => println!(
                "{name}: {} µs ({} waves)",
                case.get("elapsed_us").and_then(|v| v.as_u64()).unwrap_or(0),
                case.get("waves").and_then(|v| v.as_u64()).unwrap_or(0),
            ),
        }
    }
    println!("wrote {path}");
}

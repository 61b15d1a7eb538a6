//! `perfbench-harness` — the compiled half of the shapex benchmark.
//!
//! ```text
//! perfbench-harness gen   --workload W --seed N --out DIR [--smoke]
//! perfbench-harness load  --workload W --seed N --addr HOST:PORT --rate R --seconds S
//!                         --limit-ms L --round K [--warmup] [--smoke]
//! perfbench-harness trace --workload W --seed N --dir DIR --shapex BIN [--smoke]
//! ```
//!
//! `gen` writes the batch dump, the resident entry, the schema and the
//! ground truth; `load` drives a running `shapex serve` open-loop;
//! `trace` runs the batch chain and the service handlers in-process with a
//! span around each layer call. Each prints one JSON object on stdout.
//! `perfbench/run.py` calls them.

mod gen;
mod load;
mod trace;

use std::collections::HashMap;
use std::fs;
use std::process::ExitCode;

use serde_json::json;

use gen::Workload;

struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument '{a}'"));
            };
            if matches!(name, "smoke" | "warmup") {
                flags.push(name.to_string());
                continue;
            }
            let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            values.insert(name.to_string(), v.clone());
        }
        Ok(Args { values, flags })
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        self.values
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn workload(&self) -> Result<Workload, String> {
        Workload::from_name(self.get("workload")?)
    }

    fn seed(&self) -> Result<u64, String> {
        self.get("seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    fn smoke(&self) -> bool {
        self.flag("smoke")
    }
}

/// Writes the workload's files into `--out`: `batch.nt`, `service.nt`,
/// `schema.shex`, `truth.tsv` (every `(subject, shape)` verdict of the
/// batch dump) and `meta.json` (sizes).
fn cmd_gen(args: &Args) -> Result<serde_json::Value, String> {
    let w = args.workload()?;
    let seed = args.seed()?;
    let out = args.get("out")?;
    fs::create_dir_all(out).map_err(|e| format!("{out}: {e}"))?;
    let write = |name: &str, data: &str| {
        let path = format!("{out}/{name}");
        fs::write(&path, data).map_err(|e| format!("{path}: {e}"))
    };
    let (batch_n, service_n) = w.sizes(args.smoke());
    let schema = w.schema();
    write("schema.shex", &schema)?;
    let batch = w.graph(batch_n, seed);
    write("batch.nt", &batch.nt)?;
    write("truth.tsv", &batch.truth_tsv())?;
    let service = w.graph(service_n, seed.wrapping_add(1));
    write("service.nt", &service.nt)?;
    let meta = json!({
        "workload": w.name(),
        "seed": seed,
        "batch": {
            "proteins": batch_n,
            "subjects": batch.subjects.len(),
            "triples": batch.triples,
            "bytes": batch.nt.len(),
            "shapes": batch.shapes.len(),
        },
        "service": {
            "proteins": service_n,
            "subjects": service.subjects.len(),
            "triples": service.triples,
            "bytes": service.nt.len(),
        },
    });
    write(
        "meta.json",
        &serde_json::to_string_pretty(&meta).expect("meta JSON"),
    )?;
    Ok(meta)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("usage: perfbench-harness (gen|load|trace) --workload W --seed N ...");
        return ExitCode::from(2);
    };
    let result = Args::parse(rest).and_then(|args| match cmd.as_str() {
        "gen" => cmd_gen(&args),
        "load" => load::run(&args),
        "trace" => trace::run(&args),
        other => Err(format!("unknown command '{other}'")),
    });
    match result {
        Ok(v) => {
            println!("{}", serde_json::to_string(&v).expect("result JSON"));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            ExitCode::FAILURE
        }
    }
}

#!/usr/bin/env python3
"""The shapex benchmark: batch validation plus a resident-service phase.

Run from the root of a shapex checkout:

    python3 perfbench/run.py --workload uniprot-1m --seed 1 --seconds 30 --trace 0

The script builds the release `shapex` binary and the benchmark harness
(`perfbench/harness`) from source, generates the workload's inputs from
the seed, and then

* with `--trace 0` times the program from outside, with tracing off:
  `shapex validate --report json` on the batch dump, repeated, and
  `shapex serve` on the resident entry under open-loop traffic;
* with `--trace 1` runs the same chain in-process with a span around each
  layer call, for the per-layer metrics.

Every output is checked against the generator's ground truth. The last
line of stdout is one JSON object: `correct`, `attempted`, `failed`,
`metrics`. Lines before it describe the environment and the raw figures.
Exit code 0: every check passed. Exit code 1 after a result line: a
verdict mismatch. Any other failure exits non-zero without a result.
See perfbench/README.md for the workloads and the metric table.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("uniprot-1m", "xref-recursive")

# Open-loop plan: the reference rate, then a ladder that multiplies it.
REF_RATE = 30.0
LADDER_FACTOR = 1.25
LADDER_RUNGS = 6
# The `/delta` tail limit that defines `slo_rate_rps`.
DELTA_LIMIT_MS = 200.0
# A service phase whose client sent requests later than this (p99) after
# they were due is invalid and is run again once.
LATENESS_LIMIT_MS = 25.0
# Server spawns whose set-up CPU time is `setup_s` (the median).
SETUP_REPS = 9
# The measured time is split into rounds of batch runs and reference
# traffic, so that every metric samples the whole run, not one stretch of
# it; the ladder follows. Shares of `--seconds`:
ROUNDS = 3
BATCH_SHARE = 0.35
REF_SHARE = 0.4
RUNG_SHARE = 0.05


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_checked(cmd, **kw):
    proc = subprocess.run(cmd, cwd=ROOT, **kw)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: command failed ({proc.returncode}): {' '.join(cmd)}")
    return proc


def build():
    """Builds the release `shapex` binary and the harness; returns their paths."""
    manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(manifest):
        raise SystemExit(f"perfbench: no shapex workspace at {ROOT}")
    # Cargo reads a relative CARGO_TARGET_DIR against its working
    # directory, ROOT; the binaries run from the work directory, so the
    # paths handed on are absolute.
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--locked", "-q",
         "--manifest-path", manifest, "-p", "shapex-cli"],
        ["cargo", "build", "--release", "--offline", "--locked", "-q",
         "--manifest-path", os.path.join(HERE, "harness", "Cargo.toml")],
    ):
        run_checked(cmd, env=env, stdout=sys.stderr)
    shapex = os.path.join(target, "release", "shapex")
    harness = os.path.join(target, "release", "perfbench-harness")
    return shapex, harness


def harness_json(harness, *args):
    out = run_checked([harness, *args], stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def median(xs):
    return statistics.median(xs)


# --------------------------------------------------------------------------
# Batch phase


def read_truth(path):
    truth = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            node, shape, verdict = line.rstrip("\n").split("\t")
            truth[(node, shape)] = verdict
    return truth


def check_report(path, truth):
    """The report's verdict rows must equal the ground truth exactly."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    rows = {(r["node"], r["shape"]): r["verdict"] for r in doc["results"]}
    if len(rows) != len(doc["results"]):
        return "duplicate (node, shape) rows"
    if rows != truth:
        wrong = [k for k in truth if rows.get(k) != truth[k]]
        extra = [k for k in rows if k not in truth]
        return f"{len(wrong)} verdicts differ from the ground truth, {len(extra)} unexpected rows"
    if doc.get("conforms") is not True:
        return "run did not complete"
    return None


def timed_validate(shapex, work, report):
    """One `shapex validate` run: wall, CPU and peak RSS of the process."""
    cmd = [shapex, "validate", "--schema", "schema.shex", "--data", "batch.nt", "--report", "json"]
    with open(report, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def batch_runs(shapex, work, truth, budget_s, runs, errors):
    """Repeats `shapex validate` for `budget_s` seconds (at least once)."""
    report = os.path.join(work, "report.json")
    start = time.perf_counter()
    while True:
        code, wall, cpu, rss = timed_validate(shapex, work, report)
        err = f"exit code {code}" if code != 0 else check_report(report, truth)
        if err:
            errors.append(f"batch run {len(runs) + 1}: {err}")
        runs.append({"wall_s": wall, "cpu_s": cpu, "rss_mb": rss})
        os.remove(report)
        if time.perf_counter() - start >= budget_s:
            return


# --------------------------------------------------------------------------
# Service phase


def http_get(addr, path):
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as s:
        s.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n".encode())
        data = b""
        while chunk := s.recv(65536):
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), body.decode()


def task_cpu_s(pid):
    """On-CPU seconds of every thread of a live process so far."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat", encoding="utf-8") as f:
                total += int(f.read().split()[0])
        except FileNotFoundError:
            pass  # the thread ended
    return total / 1e9


def spawn_server(shapex, work):
    """Starts `shapex serve` on an ephemeral port. Returns the process, its
    address, and its set-up: wall time from spawn to the first answered
    `/health`, and the CPU time the server spent until then."""
    cmd = [shapex, "serve", "--schema", "schema.shex", "--data", "service.nt",
           "--addr", "127.0.0.1:0"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=work, stderr=subprocess.PIPE, text=True)
    addr = None
    for line in proc.stderr:
        if "listening on" in line:
            addr = line.rsplit(" ", 1)[1].strip()
            break
    if addr is None:
        proc.wait()
        raise SystemExit("perfbench: shapex serve exited before listening")
    while True:
        try:
            status, _ = http_get(addr, "/health")
            if status == 200:
                wall = time.perf_counter() - t0
                return proc, addr, {"wall_s": wall, "cpu_s": task_cpu_s(proc.pid)}
        except OSError:
            pass
        if time.perf_counter() - t0 > 120:
            stop_server(proc)
            raise SystemExit("perfbench: shapex serve never answered /health")
        time.sleep(0.001)


def stop_server(proc):
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stderr.close()


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status", encoding="utf-8") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM")


def summary(xs):
    """Median and tail of a latency sample. The tail is the highest whole
    percentile that still leaves at least ten samples above it."""
    xs = sorted(xs)
    n = len(xs)
    if n == 0:
        return {"n": 0, "p50": float("nan"), "tail": float("inf"), "tail_pct": 0, "beyond_tail": 0}
    pct = (100 * (n - 10)) // n if n > 10 else 50
    rank = max(1, -(-pct * n // 100))  # ceil(pct% of n)
    return {"n": n, "p50": statistics.median(xs), "tail": xs[rank - 1],
            "tail_pct": pct, "beyond_tail": n - rank, "max": xs[-1]}


def segment_summary(segs):
    """Pools the samples of one or more segments: latencies, backlog (the
    median connection wait of the last tenth of requests) and pass/fail
    against the `/delta` tail limit."""
    waits = [w for s in segs for w in s["wait_ms"]]
    tail_waits = waits[len(waits) - len(waits) // 10:] or [0.0]
    out = {
        "rate": segs[0]["rate"],
        "seconds": sum(s["seconds"] for s in segs),
        "attempted": sum(s["attempted"] for s in segs),
        "failed": sum(s["failed"] for s in segs),
        "failures": [f for s in segs for f in s["failures"]][:5],
        "map": summary([x for s in segs for x in s["map_ms"]]),
        "delta": summary([x for s in segs for x in s["delta_ms"]]),
        # Medians of the per-segment medians: one disturbed round of three
        # does not move them.
        "map_p50_of_rounds": statistics.median(
            statistics.median(s["map_ms"] or [float("nan")]) for s in segs),
        "delta_p50_of_rounds": statistics.median(
            statistics.median(s["delta_ms"] or [float("nan")]) for s in segs),
        "backlog_ms": statistics.median(tail_waits),
        "lateness_p99_ms": max(s["lateness_p99_ms"] for s in segs),
    }
    out["score_ms"] = max(out["delta"]["tail"], out["backlog_ms"])
    out["pass"] = out["failed"] == 0 and out["score_ms"] <= DELTA_LIMIT_MS
    return out


def slo_rate(ladder):
    """The highest rate meeting the `/delta` tail limit with no growing
    backlog. Each rung scores max(delta tail, backlog); the rate is
    interpolated between the last passing rung and the first failing one
    on the logarithm of their scores, so it moves smoothly with the
    server's speed instead of jumping a whole rung."""
    passing = [i for i, r in enumerate(ladder) if r["pass"]]
    # The highest passing rung; the ladder ends with the failures above it.
    if not passing:
        first = ladder[0]
        return first["rate"] * min(1.0, DELTA_LIMIT_MS / first["score_ms"])
    p = ladder[passing[-1]]
    if passing[-1] + 1 == len(ladder):
        return p["rate"]
    f = ladder[passing[-1] + 1]
    if f["failed"] or not f["score_ms"] < float("inf"):
        return p["rate"]
    log = math.log
    share = (log(DELTA_LIMIT_MS) - log(p["score_ms"])) / (log(f["score_ms"]) - log(p["score_ms"]))
    return p["rate"] + (f["rate"] - p["rate"]) * min(1.0, max(0.0, share))


def load(harness, args, addr, rate, seconds, round_no, warmup=False):
    cmd = ["load", "--workload", args.workload, "--seed", str(args.seed), "--addr", addr,
           "--rate", str(rate), "--seconds", str(seconds), "--limit-ms", str(DELTA_LIMIT_MS),
           "--round", str(round_no)]
    cmd += (["--warmup"] if warmup else []) + (["--smoke"] if args.smoke else [])
    return harness_json(harness, *cmd)


def cpu_steal():
    """(steal, total) jiffies of all CPUs: time the host gave to others."""
    with open("/proc/stat", encoding="utf-8") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def measure(shapex, harness, work, args, meta):
    """Set-up, then rounds of batch runs and reference traffic against a
    warm server, then the rate ladder."""
    steal0, total0 = cpu_steal()
    truth = read_truth(os.path.join(work, "truth.tsv"))
    setups, batch, errors, ref_segments, ladder = [], [], [], [], []
    warmup = None
    proc = None
    try:
        for _ in range(SETUP_REPS):
            if proc is not None:
                stop_server(proc)
            proc, addr, setup = spawn_server(shapex, work)
            setups.append(setup)
        status, body = http_get(addr, "/stats")
        served = json.loads(body)["graphs"]["default"]["triples"] if status == 200 else None
        if served != meta["service"]["triples"]:
            errors.append(f"server holds {served} triples, generated {meta['service']['triples']}")
        round_no = 0
        for r in range(ROUNDS):
            batch_runs(shapex, work, truth, args.seconds * BATCH_SHARE / ROUNDS, batch, errors)
            if r == 0:
                # One full typing fills the memo, then one untimed second
                # of traffic warms the request path.
                warmup = load(harness, args, addr, REF_RATE, 1.0, round_no, warmup=True)
                errors += [f"warm-up: {f}" for f in warmup["failures"]]
                round_no += 1
            ref_segments.append(load(harness, args, addr, REF_RATE, args.seconds * REF_SHARE / ROUNDS,
                                     round_no))
            round_no += 1
        reference = segment_summary(ref_segments)
        ladder.append(reference)
        rate = REF_RATE
        # Climb until two rungs in a row fail: rung scores are noisy, and
        # one failing rung below the knee must not end the ladder.
        while len(ladder) <= LADDER_RUNGS and any(r["pass"] for r in ladder[-2:]):
            rate *= LADDER_FACTOR
            rung = load(harness, args, addr, rate, args.seconds * RUNG_SHARE, round_no)
            round_no += 1
            ladder.append(segment_summary([rung]))
        server_rss = vm_hwm_mb(proc.pid)
    finally:
        if proc is not None:
            stop_server(proc)
    steal1, total1 = cpu_steal()
    return {"setups": setups, "batch_runs": batch, "warmup_attempted": warmup["attempted"],
            "reference": reference, "ladder": ladder,
            "slo_rate_rps": slo_rate(ladder), "server_rss_mb": server_rss,
            "cpu_steal_frac": (steal1 - steal0) / max(1, total1 - total0)}, errors


# --------------------------------------------------------------------------
# Environment block


def environment(args, meta, shapex):
    def cmd_out(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    digest = hashlib.sha256()
    for base in ("crates", "vendor"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "validate_jobs": "default (all cores)",
        "commit": cmd_out(["git", "rev-parse", "HEAD"]),
        "source_sha256": digest.hexdigest()[:16],
        "rustc": cmd_out(["rustc", "--version"]),
        "inputs": meta,
        "server": {"args": "serve --addr 127.0.0.1:0 (other settings default)",
                   "connections": 2, "ref_rate": REF_RATE, "ladder_factor": LADDER_FACTOR,
                   "ladder_rungs": LADDER_RUNGS, "delta_limit_ms": DELTA_LIMIT_MS},
        "shapex": os.path.relpath(shapex, ROOT),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(args, shapex, harness, work, meta):
    raw, errors = measure(shapex, harness, work, args, meta)
    if raw["reference"]["lateness_p99_ms"] > LATENESS_LIMIT_MS:
        log("perfbench: the client fell behind its schedule; measuring again")
        raw, errors = measure(shapex, harness, work, args, meta)
        if raw["reference"]["lateness_p99_ms"] > LATENESS_LIMIT_MS:
            raise SystemExit("perfbench: invalid run, the client fell behind its schedule twice")
    print(json.dumps({"raw": raw}))
    batch, ref = raw["batch_runs"], raw["reference"]
    # Wall-clock figures, printed but not gated: on a shared 2-vCPU host
    # their run-to-run spread exceeds any bound BENCHMARK.json may set
    # (README, "Ungated figures").
    ungated = {
        "setup_wall_s": metric(median(r["wall_s"] for r in raw["setups"]), "s"),
        "validate_s": metric(median(r["wall_s"] for r in batch), "s"),
        "map_p50_ms": metric(ref["map_p50_of_rounds"], "ms"),
        "map_tail_ms": metric(ref["map"]["tail"], "ms"),
        "map_tail_pct": metric(ref["map"]["tail_pct"], "%"),
        "delta_p50_ms": metric(ref["delta_p50_of_rounds"], "ms"),
        "delta_tail_ms": metric(ref["delta"]["tail"], "ms"),
        "delta_tail_pct": metric(ref["delta"]["tail_pct"], "%"),
        "slo_rate_rps": metric(raw["slo_rate_rps"], "1/s"),
        "server_rss_mb": metric(raw["server_rss_mb"], "MB"),
    }
    print(json.dumps({"ungated": ungated}))
    metrics = {
        "setup_s": metric(median(r["cpu_s"] for r in raw["setups"]), "s"),
        "cpu_s": metric(median(r["cpu_s"] for r in batch), "s"),
        "peak_rss_mb": metric(median(r["rss_mb"] for r in batch), "MB"),
    }
    ladder = raw["ladder"]
    attempted = len(batch) + raw["warmup_attempted"] + sum(seg["attempted"] for seg in ladder)
    failed = len(errors) + sum(seg["failed"] for seg in ladder)
    errors += [f"{seg['rate']:.1f} req/s: {f}" for seg in ladder for f in seg["failures"]]
    return metrics, attempted, failed, errors


def run_traced(args, shapex, harness, work):
    trace_args = ["trace", "--workload", args.workload, "--seed", str(args.seed),
                  "--dir", work, "--shapex", shapex] + (["--smoke"] if args.smoke else [])
    out = harness_json(harness, *trace_args)
    print(json.dumps({"spans": out["spans"], "checks": out["checks"]}))
    metrics = {name: metric(v["value"], v["unit"]) for name, v in out["metrics"].items()}
    return metrics, out["attempted"], out["failed"], out["errors"]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small inputs, for the benchmark's own tests")
    args = p.parse_args()

    shapex, harness = build()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        gen_args = ["gen", "--workload", args.workload, "--seed", str(args.seed), "--out", work]
        meta = harness_json(harness, *gen_args + (["--smoke"] if args.smoke else []))
        print(json.dumps({"env": environment(args, meta, shapex)}))
        if args.trace:
            metrics, attempted, failed, errors = run_traced(args, shapex, harness, work)
        else:
            metrics, attempted, failed, errors = run_untraced(args, shapex, harness, work, meta)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in errors[:20]:
        log("perfbench: MISMATCH", e)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

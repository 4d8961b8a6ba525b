#!/usr/bin/env python3
"""symprot benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload carrier --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; symprot is imported from ./src.
Each workload runs in fresh worker processes, one at a time (one client,
closed loop, no threads of its own, one BLAS thread). Times are scaled to
a fixed machine speed, measured by a reference job (worker.py); an op's
latency is the median of its repeats, and set-up time the median over
several fresh processes started here.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones. The last stdout line is the JSON result;
the lines before it are a readable table of every metric and the machine
record, and perfbench/out/ keeps the full result, the spans of a traced
run and the exact-count record of each seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from worker import ELASTICITY, REFERENCE_JOB_S, speed_scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # never used while tuning; re-check claims on it
CHUNKS = 3  # measuring workers per run, each for a third of --seconds
IMPORTTIME_RUNS = 3
WORKER_TIMEOUT = 170
# Within the nproc cap. The lifted matrices are at most 84 x 84: a second
# OpenBLAS thread doubled CPU time, left wall time unchanged and made
# repeated runs less steady on a 2-CPU machine.
BLAS_THREADS = 1


def _quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A beta-weighted mean of all order statistics. Unlike the interpolated
    sample quantile it does not jump when the quantile falls into a gap
    between op sizes, which the search op list has near its 90th percentile.
    """
    import numpy
    from scipy.special import betainc

    x = numpy.sort(numpy.asarray(values))
    n = x.size
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), numpy.arange(n + 1) / n)
    return float(numpy.dot(numpy.diff(edges), x))


def _metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _worker(args, env, workdir, *extra) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir, *extra]
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(result["symprot"]).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"imported symprot from {result['symprot']}, not from {SRC}")
    return result


def _import_split(env) -> dict:
    """Start-up split of a fresh ``import symprot.cli`` from ``python -X importtime``."""
    rows = []
    for _ in range(IMPORTTIME_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import symprot.cli"], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr[-4000:])
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        total = cumulative["symprot.cli"]  # nests the symprot package and its imports
        numpy_s, scipy_s = cumulative["numpy"], cumulative["scipy.linalg"]
        rows.append({"cli.start.interp_s": wall - total, "cli.start.numpy_s": numpy_s,
                     "cli.start.scipy_s": scipy_s, "cli.start.symprot_s": total - numpy_s - scipy_s})
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}


def _machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "symprot").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _check_counts(args, record) -> str | None:
    """Compare the exact counts with an earlier run of the same seed and source."""
    path = OUT / f"counts-{args.workload}-seed{args.seed}-trace{args.trace}-{_source_hash()}.json"
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier != record:
            return f"exact counts differ from the earlier run recorded in {path.name}"
        return None
    path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    return None


def measure(args) -> tuple[dict, dict]:
    env = _env()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT, prefix="work-")
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    chunk = argparse.Namespace(**{**vars(args), "seconds": args.seconds / CHUNKS})
    try:
        _worker(args, env, workdir, "--setup-only")  # untimed: byte-compiles and warms the file cache
        # set-up probes and measuring workers alternate, so that both are
        # sampled across the whole run
        setup_runs, chunks = [], []
        for i in range(CHUNKS):
            setup_runs.append(_worker(args, env, workdir, "--setup-only"))
            chunks.append(_worker(chunk, env, workdir, *(["--spans", str(spans)] if args.trace and not i else [])))
            setup_runs.append(chunks[-1])
        setup_runs.append(_worker(args, env, workdir, "--setup-only"))
        split = _import_split(env) if args.trace else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # every time is scaled to the reference machine speed (worker.py)
    n_ops = len(chunks[0]["latencies"][0])
    per_op = [[lat[i] * scale[i] for r in chunks for lat, scale in zip(r["latencies"], r["scales"])]
              for i in range(n_ops)]
    op_s = [statistics.median(samples) for samples in per_op]
    raw_op_s = [statistics.median(lat[i] for r in chunks for lat in r["latencies"]) for i in range(n_ops)]
    setups = [r["setup_s"] * speed_scale(r["setup_job_s"]) for r in setup_runs]
    passes = [wall for r in chunks for wall in r["passes"]]
    attempted = sum(r["attempted"] for r in chunks)
    failed = sum(r["failed"] for r in chunks)
    e2e = {
        "setup_s": statistics.median(setups),
        "pass_s": sum(op_s),
        "op_p50_ms": _quantile(op_s, 0.5) * 1e3,
        "op_p90_ms": _quantile(op_s, 0.9) * 1e3,
        "ok_frac": (attempted - failed) / attempted,
        "rss_peak_mb": max(r["rss_mb"] for r in chunks),
    }
    res = chunks[0]
    info = {
        "attempted": attempted,
        "failed": failed,
        "failures": {op: err for r in reversed(chunks) for op, err in r["failures"].items()},
        "fail_frac": failed / attempted,
        "ops": n_ops,
        "repeats": min(len(samples) for samples in per_op),
        "passes": passes,
        "setup_runs": setups,
        "raw_setup_s": statistics.median(r["setup_s"] for r in setup_runs),
        "raw_pass_s": sum(raw_op_s),
        "reference_job_ms": [1e3 * r["setup_job_s"] for r in setup_runs],
        "op_median_ms": {op: t * 1e3 for op, t in zip(res["op_ids"], op_s)},
        "op_latencies_ms": {op: [t * 1e3 for t in samples] for op, samples in zip(res["op_ids"], per_op)},
        "op_scales": {op: [scale[i] for r in chunks for scale in r["scales"]] for i, op in enumerate(res["op_ids"])},
    }
    record = {"facts": res["facts"]}
    problems = []
    if not all(r["facts_repeat"] and r["facts"] == res["facts"] for r in chunks):
        problems.append("exact counts differ between passes")
    layers = {}
    if args.trace:
        layers = {**res["layer_times"], **res["layer_counts"], **split}
        traced = [wall for r in chunks for wall in r["traced_scaled"]]
        untraced = [wall for r in chunks for wall in r["scaled_passes"]]
        layers["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
        layers["trace.accounted_frac"] = res["accounted_frac"]
        record["counts"] = res["layer_counts"]
        info["traced_passes"] = traced
        info["spans"] = str(spans.relative_to(ROOT))
        if not all(r["counts_repeat"] and r["layer_counts"] == res["layer_counts"] for r in chunks):
            problems.append("exact counts differ between traced passes")
    problem = _check_counts(args, record)
    if problem:
        problems.append(problem)
    info["problems"] = problems
    return {**e2e, **layers}, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out for re-checking claims)")
    parser.add_argument("--seconds", type=float, default=10.0, help="minimum measuring time; at least one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "symprot" / "__init__.py").is_file():
        print(f"perfbench: no symprot sources under {SRC}", file=sys.stderr)
        return 2
    specs = _metric_specs()
    if args.workload not in specs["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {specs['workloads']}", file=sys.stderr)
        return 2

    values, detail = measure(args)
    machine = _machine()
    wanted = specs[args.trace]
    # a layer the workload never calls has no spans: its counts are 0
    metrics = {name: {"value": values.get(name, 0) if unit != "s" else values[name], "unit": unit}
               for name, unit in wanted}
    correct = detail["failed"] == 0 and not detail["problems"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {detail['attempted']}  failed {detail['failed']}  fail_frac {detail['fail_frac']:.6g}")
    print(f"{detail['ops']} ops, each timed at least {detail['repeats']} times in {len(detail['passes'])} untraced "
          f"passes over {CHUNKS} workers; an op's latency is the median of its repeats")
    print(f"times scaled to the speed at which the reference job takes {REFERENCE_JOB_S * 1e3:g} ms (exponent "
          f"{ELASTICITY:g}); it took "
          f"{statistics.median(detail['reference_job_ms']):.4g} ms here. Unscaled: setup_s {detail['raw_setup_s']:.6g} s, "
          f"pass_s {detail['raw_pass_s']:.6g} s")
    units = dict(specs[0] + specs[1])
    units.update((name, "s") for name in values if name not in units and name.endswith((".s", "_s")))
    for name in sorted(values):
        value = values[name]
        shown = value if isinstance(value, list) else f"{value:.6g}"
        print(f"  {args.workload:8s} {name:42s} {shown} {units.get(name, '')}")
    for op, why in detail["failures"].items():
        print(f"  FAILED {op}: {why}")
    for problem in detail["problems"]:
        print(f"  PROBLEM {problem}")
    print("machine " + json.dumps(machine, sort_keys=True))

    result = {"correct": correct, "attempted": detail["attempted"], "failed": detail["failed"], "metrics": metrics}
    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine,
            "values": values, "detail": detail, "result": result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

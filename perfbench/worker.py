"""One workload in one fresh process: set up, then timed passes over its ops.

Started by run.py with the spawn time on CLOCK_MONOTONIC, so set-up time
counts from process start. Prints one JSON object on its last line.

With --trace 1, passes alternate untraced and traced (untraced first), so
one run gives both the tracing overhead and the per-layer spans; op
latencies and pass_s come from untraced passes only.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import numpy as np

# -- machine speed ---------------------------------------------------------
# The shared machine the benchmark was tuned on switches, for seconds to
# minutes at a time, between a common contended state and one about 1.8x
# faster, so raw times of the same code spread 40% between runs. A fixed
# reference job that never calls symprot is timed before the first op of a
# pass and then every CALIBRATE_EVERY_S between ops; each op's time is
# multiplied by speed_scale() of the job's mean time around it. End-to-end
# times therefore read as on a machine where the job takes REFERENCE_JOB_S
# (this machine's contended state), and a change to symprot moves them
# one for one.
REFERENCE_JOB_S = 1.1e-3
CALIBRATE_EVERY_S = 0.2
# The job's time swings about 2x between the two states, the workloads'
# op times about 1.8x = 2 ** 0.85. In a five-seed set, the correlation of
# a run's scaled pass_s with its job time changed sign between exponents
# 0.8 and 0.9 on every workload.
ELASTICITY = 0.85

_JOB_RNG = np.random.default_rng(0)
_JOB_STACK = _JOB_RNG.standard_normal((8, 6, 6)) + 1j * _JOB_RNG.standard_normal((8, 6, 6))
_JOB_MATRIX = _JOB_RNG.standard_normal((20, 20)) + 1j * _JOB_RNG.standard_normal((20, 20))
_JOB_DOC = {"rows": [{"label": f"r{i}", "value": [i * 0.5, -i]} for i in range(100)]}


def _reference_job():
    """The mix symprot runs: a Python loop over small complex arrays, a small eig, JSON."""
    rows = np.zeros((8, 6), dtype=complex)
    total = np.zeros(8, dtype=complex)
    for k in range(1, 1 << 6):
        rows += _JOB_STACK[:, :, (k & -k).bit_length() - 1]
        total += rows.prod(axis=1)
    np.linalg.eig(_JOB_MATRIX)
    json.dumps(_JOB_DOC)
    return total


def job_time() -> float:
    """Seconds the reference job takes now: the fastest of three runs."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_job()
        best = min(best, time.perf_counter() - t0)
    return best


def speed_scale(job_s: float) -> float:
    """Factor from a time measured while the job took ``job_s`` to the reference speed."""
    return (REFERENCE_JOB_S / job_s) ** ELASTICITY


def _scaled(wall, latencies, scales) -> float:
    """A pass's wall time at the reference speed, by the time-weighted scale of its ops."""
    return wall * sum(t * k for t, k in zip(latencies, scales)) / sum(latencies)


def _fact(result):
    """The exact count a result carries, if any (search and uniqueness sample counts)."""
    used = getattr(result, "samples_used", None)
    if used is None:
        return None
    return [used, len(getattr(result, "rays", ()))]


def _run_pass(ops, tracer=None):
    """One pass over the op list; spans are recorded when a tracer is given.

    Returns (wall seconds, per-op latencies, per-op speed scales, per-op
    exact facts, failures).
    """
    latencies, segments, facts, failures = [], [], {}, {}
    if tracer:
        pass_span = tracer.open("bench.pass")
    t_pass = time.perf_counter()
    jobs = [job_time()]
    calibrated = time.perf_counter()
    for op in ops:
        if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            jobs.append(job_time())
            calibrated = time.perf_counter()
        segments.append(len(jobs) - 1)
        if tracer:
            tracer.op = op.id
            span = tracer.open("bench.op")
        t0 = time.perf_counter()
        try:
            result, err = op.call(), None
        except Exception as exc:  # counted as a failed op, never fatal
            result, err = None, f"raised {exc!r}"
        latencies.append(time.perf_counter() - t0)
        if tracer:
            tracer.close(span)
            span = tracer.open("bench.check")
        if err is None:
            try:
                err = op.check(result)
            except Exception as exc:
                err = f"check raised {exc!r}"
        if tracer:
            tracer.close(span)
        fact = _fact(result)
        if fact is not None:
            facts[op.id] = fact
        if err:
            failures[op.id] = err
    jobs.append(job_time())
    wall = time.perf_counter() - t_pass
    if tracer:
        tracer.close(pass_span)
    scales = [speed_scale((jobs[i] + jobs[i + 1]) / 2) for i in segments]
    return wall, latencies, scales, facts, failures


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True, help="CLOCK_MONOTONIC at spawn")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="write the spans here as JSON lines")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    # set-up is scaled by the job's mean time before and after it; the job's
    # own time is not part of set-up
    t0 = time.monotonic()
    first_job = job_time()
    job_s = time.monotonic() - t0

    import tracing
    import workloads
    import symprot

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    ops = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    if tracer:
        tracer.uninstall()
    ops[0].call()  # untimed warm-up
    ready = time.monotonic()
    out = {"setup_s": ready - args.spawned - job_s, "setup_job_s": (first_job + job_time()) / 2,
           "symprot": symprot.__file__}
    if args.setup_only:
        print(json.dumps(out))
        return 0
    workloads.load_validators()

    passes, scaled_passes, latencies, scales, ranges, facts = [], [], [], [], [], []
    traced_passes, traced_scaled = [], []
    failures: dict[str, str] = {}
    failed = 0
    deadline = time.monotonic() + args.seconds
    while True:
        traced = bool(tracer) and len(passes) > len(traced_passes)
        if traced:
            tracer.install()
            first = len(tracer.spans)
            wall, lat, scale, pass_facts, pass_failures = _run_pass(ops, tracer)
            tracer.uninstall()
            traced_passes.append(wall)
            traced_scaled.append(_scaled(wall, lat, scale))
            ranges.append((first, len(tracer.spans)))
        else:
            wall, lat, scale, pass_facts, pass_failures = _run_pass(ops)
            passes.append(wall)
            scaled_passes.append(_scaled(wall, lat, scale))
            latencies.append(lat)
            scales.append(scale)
        facts.append(pass_facts)
        for op, err in pass_failures.items():
            failures.setdefault(op, err)
        failed += len(pass_failures)
        if time.monotonic() >= deadline and (not tracer or traced_passes):
            break

    out.update(
        passes=passes,
        scaled_passes=scaled_passes,
        latencies=latencies,
        scales=scales,
        attempted=len(ops) * len(facts),
        failed=failed,
        failures=failures,
        op_ids=[op.id for op in ops],
        facts_repeat=all(f == facts[0] for f in facts),
        facts=facts[0],
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer:
        from symprot.fock import sector_split

        def sector_sizes(basis):
            return [len(idx) for idx in sector_split(basis).values()]

        # set-up spans (input generation) followed by the first traced pass
        times, counts = tracing.layer_metrics(tracer.spans, 0, ranges[0][1], sector_sizes)
        per_pass = [tracing.layer_metrics(tracer.spans, a, b, sector_sizes) for a, b in ranges]
        # self times of layers and benchmark spans cover the traced pass
        accounted = sum(v for k, v in per_pass[0][0].items() if k.endswith("self_s")) / traced_passes[0]
        out.update(
            traced_passes=traced_passes,
            traced_scaled=traced_scaled,
            layer_times=times,
            layer_counts=counts,
            counts_repeat=all(c == per_pass[0][1] for _, c in per_pass),
            accounted_frac=accounted,
        )
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-memory spans recorded around calls into the symprot layers.

The package itself is not instrumented: ``Tracer.install`` replaces each
public function at the module attribute its callers look it up through
(``symprot.protect.lift``, ``symprot.dfs.certify``, ...) with a wrapper
that records a span, and ``uninstall`` puts the originals back. A span is
``[name, start, end, parent, op, info]``; ``info`` holds the few argument
or result facts the counts need, taken after the span has closed (the
result is None when the call raised).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# benchmark spans: their self time is the benchmark's own overhead
BENCH = ("bench.pass", "bench.op", "bench.check")


def _n_samples(args, kwargs, result):
    cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
    return 64 if cfg is None else cfg.n_samples


def _search_info(args, kwargs, result):
    if result is None:
        return None
    return (result.samples_used, len(result.rays) + len(result.subspaces))


def _sites():
    """(owner, attribute, span name, info function) for every wrapped call site."""
    from symprot import cli, dfs, protect, scatter, serialize, states

    def basis(args, kwargs, result):
        return args[1]

    return [
        (protect, "lift", "fock.lift", basis),
        (dfs, "lift", "fock.lift", basis),
        (protect, "enumerate_basis", "fock.enumerate_basis", None),
        (states, "enumerate_basis", "fock.enumerate_basis", None),
        (serialize, "enumerate_basis", "fock.enumerate_basis", None),
        (cli, "enumerate_basis", "fock.enumerate_basis", None),
        (protect, "sector_split", "fock.sector_split", None),
        (protect, "lift_mirror", "fock.lift_mirror", None),
        (scatter.ScatterSampler, "sample", "scatter.sample", None),
        (protect, "certify", "protect.certify", _n_samples),
        (dfs, "certify", "protect.certify", _n_samples),
        (cli, "certify", "protect.certify", _n_samples),
        (protect, "_certify_subspace", "protect.certify_subspace", None),
        (protect, "find_protected", "protect.find_protected", _search_info),
        (cli, "find_protected", "protect.find_protected", _search_info),
        (protect, "verify_pair_uniqueness", "protect.verify_pair_uniqueness", None),
        (dfs, "transmit_bins", "dfs.transmit_bins", lambda a, k, r: a[0].d),
        (states, "mirror_fock", "states.build", None),
        (states, "pair_power", "states.build", None),
        (states, "named_state", "states.build", None),
        (states, "build_state", "states.build", None),
        (protect, "pair_power", "states.build", None),
        (cli, "build_state", "states.build", None),
        (cli, "slater_report", "entangle.slater_report", None),
        (serialize, "dumps", "serialize.dumps", lambda a, k, r: len(r or "")),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = "setup"
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name, info):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(rec)
            stack.append(idx)
            result = None
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if info is not None:
                    rec[5] = info(args, kwargs, result)

        return traced

    def install(self) -> None:
        for owner, attr, name, info in _sites():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, info))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def layer_metrics(spans, first: int, last: int, sector_sizes) -> tuple[dict, dict]:
    """Per-layer times and counts over spans[first:last].

    ``.s`` is the inclusive time of the outermost span of each name (a
    nested span of the same name is not counted twice); ``.self_s`` is the
    duration minus the child spans'. ``sector_sizes(basis)`` gives the
    m_tot sector sizes of a lifted basis. Returns (times, counts).
    """
    child = defaultdict(float)
    for i in range(first, last):
        name, start, end, parent, _, _ = spans[i]
        if parent >= first:
            child[parent] += end - start
    times = defaultdict(float)
    counts = defaultdict(int)
    lift_entries = lift_in_sector = 0
    dims = set()
    bins = bin_lifts = 0
    search_samples = search_found = search_candidates = 0
    for i in range(first, last):
        name, start, end, parent, _, info = spans[i]
        dur = end - start
        times[name + ".self_s"] += dur - child[i]
        counts[name + ".calls"] += 1
        parent_name = spans[parent][0] if parent >= first else None
        names_above = set()
        anc = parent
        while anc >= first:
            names_above.add(spans[anc][0])
            anc = spans[anc][3]
        if name not in names_above:
            times[name + ".s"] += dur
        if name == "fock.lift" and info is not None:
            dim = len(info)
            dims.add(dim)
            lift_entries += dim * dim
            lift_in_sector += sum(k * k for k in sector_sizes(info))
            if "dfs.transmit_bins" in names_above:
                bin_lifts += 1
        elif name == "protect.certify":
            counts["protect.certify.samples"] += info
        if name in ("protect.certify", "protect.certify_subspace") and parent_name == "protect.find_protected":
            search_candidates += 1
        elif name == "protect.find_protected" and info is not None:
            search_samples += info[0]
            search_found += info[1]
        elif name == "dfs.transmit_bins":
            bins += info
        elif name == "serialize.dumps":
            counts["serialize.dumps.bytes"] += info
    counts["fock.lift.entries"] = lift_entries
    counts["fock.lift.bytes"] = 16 * lift_entries
    counts["fock.lift.dims"] = sorted(dims)
    counts["protect.find_protected.samples_used"] = search_samples
    counts["protect.find_protected.candidates"] = search_candidates
    counts["protect.find_protected.certified"] = search_found
    counts["dfs.transmit_bins.bins"] = bins
    counts["dfs.transmit_bins.lifts"] = bin_lifts
    ratios = {
        "fock.lift.nonzero_frac": lift_in_sector / lift_entries if lift_entries else 0.0,
        "protect.find_protected.candidate_yield": search_found / search_candidates if search_candidates else 0.0,
        "dfs.lifts_per_bin": bin_lifts / bins if bins else 0.0,
    }
    times["bench.self_s"] = sum(times.pop(n + ".self_s", 0.0) for n in BENCH)
    for n in BENCH:
        times.pop(n + ".s", None)
        counts.pop(n + ".calls", None)
    return dict(times), {**counts, **ratios}

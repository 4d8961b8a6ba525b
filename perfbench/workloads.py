"""The three workloads: seeded inputs, a fixed op list, and a check per op.

Every random input comes from ``numpy.random.default_rng(seed)``; symprot
receives only the generated states, coefficients, matrices and files.
An op is ``(id, call, check)``: ``call()`` is the timed call into
symprot, ``check(result)`` returns None or the reason the result is wrong.
An expected refusal (``CarrierNotProtectedError``, exit code 1 or 2) is
caught inside ``call`` and checked like any other result.

Why these workloads:

* carrier -- the apply path. ``certify`` draws many scatterers and lifts
  each once; ``transmit`` reuses one lift over d bins. N runs from 2 to
  6, so small ops carry the sampler and call overhead and large ones
  the lift cost. Many states share a few bases.
* search -- full lifted matrices, per-sector eigendecomposition and
  candidate certification; a change that only speeds up applying a lift
  to one vector shows no gain here.
* cli -- small-N commands run in-process; carries argparse, entangle and
  serialize costs and none of the large lifts.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from typing import Callable, NamedTuple

import numpy as np

import reference as ref
from symprot import cli, dfs, modes, protect, scatter, states
from symprot.fock import FockState
from symprot.serialize import load_schema

_SAMPLE = scatter.ScatterSampler.sample  # untraced, for regenerating draws in checks
EIG_TOL = 1e-9
OVERLAP_TOL = 1e-9
# The largest photon numbers are cut so that one pass takes about two
# seconds and a run times every op many times: hm(m) at N = 6 alone took
# 14 s of a carrier pass and 7 s of a search pass.
PAIRS = (1, 2)  # pair_power(m, K) and verify_pair_uniqueness(m, K): N = 2K <= 4
MIRROR_N = (2, 4, 6)  # mirror_fock splits in carrier
H0_N = range(1, 7)  # find_protected on h0
HM_N = range(1, 6)  # find_protected on hm(1) and hm(2)


class Op(NamedTuple):
    id: str
    call: Callable
    check: Callable


def _components(space) -> list[tuple[str, int]]:
    comps = space.components if space.kind == "sum" else (space,)
    return [(c.kind, c.m if c.kind == "hm" else 0) for c in comps]


def _draws(space, cfg) -> list[np.ndarray]:
    """The matrices certify(…, cfg) draws on ``space``, in stream order."""
    sampler = scatter.ScatterSampler(seed=cfg.seed, unitary=cfg.unitary, genericity_floor=cfg.genericity_floor)
    return [_SAMPLE(sampler, space).matrix for _ in range(cfg.n_samples)]


def _eig_error(ray: ref.Ray, lams, matrices) -> str | None:
    for i, (lam, mat) in enumerate(zip(lams, matrices)):
        want = ray.eigenvalue(mat)
        if abs(lam - want) > EIG_TOL:
            return f"eigenvalue {i} of {ray}: {lam} != closed form {want}"
    return None


def _match_rays(found, expected, components, matrices) -> str | None:
    """Pair each found ray with exactly one expected ray; check overlap, parity and eigenvalues."""
    if len(found) != len(expected):
        return f"{len(found)} rays, expected {len(expected)}"
    unmatched = list(expected)
    for ray in found:
        occs = ray.state.basis.states
        hits = [e for e in unmatched if abs(np.vdot(e.vector(components, occs), ray.state.amplitudes)) > 1 - OVERLAP_TOL]
        if len(hits) != 1:
            return f"ray at m_tot {ray.m_tot} matches {len(hits)} expected rays"
        if ray.m_tot != 0 or ray.mirror_tau != hits[0].tau:
            return f"{hits[0]}: m_tot {ray.m_tot}, tau {ray.mirror_tau}, expected 0, {hits[0].tau}"
        err = _eig_error(hits[0], ray.report.eigenvalues, matrices)
        if err:
            return err
        unmatched.remove(hits[0])
    return None


# -- carrier ---------------------------------------------------------------


def carrier(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    cfg = protect.CertificationConfig(n_samples=64, seed=int(rng.integers(2**31)))
    entries = []  # (label, state, expected ray or None)
    catalog_rays = {"phi3": ("h0", 1, 1), "s1": ("h0", 2, 0), "s2": ("h0", 0, 2)}
    for name in ("phi1", "phi2", "phi3", "s1", "s2"):
        part = catalog_rays.get(name)
        entries.append((name, states.named_state(name), part and ref.Ray([part])))
    for m in (1, 2):
        for name in ("psi1", "psi2", "psi3", "psi4"):
            ray = ref.Ray([("hm", m, 1)]) if name == "psi4" else None
            entries.append((f"{name}@m{m}", states.named_state(name, m), ray))
    for m in (1, 2):
        for pairs in PAIRS:
            entries.append((f"pair({m},{pairs})", states.pair_power(m, pairs), ref.Ray([("hm", m, pairs)])))
    for n in MIRROR_N:
        for na in range(n + 1):
            entries.append((f"mirror_fock({n - na},{na})", states.mirror_fock(n - na, na), ref.Ray([("h0", n - na, na)])))
    seen = {}
    for _, state, _ in entries:
        seen.setdefault((state.basis.space, state.basis.n_photons), state.basis)
    for (space, n), basis in seen.items():
        amps = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        control = FockState(basis, amps / np.linalg.norm(amps))
        entries.append((f"control({space.kind}{'' if space.kind == 'h0' else space.m},N={n})", control, None))

    draws = {space: _draws(space, cfg) for space, _ in seen}
    ops = []
    for label, state, ray in entries:
        ops.append(Op(f"certify {label}", _certify_call(state, cfg), _certify_check(ray, draws[state.basis.space])))
    for label, state, ray in entries:
        space, n = state.basis.space, state.basis.n_photons
        for d in (4, 8) if ray else (4,):
            coeff = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            loss = float(rng.uniform(0.05, 0.5))
            unitary = scatter.ScatterSampler(seed=int(rng.integers(2**31)), unitary=True).sample(space)
            static = scatter.SymmetricScattering(space, unitary.matrix * (1 - loss) ** (1 / (2 * n)), unitary=False)
            if ray is None:
                ops.append(Op(f"refuse {label}", _refuse_call(coeff, state, static), _refuse_check))
                continue
            drifting = scatter.ScatterSampler(seed=int(rng.integers(2**31)), unitary=False)
            bins = [drifting.sample(space) for _ in range(d)]
            weights = np.abs(coeff) ** 2 / np.sum(np.abs(coeff) ** 2)
            ops.append(Op(f"transmit {label} d={d}", _transmit_call(coeff, state, static), _static_check(ray, static, 1 - loss)))
            ops.append(Op(f"transmit_bins {label} d={d}", _bins_call(coeff, state, bins), _bins_check(ray, bins, weights)))
    return ops


def _certify_call(state, cfg):
    return lambda: protect.certify(state, cfg)


def _certify_check(ray, matrices):
    def check(report):
        want = protect.Verdict.PROTECTED if ray else protect.Verdict.NOT_PROTECTED
        if report.verdict is not want:
            return f"verdict {report.verdict.value}, expected {want.value}"
        return ray and _eig_error(ray, report.eigenvalues, matrices)

    return check


def _refuse_call(coeff, state, static):
    def call():
        qudit = dfs.time_bin_qudit(coeff, state, cfg=None)
        try:
            return dfs.transmit(qudit, static)
        except dfs.CarrierNotProtectedError:
            return "refused"

    return call


def _refuse_check(result):
    return None if result == "refused" else "unprotected carrier was transmitted"


def _transmit_call(coeff, state, static):
    return lambda: dfs.transmit(dfs.time_bin_qudit(coeff, state, cfg=None), static)


def _static_check(ray, static, success):
    lam = ray.eigenvalue(static.matrix)

    def check(out):
        if out.fidelity < 1 - 1e-10:
            return f"fidelity {out.fidelity} over a static scatterer"
        if abs(out.success_probability - success) > EIG_TOL or abs(out.success_probability - abs(lam) ** 2) > EIG_TOL:
            return f"success probability {out.success_probability}, expected {success} = |lambda|^2"
        return _eig_error(ray, out.eigenvalues, [static.matrix] * len(out.eigenvalues))

    return check


def _bins_call(coeff, state, bins):
    return lambda: dfs.transmit_bins(dfs.time_bin_qudit(coeff, state, cfg=None), bins)


def _bins_check(ray, bins, weights):
    mats = [b.matrix for b in bins]
    fid, success = ref.fidelity(weights, np.array([ray.eigenvalue(m) for m in mats]))

    def check(out):
        if not out.fidelity < 1:
            return f"fidelity {out.fidelity} over independent draws"
        if abs(out.fidelity - fid) > EIG_TOL or abs(out.success_probability - success) > EIG_TOL:
            return f"fidelity/success {out.fidelity}/{out.success_probability}, closed form {fid}/{success}"
        return _eig_error(ray, out.eigenvalues, mats)

    return check


# -- search ----------------------------------------------------------------


def search(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    cfg = protect.CertificationConfig(n_samples=16, seed=int(rng.integers(2**31)))
    h0, hm = modes.h0(), modes.hm
    grid = [(h0, n) for n in H0_N]
    grid += [(hm(m), n) for m in (1, 2) for n in HM_N]
    grid += [(modes.direct_sum(h0, hm(1)), n) for n in range(1, 4)]
    grid += [(modes.direct_sum(hm(1), hm(2)), 2)]
    draws = {space: _draws(space, cfg) for space, _ in grid}
    ops = []
    for space, n in grid:
        comps = _components(space)
        ops.append(Op(f"find_protected {comps} N={n}", _search_call(space, n, cfg, None),
                      _search_check(comps, n, None, draws[space])))
    for space, n in grid:
        comps = _components(space)
        for sector in ref.sectors(comps, n):
            ops.append(Op(f"find_protected {comps} N={n} sector={sector}", _search_call(space, n, cfg, sector),
                          _search_check(comps, n, sector, draws[space])))
    for m in (1, 2):
        for pairs in PAIRS:
            ops.append(Op(f"verify_pair_uniqueness m={m} K={pairs}",
                          lambda m=m, pairs=pairs: protect.verify_pair_uniqueness(m, pairs, cfg), _uniqueness_check))
    return ops


def _search_call(space, n, cfg, sector):
    return lambda: protect.find_protected(space, n, cfg, sector=sector)


def _search_check(comps, n, sector, matrices):
    all_sectors = ref.sectors(comps, n)
    expected = ref.expected_rays(comps, n)  # every protected ray has m_tot = 0
    if sector is not None and sector != 0:
        expected = []

    def check(result):
        if result.verdict is not protect.Verdict.PROTECTED:
            return f"search verdict {result.verdict.value}"
        if result.subspaces:
            return f"{len(result.subspaces)} protected subspaces, expected none"
        if list(result.sectors) != (all_sectors if sector is None else [sector]):
            return f"sectors {result.sectors}"
        return _match_rays(result.rays, expected, comps, matrices)

    return check


def _uniqueness_check(report):
    if report.ok and report.ray_count == 1 and report.overlap > 1 - OVERLAP_TOL and report.coefficients_ok:
        return None
    return f"uniqueness report {report}"


# -- cli -------------------------------------------------------------------


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def cli_ops(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    seeds = [str(int(s)) for s in rng.integers(2**31, size=5)]
    amps = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    state_path = os.path.join(workdir, "state.json")
    with open(state_path, "w", encoding="utf-8") as fh:
        json.dump({"schema": "symprot/1", "space": {"kind": "hm", "m": 1}, "n": 2,
                   "amplitudes": _pairs(amps / np.linalg.norm(amps))}, fh)
    block = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    block *= rng.uniform(0.2, 0.9) / np.linalg.norm(block, 2)
    flip = np.array([[0, 1], [1, 0]])
    family = np.zeros((4, 4), dtype=complex)
    family[:2, :2], family[2:, 2:] = block, flip @ block @ flip
    corrupted = family.copy()
    corrupted[0, 2] += rng.uniform(0.05, 0.5)
    paths = {}
    for name, mat in (("family", family), ("corrupted", corrupted)):
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump([_pairs(row) for row in mat], fh)
    eps = round(float(rng.uniform(0, 1)), 3)
    missing = os.path.join(workdir, "missing.json")

    def verdict(want):
        return lambda doc: doc["verdict"] == want

    def rays(count, plus=None):
        return lambda doc: len(doc["rays"]) == count and (
            plus is None or sum(r["mirror_tau"] == 1 for r in doc["rays"]) == plus)

    def transmitted(doc):
        return doc["fidelity"] >= 1 - 1e-10 and abs(doc["success_probability"] - 0.8) <= EIG_TOL

    def capacity(two_way):
        return lambda doc: abs(doc["capacity"] - ref.erasure_capacity(eps, two_way)) <= 1e-15

    # (argv, exit code, check of the JSON payload or None for non-JSON output)
    runs = [
        (["certify", "--state", "psi4", "--space", "hm:1", "--seed", seeds[0]], 0, verdict("protected")),
        (["certify", "--state", "pair:m=1,N=4", "--seed", seeds[1]], 0, verdict("protected")),
        (["certify", "--state", state_path, "--seed", seeds[2]], 0, verdict("not_protected")),
        (["certify", "--state", "phi1", "--expect", "protected", "--seed", seeds[2]], 1, verdict("not_protected")),
        (["search", "--space", "h0", "--n", "4", "--samples", "16", "--seed", seeds[3]], 0, rays(5, 3)),
        (["search", "--space", "hm:1", "--n", "2", "--samples", "16", "--seed", seeds[3]], 0, rays(1)),
        (["search", "--space", "hm:1", "--n", "4", "--samples", "16", "--seed", seeds[3]], 0, rays(1)),
        (["search", "--space", "hm:1", "--n", "4", "--sector", "0", "--samples", "16", "--seed", seeds[3]], 0, rays(1)),
        (["catalog"], 0, lambda doc: [s["name"] for s in doc["states"]] == list(states.CATALOG)),
        (["catalog", "--state", "psi4", "--m", "2"], 0, lambda doc: doc["states"][0]["mirror_tau"] == -1),
        (["entangle", "--state", "psi4", "--space", "hm:1"], 0, lambda doc: doc["slater_rank"] == 4 and not doc["is_single_product"]),
        (["entangle", "--state", "phi3"], 0, lambda doc: doc["slater_rank"] == 2 and doc["is_single_product"]),
        (["dfs", "--carrier", "psi4", "--d", "3", "--loss", "0.2", "--seed", seeds[4]], 0, transmitted),
        (["dfs", "--carrier", "pair:m=1,N=2", "--d", "3", "--loss", "0.2", "--seed", seeds[4]], 0, transmitted),
        (["capacity", "--eps", str(eps), "--two-way", "true"], 0, capacity(True)),
        (["capacity", "--eps", str(eps), "--two-way", "false"], 0, capacity(False)),
        (["validate", "--space", "hm:1", "--matrix", paths["family"]], 0, lambda doc: doc["ok"]),
        (["validate", "--space", "hm:1", "--matrix", paths["corrupted"]], 0, lambda doc: not doc["ok"]),
    ]
    # one pretty rendering per subcommand
    runs += [(runs[i][0] + ["--output", "pretty"], runs[i][1], None) for i in (0, 4, 8, 11, 12, 14, 16)]
    runs += [(argv, 1, None) for argv in [["dfs", "--carrier", "phi1", "--d", "2", "--seed", seeds[4]]]]
    runs += [(argv, 2, None) for argv in [
        [],
        ["certify"],
        ["certify", "--state", "nosuch"],
        ["certify", "--state", "pair:m=1,N=3"],
        ["search", "--space", "hx", "--n", "2"],
        ["capacity", "--eps", "1.5"],
        ["capacity", "--eps", "0.1", "--two-way", "maybe"],
        ["validate", "--space", "h0", "--matrix", missing],
        ["dfs", "--carrier", "psi4", "--d", "0"],
    ]]
    first_stdout: dict[str, str] = {}
    return [Op("symprot " + " ".join(os.path.basename(a) for a in argv), _cli_call(argv),
               _cli_check(" ".join(argv), code, check, first_stdout))
            for argv, code, check in runs]


def _cli_call(argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue()

    return call


_VALIDATORS: dict = {}


def load_validators() -> None:
    """Compile the shipped JSON Schemas; done after set-up, outside any timing."""
    import jsonschema

    for command in ("certify", "search", "catalog", "entangle", "dfs", "capacity", "validate"):
        schema = load_schema(command)
        _VALIDATORS[command] = jsonschema.validators.validator_for(schema)(schema)


def _cli_check(key, code, check, first_stdout):
    def verify(result):
        got_code, stdout = result
        if got_code != code:
            return f"exit code {got_code}, expected {code}"
        if first_stdout.setdefault(key, stdout) != stdout:
            return "stdout differs from the first pass"
        if check is None:
            return None
        doc = json.loads(stdout)
        errors = list(_VALIDATORS[doc["command"]].iter_errors(doc))
        if errors:
            return f"schema: {errors[0].message}"
        return None if check(doc) else f"unexpected payload {stdout[:200]!r}"

    return verify


WORKLOADS = {"carrier": carrier, "search": search, "cli": cli_ops}

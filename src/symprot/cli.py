"""Command-line interface.

Subcommands: certify, search, catalog, entangle, dfs, capacity, validate.
Output is canonical JSON (sorted keys, 2-space indent) by default, so runs
with identical arguments are byte-identical; ``--output pretty`` renders a
human-readable summary instead. Seeds default to 0. Exit codes: 0 on
success, 1 when ``--expect protected`` is not met (or a dfs carrier is
refused), 2 on usage errors, on missing, unreadable or malformed state
or matrix files and on requests too large for memory (MemoryError, such
as ``--samples 10000000000000000``), 3 when the sampler cannot draw a
generic scatterer within its attempts (GenericityError). The SYMPROT_NMAX
environment variable overrides the photon-number cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import serialize
from .dfs import CarrierNotProtectedError, erasure_capacity, time_bin_qudit, transmit
from .entangle import slater_report
from .fock import FockState, _mirror_parity, enumerate_basis
from .modes import ModeSpace
from .protect import CertificationConfig, Verdict, certify, find_protected
from .scatter import GenericityError, ScatterSampler, SymmetricScattering, validate_scattering
from .states import CATALOG, StateRecipe, build_state, parse_recipe

__all__ = ["main"]


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


def _load(path: str, what: str, parse):
    """``parse(path)``, with a missing, unreadable or malformed ``what`` file as ValueError."""
    try:
        return parse(path)
    except FileNotFoundError:
        raise ValueError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise ValueError(f"cannot read {what} file {path}: {exc.strerror}") from None
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"malformed {what} file {path}: {exc}") from None


def _resolve_state(state_arg: str, space_arg: str | None) -> tuple[FockState, str]:
    """A normalized state from a catalog/family name or a JSON file, on an optional space.

    ``--space hm:<m>`` sets m only for a bare catalog name; an explicit m must agree.
    """
    space = serialize.parse_space(space_arg) if space_arg else None
    if state_arg.startswith("@") or os.path.isfile(state_arg):
        path = state_arg[1:] if state_arg.startswith("@") else state_arg
        state, label = _load(path, "state", serialize.load_state_file), path
    else:
        recipe = parse_recipe(state_arg)
        bare_name = recipe.kind == "named" and ":" not in state_arg
        if bare_name and space is not None and space.kind == "hm":
            recipe = StateRecipe.named(recipe.name, space.m)
        if recipe.kind in ("pair", "named") and recipe.m < 1:  # only hm recipes read m
            raise ValueError(serialize._HM_M0_ERROR.format(recipe.m))
        state = build_state(recipe)
        label = state_arg
    if space is not None and state.basis.space != space:
        raise ValueError(
            f"state {label!r} lives on {serialize.space_to_json(state.basis.space)}, "
            f"not on the requested space"
        )
    return (state if state.is_normalized() else state.normalized()), label


def _emit(args, payload: dict, pretty_lines) -> None:
    """Print the payload, tagged with the schema and the command, or the pretty lines."""
    if args.output == "json":
        header = {"schema": serialize.SCHEMA_TAG, "command": args.command}
        sys.stdout.write(serialize.dumps({**header, **payload}))
    else:
        sys.stdout.write("\n".join(pretty_lines) + "\n")


def _config_json(cfg: CertificationConfig) -> dict:
    return {
        "n_samples": cfg.n_samples,
        "residual_tol": cfg.residual_tol,
        "seed": cfg.seed,
        "unitary": cfg.unitary,
    }


def _cmd_certify(args) -> int:
    state, label = _resolve_state(args.state, args.space)
    cfg = CertificationConfig(
        n_samples=args.samples,
        residual_tol=args.tol,
        seed=args.seed,
        unitary=args.unitary,
    )
    report = certify(state, cfg)
    payload = {
        "space": serialize.space_to_json(state.basis.space),
        "n": state.basis.n_photons,
        "state": label,
        "verdict": report.verdict.value,
        "worst_residual": report.worst_residual,
        "eigenvalues": serialize.vector_to_json(report.eigenvalues),
        "witness_sample_index": report.witness_sample_index,
        "config": _config_json(cfg),
    }
    lines = [
        f"state {label}: {report.verdict.value}",
        f"  worst residual over {cfg.n_samples} samples: {report.worst_residual:.3e}",
    ]
    if report.witness_sample_index is not None:
        lines.append(f"  witness sample: {report.witness_sample_index}")
    _emit(args, payload, lines)
    if args.expect == "protected" and report.verdict is not Verdict.PROTECTED:
        return 1
    return 0


def _cmd_search(args) -> int:
    space = serialize.parse_space(args.space)
    cfg = CertificationConfig(n_samples=args.samples, seed=args.seed)
    result = find_protected(space, args.n, cfg, sector=args.sector)
    if args.output == "pretty":
        # the rays' dense amplitudes are built and serialised only for JSON
        basis = enumerate_basis(space, args.n)
        lines = [f"{len(result.rays)} protected ray(s) at N = {args.n}"]
        for ray in result.rays:
            lines.append(f"  m_tot = {ray.m_tot}, tau = {ray.mirror_tau:+d}:")
            # a ray holds its values on its split, whose indices ascend
            support, values = ray.state._sparse()
            keep = abs(values) > 1e-9
            for i, amp in zip(support[keep].tolist(), values[keep]):
                lines.append(f"    {amp.real:+.6f}{amp.imag:+.6f}j  {basis.ket(i)}")
        _emit(args, None, lines)
        return 0
    payload = {
        "space": serialize.space_to_json(space),
        "n": args.n,
        "verdict": result.verdict.value,
        "samples_used": result.samples_used,
        "sectors": list(result.sectors),
        "rays": [
            {
                "m_tot": ray.m_tot,
                "mirror_tau": ray.mirror_tau,
                "amplitudes": serialize.vector_to_json(ray.state.amplitudes),
                "worst_residual": ray.report.worst_residual,
            }
            for ray in result.rays
        ],
        "config": _config_json(cfg),
    }
    _emit(args, payload, None)
    return 0


def _cmd_catalog(args) -> int:
    names = [args.state] if args.state else list(CATALOG)
    entries = []
    lines = []
    for name in names:
        try:
            state = build_state(StateRecipe.named(name, args.m))
        except ValueError:
            if args.m < 1:  # only the psi states read --m, and they live on hm(m)
                raise ValueError(serialize._HM_M0_ERROR.format(args.m)) from None
            raise
        basis, tau = state.basis, _mirror_parity(state)
        entries.append(
            {
                "name": name,
                "space": serialize.space_to_json(basis.space),
                "n": basis.n_photons,
                "mirror_tau": tau,
                "kets": [basis.ket(i) for i in range(len(basis))],
                "amplitudes": serialize.vector_to_json(state.amplitudes),
            }
        )
        terms = " ".join(
            f"{amp.real:+.4f}{amp.imag:+.4f}j {basis.ket(i)}"
            for i, amp in enumerate(state.amplitudes)
            if abs(amp) > 1e-12
        )
        lines.append(f"{name}  (tau {tau:+d}):  {terms}")
    _emit(args, {"states": entries}, lines)
    return 0


def _cmd_entangle(args) -> int:
    state, label = _resolve_state(args.state, args.space)
    report = slater_report(state, rank_tol=args.rank_tol)
    payload = {
        "space": serialize.space_to_json(state.basis.space),
        "state": label,
        "takagi_values": [float(v) for v in report.values],
        "slater_rank": report.rank,
        "is_single_product": report.is_single_product,
        "rank_tol": report.rank_tol,
    }
    lines = [
        f"state {label}: slater rank {report.rank}"
        + (" (single two-mode product)" if report.is_single_product else ""),
        "  takagi values: " + ", ".join(f"{v:.6f}" for v in report.values),
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_dfs(args) -> int:
    if not 0.0 <= args.loss <= 1.0:
        raise ValueError(f"--loss must lie in [0, 1], got {args.loss}")
    if args.d < 1:
        raise ValueError(f"--d must be at least 1, got {args.d}")
    carrier, label = _resolve_state(args.carrier, None)
    cfg = CertificationConfig(n_samples=args.samples, seed=args.seed)
    qudit = time_bin_qudit(np.full(args.d, 1.0 / np.sqrt(args.d)), carrier, cfg)
    # one static channel: a unitary symmetric draw scaled so the carrier's
    # success probability is exactly 1 - loss
    sampler = ScatterSampler(seed=args.seed, unitary=True)
    drawn = sampler.sample(carrier.basis.space)
    n = carrier.basis.n_photons
    scale = (1.0 - args.loss) ** (1.0 / (2.0 * n)) if n else 1.0
    channel = SymmetricScattering(
        space=drawn.space, matrix=drawn.matrix * scale, unitary=args.loss == 0.0
    )
    outcome = transmit(qudit, channel)
    csv_path = args.csv
    if csv_path:
        rows = ["epsilon,one_way,two_way"]
        for k in range(101):
            eps = k / 100.0
            rows.append(
                f"{eps:.2f},{erasure_capacity(eps, False)!r},{erasure_capacity(eps, True)!r}"
            )
        try:
            with open(csv_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(rows) + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {csv_path}: {exc.strerror}") from None
    payload = {
        "carrier": label,
        "d": args.d,
        "loss": args.loss,
        "seed": args.seed,
        "fidelity": outcome.fidelity,
        "success_probability": outcome.success_probability,
        "eigenvalues": serialize.vector_to_json(outcome.eigenvalues),
        "csv": csv_path,
    }
    lines = [
        f"carrier {label} over {args.d} bins, loss {args.loss}:",
        f"  fidelity            {outcome.fidelity:.12f}",
        f"  success probability {outcome.success_probability:.12f}",
    ]
    if csv_path:
        lines.append(f"  capacity curve written to {csv_path}")
    _emit(args, payload, lines)
    return 0


def _cmd_capacity(args) -> int:
    if not 0.0 <= args.eps <= 1.0:
        raise ValueError(f"--eps must lie in [0, 1], got {args.eps}")
    value = erasure_capacity(args.eps, args.two_way)
    payload = {"epsilon": args.eps, "two_way": args.two_way, "capacity": value}
    _emit(args, payload, [f"capacity: {value!r}"])
    return 0


def _read_matrix(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return serialize.matrix_from_json(json.load(fh))


def _cmd_validate(args) -> int:
    space = serialize.parse_space(args.space)
    matrix = _load(args.matrix, "matrix", _read_matrix)
    report = validate_scattering(matrix, space, tol=args.tol)
    payload = {
        "space": serialize.space_to_json(space),
        "ok": report.ok,
        "jz_commutator": report.jz_commutator,
        "mirror_commutator": report.mirror_commutator,
        "shape_residual": report.shape_residual,
        "sigma_excess": report.sigma_excess,
        "tol": report.tol,
    }
    lines = [
        f"symmetry compliance: {'ok' if report.ok else 'VIOLATION'}",
        f"  |[S, Jz]|       {report.jz_commutator:.3e}",
        f"  |[S, mirror]|   {report.mirror_commutator:.3e}",
        f"  shape residual  {report.shape_residual:.3e}",
        f"  sigma_max - 1   {report.sigma_excess:.3e}",
    ]
    _emit(args, payload, lines)
    return 0


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="symprot",
        description="Scattering-protected photonic states: certify, search, and apply them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--output", choices=("json", "pretty"), default="json")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    p = sub.add_parser("certify", help="test a state against random symmetric scatterers")
    p.add_argument("--state", required=True, help="catalog name, pair:m=..,N=.., mirrorfock:ns=..,na=.., or a JSON file")
    p.add_argument("--space", help="h0 or hm:<m>; fixes m for named psi states")
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-10, help="residual tolerance")
    p.add_argument("--unitary", action="store_true", help="sample unitary instead of subunitary scatterers")
    p.add_argument("--expect", choices=("protected",), help="exit 1 unless this verdict holds")
    common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("search", help="find all protected rays of an N-photon space")
    p.add_argument("--space", required=True, help="h0, hm:<m>, or a sum like h0+hm:1")
    p.add_argument("--n", type=int, required=True, help="photon number")
    p.add_argument("--sector", type=int, help="restrict to one total-angular-momentum sector")
    p.add_argument("--samples", type=int, default=64, help="certification samples per ray")
    common(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("catalog", help="list the named two-photon states")
    p.add_argument("--state", choices=CATALOG, help="show a single state")
    p.add_argument("--m", type=int, default=1, help="angular momentum for psi states")
    common(p, seed=False)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("entangle", help="Takagi values and Slater rank of a two-photon state")
    p.add_argument("--state", required=True)
    p.add_argument("--space", help="h0 or hm:<m>")
    p.add_argument("--rank-tol", type=float, default=1e-10)
    common(p, seed=False)
    p.set_defaults(func=_cmd_entangle)

    p = sub.add_parser("dfs", help="transmit a time-bin qudit through a lossy static scatterer")
    p.add_argument("--carrier", required=True, help="carrier state (name, family recipe, or file)")
    p.add_argument("--d", type=int, default=2, help="number of time bins")
    p.add_argument("--loss", type=float, default=0.0, help="carrier success probability is 1 - loss")
    p.add_argument("--samples", type=int, default=64, help="carrier certification samples")
    p.add_argument("--csv", help="also write the erasure capacity curve (eps 0..1 step 0.01)")
    common(p)
    p.set_defaults(func=_cmd_dfs)

    p = sub.add_parser("capacity", help="erasure channel capacity")
    p.add_argument("--eps", type=float, required=True, help="erasure probability")
    p.add_argument("--two-way", type=_parse_bool, default=False, metavar="BOOL",
                   help="true for two-way classical assistance (default false)")
    common(p, seed=False)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("validate", help="check a matrix against the symmetric family")
    p.add_argument("--space", required=True)
    p.add_argument("--matrix", required=True, help="JSON file: row-major nested [re, im] pairs")
    p.add_argument("--tol", type=float, default=1e-12)
    common(p, seed=False)
    p.set_defaults(func=_cmd_validate)

    return parser


# the exit code of each failure a command raises; argparse exits 2 by itself.
# A MemoryError is a request too large for memory, such as --samples 1e16
_EXIT_CODES = {ValueError: 2, MemoryError: 2, CarrierNotProtectedError: 1, GenericityError: 3}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"symprot: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())

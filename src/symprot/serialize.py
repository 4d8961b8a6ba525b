"""JSON encoding of mode spaces, states, matrices and CLI reports.

Complex numbers serialize as [re, im] pairs; matrices as row-major nested
lists of such pairs; Fock amplitudes follow the canonical basis order
(occupation vectors lexicographically decreasing). All CLI payloads carry
{"schema": "symprot/1"} and validate against the JSON Schema files shipped
in symprot/schemas/.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .fock import FockState, enumerate_basis
from .modes import ModeSpace, direct_sum, h0, hm

__all__ = [
    "SCHEMA_TAG",
    "complex_pair",
    "vector_to_json",
    "vector_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "space_to_json",
    "space_from_json",
    "state_to_json",
    "state_from_json",
    "load_state_file",
    "dump_state_file",
    "dumps",
    "load_schema",
]

SCHEMA_TAG = "symprot/1"


def complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def vector_to_json(vec) -> list[list[float]]:
    return [complex_pair(z) for z in np.asarray(vec, dtype=complex)]


def _finite(array: np.ndarray) -> np.ndarray:
    # Python's json reads NaN, Infinity and -Infinity as numbers
    if not np.isfinite(array).all():
        raise ValueError("entries must be finite numbers, not NaN or Infinity")
    return array


def vector_from_json(data) -> np.ndarray:
    return _finite(np.array([complex(re, im) for re, im in data], dtype=complex))


def matrix_to_json(mat) -> list[list[list[float]]]:
    return [vector_to_json(row) for row in np.asarray(mat, dtype=complex)]


def matrix_from_json(data) -> np.ndarray:
    return _finite(np.array([[complex(re, im) for re, im in row] for row in data], dtype=complex))


def space_to_json(space: ModeSpace) -> dict:
    if space.kind == "h0":
        return {"kind": "h0"}
    if space.kind == "hm":
        return {"kind": "hm", "m": space.m}
    return {"kind": "sum", "components": [space_to_json(c) for c in space.components]}


def _integer(value, key: str) -> int:
    """An integral JSON number, 2 or 2.0, as an int."""
    if type(value) not in (int, float) or value % 1:
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def space_from_json(data) -> ModeSpace:
    if not isinstance(data, dict):
        raise ValueError(f"a mode space must be a JSON object, got {data!r}")
    kind = data.get("kind")
    if kind == "h0":
        return h0()
    if kind == "hm":
        return hm(_integer(data["m"], "m"))
    if kind == "sum":
        return direct_sum(*(space_from_json(c) for c in data["components"]))
    raise ValueError(f"unknown mode-space kind {kind!r}")


# hm(m) for m < 1, worded for CLI users: the m = 0 doublet is --space h0
_HM_M0_ERROR = "hm requires m >= 1 (m == 0 is the doublet --space h0), got {}"


def parse_space(text: str) -> ModeSpace:
    """CLI space syntax: ``h0``, ``hm:2``, or a +-joined sum like ``h0+hm:1``."""
    parts = [p.strip().lower() for p in text.split("+")]
    spaces = []
    for part in parts:
        if part == "h0":
            spaces.append(h0())
        elif part.startswith("hm:"):
            try:
                m = int(part[3:])
            except ValueError:
                raise ValueError(f"malformed space {part!r}; expected hm:<m>") from None
            if m < 1:
                raise ValueError(_HM_M0_ERROR.format(m))
            spaces.append(hm(m))
        else:
            raise ValueError(f"unknown space {part!r}; expected h0 or hm:<m>")
    return direct_sum(*spaces)


def state_to_json(state: FockState) -> dict:
    return {
        "schema": SCHEMA_TAG,
        "space": space_to_json(state.basis.space),
        "n": state.basis.n_photons,
        "amplitudes": vector_to_json(state.amplitudes),
    }


def state_from_json(data) -> FockState:
    space = space_from_json(data["space"])
    basis = enumerate_basis(space, _integer(data["n"], "n"))
    amps = vector_from_json(data["amplitudes"])
    if amps.shape != (len(basis),):
        raise ValueError(
            f"amplitude count {amps.shape[0]} does not match basis size {len(basis)}"
        )
    return FockState(basis, amps)


def load_state_file(path: str) -> FockState:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return state_from_json(data)


def dump_state_file(state: FockState, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(state_to_json(state)))


def dumps(payload: dict) -> str:
    """Canonical JSON: sorted keys, two-space indent, newline at end; NaN and infinities raise ValueError."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def load_schema(name: str) -> dict:
    """A shipped JSON Schema by file stem, e.g. ``fock_state``."""
    ref = resources.files("symprot").joinpath("schemas", f"{name}.schema.json")
    return json.loads(ref.read_text(encoding="utf-8"))

"""JSON encoding of mode spaces, states, matrices and CLI reports.

Complex numbers serialize as [re, im] pairs; matrices as row-major nested
lists of such pairs; Fock amplitudes follow the canonical basis order
(occupation vectors lexicographically decreasing). All CLI payloads carry
{"schema": "symprot/2"} and validate against the JSON Schema files shipped
in symprot/schemas/. ``state_from_json`` does not read the tag, so state
files written under ``symprot/1`` still load.

``dumps`` writes exactly the text of the standard library's
``json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)``, which
the tests hold it to. With any ``indent``, CPython before 3.13 leaves its C
encoder for the pure-Python one, which formats every float of a payload in
Python. Nearly all of every payload is lists of floats or of [re, im] float
pairs, so ``dumps`` renders each such list with one C-level ``repr`` and
re-indents that text; whatever it does not handle goes to the stdlib.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from itertools import chain

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

SCHEMA_TAG = "symprot/2"


def complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _pairs(array) -> list:
    """A complex array as nested lists of [re, im] pairs of Python floats,
    -0.0 included, built by one ``tolist`` rather than a list per entry."""
    a = np.asarray(array, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def vector_to_json(vec) -> list[list[float]]:
    return _pairs(vec)


def _finite(array: np.ndarray) -> np.ndarray:
    # Python's json reads NaN, Infinity and -Infinity as numbers
    if not np.isfinite(array).all():
        raise ValueError("entries must be finite numbers, not NaN or Infinity")
    return array


def _complex(re, im) -> complex:
    # complex() takes JSON's true and false as 1 and 0
    if type(re) is bool or type(im) is bool:
        raise ValueError("entries must be numbers, not true or false")
    return complex(re, im)


def vector_from_json(data) -> np.ndarray:
    return _finite(np.array([_complex(re, im) for re, im in data], dtype=complex))


def matrix_to_json(mat) -> list[list[list[float]]]:
    return _pairs(mat)


def matrix_from_json(data) -> np.ndarray:
    return _finite(np.array([[_complex(re, im) for re, im in row] for row in data], dtype=complex))


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
    """Canonical JSON: sorted keys, two-space indent, newline at end; NaN and infinities raise ValueError.

    The text is that of ``json.dumps(payload, sort_keys=True, indent=2,
    allow_nan=False)`` plus the newline. A payload ``_encode`` cannot render
    (a non-finite float, a non-str key, a foreign type, a cycle) is handed
    whole to the stdlib, which renders it or raises its own exception.
    """
    out: list[str] = []
    try:
        _encode(payload, "\n", out, set())
    except _Unhandled:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii
_NUMBERS = frozenset((float, int))  # the exact types whose repr is their JSON text


class _Unhandled(Exception):
    """A value that ``dumps`` leaves to the stdlib encoder."""


def _encode(value, nl: str, out: list[str], open_ids: set[int]) -> None:
    """Append the canonical JSON of ``value`` to ``out``. ``nl`` is a newline
    and the indentation of the line ``value`` starts on; ``open_ids`` holds
    the ids of the containers being written, to find cycles. The type tests
    run in the order of the stdlib's encoder."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise _Unhandled
        out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple, dict)):
        if not value:
            out.append("{}" if isinstance(value, dict) else "[]")
            return
        text = _number_list(value, nl) if type(value) is list else None
        if text is not None:
            out.append(text)
            return
        if id(value) in open_ids:
            raise _Unhandled
        open_ids.add(id(value))
        inner = nl + "  "
        if isinstance(value, dict):
            if any(type(key) is not str for key in value):
                raise _Unhandled
            out.append("{")
            for i, (key, item) in enumerate(sorted(value.items())):
                out.append(("," if i else "") + inner + _encode_str(key) + ": ")
                _encode(item, inner, out, open_ids)
            out.append(nl + "}")
        else:
            out.append("[")
            for i, item in enumerate(value):
                out.append(("," if i else "") + inner)
                _encode(item, inner, out, open_ids)
            out.append(nl + "]")
        open_ids.remove(id(value))
    else:
        raise _Unhandled


def _number_list(items: list, nl: str) -> str | None:
    """The canonical JSON of a non-empty list of exact floats and ints, or of
    non-empty lists of them, starting at indentation ``nl``; None for any
    other list. ``repr`` writes such a list as JSON on one line, with ", "
    only between items, so re-indenting that line is all that is left."""
    kinds = set(map(type, items))
    inner = nl + "  "
    if kinds <= _NUMBERS:
        text = repr(items)
        body = text[1:-1].replace(", ", "," + inner)
        rendered = f"[{inner}{body}{nl}]"
    elif kinds == {list} and all(items) and set(map(type, chain.from_iterable(items))) <= _NUMBERS:
        deep = inner + "  "
        text = repr(items)
        body = text[2:-2].replace("], [", f"{inner}],{inner}[{deep}").replace(", ", "," + deep)
        rendered = f"[{inner}[{deep}{body}{inner}]{nl}]"
    else:
        return None
    if "n" in text:  # inf or nan
        raise _Unhandled
    return rendered


def load_schema(name: str) -> dict:
    """A shipped JSON Schema by file stem, e.g. ``fock_state``."""
    ref = resources.files("symprot").joinpath("schemas", f"{name}.schema.json")
    return json.loads(ref.read_text(encoding="utf-8"))

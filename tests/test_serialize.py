"""``serialize.dumps`` against its oracle, the standard library's encoder,
and the [re, im] pair lists that the payloads are made of."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symprot.serialize import dumps, matrix_from_json, matrix_to_json, vector_from_json, vector_to_json


def oracle(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def outcome(encode, payload):
    """The text ``encode`` writes, or the type of the exception it raises."""
    try:
        return encode(payload)
    except Exception as exc:  # noqa: BLE001 -- the type is the result
        return type(exc)


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e22, 1 / 3, 1.7976931348623157e308, 2.0**53 + 2]
floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_FLOATS))
strings = st.one_of(st.text(), st.sampled_from(["é", "ü  ", "\x00\x1f\x7f", '"\\/', "😀", "\ud800"]))
leaves = st.one_of(
    strings,
    st.integers(),
    st.integers(min_value=10**20, max_value=10**40),
    st.booleans(),
    st.none(),
    floats,
    floats.map(np.float64),
)
# the lists the payloads are made of, with ints and bools mixed in on some
numbers = st.one_of(floats, st.integers(), st.booleans())
number_lists = st.one_of(
    st.lists(floats),
    st.lists(numbers),
    st.lists(st.lists(floats, min_size=2, max_size=2)),
    st.lists(st.lists(numbers, max_size=3)),
)


def trees(leaf):
    return st.recursive(
        st.one_of(leaf, number_lists),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(strings, children, max_size=4),
        ),
        max_leaves=20,
    )


@settings(max_examples=400, deadline=None)
@given(trees(leaves))
def test_dumps_writes_the_stdlib_text(payload):
    assert dumps(payload) == oracle(payload)


_BAD = [float("nan"), float("inf"), -float("inf"), np.int64(1), 1j, {1.0}]


@settings(max_examples=300, deadline=None)
@given(trees(st.one_of(leaves, st.sampled_from(_BAD))))
def test_dumps_raises_what_the_stdlib_raises(payload):
    """A value the stdlib refuses (NaN, an infinity, a NumPy int, a complex
    or a set), at any depth, raises the stdlib's exception type."""
    assert outcome(dumps, payload) == outcome(oracle, payload)


@pytest.mark.parametrize("bad", _BAD, ids=["nan", "inf", "-inf", "int64", "complex", "set"])
@pytest.mark.parametrize(
    "place",
    [lambda v: v, lambda v: {"a": v}, lambda v: {"a": [1.0, v]}, lambda v: {"a": [[1.0, 2.0], [v, 0.0]]},
     lambda v: [{"b": ({"c": [v]},)}]],
    ids=["top", "dict", "list", "pair", "deep"],
)
def test_each_refused_value_raises_the_stdlib_exception(bad, place):
    expected = outcome(oracle, place(bad))
    assert isinstance(expected, type) and issubclass(expected, (TypeError, ValueError))
    assert outcome(dumps, place(bad)) is expected


def test_a_cycle_raises_the_stdlib_exception():
    cycle = [1.0]
    cycle.append({"again": cycle})
    with pytest.raises(ValueError, match="Circular reference"):
        oracle(cycle)
    with pytest.raises(ValueError, match="Circular reference"):
        dumps({"a": cycle})


def test_keys_that_are_not_strings_are_written_as_the_stdlib_writes_them():
    for payload in ({1: "one", 2.5: [1.0], -3: True}, {None: []}, {False: 1}, {"a": {3: 4}}):
        assert dumps(payload) == oracle(payload)
    assert outcome(dumps, {1: 2, "b": 3}) is outcome(oracle, {1: 2, "b": 3}) is TypeError


def _per_entry(array) -> list:
    """The [re, im] lists as they were built before, one entry at a time."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(array, dtype=complex)]


def test_vector_to_json_equals_the_per_entry_lists():
    """Strided and non-contiguous input, -0.0 and subnormal parts included:
    the same Python floats (repr tells -0.0 and np.float64 apart)."""
    values = np.random.default_rng(1).standard_normal(40) * 1e-3 + 1j
    values[[0, 3, 6]] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, -1e308)]
    for vector in (values, values[::3], values[::-1], values.real, [1, 2.5, -0.0]):
        assert repr(vector_to_json(vector)) == repr(_per_entry(vector))
    matrix = values.reshape(5, 8).T
    assert repr(matrix_to_json(matrix)) == repr([_per_entry(row) for row in matrix])


def test_pair_lists_round_trip_through_dumps():
    values = np.random.default_rng(2).standard_normal(9) + 1j * np.random.default_rng(3).standard_normal(9)
    text = dumps({"v": vector_to_json(values), "m": matrix_to_json(values.reshape(3, 3))})
    assert text == oracle({"v": _per_entry(values), "m": [_per_entry(r) for r in values.reshape(3, 3)]})
    doc = json.loads(text)
    assert vector_from_json(doc["v"]).tobytes() == values.tobytes()
    assert matrix_from_json(doc["m"]).tobytes() == values.reshape(3, 3).tobytes()


@pytest.mark.parametrize("entry", [[True, 0.0], [0.0, False], [1, True]])
def test_json_booleans_are_not_amplitudes(entry):
    """``complex(True, False)`` is 1+0j, but the state schema asks for numbers."""
    with pytest.raises(ValueError, match="not true or false"):
        vector_from_json([[1.0, 0.0], entry])
    with pytest.raises(ValueError, match="not true or false"):
        matrix_from_json([[[1.0, 0.0], entry]])
    assert vector_from_json([[1, 0], [0.5, -2]]).tolist() == [1 + 0j, 0.5 - 2j]


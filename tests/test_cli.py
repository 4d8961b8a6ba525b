"""End-to-end CLI checks run through subprocesses."""

import json
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from symprot import named_state
from symprot.serialize import load_schema, state_to_json


def run_cli(*args, check=True):
    result = subprocess.run(
        [sys.executable, "-m", "symprot.cli", *args],
        capture_output=True,
        text=True,
    )
    if check and result.returncode != 0:
        raise AssertionError(
            f"command {args} exited {result.returncode}: {result.stderr}"
        )
    return result


def payload(*args):
    return json.loads(run_cli(*args).stdout)


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize(
    "args",
    [
        ("certify", "--state", "psi4", "--space", "hm:1", "--samples", "8", "--seed", "3"),
        ("search", "--space", "h0", "--n", "3", "--samples", "8", "--seed", "5"),
        ("catalog",),
        ("entangle", "--state", "phi3"),
        ("dfs", "--carrier", "psi4", "--d", "2", "--samples", "8", "--seed", "1"),
        ("capacity", "--eps", "0.25", "--two-way", "false"),
    ],
    ids=["certify", "search", "catalog", "entangle", "dfs", "capacity"],
)
def test_same_seed_output_is_byte_identical(args):
    first = run_cli(*args).stdout
    second = run_cli(*args).stdout
    assert first == second


def test_validate_output_is_byte_identical(tmp_path):
    matrix = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(matrix))
    args = ("validate", "--space", "h0", "--matrix", str(path))
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_different_seeds_differ():
    a = run_cli("certify", "--state", "psi4", "--samples", "8", "--seed", "0").stdout
    b = run_cli("certify", "--state", "psi4", "--samples", "8", "--seed", "1").stdout
    assert a != b


# ---------------------------------------------------------------------------
# schema conformance


def test_outputs_validate_against_shipped_schemas(tmp_path):
    matrix_path = tmp_path / "m.json"
    matrix_path.write_text(
        json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
    )
    runs = {
        "certify": ("certify", "--state", "phi3", "--samples", "8"),
        "search": ("search", "--space", "hm:1", "--n", "2", "--samples", "8"),
        "catalog": ("catalog", "--state", "psi4"),
        "entangle": ("entangle", "--state", "psi4"),
        "dfs": ("dfs", "--carrier", "psi4", "--samples", "8"),
        "capacity": ("capacity", "--eps", "0.3", "--two-way", "true"),
        "validate": ("validate", "--space", "h0", "--matrix", str(matrix_path)),
    }
    for name, args in runs.items():
        doc = payload(*args)
        jsonschema.validate(doc, load_schema(name))
        assert doc["schema"] == "symprot/1"
        assert doc["command"] == name


# ---------------------------------------------------------------------------
# command behavior


def test_certify_verdict_and_expectation_gate():
    doc = payload("certify", "--state", "psi4", "--samples", "8")
    assert doc["verdict"] == "protected"
    assert doc["worst_residual"] < 1e-10
    ok = run_cli("certify", "--state", "psi4", "--samples", "8",
                 "--expect", "protected", check=False)
    assert ok.returncode == 0
    bad = run_cli("certify", "--state", "phi1", "--samples", "8",
                  "--expect", "protected", check=False)
    assert bad.returncode == 1
    assert json.loads(bad.stdout)["verdict"] == "not_protected"


def test_sampler_failure_exits_three(monkeypatch, capsys):
    """A GenericityError is reported on stderr with its own exit code."""
    from symprot import cli
    from symprot.scatter import GenericityError, ScatterSampler

    def exhausted(self, space):
        raise GenericityError("no generic sample within 100 attempts (floor 0.001)")

    monkeypatch.setattr(ScatterSampler, "sample", exhausted)
    for argv in (["certify", "--state", "psi4", "--samples", "8"],
                 ["dfs", "--carrier", "psi4", "--d", "2", "--samples", "8"]):
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "symprot: no generic sample within 100 attempts (floor 0.001)\n"


def test_certify_accepts_recipes_and_state_files(tmp_path):
    doc = payload("certify", "--state", "pair:m=1,N=4", "--samples", "8")
    assert doc["verdict"] == "protected"
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json(named_state("psi4"))))
    doc2 = payload("certify", "--state", str(path), "--samples", "8")
    assert doc2["verdict"] == "protected"


def test_search_finds_the_expected_ray_count():
    doc = payload("search", "--space", "h0", "--n", "4", "--samples", "8")
    assert len(doc["rays"]) == 5
    assert doc["verdict"] == "protected"
    taus = sorted(r["mirror_tau"] for r in doc["rays"])
    assert taus == [-1, -1, 1, 1, 1]


def test_catalog_lists_all_names():
    doc = payload("catalog")
    names = {s["name"] for s in doc["states"]}
    assert names == {"phi1", "phi2", "phi3", "s1", "s2", "psi1", "psi2", "psi3", "psi4"}


def test_catalog_single_state_amplitudes():
    doc = payload("catalog", "--state", "phi3")
    (entry,) = doc["states"]
    amps = [complex(re, im) for re, im in entry["amplitudes"]]
    r2 = 1 / np.sqrt(2)
    assert amps == pytest.approx([r2, 0.0, -r2])
    assert entry["kets"] == ["|2,0>", "|1,1>", "|0,2>"]
    assert entry["mirror_tau"] == -1


def test_entangle_reports_slater_structure():
    doc = payload("entangle", "--state", "phi3")
    assert doc["slater_rank"] == 2
    assert doc["is_single_product"] is True
    doc2 = payload("entangle", "--state", "psi4")
    assert doc2["slater_rank"] == 4
    assert doc2["is_single_product"] is False


def test_dfs_loss_sets_the_success_probability():
    doc = payload("dfs", "--carrier", "psi4", "--d", "3", "--loss", "0.2", "--samples", "8")
    assert doc["success_probability"] == pytest.approx(0.8, abs=1e-12)
    assert doc["fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_dfs_refuses_unprotected_carriers():
    result = run_cli("dfs", "--carrier", "phi1", "--samples", "8", check=False)
    assert result.returncode == 1


def test_dfs_csv_sweep(tmp_path):
    path = tmp_path / "cap.csv"
    payload("dfs", "--carrier", "psi4", "--samples", "8", "--csv", str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epsilon,one_way,two_way"
    assert len(lines) == 102
    row = dict(zip(("epsilon", "one_way", "two_way"), lines[26].split(",")))
    assert float(row["epsilon"]) == pytest.approx(0.25)
    assert float(row["one_way"]) == pytest.approx(0.5)
    assert float(row["two_way"]) == pytest.approx(0.75)


def test_capacity_values():
    assert payload("capacity", "--eps", "0.25", "--two-way", "false")["capacity"] == 0.5
    assert payload("capacity", "--eps", "0.5", "--two-way", "false")["capacity"] == 0.0
    assert payload("capacity", "--eps", "0.3", "--two-way", "true")["capacity"] == pytest.approx(0.7)


def test_validate_flags_asymmetric_matrices(tmp_path):
    alpha, beta = 0.6, 0.3
    matrix = [
        [[alpha, 0.0], [beta, 0.0]],
        [[-beta, 0.0], [alpha, 0.0]],
    ]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(matrix))
    doc = payload("validate", "--space", "h0", "--matrix", str(path))
    assert doc["ok"] is False
    assert doc["mirror_commutator"] > 1e-3


@pytest.mark.parametrize(
    "args, expected",
    [
        (("certify", "--state", "psi4", "--samples", "8"), "state psi4: protected"),
        (("search", "--space", "h0", "--n", "2", "--samples", "8"), "3 protected ray(s) at N = 2"),
        (("catalog", "--state", "phi3"), "phi3  (tau -1):"),
        (("entangle", "--state", "psi4"), "state psi4: slater rank 4"),
        (("dfs", "--carrier", "psi4", "--samples", "8"), "carrier psi4 over 2 bins, loss 0.0:"),
        (("capacity", "--eps", "0.25", "--two-way", "false"), "capacity: 0.5"),
        (("validate", "--space", "h0", "--matrix", "{matrix}"), "symmetry compliance: ok"),
    ],
    ids=["certify", "search", "catalog", "entangle", "dfs", "capacity", "validate"],
)
def test_pretty_output_mode(args, expected, tmp_path):
    matrix_path = tmp_path / "identity.json"
    matrix_path.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]))
    args = [a.format(matrix=matrix_path) for a in args]
    result = run_cli(*args, "--output", "pretty")
    assert result.stdout.startswith(expected)
    assert "schema" not in result.stdout
    assert result.stderr == ""


def test_state_files_are_normalized_before_use(tmp_path):
    """Scaling a state file's amplitudes changes nothing but the state label."""
    amps = np.zeros(10, dtype=complex)
    amps[[2, 5, 7, 9]] = [0.5, 0.5j, -0.5, 0.5]  # scaled by 3, the norm is exactly 3
    unit, scaled = tmp_path / "unit.json", tmp_path / "scaled.json"
    for path, factor in ((unit, 1), (scaled, 3)):
        doc = state_to_json(named_state("psi4"))
        doc["amplitudes"] = [[factor * z.real, factor * z.imag] for z in amps]
        path.write_text(json.dumps(doc))
    for command in (("certify", "--samples", "8"), ("entangle",)):
        docs = [payload(*command, "--state", str(path)) for path in (unit, scaled)]
        assert [doc.pop("state") for doc in docs] == [str(unit), str(scaled)]
        assert docs[0] == docs[1]


# ---------------------------------------------------------------------------
# errors → exit code 2


@pytest.mark.parametrize(
    "args",
    [
        ("certify", "--state", "nope"),
        ("certify", "--state", "pair:m=1,N=3"),
        ("search", "--space", "h9", "--n", "2"),
        ("capacity", "--eps", "1.5", "--two-way", "false"),
        ("capacity", "--eps", "0.2", "--two-way", "maybe"),
        ("validate", "--space", "h0", "--matrix", "/nonexistent/m.json"),
        (),
        ("certify", "--state", "psi4:m=2", "--space", "hm:1"),
    ],
    ids=["unknown-state", "odd-pair", "bad-space", "eps-range", "bad-bool",
         "missing-file", "no-command", "m-off-space"],
)
def test_usage_errors_exit_two(args):
    result = run_cli(*args, check=False)
    assert result.returncode == 2
    assert result.stdout == "" or "usage" in result.stdout.lower()


_AMPS = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize(
    "doc",
    [
        {"schema": "symprot/1", "space": {"kind": "h0"}},
        {"schema": "symprot/1", "space": "h0", "n": 2, "amplitudes": _AMPS},
        {"schema": "symprot/1", "space": {"kind": "sum", "components": ["h0"]}, "n": 2,
         "amplitudes": _AMPS},
        {"schema": "symprot/1", "space": {"kind": "h0"}, "n": 2.5, "amplitudes": _AMPS},
    ],
    ids=["no-n", "space-string", "component-string", "fractional-n"],
)
def test_malformed_state_file_exits_two(doc, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    result = run_cli("certify", "--state", str(path), check=False)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"symprot: malformed state file {path}: ")
    assert len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "args",
    [
        ("certify", "--state", "@{dir}", "--samples", "8"),
        ("validate", "--space", "h0", "--matrix", "{dir}"),
        ("dfs", "--carrier", "psi4", "--samples", "8", "--csv", "{dir}/missing/cap.csv"),
    ],
    ids=["state-dir", "matrix-dir", "csv-missing-dir"],
)
def test_unusable_paths_exit_two(args, tmp_path):
    """A directory given as an input file, or a CSV path that cannot be
    written, is one error line and exit 2, not a traceback."""
    result = run_cli(*[a.format(dir=tmp_path) for a in args], check=False)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("symprot: cannot ")
    assert len(result.stderr.splitlines()) == 1

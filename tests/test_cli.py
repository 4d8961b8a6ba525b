"""End-to-end CLI checks run through subprocesses."""

import json
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from symprot import named_state
from symprot.serialize import dumps, load_schema, state_to_json


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
        assert doc["schema"] == "symprot/2"
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

    def exhausted(self, space, size=None):
        raise GenericityError("no generic sample within 100 attempts (floor 0.001)")

    monkeypatch.setattr(ScatterSampler, "sample", exhausted)
    for argv in (["certify", "--state", "psi4", "--samples", "8"],
                 ["dfs", "--carrier", "psi4", "--d", "2", "--samples", "8"]):
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "symprot: no generic sample within 100 attempts (floor 0.001)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--state", "psi4", "--samples", "10000000000000000"],
        ["certify", "--state", "psi4", "--samples", "10000000000000000", "--unitary"],
        ["search", "--space", "hm:1", "--n", "2", "--samples", "10000000000000000"],
        ["dfs", "--carrier", "psi4", "--samples", "10000000000000000"],
    ],
    ids=["certify", "certify-unitary", "search", "dfs"],
)
def test_a_request_too_large_for_memory_exits_two(argv, capsys):
    """1e16 draws need more bytes than a 64-bit address space holds, so the
    allocation fails at once; the MemoryError is one line and exit 2."""
    from symprot import cli

    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("symprot: ") and captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--state", "psi4", "--seed", "-1"],
        ["search", "--space", "hm:1", "--n", "2", "--seed", "-1"],
        ["dfs", "--carrier", "psi4", "--seed", "-1"],
    ],
    ids=["certify", "search", "dfs"],
)
def test_a_negative_seed_is_one_line_naming_the_seed(argv, capsys):
    """The config refuses the seed with its own message, not NumPy's."""
    from symprot import cli

    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "symprot: seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["entangle", "--state", "phi3", "--rank-tol", "nan"], "rank_tol must be finite and >= 0, got nan"),
        (["entangle", "--state", "phi3", "--rank-tol", "inf"], "rank_tol must be finite and >= 0, got inf"),
        (["entangle", "--state", "phi3", "--rank-tol", "-1"], "rank_tol must be finite and >= 0, got -1.0"),
        (["validate", "--space", "h0", "--matrix", "{matrix}", "--tol", "nan"], "tol must be finite and > 0, got nan"),
        (["validate", "--space", "h0", "--matrix", "{matrix}", "--tol", "-1"], "tol must be finite and > 0, got -1.0"),
        (["validate", "--space", "h0", "--matrix", "{matrix}", "--tol", "0"], "tol must be finite and > 0, got 0.0"),
        (["certify", "--state", "pair:m=1,N=4,N=2"], "recipe parameter 'N' is given twice in 'pair:m=1,N=4,N=2'"),
        (["certify", "--state", "mirrorfock:ns=1,na=1,NS=2"], "recipe parameter 'NS' is given twice"),
        (["entangle", "--state", "psi4:m=1,m=2"], "recipe parameter 'm' is given twice"),
    ],
    ids=["rank-tol-nan", "rank-tol-inf", "rank-tol-negative", "tol-nan", "tol-negative", "tol-zero",
         "pair-repeated-n", "mirrorfock-repeated-ns", "named-repeated-m"],
)
def test_tolerances_and_recipes_are_refused_before_any_output(argv, message, tmp_path, capsys):
    """A NaN, infinite or negative tolerance, or a recipe parameter given
    twice, is one error line and exit 2, never a payload with NaN in it or
    one computed from whichever value came last."""
    from symprot import cli

    matrix = tmp_path / "identity.json"
    matrix.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]))
    assert cli.main([a.format(matrix=matrix) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("symprot: ") and message in captured.err
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
def test_payloads_never_render_non_finite_floats(value):
    """JSON has no NaN or Infinity, so ``dumps`` refuses them with ValueError."""
    with pytest.raises(ValueError):
        dumps({"rank_tol": value})
    assert dumps({"rank_tol": 0.5}) == '{\n  "rank_tol": 0.5\n}\n'


def test_certify_accepts_recipes_and_state_files(tmp_path):
    doc = payload("certify", "--state", "pair:m=1,N=4", "--samples", "8")
    assert doc["verdict"] == "protected"
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json(named_state("psi4"))))
    doc2 = payload("certify", "--state", str(path), "--samples", "8")
    assert doc2["verdict"] == "protected"


def test_symprot_1_state_files_still_load(tmp_path, capsys):
    """A state file tagged symprot/1, as earlier releases wrote it, still
    certifies; ``dump_state_file`` writes symprot/2 and reads back bitwise."""
    from symprot import cli
    from symprot.serialize import dump_state_file, load_state_file

    rng = np.random.default_rng(1)
    amps = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    amps /= np.linalg.norm(amps)
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"schema": "symprot/1", "space": {"kind": "hm", "m": 1}, "n": 2,
                               "amplitudes": [[float(z.real), float(z.imag)] for z in amps]}))
    assert cli.main(["certify", "--state", str(old)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "symprot/2" and doc["verdict"] == "not_protected"
    state = load_state_file(str(old))
    new = tmp_path / "new.json"
    dump_state_file(state, str(new))
    assert json.loads(new.read_text())["schema"] == "symprot/2"
    assert load_state_file(str(new)).amplitudes.tobytes() == state.amplitudes.tobytes()


def test_the_state_file_schema_accepts_both_tags(tmp_path):
    """The shipped state-file schema accepts what ``load_state_file``
    loads: a symprot/1 file as earlier releases wrote it, and a symprot/2
    one; any other tag is refused."""
    from symprot.serialize import dump_state_file

    schema = load_schema("fock_state")
    amps = [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]]
    old = {"schema": "symprot/1", "space": {"kind": "h0"}, "n": 2, "amplitudes": amps}
    path = tmp_path / "old.json"
    path.write_text(json.dumps(old))
    jsonschema.validate(json.loads(path.read_text()), schema)
    new = tmp_path / "new.json"
    dump_state_file(named_state("psi4"), str(new))
    jsonschema.validate(json.loads(new.read_text()), schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({**old, "schema": "symprot/3"}, schema)


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


def test_dfs_refuses_loss_on_a_zero_photon_carrier():
    """No scatterer removes photons from the vacuum, so a zero-photon
    carrier cannot have success probability 1 - loss below 1: --loss > 0
    is a usage error, and --loss 0 still transmits."""
    result = run_cli("dfs", "--carrier", "mirrorfock:ns=0,na=0", "--loss", "0.5", "--samples", "8", check=False)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        "symprot: --loss must be 0 on a zero-photon carrier: no scatterer removes photons from the vacuum, got 0.5\n"
    )
    doc = payload("dfs", "--carrier", "mirrorfock:ns=0,na=0", "--loss", "0", "--samples", "8")
    assert doc["success_probability"] == pytest.approx(1.0, abs=1e-12)
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


def test_pretty_search_serialises_no_ray(monkeypatch, capsys):
    """A pretty search prints its lines without converting the rays' dense
    amplitudes to JSON, and prints what a fresh process prints."""
    from symprot import cli, serialize

    def refuse(*args):
        raise AssertionError("a pretty search serialised a ray")

    argv = ["search", "--space", "h0+hm:1", "--n", "4", "--samples", "8", "--seed", "7"]
    expected = run_cli(*argv, "--output", "pretty").stdout
    monkeypatch.setattr(serialize, "vector_to_json", refuse)
    assert cli.main([*argv, "--output", "pretty"]) == 0
    out, err = capsys.readouterr()
    assert out == expected and err == ""
    assert expected.count("\n") > 20
    with pytest.raises(AssertionError, match="serialised a ray"):  # JSON still needs it
        cli.main(argv)


def test_pretty_search_kets_are_the_dense_amplitudes_above_the_cut(monkeypatch, capsys):
    """The ket lines, read from each ray's values on its split, list its
    dense amplitudes above 1e-9 in basis order, and no dense ray is built."""
    from symprot import CertificationConfig, FockState, cli, enumerate_basis, find_protected
    from symprot.serialize import parse_space

    def refuse(state, name):
        raise AssertionError(f"a pretty search built a ray's {name}")

    argv = ["search", "--space", "h0+hm:1", "--n", "4", "--samples", "8", "--seed", "7", "--output", "pretty"]
    monkeypatch.setattr(FockState, "__getattr__", refuse)  # reached only by a ray's first dense read
    assert cli.main(argv) == 0
    monkeypatch.undo()
    result = find_protected(parse_space("h0+hm:1"), 4, CertificationConfig(n_samples=8, seed=7))
    basis = enumerate_basis(parse_space("h0+hm:1"), 4)
    expected = [f"{len(result.rays)} protected ray(s) at N = 4"]
    for ray in result.rays:
        tau = "" if ray.mirror_tau is None else f", tau = {ray.mirror_tau:+d}"
        expected.append(f"  m_tot = {ray.m_tot}{tau}:")
        amplitudes = ray.state.amplitudes
        expected += [f"    {amplitudes[i].real:+.6f}{amplitudes[i].imag:+.6f}j  {basis.ket(i)}"
                     for i in np.flatnonzero(abs(amplitudes) > 1e-9)]
    out, err = capsys.readouterr()
    assert out == "\n".join(expected) + "\n" and err == ""
    assert len(expected) > 20


def test_state_files_are_normalized_before_use(tmp_path):
    """Scaling a state file's amplitudes changes nothing but the state label,
    also where the squared norm overflows (1e160) or underflows (1e-200)."""
    amps = np.zeros(10, dtype=complex)
    amps[[2, 5, 7, 9]] = [0.5, 0.5j, -0.5, 0.5]  # scaled by 3, the norm is exactly 3
    paths = [tmp_path / f"{name}.json" for name in ("unit", "scaled", "huge", "tiny")]
    for path, factor in zip(paths, (1, 3, 1e160, 1e-200)):
        doc = state_to_json(named_state("psi4"))
        doc["amplitudes"] = [[factor * z.real, factor * z.imag] for z in amps]
        path.write_text(json.dumps(doc))
    for command in (("certify", "--samples", "8"), ("entangle",)):
        results = [run_cli(*command, "--state", str(path)) for path in paths]
        assert [result.stderr for result in results] == [""] * len(paths)
        docs = [json.loads(result.stdout) for result in results]
        assert [doc.pop("state") for doc in docs] == [str(path) for path in paths]
        assert all(doc == docs[0] for doc in docs)


# ---------------------------------------------------------------------------
# errors → exit code 2


@pytest.mark.parametrize(
    "args,message",
    [
        (("certify", "--state", "nope"), "unknown state 'nope'"),
        (("certify", "--state", "pair:m=1,N=3"), "pair recipe needs even N"),
        (("search", "--space", "h9", "--n", "2"), "unknown space 'h9'"),
        (("capacity", "--eps", "1.5", "--two-way", "false"), "--eps must lie in [0, 1]"),
        (("capacity", "--eps", "0.2", "--two-way", "maybe"), "expected true or false"),
        (("validate", "--space", "h0", "--matrix", "/nonexistent/m.json"), "matrix file not found"),
        ((), "required: command"),
        (("certify", "--state", "psi4:m=2", "--space", "hm:1"), "not on the requested space"),
        (("search", "--space", "hm:0", "--n", "2"), "symprot: hm requires m >= 1"),
        (("catalog", "--state", "psi4", "--m", "0"), "symprot: hm requires m >= 1"),
    ],
    ids=["unknown-state", "odd-pair", "bad-space", "eps-range", "bad-bool",
         "missing-file", "no-command", "m-off-space", "hm-zero", "catalog-m-zero"],
)
def test_usage_errors_exit_two(args, message):
    result = run_cli(*args, check=False)
    assert result.returncode == 2
    assert result.stdout == "" or "usage" in result.stdout.lower()
    assert message in result.stderr


@pytest.mark.parametrize(
    "args,m",
    [(("search", "--space", "hm:0", "--n", "2"), 0), (("search", "--space", "h0+hm:0", "--n", "2"), 0),
     (("catalog", "--state", "psi4", "--m", "0"), 0), (("catalog", "--m", "-1"), -1),
     (("certify", "--state", "pair:m=0,N=2"), 0), (("certify", "--state", "psi4:m=0"), 0),
     (("entangle", "--state", "psi4:m=-1"), -1)],
    ids=["search", "search-sum", "catalog-state", "catalog-all",
         "certify-pair-recipe", "certify-named-recipe", "entangle-named-recipe"],
)
def test_m_zero_names_the_cli_space(args, m):
    """hm with m < 1 is refused in CLI terms, for a space and for a state
    recipe alike: the m = 0 doublet is --space h0."""
    result = run_cli(*args, check=False)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"symprot: hm requires m >= 1 (m == 0 is the doublet --space h0), got {m}\n"


_AMPS = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize(
    "doc",
    [
        {"schema": "symprot/1", "space": {"kind": "h0"}},
        {"schema": "symprot/1", "space": "h0", "n": 2, "amplitudes": _AMPS},
        {"schema": "symprot/1", "space": {"kind": "sum", "components": ["h0"]}, "n": 2,
         "amplitudes": _AMPS},
        {"schema": "symprot/1", "space": {"kind": "h0"}, "n": 2.5, "amplitudes": _AMPS},
        # Python's json writes and reads NaN and Infinity literals
        {"schema": "symprot/1", "space": {"kind": "h0"}, "n": 2,
         "amplitudes": [[float("nan"), 0.0], [1.0, 0.0], [0.0, 0.0]]},
        {"schema": "symprot/1", "space": {"kind": "h0"}, "n": 2,
         "amplitudes": [[1.0, 0.0], [0.0, float("-inf")], [0.0, 0.0]]},
        # the schema asks for numbers, and complex() would read true as 1
        {"schema": "symprot/1", "space": {"kind": "h0"}, "n": 2,
         "amplitudes": [[True, False], [0.0, 0.0], [0.0, 0.0]]},
    ],
    ids=["no-n", "space-string", "component-string", "fractional-n",
         "nan-amplitude", "infinite-amplitude", "boolean-amplitude"],
)
def test_malformed_state_file_exits_two(doc, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    for command in ("certify", "entangle"):
        result = run_cli(command, "--state", str(path), check=False)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"symprot: malformed state file {path}: ")
        assert len(result.stderr.splitlines()) == 1


def test_non_finite_matrix_file_exits_two(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps([[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]))
    result = run_cli("validate", "--space", "h0", "--matrix", str(path), check=False)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"symprot: malformed matrix file {path}: ")
    assert len(result.stderr.splitlines()) == 1


def test_boolean_matrix_file_exits_two(tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps([[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, False]]]))
    result = run_cli("validate", "--space", "h0", "--matrix", str(path), check=False)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"symprot: malformed matrix file {path}: entries must be numbers, not true or false\n"


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


def test_the_cached_parser_parses_as_a_fresh_one(tmp_path, capsys):
    """main builds its parser once per process. A sequence of in-process
    calls through that parser prints and exits exactly as the same calls
    do with a parser built afresh for each: usage errors, --help and every
    subcommand, in JSON and pretty output."""
    from symprot import cli

    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(state_to_json(named_state("psi4"))))
    matrix_path = tmp_path / "matrix.json"
    matrix_path.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]))
    calls = [
        ["capacity", "--eps", "0.1", "--two-way", "maybe"],
        ["--help"],
        ["certify", "--state", "psi4", "--space", "hm:1", "--samples", "8", "--seed", "3"],
        ["certify", "--state", str(state_path), "--samples", "8", "--output", "pretty"],
        ["certify", "--state", "phi1", "--samples", "8", "--expect", "protected"],
        [],
        ["search", "--space", "hm:1", "--n", "4", "--sector", "0", "--samples", "16", "--seed", "5"],
        ["search", "--space", "h0", "--n", "4", "--samples", "16", "--output", "pretty"],
        ["search", "--help"],
        ["catalog"],
        ["catalog", "--state", "psi4", "--m", "2", "--output", "pretty"],
        ["entangle", "--state", "phi3"],
        ["entangle", "--state", "psi4", "--space", "hm:1", "--output", "pretty"],
        ["dfs", "--carrier", "psi4", "--d", "3", "--loss", "0.2", "--samples", "8", "--seed", "4"],
        ["dfs", "--carrier", "phi1", "--d", "2", "--samples", "8"],
        ["dfs", "--carrier", "psi4", "--d", "0"],
        ["capacity", "--eps", "0.25", "--two-way", "true", "--output", "pretty"],
        ["validate", "--space", "h0", "--matrix", str(matrix_path)],
        ["validate", "--space", "h0", "--matrix", str(tmp_path / "missing.json")],
        ["certify"],
    ]

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    cli._build_parser.cache_clear()
    cached = [run(argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [2, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 2, 2]

"""Batch interface: reports, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

import gelfand
from gelfand import CertificationFailed, PropertyViolated, characters
from gelfand.cli import main
from gelfand.corpus import random_operator_fixture, standard_corpus
from gelfand.serialize import parse_algebra, parse_operator_model, vector_payload
from gelfand.verify import norm_suite, operator_suite

from oracles import change_basis


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


def run_json(capsys, argv):
    rc, out = run(capsys, argv)
    return rc, json.loads(out)


DUAL = {
    "dim": 2,
    "unit": [[1, 0], [0, 0]],
    "structure_constants": [
        [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
    ],
}

PARITY = {
    "dim": 2,
    "unit": [[1, 0], [0, 0]],
    "structure_constants": [
        [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
    ],
}


@pytest.fixture
def dual_path(tmp_path):
    return write(tmp_path, "dual.json", DUAL)


@pytest.fixture
def parity_path(tmp_path):
    return write(tmp_path, "parity.json", PARITY)


def test_validate_report(capsys, dual_path):
    rc, doc = run_json(capsys, ["validate", "--input", dual_path])
    assert rc == 0
    assert doc["command"] == "validate"
    assert doc["version"] == gelfand.__version__
    assert doc["seed"] == 0x5EED
    assert doc["dim"] == 2
    assert doc["asymmetry"] == 0.0
    assert doc["assoc_route"] == "scan"
    assert doc["assoc_residual"] == 0.0
    assert doc["involution_certified"] is False
    assert doc["passed"] is True


def test_validate_reports_the_table_route(capsys, parity_path):
    # two characters on a 2-dimensional algebra: the residual is their bound
    rc, doc = run_json(capsys, ["validate", "--input", parity_path])
    assert rc == 0
    assert doc["assoc_route"] == "table"
    assert 0.0 < doc["assoc_residual"] <= doc["eps_assoc"]


def test_characters_on_nilpotent_plane(capsys, dual_path):
    rc, doc = run_json(capsys, ["characters", "--input", dual_path])
    assert rc == 0
    assert doc["count"] == 1
    assert doc["radical_dim"] == 1
    assert doc["characters"] == [[[1.0, 0.0], [0.0, 0.0]]]


def test_radical_basis_lengths(capsys, dual_path):
    rc, doc = run_json(capsys, ["radical", "--input", dual_path])
    assert rc == 0
    assert doc["character_count"] == 1
    assert doc["radical_dim"] == 1
    assert len(doc["basis"]) == 1
    assert len(doc["basis"][0]) == 2
    assert doc["transform_residual"] <= 1e-9


def test_transform_values_sorted_by_character(capsys, tmp_path):
    doc = dict(PARITY, element=[0, 1])
    path = write(tmp_path, "t.json", doc)
    rc, out = run_json(capsys, ["transform", "--input", path])
    assert rc == 0
    values = sorted(re for re, im in out["values"])
    assert values == pytest.approx([-1.0, 1.0], abs=1e-9)


def test_interpolate_roundtrip_and_tolerance_override(capsys, tmp_path):
    doc = dict(PARITY, targets=[[1, 0], [0.3, 0.7]])
    path = write(tmp_path, "i.json", doc)
    rc, out = run_json(capsys, ["interpolate", "--input", path])
    assert rc == 0
    assert out["worst_error"] <= 1e-7
    assert out["passed"] is True
    rc, out = run_json(capsys, ["interpolate", "--input", path,
                                "--tol", "1e-30"])
    assert rc == 2
    assert out["passed"] is False


def test_norms_suite(capsys, parity_path):
    rc, doc = run_json(capsys, ["norms", "--input", parity_path])
    assert rc == 0
    assert doc["kinds"] == len(doc["reports"])
    for rep in doc["reports"]:
        assert rep["worst_contraction_ratio"] <= 1.0 + 1e-9
        assert rep["hom_norm"] == pytest.approx(1.0, abs=1e-9)
    assert doc["passed"] is True


def test_norms_with_user_weights(capsys, tmp_path):
    doc = dict(PARITY, weights=[1, 2])
    rc, out = run_json(capsys, ["norms", "--input", write(tmp_path, "w.json", doc)])
    algebra, _ = parse_algebra(PARITY)
    body = norm_suite(algebra, characters(algebra), samples=1000,
                      weights=np.array([1.0, 2.0]))
    assert rc == 0
    assert {k: out[k] for k in body} == body
    assert out["kinds"] == 3 and out["skipped"] == [] and out["passed"] is True


def test_norms_rejects_complex_weights(capsys, tmp_path):
    path = write(tmp_path, "w.json", dict(PARITY, weights=[[1, 1], [1, 0]]))
    rc, doc = run_json(capsys, ["norms", "--input", path])
    assert rc == 2
    assert doc["error"]["type"] == "ParseError"


def test_involution_check(capsys, tmp_path):
    doc = dict(PARITY, involution={"action": [[1, 0], [0, 1]]})
    path = write(tmp_path, "s.json", doc)
    rc, out = run_json(capsys, ["involution-check", "--input", path])
    assert rc == 0
    assert out["self_conjugate_characters"] == 2
    assert out["conjugation_closed"] is True
    assert out["passed"] is True


def test_involution_check_requires_block(capsys, parity_path):
    rc, doc = run_json(capsys, ["involution-check", "--input", parity_path])
    assert rc == 2
    assert doc["error"]["type"] == "ParseError"


def test_operator_closure(capsys, tmp_path):
    path = write(tmp_path, "op.json", {
        "dim": 2,
        "gram": [[2, 0], [0, 1]],
        "generators": [[[1, 0], [0, 3]]],
    })
    rc, doc = run_json(capsys, ["operator", "--input", path])
    assert rc == 0
    assert doc["closure_dim"] == 2
    assert doc["isomorphism"]["character_count"] == 2
    assert doc["isomorphism"]["radical_dim"] == 0
    assert doc["passed"] is True


def test_operator_rejects_noncommuting_generator(capsys, tmp_path):
    path = write(tmp_path, "shift.json", {
        "dim": 2,
        "gram": [[1, 0], [0, 1]],
        "generators": [[[0, 1], [0, 0]]],
    })
    rc, doc = run_json(capsys, ["operator", "--input", path])
    assert rc == 2
    assert doc["error"]["type"] == "NotCommutative"


def fixture_doc(seed):
    fix = random_operator_fixture(seed)
    return {"dim": fix.space.dim,
            "gram": [vector_payload(row) for row in fix.space.gram],
            "generators": [[vector_payload(row) for row in fix.generator]]}


WRAPPER = {"command", "version", "seed", "tolerance"}


@pytest.mark.parametrize("tol", [None, 1e-20])
def test_operator_report_is_the_operator_suite(capsys, tmp_path, tol):
    doc = fixture_doc(3)
    argv = ["operator", "--input", write(tmp_path, "op.json", doc)]
    if tol is not None:
        argv += ["--tol", repr(tol)]
    rc, out = run_json(capsys, argv)
    body = operator_suite(*parse_operator_model(doc), factor=tol)
    assert set(out) == set(body) | WRAPPER
    assert {k: out[k] for k in body} == body
    # --tol scales the adjoint-defect bound, and 1e-20 is below this defect
    assert body["passed"] is (tol is None)
    assert rc == (0 if tol is None else 2)


def test_operator_closure_failure_exits_two(capsys, tmp_path, monkeypatch):
    exc = PropertyViolated("closure broke", index=0, residual=1.0)

    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr("gelfand.operators.generate_star_subalgebra", boom)
    path = write(tmp_path, "op.json", fixture_doc(3))
    rc, out = run_json(capsys, ["operator", "--input", path])
    assert rc == 2
    assert out["error"] == exc.payload()
    assert out["passed"] is False


def test_group_abelian_report(capsys, tmp_path):
    path = write(tmp_path, "z4.json", {"abelian": [4]})
    rc, doc = run_json(capsys, ["group", "--input", path])
    assert rc == 0
    assert doc["kind"] == "abelian"
    assert doc["order"] == 4
    assert doc["count"] == 4
    assert doc["passed"] is True


def test_group_cayley_report(capsys, tmp_path):
    # S3 as permutations of {0,1,2}, composition table built by hand
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[k]] for k in range(3))] for q in perms]
             for p in perms]
    path = write(tmp_path, "s3.json", {"cayley": table, "identity": 0})
    rc, doc = run_json(capsys, ["group", "--input", path])
    assert rc == 0
    assert doc["kind"] == "center"
    assert doc["class_count"] == 3
    assert sorted(doc["class_sizes"]) == [1, 2, 3]
    assert doc["count"] == 3
    assert doc["passed"] is True


def test_group_rejects_bad_cayley_table(capsys, tmp_path):
    for table in ([[0, 0], [0, 0]], [[0, 1], [1]]):
        path = write(tmp_path, "bad.json", {"cayley": table})
        rc, doc = run_json(capsys, ["group", "--input", path])
        assert rc == 2
        assert doc["error"]["type"] == "InvalidGroup"


def test_missing_input_is_a_parse_error(capsys):
    rc, doc = run_json(capsys, ["characters"])
    assert rc == 2
    assert doc["error"]["type"] == "ParseError"


def test_missing_file_is_a_parse_error(capsys, tmp_path):
    rc, doc = run_json(capsys, ["validate", "--input",
                                str(tmp_path / "absent.json")])
    assert rc == 2
    assert doc["error"]["type"] == "ParseError"


def test_unknown_document_key_is_a_parse_error(capsys, tmp_path):
    path = write(tmp_path, "junk.json", dict(DUAL, junk=1))
    rc, doc = run_json(capsys, ["validate", "--input", path])
    assert rc == 2
    assert doc["error"]["type"] == "ParseError"


def test_internal_failure_exits_one(capsys, dual_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("induced")

    monkeypatch.setattr("gelfand.cli.characters", boom)
    rc, doc = run_json(capsys, ["characters", "--input", dual_path])
    assert rc == 1
    assert doc["error"]["type"] == "RuntimeError"


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_error_payload_turns_non_finite_values_into_null():
    exc = CertificationFailed(
        "gap inf", gap=float("inf"), worst=np.float64("nan"),
        z=complex(1.0, float("-inf")), rows=np.array([1.0, np.inf]),
        count=np.int64(3))
    payload = exc.payload()
    assert payload["details"] == {"gap": None, "worst": None, "z": [1.0, None],
                                  "rows": [1.0, None], "count": 3}
    assert payload["message"] == "gap inf"
    assert exc.details["gap"] == float("inf")
    json.loads(json.dumps(payload), parse_constant=reject_constant)


def test_failed_character_search_prints_strict_json(capsys, tmp_path):
    # Z2 in a basis of condition 1e6: the compressed matrix has one
    # eigenvalue, so the best gap is inf, and no candidate certifies
    z2 = next(item.algebra for item in standard_corpus() if item.name == "Z2")
    rng = np.random.default_rng(2)
    q1 = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    q2 = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    c, unit = change_basis(z2.structure_constants, z2.unit,
                           q1 @ np.diag([1.0, 1e6]) @ q2)
    path = write(tmp_path, "z2.json", {
        "dim": 2, "unit": vector_payload(unit),
        "structure_constants": [[vector_payload(row) for row in m] for m in c]})
    rc, out = run(capsys, ["characters", "--input", path])
    assert rc == 2
    doc = json.loads(out, parse_constant=reject_constant)
    assert doc["error"]["type"] == "CertificationFailed"
    assert doc["error"]["details"]["eigenvalue_gap"] is None
    assert "best eigenvalue gap inf" in doc["error"]["message"]


def test_bad_seed_is_a_usage_error(capsys, dual_path):
    with pytest.raises(SystemExit) as info:
        main(["characters", "--input", dual_path, "--seed", "zz"])
    assert info.value.code == 2


def test_hex_seed_is_echoed(capsys, dual_path):
    rc, doc = run_json(capsys, ["characters", "--input", dual_path,
                                "--seed", "0x10"])
    assert rc == 0
    assert doc["seed"] == 16


def test_identical_invocations_are_byte_identical(capsys, parity_path):
    argv = ["norms", "--input", parity_path, "--seed", "7"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_table_format_renders(capsys, dual_path):
    rc, out = run(capsys, ["characters", "--input", dual_path,
                           "--format", "table"])
    assert rc == 0
    assert "passed: yes" in out
    assert "{" not in out


def test_verify_all_passes(capsys):
    rc, doc = run_json(capsys, ["verify-all"])
    assert rc == 0
    assert doc["passed"] is True
    assert len(doc["items"]) == 14
    assert len(doc["operator_fixtures"]) == 4


def test_installed_entry_point(tmp_path):
    path = write(tmp_path, "dual.json", DUAL)
    proc = subprocess.run([sys.executable, "-m", "gelfand.cli",
                           "characters", "--input", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["count"] == 1


#: modules no single-algebra command needs; loading them is start-up waste
HEAVY = ("gelfand.corpus", "gelfand.groups", "gelfand.operators",
         "gelfand.norms", "gelfand.verify")


@pytest.mark.parametrize("command", ["validate", "characters"])
def test_command_loads_only_its_modules(tmp_path, command):
    path = write(tmp_path, "dual.json", DUAL)
    script = (
        "import sys, gelfand.cli\n"
        f"rc = gelfand.cli.main([{command!r}, '--input', {path!r}])\n"
        f"print(sorted(m for m in {HEAVY!r} if m in sys.modules), rc,"
        " file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.stderr.strip() == "[] 0", proc.stderr
    assert json.loads(proc.stdout)["passed"] is True

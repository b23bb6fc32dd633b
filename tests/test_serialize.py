"""Wire-format parsing and emission."""

import numpy as np
import pytest

from gelfand import FiniteAbelianGroup, FiniteGroup, ParseError
from gelfand.serialize import (
    character_table_payload,
    complex_pair,
    contraction_payload,
    parse_algebra,
    parse_complex,
    parse_group,
    parse_matrix,
    parse_operator_model,
    parse_tensor,
    parse_vector,
    vector_payload,
)
from gelfand.norms import ContractionReport
from gelfand.spectrum import characters


def dual_spec():
    return {
        "dim": 2,
        "unit": [[1, 0], [0, 0]],
        "structure_constants": [
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
        ],
    }


def test_complex_accepts_numbers_and_pairs():
    assert parse_complex(3, "x") == 3 + 0j
    assert parse_complex(-2.5, "x") == -2.5 + 0j
    assert parse_complex([1.5, -2], "x") == 1.5 - 2j
    assert parse_complex((0, 1), "x") == 1j


@pytest.mark.parametrize("bad", [True, "1", None, [1], [1, 2, 3], ["a", "b"],
                                 [1, True], {}])
def test_complex_rejects_other_shapes(bad):
    with pytest.raises(ParseError):
        parse_complex(bad, "x")


def test_vector_roundtrip_is_bitwise():
    v = np.array([1.25 - 3j, 0.0 + 1e-17j, -7.5], dtype=np.complex128)
    assert np.array_equal(parse_vector(vector_payload(v), 3, "v"), v)


def test_vector_length_enforced():
    with pytest.raises(ParseError):
        parse_vector([[1, 0]], 2, "v")
    with pytest.raises(ParseError):
        parse_vector({"a": 1}, 1, "v")


def test_matrix_and_tensor_shapes():
    m = parse_matrix([[1, 2], [3, 4]], 2, 2, "m")
    assert m.shape == (2, 2) and m[1, 0] == 3
    with pytest.raises(ParseError):
        parse_matrix([[1, 2], [3]], 2, 2, "m")
    t = parse_tensor(dual_spec()["structure_constants"], 2, "c")
    assert t.shape == (2, 2, 2) and t[0, 1, 1] == 1
    with pytest.raises(ParseError):
        parse_tensor([[[1]]], 2, "c")


def test_pair_emission_is_strict():
    assert complex_pair(2) == [2.0, 0.0]
    assert complex_pair(1 - 3j) == [1.0, -3.0]
    assert vector_payload(np.array([1j])) == [[0.0, 1.0]]


def test_parse_algebra_happy_path():
    doc = dual_spec()
    doc["basis_names"] = ["e", "eps"]
    algebra, star = parse_algebra(doc)
    assert algebra.dim == 2
    assert algebra.basis_names == ("e", "eps")
    assert star is None
    assert np.array_equal(algebra.unit, np.array([1, 0], dtype=np.complex128))


def test_parse_algebra_with_involution_block():
    doc = dual_spec()
    doc["involution"] = {"action": [[1, 0], [0, 1]]}
    algebra, star = parse_algebra(doc)
    assert star is not None
    assert star.algebra is algebra
    assert np.array_equal(star.action, np.eye(2))


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("unit"),
    lambda d: d.pop("dim"),
    lambda d: d.update(extra=1),
    lambda d: d.update(dim="2"),
    lambda d: d.update(dim=0),
    lambda d: d.update(basis_names=["only-one"]),
    lambda d: d.update(basis_names=[1, 2]),
    lambda d: d.update(involution={"action": [[1, 0], [0, 1]], "x": 1}),
    lambda d: d.update(involution={}),
    lambda d: d.update(structure_constants=[[[1]]]),
])
def test_parse_algebra_rejects_malformed_documents(mutate):
    doc = dual_spec()
    mutate(doc)
    with pytest.raises(ParseError):
        parse_algebra(doc)


def test_parse_group_abelian():
    g = parse_group({"abelian": [2, 3]})
    assert isinstance(g, FiniteAbelianGroup)
    assert g.order == 6


def test_parse_group_cayley_defaults_identity():
    g = parse_group({"cayley": [[0, 1], [1, 0]]})
    assert isinstance(g, FiniteGroup)
    assert g.order == 2
    assert g.mul(1, 1) == 0


@pytest.mark.parametrize("doc", [
    {},
    {"abelian": 4},
    {"abelian": [2.5]},
    {"cayley": [[0, 1], [1, 0]], "identity": "0"},
    {"cayley": "nope"},
    {"abelian": [2], "extra": 1},
    [1, 2],
])
def test_parse_group_rejects_malformed_documents(doc):
    with pytest.raises(ParseError):
        parse_group(doc)


def test_parse_operator_model():
    space, gens = parse_operator_model({
        "dim": 2,
        "gram": [[2, 0], [0, 1]],
        "generators": [[[1, 0], [0, 3]]],
    })
    assert space.dim == 2
    assert len(gens) == 1
    assert gens[0][1, 1] == 3


@pytest.mark.parametrize("doc", [
    {"dim": 2, "gram": [[1, 0], [0, 1]]},
    {"dim": 0, "gram": [], "generators": []},
    {"dim": 2, "gram": [[1, 0], [0, 1]], "generators": "x"},
    {"dim": 2, "gram": [[1, 0], [0, 1]], "generators": [], "junk": 0},
])
def test_parse_operator_model_rejects_malformed(doc):
    with pytest.raises(ParseError):
        parse_operator_model(doc)


def test_character_table_payload_shape():
    algebra, _ = parse_algebra(dual_spec())
    payload = character_table_payload(characters(algebra))
    assert sorted(payload) == ["characters", "count", "radical_dim", "residual"]
    assert payload["count"] == 1
    assert payload["radical_dim"] == 1
    assert payload["characters"] == [[[1.0, 0.0], [0.0, 0.0]]]


def test_contraction_payload_shape():
    rep = ContractionReport(kind="regular-operator-norm", samples=10,
                            seed=7, worst_ratio=0.5, passed=True, hom_norm=1.0)
    payload = contraction_payload(rep)
    assert payload == {"norm": "regular-operator-norm",
                       "worst_contraction_ratio": 0.5, "hom_norm": 1.0,
                       "samples": 10, "seed": 7}

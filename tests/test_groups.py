"""Convolution algebras of abelian groups and centers of general ones."""

import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gelfand import (
    CountMismatch,
    InvalidGroup,
    LengthMismatch,
    PropertyViolated,
    characters,
    polynomial_quotient,
    radical,
    seeded_rng,
)
from gelfand.groups import (
    _class_sum_algebra,
    abelian_characters,
    abelian_group,
    abelian_group_algebra,
    center_algebra,
    conjugacy_classes,
    convolve,
    dihedral_group_4,
    finite_group,
    quaternion_group,
    symmetric_group_3,
)
from gelfand.operators import (
    generate_star_subalgebra,
    inner_product_space,
    verify_gelfand_isomorphism,
)

from oracles import (
    abelian_character_table,
    dft_exponential_sums,
    match_rows,
    naive_convolution,
    union_find_classes,
)


def test_abelian_group_validation():
    with pytest.raises(InvalidGroup):
        abelian_group([2, 1])
    with pytest.raises(InvalidGroup) as exc:
        abelian_group([2.5])                        # not truncated to Z2
    assert exc.value.details["law"] == "integer"
    assert abelian_group([]).order == 1
    assert abelian_group([2, 3]).order == 6


def test_abelian_group_arithmetic():
    g = abelian_group([2, 3])
    assert g.elements()[0] == (0, 0)
    assert g.index((1, 2)) == 5
    assert g.add((1, 2), (1, 2)) == (0, 1)
    assert g.neg((1, 2)) == (1, 1)
    assert g.element_order((1, 1)) == 6
    assert g.element_order((0, 0)) == 1


def test_z2_algebra_is_parity_algebra():
    alg, star = abelian_group_algebra(abelian_group([2]))
    parity = polynomial_quotient([-1.0, 0.0])
    assert np.array_equal(alg.structure_constants, parity.structure_constants)
    assert np.array_equal(alg.unit, parity.unit)
    assert np.array_equal(star.action, np.eye(2))


def test_trivial_group_algebra():
    alg, star = abelian_group_algebra(abelian_group([]))
    assert alg.dim == 1
    assert np.array_equal(star.action, np.eye(1))


def test_klein_group_every_delta_selfadjoint():
    _, star = abelian_group_algebra(abelian_group([2, 2]))
    assert np.array_equal(star.action, np.eye(4))


def test_z3_star_swaps_nontrivial_deltas():
    alg, star = abelian_group_algebra(abelian_group([3]))
    assert_allclose(star.star([0, 1, 0]), [0, 0, 1], atol=0)
    assert_allclose(star.star([0, 0, 1]), [0, 1, 0], atol=0)


def test_convolve_identity_and_frozen_values():
    g2 = abelian_group([2])
    f = np.array([1.0, 2.0])
    assert np.array_equal(convolve(g2, f, [1.0, 0.0]), f)
    assert_allclose(convolve(g2, [1.0, 2.0], [3.0, 4.0]), [11.0, 10.0])
    g3 = abelian_group([3])
    assert_allclose(convolve(g3, [0, 1, 0], [0, 0, 1]), [1.0, 0.0, 0.0])


def test_convolve_rejects_wrong_lengths():
    with pytest.raises(LengthMismatch):
        convolve(abelian_group([3]), [1.0, 2.0], [1.0, 2.0, 3.0])


def test_convolve_agrees_with_abstract_multiply():
    group = abelian_group([2, 3])
    alg, _ = abelian_group_algebra(group)
    rng = seeded_rng(61)
    xs = alg.random_elements(200, rng)
    ys = alg.random_elements(200, rng)
    for x, y in zip(xs, ys):
        direct = convolve(group, x, y)
        abstract = alg.multiply(x, y)
        scale = 1.0 + float(np.max(np.abs(direct)))
        assert float(np.max(np.abs(direct - abstract))) <= 1e-13 * scale


def test_convolve_agrees_with_oracle():
    group = abelian_group([4])
    elems = group.elements()
    add_table = np.array([[group.index(group.add(a, b)) for b in elems]
                          for a in elems])
    rng = seeded_rng(67)
    f = rng.normal(size=4) + 1j * rng.normal(size=4)
    g = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert_allclose(convolve(group, f, g), naive_convolution(add_table, f, g),
                    rtol=0, atol=1e-12)


@pytest.mark.parametrize("factors,count", [
    ([], 1), ([2], 2), ([3], 3), ([4], 4), ([6], 6),
    ([2, 2], 4), ([2, 3], 6),
])
def test_character_counts_match_group_order(factors, count):
    assert len(abelian_characters(abelian_group(factors))) == count


def test_z4_character_values_are_fourth_roots():
    space = abelian_characters(abelian_group([4]))
    on_delta1 = sorted((round(v[1].real, 6), round(v[1].imag, 6))
                       for v in space.matrix())
    assert on_delta1 == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_cyclic_transform_is_dft(n):
    space = abelian_characters(abelian_group([n]))
    assert match_rows(dft_exponential_sums(n), space.matrix(), 1e-8) <= 1e-8


def test_product_group_matches_exponential_sum_oracle():
    space = abelian_characters(abelian_group([2, 3]))
    oracle = abelian_character_table([2, 3])
    assert match_rows(oracle, space.matrix(), 1e-8) <= 1e-8


def test_characters_form_a_group_pointwise():
    space = abelian_characters(abelian_group([2, 2]))
    rows = space.matrix()
    for a in rows:
        for b in rows:
            prod = a * b
            gaps = np.max(np.abs(rows - prod), axis=1)
            assert float(np.min(gaps)) < space.delta_sep


@pytest.mark.parametrize("factors", [[4], [2, 3]])
def test_group_algebra_radical_is_zero(factors):
    alg, _ = abelian_group_algebra(abelian_group(factors))
    space = characters(alg)
    assert radical(alg, space).dim == 0


class _TamperedSpace:
    """The two members of a character space that abelian_characters reads."""

    def __init__(self, values):
        self.values = values

    def __len__(self):
        return len(self.values)


@pytest.mark.parametrize("scale, phase, law", [
    (1.1, 1.0, "modulus"),        # character 1 fails both laws
    (1.0, 1.1, "root-of-unity"),  # character 1 its roots, character 2 its modulus
])
def test_abelian_character_laws_name_the_first_failing_character(
        monkeypatch, scale, phase, law):
    group = abelian_group([4])
    values = np.array(abelian_characters(group).values)
    values[1, 3] *= scale
    values[1, 2] *= np.exp(1j * (phase - 1.0))
    values[2, 1] *= 1.1
    monkeypatch.setattr("gelfand.groups.characters",
                        lambda alg, seed: _TamperedSpace(values))
    with pytest.raises(PropertyViolated) as exc:
        abelian_characters(group)
    details = exc.value.details
    assert details["law"] == law
    if law == "modulus":
        assert np.array_equal(details["values"], values[1])
    else:
        assert details["element"] == [2] and details["order"] == 2


def test_abelian_characters_deterministic():
    a = abelian_characters(abelian_group([6]))
    b = abelian_characters(abelian_group([6]))
    assert np.array_equal(a.matrix(), b.matrix())


def test_finite_group_validation_errors():
    with pytest.raises(InvalidGroup):
        finite_group([[0, 1]])                      # not square
    with pytest.raises(InvalidGroup):
        finite_group([[0, 2], [1, 0]])              # entry out of range
    with pytest.raises(InvalidGroup) as exc:
        finite_group([[0, 0], [1, 1]])              # constant rows
    assert exc.value.details["law"] == "latin"
    with pytest.raises(InvalidGroup) as exc:
        finite_group([[1, 0], [0, 1]], identity=0)  # 0 is not the identity
    assert exc.value.details["law"] == "identity"
    for table in ([[0, 1], [1]],                    # ragged
                  [[0, 1.5], [1.5, 0]]):            # not truncated to Z2
        with pytest.raises(InvalidGroup) as exc:
            finite_group(table)
        assert exc.value.details["law"] == "integer"
    with pytest.raises(InvalidGroup) as exc:
        finite_group([[0, 1], [1, 0]], identity=0.7)  # not truncated to 0
    assert exc.value.details["law"] == "integer"


def test_latin_check_reports_column_before_next_row():
    # row 0 is a permutation, column 0 and row 1 both repeat an entry; the
    # scan goes row 0, column 0, row 1, ... so column 0 is reported
    with pytest.raises(InvalidGroup) as exc:
        finite_group([[0, 1, 2], [0, 2, 2], [2, 0, 1]])
    assert exc.value.details == {"law": "latin", "column": 0}


def test_inverse_check_names_first_one_sided_element():
    # a Latin square with two-sided identity 0 in which some right inverse
    # is not a left inverse
    table = [[0, 1, 2, 3, 4],
             [1, 0, 3, 4, 2],
             [2, 3, 4, 0, 1],
             [3, 4, 1, 2, 0],
             [4, 2, 0, 1, 3]]
    with pytest.raises(InvalidGroup) as exc:
        finite_group(table)
    first = next(g for g in range(5) if table[table[g].index(0)][g] != 0)
    assert exc.value.details == {"law": "inverse", "element": first}


def test_finite_group_rejects_nonassociative_loop():
    # a Latin square with two-sided identity and inverses that is not a group:
    # (1*1)*2 = 2 but 1*(1*2) = 4
    loop = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    with pytest.raises(InvalidGroup) as exc:
        finite_group(loop)
    assert exc.value.details["law"] == "associative"
    first = next([a, b, c] for a in range(5) for b in range(5) for c in range(5)
                 if loop[loop[a][b]][c] != loop[a][loop[b][c]])
    assert exc.value.details["triple"] == first


def test_builtin_groups_validate():
    assert symmetric_group_3().order == 6
    assert dihedral_group_4().order == 8
    assert quaternion_group().order == 8


@pytest.mark.parametrize("maker,sizes", [
    (symmetric_group_3, (1, 3, 2)),
    (dihedral_group_4, (1, 2, 1, 2, 2)),
    (quaternion_group, (1, 1, 2, 2, 2)),
])
def test_conjugacy_class_sizes(maker, sizes):
    part = conjugacy_classes(maker())
    assert part.sizes == sizes


@pytest.mark.parametrize("maker", [symmetric_group_3, dihedral_group_4,
                                   quaternion_group])
def test_conjugacy_classes_match_union_find_oracle(maker):
    group = maker()
    part = conjugacy_classes(group)
    oracle = union_find_classes(group.cayley.tolist(), group.inverse.tolist())
    assert list(part.classes) == oracle


def test_relabeled_s4_classes_match_union_find_oracle():
    perms = list(itertools.permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    label = seeded_rng(71).permutation(len(perms))
    table = [[0] * 24 for _ in range(24)]
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[label[i]][label[j]] = int(label[index[tuple(p[x] for x in q)]])
    group = finite_group(table, identity=int(label[0]))
    part = conjugacy_classes(group)
    assert sorted(part.sizes) == [1, 3, 6, 6, 8]
    oracle = union_find_classes(group.cayley.tolist(), group.inverse.tolist())
    assert list(part.classes) == oracle


@pytest.mark.parametrize("factors", [[4], [2, 3], [4, 4], [2, 2, 2]])
def test_abelian_cayley_table_gives_singleton_classes_and_full_algebra(factors):
    abelian = abelian_group(factors)
    elems = abelian.elements()
    group = finite_group([[abelian.index(abelian.add(a, b)) for b in elems]
                          for a in elems])
    part = conjugacy_classes(group)
    assert part.sizes == (1,) * abelian.order
    center, center_star = center_algebra(group)
    full, full_star = abelian_group_algebra(abelian)
    assert np.array_equal(center.structure_constants, full.structure_constants)
    assert np.array_equal(center.unit, full.unit)
    assert np.array_equal(center_star.action, full_star.action)


def test_class_sums_of_a_non_class_partition_are_rejected():
    # Z6 with {1, 2} and {4, 5} merged into "classes": products with {0}
    # are even, and {1, 2} + {1, 2} hits 2 and 4 once but 1 and 5 never,
    # so the first uneven pair is (1, 1) and classes 1 and 3 witness it
    group = finite_group([[(i + j) % 6 for j in range(6)] for i in range(6)])
    with pytest.raises(PropertyViolated) as exc:
        _class_sum_algebra(group.cayley, group.inverse, np.array([0, 1, 1, 2, 3, 3]),
                           group.identity, ["z0", "z1", "z3", "z4"])
    assert exc.value.details == {"pair": [1, 1], "witness_class": 1}


def test_s3_center_characters_frozen():
    alg, _ = center_algebra(symmetric_group_3())
    assert alg.dim == 3
    assert alg.basis_names == ("z0", "z1", "z3")
    space = characters(alg)
    expected = np.array([
        [1.0, 3.0, 2.0],
        [1.0, -3.0, 2.0],
        [1.0, 0.0, -1.0],
    ], dtype=complex)
    assert match_rows(expected, space.matrix(), 1e-8) <= 1e-8


def test_d4_center_characters_frozen():
    alg, _ = center_algebra(dihedral_group_4())
    assert alg.dim == 5
    space = characters(alg)
    assert len(space) == 5
    expected = np.array([
        [1.0, 2.0, 1.0, 2.0, 2.0],
        [1.0, 2.0, 1.0, -2.0, -2.0],
        [1.0, -2.0, 1.0, 2.0, -2.0],
        [1.0, -2.0, 1.0, -2.0, 2.0],
        [1.0, 0.0, -1.0, 0.0, 0.0],
    ], dtype=complex)
    assert match_rows(expected, space.matrix(), 1e-8) <= 1e-8


def test_q8_center_characters_frozen():
    alg, _ = center_algebra(quaternion_group())
    assert alg.dim == 5
    space = characters(alg)
    expected = np.array([
        [1.0, 1.0, 2.0, 2.0, 2.0],
        [1.0, 1.0, 2.0, -2.0, -2.0],
        [1.0, 1.0, -2.0, 2.0, -2.0],
        [1.0, 1.0, -2.0, -2.0, 2.0],
        [1.0, -1.0, 0.0, 0.0, 0.0],
    ], dtype=complex)
    assert match_rows(expected, space.matrix(), 1e-8) <= 1e-8


@pytest.mark.parametrize("maker", [symmetric_group_3, dihedral_group_4,
                                   quaternion_group])
def test_center_radical_is_zero_and_star_is_identity(maker):
    alg, star = center_algebra(maker())
    space = characters(alg)
    assert radical(alg, space).dim == 0
    # every built-in class is closed under inversion, so star fixes the basis
    assert np.array_equal(star.action, np.eye(alg.dim))


def test_center_star_permutes_inverse_classes():
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    _, star = center_algebra(finite_group(table))
    expected = np.zeros((3, 3))
    expected[0, 0] = expected[2, 1] = expected[1, 2] = 1.0
    assert np.array_equal(star.action, expected)


def test_convolution_operators_embed_in_operator_model():
    # the regular representation realizes delta_a as a permutation matrix;
    # closing the shift on Z_4 under adjoints recovers the full algebra
    alg, _ = abelian_group_algebra(abelian_group([4]))
    shift = alg.left_regular(alg.basis_element(1))
    space = inner_product_space(np.eye(4))
    opalg = generate_star_subalgebra(space, [shift])
    assert opalg.dim == 4
    report = verify_gelfand_isomorphism(opalg)
    assert report.passed and report.character_count == 4


def test_addition_table_and_negation_are_built_once_and_lazily():
    group = abelian_group([4, 6])
    elems = group.elements()
    table, neg = group.addition_table, group.negation
    assert group.addition_table is table and group.negation is neg
    assert not table.flags.writeable and not neg.flags.writeable
    assert table.tolist() == [[group.index(group.add(a, b)) for b in elems]
                              for a in elems]
    assert neg.tolist() == [group.index(group.neg(a)) for a in elems]
    tracemalloc.start()
    try:
        big = abelian_group([10**5])
        assert big.order == 10**5
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

"""Certified norms, the character contraction bound, homomorphism norm."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gelfand import (
    ContractionViolated,
    InvalidNorm,
    abelian_group,
    abelian_group_algebra,
    center_algebra,
    characters,
    dual_numbers,
    homomorphism_norm,
    operator_norm,
    polynomial_quotient,
    seeded_rng,
    suggest_l1_weights,
    sup_norm,
    symmetric_group_3,
    validate,
    verify_contraction,
    weighted_l1_norm,
)
from gelfand.norms import CONTRACTION_SLACK
from gelfand.spectrum import CharacterSpace


def parity_algebra():
    return polynomial_quotient([-1.0, 0.0])


def scaled_parity():
    """C[t]/(t^2 - 4), where the suggested weights are not all ones."""
    return polynomial_quotient([-4.0, 0.0])


def cyclic(n):
    return abelian_group_algebra(abelian_group([n]))[0]


def rebased(alg, q):
    """The same algebra in the basis b'_a = sum_i q[i, a] b_i."""
    q_inv = np.linalg.inv(q)
    c = np.einsum("ia,jb,ijk,ck->abc", q, q, alg.structure_constants, q_inv)
    return validate(c, q_inv @ alg.unit)


def z8_permuted():
    return rebased(cyclic(8), np.eye(8)[seeded_rng(17).permutation(8)])


def z8_unitary():
    rng = seeded_rng(19)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    return rebased(cyclic(8), q)


def z16_scaled():
    """Z16 with one basis element scaled by 1 + 1e-6: the regular matrices
    are no longer normal, and the eigenbasis would be off by about 1e-6."""
    scale = np.ones(16)
    scale[1] += 1e-6
    return rebased(cyclic(16), np.diag(scale))


def s3_center():
    return center_algebra(symmetric_group_3())[0]


def z48():
    return cyclic(48)


def norm_triple(alg):
    space = characters(alg)
    return space, [
        operator_norm(alg),
        sup_norm(alg, space),
        weighted_l1_norm(alg, suggest_l1_weights(alg)),
    ]


def test_operator_norm_frozen_values():
    alg = parity_algebra()
    n = operator_norm(alg)
    assert n.of([1, 0]) == pytest.approx(1.0, abs=1e-12)
    assert n.of([0, 1]) == pytest.approx(1.0, abs=1e-12)  # L_t is a permutation
    assert n.of([3, 1]) == pytest.approx(4.0, abs=1e-12)


def test_sup_norm_kills_nilpotents():
    alg = dual_numbers()
    space = characters(alg)
    n = sup_norm(alg, space)
    assert n.of([0, 1]) == 0.0
    assert n.of([1, 0]) == pytest.approx(1.0, abs=1e-12)
    assert operator_norm(alg).of([0, 1]) == pytest.approx(1.0, abs=1e-12)


def test_sup_norm_equals_linf_of_transform_exactly():
    alg = scaled_parity()
    space = characters(alg)
    n = sup_norm(alg, space)
    xs = alg.random_elements(50, seeded_rng(7))
    for x in xs:
        assert n.of(x) == float(np.max(np.abs(space.transform(x))))


def test_suggested_weights_frozen():
    assert_allclose(suggest_l1_weights(parity_algebra()), [1.0, 1.0])
    assert_allclose(suggest_l1_weights(dual_numbers()), [1.0, 1.0])
    assert_allclose(suggest_l1_weights(scaled_parity()), [1.0, 4.0])
    assert_allclose(suggest_l1_weights(polynomial_quotient([0, 0, 0])), [1, 1, 1])


def test_suggested_weights_none_for_mixed_unit():
    # two orthogonal idempotents summing to the unit: no valid weights exist,
    # since w_i >= 1 is forced on both coordinates while ||e|| = w_0 + w_1 = 1
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 0] = 1.0
    c[1, 1, 1] = 1.0
    alg = validate(c, [1, 1])
    assert suggest_l1_weights(alg) is None


def test_weighted_l1_values():
    alg = scaled_parity()
    n = weighted_l1_norm(alg, [1.0, 4.0])
    assert n.of([1, 0]) == pytest.approx(1.0)
    assert n.of([0, 1]) == pytest.approx(4.0)
    assert n.of([3, -2j]) == pytest.approx(11.0)


def test_weighted_l1_rejects_bad_certificate():
    with pytest.raises(InvalidNorm) as exc:
        weighted_l1_norm(parity_algebra(), [1.0, 0.1])
    assert exc.value.details["pair"] == [1, 1]


def test_weighted_l1_rejects_unit_norm_away_from_one():
    with pytest.raises(InvalidNorm) as exc:
        weighted_l1_norm(parity_algebra(), [2.0, 2.0])
    assert exc.value.details["unit_norm"] == pytest.approx(2.0)


def test_weighted_l1_rejects_nonpositive_and_misshapen_weights():
    alg = parity_algebra()
    with pytest.raises(InvalidNorm):
        weighted_l1_norm(alg, [1.0, -1.0])
    with pytest.raises(InvalidNorm):
        weighted_l1_norm(alg, [1.0, 1.0, 1.0])


def test_sup_norm_rejects_foreign_character_space():
    space = characters(parity_algebra())
    with pytest.raises(InvalidNorm):
        sup_norm(dual_numbers(), space)


def test_sup_norm_rejects_empty_character_space():
    alg = parity_algebra()
    empty = CharacterSpace(algebra=alg, values=np.empty((0, alg.dim)),
                           residuals=np.empty(0))
    with pytest.raises(InvalidNorm):
        sup_norm(alg, empty)


@pytest.mark.parametrize("maker", [parity_algebra, scaled_parity,
                                   lambda: polynomial_quotient([0, 0, 0])])
def test_submultiplicative_on_seeded_pairs(maker):
    alg = maker()
    space, norms = norm_triple(alg)
    rng = seeded_rng(11, alg.dim)
    xs = alg.random_elements(1000, rng)
    ys = alg.random_elements(1000, rng)
    for n in norms:
        for x, y in zip(xs, ys):
            prod = n.of(alg.multiply(x, y))
            assert prod <= n.of(x) * n.of(y) * (1 + 1e-9)


@pytest.mark.parametrize("maker", [parity_algebra, scaled_parity, dual_numbers])
def test_contraction_passes_for_all_kinds(maker):
    alg = maker()
    space, norms = norm_triple(alg)
    for n in norms:
        report = verify_contraction(alg, n, space, samples=500, seed=3)
        assert report.passed
        assert report.worst_ratio <= 1 + 1e-9
        assert report.samples == 500 and report.seed == 3
        assert report.kind == n.kind


def test_contraction_ratio_exactly_one_for_sup_norm():
    alg = parity_algebra()
    space = characters(alg)
    report = verify_contraction(alg, sup_norm(alg, space), space, samples=200)
    assert report.worst_ratio == 1.0


def test_contraction_flags_unsound_norm():
    # bypass construction certification to plant a norm that is too small
    alg = parity_algebra()
    space = characters(alg)
    bogus = weighted_l1_norm(alg, [1.0, 1.0])
    object.__setattr__(bogus, "weights", np.array([0.25, 0.25]))
    with pytest.raises(ContractionViolated) as exc:
        verify_contraction(alg, bogus, space, samples=100, seed=5)
    details = exc.value.details
    assert details["worst_ratio"] > 1 + 1e-9
    assert details["kind"] == bogus.kind
    assert details["samples"] == 100 and details["seed"] == 5


def _reference_norm(n, x):
    """The per-element definition of each norm kind."""
    if n.kind == "regular-operator-norm":
        return float(np.linalg.norm(n.algebra.left_regular(x), 2))
    if n.kind == "sup-on-characters":
        return float(np.max(np.abs(n.space.transform(x))))
    return float(n.weights @ np.abs(x))


@pytest.mark.parametrize("maker", [scaled_parity, lambda: polynomial_quotient([0, 0, 0]),
                                   z8_permuted, z8_unitary])
@pytest.mark.parametrize("count", [0, 1, 7])
def test_of_many_matches_of_row_by_row(maker, count):
    alg = maker()
    norms = [operator_norm(alg), sup_norm(alg, characters(alg))]
    weights = suggest_l1_weights(alg)   # None when the unit has mixed support
    if weights is not None:
        norms.append(weighted_l1_norm(alg, weights))
    xs = alg.random_elements(count, seeded_rng(13, count))
    tol = 64 * np.finfo(np.float64).eps
    for n in norms:
        batch = n.of_many(xs)
        assert batch.shape == (count,)
        for x, value in zip(xs, batch):
            assert value == pytest.approx(n.of(x), rel=tol, abs=tol)
            assert value == pytest.approx(_reference_norm(n, x), rel=tol, abs=tol)


@pytest.mark.parametrize("maker, eigenbasis", [
    (z8_permuted, True), (z8_unitary, True),
    (s3_center, False), (dual_numbers, False), (scaled_parity, False), (z16_scaled, False)])
def test_regular_norm_path(maker, eigenbasis):
    # normal regular matrices are read off the certified eigenbasis; class-sum
    # centers, nilpotents and non-normal bases fall back to one SVD per element
    alg = maker()
    n = operator_norm(alg)
    xs = alg.random_elements(20, seeded_rng(23))
    tol = 64 * np.finfo(np.float64).eps
    for x, value in zip(xs, n.of_many(xs)):
        assert value == pytest.approx(_reference_norm(n, x), rel=tol, abs=tol)
    assert (n.joint_eigenvalues is not None) == eigenbasis


def test_zero_samples():
    # no samples: contraction has nothing to bound, and the witness e alone
    # attains the homomorphism norm
    alg = scaled_parity()
    space, norms = norm_triple(alg)
    for n in norms:
        report = verify_contraction(alg, n, space, samples=0)
        assert report.worst_ratio == 0.0 and report.passed
        assert abs(homomorphism_norm(alg, n, space, samples=0) - 1.0) <= CONTRACTION_SLACK


@pytest.mark.parametrize("maker", [parity_algebra, scaled_parity, dual_numbers, z48])
def test_homomorphism_norm_is_one(maker):
    alg = maker()
    space, norms = norm_triple(alg)
    for n in norms:
        h = homomorphism_norm(alg, n, space, samples=500)
        assert abs(h - 1.0) <= 1e-9


def test_contraction_report_deterministic():
    alg = scaled_parity()
    space = characters(alg)
    n = operator_norm(alg)
    a = verify_contraction(alg, n, space, samples=300, seed=42)
    b = verify_contraction(alg, n, space, samples=300, seed=42)
    assert a.worst_ratio == b.worst_ratio


def test_sampled_norm_checks_reject_a_foreign_space_or_norm():
    parity, dual = parity_algebra(), dual_numbers()
    norm = operator_norm(parity)
    for check in (verify_contraction, homomorphism_norm):
        with pytest.raises(InvalidNorm, match="character space belongs"):
            check(parity, norm, characters(dual))
        with pytest.raises(InvalidNorm, match="norm belongs"):
            check(parity, operator_norm(dual), characters(parity))

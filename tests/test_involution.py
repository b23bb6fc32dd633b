"""Involution certification, conjugate characters, self-adjoint splitting."""

from importlib import import_module

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gelfand import (
    CertificationFailed,
    PropertyViolated,
    ShapeMismatch,
    abelian_group,
    abelian_group_algebra,
    characters,
    dual_numbers,
    generate_star_subalgebra,
    polynomial_quotient,
    random_operator_fixture,
    seeded_rng,
    standard_corpus,
    validate,
)
from gelfand.involution import (
    Involution,
    conjugate_character,
    coordinate_conjugation,
    involution,
    radical_selfadjoint_span_check,
    selfadjoint_parts,
)
from gelfand.spectrum import (
    DEFAULT_SEED,
    Character,
    CharacterSpace,
    RadicalSubspace,
    radical,
    separation_threshold,
)
from gelfand.verify import _KEY_STAR, involution_suite

from oracles import naive_multiply


def gaussian_algebra():
    """C[t]/(t^2 + 1), a copy of C x C where t plays the imaginary unit."""
    return polynomial_quotient([1.0, 0.0])


def split_algebra():
    """C x C on the idempotent basis, unit (1, 1)."""
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 0] = 1.0
    c[1, 1, 1] = 1.0
    return validate(c, [1, 1], ["p", "q"])


def test_certifies_coordinate_conjugation_on_real_constants():
    for alg in (dual_numbers(), gaussian_algebra(), polynomial_quotient([0, 0, 0])):
        inv = coordinate_conjugation(alg)
        assert isinstance(inv, Involution)
        assert_allclose(inv.action, np.eye(alg.dim))


def test_star_is_plain_conjugation_under_identity_action():
    alg = gaussian_algebra()
    inv = coordinate_conjugation(alg)
    x = np.array([1 + 2j, -3j])
    assert np.array_equal(inv.star(x), np.conj(x))


def test_star_conjugate_linear():
    alg = gaussian_algebra()
    inv = involution(alg, np.diag([1.0, -1.0]))
    lam = 0.3 - 0.7j
    xs = alg.random_elements(50, seeded_rng(5))
    for x in xs:
        scale = 1e-14 * (1.0 + abs(lam) * float(np.max(np.abs(x))))
        assert_allclose(inv.star(lam * x), np.conj(lam) * inv.star(x),
                        rtol=0, atol=scale)


def test_rejects_wrong_shape():
    with pytest.raises(ShapeMismatch):
        involution(dual_numbers(), np.eye(3))


def test_accepts_fortran_ordered_action():
    alg = gaussian_algebra()
    inv = involution(alg, np.asfortranarray(np.diag([1.0, -1.0])))
    assert_allclose(inv.action, np.diag([1.0, -1.0]))
    with pytest.raises(PropertyViolated):
        involution(alg, np.asfortranarray([[1.0, np.nan], [0.0, 1.0]]))


def test_rejects_non_involutive_action():
    with pytest.raises(PropertyViolated) as exc:
        involution(dual_numbers(), np.diag([1.0, 2.0]))
    assert exc.value.details["law"] == "involutive"


def test_rejects_non_multiplicative_action():
    # S = diag(1, i) squares to the identity through conjugation but sends
    # t*t = 1 to 1 while (it)(it) = -1
    with pytest.raises(PropertyViolated) as exc:
        involution(polynomial_quotient([-1.0, 0.0]), np.diag([1.0, 1.0j]))
    assert exc.value.details["law"] == "multiplicative"
    assert exc.value.details["pair"] == [1, 1]


@pytest.mark.parametrize("coeffs, swap", [
    ([0.3 - 1j, 0.5, 2.0, -0.25j], (2, 3)),
    ([1.0, 0.0, -0.5, 0.25j], (1, 2)),
    ([1.0, 0.0, -0.5, 0.25j], (1, 3)),
])
def test_multiplicative_witness_matches_naive_pairs(coeffs, swap):
    # swapping two basis vectors is involutive but breaks products here
    alg = polynomial_quotient(coeffs)
    n = alg.dim
    perm = list(range(n))
    perm[swap[0]], perm[swap[1]] = swap[1], swap[0]
    s = np.eye(n)[:, perm]
    c = alg.structure_constants
    naive = {}
    for i in range(n):
        for j in range(i, n):
            lhs = s @ np.conj(c[i, j])
            rhs = naive_multiply(c, s[:, i], s[:, j])
            naive[(i, j)] = float(np.max(np.abs(lhs - rhs)))
    with pytest.raises(PropertyViolated) as exc:
        involution(alg, s)
    details = exc.value.details
    assert details["law"] == "multiplicative"
    i, j = details["pair"]
    assert i <= j
    worst = max(naive.values())
    assert abs(details["residual"] - worst) <= 1e-12
    assert abs(naive[(i, j)] - worst) <= 1e-12


def test_star_involutive_on_seeded_elements():
    alg = gaussian_algebra()
    for action in (np.eye(2), np.diag([1.0, -1.0])):
        inv = involution(alg, action)
        xs = alg.random_elements(1000, seeded_rng(13))
        for x in xs:
            back = inv.star(inv.star(x))
            assert float(np.max(np.abs(back - x))) <= 1e-12 * (1 + np.max(np.abs(x)))


def test_star_multiplicative_on_seeded_pairs():
    alg = split_algebra()
    inv = involution(alg, np.array([[0.0, 1.0], [1.0, 0.0]]))
    rng = seeded_rng(17)
    xs = alg.random_elements(300, rng)
    ys = alg.random_elements(300, rng)
    for x, y in zip(xs, ys):
        lhs = inv.star(alg.multiply(x, y))
        rhs = alg.multiply(inv.star(x), inv.star(y))
        assert float(np.max(np.abs(lhs - rhs))) <= alg.eps_char * (1 + np.max(np.abs(lhs)))


def test_conjugate_character_coordinate_conjugation_swaps_pair():
    alg = gaussian_algebra()
    space = characters(alg)
    inv = coordinate_conjugation(alg)
    phi = space[0]          # values (1, -i) in sorted order
    psi, equal = conjugate_character(inv, phi)
    assert not equal
    assert_allclose(psi.values, np.conj(phi.values), atol=1e-12)


def test_conjugate_character_sign_flip_fixes_each():
    alg = gaussian_algebra()
    space = characters(alg)
    inv = involution(alg, np.diag([1.0, -1.0]))
    for phi in space:
        psi, equal = conjugate_character(inv, phi)
        assert equal
        assert_allclose(psi.values, phi.values, atol=1e-12)


def test_conjugate_character_swap_involution_exchanges_projections():
    alg = split_algebra()
    inv = involution(alg, np.array([[0.0, 1.0], [1.0, 0.0]]))
    first = Character(values=np.array([1.0 + 0j, 0j]), residual=0.0)
    psi, equal = conjugate_character(inv, first)
    assert not equal
    assert_allclose(psi.values, [0.0, 1.0], atol=1e-15)


def test_conjugate_character_real_characters_fixed():
    alg = polynomial_quotient([-1.0, 0.0])
    inv = coordinate_conjugation(alg)
    for phi in characters(alg):
        _, equal = conjugate_character(inv, phi)
        assert equal


def test_conjugate_character_is_involutive_on_spectrum():
    alg = gaussian_algebra()
    inv = coordinate_conjugation(alg)
    for phi in characters(alg):
        psi, _ = conjugate_character(inv, phi)
        back, _ = conjugate_character(inv, psi)
        assert float(np.max(np.abs(back.values - phi.values))) < 1e-9


def test_conjugate_character_rejects_bogus_character():
    alg = split_algebra()
    inv = coordinate_conjugation(alg)
    fake = Character(values=np.array([2.0 + 0j, 0j]), residual=0.0)
    with pytest.raises(CertificationFailed):
        conjugate_character(inv, fake)


def test_selfadjoint_parts_frozen_dual_number_cases():
    alg = dual_numbers()
    eps = [0.0, 1.0]
    x1, x2 = selfadjoint_parts(coordinate_conjugation(alg), eps)
    assert_allclose(x1, [0.0, 1.0], atol=1e-15)
    assert_allclose(x2, [0.0, 0.0], atol=1e-15)
    x1, x2 = selfadjoint_parts(involution(alg, np.diag([1.0, -1.0])), eps)
    assert_allclose(x1, [0.0, 0.0], atol=1e-15)
    assert_allclose(x2, [0.0, -1.0j], atol=1e-15)


def test_selfadjoint_parts_reconstruct_and_are_fixed():
    alg = gaussian_algebra()
    inv = involution(alg, np.diag([1.0, -1.0]))
    xs = alg.random_elements(500, seeded_rng(23))
    for x in xs:
        x1, x2 = selfadjoint_parts(inv, x)
        scale = 1e-14 * (1 + float(np.max(np.abs(x))))
        assert_allclose(x1 + 1j * x2, x, rtol=0, atol=scale)
        assert_allclose(inv.star(x1), x1, rtol=0, atol=alg.eps_char)
        assert_allclose(inv.star(x2), x2, rtol=0, atol=alg.eps_char)


def test_selfadjoint_of_selfadjoint_is_identity_component():
    alg = gaussian_algebra()
    inv = coordinate_conjugation(alg)
    y = np.array([2.0, -1.5])        # real coords: star-fixed under conjugation
    x1, x2 = selfadjoint_parts(inv, y)
    assert_allclose(x1, y, atol=1e-15)
    assert_allclose(x2, 0 * y, atol=1e-15)
    x1, x2 = selfadjoint_parts(inv, 1j * y)
    assert_allclose(x1, 0 * y, atol=1e-15)
    assert_allclose(x2, y, atol=1e-15)


def test_radical_span_check_vacuous_without_radical():
    alg = gaussian_algebra()
    rep = radical_selfadjoint_span_check(coordinate_conjugation(alg), characters(alg))
    assert rep.passed and rep.radical_dim == 0 and rep.checked == 0
    assert rep.worst_residual == 0.0


def test_radical_span_check_on_an_empty_table():
    alg = dual_numbers()
    empty = CharacterSpace(algebra=alg, values=np.empty((0, alg.dim)),
                           residuals=np.empty(0))
    rep = radical_selfadjoint_span_check(coordinate_conjugation(alg), empty)
    assert rep.passed and rep.radical_dim == 2 and rep.checked == 4
    assert rep.worst_residual == 0.0


@pytest.mark.parametrize("action", [np.eye(2), np.diag([1.0, -1.0])])
def test_radical_span_check_dual_numbers(action):
    alg = dual_numbers()
    rep = radical_selfadjoint_span_check(involution(alg, action), characters(alg))
    assert rep.passed
    assert rep.radical_dim == 1
    assert rep.checked == 2
    assert rep.worst_residual <= alg.eps_char


def test_radical_span_check_depth_three():
    alg = polynomial_quotient([0.0, 0.0, 0.0])
    rep = radical_selfadjoint_span_check(coordinate_conjugation(alg), characters(alg))
    assert rep.passed and rep.radical_dim == 2 and rep.checked == 4


def test_radical_span_check_reports_the_first_leaking_column(monkeypatch):
    # jet-3 has radical span{t, t^2}; columns 1 and 2 of the fake basis
    # hold 1 and 1 + t, which every character maps to 1
    alg = polynomial_quotient([0.0, 0.0, 0.0])
    space = characters(alg)
    basis = np.array([[0, 1, 0], [1, 0, 0], [1, 1, 0]], dtype=complex).T
    fake = RadicalSubspace(algebra=alg, basis=basis, transform_residual=1.0,
                           power_residual=1.0)
    # the package binds the function involution over its module's name
    monkeypatch.setattr(import_module("gelfand.involution"), "radical",
                        lambda algebra, space: fake)
    with pytest.raises(PropertyViolated, match="radical vector 1 leaks") as err:
        radical_selfadjoint_span_check(coordinate_conjugation(alg), space)
    assert err.value.details == {"column": 1, "residual": 1.0,
                                 "tolerance": alg.eps_char}


@pytest.mark.parametrize("item", [item for item in standard_corpus()
                                  if item.star is not None
                                  and item.expected_radical_dim],
                         ids=lambda item: item.name)
def test_radical_span_check_matches_the_selfadjoint_parts_loop(item):
    inv = item.star
    space = characters(inv.algebra)
    rad = radical(inv.algebra, space)
    worst = max(float(np.max(np.abs(space.transform(part)), initial=0.0))
                for col in rad.basis.T for part in selfadjoint_parts(inv, col))
    rep = radical_selfadjoint_span_check(inv, space)
    assert rep.checked == 2 * rad.dim
    assert rep.worst_residual == pytest.approx(worst, rel=1e-12, abs=1e-15)


def _stars():
    params = [pytest.param(item.star, id=item.name)
              for item in standard_corpus() if item.star is not None]
    return params + [pytest.param(abelian_group_algebra(abelian_group((12,)))[1], id="Z12")]


@pytest.mark.parametrize("inv", _stars())
def test_involution_suite_matches_conjugate_character_loop(inv):
    space = characters(inv.algebra)
    values = space.matrix()
    thresh = separation_threshold([ch.values for ch in space])
    fixed = 0
    closed = True
    for phi in space:
        psi, equal = conjugate_character(inv, phi)
        gap = float(np.max(np.abs(psi.values - phi.values)))
        assert equal == (gap < separation_threshold((phi.values, psi.values)))
        fixed += equal
        closed = closed and float(np.min(np.max(np.abs(psi.values - values), axis=1))) <= thresh
    out = involution_suite(inv, space)
    assert out["self_conjugate_characters"] == fixed
    assert out["conjugation_closed"] is closed


def _closure_star(seed):
    fix = random_operator_fixture(seed)
    return generate_star_subalgebra(fix.space, [fix.generator]).star


@pytest.mark.parametrize("inv", _stars() + [
    pytest.param(_closure_star(seed), id=f"closure-{seed}") for seed in range(3)])
@pytest.mark.parametrize("samples", [0, 25])
def test_batched_star_roundtrip_matches_the_per_vector_loop(inv, samples):
    xs = inv.algebra.random_elements(samples, seeded_rng(DEFAULT_SEED, _KEY_STAR))
    worst = 0.0
    for x in xs:
        gap = float(np.max(np.abs(inv.star(inv.star(x)) - x)))
        worst = max(worst, gap / (1.0 + float(np.max(np.abs(x)))))
    out = involution_suite(inv, characters(inv.algebra), samples=samples)
    assert abs(out["star_roundtrip_residual"] - worst) <= 1e-15


def test_uncertified_star_fails_conjugation_the_same_way():
    # diag(1, i) is involutive but not multiplicative on C[t]/(t^2 - 1);
    # built directly, it skips certification and breaks every conjugate
    alg = polynomial_quotient([-1.0, 0.0])
    inv = Involution(algebra=alg, action=np.diag([1.0, 1.0j]))
    space = characters(alg)
    with pytest.raises(CertificationFailed) as one:
        conjugate_character(inv, space[0])
    with pytest.raises(CertificationFailed) as suite:
        involution_suite(inv, space)
    assert set(one.value.details) == set(suite.value.details) == {"residual", "tolerance"}
    assert one.value.details == suite.value.details
    assert one.value.details["residual"] > alg.eps_char


def test_span_check_and_suite_reject_a_foreign_space():
    inv = coordinate_conjugation(polynomial_quotient([-1.0, 0.0]))
    space = characters(dual_numbers())
    with pytest.raises(PropertyViolated, match="different algebra"):
        radical_selfadjoint_span_check(inv, space)
    with pytest.raises(PropertyViolated, match="different algebra"):
        involution_suite(inv, space)

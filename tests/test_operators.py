"""Adjoints, star-closed operator algebras, and their Gelfand structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gelfand import (
    NotCommutative,
    NotMember,
    PropertyViolated,
    ShapeMismatch,
    characters,
    operator_norm,
    radical,
    seeded_rng,
)
from gelfand.errors import SelfAdjointnessViolated
from gelfand.operators import (
    adjoint,
    adjoint_defect,
    check_selfadjoint_nilpotent,
    generate_star_subalgebra,
    inner_product_space,
    verify_gelfand_isomorphism,
)
from gelfand.verify import involution_suite


def euclidean(d):
    return inner_product_space(np.eye(d))


def random_gram(d, rng):
    """Hermitian positive definite with eigenvalues in [0.1, 10]."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(z)
    lam = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=d))
    return (q * lam) @ q.conj().T


def gram_root(gram):
    """W = G^½ and W⁻¹."""
    evals, vecs = np.linalg.eigh(gram)
    return ((vecs * np.sqrt(evals)) @ vecs.conj().T,
            (vecs / np.sqrt(evals)) @ vecs.conj().T)


def unitary(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return np.linalg.qr(z)[0]


def planted_normal(space, eigs, rng):
    """A G-normal matrix with the given eigenvalues, in a random eigenbasis."""
    u = unitary(space.dim, rng)
    w, _ = gram_root(space.gram)
    return np.linalg.solve(w, (u * eigs) @ u.conj().T) @ w


def normal_fixture(d, rng):
    """(space, T, eigs): T is G-normal with well-separated eigenvalues."""
    space = inner_product_space(random_gram(d, rng))
    while True:
        eigs = rng.normal(size=d) + 1j * rng.normal(size=d)
        gaps = [abs(eigs[i] - eigs[j]) for i in range(d) for j in range(i + 1, d)]
        if not gaps or min(gaps) >= 0.1:
            break
    return space, planted_normal(space, eigs, rng), eigs


def commuting_pair_fixture(d, rng):
    """(space, [S, T]): commuting G-normal matrices sharing one eigenbasis.

    S repeats each of d/2 eigenvalues twice and T splits every such pair,
    so only the two together generate the d-dimensional closure.
    """
    space = inner_product_space(random_gram(d, rng))
    u = unitary(d, rng)
    w, _ = gram_root(space.gram)
    half = np.arange(d // 2) + 1.0
    eigs = [np.repeat(half, 2), np.ravel(np.column_stack([half, -half])) * (1 + 1j)]
    return space, [np.linalg.solve(w, (u * e) @ u.conj().T) @ w for e in eigs]


def test_gram_validation_rejects_bad_matrices():
    with pytest.raises(ShapeMismatch):
        inner_product_space(np.zeros((2, 3)))
    with pytest.raises(PropertyViolated) as exc:
        inner_product_space([[1.0, 1.0], [0.0, 1.0]])
    assert exc.value.details["law"] == "hermitian"
    with pytest.raises(PropertyViolated) as exc:
        inner_product_space(np.diag([1.0, -1.0]))
    assert exc.value.details["law"] == "positive-definite"
    with pytest.raises(PropertyViolated):
        inner_product_space(np.diag([1.0, 1e-12]))


def test_gram_validation_accepts_fortran_order():
    gram = np.asfortranarray([[2.0, 0.5j], [-0.5j, 1.0]])
    assert_allclose(inner_product_space(gram).gram, gram)
    with pytest.raises(PropertyViolated):
        inner_product_space(np.asfortranarray([[1.0, np.inf], [0.0, 1.0]]))


def test_adjoint_euclidean_is_conjugate_transpose():
    space = euclidean(2)
    t = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert_allclose(adjoint(space, t), [[0.0, 0.0], [1.0, 0.0]], atol=1e-15)
    h = np.array([[2.0, 1j], [-1j, 3.0]])
    assert_allclose(adjoint(space, h), h, atol=1e-15)


def test_adjoint_weighted_frozen_value():
    space = inner_product_space(np.diag([1.0, 2.0]))
    t = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert_allclose(adjoint(space, t), [[0.0, 0.0], [0.5, 0.0]], atol=1e-15)


def test_adjoint_defining_identity_on_random_vectors():
    rng = seeded_rng(31)
    for d in (2, 3, 5):
        space = inner_product_space(random_gram(d, rng))
        t = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        ts = adjoint(space, t)
        for _ in range(20):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            w = rng.normal(size=d) + 1j * rng.normal(size=d)
            lhs = space.inner(t @ v, w)
            rhs = space.inner(v, ts @ w)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))


def test_adjoint_defect_scales_with_conditioning():
    rng = seeded_rng(37)
    for d in (2, 4):
        space = inner_product_space(random_gram(d, rng))
        t = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        ts = adjoint(space, t)
        g = space.gram
        budget = (1e-10 * np.linalg.norm(t, 2) * np.linalg.norm(g, 2)
                  * np.linalg.norm(np.linalg.inv(g), 2))
        assert adjoint_defect(space, t, ts) <= budget


def test_adjoint_is_involutive_and_antimultiplicative():
    rng = seeded_rng(41)
    space = inner_product_space(random_gram(3, rng))
    t = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    back = adjoint(space, adjoint(space, t))
    assert_allclose(back, t, rtol=0, atol=1e-10 * (1 + np.max(np.abs(t))))
    s = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    lhs = adjoint(space, s @ t)
    rhs = adjoint(space, t) @ adjoint(space, s)
    assert_allclose(lhs, rhs, rtol=0, atol=1e-9 * (1 + np.max(np.abs(lhs))))


def test_unital_closure_with_no_generators():
    opalg = generate_star_subalgebra(euclidean(3))
    assert opalg.dim == 1
    assert_allclose(opalg.basis_ops[0], np.eye(3) / np.sqrt(3))
    report = verify_gelfand_isomorphism(opalg)
    assert report.passed and report.character_count == 1


def test_diagonal_generator_closure():
    space = euclidean(2)
    t = np.diag([1.0, 2.0])
    opalg = generate_star_subalgebra(space, [t])
    assert opalg.dim == 2
    # two points of one eigenvector each: the unit is 1 on both point masses
    assert np.array_equal(opalg.algebra.unit, [1.0, 1.0])
    values = sorted(np.round(v.real, 6) for v in _transform_values(opalg, t))
    assert values == [1.0, 2.0]


def _transform_values(opalg, t):
    space = characters(opalg.algebra)
    return space.transform(opalg.coords(t))


def test_noncommuting_generator_rejected():
    with pytest.raises(NotCommutative) as exc:
        generate_star_subalgebra(euclidean(2), [np.array([[0.0, 1.0], [0.0, 0.0]])])
    assert "adjoint" in " ".join(exc.value.details["pair"])


def test_nearly_commuting_generators_fail_loudly():
    # the commutator 8e-9 passes the commutation check, yet in the joint
    # eigenbasis generator 1 keeps an off-diagonal residual above the
    # closure threshold, so the two share no eigenbasis
    t = np.diag([3.0, 4.0]) + 8e-9 * np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotCommutative) as exc:
        generate_star_subalgebra(euclidean(2), [np.diag([1.0, 2.0]), t])
    assert "generator 1" in exc.value.details["pair"]
    assert exc.value.details["residual"] <= exc.value.details["tolerance"]


def test_generator_just_outside_the_closure_shows_in_expansion_residual():
    # at 2e-9 the off-diagonal residual is below the closure threshold, so
    # the closure is built, and the residual is reported, not hidden
    t = np.diag([3.0, 4.0]) + 2e-9 * np.array([[0.0, 1.0], [0.0, 0.0]])
    opalg = generate_star_subalgebra(euclidean(2), [np.diag([1.0, 2.0]), t])
    assert opalg.dim == 2
    assert opalg.expansion_residual >= 1e-9


@pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-7])
def test_close_eigenvalues_of_a_normal_generator_are_resolved(gap):
    # G-normal, Gram condition 100, eigenvalues 0 and gap among 8 spread ones
    for seed in range(3):
        rng = seeded_rng(seed, 97)
        u = unitary(8, rng)
        space = inner_product_space((u * np.geomspace(1.0, 100.0, 8)) @ u.conj().T)
        eigs = np.arange(8) * (0.5 + 0.25j)
        eigs[1] = gap
        opalg = generate_star_subalgebra(space, [planted_normal(space, eigs, rng)])
        assert opalg.dim == 8
        assert verify_gelfand_isomorphism(opalg).passed


@pytest.mark.parametrize("gap", [3e-9, 1e-9, 3e-10, 1e-11])
def test_eigenvalues_in_the_closure_grey_band_merge_loudly_or_resolve(gap):
    # a pair this close to the closure threshold is either kept apart or
    # merged into one point, and then the generator's leftover off the
    # merged point, |gap| / √2, shows in the expansion residual
    rng = seeded_rng(7, 103)
    eigs = np.array([0.5, 0.5 + gap, -1.0 + 0.5j, 2.0j, 1.5, -0.75 - 1.0j])
    space = euclidean(6)
    opalg = generate_star_subalgebra(space, [planted_normal(space, eigs, rng)])
    assert opalg.dim in (5, 6)
    if opalg.dim == 5:
        assert opalg.expansion_residual >= gap / 2
    assert verify_gelfand_isomorphism(opalg).passed


def test_coords_roundtrip_and_membership():
    space = euclidean(2)
    opalg = generate_star_subalgebra(space, [np.diag([1.0, 2.0])])
    x = opalg.coords(np.diag([3.0, -1.0 + 2j]))
    assert_allclose(opalg.matrix_of(x), np.diag([3.0, -1.0 + 2j]), atol=1e-12)
    with pytest.raises(NotMember):
        opalg.coords(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_embedded_multiplication_matches_operator_product():
    rng = seeded_rng(43)
    space, t, _ = normal_fixture(4, rng)
    opalg = generate_star_subalgebra(space, [t])
    for _ in range(50):
        x = opalg.algebra.random_elements(1, rng)[0]
        y = opalg.algebra.random_elements(1, rng)[0]
        lhs = opalg.matrix_of(opalg.algebra.multiply(x, y))
        rhs = 0.5 * (opalg.matrix_of(x) @ opalg.matrix_of(y)
                     + opalg.matrix_of(y) @ opalg.matrix_of(x))
        assert_allclose(lhs, rhs, rtol=0, atol=1e-7 * (1 + np.max(np.abs(rhs))))


def test_induced_star_matches_concrete_adjoint():
    rng = seeded_rng(47)
    space, t, _ = normal_fixture(3, rng)
    opalg = generate_star_subalgebra(space, [t])
    for _ in range(50):
        x = opalg.algebra.random_elements(1, rng)[0]
        lhs = opalg.matrix_of(opalg.star.star(x))
        rhs = adjoint(space, opalg.matrix_of(x))
        assert_allclose(lhs, rhs, rtol=0, atol=1e-7 * (1 + np.max(np.abs(rhs))))


def test_normal_generator_characters_are_eigenvalues():
    rng = seeded_rng(53)
    for d in (2, 3, 5):
        space, t, eigs = normal_fixture(d, rng)
        opalg = generate_star_subalgebra(space, [t])
        assert opalg.dim == d
        report = verify_gelfand_isomorphism(opalg)
        assert report.passed
        assert report.character_count == d
        assert report.radical_dim == 0
        got = np.array(sorted(_transform_values(opalg, t),
                              key=lambda z: (z.real, z.imag)))
        want = np.array(sorted(eigs, key=lambda z: (z.real, z.imag)))
        assert_allclose(got, want, rtol=0, atol=1e-7 * (1 + np.max(np.abs(want))))


def test_isomorphism_residuals_match_per_character_loop():
    rng = seeded_rng(67)
    space, t, _ = normal_fixture(4, rng)
    opalg = generate_star_subalgebra(space, [t])
    report = verify_gelfand_isomorphism(opalg)
    chars = characters(opalg.algebra)
    s, n = opalg.star.action, opalg.dim
    conj = max(float(np.max(np.abs(s.T @ phi.values - np.conj(phi.values))))
               for phi in chars)
    fixed = [i for i in range(n)
             if np.max(np.abs(s[:, i] - np.eye(n)[:, i])) <= opalg.algebra.eps_char]
    real = max(abs(phi.values[i].imag) for i in fixed for phi in chars)
    scale = 1.0 + float(np.max(np.abs(chars.matrix())))
    assert report.conjugation_residual == pytest.approx(
        conj, rel=0, abs=64 * np.finfo(np.float64).eps * scale)
    assert report.realness_residual == real
    # the closure's basis ops are self-adjoint, so the true star is the
    # identity; one that negates every basis op sends phi to -conj(phi)
    object.__setattr__(opalg.star, "action", -np.eye(n, dtype=complex))
    with pytest.raises(PropertyViolated) as exc:
        verify_gelfand_isomorphism(opalg)
    assert exc.value.details["clause"] == "conjugation"


def test_selfadjoint_nilpotent_zero_operator():
    rep = check_selfadjoint_nilpotent(euclidean(2), np.zeros((2, 2)))
    assert rep.passed and rep.hypothesis_met
    assert rep.t_norm == 0.0 and rep.t_squared_norm == 0.0


def test_selfadjoint_nilpotent_vacuous_when_square_is_large():
    rep = check_selfadjoint_nilpotent(euclidean(2), np.diag([1.0, -1.0]))
    assert rep.passed and not rep.hypothesis_met
    assert rep.t_squared_norm == pytest.approx(1.0)


def test_selfadjoint_nilpotent_tiny_perturbation():
    t = 1e-12 * np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = check_selfadjoint_nilpotent(euclidean(2), t)
    assert rep.passed and rep.hypothesis_met
    assert rep.t_norm <= rep.bound <= 2e-5


def test_selfadjoint_nilpotent_rejects_nonselfadjoint():
    with pytest.raises(SelfAdjointnessViolated):
        check_selfadjoint_nilpotent(euclidean(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_two_generator_closure_is_orthonormal():
    d = 24
    space, gens = commuting_pair_fixture(d, seeded_rng(61))
    opalg = generate_star_subalgebra(space, gens)
    assert opalg.dim == 24
    ops = opalg.basis_ops
    # 24 distinct joint eigenvalues: each basis op is a rank-one projector
    # and the unit weighs each by one
    assert np.array_equal(opalg.algebra.unit, np.ones(d))
    # orthonormal in the G inner product, i.e. in the Frobenius pairing of
    # the whitened frame W ops W⁻¹, W = G^½
    root, root_inv = gram_root(space.gram)
    white = root @ ops @ root_inv
    pairings = np.einsum("aij,bij->ab", white.conj(), white)
    assert np.max(np.abs(pairings - np.eye(opalg.dim))) <= 1e-12


def test_closure_deterministic():
    rng1 = seeded_rng(59)
    space1, t1, _ = normal_fixture(3, rng1)
    rng2 = seeded_rng(59)
    space2, t2, _ = normal_fixture(3, rng2)
    a = generate_star_subalgebra(space1, [t1])
    b = generate_star_subalgebra(space2, [t2])
    assert np.array_equal(a.basis_ops, b.basis_ops)
    assert np.array_equal(a.algebra.structure_constants, b.algebra.structure_constants)


@pytest.mark.parametrize("cond", [1e2, 1e3, 1e4])
def test_ill_conditioned_closures_pass_involution_suite(cond):
    # in a G-orthonormal basis the induced star matrix S is unitary, so
    # star(star(x)) = x to rounding, whatever the condition of G
    rng = seeded_rng(int(np.log10(cond)), 71)
    for _ in range(6):
        u = unitary(16, rng)
        space = inner_product_space((u * np.geomspace(1.0, cond, 16)) @ u.conj().T)
        t = planted_normal(space, rng.permutation(16) * (0.3 + 0.2j), rng)
        opalg = generate_star_subalgebra(space, [t])
        assert opalg.dim == 16
        report = involution_suite(opalg.star, characters(opalg.algebra))
        assert report["passed"], report


def test_closure_regular_norm_reads_joint_eigenvalues():
    # ⟨A, B⟩_G is a positive trace, so L_{x*} is the adjoint of L_x in the
    # G-orthonormal basis and the regular matrices are a commuting normal family
    space, t, _ = normal_fixture(6, seeded_rng(73))
    opalg = generate_star_subalgebra(space, [t])
    alg = opalg.algebra
    norm = operator_norm(alg)
    assert norm.joint_eigenvalues is not None
    xs = alg.random_elements(20, seeded_rng(79))
    want = [np.linalg.norm(alg.left_regular(x), 2) for x in xs]
    assert_allclose(norm.of_many(xs), want, rtol=64 * np.finfo(np.float64).eps)


def test_coords_expand_in_the_gram_pairing():
    rng = seeded_rng(83)
    space, t, _ = normal_fixture(4, rng)
    opalg = generate_star_subalgebra(space, [t])
    x = opalg.algebra.random_elements(1, rng)[0]
    member = opalg.matrix_of(x)
    assert_allclose(opalg.coords(member), x, rtol=0, atol=1e-12)
    # coefficient k is ⟨member, ops_k⟩_G = tr(ops_k* member)
    pairing = [np.trace(adjoint(space, b) @ member) for b in opalg.basis_ops]
    assert_allclose(opalg.coords(member), pairing, rtol=0, atol=1e-12)
    # a direction G-orthogonal to the closure, of G-norm one, is left over whole
    r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    r -= sum(np.trace(adjoint(space, b) @ r) * b for b in opalg.basis_ops)
    r /= np.sqrt(np.trace(adjoint(space, r) @ r).real)
    with pytest.raises(NotMember) as exc:
        opalg.coords(member + 1e-3 * r)
    assert exc.value.details["leftover"] == pytest.approx(1e-3, rel=1e-9)


def test_repeated_eigenvalues_give_a_smaller_closure():
    rng = seeded_rng(89)
    space = inner_product_space(random_gram(6, rng))
    t = planted_normal(space, np.repeat([1.0, 2.0 + 1j, -1.5j], 2), rng)
    opalg = generate_star_subalgebra(space, [t])
    assert opalg.dim == 3
    assert verify_gelfand_isomorphism(opalg).character_count == 3


def planted_family(seed):
    """(space, generators, multiplicities) of a commuting normal family.

    The joint eigenvalue tuples are distinct points of a 4 x 4 complex grid
    of spacing 0.5 in each coordinate, each used at least once on the d
    eigenvectors, so tuples repeat, and with several generators one of them
    often repeats an eigenvalue that the others split.  Entry k of the
    multiplicities counts the eigenvectors at distinct tuple k.
    """
    rng = seeded_rng(seed, 101)
    d = int(rng.integers(2, 17))
    count = int(rng.integers(1, 4))
    grid = (np.arange(4)[:, None] + 1j * np.arange(4)).ravel() * 0.5 - (0.75 + 0.75j)
    distinct = int(rng.integers(1, d + 1))
    codes = rng.choice(16 ** count, size=distinct, replace=False)
    digits = (codes[:, None] // 16 ** np.arange(count)) % 16
    tuples = grid[digits]                                   # (distinct, count)
    which = np.concatenate([np.arange(distinct),
                            rng.integers(0, distinct, d - distinct)])
    eigs = tuples[rng.permutation(which)]                   # (d, count)
    u = unitary(d, rng)
    cond = 10.0 ** rng.uniform(0.0, 4.0)
    space = inner_product_space((u * np.geomspace(1.0, cond, d)) @ u.conj().T)
    frame = unitary(d, rng)
    w, _ = gram_root(space.gram)
    gens = [np.linalg.solve(w, (frame * eigs[:, g]) @ frame.conj().T) @ w
            for g in range(count)]
    return space, gens, np.bincount(which, minlength=distinct)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_planted_commuting_families_close_to_their_joint_spectrum(seed):
    space, gens, sizes = planted_family(seed)
    opalg = generate_star_subalgebra(space, gens)
    m = len(sizes)
    assert opalg.dim == m
    # normalized point masses: every basis op is self-adjoint, the structure
    # constants are real and diagonal and the star is coordinate conjugation
    alg = opalg.algebra
    assert np.array_equal(opalg.star.action, np.eye(m))
    assert not np.any(alg.structure_constants.imag)
    s = np.round(alg.unit.real ** 2)
    assert sorted(s) == sorted(sizes)
    assert np.array_equal(alg.unit, np.sqrt(s))
    k = np.arange(m)
    c = np.zeros((m, m, m))
    c[k, k, k] = 1.0 / np.sqrt(s)
    assert np.array_equal(alg.structure_constants, c)
    assert alg.certificate.assoc_residual == 0.0
    d = len(gens[0])
    gap = np.max(np.abs(opalg.matrix_of(alg.unit) - np.eye(d)))
    assert gap <= 1e-12 * space.condition
    assert verify_gelfand_isomorphism(opalg).passed
    report = involution_suite(opalg.star, characters(opalg.algebra))
    assert report["star_roundtrip_residual"] == 0.0


def test_isomorphism_report_returns_the_space_it_certified():
    space, t, _ = normal_fixture(3, seeded_rng(71))
    opalg = generate_star_subalgebra(space, [t])
    report = verify_gelfand_isomorphism(opalg)
    chars = report.space
    assert chars.algebra is opalg.algebra
    assert chars.values.shape == (opalg.dim, opalg.dim)
    assert radical(opalg.algebra, chars).dim == report.radical_dim == 0
    assert len(chars) == report.character_count == report.algebra_dim
    assert chars.worst_residual <= opalg.algebra.eps_char

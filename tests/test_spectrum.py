"""Characters, transform, radical, nilpotents, separation."""

import tracemalloc
from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from numpy.testing import assert_allclose

from gelfand import (
    CertificationFailed,
    abelian_group,
    abelian_group_algebra,
    LengthMismatch,
    NotDistinct,
    NotMember,
    PropertyViolated,
    dual_numbers,
    polynomial_quotient,
    random_algebra,
    standard_corpus,
    validate,
)
from gelfand.spectrum import (
    Character,
    CharacterSpace,
    character_residual,
    character_residuals,
    characters,
    indicator_element,
    interpolate,
    is_nilpotent,
    radical,
    separating_element,
    separation_threshold,
)

from oracles import (
    match_rows,
    naive_multiply,
    naive_power,
    newton_characters,
    product_indicator,
    tensor_product,
    trace_form_radical,
)


@pytest.fixture(scope="module")
def parity():
    return polynomial_quotient([-1, 0])


@pytest.fixture(scope="module")
def cubic_nil():
    return polynomial_quotient([0, 0, 0])


def test_dual_numbers_single_character():
    alg = dual_numbers()
    space = characters(alg)
    assert len(space) == 1
    assert_allclose(space[0].values, [1, 0], atol=1e-12)
    assert space[0].residual <= alg.eps_char


def test_parity_characters_and_order(parity):
    space = characters(parity)
    assert len(space) == 2
    # lexicographic by interleaved (Re, Im): phi(t) = -1 sorts first
    assert_allclose(space[0].values, [1, -1], atol=1e-12)
    assert_allclose(space[1].values, [1, 1], atol=1e-12)


def test_imaginary_parity_characters():
    alg = polynomial_quotient([1, 0])  # t^2 = -1
    space = characters(alg)
    assert len(space) == 2
    assert_allclose(space[0].values, [1, -1j], atol=1e-12)
    assert_allclose(space[1].values, [1, 1j], atol=1e-12)


def test_cubic_nilpotent_single_character(cubic_nil):
    space = characters(cubic_nil)
    assert len(space) == 1
    assert_allclose(space[0].values, [1, 0, 0], atol=1e-10)


def test_rotated_quartic_nilpotent_single_character():
    # conjugate C[t]/(t^4) by the unitary DFT matrix (entries are exact
    # quarters, so unitarity is bitwise); in the rotated basis nothing is
    # sparse, and the multiplicativity residual is quartically flat along
    # the radical, the worst case for pinning down the lone character
    jet = polynomial_quotient([0, 0, 0, 0])
    q = np.array([[1j ** (j * k) for k in range(4)] for j in range(4)]) / 2.0
    c = jet.structure_constants
    mixed = np.zeros_like(c)
    for a in range(4):
        for b in range(a, 4):
            coeffs = q.conj().T @ np.einsum("i,j,ijk->k", q[:, a], q[:, b], c)
            mixed[a, b] = coeffs
            mixed[b, a] = coeffs
    alg = validate(mixed, q.conj().T @ jet.unit)
    space = characters(alg)
    assert len(space) == 1
    assert_allclose(space[0].values, q[0], atol=1e-9)
    assert radical(alg, space).dim == 3


def test_cube_roots_of_unity():
    alg = polynomial_quotient([-1, 0, 0])  # t^3 = 1
    space = characters(alg)
    assert len(space) == 3
    vals = sorted((ch.values[1] for ch in space), key=lambda z: (z.real, z.imag))
    roots = sorted((np.exp(2j * np.pi * k / 3) for k in range(3)),
                   key=lambda z: (z.real, z.imag))
    for got, want in zip(vals, roots):
        assert abs(got - want) < 1e-10


def test_characters_deterministic_and_seed_stable(parity):
    a = characters(parity, seed=0x5EED).matrix()
    b = characters(parity, seed=0x5EED).matrix()
    assert np.array_equal(a, b)
    c = characters(parity, seed=123).matrix()
    assert np.max(np.abs(a - c)) < 1e-9


def test_transform_is_multiplicative(parity, cubic_nil):
    rng = np.random.default_rng(0x5EED)
    for alg in (parity, cubic_nil, polynomial_quotient([1j, 0.25, 0])):
        space = characters(alg)
        xs = alg.random_elements(1000, rng)
        ys = alg.random_elements(1000, rng)
        prods = np.stack([alg.multiply(x, y) for x, y in zip(xs, ys)])
        lhs = prods @ space.matrix().T
        rhs = (xs @ space.matrix().T) * (ys @ space.matrix().T)
        scale = (1 + np.linalg.norm(xs, axis=1)) * (1 + np.linalg.norm(ys, axis=1))
        assert np.max(np.abs(lhs - rhs).max(axis=1) / scale) <= 1e-7


def test_character_call_checks_length(parity):
    space = characters(parity)
    with pytest.raises(Exception):
        space[0]([1, 0, 0])


def test_radical_dimensions():
    alg = dual_numbers()
    space = characters(alg)
    rad = radical(alg, space)
    assert rad.dim == 1
    assert rad.transform_residual <= alg.eps_char
    assert rad.power_residual <= 1e-8 * 2 ** alg.dim
    # the radical of C[t]/(t^3) is spanned by {t, t^2}
    alg3 = polynomial_quotient([0, 0, 0])
    rad3 = radical(alg3, characters(alg3))
    assert rad3.dim == 2
    back = rad3.basis @ (rad3.basis.conj().T)
    for col in ([0, 1, 0], [0, 0, 1]):
        v = np.array(col, dtype=complex)
        assert_allclose(back @ v, v, atol=1e-10)


def test_radical_residuals_within_bound_on_the_corpus():
    # the same bounds as test_radical_dimensions, on every corpus radical
    items = [item for item in standard_corpus() if item.expected_radical_dim]
    assert items
    for item in items:
        alg = item.algebra
        rad = radical(alg, characters(alg))
        assert rad.dim == item.expected_radical_dim, item.name
        assert rad.transform_residual <= alg.eps_char, item.name
        assert rad.power_residual <= 1e-8 * 2 ** alg.dim, item.name
        for col in rad.basis.T:
            power = naive_power(alg.structure_constants, alg.unit, col, alg.dim)
            assert np.max(np.abs(power)) <= 1e-8 * 2 ** alg.dim, item.name


def test_radical_zero_for_semisimple(parity):
    rad = radical(parity, characters(parity))
    assert rad.dim == 0


def test_rank_nullity(parity, cubic_nil):
    for alg in (parity, cubic_nil, dual_numbers(), polynomial_quotient([-1, 0, 0])):
        space = characters(alg)
        rad = radical(alg, space)
        assert len(space) + rad.dim == alg.dim


def test_radical_matches_trace_form_oracle(parity, cubic_nil):
    for alg in (parity, cubic_nil, dual_numbers(), polynomial_quotient([0.5j, -1, 0])):
        space = characters(alg)
        rad = radical(alg, space)
        dim_oracle, basis_oracle = trace_form_radical(alg.structure_constants)
        assert rad.dim == dim_oracle
        if rad.dim:
            # same subspace: projections agree
            p_lib = rad.basis @ rad.basis.conj().T
            p_orc = basis_oracle @ np.linalg.pinv(basis_oracle)
            assert_allclose(p_lib, p_orc, atol=1e-8)


def test_is_nilpotent_witnesses(cubic_nil):
    alg = dual_numbers()
    assert is_nilpotent(alg, [0, 1]) == (True, 2)
    assert is_nilpotent(alg, [1, 0]) == (False, None)
    # t + t^2 needs the full three steps
    assert is_nilpotent(cubic_nil, [0, 1, 1]) == (True, 3)
    assert is_nilpotent(cubic_nil, [0, 0, 1]) == (True, 2)


def test_nilpotent_iff_transform_vanishes(cubic_nil):
    rng = np.random.default_rng(0x5EED)
    for alg in (dual_numbers(), cubic_nil, polynomial_quotient([-1, 0])):
        space = characters(alg)
        rad = radical(alg, space)
        xs = alg.random_elements(500, rng)
        if rad.dim:
            mix = rng.standard_normal((500, rad.dim)) + 1j * rng.standard_normal((500, rad.dim))
            xs = np.concatenate([xs, mix @ rad.basis.T])
        for x in xs:
            flag, _ = is_nilpotent(alg, x)
            vanishes = np.max(np.abs(space.transform(x))) <= \
                1e-7 * (1 + np.linalg.norm(x))
            assert flag == vanishes


def test_separating_element_parity(parity):
    space = characters(parity)
    plus = space[1]   # phi(t) = +1
    minus = space[0]
    y = separating_element(parity, plus, minus)
    assert_allclose(y, [0.5, 0.5], atol=1e-12)  # (e + t) / 2
    y2 = separating_element(parity, minus, plus)
    assert_allclose(y2, [0.5, -0.5], atol=1e-12)


def test_separating_element_requires_distinct(parity):
    space = characters(parity)
    with pytest.raises(NotDistinct):
        separating_element(parity, space[0], space[0])


def test_indicator_third_roots():
    alg = polynomial_quotient([-1, 0, 0])  # group algebra of Z_3 in disguise
    space = characters(alg)
    trivial = max(space, key=lambda ch: ch.values[1].real)
    z = indicator_element(alg, space.characters, trivial)
    assert_allclose(z, [1 / 3, 1 / 3, 1 / 3], atol=1e-10)
    vals = space.transform(z)
    want = [1.0 if ch is trivial else 0.0 for ch in space]
    assert_allclose(vals, want, atol=len(space) * alg.eps_char)


def test_indicator_single_member_is_unit(parity):
    space = characters(parity)
    z = indicator_element(parity, [space[0]], space[0])
    assert np.array_equal(z, parity.unit)


def test_indicator_rejects_outsiders(parity):
    space = characters(parity)
    stray = Character(values=np.array([1.0, 5.0], dtype=complex), residual=0.0)
    with pytest.raises(NotMember):
        indicator_element(parity, space.characters, stray)
    with pytest.raises(NotDistinct):
        indicator_element(parity, [space[0], space[0]], space[0])


@pytest.mark.parametrize("item", standard_corpus(), ids=lambda item: item.name)
def test_indicator_solve_matches_product_of_separating_elements(item):
    # on a semisimple algebra the transform is a bijection, so the solve and
    # the product must give the same element, not only the same transform
    alg = item.algebra
    space = characters(alg)
    tol = len(space) * alg.eps_char
    for k, phi in enumerate(space):
        z = indicator_element(alg, space.characters, phi)
        want = product_indicator(alg.structure_constants, alg.unit, space.values, k)
        assert_allclose(space.transform(z), space.transform(want), rtol=0, atol=tol)
        if item.expected_radical_dim == 0:
            assert_allclose(z, want, rtol=0, atol=1e-12)


def test_interpolate_reproduces_targets(parity):
    space = characters(parity)
    targets = [ch.values[1] for ch in space]  # the function phi -> phi(t)
    w = interpolate(parity, space, targets)
    assert_allclose(w, [0, 1], atol=1e-10)
    ones = interpolate(parity, space, [1, 1])
    assert_allclose(ones, parity.unit, atol=1e-10)
    zero = interpolate(parity, space, [0, 0])
    assert np.array_equal(zero, np.zeros(2, dtype=complex))


def test_interpolate_checks_length(parity):
    space = characters(parity)
    with pytest.raises(LengthMismatch):
        interpolate(parity, space, [1, 2, 3])


@pytest.mark.parametrize("item", standard_corpus(), ids=lambda item: item.name)
def test_interpolate_stack_matches_single_calls(item):
    alg = item.algebra
    space = characters(alg)
    rng = np.random.default_rng(0x5EED)
    goals = rng.standard_normal((4, len(space), 2)) @ [1, 1j]
    stack = interpolate(alg, space, goals)
    assert stack.shape == (4, alg.dim)
    singles = np.array([interpolate(alg, space, goal) for goal in goals])
    assert_allclose(stack, singles, rtol=0, atol=1e-14)


def test_interpolate_rejects_a_wrong_last_axis_and_3d_input(parity):
    space = characters(parity)
    assert interpolate(parity, space, np.eye(2)).shape == (2, 2)
    for shape in [(3, 3), (2, 1), (1, 2, 2)]:
        with pytest.raises(LengthMismatch) as err:
            interpolate(parity, space, np.ones(shape))
        assert err.value.details == {"expected": 2, "got": list(shape)}


def test_interpolate_random_targets():
    rng = np.random.default_rng(0x5EED)
    alg = polynomial_quotient([-1, 0, 0])
    space = characters(alg)
    for _ in range(100):
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = interpolate(alg, space, f)
        assert np.max(np.abs(space.transform(w) - f)) <= 1e-7


def test_newton_oracle_matches(parity, cubic_nil):
    for alg in (dual_numbers(), parity, cubic_nil,
                polynomial_quotient([1, 0]), polynomial_quotient([-1, 0, 0])):
        space = characters(alg)
        oracle = newton_characters(alg.structure_constants, alg.unit)
        assert len(oracle) == len(space)
        assert match_rows(oracle, space.matrix(), 1e-7) <= 1e-7


def test_zero_retries_reports_failure(parity):
    with pytest.raises(CertificationFailed) as info:
        characters(parity, retries=0)
    details = info.value.payload()["details"]
    assert details["retries"] == 0
    assert {"eigenvalue_gap", "worst_residual", "eps_char"} <= set(details)


# repeated and near-coincident roots, in the monomial basis of C[t]/(q)
HARD_ROOTS = {
    "(t-1)^8": [1.0] * 8,
    "(t-1)^12": [1.0] * 12,
    "1,1+1e-4,2": [1.0, 1.0 + 1e-4, 2.0],
    "2x5,-1x2,3": [2.0] * 5 + [-1.0] * 2 + [3.0],
}


def _local_jets(x, roots):
    """Images of x under C[t]/(q) -> C[s]/(s^m) at each root r, s = t - r.

    These are the Taylor coefficients of the polynomial with coefficient
    vector x, and by the Chinese remainder theorem x is nilpotent exactly
    when every image is; in the shifted bases the jet structure constants
    are 0 and 1, so naive powers there are free of the monomial basis's
    ill-scaling.
    """
    for r, m in Counter(roots).items():
        coeffs = np.array([sum(x[k] * comb(k, j) * r ** (k - j) for k in range(j, len(x)))
                           for j in range(m)])
        jet = np.zeros((m, m, m))
        for i in range(m):
            for j in range(m - i):
                jet[i, j, i + j] = 1.0
        yield jet, np.eye(m)[0], coeffs


@pytest.mark.parametrize("name", list(HARD_ROOTS))
def test_repeated_and_close_roots(name):
    roots = HARD_ROOTS[name]
    alg = polynomial_quotient(npoly.polyfromroots(roots)[:-1])
    n = alg.dim
    distinct = sorted(set(roots))
    space = characters(alg)
    assert len(space) == len(distinct)
    want = np.array([[r ** k for k in range(n)] for r in distinct])
    tol = 1e-6 * (1 + np.max(np.abs(want)))
    assert match_rows(want, space.matrix(), tol) <= tol
    rad = radical(alg, space)
    assert rad.dim == n - len(distinct)
    for col in rad.basis.T:
        for jet, unit, a in _local_jets(col, roots):
            power = naive_power(jet, unit, a, n)
            assert np.max(np.abs(power)) <= 1e-8 * (1 + np.linalg.norm(a)) ** n, name


def test_is_nilpotent_unit_modulus_phases():
    # C^16 with coordinatewise product: x = (exp(2 pi i k / 16))_k is
    # invertible, though |x^m| never falls while 1e-8 (1 + |x|)^m grows
    n = 16
    c = np.zeros((n, n, n))
    for i in range(n):
        c[i, i, i] = 1.0
    alg = validate(c, np.ones(n))
    x = np.exp(2j * np.pi * np.arange(n) / n)
    assert is_nilpotent(alg, x) == (False, None)


def test_is_nilpotent_idempotent_beside_large_root():
    # C[t]/(t^2 (t - 200)): x = 1 - t^2/4e4 is the idempotent at the root 0,
    # whose trace-form image (2, 0, 0) is tiny beside the entries 200^4
    # that the root 200 puts into T
    alg = polynomial_quotient([0.0, 0.0, -200.0])
    assert is_nilpotent(alg, [1.0, 0.0, -2.5e-5]) == (False, None)
    assert is_nilpotent(alg, [0.0, -200.0, 1.0]) == (True, 2)  # t (t - 200)


def _scaled_sum(scales, nilpotent):
    """C + C[e]/(e^2)... with block k's basis scaled by scales[k].

    Block k holds the character with value scales[k] on its first basis
    element; with nilpotent[k] it also holds a radical direction.
    """
    sizes = [1 + int(nil) for nil in nilpotent]
    n = sum(sizes)
    c = np.zeros((n, n, n))
    unit = np.zeros(n)
    o = 0
    for s, k in zip(scales, sizes):
        c[o, o, o] = s
        if k == 2:
            c[o, o + 1, o + 1] = c[o + 1, o, o + 1] = s
        unit[o] = 1.0 / s
        o += k
    return validate(c, unit)


@pytest.mark.parametrize("scales, nilpotent", [
    ((1.0, 1e6), (False, False)),
    ((1e6, 1e-3), (False, True)),
    ((1e-3, 1e6), (True, True)),
])
def test_small_character_beside_large_one(scales, nilpotent):
    # the small character's trace-form weight falls under an absolute
    # rank cut of T, and its values under one of the character matrix
    alg = _scaled_sum(scales, nilpotent)
    space = characters(alg)
    assert len(space) == len(scales)
    want = np.zeros((len(scales), alg.dim))
    o = 0
    for k, s in enumerate(scales):
        want[k, o] = s
        o += 1 + int(nilpotent[k])
    assert match_rows(want, space.matrix(), 1e-6) <= 1e-6 * max(scales)
    rad = radical(alg, space)
    assert rad.dim == sum(nilpotent)
    for col in rad.basis.T:
        assert is_nilpotent(alg, col)[0]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_random_algebras_counts_and_residuals(seed):
    item = random_algebra(seed, max_dim=14)
    alg = item.algebra
    space = characters(alg)
    assert len(space) == item.expected_characters
    assert radical(alg, space).dim == item.expected_radical_dim
    assert space.worst_residual <= alg.eps_char


def test_interpolate_rejects_dependent_characters():
    # pairwise separated but linearly dependent value vectors; such a
    # space cannot come from characters(), and no element interpolates it
    alg = polynomial_quotient([0, 0, 0])
    rows = [np.array(v, dtype=complex) for v in ([1, 0, 0], [0, 1, 0], [1, 1, 0])]
    space = CharacterSpace(algebra=alg, values=rows, residuals=np.zeros(3))
    with pytest.raises(PropertyViolated):
        interpolate(alg, space, [1, 2, 4])


def test_empty_table_has_one_row_shape():
    # a hand-built space without characters is a (0, dim) table, so the
    # transform is empty, every target list is empty and the whole algebra
    # is the joint kernel
    alg = polynomial_quotient([0, 0, 0])
    space = CharacterSpace(algebra=alg, values=np.empty((0, alg.dim)),
                           residuals=np.empty(0))
    assert space.matrix().shape == (0, alg.dim)
    assert len(space) == 0 and space.worst_residual == 0.0
    assert space.transform([1, 2, 3]).shape == (0,)
    assert np.array_equal(interpolate(alg, space, []), np.zeros(alg.dim))
    rad = radical(alg, space)
    assert rad.dim == alg.dim and rad.transform_residual == 0.0


def test_table_is_stored_once_and_read_only(parity):
    space = characters(parity)
    assert space.matrix() is space.values
    assert not space.values.flags.writeable
    assert not space.residuals.flags.writeable
    assert space.values.shape == (2, 2) and space.residuals.shape == (2,)
    assert space.characters is space.characters
    for k, phi in enumerate(space):
        assert phi is space[k]
        assert np.shares_memory(phi.values, space.values)
        assert phi.residual == space.residuals[k]
    assert space.delta_sep == separation_threshold(space.values)
    with pytest.raises(ValueError):
        space.values[0, 0] = 5.0


def test_separation_check_names_the_first_close_pair():
    # pairs (0, 3) and (1, 2) are both closer than delta_sep; the check
    # reports the first in (a, b) loop order, with the loop's distance
    alg = polynomial_quotient([0, 0, 0, 0])
    rows = [np.array(v, dtype=complex) for v in
            ([1, 0, 0, 0], [0, 1, 0, 0], [0, 1 + 2e-7, 0, 0], [1 + 1e-7j, 0, 0, 0])]
    first = next((a, b) for a in range(4) for b in range(a + 1, 4)
                 if float(np.max(np.abs(rows[a] - rows[b]))) < 1e-6)
    with pytest.raises(PropertyViolated) as exc:
        CharacterSpace(algebra=alg, values=rows, residuals=np.zeros(4))
    a, b = exc.value.details["pair"]
    assert [a, b] == [0, 3] == list(first)
    assert exc.value.details["distance"] == float(np.max(np.abs(rows[a] - rows[b])))
    assert exc.value.details["delta_sep"] == separation_threshold(rows)


def _mixed_jet_sum(blocks, seed):
    """C[t]/(t^k) summed over ``blocks``, in a seeded random unitary basis."""
    n = sum(blocks)
    c = np.zeros((n, n, n))
    unit = np.zeros(n)
    o = 0
    for k in blocks:
        for a in range(k):
            for b in range(k - a):
                c[o + a, o + b, o + a + b] = 1.0
        unit[o] = 1.0
        o += k
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    mixed = np.einsum("ia,jb,ijk,kl->abl", q, q, c, q.conj())
    return validate(mixed, q.conj().T @ unit)


def _naive_residuals(alg, rows):
    """Per-row character residual from naive basis products."""
    c = alg.structure_constants
    n = alg.dim
    basis = np.eye(n)
    prods = [[naive_multiply(c, basis[i], basis[j]) for j in range(n)] for i in range(n)]
    out = []
    for v in rows:
        worst = abs(complex(v @ alg.unit) - 1.0)
        for i in range(n):
            for j in range(n):
                worst = max(worst, abs(complex(v @ prods[i][j]) - v[i] * v[j]))
        out.append(worst)
    return np.array(out)


def _residual_algebra(name):
    if name == "Z16":
        return abelian_group_algebra(abelian_group((16,)))[0]
    if name == "mixed-jets":
        return _mixed_jet_sum((3, 2, 1), seed=7)
    return next(item.algebra for item in standard_corpus() if item.name == name)


@pytest.mark.parametrize("name", ["jet-3", "D4-center", "Q8-center", "Z16", "mixed-jets"])
def test_character_residuals_match_naive_rows(name):
    alg = _residual_algebra(name)
    rows = characters(alg).matrix()
    rng = np.random.default_rng(3)
    planted = rows[0] + 0.1 * (rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim))
    rows = np.vstack([rows, planted, np.zeros(alg.dim)])   # the zero row fails unitality only
    got = character_residuals(alg, rows)
    want = _naive_residuals(alg, rows)
    atol = 64 * np.finfo(float).eps * (1.0 + alg.scale)
    assert_allclose(got, want, rtol=0, atol=atol)
    assert np.all(got[:-2] <= alg.eps_char)
    assert got[-2] > 1e-3 and got[-1] == 1.0
    assert_allclose([character_residual(alg, v) for v in rows], got, rtol=0, atol=atol)


def _reference_order(rows):
    """Tuple sort over quantized interleaved (Re, Im), one key per row."""
    quantum = 1e-9 * (1.0 + max(float(np.max(np.abs(v))) for v in rows))

    def key(a):
        flat = np.column_stack([rows[a].real, rows[a].imag]).ravel()
        return tuple(int(round(x / quantum)) for x in flat)

    return sorted(range(len(rows)), key=key)


@pytest.mark.parametrize("alg", [
    # roots 0.5 +- 1i, 0.5 +- 2i: every coordinate 1 has real part 0.5 up to
    # roundoff, so its imaginary part decides before coordinate 2 is read
    polynomial_quotient(np.poly([0.5 + 1j, 0.5 - 1j, 0.5 + 2j, 0.5 - 2j])[1:][::-1]),
    polynomial_quotient([-1, 0, 0, 0, 0, 0]),
    random_algebra(5, max_dim=9).algebra,
], ids=["equal-real-parts", "sixth-roots", "random-5"])
def test_character_order_matches_tuple_sort(alg):
    rows = characters(alg).matrix()
    shuffled = rows[::-1]
    assert [len(rows) - 1 - a for a in _reference_order(shuffled)] == list(range(len(rows)))
    assert _reference_order(rows) == list(range(len(rows)))


def test_characters_peak_memory_is_below_cubic():
    # Z_64: one basis index at a time, the certificate holds O(n m) scratch,
    # where a one-shot (n^2, m) product alone would be n^3 complex entries
    n = 64
    alg, _ = abelian_group_algebra(abelian_group((n,)))
    tracemalloc.start()
    try:
        space = characters(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(space) == n
    assert peak < n**3 * 16


def test_fortran_order_tensor_is_stored_in_c_order():
    # validate copies its input in C order; a Fortran-order copy kept as is
    # makes the slices of c that characters reads strided, and the peak of
    # characters on Z_64 rises above the cubic bound
    n = 64
    alg, _ = abelian_group_algebra(abelian_group((n,)))
    alg = validate(np.asfortranarray(alg.structure_constants), alg.unit)
    assert alg.structure_constants.flags.c_contiguous
    tracemalloc.start()
    try:
        space = characters(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(space) == n
    assert peak < n**3 * 16


def test_radical_is_stored_with_its_table(cubic_nil):
    space = characters(cubic_nil)
    rad = radical(cubic_nil, space)
    assert radical(cubic_nil, space) is rad
    assert rad.dim == 2
    # another space of the same algebra certifies its own radical
    assert radical(cubic_nil, characters(cubic_nil)) is not rad


def test_spectrum_consumers_reject_a_foreign_space(parity):
    space = characters(dual_numbers())
    with pytest.raises(PropertyViolated, match="different algebra"):
        radical(parity, space)
    with pytest.raises(PropertyViolated, match="different algebra"):
        interpolate(parity, space, [1.0])


def _cyclic(n):
    return abelian_group_algebra(abelian_group([n]))[0]


@pytest.mark.parametrize("make_a, make_b", [
    (lambda: _cyclic(3), lambda: polynomial_quotient([1, -2])),
    (lambda: polynomial_quotient([-1, 3, -3]), lambda: _cyclic(4)),
    (lambda: polynomial_quotient([-1, 3, -3]), dual_numbers),
], ids=["Z3 x (t-1)^2", "(t-1)^3 x Z4", "(t-1)^3 x dual"])
def test_tensor_product_characters_are_the_products_of_the_factors(make_a, make_b):
    # the trace-form rank rescue must keep no direction of pure roundoff:
    # one gives the compressed L_g a Jordan block, which fails loudly, or a
    # table with spurious rows and radical 0, which is silently wrong
    a, b = make_a(), make_b()
    rows_a, rows_b = characters(a).matrix(), characters(b).matrix()
    alg = validate(*tensor_product(a.structure_constants, a.unit,
                                   b.structure_constants, b.unit))
    space = characters(alg)
    m = len(rows_a) * len(rows_b)
    assert len(space) == m
    assert radical(alg, space).dim == alg.dim - m
    products = np.array([np.kron(p, q) for p in rows_a for q in rows_b])
    assert match_rows(space.matrix(), products, 1e-7) <= 1e-7

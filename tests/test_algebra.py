"""Structure-constant validation and arithmetic."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gelfand import (
    BadUnit,
    DimensionMismatch,
    NotAssociative,
    NotCommutative,
    ShapeMismatch,
    abelian_group,
    abelian_group_algebra,
    characters,
    dual_numbers,
    polynomial_quotient,
    validate,
)
from gelfand.algebra import _worst_entry
from gelfand.corpus import random_algebra

from oracles import naive_multiply, naive_power


def parity_algebra():
    """C[t]/(t^2 - 1) written out by hand."""
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0] = [1, 0]
    c[0, 1] = [0, 1]
    c[1, 0] = [0, 1]
    c[1, 1] = [1, 0]
    return validate(c, [1, 0], ["1", "t"])


def test_validate_hand_built_parity_algebra():
    alg = parity_algebra()
    assert alg.dim == 2
    assert alg.certificate.unit_residual == 0.0
    assert_allclose(alg.left_regular([0, 1]), [[0, 1], [1, 0]])
    # two characters, V = [[1, -1], [1, 1]]: max|V| = 1, the row sums of
    # |c| are 1 and ‖V⁻¹‖∞ = 1, so the table bound is 4 (rho + 2 gamma_3)
    assert alg.certificate.route == "table"
    rho = characters(alg).worst_residual
    gamma = 3 * 2.0 ** -53 / (1 - 3 * 2.0 ** -53)
    assert alg.certificate.assoc_residual == pytest.approx(4 * (rho + 2 * gamma), rel=1e-9)
    assert alg.certificate.assoc_residual <= 1e-14
    # the dual numbers have one character, so every triple is scanned,
    # and their integer products are exact
    dual = dual_numbers()
    assert dual.certificate.route == "scan"
    assert dual.certificate.assoc_residual == 0.0


def test_validate_rejects_asymmetric_tensor():
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0] = [1, 0]
    c[0, 1] = [0, 1]
    c[1, 0] = [0, 0.5]  # differs from c[0, 1]
    c[1, 1] = [1, 0]
    with pytest.raises(NotCommutative) as exc:
        validate(c, [1, 0])
    assert exc.value.details["index"] == [0, 1, 1] or exc.value.details["index"] == [1, 0, 1]


def test_validate_repairs_tiny_asymmetry():
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0] = [1, 0]
    c[0, 1] = [0, 1 + 1e-13]
    c[1, 0] = [0, 1 - 1e-13]
    c[1, 1] = [1, 0]
    alg = validate(c, [1, 0])
    assert alg.certificate.asymmetry <= 1e-12
    sym = alg.structure_constants
    assert np.array_equal(sym, sym.transpose(1, 0, 2))


def test_validate_rejects_nonassociative_tensor():
    with pytest.raises(NotAssociative):
        validate(nonassociative_tensor(), [1, 0, 0])


def test_worst_entry_scans_in_c_order_from_minus_infinity():
    # ties go to the first entry in C order across slices; a margin whose
    # entries are all negative still reports its maximum
    slices = (np.array([[-3.0, -2.0], [-2.0, -5.0]]),
              np.array([[-4.0, -2.0], [-1.0, -1.0]]))
    assert _worst_entry(slices) == (-1.0, (1, 1, 0))
    assert _worst_entry(s - 10.0 for s in slices[:1]) == (-12.0, (0, 0, 1))
    assert _worst_entry(np.zeros((2, 3)) for _ in range(3)) == (0.0, (0, 0, 0))


def brute_force_witness(c):
    """Worst associativity triple, first in C order, and its residual."""
    n = c.shape[0]
    basis = np.eye(n)
    worst, triple = -1.0, None
    for i in range(n):
        for j in range(n):
            for l in range(n):
                lhs = naive_multiply(c, naive_multiply(c, basis[i], basis[j]), basis[l])
                rhs = naive_multiply(c, basis[i], naive_multiply(c, basis[j], basis[l]))
                res = float(np.max(np.abs(lhs - rhs)))
                if res > worst:
                    worst, triple = res, [i, j, l]
    return triple, worst


def test_nonassociative_witness_matches_brute_force():
    # b0 is the unit, so every triple involving it is associative and the
    # worst triple has i > 0; small integer constants (Gaussian integers in
    # the complex case) keep every residual exact, so the library and the
    # brute force see the same ties
    n = 5
    rng = np.random.default_rng(23)
    for gaussian in (False, True):
        c = np.zeros((n, n, n), dtype=complex)
        for j in range(n):
            c[0, j, j] = c[j, 0, j] = 1.0
        for i in range(1, n):
            for j in range(i, n):
                c[i, j] = c[j, i] = rng.integers(-3, 4, n)
                if gaussian:
                    c[i, j] = c[j, i] = c[i, j] + 1j * rng.integers(-3, 4, n)
        triple, worst = brute_force_witness(c)
        assert triple[0] > 0
        with pytest.raises(NotAssociative) as exc:
            validate(c, np.eye(n)[0])
        assert exc.value.details["triple"] == triple
        assert exc.value.details["residual"] == worst


def test_imaginary_associativity_defect_is_caught():
    # Z_5 is real and associative; a purely imaginary change to one product
    # is the only defect, so a scan that dropped the imaginary part of the
    # tensor would accept it
    n = 5
    idx = np.arange(n)
    c = np.zeros((n, n, n), dtype=complex)
    c[idx[:, None], idx[None, :], (idx[:, None] + idx[None, :]) % n] = 1.0
    c[1, 2, 4] = c[2, 1, 4] = 1.0j
    triple, worst = brute_force_witness(c)
    with pytest.raises(NotAssociative) as exc:
        validate(c, np.eye(n)[0])
    assert exc.value.details["triple"] == triple
    assert exc.value.details["residual"] == worst


def test_nonassociative_witness_orders_its_twin_triples():
    # (b_l b_j) b_i and b_l (b_j b_i) are the two products of triple
    # (i, j, l) in the other order, so rounding may make either twin the
    # worst; the witness is reported with i <= l
    rng = np.random.default_rng(31)
    for seed in range(40):
        alg = random_algebra(seed, max_dim=7).algebra
        c = np.array(alg.structure_constants)
        i, j, k = rng.integers(0, alg.dim, 3)
        c[i, j, k] += 1e-3
        c[j, i, k] = c[i, j, k]
        with pytest.raises(NotAssociative) as exc:
            validate(c, alg.unit)
        first, _, last = exc.value.details["triple"]
        assert first <= last


def _traced_validate(c, unit):
    tracemalloc.start()
    try:
        alg = validate(c, unit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return alg, peak


def test_validate_peak_memory_is_cubic():
    # C[t]/(t^40) has one character and is scanned, where the residual
    # slices keep the traced peak below ten complex n^3 tensors and two
    # n^4 tensors would not fit; Z_40 on delta functions takes the table
    # route under the same bound
    n = 40
    nil = polynomial_quotient(np.zeros(n)).structure_constants
    alg, peak = _traced_validate(nil, np.eye(n)[0])
    assert alg.certificate.route == "scan"
    assert alg.certificate.assoc_residual == 0.0
    assert peak < 10 * n**3 * 16
    idx = np.arange(n)
    cyclic = np.zeros((n, n, n), dtype=complex)
    cyclic[idx[:, None], idx[None, :], (idx[:, None] + idx[None, :]) % n] = 1.0
    alg, peak = _traced_validate(cyclic, np.eye(n)[0])
    assert alg.certificate.route == "table"
    assert alg.certificate.assoc_residual <= alg.eps_assoc
    assert peak < 10 * n**3 * 16


def test_validate_accepts_fortran_ordered_input():
    alg = parity_algebra()
    c = np.asfortranarray(alg.structure_constants)
    again = validate(c, np.asfortranarray(alg.unit))
    assert np.array_equal(again.structure_constants, alg.structure_constants)
    with pytest.raises(ShapeMismatch):
        c = np.asfortranarray(np.zeros((2, 2, 2)))
        c[1, 0, 1] = np.inf
        validate(c, [1, 0])


def test_validate_rejects_wrong_unit():
    c = parity_algebra().structure_constants
    with pytest.raises(BadUnit):
        validate(c, [0, 1])
    with pytest.raises(BadUnit):
        validate(c, [0, 0])


def test_bad_unit_names_the_worst_basis_index():
    # on the dual numbers, u = 1 + 1e-3 t sends b0 to 1 + 1e-3 t and fixes t
    c = dual_numbers().structure_constants
    with pytest.raises(BadUnit) as exc:
        validate(c, [1.0, 1e-3])
    assert exc.value.details["basis_index"] == 0
    assert exc.value.details["residual"] == 1e-3


# -- the table route ----------------------------------------------------------


def nonassociative_tensor():
    """b0 is the unit; b1 b1 = b2, b2 b2 = b1 breaks (b1 b1) b2 = b1 (b1 b2)."""
    c = np.zeros((3, 3, 3), dtype=complex)
    for j in range(3):
        c[0, j, j] = 1.0
        c[j, 0, j] = 1.0
    c[1, 1, 2] = 1.0
    c[2, 2, 1] = 1.0
    return c


def perturbed_product_algebra(n, size, rng):
    """Cⁿ on its idempotents plus a symmetric perturbation of max entry size.

    The perturbation's sums over the first index vanish, so the unit
    (1, ..., 1) still acts as the identity and only associativity breaks.
    """
    m = rng.standard_normal((n, n, n))
    m = m + m.transpose(1, 0, 2)
    s = m.sum(axis=0)
    m = m - (s[np.newaxis] + s[:, np.newaxis]) / n + s.sum(axis=0) / n**2
    k = np.arange(n)
    c = np.zeros((n, n, n))
    c[k, k, k] = 1.0
    return c + size * m / np.max(np.abs(m)), np.ones(n)


def worst_associator(c):
    """max |((b_i b_j) b_l - b_i (b_j b_l))_k| over all triples, by einsum."""
    return float(np.max(np.abs(np.einsum("ijm,mlk->ijlk", c, c)
                               - np.einsum("jlm,imk->ijlk", c, c))))


@pytest.mark.parametrize("size", [1e-2, 1e-5, 1e-7])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_table_route_certifies_no_perturbed_product_algebra(n, size):
    # every unital commutative algebra of dimension 2 is associative, so the
    # table may certify those probes, with a bound above the true residual;
    # from n = 3 on the probes are not associative, and each one either
    # fails the scan or passes it, never the table
    rng = np.random.default_rng([n, round(-np.log10(size))])
    for _ in range(10):
        c, unit = perturbed_product_algebra(n, size, rng)
        assert np.max(np.abs(np.tensordot(unit, c, axes=(0, 0)) - np.eye(n))) <= 1e-15
        worst = worst_associator(c)
        try:
            alg = validate(c, unit)
        except NotAssociative as exc:
            assert exc.details["residual"] > exc.details["tolerance"]
            continue
        assert worst <= alg.eps_assoc
        if n == 2:
            assert worst <= alg.certificate.assoc_residual
        else:
            assert alg.certificate.route == "scan"


@pytest.mark.parametrize("size", [1e-9, 1e-10])
def test_table_bound_is_above_the_true_residual(size):
    # perturbations this small keep the characters within eps_char, so the
    # table route certifies some probes; its bound must cover the residual
    # that a brute-force scan of every triple finds
    tabled = 0
    for n in (3, 4, 6):
        rng = np.random.default_rng([n, round(-np.log10(size))])
        for _ in range(10):
            c, unit = perturbed_product_algebra(n, size, rng)
            alg = validate(c, unit)
            if alg.certificate.route == "table":
                tabled += 1
                assert worst_associator(c) <= alg.certificate.assoc_residual
    assert tabled >= 5


def test_nonassociative_tensor_with_a_bad_unit_is_not_associative():
    for unit in ([0, 1, 0], [0, 0, 0], [1, 1e-3, 0]):
        with pytest.raises(NotAssociative):
            validate(nonassociative_tensor(), unit)


def test_semisimple_tensor_with_a_bad_unit_names_the_unit():
    # parity is associative, so the scan passes and the unit law decides
    c = parity_algebra().structure_constants
    with pytest.raises(BadUnit) as exc:
        validate(c, [1.0, 1e-3])
    assert exc.value.details["basis_index"] == 0
    assert exc.value.details["residual"] == 1e-3
    with pytest.raises(BadUnit, match="zero"):
        validate(c, [0, 0])


def test_rotated_cyclic_group_takes_the_table_route():
    # Z_64 in a random unitary basis: a complex tensor the scan would take
    # n^5 complex products to certify
    n = 64
    alg, _ = abelian_group_algebra(abelian_group((n,)))
    rng = np.random.default_rng(64)
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    c = np.einsum("ai,bj,abl,kl->ijk", q, q, alg.structure_constants,
                  np.linalg.inv(q), optimize=True)
    rotated = validate(0.5 * (c + c.transpose(1, 0, 2)), np.linalg.solve(q, alg.unit))
    assert rotated.certificate.route == "table"
    assert rotated.certificate.assoc_residual <= rotated.eps_assoc
    assert len(characters(rotated)) == n


def test_validate_rejects_bad_shapes():
    with pytest.raises(ShapeMismatch):
        validate(np.zeros((2, 2)), [1, 0])
    with pytest.raises(ShapeMismatch):
        validate(np.zeros((2, 2, 3)), [1, 0])
    with pytest.raises(ShapeMismatch):
        validate(np.zeros((2, 2, 2)), [1, 0, 0])
    with pytest.raises(ShapeMismatch):
        c = np.zeros((2, 2, 2))
        c[0, 0, 0] = np.nan
        validate(c, [1, 0])


def test_element_shape_checks():
    alg = dual_numbers()
    with pytest.raises(DimensionMismatch):
        alg.multiply([1, 0, 0], [1, 0])
    with pytest.raises(DimensionMismatch):
        alg.left_regular([1])


def test_dual_number_product():
    alg = dual_numbers()
    a, b, c_, d = 2.0, -1.5, 0.25, 3.0
    prod = alg.multiply([a, b], [c_, d])
    assert_allclose(prod, [a * c_, a * d + b * c_])
    assert_allclose(alg.left_regular([0, 1]), [[0, 0], [1, 0]])


def test_multiply_swap_is_bitwise_exact():
    rng = np.random.default_rng(0x5EED)
    for alg in (dual_numbers(), parity_algebra(), polynomial_quotient([0, 0, 0])):
        xs = alg.random_elements(1000, rng)
        ys = alg.random_elements(1000, rng)
        for x, y in zip(xs, ys):
            left = alg.multiply(x, y)
            right = alg.multiply(y, x)
            assert np.max(np.abs(left - right)) == 0.0


def test_multiply_matches_left_regular_action():
    rng = np.random.default_rng(7)
    alg = polynomial_quotient([1j, 0.5, 0])
    for _ in range(50):
        x = alg.random_elements(1, rng)[0]
        y = alg.random_elements(1, rng)[0]
        assert_allclose(alg.multiply(x, y), alg.left_regular(x) @ y,
                        rtol=0, atol=1e-13 * (1 + alg.scale))


def test_multiply_matches_naive_oracle():
    rng = np.random.default_rng(11)
    alg = polynomial_quotient([-1, 0, 2])
    for _ in range(20):
        x = alg.random_elements(1, rng)[0]
        y = alg.random_elements(1, rng)[0]
        assert_allclose(alg.multiply(x, y),
                        naive_multiply(alg.structure_constants, x, y),
                        rtol=0, atol=1e-13 * (1 + alg.scale))


def test_unit_is_neutral():
    rng = np.random.default_rng(3)
    for alg in (dual_numbers(), parity_algebra(), polynomial_quotient([2, 0, 1])):
        x = alg.random_elements(1, rng)[0]
        assert_allclose(alg.multiply(alg.unit, x), x, rtol=0, atol=1e-14 * (1 + alg.scale))
        assert_allclose(alg.left_regular(alg.unit), np.eye(alg.dim),
                        rtol=0, atol=alg.eps_assoc)


def test_associativity_on_samples():
    rng = np.random.default_rng(0x5EED)
    alg = polynomial_quotient([0.3 - 0.1j, 0, 0.25])
    xs = alg.random_elements(1000, rng)
    ys = alg.random_elements(1000, rng)
    zs = alg.random_elements(1000, rng)
    for x, y, z in zip(xs, ys, zs):
        lhs = alg.multiply(alg.multiply(x, y), z)
        rhs = alg.multiply(x, alg.multiply(y, z))
        scale = (1 + np.linalg.norm(x)) * (1 + np.linalg.norm(y)) * (1 + np.linalg.norm(z))
        assert np.max(np.abs(lhs - rhs)) <= alg.eps_assoc * scale


def test_regular_matrices_commute_and_compose():
    rng = np.random.default_rng(5)
    alg = polynomial_quotient([0.5, -1, 0, 0.125])
    for _ in range(25):
        x = alg.random_elements(1, rng)[0]
        y = alg.random_elements(1, rng)[0]
        lx, ly = alg.left_regular(x), alg.left_regular(y)
        assert np.max(np.abs(lx @ ly - ly @ lx)) <= alg.eps_assoc * \
            (1 + np.linalg.norm(x)) * (1 + np.linalg.norm(y))
        assert_allclose(alg.left_regular(alg.multiply(x, y)), lx @ ly,
                        rtol=0, atol=alg.eps_assoc * (1 + np.linalg.norm(x)) * (1 + np.linalg.norm(y)))


def test_power_basics():
    alg = dual_numbers()
    assert_allclose(alg.power([3, 4], 0), [1, 0])
    assert_allclose(alg.power([0, 1], 2), [0, 0], atol=1e-15)
    par = parity_algebra()
    assert_allclose(par.power([0, 1], 2), [1, 0])
    assert_allclose(par.power([0, 1], 7), [0, 1])


def test_power_matches_naive_oracle():
    rng = np.random.default_rng(13)
    alg = polynomial_quotient([0.2, 1j, 0])
    for m in range(7):
        x = alg.random_elements(1, rng)[0] * 0.8
        want = naive_power(alg.structure_constants, alg.unit, x, m)
        assert_allclose(alg.power(x, m), want, rtol=0,
                        atol=1e-12 * (1 + np.linalg.norm(want)))


def test_polynomial_quotient_reduction():
    # t^3 = t + 1 in C[t]/(t^3 - t - 1)
    alg = polynomial_quotient([-1, -1, 0])
    assert_allclose(alg.power([0, 1, 0], 3), [1, 1, 0], atol=1e-15)
    names = alg.basis_names
    assert names == ("1", "t", "t^2")


def test_trace_form_is_computed_once_and_read_only():
    alg = random_algebra(5).algebra
    c = alg.structure_constants
    form = alg.trace_form
    assert alg.trace_form is form
    assert not form.flags.writeable
    assert form.tobytes() == (c @ np.einsum("kaa->k", c)).tobytes()
    regular = [alg.left_regular(alg.basis_element(i)) for i in range(alg.dim)]
    naive = np.array([[np.trace(a @ b) for b in regular] for a in regular])
    assert_allclose(form, naive, rtol=1e-12, atol=1e-12 * (1 + np.max(np.abs(naive))))

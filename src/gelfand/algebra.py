"""Commutative unital algebras presented by structure constants.

An algebra of dimension n is given by a complex tensor ``c`` of shape
(n, n, n) encoding the basis products

    b_i * b_j = sum_k c[i, j, k] * b_k

together with the coordinate vector of the multiplicative unit.  Elements
are plain complex128 coordinate vectors of length n; all operations are
pure functions of immutable data.

``validate`` is the only way to build an :class:`Algebra`, for user
tensors and the library's own builders alike.  It checks the axioms
(commutativity exactly after a bounded symmetrization, associativity and
the unit law within scaled tolerances), one basis index at a time in O(n³)
memory, and records the worst residuals found in a
:class:`ValidationCertificate`.  Associativity is scanned over triples
(i, j, l) with i <= l only: by commutativity the residual of (l, j, i) is
the negative of that of (i, j, l).  A tensor with no imaginary part is
scanned in real arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadUnit,
    DimensionMismatch,
    NotAssociative,
    NotCommutative,
    ShapeMismatch,
)

#: absolute asymmetry above which a structure tensor is rejected instead of
#: being repaired by symmetrization
SYMMETRY_TOL = 1e-12

#: base factor for the associativity tolerance 1e-9 * (1 + max|c|)^3
ASSOC_BASE = 1e-9

#: base factor for the character certification tolerance 1e-8 * (1 + max|c|)
CHAR_BASE = 1e-8


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only complex copy in C order, whatever the input's layout."""
    out = np.array(a, dtype=np.complex128, copy=True, order="C")
    out.setflags(write=False)
    return out


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex standard normals (re + i·im)/√2, real parts drawn first."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _joint_eigenbasis(mats: np.ndarray, rng: np.random.Generator
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One unitary eigenbasis for a stack of matrices, and the stack in it.

    Draws complex normal weights g, forms A = sum_i g_i mats[i] and takes
    the unitary eigenbasis U of the Hermitian H = A + Aᴴ by one ``eigh``.
    Returns U, the read-only diagonals of Uᴴ mats[i] U, one row per matrix,
    and Uᴴ mats U with those diagonals zeroed.  For a commuting normal
    family the rows are its joint eigenvalues and the off-diagonal part is
    rounding, unless H's eigenvalues fail to separate distinct joint
    eigenvalues, which a generic g makes unlikely.
    """
    g = _complex_normal(rng, len(mats))
    a = np.tensordot(g, mats, axes=(0, 0))
    _, u = np.linalg.eigh(a + a.conj().T)
    t = u.conj().T @ mats @ u
    diag = _readonly(np.diagonal(t, axis1=1, axis2=2))
    k = np.arange(u.shape[0])
    t[:, k, k] = 0.0
    return u, diag, t


def _worst_entry(slices) -> tuple[float, tuple[int, ...]]:
    """Largest entry over a sequence of residual arrays, and where it is.

    The index is the slice number followed by the position in that slice;
    ties go to the first entry in C order.  The scan starts from -inf, so a
    margin whose entries are all negative still reports its maximum.
    ``slices`` may be a generator, so only one slice exists at a time.
    """
    worst, where = -np.inf, ()
    for s, arr in enumerate(slices):
        pos = int(np.argmax(arr))
        value = float(arr.flat[pos])
        if value > worst:
            worst = value
            where = (s, *(int(k) for k in np.unravel_index(pos, arr.shape)))
    return worst, where


@dataclass(frozen=True, eq=False)
class ValidationCertificate:
    """Worst residuals observed while validating a structure tensor."""

    asymmetry: float
    assoc_residual: float
    unit_residual: float


@dataclass(frozen=True, eq=False)
class Algebra:
    """A validated finite-dimensional commutative unital algebra over C.

    Do not construct directly; :func:`validate` is the only constructor, and
    the builder helpers (:func:`polynomial_quotient`, the group class-sum
    algebras) go through it too.  A class-sum algebra's associativity
    already follows from its group's, but for a group center the scan is
    small next to certifying the Cayley table (for S5, about a twentieth
    of ``finite_group``'s time), so the certificate is made in one place.

    ``trace_form`` is computed once, on first use, and shared by every
    consumer (:func:`~gelfand.spectrum.characters`,
    :func:`~gelfand.spectrum.is_nilpotent`).
    """

    structure_constants: np.ndarray
    unit: np.ndarray
    basis_names: tuple[str, ...] | None
    certificate: ValidationCertificate
    #: largest structure-constant magnitude, ‖c‖∞, computed once by validate
    scale: float

    @property
    def dim(self) -> int:
        return self.unit.shape[0]

    @property
    def eps_assoc(self) -> float:
        return ASSOC_BASE * (1.0 + self.scale) ** 3

    @property
    def eps_char(self) -> float:
        """Certification tolerance for characters and involutions."""
        return CHAR_BASE * (1.0 + self.scale)

    @cached_property
    def trace_form(self) -> np.ndarray:
        """Read-only Gram matrix T[i, j] = tr(L_{b_i} L_{b_j}) of the trace form.

        Since L_{b_i} L_{b_j} = L_{b_i b_j}, the entry is
        sum_k c[i, j, k] tr(L_{b_k}), one contraction of the tensor with its
        trace vector.  In characteristic 0, T = sum_phi m_phi v_phi v_phi^T
        over the characters with their multiplicities, so its range is
        spanned by the character vectors and its kernel is the radical.
        """
        c = self.structure_constants
        form = c @ np.einsum("kaa->k", c)
        form.setflags(write=False)
        return form

    def __repr__(self) -> str:  # the tensors are noise in tracebacks
        return f"Algebra(dim={self.dim})"

    # -- element plumbing --------------------------------------------------

    def element(self, coeffs) -> np.ndarray:
        """Coerce ``coeffs`` to a complex coordinate vector of length dim."""
        x = np.asarray(coeffs, dtype=np.complex128)
        if x.shape != (self.dim,):
            raise DimensionMismatch(
                f"expected coordinate vector of length {self.dim}, got shape {x.shape}",
                expected=self.dim, got=list(x.shape))
        return x

    def basis_element(self, i: int) -> np.ndarray:
        x = np.zeros(self.dim, dtype=np.complex128)
        x[i] = 1.0
        return x

    # -- operations --------------------------------------------------------

    def multiply(self, x, y) -> np.ndarray:
        """Product of two elements.

        Contracts the symmetrized coefficient pairing with the structure
        tensor, so swapping the arguments returns bitwise-identical output.
        """
        x = self.element(x)
        y = self.element(y)
        pairing = 0.5 * (np.outer(x, y) + np.outer(y, x))
        return np.tensordot(pairing, self.structure_constants, axes=([0, 1], [0, 1]))

    def left_regular(self, x) -> np.ndarray:
        """Matrix of multiplication by ``x``; column j holds coords of x*b_j."""
        x = self.element(x)
        return np.tensordot(x, self.structure_constants, axes=(0, 0)).T

    def power(self, x, m: int) -> np.ndarray:
        """m-th power (m >= 0) via repeated squaring of the regular matrix.

        ``power(x, 0)`` is the unit; for m >= 1 the result is L_x^m applied
        to the unit coordinates.
        """
        x = self.element(x)
        if m < 0:
            raise ValueError("power exponent must be >= 0")
        if m == 0:
            return self.unit.copy()
        lx = np.linalg.matrix_power(self.left_regular(x), m)
        return lx @ self.unit

    def random_elements(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """(count, dim) array of complex standard-normal coordinate vectors."""
        return _complex_normal(rng, (count, self.dim))


def validate(structure_constants, unit, basis_names=None) -> Algebra:
    """Check the axioms and build an :class:`Algebra`.

    Parameters
    ----------
    structure_constants : array-like, shape (n, n, n)
        Basis products, ``c[i, j, k]`` the k-th coordinate of b_i * b_j.
        Must be symmetric in (i, j) up to absolute asymmetry 1e-12; smaller
        asymmetries are repaired by averaging.
    unit : array-like, shape (n,)
        Coordinates of the multiplicative identity.
    basis_names : sequence of str, optional

    Raises
    ------
    ShapeMismatch, NotCommutative, NotAssociative, BadUnit
    """
    c = np.asarray(structure_constants, dtype=np.complex128)
    u = np.asarray(unit, dtype=np.complex128)
    if c.ndim != 3 or len(set(c.shape)) != 1:
        raise ShapeMismatch(
            f"structure constants must have shape (n, n, n), got {c.shape}",
            got=list(c.shape))
    n = c.shape[0]
    if n < 1:
        raise ShapeMismatch("algebra dimension must be at least 1", got=list(c.shape))
    if u.shape != (n,):
        raise ShapeMismatch(
            f"unit must be a vector of length {n}, got shape {u.shape}",
            expected=n, got=list(u.shape))
    if basis_names is not None:
        basis_names = tuple(str(s) for s in basis_names)
        if len(basis_names) != n:
            raise ShapeMismatch(
                f"expected {n} basis names, got {len(basis_names)}",
                expected=n, got=len(basis_names))
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(u))):
        raise ShapeMismatch("structure data contains non-finite entries")

    # commutativity: exact after bounded symmetrization
    asym, (_, i, j, k) = _worst_entry((np.abs(c - c.transpose(1, 0, 2)),))
    if asym > SYMMETRY_TOL:
        raise NotCommutative(
            f"c[{i}][{j}][{k}] and c[{j}][{i}][{k}] differ by {asym:.3e} "
            f"(limit {SYMMETRY_TOL:.0e})",
            index=[i, j, k], asymmetry=asym, limit=SYMMETRY_TOL)
    c = 0.5 * (c + c.transpose(1, 0, 2))

    scale = float(np.max(np.abs(c)))
    eps_assoc = ASSOC_BASE * (1.0 + scale) ** 3

    # associativity, one b_i at a time: entry [j, l - i, m] of slice i
    # compares coords((b_i b_j) b_l) with coords(b_i (b_j b_l)).  By
    # commutativity the triple (l, j, i) compares the same two products in
    # the other order, R[l, j, i] = -R[i, j, l], so slice i scans l >= i
    # only and the witness has i <= l.  A real tensor is scanned in real
    # arithmetic.
    w = c if np.any(c.imag) else np.ascontiguousarray(c.real)
    assoc_res, (i, j, l, _) = _worst_entry(
        np.abs(np.tensordot(w[s], w[:, s:], axes=(1, 0)) - w[:, s:] @ w[s])
        for s in range(n))
    if assoc_res > eps_assoc:
        l += i
        raise NotAssociative(
            f"(b{i}·b{j})·b{l} and b{i}·(b{j}·b{l}) differ by {assoc_res:.3e} "
            f"(tolerance {eps_assoc:.3e})",
            triple=[i, j, l], residual=assoc_res, tolerance=eps_assoc)

    # unit law: row j of sum_i u_i c[i, j, :] must be e_j
    if float(np.linalg.norm(u)) == 0.0:
        raise BadUnit("unit vector is zero")
    action = np.tensordot(u, c, axes=(0, 0))
    unit_res, (_, j, _) = _worst_entry((np.abs(action - np.eye(n)),))
    if unit_res > eps_assoc:
        raise BadUnit(
            f"unit acts on b{j} with residual {unit_res:.3e} (tolerance {eps_assoc:.3e})",
            basis_index=j, residual=unit_res, tolerance=eps_assoc)

    cert = ValidationCertificate(asymmetry=asym, assoc_residual=assoc_res,
                                 unit_residual=unit_res)
    return Algebra(structure_constants=_readonly(c), unit=_readonly(u),
                   basis_names=basis_names, certificate=cert, scale=scale)


def polynomial_quotient(lower_coeffs) -> Algebra:
    """The quotient C[t]/(p) in the monomial basis {1, t, ..., t^(deg-1)}.

    ``lower_coeffs`` are the non-leading coefficients of the monic polynomial
    p(t) = t^n + a_{n-1} t^{n-1} + ... + a_0, listed as [a_0, ..., a_{n-1}].
    For example ``[0, 0]`` gives the dual numbers C[t]/(t^2) and ``[-1, 0]``
    gives C[t]/(t^2 - 1).
    """
    a = np.asarray(lower_coeffs, dtype=np.complex128)
    if a.ndim != 1 or a.shape[0] < 1:
        raise ShapeMismatch("need at least one non-leading coefficient", got=list(a.shape))
    n = a.shape[0]
    # coords of t^m for m = 0 .. 2n-2, reducing by t^n = -sum a_j t^j
    powers = [np.zeros(n, dtype=np.complex128) for _ in range(2 * n - 1)]
    for m in range(min(n, 2 * n - 1)):
        powers[m][m] = 1.0
    for m in range(n, 2 * n - 1):
        prev = powers[m - 1]
        shifted = np.zeros(n, dtype=np.complex128)
        shifted[1:] = prev[:-1]
        powers[m] = shifted + prev[n - 1] * (-a)
    k = np.arange(n)
    c = np.stack(powers)[k[:, None] + k]  # c[i, j] = coords of t^(i+j)
    unit = np.zeros(n, dtype=np.complex128)
    unit[0] = 1.0
    names = ["1"] + ["t" if m == 1 else f"t^{m}" for m in range(1, n)]
    return validate(c, unit, names)


def dual_numbers() -> Algebra:
    """C[t]/(t^2): the unit and one nilpotent generator."""
    return polynomial_quotient([0.0, 0.0])

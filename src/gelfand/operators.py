"""Commutative adjoint-closed operator algebras on an inner-product space.

The inner product is ⟨v, w⟩ = wᴴ G v for a Hermitian positive-definite
Gram matrix G, so the adjoint of T is G⁻¹ Tᴴ G.  A star subalgebra is
generated from commuting normal matrices in their joint eigenbasis, where
it is a space of functions on the d eigenvectors: products are pointwise,
the adjoint is conjugation, and the G inner product ⟨A, B⟩_G = tr(B* A)
is the inner product of C^d.  It is semisimple, so by the Gelfand
transform it is every function on its joint spectrum: the functions
constant on each group of eigenvectors that share a joint eigenvalue.
Its basis is the normalized point masses, the indicator of each group
over the square root of its size.  They are real, orthonormal and
self-adjoint, and the product of two of them is zero unless they are the
same, so the closure is re-expressed as an abstract structure-constant
algebra with diagonal structure constants whose involution is coordinate
conjugation, which lets every abstract tool (characters, radical, norms)
run on concrete operators.  The headline facts checked here: a certified
operator algebra has trivial radical, its characters biject with joint
eigenvalues, and the adjoint turns into complex conjugation under the
transform.  The isomorphism check returns the character space it
certified, with its radical stored on it, so a caller reads the
characters of the closure from the report instead of computing them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import Algebra, _joint_eigenbasis, _readonly, validate
from .errors import (
    NotCommutative,
    NotMember,
    PropertyViolated,
    SelfAdjointnessViolated,
    ShapeMismatch,
)
from .involution import Involution, coordinate_conjugation
from .spectrum import DEFAULT_SEED, CharacterSpace, characters, radical, seeded_rng

#: relative tolerance on  G = Gᴴ
GRAM_HERMITIAN_TOL = 1e-12

#: the smallest eigenvalue of G must exceed this times the largest
GRAM_DEFINITE_FLOOR = 1e-10

#: relative threshold for merging joint eigenvalues into one point
CLOSURE_TOL = 1e-9

#: relative tolerance on re-expanding the generators in the operator basis
EXPANSION_TOL = 1e-9

#: base tolerance for operator-level commutation and self-adjointness
OPERATOR_TOL = 1e-8

#: base factor of the reports' adjoint-defect bound 1e-9 * (1 + ‖G‖₂ ‖T‖₂)
ADJOINT_DEFECT_BASE = 1e-9


@dataclass(frozen=True, eq=False)
class InnerProductSpace:
    """A finite-dimensional space with inner product ⟨v, w⟩ = wᴴ G v."""

    gram: np.ndarray

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def inner(self, v, w) -> complex:
        v = np.asarray(v, dtype=np.complex128)
        w = np.asarray(w, dtype=np.complex128)
        return complex(np.conj(w) @ self.gram @ v)

    @property
    def condition(self) -> float:
        evals = self._eigh[0]
        return float(evals[-1] / evals[0])

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """The one eigendecomposition of G, ascending eigenvalues first."""
        return np.linalg.eigh(self.gram)

    @cached_property
    def _whitening(self) -> tuple[np.ndarray, np.ndarray]:
        """W = G^½ and W⁻¹."""
        evals, vecs = self._eigh
        root = np.sqrt(evals)
        return (vecs * root) @ vecs.conj().T, (vecs / root) @ vecs.conj().T

    def __repr__(self) -> str:
        return f"InnerProductSpace(dim={self.dim})"


def inner_product_space(gram) -> InnerProductSpace:
    """Validate a Gram matrix: Hermitian within 1e-12, safely definite."""
    g = np.asarray(gram, dtype=np.complex128)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 1:
        raise ShapeMismatch(f"Gram matrix must be square, got {g.shape}",
                            got=list(g.shape))
    if not np.all(np.isfinite(g)):
        raise PropertyViolated("Gram matrix has non-finite entries")
    scale = float(np.max(np.abs(g)))
    gap = float(np.max(np.abs(g - g.conj().T)))
    if gap > GRAM_HERMITIAN_TOL * (1.0 + scale):
        raise PropertyViolated(
            f"Gram matrix is not Hermitian (asymmetry {gap:.3e})",
            law="hermitian", residual=gap)
    space = InnerProductSpace(gram=_readonly(0.5 * (g + g.conj().T)))
    eigs = space._eigh[0]
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo <= GRAM_DEFINITE_FLOOR * max(hi, 0.0):
        raise PropertyViolated(
            f"Gram matrix is not safely positive definite "
            f"(eigenvalues span [{lo:.3e}, {hi:.3e}])",
            law="positive-definite", smallest=lo, largest=hi)
    return space


def adjoint(space: InnerProductSpace, t) -> np.ndarray:
    """The unique T* with ⟨T v, w⟩ = ⟨v, T* w⟩, namely G⁻¹ Tᴴ G."""
    t = _operator(space, t)
    return np.linalg.solve(space.gram, t.conj().T @ space.gram)


def adjoint_defect(space: InnerProductSpace, t, t_star) -> float:
    """Worst violation of the defining identity over basis-vector pairs.

    ⟨T e_i, e_j⟩ = (G T)[j, i] and ⟨e_i, T* e_j⟩ = ((T*)ᴴ G)[j, i], so the
    defect is just the elementwise gap between those two matrices.
    """
    t = _operator(space, t)
    t_star = _operator(space, t_star)
    lhs = space.gram @ t
    rhs = t_star.conj().T @ space.gram
    return float(np.max(np.abs(lhs - rhs)))


def _operator(space: InnerProductSpace, t) -> np.ndarray:
    t = np.asarray(t, dtype=np.complex128)
    d = space.dim
    if t.shape != (d, d):
        raise ShapeMismatch(f"operator must be {d}x{d}, got {t.shape}",
                            expected=[d, d], got=list(t.shape))
    return t


def _expand(basis: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of rows in the orthonormal rows of basis, and the norm
    of each row left over.  The conjugate is taken of the rows, not of the
    usually larger basis."""
    coeffs = np.conj(np.conj(rows) @ basis.T)
    return coeffs, np.linalg.norm(rows - coeffs @ basis, axis=-1)


@dataclass(frozen=True, eq=False)
class OperatorAlgebra:
    """A commutative star-closed span of matrices with its abstract shadow.

    ``basis_ops[k]`` is the concrete matrix behind abstract basis vector k;
    the basis is orthonormal in the G inner product ⟨A, B⟩_G = tr(B* A),
    B* the adjoint, and self-adjoint, so ``star`` is coordinate
    conjugation.  Basis op k is the spectral projector of joint eigenvalue
    k over √s_k, s_k its multiplicity, so the abstract unit is √s.
    """

    space: InnerProductSpace
    generators: tuple[np.ndarray, ...]
    basis_ops: np.ndarray          # (m, d, d), orthonormal in the G inner product
    algebra: Algebra
    star: Involution
    expansion_residual: float

    @property
    def dim(self) -> int:
        return self.basis_ops.shape[0]

    def __repr__(self) -> str:
        return (f"OperatorAlgebra(dim={self.dim}, "
                f"space_dim={self.space.dim})")

    def coords(self, t, tol: float | None = None) -> np.ndarray:
        """Coordinates of a matrix in the operator basis, by the G pairing.

        Raises :class:`NotMember` when the G-norm of what is left over
        exceeds ``tol``, by default 1e-8 (1 + the G-norm of the matrix).
        """
        t = _operator(self.space, t)
        root, root_inv = self.space._whitening
        basis = (root @ self.basis_ops @ root_inv).reshape(self.dim, -1)
        row = (root @ t @ root_inv).reshape(-1)
        c, leftover = _expand(basis, row)
        leftover = float(leftover)
        if tol is None:
            tol = 1e-8 * (1.0 + float(np.linalg.norm(row)))
        if leftover > tol:
            raise NotMember(
                f"matrix lies outside the operator algebra "
                f"(leftover {leftover:.3e})",
                leftover=leftover, tolerance=tol)
        return c

    def matrix_of(self, x) -> np.ndarray:
        """The concrete matrix with abstract coordinates x."""
        x = self.algebra.element(x)
        return np.tensordot(x, self.basis_ops, axes=(0, 0))


def generate_star_subalgebra(space: InnerProductSpace,
                             generators=()) -> OperatorAlgebra:
    """Close matrices under products and adjoints into a certified algebra.

    Requires the generators and their adjoints to commute pairwise, which
    makes the whole closure commutative.  The closure runs in the whitened
    frame T -> W T W⁻¹, W = G^½, where the G-adjoint is the conjugate
    transpose and the G inner product tr(B* A) is the Frobenius pairing.
    There the generators are a commuting normal family, diagonal in one
    unitary eigenbasis U of a generic Hermitian combination of them, and
    U diag(v) Uᴴ -> v carries the algebra onto functions on the d
    eigenvectors: the Frobenius pairing becomes the inner product of C^d,
    products become pointwise and the adjoint becomes conjugation.  Row g
    of the joint eigenvalues is the diagonal of Uᴴ W_g U.  A generator
    whose off-diagonal Frobenius norm there exceeds the closure threshold
    has no common eigenbasis with the others, although it passed the
    commutation tolerance; this raises :class:`NotCommutative` naming the
    pair of generators and adjoints with the largest commutator relative
    to its tolerance.

    The algebra is semisimple, so the Gelfand transform carries it onto
    all functions on its joint spectrum, the distinct columns of the rows.
    Two eigenvectors are the same point when every row agrees there within
    the closure threshold, and linked points group transitively.  Row v_k
    of the basis is the indicator of group k over √s_k, s_k its size: the
    normalized point masses, real and orthonormal.  Distinct point masses
    multiply to zero and v_k v_k = v_k / √s_k, so the structure constants
    are c[k, k, k] = 1/√s_k and zero elsewhere, the unit is √s, and the
    star is coordinate conjugation.  The generators' rows must re-expand
    within the expansion tolerance, since merging points that differ below
    the threshold leaves a generator's spread over.  ``expansion_residual``
    is the worst of those leftovers and of the generators' off-diagonal
    norms.  ``basis_ops`` is W⁻¹ U diag(v_k) Uᴴ W.
    """
    d = space.dim
    gens = tuple(_readonly(_operator(space, g)) for g in generators)
    adjs = [adjoint(space, g) for g in gens]
    pairs = _check_commuting(gens, adjs)

    root, root_inv = space._whitening
    white = np.array([root @ g @ root_inv for g in gens],
                     dtype=np.complex128).reshape(-1, d, d)
    u, rows, off = _joint_eigenbasis(white, seeded_rng(DEFAULT_SEED, 10))
    worst = float(np.max(np.linalg.norm(off, axis=(1, 2)), initial=0.0))
    largest = float(np.max(np.linalg.norm(white, axis=(1, 2)), initial=0.0))
    if worst > CLOSURE_TOL * (1.0 + largest):
        name_a, name_b, comm, comm_tol = max(pairs, key=lambda p: p[2] / p[3])
        raise NotCommutative(
            f"the generators share no eigenbasis (off-diagonal residual "
            f"{worst:.3e}); {name_a} and {name_b} commute only to "
            f"{comm:.3e} (tolerance {comm_tol:.3e})",
            pair=[name_a, name_b], residual=comm, tolerance=comm_tol)

    # points p, q of the joint spectrum coincide when every row agrees there
    # within the closure threshold; linked points group transitively
    tol = CLOSURE_TOL * (1.0 + max(1.0, float(np.max(np.abs(rows), initial=0.0))))
    near = np.all(np.abs(rows[:, :, np.newaxis] - rows[:, np.newaxis]) <= tol, axis=0)
    label = np.arange(d)
    while True:
        least = np.min(np.where(near, label, d), axis=1)
        if np.array_equal(least, label):
            break
        label = least
    # row k of v is the indicator of point k over the square root of its
    # size s_k: orthonormal, so v_k v_k = v_k / √s_k and c[k, k, k] = 1/√s_k
    # is the very float that products of the rows give
    _, label, sizes = np.unique(label, return_inverse=True, return_counts=True)
    m = len(sizes)
    k = np.arange(m)
    weight = 1.0 / np.sqrt(sizes)
    v = (k[:, np.newaxis] == label) * weight[:, np.newaxis]
    c = np.zeros((m, m, m))
    c[k, k, k] = weight
    embedded = validate(c, np.sqrt(sizes))
    star = coordinate_conjugation(embedded)

    gaps = _expand(v, rows)[1]
    bad = np.flatnonzero(gaps > EXPANSION_TOL * (1.0 + np.linalg.norm(rows, axis=1)))
    if len(bad):
        gap = float(gaps[bad[0]])
        raise PropertyViolated(
            f"generator {bad[0]} does not re-expand in the closure "
            f"(residual {gap:.3e})",
            index=int(bad[0]), residual=gap)
    worst = max(worst, float(np.max(gaps, initial=0.0)))
    out = root_inv @ ((u * v[:, np.newaxis]) @ u.conj().T) @ root
    return OperatorAlgebra(space=space, generators=gens, basis_ops=_readonly(out),
                           algebra=embedded, star=star, expansion_residual=worst)


def _check_commuting(gens, adjs) -> list[tuple[str, str, float, float]]:
    """Commutator and tolerance of every pair of generators and adjoints.

    Raises :class:`NotCommutative` on the first pair above its tolerance;
    otherwise returns the scan as (name, name, commutator, tolerance).
    """
    labeled = [(f"generator {i}", g) for i, g in enumerate(gens)]
    labeled += [(f"adjoint of generator {i}", a) for i, a in enumerate(adjs)]
    pairs = []
    for a in range(len(labeled)):
        for b in range(a + 1, len(labeled)):
            name_a, ta = labeled[a]
            name_b, tb = labeled[b]
            comm = float(np.max(np.abs(ta @ tb - tb @ ta)))
            tol = OPERATOR_TOL * (1.0 + float(np.linalg.norm(ta))
                                  * float(np.linalg.norm(tb)))
            if comm > tol:
                raise NotCommutative(
                    f"{name_a} and {name_b} do not commute "
                    f"(commutator norm {comm:.3e})",
                    pair=[name_a, name_b], residual=comm, tolerance=tol)
            pairs.append((name_a, name_b, comm, tol))
    return pairs


@dataclass(frozen=True, eq=False)
class NilpotencyCheck:
    """Norms and the bound from the self-adjoint square argument."""

    t_norm: float
    t_squared_norm: float
    epsilon: float
    cond_factor: float
    bound: float
    hypothesis_met: bool
    passed: bool


def check_selfadjoint_nilpotent(space: InnerProductSpace, t,
                                epsilon: float = 1e-10) -> NilpotencyCheck:
    """Confirm that a self-adjoint T with tiny T² is itself tiny.

    In the G-weighted norm the identity ⟨T²v, v⟩ = ⟨Tv, Tv⟩ gives
    ‖T‖ = √‖T²‖ exactly; translating to plain spectral norms costs a
    factor κ(G)^(3/2), hence the bound ‖T‖ ≤ √(ε · κ(G)^(3/2)).  When
    ‖T²‖ > ε the hypothesis fails and the check passes vacuously.
    """
    t = _operator(space, t)
    t_star = adjoint(space, t)
    gap = float(np.max(np.abs(t_star - t)))
    tol = OPERATOR_TOL * (1.0 + float(np.linalg.norm(t)))
    if gap > tol:
        raise SelfAdjointnessViolated(
            f"operator differs from its adjoint by {gap:.3e} "
            f"(tolerance {tol:.3e})",
            residual=gap, tolerance=tol)
    t_norm = float(np.linalg.norm(t, 2))
    tsq_norm = float(np.linalg.norm(t @ t, 2))
    cond_factor = space.condition ** 1.5
    bound = float(np.sqrt(epsilon * cond_factor))
    hypothesis = tsq_norm <= epsilon
    passed = (not hypothesis) or t_norm <= bound
    if not passed:
        raise PropertyViolated(
            f"self-adjoint operator with ‖T²‖ = {tsq_norm:.3e} ≤ {epsilon:.3e} "
            f"has ‖T‖ = {t_norm:.3e} above the bound {bound:.3e}",
            t_norm=t_norm, t_squared_norm=tsq_norm, bound=bound)
    return NilpotencyCheck(t_norm=t_norm, t_squared_norm=tsq_norm,
                           epsilon=epsilon, cond_factor=cond_factor,
                           bound=bound, hypothesis_met=hypothesis, passed=passed)


@dataclass(frozen=True, eq=False)
class IsomorphismReport:
    """Character-count, radical and conjugation checks for an operator algebra.

    ``space`` is the certified character space of the closure's algebra that
    the checks ran on; ``radical(opalg.algebra, report.space)`` returns the
    radical stored with it.
    """

    passed: bool
    character_count: int
    algebra_dim: int
    radical_dim: int
    conjugation_residual: float
    realness_residual: float
    space: CharacterSpace


def verify_gelfand_isomorphism(opalg: OperatorAlgebra,
                               seed: int = DEFAULT_SEED) -> IsomorphismReport:
    """Check that the transform is a star-respecting bijection.

    For a certified operator algebra the radical must vanish, the number
    of characters must equal the algebra dimension, applying a character
    to an adjoint must conjugate its value, and characters must be real
    on self-adjoint basis ops.  Any failure raises
    :class:`PropertyViolated` naming the clause; on success the report
    carries the certified space.
    """
    embedded = opalg.algebra
    space = characters(embedded, seed=seed)
    rad = radical(embedded, space)
    if rad.dim != 0:
        raise PropertyViolated(
            f"operator algebra has a {rad.dim}-dimensional radical",
            clause="radical", radical_dim=rad.dim)
    if len(space) != embedded.dim:
        raise PropertyViolated(
            f"{len(space)} characters on a {embedded.dim}-dimensional "
            f"semisimple algebra",
            clause="count", characters=len(space), dim=embedded.dim)
    tol = embedded.eps_char
    s = opalg.star.action
    values = space.values.T  # column k holds character k on each basis op
    # row i of Sᵀ V holds phi(adjoint(q_i)) for every character phi
    conj_worst = float(np.max(np.abs(s.T @ values - np.conj(values))))
    self_adjoint = np.max(np.abs(s - np.eye(embedded.dim)), axis=0) <= tol
    real_worst = float(np.max(np.abs(values[self_adjoint].imag), initial=0.0))
    if conj_worst > tol:
        raise PropertyViolated(
            f"adjoint does not transform to conjugation "
            f"(residual {conj_worst:.3e})",
            clause="conjugation", residual=conj_worst, tolerance=tol)
    if real_worst > tol:
        raise PropertyViolated(
            f"character not real on a self-adjoint basis op "
            f"(residual {real_worst:.3e})",
            clause="realness", residual=real_worst, tolerance=tol)
    return IsomorphismReport(passed=True, character_count=len(space),
                             algebra_dim=embedded.dim, radical_dim=0,
                             conjugation_residual=conj_worst,
                             realness_residual=real_worst, space=space)

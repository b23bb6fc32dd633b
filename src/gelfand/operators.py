"""Commutative adjoint-closed operator algebras on an inner-product space.

The inner product is ⟨v, w⟩ = wᴴ G v for a Hermitian positive-definite
Gram matrix G, so the adjoint of T is G⁻¹ Tᴴ G.  A star subalgebra is
generated from matrices by closing under products and adjoints; the
closure is re-expressed as an abstract structure-constant algebra with
its induced involution, which lets every abstract tool (characters,
radical, norms) run on concrete operators.  The headline facts checked
here: a certified operator algebra has trivial radical, its characters
biject with joint eigenvalues, and the adjoint turns into complex
conjugation under the transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, _readonly, validate
from .errors import (
    ClosureOverflow,
    NotCommutative,
    NotMember,
    PropertyViolated,
    SelfAdjointnessViolated,
    ShapeMismatch,
)
from .involution import Involution, involution
from .spectrum import DEFAULT_SEED, characters, radical

#: relative tolerance on  G = Gᴴ
GRAM_HERMITIAN_TOL = 1e-12

#: the smallest eigenvalue of G must exceed this times the largest
GRAM_DEFINITE_FLOOR = 1e-10

#: relative threshold for accepting a new direction during closure
CLOSURE_TOL = 1e-9

#: relative tolerance on re-expanding products in the operator basis
EXPANSION_TOL = 1e-9

#: base tolerance for operator-level commutation and self-adjointness
OPERATOR_TOL = 1e-8


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
        lo, hi = self._eig_range()
        return hi / lo

    def _eig_range(self) -> tuple[float, float]:
        eigs = np.linalg.eigvalsh(self.gram)
        return float(eigs[0]), float(eigs[-1])

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
    g = 0.5 * (g + g.conj().T)
    eigs = np.linalg.eigvalsh(g)
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo <= GRAM_DEFINITE_FLOOR * max(hi, 0.0):
        raise PropertyViolated(
            f"Gram matrix is not safely positive definite "
            f"(eigenvalues span [{lo:.3e}, {hi:.3e}])",
            law="positive-definite", smallest=lo, largest=hi)
    return InnerProductSpace(gram=_readonly(g))


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


def _project_out(ops: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frobenius pairings trace(opsᴴ t) with the stacked ops, and t minus its
    projection onto their span when they are orthonormal."""
    coeffs = np.sum(np.conj(ops) * t, axis=(1, 2))
    return coeffs, t - np.tensordot(coeffs, ops, axes=(0, 0))


def _expand(ops: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, float]:
    """Coefficients of t in the Frobenius-orthonormal ops, and the norm left over."""
    coeffs, rest = _project_out(ops, t)
    return coeffs, float(np.linalg.norm(rest))


@dataclass(frozen=True, eq=False)
class OperatorAlgebra:
    """A commutative star-closed span of matrices with its abstract shadow.

    ``basis_ops[k]`` is the concrete matrix behind abstract basis vector k;
    the basis is orthonormal under the Frobenius pairing with
    ``basis_ops[0]`` a positive multiple of the identity, so the abstract
    unit is supported on a single coordinate.
    """

    space: InnerProductSpace
    generators: tuple[np.ndarray, ...]
    basis_ops: np.ndarray          # (m, d, d), Frobenius-orthonormal
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
        """Coordinates of a matrix in the operator basis.

        Raises :class:`NotMember` when the matrix does not lie in the span.
        """
        t = _operator(self.space, t)
        c, leftover = _expand(self.basis_ops, t)
        if tol is None:
            tol = 1e-8 * (1.0 + float(np.linalg.norm(t)))
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
    makes the whole closure commutative.  The closure runs Gram-Schmidt
    over vectorized matrices, seeding with the identity so the abstract
    unit lands on basis index 0; each accepted direction enqueues its
    adjoint and its products with the basis found so far.  The accepted
    basis is one stacked array, and each candidate is orthogonalized
    against all of it at once, twice over (classical Gram-Schmidt with one
    reorthogonalization pass).  The stack starts with room for d matrices,
    the most a commutative star-closed algebra on C^d spans, and doubles
    when full, up to the d² that all d x d matrices span.
    """
    d = space.dim
    gens = tuple(_readonly(_operator(space, g)) for g in generators)
    adjs = [adjoint(space, g) for g in gens]
    _check_commuting(gens, adjs)

    identity = np.eye(d, dtype=np.complex128)
    limit = d * d
    basis = np.empty((d, d, d), dtype=np.complex128)
    basis[0] = identity / np.sqrt(d)
    m = 1
    queue: list[np.ndarray] = list(gens) + adjs
    scale = max([1.0] + [float(np.linalg.norm(g)) for g in gens])
    while queue:
        cand = queue.pop(0)
        scale = max(scale, float(np.linalg.norm(cand)))
        _, resid = _project_out(basis[:m], cand)
        _, resid = _project_out(basis[:m], resid)
        size = float(np.linalg.norm(resid))
        if size <= CLOSURE_TOL * (1.0 + scale):
            continue
        if m == limit:
            raise ClosureOverflow(
                f"closure exceeded {limit} dimensions on a {d}x{d} space",
                limit=limit)
        if m == len(basis):
            basis = np.concatenate([basis, np.empty_like(basis[:limit - m])])
        q = basis[m] = resid / size
        m += 1
        queue.append(adjoint(space, q))
        queue.extend(0.5 * (q @ b + b @ q) for b in basis[:m])

    ops = basis[:m]
    c = np.zeros((m, m, m), dtype=np.complex128)
    worst = 0.0
    for i in range(m):
        for j in range(i, m):
            prod = 0.5 * (ops[i] @ ops[j] + ops[j] @ ops[i])
            coeff, gap = _expand(ops, prod)
            worst = max(worst, gap)
            if gap > EXPANSION_TOL * (1.0 + float(np.linalg.norm(prod))):
                raise PropertyViolated(
                    f"product of basis ops ({i}, {j}) does not re-expand in "
                    f"the closure (residual {gap:.3e})",
                    pair=[i, j], residual=gap)
            c[i, j] = c[j, i] = coeff
    embedded = validate(c, _expand(ops, identity)[0])

    s = np.zeros((m, m), dtype=np.complex128)
    for i in range(m):
        a = adjoint(space, ops[i])
        s[:, i], gap = _expand(ops, a)
        worst = max(worst, gap)
        if gap > EXPANSION_TOL * (1.0 + float(np.linalg.norm(a))):
            raise PropertyViolated(
                f"adjoint of basis op {i} does not re-expand in the closure "
                f"(residual {gap:.3e})",
                index=i, residual=gap)
    star = involution(embedded, s)
    return OperatorAlgebra(space=space, generators=gens, basis_ops=_readonly(ops),
                           algebra=embedded, star=star, expansion_residual=worst)


def _check_commuting(gens, adjs) -> None:
    labeled = [(f"generator {i}", g) for i, g in enumerate(gens)]
    labeled += [(f"adjoint of generator {i}", a) for i, a in enumerate(adjs)]
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
    """Character-count, radical and conjugation checks for an operator algebra."""

    passed: bool
    character_count: int
    algebra_dim: int
    radical_dim: int
    conjugation_residual: float
    realness_residual: float


def verify_gelfand_isomorphism(opalg: OperatorAlgebra,
                               seed: int = DEFAULT_SEED) -> IsomorphismReport:
    """Check that the transform is a star-respecting bijection.

    For a certified operator algebra the radical must vanish, the number
    of characters must equal the algebra dimension, applying a character
    to an adjoint must conjugate its value, and characters must be real
    on self-adjoint basis ops.  Any failure raises
    :class:`PropertyViolated` naming the clause.
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
    values = space.matrix().T       # column k holds character k on each basis op
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
                             realness_residual=real_worst)

"""Submultiplicative norms and the character contraction bound.

Three norm kinds are supported, all certified at construction to be
submultiplicative with ‖e‖ = 1:

* ``regular-operator-norm``: spectral norm of the regular matrix L_x.
  When the regular matrices are certified, at construction, to be a
  commuting normal family, it is read off their joint eigenvalues in one
  unitary eigenbasis as max_k |lambda_k(x)|; otherwise it is one SVD per
  element;
* ``sup-on-characters``: max over characters of |phi(x)| (a seminorm
  when the radical is nonzero, accepted as such);
* ``user-weighted-l1``: sum of w_i |x_i| for positive weights satisfying
  the exact certificate w_i w_j >= sum_k |c[i,j,k]| w_k on basis pairs.

Every character contracts: |phi(x)| <= ‖x‖.  ``verify_contraction`` spot
checks that on seeded samples and ``homomorphism_norm`` estimates the
operator norm of the transform, which must come out as 1.  Both read the
ratio max_phi |phi(x)| / ‖x‖ off one seeded batch per kind, with e appended.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, _joint_eigenbasis, _worst_entry
from .errors import ContractionViolated, InvalidNorm
from .spectrum import DEFAULT_SEED, CharacterSpace, _require_own_space, seeded_rng

NORM_REGULAR = "regular-operator-norm"
NORM_SUP = "sup-on-characters"
NORM_WEIGHTED_L1 = "user-weighted-l1"
NORM_KINDS = (NORM_REGULAR, NORM_SUP, NORM_WEIGHTED_L1)

#: slack allowed on |phi(x)| <= ‖x‖ and on homomorphism_norm == 1
CONTRACTION_SLACK = 1e-9

#: tolerance on the ‖e‖ = 1 certificate
UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class AlgebraNorm:
    """A certified submultiplicative norm on a fixed algebra."""

    kind: str
    algebra: Algebra
    space: CharacterSpace | None = None
    weights: np.ndarray | None = None
    #: regular kind only: Λ[i, k], eigenvalue k of c[i] in a certified common
    #: unitary eigenbasis, or None when no such basis was certified
    joint_eigenvalues: np.ndarray | None = None

    def of(self, x) -> float:
        x = self.algebra.element(x)
        return float(self.of_many(x[np.newaxis])[0])

    def of_many(self, xs: np.ndarray) -> np.ndarray:
        """Norms of the rows of a (count, dim) array, in one array expression."""
        if self.kind == NORM_REGULAR:
            if self.joint_eigenvalues is not None:
                return np.max(np.abs(xs @ self.joint_eigenvalues), axis=1)
            # row s holds L_x transposed, which has the same spectral norm
            stack = np.tensordot(xs, self.algebra.structure_constants, axes=(1, 0))
            return np.linalg.norm(stack, 2, axis=(1, 2))
        if self.kind == NORM_SUP:
            return np.max(np.abs(xs @ self.space.values.T), axis=1)
        return np.abs(xs) @ self.weights

    def __repr__(self) -> str:
        return f"AlgebraNorm(kind={self.kind!r}, dim={self.algebra.dim})"


def operator_norm(algebra: Algebra) -> AlgebraNorm:
    """Spectral norm of the left regular representation.

    Certifies once whether the regular matrices are a commuting normal
    family, as for the convolution algebra of a finite abelian group.  If so,
    the norm of L_x is max_k |lambda_k(x)| over their joint eigenvalues,
    read off one unitary eigenbasis U of a generic Hermitian element
    H = A + Aᴴ, A = sum_i g_i c[i]; otherwise it is one SVD per element.

    With T_i = Uᴴ c[i] U = D_i + E_i (diagonal plus off-diagonal) and any x,
    sum_i x_i c[i] = U (D_x + E_x) Uᴴ, and the spectral norm of E_x is at most
    its Frobenius norm, at most sum_i |x_i| ‖E_i‖_F, at most
    ‖x‖₂ (sum_i ‖E_i‖_F²)^½ by Cauchy-Schwarz.  Since x = L_x e,
    ‖x‖₂ <= ‖L_x‖₂ ‖e‖₂, so max_k |D_x[k]| is within a relative
    ‖e‖₂ (sum_i ‖E_i‖_F²)^½ of ‖L_x‖₂.  The eigenbasis is used when that
    bound is at most a tenth of the contraction slack, which leaves the rest
    of the slack to rounding.  A non-normal family, or an H with a repeated
    eigenvalue, leaves off-diagonal mass far above it.
    """
    _, diag, off = _joint_eigenbasis(algebra.structure_constants,
                                     seeded_rng(DEFAULT_SEED, 9))
    bound = float(np.linalg.norm(algebra.unit)) * float(np.linalg.norm(off))
    if bound > CONTRACTION_SLACK / 10:
        return AlgebraNorm(kind=NORM_REGULAR, algebra=algebra)
    return AlgebraNorm(kind=NORM_REGULAR, algebra=algebra, joint_eigenvalues=diag)


def sup_norm(algebra: Algebra, space: CharacterSpace) -> AlgebraNorm:
    """Sup of |phi(x)| over the certified characters."""
    _require_own_space(algebra, space, InvalidNorm)
    if len(space) == 0:
        raise InvalidNorm("sup norm needs at least one character")
    return AlgebraNorm(kind=NORM_SUP, algebra=algebra, space=space)


def weighted_l1_norm(algebra: Algebra, weights) -> AlgebraNorm:
    """Weighted l1 norm, certified exactly on all basis pairs.

    Raises :class:`InvalidNorm` when some weight is not positive, when
    the submultiplicativity certificate w_i w_j >= sum_k |c[i,j,k]| w_k
    fails on some pair, or when ‖e‖ differs from 1 beyond 1e-9.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (algebra.dim,):
        raise InvalidNorm(
            f"expected {algebra.dim} weights, got shape {w.shape}",
            expected=algebra.dim, got=list(w.shape))
    if not np.all(w > 0):
        raise InvalidNorm("weights must be strictly positive",
                          weights=w.tolist())
    absc = np.abs(algebra.structure_constants)
    bound = np.tensordot(absc, w, axes=(2, 0))   # sum_k |c[i,j,k]| w_k
    deficit, (_, i, j) = _worst_entry((bound - np.outer(w, w),))
    if deficit > 0:
        raise InvalidNorm(
            f"certificate fails on basis pair ({i}, {j}): "
            f"w_i w_j = {w[i] * w[j]:.6g} < {bound[i, j]:.6g}",
            pair=[i, j], lhs=float(w[i] * w[j]), rhs=float(bound[i, j]))
    unit_norm = float(w @ np.abs(algebra.unit))
    if abs(unit_norm - 1.0) > UNIT_NORM_TOL:
        raise InvalidNorm(
            f"‖e‖ = {unit_norm:.12g} but the unital convention requires 1",
            unit_norm=unit_norm, tolerance=UNIT_NORM_TOL)
    w = w.copy()
    w.setflags(write=False)
    return AlgebraNorm(kind=NORM_WEIGHTED_L1, algebra=algebra, weights=w)


def suggest_l1_weights(algebra: Algebra) -> np.ndarray | None:
    """A certificate-valid weight vector, when one is easy to construct.

    Works whenever the unit is supported on a single basis index i0: that
    weight is pinned by ‖e‖ = 1 and the rest are puffed up to the row sums
    of |c|, which provably satisfies the certificate.  Returns None for
    units with mixed support.
    """
    u = algebra.unit
    support = np.flatnonzero(np.abs(u) > 1e-12)
    if len(support) != 1:
        return None
    i0 = int(support[0])
    w0 = 1.0 / float(np.abs(u[i0]))
    absc = np.abs(algebra.structure_constants)
    rest = np.arange(algebra.dim) != i0
    block = absc[rest][:, rest]     # |c[i, j, :]| over pairs i, j != i0
    rows = block[:, :, rest].sum(axis=2) + w0 * block[:, :, i0]
    lam = max(1.0, w0, float(np.max(rows, initial=0.0)))
    w = np.full(algebra.dim, lam, dtype=np.float64)
    w[i0] = w0
    # the puffing argument needs w0 <= lam; certify anyway
    try:
        weighted_l1_norm(algebra, w)
    except InvalidNorm:
        return None
    return w


@dataclass(frozen=True, eq=False)
class ContractionReport:
    """Outcome of spot-checking |phi(x)| <= ‖x‖ on seeded samples."""

    kind: str
    samples: int
    seed: int
    worst_ratio: float
    passed: bool
    #: :func:`homomorphism_norm` of the same samples and the witness x = e
    hom_norm: float


def verify_contraction(algebra: Algebra, norm: AlgebraNorm, space: CharacterSpace,
                       samples: int = 1000, seed: int = DEFAULT_SEED) -> ContractionReport:
    """Check the contraction bound on seeded samples.

    Raises :class:`ContractionViolated` when some sample exceeds
    ‖x‖ (1 + 1e-9); that indicates a bug rather than bad input, since the
    bound is a theorem for certified norms and characters.  Raises
    :class:`InvalidNorm` when the norm or the space belongs to another
    algebra.
    """
    worst, hom = _sampled_ratios(algebra, norm, space, samples, seed)
    passed = worst <= 1.0 + CONTRACTION_SLACK
    if not passed:
        raise ContractionViolated(
            f"worst |phi(x)| / ‖x‖ = {worst:.12f} exceeds 1 + {CONTRACTION_SLACK:.0e} "
            f"for {norm.kind}",
            worst_ratio=worst, kind=norm.kind, samples=samples, seed=seed)
    return ContractionReport(kind=norm.kind, samples=samples, seed=seed,
                             worst_ratio=worst, passed=passed, hom_norm=hom)


def homomorphism_norm(algebra: Algebra, norm: AlgebraNorm, space: CharacterSpace,
                      samples: int = 1000, seed: int = DEFAULT_SEED) -> float:
    """Operator norm of the Gelfand transform, estimated on samples.

    The sup of max_phi |phi(x)| / ‖x‖ over :func:`verify_contraction`'s
    samples plus the deterministic witness x = e.  Contraction caps it at 1
    and the witness attains 1, so the result must equal 1 to within 1e-9; it
    never raises :class:`ContractionViolated`.  Raises :class:`InvalidNorm`
    when the norm or the space belongs to another algebra.
    """
    return _sampled_ratios(algebra, norm, space, samples, seed)[1]


def _sampled_ratios(algebra: Algebra, norm: AlgebraNorm, space: CharacterSpace,
                    samples: int, seed: int) -> tuple[float, float]:
    """Worst max_phi |phi(x)| / ‖x‖ over seeded samples, and that joined with e.

    Raises :class:`InvalidNorm` unless the norm and the space are
    ``algebra``'s.  Rows with ‖x‖ <= 1e-12 count as 0.  The numerator is the
    sup norm's own expression, so that norm's ratio is exactly 1 on the rest.
    """
    _require_own_space(algebra, space, InvalidNorm)
    if norm.algebra is not algebra:
        raise InvalidNorm("norm belongs to a different algebra")
    rng = seeded_rng(seed, 2, NORM_KINDS.index(norm.kind))
    xs = np.vstack([algebra.random_elements(samples, rng), algebra.unit])
    sizes = norm.of_many(xs)
    peaks = sup_norm(algebra, space).of_many(xs)
    ratios = np.divide(peaks, sizes, out=np.zeros_like(sizes), where=sizes > 1e-12)
    worst = float(np.max(ratios[:-1], initial=0.0))
    return worst, max(worst, float(ratios[-1]))

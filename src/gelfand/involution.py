"""Conjugate-linear involutions and self-adjoint structure.

An involution is stored as its action matrix S on basis coordinates:
star(x) = S @ conj(x).  Keeping the conjugation outside the matrix makes
conjugate-linearity structural, so only three laws need certification:
applying star twice is the identity, star respects products, and the
unit is fixed.  Certification happens at construction and uncertified
matrices never become Involution values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, _readonly, _worst_entry
from .errors import CertificationFailed, PropertyViolated, ShapeMismatch
from .spectrum import (
    SEP_BASE,
    Character,
    CharacterSpace,
    character_residuals,
    radical,
)


@dataclass(frozen=True, eq=False)
class Involution:
    """A certified conjugate-linear algebra involution."""

    algebra: Algebra
    action: np.ndarray

    def star(self, x) -> np.ndarray:
        """Apply the involution: S @ conj(x).

        Conjugate-linearity star(c x) = conj(c) star(x) is exact, not
        approximate, because conjugation of an IEEE complex product only
        flips signs.
        """
        x = self.algebra.element(x)
        return self.action @ np.conj(x)

    def __repr__(self) -> str:
        return f"Involution(dim={self.algebra.dim})"


def involution(algebra: Algebra, action) -> Involution:
    """Certify an action matrix and wrap it as an Involution.

    Checks, each within the algebra's character tolerance:

    * S @ conj(S) = I  (star is an involution);
    * star(b_i b_j) = star(b_i) star(b_j) on all basis pairs, one basis
      index i at a time in O(n³) memory, with every L_{star(b_k)} built
      by one GEMM;
    * star(e) = e.

    Raises :class:`PropertyViolated` naming the first law that fails.
    """
    s = np.asarray(action, dtype=np.complex128)
    n = algebra.dim
    if s.shape != (n, n):
        raise ShapeMismatch(f"action must be {n}x{n}, got {s.shape}",
                            expected=[n, n], got=list(s.shape))
    if not np.all(np.isfinite(s)):
        raise PropertyViolated("action matrix has non-finite entries")
    tol = algebra.eps_char
    gap, _ = _worst_entry((np.abs(s @ np.conj(s) - np.eye(n)),))
    if gap > tol:
        raise PropertyViolated(
            f"star applied twice differs from the identity by {gap:.3e}",
            law="involutive", residual=gap, tolerance=tol)
    # row j of slice i is star(b_i b_j) - star(b_i) star(b_j); star(b_i) is
    # column i of S, and slice i of lstar is L_{star(b_i)}, all from one GEMM
    c = algebra.structure_constants
    st = s.T
    lstar = (st @ c.reshape(n, n * n)).reshape(n, n, n)
    worst, (i, j, _) = _worst_entry(
        np.abs(np.conj(c[k]) @ st - st @ lstar[k]) for k in range(n))
    if worst > tol:
        witness = (min(i, j), max(i, j))
        raise PropertyViolated(
            f"star(b_i b_j) != star(b_i) star(b_j) on pair {witness} "
            f"(residual {worst:.3e})",
            law="multiplicative", pair=list(witness), residual=worst,
            tolerance=tol)
    unit_gap, _ = _worst_entry((np.abs(s @ np.conj(algebra.unit) - algebra.unit),))
    if unit_gap > tol:
        raise PropertyViolated(
            f"star does not fix the unit (residual {unit_gap:.3e})",
            law="unital", residual=unit_gap, tolerance=tol)
    return Involution(algebra=algebra, action=_readonly(s))


def coordinate_conjugation(algebra: Algebra) -> Involution:
    """star(x) = conj(x), valid whenever the structure constants are real."""
    return involution(algebra, np.eye(algebra.dim))


def conjugate_character(inv: Involution, phi: Character) -> tuple[Character, bool]:
    """The character psi(x) = conj(phi(star(x))) and whether psi == phi.

    psi inherits multiplicativity from phi because star respects products
    and conjugation respects complex multiplication; it is still certified
    numerically and :class:`CertificationFailed` signals a broken input.
    The flag compares psi to phi at the character separation threshold,
    since the two are either identical or a full gap apart.
    """
    values, residuals, fixed = _conjugates(inv, phi.values[None, :])
    psi = Character(values=_readonly(values[0]), residual=float(residuals[0]))
    return psi, bool(fixed[0])


def _conjugates(inv: Involution,
                values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conjugates conj(V S) of a (count, dim) stack of value vectors, certified.

    Returns the stack, its residuals, and whether each conjugate equals its
    own row within the separation threshold of that pair.  Raises
    :class:`CertificationFailed` on the first row whose residual exceeds
    eps_char.
    """
    algebra = inv.algebra
    conj = np.conj(values @ inv.action)
    residuals = character_residuals(algebra, conj)
    bad = np.flatnonzero(residuals > algebra.eps_char)
    if bad.size:
        residual = float(residuals[bad[0]])
        raise CertificationFailed(
            f"conjugate candidate has residual {residual:.3e} "
            f"(tolerance {algebra.eps_char:.3e})",
            residual=residual, tolerance=algebra.eps_char)
    peaks = np.maximum(np.max(np.abs(values), axis=1), np.max(np.abs(conj), axis=1))
    fixed = np.max(np.abs(conj - values), axis=1) < SEP_BASE * (1.0 + peaks)
    return conj, residuals, fixed


def selfadjoint_parts(inv: Involution, x) -> tuple[np.ndarray, np.ndarray]:
    """Split x = x1 + i x2 with both parts fixed by star.

    x1 = (x + star(x)) / 2 and x2 = (x - star(x)) / 2i; the recombination
    x1 + i x2 returns x to machine precision.
    """
    x = inv.algebra.element(x)
    sx = inv.star(x)
    x1 = (x + sx) / 2.0
    x2 = (x - sx) / 2.0j
    return x1, x2


@dataclass(frozen=True, eq=False)
class SpanCheckReport:
    """Result of checking that radical vectors split inside the radical."""

    passed: bool
    radical_dim: int
    checked: int
    worst_residual: float


def radical_selfadjoint_span_check(inv: Involution,
                                   space: CharacterSpace) -> SpanCheckReport:
    """Verify the radical is spanned by self-adjoint elements.

    Splits each radical basis vector into self-adjoint parts and checks
    that both parts still vanish under every character.  The pieces
    x1, x2 are star-fixed by construction, so this shows the radical is
    the complex span of the self-adjoint elements it contains.  Raises
    :class:`PropertyViolated` when ``space`` was certified for another
    algebra than the involution's.
    """
    algebra = inv.algebra
    rad = radical(algebra, space)
    tol = algebra.eps_char
    worst = 0.0
    checked = 0
    for col in range(rad.dim):
        x1, x2 = selfadjoint_parts(inv, rad.basis[:, col])
        for part in (x1, x2):
            checked += 1
            resid = float(np.max(np.abs(space.transform(part)), initial=0.0))
            worst = max(worst, resid)
            if resid > tol:
                raise PropertyViolated(
                    f"self-adjoint part of radical vector {col} leaks out of "
                    f"the radical (transform residual {resid:.3e})",
                    column=col, residual=resid, tolerance=tol)
    return SpanCheckReport(passed=True, radical_dim=rad.dim,
                           checked=checked, worst_residual=worst)

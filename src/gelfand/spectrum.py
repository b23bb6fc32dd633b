"""Characters, the Gelfand transform, and the radical.

A character of a commutative unital algebra is a nonzero multiplicative
linear functional; it is determined by its value vector v with
v_i = phi(b_i).  Such vectors are exactly the common eigenvectors of the
transposed regular matrices L_{b_i}^T = c[i], rescaled so that
phi(e) = 1.  In characteristic 0 the trace form tr(L_x L_y) equals
sum_phi m_phi phi(x) phi(y), so its range is spanned by the character
vectors and its kernel is the radical.  The algebra computes that form
once (``Algebra.trace_form``).  :func:`characters` therefore compresses
one seeded generic matrix L_g^T to that range, where it is diagonalizable
with eigenvalues phi(g), and reads every character off its eigenvectors.
The whole candidate set is certified in one scan per basis index
(:func:`character_residuals`) and sorted with one ``lexsort``.  Nothing
uncertified is ever returned.

The Gelfand transform x -> (phi -> phi(x)) is one (characters x basis)
table applied to coordinate vectors.  :class:`CharacterSpace` stores that
table once, as a read-only complex (count, dim) array with a (count,)
array of residuals, and the transform, the radical (its null space),
interpolation (one least-squares solve against it) and every other
consumer read the stored array.  An empty table has shape (0, dim).  The
radical is a property of the table, so it is certified once per space and
stored with it: every :func:`radical` call on the same space returns the
same :class:`RadicalSubspace`.  :func:`interpolate` takes one target or a
stack of targets and answers all of them with one solve; the space's
indicator elements are the interpolants of the rows of the identity, so
one call on ``np.eye(count)`` gives them all.  A consumer handed an
algebra and a space certified for another algebra raises instead of
answering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import Algebra, _complex_normal, _readonly
from .errors import (
    CertificationFailed,
    DimensionMismatch,
    LengthMismatch,
    NotDistinct,
    NotMember,
    PropertyViolated,
)

#: default RNG seed for every sampling loop in the library
DEFAULT_SEED = 0x5EED

#: fresh generic elements tried before characters() gives up
RETRIES = 8

#: base factor of the character-separation threshold 1e-6 * (1 + max|v|)
SEP_BASE = 1e-6

#: base factor of the nilpotency thresholds: 1e-8 * (|T| |x|)_i on each row
#: of the trace form and 1e-8 * (1 + ‖x‖)^m on the powers
NILP_BASE = 1e-8

#: pass bound on the worst transform error of an interpolant in the reports
INTERP_TOL = 1e-7


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for a (seed, context-key) pair."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@dataclass(frozen=True, eq=False)
class Character:
    """A certified multiplicative functional, stored as its value vector."""

    values: np.ndarray
    residual: float

    def __call__(self, x) -> complex:
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != self.values.shape:
            raise DimensionMismatch(
                f"expected coordinate vector of length {self.values.shape[0]}, "
                f"got shape {x.shape}",
                expected=self.values.shape[0], got=list(x.shape))
        return complex(self.values @ x)

    def __repr__(self) -> str:
        vals = np.array2string(self.values, precision=4, suppress_small=True)
        return f"Character({vals})"


@dataclass(frozen=True, eq=False)
class CharacterSpace:
    """All characters of an algebra, certified, deduplicated and sorted.

    The certified table is stored once: ``values`` is a read-only complex
    (count, dim) array whose row k holds phi_k(b_i), and ``residuals`` the
    read-only (count,) array of their certificates.  The Gelfand transform,
    the sup norm, the radical and interpolation all read that array;
    ``characters`` is a cached tuple of :class:`Character` views of its rows,
    and ``delta_sep`` is the separation threshold of the rows.  The radical
    is computed on the first :func:`radical` call and stored here.
    """

    algebra: Algebra
    values: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        n = self.algebra.dim
        values = _readonly(self.values).reshape(len(self.values), n)
        residuals = np.array(self.residuals, dtype=np.float64).reshape(len(values))
        residuals.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "residuals", residuals)
        m = len(values)
        if m > n:
            raise PropertyViolated(
                f"{m} characters on a {n}-dimensional algebra", count=m, dim=n)
        close = _first_close_pair(values, self.delta_sep)
        if close is not None:
            a, b, gap = close
            raise PropertyViolated(
                f"characters {a} and {b} are only {gap:.3e} apart "
                f"(separation threshold {self.delta_sep:.3e})",
                pair=[a, b], distance=gap, delta_sep=self.delta_sep)

    @cached_property
    def delta_sep(self) -> float:
        """Distinct rows lie at least this far apart in the max norm."""
        return separation_threshold(self.values)

    @cached_property
    def characters(self) -> tuple[Character, ...]:
        return tuple(Character(values=v, residual=float(r))
                     for v, r in zip(self.values, self.residuals))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.characters)

    def __getitem__(self, idx) -> Character:
        return self.characters[idx]

    def __repr__(self) -> str:
        return f"CharacterSpace(count={len(self)}, dim={self.algebra.dim})"

    def matrix(self) -> np.ndarray:
        """The stored (count, dim) array whose rows are the value vectors."""
        return self.values

    @property
    def worst_residual(self) -> float:
        return float(np.max(self.residuals, initial=0.0))

    def transform(self, x) -> np.ndarray:
        """Gelfand transform of x: the tuple (phi(x)) over all characters."""
        x = self.algebra.element(x)
        return self.values @ x

    @cached_property
    def _radical(self) -> RadicalSubspace:
        """The certified radical of the table; read it through :func:`radical`."""
        phi = self.values
        algebra = self.algebra
        n = algebra.dim
        vh = np.linalg.svd(phi)[2]
        basis = vh[len(phi):].conj().T  # (n, n - count), orthonormal
        # regular[a] is L of column a, as in Algebra.left_regular
        regular = np.tensordot(basis, algebra.structure_constants,
                               axes=(0, 0)).swapaxes(1, 2)
        powers = np.linalg.matrix_power(regular, n) @ algebra.unit
        t_res = float(np.max(np.abs(phi @ basis), initial=0.0))
        p_res = float(np.max(np.abs(powers), initial=0.0))
        return RadicalSubspace(algebra=algebra, basis=_readonly(basis),
                               transform_residual=t_res, power_residual=p_res)


def _require_own_space(algebra: Algebra, space: CharacterSpace,
                       error: type = PropertyViolated) -> None:
    """Raise ``error`` unless ``space`` was certified for ``algebra`` itself.

    Consumers that take an algebra and a space call this before reading the
    space, so a space of another algebra, even one of the same dimension,
    never yields an answer.
    """
    if space.algebra is not algebra:
        raise error("character space belongs to a different algebra")


def _first_close_pair(rows: np.ndarray, thresh: float) -> tuple[int, int, float] | None:
    """The first pair a < b, in (a, b) loop order, of rows closer than thresh.

    Returns (a, b, distance) in the max norm, or None.  One row is compared
    against all later rows at a time, so the scratch stays O(count * dim).
    """
    for a in range(len(rows) - 1):
        gaps = np.max(np.abs(rows[a] - rows[a + 1:]), axis=1)
        close = np.flatnonzero(gaps < thresh)
        if close.size:
            return a, a + 1 + int(close[0]), float(gaps[close[0]])
    return None


def character_residual(algebra: Algebra, v: np.ndarray) -> float:
    """Worst violation of multiplicativity and unitality for a value vector."""
    return float(character_residuals(algebra, np.asarray(v)[None, :])[0])


def character_residuals(algebra: Algebra, vectors: np.ndarray) -> np.ndarray:
    """:func:`character_residual` of every row of a (count, dim) array.

    Scans one basis index i at a time: row i of the multiplicativity defect
    sum_k c[i, j, k] v_k - v_i v_j is one matrix product for all rows at
    once, and a running per-row maximum keeps the scratch at O(dim * count).
    """
    vt = np.asarray(vectors, dtype=np.complex128).T
    c = algebra.structure_constants
    worst = np.abs(algebra.unit @ vt - 1.0)
    for i in range(algebra.dim):
        np.maximum(worst, np.max(np.abs(c[i] @ vt - vt[i] * vt), axis=0), out=worst)
    return worst


def separation_threshold(vectors) -> float:
    """SEP_BASE * (1 + max|v|) over every entry of an array of rows."""
    return SEP_BASE * (1.0 + float(np.max(np.abs(vectors), initial=0.0)))


def _in_trace_kernel(form: np.ndarray, x: np.ndarray) -> bool:
    """Whether T x = 0, row by row relative to the size of the row's terms.

    A bound relative to the whole of T would let a character with large
    values hide one with small values.
    """
    return bool(np.all(np.abs(form @ x) <= NILP_BASE * (np.abs(form) @ np.abs(x))))


def characters(algebra: Algebra, seed: int = DEFAULT_SEED,
               retries: int = RETRIES) -> CharacterSpace:
    """Find and certify every character of the algebra.

    The character vectors are the eigenvectors of L_g^T = sum_i g_i c[i]
    for a generic g and span the range of the trace form, where that
    matrix is diagonalizable with eigenvalues phi(g).  Compressing it to an
    orthonormal basis Q of the range (one SVD, whose rank is the character
    count) and mapping the eigenvectors back through Q gives one candidate
    per character; each is normalized to phi(e) = 1.  The set is certified
    against multiplicativity and unitality within eps_char by one
    :func:`character_residuals` scan, and sorted lexicographically by
    interleaved (Re, Im) with one ``np.lexsort``.

    A fresh generic element is drawn when two eigenvalues lie closer than
    the separation threshold or a candidate fails certification; after
    ``retries`` attempts :class:`CertificationFailed` is raised.

    :func:`~gelfand.algebra.validate` runs this search once, at the default
    seed and retries, and stores the space on the algebra; for those
    arguments the stored space is returned, and any other seed or retry
    count searches afresh.
    """
    if seed == DEFAULT_SEED and retries == RETRIES and algebra._space is not None:
        return algebra._space
    n = algebra.dim
    c = algebra.structure_constants
    eps = algebra.eps_char
    form = algebra.trace_form
    u, sing, vh = np.linalg.svd(form)
    rank = int(np.sum(sing > 1e-12 * n * (1.0 + float(sing[0]))))
    # the cut is absolute in T's scale and can drop a character whose
    # values are small; keep every direction v up to the last one past the
    # cut with |T v|_i > NILP_BASE * sum_k |T_ik| * max|v| on some row i,
    # a bound that roundoff entries of v cannot bring down to roundoff
    tail = vh[rank:].conj().T
    above = np.abs(form @ tail) > NILP_BASE * np.outer(
        np.sum(np.abs(form), axis=1), np.max(np.abs(tail), axis=0))
    rank += int(np.max(np.flatnonzero(np.any(above, axis=0)) + 1, initial=0))
    q = u[:, :rank]

    best_gap = 0.0
    worst_residual = 0.0
    for attempt in range(retries):
        rng = seeded_rng(seed, 1, attempt)
        g = _complex_normal(rng, n)
        generic = np.tensordot(g, c, axes=(0, 0))  # = L_g transposed
        eigs, w = np.linalg.eig(q.conj().T @ generic @ q)
        dist = np.abs(eigs[:, None] - eigs[None, :])
        np.fill_diagonal(dist, np.inf)
        gap = float(np.min(dist))
        best_gap = max(best_gap, gap)
        if gap < separation_threshold([eigs]):
            continue
        vecs = q @ w
        found = (vecs / (algebra.unit @ vecs)).T
        residuals = character_residuals(algebra, found)
        worst = float(np.max(residuals))
        if not worst <= eps:
            worst_residual = max(worst_residual, worst)
            continue
        # lexicographic over interleaved (Re, Im), snapped to a grid of
        # 1e-9 * (1 + max|v|): distinct characters are at least delta_sep
        # apart, so the order is stable against roundoff in coordinates
        # that are morally equal
        quantum = 1e-9 * (1.0 + float(np.max(np.abs(found))))
        keys = np.rint(np.stack([found.real, found.imag], axis=2).reshape(rank, 2 * n)
                       / quantum)
        order = np.lexsort(keys.T[::-1])
        return CharacterSpace(algebra=algebra, values=found[order],
                              residuals=residuals[order])

    raise CertificationFailed(
        f"character search failed after {retries} attempts: best eigenvalue "
        f"gap {best_gap:.3e}, worst rejected residual {worst_residual:.3e} "
        f"(eps_char {eps:.3e})",
        retries=retries, eigenvalue_gap=best_gap,
        worst_residual=worst_residual, eps_char=eps)


@dataclass(frozen=True, eq=False)
class RadicalSubspace:
    """Orthonormal basis of the joint kernel of all characters."""

    algebra: Algebra
    basis: np.ndarray            # (dim, r), orthonormal columns
    transform_residual: float    # worst |phi(column)|
    power_residual: float        # worst ‖column^dim‖∞

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def __repr__(self) -> str:
        return f"RadicalSubspace(dim={self.dim} of {self.algebra.dim})"


def radical(algebra: Algebra, space: CharacterSpace) -> RadicalSubspace:
    """Null space of the character matrix, certified nilpotent columnwise.

    Distinct characters are linearly independent, so the null space has
    dimension dim - count; no rank cut is needed, and none can mistake a
    character with small values for a radical direction.  The radical is
    computed once per space and stored with it, so later calls return the
    same object.  Raises :class:`PropertyViolated` when ``space`` was
    certified for another algebra.
    """
    _require_own_space(algebra, space)
    return space._radical


def nilpotency_threshold(x_norm: float, m: int) -> float:
    return NILP_BASE * (1.0 + x_norm) ** m


def is_nilpotent(algebra: Algebra, x) -> tuple[bool, int | None]:
    """Whether x is nilpotent; returns (flag, an exponent m with x^m = 0).

    x is nilpotent exactly when it lies in the radical, the kernel of the
    trace form, which decides the flag.  The exponent is the first power
    that falls below the nilpotency threshold or, when roundoff in the
    powers hides it, dim, since x^dim = 0 for every nilpotent x.
    """
    x = algebra.element(x)
    if not _in_trace_kernel(algebra.trace_form, x):
        return False, None
    xn = float(np.linalg.norm(x))
    lx = algebra.left_regular(x)
    p = algebra.unit
    for m in range(1, algebra.dim + 1):
        p = lx @ p
        if float(np.max(np.abs(p))) <= nilpotency_threshold(xn, m):
            return True, m
    return True, algebra.dim


def separating_element(algebra: Algebra, phi: Character, psi: Character) -> np.ndarray:
    """An element y with phi(y) = 1 and psi(y) = 0.

    Takes the basis element with the largest value gap, subtracts psi's
    value and rescales; the result is certified before being returned.
    """
    gap = np.abs(phi.values - psi.values)
    thresh = separation_threshold([phi.values, psi.values])
    if float(np.max(gap)) < thresh:
        raise NotDistinct(
            f"characters agree within {float(np.max(gap)):.3e} on every basis "
            f"element (threshold {thresh:.3e})",
            distance=float(np.max(gap)), threshold=thresh)
    i = int(np.argmax(gap))
    y = (algebra.basis_element(i) - psi.values[i] * algebra.unit) \
        / (phi.values[i] - psi.values[i])
    eps = algebra.eps_char
    r1 = abs(phi(y) - 1.0)
    r0 = abs(psi(y))
    if r1 > eps or r0 > eps:
        raise PropertyViolated(
            f"separating element residuals {r1:.3e}, {r0:.3e} exceed {eps:.3e}",
            phi_residual=r1, psi_residual=r0, tolerance=eps)
    return y


def indicator_element(algebra: Algebra, chars, phi: Character) -> np.ndarray:
    """An element that is 1 at phi and 0 at every other member of chars.

    Distinct characters are linearly independent, so one least-squares
    solve gives an element w that is 0 at phi and 1 at the others, and the
    indicator is e - w.  With one member w is zero and the indicator is
    exactly the unit.  The result is certified before being returned.
    """
    chars = list(chars)
    rows = np.array([psi.values for psi in chars],
                    dtype=np.complex128).reshape(len(chars), algebra.dim)
    thresh = max(separation_threshold(rows), separation_threshold(phi.values))
    close = _first_close_pair(rows, thresh)
    if close is not None:
        a, b, _ = close
        raise NotDistinct(
            f"collection members {a} and {b} coincide within {thresh:.3e}",
            pair=[a, b], threshold=thresh)
    matches = np.flatnonzero(np.max(np.abs(rows - phi.values), axis=1) < thresh)
    if not matches.size:
        raise NotMember("phi does not occur in the collection",
                        threshold=thresh)
    others = np.ones(len(chars))
    others[matches[0]] = 0.0
    z = algebra.unit - np.linalg.lstsq(rows, others, rcond=None)[0]
    # certify at phi itself, which may differ from its match within thresh
    rows[matches[0]] = phi.values
    eps = len(chars) * algebra.eps_char
    worst = float(np.max(np.abs(rows @ z - (1.0 - others))))
    if worst > eps:
        raise PropertyViolated(
            f"indicator residual {worst:.3e} exceeds {eps:.3e}",
            residual=worst, tolerance=eps)
    return z


def interpolate(algebra: Algebra, space: CharacterSpace, targets) -> np.ndarray:
    """An element whose Gelfand transform matches the target values.

    ``targets`` lists one complex value per character, in the order of
    ``space.characters``, or is a (k, count) stack of such lists, and then
    row j of the (k, dim) result interpolates row j of the stack.  The
    characters are linearly independent, so the character matrix has full
    row rank and one least-squares solve gives the minimum-norm solution
    for every target at once.  Raises :class:`PropertyViolated` when
    ``space`` was certified for another algebra.
    """
    _require_own_space(algebra, space)
    f = np.asarray(targets, dtype=np.complex128)
    if f.ndim not in (1, 2) or f.shape[-1] != len(space):
        raise LengthMismatch(
            f"expected {len(space)} target values, got shape {f.shape}",
            expected=len(space), got=list(f.shape))
    w, _, rank, _ = np.linalg.lstsq(space.values, f.T, rcond=None)
    if rank < len(space):
        raise PropertyViolated(
            f"character matrix has numerical rank {rank} < {len(space)}",
            rank=int(rank), count=len(space))
    return w.T

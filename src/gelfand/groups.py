"""Convolution algebras of finite groups.

Arbitrary finite groups enter by Cayley table; the commutative object is
the center of the convolution algebra, spanned by conjugacy-class sums,
with the involution induced by f*(g) = conj(f(g^-1)).  Abelian groups
enter by invariant factors, and their full convolution algebra, with
f*(a) = conj(f(-a)), is the same construction with one element in every
class.  One builder reads both off a Cayley table, an inverse array and a
class label per element, in array operations, and hands back certified
Algebra and Involution values, so characters, radicals and norms come
from the generic machinery.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import Algebra, _worst_entry, validate
from .errors import CountMismatch, InvalidGroup, LengthMismatch, PropertyViolated
from .involution import Involution, involution
from .spectrum import DEFAULT_SEED, CharacterSpace, characters


@dataclass(frozen=True, eq=False)
class FiniteAbelianGroup:
    """Direct product of cyclic groups Z_m1 x ... x Z_mr.

    Elements are exponent tuples, ordered lexicographically; the empty
    factor list gives the trivial group.  The addition table and the
    negation, as element indices, are built on first use and then shared
    by the convolution algebra and :func:`convolve`.
    """

    invariant_factors: tuple[int, ...]

    @property
    def order(self) -> int:
        return int(np.prod(self.invariant_factors, dtype=np.int64)) if \
            self.invariant_factors else 1

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(m) for m in self.invariant_factors)))

    def index(self, a) -> int:
        idx = 0
        for ai, m in zip(a, self.invariant_factors):
            idx = idx * m + (ai % m)
        return idx

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % m
                     for x, y, m in zip(a, b, self.invariant_factors))

    def neg(self, a) -> tuple[int, ...]:
        return tuple((-x) % m for x, m in zip(a, self.invariant_factors))

    @cached_property
    def addition_table(self) -> np.ndarray:
        """Read-only (order, order) table of index(a + b), in index order."""
        table = np.zeros((1, 1), dtype=np.int64)
        for m in self.invariant_factors:
            steps = np.arange(m)
            cyclic = (steps[:, None, None] + steps) % m   # [x, 0, y] = (x + y) mod m
            k = len(table) * m
            table = (table[:, None, :, None] * m + cyclic).reshape(k, k)
        table.setflags(write=False)
        return table

    @cached_property
    def negation(self) -> np.ndarray:
        """Read-only array of index(-a), in index order."""
        neg = np.argmax(self.addition_table == 0, axis=1)
        neg.setflags(write=False)
        return neg

    def element_order(self, a) -> int:
        out = 1
        for x, m in zip(a, self.invariant_factors):
            out = math.lcm(out, m // math.gcd(x, m))
        return out

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup{self.invariant_factors}"


def _integers(values, what: str) -> np.ndarray:
    """values as an int64 array; :class:`InvalidGroup` unless they are whole
    numbers in a rectangular array."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        arr = np.empty(0, dtype=object)
    if arr.dtype.kind in "iuf":
        with np.errstate(invalid="ignore"):
            whole = arr.astype(np.int64)
        if np.array_equal(whole, arr):
            return whole
    raise InvalidGroup(f"{what} must be integers in a rectangular array",
                       law="integer")


def abelian_group(invariant_factors) -> FiniteAbelianGroup:
    values = _integers(invariant_factors, "invariant factors")
    if values.ndim != 1:
        raise InvalidGroup(f"invariant factors must be a list, got shape {values.shape}",
                           law="integer", got=list(values.shape))
    factors = tuple(int(m) for m in values)
    if any(m < 2 for m in factors):
        raise InvalidGroup(f"invariant factors must be >= 2, got {factors}",
                           factors=list(factors))
    return FiniteAbelianGroup(invariant_factors=factors)


def abelian_group_algebra(group: FiniteAbelianGroup) -> tuple[Algebra, Involution]:
    """Convolution algebra on delta functions, with star(d_a) = d_(-a);
    every element is its own class."""
    names = ["d(" + ",".join(map(str, a)) + ")" for a in group.elements()]
    return _class_sum_algebra(group.addition_table, group.negation,
                              np.arange(group.order), 0, names)


def convolve(group: FiniteAbelianGroup, f, g) -> np.ndarray:
    """(f * g)(a) = sum_b f(b) g(a - b), by direct summation.

    Every product f(b) g(c) is added at index(b + c), read off the
    addition table, in one unbuffered ``np.add.at``.
    """
    n = group.order
    f = np.asarray(f, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    for name, arr in (("f", f), ("g", g)):
        if arr.shape != (n,):
            raise LengthMismatch(
                f"{name} must have one value per group element ({n}), "
                f"got shape {arr.shape}",
                expected=n, got=list(arr.shape))
    out = np.zeros(n, dtype=np.complex128)
    np.add.at(out, group.addition_table, np.outer(f, g))
    return out


def abelian_characters(group: FiniteAbelianGroup,
                       seed: int = DEFAULT_SEED) -> CharacterSpace:
    """All characters of the convolution algebra, count-checked.

    The count must equal the group order, every value must have modulus
    one, and the value on d_a must be an ord(a)-th root of unity; these
    are theorems for abelian convolution algebras, so a failure raises
    rather than warns.
    """
    alg, _ = abelian_group_algebra(group)
    space = characters(alg, seed=seed)
    if len(space) != group.order:
        raise CountMismatch(
            f"found {len(space)} characters on a group of order {group.order}",
            found=len(space), expected=group.order)
    # the first failing character in space order is reported, its modulus
    # before its roots of unity
    elems = group.elements()
    orders = np.array([group.element_order(a) for a in elems])
    values = space.values
    off_circle = np.max(np.abs(np.abs(values) - 1.0), axis=1) > 1e-9
    off_root = np.abs(values ** orders - 1.0) > 1e-8
    failing = off_circle | np.any(off_root, axis=1)
    if failing.any():
        k = int(np.argmax(failing))
        if off_circle[k]:
            raise PropertyViolated(
                "character value off the unit circle",
                law="modulus", values=values[k])
        i = int(np.argmax(off_root[k]))
        a, order = elems[i], int(orders[i])
        raise PropertyViolated(
            f"value at element {a} is not an order-{order} root of unity",
            law="root-of-unity", element=list(a), order=order)
    return space


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its full Cayley table of element indices."""

    cayley: np.ndarray
    identity: int
    inverse: np.ndarray

    @property
    def order(self) -> int:
        return self.cayley.shape[0]

    def mul(self, i: int, j: int) -> int:
        return int(self.cayley[i, j])

    def inv(self, i: int) -> int:
        return int(self.inverse[i])

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def finite_group(cayley, identity: int = 0) -> FiniteGroup:
    """Validate a Cayley table: Latin, unital, inverses, associative."""
    table = _integers(cayley, "Cayley table entries")
    if table.ndim != 2 or table.shape[0] != table.shape[1] or table.shape[0] < 1:
        raise InvalidGroup(f"Cayley table must be square, got {table.shape}",
                           got=list(table.shape))
    n = table.shape[0]
    if table.min() < 0 or table.max() >= n:
        raise InvalidGroup("table entries must be element indices",
                           law="range")
    # entries are in range, so a line is a permutation iff it sorts to
    # 0..n-1; failures are reported in the order row 0, column 0, row 1, ...
    steps = np.arange(n)
    bad = np.stack([np.any(np.sort(table, axis=1) != steps, axis=1),
                    np.any(np.sort(table, axis=0) != steps[:, None], axis=0)], axis=1)
    if bad.any():
        i, is_column = divmod(int(np.argmax(bad)), 2)
        if is_column:
            raise InvalidGroup(f"column {i} is not a permutation", law="latin",
                               column=i)
        raise InvalidGroup(f"row {i} is not a permutation", law="latin", row=i)
    e = int(identity)
    if not (0 <= e < n):
        raise InvalidGroup(f"identity index {e} out of range", law="identity")
    if not (np.array_equal(table[e], steps) and np.array_equal(table[:, e], steps)):
        raise InvalidGroup(f"index {e} is not a two-sided identity",
                           law="identity")
    # the right inverse of g is the one column of row g holding e
    inverse = np.argmax(table == e, axis=1)
    one_sided = table[inverse, steps] != e
    if one_sided.any():
        g = int(np.argmax(one_sided))
        raise InvalidGroup(f"element {g} has no two-sided inverse",
                           law="inverse", element=g)
    # associativity, one a at a time: entry [b, c] of slice a compares
    # (ab)c with a(bc)
    broken, triple = _worst_entry(table[table[a]] != table[a][table] for a in range(n))
    if broken > 0:
        raise InvalidGroup(
            f"associativity fails on {triple}",
            law="associative", triple=list(triple))
    table = table.copy()
    table.setflags(write=False)
    inverse.setflags(write=False)
    return FiniteGroup(cayley=table, identity=e, inverse=inverse)


def symmetric_group_3() -> FiniteGroup:
    """S3 as permutations of three points, lexicographic one-line order."""
    perms = list(itertools.permutations(range(3)))
    lookup = {p: i for i, p in enumerate(perms)}
    table = [[lookup[tuple(p[q[x]] for x in range(3))] for q in perms]
             for p in perms]
    return finite_group(table, identity=0)


def dihedral_group_4() -> FiniteGroup:
    """D4, the symmetries of a square: r^a s^b with index a + 4b."""
    def mul(x, y):
        a, b = x % 4, x // 4
        c, d = y % 4, y // 4
        if b == 0:
            return (a + c) % 4 + 4 * d
        return (a - c) % 4 + 4 * ((1 + d) % 2)
    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    return finite_group(table, identity=0)


def quaternion_group() -> FiniteGroup:
    """Q8 = {1, -1, i, -i, j, -j, k, -k} with index 2*axis + sign."""
    prod = {}  # (axis, axis) -> (axis, sign flip)
    for x in range(4):
        prod[(0, x)] = (x, 0)
        prod[(x, 0)] = (x, 0)
    for x in (1, 2, 3):
        prod[(x, x)] = (0, 1)
    for x, y, z in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        prod[(x, y)] = (z, 0)
        prod[(y, x)] = (z, 1)

    def mul(g, h):
        ax, sx = g // 2, g % 2
        ay, sy = h // 2, h % 2
        az, flip = prod[(ax, ay)]
        return 2 * az + (sx ^ sy ^ flip)
    table = [[mul(g, h) for h in range(8)] for g in range(8)]
    return finite_group(table, identity=0)


@dataclass(frozen=True, eq=False)
class ConjugacyClassPartition:
    """Disjoint conjugation orbits, ordered by smallest member."""

    group: FiniteGroup
    classes: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def __len__(self) -> int:
        return len(self.classes)


def _conjugacy_labels(group: FiniteGroup) -> np.ndarray:
    """Class index of every element, classes numbered by smallest member;
    column g of the table of conjugates h g h^-1 is the orbit of g."""
    conjugates = group.cayley[group.cayley, group.inverse[:, None]]
    return np.unique(conjugates.min(axis=0), return_inverse=True)[1]


def conjugacy_classes(group: FiniteGroup) -> ConjugacyClassPartition:
    """Orbits of g -> h g h^-1, read off the table of all conjugates."""
    labels = _conjugacy_labels(group)
    classes = tuple(tuple(np.flatnonzero(labels == k).tolist())
                    for k in range(int(labels.max()) + 1))
    return ConjugacyClassPartition(group=group, classes=classes)


def center_algebra(group: FiniteGroup) -> tuple[Algebra, Involution]:
    """The center of the convolution algebra, on the class-sum basis."""
    labels = _conjugacy_labels(group)
    first = np.unique(labels, return_index=True)[1]
    names = [f"z{g}" for g in first.tolist()]
    return _class_sum_algebra(group.cayley, group.inverse, labels,
                              group.identity, names)


def _class_sum_algebra(cayley: np.ndarray, inverse: np.ndarray,
                       labels: np.ndarray, identity: int,
                       names) -> tuple[Algebra, Involution]:
    """The algebra of class sums of a group, with star(z_C) = z_(C^-1).

    ``labels[g]`` numbers the class of element g, classes ordered by their
    smallest member.  counts[i, j, g] is the number of factorizations
    g = ab with a in class i and b in class j, one ``bincount`` over the
    table.  The class sums span a subalgebra only if every count is
    constant on classes; that is checked exactly, in integer arithmetic,
    and c[i, j, k] is the count at the first element of class k.
    """
    n = len(labels)
    m = int(labels.max()) + 1
    first = np.unique(labels, return_index=True)[1]
    flat = (labels[:, None] * m + labels[None, :]) * n + cayley
    counts = np.bincount(flat.reshape(-1), minlength=m * m * n).reshape(m, m, n)
    uneven = counts != counts[:, :, first[labels]]
    if uneven.any():
        i, j = divmod(int(np.argmax(uneven.any(axis=2))), m)
        k = int(labels[uneven[i, j]].min())
        raise PropertyViolated(
            f"class product ({i}, {j}) is not a class function",
            pair=[i, j], witness_class=k)
    unit = np.zeros(m, dtype=np.complex128)
    unit[labels[identity]] = 1.0
    alg = validate(counts[:, :, first], unit, names)
    s = np.zeros((m, m))
    s[labels[inverse[first]], np.arange(m)] = 1.0
    return alg, involution(alg, s)

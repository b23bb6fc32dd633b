"""Convolution algebras of finite groups.

Abelian groups enter by invariant factors and give the full convolution
algebra with the involution f*(a) = conj(f(-a)).  Arbitrary finite
groups enter by Cayley table; there the commutative object is the center
of the convolution algebra, spanned by conjugacy-class sums, with the
involution induced by f*(g) = conj(f(g^-1)).  Both constructions hand
back certified Algebra and Involution values, so characters, radicals
and norms come from the generic machinery.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, _worst_entry, validate
from .errors import CountMismatch, InvalidGroup, LengthMismatch, PropertyViolated
from .involution import Involution, involution
from .spectrum import DEFAULT_SEED, CharacterSpace, characters


@dataclass(frozen=True, eq=False)
class FiniteAbelianGroup:
    """Direct product of cyclic groups Z_m1 x ... x Z_mr.

    Elements are exponent tuples, ordered lexicographically; the empty
    factor list gives the trivial group.
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

    def element_order(self, a) -> int:
        out = 1
        for x, m in zip(a, self.invariant_factors):
            out = math.lcm(out, m // math.gcd(x, m))
        return out

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup{self.invariant_factors}"


def abelian_group(invariant_factors) -> FiniteAbelianGroup:
    factors = tuple(int(m) for m in invariant_factors)
    if any(m < 2 for m in factors):
        raise InvalidGroup(f"invariant factors must be >= 2, got {factors}",
                           factors=list(factors))
    return FiniteAbelianGroup(invariant_factors=factors)


def abelian_group_algebra(group: FiniteAbelianGroup) -> tuple[Algebra, Involution]:
    """Convolution algebra on delta functions, with star(d_a) = d_(-a)."""
    elems = group.elements()
    n = group.order
    c = np.zeros((n, n, n), dtype=np.complex128)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            c[i, j, group.index(group.add(a, b))] = 1.0
    unit = np.zeros(n, dtype=np.complex128)
    unit[group.index(tuple(0 for _ in group.invariant_factors))] = 1.0
    names = ["d(" + ",".join(map(str, a)) + ")" for a in elems]
    alg = validate(c, unit, names)
    s = np.zeros((n, n))
    for i, a in enumerate(elems):
        s[group.index(group.neg(a)), i] = 1.0
    return alg, involution(alg, s)


def convolve(group: FiniteAbelianGroup, f, g) -> np.ndarray:
    """(f * g)(a) = sum_b f(b) g(a - b), by direct summation."""
    n = group.order
    f = np.asarray(f, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    for name, arr in (("f", f), ("g", g)):
        if arr.shape != (n,):
            raise LengthMismatch(
                f"{name} must have one value per group element ({n}), "
                f"got shape {arr.shape}",
                expected=n, got=list(arr.shape))
    elems = group.elements()
    out = np.zeros(n, dtype=np.complex128)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            out[group.index(group.add(a, b))] += f[i] * g[j]
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
    elems = group.elements()
    for phi in space:
        mods = np.abs(phi.values)
        if float(np.max(np.abs(mods - 1.0))) > 1e-9:
            raise PropertyViolated(
                "character value off the unit circle",
                law="modulus", values=phi.values)
        for i, a in enumerate(elems):
            k = group.element_order(a)
            if abs(phi.values[i] ** k - 1.0) > 1e-8:
                raise PropertyViolated(
                    f"value at element {a} is not an order-{k} root of unity",
                    law="root-of-unity", element=list(a), order=k)
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
    table = np.asarray(cayley, dtype=np.int64)
    if table.ndim != 2 or table.shape[0] != table.shape[1] or table.shape[0] < 1:
        raise InvalidGroup(f"Cayley table must be square, got {table.shape}",
                           got=list(table.shape))
    n = table.shape[0]
    if table.min() < 0 or table.max() >= n:
        raise InvalidGroup("table entries must be element indices",
                           law="range")
    full = frozenset(range(n))
    for i in range(n):
        if frozenset(table[i].tolist()) != full:
            raise InvalidGroup(f"row {i} is not a permutation", law="latin", row=i)
        if frozenset(table[:, i].tolist()) != full:
            raise InvalidGroup(f"column {i} is not a permutation", law="latin",
                               column=i)
    e = int(identity)
    if not (0 <= e < n):
        raise InvalidGroup(f"identity index {e} out of range", law="identity")
    if not (np.array_equal(table[e], np.arange(n))
            and np.array_equal(table[:, e], np.arange(n))):
        raise InvalidGroup(f"index {e} is not a two-sided identity",
                           law="identity")
    inverse = np.full(n, -1, dtype=np.int64)
    for g in range(n):
        h = int(np.flatnonzero(table[g] == e)[0])
        if table[h, g] != e:
            raise InvalidGroup(f"element {g} has no two-sided inverse",
                               law="inverse", element=g)
        inverse[g] = h
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

    def class_of(self, g: int) -> int:
        for k, cls in enumerate(self.classes):
            if g in cls:
                return k
        raise InvalidGroup(f"element {g} not covered by the partition")

    def __len__(self) -> int:
        return len(self.classes)


def conjugacy_classes(group: FiniteGroup) -> ConjugacyClassPartition:
    """Orbits of g -> h g h^-1, by full enumeration."""
    n = group.order
    seen = [False] * n
    classes = []
    for g in range(n):
        if seen[g]:
            continue
        orbit = set()
        for h in range(n):
            orbit.add(group.mul(group.mul(h, g), group.inv(h)))
        for x in orbit:
            seen[x] = True
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda cls: cls[0])
    return ConjugacyClassPartition(group=group, classes=tuple(classes))


def center_algebra(group: FiniteGroup) -> tuple[Algebra, Involution]:
    """The center of the convolution algebra, on the class-sum basis.

    Structure constants count factorizations ab = g with a, b running
    over two classes; the counts are integers and constant on classes,
    both checked exactly since everything stays in integer arithmetic.
    """
    part = conjugacy_classes(group)
    m = len(part)
    n = group.order
    c = np.zeros((m, m, m), dtype=np.complex128)
    for i, ci in enumerate(part.classes):
        for j, cj in enumerate(part.classes):
            counts = np.zeros(n, dtype=np.int64)
            for a in ci:
                for b in cj:
                    counts[group.mul(a, b)] += 1
            for k, ck in enumerate(part.classes):
                vals = {int(counts[g]) for g in ck}
                if len(vals) != 1:
                    raise PropertyViolated(
                        f"class product ({i}, {j}) is not a class function",
                        pair=[i, j], witness_class=k)
                c[i, j, k] = vals.pop()
    unit_class = part.class_of(group.identity)
    unit = np.zeros(m, dtype=np.complex128)
    unit[unit_class] = 1.0
    names = [f"z{cls[0]}" for cls in part.classes]
    alg = validate(c, unit, names)
    s = np.zeros((m, m))
    for i, cls in enumerate(part.classes):
        inv_class = part.class_of(group.inv(cls[0]))
        s[inv_class, i] = 1.0
    return alg, involution(alg, s)

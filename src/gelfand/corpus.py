"""Built-in example algebras and seeded random fixtures.

The standard corpus collects every construction the package supports,
each with its canonical involution and hand-verifiable character and
radical counts.  The random generators produce certified algebras with
counts known by construction: a direct sum of truncated polynomial
blocks has one character per block and radical codimension equal to the
block count, and a unitary change of basis hides the block structure
without touching either number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, polynomial_quotient, validate
from .groups import (
    abelian_group,
    abelian_group_algebra,
    center_algebra,
    dihedral_group_4,
    quaternion_group,
    symmetric_group_3,
)
from .involution import Involution, coordinate_conjugation
from .operators import InnerProductSpace, inner_product_space
from .spectrum import seeded_rng


@dataclass(frozen=True, eq=False)
class CorpusItem:
    """A named algebra with its involution and known invariants."""

    name: str
    algebra: Algebra
    star: Involution | None
    expected_characters: int
    expected_radical_dim: int

    def __repr__(self) -> str:
        return f"CorpusItem({self.name!r}, dim={self.algebra.dim})"


def _group_item(name, factors):
    alg, star = abelian_group_algebra(abelian_group(factors))
    return CorpusItem(name=name, algebra=alg, star=star,
                      expected_characters=alg.dim, expected_radical_dim=0)


def _center_item(name, group, classes):
    alg, star = center_algebra(group)
    return CorpusItem(name=name, algebra=alg, star=star,
                      expected_characters=classes, expected_radical_dim=0)


def _quotient_item(name, lower_coeffs, chars, rad):
    alg = polynomial_quotient(lower_coeffs)
    return CorpusItem(name=name, algebra=alg, star=coordinate_conjugation(alg),
                      expected_characters=chars, expected_radical_dim=rad)


def standard_corpus() -> list[CorpusItem]:
    """Every built-in algebra, from dual numbers to the Q8 center."""
    items = [
        _quotient_item("dual-numbers", [0.0, 0.0], 1, 1),
        _quotient_item("parity", [-1.0, 0.0], 2, 0),
        _quotient_item("gaussian", [1.0, 0.0], 2, 0),
        _quotient_item("jet-3", [0.0, 0.0, 0.0], 1, 2),
        _group_item("Z2", [2]),
        _group_item("Z3", [3]),
        _group_item("Z4", [4]),
        _group_item("Z6", [6]),
        _group_item("Z8", [8]),
        _group_item("Z2xZ2", [2, 2]),
        _group_item("Z2xZ3", [2, 3]),
        _center_item("S3-center", symmetric_group_3(), 3),
        _center_item("D4-center", dihedral_group_4(), 5),
        _center_item("Q8-center", quaternion_group(), 5),
    ]
    return items


def random_algebra(seed: int, max_dim: int = 6) -> CorpusItem:
    """A certified random algebra with known character and radical counts.

    Builds a direct sum of truncated polynomial rings with seeded block
    sizes, then conjugates by a seeded unitary.  Characters are the
    block-projection functionals; the unitary keeps them orthonormal, so
    separation is never an issue.
    """
    rng = seeded_rng(seed, 4)
    dim = int(rng.integers(2, max_dim + 1))
    blocks = int(rng.integers(1, dim + 1))
    cuts = np.sort(rng.choice(np.arange(1, dim), size=blocks - 1, replace=False))
    sizes = np.diff(np.concatenate([[0], cuts, [dim]])).astype(int)

    c = np.zeros((dim, dim, dim), dtype=np.complex128)
    unit = np.zeros(dim, dtype=np.complex128)
    offset = 0
    for size in sizes:
        for i in range(size):
            for j in range(size - i):
                c[offset + i, offset + j, offset + i + j] = 1.0
        unit[offset] = 1.0
        offset += size

    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    mixed = np.zeros_like(c)
    for a in range(dim):
        for b in range(a, dim):
            prod = np.einsum("i,j,ijk->k", q[:, a], q[:, b], c)
            coeffs = q.conj().T @ prod
            mixed[a, b] = coeffs
            mixed[b, a] = coeffs
    alg = validate(mixed, q.conj().T @ unit)
    return CorpusItem(name=f"random-{seed}", algebra=alg, star=None,
                      expected_characters=int(blocks),
                      expected_radical_dim=dim - int(blocks))


@dataclass(frozen=True, eq=False)
class OperatorFixture:
    """A seeded inner-product space with one normal generator."""

    space: InnerProductSpace
    generator: np.ndarray
    eigenvalues: np.ndarray


def random_operator_fixture(seed: int, max_dim: int = 6) -> OperatorFixture:
    """A normal generator with well-separated eigenvalues over a random Gram.

    The Gram matrix has eigenvalues in [0.1, 10] (condition number at most
    100) and the generator is normal for it by construction: it is
    diagonalized by a G-orthonormal frame, so it commutes with its
    G-adjoint exactly in exact arithmetic.
    """
    rng = seeded_rng(seed, 5)
    d = int(rng.integers(2, max_dim + 1))
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    qg, _ = np.linalg.qr(z)
    lam = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=d))
    gram = (qg * lam) @ qg.conj().T
    space = inner_product_space(gram)

    while True:
        eigs = rng.normal(size=d) + 1j * rng.normal(size=d)
        gaps = [abs(eigs[i] - eigs[j])
                for i in range(d) for j in range(i + 1, d)]
        if not gaps or min(gaps) >= 0.1:
            break
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    u, _ = np.linalg.qr(z)
    w = space._whitening[0]
    t = np.linalg.solve(w, (u * eigs) @ u.conj().T) @ w
    eigs = np.asarray(eigs)
    eigs.setflags(write=False)
    t.setflags(write=False)
    return OperatorFixture(space=space, generator=t, eigenvalues=eigs)

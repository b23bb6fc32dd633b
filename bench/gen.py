"""Seeded inputs for the benchmark workloads.

Only numpy and the standard library live here.  The library under test
never sees the seed: it receives the tensors, tables and documents built
from it.  Every item carries the answers it must produce, known by
construction (a DFT table, the rows of a hidden unitary, the roots of a
polynomial, planted eigenvalues), so ``oracle.py`` can check the library
without asking it anything.

The seed picks the random parts of each item (basis relabelings, Gram
matrices, eigenvalues, targets, sample elements), never its size or block
structure, so the work in one pass is about the same for every seed and
only the inputs change.  The radical-mix jets and the ladder's operator
closures keep one hidden basis and one closure for every seed (see
``radical_items`` and ``OPERATORS``); the seed draws their targets and
sample elements.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LADDER = "semisimple-ladder"
RADICAL = "radical-mix"
CLI = "cli-batch"

#: the item whose time-to-answer is reported as top_item_s
TOP_ITEM = {LADDER: "Z48", RADICAL: "jet-32", CLI: "verify-all"}


@dataclass(frozen=True, eq=False)
class Item:
    """One unit of work: library inputs plus the answers known for them."""

    name: str
    kind: str
    data: dict
    expect: dict = field(default_factory=dict)
    hard: bool = False


def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *salt]))


def _cnormal(rng: np.random.Generator, *shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(_cnormal(rng, d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# -- abelian group algebras ------------------------------------------------


def abelian_tables(factors, perm=None):
    """Structure tensor, unit, star action and DFT character table.

    Group elements are exponent tuples in lexicographic order; ``perm``
    relabels them, so basis vector i stands for element ``perm[i]``.
    Row j of the character table holds chi_j(a) = exp(2 pi i sum j_r a_r / m_r).
    """
    factors = tuple(int(m) for m in factors)
    n = math.prod(factors)
    elems = np.array(list(itertools.product(*(range(m) for m in factors))))
    perm = np.arange(n) if perm is None else np.asarray(perm)
    pos = np.argsort(perm)                  # element index -> basis index
    mods = np.array(factors)
    el = elems[perm]                        # element of each basis vector
    sums = (el[:, None, :] + el[None, :, :]) % mods
    k = pos[np.ravel_multi_index(tuple(np.moveaxis(sums, -1, 0)), factors)]
    c = np.zeros((n, n, n), dtype=np.complex128)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    c[ii, jj, k] = 1.0
    unit = np.zeros(n, dtype=np.complex128)
    unit[pos[0]] = 1.0
    neg = pos[np.ravel_multi_index(tuple(((-el) % mods).T), factors)]
    star = np.zeros((n, n))
    star[neg, np.arange(n)] = 1.0
    phase = (elems[:, None, :] * el[None, :, :] / mods).sum(axis=-1)
    chars = np.exp(2j * np.pi * phase)
    return c, unit, star, chars


def abelian_item(name: str, factors, rng) -> Item:
    n = math.prod(factors)
    c, unit, star, chars = abelian_tables(factors, rng.permutation(n))
    return Item(name, "abelian",
                {"c": c, "unit": unit, "star": star, "targets": _cnormal(rng, n)},
                {"chars": chars, "radical_dim": 0})


# -- group centers -----------------------------------------------------------

#: conjugacy classes of S_k: the number of partitions of k
CLASS_COUNT = {3: 3, 4: 5, 5: 7}


def symmetric_cayley(k: int, rng) -> tuple[list[list[int]], int]:
    """Cayley table of S_k under a seeded relabeling, and the identity's label."""
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    label = rng.permutation(len(perms))
    table = [[0] * len(perms) for _ in perms]
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[label[i]][label[j]] = int(label[index[tuple(p[x] for x in q)]])
    return table, int(label[index[tuple(range(k))]])


def center_item(name: str, k: int, rng) -> Item:
    table, identity = symmetric_cayley(k, rng)
    m = CLASS_COUNT[k]
    return Item(name, "center",
                {"cayley": table, "identity": identity, "targets": _cnormal(rng, m)},
                {"count": m, "radical_dim": 0})


# -- operator closures -------------------------------------------------------


def _spread_values(rng, count: int, gap: float) -> np.ndarray:
    while True:
        z = 1.5 * _cnormal(rng, count)
        diffs = np.abs(z[:, None] - z[None, :]) + np.eye(count) * gap
        if diffs.min() >= gap:
            return z


def operator_item(name: str, d: int, gens: int, rng, basis_rng) -> Item:
    """Commuting normal generators over a Gram matrix, both from ``basis_rng``.

    With one generator its d eigenvalues are distinct.  With two, the
    first has d/2 eigenvalues used twice and the second splits each pair,
    so only both together generate the d-dimensional closure.  Either way
    the characters of the closure are the d joint eigenvalue tuples.
    ``rng`` draws the interpolation targets.
    """
    lam = np.exp(basis_rng.uniform(np.log(0.2), np.log(5.0), d))
    qg = _unitary(basis_rng, d)
    gram = (qg * lam) @ qg.conj().T
    gram = 0.5 * (gram + gram.conj().T)
    evals, vecs = np.linalg.eigh(gram)
    root = (vecs * np.sqrt(evals)) @ vecs.conj().T
    u = _unitary(basis_rng, d)
    if gens == 1:
        eig = _spread_values(basis_rng, d, 0.2)[:, None]
    else:
        a = np.repeat(_spread_values(basis_rng, d // 2, 0.2), 2)
        b = _spread_values(basis_rng, d // 2, 0.2)
        eig = np.column_stack([a, np.ravel(np.column_stack([b, -b]))])
    mats = [np.linalg.solve(root, (u * eig[:, g]) @ u.conj().T) @ root
            for g in range(gens)]
    frame = np.linalg.solve(root, u)       # columns: joint eigenvectors
    return Item(name, "operator",
                {"gram": gram, "generators": mats, "targets": _cnormal(rng, d)},
                {"frame": frame, "radical_dim": 0})


# -- radical-mix algebras ------------------------------------------------------


def jet_sum(blocks, rng):
    """Direct sum of C[t]/(t^k) blocks hidden under a seeded unitary.

    Returns the mixed tensor, its unit, the unitary Q and the offsets of
    the block units.  New basis vector a is column a of Q in block
    coordinates, so character b has values Q[offset_b, :].
    """
    dim = sum(blocks)
    c = np.zeros((dim, dim, dim), dtype=np.complex128)
    unit = np.zeros(dim, dtype=np.complex128)
    offsets = np.cumsum([0, *blocks[:-1]])
    for off, k in zip(offsets, blocks):
        for i in range(k):
            for j in range(k - i):
                c[off + i, off + j, off + i + j] = 1.0
        unit[off] = 1.0
    q = _unitary(rng, dim)
    mixed = np.einsum("ia,jb,ijk,kc->abc", q, q, c, q.conj(), optimize=True)
    mixed = 0.5 * (mixed + mixed.transpose(1, 0, 2))
    return mixed, q.conj().T @ unit, q, offsets


def _phases(rng, count: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.uniform(size=count))


#: is_nilpotent samples of each kind per radical-mix item
SAMPLES = 2


def _samples(rng, semisimple, nilpotent):
    """Elements for is_nilpotent with a known answer.

    ``nilpotent()`` draws a radical element; ``semisimple()`` draws an
    element whose character values are random unit-modulus phases.  Half
    the samples are radical elements, half add a radical element to one
    whose character values all have modulus one, so no sample sits near
    the nilpotent boundary.
    """
    elems = [nilpotent() for _ in range(SAMPLES)]
    elems += [semisimple() + nilpotent() for _ in range(SAMPLES)]
    return np.array(elems), [True] * SAMPLES + [False] * SAMPLES


def jet_item(name: str, blocks, rng, basis_rng) -> Item:
    c, unit, q, offsets = jet_sum(blocks, basis_rng)
    dim = sum(blocks)

    def nilpotent():
        x = 0.5 * _cnormal(rng, dim)
        x[offsets] = 0.0                   # no block-unit part
        return q.conj().T @ x

    def semisimple():
        x = np.zeros(dim, dtype=np.complex128)
        x[offsets] = _phases(rng, len(blocks))
        return q.conj().T @ x

    elements, truth = _samples(rng, semisimple, nilpotent)
    return Item(name, "jet",
                {"c": c, "unit": unit, "targets": _cnormal(rng, dim), "elements": elements},
                {"chars": q[offsets], "radical_dim": dim - len(blocks), "nilpotent": truth})


def quotient_item(name: str, roots, rng, hard: bool = False) -> Item:
    """C[t]/(p) for p = prod (t - r) over ``roots``, repeats allowed.

    Its characters are evaluation at the distinct roots, with values
    (1, r, ..., r^(n-1)) on the monomial basis, and the radical is
    spanned by multiples of prod (t - r) over the distinct roots.
    """
    roots = np.asarray(roots, dtype=np.complex128)
    n = len(roots)
    distinct = np.array(list(dict.fromkeys(roots.tolist())))
    m = len(distinct)
    lower = np.poly(roots)[1:][::-1]
    chars = distinct[:, None] ** np.arange(n)[None, :]
    core = np.poly(distinct)[::-1]         # ascending coefficients, degree m

    def nilpotent():                       # zero when the radical is
        z = np.zeros(n, dtype=np.complex128)
        if m < n:
            shift = int(rng.integers(0, n - m))
            z[shift:shift + m + 1] = 0.5 * core * _cnormal(rng, 1)[0]
        return z

    def semisimple():
        # the polynomial of degree < m through unit-modulus values at the roots
        z = np.zeros(n, dtype=np.complex128)
        z[:m] = np.linalg.solve(chars[:, :m], _phases(rng, m))
        return z

    elements, truth = _samples(rng, semisimple, nilpotent)
    return Item(name, "quotient",
                {"lower": lower, "targets": _cnormal(rng, n), "elements": elements},
                {"chars": chars, "radical_dim": n - m, "nilpotent": truth}, hard=hard)


JETS = [("jet-16a", (6, 5, 4, 1)), ("jet-16b", (3, 3, 2, 2, 2, 2, 1, 1)),
        ("jet-24", (5, 5, 5, 5, 4)), ("jet-32", (6, 6, 6, 6, 4, 4))]

QUOTIENTS = [("quot-(t-1)^6", [1.0] * 6),
             ("quot-i^4(t+2)^2(t-0.5)", [1j] * 4 + [-2.0] * 2 + [0.5]),
             ("quot-t^3(t-1)(t+1)", [0.0] * 3 + [1.0, -1.0]),
             ("quot-(t^2+1)^2", [1j, 1j, -1j, -1j])]

#: wrong or failing at the time the benchmark was written
HARD_SHARE = [("hard-(t-1)^7", [1.0] * 7),
              ("hard-(t-1)^8", [1.0] * 8),
              ("hard-roots-1,1+1e-4,2", [1.0, 1.0 + 1e-4, 2.0]),
              ("hard-roots-2x5,-1x2,3", [2.0] * 5 + [-1.0] * 2 + [3.0])]


#: semisimple-ladder closures as (name, d, generators, salt of the fixed
#: closure).  Like the jets, each closure is the same for every seed, which
#: draws only its targets: whether a closure meets involution_suite's
#: absolute 1e-12 star roundtrip depends on its Gram matrix and generator
#: (about one random draw in six misses it, see oracle.KNOWN_DEFECTS), and a
#: defect that came and went with the seed would make the failure count of a
#: run depend on the seed.  Salt 29 is a d=16 closure on which the defect
#: shows, with roundtrip residual 7.9e-12, so it shows in every run.
OPERATORS = [("op-d16-1gen", 16, 1, 29), ("op-d24-2gen", 24, 2, 0)]


# -- workloads ---------------------------------------------------------------


def ladder_items(seed: int) -> list[Item]:
    rng = _rng(seed, 1)
    items = [abelian_item(f"Z{n}", (n,), rng) for n in (16, 24, 32, 48)]
    items.append(abelian_item("Z4xZ8", (4, 8), rng))
    items.append(center_item("S4-center", 4, rng))
    items.append(center_item("S5-center", 5, rng))
    items += [operator_item(name, d, gens, rng, _rng(salt, 6))
              for name, d, gens, salt in OPERATORS]
    return items


def radical_items(seed: int) -> list[Item]:
    rng = _rng(seed, 2)
    # each jet keeps its hidden basis for every seed: the character search
    # takes longer in some bases than others, and a pass should cost the
    # same whatever the seed; the seed draws the targets and sample elements
    items = [jet_item(name, blocks, rng, _rng(k, 5)) for k, (name, blocks) in enumerate(JETS)]
    items += [quotient_item(name, roots, rng) for name, roots in QUOTIENTS]
    items += [quotient_item(name, roots, rng, hard=True) for name, roots in HARD_SHARE]
    return items


def _pairs(a) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(a, dtype=np.complex128).ravel()]


def algebra_doc(c, unit, star=None) -> dict:
    n = len(unit)
    doc = {"dim": n, "unit": _pairs(unit),
           "structure_constants": [[_pairs(c[i, j]) for j in range(n)] for i in range(n)]}
    if star is not None:
        doc["involution"] = {"action": [_pairs(row) for row in star]}
    return doc


def dim2_doc(a: float) -> dict:
    """C[t]/(t^2 - a) on the basis {1, t}."""
    c = np.zeros((2, 2, 2), dtype=np.complex128)
    c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
    c[1, 1, 0] = a
    return algebra_doc(c, np.array([1.0, 0.0]))


def cli_items(seed: int) -> list[Item]:
    """One item per command; ``doc`` is written to disk by ``write_docs``."""
    rng = _rng(seed, 3)
    items = []

    def add(name, command, doc, expect):
        items.append(Item(name, "cli", {"command": command, "doc": doc}, expect))

    a = float(rng.uniform(0.5, 2.0))
    add("validate-dim2", "validate", dim2_doc(a), {"dim": 2})
    c, unit, _, chars = abelian_tables((16,), rng.permutation(16))
    add("characters-Z16", "characters", algebra_doc(c, unit),
        {"chars": chars, "radical_dim": 0})
    jc, ju, _, _ = jet_sum((3, 2, 1), rng)
    add("radical-jet", "radical", algebra_doc(jc, ju),
        {"count": 3, "radical_dim": 3})
    c, unit, _, chars = abelian_tables((8,), rng.permutation(8))
    x = _cnormal(rng, 8)
    add("transform-Z8", "transform", {**algebra_doc(c, unit), "element": _pairs(x)},
        {"values": chars @ x})
    c, unit, _, chars = abelian_tables((6,), rng.permutation(6))
    goal = _cnormal(rng, 6)
    add("interpolate-Z6", "interpolate", {**algebra_doc(c, unit), "targets": _pairs(goal)},
        {"chars": chars, "targets": goal})
    c, unit, _, _ = abelian_tables((12,), rng.permutation(12))
    add("norms-Z12", "norms", {**algebra_doc(c, unit), "weights": [1.0] * 12},
        {"kinds": 3})
    c, unit, star, _ = abelian_tables((10,), rng.permutation(10))
    add("involution-Z10", "involution-check", algebra_doc(c, unit, star), {})
    op = operator_item("op", 16, 1, rng, rng)
    add("operator-d16", "operator",
        {"dim": 16, "gram": [_pairs(r) for r in op.data["gram"]],
         "generators": [[_pairs(r) for r in g] for g in op.data["generators"]]},
        {"closure_dim": 16})
    _, _, _, chars = abelian_tables((4, 4))
    add("group-Z4xZ4", "group", {"abelian": [4, 4]}, {"chars": chars, "radical_dim": 0})
    table, identity = symmetric_cayley(4, rng)
    add("group-S4", "group", {"cayley": table, "identity": identity},
        {"count": CLASS_COUNT[4], "radical_dim": 0})
    add("verify-all", "verify-all", None, {})
    return items


def make_items(workload: str, seed: int) -> list[Item]:
    return {LADDER: ladder_items, RADICAL: radical_items, CLI: cli_items}[workload](seed)


def write_docs(items: list[Item], folder: Path) -> dict[str, list[str]]:
    """Write each command's document; return the argv of every item."""
    folder.mkdir(parents=True, exist_ok=True)
    argvs = {}
    for item in items:
        argv = [item.data["command"]]
        if item.data["doc"] is not None:
            path = folder / f"{item.name}.json"
            path.write_text(json.dumps(item.data["doc"]))
            argv += ["--input", str(path)]
        argvs[item.name] = argv
    return argvs

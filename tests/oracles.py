"""Independent slow-path oracles used only by the test suite.

Each oracle recomputes a quantity the library produces, by a different
route: characters by multivariate Newton from a dense grid of starts,
the radical via the trace form of the regular representation, indicators
as products of separating elements, abelian characters via direct
exponential sums, conjugacy classes via union-find over all conjugation
pairs.  Keep these free of library internals beyond
the public structure-constant data.
"""

from __future__ import annotations

import numpy as np


def naive_multiply(c, x, y):
    """Triple-loop structure-constant product."""
    n = len(x)
    out = np.zeros(n, dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[k] += x[i] * y[j] * c[i, j, k]
    return out


def naive_power(c, unit, x, m):
    """Repeated naive multiplication, no matrix powers involved."""
    out = np.array(unit, dtype=np.complex128)
    for _ in range(m):
        out = naive_multiply(c, out, x)
    return out


def product_indicator(c, unit, rows, match):
    """The paper's indicator: a product of two-point separating elements.

    ``rows`` holds the value vectors of distinct characters on the basis.
    For every member psi but ``rows[match]`` = phi, the separating element
    (b_i - psi_i e) / (phi_i - psi_i) at the basis index i of the largest
    gap is 1 at phi and 0 at psi; their product, by ``naive_multiply``,
    is 1 at phi and 0 at every other member.
    """
    rows = np.asarray(rows, dtype=np.complex128)
    unit = np.asarray(unit, dtype=np.complex128)
    phi = rows[match]
    out = unit.copy()
    for a, psi in enumerate(rows):
        if a == match:
            continue
        i = int(np.argmax(np.abs(phi - psi)))
        y = (np.eye(len(unit))[i] - psi[i] * unit) / (phi[i] - psi[i])
        out = naive_multiply(c, out, y)
    return out


def newton_characters(c, unit, *, grid=(-1.5, -0.5, 0.5, 1.5), extra_starts=64,
                      seed=20240817, iters=60, residual_tol=1e-9, dedup_tol=1e-6):
    """All solutions of the character system, found by Gauss-Newton.

    Solves {sum_k c[i,j,k] v_k = v_i v_j for i <= j, u·v = 1} from a dense
    grid of complex starts plus a few random ones, batch-iterating with the
    pseudo-inverse of the complex Jacobian.  Returns the deduplicated
    solutions sorted lexicographically by interleaved (Re, Im).
    """
    c = np.asarray(c, dtype=np.complex128)
    u = np.asarray(unit, dtype=np.complex128)
    n = u.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]

    axis = np.array([complex(re, im) for re in grid for im in grid])
    if n == 1:
        starts = axis[:, None]
    else:
        mesh = np.meshgrid(*([axis] * n), indexing="ij")
        starts = np.stack([m.ravel() for m in mesh], axis=-1)
    rng = np.random.default_rng(seed)
    rand = (rng.standard_normal((extra_starts, n))
            + 1j * rng.standard_normal((extra_starts, n)))
    v = np.concatenate([starts, rand], axis=0)

    def residuals(vb):
        prods = np.einsum("ijk,bk->bij", c, vb)
        outer = vb[:, :, None] * vb[:, None, :]
        rows = [prods[:, i, j] - outer[:, i, j] for i, j in pairs]
        rows.append(vb @ u - 1.0)
        return np.stack(rows, axis=1)

    for _ in range(iters):
        f = residuals(v)
        jac = np.empty((v.shape[0], len(pairs) + 1, n), dtype=np.complex128)
        for r, (i, j) in enumerate(pairs):
            jac[:, r, :] = c[i, j, :]
            jac[:, r, i] -= v[:, j]
            jac[:, r, j] -= v[:, i]
        jac[:, -1, :] = u
        step = np.einsum("bnm,bm->bn", np.linalg.pinv(jac), f)
        v = v - step
        bad = ~np.all(np.isfinite(v.view(np.float64)), axis=1)
        v[bad] = 0.0

    f = residuals(v)
    ok = np.max(np.abs(f), axis=1) <= residual_tol
    sols = []
    for cand in v[ok]:
        if not any(np.max(np.abs(cand - s)) <= dedup_tol for s in sols):
            sols.append(cand)
    sols.sort(key=lambda s: tuple(np.column_stack([s.real, s.imag]).ravel()))
    return np.array(sols).reshape(len(sols), n)


def match_rows(a, b, tol):
    """Greedy one-to-one matching of rows up to reordering; max row gap."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return np.inf
    taken = set()
    worst = 0.0
    for row in a:
        gaps = np.max(np.abs(b - row), axis=1)
        order = np.argsort(gaps)
        pick = next((int(i) for i in order if int(i) not in taken), None)
        if pick is None:
            return np.inf
        taken.add(pick)
        worst = max(worst, float(gaps[pick]))
    return worst


def trace_form_radical(c):
    """Radical dimension and basis via the trace form of the regular rep.

    Dickson's criterion over a characteristic-0 field: x is in the radical
    iff tr(L_x L_y) = 0 for all y, so the radical is the null space of the
    Gram matrix T[i, j] = tr(L_i L_j) of the basis regular matrices.
    The code path (explicit matrix products and traces) is independent,
    but the library's characters rest on the same criterion, so the
    independent check of the radical is ``naive_power`` on its columns.
    """
    c = np.asarray(c, dtype=np.complex128)
    n = c.shape[0]
    mats = [np.tensordot(np.eye(n)[i].astype(complex), c, axes=(0, 0)).T
            for i in range(n)]
    gram = np.array([[np.trace(mats[i] @ mats[j]) for j in range(n)]
                     for i in range(n)])
    _, sing, vh = np.linalg.svd(gram)
    top = sing[0] if n and sing[0] > 0 else 1.0
    rank = int(np.sum(sing > 1e-9 * top * n))
    return n - rank, vh[rank:].conj().T


def dft_exponential_sums(n):
    """n-point DFT matrix from direct exponential sums, rows = characters."""
    out = np.empty((n, n), dtype=np.complex128)
    for j in range(n):
        for k in range(n):
            out[j, k] = np.exp(2j * np.pi * j * k / n)
    return out


def abelian_character_table(factors):
    """Character table of Z_m1 x ... x Z_mr by direct exponential sums."""
    factors = list(factors)
    elems = [()]
    for m in factors:
        elems = [e + (r,) for e in elems for r in range(m)]
    out = np.empty((len(elems), len(elems)), dtype=np.complex128)
    for a, label in enumerate(elems):
        for b, pt in enumerate(elems):
            phase = sum(l * p / m for l, p, m in zip(label, pt, factors))
            out[a, b] = np.exp(2j * np.pi * phase)
    return out


def union_find_classes(cayley, inverse):
    """Conjugacy classes by union-find over every (g, h) conjugation pair."""
    order = len(cayley)
    parent = list(range(order))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for g in range(order):
        for h in range(order):
            conj = cayley[cayley[h][g]][inverse[h]]
            ra, rb = find(g), find(conj)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    buckets = {}
    for g in range(order):
        buckets.setdefault(find(g), []).append(g)
    return sorted(tuple(sorted(v)) for v in buckets.values())


def naive_convolution(add_table, f, g):
    """(f*g)(a) = sum_b f(b) g(a - b) off a precomputed subtraction table."""
    order = len(f)
    out = np.zeros(order, dtype=np.complex128)
    for a in range(order):
        for b in range(order):
            # add_table[b][k] == a  <=>  k = a - b
            k = int(np.argmax(add_table[b] == a))
            out[a] += f[b] * g[k]
    return out


def tensor_product(c_a, u_a, c_b, u_b):
    """Structure constants and unit of A ⊗ B in the basis a_i ⊗ b_j.

    Basis index (i, j) is flattened to i * dim(B) + j, the order of
    ``np.kron``, so the characters of A ⊗ B are the Kronecker products of
    the factors' value vectors.
    """
    n = len(u_a) * len(u_b)
    c = np.einsum("ikm,jln->ijklmn", np.asarray(c_a), np.asarray(c_b))
    return c.reshape(n, n, n), np.kron(u_a, u_b)


def change_basis(c, unit, S):
    """Structure constants and unit in the basis b'_i = sum_a S_ai b_a.

    c'_ijk = sum_abl S_ai S_bj c_abl (S^-1)_kl and the unit is S^-1 e,
    symmetrized in (i, j) against roundoff.  A character's value vector
    becomes phi S.
    """
    S = np.asarray(S, dtype=np.complex128)
    inv = np.linalg.inv(S)
    c = np.einsum("ai,bj,abl,kl->ijk", S, S, np.asarray(c), inv)
    return 0.5 * (c + c.transpose(1, 0, 2)), inv @ np.asarray(unit)

"""The characters and the radical do not depend on the basis.

For an invertible S the algebra rewritten in the basis b'_i = sum_a S_ai b_a
(``oracles.change_basis``) must give the same character count and radical
dimension, with value rows phi S.  The gate covers complex unitary changes
and diagonal ones spread over up to 6 decades; wider or worse conditioned
changes are not yet certified reliably.
"""

import numpy as np
import pytest

from gelfand import characters, radical, standard_corpus, validate

from oracles import change_basis, match_rows

DRAWS = 20


def _unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _diagonal(decades):
    def draw(rng, n):
        scales = np.logspace(0, decades, n)[rng.permutation(n)]
        return np.diag(scales * np.exp(2j * np.pi * rng.uniform(size=n)))
    return draw


FAMILIES = {
    "unitary": _unitary,
    "diagonal-2": _diagonal(2),
    "diagonal-4": _diagonal(4),
    "diagonal-6": _diagonal(6),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_characters_and_radical_follow_a_change_of_basis(family):
    rng = np.random.default_rng(11)
    draw = FAMILIES[family]
    for item in standard_corpus():
        alg = item.algebra
        ref = characters(alg).values
        for _ in range(DRAWS):
            S = draw(rng, alg.dim)
            moved = validate(*change_basis(alg.structure_constants, alg.unit, S))
            space = characters(moved)
            assert len(space) == item.expected_characters, item.name
            assert radical(moved, space).dim == item.expected_radical_dim, item.name
            want = ref @ S
            gap = match_rows(want, space.values, None)
            assert gap <= 1e-9 * (1.0 + np.max(np.abs(want))), (item.name, gap)

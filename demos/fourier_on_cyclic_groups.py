"""
The discrete Fourier transform as a character table
===================================================

For the cyclic group Z_8 the convolution algebra on delta functions is
commutative, its characters are exactly the eight exponential sums of
the DFT, and the transform diagonalizes convolution.
"""

import numpy as np

from gelfand import abelian_group, abelian_group_algebra, characters, convolve

group = abelian_group([8])
algebra, star = abelian_group_algebra(group)
space = characters(algebra)
print(f"Z_8: {len(space)} characters on an algebra of dim {algebra.dim}")

# Every character value is an eighth root of unity; the character table
# is the DFT matrix up to row order.
table = space.matrix()
omega = np.exp(2j * np.pi / 8)
dft = np.array([[omega ** (j * k) for k in range(8)] for j in range(8)])
matched = sum(
    1 for row in dft
    if min(np.max(np.abs(row - got)) for got in table) < 1e-9)
print(f"{matched} of 8 DFT rows appear in the character table")

# The convolution theorem: transform(f * g) = transform(f) * transform(g)
# pointwise.  Convolution here is the direct double sum, no FFT involved.
rng = np.random.default_rng(7)
f = rng.standard_normal(8)
g = rng.standard_normal(8)
lhs = space.transform(convolve(group, f, g))
rhs = space.transform(f) * space.transform(g)
print("convolution theorem residual:", float(np.max(np.abs(lhs - rhs))))

# The star structure reverses the group, which conjugates every
# character value: the transform of star(f) is conj(transform(f)).
lhs = space.transform(star.star(f))
rhs = np.conj(space.transform(f))
print("star vs conjugation residual:", float(np.max(np.abs(lhs - rhs))))

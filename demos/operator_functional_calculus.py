"""
From a normal matrix to functions of it
=======================================

A normal operator over a weighted inner product generates a commutative
star-closed matrix algebra.  Its characters evaluate T at its
eigenvalues, the radical is zero, and interpolation through the
spectrum computes f(T) for any function f without touching an
eigendecomposition directly.
"""

import numpy as np

from gelfand import (
    adjoint,
    generate_star_subalgebra,
    inner_product_space,
    interpolate,
    radical,
    verify_gelfand_isomorphism,
)

# A diagonal operator conjugated into a non-orthogonal frame, normal
# with respect to the Gram matrix that makes the frame orthonormal.
frame = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
eigs = np.array([0.5, 2.0, -1.0])
t = frame @ np.diag(eigs) @ np.linalg.inv(frame)
gram = np.linalg.inv(frame @ frame.conj().T)
space = inner_product_space(gram)

print("adjoint commutes with T:",
      bool(np.max(np.abs(t @ adjoint(space, t) - adjoint(space, t) @ t)) < 1e-12))

# Close {T, T*} under products: for a normal generator with distinct
# eigenvalues the closure has one dimension per eigenvalue.
opalg = generate_star_subalgebra(space, [t])
print(f"closure dimension: {opalg.dim}")

# The isomorphism check certifies the characters of the closure and
# hands them back, with the radical stored on them.
report = verify_gelfand_isomorphism(opalg)
print("isomorphism certified:", report.passed)
chars = report.space
print(f"characters: {len(chars)}, radical dim:",
      radical(opalg.algebra, chars).dim)

# Each character sends the coordinates of T to one eigenvalue.
values = chars.transform(opalg.coords(t))
print("character values on T:", np.round(np.sort(values.real), 10))

# Functional calculus: interpolate exp on the spectrum, then map the
# element back to a matrix.  Compare against the eigendecomposition.
w = interpolate(opalg.algebra, chars, np.exp(values))
exp_t = np.tensordot(w, opalg.basis_ops, axes=(0, 0))
direct = frame @ np.diag(np.exp(eigs)) @ np.linalg.inv(frame)
print("exp(T) via transform vs eigenvectors:",
      float(np.max(np.abs(exp_t - direct))))

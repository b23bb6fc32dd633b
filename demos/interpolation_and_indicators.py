"""
Hitting prescribed transform values
===================================

Characters of a commutative algebra are linearly independent, so any
function on the spectrum is the transform of some element.  This script
builds the indicator element of each character of C[t]/(t^3 + 1), once
per character and once for the whole table in one solve, and then
interpolates an arbitrary target function.
"""

import numpy as np

from gelfand import characters, indicator_element, interpolate, polynomial_quotient

algebra = polynomial_quotient([1, 0, 0])  # t^3 = -1, three characters
space = characters(algebra)
chars = list(space)
print(f"C[t]/(t^3 + 1): {len(chars)} characters")

# An indicator element transforms to 1 at its own character and 0 at the
# others; it is the unit minus one least-squares solve for the element
# that is 0 at that character and 1 at the others.  The indicators are
# also the interpolants of the rows of the identity, so one interpolate
# call on np.eye(m) gives the whole table.
table = interpolate(algebra, space, np.eye(len(chars)))
for k, phi in enumerate(chars):
    w = indicator_element(algebra, chars, phi)
    print(f"indicator {k}: transform = {np.round(space.transform(w), 10)}, "
          f"table row transform = {np.round(space.transform(table[k]), 10)}, "
          f"agree: {bool(np.max(np.abs(w - table[k])) < 1e-12)}")

# Interpolation solves the same linear system in one shot for any
# target.  The worst error reported here is pure roundoff.
target = np.array([2.0, -1.0 + 0.5j, 3.0j])
w = interpolate(algebra, space, target)
err = float(np.max(np.abs(space.transform(w) - target)))
print("target           ", target)
print("transform of w   ", np.round(space.transform(w), 10))
print("max error        ", err)

# The interpolant of the constant function 1 is the unit itself.
one = interpolate(algebra, space, np.ones(len(chars)))
print("interpolant of 1 equals unit:",
      bool(np.max(np.abs(one - algebra.unit)) < 1e-12))

"""
Submultiplicative norms and the homomorphism norm
=================================================

A norm with ||xy|| <= ||x|| ||y|| and ||e|| = 1 forces every character
to be a contraction: |phi(x)| <= ||x||.  This script certifies three
different norms on the convolution algebra of Z_6 and samples the
contraction property for each; the same samples, with the unit added,
give the homomorphism norm.
"""

from gelfand import (
    abelian_group,
    abelian_group_algebra,
    characters,
    operator_norm,
    suggest_l1_weights,
    sup_norm,
    verify_contraction,
    weighted_l1_norm,
)

algebra, _ = abelian_group_algebra(abelian_group([6]))
space = characters(algebra)

# Three certificates of submultiplicativity with very different flavors:
# the spectral norm of left multiplication, the sup of |transform|
# plus radical correction, and a weighted l1 norm whose weights come
# from a fixed point of the structure constants.
weights = suggest_l1_weights(algebra)
norms = [
    operator_norm(algebra),
    sup_norm(algebra, space),
    weighted_l1_norm(algebra, weights),
]

for norm in norms:
    report = verify_contraction(algebra, norm, space, samples=500)
    print(f"{norm.kind}:")
    print(f"  worst |phi(x)| / ||x|| over {report.samples} samples: "
          f"{report.worst_ratio:.15f}")
    print(f"  homomorphism norm: {report.hom_norm:.15f}")

# No ratio exceeds 1, and the bound is attained: the unit has norm 1
# and phi(e) = 1 for every character, so the homomorphism norm is
# exactly 1 for each kind.  Random samples approach the bound quickly
# for the first two norms and more slowly for the weighted l1 kind,
# whose ratio is 1 only on elements concentrated on a single group
# element.

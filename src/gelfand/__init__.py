"""Finite-dimensional commutative Gelfand theory.

Structure-constant algebras, their characters and Gelfand transform,
radicals and nilpotents, submultiplicative norms, involutions, commutative
star-closed operator algebras on inner-product spaces, and convolution
algebras of finite groups.

Public names resolve on first use (PEP 562): ``gelfand.characters``
imports :mod:`gelfand.spectrum` the first time it is read, and
``import gelfand`` alone loads no submodule but :mod:`gelfand.involution`.
``dir(gelfand)`` and ``from gelfand import *`` list every public name
whether or not it has been loaded yet.
"""

from importlib import import_module

# ``involution`` names both a submodule and its public function.  Loading
# the submodule binds the module on the package, so it is loaded here,
# before any lazy import can, and the function is bound over it.
from .involution import involution

__version__ = "0.1.0"

#: the public names of each submodule; the submodule names are public too
_EXPORTS = {
    "algebra": (
        "Algebra", "ValidationCertificate", "dual_numbers",
        "polynomial_quotient", "validate",
    ),
    "corpus": (
        "CorpusItem", "OperatorFixture", "random_algebra",
        "random_operator_fixture", "standard_corpus",
    ),
    "errors": (
        "BadUnit", "CertificationFailed", "ContractionViolated",
        "CountMismatch", "DimensionMismatch", "GelfandError", "InvalidGroup",
        "InvalidNorm", "LengthMismatch", "NotAssociative", "NotCommutative",
        "NotDistinct", "NotMember", "ParseError", "PropertyViolated",
        "SelfAdjointnessViolated", "ShapeMismatch",
    ),
    "groups": (
        "ConjugacyClassPartition", "FiniteAbelianGroup", "FiniteGroup",
        "abelian_characters", "abelian_group", "abelian_group_algebra",
        "center_algebra", "conjugacy_classes", "convolve", "dihedral_group_4",
        "finite_group", "quaternion_group", "symmetric_group_3",
    ),
    "involution": (
        "Involution", "SpanCheckReport", "conjugate_character",
        "coordinate_conjugation", "involution",
        "radical_selfadjoint_span_check", "selfadjoint_parts",
    ),
    "norms": (
        "NORM_KINDS", "NORM_REGULAR", "NORM_SUP", "NORM_WEIGHTED_L1",
        "AlgebraNorm", "ContractionReport", "homomorphism_norm",
        "operator_norm", "sup_norm", "suggest_l1_weights",
        "verify_contraction", "weighted_l1_norm",
    ),
    "operators": (
        "InnerProductSpace", "IsomorphismReport", "NilpotencyCheck",
        "OperatorAlgebra", "adjoint", "adjoint_defect",
        "check_selfadjoint_nilpotent", "generate_star_subalgebra",
        "inner_product_space", "verify_gelfand_isomorphism",
    ),
    "spectrum": (
        "DEFAULT_SEED", "Character", "CharacterSpace", "RadicalSubspace",
        "character_residual", "character_residuals", "characters",
        "indicator_element", "interpolate", "is_nilpotent",
        "nilpotency_threshold", "radical", "seeded_rng", "separating_element",
        "separation_threshold",
    ),
}

#: home module of every public name
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME.keys() | _EXPORTS.keys())


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({n for n in globals() if n.startswith("__")} | set(__all__))

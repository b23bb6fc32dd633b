"""Finite-dimensional commutative Gelfand theory.

Structure-constant algebras, their characters and Gelfand transform,
radicals and nilpotents, submultiplicative norms, involutions, commutative
star-closed operator algebras on inner-product spaces, and convolution
algebras of finite groups.
"""

from .algebra import (
    Algebra,
    ValidationCertificate,
    dual_numbers,
    polynomial_quotient,
    validate,
)
from .corpus import (
    CorpusItem,
    OperatorFixture,
    random_algebra,
    random_operator_fixture,
    standard_corpus,
)
from .errors import (
    BadUnit,
    CertificationFailed,
    ContractionViolated,
    CountMismatch,
    DimensionMismatch,
    GelfandError,
    InvalidGroup,
    InvalidNorm,
    LengthMismatch,
    NotAssociative,
    NotCommutative,
    NotDistinct,
    NotMember,
    ParseError,
    PropertyViolated,
    SelfAdjointnessViolated,
    ShapeMismatch,
)
from .groups import (
    ConjugacyClassPartition,
    FiniteAbelianGroup,
    FiniteGroup,
    abelian_characters,
    abelian_group,
    abelian_group_algebra,
    center_algebra,
    conjugacy_classes,
    convolve,
    dihedral_group_4,
    finite_group,
    quaternion_group,
    symmetric_group_3,
)
from .involution import (
    Involution,
    SpanCheckReport,
    conjugate_character,
    coordinate_conjugation,
    involution,
    radical_selfadjoint_span_check,
    selfadjoint_parts,
)
from .norms import (
    NORM_KINDS,
    NORM_REGULAR,
    NORM_SUP,
    NORM_WEIGHTED_L1,
    AlgebraNorm,
    ContractionReport,
    homomorphism_norm,
    operator_norm,
    sup_norm,
    suggest_l1_weights,
    verify_contraction,
    weighted_l1_norm,
)
from .operators import (
    InnerProductSpace,
    IsomorphismReport,
    NilpotencyCheck,
    OperatorAlgebra,
    adjoint,
    adjoint_defect,
    check_selfadjoint_nilpotent,
    generate_star_subalgebra,
    inner_product_space,
    verify_gelfand_isomorphism,
)
from .spectrum import (
    DEFAULT_SEED,
    Character,
    CharacterSpace,
    RadicalSubspace,
    character_residual,
    character_residuals,
    characters,
    indicator_element,
    interpolate,
    is_nilpotent,
    nilpotency_threshold,
    radical,
    seeded_rng,
    separating_element,
    separation_threshold,
)

__version__ = "0.1.0"

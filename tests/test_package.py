"""The package's public surface: every name, where it lives, and ``*``."""

import subprocess
import sys
from importlib import import_module

import pytest

import gelfand

#: the public names of each submodule, as the package has always exported them
SURFACE = {
    "algebra": [
        "Algebra", "ValidationCertificate", "dual_numbers",
        "polynomial_quotient", "validate",
    ],
    "corpus": [
        "CorpusItem", "OperatorFixture", "random_algebra",
        "random_operator_fixture", "standard_corpus",
    ],
    "errors": [
        "BadUnit", "CertificationFailed", "ContractionViolated",
        "CountMismatch", "DimensionMismatch", "GelfandError", "InvalidGroup",
        "InvalidNorm", "LengthMismatch", "NotAssociative", "NotCommutative",
        "NotDistinct", "NotMember", "ParseError", "PropertyViolated",
        "SelfAdjointnessViolated", "ShapeMismatch",
    ],
    "groups": [
        "ConjugacyClassPartition", "FiniteAbelianGroup", "FiniteGroup",
        "abelian_characters", "abelian_group", "abelian_group_algebra",
        "center_algebra", "conjugacy_classes", "convolve", "dihedral_group_4",
        "finite_group", "quaternion_group", "symmetric_group_3",
    ],
    "involution": [
        "Involution", "SpanCheckReport", "conjugate_character",
        "coordinate_conjugation", "involution",
        "radical_selfadjoint_span_check", "selfadjoint_parts",
    ],
    "norms": [
        "NORM_KINDS", "NORM_REGULAR", "NORM_SUP", "NORM_WEIGHTED_L1",
        "AlgebraNorm", "ContractionReport", "homomorphism_norm",
        "operator_norm", "sup_norm", "suggest_l1_weights",
        "verify_contraction", "weighted_l1_norm",
    ],
    "operators": [
        "InnerProductSpace", "IsomorphismReport", "NilpotencyCheck",
        "OperatorAlgebra", "adjoint", "adjoint_defect",
        "check_selfadjoint_nilpotent", "generate_star_subalgebra",
        "inner_product_space", "verify_gelfand_isomorphism",
    ],
    "spectrum": [
        "DEFAULT_SEED", "Character", "CharacterSpace", "RadicalSubspace",
        "character_residual", "character_residuals", "characters",
        "indicator_element", "interpolate", "is_nilpotent",
        "nilpotency_threshold", "radical", "seeded_rng", "separating_element",
        "separation_threshold",
    ],
}

#: ``dir(gelfand)`` without dunders: every public name and submodule
PUBLIC = sorted({n for names in SURFACE.values() for n in names} | set(SURFACE))


def test_dir_lists_the_whole_surface():
    assert len(PUBLIC) == 91
    assert [n for n in dir(gelfand) if not n.startswith("__")] == PUBLIC


def test_every_name_is_its_home_modules_object():
    for module, names in SURFACE.items():
        home = import_module(f"gelfand.{module}")
        for name in names:
            assert getattr(gelfand, name) is getattr(home, name), name
        if module != "involution":    # the function keeps that name
            assert getattr(gelfand, module) is home, module


def test_star_import_binds_the_surface():
    ns = {}
    exec("from gelfand import *", ns)
    assert sorted(n for n in ns if n != "__builtins__") == PUBLIC
    assert ns["involution"] is import_module("gelfand.involution").involution


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gelfand.no_such_name


@pytest.mark.parametrize("first", [
    "assert callable(gelfand.involution)",
    "import gelfand.involution",
    "import gelfand.groups",
])
def test_involution_stays_the_function_in_a_fresh_interpreter(first):
    # loading the submodule binds it on the package; the function must win
    script = (
        f"import gelfand\n{first}\n"
        "import gelfand.involution, gelfand.serialize\n"
        "from gelfand import involution\n"
        "assert callable(gelfand.involution) and callable(involution)\n"
        "assert gelfand.involution.__module__ == 'gelfand.involution'\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

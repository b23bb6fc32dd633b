"""Deterministic property suites over the built-in corpus.

:func:`verify_all` rebuilds every corpus algebra from scratch, re-derives
its certified objects and reports worst residuals for each property
family.  All sampling flows from one seed through fixed stream keys, so
two calls with the same seed produce identical reports, byte for byte
once serialized.  A failed check never raises; it is recorded with its
error payload and flips the enclosing ``passed`` flags to False.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .algebra import ASSOC_BASE, CHAR_BASE, Algebra, _complex_normal
from .errors import GelfandError
from .involution import _conjugates, radical_selfadjoint_span_check
from .norms import (
    CONTRACTION_SLACK,
    operator_norm,
    sup_norm,
    suggest_l1_weights,
    verify_contraction,
    weighted_l1_norm,
)
from .serialize import contraction_payload, isomorphism_payload
from .spectrum import (
    DEFAULT_SEED,
    INTERP_TOL,
    NILP_BASE,
    SEP_BASE,
    CharacterSpace,
    _require_own_space,
    characters,
    interpolate,
    is_nilpotent,
    radical,
    seeded_rng,
)

if TYPE_CHECKING:
    from .corpus import CorpusItem

#: stream keys for the sampling loops owned by this module
_KEY_INTERP = 6
_KEY_NILP = 7
_KEY_STAR = 8

#: contraction and homomorphism-norm samples per norm kind in each item
SAMPLES = 250

#: seeded operator fixtures checked after the corpus
FIXTURES = 4

TOLERANCES = {
    "assoc_base": ASSOC_BASE,
    "char_base": CHAR_BASE,
    "sep_base": SEP_BASE,
    "nilp_base": NILP_BASE,
    "contraction_slack": CONTRACTION_SLACK,
}


def _guarded(fn, *args, **kwargs) -> dict:
    # A failed property must surface in the report, not as a traceback.
    try:
        return fn(*args, **kwargs)
    except GelfandError as exc:
        return {"passed": False, "error": exc.payload()}


def _character_suite(item: CorpusItem, space: CharacterSpace, rad) -> dict:
    algebra = item.algebra
    ok = (len(space) == item.expected_characters
          and len(space) <= algebra.dim
          and rad.dim == item.expected_radical_dim
          and space.worst_residual <= algebra.eps_char)
    return {
        "count": len(space),
        "expected_count": item.expected_characters,
        "residual": float(space.worst_residual),
        "radical_dim": int(rad.dim),
        "expected_radical_dim": item.expected_radical_dim,
        "radical_transform_residual": float(rad.transform_residual),
        "radical_power_residual": float(rad.power_residual),
        "passed": bool(ok),
    }


def _interpolation_suite(algebra: Algebra, space: CharacterSpace,
                         seed: int, targets: int) -> dict:
    m = len(space)
    goals = _complex_normal(seeded_rng(seed, _KEY_INTERP), (targets, m))
    # the indicators are the interpolants of the rows of the identity
    wanted = np.vstack([np.eye(m), goals])
    errors = np.abs(interpolate(algebra, space, wanted) @ space.values.T - wanted)
    worst_ind = float(np.max(errors[:m]))
    worst_err = float(np.max(errors[m:]))
    ok = worst_ind <= m * algebra.eps_char and worst_err <= INTERP_TOL
    return {
        "indicator_worst_residual": worst_ind,
        "targets": targets,
        "interpolation_worst_error": worst_err,
        "passed": bool(ok),
    }


def _nilpotency_suite(algebra: Algebra, space: CharacterSpace, rad,
                      seed: int, samples: int) -> dict:
    rng = seeded_rng(seed, _KEY_NILP)
    xs = [algebra.random_elements(samples, rng), rad.basis.T]
    if rad.dim:
        xs.append(_complex_normal(rng, (samples, rad.dim)) @ rad.basis.T)
    xs = np.vstack(xs)
    flags = np.array([is_nilpotent(algebra, x)[0] for x in xs], dtype=bool)
    flat = np.max(np.abs(xs @ space.values.T), axis=1, initial=0.0)
    vanishes = flat <= SEP_BASE * (1.0 + np.linalg.norm(xs, axis=1))
    mismatches = int(np.count_nonzero(flags != vanishes))
    return {"samples": len(xs), "mismatches": mismatches,
            "passed": mismatches == 0}


def norm_suite(algebra: Algebra, space: CharacterSpace,
               seed: int = DEFAULT_SEED, samples: int = SAMPLES,
               weights=None) -> dict:
    """Contraction and homomorphism-norm reports for every available kind.

    The weighted l1 kind uses the given weights, or an automatically
    suggested certificate; when neither exists the kind is listed under
    ``skipped`` instead of failing the suite.
    """
    norms = [operator_norm(algebra), sup_norm(algebra, space)]
    skipped = []
    if weights is None:
        weights = suggest_l1_weights(algebra)
    if weights is not None:
        norms.append(weighted_l1_norm(algebra, weights))
    else:
        skipped.append("user-weighted-l1")
    reports = []
    ok = True
    for norm in norms:
        rep = verify_contraction(algebra, norm, space, samples=samples, seed=seed)
        reports.append(contraction_payload(rep))
        ok = ok and rep.passed and abs(rep.hom_norm - 1.0) <= CONTRACTION_SLACK
    return {"kinds": len(norms), "skipped": skipped, "reports": reports,
            "passed": bool(ok)}


def involution_suite(inv, space: CharacterSpace,
                     seed: int = DEFAULT_SEED, samples: int = 25) -> dict:
    """Round-trip, conjugation-closure and radical span checks for a star.

    Raises :class:`PropertyViolated` when ``space`` was
    certified for another algebra than the involution's.
    """
    algebra = inv.algebra
    _require_own_space(algebra, space)
    xs = algebra.random_elements(samples, seeded_rng(seed, _KEY_STAR))
    st = inv.action.T   # star applied to the rows of xs is conj(xs) @ S^T
    back = np.conj(np.conj(xs) @ st) @ st
    worst_round = float(np.max(np.max(np.abs(back - xs), axis=1)
                               / (1.0 + np.max(np.abs(xs), axis=1)), initial=0.0))
    values, thresh = space.values, space.delta_sep
    conj, _, fixed = _conjugates(inv, values)
    closed = all(float(np.min(np.max(np.abs(psi - values), axis=1))) <= thresh
                 for psi in conj)
    span = radical_selfadjoint_span_check(inv, space)
    ok = worst_round <= 1e-12 and closed and span.passed
    return {
        "star_roundtrip_residual": worst_round,
        "conjugation_closed": bool(closed),
        "self_conjugate_characters": int(np.sum(fixed)),
        "span_check_passed": bool(span.passed),
        "span_worst_residual": float(span.worst_residual),
        "passed": bool(ok),
    }


def verify_item(item: CorpusItem, seed: int = DEFAULT_SEED) -> dict:
    """All property suites for one corpus item, as a JSON-ready dict."""
    algebra = item.algebra
    out = {"name": item.name, "dim": algebra.dim}
    try:
        space = characters(algebra, seed=seed)
        rad = radical(algebra, space)
    except GelfandError as exc:
        out["characters"] = {"passed": False, "error": exc.payload()}
        out["passed"] = False
        return out
    out["characters"] = _guarded(_character_suite, item, space, rad)
    out["separation"] = _guarded(_interpolation_suite, algebra, space, seed,
                                 targets=10)
    out["nilpotency"] = _guarded(_nilpotency_suite, algebra, space, rad, seed,
                                 samples=25)
    out["norms"] = _guarded(norm_suite, algebra, space, seed, SAMPLES)
    if item.star is not None:
        out["involution"] = _guarded(involution_suite, item.star, space, seed,
                                     samples=25)
    out["passed"] = all(block.get("passed", False)
                        for key, block in out.items()
                        if isinstance(block, dict))
    return out


def verify_operator_fixture(fixture_seed: int, seed: int = DEFAULT_SEED) -> dict:
    """Closure, adjoint identity and isomorphism checks for one fixture."""
    from .corpus import random_operator_fixture
    from .operators import (
        ADJOINT_DEFECT_BASE,
        adjoint,
        adjoint_defect,
        generate_star_subalgebra,
        verify_gelfand_isomorphism,
    )

    fix = random_operator_fixture(fixture_seed)
    d = fix.space.dim
    out = {"fixture_seed": fixture_seed, "dim": d}
    try:
        t = fix.generator
        t_star = adjoint(fix.space, t)
        defect = adjoint_defect(fix.space, t, t_star)
        defect_scale = float(np.linalg.norm(fix.space.gram, 2)
                             * np.linalg.norm(t, 2))
        opalg = generate_star_subalgebra(fix.space, [t])
        iso = verify_gelfand_isomorphism(opalg, seed=seed)
    except GelfandError as exc:
        out["passed"] = False
        out["error"] = exc.payload()
        return out
    ok = (defect <= ADJOINT_DEFECT_BASE * (1.0 + defect_scale)
          and opalg.dim == d
          and iso.passed)
    out.update({
        "adjoint_defect": float(defect),
        "closure_dim": int(opalg.dim),
        "expansion_residual": float(opalg.expansion_residual),
        "isomorphism": isomorphism_payload(iso),
        "passed": bool(ok),
    })
    return out


def verify_all(seed: int = DEFAULT_SEED) -> dict:
    """One report covering the whole corpus plus seeded operator fixtures."""
    from .corpus import standard_corpus

    items = [verify_item(item, seed=seed) for item in standard_corpus()]
    ops = [verify_operator_fixture(seed + k, seed=seed) for k in range(FIXTURES)]
    passed = all(i["passed"] for i in items) and all(o["passed"] for o in ops)
    return {
        "version": __version__,
        "seed": seed,
        "samples": SAMPLES,
        "tolerances": dict(TOLERANCES),
        "items": items,
        "operator_fixtures": ops,
        "passed": bool(passed),
    }

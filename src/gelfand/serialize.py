"""JSON wire formats for algebras, groups, operator models and reports.

Scalars are liberal on the way in and strict on the way out: a complex
entry may arrive as a plain number or as an [re, im] pair, but every
emitted value is the two-element pair form.  Document parsing rejects
unknown keys so that a typo fails loudly instead of being ignored.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, validate
from .errors import ParseError
from .groups import (
    FiniteAbelianGroup,
    FiniteGroup,
    abelian_group,
    finite_group,
)
from .involution import Involution, involution
from .operators import InnerProductSpace, inner_product_space
from .spectrum import radical


def parse_complex(obj, where: str) -> complex:
    if isinstance(obj, bool):
        raise ParseError(f"{where}: expected a number or [re, im] pair, got a bool",
                         where=where)
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, (list, tuple)) and len(obj) == 2 \
            and all(isinstance(p, (int, float)) and not isinstance(p, bool)
                    for p in obj):
        return complex(obj[0], obj[1])
    raise ParseError(f"{where}: expected a number or [re, im] pair",
                     where=where, got=repr(obj))


def parse_vector(obj, length: int | None, where: str) -> np.ndarray:
    if not isinstance(obj, (list, tuple)):
        raise ParseError(f"{where}: expected a list", where=where)
    if length is not None and len(obj) != length:
        raise ParseError(f"{where}: expected {length} entries, got {len(obj)}",
                         where=where, expected=length, got=len(obj))
    return np.array([parse_complex(v, f"{where}[{i}]")
                     for i, v in enumerate(obj)], dtype=np.complex128)


def parse_matrix(obj, rows: int | None, cols: int | None, where: str) -> np.ndarray:
    if not isinstance(obj, (list, tuple)):
        raise ParseError(f"{where}: expected a list of rows", where=where)
    if rows is not None and len(obj) != rows:
        raise ParseError(f"{where}: expected {rows} rows, got {len(obj)}",
                         where=where, expected=rows, got=len(obj))
    if not obj:
        return np.zeros((0, 0 if cols is None else cols), dtype=np.complex128)
    width = cols if cols is not None else (
        len(obj[0]) if isinstance(obj[0], (list, tuple)) else -1)
    return np.stack([parse_vector(row, width, f"{where}[{i}]")
                     for i, row in enumerate(obj)])


def parse_tensor(obj, n: int, where: str) -> np.ndarray:
    if not isinstance(obj, (list, tuple)) or len(obj) != n:
        raise ParseError(f"{where}: expected {n} slices", where=where, expected=n)
    return np.stack([parse_matrix(s, n, n, f"{where}[{i}]")
                     for i, s in enumerate(obj)])


def complex_pair(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def vector_payload(v) -> list:
    return [complex_pair(z) for z in np.asarray(v).ravel()]


def _mapping(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected a JSON object", where=where)
    return dict(doc)


def _take(doc: dict, key: str, where: str):
    if key not in doc:
        raise ParseError(f"{where}: missing required key {key!r}",
                         where=where, missing=key)
    return doc.pop(key)


def _done(doc: dict, where: str):
    if doc:
        raise ParseError(
            f"{where}: unknown keys {sorted(doc)}", where=where,
            unknown=sorted(doc))


def _int(obj, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ParseError(f"{where}: expected an integer", where=where,
                         got=repr(obj))
    return obj


def parse_algebra(doc) -> tuple[Algebra, Involution | None]:
    """Build a certified algebra (and optional involution) from a document.

    Expected shape: {"dim": n, "unit": [...], "structure_constants": [...]}
    with optional "basis_names" and "involution": {"action": [[...]]}.
    Validation and certification errors propagate as-is.
    """
    doc = _mapping(doc, "algebra")
    n = _int(_take(doc, "dim", "algebra"), "algebra.dim")
    if n < 1:
        raise ParseError("algebra.dim: must be at least 1", where="algebra.dim",
                         got=n)
    unit = parse_vector(_take(doc, "unit", "algebra"), n, "algebra.unit")
    tensor = parse_tensor(_take(doc, "structure_constants", "algebra"), n,
                          "algebra.structure_constants")
    names = None
    if "basis_names" in doc:
        raw = doc.pop("basis_names")
        if not isinstance(raw, list) or len(raw) != n \
                or not all(isinstance(s, str) for s in raw):
            raise ParseError(
                f"algebra.basis_names: expected {n} strings",
                where="algebra.basis_names")
        names = raw
    star_doc = doc.pop("involution", None)
    _done(doc, "algebra")
    algebra = validate(tensor, unit, basis_names=names)
    star = None
    if star_doc is not None:
        star_doc = _mapping(star_doc, "involution")
        action = parse_matrix(_take(star_doc, "action", "involution"), n, n,
                              "involution.action")
        _done(star_doc, "involution")
        star = involution(algebra, action)
    return algebra, star


def parse_group(doc) -> FiniteAbelianGroup | FiniteGroup:
    """Either {"abelian": [m1, ...]} or {"cayley": [[...]], "identity": k}."""
    doc = _mapping(doc, "group")
    if "abelian" in doc:
        raw = doc.pop("abelian")
        _done(doc, "group")
        if not isinstance(raw, list):
            raise ParseError("group.abelian: expected a list of integers",
                             where="group.abelian")
        return abelian_group([_int(m, f"group.abelian[{i}]")
                              for i, m in enumerate(raw)])
    if "cayley" in doc:
        raw = doc.pop("cayley")
        identity = _int(doc.pop("identity", 0), "group.identity")
        _done(doc, "group")
        if not isinstance(raw, list) \
                or not all(isinstance(row, list) for row in raw):
            raise ParseError("group.cayley: expected a list of rows",
                             where="group.cayley")
        table = [[_int(v, f"group.cayley[{i}][{j}]")
                  for j, v in enumerate(row)] for i, row in enumerate(raw)]
        return finite_group(table, identity=identity)
    raise ParseError("group: expected key 'abelian' or 'cayley'",
                     where="group", got=sorted(doc))


def parse_operator_model(doc) -> tuple[InnerProductSpace, list[np.ndarray]]:
    """Expected shape: {"dim": d, "gram": [[...]], "generators": [[[...]]]}."""
    doc = _mapping(doc, "operator")
    d = _int(_take(doc, "dim", "operator"), "operator.dim")
    if d < 1:
        raise ParseError("operator.dim: must be at least 1",
                         where="operator.dim", got=d)
    gram = parse_matrix(_take(doc, "gram", "operator"), d, d, "operator.gram")
    raw = _take(doc, "generators", "operator")
    _done(doc, "operator")
    if not isinstance(raw, list):
        raise ParseError("operator.generators: expected a list of matrices",
                         where="operator.generators")
    gens = [parse_matrix(g, d, d, f"operator.generators[{i}]")
            for i, g in enumerate(raw)]
    return inner_product_space(gram), gens


def character_table_payload(space) -> dict:
    """The character-table report block: count, value rows, residuals, radical."""
    return {
        "count": len(space),
        "characters": [vector_payload(row) for row in space.values],
        "residual": float(space.worst_residual),
        "radical_dim": int(radical(space.algebra, space).dim),
    }


def contraction_payload(report) -> dict:
    """The norm report block for one certified norm kind."""
    return {
        "norm": report.kind,
        "worst_contraction_ratio": float(report.worst_ratio),
        "hom_norm": float(report.hom_norm),
        "samples": int(report.samples),
        "seed": int(report.seed),
    }


def isomorphism_payload(iso) -> dict:
    """The report block for one Gelfand isomorphism check."""
    return {
        "character_count": int(iso.character_count),
        "algebra_dim": int(iso.algebra_dim),
        "radical_dim": int(iso.radical_dim),
        "conjugation_residual": float(iso.conjugation_residual),
        "realness_residual": float(iso.realness_residual),
        "passed": bool(iso.passed),
    }

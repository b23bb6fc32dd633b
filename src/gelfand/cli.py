"""Batch command-line surface.

    gelfand COMMAND --input spec.json [--seed N] [--tol X] [--format json|table]

Each command ingests a JSON document (formats live in
:mod:`gelfand.serialize`), runs one computation and prints a
deterministic report: identical input, seed and flags give identical
bytes.  Exit status 0 means every check in the report passed, 2 means
the input failed to parse or a certification check failed, 1 means an
internal error.  ``verify-all`` takes no input file; it runs the full
property suite over the built-in corpus.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .errors import GelfandError, ParseError
from .serialize import (
    character_table_payload,
    isomorphism_payload,
    parse_algebra,
    parse_group,
    parse_operator_model,
    parse_vector,
    vector_payload,
)
from .spectrum import DEFAULT_SEED, INTERP_TOL, characters, interpolate, radical


def _seed_value(text: str) -> int:
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read input file: {exc}", path=path)
    except json.JSONDecodeError as exc:
        raise ParseError(f"input is not valid JSON: {exc}", path=path,
                         line=exc.lineno, column=exc.colno)


def _split_doc(doc, keys: tuple[str, ...]):
    """Pop command-specific keys off a document before algebra parsing."""
    if not isinstance(doc, dict):
        raise ParseError("input: expected a JSON object", where="input")
    doc = dict(doc)
    extras = {k: doc.pop(k) for k in keys if k in doc}
    return doc, extras


def _require(extras: dict, key: str):
    if key not in extras:
        raise ParseError(f"input: missing required key {key!r}", missing=key)
    return extras[key]


# -- command handlers: take (document, namespace), return the report body.
# A handler imports what only it runs, so each command loads its own modules.


def _cmd_validate(doc, ns) -> dict:
    algebra, star = parse_algebra(doc)
    cert = algebra.certificate
    return {
        "dim": algebra.dim,
        "scale": float(algebra.scale),
        "asymmetry": float(cert.asymmetry),
        "assoc_residual": float(cert.assoc_residual),
        "unit_residual": float(cert.unit_residual),
        "eps_assoc": float(algebra.eps_assoc),
        "involution_certified": star is not None,
        "passed": True,
    }


def _cmd_characters(doc, ns) -> dict:
    algebra, _ = parse_algebra(doc)
    space = characters(algebra, seed=ns.seed)
    body = character_table_payload(space)
    body.update({
        "delta_sep": float(space.delta_sep),
        "eps_char": float(algebra.eps_char),
        "passed": True,
    })
    return body


def _cmd_radical(doc, ns) -> dict:
    algebra, _ = parse_algebra(doc)
    space = characters(algebra, seed=ns.seed)
    rad = radical(algebra, space)
    return {
        "character_count": len(space),
        "radical_dim": int(rad.dim),
        "basis": [vector_payload(col) for col in rad.basis.T],
        "transform_residual": float(rad.transform_residual),
        "power_residual": float(rad.power_residual),
        "passed": True,
    }


def _cmd_transform(doc, ns) -> dict:
    doc, extras = _split_doc(doc, ("element",))
    raw = _require(extras, "element")
    algebra, _ = parse_algebra(doc)
    x = parse_vector(raw, algebra.dim, "element")
    space = characters(algebra, seed=ns.seed)
    return {
        "count": len(space),
        "values": vector_payload(space.transform(x)),
        "passed": True,
    }


def _cmd_interpolate(doc, ns) -> dict:
    doc, extras = _split_doc(doc, ("targets",))
    raw = _require(extras, "targets")
    algebra, _ = parse_algebra(doc)
    space = characters(algebra, seed=ns.seed)
    goal = parse_vector(raw, len(space), "targets")
    tol = INTERP_TOL if ns.tol is None else ns.tol
    w = interpolate(algebra, space, goal)
    err = float(np.max(np.abs(space.transform(w) - goal), initial=0.0))
    return {
        "count": len(space),
        "element": vector_payload(w),
        "worst_error": err,
        "tolerance": tol,
        "passed": err <= tol,
    }


def _cmd_norms(doc, ns) -> dict:
    from .verify import norm_suite

    doc, extras = _split_doc(doc, ("weights",))
    algebra, _ = parse_algebra(doc)
    weights = None
    if "weights" in extras:
        w = parse_vector(extras["weights"], algebra.dim, "weights")
        if float(np.max(np.abs(w.imag))) > 0.0:
            raise ParseError("weights: entries must be real", where="weights")
        weights = w.real
    space = characters(algebra, seed=ns.seed)
    return norm_suite(algebra, space, seed=ns.seed, samples=1000,
                      weights=weights)


def _cmd_involution_check(doc, ns) -> dict:
    from .verify import involution_suite

    algebra, star = parse_algebra(doc)
    if star is None:
        raise ParseError(
            "input: involution-check needs an \"involution\" block",
            missing="involution")
    space = characters(algebra, seed=ns.seed)
    body = involution_suite(star, space, seed=ns.seed, samples=100)
    body["eps_char"] = float(algebra.eps_char)
    return body


def _cmd_operator(doc, ns) -> dict:
    from .operators import ADJOINT_DEFECT_BASE, adjoint, adjoint_defect, \
        generate_star_subalgebra, verify_gelfand_isomorphism

    space, gens = parse_operator_model(doc)
    factor = ADJOINT_DEFECT_BASE if ns.tol is None else ns.tol
    gram_norm = float(np.linalg.norm(space.gram, 2))
    defects = []
    defects_ok = True
    for g in gens:
        defect = adjoint_defect(space, g, adjoint(space, g))
        bound = factor * (1.0 + gram_norm * float(np.linalg.norm(g, 2)))
        defects.append(float(defect))
        defects_ok = defects_ok and defect <= bound
    opalg = generate_star_subalgebra(space, gens)
    iso = verify_gelfand_isomorphism(opalg, seed=ns.seed)
    return {
        "dim": space.dim,
        "condition": float(space.condition),
        "generator_count": len(gens),
        "closure_dim": int(opalg.dim),
        "expansion_residual": float(opalg.expansion_residual),
        "adjoint_defects": defects,
        "isomorphism": isomorphism_payload(iso),
        "passed": bool(defects_ok and iso.passed),
    }


def _cmd_group(doc, ns) -> dict:
    from .groups import FiniteAbelianGroup, abelian_characters, center_algebra, \
        conjugacy_classes

    group = parse_group(doc)
    if isinstance(group, FiniteAbelianGroup):
        space = abelian_characters(group, seed=ns.seed)
        body = {
            "kind": "abelian",
            "order": int(group.order),
            "invariant_factors": [int(m) for m in group.invariant_factors],
        }
        body.update(character_table_payload(space))
        body["passed"] = True
        return body
    partition = conjugacy_classes(group)
    algebra, _ = center_algebra(group)
    space = characters(algebra, seed=ns.seed)
    body = {
        "kind": "center",
        "order": int(group.order),
        "class_count": len(partition),
        "class_sizes": [int(s) for s in partition.sizes],
        "classes": [[int(g) for g in cls] for cls in partition.classes],
    }
    body.update(character_table_payload(space))
    body["passed"] = len(space) == len(partition)
    return body


def _cmd_verify_all(doc, ns) -> dict:
    from .verify import verify_all

    return verify_all(seed=ns.seed)


_COMMANDS = [
    ("validate", "certify an algebra spec", _cmd_validate, True),
    ("characters", "character table of an algebra", _cmd_characters, True),
    ("radical", "radical basis of an algebra", _cmd_radical, True),
    ("transform", "Gelfand transform of one element", _cmd_transform, True),
    ("interpolate", "element hitting target transform values",
     _cmd_interpolate, True),
    ("norms", "contraction reports for every norm kind", _cmd_norms, True),
    ("involution-check", "certify and exercise a star structure",
     _cmd_involution_check, True),
    ("operator", "close matrices into a certified operator algebra",
     _cmd_operator, True),
    ("group", "characters of a group convolution algebra or center",
     _cmd_group, True),
    ("verify-all", "run every property suite on the built-in corpus",
     _cmd_verify_all, False),
]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", "-i", metavar="PATH",
                        help="path of the JSON input document")
    common.add_argument("--seed", type=_seed_value, default=DEFAULT_SEED,
                        metavar="U64",
                        help="sampling seed, decimal or 0x-prefixed "
                             "(default 0x5EED)")
    common.add_argument("--tol", type=float, default=None, metavar="FLOAT",
                        help="override the report-level pass tolerance where "
                             "the command has one")
    common.add_argument("--format", choices=("json", "table"), default="json",
                        help="report rendering (default json)")
    parser = argparse.ArgumentParser(
        prog="gelfand",
        description="finite-dimensional commutative Gelfand theory, batch mode")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")
    for name, help_text, handler, needs_input in _COMMANDS:
        sp = sub.add_parser(name, parents=[common], help=help_text,
                            description=help_text)
        sp.set_defaults(handler=handler, needs_input=needs_input)
    return parser


def _wrap(ns, body: dict) -> dict:
    report = {
        "command": ns.command,
        "version": __version__,
        "seed": int(ns.seed),
        "tolerance": ns.tol,
    }
    report.update(body)
    return report


def _complex_str(pair) -> str:
    return f"{pair[0]:.12g}{pair[1]:+.12g}j"


def _is_pair(v) -> bool:
    return (isinstance(v, list) and len(v) == 2
            and all(isinstance(p, float) for p in v))


def _scalar_str(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _render(lines: list, obj, label: str, depth: int):
    pad = "  " * depth
    if isinstance(obj, dict):
        lines.append(f"{pad}{label}:")
        for key, val in obj.items():
            _render(lines, val, key, depth + 1)
    elif _is_pair(obj):
        lines.append(f"{pad}{label}: {_complex_str(obj)}")
    elif isinstance(obj, list) and obj and all(_is_pair(v) for v in obj):
        lines.append(f"{pad}{label}: " + "  ".join(map(_complex_str, obj)))
    elif isinstance(obj, list) and any(isinstance(v, (dict, list)) for v in obj):
        lines.append(f"{pad}{label}:")
        for i, val in enumerate(obj):
            _render(lines, val, f"[{i}]", depth + 1)
    elif isinstance(obj, list):
        lines.append(f"{pad}{label}: " + ", ".join(map(_scalar_str, obj)))
    else:
        lines.append(f"{pad}{label}: {_scalar_str(obj)}")


def _emit(report: dict, fmt: str):
    if fmt == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return
    lines: list[str] = []
    for key, val in report.items():
        _render(lines, val, key, 0)
    sys.stdout.write("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        doc = None
        if ns.needs_input:
            if not ns.input:
                raise ParseError(
                    f"command {ns.command} requires --input PATH",
                    missing="--input")
            doc = _load_json(ns.input)
        report = _wrap(ns, ns.handler(doc, ns))
    except GelfandError as exc:
        _emit(_wrap(ns, {"error": exc.payload(), "passed": False}), ns.format)
        return 2
    except Exception as exc:  # pragma: no cover - internal invariant break
        _emit(_wrap(ns, {"error": {"type": type(exc).__name__,
                                   "message": str(exc)},
                         "passed": False}), ns.format)
        return 1
    _emit(report, ns.format)
    return 0 if report.get("passed", True) else 2


if __name__ == "__main__":
    sys.exit(main())

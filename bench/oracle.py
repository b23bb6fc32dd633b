"""Correctness checks that use only what the benchmark itself built.

Every check takes plain numpy data (what the library returned, unwrapped)
and the answers known by construction in ``gen.py``, and returns a list
of failures, each a ``(kind, detail)`` pair; an empty list means the item
is correct.  Nothing here imports the library or reuses its tolerances'
code paths: residuals and transforms are recomputed from the structure
tensor and the expected character tables.
"""

from __future__ import annotations

import json

import numpy as np

#: multiplicativity tolerance factor, 1e-8 (1 + max|c|), as the library documents
CHAR_BASE = 1e-8

#: worst accepted |transform(w) - target| for interpolation
INTERP_TOL = 1e-7

#: row match tolerance factor for character tables, 1e-6 (1 + max|v|)
MATCH_BASE = 1e-6

#: star(star(x)) residual up to which a failed roundtrip counts as the known
#: mismatch of tolerances below, and not as a wrong star
STAR_KNOWN_TOL = 1e-10

#: (item, failure kind) pairs that mark a defect of the library known when
#: the benchmark was written; they count as failures but do not make a run
#: incorrect.  Any other failure, on any other item, does.
KNOWN_DEFECTS = {
    # is_nilpotent compares |x^m| with 1e-8 (1 + |x|)^m, which every
    # element with spectral radius below 1 + |x| meets once m is large
    ("jet-16b", "nilpotent-false-positive"),
    ("jet-24", "nilpotent-false-positive"),
    ("jet-32", "nilpotent-false-positive"),
    # involution_suite holds star(star(x)) = x to an absolute 1e-12, while
    # involution() certifies the action to eps_char; this closure (fixed in
    # gen.OPERATORS) lands between the two, as about one draw in six does
    ("op-d16-1gen", "star-roundtrip"),
}


def match_rows(found: np.ndarray, expected: np.ndarray) -> list[int] | None:
    """Index into ``expected`` for each row of ``found``, or None.

    Rows must pair off one to one within 1e-6 (1 + max|expected|).
    """
    found = np.atleast_2d(found)
    expected = np.atleast_2d(expected)
    if found.shape != expected.shape:
        return None
    tol = MATCH_BASE * (1.0 + float(np.max(np.abs(expected))))
    dist = np.max(np.abs(found[:, None, :] - expected[None, :, :]), axis=-1)
    order = [int(np.argmin(row)) for row in dist]
    if len(set(order)) != len(order):
        return None
    if any(dist[i, j] > tol for i, j in enumerate(order)):
        return None
    return order


def character_failures(c, unit, rows, count=None, expected=None):
    """Count, recomputed multiplicativity residual, and match to a table.

    Returns the failures and, when ``expected`` is given and matches, the
    expected rows reordered to the order of ``rows``.
    """
    c = np.asarray(c)
    rows = np.atleast_2d(np.asarray(rows, dtype=np.complex128))
    fails = []
    want = len(expected) if expected is not None else count
    if want is not None and len(rows) != want:
        fails.append(("character-count", f"{len(rows)} characters, expected {want}"))
    tol = CHAR_BASE * (1.0 + float(np.max(np.abs(c))))
    for r, v in enumerate(rows):
        mult = np.einsum("ijk,k->ij", c, v) - np.outer(v, v)
        res = max(float(np.max(np.abs(mult))), abs(complex(v @ unit) - 1.0))
        if res > tol:
            fails.append(("character-residual",
                          f"row {r}: |c.v - v v^T| = {res:.3e} > {tol:.3e}"))
    ordered = None
    if expected is not None and not fails:
        order = match_rows(rows, expected)
        if order is None:
            fails.append(("character-values", "rows do not match the known table"))
        else:
            ordered = np.asarray(expected)[order]
    return fails, ordered


def radical_failures(found_dim: int, expected_dim: int):
    if int(found_dim) != int(expected_dim):
        return [("radical-dim", f"radical dim {found_dim}, expected {expected_dim}")]
    return []


def interpolation_failures(values, targets):
    """|values - targets| <= 1e-7, for values recomputed by the benchmark."""
    err = float(np.max(np.abs(np.asarray(values) - targets))) if len(targets) else 0.0
    if not err <= INTERP_TOL:
        return [("interpolation", f"error {err:.3e} > {INTERP_TOL:.0e}")]
    return []


def nilpotent_failures(flags, truths):
    fails = []
    for k, (flag, truth) in enumerate(zip(flags, truths)):
        if flag and not truth:
            fails.append(("nilpotent-false-positive", f"element {k} is not nilpotent"))
        elif truth and not flag:
            fails.append(("nilpotent-false-negative", f"element {k} is nilpotent"))
    return fails


def star_failures(report: dict):
    """Failures of an involution suite report, by the clause that failed.

    A roundtrip residual above 1e-12 but within ``STAR_KNOWN_TOL`` is a
    ``star-roundtrip`` failure; anything worse is a wrong star.
    """
    if report["passed"] is True:
        return []
    residual = report["star_roundtrip_residual"]
    if (report["conjugation_closed"] and report["span_check_passed"]
            and residual <= STAR_KNOWN_TOL):
        return [("star-roundtrip", f"star roundtrip residual {residual:.3e}")]
    return [("star", f"involution suite did not pass (roundtrip {residual:.3e})")]


def operator_table(frame, basis_ops):
    """Characters of an operator closure, from its basis and the planted frame.

    In the joint eigenvector frame every closure element is diagonal, and
    character j reads off diagonal entry j.
    """
    inv = np.linalg.inv(frame)
    return np.einsum("jk,mkl,lj->jm", inv, basis_ops, frame)


def is_known(item, fails) -> bool:
    """Whether every failure of an item is in its hard share or a known defect."""
    return item.hard or all((item.name, kind) in KNOWN_DEFECTS for kind, _ in fails)


# -- batch interface ----------------------------------------------------------


def cli_failures(item, rc: int, stdout: str):
    """Exit code, ``passed``, and the command's answers known by construction."""
    if rc != 0:
        return [("exit-code", f"exit code {rc}")]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [("report", f"stdout is not JSON: {exc}")]
    if report.get("passed") is not True:
        return [("report", "report has passed != true")]
    exp = item.expect
    cmd = item.data["command"]
    fails = []

    def rows(key):
        return np.array([[complex(*p) for p in row] for row in report[key]])

    def need(key, want):
        if report.get(key) != want:
            fails.append((key, f"{key} = {report.get(key)!r}, expected {want!r}"))

    if cmd == "validate":
        need("dim", exp["dim"])
    elif cmd in ("characters", "group") and "chars" in exp:
        if match_rows(rows("characters"), exp["chars"]) is None:
            fails.append(("character-values", "rows do not match the known table"))
        need("radical_dim", exp["radical_dim"])
    elif cmd == "group":
        need("count", exp["count"])
        need("class_count", exp["count"])
        need("radical_dim", exp["radical_dim"])
    elif cmd == "radical":
        need("character_count", exp["count"])
        need("radical_dim", exp["radical_dim"])
    elif cmd == "transform":
        got = np.array([complex(*p) for p in report["values"]])
        if match_rows(got[:, None], np.asarray(exp["values"])[:, None]) is None:
            fails.append(("transform", "values do not match the known transform"))
    elif cmd == "interpolate":
        w = np.array([complex(*p) for p in report["element"]])
        hit = np.asarray(exp["chars"]) @ w
        goal = np.asarray(exp["targets"])
        order = match_rows(hit[:, None], goal[:, None])
        if order is None:
            fails.append(("interpolation", "transform of the element misses the targets"))
        else:
            fails += interpolation_failures(hit, goal[order])
    elif cmd == "norms":
        need("kinds", exp["kinds"])
    elif cmd == "operator":
        need("closure_dim", exp["closure_dim"])
        if report["isomorphism"]["character_count"] != exp["closure_dim"]:
            fails.append(("character-count", "closure characters != closure dim"))
    return fails

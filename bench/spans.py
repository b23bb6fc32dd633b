"""Spans around the library's public functions, recorded from outside.

``Tracer`` replaces every public function of the package with a timing
wrapper under every name it is bound to, including bindings other modules
made with ``from .spectrum import characters``.  Spans stay in memory as
``[name, start, end, parent, item, info]`` lists and are written out once,
at the end of a run.  Nothing in the library is edited.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

#: per-scalar parsing and payload helpers; their spans would cost more than
#: the calls they time, so their time stays in their callers
SKIP = {"parse_complex", "complex_pair"}

#: the package whose functions are traced
PACKAGE = "gelfand"

#: methods traced besides the module-level functions
METHODS = [("algebra", "Algebra", "multiply"), ("norms", "AlgebraNorm", "of")]


def _info(name: str, args, out):
    if name == "spectrum.seeded_rng":
        return args[1] if len(args) > 1 else None   # stream key of the call
    if name == "spectrum.characters":
        return len(out)
    return None


class Tracer:
    """Install with ``with tracer:``; spans accumulate across installs."""

    def __init__(self):
        self.spans: list[list] = []
        self.item: str | None = None
        self._stack: list[int] = []
        self._wrappers: dict = {}
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        if fn in self._wrappers:
            return self._wrappers[fn]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            rec[5] = _info(name, args, out)
            return out

        self._wrappers[fn] = wrapper
        return wrapper

    def _patch(self, owner, attr: str, fn, name: str):
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name))

    def __enter__(self):
        prefix = PACKAGE + "."
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(prefix)]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if (inspect.isfunction(val) and not attr.startswith("_")
                        and attr not in SKIP
                        and (val.__module__ or "").startswith(PACKAGE)):
                    short = val.__module__.removeprefix(prefix)
                    self._patch(mod, attr, val, f"{short}.{val.__qualname__}")
        for module, cls, meth in METHODS:
            owner = getattr(sys.modules[prefix + module], cls)
            self._patch(owner, meth, vars(owner)[meth], f"{module}.{cls}.{meth}")
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")


def summarize(spans: list[list]) -> dict:
    """Self time and calls per span name, plus the character-search counters.

    Self time is a span's duration minus the durations of its direct
    children; calls never overlap, so that is the uncovered part.
    """
    child = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for idx, (name, start, end, _, _, _) in enumerate(spans):
        self_s[name] += (end - start) - child[idx]
        calls[name] += 1

    def inside_characters(idx: int) -> bool:
        idx = spans[idx][3]
        while idx >= 0:
            if spans[idx][0] == "spectrum.characters":
                return True
            idx = spans[idx][3]
        return False

    attempts = residuals = 0
    for idx, (name, _, _, _, _, info) in enumerate(spans):
        if name == "spectrum.seeded_rng" and info == 1 and inside_characters(idx):
            attempts += 1
        elif name == "spectrum.character_residual" and inside_characters(idx):
            residuals += 1
    returned = sum(info or 0 for name, *_, info in spans
                   if name == "spectrum.characters")
    return {"self_s": dict(self_s), "calls": dict(calls), "attempts": attempts,
            "accept_ratio": returned / residuals if residuals else 0.0}

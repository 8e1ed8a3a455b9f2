"""Span tracing of the invder layers, installed from outside the package.

The package is not instrumented; this module wraps its functions in place.
Each call of a wrapped function becomes a span (name, parent span, start,
end) on one stack, so a span's self time is its duration minus the time its
traced children took.  The spans of the current pass stay in memory; the
last pass's are written out at the end of the run.

What is wrapped: every public module-level function of the layers below,
and the methods the per-layer metrics name.  `rational` is left alone: its
scalar type is Fraction itself, and a wrapper per arithmetic call would
distort the run; its cost shows up as self time of its callers.  In `cli`
only `main` is wrapped, so `cli.main` carries the whole front end's own
time (parsing, dispatch, formatting).

The package re-exports with `from .x import y`, so one function sits in
several namespaces (`invder.twist` calls `invder.constructions.is_invder`,
the search calls `invder.catalog.is_invder`), and the axiom dispatch tables
hold functions by value.  Every such reference is replaced.  Modules are
taken from importlib, because `invder.catalog` as an attribute is the
function `catalog()`, which shadows the module.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("linalg", "poly", "model", "axioms", "derivations",
          "constructions", "catalog", "cli")

METHODS = {
    "linalg": {"Matrix": ("rref", "det", "invert", "matmul")},
    "model": {"BilinearOp": ("mul_sparse",)},
    "derivations": {"DerivationSpace": ("combination", "coordinates_of")},
}

ENTRY_ONLY = {"cli": ("main",)}


def _rref_cells(args, result):
    return {"cells": args[0].rows * args[0].cols}


def _det_poly_terms(args, result):
    return {"terms": len(result.terms)}


def _leibniz_witnesses(args, result):
    return {"witnesses": int(result is not None)}


def _is_invder_accepted(args, result):
    return {"accepted": int(result.accepted)}


def _samples_tried(args, result):
    return {"samples_tried": result.samples_tried}


# sizes and outcomes counted at the boundary, keyed by span name
PROBES = {
    "linalg.Matrix.rref": _rref_cells,
    "poly.det_poly": _det_poly_terms,
    "axioms.leibniz_witness": _leibniz_witnesses,
    "derivations.is_invder": _is_invder_accepted,
    "derivations.invder_search": _samples_tried,
}


class Tracer:
    """Span stack plus per-name totals; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, start, child seconds]
        self._patched: list[tuple[object, str, object]] = []
        self.is_paused = False

    # ------------------------------------------------------------ recording

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        self.self_s[name] = 0.0
        probe = PROBES.get(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if tracer.is_paused:
                return fn(*args, **kwargs)
            index = len(tracer.span_name)
            parent = stack[-1][0] if stack else -1
            tracer.span_name.append(name_id)
            tracer.span_parent.append(parent)
            tracer.span_end.append(0.0)
            frame = [index, clock(), 0.0]
            tracer.span_start.append(frame[1])
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                tracer.span_end[index] = end
                tracer.self_s[name] += duration - frame[2]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
            if probe is not None:
                for key, value in probe(args, result).items():
                    full = f"{name}.{key}"
                    tracer.counts[full] = tracer.counts.get(full, 0) + value
            return result

        return functools.wraps(fn)(traced)

    @contextlib.contextmanager
    def paused(self):
        """Calls inside this block run unrecorded (the benchmark's checks)."""
        self.is_paused = True
        try:
            yield
        finally:
            self.is_paused = False

    def reset(self) -> None:
        """Forget spans and totals, keeping the wrappers installed."""
        for arr in (self.span_name, self.span_parent, self.span_start,
                    self.span_end):
            del arr[:]
        for name in self.calls:
            self.calls[name] = 0
            self.self_s[name] = 0.0
        self.counts.clear()

    # ------------------------------------------------------------- patching

    def _patch(self, holder, key, value) -> None:
        """Replace holder[key] (a dict) or holder.key, remembering the old."""
        if isinstance(holder, dict):
            self._patched.append((holder, key, holder[key]))
            holder[key] = value
        else:
            self._patched.append((holder, key, vars(holder)[key]))
            setattr(holder, key, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"invder.{layer}")
                   for layer in LAYERS}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "invder" or n.startswith("invder.")]
        wrappers: dict[int, object] = {}  # id of the original -> wrapper
        for layer, module in modules.items():
            wanted = ENTRY_ONLY.get(layer)
            for attr, fn in vars(module).items():
                if not inspect.isfunction(fn) or attr.startswith("_") \
                        or fn.__module__ != module.__name__:
                    continue
                if wanted is not None and attr not in wanted:
                    continue
                wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    self._patch(cls, meth, self._wrap(
                        f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and id(item) in wrappers:
                            self._patch(value, key, wrappers[id(item)])

    def uninstall(self) -> None:
        while self._patched:
            holder, key, original = self._patched.pop()
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)

    # -------------------------------------------------------------- results

    def totals(self) -> dict:
        """Calls, self seconds and boundary counts for the spans so far."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as gzipped tab-separated lines.

        The first line names the span kinds; each further line is one span:
        kind index, parent span index (-1 for a root), start and end in
        seconds from the first span.
        """
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("\t".join(self.names) + "\n")
            fh.writelines(
                f"{k}\t{p}\t{s - t0:.7f}\t{e - t0:.7f}\n"
                for k, p, s, e in zip(self.span_name, self.span_parent,
                                      self.span_start, self.span_end))


"""Spans and counters around the public functions of weylfrob, installed from
outside the package.

Each wrapper replaces a name at every place a caller looks it up: the
defining module and every weylfrob module that imported the name (for
example ``metrics.transform_form`` is also bound in ``flatcoords`` and
``frobenius``).  Methods are replaced on their class.  Nothing inside the
package is edited, so the spans follow the program as it changes; a wrapper
that stops firing shows up in the span-coverage check of ``run.py``.

A span records (name, start, end, parent).  Counters are attributed to the
innermost open span; inclusive counts are summed up the tree when a span
closes.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Tuple

# (module, attribute, span name): functions timed as spans
SPAN_FUNCTIONS: List[Tuple[str, str, str]] = [
    ("metrics", "build_pencil", "metrics.build_pencil"),
    ("metrics", "transform_form", "metrics.transform_form"),
    ("metrics", "transform_christoffel", "metrics.transform_christoffel"),
    ("flatcoords", "flat_pipeline", "flatcoords.flat_pipeline"),
    ("flatcoords", "build_z_chart", "flatcoords.build_z_chart"),
    ("flatcoords", "solve_p_block", "flatcoords.solve_p_block"),
    ("flatcoords", "build_w_chart", "flatcoords.build_w_chart"),
    ("flatcoords", "gamma_w", "flatcoords.gamma_w"),
    ("flatcoords", "solve_flat_chart", "flatcoords.solve_flat_chart"),
    ("flatcoords", "covariant_form", "flatcoords.covariant_form"),
    ("frobenius", "third_derivatives", "frobenius.third_derivatives"),
    ("frobenius", "third_derivatives_from_metric",
     "frobenius.third_derivatives_from_metric"),
    ("frobenius", "integrate_potential", "frobenius.integrate_potential"),
    ("frobenius", "b_to_c", "frobenius.b_to_c"),
    ("orbitspace", "compute_g_direct", "orbitspace.compute_g_direct"),
    ("orbitspace", "oracle_pairing", "orbitspace.oracle_pairing"),
    ("exactalg", "mat_adjugate", "exactalg.mat_adjugate"),
    ("serialize", "structure_document", "serialize.structure_document"),
    ("serialize", "document_json", "serialize.document_json"),
]

# (module, attribute, counter name): functions whose calls are only counted
COUNTED_FUNCTIONS: List[Tuple[str, str, str]] = [
    ("exactalg", "mat_det", "exactalg.mat_det_calls"),
    ("exactalg", "mat_inverse_unit", "exactalg.mat_inverse_unit_calls"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "children_s", "mul_calls",
                 "mul_terms", "counts", "incl_mul_calls", "nested")

    def __init__(self, name: str, parent: int, nested: bool):
        self.name = name
        self.parent = parent
        self.nested = nested          # an enclosing span has the same name
        self.start = time.perf_counter()
        self.end = 0.0
        self.children_s = 0.0
        self.mul_calls = 0
        self.mul_terms = 0
        self.counts: Dict[str, int] = {}
        self.incl_mul_calls = 0


class Tracer:
    """In-memory span recorder; ``install`` patches weylfrob, ``uninstall``
    restores every replaced binding."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._open_names: Dict[str, int] = {}
        self._root = Span("<root>", -1, False)
        self._current = self._root
        self._undo: List[Tuple[object, str, object]] = []

    # ---- spans and counters ----

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        depth = self._open_names.get(name, 0)
        self._open_names[name] = depth + 1
        span = Span(name, parent, depth > 0)
        self.spans.append(span)
        index = len(self.spans) - 1
        self._stack.append(index)
        self._current = span
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._open_names[span.name] -= 1
        span.incl_mul_calls += span.mul_calls
        if self._stack:
            parent = self.spans[self._stack[-1]]
            parent.children_s += span.end - span.start
            parent.incl_mul_calls += span.incl_mul_calls
            self._current = parent
        else:
            self._current = self._root

    def count(self, name: str, n: int = 1) -> None:
        counts = self._current.counts
        counts[name] = counts.get(name, 0) + n

    def timed(self, name: str, fn: Callable, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # ---- patching ----

    def _rebind(self, mods, original, replacement) -> None:
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "weylfrob" or name.startswith("weylfrob."))]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
        for modname, attr, span_name in SPAN_FUNCTIONS:
            original = getattr(by_name[modname], attr)
            self._rebind(mods, original, self._span_wrapper(original, span_name))
        for modname, attr, counter in COUNTED_FUNCTIONS:
            original = getattr(by_name[modname], attr)
            self._rebind(mods, original, self._count_wrapper(original, counter))

        exactalg = by_name["exactalg"]
        solve = exactalg.solve_linear

        def solve_linear(equations, unknowns=None):
            result = solve(equations, unknowns)
            self.count("exactalg.solve_linear_calls")
            if unknowns is not None:
                size = len(unknowns)
            else:
                size = len(result.solution) if result.solution is not None else 0
            self.count("exactalg.solve_linear_unknowns", size)
            return result

        self._rebind(mods, solve, solve_linear)

        cli = by_name["cli"]
        run_check = cli.run_check

        def traced_run_check(name, struct, oracle_max_rank):
            return self.timed("check." + name, run_check, name, struct,
                              oracle_max_rank)

        self._rebind(mods, run_check, traced_run_check)

        poly = exactalg.Poly
        self._patch_method(poly, "__mul__", self._mul_wrapper(poly.__mul__))
        self._patch_method(poly, "__rmul__", self._mul_wrapper(poly.__rmul__))
        self._patch_method(poly, "substitute",
                           self._count_wrapper(poly.substitute, "exactalg.substitute_calls"))
        coord_map = by_name["orbitspace"].CoordMap
        self._patch_method(coord_map, "compose",
                           self._span_wrapper(coord_map.compose, "orbitspace.compose"))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _patch_method(self, cls, attr: str, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def _span_wrapper(self, fn: Callable, name: str) -> Callable:
        def wrapper(*args, **kwargs):
            return self.timed(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn: Callable, counter: str) -> Callable:
        def wrapper(*args, **kwargs):
            self.count(counter)
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _mul_wrapper(self, fn: Callable) -> Callable:
        # the hottest wrapper: plain attribute updates, no dict lookups
        def wrapper(a, b):
            out = fn(a, b)
            span = self._current
            span.mul_calls += 1
            span.mul_terms += len(out.terms)
            return out
        return wrapper

    # ---- summaries ----

    def totals(self) -> Dict[str, int]:
        """Every counter summed over all spans and the root."""
        out: Dict[str, int] = {"exactalg.poly_mul_calls": 0,
                               "exactalg.poly_mul_terms_out": 0}
        for span in [self._root] + self.spans:
            out["exactalg.poly_mul_calls"] += span.mul_calls
            out["exactalg.poly_mul_terms_out"] += span.mul_terms
            for key, n in span.counts.items():
                out[key] = out.get(key, 0) + n
        return out

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost occurrences
        only), self seconds and inclusive Poly multiplications."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                             "poly_mul_calls": 0})
            dur = span.end - span.start
            row["calls"] += 1
            row["self_s"] += dur - span.children_s
            if not span.nested:
                row["incl_s"] += dur
                row["poly_mul_calls"] += span.incl_mul_calls
        return out

    def uncovered_s(self, top_name: str) -> float:
        """Time inside spans named top_name not covered by their children."""
        return sum(s.end - s.start - s.children_s for s in self.spans
                   if s.name == top_name)

    def records(self) -> List[Dict[str, object]]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                for s in self.spans]

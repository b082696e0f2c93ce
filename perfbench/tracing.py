"""Spans around the public functions of refinemask, installed from outside.

Nothing in the package changes.  A method is wrapped on its class; a
function is rebound in its defining module and in every refinemask module
that imported it by name, so calls between modules are seen too.  Each call
opens a span whose parent is the innermost open span; on close it adds to

* calls    -- every call, recursive ones included,
* total_s  -- duration of the outermost call of that function only, so a
              recursion is not counted twice,
* self_s   -- duration minus the time its child spans cover.

Spans are aggregated in memory as they close; nothing is written while the
timed loop runs.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, qualified name) of every traced function; the per-layer table in
# BENCHMARK.json says which end-to-end metric each should move, and where.
LAYERS = (
    ("polynomial", "Polynomial.translate"),
    ("polynomial", "Polynomial.finite_difference"),
    ("polynomial", "Polynomial.shrink"),
    ("polynomial", "Polynomial.antiderivative"),
    ("polynomial", "Polynomial.__call__"),
    ("algebra", "solve_upper_triangular"),
    ("algebra", "solve_vandermonde_dual"),
    ("algebra", "parse_rational"),
    ("algebra", "Matrix.apply"),
    ("mask", "reduce_mod_difference"),
    ("mask", "Mask.convolve"),
    ("mask", "Mask.__add__"),
    ("mask", "Mask.parse"),
    ("refinement", "refine_apply"),
    ("refinement", "verify_refines"),
    ("refinement", "mask_from_poly"),
    ("refinement", "poly_from_mask"),
    ("refinement", "equivalence_witness"),
    ("refinement", "extend_mask"),
    ("refinement", "mask_from_poly_at_nodes"),
    ("refinement", "refinement_matrix"),
    ("refinement", "cascade"),
    ("cli", "main"),
)
LAYER_NAMES = tuple(f"{mod}.{qual}" for mod, qual in LAYERS)
# The rows of the per-layer table: the workload each row should dominate.
DOMINANT_ON = {
    "ladder": ("polynomial.Polynomial.translate", "polynomial.Polynomial.finite_difference",
               "polynomial.Polynomial.shrink", "refinement.refine_apply",
               "refinement.verify_refines", "algebra.solve_upper_triangular",
               "refinement.mask_from_poly"),
    "ladder+coset": ("refinement.poly_from_mask", "polynomial.Polynomial.antiderivative",
                     "polynomial.Polynomial.__call__"),
    "coset": ("mask.reduce_mod_difference", "mask.Mask.convolve", "mask.Mask.__add__",
              "refinement.equivalence_witness", "refinement.extend_mask",
              "refinement.mask_from_poly_at_nodes", "algebra.solve_vandermonde_dual"),
    "cascade": ("refinement.refinement_matrix", "refinement.cascade", "algebra.Matrix.apply"),
    "cli": ("cli.main", "mask.Mask.parse", "algebra.parse_rational"),
}
MEASURES = (("calls", "count"), ("total_s", "s"), ("self_s", "s"))
QUOTIENT_WIDTH = "mask.reduce_mod_difference.quotient_width_sum"


class Tracer:
    """Aggregated spans for the functions in LAYERS."""

    def __init__(self) -> None:
        self.stats = {name: [0, 0.0, 0.0] for name in LAYER_NAMES}
        self.quotient_width_sum = 0
        self._depth = dict.fromkeys(LAYER_NAMES, 0)
        self._stack = []  # child-time accumulator of each open span
        self._undo = []

    def span(self, name: str, fn):
        stats, depth, stack = self.stats[name], self._depth, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                depth[name] -= 1
                stats[0] += 1
                stats[2] += duration - children[0]
                if not depth[name]:
                    stats[1] += duration
                if stack:
                    stack[-1][0] += duration
            if name == "mask.reduce_mod_difference":
                self.quotient_width_sum += len(result.quotient.coeffs)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "refinemask" or key.startswith("refinemask."))]
        for (mod_name, qual), name in zip(LAYERS, LAYER_NAMES):
            module = sys.modules.get(f"refinemask.{mod_name}")
            if module is None:
                continue
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.span(name, raw.__func__))
                else:
                    wrapped = self.span(name, raw)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(module, qual)
            wrapped = self.span(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self) -> dict:
        out = {}
        for name, values in self.stats.items():
            for (measure, unit), value in zip(MEASURES, values):
                out[f"{name}.{measure}"] = (value, unit)
        return out

    def self_time(self) -> dict:
        return {name: values[2] for name, values in self.stats.items()}

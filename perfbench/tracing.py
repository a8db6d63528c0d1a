"""Spans and counters recorded around the public functions of each ybx
module, from the benchmark's side of the boundary.

A span records its name, its parent span, the request it belongs to and
its start and end.  Functions are wrapped wherever they are bound: a
module that imported a function by name (``from .tensor import embed``)
holds its own reference, so every ``ybx`` module attribute that is the
function gets the wrapper.  Methods and the scalar operators are wrapped
on their class.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# span name -> (module, attribute) for functions, (module, class, method) for methods
SPANS = {
    "cli.main": ("cli", "main"),
    "exprparse.parse_scalar": ("exprparse", "parse_scalar"),
    "catalog.instantiate": ("catalog", "instantiate"),
    "catalog.sample_assignment": ("catalog", "sample_assignment"),
    "systems.verify": ("systems", "verify"),
    "systems.residual": ("systems", "residual"),
    "solver.solve_z_linear": ("solver", "solve_z_linear"),
    "solver.rref": ("solver", "rref"),
    "solver.filter_ybe": ("solver", "filter_ybe"),
    "solver.contains": ("solver", "SolutionSpace", "contains"),
    "solver.apply_transform": ("solver", "apply_transform"),
    "tensor.embed": ("tensor", "embed"),
    "tensor.matmul": ("tensor", "SquareMatrix", "__mul__"),
    "tensor.ybc_const": ("tensor", "ybc_const"),
    "tensor.ybc_colour": ("tensor", "ybc_colour"),
    "tensor.substitute": ("tensor", "SquareMatrix", "substitute"),
    "tensor.inverse": ("tensor", "SquareMatrix", "inverse"),
    "tensor.det": ("tensor", "SquareMatrix", "det"),
    "tensor.conjugate": ("tensor", "conjugate"),
    "tensor.transform": ("tensor", "transform"),
    "tensor.random_matrix": ("tensor", "random_matrix"),
    "tensor.matrix_from_text": ("tensor", "matrix_from_text"),
}

BINARY_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__pow__")
UNARY_OPS = ("__neg__",)

# unit of every per-layer metric besides the per-span calls and self_s
COUNT_UNITS = {
    "scalar.gr_ops": "count", "scalar.poly_ops": "count", "scalar.rf_ops": "count",
    "scalar.max_level": "level",
    "tensor.matmul.dense_ops": "count",
    "systems.tag_cache_hit_ratio": "ratio", "systems.nonzero_entries": "count",
    "solver.rref.cells": "count", "solver.apply_transform.skip_ratio": "ratio",
    "solver.basis_max_bits": "bits", "solver.emitted_terms": "count",
    "catalog.sample_accept_ratio": "ratio",
}


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPANS:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    units.update(COUNT_UNITS)
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index or -1, request, start_ns, end_ns, raised]
        self.stack = []
        self.request = -1
        self.counts = Counter()
        self.scalar_ops = [0, 0, 0]
        self.basis_max_bits = 0
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self, lib):
        modules = [m for n, m in sys.modules.items()
                   if n == "ybx" or n.startswith("ybx.")]
        hooks = self._hooks(lib)
        for name, where in SPANS.items():
            owner = getattr(lib, where[0])
            if len(where) == 3:
                cls = getattr(owner, where[1])
                fn = cls.__dict__[where[2]]
                self._set(cls, where[2], self._wrap(name, fn, hooks.get(name)))
                continue
            fn = getattr(owner, where[1])
            wrapper = self._wrap(name, fn, hooks.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapper)
        self._count_constraint_checks(lib.catalog.ConstraintSet)
        self._count_scalar_ops(lib.scalar)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.request, clock(), 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[4] = clock()
                rec[5] = 1
                stack.pop()
                if after is not None:
                    after(args, None, exc)
                raise
            rec[4] = clock()
            stack.pop()
            if after is not None:
                after(args, result, None)
            return result
        return wrapper

    def _hooks(self, lib):
        counts = self.counts
        SquareMatrix = lib.tensor.SquareMatrix
        GaussianRational = lib.scalar.GaussianRational

        def matmul(args, result, exc):
            if isinstance(result, SquareMatrix):
                counts["tensor.matmul.dense_ops"] += args[0].dim ** 3

        def residual(args, result, exc):
            if result is None:
                return
            sysdef = args[0]
            if isinstance(sysdef, str):
                sysdef = lib.systems.system(sysdef)
            counts["systems.tag_refs"] += sum(
                1 for eq in sysdef.equations for _, tag in eq.triple if tag != "id")
            counts["systems.nonzero_entries"] += sum(e.nonzero_count for e in result.equations)

        def rref(args, result, exc):
            counts["solver.rref.cells"] += len(args[0]) * args[1]

        def apply_transform(args, result, exc):
            if isinstance(exc, lib.errors.NotInvertible):
                counts["solver.apply_transform.skipped"] += 1

        def solve_z_linear(args, result, exc):
            for m in result.basis if result is not None else ():
                for row in m.rows:
                    for x in row:
                        g = x if isinstance(x, GaussianRational) else x.constant_value()
                        for f in (g.re, g.im):
                            self.basis_max_bits = max(self.basis_max_bits,
                                                      f.numerator.bit_length(),
                                                      f.denominator.bit_length())

        def filter_ybe(args, result, exc):
            if result is not None:
                counts["solver.emitted_terms"] += sum(
                    len(eq.terms) if hasattr(eq, "terms") else 1 for eq in result.equations)

        def sample_assignment(args, result, exc):
            if exc is None:
                counts["catalog.sample_points"] += 1

        return {"tensor.matmul": matmul, "systems.residual": residual,
                "solver.rref": rref, "solver.apply_transform": apply_transform,
                "solver.solve_z_linear": solve_z_linear, "solver.filter_ybe": filter_ybe,
                "catalog.sample_assignment": sample_assignment}

    def _count_constraint_checks(self, cls):
        fn = cls.__dict__["check"]
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def check(constraints, assignment):
            if stack and spans[stack[-1]][0] == "catalog.sample_assignment":
                counts["catalog.sample_checks"] += 1
            return fn(constraints, assignment)
        self._set(cls, "check", check)

    def _count_scalar_ops(self, scalar):
        """Count calls into the tower's operators by the higher operand level
        (0 Gaussian rational, 1 polynomial, 2 rational function)."""
        Scalar = scalar.Scalar
        level = {scalar.GaussianRational: 0, scalar.Polynomial: 1,
                 scalar.RationalFunction: 2}.get
        ops = self.scalar_ops

        def binary(fn):
            @functools.wraps(fn)
            def op(a, b):
                la, lb = level(type(a), 0), level(type(b), 0)
                ops[la if la >= lb else lb] += 1
                return fn(a, b)
            return op

        def unary(fn):
            @functools.wraps(fn)
            def op(a):
                ops[level(type(a), 0)] += 1
                return fn(a)
            return op

        for attr in BINARY_OPS:
            self._set(Scalar, attr, binary(Scalar.__dict__[attr]))
        for attr in UNARY_OPS:
            self._set(Scalar, attr, unary(Scalar.__dict__[attr]))

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer values: calls and self time per span name, plus counts."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, parent, _, start, end, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = Counter()
        self_ns = Counter()
        transforms_in_residual = 0
        for k, (name, parent, _, start, end, _) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[k]
            if (name == "tensor.transform" and parent >= 0
                    and spans[parent][0] == "systems.residual" and not spans[parent][5]):
                transforms_in_residual += 1
        out = {}
        for name in SPANS:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_ns[name] / 1e9
        c = self.counts
        gr, poly, rf = self.scalar_ops
        out["scalar.gr_ops"] = gr
        out["scalar.poly_ops"] = poly
        out["scalar.rf_ops"] = rf
        out["scalar.max_level"] = max((k + 1 for k in range(3) if self.scalar_ops[k]),
                                      default=0)
        out["tensor.matmul.dense_ops"] = c["tensor.matmul.dense_ops"]
        out["systems.tag_cache_hit_ratio"] = _ratio(
            c["systems.tag_refs"] - transforms_in_residual, c["systems.tag_refs"])
        out["systems.nonzero_entries"] = c["systems.nonzero_entries"]
        out["solver.rref.cells"] = c["solver.rref.cells"]
        out["solver.apply_transform.skip_ratio"] = _ratio(
            c["solver.apply_transform.skipped"], calls["solver.apply_transform"])
        out["solver.basis_max_bits"] = self.basis_max_bits
        out["solver.emitted_terms"] = c["solver.emitted_terms"]
        out["catalog.sample_accept_ratio"] = _ratio(
            c["catalog.sample_points"], c["catalog.sample_checks"])
        return out

    def write(self, path):
        names = sorted(SPANS)
        index = {n: k for k, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "parent", "request", "start_ns", "end_ns",
                                  "raised"],
                       "spans": [[index[s[0]]] + s[1:] for s in self.spans]}, fh)


def _ratio(num, den):
    """num / den, or 0 when nothing was counted."""
    return num / den if den else 0.0

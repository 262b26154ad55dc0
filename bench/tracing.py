"""Outside-in layer tracing for the benchmark's traced run.

The tracer wraps public functions of tensorcrit's modules, plus numpy's
``einsum`` and ``linalg.solve``, from the benchmark's side.  A wrapped
name is replaced on every tensorcrit module that binds it (``solver``
imports ``sym_hessian`` by name, ``oracle`` imports ``sym_gradient``, the
package re-exports nearly everything), so each call path reaches the
wrapper.  Spans stay in memory as [name, start, end, parent, item] and are
written out when the run ends.  A span's self time is its duration minus
the time its child spans cover.

Spans and counts are recorded only inside ``Tracer.item``; calls made
elsewhere (the benchmark's own output checks) pass straight through.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

SETUP = "setup"
ITEM_SPAN = "bench.item"


def _search_done(tracer, args, result):
    tracer.count("solver.points_returned", len(result))


def _dedupe_done(tracer, args, result):
    tracer.count("solver.dedupe.points_in", len(args[0]))
    tracer.count("solver.dedupe.points_out", len(result))


def _audit_done(tracer, args, result):
    tracer.count("morse.audit.violations", len(result.violations))


def _circle_done(tracer, args, result):
    tracer.count("oracle.circle.points", len(result.points))


def _cli_done(tracer, args, result):
    # The benchmark captures each cli.main call's stdout in a fresh StringIO.
    getvalue = getattr(sys.stdout, "getvalue", None)
    if getvalue is not None:
        tracer.count("cli.report_bytes", len(getvalue().encode()))


def _einsum_done(tracer, args, result):
    tracer.einsum_calls.append(
        (args[0], [np.shape(op) for op in args[1:]], sum(np.asarray(op).nbytes for op in args[1:]) + result.nbytes)
    )


def _solve_done(tracer, args, result):
    tracer.count("kernel.linsolve.rows", math.prod(np.shape(args[0])[:-2]))


# (module, function, span name, hook on return)
TRACED = [
    ("tensorcrit.core", "max_asymmetry", "core.symmetry_check", None),
    ("tensorcrit.core", "evaluate", "core.contraction", None),
    ("tensorcrit.core", "mode_gradient", "core.contraction", None),
    ("tensorcrit.core", "sym_gradient", "core.contraction", None),
    ("tensorcrit.core", "sym_hessian", "core.contraction", None),
    ("tensorcrit.core", "random_tensor", "core.random_tensor", None),
    ("tensorcrit.solver", "symmetric_eigenpairs", "solver.search", _search_done),
    ("tensorcrit.solver", "mode_eigenpairs", "solver.search", _search_done),
    ("tensorcrit.solver", "generalized_eigenpairs", "solver.search", _search_done),
    ("tensorcrit.solver", "singular_tuples", "solver.search", _search_done),
    ("tensorcrit.solver", "classify_index", "solver.classify_index", None),
    ("tensorcrit.solver", "dedupe", "solver.dedupe", _dedupe_done),
    ("tensorcrit.morse", "audit", "morse.audit", _audit_done),
    ("tensorcrit.oracle", "circle_critical_points", "oracle.circle", _circle_done),
    ("tensorcrit.oracle", "svd_small", "oracle.svd_small", None),
    ("tensorcrit.cli", "main", "cli.main", _cli_done),
    ("numpy", "einsum", "kernel.einsum", _einsum_done),
    ("numpy.linalg", "solve", "kernel.linsolve", _solve_done),
]

# Per-layer metrics in output order: (name, unit).
PER_LAYER = [
    ("core.symmetry_check.calls", "count"),
    ("core.symmetry_check.self_s", "s"),
    ("core.contraction.calls", "count"),
    ("core.contraction.self_s", "s"),
    ("core.random_tensor.self_s", "s"),
    ("solver.search.calls", "count"),
    ("solver.search.self_s", "s"),
    ("solver.points_returned", "count"),
    ("solver.classify_index.calls", "count"),
    ("solver.classify_index.self_s", "s"),
    ("solver.dedupe.calls", "count"),
    ("solver.dedupe.points_in", "count"),
    ("solver.dedupe.points_out", "count"),
    ("solver.dedupe.self_s", "s"),
    ("solver.dedupe.kept_ratio", "ratio"),
    ("solver.degenerate_raised", "count"),
    ("kernel.einsum.calls", "count"),
    ("kernel.einsum.self_s", "s"),
    ("kernel.einsum.computed_flop", "flop"),
    ("kernel.einsum.computed_bytes", "B"),
    ("kernel.linsolve.calls", "count"),
    ("kernel.linsolve.rows", "count"),
    ("kernel.linsolve.self_s", "s"),
    ("morse.audit.calls", "count"),
    ("morse.audit.self_s", "s"),
    ("morse.audit.violations", "count"),
    ("oracle.circle.calls", "count"),
    ("oracle.circle.self_s", "s"),
    ("oracle.circle.points", "count"),
    ("oracle.svd_small.calls", "count"),
    ("oracle.svd_small.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.report_bytes", "B"),
    ("bench.item.self_s", "s"),
    ("trace.overhead_share", "ratio"),
]


def einsum_flop(subscripts, shapes):
    """Flop of an unoptimized einsum, computed from its operand shapes.

    numpy's single-pass einsum visits every point of the joint index space
    once and does one multiply per extra operand plus one add there.
    """
    inputs = subscripts.replace(" ", "").partition("->")[0]
    dims = {}
    for term, shape in zip(inputs.split(","), shapes):
        dims.update(zip(term, shape))
    return math.prod(dims.values()) * len(shapes)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.einsum_calls = []
        self._stack = []
        self._item = None

    def count(self, name, value=1):
        self.counts[name] += value

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._item])

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextmanager
    def item(self, item_id):
        """Record spans and counts for one item, under a root span."""
        self._item = item_id
        self._open(ITEM_SPAN)
        try:
            yield
        finally:
            self._close()
            self._item = None

    def _wrap(self, fn, name, done, degenerate_error):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._item is None:
                return fn(*args, **kwargs)
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close()
                if name == "solver.search" and isinstance(exc, degenerate_error) and tracer._item != SETUP:
                    tracer.count("solver.degenerate_raised")
                raise
            tracer._close()
            if done is not None and tracer._item != SETUP:
                done(tracer, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, tc):
        """Wrap every traced function wherever tensorcrit or numpy binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "tensorcrit" or n.startswith("tensorcrit.")]
        patches = []
        for modname, fname, name, done in TRACED:
            original = getattr(sys.modules[modname], fname)
            wrapper = self._wrap(original, name, done, tc.DegenerateTensorError)
            owners = modules if modname.startswith("tensorcrit") else [sys.modules[modname]]
            for mod in owners:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, original in reversed(patches):
                setattr(mod, attr, original)

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, item in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - c for (name, start, end, parent, item), c in zip(self.spans, covered)]

    def layer_metrics(self, overhead_share):
        """Per-layer metrics over the traced items; random_tensor over set-up."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for (name, start, end, parent, item), s in zip(self.spans, self.self_times()):
            if item == SETUP:
                if name == "core.random_tensor":
                    self_s[name] += s
                continue
            calls[name] += 1
            self_s[name] += s
        values = dict(self.counts)
        for _, _, name, _ in TRACED:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_s"] = self_s[name]
        values["bench.item.self_s"] = self_s[ITEM_SPAN]
        values["kernel.einsum.computed_flop"] = sum(einsum_flop(s, shapes) for s, shapes, _ in self.einsum_calls)
        values["kernel.einsum.computed_bytes"] = sum(nbytes for _, _, nbytes in self.einsum_calls)
        points_in = values.get("solver.dedupe.points_in", 0)
        values["solver.dedupe.kept_ratio"] = values.get("solver.dedupe.points_out", 0) / points_in if points_in else 0.0
        values["trace.overhead_share"] = overhead_share
        return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "item"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

"""Layer tracing for the sppa benchmark, installed from outside the package.

``Tracer.install`` replaces functions and methods of ``sppa`` with wrappers
that record one span per call: name, start, end, parent span and instance.
Nothing under ``src/`` knows about it, and ``uninstall`` puts every original
back.  Spans stay in memory until ``dump`` writes them out.

The benchmark runs in one process with no threads, so spans nest strictly
and no layer ever waits on another: there are busy times and counts, but no
wait times to report.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import time
from collections import Counter, defaultdict

# (sppa module, class or None, attribute, span name); the private names are
# milp internals, and a layer whose name is gone is reported as absent
LAYERS = (
    ("loop", None, "build_iteration_model", "loop.build"),
    ("mcmodel", None, "encode_term", "mcmodel.encode"),
    ("milp", None, "solve_milp", "milp.solve"),
    ("milp", "_Canon", "__init__", "milp.canon"),
    ("milp", None, "_simplex", "milp.simplex"),
    ("milp", "_Basis", "__init__", "milp.factor"),
    ("milp", "_Basis", "ftran", "milp.ftran"),
    ("milp", "_Basis", "btran", "milp.btran"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []  # index of the enclosing span, -1 for a root
        self.instances: list[str] = []
        self.instance = ""  # id stamped on the spans opened from now on
        self.counts: Counter = Counter()  # work counted at the layer boundaries
        self.maxima: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []  # span names whose sppa attribute is missing
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording a span per call; ``on_result`` sees each result
        after the span has closed."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, instances, stack = self.parents, self.instances, self._stack

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            instances.append(self.instance)
            ends.append(0.0)
            stack.append(i)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching sppa ------------------------------------------------------

    def install(self):
        hooks = {
            "loop.build": self._count_model,
            "milp.solve": self._count_solve,
            "milp.simplex": self._count_simplex,
        }
        for module, cls, attr, name in LAYERS:
            owner = importlib.import_module(f"sppa.{module}")
            if cls is not None:
                owner = getattr(owner, cls, None)
            original = None if owner is None else owner.__dict__.get(attr)
            if original is None:
                self.absent.append(name)
                continue
            setattr(owner, attr, self.wrap(name, original, hooks.get(name)))
            self._originals.append((owner, attr, original))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def traced_spec(self, spec):
        """A copy of ``spec`` whose nonlinear term functions record spans."""
        terms = [dataclasses.replace(t, fn=self.wrap("expr.eval", t.fn))
                 for t in spec.nonlinear_terms]
        return dataclasses.replace(spec, nonlinear_terms=terms)

    def _count_model(self, model):
        lp = getattr(model, "lp", None)
        if lp is None:
            return
        for key, value in (
            ("loop.model_vars_max", len(lp.lb)),
            ("loop.model_rows_max", len(lp.rows)),
            ("loop.model_nnz_max", sum(len(row.coeffs) for row in lp.rows)),
            ("loop.model_binaries_max", sum(lp.is_int)),
        ):
            self.maxima[key] = max(self.maxima[key], value)

    def _count_solve(self, res):
        self.counts["milp.nodes"] += getattr(res, "nodes", 0)

    def _count_simplex(self, res):
        self.counts["milp.pivots"] += getattr(res, "iterations", 0)
        if getattr(res, "status", None) == "infeasible":
            self.counts["milp.infeasible_nodes"] += 1

    # -- reading the spans --------------------------------------------------

    def totals(self) -> tuple[dict, dict, Counter]:
        """Per span name: inclusive seconds, self seconds and calls.  Self
        time is a span's duration minus that of its direct children."""
        child = [0.0] * len(self.starts)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            incl[name] += dur
            own[name] += dur - child[i]
            calls[name] += 1
        return incl, own, calls

    def first_per_instance(self, name: str) -> float:
        """Sum over instances of the duration of their first ``name`` span."""
        seen: set[str] = set()
        total = 0.0
        for i, n in enumerate(self.names):
            if n == name and self.instances[i] not in seen:
                seen.add(self.instances[i])
                total += self.ends[i] - self.starts[i]
        return total

    def dump(self, path):
        """Write the spans as JSON columns; times are seconds after the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        table = sorted(set(self.names))
        index = {n: k for k, n in enumerate(table)}
        inst_table = sorted(set(self.instances))
        inst_index = {n: k for k, n in enumerate(inst_table)}
        doc = {
            "names": table,
            "instances": inst_table,
            "columns": ["name", "start_s", "end_s", "parent", "instance"],
            "spans": [[index[n], s - t0, e - t0, p, inst_index[ins]]
                      for n, s, e, p, ins in zip(self.names, self.starts, self.ends,
                                                 self.parents, self.instances)],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))

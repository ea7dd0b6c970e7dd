"""Spans around the package's public functions, installed from outside it.

``Tracer.installed(package)`` replaces every module attribute of the package
that binds a public function with a wrapper that records a span, and puts
the originals back on exit.  ``scipy``'s ``minimize``, ``cKDTree`` and
``quad``, as bound in ``functionals`` and ``quadrature``, are wrapped as well
to count optimizer evaluations, neighbour pairs and integrand calls.

A span records its name, parent, task, start, end, the time its child spans
cover and a dict of counts.  Counts added inside a span go to every open
span, so ``X.points`` is the number of points passed to analytic calls made
while ``X`` was running.  Calls that ``analytic`` makes to itself (``derivative``
of an annulus cover evaluating ``f``, ``sample_circle`` calling ``evaluate``)
are internal: they get no span and add no points.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import re
import sys
import time
from collections import defaultdict

# Argument holding the sample points of each analytic entry point:
# (position, keyword); sample_circle's points are its count m.
POINT_ARGS = {
    "analytic.evaluate": (1, "z"),
    "analytic.derivative": (1, "z"),
    "analytic.second_derivative": (1, "z"),
    "analytic.sample_circle": (2, "m"),
}


class Span:
    __slots__ = ("name", "parent", "task", "start", "end", "child", "counts")

    def __init__(self, name, parent, task, start):
        self.name = name
        self.parent = parent
        self.task = task
        self.start = start
        self.end = start
        self.child = 0.0
        self.counts = {}


class Tracer:
    def __init__(self, critical_radius):
        # critical_radius(coeffs) -> smallest |z| with f'(z) = 0; an oracle
        # used to count false "univalent" verdicts as they happen.
        self.critical_radius = critical_radius
        self.spans = []
        self.stack = []
        self.task = ""

    # ---- recording ----

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, parent, self.task, time.perf_counter())
        self.stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child += span.end - span.start
        self.spans.append(span)

    def add(self, key, n):
        for span in self.stack:
            span.counts[key] = span.counts.get(key, 0) + n

    # ---- wrappers ----

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.counts[_count_name(type(exc).__name__)] = 1
                raise
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return wrapper

    def _wrap_analytic(self, name, fn):
        tracer = self
        pos, key = POINT_ARGS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.stack and tracer.stack[-1].name.startswith("analytic."):
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                if pos is not None:
                    arg = args[pos] if len(args) > pos else kwargs[key]
                    tracer.add("points", int(arg) if key == "m" else _size(arg))
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    def _after_univalence(self, span, args, kwargs, result):
        spec, r = args[0], args[1] if len(args) > 1 else kwargs["r"]
        coeffs = getattr(spec, "coeffs", None)
        if result.ok and coeffs is not None and self.critical_radius(coeffs) < r:
            span.counts["false_univalent"] = 1

    def _after_n_diameter(self, span, args, kwargs, result):
        if "restart_disagreement" in result.flags:
            span.counts["restart_disagreements"] = 1

    def _after_minimize(self, span, args, kwargs, result):
        # Called after the span closed: add() reaches only its ancestors.
        span.counts["nfev"] = int(result.nfev)
        self.add("nfev", int(result.nfev))

    def _counting_quad(self, quad):
        tracer = self

        def traced_quad(fn, *args, **kwargs):
            calls = 0

            def counted(*x):
                nonlocal calls
                calls += 1
                return fn(*x)

            try:
                return quad(counted, *args, **kwargs)
            finally:
                tracer.add("integrand_evals", calls)

        return self._wrap("quadrature.quad", traced_quad)

    def _counting_tree(self, tree_cls):
        tracer = self

        class CountingTree:
            def __init__(self, *args, **kwargs):
                self._tree = tree_cls(*args, **kwargs)

            def query_ball_point(self, *args, **kwargs):
                groups = self._tree.query_ball_point(*args, **kwargs)
                tracer.add("kd_pairs", sum(len(g) for g in groups))
                return groups

            def __getattr__(self, attr):
                return getattr(self._tree, attr)

        CountingTree.query_ball_point = self._wrap(
            "functionals.cKDTree.query_ball_point", CountingTree.query_ball_point
        )

        def make_tree(*args, **kwargs):
            return CountingTree(*args, **kwargs)

        return self._wrap("functionals.cKDTree", make_tree)

    @contextlib.contextmanager
    def installed(self, package):
        prefix = package.__name__
        modules = [m for n, m in sorted(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]
        after = {
            "functionals.is_univalent_sampled": self._after_univalence,
            "functionals.n_diameter": self._after_n_diameter,
        }
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    name = f"{short}.{attr}"
                    if short == "analytic":
                        wrappers[id(obj)] = (obj, self._wrap_analytic(name, obj))
                    else:
                        wrappers[id(obj)] = (obj, self._wrap(name, obj, after.get(name)))
        patches = []
        for mod in modules:
            for attr, obj in vars(mod).items():
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    patches.append((mod, attr, obj, entry[1]))
        functionals = sys.modules[prefix + ".functionals"]
        quadrature = sys.modules[prefix + ".quadrature"]
        patches += [
            (functionals, "minimize", functionals.minimize,
             self._wrap("functionals.minimize", functionals.minimize, self._after_minimize)),
            (functionals, "cKDTree", functionals.cKDTree, self._counting_tree(functionals.cKDTree)),
            (quadrature, "quad", quadrature.quad, self._counting_quad(quadrature.quad)),
        ]
        for mod, attr, _, wrapper in patches:
            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original, _ in patches:
                setattr(mod, attr, original)

    # ---- results ----

    def stats(self, spans=None):
        """Per span name: calls, self_s and the summed counts."""
        out = defaultdict(lambda: defaultdict(float))
        for span in self.spans if spans is None else spans:
            entry = out[span.name]
            entry["calls"] += 1
            entry["self_s"] += (span.end - span.start) - span.child
            for key, n in span.counts.items():
                entry[key] += n
        return out

    def write(self, path):
        """All spans as gzipped JSON lines: id, parent id, task, name, times, counts."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for i, span in enumerate(self.spans):
                parent = ids.get(id(span.parent)) if span.parent is not None else None
                handle.write(json.dumps(
                    [i, parent, span.task, span.name, span.start, span.end, span.counts]
                ))
                handle.write("\n")


def _count_name(exc_name):
    """ResourceError -> resource_errors."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", exc_name).lower() + "s"


def _size(z):
    size = getattr(z, "size", None)
    return int(size) if size is not None else 1

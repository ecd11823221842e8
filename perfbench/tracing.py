"""Spans and counts taken from outside onebitfb.

Each traced layer function is replaced, in the module namespace where its
callers look it up, by a wrapper that opens a span, calls the original and
closes the span.  Spans stay in memory as (name, parent, start, end) and are
written out when the run ends.  Nothing here changes what the wrapped
functions compute.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.open_names: Counter = Counter()
        self.counts: Counter = Counter()
        self._undo: list[tuple] = []

    def wrap(self, module, attr: str, name: str, before=None, after=None):
        """Replace ``module.attr`` by a spanned wrapper until :meth:`restore`.

        ``before(args)`` may return replacement positional arguments;
        ``after(args, result)`` sees each result.
        """
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(self.spans)
            self.spans.append([name, self.stack[-1] if self.stack else -1, time.perf_counter(), None])
            self.stack.append(idx)
            self.open_names[name] += 1
            try:
                result = orig(*args, **kwargs)
            finally:
                self.spans[idx][3] = time.perf_counter()
                self.stack.pop()
                self.open_names[name] -= 1
            if after is not None:
                after(args, result)
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, orig))

    def replace(self, module, attr: str, value):
        """Swap ``module.attr`` for ``value`` until :meth:`restore`."""
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self):
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        A span's self time is its duration minus the time its child spans
        cover.  Spans come from one thread and nest strictly, so children of
        one span never overlap and their durations add up to that cover.
        """
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for (name, _, t0, t1), c in zip(self.spans, child):
            s = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["s"] += t1 - t0
            s["self_s"] += t1 - t0 - c
        return out

    def write(self, path, extra: dict):
        """Write every span and count, plus ``extra``, as one JSON document."""
        doc = {
            "spans_columns": ["name", "parent", "start_s", "end_s"],
            "spans": self.spans,
            "counts": dict(self.counts),
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


class _CountingGenerator:
    """A numpy Generator that counts the variates each draw returns."""

    _KINDS = {"standard_normal": "mcsim.normals", "random": "mcsim.uniforms"}

    def __init__(self, gen: np.random.Generator, counts: Counter):
        self._gen = gen
        self._counts = counts

    def __getattr__(self, attr):
        fn = getattr(self._gen, attr)
        kind = self._KINDS.get(attr, "mcsim.other_draws")
        if not callable(fn):
            return fn

        def draw(*args, **kwargs):
            out = fn(*args, **kwargs)
            self._counts[kind] += int(np.size(out))
            return out

        return draw


class _RandomNamespace:
    def __init__(self, counts: Counter):
        self._counts = counts

    def default_rng(self, *args, **kwargs):
        self._counts["mcsim.chunks"] += 1
        return _CountingGenerator(np.random.default_rng(*args, **kwargs), self._counts)

    def __getattr__(self, attr):
        return getattr(np.random, attr)


class CountingNumpy:
    """Stands in for ``numpy`` inside one module; counts its Generator draws."""

    def __init__(self, counts: Counter):
        self.random = _RandomNamespace(counts)

    def __getattr__(self, attr):
        return getattr(np, attr)


def install(tracer: Tracer, pkg) -> None:
    """Wrap the layer boundaries of the onebitfb modules in ``pkg``."""

    def count_elements(args, result):
        tracer.counts["specfun.marcum_q1.elements"] += int(np.size(result))

    def count_integrand(args):
        f = args[0]

        def integrand(x):
            tracer.counts["specfun.integrand_evals"] += 1
            return f(x)

        return (integrand,) + tuple(args[1:])

    def sum_rate_context(args):
        if tracer.open_names["ergodic.optimal_threshold"]:
            tracer.counts["ergodic.sum_rate.in_optimizer"] += 1
        if tracer.open_names["ergodic.rate_at_ebn0"]:
            tracer.counts["ergodic.sum_rate.in_inversion"] += 1
        return args

    def count_blocks(args, result):
        tracer.counts["mcsim.blocks"] += args[0].n_blocks

    for mod in (pkg.ergodic, pkg.outage):
        tracer.wrap(mod, "marcum_q1", "specfun.marcum_q1", after=count_elements)
    tracer.wrap(pkg.ergodic, "integrate_semi_infinite", "specfun.integrate_semi_infinite",
                before=count_integrand)
    tracer.wrap(pkg.ergodic, "sum_rate", "ergodic.sum_rate", before=sum_rate_context)
    tracer.wrap(pkg.ergodic, "optimal_threshold", "ergodic.optimal_threshold")
    tracer.wrap(pkg.ergodic, "rate_at_ebn0", "ergodic.rate_at_ebn0")
    tracer.wrap(pkg.outage, "outage_outdated", "outage.outage_outdated")
    for attr in ("simulate_ergodic_rate", "simulate_outage"):
        tracer.wrap(pkg.mcsim, attr, "mcsim.simulate", after=count_blocks)
    tracer.replace(pkg.mcsim, "np", CountingNumpy(tracer.counts))
    tracer.wrap(pkg.cli, "main", "cli.main")


# Per-layer metrics: (name, unit).  Counts and times are per round of the
# workload's fixed operations, so they compare across runs of any length.
LAYER_METRICS = [
    ("specfun.marcum_q1.calls", "count"),
    ("specfun.marcum_q1.elements", "count"),
    ("specfun.marcum_q1.self_s", "s"),
    ("specfun.marcum_q1.ns_per_element", "ns"),
    ("specfun.integrate_semi_infinite.calls", "count"),
    ("specfun.integrate_semi_infinite.self_s", "s"),
    ("specfun.integrand_evals", "count"),
    ("ergodic.sum_rate.calls", "count"),
    ("ergodic.sum_rate.self_s", "s"),
    ("ergodic.optimal_threshold.calls", "count"),
    ("ergodic.optimal_threshold.s", "s"),
    ("ergodic.sum_rate_per_optimizer", "count"),
    ("ergodic.rate_at_ebn0.calls", "count"),
    ("ergodic.rate_at_ebn0.s", "s"),
    ("ergodic.sum_rate_per_inversion", "count"),
    ("outage.outage_outdated.calls", "count"),
    ("outage.outage_outdated.self_s", "s"),
    ("mcsim.simulate.s", "s"),
    ("mcsim.blocks", "count"),
    ("mcsim.chunks", "count"),
    ("mcsim.blocks_per_s", "1/s"),
    ("mcsim.normals_per_block", "count"),
    ("mcsim.uniforms_per_block", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.rows_written", "count"),
    ("cli.bytes_written", "count"),
]


def layer_metrics(tracer: Tracer, rounds: int, output_counts: dict) -> dict[str, float]:
    """Reduce the spans and counts of ``rounds`` traced rounds to LAYER_METRICS."""
    spans = tracer.summary()
    counts = tracer.counts

    def span(name, key):
        return spans.get(name, {}).get(key, 0) / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("specfun.marcum_q1", "specfun.integrate_semi_infinite", "ergodic.sum_rate",
                 "ergodic.optimal_threshold", "ergodic.rate_at_ebn0", "outage.outage_outdated",
                 "cli.main"):
        m[f"{name}.calls"] = span(name, "calls")
        m[f"{name}.self_s"] = span(name, "self_s")
        m[f"{name}.s"] = span(name, "s")
    elements = counts["specfun.marcum_q1.elements"]
    m["specfun.marcum_q1.elements"] = elements / rounds
    m["specfun.marcum_q1.ns_per_element"] = ratio(spans.get("specfun.marcum_q1", {}).get("self_s", 0.0) * 1e9,
                                                  elements)
    m["specfun.integrand_evals"] = counts["specfun.integrand_evals"] / rounds
    m["ergodic.sum_rate_per_optimizer"] = ratio(counts["ergodic.sum_rate.in_optimizer"],
                                                spans.get("ergodic.optimal_threshold", {}).get("calls", 0))
    m["ergodic.sum_rate_per_inversion"] = ratio(counts["ergodic.sum_rate.in_inversion"],
                                                spans.get("ergodic.rate_at_ebn0", {}).get("calls", 0))
    blocks = counts["mcsim.blocks"]
    m["mcsim.simulate.s"] = span("mcsim.simulate", "s")
    m["mcsim.blocks"] = blocks / rounds
    m["mcsim.chunks"] = counts["mcsim.chunks"] / rounds
    m["mcsim.blocks_per_s"] = ratio(blocks, spans.get("mcsim.simulate", {}).get("s", 0.0))
    m["mcsim.normals_per_block"] = ratio(counts["mcsim.normals"], blocks)
    m["mcsim.uniforms_per_block"] = ratio(counts["mcsim.uniforms"], blocks)
    m["cli.rows_written"] = output_counts.get("cli.rows_written", 0)
    m["cli.bytes_written"] = output_counts.get("cli.bytes_written", 0)
    return {name: float(m[name]) for name, _ in LAYER_METRICS}

"""Spans and counts at the boundaries of biaslab's modules, recorded from
outside the package.

A traced unit is the same ``run_scenario`` call as an untraced one, made with
the boundary functions swapped for timing wrappers: module functions in every
``biaslab`` module that holds them, and a few methods on their classes.
:func:`interposed` restores the originals on exit.  The bytes the process
pool ships to its workers are counted where the pool pickles them
(:func:`pickled_bytes_counted`).
"""

from __future__ import annotations

import json
import multiprocessing.queues
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from biaslab import config, data, mc, measure, regress, rng, scm
from biaslab.causal import iv_wald


class Tracer:
    """Spans ``(unit, name, start, end, parent)`` and per-unit counts, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.unit = 0
        self._stack: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, k: int) -> None:
        self.counts[self.unit][name] += int(k)

    def layer_seconds(self, self_time: tuple[str, ...] = ()) -> dict[int, dict[str, float]]:
        """Per unit, inclusive seconds per span name; self time for ``self_time`` names."""
        child: dict[int, float] = defaultdict(float)
        for _, _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for idx, (u, name, t0, t1, _) in enumerate(self.spans):
            total[u][name] += (t1 - t0) - (child[idx] if name in self_time else 0.0)
        return total

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for idx, (u, name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "unit": u, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.spans)
        t.spans.append([t.unit, self.name, 0.0, 0.0, t._stack[-1] if t._stack else -1])
        t._stack.append(self.idx)
        t.spans[self.idx][2] = perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.idx][3] = perf_counter()
        t._stack.pop()
        return False


# -- counts -----------------------------------------------------------------------


def normals_in_spec(spec: scm.ScmSpec) -> int:
    """Normal draws ``evaluate_scm`` makes for a concrete spec (computed)."""
    n = int(spec.n)
    draws = sum(1 for s in spec.sources if s.kind in ("normal", "clamped_int_normal"))
    draws += sum(1 for e in spec.equations if e.error is not None or e.group_error is not None)
    return n * draws


def _count_fit(tracer: Tracer, result: regress.FitResult, iterative: bool) -> None:
    tracer.count("regress.fits", 1)
    tracer.count("regress.design_cells", result.n_used * len(result.b))
    if iterative:
        tracer.count("regress.iterations", result.iterations)


# -- interposition ----------------------------------------------------------------

# Module functions: (function, span name).  Methods: (class, attribute, span name).
# Span names in SELF_TIME are reported as self time, the rest inclusive.
SELF_TIME = ("mc.record", "config.output_write")


def _boundaries():
    write_output = getattr(config, "_write_output", None)
    if write_output is None:
        raise RuntimeError("biaslab.config._write_output is gone; output emission cannot be traced")
    functions = [
        (rng.derive_substream, "rng.substream"),
        (rng.sample_indices, "rng.sample_indices"),
        (mc.bind_spec, "mc.bind"),
        (scm.evaluate_scm, "scm.evaluate"),
        (scm.mvn_exact, "scm.evaluate"),
        (regress.fit_ols, "regress.fit_ols"),
        (regress.fit_logistic, "regress.iterative"),
        (regress.fit_ordered_logit, "regress.iterative"),
        (iv_wald, "causal.iv_wald"),
        (measure.attenuation_report, "measure.attenuation"),
        (mc.summarize_series, "mc.aggregate"),
        (mc.histogram, "mc.aggregate"),
        (mc.repeated_samples, "mc.pool"),
        (write_output, "config.output_write"),
    ]
    methods = [
        (mc.RangeSpec, "draw", "mc.bind"),
        (mc.RangeSpec, "draw_int", "mc.bind"),
        (data.Dataset, "select_rows", "data.select_rows"),
        (mc.FitStep, "run", "mc.record"),
        (mc.IvStep, "run", "mc.record"),
    ]
    return functions, methods


def _hooks(tracer: Tracer) -> dict:
    """Counts taken from a boundary call's arguments and result, by function."""

    def on_eval(args, _):
        tracer.count("scm.rows_generated", int(args[0].n))
        tracer.count("rng.normals_drawn", normals_in_spec(args[0]))

    def on_mvn(args, _):
        tracer.count("scm.rows_generated", int(args[1]))
        tracer.count("rng.normals_drawn", int(args[1]) * len(args[0].names))

    return {
        scm.evaluate_scm: on_eval,
        scm.mvn_exact: on_mvn,
        regress.fit_ols: lambda a, r: _count_fit(tracer, r, False),
        regress.fit_logistic: lambda a, r: _count_fit(tracer, r, True),
        regress.fit_ordered_logit: lambda a, r: _count_fit(tracer, r, True),
    }


def _wrap(tracer: Tracer, fn, name: str, hook):
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(args, result)
        return result

    traced.__wrapped__ = fn
    return traced


@contextmanager
def interposed(tracer: Tracer, names: tuple[str, ...]):
    """Replace the boundaries whose span name is in ``names`` with timing wrappers."""
    functions, methods = _boundaries()
    hooks = _hooks(tracer)
    wrappers = {id(fn): _wrap(tracer, fn, name, hooks.get(fn)) for fn, name in functions if name in names}
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "biaslab" and not mod_name.startswith("biaslab."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                patched.append((mod, attr, value))
    for cls, attr, name in methods:
        if name in names:
            fn = vars(cls)[attr]
            patched.append((cls, attr, fn))
            wrappers[id(fn)] = _wrap(tracer, fn, name, None)
    for owner, attr, value in patched:
        setattr(owner, attr, wrappers[id(value)])
    try:
        yield
    finally:
        for owner, attr, value in patched:
            setattr(owner, attr, value)


def traced_layers() -> tuple[str, ...]:
    """Every layer but the pool, whose calls are timed on their own."""
    functions, methods = _boundaries()
    names = {name for _, name in functions} | {name for _, _, name in methods}
    return tuple(sorted(names - {"mc.pool"}))


@contextmanager
def pickled_bytes_counted(tracer: Tracer, name: str = "mc.pickled_bytes"):
    """Count the bytes that multiprocessing queues pickle in this process.

    A process pool's feeder thread pickles each chunk of tasks with
    ``multiprocessing.queues._ForkingPickler.dumps`` before it sends them to
    a worker; results come back unpickled, so this counts what the pool
    ships out.
    """
    base = multiprocessing.queues._ForkingPickler

    class Counting(base):
        @classmethod
        def dumps(cls, obj, protocol=None):
            buf = base.dumps(obj, protocol)
            tracer.count(name, len(buf))
            return buf

    multiprocessing.queues._ForkingPickler = Counting
    try:
        yield
    finally:
        multiprocessing.queues._ForkingPickler = base

"""In-memory spans and counts, and the wrappers that record them.

Every wrapper is installed from outside the library, on a public entry point
(a module function, a class method, a density callable or the generator
passed as ``rng=``).  `Instrumentation.restore` puts each original back, so a
timed phase that follows a traced pass runs the library's own code.

A span is one call of a wrapped entry point.  Spans nest on one stack; the
self time of a span is its duration minus the time covered by the spans it
encloses.  Spans are aggregated per (name, label) as they close, where the
label is the sampler kind the runner is driving, and written out when the
benchmark ends.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.label = ""
        # (name, label) -> [calls, total seconds, self seconds]
        self.spans: dict = {}
        self.counts: dict = defaultdict(int)
        self.in_step = 0
        self._stack: list = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn, step: bool = False):
        """Wrap ``fn`` so that each call records one span called ``name``."""
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            if step:
                tracer.in_step += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                if step:
                    tracer.in_step -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                key = (name, tracer.label)
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child[0]

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn, rows: bool = False):
        """Wrap ``fn`` so that each call adds to a count and nothing else.

        With ``rows`` the count grows by the leading dimension of the first
        argument (rows of a batch), otherwise by one.
        """
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            counts[(name, tracer.label)] += args[0].shape[0] if rows else 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, n: int = 1):
        self.counts[(name, self.label)] += n

    # -- reading -------------------------------------------------------------

    def _select(self, table: dict, name: str, label):
        return [v for (n, lab), v in table.items()
                if n == name and (label is None or lab == label)]

    def calls(self, name: str, label=None) -> int:
        return sum(v[0] for v in self._select(self.spans, name, label))

    def total(self, name: str, label=None) -> float:
        return sum(v[1] for v in self._select(self.spans, name, label))

    def self_time(self, name: str, label=None) -> float:
        return sum(v[2] for v in self._select(self.spans, name, label))

    def n(self, name: str, label=None) -> int:
        return sum(self._select(self.counts, name, label))

    def dump(self) -> dict:
        """Spans and counts as plain JSON-ready data."""
        return {
            "spans": [{"name": n, "label": lab, "calls": c, "total_s": t, "self_s": s}
                      for (n, lab), (c, t, s) in sorted(self.spans.items())],
            "counts": [{"name": n, "label": lab, "count": c}
                       for (n, lab), c in sorted(self.counts.items())],
        }


class CountingRng:
    """Proxy for a numpy ``Generator`` that records a span per draw call.

    It hands every call to the wrapped generator, so a chain driven through
    it draws exactly the stream it would draw without it.
    """

    def __init__(self, rng, tracer: Tracer):
        self._rng = rng
        self._tracer = tracer
        self._methods: dict = {}

    def __getattr__(self, name):
        fn = self._methods.get(name)
        if fn is None:
            attr = getattr(self._rng, name)
            if not callable(attr):
                return attr
            fn = self._methods[name] = self._tracer.span("rng", attr)
        return fn


class Instrumentation:
    """Installs wrappers on the imcmc modules and undoes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []

    def patch(self, owner, attr: str, wrapper):
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, step: bool = False):
        self.patch(owner, attr, self.tracer.span(name, owner.__dict__[attr], step=step))

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- the layers ----------------------------------------------------------

    def install(self, m, full: bool):
        """Wrap the library's entry points.

        ``m`` maps module short names to the imported imcmc modules.  Without
        ``full`` only the evaluation counters of the grid and batch targets go
        in (those of the CLI targets ride on the densities the workload builds
        with `traced_density`); with ``full`` every layer is wrapped.
        """
        t = self.tracer
        logpdf, grad = target_wrappers(t, full)
        grid = m["targets"].GridDensity
        self.patch(grid, "logpdf", logpdf(grid.__dict__["logpdf"]))
        self.patch(grid, "grad", grad(grid.__dict__["grad"]))
        batch = m["batch"]
        for factory in ("mog2_batch", "logreg_batch"):
            self.patch(batch, factory, self._batch_target_factory(batch.__dict__[factory], full))
        if not full:
            return
        core, maps, samplers = m["core"], m["maps"], m["samplers"]
        diagnostics, suite, cli = m["diagnostics"], m["suite"], m["cli"]

        self.span(core.ImcmcKernel, "step", "core.step", step=True)
        self.span(core.DeterministicKernel, "step", "core.step", step=True)
        self.span(samplers.LookAheadKernel, "step", "samplers.look_ahead_step", step=True)
        self.span(core.ImcmcKernel, "joint_logpdf", "core.joint_logpdf")
        self.span(core.AuxiliaryConditional, "sample", "core.aux_sample")
        self.span(core.AuxiliaryConditional, "logpdf", "core.aux_logpdf")
        self.span(core, "log_accept", "core.log_accept")
        for attr in ("with_x", "with_v", "with_slot", "with_tag", "with_continuous"):
            self.patch(core.JointPoint, attr,
                       t.counter("core.point_copies", core.JointPoint.__dict__[attr]))

        self.span(core.Involution, "forward", "maps.involution")
        self.span(maps, "leapfrog", "maps.leapfrog")
        self.span(maps, "leapfrog_inverse", "maps.leapfrog")
        self.span(maps.CouplingMap, "forward_arrays", "maps.coupling")
        self.span(maps.CouplingMap, "inverse_arrays", "maps.coupling")

        tm = self._matrix_span(diagnostics.transition_matrix)
        self.patch(diagnostics, "transition_matrix", tm)
        self.patch(suite, "transition_matrix", tm)
        self.span(diagnostics, "transition_matrix_direct", "diagnostics.transition_matrix_direct")
        for cls in (core.ImcmcKernel, core.DeterministicKernel, samplers.LookAheadKernel):
            self.span(cls, "enumerate_step", "diagnostics.enumerate_step")
        ess = t.span("diagnostics.ess", diagnostics.ess_batch_means)
        self.patch(diagnostics, "ess_batch_means", ess)
        self.patch(cli, "ess_batch_means", ess)

        for part in ("involutions", "stationarity", "balance", "reductions"):
            self.span(suite, f"run_{part}", f"suite.{part}")

        self.span(batch, "batch_coupling_forward", "batch.coupling")
        self.span(batch, "batch_coupling_inverse", "batch.coupling")
        for runner in ("batch_mala", "batch_irr_mala", "batch_nice_mc", "batch_irr_nice_mc"):
            self.span(batch, runner, "batch.runner")

    def _batch_target_factory(self, factory, full: bool):
        t = self.tracer

        def wrapped(*args, **kwargs):
            bt = factory(*args, **kwargs)
            logpdf, grad = bt.logpdf, bt.grad
            if full:
                logpdf = t.span("batch.target", logpdf)
                grad = None if grad is None else t.span("batch.target", grad)
            logpdf = t.counter("batch.target_rows", logpdf, rows=True)
            grad = None if grad is None else t.counter("batch.target_rows", grad, rows=True)
            return type(bt)(dim=bt.dim, logpdf=logpdf, grad=grad)

        return wrapped

    def _matrix_span(self, fn):
        t = self.tracer
        inner = t.span("diagnostics.transition_matrix", fn)

        def wrapped(kernel, states, *args, **kwargs):
            t.count(f"diagnostics.matrix_key:{kernel.name}:{len(states)}")
            return inner(kernel, states, *args, **kwargs)

        return wrapped


def target_wrappers(tracer: Tracer, full: bool):
    """Wrappers for a target's ``logpdf`` and ``grad`` callables.

    Each evaluation is counted; with ``full`` it is also a span, and a
    ``logpdf`` call made outside any kernel step (the initial-state check of
    ``run_chain``) is counted apart as well.
    """

    def logpdf(fn):
        def wrapper(*args):
            tracer.counts[("targets.logpdf", tracer.label)] += 1
            if full and not tracer.in_step:
                tracer.counts[("targets.init_logpdf", tracer.label)] += 1
            return fn(*args)
        return tracer.span("targets.logpdf", wrapper) if full else wrapper

    def grad(fn):
        if fn is None:
            return None
        wrapper = tracer.counter("targets.grad", fn)
        return tracer.span("targets.grad", wrapper) if full else wrapper

    return logpdf, grad


def traced_density(density, tracer: Tracer, full: bool):
    """A copy of a ``LogDensity`` whose callables go through `target_wrappers`."""
    logpdf, grad = target_wrappers(tracer, full)
    return type(density)(dim=density.dim, logpdf=logpdf(density.logpdf),
                         grad=grad(density.grad))

"""Benchmark runner for imcmc.

    python3 perfbench/run.py --workload chains_mog2 --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  The library is imported from ``src/``; the
runner needs nothing else of the repository.  One process, one thread: the
BLAS thread count is pinned to 1 before numpy is imported.

``--trace 0`` prints the end-to-end metrics, measured with nothing wrapped.
``--trace 1`` prints the per-layer metrics, taken from a pass with every layer
wrapped (see ``spans.py``), plus the tracing overhead.  The last line of
standard output is the result object; the line before it, also written under
``.bench_build/perfbench/``, holds the details (machine fingerprint, sizes,
per-kind figures, checks and, when traced, every span).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from metrics import END_TO_END, TIME_POWER, layer_metrics  # noqa: E402
from spans import Instrumentation, Tracer  # noqa: E402
from workloads import WORKLOADS, Check  # noqa: E402

MODULES = ("errors", "core", "maps", "targets", "samplers", "diagnostics",
           "suite", "batch", "cli")
SETUP_REPS = 5       # one before the reference pass, the rest in the timed phase
WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench")


class Timer:
    """Named wall-clock totals, for the spans the runner opens itself."""

    def __init__(self):
        self.totals = defaultdict(float)

    @contextlib.contextmanager
    def __call__(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.totals[name] += time.perf_counter() - t0

    def wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            with self(name):
                return fn(*args, **kwargs)
        return wrapper


def _loaded_imcmc() -> dict:
    return {n: mod for n, mod in sys.modules.items() if n == "imcmc" or n.startswith("imcmc.")}


def import_imcmc() -> dict:
    """Import imcmc afresh (dropping any copy already loaded)."""
    for name in _loaded_imcmc():
        del sys.modules[name]
    importlib.import_module("imcmc")
    return {n: importlib.import_module(f"imcmc.{n}") for n in MODULES}


def setup_once(workload) -> tuple[float, dict, dict]:
    """Import imcmc afresh and build the workload's objects, timed."""
    timer = Timer()
    t0 = time.perf_counter()
    with timer("import"):
        m = import_imcmc()
    cli = m["cli"]
    load = cli.load_dataset
    cli.load_dataset = timer.wrap("cli.load_dataset", load)
    try:
        workload.setup(m, timer)
    finally:
        cli.load_dataset = load
    return time.perf_counter() - t0, dict(timer.totals), m


def tail(values: list) -> tuple[float, float]:
    """Highest percentile with at least ten values beyond it, and its rank.

    With 20 values or fewer that percentile is at or below the median, which
    is no tail; the maximum is returned with percentile 100 instead.
    """
    s = sorted(values)
    n = len(s)
    if n <= 20:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def fingerprint() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS",
                                                         "OMP_NUM_THREADS",
                                                         "MKL_NUM_THREADS")},
    }


class Gauge:
    """The machine's speed over a run, read off fixed library-free loops.

    On a shared machine one core's speed shifts by up to ~2x, for seconds or
    for minutes, and by different amounts for different kinds of work.  So
    each workload names the loops that stand in for its own mix (``GAUGE``):
    interpreter work with small numpy calls, dense matrix-vector products
    (a logistic likelihood and its gradient), or vectorized arithmetic on
    (100, 2) arrays.  The loops run after every op and every repetition; the
    run's speed factor is their reference time over their median time, and
    a duration times the factor is the duration on a machine where the
    loops take their reference time.  The library never runs inside the
    loops, so a change to the library cannot move the factor.  The garbage
    collector is off inside them: a collection of the run's heap would time
    the heap, not the machine.
    """

    REF_S = {"interpreter": 0.0015, "dense": 0.0013, "vector": 0.0016}

    def __init__(self, loops):
        self.loops = [getattr(self, f"_{name}") for name in loops]
        self.ref_s = sum(self.REF_S[name] for name in loops)
        rng = np.random.default_rng(0)
        self.design = rng.standard_normal((1000, 25))
        self.weights = 0.1 * rng.standard_normal(25)
        self.labels = (rng.random(1000) < 0.5).astype(float)
        self.rows = np.linspace(-1.0, 1.0, 200).reshape(100, 2)
        self.samples = []

    def _interpreter(self):
        a = np.arange(4.0)
        table = {}
        acc = 0.0
        for i in range(300):
            b = a * 1.5 + i
            acc += math.sqrt(float(b @ b))
            table[i % 31] = (i, acc)
            acc += len(table) + table[i % 31][0]

    def _dense(self):
        for i in range(20):
            z = self.design @ (self.weights + 0.001 * i)
            float(np.sum(self.labels * z - np.logaddexp(0.0, z)))
            self.design.T @ (self.labels - 1.0 / (1.0 + np.exp(-z)))

    def _vector(self):
        x = self.rows
        for i in range(100):
            y = x * 1.5 + 0.01 * i
            z = np.exp(np.minimum(y, 0.0))
            s = np.sum(z * y, axis=1)
            np.where(s > 0.0, y[:, 0], y[:, 1])

    def sample(self):
        gc.disable()
        try:
            t0 = time.perf_counter()
            for loop in self.loops:
                loop()
            self.samples.append(time.perf_counter() - t0)
        finally:
            gc.enable()

    def factor(self) -> float:
        return self.ref_s / statistics.median(self.samples)


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    os.makedirs(WORKDIR, exist_ok=True)
    workload = WORKLOADS[name](seed, WORKDIR)
    workload.make_inputs()
    gauge = Gauge(workload.GAUGE)
    dt, layers, m = setup_once(workload)
    setups, setup_layers = [dt], [layers]

    # reference pass: untimed, counters (and in a traced run every wrapper) on
    tracer = Tracer()
    inst = Instrumentation(tracer)
    inst.install(m, full=traced)
    try:
        workload.reference(m, tracer, traced)
        checks = workload.checks(m)
        summary = workload.summary(m, tracer)
    finally:
        inst.restore()

    # The machine's speed drifts over seconds, so the repeated set-ups and
    # oracle verifications are spread evenly through the timed phase rather
    # than run back to back.
    verify = []

    def setup_rep():
        # A shallow copy keeps the seed-made inputs and leaves the objects the
        # ops run on alone.  The live modules go back into sys.modules after,
        # because imcmc imports some of its own names lazily, at call time.
        live = _loaded_imcmc()
        try:
            dt, layers, _ = setup_once(copy.copy(workload))
        finally:
            for mod in _loaded_imcmc():
                del sys.modules[mod]
            sys.modules.update(live)
        setups.append(dt)
        setup_layers.append(layers)

    def verify_rep():
        # a rep is VERIFY_PASSES oracle passes, so that a short one is not
        # all timer noise
        passes = workload.VERIFY_PASSES
        t0 = time.perf_counter()
        ok = all([workload.verify(m) for _ in range(passes)])
        verify.append((time.perf_counter() - t0) / passes)
        checks.append(Check("oracle.verify", ok))

    side = [setup_rep] * (SETUP_REPS - 1)
    if not workload.VERIFY_IN_OPS:
        # verify, setup, verify, ..., verify
        side = [verify_rep] + [task for rep in side for task in (rep, verify_rep)]

    # timed phase: whole rounds of ops until the measuring time is spent
    ops = []
    side_s = 0.0
    done = 0
    start = time.perf_counter()
    while True:
        for _ in range(workload.round_size()):
            ops.append(workload.op(m))
            gauge.sample()
        measured = time.perf_counter() - start - side_s
        if done < len(side) and measured >= (done + 1) * seconds / (len(side) + 1):
            t0 = time.perf_counter()
            side[done]()
            side_s += time.perf_counter() - t0
            done += 1
            gauge.sample()
        if measured >= seconds:
            break
    for task in side[done:]:
        task()
    if workload.VERIFY_IN_OPS:
        verify = [parts["verify"] for _, _, parts in ops]

    e2e = workload.end_to_end(m, summary, ops)
    op_ms = [1e3 * dt for dt, _, _ in ops]
    tail_ms, tail_pct = tail(op_ms)
    as_measured = {
        "setup_s": statistics.median(setups),
        "chain_steps_per_s": e2e["chain_steps_per_s"],
        "ess_per_s": e2e["ess_per_s"],
        "ess_per_1k_evals": e2e["ess_per_1k_evals"],
        "op_ms.p50": statistics.median(op_ms),
        "op_ms.tail": tail_ms,
        "verify_s": statistics.median(verify),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    speed = gauge.factor()
    values = {k: v * speed ** TIME_POWER[k] if k in workload.GAUGED else v
              for k, v in as_measured.items()}
    names = {k for lay in setup_layers for k in lay}
    setup_layers = {k: statistics.median(lay.get(k, 0.0) for lay in setup_layers)
                    for k in names}
    failed_ops = sum(not ok for _, ok, _ in ops)
    failed_checks = sum(not c.passed for c in checks)
    attempted = len(ops) + len(checks)
    failed = failed_ops + failed_checks

    if traced:
        # the traced pass is not normalized, so compare it as measured
        metrics = layer_metrics(tracer, summary, setup_layers,
                                workload.traced_rate(summary),
                                as_measured["chain_steps_per_s"])
        units = {n: u for n, u, _ in metrics}
        metric_values = {n: v for n, _, v in metrics}
    else:
        units = {n: u for n, u, _, _ in END_TO_END}
        metric_values = values

    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "fingerprint": fingerprint(),
        "params": workload.params(),
        "end_to_end": values,
        "end_to_end_as_measured": as_measured,
        "speed": {"factor": speed, "gauge": list(workload.GAUGE), "ref_s": gauge.ref_s,
                  "median_s": statistics.median(gauge.samples),
                  "min_s": min(gauge.samples), "max_s": max(gauge.samples),
                  "samples": len(gauge.samples)},
        "ops": len(ops), "failed_ops": failed_ops,
        "op_ms": op_ms,
        "op_ms_tail_percentile": tail_pct,
        "fail_frac": failed / attempted,
        "verify_reps": len(verify),
        "setup_reps": len(setups),
        "setup_layers_s": setup_layers,
        "per_kind": summary,
        "checks": [vars(c) for c in checks],
    }
    if traced:
        detail["per_layer"] = metric_values
        detail["spans"] = tracer.dump()
    return {
        "detail": detail,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": float(metric_values[n]), "unit": units[n]}
                        for n in units},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "imcmc")):
        print(f"error: no imcmc sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        importlib.import_module("imcmc")
    except ImportError as exc:
        print(f"error: cannot import imcmc: {exc}", file=sys.stderr)
        return 2

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    text = json.dumps(out["detail"], sort_keys=True)
    path = os.path.join(WORKDIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print(text)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's tracer still finds every name it wraps, and puts it back.

`perfbench/spans.py` wraps library entry points by name from outside the
package; a renamed or deleted name would otherwise surface only when a
traced benchmark run starts.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = ("errors", "core", "maps", "targets", "samplers", "diagnostics",
           "suite", "batch", "cli")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _namespaces(mods):
    """Every module namespace, and that of every class the modules define."""
    out = {}
    for name, mod in mods.items():
        out[name] = dict(vars(mod))
        for attr, val in vars(mod).items():
            if isinstance(val, type) and val.__module__ == mod.__name__:
                out[f"{name}.{attr}"] = dict(vars(val))
    return out


def _changed(before, after):
    return {f"{ns}.{attr}" for ns, names in before.items()
            for attr, val in names.items() if after[ns].get(attr) is not val}


def test_instrumentation_installs_and_restores_every_original():
    spans = _load_spans()
    mods = {n: importlib.import_module(f"imcmc.{n}") for n in MODULES}
    before = _namespaces(mods)
    inst = spans.Instrumentation(spans.Tracer())
    try:
        inst.install(mods, full=True)
        wrapped = _changed(before, _namespaces(mods))
    finally:
        inst.restore()
    assert {"maps.leapfrog", "maps.leapfrog_inverse", "maps.CouplingMap.forward_arrays",
            "batch.batch_coupling_forward", "batch.logreg_batch",
            "core.ImcmcKernel.step"} <= wrapped
    assert not _changed(before, _namespaces(mods))


def _bench_under_tracer(full):
    """`cmd_bench` on mog2 at 3 chains x 50 steps, once per bench kind, with
    the tracer's wrappers installed; returns the tracer, the config, the
    kinds and each kind's row."""
    spans = _load_spans()
    mods = {n: importlib.import_module(f"imcmc.{n}") for n in MODULES}
    cli = mods["cli"]
    cfg = cli.RunConfig(kind="", target="mog2", steps=50, burn_in=10, chains=3,
                        seed=1, params={"eps": 0.1})
    tracer = spans.Tracer()
    inst = spans.Instrumentation(tracer)
    rows = {}
    try:
        inst.install(mods, full=full)
        for kind in cli.BENCH_KINDS:
            tracer.label = kind
            rows[kind] = cli.cmd_bench(cfg, [kind])[0]
    finally:
        inst.restore()
    return tracer, cfg, cli.BENCH_KINDS, rows


@pytest.mark.parametrize("full", [False, True])
def test_bench_finds_the_wrapped_batch_functions_when_called(full):
    """`cmd_bench` looks its batch target, row runner and ESS up when called,
    so rows run under the tracer are counted; a name bound at import would
    keep the unwrapped original and count nothing."""
    tracer, cfg, kinds, _ = _bench_under_tracer(full)
    for kind in kinds:
        assert tracer.n("batch.target_rows", kind) > 0, kind
        if full:
            assert tracer.calls("batch.runner", kind) == 1, kind
            assert tracer.calls("diagnostics.ess", kind) == cfg.chains, kind


@pytest.mark.parametrize("full", [False, True])
def test_bench_counts_every_row_each_runner_asks_for(full):
    """The benchmark's ``ess_per_1k_evals`` divides by ``batch.target_rows``:
    a row counts once per ``logpdf`` and once per ``grad`` call.  The tracer
    rebuilds the target without its fused ``value_and_grad``, so a Langevin
    runner's ``value_and_grad`` call counts each row twice, where the plain
    target makes one component pass.  So mala and irr_mala count 2 x 3 rows
    at the start and per step, and the coupling chains 3; these are the
    counts from before the pass was shared."""
    tracer, _, kinds, _ = _bench_under_tracer(full)
    assert {kind: tracer.n("batch.target_rows", kind) for kind in kinds} == {
        "mala": 306, "irr_mala": 306, "nice_mc": 153, "irr_nice_mc": 153}


@pytest.mark.parametrize("full", [False, True])
def test_bench_rows_under_the_tracer_are_the_plain_rows(full):
    """The tracer rebuilds each bench target as ``LogDensity(dim, logpdf,
    grad)`` without its fused ``value_and_grad``, and the benchmark checks
    each timed row against one taken under the tracer: so both must give
    the same ESS and acceptance, bit for bit."""
    _, cfg, kinds, traced = _bench_under_tracer(full)
    cli = importlib.import_module("imcmc.cli")
    for kind in kinds:
        row = cli.cmd_bench(cfg, [kind])[0]
        assert (row["ess"], row["accept_rate"]) == (
            traced[kind]["ess"], traced[kind]["accept_rate"]), kind

"""Metric names, units and directions, and the per-layer figures.

``BENCHMARK.json`` at the repository root lists the same metrics;
``selftest.py`` checks that the two agree.
"""

from __future__ import annotations

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("chain_steps_per_s", "1/s", "higher", 0.25),
    ("ess_per_s", "1/s", "higher", 0.25),
    ("ess_per_1k_evals", "ess/kevals", "higher", 0.2),
    ("op_ms.p50", "ms", "lower", 0.25),
    ("op_ms.tail", "ms", "lower", 0.25),
    ("verify_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# How each end-to-end metric scales with a duration: the run's speed factor
# (see run.Gauge) multiplies durations and divides rates.  Which metrics a
# workload scales is its GAUGED.
TIME_POWER = {"setup_s": 1, "chain_steps_per_s": -1, "ess_per_s": -1,
              "op_ms.p50": 1, "op_ms.tail": 1, "verify_s": 1}

KINDS = ("rwm", "mala", "irr_mala", "hmc", "persistent_hmc", "look_ahead", "neutra",
         "nice_mc", "irr_nice_mc", "mtm", "lifted_rw", "cdf")
BENCH_KINDS = ("mala", "irr_mala", "nice_mc", "irr_nice_mc")

# (name, unit, better)
PER_LAYER = (
    ("targets.logpdf_per_step", "count", "lower"),
    ("targets.grad_per_step", "count", "lower"),
    ("targets.init_logpdf_per_run_chain", "count", "lower"),
    ("targets.logpdf_us", "us", "lower"),
    ("targets.grad_us", "us", "lower"),
    ("targets.share", "ratio", "higher"),
    *((f"targets.logpdf_per_step.{k}", "count", "lower") for k in KINDS),
    *((f"targets.grad_per_step.{k}", "count", "lower") for k in KINDS),
    ("core.step_us", "us", "lower"),
    ("core.self_share", "ratio", "lower"),
    ("core.joint_logpdf_per_step", "count", "lower"),
    ("core.joint_logpdf_us", "us", "lower"),
    ("core.aux_sample_us", "us", "lower"),
    ("core.aux_logpdf_per_step", "count", "lower"),
    ("core.aux_logpdf_us", "us", "lower"),
    ("core.point_copies_per_step", "count", "lower"),
    ("core.log_accept_us", "us", "lower"),
    *((f"core.accept_rate.{k}", "ratio", "higher") for k in KINDS),
    ("maps.involution_per_step", "count", "lower"),
    ("maps.involution_us", "us", "lower"),
    ("maps.leapfrog_us", "us", "lower"),
    ("maps.leapfrog_share", "ratio", "lower"),
    ("maps.coupling_us", "us", "lower"),
    ("rng.calls_per_step", "count", "lower"),
    ("rng.share", "ratio", "lower"),
    ("samplers.build_ms", "ms", "lower"),
    ("samplers.look_ahead_step_us", "us", "lower"),
    ("diagnostics.ess_ms", "ms", "lower"),
    ("diagnostics.transition_matrix_per_pass", "count", "lower"),
    ("diagnostics.transition_matrix_ms", "ms", "lower"),
    ("diagnostics.enumerate_step_per_pass", "count", "lower"),
    ("diagnostics.enumerate_step_us", "us", "lower"),
    ("diagnostics.matrix_self_share", "ratio", "lower"),
    ("suite.involutions_s", "s", "lower"),
    ("suite.stationarity_s", "s", "lower"),
    ("suite.balance_s", "s", "lower"),
    ("suite.reductions_s", "s", "lower"),
    ("suite.matrix_useful_ratio", "ratio", "higher"),
    *((f"batch.chain_step_ns.{k}", "ns", "lower") for k in BENCH_KINDS),
    ("batch.target_share", "ratio", "higher"),
    ("batch.coupling_share", "ratio", "lower"),
    ("cli.build_ms", "ms", "lower"),
    ("cli.load_dataset_ms", "ms", "lower"),
    ("cli.bench_overhead_share", "ratio", "lower"),
    ("trace.overhead_chain_steps_per_s", "1/s", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
)

STEP_SPANS = ("core.step", "samplers.look_ahead_step")


def _div(a: float, b: float) -> float:
    # a layer the workload never reaches reports 0
    return a / b if b else 0.0


def layer_metrics(tracer, summary: dict, setup_layers: dict,
                  traced_rate: float, untraced_rate: float) -> list:
    """Every PER_LAYER metric as (name, unit, value) from a traced run.

    Per-step figures are over the chain steps of the reference pass, for
    the spans recorded while a sampler kind was running (the oracle's own
    kernel evaluations are kept apart under the "oracle" label).
    """
    kinds = [k for k in summary if "steps" in summary[k]]

    def over(read, name, labels=kinds):
        return sum(read(name, k) for k in labels)

    steps = sum(summary[k]["steps"] for k in kinds)
    runs = sum(summary[k]["run_chain_calls"] for k in kinds)
    step_time = sum(over(tracer.total, s) for s in STEP_SPANS)
    step_self = sum(over(tracer.self_time, s) for s in STEP_SPANS)
    logpdf = over(tracer.n, "targets.logpdf")
    init = over(tracer.n, "targets.init_logpdf")

    def per_call_us(name, labels=kinds):
        return 1e6 * _div(over(tracer.total, name, labels), over(tracer.calls, name, labels))

    v = {
        "targets.logpdf_per_step": _div(logpdf - init, steps),
        "targets.grad_per_step": _div(over(tracer.n, "targets.grad"), steps),
        "targets.init_logpdf_per_run_chain": _div(init, runs),
        "targets.logpdf_us": per_call_us("targets.logpdf"),
        "targets.grad_us": per_call_us("targets.grad"),
        "targets.share": _div(over(tracer.total, "targets.logpdf")
                              + over(tracer.total, "targets.grad"), step_time),
        "core.step_us": 1e6 * _div(step_time, steps),
        "core.self_share": _div(step_self, step_time),
        "core.joint_logpdf_per_step": _div(over(tracer.calls, "core.joint_logpdf"), steps),
        "core.joint_logpdf_us": per_call_us("core.joint_logpdf"),
        "core.aux_sample_us": per_call_us("core.aux_sample"),
        "core.aux_logpdf_per_step": _div(over(tracer.calls, "core.aux_logpdf"), steps),
        "core.aux_logpdf_us": per_call_us("core.aux_logpdf"),
        "core.point_copies_per_step": _div(over(tracer.n, "core.point_copies"), steps),
        "core.log_accept_us": per_call_us("core.log_accept"),
        "maps.involution_per_step": _div(over(tracer.calls, "maps.involution"), steps),
        "maps.involution_us": per_call_us("maps.involution"),
        "maps.leapfrog_us": per_call_us("maps.leapfrog"),
        "maps.leapfrog_share": _div(over(tracer.total, "maps.leapfrog"), step_time),
        "maps.coupling_us": per_call_us("maps.coupling"),
        "rng.calls_per_step": _div(over(tracer.calls, "rng"), steps),
        "rng.share": _div(over(tracer.total, "rng"), step_time),
        "samplers.build_ms": 1e3 * setup_layers.get("samplers.build", 0.0),
        "samplers.look_ahead_step_us": per_call_us("samplers.look_ahead_step"),
        "cli.build_ms": 1e3 * setup_layers.get("cli.build", 0.0),
        "cli.load_dataset_ms": 1e3 * setup_layers.get("cli.load_dataset", 0.0),
        "trace.overhead_chain_steps_per_s": traced_rate - untraced_rate,
        "trace.overhead_share": _div(untraced_rate - traced_rate, untraced_rate),
    }
    for k in KINDS:
        s = summary.get(k, {})
        n = s.get("steps", 0)
        v[f"targets.logpdf_per_step.{k}"] = _div(tracer.n("targets.logpdf", k)
                                                 - tracer.n("targets.init_logpdf", k), n)
        v[f"targets.grad_per_step.{k}"] = _div(tracer.n("targets.grad", k), n)
        v[f"core.accept_rate.{k}"] = s.get("accept_rate", 0.0)

    # exact oracle: one verification pass ran inside the traced pass
    matrices = tracer.calls("diagnostics.transition_matrix")
    keys = {name for (name, _) in tracer.counts if name.startswith("diagnostics.matrix_key:")}
    tm_total = tracer.total("diagnostics.transition_matrix")
    v.update({
        "diagnostics.ess_ms": 1e3 * _div(tracer.total("diagnostics.ess"),
                                         tracer.calls("diagnostics.ess")),
        "diagnostics.transition_matrix_per_pass": matrices,
        "diagnostics.transition_matrix_ms": 1e3 * _div(tm_total, matrices),
        "diagnostics.enumerate_step_per_pass": tracer.calls("diagnostics.enumerate_step"),
        "diagnostics.enumerate_step_us": 1e6 * _div(tracer.total("diagnostics.enumerate_step"),
                                                    tracer.calls("diagnostics.enumerate_step")),
        "diagnostics.matrix_self_share": _div(tracer.self_time("diagnostics.transition_matrix"),
                                              tm_total),
        "suite.involutions_s": tracer.total("suite.involutions"),
        "suite.stationarity_s": tracer.total("suite.stationarity"),
        "suite.balance_s": tracer.total("suite.balance"),
        "suite.reductions_s": tracer.total("suite.reductions"),
        "suite.matrix_useful_ratio": _div(len(keys), matrices),
    })

    # vectorized bench path
    runner = tracer.total("batch.runner")
    bench = tracer.total("cli.bench")
    for k in BENCH_KINDS:
        v[f"batch.chain_step_ns.{k}"] = 1e9 * _div(tracer.total("batch.runner", k),
                                                   summary.get(k, {}).get("chain_steps", 0))
    v.update({
        "batch.target_share": _div(tracer.total("batch.target"), runner),
        "batch.coupling_share": _div(tracer.total("batch.coupling"), runner),
        "cli.bench_overhead_share": _div(bench - runner, bench),
    })
    return [(name, unit, float(v[name])) for name, unit, _ in PER_LAYER]

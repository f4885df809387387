"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout; exits 0 when every check passes.  It checks
that ``BENCHMARK.json`` lists the metrics the runner prints, that a
smoke-size run of every workload prints a well-formed result (untraced and
traced), that two traced runs at one seed give identical exact counts, and
that a chain run in segments equals one unbroken ``run_chain`` bitwise.
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins BLAS threads before numpy loads)
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, ChainsLogreg, ChainsMog2  # noqa: E402

import numpy as np  # noqa: E402

FAILURES: list = []
STATISTICAL = ("mean_x0", "mean_x1", "posterior_mean")


def check(cond: bool, what: str):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def shrink():
    """Smoke sizes: every workload's fixed work cut to a few hundred steps."""
    w = WORKLOADS
    w["chains_mog2"].SPECS = tuple((k, t, p, 2) for k, t, p, _ in ChainsMog2.SPECS)
    w["chains_mog2"].CHAINS, w["chains_mog2"].STEPS, w["chains_mog2"].WINDOW = 1, 100, 50
    w["chains_logreg"].SPECS = tuple((k, t, p, 10) for k, t, p, _ in ChainsLogreg.SPECS)
    w["chains_logreg"].CHAINS, w["chains_logreg"].STEPS = 1, 60
    w["chains_logreg"].WINDOW, w["chains_logreg"].IS_DRAWS = 60, 2000
    w["bench_batch"].CHAINS, w["bench_batch"].STEPS, w["bench_batch"].BURN_IN = 10, 100, 10
    w["verify_oracles"].CHAINS, w["verify_oracles"].STEPS = 1, 100
    w["verify_oracles"].SEG, w["verify_oracles"].WINDOW = 50, 50


def check_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check([(e["name"], e["unit"], e["better"], e["bound"]) for e in spec["end_to_end"]]
          == [tuple(e) for e in END_TO_END], "BENCHMARK.json end_to_end matches metrics.py")
    check([(e["name"], e["unit"], e["better"]) for e in spec["per_layer"]]
          == [tuple(e) for e in PER_LAYER], "BENCHMARK.json per_layer matches metrics.py")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json workloads match the runner's")


def check_result(name: str, traced: bool, out: dict):
    res = out["result"]
    expected = PER_LAYER if traced else END_TO_END
    tag = f"{name} trace={int(traced)}"
    check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    check(isinstance(res["attempted"], int) and res["attempted"] >= 1
          and isinstance(res["failed"], int), f"{tag}: attempted/failed are counts")
    # At smoke size the statistical mean checks see too few steps to hold;
    # every op and every other check must still pass.
    detail = out["detail"]
    hard = [c for c in detail["checks"] if not c["name"].endswith(STATISTICAL)]
    check(detail["failed_ops"] == 0 and all(c["passed"] for c in hard),
          f"{tag}: every op and every exact check passes")
    check(res["failed"] == detail["failed_ops"] + sum(not c["passed"] for c in detail["checks"])
          and res["correct"] == (res["failed"] == 0), f"{tag}: failed counts ops and checks")
    check([(n, m["unit"]) for n, m in res["metrics"].items()]
          == [(e[0], e[1]) for e in expected], f"{tag}: every metric, in order, with its unit")
    check(all(isinstance(m["value"], float) and math.isfinite(m["value"])
              for m in res["metrics"].values()), f"{tag}: values are finite numbers")
    if not traced:
        check(all(m["value"] > 0 for m in res["metrics"].values()),
              f"{tag}: no end-to-end metric is 0")
    json.dumps(res)


def exact_counts(detail: dict) -> dict:
    spans = detail["spans"]
    return {
        "counts": spans["counts"],
        "calls": [(s["name"], s["label"], s["calls"]) for s in spans["spans"]],
        "ess": {k: v["ess"] for k, v in detail["per_kind"].items()},
        "matrix_useful_ratio": detail["per_layer"]["suite.matrix_useful_ratio"],
    }


def check_segmented_chain():
    m = run.import_imcmc()
    cli, core, samplers = m["cli"], m["core"], m["samplers"]
    for kind, target, params, _ in ChainsMog2.SPECS:
        tgt = cli.build_target(target)
        kernel = cli.build_kernel(cli.RunConfig(kind=kind, target=target,
                                                params=dict(params)), tgt)
        init = samplers.default_init(kernel, tgt["x0"])
        whole = core.run_chain(kernel, init, 60, rng=core.make_rng(11))
        rng, point, parts = core.make_rng(11), init, []
        for _ in range(6):
            res = core.run_chain(kernel, point, 10, rng=rng)
            parts.append(res.xs)
            point = res.final
        check(np.array_equal(np.concatenate(parts), whole.xs)
              and np.array_equal(point.x, whole.final.x)
              and np.array_equal(point.v, whole.final.v) and point.tags == whole.final.tags,
              f"{kind}: 6 segments of 10 steps equal one run_chain of 60, bitwise")


def main() -> int:
    src = os.path.join(run.ROOT, "src")
    if not os.path.isdir(os.path.join(src, "imcmc")):
        print(f"error: no imcmc sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    check_benchmark_json()
    check_segmented_chain()
    shrink()
    for name in WORKLOADS:
        check_result(name, False, run.run(name, 3, 0.2, False))
        first = run.run(name, 3, 0.2, True)
        check_result(name, True, first)
        second = run.run(name, 3, 0.2, True)
        check(exact_counts(first["detail"]) == exact_counts(second["detail"]),
              f"{name}: two traced runs at one seed give identical exact counts")
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

"""Target evaluations per step, and the traces that reusing them must keep.

A step needs the target at two points: the current point and the proposal.
The current point is the previous step's proposal or current point, so
`LogDensity` remembers its last two points and every kernel evaluates each
point once.  Reuse changes no arithmetic, so seeded traces stay bitwise
identical to those recorded before evaluations were reused.
"""

import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from imcmc.cli import RunConfig, build_kernel, build_target
from imcmc.core import LogDensity, run_chain
from imcmc.samplers import default_init
from imcmc.targets import mog2

# every CLI kind on its default target
SPECS = {
    "rwm": ("mog2", {"scale": 0.8}),
    "mala": ("mog2", {"eps": 0.05}),
    "irr_mala": ("mog2", {"eps": 0.05}),
    "hmc": ("mog2", {"eps": 0.3, "k": 16}),
    "persistent_hmc": ("mog2", {"eps": 0.3, "k": 1, "alpha": 0.8}),
    "look_ahead": ("mog2", {"eps": 0.3, "K": 4, "alpha": 0.8}),
    "neutra": ("mog2", {"eps": 0.3, "k": 16}),
    "nice_mc": ("mog2", {}),
    "irr_nice_mc": ("mog2", {"alpha": 0.8}),
    "mtm": ("mog2", {"scale": 1.0, "k": 4}),
    "lifted_rw": ("bimodal1d", {"scale": 1.0}),
    "cdf": ("normal1d", {}),
}

# `_digest` of 300 steps from seed 11, recorded while every step still
# evaluated the target at its current point afresh.  neutra with the
# identity flow is HMC, so the two share a trace.
GOLDEN = {
    "rwm": "1f21095f81f2c484",
    "mala": "881957c8c50b6b1e",
    "irr_mala": "69a1ae65eef424d8",
    "hmc": "13e3fd6f2e37fc5e",
    "persistent_hmc": "3448d41a5f68feae",
    "look_ahead": "19fd1a4d7ff1662d",
    "neutra": "13e3fd6f2e37fc5e",
    "nice_mc": "a7a9fb8955eba1bb",
    "irr_nice_mc": "56200ca2e0c75218",
    "mtm": "69f65c6b5a433370",
    "lifted_rw": "1e50fa103afa75cf",
    "cdf": "d9af35caa0abb38e",
}

N = 200


def _kernel(kind, tgt):
    target, params = SPECS[kind]
    return build_kernel(RunConfig(kind=kind, target=target, params=dict(params)), tgt)


def _chain(kind, tgt=None, n=300, seed=11):
    tgt = tgt or build_target(SPECS[kind][0])
    kernel = _kernel(kind, tgt)
    return run_chain(kernel, default_init(kernel, tgt["x0"]), n, seed=seed,
                     record_tags=True)


def _digest(res) -> str:
    h = hashlib.sha256()
    for arr in (res.xs, res.accepted, res.accept_prob, res.tags,
                res.final.x, res.final.v):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def _counting_mog2():
    base, counts = mog2(), {"logpdf": 0, "grad": 0}

    def logpdf(x):
        counts["logpdf"] += 1
        return base.logpdf(x)

    def grad(x):
        counts["grad"] += 1
        return base.grad(x)

    return LogDensity(dim=2, logpdf=logpdf, grad=grad), counts


def _counted_chain(kind):
    density, counts = _counting_mog2()
    res = _chain(kind, {"density": density, "x0": np.array([2.0, 0.0])}, n=N)
    return res, counts


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_seeded_trace_matches_golden(kind):
    assert _digest(_chain(kind)) == GOLDEN[kind]


@pytest.mark.parametrize("kind", ["rwm", "mala", "irr_mala", "nice_mc",
                                  "irr_nice_mc", "persistent_hmc", "hmc"])
def test_one_logpdf_per_step(kind):
    _, counts = _counted_chain(kind)
    # one proposal per step, plus run_chain's check of the initial state
    assert counts["logpdf"] == N + 1


@pytest.mark.parametrize("kind", ["mala", "irr_mala", "persistent_hmc"])
def test_one_grad_per_step(kind):
    _, counts = _counted_chain(kind)
    # one proposal per step, plus the first step's current point
    assert counts["grad"] == N + 1


def test_hmc_grads_per_step():
    res, counts = _counted_chain("hmc")
    # 16 new positions per step; a rejection keeps a start point whose
    # gradient the 16 positions evicted, so the next step evaluates it again
    rejected_before_last = int((~res.accepted[:-1].all(axis=1)).sum())
    assert rejected_before_last > 0
    assert counts["grad"] == 16 * N + 1 + rejected_before_last


def test_memo_is_lru_over_two_points():
    density, counts = _counting_mog2()
    a, b, c = (np.array([t, 0.0]) for t in (0.1, 0.2, 0.3))
    for x in (a, b, a, c, a):
        density.logpdf(x)
    # the hit on a made it the newer entry, so c evicted b and not a
    assert counts["logpdf"] == 3
    density.logpdf(b)
    assert counts["logpdf"] == 4


def test_memo_gradients_are_read_only_and_other_inputs_pass_through():
    density, counts = _counting_mog2()
    x = np.array([0.5, -0.5])
    g = density.grad(x)
    with pytest.raises(ValueError):
        g[0] = 1.0
    assert np.array_equal(density.grad(x.copy()), g) and counts["grad"] == 1
    density.grad([0.5, -0.5])
    density.grad(x.astype(np.float32))
    assert counts["grad"] == 3


def test_threads_sharing_a_density_reproduce_serial_traces():
    tgt = build_target("mog2")
    kinds = ("mala", "irr_mala", "hmc", "rwm")
    kernels = {kind: _kernel(kind, tgt) for kind in kinds}
    # both threads run each chain at once, so they ask for the same points
    jobs = [(kind, seed) for kind in kinds for seed in (1, 1, 2, 2)]

    def run(job):
        kernel = kernels[job[0]]
        return _digest(run_chain(kernel, default_init(kernel, tgt["x0"]), 150,
                                 seed=job[1], record_tags=True))

    serial = [run(job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads finely
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(run, jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_memo_shared_by_threads_returns_each_points_own_result():
    base = mog2()
    density = LogDensity(dim=2, logpdf=base.logpdf)
    points = [np.array([0.1 * i, -0.05 * i]) for i in range(6)]
    want = [base.logpdf(x) for x in points]

    def hammer(offset):
        # the threads cycle through the same points, out of phase
        return sum(density.logpdf(points[j]) != want[j]
                   for j in ((i + offset) % 6 for i in range(10000)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(hammer, offset) for offset in (0, 1, 3, 4)]
            wrong = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert wrong == [0, 0, 0, 0]

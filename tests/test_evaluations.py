"""Target evaluations per step, and the traces that reusing them must keep.

A step needs the target at two points: the current point and the proposal.
The current point is the previous step's proposal or current point, so
`LogDensity` remembers its last two points and every kernel evaluates each
point once.  A kernel that needs the log-density and the gradient at a new
point fetches both through one `value_and_grad` call, which a density may
compute in one fused pass.  Reuse changes no arithmetic, so seeded traces
stay bitwise identical to those recorded before evaluations were reused.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from arithmetic import recorded_on
from imcmc import samplers
from imcmc.cli import RunConfig, build_kernel, build_target
from imcmc.core import LogDensity, run_chain
from imcmc.errors import ConfigError
from imcmc.maps import LeapfrogConfig, leapfrog
from imcmc.samplers import default_init
from imcmc.suite import finite_cases
from imcmc.targets import GridDensity, LogisticPosterior, mog2

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
# identity flow is HMC, so the two share a trace.  look_ahead's was recorded
# again when its cascade stopped re-integrating the reverse trajectories:
# floating-point leapfrog is not exactly reversible, so its accept_prob moved
# in the last bits; the rest of its trace is pinned by LOOK_AHEAD_TRACE.
# The ten mog2 digests were recorded again when mog2 stopped summing
# ``d @ d`` through the BLAS's ``ddot`` and took Python floats instead; the
# new values are the old code's under OPENBLAS_CORETYPE=Nehalem, whose
# ``ddot`` has no fused multiply-adds, and they hold on any BLAS kernel
# (`test_mog2_golden_holds_without_fma_or_avx2`).
GOLDEN = {
    "rwm": "ea02e0b07aad619f",
    "mala": "5fcebcd31b552c64",
    "irr_mala": "98df7f88d4aa6017",
    "hmc": "888e8794cd437ae1",
    "persistent_hmc": "067a81c69a6b1cd4",
    "look_ahead": "f38aa85811b52a30",
    "neutra": "888e8794cd437ae1",
    "nice_mc": "fddbc0d5350b5aad",
    "irr_nice_mc": "9cb079590f618d92",
    "mtm": "8588624646656614",
    "lifted_rw": "1e50fa103afa75cf",
    "cdf": "d9af35caa0abb38e",
}
# the GOLDEN entries that hold only on numpy's SIMD level they were recorded
# on: the coupling calls numpy's `tanh` and `exp`, whose AVX2+ loops round
# otherwise than its baseline ones (`KERNEL_SWAPS`)
GOLDEN_CONFIG = {
    "nice_mc": {"simd": ["AVX512_ICL", "X86_V2", "X86_V3", "X86_V4"]},
    "irr_nice_mc": {"simd": ["AVX512_ICL", "X86_V2", "X86_V3", "X86_V4"]},
}

# look_ahead's `_digest` without accept_prob, recorded with the recursive
# cascade of `_reference_pis`
LOOK_AHEAD_TRACE = "1d9c80a59a3e8120"

# the gradient kinds (and rwm) on `_logreg_target`, with step sizes that
# accept 58-97% of moves
LOGREG_SPECS = {
    "rwm": {"scale": 0.03},
    "mala": {"eps": 0.006},
    "irr_mala": {"eps": 0.001},
    "hmc": {"eps": 0.1, "k": 4},
    "persistent_hmc": {"eps": 0.1, "k": 1, "alpha": 0.8},
}

# `_digest` of 300 steps from seed 11 on `_logreg_target`, recorded again
# when the posterior took its log-cosh form (one product with the half
# design, a `tanh` gradient).  Its bits belong to the BLAS's products and to
# numpy's SIMD `exp`, `log1p` and `tanh`, so they hold only on the
# configuration below.
LOGREG_GOLDEN = {
    "rwm": "5c696fad4af6a982",
    "mala": "1acccbb6513381f5",
    "irr_mala": "4c22b4316d7325e0",
    "hmc": "080b5aba14e268a5",
    "persistent_hmc": "b534156f189a0e5e",
}
LOGREG_GOLDEN_CONFIG = {
    "simd": ["AVX512_ICL", "X86_V2", "X86_V3", "X86_V4"],
    "blas": "scipy-openblas 0.3.31.188.0 (OpenBLAS 0.3.31.188.0  USE64BITINT "
            "DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64)",
    "OPENBLAS_CORETYPE": None,
}


# `_digest` of 2000 steps from seed 11 and each case's first state, for
# finite cases whose proposals are finite conditionals (a Langevin grid, grid
# families, a grid lookup), recorded while `gaussian_slot_conditional` and
# `make_sample_adaptive` still wrote out their own sampling and density code
FINITE_GOLDEN = {
    "mala_grid": "480080da32a70ab7",
    "sample_adaptive_3state": "c4a240cf40a18984",
    "mtm_2state_k2": "2856c5b8f8651596",
    "mh_2state_metropolis": "cce8c19cc728501b",
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


def _logreg_target():
    """A synthetic 400 x 10 logistic posterior: half the covariates normal,
    half 0/1, labels drawn from a random weight vector and bias."""
    rng = np.random.Generator(np.random.Philox(7))
    n, p = 400, 10
    X = rng.standard_normal((n, p))
    X[:, p // 2:] = rng.random((n, p - p // 2)) < 0.5
    w = rng.standard_normal(p)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(X @ w - 0.5)))).astype(float)
    post = LogisticPosterior(X, y)
    return {"density": post.density(), "x0": np.zeros(post.dim), "posterior": post}


def _digest(res, accept_prob=True) -> str:
    h = hashlib.sha256()
    for arr in (res.xs, res.accepted, res.accept_prob if accept_prob else None,
                res.tags, res.final.x, res.final.v):
        if arr is not None:
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def _reference_pis(cascade, z, kmax):
    """Look-ahead weights by the plain recursion on points: each reverse
    cascade from ``flip(T^k z)`` is integrated afresh."""
    lp = cascade.joint(z)
    out, cum, w = [], 0.0, z
    for k in range(1, kmax + 1):
        w, _ = cascade.T.forward(w)
        fz = w.with_slot("v", -w.slot("v"))
        ratio = math.exp(min(cascade.joint(fz) - lp, 50.0))
        inner = 1.0 - math.fsum(_reference_pis(cascade, fz, k - 1)) if k > 1 else 1.0
        out.append(min(1.0 - cum, ratio * inner))
        cum += out[-1]
    return out


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
    assert _digest(_chain(kind)) == GOLDEN[kind], (
        recorded_on(GOLDEN_CONFIG[kind]) if kind in GOLDEN_CONFIG
        else "held on any BLAS kernel and SIMD level")


# Settings that swap the machine's arithmetic kernels, and the kinds whose
# pins each must leave alone.  OPENBLAS_CORETYPE=Nehalem selects OpenBLAS
# kernels without fused multiply-adds; NPY_DISABLE_CPU_FEATURES turns off
# numpy's AVX2 and AVX-512 loops.  nice_mc's and irr_nice_mc's pins belong to
# numpy's AVX2+ `tanh` and `exp`, which their coupling calls and whose
# baseline loops round otherwise (ROADMAP item 3), so they are held only
# under the first.
KERNEL_SWAPS = {
    "openblas_nehalem": ({"OPENBLAS_CORETYPE": "Nehalem"}, ()),
    "numpy_without_avx2": ({"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4"},
                           ("nice_mc", "irr_nice_mc")),
}


@pytest.mark.parametrize("swap", sorted(KERNEL_SWAPS))
def test_mog2_golden_holds_without_fma_or_avx2(swap):
    overrides, exempt = KERNEL_SWAPS[swap]
    # the ten mog2 kinds, and lifted_rw (bimodal1d) and cdf (normal1d)
    kinds = [kind for kind in sorted(SPECS) if kind not in exempt]
    here = Path(__file__).resolve().parent
    # each swap alone, whatever this process itself runs under
    swapped = {key for settings, _ in KERNEL_SWAPS.values() for key in settings}
    env = {key: value for key, value in os.environ.items() if key not in swapped}
    env.update(overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(here.parent / "src"), str(here), env.get("PYTHONPATH")) if p)
    script = ("import json, sys; import test_evaluations as t; "
              "print(json.dumps({k: t._digest(t._chain(k)) for k in sys.argv[1:]}))")
    proc = subprocess.run([sys.executable, "-c", script, *kinds], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {kind: GOLDEN[kind] for kind in kinds}


@pytest.mark.parametrize("kind", sorted(LOGREG_GOLDEN))
def test_seeded_logreg_trace_matches_golden(kind):
    tgt = _logreg_target()
    config = RunConfig(kind=kind, target="logreg", params=dict(LOGREG_SPECS[kind]))
    kernel = build_kernel(config, tgt)
    res = run_chain(kernel, default_init(kernel, tgt["x0"]), 300, seed=11,
                    record_tags=True)
    assert _digest(res) == LOGREG_GOLDEN[kind], recorded_on(LOGREG_GOLDEN_CONFIG)


def test_seeded_finite_case_traces_match_golden():
    cases = {c.name: c for c in finite_cases()}
    got = {}
    for name in FINITE_GOLDEN:
        case = cases[name]
        got[name] = _digest(run_chain(case.kernel, case.states[0], 2000, seed=11,
                                      record_tags=True))
    assert got == FINITE_GOLDEN


def test_look_ahead_trace_matches_the_recursive_cascade():
    tgt = build_target("mog2")
    kernel = _kernel("look_ahead", tgt)
    cascade = kernel.kernels()[1]
    entered = []
    step = cascade.step

    def recording_step(point, rng):
        entered.append(point)
        return step(point, rng)

    cascade.step = recording_step
    res = run_chain(kernel, default_init(kernel, tgt["x0"]), 300, seed=11,
                    record_tags=True)
    assert _digest(res, accept_prob=False) == LOOK_AHEAD_TRACE
    # the cascade's accept probability is the total weight of its moves
    want = [math.fsum(_reference_pis(cascade, z, cascade.K)) for z in entered]
    assert np.max(np.abs(res.accept_prob[:, 1] - want)) <= 1e-12


@pytest.mark.parametrize("K", range(1, 7))
def test_look_ahead_pis_match_the_recursive_cascade(K):
    tgt = build_target("mog2")
    config = RunConfig(kind="look_ahead", target="mog2",
                       params={"eps": 0.3, "K": K, "alpha": 0.8})
    cascade = build_kernel(config, tgt).kernels()[1]
    rng = np.random.default_rng(K)
    worst = 0.0
    for _ in range(200):
        z = cascade.layout.point(2.0 * rng.standard_normal(2),
                                 np.concatenate([rng.standard_normal(2), np.zeros(2)]))
        got, want = cascade.pis(z), _reference_pis(cascade, z, K)
        assert len(got) == K
        worst = max(worst, np.max(np.abs(np.subtract(got, want))))
    assert worst <= 1e-12


@pytest.mark.parametrize("K", [4, 6])
def test_look_ahead_evaluates_each_point_of_its_trajectory_once(K):
    density, counts = _counting_mog2()
    tgt = {"density": density, "x0": np.array([2.0, 0.0])}
    config = RunConfig(kind="look_ahead", target="mog2",
                       params={"eps": 0.3, "K": K, "alpha": 0.8})
    kernel = build_kernel(config, tgt)
    run_chain(kernel, default_init(kernel, tgt["x0"]), N, seed=11)
    # the start point and K new positions, the start point usually remembered
    assert counts["logpdf"] <= (K + 1) * N
    assert counts["grad"] <= (K + 1) * N


def test_mtm_computes_trial_weights_once_per_point():
    res, counts = _counted_chain("mtm")
    k = SPECS["mtm"][1]["k"]
    # A step needs the target at its k trials, its current point, the
    # selected trial, the k - 1 reference points and the current point again
    # (as a trial of the proposal).  Only the k trials and the k - 1
    # reference points are new: the others are read from the trial sets the
    # weight memo last weighed, so each point is evaluated once.
    assert (res.accepted.all(axis=1)).any() and (~res.accepted.all(axis=1)).any()
    assert counts["logpdf"] == 1 + (2 * k - 1) * N


def test_grid_family_weighs_each_center_once(monkeypatch):
    calls = []
    family = samplers.grid_family

    def counting_family(values, logpdf_fn):
        def counted(u, center):
            calls.append(float(center[0]))
            return logpdf_fn(u, center)

        return family(values, counted)

    monkeypatch.setattr(samplers, "grid_family", counting_family)
    # the suite's mala_grid kernel: a Langevin proposal on a 4-point grid
    xs = np.array([-1.5, -0.5, 0.5, 1.5])
    grid = GridDensity(xs, -0.5 * xs ** 2, grad=lambda x: -x)
    langevin = samplers.mala_proposal(grid.density(), 0.3,
                                      support_values=[np.array([u]) for u in xs])
    kernel = samplers.make_mh(grid.density(), langevin)
    moves = []
    acceptance = kernel.acceptance

    def recording(point):
        prob, proposal = acceptance(point)
        moves.append((float(point.x[0]), float(proposal.x[0])))
        return prob, proposal

    monkeypatch.setattr(kernel, "acceptance", recording)
    n_values = xs.size
    res = run_chain(kernel, kernel.layout.point([-1.5], [-1.5]), 1000, seed=5)
    assert res.accepted.mean() < 1.0
    # A step asks for the weights of q(. | mean(x)) at its current point x
    # twice (to draw v, then to score it) and at its proposal once.  The
    # vector is built only when its center is not among the last two, so
    # with one vector per x the calls follow an LRU memo of size two over
    # that sequence of points.
    memo, built = [], 0
    for x, y in moves:
        for key in (x, x, y):
            if key in memo:
                memo.remove(key)
            else:
                built += 1
                del memo[:-1]
            memo.append(key)
    assert len(calls) == n_values * built
    assert len(set(calls)) == n_values
    assert len(calls) <= 2 * n_values * len(moves)


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
    # 16 new positions per step, plus the first step's start point.  The
    # interior positions skip the memo, so it still holds a rejected step's
    # start point when the next step starts there again.
    assert (~res.accepted[:-1].all(axis=1)).sum() > 0
    assert counts["grad"] == 16 * N + 1


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


def _counters(post):
    """Call counts, and ``name -> post.<name>`` wrappers that count into
    them, for a posterior's logpdf, grad and value_and_grad."""
    counts = {"logpdf": 0, "grad": 0, "value_and_grad": 0}

    def counted(name):
        fn = getattr(post, name)

        def wrapper(x):
            counts[name] += 1
            return fn(x)
        return wrapper

    return counts, counted


def _counting_logreg():
    """A small logistic posterior with `_counters` on it."""
    rng = np.random.Generator(np.random.Philox(3))
    post = LogisticPosterior(rng.standard_normal((20, 3)),
                             (rng.random(20) < 0.5).astype(float))
    return (post, *_counters(post))


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "separate"])
@pytest.mark.parametrize("warm", [(), ("logpdf",), ("grad",), ("logpdf", "grad")],
                         ids=["miss", "value_hit", "grad_hit", "both_hit"])
def test_value_and_grad_evaluates_only_what_the_memos_miss(fused, warm):
    post, counts, counted = _counting_logreg()
    density = LogDensity(dim=post.dim, logpdf=counted("logpdf"), grad=counted("grad"),
                         value_and_grad=counted("value_and_grad") if fused else None)
    x = np.array([0.3, -0.2, 0.1, 0.4])
    for name in warm:
        getattr(density, name)(x)
    before = dict(counts)
    value, g = density.value_and_grad(x)
    spent = {name: counts[name] - before[name] for name in counts}
    if fused and not warm:
        want = {"logpdf": 0, "grad": 0, "value_and_grad": 1}
    else:
        want = {"logpdf": int("logpdf" not in warm), "grad": int("grad" not in warm),
                "value_and_grad": 0}
    assert spent == want
    assert value == post.logpdf(x) and np.array_equal(g, post.grad(x))
    with pytest.raises(ValueError):
        g[0] = 1.0
    # both memos now hold the pair
    assert density.logpdf(x) is value and density.grad(x) is g
    again = density.value_and_grad(x.copy())
    assert again[0] is value and again[1] is g
    assert counts == {name: before[name] + want[name] for name in counts}


def test_value_and_grad_passes_other_inputs_through():
    post, counts, counted = _counting_logreg()
    density = LogDensity(dim=post.dim, logpdf=counted("logpdf"), grad=counted("grad"),
                         value_and_grad=counted("value_and_grad"))
    x = np.array([0.3, -0.2, 0.1, 0.4])
    for _ in range(2):
        density.value_and_grad(x)
        density.value_and_grad(x.astype(np.float32))
    # the float64 point is remembered; the float32 one passes through each time
    assert counts == {"logpdf": 0, "grad": 0, "value_and_grad": 3}
    with pytest.raises(ConfigError):
        LogDensity(dim=4, logpdf=post.logpdf, value_and_grad=post.value_and_grad)
    with pytest.raises(ConfigError, match="a float form needs the gradient"):
        LogDensity(dim=2, logpdf=mog2().logpdf, floats=mog2().floats)


@pytest.mark.parametrize("kind,want", [
    # run_chain's initial check is the fused target term of mala
    ("mala", {"logpdf": 0, "grad": 0, "value_and_grad": N + 1}),
    ("irr_mala", {"logpdf": 1, "grad": 1, "value_and_grad": N}),
    # k - 1 interior gradients and a fused endpoint per trajectory
    ("hmc", {"logpdf": 1, "grad": 1 + 3 * N, "value_and_grad": N}),
    ("persistent_hmc", {"logpdf": 1, "grad": 1, "value_and_grad": N}),
    ("rwm", {"logpdf": N + 1, "grad": 0, "value_and_grad": 0}),
])
def test_each_proposal_costs_one_fused_call(kind, want):
    tgt = _logreg_target()
    post = tgt["posterior"]
    counts, counted = _counters(post)
    tgt["density"] = LogDensity(dim=post.dim, logpdf=counted("logpdf"), grad=counted("grad"),
                                value_and_grad=counted("value_and_grad"))
    kernel = build_kernel(RunConfig(kind=kind, target="logreg",
                                    params=dict(LOGREG_SPECS[kind])), tgt)
    res = run_chain(kernel, default_init(kernel, tgt["x0"]), N, seed=11)
    assert (~res.accepted.all(axis=1)).any()
    assert counts == want


def test_leapfrog_remembers_only_its_start_and_endpoint():
    post, counts, counted = _counting_logreg()
    density = LogDensity(dim=post.dim, logpdf=counted("logpdf"), grad=counted("grad"))
    x0, v0 = np.array([0.3, -0.2, 0.1, 0.4]), np.array([1.0, 0.5, -0.5, 0.2])
    cfg = LeapfrogConfig(0.05, 5)
    x, v = leapfrog(x0, v0, cfg, density.grad)
    plain = leapfrog(x0, v0, cfg, post.grad)
    assert np.array_equal(x, plain[0]) and np.array_equal(v, plain[1])
    # k + 1 gradients, and the endpoint's log-density in the same pass
    assert counts == {"logpdf": 1, "grad": cfg.k + 1, "value_and_grad": 0}
    density.grad(x0)
    density.logpdf(x)
    density.grad(x)
    assert counts == {"logpdf": 1, "grad": cfg.k + 1, "value_and_grad": 0}


def test_leapfrog_writes_only_to_arrays_it_owns():
    # the half-kicks update leapfrog's own copy of v in place; the inputs
    # and the memo's results, which it hands to and gets from the gradient,
    # must not change
    post = _counting_logreg()[0]
    density = post.density()
    x0, v0 = np.array([0.3, -0.2, 0.1, 0.4]), np.array([1.0, 0.5, -0.5, 0.2])
    x0.flags.writeable = v0.flags.writeable = False
    saved = x0.copy(), v0.copy()
    cfg = LeapfrogConfig(0.05, 5)
    x, v = leapfrog(x0, v0, cfg, density.grad)
    assert np.array_equal(x0, saved[0]) and np.array_equal(v0, saved[1])
    remembered = [density.grad(x0), density.grad(x), density.logpdf(x)]
    copies = [np.copy(r) for r in remembered]
    plain = leapfrog(x0, v0, cfg, post.grad)
    assert x.tobytes() == plain[0].tobytes() and v.tobytes() == plain[1].tobytes()
    again = leapfrog(x0, v0, cfg, density.grad)
    assert x.tobytes() == again[0].tobytes() and v.tobytes() == again[1].tobytes()
    assert all(np.array_equal(r, c) for r, c in zip(remembered, copies))
    assert np.array_equal(x0, saved[0]) and np.array_equal(v0, saved[1])


def test_threads_sharing_a_density_reproduce_serial_traces():
    _threads_reproduce_serial_traces(("mala", "irr_mala", "hmc", "rwm"))


def test_threads_sharing_an_mtm_kernel_reproduce_serial_traces():
    # one kernel, so the threads also share its memo of trial weights
    # and run different chains at once, so they evict each other's entries
    _threads_reproduce_serial_traces(("mtm",), seeds=(1, 2, 3, 4))


def test_threads_sharing_a_grid_family_reproduce_serial_traces():
    # one mala_grid kernel, so the threads share its memo of grid weights
    case = {c.name: c for c in finite_cases()}["mala_grid"]
    jobs = [(case.states[i], seed) for i in (0, 5) for seed in (1, 1, 2, 3)]

    def run(job):
        return _digest(run_chain(case.kernel, job[0], 300, seed=job[1],
                                 record_tags=True))

    _threads_reproduce_serial(run, jobs)


def _threads_reproduce_serial_traces(kinds, seeds=(1, 1, 2, 2)):
    tgt = build_target("mog2")
    kernels = {kind: _kernel(kind, tgt) for kind in kinds}
    # by default both threads run each chain at once, so they ask for the
    # same points
    jobs = [(kind, seed) for kind in kinds for seed in seeds]

    def run(job):
        kernel = kernels[job[0]]
        return _digest(run_chain(kernel, default_init(kernel, tgt["x0"]), 150,
                                 seed=job[1], record_tags=True))

    _threads_reproduce_serial(run, jobs)


def _threads_reproduce_serial(run, jobs):
    serial = [run(job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads finely
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(run, jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_memos_shared_by_threads_return_each_points_own_pair():
    post = _counting_logreg()[0]
    density = post.density()
    points = [np.array([0.1 * i, -0.05 * i, 0.02 * i, 0.3]) for i in range(6)]
    want = [(post.logpdf(x), post.grad(x)) for x in points]

    def wrong(j, call):
        value, g = want[j]
        if call == 0:
            return density.logpdf(points[j]) != value
        if call == 1:
            return not np.array_equal(density.grad(points[j]), g)
        got = density.value_and_grad(points[j])
        return got[0] != value or not np.array_equal(got[1], g)

    def hammer(offset):
        # the threads cycle through the same points out of phase, each
        # interleaving fused calls with plain logpdf and grad calls
        return sum(wrong((i + offset) % 6, (i // 6 + offset) % 3) for i in range(6000))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(hammer, offset) for offset in (0, 1, 3, 4)]
            wrong_counts = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert wrong_counts == [0, 0, 0, 0]


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

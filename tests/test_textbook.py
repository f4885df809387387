"""Textbook twins: a named kind is its published algorithm, step for step.

The oracles and the statistical tests check that a kernel leaves its target
invariant; they cannot tell a valid kernel from the named one (a MALA that
draws with variance eps instead of 2 eps is still valid).  Here each named
kind is also written as a short loop from its published form, not from the
engine, and one engine step is compared with one twin step from many seeded
start points.  The twin draws from the generator in the engine's order: the
proposal's standard normals, then one uniform for the accept test.

- random-walk Metropolis (Metropolis et al. 1953; Hastings 1970): propose
  ``y = x + scale * xi`` and accept with probability ``min(1, pi(y) /
  pi(x))``;
- MALA (Roberts & Tweedie 1996): propose ``y = m(x) + sqrt(2 eps) * xi``
  with ``m(x) = x + eps * grad log pi(x)``, and accept with probability
  ``min(1, pi(y) q(x | y) / (pi(x) q(y | x)))``, ``q(a | b)`` the normal
  density of ``a`` with mean ``m(b)`` and variance ``2 eps`` per
  coordinate.

Both twins keep numpy's order of operations for the proposal, so the two
steps land on the same point bit for bit and make the same accept decision.
Their acceptance probabilities agree to ``PROB_TOL`` only: the engine takes
the ratio of two joint densities, each the target's log-density plus the
proposal factor's (``log pi(x) + log q(y | x)``), while the twin adds the
log ratios in the textbook's grouping (for rwm the symmetric factor cancels
and is never computed), so the sums round differently.

Run as a script (``python3 tests/test_textbook.py``), it prints rwm's call
events per step (``call`` and ``c_call`` under `sys.setprofile`, seed 1,
after a warm-up chain) in `run_chain` and in a chain of twin steps: the
yardstick for a textbook-speed engine step.
"""

import math
import os
import sys

if __name__ == "__main__":
    # run as a script from a checkout: the library is the one in src/
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "src"))

import numpy as np
import pytest

from imcmc.cli import RunConfig, build_kernel, build_target
from imcmc.core import make_rng, run_chain
from imcmc.targets import standard_normal

# seeded start points per case
STARTS = 200
PROB_TOL = 1e-12


def rwm_twin(logpdf, scale: float, x: np.ndarray, rng: np.random.Generator):
    """One random-walk Metropolis step from ``x``: ``(next x, accepted,
    acceptance probability)``."""
    y = x + scale * rng.standard_normal(x.size)
    log_ratio = logpdf(y) - logpdf(x)
    alpha = 1.0 if log_ratio >= 0.0 else math.exp(log_ratio)
    if rng.random() < alpha:
        return y, True, alpha
    return x, False, alpha


def mala_twin(logpdf, grad, eps: float, x: np.ndarray, rng: np.random.Generator):
    """One MALA step from ``x``: ``(next x, accepted, acceptance
    probability)``."""

    def mean(a):
        return a + eps * grad(a)

    def log_q(a, b):
        # log N(a; m(b), 2 eps I), up to a constant that cancels
        r = a - mean(b)
        return -float(r @ r) / (4.0 * eps)

    y = mean(x) + math.sqrt(2.0 * eps) * rng.standard_normal(x.size)
    log_ratio = logpdf(y) + log_q(x, y) - logpdf(x) - log_q(y, x)
    alpha = 1.0 if log_ratio >= 0.0 else math.exp(log_ratio)
    if rng.random() < alpha:
        return y, True, alpha
    return x, False, alpha


def _targets():
    """mog2, and a 9-d standard normal, whose proposal factor numpy sums."""
    mog2 = build_target("mog2")
    normal9 = {"density": standard_normal(9), "x0": np.zeros(9)}
    return {"mog2": mog2, "normal9": normal9}


CASES = {
    "rwm-mog2": ("rwm", "mog2", {"scale": 0.8}),
    "rwm-mog2-unit": ("rwm", "mog2", {"scale": 1.0}),
    "rwm-normal9": ("rwm", "normal9", {"scale": 0.3}),
    "mala-mog2": ("mala", "mog2", {"eps": 0.05}),
    "mala-normal9": ("mala", "normal9", {"eps": 0.3}),
}


def _engine(kind, target, params):
    tgt = _targets()[target]
    kernel = build_kernel(RunConfig(kind=kind, target=target, params=dict(params)), tgt)
    return kernel, tgt["density"]


def _twin(kind, params, density):
    """``(x, rng) ->`` one twin step on ``density``'s own functions."""
    logpdf = density.logpdf.fn
    if kind == "rwm":
        return lambda x, rng: rwm_twin(logpdf, params["scale"], x, rng)
    return lambda x, rng: mala_twin(logpdf, density.grad.fn, params["eps"], x, rng)


def _starts(dim):
    """Seeded start points, spread over both of mog2's modes and beyond."""
    return 2.0 * make_rng(21).standard_normal((STARTS, dim))


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_engine_step_is_one_twin_step(case):
    kind, target, params = CASES[case]
    kernel, density = _engine(kind, target, params)
    twin = _twin(kind, params, _targets()[target]["density"])
    moved = 0
    for i, x in enumerate(_starts(density.dim)):
        engine_rng, twin_rng = make_rng(1000 + i), make_rng(1000 + i)
        point, accepted, prob = kernel.step(kernel.layout.point(x), engine_rng)
        x_next, twin_accepted, twin_prob = twin(x.copy(), twin_rng)
        assert accepted == twin_accepted, (i, prob, twin_prob)
        assert point.x.tobytes() == x_next.tobytes(), i
        assert abs(prob - twin_prob) <= PROB_TOL, (i, prob, twin_prob)
        # both drew the same numbers from the generator
        assert engine_rng.bit_generator.random_raw() == twin_rng.bit_generator.random_raw()
        moved += accepted
    # the starts exercise both decisions
    assert 0 < moved < STARTS


def _chain_events(step_chain, n):
    counts = [0]

    def profile(frame, event, arg):
        counts[0] += event == "call" or event == "c_call"

    sys.setprofile(profile)
    try:
        step_chain(n)
    finally:
        sys.setprofile(None)
    return counts[0] / n


def rwm_events(n: int = 1000) -> tuple[float, float]:
    """Call events per step of rwm on mog2 at scale 0.8: `run_chain` of the
    engine's kernel, and a loop of twin steps recording the same trace."""
    kind, target, params = CASES["rwm-mog2"]
    kernel, density = _engine(kind, target, params)
    x0 = _targets()[target]["x0"]
    init = kernel.layout.point(x0)
    twin = _twin(kind, params, _targets()[target]["density"])

    def engine(steps):
        run_chain(kernel, init, steps, seed=1)

    def twins(steps):
        rng = make_rng(1)
        xs, acc, prob = np.empty((steps, x0.size)), [], []
        x = x0
        for i in range(steps):
            x, accepted, p = twin(x, rng)
            acc.append(accepted)
            prob.append(p)
            xs[i] = x
        return xs

    engine(100)
    twins(100)
    return _chain_events(engine, n), _chain_events(twins, n)


if __name__ == "__main__":
    engine, twin = rwm_events()
    print(f"rwm events per step: engine {engine:.1f}, twin {twin:.1f}, "
          f"ratio {engine / twin:.2f}")

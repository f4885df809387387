"""Each continuous conditional that a kernel refreshes samples the law its
``logpdf`` scores.

A kernel draws an auxiliary slot with the conditional's ``sample`` and
scores it with its ``logpdf``; the exact oracles only see finite supports,
so a ``sample`` out of step with ``logpdf`` on a continuous slot (draws at
1.3 times the standard deviation that ``logpdf`` scores, say) passes them.
Here every refreshed conditional without finite support in the kernels of
the 12 CLI kinds is checked at one fixed conditioning point: mog2 for every
kind but lifted_rw, which runs on bimodal1d.  A slot holding a block of rows
(multiple-try's trials and reference points) is checked row by row, with
the other rows fixed.

- ``logpdf`` integrates to 1 within ``NORMALIZATION_TOL`` by quadrature: a
  trapezoid rule on a 2-d grid, spectrally accurate on these Gaussian
  conditionals, and ``scipy.integrate.quad`` in 1-d between the edges of
  the support (the half-normal's jumps at one), found by bisection.  A block of n independent rows r integrates to
  ``prod_i Z_i / exp((n - 1) logpdf(r))``, with ``Z_i`` the integral over
  row i alone, the others held at r.
- The mean and each variance of ``N_DRAWS`` seeded draws lie within
  ``SE_BOUND`` standard errors of the quadrature's moments, the standard
  errors coming from the quadrature's variance and fourth central moment.

The tolerances were fixed before the test was first run.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from imcmc.cli import RunConfig, build_kernel, build_target
from imcmc.core import ImcmcKernel
from imcmc.samplers import default_init
from test_evaluations import SPECS

N_DRAWS = 20_000
NORMALIZATION_TOL = 1e-6
SE_BOUND = 5.0
# the quadrature covers the draws' mean +- this many of their standard
# deviations, on GRID_POINTS points a side in 2-d
HALF_WIDTH = 12.0
GRID_POINTS = 61


def _conditionals():
    """``(id, kind, conditional, point, rows)`` for every refreshed
    conditional without finite support, at a point whose auxiliary block is
    a fixed normal draw, so that every slot a conditional may read is set."""
    out = []
    for kind, (target, params) in sorted(SPECS.items()):
        tgt = build_target(target)
        kernel = build_kernel(RunConfig(kind=kind, target=target, params=dict(params)), tgt)
        init = default_init(kernel, tgt["x0"])
        v = 0.7 * np.random.default_rng(5).standard_normal(kernel.layout.v_dim)
        point = kernel.layout.point(tgt["x0"], v, init.tags)
        for sub in kernel.kernels():
            if not isinstance(sub, ImcmcKernel):
                continue
            for slot, cond in sub.aux_refresh:
                if cond.support(point) is None:
                    size = np.size(cond.sample(np.random.default_rng(0), point))
                    out.append((f"{kind}-{sub.name}-{slot}", kind, cond, point,
                                size // tgt["density"].dim))
    return out


CONDITIONALS = _conditionals()


def _draws(cond, point, seed):
    rng = np.random.default_rng(seed)
    return np.array([np.ravel(cond.sample(rng, point)) for _ in range(N_DRAWS)])


def _edge(logpdf_at, outside, inside):
    """The edge of a 1-d support between a point ``outside`` it and a point
    ``inside``, found by bisection to the last bit."""
    while True:
        mid = 0.5 * (outside + inside)
        if mid in (outside, inside):
            return inside
        if logpdf_at(np.array([mid])) == -math.inf:
            outside = mid
        else:
            inside = mid


def _row_quadrature(logpdf_at, draws):
    """``log Z``, mean, variance and fourth central moment of the density
    ``exp(logpdf_at(u))`` over one row u, integrated over the box of the
    row's ``draws``' mean +- ``HALF_WIDTH`` of their standard deviations."""
    center, half = draws.mean(axis=0), HALF_WIDTH * draws.std(axis=0)
    dim = center.size
    if dim == 1:
        lo, hi = center[0] - half[0], center[0] + half[0]
        # quad on a smooth integrand: the box stops at the support's edges
        if logpdf_at(np.array([lo])) == -math.inf:
            lo = _edge(logpdf_at, lo, draws.min())
        if logpdf_at(np.array([hi])) == -math.inf:
            hi = _edge(logpdf_at, hi, draws.max())
        ref = logpdf_at(center)

        def moment(f):
            return integrate.quad(lambda u: f(u) * math.exp(logpdf_at(np.array([u])) - ref),
                                  lo, hi, epsabs=0.0, epsrel=1e-10, limit=200)[0]

        z = moment(lambda u: 1.0)
        mean = moment(lambda u: u) / z
        var = moment(lambda u: (u - mean) ** 2) / z
        m4 = moment(lambda u: (u - mean) ** 4) / z
        return ref + math.log(z), mean, var, m4
    axes = [np.linspace(c - h, c + h, GRID_POINTS) for c, h in zip(center, half)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    logs = np.array([logpdf_at(u) for u in grid])
    # trapezoid weights: the product of the 1-d ones
    w = np.ones(GRID_POINTS)
    w[[0, -1]] = 0.5
    cell = np.prod([a[1] - a[0] for a in axes])
    weights = np.prod(np.stack(np.meshgrid(*[w] * dim, indexing="ij"), axis=-1)
                      .reshape(-1, dim), axis=1) * cell
    top = logs.max()
    p = weights * np.exp(logs - top)
    z = p.sum()
    p = p / z
    mean = p @ grid
    dev = grid - mean
    return top + math.log(z), mean, p @ dev ** 2, p @ dev ** 4


@pytest.mark.parametrize("case", CONDITIONALS, ids=[c[0] for c in CONDITIONALS])
def test_sample_matches_logpdf(case):
    name, _, cond, point, rows = case
    draws = _draws(cond, point, [c[0] for c in CONDITIONALS].index(name))
    d = draws.shape[1] // rows
    block = draws[0]  # the other rows' values while one row varies
    log_total = -(rows - 1) * cond.logpdf(block, point)
    for row in range(rows):
        cols = slice(row * d, (row + 1) * d)

        def logpdf_at(u):
            value = block.copy()
            value[cols] = u
            return cond.logpdf(value, point)

        mine = draws[:, cols]
        log_z, mean, var, m4 = _row_quadrature(logpdf_at, mine)
        log_total += log_z
        se_mean = np.sqrt(var / N_DRAWS)
        se_var = np.sqrt((m4 - var ** 2) / N_DRAWS)
        got_mean, got_var = mine.mean(axis=0), mine.var(axis=0, ddof=1)
        assert np.all(np.abs(got_mean - mean) <= SE_BOUND * se_mean), (row, got_mean, mean)
        assert np.all(np.abs(got_var - var) <= SE_BOUND * se_var), (row, got_var, var)
    assert abs(math.expm1(log_total)) <= NORMALIZATION_TOL


def test_every_kind_with_a_continuous_refresh_is_covered():
    # cdf is deterministic and refreshes nothing
    covered = {c[1] for c in CONDITIONALS}
    assert covered == set(SPECS) - {"cdf"}
    # mtm's trials and reference points, four and three rows
    assert [c[4] for c in CONDITIONALS if c[1] == "mtm"] == [4, 3]

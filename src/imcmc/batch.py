"""Vectorized multi-chain runners for the benchmark samplers.

These step every chain of a batch simultaneously with (chains, dim) arrays,
which is what makes the benchmark table affordable on one core.  Each runner
draws the random stream in the same order as the corresponding kernel-engine
chain.  Coupling maps and the logistic posterior are the engine's own,
applied to rows.  The two-mode target keeps a row copy (`mog2_batch`) whose
sums and ``exp`` can round differently from the scalar target in the last
bit.  So with a single chain and the same seed a runner follows the engine
bitwise for hundreds of steps (the test suite pins 400), but over long runs
on mog2 the two drift apart by rounding: batch MALA first differs from the
engine at step 821 of 20000, by at most 1.3e-15.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .maps import CouplingMap

__all__ = [
    "BatchResult",
    "BatchTarget",
    "batch_coupling_forward",
    "batch_coupling_inverse",
    "batch_irr_mala",
    "batch_irr_nice_mc",
    "batch_mala",
    "batch_nice_mc",
    "logreg_batch",
    "mog2_batch",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclasses.dataclass(frozen=True)
class BatchTarget:
    """Log-density and gradient over rows of a (chains, dim) array."""

    dim: int
    logpdf: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None


def mog2_batch() -> BatchTarget:
    from .targets import MOG2_MU1, MOG2_MU2, MOG2_VAR

    const = -_LOG_2PI - math.log(MOG2_VAR) + math.log(0.5)

    def comps(X):
        d1 = X - MOG2_MU1
        d2 = X - MOG2_MU2
        c1 = const - 0.5 * np.sum(d1 * d1, axis=1) / MOG2_VAR
        c2 = const - 0.5 * np.sum(d2 * d2, axis=1) / MOG2_VAR
        return c1, c2

    def logpdf(X):
        c1, c2 = comps(X)
        m = np.maximum(c1, c2)
        return m + np.log(np.exp(c1 - m) + np.exp(c2 - m))

    def grad(X):
        c1, c2 = comps(X)
        m = np.maximum(c1, c2)
        r1 = np.exp(c1 - m)
        r2 = np.exp(c2 - m)
        z = r1 + r2
        r1, r2 = (r1 / z)[:, None], (r2 / z)[:, None]
        return (r1 * -(X - MOG2_MU1) + r2 * -(X - MOG2_MU2)) / MOG2_VAR

    return BatchTarget(dim=2, logpdf=logpdf, grad=grad)


def logreg_batch(posterior) -> BatchTarget:
    """The logistic-regression posterior over rows (rows = chains)."""
    return BatchTarget(posterior.dim, posterior.logpdf, posterior.grad)


# the coupling maps take rows and return one log-det per row; the runners
# call them by these names, which perfbench/spans.py times as one layer
batch_coupling_forward = CouplingMap.forward_arrays
batch_coupling_inverse = CouplingMap.inverse_arrays


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class BatchResult:
    xs: np.ndarray         # (steps, chains, dim)
    accepted: np.ndarray   # (steps, chains) move-kernel flags


def _norm_logpdf(diff: np.ndarray, var: float) -> np.ndarray:
    d = diff.shape[1]
    return -0.5 * np.sum(diff * diff, axis=1) / var - 0.5 * d * math.log(2.0 * math.pi * var)


def batch_mala(target: BatchTarget, eps: float, n_chains: int, n_steps: int,
               rng: np.random.Generator, x0: np.ndarray) -> BatchResult:
    """Langevin-proposal Metropolis chains, all stepped together."""
    if target.grad is None:
        raise ConfigError("batch MALA needs a gradient")
    d = target.dim
    var = 2.0 * eps
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_chains, d)).copy()
    lp = target.logpdf(x)
    gx = target.grad(x)
    xs = np.empty((n_steps, n_chains, d))
    acc = np.empty((n_steps, n_chains), dtype=bool)
    for t in range(n_steps):
        v = x + eps * gx + math.sqrt(var) * rng.standard_normal((n_chains, d))
        lpv = target.logpdf(v)
        gv = target.grad(v)
        fwd = _norm_logpdf(v - x - eps * gx, var)
        rev = _norm_logpdf(x - v - eps * gv, var)
        delta = lpv + rev - lp - fwd
        a = rng.random(n_chains) < np.exp(np.minimum(delta, 0.0))
        x[a] = v[a]
        lp[a] = lpv[a]
        gx[a] = gv[a]
        xs[t] = x
        acc[t] = a
    return BatchResult(xs=xs, accepted=acc)


def batch_irr_mala(target: BatchTarget, eps: float, n_chains: int, n_steps: int,
                   rng: np.random.Generator, x0: np.ndarray) -> BatchResult:
    """Direction-augmented Langevin chains with the trailing direction flip."""
    if target.grad is None:
        raise ConfigError("batch irr-MALA needs a gradient")
    d = target.dim
    var = 2.0 * eps
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_chains, d)).copy()
    dirs = np.ones(n_chains)
    lp = target.logpdf(x)
    gx = target.grad(x)
    xs = np.empty((n_steps, n_chains, d))
    acc = np.empty((n_steps, n_chains), dtype=bool)
    for t in range(n_steps):
        v = x + dirs[:, None] * eps * gx + math.sqrt(var) * rng.standard_normal((n_chains, d))
        lpv = target.logpdf(v)
        gv = target.grad(v)
        sign = np.where(np.sum(gx * gv, axis=1) >= 0.0, 1.0, -1.0)
        d_new = -dirs * sign
        fwd = _norm_logpdf(v - x - dirs[:, None] * eps * gx, var)
        rev = _norm_logpdf(x - v - d_new[:, None] * eps * gv, var)
        delta = lpv + rev - lp - fwd
        a = rng.random(n_chains) < np.exp(np.minimum(delta, 0.0))
        x[a] = v[a]
        lp[a] = lpv[a]
        gx[a] = gv[a]
        dirs = np.where(a, d_new, dirs)
        rng.random(n_chains)        # mirrors the flip kernel's accept draw
        dirs = -dirs
        xs[t] = x
        acc[t] = a
    return BatchResult(xs=xs, accepted=acc)


def batch_nice_mc(target: BatchTarget, cmap: CouplingMap, n_chains: int,
                  n_steps: int, rng: np.random.Generator, x0: np.ndarray) -> BatchResult:
    """Coupling-map chains with freshly drawn momentum and direction."""
    d = target.dim
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_chains, d)).copy()
    lp = target.logpdf(x)
    xs = np.empty((n_steps, n_chains, d))
    acc = np.empty((n_steps, n_chains), dtype=bool)
    for t in range(n_steps):
        v = rng.standard_normal((n_chains, d))
        lv = _norm_logpdf(v, 1.0)
        # inverse-CDF over (-1, +1): low half of the uniform is direction -1
        up = rng.random(n_chains) >= 0.5
        xf, vf, ldf = batch_coupling_forward(cmap, x, v)
        xb, vb, ldb = batch_coupling_inverse(cmap, x, v)
        xn = np.where(up[:, None], xf, xb)
        vn = np.where(up[:, None], vf, vb)
        ld = np.where(up, ldf, ldb)
        lpn = target.logpdf(xn)
        lvn = _norm_logpdf(vn, 1.0)
        delta = lpn + lvn - lp - lv + ld
        a = rng.random(n_chains) < np.exp(np.minimum(delta, 0.0))
        x[a] = xn[a]
        lp[a] = lpn[a]
        xs[t] = x
        acc[t] = a
    return BatchResult(xs=xs, accepted=acc)


def batch_irr_nice_mc(target: BatchTarget, cmap: CouplingMap, alpha: float,
                      n_chains: int, n_steps: int, rng: np.random.Generator,
                      x0: np.ndarray) -> BatchResult:
    """Persistent-direction coupling chains with partial momentum refresh."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError("refresh strength must lie in [0, 1]")
    d = target.dim
    keep = math.sqrt(1.0 - alpha * alpha)
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_chains, d)).copy()
    v = np.zeros((n_chains, d))
    dirs = np.ones(n_chains)
    lp = target.logpdf(x)
    xs = np.empty((n_steps, n_chains, d))
    acc = np.empty((n_steps, n_chains), dtype=bool)
    for t in range(n_steps):
        # partial refresh (autoregressive swap construction, acceptance one)
        v = keep * v + alpha * rng.standard_normal((n_chains, d))
        rng.random(n_chains)        # mirrors the refresh kernel's accept draw
        lv = _norm_logpdf(v, 1.0)
        up = dirs > 0
        xf, vf, ldf = batch_coupling_forward(cmap, x, v)
        xb, vb, ldb = batch_coupling_inverse(cmap, x, v)
        xn = np.where(up[:, None], xf, xb)
        vn = np.where(up[:, None], vf, vb)
        ld = np.where(up, ldf, ldb)
        lpn = target.logpdf(xn)
        lvn = _norm_logpdf(vn, 1.0)
        delta = lpn + lvn - lp - lv + ld
        a = rng.random(n_chains) < np.exp(np.minimum(delta, 0.0))
        x[a] = xn[a]
        v[a] = vn[a]
        lp[a] = lpn[a]
        dirs = np.where(a, -dirs, dirs)
        rng.random(n_chains)        # mirrors the flip kernel's accept draw
        dirs = -dirs
        xs[t] = x
        acc[t] = a
    return BatchResult(xs=xs, accepted=acc)

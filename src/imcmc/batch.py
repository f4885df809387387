"""Vectorized multi-chain runners for the benchmark samplers.

These step every chain of a batch simultaneously with (chains, dim) arrays,
which is what makes the benchmark table affordable on one core.  Each runner
draws the random stream in the same order as the corresponding kernel-engine
chain.  Coupling maps and the logistic posterior are the engine's own,
applied to rows.  The two-mode target keeps a row copy (`mog2_batch`): the
scalar target sums ``d @ d`` through OpenBLAS's ``ddot``, whose fused
multiply-adds can round differently from a row sum in the last bit.  Its
``logpdf`` and ``grad`` share one pass over both components, remembered for
the last two row arrays (see `core._LastTwo`), so the gradient at a proposal
whose density was just taken costs no second pass.  So with a single chain
and the same seed a runner follows the engine bitwise for hundreds of steps
(the test suite pins 400), but over long runs on mog2 the two drift apart by
rounding: batch MALA first differs from the engine at step 821 of 20000, by
at most 1.3e-15.

At the chain counts the benchmark runs, a step costs numpy's per-call
overhead more than arithmetic, so the runners reduce with ``np.add.reduce``
(the ufunc ``np.sum`` calls after its Python wrapper) and take each
accepted-row update in one masked ``np.copyto``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np

from .core import _LastTwo
from .errors import ConfigError
from .maps import CouplingMap
from .targets import MOG2_MU1, MOG2_MU2, MOG2_VAR

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


_MOG2_MUS = np.stack([MOG2_MU1, MOG2_MU2])[:, None, :]  # (component, 1, dim)
_MOG2_CONST = -_LOG_2PI - math.log(MOG2_VAR) + math.log(0.5)


def _mog2_components(X):
    """Both components of mog2 at rows ``X`` in one stacked pass: the offsets
    ``D`` from each mean (component, chain, dim), the rows' larger log-weight
    ``m``, the weights ``E`` scaled by ``exp(-m)`` and their sum ``s``.  The
    arrays are read-only, since `mog2_batch` remembers them."""
    D = X - _MOG2_MUS
    C = _MOG2_CONST - 0.5 * np.add.reduce(D * D, axis=2) / MOG2_VAR
    m = np.maximum(C[0], C[1])
    E = np.exp(C - m)
    s = E[0] + E[1]
    for a in (D, m, E, s):
        a.flags.writeable = False
    return D, m, E, s


def mog2_batch() -> BatchTarget:
    passes = _LastTwo(_mog2_components)

    def logpdf(X):
        _, m, _, s = passes(X)
        return m + np.log(s)

    def grad(X):
        D, _, E, s = passes(X)
        W = (E / s)[:, :, None]
        return (W[0] * -D[0] + W[1] * -D[1]) / MOG2_VAR

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
    return (-0.5 * np.add.reduce(diff * diff, axis=1) / var
            - 0.5 * d * math.log(2.0 * math.pi * var))


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
        rows = a[:, None]
        np.copyto(x, v, where=rows)
        np.copyto(lp, lpv, where=a)
        np.copyto(gx, gv, where=rows)
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
        sign = np.where(np.add.reduce(gx * gv, axis=1) >= 0.0, 1.0, -1.0)
        d_new = -dirs * sign
        fwd = _norm_logpdf(v - x - dirs[:, None] * eps * gx, var)
        rev = _norm_logpdf(x - v - d_new[:, None] * eps * gv, var)
        delta = lpv + rev - lp - fwd
        a = rng.random(n_chains) < np.exp(np.minimum(delta, 0.0))
        rows = a[:, None]
        np.copyto(x, v, where=rows)
        np.copyto(lp, lpv, where=a)
        np.copyto(gx, gv, where=rows)
        np.copyto(dirs, d_new, where=a)
        rng.random(n_chains)        # mirrors the flip kernel's accept draw
        np.negative(dirs, out=dirs)
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
        up_rows = up[:, None]
        xn = np.where(up_rows, xf, xb)
        vn = np.where(up_rows, vf, vb)
        ld = np.where(up, ldf, ldb)
        lpn = target.logpdf(xn)
        lvn = _norm_logpdf(vn, 1.0)
        delta = lpn + lvn - lp - lv + ld
        a = rng.random(n_chains) < np.exp(np.minimum(delta, 0.0))
        np.copyto(x, xn, where=a[:, None])
        np.copyto(lp, lpn, where=a)
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
        up_rows = up[:, None]
        xn = np.where(up_rows, xf, xb)
        vn = np.where(up_rows, vf, vb)
        ld = np.where(up, ldf, ldb)
        lpn = target.logpdf(xn)
        lvn = _norm_logpdf(vn, 1.0)
        delta = lpn + lvn - lp - lv + ld
        a = rng.random(n_chains) < np.exp(np.minimum(delta, 0.0))
        rows = a[:, None]
        np.copyto(x, xn, where=rows)
        np.copyto(v, vn, where=rows)
        np.copyto(lp, lpn, where=a)
        # an accepted move flips its row's direction, then the flip kernel
        # (whose accept draw is mirrored here) flips every row: so only the
        # rejected rows end up flipped
        rng.random(n_chains)
        np.negative(dirs, out=dirs, where=~a)
        xs[t] = x
        acc[t] = a
    return BatchResult(xs=xs, accepted=acc)

"""Vectorized multi-chain runners for the benchmark samplers.

These step every chain of a batch simultaneously with (chains, dim) arrays,
which is what makes the benchmark table affordable on one core.  A target is
a `core.LogDensity` over rows: its memo remembers each row array's results
and hand them out read-only, so a runner copies the arrays it updates.  Each
runner draws the random stream in the same order as the corresponding
kernel-engine chain.  Coupling maps and the logistic posterior are the
engine's own, applied to rows, and on the logistic target a single chain
follows the engine bitwise for 100 000 steps.  The two-mode target keeps a
row copy (`mog2_batch`): the scalar target works in Python floats and takes
its component weights with ``math.exp``, while the row copy takes them with
``np.exp``, whose SIMD loop can round differently in the last bit.  So on
mog2 the two paths drift apart by rounding over long runs: batch MALA
(seed 11) first differs from the engine at step 8516 of 20000, by at most
8.9e-16 (the test suite pins the first 400 steps).

At the chain counts the benchmark runs, a step costs numpy's per-call
overhead more than arithmetic, so the runners reduce with ``np.add.reduce``
(the ufunc ``np.sum`` calls after its Python wrapper) and take each
accepted-row update in one masked ``np.copyto``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .core import LogDensity
from .errors import ConfigError
from .maps import CouplingMap
from .targets import MOG2_MU1, MOG2_MU2, MOG2_VAR

__all__ = [
    "BatchResult",
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

_MOG2_MUS = np.stack([MOG2_MU1, MOG2_MU2])[:, None, :]  # (component, 1, dim)
_MOG2_CONST = -_LOG_2PI - math.log(MOG2_VAR) + math.log(0.5)


def _mog2_components(X):
    """Both components of mog2 at rows ``X`` in one stacked pass: the offsets
    ``D`` from each mean (component, chain, dim), the rows' larger log-weight
    ``m``, the weights ``E`` scaled by ``exp(-m)`` and their sum ``s``."""
    D = X - _MOG2_MUS
    C = _MOG2_CONST - 0.5 * np.add.reduce(D * D, axis=2) / MOG2_VAR
    m = np.maximum(C[0], C[1])
    E = np.exp(C - m)
    return D, m, E, E[0] + E[1]


def mog2_batch() -> LogDensity:
    """mog2 over rows ``(chains, 2)``.  Its ``logpdf``, ``grad`` and fused
    ``value_and_grad`` each make one `_mog2_components` pass."""

    def logpdf(X):
        _, m, _, s = _mog2_components(X)
        return m + np.log(s)

    def value_and_grad(X):
        D, m, E, s = _mog2_components(X)
        W = (E / s)[:, :, None]
        return m + np.log(s), (W[0] * -D[0] + W[1] * -D[1]) / MOG2_VAR

    return LogDensity(dim=2, logpdf=logpdf, grad=lambda X: value_and_grad(X)[1],
                      value_and_grad=value_and_grad)


def logreg_batch(posterior) -> LogDensity:
    """The logistic-regression posterior over rows (rows = chains): its own
    density, whose ``value_and_grad`` forms the rows' half-logits once."""
    return posterior.density()


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


def batch_mala(target: LogDensity, eps: float, n_chains: int, n_steps: int,
               rng: np.random.Generator, x0: np.ndarray) -> BatchResult:
    """Langevin-proposal Metropolis chains, all stepped together."""
    d = target.dim
    var = 2.0 * eps
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_chains, d)).copy()
    lp, gx = (a.copy() for a in target.value_and_grad(x))
    xs = np.empty((n_steps, n_chains, d))
    acc = np.empty((n_steps, n_chains), dtype=bool)
    for t in range(n_steps):
        v = x + eps * gx + math.sqrt(var) * rng.standard_normal((n_chains, d))
        lpv, gv = target.value_and_grad(v)
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


def batch_irr_mala(target: LogDensity, eps: float, n_chains: int, n_steps: int,
                   rng: np.random.Generator, x0: np.ndarray) -> BatchResult:
    """Direction-augmented Langevin chains with the trailing direction flip."""
    d = target.dim
    var = 2.0 * eps
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_chains, d)).copy()
    dirs = np.ones(n_chains)
    lp, gx = (a.copy() for a in target.value_and_grad(x))
    xs = np.empty((n_steps, n_chains, d))
    acc = np.empty((n_steps, n_chains), dtype=bool)
    for t in range(n_steps):
        v = x + dirs[:, None] * eps * gx + math.sqrt(var) * rng.standard_normal((n_chains, d))
        lpv, gv = target.value_and_grad(v)
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


def batch_nice_mc(target: LogDensity, cmap: CouplingMap, n_chains: int,
                  n_steps: int, rng: np.random.Generator, x0: np.ndarray) -> BatchResult:
    """Coupling-map chains with freshly drawn momentum and direction."""
    d = target.dim
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_chains, d)).copy()
    lp = target.logpdf(x).copy()
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


def batch_irr_nice_mc(target: LogDensity, cmap: CouplingMap, alpha: float,
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
    lp = target.logpdf(x).copy()
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

"""Statistical estimators and exact finite-state verification oracles.

The transition-matrix oracle realizes a kernel exactly on an enumerated
state space by integrating over every auxiliary draw and accept/reject
branch.  Stationarity and detailed-balance checks against these matrices are
the ground truth the sampler builders are tested with.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .core import JointPoint, TransitionKernel, _LOOKUP_ATOL, _RowIndex
from .errors import DegenerateSeriesError, EnumerationError

__all__ = [
    "BalanceReport",
    "ChiSquareReport",
    "EssReport",
    "StationarityReport",
    "acceptance_rate",
    "check_detailed_balance",
    "check_stationary",
    "ess_batch_means",
    "grid_chi_square",
    "marginal_matrix",
    "moment_estimates",
    "stationary_pmf",
    "transition_matrix",
    "transition_matrix_direct",
]

DEFAULT_MAX_STATES = 64


# ---------------------------------------------------------------------------
# effective sample size
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class EssReport:
    """Batch-means effective-sample-size summary.

    ``ess`` is the minimum across dimensions; ``iact`` the matching
    integrated autocorrelation estimate n/ess.
    """

    ess: float
    iact: float
    n: int
    dims: int
    per_dim: np.ndarray
    ess_per_sec: Optional[float]
    accept_rate: Optional[float]

    def to_json(self) -> dict:
        return {
            "ess": self.ess,
            "iact": self.iact,
            "ess_per_sec": self.ess_per_sec,
            "accept_rate": self.accept_rate,
            "n": self.n,
            "dims": self.dims,
        }


def _icbrt(n: int) -> int:
    """floor(n^(1/3)) exactly: the float cube root of a cube can fall just
    short of the integer (``1000 ** (1/3)`` is 9.999999999999998)."""
    r = round(n ** (1.0 / 3.0))
    while r ** 3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


def ess_batch_means(series: np.ndarray, seconds: Optional[float] = None,
                    accept_rate: Optional[float] = None) -> EssReport:
    """Effective sample size from the ratio of batch-mean to sample variance.

    Uses floor(n^(1/3)) batches of size floor(n^(2/3)), both exact integer
    floors (n = 1000 gives 10 batches of 100); the trailing remainder is
    dropped.  Multivariate input reports the minimum ESS across dimensions.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, dims = x.shape
    if n < 27:
        raise DegenerateSeriesError("need at least 27 samples (3 batches)")
    n_batches, m = _icbrt(n), _icbrt(n * n)
    used = m * n_batches
    per_dim = np.empty(dims)
    for d in range(dims):
        col = x[:, d]
        s2 = float(np.var(col, ddof=1))
        if s2 == 0.0:
            raise DegenerateSeriesError(f"dimension {d} is constant")
        means = col[:used].reshape(n_batches, m).mean(axis=1)
        iact = m * float(np.var(means, ddof=1)) / s2
        if iact == 0.0:
            raise DegenerateSeriesError(
                f"dimension {d} has equal batch means; its ESS is undefined")
        per_dim[d] = n / iact
    ess = float(per_dim.min())
    return EssReport(ess=ess, iact=n / ess, n=n, dims=dims, per_dim=per_dim,
                     ess_per_sec=None if seconds is None else ess / seconds,
                     accept_rate=accept_rate)


def acceptance_rate(accepted: np.ndarray) -> float:
    """Mean of per-step acceptance flags."""
    a = np.asarray(accepted)
    if a.size == 0:
        raise DegenerateSeriesError("empty acceptance trace")
    return float(a.mean())


def moment_estimates(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean vector and covariance matrix of a trace."""
    x = np.asarray(xs, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] < 2:
        raise DegenerateSeriesError("need at least two samples for moments")
    return x.mean(axis=0), np.cov(x, rowvar=False).reshape(x.shape[1], x.shape[1])


# ---------------------------------------------------------------------------
# exact transition matrices
# ---------------------------------------------------------------------------

class _StateIndex:
    """Nearest-point lookup over an enumerated joint space.

    States are grouped by tag tuple once; a lookup is then the first
    nearest state of the matching group in the sup norm (see
    `core._RowIndex`), which must lie within ``core._LOOKUP_ATOL``.  A
    state with a NaN or infinite coordinate is refused, as the index
    refuses such a row.
    """

    def __init__(self, states: Sequence[JointPoint]):
        self.states = list(states)
        cont = np.stack([s.continuous() for s in self.states])
        _RowIndex.refuse_non_finite(cont, "enumerated state", EnumerationError)
        members: dict[tuple, list[int]] = {}
        for i, s in enumerate(self.states):
            members.setdefault(s.tags, []).append(i)
        self._groups = {tags: (ids, _RowIndex(cont[ids])) for tags, ids in members.items()}

    def __len__(self):
        return len(self.states)

    def locate(self, point: JointPoint) -> int:
        group = self._groups.get(point.tags)
        if group is None:
            raise EnumerationError(
                f"step landed on tags {point.tags} outside the enumerated space")
        ids, rows = group
        j, best_d = rows.nearest(point.continuous())
        # written so that a NaN distance fails too
        if not best_d <= _LOOKUP_ATOL:
            raise EnumerationError(
                f"step landed outside the enumerated space (distance {best_d:.3g})")
        return ids[j]


def _kernel_matrix(kernel: TransitionKernel, index: _StateIndex) -> np.ndarray:
    n = len(index)
    T = np.zeros((n, n))
    for i, branches in enumerate(kernel.enumerate_steps(index.states)):
        for dest, prob in branches:
            T[i, index.locate(dest)] += prob
    rows = T.sum(axis=1)
    if np.max(np.abs(rows - 1.0)) > 1e-12:
        raise EnumerationError(
            f"rows of {kernel.name} sum to {rows.min():.15f}..{rows.max():.15f}")
    return T


def transition_matrix(kernel: TransitionKernel, states: Sequence[JointPoint],
                      max_states: int = DEFAULT_MAX_STATES) -> np.ndarray:
    """Exact transition matrix of a kernel over an enumerated state space.

    Probabilities are obtained by summing over all auxiliary draws and
    accept/reject branches; a composition is the ordered product of its
    component matrices.  Each component enumerates all states in one
    `enumerate_steps` call, so an iMCMC kernel scores each distinct
    refreshed point once per build.  Raises if the space exceeds
    ``max_states`` or a destination falls outside the enumeration.
    """
    if len(states) > max_states:
        raise EnumerationError(
            f"{len(states)} states exceeds the cap of {max_states}")
    index = _StateIndex(states)
    parts = kernel.kernels()
    T = _kernel_matrix(parts[0], index)
    for k in parts[1:]:
        T = T @ _kernel_matrix(k, index)
    return T


def transition_matrix_direct(kernel: TransitionKernel,
                             states: Sequence[JointPoint]) -> np.ndarray:
    """Composition matrix built by chaining enumerations, not by multiplying.

    Exists to cross-check that the matrix product route agrees with direct
    path enumeration, at `transition_matrix`'s tolerance and default cap.
    It enumerates one state at a time (`enumerate_step`), sharing no
    acceptance test between states, so the suite's
    ``composition_product_equals_direct`` compares the shared route with an
    unshared one.
    """
    if len(states) > DEFAULT_MAX_STATES:
        raise EnumerationError(
            f"{len(states)} states exceeds the cap of {DEFAULT_MAX_STATES}")
    index = _StateIndex(states)
    n = len(index)
    T = np.zeros((n, n))
    for i, state in enumerate(index.states):
        dist = {i: 1.0}
        for k in kernel.kernels():
            new: dict[int, float] = {}
            for j, w in dist.items():
                for dest, prob in k.enumerate_step(index.states[j]):
                    jj = index.locate(dest)
                    new[jj] = new.get(jj, 0.0) + w * prob
            dist = new
        for j, w in dist.items():
            T[i, j] = w
    return T


def stationary_pmf(states: Sequence[JointPoint],
                   logpdf: Callable[[JointPoint], float]) -> np.ndarray:
    """Normalized probability vector of an enumerated space."""
    logs = np.array([logpdf(s) for s in states])
    w = np.exp(logs - logs.max())
    return w / w.sum()


def marginal_matrix(T: np.ndarray, weights: np.ndarray,
                    groups: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Lump a transition matrix onto groups of states.

    ``groups[i]`` is the group id of state i.  Rows are combined with the
    stationary conditional weights within each group, which realizes the
    marginalized kernel on the grouped variable.  Returns the lumped matrix
    and the group weights.
    """
    groups = np.asarray(groups)
    ids = np.unique(groups)
    k = ids.size
    out = np.zeros((k, k))
    gw = np.zeros(k)
    for a, ga in enumerate(ids):
        sel = groups == ga
        wa = weights[sel]
        gw[a] = wa.sum()
        rows = (wa / wa.sum()) @ T[sel]
        for b, gb in enumerate(ids):
            out[a, b] = rows[groups == gb].sum()
    return out, gw


# ---------------------------------------------------------------------------
# fixed-point and reversibility checks
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class StationarityReport:
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


@dataclasses.dataclass(frozen=True)
class BalanceReport:
    max_asymmetry: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_asymmetry <= self.tol


def check_stationary(T: np.ndarray, p: np.ndarray,
                     tol: float = 1e-12) -> StationarityReport:
    """Residual of the fixed-point equation ``pT = p`` in the sup norm."""
    return StationarityReport(float(np.max(np.abs(p @ T - p))), tol)


def check_detailed_balance(T: np.ndarray, p: np.ndarray,
                           tol: float = 1e-12) -> BalanceReport:
    """Largest asymmetry of the flow matrix ``p_i T_ij - p_j T_ji``."""
    flow = p[:, None] * T
    return BalanceReport(float(np.max(np.abs(flow - flow.T))), tol)


# ---------------------------------------------------------------------------
# goodness of fit
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ChiSquareReport:
    statistic: float
    critical: float
    dof: int
    n_used: int
    thin: int

    @property
    def passed(self) -> bool:
        return self.statistic < self.critical


def grid_chi_square(xs: np.ndarray, edges_x: np.ndarray, edges_y: np.ndarray,
                    cell_masses: np.ndarray) -> ChiSquareReport:
    """Chi-square test, at level 0.01, of a planar trace against exact
    grid-cell masses.

    Correlated chain output is thinned to roughly one sample per effective
    sample before binning, so the statistic has its nominal null
    distribution.  Cells with expected count below 5 and the off-grid mass
    are pooled into one bucket.
    """
    from scipy.stats import chi2

    xs = np.asarray(xs)
    thin = max(1, int(math.ceil(xs.shape[0] / ess_batch_means(xs).ess)))
    th = xs[::thin]
    n = th.shape[0]
    counts, _, _ = np.histogram2d(th[:, 0], th[:, 1], bins=[edges_x, edges_y])
    expected = cell_masses * n
    big = expected >= 5.0
    stat = float(np.sum((counts[big] - expected[big]) ** 2 / expected[big]))
    dof = int(big.sum())
    pooled_obs = counts[~big].sum() + (n - counts.sum())
    pooled_exp = expected[~big].sum() + n * (1.0 - cell_masses.sum())
    if pooled_exp > 0.0:
        stat += float((pooled_obs - pooled_exp) ** 2 / pooled_exp)
    return ChiSquareReport(statistic=stat,
                           critical=float(chi2.ppf(1.0 - 0.01, dof)),
                           dof=dof, n_used=n, thin=thin)

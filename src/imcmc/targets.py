"""Target densities, datasets, and synthetic processes.

Every continuous target carries an analytic gradient (the integrators never
differentiate numerically); finite targets expose their probability table so
the exact transition-matrix oracle can enumerate them.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .core import (
    AuxiliaryConditional,
    JointPoint,
    LogDensity,
    _LOOKUP_ATOL,
    _RowIndex,
    _draw_index,
    _numpy_order_sum,
    float_density,
)
from .errors import ConfigError, DensityError

__all__ = [
    "Cdf1D",
    "Dataset",
    "GridDensity",
    "LogisticPosterior",
    "ar1_generate",
    "bivariate_normal",
    "exponential_cdf1d",
    "gaussian",
    "grid_conditional",
    "load_dataset",
    "mixture_1d",
    "mog2",
    "mog2_cell_masses",
    "normal_cdf1d",
    "standard_normal",
    "uniform_cdf1d",
]

_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Gaussian families
# ---------------------------------------------------------------------------

def standard_normal(dim: int) -> LogDensity:
    def logpdf(x):
        return -0.5 * float(x @ x) - 0.5 * dim * _LOG_2PI

    return LogDensity(dim=dim, logpdf=logpdf, grad=lambda x: -x)


def gaussian(mean, var) -> LogDensity:
    """Independent normal with componentwise mean and variance."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    var = np.broadcast_to(np.asarray(var, dtype=float), mean.shape).copy()
    if np.any(var <= 0):
        raise ConfigError("variances must be positive")
    const = -0.5 * float(np.sum(np.log(2.0 * math.pi * var)))

    def logpdf(x):
        d = x - mean
        return const - 0.5 * float((d * d / var).sum())

    return LogDensity(dim=mean.size, logpdf=logpdf, grad=lambda x: -(x - mean) / var)


def bivariate_normal(rho: float) -> LogDensity:
    """Zero-mean unit-variance pair with correlation ``rho``."""
    if not -1.0 < rho < 1.0:
        raise ConfigError("correlation must lie in (-1, 1)")
    s = 1.0 - rho * rho
    const = -_LOG_2PI - 0.5 * math.log(s)

    def logpdf(x):
        a, b = float(x[0]), float(x[1])
        return const - 0.5 * (a * a - 2.0 * rho * a * b + b * b) / s

    def grad(x):
        a, b = float(x[0]), float(x[1])
        return np.array([-(a - rho * b) / s, -(b - rho * a) / s])

    return LogDensity(dim=2, logpdf=logpdf, grad=grad)


# ---------------------------------------------------------------------------
# Gaussian mixtures
# ---------------------------------------------------------------------------

def mixture_1d(means: Sequence[float], sigma: float) -> LogDensity:
    """Equal-weight, equal-variance 1-d normal mixture with
    responsibility-weighted gradient."""
    mu = np.asarray(means, dtype=float)
    logw = np.log(np.full(mu.size, 1.0 / mu.size))
    var = sigma * sigma
    const = -0.5 * math.log(2.0 * math.pi * var)

    # each component in Python floats, with numpy's operations in numpy's
    # order, and its exponential taken against the largest
    terms = list(zip((logw + const).tolist(), mu.tolist()))

    def floats(x):
        (a,) = x
        c = [lc - 0.5 * (a - m) * (a - m) / var for lc, m in terms]
        top = max(c)
        e = [math.exp(ci - top) for ci in c]
        s = _numpy_order_sum(e)
        # the responsibility-weighted component gradients
        return top + math.log(s), (_numpy_order_sum(
            [ei / s * -(a - m) / var for ei, (_, m) in zip(e, terms)]),)

    return float_density(1, floats)


MOG2_MU1 = np.array([2.0, 0.0])
MOG2_MU2 = np.array([-2.0, 0.0])
MOG2_VAR = 0.5


def mog2() -> LogDensity:
    """Equal-weight mixture of two round planar normals at (+-2, 0)."""
    # a component's log-weight plus its normalizing constant, summed once:
    # ``log_half + const - t`` adds these two first, so the bits are the same
    lc = math.log(0.5) + (-_LOG_2PI - math.log(MOG2_VAR))
    var = MOG2_VAR

    def floats(x):
        # the offsets from MOG2_MU1 = (2, 0) and MOG2_MU2 = (-2, 0), each
        # squared norm summed as a*a + b*b with no BLAS call, so it rounds
        # the same whichever `ddot` kernel the machine has
        a, b = x
        a1, a2 = a - 2.0, a + 2.0
        bb = b * b
        c1 = lc - 0.5 * (a1 * a1 + bb) / var
        c2 = lc - 0.5 * (a2 * a2 + bb) / var
        m = c2 if c2 > c1 else c1  # max(c1, c2), NaN included, without the call
        r1 = math.exp(c1 - m)
        r2 = math.exp(c2 - m)
        z = r1 + r2
        r1, r2 = r1 / z, r2 / z
        return m + math.log(z), ((r1 * -a1 + r2 * -a2) / var,
                                 (r1 * -b + r2 * -b) / var)

    return float_density(2, floats)


def mog2_cell_masses(edges_x: np.ndarray, edges_y: np.ndarray) -> np.ndarray:
    """Exact probability mass of each grid cell under the two-mode target.

    Components are axis-aligned, so each cell mass is a product of 1-d normal
    CDF differences summed over the two components.
    """
    s = math.sqrt(MOG2_VAR)
    out = np.zeros((len(edges_x) - 1, len(edges_y) - 1))
    for mu, w in ((MOG2_MU1, 0.5), (MOG2_MU2, 0.5)):
        px = np.diff(ndtr((np.asarray(edges_x) - mu[0]) / s))
        py = np.diff(ndtr((np.asarray(edges_y) - mu[1]) / s))
        out += w * np.outer(px, py)
    return out


# ---------------------------------------------------------------------------
# Bayesian logistic regression
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class LogisticPosterior:
    """Posterior over (weights, bias) with a zero-mean normal prior.

    The success logit is ``z = x'w - b`` and the prior variance on every
    coordinate is ``prior_var`` = 0.1 (the reference formulation writes the
    prior scale ambiguously and we read it as a variance).  ``logpdf``,
    ``grad`` and ``value_and_grad`` take one parameter vector ``(d,)`` or
    rows ``(..., d)`` of them; ``value_and_grad`` forms the logits once for
    both.

    With ``a = [x, -1]`` and ``u = z / 2``, two exact identities carry the
    likelihood: ``y log sigmoid(z) + (1 - y) log sigmoid(-z) =
    (y - 1/2) z - log(2 cosh u)`` and ``y - sigmoid(z) = (y - 1/2) -
    tanh(u) / 2``.  So the log-likelihood is ``theta . c - sum log(2 cosh u)``
    and its gradient ``c - tanh(u) @ A / 2``, with ``c = A'(y - 1/2)`` formed
    once; ``log(2 cosh u) = |u| + log1p(exp(-2|u|))`` never takes ``exp`` of
    a positive number.
    """

    X: np.ndarray
    y: np.ndarray
    prior_var: ClassVar[float] = 0.1
    # computed once from the fields above: the half design A'/2 with the
    # bias column folded in, shape (d, n), and c = A'(y - 1/2)
    _ht: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    _c: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    _prior_const: float = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.X.ndim != 2 or self.y.shape != (self.X.shape[0],):
            raise ConfigError("design matrix and labels do not align")
        if not set(np.unique(self.y)) <= {0.0, 1.0}:
            raise ConfigError("labels must be 0/1")
        at = np.vstack([self.X.T, -np.ones(self.X.shape[0])])
        object.__setattr__(self, "_ht", np.ascontiguousarray(0.5 * at))
        object.__setattr__(self, "_c", at @ (self.y - 0.5))
        object.__setattr__(self, "_prior_const",
                           -0.5 * self.dim * math.log(2.0 * math.pi * self.prior_var))

    @property
    def dim(self) -> int:
        return self.X.shape[1] + 1

    def _logits(self, theta: np.ndarray) -> np.ndarray:
        """Half the logits, ``u = z / 2``."""
        if theta.shape[-1] != self.dim:
            raise ConfigError(
                f"parameter must have {self.dim} coordinates, got {theta.shape[-1]}")
        return theta @ self._ht

    def _value(self, theta: np.ndarray, u: np.ndarray):
        a = np.abs(u)
        tail = np.log1p(np.exp(-2.0 * a))
        loglik = theta @ self._c - a.sum(axis=-1) - tail.sum(axis=-1)
        return loglik + self._prior_const - 0.5 * (theta * theta).sum(axis=-1) / self.prior_var

    def _grad(self, theta: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self._c - np.tanh(u) @ self._ht.T - theta / self.prior_var

    def logpdf(self, theta: np.ndarray):
        return self._value(theta, self._logits(theta))

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return self._grad(theta, self._logits(theta))

    def value_and_grad(self, theta: np.ndarray):
        u = self._logits(theta)
        return self._value(theta, u), self._grad(theta, u)

    def density(self) -> LogDensity:
        return LogDensity(dim=self.dim, logpdf=self.logpdf, grad=self.grad,
                          value_and_grad=self.value_and_grad)


KNOWN_DATASET_SHAPES = {
    "german": (1000, 25),
    "heart": (532, 14),
    "australian": (690, 15),
}


@dataclasses.dataclass(frozen=True)
class Dataset:
    X: np.ndarray
    y: np.ndarray
    name: str


def _csv_lines(path: Path) -> list[str]:
    """The non-blank lines of a UTF-8 text file, stripped."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise DensityError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _finite_csv_rows(path: Path, lines: list[str], first: int, width: int) -> np.ndarray:
    """Comma-separated ``lines`` of ``path`` as a (rows, width) array, the
    first of them row ``first`` of the file.  A row with another number of
    fields, a field that is not a number or a NaN or infinite value is a
    DensityError naming the row."""
    rows = []
    for i, ln in enumerate(lines, start=first):
        toks = ln.split(",")
        if len(toks) != width:
            raise DensityError(f"{path}: malformed row {i} (expected {width} fields)")
        try:
            row = [float(tok) for tok in toks]
        except ValueError:
            raise DensityError(f"{path}: malformed row {i}") from None
        for value in row:
            if not math.isfinite(value):
                raise DensityError(f"{path}: non-finite value {value!r} in row {i}")
        rows.append(row)
    return np.array(rows, dtype=float).reshape(len(rows), width)


def load_dataset(path) -> Dataset:
    """Read a CSV with the label in the last column; standardize covariates.

    An optional header row is detected by a non-numeric first row.  Labels
    must take exactly the values {0, 1}, and every value must be finite.  A
    file that is not UTF-8 text or breaks one of these rules is a
    DensityError naming the row.  The dataset is named by the
    lower-cased file stem; when that is a known benchmark, the shape is
    validated against the expected (rows, covariates).
    """
    path = Path(path)
    name = path.stem.lower()
    lines = _csv_lines(path)
    if not lines:
        raise DensityError(f"{path}: empty dataset")
    start = 0
    try:
        [float(tok) for tok in lines[0].split(",")]
    except ValueError:
        start = 1  # header row
    body = lines[start:]
    if not body:
        raise DensityError(f"{path}: no data rows")
    data = _finite_csv_rows(path, body, start + 1, len(body[0].split(",")))
    if data.shape[1] < 2:
        raise DensityError(f"{path}: need at least one covariate and a label")
    X, y = data[:, :-1], data[:, -1]
    bad = np.nonzero(~np.isin(y, (0.0, 1.0)))[0]
    if bad.size:
        raise DensityError(f"{path}: non-binary label at row {start + 1 + bad[0]}")
    if name in KNOWN_DATASET_SHAPES:
        expected = KNOWN_DATASET_SHAPES[name]
        if (X.shape[0], X.shape[1]) != expected:
            raise DensityError(
                f"{path}: {name} should be {expected[0]} x {expected[1]} "
                f"(rows x covariates), found {X.shape[0]} x {X.shape[1]}")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0.0] = 1.0
    return Dataset(X=(X - mean) / std, y=y, name=name)


# ---------------------------------------------------------------------------
# synthetic series
# ---------------------------------------------------------------------------

def ar1_generate(rho: float, n: int, seed: int) -> np.ndarray:
    """Stationary Gaussian AR(1) with lag-k autocorrelation rho**k."""
    if not abs(rho) < 1.0:
        raise ConfigError("AR(1) coefficient must satisfy |rho| < 1")
    from scipy.signal import lfilter

    rng = np.random.Generator(np.random.Philox(seed))
    eta = rng.standard_normal(n)
    x0 = rng.standard_normal() / math.sqrt(1.0 - rho * rho)
    out, _ = lfilter([1.0], [1.0, -rho], eta, zi=np.array([rho * x0]))
    return out


# ---------------------------------------------------------------------------
# finite-space helpers
# ---------------------------------------------------------------------------

class GridDensity:
    """Log-density supported on a finite set of target-block values.

    Evaluation snaps to the nearest grid point within ``atol`` (1e-9, sup
    norm, see `core._RowIndex`) and returns the stored log-weight; anywhere
    else the density is zero.  ``grad`` optionally delegates to a smooth
    envelope so integrator-based kernels can run on the grid.  ``values``
    are fixed at construction, and a NaN or infinite one is refused.
    """

    atol = _LOOKUP_ATOL

    def __init__(self, values: np.ndarray, log_weights: np.ndarray, grad=None):
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        self.values = values
        self.log_weights = np.asarray(log_weights, dtype=float)
        if self.values.shape[0] != self.log_weights.size:
            raise ConfigError("grid values and weights do not align")
        self._grad = grad
        self._index = _RowIndex(values)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def pmf(self) -> np.ndarray:
        w = np.exp(self.log_weights - self.log_weights.max())
        return w / w.sum()

    def index(self, x: np.ndarray) -> Optional[int]:
        return self._index(x)

    def logpdf(self, x: np.ndarray) -> float:
        i = self._index(x)
        return -math.inf if i is None else float(self.log_weights[i])

    def grad(self, x: np.ndarray) -> np.ndarray:
        if self._grad is None:
            raise ConfigError("grid density has no gradient envelope")
        return self._grad(x)

    def density(self) -> LogDensity:
        return LogDensity(dim=self.dim, logpdf=self.logpdf,
                          grad=self.grad if self._grad is not None else None)


def _grid_logpmf(rows: _RowIndex, p: np.ndarray, value) -> float:
    """Log probability of the first grid row nearest to ``value``, if it
    lies within 1e-9, so that each listed candidate scores its own
    probability: -inf off the grid or at probability zero, NaN at a NaN
    one.  ``value`` may be any array-like, since the
    search only broadcasts it against the rows."""
    i = rows(value)
    if i is None:
        return -math.inf
    pi = p[i]
    return -math.inf if pi <= 0.0 else math.log(pi)


def _finite_law(values: Sequence, weights: Callable[[object], np.ndarray]):
    """``(vals, sample, logpdf, support)`` of the law over ``values``, as
    1-d arrays ``vals``, with weights ``weights(c)`` given ``c``.  A NaN or
    infinite value is refused: the support would list it with positive
    probability while its log-probability is -inf."""
    vals = [np.atleast_1d(np.asarray(u, dtype=float)) for u in values]
    rows = _RowIndex(np.stack(vals))

    def sample(rng, c):
        return vals[_draw_index(rng, weights(c))]

    def logpdf(value, c):
        return _grid_logpmf(rows, weights(c), value)

    def support(c):
        return list(zip(vals, weights(c).tolist()))

    return vals, sample, logpdf, support


def grid_conditional(values: Sequence, probs: Callable[[JointPoint], np.ndarray],
                     name: str = "") -> AuxiliaryConditional:
    """Finite-support conditional over vector slot values.

    ``probs(point)`` returns the weight of each candidate value; the
    support hook makes the conditional enumerable by the matrix oracle.
    """
    _, sample, logpdf, support = _finite_law(
        values, lambda point: np.asarray(probs(point), dtype=float))
    return AuxiliaryConditional(sample, logpdf, support, name=name)


# ---------------------------------------------------------------------------
# 1-d distributions with tractable CDFs
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Cdf1D:
    """A 1-d target bundled with its CDF and inverse CDF."""

    cdf: Callable[[float], float]
    icdf: Callable[[float], float]
    density: LogDensity
    name: str = "cdf1d"


def normal_cdf1d() -> Cdf1D:
    return Cdf1D(cdf=lambda x: float(ndtr(x)),
                 icdf=lambda u: float(ndtri(u)),
                 density=standard_normal(1), name="normal")


def exponential_cdf1d() -> Cdf1D:
    def logpdf(x):
        return float(-x[0]) if x[0] >= 0 else -math.inf

    density = LogDensity(dim=1, logpdf=logpdf,
                         grad=lambda x: np.array([-1.0]))
    return Cdf1D(cdf=lambda x: -math.expm1(-max(x, 0.0)),
                 icdf=lambda u: -math.log1p(-u),
                 density=density, name="exponential")


def uniform_cdf1d() -> Cdf1D:
    def logpdf(x):
        return 0.0 if 0.0 <= x[0] <= 1.0 else -math.inf

    density = LogDensity(dim=1, logpdf=logpdf, grad=lambda x: np.zeros(1))
    return Cdf1D(cdf=lambda x: min(max(x, 0.0), 1.0),
                 icdf=lambda u: u, density=density, name="uniform")

"""Deterministic maps: integrators, involution combinators, coupling layers.

Everything here is a pure function of the state.  Bijections that are not
self-inverse (`FlowMap`) become involutions either by composition with a flip
(`hmc_involution`), by direction augmentation (`direction_augment`), or by
conjugation (`embed`).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .core import (Involution, JointPoint, Layout, _RowIndex, _joint_point, _slot_written,
                   _tag_written)
from .errors import ConfigError, FixedPointError

__all__ = [
    "AffineXFlow",
    "CouplingMap",
    "FlowMap",
    "LeapfrogConfig",
    "Metric",
    "RiemannianHamiltonian",
    "additive_coupling",
    "affine_coupling",
    "affine_x_flow",
    "cdf_map",
    "constant_metric",
    "cycle_flow",
    "direction_augment",
    "embed",
    "hmc_involution",
    "hmc_landings",
    "identity_flow",
    "implicit_hmc_involution",
    "implicit_leapfrog",
    "implicit_leapfrog_inverse",
    "leapfrog",
    "leapfrog_flow",
    "leapfrog_inverse",
    "mixture_involution",
    "momentum_flip",
    "swap_blocks",
    "swap_slots",
]


# ---------------------------------------------------------------------------
# explicit leapfrog
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class LeapfrogConfig:
    """Step size and step count for the integrators."""

    eps: float
    k: int = 1

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ConfigError("step size must be positive")
        if self.k < 1:
            raise ConfigError("step count must be at least 1")


def leapfrog(x: np.ndarray, v: np.ndarray, cfg: LeapfrogConfig,
             grad_x: Callable[[np.ndarray], np.ndarray],
             grad_v: Optional[Callable[[np.ndarray], np.ndarray]] = None,
             ) -> tuple[np.ndarray, np.ndarray]:
    """Half-kick / drift / half-kick update applied ``cfg.k`` times, the
    first stop of `_trajectory`.

    ``grad_x`` is the gradient of the target log-density; ``grad_v`` that of
    the momentum log-density (standard normal when omitted).  The map is
    volume preserving, so no log-Jacobian is returned.
    """
    return next(_trajectory(x, v, cfg, grad_x, grad_v))


def _trajectory(x: np.ndarray, v: np.ndarray, cfg: LeapfrogConfig, grad_x,
                grad_v) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The leapfrog from ``(x, v)``, stopping after every ``cfg.k`` steps
    with that stop's own position and momentum arrays.

    The gradient at each position serves both the closing half-kick of one
    step and the opening half-kick of the next, so a stop costs ``k + 1``
    gradients.  A non-finite gradient leaves ``v`` non-finite (later kicks
    only add to it), so one check of ``v`` per stop covers its steps.

    When ``grad_x`` is a `LogDensity`'s memoized gradient, only a stop's
    start goes through its memo: the interior positions are new points that
    nothing asks for again, and the stop's end goes through the density's
    ``value_and_grad``, since an acceptance test asks for its log-density
    next.  When that density also has a float form (`core.float_density`)
    and the momentum is standard normal, the kicks and drifts run on Python
    floats (`_leapfrog_floats`) with the same bits, each stop going on with
    the gradient the last one ended on.
    """
    x, memo = np.asarray(x, dtype=float), getattr(grad_x, "memo", None)
    if grad_v is None and getattr(memo, "floats", None) is not None:
        xs, vs, g = x.tolist(), np.asarray(v, dtype=float).tolist(), grad_x(x).tolist()
        while True:
            end, g = _leapfrog_floats(xs, vs, g, cfg, grad_x)
            yield end, np.array(vs)
    interior = endpoint = grad_x
    if memo is not None:
        interior = grad_x.fn

        def endpoint(y):
            return memo.value_and_grad(y)[1]

    half, eps = 0.5 * cfg.eps, cfg.eps
    while True:
        # x is never written to (each drift makes a new array), so only v,
        # whose half-kicks are in place, is copied, once per stop
        v = np.array(v, dtype=float)
        g = grad_x(x)
        for step in range(1, cfg.k + 1):
            v += half * g
            if grad_v is None:
                # the drift for a standard normal momentum: -eps * (-v) is eps * v
                x = x + eps * v
            else:
                x = x - eps * grad_v(v)
                v = v.copy()  # grad_v may keep the array it was handed
            g = endpoint(x) if step == cfg.k else interior(x)
            v += half * g
        if not np.isfinite(v).all():
            raise ConfigError("non-finite gradient in leapfrog")
        yield x, v


def _leapfrog_floats(x: list, v: list, g: Sequence[float], cfg: LeapfrogConfig,
                     grad_x) -> tuple[np.ndarray, Sequence[float]]:
    """The unit-mass `leapfrog` on the float form of ``grad_x``'s density,
    from the position ``x`` and momentum ``v``, lists of floats that it
    updates in place, with ``g`` the gradient at ``x`` as floats.  It
    returns the endpoint as an array and the gradient there, so a caller
    may go on from the end without asking the memo for it.

    Each coordinate gets the array path's operations in its order, ``v +
    half * g`` and ``x + eps * v`` as a separate multiply and add, and a
    Python float rounds each as numpy does, so the bits are the same.  The
    ``k - 1`` interior positions call the float form, and so does the
    endpoint, whose value and gradient then fill its record in the memo
    (`core._Memo.endpoint`).
    """
    floats = grad_x.memo.floats
    half, eps = 0.5 * cfg.eps, cfg.eps
    coords = range(len(x))
    for step in range(1, cfg.k + 1):
        for i in coords:
            w = v[i] + half * g[i]
            v[i] = w
            x[i] = x[i] + eps * w
        if step < cfg.k:
            g = floats(x)[1]
        else:
            end, g = grad_x.memo.endpoint(x)
        for i in coords:
            v[i] += half * g[i]
    if not all(map(math.isfinite, v)):
        raise ConfigError("non-finite gradient in leapfrog")
    return end, g


def leapfrog_inverse(x: np.ndarray, v: np.ndarray, cfg: LeapfrogConfig,
                     grad_x) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of the unit-mass `leapfrog`: flip, integrate, flip."""
    x, v = leapfrog(x, -np.asarray(v, dtype=float), cfg, grad_x)
    return x, -v


# ---------------------------------------------------------------------------
# flows on joint points
# ---------------------------------------------------------------------------

class FlowMap:
    """Bijection on joint points with log-Jacobians for both directions."""

    def __init__(self, fwd: Callable[[JointPoint], tuple[JointPoint, float]],
                 inv: Callable[[JointPoint], tuple[JointPoint, float]],
                 name: str = "flow"):
        self.fwd = fwd
        self.inv = inv
        self.name = name

    def forward(self, point: JointPoint) -> tuple[JointPoint, float]:
        return self.fwd(point)

    def inverse(self, point: JointPoint) -> tuple[JointPoint, float]:
        return self.inv(point)

    def inverted(self) -> "FlowMap":
        """The same bijection with forward and inverse exchanged."""
        return FlowMap(self.inv, self.fwd, name=f"{self.name}^-1")


def identity_flow() -> FlowMap:
    return FlowMap(lambda z: (z, 0.0), lambda z: (z, 0.0), name="identity")


def _xv_image(z: JointPoint, x: np.ndarray, v: np.ndarray) -> JointPoint:
    """``z`` with the target block ``x`` and the slot "v" set to ``v``, as
    one point.  ``x`` and ``v`` must be float arrays of the map's own: ``v``
    is the image's v block when the slot is the whole block, else it is
    written into a copy of ``z``'s."""
    if v.size != z.v.size:
        v = _slot_written(z.v, z.layout.slots["v"], v)
    return _joint_point(x, v, z.tags, z.layout)


def leapfrog_flow(cfg: LeapfrogConfig, grad_x) -> FlowMap:
    """The unit-mass integrator as a volume-preserving flow on (x, v)."""

    def fwd(z):
        return _xv_image(z, *leapfrog(z.x, z.slot("v"), cfg, grad_x)), 0.0

    def inv(z):
        return _xv_image(z, *leapfrog_inverse(z.x, z.slot("v"), cfg, grad_x)), 0.0

    return FlowMap(fwd, inv, name="leapfrog")


def affine_x_flow(shift, scale) -> "AffineXFlow":
    """Componentwise affine reparameterization of the target block."""
    return AffineXFlow(np.atleast_1d(np.asarray(shift, dtype=float)),
                       np.atleast_1d(np.asarray(scale, dtype=float)))


class AffineXFlow(FlowMap):
    """x -> shift + scale * x on the target block; latent gradients derivable."""

    def __init__(self, shift: np.ndarray, scale: np.ndarray):
        if np.any(scale == 0.0):
            raise ConfigError("affine scale must be nonzero")
        self.shift = shift
        self.scale = scale
        ld = float(np.sum(np.log(np.abs(scale))))

        def fwd(z):
            return z.with_x(self.shift + self.scale * z.x), ld

        def inv(z):
            return z.with_x((z.x - self.shift) / self.scale), -ld

        super().__init__(fwd, inv, name="affine_x")


def cycle_flow(values: Sequence[float]) -> FlowMap:
    """Cyclic shift on a finite set of 1-d target-block values.

    A point is on the cycle at the first value nearest to it within 1e-9
    (see `core._RowIndex`), which refuses a NaN or infinite value; a NaN
    point is on no cycle.
    """
    vals = np.asarray(values, dtype=float)
    nearest = _RowIndex(vals[:, None])

    def locate(x):
        i = nearest(x)
        if i is None:
            raise ConfigError("point is not on the cycle")
        return i

    def fwd(z):
        i = locate(z.x)
        return z.with_x(np.array([vals[(i + 1) % len(vals)]])), 0.0

    def inv(z):
        i = locate(z.x)
        return z.with_x(np.array([vals[(i - 1) % len(vals)]])), 0.0

    return FlowMap(fwd, inv, name="cycle")


# ---------------------------------------------------------------------------
# elementary involutions
# ---------------------------------------------------------------------------
# The maps that pair x with a momentum or proposal act on the slot "v".

def momentum_flip(name: str = "flip") -> Involution:
    """(x, v) -> (x, -v)."""

    def fn(z: JointPoint):
        w = z.slot("v")
        if w.size == 0:
            raise ConfigError("momentum flip needs an auxiliary block")
        return z.with_slot("v", -w), 0.0

    return Involution(fn, name=name)


def swap_blocks() -> Involution:
    """Exchange the target block with the slot "v" of equal dimension: the
    slot, and whether it is the whole v block, are worked out once per
    layout."""
    # (layout, its slot "v", or None where the slot is the whole v block),
    # replaced whole when the layout changes
    last = [(None, None)]

    def bind(layout):
        sl = layout.slots["v"]
        size = len(range(layout.v_dim)[sl])
        if layout.x_dim != size:
            raise ConfigError("swap needs matching block dimensions")
        last[0] = (layout, None if size == layout.v_dim else sl)
        return last[0][1]

    def fn(z: JointPoint):
        layout, sl = last[0]
        if layout is not z.layout:
            sl = bind(z.layout)
        if sl is None:
            # the slot is the whole v block: each block is the other's copy
            return _joint_point(z.v.copy(), z.x.copy(), z.tags, z.layout), 0.0
        return _joint_point(z.v[sl].copy(), _slot_written(z.v, sl, z.x),
                            z.tags, z.layout), 0.0

    return Involution(fn, name="swap")


def swap_slots(a: str, b: str) -> Involution:
    """Exchange two auxiliary slots of equal dimension: the image's v block
    is the input's taken through one permutation index, made once per
    layout, and its x block a copy."""
    # (layout, its permutation index), replaced whole when the layout changes
    last = [(None, None)]

    def permutation(layout):
        sa, sb = layout.slots[a], layout.slots[b]
        index = np.arange(layout.v_dim)
        if index[sa].size != index[sb].size:
            raise ConfigError("slots must have equal dimensions")
        index[sa], index[sb] = index[sb].copy(), index[sa].copy()
        last[0] = (layout, index)
        return index

    def fn(z: JointPoint):
        layout, index = last[0]
        if layout is not z.layout:
            index = permutation(z.layout)
        return _joint_point(z.x.copy(), z.v[index], z.tags, z.layout), 0.0

    return Involution(fn, name="swap_slots")


def _swap_negate_on(layout: Layout) -> Involution:
    """The lifted chains' move on ``layout``: exchange x and v and negate the
    direction tag "d", whose position is bound here."""
    i = layout.tag_index("d")

    def fn(z: JointPoint):
        return _joint_point(z.v.copy(), z.x.copy(), _tag_written(z.tags, i, -z.tags[i]),
                            z.layout), 0.0

    return Involution(fn, name="swap_negate")


# the move on any layout whose first tag is "d", as the lifted chains' layouts
_swap_negate = _swap_negate_on(Layout(x_dim=1, v_dim=1, tags=("d",)))


def hmc_involution(cfg: LeapfrogConfig, grad_x) -> Involution:
    """Flip composed with k unit-mass leapfrog steps; an involution for
    separable joints."""

    def fn(z: JointPoint):
        x, v = leapfrog(z.x, z.slot("v"), cfg, grad_x)
        return _xv_image(z, x, -v), 0.0

    return Involution(fn, name=f"flip*leapfrog^{cfg.k}")


def hmc_landings(cfg: LeapfrogConfig, grad_x) -> Callable[[JointPoint], Iterator[JointPoint]]:
    """``z ->`` the landing points ``flip(T^k(z))``, k = 1, 2, ..., of the
    ``cfg.k``-step unit-mass leapfrog T, for ever: the flipped stops of one
    `_trajectory`.  The flips negate exactly, so landing k + 1 is
    `hmc_involution` of the flip of landing k, with its bits, and each stop
    fills the density's memo as `leapfrog`'s does: a caller taking a
    landing's joint density before asking for the next keeps the memo as
    the involutions would.
    """

    def landings(z: JointPoint) -> Iterator[JointPoint]:
        for x, v in _trajectory(z.x, z.slot("v"), cfg, grad_x, None):
            yield _xv_image(z, x, -v)

    return landings


# ---------------------------------------------------------------------------
# implicit (metric) integrator
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Metric:
    """Position-dependent symmetric positive-definite mass matrix.

    ``g(x)`` returns the matrix, ``g_grad(x)`` the stacked partials
    ``dG/dx_k`` with shape (d, d, d), indexed as ``g_grad(x)[k][i, j] =
    dG_ij/dx_k``, which the implicit kicks need, and ``g_logdet(x)``, if
    given, its log-determinant.
    """

    g: Callable[[np.ndarray], np.ndarray]
    g_grad: Callable[[np.ndarray], np.ndarray]
    g_logdet: Optional[Callable[[np.ndarray], float]] = None

    def logdet(self, x: np.ndarray) -> float:
        if self.g_logdet is not None:
            return float(self.g_logdet(x))
        return float(np.linalg.slogdet(self.g(x))[1])

    def grad(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.g_grad(x), dtype=float)


def constant_metric(mat: np.ndarray) -> Metric:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    d = mat.shape[0]
    logdet = float(np.linalg.slogdet(mat)[1])
    return Metric(g=lambda x: mat,
                  g_logdet=lambda x: logdet,
                  g_grad=lambda x: np.zeros((d, d, d)))


class RiemannianHamiltonian:
    """H(x, v) = -log p(x) + 0.5 log|G(x)| + 0.5 v' G(x)^-1 v."""

    def __init__(self, target_logpdf, target_grad, metric: Metric):
        self.logpdf = target_logpdf
        self.target_grad = target_grad
        self.metric = metric

    def value(self, x: np.ndarray, v: np.ndarray) -> float:
        ginv_v = np.linalg.solve(self.metric.g(x), v)
        return (-float(self.logpdf(x)) + 0.5 * self.metric.logdet(x)
                + 0.5 * float(v @ ginv_v))

    def grad_x(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.grad_x_at(x)(v)

    def grad_x_at(self, x: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """``v -> grad_x(x, v)`` with everything that depends on x alone
        (G^-1, dG, the target gradient, the trace terms) computed once."""
        ginv = np.linalg.inv(self.metric.g(x))
        dg = self.metric.grad(x)
        base = -np.asarray(self.target_grad(x), dtype=float)
        for k in range(x.size):
            base[k] += 0.5 * np.trace(ginv @ dg[k])

        def kick(v: np.ndarray) -> np.ndarray:
            out = base.copy()
            ginv_v = ginv @ v
            for k in range(x.size):
                out[k] -= 0.5 * float(ginv_v @ dg[k] @ ginv_v)
            return out

        return kick

    def _scalar_kick_at(self, x: np.ndarray) -> tuple[Callable[[float], float], float]:
        """`grad_x_at` for a one-coordinate ``x``, as ``w -> grad_x(x, [w])[0]``
        on float64 scalars, and the metric ``g(x)`` it read.  It makes the
        array path's products in the same order; a 1x1 ``@`` or ``trace``
        sums from 0.0, so each sum here starts from 0.0 too and a zero keeps
        the array path's sign.  LAPACK inverts a 1x1 matrix as ``1.0 / g``,
        so the division gives ``inv``'s bits without its call."""
        g = self.metric.g(x)[0, 0]
        ginv = 1.0 / g
        dg = self.metric.grad(x)[0, 0, 0]
        base = -np.asarray(self.target_grad(x), dtype=float)[0] + 0.5 * (0.0 + ginv * dg)

        def kick(w: float) -> float:
            ginv_w = ginv * w
            return base - 0.5 * (0.0 + ginv_w * dg * ginv_w)

        return kick, g

    def grad_v(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.metric.g(x), v)


def _fixed_point(update, start, tol: float, max_iter: int):
    """Iterate ``update`` from ``start`` until it moves by at most ``tol``
    in the sup-norm.  A float64 scalar start is iterated as a scalar, whose
    residual is ``abs``; any other start as a fresh float array."""
    scalar = isinstance(start, np.float64)
    z = start if scalar else np.array(start, dtype=float)
    resid = math.inf
    for _ in range(max_iter):
        z_new = update(z)
        resid = abs(z_new - z) if scalar else float(np.abs(z_new - z).max(initial=0.0))
        # a non-finite iterate makes the residual non-finite too, so only
        # then is the iterate itself inspected
        if not math.isfinite(resid) and not np.all(np.isfinite(z_new)):
            raise FixedPointError("implicit integrator step diverged", math.inf)
        z = z_new
        if resid <= tol:
            return z
    raise FixedPointError("implicit integrator step did not converge", float(resid))


def implicit_leapfrog(x: np.ndarray, v: np.ndarray, cfg: LeapfrogConfig,
                      ham: RiemannianHamiltonian, max_iter: int = 100
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Generalized leapfrog for non-separable Hamiltonians.

    Each step solves two fixed-point equations (implicit half-kick and
    implicit drift) by plain iteration to a sup-norm change of 1e-12; the
    scheme is volume preserving and time reversible, so composing with a
    momentum flip gives an involution.  With one coordinate the solves and
    kicks run on float64 scalars (`_implicit_leapfrog_1d`), with the array
    path's bits and errors.
    """
    x, v = np.array(x, dtype=float), np.array(v, dtype=float)
    if x.shape == v.shape == (1,):
        return _implicit_leapfrog_1d(x, v, cfg, ham, max_iter)
    h = 0.5 * cfg.eps
    # a step's closing kick and the next step's implicit kick share one x
    kick = ham.grad_x_at(x)
    for _ in range(cfg.k):
        v_half = _fixed_point(lambda w: v - h * kick(w), v, 1e-12, max_iter)
        x_half = x + h * ham.grad_v(x, v_half)
        x = _fixed_point(lambda y: x_half + h * ham.grad_v(y, v_half), x_half,
                         1e-12, max_iter)
        kick = ham.grad_x_at(x)
        v = v_half - h * kick(v_half)
    return x, v


def _implicit_leapfrog_1d(x: np.ndarray, v: np.ndarray, cfg: LeapfrogConfig,
                          ham: RiemannianHamiltonian, max_iter: int
                          ) -> tuple[np.ndarray, np.ndarray]:
    """`implicit_leapfrog` at a one-coordinate point.  Each iterate is a
    float64 scalar, so an iteration makes a few scalar operations instead of
    a dozen calls on 1-element arrays; the metric and the target gradient
    still get 1-element arrays.  The kick at a step's start position hands
    back the metric it read there, so the first drift term reuses it."""
    h = 0.5 * cfg.eps
    g = ham.metric.g
    v = v[0]
    kick, g_x = ham._scalar_kick_at(x)
    for _ in range(cfg.k):
        v_half = _fixed_point(lambda w: v - h * kick(w), v, 1e-12, max_iter)
        # ``grad_v`` of a 1x1 metric: LAPACK solves it as this division
        x_half = x[0] + h * (v_half / g_x)
        x = np.array([_fixed_point(lambda y: x_half + h * (v_half / g(np.array([y]))[0, 0]),
                                   x_half, 1e-12, max_iter)])
        kick, g_x = ham._scalar_kick_at(x)
        v = v_half - h * kick(v_half)
    return x, np.array([v])


def implicit_leapfrog_inverse(x: np.ndarray, v: np.ndarray, cfg: LeapfrogConfig,
                              ham: RiemannianHamiltonian
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Inverse step via flip-integrate-flip (the Hamiltonian is even in v)."""
    x, v = implicit_leapfrog(x, -np.asarray(v, dtype=float), cfg, ham)
    return x, -v


def implicit_hmc_involution(cfg: LeapfrogConfig,
                            ham: RiemannianHamiltonian) -> Involution:
    """Flip composed with k implicit leapfrog steps on the slot "v"."""

    def fn(z: JointPoint):
        x, v = implicit_leapfrog(z.x, z.slot("v"), cfg, ham)
        return _xv_image(z, x, -v), 0.0

    return Involution(fn, name=f"flip*implicit_leapfrog^{cfg.k}")


# ---------------------------------------------------------------------------
# involution combinators
# ---------------------------------------------------------------------------

def direction_augment(flow: FlowMap) -> Involution:
    """Turn any bijection into an involution on states carrying a direction
    tag "d".

    Moving with d=+1 applies the forward map and lands on d=-1; moving with
    d=-1 applies the inverse and lands on d=+1.
    """

    # (layout, the position of its tag "d"), replaced whole when the layout changes
    last = [(None, None)]

    def fn(z: JointPoint):
        layout, i = last[0]
        if layout is not z.layout:
            layout, i = z.layout, z.layout.tag_index("d")
            last[0] = (layout, i)
        d = z.tags[i]
        if d == 1:
            z1, ld = flow.forward(z)
        elif d == -1:
            z1, ld = flow.inverse(z)
        else:
            raise ConfigError(f"direction tag must be +1 or -1, got {d}")
        return _joint_point(z1.x, z1.v, _tag_written(z1.tags, i, -d), z1.layout), ld

    return Involution(fn, name=f"dir[{flow.name}]")


def embed(flow: FlowMap, inner: Involution) -> Involution:
    """Conjugated involution ``flow^-1 . inner . flow``."""

    def fn(z: JointPoint):
        z1, ld1 = flow.forward(z)
        z2, ld2 = inner.forward(z1)
        z3, ld3 = flow.inverse(z2)
        return z3, ld1 + ld2 + ld3

    return Involution(fn, name=f"embed[{flow.name},{inner.name}]")


def mixture_involution(family: Callable[[int], Involution], tag: str,
                       name: str = "mixture") -> Involution:
    """Involution selected by a discrete tag held fixed by every member."""

    def fn(z: JointPoint):
        a = z.tag(tag)
        z1, ld = family(a).forward(z)
        if z1.tag(tag) != a:
            raise ConfigError("a mixture member mutated its own index tag")
        return z1, ld

    return Involution(fn, name=name)


# ---------------------------------------------------------------------------
# coupling maps
# ---------------------------------------------------------------------------

class CouplingMap(FlowMap):
    """Stack of coupling layers acting on the (x, v) pair.

    Layer kinds:

    - ``("add_x", s)``: x += s(v), volume preserving
    - ``("add_v", s)``: v += s(x), volume preserving
    - ``("scale_v", s)``: v *= exp(s(x)), logdet sum(s(x))
    - ``("swap",)``: exchange the blocks (equal dims)
    - ``("linear", a_x, a_v)``: componentwise rescale of each block

    A map built only from additive, swap, and det-one linear layers is volume
    preserving and reports a zero log-Jacobian everywhere.  The map couples
    the target block with the slot "v".

    ``forward_arrays``/``inverse_arrays`` take one point ``(d,)`` or rows
    ``(..., d)`` of points and return one log-det per row, a float for one
    point.  With layer functions that act elementwise, as all here do, a
    row's result equals the single-point result bitwise.  Every layer but
    ``swap`` makes a new block, so only a block that no layer replaced (a
    lone ``swap`` aliases the input) is copied at the end.
    """

    def __init__(self, layers: Sequence[tuple], name: str = "coupling"):
        self.layers = tuple(layers)
        # the layers as applied: a linear layer carries its arrays and its
        # constant log-det, computed once here
        steps = []
        vp = True
        for layer in self.layers:
            kind = layer[0]
            if kind == "scale_v":
                vp = False
            elif kind == "linear":
                ax, av = (np.asarray(a, dtype=float) for a in layer[1:])
                ld = float(np.sum(np.log(np.abs(ax))) + np.sum(np.log(np.abs(av))))
                vp = vp and abs(ld) <= 1e-12
                layer = (kind, ax, av, ld)
            elif kind not in ("add_x", "add_v", "swap"):
                raise ConfigError(f"unknown coupling layer kind {kind!r}")
            steps.append(layer)
        self._steps = tuple(steps)
        self.volume_preserving = vp
        super().__init__(self._forward, self._inverse, name=name)

    def forward_arrays(self, x: np.ndarray, v: np.ndarray):
        given = (x, v)
        ld = 0.0 if x.ndim == 1 else np.zeros(x.shape[:-1])
        for layer in self._steps:
            kind = layer[0]
            if kind == "add_x":
                x = x + layer[1](v)
            elif kind == "add_v":
                v = v + layer[1](x)
            elif kind == "scale_v":
                s = layer[1](x)
                v = v * np.exp(s)
                ld += s.sum(axis=-1)
            elif kind == "swap":
                x, v = v, x
            else:
                x, v = x * layer[1], v * layer[2]
                ld += layer[3]
        return _own(x, given), _own(v, given), ld

    def inverse_arrays(self, x: np.ndarray, v: np.ndarray):
        given = (x, v)
        ld = 0.0 if x.ndim == 1 else np.zeros(x.shape[:-1])
        for layer in reversed(self._steps):
            kind = layer[0]
            if kind == "add_x":
                x = x - layer[1](v)
            elif kind == "add_v":
                v = v - layer[1](x)
            elif kind == "scale_v":
                s = layer[1](x)
                v = v * np.exp(-s)
                ld -= s.sum(axis=-1)
            elif kind == "swap":
                x, v = v, x
            else:
                x, v = x / layer[1], v / layer[2]
                ld -= layer[3]
        return _own(x, given), _own(v, given), ld

    def _forward(self, z: JointPoint) -> tuple[JointPoint, float]:
        x, v, ld = self.forward_arrays(z.x, z.slot("v"))
        return _xv_image(z, x, v), ld

    def _inverse(self, z: JointPoint) -> tuple[JointPoint, float]:
        x, v, ld = self.inverse_arrays(z.x, z.slot("v"))
        return _xv_image(z, x, v), ld


def _own(block: np.ndarray, given: tuple) -> np.ndarray:
    """``block``, copied if it is one of the arrays ``given``."""
    return block.copy() if block is given[0] or block is given[1] else block


def _bounded_cubic(c: tuple[float, float, float, float]):
    """Smooth odd-ish polynomial shift, clipped through tanh(y / 3) to stay bounded."""

    def s(y: np.ndarray) -> np.ndarray:
        t = np.tanh(y / 3.0)
        return c[0] + c[1] * t + c[2] * t**2 + c[3] * t**3

    return s


# the x-block shift that both fixed coupling maps apply first
_X_SHIFT_COEFFS = (0.0, 0.4, 0.0, -0.1)


def additive_coupling() -> CouplingMap:
    """Two additive layers with fixed smooth shifts; volume preserving."""
    return CouplingMap(
        [("add_x", _bounded_cubic(_X_SHIFT_COEFFS)),
         ("add_v", _bounded_cubic((0.0, 0.3, 0.1, 0.0)))],
        name="nice")


def affine_coupling() -> CouplingMap:
    """Additive plus scaling layer; not volume preserving."""
    return CouplingMap(
        [("add_x", _bounded_cubic(_X_SHIFT_COEFFS)),
         ("scale_v", _bounded_cubic((0.0, 0.15, 0.0, 0.05)))],
        name="affine")


# ---------------------------------------------------------------------------
# CDF rotation map
# ---------------------------------------------------------------------------

DEFAULT_SHIFT = 1.0 / math.sqrt(2.0)


def cdf_map(cdf: Callable[[float], float], icdf: Callable[[float], float],
            shift: float):
    """Measure-preserving 1-d map: push through the CDF, rotate, pull back.

    The CDF value is clamped into [1e-15, 1 - 1e-15] before inversion
    because the inverse CDF diverges at the endpoints.
    """

    def fn(x: float) -> float:
        u = (float(cdf(x)) + shift) % 1.0
        u = min(max(u, 1e-15), 1.0 - 1e-15)
        return float(icdf(u))

    return fn

"""Generic involution-based MCMC engine.

A transition kernel is assembled from three ingredients: conditionals that
refresh auxiliary slots of the state, a deterministic self-inverse map on the
joint state with a log-Jacobian, and an acceptance rule applied to the joint
density ratio.  Compositions of such kernels give irreversible chains while
every component kernel individually preserves the joint target.

The module also ships the self-verification hooks (`verify_involution`,
`verify_jacobian`) used throughout the test oracles.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import math
import operator
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, DensityError, EnumerationError

__all__ = [
    "AcceptanceRule",
    "AuxiliaryConditional",
    "ChainResult",
    "DeterministicKernel",
    "ImcmcKernel",
    "Involution",
    "InvolutionReport",
    "JacobianReport",
    "JointPoint",
    "KernelComposition",
    "Layout",
    "LogDensity",
    "TagConditional",
    "chain_rngs",
    "float_density",
    "log_accept",
    "make_rng",
    "random_points",
    "run_chain",
    "verify_involution",
    "verify_jacobian",
]


# ---------------------------------------------------------------------------
# state representation
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Layout:
    """Shape contract for the points a kernel operates on.

    The continuous state is split into a target block ``x`` of fixed dimension
    and an auxiliary block ``v`` addressed through named slices.  Discrete
    coordinates (directions, mixture indices, model indices) live in an
    ordered tuple of integer tags.
    """

    x_dim: int
    v_dim: int = 0
    slots: dict[str, slice] = dataclasses.field(default_factory=dict)
    tags: tuple[str, ...] = ()
    tag_values: dict[str, tuple[int, ...]] = dataclasses.field(default_factory=dict)
    # tag name -> its first position in ``tags``, computed once
    _tag_pos: dict[str, int] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.x_dim < 0 or self.v_dim < 0:
            raise ConfigError("block dimensions must be non-negative")
        tag_pos: dict[str, int] = {}
        for i, name in enumerate(self.tags):
            tag_pos.setdefault(name, i)
        object.__setattr__(self, "_tag_pos", tag_pos)
        for name, sl in self.slots.items():
            if sl.stop > self.v_dim:
                raise ConfigError(f"slot {name!r} exceeds the v block")

    def tag_index(self, name: str) -> int:
        i = self._tag_pos.get(name)
        if i is None:
            raise ConfigError(f"unknown tag {name!r}")
        return i

    def point(self, x, v=None, tags=()) -> "JointPoint":
        x = np.asarray(x, dtype=float).reshape(self.x_dim)
        if v is None:
            v = np.zeros(self.v_dim)
        v = np.asarray(v, dtype=float).reshape(self.v_dim)
        tags = tuple(int(t) for t in tags)
        if len(tags) != len(self.tags):
            raise ConfigError("tag count does not match layout")
        return JointPoint(x=x, v=v, tags=tags, layout=self)


@dataclasses.dataclass(frozen=True)
class JointPoint:
    """A point of the joint space: target block, auxiliary block, tags."""

    x: np.ndarray
    v: np.ndarray
    tags: tuple[int, ...]
    layout: Layout

    def slot(self, name: str) -> np.ndarray:
        return self.v[self.layout.slots[name]]

    def tag(self, name: str) -> int:
        return self.tags[self.layout.tag_index(name)]

    def with_x(self, x) -> "JointPoint":
        return _joint_point(np.asarray(x, dtype=float), self.v, self.tags, self.layout)

    def with_v(self, v) -> "JointPoint":
        return _joint_point(self.x, np.asarray(v, dtype=float), self.tags, self.layout)

    def with_slot(self, name: str, value) -> "JointPoint":
        return _joint_point(self.x, _slot_written(self.v, self.layout.slots[name], value),
                            self.tags, self.layout)

    def with_tag(self, name: str, value: int) -> "JointPoint":
        return _joint_point(self.x, self.v, _tag_written(self.tags, self.layout.tag_index(name),
                                                         value), self.layout)

    def continuous(self) -> np.ndarray:
        """Concatenated continuous coordinates (x block then v block)."""
        return np.concatenate([self.x, self.v])

    def with_continuous(self, z: np.ndarray) -> "JointPoint":
        d = self.layout.x_dim
        return _joint_point(z[:d].copy(), z[d:].copy(), self.tags, self.layout)


def _joint_point(x, v, tags, layout) -> JointPoint:
    """A `JointPoint` built without the frozen dataclass's per-field
    ``__setattr__`` guards; a step makes several.  An involution builds its
    image with one call, from blocks of its own (`_slot_written`,
    `_tag_written`), so the image shares no block it changed with its
    input."""
    point = object.__new__(JointPoint)
    fields = point.__dict__
    fields["x"] = x
    fields["v"] = v
    fields["tags"] = tags
    fields["layout"] = layout
    return point


def _slot_written(v: np.ndarray, sl: slice, value) -> np.ndarray:
    """A copy of the v block ``v`` with its slice ``sl`` set to ``value``."""
    v = v.copy()
    v[sl] = value
    return v


def _tag_written(tags: tuple, i: int, value) -> tuple:
    """``tags`` with the tag at position ``i`` set to ``int(value)``."""
    return tags[:i] + (int(value),) + tags[i + 1:]


# ---------------------------------------------------------------------------
# densities and conditionals
# ---------------------------------------------------------------------------

_FLOAT64 = np.dtype(np.float64)
# `np.add.reduce` adds fewer than this many float64 values left to right,
# starting from 0.0; from this many on it unrolls into partial sums
_NUMPY_SERIAL_SUM = 8


def _numpy_order_sum(xs: list) -> float:
    """The sum ``np.add.reduce`` makes of the floats ``xs``, bit for bit."""
    if len(xs) < _NUMPY_SERIAL_SUM:
        s = 0.0
        for x in xs:
            s += x
        return s
    return float(np.add.reduce(np.array(xs, dtype=float)))


def _draw_index(rng: np.random.Generator, weights) -> int:
    """An index drawn in proportion to ``weights`` by the inverse CDF of one
    ``rng.random()``.  The weights need not sum to one; a NaN or negative
    weight, or a total that is not positive and finite, is refused.  A list
    is read as it is, so it must hold Python floats; anything else is read
    as a float64 array."""
    ws = weights if type(weights) is list else np.asarray(weights, dtype=float).tolist()
    total = _numpy_order_sum(ws)
    # a NaN weight makes the total NaN
    if not 0.0 < total < math.inf or min(ws) < 0.0:
        raise DensityError(f"cannot draw from the finite weights {ws!r}: they "
                           "must be non-negative with a positive finite sum")
    u = rng.random() * total
    acc = 0.0
    for i, w in enumerate(ws):
        acc += w
        if u < acc:
            return i
    return len(ws) - 1


def _read_only(result):
    """``result``, as a read-only view if it is an array: a caller editing a
    remembered array gets an error instead of corrupting a memo."""
    if isinstance(result, np.ndarray):
        result = result.view()
        result.flags.writeable = False
    return result


class _Memo:
    """The last two float64 points asked about, each with one record
    ``[key, value, gradient]``: its key (shape and bytes) and two fields that
    are None until something computes them.  A hit on the older point makes
    it the newer.  A step asks for its current point (the previous step's
    proposal or current point) and its proposal: two records serve every
    repeat.  A field is only ever set to the one value a pure function
    gives, so threads sharing the memo read that value or None (and compute
    it).  A density's ``logpdf`` and ``grad`` are `_Field`s of one memo."""

    __slots__ = ("logpdf_fn", "grad_fn", "fused", "floats", "_new", "_old")

    def __init__(self, logpdf_fn, grad_fn, fused, floats):
        self.logpdf_fn, self.grad_fn, self.fused, self.floats = logpdf_fn, grad_fn, fused, floats
        self._new = self._old = (None,)

    def record(self, x) -> list:
        """``x``'s record, a new empty one (the newer) if the memo does not
        hold it; a point that is not a float64 array gets one of its own."""
        if type(x) is not np.ndarray or x.dtype != _FLOAT64:
            return [None, None, None]
        key = (x.shape, x.tobytes())
        new, old = self._new, self._old
        if new[0] == key:
            return new
        if old[0] == key:
            self._new, self._old = old, new
            return old
        record = [key, None, None]
        self._new, self._old = record, new
        return record

    def value_and_grad(self, x):
        """``(logpdf(x), grad(x))`` from ``x``'s record: one call of
        ``fused`` (if the density has one) when both fields are empty, else
        one call for each empty field."""
        record = self.record(x)
        if record[1] is None and record[2] is None and self.fused is not None:
            record[1], record[2] = map(_read_only, self.fused(x))
        if record[1] is None:
            record[1] = _read_only(self.logpdf_fn(x))
        if record[2] is None:
            record[2] = _read_only(self.grad_fn(x))
        return record[1], record[2]

    def endpoint(self, coords: list) -> tuple[np.ndarray, Sequence[float]]:
        """A float trajectory's endpoint ``coords`` as an array, and the
        gradient there as floats: one call of the float form fills an empty
        record, and any other goes through `value_and_grad`."""
        x = np.array(coords)
        record = self.record(x)
        if record[1] is None and record[2] is None:
            value, g = self.floats(coords)
            record[1], record[2] = value, _read_only(np.array(g))
            return x, g
        return x, self.value_and_grad(x)[1].tolist()


class _Field:
    """A density's ``logpdf`` (field 1) or ``grad`` (field 2): that field
    of a point's record in ``memo``, computed by ``fn``, the density's own
    function, when the record lacks it."""

    __slots__ = ("fn", "memo", "_index", "_record")

    def __init__(self, memo: _Memo, index: int):
        self.fn = memo.grad_fn if index == 2 else memo.logpdf_fn
        self.memo, self._index, self._record = memo, index, memo.record

    def __call__(self, x):
        record = self._record(x)
        result = record[self._index]
        if result is None:
            result = record[self._index] = _read_only(self.fn(x))
        return result

    def at(self, read: Callable[["JointPoint"], np.ndarray]) -> Callable[["JointPoint"], object]:
        """``point ->`` this field at ``read(point)``, as one closure over
        the memo: a kernel's target term, or a proposal mean.  A float
        result is kept as it is, since only an array needs `_read_only`."""
        record, index, fn = self._record, self._index, self.fn

        def field(point):
            x = read(point)
            rec = record(x)
            result = rec[index]
            if result is None:
                result = fn(x)
                if type(result) is not float:
                    result = _read_only(result)
                rec[index] = result
            return result

        return field


def _last_two(fn) -> _Field:
    """``fn``, a pure function of a float64 array, remembered at its last two points."""
    return _Field(_Memo(fn, None, None, None), 1)


# the sup-norm distance within which a query matches a grid row or a state
_LOOKUP_ATOL = 1e-9


class _RowIndex:
    """The first of fixed float64 rows nearest to a query in the sup norm.

    ``nearest(query)`` gives ``(row index, distance)``, ties going to the
    lowest index; a row with no coordinates is at distance 0 from any query
    of its shape.  Calling the index gives that row's index if the distance
    is within ``_LOOKUP_ATOL``, else None.  A row with a NaN or infinite
    coordinate is refused: a NaN row's distance would win every search, and
    an infinite row is at distance NaN from itself, so no query finds it.

    The search runs once per distinct row at construction, and its answer
    for each row (the row, or an earlier one at distance 0 such as the other
    signed zero) is kept under the row's bytes: a float64 query of a row's
    shape whose bytes equal a row's costs one dict lookup.  Any other query
    (a signed zero that no row holds, a NaN, an off-grid point, another
    dtype) runs the search, so every answer is the search's.  The table never changes, so threads may share it.
    """

    __slots__ = ("_rows", "_shape", "_known")

    @staticmethod
    def refuse_non_finite(rows: np.ndarray, noun: str, error: type) -> None:
        """Raise ``error`` naming the first of 2-d ``rows`` that has a NaN or
        infinite coordinate, and that coordinate."""
        bad = np.argwhere(~np.isfinite(rows))
        if bad.size:
            i, j = bad[0]
            value = float(rows[i, j])
            kind = "a NaN" if math.isnan(value) else "an infinite"
            raise error(f"{noun} {i} has {kind} coordinate ({value!r} at index {j})")

    def __init__(self, rows: np.ndarray):
        self.refuse_non_finite(rows, "row", ConfigError)
        self._rows = rows
        self._shape = rows.shape[1:]
        self._known: dict[bytes, int] = {}
        for row in rows:
            key = row.tobytes()
            if key not in self._known:
                self._known[key] = self._search(row)[0]

    def _search(self, query) -> tuple[int, float]:
        dist = np.abs(self._rows - query).max(axis=1, initial=0.0)
        i = int(np.argmin(dist))
        return i, float(dist[i])

    def nearest(self, query) -> tuple[int, float]:
        if (type(query) is np.ndarray and query.dtype == _FLOAT64
                and query.shape == self._shape):
            i = self._known.get(query.tobytes())
            if i is not None:
                return i, 0.0
        return self._search(query)

    def __call__(self, query) -> Optional[int]:
        # the table test is written out, not a call of `nearest`: a grid
        # density runs it at every evaluation
        if (type(query) is np.ndarray and query.dtype == _FLOAT64
                and query.shape == self._shape):
            i = self._known.get(query.tobytes())
            if i is not None:
                return i
        i, d = self._search(query)
        return i if d <= _LOOKUP_ATOL else None


@dataclasses.dataclass(frozen=True)
class LogDensity:
    """Unnormalized log-density with an optional analytic gradient.

    ``logpdf`` and ``grad`` must be pure functions of ``x``: a density
    remembers one record per point, its value and its gradient, at the last
    two points it was asked about (`_Memo`), so a point is evaluated once
    however many parts of a step ask for it.  The bench's targets take rows
    ``(chains, dim)`` and give one value per row, remembered per row array.

    ``value_and_grad`` returns ``(logpdf(x), grad(x))`` and fills both
    fields.  A density may supply a fused function that computes the pair in
    one pass; its results must equal ``logpdf``'s and ``grad``'s bitwise,
    since a density rebuilt without it must give the same chains.  Without
    one, the pair comes from ``logpdf`` and ``grad``.  A density with a
    gradient always has ``value_and_grad``.

    ``floats``, the float form, is the same pair on Python floats:
    ``floats(coords) -> (value, gradient)`` for a list of float coordinates,
    with the gradient a sequence of floats.  It must not keep the list it
    is handed.  A density that computes in floats (see `float_density`)
    wraps this one function as its array callables, so its results equal
    theirs bitwise; `maps.leapfrog` then steps on floats.
    """

    dim: int
    logpdf: Callable[[np.ndarray], float]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    value_and_grad: Optional[
        Callable[[np.ndarray], tuple[float, np.ndarray]]] = None
    floats: Optional[Callable[[list], tuple[float, Sequence[float]]]] = None

    def __post_init__(self):
        if self.grad is None and (self.value_and_grad is not None
                                  or self.floats is not None):
            raise ConfigError("a fused value_and_grad or a float form "
                              "needs the gradient too")
        memo = _Memo(self.logpdf, self.grad, self.value_and_grad, self.floats)
        object.__setattr__(self, "logpdf", _Field(memo, 1))
        if self.grad is not None:
            object.__setattr__(self, "grad", _Field(memo, 2))
            object.__setattr__(self, "value_and_grad", memo.value_and_grad)


def float_density(dim: int, value, floats) -> LogDensity:
    """The `LogDensity` whose maths is on Python floats: ``value(coords)``
    is the log-density alone and ``floats(coords)`` the float form, the
    value and the gradient, for the coordinates as a list of floats.  Its
    ``logpdf`` hands the point's coordinates to ``value``, and its ``grad``
    and fused ``value_and_grad`` to ``floats``; the two functions must give
    the same value bitwise, so they should share the target's component
    maths, with ``value`` skipping the gradient."""

    def coords(x):
        return np.asarray(x, dtype=float).tolist()

    def logpdf(x):
        # a chain's point is a float64 array, whose list goes straight to `value`
        return value(x.tolist() if type(x) is np.ndarray and x.dtype == _FLOAT64
                     else coords(x))

    def value_and_grad(x):
        lp, g = floats(coords(x))
        return lp, np.array(g)

    return LogDensity(dim=dim, logpdf=logpdf,
                      grad=lambda x: value_and_grad(x)[1],
                      value_and_grad=value_and_grad, floats=floats)


class AuxiliaryConditional:
    """Sampler plus log-density for one auxiliary slot.

    ``sample`` draws a new slot value conditioned on the rest of the point,
    ``logpdf`` scores a value against the same conditional, and ``support``
    (optional) enumerates ``(value, probability)`` pairs on finite spaces so
    the exact transition-matrix oracle can integrate the slot out.

    The conditioning point passed to ``logpdf`` has every slot populated;
    implementations must only read the coordinates they declare as parents,
    which keeps the factorization meaningful at both the current and the
    proposed point.
    """

    def __init__(self, sample, logpdf, support=None, *, name: str):
        self._sample = sample
        self._logpdf = logpdf
        self._support = support
        self.name = name

    def sample(self, rng: np.random.Generator, point: JointPoint):
        return self._sample(rng, point)

    def sampler(self) -> Callable[[np.random.Generator, JointPoint], object]:
        """``(rng, point) ->`` a draw, as one call: a kernel binds each
        refreshed factor's sampler once, and `sample` calls the same one."""
        return self._sample

    def logpdf(self, value, point: JointPoint) -> float:
        return float(self._logpdf(value, point))

    def scorer(self, read: Callable[[JointPoint], object]) -> Callable[[JointPoint], float]:
        """``point ->`` the log-density of the value ``read(point)`` given
        ``point``, as one call: a kernel binds each factor once."""
        logpdf = self.logpdf
        return lambda point: logpdf(read(point), point)

    def support(self, point: JointPoint):
        if self._support is None:
            return None
        return self._support(point)


class TagConditional(AuxiliaryConditional):
    """Conditional over a finite set of integer tag values.

    ``probs`` maps a conditioning point to a probability vector over
    ``values``, drawn from by `_draw_index`; the vector must sum to one
    (checked within 1e-12 at enumeration time).
    """

    def __init__(self, values: Sequence[int], probs, name: str):
        self.values = tuple(int(u) for u in values)

        def _sample(rng, point):
            return self.values[_draw_index(rng, probs(point))]

        def _logpdf(value, point):
            pi = float(probs(point)[self.values.index(int(value))])
            return -math.inf if pi <= 0.0 else math.log(pi)

        def _support(point):
            p = np.asarray(probs(point), dtype=float)
            if abs(p.sum() - 1.0) > 1e-12:
                raise EnumerationError(
                    f"tag probabilities for {name!r} sum to {p.sum()!r}, not 1")
            return [(u, float(pi)) for u, pi in zip(self.values, p)]

        super().__init__(_sample, _logpdf, _support, name=name)

    def scorer(self, read):
        # `_logpdf` gives a float, so `logpdf`'s float() is left out
        logpdf = self._logpdf
        return lambda point: logpdf(read(point), point)


def uniform_tag(values: Sequence[int], name: str) -> TagConditional:
    values = tuple(values)
    # a list of floats, which `_draw_index` reads as it is
    w = [1.0 / len(values)] * len(values)
    return TagConditional(values, lambda point: w, name=name)


# ---------------------------------------------------------------------------
# involutions
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Involution:
    """Deterministic self-inverse map on joint points.

    ``fn`` returns the image point together with the log absolute determinant
    of the Jacobian restricted to the continuous blocks; tag permutations are
    volume-free by convention.
    """

    fn: Callable[[JointPoint], tuple[JointPoint, float]]
    name: str = "involution"

    def forward(self, point: JointPoint) -> tuple[JointPoint, float]:
        return self.fn(point)


@dataclasses.dataclass(frozen=True)
class InvolutionReport:
    name: str
    max_displacement: float
    max_logdet_asymmetry: float
    tol: float
    tags_restored: bool

    @property
    def passed(self) -> bool:
        return (self.tags_restored
                and self.max_displacement <= self.tol
                and self.max_logdet_asymmetry <= max(self.tol, 1e-8))


def verify_involution(f: Involution, points: Sequence[JointPoint],
                      tol: float = 1e-10) -> InvolutionReport:
    """Check ``f(f(z)) == z`` and log-Jacobian antisymmetry on test points.

    The points are compared as one block, and the largest displacement and
    asymmetry are numpy maxima, which keep a NaN: a map that sends a point
    to a NaN, or reports a NaN log-det, fails with the NaN recorded.
    """
    starts, returns, asyms = [], [], []
    tags_ok = True
    for z in points:
        z1, ld1 = f.forward(z)
        z2, ld2 = f.forward(z1)
        starts.append(z.continuous())
        returns.append(z2.continuous())
        asyms.append(abs(ld1 + ld2))
        tags_ok = tags_ok and (z2.tags == z.tags)
    max_disp = max_asym = 0.0
    if starts:
        max_disp = float(np.max(np.abs(np.array(returns) - np.array(starts)), initial=0.0))
        max_asym = float(np.max(np.array(asyms, dtype=float), initial=0.0))
    return InvolutionReport(f.name, max_disp, max_asym, tol, tags_ok)


@dataclasses.dataclass(frozen=True)
class JacobianReport:
    name: str
    reported_logdet: float
    fd_logdet: float
    tol: float
    condition: float

    @property
    def abs_error(self) -> float:
        return abs(self.reported_logdet - self.fd_logdet)

    @property
    def passed(self) -> bool:
        return math.isfinite(self.fd_logdet) and self.abs_error <= self.tol


def fd_jacobian(f: Involution, point: JointPoint) -> np.ndarray:
    """Central-difference Jacobian (step 1e-5) of the continuous blocks of ``f``."""
    step = 1e-5
    z0 = point.continuous()
    n = z0.size
    if n == 0:
        raise ConfigError("finite-difference Jacobian needs continuous blocks")
    jac = np.empty((n, n))
    for j in range(n):
        zp, zm = z0.copy(), z0.copy()
        zp[j] += step
        zm[j] -= step
        fp, _ = f.forward(point.with_continuous(zp))
        fm, _ = f.forward(point.with_continuous(zm))
        jac[:, j] = (fp.continuous() - fm.continuous()) / (2.0 * step)
    return jac


def verify_jacobian(f: Involution, point: JointPoint, tol: float) -> JacobianReport:
    """Compare the reported log|det J| against a finite-difference estimate.

    A finite-difference Jacobian with a NaN or infinite entry has no
    log-determinant or condition number: both are recorded as NaN and the
    report fails.
    """
    _, reported = f.forward(point)
    jac = fd_jacobian(f, point)
    if not np.isfinite(jac).all():
        return JacobianReport(f.name, float(reported), math.nan, tol, math.nan)
    sign, fd_logdet = np.linalg.slogdet(jac)
    cond = float(np.linalg.cond(jac))
    if sign == 0.0:
        fd_logdet = math.nan
    return JacobianReport(f.name, float(reported), float(fd_logdet), tol, cond)


# ---------------------------------------------------------------------------
# acceptance rules
# ---------------------------------------------------------------------------

class AcceptanceRule(enum.Enum):
    METROPOLIS = "metropolis"
    BARKER = "barker"


def log_accept(rule: AcceptanceRule, log_p_current: float,
               log_p_proposed: float, logdet: float) -> float:
    """Acceptance probability for a joint-density ratio.

    Metropolis returns ``min(1, exp(log_p_proposed - log_p_current + logdet))``
    and Barker returns ``1 / (1 + exp(log_p_current - log_p_proposed - logdet))``.
    A proposal with zero density is rejected outright.
    """
    # x != x holds exactly for a NaN, without a call per argument
    if (log_p_current != log_p_current or log_p_proposed != log_p_proposed
            or logdet != logdet):
        raise DensityError("NaN encountered in acceptance computation")
    if log_p_proposed == -math.inf:
        return 0.0
    if log_p_current == -math.inf:
        return 1.0
    delta = log_p_proposed - log_p_current + logdet
    if rule is AcceptanceRule.METROPOLIS:
        return 1.0 if delta >= 0.0 else math.exp(delta)
    if rule is AcceptanceRule.BARKER:
        # expit(delta), stable on both sides
        if delta >= 0.0:
            return 1.0 / (1.0 + math.exp(-delta))
        e = math.exp(delta)
        return e / (1.0 + e)
    raise ConfigError(f"unknown acceptance rule {rule!r}")


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

# a step's (point, accepted, prob), as `TransitionKernel` describes
Step = tuple[JointPoint, bool, float]


class TransitionKernel:
    """Common protocol: a single stochastic step plus optional enumeration.

    ``step`` returns the tuple ``(point, accepted, prob)``: where the step
    landed, whether it moved, and its acceptance probability.
    """

    layout: Layout
    name: str = "kernel"

    def step(self, point: JointPoint, rng: np.random.Generator) -> Step:
        raise NotImplementedError

    def enumerate_step(self, point: JointPoint) -> list[tuple[JointPoint, float]]:
        raise EnumerationError(f"{self.name} does not support exact enumeration")

    def enumerate_steps(self, points: Sequence[JointPoint]
                        ) -> list[list[tuple[JointPoint, float]]]:
        """Each point's ``(dest, prob)`` branches, in order: one matrix
        build's enumeration, for kernels that share work across its rows."""
        return [self.enumerate_step(point) for point in points]

    def kernels(self) -> list["TransitionKernel"]:
        return [self]


class ImcmcKernel(TransitionKernel):
    """One accept-reject step: refresh auxiliaries, apply the involution, test.

    Parameters
    ----------
    layout : Layout
    target : callable(JointPoint) -> float
        Log-density of the target block (and tags, where they carry density,
        e.g. a model index).  Auxiliary factors are added by the kernel.
    aux_refresh : sequence of (slot-or-tag name, AuxiliaryConditional)
        Resampled in order before the deterministic move.
    involution : Involution
    rule : AcceptanceRule
    aux_static : sequence of (slot-or-tag name, AuxiliaryConditional)
        Factors of the joint density that this kernel does not refresh but
        whose coordinates its involution may move (e.g. a persistent momentum
        block negated by a flip kernel).
    """

    def __init__(self, layout: Layout, target, aux_refresh=(), *, involution: Involution,
                 rule: AcceptanceRule = AcceptanceRule.METROPOLIS,
                 aux_static=(), name: str = "imcmc"):
        self.layout = layout
        self.target = target
        self.aux_refresh = tuple(aux_refresh)
        self.aux_static = tuple(aux_static)
        self.involution = involution
        self.rule = rule
        self.name = name
        self._factors = self.aux_refresh + self.aux_static
        # each factor as one call scoring its coordinates, and each
        # refreshed one as (writer of its coordinates, its sampler), bound
        # once
        self._scores = tuple(cond.scorer(_reader(layout, slot))
                             for slot, cond in self._factors)
        self._written = tuple((_writer(layout, slot), cond.sampler())
                              for slot, cond in self.aux_refresh)
        # the joint log-density as one closure, and the involution's own
        # function, called without `Involution.forward`
        self._joint = _joint_density(target, self._scores, name)
        self._map = involution.fn
        # no target and no factors: the joint density is identically 1
        self._flat = target is None and not self._factors
        # the table of acceptance tests that `enumerate_steps` reads and
        # fills (`sharing_tests`); None gives each call a table of its own
        self._tests: Optional[dict] = None

    # -- density bookkeeping -------------------------------------------------

    def joint_logpdf(self, point: JointPoint) -> float:
        return self._joint(point)

    def frozen_aux(self) -> "ImcmcKernel":
        """The accept/reject move with auxiliaries held fixed.

        Same joint density, no resampling; this is the part of the kernel
        the joint-space reversibility statement applies to.
        """
        frozen = ImcmcKernel(self.layout, self.target, aux_refresh=(),
                             involution=self.involution, rule=self.rule,
                             aux_static=self._factors,
                             name=f"{self.name}_frozen")
        # the same joint density, involution and rule make the same tests,
        # unless a subclass changed how this kernel tests
        if type(self).acceptance is ImcmcKernel.acceptance:
            frozen._tests = self._tests
        return frozen

    def sharing_tests(self, tests: dict) -> "ImcmcKernel":
        """A copy of this kernel whose enumerations, and those of its
        `frozen_aux`, read and fill the table ``tests``.  The two kernels
        make one acceptance test, a pure function of a refreshed point's
        bits, so one table serves a case's matrix and its frozen matrix."""
        kernel = copy.copy(self)
        kernel._tests = tests
        return kernel

    def acceptance(self, point: JointPoint) -> tuple[float, JointPoint]:
        """Acceptance probability of the deterministic move from ``point``."""
        flat, joint = self._flat, self._joint
        lp = 0.0 if flat else joint(point)
        proposal, logdet = self._map(point)
        # a map that passes the tags through keeps their count
        if (proposal.x.shape != point.x.shape or proposal.v.shape != point.v.shape
                or (proposal.tags is not point.tags
                    and len(proposal.tags) != len(point.tags))):
            raise ConfigError(f"{self.name}: involution changed the point layout")
        if lp == -math.inf:
            # zero-probability auxiliary draw: reject without evaluating further
            return 0.0, proposal
        lq = 0.0 if flat else joint(proposal)
        return log_accept(self.rule, lp, lq, logdet), proposal

    # -- stepping ------------------------------------------------------------

    def step(self, point: JointPoint, rng: np.random.Generator) -> Step:
        for write, sample in self._written:
            point = write(point, sample(rng, point))
        prob, proposal = self.acceptance(point)
        if rng.random() < prob:
            return proposal, True, prob
        return point, False, prob

    # -- exact enumeration ---------------------------------------------------

    def _expand(self, point: JointPoint, idx: int) -> Iterator[tuple[JointPoint, float]]:
        if idx == len(self.aux_refresh):
            yield point, 1.0
            return
        write = self._written[idx][0]
        sup = self.aux_refresh[idx][1].support(point)
        if sup is None:
            raise EnumerationError(f"{self.name}: conditional for slot "
                                   f"{self.aux_refresh[idx][0]!r} has no finite support")
        for value, p in sup:
            if p == 0.0:
                continue
            yield from ((pt, p * w)
                        for pt, w in self._expand(write(point, value), idx + 1))

    def enumerate_step(self, point: JointPoint) -> list[tuple[JointPoint, float]]:
        return self.enumerate_steps([point])[0]

    def enumerate_steps(self, points: Sequence[JointPoint]
                        ) -> list[list[tuple[JointPoint, float]]]:
        """Each point's branches, with one acceptance test per distinct
        refreshed point.

        States that differ only in refreshed coordinates land on the same
        refreshed points, and the test is a pure function of a point's bits,
        so a table keyed by those bits answers repeats with the same
        numbers.  The table is local to the call unless the kernel was made
        by `sharing_tests`.
        """
        scored: dict[tuple, tuple[float, JointPoint]] = (
            {} if self._tests is None else self._tests)
        rows = []
        for point in points:
            out = []
            for refreshed, w in self._expand(point, 0):
                key = (refreshed.x.tobytes(), refreshed.v.tobytes(), refreshed.tags)
                hit = scored.get(key)
                if hit is None:
                    hit = scored[key] = self.acceptance(refreshed)
                prob, proposal = hit
                if prob > 0.0:
                    out.append((proposal, w * prob))
                if prob < 1.0:
                    out.append((refreshed, w * (1.0 - prob)))
            rows.append(out)
        return rows


def _joint_density(target, scores: tuple, name: str) -> Callable[[JointPoint], float]:
    """``point ->`` the joint log-density: the target term plus each bound
    factor score, stopping at the first -inf; a NaN total is a
    `DensityError` naming the kernel.  A None target contributes nothing:
    factors the involution never moves may be omitted from a kernel's
    bookkeeping."""

    def joint(point):
        total = 0.0 if target is None else float(target(point))
        for score in scores:
            if total == -math.inf:
                break
            total += score(point)
        if total != total:
            raise DensityError(f"{name}: joint log-density is NaN")
        return total

    return joint


def _reader(layout: Layout, slot: str) -> Callable[[JointPoint], object]:
    """``point ->`` the value of the named tag or v slot, or the whole
    target block for the reserved name ``"x"``.  A whole block is read
    by an `operator.attrgetter`, which runs no Python frame; a slot that
    spans the v block reads the block itself, unsliced."""
    if slot in layout.tags:
        i = layout.tag_index(slot)
        return lambda point: point.tags[i]
    if slot == "x":
        return operator.attrgetter("x")
    if slot in layout.slots:
        sl = layout.slots[slot]
        if range(layout.v_dim)[sl] == range(layout.v_dim):
            return operator.attrgetter("v")
        return lambda point: point.v[sl]
    raise ConfigError(f"unknown auxiliary slot {slot!r}")


def _writer(layout: Layout, slot: str) -> Callable[[JointPoint, object], JointPoint]:
    """``(point, value) ->`` the point with the named tag, v slot or, for
    the reserved name ``"x"``, target block set to ``value``."""
    if slot in layout.tags:
        i = layout.tag_index(slot)
        return lambda point, value: _joint_point(
            point.x, point.v, _tag_written(point.tags, i, value), point.layout)
    if slot == "x":
        return lambda point, value: point.with_x(value)
    if slot in layout.slots:
        sl = layout.slots[slot]

        def write(point, value):
            v = point.v.copy()
            v[sl] = value
            return _joint_point(point.x, v, point.tags, point.layout)

        return write
    raise ConfigError(f"unknown auxiliary slot {slot!r}")


class DeterministicKernel(TransitionKernel):
    """Rejection-free kernel given by a measure-preserving bijection."""

    def __init__(self, layout: Layout, fn, name: str = "deterministic", target=None):
        self.layout = layout
        self.fn = fn
        self.name = name
        self.target = target

    def step(self, point: JointPoint, rng: np.random.Generator) -> Step:
        return self.fn(point), True, 1.0

    def enumerate_step(self, point: JointPoint) -> list[tuple[JointPoint, float]]:
        return [(self.fn(point), 1.0)]


class KernelComposition(TransitionKernel):
    """Ordered application of kernels sharing one layout."""

    def __init__(self, kernels: Sequence[TransitionKernel], name: str):
        flat: list[TransitionKernel] = []
        for k in kernels:
            flat.extend(k.kernels())
        if not flat:
            raise ConfigError("a composition needs at least one kernel")
        layout = flat[0].layout
        for k in flat[1:]:
            if (k.layout.x_dim, k.layout.v_dim, k.layout.tags) != (
                    layout.x_dim, layout.v_dim, layout.tags):
                raise ConfigError("kernels in a composition must share one layout")
        self._kernels = flat
        self.layout = layout
        self.name = name

    def kernels(self) -> list[TransitionKernel]:
        return list(self._kernels)

    def step(self, point: JointPoint, rng: np.random.Generator) -> Step:
        accepted = True
        prob = 1.0
        for k in self._kernels:
            point, moved, p = k.step(point, rng)
            accepted = accepted and moved
            prob = min(prob, p)
        return point, accepted, prob


def compose(kernels: Sequence[TransitionKernel], name: str = "composition") -> KernelComposition:
    return KernelComposition(kernels, name=name)


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def make_rng(seed) -> np.random.Generator:
    """Counter-based generator (Philox) from a seed or SeedSequence."""
    return np.random.Generator(np.random.Philox(seed))


def chain_rngs(master_seed: int, n_chains: int) -> list[np.random.Generator]:
    """Independent per-chain streams split deterministically from one seed."""
    root = np.random.SeedSequence(master_seed)
    return [make_rng(s) for s in root.spawn(n_chains)]


@dataclasses.dataclass
class ChainResult:
    """Recorded trace of a chain: target blocks, accept flags, probabilities."""

    xs: np.ndarray              # (n, x_dim)
    accepted: np.ndarray        # (n, n_kernels) bool
    accept_prob: np.ndarray     # (n, n_kernels)
    tags: Optional[np.ndarray]  # (n, n_tags) int, when recorded
    final: Optional[JointPoint]

    def accepted_all(self) -> np.ndarray:
        """Per-step flag: every sub-kernel proposal accepted."""
        return self.accepted.all(axis=1)


def run_chain(kernel: TransitionKernel, init: JointPoint, n: int,
              seed=None, rng: Optional[np.random.Generator] = None,
              record_tags: bool = False) -> ChainResult:
    """Run ``n`` steps and record the target block after each step.

    The trace is a pure function of ``(kernel, init, n, seed)``; auxiliary
    blocks are recorded only through the optional tag trace.  A
    `DensityError` raised by a step names the kernel and the step's index in
    the trace, e.g. ``hmc step 137: hmc: joint log-density is NaN``.
    """
    if n < 0:
        raise ConfigError("step count must be non-negative")
    if rng is None:
        rng = make_rng(0 if seed is None else seed)
    kernels = kernel.kernels()
    targets = [k.target for k in kernels if getattr(k, "target", None) is not None]
    if targets and not math.isfinite(targets[0](init)):
        raise DensityError("initial state has non-finite target log-density")

    m = len(kernels)
    # the x blocks go into one array as they come, so no step's x is kept;
    # the flags and probabilities, one per sub-kernel and step, are appended
    # to lists and converted once
    xs = np.empty((n, init.layout.x_dim))
    acc: list = []
    prob: list = []
    tag_trace = np.empty((n, len(init.layout.tags)), dtype=int) if record_tags else None

    steps = [k.step for k in kernels]
    flag, weigh = acc.append, prob.append
    point = init
    try:
        for i in range(n):
            for step in steps:
                point, accepted, p = step(point, rng)
                flag(accepted)
                weigh(p)
            xs[i] = point.x
            if record_tags:
                tag_trace[i] = point.tags
    except DensityError as exc:
        raise DensityError(f"{kernel.name} step {i}: {exc}") from exc
    return ChainResult(xs=xs, accepted=np.array(acc, dtype=bool).reshape(n, m),
                       accept_prob=np.array(prob, dtype=float).reshape(n, m),
                       tags=tag_trace, final=point if n > 0 else init)


def random_points(layout: Layout, n: int, rng: np.random.Generator
                  ) -> list[JointPoint]:
    """Layout-valid standard-normal points for involution and Jacobian tests."""
    points = []
    for _ in range(n):
        tags = tuple(int(rng.choice(layout.tag_values.get(t, (0, 1))))
                     for t in layout.tags)
        points.append(layout.point(rng.standard_normal(layout.x_dim),
                                   rng.standard_normal(layout.v_dim), tags))
    return points

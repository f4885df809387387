"""Named sampler builders.

Each ``make_*`` function wires conditionals and an involution into a kernel
(or an ordered composition for the irreversible chains) ready for
`run_chain` and for the exact finite-state oracles.  Builders never own the
target: densities come from the caller, hyperparameters are explicit.  A
builder names its kernels itself unless its callers give different names.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    AcceptanceRule,
    AuxiliaryConditional,
    DeterministicKernel,
    ImcmcKernel,
    Involution,
    JointPoint,
    KernelComposition,
    Layout,
    LogDensity,
    StepOutcome,
    TagConditional,
    TransitionKernel,
    _NUMPY_SERIAL_SUM,
    _LastTwo,
    _numpy_order_sum,
    compose,
)
from .errors import ConfigError, DensityError
from .maps import (
    FlowMap,
    LeapfrogConfig,
    Metric,
    RiemannianHamiltonian,
    _swap_negate,
    cdf_map,
    direction_augment,
    embed,
    hmc_involution,
    implicit_hmc_involution,
    mixture_involution,
    swap_blocks,
    swap_slots,
)
from .targets import Cdf1D, _finite_law

_LOG_2PI = math.log(2.0 * math.pi)

__all__ = [
    "CoordDist",
    "ModelSpace",
    "default_init",
    "gaussian_slot_conditional",
    "lifted_matrix",
    "make_cdf_deterministic",
    "make_directional_map",
    "make_embedded_flow",
    "make_gibbs",
    "make_hamiltonian",
    "make_irr_mala",
    "make_irr_nice_mc",
    "make_lifted",
    "make_lifted_rw1d",
    "make_look_ahead",
    "make_mh",
    "make_mixture_proposal",
    "make_multiple_try",
    "make_persistent",
    "make_sample_adaptive",
    "make_transdimensional",
    "mala_proposal",
    "normal_momentum",
    "random_walk_proposal",
    "xv_layout",
]


# ---------------------------------------------------------------------------
# layouts, conditionals, small helpers
# ---------------------------------------------------------------------------

def xv_layout(d: int, tags: tuple[str, ...] = (), scratch: bool = False,
              tag_values: Optional[dict] = None) -> Layout:
    """Target block plus one auxiliary slot "v" (and optional scratch "a")."""
    v_dim = 2 * d if scratch else d
    slots = {"v": slice(0, d)}
    if scratch:
        slots["a"] = slice(d, 2 * d)
    tv = {t: (-1, 1) for t in tags if t in ("d", "nu")}
    if tag_values:
        tv.update(tag_values)
    return Layout(x_dim=d, v_dim=v_dim, slots=slots, tags=tags, tag_values=tv)


class ProposalFamily:
    """Reusable proposal density q(. | center) over one block.

    Seen from a point (`_FamilyConditional`) a family is a slot conditional;
    the multiple-try and sample-adaptive kernels also score it at centers of
    their own.  ``logpdf_rows`` scores a block of rows at once: of
    ``values`` and ``centers`` one is an (n, d) array and the other one more
    such array or a single (d,) row, and item i of the result is
    ``logpdf(values[i], centers[i])``, bit for bit.  ``logpdf`` takes a
    value and a center that are both (d,) float arrays.
    """

    def __init__(self, sample, logpdf, logpdf_rows, support=None):
        self.sample = sample            # (rng, center) -> array
        self.logpdf = logpdf            # (value, center) -> float
        self.logpdf_rows = logpdf_rows  # (values, centers) -> list of n floats
        self.support = support          # center -> [(value, prob)] or None


def gaussian_family(d: int, var) -> ProposalFamily:
    var = np.broadcast_to(np.asarray(var, dtype=float), (d,)).copy()
    const = -0.5 * float(np.sum(np.log(2.0 * math.pi * var)))
    sd = np.sqrt(var)
    add = np.add.reduce
    unit = bool(np.all(var == 1.0))

    if unit:
        # x / 1.0 == x and 1.0 * x == x exactly, so both are skipped
        def sample(rng, center):
            return center + rng.standard_normal(d)

        def logpdf_rows(values, centers):
            diff = values - centers
            return (const - 0.5 * add(diff * diff, axis=1)).tolist()
    else:
        def sample(rng, center):
            return center + sd * rng.standard_normal(d)

        def logpdf_rows(values, centers):
            diff = values - centers
            return (const - 0.5 * add(diff * diff / var, axis=1)).tolist()

    if d < _NUMPY_SERIAL_SUM:
        # where `add` sums left to right, Python floats make numpy's
        # operations in numpy's order; t * t / 1.0 == t * t, so this serves
        # both variances.  The loop is `_numpy_order_sum` of the terms fused
        # with their computation: the call and its list doubled this
        # logpdf's cost at d = 2 (0.28 -> 0.60 us, BENCH_19.json)
        var_list = var.tolist()

        def logpdf(value, center):
            vs, cs = value.tolist(), center.tolist()
            # zip would cut a value or center of another length short
            if len(vs) != d or len(cs) != d:
                raise ValueError(f"gaussian_family({d}) scores (d,) arrays")
            s = 0.0
            for a, c, vi in zip(vs, cs, var_list):
                t = a - c
                s += t * t / vi
            return const - 0.5 * s
    elif unit:
        def logpdf(value, center):
            diff = np.asarray(value) - center
            return const - 0.5 * float(add(diff * diff))
    else:
        def logpdf(value, center):
            diff = np.asarray(value) - center
            return const - 0.5 * float(add(diff * diff / var))

    # a row's sum along axis 1 is the sum `add` makes of that row alone,
    # so `logpdf_rows` gives `logpdf`'s bits
    return ProposalFamily(sample, logpdf, logpdf_rows)


def grid_family(values: Sequence, logpdf_fn) -> ProposalFamily:
    """Finite proposal family over grid values with weights exp(logpdf_fn).

    ``logpdf_fn(u, center)`` must be a pure function: the weight vector is
    remembered at the last two centers (see `core._LastTwo`), since a step
    asks for it at the same center to draw and to score.  Log-weights with
    a NaN, a +inf or no finite value are a DensityError quoting them.
    """
    def _weights(center):
        # ``vals`` is bound below, before any call
        logs = np.array([logpdf_fn(u, center) for u in vals])
        top = logs.max()  # NaN if any log-weight is NaN
        if not math.isfinite(top):
            raise DensityError(f"cannot weigh the grid values by the log-weights "
                               f"{logs.tolist()!r}: none may be NaN or +inf, and "
                               "one must be finite")
        w = np.exp(logs - top)
        return w / w.sum()

    vals, sample, logpdf, support = _finite_law(values, _LastTwo(_weights))

    def logpdf_rows(values, centers):
        # a single row is repeated by reference: `np.broadcast_arrays` costs
        # more than the lookups on the small grids this family serves
        if values.ndim == 1:
            values = itertools.repeat(values)
        elif centers.ndim == 1:
            centers = itertools.repeat(centers)
        return list(map(logpdf, values, centers))

    return ProposalFamily(sample, logpdf, logpdf_rows, support)


class _FamilyConditional(AuxiliaryConditional):
    """A proposal family seen from a point: ``q(. | center_fn(point))``.

    The family's own ``logpdf`` returns a float, so it is called directly.
    """

    def __init__(self, family: ProposalFamily, center_fn, name: str):
        support = family.support
        super().__init__(
            None, None,
            None if support is None else (lambda point: support(center_fn(point))),
            name=name)
        self._family = family
        self._center = center_fn

    def sample(self, rng: np.random.Generator, point: JointPoint):
        return self._family.sample(rng, self._center(point))

    def logpdf(self, value, point: JointPoint) -> float:
        return self._family.logpdf(value, self._center(point))


def gaussian_slot_conditional(dim: int, mean_fn, var, name: str,
                              support_values: Optional[Sequence] = None
                              ) -> AuxiliaryConditional:
    """Componentwise normal slot conditional with a point-dependent mean.

    With ``support_values`` the conditional becomes a normalized finite
    restriction of the same density (enumerable by the matrix oracle).
    """
    if support_values is None:
        return _FamilyConditional(gaussian_family(dim, var), mean_fn, name)
    var = np.broadcast_to(np.asarray(var, dtype=float), (dim,)).copy()
    family = grid_family(support_values,
                         lambda u, c: -0.5 * float(np.sum((u - c) ** 2 / var)))
    return _FamilyConditional(family, mean_fn, name)


def normal_momentum(d: int) -> AuxiliaryConditional:
    """State-independent N(0, I) conditional for a momentum slot."""
    zero = np.zeros(d)
    zero.flags.writeable = False
    return gaussian_slot_conditional(d, lambda point: zero, 1.0, name="momentum")


def random_walk_proposal(d: int, scale: float) -> AuxiliaryConditional:
    return gaussian_slot_conditional(d, lambda point: point.x, scale * scale, name="rw")


def mala_proposal(target: LogDensity, eps: float,
                  support_values: Optional[Sequence] = None) -> AuxiliaryConditional:
    """Langevin proposal: mean x + eps * grad log p(x), variance 2 eps."""
    if target.grad is None:
        raise ConfigError("the Langevin proposal needs a target gradient")

    # a step asks for the mean at its current point to draw and to score,
    # and at its proposal to score the reverse move
    mean_at = _LastTwo(lambda x: x + eps * target.grad(x))

    def mean(point):
        return mean_at(point.x)

    cond = gaussian_slot_conditional(target.dim, mean, 2.0 * eps, name="mala",
                                     support_values=support_values)
    cond.grad_of = target
    return cond


def _x_target(density: LogDensity, with_grad: bool = False):
    """The target term ``point -> log p(point.x)``.  ``with_grad`` fills the
    gradient memo in the same pass, for a kernel that asks for the gradient
    at the proposal right after its log-density."""
    if with_grad:
        return lambda point: density.value_and_grad(point.x)[0]
    return lambda point: density.logpdf(point.x)


def tag_flip_kernel(layout: Layout, tag: str, name: str,
                    when: Optional[str] = None) -> ImcmcKernel:
    """Deterministic negation of a +-1 tag (optionally gated by a 0/1 tag).

    The tag is uniform under the joint target, so the proposal is always
    accepted; it still runs through the accept-reject machinery.
    """

    def fn(z: JointPoint):
        if when is not None and z.tag(when) == 0:
            return z, 0.0
        return z.with_tag(tag, -z.tag(tag)), 0.0

    return ImcmcKernel(layout, target=None, involution=Involution(fn, name=name),
                       name=name)


def slot_flip_kernel(layout: Layout, factor: AuxiliaryConditional,
                     name: str) -> ImcmcKernel:
    """Deterministic negation of the symmetric momentum slot "v"."""
    from .maps import momentum_flip

    return ImcmcKernel(layout, target=None, involution=momentum_flip(name=name),
                       aux_static=[("v", factor)], name=name)


def momentum_refresh_kernel(layout: Layout, alpha: float,
                            momentum: Optional[AuxiliaryConditional] = None) -> ImcmcKernel:
    """Momentum update kernel for the momentum factor ``momentum`` (N(0, I)
    by default).

    For ``alpha == 1`` the slot is resampled outright from the factor under
    an identity move.  For ``alpha < 1`` this is the autoregressive
    construction: draw ``a ~ N(v sqrt(1-alpha^2), alpha^2 I)`` and swap the
    two slots, which realizes ``v' = v sqrt(1-alpha^2) + alpha eta``.  The
    swap is accepted with probability one for N(0, I) and Metropolis-corrected
    for any other factor.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError("refresh strength must lie in [0, 1]")
    d = layout.slots["v"].stop - layout.slots["v"].start
    momentum = normal_momentum(d) if momentum is None else momentum
    if alpha >= 1.0:
        identity = Involution(lambda z: (z, 0.0), name="identity")
        return ImcmcKernel(layout, target=None, aux_refresh=[("v", momentum)],
                           involution=identity, name="refresh")
    if "a" not in layout.slots:
        raise ConfigError("partial refresh needs a scratch slot in the layout")
    keep = math.sqrt(1.0 - alpha * alpha)

    def mean(point):
        return keep * point.slot("v")

    a_cond = gaussian_slot_conditional(d, mean, alpha * alpha, name="ar")
    return ImcmcKernel(
        layout, target=None,
        aux_refresh=[("a", a_cond)],
        aux_static=[("v", momentum)],
        involution=swap_slots("v", "a"), name="refresh")


def default_init(kernel: TransitionKernel, x0, tags: Optional[dict] = None) -> JointPoint:
    """Layout-valid starting point: zero auxiliary block, conventional tags."""
    layout = kernel.layout
    values = []
    for t in layout.tags:
        if tags and t in tags:
            values.append(tags[t])
        elif t in ("d", "nu"):
            values.append(1)
        else:
            values.append(layout.tag_values.get(t, (0,))[0])
    return layout.point(x0, tags=values)


# ---------------------------------------------------------------------------
# Metropolis-Hastings family
# ---------------------------------------------------------------------------

def make_mh(target: LogDensity, proposal: AuxiliaryConditional,
            rule: AcceptanceRule = AcceptanceRule.METROPOLIS,
            name: str = "mh") -> ImcmcKernel:
    """Metropolis-Hastings: swap involution over (x, proposal).

    Covers random-walk, Langevin (`mala_proposal`), and independence
    samplers through the choice of proposal conditional.  A proposal that
    reads the target's gradient at its conditioning point (``grad_of``, as
    the Langevin one does) scores the reverse move right after the target
    term, so the target term fetches both in one pass.
    """
    layout = xv_layout(target.dim)
    with_grad = getattr(proposal, "grad_of", None) is target
    return ImcmcKernel(layout, _x_target(target, with_grad),
                       aux_refresh=[("v", proposal)],
                       involution=swap_blocks(),
                       rule=rule, name=name)


def make_mixture_proposal(target: LogDensity, index: TagConditional,
                          component: AuxiliaryConditional) -> ImcmcKernel:
    """Proposal drawn through a latent component index left fixed by the swap.

    ``index`` samples the component a given x; ``component`` samples v given
    a.  The acceptance picks up both factors without ever integrating the
    mixture over components.
    """
    layout = xv_layout(target.dim, tags=("a",),
                       tag_values={"a": index.values})
    return ImcmcKernel(layout, _x_target(target),
                       aux_refresh=[("a", index), ("v", component)],
                       involution=swap_blocks(),
                       name="mixture_proposal")


# ---------------------------------------------------------------------------
# multiple-try Metropolis
# ---------------------------------------------------------------------------

def make_multiple_try(target: LogDensity, family: ProposalFamily, k: int,
                      lam: Optional[Callable[[np.ndarray, np.ndarray], float]] = None
                      ) -> ImcmcKernel:
    """Multiple-try Metropolis as a joint-space kernel.

    k trial points are drawn around x, an index j is drawn with weight
    ``w_j = p(y_j) q(x|y_j) lambda(y_j, x)``, and a reference set is drawn
    around the selected trial; the swap involution exchanges x with the
    selected trial and the remaining trials with the reference set.  The
    weight function may be any positive λ, symmetric or not: the joint
    density scores the drawn index with it, so the acceptance test accounts
    for it (symmetry is needed only by the classical MTM acceptance formula,
    which this kernel does not use).  The default is identically one.
    """
    if k < 1:
        raise ConfigError("need at least one trial")
    d = target.dim
    loglam = (lambda a, b: 0.0) if lam is None else (lambda a, b: math.log(lam(a, b)))

    layout = Layout(
        x_dim=d, v_dim=(2 * k - 1) * d,
        slots={"y": slice(0, k * d), "xstar": slice(k * d, (2 * k - 1) * d)},
        tags=("j",), tag_values={"j": tuple(range(k))})

    # log p at the centre and the trials of the last two trial sets weighed,
    # newer first, each dict replaced whole.  Every log p a step needs is
    # among them: its current point is the previous proposal's centre or one
    # of its trials, its proposal is one of its own trials, and the
    # proposal's trials are its current point and the new reference points.
    # log p is a pure function of the point's bytes, so threads sharing the
    # kernel that overwrite each other's dicts only cost re-evaluations.
    weighed = ({}, {})

    def logp(y):
        key = y.tobytes()
        for values in weighed:
            lp = values.get(key)
            if lp is not None:
                return lp
        return target.logpdf(y)

    def trials(point):
        y = point.slot("y")
        return [y[i * d:(i + 1) * d] for i in range(k)]

    def _iid_slot(count, center_fn, slot_name):
        def _sample(rng, point):
            c = center_fn(point)
            return np.concatenate([family.sample(rng, c) for _ in range(count)]) \
                if count else np.empty(0)

        def _logpdf(value, point):
            rows = np.asarray(value).reshape(count, d)
            return math.fsum(family.logpdf_rows(rows, center_fn(point)))

        def _support(point):
            if family.support is None:
                return None
            c = center_fn(point)
            combos = [(np.empty(0), 1.0)]
            for _ in range(count):
                combos = [(np.concatenate([u, w]), pu * pw)
                          for u, pu in combos for w, pw in family.support(c)]
            return combos

        return AuxiliaryConditional(_sample, _logpdf, _support, name=slot_name)

    y_cond = _iid_slot(k, lambda point: point.x, "trials")

    def _j_probs(xy):
        nonlocal weighed
        x, ys = xy[:d], xy[d:].reshape(k, d)
        values = {x.tobytes(): logp(x)}
        # q(x | y_i): x is the value and the trials are the centers
        qs = family.logpdf_rows(x, ys)
        logs = []
        for i, y in enumerate(ys):
            # w_i = p(y_i) q(x | y_i) lambda(y_i, x)
            lp = values[y.tobytes()] = logp(y)
            logs.append(lp if lp == -math.inf else lp + qs[i] + loglam(y, x))
        weighed = (values, weighed[0])
        finite = [lw for lw in logs if math.isfinite(lw)]
        if not finite and all(lw == -math.inf for lw in logs):
            return np.full(k, 1.0 / k)
        top = max(finite)
        w = [math.exp(lw - top) if math.isfinite(lw) else 0.0 for lw in logs]
        total = _numpy_order_sum(w)
        return np.array([wi / total for wi in w])

    # a step asks for the index weights of its refreshed point twice (draw
    # and joint density) and of its proposal once; x and the trials key them
    j_weights = _LastTwo(_j_probs)

    def j_probs(point):
        return j_weights(np.concatenate([point.x, point.slot("y")]))

    j_cond = TagConditional(tuple(range(k)), j_probs, name="trial_index")

    xstar_cond = _iid_slot(k - 1, lambda point: trials(point)[point.tag("j")], "reference")

    def fn(z: JointPoint):
        j = z.tag("j")
        ys = trials(z)
        xstar = z.slot("xstar")
        xs = [xstar[i * d:(i + 1) * d] for i in range(k - 1)]
        new_x = ys[j].copy()
        new_ys = xs[:j] + [z.x.copy()] + xs[j:]
        new_xs = ys[:j] + ys[j + 1:]
        out = z.with_x(new_x)
        out = out.with_slot("y", np.concatenate(new_ys) if new_ys else np.empty(0))
        if k > 1:
            out = out.with_slot("xstar", np.concatenate(new_xs))
        return out, 0.0

    return ImcmcKernel(layout, lambda point: logp(point.x),
                       aux_refresh=[("y", y_cond), ("j", j_cond), ("xstar", xstar_cond)],
                       involution=Involution(fn, name="mtm_swap"),
                       name="mtm")


# ---------------------------------------------------------------------------
# sample-adaptive kernel
# ---------------------------------------------------------------------------

def sorted_mean(S: np.ndarray) -> np.ndarray:
    """Permutation-invariant aggregation, exactly so in floating point."""
    return np.sort(S, axis=0).mean(axis=0)


def make_sample_adaptive(target: LogDensity, N: int, family: ProposalFamily,
                         aggregate: Optional[Callable[[np.ndarray], np.ndarray]] = None
                         ) -> ImcmcKernel:
    """Ensemble kernel that swaps one of N stored points with a fresh draw.

    The proposal is drawn around ``aggregate(S)`` of the current ensemble S,
    and the swap index is drawn with weight ``q(x_i | aggregate(S_-i)) / p(x_i)``;
    index N means "replace the proposal itself" (a no-op).  Every mode runs
    the same joint-density acceptance test.  With a permutation-invariant
    aggregation (the default, `sorted_mean`) that test accepts every
    proposed swap; with any other (the generalized kernel) it may reject.
    """
    if N < 1:
        raise ConfigError("ensemble size must be at least 1")
    d = target.dim
    g = aggregate if aggregate is not None else sorted_mean

    layout = Layout(x_dim=N * d, v_dim=d, slots={"prop": slice(0, d)},
                    tags=("j",), tag_values={"j": tuple(range(N + 1))})

    def ensemble(point):
        return point.x.reshape(N, d)

    def joint_target(point):
        return math.fsum(target.logpdf(xi) for xi in ensemble(point))

    prop_cond = _FamilyConditional(family, lambda point: g(ensemble(point)), "prop")

    def log_lams(point):
        S = ensemble(point)
        prop = point.slot("prop")
        out = []
        for i in range(N):
            S_i = S.copy()
            S_i[i] = prop
            out.append(family.logpdf(S[i], g(S_i)) - target.logpdf(S[i]))
        out.append(family.logpdf(prop, g(S)) - target.logpdf(prop))
        return np.array(out)

    def j_probs(point):
        logs = log_lams(point)
        w = np.exp(logs - logs.max())
        return w / math.fsum(w.tolist())

    j_cond = TagConditional(tuple(range(N + 1)), j_probs, name="swap_index")

    def fn(z: JointPoint):
        j = z.tag("j")
        if j == N:
            return z, 0.0
        x = z.x.copy()
        prop = z.slot("prop").copy()
        block = slice(j * d, (j + 1) * d)
        x[block], prop = prop, x[block].copy()
        return z.with_x(x).with_slot("prop", prop), 0.0

    return ImcmcKernel(layout, joint_target,
                       aux_refresh=[("prop", prop_cond), ("j", j_cond)],
                       involution=Involution(fn, name="ensemble_swap"),
                       name="sample_adaptive")


# ---------------------------------------------------------------------------
# Gibbs sweeps
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class BlockConditional:
    """Exact full conditional of one coordinate block given the rest."""

    indices: tuple[int, ...]
    sample: Callable[[np.random.Generator, np.ndarray], np.ndarray]
    logpdf: Callable[[np.ndarray, np.ndarray], float]
    support: Optional[Callable[[np.ndarray], list]] = None


def make_gibbs(target: LogDensity, blocks: Sequence[BlockConditional],
               scan: str = "systematic") -> TransitionKernel:
    """Coordinate-wise resampling from exact full conditionals.

    Each per-block kernel is a swap with a freshly drawn conditional value
    and accepts with probability one.  A systematic scan composes the blocks
    in order (irreversible in general); a random scan mixes them through a
    uniform block index and stays reversible.
    """
    sizes = {len(b.indices) for b in blocks}
    if len(sizes) != 1:
        raise ConfigError("all blocks must have the same size")
    bsize = sizes.pop()
    d = target.dim
    layout = Layout(x_dim=d, v_dim=bsize, slots={"g": slice(0, bsize)},
                    tags=("coord",) if scan == "random" else (),
                    tag_values={"coord": tuple(range(len(blocks)))} if scan == "random" else {})

    def wrap(b: BlockConditional) -> AuxiliaryConditional:
        return AuxiliaryConditional(
            lambda rng, point: b.sample(rng, point.x),
            lambda value, point: b.logpdf(np.atleast_1d(value), point.x),
            None if b.support is None else (lambda point: b.support(point.x)),
            name=f"cond{b.indices}")

    def swap_involution(idx: tuple[int, ...]) -> Involution:
        sel = list(idx)

        def fn(z: JointPoint):
            x, v = z.x.copy(), z.v.copy()
            x[sel], v[:len(sel)] = v[:len(sel)].copy(), x[sel].copy()
            return z.with_x(x).with_v(v), 0.0

        return Involution(fn, name=f"swap{idx}")

    if scan == "systematic":
        kernels = [ImcmcKernel(layout, _x_target(target),
                               aux_refresh=[("g", wrap(b))],
                               involution=swap_involution(b.indices),
                               name=f"gibbs[{i}]")
                   for i, b in enumerate(blocks)]
        return compose(kernels, name="gibbs")
    if scan != "random":
        raise ConfigError("scan must be 'systematic' or 'random'")

    conds = [wrap(b) for b in blocks]

    def _sample(rng, point):
        return conds[point.tag("coord")].sample(rng, point)

    def _logpdf(value, point):
        return conds[point.tag("coord")].logpdf(value, point)

    def _support(point):
        return conds[point.tag("coord")].support(point)

    dispatch = AuxiliaryConditional(_sample, _logpdf, _support, name="cond[coord]")
    family = [swap_involution(b.indices) for b in blocks]
    inv = mixture_involution(lambda a: family[a], "coord", name="gibbs_mix")
    coord = TagConditional(tuple(range(len(blocks))),
                           lambda point: np.full(len(blocks), 1.0 / len(blocks)),
                           name="coord")
    return ImcmcKernel(layout, _x_target(target),
                       aux_refresh=[("coord", coord), ("g", dispatch)],
                       involution=inv, name="gibbs")


# ---------------------------------------------------------------------------
# Hamiltonian family
# ---------------------------------------------------------------------------

def make_hamiltonian(target: LogDensity, cfg: LeapfrogConfig,
                     metric: Optional[Metric] = None,
                     momentum_cond: Optional[AuxiliaryConditional] = None) -> ImcmcKernel:
    """Full-refresh Hamiltonian kernel ``hmc``: flip-after-k-integrator-steps.

    With a metric this is the implicit-integrator variant ``rmhmc``; the momentum is
    then drawn from N(0, G(x)) and the integrator solves the non-separable
    equations to tolerance 1e-12.  A non-unit constant mass M is
    ``metric=constant_metric(M)``.
    """
    if target.grad is None:
        raise ConfigError("Hamiltonian kernels need a target gradient")
    d = target.dim
    layout = xv_layout(d)
    if metric is None:
        cond = momentum_cond if momentum_cond is not None else normal_momentum(d)
        inv = hmc_involution(cfg, target.grad)
        return ImcmcKernel(layout, _x_target(target),
                           aux_refresh=[("v", cond)], involution=inv, name="hmc")

    ham = RiemannianHamiltonian(target.logpdf, target.grad, metric)

    def _sample(rng, point):
        g = metric.g(point.x)
        return np.linalg.cholesky(g) @ rng.standard_normal(d)

    def _logpdf(value, point):
        g = metric.g(point.x)
        value = np.asarray(value)
        return (-0.5 * float(value @ np.linalg.solve(g, value))
                - 0.5 * metric.logdet(point.x) - 0.5 * d * _LOG_2PI)

    cond = momentum_cond if momentum_cond is not None else \
        AuxiliaryConditional(_sample, _logpdf, name="metric_momentum")
    inv = implicit_hmc_involution(cfg, ham)
    return ImcmcKernel(layout, _x_target(target),
                       aux_refresh=[("v", cond)], involution=inv, name="rmhmc")


def make_embedded_flow(target: LogDensity, flow: FlowMap, cfg: LeapfrogConfig,
                       latent_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                       momentum_cond: Optional[AuxiliaryConditional] = None
                       ) -> ImcmcKernel:
    """Hamiltonian kernel conjugated by a reparameterizing flow.

    ``flow`` transports the latent space onto the target space (its forward
    direction maps latent to original).  The integrator runs in the latent
    space where the pushed-back target is simpler; conjugation makes the
    acceptance in the original space equal to the latent-space acceptance.
    ``latent_grad`` is the gradient of the latent log-density; it is derived
    automatically for identity and componentwise-affine flows.
    """
    from .maps import AffineXFlow

    if latent_grad is None:
        if isinstance(flow, AffineXFlow):
            scale = flow.scale

            def latent_grad(z):
                return scale * target.grad(flow.shift + scale * z)
        elif flow.name == "identity":
            latent_grad = target.grad
        else:
            raise ConfigError("supply the latent gradient for a general flow")
    d = target.dim
    layout = xv_layout(d)
    inner = hmc_involution(cfg, latent_grad)
    cond = momentum_cond if momentum_cond is not None else normal_momentum(d)
    # conjugation order: map into the latent space, integrate, map back
    return ImcmcKernel(layout, _x_target(target),
                       aux_refresh=[("v", cond)],
                       involution=embed(flow.inverted(), inner), name="neutra")


def make_directional_map(target: LogDensity, T: FlowMap,
                         momentum_cond: Optional[AuxiliaryConditional] = None
                         ) -> ImcmcKernel:
    """Coupling-map kernel with a freshly drawn direction each step.

    The acceptance picks up the map Jacobian automatically, covering both the
    volume-preserving and the scaling variants.
    """
    d = target.dim
    layout = xv_layout(d, tags=("d",))
    cond = momentum_cond if momentum_cond is not None else normal_momentum(d)
    from .core import uniform_tag

    return ImcmcKernel(layout, _x_target(target),
                       aux_refresh=[("v", cond), ("d", uniform_tag((-1, 1), "d"))],
                       involution=direction_augment(T), name="directional")


def make_persistent(target: LogDensity, T: FlowMap | Involution, refresh_alpha: float,
                    momentum_cond: Optional[AuxiliaryConditional] = None,
                    name: str = "persistent") -> KernelComposition:
    """Persistent-direction composition: refresh, directional move, flip.

    The form follows ``T``.  A `FlowMap` gets an explicit direction tag that
    only net-flips on rejection.  An `Involution`, the flip-after-integrator
    map, gives the classical persistent-momentum form, in which the momentum
    sign plays the direction role.  The composition preserves p(x) q(v) only
    if every kernel in it scores v with the same q, so one momentum factor
    (``momentum_cond``, N(0, I) by default) serves the refresh, the move and
    the flip.
    """
    if not isinstance(T, (FlowMap, Involution)):
        raise ConfigError(f"make_persistent needs a FlowMap or an Involution, "
                          f"not {type(T).__name__}")
    tagged = isinstance(T, FlowMap)
    d = target.dim
    momentum = momentum_cond if momentum_cond is not None else normal_momentum(d)
    layout = xv_layout(d, tags=("d",) if tagged else (), scratch=refresh_alpha < 1.0)
    refresh = momentum_refresh_kernel(layout, refresh_alpha, momentum)
    move = ImcmcKernel(layout, _x_target(target),
                       aux_static=[("v", momentum)],
                       involution=direction_augment(T) if tagged else T,
                       name=f"{name}_move")
    flip = (tag_flip_kernel(layout, "d", name=f"{name}_flip") if tagged
            else slot_flip_kernel(layout, momentum, name=f"{name}_flip"))
    return compose([refresh, move, flip], name=name)


# ---------------------------------------------------------------------------
# look-ahead kernel
# ---------------------------------------------------------------------------

class LookAheadKernel(TransitionKernel):
    """Mixture over flip-after-k-steps involutions with sequential weights.

    The move to ``flip(T^k(z))`` happens with probability ``pi_k`` computed
    by the recursion ``pi_k = min(1 - sum_{j<k} pi_j(z),
    ratio_k * (1 - sum_{j<k} pi_j(flip(T^k(z)))))``; when all K proposals
    fail the state is kept unchanged (the trailing flip kernel then reverses
    the momentum).

    ``T`` must be reversible (``flip∘T`` an involution) and the momentum
    factor symmetric, as the cascade's own validity requires.  Then the
    reverse cascade from ``flip(z_k)``, with ``z_k = T^k(z)``, lands on
    ``z_{k-1}, ..., z_1, z`` again, so one trajectory and its K + 1 joint
    densities serve every weight of the recursion.
    """

    def __init__(self, layout: Layout, target, mom_factor: AuxiliaryConditional,
                 T: FlowMap, K: int, name: str):
        if K < 1:
            raise ConfigError("look-ahead depth must be at least 1")
        self.layout = layout
        self.target = target
        self.mom = mom_factor
        self.T = T
        self.K = K
        self.name = name

    def joint(self, z: JointPoint) -> float:
        return float(self.target(z)) + self.mom.logpdf(z.slot("v"), z)

    def _flip(self, z: JointPoint) -> JointPoint:
        return z.with_slot("v", -z.slot("v"))

    def _cascade(self, z: JointPoint) -> tuple[list[JointPoint], list[float]]:
        """The landing points ``flip(z_k)`` and their weights ``pi_k``."""
        joints = [self.joint(z)]
        landings = []
        w = z
        for _ in range(self.K):
            w, ld = self.T.forward(w)
            if abs(ld) > 1e-12:
                raise ConfigError("look-ahead requires a volume-preserving map")
            fz = self._flip(w)
            landings.append(fz)
            joints.append(self.joint(fz))
        return landings, _cascade_weights(joints)

    def pis(self, z: JointPoint) -> list[float]:
        return self._cascade(z)[1]

    def _branches(self, z: JointPoint) -> list[tuple[JointPoint, float]]:
        landings, pis = self._cascade(z)
        return [*zip(landings, pis), (z, 1.0 - math.fsum(pis))]

    def step(self, point: JointPoint, rng: np.random.Generator):
        branches = self._branches(point)
        u = rng.random()
        cum = 0.0
        total_move = 1.0 - branches[-1][1]
        for dest, p in branches[:-1]:
            cum += p
            if u < cum:
                return StepOutcome(dest, True, total_move)
        return StepOutcome(point, False, total_move)

    def enumerate_step(self, point: JointPoint) -> list[tuple[JointPoint, float]]:
        return [(dest, p) for dest, p in self._branches(point) if p > 0.0]


def _cascade_weights(joints: list[float]) -> list[float]:
    """``pi_1..pi_K`` of the cascade from ``z_0`` over one trajectory
    ``z_0..z_K``.

    ``joints[m]`` is the joint density at ``z_m`` (equal to that at
    ``flip(z_m)``).  The cascade from ``z_s`` lands on ``z_{s+i}`` and the
    reverse one from ``flip(z_s)`` on ``z_{s-i}``, so a cascade is an index
    and a direction, and each is computed once however often the recursion
    asks for it.  The arithmetic is that of recursing on the points.
    """
    # (start index, direction) -> (weights so far, their running sums)
    memo: dict[tuple[int, int], tuple[list[float], list[float]]] = {}

    def weights(s: int, step: int, n: int) -> list[float]:
        out, cums = memo.setdefault((s, step), ([], [0.0]))
        while len(out) < n:
            i = len(out) + 1
            m = s + step * i
            ratio = math.exp(min(joints[m] - joints[s], 50.0))
            inner = 1.0 - math.fsum(weights(m, -step, i - 1)) if i > 1 else 1.0
            out.append(min(1.0 - cums[-1], ratio * inner))
            cums.append(cums[-1] + out[-1])
        return out[:n]

    return weights(0, 1, len(joints) - 1)


def make_look_ahead(target: LogDensity, T: FlowMap, K: int, refresh_alpha: float,
                    momentum_cond: Optional[AuxiliaryConditional] = None
                    ) -> KernelComposition:
    """Look-ahead composition: refresh, multi-step proposal cascade, flip,
    all three scoring v with one momentum factor (``momentum_cond``, N(0, I)
    by default)."""
    d = target.dim
    momentum = momentum_cond if momentum_cond is not None else normal_momentum(d)
    layout = xv_layout(d, scratch=refresh_alpha < 1.0)
    refresh = momentum_refresh_kernel(layout, refresh_alpha, momentum)
    la = LookAheadKernel(layout, _x_target(target), momentum, T, K,
                         name="look_ahead_cascade")
    flip = slot_flip_kernel(layout, momentum, name="look_ahead_flip")
    return compose([refresh, la, flip], name="look_ahead")


# ---------------------------------------------------------------------------
# lifted chains
# ---------------------------------------------------------------------------

def _split_rows(base: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = base.shape[0]
    up = np.zeros_like(base)
    down = np.zeros_like(base)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if eta[j] >= eta[i]:
                up[i, j] = base[i, j]
            if eta[j] <= eta[i]:
                down[i, j] = base[i, j]
    return up, down


def lifted_matrix(base: np.ndarray, eta: Sequence[float]) -> np.ndarray:
    """Directly assembled transition matrix on the duplicated state space.

    Rows/columns are ordered (state, +1) block first, then (state, -1).
    Serves as the independent comparator for the kernel-built lifted chain.
    """
    base = np.asarray(base, dtype=float)
    n = base.shape[0]
    eta = np.asarray(eta, dtype=float)
    up, down = _split_rows(base, eta)
    T = np.zeros((2 * n, 2 * n))
    for i in range(n):
        off_up = up[i].sum() - up[i, i]
        off_down = down[i].sum() - down[i, i]
        diag = min(1.0 - off_up, 1.0 - off_down)
        to_minus = max(0.0, off_down - off_up)
        to_plus = max(0.0, off_up - off_down)
        for j in range(n):
            if j != i:
                T[i, j] = up[i, j]
                T[n + i, n + j] = down[i, j]
        T[i, i] = diag
        T[n + i, n + i] = diag
        T[i, n + i] = to_minus
        T[n + i, i] = to_plus
    return T


def make_lifted(base: np.ndarray, values: Sequence[float], log_weights: Sequence[float],
                eta: Optional[Sequence[float]] = None) -> KernelComposition:
    """Lifted chain over a finite space: split proposal, swap-negate, flip.

    ``base`` is a row-stochastic kernel on the listed states, split into an
    up-moving and a down-moving half by the decision values ``eta`` (the
    state values themselves by default, ties kept in both halves).  The
    composition of the swap-with-direction-negation kernel and the
    deterministic direction flip reproduces the lifted transition matrix.
    """
    base = np.asarray(base, dtype=float)
    n = base.shape[0]
    if base.shape != (n, n) or np.any(base < 0) or np.max(np.abs(base.sum(axis=1) - 1.0)) > 1e-12:
        raise ConfigError("base kernel must be row-stochastic")
    vals = np.asarray(values, dtype=float)
    eta = vals.copy() if eta is None else np.asarray(eta, dtype=float)
    up, down = _split_rows(base, eta)
    for i in range(n):
        up[i, i] = 1.0 - (up[i].sum() - up[i, i])
        down[i, i] = 1.0 - (down[i].sum() - down[i, i])

    from .targets import GridDensity, grid_conditional

    grid = GridDensity(vals, np.asarray(log_weights, dtype=float))
    layout = xv_layout(1, tags=("d",))

    def probs(point):
        i = grid.index(point.x)
        if i is None:
            raise ConfigError("state outside the lifted grid")
        return up[i] if point.tag("d") == 1 else down[i]

    q_cond = grid_conditional([np.array([u]) for u in vals], probs, name="split_rw")
    t1 = ImcmcKernel(layout, lambda point: grid.logpdf(point.x),
                     aux_refresh=[("v", q_cond)],
                     involution=_swap_negate,
                     name="lifted_move")
    t2 = tag_flip_kernel(layout, "d", name="lifted_flip")
    return compose([t1, t2], name="lifted")


def make_lifted_rw1d(target: LogDensity, scale: float) -> KernelComposition:
    """Continuous 1-d lifted walk with half-normal directional proposals."""
    if target.dim != 1:
        raise ConfigError("the split random walk is one-dimensional")
    layout = xv_layout(1, tags=("d",))
    log2 = math.log(2.0)
    const = -0.5 * math.log(2.0 * math.pi * scale * scale)

    def _sample(rng, point):
        return point.x + point.tag("d") * abs(rng.standard_normal(1)) * scale

    def _logpdf(value, point):
        step = (np.asarray(value) - point.x)[0] * point.tag("d")
        if step < 0:
            return -math.inf
        return log2 + const - 0.5 * step * step / (scale * scale)

    q_cond = AuxiliaryConditional(_sample, _logpdf, name="half_normal")
    t1 = ImcmcKernel(layout, _x_target(target),
                     aux_refresh=[("v", q_cond)],
                     involution=_swap_negate,
                     name="lifted_rw_move")
    t2 = tag_flip_kernel(layout, "d", name="lifted_rw_flip")
    return compose([t1, t2], name="lifted_rw")


# ---------------------------------------------------------------------------
# irreversible gradient walks
# ---------------------------------------------------------------------------

def make_irr_mala(target: LogDensity, eps: float,
                  support_values: Optional[Sequence] = None) -> KernelComposition:
    """Direction-augmented Langevin chain.

    The proposal mean follows the gradient with the current direction; the
    swap involution retags the direction by the sign of the gradient inner
    product so the reverse proposal points back at the start.  A trailing
    direction flip makes the chain persistent.  sign(0) is taken as +1.
    """
    if target.grad is None:
        raise ConfigError("this kernel needs a target gradient")
    d = target.dim
    layout = xv_layout(d, tags=("d",))

    # the mean for each direction, remembered as mala's is
    mean_at = {sign: _LastTwo(lambda x, step=sign * eps: x + step * target.grad(x))
               for sign in (-1, 1)}

    def mean(point):
        return mean_at[point.tag("d")](point.x)

    v_cond = gaussian_slot_conditional(d, mean, 2.0 * eps, name="langevin",
                                       support_values=support_values)

    def fn(z: JointPoint):
        gx = target.grad(z.x)
        # z.v is the proposal, whose log-density the acceptance test needs next
        gv = target.value_and_grad(z.v)[1]
        s = 1.0 if float(gx @ gv) >= 0.0 else -1.0
        return (z.with_x(z.v.copy()).with_v(z.x.copy())
                .with_tag("d", int(-z.tag("d") * s)), 0.0)

    t1 = ImcmcKernel(layout, _x_target(target),
                     aux_refresh=[("v", v_cond)],
                     involution=Involution(fn, name="grad_swap"),
                     name="irr_mala_move")
    t2 = tag_flip_kernel(layout, "d", name="irr_mala_flip")
    return compose([t1, t2], name="irr_mala")


def make_irr_nice_mc(target: LogDensity, T: FlowMap, alpha: float,
                     momentum_cond: Optional[AuxiliaryConditional] = None
                     ) -> KernelComposition:
    """Irreversible coupling-map chain: partial refresh, persistent move, flip."""
    return make_persistent(target, T, alpha, momentum_cond=momentum_cond,
                           name="irr_nice_mc")


# ---------------------------------------------------------------------------
# transdimensional kernels
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CoordDist:
    """Distribution of one padding coordinate."""

    sample: Callable[[np.random.Generator], float]
    logpdf: Callable[[float], float]
    support: Optional[Sequence[tuple[float, float]]] = None


def normal_coord() -> CoordDist:
    c = -0.5 * _LOG_2PI
    return CoordDist(sample=lambda rng: float(rng.standard_normal()),
                     logpdf=lambda u: c - 0.5 * u * u)


class ModelSpace:
    """Dimension-matched family of models with smooth between-model maps.

    All states live in one d-dimensional vector; model k is a `LogDensity`
    over the first ``models[k].dim`` coordinates, and the rest are padding
    governed by ``coord_dist``.  ``flows[(k, j)]`` maps the full vector for
    the k->j move (identity padding by default); the reverse move applies
    the exact inverse.
    """

    def __init__(self, total_dim: int, models: dict[int, LogDensity],
                 flows: Optional[dict[tuple[int, int], FlowMap]] = None,
                 coord_dist: Optional[CoordDist] = None):
        if not models:
            raise ConfigError("need at least one model")
        for k, m in models.items():
            if not 0 < m.dim <= total_dim:
                raise ConfigError(f"model {k} dimension out of range")
        self.total_dim = total_dim
        self.models = dict(models)
        self.flows = dict(flows or {})
        self.coord_dist = coord_dist if coord_dist is not None else normal_coord()

    def ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.models))

    def logpdf(self, k: int, y: np.ndarray) -> float:
        m = self.models.get(k)
        if m is None:
            return -math.inf
        return float(m.logpdf(y[:m.dim]))

    def apply_move(self, k: int, j: int, point: JointPoint) -> tuple[JointPoint, float]:
        if k not in self.models or j not in self.models or k == j:
            return point, 0.0
        if (k, j) in self.flows:
            return self.flows[(k, j)].forward(point)
        if (j, k) in self.flows:
            return self.flows[(j, k)].inverse(point)
        return point, 0.0

    def pad_conditional(self, jump_to: Callable[[JointPoint], int],
                        name: str) -> AuxiliaryConditional:
        """Conditional refreshing the padding coordinates of the x block;
        its value is the whole block, refreshed under the slot name "x".

        Reads the current model from the "k" tag; refreshes nothing when the
        proposed move is invalid so boundary jumps die on the density.
        """
        cd = self.coord_dist

        def inactive(point):
            k = point.tag("k")
            j = jump_to(point)
            if k not in self.models or j not in self.models or k == j:
                return range(0)
            return range(self.models[k].dim, self.total_dim)

        def _sample(rng, point):
            y = point.x.copy()
            for i in inactive(point):
                y[i] = cd.sample(rng)
            return y

        def _logpdf(value, point):
            value = np.asarray(value)
            return math.fsum(cd.logpdf(float(value[i])) for i in inactive(point))

        def _support(point):
            idx = list(inactive(point))
            if not idx:
                return [(point.x.copy(), 1.0)]
            if cd.support is None:
                return None
            combos = [(point.x.copy(), 1.0)]
            for i in idx:
                new = []
                for y, p in combos:
                    for u, pu in cd.support:
                        y2 = y.copy()
                        y2[i] = u
                        new.append((y2, p * pu))
                combos = new
            return combos

        return AuxiliaryConditional(_sample, _logpdf, _support, name=name)


def make_transdimensional(space: ModelSpace, mode: str,
                          model_probs: Optional[Callable[[JointPoint], np.ndarray]] = None,
                          tau: float = 0.5,
                          within: Optional[AuxiliaryConditional] = None,
                          within_dim: Optional[int] = None) -> TransitionKernel:
    """Between-model sampler in the reversible or the non-reversible form.

    The reversible mode draws the next model from ``model_probs`` and
    applies the dimension-matched move with the standard between-model
    acceptance.  The non-reversible mode carries a persistent direction over
    the model ladder: with probability ``tau`` a within-model update
    (``within``, by default a normal random walk with step 0.5) runs with
    the direction fixed, otherwise a jump to ``k + nu`` is attempted and the
    direction net-flips exactly on rejected jumps.
    """
    d = space.total_dim
    ids = space.ids()

    if mode == "reversible":
        layout = Layout(x_dim=d, v_dim=0, tags=("k", "j"), tag_values={"k": ids, "j": ids})

        if model_probs is None:
            def model_probs(point):
                k = point.tag("k")
                others = [j for j in ids if j != k]
                return np.array([(1.0 / len(others)) if j in others else 0.0
                                 for j in ids])

        j_cond = TagConditional(ids, model_probs, name="next_model")
        pad = space.pad_conditional(lambda point: point.tag("j"), name="pad")

        def fn(z: JointPoint):
            k, j = z.tag("k"), z.tag("j")
            z1, ld = space.apply_move(k, j, z)
            return z1.with_tag("k", j).with_tag("j", k), ld

        return ImcmcKernel(layout, lambda point: space.logpdf(point.tag("k"), point.x),
                           aux_refresh=[("j", j_cond), ("x", pad)],
                           involution=Involution(fn, name="jump"),
                           name="transdim")

    if mode != "nonreversible":
        raise ConfigError("mode must be 'reversible' or 'nonreversible'")
    if not 0.0 <= tau < 1.0:
        raise ConfigError("the within-model weight must lie in [0, 1)")

    w_dim = d if within_dim is None else within_dim
    layout = Layout(x_dim=d, v_dim=w_dim, slots={"w": slice(0, w_dim)},
                    tags=("k", "nu", "m"),
                    tag_values={"k": ids, "nu": (-1, 1), "m": (0, 1)})

    m_cond = TagConditional((0, 1), lambda point: np.array([tau, 1.0 - tau]),
                            name="move_type")
    pad = space.pad_conditional(lambda point: point.tag("k") + point.tag("nu"),
                                name="jump_pad")

    def n_swap(point):
        return min(space.models[point.tag("k")].dim, w_dim)

    if within is None:
        def w_mean(point):
            mu = np.zeros(w_dim)
            n = n_swap(point)
            mu[:n] = point.x[:n]
            return mu

        within = gaussian_slot_conditional(w_dim, w_mean, 0.5 ** 2,
                                           name="within_rw")

    def jump_involution(z: JointPoint):
        k, nu = z.tag("k"), z.tag("nu")
        z1, ld = space.apply_move(k, k + nu, z)
        return z1.with_tag("k", k + nu).with_tag("nu", -nu), ld

    def within_involution(z: JointPoint):
        n = n_swap(z)
        x, w = z.x.copy(), z.v.copy()
        x[:n], w[:n] = w[:n].copy(), x[:n].copy()
        return z.with_x(x).with_v(w), 0.0

    family = [Involution(within_involution, name="within"),
              Involution(jump_involution, name="jump")]
    inv = mixture_involution(lambda m: family[m], "m", name="nrj_mix")

    t1 = ImcmcKernel(layout, lambda point: space.logpdf(point.tag("k"), point.x),
                     aux_refresh=[("m", m_cond), ("w", within), ("x", pad)],
                     involution=inv, name="transdim_move")
    t2 = tag_flip_kernel(layout, "nu", when="m", name="transdim_flip")
    return compose([t1, t2], name="transdim")


# ---------------------------------------------------------------------------
# rejection-free CDF chain
# ---------------------------------------------------------------------------

def make_cdf_deterministic(target: Cdf1D, shift: Optional[float] = None
                           ) -> DeterministicKernel:
    """Deterministic measure-preserving 1-d chain through the CDF rotation."""
    if target.cdf is None or target.icdf is None:
        raise ConfigError("the deterministic chain needs a CDF and its inverse")
    from .maps import DEFAULT_SHIFT

    fn1 = cdf_map(target.cdf, target.icdf,
                  DEFAULT_SHIFT if shift is None else shift)
    layout = Layout(x_dim=1, v_dim=0)

    def fn(point: JointPoint):
        return point.with_x(np.array([fn1(float(point.x[0]))]))

    return DeterministicKernel(layout, fn, name="cdf",
                               target=lambda point: target.density.logpdf(point.x))

"""Engine-level tests: acceptance rules, stepping, chains, verification hooks."""

import math
import re

import numpy as np
import pytest

from imcmc.core import (
    AcceptanceRule,
    AuxiliaryConditional,
    ImcmcKernel,
    Involution,
    Layout,
    LogDensity,
    TagConditional,
    chain_rngs,
    compose,
    log_accept,
    make_rng,
    random_points,
    run_chain,
    verify_involution,
    verify_jacobian,
    _numpy_order_sum,
)
from imcmc.errors import ConfigError, DensityError
from imcmc.maps import LeapfrogConfig, hmc_involution, leapfrog_flow, swap_blocks
from imcmc.samplers import (
    default_init,
    gaussian_family,
    grid_family,
    make_look_ahead,
    make_mh,
    make_mixture_proposal,
    make_multiple_try,
    normal_momentum,
    random_walk_proposal,
)
from imcmc.targets import GridDensity, grid_conditional, standard_normal


@pytest.mark.parametrize("n", range(0, 13))
def test_numpy_order_sum_is_numpys_sum_bitwise(n):
    # left to right below 8 values, numpy's unrolled sum from 8 on
    rng = make_rng(300 + n)
    lists = [[-0.0] * n]
    lists += [(rng.standard_normal(n) * 10.0 ** rng.uniform(-6.0, 6.0, n)).tolist()
              for _ in range(2000)]
    for xs in lists:
        want = float(np.add.reduce(np.array(xs, dtype=float)))
        assert _numpy_order_sum(xs).hex() == want.hex()


def _numpy_tag_draw(values, p, r):
    """The inverse-CDF tag draw with numpy's sum, for the uniform ``r``."""
    u = r * p.sum()
    acc = 0.0
    for value, pi in zip(values, p):
        acc += pi
        if u < acc:
            return value
    return values[-1]


class _Uniforms:
    """Hands out given uniforms in turn, as ``Generator.random`` would."""

    def __init__(self, rs):
        self._rs = iter(rs)

    def random(self):
        return next(self._rs)


def _finite_draws(values, p):
    """``(name, draw, weights)`` for each finite conditional over
    ``values`` built on the weights ``p``: ``draw(rng)`` is the value drawn
    and ``weights`` the vector the draw is made from.  The family's
    weights are ``exp(log p)`` renormalized, as its support lists them."""
    lay = Layout(x_dim=1, tags=("t",), tag_values={"t": values})
    z = lay.point([0.0], tags=(values[0],))
    tag = TagConditional(values, lambda point: p, name="t")
    grid = grid_conditional([[v] for v in values], lambda point: p)
    logs = {v: math.log(pi) if pi > 0.0 else -math.inf for v, pi in zip(values, p)}
    fam = grid_family([[v] for v in values], lambda u, c: logs[int(u[0])])
    c = np.zeros(1)
    return [("tag", lambda rng: tag.sample(rng, z), p),
            ("grid_conditional", lambda rng: int(grid.sample(rng, z)[0]), p),
            ("grid_family", lambda rng: int(fam.sample(rng, c)[0]),
             np.array([w for _, w in fam.support(c)]))]


@pytest.mark.parametrize("n", range(2, 10))
def test_tag_draws_are_the_numpy_sum_inverse_cdf_draws(n):
    # below 8 values the tag sum is in Python floats, from 8 on numpy's
    # unrolled one; either way the draws are those of ``p.sum()``, and the
    # grid conditional and grid family draw the same way from their weights
    rng = make_rng(200 + n)
    values = tuple(range(10, 10 + n))
    ps = [rng.dirichlet(np.full(n, 0.5)) for _ in range(40)]
    ps += [rng.random(n) * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(40)]
    for p in ps:
        for name, draw, w in _finite_draws(values, p):
            # a seeded stream: one uniform per draw
            got_rng, want_rng = make_rng(7), make_rng(7)
            got = [draw(got_rng) for _ in range(50)]
            want = [_numpy_tag_draw(values, w, want_rng.random()) for _ in range(50)]
            assert got == want, name
            assert got_rng.random(4).tolist() == want_rng.random(4).tolist()
            # uniforms on either side of each cumulative boundary, where a
            # sum one bit off would move the draw
            rs = []
            for acc in np.cumsum(w)[:-1].tolist():
                r = acc / float(w.sum())
                rs += [np.nextafter(r, 0.0), r, np.nextafter(r, 1.0)]
            rs = [float(r) for r in rs if 0.0 <= r < 1.0]
            stub = _Uniforms(rs)
            assert [draw(stub) for _ in rs] == [
                _numpy_tag_draw(values, w, r) for r in rs], name


@pytest.mark.parametrize("family", [False, True], ids=["grid_conditional", "grid_family"])
def test_grid_draws_are_numpys_choice_draws(family):
    # the grid builders drew with ``rng.choice(n, p=...)``, which takes one
    # uniform and searches numpy's normalized cumulative sum; the shared
    # inverse-CDF draw picks the same index from the same uniform
    rng = make_rng(41 + family)
    draws = 0
    for n in range(2, 10):
        values = tuple(range(n))
        for _ in range(20):
            p = rng.dirichlet(np.full(n, 0.5))
            _, draw, w = _finite_draws(values, p)[1 + family]
            want_p = w if family else p / p.sum()
            got_rng, want_rng = make_rng(draws), make_rng(draws)
            got = [draw(got_rng) for _ in range(70)]
            assert got == [int(want_rng.choice(n, p=want_p)) for _ in range(70)]
            assert got_rng.random(4).tolist() == want_rng.random(4).tolist()
            draws += 70
    assert draws >= 10000


def _bad_weight_kernel(builder, weights):
    """A kernel whose first step draws from a finite conditional of the
    named builder with the given weights (a grid family's log-weights)."""
    g2 = GridDensity(np.array([0.0, 1.0]), np.log(np.array([0.6, 0.4])))
    vals = [[0.0], [1.0]]
    if builder == "tag":
        idx = TagConditional((0, 1), lambda point: weights, name="a")
        comp = grid_conditional(vals, lambda point: np.array([0.5, 0.5]))
        return make_mixture_proposal(g2.density(), idx, comp)
    if builder == "grid_conditional":
        return make_mh(g2.density(), grid_conditional(vals, lambda point: weights))
    logs = dict(zip((0.0, 1.0), weights))
    return make_multiple_try(g2.density(), grid_family(vals, lambda u, c: logs[u[0]]), k=2)


_BAD_WEIGHTS = [
    pytest.param(b, w, id=f"{b}-{k}") for b in ("tag", "grid_conditional")
    for k, w in (("nan", [math.nan, 1.0]), ("negative", [-0.25, 1.25]),
                 ("zero", [0.0, 0.0]), ("infinite", [math.inf, 1.0]))]
# a family's weights are exponentials of its log-weights: never negative,
# and all zero when every log-weight is -inf
_BAD_WEIGHTS += [
    pytest.param("grid_family", w, id=f"grid_family-{k}")
    for k, w in (("nan", [math.nan, 0.0]), ("infinite", [math.inf, 0.0]),
                 ("zero", [-math.inf, -math.inf]))]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("builder, weights", _BAD_WEIGHTS)
def test_finite_draws_refuse_bad_weights(builder, weights):
    # the tag draw returned its last value for these weights and the grid
    # draws raised numpy's ValueError; a grid family refuses its log-weights
    # before it weighs by them, with no warning on the way
    kernel = _bad_weight_kernel(builder, weights)
    init = kernel.layout.point([0.0], np.zeros(kernel.layout.v_dim),
                               (0,) * len(kernel.layout.tags))
    cause = ("cannot weigh the grid values by the log-weights" if builder == "grid_family"
             else "cannot draw from the finite weights")
    with pytest.raises(DensityError, match=rf"^{kernel.name} step 0: {cause} "
                       rf"{re.escape(repr(weights))}: "):
        run_chain(kernel, init, 5, seed=1)


def test_acceptance_at_a_zero_density_point_skips_the_proposal():
    """A refreshed point of joint density zero is rejected outright: the
    proposal is built, and its density is never asked for."""
    asked = []

    def target(point):
        asked.append(float(point.x[0]))
        return -math.inf if point.x[0] == 0.0 else 0.0

    layout = Layout(x_dim=1, v_dim=1, slots={"v": slice(0, 1)})
    kernel = ImcmcKernel(layout, target, involution=swap_blocks(), name="swap")
    prob, proposal = kernel.acceptance(layout.point([0.0], [1.0]))
    assert (prob, float(proposal.x[0]), asked) == (0.0, 1.0, [0.0])


def test_log_accept_equal_densities():
    assert log_accept(AcceptanceRule.METROPOLIS, -1.0, -1.0, 0.0) == 1.0
    assert log_accept(AcceptanceRule.BARKER, -1.0, -1.0, 0.0) == 0.5


def test_log_accept_two_thirds_ratio():
    # min{1, (1/3)/(2/3)} = 0.5, evaluated directly
    p = log_accept(AcceptanceRule.METROPOLIS, math.log(2 / 3), math.log(1 / 3), 0.0)
    assert abs(p - 0.5) < 1e-15


def test_log_accept_uses_jacobian():
    assert log_accept(AcceptanceRule.METROPOLIS, 0.0, 0.0, -math.log(2.0)) == pytest.approx(0.5)


def test_log_accept_zero_density_proposal_rejected():
    assert log_accept(AcceptanceRule.METROPOLIS, -1.0, -math.inf, 0.0) == 0.0
    assert log_accept(AcceptanceRule.BARKER, -1.0, -math.inf, 0.0) == 0.0


def test_log_accept_nan_raises():
    with pytest.raises(DensityError):
        log_accept(AcceptanceRule.METROPOLIS, math.nan, 0.0, 0.0)


def test_barker_bounded():
    for delta in (-50.0, -1.0, 0.0, 1.0, 50.0):
        p = log_accept(AcceptanceRule.BARKER, 0.0, delta, 0.0)
        assert 0.0 <= p <= 1.0


def test_independence_sampler_always_accepts():
    # auxiliary drawn from the target itself plus a swap: unit ratio
    sn = standard_normal(1)
    cond = AuxiliaryConditional(
        lambda rng, pt: rng.standard_normal(1),
        lambda v, pt: sn.logpdf(np.asarray(v)),
        name="independent")
    kern = make_mh(sn, cond)
    rng = make_rng(0)
    pt = kern.layout.point([0.3], [0.0])
    for _ in range(200):
        out = kern.step(pt, rng)
        assert out.prob == 1.0
        assert out.accepted
        pt = out.point


def test_measure_preserving_involution_always_accepts():
    # flipping the momentum of a symmetric joint leaves the density unchanged
    from imcmc.maps import momentum_flip

    sn = standard_normal(1)
    layout = Layout(x_dim=1, v_dim=1, slots={"v": slice(0, 1)})
    kern = ImcmcKernel(layout, lambda pt: sn.logpdf(pt.x),
                       aux_refresh=[("v", normal_momentum(1))],
                       involution=momentum_flip())
    rng = make_rng(1)
    pt = layout.point([0.5], [0.0])
    for _ in range(100):
        out = kern.step(pt, rng)
        assert out.prob == 1.0
        pt = out.point


def test_two_state_flip_kernel_matrix():
    # hand-enumerated: from the heavy state accept w.p. 1/2, from the light state always
    grid = GridDensity(np.array([0.0, 1.0]), np.log(np.array([2 / 3, 1 / 3])))
    flip = grid_conditional(
        [np.array([0.0]), np.array([1.0])],
        lambda pt: np.array([0.0, 1.0]) if pt.x[0] == 0.0 else np.array([1.0, 0.0]))
    kern = make_mh(grid.density(), flip)

    from imcmc.diagnostics import marginal_matrix, stationary_pmf, transition_matrix

    states = [kern.layout.point([x], [v]) for x in (0.0, 1.0) for v in (0.0, 1.0)]
    T = transition_matrix(kern, states)
    p = stationary_pmf(states, lambda pt: grid.logpdf(pt.x) + flip.logpdf(pt.slot("v"), pt))
    Tx, _ = marginal_matrix(T, p, [0, 0, 1, 1])
    assert np.allclose(Tx, [[0.5, 0.5], [1.0, 0.0]], atol=1e-15)


def test_two_state_chain_frequency():
    grid = GridDensity(np.array([0.0, 1.0]), np.log(np.array([2 / 3, 1 / 3])))
    flip = grid_conditional(
        [np.array([0.0]), np.array([1.0])],
        lambda pt: np.array([0.0, 1.0]) if pt.x[0] == 0.0 else np.array([1.0, 0.0]))
    kern = make_mh(grid.density(), flip)
    res = run_chain(kern, kern.layout.point([0.0], [1.0]), 100000, seed=7)
    assert abs(float((res.xs[:, 0] == 0.0).mean()) - 2 / 3) < 0.01


def test_run_chain_empty_and_reproducible():
    sn = standard_normal(1)
    kern = make_mh(sn, normal_momentum(1))
    init = kern.layout.point([0.0], [0.0])
    empty = run_chain(kern, init, 0, seed=1)
    assert empty.xs.shape == (0, 1)

    a = run_chain(kern, init, 500, seed=42)
    b = run_chain(kern, init, 500, seed=42)
    assert np.array_equal(a.xs, b.xs)
    c = run_chain(kern, init, 500, seed=43)
    assert not np.array_equal(a.xs, c.xs)


def test_run_chain_rejects_bad_init():
    grid = GridDensity(np.array([0.0, 1.0]), np.log(np.array([0.5, 0.5])))
    kern = make_mh(grid.density(), grid_conditional(
        [np.array([0.0]), np.array([1.0])], lambda pt: np.array([0.5, 0.5])))
    with pytest.raises(DensityError):
        run_chain(kern, kern.layout.point([7.0], [0.0]), 10, seed=0)
    with pytest.raises(ConfigError):
        run_chain(kern, kern.layout.point([0.0], [0.0]), -1, seed=0)


def test_density_error_mid_chain_names_kernel_and_step():
    # standard normal whose log-density is NaN beyond x = 1.5
    sn = standard_normal(1)
    density = LogDensity(dim=1, logpdf=lambda x: math.nan if x[0] > 1.5 else sn.logpdf(x))
    kern = make_mh(density, random_walk_proposal(1, 0.5), name="rw")
    init = kern.layout.point([0.0], [0.0])
    with pytest.raises(DensityError) as exc:
        run_chain(kern, init, 2000, seed=3)
    match = re.fullmatch(r"rw step (\d+): rw: joint log-density is NaN", str(exc.value))
    assert match, str(exc.value)
    step = int(match.group(1))
    assert step > 0 and isinstance(exc.value.__cause__, DensityError)
    # the named step is the first one to fail
    assert run_chain(kern, init, step, seed=3).xs.shape == (step, 1)
    with pytest.raises(DensityError, match=f"^rw step {step}: "):
        run_chain(kern, init, step + 1, seed=3)


def _nan_above_one():
    """A standard normal whose log-density is NaN beyond x = 1, with a
    gradient that stays finite there."""
    return LogDensity(dim=1, logpdf=lambda x: math.nan if x[0] > 1.0 else -0.5 * float(x @ x),
                      grad=lambda x: -x)


# kernel builder on `_nan_above_one`, and what its refusal says
_NAN_CASES = {
    # a private joint density skipped the NaN check, and the cascade gave a
    # NaN ratio all the remaining weight: 468 of 2000 steps ran in the region
    "look_ahead": (lambda d: make_look_ahead(d, LeapfrogConfig(0.5, 1), 4, 1.0),
                   "look_ahead_move: joint log-density is NaN"),
    # all trials NaN raised max()'s bare ValueError, and a NaN trial among
    # finite ones was given weight 0
    "mtm": (lambda d: make_multiple_try(d, gaussian_family(1, 4.0), 4),
            "cannot weigh the trials by the log-weights "),
}


@pytest.mark.parametrize("kind", sorted(_NAN_CASES))
def test_nan_log_density_mid_chain_is_a_density_error(kind):
    build, cause = _NAN_CASES[kind]
    kernel = build(_nan_above_one())
    with pytest.raises(DensityError, match=rf"^{kind} step \d+: {re.escape(cause)}"):
        run_chain(kernel, default_init(kernel, [0.0]), 2000, seed=1)


def test_chain_rngs_split_deterministically():
    a = chain_rngs(5, 3)
    b = chain_rngs(5, 3)
    for ra, rb in zip(a, b):
        assert ra.random() == rb.random()
    # distinct streams across chains
    c = chain_rngs(5, 2)
    assert c[0].random() != c[1].random()


def test_compose_requires_kernels_and_shared_layout():
    with pytest.raises(ConfigError):
        compose([])
    sn = standard_normal(1)
    k1 = make_mh(sn, normal_momentum(1))
    k2 = make_mh(standard_normal(2), normal_momentum(2))
    with pytest.raises(ConfigError):
        compose([k1, k2])


def test_single_kernel_composition_matches_kernel():
    sn = standard_normal(1)
    kern = make_mh(sn, normal_momentum(1))
    comp = compose([kern])
    init = kern.layout.point([0.2], [0.0])
    a = run_chain(kern, init, 300, seed=3)
    b = run_chain(comp, init, 300, seed=3)
    assert np.array_equal(a.xs, b.xs)


def test_composition_step_is_its_kernels_steps_in_turn():
    """`compose(...).step`, a composition's own `TransitionKernel` step,
    lands where its kernels' steps in turn land, accepts when each of them
    accepts, and reports the smallest of their acceptance probabilities."""
    sn = standard_normal(1)
    kernels = [make_mh(sn, random_walk_proposal(1, 0.5), name="near"),
               make_mh(sn, random_walk_proposal(1, 3.0), name="far")]
    comp = compose(kernels)
    point = kernels[0].layout.point([0.3], [0.0])
    rng, rng_parts = make_rng(4), make_rng(4)
    accepted = set()
    for _ in range(200):
        out = comp.step(point, rng)
        end, parts = point, []
        for k in kernels:
            parts.append(k.step(end, rng_parts))
            end = parts[-1].point
        assert np.array_equal(out.point.x, end.x) and np.array_equal(out.point.v, end.v)
        assert out.accepted == all(p.accepted for p in parts)
        assert out.prob == min(p.prob for p in parts)
        accepted.add(out.accepted)
        point = out.point
    assert accepted == {True, False}


def test_involution_layout_mismatch_is_config_error():
    sn = standard_normal(1)
    layout = Layout(x_dim=1, v_dim=1, slots={"v": slice(0, 1)})

    def bad(zpt):
        return zpt.with_x(np.zeros(2)), 0.0

    kern = ImcmcKernel(layout, lambda pt: sn.logpdf(pt.x),
                       aux_refresh=[("v", normal_momentum(1))],
                       involution=Involution(bad, name="bad"))
    with pytest.raises(ConfigError):
        kern.step(layout.point([0.0], [0.0]), make_rng(0))


def test_verify_involution_swap_exact():
    layout = Layout(x_dim=2, v_dim=2, slots={"v": slice(0, 2)})
    pts = random_points(layout, 50, make_rng(0))
    rep = verify_involution(swap_blocks(), pts)
    assert rep.max_displacement == 0.0
    assert rep.passed


def test_verify_involution_rejects_plain_leapfrog():
    # the integrator alone is a shift, not an involution
    sn = standard_normal(1)
    flow = leapfrog_flow(LeapfrogConfig(0.1, 5), sn.grad)
    fake = Involution(lambda z: flow.forward(z), name="not_involutive")
    layout = Layout(x_dim=1, v_dim=1, slots={"v": slice(0, 1)})
    rep = verify_involution(fake, random_points(layout, 20, make_rng(1)))
    assert not rep.passed
    assert rep.max_displacement > 1e-3


def test_verify_involution_hmc_composite():
    sn = standard_normal(1)
    inv = hmc_involution(LeapfrogConfig(0.1, 5), sn.grad)
    layout = Layout(x_dim=1, v_dim=1, slots={"v": slice(0, 1)})
    rep = verify_involution(inv, random_points(layout, 100, make_rng(2)), tol=1e-10)
    assert rep.passed


def test_verify_jacobian_swap():
    layout = Layout(x_dim=2, v_dim=2, slots={"v": slice(0, 2)})
    pt = random_points(layout, 1, make_rng(3))[0]
    rep = verify_jacobian(swap_blocks(), pt, tol=1e-6)
    assert rep.reported_logdet == 0.0
    assert rep.passed


def _nan_above_zero() -> Involution:
    """Sends a point with x[0] > 0 to a NaN x with a NaN log-det and leaves
    every other point as it is: no involution, whatever its maxima say."""

    def fn(z):
        if z.x[0] > 0.0:
            return z.with_x(np.full(z.x.shape, math.nan)), math.nan
        return z, 0.0

    return Involution(fn, name="nan_above_zero")


def test_verify_involution_fails_on_a_nan_image():
    layout = Layout(x_dim=2, v_dim=2, slots={"v": slice(0, 2)})
    pts = random_points(layout, 100, make_rng(5))
    assert any(pt.x[0] > 0.0 for pt in pts) and any(pt.x[0] <= 0.0 for pt in pts)
    rep = verify_involution(_nan_above_zero(), pts)
    assert math.isnan(rep.max_displacement)
    assert math.isnan(rep.max_logdet_asymmetry)
    assert not rep.passed


def test_verify_jacobian_fails_on_a_nan_image():
    layout = Layout(x_dim=2, v_dim=2, slots={"v": slice(0, 2)})
    rep = verify_jacobian(_nan_above_zero(), layout.point([0.5, -0.2], [0.1, 0.3]), tol=1e-6)
    assert math.isnan(rep.reported_logdet)
    assert math.isnan(rep.fd_logdet)
    assert not rep.passed


def test_random_points_respect_tag_domains():
    layout = Layout(x_dim=1, v_dim=0, tags=("d",), tag_values={"d": (-1, 1)})
    pts = random_points(layout, 40, make_rng(4))
    assert {pt.tag("d") for pt in pts} <= {-1, 1}

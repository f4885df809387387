"""Integrators, flows, combinators, coupling layers, CDF rotation."""

import math
from collections import Counter

import numpy as np
import pytest

from imcmc.core import (
    _MISS,
    Layout,
    LogDensity,
    make_rng,
    random_points,
    run_chain,
    verify_involution,
    verify_jacobian,
)
from imcmc.errors import ConfigError, FixedPointError
from imcmc.maps import (
    CouplingMap,
    LeapfrogConfig,
    Metric,
    RiemannianHamiltonian,
    _fixed_point,
    _swap_negate,
    additive_coupling,
    affine_coupling,
    affine_x_flow,
    cdf_map,
    constant_metric,
    cycle_flow,
    direction_augment,
    embed,
    hmc_involution,
    identity_flow,
    implicit_hmc_involution,
    implicit_leapfrog,
    implicit_leapfrog_inverse,
    leapfrog,
    leapfrog_inverse,
    mixture_involution,
    momentum_flip,
    swap_blocks,
    swap_slots,
)
from imcmc.samplers import default_init, make_hamiltonian
from imcmc.targets import mixture_1d, mog2, normal_cdf1d, standard_normal

SN1 = standard_normal(1)
LAY1 = Layout(x_dim=1, v_dim=1, slots={"v": slice(0, 1)})
LAY2 = Layout(x_dim=2, v_dim=2, slots={"v": slice(0, 2)})
# G(x) = 1 + x^2, the non-constant metric of suite.involution_gallery
CURVED = Metric(g=lambda x: np.array([[1.0 + x[0] ** 2]]),
                g_logdet=lambda x: math.log(1.0 + x[0] ** 2),
                g_grad=lambda x: np.array([[[2.0 * x[0]]]]))


def hamiltonian(x, v):
    return 0.5 * float(x @ x) + 0.5 * float(v @ v)


def test_leapfrog_config_validation():
    with pytest.raises(ConfigError):
        LeapfrogConfig(0.0, 1)
    with pytest.raises(ConfigError):
        LeapfrogConfig(0.1, 0)


def test_leapfrog_energy_error_small():
    x, v = np.array([0.0]), np.array([1.0])
    x1, v1 = leapfrog(x, v, LeapfrogConfig(0.1, 10), SN1.grad)
    assert abs(hamiltonian(x1, v1) - hamiltonian(x, v)) <= 1e-3


def test_leapfrog_matches_fine_reference():
    # high-resolution integration of the same dynamics over the same time span
    x, v = np.array([0.4]), np.array([-0.8])
    coarse = leapfrog(x, v, LeapfrogConfig(0.1, 10), SN1.grad)
    fine = leapfrog(x, v, LeapfrogConfig(1e-4, 10000), SN1.grad)
    assert np.max(np.abs(np.concatenate(coarse) - np.concatenate(fine))) < 2e-3


def test_leapfrog_energy_scales_quadratically():
    x, v = np.array([0.0]), np.array([1.0])
    d1 = abs(hamiltonian(*leapfrog(x, v, LeapfrogConfig(0.1, 10), SN1.grad))
             - hamiltonian(x, v))
    d2 = abs(hamiltonian(*leapfrog(x, v, LeapfrogConfig(0.05, 20), SN1.grad))
             - hamiltonian(x, v))
    assert 3.0 <= d1 / d2 <= 5.0


def test_leapfrog_inverse_roundtrip():
    x, v = np.array([1.3, -0.2]), np.array([0.5, 0.9])
    g = standard_normal(2).grad
    cfg = LeapfrogConfig(0.2, 7)
    x1, v1 = leapfrog(x, v, cfg, g)
    x0, v0 = leapfrog_inverse(x1, v1, cfg, g)
    assert np.max(np.abs(np.concatenate([x0 - x, v0 - v]))) < 1e-10


def test_leapfrog_evaluates_k_plus_one_gradients():
    calls = []

    def g(x):
        calls.append(x.copy())
        return -x

    x, v = np.array([0.3, -1.1]), np.array([0.2, 0.4])
    cfg = LeapfrogConfig(0.1, 8)
    leapfrog(x, v, cfg, g)
    assert len(calls) == cfg.k + 1
    leapfrog_inverse(x, v, cfg, g)
    assert len(calls) == 2 * (cfg.k + 1)
    # no position is evaluated twice within a trajectory
    assert len({c.tobytes() for c in calls[cfg.k + 1:]}) == cfg.k + 1


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_leapfrog_non_finite_gradient_partway_raises(bad):
    # the inverse runs time backwards, so -v takes it along the same path
    for integrate, v0 in ((leapfrog, 1.0), (leapfrog_inverse, -1.0)):
        calls = []

        def g(x):
            calls.append(float(x[0]))
            return np.array([bad]) if x[0] > 0.5 else -x

        with pytest.raises(ConfigError, match="non-finite gradient in leapfrog"):
            integrate(np.array([0.0]), np.array([v0]), LeapfrogConfig(0.1, 20), g)
        # the first gradients were finite: the failure came mid-trajectory
        assert calls[0] == 0.0 and sum(c <= 0.5 for c in calls) > 3


# the targets with a float form: mog2, and mixture_1d as the CLI's bimodal1d
FLOAT_TARGETS = {"mog2": mog2, "bimodal1d": lambda: mixture_1d([-1.5, 1.5], 0.6)}


def _without_float_form(density):
    """The same density with its array callables alone, which `leapfrog`
    integrates on arrays."""
    return LogDensity(dim=density.dim, logpdf=density.logpdf.fn, grad=density.grad.fn,
                      value_and_grad=density.grad.fused)


def _trajectory_bits(integrate, density, x, v, cfg):
    """The end point's x and v and the log-density the memo holds there, as
    bits."""
    x1, v1 = integrate(x, v, cfg, density.grad)
    value = density.logpdf.get((x1.shape, x1.tobytes()))
    assert value is not _MISS  # the endpoint was evaluated through the memo
    return x1.dtype, x1.tobytes(), v1.dtype, v1.tobytes(), value.hex()


@pytest.mark.parametrize("name", sorted(FLOAT_TARGETS))
def test_float_leapfrog_keeps_the_array_bits(name):
    floats = FLOAT_TARGETS[name]()
    arrays = _without_float_form(floats)
    assert floats.grad.floats is not None and arrays.grad.floats is None
    rng = make_rng(23)
    starts = 0
    for scale in (0.5, 2.0, 8.0):
        for _ in range(3400):
            x = scale * rng.standard_normal(floats.dim)
            v = rng.standard_normal(floats.dim)
            eps = float(rng.uniform(0.02, 0.6))
            for k in (1, 16):
                for integrate in (leapfrog, leapfrog_inverse):
                    cfg = LeapfrogConfig(eps, k)
                    assert (_trajectory_bits(integrate, floats, x, v, cfg)
                            == _trajectory_bits(integrate, arrays, x, v, cfg))
            starts += 1
    assert starts >= 10000
    # far out the float gradient goes NaN: at the start, and after a few
    # steps of an unstable step size (3.0 against the modes' period)
    far, unstable = np.full(floats.dim, 0.0), np.full(floats.dim, 0.0)
    far[0], unstable[0] = 1e200, 1e150
    assert np.isfinite(floats.grad(unstable)).all()
    for x, eps in ((far, 0.3), (unstable, 3.0)):
        for density in (floats, arrays):
            for integrate in (leapfrog, leapfrog_inverse):
                with pytest.raises(ConfigError, match="^non-finite gradient in leapfrog$"):
                    integrate(x, np.zeros(floats.dim), LeapfrogConfig(eps, 16), density.grad)


def _counting_float_mog2():
    """mog2 with every callable counted, its float form included."""
    base, counts = mog2(), Counter()

    def counted(name, fn):
        def wrapper(x):
            counts[name] += 1
            return fn(x)
        return wrapper

    density = LogDensity(dim=2, logpdf=counted("logpdf", base.logpdf.fn),
                         grad=counted("grad", base.grad.fn),
                         value_and_grad=counted("value_and_grad", base.grad.fused),
                         floats=counted("floats", base.floats))
    return density, counts


@pytest.mark.parametrize("k", [1, 2, 16])
def test_float_leapfrog_evaluates_k_plus_one_gradients(k):
    density, counts = _counting_float_mog2()
    cfg = LeapfrogConfig(0.1, k)
    for i, integrate in enumerate((leapfrog, leapfrog_inverse)):
        counts.clear()
        x = np.array([0.3 + i, -1.1])
        x1, _ = integrate(x, np.array([0.2, 0.4]), cfg, density.grad)
        # the start through the gradient memo, k - 1 interior positions on
        # floats and the endpoint's value and gradient in one fused call
        assert +counts == +Counter(grad=1, floats=k - 1, value_and_grad=1)
        density.logpdf(x1)
        density.grad(x)
        assert sum(counts.values()) == k + 1


def test_hmc_on_a_float_form_evaluates_each_trajectory_once():
    density, counts = _counting_float_mog2()
    k, n = 16, 200
    kernel = make_hamiltonian(density, LeapfrogConfig(0.3, k))
    res = run_chain(kernel, default_init(kernel, [2.0, 0.0]), n, seed=5)
    assert res.accepted.any() and not res.accepted.all()
    # the start point's value and gradient once, then per step k - 1 float
    # calls and one fused endpoint: an accepted endpoint is the next start,
    # and a rejected step starts where it did, both still in the memo
    assert counts == Counter(logpdf=1, grad=1, floats=(k - 1) * n, value_and_grad=n)


def test_leapfrog_volume_preserving():
    inv = hmc_involution(LeapfrogConfig(0.1, 5), SN1.grad)
    pt = LAY1.point([0.7], [-0.4])
    rep = verify_jacobian(inv, pt, tol=1e-6)
    assert rep.passed  # |det J| = 1 against finite differences


def test_flip_and_swap_self_inverse():
    pts = random_points(LAY2, 30, make_rng(0))
    assert verify_involution(momentum_flip(), pts).passed
    assert verify_involution(swap_blocks(), pts).passed
    flip = momentum_flip()
    z = LAY2.point([1.0, 2.0], [0.0, 0.0])
    z1, _ = flip.forward(z)
    assert np.array_equal(z1.v, -z.v)  # v = 0 is a fixed point


def test_swap_blocks_makes_the_point_the_slot_writes_would():
    # on a v block that is the slot and on one with more in v (the scratch
    # slot "a"), the swap writes x into a copy of v and keeps the rest
    rng = make_rng(4)
    for lay in (LAY2, Layout(x_dim=2, v_dim=4,
                             slots={"v": slice(0, 2), "a": slice(2, 4)})):
        for z in random_points(lay, 20, rng):
            got, ld = swap_blocks().forward(z)
            want = z.with_x(z.slot("v").copy()).with_slot("v", z.x.copy())
            assert ld == 0.0 and got.tags == want.tags and got.layout is lay
            for a, b in ((got.x, want.x), (got.v, want.v)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert not np.shares_memory(got.x, z.v)
            assert not np.shares_memory(got.v, z.x)


def test_swap_slots():
    lay = Layout(x_dim=1, v_dim=2, slots={"a": slice(0, 1), "b": slice(1, 2)})
    z = lay.point([0.0], [1.0, 2.0])
    inv = swap_slots("a", "b")
    z1, ld = inv.forward(z)
    assert ld == 0.0
    assert z1.slot("a")[0] == 2.0 and z1.slot("b")[0] == 1.0


def test_swap_negate_is_an_involution():
    lay = Layout(x_dim=1, v_dim=1, slots={"v": slice(0, 1)}, tags=("d",),
                 tag_values={"d": (-1, 1)})
    pts = random_points(lay, 50, make_rng(3))
    assert verify_involution(_swap_negate, pts).passed
    z1, ld = _swap_negate.forward(lay.point([0.5], [2.0], (1,)))
    assert (z1.x[0], z1.v[0], z1.tag("d"), ld) == (2.0, 0.5, -1, 0.0)


def test_hmc_involution_eps_to_zero_limit():
    # vanishing step: the proposal tends to (x, -v)
    inv = hmc_involution(LeapfrogConfig(1e-8, 1), SN1.grad)
    z = LAY1.point([0.9], [0.4])
    z1, _ = inv.forward(z)
    assert abs(z1.x[0] - 0.9) < 1e-7
    assert abs(z1.v[0] + 0.4) < 1e-7


def test_hmc_involution_on_multimodal_target():
    inv = hmc_involution(LeapfrogConfig(0.1, 5), mog2().grad)
    rep = verify_involution(inv, random_points(LAY2, 100, make_rng(1)), tol=1e-10)
    assert rep.passed


def test_implicit_constant_metric_matches_explicit():
    c = 2.0
    ham = RiemannianHamiltonian(SN1.logpdf, SN1.grad, constant_metric(np.array([[c]])))
    x, v = np.array([0.3]), np.array([0.8])
    cfg = LeapfrogConfig(0.1, 7)
    xi, vi = implicit_leapfrog(x, v, cfg, ham)
    xe, ve = leapfrog(x, v, cfg, SN1.grad, grad_v=lambda w: -w / c)
    assert np.max(np.abs(np.concatenate([xi - xe, vi - ve]))) <= 1e-10


def test_implicit_converges_immediately_for_constant_metric():
    ham = RiemannianHamiltonian(SN1.logpdf, SN1.grad, constant_metric(np.array([[1.5]])))
    x, v = implicit_leapfrog(np.array([0.2]), np.array([-0.5]),
                             LeapfrogConfig(0.1, 1), ham, max_iter=2)
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(v))


# (x, v) -> implicit_leapfrog(eps 0.1, k 3) end point and grad_x(x, v), as
# float.hex, recorded before the half-kick's x-only terms were hoisted
IMPLICIT_PINNED = [
    ((-1.3, 0.7), ("-0x1.306b9e3c1dcd6p+0", "0x1.2b44cdac64b1ap+0", "-0x1.b1fb488bb7e34p+0")),
    ((0.4, -1.1), ("0x1.45b52d70091dfp-4", "-0x1.2923089050405p+0", "0x1.8a61493d1002fp-2")),
    ((2.0, 0.25), ("0x1.fe4ef1a33b7abp+0", "-0x1.e002c3cf942ccp-2", "0x1.328f5c28f5c29p+1")),
]


@pytest.mark.parametrize("start,pinned", IMPLICIT_PINNED)
def test_implicit_leapfrog_pinned_bitwise(start, pinned):
    ham = RiemannianHamiltonian(SN1.logpdf, SN1.grad, CURVED)
    x, v = np.array([start[0]]), np.array([start[1]])
    xo, vo = implicit_leapfrog(x, v, LeapfrogConfig(0.1, 3), ham)
    g = ham.grad_x(x, v)
    assert (xo[0].hex(), vo[0].hex(), g[0].hex()) == pinned
    assert np.array_equal(g, ham.grad_x_at(x)(v))


def test_hoisted_kick_equals_grad_x_bitwise():
    # a 2-d metric with off-diagonal terms exercises every trace and quad term
    sn2 = standard_normal(2)

    def g(x):
        c = 0.3 * x[0] * x[1]
        return np.array([[1.0 + x[0] ** 2, c], [c, 2.0 + x[1] ** 2]])

    def dg(x):
        return np.array([[[2.0 * x[0], 0.3 * x[1]], [0.3 * x[1], 0.0]],
                         [[0.0, 0.3 * x[0]], [0.3 * x[0], 2.0 * x[1]]]])

    ham = RiemannianHamiltonian(sn2.logpdf, sn2.grad, Metric(g=g, g_grad=dg))
    x = np.array([0.5, -0.8])
    kick = ham.grad_x_at(x)
    for pt in random_points(LAY2, 5, make_rng(3)):
        assert np.array_equal(kick(pt.v), ham.grad_x(x, pt.v))
    xo, vo = implicit_leapfrog(x, np.array([0.3, 1.2]), LeapfrogConfig(0.1, 3), ham)
    assert [a.hex() for a in xo] == ["0x1.1acc722050bf4p-1", "-0x1.475597352bfbbp-1"]
    assert [a.hex() for a in vo] == ["0x1.1fd093de0ee3cp-6", "0x1.71917cad8bcd3p+0"]


def test_implicit_nonconvergence_reports_residual():
    # a huge step makes the fixed-point iteration diverge
    ham = RiemannianHamiltonian(SN1.logpdf, SN1.grad, CURVED)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FixedPointError) as err:
            implicit_leapfrog(np.array([3.0]), np.array([5.0]),
                              LeapfrogConfig(40.0, 1), ham, max_iter=10)
    assert err.value.residual > 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fixed_point_non_finite_iterate_diverges(bad):
    iterates = iter([np.array([0.5, 0.2]), np.array([0.25, bad])])
    with pytest.raises(FixedPointError, match="diverged") as err:
        _fixed_point(lambda z: next(iterates), np.zeros(2), 1e-12, 10)
    assert err.value.residual == math.inf


def test_fixed_point_non_finite_start_keeps_iterating():
    seen = []

    def update(z):
        seen.append(z.copy())
        return np.array([1.0, 2.0])

    z = _fixed_point(update, np.array([np.inf, np.nan]), 1e-12, 10)
    # the first iterate is finite, so the infinite residual only means
    # "not converged yet"; the second step converges
    assert np.array_equal(z, [1.0, 2.0]) and len(seen) == 2


def test_fixed_point_nonconvergence_reports_the_last_residual():
    with pytest.raises(FixedPointError, match="did not converge") as err:
        _fixed_point(lambda z: 0.5 * z, np.array([1.0, -4.0]), 1e-12, 3)
    # iterates -2, -1, -0.5 in the second coordinate
    assert err.value.residual == 0.5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fixed_point_on_a_scalar_non_finite_iterate_diverges(bad):
    iterates = iter([np.float64(0.25), np.float64(bad)])
    with pytest.raises(FixedPointError, match="diverged") as err:
        _fixed_point(lambda z: next(iterates), np.float64(0.0), 1e-12, 10)
    assert err.value.residual == math.inf


def test_fixed_point_on_a_scalar_reports_the_last_residual():
    with pytest.raises(FixedPointError, match="did not converge") as err:
        _fixed_point(lambda z: 0.5 * z, np.float64(-4.0), 1e-12, 3)
    assert err.value.residual == 0.5
    # a non-finite start only means "not converged yet"
    assert _fixed_point(lambda z: np.float64(2.0), np.float64(np.nan), 1e-12, 10) == 2.0


def _reference_implicit_leapfrog(x, v, cfg, ham, max_iter=100):
    """The integrator as it ran every point on arrays: ``G^-1`` by
    `np.linalg.inv`, the kicks' products by ``@``, a 1x1 metric's solve as a
    division and the residual as a sup-norm.  The 1-D scalar path must give
    its bits and its errors."""
    metric = ham.metric

    def kick_at(y):
        ginv = np.linalg.inv(metric.g(y))
        dg = metric.grad(y)
        base = -np.asarray(ham.target_grad(y), dtype=float)
        for k in range(y.size):
            base[k] += 0.5 * np.trace(ginv @ dg[k])

        def kick(w):
            out = base.copy()
            ginv_w = ginv @ w
            for k in range(y.size):
                out[k] -= 0.5 * float(ginv_w @ dg[k] @ ginv_w)
            return out

        return kick

    def solve(y, w):
        g = metric.g(y)
        return w / g[0, 0] if g.shape == (1, 1) else np.linalg.solve(g, w)

    def fixed_point(update, start):
        z = np.array(start, dtype=float)
        resid = math.inf
        for _ in range(max_iter):
            z_new = update(z)
            resid = float(np.abs(z_new - z).max(initial=0.0))
            if not math.isfinite(resid) and not np.all(np.isfinite(z_new)):
                raise FixedPointError("implicit integrator step diverged", math.inf)
            z = z_new
            if resid <= 1e-12:
                return z
        raise FixedPointError("implicit integrator step did not converge", resid)

    x, v = np.array(x, dtype=float), np.array(v, dtype=float)
    h = 0.5 * cfg.eps
    kick = kick_at(x)
    for _ in range(cfg.k):
        v_half = fixed_point(lambda w: v - h * kick(w), v)
        x_half = x + h * solve(x, v_half)
        x = fixed_point(lambda y: x_half + h * solve(y, v_half), x_half)
        kick = kick_at(x)
        v = v_half - h * kick(v_half)
    return x, v


def _outcome(integrate, x, v, cfg, ham, **kw):
    """The end point's bytes (so a zero's sign counts), or the error's
    message and residual."""
    try:
        xo, vo = integrate(np.array([x]), np.array([v]), cfg, ham, **kw)
    except FixedPointError as err:
        return str(err), float(err.residual).hex()
    assert xo.shape == vo.shape == (1,) and xo.dtype == vo.dtype == np.float64
    return xo.tobytes(), vo.tobytes()


ONE_D_METRICS = [("curved", CURVED), ("constant", constant_metric(np.array([[2.5]])))]


@pytest.mark.parametrize("name,metric", ONE_D_METRICS)
def test_one_coordinate_integrator_keeps_the_array_bits(name, metric):
    ham = RiemannianHamiltonian(SN1.logpdf, SN1.grad, metric)
    rng = make_rng(15)
    starts = [(x, v) for x in (0.0, -0.0, 1.0) for v in (0.0, -0.0, -2.0)]
    starts += zip(rng.uniform(-5.0, 5.0, 400), 2.0 * rng.standard_normal(400))
    for i, (x, v) in enumerate(starts):
        cfg = LeapfrogConfig((0.05, 0.1, 0.3)[i % 3], 1 + i % 4)
        assert (_outcome(implicit_leapfrog, x, v, cfg, ham)
                == _outcome(_reference_implicit_leapfrog, x, v, cfg, ham)), (x, v, cfg)


def test_one_coordinate_kick_keeps_the_array_bits():
    # dG/dx = -2^-1074 makes half the trace term round to -0.0; with a zero
    # target gradient and a zero momentum only the sign of a zero is left
    tiny = Metric(g=lambda x: np.array([[1.0]]), g_logdet=lambda x: 0.0,
                  g_grad=lambda x: np.array([[[-5e-324]]]))
    flat = np.zeros(1)
    hams = [RiemannianHamiltonian(SN1.logpdf, SN1.grad, met) for _, met in ONE_D_METRICS]
    hams.append(RiemannianHamiltonian(SN1.logpdf, lambda x: flat, tiny))
    values = (0.0, -0.0, 5e-324, -5e-324, 1e-170, -1e-170, 0.7, -1.3, 4.0)
    for ham in hams:
        for x in values:
            kick = ham.grad_x_at(np.array([x]))
            scalar_kick, g_x = ham._scalar_kick_at(np.array([x]))
            assert g_x == ham.metric.g(np.array([x]))[0, 0]
            for w in values:
                got = np.float64(scalar_kick(np.float64(w)))
                assert got.tobytes() == kick(np.array([w])).tobytes(), (x, w)


def test_one_coordinate_integrator_reports_the_last_residual():
    ham = RiemannianHamiltonian(SN1.logpdf, SN1.grad, CURVED)
    cfg = LeapfrogConfig(0.3, 2)
    for x, v in ((1.7, -2.2), (-4.0, 3.0), (0.5, 0.9)):
        got = _outcome(implicit_leapfrog, x, v, cfg, ham, max_iter=3)
        assert got[0] == "implicit integrator step did not converge"
        assert 0.0 < float.fromhex(got[1]) < math.inf
        assert got == _outcome(_reference_implicit_leapfrog, x, v, cfg, ham, max_iter=3)
    # the huge step of test_implicit_nonconvergence_reports_residual
    with np.errstate(over="ignore", invalid="ignore"):
        got = _outcome(implicit_leapfrog, 3.0, 5.0, LeapfrogConfig(40.0, 1), ham,
                       max_iter=10)
        assert got == _outcome(_reference_implicit_leapfrog, 3.0, 5.0,
                               LeapfrogConfig(40.0, 1), ham, max_iter=10)
    assert isinstance(got[0], str)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_one_coordinate_integrator_diverges_on_a_non_finite_iterate(bad):
    # the metric leaves the real line past x = 1, so the drift's iterate
    # turns non-finite there; the kick at the start is finite
    g1 = np.array([[1.0]])
    met = Metric(g=lambda x: g1 if x[0] < 1.0 else np.array([[1.0 / bad]]),
                 g_logdet=lambda x: 0.0)
    ham = RiemannianHamiltonian(SN1.logpdf, SN1.grad, met)
    cfg = LeapfrogConfig(0.5, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        got = _outcome(implicit_leapfrog, 0.9, 1.0, cfg, ham)
        assert got == _outcome(_reference_implicit_leapfrog, 0.9, 1.0, cfg, ham)
    assert got == ("implicit integrator step diverged", math.inf.hex())


def test_implicit_involution_position_dependent_metric():
    ham = RiemannianHamiltonian(SN1.logpdf, SN1.grad, CURVED)
    inv = implicit_hmc_involution(LeapfrogConfig(0.1, 3), ham)
    rep = verify_involution(inv, random_points(LAY1, 50, make_rng(2)), tol=1e-8)
    assert rep.passed


def test_implicit_inverse_roundtrip():
    ham = RiemannianHamiltonian(SN1.logpdf, SN1.grad, CURVED)
    cfg = LeapfrogConfig(0.05, 4)
    x, v = np.array([0.6]), np.array([-0.3])
    x1, v1 = implicit_leapfrog(x, v, cfg, ham)
    x0, v0 = implicit_leapfrog_inverse(x1, v1, cfg, ham)
    assert np.max(np.abs(np.concatenate([x0 - x, v0 - v]))) < 1e-8


def test_direction_augment_identity_flow_is_pure_flip():
    lay = Layout(x_dim=1, v_dim=0, tags=("d",), tag_values={"d": (-1, 1)})
    inv = direction_augment(identity_flow())
    z = lay.point([0.4], tags=(1,))
    z1, ld = inv.forward(z)
    assert z1.tag("d") == -1 and ld == 0.0 and z1.x[0] == 0.4


def test_direction_augment_any_bijection_is_involutive():
    flow = affine_x_flow([0.3], [1.7])
    lay = Layout(x_dim=1, v_dim=0, tags=("d",), tag_values={"d": (-1, 1)})
    rep = verify_involution(direction_augment(flow),
                            random_points(lay, 50, make_rng(3)))
    assert rep.passed
    assert rep.max_logdet_asymmetry <= 1e-12


def test_direction_augment_rejects_bad_tag():
    lay = Layout(x_dim=1, v_dim=0, tags=("d",), tag_values={"d": (-1, 1)})
    inv = direction_augment(identity_flow())
    with pytest.raises(ConfigError):
        inv.forward(lay.point([0.0], tags=(0,)))


def test_embed_identity_leaves_involution_unchanged():
    inner = swap_blocks()
    emb = embed(identity_flow(), inner)
    z = LAY2.point([1.0, 2.0], [3.0, 4.0])
    a, la = inner.forward(z)
    b, lb = emb.forward(z)
    assert np.array_equal(a.continuous(), b.continuous()) and la == lb


def test_embed_produces_involution_and_tracks_jacobians():
    emb = embed(affine_x_flow([0.5, -1.0], [2.0, 0.5]), swap_blocks())
    pts = random_points(LAY2, 50, make_rng(4))
    rep = verify_involution(emb, pts)
    assert rep.passed
    jac = verify_jacobian(emb, pts[0], tol=1e-5)
    assert jac.passed


def test_mixture_involution_guards_index_mutation():
    lay = Layout(x_dim=1, v_dim=0, tags=("a",), tag_values={"a": (0, 1)})

    def mutator(a):
        from imcmc.core import Involution

        return Involution(lambda z: (z.with_tag("a", 1 - z.tag("a")), 0.0))

    inv = mixture_involution(mutator, "a")
    with pytest.raises(ConfigError):
        inv.forward(lay.point([0.0], tags=(0,)))


def test_coupling_roundtrip_and_volume():
    cm = additive_coupling()
    assert cm.volume_preserving
    z = LAY2.point([0.4, -1.2], [0.9, 0.3])
    z1, ld1 = cm.forward(z)
    z2, ld2 = cm.inverse(z1)
    assert np.max(np.abs(z2.continuous() - z.continuous())) <= 1e-10
    assert ld1 == 0.0 and ld2 == 0.0
    # finite-difference |det| = 1 for the direction-augmented map
    lay = Layout(x_dim=2, v_dim=2, slots={"v": slice(0, 2)},
                 tags=("d",), tag_values={"d": (-1, 1)})
    pt = random_points(lay, 1, make_rng(5))[0]
    assert verify_jacobian(direction_augment(cm), pt, tol=1e-6).passed


def test_affine_coupling_logdet_matches_fd():
    am = affine_coupling()
    assert not am.volume_preserving
    lay = Layout(x_dim=2, v_dim=2, slots={"v": slice(0, 2)},
                 tags=("d",), tag_values={"d": (-1, 1)})
    for pt in random_points(lay, 5, make_rng(6)):
        rep = verify_jacobian(direction_augment(am), pt, tol=1e-5)
        assert rep.passed
        assert abs(rep.reported_logdet) > 0.0  # genuinely non-volume-preserving


def test_coupling_unknown_layer_rejected():
    with pytest.raises(ConfigError):
        CouplingMap([("frobnicate", None)])


def test_cycle_flow():
    flow = cycle_flow([0.0, 1.0, 2.0])
    lay = Layout(x_dim=1, v_dim=0)
    z = lay.point([2.0])
    z1, _ = flow.forward(z)
    assert z1.x[0] == 0.0
    z0, _ = flow.inverse(z)
    assert z0.x[0] == 1.0
    with pytest.raises(ConfigError):
        flow.forward(lay.point([0.5]))


def test_cycle_flow_refuses_a_nan_value():
    # a NaN value's distance would win every search, so that every point,
    # even the off-cycle 5.0, was mapped to the first value; an infinite
    # value is at distance NaN from itself, so no point was ever on it
    with pytest.raises(ConfigError, match="NaN"):
        cycle_flow([0.0, 1.0, np.nan])
    with pytest.raises(ConfigError, match=r"row 2 has an infinite coordinate \(-inf"):
        cycle_flow([0.0, 1.5, -np.inf])
    flow = cycle_flow([0.0, 1.0, 2.0])
    lay = Layout(x_dim=1, v_dim=0)
    for move in (flow.forward, flow.inverse):
        with pytest.raises(ConfigError, match="not on the cycle"):
            move(lay.point([5.0]))


def test_cycle_flow_refuses_a_nan_point():
    # argmin picks the first value for a NaN point, and a NaN distance
    # compared with ``>`` passed, so the point moved to 1.0 or 2.0
    flow = cycle_flow([0.0, 1.0, 2.0])
    lay = Layout(x_dim=1, v_dim=0)
    for move in (flow.forward, flow.inverse):
        with pytest.raises(ConfigError, match="point is not on the cycle"):
            move(lay.point([np.nan]))


def test_cdf_map_uniform_is_rotation():
    f = cdf_map(lambda x: x, lambda u: u, shift=0.25)
    assert f(0.5) == pytest.approx(0.75)
    assert f(0.9) == pytest.approx(0.15)


def test_cdf_map_normal_value():
    from scipy.special import ndtri

    nc = normal_cdf1d()
    f = cdf_map(nc.cdf, nc.icdf, shift=0.3)
    assert f(0.0) == pytest.approx(float(ndtri(0.8)), abs=1e-12)


def test_cdf_map_clamps_boundaries():
    nc = normal_cdf1d()
    f = cdf_map(nc.cdf, nc.icdf, shift=1e-18)
    # the shift is so small the rotated CDF value would round to the input;
    # the clamp keeps the inverse finite even at extreme inputs
    assert np.isfinite(f(40.0))

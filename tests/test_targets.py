"""Target densities, gradients vs finite differences, datasets, AR(1)."""

import math

import numpy as np
import pytest

from imcmc.core import make_rng
from imcmc.errors import ConfigError, DensityError
from imcmc.targets import (
    GridDensity,
    LogisticPosterior,
    ar1_generate,
    bivariate_normal,
    exponential_cdf1d,
    gaussian,
    load_dataset,
    MOG2_MU1,
    MOG2_MU2,
    MOG2_VAR,
    mixture_1d,
    mog2,
    mog2_cell_masses,
    standard_normal,
)


def fd_grad(logpdf, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (logpdf(xp) - logpdf(xm)) / (2 * h)
    return g


@pytest.mark.parametrize("density,dim", [
    (standard_normal(3), 3),
    (gaussian([1.0, -2.0], [0.5, 2.0]), 2),
    (bivariate_normal(0.9), 2),
    (mog2(), 2),
    (mixture_1d([-1.5, 1.5], 0.6), 1),
])
def test_gradients_match_finite_differences(density, dim):
    rng = make_rng(10)
    for _ in range(50):
        x = 2.0 * rng.standard_normal(dim)
        g = density.grad(x)
        g_fd = fd_grad(density.logpdf, x)
        denom = max(1.0, float(np.max(np.abs(g))))
        assert np.max(np.abs(g - g_fd)) / denom < 1e-5


def test_mog2_value_at_mode():
    # at a mode the near component dominates; the far one adds exp(-16) of it
    m2 = mog2()
    expected = math.log(0.5 / math.pi) + math.log1p(math.exp(-16.0))
    assert m2.logpdf(np.array([2.0, 0.0])) == pytest.approx(expected, abs=1e-12)


def test_mog2_symmetry_and_gradient():
    m2 = mog2()
    rng = make_rng(11)
    for _ in range(20):
        a, b = rng.standard_normal(2)
        assert m2.logpdf(np.array([a, b])) == pytest.approx(
            m2.logpdf(np.array([-a, b])), abs=1e-12)
    assert m2.grad(np.array([0.0, 0.0]))[0] == pytest.approx(0.0, abs=1e-14)


def _mog2_in_floats(x):
    """mog2's log-density and gradient at one point as the two-component
    formula, written out in Python floats: log-weights, their log-sum-exp
    about the larger one, and the responsibility-weighted offsets."""
    const = -math.log(2.0 * math.pi) - math.log(MOG2_VAR) + math.log(0.5)
    offsets = [[float(xi) - float(mi) for xi, mi in zip(x, mu)] for mu in (MOG2_MU1, MOG2_MU2)]
    c = [const - 0.5 * (d[0] * d[0] + d[1] * d[1]) / MOG2_VAR for d in offsets]
    m = max(c)
    r = [math.exp(ci - m) for ci in c]
    z = r[0] + r[1]
    r = [ri / z for ri in r]
    (a1, b1), (a2, b2) = offsets
    return m + math.log(z), [(r[0] * -a1 + r[1] * -a2) / MOG2_VAR,
                             (r[0] * -b1 + r[1] * -b2) / MOG2_VAR]


def test_mog2_is_the_two_component_formula_in_floats_bitwise():
    rng = make_rng(12)
    # out to |x| = 40 the far component's weight is lost next to the near
    # one's, and at |x| = 100 it underflows to 0 (c1 - c2 = 8 x[0])
    points = [rng.uniform(-scale, scale, 2) for scale in (1.0, 4.0, 40.0) for _ in range(200)]
    points += [np.array(p) for p in ([100.0, 0.5], [-100.0, 0.0], [100.0, -3.0], [0.0, 100.0])]
    assert math.exp(-800.0) == 0.0
    for x in points:
        value, grad = _mog2_in_floats(x)
        # a fresh density per point, so no memo answers for the formula
        for got in (mog2().logpdf(x), mog2().value_and_grad(x)[0]):
            assert got.hex() == value.hex()
        for got in (mog2().grad(x), mog2().value_and_grad(x)[1]):
            assert [g.hex() for g in got.tolist()] == [g.hex() for g in grad]


def test_mixture_1d_logpdf_is_the_log_sum_of_its_components():
    means, sigma = [-1.5, 1.5], 0.6
    var = sigma * sigma
    const = math.log(0.5) - 0.5 * math.log(2.0 * math.pi * var)
    mu = np.asarray(means)

    def numpy_formula(a):
        # the numpy log-sum-exp this density computed before it took floats
        c = np.log(np.full(2, 0.5)) + -0.5 * math.log(2.0 * math.pi * var) \
            - 0.5 * (a - mu) * (a - mu) / var
        m = c.max()
        return float(m + np.log(np.exp(c - m).sum()))

    rng = make_rng(13)
    points = np.concatenate([rng.uniform(-s, s, 5000) for s in (1.0, 3.0, 10.0, 40.0)])
    density = mixture_1d(means, sigma)
    mismatches = 0
    for a in points.tolist():
        got = density.logpdf(np.array([a]))
        c = [const - 0.5 * (a - m) ** 2 / var for m in means]
        top = max(c)
        want = top + math.log(math.fsum(math.exp(ci - top) for ci in c))
        assert abs(got - want) <= 1e-15 * abs(want)
        mismatches += got != numpy_formula(a)
    # math.exp and math.log against numpy's own loops: a last-bit difference
    # at a few points, reported rather than pinned
    print(f"mixture_1d.logpdf differs from the numpy formula at "
          f"{mismatches} of {points.size} points")


@pytest.mark.parametrize("name", ["mog2", "mixture_1d", "mixture_1d_9"])
def test_value_only_logpdf_is_the_float_forms_value_bitwise(name):
    # a float-form density's logpdf skips the gradient but shares the
    # component maths, so it must give the float form's value bit for bit
    density = {"mog2": mog2, "mixture_1d": lambda: mixture_1d([-1.5, 1.5], 0.6),
               "mixture_1d_9": lambda: mixture_1d(np.linspace(-4.0, 4.0, 9), 0.6)}[name]()
    rng = make_rng(15)
    points = [scale * rng.standard_normal(density.dim)
              for scale in (0.5, 2.0, 8.0, 60.0) for _ in range(2600)]
    # far out a component's weight underflows, and at 1e200 the squares
    # overflow to inf and the value is NaN
    points += [np.full(density.dim, t) for t in (100.0, -100.0, 1e200, -1e200, 0.0)]
    assert len(points) >= 10000
    for x in points:
        want = density.floats(x.tolist())[0]
        assert density.logpdf.fn(x).hex() == want.hex()
        assert density.logpdf(x).hex() == want.hex()
    assert math.isnan(density.logpdf(np.full(density.dim, 1e200)))


@pytest.mark.parametrize("means", [[-1.5, 1.5], np.linspace(-4.0, 4.0, 9).tolist()],
                         ids=["2", "9"])
def test_mixture_1d_grad_is_the_responsibility_weighted_sum(means):
    sigma = 0.6
    var = sigma * sigma
    rng = make_rng(14)
    density = mixture_1d(means, sigma)
    for a in np.concatenate([rng.uniform(-s, s, 500) for s in (1.0, 5.0, 40.0)]).tolist():
        c = [-0.5 * (a - m) ** 2 / var for m in means]
        e = [math.exp(ci - max(c)) for ci in c]
        s = math.fsum(e)
        want = math.fsum(ei / s * -(a - m) / var for ei, m in zip(e, means))
        got = density.grad(np.array([a]))
        scale = max(abs(a - m) for m in means) / var
        assert got.shape == (1,) and abs(float(got[0]) - want) <= 1e-14 * scale
        assert abs(density.logpdf(np.array([a])) - (max(c) + math.log(s)
                   - 0.5 * math.log(2.0 * math.pi * var) - math.log(len(means)))) \
            <= 1e-14 * max(1.0, abs(max(c)))


def test_mog2_cell_masses_capture_bulk():
    edges = np.linspace(-5.0, 5.0, 21)
    masses = mog2_cell_masses(edges, edges)
    assert masses.shape == (20, 20)
    assert masses.sum() >= 0.999


def test_logreg_zero_data_is_prior():
    post = LogisticPosterior(np.empty((0, 2)), np.empty(0))
    theta = np.array([0.1, -0.2, 0.3])
    expected = (-0.5 * float(theta @ theta) / 0.1
                - 1.5 * math.log(2 * math.pi * 0.1))
    assert post.logpdf(theta) == pytest.approx(expected)


def test_logreg_single_point_at_origin():
    post = LogisticPosterior(np.array([[1.0, 2.0]]), np.array([1.0]))
    lik = post.logpdf(np.zeros(3)) - LogisticPosterior(
        np.empty((0, 2)), np.empty(0)).logpdf(np.zeros(3))
    assert lik == pytest.approx(math.log(0.5))


def test_logreg_gradient_and_dim_check():
    rng = make_rng(12)
    X = rng.standard_normal((10, 3))
    y = (rng.random(10) < 0.5).astype(float)
    post = LogisticPosterior(X, y)
    theta = rng.standard_normal(4)
    g = post.grad(theta)
    g_fd = fd_grad(post.logpdf, theta)
    assert np.max(np.abs(g - g_fd)) < 1e-5
    with pytest.raises(ConfigError):
        post.logpdf(np.zeros(3))


def test_logreg_grad_checks_the_parameter_length():
    post = LogisticPosterior(np.ones((5, 2)), np.array([0.0, 1.0, 1.0, 0.0, 1.0]))
    for method in (post.logpdf, post.grad, post.value_and_grad):
        for theta in (np.zeros(2), np.zeros(4), np.zeros((3, 4))):
            with pytest.raises(ConfigError, match="parameter must have 3 coordinates"):
                method(theta)


def _logreg_post(seed, n, p):
    """A logistic posterior on n rows: half the covariates normal, half 0/1."""
    rng = make_rng(seed)
    X = rng.standard_normal((n, p))
    X[:, p // 2:] = rng.random((n, p - p // 2)) < 0.5
    return LogisticPosterior(X, (rng.random(n) < 0.4).astype(float)), rng


@pytest.mark.parametrize("shape", [(), (7,), (2, 3)])
@pytest.mark.parametrize("scale", [0.3, 300.0])
def test_logreg_value_and_grad_equals_separate_passes_bitwise(shape, scale):
    post, rng = _logreg_post(14, 200, 6)
    theta = scale * rng.standard_normal((*shape, post.dim))
    value, g = post.value_and_grad(theta)
    assert np.shape(value) == shape and g.shape == theta.shape
    assert np.array_equal(value, post.logpdf(theta))
    assert np.array_equal(g, post.grad(theta))
    assert np.all(np.isfinite(value)) and np.all(np.isfinite(g))


def _log_sigmoid(z: float) -> float:
    return -math.log1p(math.exp(-z)) if z >= 0.0 else z - math.log1p(math.exp(z))


def _sigmoid(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-z)) if z >= 0.0 else math.exp(z) / (1.0 + math.exp(z))


def _exact_logreg(post, theta):
    """The log-density and gradient at one point from each row's logit and
    log-sigmoid in Python floats, every sum taken by `math.fsum`."""
    th = theta.tolist()
    w, b = th[:-1], th[-1]
    rows = post.X.tolist()
    terms, resid = [], []
    for x, y in zip(rows, post.y.tolist()):
        z = math.fsum([*(xj * wj for xj, wj in zip(x, w)), -b])
        terms.append(_log_sigmoid(z) if y == 1.0 else _log_sigmoid(-z))
        resid.append(y - _sigmoid(z))
    const = -0.5 * len(th) * math.log(2.0 * math.pi * post.prior_var)
    value = math.fsum([*terms, const, *(-0.5 * t * t / post.prior_var for t in th)])
    g = [math.fsum(r * x[j] for r, x in zip(resid, rows)) for j in range(len(w))]
    g.append(-math.fsum(resid))
    return value, np.array([gj - t / post.prior_var for gj, t in zip(g, th)])


def test_logreg_matches_an_exact_fsum_reference():
    post, rng = _logreg_post(15, 200, 6)
    underflowed = 0
    for i, scale in enumerate(np.geomspace(0.03, 300.0, 40)):
        rows = scale * rng.standard_normal((2, post.dim))
        u = post._logits(rows)
        underflowed += int((np.exp(-2.0 * np.abs(u)) == 0.0).any())
        value, g = post.value_and_grad(rows)
        assert np.all(np.isfinite(value)) and np.all(np.isfinite(g)), scale
        for theta, got_value, got_g in zip(rows, value, g):
            want_value, want_g = _exact_logreg(post, theta)
            assert abs(got_value - want_value) <= 1e-14 * abs(want_value), (i, scale)
            # relative to the gradient's largest coordinate: a coordinate
            # near zero is a difference of large sums
            assert (np.max(np.abs(got_g - want_g))
                    <= 1e-14 * np.max(np.abs(want_g))), (i, scale)
    # exp(-2|u|) underflows to 0 at the larger scales
    assert underflowed >= 4


def _write_csv(path, rows, header=None):
    lines = ([header] if header else []) + [",".join(str(v) for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def test_load_dataset_standardizes(tmp_path):
    rng = make_rng(13)
    rows = [[*rng.standard_normal(3) * 5 + 2, float(i % 2)] for i in range(40)]
    f = tmp_path / "toy.csv"
    _write_csv(f, rows, header="a,b,c,label")
    ds = load_dataset(f)
    assert ds.X.shape == (40, 3)
    assert np.max(np.abs(ds.X.mean(axis=0))) < 1e-12
    assert np.max(np.abs(ds.X.std(axis=0) - 1.0)) < 1e-12
    # deterministic and idempotent
    ds2 = load_dataset(f)
    assert np.array_equal(ds.X, ds2.X)


def test_load_dataset_known_shape_validation(tmp_path):
    rng = make_rng(14)
    f = tmp_path / "german.csv"
    rows = [[*rng.standard_normal(25), float(i % 2)] for i in range(1000)]
    _write_csv(f, rows)
    ds = load_dataset(f)
    assert ds.X.shape == (1000, 25)

    bad = tmp_path / "heart.csv"
    rows = [[*rng.standard_normal(5), float(i % 2)] for i in range(10)]
    _write_csv(bad, rows)
    with pytest.raises(DensityError, match="532 x 14"):
        load_dataset(bad)


def test_load_dataset_malformed_rows(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("1.0,2.0,0\n1.0,oops,1\n")
    with pytest.raises(DensityError, match="row 2"):
        load_dataset(f)
    g = tmp_path / "labels.csv"
    g.write_text("1.0,2.0,0\n3.0,1.0,2\n")
    with pytest.raises(DensityError, match="non-binary label at row 2"):
        load_dataset(g)


def test_ar1_properties():
    iid = ar1_generate(0.0, 100000, seed=5)
    r1 = float(np.corrcoef(iid[:-1], iid[1:])[0, 1])
    assert abs(r1) <= 0.02
    again = ar1_generate(0.0, 100000, seed=5)
    assert np.array_equal(iid, again)
    mid = ar1_generate(0.5, 200000, seed=6)
    r1 = float(np.corrcoef(mid[:-1], mid[1:])[0, 1])
    assert abs(r1 - 0.5) < 0.01
    with pytest.raises(ConfigError):
        ar1_generate(1.0, 10, seed=0)


def test_grid_density_lookup():
    g = GridDensity(np.array([0.0, 1.0]), np.log(np.array([0.7, 0.3])))
    assert g.logpdf(np.array([1.0])) == pytest.approx(math.log(0.3))
    assert g.logpdf(np.array([0.4])) == -math.inf
    assert np.allclose(g.pmf(), [0.7, 0.3])


def test_exponential_cdf_pair():
    c = exponential_cdf1d()
    for x in (0.1, 1.0, 3.0):
        assert c.icdf(c.cdf(x)) == pytest.approx(x, rel=1e-12)

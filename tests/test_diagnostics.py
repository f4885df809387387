"""Estimators and the exact matrix oracle machinery."""

import math

import numpy as np
import pytest

from imcmc.core import DeterministicKernel, Layout, make_rng, run_chain
from imcmc.diagnostics import (
    acceptance_rate,
    check_detailed_balance,
    check_stationary,
    ess_batch_means,
    grid_chi_square,
    marginal_matrix,
    moment_estimates,
    transition_matrix,
)
from imcmc.errors import DegenerateSeriesError, EnumerationError
from imcmc.maps import LeapfrogConfig
from imcmc.samplers import make_hamiltonian
from imcmc.targets import ar1_generate, mog2_cell_masses, standard_normal


def test_ess_iid_near_one():
    # the estimator has ~20% relative noise at this length; fixed draw
    x = make_rng(1).standard_normal(100000)
    rep = ess_batch_means(x)
    assert 0.8 <= rep.ess / 100000 <= 1.2
    assert rep.iact == pytest.approx(100000 / rep.ess)


def test_ess_ar1_matches_analytic_iact():
    s = ar1_generate(0.5, 100000, seed=1234)
    rep = ess_batch_means(s)
    assert abs(rep.ess / 100000 - 1 / 3) / (1 / 3) < 0.2


def test_ess_errors():
    with pytest.raises(DegenerateSeriesError):
        ess_batch_means(np.ones(1000))
    with pytest.raises(DegenerateSeriesError):
        ess_batch_means(np.arange(10.0))


def test_ess_equal_batch_means_is_degenerate():
    # a 100-step window of a two-state chain whose four batches of 21 steps
    # hold the same states: the series varies but the batch means do not
    window = np.tile(np.r_[np.zeros(10), np.ones(11)], 5)[:100]
    with pytest.raises(DegenerateSeriesError, match="equal batch means"):
        ess_batch_means(window)
    with pytest.raises(DegenerateSeriesError, match="dimension 1"):
        ess_batch_means(np.column_stack([np.arange(100.0), window]))


def test_ess_cube_length_uses_exact_batches():
    # n = 1000 is 10 batches of 100, each of them 50 zeros then 50 ones, so
    # every batch mean is 0.5; the float cube root gave 9 batches of 99
    series = np.tile(np.r_[np.zeros(50), np.ones(50)], 10)
    with pytest.raises(DegenerateSeriesError, match="equal batch means"):
        ess_batch_means(series)


def _float_batch_ess(series: np.ndarray) -> float:
    """The ESS with the batch geometry computed in floating point, as it was
    before the exact floors; the reference away from perfect cubes."""
    n = series.shape[0]
    m = int(n ** (2.0 / 3.0))
    n_batches = int(n ** (1.0 / 3.0))
    means = series[:m * n_batches].reshape(n_batches, m).mean(axis=1)
    return n / (m * float(np.var(means, ddof=1)) / float(np.var(series, ddof=1)))


def test_ess_matches_float_batches_off_cubes():
    from imcmc.diagnostics import _icbrt

    # the batch count and size, exact and in floating point
    for n in range(27, 10 ** 5 + 1):
        if round(n ** (1.0 / 3.0)) ** 3 != n:
            assert (_icbrt(n), _icbrt(n * n)) == (int(n ** (1.0 / 3.0)),
                                                  int(n ** (2.0 / 3.0))), n
    rng = make_rng(13)
    for n in (28, 100, 500, 999, 1001, 1350, 20000):
        series = rng.standard_normal(n).cumsum()
        assert ess_batch_means(series).ess == _float_batch_ess(series)


def test_ess_multivariate_takes_minimum():
    rng = make_rng(2)
    a = rng.standard_normal(50000)
    b = ar1_generate(0.9, 50000, seed=3)
    rep = ess_batch_means(np.column_stack([a, b]))
    assert rep.ess == pytest.approx(min(rep.per_dim))
    assert rep.per_dim[1] < rep.per_dim[0]


def test_ess_permutation_sensitive():
    s = ar1_generate(0.9, 100000, seed=7)
    rep = ess_batch_means(s)
    shuffled = s.copy()
    make_rng(8).shuffle(shuffled)
    rep2 = ess_batch_means(shuffled)
    assert rep2.ess > rep.ess  # shuffling destroys the autocorrelation


def test_ess_report_json_keys():
    rep = ess_batch_means(make_rng(4).standard_normal(5000), seconds=2.0,
                          accept_rate=0.5)
    js = rep.to_json()
    assert set(js) == {"ess", "iact", "ess_per_sec", "accept_rate", "n", "dims"}
    assert js["ess_per_sec"] == pytest.approx(js["ess"] / 2.0)


def test_acceptance_and_moments():
    assert acceptance_rate(np.ones(10, dtype=bool)) == 1.0
    with pytest.raises(DegenerateSeriesError):
        acceptance_rate(np.empty(0))
    with pytest.raises(DegenerateSeriesError):
        moment_estimates(np.empty((0, 2)))
    mean, cov = moment_estimates(np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert np.allclose(mean, [1.0, 2.0])


def test_hmc_moments_on_standard_normal():
    # trajectory time near pi/2 rotates x into v: fast radius mixing
    sn = standard_normal(2)
    hmc = make_hamiltonian(sn, LeapfrogConfig(0.3, 5))
    res = run_chain(hmc, hmc.layout.point([0.0, 0.0], [0.0, 0.0]), 100000, seed=9)
    mean, cov = moment_estimates(res.xs)
    assert np.max(np.abs(mean)) < 0.02
    assert np.max(np.abs(np.diag(cov) - 1.0)) < 0.05


def test_identity_kernel_matrix():
    lay = Layout(x_dim=1, v_dim=0)
    ident = DeterministicKernel(lay, lambda pt: pt, name="identity")
    states = [lay.point([float(i)]) for i in range(4)]
    T = transition_matrix(ident, states)
    assert np.array_equal(T, np.eye(4))
    p = np.full(4, 0.25)
    assert check_stationary(T, p).passed
    assert check_detailed_balance(T, p).passed


def test_transition_matrix_size_cap():
    lay = Layout(x_dim=1, v_dim=0)
    ident = DeterministicKernel(lay, lambda pt: pt)
    states = [lay.point([float(i)]) for i in range(70)]
    with pytest.raises(EnumerationError):
        transition_matrix(ident, states)
    T = transition_matrix(ident, states, max_states=80)
    assert T.shape == (70, 70)


def test_transition_matrix_detects_escapes():
    lay = Layout(x_dim=1, v_dim=0)
    drift = DeterministicKernel(lay, lambda pt: pt.with_x(pt.x + 1.0))
    states = [lay.point([float(i)]) for i in range(3)]
    with pytest.raises(EnumerationError):
        transition_matrix(drift, states)
    # a tag tuple that was never enumerated
    tagged = Layout(x_dim=1, v_dim=0, tags=("d",), tag_values={"d": (-1, 1)})
    flip = DeterministicKernel(tagged, lambda pt: pt.with_tag("d", -pt.tag("d")))
    with pytest.raises(EnumerationError):
        transition_matrix(flip, [tagged.point([float(i)], tags=(1,)) for i in range(3)])
    # a NaN coordinate is at no finite distance from any state
    to_nan = DeterministicKernel(lay, lambda pt: pt.with_x(np.array([math.nan])))
    with pytest.raises(EnumerationError):
        transition_matrix(to_nan, states)


def test_transition_matrix_ties_go_to_the_first_state():
    # x = 2^-31 is at distance 2^-31, within the lookup tolerance of 1e-9,
    # from both enumerated states, 0 and 2^-30: an exact tie
    lay = Layout(x_dim=1, v_dim=0)
    mid = 2.0 ** -31
    assert mid - 0.0 == 2.0 ** -30 - mid <= 1e-9
    to_mid = DeterministicKernel(lay, lambda pt: pt.with_x(np.array([mid])))
    for xs in ((0.0, 2.0 ** -30), (2.0 ** -30, 0.0)):
        T = transition_matrix(to_mid, [lay.point([x]) for x in xs])
        assert np.array_equal(T, [[1.0, 0.0], [1.0, 0.0]])


def test_check_stationary_flags_wrong_pmf():
    T = np.array([[0.5, 0.5], [1.0, 0.0]])
    good = np.array([2 / 3, 1 / 3])
    bad = np.array([0.5, 0.5])
    assert check_stationary(T, good).passed
    assert not check_stationary(T, bad).passed


def test_detailed_balance_symmetric_chain():
    T = np.array([[0.7, 0.3], [0.3, 0.7]])
    assert check_detailed_balance(T, np.array([0.5, 0.5])).passed


def test_marginal_matrix_weights():
    # lump a 4-state chain onto two groups with known conditional weights
    T = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.25, 0.25, 0.25, 0.25],
        [0.0, 0.0, 1.0, 0.0],
        [0.5, 0.0, 0.0, 0.5],
    ])
    w = np.array([0.1, 0.3, 0.4, 0.2])
    Tg, gw = marginal_matrix(T, w, [0, 0, 1, 1])
    assert gw == pytest.approx([0.4, 0.6])
    assert np.allclose(Tg.sum(axis=1), 1.0)
    expected_00 = (0.1 * 1.0 + 0.3 * 0.5) / 0.4
    assert Tg[0, 0] == pytest.approx(expected_00)


def test_grid_chi_square_accepts_exact_samples():
    rng = make_rng(11)
    comp = rng.random(100000) < 0.5
    xs = np.where(comp[:, None], [2.0, 0.0], [-2.0, 0.0]) \
        + np.sqrt(0.5) * rng.standard_normal((100000, 2))
    edges = np.linspace(-5, 5, 21)
    rep = grid_chi_square(xs, edges, edges, mog2_cell_masses(edges, edges))
    assert rep.passed


def test_grid_chi_square_rejects_wrong_distribution():
    rng = make_rng(12)
    xs = rng.standard_normal((100000, 2))  # unimodal, wrong by construction
    edges = np.linspace(-5, 5, 21)
    rep = grid_chi_square(xs, edges, edges, mog2_cell_masses(edges, edges))
    assert not rep.passed

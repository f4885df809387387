"""Builder-level behavior: per-sampler contracts beyond the matrix oracles."""

import math

import numpy as np
import pytest

from imcmc.cli import KINDS, RunConfig, build_kernel, build_target, kind_params
from imcmc.core import ImcmcKernel, Involution, LogDensity, make_rng, run_chain
from imcmc.diagnostics import check_stationary, stationary_pmf, transition_matrix
from imcmc.errors import ConfigError
from imcmc.maps import (CouplingMap, LeapfrogConfig, Metric, constant_metric, leapfrog,
                        leapfrog_flow)
from imcmc.samplers import (
    BlockConditional,
    LookAheadKernel,
    ModelSpace,
    _cascade_weights,
    _sorted_means,
    default_init,
    gaussian_family,
    grid_family,
    make_cdf_deterministic,
    make_embedded_flow,
    make_gibbs,
    make_hamiltonian,
    make_irr_mala,
    make_irr_nice_mc,
    make_lifted,
    make_lifted_rw1d,
    make_look_ahead,
    make_mh,
    make_multiple_try,
    make_sample_adaptive,
    make_transdimensional,
    mala_proposal,
    random_walk_proposal,
    sorted_mean,
    xv_layout,
)
from imcmc.suite import STATIONARY_TOL, finite_cases
from imcmc.targets import (
    GridDensity,
    bivariate_normal,
    exponential_cdf1d,
    mixture_1d,
    normal_cdf1d,
    standard_normal,
    uniform_cdf1d,
)


def test_mh_symmetric_proposal_at_equal_density():
    sn = standard_normal(1)
    kern = make_mh(sn, random_walk_proposal(1, 0.5))
    pt = kern.layout.point([0.7], [-0.7])  # p(x) = p(v), symmetric proposal
    prob, _ = kern.acceptance(pt)
    assert prob == 1.0


def test_mala_stationary_point_accepts():
    # proposing the mode from the mode: gradient terms vanish symmetrically
    sn = standard_normal(1)
    kern = make_mh(sn, mala_proposal(sn, 0.1))
    prob, _ = kern.acceptance(kern.layout.point([0.0], [0.0]))
    assert prob == pytest.approx(1.0, abs=1e-15)


def test_mala_requires_gradient():

    flat = LogDensity(dim=1, logpdf=lambda x: 0.0)
    with pytest.raises(ConfigError):
        mala_proposal(flat, 0.1)


def test_mtm_all_equal_weights_accepts():
    sn = standard_normal(1)
    kern = make_multiple_try(sn, gaussian_family(1, 1.0), k=3)
    # place every trial and reference point at spots with equal weight by
    # symmetry: x and all y equal means numerator and denominator match
    pt = kern.layout.point([0.5], [0.5, 0.5, 0.5, 0.5, 0.5], (1,))
    prob, _ = kern.acceptance(pt)
    assert prob == pytest.approx(1.0, abs=1e-12)


def test_mtm_zero_weight_proposals_rejected():

    # support only near zero: far-away trials carry zero weight
    def logpdf(x):
        return 0.0 if abs(x[0]) < 1.0 else -math.inf

    dens = LogDensity(dim=1, logpdf=logpdf)
    kern = make_multiple_try(dens, gaussian_family(1, 1.0), k=2)
    pt = kern.layout.point([0.0], [5.0, 6.0, 0.2], (0,))
    prob, _ = kern.acceptance(pt)
    assert prob == 0.0
    with pytest.raises(ConfigError):
        make_multiple_try(dens, gaussian_family(1, 1.0), k=0)


@pytest.mark.parametrize("d", [1, 2, 5, 24])
@pytest.mark.parametrize("unit", [True, False], ids=["var1", "var"])
def test_gaussian_family_rows_are_its_logpdf_row_by_row_bitwise(d, unit):
    rng = make_rng(d)
    fam = gaussian_family(d, 1.0 if unit else rng.uniform(0.2, 3.0, d))
    values = rng.standard_normal((6, d)) * 3.0
    centers = rng.standard_normal((6, d))
    # a block of values at one center (mtm's trial and reference slots), a
    # value at a block of centers (its trial weights), and row against row
    for vs, cs in ((values, centers[0]), (values[0], centers), (values, centers)):
        got = fam.logpdf_rows(vs, cs)
        want = [fam.logpdf(v, c) for v, c in zip(*np.broadcast_arrays(vs, cs))]
        assert [g.hex() for g in got] == [w.hex() for w in want]


@pytest.mark.parametrize("d", range(1, 10))
@pytest.mark.parametrize("unit", [True, False], ids=["var1", "var"])
def test_gaussian_family_logpdf_is_the_numpy_reduction_bitwise(d, unit):
    # below d = 8 the family sums in Python floats, from 8 on through numpy;
    # either way it gives the bits of the numpy formula it replaced
    rng = make_rng(100 + d)
    var = np.ones(d) if unit else rng.uniform(0.2, 3.0, d)
    fam = gaussian_family(d, 1.0 if unit else var)
    const = -0.5 * float(np.sum(np.log(2.0 * math.pi * var)))
    for _ in range(5000):
        value, center = (rng.standard_normal((2, d))
                         * 10.0 ** rng.uniform(-3.0, 3.0, (2, d)))
        diff = value - center
        terms = diff * diff if unit else diff * diff / var
        want = const - 0.5 * float(np.add.reduce(terms))
        assert fam.logpdf(value, center).hex() == want.hex()
    # a value or center of the wrong length is an error, not a shorter sum
    with pytest.raises(ValueError):
        fam.logpdf(np.zeros(d + 1), np.zeros(d))


def test_mtm_weighs_trials_by_q_of_the_current_point_given_each_trial():
    # q(u | c) on the grid {0, 1, 2} is not symmetric in u and c, so scoring
    # q(y_i | x) instead of q(x | y_i) gives other index weights
    vals = [np.array([float(i)]) for i in range(3)]
    fam = grid_family(vals, lambda u, c: math.log(1.0 + u[0] + 3.0 * u[0] * c[0]))
    x, ys = np.array([1.0]), np.array([[0.0], [2.0], [1.0]])
    got = fam.logpdf_rows(x, ys)
    assert got == [fam.logpdf(x, y) for y in ys]
    assert got != [fam.logpdf(y, x) for y in ys]


    lp = lambda y: -0.3 * float(y[0]) ** 2  # noqa: E731
    kern = make_multiple_try(LogDensity(dim=1, logpdf=lp), fam, k=3)
    pt = kern.layout.point(x, np.concatenate([ys.ravel(), [0.0, 2.0]]), (0,))
    j_cond = dict(kern.aux_refresh)["j"]
    probs = [p for _, p in j_cond.support(pt)]

    def normalized(logs):
        w = np.exp(np.array(logs) - max(logs))
        return (w / w.sum()).tolist()

    want = normalized([lp(y) + fam.logpdf(x, y) for y in ys])
    swapped = normalized([lp(y) + fam.logpdf(y, x) for y in ys])
    assert probs == pytest.approx(want, abs=1e-12)
    assert max(abs(a - b) for a, b in zip(want, swapped)) > 0.05


def _state(rng):
    """The generator's position: Philox's counter, key and buffer, as text."""
    return repr(rng.bit_generator.state)


def test_block_draws_are_the_row_by_row_draws_bitwise():
    # mtm draws its trials and reference points as one (n, d) block; on
    # Philox a block of normals is the row-by-row draws, bit for bit, and
    # leaves the generator where they would
    normals = 0
    for seed in range(40):
        for n, d in ((1, 1), (4, 2), (63, 2), (7, 5), (3, 9)):
            a, b = make_rng(seed), make_rng(seed)
            block = a.standard_normal((n, d))
            rows = np.array([b.standard_normal(d) for _ in range(n)])
            assert block.tobytes() == rows.tobytes()
            assert _state(a) == _state(b)
            assert a.random() == b.random()
            normals += block.size
    a, b = make_rng(99), make_rng(99)
    block = a.standard_normal((40000, 2))
    assert block.tobytes() == np.concatenate(
        [b.standard_normal(2) for _ in range(40000)]).tobytes()
    assert _state(a) == _state(b)
    normals += block.size
    assert normals >= 80000
    # and each family's block draw is its own draws row by row, as mtm's
    # slots took them one `sample` call at a time
    vals = [np.array([float(i)]) for i in range(3)]
    families = [(gaussian_family(1, 1.0), np.array([0.5])),
                (gaussian_family(2, 1.0), np.array([0.5, -1.0])),
                (gaussian_family(2, [0.3, 2.0]), np.array([0.5, -1.0])),
                (gaussian_family(9, 1.7), np.linspace(-1.0, 1.0, 9)),
                (grid_family(vals, lambda u, c: -abs(u[0] - c[0])), np.array([1.0]))]
    for fam, center in families:
        for seed in range(50):
            for n in (0, 1, 4):
                a, b = make_rng(seed), make_rng(seed)
                block = fam.sample_rows(a, center, n)
                assert block.shape == (n, center.size)
                rows = [fam.sample(b, center) for _ in range(n)]
                assert block.tobytes() == b"".join(r.tobytes() for r in rows)
                assert _state(a) == _state(b)


def test_mtm_with_one_trial_leaves_its_target_invariant():
    # at k = 1 the reference slot is empty and the swap exchanges x with
    # the one trial; q is not symmetric, so the index weights are not flat
    vals = [np.array([float(i)]) for i in range(3)]
    q = [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]]
    fam = grid_family(vals, lambda u, c: math.log(q[int(c[0])][int(u[0])]))
    g3 = GridDensity(np.array([0.0, 1.0, 2.0]), np.log(np.array([0.5, 0.3, 0.2])))
    kern = make_multiple_try(g3.density(), fam, k=1)
    assert kern.layout.v_dim == 1 and kern.layout.slots["xstar"] == slice(1, 1)
    states = [kern.layout.point([x], [y], (0,)) for x in (0.0, 1.0, 2.0)
              for y in (0.0, 1.0, 2.0)]
    T = transition_matrix(kern, states)
    p = stationary_pmf(states, lambda pt: g3.logpdf(pt.x) + fam.logpdf(pt.slot("y"), pt.x))
    assert check_stationary(T, p, STATIONARY_TOL).passed
    # the swap is an involution on the one-trial layout
    swap = kern.involution
    for pt in states:
        there, _ = swap.forward(pt)
        assert (there.x[0], there.v[0]) == (pt.v[0], pt.x[0])
        back, _ = swap.forward(there)
        assert back.x.tobytes() == pt.x.tobytes() and back.v.tobytes() == pt.v.tobytes()
    # a sampled chain on a continuous target runs too
    res = run_chain(make_multiple_try(standard_normal(1), gaussian_family(1, 1.0), k=1),
                    kern.layout.point([0.0], [0.0], (0,)), 500, seed=3)
    assert np.isfinite(res.xs).all() and 0.0 < res.accepted.mean() < 1.0


def test_mtm_with_the_most_trials_the_cli_allows_runs():
    tgt = build_target("mog2")
    kernel = build_kernel(RunConfig(kind="mtm", target="mog2",
                                    params={"scale": 1.0, "k": KINDS["mtm"].ranges["k"][1]}),
                          tgt)
    k = kernel.layout.tag_values["j"][-1] + 1
    assert k == 64 and kernel.layout.v_dim == (2 * k - 1) * 2
    res = run_chain(kernel, default_init(kernel, tgt["x0"]), 100, seed=4, record_tags=True)
    assert np.isfinite(res.xs).all() and np.isfinite(res.final.v).all()
    assert 0.0 < res.accepted.mean() < 1.0
    assert set(res.tags[:, 0].tolist()) <= set(range(k)) and len(set(res.tags[:, 0])) > 10


def test_mixture_proposal_differs_from_marginalized_mh():
    # collapsing the component index changes the kernel, not just its guts
    import math

    from imcmc.core import TagConditional
    from imcmc.diagnostics import (marginal_matrix, stationary_pmf,
                                   transition_matrix)
    from imcmc.samplers import make_mixture_proposal
    from imcmc.targets import GridDensity, grid_conditional

    g2 = GridDensity(np.array([0.0, 1.0]), np.log(np.array([0.6, 0.4])))
    vals = [np.array([0.0]), np.array([1.0])]
    pa = {0.0: np.array([0.7, 0.3]), 1.0: np.array([0.4, 0.6])}
    comp_rows = [np.array([0.8, 0.2]), np.array([0.25, 0.75])]
    idx = TagConditional((0, 1), lambda pt: pa[pt.x[0]], name="a")
    comp = grid_conditional(vals, lambda pt: comp_rows[pt.tag("a")])
    mp = make_mixture_proposal(g2.density(), idx, comp)
    st = [mp.layout.point([x], [v], (a,))
          for x in (0.0, 1.0) for v in (0.0, 1.0) for a in (0, 1)]
    p = stationary_pmf(st, lambda pt: g2.logpdf(pt.x)
                       + idx.logpdf(pt.tag("a"), pt) + comp.logpdf(pt.slot("v"), pt))
    Tx, _ = marginal_matrix(transition_matrix(mp, st), p,
                            [0, 0, 0, 0, 1, 1, 1, 1])

    def qbar(pt):
        w = pa[pt.x[0]]
        return w[0] * comp_rows[0] + w[1] * comp_rows[1]

    mh = make_mh(g2.density(), grid_conditional(vals, qbar))
    st_m = [mh.layout.point([x], [v]) for x in (0.0, 1.0) for v in (0.0, 1.0)]
    p_m = stationary_pmf(st_m, lambda pt: g2.logpdf(pt.x)
                         + math.log(qbar(pt)[int(pt.slot("v")[0])]))
    Tx_m, _ = marginal_matrix(transition_matrix(mh, st_m), p_m, [0, 0, 1, 1])
    assert np.max(np.abs(Tx - Tx_m)) > 0.01  # genuinely different chains


def test_sample_adaptive_identity_swap_accepts_exactly():
    # index N selects the proposal slot itself: the involution is identity
    sn = standard_normal(1)
    kern = make_sample_adaptive(sn, 2, gaussian_family(1, 1.0))
    pt = kern.layout.point([0.4, -0.1], [0.8], (2,))
    prob, proposal = kern.acceptance(pt)
    assert prob == 1.0
    assert np.array_equal(proposal.x, pt.x)


def test_sample_adaptive_acceptance_identically_one():
    sn = standard_normal(1)
    kern = make_sample_adaptive(sn, 2, gaussian_family(1, 1.0))
    res = run_chain(kern, kern.layout.point([0.1, -0.2], [0.0], (0,)),
                    10000, seed=7)
    assert res.accepted.all()
    assert res.accept_prob.min() >= 1.0 - 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 9])
def test_sorted_means_of_the_stacked_ensembles_are_each_ensembles_bits(d):
    # the reference is the loop the weighing ran before: one copy of the
    # ensemble per index, with the proposal in its place, and `sorted_mean`
    rng = make_rng(23)
    for N in range(1, 17):
        for trial in range(6):
            if trial % 2:
                S, prop = rng.standard_normal((N, d)), rng.standard_normal(d)
            else:
                # ties and both signed zeros
                S = rng.integers(-2, 3, size=(N, d)) * rng.choice([-1.0, 1.0], size=(N, d))
                prop = rng.integers(-2, 3, size=d) * rng.choice([-1.0, 1.0], size=d)
            want = []
            for i in range(N):
                S_i = S.copy()
                S_i[i] = prop
                want.append(sorted_mean(S_i))
            want.append(sorted_mean(S))
            assert _sorted_means(S, prop).tobytes() == np.array(want).tobytes(), (N, trial)


def test_gibbs_acceptance_identically_one_and_correlation():
    rho = 0.9
    bn = bivariate_normal(rho)
    s2 = 1.0 - rho * rho

    def cond(k):
        return BlockConditional(
            (k,),
            sample=lambda rng, x: np.array([rho * x[1 - k]
                                            + math.sqrt(s2) * rng.standard_normal()]),
            logpdf=lambda v, x: (-0.5 * (v[0] - rho * x[1 - k]) ** 2 / s2
                                 - 0.5 * math.log(2 * math.pi * s2)))

    sweep = make_gibbs(bn, [cond(0), cond(1)], scan="systematic")
    res = run_chain(sweep, sweep.layout.point([0.0, 0.0], [0.0]), 10000, seed=8)
    assert res.accepted.all()
    assert res.accept_prob.min() >= 1.0 - 1e-12

    long = run_chain(sweep, sweep.layout.point([0.0, 0.0], [0.0]), 100000, seed=9)
    corr = float(np.corrcoef(long.xs.T)[0, 1])
    assert abs(corr - rho) < 0.02


def test_random_scan_gibbs_chain_matches_the_table():
    """The random-scan Gibbs case that the exact oracle certifies on a 2x2
    table P, run as a sampled chain: its state frequencies match P."""
    case = next(c for c in finite_cases() if c.name == "gibbs_random_2x2")
    res = run_chain(case.kernel, case.states[0], 40000, seed=3)
    assert res.accepted.all()
    freq = [np.mean((res.xs[:, 0] == i) & (res.xs[:, 1] == j))
            for i in range(2) for j in range(2)]
    # each frequency's batch-means standard error is at most 0.005
    assert np.max(np.abs(np.subtract(freq, case.check_pmf))) < 0.02


def test_gibbs_block_size_mismatch():
    bn = bivariate_normal(0.5)
    b0 = BlockConditional((0,), lambda rng, x: np.zeros(1), lambda v, x: 0.0)
    b01 = BlockConditional((0, 1), lambda rng, x: np.zeros(2), lambda v, x: 0.0)
    with pytest.raises(ConfigError):
        make_gibbs(bn, [b0, b01])


def test_hamiltonian_high_acceptance_on_normal():
    sn = standard_normal(1)
    hmc = make_hamiltonian(sn, LeapfrogConfig(0.1, 10))
    res = run_chain(hmc, default_init(hmc, [0.0]), 10000, seed=10)
    assert res.accepted.mean() >= 0.98


def test_hamiltonian_requires_gradient():

    with pytest.raises(ConfigError):
        make_hamiltonian(LogDensity(dim=1, logpdf=lambda x: 0.0),
                         LeapfrogConfig(0.1, 1))


def test_rmhmc_constant_metric_matches_mass_scaled_hmc_trajectories():
    sn = standard_normal(2)
    c = 4.0
    rm = make_hamiltonian(sn, LeapfrogConfig(0.1, 5),
                          metric=constant_metric(c * np.eye(2)))
    x, v = np.array([0.4, -0.3]), np.array([1.0, 0.5])
    z1, _ = rm.involution.forward(rm.layout.point(x, v))
    xe, ve = leapfrog(x, v, LeapfrogConfig(0.1, 5), sn.grad, grad_v=lambda w: -w / c)
    assert np.max(np.abs(z1.x - xe)) <= 1e-10
    assert np.max(np.abs(z1.v + ve)) <= 1e-10


# the Riemannian kernel's default momentum N(0, G(x)) at a few positions:
# d = 1 with G = 1 + x^2 and its log-determinant given, and d = 2 with no
# ``g_logdet``, so that `Metric.logdet` takes its ``slogdet`` branch
METRIC_MOMENTA = {
    1: (Metric(g=lambda x: np.array([[1.0 + x[0] ** 2]]),
               g_logdet=lambda x: math.log1p(x[0] ** 2),
               g_grad=lambda x: np.array([[[2.0 * x[0]]]])),
        [[-1.5], [0.0], [0.7]]),
    2: (Metric(g=lambda x: np.array([[2.0 + 0.25 * x[0] ** 2, -0.3],
                                     [-0.3, 2.0 + 0.25 * x[1] ** 2]]),
               g_grad=lambda x: np.array([[[0.5 * x[0], 0.0], [0.0, 0.0]],
                                          [[0.0, 0.0], [0.0, 0.5 * x[1]]]])),
        [[1.0, 0.0], [-0.5, 1.2]]),
}


def _metric_momentum(d):
    metric, xs = METRIC_MOMENTA[d]
    kernel = make_hamiltonian(standard_normal(d), LeapfrogConfig(0.2, 3), metric=metric)
    (_, momentum), = kernel.aux_refresh
    return momentum, [kernel.layout.point(x, np.zeros(d)) for x in xs], metric.g


@pytest.mark.parametrize("d", sorted(METRIC_MOMENTA))
def test_metric_momentum_density_integrates_to_one(d):
    from scipy import integrate

    momentum, points, _ = _metric_momentum(d)
    for pt in points:
        total, _ = integrate.nquad(
            lambda *v: math.exp(momentum.logpdf(np.array(v), pt)),
            [(-np.inf, np.inf)] * d)
        assert abs(total - 1.0) < 1e-8, pt.x


@pytest.mark.parametrize("d", sorted(METRIC_MOMENTA))
def test_metric_momentum_draws_have_covariance_g(d):
    momentum, points, g = _metric_momentum(d)
    rng, n = make_rng(5), 20000
    for pt in points:
        draws = np.array([momentum.sample(rng, pt) for _ in range(n)])
        cov, want = np.cov(draws.T).reshape(d, d), g(pt.x)
        # within four standard errors of a normal sample's covariance entry
        se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want * want) / n)
        assert np.all(np.abs(cov - want) <= 4.0 * se), (pt.x, cov)


def test_neutra_affine_acceptance_matches_latent():
    # a flow matching the target scale makes the latent space standard normal
    from imcmc.maps import affine_x_flow
    from imcmc.targets import gaussian

    sigma = np.array([3.0, 0.5])
    target = gaussian([0.0, 0.0], sigma ** 2)
    flow = affine_x_flow([0.0, 0.0], sigma)
    cfg = LeapfrogConfig(0.2, 8)
    kern = make_embedded_flow(target, flow, cfg)

    latent = standard_normal(2)
    latent_kern = make_hamiltonian(latent, cfg)

    rng = make_rng(11)
    for _ in range(100):
        z = rng.standard_normal(2)
        v = rng.standard_normal(2)
        p_orig, _ = kern.acceptance(kern.layout.point(sigma * z, v))
        p_lat, _ = latent_kern.acceptance(latent_kern.layout.point(z, v))
        assert abs(p_orig - p_lat) <= 1e-10


def test_neutra_general_flow_needs_latent_gradient():
    sn = standard_normal(2)
    weird = CouplingMap([("add_x", lambda v: np.tanh(v))], name="weird")
    with pytest.raises(ConfigError):
        make_embedded_flow(sn, weird, LeapfrogConfig(0.1, 1))


def test_look_ahead_pi_values_match_direct_recursion():
    sn = standard_normal(1)
    cfg = LeapfrogConfig(0.35, 1)
    la = make_look_ahead(sn, cfg, 3, 1.0)
    cascade = la.kernels()[1]

    def joint(x, v):
        return sn.logpdf(np.array([x])) - 0.5 * v * v - 0.5 * math.log(2 * math.pi)

    def fl(x, v, k):
        xx, vv = np.array([x]), np.array([v])
        for _ in range(k):
            xx, vv = leapfrog(xx, vv, cfg, sn.grad)
        return float(xx[0]), -float(vv[0])

    def pi_direct(x, v, kmax):
        out = []
        for k in range(1, kmax + 1):
            xk, vk = fl(x, v, k)
            ratio = math.exp(joint(xk, vk) - joint(x, v))
            inner = 1.0 - sum(pi_direct(xk, vk, k - 1)) if k > 1 else 1.0
            out.append(min(1.0 - sum(out), ratio * inner))
        return out

    z = cascade.layout.point([0.9], [0.6])
    got = cascade.pis(z)
    want = pi_direct(0.9, 0.6, 3)
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-12
    assert sum(got) <= 1.0 + 1e-15


def test_look_ahead_pis_sum_below_one_everywhere():
    sn = standard_normal(1)
    la = make_look_ahead(sn, LeapfrogConfig(0.5, 1), 4, 1.0)
    cascade = la.kernels()[1]
    rng = make_rng(12)
    for _ in range(200):
        z = cascade.layout.point(rng.standard_normal(1), rng.standard_normal(1))
        assert sum(cascade.pis(z)) <= 1.0 + 1e-12


def test_look_ahead_reads_a_weight_rounded_below_zero_as_zero():
    """The recursion's rounding can leave a weight a hair below zero (here
    pi_7 of joint densities drawn at random); the branch draw reads it as
    zero instead of refusing the weights."""
    joints = [1.1455435714176743, -0.7423197570313439, 1.1524233475978123,
              0.28057336761091484, 0.20865754744440856, -0.15657806578739938,
              -1.513268240219566, 0.33441568423301254]
    assert min(_cascade_weights(joints)) < 0.0
    # flip after the unit drift (x, v) -> (x + v, v): from (0, 1) landing k
    # sits at x = k, where the joint density is joints[k]
    drift = Involution(lambda z: (z.with_x(z.x + z.v).with_v(-z.v), 0.0), name="drift")
    move = ImcmcKernel(xv_layout(1), lambda point: joints[round(point.x[0])],
                       involution=drift, name="move")

    def landings(z):
        while True:  # the drift's image of z, then of each landing's flip
            z, _ = drift.forward(z)
            yield z
            z = z.with_v(-z.v)

    cascade = LookAheadKernel(move, landings, len(joints) - 1, name="cascade")
    z = cascade.layout.point([0.0], [1.0])
    branches = cascade.enumerate_step(z)
    assert min(p for _, p in branches) > 0.0
    assert abs(math.fsum(p for _, p in branches) - 1.0) <= 1e-15
    rng = make_rng(3)
    assert {round(cascade.step(z, rng)[0].x[0]) for _ in range(200)} == {1, 2}


def _recursive_cascade_weights(joints):
    """The look-ahead weights as a memoised recursion over (start, direction),
    kept as the reference that `_cascade_weights`' table must match bit for bit."""
    memo = {}

    def weights(s, step, n):
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


def _random_joints(rng, K):
    """K + 1 joint densities: mostly normal draws, with some -inf entries,
    repeated values and differences far past the 50 clamp of the ratio."""
    joints = []
    for _ in range(K + 1):
        u = rng.random()
        if u < 0.05:
            joints.append(-math.inf)
        elif u < 0.15 and joints:
            joints.append(joints[int(rng.integers(len(joints)))])
        elif u < 0.25:
            joints.append(float(rng.uniform(-200.0, 200.0)))
        else:
            joints.append(float(rng.normal(0.0, 3.0)))
    return joints


def test_cascade_weights_table_matches_the_recursion_bitwise():
    rng = make_rng(34)
    cases = [[1.1455435714176743, -0.7423197570313439, 1.1524233475978123,
              0.28057336761091484, 0.20865754744440856, -0.15657806578739938,
              -1.513268240219566, 0.33441568423301254],
             [0.0] * 17, [-math.inf] * 5, [0.0, 100.0, -100.0, 100.0],
             # a running sum in place of the fsum of either cascade's prefix
             # moves a bit of these
             [0.664, -0.304, -1.178, -0.936, -0.664, 0.147, -0.05, 1.667],
             [0.506, 0.499, -1.691, -1.744, -0.89, -0.468, 0.305]]
    cases += [_random_joints(rng, K) for K in range(1, 17) for _ in range(150)]
    for joints in cases:
        got = [w.hex() for w in _cascade_weights(joints)]
        assert got == [w.hex() for w in _recursive_cascade_weights(joints)], joints


def test_lifted_requires_stochastic_base():
    bad = np.array([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(ConfigError):
        make_lifted(bad, [0.0, 1.0], np.log([0.5, 0.5]))


def test_lifted_rw1d_runs_and_is_directional():
    sn = standard_normal(1)
    kern = make_lifted_rw1d(sn, scale=0.7)
    res = run_chain(kern, default_init(kern, [0.0]), 20000, seed=13,
                    record_tags=True)
    assert abs(res.xs.mean()) < 0.1
    # accepted moves travel along the direction held when proposing
    move = np.diff(res.xs[:, 0])
    d_before = res.tags[:-1, 0]
    moved = move != 0.0
    assert np.all(np.sign(move[moved]) == d_before[moved])


def test_irr_mala_direction_tag_semantics():
    m = mixture_1d([-1.5, 1.5], 0.6)
    kern = make_irr_mala(m, 0.35)
    t1 = kern.kernels()[0]
    # gradients pointing the same way: the move proposes the opposite tag,
    # and the trailing flip restores it
    pt = t1.layout.point([1.0], [1.2], (1,))
    prop, _ = t1.involution.forward(pt)
    gx = m.grad(np.array([1.0]))[0]
    gv = m.grad(np.array([1.2]))[0]
    expected = -1 if gx * gv >= 0 else 1
    assert prop.tag("d") == expected


def test_irr_mala_bimodal_mode_balance():
    m = mixture_1d([-1.5, 1.5], 0.6)
    kern = make_irr_mala(m, 0.35)
    res = run_chain(kern, default_init(kern, [1.5]), 100000, seed=41)
    assert abs(float((res.xs[:, 0] > 0).mean()) - 0.5) < 0.02


def test_irr_nice_alpha_validation_and_default_layout():
    sn = standard_normal(2)
    from imcmc.maps import additive_coupling

    cmap = additive_coupling()
    kern = make_irr_nice_mc(sn, cmap, 0.8)
    assert "a" in kern.layout.slots  # partial refresh carries a scratch slot
    with pytest.raises(ConfigError):
        make_irr_nice_mc(sn, cmap, 1.5)


def test_transdimensional_equal_evidence_split():
    space = nested_gaussian_space()
    rj = make_transdimensional(space, mode="reversible")
    init = default_init(rj, np.zeros(2), tags={"k": 1, "j": 2})
    res = run_chain(rj, init, 100000, seed=14, record_tags=True)
    k_idx = rj.layout.tag_index("k")
    frac = float((res.tags[:, k_idx] == 1).mean())
    assert abs(frac - 0.5) < 0.02


def test_nrj_tau_one_is_rejected_and_tau_validated():
    space = nested_gaussian_space()
    with pytest.raises(ConfigError):
        make_transdimensional(space, mode="nonreversible", tau=1.0)
    with pytest.raises(ConfigError):
        make_transdimensional(space, mode="sideways")


def test_nrj_direction_flips_only_on_rejected_jumps():
    space = nested_gaussian_space()
    nrj = make_transdimensional(space, mode="nonreversible", tau=0.5)
    init = default_init(nrj, np.zeros(2), tags={"k": 1, "nu": 1, "m": 0})
    res = run_chain(nrj, init, 1000, seed=15, record_tags=True)
    k_m = nrj.layout.tag_index("m")
    k_nu = nrj.layout.tag_index("nu")
    nu_before = np.concatenate([[1], res.tags[:-1, k_nu]])
    move_accepted = res.accepted[:, 0]
    jumps = res.tags[:, k_m] == 1
    flips = res.tags[:, k_nu] != nu_before
    # every flip is a rejected jump; every rejected jump flips
    assert np.array_equal(flips, jumps & ~move_accepted)
    assert flips.any() and jumps.any()


def nested_gaussian_space() -> ModelSpace:
    def model1(y):
        return math.log(0.5) - 0.5 * y[0] ** 2 - 0.5 * math.log(2 * math.pi)

    def model2(y):
        v2 = 0.25
        return (math.log(0.5) - 0.5 * y[0] ** 2 - 0.5 * math.log(2 * math.pi)
                - 0.5 * y[1] ** 2 / v2 - 0.5 * math.log(2 * math.pi * v2))

    return ModelSpace(2, {1: LogDensity(1, model1), 2: LogDensity(2, model2)})


def test_cdf_kernel_orbit_statistics():
    from scipy.stats import kstest

    kern = make_cdf_deterministic(normal_cdf1d())
    res = run_chain(kern, kern.layout.point([0.0]), 100000, seed=0)
    assert res.accepted.all()
    ks = kstest(res.xs[:, 0], "norm")
    assert ks.pvalue > 0.01
    # irrational shift: no revisits over the whole orbit
    assert len(np.unique(res.xs[:, 0])) == 100000

    exp_kern = make_cdf_deterministic(exponential_cdf1d())
    res_e = run_chain(exp_kern, exp_kern.layout.point([1.0]), 100000, seed=0)
    assert abs(float(res_e.xs.mean()) - 1.0) < 0.02


def test_cdf_kernel_uniform_orbit_is_rotation():
    kern = make_cdf_deterministic(uniform_cdf1d(), shift=0.25)
    res = run_chain(kern, kern.layout.point([0.1]), 8, seed=0)
    expected = [(0.1 + 0.25 * (i + 1)) % 1.0 for i in range(8)]
    assert np.allclose(res.xs[:, 0], expected)


def test_cdf_kernel_requires_cdf():
    from imcmc.targets import Cdf1D

    broken = Cdf1D(cdf=None, icdf=None, density=standard_normal(1))
    with pytest.raises(ConfigError):
        make_cdf_deterministic(broken)


def test_sampler_spec_validation():
    kind_params("hmc", {"eps": 0.1, "k": 10})
    with pytest.raises(ConfigError):
        kind_params("hmc", {"eps": 0.1})
    with pytest.raises(ConfigError):
        kind_params("hmc", {"eps": -0.1, "k": 10})
    with pytest.raises(ConfigError):
        kind_params("warp_drive", {})
    assert "irr_nice_mc" in KINDS


# ---------------------------------------------------------------------------
# slot conditionals against the closures they were written as before they
# became proposal families seen from a point
# ---------------------------------------------------------------------------

def _reference_grid_logpmf(stacked, w, value):
    value = np.atleast_1d(np.asarray(value, dtype=float))
    hits = np.flatnonzero(np.abs(stacked - value).max(axis=1) <= 1e-9)
    if hits.size == 0:
        return -math.inf
    p = w[hits[0]]
    return math.log(p) if p > 0 else -math.inf


def _reference_gaussian_slot(dim, mean_fn, var, support_values=None):
    """(sample, logpdf, support) written out as closures over a mean."""
    var = np.broadcast_to(np.asarray(var, dtype=float), (dim,)).copy()
    const = -0.5 * float(np.sum(np.log(2.0 * math.pi * var)))
    if support_values is None:
        def sample(rng, point):
            return mean_fn(point) + np.sqrt(var) * rng.standard_normal(dim)

        def logpdf(value, point):
            d = np.asarray(value) - mean_fn(point)
            return const - 0.5 * float((d * d / var).sum())

        return sample, logpdf, lambda point: None

    vals = [np.atleast_1d(np.asarray(u, dtype=float)) for u in support_values]
    stacked = np.stack(vals)

    def weights(point):
        mu = mean_fn(point)
        logs = np.array([-0.5 * float(np.sum((u - mu) ** 2 / var)) for u in vals])
        w = np.exp(logs - logs.max())
        return w / w.sum()

    return (lambda rng, point: vals[rng.choice(len(vals), p=weights(point))],
            lambda value, point: _reference_grid_logpmf(stacked, weights(point), value),
            lambda point: list(zip(vals, weights(point).tolist())))


def _reference_grid_logpdf(vals, p, value):
    """The grid lookup as a loop over the candidate values: the first one
    nearest to ``value``, if it lies within 1e-9."""
    value = np.atleast_1d(np.asarray(value, dtype=float))
    best, best_d = None, math.inf
    for i, u in enumerate(vals):
        d = np.max(np.abs(u - value))
        if d < best_d:
            best, best_d = i, d
    if best is None or not best_d <= 1e-9:
        return -math.inf
    return -math.inf if p[best] <= 0.0 else math.log(p[best])


def _same_floats(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_conditional(cond, reference, points, values):
    sample, logpdf, support = reference
    for i, pt in enumerate(points):
        assert _same_floats(cond.sample(make_rng(i), pt), sample(make_rng(i), pt))
        for u in values:
            assert float(cond.logpdf(u, pt)).hex() == float(logpdf(u, pt)).hex()
        got, want = cond.support(pt), support(pt)
        if want is None:
            assert got is None
        else:
            assert len(got) == len(want)
            for (u, p), (uw, pw) in zip(got, want):
                assert _same_floats(u, uw) and float(p).hex() == float(pw).hex()


_GRID2 = [np.array([a, b]) for a in (-1.0, 0.0, 1.5) for b in (-0.5, 0.5)]


@pytest.mark.parametrize("var", [0.7, [0.5, 2.0]], ids=["scalar", "vector"])
@pytest.mark.parametrize("grid", [False, True], ids=["gaussian", "support"])
def test_gaussian_slot_conditional_is_bitwise_the_written_out_closures(var, grid):
    from imcmc.samplers import gaussian_slot_conditional, xv_layout

    lay = xv_layout(2)

    def mean(point):
        return 0.5 * point.x + np.array([0.1, -0.2])

    support = _GRID2 if grid else None
    cond = gaussian_slot_conditional(2, mean, var, name="q", support_values=support)
    ref = _reference_gaussian_slot(2, mean, var, support)
    points = [lay.point(x, [0.0, 0.0]) for x in ([0.0, 0.0], [1.3, -0.4], [-2.0, 0.9])]
    values = _GRID2 + [np.array([0.25, -0.75]), np.array([1.5, 0.5 + 1e-12])]
    _assert_same_conditional(cond, ref, points, values)


@pytest.mark.parametrize("grid", [False, True], ids=["gaussian", "support"])
def test_mala_proposal_is_bitwise_the_written_out_closures(grid):
    from imcmc.samplers import xv_layout

    target, eps = bivariate_normal(0.6), 0.3
    support = _GRID2 if grid else None
    cond = mala_proposal(target, eps, support_values=support)
    ref = _reference_gaussian_slot(2, lambda pt: pt.x + eps * target.grad(pt.x),
                                   2.0 * eps, support)
    lay = xv_layout(2)
    points = [lay.point(x, [0.0, 0.0]) for x in ([0.0, 0.0], [1.5, -0.5], [-1.0, 0.5])]
    values = _GRID2 + [np.array([0.3, 0.3])]
    _assert_same_conditional(cond, ref, points, values)


def test_grid_conditional_logpdf_is_bitwise_the_loop():
    from imcmc.samplers import xv_layout
    from imcmc.targets import grid_conditional

    # the second candidate duplicates the first, and the fourth lies 1e-10
    # from the third
    vals = [np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([2.0, -1.0]),
            np.array([2.0, -1.0 + 1e-10]), np.array([3.0, 3.0])]
    p = np.array([0.1, 0.2, 0.0, 0.3, 0.4])
    cond = grid_conditional(vals, lambda pt: p)
    pt = xv_layout(2).point([0.0, 0.0], [0.0, 0.0])
    on_grid = vals + [np.array([3.0, 3.0 + 5e-10])]
    off_grid = [np.array([0.0, 1.0 + 1e-8]), np.array([1.0, 1.0]), np.array([-3.0, 3.0])]
    for u in on_grid + off_grid:
        assert float(cond.logpdf(u, pt)).hex() == float(_reference_grid_logpdf(vals, p, u)).hex()
    assert cond.logpdf(vals[1], pt) == math.log(0.1)         # first tie wins
    assert cond.logpdf(vals[2], pt) == -math.inf             # zero probability
    assert cond.logpdf(vals[3], pt) == math.log(0.3)         # nearest is itself
    assert cond.logpdf(off_grid[1], pt) == -math.inf


def test_grid_conditional_nan_probability_scores_nan():
    from imcmc.samplers import xv_layout
    from imcmc.targets import grid_conditional

    vals = [np.array([0.0]), np.array([1.0])]
    cond = grid_conditional(vals, lambda pt: np.array([math.nan, 1.0]))
    pt = xv_layout(1).point([0.0], [0.0])
    assert math.isnan(cond.logpdf(np.array([0.0]), pt))
    assert cond.logpdf(np.array([1.0]), pt) == 0.0


def _skewed_harmonic_momentum():
    """The harmonic grid with a symmetric but non-Gaussian momentum law."""
    from imcmc.suite import _harmonic_grid
    from imcmc.targets import grid_conditional

    X, V, xgrid, _, _ = _harmonic_grid()
    q = np.array([0.2, 0.6, 0.2])
    mom = grid_conditional(V, lambda pt: q)

    def joint(pt, tag_factor=0.0):
        v = pt.slot("v")[0]
        return (xgrid.logpdf(pt.x) + tag_factor
                + math.log(q[[abs(u[0] - v) <= 1e-9 for u in V].index(True)]))

    return X, V, xgrid, mom, joint


def _persistent_family_with(mom, xgrid):
    from imcmc.maps import hmc_involution
    from imcmc.samplers import make_persistent

    cfg = LeapfrogConfig(math.sqrt(2.0), 1)
    dens = xgrid.density()
    L = leapfrog_flow(cfg, xgrid.grad)
    return {
        "persistent_direction_tag": (make_persistent(dens, L, 1.0, momentum_cond=mom), True),
        "persistent_momentum_flip": (
            make_persistent(dens, hmc_involution(cfg, xgrid.grad), 1.0,
                            momentum_cond=mom), False),
        "irr_nice_mc": (make_irr_nice_mc(dens, L, 1.0, momentum_cond=mom), True),
        "look_ahead_k3": (make_look_ahead(dens, cfg, 3, 1.0, momentum_cond=mom), False),
    }


@pytest.mark.parametrize("name", ["persistent_direction_tag", "persistent_momentum_flip",
                                  "irr_nice_mc", "look_ahead_k3"])
def test_persistent_compositions_keep_a_non_gaussian_momentum_law(name):
    """Refresh, move and flip must all score v with the given momentum law,
    so the exact matrix fixes p(x) q(v) (and 1/2 for a direction tag)."""
    from imcmc.diagnostics import check_stationary, stationary_pmf, transition_matrix
    from imcmc.suite import STATIONARY_TOL

    X, V, xgrid, mom, joint = _skewed_harmonic_momentum()
    kern, tagged = _persistent_family_with(mom, xgrid)[name]
    if tagged:
        states = [kern.layout.point(x, v, (d,)) for x in X for v in V for d in (-1, 1)]
        p = stationary_pmf(states, lambda pt: joint(pt, math.log(0.5)))
    else:
        states = [kern.layout.point(x, v) for x in X for v in V]
        p = stationary_pmf(states, joint)
    rep = check_stationary(transition_matrix(kern, states), p, STATIONARY_TOL)
    assert rep.passed, f"{name}: ||pT - p|| = {rep.residual:.3e}"


def test_persistent_with_explicit_standard_normal_momentum_is_the_default():
    """Passing N(0, I) as the momentum law changes nothing, partial refresh
    included."""
    from imcmc.samplers import make_persistent, normal_momentum

    sn = standard_normal(2)
    L = leapfrog_flow(LeapfrogConfig(0.2, 3), sn.grad)
    runs = []
    for kwargs in ({}, {"momentum_cond": normal_momentum(2)}):
        kern = make_persistent(sn, L, 0.5, **kwargs)
        res = run_chain(kern, default_init(kern, [0.5, -0.3]), 300, seed=17)
        runs.append(res)
    a, b = runs
    assert a.xs.tobytes() == b.xs.tobytes()
    assert a.accepted.tobytes() == b.accepted.tobytes()
    assert a.accept_prob.tobytes() == b.accept_prob.tobytes()
    assert a.final.v.tobytes() == b.final.v.tobytes()


def test_persistent_takes_its_form_from_the_map():
    """An involution gives the momentum-flip form, a flow map the
    direction-tag one, and anything else is refused.  An involution with
    the old default form crashed at the first step after a rejection."""
    from imcmc.maps import hmc_involution
    from imcmc.samplers import make_persistent

    sn = standard_normal(1)
    cfg = LeapfrogConfig(1.9, 3)
    flip = make_persistent(sn, hmc_involution(cfg, sn.grad), 1.0)
    tag = make_persistent(sn, leapfrog_flow(cfg, sn.grad), 1.0)
    assert flip.layout.tags == () and tag.layout.tags == ("d",)
    assert [k.name for k in flip.kernels()] == [
        "refresh", "persistent_move", "persistent_flip"]
    res = run_chain(flip, default_init(flip, [0.5]), 200, seed=3)
    moves = res.accepted[:, 1]
    assert 0 < moves.sum() < moves.size and np.all(np.isfinite(res.xs))
    for T in (cfg, sn.grad, None):
        with pytest.raises(ConfigError, match="needs a FlowMap or an Involution"):
            make_persistent(sn, T, 1.0)


def test_persistent_rmhmc_runs_with_a_partial_refresh():
    """Persistent RMHMC on G = 1 + x^2 with half the momentum refreshed: the
    layout carries the scratch slot "a" beside "v", and the implicit
    involution integrates the slot "v" alone."""
    from imcmc.core import random_points, verify_involution, verify_jacobian
    from imcmc.maps import RiemannianHamiltonian, implicit_hmc_involution
    from imcmc.samplers import make_persistent

    sn = standard_normal(1)
    curved = Metric(g=lambda x: np.array([[1.0 + x[0] ** 2]]),
                    g_grad=lambda x: np.array([[[2.0 * x[0]]]]),
                    g_logdet=lambda x: math.log1p(x[0] ** 2))
    ham = RiemannianHamiltonian(sn.logpdf, sn.grad, curved)
    kern = make_persistent(sn, implicit_hmc_involution(LeapfrogConfig(0.1, 3), ham), 0.5)
    move = kern.kernels()[1]
    assert kern.layout.slots == {"v": slice(0, 1), "a": slice(1, 2)}
    res = run_chain(kern, default_init(kern, [0.4]), 300, seed=8)
    moves = res.accepted[:, 1]
    assert 0 < moves.sum() and np.all(np.isfinite(res.xs))
    points = random_points(kern.layout, 50, make_rng(12))
    assert verify_involution(move.involution, points).passed
    for pt in points:
        assert verify_jacobian(move.involution, pt, tol=1e-5).passed

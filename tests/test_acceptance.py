"""Acceptance gate: one test per shipped correctness claim.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion; each test also prints an explicit summary line.  Tolerances are
pinned here and nowhere else.
"""

import itertools
import math
import time

import numpy as np
from scipy.stats import kstest

from imcmc.batch import (
    batch_irr_mala,
    batch_irr_nice_mc,
    batch_mala,
    logreg_batch,
    mog2_batch,
)
from imcmc.cli import default_coupling
from imcmc.core import make_rng, run_chain
from imcmc.diagnostics import ess_batch_means, grid_chi_square
from imcmc.maps import (
    LeapfrogConfig,
    RiemannianHamiltonian,
    constant_metric,
    hmc_involution,
    implicit_hmc_involution,
    implicit_leapfrog,
    leapfrog,
)
from imcmc.samplers import (
    BlockConditional,
    Model,
    ModelSpace,
    default_init,
    gaussian_family,
    make_cdf_deterministic,
    make_gibbs,
    make_hamiltonian,
    make_sample_adaptive,
    make_transdimensional,
    momentum_refresh_kernel,
    xv_layout,
)
from imcmc.suite import (
    finite_cases,
    run_balance,
    run_involutions,
    run_reductions,
    run_stationarity,
)
from imcmc.targets import (
    LogisticPosterior,
    bivariate_normal,
    exponential_cdf1d,
    mog2,
    mog2_cell_masses,
    normal_cdf1d,
    standard_normal,
)

GUARANTEED_ACCEPTANCE_MIN = 1.0 - 1e-12


def report(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_involution_suite():
    t0 = time.perf_counter()
    results = run_involutions()
    elapsed = time.perf_counter() - t0
    names = {r.case for r in results}
    required = {"swap", "flip", "hmc_explicit_normal", "hmc_implicit_metric",
                "direction_additive_coupling", "direction_affine_coupling",
                "embedded_affine_hmc", "irr_mala_map"}
    ok = required <= names and all(r.passed for r in results) and elapsed < 10.0
    worst = max(r.value for r in results if r.check == "involution")
    report("criterion 1 (involution suite)", ok,
           f"{len(results)} checks on 100 points each, worst displacement "
           f"{worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_stationarity_oracle():
    results = run_stationarity()
    builders = {r.case for r in results}
    required = {"mh_2state_metropolis", "mh_2state_barker", "mala_grid",
                "mixture_proposal_2x2", "mtm_2state_k2", "sample_adaptive_3state",
                "sample_adaptive_generalized", "hmc_grid", "rmhmc_grid",
                "neutra_identity_grid", "neutra_affine_grid", "directional_map_grid",
                "persistent_hmc_grid", "look_ahead_grid", "irr_nice_mc_grid",
                "irr_mala_grid", "gibbs_systematic_2x2", "gibbs_random_2x2",
                "lifted_3state", "rjmcmc_bits", "nrj_bits", "cdf_rotation"}
    ok = required <= builders and all(r.passed for r in results)
    mutant = [r for r in results if r.case == "mutant_mh"][0]
    report("criterion 2 (stationarity oracle)", ok and mutant.passed,
           f"{len(results) - 1} finite analogs at 1e-12; mutant residual "
           f"{mutant.value:.2e} correctly fails")


def test_criterion_03_detailed_balance():
    results = run_balance()
    by_case: dict = {}
    for r in results:
        by_case.setdefault(r.case, {})[r.check] = r
    singles = [c for c in finite_cases() if c.single]
    rev_ok = all(by_case[c.name]["joint-reversibility"].passed
                 and by_case[c.name]["marginal-reversibility"].passed
                 for c in singles)
    required_irrev = ("irr_mala_grid", "irr_nice_mc_grid", "persistent_hmc_grid",
                      "gibbs_systematic_2x2", "lifted_3state", "nrj_bits")
    irrev_ok = all(by_case[name]["irreversibility"].passed
                   and by_case[name]["stationary-while-irrev"].passed
                   for name in required_irrev)
    report("criterion 3 (detailed balance)", rev_ok and irrev_ok,
           f"{len(singles)} single kernels reversible at 1e-12; "
           f"{len(required_irrev)} compositions violate balance above 1e-6 "
           f"while stationary")


def test_criterion_04_reduction_identities():
    results = {r.case: r for r in run_reductions()}
    required = ("mtm_k1_equals_mh", "look_ahead_k1_equals_persistent",
                "neutra_identity_equals_hmc", "lifted_constant_eta_equals_base")
    ok = all(results[name].passed for name in required)
    worst = max(results[name].value for name in required)
    report("criterion 4 (reduction identities)", ok,
           f"four exact-matrix equalities, worst difference {worst:.2e} <= 1e-12")


def test_criterion_05_guaranteed_acceptance():
    sn = standard_normal(1)
    sa = make_sample_adaptive(sn, 2, gaussian_family(1, 1.0))
    res_sa = run_chain(sa, sa.layout.point([0.1, -0.2], [0.0], (0,)), 10000, seed=7)

    rho, s2 = 0.9, 1.0 - 0.81
    bn = bivariate_normal(rho)

    def cond(k):
        return BlockConditional(
            (k,),
            sample=lambda rng, x: np.array([rho * x[1 - k]
                                            + math.sqrt(s2) * rng.standard_normal()]),
            logpdf=lambda v, x: (-0.5 * (v[0] - rho * x[1 - k]) ** 2 / s2
                                 - 0.5 * math.log(2 * math.pi * s2)))

    gibbs = make_gibbs(bn, [cond(0), cond(1)], scan="systematic")
    res_g = run_chain(gibbs, gibbs.layout.point([0.0, 0.0], [0.0]), 10000, seed=8)

    layout = xv_layout(1, scratch=True)
    refresh = momentum_refresh_kernel(layout, 0.8)
    rng = make_rng(11)
    pt = layout.point([0.3], [0.5, 0.0])
    probs = []
    for _ in range(10000):
        out = refresh.step(pt, rng)
        probs.append(out.prob)
        pt = out.point
    min_refresh = min(probs)

    mins = (float(res_sa.accept_prob.min()), float(res_g.accept_prob.min()),
            min_refresh)
    ok = (res_sa.accepted.all() and res_g.accepted.all()
          and all(m >= GUARANTEED_ACCEPTANCE_MIN for m in mins))
    report("criterion 5 (guaranteed acceptance)", ok,
           f"10^4 steps each; smallest probabilities {[f'{m:.15f}' for m in mins]}")


def test_criterion_06_integrator_quality():
    sn = standard_normal(1)

    def H(x, v):
        return 0.5 * float(x @ x) + 0.5 * float(v @ v)

    x, v = np.array([0.0]), np.array([1.0])
    d1 = abs(H(*leapfrog(x, v, LeapfrogConfig(0.1, 10), sn.grad)) - H(x, v))
    d2 = abs(H(*leapfrog(x, v, LeapfrogConfig(0.05, 20), sn.grad)) - H(x, v))
    ratio = d1 / d2

    c = 2.0
    ham = RiemannianHamiltonian(sn.logpdf, sn.grad, constant_metric(np.array([[c]])))
    xi, vi = implicit_leapfrog(x, v, LeapfrogConfig(0.1, 7), ham)
    xe, ve = leapfrog(x, v, LeapfrogConfig(0.1, 7), sn.grad, grad_v=lambda w: -w / c)
    agree = float(np.max(np.abs(np.concatenate([xi - xe, vi - ve]))))

    from imcmc.core import Layout, verify_jacobian

    lay = Layout(x_dim=1, v_dim=1, slots={"v": slice(0, 1)})
    pt = lay.point([0.7], [-0.4])
    jac_exp = verify_jacobian(hmc_involution(LeapfrogConfig(0.1, 5), sn.grad),
                              pt, tol=1e-6)
    met_ham = RiemannianHamiltonian(sn.logpdf, sn.grad,
                                    constant_metric(np.array([[1.5]])))
    jac_imp = verify_jacobian(implicit_hmc_involution(LeapfrogConfig(0.1, 3), met_ham),
                              pt, tol=1e-6)

    ok = 3.0 <= ratio <= 5.0 and agree <= 1e-10 and jac_exp.passed and jac_imp.passed
    report("criterion 6 (integrator quality)", ok,
           f"energy ratio {ratio:.2f} in [3,5]; implicit-explicit gap {agree:.1e} "
           f"<= 1e-10; |det J|=1 errors {jac_exp.abs_error:.1e}/{jac_imp.abs_error:.1e} "
           f"<= 1e-6")


def test_criterion_07_ess_estimator():
    from imcmc.targets import ar1_generate

    t0 = time.perf_counter()
    errs = {}
    for rho in (0.0, 0.5, 0.9):
        series = ar1_generate(rho, 100000, seed=1234)
        rep = ess_batch_means(series)
        target = (1.0 - rho) / (1.0 + rho)
        errs[rho] = abs(rep.ess / 100000 - target) / target
    elapsed = time.perf_counter() - t0
    ok = all(e < 0.2 for e in errs.values()) and elapsed < 5.0
    report("criterion 7 (ESS estimator)", ok,
           f"relative errors {{0: {errs[0.0]:.3f}, 0.5: {errs[0.5]:.3f}, "
           f"0.9: {errs[0.9]:.3f}}} < 0.2, {elapsed:.2f}s")


def test_criterion_08_statistical_correctness():
    edges = np.linspace(-5.0, 5.0, 21)
    masses = mog2_cell_masses(edges, edges)

    hmc = make_hamiltonian(mog2(), LeapfrogConfig(0.3, 16))
    res_h = run_chain(hmc, default_init(hmc, [2.0, 0.0]), 100000, seed=2)
    gof_h = grid_chi_square(res_h.xs, edges, edges, masses)
    w_h = float((res_h.xs[:, 0] > 0).mean())

    res_n = batch_irr_nice_mc(mog2_batch(), default_coupling("mog2", 2), 0.8, 1, 100000,
                              make_rng(21), np.array([2.0, 0.0]))
    xs_n = res_n.xs[:, 0, :]
    gof_n = grid_chi_square(xs_n, edges, edges, masses)
    w_n = float((xs_n[:, 0] > 0).mean())

    # ten-point logistic posterior: a long Hamiltonian chain and both
    # gradient walks against its exact mean
    rng = np.random.default_rng(3)
    Xd = rng.standard_normal((10, 2))
    logits = Xd @ np.array([1.0, -0.5]) - 0.2
    yd = (rng.random(10) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
    post = LogisticPosterior(Xd, yd)
    mu = _posterior_mean_by_quadrature(post, 20)
    assert np.max(np.abs(mu - _posterior_mean_by_quadrature(post, 30))) < 1e-9

    def zmax_of(xs):
        se = xs.std(axis=0) / math.sqrt(ess_batch_means(xs).ess)
        return float((np.abs(xs.mean(axis=0) - mu) / se).max())

    zmax = {}
    hmc_lr = make_hamiltonian(post.density(), LeapfrogConfig(0.25, 10))
    zmax["hmc"] = zmax_of(run_chain(hmc_lr, default_init(hmc_lr, np.zeros(3)), 150000,
                                    seed=100).xs)
    pb = logreg_batch(post)
    for name, runner, seed in (("mala", batch_mala, 31), ("irr_mala", batch_irr_mala, 32)):
        res = runner(pb, 0.02, 1, 100000, make_rng(seed), np.zeros(3))
        zmax[name] = zmax_of(res.xs[:, 0, :])

    ok = (gof_h.passed and gof_n.passed
          and abs(w_h - 0.5) < 0.02 and abs(w_n - 0.5) < 0.02
          and all(z < 3.0 for z in zmax.values()))
    report("criterion 8 (statistical correctness)", ok,
           f"chi2 HMC {gof_h.statistic:.0f}<{gof_h.critical:.0f}, "
           f"IrrNICE {gof_n.statistic:.0f}<{gof_n.critical:.0f}; mode weights "
           f"{w_h:.3f}/{w_n:.3f} in 0.5+-0.02; posterior-mean z against the exact "
           f"mean {zmax['hmc']:.2f}/{zmax['mala']:.2f}/{zmax['irr_mala']:.2f} < 3")


def _posterior_mean_by_quadrature(post: LogisticPosterior, nodes: int) -> np.ndarray:
    """The posterior mean by Gauss-Hermite quadrature around the Laplace
    mode (Naylor & Smith 1982).

    Newton's method finds the mode; the Cholesky factor L of the inverse
    Hessian there maps a product rule of ``nodes`` points per axis onto
    theta = mode + sqrt(2) L t, and each node is weighed by the posterior
    over the Laplace Gaussian, exp(logpdf(theta) + |t|^2).  The log-density
    is taken at all nodes in one call on rows.  On criterion 8's ten-point
    posterior, 20 nodes per axis agree with 60 to 2e-12.
    """
    A = np.column_stack([post.X, -np.ones(post.X.shape[0])])
    mode = np.zeros(post.dim)
    for _ in range(100):
        s = 1.0 / (1.0 + np.exp(-(A @ mode)))
        hess = (A.T * (s * (1.0 - s))) @ A + np.eye(post.dim) / post.prior_var
        step = np.linalg.solve(hess, post.grad(mode))
        mode = mode + step
        if np.max(np.abs(step)) < 1e-14:
            break
    L = np.linalg.cholesky(np.linalg.inv(hess))
    t, w = np.polynomial.hermite.hermgauss(nodes)
    T = np.array(list(itertools.product(t, repeat=post.dim)))
    log_w = np.log(np.array(list(itertools.product(w, repeat=post.dim)))).sum(axis=1)
    rows = mode + math.sqrt(2.0) * T @ L.T
    lw = post.logpdf(rows) + (T * T).sum(axis=1) + log_w
    p = np.exp(lw - lw.max())
    return p @ rows / p.sum()


def _nested_gaussians() -> ModelSpace:
    def model1(y):
        return math.log(0.5) - 0.5 * y[0] ** 2 - 0.5 * math.log(2 * math.pi)

    def model2(y):
        v2 = 0.25
        return (math.log(0.5) - 0.5 * y[0] ** 2 - 0.5 * math.log(2 * math.pi)
                - 0.5 * y[1] ** 2 / v2 - 0.5 * math.log(2 * math.pi * v2))

    return ModelSpace(2, {1: Model(1, model1), 2: Model(2, model2)})


def test_criterion_09_transdimensional():
    space = _nested_gaussians()
    rj = make_transdimensional(space, mode="reversible")
    res_rj = run_chain(rj, default_init(rj, np.zeros(2), tags={"k": 1, "j": 2}),
                       100000, seed=14, record_tags=True)
    f_rj = float((res_rj.tags[:, rj.layout.tag_index("k")] == 1).mean())

    nrj = make_transdimensional(space, mode="nonreversible", tau=0.5)
    res_nrj = run_chain(nrj, default_init(nrj, np.zeros(2),
                                          tags={"k": 1, "nu": 1, "m": 0}),
                        100000, seed=15, record_tags=True)
    f_nrj = float((res_nrj.tags[:, nrj.layout.tag_index("k")] == 1).mean())

    short = run_chain(nrj, default_init(nrj, np.zeros(2),
                                        tags={"k": 1, "nu": 1, "m": 0}),
                      1000, seed=16, record_tags=True)
    k_m, k_nu = nrj.layout.tag_index("m"), nrj.layout.tag_index("nu")
    nu_before = np.concatenate([[1], short.tags[:-1, k_nu]])
    jumps = short.tags[:, k_m] == 1
    rejected = ~short.accepted[:, 0]
    flips = short.tags[:, k_nu] != nu_before
    trace_ok = bool(np.array_equal(flips, jumps & rejected)
                    and flips.any() and jumps.any())

    ok = abs(f_rj - 0.5) < 0.02 and abs(f_nrj - 0.5) < 0.02 and trace_ok
    report("criterion 9 (transdimensional)", ok,
           f"model-1 frequency RJ {f_rj:.3f}, NRJ {f_nrj:.3f} in 0.5+-0.02; "
           f"over 10^3 logged steps every direction flip is a rejected jump "
           f"({int(flips.sum())} flips, {int(jumps.sum())} jump attempts)")


def test_criterion_10_cdf_kernel():
    kern = make_cdf_deterministic(normal_cdf1d())  # shift defaults to 1/sqrt(2)
    res = run_chain(kern, kern.layout.point([0.0]), 100000, seed=0)
    ks = kstest(res.xs[:, 0], "norm")

    exp_kern = make_cdf_deterministic(exponential_cdf1d())
    res_e = run_chain(exp_kern, exp_kern.layout.point([1.0]), 100000, seed=0)
    mean_e = float(res_e.xs.mean())

    ok = ks.pvalue > 0.01 and abs(mean_e - 1.0) < 0.02
    report("criterion 10 (CDF deterministic kernel)", ok,
           f"KS p-value {ks.pvalue:.3f} > 0.01; exponential mean {mean_e:.4f} "
           f"in 1.0+-0.02")


def test_criterion_11_benchmark_plumbing():
    from imcmc.cli import RunConfig, cmd_bench

    cfg = RunConfig(kind="", target="mog2", steps=20000, burn_in=1000,
                    chains=100, seed=5,
                    params={"eps": 0.05, "alpha": 0.8})
    t0 = time.perf_counter()
    rows = cmd_bench(cfg, ["mala", "irr_mala", "nice_mc", "irr_nice_mc"])
    elapsed = time.perf_counter() - t0

    ok = (len(rows) == 4
          and all(set(r) >= {"sampler", "target", "chains", "n", "ess",
                             "ess_per_sec", "accept_rate", "seconds"}
                  for r in rows)
          and all(set(r["ess"]) == {"mean", "std"} for r in rows)
          and all(r["chains"] == 100 and r["n"] == 19000 for r in rows)
          and elapsed < 600.0)
    summary = ", ".join(f"{r['sampler']}: ess {r['ess']['mean']:.3g}+-"
                        f"{r['ess']['std']:.2g}" for r in rows)
    report("criterion 11 (benchmark plumbing)", ok,
           f"100 chains x 20000-1000 steps in {elapsed:.0f}s < 600s; {summary}")

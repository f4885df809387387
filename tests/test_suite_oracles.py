"""Exact-matrix oracle suites run as parametrized tests.

Every sampler builder's finite analog must leave its target invariant; the
single kernels must be reversible in both senses while the persistent
compositions must measurably violate detailed balance; the shipped
involutions must verify; the reduction identities must hold exactly.
"""

import hashlib
import math

import numpy as np
import pytest

from imcmc import diagnostics
from imcmc.diagnostics import (
    check_detailed_balance,
    check_stationary,
    stationary_pmf,
    transition_matrix,
)
from imcmc.errors import ConfigError
from imcmc.maps import FlowMap
from imcmc.samplers import (
    ModelSpace,
    grid_family,
    make_multiple_try,
    make_transdimensional,
)
from imcmc.suite import (
    BALANCE_TOL,
    STATIONARY_TOL,
    FiniteCase,
    _bit_model_space,
    _grid_2state,
    finite_cases,
    mutant_case,
    run_all,
    run_balance,
    run_involutions,
    run_reductions,
    run_stationarity,
)

CASES = finite_cases()
CASE_IDS = [c.name for c in CASES]


@pytest.fixture(scope="module")
def stationarity_results():
    return {r.case: r for r in run_stationarity(CASES)}


@pytest.fixture(scope="module")
def balance_results():
    out = {}
    for r in run_balance(CASES):
        out.setdefault(r.case, {})[r.check] = r
    return out


@pytest.mark.parametrize("name", CASE_IDS)
def test_stationarity(name, stationarity_results):
    r = stationarity_results[name]
    assert r.passed, f"{name}: ||pT - p|| = {r.value:.3e} > {STATIONARY_TOL}"


def test_mutant_fails_stationarity():
    case = mutant_case()
    resid = check_stationary(case.check_matrix(), case.check_pmf, STATIONARY_TOL)
    assert not resid.passed
    assert resid.residual > 1e-3


@pytest.mark.parametrize("name", [c.name for c in CASES if c.single])
def test_single_kernels_reversible(name, balance_results):
    checks = balance_results[name]
    joint = checks["joint-reversibility"]
    assert joint.passed, f"{name}: joint asymmetry {joint.value:.3e}"
    marg = checks["marginal-reversibility"]
    assert marg.passed, f"{name}: marginal asymmetry {marg.value:.3e}"


@pytest.mark.parametrize("name", [c.name for c in CASES if c.expect_irreversible])
def test_compositions_break_detailed_balance(name, balance_results):
    checks = balance_results[name]
    irr = checks["irreversibility"]
    assert irr.passed, f"{name}: asymmetry only {irr.value:.3e}"
    stat = checks["stationary-while-irrev"]
    assert stat.passed, f"{name}: not stationary ({stat.value:.3e})"


def test_required_irreversible_set_is_covered():
    names = {c.name for c in CASES if c.expect_irreversible}
    required = {"irr_mala_grid", "irr_nice_mc_grid", "persistent_hmc_grid",
                "gibbs_systematic_2x2", "lifted_3state", "nrj_bits"}
    assert required <= names


def test_all_matrices_are_row_stochastic():
    for case in CASES:
        T = case.matrix()
        assert np.max(np.abs(T.sum(axis=1) - 1.0)) <= 1e-12, case.name
        assert T.min() >= 0.0, case.name


@pytest.mark.parametrize("result", run_involutions(), ids=lambda r: f"{r.case}-{r.check}")
def test_involution_gallery(result):
    assert result.passed, result.line()


@pytest.mark.parametrize("result", run_reductions(), ids=lambda r: r.case)
def test_reduction_identities(result):
    assert result.passed, result.line()


def test_mtm_three_state_needs_cap_override():
    """The three-state two-try enumeration exceeds the default state cap."""
    import math

    from imcmc.errors import EnumerationError
    from imcmc.samplers import grid_family, make_multiple_try
    from imcmc.targets import GridDensity

    g3 = GridDensity(np.array([0.0, 1.0, 2.0]), np.log(np.array([0.5, 0.3, 0.2])))
    q = [0.2, 0.5, 0.3]
    fam = grid_family([np.array([float(i)]) for i in range(3)],
                      lambda u, c: math.log(q[int(u[0])]))
    mtm = make_multiple_try(g3.density(), fam, k=2)
    states = [mtm.layout.point([x], [y1, y2, xs], (j,))
              for x in (0.0, 1.0, 2.0) for y1 in (0.0, 1.0, 2.0)
              for y2 in (0.0, 1.0, 2.0) for xs in (0.0, 1.0, 2.0)
              for j in (0, 1)]
    assert len(states) == 162
    with pytest.raises(EnumerationError):
        transition_matrix(mtm, states)
    T = transition_matrix(mtm, states, max_states=200)

    def joint(pt):
        x = pt.x
        ys = [pt.slot("y")[0:1], pt.slot("y")[1:2]]
        lp = g3.logpdf(x) + math.log(q[int(ys[0][0])]) + math.log(q[int(ys[1][0])])
        w = np.array([np.exp(g3.logpdf(y)) * q[int(x[0])] for y in ys])
        lp += math.log(w[pt.tag("j")] / w.sum())
        return lp + math.log(q[int(pt.slot("xstar")[0])])

    from imcmc.diagnostics import stationary_pmf

    p = stationary_pmf(states, joint)
    assert check_stationary(T, p, STATIONARY_TOL).passed


def test_run_all_builds_each_matrix_once_and_matches_the_parts(monkeypatch):
    calls = []
    inner = diagnostics._kernel_matrix

    def counting(kernel, index):
        calls.append(kernel.name)
        return inner(kernel, index)

    monkeypatch.setattr(diagnostics, "_kernel_matrix", counting)
    whole = run_all()
    # each finite case's matrix serves the stationarity, balance and
    # reduction checks; building them twice took 106 component matrices, and
    # building the reductions' registry matrices a second time took 70
    assert len(calls) <= 58
    parts = run_involutions() + run_stationarity() + run_balance() + run_reductions()

    def key(r):
        return (r.case, r.check, float(r.value).hex(), r.threshold, r.passed)

    assert [key(r) for r in whole] == [key(r) for r in parts]


def test_grouped_case_lumps_with_its_joint_law():
    # no registry case has both groups and a joint law; this one lumps the
    # Langevin grid's (x, v) chain onto x
    mala = next(c for c in CASES if c.name == "mala_grid")
    p_joint = diagnostics.stationary_pmf(mala.states, mala.joint_logpdf)
    _, px = diagnostics.marginal_matrix(np.eye(len(mala.states)), p_joint, mala.x_groups)
    case = FiniteCase(name="mala_grid_lumped", kernel=mala.kernel, states=mala.states,
                      check_pmf=px, groups=mala.x_groups,
                      joint_logpdf=mala.joint_logpdf)
    T = case.matrix()
    want, _ = diagnostics.marginal_matrix(T, p_joint, mala.x_groups)
    # the lumped matrix weighs each group's rows by the joint law, as a
    # per-call computation does, bit for bit
    assert np.array_equal(case.check_matrix(T), want)
    # rows within a group agree, so other weights move only the last bits;
    # the bits show which weights were used
    uniform, _ = diagnostics.marginal_matrix(
        T, np.full(len(mala.states), 1.0 / len(mala.states)), mala.x_groups)
    assert not np.array_equal(case.check_matrix(T), uniform)
    assert check_stationary(case.check_matrix(T), px, STATIONARY_TOL).passed


def test_finite_case_needs_a_law():
    mala = next(c for c in CASES if c.name == "mala_grid")
    with pytest.raises(ConfigError):
        FiniteCase(name="lawless", kernel=mala.kernel, states=mala.states)


# sha256 over the (case, check, float.hex(value)) rows of run_all(), in order
ORACLE_GOLDEN = "579db4fa513f3501b2ee282d0a71db1ff21c98569234129a2b31180cd76954f5"


def _oracle_digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.case}\t{r.check}\t{float(r.value).hex()}\n".encode())
    return h.hexdigest()


def test_run_all_values_match_golden():
    """Pins every oracle value, not only its threshold.

    The values are deterministic residuals of exact matrices, so a silent
    one-ulp drift is a change too.  A change that moves any of them declares
    in CHANGES.md which rows moved, with ``float.hex`` before and after
    (ROADMAP aim 3), and then re-records ``ORACLE_GOLDEN``.
    """
    results = run_all()
    assert len(results) == 104
    assert _oracle_digest(results) == ORACLE_GOLDEN


# ---------------------------------------------------------------------------
# function-valued hooks that no registry case sets, checked on kernels built
# here so that run_all keeps its rows
# ---------------------------------------------------------------------------

def _assert_exact(kernel, states, joint):
    """The kernel leaves ``joint`` invariant and its frozen-auxiliary move is
    in detailed balance with it."""
    p = stationary_pmf(states, joint)
    stat = check_stationary(transition_matrix(kernel, states), p, STATIONARY_TOL)
    assert stat.passed, f"||pT - p|| = {stat.residual:.3e}"
    frozen = transition_matrix(kernel.frozen_aux(), states)
    bal = check_detailed_balance(frozen, p, BALANCE_TOL)
    assert bal.passed, f"joint asymmetry {bal.max_asymmetry:.3e}"


# the bit models of the registry's rjmcmc_bits: p(k=1, a) and p(k=2, a, b),
# and the padding coordinate's law
P_MODEL1 = [0.5 * 0.55, 0.5 * 0.45]
P_MODEL2 = [[0.5 * 0.4, 0.5 * 0.1], [0.5 * 0.2, 0.5 * 0.3]]
P_PAD = [0.6, 0.4]


def _bits_law(a, b, k):
    """Model 1 holds a and pads b; model 2 holds both."""
    return P_MODEL1[int(a)] * P_PAD[int(b)] if k == 1 else P_MODEL2[int(a)][int(b)]


def test_model_space_flows_run_both_directions():
    calls = []

    def swap(name):
        def fn(z):
            calls.append(name)
            return z.with_x(z.x[::-1].copy()), 0.0
        return fn

    # exchanging the two coordinates preserves volume and maps {0,1}^2 to
    # itself; the 1->2 move applies it forward and the 2->1 move inversely
    bits = _bit_model_space()
    space = ModelSpace(2, bits.models, coord_dist=bits.coord_dist,
                       flows={(1, 2): FlowMap(swap("fwd"), swap("inv"))})
    rj = make_transdimensional(space, mode="reversible")
    states = [rj.layout.point([a, b], tags=(k, 3 - k))
              for a in (0.0, 1.0) for b in (0.0, 1.0) for k in (1, 2)]
    _assert_exact(rj, states,
                  lambda pt: math.log(_bits_law(pt.x[0], pt.x[1], pt.tag("k"))))
    assert {"fwd", "inv"} <= set(calls)


@pytest.mark.parametrize("lam", [
    lambda y, x: 1.0 + 2.0 * y[0] + 2.0 * x[0],
    lambda y, x: 1.0 + 2.0 * y[0],
], ids=["symmetric", "one_sided"])
def test_multiple_try_with_any_positive_lambda(lam):
    """The joint-space kernel scores the drawn index with λ, so any
    positive λ is exact; symmetry is not needed."""
    q = [[0.3, 0.7], [0.7, 0.3]]  # q(u | c): stay with probability 0.3
    p = [0.6, 0.4]
    mtm = make_multiple_try(_grid_2state().density(),
                            grid_family([np.array([0.0]), np.array([1.0])],
                                        lambda u, c: math.log(q[int(c[0])][int(u[0])])),
                            k=2, lam=lam)
    states = [mtm.layout.point([x], [y1, y2, xs], (j,))
              for x in (0.0, 1.0) for y1 in (0.0, 1.0) for y2 in (0.0, 1.0)
              for xs in (0.0, 1.0) for j in (0, 1)]

    def law(written_lam):
        def joint(pt):
            x = int(pt.x[0])
            ys = [int(u) for u in pt.slot("y")]
            w = [p[y] * q[y][x] * written_lam([y], [x]) for y in ys]
            y_j = ys[pt.tag("j")]
            return math.log(p[x] * q[x][ys[0]] * q[x][ys[1]] * w[pt.tag("j")] / sum(w)
                            * q[y_j][int(pt.slot("xstar")[0])])
        return joint

    _assert_exact(mtm, states, law(lam))
    # the law written without λ is not the kernel's
    with pytest.raises(AssertionError):
        _assert_exact(mtm, states, law(lambda y, x: 1.0))


def test_transdimensional_with_model_probs_that_may_stay():
    def model_probs(point):
        return np.array([0.3, 0.7]) if point.tag("k") == 1 else np.array([0.7, 0.3])

    rj = make_transdimensional(_bit_model_space(), mode="reversible",
                               model_probs=model_probs)
    states = [rj.layout.point([a, b], tags=(k, j))
              for a in (0.0, 1.0) for b in (0.0, 1.0) for k in (1, 2) for j in (1, 2)]

    def joint(pt):
        k, j = pt.tag("k"), pt.tag("j")
        return math.log(_bits_law(pt.x[0], pt.x[1], k) * (0.3 if j == k else 0.7))

    _assert_exact(rj, states, joint)

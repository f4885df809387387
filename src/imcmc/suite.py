"""Self-verification suites: finite-state analogs of every sampler builder.

Each case pairs a builder instance on an exactly enumerable space with an
independently constructed stationary distribution.  The suites drive three
kinds of checks:

- stationarity of the exact transition matrix (fixed-point equation),
- reversibility of single kernels (frozen-auxiliary joint matrix and the
  refresh-marginalized chain-coordinate matrix) and the required
  irreversibility of the persistent compositions,
- involution and Jacobian validity of every shipped deterministic map.

Chains whose kernels overwrite an auxiliary slot before using it are checked
on the lumped chain coordinates (target block plus persistent tags), where
the stationary law has closed form; lumping validity is asserted by row
constancy within groups.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    AuxiliaryConditional,
    ImcmcKernel,
    Involution,
    JointPoint,
    Layout,
    LogDensity,
    TagConditional,
    TransitionKernel,
    _draw_index,
    make_rng,
    random_points,
    verify_involution,
    verify_jacobian,
)
from .diagnostics import (
    check_detailed_balance,
    check_stationary,
    marginal_matrix,
    stationary_pmf,
    transition_matrix,
)
from .errors import ConfigError, EnumerationError
from .maps import (
    LeapfrogConfig,
    Metric,
    RiemannianHamiltonian,
    additive_coupling,
    affine_coupling,
    affine_x_flow,
    constant_metric,
    cycle_flow,
    direction_augment,
    embed,
    hmc_involution,
    identity_flow,
    implicit_hmc_involution,
    leapfrog_flow,
    momentum_flip,
    swap_blocks,
)
from .samplers import (
    BlockConditional,
    CoordDist,
    ModelSpace,
    grid_family,
    lifted_matrix,
    make_cdf_deterministic,
    make_directional_map,
    make_embedded_flow,
    make_gibbs,
    make_hamiltonian,
    make_irr_mala,
    make_irr_nice_mc,
    make_lifted,
    make_look_ahead,
    make_mh,
    make_mixture_proposal,
    make_multiple_try,
    make_persistent,
    make_sample_adaptive,
    make_transdimensional,
    mala_proposal,
)
from .targets import GridDensity, grid_conditional, uniform_cdf1d

STATIONARY_TOL = 1e-12
BALANCE_TOL = 1e-12
IRREVERSIBILITY_FLOOR = 1e-6


# ---------------------------------------------------------------------------
# case plumbing
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class FiniteCase:
    """One sampler builder realized on an exactly enumerable space."""

    name: str
    kernel: TransitionKernel
    states: list[JointPoint]
    check_pmf: Optional[np.ndarray] = None      # stationary law on the check space
    groups: Optional[list[int]] = None          # lump enumerated -> check space
    joint_logpdf: Optional[Callable] = None     # product-form law on the full space
    expect_irreversible: bool = False           # must violate detailed balance
    x_groups: Optional[list[int]] = None        # grouping for the marginal chain
    # the normalized joint law on the enumerated space, computed once
    _joint_pmf: Optional[np.ndarray] = dataclasses.field(
        init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.joint_logpdf is not None:
            self._joint_pmf = stationary_pmf(self.states, self.joint_logpdf)
        # without a check space the check law is the joint law itself
        if self.check_pmf is None:
            if self._joint_pmf is None:
                raise ConfigError(f"{self.name}: give a check_pmf or a joint_logpdf")
            self.check_pmf = self._joint_pmf

    @property
    def single(self) -> bool:
        """Whether Prop-2 reversibility applies: one involutive kernel whose
        joint law is given."""
        return isinstance(self.kernel, ImcmcKernel) and self.joint_logpdf is not None

    def matrix(self) -> np.ndarray:
        return transition_matrix(self.kernel, self.states)

    def check_matrix(self, T: Optional[np.ndarray] = None) -> np.ndarray:
        T = self.matrix() if T is None else T
        if self.groups is None:
            return T
        w = (self._joint_pmf if self._joint_pmf is not None
             else np.full(len(self.states), 1.0 / len(self.states)))
        _assert_lumpable(T, self.groups)
        Tg, _ = marginal_matrix(T, w, self.groups)
        return Tg


def _assert_lumpable(T: np.ndarray, groups: Sequence[int]):
    """Rows within a group must agree (to 1e-13) for a lumped chain to be Markov."""
    groups = np.asarray(groups)
    for g in np.unique(groups):
        rows = T[groups == g]
        col = np.zeros((rows.shape[0], len(np.unique(groups))))
        for b, gb in enumerate(np.unique(groups)):
            col[:, b] = rows[:, groups == gb].sum(axis=1)
        if np.max(np.abs(col - col[0])) > 1e-13:
            raise EnumerationError("state space is not lumpable onto the groups")


@dataclasses.dataclass
class CheckResult:
    case: str
    check: str
    value: float
    threshold: float
    passed: bool

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"[{status}] {self.case:34s} {self.check:26s} {self.value:.3e} (<= {self.threshold:.0e})"


# ---------------------------------------------------------------------------
# shared finite ingredients
# ---------------------------------------------------------------------------

def _grid_2state() -> GridDensity:
    return GridDensity(np.array([0.0, 1.0]), np.log(np.array([0.6, 0.4])))


def _grid_vals(n: int) -> list[np.ndarray]:
    return [np.array([float(i)]) for i in range(n)]


def _q2() -> AuxiliaryConditional:
    """Two-state proposal that stays put with probability 0.3."""
    return grid_conditional(_grid_vals(2), lambda pt: np.array([0.3, 0.7])
                            if pt.x[0] == 0.0 else np.array([0.7, 0.3]))


def _qlog2(u, c) -> float:
    """The same proposal as a family: log q(u | c)."""
    return math.log(0.3) if abs(u[0] - c[0]) < 0.5 else math.log(0.7)


def _harmonic_grid():
    """Phase-space grid closed under the sqrt(2)-step oscillator leapfrog."""
    c = 0.75
    V = [np.array([s * c]) for s in (-1.0, 0.0, 1.0)]
    X = [np.array([math.sqrt(2.0) * s * c]) for s in (-1.0, 0.0, 1.0)]
    xgrid = GridDensity(np.array([x[0] for x in X]),
                        -0.5 * np.array([x[0] ** 2 for x in X]),
                        grad=lambda x: -x)
    wv = np.exp(-0.5 * np.array([v[0] ** 2 for v in V]))
    mom = grid_conditional(V, lambda pt: wv / wv.sum())

    def mom_logpdf(v):
        w = wv / wv.sum()
        for u, p in zip(V, w):
            if abs(u[0] - v[0]) <= 1e-9:
                return math.log(p)
        return -math.inf

    return X, V, xgrid, mom, mom_logpdf


def _reversible_base(p: np.ndarray) -> np.ndarray:
    """Metropolized nearest-neighbor walk; reversible for the given pmf."""
    n = p.size
    T = np.zeros((n, n))
    for i in range(n):
        for j in (i - 1, i + 1):
            if 0 <= j < n:
                T[i, j] = 0.5 * min(1.0, p[j] / p[i])
        T[i, i] = 1.0 - T[i].sum()
    return T


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def finite_cases() -> list[FiniteCase]:
    cases: list[FiniteCase] = []
    add = cases.append

    # -- Metropolis-Hastings, two states, stochastic proposal ---------------
    g2 = _grid_2state()
    vals2 = _grid_vals(2)
    q2 = _q2()
    for rule_name, rule in (("metropolis", None), ("barker", "barker")):
        from .core import AcceptanceRule

        kern = make_mh(g2.density(), q2,
                       rule=AcceptanceRule.BARKER if rule else AcceptanceRule.METROPOLIS,
                       name=f"mh_{rule_name}")
        states = [kern.layout.point([x], [v]) for x in (0.0, 1.0) for v in (0.0, 1.0)]

        def mh_joint(pt):
            return g2.logpdf(pt.x) + q2.logpdf(pt.slot("v"), pt)

        add(FiniteCase(
            name=f"mh_2state_{rule_name}", kernel=kern, states=states,
            joint_logpdf=mh_joint, x_groups=[0, 0, 1, 1]))

    # -- Langevin proposal on a four-point grid -----------------------------
    xs4 = np.array([-1.5, -0.5, 0.5, 1.5])
    g4 = GridDensity(xs4, -0.5 * xs4 ** 2, grad=lambda x: -x)
    X4 = [np.array([u]) for u in xs4]
    mala_q = mala_proposal(g4.density(), 0.3, support_values=X4)
    mala_k = make_mh(g4.density(), mala_q, name="mala")
    mala_states = [mala_k.layout.point([x], [v]) for x in xs4 for v in xs4]

    def mala_joint(pt):
        return g4.logpdf(pt.x) + mala_q.logpdf(pt.slot("v"), pt)

    add(FiniteCase(
        name="mala_grid", kernel=mala_k, states=mala_states,
        joint_logpdf=mala_joint, x_groups=[i // 4 for i in range(16)]))

    # -- mixture proposal, discrete component index -------------------------
    idx = TagConditional((0, 1), lambda pt: np.array([0.7, 0.3])
                         if pt.x[0] == 0.0 else np.array([0.4, 0.6]), name="a")
    comp = grid_conditional(vals2, lambda pt: np.array([0.8, 0.2])
                            if pt.tag("a") == 0 else np.array([0.25, 0.75]))
    mp = make_mixture_proposal(g2.density(), idx, comp)
    mp_states = [mp.layout.point([x], [v], (a,))
                 for x in (0.0, 1.0) for v in (0.0, 1.0) for a in (0, 1)]

    def mp_joint(pt):
        return (g2.logpdf(pt.x) + idx.logpdf(pt.tag("a"), pt)
                + comp.logpdf(pt.slot("v"), pt))

    add(FiniteCase(
        name="mixture_proposal_2x2", kernel=mp, states=mp_states,
        joint_logpdf=mp_joint, x_groups=[0, 0, 0, 0, 1, 1, 1, 1]))

    # -- multiple-try, two trials on two states -----------------------------
    fam2 = grid_family(vals2, _qlog2)
    mtm = make_multiple_try(g2.density(), fam2, k=2)
    mtm_states = [mtm.layout.point([x], [y1, y2, xsr], (j,))
                  for x in (0.0, 1.0) for y1 in (0.0, 1.0) for y2 in (0.0, 1.0)
                  for xsr in (0.0, 1.0) for j in (0, 1)]

    def mtm_joint(pt):
        x = pt.x
        ys = [pt.slot("y")[0:1], pt.slot("y")[1:2]]
        lp = g2.logpdf(x) + _qlog2(ys[0], x) + _qlog2(ys[1], x)
        w = np.array([math.exp(g2.logpdf(y) + _qlog2(x, y)) for y in ys])
        lp += math.log(w[pt.tag("j")] / w.sum())
        return lp + _qlog2(pt.slot("xstar"), ys[pt.tag("j")])

    add(FiniteCase(
        name="mtm_2state_k2", kernel=mtm, states=mtm_states,
        joint_logpdf=mtm_joint,
        x_groups=[0 if pt.x[0] == 0.0 else 1 for pt in mtm_states]))

    # -- sample-adaptive, one stored point on three states ------------------
    g3 = GridDensity(np.array([0.0, 1.0, 2.0]), np.log(np.array([0.5, 0.3, 0.2])))
    vals3 = _grid_vals(3)
    q_pm = [0.2, 0.5, 0.3]
    fam3 = grid_family(vals3, lambda u, c: math.log(q_pm[int(u[0])]))
    sa = make_sample_adaptive(g3.density(), 1, fam3)
    sa_states = [sa.layout.point([x], [pr], (j,))
                 for x in (0.0, 1.0, 2.0) for pr in (0.0, 1.0, 2.0) for j in (0, 1)]

    def sa_joint(pt):
        x, pr = pt.x, pt.slot("prop")
        lp = g3.logpdf(x) + fam3.logpdf(pr, x)
        lam = np.array([math.exp(fam3.logpdf(x, pr) - g3.logpdf(x)),
                        math.exp(fam3.logpdf(pr, x) - g3.logpdf(pr))])
        return lp + math.log(lam[pt.tag("j")] / lam.sum())

    add(FiniteCase(
        name="sample_adaptive_3state", kernel=sa, states=sa_states,
        joint_logpdf=sa_joint, x_groups=[int(pt.x[0]) for pt in sa_states]))

    # -- generalized sample-adaptive, order-dependent aggregation -----------
    def g_ord(S):
        return 0.75 * S[0] + 0.25 * S[1]

    fam_dep = grid_family(vals2, lambda u, c: math.log(0.35 + 0.3 * abs(u[0] - c[0])))
    sag = make_sample_adaptive(g2.density(), 2, fam_dep, aggregate=g_ord)
    sag_states = [sag.layout.point([x1, x2], [pr], (j,))
                  for x1 in (0.0, 1.0) for x2 in (0.0, 1.0)
                  for pr in (0.0, 1.0) for j in (0, 1, 2)]

    def sag_joint(pt):
        S = pt.x.reshape(2, 1)
        pr = pt.slot("prop")
        lp = g2.logpdf(S[0]) + g2.logpdf(S[1]) + fam_dep.logpdf(pr, g_ord(S))
        lams = []
        for i in range(2):
            S_i = S.copy()
            S_i[i] = pr
            lams.append(math.exp(fam_dep.logpdf(S[i], g_ord(S_i)) - g2.logpdf(S[i])))
        lams.append(math.exp(fam_dep.logpdf(pr, g_ord(S)) - g2.logpdf(pr)))
        lams = np.array(lams)
        return lp + math.log(lams[pt.tag("j")] / lams.sum())

    add(FiniteCase(
        name="sample_adaptive_generalized", kernel=sag, states=sag_states,
        joint_logpdf=sag_joint,
        x_groups=[2 * int(pt.x[0]) + int(pt.x[1]) for pt in sag_states]))

    # -- Hamiltonian family on the rotation-closed grid ---------------------
    X, V, xgrid, mom, mom_logpdf = _harmonic_grid()
    cfg = LeapfrogConfig(math.sqrt(2.0), 1)
    dens = xgrid.density()

    def hmc_joint(pt):
        return xgrid.logpdf(pt.x) + mom_logpdf(pt.slot("v"))

    hmc = make_hamiltonian(dens, cfg, momentum_cond=mom)
    hmc_states = [hmc.layout.point(x, v) for x in X for v in V]
    add(FiniteCase(
        name="hmc_grid", kernel=hmc, states=hmc_states,
        joint_logpdf=hmc_joint, x_groups=[i // 3 for i in range(9)]))

    # constant-metric implicit integrator: eps^2 = 2c makes an exact rotation
    c_m = 2.0
    Xr = [np.array([s]) for s in (-1.0, 0.0, 1.0)]
    Vr = [np.array([s]) for s in (-1.0, 0.0, 1.0)]
    xg_r = GridDensity(np.array([x[0] for x in Xr]),
                       -0.5 * np.array([x[0] ** 2 for x in Xr]), grad=lambda x: -x)
    wv_r = np.exp(-0.25 * np.array([v[0] ** 2 for v in Vr]))
    mom_r = grid_conditional(Vr, lambda pt: wv_r / wv_r.sum())
    rm = make_hamiltonian(xg_r.density(), LeapfrogConfig(2.0, 1),
                          metric=constant_metric(np.array([[c_m]])),
                          momentum_cond=mom_r)
    rm_states = [rm.layout.point(x, v) for x in Xr for v in Vr]

    def rm_joint(pt):
        w = wv_r / wv_r.sum()
        lp = xg_r.logpdf(pt.x)
        for u, p in zip(Vr, w):
            if abs(u[0] - pt.slot("v")[0]) <= 1e-9:
                return lp + math.log(p)
        return -math.inf

    add(FiniteCase(
        name="rmhmc_grid", kernel=rm, states=rm_states,
        joint_logpdf=rm_joint, x_groups=[i // 3 for i in range(9)]))

    # embedded flow, identity and dyadic affine
    neutra_id = make_embedded_flow(dens, identity_flow(), cfg, momentum_cond=mom)
    add(FiniteCase(
        name="neutra_identity_grid", kernel=neutra_id, states=hmc_states,
        joint_logpdf=hmc_joint, x_groups=[i // 3 for i in range(9)]))

    flow = affine_x_flow([0.0], [2.0])
    X2 = [2.0 * x for x in X]
    xg2 = GridDensity(np.array([x[0] for x in X2]),
                      -0.5 * np.array([(x[0] / 2.0) ** 2 for x in X2]))
    neutra = make_embedded_flow(xg2.density(), flow, cfg,
                                latent_grad=lambda z: -z, momentum_cond=mom)
    n_states = [neutra.layout.point(x, v) for x in X2 for v in V]

    def n_joint(pt):
        return xg2.logpdf(pt.x) + mom_logpdf(pt.slot("v"))

    add(FiniteCase(
        name="neutra_affine_grid", kernel=neutra, states=n_states,
        joint_logpdf=n_joint, x_groups=[i // 3 for i in range(9)]))

    # directional map with fresh directions (coupling-map chain)
    L = leapfrog_flow(cfg, xgrid.grad)
    dm = make_directional_map(dens, L, momentum_cond=mom)
    dm_states = [dm.layout.point(x, v, (d,)) for x in X for v in V for d in (-1, 1)]

    def dm_joint(pt):
        return hmc_joint(pt) + math.log(0.5)

    add(FiniteCase(
        name="directional_map_grid", kernel=dm, states=dm_states,
        joint_logpdf=dm_joint, x_groups=[i // 6 for i in range(18)]))

    # persistent direction (full momentum refresh keeps it enumerable)
    pers = make_persistent(dens, L, 1.0, momentum_cond=mom, name="persistent_hmc")
    add(FiniteCase(
        name="persistent_hmc_grid", kernel=pers, states=dm_states,
        joint_logpdf=dm_joint, expect_irreversible=True))

    # look-ahead cascade
    la = make_look_ahead(dens, cfg, 3, 1.0, momentum_cond=mom)
    add(FiniteCase(
        name="look_ahead_grid", kernel=la, states=hmc_states,
        joint_logpdf=hmc_joint))

    # irreversible coupling-map chain
    inm = make_irr_nice_mc(dens, L, 1.0, momentum_cond=mom)
    add(FiniteCase(
        name="irr_nice_mc_grid", kernel=inm, states=dm_states,
        joint_logpdf=dm_joint, expect_irreversible=True))

    # direction-augmented Langevin
    im = make_irr_mala(g4.density(), 0.3, support_values=X4)
    im_states = [im.layout.point([x], [v], (d,))
                 for x in xs4 for v in xs4 for d in (-1, 1)]
    px4 = np.exp(-0.5 * xs4 ** 2)
    px4 = px4 / px4.sum()
    im_groups = [2 * int(np.searchsorted(xs4, pt.x[0]))
                 + (0 if pt.tag("d") == 1 else 1) for pt in im_states]
    add(FiniteCase(
        name="irr_mala_grid", kernel=im, states=im_states,
        check_pmf=np.repeat(px4, 2) / 2.0, groups=im_groups,
        expect_irreversible=True))

    # Gibbs sweeps on a 2x2 table
    P = np.array([[0.35, 0.15], [0.2, 0.3]])
    tgt = GridDensity(np.array([[i, j] for i in range(2) for j in range(2)],
                               dtype=float), np.log(P.reshape(-1)))

    def cond_k(k):
        def probs(x):
            other = int(x[1 - k])
            col = P[:, other] if k == 0 else P[other, :]
            return col / col.sum()

        return BlockConditional(
            (k,),
            sample=lambda rng, x: np.array([float(_draw_index(rng, probs(x)))]),
            logpdf=lambda v, x: math.log(probs(x)[int(v[0])]),
            support=lambda x: [(np.array([0.0]), float(probs(x)[0])),
                               (np.array([1.0]), float(probs(x)[1]))])

    sweep = make_gibbs(tgt.density(), [cond_k(0), cond_k(1)], scan="systematic")
    sw_states = [sweep.layout.point([i, j], [v])
                 for i in range(2) for j in range(2) for v in (0.0, 1.0)]
    sw_groups = [2 * int(pt.x[0]) + int(pt.x[1]) for pt in sw_states]
    add(FiniteCase(
        name="gibbs_systematic_2x2", kernel=sweep, states=sw_states,
        check_pmf=P.reshape(-1), groups=sw_groups,
        expect_irreversible=True))

    rscan = make_gibbs(tgt.density(), [cond_k(0), cond_k(1)], scan="random")
    rs_states = [rscan.layout.point([i, j], [v], (cidx,))
                 for i in range(2) for j in range(2)
                 for v in (0.0, 1.0) for cidx in (0, 1)]
    rs_groups = [2 * int(pt.x[0]) + int(pt.x[1]) for pt in rs_states]
    add(FiniteCase(
        name="gibbs_random_2x2", kernel=rscan, states=rs_states,
        check_pmf=P.reshape(-1), groups=rs_groups))

    # lifted chain over three states
    p3 = np.array([0.5, 0.3, 0.2])
    base = _reversible_base(p3)
    lift = make_lifted(base, [0.0, 1.0, 2.0], np.log(p3))
    lf_states = [lift.layout.point([x], [v], (d,))
                 for x in (0.0, 1.0, 2.0) for v in (0.0, 1.0, 2.0) for d in (-1, 1)]
    lf_groups = [2 * int(pt.x[0]) + (0 if pt.tag("d") == 1 else 1)
                 for pt in lf_states]
    add(FiniteCase(
        name="lifted_3state", kernel=lift, states=lf_states,
        check_pmf=np.repeat(p3, 2) / 2.0, groups=lf_groups,
        expect_irreversible=True))

    # reversible jump on dimension-matched bit models
    space = _bit_model_space()
    rj = make_transdimensional(space, mode="reversible")
    rj_states = [rj.layout.point([a, b], tags=(k, j))
                 for a in (0.0, 1.0) for b in (0.0, 1.0)
                 for k in (1, 2) for j in (1, 2) if j != k]

    def rj_joint(pt):
        lp = space.logpdf(pt.tag("k"), pt.x)
        if pt.tag("k") == 1:
            lp += space.coord_dist.logpdf(pt.x[1])
        return lp

    # chain coordinates are (model, active block); padding is auxiliary
    rj_keys = [(pt.tag("k"), tuple(pt.x[:space.models[pt.tag("k")].dim]))
               for pt in rj_states]
    add(FiniteCase(
        name="rjmcmc_bits", kernel=rj, states=rj_states,
        joint_logpdf=rj_joint, x_groups=_group_ids(rj_keys)))

    # non-reversible jump with a persistent ladder direction
    within = AuxiliaryConditional(
        lambda rng, pt: np.array([float(rng.choice(2))]),
        lambda v, pt: math.log(0.5),
        lambda pt: [(np.array([0.0]), 0.5), (np.array([1.0]), 0.5)],
        name="bit_flip")
    nrj = make_transdimensional(space, mode="nonreversible", tau=0.5,
                                within=within, within_dim=1)
    nrj_states = [nrj.layout.point([a, b], [w], (k, nu, m))
                  for a in (0.0, 1.0) for b in (0.0, 1.0) for w in (0.0, 1.0)
                  for k in (1, 2) for nu in (-1, 1) for m in (0, 1)]
    nrj_keys = [(pt.x[0], pt.x[1], pt.tag("k"), pt.tag("nu")) for pt in nrj_states]
    nrj_groups = _group_ids(nrj_keys)
    uniq = sorted(set(nrj_keys))
    pg = np.zeros(len(uniq))
    for gid, (a, b, k, nu) in enumerate(uniq):
        lp = space.logpdf(k, np.array([a, b]))
        if k == 1:
            lp += space.coord_dist.logpdf(b)
        pg[gid] = math.exp(lp) * 0.5
    add(FiniteCase(
        name="nrj_bits", kernel=nrj, states=nrj_states,
        check_pmf=pg / pg.sum(), groups=[uniq.index(k) for k in nrj_keys],
        expect_irreversible=True))

    # deterministic CDF rotation on a dyadic circle
    cdfk = make_cdf_deterministic(uniform_cdf1d(), shift=0.25)
    cdf_states = [cdfk.layout.point([u]) for u in np.arange(8) / 8.0]
    add(FiniteCase(
        name="cdf_rotation", kernel=cdfk, states=cdf_states,
        check_pmf=np.full(8, 1.0 / 8.0),
        expect_irreversible=True))

    # persistent-direction pair on a plain 3-cycle
    pc = np.array([0.5, 0.3, 0.2])
    gc = GridDensity(np.array([0.0, 1.0, 2.0]), np.log(pc))
    cyc = make_persistent(
        gc.density(), cycle_flow([0.0, 1.0, 2.0]), 1.0,
        momentum_cond=_null_momentum(), name="cycle_pair")
    cy_states = [cyc.layout.point([x], [0.0], (d,))
                 for x in (0.0, 1.0, 2.0) for d in (-1, 1)]
    add(FiniteCase(
        name="trick5_cycle_3state", kernel=cyc, states=cy_states,
        check_pmf=np.repeat(pc, 2) / 2.0,
        groups=[2 * int(pt.x[0]) + (0 if pt.tag("d") == 1 else 1)
                for pt in cy_states],
        expect_irreversible=True))

    return cases


def _group_ids(keys: Sequence) -> list[int]:
    seen: dict = {}
    return [seen.setdefault(k, len(seen)) for k in keys]


def _bit_model_space() -> ModelSpace:
    def model1(y):
        return math.log(0.5) + math.log([0.55, 0.45][int(y[0])])

    def model2(y):
        tab = np.array([[0.4, 0.1], [0.2, 0.3]])
        return math.log(0.5) + math.log(tab[int(y[0]), int(y[1])])

    bit = CoordDist(sample=lambda rng: float(_draw_index(rng, [0.6, 0.4])),
                    logpdf=lambda u: math.log(0.6 if u < 0.5 else 0.4),
                    support=[(0.0, 0.6), (1.0, 0.4)])
    return ModelSpace(2, {1: LogDensity(1, model1), 2: LogDensity(2, model2)},
                      coord_dist=bit)


def _null_momentum() -> AuxiliaryConditional:
    """Point mass at zero for layouts whose momentum block is unused."""
    return AuxiliaryConditional(
        lambda rng, pt: np.zeros(1),
        lambda v, pt: 0.0,
        lambda pt: [(np.zeros(1), 1.0)],
        name="null")


# ---------------------------------------------------------------------------
# mutation fixture: the oracle must catch a broken acceptance
# ---------------------------------------------------------------------------

class _MutantKernel(ImcmcKernel):
    """Deliberately wrong acceptance (probability raised to 1.3)."""

    def acceptance(self, point):
        prob, proposal = super().acceptance(point)
        return prob ** 1.3, proposal


def mutant_case() -> FiniteCase:
    g2 = _grid_2state()
    q2 = _q2()
    good = make_mh(g2.density(), q2)
    bad = _MutantKernel(good.layout, good.target, aux_refresh=good.aux_refresh,
                        involution=good.involution, name="mutant_mh")
    states = [bad.layout.point([x], [v]) for x in (0.0, 1.0) for v in (0.0, 1.0)]

    def joint(pt):
        return g2.logpdf(pt.x) + q2.logpdf(pt.slot("v"), pt)

    return FiniteCase(name="mutant_mh", kernel=bad, states=states,
                      joint_logpdf=joint, x_groups=[0, 0, 1, 1])


# ---------------------------------------------------------------------------
# suite runners
# ---------------------------------------------------------------------------

def run_stationarity(cases: Optional[list[FiniteCase]] = None) -> list[CheckResult]:
    """Fixed-point residual of every finite analog, plus the mutant control."""
    cases = finite_cases() if cases is None else cases
    return _stationarity_checks(_built(cases))


def run_balance(cases: Optional[list[FiniteCase]] = None) -> list[CheckResult]:
    """Reversibility of single kernels; irreversibility of the compositions.

    Single kernels are checked twice: the frozen-auxiliary joint matrix must
    be in detailed balance with the joint law, and the refresh-marginalized
    chain matrix must be in detailed balance with the chain law.
    """
    cases = finite_cases() if cases is None else cases
    return _balance_checks(_built(cases))


# a case, its matrix, and the kernel that built it
_Built = tuple[FiniteCase, np.ndarray, TransitionKernel]


def _built(cases: list[FiniteCase]) -> list[_Built]:
    """Each case with its matrix.  A single kernel builds it over a fresh
    table of acceptance tests, which its frozen build in `_balance_checks`
    reads again: nothing carries over between cases or passes."""
    out = []
    for case in cases:
        kernel = case.kernel.sharing_tests({}) if case.single else case.kernel
        out.append((case, transition_matrix(kernel, case.states), kernel))
    return out


def _stationarity_checks(built: list[_Built]) -> list[CheckResult]:
    out = []
    for case, T, _ in built:
        resid = check_stationary(case.check_matrix(T), case.check_pmf, STATIONARY_TOL)
        out.append(CheckResult(case.name, "stationarity", resid.residual,
                               STATIONARY_TOL, resid.passed))
    out.append(_mutant_check())
    return out


def _mutant_check() -> CheckResult:
    """The mutant's stationarity residual; the check passes when it fails."""
    mut = mutant_case()
    resid = check_stationary(mut.check_matrix(), mut.check_pmf, STATIONARY_TOL)
    return CheckResult(mut.name, "stationarity-must-fail", resid.residual,
                       STATIONARY_TOL, not resid.passed)


def _balance_checks(built: list[_Built]) -> list[CheckResult]:
    out = []
    for case, T, kernel in built:
        if case.single:
            p_joint = case._joint_pmf
            frozen = transition_matrix(kernel.frozen_aux(), case.states)
            rep = check_detailed_balance(frozen, p_joint, BALANCE_TOL)
            out.append(CheckResult(case.name, "joint-reversibility",
                                   rep.max_asymmetry, BALANCE_TOL, rep.passed))
            if case.x_groups is not None:
                Tx, gw = marginal_matrix(T, p_joint, case.x_groups)
                repx = check_detailed_balance(Tx, gw, BALANCE_TOL)
                out.append(CheckResult(case.name, "marginal-reversibility",
                                       repx.max_asymmetry, BALANCE_TOL, repx.passed))
        if case.expect_irreversible:
            Tg = case.check_matrix(T)
            rep = check_detailed_balance(Tg, case.check_pmf, BALANCE_TOL)
            out.append(CheckResult(case.name, "irreversibility",
                                   rep.max_asymmetry, IRREVERSIBILITY_FLOOR,
                                   rep.max_asymmetry > IRREVERSIBILITY_FLOOR))
            resid = check_stationary(Tg, case.check_pmf, STATIONARY_TOL)
            out.append(CheckResult(case.name, "stationary-while-irrev",
                                   resid.residual, STATIONARY_TOL, resid.passed))
    return out


# ---------------------------------------------------------------------------
# involution gallery
# ---------------------------------------------------------------------------

def involution_gallery() -> list[tuple[str, Involution, Layout, float]]:
    """Every shipped involution with a layout to draw test points from.

    The float is the pass tolerance for the displacement check (the implicit
    integrator composes fixed-point solves, so it gets a looser bound).
    """
    from .targets import mog2, standard_normal

    sn2 = standard_normal(2)
    m2 = mog2()
    lay_xv = Layout(x_dim=2, v_dim=2, slots={"v": slice(0, 2)})
    lay_xvd = Layout(x_dim=2, v_dim=2, slots={"v": slice(0, 2)},
                     tags=("d",), tag_values={"d": (-1, 1)})
    lay_1d = Layout(x_dim=1, v_dim=1, slots={"v": slice(0, 1)})

    cfg = LeapfrogConfig(0.1, 5)
    met = Metric(g=lambda x: np.array([[1.0 + x[0] ** 2]]),
                 g_logdet=lambda x: math.log(1.0 + x[0] ** 2),
                 g_grad=lambda x: np.array([[[2.0 * x[0]]]]))
    ham = RiemannianHamiltonian(standard_normal(1).logpdf, standard_normal(1).grad, met)

    couple = additive_coupling()
    affine = affine_coupling()
    irr_mala_inv = _irr_mala_involution(m2)

    gallery = [
        ("swap", swap_blocks(), lay_xv, 1e-10),
        ("flip", momentum_flip(), lay_xv, 1e-10),
        ("hmc_explicit_normal", hmc_involution(cfg, sn2.grad), lay_xv, 1e-10),
        ("hmc_explicit_mog2", hmc_involution(cfg, m2.grad), lay_xv, 1e-10),
        ("hmc_implicit_metric", implicit_hmc_involution(LeapfrogConfig(0.1, 3), ham),
         lay_1d, 1e-8),
        ("direction_additive_coupling", direction_augment(couple), lay_xvd, 1e-10),
        ("direction_affine_coupling", direction_augment(affine), lay_xvd, 1e-10),
        ("embedded_affine_hmc",
         embed(affine_x_flow([0.5, -0.2], [1.5, 0.7]), hmc_involution(cfg, sn2.grad)),
         lay_xv, 1e-10),
        ("embedded_swap", embed(affine_x_flow([0.0, 0.0], [2.0, 0.5]),
                                swap_blocks()), lay_xv, 1e-10),
        ("irr_mala_map", irr_mala_inv, lay_xvd, 1e-10),
    ]
    return gallery


def _irr_mala_involution(density) -> Involution:
    kernel = make_irr_mala(density, 0.1)
    return kernel.kernels()[0].involution


def run_involutions() -> list[CheckResult]:
    """Displacement and log-Jacobian antisymmetry over 100 seeded random
    points per involution."""
    rng = make_rng(2024)
    out = []
    for name, inv, layout, tol in involution_gallery():
        pts = random_points(layout, 100, rng)
        rep = verify_involution(inv, pts, tol=tol)
        out.append(CheckResult(name, "involution", rep.max_displacement, tol,
                               rep.max_displacement <= tol and rep.tags_restored))
        out.append(CheckResult(name, "logdet-antisymmetry",
                               rep.max_logdet_asymmetry, 1e-8,
                               rep.max_logdet_asymmetry <= 1e-8))
        jac = verify_jacobian(inv, pts[0], tol=1e-5)
        out.append(CheckResult(name, "jacobian-vs-fd", jac.abs_error, 1e-5,
                               jac.passed))
    return out


# ---------------------------------------------------------------------------
# reduction identities
# ---------------------------------------------------------------------------

REDUCTION_TOL = 1e-12


# the registry cases whose matrices the reductions compare
_REDUCTION_CASES = ("mh_2state_metropolis", "hmc_grid", "neutra_identity_grid",
                    "directional_map_grid", "irr_nice_mc_grid", "persistent_hmc_grid",
                    "lifted_3state")


def run_reductions() -> list[CheckResult]:
    """Exact-matrix equalities between samplers that must coincide.

    Comparisons are on the full joint matrix when the kernels share a state
    space and on the refresh-marginalized chain matrix otherwise.
    """
    cases = [case for case in finite_cases() if case.name in _REDUCTION_CASES]
    return _reduction_checks(_built(cases))


def _reduction_checks(built: list) -> list[CheckResult]:
    """The reductions over the registry matrices in ``built``, whose items
    start with a case and its matrix; only kernels the registry lacks are
    built here."""
    reg = {case.name: (case, T) for case, T, *_ in built}
    out = []

    def record(name, diff, tol=REDUCTION_TOL):
        out.append(CheckResult(name, "matrix-equality", diff, tol, diff <= tol))

    # multiple-try with one trial collapses to Metropolis-Hastings
    g2 = _grid_2state()
    mtm1 = make_multiple_try(g2.density(), grid_family(_grid_vals(2), _qlog2), k=1)
    st_m = [mtm1.layout.point([x], [y], (0,)) for x in (0.0, 1.0) for y in (0.0, 1.0)]
    T1 = transition_matrix(mtm1, st_m)
    p1 = stationary_pmf(st_m, lambda pt: g2.logpdf(pt.x) + _qlog2(pt.slot("y"), pt.x))
    Tx1, _ = marginal_matrix(T1, p1, [0, 0, 1, 1])
    mh, Tmh = reg["mh_2state_metropolis"]
    Txm, _ = marginal_matrix(Tmh, mh.check_pmf, mh.x_groups)
    record("mtm_k1_equals_mh", float(np.max(np.abs(Tx1 - Txm))))

    # depth-one look-ahead equals the persistent-momentum step
    _, _, xgrid, mom, _ = _harmonic_grid()
    cfg = LeapfrogConfig(math.sqrt(2.0), 1)
    dens = xgrid.density()
    la1 = make_look_ahead(dens, cfg, 1, 1.0, momentum_cond=mom)
    pm = make_persistent(dens, hmc_involution(cfg, xgrid.grad), 1.0,
                         momentum_cond=mom)
    hmc, T_h = reg["hmc_grid"]
    record("look_ahead_k1_equals_persistent",
           float(np.max(np.abs(transition_matrix(la1, hmc.states)
                               - transition_matrix(pm, hmc.states)))))

    # identity-flow conjugation leaves the Hamiltonian kernel untouched
    record("neutra_identity_equals_hmc",
           float(np.max(np.abs(reg["neutra_identity_grid"][1] - T_h))))

    # constant decision function collapses the lifted chain onto its base
    p3 = np.array([0.5, 0.3, 0.2])
    base = _reversible_base(p3)
    lift0 = make_lifted(base, [0.0, 1.0, 2.0], np.log(p3), eta=[1.0, 1.0, 1.0])
    lift, T_lift = reg["lifted_3state"]
    T_l = transition_matrix(lift0, lift.states)
    gx = [int(pt.x[0]) for pt in lift.states]
    _assert_lumpable(T_l, gx)
    Tx0, _ = marginal_matrix(T_l, np.full(len(lift.states), 1.0 / len(lift.states)), gx)
    record("lifted_constant_eta_equals_base", float(np.max(np.abs(Tx0 - base))))

    # freshly drawn directions make the integrator-map chain plain Hamiltonian
    dm, T_dm = reg["directional_map_grid"]
    Tx_dm, _ = marginal_matrix(T_dm, dm.check_pmf, dm.x_groups)
    Tx_h, _ = marginal_matrix(T_h, hmc.check_pmf, hmc.x_groups)
    record("directional_fresh_d_equals_hmc", float(np.max(np.abs(Tx_dm - Tx_h))))

    # full refresh collapses the persistent coupling chain onto the fresh one
    inm, T_inm = reg["irr_nice_mc_grid"]
    Tx_inm, _ = marginal_matrix(T_inm, inm.check_pmf, dm.x_groups)
    record("irr_nice_alpha1_marginal_equals_directional",
           float(np.max(np.abs(Tx_inm - Tx_dm))))

    # composition product equals direct path enumeration
    from .diagnostics import transition_matrix_direct

    pers, T_p = reg["persistent_hmc_grid"]
    T_pd = transition_matrix_direct(pers.kernel, pers.states)
    record("composition_product_equals_direct",
           float(np.max(np.abs(T_p - T_pd))), tol=1e-14)

    # lifted kernel composition equals the directly assembled lifted matrix
    Txd = lift.check_matrix(T_lift)
    LM = lifted_matrix(base, [0.0, 1.0, 2.0])
    LM_interleaved = np.zeros_like(LM)
    n = 3
    for i in range(n):
        for di in (0, 1):
            for j in range(n):
                for dj in (0, 1):
                    LM_interleaved[2 * i + di, 2 * j + dj] = LM[i + n * di, j + n * dj]
    record("lifted_kernel_equals_direct_matrix",
           float(np.max(np.abs(Txd - LM_interleaved))))

    return out


def run_all() -> list[CheckResult]:
    """Every check, with each finite case's matrix built once for the
    stationarity, the balance and the reduction checks."""
    built = _built(finite_cases())
    return (run_involutions() + _stationarity_checks(built) + _balance_checks(built)
            + _reduction_checks(built))

"""The vectorized multi-chain runners must follow the kernel engine.

With one chain and a shared seed the two paths consume the random stream in
the same order, so over the 400 steps pinned here trajectories and accept
decisions coincide exactly.  Over long runs on mog2 they drift apart by
rounding, because `mog2_batch` is a second copy of the target whose sums and
``exp`` can round differently in the last bit: with seed 11 batch MALA first
differs from the engine at step 821 of 20000, by at most 1.3e-15.  The
coupling maps and the logistic posterior have one copy each, which takes
rows; their tests check that a row equals a single point.
"""

import math

import numpy as np
import pytest

from imcmc.batch import (
    batch_coupling_forward,
    batch_coupling_inverse,
    batch_irr_mala,
    batch_irr_nice_mc,
    batch_mala,
    batch_nice_mc,
    logreg_batch,
    mog2_batch,
    normal_batch,
)
from imcmc.core import make_rng, run_chain
from imcmc.maps import CouplingMap, affine_coupling
from imcmc.samplers import (
    default_init,
    make_directional_map,
    make_irr_mala,
    make_irr_nice_mc,
    make_mh,
    mala_proposal,
)
from imcmc.targets import LogisticPosterior, mog2

N_STEPS = 400


@pytest.fixture(scope="module")
def coupling():
    scales = np.array([math.sqrt(4.5), math.sqrt(0.5)])
    return CouplingMap([("swap",), ("linear", scales, 1.0 / scales),
                        ("add_v", lambda y: 0.1 * np.tanh(y / 3.0))],
                       name="mog2_coupling", slot="v")


def test_batch_targets_match_scalar():
    m2 = mog2()
    mb = mog2_batch()
    rng = make_rng(0)
    X = rng.standard_normal((50, 2)) * 2.0
    lp = mb.logpdf(X)
    g = mb.grad(X)
    for i in range(50):
        assert lp[i] == pytest.approx(m2.logpdf(X[i]), abs=1e-12)
        assert np.max(np.abs(g[i] - m2.grad(X[i]))) < 1e-12


def test_logreg_batch_matches_scalar():
    rng = make_rng(1)
    post = LogisticPosterior(rng.standard_normal((12, 3)),
                             (rng.random(12) < 0.5).astype(float))
    # the bench target is the posterior itself, evaluated over rows
    pb = logreg_batch(post)
    assert pb.logpdf == post.logpdf and pb.grad == post.grad
    TH = rng.standard_normal((20, 4))
    lp = post.logpdf(TH)
    g = post.grad(TH)
    assert lp.shape == (20,) and g.shape == (20, 4)
    # rows go through matrix-matrix products and a single point through
    # matrix-vector ones, which may sum in another order: equal to rounding
    for i in range(20):
        assert lp[i] == pytest.approx(post.logpdf(TH[i]), abs=1e-10)
        assert np.max(np.abs(g[i] - post.grad(TH[i]))) < 1e-10


def test_batch_coupling_matches_pointwise(coupling):
    rng = make_rng(2)
    X = rng.standard_normal((10, 2))
    V = rng.standard_normal((10, 2))
    # volume preserving, and one whose log-det differs from row to row
    for cmap in (coupling, affine_coupling(slot="v")):
        xf, vf, ld = batch_coupling_forward(cmap, X, V)
        xb, vb, ldb = batch_coupling_inverse(cmap, xf, vf)
        assert ld.shape == ldb.shape == (10,)
        assert np.max(np.abs(xb - X)) < 1e-12
        assert np.max(np.abs(vb - V)) < 1e-12
        assert np.max(np.abs(ld + ldb)) < 1e-12
        for i in range(10):
            for rows, point in (((xf, vf, ld), cmap.forward_arrays(X[i], V[i])),
                                ((xb, vb, ldb), cmap.inverse_arrays(xf[i], vf[i]))):
                assert np.array_equal(rows[0][i], point[0])
                assert np.array_equal(rows[1][i], point[1])
                assert rows[2][i] == point[2]
    assert len(set(ld)) == 10  # the affine map's log-det is per row


def test_batch_mala_equals_engine():
    m2, mb = mog2(), mog2_batch()
    kern = make_mh(m2, mala_proposal(m2, 0.05))
    ref = run_chain(kern, kern.layout.point([2.0, 0.0], [0.0, 0.0]), N_STEPS, seed=11)
    got = batch_mala(mb, 0.05, 1, N_STEPS, make_rng(11), np.array([2.0, 0.0]))
    assert np.array_equal(ref.xs, got.xs[:, 0, :])
    assert np.array_equal(ref.accepted[:, 0], got.accepted[:, 0])


def test_batch_irr_mala_equals_engine():
    m2, mb = mog2(), mog2_batch()
    kern = make_irr_mala(m2, 0.05)
    ref = run_chain(kern, default_init(kern, [2.0, 0.0]), N_STEPS, seed=12)
    got = batch_irr_mala(mb, 0.05, 1, N_STEPS, make_rng(12), np.array([2.0, 0.0]))
    assert np.array_equal(ref.xs, got.xs[:, 0, :])
    assert np.array_equal(ref.accepted[:, 0], got.accepted[:, 0])


def test_batch_nice_mc_equals_engine(coupling):
    m2, mb = mog2(), mog2_batch()
    kern = make_directional_map(m2, coupling)
    ref = run_chain(kern, default_init(kern, [2.0, 0.0]), N_STEPS, seed=13)
    got = batch_nice_mc(mb, coupling, 1, N_STEPS, make_rng(13), np.array([2.0, 0.0]))
    assert np.array_equal(ref.xs, got.xs[:, 0, :])
    assert np.array_equal(ref.accepted[:, 0], got.accepted[:, 0])


def test_batch_irr_nice_mc_equals_engine(coupling):
    m2, mb = mog2(), mog2_batch()
    kern = make_irr_nice_mc(m2, coupling, 0.8)
    ref = run_chain(kern, default_init(kern, [2.0, 0.0]), N_STEPS, seed=14)
    got = batch_irr_nice_mc(mb, coupling, 0.8, 1, N_STEPS, make_rng(14),
                            np.array([2.0, 0.0]))
    assert np.array_equal(ref.xs, got.xs[:, 0, :])
    # the move kernel is the second of three in the composition
    assert np.array_equal(ref.accepted[:, 1], got.accepted[:, 0])


def test_batch_chains_are_exchangeable_not_identical():
    mb = normal_batch(2)
    got = batch_mala(mb, 0.2, 8, 3000, make_rng(15), np.zeros(2))
    # different chains see different noise
    assert not np.array_equal(got.xs[:, 0, :], got.xs[:, 1, :])
    # moments pooled across chains look like the target
    pooled = got.xs[500:].reshape(-1, 2)
    assert np.max(np.abs(pooled.mean(axis=0))) < 0.1
    assert np.max(np.abs(pooled.std(axis=0) - 1.0)) < 0.1

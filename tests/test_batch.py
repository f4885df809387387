"""The vectorized multi-chain runners must follow the kernel engine.

With one chain and a shared seed the two paths consume the random stream in
the same order, so over the 400 steps pinned here trajectories and accept
decisions coincide exactly.  Over long runs on mog2 they drift apart by
rounding, because `mog2_batch` is a second copy of the target whose
``np.exp`` can round differently from the scalar target's ``math.exp`` in
the last bit: with seed 11 batch MALA first differs from the engine at step
8516 of 20000, by at most 8.9e-16.  The
coupling maps and the logistic posterior have one copy each, which takes
rows; their tests check that a row equals a single point.
"""

import hashlib
import math

import numpy as np
import pytest

from arithmetic import recorded_on
from imcmc import batch
from imcmc.batch import (
    batch_coupling_forward,
    batch_coupling_inverse,
    batch_irr_mala,
    batch_irr_nice_mc,
    batch_mala,
    batch_nice_mc,
    logreg_batch,
    mog2_batch,
)
from imcmc.cli import default_coupling
from imcmc.core import LogDensity, make_rng, run_chain
from imcmc.maps import affine_coupling
from imcmc.samplers import (
    default_init,
    make_directional_map,
    make_irr_mala,
    make_irr_nice_mc,
    make_mh,
    mala_proposal,
)
from imcmc.targets import MOG2_MU1, MOG2_MU2, MOG2_VAR, LogisticPosterior, mog2

N_STEPS = 400


@pytest.fixture(scope="module")
def coupling():
    return default_coupling("mog2", 2)


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
    # the bench target is the posterior's own density over rows: bitwise
    # the posterior's values, in either order, and for rows changed in
    # place since the last call
    pb = logreg_batch(post)
    TH = rng.standard_normal((20, 4))
    lp = post.logpdf(TH)
    g = post.grad(TH)
    assert lp.shape == (20,) and g.shape == (20, 4)
    for rows in (TH, TH[:5], TH, 3.0 * TH):
        want = post.logpdf(rows).tobytes(), post.grad(rows).tobytes()
        assert (pb.logpdf(rows).tobytes(), pb.grad(rows).tobytes()) == want
        assert (pb.grad(rows).tobytes(), pb.logpdf(rows).tobytes()) == want[::-1]
    moved = TH.copy()
    pb.logpdf(moved)
    moved[3] += 1.0
    assert pb.grad(moved).tobytes() == post.grad(moved).tobytes()
    assert not (pb.logpdf(moved).flags.writeable or pb.grad(moved).flags.writeable)
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
    for cmap in (coupling, affine_coupling()):
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
    const = -math.log(2.0 * math.pi)
    mb = LogDensity(dim=2, logpdf=lambda X: const - 0.5 * np.sum(X * X, axis=1),
                    grad=lambda X: -X)
    got = batch_mala(mb, 0.2, 8, 3000, make_rng(15), np.zeros(2))
    # different chains see different noise
    assert not np.array_equal(got.xs[:, 0, :], got.xs[:, 1, :])
    # moments pooled across chains look like the target
    pooled = got.xs[500:].reshape(-1, 2)
    assert np.max(np.abs(pooled.mean(axis=0))) < 0.1
    assert np.max(np.abs(pooled.std(axis=0) - 1.0)) < 0.1


# sha256 over xs and accepted of each runner at 100 chains x 200 steps on
# mog2 with the CLI's coupling, eps 0.05 and alpha 0.8; recorded before
# the row target shared its component pass between logpdf and grad.  The
# row target's `np.exp` and the coupling's `tanh` are numpy's SIMD loops, so
# the bits hold only on the SIMD level below.
RUNNER_DIGESTS_CONFIG = {"simd": ["AVX512_ICL", "X86_V2", "X86_V3", "X86_V4"]}
RUNNER_DIGESTS = {
    "mala": "cfe936ba69300beda4b3814fc5ee0f6a543dd21a6e6f74506754d82b3b32994e",
    "irr_mala": "478b9cef48018c5e6ca4106e1fb72ffce32c9609af8adde27a981989976c2d29",
    "nice_mc": "21d4cab1b8d185a8a374cc410b5d022fd087a84eb234fa6b75dc7f0340137457",
    "irr_nice_mc": "122163d662cd337bae03f936b59f5aa484ecbb6e5e62dace494ae361bd43038d",
}


def _runner_digest(kind, target):
    cmap, x0 = default_coupling("mog2", 2), np.array([2.0, 0.0])
    runs = {
        "mala": lambda: batch_mala(target, 0.05, 100, 200, make_rng(21), x0),
        "irr_mala": lambda: batch_irr_mala(target, 0.05, 100, 200, make_rng(22), x0),
        "nice_mc": lambda: batch_nice_mc(target, cmap, 100, 200, make_rng(23), x0),
        "irr_nice_mc": lambda: batch_irr_nice_mc(target, cmap, 0.8, 100, 200,
                                                 make_rng(24), x0),
    }
    res = runs[kind]()
    h = hashlib.sha256()
    h.update(res.xs.tobytes())
    h.update(res.accepted.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind", sorted(RUNNER_DIGESTS))
def test_batch_runners_keep_their_100_chain_bits(kind):
    assert _runner_digest(kind, mog2_batch()) == RUNNER_DIGESTS[kind], \
        recorded_on(RUNNER_DIGESTS_CONFIG)


# perfbench rebuilds each bench target from its ``logpdf`` and ``grad`` alone
# (wrapped to count rows), so a traced run takes the pair from two calls
# where the plain target makes one fused call; `bench_batch` checks each
# timed row against a traced one, which holds only if both give the same bits
@pytest.mark.parametrize("kind", sorted(RUNNER_DIGESTS))
def test_a_target_rebuilt_without_its_fused_function_keeps_the_runner_bits(kind):
    target = mog2_batch()
    rebuilt = LogDensity(target.dim, target.logpdf, target.grad)
    assert _runner_digest(kind, rebuilt) == RUNNER_DIGESTS[kind], \
        recorded_on(RUNNER_DIGESTS_CONFIG)


def test_value_and_grad_on_rows_is_logpdf_and_grad_bitwise():
    rng = make_rng(7)
    post = LogisticPosterior(rng.standard_normal((30, 4)),
                             (rng.random(30) < 0.5).astype(float))
    for make in (mog2_batch, post.density):
        X = 3.0 * rng.standard_normal((50, make().dim))
        # a fresh density each time, so no memo answers for another path
        value, g = make().value_and_grad(X)
        assert value.tobytes() == make().logpdf(X).tobytes()
        assert g.tobytes() == make().grad(X).tobytes()


def _two_component_reference():
    """mog2 over rows as two separate component passes, one per function."""
    const = -math.log(2.0 * math.pi) - math.log(MOG2_VAR) + math.log(0.5)

    def comps(X):
        d1, d2 = X - MOG2_MU1, X - MOG2_MU2
        return (const - 0.5 * np.sum(d1 * d1, axis=1) / MOG2_VAR,
                const - 0.5 * np.sum(d2 * d2, axis=1) / MOG2_VAR)

    def logpdf(X):
        c1, c2 = comps(X)
        m = np.maximum(c1, c2)
        return m + np.log(np.exp(c1 - m) + np.exp(c2 - m))

    def grad(X):
        c1, c2 = comps(X)
        m = np.maximum(c1, c2)
        r1, r2 = np.exp(c1 - m), np.exp(c2 - m)
        z = r1 + r2
        r1, r2 = (r1 / z)[:, None], (r2 / z)[:, None]
        return (r1 * -(X - MOG2_MU1) + r2 * -(X - MOG2_MU2)) / MOG2_VAR

    return logpdf, grad


def test_mog2_batch_equals_the_two_component_formulas_bitwise():
    ref_logpdf, ref_grad = _two_component_reference()
    mb = mog2_batch()
    rng = make_rng(3)
    # out to |x| = 40 the far component's weight is lost next to the near
    # one's (their sum rounds to 1), and at |x| = 100 it underflows to 0
    for scale in (1.0, 4.0, 40.0):
        X = rng.uniform(-scale, scale, (200, 2))
        assert np.array_equal(mb.logpdf(X), ref_logpdf(X))
        assert np.array_equal(mb.grad(X), ref_grad(X))
        assert np.array_equal(mb.grad(X[::-1]), ref_grad(X[::-1]))
    far = np.array([[40.0, 3.0], [-40.0, -1.0], [100.0, 0.5], [-100.0, 0.0]])
    assert np.array_equal(mb.logpdf(far), ref_logpdf(far))
    assert np.array_equal(mb.grad(far), ref_grad(far))
    # c1 - c2 = 8 x[0], so the weights are exp(-320) and exp(-800)
    assert 1.0 + math.exp(-320.0) == 1.0 and math.exp(-800.0) == 0.0


def test_mog2_batch_sees_rows_changed_in_place():
    """A runner's accept update edits the row array between calls; the next
    call must see the new rows, not the ones it saw before."""
    ref_logpdf, ref_grad = _two_component_reference()
    mb = mog2_batch()
    X = make_rng(4).standard_normal((6, 2)) * 2.0
    mb.logpdf(X)
    X[::2] = -X[::2]
    assert np.array_equal(mb.grad(X), ref_grad(X))
    X[1] = 7.0
    assert np.array_equal(mb.logpdf(X), ref_logpdf(X))


def test_bench_targets_hand_out_read_only_results_and_runners_copy_their_state(coupling):
    """The bench targets are `LogDensity`s, whose memos hand results out
    read-only.  Each runner copies the start values it updates in place, so
    runs that accept moves, and so write their state, raise nothing."""
    rng = make_rng(5)
    post = LogisticPosterior(rng.standard_normal((12, 3)),
                             (rng.random(12) < 0.5).astype(float))
    mb = mog2_batch()
    for target in (mb, logreg_batch(post)):
        X = rng.standard_normal((4, target.dim))
        for value in (target.logpdf(X), target.grad(X), *target.value_and_grad(X)):
            assert not value.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                value[0] = 0.0
    x0 = np.array([2.0, 0.0])
    for run in (lambda: batch_mala(mb, 0.05, 4, 20, make_rng(8), x0),
                lambda: batch_irr_mala(mb, 0.05, 4, 20, make_rng(8), x0),
                lambda: batch_nice_mc(mb, coupling, 4, 20, make_rng(8), x0),
                lambda: batch_irr_nice_mc(mb, coupling, 0.8, 4, 20, make_rng(8), x0)):
        assert run().accepted.any()


@pytest.mark.parametrize("runner", [batch_mala, batch_irr_mala])
def test_mog2_batch_makes_one_component_pass_per_proposal(runner, monkeypatch):
    """The Langevin runners take ``value_and_grad`` at each proposal (and at
    the start), which makes one pass.  With a pass for the value and another
    for the gradient it would be 2 per step plus 2 at the start."""
    passes = []

    def counted(X):
        passes.append(X.shape)
        return components(X)

    components = batch._mog2_components
    monkeypatch.setattr(batch, "_mog2_components", counted)
    runner(mog2_batch(), 0.05, 5, 40, make_rng(6), np.array([2.0, 0.0]))
    assert len(passes) == 40 + 1
    assert set(passes) == {(5, 2)}

"""Involution images built in one piece, and the records of `run_chain`.

Each map that builds its image as one point is checked against the image
that composing `JointPoint`'s ``with_*`` copies makes, bit for bit, on
seeded points of layouts with and without a direction tag and the scratch
slot "a"; the image must share no block with its input.  `run_chain` must
keep its shapes, dtypes and per-sub-kernel records.
"""

import math
import re

import numpy as np
import pytest

from imcmc.core import (
    ImcmcKernel,
    Involution,
    LogDensity,
    _reader,
    _writer,
    compose,
    make_rng,
    random_points,
    run_chain,
)
from imcmc.errors import DensityError
from imcmc.maps import (
    CouplingMap,
    LeapfrogConfig,
    _swap_negate,
    additive_coupling,
    affine_coupling,
    hmc_involution,
    leapfrog,
    swap_blocks,
    swap_slots,
)
from imcmc.samplers import (
    default_init,
    make_irr_mala,
    make_mh,
    random_walk_proposal,
    xv_layout,
)
from imcmc.targets import mog2

LAYOUTS = {
    "xv": xv_layout(2),
    "xv_scratch": xv_layout(2, scratch=True),
    "xvd": xv_layout(2, tags=("d",)),
    "xvd_scratch": xv_layout(2, tags=("d",), scratch=True),
}


def _bits(point):
    return (point.x.dtype, point.x.tobytes(), point.v.dtype, point.v.tobytes(),
            point.tags, point.layout)


def _points(layout, seed):
    return random_points(layout, 20, make_rng(seed))


# ---------------------------------------------------------------------------
# the images the maps made by composing `with_*` copies
# ---------------------------------------------------------------------------

def _composed_swap_blocks(z):
    return z.with_x(z.slot("v").copy()).with_slot("v", z.x), 0.0


def _composed_swap_slots(z):
    return z.with_slot("v", z.slot("a")).with_slot("a", z.slot("v")), 0.0


def _composed_swap_negate(z):
    return z.with_x(z.v.copy()).with_v(z.x.copy()).with_tag("d", -z.tag("d")), 0.0


def _composed_hmc(cfg, grad):
    def fn(z):
        x, v = leapfrog(z.x, z.slot("v"), cfg, grad)
        return z.with_x(x).with_slot("v", -v), 0.0
    return fn


def _composed_grad_swap(density):
    def fn(z):
        s = 1.0 if float(density.grad(z.x) @ density.grad(z.v)) >= 0.0 else -1.0
        return (z.with_x(z.v.copy()).with_v(z.x.copy())
                .with_tag("d", int(-z.tag("d") * s)), 0.0)
    return fn


def _composed_arrays(coupling, x, v, inverse):
    """`CouplingMap.forward_arrays` (or ``inverse_arrays``) as it was written
    with up-front copies and a log-det array."""
    x, v = x.copy(), v.copy()
    ld = np.zeros(x.shape[:-1])
    sign = -1.0 if inverse else 1.0
    for layer in (reversed(coupling._steps) if inverse else coupling._steps):
        kind = layer[0]
        if kind == "add_x":
            x = x - layer[1](v) if inverse else x + layer[1](v)
        elif kind == "add_v":
            v = v - layer[1](x) if inverse else v + layer[1](x)
        elif kind == "scale_v":
            s = layer[1](x)
            v = v * np.exp(sign * s)
            if inverse:
                ld -= s.sum(axis=-1)
            else:
                ld += s.sum(axis=-1)
        elif kind == "swap":
            x, v = v, x
        elif inverse:
            x, v = x / layer[1], v / layer[2]
            ld -= layer[3]
        else:
            x, v = x * layer[1], v * layer[2]
            ld += layer[3]
    return x, v, ld[()]


def _composed_coupling(coupling, inverse):
    def fn(z):
        x, v, ld = _composed_arrays(coupling, z.x, z.slot("v"), inverse)
        return z.with_x(x).with_slot("v", v), ld
    return fn


def _irr_mala_move(density):
    return make_irr_mala(density, 0.1).kernels()[0].involution


M2 = mog2()
CFG = LeapfrogConfig(0.3, 3)
LINEAR = CouplingMap([("add_x", np.tanh), ("linear", [2.0, 0.5], [0.25, 4.0]),
                      ("swap",), ("scale_v", np.sin)], name="mixed")
SWAP_ONLY = CouplingMap([("swap",)], name="swap_only")

# (name, the map's image function, the composed one, layouts)
MAPS = [
    ("swap_blocks", swap_blocks().fn, _composed_swap_blocks, ("xv", "xv_scratch")),
    ("swap_slots", swap_slots("v", "a").fn, _composed_swap_slots,
     ("xv_scratch", "xvd_scratch")),
    ("swap_negate", _swap_negate.fn, _composed_swap_negate, ("xvd",)),
    ("hmc_involution", hmc_involution(CFG, M2.grad).fn, _composed_hmc(CFG, M2.grad),
     ("xv", "xv_scratch")),
    ("grad_swap", _irr_mala_move(M2).fn, _composed_grad_swap(M2), ("xvd",)),
] + [
    (f"{coupling.name}_{way}", getattr(coupling, way),
     _composed_coupling(coupling, way == "inverse"), ("xv", "xvd_scratch"))
    for coupling in (additive_coupling(), affine_coupling(), LINEAR, SWAP_ONLY)
    for way in ("forward", "inverse")
]
CASES = [(name, fn, ref, lay) for name, fn, ref, lays in MAPS for lay in lays]


@pytest.mark.parametrize("name, fn, composed, layout", CASES,
                         ids=[f"{c[0]}-{c[3]}" for c in CASES])
def test_one_piece_image_equals_the_composed_copies(name, fn, composed, layout):
    for z in _points(LAYOUTS[layout], 7):
        got, ld = fn(z)
        want, want_ld = composed(z)
        assert _bits(got) == _bits(want), name
        assert float(ld).hex() == float(want_ld).hex(), name


@pytest.mark.parametrize("name, fn, composed, layout", CASES,
                         ids=[f"{c[0]}-{c[3]}" for c in CASES])
def test_image_shares_no_block_with_its_input(name, fn, composed, layout):
    for z in _points(LAYOUTS[layout], 8):
        got, _ = fn(z)
        kept = _bits(got)
        z.x[:] = 101.0
        z.v[:] = -101.0
        assert _bits(got) == kept, name


@pytest.mark.parametrize("coupling", [additive_coupling(), affine_coupling(), LINEAR,
                                      SWAP_ONLY], ids=lambda c: c.name)
@pytest.mark.parametrize("way", ["forward", "inverse"])
def test_coupling_rows_equal_the_composed_rows(coupling, way):
    rng = make_rng(9)
    x, v = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
    got = getattr(coupling, f"{way}_arrays")(x, v)
    want = _composed_arrays(coupling, x, v, way == "inverse")
    for a, b in zip(got, want):
        assert isinstance(a, np.ndarray) and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    # a single point gets a float log-det, and no returned block is an input
    gx, gv, ld = getattr(coupling, f"{way}_arrays")(x[0], v[0])
    assert isinstance(ld, float)
    assert not any(np.shares_memory(a, b) for a in (gx, gv) for b in (x, v))


WRITES = [("xv", "v"), ("xv_scratch", "v"), ("xv_scratch", "a"), ("xvd", "d"),
          ("xvd_scratch", "a"), ("xvd_scratch", "x")]


@pytest.mark.parametrize("layout, slot", WRITES, ids=[f"{a}-{b}" for a, b in WRITES])
def test_slot_writer_equals_the_with_copy(layout, slot):
    layout = LAYOUTS[layout]
    write, read = _writer(layout, slot), _reader(layout, slot)
    rng = make_rng(10)
    for z in _points(layout, 11):
        value = -z.tag(slot) if slot == "d" else rng.standard_normal(2)
        got = write(z, value)
        want = (z.with_tag(slot, value) if slot == "d" else z.with_x(value) if slot == "x"
                else z.with_slot(slot, value))
        assert _bits(got) == _bits(want)
        if slot != "d":
            assert np.array_equal(read(got), value)
        if slot in layout.slots:
            value[:] = 55.0  # a slot writer keeps no reference to the value
            assert _bits(got) == _bits(want)


# ---------------------------------------------------------------------------
# chain records
# ---------------------------------------------------------------------------

def _rwm(density=M2):
    return make_mh(density, random_walk_proposal(density.dim, 0.8), name="rwm")


@pytest.mark.parametrize("record_tags", [False, True])
def test_an_empty_chain_keeps_its_shapes_and_dtypes(record_tags):
    kernel = make_irr_mala(M2, 0.1)
    init = default_init(kernel, np.zeros(2))
    res = run_chain(kernel, init, 0, seed=1, record_tags=record_tags)
    assert res.xs.shape == (0, 2) and res.xs.dtype == np.float64
    assert res.accepted.shape == (0, 2) and res.accepted.dtype == np.bool_
    assert res.accept_prob.shape == (0, 2) and res.accept_prob.dtype == np.float64
    if record_tags:
        assert res.tags.shape == (0, 1) and res.tags.dtype == np.int_
    else:
        assert res.tags is None
    assert res.final is init


def test_a_composition_records_each_sub_kernels_flag_and_probability():
    kernel = make_irr_mala(M2, 0.3)
    n = 200
    res = run_chain(kernel, default_init(kernel, [1.0, 0.0]), n, seed=3, record_tags=True)
    assert res.accepted.shape == (n, 2) and res.accept_prob.shape == (n, 2)
    # the same steps taken one sub-kernel at a time
    rng, point = make_rng(3), default_init(kernel, [1.0, 0.0])
    flags, probs, xs, tags = [], [], [], []
    for _ in range(n):
        for k in kernel.kernels():
            out = k.step(point, rng)
            point = out.point
            flags.append(out.accepted)
            probs.append(out.prob)
        xs.append(point.x)
        tags.append(point.tags)
    assert res.accepted.tolist() == np.reshape(flags, (n, 2)).tolist()
    assert res.accept_prob.tobytes() == np.reshape(probs, (n, 2)).astype(float).tobytes()
    assert res.xs.tobytes() == np.array(xs).tobytes()
    assert res.tags.tolist() == [list(t) for t in tags]
    assert not res.accepted[:, 0].all() and res.accepted[:, 1].all()
    assert 0.0 < res.accept_prob[:, 0].min() and (res.accept_prob[:, 1] == 1.0).all()


def test_a_density_error_names_the_kernel_and_the_step():
    density = LogDensity(dim=1, logpdf=lambda x: math.nan if x[0] > 1.0 else -0.5 * x[0] ** 2)
    kernel = _rwm(density)
    with pytest.raises(DensityError) as err:
        run_chain(kernel, default_init(kernel, [0.0]), 1000, seed=2)
    match = re.fullmatch(r"rwm step (\d+): rwm: joint log-density is NaN", str(err.value))
    assert match is not None
    # the steps before the failing one run as they do in a chain stopped there
    i = int(match.group(1))
    res = run_chain(kernel, default_init(kernel, [0.0]), i, seed=2)
    assert res.xs.shape == (i, 1) and (res.xs <= 1.0).all()


def test_kernels_score_each_factor_through_one_bound_call():
    kernel = _rwm()
    assert isinstance(kernel, ImcmcKernel) and len(kernel._scores) == 1
    z = default_init(kernel, [0.3, -0.2]).with_slot("v", [0.1, 0.4])
    (slot, cond), = kernel.aux_refresh
    assert kernel._scores[0](z) == cond.logpdf(z.slot(slot), z)
    assert kernel.joint_logpdf(z) == float(M2.logpdf(z.x)) + cond.logpdf(z.slot(slot), z)


def test_a_composition_with_an_identity_kernel_records_it():
    identity = ImcmcKernel(xv_layout(2), None, involution=Involution(lambda z: (z, 0.0)),
                           name="identity")
    kernel = compose([_rwm(), identity], name="pair")
    res = run_chain(kernel, default_init(kernel, [0.0, 0.0]), 50, seed=4)
    assert res.accepted[:, 1].all() and (res.accept_prob[:, 1] == 1.0).all()

"""Each library input check, run once: a malformed argument raises the
documented error type instead of failing later or deeper down."""

import numpy as np
import pytest

from imcmc import batch, cli, core
from imcmc.core import Layout, LogDensity
from imcmc.errors import ConfigError
from imcmc.maps import (LeapfrogConfig, affine_x_flow, momentum_flip, swap_blocks,
                        swap_slots)
from imcmc.samplers import (
    BlockConditional,
    ModelSpace,
    gaussian_family,
    make_gibbs,
    make_irr_mala,
    make_lifted_rw1d,
    make_look_ahead,
    make_sample_adaptive,
    momentum_refresh_kernel,
    xv_layout,
)
from imcmc.targets import (GridDensity, LogisticPosterior, bivariate_normal, gaussian,
                           standard_normal)


def _no_gradient():
    return LogDensity(dim=1, logpdf=lambda x: -0.5 * float(x @ x))


def _point(layout):
    return layout.point(np.zeros(layout.x_dim), np.zeros(layout.v_dim))


def _gibbs_block():
    return BlockConditional((0,), lambda rng, x: x[:1], lambda value, x: 0.0)


# name -> (a call that breaks one input check, the error it raises)
CHECKS = {
    # samplers
    "gaussian_family_row_width": (
        lambda: gaussian_family(2, 1.0).logpdf_rows(np.zeros((3, 1)), np.zeros(2)),
        ValueError),
    "partial_refresh_without_scratch": (
        lambda: momentum_refresh_kernel(xv_layout(1), 0.5), ConfigError),
    "sample_adaptive_empty_ensemble": (
        lambda: make_sample_adaptive(standard_normal(1), 0, gaussian_family(1, 1.0)),
        ConfigError),
    "gibbs_unknown_scan": (
        lambda: make_gibbs(standard_normal(1), [_gibbs_block()], scan="sweep"), ConfigError),
    "look_ahead_depth_zero": (
        lambda: make_look_ahead(standard_normal(1), LeapfrogConfig(0.5), 0, 1.0),
        ConfigError),
    "look_ahead_without_gradient": (
        lambda: make_look_ahead(_no_gradient(), LeapfrogConfig(0.5), 2, 1.0), ConfigError),
    "lifted_rw1d_two_dimensional": (
        lambda: make_lifted_rw1d(standard_normal(2), 1.0), ConfigError),
    "irr_mala_without_gradient": (lambda: make_irr_mala(_no_gradient(), 0.1), ConfigError),
    "model_space_empty": (lambda: ModelSpace(2, {}), ConfigError),
    "model_space_dimension_out_of_range": (
        lambda: ModelSpace(2, {0: standard_normal(3)}), ConfigError),
    # core
    "layout_negative_dimension": (lambda: Layout(x_dim=-1), ConfigError),
    "layout_slot_past_v_block": (
        lambda: Layout(x_dim=1, v_dim=1, slots={"v": slice(0, 2)}), ConfigError),
    "layout_unknown_tag": (lambda: Layout(x_dim=1).tag_index("d"), ConfigError),
    "layout_tag_count": (lambda: Layout(x_dim=1, tags=("d",)).point([0.0]), ConfigError),
    "reader_unknown_slot": (lambda: core._reader(xv_layout(1), "w"), ConfigError),
    "writer_unknown_slot": (lambda: core._writer(xv_layout(1), "w"), ConfigError),
    # maps
    "affine_flow_zero_scale": (lambda: affine_x_flow([0.0], [0.0]), ConfigError),
    "momentum_flip_empty_slot": (
        lambda: momentum_flip().forward(_point(Layout(x_dim=1, slots={"v": slice(0, 0)}))),
        ConfigError),
    "swap_blocks_unequal": (
        lambda: swap_blocks().forward(_point(Layout(x_dim=2, v_dim=1,
                                                    slots={"v": slice(0, 1)}))),
        ConfigError),
    "swap_slots_unequal": (
        lambda: swap_slots("a", "b").forward(_point(Layout(
            x_dim=1, v_dim=3, slots={"a": slice(0, 1), "b": slice(1, 3)}))),
        ConfigError),
    # targets
    "gaussian_zero_variance": (lambda: gaussian([0.0], [0.0]), ConfigError),
    "bivariate_normal_unit_correlation": (lambda: bivariate_normal(1.0), ConfigError),
    "logistic_labels_misaligned": (
        lambda: LogisticPosterior(np.zeros((3, 2)), np.zeros(2)), ConfigError),
    "logistic_labels_not_binary": (
        lambda: LogisticPosterior(np.zeros((2, 2)), np.array([0.0, 2.0])), ConfigError),
    "grid_weights_misaligned": (
        lambda: GridDensity(np.array([0.0, 1.0]), np.array([0.0])), ConfigError),
    "grid_without_gradient_envelope": (
        lambda: GridDensity(np.array([0.0]), np.array([0.0])).grad(np.zeros(1)),
        ConfigError),
    # batch and cli
    "batch_irr_nice_mc_refresh_strength": (
        lambda: batch.batch_irr_nice_mc(None, None, 1.5, 1, 1, None, None), ConfigError),
    "ess_without_trace_or_config": (lambda: cli.cmd_ess(None, None), ConfigError),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_input_check_raises_its_documented_error(name):
    call, error = CHECKS[name]
    with pytest.raises(error):
        call()

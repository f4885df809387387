"""The names every shipped kernel, sub-kernel and involution reports.

Names label traces, errors and the oracle's rows, so a builder that stops
taking a ``name`` option must keep producing the same one.  The tables were
recorded from the builders while they still took the option.
"""

import pytest

from imcmc import cli, suite
from imcmc.samplers import LookAheadKernel

KIND_NAMES = {
    "rwm": ["mh", "swap"],
    "mala": ["mh", "swap"],
    "irr_mala": ["irr_mala", "irr_mala_move", "grad_swap", "irr_mala_flip", "irr_mala_flip"],
    "hmc": ["hmc", "flip*leapfrog^3"],
    "persistent_hmc": ["persistent", "refresh", "swap_slots", "persistent_move",
                       "dir[leapfrog]", "persistent_flip", "persistent_flip"],
    "look_ahead": ["look_ahead", "refresh", "swap_slots", "look_ahead_cascade",
                   "look_ahead_move", "flip*leapfrog^1", "look_ahead_flip", "look_ahead_flip"],
    "neutra": ["neutra", "embed[identity^-1,flip*leapfrog^3]"],
    "nice_mc": ["directional", "dir[mog2_coupling]"],
    "irr_nice_mc": ["irr_nice_mc", "refresh", "swap_slots", "irr_nice_mc_move",
                    "dir[mog2_coupling]", "irr_nice_mc_flip", "irr_nice_mc_flip"],
    "mtm": ["mtm", "mtm_swap"],
    "lifted_rw": ["lifted_rw", "lifted_rw_move", "swap_negate", "lifted_rw_flip",
                  "lifted_rw_flip"],
    "cdf": ["cdf"],
}

CASE_NAMES = {
    "mh_2state_metropolis": ["mh_metropolis", "swap"],
    "mh_2state_barker": ["mh_barker", "swap"],
    "mala_grid": ["mala", "swap"],
    "mixture_proposal_2x2": ["mixture_proposal", "swap"],
    "mtm_2state_k2": ["mtm", "mtm_swap"],
    "sample_adaptive_3state": ["sample_adaptive", "ensemble_swap"],
    "sample_adaptive_generalized": ["sample_adaptive", "ensemble_swap"],
    "hmc_grid": ["hmc", "flip*leapfrog^1"],
    "rmhmc_grid": ["rmhmc", "flip*implicit_leapfrog^1"],
    "neutra_identity_grid": ["neutra", "embed[identity^-1,flip*leapfrog^1]"],
    "neutra_affine_grid": ["neutra", "embed[affine_x^-1,flip*leapfrog^1]"],
    "directional_map_grid": ["directional", "dir[leapfrog]"],
    "persistent_hmc_grid": ["persistent_hmc", "refresh", "identity", "persistent_hmc_move",
                            "dir[leapfrog]", "persistent_hmc_flip", "persistent_hmc_flip"],
    "look_ahead_grid": ["look_ahead", "refresh", "identity", "look_ahead_cascade",
                        "look_ahead_move", "flip*leapfrog^1", "look_ahead_flip",
                        "look_ahead_flip"],
    "irr_nice_mc_grid": ["irr_nice_mc", "refresh", "identity", "irr_nice_mc_move",
                         "dir[leapfrog]", "irr_nice_mc_flip", "irr_nice_mc_flip"],
    "irr_mala_grid": ["irr_mala", "irr_mala_move", "grad_swap", "irr_mala_flip",
                      "irr_mala_flip"],
    "gibbs_systematic_2x2": ["gibbs", "gibbs[0]", "swap(0,)", "gibbs[1]", "swap(1,)"],
    "gibbs_random_2x2": ["gibbs", "gibbs_mix"],
    "lifted_3state": ["lifted", "lifted_move", "swap_negate", "lifted_flip", "lifted_flip"],
    "rjmcmc_bits": ["transdim", "jump"],
    "nrj_bits": ["transdim", "transdim_move", "nrj_mix", "transdim_flip", "transdim_flip"],
    "cdf_rotation": ["cdf"],
    "trick5_cycle_3state": ["cycle_pair", "refresh", "identity", "cycle_pair_move",
                            "dir[cycle]", "cycle_pair_flip", "cycle_pair_flip"],
}

GALLERY_NAMES = {
    "swap": "swap",
    "flip": "flip",
    "hmc_explicit_normal": "flip*leapfrog^5",
    "hmc_explicit_mog2": "flip*leapfrog^5",
    "hmc_implicit_metric": "flip*implicit_leapfrog^3",
    "direction_additive_coupling": "dir[nice]",
    "direction_affine_coupling": "dir[affine]",
    "embedded_affine_hmc": "embed[affine_x,flip*leapfrog^5]",
    "embedded_swap": "embed[affine_x,swap]",
    "irr_mala_map": "grad_swap",
}


def names(kernel):
    """The kernel's name, then each sub-kernel's names in order, then its
    involution's (or, for a look-ahead cascade, its move kernel's names)."""
    out = [kernel.name]
    subs = kernel.kernels()
    for sub in subs if subs != [kernel] else []:
        out += names(sub)
    if getattr(kernel, "involution", None) is not None:
        out.append(kernel.involution.name)
    if isinstance(kernel, LookAheadKernel):
        out += names(kernel.move)
    return out


@pytest.mark.parametrize("kind", list(cli.KINDS))
def test_cli_kind_names(kind):
    target = {"lifted_rw": "bimodal1d", "cdf": "normal1d"}.get(kind, "mog2")
    given = {"scale": 0.5, "eps": 0.1, "k": 3, "alpha": 0.8, "K": 2}
    params = {k: v for k, v in given.items() if k in cli.KINDS[kind].ranges}
    cfg = cli.RunConfig(kind=kind, target=target, params=params)
    assert names(cli.build_kernel(cfg, cli.build_target(target))) == KIND_NAMES[kind]


def test_finite_case_names():
    assert {case.name: names(case.kernel) for case in suite.finite_cases()} == CASE_NAMES


def test_involution_gallery_names():
    assert {name: inv.name for name, inv, _, _ in suite.involution_gallery()} == GALLERY_NAMES

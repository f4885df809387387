"""Reversible samplers and their persistent-direction counterparts.

Two pairs on the two-mode planar target: a gradient walk against its
direction-augmented version, and a coupling-map chain against its
persistent one.  All four run through the vectorized multi-chain path used
by the benchmark command.
"""

import math

import numpy as np

from imcmc.batch import (
    batch_irr_mala,
    batch_irr_nice_mc,
    batch_mala,
    batch_nice_mc,
    mog2_batch,
)
from imcmc.core import make_rng
from imcmc.diagnostics import ess_batch_means
from imcmc.maps import CouplingMap

target = mog2_batch()
scales = np.array([math.sqrt(4.5), math.sqrt(0.5)])
coupling = CouplingMap([("swap",), ("linear", scales, 1.0 / scales),
                        ("add_v", lambda y: 0.1 * np.tanh(y / 3.0))],
                       name="mog2_coupling")

CHAINS, STEPS, BURN = 20, 5000, 500
x0 = np.array([2.0, 0.0])

runs = {
    "mala": lambda: batch_mala(target, 0.05, CHAINS, STEPS, make_rng(1), x0),
    "irr_mala": lambda: batch_irr_mala(target, 0.05, CHAINS, STEPS, make_rng(1), x0),
    "nice_mc": lambda: batch_nice_mc(target, coupling, CHAINS, STEPS, make_rng(1), x0),
    "irr_nice_mc": lambda: batch_irr_nice_mc(target, coupling, 0.8, CHAINS, STEPS,
                                             make_rng(1), x0),
}

print(f"{'sampler':14s} {'accept':>7s} {'ess/n mean':>11s} {'mode weight':>12s}")
for name, run in runs.items():
    res = run()
    kept = res.xs[BURN:]
    ess = np.array([ess_batch_means(kept[:, c, :]).ess / kept.shape[0]
                    for c in range(CHAINS)])
    weight = float((kept[..., 0] > 0).mean())
    print(f"{name:14s} {res.accepted.mean():>7.3f} {ess.mean():>11.4f} "
          f"{weight:>12.3f}")

print("""
The gradient walks crawl: their step scale is tied to the mode width, so
crossing between modes is rare and ess/n is tiny.  The coupling-map chains
propose globally (the map is matched to the target's overall spread) and
mix two orders of magnitude faster.  Mode weights hover around one half for
everything that actually crosses.
""")

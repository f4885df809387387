"""Jumping between models of different dimension.

Two nested Gaussian models with equal evidence: the chain should spend half
its time in each.  The reversible-jump kernel proposes the other model each
step; the non-reversible variant walks the model ladder with a persistent
direction that reverses exactly when a jump is rejected.
"""

import math

import numpy as np

from imcmc.core import LogDensity, run_chain
from imcmc.samplers import ModelSpace, default_init, make_transdimensional


def model1(y):
    return math.log(0.5) - 0.5 * y[0] ** 2 - 0.5 * math.log(2 * math.pi)


def model2(y):
    v2 = 0.25
    return (math.log(0.5) - 0.5 * y[0] ** 2 - 0.5 * math.log(2 * math.pi)
            - 0.5 * y[1] ** 2 / v2 - 0.5 * math.log(2 * math.pi * v2))


space = ModelSpace(2, {1: LogDensity(1, model1), 2: LogDensity(2, model2)})

rj = make_transdimensional(space, mode="reversible")
res = run_chain(rj, default_init(rj, np.zeros(2), tags={"k": 1, "j": 2}),
                50_000, seed=14, record_tags=True)
f1 = float((res.tags[:, rj.layout.tag_index("k")] == 1).mean())
print(f"reversible jumps:     model-1 frequency {f1:.3f} "
      f"(equal evidence -> 0.5), accept {res.accepted.mean():.3f}")

nrj = make_transdimensional(space, mode="nonreversible", tau=0.5)
res = run_chain(nrj, default_init(nrj, np.zeros(2), tags={"k": 1, "nu": 1, "m": 0}),
                50_000, seed=15, record_tags=True)
f1 = float((res.tags[:, nrj.layout.tag_index("k")] == 1).mean())
print(f"non-reversible jumps: model-1 frequency {f1:.3f}, "
      f"move accept {res.accepted[:, 0].mean():.3f}")

# watch the direction do its thing over a short window
short = run_chain(nrj, default_init(nrj, np.zeros(2), tags={"k": 1, "nu": 1, "m": 0}),
                  12, seed=4, record_tags=True)
k_i, nu_i, m_i = (nrj.layout.tag_index(t) for t in ("k", "nu", "m"))
print("\nstep  kind      accepted  model  direction")
for t in range(12):
    kind = "jump  " if short.tags[t, m_i] == 1 else "within"
    print(f"{t:4d}  {kind}    {str(bool(short.accepted[t, 0])):8s} "
          f"{short.tags[t, k_i]:5d}  {short.tags[t, nu_i]:+d}")
print("\nthe direction column flips exactly on rejected jumps: bouncing off")
print("the end of the model ladder turns the walker around instead of")
print("wasting the step.")

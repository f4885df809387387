"""A hardware-free guard on the cost of a chain step: Python calls per step.

Time per step on a shared machine moves with the machine; the number of
Python function calls a step makes does not.  Across the 12 CLI kinds the
time per step and the call events per step correlate closely, so a change
that adds calls to a step adds time to it.

For each kind at the benchmark's ``chains_mog2`` parameters
(`test_evaluations.SPECS`), a warm-up chain runs first, and then a fresh
kernel runs ``STEPS`` steps from its default start at seed ``SEED`` under
`sys.setprofile`.  Only calls into
frames of the imcmc package are counted, so numpy's own Python functions
stay out of the count.  Each kind's count must be at most its entry in
`CALLS`; a change that lowers a count should lower the entry.

Run as a script (``python3 tests/test_step_calls.py``) it prints each
kind's count and calls per step, and then the counts as a `CALLS` dict in
Python source, ready to paste.  It also prints the hardware-free cost of
one ``chains_mog2`` sweep: each kind's call events per step (``call`` and
``c_call``, into any code, over ``SWEEP_STEPS`` steps at seed ``SEED``
after a warm-up chain), weighted by the kind's segment length in the
benchmark, and summed.
"""

import os
import sys

if __name__ == "__main__":
    # run as a script from a checkout: the library is the one in src/
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "src"))

import pytest

import imcmc
from imcmc.cli import RunConfig, build_kernel, build_target
from imcmc.core import run_chain
from imcmc.samplers import default_init
from test_evaluations import SPECS

STEPS = 100
SEED = 1
# steps per kind when the events of a sweep are counted
SWEEP_STEPS = 1000

# calls into imcmc frames over one chain of STEPS steps, run_chain included
CALLS = {
    "rwm": 1911, "mala": 3419, "irr_mala": 4948, "hmc": 6016, "persistent_hmc": 6018,
    "look_ahead": 12710, "neutra": 6616, "nice_mc": 4511, "irr_nice_mc": 5612,
    "mtm": 13910, "lifted_rw": 3313, "cdf": 710,
}

# the directory the frames' file names start with, as the import wrote it
_PACKAGE = os.path.dirname(imcmc.__file__) + os.sep


def _kernel(kind):
    target, params = SPECS[kind]
    tgt = build_target(target)
    kernel = build_kernel(RunConfig(kind=kind, target=target, params=dict(params)), tgt)
    return kernel, default_init(kernel, tgt["x0"])


def _profiled(kind: str, steps: int, profile) -> None:
    """A ``steps``-step chain of a fresh ``kind`` kernel under ``profile``,
    after a warm-up chain."""
    run_chain(*_kernel(kind), STEPS, seed=SEED)
    kernel, init = _kernel(kind)
    sys.setprofile(profile)
    try:
        run_chain(kernel, init, steps, seed=SEED)
    finally:
        sys.setprofile(None)


def count_calls(kind: str) -> int:
    """Calls into imcmc frames over one ``STEPS``-step chain of ``kind``."""
    n = [0]
    # the code objects seen, each with whether it is imcmc's
    ours: dict = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            mine = ours.get(code)
            if mine is None:
                mine = ours[code] = code.co_filename.startswith(_PACKAGE)
            n[0] += mine

    _profiled(kind, STEPS, profile)
    return n[0]


def events_per_step(kind: str) -> float:
    """``call`` and ``c_call`` events per step of ``kind``, into any code."""
    n = [0]

    def profile(frame, event, arg):
        n[0] += event == "call" or event == "c_call"

    _profiled(kind, SWEEP_STEPS, profile)
    return n[0] / SWEEP_STEPS


def sweep_events() -> tuple[dict, float]:
    """Each kind's events per step, and their sum weighted by the kind's
    segment length in one ``chains_mog2`` sweep."""
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
    sys.path.insert(0, bench)
    try:
        from workloads import ChainsMog2
    finally:
        sys.path.remove(bench)
    per_step = {kind: events_per_step(kind) for kind, *_ in ChainsMog2.SPECS}
    return per_step, sum(seg * per_step[kind] for kind, _, _, seg in ChainsMog2.SPECS)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_a_step_makes_no_more_calls_than_recorded(kind):
    calls = count_calls(kind)
    assert calls <= CALLS[kind], (
        f"{kind}: {calls} calls over {STEPS} steps, recorded {CALLS[kind]}")


def test_every_cli_kind_is_counted():
    from imcmc.cli import KINDS

    assert set(SPECS) == set(KINDS) == set(CALLS)


if __name__ == "__main__":
    counts = {kind: count_calls(kind) for kind in SPECS}
    for kind, calls in counts.items():
        print(f"{kind:15s} {calls:6d} calls  {calls / STEPS:7.2f} per step")
    print("CALLS = {\n" + "".join(f'    "{kind}": {calls},\n' for kind, calls in counts.items())
          + "}")
    per_step, total = sweep_events()
    for kind, events in per_step.items():
        print(f"{kind:15s} {events:7.1f} events per step")
    print(f"chains_mog2 sweep, weighted by segment length: {total:.0f} events")

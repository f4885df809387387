"""Grid and state lookups: an exact-bytes table in front of the tolerance
search answers bitwise as the search alone does.

Each lookup keeps a table from a grid row's (or an enumerated state's)
bytes to the search's answer for that row.  The references below are the
searches as they were written before the tables, run on every query.
"""

import math

import numpy as np
import pytest

from imcmc.core import Layout
from imcmc.diagnostics import _StateIndex, transition_matrix, transition_matrix_direct
from imcmc.errors import ConfigError, EnumerationError
from imcmc.samplers import grid_family, make_cdf_deterministic
from imcmc.targets import (GridDensity, _grid_logpmf, _grid_rows, grid_conditional,
                           uniform_cdf1d)

# duplicate rows, two rows 5e-10 apart, both signed zeros and a NaN row
ROWS = np.array([[1.0, 2.0], [0.0, 0.5], [1.0, 2.0], [1.0 + 5e-10, 2.0],
                 [-0.0, 0.5], [3.0, -1.0], [np.nan, 4.0], [0.0, -0.0]])


def _queries(rows):
    """Every row's own bytes, copies and near misses of them, and misses."""
    out = [row.copy() for row in rows]
    for row in rows:
        out += [row + 5e-10, row - 9e-10, row + 2e-9, -row, row * (1.0 + 1e-16)]
    out += [np.array([np.nan, 0.5]), np.full(rows.shape[1], np.nan),
            np.array([100.0, 100.0]), np.array([-0.0, -0.0]), np.zeros(rows.shape[1])]
    return out


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _reference_grid_logpmf(stacked, p, value) -> float:
    value = np.atleast_1d(np.asarray(value, dtype=float))
    hits = np.flatnonzero(np.abs(stacked - value).max(axis=1) <= 1e-9)
    if hits.size == 0:
        return -math.inf
    pi = p[hits[0]]
    return -math.inf if pi <= 0.0 else math.log(pi)


def _reference_index(values, atol, x):
    d = np.max(np.abs(values - np.asarray(x)), axis=1)
    i = int(np.argmin(d))
    return i if d[i] <= atol else None


def _reference_locate(states, atol, point):
    members = {}
    for i, s in enumerate(states):
        members.setdefault(s.tags, []).append(i)
    if point.tags not in members:
        raise EnumerationError(
            f"step landed on tags {point.tags} outside the enumerated space")
    ids = np.array(members[point.tags])
    cont = np.stack([states[i].continuous() for i in ids])
    dist = np.abs(cont - point.continuous()).max(axis=1, initial=0.0)
    j = int(np.argmin(dist))
    best_d = float(dist[j])
    if not best_d <= atol:
        raise EnumerationError(
            f"step landed outside the enumerated space (distance {best_d:.3g})")
    return int(ids[j])


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except EnumerationError as err:
        return ("raised", str(err))


@pytest.mark.parametrize("rows", [ROWS, ROWS[:6], ROWS[::-1].copy()])
def test_grid_logpmf_equals_the_search_bitwise(rows):
    # a zero and a NaN probability take the two special branches
    p = np.linspace(0.0, 1.0, len(rows))
    p[1] = np.nan
    table = _grid_rows(rows)
    for q in _queries(rows):
        for value in (q, list(q)):
            got = _grid_logpmf(table, p, value)
            assert _bits(got) == _bits(_reference_grid_logpmf(rows, p, value)), q


# a NaN row would win every search (argmin picks a NaN distance), so the
# grid refuses it when it is built
@pytest.mark.parametrize("rows", [ROWS, ROWS[:6], ROWS[::-1].copy()])
def test_grid_density_index_equals_the_search(rows):
    if np.isnan(rows).any():
        with pytest.raises(ConfigError, match="NaN"):
            GridDensity(rows, np.zeros(len(rows)))
        rows = rows[~np.isnan(rows).any(axis=1)]
    grid = GridDensity(rows, np.zeros(len(rows)))
    for q in _queries(rows):
        want = _reference_index(grid.values, grid.atol, q)
        assert grid.index(q) == want, q
        assert _bits(grid.logpdf(q)) == _bits(-math.inf if want is None else 0.0)


def test_grid_density_index_takes_other_dtypes_as_the_search_does():
    grid = GridDensity(np.array([[0, 1], [2, 3], [2, 3]]), np.zeros(3))
    for q in ([2, 3], np.array([2, 3]), np.array([0, 1], dtype=np.int32),
              np.array([2.0, 3.0], dtype=np.float32), np.array([5, 5]),
              np.float64(2.0)):
        assert grid.index(q) == _reference_index(grid.values, grid.atol, q)
    assert grid.index(np.array([2, 3])) == 1


# without the NaN row, and with it: a NaN state's distance would be NaN and
# argmin would pick it, failing every lookup among its tags, so the index
# refuses the state when it is built
@pytest.mark.parametrize("rows", [np.delete(ROWS, 6, axis=0), ROWS])
def test_locate_equals_the_search(rows):
    lay = Layout(x_dim=2, v_dim=1, slots={"v": slice(0, 1)},
                 tags=("d",), tag_values={"d": (-1, 1)})
    states = [lay.point(row, [v], (d,)) for row in rows
              for v in (0.0, -0.0, 1.0) for d in (-1, 1)]
    if np.isnan(rows).any():
        with pytest.raises(EnumerationError, match="NaN coordinate"):
            _StateIndex(states, 1e-9)
        return
    index = _StateIndex(states, 1e-9)
    queries = [lay.point(q, [v], (d,)) for q in _queries(rows)
               for v in (0.0, -0.0, 1.0 + 5e-10, 1.0 + 2e-9) for d in (-1, 1)]
    # tags the enumeration never produced
    queries += [lay.point(rows[0], [0.0], (0,)), lay.point(rows[1], [1.0], (7,))]
    outcomes = set()
    for q in queries:
        got = _outcome(index.locate, q)
        assert got == _outcome(_reference_locate, states, 1e-9, q)
        outcomes.add(got[0])
    assert outcomes == {"ok", "raised"}


def test_locate_finds_the_nearest_state_and_ties_go_to_the_first():
    lay = Layout(x_dim=1)
    states = [lay.point([x]) for x in (0.0, 1.0, 1.0, 1.0 + 5e-10, -0.0)]
    index = _StateIndex(states, 1e-9)
    # the nearest state wins and exact ties go to the first: the third state
    # is the second's duplicate, the fourth is 5e-10 from it and the fifth
    # is the first's other signed zero
    assert [index.locate(s) for s in states] == [0, 1, 1, 3, 0]


def test_transition_matrices_refuse_a_nan_state():
    kernel = make_cdf_deterministic(uniform_cdf1d(), shift=0.25)
    states = [kernel.layout.point([u]) for u in (0.0, 0.25, np.nan, 0.75)]
    for build in (transition_matrix, transition_matrix_direct):
        with pytest.raises(EnumerationError, match="state 2 has a NaN coordinate"):
            build(kernel, states)


@pytest.mark.parametrize("build", [
    lambda vals: grid_conditional(vals, lambda point: np.full(len(vals), 1.0 / len(vals))),
    lambda vals: grid_family(vals, lambda u, center: 0.0),
])
def test_finite_conditionals_refuse_a_nan_value(build):
    # the support listed the NaN value with positive probability while its
    # logpdf was -inf, so the oracle would enumerate a state of no density
    with pytest.raises(ConfigError, match="NaN"):
        build([np.array([0.0]), np.array([np.nan])])
    with pytest.raises(ConfigError, match="NaN"):
        build([[0.0, 1.0], [2.0, np.nan], [1.0, 1.0]])
    build([np.array([0.0]), np.array([1.0])])

"""Grid and state lookups: one nearest-row index answers every finite space.

`core._RowIndex` finds the first row nearest to a query in the sup norm.
Grids, finite conditionals, the cycle and the matrix oracle's state lookup
all use it, and it keeps a table from each row's bytes to the search's
answer for that row.  The references below are the searches written out,
run on every query; the table must answer as they do, without a search.
"""

import math

import numpy as np
import pytest

from imcmc import core
from imcmc.core import Layout, _RowIndex
from imcmc.diagnostics import _StateIndex, transition_matrix, transition_matrix_direct
from imcmc.errors import ConfigError, EnumerationError
from imcmc.maps import cycle_flow
from imcmc.samplers import grid_family, make_cdf_deterministic
from imcmc.targets import GridDensity, _grid_logpmf, grid_conditional, uniform_cdf1d

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
    i = _reference_index(stacked, 1e-9, value)
    if i is None:
        return -math.inf
    pi = p[i]
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


# a NaN row would win every search (argmin picks a NaN distance), so the
# index refuses it when it is built
@pytest.mark.parametrize("rows", [ROWS, ROWS[:6], ROWS[::-1].copy()])
def test_grid_logpmf_equals_the_search_bitwise(rows):
    if np.isnan(rows).any():
        with pytest.raises(ConfigError, match="row [0-9] has a NaN coordinate"):
            _RowIndex(rows)
        rows = rows[~np.isnan(rows).any(axis=1)]
    # a zero and a NaN probability take the two special branches
    p = np.linspace(0.0, 1.0, len(rows))
    p[1] = np.nan
    table = _RowIndex(rows)
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
            _StateIndex(states)
        return
    index = _StateIndex(states)
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
    index = _StateIndex(states)
    # the nearest state wins and exact ties go to the first: the third state
    # is the second's duplicate, the fourth is 5e-10 from it and the fifth
    # is the first's other signed zero
    assert [index.locate(s) for s in states] == [0, 1, 1, 3, 0]
    # states with no continuous coordinate go to their tags' first state
    lay = Layout(x_dim=0, tags=("a",), tag_values={"a": (0, 1)})
    states = [lay.point([], tags=(a,)) for a in (0, 1, 0, 1)]
    assert [_StateIndex(states).locate(s) for s in states] == [0, 1, 0, 1]


def test_transition_matrices_refuse_a_nan_state():
    kernel = make_cdf_deterministic(uniform_cdf1d(), shift=0.25)
    # an infinite state is at distance NaN from itself, so no step found it
    for bad, kind in ((np.nan, "a NaN"), (np.inf, "an infinite")):
        states = [kernel.layout.point([u]) for u in (0.0, 0.25, bad, 0.75)]
        for build in (transition_matrix, transition_matrix_direct):
            with pytest.raises(EnumerationError,
                               match=rf"state 2 has {kind} coordinate \({bad} at index 0\)"):
                build(kernel, states)


@pytest.mark.parametrize("build", [
    lambda vals: grid_conditional(vals, lambda point: np.full(len(vals), 1.0 / len(vals))),
    lambda vals: grid_family(vals, lambda u, center: 0.0),
    lambda vals: GridDensity(np.array(vals), np.zeros(len(vals))),
])
def test_finite_conditionals_refuse_a_nan_value(build):
    # the support listed the NaN value with positive probability while its
    # logpdf was -inf, so the oracle would enumerate a state of no density;
    # an infinite value is at distance NaN from itself, so the same held
    # for it, and a grid scored its own infinite row at -inf
    for vals, message in (
            ([np.array([0.0]), np.array([np.nan])],
             r"row 1 has a NaN coordinate \(nan at index 0\)"),
            ([[0.0, 1.0], [2.0, np.nan], [1.0, 1.0]],
             r"row 1 has a NaN coordinate \(nan at index 1\)"),
            ([np.array([0.0]), np.array([np.inf])],
             r"row 1 has an infinite coordinate \(inf at index 0\)"),
            ([[0.0, 1.0], [1.0, 1.0], [-np.inf, 2.0]],
             r"row 2 has an infinite coordinate \(-inf at index 0\)")):
        with pytest.raises(ConfigError, match=message):
            build(vals)
    build([np.array([0.0]), np.array([1.0])])


def _counting_search(monkeypatch):
    """Count the calls of the index's search from here on."""
    calls = []
    search = core._RowIndex._search

    def counted(self, query):
        calls.append(query)
        return search(self, query)

    monkeypatch.setattr(core._RowIndex, "_search", counted)
    return calls


def test_a_rows_own_bytes_cost_no_search(monkeypatch):
    # duplicate rows and both signed zeros of a row; the table is built
    # before the count starts
    rows = np.array([[1.0, 2.0], [0.0, 0.5], [1.0, 2.0], [-0.0, 0.5],
                     [0.0, -0.0], [-0.0, 0.0]])
    grid = GridDensity(rows, np.log(np.arange(1.0, 7.0)))
    cond = grid_conditional(list(rows), lambda point: np.full(6, 1.0 / 6.0))
    flow = cycle_flow([0.0, 1.5, 3.0])
    lay = Layout(x_dim=2, v_dim=1, slots={"v": slice(0, 1)},
                 tags=("d",), tag_values={"d": (-1, 1)})
    states = [lay.point(row, [v], (d,)) for row in rows
              for v in (0.0, -0.0) for d in (-1, 1)]
    index = _StateIndex(states)
    point = lay.point([0.0, 0.0], [0.0], (1,))
    want = [_reference_locate(states, 1e-9, s) for s in states]
    calls = _counting_search(monkeypatch)
    logs = [grid.logpdf(row) for row in grid.values]
    assert logs == [0.0, math.log(2.0), 0.0, math.log(2.0), math.log(5.0), math.log(5.0)]
    for value, p in cond.support(point):
        assert cond.logpdf(value, point) == math.log(p)
    cycle = Layout(x_dim=1)
    assert [flow.forward(cycle.point([u]))[0].x[0] for u in (0.0, 1.5, 3.0)] == [
        1.5, 3.0, 0.0]
    assert [index.locate(s) for s in states] == want
    assert calls == []
    # a query off the table runs the search once
    assert grid.logpdf(np.array([1.0 + 5e-10, 2.0])) == 0.0
    assert len(calls) == 1


def _scored_support(kind, vals, probs):
    """``(support, logpdf)`` of a finite conditional or proposal family over
    ``vals`` with the probabilities ``probs[u[0]]``."""
    if kind == "conditional":
        point = Layout(x_dim=1).point([0.0])
        cond = grid_conditional(vals, lambda pt: np.array([probs[u[0]] for u in vals]))
        return cond.support(point), lambda u: cond.logpdf(u, point)
    family = grid_family(vals, lambda u, center: math.log(probs[u[0]]))
    center = np.zeros(2)
    return family.support(center), lambda u: family.logpdf(u, center)


@pytest.mark.parametrize("kind", ["conditional", "family"])
def test_near_duplicate_candidates_score_what_support_lists(kind):
    # the second candidate lies 5e-10 from the first: support listed it at
    # 0.5, and a first-within-1e-9 rule scored it as the first, at 0.2
    vals = [np.array([1.0, 2.0]), np.array([1.0 + 5e-10, 2.0]), np.array([3.0, 0.0])]
    probs = {1.0: 0.2, 1.0 + 5e-10: 0.5, 3.0: 0.3}
    support, logpdf = _scored_support(kind, vals, probs)
    assert [p for _, p in support] == pytest.approx([0.2, 0.5, 0.3], rel=1e-12)
    for value, p in support:
        assert math.exp(logpdf(value)) == pytest.approx(p, rel=1e-12)

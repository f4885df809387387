"""Every option a library function declares is one some caller varies.

An AST scan over each defaulted parameter of a function (or of a class's
``__init__``) and each defaulted field of a ``@dataclass`` or a
``NamedTuple`` whose name is defined once in ``src/imcmc``, against the calls
in ``src/``, ``tests/``, ``demos/`` and ``perfbench/``:

- at least one call must set it, by position or by keyword: a default that
  no call overrides is a constant;
- at least one call must leave it out: a default that every call overrides
  is never used, and the parameter should be required.

A call that passes the default's own expression (``n=100`` against
``n=100``) leaves the default in effect.  A ``replace(obj, f=...)`` call
(``dataclasses.replace`` too) or a ``type(obj)(f=...)`` call may set field
``f`` of any record that declares it, so it counts as setting that field
in the unset check and not at all in the always-set check.  A field is a
parameter of its class's constructor: ``ClassVar`` and ``field(init=False)``
fields are skipped, a field's position is its place among the positional
init fields, a ``kw_only`` field has no position, and a
``field(default_factory=f)`` default is ``f()``.  Parameters whose names start with ``_``
(default-argument binders such as ``_q=mala_q``) are skipped.

Beside it, a scan of ``src/imcmc`` for ``.choice`` calls given weights and
for argument-free ``.random()`` calls outside `core._draw_index` and the
accept test of `core.ImcmcKernel.step`: every finite draw goes through
`core._draw_index`; and a scan of the other
modules of ``src/imcmc``, of ``demos/`` and of ``perfbench/`` for code that
reaches into a density's memo, whose records only `core` reads; a scan of
``src/imcmc`` for a chained `JointPoint` copy (``.with_x(...).with_slot(``):
an involution builds its image as one point; and a scan of ``src/imcmc``
for reads of a density's float form outside `core` and the one explicit
trajectory routine, `maps._trajectory` with its `maps._leapfrog_floats`.

Run as a script (``python3 tests/test_options.py``) it prints the number of
defaulted parameters of the ``def``s and of defaulted fields in
``src/imcmc``, then each unset and each always-set one, each finite draw
outside `core._draw_index`, each reach into the memo, each chained
point copy and each float-form read outside the trajectory.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "tests", "demos", "perfbench")


def _trees(paths):
    return [(path.name, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def _library():
    return _trees(sorted((ROOT / "src" / "imcmc").glob("*.py")))


def _callers():
    return [tree for top in CALLER_DIRS
            for _, tree in _trees(sorted((ROOT / top).rglob("*.py")))]


def _name(node):
    """The last name of ``a``, ``a.b`` or a call of either, else None."""
    if isinstance(node, ast.Call):
        node = node.func
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)


def _defs(library):
    """``(callable name, node, bound, where)`` for each ``def``.  An
    ``__init__`` is called by its class name, and a method's first parameter
    is bound by the call (``bound`` 1)."""
    for label, tree in library:
        owner = {node: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for node in cls.body if isinstance(node, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                cls = owner.get(node)
                name = cls if cls is not None and node.name == "__init__" else node.name
                yield name, node, 0 if cls is None else 1, f"{label}:{node.lineno}"


def _records(library):
    """The ``@dataclass`` and ``NamedTuple`` classes, as ``(file label,
    class node, every field keyword-only)``."""
    for label, tree in library:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if any(_name(b) == "NamedTuple" for b in cls.bases):
                yield label, cls, False
            for d in cls.decorator_list:
                if _name(d) == "dataclass":
                    yield label, cls, any(
                        k.arg == "kw_only" and getattr(k.value, "value", False)
                        for k in getattr(d, "keywords", ()))


def _fields(cls, kw_only):
    """``(field, positional index or None, default or None, line)`` for each
    init field of a record class."""
    index = 0
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
            continue
        annotation = node.annotation
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        if _name(annotation) == "ClassVar":
            continue
        if _name(annotation) == "KW_ONLY":
            kw_only = True
            continue
        default, field_kw_only = node.value, kw_only
        if isinstance(default, ast.Call) and _name(default) == "field":
            options = {k.arg: k.value for k in default.keywords}
            if getattr(options.get("init"), "value", True) is False:
                continue
            field_kw_only = getattr(options.get("kw_only"), "value", kw_only)
            default = (options["default"] if "default" in options
                       else ast.Call(options["default_factory"], [], [])
                       if "default_factory" in options else None)
        yield node.target.id, None if field_kw_only else index, default, node.lineno
        index += not field_kw_only


def _signatures(library):
    """``(callable name, kind, [(parameter, positional index or None, default
    node, where)])`` for each ``def`` (kind ``"def"``) and each record class
    (kind ``"field"``); only defaulted parameters are listed."""
    for name, node, bound, where in _defs(library):
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        params = [(a.arg, i - bound, d, where) for i, (a, d) in
                  enumerate(zip(positional[first:], args.defaults), start=first)]
        params += [(a.arg, None, d, where)
                   for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        yield name, "def", params
    for label, cls, kw_only in _records(library):
        yield cls.name, "field", [(f, i, d, f"{label}:{line}")
                                  for f, i, d, line in _fields(cls, kw_only) if d is not None]


def defaulted_parameters(library, kind):
    """``(callable name, parameter, positional index or None, default,
    where)`` for each defaulted parameter of the given kind (``"def"`` or
    ``"field"``)."""
    return [(name, param, index, default, where)
            for name, k, params in _signatures(library) if k == kind
            for param, index, default, where in params]


def _calls(callers):
    """``callee -> [(positional arguments before any starred one, starred,
    keywords, double-starred)]``; keywords map each name to its value."""
    out: dict = {}
    for tree in callers:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            starred = [isinstance(a, ast.Starred) for a in node.args]
            n = starred.index(True) if any(starred) else len(starred)
            kws = {k.arg: k.value for k in node.keywords}
            out.setdefault(_name(node.func), []).append(
                (node.args[:n], any(starred), kws, kws.pop(None, None) is not None))
    return out


def _replaced_fields(callers):
    """The keywords of each ``replace(obj, ...)`` and ``type(obj)(...)``
    call: the fields such a call may set, whatever the record."""
    out = set()
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, (ast.Name, ast.Attribute))
                    and _name(node.func) == "replace"
                    or isinstance(node.func, ast.Call) and _name(node.func) == "type"):
                out.update(k.arg for k in node.keywords if k.arg is not None)
    return out


def _sets(call, param, index, default):
    """Whether a call sets a parameter to something other than its default:
    True, False, or None where a starred or ``**`` argument may."""
    args, starred, kws, double_starred = call
    if param in kws:
        value = kws[param]
    elif index is not None and index < len(args):
        value = args[index]
    elif (index is not None and starred) or double_starred:
        return None
    else:
        return False
    return ast.dump(value) != ast.dump(default)


def _scan(library, callers, flagged, replaced=frozenset()):
    """``where name(param=...)`` for each defaulted parameter of a callable
    defined once in ``library`` whose calls in ``callers`` (a list of
    `_sets` results, one per call) satisfy ``flagged``.  A field named in
    ``replaced`` has one more call, which sets it."""
    signatures = list(_signatures(library))
    defined = Counter(name for name, *_ in signatures)
    calls = _calls(callers)
    return [f"{where} {name}({param}=...)"
            for name, kind, params in signatures if defined[name] == 1
            for param, index, default, where in params if not param.startswith("_")
            and flagged([_sets(c, param, index, default) for c in calls.get(name, [])]
                        + [True] * (kind == "field" and param in replaced))]


def unset_options(library, callers):
    """The defaulted parameters that no call sets.  A starred or ``**``
    argument may set anything, so it counts as setting."""
    return _scan(library, callers, lambda sets: all(s is False for s in sets),
                 _replaced_fields(callers))


def always_set_options(library, callers):
    """The defaulted parameters that every call sets, where there is a call.
    A starred or ``**`` argument may leave anything out, so it counts as not
    setting."""
    return _scan(library, callers, lambda sets: sets and all(s is True for s in sets))


# the (module, enclosing def) of the uniform draws a finite draw may make:
# the inverse CDF of `_draw_index` and the accept test of `ImcmcKernel.step`
UNIFORM_DRAWS = {("core.py", "_draw_index"), ("core.py", "ImcmcKernel.step")}


def _scoped(node, scope=""):
    """Each node below ``node`` with the dotted name of the innermost
    ``def`` or ``class`` around it."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield child, inner
        yield from _scoped(child, inner)


def weighted_choices(library):
    """``where`` for each ``.choice`` call given weights (``p=`` or the
    fourth positional argument) and each argument-free ``.random()`` call
    outside `UNIFORM_DRAWS`.  Every finite conditional draws through
    `core._draw_index` and its one weight check, so such a call would be a
    second categorical draw, or one rolled by hand from a uniform.  A
    ``.random(n)`` row draw of the batch runners is not a finite draw."""
    out = []
    for label, tree in library:
        for node, scope in _scoped(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            name, args, kws = node.func.attr, node.args, node.keywords
            if (name == "choice" and (len(args) >= 4 or any(k.arg == "p" for k in kws))
                    or name == "random" and not args and not kws
                    and (label, scope) not in UNIFORM_DRAWS):
                out.append(f"{label}:{node.lineno}")
    return out


# what `core` alone may touch: the memo's classes and its records, and the
# calls a density's callables answered when they were memos of their own
MEMO_NAMES = ("_MISS", "_Memo", "_Field")
RECORD_ATTRS = ("record", "_new", "_old")
DENSITY_CALLABLES = ("logpdf", "grad", "grad_x", "value_and_grad")


def _modules():
    """``(path, tree)`` for every module of ``src/imcmc`` but ``core.py``,
    of ``demos/`` and of ``perfbench/``."""
    paths = [p for p in sorted((ROOT / "src" / "imcmc").glob("*.py")) if p.name != "core.py"]
    paths += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return [(str(p.relative_to(ROOT)), ast.parse(p.read_text(), filename=str(p)))
            for p in paths]


def memo_reaches(modules):
    """``where what`` for each place in ``modules`` that reaches into a
    density's memo: importing or naming ``_MISS``, ``_Memo`` or ``_Field``,
    reading a record (``.record``, ``._new``, ``._old``), or calling
    ``.get``/``.put`` on a density's ``logpdf``, ``grad`` or
    ``value_and_grad``.  Only `core` knows the record format, so a change to
    it stays in one module."""
    out = []
    for label, tree in modules:
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                what = [a.name for a in node.names if a.name in MEMO_NAMES]
            elif isinstance(node, ast.Name):
                what = [node.id] if node.id in MEMO_NAMES else []
            elif isinstance(node, ast.Attribute):
                what = [node.attr] if node.attr in MEMO_NAMES + RECORD_ATTRS else []
                if node.attr in ("get", "put") and _name(node.value) in DENSITY_CALLABLES:
                    what = [f"{_name(node.value)}.{node.attr}"]
            else:
                what = []
            found += [(node.lineno, w) for w in what]
        out += [f"{label}:{line} {w}" for line, w in sorted(found)]
    return out


# the `JointPoint` methods that copy a point
POINT_COPIES = ("with_x", "with_v", "with_slot", "with_tag", "with_continuous")


def _is_copy(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in POINT_COPIES)


def chained_copies(library):
    """``where`` for each `JointPoint` copy called on the result of another
    (``z.with_x(x).with_slot("v", v)``).  Each link makes a whole point that
    the next drops; an involution builds its image in one piece
    (`core._joint_point` over blocks of its own)."""
    return [f"{label}:{line}" for label, tree in library
            for line in sorted({node.lineno for node in ast.walk(tree)
                                if _is_copy(node) and _is_copy(node.func.value)})]


# the defs outside `core` that may read a density's float form: the one
# explicit trajectory routine and the float steps it hands the floats to
FLOAT_FORM_READERS = {("maps.py", "_trajectory"), ("maps.py", "_leapfrog_floats")}


def _reads_float_form(node):
    if isinstance(node, ast.Attribute):
        return node.attr == "floats" and isinstance(node.ctx, ast.Load)
    return (isinstance(node, ast.Call) and _name(node) == "getattr" and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant) and node.args[1].value == "floats")


def float_form_reads(library):
    """``where def`` for each read of a density's float form (a ``.floats``
    attribute read or a ``getattr(..., "floats", ...)`` call) in a module
    other than ``core.py``, outside `FLOAT_FORM_READERS`.  Every explicit
    leapfrog steps through `maps._trajectory`, so its test for the float
    form and the float path are written once."""
    return [f"{label}:{node.lineno} {scope or '<module>'}"
            for label, tree in library if label != "core.py"
            for node, scope in _scoped(tree)
            if _reads_float_form(node) and (label, scope) not in FLOAT_FORM_READERS]


def test_only_the_trajectory_reads_the_float_form():
    assert float_form_reads(_library()) == []


def test_the_scan_flags_a_float_form_read():
    library = [
        ("core.py", ast.parse("def f(d):\n    return d.floats\n")),
        ("maps.py", ast.parse(
            "def _trajectory(g):\n    return getattr(g.memo, 'floats', None)\n"
            "def _leapfrog_floats(g):\n    return g.memo.floats\n"
            "def leapfrog(g):\n    return getattr(getattr(g, 'memo', None), 'floats', None)\n"
            "def hmc_landings(g):\n    def landings(z):\n        return g.memo.floats(z)\n"
            "    return landings\n"
            "def fine(d, floats):\n    d.floats = floats\n"
            "    return LogDensity(floats=floats), getattr(d, 'grad')\n")),
        ("samplers.py", ast.parse("def _trajectory(g):\n    return g.floats\n"))]
    assert float_form_reads(library) == [
        "maps.py:6 leapfrog", "maps.py:9 hmc_landings.landings", "samplers.py:2 _trajectory"]


def test_no_joint_point_copy_is_chained():
    assert chained_copies(_library()) == []


def test_the_scan_flags_a_chained_copy():
    library = [("lib.py", ast.parse(
        "def fn(z):\n    return z.with_x(x).with_slot('v', v), 0.0\n"
        "def ok(z):\n    w = z.with_x(x)\n    return w.with_tag('d', 1)\n"
        "def tagged(z):\n    return (z.with_v(v)\n            .with_tag('d', -1))\n"
        "def other(z):\n    return z.copy().with_x(x), f(z.with_x(x))\n"))]
    assert chained_copies(library) == ["lib.py:2", "lib.py:7"]


def test_no_module_but_core_reaches_into_the_memo():
    assert memo_reaches(_modules()) == []


def test_the_scan_flags_reaches_into_the_memo():
    modules = [("lib.py", ast.parse(
        "from .core import _MISS, LogDensity\n"
        "from imcmc.core import _Memo\n"
        "d.logpdf.get(key)\n"
        "grad_x.put(key, g)\n"
        "r = d.grad.memo.record(x)\n"
        "m._new\n"
        "core._Field(m, 0)\n"
        "d.logpdf(x)\nd.grad.fn(x)\nd.grad.memo.endpoint(xs)\nvalues.get(key)\n"))]
    assert memo_reaches(modules) == [
        "lib.py:1 _MISS", "lib.py:2 _Memo", "lib.py:3 logpdf.get", "lib.py:4 grad_x.put",
        "lib.py:5 record", "lib.py:6 _new", "lib.py:7 _Field"]


def test_no_weighted_choice_in_the_library():
    assert weighted_choices(_library()) == []


def test_the_scan_flags_a_weighted_choice():
    library = [("lib.py", ast.parse(
        "rng.choice(2)\nrng.choice(values)\nchoice(2, p=w)\n"
        "rng.choice(2, p=w)\nnp.random.choice(3, 1, True, w)\n"))]
    assert weighted_choices(library) == ["lib.py:4", "lib.py:5"]


def test_the_scan_flags_a_uniform_draw_outside_draw_index():
    library = [
        ("core.py", ast.parse(
            "def _draw_index(rng, w):\n    return rng.random()\n"
            "class ImcmcKernel:\n    def step(self, rng):\n        u = rng.random()\n"
            "    def acceptance(self, rng):\n        return rng.random()\n")),
        ("lib.py", ast.parse(
            "def _draw_index(rng):\n    u = rng.random()\n"
            "def step(rng):\n    rng.random(4)\n    rng.random(size=2)\n"
            "    return lambda: rng.random()\n"))]
    assert weighted_choices(library) == ["core.py:7", "lib.py:2", "lib.py:6"]


def test_every_option_is_set_by_some_caller():
    assert unset_options(_library(), _callers()) == []


def test_no_default_is_overridden_by_every_call():
    assert always_set_options(_library(), _callers()) == []


def test_the_scan_flags_an_option_no_call_sets():
    library = [("lib.py", ast.parse(
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "class K:\n    def __init__(self, e=4, g=5):\n        pass\n"
        "    def m(self, h=6, _i=7):\n        pass\n"
        "def twice(j=8):\n    pass\n"
        "def twice(j=8):\n    pass\n"))]
    callers = [ast.parse("f(0, 0)\nf(0, d=1)\nK(1)\nK(**kw)\nobj.m()\n")]
    assert sorted(unset_options(library, callers)) == ["lib.py:1 f(c=...)",
                                                       "lib.py:6 m(h=...)"]
    callers.append(ast.parse("f(*args)\nobj.m(1)\n"))
    assert unset_options(library, callers) == []


def test_the_scan_flags_an_option_every_call_sets():
    library = [("lib.py", ast.parse(
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "class K:\n    def __init__(self, e=4, g=5):\n        pass\n"
        "    def m(self, h=6):\n        pass\n"
        "def unused(j=8):\n    pass\n"))]
    callers = [ast.parse("f(0, 2, d=2)\nf(0, 2, 3, d=4)\nK(1, g=2)\nK(2, g=3)\n"
                         "obj.m(h=1)\nobj.m(2)\n")]
    assert sorted(always_set_options(library, callers)) == [
        "lib.py:1 f(b=...)", "lib.py:1 f(d=...)", "lib.py:4 K(e=...)",
        "lib.py:4 K(g=...)", "lib.py:6 m(h=...)"]
    # a call that may leave a parameter out (starred or ``**``) keeps it
    callers.append(ast.parse("f(*args, d=1)\nK(**kw)\nobj.m()\n"))
    assert always_set_options(library, callers) == ["lib.py:1 f(d=...)"]


_RECORDS = ("import dataclasses\nfrom dataclasses import KW_ONLY, dataclass, field\n"
            "from typing import ClassVar, NamedTuple\n"
            "@dataclasses.dataclass(frozen=True)\nclass D:\n"
            "    a: int\n    b: int = 1\n    c: dict = field(default_factory=dict)\n"
            "    s: ClassVar[int] = 2\n    t: int = field(init=False, default=3)\n"
            "    k: int = field(default=4, kw_only=True)\n    e: int = 5\n"
            "@dataclass\nclass W:\n    p: int = 1\n    _: KW_ONLY\n    q: int = 2\n"
            "class N(NamedTuple):\n    x: int\n    y: int = 0\n")


def test_the_scan_flags_a_dataclass_field_every_call_sets():
    library = [("lib.py", ast.parse(_RECORDS))]
    # ``e`` is the fourth positional field: the kw_only ``k`` has no place;
    # a keyword beside a ``**`` argument sets its parameter all the same
    callers = [ast.parse("D(0, 2, {}, 6, k=1)\nD(0, b=2, c={1: 2}, e=6, k=7)\n"
                         "W(p=3, q=4, **kw)\nW(5, q=6)\nN(1, 2)\nN(x=1, y=3)\n")]
    assert set(always_set_options(library, callers)) == {
        "lib.py:7 D(b=...)", "lib.py:8 D(c=...)", "lib.py:11 D(k=...)",
        "lib.py:12 D(e=...)", "lib.py:15 W(p=...)", "lib.py:17 W(q=...)",
        "lib.py:20 N(y=...)"}
    assert unset_options(library, callers) == []


def test_the_scan_flags_a_namedtuple_field_no_call_sets():
    library = [("lib.py", ast.parse(_RECORDS))]
    callers = [ast.parse("N(1)\nN(x=2)\n")]
    assert "lib.py:20 N(y=...)" in unset_options(library, callers)
    callers.append(ast.parse("N(1, 2)\n"))
    assert "lib.py:20 N(y=...)" not in unset_options(library, callers)


def test_the_scan_skips_classvar_and_init_false_fields():
    library = [("lib.py", ast.parse(_RECORDS))]
    # neither ``s`` nor ``t`` is a parameter of D's constructor
    fields = {p for name, p, *_ in defaulted_parameters(library, "field")}
    assert fields == {"b", "c", "k", "e", "p", "q", "y"}


def test_the_scan_matches_a_kw_only_field_by_keyword_only():
    library = [("lib.py", ast.parse(_RECORDS))]
    # five positional arguments would be a TypeError for D; the fifth
    # position is not ``k``'s
    callers = [ast.parse("D(0, 2, {}, 6, 9)\nW(3, 4)\n")]
    unset = unset_options(library, callers)
    assert "lib.py:11 D(k=...)" in unset and "lib.py:17 W(q=...)" in unset
    assert "lib.py:12 D(e=...)" not in unset and "lib.py:15 W(p=...)" not in unset


def test_the_scan_counts_a_replace_call_as_setting_its_fields():
    library = [("lib.py", ast.parse("def f(a, b=1):\n    pass\n" + _RECORDS))]
    callers = [ast.parse("D(0)\nW()\nN(1)\nf(0)\n")]
    unset = set(unset_options(library, callers))
    assert {"lib.py:9 D(b=...)", "lib.py:14 D(e=...)", "lib.py:19 W(q=...)",
            "lib.py:22 N(y=...)", "lib.py:1 f(b=...)"} <= unset
    # ``replace`` by either name and ``type(obj)(...)`` set the fields they
    # name in every record; a function's parameter and ``type(obj)`` itself
    # are not fields, and a string's ``replace`` sets nothing
    callers.append(ast.parse("dataclasses.replace(d, b=2)\nreplace(n, y=3)\n"
                             "type(w)(q=4, **kw)\ntype(d)\ntype(obj)(b=5)\n"
                             "replace(obj, b=6)\n's'.replace('a', 'b')\n"))
    unset = set(unset_options(library, callers))
    assert {"lib.py:9 D(b=...)", "lib.py:19 W(q=...)", "lib.py:22 N(y=...)"} & unset == set()
    assert {"lib.py:14 D(e=...)", "lib.py:1 f(b=...)"} <= unset
    # the calls do not count in the always-set check
    callers = [ast.parse("D(0, 2)\nD(0, b=3)\nreplace(d, e=6)\nW(5)\ntype(w)(p=1)\n")]
    always = always_set_options(library, callers)
    assert "lib.py:9 D(b=...)" in always and "lib.py:17 W(p=...)" in always


def test_a_call_that_restates_the_default_leaves_it_out():
    library = [("lib.py", ast.parse("def f(a, n=100, m=(1, 2)):\n    pass\n" + _RECORDS))]
    callers = [ast.parse("f(0, 100, m=(1, 2))\nf(1, n=100)\nD(0, c=dict())\n"
                         "N(1, y=0)\n")]
    unset = unset_options(library, callers)
    assert {"lib.py:1 f(n=...)", "lib.py:1 f(m=...)", "lib.py:10 D(c=...)",
            "lib.py:22 N(y=...)"} <= set(unset)
    callers = [ast.parse("f(0, 101, m=(1, 3))\nf(1, n=101, m=(2,))\n")]
    assert always_set_options(library, callers) == ["lib.py:1 f(n=...)",
                                                    "lib.py:1 f(m=...)"]
    callers.append(ast.parse("f(0, n=100, m=(1, 2))\n"))
    assert always_set_options(library, callers) == []


if __name__ == "__main__":
    library, callers = _library(), _callers()
    print(f"{len(defaulted_parameters(library, 'def'))} defaulted def parameters"
          " in src/imcmc")
    print(f"{len(defaulted_parameters(library, 'field'))} defaulted fields in src/imcmc")
    for line in unset_options(library, callers):
        print("unset:", line)
    for line in always_set_options(library, callers):
        print("always set:", line)
    for line in weighted_choices(library):
        print("finite draw outside core._draw_index:", line)
    for line in memo_reaches(_modules()):
        print("reaches into the memo:", line)
    for line in chained_copies(library):
        print("chained point copy:", line)
    for line in float_form_reads(library):
        print("float-form read outside the trajectory:", line)

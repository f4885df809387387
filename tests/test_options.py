"""Every option a library function declares is one some caller varies.

An AST scan over each defaulted parameter of a function (or of a class's
``__init__``) whose name is defined once in ``src/imcmc``, against the calls
in ``src/``, ``tests/``, ``demos/`` and ``perfbench/``:

- at least one call must set it, by position or by keyword: a default that
  no call overrides is a constant;
- at least one call must leave it out: a default that every call overrides
  is never used, and the parameter should be required.

Parameters whose names start with ``_`` (default-argument binders such as
``_q=mala_q``) are skipped.

Run as a script (``python3 tests/test_options.py``) it prints the number of
defaulted parameters of the ``def``s in ``src/imcmc`` and each unset and
each always-set one.
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


def defaulted_parameters(library):
    """``(callable name, parameter, positional index or None, where)`` for
    each defaulted parameter of each ``def``; a keyword-only parameter has
    no positional index."""
    out = []
    for name, node, bound, where in _defs(library):
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, a in enumerate(positional[first:], start=first):
            out.append((name, a.arg, i - bound, where))
        for a, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                out.append((name, a.arg, None, where))
    return out


def _calls(callers):
    """``callee -> [(positional count, keywords)]``.  A starred argument
    sets every positional slot from its place on (count ``inf``) and a
    ``**`` argument every keyword (keywords ``None``)."""
    out: dict = {}
    for tree in callers:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = (func.id if isinstance(func, ast.Name)
                      else func.attr if isinstance(func, ast.Attribute) else None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            kws = {k.arg for k in node.keywords}
            out.setdefault(callee, []).append(
                (float("inf") if starred else len(node.args),
                 None if None in kws else kws))
    return out


def _scan(library, callers, flagged):
    """``where name(param=...)`` for each defaulted parameter of a callable
    defined once in ``library`` whose calls in ``callers`` (a list of
    ``(positional count, keywords)``) satisfy ``flagged``."""
    defined = Counter(name for name, *_ in _defs(library))
    calls = _calls(callers)
    return [f"{where} {name}({param}=...)"
            for name, param, index, where in defaulted_parameters(library)
            if defined[name] == 1 and not param.startswith("_")
            and flagged(param, index, calls.get(name, []))]


def unset_options(library, callers):
    """The defaulted parameters that no call sets.  A starred or ``**``
    argument may set anything, so it counts as setting."""
    return _scan(library, callers, lambda param, index, calls: not any(
        kws is None or param in kws or (index is not None and index < n)
        for n, kws in calls))


def always_set_options(library, callers):
    """The defaulted parameters that every call sets, where there is a call.
    A starred or ``**`` argument may leave anything out, so it counts as not
    setting."""
    return _scan(library, callers, lambda param, index, calls: calls and all(
        (kws is not None and param in kws)
        or (index is not None and index < n < float("inf"))
        for n, kws in calls))


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
    callers = [ast.parse("f(0, 1)\nf(0, d=1)\nK(1)\nK(**kw)\nobj.m()\n")]
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
    callers = [ast.parse("f(0, 1, d=2)\nf(0, 1, 2, d=3)\nK(1, g=2)\nK(2, g=3)\n"
                         "obj.m(h=1)\nobj.m(2)\n")]
    assert sorted(always_set_options(library, callers)) == [
        "lib.py:1 f(b=...)", "lib.py:1 f(d=...)", "lib.py:4 K(e=...)",
        "lib.py:4 K(g=...)", "lib.py:6 m(h=...)"]
    # a call that may leave a parameter out (starred or ``**``) keeps it
    callers.append(ast.parse("f(*args, d=1)\nK(**kw)\nobj.m()\n"))
    assert always_set_options(library, callers) == ["lib.py:1 f(d=...)"]


if __name__ == "__main__":
    library, callers = _library(), _callers()
    print(f"{len(defaulted_parameters(library))} defaulted parameters in src/imcmc")
    for line in unset_options(library, callers):
        print("unset:", line)
    for line in always_set_options(library, callers):
        print("always set:", line)

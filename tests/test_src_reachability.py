"""Nothing in ``src/`` that only tests run or set (ROADMAP aim 2).

A capability stays in ``src/`` only if the system, a benchmark or an
example reaches it; a reference implementation lives in ``tests/``.
This guard is static: stdlib :mod:`ast` over ``src/repro`` plus a word
scan of ``benchmarks/``, ``examples/`` and the ``Makefile``.

*Names.* Every function, method and class defined under ``src/repro``
(dunders exempt) is referenced from outside its own definition: in
``src/`` by a ``Name`` / ``Attribute`` load or a word of a string
constant that is not a docstring (``"module:function"`` builder
strings, ``getattr`` names), or by any word of a file under
``benchmarks/`` or ``examples/`` or of the ``Makefile`` (nsrbench's
by-name tracing boundaries).  Import aliases, ``__all__`` entries,
docstrings and ``tests/`` do not count.

*State.* Every attribute ``src/`` stores (``x.attr = ...``, including
augmented assignment) is read somewhere: a reference in ``src/`` as
above, an ``Attribute`` load or a string-constant word in ``tests/``,
or a word under ``benchmarks/`` / ``examples/``.

*Parameters.* Every defaulted parameter of a ``src/repro`` function is
set by some call in ``src/``, ``benchmarks/`` or ``examples/``: passed
by keyword, or positionally at or after its index (``*args`` and
``**kwargs`` set every parameter).  Calls match by name: ``f(...)`` and
``x.f(...)`` call every ``f``; ``Cls(...)``, ``cls(...)`` and
``super().__init__(...)`` call ``Cls.__init__`` (or ``__new__``), also
through a subclass without its own ``__init__``.  A function whose name
is used as a value (a callback handed to ``schedule``, ``after`` or
``charge``) is exempt: its arguments cannot be seen.  A value no system
caller varies is a constant, not a parameter.

*Spec keys.* Every key of a ``*_DEFAULTS`` dict table in ``src/`` (the
optional keys of a deployment spec, ``repro/config/loader.py``) is set
by some spec producer in ``src/``, ``benchmarks/`` or ``examples/``: a
dict-literal key, a ``spec["key"] = ...`` store, or a keyword of
``non_default(...)``.

Matching is by name, so a dead method that shares its name with a live
one escapes the scan.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_SHOW = "operator render surface (ROADMAP aim 4; item 7 re-bases it)"

#: Definitions no caller outside ``tests/`` reaches, kept on purpose.
ALLOWED = {
    "show_bgp_summary": _SHOW,
    "show_rib": _SHOW,
    "show_bfd": _SHOW,
    "show_fib": _SHOW,
    "show_nsr_status": _SHOW,
    "show_migration_history": _SHOW,
    # ControllerPanel inherits it; it reaches FencingRegistry.manual_reset
    "RecoveryActions.manual_reset_machine":
        "the operator's unfence, the only exit from fencing (paper §3.3.3)",
}

_PORT = "deployment setting: the port a deployment listens on or dials"
_BOUND = "safety bound a test lowers to keep the test short"

#: Defaulted parameters no caller outside ``tests/`` sets, kept on
#: purpose: ``Function.param`` (``Class.param`` for ``__init__``).
ALLOWED_PARAMS = {
    "BfdProcess.port": _PORT,
    "BfdRelay.port": _PORT,
    "IpSlaResponder.port": _PORT,
    "ReplicatedKvCluster.port": _PORT,
    "TcpStack.connect.local_port": _PORT,
    "PeerConfig.remote_port": _PORT,
    "ParallelRunner.worker_join_timeout": _BOUND,
    "Engine.run_until_idle.max_events": _BOUND,
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


class _Module:
    """What one walk over one module collects.

    ``definitions`` is ``[(qualname, node, owner)]`` (``owner`` is the
    :class:`ast.ClassDef` whose body defines a method, else None);
    ``references`` maps a word to the ``(line, column)`` places that
    reference it; ``stores`` is ``[(attr, line)]``; ``calls`` maps a
    callee name to ``[(positional count, keywords, unpacked)]``;
    ``values`` holds every name loaded other than as a callee;
    ``spec_keys`` every string a dict literal, a subscript store or a
    ``non_default(...)`` keyword sets; ``tables`` the ``*_DEFAULTS``
    dicts as ``{name: [(key, line)]}``.
    """

    def __init__(self):
        self.definitions, self.references, self.stores = [], {}, []
        self.calls, self.values, self.spec_keys = {}, set(), set()
        self.tables = {}


def _base_names(cls):
    return [base.id if isinstance(base, ast.Name) else base.attr
            for base in cls.bases if isinstance(base, (ast.Name, ast.Attribute))]


def _callees(func, cls):
    """The names a call through ``func`` inside class ``cls`` reaches."""
    if isinstance(func, ast.Name):
        return [cls.name if func.id == "cls" and cls is not None else func.id]
    if not isinstance(func, ast.Attribute):
        return []
    value = func.value
    if (func.attr == "__init__" and cls is not None
            and isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "super"):
        return _base_names(cls)
    return [func.attr]


def _scan(path):
    """One module, one pass: see :class:`_Module`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    module = _Module()
    refs = module.references
    skip = set()                     # docstrings and __all__ entries
    callees = set()                  # the func node of every call
    pending = [(tree, "", None, None)]
    while pending:
        node, scope, owner, cls = pending.pop()
        if isinstance(node, (ast.Module, ast.ClassDef) + _DEFS):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)):
                skip.add(id(body[0].value))
            if not isinstance(node, ast.Module):
                module.definitions.append((f"{scope}{node.name}", node, owner))
                scope = f"{scope}{node.name}."
                owner = cls = node if isinstance(node, ast.ClassDef) else cls
                if isinstance(node, _DEFS):
                    owner = None
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                refs.setdefault(node.id, []).append((node.lineno, node.col_offset))
                if id(node) not in callees:
                    module.values.add(node.id)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                refs.setdefault(node.attr, []).append(
                    (node.lineno, node.col_offset))
                if id(node) not in callees:
                    module.values.add(node.attr)
            else:
                module.stores.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant):
            if isinstance(node.value, str) and id(node) not in skip:
                for word in WORD.findall(node.value):
                    refs.setdefault(word, []).append(
                        (node.lineno, node.col_offset))
        elif isinstance(node, ast.Call):
            callees.add(id(node.func))
            unpacked = (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords))
            keywords = {k.arg for k in node.keywords}
            for name in _callees(node.func, cls):
                module.calls.setdefault(name, []).append(
                    (len(node.args), keywords, unpacked))
            if isinstance(node.func, ast.Name) and node.func.id == "non_default":
                module.spec_keys.update(keywords)
        elif isinstance(node, ast.Dict):
            if id(node) not in skip:
                module.spec_keys.update(key.value for key in node.keys
                                        if isinstance(key, ast.Constant))
        elif isinstance(node, ast.Subscript):
            if (isinstance(node.ctx, ast.Store)
                    and isinstance(node.slice, ast.Constant)):
                module.spec_keys.add(node.slice.value)
        elif isinstance(node, ast.Assign):
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id == "__all__":
                skip.update(id(c) for c in ast.walk(node.value))
            elif (isinstance(target, ast.Name)
                  and target.id.endswith("_DEFAULTS")
                  and isinstance(node.value, ast.Dict)):
                skip.add(id(node.value))
                module.tables[target.id] = [
                    (key.value, key.lineno) for key in node.value.keys]
        pending.extend((child, scope, owner, cls)
                       for child in ast.iter_child_nodes(node))
    return module


@functools.lru_cache(maxsize=None)
def _modules(root):
    """``(src, callers)``: ``rel path -> _Module`` for ``src/repro``, and
    the modules of every file whose calls count (``src/``,
    ``benchmarks/``, ``examples/``)."""
    src = {path.relative_to(root).as_posix(): _scan(path)
           for path in sorted((root / "src" / "repro").rglob("*.py"))}
    callers = list(src.values()) + [
        _scan(path) for top in ("benchmarks", "examples")
        for path in sorted((root / top).rglob("*.py"))]
    return src, callers


def _inside(node, place):
    return (node.lineno, node.col_offset) <= place <= (
        node.end_lineno, node.end_col_offset)


def _outside_words(root):
    """Every word of a .py or .md file under benchmarks/ or examples/,
    or of the Makefile."""
    paths = [path for path in [root / "Makefile"] if path.exists()]
    for top in ("benchmarks", "examples"):
        paths += [p for suffix in ("py", "md")
                  for p in (root / top).rglob(f"*.{suffix}")]
    words = set()
    for path in paths:
        words.update(WORD.findall(path.read_text(encoding="utf-8")))
    return words


def _test_reads(root):
    """Attribute names ``tests/`` loads or names in a string."""
    reads = set()
    for path in (root / "tests").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.update(WORD.findall(node.value))
    return reads


@functools.lru_cache(maxsize=None)
def _findings(root=REPO_ROOT):
    """``(unreached, unread)``: offending name -> ``path:line``."""
    scans, _ = _modules(root)
    outside = _outside_words(root)
    places = {}                      # word -> [(module, place)] in src/
    for rel, module in scans.items():
        for word, where in module.references.items():
            places.setdefault(word, []).extend((rel, place) for place in where)
    unreached = {}
    for rel, module in scans.items():
        for qualname, node, _ in module.definitions:
            name = node.name
            if _is_dunder(name) or name in outside or any(
                    other != rel or not _inside(node, place)
                    for other, place in places.get(name, ())):
                continue
            unreached[qualname] = f"{rel}:{node.lineno}"
    reads = outside | _test_reads(root) | set(places)
    unread = {}
    for rel, module in scans.items():
        for attr, lineno in module.stores:
            if not _is_dunder(attr) and attr not in reads:
                unread.setdefault(attr, f"{rel}:{lineno}")
    return unreached, unread


def _constructor_names(classes):
    """Class name -> the names whose call runs its constructor: its own
    and every subclass's without an ``__init__`` / ``__new__``."""
    names = {name: {name} for name in classes}
    for name, cls in classes.items():
        heir, seen = cls, {name}
        while not any(isinstance(n, _DEFS) and n.name in ("__init__", "__new__")
                      for n in heir.body):
            bases = [b for b in _base_names(heir) if b in classes]
            if not bases or bases[0] in seen:
                break
            heir = classes[bases[0]]
            seen.add(heir.name)
            names[heir.name].add(name)
    return names


@functools.lru_cache(maxsize=None)
def _unset_params(root=REPO_ROOT):
    """Defaulted parameters no call outside ``tests/`` sets:
    ``Function.param`` -> ``[path:line]`` (one per same-named function)."""
    scans, callers = _modules(root)
    calls, values = {}, set()
    for module in callers:
        values |= module.values
        for name, sites in module.calls.items():
            calls.setdefault(name, []).extend(sites)
    classes = {node.name: node for module in scans.values()
               for _, node, _ in module.definitions
               if isinstance(node, ast.ClassDef)}
    constructors = _constructor_names(classes)
    unset = {}
    for rel, module in scans.items():
        for qualname, node, owner in module.definitions:
            if not isinstance(node, _DEFS):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = [(index, arg.arg) for index, arg in enumerate(positional)
                         if index >= len(positional) - len(args.defaults)]
            defaulted += [(None, arg.arg) for arg, default
                          in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            if not defaulted:
                continue
            if node.name in ("__init__", "__new__") and owner is not None:
                names = constructors.get(owner.name, {owner.name})
                label = qualname.rsplit(".", 1)[0]
            elif _is_dunder(node.name):
                continue
            else:
                names = {node.name}
                label = qualname
            if names & values:
                continue             # a callback: its arguments are unseen
            bound = owner is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list)
            sites = [site for name in names for site in calls.get(name, ())]
            for index, param in defaulted:
                at = None if index is None else index - bound
                if not any(unpacked or param in keywords
                           or (at is not None and count > at)
                           for count, keywords, unpacked in sites):
                    unset.setdefault(f"{label}.{param}", []).append(
                        f"{rel}:{node.lineno}")
    return unset


@functools.lru_cache(maxsize=None)
def _unset_spec_keys(root=REPO_ROOT):
    """Optional spec keys no producer outside ``tests/`` sets:
    ``TABLE.key`` -> ``path:line``."""
    scans, callers = _modules(root)
    set_keys = set().union(*(module.spec_keys for module in callers))
    return {f"{table}.{key}": f"{rel}:{line}"
            for rel, module in scans.items()
            for table, keys in module.tables.items()
            for key, line in keys if key not in set_keys}


def _check_names(root):
    unreached, _ = _findings(root)
    offenders = {q: where for q, where in unreached.items() if q not in ALLOWED}
    assert not offenders, (
        "defined in src/ but reached only from tests/ (delete it, or move "
        "a reference implementation to tests/): "
        + ", ".join(f"{q} ({where})" for q, where in sorted(offenders.items())))
    stale = sorted(set(ALLOWED) - set(unreached))
    assert not stale, f"ALLOWED entries that are reached or gone: {stale}"


def _check_state(root):
    _, unread = _findings(root)
    assert not unread, (
        "attributes src/ stores that nothing reads: "
        + ", ".join(f"{a} ({where})" for a, where in sorted(unread.items())))


def _check_params(root):
    unset = _unset_params(root)
    offenders = {p: where for p, where in unset.items()
                 if p not in ALLOWED_PARAMS}
    assert not offenders, (
        "defaulted parameters no caller outside tests/ sets (make each a "
        "constant and delete the branches only other values reach): "
        + ", ".join(f"{p} ({', '.join(where)})"
                    for p, where in sorted(offenders.items())))
    stale = sorted(set(ALLOWED_PARAMS) - set(unset))
    assert not stale, f"ALLOWED_PARAMS entries that are set or gone: {stale}"
    unset_keys = _unset_spec_keys(root)
    assert not unset_keys, (
        "spec keys no spec producer outside tests/ sets: "
        + ", ".join(f"{k} ({where})" for k, where in sorted(unset_keys.items())))


def test_every_src_definition_has_a_caller_outside_tests():
    _check_names(REPO_ROOT)


def test_every_stored_attribute_is_read():
    _check_state(REPO_ROOT)


def test_every_parameter_default_is_overridden_outside_tests():
    _check_params(REPO_ROOT)


_PLANTED = """\"\"\"Offenders the guard must name.\"\"\"

OPTIONS_DEFAULTS = {"depth": 1, "colour": "red"}


class Knob:
    def __init__(self, width=3, height=4):
        self.width = width
        self.height = height
        self.written_never_read = 0

    def area(self):
        return self.width * self.height


class Worker:
    def start(self, engine):
        engine.schedule(1.0, self.on_tick)

    def on_tick(self, late=False):
        return late


def only_tests_call_me():
    return 1
"""

_PLANTED_CALLER = """from repro.planted import Knob, Worker

print(Knob(height=5).area(), {"depth": 2})
Worker().start(None)
"""


def test_the_guard_names_planted_offenders(tmp_path):
    """Each check fails on a tree with one offender of its kind, and
    names it; a callback's unseen argument is not an offender."""
    for top in ("src/repro", "tests", "benchmarks", "examples"):
        (tmp_path / top).mkdir(parents=True)
    (tmp_path / "src/repro/planted.py").write_text(_PLANTED)
    (tmp_path / "examples/run.py").write_text(_PLANTED_CALLER)
    (tmp_path / "tests/test_planted.py").write_text(
        "from repro.planted import only_tests_call_me\n\n"
        "def test_it():\n    assert only_tests_call_me() == 1\n")

    with pytest.raises(AssertionError, match="only_tests_call_me"):
        _check_names(tmp_path)
    with pytest.raises(AssertionError, match="written_never_read"):
        _check_state(tmp_path)
    with pytest.raises(AssertionError) as params:
        _check_params(tmp_path)
    message = str(params.value)
    assert "Knob.width" in message
    assert "Knob.height" not in message and "on_tick" not in message
    assert "OPTIONS_DEFAULTS.colour" in _unset_spec_keys(tmp_path)
    assert "OPTIONS_DEFAULTS.depth" not in _unset_spec_keys(tmp_path)

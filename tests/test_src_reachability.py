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
the target of an augmented assignment, ``x.attr += ...`` and
``x.attr[k] += ...``) is read somewhere: an ``Attribute`` load in
``src/``, ``tests/``, ``benchmarks/`` or ``examples/`` that is not
itself such a target.  A word in a string or a document reads nothing.

*Constants.* Every module-level ``NAME = ...`` of ``src/repro`` is
loaded (as a ``Name`` or an ``Attribute``) in ``src/``, ``benchmarks/``
or ``examples/``.

*Parameters.* Every defaulted parameter of a ``src/repro`` function is
set to another value by some call in ``src/``, ``benchmarks/`` or
``examples/``: passed by keyword, or positionally at its index.  A value
equal to the default — a literal, or a module-level constant that
resolves to one — does not set it.  A ``*`` / ``**`` the scan cannot see
into sets every parameter, but forwarding a function's own ``*args`` /
``**kwargs`` passes on only what that function's callers put into them.
Calls match by name: ``f(...)`` and ``x.f(...)`` call every ``f``;
``Cls(...)``, ``cls(...)`` and ``super().__init__(...)`` call
``Cls.__init__`` (or ``__new__``), also through a subclass without its
own ``__init__``; a call through a local variable calls nothing.  A
function whose name is used as a value (a callback handed to
``schedule``, ``after`` or ``charge``) is exempt: its arguments cannot be
seen.  A value no system caller varies is a constant, not a parameter.

*Locals.* A load of a function's local variable references nothing; a
load of a name a nested ``def`` binds references only that ``def``.

*Spec keys.* Every key of a ``*_DEFAULTS`` dict table in ``src/`` (the
optional keys of a deployment spec, ``repro/config/loader.py``), and
every key a ``*_from_dict`` reader reads (``x.get("key")``,
``x["key"]``), is set by some spec producer in ``src/``, ``benchmarks/``
or ``examples/``: a dict-literal key, a ``spec["key"] = ...`` store, or
a keyword of ``non_default(...)``.

Matching is by name, so a dead method that shares its name with a live
one, or a parameter set by a call of a same-named method of another
class, escapes the scan; ``make census`` (``tools/census.py``) finds
those by running every entry point.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_SHOW = "operator render surface (ROADMAP aim 4; item 7 re-bases it)"

#: Definitions no caller outside ``tests/`` reaches, attributes nothing
#: loads and module constants nothing outside ``tests/`` loads, kept on
#: purpose.
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
    "desired_min_tx":
        "RFC 5880 wire field: every BFD control packet carries it",
    "SEGMENT_SET":
        "RFC 4271 AS_SET segment type: a decoded AS_PATH may carry one"
        " (path_length counts it as one hop)",
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


class _Site:
    """One call.  ``args`` are the values of its positional arguments
    (before any ``*``), ``keywords`` maps a keyword to its value; a value
    is ``("lit", v)`` for a literal, ``("name", n)`` for a global name
    (a module constant if one resolves) or None when unseen.
    ``unpacked``: a ``*`` / ``**`` passes values the scan cannot see.
    ``forwarder``: ``(def node, its class or None, star, double star)``
    when the call forwards its enclosing function's own ``*args`` /
    ``**kwargs``."""

    __slots__ = ("args", "keywords", "unpacked", "forwarder")

    def __init__(self, args, keywords, unpacked=False, forwarder=None):
        self.args, self.keywords = args, keywords
        self.unpacked, self.forwarder = unpacked, forwarder


class _Module:
    """What one walk over one module collects.

    ``definitions`` is ``[(qualname, node, owner)]`` (``owner`` is the
    :class:`ast.ClassDef` whose body defines a method, else None);
    ``references`` maps a word to the ``(line, column)`` places that
    reference it; ``stores`` is ``[(attr, line)]``; ``calls`` maps a
    callee name to ``[_Site]``; ``values`` holds every name loaded other
    than as a callee; ``spec_keys`` every string a dict literal, a
    subscript store or a ``non_default(...)`` keyword sets; ``tables``
    the ``*_DEFAULTS`` dicts as ``{name: [(key, line)]}``; ``spec_reads``
    the keys a ``*_from_dict`` function reads, as ``[(function, key,
    line)]``; ``constants`` the module-level ``NAME = literal`` values
    (``(value,)``, None when assigned twice) and ``assigned`` every
    module-level ``NAME = ...`` as ``[(name, line)]``; ``attr_loads`` /
    ``name_loads`` the attributes (augmented-assignment targets excepted)
    and the names other than local variables it loads; ``nested_refs``
    the loads of a name a ``def`` inside a function binds, as ``[(name,
    place, the function binding it, loaded as a value)]``: they reach
    only that nested definition.  A load of a local variable references
    nothing.
    """

    def __init__(self):
        self.definitions, self.references, self.stores = [], {}, []
        self.calls, self.values, self.spec_keys = {}, set(), set()
        self.tables, self.spec_reads, self.constants = {}, [], {}
        self.assigned, self.attr_loads, self.name_loads = [], set(), set()
        self.nested_refs = []


def _base_names(cls):
    return [base.id if isinstance(base, ast.Name) else base.attr
            for base in cls.bases if isinstance(base, (ast.Name, ast.Attribute))]


def _local_names(node):
    """``(variables, functions)``: the names a function or lambda binds
    by a parameter or a store, and by a nested ``def`` / ``class`` (a
    nested scope's own names excluded; an import names what it imports,
    so it binds neither)."""
    args = node.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    defined, declared = set(), set()
    pending = list(node.body) if isinstance(node.body, list) else [node.body]
    while pending:
        child = pending.pop()
        if isinstance(child, _DEFS + (ast.ClassDef,)):
            defined.add(child.name)
            continue
        if isinstance(child, ast.Lambda):
            continue
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Load):
            names.add(child.id)
        elif isinstance(child, (ast.Global, ast.Nonlocal)):
            declared.update(child.names)
        elif isinstance(child, ast.ExceptHandler) and child.name:
            names.add(child.name)
        pending.extend(ast.iter_child_nodes(child))
    return names - defined - declared, defined - declared


def _enter(node, local, nested):
    """The local variables and nested defs in scope inside function or
    lambda ``node``, given those around it."""
    variables, defined = _local_names(node)
    nested = {name: scope for name, scope in nested.items()
              if name not in variables}
    nested.update((name, node) for name in defined)
    return (local - defined) | variables, nested


def _nested_use(module, node, as_value=False):
    """Whether a load inside the function binding nested definition
    ``node`` reaches it (from outside its own body), as a value when
    ``as_value``."""
    start = (node.lineno, node.col_offset)
    return any(name == node.name and _inside(scope, start)
               and not _inside(node, place) and (value or not as_value)
               for name, place, scope, value in module.nested_refs)


def _value(node, local=frozenset()):
    """A call argument or default as :class:`_Site` records it."""
    if isinstance(node, ast.Name):
        return None if node.id in local else ("name", node.id)
    try:
        return ("lit", ast.literal_eval(node))
    except (ValueError, TypeError, SyntaxError, RecursionError):
        return None


def _callees(func, cls, local):
    """The names a call through ``func`` inside class ``cls`` reaches; a
    call through a local variable reaches no definition."""
    if isinstance(func, ast.Name):
        if func.id == "cls" and cls is not None:
            return [cls.name]
        return [] if func.id in local else [func.id]
    if not isinstance(func, ast.Attribute):
        return []
    value = func.value
    if (func.attr == "__init__" and cls is not None
            and isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "super"):
        return _base_names(cls)
    return [func.attr]


def _site(node, local, function):
    """The :class:`_Site` of call ``node`` inside ``function`` (``(def
    node, its class)`` or None)."""
    stars = [a for a in node.args if isinstance(a, ast.Starred)]
    double = [k for k in node.keywords if k.arg is None]
    args = function[0].args if function is not None else None

    def own(starred, vararg):
        return (vararg is not None and isinstance(starred.value, ast.Name)
                and starred.value.id == vararg.arg)

    star = (bool(stars) and stars == node.args[-1:]
            and own(stars[0], args and args.vararg))
    dstar = len(double) == 1 and own(double[0], args and args.kwarg)
    positional = [_value(a, local) for a in node.args
                  if not isinstance(a, ast.Starred)]
    keywords = {k.arg: _value(k.value, local) for k in node.keywords
                if k.arg is not None}
    if (stars and not star) or (double and not dstar):
        return _Site(positional, keywords, unpacked=True)
    forwarder = (*function, star, dstar) if star or dstar else None
    return _Site(positional, keywords, forwarder=forwarder)


def _augmented_targets(tree):
    """The ``Attribute`` node an augmented assignment stores through,
    per assignment: ``x.a`` of ``x.a += 1`` and of ``x.a[k] += 1``."""
    targets = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign):
            target = node.target
            while isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Attribute):
                targets[id(target)] = target
    return targets


def _attribute_loads(tree):
    """The attribute names ``tree`` loads, augmented-assignment targets
    excepted."""
    targets = _augmented_targets(tree)
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and id(node) not in targets}


def _scan(path):
    """One module, one pass: see :class:`_Module`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    module = _Module()
    refs = module.references
    augmented = _augmented_targets(tree)
    skip = set()                     # docstrings and __all__ entries
    callees = set()                  # the func node of every call
    # (node, scope, owner, cls, enclosing (def, class), local variables,
    #  local def name -> the def binding it, *_from_dict reader)
    pending = [(tree, "", None, None, None, frozenset(), {}, None)]
    while pending:
        node, scope, owner, cls, function, local, nested, reader = pending.pop()
        if isinstance(node, (ast.Module, ast.ClassDef) + _DEFS):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)):
                skip.add(id(body[0].value))
            if not isinstance(node, ast.Module):
                module.definitions.append((f"{scope}{node.name}", node, owner))
                scope = f"{scope}{node.name}."
                if isinstance(node, _DEFS):
                    function = (node, owner)
                    local, nested = _enter(node, local, nested)
                    reader = node.name if node.name.endswith("_from_dict") else None
                    owner = None
                else:
                    owner = cls = node
        elif isinstance(node, ast.Lambda):
            local, nested = _enter(node, local, nested)
        elif isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Load) or node.id in local:
                pass
            elif node.id in nested:
                module.name_loads.add(node.id)
                module.nested_refs.append(
                    (node.id, (node.lineno, node.col_offset), nested[node.id],
                     id(node) not in callees))
            else:
                module.name_loads.add(node.id)
                refs.setdefault(node.id, []).append((node.lineno, node.col_offset))
                if id(node) not in callees:
                    module.values.add(node.id)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                refs.setdefault(node.attr, []).append(
                    (node.lineno, node.col_offset))
                if id(node) not in callees:
                    module.values.add(node.attr)
            if isinstance(node.ctx, ast.Load) and id(node) not in augmented:
                module.attr_loads.add(node.attr)
            else:
                module.stores.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant):
            if isinstance(node.value, str) and id(node) not in skip:
                for word in WORD.findall(node.value):
                    refs.setdefault(word, []).append(
                        (node.lineno, node.col_offset))
        elif isinstance(node, ast.Call):
            callees.add(id(node.func))
            site = _site(node, local, function)
            for name in _callees(node.func, cls, local):
                module.calls.setdefault(name, []).append(site)
            if isinstance(node.func, ast.Name) and node.func.id == "non_default":
                module.spec_keys.update(site.keywords)
            if (reader is not None and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get" and node.args
                    and isinstance(node.args[0], ast.Constant)):
                module.spec_reads.append(
                    (reader, node.args[0].value, node.lineno))
        elif isinstance(node, ast.Dict):
            if id(node) not in skip:
                module.spec_keys.update(key.value for key in node.keys
                                        if isinstance(key, ast.Constant))
        elif isinstance(node, ast.Subscript):
            if isinstance(node.slice, ast.Constant):
                if isinstance(node.ctx, ast.Store):
                    module.spec_keys.add(node.slice.value)
                elif reader is not None and isinstance(node.slice.value, str):
                    module.spec_reads.append(
                        (reader, node.slice.value, node.lineno))
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
            if function is None and cls is None:
                module.assigned.extend(
                    (t.id, node.lineno) for t in node.targets
                    if isinstance(t, ast.Name) and not _is_dunder(t.id))
            if (function is None and cls is None and len(node.targets) == 1
                    and isinstance(target, ast.Name)):
                value = _value(node.value)
                constants = module.constants
                literal = value[1:] if value and value[0] == "lit" else None
                constants[target.id] = (
                    None if target.id in constants else literal)
        pending.extend((child, scope, owner, cls, function, local, nested,
                        reader) for child in ast.iter_child_nodes(node))
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
    """Attribute names ``tests/`` loads."""
    reads = set()
    for path in (root / "tests").rglob("*.py"):
        reads |= _attribute_loads(ast.parse(path.read_text(encoding="utf-8")))
    return reads


@functools.lru_cache(maxsize=None)
def _findings(root=REPO_ROOT):
    """``(unreached, unread, unloaded)``: offending definition,
    attribute and module constant -> ``path:line``."""
    scans, callers = _modules(root)
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
                    for other, place in places.get(name, ())) or _nested_use(
                        module, node):
                continue
            unreached[qualname] = f"{rel}:{node.lineno}"
    reads = _test_reads(root).union(*(m.attr_loads for m in callers))
    unread = {}
    for rel, module in scans.items():
        for attr, lineno in module.stores:
            if not _is_dunder(attr) and attr not in reads:
                unread.setdefault(attr, f"{rel}:{lineno}")
    loaded = set().union(*(m.name_loads | m.attr_loads for m in callers))
    unloaded = {name: f"{rel}:{lineno}" for rel, module in scans.items()
                for name, lineno in module.assigned if name not in loaded}
    return unreached, unread, unloaded


def _check_allowed(root):
    stale = sorted(set(ALLOWED).difference(*_findings(root)))
    assert not stale, f"ALLOWED entries that are reached or gone: {stale}"


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


def _reached_by(node, owner, constructors):
    """``(names, bound)``: the callee names that run function ``node``
    defined in class ``owner`` (or None), and whether a call binds its
    first parameter."""
    if node.name in ("__init__", "__new__") and owner is not None:
        names = constructors.get(owner.name, {owner.name})
    else:
        names = {node.name}
    bound = owner is not None and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in node.decorator_list)
    return names, bound


def _concrete(site, calls, values, constructors, depth=0):
    """The sites a call stands for: itself, or — when it forwards its
    function's own ``*args`` / ``**kwargs`` — one per call of that
    function, passing on what that call put into them."""
    if site.forwarder is None:
        return [site]
    node, owner, star, dstar = site.forwarder
    names, bound = _reached_by(node, owner, constructors)
    if names & values or depth > 3:  # a callback: its callers are unseen
        return [_Site(site.args, site.keywords, unpacked=True)]
    positional = node.args.posonlyargs + node.args.args
    named = {a.arg for a in positional + node.args.kwonlyargs}
    out = []
    for outer in (s for name in names for s in calls.get(name, ())):
        for call in _concrete(outer, calls, values, constructors, depth + 1):
            if call.unpacked:
                out.append(_Site(site.args, site.keywords, unpacked=True))
                continue
            keywords = dict(site.keywords)
            if dstar:
                keywords.update((k, v) for k, v in call.keywords.items()
                                if k not in named)
            extra = call.args[len(positional) - bound:] if star else []
            out.append(_Site(site.args + extra, keywords))
    return out


def _resolve(value, constants):
    """``(literal,)`` for a value the scan can see, else None."""
    if value is None:
        return None
    kind, item = value
    return (item,) if kind == "lit" else constants.get(item)


def _same(value, default):
    return (value is not None and default is not None
            and type(value[0]) is type(default[0]) and value[0] == default[0])


@functools.lru_cache(maxsize=None)
def _unset_params(root=REPO_ROOT):
    """Defaulted parameters no call outside ``tests/`` sets to another
    value: ``Function.param`` -> ``[path:line]`` (one per same-named
    function)."""
    scans, callers = _modules(root)
    calls, values, constants = {}, set(), {}
    for module in callers:
        values |= module.values
        for name, sites in module.calls.items():
            calls.setdefault(name, []).extend(sites)
        for name, value in module.constants.items():
            constants[name] = (None if constants.get(name, value) != value
                               else value)
    classes = {node.name: node for module in scans.values()
               for _, node, _ in module.definitions
               if isinstance(node, ast.ClassDef)}
    constructors = _constructor_names(classes)
    calls = {name: [c for s in sites
                    for c in _concrete(s, calls, values, constructors)]
             for name, sites in calls.items()}
    unset = {}
    for rel, module in scans.items():
        for qualname, node, owner in module.definitions:
            if not isinstance(node, _DEFS):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(first + index, arg.arg, default) for index, (arg, default)
                         in enumerate(zip(positional[first:], args.defaults))]
            defaulted += [(None, arg.arg, default) for arg, default
                          in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            if not defaulted or (_is_dunder(node.name) and (
                    owner is None or node.name not in ("__init__", "__new__"))):
                continue
            names, bound = _reached_by(node, owner, constructors)
            if names & values or _nested_use(module, node, as_value=True):
                continue             # a callback: its arguments are unseen
            label = (qualname.rsplit(".", 1)[0]
                     if node.name in ("__init__", "__new__") else qualname)
            sites = [site for name in names for site in calls.get(name, ())]
            for index, param, default in defaulted:
                at = None if index is None else index - bound
                default = _resolve(_value(default), constants)
                if not any(
                        site.unpacked
                        or (param in site.keywords and not _same(
                            _resolve(site.keywords[param], constants), default))
                        or (at is not None and at < len(site.args) and not _same(
                            _resolve(site.args[at], constants), default))
                        for site in sites):
                    unset.setdefault(f"{label}.{param}", []).append(
                        f"{rel}:{node.lineno}")
    return unset


@functools.lru_cache(maxsize=None)
def _unset_spec_keys(root=REPO_ROOT):
    """Spec keys no producer outside ``tests/`` sets: the optional keys
    of a ``*_DEFAULTS`` table as ``TABLE.key``, the keys a
    ``*_from_dict`` reader reads as ``function.key`` -> ``path:line``."""
    scans, callers = _modules(root)
    set_keys = set().union(*(module.spec_keys for module in callers))
    unset = {f"{table}.{key}": f"{rel}:{line}"
             for rel, module in scans.items()
             for table, keys in module.tables.items()
             for key, line in keys if key not in set_keys}
    unset.update((f"{reader}.{key}", f"{rel}:{line}")
                 for rel, module in scans.items()
                 for reader, key, line in module.spec_reads
                 if key not in set_keys)
    return unset


def _check_names(root):
    unreached, _, _ = _findings(root)
    offenders = {q: where for q, where in unreached.items() if q not in ALLOWED}
    assert not offenders, (
        "defined in src/ but reached only from tests/ (delete it, or move "
        "a reference implementation to tests/): "
        + ", ".join(f"{q} ({where})" for q, where in sorted(offenders.items())))
    _check_allowed(root)


def _check_state(root):
    _, unread, _ = _findings(root)
    offenders = {a: where for a, where in unread.items() if a not in ALLOWED}
    assert not offenders, (
        "attributes src/ stores that nothing reads: "
        + ", ".join(f"{a} ({where})" for a, where in sorted(offenders.items())))
    _check_allowed(root)


def _check_constants(root):
    _, _, unloaded = _findings(root)
    offenders = {c: where for c, where in unloaded.items() if c not in ALLOWED}
    assert not offenders, (
        "module constants of src/ nothing outside tests/ loads: "
        + ", ".join(f"{c} ({where})" for c, where in sorted(offenders.items())))
    _check_allowed(root)


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


def test_every_module_constant_is_loaded_outside_tests():
    _check_constants(REPO_ROOT)


def test_every_parameter_default_is_overridden_outside_tests():
    _check_params(REPO_ROOT)


_PLANTED = """\"\"\"Offenders the guard must name.\"\"\"

OPTIONS_DEFAULTS = {"depth": 1, "colour": "red"}

BASE = 0.5

SPARE = 3


class Knob:
    def __init__(self, width=3, height=4):
        self.width = width
        self.height = height
        self.written_never_read = 0

    def area(self):
        return self.width * self.height


class Meter:
    def __init__(self):
        self.hits = 0
        self.by_kind = {}
        self.label = "meter"
        self.noted = 0

    def tick(self, kind):
        self.hits += 1
        self.by_kind[kind] += 1
        if kind is None:
            raise ValueError("label missing")


class Worker:
    def start(self, engine):
        engine.schedule(1.0, self.on_tick)

    def on_tick(self, late=False):
        return late


class Ledger:
    def __init__(self):
        self._entries = {}

    def record(self, key):
        entries = self._entries.setdefault(key, [])
        entries.append(key)
        return len(entries)

    def entries(self, key):
        return list(self._entries.get(key, ()))


def only_tests_call_me():
    return 1


def wait(timeout=2.5):
    return timeout


def backoff(base=BASE):
    return base


def relay(*args, **kwargs):
    return deliver(*args, **kwargs)


def deliver(payload, urgent=False, copies=1):
    return payload, urgent, copies


def options_from_dict(data):
    return data.get("depth", 1), data["shade"]
"""

_PLANTED_CALLER = """from repro.planted import BASE, Knob, Ledger, Meter, Worker, backoff
from repro.planted import options_from_dict, relay, wait

print(Knob(height=5).area(), {"depth": 2})
Meter().tick("x")
Worker().start(None)
wait(timeout=2.5)
backoff(BASE)
relay("x", copies=2)
Ledger().record("k")
options_from_dict({"depth": 3})


def wrap(fn):
    def deliver(*args):
        return fn(*args)
    return deliver
"""


def test_the_guard_names_planted_offenders(tmp_path):
    """Each check fails on a tree with one offender of its kind, and
    names it; a callback's unseen argument is not an offender.  Each
    hiding shape is named too: (a) a value equal to the default, as a
    literal or a module constant; (b) a forwarded ``*args`` /
    ``**kwargs`` its callers put nothing into; (c) a local variable, or
    a nested ``def``, named like a method; (d) a key a ``*_from_dict``
    reader reads that no producer writes; (e) an attribute only ever
    incremented, as ``x.a += 1`` or ``x.a[k] += 1``; (f) an attribute
    named only in a string or a document; (g) a module constant only
    tests load."""
    for top in ("src/repro", "tests", "benchmarks", "examples"):
        (tmp_path / top).mkdir(parents=True)
    (tmp_path / "src/repro/planted.py").write_text(_PLANTED)
    (tmp_path / "examples/run.py").write_text(_PLANTED_CALLER)
    (tmp_path / "benchmarks/README.md").write_text("Each run is noted.\n")
    (tmp_path / "tests/test_planted.py").write_text(
        "from repro.planted import SPARE, Ledger, only_tests_call_me\n\n"
        "def test_it():\n    assert only_tests_call_me() == 1\n"
        "    assert Ledger().entries('k') == [] and SPARE == 3, 'hits'\n")

    with pytest.raises(AssertionError) as names:
        _check_names(tmp_path)
    assert "only_tests_call_me" in str(names.value)
    assert "Ledger.entries" in str(names.value)                 # (c)
    with pytest.raises(AssertionError) as state:
        _check_state(tmp_path)
    message = str(state.value)
    assert "written_never_read" in message
    assert "hits" in message and "by_kind" in message            # (e)
    assert "label" in message and "noted" in message             # (f)
    assert "width" not in message
    with pytest.raises(AssertionError) as constants:
        _check_constants(tmp_path)
    message = str(constants.value)
    assert "SPARE" in message                                    # (g)
    assert "BASE" not in message
    with pytest.raises(AssertionError) as params:
        _check_params(tmp_path)
    message = str(params.value)
    assert "Knob.width" in message
    assert "Knob.height" not in message and "on_tick" not in message
    assert "wait.timeout" in message and "backoff.base" in message  # (a)
    assert "deliver.urgent" in message                           # (b), (c)
    assert "deliver.copies" not in message
    unset_keys = _unset_spec_keys(tmp_path)
    assert "OPTIONS_DEFAULTS.colour" in unset_keys
    assert "OPTIONS_DEFAULTS.depth" not in unset_keys
    assert "options_from_dict.shade" in unset_keys               # (d)
    assert "options_from_dict.depth" not in unset_keys

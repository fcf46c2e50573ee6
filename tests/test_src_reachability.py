"""Nothing in ``src/`` that only tests run (ROADMAP aim 2).

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

Matching is by name, so a dead method that shares its name with a live
one escapes the scan.
"""

import ast
import functools
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
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


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _scan(path):
    """One module, one pass: definitions, referenced words, attribute stores.

    Returns ``(definitions, references, stores)``: ``definitions`` is
    ``[(qualname, node)]``, ``references`` maps a word to the
    ``(line, column)`` places that reference it, ``stores`` is
    ``[(attr, line)]``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skip = set()                     # docstrings and __all__ entries
    definitions, references, stores = [], {}, []
    pending = [(tree, "")]
    while pending:
        node, scope = pending.pop()
        if isinstance(node, _SCOPES):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)):
                skip.add(id(body[0].value))
            if not isinstance(node, ast.Module):
                scope = f"{scope}{node.name}"
                definitions.append((scope, node))
                scope += "."
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                references.setdefault(node.id, []).append(
                    (node.lineno, node.col_offset))
        elif isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                references.setdefault(node.attr, []).append(
                    (node.lineno, node.col_offset))
            else:
                stores.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant):
            if isinstance(node.value, str) and id(node) not in skip:
                for word in WORD.findall(node.value):
                    references.setdefault(word, []).append(
                        (node.lineno, node.col_offset))
        elif isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in node.targets):
                skip.update(id(c) for c in ast.walk(node.value))
        pending.extend((child, scope) for child in ast.iter_child_nodes(node))
    return definitions, references, stores


def _inside(node, place):
    return (node.lineno, node.col_offset) <= place <= (
        node.end_lineno, node.end_col_offset)


def _outside_words():
    """Every word of a .py or .md file under benchmarks/ or examples/,
    or of the Makefile."""
    paths = [REPO_ROOT / "Makefile"]
    for top in ("benchmarks", "examples"):
        paths += [p for suffix in ("py", "md")
                  for p in (REPO_ROOT / top).rglob(f"*.{suffix}")]
    words = set()
    for path in paths:
        words.update(WORD.findall(path.read_text(encoding="utf-8")))
    return words


def _test_reads():
    """Attribute names ``tests/`` loads or names in a string."""
    reads = set()
    for path in (REPO_ROOT / "tests").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.update(WORD.findall(node.value))
    return reads


@functools.lru_cache(maxsize=None)
def _findings():
    """``(unreached, unread)``: offending name -> ``path:line``."""
    scans = {path.relative_to(REPO_ROOT).as_posix(): _scan(path)
             for path in sorted(SRC.rglob("*.py"))}
    outside = _outside_words()
    places = {}                      # word -> [(module, place)] in src/
    for rel, (_, refs, _) in scans.items():
        for word, where in refs.items():
            places.setdefault(word, []).extend((rel, place) for place in where)
    unreached = {}
    for rel, (definitions, _, _) in scans.items():
        for qualname, node in definitions:
            name = node.name
            if _is_dunder(name) or name in outside or any(
                    other != rel or not _inside(node, place)
                    for other, place in places.get(name, ())):
                continue
            unreached[qualname] = f"{rel}:{node.lineno}"
    reads = outside | _test_reads() | set(places)
    unread = {}
    for rel, (_, _, stores) in scans.items():
        for attr, lineno in stores:
            if not _is_dunder(attr) and attr not in reads:
                unread.setdefault(attr, f"{rel}:{lineno}")
    return unreached, unread


def test_every_src_definition_has_a_caller_outside_tests():
    unreached, _ = _findings()
    offenders = {q: where for q, where in unreached.items() if q not in ALLOWED}
    assert not offenders, (
        "defined in src/ but reached only from tests/ (delete it, or move "
        "a reference implementation to tests/): "
        + ", ".join(f"{q} ({where})" for q, where in sorted(offenders.items())))
    stale = sorted(set(ALLOWED) - set(unreached))
    assert not stale, f"ALLOWED entries that are reached or gone: {stale}"


def test_every_stored_attribute_is_read():
    _, unread = _findings()
    assert not unread, (
        "attributes src/ stores that nothing reads: "
        + ", ".join(f"{a} ({where})" for a, where in sorted(unread.items())))

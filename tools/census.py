"""Value census: what no run varies or calls in ``src/repro``.

Runs every entry point of the repository, each in its own subprocess
under :func:`sys.settrace`, and records two things per ``src/repro``
function: that it was called, and which of its defaulted parameters
some call gave a value other than the default.  Then prints

* each defaulted parameter no run varies (a constant in disguise,
  ROADMAP item 10(h)), and
* each function no run calls.

The surfaces are the five examples, the trace demo, the chaos corpus in
its flavours (``--corpus --keep-going``, ``--controller-corpus``,
``--ablation``), the fuzz smoke and the manifest replay, nsrbench's five
workloads at ``--smoke`` size, every paper bench's ``run_experiment()``
and the ``bench_parallel_fleet``, ``bench_fulltable`` (``--smoke``) and
``bench_failover`` (``--smoke``) scripts (only the full parallel bench
varies the fleet schedule and the worker count).  Each nsrbench workload runs
in-process (its ``--child`` mode).  Stdlib only.  It takes
minutes, so it is not part of tier-1 or ``make verify``::

    PYTHONPATH=src python tools/census.py

A parameter counts as varied when a call binds it to a value that is
not the default object and not equal to it (for ``None``, bools,
numbers, strings, tuples and frozensets).  Functions nested in another
function are counted as called but their parameters are not censused.
"""

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
BENCHMARKS = ROOT / "benchmarks"

#: Types whose defaults compare by value (others only by identity).
_BY_VALUE = (type(None), bool, int, float, complex, str, bytes, tuple,
             frozenset)

_PAPER_BENCHES = sorted(
    path.stem for path in BENCHMARKS.glob("bench_*.py")
    if "def run_experiment" in path.read_text(encoding="utf-8"))

#: name -> (kind, target, argv): "module" runs ``python -m target``,
#: "path" a script, "bench" calls ``run_experiment()`` of a bench.
SURFACES = {
    **{f"example:{path.stem}": ("path", str(path), [])
       for path in sorted((ROOT / "examples").glob("*.py"))},
    "trace-demo": ("module", "repro.trace.demo", []),
    "chaos-corpus": ("module", "repro.failures.chaos",
                     ["--corpus", "--keep-going", "--out", "{tmp}"]),
    "chaos-controller": ("module", "repro.failures.chaos",
                         ["--controller-corpus", "--out", "{tmp}"]),
    "chaos-ablation": ("module", "repro.failures.chaos",
                       ["--ablation", "--out", "{tmp}"]),
    "fuzz-smoke": ("module", "repro.fuzz", ["--smoke", "--out", "{tmp}"]),
    "fuzz-replay": ("module", "repro.fuzz",
                    ["--replay", str(ROOT / "tests/fuzz_corpus/manifest.json")]),
    **{f"nsrbench:{workload}": (
        "path", str(BENCHMARKS / "nsrbench"),
        ["--child", "--workload", workload, "--smoke", "--spawned-at", "0"])
       for workload in ("fleet_steady", "update_recv_packed",
                        "update_recv_small", "fulltable_rib",
                        "failover_chaos")},
    "bench_parallel_fleet": ("path", str(BENCHMARKS / "bench_parallel_fleet.py"),
                             ["--out", "{tmp}/parallel.json"]),
    "bench_fulltable": ("path", str(BENCHMARKS / "bench_fulltable.py"),
                        ["--smoke", "--out", "{tmp}/fulltable.json"]),
    "bench_failover": ("path", str(BENCHMARKS / "bench_failover.py"),
                       ["--smoke", "--out", "{tmp}/failover.json"]),
    **{f"bench:{name}": ("bench", name, []) for name in _PAPER_BENCHES},
}


# ----------------------------------------------------------------------
# what src/ defines (static)
# ----------------------------------------------------------------------

def definitions():
    """``(functions, params)``: every ``path:qualname`` defined under
    ``src/repro`` (nested ones as ``outer.<locals>.inner``), and every
    defaulted parameter of a function not nested in another, as
    ``path:qualname.param``."""
    functions, params = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        pending = [(ast.parse(path.read_text(encoding="utf-8")), "", False)]
        while pending:
            node, scope, nested = pending.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    pending.append((child, f"{scope}{child.name}.", nested))
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{scope}{child.name}"
                    functions.add(f"{rel}:{qualname}")
                    if not nested:
                        args = child.args
                        positional = args.posonlyargs + args.args
                        names = [a.arg for a in positional[
                            len(positional) - len(args.defaults):]]
                        names += [a.arg for a, d in zip(args.kwonlyargs,
                                                        args.kw_defaults)
                                  if d is not None]
                        params.update(f"{rel}:{qualname}.{n}" for n in names)
                    pending.append((child, f"{qualname}.<locals>.", True))
                else:
                    pending.append((child, scope, nested))
    return functions, params


# ----------------------------------------------------------------------
# what a run calls and varies (dynamic, in the child)
# ----------------------------------------------------------------------

def _function_of(code, f_globals):
    """The function object whose code ``code`` is, found by walking its
    qualified name from the module globals; None for nested functions."""
    parts = code.co_qualname.split(".")
    if "<locals>" in parts or "<lambda>" in parts:
        return None
    obj = f_globals.get(parts[0])
    owner = None
    for part in parts[1:]:
        owner = obj
        obj = getattr(obj, "__dict__", {}).get(part)
    for candidate in (obj, getattr(obj, "__func__", None),
                      getattr(obj, "__wrapped__", None),
                      getattr(obj, "fget", None), getattr(obj, "fset", None)):
        if getattr(candidate, "__code__", None) is code:
            return candidate
    if owner is None and getattr(obj, "__code__", None) is code:
        return obj
    return None


def _defaulted(function):
    """``[(name, default)]`` of ``function``'s defaulted parameters."""
    code = function.__code__
    names = code.co_varnames[:code.co_argcount]
    defaults = function.__defaults__ or ()
    out = list(zip(names[len(names) - len(defaults):], defaults))
    kwdefaults = function.__kwdefaults__ or {}
    out += [(name, kwdefaults[name]) for name in code.co_varnames[
        code.co_argcount:code.co_argcount + code.co_kwonlyargcount]
        if name in kwdefaults]
    return out


def _equal(value, default):
    if value is default:
        return True
    return (type(value) is type(default) and isinstance(default, _BY_VALUE)
            and value == default)


class Recorder:
    """The trace function: ``called`` holds ``path:qualname`` of every
    ``src/repro`` code object run, ``varied`` ``path:qualname.param``."""

    def __init__(self):
        self.prefix = str(SRC) + os.sep
        self.called, self.varied = set(), set()
        self._done = set()   # code objects with nothing left to learn
        self._watch = {}     # code -> [label, [(param, default)] unvaried]

    def _learn(self, frame, code):
        label = f"{Path(code.co_filename).relative_to(ROOT).as_posix()}:" \
                f"{code.co_qualname}"
        self.called.add(label)
        function = _function_of(code, frame.f_globals)
        params = _defaulted(function) if function is not None else []
        if not params:
            self._done.add(code)
            return None
        entry = self._watch[code] = [label, params]
        return entry

    def __call__(self, frame, event, _arg):
        code = frame.f_code
        if code in self._done:
            return None
        entry = self._watch.get(code)
        if entry is None:
            if not code.co_filename.startswith(self.prefix):
                self._done.add(code)
                return None
            entry = self._learn(frame, code)
            if entry is None:
                return None
        local = frame.f_locals
        label, params = entry
        left = []
        for name, default in params:
            if name in local and not _equal(local[name], default):
                self.varied.add(f"{label}.{name}")
            else:
                left.append((name, default))
        if left:
            entry[1] = left
        else:
            del self._watch[code]
            self._done.add(code)
        return None


def _run_surface(name, tmp):
    kind, target, argv = SURFACES[name]
    argv = [arg.replace("{tmp}", tmp) for arg in argv]
    if kind == "bench":
        sys.path.insert(0, str(BENCHMARKS))
        module = runpy.run_path(str(BENCHMARKS / f"{target}.py"),
                                run_name=target)
        module["run_experiment"]()
        return
    sys.argv = [target, *argv]
    try:
        if kind == "module":
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            if Path(target).is_file():
                sys.path.insert(0, str(Path(target).parent))
            runpy.run_path(target, run_name="__main__")
    except SystemExit as exc:
        # what ran is the census, whatever the verdict: a chaos run exits
        # 1 on a violation and 2 on a partial run, a bench 1 on a check
        if exc.code not in (None, 0, 1, 2):
            raise


def _child(name, out):
    recorder = Recorder()
    census_pid, real_exit = os.getpid(), os._exit

    def exit_here(code):
        """nsrbench's child skips teardown with ``os._exit``, which would
        skip writing the census too; a forked worker (the parallel
        bench's) still exits at once."""
        if os.getpid() != census_pid:
            real_exit(code)
        raise SystemExit(code)

    os._exit = exit_here
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        sys.settrace(recorder)
        try:
            _run_surface(name, tmp)
        finally:
            sys.settrace(None)
    Path(out).write_text(json.dumps({
        "called": sorted(recorder.called),
        "varied": sorted(recorder.varied),
    }))


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", nargs=2, metavar=("SURFACE", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(*args.child)
        return 0

    functions, params = definitions()
    called, varied = set(), set()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as tmp:
        for name in SURFACES:
            out = Path(tmp) / "surface.json"
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--child", name, str(out)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"census: surface {name} failed "
                      f"(exit {proc.returncode})", file=sys.stderr)
                return 1
            found = json.loads(out.read_text())
            called.update(found["called"])
            varied.update(found["varied"])
            print(f"# {name}: {time.perf_counter() - start:.0f} s",
                  file=sys.stderr, flush=True)

    unvaried = sorted(params - varied)
    uncalled = sorted(functions - called)
    print(f"defaulted parameters no run varies: {len(unvaried)} "
          f"of {len(params)}")
    for label in unvaried:
        print(f"  {label}")
    print(f"functions no run calls: {len(uncalled)} of {len(functions)}")
    for label in uncalled:
        print(f"  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

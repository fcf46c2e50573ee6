"""The paired A/B script's two trees (``benchmarks/ab.py`` ``prepare``)
are byte-compiled before any run, on a tiny git repository: no
nsrbench subprocess."""

import importlib.util
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=ab",
                    "-c", "user.email=ab@example.org", *args],
                   check=True, stdout=subprocess.DEVNULL)


def test_both_prepared_trees_are_compiled(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / "pkg" / "__init__.py").write_text("")
    (repo / "pkg" / "mod.py").write_text("VALUE = 1\n")
    (repo / "tool.py").write_text("print('base')\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "pkg" / "mod.py").write_text("VALUE = 2\n")
    (repo / "new.py").write_text("NEW = True\n")
    monkeypatch.setattr(ab, "REPO_ROOT", repo)
    monkeypatch.setattr("sys.dont_write_bytecode", True)

    sides = ab.prepare("HEAD", tmp_path / "scratch")

    assert ab.bytecode_state(sides["base"]) == (3, 3)
    assert ab.bytecode_state(sides["change"]) == (4, 4)
    assert (sides["base"] / "pkg" / "mod.py").read_text() == "VALUE = 1\n"
    assert (sides["change"] / "pkg" / "mod.py").read_text() == "VALUE = 2\n"
    assert ab.bytecode_state(repo) == (0, 4)  # the checkout is left alone

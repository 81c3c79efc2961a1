"""Tests of the scripts under ``tools/``."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_bench_compare_measures_head_when_only_bench_files_changed(tmp_path, monkeypatch):
    for role in ("AUTHOR", "COMMITTER"):
        monkeypatch.setenv(f"GIT_{role}_NAME", "test")
        monkeypatch.setenv(f"GIT_{role}_EMAIL", "test@example.com")
    bench_compare = _load("bench_compare")
    monkeypatch.setattr(bench_compare, "ROOT", tmp_path)

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=tmp_path, check=True, capture_output=True,
                              text=True).stdout.strip()

    git("init", "-q")
    for text in ("parent", "change"):
        (tmp_path / "code.py").write_text(text)
        (tmp_path / "BENCH_1.json").write_text(f'"{text}"')
        git("add", "-A")
        git("commit", "-q", "-m", text)
    head, first_parent = git("rev-parse", "HEAD"), git("rev-parse", "HEAD^")
    assert bench_compare.resolve() == (head, first_parent, False)  # a clean tree
    # a BENCH file written after the commit, and a new one
    (tmp_path / "BENCH_1.json").write_text('"rewritten"')
    (tmp_path / "BENCH_2.json").write_text('"new"')
    git("add", "BENCH_2.json")
    assert bench_compare.resolve() == (head, first_parent, False)
    # a BENCH file below the root is a change like any other
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "BENCH_3.json").write_text('"nested"')
    git("add", "tools")
    change, parent, from_working_tree = bench_compare.resolve()
    assert (parent, from_working_tree) == (head, True) and change != head
    git("rm", "-q", "--cached", "tools/BENCH_3.json")
    # a source change is measured against HEAD, BENCH files and all
    (tmp_path / "code.py").write_text("edited")
    change, parent, from_working_tree = bench_compare.resolve()
    assert (parent, from_working_tree) == (head, True) and change != head
    assert git("show", f"{change}:code.py") == "edited"


def test_heavy_cells_prints_each_seed_and_the_medians(capsys):
    heavy_cells = _load("heavy_cells")
    assert heavy_cells.main(["--seeds", "2", "point-8x8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "point-8x8 seed 0", "point-8x8 seed 1", "point-8x8 median"]
    for line in lines[:2]:
        assert all(word in line for word in ("wall", "cpu", "accept", "stage"))
    assert "wall" in lines[2] and "cpu" in lines[2]

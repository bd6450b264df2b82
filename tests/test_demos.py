"""Smoke tests: every demo script and the README's library quick start run
to completion, and every name a `gair` module exports exists."""

import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import gair

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SRC = str(ROOT / "src")


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    proc = run_python([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_library_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "recall@1" in proc.stdout


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(gair.__path__)))
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"gair.{module}")
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []

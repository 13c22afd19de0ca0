"""Packaging metadata agrees with the importable package."""

from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

from setuptools.config.pyprojecttoml import read_configuration

import rdslab

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def test_distribution_version_is_the_package_version():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools flags [tool.setuptools] as beta
        project = read_configuration(PYPROJECT)["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == rdslab.__version__


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert "absorbing radius:" in out.getvalue() and "sup at time 0:" in out.getvalue()


IMPORT_HYGIENE = """
import sys
import rdslab
assert "scipy" not in sys.modules, "import rdslab loaded scipy"
before = set(sys.modules)
for text in ("experiment = ou-stats\\nseed = 3\\npaths = 32\\n",
             "experiment = kernel-bound\\nseed = 3\\ntrials = 5\\n"):
    rdslab.run_experiment(rdslab.parse_config(text)).csv_text()
print(sorted(set(sys.modules) - before))
"""


def test_import_leaves_out_scipy_and_a_run_imports_nothing():
    # a module imported lazily by a run would be paid inside every timed run
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", IMPORT_HYGIENE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# Exports whose only users are callers of other exports: the result types
# they return, and evaluate_feedback, a named cross-check of the solver.
EXPORT_ALLOWLIST = {"DerivedConstants", "Trajectory", "ExperimentResult", "evaluate_feedback"}


def test_every_export_has_a_non_test_user():
    # an export that only tests reach is code the lab does not need
    modules = {p.stem: p.read_text() for p in (ROOT / "src" / "rdslab").glob("*.py")}
    outside = [(ROOT / "README.md").read_text()]
    outside += [p.read_text() for p in (ROOT / "perfbench").glob("*.py")]
    unused = []
    for name in sorted(set(rdslab.__all__) - EXPORT_ALLOWLIST):
        value = getattr(rdslab, name)
        home = value.__module__.rpartition(".")[2] if callable(value) else "__init__"
        texts = [text for stem, text in modules.items() if stem not in (home, "__init__")]
        if not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts + outside):
            unused.append(name)
    assert unused == []

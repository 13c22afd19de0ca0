"""Packaging metadata agrees with the importable package."""

from __future__ import annotations

import contextlib
import io
import re
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

"""Packaging metadata agrees with the importable package."""

from __future__ import annotations

import warnings
from pathlib import Path

from setuptools.config.pyprojecttoml import read_configuration

import rdslab

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_distribution_version_is_the_package_version():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools flags [tool.setuptools] as beta
        project = read_configuration(PYPROJECT)["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == rdslab.__version__

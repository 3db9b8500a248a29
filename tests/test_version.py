"""The package version has one value, the one pyproject.toml declares."""

from pathlib import Path

import pytest

import lipquant


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        declared = tomllib.load(fh)["project"]["version"]
    assert lipquant.__version__ == declared

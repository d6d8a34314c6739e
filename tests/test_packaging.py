"""pyproject.toml declares only what exists: installed dependencies and
script entry points that import."""

import importlib
import importlib.metadata
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

PROJECT = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())[
    "project"
]


@pytest.mark.parametrize("requirement", PROJECT.get("dependencies", []))
def test_dependency_is_installed(requirement):
    name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
    importlib.metadata.version(name)  # raises PackageNotFoundError if absent


def test_script_targets_import():
    for script, target in PROJECT.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in filter(None, attr.split(".")):
            obj = getattr(obj, part)
        assert callable(obj), f"{script} -> {target} is not callable"

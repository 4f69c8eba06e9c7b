"""Public API: every exported name resolves, none is listed twice, and the
package exports exactly what its modules declare."""

import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

import pai

MODULES = ("statevector", "notch", "quasiprob", "rng", "estimate", "models")


@pytest.mark.parametrize("name", ["pai", *(f"pai.{m}" for m in MODULES)])
def test_exported_names_resolve_without_duplicates(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


def test_star_import_binds_every_package_name():
    namespace: dict = {}
    exec("from pai import *", namespace)
    assert set(pai.__all__) <= set(namespace)


def test_package_exports_the_module_lists_in_order():
    lists = [importlib.import_module(f"pai.{m}").__all__ for m in MODULES]
    assert pai.__all__ == ["__version__", *(n for names in lists for n in names)]
    # a star import would let a later module shadow an earlier one's name
    owners = Counter(n for names in lists for n in names)
    assert [n for n, count in owners.items() if count > 1] == []


def test_pyproject_version_is_the_package_version():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1]
    assert re.search(r'^version = "([^"]+)"', project, re.M)[1] == pai.__version__

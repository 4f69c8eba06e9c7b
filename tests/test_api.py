"""Public API: every exported name resolves and none is listed twice."""

import importlib

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


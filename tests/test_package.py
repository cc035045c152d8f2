"""The package namespace: every exported name, submodules loaded on first use."""

import os
import subprocess
import sys

import belnet

SUBMODULES = ("cpt", "errors", "extvals", "fusion", "network", "sampler", "tables", "verify")


def test_every_exported_name_resolves():
    for name in belnet.__all__:
        value = getattr(belnet, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"belnet.{name}"]
        else:
            assert value is getattr(sys.modules[value.__module__], name)
    assert set(SUBMODULES) <= set(belnet.__all__) <= set(dir(belnet))


def test_unknown_name_raises_attribute_error():
    assert not hasattr(belnet, "no_such_name")


def test_import_loads_submodules_on_first_use():
    script = (
        "import sys, belnet\n"
        "print(sorted(m for m in sys.modules if m.startswith('belnet')))\n"
        "belnet.build_network_cpts\n"
        "print(sorted(m for m in sys.modules if m.startswith('belnet')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == [
        "['belnet']",
        "['belnet', 'belnet.cpt', 'belnet.errors', 'belnet.extvals', 'belnet.network', "
        "'belnet.tables']",
    ]

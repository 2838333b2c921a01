"""The package namespace is the union of its modules' public names, and
importing it loads numpy alone."""

import os
import subprocess
import sys

import seakit
from seakit import (
    config, identify, plant, polynomials, presets, simulation, synthesis, transfer,
)


def test_all_is_the_union_of_module_all_lists():
    modules = (polynomials, transfer, plant, synthesis, simulation, identify,
               config, presets)
    expected = ["NumericsError"] + [n for m in modules for n in m.__all__]
    assert seakit.__all__ == expected
    assert len(set(expected)) == len(expected)
    for m in modules:
        for name in m.__all__:
            assert getattr(seakit, name) is getattr(m, name)
    assert seakit.NumericsError is seakit.errors.NumericsError


def test_import_loads_no_scipy():
    # scipy is a test and benchmark reference only; importing it took
    # about 1.5 s of every command's start-up
    src = os.path.dirname(os.path.dirname(os.path.abspath(seakit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, seakit; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"

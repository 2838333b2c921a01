"""The package namespace is the union of its modules' public names, it
holds every name the benchmark reads, and importing it loads numpy alone."""

import ast
import glob
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


def _package_reads(path):
    """Dotted names read on a module bound to sk or seakit (also self.sk)."""
    reads = set()
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            chain.insert(0, node.id)
        roots = [i for i, name in enumerate(chain) if name in ("sk", "seakit")]
        if roots and chain[roots[0] + 1:]:
            reads.add(".".join(chain[roots[0] + 1:]))
    return reads


def test_bench_reads_resolve_on_the_package():
    # a deletion that breaks the benchmark fails here, not in a bench run
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = sorted(glob.glob(os.path.join(root, "bench", "*.py"))
                   + glob.glob(os.path.join(root, "bench", "tests", "*.py")))
    reads = {name for path in paths for name in _package_reads(path)}
    assert {"run_reproduce", "series", "simulate_torque_loop"} <= reads
    for name in sorted(reads):
        obj = seakit
        for part in name.split("."):
            assert hasattr(obj, part), f"bench reads seakit.{name}"
            obj = getattr(obj, part)


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

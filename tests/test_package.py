"""The package namespace is the union of its modules' public names."""

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

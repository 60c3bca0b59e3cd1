"""The package memoises its fixed per-level tables with ``functools.cache``
only, so clearing every functools cache in the package starts it cold.

Meshes, bases and label sets are built once and shared, with frozen
arrays; a cold rebuild must give new objects with the same bytes, and the
public builders must key equal arguments alike however they are spelled.
"""

import dataclasses
import importlib
import pkgutil

import numpy as np

import sphreg
from sphreg.discrete_reg import build_label_sets
from sphreg.icosphere import generate_icosphere
from sphreg.sht import build_basis


def package_modules():
    return [importlib.import_module(f"sphreg.{info.name}")
            for info in pkgutil.iter_modules(sphreg.__path__)] + [sphreg]


def arrays_of(obj):
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
            if isinstance(getattr(obj, f.name), np.ndarray)}


def test_every_cache_is_a_functools_memo_that_clears_cold():
    modules = package_modules()
    for module in modules:
        for attr, value in vars(module).items():
            assert not (attr.endswith("_cache") and isinstance(value, dict)), \
                f"{module.__name__}.{attr} is a hand-rolled cache"

    mesh = generate_icosphere(3)
    built = [mesh, build_basis(mesh, 16), build_label_sets(1, 3)]
    for module in modules:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    fresh_mesh = generate_icosphere(3)
    fresh = [fresh_mesh, build_basis(fresh_mesh, 16), build_label_sets(1, 3)]

    for old, new in zip(built, fresh):
        assert new is not old
        old_arrays, new_arrays = arrays_of(old), arrays_of(new)
        assert old_arrays.keys() == new_arrays.keys() and new_arrays
        for name, array in new_arrays.items():
            where = f"{type(new).__name__}.{name}"
            assert not array.flags.writeable, where
            assert array.dtype == old_arrays[name].dtype, where
            assert array.tobytes() == old_arrays[name].tobytes(), where

    # equal arguments share one entry however they are spelled
    assert generate_icosphere(np.int64(3)) is generate_icosphere(3)
    assert build_label_sets(1, 3) is build_label_sets(1, 3, hops=1)

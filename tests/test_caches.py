"""The package memoises its fixed per-level tables with ``functools.cache``
only, so clearing every functools cache in the package starts it cold.

Meshes, bases and label sets are built once and shared, with frozen
arrays; a cold rebuild must give new objects with the same bytes, and the
public builders must key equal arguments alike however they are spelled.
A mesh builds each index table on its first read.
"""

import dataclasses
import functools
import importlib
import pkgutil

import numpy as np

import sphreg
from sphreg import icosphere
from sphreg.discrete_reg import build_label_sets
from sphreg.icosphere import generate_icosphere
from sphreg.sht import build_basis

MESH_TABLES = ("edges", "ring_offsets", "ring_dst", "ring_src",
               "incident_faces", "neighbourhood", "face_neighbours",
               "antipodes")


def package_modules():
    return [importlib.import_module(f"sphreg.{info.name}")
            for info in pkgutil.iter_modules(sphreg.__path__)] + [sphreg]


def clear_package_caches(modules):
    for module in modules:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def arrays_of(obj):
    """The array fields of ``obj`` and the arrays its class builds on first
    read, its public ``cached_property`` attributes; reading builds them."""
    names = [f.name for f in dataclasses.fields(obj)] + [
        name for name, attr in vars(type(obj)).items()
        if isinstance(attr, functools.cached_property)
        and not name.startswith("_")]
    return {name: getattr(obj, name) for name in names
            if isinstance(getattr(obj, name), np.ndarray)}


def test_every_cache_is_a_functools_memo_that_clears_cold():
    modules = package_modules()
    for module in modules:
        for attr, value in vars(module).items():
            assert not (attr.endswith("_cache") and isinstance(value, dict)), \
                f"{module.__name__}.{attr} is a hand-rolled cache"

    mesh = generate_icosphere(3)
    built = [mesh, build_basis(mesh, 16), build_label_sets(1, 3)]
    clear_package_caches(modules)
    fresh_mesh = generate_icosphere(3)
    fresh = [fresh_mesh, build_basis(fresh_mesh, 16), build_label_sets(1, 3)]

    # the mesh's index tables and the basis's full maps and analysis
    # operators are built on first read, and frozen too
    assert set(MESH_TABLES) < arrays_of(fresh_mesh).keys()
    assert {"Y", "forward", "forward_even", "forward_odd"} < \
        arrays_of(fresh[1]).keys()
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


def test_mesh_tables_are_built_on_first_read(monkeypatch):
    clear_package_caches(package_modules())
    calls = []
    unique_edges = icosphere._unique_edges
    monkeypatch.setattr(icosphere, "_unique_edges",
                        lambda *args: calls.append(args) or unique_edges(*args))
    mesh = generate_icosphere(6)
    # levels 0-5 each built their edge table to subdivide; level 6 none
    assert len(calls) == 6
    assert not set(MESH_TABLES) & vars(mesh).keys()
    for name in MESH_TABLES:
        table = getattr(mesh, name)
        assert name in vars(mesh) and not table.flags.writeable, name
        assert getattr(mesh, name) is table, name
    # one edge table serves edges, face_neighbours and the one-ring, and
    # the antipodes read only the coarser levels' edge tables
    assert len(calls) == 7

"""Mesh construction, topology counts, and barycentric interpolation."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from sphreg import autodiff as ag
from sphreg import icosphere
from sphreg.discrete_reg import build_label_sets
from sphreg.icosphere import (Icosphere, SphericalSignal, barycentric_resample,
                              barycentric_weights, edge_count, face_count,
                              generate_icosphere, locate_faces, vertex_count)
from sphreg.metrics import smoothness_penalty


@pytest.mark.parametrize("level,verts", [(0, 12), (1, 42), (2, 162),
                                         (3, 642), (4, 2562), (6, 40962)])
def test_vertex_counts(level, verts):
    assert vertex_count(level) == verts


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_generated_counts_and_euler_formula(level):
    mesh = generate_icosphere(level)
    assert mesh.n_vertices == vertex_count(level)
    assert mesh.n_faces == face_count(level) == 20 * 4 ** level
    assert len(mesh.edges) == edge_count(level) == 30 * 4 ** level
    # Euler characteristic of the sphere
    assert mesh.n_vertices - len(mesh.edges) + mesh.n_faces == 2


def test_vertices_unit_norm():
    mesh = generate_icosphere(3)
    norms = np.linalg.norm(mesh.vertices, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-15)


def test_twelve_degree_five_vertices_first():
    mesh = generate_icosphere(2)
    degrees = np.array([len(ring) for ring in mesh.one_ring])
    assert (degrees[:12] == 5).all()
    assert (degrees[12:] == 6).all()


def test_prefix_property_across_levels():
    coarse = generate_icosphere(1)
    fine = generate_icosphere(2)
    np.testing.assert_array_equal(fine.vertices[:coarse.n_vertices],
                                  coarse.vertices)


def test_one_ring_is_symmetric():
    mesh = generate_icosphere(1)
    for v, ring in enumerate(mesh.one_ring):
        for u in ring:
            assert v in mesh.one_ring[u]


def test_edge_arcs_shrink_roughly_by_half_per_level():
    arcs = [generate_icosphere(level).mean_edge_arc() for level in (0, 1, 2, 3)]
    for coarse, fine in zip(arcs, arcs[1:]):
        assert 1.8 < coarse / fine < 2.2
    mesh = generate_icosphere(2)
    assert mesh.mean_edge_arc() <= mesh.max_edge_arc()


def test_locate_faces_own_vertices():
    mesh = generate_icosphere(2)
    faces, _ = locate_faces(mesh, mesh.vertices)
    corners = mesh.faces[faces]
    hit = (corners == np.arange(mesh.n_vertices)[:, None]).any(axis=1)
    assert hit.all()


def test_barycentric_weights_partition_of_unity():
    mesh = generate_icosphere(2)
    rng = np.random.default_rng(0)
    targets = rng.standard_normal((500, 3))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    faces, weights = barycentric_weights(mesh, targets)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
    assert (weights > -1e-12).all()


def test_resample_at_vertices_is_bitwise_identity():
    mesh = generate_icosphere(3)
    rng = np.random.default_rng(1)
    values = rng.standard_normal((mesh.n_vertices, 2))
    out = barycentric_resample(values, mesh, mesh.vertices.copy())
    np.testing.assert_array_equal(out, values)


def test_resample_linear_function_high_accuracy():
    # A degree-1 spherical harmonic is linear in xyz, so gnomonic barycentric
    # interpolation reproduces it to second order in the edge length.
    mesh = generate_icosphere(4)
    values = mesh.vertices @ np.array([0.3, -0.7, 0.55])
    rng = np.random.default_rng(2)
    targets = rng.standard_normal((1000, 3))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    out = barycentric_resample(values[:, None], mesh, targets)
    expected = targets @ np.array([0.3, -0.7, 0.55])
    assert np.abs(out[:, 0] - expected).max() < 2e-3


def test_signal_validation():
    with pytest.raises(ValueError):
        SphericalSignal(1, np.zeros((41, 1)))
    with pytest.raises(ValueError):
        SphericalSignal(1, np.full((42, 1), np.nan))
    sig = SphericalSignal(1, np.zeros((42, 3)))
    assert sig.channels == 3


def test_resample_searches_nearest_vertices_once(monkeypatch):
    # the nearest-vertex seed of each target comes out of one locate_faces
    # call, and snapping reads the located face's corners
    mesh = generate_icosphere(3)
    rng = np.random.default_rng(3)
    values = rng.standard_normal((mesh.n_vertices, 2))
    targets = rng.standard_normal((700, 3))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    targets[:50] = mesh.vertices[rng.choice(mesh.n_vertices, 50, replace=False)]
    expected_faces, expected_weights = barycentric_weights(mesh, targets)

    calls = []
    locate = icosphere.locate_faces

    def counting_locate(*args, **kwargs):
        calls.append(len(args[1]))
        return locate(*args, **kwargs)

    monkeypatch.setattr(icosphere, "locate_faces", counting_locate)
    out = barycentric_resample(values, mesh, targets)
    assert calls == [len(targets)]
    corner_vals = values[mesh.faces[expected_faces]]
    np.testing.assert_array_equal(
        out[50:], np.einsum("tk,tkc->tc", expected_weights, corner_vals)[50:])
    vertex_of = np.argmax(targets[:50] @ mesh.vertices.T, axis=1)
    np.testing.assert_array_equal(out[:50], values[vertex_of])


def _oracle_locate(mesh, targets, rows_per_block=256):
    """Every face scored for every target: the face with the largest minimum
    gnomonic coordinate, the lowest index on exact ties."""
    faces, lams = [], []
    for lo in range(0, len(targets), rows_per_block):
        block = targets[lo:lo + rows_per_block]
        every = np.broadcast_to(mesh.corner_inverse,
                                (len(block),) + mesh.corner_inverse.shape)
        lam = np.einsum("tkij,tj->tki", every, block)
        best = np.argmax(np.min(lam.transpose(2, 0, 1), axis=0), axis=1)
        faces.append(best)
        lams.append(lam[np.arange(len(block)), best])
    return np.concatenate(faces), np.concatenate(lams)


def _location_cases(level, rng):
    """Vertices of the next two levels (midpoints on edges: the tie cases),
    random points, a rotated finer mesh and vertices jittered by 1e-6 to
    1e-15."""
    cases = {f"vertices{fine}": generate_icosphere(fine).vertices
             for fine in (level, level + 1, level + 2)}
    random = rng.standard_normal((2000, 3))
    cases["random"] = random / np.linalg.norm(random, axis=1, keepdims=True)
    finer = generate_icosphere(level + 1).vertices
    rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    cases["rotated"] = finer @ rotation.T
    for scale in (1e-6, 1e-9, 1e-13, 1e-15):
        jittered = finer + scale * rng.standard_normal(finer.shape)
        cases[f"jitter{scale:g}"] = (
            jittered / np.linalg.norm(jittered, axis=1, keepdims=True))
    return cases


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_locate_faces_matches_exhaustive_oracle(level):
    mesh = generate_icosphere(level)
    rng = np.random.default_rng(level)
    for name, targets in _location_cases(level, rng).items():
        if len(targets) > 1000 and level == 4:
            # the oracle scores all 5,120 faces per target
            targets = targets[rng.choice(len(targets), 1000, replace=False)]
        faces, lam = locate_faces(mesh, targets)
        expected_faces, expected_lam = _oracle_locate(mesh, targets)
        np.testing.assert_array_equal(faces, expected_faces, err_msg=name)
        np.testing.assert_array_equal(lam, expected_lam, err_msg=name)


def test_level7_resample_fits_in_memory():
    # the locator needs O(level) work and O(1) memory per target, so
    # resampling at MAX_LEVEL runs in a fresh process well under 1.5 GB
    script = (
        "import resource, numpy as np\n"
        "from sphreg.icosphere import barycentric_resample, generate_icosphere\n"
        "mesh = generate_icosphere(7)\n"
        "rng = np.random.default_rng(7)\n"
        "values = rng.standard_normal((mesh.n_vertices, 2))\n"
        "targets = mesh.vertices + 1e-4 * rng.standard_normal((mesh.n_vertices, 3))\n"
        "targets /= np.linalg.norm(targets, axis=1, keepdims=True)\n"
        "assert np.array_equal(barycentric_resample(values, mesh, mesh.vertices), values)\n"
        "assert np.isfinite(barycentric_resample(values, mesh, targets)).all()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(pathlib.Path(icosphere.__file__).parents[1]),
                   os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    peak_kib = int(done.stdout.split()[-1])
    assert peak_kib * 1024 < 1.5e9


def _reference_index_sets(mesh):
    """The per-module Python constructions the mesh index sets replaced."""
    faces = mesh.faces
    pairs = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    pairs.sort(axis=1)
    edges = np.unique(pairs, axis=0)

    neighbors = [[] for _ in range(mesh.n_vertices)]
    for i, j in edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    one_ring = [np.array(sorted(n), dtype=np.int64) for n in neighbors]

    order = np.argsort(faces.ravel(), kind="stable")
    face_ids = order // 3
    verts = faces.ravel()[order]
    splits = np.searchsorted(verts, np.arange(mesh.n_vertices + 1))
    vertex_faces = [face_ids[splits[v]:splits[v + 1]]
                    for v in range(mesh.n_vertices)]
    table = np.full((mesh.n_vertices, 6), -1, dtype=np.int64)
    for v, incident in enumerate(vertex_faces):
        table[v, :len(incident)] = incident
        table[v, len(incident):] = incident[0]

    neighbourhood = np.array([[v] + list(ring) + [v] * (6 - len(ring))
                              for v, ring in enumerate(one_ring)], dtype=np.int64)
    ring_dst = np.concatenate([np.full(len(ring), v, dtype=np.int64)
                               for v, ring in enumerate(one_ring)])
    ring_src = np.concatenate([np.asarray(ring, dtype=np.int64)
                               for ring in one_ring])
    degree = np.array([len(ring) for ring in one_ring], dtype=np.float64)
    control_edges = np.array([(i, j) for i in range(mesh.n_vertices)
                              for j in one_ring[i]], dtype=np.int64)
    faces_of_edge = {}
    for f, corners in enumerate(faces.tolist()):
        for k in range(3):
            edge = frozenset(corners[:k] + corners[k + 1:])
            faces_of_edge.setdefault(edge, []).append(f)
    face_neighbours = np.array(
        [[next(g for g in faces_of_edge[frozenset(corners[:k] + corners[k + 1:])]
               if g != f) for k in range(3)]
         for f, corners in enumerate(faces.tolist())], dtype=np.int64)
    return dict(edges=edges, one_ring=one_ring, table=table,
                neighbourhood=neighbourhood, ring_dst=ring_dst,
                ring_src=ring_src, degree=degree, control_edges=control_edges,
                face_neighbours=face_neighbours)


def _assert_same(got, expected):
    np.testing.assert_array_equal(got, expected)
    assert got.dtype == expected.dtype


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5])
def test_index_sets_match_reference_loops(level):
    mesh = generate_icosphere(level)
    ref = _reference_index_sets(mesh)

    _assert_same(mesh.edges, ref["edges"])
    _assert_same(mesh.ring_dst, ref["ring_dst"])
    _assert_same(mesh.ring_src, ref["ring_src"])
    _assert_same(np.diff(mesh.ring_offsets).astype(np.float64), ref["degree"])
    assert len(mesh.one_ring) == len(ref["one_ring"])
    for got, expected in zip(mesh.one_ring, ref["one_ring"]):
        _assert_same(got, expected)
    _assert_same(mesh.incident_faces, ref["table"])

    _assert_same(mesh.neighbourhood, ref["neighbourhood"])
    assert not mesh.neighbourhood.flags.writeable
    _assert_same(mesh.face_neighbours, ref["face_neighbours"])
    assert not mesh.face_neighbours.flags.writeable
    _assert_same(build_label_sets(level, level + 1).edges, ref["control_edges"])

    # smoothness_penalty against the formula on the reference arrays
    rng = np.random.default_rng(level)
    targets = mesh.vertices + 0.05 * rng.standard_normal((mesh.n_vertices, 3))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    disp = targets - mesh.vertices
    diffs = np.abs(disp[ref["ring_dst"]] - disp[ref["ring_src"]])
    expected = np.sum(diffs * (1.0 / ref["degree"][ref["ring_dst"]])[:, None])
    assert ag.value_of(smoothness_penalty(targets, level)) == expected


def test_one_ring_is_built_on_first_use():
    # a level-6 mesh is built without its one-ring list, which then matches
    # the CSR slices of ring_src
    parent = icosphere.generate_icosphere(5)
    mesh = icosphere.build_mesh(6, *icosphere._subdivide(parent.vertices,
                                                         parent.faces))
    assert "one_ring" not in vars(mesh)
    rings = mesh.one_ring
    assert len(rings) == mesh.n_vertices
    for v, ring in enumerate(rings):
        lo, hi = mesh.ring_offsets[v], mesh.ring_offsets[v + 1]
        np.testing.assert_array_equal(ring, mesh.ring_src[lo:hi])
    assert mesh.one_ring is rings

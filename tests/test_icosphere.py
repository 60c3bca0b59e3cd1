"""Mesh construction, topology counts, and barycentric interpolation."""

import itertools
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

from mesh_arcs import max_edge_arc, mean_edge_arc


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


@pytest.mark.parametrize("level", range(8))
def test_antipodes_pair_every_vertex_with_minus_it(level):
    mesh = generate_icosphere(level)
    anti = mesh.antipodes
    ids = np.arange(mesh.n_vertices)
    assert anti.dtype.kind == "i" and not anti.flags.writeable
    assert (anti[anti] == ids).all() and (anti != ids).all()
    assert np.linalg.norm(mesh.vertices + mesh.vertices[anti], axis=1).max() \
        <= 1e-15
    # the prefix property holds for the table too
    if level:
        coarse = generate_icosphere(level - 1)
        np.testing.assert_array_equal(anti[:coarse.n_vertices],
                                      coarse.antipodes)


def test_one_ring_is_symmetric():
    mesh = generate_icosphere(1)
    for v, ring in enumerate(mesh.one_ring):
        for u in ring:
            assert v in mesh.one_ring[u]


def test_edge_arcs_shrink_roughly_by_half_per_level():
    arcs = [mean_edge_arc(generate_icosphere(level)) for level in (0, 1, 2, 3)]
    for coarse, fine in zip(arcs, arcs[1:]):
        assert 1.8 < coarse / fine < 2.2
    mesh = generate_icosphere(2)
    assert mean_edge_arc(mesh) <= max_edge_arc(mesh)


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
    # the nearest-vertex seed of each target comes out of one descent, and
    # snapping reads the seed's row
    mesh = generate_icosphere(3)
    rng = np.random.default_rng(3)
    values = rng.standard_normal((mesh.n_vertices, 2))
    targets = rng.standard_normal((700, 3))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    targets[:50] = mesh.vertices[rng.choice(mesh.n_vertices, 50, replace=False)]
    expected_faces, expected_weights = barycentric_weights(mesh, targets)

    calls = []
    descend = icosphere._descend

    def counting_descend(*args, **kwargs):
        calls.append(len(args[1]))
        return descend(*args, **kwargs)

    monkeypatch.setattr(icosphere, "_descend", counting_descend)
    out = barycentric_resample(values, mesh, targets)
    assert calls == [len(targets)]
    corner_vals = values[mesh.faces[expected_faces]]
    np.testing.assert_array_equal(
        out[50:], np.einsum("tk,tkc->tc", expected_weights, corner_vals)[50:])
    vertex_of = np.argmax(targets[:50] @ mesh.vertices.T, axis=1)
    np.testing.assert_array_equal(out[:50], values[vertex_of])


def parent_locate_faces(mesh, targets):
    """Reference: the locator before the leaf settle, which ran the max-min
    search around the seed for every target."""
    targets = np.asarray(targets, dtype=np.float64)
    rows = np.arange(targets.shape[0])
    base = generate_icosphere(0).corner_inverse.reshape(-1, 3)
    lam = (targets @ base.T).reshape(-1, 20, 3)
    leaf = np.argmax(np.minimum(np.minimum(lam[..., 0], lam[..., 1]),
                                lam[..., 2]), axis=1)
    for level in range(1, mesh.level + 1):
        normals = np.take(generate_icosphere(level).split_normals, leaf, axis=0)
        side = np.einsum("tcx,tx->ct", normals, targets) > 0
        leaf = 4 * leaf + np.where(side[0], 0, np.where(side[1], 1,
                                                        np.where(side[2], 2, 3)))
    corners = np.take(mesh.faces, leaf, axis=0)
    dots = np.einsum("tkx,tx->tk", np.take(mesh.vertices, corners, axis=0),
                     targets)
    seeds = corners[rows, np.argmax(dots, axis=1)]
    candidates = np.take(mesh.incident_faces, seeds, axis=0)
    inv = np.take(mesh.corner_inverse, candidates, axis=0)
    lam = np.einsum("tkij,tj->tki", inv, targets)
    best = np.argmax(np.minimum(np.minimum(lam[..., 0], lam[..., 1]),
                                lam[..., 2]), axis=1)
    return candidates[rows, best], lam[rows, best]


def parent_barycentric_resample(values, mesh, targets):
    """Reference: interpolate every target, then snap the rows whose
    highest-weight corner lies within ``_SNAP_DOT`` of it."""
    face_idx, lam = parent_locate_faces(mesh, targets)
    weights = lam / lam.sum(axis=1, keepdims=True)
    corners = np.take(mesh.faces, face_idx, axis=0)
    nearest = corners[np.arange(targets.shape[0]), np.argmax(weights, axis=1)]
    snapped = (np.sum(targets * np.take(mesh.vertices, nearest, axis=0), axis=1)
               >= icosphere._SNAP_DOT)
    out = np.einsum("tk,tkc->tc", weights, np.take(values, corners, axis=0))
    out[snapped] = np.take(values, nearest[snapped], axis=0)
    return out


def _unit(points):
    return points / np.linalg.norm(points, axis=1, keepdims=True)


def _settle_cases(mesh, rng):
    """Own and coarser vertices (every target snaps), edge midpoints (the
    next level's new vertices), random and rotated points, midpoints
    jittered by 1e-6 to 1e-15, and points whose coordinate of one corner is
    0.5 or 2 times ``_INSIDE`` either side of the opposite edge."""
    cases = {"own": mesh.vertices,
             "coarser": mesh.vertices[:generate_icosphere(
                 max(mesh.level - 1, 0)).n_vertices]}
    # the same sum and division as _subdivide, so the bits of the next level
    edges = mesh.edges
    cases["midpoints"] = _unit(mesh.vertices[edges[:, 0]]
                               + mesh.vertices[edges[:, 1]])
    cases["random"] = _unit(rng.standard_normal((2000, 3)))
    rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    cases["rotated"] = _unit(cases["midpoints"] @ rotation.T)
    for scale in (1e-6, 1e-9, 1e-13, 1e-15):
        cases[f"jitter{scale:g}"] = _unit(
            cases["midpoints"]
            + scale * rng.standard_normal(cases["midpoints"].shape))
    faces = rng.integers(mesh.n_faces, size=1000)
    corners = np.take(mesh.vertices, np.take(mesh.faces, faces, axis=0), axis=0)
    along = rng.uniform(0.05, 0.95, size=1000)
    on_edge = (along[:, None] * corners[:, 1]
               + (1 - along[:, None]) * corners[:, 2])
    for factor in (0.5, 2.0, -0.5, -2.0):
        # lam = (m |e|, along, 1 - along) puts corner 0's gnomonic
        # coordinate of the normalised point at about m
        margin = factor * icosphere._INSIDE * np.linalg.norm(on_edge, axis=1)
        cases[f"margin{factor:g}"] = _unit(on_edge + margin[:, None] * corners[:, 0])
    return cases


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5, 6])
def test_settle_matches_parent_locator_bitwise(level):
    mesh = generate_icosphere(level)
    rng = np.random.default_rng(100 + level)
    values = rng.standard_normal((mesh.n_vertices, 3))
    for name, targets in _settle_cases(mesh, rng).items():
        if level == 6:
            # the reference gathers six (3, 3) inverses per target
            targets = targets[rng.choice(len(targets), min(len(targets), 3000),
                                         replace=False)]
        faces, lam = locate_faces(mesh, targets)
        expected_faces, expected_lam = parent_locate_faces(mesh, targets)
        np.testing.assert_array_equal(faces, expected_faces, err_msg=name)
        np.testing.assert_array_equal(lam, expected_lam, err_msg=name)
        np.testing.assert_array_equal(
            barycentric_resample(values, mesh, targets),
            parent_barycentric_resample(values, mesh, targets), err_msg=name)


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5, 6])
def test_descend_seed_is_the_first_nearest_leaf_corner(level):
    mesh = generate_icosphere(level)
    rng = np.random.default_rng(300 + level)
    cases = {"own": mesh.vertices,
             "midpoints": _unit(mesh.vertices[mesh.edges[:, 0]]
                                + mesh.vertices[mesh.edges[:, 1]]),
             "centroids": _unit(mesh.vertices[mesh.faces].sum(axis=1)),
             "random": _unit(rng.standard_normal((2000, 3)))}
    for name, targets in cases.items():
        if level == 6:
            targets = targets[rng.choice(len(targets), min(len(targets), 3000),
                                         replace=False)]
        leaf, seeds = icosphere._descend(mesh, targets)
        corners = mesh.faces[leaf]
        dots = np.einsum("tkx,tx->tk", mesh.vertices[corners], targets)
        np.testing.assert_array_equal(
            seeds, corners[np.arange(len(leaf)), np.argmax(dots, axis=1)],
            err_msg=name)


def test_argmax3_takes_the_first_of_exact_ties():
    # every order and tie of three values, and signed zeros, which compare
    # equal
    rows = np.array(list(itertools.product([-1.0, 0.0, 2.0], repeat=3)))
    rows = np.concatenate([rows, [[-0.0, 0.0, -0.0], [0.0, -0.0, -1.0]]])
    np.testing.assert_array_equal(icosphere._argmax3(rows),
                                  np.argmax(rows, axis=1))


def test_search_around_seed_runs_only_near_edges(monkeypatch):
    mesh = generate_icosphere(4)
    rng = np.random.default_rng(4)
    values = rng.standard_normal((mesh.n_vertices, 2))
    random = _unit(rng.standard_normal((5000, 3)))

    rows = []                   # per call, the rows that reach the search
    search = icosphere._around_seed

    def counting_search(mesh, targets, seeds):
        rows.append(len(seeds))
        return search(mesh, targets, seeds)

    monkeypatch.setattr(icosphere, "_around_seed", counting_search)
    locate_faces(mesh, random)
    barycentric_resample(values, mesh, random)
    assert sum(rows) <= len(random) // 1000

    # a vertex is on the edge of every face around it, so the locator
    # searches every row; resampling snaps them all from the seed first
    rows.clear()
    locate_faces(mesh, mesh.vertices)
    assert rows == [mesh.n_vertices]
    rows.clear()
    barycentric_resample(values, mesh, mesh.vertices)
    assert sum(rows) == 0

    # one corner's coordinate at 0.5 x _INSIDE is searched, at 2 x is not
    cases = _settle_cases(mesh, rng)
    for name, searched in (("margin0.5", 1000), ("margin2", 0)):
        rows.clear()
        locate_faces(mesh, cases[name])
        assert rows == [searched], name


@pytest.mark.parametrize("bad_row", [0, 2])
def test_non_finite_targets_are_rejected(bad_row):
    mesh = generate_icosphere(2)
    targets = mesh.vertices[:3].copy()
    targets[bad_row] = np.nan
    values = np.zeros(mesh.n_vertices)
    for call in (lambda: locate_faces(mesh, targets),
                 lambda: barycentric_resample(values, mesh, targets)):
        with pytest.raises(ValueError, match=f"target {bad_row} has norm nan"):
            call()


def test_memoised_locator_tables_are_frozen():
    # one cached table serves every caller; the writes store the same
    # values, so a writable table fails the test without corrupting it
    mesh = generate_icosphere(2)
    for table in (mesh.corner_inverse, mesh.split_normals, mesh.one_ring[0]):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[0]
    with pytest.raises(TypeError):
        mesh.one_ring[0] = mesh.one_ring[0]


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


def _located_and_resampled(mesh, targets, values):
    faces, lam = locate_faces(mesh, targets)
    return (faces, lam, barycentric_resample(values, mesh, targets),
            barycentric_resample(values[:, 0], mesh, targets))


@pytest.mark.parametrize("block", [7, 1000])
def test_blocks_match_one_block_bitwise(monkeypatch, block):
    # every step works row by row, so where the blocks end changes no bit;
    # a level-4 vertex set is one default block, as the counting tests read
    assert icosphere._BLOCK >= generate_icosphere(4).n_vertices
    rng = np.random.default_rng(21)
    cases = [(generate_icosphere(3), name, targets)
             for name, targets in _location_cases(3, rng).items()]
    cases += [(generate_icosphere(level), f"own{level}",
               generate_icosphere(level).vertices) for level in (4, 5)]
    for mesh, name, targets in cases:
        values = rng.standard_normal((mesh.n_vertices, 2))
        monkeypatch.setattr(icosphere, "_BLOCK", len(targets))
        expected = _located_and_resampled(mesh, targets, values)
        monkeypatch.setattr(icosphere, "_BLOCK", block)
        for got, want in zip(_located_and_resampled(mesh, targets, values),
                             expected):
            np.testing.assert_array_equal(got, want, err_msg=name)


def test_non_finite_target_is_named_by_its_global_row():
    # the unit-norm check runs over all targets before the blocks
    mesh = generate_icosphere(5)
    targets = mesh.vertices.copy()
    targets[5000] = np.nan
    values = np.zeros(mesh.n_vertices)
    for call in (lambda: locate_faces(mesh, targets),
                 lambda: barycentric_resample(values, mesh, targets)):
        with pytest.raises(ValueError, match="target 5000 has norm nan"):
            call()


def test_level7_resample_fits_in_memory():
    # the locator works in blocks of targets and the harmonic sampler in
    # blocks of vertices, and a band-limited draw caches no basis, so
    # resampling and a draw at MAX_LEVEL run in a fresh process under 300 MB
    script = (
        "import resource, numpy as np\n"
        "from sphreg.icosphere import barycentric_resample, generate_icosphere\n"
        "from sphreg.sht import random_bandlimited\n"
        "mesh = generate_icosphere(7)\n"
        "rng = np.random.default_rng(7)\n"
        "values = rng.standard_normal((mesh.n_vertices, 2))\n"
        "targets = mesh.vertices + 1e-4 * rng.standard_normal((mesh.n_vertices, 3))\n"
        "targets /= np.linalg.norm(targets, axis=1, keepdims=True)\n"
        "assert np.array_equal(barycentric_resample(values, mesh, mesh.vertices), values)\n"
        "assert np.isfinite(barycentric_resample(values, mesh, targets)).all()\n"
        "assert np.isfinite(random_bandlimited(7, 8, 1, rng).values).all()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(pathlib.Path(icosphere.__file__).parents[1]),
                   os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    peak_kib = int(done.stdout.split()[-1])
    assert peak_kib * 1024 < 300e6


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
    mesh = Icosphere(6, *icosphere._subdivide(parent))
    assert "one_ring" not in vars(mesh)
    rings = mesh.one_ring
    assert len(rings) == mesh.n_vertices
    for v, ring in enumerate(rings):
        lo, hi = mesh.ring_offsets[v], mesh.ring_offsets[v + 1]
        np.testing.assert_array_equal(ring, mesh.ring_src[lo:hi])
    assert mesh.one_ring is rings

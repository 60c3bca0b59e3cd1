"""Mesh construction, topology counts, and barycentric interpolation."""

import numpy as np
import pytest

from sphreg import autodiff as ag
from sphreg import icosphere
from sphreg.discrete_reg import build_label_sets
from sphreg.graph_attention import attention_edges
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
    mesh = generate_icosphere(3)
    rng = np.random.default_rng(3)
    values = rng.standard_normal((mesh.n_vertices, 2))
    targets = rng.standard_normal((700, 3))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    expected_faces, expected_weights = barycentric_weights(mesh, targets)

    calls = []
    search = icosphere._nearest_vertices

    def counting_search(*args, **kwargs):
        calls.append(len(args[1]))
        return search(*args, **kwargs)

    monkeypatch.setattr(icosphere, "_nearest_vertices", counting_search)
    out = barycentric_resample(values, mesh, targets)
    assert calls == [len(targets)]
    corner_vals = values[mesh.faces[expected_faces]]
    np.testing.assert_array_equal(
        out, np.einsum("tk,tkc->tc", expected_weights, corner_vals))


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

    att_dst = np.concatenate([np.full(len(ring) + 1, v, dtype=np.int64)
                              for v, ring in enumerate(one_ring)])
    att_src = np.concatenate([np.concatenate([[v], ring])
                              for v, ring in enumerate(one_ring)])
    ring_dst = np.concatenate([np.full(len(ring), v, dtype=np.int64)
                               for v, ring in enumerate(one_ring)])
    ring_src = np.concatenate([np.asarray(ring, dtype=np.int64)
                               for ring in one_ring])
    degree = np.array([len(ring) for ring in one_ring], dtype=np.float64)
    control_edges = np.array([(i, j) for i in range(mesh.n_vertices)
                              for j in one_ring[i]], dtype=np.int64)
    return dict(edges=edges, one_ring=one_ring, table=table,
                att_dst=att_dst, att_src=att_src, ring_dst=ring_dst,
                ring_src=ring_src, degree=degree, control_edges=control_edges)


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

    dst, src = attention_edges(mesh)
    _assert_same(dst, ref["att_dst"])
    _assert_same(src, ref["att_src"])
    _assert_same(build_label_sets(level, level + 1).edges, ref["control_edges"])

    # smoothness_penalty against the formula on the reference arrays
    rng = np.random.default_rng(level)
    targets = mesh.vertices + 0.05 * rng.standard_normal((mesh.n_vertices, 3))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    disp = targets - mesh.vertices
    diffs = np.abs(disp[ref["ring_dst"]] - disp[ref["ring_src"]])
    expected = np.sum(diffs * (1.0 / ref["degree"][ref["ring_dst"]])[:, None])
    assert ag.value_of(smoothness_penalty(targets, level)) == expected

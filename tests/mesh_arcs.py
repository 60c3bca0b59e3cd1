"""Mesh helpers for tests: edge arc lengths, for tests that bound distances
by them, and per-vertex one-rings, for reference loops over neighbours."""

import numpy as np


def one_ring(mesh) -> tuple:
    """Per vertex, the view of ``mesh.ring_src`` holding its neighbours."""
    return tuple(np.split(mesh.ring_src, mesh.ring_offsets[1:-1]))


def _edge_arcs(mesh):
    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]
    crossed = np.linalg.norm(np.cross(a, b), axis=-1)
    dotted = np.sum(a * b, axis=-1)
    return np.arctan2(crossed, dotted)


def mean_edge_arc(mesh) -> float:
    return float(np.mean(_edge_arcs(mesh)))


def max_edge_arc(mesh) -> float:
    return float(np.max(_edge_arcs(mesh)))

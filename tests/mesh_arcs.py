"""Edge arc lengths of a mesh, for tests that bound distances by them."""

import numpy as np


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

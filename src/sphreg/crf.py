"""Mean-field CRF refinement of control-point label probabilities.

The energy couples per-control unary costs -log Q with Potts pairwise
penalties w * [l_i != l_j] * K(pos_i(l_i), pos_j(l_j)) over one-ring-adjacent
control points, where K is a Gaussian kernel on great-circle distance between
the candidate label positions.  Refinement unrolls T mean-field updates
(CRF-as-RNN style): messages are accumulated from current beliefs, added to
the anchored unary logits, and re-normalized by a row softmax.  The Potts
compatibility is fixed, not learned: slot k points a different way at each
control point, so a learned slot-by-slot matrix has no fixed meaning to
learn.  It lives in the frozen kernel that ``kernel_stack`` builds from a
grid's label positions and edges, once per grid and sigma; its diagonal is
zero.  The cascade runs the fixed schedule T = ``CRF_ITERATIONS``,
w = ``CRF_WEIGHT`` with sigma the stage grid's mean control edge arc; the
trainer builds one ``CrfParams`` per stage and call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import autodiff as ag
from .discrete_reg import ControlGrid, DeformationProbabilities, check_q_shape

UNARY_FLOOR = 1e-12
# the cascade's mean-field schedule: iterations T and pairwise weight w
CRF_ITERATIONS = 5
CRF_WEIGHT = 0.5


@dataclass
class CrfParams:
    iterations: int
    sigma: float
    weight: float

    def __post_init__(self):
        if not 0 <= self.iterations <= 20:
            raise ValueError(
                f"iterations must lie in [0, 20], got {self.iterations}")
        if self.sigma <= 0:
            raise ValueError(f"kernel bandwidth must be positive, got {self.sigma}")
        if self.weight < 0:
            raise ValueError(f"pairwise weight must be nonnegative, got {self.weight}")


@cache
def mean_edge_arc(grid: ControlGrid) -> float:
    """Mean great-circle length of the control-mesh edges, memoised per grid."""
    a = grid.control_positions[grid.edges[:, 0]]
    b = grid.control_positions[grid.edges[:, 1]]
    return float(np.mean(np.arccos(np.clip(np.sum(a * b, axis=1), -1.0, 1.0))))


@cache
def kernel_stack(grid: ControlGrid, sigma: float) -> np.ndarray:
    """K[e, l, l'] = [l != l'] exp(-arc^2 / (2 sigma^2)), arc running from
    pos_dst(l) to pos_src(l') over the grid's edges: the Gaussian kernel
    times the Potts compatibility, so its diagonal is zero.  Built once per
    grid and sigma, and frozen."""
    pos_dst = grid.label_positions[grid.edges[:, 0]]    # (E, N_l, 3)
    pos_src = grid.label_positions[grid.edges[:, 1]]
    cos = np.einsum("elx,emx->elm", pos_dst, pos_src)
    arc = np.arccos(np.clip(cos, -1.0, 1.0))
    kernel = np.exp(-(arc ** 2) / (2.0 * sigma * sigma))
    slots = np.arange(grid.n_labels)
    kernel[:, slots, slots] = 0.0
    kernel.setflags(write=False)
    return kernel


def crf_energy(assignment, Q: DeformationProbabilities, grid: ControlGrid,
               params: CrfParams) -> float:
    """Energy of one hard assignment: unary -log Q plus the Potts-masked
    kernel over directed adjacent pairs (pairs in the same slot cost
    nothing)."""
    check_q_shape(Q, grid)
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (grid.n_controls,):
        raise ValueError(
            f"assignment must have shape ({grid.n_controls},), "
            f"got {assignment.shape}")
    if assignment.min() < 0 or assignment.max() >= grid.n_labels:
        raise ValueError("assignment label out of range")
    q = Q.value
    unary = -np.log(q[np.arange(grid.n_controls), assignment] + UNARY_FLOOR).sum()
    dst, src = grid.edges.T
    kernel = kernel_stack(grid, params.sigma)
    pairwise = params.weight * np.sum(
        kernel[np.arange(len(dst)), assignment[dst], assignment[src]])
    return float(unary + pairwise)


def crf_refine(Q: DeformationProbabilities, grid: ControlGrid,
               params: CrfParams) -> DeformationProbabilities:
    """T mean-field iterations (tensor-aware in Q).

    Each step: m_i(l) = sum_{j in N(i)} sum_{l' != l} K[i,l; j,l'] Q_j(l'),
    then Q <- row-softmax(log(Q_init + eps) - w m).  T = 0 or w = 0 leave Q
    untouched (for w = 0 the message term vanishes identically, so skipping
    the renormalization is exact rather than 1e-12 close).
    """
    check_q_shape(Q, grid)
    if params.iterations == 0 or params.weight == 0 or len(grid.edges) == 0:
        return Q
    kernel = kernel_stack(grid, params.sigma)   # (E, N_l, N_l)
    dst, src = grid.edges.T
    anchor = ag.log(ag.add(Q.Q, UNARY_FLOOR))
    q = Q.Q
    for _ in range(params.iterations):
        per_edge = ag.einsum2("elm,em->el", kernel, ag.take_rows(q, src))
        message = ag.segment_sum(per_edge, dst, grid.n_controls)
        q = ag.softmax_rows(ag.sub(anchor, ag.mul(params.weight, message)))
    return DeformationProbabilities(q)

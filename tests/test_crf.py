"""Mean-field label refinement and its energy model.

Small synthetic control grids (points on the equator with a north and an
east candidate each) keep exhaustive enumeration cheap, so every energy can
be checked against a hand-rolled nested-loop oracle and refinement can be
scored against the spread of all possible assignments.
"""

import itertools

import numpy as np
import pytest

from sphreg.crf import (CrfParams, crf_energy, crf_refine, kernel_stack,
                        mean_edge_arc)
from sphreg.discrete_reg import (ControlGrid, DeformationProbabilities,
                                 argmax_deformation, build_label_sets,
                                 soft_deformation)

UNARY_FLOOR = 1e-12


def ring_grid(n_points: int = 4, delta: float = 0.35) -> ControlGrid:
    """n equator control points, each with labels (self, north tilt, east
    tilt) and ring adjacency."""
    thetas = np.arange(n_points) * (2 * np.pi / n_points)
    control = np.stack([np.cos(thetas), np.sin(thetas), np.zeros(n_points)],
                       axis=1)
    north = np.stack([np.cos(delta) * np.cos(thetas),
                      np.cos(delta) * np.sin(thetas),
                      np.full(n_points, np.sin(delta))], axis=1)
    east = np.stack([np.cos(thetas + delta), np.sin(thetas + delta),
                     np.zeros(n_points)], axis=1)
    positions = np.stack([control, north, east], axis=1)
    labels = np.arange(3 * n_points).reshape(n_points, 3)
    edges = np.array([(i, (i + 1) % n_points) for i in range(n_points)]
                     + [(i, (i - 1) % n_points) for i in range(n_points)])
    return ControlGrid(control_level=0, label_level=1, labels=labels,
                       label_positions=positions, control_positions=control,
                       edges=edges)


def random_q(n_points: int, n_labels: int, seed: int) -> DeformationProbabilities:
    raw = np.random.default_rng(seed).random((n_points, n_labels)) + 1e-3
    return DeformationProbabilities(raw / raw.sum(axis=1, keepdims=True))


def oracle_energy(assignment, Q, grid, params) -> float:
    """Nested-loop energy: unary -log(Q + floor) plus directed Potts
    penalties w * exp(-arc^2 / (2 sigma^2)) where the label slots differ."""
    q = Q.value
    total = 0.0
    for i, label in enumerate(assignment):
        total += -np.log(q[i, label] + UNARY_FLOOR)
    for dst, src in grid.edges:
        if assignment[dst] == assignment[src]:
            continue
        p = grid.label_positions[dst, assignment[dst]]
        r = grid.label_positions[src, assignment[src]]
        arc = np.arccos(np.clip(p @ r, -1.0, 1.0))
        total += params.weight * np.exp(-(arc ** 2) / (2 * params.sigma ** 2))
    return total


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_single_point_energy_is_unary_only():
    grid = ring_grid(4)
    lone = ControlGrid(control_level=0, label_level=1,
                       labels=grid.labels[:1],
                       label_positions=grid.label_positions[:1],
                       control_positions=grid.control_positions[:1],
                       edges=np.zeros((0, 2), dtype=np.int64))
    Q = random_q(1, 3, seed=0)
    params = CrfParams(iterations=5, sigma=0.5, weight=2.0)
    for label in range(3):
        expected = -np.log(Q.value[0, label] + UNARY_FLOOR)
        assert crf_energy([label], Q, lone, params) == pytest.approx(
            expected, abs=1e-14)


def test_zero_weight_energy_is_sum_of_unaries():
    grid = ring_grid(4)
    Q = random_q(4, 3, seed=1)
    params = CrfParams(iterations=5, sigma=0.5, weight=0.0)
    assignment = np.array([0, 2, 1, 0])
    expected = -np.log(Q.value[np.arange(4), assignment] + UNARY_FLOOR).sum()
    assert crf_energy(assignment, Q, grid, params) == pytest.approx(
        expected, abs=1e-12)


def test_energy_matches_nested_loop_oracle_exhaustively():
    # 3 points, first 2 label slots: all 8 assignments, and larger instances
    grid = ring_grid(3)
    Q = random_q(3, 3, seed=2)
    params = CrfParams(iterations=5, sigma=0.4, weight=1.5)
    for assignment in itertools.product(range(2), repeat=3):
        a = np.array(assignment)
        assert crf_energy(a, Q, grid, params) == pytest.approx(
            oracle_energy(a, Q, grid, params), abs=1e-12)


@pytest.mark.parametrize("n_points,n_labels", [(4, 3), (6, 3)])
def test_energy_oracle_on_random_assignments(n_points, n_labels):
    grid = ring_grid(n_points)
    Q = random_q(n_points, n_labels, seed=n_points)
    rng = np.random.default_rng(17)
    params = CrfParams(iterations=5, sigma=0.6, weight=2.5)
    for _ in range(20):
        a = rng.integers(n_labels, size=n_points)
        assert crf_energy(a, Q, grid, params) == pytest.approx(
            oracle_energy(a, Q, grid, params), abs=1e-12)


def test_energy_validates_assignment():
    grid = ring_grid(4)
    Q = random_q(4, 3, seed=3)
    params = CrfParams(iterations=5, sigma=0.5, weight=1.0)
    with pytest.raises(ValueError, match="out of range"):
        crf_energy([0, 1, 2, 3], Q, grid, params)
    with pytest.raises(ValueError, match="shape"):
        crf_energy([0, 1], Q, grid, params)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def test_zero_iterations_is_identity():
    grid = ring_grid(4)
    Q = random_q(4, 3, seed=4)
    params = CrfParams(iterations=0, sigma=0.5, weight=2.0)
    refined = crf_refine(Q, grid, params)
    np.testing.assert_array_equal(refined.value, Q.value)


def test_zero_weight_is_identity():
    grid = ring_grid(4)
    Q = random_q(4, 3, seed=5)
    params = CrfParams(iterations=7, sigma=0.5, weight=0.0)
    refined = crf_refine(Q, grid, params)
    np.testing.assert_array_equal(refined.value, Q.value)


def test_refined_argmax_energy_drops_in_95_of_100_instances():
    grid = ring_grid(4, delta=0.35)
    sigma = 0.25 * mean_edge_arc(grid)
    params = CrfParams(iterations=5, sigma=sigma, weight=5.0)
    wins = 0
    for seed in range(100):
        Q = random_q(4, 3, seed=seed)
        refined = crf_refine(Q, grid, params)
        initial = np.argmax(Q.value, axis=1)
        final = np.argmax(refined.value, axis=1)
        if crf_energy(final, Q, grid, params) <= crf_energy(
                initial, Q, grid, params):
            wins += 1
    assert wins >= 95


def test_refined_energy_within_exhaustive_range():
    grid = ring_grid(4)
    sigma = 0.25 * mean_edge_arc(grid)
    params = CrfParams(iterations=5, sigma=sigma, weight=5.0)
    Q = random_q(4, 3, seed=33)
    refined = crf_refine(Q, grid, params)
    energies = [crf_energy(np.array(a), Q, grid, params)
                for a in itertools.product(range(3), repeat=4)]
    e = crf_energy(np.argmax(refined.value, axis=1), Q, grid, params)
    assert min(energies) - 1e-12 <= e <= max(energies) + 1e-12


@pytest.mark.parametrize("iterations", [1, 2, 3, 5])
def test_rows_stay_stochastic_after_every_iteration(iterations):
    grid = ring_grid(6)
    params = CrfParams(iterations=iterations, sigma=0.6, weight=2.0)
    Q = random_q(6, 3, seed=iterations)
    refined = crf_refine(Q, grid, params)
    sums = refined.value.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-9
    assert refined.value.min() >= 0


def test_refinement_equivariant_under_ring_rotation():
    # rotating the ring by one step maps control i to i+1 and each label
    # slot onto the same slot, so refinement commutes with the permutation
    grid = ring_grid(4)
    sigma = 0.5 * mean_edge_arc(grid)
    params = CrfParams(iterations=5, sigma=sigma, weight=2.0)
    Q = random_q(4, 3, seed=8)
    perm = np.array([1, 2, 3, 0])
    refined = crf_refine(Q, grid, params).value
    permuted_q = DeformationProbabilities(Q.value[perm])
    refined_permuted = crf_refine(permuted_q, grid, params).value
    assert np.max(np.abs(refined_permuted - refined[perm])) < 1e-12


def test_refinement_on_real_control_grid():
    grid = build_label_sets(1, 3)
    params = CrfParams(iterations=5, sigma=mean_edge_arc(grid), weight=0.5)
    Q = random_q(grid.n_controls, grid.n_labels, seed=9)
    refined = crf_refine(Q, grid, params)
    assert refined.value.shape == Q.value.shape
    assert np.max(np.abs(refined.value.sum(axis=1) - 1.0)) < 1e-9


def test_kernel_stack_built_once_per_grid_and_sigma(monkeypatch):
    grid = ring_grid(5)
    params = CrfParams(iterations=2, sigma=0.4, weight=1.0)
    arccos, builds = np.arccos, []
    monkeypatch.setattr(np, "arccos", lambda x: builds.append(1) or arccos(x))
    crf_refine(random_q(5, 3, seed=12), grid, params)
    kernel = kernel_stack(grid, 0.4)
    crf_refine(random_q(5, 3, seed=13), grid, params)
    assert len(builds) == 1
    assert kernel_stack(grid, 0.4) is kernel
    assert not kernel.flags.writeable

    pos_dst = grid.label_positions[grid.edges[:, 0]]
    pos_src = grid.label_positions[grid.edges[:, 1]]
    cos = np.einsum("elx,emx->elm", pos_dst, pos_src)
    arc = arccos(np.clip(cos, -1.0, 1.0))
    gaussian = np.exp(-(arc ** 2) / (2.0 * 0.4 * 0.4))
    # the Potts compatibility: a slot costs nothing against the same slot
    same = np.eye(3, dtype=bool)
    assert np.all(kernel[:, same] == 0.0)
    assert kernel[:, ~same].tobytes() == gaussian[:, ~same].tobytes()


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_param_validation():
    with pytest.raises(ValueError, match="iterations"):
        CrfParams(iterations=21, sigma=0.5, weight=1.0)
    with pytest.raises(ValueError, match="iterations"):
        CrfParams(iterations=-1, sigma=0.5, weight=1.0)
    with pytest.raises(ValueError, match="bandwidth"):
        CrfParams(iterations=5, sigma=0.0, weight=1.0)
    with pytest.raises(ValueError, match="weight"):
        CrfParams(iterations=5, sigma=0.5, weight=-0.1)


def test_q_shape_mismatch_rejected_alike():
    # refinement and both decodes share one Q-shape check and its message
    grid = ring_grid(4)
    Q = random_q(5, 3, seed=13)
    params = CrfParams(iterations=2, sigma=0.5, weight=1.0)
    calls = (lambda: crf_refine(Q, grid, params),
             lambda: crf_energy(np.zeros(4, dtype=int), Q, grid, params),
             lambda: argmax_deformation(Q, grid),
             lambda: soft_deformation(Q, grid))
    for call in calls:
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == "Q shape (5, 3) does not match grid (4, 3)"

"""Release acceptance gate: one test per numbered system-level check.

Each test measures the stated quantities at the stated tolerances and
prints a single PASS/FAIL line with the numbers (visible with ``-s`` or on
failure).  Checks 1-7 and 10 are self-contained oracle and invariance
checks; 8 and 9 share three module-scoped desk-scale training runs
(cascaded with all modules on, independent two-scale, graph module off)
on the default configuration.
"""

import dataclasses
import time

import numpy as np
import pytest

import sphreg.autodiff as ag
from sphreg.crf import CrfParams, crf_energy, crf_refine, mean_edge_arc
from sphreg.discrete_reg import ControlGrid, DeformationProbabilities
from sphreg.graph_attention import (LEAKY_SLOPE, GatLayer, gat_forward,
                                    init_gat_layer)
from sphreg.icosphere import generate_icosphere
from sphreg.metrics import distortion_report, pearson_cc, singular_values_2x2
from sphreg.sht import build_basis, random_bandlimited, sht_forward, sht_inverse
from sphreg.shconv import (ZonalFilter, degree_scale, init_zonal_filter,
                           zonal_convolve)
from sphreg.training import (TrainConfig, gradient_check, register_pair,
                             synth_dataset, train)
from sphreg.warp import DeformationField, identity_field

TRAIN_N = 64
HELD_OUT = 16


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {number:02d} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1-2: harmonic analysis
# ---------------------------------------------------------------------------

def test_01_sht_roundtrip():
    start = time.perf_counter()
    basis = build_basis(generate_icosphere(3), 16)
    signal = random_bandlimited(3, 16, 100, np.random.default_rng(1))
    coeffs = sht_forward(signal, basis)
    rebuilt = sht_inverse(coeffs, basis)
    roundtrip = float(np.abs(rebuilt.values - signal.values).max())
    left_inverse = float(np.abs(basis.forward @ basis.Y
                                - np.eye(basis.n_coeffs)).max())
    elapsed = time.perf_counter() - start
    ok = roundtrip < 1e-6 and left_inverse < 1e-8 and elapsed < 10.0
    _report(1, "sht roundtrip", ok,
            f"100 signals max err {roundtrip:.2e} (<1e-6), "
            f"forward*Y dev {left_inverse:.2e} (<1e-8), {elapsed:.1f}s (<10s)")


def _oracle_convolve(values, filt, basis, L_out):
    h = ag.value_of(filt.h)
    alpha = ag.value_of(filt.alpha)
    c_out, c_in, _ = h.shape
    out = np.zeros((values.shape[0], c_out))
    scale = degree_scale(filt.L_in)
    for o in range(c_out):
        for i in range(c_in):
            coeffs = basis.forward @ values[:, i]
            shaped = np.zeros((L_out + 1) ** 2)
            for l in range(L_out + 1):
                gain = scale[l] * (h[o, i, l] - alpha[o, i] / scale[l])
                for m in range(-l, l + 1):
                    idx = l * l + l + m
                    shaped[idx] = gain * coeffs[idx]
            out[:, o] += basis.Y[:, :(L_out + 1) ** 2] @ shaped
            out[:, o] += alpha[o, i] * values[:, i]
    return out


def test_02_zonal_convolution_oracle():
    mesh = generate_icosphere(2)
    basis = build_basis(mesh, 8)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        filt = init_zonal_filter(2, 3, 8, rng)
        values = rng.standard_normal((mesh.n_vertices, 3))
        ours = ag.value_of(zonal_convolve(values, filt, basis))
        worst = max(worst, float(np.abs(
            ours - _oracle_convolve(values, filt, basis, 8)).max()))
    _report(2, "zonal conv oracle", worst < 1e-8,
            f"20 draws max dev {worst:.2e} (<1e-8)")


def test_03_filter_structure_identity_and_residual():
    # h[l] = 1/C(l), alpha = 0 sets every spectral gain to one; reproduces a
    # band-limited input.  h[l] = alpha/C(l) zeroes the spectral bracket
    # bitwise so only the residual term alpha * f survives, for any input.
    mesh = generate_icosphere(3)
    basis = build_basis(mesh, 8)
    rng = np.random.default_rng(3)
    signal = random_bandlimited(3, 8, 1, rng)
    identity = ZonalFilter(h=(1.0 / degree_scale(8))[None, None, :],
                           alpha=np.zeros((1, 1)))
    identity_err = float(np.abs(
        ag.value_of(zonal_convolve(signal.values, identity, basis))
        - signal.values).max())

    values = rng.standard_normal((mesh.n_vertices, 1))
    alpha = 0.7
    cancel = ZonalFilter(h=alpha / degree_scale(8)[None, None, :],
                         alpha=np.array([[alpha]]))
    residual = ag.value_of(zonal_convolve(values, cancel, basis))
    exact = bool(np.array_equal(residual, alpha * values))
    ok = identity_err < 1e-6 and exact
    _report(3, "filter structure", ok,
            f"identity filter err {identity_err:.2e} (<1e-6), "
            f"alpha residual exact: {exact}")


# ---------------------------------------------------------------------------
# 4: graph attention
# ---------------------------------------------------------------------------

def _oracle_gat(features: np.ndarray, mesh, layer: GatLayer):
    W = np.asarray(ag.value_of(layer.W))
    a = np.asarray(ag.value_of(layer.a))
    heads, d_head, _ = W.shape
    n = features.shape[0]
    head_outputs = []
    rows = []
    for h in range(heads):
        projected = features @ W[h].T
        out = np.zeros((n, d_head))
        for i in range(n):
            neighbours = [i] + list(mesh.one_ring[i])
            logits = np.empty(len(neighbours))
            for k, j in enumerate(neighbours):
                z = a[h] @ np.concatenate([projected[i], projected[j]])
                logits[k] = z if z > 0 else LEAKY_SLOPE * z
            weights = np.exp(logits - logits.max())
            alpha = weights / weights.sum()
            rows.append(alpha)
            out[i] = alpha @ projected[neighbours]
        head_outputs.append(out)
    return np.concatenate(head_outputs, axis=1), rows


def test_04_gat_oracle():
    mesh = generate_icosphere(0)
    rng = np.random.default_rng(4)
    worst = 0.0
    row_dev = 0.0
    for heads in (1, 2, 4):
        layer = init_gat_layer(8, heads, rng)
        for _ in range(3):
            features = rng.standard_normal((mesh.n_vertices, 8))
            expected, rows = _oracle_gat(features, mesh, layer)
            produced = ag.value_of(gat_forward(features, mesh, layer))
            worst = max(worst, float(np.abs(produced - expected).max()))
            row_dev = max(row_dev,
                          max(abs(float(r.sum()) - 1.0) for r in rows))
    ok = worst < 1e-10 and row_dev < 1e-12
    _report(4, "gat oracle", ok,
            f"level-0 max dev {worst:.2e} (<1e-10), "
            f"row sum dev {row_dev:.2e} (<1e-12)")


# ---------------------------------------------------------------------------
# 5: mean-field label refinement
# ---------------------------------------------------------------------------

def _ring_grid(n_points: int = 4, delta: float = 0.35) -> ControlGrid:
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


def _random_q(n_points, n_labels, seed) -> DeformationProbabilities:
    raw = np.random.default_rng(seed).random((n_points, n_labels)) + 1e-3
    return DeformationProbabilities(raw / raw.sum(axis=1, keepdims=True))


def test_05_crf_refinement():
    grid = _ring_grid(4)
    mu = np.ones((3, 3)) - np.eye(3)
    q0 = _random_q(4, 3, seed=5)

    frozen = CrfParams(iterations=0, mu=mu, sigma=0.5, weight=2.0)
    t0_exact = bool(np.array_equal(crf_refine(q0, grid, frozen).value,
                                   q0.value))
    unweighted = CrfParams(iterations=7, mu=mu, sigma=0.5, weight=0.0)
    w0_exact = bool(np.array_equal(crf_refine(q0, grid, unweighted).value,
                                   q0.value))

    # strong smoothness: narrow kernel relative to ring spacing, high weight
    params = CrfParams(iterations=5, mu=mu,
                       sigma=0.25 * mean_edge_arc(grid), weight=5.0)
    wins = 0
    for seed in range(100):
        Q = crf_refine(_random_q(4, 3, seed=seed), grid, params)
        initial = np.argmax(_random_q(4, 3, seed=seed).value, axis=1)
        final = np.argmax(Q.value, axis=1)
        base = _random_q(4, 3, seed=seed)
        if (crf_energy(final, base, grid, params)
                <= crf_energy(initial, base, grid, params)):
            wins += 1

    row_dev = 0.0
    for iterations in (1, 2, 3, 4, 5):
        step = dataclasses.replace(params, iterations=iterations)
        refined = crf_refine(q0, grid, step)
        sums = refined.value.sum(axis=1)
        row_dev = max(row_dev, float(np.abs(sums - 1.0).max()))
        assert refined.value.min() >= 0

    ok = t0_exact and w0_exact and wins >= 95 and row_dev < 1e-9
    _report(5, "crf refinement", ok,
            f"T=0 exact: {t0_exact}, w=0 exact: {w0_exact}, "
            f"energy drops {wins}/100 (>=95), row dev {row_dev:.2e} (<1e-9)")


# ---------------------------------------------------------------------------
# 6: distortion metrics
# ---------------------------------------------------------------------------

def test_06_distortion_metrics():
    mesh = generate_icosphere(3)
    rep = distortion_report(mesh, identity_field(3))
    identity_zero = (rep.fold_count == 0
                     and all(v == 0.0 for v in rep.log2J.values())
                     and all(v == 0.0 for v in rep.log2R.values()))

    # colatitude stretched by s near the pole is conformal there: J -> s^2,
    # R -> 1 on triangles whose corners all sit well inside the cap
    s = 1.15
    v = mesh.vertices
    theta = np.arccos(np.clip(v[:, 2], -1.0, 1.0))
    phi = np.arctan2(v[:, 1], v[:, 0])
    new_theta = np.where(theta < 0.5, np.minimum(theta * s, np.pi), theta)
    targets = np.stack([np.sin(new_theta) * np.cos(phi),
                        np.sin(new_theta) * np.sin(phi),
                        np.cos(new_theta)], axis=1)
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    cap = distortion_report(mesh, DeformationField(3, targets))
    inside = np.all(theta[mesh.faces] < 0.4, axis=1)
    j_dev = float(np.abs(cap.J[inside] - s ** 2).max())
    r_dev = float(np.abs(cap.R[inside] - 1.0).max())

    rng = np.random.default_rng(6)
    F = rng.standard_normal((300, 2, 2))
    s1, s2 = singular_values_2x2(F)
    oracle = np.linalg.svd(F, compute_uv=False)
    svd_dev = float(max(np.abs(s1 - oracle[:, 0]).max(),
                        np.abs(s2 - oracle[:, 1]).max()))

    small = generate_icosphere(2)
    random_targets = small.vertices + 0.02 * rng.standard_normal(
        small.vertices.shape)
    random_targets /= np.linalg.norm(random_targets, axis=1, keepdims=True)
    field = DeformationField(2, random_targets)
    axis = np.array([0.4, 1.0, -0.3]) / np.linalg.norm([0.4, 1.0, -0.3])
    x, y, z = axis
    K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    R = np.eye(3) + np.sin(0.8) * K + (1 - np.cos(0.8)) * (K @ K)
    rotated_targets = random_targets @ R.T
    rotated_targets /= np.linalg.norm(rotated_targets, axis=1, keepdims=True)
    rep_a = distortion_report(small, field)
    rep_b = distortion_report(small, DeformationField(2, rotated_targets))
    rot_dev = float(max(np.abs(rep_a.J - rep_b.J).max(),
                        np.abs(rep_a.R - rep_b.R).max()))

    ok = (identity_zero and j_dev < 2e-2 and r_dev < 2e-2
          and svd_dev < 1e-9 and rot_dev < 1e-9)
    _report(6, "distortion metrics", ok,
            f"identity exact: {identity_zero}, cap J dev {j_dev:.2e} "
            f"R dev {r_dev:.2e} (<2e-2), svd dev {svd_dev:.2e} (<1e-9), "
            f"rotation dev {rot_dev:.2e} (<1e-9)")


# ---------------------------------------------------------------------------
# 7: end-to-end gradients
# ---------------------------------------------------------------------------

def test_07_gradient_check():
    config = TrainConfig(mesh_level=2, bandwidth=8, channels=4, heads=2,
                         epochs=1, batch_size=1)
    pair = synth_dataset(1, config, seed=7)[0]
    # 7 parameter families x 9 sampled coordinates = 63 checks per pass
    smooth = gradient_check(dataclasses.replace(config, use_crf=False), pair,
                            rng=np.random.default_rng(70))
    unrolled = gradient_check(config, pair, rng=np.random.default_rng(71))
    ok = smooth < 1e-3 and unrolled < 1e-2
    _report(7, "gradient check", ok,
            f"63 params/run, crf-off max rel err {smooth:.2e} (<1e-3), "
            f"crf unrolled {unrolled:.2e} (<1e-2)")


# ---------------------------------------------------------------------------
# 8-9: desk-scale end-to-end runs (module-scoped, shared between checks)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_split():
    config = TrainConfig()
    pairs = synth_dataset(TRAIN_N + HELD_OUT, config, seed=config.seed)
    mesh = generate_icosphere(config.mesh_level)
    pre_cc = float(np.mean([pearson_cc(p.moving.values, p.fixed.values)
                            for p in pairs[TRAIN_N:]]))
    return config, pairs, mesh, pre_cc


def _train_and_score(config, pairs, mesh):
    """Train on the first TRAIN_N pairs, register the held-out tail, and
    aggregate CC and |log2 J| statistics over the held-out fields."""
    start = time.perf_counter()
    model, _ = train(config, pairs[:TRAIN_N], val_dataset=pairs[TRAIN_N:])
    ccs, maxes, p98s, means = [], [], [], []
    clean = 0
    for pair in pairs[TRAIN_N:]:
        field, warped, _ = register_pair(model, config, pair.moving,
                                         pair.fixed)
        ccs.append(float(pearson_cc(pair.fixed.values, warped.values)))
        rep = distortion_report(mesh, field)
        maxes.append(rep.log2J["max"])
        p98s.append(rep.log2J["p98"])
        means.append(rep.log2J["mean"])
        clean += int(rep.fold_count == 0)
    return {"cc": float(np.mean(ccs)),
            "max": float(np.max(maxes)),
            "p98": float(np.mean(p98s)),
            "mean_abs": float(np.mean(means)),
            "clean_frac": clean / HELD_OUT,
            "seconds": time.perf_counter() - start}


@pytest.fixture(scope="module")
def cascaded_run(desk_split):
    config, pairs, mesh, _ = desk_split
    return _train_and_score(config, pairs, mesh)


@pytest.fixture(scope="module")
def independent_run(desk_split):
    config, pairs, mesh, _ = desk_split
    return _train_and_score(
        dataclasses.replace(config, cascade_mode="independent"), pairs, mesh)


@pytest.fixture(scope="module")
def graph_off_run(desk_split):
    config, pairs, mesh, _ = desk_split
    return _train_and_score(
        dataclasses.replace(config, use_graph_module=False), pairs, mesh)


@pytest.mark.desk
def test_08_desk_scale_registration(desk_split, cascaded_run):
    _, _, _, pre_cc = desk_split
    run = cascaded_run
    gain = run["cc"] - pre_cc
    ok = (gain >= 0.10 and run["mean_abs"] < 1.0
          and run["clean_frac"] >= 0.90 and run["seconds"] <= 1800)
    _report(8, "desk-scale registration", ok,
            f"cc {pre_cc:.4f} -> {run['cc']:.4f} gain {gain:+.4f} (>=0.10), "
            f"mean |log2J| {run['mean_abs']:.3f} (<1.0), zero-fold "
            f"{run['clean_frac']:.0%} (>=90%), {run['seconds']:.0f}s (<=1800s)")


@pytest.mark.desk
def test_09_ablation_directions(desk_split, cascaded_run, independent_run,
                                graph_off_run):
    _, _, _, pre_cc = desk_split
    casc, indep, bare = cascaded_run, independent_run, graph_off_run
    cc_ok = casc["cc"] >= indep["cc"] - 0.01
    max_ok = casc["max"] <= indep["max"]
    graph_cc_ok = casc["cc"] >= bare["cc"] - 0.01
    graph_p98_ok = casc["p98"] <= 1.05 * bare["p98"]
    ok = cc_ok and max_ok and graph_cc_ok and graph_p98_ok
    _report(9, "ablation directions", ok,
            f"cascaded cc {casc['cc']:.4f} vs independent {indep['cc']:.4f} "
            f"(>= -0.01), max |log2J| {casc['max']:.3f} vs {indep['max']:.3f} "
            f"(no worse); graph on cc {casc['cc']:.4f} vs off {bare['cc']:.4f} "
            f"(>= -0.01), p98 {casc['p98']:.3f} vs {bare['p98']:.3f} "
            f"(<= +5%)")


# ---------------------------------------------------------------------------
# 10: determinism
# ---------------------------------------------------------------------------

def test_10_determinism(tmp_path):
    # two full generate + train + checkpoint passes from the same seed; the
    # run length is shortened but every code path of a real run executes
    config = dataclasses.replace(TrainConfig(), epochs=2)
    datasets = [synth_dataset(8, config, seed=config.seed) for _ in range(2)]
    data_ok = all(
        np.array_equal(a.moving.values, b.moving.values)
        and np.array_equal(a.fixed.values, b.fixed.values)
        and np.array_equal(a.ground_truth.targets, b.ground_truth.targets)
        for a, b in zip(*datasets))

    histories, blobs = [], []
    for tag, dataset in zip(("first", "second"), datasets):
        path = tmp_path / f"{tag}.sphk"
        _, history = train(config, dataset, checkpoint_path=path)
        histories.append(history)
        blobs.append(path.read_bytes())
    loss_ok = histories[0] == histories[1]
    bytes_ok = blobs[0] == blobs[1]
    ok = data_ok and loss_ok and bytes_ok
    _report(10, "determinism", ok,
            f"datasets bit-identical: {data_ok}, loss trajectories "
            f"identical: {loss_ok}, checkpoints byte-identical: {bytes_ok}")

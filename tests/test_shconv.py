"""Zonal spectral convolution against a brute-force oracle."""

import numpy as np
import pytest

from sphreg import autodiff as ag
from sphreg.icosphere import generate_icosphere
from sphreg.sht import build_basis, random_bandlimited
from sphreg.shconv import (BlockParams, ZonalFilter, batch_norm, degree_scale,
                           init_block, init_zonal_filter, shconv_block,
                           zonal_convolve)


def oracle_convolve(values, filt, basis, L_out):
    """Dense per-coefficient reference: analyse, scale every (l, m) by
    C(l) * h[l], synthesise, then add the alpha residual channel mix."""
    h = ag.value_of(filt.h)
    alpha = ag.value_of(filt.alpha)
    c_out, c_in, _ = h.shape
    n = values.shape[0]
    out = np.zeros((n, c_out))
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


def test_matches_dense_oracle():
    mesh = generate_icosphere(2)
    basis = build_basis(mesh, 8)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        filt = init_zonal_filter(2, 3, 8, rng)
        values = rng.standard_normal((mesh.n_vertices, 3))
        ours = ag.value_of(zonal_convolve(values, filt, basis))
        ref = oracle_convolve(values, filt, basis, 8)
        worst = max(worst, np.abs(ours - ref).max())
    assert worst < 1e-8


def test_identity_filter_reproduces_bandlimited_input():
    # h[l] = 1 / C(l), alpha = 0 makes every spectral gain exactly one.
    mesh = generate_icosphere(3)
    basis = build_basis(mesh, 8)
    rng = np.random.default_rng(1)
    signal = random_bandlimited(3, 8, 1, rng)
    filt = ZonalFilter(h=(1.0 / degree_scale(8))[None, None, :],
                       alpha=np.zeros((1, 1)))
    out = ag.value_of(zonal_convolve(signal.values, filt, basis))
    assert np.abs(out - signal.values).max() < 1e-6


def test_alpha_cancellation_passes_alpha_times_input():
    # h[l] = alpha / C(l) zeroes the spectral bracket bitwise, leaving the
    # residual alpha * f even for signals with content above the bandwidth.
    mesh = generate_icosphere(2)
    basis = build_basis(mesh, 6)
    rng = np.random.default_rng(2)
    values = rng.standard_normal((mesh.n_vertices, 1))
    alpha = 0.7
    filt = ZonalFilter(h=alpha / degree_scale(6)[None, None, :],
                       alpha=np.array([[alpha]]))
    out = ag.value_of(zonal_convolve(values, filt, basis))
    np.testing.assert_array_equal(out, alpha * values)


def test_l_out_truncates_spectral_path():
    mesh = generate_icosphere(2)
    basis = build_basis(mesh, 8)
    rng = np.random.default_rng(3)
    filt = init_zonal_filter(1, 1, 8, rng)
    values = rng.standard_normal((mesh.n_vertices, 1))
    truncated = ag.value_of(zonal_convolve(values, filt, basis, L_out=4))
    ref = oracle_convolve(values, filt, basis, 4)
    assert np.abs(truncated - ref).max() < 1e-8


def test_input_validation():
    mesh = generate_icosphere(1)
    basis = build_basis(mesh, 4)
    rng = np.random.default_rng(4)
    filt = init_zonal_filter(1, 2, 4, rng)
    with pytest.raises(ValueError):
        zonal_convolve(np.zeros((42, 1)), filt, basis)       # channel count
    with pytest.raises(ValueError):
        zonal_convolve(np.zeros((12, 2)), filt, basis)       # wrong mesh
    with pytest.raises(ValueError):
        zonal_convolve(np.zeros((42, 2)), filt, basis, L_out=5)


def test_batch_norm_training_stats_and_running_update():
    rng = np.random.default_rng(7)
    params = init_block(3, 2, 4, rng)
    values = rng.standard_normal((100, 3)) * 2.0 + 1.5
    out = ag.value_of(batch_norm(values, params, training_mode=True,
                                 batch_stats_update=True))
    assert np.abs(out.mean(axis=0)).max() < 1e-9
    assert np.abs(out.std(axis=0) - 1.0).max() < 1e-3
    # one momentum-0.1 update pulls the buffers toward the batch stats
    np.testing.assert_allclose(params.bn_mean, 0.1 * values.mean(axis=0),
                               atol=1e-12)
    inference = ag.value_of(batch_norm(values, params, training_mode=False,
                                       batch_stats_update=False))
    assert inference.shape == values.shape


def test_block_relu_clamps_and_block_shapes():
    mesh = generate_icosphere(2)
    basis = build_basis(mesh, 6)
    rng = np.random.default_rng(8)
    params = init_block(4, 2, 6, rng)
    values = rng.standard_normal((mesh.n_vertices, 2))
    out = ag.value_of(shconv_block(values, params, basis, training_mode=True))
    assert out.shape == (mesh.n_vertices, 4)
    assert out.min() >= 0.0
    no_relu = init_block(4, 2, 6, rng, relu=False)
    out2 = ag.value_of(shconv_block(values, no_relu, basis, training_mode=True))
    assert out2.min() < 0.0


def test_gradients_flow_through_block():
    mesh = generate_icosphere(1)
    basis = build_basis(mesh, 4)
    rng = np.random.default_rng(9)
    params = init_block(2, 1, 4, rng)
    filt_h = ag.Tensor(ag.value_of(params.filt.h).copy())
    params.filt.h = filt_h
    values = rng.standard_normal((42, 1))
    out = shconv_block(values, params, basis, training_mode=True)
    ag.reduce_sum(ag.square(out)).backward()
    assert filt_h.grad is not None
    assert np.isfinite(filt_h.grad).all()
    assert np.abs(filt_h.grad).max() > 0

"""Zonal spectral convolution blocks on the sphere.

A zonal (rotation-steerable) filter h acts diagonally per degree: each
coefficient f_hat_lm of an input channel is scaled by

    C(l) * (h_hat[l] - alpha / C(l)),       C(l) = sqrt(4 pi / (2 l + 1)),

summed over input channels, synthesised back to the mesh, and the residual
term alpha * f is added in the spatial domain.  The bracket is evaluated in
exactly that grouping so filters with h_hat = alpha / C(l) cancel the
spectral path bitwise and pass alpha * f through untouched.

Blocks wrap the convolution with per-channel batch normalisation over the
vertex axis (momentum 0.1 running stats) and an optional ReLU.  All forward
code accepts plain arrays or autodiff tensors interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ag
from .sht import HarmonicBasis

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def degree_scale(L: int) -> np.ndarray:
    """C(l) = sqrt(4 pi / (2l + 1)) for l = 0..L."""
    l = np.arange(L + 1, dtype=np.float64)
    return np.sqrt(4.0 * np.pi / (2.0 * l + 1.0))


def degree_of_index(L: int) -> np.ndarray:
    """Degree l for every flat index below (L+1)^2."""
    return np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)


@dataclass
class ZonalFilter:
    """Per-(out, in) channel zonal taps plus the residual mixing weights."""

    h: object       # (C_out, C_in, L_in + 1) array or Tensor
    alpha: object   # (C_out, C_in) array or Tensor

    @property
    def c_out(self) -> int:
        return ag.value_of(self.h).shape[0]

    @property
    def c_in(self) -> int:
        return ag.value_of(self.h).shape[1]

    @property
    def L_in(self) -> int:
        return ag.value_of(self.h).shape[2] - 1


def init_zonal_filter(c_out: int, c_in: int, L: int, rng) -> ZonalFilter:
    h_bound = 1.0 / np.sqrt((L + 1) * c_in)
    a_bound = 1.0 / np.sqrt(c_in)
    return ZonalFilter(
        h=rng.uniform(-h_bound, h_bound, size=(c_out, c_in, L + 1)),
        alpha=rng.uniform(-a_bound, a_bound, size=(c_out, c_in)),
    )


def zonal_convolve(values, filt: ZonalFilter, basis: HarmonicBasis,
                   L_out: int | None = None):
    """Convolve (N, C_in) vertex values with a zonal filter bank.

    ``L_out`` truncates the spectral path (default: the filter bandwidth).
    The basis must live on the signal's mesh and cover L_out.
    """
    v = ag.value_of(values)
    if v.ndim != 2:
        raise ValueError("zonal_convolve expects (vertices, channels) values")
    if v.shape[1] != filt.c_in:
        raise ValueError(
            f"filter expects {filt.c_in} input channels, got {v.shape[1]}")
    if v.shape[0] != basis.Y.shape[0]:
        raise ValueError("values row count does not match basis mesh")
    if L_out is None:
        L_out = filt.L_in
    if L_out > filt.L_in:
        raise ValueError(f"L_out={L_out} exceeds filter bandwidth {filt.L_in}")
    if L_out > basis.L:
        raise ValueError(f"L_out={L_out} exceeds basis bandwidth {basis.L}")

    n_lm = (L_out + 1) ** 2
    coeffs = ag.slice_rows(ag.matmul(basis.forward, values), 0, n_lm)

    scale = degree_scale(filt.L_in)[None, None, :]          # (1, 1, L_in+1)
    alpha_col = ag.reshape(filt.alpha, (filt.c_out, filt.c_in, 1))
    bracket = ag.sub(filt.h, ag.div(alpha_col, scale))
    gains = ag.mul(bracket, scale)                          # C(l) * (h - a/C(l))
    gains_lm = ag.take_axis(gains, degree_of_index(L_out), axis=2)

    spectral = ag.matmul(basis.Y[:, :n_lm],
                         ag.einsum2("oil,li->lo", gains_lm, coeffs))
    residual = ag.einsum2("ni,oi->no", values, filt.alpha)
    return ag.add(spectral, residual)


@dataclass
class BlockParams:
    """One conv block: zonal filter bank + batch norm (+ optional ReLU)."""

    filt: ZonalFilter
    bn_gamma: object    # (C_out,)
    bn_beta: object     # (C_out,)
    bn_mean: np.ndarray
    bn_var: np.ndarray
    relu: bool = True

    @property
    def c_out(self) -> int:
        return self.filt.c_out


def init_block(c_out: int, c_in: int, L: int, rng, relu: bool = True) -> BlockParams:
    return BlockParams(
        filt=init_zonal_filter(c_out, c_in, L, rng),
        bn_gamma=np.ones(c_out),
        bn_beta=np.zeros(c_out),
        bn_mean=np.zeros(c_out),
        bn_var=np.ones(c_out),
        relu=relu,
    )


def batch_norm(values, params: BlockParams, training_mode: bool,
               batch_stats_update: bool):
    """Per-channel normalisation over the vertex axis.

    Training mode normalises with the biased batch statistics and, when
    ``batch_stats_update`` is set, folds them into the running buffers with
    momentum 0.1 (a side effect on the params, outside the autodiff graph).
    Inference mode uses the running buffers only.
    """
    if training_mode:
        mean = ag.reduce_mean(values, axis=0, keepdims=True)
        centered = ag.sub(values, mean)
        var = ag.reduce_mean(ag.square(centered), axis=0, keepdims=True)
        if batch_stats_update:
            params.bn_mean = ((1.0 - BN_MOMENTUM) * params.bn_mean
                              + BN_MOMENTUM * ag.value_of(mean)[0])
            params.bn_var = ((1.0 - BN_MOMENTUM) * params.bn_var
                             + BN_MOMENTUM * ag.value_of(var)[0])
        normalized = ag.div(centered, ag.sqrt(ag.add(var, BN_EPS)))
    else:
        normalized = ag.div(ag.sub(values, params.bn_mean[None, :]),
                            np.sqrt(params.bn_var + BN_EPS)[None, :])
    gamma = ag.reshape(params.bn_gamma, (1, -1)) if ag.is_tensor(params.bn_gamma) \
        else ag.value_of(params.bn_gamma)[None, :]
    beta = ag.reshape(params.bn_beta, (1, -1)) if ag.is_tensor(params.bn_beta) \
        else ag.value_of(params.bn_beta)[None, :]
    return ag.add(ag.mul(normalized, gamma), beta)


def shconv_block(values, params: BlockParams, basis: HarmonicBasis,
                 L_out: int | None = None, training_mode: bool = False,
                 batch_stats_update: bool = False):
    """Zonal convolution -> batch norm -> optional ReLU."""
    out = zonal_convolve(values, params.filt, basis, L_out)
    out = batch_norm(out, params, training_mode, batch_stats_update)
    if params.relu:
        out = ag.relu(out)
    return out

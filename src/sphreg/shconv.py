"""Zonal spectral convolution blocks on the sphere.

A zonal (rotation-steerable) filter h acts diagonally per degree: each
coefficient f_hat_lm of an input channel is scaled by

    C(l) * (h_hat[l] - alpha / C(l)),       C(l) = sqrt(4 pi / (2 l + 1)),

summed over input channels, synthesised back to the mesh, and the residual
term alpha * f is added in the spatial domain.  The bracket is evaluated in
exactly that grouping so filters with h_hat = alpha / C(l) cancel the
spectral path bitwise and pass alpha * f through untouched.

A filter whose ``alpha`` is ``None`` has no residual and its bracket is
h_hat.  The U-Net's pooling blocks are such filters: on the wider basis of
the block before them they read only their own degrees, so they truncate.

Blocks wrap the convolution with per-channel batch normalisation over the
vertex axis (momentum 0.1 running stats) and an optional ReLU.  All forward
code accepts plain arrays or autodiff tensors interchangeably.

The convolution and the batch norm each record one autodiff node, so a
block is three with the ReLU; hand-written backwards give each input its
contributions in a fixed order: the bracket path into ``alpha`` before the
residual path, the spectral path into the input before the residual path.
Every contraction of the convolution is a BLAS product, and analysis and
synthesis run on the basis's parity halves (see ``sht``) at half the cost.
A zonal gain depends only on l, so a frozen ``pad_table`` per bandwidth
gathers the flat (l, m) coefficients into an (L+1, 2L+1, C_in) stack
(slots past 2l read zeros) and one stacked ``matmul`` mixes each degree
with its (C_in, C_out) gains, as it forms both gradients; the residual is
a plain ``@``.  Tests hold the conv bitwise to the parity arithmetic in 2-D
products and within 1e-14 to the einsum chain on the full basis, and the
batch norm bitwise to its chain of elementary autodiff ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import autodiff as ag
from .sht import HarmonicBasis, parity_columns

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def degree_scale(L: int) -> np.ndarray:
    """C(l) = sqrt(4 pi / (2l + 1)) for l = 0..L."""
    l = np.arange(L + 1, dtype=np.float64)
    return np.sqrt(4.0 * np.pi / (2.0 * l + 1.0))


@cache
def pad_table(L: int) -> np.ndarray:
    """Frozen (L+1, 2L+1) table of flat (l, m) indices, one degree per row.

    Row l holds l^2 .. l^2 + 2l; its slots past 2l hold (L+1)^2, the index
    of the zero row appended below the coefficients.
    """
    l = np.arange(L + 1)[:, None]
    slot = np.arange(2 * L + 1)[None, :]
    table = np.where(slot <= 2 * l, l * l + slot, (L + 1) ** 2)
    table.setflags(write=False)
    return table


def _paired(a: np.ndarray, b: np.ndarray, basis: HarmonicBasis) -> np.ndarray:
    """Vertex rows a + b at P and a - b at Q: the even plus the odd part."""
    out = np.empty((2 * len(basis.P), a.shape[1]))
    out[basis.P], out[basis.Q] = a + b, a - b
    return out


@dataclass
class ZonalFilter:
    """Per-(out, in) channel zonal taps plus the residual mixing weights."""

    h: object       # (C_out, C_in, L_in + 1) array or Tensor
    alpha: object   # (C_out, C_in) array or Tensor; None: no residual (pooling)

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


def zonal_convolve(values, filt: ZonalFilter, basis: HarmonicBasis):
    """Convolve (N, C_in) vertex values with a zonal filter bank.

    The basis must live on the signal's mesh and cover the filter bandwidth.
    """
    v = ag.value_of(values)
    if v.ndim != 2:
        raise ValueError("zonal_convolve expects (vertices, channels) values")
    if v.shape[1] != filt.c_in:
        raise ValueError(
            f"filter expects {filt.c_in} input channels, got {v.shape[1]}")
    if v.shape[0] != basis.Y.shape[0]:
        raise ValueError("values row count does not match basis mesh")
    if filt.L_in > basis.L:
        raise ValueError(f"filter bandwidth {filt.L_in} exceeds basis "
                         f"bandwidth {basis.L}")

    L, c_in, c_out = filt.L_in, filt.c_in, filt.c_out
    n_lm = (L + 1) ** 2
    h_in, alpha_in = filt.h, filt.alpha
    h = ag.value_of(h_in)
    alpha = None if alpha_in is None else ag.value_of(alpha_in)
    table = pad_table(L)
    kept = np.flatnonzero(table.ravel() < n_lm)     # unpads an L+1 stack
    # the degree <= L prefix of each parity half, on the pairs (P, Q)
    even, odd = parity_columns(L)
    synth_even, synth_odd = basis.even[:, :len(even)], basis.odd[:, :len(odd)]
    F_even, F_odd = basis.forward_even[:len(even)], basis.forward_odd[:len(odd)]

    # coefficients with a zero row appended, gathered to (L+1, 2L+1, C_in)
    coeffs = np.zeros((n_lm + 1, c_in))
    v_P, v_Q = np.take(v, basis.P, axis=0), np.take(v, basis.Q, axis=0)
    coeffs[even], coeffs[odd] = F_even @ (v_P + v_Q), F_odd @ (v_P - v_Q)
    padded = coeffs[table]
    scale = degree_scale(L)[None, None, :]                   # (1, 1, L+1)
    bracket = h if alpha is None else h - alpha.reshape(c_out, c_in, 1) / scale
    # C(l) * (h - a/C(l)) as an (L+1, C_in, C_out) stack of per-degree mixes
    gains = np.ascontiguousarray((bracket * scale).transpose(2, 1, 0))
    mixed = np.matmul(padded, gains).reshape(-1, c_out)[kept]
    out = _paired(synth_even @ mixed[even], synth_odd @ mixed[odd], basis)
    if alpha is not None:
        out = out + v @ alpha.T

    def backward(g):
        g_mixed = np.zeros((n_lm + 1, c_out))
        g_P, g_Q = np.take(g, basis.P, axis=0), np.take(g, basis.Q, axis=0)
        g_mixed[even] = synth_even.T @ (g_P + g_Q)
        g_mixed[odd] = synth_odd.T @ (g_P - g_Q)
        g_padded = g_mixed[table]
        if ag.is_tensor(h_in) or ag.is_tensor(alpha_in):
            g_gains = np.matmul(padded.transpose(0, 2, 1), g_padded)
            g_bracket = np.ascontiguousarray(g_gains.transpose(2, 1, 0)) * scale
            if ag.is_tensor(h_in):
                ag.accumulate(h_in, g_bracket)
            if ag.is_tensor(alpha_in):
                ag.accumulate(alpha_in, (-g_bracket / scale).sum(axis=2))
        if ag.is_tensor(values):
            g_coeffs = np.matmul(g_padded, gains.transpose(0, 2, 1)
                                 ).reshape(-1, c_in)[kept]
            ag.accumulate(values, _paired(F_even.T @ g_coeffs[even],
                                          F_odd.T @ g_coeffs[odd], basis))
            if alpha is not None:
                ag.accumulate(values, g @ alpha)
        if ag.is_tensor(alpha_in):
            ag.accumulate(alpha_in, g.T @ v)

    return ag.record(out, (values, h_in, alpha_in), backward)


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


def batch_norm(values, params: BlockParams, training: bool):
    """Per-channel normalisation over the vertex axis.

    Training normalises with the biased batch statistics and folds them
    into the running buffers with momentum 0.1 (a side effect on the params,
    outside the autodiff graph), but never reads the buffers, so no training
    output depends on them.  Inference uses the running buffers only.
    """
    v = ag.value_of(values)
    gamma_in, beta_in = params.bn_gamma, params.bn_beta
    gamma = ag.value_of(gamma_in).reshape(1, -1)
    beta = ag.value_of(beta_in).reshape(1, -1)
    count = float(v.shape[0])
    if training:
        mean = v.sum(axis=0, keepdims=True) / count
        centered = v - mean
        var = np.square(centered).sum(axis=0, keepdims=True) / count
        params.bn_mean = ((1.0 - BN_MOMENTUM) * params.bn_mean
                          + BN_MOMENTUM * mean[0])
        params.bn_var = ((1.0 - BN_MOMENTUM) * params.bn_var
                         + BN_MOMENTUM * var[0])
        sd = np.sqrt(var + BN_EPS)
    else:
        centered = v - params.bn_mean[None, :]
        sd = np.sqrt(params.bn_var + BN_EPS)[None, :]
    normalized = centered / sd

    def backward(g):
        if ag.is_tensor(values):
            g_normalized = g * gamma
            g_centered = g_normalized / sd
            if training:
                g_sd = (-g_normalized * centered / (sd * sd)).sum(axis=0,
                                                                  keepdims=True)
                g_var = g_sd * (0.5 / sd)
                g_centered += g_var / count * (2.0 * centered)
                g_mean = (-g_centered).sum(axis=0, keepdims=True)
            ag.accumulate(values, g_centered)
            if training:
                ag.accumulate(values, np.broadcast_to(g_mean / count, v.shape))
        if ag.is_tensor(gamma_in):
            ag.accumulate(gamma_in, (g * normalized).sum(axis=0))
        if ag.is_tensor(beta_in):
            ag.accumulate(beta_in, g.sum(axis=0))

    return ag.record(normalized * gamma + beta, (values, gamma_in, beta_in),
                     backward)


def shconv_block(values, params: BlockParams, basis: HarmonicBasis,
                 training: bool = False):
    """Zonal convolution -> batch norm -> optional ReLU."""
    out = zonal_convolve(values, params.filt, basis)
    out = batch_norm(out, params, training)
    if params.relu:
        out = ag.relu(out)
    return out

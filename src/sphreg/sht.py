"""Real orthonormal spherical harmonics on icosphere samplings.

The basis is real, orthonormal, and Condon-Shortley-free:

    Y_l^0  = Pbar_l^0(cos th)
    Y_l^m  = sqrt(2) Pbar_l^m(cos th) cos(m ph)      m > 0
    Y_l^-m = sqrt(2) Pbar_l^m(cos th) sin(m ph)      m > 0

where Pbar is the fully normalised associated Legendre function computed by
the standard three-term recurrence in l with diagonal seeding in m.  The
recurrence operates on normalised values throughout, so it is stable to the
l = 64 cap (the unnormalised P_l^m would overflow long before that).

Columns use the flat index l^2 + l + m.  Icosphere samplings admit no exact
quadrature, so the forward transform is the Moore-Penrose pseudo-inverse of
the sampled basis (least squares); see the design notes in build_basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .icosphere import _BLOCK, Icosphere, SphericalSignal, generate_icosphere

MAX_DEGREE = 64


def flat_index(l: int, m: int) -> int:
    if abs(m) > l:
        raise ValueError(f"order |{m}| exceeds degree {l}")
    return l * l + l + m


def _sample_basis(points: np.ndarray, L: int) -> np.ndarray:
    """Evaluate all real harmonics up to degree L at unit points, (N, (L+1)^2),
    per block of points: no full-size transposed copy, and the same bits."""
    Y = np.empty((points.shape[0], (L + 1) ** 2), dtype=np.float64)
    for lo in range(0, len(points), _BLOCK):
        Y[lo:lo + _BLOCK] = _sample_rows(points[lo:lo + _BLOCK], L).T
    return Y


def _sample_rows(points: np.ndarray, L: int) -> np.ndarray:
    """((L+1)^2, N) harmonics at ``points``: rows fill faster than columns."""
    n = points.shape[0]
    ct = points[:, 2]
    st = np.hypot(points[:, 0], points[:, 1])
    phi = np.arctan2(points[:, 1], points[:, 0])

    T = np.empty(((L + 1) ** 2, n), dtype=np.float64)
    # azimuthal factors, computed once per order
    cos_m = [np.ones(n)] + [np.cos(m * phi) for m in range(1, L + 1)]
    sin_m = [np.zeros(n)] + [np.sin(m * phi) for m in range(1, L + 1)]

    p_mm = np.full(n, 1.0 / np.sqrt(4.0 * np.pi))
    for m in range(0, L + 1):
        if m > 0:
            p_mm = p_mm * st * np.sqrt((2.0 * m + 1.0) / (2.0 * m))
        p_prev, p_curr = None, p_mm
        for l in range(m, L + 1):
            if l == m:
                pass
            elif l == m + 1:
                p_prev, p_curr = p_curr, p_curr * ct * np.sqrt(2.0 * m + 3.0)
            else:
                a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
                p_prev, p_curr = p_curr, a * (ct * p_curr - b * p_prev)
            if m == 0:
                T[flat_index(l, 0)] = p_curr
            else:
                scaled = np.sqrt(2.0) * p_curr
                T[flat_index(l, m)] = scaled * cos_m[m]
                T[flat_index(l, -m)] = scaled * sin_m[m]
    return T


@dataclass
class HarmonicBasis:
    """Sampled basis plus its least-squares forward operator for one mesh."""

    mesh_level: int
    L: int
    Y: np.ndarray          # (N, (L+1)^2)

    @property
    def n_coeffs(self) -> int:
        return (self.L + 1) ** 2

    @cached_property
    def forward(self) -> np.ndarray:
        """((L+1)^2, N) pseudo-inverse of ``Y``, frozen; built on first use,
        since synthesis alone never needs it."""
        forward = np.linalg.pinv(self.Y)
        forward.setflags(write=False)
        return forward


def build_basis(mesh: Icosphere, L: int) -> HarmonicBasis:
    """Basis for ``mesh`` up to degree ``L`` (cached per (mesh, L)).

    Requires more samples than coefficients; at 2x oversampling or better the
    sampled columns are far from rank deficiency and the pseudo-inverse is a
    stable left inverse (checked to 1e-8 in the tests).
    """
    return _basis(mesh, L)


@cache
def _basis(mesh: Icosphere, L: int) -> HarmonicBasis:
    if L < 0 or L > MAX_DEGREE:
        raise ValueError(f"bandwidth L={L} out of [0, {MAX_DEGREE}]")
    n_coeffs = (L + 1) ** 2
    if mesh.n_vertices < n_coeffs:
        raise ValueError(
            f"level {mesh.level} has {mesh.n_vertices} vertices, fewer than "
            f"{n_coeffs} coefficients for L={L}; refine the mesh or lower L")
    Y = _sample_basis(mesh.vertices, int(L))
    Y.setflags(write=False)
    return HarmonicBasis(mesh.level, int(L), Y)


@dataclass
class SpectralCoeffs:
    """Flat-indexed harmonic coefficients, one column per channel."""

    L: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        expected = (self.L + 1) ** 2
        if self.values.shape[0] != expected:
            raise ValueError(
                f"coefficients have {self.values.shape[0]} rows, "
                f"L={self.L} needs {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("coefficients must be finite")

    @property
    def channels(self) -> int:
        return self.values.shape[1]


def sht_forward(signal: SphericalSignal, basis: HarmonicBasis) -> SpectralCoeffs:
    """Least-squares analysis of a signal sampled on the basis mesh."""
    if signal.level != basis.mesh_level:
        raise ValueError(
            f"signal level {signal.level} does not match basis mesh level "
            f"{basis.mesh_level}")
    return SpectralCoeffs(basis.L, basis.forward @ signal.values)


def sht_inverse(coeffs: SpectralCoeffs, basis: HarmonicBasis) -> SphericalSignal:
    """Synthesise a signal on the basis mesh; coeffs may be narrower band."""
    if coeffs.L > basis.L:
        raise ValueError(
            f"coefficient bandwidth {coeffs.L} exceeds basis bandwidth {basis.L}")
    cols = (coeffs.L + 1) ** 2
    values = basis.Y[:, :cols] @ coeffs.values
    return SphericalSignal(basis.mesh_level, values)


def random_coefficients(L: int, channels: int, rng) -> SpectralCoeffs:
    """(L+1)^2 x channels normal draws scaled by a 1/(1+l)^2 spectrum."""
    n = (L + 1) ** 2
    scales = np.empty(n)
    for l in range(L + 1):
        scales[l * l:(l + 1) * (l + 1)] = (1.0 + l) ** (-2.0)
    return SpectralCoeffs(L, rng.normal(size=(n, channels)) * scales[:, None])


def random_bandlimited(mesh_level: int, L: int, channels: int,
                       rng) -> SphericalSignal:
    """``random_coefficients`` on the level's mesh, bitwise ``sht_inverse``
    on ``build_basis``, but with a basis sampled for this call alone."""
    basis = _basis.__wrapped__(generate_icosphere(mesh_level), L)
    return sht_inverse(random_coefficients(L, channels, rng), basis)

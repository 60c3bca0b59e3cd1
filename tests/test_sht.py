"""Spherical harmonic basis and transform properties.

The closed-form low-degree harmonics used as oracles here were written down
independently from standard tables before the implementation existed.
"""

import numpy as np
import pytest

from sphreg import sht
from sphreg.icosphere import SphericalSignal, generate_icosphere
from sphreg.sht import (HarmonicBasis, build_basis, flat_index,
                        random_bandlimited, random_coefficients, sht_forward,
                        sht_inverse)


def closed_form_sh(l, m, p):
    """Low-degree real orthonormal harmonics from the standard tables."""
    x, y, z = p
    c = {
        (0, 0): lambda: 0.5 * np.sqrt(1 / np.pi),
        (1, -1): lambda: np.sqrt(3 / (4 * np.pi)) * y,
        (1, 0): lambda: np.sqrt(3 / (4 * np.pi)) * z,
        (1, 1): lambda: np.sqrt(3 / (4 * np.pi)) * x,
        (2, -2): lambda: 0.5 * np.sqrt(15 / np.pi) * x * y,
        (2, -1): lambda: 0.5 * np.sqrt(15 / np.pi) * y * z,
        (2, 0): lambda: 0.25 * np.sqrt(5 / np.pi) * (3 * z * z - 1),
        (2, 1): lambda: 0.5 * np.sqrt(15 / np.pi) * x * z,
        (2, 2): lambda: 0.25 * np.sqrt(15 / np.pi) * (x * x - y * y),
        (3, 0): lambda: 0.25 * np.sqrt(7 / np.pi) * (5 * z ** 3 - 3 * z),
    }
    return c[(l, m)]()


def column_by_column_basis(points, L):
    """The basis as the package first wrote it, one strided column of an
    (N, (L+1)^2) array per harmonic."""
    n = points.shape[0]
    ct = points[:, 2]
    st = np.hypot(points[:, 0], points[:, 1])
    phi = np.arctan2(points[:, 1], points[:, 0])
    Y = np.empty((n, (L + 1) ** 2), dtype=np.float64)
    cos_m = [np.ones(n)] + [np.cos(m * phi) for m in range(1, L + 1)]
    sin_m = [np.zeros(n)] + [np.sin(m * phi) for m in range(1, L + 1)]
    p_mm = np.full(n, 1.0 / np.sqrt(4.0 * np.pi))
    for m in range(0, L + 1):
        if m > 0:
            p_mm = p_mm * st * np.sqrt((2.0 * m + 1.0) / (2.0 * m))
        p_prev, p_curr = None, p_mm
        for l in range(m, L + 1):
            if l == m + 1:
                p_prev, p_curr = p_curr, p_curr * ct * np.sqrt(2.0 * m + 3.0)
            elif l > m + 1:
                a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
                p_prev, p_curr = p_curr, a * (ct * p_curr - b * p_prev)
            if m == 0:
                Y[:, flat_index(l, 0)] = p_curr
            else:
                scaled = np.sqrt(2.0) * p_curr
                Y[:, flat_index(l, m)] = scaled * cos_m[m]
                Y[:, flat_index(l, -m)] = scaled * sin_m[m]
    return Y


@pytest.mark.parametrize("level,L", [(1, 2), (3, 4), (3, 8), (3, 16), (6, 8)])
def test_sampled_basis_keeps_the_column_by_column_bits(level, L):
    mesh = generate_icosphere(level)
    basis = sht._basis.__wrapped__(mesh, L)
    assert basis.Y.flags.c_contiguous
    assert basis.Y.shape == (mesh.n_vertices, (L + 1) ** 2)
    # sampled at the first vertex of each antipodal pair, reflected to the other
    assert basis.Y[basis.P].tobytes() == \
        column_by_column_basis(mesh.vertices[basis.P], L).tobytes()


@pytest.mark.parametrize("block", [7, 1000])
def test_sampled_basis_blocks_keep_the_bits(monkeypatch, block):
    mesh = generate_icosphere(4)         # 1281 antipodal pairs, one block
    expected = sht._basis.__wrapped__(mesh, 8).Y
    monkeypatch.setattr(sht, "_BLOCK", block)
    Y = sht._basis.__wrapped__(mesh, 8).Y
    assert Y.flags.c_contiguous
    assert Y.tobytes() == expected.tobytes()


def test_flat_index_layout():
    assert flat_index(0, 0) == 0
    assert flat_index(1, -1) == 1
    assert flat_index(1, 0) == 2
    assert flat_index(1, 1) == 3
    assert flat_index(2, -2) == 4
    with pytest.raises(ValueError):
        flat_index(1, 2)


def test_basis_columns_match_closed_forms():
    mesh = generate_icosphere(2)
    basis = build_basis(mesh, 3)
    for (l, m) in [(0, 0), (1, -1), (1, 0), (1, 1), (2, -2), (2, -1),
                   (2, 0), (2, 1), (2, 2), (3, 0)]:
        col = basis.Y[:, flat_index(l, m)]
        expected = np.array([closed_form_sh(l, m, p) for p in mesh.vertices])
        np.testing.assert_allclose(col, expected, atol=1e-12)


def test_forward_is_left_inverse():
    basis = build_basis(generate_icosphere(3), 16)
    eye = basis.forward @ basis.Y
    assert np.abs(eye - np.eye(basis.n_coeffs)).max() < 1e-8


def test_roundtrip_bandlimited_signals():
    mesh = generate_icosphere(3)
    basis = build_basis(mesh, 16)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        signal = random_bandlimited(3, 16, 2, rng)
        back = sht_inverse(sht_forward(signal, basis), basis)
        worst = max(worst, np.abs(back.values - signal.values).max())
    assert worst < 1e-6


def test_coefficient_recovery():
    # analysis of a synthesized signal returns the exact coefficients
    basis = build_basis(generate_icosphere(3), 8)
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal((81, 1))
    signal = sht_inverse(coeffs, basis)
    back = sht_forward(signal, basis)
    np.testing.assert_allclose(back, coeffs, atol=1e-9)


def test_bandwidth_validation():
    mesh = generate_icosphere(1)     # 42 vertices
    with pytest.raises(ValueError):
        build_basis(mesh, 6)         # 49 coefficients > 42 samples
    build_basis(generate_icosphere(3), 23)   # 300 odd columns, 321 pairs
    with pytest.raises(ValueError, match="antipodal pairs"):
        # 625 coefficients < 642 samples, but 325 even ones > 321 pairs
        build_basis(generate_icosphere(3), 24)
    with pytest.raises(ValueError):
        build_basis(mesh, -1)
    with pytest.raises(ValueError):
        build_basis(mesh, 65)


def test_narrow_band_synthesis_on_wider_basis():
    basis = build_basis(generate_icosphere(2), 8)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal((25, 1))
    wide = sht_inverse(coeffs, basis)
    narrow = sht_inverse(coeffs, build_basis(generate_icosphere(2), 4))
    np.testing.assert_allclose(wide.values, narrow.values, atol=1e-12)


@pytest.mark.parametrize("rows", [0, 24, 26, 80, 121])
def test_inverse_rejects_rows_that_are_no_narrower_band(rows):
    # (L'+1)^2 rows with L' <= 8 are 1, 4, ..., 81; 121 is L' = 10
    basis = build_basis(generate_icosphere(2), 8)
    with pytest.raises(ValueError, match="coefficient rows"):
        sht_inverse(np.zeros((rows, 1)), basis)


def test_random_bandlimited_spectrum_decay():
    rng = np.random.default_rng(4)
    basis = build_basis(generate_icosphere(3), 8)
    powers = np.zeros(9)
    for _ in range(200):
        signal = random_bandlimited(3, 8, 1, rng)
        coeffs = sht_forward(signal, basis)[:, 0]
        for l in range(9):
            powers[l] += np.mean(coeffs[l * l:(l + 1) * (l + 1)] ** 2)
    powers /= 200
    expected = (1.0 + np.arange(9)) ** (-4.0)   # variance decays as square
    ratio = powers / expected
    assert ratio.max() / ratio.min() < 1.5


def test_synthesis_alone_builds_no_pseudo_inverse(monkeypatch):
    calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv",
                        lambda a: calls.append(a.shape) or pinv(a))
    sht._basis.cache_clear()
    random_bandlimited(3, 8, 1, np.random.default_rng(0))
    assert calls == []
    basis = build_basis(generate_icosphere(3), 8)
    assert basis.forward is basis.forward
    # one pinv per parity half, 45 even and 36 odd columns at 321 pairs
    assert calls == [(321, 45), (321, 36)]


@pytest.mark.parametrize("level,L", [(0, 2), (1, 5), (2, 8), (3, 16), (4, 16)])
def test_antipodal_rows_reflect_by_degree_parity(level, L):
    mesh = generate_icosphere(level)
    basis = build_basis(mesh, L)
    P, Q = basis.P, basis.Q
    assert len(P) == len(Q) == mesh.n_vertices // 2
    np.testing.assert_array_equal(Q, mesh.antipodes[P])
    assert (P < Q).all() and (np.diff(P) > 0).all()
    degree = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
    sign = (-1.0) ** degree
    assert basis.Y[Q].tobytes() == (sign * basis.Y[P]).tobytes()
    assert basis.Y[P].tobytes() == \
        sht._sample_rows(mesh.vertices[P], L).T.tobytes()
    # the reflection stands in for sampling at Q to rounding level
    assert np.abs(basis.Y[Q] - column_by_column_basis(mesh.vertices[Q], L)
                  ).max() < 1e-13


@pytest.mark.parametrize("level,L", [(0, 2), (2, 8), (3, 4), (3, 16)])
def test_forward_is_the_half_pinvs_without_a_full_size_pinv(monkeypatch,
                                                            level, L):
    calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv",
                        lambda a: calls.append(a.shape) or pinv(a))
    sht._basis.cache_clear()
    basis = build_basis(generate_icosphere(level), L)
    eye = basis.forward @ basis.Y
    pairs, (even, odd) = len(basis.P), sht.parity_columns(L)
    assert calls == [(pairs, len(even)), (pairs, len(odd))]
    assert np.abs(eye - np.eye(basis.n_coeffs)).max() < 1e-12
    # Y^T Y is block diagonal by parity, so the halves give pinv(Y)'s rows
    monkeypatch.undo()
    np.testing.assert_allclose(basis.forward, np.linalg.pinv(basis.Y),
                               rtol=0, atol=1e-12)


def test_parity_columns_split_the_flat_index():
    for L in range(9):
        even, odd = sht.parity_columns(L)
        assert not even.flags.writeable and not odd.flags.writeable
        np.testing.assert_array_equal(np.sort(np.concatenate([even, odd])),
                                      np.arange((L + 1) ** 2))
        for l in range(L + 1):
            half = even if l % 2 == 0 else odd
            assert set(range(l * l, (l + 1) ** 2)) <= set(half)
        if L:
            lower = sht.parity_columns(L - 1)
            np.testing.assert_array_equal(even[:len(lower[0])], lower[0])
            np.testing.assert_array_equal(odd[:len(lower[1])], lower[1])


def test_random_bandlimited_caches_no_basis():
    sht._basis.cache_clear()
    random_bandlimited(4, 8, 1, np.random.default_rng(0))
    assert sht._basis.cache_info().currsize == 0


@pytest.mark.parametrize("level,L,channels", [(1, 2, 3), (3, 8, 1), (6, 8, 1)])
def test_random_bandlimited_is_synthesis_on_the_cached_basis(level, L,
                                                             channels):
    signal = random_bandlimited(level, L, channels, np.random.default_rng(5))
    expected = sht_inverse(
        random_coefficients(L, channels, np.random.default_rng(5)),
        build_basis(generate_icosphere(level), L))
    assert signal.level == level
    assert signal.values.tobytes() == expected.values.tobytes()


def test_mismatched_levels_rejected():
    basis = build_basis(generate_icosphere(2), 4)
    signal = SphericalSignal(3, np.zeros((642, 1)))
    with pytest.raises(ValueError):
        sht_forward(signal, basis)

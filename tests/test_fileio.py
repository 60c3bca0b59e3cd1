"""Binary formats: mesh, signal, field, and checkpoint files.

Every reader must reject malformed input with a FormatError naming the
byte offset of the first violation, so corrupted files fail loudly at the
right place instead of producing garbage arrays downstream.
"""

import struct

import numpy as np
import pytest

from sphreg import fileio, warp
from sphreg.errors import FormatError
from sphreg.icosphere import SphericalSignal, generate_icosphere
from sphreg.warp import DeformationField


def corrupt(path, offset: int, payload: bytes):
    data = bytearray(path.read_bytes())
    data[offset:offset + len(payload)] = payload
    path.write_bytes(bytes(data))


# ---------------------------------------------------------------------------
# SPHM mesh (written for other tools; the package has no reader)
# ---------------------------------------------------------------------------

def test_mesh_roundtrip_bitwise(tmp_path):
    mesh = generate_icosphere(2)
    path = tmp_path / "mesh.sphm"
    fileio.write_mesh(path, mesh)
    raw = path.read_bytes()
    n_v, n_f = mesh.n_vertices, mesh.n_faces
    assert raw[:4] == b"SPHM"
    assert struct.unpack_from("<IIII", raw, 4) == (1, 2, n_v, n_f)
    assert len(raw) == 20 + 8 * 3 * n_v + 4 * 3 * n_f
    vertices = np.frombuffer(raw, "<f8", 3 * n_v, 20).reshape(n_v, 3)
    faces = np.frombuffer(raw, "<u4", 3 * n_f, 20 + 8 * 3 * n_v)
    np.testing.assert_array_equal(vertices, mesh.vertices)
    np.testing.assert_array_equal(faces.reshape(n_f, 3), mesh.faces)


# ---------------------------------------------------------------------------
# SPHS signal
# ---------------------------------------------------------------------------

def test_signal_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    signal = SphericalSignal(1, rng.standard_normal((42, 3)))
    path = tmp_path / "signal.sphs"
    fileio.write_signal(path, signal)
    loaded = fileio.read_signal(path)
    assert loaded.level == 1
    assert loaded.channels == 3
    np.testing.assert_array_equal(loaded.values, signal.values)


def test_signal_bad_version(tmp_path):
    path = tmp_path / "sig.sphs"
    fileio.write_signal(path, SphericalSignal(0, np.zeros((12, 1))))
    corrupt(path, 4, struct.pack("<I", 9))
    with pytest.raises(FormatError, match="byte 4: .*unsupported version 9"):
        fileio.read_signal(path)


def test_signal_trailing_bytes(tmp_path):
    path = tmp_path / "sig.sphs"
    fileio.write_signal(path, SphericalSignal(0, np.zeros((12, 1))))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing bytes"):
        fileio.read_signal(path)


def test_signal_rejects_zero_channels(tmp_path):
    path = tmp_path / "signal.sphs"
    fileio.write_signal(path, SphericalSignal(0, np.zeros((12, 1))))
    corrupt(path, 12, struct.pack("<I", 0))
    with pytest.raises(FormatError, match="byte 12: .*zero channels"):
        fileio.read_signal(path)


def test_signal_rejects_non_finite_values(tmp_path):
    path = tmp_path / "signal.sphs"
    fileio.write_signal(path, SphericalSignal(0, np.zeros((12, 1))))
    offset = 16 + 8 * 5
    corrupt(path, offset, struct.pack("<d", np.nan))
    with pytest.raises(FormatError, match=f"byte {offset}: .*non-finite"):
        fileio.read_signal(path)


def test_signal_rejects_absurd_level(tmp_path):
    path = tmp_path / "signal.sphs"
    fileio.write_signal(path, SphericalSignal(0, np.zeros((12, 1))))
    corrupt(path, 8, struct.pack("<I", 30))
    with pytest.raises(FormatError, match="level 30 out of range"):
        fileio.read_signal(path)


# ---------------------------------------------------------------------------
# SPHD deformation field
# ---------------------------------------------------------------------------

def test_field_roundtrip_bitwise(tmp_path):
    mesh = generate_icosphere(2)
    rng = np.random.default_rng(2)
    targets = mesh.vertices + 0.05 * rng.standard_normal((162, 3))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    field = DeformationField(2, targets)
    path = tmp_path / "field.sphd"
    fileio.write_field(path, field)
    loaded = fileio.read_field(path)
    assert loaded.mesh_level == 2
    np.testing.assert_array_equal(loaded.targets, field.targets)


def test_field_rejects_non_unit_target(tmp_path):
    mesh = generate_icosphere(0)
    field = DeformationField(0, mesh.vertices.copy())
    path = tmp_path / "field.sphd"
    fileio.write_field(path, field)
    corrupt(path, 12 + 24 * 7, struct.pack("<d", 5.0))
    with pytest.raises(FormatError, match=f"byte {12 + 24 * 7}: "
                                          ".*target 7 is not unit norm"):
        fileio.read_field(path)


def test_field_read_takes_one_norm_pass(tmp_path, monkeypatch):
    # the reader leaves the unit-length check to DeformationField, so a good
    # field's target norms are computed once on the read path
    path = tmp_path / "field.sphd"
    field = DeformationField(2, generate_icosphere(2).vertices)
    fileio.write_field(path, field)
    passes = []
    for module in (fileio, warp):
        def counting(a, norm3=module._norm3):
            passes.append(len(a))
            return norm3(a)
        monkeypatch.setattr(module, "_norm3", counting)
    fileio.read_field(path)
    assert passes == [162]


# ---------------------------------------------------------------------------
# SPHK checkpoint
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("version, message", [
    (1, "version 1 checkpoint: .*train the model again"),
    (3, "unsupported version 3")])
def test_checkpoint_version(tmp_path, version, message):
    # SPHK is at version 2; the other formats stay at 1
    path = tmp_path / "model.sphk"
    fileio.write_checkpoint(path, {}, {"w": np.zeros(2)})
    assert path.read_bytes()[4:8] == struct.pack("<I", 2)
    corrupt(path, 4, struct.pack("<I", version))
    with pytest.raises(FormatError, match=f"byte 4: .*{message}"):
        fileio.read_checkpoint(path)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    tensors = {
        "layer.weight": rng.standard_normal((3, 4)),
        "layer.bias": rng.standard_normal(4),
        "scalar": np.float64(2.5),
        "cube": rng.standard_normal((2, 2, 2)),
    }
    path = tmp_path / "model.sphk"
    fileio.write_checkpoint(path, {"epochs": 5, "name": "run"}, tensors)
    config, loaded = fileio.read_checkpoint(path)
    assert config == {"epochs": 5, "name": "run"}
    assert set(loaded) == set(tensors)
    for name, arr in tensors.items():
        np.testing.assert_array_equal(loaded[name], np.asarray(arr))
        assert loaded[name].shape == np.asarray(arr).shape


def test_checkpoint_rejects_bad_json(tmp_path):
    path = tmp_path / "model.sphk"
    fileio.write_checkpoint(path, {"a": 1}, {"t": np.zeros(2)})
    corrupt(path, 12, b"{oops!{}")
    with pytest.raises(FormatError, match="config is not valid JSON"):
        fileio.read_checkpoint(path)


def test_checkpoint_rejects_absurd_rank(tmp_path):
    path = tmp_path / "model.sphk"
    fileio.write_checkpoint(path, {}, {"t": np.zeros((2, 2))})
    data = bytearray(path.read_bytes())
    # rank field sits after magic, version, config block, count, name
    rank_at = 4 + 4 + 4 + 2 + 4 + 4 + 1
    data[rank_at:rank_at + 4] = struct.pack("<I", 99)
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="rank 99"):
        fileio.read_checkpoint(path)


def test_checkpoint_truncated_tensor(tmp_path):
    path = tmp_path / "model.sphk"
    fileio.write_checkpoint(path, {}, {"t": np.zeros((4, 4))})
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(FormatError, match="truncated"):
        fileio.read_checkpoint(path)


@pytest.mark.parametrize("dims", [(2**32 - 1, 2**32 - 1), (2**21,) * 3])
def test_checkpoint_dims_whose_product_overflows_int64(tmp_path, dims):
    # the element count is exact, so a huge tensor reads as truncated
    # instead of wrapping to a size that fails the reshape
    path = tmp_path / "model.sphk"
    fileio.write_checkpoint(path, {}, {"t": np.zeros((1,) * len(dims))})
    rank_at = 4 + 4 + 4 + 2 + 4 + 4 + 1
    corrupt(path, rank_at + 4, struct.pack(f"<{len(dims)}I", *dims))
    with pytest.raises(FormatError, match="truncated") as info:
        fileio.read_checkpoint(path)
    assert info.value.offset == rank_at + 4 + 4 * len(dims)

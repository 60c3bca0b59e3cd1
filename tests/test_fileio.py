"""Binary formats: mesh, signal, field, and checkpoint files.

Every reader must reject malformed input with a FormatError naming the
byte offset of the first violation, so corrupted files fail loudly at the
right place instead of producing garbage arrays downstream.
"""

import struct

import numpy as np
import pytest

from sphreg import fileio
from sphreg.errors import FormatError
from sphreg.icosphere import SphericalSignal, generate_icosphere
from sphreg.warp import DeformationField


def corrupt(path, offset: int, payload: bytes):
    data = bytearray(path.read_bytes())
    data[offset:offset + len(payload)] = payload
    path.write_bytes(bytes(data))


# ---------------------------------------------------------------------------
# SPHM mesh
# ---------------------------------------------------------------------------

def test_mesh_roundtrip_bitwise(tmp_path):
    mesh = generate_icosphere(2)
    path = tmp_path / "mesh.sphm"
    fileio.write_mesh(path, mesh)
    loaded = fileio.read_mesh(path)
    assert loaded.level == 2
    np.testing.assert_array_equal(loaded.vertices, mesh.vertices)
    np.testing.assert_array_equal(loaded.faces, mesh.faces)
    assert [list(ring) for ring in loaded.one_ring] == \
        [list(ring) for ring in mesh.one_ring]
    for name in ("edges", "ring_offsets", "ring_dst", "ring_src",
                 "incident_faces"):
        np.testing.assert_array_equal(getattr(loaded, name),
                                      getattr(mesh, name))
        assert getattr(loaded, name).dtype == getattr(mesh, name).dtype


def test_mesh_bad_magic(tmp_path):
    path = tmp_path / "mesh.sphm"
    fileio.write_mesh(path, generate_icosphere(0))
    corrupt(path, 0, b"JUNK")
    with pytest.raises(FormatError, match="byte 0: .*bad magic"):
        fileio.read_mesh(path)


def test_mesh_bad_version(tmp_path):
    path = tmp_path / "mesh.sphm"
    fileio.write_mesh(path, generate_icosphere(0))
    corrupt(path, 4, struct.pack("<I", 9))
    with pytest.raises(FormatError, match="byte 4: .*unsupported version 9"):
        fileio.read_mesh(path)


def test_mesh_wrong_vertex_count(tmp_path):
    path = tmp_path / "mesh.sphm"
    fileio.write_mesh(path, generate_icosphere(1))
    corrupt(path, 12, struct.pack("<I", 43))
    with pytest.raises(FormatError, match="42 vertices, file says 43"):
        fileio.read_mesh(path)


def test_mesh_face_index_out_of_range(tmp_path):
    mesh = generate_icosphere(0)
    path = tmp_path / "mesh.sphm"
    fileio.write_mesh(path, mesh)
    face_bytes_at = 20 + 8 * 3 * mesh.n_vertices
    corrupt(path, face_bytes_at, struct.pack("<I", 12))
    with pytest.raises(FormatError, match="face index out of range"):
        fileio.read_mesh(path)


def test_mesh_vertex_in_no_face(tmp_path):
    mesh = generate_icosphere(0)
    path = tmp_path / "mesh.sphm"
    fileio.write_mesh(path, mesh)
    faces = np.where(mesh.faces == 11, 0, mesh.faces)
    corrupt(path, 20 + 8 * 3 * mesh.n_vertices, faces.astype("<u4").tobytes())
    with pytest.raises(FormatError, match="vertex 11 is in no face"):
        fileio.read_mesh(path)


def test_mesh_truncated(tmp_path):
    path = tmp_path / "mesh.sphm"
    fileio.write_mesh(path, generate_icosphere(0))
    path.write_bytes(path.read_bytes()[:30])
    with pytest.raises(FormatError, match="truncated"):
        fileio.read_mesh(path)


def test_mesh_trailing_bytes(tmp_path):
    path = tmp_path / "mesh.sphm"
    fileio.write_mesh(path, generate_icosphere(0))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing bytes"):
        fileio.read_mesh(path)


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


# ---------------------------------------------------------------------------
# SPHK checkpoint
# ---------------------------------------------------------------------------

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

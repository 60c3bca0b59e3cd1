"""Binary file formats: meshes, signals, fields, checkpoints.

All formats are little-endian with a 4-byte magic and a u32 version.  Readers
track their byte offset and raise FormatError naming the offset of the first
violation, which the CLI surfaces verbatim.

    SPHM  magic, version=1, u32 level, u32 n_vertices, u32 n_faces,
          f64 vertex triples, u32 face triples
    SPHS  magic, version=1, u32 level, u32 channels, f64 values row-major
    SPHD  magic, version=1, u32 level, f64 target triples
    SPHK  magic, version=1, u32 config length + UTF-8 JSON config,
          u32 tensor count, then per tensor: u32 name length + UTF-8 name,
          u32 rank, u32 dims, f64 data

SPHM is written for other tools and has no reader: every mesh the package
uses is generated from its level, with the face hierarchy that point
location descends.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import FormatError
from .icosphere import MAX_LEVEL, Icosphere, SphericalSignal, vertex_count

_VERSION = 1
# the SPHK config blob follows magic, version and its u32 length
CHECKPOINT_CONFIG_OFFSET = 12


class _Reader:
    def __init__(self, data: bytes, path: str = "<bytes>"):
        self.data = data
        self.offset = 0
        self.path = path

    def fail(self, message: str):
        raise FormatError(self.offset, f"{self.path}: {message}")

    def take(self, count: int) -> bytes:
        if self.offset + count > len(self.data):
            self.fail(f"truncated: wanted {count} bytes, "
                      f"{len(self.data) - self.offset} remain")
        chunk = self.data[self.offset:self.offset + count]
        self.offset += count
        return chunk

    def magic(self, expected: bytes):
        got = self.take(4)
        if got != expected:
            self.offset -= 4
            self.fail(f"bad magic {got!r}, expected {expected!r}")

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64_array(self, count: int, what: str) -> np.ndarray:
        raw = self.take(8 * count)
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        if not np.all(np.isfinite(arr)):
            bad = int(np.argmin(np.isfinite(arr)))
            raise FormatError(self.offset - 8 * count + 8 * bad,
                              f"{self.path}: non-finite value in {what}")
        return arr

    def done(self):
        if self.offset != len(self.data):
            self.fail(f"{len(self.data) - self.offset} trailing bytes")


def _check_version(reader: _Reader):
    at = reader.offset
    version = reader.u32("version")
    if version != _VERSION:
        raise FormatError(at, f"{reader.path}: unsupported version {version}")


def _check_level(reader: _Reader, level: int):
    if level > MAX_LEVEL:
        raise FormatError(reader.offset - 4,
                          f"{reader.path}: level {level} out of range")


# ---------------------------------------------------------------------------
# SPHM mesh
# ---------------------------------------------------------------------------

def write_mesh(path, mesh: Icosphere):
    with open(path, "wb") as f:
        f.write(b"SPHM")
        f.write(struct.pack("<IIII", _VERSION, mesh.level,
                            mesh.n_vertices, mesh.n_faces))
        f.write(mesh.vertices.astype("<f8").tobytes())
        f.write(mesh.faces.astype("<u4").tobytes())


# ---------------------------------------------------------------------------
# SPHS signal
# ---------------------------------------------------------------------------

def write_signal(path, signal: SphericalSignal):
    with open(path, "wb") as f:
        f.write(b"SPHS")
        f.write(struct.pack("<III", _VERSION, signal.level, signal.channels))
        f.write(signal.values.astype("<f8").tobytes())


def read_signal(path) -> SphericalSignal:
    with open(path, "rb") as f:
        r = _Reader(f.read(), str(path))
    r.magic(b"SPHS")
    _check_version(r)
    level = r.u32("level")
    _check_level(r, level)
    channels = r.u32("channels")
    if channels == 0:
        raise FormatError(r.offset - 4, f"{r.path}: zero channels")
    n = vertex_count(level)
    values = r.f64_array(n * channels, "values").reshape(n, channels)
    r.done()
    return SphericalSignal(level, values)


# ---------------------------------------------------------------------------
# SPHD deformation field
# ---------------------------------------------------------------------------

def write_field(path, field):
    with open(path, "wb") as f:
        f.write(b"SPHD")
        f.write(struct.pack("<II", _VERSION, field.mesh_level))
        f.write(field.targets.astype("<f8").tobytes())


def read_field(path):
    from .warp import UNIT_TOLERANCE, DeformationField
    with open(path, "rb") as f:
        r = _Reader(f.read(), str(path))
    r.magic(b"SPHD")
    _check_version(r)
    level = r.u32("level")
    _check_level(r, level)
    n = vertex_count(level)
    at = r.offset
    targets = r.f64_array(3 * n, "targets").reshape(n, 3)
    r.done()
    norms = np.linalg.norm(targets, axis=1)
    if np.any(np.abs(norms - 1.0) > UNIT_TOLERANCE):
        bad = int(np.argmax(np.abs(norms - 1.0)))
        raise FormatError(at + 24 * bad,
                          f"{r.path}: target {bad} is not unit norm")
    return DeformationField(level, targets)


# ---------------------------------------------------------------------------
# SPHK checkpoint
# ---------------------------------------------------------------------------

def write_checkpoint(path, config_dict: dict, tensors: dict):
    """Write config (JSON) plus named f64 tensors; order is sorted by name."""
    blob = json.dumps(config_dict, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(b"SPHK")
        f.write(struct.pack("<I", _VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.asarray(tensors[name], dtype=np.float64)
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype("<f8").tobytes())


def read_checkpoint(path):
    with open(path, "rb") as f:
        r = _Reader(f.read(), str(path))
    r.magic(b"SPHK")
    _check_version(r)
    blob_len = r.u32("config length")
    try:
        config = json.loads(r.take(blob_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(r.offset - blob_len,
                          f"{r.path}: config is not valid JSON ({exc})") from exc
    count = r.u32("tensor count")
    tensors = {}
    for _ in range(count):
        name_len = r.u32("name length")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(r.offset - name_len,
                              f"{r.path}: tensor name is not UTF-8") from None
        rank = r.u32("rank")
        if rank > 8:
            raise FormatError(r.offset - 4, f"{r.path}: tensor {name} rank {rank}")
        dims = tuple(r.u32(f"dim") for _ in range(rank))
        tensors[name] = r.f64_array(math.prod(dims),
                                    f"tensor {name}").reshape(dims)
    r.done()
    return config, tensors

"""Bytes that do not depend on the BLAS thread count.

Each run is a fresh interpreter, since the thread count of the
environment is read when NumPy loads BLAS.  With two threads OpenBLAS
splits some products in a different order, so before the pin a small
training run and a level-5 resample wrote different bytes at
``OPENBLAS_NUM_THREADS=1`` and ``=2``.
"""

import json
import os
import subprocess
import sys

import pytest

import sphreg

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sphreg.__file__)))

RUN = """
import hashlib, json, os, sys, tempfile
import numpy as np
import sphreg
from sphreg import icosphere, sht, training

config = training.TrainConfig(epochs=1, batch_size=2)
pairs = training.synth_dataset(4, config, 1)
with tempfile.TemporaryDirectory() as work:
    path = os.path.join(work, "model.sphk")
    training.train(config, pairs[:2], val_dataset=pairs[2:],
                   checkpoint_path=path)
    with open(path, "rb") as handle:
        checkpoint = hashlib.sha256(handle.read()).hexdigest()
rng = np.random.default_rng(3)
mesh = icosphere.generate_icosphere(5)
signal = sht.random_bandlimited(5, 8, 1, rng)
moved = mesh.vertices + 1e-3 * rng.standard_normal(mesh.vertices.shape)
moved /= np.linalg.norm(moved, axis=1, keepdims=True)
values = icosphere.barycentric_resample(signal.values, mesh, moved)
print(json.dumps({"checkpoint": checkpoint,
                  "resample": hashlib.sha256(values.tobytes()).hexdigest(),
                  "blas": sphreg.BLAS}))
"""


def run_with_threads(code: str, threads: int) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_training_and_resample_bytes_ignore_thread_count():
    one, two = (json.loads(run_with_threads(RUN, n)) for n in (1, 2))
    assert one["checkpoint"] == two["checkpoint"]
    assert one["resample"] == two["resample"]
    assert one["blas"] == two["blas"]


@pytest.mark.skipif(sphreg.BLAS["pin"] in ("environment", "none"),
                    reason="NumPy's BLAS is not its bundled OpenBLAS")
def test_pin_holds_when_numpy_is_loaded_first():
    code = ("import ctypes, json, numpy, sphreg\n"
            "lib = ctypes.CDLL(sphreg.BLAS['library'])\n"
            "get = getattr(lib, sphreg.BLAS['pin'].replace('_set_', '_get_'))\n"
            "print(json.dumps([sphreg.BLAS['threads'], get()]))")
    assert json.loads(run_with_threads(code, 2)) == [1, 1]


def test_bundled_openblas_of_numpy_1_and_2_is_found(tmp_path):
    # NumPy 2 wheels bundle libscipy_openblas*, which exports
    # scipy_openblas_set_num_threads64_; NumPy 1 wheels bundle
    # libopenblas64_p-*, which exports openblas_set_num_threads64_
    root = tmp_path / "numpy"
    (root / ".dylibs").mkdir(parents=True)
    (tmp_path / "numpy.libs").mkdir()
    names = ["numpy.libs/libopenblas64_p-r0-0cf96a72.3.23.dev.so",
             "numpy.libs/libscipy_openblas64_-ff651d7f.so",
             "numpy/.dylibs/libopenblas64_.0.dylib",
             "numpy.libs/libgfortran-040039e1.so.5.0.0"]
    for name in names:
        (tmp_path / name).touch()
    found = sphreg._bundled_openblas(str(root))
    assert found == sorted(str(tmp_path / name) for name in names[:3])
    setters = [pair[0] for pair in sphreg._OPENBLAS_SETTERS]
    assert "openblas_set_num_threads64_" in setters

"""Print one JSON fingerprint of sphreg's outputs, to compare two checkouts.

    PYTHONPATH=<checkout>/src OPENBLAS_NUM_THREADS=1 python tools/fingerprint.py

Run it on two checkouts: identical output means a change kept training,
registration and the gradient check bitwise equal.  The object holds

* ``checkpoint`` and ``log``: sha256 of the ``.sphk`` checkpoint and the CSV
  log of ``train(TrainConfig(epochs=2))`` on pairs 0-15 of
  ``synth_dataset(20, TrainConfig(epochs=2), 1)``, validated on pairs 16-19;
* ``field`` and ``warped``: sha256 of the ``.sphd`` and ``.sphs`` files that
  ``register_pair`` gives for pair 17 with the model read back from that
  checkpoint;
* ``grad_crf_off`` and ``grad_crf_on``: the two figures of acceptance check
  07's ``gradient_check``, as ``repr`` strings;
* ``tape_nodes``: the autodiff nodes made by the first training cascade of
  that ``train`` run;
* ``weights``: sha256 of the named arrays (names and bytes, in name order)
  and the history rows of that ``train`` run, so trained weights that stay
  bitwise equal show as such when the checkpoint's config header changes;
* ``graph_off``: the same digest for the same training with
  ``use_graph_module=False``;
* ``align`` and ``align_cc``: sha256 of the field targets that
  ``align_search`` returns for a level-4 signal and its copy under a seeded
  random rotation, and ``repr`` of its CC;
* ``resample``: sha256 of a level-5 signal resampled at its vertices moved
  by about 1e-3, so point location runs above level 3 as well;
* ``resample_down`` and ``resample_up``: sha256 of two-channel signals
  resampled from level 6 at the level-4 vertices, where every target is a
  source vertex and snaps, and from level 4 at the level-6 vertices, where
  the level-4 prefix snaps and the rest interpolates;
* ``cli_resample_6_6``, ``cli_resample_6_4`` and ``cli_resample_4_6``:
  sha256 of the ``.sphs`` files that ``cli.main(["resample", ...])`` writes
  for two-channel signals from level 6 at level 6, from level 6 at level 4
  and from level 4 at level 6, so the command's own path is covered;
* ``cli_train_register``: sha256 of the checkpoint, field and warped files
  that ``cli.main`` writes for ``synth`` -> ``train`` -> ``register`` at
  mesh level 2, bandwidth 8, 4 channels, 2 heads, 1 epoch and batch 1, and
  the sorted ``phases`` keys of the register manifest, so the commands'
  own paths through training and registration are covered;
* ``locate``: sha256 of the faces and unnormalised coordinates that
  ``locate_faces`` returns at level 6 for random targets, the vertices
  jittered by about 1e-9 and the edge midpoints (the level-7 vertices);
* ``zonal``: sha256 of the outputs of ``zonal_convolve`` and the gradients
  of a random weighting of them into its input, ``h`` and ``alpha``, on
  seeded random inputs at the default U-Net's seven block shapes on the
  level-3 mesh, so the convolution's rounding shows apart from training;
* ``zonal_pool``: the same for the two pooling blocks, whose filters have no
  ``alpha`` and run on the wider basis of the block before them: the outputs
  and the gradients into the input and ``h``;
* ``eval``: for the pair-17 field above and for a smooth level-5 field
  built as the benchmark's field-ops set-up builds its ``eval`` field,
  sha256 of ``distortion_report``'s ``J`` and ``R`` and ``repr`` of its
  ``row()``;
* ``bandlimited``: sha256 of ``random_bandlimited`` single-channel signals
  of degree 8 at levels 6 and 7, drawn from one seeded generator;
* ``mesh``: sha256, in a fixed order, of the name, dtype, shape and bytes
  of every table of the icosphere at levels 0-6 (vertices, faces and the
  index tables, ``antipodes`` included), then of ``build_basis(...).Y``,
  the harmonic basis sampled at one vertex per antipodal pair and
  reflected to the other, at (level, degree) (3, 16) and (6, 8).

A second line, on stderr, records the BLAS library, its thread count and
the pin that ``import sphreg`` applied.  It is not part of the
comparison: a checkout without the pin reports none.

The node count wraps ``training.forward_cascade`` and ``Tensor.__init__``
from outside, so the script runs unchanged on checkouts whose forward
signatures differ.  BLAS must run on one thread: the checkpoint bytes
depend on the thread count.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

import sphreg
from sphreg import autodiff as ag
from sphreg import cli, fileio, icosphere, metrics, shconv, sht, training, warp


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _count_first_cascade(counts: list) -> None:
    """Record in ``counts`` the nodes that the first ``forward_cascade``
    call makes; later calls run untouched."""
    cascade = training.forward_cascade
    init = ag.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        counts[-1] += 1
        init(self, *args, **kwargs)

    def first_cascade(*args, **kwargs):
        training.forward_cascade = cascade
        counts.append(0)
        ag.Tensor.__init__ = counting_init
        try:
            return cascade(*args, **kwargs)
        finally:
            ag.Tensor.__init__ = init

    training.forward_cascade = first_cascade


def _distortion(field) -> dict:
    mesh = icosphere.generate_icosphere(field.mesh_level)
    report = metrics.distortion_report(mesh, field)
    return {"J": hashlib.sha256(report.J.tobytes()).hexdigest(),
            "R": hashlib.sha256(report.R.tobytes()).hexdigest(),
            "row": repr(report.row())}


def _smooth_field(level: int, rng) -> "warp.DeformationField":
    """A fold-free field from smooth moves of the level-1 vertices."""
    control = icosphere.generate_icosphere(1).vertices
    shift = sht.random_bandlimited(1, 2, 3, rng).values
    shift *= 0.3 / np.sqrt((shift ** 2).sum(axis=1).mean())
    moves = control + shift
    moves /= np.linalg.norm(moves, axis=1, keepdims=True)
    return warp.DeformationField(level, warp.densify_targets(moves, 1, level))


def _field_ops(out: dict) -> None:
    """Add the ``align``, ``align_cc`` and ``resample*`` entries to ``out``."""
    rng = np.random.default_rng(10)
    mesh = icosphere.generate_icosphere(4)
    fixed = sht.random_bandlimited(4, 8, 1, rng)
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rotation *= np.sign(np.linalg.det(rotation))
    rotated = mesh.vertices @ rotation.T
    rotated /= np.linalg.norm(rotated, axis=1, keepdims=True)
    moving = icosphere.SphericalSignal(4, icosphere.barycentric_resample(
        fixed.values, mesh, rotated))
    field, cc = training.align_search(moving, fixed)
    out["align"] = hashlib.sha256(field.targets.tobytes()).hexdigest()
    out["align_cc"] = repr(float(cc))

    mesh = icosphere.generate_icosphere(5)
    signal = sht.random_bandlimited(5, 8, 1, rng)
    moved = mesh.vertices + 1e-3 * rng.standard_normal(mesh.vertices.shape)
    moved /= np.linalg.norm(moved, axis=1, keepdims=True)
    values = icosphere.barycentric_resample(signal.values, mesh, moved)
    out["resample"] = hashlib.sha256(values.tobytes()).hexdigest()

    for key, src, dst in (("resample_down", 6, 4), ("resample_up", 4, 6)):
        signal = sht.random_bandlimited(src, 8, 2, rng)
        values = icosphere.barycentric_resample(
            signal.values, icosphere.generate_icosphere(src),
            icosphere.generate_icosphere(dst).vertices)
        out[key] = hashlib.sha256(values.tobytes()).hexdigest()


def _cli_resample(out: dict) -> None:
    """Add the ``cli_resample_*`` entries to ``out``."""
    rng = np.random.default_rng(16)
    with tempfile.TemporaryDirectory() as work:
        for src, dst in ((6, 6), (6, 4), (4, 6)):
            source = os.path.join(work, f"in{src}.sphs")
            result = os.path.join(work, "out.sphs")
            fileio.write_signal(source, sht.random_bandlimited(src, 8, 2, rng))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["resample", "--input", source,
                                 "--level", str(dst), "--out", result])
            assert code == 0
            out[f"cli_resample_{src}_{dst}"] = _sha256(result)


def _cli_train_register(out: dict) -> None:
    """Add the ``cli_train_register`` entry to ``out``."""
    tiny = ["--mesh-level", "2", "--bandwidth", "8"]
    with tempfile.TemporaryDirectory() as work:
        data = os.path.join(work, "data")
        checkpoint = os.path.join(work, "model.sphk")
        field = os.path.join(work, "field.sphd")
        warped = os.path.join(work, "warped.sphs")
        pair = os.path.join(data, "pair_0000")
        commands = (
            ["synth", "--n-pairs", "2", "--out-dir", data, *tiny],
            ["train", "--data", data, "--out", checkpoint, *tiny,
             "--channels", "4", "--heads", "2", "--epochs", "1",
             "--batch-size", "1"],
            ["register", "--checkpoint", checkpoint,
             "--moving", pair + ".moving.sphs",
             "--fixed", pair + ".fixed.sphs",
             "--out-field", field, "--out-warped", warped])
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            assert code == 0
        with open(field + ".manifest.json", encoding="utf-8") as handle:
            phases = sorted(json.load(handle)["phases"])
        out["cli_train_register"] = {
            "checkpoint": _sha256(checkpoint), "field": _sha256(field),
            "warped": _sha256(warped), "phases": phases}


def _locate(out: dict) -> None:
    """Add the ``locate`` entry to ``out``."""
    rng = np.random.default_rng(12)
    mesh = icosphere.generate_icosphere(6)
    jittered = mesh.vertices + 1e-9 * rng.standard_normal(mesh.vertices.shape)
    midpoints = (mesh.vertices[mesh.edges[:, 0]]
                 + mesh.vertices[mesh.edges[:, 1]])
    digest = hashlib.sha256()
    for targets in (rng.standard_normal((20000, 3)), jittered, midpoints):
        targets = targets / np.linalg.norm(targets, axis=1, keepdims=True)
        faces, lam = icosphere.locate_faces(mesh, targets)
        digest.update(faces.astype("<i8").tobytes())
        digest.update(lam.tobytes())
    out["locate"] = digest.hexdigest()


# (c_out, c_in, filter bandwidth) of the default U-Net's seven blocks
_UNET_BLOCKS = ((8, 2, 16), (16, 8, 8), (32, 16, 4), (32, 64, 4),
                (16, 48, 8), (8, 24, 16), (7, 8, 16))


def _zonal(out: dict) -> None:
    """Add the ``zonal`` entry to ``out``."""
    rng = np.random.default_rng(13)
    mesh = icosphere.generate_icosphere(3)
    digest = hashlib.sha256()
    for c_out, c_in, L in _UNET_BLOCKS:
        filt = shconv.init_zonal_filter(c_out, c_in, L, rng)
        leaves = [ag.Tensor(rng.standard_normal((mesh.n_vertices, c_in))),
                  ag.Tensor(filt.h), ag.Tensor(filt.alpha)]
        conv = shconv.zonal_convolve(
            leaves[0], shconv.ZonalFilter(h=leaves[1], alpha=leaves[2]),
            sht.build_basis(mesh, L))
        weights = rng.standard_normal((mesh.n_vertices, c_out))
        ag.reduce_sum(ag.mul(conv, weights)).backward()
        for array in [conv.value] + [leaf.grad for leaf in leaves]:
            digest.update(array.tobytes())
    out["zonal"] = digest.hexdigest()


# (c_out, c_in, filter bandwidth, bandwidth of the basis it pools from) of
# the default U-Net's two pooling blocks
_POOLING_BLOCKS = ((16, 8, 8, 16), (32, 16, 4, 8))


def _zonal_pool(out: dict) -> None:
    """Add the ``zonal_pool`` entry to ``out``."""
    rng = np.random.default_rng(14)
    mesh = icosphere.generate_icosphere(3)
    digest = hashlib.sha256()
    for c_out, c_in, L, wide in _POOLING_BLOCKS:
        filt = shconv.init_zonal_filter(c_out, c_in, L, rng)
        leaves = [ag.Tensor(rng.standard_normal((mesh.n_vertices, c_in))),
                  ag.Tensor(filt.h)]
        conv = shconv.zonal_convolve(
            leaves[0], shconv.ZonalFilter(h=leaves[1], alpha=None),
            sht.build_basis(mesh, wide))
        weights = rng.standard_normal((mesh.n_vertices, c_out))
        ag.reduce_sum(ag.mul(conv, weights)).backward()
        for array in [conv.value] + [leaf.grad for leaf in leaves]:
            digest.update(array.tobytes())
    out["zonal_pool"] = digest.hexdigest()


def _bandlimited(out: dict) -> None:
    """Add the ``bandlimited`` entry to ``out``."""
    rng = np.random.default_rng(15)
    digest = hashlib.sha256()
    for level in (6, 7):
        digest.update(sht.random_bandlimited(level, 8, 1, rng).values.tobytes())
    out["bandlimited"] = digest.hexdigest()


_MESH_TABLES = ("vertices", "faces", "edges", "ring_offsets", "ring_dst",
                "ring_src", "incident_faces", "neighbourhood",
                "face_neighbours", "antipodes")


def _mesh(out: dict) -> None:
    """Add the ``mesh`` entry to ``out``."""
    digest = hashlib.sha256()

    def add(name, array):
        digest.update(f"{name} {array.dtype.str} {array.shape}".encode())
        digest.update(array.tobytes())

    for level in range(7):
        mesh = icosphere.generate_icosphere(level)
        for name in _MESH_TABLES:
            add(f"{level}.{name}", getattr(mesh, name))
    for level, L in ((3, 16), (6, 8)):
        add(f"basis.{level}.{L}",
            sht.build_basis(icosphere.generate_icosphere(level), L).Y)
    out["mesh"] = digest.hexdigest()


def _weights(model, history) -> str:
    """sha256 of a trained model's named arrays and its history rows."""
    digest = hashlib.sha256()
    for name, array in sorted(training.named_arrays(model).items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(repr(history).encode())
    return digest.hexdigest()


def _graph_off(pairs) -> str:
    """The ``graph_off`` entry: a 2-epoch training without the graph module."""
    config = training.TrainConfig(epochs=2, use_graph_module=False)
    return _weights(*training.train(config, pairs[:16],
                                    val_dataset=pairs[16:]))


def main() -> int:
    config = training.TrainConfig(epochs=2)
    pairs = training.synth_dataset(20, config, 1)
    out = {}
    with tempfile.TemporaryDirectory() as work:
        checkpoint = os.path.join(work, "model.sphk")
        log = os.path.join(work, "train.csv")
        counts: list = []
        _count_first_cascade(counts)
        out["weights"] = _weights(*training.train(
            config, pairs[:16], val_dataset=pairs[16:], log_path=log,
            checkpoint_path=checkpoint))
        out["checkpoint"] = _sha256(checkpoint)
        out["log"] = _sha256(log)
        out["tape_nodes"] = counts[0]

        loaded_config, model = training.load_checkpoint(checkpoint)
        pair = pairs[17]
        field, warped, _ = training.register_pair(model, loaded_config,
                                                  pair.moving, pair.fixed)
        field_path = os.path.join(work, "field.sphd")
        warped_path = os.path.join(work, "warped.sphs")
        fileio.write_field(field_path, field)
        fileio.write_signal(warped_path, warped)
        out["field"] = _sha256(field_path)
        out["warped"] = _sha256(warped_path)
    out["graph_off"] = _graph_off(pairs)
    out["eval"] = {"pair17": _distortion(field),
                   "smooth_l5": _distortion(
                       _smooth_field(5, np.random.default_rng(11)))}

    # acceptance check 07, with its config, pair and samplers
    check = training.TrainConfig(mesh_level=2, bandwidth=8, channels=4,
                                 heads=2, epochs=1, batch_size=1)
    pair = training.synth_dataset(1, check, seed=7)[0]
    out["grad_crf_off"] = repr(float(training.gradient_check(
        dataclasses.replace(check, use_crf=False), pair,
        rng=np.random.default_rng(70))))
    out["grad_crf_on"] = repr(float(training.gradient_check(
        check, pair, rng=np.random.default_rng(71))))
    _field_ops(out)
    _cli_resample(out)
    _cli_train_register(out)
    _locate(out)
    _zonal(out)
    _zonal_pool(out)
    _bandlimited(out)
    _mesh(out)
    print(json.dumps(out, sort_keys=True))
    print(json.dumps({"blas": getattr(sphreg, "BLAS", None)}), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

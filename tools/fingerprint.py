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
  that ``train`` run.

The node count wraps ``training.forward_cascade`` and ``Tensor.__init__``
from outside, so the script runs unchanged on checkouts whose forward
signatures differ.  BLAS must run on one thread: the checkpoint bytes
depend on the thread count.
"""

import dataclasses
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from sphreg import autodiff as ag
from sphreg import fileio, training


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


def main() -> int:
    config = training.TrainConfig(epochs=2)
    pairs = training.synth_dataset(20, config, 1)
    out = {}
    with tempfile.TemporaryDirectory() as work:
        checkpoint = os.path.join(work, "model.sphk")
        log = os.path.join(work, "train.csv")
        counts: list = []
        _count_first_cascade(counts)
        training.train(config, pairs[:16], val_dataset=pairs[16:],
                       log_path=log, checkpoint_path=checkpoint)
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

    # acceptance check 07, with its config, pair and samplers
    check = training.TrainConfig(mesh_level=2, bandwidth=8, channels=4,
                                 heads=2, epochs=1, batch_size=1)
    pair = training.synth_dataset(1, check, seed=7)[0]
    out["grad_crf_off"] = repr(float(training.gradient_check(
        dataclasses.replace(check, use_crf=False), pair,
        rng=np.random.default_rng(70))))
    out["grad_crf_on"] = repr(float(training.gradient_check(
        check, pair, rng=np.random.default_rng(71))))
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print sphreg's multi-seed quality table: desk trainings at five seed rows.

    PYTHONPATH=<checkout>/src OPENBLAS_NUM_THREADS=1 python tools/quality.py

(The five rows take about 25 minutes on one core of a 2-vCPU machine.)

Acceptance checks 08 and 09 train at one seed.  This script repeats their
three desk-scale runs at each data/init seed row (0/0, 1/1, 2/2, 0/1 and
0/2; a row ``d/i`` draws ``synth_dataset(80, config, d)`` and trains
from ``TrainConfig(seed=i)``):

* ``cascaded``: the default ``TrainConfig``;
* ``independent``: ``cascade_mode="independent"``;
* ``graph-off``: ``use_graph_module=False``.

Each run trains on pairs 0-63 and registers the 16 held-out pairs 64-79 with
``register_pair``.  One table row per run gives the held-out means of the
pre-registration CC, the CC after registration and their difference, the
mean of the per-field mean |log2 J|, the share of fold-free fields, the
largest per-field max |log2 J|, the mean per-field p98 of |log2 J| (the
figures checks 08 and 09 read), the run's wall time, and per stage the
share of control points whose chosen label is the identity move.  Rows are
printed as each run ends; the last lines give, per setting, the mean CC and
gain over the rows.  Only public functions of ``sphreg`` are used, so the
script runs unchanged on older checkouts.
"""

import dataclasses
import inspect
import sys
import time

import numpy as np

import sphreg  # noqa: F401  (pins BLAS to one thread)
from sphreg.icosphere import generate_icosphere
from sphreg.metrics import distortion_report, pearson_cc
from sphreg.training import (TrainConfig, build_grids, register_pair,
                             synth_dataset, train)

TRAIN_N = 64
HELD_OUT = 16
ROWS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2))
SETTINGS = {
    "cascaded": {},
    "independent": {"cascade_mode": "independent"},
    "graph-off": {"use_graph_module": False},
}
COLUMNS = ("seeds", "setting", "pre-CC", "CC", "gain", "mean abs(log2J)",
           "fold-free", "max abs(log2J)", "p98", "s", "id-share 1",
           "id-share 2")


def identity_share(Q, grid) -> float:
    """Share of controls whose most probable label is the identity move
    (slot 0, or a padding slot that repeats it)."""
    rows = np.arange(grid.n_controls)
    chosen = grid.labels[rows, np.argmax(Q.value, axis=1)]
    return float(np.mean(chosen == rows))


def run(config: TrainConfig, pairs) -> dict:
    """Train on the first TRAIN_N pairs and score the held-out tail."""
    mesh = generate_icosphere(config.mesh_level)
    # build_grids took the config until the control levels became constants
    grids = (build_grids(config) if inspect.signature(build_grids).parameters
             else build_grids())
    start = time.perf_counter()
    model, _ = train(config, pairs[:TRAIN_N], val_dataset=pairs[TRAIN_N:])
    pre, ccs, means, maxes, p98s, shares = [], [], [], [], [], []
    clean = 0
    for pair in pairs[TRAIN_N:]:
        field, warped, result = register_pair(model, config, pair.moving,
                                              pair.fixed)
        pre.append(float(pearson_cc(pair.moving.values, pair.fixed.values)))
        ccs.append(float(pearson_cc(pair.fixed.values, warped.values)))
        report = distortion_report(mesh, field)
        means.append(report.log2J["mean"])
        maxes.append(report.log2J["max"])
        p98s.append(report.log2J["p98"])
        clean += int(report.fold_count == 0)
        shares.append([identity_share(Q, grid) for Q, grid in
                       zip((result.Q1, result.Q2), grids) if Q is not None])
    seconds = time.perf_counter() - start
    share = np.mean(shares, axis=0)
    return {"pre-CC": np.mean(pre), "CC": np.mean(ccs),
            "gain": np.mean(ccs) - np.mean(pre),
            "mean abs(log2J)": np.mean(means), "fold-free": clean / HELD_OUT,
            "max abs(log2J)": np.max(maxes), "p98": np.mean(p98s),
            "s": seconds, "id-share 1": share[0],
            "id-share 2": share[1] if len(share) > 1 else float("nan")}


FORMATS = {"pre-CC": ".4f", "CC": ".4f", "gain": "+.4f",
           "mean abs(log2J)": ".3f", "fold-free": ".0%",
           "max abs(log2J)": ".3f", "p98": ".3f", "s": ".0f",
           "id-share 1": ".3f", "id-share 2": ".3f"}


def main() -> int:
    print("| " + " | ".join(COLUMNS) + " |")
    print("|" + " --- |" * len(COLUMNS))
    results = {name: [] for name in SETTINGS}
    for data_seed, init_seed in ROWS:
        base = TrainConfig(seed=init_seed)
        pairs = synth_dataset(TRAIN_N + HELD_OUT, base, seed=data_seed)
        for name, overrides in SETTINGS.items():
            figures = run(dataclasses.replace(base, **overrides), pairs)
            results[name].append(figures)
            cells = [format(float(figures[key]), FORMATS[key])
                     for key in COLUMNS[2:]]
            print("| " + " | ".join([f"{data_seed}/{init_seed}", name]
                                    + cells) + " |", flush=True)
    for name, runs in results.items():
        print(f"{name}: mean CC {np.mean([r['CC'] for r in runs]):.4f}, "
              f"mean gain {np.mean([r['gain'] for r in runs]):+.4f} "
              f"over {len(runs)} rows", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

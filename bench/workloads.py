"""The benchmark's three closed-loop workloads, one client each.

* ``train-desk`` calls ``training.train()`` at the default ``TrainConfig``
  (fewer epochs) on seeded synthetic pairs with a held-out validation set:
  the only workload with a backward pass, so the tape, Adam and the soft
  path of ``warp_values`` run here.
* ``register-l3`` calls ``training.register_pair()`` back to back on
  held-out pairs with a model trained by a short fixed schedule in set-up:
  the same forward layers as ``train-desk`` as plain NumPy on the hard
  path, plus ``build_grids`` (rebuilt per call) and ``compose``.
* ``field-ops`` calls ``sphreg.cli.main`` in process for ``resample``,
  ``eval`` and ``align`` on files set-up writes at mesh levels 4 to 6:
  point location, ``distortion_report`` and ``fileio``, with no U-Net and
  no tape.  One level-6 call is large; ``align`` makes 512 tiny ones.

Every workload builds its inputs from the seed alone, checks every output,
and counts an exception or a failed check as a failed operation.

Every workload reports the same end-to-end metrics (``END_TO_END``), each
read in the workload's own unit of work: ``op_ms`` is the time of one
operation and ``quality_cc`` a Pearson CC that the program's output
reaches.  The workload-specific figures behind them (``train_pairs_per_s``,
``register_ms_p90``, ``resample_l6_s`` and so on) are reported as detail.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from sphreg import cli, fileio, icosphere, sht, training, warp

from tracer import Tracer

# Each run sets up from cold caches at least this many times and for at
# least this long; setup_s is the median.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 2.0

clock = time.perf_counter


@dataclass
class Record:
    """One timed operation of the loop."""

    kind: str
    seconds: float
    ok: bool
    value: float | None = None


def clear_program_caches() -> None:
    """Empty the package's in-process caches (module-level dicts whose names
    end in ``_cache`` and functools caches), so each set-up starts cold."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "sphreg" or name.startswith("sphreg.")):
            continue
        for attr, value in vars(module).items():
            if attr.endswith("_cache") and isinstance(value, dict):
                value.clear()
            elif callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _report_exception(kind: str) -> None:
    print(f"{kind} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _all_finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a))) for a in arrays)


def _pearson(a, b) -> float:
    """Pearson CC for output checks; not ``metrics.pearson_cc``, so checks
    add no spans to a trace."""
    a = np.ravel(a) - np.mean(a)
    b = np.ravel(b) - np.mean(b)
    return float(a @ b / np.sqrt((a @ a) * (b @ b)))


def synth_pairs(config, seed: int, templates: int, per_template: int) -> list:
    """Synthetic pairs from several templates, round robin, so any slice of
    ``templates`` consecutive pairs holds one pair of each.

    ``synth_dataset`` draws one shared template (a subject's anatomy) per
    seed, and CC after a short training run tracks that template more than
    the model; averaging over templates steadies the quality metrics from
    seed to seed."""
    groups = [training.synth_dataset(per_template, config,
                                     seed=seed * 1000 + k)
              for k in range(templates)]
    return [pair for row in zip(*groups) for pair in row]


def _median(records, kind):
    """Median time of the kind's passed operations, or of all of them when
    none passed."""
    times = [r.seconds for r in records if r.kind == kind and r.ok] or \
        [r.seconds for r in records if r.kind == kind]
    return statistics.median(times)


class Workload:
    """Set-up plus a loop of operations selected by their index."""

    pairs_per_op = 1

    def complete(self, n_ops: int) -> bool:
        """Whether ``n_ops`` operations make whole cycles of the loop."""
        return True


class TrainDesk(Workload):
    name = "train-desk"

    def __init__(self, seed: int, smoke: bool, work_dir: str):
        self.seed = seed
        # 16 templates: 1 training pair and 1 validation pair each
        self.templates, self.n_train, self.n_val, self.epochs = \
            (2, 8, 2, 1) if smoke else (16, 16, 16, 2)
        self.min_ops = 1 if smoke else 4
        self.pairs_per_op = self.n_train * self.epochs
        self.reference = None

    def setup(self) -> None:
        self.config = training.TrainConfig(epochs=self.epochs)
        pairs = synth_pairs(self.config, self.seed, self.templates,
                            (self.n_train + self.n_val) // self.templates)
        self.train_pairs = pairs[:self.n_train]
        self.val_pairs = pairs[self.n_train:]

    def run_op(self, index: int) -> Record:
        start = clock()
        try:
            model, history = training.train(self.config, self.train_pairs,
                                            val_dataset=self.val_pairs)
        except Exception:
            _report_exception("train")
            return Record("train", clock() - start, False)
        seconds = clock() - start
        rows = [[row[k] for k in ("loss", "loss_sim", "loss_reg", "cc_val")]
                for row in history]
        params = training.named_arrays(model)
        ok = _all_finite(rows, *params.values())
        # same inputs every call: the outputs must repeat bit for bit
        if self.reference is None:
            self.reference = (rows, params)
        else:
            ref_rows, ref_params = self.reference
            ok = ok and rows == ref_rows and all(
                np.array_equal(params[k], ref_params[k]) for k in ref_params)
        return Record("train", seconds, ok, rows[-1][3])

    def metrics(self, records: list[Record]) -> dict:
        good = [r for r in records if r.ok] or records
        pairs_per_s = statistics.median(self.pairs_per_op / r.seconds
                                        for r in good)
        cc_val = good[0].value if good[0].ok else 0.0
        return {
            # one operation is one trained pair, validation included
            "op_ms": 1e3 / pairs_per_s,
            "quality_cc": cc_val,
            "train_pairs_per_s": pairs_per_s,
            "train_cc_val": cc_val,
        }


class RegisterL3(Workload):
    name = "register-l3"

    def __init__(self, seed: int, smoke: bool, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        # 24 templates of 2 pairs: 8 training pairs, then 40 held out
        self.templates, self.n_train, self.n_val, self.n_held_out = \
            (2, 8, 2, 2) if smoke else (24, 8, 4, 40)
        self.min_ops = 10 if smoke else 100
        self.reference: dict[int, np.ndarray] = {}

    def setup(self) -> None:
        config = training.TrainConfig(epochs=1)
        pairs = synth_pairs(config, self.seed, self.templates,
                            (self.n_train + self.n_held_out) // self.templates)
        self.held_out = pairs[self.n_train:]
        model, _ = training.train(config, pairs[:self.n_train],
                                  val_dataset=self.held_out[:self.n_val])
        path = os.path.join(self.work_dir, "model.sphk")
        training.save_checkpoint(path, config, model)
        self.config, self.model = training.load_checkpoint(path)

    def run_op(self, index: int) -> Record:
        slot = index % len(self.held_out)
        pair = self.held_out[slot]
        start = clock()
        try:
            field, warped, _ = training.register_pair(
                self.model, self.config, pair.moving, pair.fixed)
        except Exception:
            _report_exception("register_pair")
            return Record("register", clock() - start, False)
        seconds = clock() - start
        targets = field.targets
        ok = (_all_finite(targets, warped.values)
              and bool(np.all(np.abs(np.linalg.norm(targets, axis=1) - 1.0)
                              <= 1e-9)))
        # a pair registered again must give the same field bit for bit
        reference = self.reference.setdefault(slot, targets)
        ok = ok and np.array_equal(targets, reference)
        cc = _pearson(pair.fixed.values, warped.values) if ok else None
        return Record("register", seconds, ok, cc)

    def complete(self, n_ops: int) -> bool:
        return n_ops % len(self.held_out) == 0

    def metrics(self, records: list[Record]) -> dict:
        times = [r.seconds * 1e3 for r in records if r.ok] or \
            [r.seconds * 1e3 for r in records]
        first = {}
        for index, record in enumerate(records):
            if record.ok:
                first.setdefault(index % len(self.held_out), record.value)
        # p50 is a median of means over passes through the held-out pairs:
        # the machine this was tuned on flips between a fast and a slow
        # speed, and a per-call median jumps between the two modes
        n = len(self.held_out)
        passes = [statistics.fmean(r.seconds * 1e3 for r in records[i:i + n])
                  for i in range(0, len(records), n)]
        p50 = statistics.median(passes)
        cc_mean = statistics.fmean(first.values()) if first else 0.0
        return {
            # one operation is one register_pair call
            "op_ms": p50,
            "quality_cc": cc_mean,
            "register_ms_p50": p50,
            "register_ms_p90": (statistics.quantiles(times, n=10)[8]
                                if len(times) >= 2 else times[0]),
            "register_cc_mean": cc_mean,
        }


class FieldOps(Workload):
    name = "field-ops"
    kinds = ("resample_l5", "resample_l6", "eval_l5", "align")
    signal_degree = 8

    def __init__(self, seed: int, smoke: bool, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        if smoke:
            self.align_level, self.eval_level, self.large_level = 2, 3, 4
            align_flags = ["--axes", "4", "--angles", "4"]
            cycles = 1
        else:
            self.align_level, self.eval_level, self.large_level = 4, 5, 6
            align_flags = []
            cycles = 2
        self.cycle = self._cycle(align_flags)
        self.min_ops = cycles * len(self.cycle)

    def _path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed])
        degree = self.signal_degree
        levels = sorted({self.align_level, self.eval_level, self.large_level})
        for level in levels:
            fileio.write_signal(self._path(f"fixed{level}.sphs"),
                                sht.random_bandlimited(level, degree, 1, rng))
        # eval: the fixed image against itself under a smooth fold-free
        # field, so its CC measures the warp alone
        level = self.eval_level
        control = icosphere.generate_icosphere(1).vertices
        shift = sht.random_bandlimited(1, 2, 3, rng).values
        shift *= 0.3 / np.sqrt((shift ** 2).sum(axis=1).mean())
        moves = control + shift
        moves /= np.linalg.norm(moves, axis=1, keepdims=True)
        field = warp.DeformationField(
            level, warp.densify_targets(moves, 1, level))
        fileio.write_field(self._path(f"field{level}.sphd"), field)
        # align: the fixed image under a random rotation
        level = self.align_level
        mesh = icosphere.generate_icosphere(level)
        rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotation *= np.sign(np.linalg.det(rotation))
        fixed = fileio.read_signal(self._path(f"fixed{level}.sphs"))
        rotated = mesh.vertices @ rotation.T
        rotated /= np.linalg.norm(rotated, axis=1, keepdims=True)
        moving = icosphere.barycentric_resample(fixed.values, mesh, rotated)
        fileio.write_signal(self._path(f"moving{level}.sphs"),
                            icosphere.SphericalSignal(level, moving))

    def _cycle(self, align_flags):
        """The large resample once, then four rounds of resample, eval and
        two aligns: the large call takes about as long as the small ones,
        and align, the shortest call, gets more samples."""
        large, small, level = self.large_level, self.eval_level, self.align_level
        resample_large = ("resample_l6", ["resample", "--input",
                          self._path(f"fixed{large}.sphs"), "--level",
                          str(large), "--out", self._path("out_large.sphs")])
        resample_small = ("resample_l5", ["resample", "--input",
                          self._path(f"fixed{small}.sphs"), "--level",
                          str(small), "--out", self._path("out_small.sphs")])
        evaluate = ("eval_l5", ["eval", "--field",
                    self._path(f"field{small}.sphd"), "--moving",
                    self._path(f"fixed{small}.sphs"), "--fixed",
                    self._path(f"fixed{small}.sphs"), "--out-csv",
                    self._path("eval.csv")])
        align = ("align", ["align", "--moving",
                 self._path(f"moving{level}.sphs"), "--fixed",
                 self._path(f"fixed{level}.sphs"), "--out-field",
                 self._path("align.sphd")] + align_flags)
        return (resample_large,) + (resample_small, evaluate, align, align) * 4

    def complete(self, n_ops: int) -> bool:
        return n_ops % len(self.cycle) == 0

    def run_op(self, index: int) -> Record:
        kind, argv = self.cycle[index % len(self.cycle)]
        stdout = io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            _report_exception(argv[0])
            code = None
        seconds = clock() - start
        ok = code == 0
        value = None
        if ok and kind.startswith("resample"):
            # a same-level resample returns its input bitwise
            with open(argv[2], "rb") as source, open(argv[6], "rb") as out:
                ok = source.read() == out.read()
        elif ok and kind == "eval_l5":
            with open(argv[-1], encoding="utf-8") as csv:
                header, row = csv.read().split()
            value = float(row.split(",")[header.split(",").index("cc")])
        elif ok:
            value = float(stdout.getvalue().split("cc_aligned=")[1].split()[0])
        ok = ok and (value is None or bool(np.isfinite(value)))
        return Record(kind, seconds, ok, value)

    def metrics(self, records: list[Record]) -> dict:
        medians = {kind: _median(records, kind) for kind in self.kinds}
        values = {kind: [r.value for r in records if r.kind == kind and r.ok]
                  for kind in ("eval_l5", "align")}
        eval_cc = values["eval_l5"][0] if values["eval_l5"] else 0.0
        return {
            # one operation is one CLI call, each kind weighted alike: the
            # geometric mean of the kinds' median call times
            "op_ms": 1e3 * statistics.geometric_mean(medians.values()),
            "quality_cc": eval_cc,
            **{f"{kind}_s": value for kind, value in medians.items()},
            "eval_cc": eval_cc,
            "align_cc": values["align"][0] if values["align"] else 0.0,
        }


WORKLOADS = {w.name: w for w in (TrainDesk, RegisterL3, FieldOps)}

# The end-to-end metrics every workload reports, with their units.
END_TO_END = {"setup_s": "s", "op_ms": "ms", "quality_cc": "cc",
              "peak_rss_mb": "MB", "ok_share": "share"}


def _loop(workload, seconds: float, min_ops: int) -> list[Record]:
    """Closed loop: run ops back to back until ``seconds`` have passed, at
    least ``min_ops`` ran and the ops form whole cycles."""
    records = []
    start = clock()
    while not (len(records) >= min_ops and workload.complete(len(records))
               and clock() - start >= seconds):
        records.append(workload.run_op(len(records)))
    return records


def _traced_replay(workload, untraced: list[Record], trace_path,
                   header: dict | None) -> tuple[dict, list[Record]]:
    """Set up again from cold caches and replay the untraced loop's ops
    with the tracer installed; returns the per-layer metrics and records."""
    tracer = Tracer()
    with tracer:
        clear_program_caches()
        before_setup = tracer.mark()
        workload.setup()
        before_loop = tracer.mark()
        traced = [workload.run_op(i) for i in range(len(untraced))]
        after_loop = tracer.mark()
    metrics = tracer.summary(
        (before_setup, before_loop), (before_loop, after_loop),
        loop_wall=sum(r.seconds for r in traced),
        untraced_wall=sum(r.seconds for r in untraced),
        ops=len(traced), pairs=len(traced) * workload.pairs_per_op)
    if trace_path is not None:
        tracer.dump(trace_path, {**(header or {}), "metrics": metrics})
    return metrics, traced


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        work_dir: str, trace_path=None,
        header: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns the result object the benchmark prints
    and the workload's detail figures from its untraced loop."""
    workload = WORKLOADS[name](seed, smoke, work_dir)
    setup_times = []
    repeats, min_seconds = (1, 0.0) if trace else (SETUP_REPEATS,
                                                    SETUP_MIN_SECONDS)
    while len(setup_times) < repeats or sum(setup_times) < min_seconds:
        clear_program_caches()
        start = clock()
        workload.setup()
        setup_times.append(clock() - start)
    # a traced run times its loop twice, so it skips the minimum op count
    records = _loop(workload, seconds, 1 if trace else workload.min_ops)
    detail = workload.metrics(records)
    op_ms, quality_cc = detail.pop("op_ms"), detail.pop("quality_cc")

    if trace:
        metrics, traced = _traced_replay(workload, records, trace_path, header)
        records += traced
    failed = sum(not r.ok for r in records)
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_ms": op_ms,
            "quality_cc": quality_cc,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": 1.0 - failed / len(records),
        }
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {key: {"value": value,
                          "unit": END_TO_END.get(key) or per_layer_unit(key)}
                    for key, value in metrics.items()},
    }
    return result, detail


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    suffix = name.rsplit(".", 1)[-1]
    return {"calls": "count", "total_ms": "ms", "self_ms": "ms",
            "bytes": "B", "targets_per_s": "targets/s",
            "nodes_per_pair": "nodes/pair", "ops": "count",
            "unattributed_share": "share", "overhead_share": "share"}[suffix]

"""Tests of the benchmark itself: smoke runs of every workload, traced and
untraced, and the tracer's promise to leave outputs bitwise unchanged.

    python3 -m pytest -q bench/test_bench.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

from sphreg import cli, crf, discrete_reg, icosphere, shconv, training, warp  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = ("train-desk", "register-l3", "field-ops")
# each workload's figures behind op_ms and quality_cc, on the detail line
DETAIL = {
    "train-desk": {"train_pairs_per_s", "train_cc_val"},
    "register-l3": {"register_ms_p50", "register_ms_p90", "register_cc_mean"},
    "field-ops": {"resample_l5_s", "resample_l6_s", "eval_l5_s", "align_s",
                  "eval_cc", "align_cc"},
}


def _run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                      "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert lines[-2].startswith("detail ")
    assert set(json.loads(lines[-2][len("detail "):])) == DETAIL[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    if trace:
        expected = {m["name"] for m in SPEC["per_layer"]}
    else:
        expected = {m["name"] for m in SPEC["end_to_end"]}
    assert set(metrics) == expected
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, metric in metrics.items():
        assert metric["unit"] == units[name]
        assert np.isfinite(metric["value"])


def test_benchmark_json_names_the_workloads():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS
    assert [m["name"] for m in SPEC["end_to_end"]] == list(workloads.END_TO_END)
    for metric in SPEC["end_to_end"]:
        assert metric["unit"] == workloads.END_TO_END[metric["name"]]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_bench("--workload", "register-l3", "--seed", "1", "--seconds",
                      "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_patches_every_binding_and_restores_them():
    originals = (training.crf_refine, discrete_reg.shconv_block,
                 warp.locate_faces, cli.barycentric_resample,
                 training.Adam.step)
    with tracer.Tracer() as t:
        assert training.crf_refine is crf.crf_refine is not originals[0]
        assert discrete_reg.shconv_block is shconv.shconv_block
        assert discrete_reg.shconv_block is not originals[1]
        assert warp.locate_faces is icosphere.locate_faces is not originals[2]
        assert cli.barycentric_resample is not originals[3]
        assert training.Adam.step is not originals[4]
        assert t.absent == []
    assert (training.crf_refine, discrete_reg.shconv_block, warp.locate_faces,
            cli.barycentric_resample, training.Adam.step) == originals


def test_missing_layer_is_absent_not_zero(monkeypatch, capsys):
    monkeypatch.setattr(tracer, "LAYERS",
                        tracer.LAYERS + (("warp", "no_such_function"),))
    t = tracer.Tracer()
    with t:
        mark = t.mark()
    assert t.absent == ["warp.no_such_function"]
    assert "warp.no_such_function" in capsys.readouterr().err
    metrics = t.summary((mark, mark), (mark, mark), loop_wall=1.0,
                        untraced_wall=1.0, ops=1, pairs=1)
    assert not any(k.startswith("warp.no_such_function") for k in metrics)
    assert metrics["warp.compose.calls"] == 0


def _train_and_register():
    config = training.TrainConfig(epochs=1)
    pairs = training.synth_dataset(10, config, seed=5)
    model, history = training.train(config, pairs[:8], val_dataset=pairs[8:])
    field, warped, _ = training.register_pair(model, config, pairs[9].moving,
                                              pairs[9].fixed)
    return training.named_arrays(model), history, field.targets, warped.values


def test_tracer_leaves_outputs_bitwise_unchanged():
    params, history, targets, warped = _train_and_register()
    t = tracer.Tracer()
    with t:
        traced = _train_and_register()
    assert len(t.spans) > 1000 and t.tensors > 0
    assert traced[1] == history
    assert traced[0].keys() == params.keys()
    for name, value in params.items():
        assert traced[0][name].tobytes() == value.tobytes(), name
    assert traced[2].tobytes() == targets.tobytes()
    assert traced[3].tobytes() == warped.tobytes()

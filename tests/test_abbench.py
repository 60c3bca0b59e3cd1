"""The A/B harness's verdicts follow the rule a claimed gain must meet."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "abbench.py"
_SPEC = importlib.util.spec_from_file_location("abbench", _PATH)
abbench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(abbench)

LOWER = {"name": "op_ms", "unit": "ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "quality_cc", "unit": "cc", "better": "higher",
          "bound": 0.1}


def runs(parent, change, name):
    return [{side: {"result": {"metrics": {name: {"value": value}}}}
             for side, value in (("parent", p), ("change", c))}
            for p, c in zip(parent, change)]


@pytest.mark.parametrize("spec,parent,change,wins,verdict", [
    # 10 of 10 wins and a gap far above the parent's IQR
    (LOWER, [10.0, 10.2, 9.9, 10.1] * 2 + [10.0, 10.1],
     [8.0, 8.1, 7.9, 8.2] * 2 + [8.0, 8.1], 10, "better"),
    # 9 of 10 wins, but a gap below the parent's IQR
    (LOWER, [10.0, 11.0, 12.0, 13.0] * 2 + [10.0, 13.0],
     [9.9, 10.9, 11.9, 12.9] * 2 + [9.9, 13.1], 9, "same"),
    # the parent's runs spread wider than the 25% bound
    (LOWER, [10.0, 20.0, 10.0, 20.0], [9.0, 18.0, 9.0, 18.0], 4,
     "unresolved"),
    # ... unless every change run reads better than every parent run
    (LOWER, [10.0, 20.0, 10.0, 20.0], [3.0, 4.0, 3.0, 4.0], 4, "better"),
    # 50% slower against a 25% bound
    (LOWER, [10.0, 10.1, 10.0, 10.1], [15.0, 15.1, 15.0, 15.1], 0, "worse"),
    # higher is better: a 20% drop against a 10% bound
    (HIGHER, [0.80, 0.81, 0.80, 0.81], [0.64, 0.65, 0.64, 0.65], 0, "worse"),
    (HIGHER, [0.80, 0.81, 0.80, 0.81], [0.90, 0.91, 0.90, 0.91], 4, "better"),
])
def test_verdicts(spec, parent, change, wins, verdict):
    out = abbench.compare(runs(parent, change, spec["name"]), [spec])
    metric = out[spec["name"]]
    assert metric["wins"] == wins
    assert metric["verdict"] == verdict
    assert metric["parent"]["runs"] == parent
    assert metric["parent"]["iqr"] == metric["parent"]["q3"] - \
        metric["parent"]["q1"]


def test_ties_count_for_neither_side():
    out = abbench.compare(runs([10.0, 10.1, 10.2], [10.0, 10.1, 10.2],
                               "op_ms"), [LOWER])
    assert out["op_ms"]["wins"] == 0
    assert out["op_ms"]["verdict"] == "same"

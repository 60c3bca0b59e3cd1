"""A/B benchmark of a parent revision against the working tree.

    python3 tools/abbench.py PARENT_REV [--pairs N] [--workload W ...]
                             [--seed S0] [--out FILE]

Run from the repository root.  The script extracts ``git archive`` copies
of PARENT_REV and of the working tree (``git stash create``: tracked files
with their staged and unstaged edits; untracked files are left out, so
stage new ones first) into a temporary directory, then runs
``bench/run.py --trace 0`` in each copy for ``BENCHMARK.json``'s
``run_seconds``, pair by pair, for every workload.
Pair k runs seed S0 + k on both sides, and the side that runs first
alternates from pair to pair, so a drift in machine speed falls on both
sides alike.

For every end-to-end metric of ``BENCHMARK.json`` it writes each side's
median, quartiles and IQR, the change's wins (pairs in which the change
read better) and a verdict to FILE (default ``BENCH.json``), together with
every run's ``env`` line and result.  ``BENCHMARK.json`` is only read.  The
verdicts follow the rule a claimed gain must meet:

* ``better``: the change wins in at least 9 of 10 pairs and its median is
  better than the parent's by more than the parent's IQR;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound (relative to the parent's median);
* ``unresolved``: the parent's own IQR exceeds the bound, so the runs
  spread too widely to judge, unless every run of the change reads better
  than every run of the parent;
* ``same`` otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _extract(tree: str, into: Path) -> None:
    """``git archive`` of ``tree`` unpacked into ``into``."""
    into.mkdir()
    archive = subprocess.run(["git", "archive", tree], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``bench/run.py`` run: its env line and its result."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line[len("env "):]) for line in lines
               if line.startswith("env "))
    return {"env": env, "result": json.loads(lines[-1])}


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": values}


def _verdict(spec: dict, parent: dict, change: dict, wins: int,
             pairs: int) -> str:
    sign = 1.0 if spec["better"] == "lower" else -1.0
    scale = abs(parent["median"]) or 1.0
    gain = sign * (parent["median"] - change["median"])
    apart = min(sign * p for p in parent["runs"]) > \
        max(sign * c for c in change["runs"])
    if parent["iqr"] / scale > spec["bound"] and not apart:
        return "unresolved"
    if -gain / scale > spec["bound"]:
        return "worse"
    if wins >= 0.9 * pairs and gain > parent["iqr"]:
        return "better"
    return "same"


def compare(runs: list, specs: list) -> dict:
    """Per end-to-end metric: both sides' summaries, wins and verdict."""
    out = {}
    for spec in specs:
        name = spec["name"]
        values = {side: [run[side]["result"]["metrics"][name]["value"]
                         for run in runs] for side in SIDES}
        sign = 1.0 if spec["better"] == "lower" else -1.0
        wins = sum(sign * (p - c) > 0
                   for p, c in zip(values["parent"], values["change"]))
        parent, change = (_summary(values[side]) for side in SIDES)
        out[name] = {"unit": spec["unit"], "bound": spec["bound"],
                     "parent": parent, "change": change, "wins": wins,
                     "verdict": _verdict(spec, parent, change, wins,
                                         len(runs))}
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", metavar="PARENT_REV")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default every workload")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair")
    parser.add_argument("--out", default="BENCH.json")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    trees = {"parent": _git("rev-parse", "--verify", args.parent),
             "change": _git("stash", "create") or _git("rev-parse", "HEAD")}
    seconds = bench["run_seconds"]
    report = {"parent_rev": trees["parent"], "change_tree": trees["change"],
              "pairs": args.pairs, "seconds": seconds, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="abbench-") as work:
        checkouts = {side: Path(work) / side for side in SIDES}
        for side in SIDES:
            _extract(trees[side], checkouts[side])
        for workload in args.workload or names:
            runs = []
            for k in range(args.pairs):
                seed, run = args.seed + k, {}
                for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                    run[side] = _run(checkouts[side], workload, seed, seconds)
                runs.append({"seed": seed, "first": SIDES[k % 2], **run})
            metrics = compare(runs, bench["end_to_end"])
            report["workloads"][workload] = {"metrics": metrics, "runs": runs}
            for name, m in metrics.items():
                print(f"{workload:12s} {name:12s} "
                      f"{m['parent']['median']:10.4g} -> "
                      f"{m['change']['median']:10.4g} {m['unit']:6s} "
                      f"parent IQR {m['parent']['iqr']:8.3g}  "
                      f"wins {m['wins']}/{args.pairs}  {m['verdict']}",
                      flush=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

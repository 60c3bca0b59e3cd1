"""sphreg benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/`` directory; nothing is installed or built.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: end-to-end metrics with ``--trace 0``, per-layer
metrics from a separately traced replay of the same work with ``--trace 1``.
The two lines before it record the run's environment and the workload's
own figures behind the end-to-end metrics.  ``--smoke`` runs every
workload at tiny sizes, for the benchmark's own tests.

BLAS is pinned to one thread before NumPy is imported: training results
(checkpoint bytes) depend on the BLAS thread count.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
WORKLOAD_NAMES = ("train-desk", "register-l3", "field-ops")


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_sha": git_sha(ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="non-negative workload seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "sphreg" / "__init__.py").is_file():
        print(f"error: no sphreg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    env = environment(args)
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    trace_path = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    try:
        result, detail = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.smoke, run_dir, trace_path=trace_path if args.trace else None,
            header=env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("env " + json.dumps(env))
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

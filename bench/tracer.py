"""Per-layer timing of sphreg from outside the package.

The tracer replaces each function named in ``LAYERS`` with a wrapper that
records a span (name, parent span, start, end) and calls the original.
``from .x import y`` copies the name ``y`` into the importing module, so a
function is patched at every module of the package that binds it, not only
where it is defined (``training.crf_refine``, ``warp.locate_faces``,
``cli.barycentric_resample`` and so on).  Methods are patched on their
class.  ``autodiff.Tensor.__init__`` gets a counter only, no span.

Spans are kept in memory; ``summary`` turns a range of them into metrics
and ``dump`` writes them out once the run is over.  A layer that no longer
exists in the package is listed in ``absent`` and reported with a warning;
it gets no metrics, so it can never read as zero.

Nothing under ``src/`` is changed: ``uninstall`` puts every binding back.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

PACKAGE = "sphreg"

# (module, attribute path) of every wrapped layer, in reporting order.
LAYERS = (
    ("autodiff", "Tensor.backward"),
    ("autodiff", "segment_sum"),
    ("autodiff", "take_rows"),
    ("shconv", "shconv_block"),
    ("graph_attention", "graph_enhanced_module"),
    ("crf", "crf_refine"),
    ("discrete_reg", "unet_forward"),
    ("discrete_reg", "build_label_sets"),
    ("training", "build_grids"),
    ("icosphere", "locate_faces"),
    ("icosphere", "barycentric_resample"),
    ("warp", "densify_targets"),
    ("warp", "warp_values"),
    ("warp", "warp_signal"),
    ("warp", "compose"),
    ("metrics", "loss_sim"),
    ("metrics", "loss_reg"),
    ("metrics", "pearson_cc"),
    ("metrics", "distortion_report"),
    ("training", "forward_cascade"),
    ("training", "total_loss"),
    ("training", "Adam.step"),
    ("training", "evaluate_cc"),
    ("fileio", "read_signal"),
    ("fileio", "write_signal"),
    ("fileio", "read_field"),
    ("fileio", "write_field"),
    ("fileio", "read_checkpoint"),
    ("fileio", "write_checkpoint"),
    ("sht", "build_basis"),
    ("icosphere", "generate_icosphere"),
    ("cli", "main"),
)

# cli.main is reported per subcommand, as cli.main.<subcommand>
CLI_COMMANDS = ("resample", "eval", "align")

# Entry points: their own time is not attributed to any layer.
ENTRY_POINTS = ("cli.main",)

# Layers whose set-up time (and work) is reported, as setup.<layer>.total_ms;
# the checkpoint round trip happens in register-l3's set-up only.
SETUP_LAYERS = ("sht.build_basis", "icosphere.generate_icosphere",
                "fileio.write_checkpoint", "fileio.read_checkpoint")

NODE_COUNTER = ("autodiff", "Tensor.__init__")

_NAME, _PARENT, _START, _END, _OUTER = range(5)


def _file_bytes(args, kwargs, result) -> int:
    try:
        return os.path.getsize(args[0] if args else kwargs["path"])
    except (OSError, KeyError, TypeError):
        return 0


def _targets_located(args, kwargs, result) -> int:
    return len(result[0])


# Work counted per call, after it returns: layer -> (counter, function of
# the call's arguments and result).  A file read is sized after the read,
# which is the same file as before it.
WORK = {
    "fileio.read_signal": ("bytes", _file_bytes),
    "fileio.read_field": ("bytes", _file_bytes),
    "fileio.read_checkpoint": ("bytes", _file_bytes),
    "fileio.write_signal": ("bytes", _file_bytes),
    "fileio.write_field": ("bytes", _file_bytes),
    "fileio.write_checkpoint": ("bytes", _file_bytes),
    "icosphere.locate_faces": ("targets", _targets_located),
}


def _cli_label(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    command = argv[0] if argv else "none"
    return f"cli.main.{command}"


LABELS = {"cli.main": _cli_label}


def layer_names() -> list[str]:
    """Every span name the tracer can report, in reporting order."""
    names = []
    for module, attr in LAYERS:
        name = f"{module}.{attr}"
        if name in LABELS:
            names.extend(f"{name}.{command}" for command in CLI_COMMANDS)
        else:
            names.append(name)
    return names


def _work_done(phase: tuple[dict, dict], key: str) -> int:
    """Counter ``key`` at the end of a phase minus at its start."""
    return phase[1]["counters"].get(key, 0) - phase[0]["counters"].get(key, 0)


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self.tensors = 0
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------
    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self) -> None:
        for module_name, attr in LAYERS:
            self._patch(module_name, attr, self._span_wrapper)
        self._patch(*NODE_COUNTER, self._counting_wrapper)
        for name in self.absent:
            print(f"warning: trace: {name} not found in {PACKAGE}; "
                  f"reported as absent", file=sys.stderr)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, module_name, attr, make_wrapper) -> None:
        name = f"{module_name}.{attr}"
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            self.absent.append(name)
            return
        if "." in attr:                     # a method: patch the class
            class_name, key = attr.split(".")
            owner = getattr(module, class_name, None)
            original = vars(owner).get(key) if owner is not None else None
            if original is None:
                self.absent.append(name)
                return
            self._patches.append((owner, key, original))
            setattr(owner, key, make_wrapper(name, original))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(name)
            return
        wrapper = make_wrapper(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, binding, original))
                    setattr(mod, binding, wrapper)

    def _span_wrapper(self, name, original):
        spans, stack, active = self.spans, self._stack, self._active
        counters = self.counters
        label = LABELS.get(name)
        work = WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = label(args, kwargs) if label else name
            outer = not active.get(span_name)
            span = [span_name, stack[-1] if stack else -1, 0.0, 0.0, outer]
            stack.append(len(spans))
            spans.append(span)
            active[span_name] = active.get(span_name, 0) + 1
            span[_START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
                active[span_name] -= 1
            if work is not None:
                key = f"{name}.{work[0]}"
                counters[key] = counters.get(key, 0) + work[1](args, kwargs, result)
            return result

        return wrapper

    def _counting_wrapper(self, name, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.tensors += 1
            original(*args, **kwargs)

        return wrapper

    # -- reporting -----------------------------------------------------
    def mark(self) -> dict:
        """Position of the span list and counters, to delimit a phase."""
        return {"span": len(self.spans), "counters": dict(self.counters),
                "tensors": self.tensors}

    def layer_times(self, lo: int, hi: int) -> dict[str, list]:
        """name -> [calls, total_s, self_s] over spans[lo:hi].

        Total time counts the outermost call of a recursive function only;
        self time is the span minus the time of its direct child spans."""
        stats: dict[str, list] = {}
        child_time = [0.0] * (hi - lo)
        for offset in range(hi - lo - 1, -1, -1):
            span = self.spans[lo + offset]
            duration = span[_END] - span[_START]
            entry = stats.setdefault(span[_NAME], [0, 0.0, 0.0])
            entry[0] += 1
            if span[_OUTER]:
                entry[1] += duration
            entry[2] += duration - child_time[offset]
            parent = span[_PARENT]
            if parent >= lo:
                child_time[parent - lo] += duration
        return stats

    def attributed_time(self, lo: int, hi: int) -> float:
        """Wall time covered by spans of layers other than entry points."""
        covered_by_layer = [False] * (hi - lo)
        total = 0.0
        for offset in range(hi - lo):
            span = self.spans[lo + offset]
            parent = span[_PARENT]
            inherited = parent >= lo and covered_by_layer[parent - lo]
            is_layer = not span[_NAME].startswith(ENTRY_POINTS)
            covered_by_layer[offset] = inherited or is_layer
            if is_layer and not inherited:
                total += span[_END] - span[_START]
        return total

    def summary(self, setup: tuple[dict, dict], loop: tuple[dict, dict],
                loop_wall: float, untraced_wall: float, ops: int,
                pairs: int) -> dict[str, float]:
        """Per-layer metrics: the loop phase per layer, set-up for
        ``SETUP_LAYERS``, counters, and the tracing shares."""
        lo, hi = loop[0]["span"], loop[1]["span"]
        stats = self.layer_times(lo, hi)
        present = [name for name in layer_names()
                   if not any(name == a or name.startswith(a + ".")
                              for a in self.absent)]
        out: dict[str, float] = {}
        for name in present:
            calls, total, own = stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.total_ms"] = total * 1e3
            out[f"{name}.self_ms"] = own * 1e3
        for name, (suffix, _) in WORK.items():
            if name not in self.absent:
                out[f"{name}.{suffix}"] = _work_done(loop, f"{name}.{suffix}")
        located = out.pop("icosphere.locate_faces.targets", None)
        if located is not None:
            seconds = out["icosphere.locate_faces.total_ms"] / 1e3
            out["icosphere.locate_faces.targets_per_s"] = \
                located / seconds if seconds > 0 else 0.0
        if f"{NODE_COUNTER[0]}.{NODE_COUNTER[1]}" not in self.absent:
            tensors = loop[1]["tensors"] - loop[0]["tensors"]
            out["autodiff.nodes_per_pair"] = tensors / pairs
        setup_stats = self.layer_times(setup[0]["span"], setup[1]["span"])
        for name in SETUP_LAYERS:
            if name in self.absent:
                continue
            out[f"setup.{name}.total_ms"] = \
                setup_stats.get(name, (0, 0.0, 0.0))[1] * 1e3
            if name in WORK:
                key = f"{name}.{WORK[name][0]}"
                out[f"setup.{key}"] = _work_done(setup, key)
        out["trace.ops"] = ops
        out["trace.unattributed_share"] = \
            1.0 - self.attributed_time(lo, hi) / loop_wall
        out["trace.overhead_share"] = loop_wall / untraced_wall - 1.0
        return out

    def dump(self, path, header: dict) -> None:
        """Write the header and every span as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({**header, "absent": self.absent}) + "\n")
            for name, parent, start, end, _ in self.spans:
                handle.write(json.dumps([name, parent, start, end]) + "\n")

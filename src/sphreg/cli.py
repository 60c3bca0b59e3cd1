"""Command-line pipeline driver.

Subcommands cover the whole workflow: mesh generation, synthetic dataset
creation, training, registration, evaluation, resampling, and rotational
pre-alignment.  Every run writes a JSON manifest next to its primary output
(command, resolved configuration, paths, seed, duration, version, and the
BLAS library, thread count and pin) so any result can be replayed from its
manifest alone.

Configuration precedence, highest first: explicit CLI flag, config file
(``key=value`` lines), built-in default.

Exit codes: 0 success, 2 usage error, 3 data-format error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time

import numpy as np

from . import BLAS, __version__
from . import autodiff as ag
from .errors import FormatError, NumericError
from .fileio import (read_field, read_signal, write_field, write_mesh,
                     write_signal)
from .icosphere import (SphericalSignal, barycentric_resample,
                        generate_icosphere)
from .metrics import distortion_report, pearson_cc, require_variance
from .training import (SyntheticPair, TrainConfig, align_search,
                       load_checkpoint, register_pair, synth_dataset,
                       train)
from .warp import warp_signal

_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_WORDS[text.strip().lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"expected true/false, got {text!r}")


# one parser per TrainConfig field type, shared by config files and flags
_PARSERS = {"bool": _parse_bool, "int": int, "float": float, "str": str}


def _read_config_file(path: str) -> dict:
    """key=value lines; blank lines and # comments ignored."""
    fields = {f.name: f for f in dataclasses.fields(TrainConfig)}
    out = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(
                    f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in fields:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                out[key] = _PARSERS[fields[key].type](value)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return out


# the TrainConfig fields that change what synth writes
_SYNTH_FIELDS = ("mesh_level", "bandwidth", "seed")


def _add_field_flags(group, names) -> None:
    """One flag per TrainConfig field in ``names``.  An unset flag leaves
    no attribute, so the help prints only the field's own default."""
    for f in dataclasses.fields(TrainConfig):
        if f.name in names:
            group.add_argument("--" + f.name.replace("_", "-"),
                               type=_PARSERS[f.type],
                               default=argparse.SUPPRESS,
                               metavar="BOOL" if f.type == "bool" else None,
                               help=f"override {f.name} (default {f.default})")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="key=value config file")
    _add_field_flags(parser.add_argument_group(
        "model/config overrides (flag beats config file beats default)"),
        [f.name for f in dataclasses.fields(TrainConfig)])


def _resolve_config(args: argparse.Namespace) -> TrainConfig:
    data = dataclasses.asdict(TrainConfig())
    if getattr(args, "config", None):
        data.update(_read_config_file(args.config))
    for f in dataclasses.fields(TrainConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            data[f.name] = value
    return TrainConfig(**data)


def _write_manifest(path: str, command: str, config: dict | None,
                    inputs: dict, outputs: dict, seed: int | None,
                    started: float, phases: dict | None = None) -> None:
    manifest = {
        "command": command,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "seed": seed,
        "duration_s": round(time.time() - started, 6),
        "version": __version__,
        "blas": BLAS,
    }
    if phases is not None:
        manifest["phases"] = phases
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_icosphere(args: argparse.Namespace) -> int:
    started = time.time()
    mesh = generate_icosphere(args.level)
    write_mesh(args.out, mesh)
    print(f"vertices={mesh.n_vertices} edges={len(mesh.edges)} "
          f"faces={mesh.n_faces}")
    _write_manifest(args.out + ".manifest.json", "icosphere", None,
                    {}, {"mesh": args.out}, None, started)
    return 0


def _pair_paths(directory: str, index: int) -> tuple[str, str, str]:
    stem = os.path.join(directory, f"pair_{index:04d}")
    return stem + ".fixed.sphs", stem + ".moving.sphs", stem + ".truth.sphd"


def cmd_synth(args: argparse.Namespace) -> int:
    started = time.time()
    config = _resolve_config(args)
    pairs = synth_dataset(args.n_pairs, config, config.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    for i, pair in enumerate(pairs):
        fixed_path, moving_path, truth_path = _pair_paths(args.out_dir, i)
        write_signal(fixed_path, pair.fixed)
        write_signal(moving_path, pair.moving)
        write_field(truth_path, pair.ground_truth)
    print(f"wrote {len(pairs)} pairs to {args.out_dir}")
    _write_manifest(os.path.join(args.out_dir, "manifest.json"), "synth",
                    {name: getattr(config, name) for name in _SYNTH_FIELDS},
                    {},
                    {"out_dir": args.out_dir, "n_pairs": args.n_pairs},
                    config.seed, started)
    return 0


def _load_pairs(directory: str) -> list[SyntheticPair]:
    pairs = []
    index = 0
    while True:
        fixed_path, moving_path, _ = _pair_paths(directory, index)
        if not os.path.exists(fixed_path):
            break
        pairs.append(SyntheticPair(fixed=read_signal(fixed_path),
                                   moving=read_signal(moving_path),
                                   ground_truth=None))
        index += 1
    if not pairs:
        raise ValueError(f"no pair_*.fixed.sphs files under {directory}")
    return pairs


def cmd_train(args: argparse.Namespace) -> int:
    started = time.time()
    config = _resolve_config(args)
    dataset = _load_pairs(args.data)
    val_set = _load_pairs(args.val_data) if args.val_data else None
    _, history = train(config, dataset, val_dataset=val_set,
                       log_path=args.log, checkpoint_path=args.out)
    last = history[-1]
    line = (f"epochs={len(history)} loss={last['loss']:.6f} "
            f"loss_sim={last['loss_sim']:.6f} loss_reg={last['loss_reg']:.6f}")
    if not np.isnan(last["cc_val"]):
        line += f" cc_val={last['cc_val']:.6f}"
    print(line)
    _write_manifest(args.out + ".manifest.json", "train",
                    dataclasses.asdict(config),
                    {"data": args.data, "val_data": args.val_data},
                    {"checkpoint": args.out, "log": args.log},
                    config.seed, started)
    return 0


def cmd_register(args: argparse.Namespace) -> int:
    started = time.time()
    config, model = load_checkpoint(args.checkpoint)
    moving = read_signal(args.moving)
    fixed = read_signal(args.fixed)
    field, warped, result = register_pair(model, config, moving, fixed)
    write_field(args.out_field, field)
    write_signal(args.out_warped, warped)
    cc_before = float(ag.value_of(pearson_cc(fixed.values, moving.values)))
    cc_after = float(ag.value_of(pearson_cc(fixed.values, warped.values)))
    print(f"cc_before={cc_before:.6f} cc_after={cc_after:.6f}")
    for phase, seconds in result.timings.items():
        print(f"time_{phase}={seconds:.4f}s")
    _write_manifest(args.out_field + ".manifest.json", "register",
                    dataclasses.asdict(config),
                    {"checkpoint": args.checkpoint, "moving": args.moving,
                     "fixed": args.fixed},
                    {"field": args.out_field, "warped": args.out_warped},
                    config.seed, started, result.timings)
    return 0


_ROW_KEYS = ("cc", "J_mean", "J_std", "J_max", "J_p95", "J_p98",
             "R_mean", "R_std", "R_max", "R_p95", "R_p98", "folds",
             "seconds")


def cmd_eval(args: argparse.Namespace) -> int:
    started = time.time()
    field = read_field(args.field)
    moving = read_signal(args.moving)
    fixed = read_signal(args.fixed)
    if moving.level != field.mesh_level or fixed.level != field.mesh_level:
        raise ValueError(
            f"field level {field.mesh_level} does not match signals "
            f"({moving.level}, {fixed.level})")
    # before warping: a warped constant reads rounding error as variance,
    # since the interpolation weights do not sum to exactly 1
    require_variance(moving.values, "moving")
    mesh = generate_icosphere(field.mesh_level)
    warped = warp_signal(moving, field)
    cc = float(ag.value_of(pearson_cc(fixed.values, warped.values)))
    report = distortion_report(mesh, field)
    row = {"cc": cc, **report.row(), "seconds": time.time() - started}
    print("  ".join(f"{key}={row[key]:.6g}" for key in _ROW_KEYS))
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as handle:
            handle.write(",".join(_ROW_KEYS) + "\n")
            handle.write(",".join(repr(float(row[k])) for k in _ROW_KEYS))
            handle.write("\n")
    if args.out_triangles:
        with open(args.out_triangles, "w", encoding="utf-8") as handle:
            handle.write("triangle,J,R\n")
            for i, (j_val, r_val) in enumerate(zip(report.J, report.R)):
                handle.write(f"{i},{j_val!r},{r_val!r}\n")
    # <field>.manifest.json belongs to the register or align run behind it
    primary = args.out_csv or args.out_triangles or args.field + ".eval"
    _write_manifest(primary + ".manifest.json", "eval", None,
                    {"field": args.field, "moving": args.moving,
                     "fixed": args.fixed},
                    {"csv": args.out_csv, "triangles": args.out_triangles},
                    None, started)
    return 0


def cmd_resample(args: argparse.Namespace) -> int:
    started = time.time()
    signal = read_signal(args.input)
    src_mesh = generate_icosphere(signal.level)
    dst_mesh = generate_icosphere(args.level)
    # the two levels share their first min(N_src, N_dst) vertices, which
    # resample to their own rows: copy those and locate only the vertices
    # a finer level adds (none for a same or coarser level)
    shared = min(src_mesh.n_vertices, dst_mesh.n_vertices)
    values = np.concatenate([signal.values[:shared], barycentric_resample(
        signal.values, src_mesh, dst_mesh.vertices[shared:])])
    write_signal(args.out, SphericalSignal(args.level, values))
    print(f"resampled level {signal.level} -> {args.level} "
          f"({dst_mesh.n_vertices} vertices)")
    _write_manifest(args.out + ".manifest.json", "resample", None,
                    {"signal": args.input}, {"signal": args.out},
                    None, started)
    return 0


def cmd_align(args: argparse.Namespace) -> int:
    started = time.time()
    moving = read_signal(args.moving)
    fixed = read_signal(args.fixed)
    field, cc_best = align_search(moving, fixed, n_axes=args.axes,
                                  n_angles=args.angles)
    write_field(args.out_field, field)
    cc_before = float(ag.value_of(pearson_cc(fixed.values, moving.values)))
    print(f"cc_before={cc_before:.6f} cc_aligned={cc_best:.6f}")
    _write_manifest(args.out_field + ".manifest.json", "align", None,
                    {"moving": args.moving, "fixed": args.fixed},
                    {"field": args.out_field}, None, started)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: repeated in-process ``main``
    calls skip rebuilding its seven subparsers and their arguments, and
    ``parse_args`` returns a new namespace each call.  Each subcommand's
    handler is bound when the parser is built, so patching a ``cmd_*``
    function after the first ``main`` call has no effect."""
    parser = argparse.ArgumentParser(
        prog="sphreg",
        description="Spherical mesh registration pipeline",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"sphreg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("icosphere", help="generate a subdivided sphere mesh",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", default="icosphere.sphm")
    p.set_defaults(func=cmd_icosphere)

    p = sub.add_parser("synth", help="generate a synthetic pair dataset",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--n-pairs", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    _add_field_flags(p.add_argument_group(
        "data settings (flag beats default)"), _SYNTH_FIELDS)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a registration model",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--data", required=True, help="directory from synth")
    p.add_argument("--val-data", default=None)
    p.add_argument("--out", default="model.sphk")
    p.add_argument("--log", default=None, help="CSV loss log path")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("register", help="register one pair with a checkpoint",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--moving", required=True)
    p.add_argument("--fixed", required=True)
    p.add_argument("--out-field", default="deformation.sphd")
    p.add_argument("--out-warped", default="warped.sphs")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("eval", help="score a deformation against a pair",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--field", required=True)
    p.add_argument("--moving", required=True)
    p.add_argument("--fixed", required=True)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-triangles", default=None,
                   help="per-triangle J,R dump for plotting")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("resample", help="resample a signal between levels",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--input", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_resample)

    p = sub.add_parser("align", help="coarse rotational pre-alignment",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--moving", required=True)
    p.add_argument("--fixed", required=True)
    p.add_argument("--out-field", default="alignment.sphd")
    p.add_argument("--axes", type=int, default=32)
    p.add_argument("--angles", type=int, default=16)
    p.set_defaults(func=cmd_align)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"sphreg: format error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"sphreg: numeric failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"sphreg: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: subcommands, exit codes, manifests, and
configuration precedence.

Commands run in-process through main(argv) with outputs under tmp_path;
argparse usage failures surface as SystemExit(2), everything else maps to
the documented return codes (0 ok, 2 usage, 3 format, 4 numeric).
"""

import json
import struct

import numpy as np
import pytest

import sphreg
from sphreg import cli, fileio
from sphreg.icosphere import SphericalSignal, generate_icosphere
from sphreg.metrics import pearson_cc
from sphreg.training import TrainConfig, init_model, save_checkpoint
from sphreg.warp import DeformationField, densify_targets

TINY = ["--mesh-level", "2", "--bandwidth", "8", "--channels", "4",
        "--heads", "2", "--epochs", "1", "--batch-size", "2"]


def run(argv) -> int:
    return cli.main([str(a) for a in argv])


def make_dataset(tmp_path, n_pairs: int = 2, extra=()):
    data = tmp_path / "data"
    code = run(["synth", "--n-pairs", n_pairs, "--out-dir", data,
                *TINY, *extra])
    assert code == 0
    return data


def zero_head_checkpoint(tmp_path, **config_overrides):
    cfg = TrainConfig(mesh_level=2, bandwidth=8, channels=4, heads=2,
                      **config_overrides)
    model = init_model(cfg)
    for net in (model.coarse, model.fine):
        net.head.filt.h[...] = 0.0
        net.head.filt.alpha[...] = 0.0
        net.head.bn_beta[...] = 0.0
    path = tmp_path / "zero.sphk"
    save_checkpoint(path, cfg, model)
    return path


# ---------------------------------------------------------------------------
# basic commands and exit codes
# ---------------------------------------------------------------------------

def test_icosphere_writes_mesh_and_manifest(tmp_path, capsys):
    out = tmp_path / "mesh.sphm"
    assert run(["icosphere", "--level", 0, "--out", out]) == 0
    assert "vertices=12" in capsys.readouterr().out
    # the package has no SPHM reader; test_fileio decodes write_mesh's bytes
    expected = tmp_path / "expected.sphm"
    fileio.write_mesh(expected, generate_icosphere(0))
    assert out.read_bytes() == expected.read_bytes()
    manifest = json.loads((tmp_path / "mesh.sphm.manifest.json").read_text())
    assert manifest["command"] == "icosphere"
    assert manifest["outputs"]["mesh"] == str(out)
    assert "duration_s" in manifest and "version" in manifest
    assert manifest["blas"] == sphreg.BLAS
    assert set(manifest["blas"]) == {"library", "threads", "pin"}


def test_icosphere_level6_vertex_count(tmp_path, capsys):
    assert run(["icosphere", "--level", 6,
                "--out", tmp_path / "l6.sphm"]) == 0
    assert "vertices=40962" in capsys.readouterr().out


def test_unknown_flag_is_rejected(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        run(["icosphere", "--level", 0, "--out", tmp_path / "m.sphm",
             "--frobnicate"])
    assert excinfo.value.code == 2


def test_missing_subcommand_is_rejected():
    with pytest.raises(SystemExit) as excinfo:
        run([])
    assert excinfo.value.code == 2


def test_every_subcommand_has_help():
    for name in ("icosphere", "synth", "train", "register", "eval",
                 "resample", "align"):
        with pytest.raises(SystemExit) as excinfo:
            run([name, "--help"])
        assert excinfo.value.code == 0


def test_usage_error_exit_code_on_bad_value(tmp_path, capsys):
    code = run(["synth", "--n-pairs", 0, "--out-dir", tmp_path / "d", *TINY])
    assert code == 2
    assert "n_pairs" in capsys.readouterr().err


def test_numeric_failure_exit_code(tmp_path, capsys):
    code = run(["synth", "--n-pairs", 1, "--out-dir", tmp_path / "d",
                *TINY, "--synth-warp-amplitude", 5.0])
    assert code == 4
    assert "numeric failure" in capsys.readouterr().err


def test_format_error_exit_code(tmp_path, capsys):
    data = make_dataset(tmp_path)
    bad = data / "pair_0000.fixed.sphs"
    raw = bytearray(bad.read_bytes())
    raw[0:4] = b"WHAT"
    bad.write_bytes(bytes(raw))
    code = run(["eval", "--field", data / "pair_0000.truth.sphd",
                "--moving", data / "pair_0000.moving.sphs",
                "--fixed", bad])
    assert code == 3
    err = capsys.readouterr().err
    assert "format error" in err and "byte 0" in err


def write_level2_field(path, scale_target5: float) -> None:
    """A level-2 identity field whose target 5 is scaled off unit length."""
    targets = generate_icosphere(2).vertices.copy()
    targets[5] *= scale_target5
    with open(path, "wb") as f:
        f.write(b"SPHD" + struct.pack("<II", 1, 2))
        f.write(targets.astype("<f8").tobytes())


def test_eval_field_off_unit_length_is_a_format_error(tmp_path, capsys):
    # the reader and DeformationField share one tolerance, so a target
    # that the reader used to pass but the field rejected exits 3 at its
    # byte offset (12-byte header + 24 bytes per target), not 2
    data = make_dataset(tmp_path, n_pairs=1)
    field = tmp_path / "off.sphd"
    write_level2_field(field, 1.0 + 1e-7)
    code = run(["eval", "--field", field,
                "--moving", data / "pair_0000.moving.sphs",
                "--fixed", data / "pair_0000.fixed.sphs"])
    assert code == 3
    err = capsys.readouterr().err
    assert "format error" in err and "byte 132" in err
    write_level2_field(field, 1.0 + 1e-10)
    assert fileio.read_field(field).targets.shape == (162, 3)


# ---------------------------------------------------------------------------
# configuration precedence
# ---------------------------------------------------------------------------

def test_flag_beats_config_file_beats_default(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_text(
        "# comment\n"
        "mesh_level=2\nbandwidth=8\nchannels=4\nheads=2\n"
        "seed=7\nsynth_noise=0.2\n")
    data = tmp_path / "data"
    code = run(["synth", "--n-pairs", 1, "--out-dir", data,
                "--config", config_file, "--seed", 9])
    assert code == 0
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 9            # flag wins
    assert manifest["config"]["synth_noise"] == 0.2   # file beats default
    assert manifest["config"]["epochs"] == TrainConfig().epochs


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    config_file = tmp_path / "bad.cfg"
    config_file.write_text("momentum=0.9\n")
    code = run(["synth", "--n-pairs", 1, "--out-dir", tmp_path / "d",
                "--config", config_file])
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["use_crf=maybe", "epochs=x",
                                  "crf_weight=heavy"])
def test_config_file_bad_value_rejected(tmp_path, capsys, line):
    config_file = tmp_path / "bad.cfg"
    config_file.write_text(line + "\n")
    code = run(["synth", "--n-pairs", 1, "--out-dir", tmp_path / "d",
                "--config", config_file])
    assert code == 2
    assert f"bad.cfg:1: {line.split('=')[0]}" in capsys.readouterr().err


def test_config_file_malformed_line_rejected(tmp_path, capsys):
    config_file = tmp_path / "bad.cfg"
    config_file.write_text("mesh_level 2\n")
    code = run(["synth", "--n-pairs", 1, "--out-dir", tmp_path / "d",
                "--config", config_file])
    assert code == 2
    assert "expected key=value" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth determinism
# ---------------------------------------------------------------------------

def test_synth_is_deterministic_across_runs(tmp_path):
    first = make_dataset(tmp_path / "a")
    second = make_dataset(tmp_path / "b")
    for name in ("pair_0000.fixed.sphs", "pair_0000.moving.sphs",
                 "pair_0000.truth.sphd", "pair_0001.fixed.sphs"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


# ---------------------------------------------------------------------------
# full pipeline chain
# ---------------------------------------------------------------------------

def test_synth_train_register_eval_chain(tmp_path, capsys):
    data = make_dataset(tmp_path)
    ckpt = tmp_path / "model.sphk"
    log = tmp_path / "train.csv"
    assert run(["train", "--data", data, "--out", ckpt, "--log", log,
                *TINY]) == 0
    assert log.read_text().startswith("epoch,loss,loss_sim,loss_reg,cc_val")

    field = tmp_path / "out.sphd"
    warped = tmp_path / "warped.sphs"
    assert run(["register", "--checkpoint", ckpt,
                "--moving", data / "pair_0000.moving.sphs",
                "--fixed", data / "pair_0000.fixed.sphs",
                "--out-field", field, "--out-warped", warped]) == 0
    register_out = capsys.readouterr().out
    assert "cc_before=" in register_out and "cc_after=" in register_out
    assert "time_forward=" in register_out

    csv = tmp_path / "eval.csv"
    assert run(["eval", "--field", field,
                "--moving", data / "pair_0000.moving.sphs",
                "--fixed", data / "pair_0000.fixed.sphs",
                "--out-csv", csv,
                "--out-triangles", tmp_path / "tri.csv"]) == 0
    eval_out = capsys.readouterr().out
    assert "cc=" in eval_out and "J_p98=" in eval_out

    header, values = csv.read_text().strip().split("\n")
    assert header.split(",") == list(cli._ROW_KEYS)
    assert len(values.split(",")) == len(cli._ROW_KEYS)
    tri_lines = (tmp_path / "tri.csv").read_text().strip().split("\n")
    assert tri_lines[0] == "triangle,J,R"
    assert len(tri_lines) == 1 + generate_icosphere(2).n_faces

    for manifest in (data / "manifest.json",
                     tmp_path / "model.sphk.manifest.json",
                     tmp_path / "out.sphd.manifest.json",
                     tmp_path / "eval.csv.manifest.json"):
        assert manifest.exists(), manifest


def test_register_zero_head_gives_identity_and_zero_distortion(
        tmp_path, capsys):
    data = make_dataset(tmp_path)
    ckpt = zero_head_checkpoint(tmp_path, use_crf=False)
    field_path = tmp_path / "ident.sphd"
    assert run(["register", "--checkpoint", ckpt,
                "--moving", data / "pair_0000.moving.sphs",
                "--fixed", data / "pair_0000.fixed.sphs",
                "--out-field", field_path,
                "--out-warped", tmp_path / "w.sphs"]) == 0
    field = fileio.read_field(field_path)
    np.testing.assert_array_equal(field.targets,
                                  generate_icosphere(2).vertices)

    csv = tmp_path / "eval.csv"
    assert run(["eval", "--field", field_path,
                "--moving", data / "pair_0000.moving.sphs",
                "--fixed", data / "pair_0000.fixed.sphs",
                "--out-csv", csv]) == 0
    capsys.readouterr()
    row = dict(zip(*[line.split(",") for line in
                     csv.read_text().strip().split("\n")]))
    for key in ("J_mean", "J_std", "J_max", "J_p95", "J_p98",
                "R_mean", "R_std", "R_max", "R_p95", "R_p98", "folds"):
        assert float(row[key]) == 0.0, key


def test_register_manifest_keeps_the_printed_phase_times(tmp_path, capsys):
    data = make_dataset(tmp_path)
    ckpt = zero_head_checkpoint(tmp_path)
    field_path = tmp_path / "out.sphd"
    assert run(["register", "--checkpoint", ckpt,
                "--moving", data / "pair_0000.moving.sphs",
                "--fixed", data / "pair_0000.fixed.sphs",
                "--out-field", field_path,
                "--out-warped", tmp_path / "w.sphs"]) == 0
    printed = dict(line.split("=", 1) for line in
                   capsys.readouterr().out.split("\n")
                   if line.startswith("time_"))
    manifest = json.loads(
        (tmp_path / "out.sphd.manifest.json").read_text())
    phases = manifest["phases"]
    assert list(phases) == ["crf", "densify", "forward", "warp"]  # sorted keys
    assert {f"time_{p}": f"{t:.4f}s" for p, t in phases.items()} == printed
    assert sum(phases.values()) <= manifest["duration_s"]


def test_register_crf_override_flags(tmp_path):
    # a zero-head model is only an exact identity when the CRF is silenced,
    # so the override flags have an observable effect
    data = make_dataset(tmp_path)
    ckpt = zero_head_checkpoint(tmp_path, use_crf=True)
    vertices = generate_icosphere(2).vertices

    plain = tmp_path / "plain.sphd"
    assert run(["register", "--checkpoint", ckpt,
                "--moving", data / "pair_0000.moving.sphs",
                "--fixed", data / "pair_0000.fixed.sphs",
                "--out-field", plain,
                "--out-warped", tmp_path / "w1.sphs"]) == 0
    assert not np.array_equal(fileio.read_field(plain).targets, vertices)

    silenced = tmp_path / "silenced.sphd"
    assert run(["register", "--checkpoint", ckpt,
                "--moving", data / "pair_0000.moving.sphs",
                "--fixed", data / "pair_0000.fixed.sphs",
                "--out-field", silenced,
                "--out-warped", tmp_path / "w2.sphs",
                "--crf-iters", 0]) == 0
    np.testing.assert_array_equal(fileio.read_field(silenced).targets,
                                  vertices)

    manifest = json.loads(
        (tmp_path / "silenced.sphd.manifest.json").read_text())
    assert manifest["config"]["crf_iters"] == 0


# ---------------------------------------------------------------------------
# malformed checkpoints exit 3
# ---------------------------------------------------------------------------

def register_with(tmp_path, ckpt) -> int:
    data = make_dataset(tmp_path, n_pairs=1)
    return run(["register", "--checkpoint", ckpt,
                "--moving", data / "pair_0000.moving.sphs",
                "--fixed", data / "pair_0000.fixed.sphs",
                "--out-field", tmp_path / "f.sphd",
                "--out-warped", tmp_path / "w.sphs"])


def replace_config_blob(path, blob: bytes) -> None:
    """Swap the SPHK config blob (after magic, version and its length)."""
    raw = path.read_bytes()
    (old_len,) = struct.unpack_from("<I", raw, 8)
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob
                     + raw[12 + old_len:])


def test_checkpoint_tensor_name_not_utf8(tmp_path, capsys):
    ckpt = zero_head_checkpoint(tmp_path)
    raw = bytearray(ckpt.read_bytes())
    (blob_len,) = struct.unpack_from("<I", raw, 8)
    name_at = 12 + blob_len + 8       # tensor count, first name length
    raw[name_at] = 0xFF
    ckpt.write_bytes(bytes(raw))
    assert register_with(tmp_path, ckpt) == 3
    err = capsys.readouterr().err
    assert f"byte {name_at}" in err and "not UTF-8" in err


@pytest.mark.parametrize("key, value", [("epochs", "x"), ("bandwidth", 8.0),
                                        ("use_crf", "no"), ("mesh_level", 2.0)])
def test_checkpoint_config_value_of_wrong_type(tmp_path, capsys, key, value):
    ckpt = zero_head_checkpoint(tmp_path)
    raw = ckpt.read_bytes()
    (blob_len,) = struct.unpack_from("<I", raw, 8)
    config = json.loads(raw[12:12 + blob_len])
    config[key] = value
    replace_config_blob(ckpt, json.dumps(config).encode())
    assert register_with(tmp_path, ckpt) == 3
    err = capsys.readouterr().err
    assert "format error" in err and "byte 12" in err


def test_checkpoint_config_not_an_object(tmp_path, capsys):
    ckpt = zero_head_checkpoint(tmp_path)
    replace_config_blob(ckpt, json.dumps([1, 2]).encode())
    assert register_with(tmp_path, ckpt) == 3
    err = capsys.readouterr().err
    assert "byte 12" in err and "not a JSON object" in err


def test_checkpoint_config_is_one_json_object(tmp_path, capsys):
    ckpt = zero_head_checkpoint(tmp_path)
    raw = ckpt.read_bytes()
    (blob_len,) = struct.unpack_from("<I", raw, 8)
    config = json.loads(raw[12:12 + blob_len])
    assert config["channels"] == 4
    # a config encoded twice, as a JSON string holding the object
    replace_config_blob(ckpt, json.dumps(json.dumps(config)).encode())
    assert register_with(tmp_path, ckpt) == 3
    err = capsys.readouterr().err
    assert "byte 12" in err and "JSON string" in err


@pytest.mark.parametrize("change", ["shape", "names"])
def test_checkpoint_tensors_must_fit_config(tmp_path, capsys, change):
    ckpt = zero_head_checkpoint(tmp_path)
    raw = ckpt.read_bytes()
    (blob_len,) = struct.unpack_from("<I", raw, 8)
    config = json.loads(raw[12:12 + blob_len])
    if change == "shape":
        config["channels"] = 6
    else:
        config["use_graph_module"] = not config["use_graph_module"]
    replace_config_blob(ckpt, json.dumps(config).encode())
    assert register_with(tmp_path, ckpt) == 3
    err = capsys.readouterr().err
    assert "format error" in err and "byte 12" in err


def test_eval_ground_truth_field_beats_unregistered(tmp_path, capsys):
    # the generator field maps the fixed image onto the moving one, so the
    # reproduction direction warps fixed and compares against moving
    data = make_dataset(tmp_path)
    csv = tmp_path / "truth.csv"
    assert run(["eval", "--field", data / "pair_0000.truth.sphd",
                "--moving", data / "pair_0000.fixed.sphs",
                "--fixed", data / "pair_0000.moving.sphs",
                "--out-csv", csv]) == 0
    capsys.readouterr()
    header, values = [line.split(",") for line in
                      csv.read_text().strip().split("\n")]
    cc_truth = float(dict(zip(header, values))["cc"])

    fixed = fileio.read_signal(data / "pair_0000.fixed.sphs")
    moving = fileio.read_signal(data / "pair_0000.moving.sphs")
    cc_raw = float(pearson_cc(moving.values, fixed.values))
    assert cc_truth >= cc_raw


# ---------------------------------------------------------------------------
# resample and align
# ---------------------------------------------------------------------------

def test_resample_between_levels(tmp_path, capsys):
    data = make_dataset(tmp_path)
    out = tmp_path / "up.sphs"
    assert run(["resample", "--input", data / "pair_0000.fixed.sphs",
                "--level", 3, "--out", out]) == 0
    assert "162" not in capsys.readouterr().out.split("->")[0]
    upsampled = fileio.read_signal(out)
    assert upsampled.level == 3
    source = fileio.read_signal(data / "pair_0000.fixed.sphs")
    # coarse vertices are a prefix of the fine mesh: values carry over
    np.testing.assert_allclose(upsampled.values[:162], source.values,
                               atol=1e-12)


def test_align_improves_rotated_pair(tmp_path, capsys):
    data = make_dataset(tmp_path)
    fixed_path = data / "pair_0000.fixed.sphs"
    fixed = fileio.read_signal(fixed_path)

    angle = 0.35
    K = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    R = np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)
    mesh = generate_icosphere(fixed.level)
    targets = mesh.vertices @ R.T
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    from sphreg.warp import DeformationField, warp_signal
    rotated = warp_signal(fixed, DeformationField(fixed.level, targets))
    rotated_path = tmp_path / "rotated.sphs"
    fileio.write_signal(rotated_path, rotated)

    out_field = tmp_path / "align.sphd"
    assert run(["align", "--moving", rotated_path, "--fixed", fixed_path,
                "--out-field", out_field]) == 0
    printed = capsys.readouterr().out
    before = float(printed.split("cc_before=")[1].split()[0])
    aligned = float(printed.split("cc_aligned=")[1].split()[0])
    assert aligned > before
    assert fileio.read_field(out_field).mesh_level == fixed.level


@pytest.mark.parametrize("flags,name", [(["--axes", 0], "n_axes"),
                                        (["--axes", -3], "n_axes"),
                                        (["--angles", 0], "n_angles")])
def test_align_rejects_empty_search_grid(tmp_path, capsys, flags, name):
    # --axes 0 searched nothing and wrote the identity with cc=-inf
    rng = np.random.default_rng(0)
    signal = tmp_path / "signal.sphs"
    fileio.write_signal(signal, SphericalSignal(
        2, rng.standard_normal((162, 1))))
    out_field = tmp_path / "align.sphd"
    assert run(["align", "--moving", signal, "--fixed", signal,
                "--out-field", out_field, *flags]) == 2
    assert name in capsys.readouterr().err
    assert not out_field.exists()


def test_eval_rejects_constant_moving_signal(tmp_path, capsys):
    # warped through a smooth field, a constant 0.1 comes back with
    # rounding-error variance, and eval printed a CC made of that error
    level = 3
    control = generate_icosphere(1).vertices
    moves = control + 0.05 * np.random.default_rng(1).standard_normal(
        control.shape)
    moves /= np.linalg.norm(moves, axis=1, keepdims=True)
    field = tmp_path / "field.sphd"
    fileio.write_field(field, DeformationField(
        level, densify_targets(moves, 1, level)))
    n = generate_icosphere(level).n_vertices
    moving, fixed = tmp_path / "moving.sphs", tmp_path / "fixed.sphs"
    fileio.write_signal(moving, SphericalSignal(level, np.full((n, 1), 0.1)))
    fileio.write_signal(fixed, SphericalSignal(
        level, np.random.default_rng(2).standard_normal((n, 1))))
    csv = tmp_path / "eval.csv"
    assert run(["eval", "--field", field, "--moving", moving,
                "--fixed", fixed, "--out-csv", csv]) == 2
    assert "zero variance" in capsys.readouterr().err
    assert not csv.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["--version"])
    assert excinfo.value.code == 0
    assert "sphreg" in capsys.readouterr().out

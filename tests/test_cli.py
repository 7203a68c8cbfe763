import json
import os
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import shapescene
from shapescene import scene as scene_module
from shapescene.cli import load_config, main
from shapescene.collision import collision_loss_total
from shapescene.geom import Pose9DoF, apply_pose, project_to_so3, rotation_about_axis
from shapescene.mesh import TriMesh, load_obj, save_obj
from shapescene.metrics import miv_and_collisions, relative_iou
from shapescene.optim import scene_to_objects
from shapescene.scene import PlacedObject, Scene, load_scene, perturb_pose, save_scene, shape_entry
from shapescene.sdf import SdfGrid, read_sdfg
from shapescene.toys import make_box
from shapescene.shapedb import ShapeDatabase, ShapeEntry, _read_points, load_database, save_database


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Toy meshes + small database + a couple of scenes, built once via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["make-toys", "--out", str(root / "meshes")]) == 0
    assert main([
        "build-db", "--meshes", str(root / "meshes"), "--out", str(root / "db"),
        "--k", "2", "--seed", "42", "--res", "24", "--points", "256",
    ]) == 0
    assert main([
        "gen-scenes", "--db", str(root / "db"), "--out", str(root / "scenes"),
        "--count", "2", "--objects", "2:3", "--seed", "7",
    ]) == 0
    return root


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["build-db"])  # missing required flags
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["export", "--db", "x", "--scene", "y", "--out", "z",
              "--format", "stl"])
    assert exc.value.code == 1
    capsys.readouterr()
    # resolve draws no random numbers and has no warm-up.
    for flag, value in (("--seed", "5"), ("--warmup", "1")):
        with pytest.raises(SystemExit) as exc:
            main(["resolve", "--db", "x", "--scene", "y", "--out", "z", flag, value])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag} {value}" in err and err.count("\n") == 1
    # Out-of-range optimizer settings are rejected before any input is read.
    for argv in (["fit-pose", "--db", "x", "--gt", "y", "--out", "z", "--iters", "0"],
                 ["resolve", "--db", "x", "--scene", "y", "--out", "z", "--lr", "0"],
                 ["fit-pose", "--db", "x", "--gt", "y", "--out", "z", "--lr", "nan"],
                 ["fit-pose", "--db", "x", "--gt", "y", "--out", "z", "--lr", "inf"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("shapescene: error:") and err.count("\n") == 1


def test_data_errors_exit_2(tmp_path, capsys):
    assert main(["labels", "--db", str(tmp_path / "nodb"),
                 "--scene", "x", "--out", "y"]) == 2
    assert "error" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 1, "bogus": 2}\n')
    assert main(["--config", str(bad), "make-toys", "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err and bad.name in err
    # Integer keys take JSON integers only; float keys any number but a boolean.
    for text in ('{"iters": 2.9}', '{"k": 1.5}', '{"iters": true}', '{"seed": "3"}',
                 '{"lr": false}', '{"tau": "0.5"}', '{"anchor": null}'):
        bad.write_text(text + "\n")
        assert main(["--config", str(bad), "make-toys", "--out", str(tmp_path / "m")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("shapescene: error:") and bad.name in err
        assert err.count("\n") == 1
    # JSON nested past the recursion limit, a float key set to an integer past
    # the float range, and an integer past Python's 4300-digit parse limit.
    for text in ('{"iters": ' + "[" * 100_000 + "]" * 100_000 + "}",
                 '{"lr": 1' + "0" * 400 + "}", '{"seed": 1' + "0" * 5000 + "}"):
        bad.write_text(text)
        assert main(["--config", str(bad), "make-toys", "--out", str(tmp_path / "m")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"shapescene: error: {bad}: ") and err.count("\n") == 1
    bad.write_bytes(b'{"iters": 3, "lr": 1, "anchor": 0.5}\xff\n')
    assert main(["--config", str(bad), "make-toys", "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"shapescene: error: {bad}: not UTF-8") and err.count("\n") == 1
    bad.write_text('{"iters": 3, "lr": 1, "anchor": 0.5}\n')
    config = load_config(bad)
    assert config == {"iters": 3, "lr": 1.0, "anchor": 0.5}
    assert type(config["lr"]) is float
    # No command reads tau or warmup, so a config may not set them.
    for key, text in (("tau", '{"tau": 0.5}'), ("warmup", '{"warmup": 0}')):
        bad.write_text(text + "\n")
        assert main(["--config", str(bad), "make-toys", "--out", str(tmp_path / "m")]) == 2
        err = capsys.readouterr().err
        assert f"unknown config key '{key}'" in err and err.count("\n") == 1


def test_malformed_files_exit_2(pipeline, tmp_path, capsys):
    # A NaN vertex, a face index past the vertex list and a face of two
    # vertices, each in build-db.
    for name, text in (("nan", "v 0 0 0\nv 1 0 nan\nv 0 1 0\nv 0 0 1\nf 1 2 3\n"),
                       ("index", "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 9\n"),
                       ("face", "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\nf 1 2\n")):
        meshes = tmp_path / name / "box"
        meshes.mkdir(parents=True)
        (meshes / "bad.obj").write_text(text)
        assert main(["build-db", "--meshes", str(meshes.parent),
                     "--out", str(tmp_path / name / "db"), "--k", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("shapescene: error:") and "bad.obj" in err
        assert err.count("\n") == 1
    # A source OBJ that is not UTF-8 text.
    meshes = tmp_path / "utf8" / "box"
    meshes.mkdir(parents=True)
    save_obj(meshes / "bad.obj", make_box())
    (meshes / "bad.obj").write_bytes(b"# \xff\n" + (meshes / "bad.obj").read_bytes())
    assert main(["build-db", "--meshes", str(meshes.parent),
                 "--out", str(tmp_path / "utf8" / "db"), "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert err == f"shapescene: error: {meshes / 'bad.obj'}: not UTF-8 text (invalid start byte at byte 2)\n"
    # A database whose first SDFG is cut to 100 bytes, read by gen-scenes.
    db = tmp_path / "db"
    shutil.copytree(pipeline / "db", db)
    sdfg = sorted(db.glob("*.sdfg"))[0]
    sdfg.write_bytes(sdfg.read_bytes()[:100])
    assert main(["gen-scenes", "--db", str(db), "--out", str(tmp_path / "scenes"),
                 "--count", "1", "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shapescene: error:") and sdfg.name in err
    assert err.count("\n") == 1


def test_empty_class_dir_exits_2(tmp_path, capsys):
    meshes = tmp_path / "meshes"
    (meshes / "box").mkdir(parents=True)
    (meshes / "cylinder").mkdir()
    save_obj(meshes / "cylinder" / "c.obj", make_box())
    assert main(["build-db", "--meshes", str(meshes), "--out", str(tmp_path / "db"),
                 "--k", "1"]) == 2
    assert capsys.readouterr().err == f"shapescene: error: {meshes / 'box'}: no .obj files\n"
    assert not (tmp_path / "db").exists()


def test_open_mesh_exits_2(tmp_path, capsys, open_box):
    (tmp_path / "meshes" / "box").mkdir(parents=True)
    save_obj(tmp_path / "meshes" / "box" / "open.obj", open_box)
    assert main(["build-db", "--meshes", str(tmp_path / "meshes"),
                 "--out", str(tmp_path / "db"), "--k", "1", "--res", "12"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shapescene: error: parity votes disagree") and err.count("\n") == 1
    assert not (tmp_path / "db").exists()


def test_open_mesh_error_names_the_file(tmp_path, capsys, open_box):
    meshes = tmp_path / "meshes"
    for cls in ("box", "lid"):
        (meshes / cls).mkdir(parents=True)
    save_obj(meshes / "box" / "closed.obj", make_box())
    save_obj(meshes / "lid" / "open.obj", open_box)
    assert main(["build-db", "--meshes", str(meshes), "--out", str(tmp_path / "db"),
                 "--k", "1", "--res", "12"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shapescene: error: parity votes disagree") and err.count("\n") == 1
    assert err.endswith(f"% of samples in {meshes / 'lid' / 'open.obj'}\n")


def test_two_open_meshes_name_the_earlier_file(tmp_path, capsys, affinity, open_box,
                                               open_cylinder):
    # The later open mesh is the smaller, so it runs later and finishes first.
    lid = tmp_path / "meshes" / "lid"
    lid.mkdir(parents=True)
    save_obj(lid / "a_open.obj", open_cylinder)
    save_obj(lid / "b_open.obj", open_box)
    save_obj(lid / "c_closed.obj", make_box())
    assert main(["build-db", "--meshes", str(tmp_path / "meshes"),
                 "--out", str(tmp_path / "db"), "--k", "1", "--res", "12"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shapescene: error: parity votes disagree") and err.count("\n") == 1
    assert err.endswith(f"% of samples in {lid / 'a_open.obj'}\n")
    assert not (tmp_path / "db").exists()


_BUILD = ["build-db", "--meshes", "no-meshes", "--out", "no-db"]
_GEN = ["gen-scenes", "--db", "no-db", "--out", "no-scenes", "--count", "1"]
_EVAL = ["evaluate", "--db", "no-db", "--pred", "p", "--gt", "g", "--metric", "map"]
_FIT = ["fit-pose", "--db", "no-db", "--gt", "g", "--out", "o"]
_RESOLVE = ["resolve", "--db", "no-db", "--scene", "s", "--out", "o"]


@pytest.mark.parametrize("argv, config", [
    (_BUILD + ["--k", "0"], None),
    (_BUILD + ["--k", "-1"], None),
    (_BUILD, {"k": 0}),
    (_BUILD + ["--res", "3"], None),
    (_BUILD, {"res": 4}),
    (_BUILD + ["--points", "0"], None),
    (_BUILD + ["--seed", "-1"], None),
    (_BUILD + ["--pre-rotate", "x,abc"], None),
    (_BUILD + ["--pre-rotate", "x,nan"], None),
    (_BUILD + ["--pre-rotate", "w,90"], None),
    (_BUILD + ["--normalization", "nan"], None),
    (_BUILD + ["--normalization", "-2"], None),
    (_BUILD + ["--normalization", "0"], None),
    (_BUILD + ["--normalization", "inf"], None),
    (_BUILD, {"normalization": -1.0}),
    (_GEN[:-1] + ["-1"], None),
    (_GEN + ["--seed", "-1"], None),
    (_GEN, {"seed": -3}),
    (_GEN + ["--objects", "a:b"], None),
    (_GEN + ["--objects", "3:2"], None),
    (_FIT + ["--seed", "-1"], None),
    (_FIT + ["--perturb-rot", "nan"], None),
    (_FIT + ["--perturb-rot", "-5"], None),
    (_FIT + ["--perturb-rot", "inf"], None),
    (_FIT + ["--perturb-trans", "-1"], None),
    (_FIT + ["--perturb-trans", "inf"], None),
    (_FIT + ["--perturb-scale", "inf"], None),
    (_FIT + ["--perturb-scale", "1"], None),
    (_FIT + ["--perturb-scale", "-0.1"], None),
    (_RESOLVE + ["--anchor", "-1"], None),
    (_RESOLVE + ["--anchor", "nan"], None),
    (_RESOLVE + ["--anchor", "inf"], None),
    (_RESOLVE, {"anchor": -0.5}),
    (_FIT + ["--lr", "0"], None),
    (_RESOLVE + ["--lr", "nan"], None),
    (_FIT + ["--iters", "0"], None),
    (_RESOLVE, {"lr": 0.0}),
    (_FIT, {"lr": float("nan")}),
    (_RESOLVE, {"iters": 0}),
    (_EVAL + ["--res", "0"], None),
    (_EVAL + ["--res", "-3"], None),
    (_EVAL, {"res": 0}),
    (_EVAL + ["--thresh", "nan"], None),
    (_EVAL + ["--thresh", "1.5"], None),
    (_EVAL, {"thresh": -0.1}),
    (["export", "--db", "no-db", "--scene", "s", "--out", "o", "--format", "sdfg",
      "--res", "0"], None),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_out_of_range_options_exit_1(tmp_path, capsys, argv, config):
    # The inputs do not exist: the value is rejected before any is read.
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = ["--config", str(tmp_path / "config.json")] + argv
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("shapescene: error: --") and err.count("\n") == 1


def _bad_scene(edit):
    def make(pipeline, tmp_path):
        payload = json.loads((pipeline / "scenes" / "scene_0000.json").read_text())
        scene = tmp_path / "bad_scene.json"
        scene.write_text(json.dumps(edit(payload)))
        return pipeline / "db", scene, scene
    return make


def _bad_scene_bytes(edit):
    def make(pipeline, tmp_path):
        scene = tmp_path / "bad_scene.json"
        scene.write_bytes(edit((pipeline / "scenes" / "scene_0000.json").read_bytes()))
        return pipeline / "db", scene, scene
    return make


def _deeply_nested(b: bytes) -> bytes:
    """A JSON object whose one value nests 100,000 arrays, past the recursion limit."""
    return b'{"seed": 0, "objects": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"


def _invalid_utf8(b: bytes) -> bytes:
    """`b` with its 20th byte replaced by 0xff, which no UTF-8 text holds."""
    return b[:20] + b"\xff" + b[21:]


def _first_r_entry_1e400(b: bytes) -> bytes:
    """The scene with its first R entry written as 1e400, which JSON reads as inf."""
    payload = json.loads(b)
    payload["objects"][0]["R"][0] = "BIG"
    return json.dumps(payload).replace('"BIG"', "1e400").encode()


def _four_by_ny_by_nz(b: bytes) -> bytes:
    """A valid SDFG of a 4 x ny x nz grid, cut from the nx x ny x nz one `b` holds."""
    ny, nz = struct.unpack("<2I", b[12:20])
    return b[:8] + struct.pack("<I", 4) + b[12:52 + 4 * ny * nz * 4]


def _bad_db(edit):
    def make(pipeline, tmp_path):
        db = tmp_path / "db"
        shutil.copytree(pipeline / "db", db)
        return db, pipeline / "scenes" / "scene_0000.json", edit(db)
    return make


def _set_first(key, value):
    def edit(payload):
        payload["objects"][0][key] = value
        return payload
    return edit


def _rewrite_first(pattern, edit):
    def apply(db):
        path = sorted(db.glob(pattern))[0]
        path.write_bytes(edit(path.read_bytes()))
        return path
    return apply


def _rewrite_every(pattern, edit):
    """Like _rewrite_first, but rewrites every file `pattern` matches."""
    def apply(db):
        paths = sorted(db.glob(pattern))
        for path in paths:
            path.write_bytes(edit(path.read_bytes()))
        return paths[0]
    return apply


def _rewrite_manifest(edit):
    def apply(db):
        manifest = db / "manifest.json"
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        return manifest
    return apply


def _first_class(rename):
    """A manifest edit renaming its first class c to rename(c)."""
    return _rewrite_manifest(
        lambda m: {**m, "classes": [rename(m["classes"][0]), *m["classes"][1:]]})


# Makers of (database dir, scene file, the malformed one of them).
MALFORMED_INPUTS = [
    pytest.param(_bad_scene(_set_first("R", [1.0, 0.1, 0, 0, 1, 0, 0, 0, 1])),
                 id="scene-non-orthogonal-R"),
    pytest.param(_bad_scene(_set_first("R", [float("nan")] * 9)), id="scene-NaN-R"),
    pytest.param(_bad_scene(_set_first("R", "identity")), id="scene-string-R"),
    pytest.param(_bad_scene(_set_first("s", [1.0, -0.5, 1.0])), id="scene-negative-scale"),
    pytest.param(_bad_scene(_set_first("t", [0.0, float("nan"), 0.0])), id="scene-NaN-t"),
    pytest.param(_bad_scene(lambda payload: payload["objects"]), id="scene-list"),
    pytest.param(_bad_scene(_set_first("exemplar", 0.5)), id="scene-fractional-exemplar"),
    pytest.param(_bad_scene(_set_first("class", 3)), id="scene-int-class"),
    pytest.param(_bad_scene(lambda payload: {**payload, "objects": {}}), id="scene-objects-dict"),
    # Booleans load as 0 and 1: each of these would be a valid scene.
    pytest.param(_bad_scene(lambda payload: {**payload, "seed": True}), id="scene-true-seed"),
    pytest.param(_bad_scene(_set_first("exemplar", True)), id="scene-true-exemplar"),
    pytest.param(_bad_scene(_set_first("R", [True, 0, 0, 0, True, 0, 0, 0, True])),
                 id="scene-true-diagonal-R"),
    pytest.param(_bad_scene(_set_first("t", [0.0, 0.0, False])), id="scene-false-t"),
    pytest.param(_bad_scene(_set_first("s", [True, True, True])), id="scene-true-s"),
    pytest.param(_bad_scene(_set_first("s", ["1", "1", "1"])), id="scene-string-s"),
    pytest.param(_bad_scene(_set_first("t", [10 ** 400, 0.0, 0.0])),
                 id="scene-t-past-float-range"),
    # JSON reads 1e400 as inf; the rotation check must not warn about it.
    pytest.param(_bad_scene_bytes(_first_r_entry_1e400), id="scene-R-1e400"),
    pytest.param(_bad_scene_bytes(_invalid_utf8), id="scene-invalid-utf8"),
    pytest.param(_bad_scene_bytes(_deeply_nested), id="scene-nested-100000-deep"),
    pytest.param(_bad_db(_rewrite_first("*.obj", _invalid_utf8)), id="db-obj-invalid-utf8"),
    pytest.param(_bad_db(_rewrite_first("manifest.json", _invalid_utf8)),
                 id="manifest-invalid-utf8"),
    pytest.param(_bad_db(_rewrite_first("*.pts", lambda b: b[:-5])),
                 id="db-truncated-points"),
    pytest.param(_bad_db(_rewrite_first(  # a valid file one point short of the others
        "*.pts", lambda b: struct.pack("<I", struct.unpack("<I", b[:4])[0] - 1) + b[4:-12])),
                 id="db-points-count-differs"),
    # Every cloud empty, so no point count differs from the first one's.
    pytest.param(_bad_db(_rewrite_every("*.pts", lambda b: struct.pack("<I", 0))),
                 id="db-points-all-empty"),
    pytest.param(_bad_db(_rewrite_first("*.obj", lambda b: b"v 0 0 0\nv 1 0 0\nv 0 1 0\n")),
                 id="db-obj-without-faces"),
    pytest.param(_bad_db(_rewrite_first("*.sdfg", lambda b: b"XXXX" + b[4:])),
                 id="db-sdfg-bad-magic"),
    pytest.param(_bad_db(_rewrite_first("*.sdfg", lambda b: b[:4] + struct.pack("<I", 9) + b[8:])),
                 id="db-sdfg-version-9"),
    # The header's f64 origin sits at bytes 20-44 and its spacing at 44-52.
    pytest.param(_bad_db(_rewrite_first(
        "*.sdfg", lambda b: b[:44] + struct.pack("<d", float("nan")) + b[52:])),
                 id="db-sdfg-nan-spacing"),
    pytest.param(_bad_db(_rewrite_first(
        "*.sdfg", lambda b: b[:28] + struct.pack("<d", float("inf")) + b[36:])),
                 id="db-sdfg-inf-origin"),
    # The header's u32 nx sits at bytes 8-12; the payload must match the header
    # exactly, and every grid must share the first one's shape, origin and spacing.
    pytest.param(_bad_db(_rewrite_first(
        "*.sdfg", lambda b: b[:8] + struct.pack("<I", 8) + b[12:])), id="db-sdfg-shrunk-nx"),
    pytest.param(_bad_db(_rewrite_first(
        "*.sdfg", lambda b: b[:20] + struct.pack("<d", struct.unpack("<d", b[20:28])[0] + 0.3)
        + b[28:])), id="db-sdfg-shifted-origin"),
    pytest.param(_bad_db(_rewrite_first("*.sdfg", _four_by_ny_by_nz)),
                 id="db-sdfg-grid-shape-differs"),
    pytest.param(_bad_db(_rewrite_first(
        "*.sdfg", lambda b: b[:44] + struct.pack("<d", struct.unpack("<d", b[44:52])[0] * 1.5)
        + b[52:])), id="db-sdfg-spacing-differs"),
    pytest.param(_bad_db(_rewrite_first("*.sdfg", lambda b: b + b"\0")),
                 id="db-sdfg-trailing-bytes"),
    pytest.param(_bad_db(_rewrite_first("*.pts", lambda b: b + bytes(12))),
                 id="db-points-trailing-bytes"),
    pytest.param(_bad_db(_rewrite_manifest(
        lambda m: {k: v for k, v in m.items() if k != "k_per_class"})), id="manifest-without-k"),
    pytest.param(_bad_db(_rewrite_manifest(lambda m: [m])), id="manifest-list"),
    pytest.param(_bad_db(_rewrite_manifest(lambda m: {**m, "version": True})),
                 id="manifest-true-version"),
    pytest.param(_bad_db(_rewrite_manifest(lambda m: {**m, "k_per_class": True})),
                 id="manifest-true-k"),
    pytest.param(_bad_db(_rewrite_manifest(lambda m: {**m, "normalization": False})),
                 id="manifest-false-normalization"),
    pytest.param(_bad_db(_rewrite_first("manifest.json", _deeply_nested)),
                 id="manifest-nested-100000-deep"),
    # Each class name stems its entries' file names inside the database.
    pytest.param(_bad_db(_first_class(lambda c: "../outside/" + c)),
                 id="manifest-class-outside-db"),
    pytest.param(_bad_db(_first_class(lambda c: "..")), id="manifest-class-dot-dot"),
    pytest.param(_bad_db(_first_class(lambda c: "")), id="manifest-class-empty"),
    pytest.param(_bad_db(_first_class(lambda c: c + "\0")), id="manifest-class-nul"),
    pytest.param(_bad_db(_rewrite_manifest(
        lambda m: {**m, "classes": m["classes"][:1] * 2 + m["classes"][2:]})),
                 id="manifest-duplicate-class"),
]


@pytest.mark.parametrize("make", MALFORMED_INPUTS)
def test_malformed_input_exits_2(pipeline, tmp_path, capsys, make):
    db, scene, bad = make(pipeline, tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print more stderr lines
        assert main(["resolve", "--db", str(db), "--scene", str(scene),
                     "--out", str(tmp_path / "out.json"), "--iters", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shapescene: error:") and bad.name in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


def test_labels_of_a_rotation_entry_of_1e308_exits_2(pipeline, tmp_path, capsys):
    # The orthogonality check rejects the entry before R^T R can overflow.
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(_set_first("R", [1.0, 0, 0, 0, 1e308, 0, 0, 0, 1])(
        json.loads((pipeline / "scenes" / "scene_0000.json").read_text()))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print more stderr lines
        assert main(["labels", "--db", str(pipeline / "db"), "--scene", str(scene),
                     "--out", str(tmp_path / "labels.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shapescene: error:") and "magnitude is above 2" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "labels.json").exists()


def test_unallocatable_grid_exits_2(pipeline, tmp_path, capsys):
    db, scene = str(pipeline / "db"), str(pipeline / "scenes" / "scene_0000.json")
    for argv, message in (
        # An EiB-scale grid, past any address space: numpy's allocation fails at once.
        (["evaluate", "--db", db, "--pred", scene, "--gt", scene, "--metric", "iou",
          "--res", "2000000"], "Unable to allocate"),
        # Past what numpy can index: refused before any allocation.
        (["export", "--db", db, "--scene", scene, "--out", str(tmp_path / "out"),
          "--format", "sdfg", "--res", "10000000"], "voxel grid is too large to allocate"),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("shapescene: error: ") and message in err and err.count("\n") == 1


def _json_of_each_type(rng):
    """An int, a string, null, a list and a dict, drawn from `rng`, then a
    boolean and a list that would be a valid t or s if true were 1."""
    return [
        int(rng.integers(-3, 10)),
        "".join(rng.choice(list("abcxyz"), size=int(rng.integers(0, 6)))),
        None,
        [float(x) for x in rng.normal(size=int(rng.integers(0, 10)))],
        {str(rng.choice(list("abc"))): float(rng.normal())},
        True,
        [1.0, True, 1.0],
    ]


def _holds_bool(value) -> bool:
    return isinstance(value, bool) or (
        isinstance(value, list) and any(isinstance(v, bool) for v in value))


def test_scene_type_swap_fuzz(pipeline, tmp_path, capsys):
    """Every field of one object, and `seed` and `objects`, swapped in turn
    for a value of each JSON type, as the scene of `resolve` and as either
    side of `evaluate --metric map`: every run exits 0, 1 or 2 with at most
    one line on stderr and no traceback, and exits 2 if the value holds a
    JSON boolean."""
    rng = np.random.default_rng(2024)
    source = pipeline / "scenes" / "scene_0000.json"
    original = json.loads(source.read_text())
    scene = tmp_path / "swapped.json"
    edits = [(key, value, _set_first(key, value))
             for key in ("class", "exemplar", "R", "t", "s")
             for value in _json_of_each_type(rng)]
    for key in ("seed", "objects"):
        edits += [(key, value, lambda p, k=key, v=value: {**p, k: v})
                  for value in _json_of_each_type(rng)]
    evaluate = ["evaluate", "--db", str(pipeline / "db"), "--metric", "map",
                "--out", str(tmp_path / "report.json")]
    for key, value, edit in edits:
        scene.write_text(json.dumps(edit(json.loads(json.dumps(original)))))
        for argv in (["resolve", "--db", str(pipeline / "db"), "--scene", str(scene),
                      "--out", str(tmp_path / "out.json"), "--iters", "1"],
                     evaluate + ["--pred", str(scene), "--gt", str(source)],
                     evaluate + ["--pred", str(source), "--gt", str(scene)]):
            code = main(argv)
            err = capsys.readouterr().err
            context = f"{argv[0]} with {key} = {scene.read_text()!r}: exit {code}, {err!r}"
            assert code in ((2,) if _holds_bool(value) else (0, 1, 2)), context
            assert err.count("\n") <= 1 and "Traceback" not in err, context


def _mutations(data: bytes, rng, count: int):
    """`count` mutations of `data`, drawn from `rng`: a truncation one time in
    four, else 1-4 bytes with one bit flipped in each (a digit often stays one)."""
    for _ in range(count):
        if rng.random() < 0.25:
            yield data[:int(rng.integers(len(data)))]
        else:
            out = bytearray(data)
            for pos in rng.integers(len(data), size=int(rng.integers(1, 5))):
                out[pos] ^= 1 << int(rng.integers(8))
            yield bytes(out)


def test_mutation_fuzz(pipeline, tmp_path, capsys):
    """Seeded truncations and byte flips of every input file type (after
    Miller, Fredriksen and So, CACM 1990), each run through a command that
    reads it: every run exits 0, 1 or 2 with at most one line on stderr, and
    an exception that escapes `main` fails the test."""
    db = tmp_path / "db"
    shutil.copytree(pipeline / "db", db)
    scene = tmp_path / "scene.json"
    shutil.copy(pipeline / "scenes" / "scene_0000.json", scene)
    config = tmp_path / "config.json"
    # No spaces: a flipped space could lengthen a number into a slow run.
    config.write_text('{"iters":1,"lr":0.01,"anchor":1.0}')
    source = tmp_path / "meshes" / "box" / "box.obj"
    source.parent.mkdir(parents=True)
    save_obj(source, make_box())
    resolve = ["--config", str(config), "resolve", "--db", str(db), "--scene", str(scene),
               "--out", str(tmp_path / "out.json")]
    evaluate = ["evaluate", "--db", str(db), "--pred", str(scene), "--gt", str(scene),
                "--metric", "iou", "--res", "12"]
    build = ["build-db", "--meshes", str(source.parent.parent), "--out", str(tmp_path / "built"),
             "--k", "1", "--res", "8", "--points", "8"]
    first = lambda pattern: sorted(db.glob(pattern))[0]  # noqa: E731
    targets = [(scene, resolve), (scene, evaluate), (config, resolve),
               (db / "manifest.json", resolve), (first("*.obj"), evaluate),
               (first("*.sdfg"), resolve), (first("*.pts"), resolve), (source, build)]
    rng = np.random.default_rng(1990)
    codes = []
    for path, argv in targets:
        original = path.read_bytes()
        for data in _mutations(original, rng, 40):
            path.write_bytes(data)
            codes.append(main(argv))
            err = capsys.readouterr().err
            context = f"{argv} on {path.name} = {data[:200]!r}: exit {codes[-1]}, {err!r}"
            assert codes[-1] in (0, 1, 2) and err.count("\n") <= 1, context
        path.write_bytes(original)
    assert 0 in codes and 2 in codes  # some mutations parse and run, some are caught


def test_out_of_range_exemplar_exits_2(pipeline, tmp_path, capsys):
    payload = json.loads((pipeline / "scenes" / "scene_0000.json").read_text())
    for bad in (2, -1):  # the database holds exemplars 0 and 1 per class
        payload["objects"][0]["exemplar"] = bad
        scene = tmp_path / "bad_scene.json"
        scene.write_text(json.dumps(payload))
        assert main(["labels", "--db", str(pipeline / "db"), "--scene", str(scene),
                     "--out", str(tmp_path / "labels.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("shapescene: error: exemplar") and err.count("\n") == 1


def test_empty_scene_fit_and_resolve_exit_0(pipeline, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"seed": 4, "objects": []}))
    db = str(pipeline / "db")
    assert main(["fit-pose", "--db", db, "--gt", str(empty), "--out", str(tmp_path / "fit.json"),
                 "--trace", str(tmp_path / "fit.csv"), "--iters", "5"]) == 0
    assert load_scene(tmp_path / "fit.json").objects == ()
    assert (tmp_path / "fit.csv").read_text().splitlines() == ["iteration,pose,total", "0,0.0,0.0"]
    # resolve converges at once: no collision loss to descend.
    out, trace = tmp_path / "res.json", tmp_path / "res.csv"
    assert main(["resolve", "--db", db, "--scene", str(empty), "--out", str(out),
                 "--trace", str(trace), "--iters", "5"]) == 0
    assert load_scene(out).objects == ()
    assert trace.read_text().splitlines() == ["iteration,collision,anchor,total", "0,0.0,0.0,0.0"]


def _overlapping_scene(pipeline, tmp_path):
    """The fixture's first scene with every object moved onto the first one's
    position, so that they collide; returns its path and its JSON payload."""
    payload = json.loads((pipeline / "scenes" / "scene_0000.json").read_text())
    for k, o in enumerate(payload["objects"]):
        o["t"] = list(np.add(payload["objects"][0]["t"], [0.1 * k, 0.0, 0.0]))
    scene = tmp_path / "overlapping.json"
    scene.write_text(json.dumps(payload))
    return scene, payload


@pytest.mark.parametrize("argv, code", [
    (["fit-pose", "--lr", "1e300"], 2),
    (["fit-pose", "--perturb-trans", "1e300"], 2),
    (["resolve", "--lr", "1e300"], 2),
    # The initial positions are the anchored optimum: Adam's second moment
    # overflows to inf, every step is exactly 0, and resolve keeps the input.
    (["resolve", "--anchor", "1e300"], 0),
])
def test_overflow_in_descent_prints_one_line(pipeline, tmp_path, capsys, argv, code):
    scene, payload = _overlapping_scene(pipeline, tmp_path)
    cmd, *flags = argv
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print more stderr lines
        assert main([cmd, "--db", str(pipeline / "db"),
                     "--gt" if cmd == "fit-pose" else "--scene", str(scene),
                     "--out", str(out), "--iters", "20", *flags]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("shapescene: error:") and err.count("\n") == 1
    else:
        assert err == ""
        assert [o.pose.t.tolist() for o in load_scene(out).objects] \
            == [o["t"] for o in payload["objects"]]


def _posed_scene(pipeline, tmp_path, *edits):
    """The fixture's first scene with edits[k] updating the pose entries of
    object k; returns its path."""
    payload = json.loads((pipeline / "scenes" / "scene_0000.json").read_text())
    for o, edit in zip(payload["objects"], edits):
        o.update(edit)
    scene = tmp_path / "posed.json"
    scene.write_text(json.dumps(payload))
    return scene


@pytest.mark.parametrize("edit, message", [
    # Translation plus half the scale overflows: the posed vertices are inf.
    ({"t": [1.7e308, 0.0, 0.0], "s": [1e308, 1e308, 1.0]},
     "the posed meshes span more than the float range"),
    # Every posed vertex is finite, but the containment test's products of a
    # line's offset and an edge, about 1e308 each, are not.
    ({"s": [1e308, 1.0, 1.0]}, "a posed mesh and its voxels are too large to rasterise in floats"),
], ids=["translation", "scale"])
@pytest.mark.parametrize("argv", [["evaluate", "--metric", "iou"],
                                  ["evaluate", "--metric", "miv"],
                                  ["export", "--format", "sdfg"]])
def test_posed_meshes_past_the_float_range_exit_2(pipeline, tmp_path, capsys, argv, edit,
                                                  message):
    scene = _posed_scene(pipeline, tmp_path, edit)
    cmd, *flags = argv
    files = (["--pred", str(scene), "--gt", str(scene)] if cmd == "evaluate"
             else ["--scene", str(scene), "--out", str(tmp_path / "out")])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print more stderr lines
        assert main([cmd, "--db", str(pipeline / "db"), *files, *flags]) == 2
    assert capsys.readouterr().err == f"shapescene: error: {message}\n"


@pytest.mark.parametrize("factor, code", [(1e146, 0), (1e147, 2)])
def test_iou_of_a_scene_scaled_up_to_the_float_range(pipeline, tmp_path, capsys, factor, code):
    # Every translation and scale times `factor`. The largest object's E (E +
    # spacing) at --res 32 is 1.12 factor^2, so the containment bound of
    # 2.2e292 admits 1e146 (1.1e292) and rejects 1e147. Inside it, the scene
    # scores 1 against itself with no overflow.
    payload = json.loads((pipeline / "scenes" / "scene_0000.json").read_text())
    for o in payload["objects"]:
        o["t"], o["s"] = [factor * x for x in o["t"]], [factor * x for x in o["s"]]
    scene = tmp_path / "scaled.json"
    scene.write_text(json.dumps(payload))
    report = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print more stderr lines
        assert main(["evaluate", "--db", str(pipeline / "db"), "--pred", str(scene),
                     "--gt", str(scene), "--metric", "iou", "--res", "32",
                     "--out", str(report)]) == code
    err = capsys.readouterr().err
    if code:
        assert err == ("shapescene: error: a posed mesh and its voxels are too large to "
                       "rasterise in floats\n")
    else:
        assert err == ""
        assert json.loads(report.read_text())["mean"] == 1.0


@pytest.mark.parametrize("edit", [{"t": [1e308, 0.0, 0.0]}, {"t": [-1e308, 0.0, 0.0]},
                                  {"t": [1.7e308, 0.0, 0.0], "s": [1e308, 1e308, 1.0]}],
                         ids=["t+1e308", "t-1e308", "posed_inf"])
@pytest.mark.parametrize("fmt", ["ply", "pts", "obj"])
def test_export_past_the_float_range(pipeline, tmp_path, capsys, fmt, edit):
    # A posed coordinate of 1e308 fits the float64 OBJ text, not the float32
    # PLY and PTS payloads; a posed inf fits none. Neither writes a file.
    scene = _posed_scene(pipeline, tmp_path, edit)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print more stderr lines
        code = main(["export", "--db", str(pipeline / "db"), "--scene", str(scene),
                     "--out", str(out), "--format", fmt])
    err = capsys.readouterr().err
    if "s" in edit:
        assert (code, err) == (
            2, "shapescene: error: object 0: a posed coordinate is past the float range\n")
    elif fmt == "obj":
        assert (code, err) == (0, "")
        assert np.isfinite(load_obj(out / "object_000.obj").vertices).all()
        return
    else:
        assert (code, err) == (
            2, f"shapescene: error: {out / f'object_000.{fmt}'}: a coordinate is past the "
               "float32 range\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("edits", [
    # Object 0's offsets from the others overflow to inf: its box overlaps no
    # other, and its points sample outside every other field.
    ({"t": [1.7e308, 0.0, 0.0]},),
    # Objects 0 and 1 are an inf apart, and inf * 0 in the rotation products
    # makes NaN offsets, which sample outside every field too.
    ({"t": [1.7e308, 0.0, 0.0]}, {"t": [-1.7e308, 0.0, 0.0]}),
], ids=["one_far", "two_far_apart"])
@pytest.mark.parametrize("argv", [["evaluate", "--metric", "map"], ["resolve", "--iters", "2"]])
def test_translation_past_the_float_range_is_silent(pipeline, tmp_path, capsys, argv, edits):
    scene = _posed_scene(pipeline, tmp_path, *edits)
    cmd, *flags = argv
    out = tmp_path / "out.json"
    files = ["--pred", str(scene), "--gt", str(scene)] if cmd == "evaluate" else ["--scene", str(scene)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print more stderr lines
        assert main([cmd, "--db", str(pipeline / "db"), *files, "--out", str(out), *flags]) == 0
    assert capsys.readouterr().err == ""
    if cmd == "evaluate":
        assert json.loads(out.read_text())["map"] == 1.0  # every box matches itself
    else:
        resolved = load_scene(out).objects
        assert [o.pose.t.tolist() for o in resolved[:len(edits)]] == [e["t"] for e in edits]


def test_resolve_scale_past_the_float_range_is_silent(pipeline, tmp_path, capsys):
    # Object 0's maps into the frames of the others, s_0 / s_j, overflow to
    # inf: its points sample outside every other field.
    scene = _posed_scene(pipeline, tmp_path, {"s": [1e308, 1.0, 1.0]})
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print more stderr lines
        assert main(["resolve", "--db", str(pipeline / "db"), "--scene", str(scene),
                     "--out", str(out), "--iters", "3"]) == 0
    assert capsys.readouterr().err == ""
    objects = json.loads(out.read_text())["objects"]
    assert np.all(np.isfinite([x for o in objects for key in ("R", "t", "s") for x in o[key]]))
    assert objects[0]["s"] == [1e308, 1.0, 1.0]


@pytest.mark.parametrize("edits, code, collisions", [
    # One object 1e200 away: voxels of ~1e198, a volume past the float range,
    # but no pair collides.
    (({"t": [1e200, 0.0, 0.0]},), 0, 0),
    # Two coinciding objects of scale 1e102 collide in about 1e306 units^3;
    # at scale 1e103 their volume is past the float range.
    (({"t": [0.0, 0.0, 0.0], "s": [1e102] * 3},) * 2, 0, 1),
    (({"t": [0.0, 0.0, 0.0], "s": [1e103] * 3},) * 2, 2, None),
])
def test_miv_of_a_scene_past_the_float_range(pipeline, tmp_path, capsys, edits, code, collisions):
    scene = _posed_scene(pipeline, tmp_path, *edits)
    report = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print more stderr lines
        assert main(["evaluate", "--db", str(pipeline / "db"), "--pred", str(scene),
                     "--gt", str(scene), "--metric", "miv", "--out", str(report)]) == code
    err = capsys.readouterr().err
    if code:
        assert err == "shapescene: error: the mean intersecting volume is past the float range\n"
        assert not report.exists()
    else:
        assert err == ""
        result = json.loads(report.read_text())
        assert result["collisions"] == collisions
        assert (result["miv"] == 0.0) == (collisions == 0) and np.isfinite(result["miv"])


@pytest.mark.parametrize("s, code", [
    # A volume of 1e616, past the float range.
    ([1e308, 1e308, 1.0], 2),
    # A volume of 1e-600, below it; box IoU is scale-free, so every box
    # still matches itself.
    ([1e-200] * 3, 0),
])
def test_map_of_a_box_past_the_float_range(pipeline, tmp_path, capsys, s, code):
    scene = _posed_scene(pipeline, tmp_path, {"t": [0.0, 0.0, 0.0], "s": s})
    report = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print more stderr lines
        assert main(["evaluate", "--db", str(pipeline / "db"), "--pred", str(scene),
                     "--gt", str(scene), "--metric", "map", "--out", str(report)]) == code
    err = capsys.readouterr().err
    if code:
        assert err == "shapescene: error: a box's sides span more than the float range\n"
        assert not report.exists()
    else:
        assert err == ""
        assert json.loads(report.read_text())["map"] == 1.0


# Edge values of every numeric flag; an int flag takes the ones that parse as
# int. Each flag adds its own range ends below.
_FLOAT_EDGES = ("0", "-0.0", "5e-324", "1e-300", "1e300", "1.7e308", str(2**63),
                "1.7976931348623157e308", "-5e-324", "-1e300", "inf", "-inf", "nan")
_INT_EDGES = ("0", "-0", "1", "-1", str(2**63), str(2**63 - 1), str(-2**63))
# --iters keeps its budget at most 3, so that no case runs long.
_ITERS_EDGES = ("0", "-0", "1", "3", "-1", str(-2**63))
# The other budget flags take small values, or sizes that no array can have,
# which fail before anything is allocated; never a size the OS might grant
# lazily.
_BUDGET_EDGES = ("0", "-0", "1", "2", "-1", str(2**63 - 1), str(2**63), str(-2**63))
_FLAG_EDGES = {
    "fit-pose": {"--lr": _FLOAT_EDGES, "--perturb-trans": _FLOAT_EDGES,
                 "--perturb-rot": _FLOAT_EDGES + ("360", "360.00000000000006"),
                 "--perturb-scale": _FLOAT_EDGES + ("1", "0.9999999999999999"),
                 "--seed": _INT_EDGES, "--iters": _ITERS_EDGES},
    "resolve": {"--lr": _FLOAT_EDGES, "--anchor": _FLOAT_EDGES, "--iters": _ITERS_EDGES},
    # Each database that builds is then labelled (see test_flag_edge_values).
    "build-db": {"--k": _BUDGET_EDGES, "--seed": _INT_EDGES,
                 "--res": _BUDGET_EDGES + ("4", "5"), "--points": _BUDGET_EDGES,
                 "--normalization": _FLOAT_EDGES},
    # Not --objects 2**63 - 1: it is a valid count that places objects until
    # the ground is full, seconds later.
    "gen-scenes": {"--count": _BUDGET_EDGES, "--seed": _INT_EDGES,
                   "--objects": ("0", "-1", "1", "2", "2:1", "1:2", ":", "1:", str(2**63),
                                 f"1:{2**63}", f"{2**63}:{2**63}")},
    "evaluate": {"--res": _BUDGET_EDGES, "--thresh": _FLOAT_EDGES},
    "export": {"--res": _BUDGET_EDGES},
}
_SMALL_DB = ["--k", "1", "--res", "8", "--points", "16"]


def _fuzz_argv(cmd, flag, pipeline, scene, tmp_path) -> list[str]:
    """`cmd`'s inputs and outputs and small budgets, which a later `flag`
    overrides (argparse keeps a flag's last value)."""
    db, out = str(pipeline / "db"), str(tmp_path / cmd)
    return [cmd] + {
        "fit-pose": ["--db", db, "--gt", str(scene), "--out", out, "--iters", "3"],
        "resolve": ["--db", db, "--scene", str(scene), "--out", out, "--iters", "3"],
        "build-db": ["--meshes", str(pipeline / "meshes"), "--out", out, *_SMALL_DB],
        "gen-scenes": ["--db", db, "--out", out, "--count", "1", "--objects", "1"],
        "evaluate": ["--db", db, "--pred", str(pipeline / "scenes"),
                     "--gt", str(pipeline / "scenes"), "--res", "2",
                     "--metric", "map" if flag == "--thresh" else "iou"],
        "export": ["--db", db, "--scene", str(scene), "--out", out, "--format", "sdfg",
                   "--res", "2"],
    }[cmd]


def _no_constant(name):
    raise ValueError(f"{name} in a JSON output")


def _run_quietly(argv, capsys) -> int:
    """main's exit code; asserts it is 0, 1 or 2 with at most one line on
    stderr and no NumPy warning. An exception other than argparse's exit that
    escapes `main` fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print more stderr lines
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2) and err.count("\n") <= int(code != 0), \
        f"{' '.join(argv)}: exit {code}, {err!r}"
    return code


def test_flag_edge_values(pipeline, tmp_path, capsys):
    """Each numeric flag of every command at its edge values, then at seeded
    random values over the whole double range (float flags), on a scene of
    colliding objects; `labels`, which has no numeric flag, labels a scene on
    every database a build-db case builds. Every run exits 0, 1 or 2 with at
    most one line on stderr and no NumPy warning, and labels write JSON
    without NaN or infinity."""
    scene, payload = _overlapping_scene(pipeline, tmp_path)
    for o in payload["objects"]:
        o["exemplar"] = 0  # build-db cases build one exemplar per class
    labelled = tmp_path / "labelled.json"
    labelled.write_text(json.dumps(payload))
    rng = np.random.default_rng(1990)
    codes = {}
    for cmd, flags in _FLAG_EDGES.items():
        for flag, edges in flags.items():
            values = list(edges)
            if "nan" in edges:  # a float flag
                values += [repr(float(sign * 10.0 ** rng.uniform(-323, 308)))
                           for sign in rng.choice([-1.0, 1.0], size=3)]
            for value in values:
                argv = _fuzz_argv(cmd, flag, pipeline, scene, tmp_path) + [flag, value]
                code = _run_quietly(argv, capsys)
                codes.setdefault(cmd, set()).add(code)
                if cmd == "build-db" and code == 0:
                    out = tmp_path / "labels.json"
                    codes.setdefault("labels", set()).add(_run_quietly(
                        ["labels", "--db", str(tmp_path / cmd), "--scene", str(labelled),
                         "--out", str(out)], capsys))
                    json.loads(out.read_text(), parse_constant=_no_constant)
                    shutil.rmtree(tmp_path / cmd)
    assert codes == {"fit-pose": {0, 1, 2}, "resolve": {0, 1, 2}, "build-db": {0, 1, 2},
                     "labels": {0}, "gen-scenes": {0, 1, 2}, "evaluate": {0, 1, 2},
                     "export": {0, 1, 2}}


@pytest.mark.parametrize("norm", ["5e-324", "1e-300", "1e-160"])
def test_labels_on_a_tiny_normalization(pipeline, tmp_path, capsys, norm):
    """Under a normalization whose scaled SDFs overflow, every label other
    than the object's own exemplar is 0, with no NaN and no warning."""
    scene, db, out = tmp_path / "scene.json", tmp_path / "db", tmp_path / "labels.json"
    save_scene(scene, Scene(0, (PlacedObject("box", 0, Pose9DoF()),)))
    assert _run_quietly(["build-db", "--meshes", str(pipeline / "meshes"),
                         "--out", str(db), *_SMALL_DB, "--normalization", norm],
                        capsys) == 0
    assert _run_quietly(["labels", "--db", str(db), "--scene", str(scene),
                         "--out", str(out)], capsys) == 0
    labels = json.loads(out.read_text(), parse_constant=_no_constant)
    assert labels["objects"][0]["soft"] == [1.0, 0.0]


_TOO_LARGE = {"--count": "{} scenes are too many to allocate",
              "--points": "{} surface points are too many to allocate",
              "--res": "a {}^3 SDF grid is too large to allocate"}


@pytest.mark.parametrize("cmd, flag", [("gen-scenes", "--count"), ("build-db", "--points"),
                                       ("build-db", "--res")])
@pytest.mark.parametrize("value", [2**63 - 1, 2**63])
def test_size_past_the_address_space_exits_2(pipeline, tmp_path, capsys, cmd, flag, value):
    """A count or resolution whose array numpy could not address is refused
    where the size is formed, in one line and before anything is written."""
    argv = _fuzz_argv(cmd, flag, pipeline, None, tmp_path) + [flag, str(value)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"shapescene: error: {_TOO_LARGE[flag].format(value)}\n"
    assert not (tmp_path / cmd).exists()


@pytest.mark.parametrize("spec", [str(2**63), f"1:{2**63}", f"{2**63}:{2**63}"])
def test_objects_past_int64_is_a_usage_error(pipeline, tmp_path, capsys, spec):
    """gen-scenes draws each scene's object count as an int64, so a bound
    past its range is a usage error (exit 1), not a NumPy traceback."""
    argv = _fuzz_argv("gen-scenes", "--objects", pipeline, None, tmp_path) + ["--objects", spec]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"shapescene: error: --objects: bad range '{spec}'\n"
    assert not (tmp_path / "gen-scenes").exists()


def test_config_flag_precedence(pipeline, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"k": 3, "seed": 42, "res": 24, "points": 256}\n')
    # Flag overrides the config's k = 3.
    assert main(["--config", str(cfg), "build-db",
                 "--meshes", str(pipeline / "meshes"),
                 "--out", str(tmp_path / "db"), "--k", "2"]) == 0
    db = load_database(tmp_path / "db")
    assert db.k_per_class == 2


def _files(directory) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_build_db_pre_rotate_matches_rotated_inputs(pipeline, tmp_path):
    rot = rotation_about_axis(np.eye(3)[0], np.deg2rad(90.0))
    rotated = tmp_path / "rotated"
    for src in sorted((pipeline / "meshes").glob("*/*.obj")):
        mesh = load_obj(src)
        (rotated / src.parent.name).mkdir(parents=True, exist_ok=True)
        save_obj(rotated / src.parent.name / src.name,
                 TriMesh(mesh.vertices @ rot.m.T, mesh.triangles))
    for meshes, out, extra in ((pipeline / "meshes", "pre", ["--pre-rotate", "x,90"]),
                               (rotated, "post", []), (pipeline / "meshes", "plain", [])):
        assert main(["build-db", "--meshes", str(meshes), "--out", str(tmp_path / out)]
                    + _SMALL_DB + extra) == 0
    assert _files(tmp_path / "pre") == _files(tmp_path / "post")
    assert _files(tmp_path / "pre") != _files(tmp_path / "plain")


def test_build_db_normalization_override(pipeline, tmp_path):
    scene = tmp_path / "scene.json"
    save_scene(scene, Scene(0, (PlacedObject("box", 0, Pose9DoF()),)))
    soft = {}
    for out, extra in (("default", []), ("override", ["--normalization", "2.5"])):
        db = tmp_path / out
        assert main(["build-db", "--meshes", str(pipeline / "meshes"), "--out", str(db)]
                    + _SMALL_DB + extra) == 0
        assert main(["labels", "--db", str(db), "--scene", str(scene),
                     "--out", str(tmp_path / f"{out}.json")]) == 0
        soft[out] = json.loads((tmp_path / f"{out}.json").read_text())["objects"][0]["soft"]
    norm = {out: json.loads((tmp_path / out / "manifest.json").read_text())["normalization"]
            for out in soft}
    assert norm == {"default": 8 ** 1.5, "override": 2.5}
    default, override = _files(tmp_path / "default"), _files(tmp_path / "override")
    del default["manifest.json"], override["manifest.json"]
    assert default == override  # only the divisor differs
    db = load_database(tmp_path / "override")
    phi = db.entry(0, 0).sdf.values
    assert soft["override"] == pytest.approx(
        [max(1.0 - np.linalg.norm(phi - e.sdf.values) / 2.5, 0.0) for e in db.entries])
    assert soft["override"] != pytest.approx(soft["default"])


def test_fit_pose_from_init_file(pipeline, tmp_path, capsys):
    gt_path = pipeline / "scenes" / "scene_0000.json"
    gt = load_scene(gt_path)
    # The initial scene fit-pose --seed 3 draws itself with its default perturbation.
    init = Scene(gt.seed, tuple(
        PlacedObject(o.class_name, o.exemplar,
                     perturb_pose(o.pose, 10.0, 0.1, 0.1, seed=3 + 7 * k))
        for k, o in enumerate(gt.objects)))
    save_scene(tmp_path / "init.json", init)
    fit = ["fit-pose", "--db", str(pipeline / "db"), "--gt", str(gt_path), "--iters", "20"]
    assert main(fit + ["--seed", "3", "--out", str(tmp_path / "a.json"),
                       "--trace", str(tmp_path / "a.csv")]) == 0
    assert main(fit + ["--init", str(tmp_path / "init.json"), "--out", str(tmp_path / "b.json"),
                       "--trace", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    capsys.readouterr()
    short = tmp_path / "short.json"
    save_scene(short, Scene(gt.seed, init.objects[:-1]))
    assert main(fit + ["--init", str(short), "--out", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"shapescene: error: {short}: object count differs from {gt_path}\n"
    assert not (tmp_path / "c.json").exists()
    # Another exemplar's cloud would be fitted to each object's target, point by point.
    shifted = tmp_path / "shifted.json"
    save_scene(shifted, Scene(gt.seed, tuple(
        PlacedObject(o.class_name, 1 - o.exemplar, o.pose) for o in init.objects)))
    assert main(fit + ["--init", str(shifted), "--out", str(tmp_path / "c.json")]) == 2
    o = gt.objects[0]
    assert capsys.readouterr().err == (
        f"shapescene: error: {shifted}: object 0 is not {o.class_name} exemplar "
        f"{o.exemplar} as in {gt_path}\n")
    assert not (tmp_path / "c.json").exists()


def test_fit_pose_freeze_from_init_file(pipeline, tmp_path):
    gt_path = pipeline / "scenes" / "scene_0000.json"
    gt = load_scene(gt_path)
    save_scene(tmp_path / "init.json", Scene(gt.seed, tuple(
        PlacedObject(o.class_name, o.exemplar,
                     perturb_pose(o.pose, 10.0, 0.1, 0.1, seed=5 + 7 * k))
        for k, o in enumerate(gt.objects))))
    assert main(["fit-pose", "--db", str(pipeline / "db"), "--gt", str(gt_path),
                 "--init", str(tmp_path / "init.json"), "--out", str(tmp_path / "fit.json"),
                 "--iters", "20", "--freeze", "rot", "--freeze", "scale"]) == 0
    init, fit = load_scene(tmp_path / "init.json"), load_scene(tmp_path / "fit.json")
    # The frozen raw matrices still pass through the final projection, as one stack.
    rotations = project_to_so3(np.stack([o.pose.r.m for o in init.objects]))
    for a, b, r in zip(init.objects, fit.objects, rotations):
        assert np.array_equal(b.pose.s, a.pose.s)
        assert b.pose.r.m.tobytes() == r.tobytes()
        assert not np.array_equal(b.pose.t, a.pose.t)


def test_export_obj(pipeline, tmp_path):
    scene_path = pipeline / "scenes" / "scene_0000.json"
    assert main(["export", "--db", str(pipeline / "db"), "--scene", str(scene_path),
                 "--out", str(tmp_path), "--format", "obj"]) == 0
    db = load_database(pipeline / "db")
    scene = load_scene(scene_path)
    assert len(list(tmp_path.glob("*.obj"))) == len(scene.objects)
    for k, o in enumerate(scene.objects):
        entry = shape_entry(db, o)
        posed = load_obj(tmp_path / f"object_{k:03d}.obj")
        assert np.array_equal(posed.vertices, apply_pose(o.pose, entry.mesh.vertices))
        assert np.array_equal(posed.triangles, entry.mesh.triangles)


def test_evaluate_missing_or_empty_pred_exits_2(pipeline, tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    for pred, reason in ((tmp_path / "missing.json", "no such file"),
                         (tmp_path / "empty", "no scene JSON files")):
        assert main(["evaluate", "--db", str(pipeline / "db"), "--pred", str(pred),
                     "--gt", str(pipeline / "scenes"), "--metric", "map"]) == 2
        assert capsys.readouterr().err == f"shapescene: error: {pred}: {reason}\n"


def test_missing_database_file_exits_2(pipeline, tmp_path, capsys):
    db = tmp_path / "db"
    shutil.copytree(pipeline / "db", db)
    sdfg = sorted(db.glob("*.sdfg"))[0]
    sdfg.unlink()
    assert main(["resolve", "--db", str(db),
                 "--scene", str(pipeline / "scenes" / "scene_0000.json"),
                 "--out", str(tmp_path / "out.json"), "--iters", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shapescene: error: [Errno 2] No such file") and str(sdfg) in err
    assert err.count("\n") == 1


def test_gen_scenes_outputs(pipeline):
    files = sorted((pipeline / "scenes").glob("*.json"))
    assert [f.name for f in files] == ["scene_0000.json", "scene_0001.json"]
    for f in files:
        scene = load_scene(f)
        assert 2 <= len(scene.objects) <= 3


def test_labels_output(pipeline, tmp_path):
    out = tmp_path / "labels.json"
    assert main(["labels", "--db", str(pipeline / "db"),
                 "--scene", str(pipeline / "scenes" / "scene_0000.json"),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    db = load_database(pipeline / "db")
    n = db.class_count * db.k_per_class
    for o in payload["objects"]:
        assert set(o) == {"class", "exemplar", "hard", "soft"}
        assert len(o["hard"]) == len(o["soft"]) == n
        assert sum(o["hard"]) == 1.0
        # The true exemplar scores a perfect soft similarity with itself.
        assert max(o["soft"]) == pytest.approx(1.0)


def test_fit_pose_recovers_and_traces(pipeline, tmp_path):
    gt_path = pipeline / "scenes" / "scene_0000.json"
    out = tmp_path / "fit.json"
    trace = tmp_path / "trace.csv"
    assert main(["fit-pose", "--db", str(pipeline / "db"),
                 "--gt", str(gt_path), "--out", str(out),
                 "--trace", str(trace), "--iters", "400", "--lr", "1e-2",
                 "--seed", "3"]) == 0
    gt = load_scene(gt_path)
    fit = load_scene(out)
    for a, b in zip(gt.objects, fit.objects):
        assert np.linalg.norm(a.pose.t - b.pose.t) < 1e-2
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,pose,total"
    totals = [float(line.split(",")[2]) for line in lines[1:]]
    assert totals[-1] < totals[0]


def test_resolve_trace_csv(pipeline, tmp_path):
    out = tmp_path / "resolved.json"
    trace = tmp_path / "trace.csv"
    assert main(["resolve", "--db", str(pipeline / "db"),
                 "--scene", str(pipeline / "scenes" / "scene_0001.json"),
                 "--out", str(out), "--trace", str(trace),
                 "--iters", "5"]) == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,collision,anchor,total"
    rows = [[float(x) for x in line.split(",")[1:]] for line in lines[1:]]
    assert 1 <= len(rows) <= 5  # early stop on convergence is allowed
    assert rows[-1][0] <= rows[0][0]
    load_scene(out)  # output parses back as a scene


def test_resolve_prints_the_collision_of_the_scene_it_writes(pipeline, tmp_path, capsys):
    scene, _ = _overlapping_scene(pipeline, tmp_path)
    out, trace = tmp_path / "resolved.json", tmp_path / "trace.csv"
    assert main(["resolve", "--db", str(pipeline / "db"), "--scene", str(scene),
                 "--out", str(out), "--trace", str(trace), "--iters", "20", "--lr", "0.1"]) == 0
    rows = [[float(x) for x in line.split(",")[1:]]
            for line in trace.read_text().splitlines()[1:]]
    written = min(rows, key=lambda row: row[2])  # the first lowest total
    assert rows.index(written) < len(rows) - 1 and written[0] != rows[-1][0]
    objs = scene_to_objects(load_database(pipeline / "db"), load_scene(out))
    assert collision_loss_total(objs) == pytest.approx(written[0], rel=1e-12)
    assert capsys.readouterr().out == \
        f"resolved scene, final collision loss {written[0]:.6g} -> {out}\n"


def test_evaluate_iou_report(pipeline, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["evaluate", "--db", str(pipeline / "db"),
                 "--pred", str(pipeline / "scenes"),
                 "--gt", str(pipeline / "scenes"),
                 "--metric", "iou", "--res", "48", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["mean"] == 1.0 and report["relative_mean"] == 1.0
    assert "mean" in capsys.readouterr().out


def test_evaluate_map_report(pipeline, tmp_path):
    out = tmp_path / "report.json"
    assert main(["evaluate", "--db", str(pipeline / "db"),
                 "--pred", str(pipeline / "scenes" / "scene_0000.json"),
                 "--gt", str(pipeline / "scenes" / "scene_0000.json"),
                 "--metric", "map", "--thresh", "0.5", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["map"] == 1.0
    # mAP reads scene poses only, so it needs no readable database.
    assert main(["evaluate", "--db", str(tmp_path / "no-db"),
                 "--pred", str(pipeline / "scenes" / "scene_0000.json"),
                 "--gt", str(pipeline / "scenes" / "scene_0000.json"),
                 "--metric", "map", "--thresh", "0.5", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == report


def test_evaluate_map_matches_within_each_scene(tmp_path):
    # Each prediction lies on the other scene's ground truth, 7 units from its
    # own: pooled across files they would match, and map would read 1.0.
    for side, centres in (("gt", {"a": [0.0, 0.0], "b": [5.0, 5.0]}),
                          ("pred", {"a": [5.0, 5.0], "b": [0.0, 0.0]})):
        (tmp_path / side).mkdir()
        for name, (x, y) in centres.items():
            save_scene(tmp_path / side / f"{name}.json", Scene(0, (PlacedObject(
                "box", 0, Pose9DoF(t=np.array([x, y, 0.5]))),)))
    out = tmp_path / "report.json"
    assert main(["evaluate", "--db", str(tmp_path / "no-db"), "--pred", str(tmp_path / "pred"),
                 "--gt", str(tmp_path / "gt"), "--metric", "map", "--thresh", "0.5",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["map"] == 0.0 and report["per_class"] == {"box": 0.0}


def test_evaluate_miv_honours_res(pipeline, tmp_path):
    # The generated scenes do not overlap; pull every object onto the first.
    gt = load_scene(pipeline / "scenes" / "scene_0000.json")
    anchor = gt.objects[0].pose.t
    objects = tuple(
        PlacedObject(o.class_name, o.exemplar,
                     Pose9DoF(o.pose.r, anchor + [0.15 * k, 0.1 * k, 0.0], o.pose.s))
        for k, o in enumerate(gt.objects))
    overlapping = Scene(gt.seed, objects)
    path = tmp_path / "overlap.json"
    save_scene(path, overlapping)
    out = tmp_path / "report.json"
    assert main(["evaluate", "--db", str(pipeline / "db"), "--pred", str(path),
                 "--gt", str(path), "--metric", "miv", "--res", "32",
                 "--out", str(out)]) == 0
    db = load_database(pipeline / "db")
    miv_32 = miv_and_collisions(overlapping, db, resolution=32)[0]
    assert json.loads(out.read_text())["miv"] == miv_32
    assert miv_32 > 0.0 and miv_32 != miv_and_collisions(overlapping, db)[0]


def test_evaluate_miv_does_not_read_gt(pipeline, tmp_path):
    # --gt names a directory of other scene names; miv scores --pred alone.
    other = tmp_path / "other"
    other.mkdir()
    shutil.copy(pipeline / "scenes" / "scene_0000.json", other / "a.json")
    argv = ["evaluate", "--db", str(pipeline / "db"), "--pred", str(pipeline / "scenes"),
            "--metric", "miv", "--res", "24"]
    reports = []
    for gt in (pipeline / "scenes", other, tmp_path / "missing"):
        out = tmp_path / f"{gt.name}.json"
        assert main(argv + ["--gt", str(gt), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_evaluate_mismatched_counts(pipeline, tmp_path):
    assert main(["evaluate", "--db", str(pipeline / "db"),
                 "--pred", str(pipeline / "scenes" / "scene_0000.json"),
                 "--gt", str(pipeline / "scenes"),
                 "--metric", "iou"]) == 2


def test_evaluate_pairs_directories_by_name(pipeline, tmp_path, capsys):
    gt, pred = pipeline / "scenes", tmp_path / "pred"
    pred.mkdir()
    for name in ("scene_0000.json", "scene_0001.json"):
        shutil.copy(gt / name, pred / name)
    argv = ["evaluate", "--db", str(pipeline / "db"), "--pred", str(pred), "--gt", str(gt),
            "--metric", "map", "--out", str(tmp_path / "map.json")]
    assert main(argv) == 0
    assert json.loads((tmp_path / "map.json").read_text())["map"] == 1.0
    (pred / "scene_0001.json").rename(pred / "scene_0002.json")
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"shapescene: error: scene_0001.json is in only one of {pred} and {gt}\n")


def test_export_ply_and_pts(pipeline, tmp_path):
    out = tmp_path / "exp"
    assert main(["export", "--db", str(pipeline / "db"),
                 "--scene", str(pipeline / "scenes" / "scene_0000.json"),
                 "--out", str(out), "--format", "ply"]) == 0
    ply = sorted(out.glob("*.ply"))[0].read_bytes()
    header, _, body = ply.partition(b"end_header\n")
    assert header.startswith(b"ply\nformat binary_little_endian 1.0\n")
    n = int(next(l for l in header.splitlines()
                 if l.startswith(b"element vertex")).split()[-1])
    assert len(body) == n * 12

    assert main(["export", "--db", str(pipeline / "db"),
                 "--scene", str(pipeline / "scenes" / "scene_0000.json"),
                 "--out", str(out), "--format", "pts"]) == 0
    raw = sorted(out.glob("*.pts"))[0].read_bytes()
    (count,) = struct.unpack("<I", raw[:4])
    assert len(raw) == 4 + count * 12
    # Each export reads back through the database loader as its posed points.
    db = load_database(pipeline / "db")
    scene = load_scene(pipeline / "scenes" / "scene_0000.json")
    for k, o in enumerate(scene.objects):
        posed = apply_pose(o.pose, shape_entry(db, o).points)
        back = _read_points(out / f"object_{k:03d}.pts")
        assert np.array_equal(back, posed.astype("<f4").astype(np.float64))


def test_export_sdfg_matches_direct_rasterization(pipeline, tmp_path):
    out = tmp_path / "exp"
    scene_path = pipeline / "scenes" / "scene_0000.json"
    assert main(["export", "--db", str(pipeline / "db"),
                 "--scene", str(scene_path), "--out", str(out),
                 "--format", "sdfg", "--res", "48"]) == 0
    grid = read_sdfg(out / "scene.sdfg")
    assert set(np.unique(grid.values)) <= {0.0, 1.0}
    # Self-IoU through the library path is exactly 1 on the same grid, so the
    # exported occupancy must be non-empty and binary.
    db = load_database(pipeline / "db")
    scene = load_scene(scene_path)
    rep = relative_iou(scene, scene, db, resolution=48)
    assert rep.global_iou == 1.0
    assert np.count_nonzero(grid.values) > 0


def test_placement_failure_exits_2(pipeline, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scene_module, "MAX_PLACEMENT_ATTEMPTS", 20)
    out = tmp_path / "scenes"
    assert main(["gen-scenes", "--db", str(pipeline / "db"), "--out", str(out),
                 "--count", "1", "--objects", "30"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shapescene: error: could not place object")
    assert err.count("\n") == 1
    assert not list(out.glob("*.json"))


def test_placement_failure_keeps_the_earlier_scenes(pipeline, tmp_path, capsys, monkeypatch,
                                                    affinity):
    # With --seed 8, scenes 0-2 place, scene 3 (12 objects) cannot place its
    # object 10, and scenes 4 and 5 would place: only scenes 0-2 are written.
    monkeypatch.setattr(scene_module, "MAX_PLACEMENT_ATTEMPTS", 20)
    out = tmp_path / "scenes"
    assert main(["gen-scenes", "--db", str(pipeline / "db"), "--out", str(out),
                 "--count", "6", "--objects", "1:12", "--seed", "8"]) == 2
    err = capsys.readouterr().err
    assert err == "shapescene: error: could not place object 10 in 20 attempts\n"
    assert sorted(p.name for p in out.iterdir()) == [f"scene_{i:04d}.json" for i in range(3)]


def _package_env(**extra) -> dict:
    """The environment of a subprocess that imports this package, plus `extra`."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(shapescene.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]), **extra)


def test_outputs_do_not_depend_on_the_cpu_count(tmp_path):
    """make-toys, build-db and gen-scenes write the same bytes in a process
    bound to one CPU, where they run in-process, as in one that keeps every
    CPU of its mask, where they fork one worker per CPU. On a one-CPU
    machine both processes run in-process."""
    script = (
        "import os, sys\n"
        "from shapescene.cli import main\n"
        "out, cpus = sys.argv[1], os.sched_getaffinity(0)\n"
        "if sys.argv[2] == 'one':\n"
        "    os.sched_setaffinity(0, {min(cpus)})\n"
        "for argv in (['make-toys', '--out', out + '/meshes'],\n"
        "             ['build-db', '--meshes', out + '/meshes', '--out', out + '/db', '--k', '2'],\n"
        "             ['gen-scenes', '--db', out + '/db', '--out', out + '/scenes',\n"
        "              '--count', '6', '--objects', '2:4']):\n"
        "    assert main(argv) == 0, argv\n")
    for side in ("one", "all"):
        subprocess.run([sys.executable, "-c", script, str(tmp_path / side), side],
                       env=_package_env(), check=True, stdout=subprocess.DEVNULL, timeout=600)
    files = {side: sorted(p.relative_to(tmp_path / side) for p in (tmp_path / side).rglob("*")
                          if p.is_file()) for side in ("one", "all")}
    assert files["one"] == files["all"]
    assert len([f for f in files["one"] if f.parts[0] == "scenes"]) == 6
    for f in files["one"]:
        assert (tmp_path / "one" / f).read_bytes() == (tmp_path / "all" / f).read_bytes(), f


def test_labels_do_not_depend_on_the_blas_thread_count(tmp_path):
    """labels writes the same bytes with one BLAS thread as with two, on a
    32^3 database: OpenBLAS splits a dot product of that length across its
    threads, and no label distance takes one. On a one-CPU machine both
    runs have one thread."""
    rng = np.random.default_rng(11)
    base = rng.normal(size=(32, 32, 32))
    entries = [ShapeEntry(c, k, SdfGrid((base + 0.1 * rng.normal(size=base.shape))
                                        .astype(np.float32), np.zeros(3), 1 / 32),
                          rng.normal(size=(8, 3)), make_box())
               for c in range(2) for k in range(3)]
    save_database(ShapeDatabase(entries, 3, ["a", "b"], float(np.sqrt(32**3))), tmp_path / "db")
    save_scene(tmp_path / "scene.json",
               Scene(0, tuple(PlacedObject(c, k, Pose9DoF()) for c, k in (("a", 0), ("b", 2)))))
    script = "import sys\nfrom shapescene.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    for threads in ("1", "2"):
        subprocess.run([sys.executable, "-c", script, "labels", "--db", str(tmp_path / "db"),
                        "--scene", str(tmp_path / "scene.json"),
                        "--out", str(tmp_path / f"labels_{threads}.json")],
                       env=_package_env(OPENBLAS_NUM_THREADS=threads), check=True,
                       stdout=subprocess.DEVNULL, timeout=600)
    labels = (tmp_path / "labels_1.json").read_bytes()
    assert labels == (tmp_path / "labels_2.json").read_bytes()
    soft = [o["soft"] for o in json.loads(labels)["objects"]]
    assert all(0.0 < x < 1.0 for row in soft for x in row if x != 1.0)  # not clamped to 0


def test_reruns_byte_identical(pipeline, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen-scenes", "--db", str(pipeline / "db"),
                     "--out", str(out), "--count", "2", "--objects", "2",
                     "--seed", "5"]) == 0
    for fa, fb in zip(sorted(a.glob("*.json")), sorted(b.glob("*.json"))):
        assert fa.read_bytes() == fb.read_bytes()

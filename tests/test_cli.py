import json
import struct

import numpy as np
import pytest

from shapescene.cli import main
from shapescene.metrics import voxel_scene_iou
from shapescene.scene import load_scene
from shapescene.sdf import read_sdfg
from shapescene.shapedb import load_database


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
    # Out-of-range optimizer settings are rejected before any input is read.
    for argv in (["fit-pose", "--db", "x", "--gt", "y", "--out", "z", "--iters", "0"],
                 ["resolve", "--db", "x", "--scene", "y", "--out", "z", "--lr", "0"]):
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


def test_config_flag_precedence(pipeline, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"k": 3, "seed": 42, "res": 24, "points": 256}\n')
    # Flag overrides the config's k = 3.
    assert main(["--config", str(cfg), "build-db",
                 "--meshes", str(pipeline / "meshes"),
                 "--out", str(tmp_path / "db"), "--k", "2"]) == 0
    db = load_database(tmp_path / "db")
    assert db.k_per_class == 2


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


def test_evaluate_mismatched_counts(pipeline, tmp_path):
    assert main(["evaluate", "--db", str(pipeline / "db"),
                 "--pred", str(pipeline / "scenes" / "scene_0000.json"),
                 "--gt", str(pipeline / "scenes"),
                 "--metric", "iou"]) == 2


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
    rep = voxel_scene_iou(scene, scene, db, resolution=48)
    assert rep.global_iou == 1.0
    assert np.count_nonzero(grid.values) > 0


def test_reruns_byte_identical(pipeline, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen-scenes", "--db", str(pipeline / "db"),
                     "--out", str(out), "--count", "2", "--objects", "2",
                     "--seed", "5"]) == 0
    for fa, fb in zip(sorted(a.glob("*.json")), sorted(b.glob("*.json"))):
        assert fa.read_bytes() == fb.read_bytes()

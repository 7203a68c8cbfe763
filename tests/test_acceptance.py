"""End-to-end acceptance gate: one test per criterion, each printing a
single PASS/FAIL line with its headline numbers."""
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import random_rotation

from shapescene.collision import SceneObject, collision_gradient, collision_loss_total
from shapescene.detect import Detection, extract_peaks, focal_loss, focal_loss_grad
from shapescene.geom import (
    Pose9DoF,
    Rotation,
    apply_pose,
    chain_rotation_grad,
    geodesic_distance,
    project_to_so3,
)
from shapescene.losses import (
    hard_selection_grad,
    hard_selection_loss,
    pose_loss_rt,
    pose_loss_world_grads,
    scale_loss,
    scale_loss_grad,
    soft_selection_grad,
    soft_selection_loss,
)
from shapescene.mesh import sample_surface_points
from shapescene.metrics import (
    average_precision,
    miv_and_collisions,
    oriented_box_iou,
    relative_iou,
    scene_voxel_grid,
)
from shapescene.optim import OptimConfig, fit_poses, resolve_collisions
from shapescene.scene import (
    PlacedObject,
    Scene,
    generate_scene,
    perturb_pose,
    shape_entry,
)
from shapescene.sdf import clamp_interior, mesh_to_sdf
from shapescene.shapedb import kmeans_pp, soft_label
from shapescene.toys import make_box


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} ({detail})")


def _frob(a, b):
    return float(np.linalg.norm(a - b))


def test_criterion_1_so3_projection_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    oracle = np.stack([random_rotation(rng).m for _ in range(10_000)])
    violations = 0
    for _ in range(1000):
        while True:
            m = rng.normal(size=(3, 3))
            sv = np.linalg.svd(m, compute_uv=False)
            if np.min(np.diff(sv[::-1])) > 1e-3 and sv[-1] > 1e-3:
                break
        r = project_to_so3(m).m
        if _frob(r.T @ r, np.eye(3)) > 1e-9 or abs(np.linalg.det(r) - 1) > 1e-9:
            violations += 1
            continue
        best_sampled = np.sqrt(np.sum((oracle - m) ** 2, axis=(1, 2)).min())
        if _frob(r, m) > best_sampled + 1e-12:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    _report(1, ok, f"{violations} violations / 1000, {elapsed:.1f}s")
    assert ok


def _rel_err(analytic, fd):
    denom = max(np.linalg.norm(fd), 1e-10)
    return np.linalg.norm(np.asarray(analytic) - np.asarray(fd)) / denom


def _fd_vector(f, x, eps=1e-6):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(x.size)
    flat = x.reshape(-1)
    for k in range(flat.size):
        saved = flat[k]
        flat[k] = saved + eps
        up = f(x)
        flat[k] = saved - eps
        dn = f(x)
        flat[k] = saved
        out[k] = (up - dn) / (2 * eps)
    return out.reshape(x.shape)


def test_criterion_2_gradient_suites():
    start = time.perf_counter()
    worst = {}

    errs = []
    for case in range(100):
        rng = np.random.default_rng(1000 + case)
        pred = rng.uniform(0.05, 0.95, size=(6, 6, 2))
        target = rng.uniform(0.0, 0.98, size=(6, 6, 2))
        target[tuple(rng.integers(0, 6, size=2))] = 1.0
        grad = focal_loss_grad(pred, target, n_objects=2)
        fd = _fd_vector(lambda p: focal_loss(p, target, 2), pred)
        errs.append(_rel_err(grad, fd))
    worst["focal"] = max(errs)

    errs = []
    for case in range(100):
        rng = np.random.default_rng(2000 + case)
        z = rng.normal(size=8)
        t = np.zeros(8)
        t[rng.integers(8)] = 1.0
        grad = hard_selection_grad([z], [t])[0]
        fd = _fd_vector(lambda x: hard_selection_loss([x], [t]), z)
        errs.append(_rel_err(grad, fd))
    worst["hard"] = max(errs)

    errs = []
    for case in range(100):
        rng = np.random.default_rng(3000 + case)
        z = rng.normal(size=8)
        d = rng.uniform(0.05, 0.95, size=8)
        for mode in ("literal", "symmetric"):
            grad = soft_selection_grad([z], [d], mode=mode)[0]
            fd = _fd_vector(lambda x: soft_selection_loss([x], [d], mode=mode), z)
            errs.append(_rel_err(grad, fd))
    worst["soft"] = max(errs)

    errs = []
    for case in range(100):
        rng = np.random.default_rng(4000 + case)
        gt = Pose9DoF(random_rotation(rng), rng.normal(size=3),
                      np.exp(rng.normal(size=3) * 0.2))
        m = random_rotation(rng).m + rng.normal(size=(3, 3)) * 0.2
        t = rng.normal(size=3)
        s = np.exp(rng.normal(size=3) * 0.2)
        pts = rng.normal(size=(16, 3))
        _, (gr, gt_, gs) = pose_loss_world_grads(
            project_to_so3([m]), [t], [s], [pts], [apply_pose(gt, pts)])
        gm, gt_, gs = chain_rotation_grad(project_to_so3([m]), [m], gr)[0], gt_[0], gs[0]

        def f(mm, tt, ss):
            return pose_loss_rt([gt], [Pose9DoF(project_to_so3(mm), tt, ss)], [pts])

        fd_m = _fd_vector(lambda x: f(x, t, s), m)
        fd_t = _fd_vector(lambda x: f(m, x, s), t)
        fd_s = _fd_vector(lambda x: f(m, t, x), s)
        errs.append(_rel_err(np.concatenate([gm.ravel(), gt_, gs]),
                             np.concatenate([fd_m.ravel(), fd_t, fd_s])))
    worst["L_Rt"] = max(errs)

    errs = []
    for case in range(100):
        rng = np.random.default_rng(5000 + case)
        a = [rng.random(3) + 0.5]
        b = [a[0] + np.sign(rng.normal(size=3)) * rng.uniform(0.2, 1.0, size=3)]
        grad = scale_loss_grad(a, b)[0]
        fd = _fd_vector(lambda x: scale_loss(a, [x]), b[0])
        errs.append(_rel_err(grad, fd))
    worst["scale"] = max(errs)

    cube = make_box()
    clamped = clamp_interior(mesh_to_sdf(cube, 24))
    errs = []
    for case in range(100):
        rng = np.random.default_rng(6000 + case)
        raws, objs = [], []
        for k in range(2):
            raw = random_rotation(rng).m + rng.normal(size=(3, 3)) * 0.1
            offset = np.zeros(3) if k == 0 else rng.normal(size=3) * 0.25
            objs.append(SceneObject(
                class_id=0, exemplar_index=0,
                pose=Pose9DoF(project_to_so3(raw), offset,
                              np.exp(rng.normal(size=3) * 0.1)),
                clamped_sdf=clamped,
                points=sample_surface_points(cube, 64, seed=case * 2 + k),
            ))
            raws.append(raw)
        if collision_loss_total(objs) < 1e-4:
            continue  # grazing contact sits near the documented kink
        total, (grads_r, grads_t, grads_s) = collision_gradient(objs)
        grads_r = chain_rotation_grad(project_to_so3(np.array(raws)), raws, grads_r)

        def loss_with(which, mm, tt, ss):
            repl = replace(objs[which], pose=Pose9DoF(project_to_so3(mm), tt, ss))
            return collision_loss_total(
                [repl if k == which else objs[k] for k in range(2)])

        analytic, fd = [], []
        for k in range(2):
            p = objs[k].pose
            analytic.append(np.concatenate([grads_r[k].ravel(), grads_t[k], grads_s[k]]))
            fd.append(np.concatenate([
                _fd_vector(lambda x: loss_with(k, x, p.t, p.s), raws[k]).ravel(),
                _fd_vector(lambda x: loss_with(k, raws[k], x, p.s), p.t),
                _fd_vector(lambda x: loss_with(k, raws[k], p.t, x), p.s),
            ]))
        errs.append(_rel_err(np.concatenate(analytic), np.concatenate(fd)))
    worst["collision"] = max(errs)

    elapsed = time.perf_counter() - start
    ok = (all(worst[k] < 1e-4 for k in ("focal", "hard", "soft", "L_Rt", "scale"))
          and worst["collision"] < 1e-3 and elapsed < 60.0)
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _report(2, ok, f"worst rel err: {detail}; {elapsed:.1f}s")
    assert ok


def test_criterion_3_pose_recovery(toy_db):
    start = time.perf_counter()
    good = 0
    for i in range(50):
        gt = generate_scene(toy_db, 1, seed=300 + i)
        o = gt.objects[0]
        init = Scene(gt.seed, (PlacedObject(
            o.class_name, o.exemplar,
            perturb_pose(o.pose, 10.0, 0.1, 0.1, seed=900 + i)),))
        targets = [apply_pose(o.pose, shape_entry(toy_db, o).points)]
        rec, _ = fit_poses(toy_db, init, targets,
                           OptimConfig(lr=1e-2, iterations=500))
        r = rec.objects[0]
        if (geodesic_distance(o.pose.r, r.pose.r) < 1e-3
                and np.linalg.norm(o.pose.t - r.pose.t) < 1e-3
                and np.max(np.abs(o.pose.s - r.pose.s)) < 1e-3):
            good += 1
    elapsed = time.perf_counter() - start
    ok = good >= 48 and elapsed < 120.0
    _report(3, ok, f"{good}/50 recovered, {elapsed:.1f}s")
    assert ok


def _pull_together(scene: Scene, frac: float) -> Scene:
    center = np.mean([o.pose.t for o in scene.objects], axis=0)
    objects = []
    for o in scene.objects:
        t = o.pose.t + frac * (center - o.pose.t)
        t[2] = o.pose.t[2]  # keep objects on the ground plane
        objects.append(PlacedObject(o.class_name, o.exemplar,
                                    Pose9DoF(o.pose.r, t, o.pose.s)))
    return Scene(scene.seed, tuple(objects))


def _force_collision(scene: Scene, db) -> Scene:
    for k in range(1, 20):
        candidate = _pull_together(scene, k * 0.05)
        if miv_and_collisions(candidate, db)[1] > 0:
            return candidate
    return _pull_together(scene, 0.95)


def test_criterion_4_collision_resolution(toy_db_dense):
    start = time.perf_counter()
    db = toy_db_dense
    good = 0
    for i in range(30):
        scene = _force_collision(generate_scene(db, 2 + i % 2, seed=200 + i), db)
        miv0, cnt0 = miv_and_collisions(scene, db)
        resolved, _ = resolve_collisions(db, scene,
                                         OptimConfig(lr=2e-2, iterations=300),
                                         anchor_term_weight=1e-3)
        miv1, cnt1 = miv_and_collisions(resolved, db)
        if cnt1 == 0 and miv1 * cnt1 <= 0.1 * miv0 * cnt0:
            good += 1
    elapsed = time.perf_counter() - start
    ok = good >= 27 and elapsed < 180.0
    _report(4, ok, f"{good}/30 resolved, {elapsed:.1f}s")
    assert ok


def test_criterion_5_metric_oracles(cube_db):
    start = time.perf_counter()
    checks = []

    # Voxel IoU and mIV against explicit per-voxel loops (exact).
    pred = Scene(0, (
        PlacedObject("box", 0, Pose9DoF(Rotation.identity(),
                                        np.array([0.0, 0.0, 0.5]), np.ones(3))),
        PlacedObject("box", 0, Pose9DoF(Rotation.identity(),
                                        np.array([0.7, 0.2, 0.5]), np.ones(3))),
    ))
    gt = Scene(0, (
        PlacedObject("box", 0, Pose9DoF(Rotation.identity(),
                                        np.array([0.2, 0.1, 0.5]), np.ones(3))),
    ))
    origin, dims, spacing = scene_voxel_grid([pred, gt], cube_db, 48)
    axes = [origin[a] + spacing * np.arange(dims[a]) for a in range(3)]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)

    def occupancies(scene):
        return [np.all(np.abs(((centers - o.pose.t) @ o.pose.r.m) / o.pose.s) < 0.5,
                       axis=1) for o in scene.objects]

    op = np.logical_or.reduce(occupancies(pred))
    og = np.logical_or.reduce(occupancies(gt))
    rep = relative_iou(pred, gt, cube_db, resolution=48)
    checks.append(rep.per_class["box"]
                  == np.count_nonzero(op & og) / np.count_nonzero(op | og))

    occ_pair = occupancies(pred)
    overlap = int(np.count_nonzero(occ_pair[0] & occ_pair[1]))
    miv, cnt = miv_and_collisions(pred, cube_db, resolution=48)
    checks.append(cnt == 1 and miv == overlap * spacing**3)

    # Oriented-box IoU against a 10^6-sample stratified Monte-Carlo oracle.
    corners = np.array([[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5)
                        for z in (-0.5, 0.5)])
    box_err = 0.0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        a = Pose9DoF(random_rotation(rng), rng.normal(size=3) * 0.2,
                     np.exp(rng.normal(size=3) * 0.2))
        b = Pose9DoF(random_rotation(rng), rng.normal(size=3) * 0.2,
                     np.exp(rng.normal(size=3) * 0.2))
        pts = np.vstack([apply_pose(a, corners), apply_pose(b, corners)])
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        grid = (np.indices((100,) * 3).reshape(3, -1).T
                + rng.random((1_000_000, 3))) / 100.0
        samples = lo + grid * (hi - lo)
        in_a = np.all(np.abs(((samples - a.t) @ a.r.m) / a.s) <= 0.5, axis=1)
        in_b = np.all(np.abs(((samples - b.t) @ b.r.m) / b.s) <= 0.5, axis=1)
        mc = np.count_nonzero(in_a & in_b) / np.count_nonzero(in_a | in_b)
        box_err = max(box_err, abs(oriented_box_iou(a, b) - mc))
    # The exact IoU leaves only the oracle's sampling error (std below 2.2e-4).
    checks.append(box_err < 2e-3)

    # AP against the hand-computed PR curve: TP, FP, TP over 2 ground truths.
    ap = average_precision([(0.9, True), (0.8, False), (0.7, True)], n_gt=2)
    checks.append(abs(ap - (0.5 + 0.5 * 2.0 / 3.0)) < 1e-12)

    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 60.0
    _report(5, ok, f"voxel/miv exact, box err {box_err:.4f}, AP {ap:.4f}, "
                   f"{elapsed:.1f}s")
    assert ok


def test_criterion_6_soft_label_consistency(toy_db):
    start = time.perf_counter()
    db = toy_db
    n_per = db.k_per_class
    ok_within, ok_argmax = True, True
    for cid in range(db.class_count):
        lo = cid * n_per
        for e in range(n_per):
            d = soft_label(db, db.entry(cid, e).sdf)
            within = d[lo:lo + n_per]
            if np.argmax(within) != e or within[e] < np.max(within):
                ok_within = False
            if np.argmax(d) != lo + e:  # hard label is one-hot at lo + e
                ok_argmax = False

    # k-means on the box-class SDF vectors against the exhaustive 2-means oracle.
    data = np.stack([db.entry(0, e).sdf.values.reshape(-1) for e in range(n_per)])
    _, assign, _ = kmeans_pp(data, 2, np.random.default_rng(0))

    def distortion(labels):
        total = 0.0
        for c in (0, 1):
            members = data[labels == c]
            if len(members):
                total += np.sum((members - members.mean(axis=0)) ** 2)
        return total

    best = min(
        (distortion(np.array([(code >> j) & 1 for j in range(n_per)])))
        for code in range(1, 2 ** n_per - 1)
    )
    km = distortion(assign)
    ok_kmeans = abs(km - best) < 1e-6 * max(best, 1.0)

    elapsed = time.perf_counter() - start
    ok = ok_within and ok_argmax and ok_kmeans and elapsed < 30.0
    _report(6, ok, f"within-class max {ok_within}, argmax agree {ok_argmax}, "
                   f"k-means optimal {ok_kmeans}, {elapsed:.1f}s")
    assert ok


def test_criterion_7_detection_fixtures():
    heat = np.zeros((32, 32, 2))
    planted = [(5, 7, 0, 0.9), (20, 3, 0, 0.4), (12, 25, 1, 0.02)]
    for x, y, c, v in planted:
        heat[y, x, c] = v
    heat[8, 8, 1] = 5e-3  # below tau: must not be detected
    dets = extract_peaks(heat, tau=1e-2)
    found = {(d.x, d.y, d.class_id, d.score) for d in dets}
    ok_peaks = found == set(planted)

    loss = focal_loss(np.array([[[0.5]]]), np.array([[[1.0]]]), n_objects=1)
    ok_focal = abs(loss - 0.17329) < 1e-5

    ok = ok_peaks and ok_focal
    _report(7, ok, f"peaks exact {ok_peaks}, focal {loss:.5f}")
    assert ok


def _run_pipeline(root: Path, threads: str) -> dict[str, bytes]:
    env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)

    def run(*args):
        subprocess.run([sys.executable, "-m", "shapescene.cli", *args],
                       check=True, env=env, capture_output=True)

    run("make-toys", "--out", str(root / "meshes"))
    run("build-db", "--meshes", str(root / "meshes"), "--out", str(root / "db"),
        "--k", "2", "--seed", "1", "--res", "16", "--points", "128")
    run("gen-scenes", "--db", str(root / "db"), "--out", str(root / "scenes"),
        "--count", "2", "--objects", "2", "--seed", "3")
    run("fit-pose", "--db", str(root / "db"),
        "--gt", str(root / "scenes" / "scene_0000.json"),
        "--out", str(root / "fit.json"), "--trace", str(root / "fit.csv"),
        "--iters", "20", "--lr", "1e-2", "--seed", "5")
    run("resolve", "--db", str(root / "db"),
        "--scene", str(root / "scenes" / "scene_0001.json"),
        "--out", str(root / "resolved.json"), "--trace", str(root / "res.csv"),
        "--iters", "10", "--anchor", "1e-3")
    # Five objects pulled onto their centroid in x and y, so they interpenetrate
    # and each target's field is sampled on the stacked points of four sources.
    run("gen-scenes", "--db", str(root / "db"), "--out", str(root / "crowd"),
        "--count", "1", "--objects", "5", "--seed", "11")
    crowd = json.loads((root / "crowd" / "scene_0000.json").read_text())
    ts = np.array([o["t"] for o in crowd["objects"]])
    for o, t in zip(crowd["objects"], ts):
        o["t"] = [*(0.5 * (t[:2] + ts[:, :2].mean(axis=0))).tolist(), float(t[2])]
    (root / "crowd" / "pulled.json").write_text(json.dumps(crowd))
    run("resolve", "--db", str(root / "db"), "--scene", str(root / "crowd" / "pulled.json"),
        "--out", str(root / "crowd_resolved.json"), "--trace", str(root / "crowd_res.csv"),
        "--iters", "10")
    first_row = (root / "crowd_res.csv").read_text().splitlines()[1]
    assert float(first_row.split(",")[1]) > 0.0  # the pulled objects do collide
    # Labels read the database's SDFs; iou, miv and the occupancy export
    # test containment one point per ray (`voxelize_occupancy`).
    run("labels", "--db", str(root / "db"),
        "--scene", str(root / "scenes" / "scene_0000.json"), "--out", str(root / "labels.json"))
    for metric in ("iou", "map", "miv"):
        run("evaluate", "--db", str(root / "db"), "--pred", str(root / "resolved.json"),
            "--gt", str(root / "scenes" / "scene_0001.json"), "--metric", metric,
            "--res", "32", "--out", str(root / f"eval_{metric}.json"))
    run("export", "--db", str(root / "db"), "--scene", str(root / "resolved.json"),
        "--out", str(root / "export"), "--format", "sdfg", "--res", "32")
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_criterion_8_determinism(tmp_path):
    start = time.perf_counter()
    outputs = [
        _run_pipeline(tmp_path / name, threads)
        for name, threads in (("a", "1"), ("b", "4"))
    ]
    same_keys = set(outputs[0]) == set(outputs[1])
    diffs = [k for k in outputs[0] if outputs[0][k] != outputs[1].get(k)]
    elapsed = time.perf_counter() - start
    ok = same_keys and not diffs
    _report(8, ok, f"{len(outputs[0])} files byte-identical across thread "
                   f"counts, {elapsed:.1f}s" if ok else f"differs: {diffs}")
    assert ok

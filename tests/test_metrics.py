import numpy as np
import pytest

from conftest import random_rotation

from shapescene.errors import DataError, EmptyScenes
from shapescene.geom import Pose9DoF, Rotation, apply_pose, rotation_about_axis
from dataclasses import replace

import shapescene.metrics as metrics_module
from shapescene.metrics import (
    DetectionBox,
    _occupancy_iou,
    average_precision,
    map3d,
    miv_and_collisions,
    oracle_scene,
    oriented_box_iou,
    relative_iou,
    scene_class_occupancy,
    scene_voxel_grid,
)
from shapescene.scene import PlacedObject, Scene, generate_scene
from shapescene.shapedb import ShapeDatabase
from shapescene.mesh import voxelize_occupancy


def _box_scene(positions, scales=None, seed=0):
    scales = scales or [np.ones(3)] * len(positions)
    objects = tuple(
        PlacedObject("box", 0, Pose9DoF(Rotation.identity(), np.asarray(t, float), s))
        for t, s in zip(positions, scales)
    )
    return Scene(seed, objects)


def _mc_box_iou(a, b, n_side=100, seed=0):
    """Stratified Monte-Carlo IoU oracle over the union bounding box."""
    corners = np.array([[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5)
                        for z in (-0.5, 0.5)])
    pts = np.vstack([apply_pose(a, corners), apply_pose(b, corners)])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    rng = np.random.default_rng(seed)
    grid = (np.indices((n_side,) * 3).reshape(3, -1).T
            + rng.random((n_side ** 3, 3))) / n_side
    samples = lo + grid * (hi - lo)

    def inside(p, pose):
        canon = ((p - pose.t) @ pose.r.m) / pose.s
        return np.all(np.abs(canon) <= 0.5, axis=1)

    in_a, in_b = inside(samples, a), inside(samples, b)
    union = np.count_nonzero(in_a | in_b)
    return np.count_nonzero(in_a & in_b) / union if union else 0.0


def test_voxel_iou_identity(cube_db):
    scene = _box_scene([[0.0, 0, 0.5], [2.0, 0, 0.5]])
    rep = relative_iou(scene, scene, cube_db, resolution=64)
    assert rep.per_class == {"box": 1.0}
    assert rep.mean == 1.0 and rep.global_iou == 1.0


def test_voxel_iou_disjoint(cube_db):
    a = _box_scene([[0.0, 0, 0.5]])
    b = _box_scene([[3.0, 0, 0.5]])
    rep = relative_iou(a, b, cube_db, resolution=64)
    assert rep.per_class == {"box": 0.0}
    assert rep.global_iou == 0.0


def test_voxel_iou_symmetric(cube_db):
    a = _box_scene([[0.0, 0, 0.5]])
    b = _box_scene([[0.4, 0.2, 0.5]])
    rep_ab = relative_iou(a, b, cube_db, resolution=64)
    rep_ba = relative_iou(b, a, cube_db, resolution=64)
    assert rep_ab.per_class == rep_ba.per_class
    assert rep_ab.global_iou == rep_ba.global_iou


def test_voxel_iou_popcount_oracle(cube_db):
    # Independent oracle: analytic cube containment per voxel center, then
    # explicit intersection/union counting.
    pred = _box_scene([[0.0, 0, 0.5], [0.8, 0.3, 0.5]])
    gt = _box_scene([[0.2, 0.1, 0.5]])
    rep = relative_iou(pred, gt, cube_db, resolution=48)

    origin, dims, spacing = scene_voxel_grid([pred, gt], cube_db, 48)
    axes = [origin[a] + spacing * np.arange(dims[a]) for a in range(3)]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)

    def occupancy(scene):
        occ = np.zeros(len(centers), dtype=bool)
        for o in scene.objects:
            canon = ((centers - o.pose.t) @ o.pose.r.m) / o.pose.s
            occ |= np.all(np.abs(canon) < 0.5, axis=1)
        return occ

    op, og = occupancy(pred), occupancy(gt)
    inter = int(np.count_nonzero(op & og))
    union = int(np.count_nonzero(op | og))
    assert rep.per_class["box"] == inter / union
    assert rep.global_iou == inter / union


def test_voxel_iou_empty_raises(cube_db):
    with pytest.raises(EmptyScenes):
        relative_iou(Scene(0, ()), Scene(0, ()), cube_db)


def test_relative_iou_oracle_is_one(toy_db):
    gt = generate_scene(toy_db, 2, seed=13)
    oracle = oracle_scene(gt, toy_db)
    rep = relative_iou(oracle, gt, toy_db, resolution=64)
    for v in rep.relative_per_class.values():
        assert v == 1.0
    assert rep.relative_global == 1.0


def test_relative_iou_ratio(cube_db):
    # With a single-exemplar database the oracle is the ground truth itself,
    # so the relative IoU equals the absolute one.
    pred = _box_scene([[0.3, 0.0, 0.5]])
    gt = _box_scene([[0.0, 0.0, 0.5]])
    rep = relative_iou(pred, gt, cube_db, resolution=64)
    assert abs(rep.relative_per_class["box"] - rep.per_class["box"]) < 1e-12


def _rasterised_oracle_iou(pred, gt, db, resolution):
    """relative_iou with the oracle scene always rasterised on its own."""
    origin, dims, spacing = scene_voxel_grid([pred, gt], db, resolution)
    occ_p = scene_class_occupancy(pred, db, origin, dims, spacing)
    occ_g = scene_class_occupancy(gt, db, origin, dims, spacing)
    occ_o = scene_class_occupancy(oracle_scene(gt, db), db, origin, dims, spacing)
    per_class, global_iou = _occupancy_iou(occ_p, occ_g, dims)
    oracle_class, oracle_global = _occupancy_iou(occ_o, occ_g, dims)
    rel = {cls: min(a / oracle_class[cls], 1.0)
           for cls, a in per_class.items() if oracle_class.get(cls, 0.0) > 0.0}
    glob = min(global_iou / oracle_global, 1.0) if oracle_global > 0.0 else 0.0
    return (per_class, global_iou), rel, glob


def _counting_voxelize(monkeypatch):
    calls = []
    real = metrics_module.voxelize_occupancy

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(metrics_module, "voxelize_occupancy", counted)
    return calls


def test_relative_iou_shared_grid_matches_rasterised_oracle(toy_db, monkeypatch):
    gt = generate_scene(toy_db, 4, seed=21)
    pred = Scene(gt.seed, tuple(
        replace(o, exemplar=(o.exemplar + 1) % toy_db.k_per_class,
                pose=replace(o.pose, t=o.pose.t + 0.05 * k))
        for k, o in enumerate(gt.objects)))
    absolute, rel, glob = _rasterised_oracle_iou(pred, gt, toy_db, 64)
    calls = _counting_voxelize(monkeypatch)
    rep = relative_iou(pred, gt, toy_db, resolution=64)
    # Drawn from the database, the ground truth is its own oracle: no third pass.
    assert len(calls) == len(pred.objects) + len(gt.objects)
    assert (rep.per_class, rep.global_iou) == absolute
    assert rep.relative_per_class == rel and rep.relative_global == glob


def test_relative_iou_rasterises_another_oracle(toy_db, monkeypatch):
    # Exemplar 1 of each class gets exemplar 0's SDF, so the oracle of an
    # exemplar-1 object is exemplar 0, a different mesh.
    entries = list(toy_db.entries)
    for cid in range(toy_db.class_count):
        one = toy_db.global_index(cid, 1)
        entries[one] = replace(entries[one], sdf=toy_db.entry(cid, 0).sdf)
    db = ShapeDatabase(entries, toy_db.k_per_class, toy_db.classes, toy_db.normalization)
    drawn = generate_scene(toy_db, 3, seed=5)
    gt = Scene(drawn.seed, tuple(replace(o, exemplar=1) for o in drawn.objects))
    oracle = oracle_scene(gt, db)
    assert all(o.exemplar == 0 for o in oracle.objects)
    calls = _counting_voxelize(monkeypatch)
    rep = relative_iou(oracle, gt, db, resolution=64)
    assert len(calls) == 3 * len(gt.objects)
    assert min(rep.per_class.values()) < 1.0
    assert all(v == 1.0 for v in rep.relative_per_class.values())
    assert rep.relative_global == 1.0
    monkeypatch.undo()
    absolute, rel, glob = _rasterised_oracle_iou(oracle, gt, db, 64)
    assert rep.relative_per_class == rel and rep.relative_global == glob


def _box(t=(0.0, 0.0, 0.0), s=(1.0, 1.0, 1.0), r=None):
    return Pose9DoF(r or Rotation.identity(), np.array(t, float), np.array(s, float))


def test_box_iou_identity_and_disjoint():
    p = Pose9DoF.identity()
    assert abs(oriented_box_iou(p, p) - 1.0) < 1e-12
    far = Pose9DoF(Rotation.identity(), np.array([5.0, 0, 0]), np.ones(3))
    assert oriented_box_iou(p, far) == 0.0
    # Within the bounding spheres' reach, but separated by a face plane.
    assert abs(oriented_box_iou(p, _box((1.2, 0.3, 0.0)))) < 1e-12
    tilted = _box((0.0, 1.3, 0.0), r=rotation_about_axis(np.array([1.0, 0, 0]), 0.3))
    assert abs(oriented_box_iou(p, tilted)) < 1e-12


def test_box_iou_half_overlap_analytic():
    a = Pose9DoF.identity()
    b = Pose9DoF(Rotation.identity(), np.array([0.5, 0.0, 0.0]), np.ones(3))
    # Four face planes are shared and must be counted once.
    assert abs(oriented_box_iou(a, b) - 1.0 / 3.0) < 1e-12


def test_box_iou_rotated_octagon():
    # The cube and its 45-degree turn about z meet in an octagonal prism of
    # area 2 (sqrt 2 - 1), so IoU = 1 / sqrt 2.
    turned = _box(r=rotation_about_axis(np.array([0.0, 0, 1]), np.pi / 4))
    assert abs(oriented_box_iou(Pose9DoF.identity(), turned) - 1.0 / np.sqrt(2.0)) < 1e-12


def test_box_iou_nested_is_volume_ratio():
    outer = _box((0.2, -0.1, 0.3), (2.0, 3.0, 1.5))
    inner = _box((0.4, 0.1, 0.2), (0.5, 0.8, 0.6),
                 rotation_about_axis(np.array([1.0, 2.0, 3.0]), 0.4))
    assert abs(oriented_box_iou(outer, inner) - (0.5 * 0.8 * 0.6) / (2.0 * 3.0 * 1.5)) < 1e-12


def test_box_iou_touching_is_zero():
    p = Pose9DoF.identity()
    for t in ((1.0, 0.0, 0.0), (1.0, 0.3, 0.0), (1.0, 1.0, 0.0), (1.0, 1.0, 1.0)):
        assert abs(oriented_box_iou(p, _box(t))) < 1e-12
    # A box turned 45 degrees about z whose vertical edge touches a face.
    turned = _box((0.5 + np.sqrt(0.5), 0.0, 0.0),
                  r=rotation_about_axis(np.array([0.0, 0, 1]), np.pi / 4))
    assert abs(oriented_box_iou(p, turned)) < 1e-12


def test_box_iou_thin_rotated_box_with_itself():
    # A face of sides 1 and 1e-12 lies 5e-13 from the centre: its shoelace sum
    # about the centre cancels, about its own first vertex it keeps its area.
    for seed in range(10):
        r = random_rotation(np.random.default_rng(seed))
        for thin in (1e-10, 1e-12):
            p = _box((0.3, -0.2, 0.1), (1.0, thin, thin), r)
            assert oriented_box_iou(p, p) > 0.999


def test_box_iou_symmetric(rng):
    for _ in range(20):
        a = Pose9DoF(random_rotation(rng), rng.normal(size=3) * 0.3,
                     np.exp(rng.normal(size=3) * 0.3))
        b = Pose9DoF(random_rotation(rng), rng.normal(size=3) * 0.3,
                     np.exp(rng.normal(size=3) * 0.3))
        assert oriented_box_iou(a, b) == oriented_box_iou(b, a)


def test_box_iou_monte_carlo_oracle(rng):
    # The 10^6-sample oracle's own standard deviation is below 2.2e-4 on
    # these pairs (8 oracle seeds each).
    for seed in range(5):
        srng = np.random.default_rng(seed)
        a = Pose9DoF(random_rotation(srng), srng.normal(size=3) * 0.2,
                     np.exp(srng.normal(size=3) * 0.2))
        b = Pose9DoF(random_rotation(srng), srng.normal(size=3) * 0.2,
                     np.exp(srng.normal(size=3) * 0.2))
        assert abs(oriented_box_iou(a, b) - _mc_box_iou(a, b)) < 2e-3


def test_box_iou_rigid_invariance(rng):
    a = Pose9DoF(random_rotation(rng), np.zeros(3), np.ones(3))
    b = Pose9DoF(random_rotation(rng), np.array([0.3, 0.1, 0.0]), np.ones(3))
    base = oriented_box_iou(a, b)
    q = random_rotation(rng)
    shift = np.array([1.0, -2.0, 0.5])
    a2 = Pose9DoF(Rotation(q.m @ a.r.m), q.m @ a.t + shift, a.s)
    b2 = Pose9DoF(Rotation(q.m @ b.r.m), q.m @ b.t + shift, b.s)
    assert abs(oriented_box_iou(a2, b2) - base) < 1e-9


def _per_pair_box_iou(a, b):
    """oriented_box_iou of one pair, clipping its faces alone: the reference
    the stacked `_box_ious` must match bit for bit."""
    with np.errstate(over="ignore"):
        if np.linalg.norm(a.t - b.t) > (np.linalg.norm(a.s) + np.linalg.norm(b.s)) / 2:
            return 0.0
    if tuple(np.concatenate([b.t, b.s, b.r.m.ravel()])) < tuple(
            np.concatenate([a.t, a.s, a.r.m.ravel()])):
        a, b = b, a
    largest = max(a.s.max(), b.s.max())
    shift = -int(np.frexp(largest)[1])
    vol_a, vol_b = (float(np.prod(np.ldexp(p.s, shift))) for p in (a, b))
    if max(vol_a, vol_b) < np.finfo(np.float64).tiny:
        raise DataError("a box's sides span more than the float range")

    def box_faces(p):
        t, s = np.ldexp(p.t - a.t, shift), np.ldexp(p.s, shift)
        normals = metrics_module._CUBE_NORMALS @ p.r.m.T
        offsets = normals @ t + 0.5 * np.tile(s, 2)
        return (s * metrics_module._CUBE_FACES) @ p.r.m.T + t, normals, offsets

    faces_a, normals_a, offsets_a = box_faces(a)
    faces_b, normals_b, offsets_b = box_faces(b)
    tol = metrics_module._COINCIDENT_TOL * np.ldexp(largest, shift)
    shared = ((np.abs(normals_a[:, None] - normals_b[None]).max(axis=2)
               <= metrics_module._COINCIDENT_TOL)
              & (np.abs(offsets_a[:, None] - offsets_b[None]) <= tol))
    poly = np.concatenate([faces_a, faces_b])
    face_n = np.concatenate([normals_a, normals_b])
    face_d = np.concatenate([offsets_a, offsets_b])
    skip = np.concatenate([shared, np.zeros((6, 6), dtype=bool)])
    clip_n = np.where(skip[..., None], 0.0, np.repeat([normals_b, normals_a], 6, axis=0))
    clip_d = np.where(skip, 1.0, np.repeat([offsets_b, offsets_a], 6, axis=0))
    kept = np.concatenate([np.ones(6, dtype=bool), ~shared.any(axis=0)])
    poly, face_n, face_d, clip_n, clip_d = (
        x[kept] for x in (poly, face_n, face_d, clip_n, clip_d))
    count = np.full(len(poly), 4)
    for k in range(6):
        poly, count = metrics_module._clip(poly, count, clip_n[:, k], clip_d[:, k])
    rel = poly - poly[:, :1]
    nxt = np.arange(1, poly.shape[1] + 1)
    edges = np.cross(rel, rel[np.arange(len(rel))[:, None], nxt * (nxt < count[:, None])])
    twice_area = np.einsum("fmi,fi->f", edges, face_n)
    inter = min(max(float(face_d @ twice_area) / 6.0, 0.0), vol_a, vol_b)
    return inter / (vol_a + vol_b - inter)


# Sides (1e308, 1e-308, 1e-308): scaled by 2**-1024, a volume of 0.
_OUT_OF_RANGE = _box(s=(1e308, 1e-308, 1e-308))


def _box_pairs(rng):
    """Seeded pairs of every kind the stacked clip must get right: general
    overlaps, shared and coincident faces, thin boxes, far pairs, sides far
    from 1, and pairs out of the float range."""
    pairs = []
    for k in range(360):
        r = random_rotation(rng) if k % 3 else Rotation.identity()
        a = Pose9DoF(r, rng.normal(size=3) * 0.4, np.exp(rng.normal(size=3) * 0.4))
        kind = k % 6
        if kind == 0:  # a face plane shared, or a face half covered
            axis = int(rng.integers(3))
            step = a.s[axis] * rng.choice([1.0, 0.5, 0.25])
            b = Pose9DoF(r, a.t + r.m[:, axis] * step, a.s * rng.choice([1.0, 0.5], size=3))
        elif kind == 1:  # coincident
            b = Pose9DoF(r, a.t.copy(), a.s.copy())
        elif kind == 2:  # thin
            thin = a.s * np.where(np.arange(3) == rng.integers(3), 1e-10, 1.0)
            a = Pose9DoF(r, a.t, thin)
            b = Pose9DoF(random_rotation(rng), a.t + rng.normal(size=3) * 0.05,
                         np.exp(rng.normal(size=3) * 0.4))
        elif kind == 3:  # far
            b = Pose9DoF(random_rotation(rng), a.t + rng.normal(size=3) * 20.0, a.s)
        elif kind == 4:  # sides far from 1
            scale = 10.0 ** rng.integers(-150, 150)
            a = Pose9DoF(r, a.t * scale, a.s * scale)
            b = Pose9DoF(random_rotation(rng), a.t + rng.normal(size=3) * 0.3 * scale,
                         a.s * np.exp(rng.normal(size=3) * 0.3))
        else:
            b = Pose9DoF(random_rotation(rng), a.t + rng.normal(size=3) * 0.4,
                         np.exp(rng.normal(size=3) * 0.4))
        pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    pairs[17] = (_OUT_OF_RANGE, _box())
    pairs[200] = (_box(t=(0.2, 0.0, 0.0)), _OUT_OF_RANGE)
    return pairs


def _reference_or_error(a, b):
    try:
        return _per_pair_box_iou(a, b)
    except DataError:
        return None


def test_stacked_box_iou_matches_per_pair_reference():
    pairs = _box_pairs(np.random.default_rng(21))
    want = [_reference_or_error(a, b) for a, b in pairs]
    assert sum(w is None for w in want) == 2 and sum(w == 0.0 for w in want) > 60
    assert sum(w is not None and 0.0 < w < 1.0 for w in want) > 200
    assert sum(w is not None and w > 1.0 - 1e-9 for w in want) >= 60  # the coincident pairs
    # All pairs in one stack, in stacks of a few, and one at a time.
    for size in (len(pairs), 7, 1):
        for k in range(0, len(pairs), size):
            ious, bad = metrics_module._box_ious(pairs[k:k + size])
            for iou, out_of_range, w in zip(ious, bad, want[k:k + size]):
                assert out_of_range == (w is None)
                assert np.float64(iou).tobytes() == np.float64(w or 0.0).tobytes()
    for (a, b), w in zip(pairs, want):
        if w is None:
            with pytest.raises(DataError, match="span more than the float range"):
                oriented_box_iou(a, b)
        else:
            assert np.float64(oriented_box_iou(a, b)).tobytes() == np.float64(w).tobytes()


def test_map3d_raises_only_on_an_out_of_range_pair_it_reaches():
    gt = [DetectionBox("box", _box())]
    with pytest.raises(DataError, match="span more than the float range"):
        map3d([DetectionBox("box", _OUT_OF_RANGE, score=0.9)], gt, iou_threshold=0.5)
    # The ground truth is matched before the out-of-range box's turn, so its
    # pair is never compared; nor is a pair across scenes.
    preds = [DetectionBox("box", _box(), score=0.9), DetectionBox("box", _OUT_OF_RANGE, score=0.8)]
    assert map3d(preds, gt, iou_threshold=0.5) == ({"box": 1.0}, 1.0)
    preds = [DetectionBox("box", _OUT_OF_RANGE, scene=1)]
    assert map3d(preds, gt, iou_threshold=0.5) == ({"box": 0.0}, 0.0)


def test_map3d_matches_within_scenes_and_ranks_across_them():
    far = _box((5.0, 5.0, 0.0))
    gts = [DetectionBox("box", _box(), scene=0), DetectionBox("box", far, scene=1)]
    # The scene-1 box of score 0.7 lies on scene 0's ground truth, which is
    # still unmatched at its turn: a false positive all the same. The
    # ranking runs over both scenes: TP, FP, TP at recalls 0.5, 0.5 and 1.
    preds = [DetectionBox("box", _box(), score=0.5, scene=0),
             DetectionBox("box", far, score=0.9, scene=1),
             DetectionBox("box", _box(), score=0.7, scene=1)]
    per_class, mean = map3d(preds, gts, iou_threshold=0.5)
    assert per_class["box"] == mean == 0.5 * 1.0 + 0.5 * (2.0 / 3.0)


def test_average_precision_hand_case():
    # TP, FP, TP at descending scores with 2 ground truths:
    # precision at recalls 0.5 and 1.0 is 1.0 and 2/3 -> AP = 0.8333...
    matches = [(0.9, True), (0.8, False), (0.7, True)]
    ap = average_precision(matches, n_gt=2)
    assert abs(ap - (0.5 * 1.0 + 0.5 * (2.0 / 3.0))) < 1e-12
    assert abs(ap - 0.8333) < 1e-4


def test_average_precision_edge_cases():
    assert average_precision([], 2) == 0.0
    assert average_precision([(0.5, True)], 0) == 0.0
    assert average_precision([(0.9, True), (0.8, True)], 2) == 1.0


def _average_precision_loop(matches, n_gt):
    """The O(n^2) form: the envelope is recomputed as a suffix max per step."""
    if n_gt == 0 or not matches:
        return 0.0
    matches = sorted(matches, key=lambda m: -m[0])
    tp = np.cumsum([1 if m[1] else 0 for m in matches])
    fp = np.cumsum([0 if m[1] else 1 for m in matches])
    recall = tp / n_gt
    precision = tp / (tp + fp)
    ap = 0.0
    prev_r = 0.0
    for i in range(len(matches)):
        p_max = precision[i:].max()
        if recall[i] > prev_r:
            ap += (recall[i] - prev_r) * p_max
            prev_r = recall[i]
    return float(ap)


def test_average_precision_matches_suffix_max_loop(rng):
    for trial in range(200):
        n = int(rng.integers(1, 60))
        # Scores on a coarse grid, so many ties.
        matches = [(float(rng.integers(0, 8)) / 8, bool(rng.random() < 0.6))
                   for _ in range(n)]
        n_gt = int(rng.integers(0, n + 3))
        assert average_precision(matches, n_gt) == _average_precision_loop(matches, n_gt)


def test_map3d_perfect(cube_db):
    gt = [DetectionBox("box", Pose9DoF.identity()),
          DetectionBox("box", Pose9DoF(Rotation.identity(),
                                       np.array([3.0, 0, 0]), np.ones(3)))]
    preds = [DetectionBox("box", g.pose, score=0.9) for g in gt]
    per_class, mean = map3d(preds, gt, iou_threshold=0.5)
    assert per_class == {"box": 1.0}
    assert mean == 1.0


def test_map3d_no_predictions():
    gt = [DetectionBox("box", Pose9DoF.identity())]
    per_class, mean = map3d([], gt, iou_threshold=0.25)
    assert per_class == {"box": 0.0}
    assert mean == 0.0


def test_map3d_hand_built_case():
    far = Pose9DoF(Rotation.identity(), np.array([3.0, 0, 0]), np.ones(3))
    nowhere = Pose9DoF(Rotation.identity(), np.array([50.0, 0, 0]), np.ones(3))
    gts = [DetectionBox("box", Pose9DoF.identity()),
           DetectionBox("box", far)]
    preds = [DetectionBox("box", Pose9DoF.identity(), score=0.9),
             DetectionBox("box", nowhere, score=0.8),
             DetectionBox("box", far, score=0.7)]
    per_class, mean = map3d(preds, gts, iou_threshold=0.5)
    assert abs(per_class["box"] - 0.8333) < 1e-4


def test_map3d_greedy_one_to_one(cube_db):
    # Two predictions over one gt: only the higher-scoring match counts.
    gt = [DetectionBox("box", Pose9DoF.identity())]
    preds = [DetectionBox("box", Pose9DoF.identity(), score=0.9),
             DetectionBox("box", Pose9DoF.identity(), score=0.8)]
    per_class, _ = map3d(preds, gt, iou_threshold=0.5)
    assert per_class["box"] == 1.0  # AP unharmed by the trailing FP


def test_miv_collision_free(toy_db):
    scene = generate_scene(toy_db, 3, seed=2)
    assert miv_and_collisions(scene, toy_db) == (0.0, 0)


def test_miv_coincident_cubes(cube_db):
    scene = _box_scene([[0.0, 0, 0.5], [0.0, 0, 0.5]])
    miv, count = miv_and_collisions(scene, cube_db, resolution=64)
    assert count == 1
    assert abs(miv - 1.0) < 0.05


def test_miv_popcount_oracle(cube_db):
    scene = _box_scene([[0.0, 0, 0.5], [0.6, 0.2, 0.5]])
    miv, count = miv_and_collisions(scene, cube_db, resolution=48)
    origin, dims, spacing = scene_voxel_grid([scene], cube_db, 48)
    occs = [
        voxelize_occupancy(cube_db.entry(0, 0).mesh, o.pose, origin, dims, spacing)
        for o in scene.objects
    ]
    overlap = int(np.count_nonzero(occs[0] & occs[1]))
    assert count == 1
    assert miv == overlap * spacing ** 3

from dataclasses import replace

import numpy as np
import pytest

from shapescene.collision import collision_gradient, collision_loss_total
from shapescene.errors import MismatchedLengths, NonFinite, ShapeSceneError, ZeroScale
from shapescene.geom import Pose9DoF, apply_pose, geodesic_distance
from shapescene.losses import pose_loss_rt
from shapescene.metrics import miv_and_collisions
from shapescene.optim import (
    OptimConfig,
    _descend,
    fit_poses,
    resolve_collisions,
    TOL,
    scene_to_objects,
)
from shapescene.scene import (
    PlacedObject,
    Scene,
    generate_scene,
    perturb_pose,
    scene_to_json,
    shape_entry,
)


def _targets(db, scene):
    return [apply_pose(o.pose, shape_entry(db, o).points) for o in scene.objects]


def _perturbed(scene, rot_deg, trans, scale, seed):
    objects = tuple(
        PlacedObject(o.class_name, o.exemplar,
                     perturb_pose(o.pose, rot_deg, trans, scale, seed=seed + k))
        for k, o in enumerate(scene.objects)
    )
    return Scene(scene.seed, objects)


def test_optim_config_validates():
    with pytest.raises(ValueError):
        OptimConfig(lr=0.0)
    with pytest.raises(ValueError):
        OptimConfig(iterations=0)


def test_descend_stops_on_non_finite_iterate():
    # A NaN gradient with a finite objective (as a reflection pair with equal
    # singular values gives) stops before the NaN iterate is evaluated.
    calls = []

    def evaluate(params):
        calls.append(params)
        return 1.0, np.full_like(params, np.nan), False

    with pytest.raises(NonFinite, match="iteration 1$"):
        _descend(np.zeros((2, 15)), OptimConfig(iterations=10), evaluate)
    assert len(calls) == 1


def test_fit_poses_ground_truth_init(toy_db):
    gt = generate_scene(toy_db, 2, seed=21)
    recovered, trace = fit_poses(toy_db, gt, _targets(toy_db, gt),
                                 OptimConfig(iterations=100))
    assert trace[0] < 1e-20
    assert len(trace) == 1  # converged at iteration 0
    assert scene_to_json(recovered) == scene_to_json(gt)


def test_fit_poses_recovers_perturbation(toy_db):
    gt = generate_scene(toy_db, 1, seed=31)
    init = _perturbed(gt, 10.0, 0.1, 0.1, seed=100)
    recovered, trace = fit_poses(toy_db, init, _targets(toy_db, gt),
                                 OptimConfig(lr=1e-2, iterations=500))
    o, r = gt.objects[0], recovered.objects[0]
    assert geodesic_distance(o.pose.r, r.pose.r) < 1e-3
    assert np.linalg.norm(o.pose.t - r.pose.t) < 1e-3
    assert np.max(np.abs(o.pose.s - r.pose.s)) < 1e-3


def test_fit_poses_trace_monotone(toy_db):
    gt = generate_scene(toy_db, 1, seed=32)
    init = _perturbed(gt, 10.0, 0.1, 0.1, seed=200)
    _, trace = fit_poses(toy_db, init, _targets(toy_db, gt),
                         OptimConfig(lr=1e-2, iterations=300))
    tr = np.array(trace)
    assert np.all(np.diff(tr[10:]) <= 1e-9)


def test_fit_poses_deterministic(toy_db):
    gt = generate_scene(toy_db, 2, seed=33)
    init = _perturbed(gt, 8.0, 0.05, 0.05, seed=300)
    cfg = OptimConfig(lr=1e-2, iterations=100)
    a, trace_a = fit_poses(toy_db, init, _targets(toy_db, gt), cfg)
    b, trace_b = fit_poses(toy_db, init, _targets(toy_db, gt), cfg)
    assert trace_a == trace_b
    assert scene_to_json(a) == scene_to_json(b)


def test_fit_poses_takes_two_svds_per_evaluation(toy_db, monkeypatch):
    # Each evaluation projects once, with two SVDs; the written scene projects
    # the best iterate once more. A third SVD per evaluation fails here.
    gt = generate_scene(toy_db, 2, seed=35)
    init = _perturbed(gt, 8.0, 0.05, 0.05, seed=500)
    targets = _targets(toy_db, gt)
    svd, calls = np.linalg.svd, []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    _, trace = fit_poses(toy_db, init, targets, OptimConfig(lr=1e-2, iterations=20))
    assert len(trace) == 21  # the budget ran out: one evaluation per iterate
    assert len(calls) == 2 * (len(trace) + 1)
    assert set(calls) == {(2, 3, 3)}


def test_fit_poses_freeze_blocks(toy_db):
    gt = generate_scene(toy_db, 1, seed=34)
    init = _perturbed(gt, 8.0, 0.05, 0.05, seed=400)
    recovered, _ = fit_poses(toy_db, init, _targets(toy_db, gt),
                             OptimConfig(lr=1e-2, iterations=50),
                             freeze=frozenset({"rot", "scale"}))
    o, r = init.objects[0], recovered.objects[0]
    # The frozen raw matrix still passes through the final projection.
    assert np.allclose(r.pose.r.m, o.pose.r.m, atol=1e-12)
    assert np.array_equal(r.pose.s, o.pose.s)
    assert not np.array_equal(r.pose.t, o.pose.t)
    with pytest.raises(ValueError):
        fit_poses(toy_db, init, _targets(toy_db, gt), OptimConfig(),
                  freeze=frozenset({"bogus"}))


def test_fit_poses_writes_the_pose_it_scored(toy_db):
    # At lr 3 the best iterate has negative scale components; the written
    # pose moves their signs into the rotation and scores the traced objective.
    gt = generate_scene(toy_db, 2, seed=0)
    init = _perturbed(gt, 30.0, 0.3, 0.3, seed=0)
    fit, trace = fit_poses(toy_db, init, _targets(toy_db, gt),
                           OptimConfig(lr=3.0, iterations=60))
    clouds = [shape_entry(toy_db, o).points for o in gt.objects]
    score = pose_loss_rt([o.pose for o in gt.objects], [o.pose for o in fit.objects], clouds)
    assert score == pytest.approx(trace[-1], rel=1e-12)


def test_fit_poses_folds_an_even_sign_count_into_the_rotation(toy_db):
    # Targets mirrored in x and y are best fitted by negative x and y scales,
    # with the rotation and translation frozen: a half turn about z, written
    # as positive scales with the turn in the rotation.
    gt = generate_scene(toy_db, 1, seed=37)
    o = gt.objects[0]
    points = shape_entry(toy_db, o).points
    turned = [apply_pose(o.pose, points * [-1.0, -1.0, 1.0])]
    fit, trace = fit_poses(toy_db, gt, turned, OptimConfig(lr=0.1, iterations=100),
                           freeze=frozenset({"rot", "trans"}))
    pose = fit.objects[0].pose
    assert np.all(pose.s > 0.0)
    assert np.array_equal(pose.r.m, o.pose.r.m * [-1.0, -1.0, 1.0])
    assert np.sum((apply_pose(pose, points) - turned[0]) ** 2) == pytest.approx(
        trace[-1], rel=1e-12)


@pytest.mark.parametrize("mirror", [(-1.0, 1.0, 1.0), (-1.0, -1.0, -1.0)])
def test_fit_poses_reflection_raises(toy_db, mirror):
    # Targets mirrored in x, or in all three axes, are best fitted by an odd
    # count of negative scales, with the rotation and translation frozen: a
    # reflection, which no pose holds.
    gt = generate_scene(toy_db, 1, seed=37)
    o = gt.objects[0]
    mirrored = [apply_pose(o.pose, shape_entry(toy_db, o).points * mirror)]
    with pytest.raises(ShapeSceneError, match="reflection"):
        fit_poses(toy_db, gt, mirrored, OptimConfig(lr=0.1, iterations=100),
                  freeze=frozenset({"rot", "trans"}))


def test_fit_poses_mismatched_targets(toy_db):
    gt = generate_scene(toy_db, 2, seed=35)
    with pytest.raises(MismatchedLengths):
        fit_poses(toy_db, gt, _targets(toy_db, gt)[:1], OptimConfig())
    # A target cloud with its own point count, on its own or on every object.
    targets = _targets(toy_db, gt)
    for short in ([targets[0], targets[1][:20]], [t[:20] for t in targets]):
        with pytest.raises(MismatchedLengths):
            fit_poses(toy_db, gt, short, OptimConfig())


def test_fit_poses_non_finite_target_stops(toy_db):
    gt = generate_scene(toy_db, 2, seed=36)
    targets = _targets(toy_db, gt)
    targets[1] = targets[1].copy()
    targets[1][0, 2] = np.nan
    with pytest.raises(NonFinite, match="iteration 0$"):
        fit_poses(toy_db, gt, targets, OptimConfig(iterations=100))


def test_resolve_collision_free_unchanged(toy_db):
    scene = generate_scene(toy_db, 2, seed=41)
    resolved, trace = resolve_collisions(toy_db, scene, OptimConfig(iterations=20))
    assert trace[0] == (0.0, 0.0, 0.0)
    assert scene_to_json(resolved) == scene_to_json(scene)


def test_resolve_lowers_collision_loss(toy_db):
    base = generate_scene(toy_db, 2, seed=42)
    a, b = base.objects
    overlap = Scene(base.seed, (
        a,
        PlacedObject(b.class_name, b.exemplar,
                     Pose9DoF(b.pose.r, a.pose.t + np.array([0.1, 0.05, 0.0]),
                              b.pose.s)),
    ))
    before = collision_loss_total(scene_to_objects(toy_db, overlap))
    assert before > 0.0
    resolved, _ = resolve_collisions(
        toy_db, overlap, OptimConfig(lr=2e-2, iterations=200),
        anchor_term_weight=1e-3)
    after = collision_loss_total(scene_to_objects(toy_db, resolved))
    assert after < before


def test_resolve_moves_translations_only(toy_db):
    base = generate_scene(toy_db, 2, seed=43)
    a, b = base.objects
    overlap = Scene(base.seed, (
        a,
        PlacedObject(b.class_name, b.exemplar,
                     Pose9DoF(b.pose.r, a.pose.t + np.array([0.1, 0.0, 0.0]),
                              b.pose.s)),
    ))
    resolved, _ = resolve_collisions(toy_db, overlap,
                                     OptimConfig(lr=2e-2, iterations=100),
                                     anchor_term_weight=1e-3)
    for orig, res in zip(overlap.objects, resolved.objects):
        assert np.array_equal(res.pose.r.m, orig.pose.r.m)
        assert np.array_equal(res.pose.s, orig.pose.s)


def test_resolve_collision_count_not_increased(toy_db):
    scene = generate_scene(toy_db, 3, seed=45)
    _, count_before = miv_and_collisions(scene, toy_db)
    resolved, _ = resolve_collisions(toy_db, scene,
                                     OptimConfig(lr=2e-2, iterations=50),
                                     anchor_term_weight=1e-3)
    _, count_after = miv_and_collisions(resolved, toy_db)
    assert count_after <= count_before


def _resolve_by_full_gradient(db, scene, cfg, anchor_term_weight):
    """resolve_collisions' trace and translations, with every evaluation
    rebuilding the posed objects and taking collision_gradient's t rows."""
    objs = scene_to_objects(db, scene)
    t0 = np.array([o.pose.t for o in objs])
    trace = []

    def evaluate(params):
        current = [replace(o, pose=Pose9DoF(o.pose.r, t, o.pose.s)) for o, t in zip(objs, params)]
        coll, (_, grad, _) = collision_gradient(current)
        delta = params - t0
        anchor = 0.0
        for d in delta:
            anchor += anchor_term_weight * float(d @ d)
        obj = coll + anchor
        trace.append((coll, anchor, obj))
        return obj, grad + 2.0 * anchor_term_weight * delta, coll <= TOL

    return _descend(t0, cfg, evaluate), trace


@pytest.mark.parametrize("anchor", [1.0, 1e-3])
def test_resolve_trace_bit_identical_to_full_gradient(toy_db, anchor):
    base = generate_scene(toy_db, 4, seed=46)
    centroid = np.mean([o.pose.t for o in base.objects], axis=0)
    pulled = Scene(base.seed, tuple(
        PlacedObject(o.class_name, o.exemplar,
                     Pose9DoF(o.pose.r, centroid + 0.5 * (o.pose.t - centroid), o.pose.s))
        for o in base.objects))
    cfg = OptimConfig(lr=2e-2, iterations=15)
    resolved, trace = resolve_collisions(toy_db, pulled, cfg, anchor_term_weight=anchor)
    best, expected = _resolve_by_full_gradient(toy_db, pulled, cfg, anchor)
    assert trace == expected and trace[0][0] > 0.0
    assert np.array_equal([o.pose.t for o in resolved.objects], best)


def test_resolve_near_zero_scale_raises(toy_db):
    a, b = generate_scene(toy_db, 2, seed=47).objects
    tiny = PlacedObject(b.class_name, b.exemplar,
                        Pose9DoF(b.pose.r, b.pose.t, np.array([1.0, 1e-13, 1.0])))
    with pytest.raises(ZeroScale):
        resolve_collisions(toy_db, Scene(0, (a, tiny)), OptimConfig(iterations=10))

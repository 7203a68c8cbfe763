from dataclasses import replace

import numpy as np
import pytest

from conftest import random_rotation

from shapescene import collision
from shapescene.collision import (
    SceneObject,
    collision_energy_single,
    collision_gradient,
    collision_loss_total,
    geman_mcclure,
    geman_mcclure_deriv,
    pair_maps,
    relative_transform,
    translation_step,
)
from shapescene.errors import ZeroScale
from shapescene.geom import Pose9DoF, Rotation, apply_pose
from shapescene.sdf import SdfGrid, clamp_interior, mesh_to_sdf
from shapescene.toys import make_box


def _trilinear_oracle(g, x):
    u = (np.asarray(x) - g.origin) / g.spacing
    i = np.floor(u).astype(int)
    n = np.array(g.values.shape)
    if np.any(i < 0) or np.any(i + 1 > n - 1):
        return 0.0
    f = u - i
    total = 0.0
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                w = ((f[0] if dx else 1 - f[0])
                     * (f[1] if dy else 1 - f[1])
                     * (f[2] if dz else 1 - f[2]))
                total += w * g.values[i[0] + dx, i[1] + dy, i[2] + dz]
    return total


def _cube_object(pose, n_points=128, seed=0):
    from shapescene.mesh import sample_surface_points
    cube = make_box()
    return SceneObject(
        class_id=0,
        exemplar_index=0,
        pose=pose,
        clamped_sdf=clamp_interior(mesh_to_sdf(cube, 24)),
        points=sample_surface_points(cube, n_points, seed),
    )


def test_geman_mcclure_values():
    assert geman_mcclure(0.0) == 0.0
    assert geman_mcclure(1.0) == 0.25
    assert abs(geman_mcclure(10.0) - 50.0 / 101.0) < 1e-12
    assert geman_mcclure(1e6) < 0.5


def test_geman_mcclure_deriv_fd():
    for x in (0.1, 1.0, 3.7):
        fd = (geman_mcclure(x + 1e-7) - geman_mcclure(x - 1e-7)) / 2e-7
        assert abs(geman_mcclure_deriv(x) - fd) < 1e-7


def test_relative_transform_identity():
    obj = _cube_object(Pose9DoF.identity())
    a, b = relative_transform(obj, obj)
    assert np.allclose(a, np.eye(3), atol=1e-12)
    assert np.allclose(b, 0.0, atol=1e-12)


def test_relative_transform_translation():
    i = _cube_object(Pose9DoF(Rotation.identity(), np.array([1.0, 0, 0]), np.ones(3)))
    j = _cube_object(Pose9DoF.identity())
    a, b = relative_transform(i, j)
    assert np.allclose(a, np.eye(3))
    assert np.allclose(b, [1.0, 0.0, 0.0])


def test_relative_transform_round_trip(rng):
    for _ in range(10):
        pi = Pose9DoF(random_rotation(rng), rng.normal(size=3),
                      np.exp(rng.normal(size=3) * 0.3))
        pj = Pose9DoF(random_rotation(rng), rng.normal(size=3),
                      np.exp(rng.normal(size=3) * 0.3))
        a, b = relative_transform(_cube_object(pi), _cube_object(pj))
        pts = rng.normal(size=(100, 3))
        # Mapping into j's frame then applying pose j must equal applying pose i.
        assert np.allclose(apply_pose(pj, pts @ a.T + b), apply_pose(pi, pts),
                           atol=1e-10)


def test_relative_transform_zero_scale():
    i = _cube_object(Pose9DoF.identity())
    bad = Pose9DoF(Rotation.identity(), np.zeros(3), np.array([1.0, 1.0, 1e-15]))
    j = replace(i, pose=bad)
    with pytest.raises(ZeroScale):
        relative_transform(i, j)


def test_energy_separated_zero():
    a = _cube_object(Pose9DoF.identity())
    b = _cube_object(Pose9DoF(Rotation.identity(), np.array([5.0, 0, 0]), np.ones(3)))
    assert collision_energy_single(a, [b]) == 0.0
    assert collision_loss_total([a, b]) == 0.0


def test_energy_deep_overlap_lower_bound():
    # A small cube fully inside a big one: every sample point is at depth
    # >= 0.2 inside the big cube (small cube spans [-0.1, 0.1]^3).
    big = _cube_object(Pose9DoF.identity())
    small = _cube_object(
        Pose9DoF(Rotation.identity(), np.zeros(3), np.full(3, 0.2)), seed=1)
    e = collision_energy_single(small, [big])
    assert e >= len(small.points) * 0.2 * 0.8  # generous interpolation slack


def test_energy_loop_oracle(rng):
    a = _cube_object(Pose9DoF(random_rotation(rng), np.array([0.2, 0.1, 0.0]),
                              np.ones(3)), n_points=64)
    b = _cube_object(Pose9DoF(random_rotation(rng), np.zeros(3), np.ones(3)),
                     n_points=64, seed=2)
    e = collision_energy_single(a, [b])
    ta, tb = relative_transform(a, b)
    oracle = sum(_trilinear_oracle(b.clamped_sdf, x @ ta.T + tb) for x in a.points)
    assert abs(e - oracle) < 1e-9


def test_loss_reorder_invariant(rng):
    objs = [
        _cube_object(Pose9DoF(random_rotation(rng), rng.normal(size=3) * 0.3,
                              np.ones(3)), seed=k)
        for k in range(3)
    ]
    base = collision_loss_total(objs)
    assert abs(collision_loss_total(objs[::-1]) - base) < 1e-12
    assert abs(collision_loss_total([objs[1], objs[2], objs[0]]) - base) < 1e-12


def test_loss_bounded():
    objs = [
        _cube_object(Pose9DoF.identity()),
        _cube_object(Pose9DoF(Rotation.identity(), np.array([0.01, 0, 0]),
                              np.ones(3)), seed=1),
    ]
    total = collision_loss_total(objs)
    assert 0.0 < total < len(objs) / 2.0


def test_gradient_separated_zero():
    a = _cube_object(Pose9DoF.identity())
    b = _cube_object(Pose9DoF(Rotation.identity(), np.array([5.0, 0, 0]), np.ones(3)))
    total, (gr, gt, gs) = collision_gradient([a, b])
    assert total == 0.0
    assert not np.any(gr) and not np.any(gt) and not np.any(gs)


def test_gradient_sign_overlap_along_x():
    # b penetrates a from +x; descending the loss should push b further +x,
    # so the translation gradient on b points along -x.
    a = _cube_object(Pose9DoF.identity())
    b = _cube_object(Pose9DoF(Rotation.identity(), np.array([0.8, 0, 0]),
                              np.ones(3)), seed=1)
    _, (_, grads_t, _) = collision_gradient([a, b])
    assert grads_t[1][0] < 0.0
    assert grads_t[0][0] > 0.0


def test_gradient_translation_fd(rng):
    a = _cube_object(Pose9DoF(random_rotation(rng), np.array([0.3, 0.1, -0.1]),
                              np.ones(3)), n_points=96)
    b = _cube_object(Pose9DoF(random_rotation(rng), np.zeros(3),
                              np.array([1.1, 0.9, 1.0])), n_points=96, seed=3)
    _, grads = collision_gradient([a, b])
    eps = 1e-6
    for which, obj in ((0, a), (1, b)):
        fd = np.zeros(3)
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = eps
            up = replace(obj, pose=Pose9DoF(obj.pose.r, obj.pose.t + e, obj.pose.s))
            dn = replace(obj, pose=Pose9DoF(obj.pose.r, obj.pose.t - e, obj.pose.s))
            scene_up = [up, b] if which == 0 else [a, up]
            scene_dn = [dn, b] if which == 0 else [a, dn]
            fd[axis] = (collision_loss_total(scene_up)
                        - collision_loss_total(scene_dn)) / (2 * eps)
        denom = max(np.linalg.norm(fd), 1e-10)
        assert np.linalg.norm(grads[1][which] - fd) / denom < 1e-3


def test_gradient_scale_fd(rng):
    a = _cube_object(Pose9DoF(random_rotation(rng), np.array([0.4, 0.0, 0.1]),
                              np.ones(3)), n_points=96)
    b = _cube_object(Pose9DoF(random_rotation(rng), np.zeros(3), np.ones(3)),
                     n_points=96, seed=5)
    _, grads = collision_gradient([a, b])
    eps = 1e-6
    for which, obj in ((0, a), (1, b)):
        fd = np.zeros(3)
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = eps
            up = replace(obj, pose=Pose9DoF(obj.pose.r, obj.pose.t, obj.pose.s + e))
            dn = replace(obj, pose=Pose9DoF(obj.pose.r, obj.pose.t, obj.pose.s - e))
            scene_up = [up, b] if which == 0 else [a, up]
            scene_dn = [dn, b] if which == 0 else [a, dn]
            fd[axis] = (collision_loss_total(scene_up)
                        - collision_loss_total(scene_dn)) / (2 * eps)
        denom = max(np.linalg.norm(fd), 1e-10)
        assert np.linalg.norm(grads[2][which] - fd) / denom < 1e-3


def test_gradient_rotation_fd_through_projection(rng):
    from shapescene.geom import chain_rotation_grad, project_to_so3
    raw = [random_rotation(rng).m + rng.normal(size=(3, 3)) * 0.2 for _ in range(2)]
    ts = [np.array([0.3, 0.1, 0.0]), np.zeros(3)]
    objs = [
        _cube_object(Pose9DoF(project_to_so3(raw[k]), ts[k], np.ones(3)),
                     n_points=96, seed=k)
        for k in range(2)
    ]
    _, (grads_r, _, _) = collision_gradient(objs)
    grads_r = chain_rotation_grad(project_to_so3(np.array(raw)), raw, grads_r)
    eps = 1e-6
    for which in range(2):
        fd = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                e = np.zeros((3, 3))
                e[i, j] = eps
                up = replace(objs[which], pose=Pose9DoF(
                    project_to_so3(raw[which] + e), ts[which], np.ones(3)))
                dn = replace(objs[which], pose=Pose9DoF(
                    project_to_so3(raw[which] - e), ts[which], np.ones(3)))
                scene_up = [up if k == which else objs[k] for k in range(2)]
                scene_dn = [dn if k == which else objs[k] for k in range(2)]
                fd[i, j] = (collision_loss_total(scene_up)
                            - collision_loss_total(scene_dn)) / (2 * eps)
        denom = max(np.linalg.norm(fd), 1e-10)
        assert np.linalg.norm(grads_r[which] - fd) / denom < 1e-3


def _nested_cubes(rng, counts):
    """Randomly rotated cubes of halving scale about nearly one centre, with
    counts[k] surface points on cube k: each cube lies inside every larger
    one, so even a one-point cloud hits the larger cubes' fields."""
    return [_cube_object(Pose9DoF(random_rotation(rng), rng.normal(size=3) * 0.01,
                                  np.full(3, 0.5**k)), n_points=n, seed=k)
            for k, n in enumerate(counts)]


def test_translation_step_bit_identical_to_collision_gradient(rng):
    """Random overlapping 3-8 object scenes, each with one far object (zero
    energy, and pairs whose points miss every field), at the scene's own
    translations and at shifted ones that reuse the same pair maps. Then
    2-object scenes: each target has one source, so its offsets come from a
    (1, 3) product, and 1- and 2-point clouds make single-row products in the
    gradient too; NumPy runs those as matrix-vector products."""
    for trial in range(6):
        n = 3 + trial
        objs = [_cube_object(Pose9DoF(random_rotation(rng), rng.normal(size=3) * 0.4,
                                      np.exp(rng.normal(size=3) * 0.2)),
                             n_points=64, seed=k) for k in range(n - 1)]
        objs.append(_cube_object(Pose9DoF(random_rotation(rng), np.array([9.0, 0.0, 0.0]),
                                          np.ones(3)), n_points=64, seed=n))
        maps = pair_maps(objs)
        for shift in (np.zeros((n, 3)), rng.normal(size=(n, 3)) * 0.1):
            moved = [replace(o, pose=Pose9DoF(o.pose.r, o.pose.t + d, o.pose.s))
                     for o, d in zip(objs, shift)]
            t = np.array([o.pose.t for o in moved])
            loss, grad = translation_step(maps, t)
            total, grads = collision_gradient(moved)
            assert loss == total == collision_loss_total(moved)
            assert np.array_equal(grad, grads[1])
            assert collision_energy_single(moved[-1], moved[:-1]) == 0.0
            assert not np.any(grad[-1])
            assert 0.0 < loss
    for counts in ((64, 64), (1, 1), (2, 2)):
        objs = _nested_cubes(rng, counts)
        _assert_step_matches_collision_gradient(
            objs, [np.zeros((2, 3))] + [rng.normal(size=(2, 3)) * 0.02 for _ in range(3)])
        assert 0.0 < collision_loss_total(objs)


def test_pair_maps_zero_scale():
    i = _cube_object(Pose9DoF.identity())
    j = replace(i, pose=Pose9DoF(Rotation.identity(), np.zeros(3), np.array([1.0, 1.0, 1e-15])))
    # Two ordered pairs, (1, 0) then (0, 1), each holding the source's points.
    n = len(i.points)
    maps = pair_maps([i, i])
    assert maps.points.shape == (3, 2 * n)
    assert maps.row_target.tolist() == [0] * n + [1] * n
    assert maps.fields.shape == (2, 24, 24, 24)
    with pytest.raises(ZeroScale):
        pair_maps([i, j])


def test_pair_maps_fields_of_two_layouts():
    """The stacked fields need one shape, origin and spacing, and the
    stacked clouds one point count."""
    i = _cube_object(Pose9DoF.identity())
    g = i.clamped_sdf
    for j in [replace(i, clamped_sdf=other) for other in (
            clamp_interior(mesh_to_sdf(make_box(), 16)),
            SdfGrid(g.values, g.origin + 1e-9, g.spacing),
            SdfGrid(g.values, g.origin, np.nextafter(g.spacing, 1.0)))] + [
            replace(i, points=i.points[:-1])]:
        with pytest.raises(ValueError, match="^object 1's field layout or point count "
                                             "differs from object 0's$"):
            pair_maps([i, j])
    assert pair_maps([i, replace(i, clamped_sdf=SdfGrid(g.values.copy(), g.origin.copy(),
                                                        g.spacing))]) is not None


def _assert_step_matches_collision_gradient(objs, shifts):
    """translation_step on pair_maps(objs) equals collision_gradient and
    collision_loss_total bit for bit at each shift of the translations."""
    maps = pair_maps(objs)
    for shift in shifts:
        moved = [replace(o, pose=Pose9DoF(o.pose.r, o.pose.t + d, o.pose.s))
                 for o, d in zip(objs, shift)]
        t = np.reshape([o.pose.t for o in moved], np.shape(shift))
        loss, grad = translation_step(maps, t)
        total, grads = collision_gradient(moved)
        assert loss == total == collision_loss_total(moved)
        assert grad.shape == np.shape(t)
        assert np.array_equal(grad.reshape(-1, 3), grads[1])


def test_pair_maps_target_major_stack(rng):
    """Pair (i, j) of the stack sits at j (n - 1) + i - (i > j), with its
    source's points in point order: each target's rows are contiguous.
    Nested cubes add segments of one and two points, and a 2-object scene a
    single source per target."""
    scenes = [[_cube_object(Pose9DoF(random_rotation(rng), rng.normal(size=3) * 0.3,
                                     np.exp(rng.normal(size=3) * 0.2)), n_points=97, seed=k)
               for k in range(5)],
              _nested_cubes(rng, (2, 2, 2, 2)), _nested_cubes(rng, (1, 1))]
    for objs in scenes:
        n, count = len(objs), len(objs[0].points)
        maps = pair_maps(objs)
        assert maps.row_target.tolist() == [j for j in range(n) for _ in range((n - 1) * count)]
        for j in range(n):
            for k, i in enumerate(i for i in range(n) if i != j):
                a, _ = relative_transform(objs[i], objs[j])
                rows = slice((j * (n - 1) + k) * count, (j * (n - 1) + k + 1) * count)
                assert np.array_equal(maps.points[:, rows], (objs[i].points @ a.T).T)
        assert maps.points.shape == (3, n * (n - 1) * count)
        _assert_step_matches_collision_gradient(
            objs, [np.zeros((n, 3))] + [rng.normal(size=(n, 3)) * 0.1 for _ in range(3)])
        assert 0.0 < collision_loss_total(objs)


def test_translation_step_target_missed_by_every_source():
    """A small cube deep inside a big one: its points sit in the big cube's
    field, but no point of any source lands in its own grid."""
    big = _cube_object(Pose9DoF.identity(), n_points=64)
    other = _cube_object(Pose9DoF(Rotation.identity(), np.array([0.9, 0.0, 0.0]), np.ones(3)),
                         n_points=64, seed=1)
    small = _cube_object(Pose9DoF(Rotation.identity(), np.zeros(3), np.full(3, 0.2)),
                         n_points=64, seed=2)
    objs = [big, other, small]
    assert collision_energy_single(big, [small]) == 0.0
    assert collision_energy_single(other, [small]) == 0.0
    assert collision_energy_single(small, [big]) > 0.0
    _assert_step_matches_collision_gradient(
        objs, [np.zeros((3, 3)), np.array([[0.0, 0.01, 0.0], [0.05, 0.0, 0.0], [0.0, 0.0, 0.02]])])


def test_translation_step_one_and_zero_objects():
    obj = _cube_object(Pose9DoF.identity())
    assert pair_maps([obj]) is None and pair_maps([]) is None  # no ordered pair
    loss, grad = translation_step(pair_maps([obj]), np.zeros((1, 3)))
    assert loss == 0.0 and not np.any(grad)
    _assert_step_matches_collision_gradient([obj], [np.zeros((1, 3)), np.ones((1, 3))])
    for t in (np.zeros((0, 3)), np.zeros(0)):  # resolve's t0 of an empty scene is (0,)
        loss, grad = translation_step(pair_maps([]), t)
        assert loss == 0.0 and grad.shape == t.shape
    _assert_step_matches_collision_gradient([], [np.zeros((0, 3))])
    # Three overlapping objects of 0 points each: no row, so no energy.
    empty = [replace(obj, points=np.zeros((0, 3))) for _ in range(3)]
    total, grads = collision_gradient(empty)
    assert total == 0.0 and not np.any(grads[1])
    _assert_step_matches_collision_gradient(empty, [np.zeros((3, 3)), np.eye(3) * 0.1])


def test_translation_step_samples_once(rng, monkeypatch):
    """One step samples every pair of the scene in one kernel call."""
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(collision, "sample_grids", counted("grids", collision.sample_grids))
    monkeypatch.setattr(collision, "sample_zero_outside",
                        counted("zero_outside", collision.sample_zero_outside))
    objs = _nested_cubes(rng, (32, 32, 32, 32))
    maps = pair_maps(objs)
    for shift in range(3):
        translation_step(maps, np.array([o.pose.t for o in objs]) + 0.01 * shift)
    assert calls == ["grids"] * 3

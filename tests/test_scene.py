import json

import numpy as np
import pytest

from conftest import random_rotation

from shapescene.errors import UnknownClass
from shapescene.geom import Pose9DoF, apply_pose, geodesic_distance
from shapescene.metrics import miv_and_collisions
from shapescene.scene import (
    PlacedObject,
    Scene,
    class_id,
    generate_scene,
    load_scene,
    perturb_pose,
    save_scene,
    scene_from_json,
    scene_grid,
    scene_to_json,
    shape_entry,
)


def _random_scene(rng):
    objects = tuple(
        PlacedObject("box", int(rng.integers(5)),
                     Pose9DoF(random_rotation(rng), rng.normal(size=3),
                              np.exp(rng.normal(size=3) * 0.2)))
        for _ in range(3)
    )
    return Scene(seed=77, objects=objects)


def test_scene_json_schema(rng):
    scene = _random_scene(rng)
    payload = json.loads(scene_to_json(scene))
    assert set(payload) == {"seed", "objects"}
    assert payload["seed"] == 77
    for o in payload["objects"]:
        assert set(o) == {"class", "exemplar", "R", "t", "s"}
        assert len(o["R"]) == 9 and len(o["t"]) == 3 and len(o["s"]) == 3
    # Row-major rotation layout.
    first = scene.objects[0]
    assert payload["objects"][0]["R"] == list(first.pose.r.m.reshape(-1))


def test_scene_json_round_trip_exact(rng):
    scene = _random_scene(rng)
    back = scene_from_json(scene_to_json(scene))
    assert back.seed == scene.seed
    for a, b in zip(scene.objects, back.objects):
        assert a.class_name == b.class_name and a.exemplar == b.exemplar
        assert np.array_equal(a.pose.r.m, b.pose.r.m)
        assert np.array_equal(a.pose.t, b.pose.t)
        assert np.array_equal(a.pose.s, b.pose.s)


def test_scene_file_round_trip(tmp_path, rng):
    scene = _random_scene(rng)
    path = tmp_path / "scene.json"
    save_scene(path, scene)
    again = tmp_path / "scene2.json"
    save_scene(again, load_scene(path))
    assert path.read_bytes() == again.read_bytes()


def test_scene_grid_cubic_voxels():
    origin, dims, spacing = scene_grid(((0.0, 4.0), (0.0, 2.0), (0.0, 1.0)), 64)
    assert spacing == 4.0 / 64
    assert dims == (64, 32, 16)
    assert np.allclose(origin, spacing / 2.0)


def test_generate_scene_single_on_ground(toy_db):
    scene = generate_scene(toy_db, 1, seed=5)
    o = scene.objects[0]
    mesh = shape_entry(toy_db, o).mesh
    min_z = apply_pose(o.pose, mesh.vertices)[:, 2].min()
    assert abs(min_z) < 1e-9


def test_generate_scene_deterministic(toy_db):
    a = generate_scene(toy_db, 3, seed=11)
    b = generate_scene(toy_db, 3, seed=11)
    assert scene_to_json(a) == scene_to_json(b)


def test_generate_scene_collision_free(toy_db):
    for seed in (1, 2, 3):
        scene = generate_scene(toy_db, 3, seed=seed)
        miv, count = miv_and_collisions(scene, toy_db)
        assert (miv, count) == (0.0, 0)


def test_generate_scene_upright_yaw_only(toy_db):
    scene = generate_scene(toy_db, 2, seed=9)
    for o in scene.objects:
        # Yaw about z keeps the rotated z axis fixed.
        assert np.allclose(o.pose.r.m[:, 2], [0.0, 0.0, 1.0], atol=1e-9)


def test_perturb_identity():
    p = Pose9DoF.identity()
    q = perturb_pose(p, 0.0, 0.0, 0.0, seed=3)
    assert np.allclose(q.r.m, p.r.m, atol=1e-9)
    assert np.array_equal(q.t, p.t)
    assert np.array_equal(q.s, p.s)


def test_perturb_exact_rotation_angle(rng):
    p = Pose9DoF(random_rotation(rng), rng.normal(size=3), np.ones(3))
    q = perturb_pose(p, 10.0, 0.0, 0.0, seed=8)
    assert abs(geodesic_distance(p.r, q.r) - np.deg2rad(10.0)) < 1e-9


def test_perturb_magnitudes_bounded(rng):
    p = Pose9DoF(random_rotation(rng), rng.normal(size=3),
                 np.exp(rng.normal(size=3) * 0.2))
    for seed in range(20):
        q = perturb_pose(p, 5.0, 0.2, 0.15, seed=seed)
        assert np.linalg.norm(q.t - p.t) <= 0.2 + 1e-12
        assert np.all(np.abs(q.s / p.s - 1.0) <= 0.15 + 1e-12)


def test_perturb_deterministic(rng):
    p = Pose9DoF(random_rotation(rng), rng.normal(size=3), np.ones(3))
    a = perturb_pose(p, 10.0, 0.1, 0.1, seed=4)
    b = perturb_pose(p, 10.0, 0.1, 0.1, seed=4)
    assert np.array_equal(a.r.m, b.r.m)
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.s, b.s)


def test_perturb_negative_raises():
    with pytest.raises(ValueError):
        perturb_pose(Pose9DoF.identity(), -1.0, 0.0, 0.0, seed=0)


def test_class_id_unknown(toy_db):
    assert class_id(toy_db, "box") == 0
    with pytest.raises(UnknownClass):
        class_id(toy_db, "teapot")

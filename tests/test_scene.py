import json

import numpy as np
import pytest

from conftest import random_rotation

from shapescene import scene as scene_module
from shapescene.errors import PlacementFailure, UnknownClass
from shapescene.geom import Pose9DoF, apply_pose, geodesic_distance, rotation_about_axis
from shapescene.metrics import miv_and_collisions
from shapescene.scene import (
    DEFAULT_GROUND_BOUNDS,
    DEFAULT_SCALE_RANGE,
    GENERATION_CHECK_RESOLUTION,
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


def _generate_scene_per_candidate(db, n_objects, seed):
    """generate_scene drawing, rotating and judging one candidate at a time:
    the reference the batched candidates must match."""
    rng = np.random.default_rng(seed)
    (x0, x1), (y0, y1) = DEFAULT_GROUND_BOUNDS
    log_lo, log_hi = np.log(DEFAULT_SCALE_RANGE[0]), np.log(DEFAULT_SCALE_RANGE[1])
    zmax = 2.0 * DEFAULT_SCALE_RANGE[1]
    check_bounds = ((x0 - 1.5, x1 + 1.5), (y0 - 1.5, y1 + 1.5), (0.0, zmax))
    origin, dims, spacing = scene_grid(check_bounds, GENERATION_CHECK_RESOLUTION)
    placed = []
    taken = np.zeros(dims, dtype=bool)
    for _ in range(n_objects):
        for _ in range(scene_module.MAX_PLACEMENT_ATTEMPTS):
            cls = int(rng.integers(db.class_count))
            exemplar = int(rng.integers(db.k_per_class))
            yaw = float(rng.uniform(0.0, 2.0 * np.pi))
            s = np.exp(rng.uniform(log_lo, log_hi, size=3))
            x = float(rng.uniform(x0, x1))
            y = float(rng.uniform(y0, y1))
            rot = rotation_about_axis(np.array([0.0, 0.0, 1.0]), yaw)
            mesh = db.entry(cls, exemplar).mesh
            min_z = apply_pose(Pose9DoF(rot, np.array([x, y, 0.0]), s), mesh.vertices)[:, 2].min()
            pose = Pose9DoF(rot, np.array([x, y, -min_z]), s)
            occ = scene_module.voxelize_occupancy(mesh, pose, origin, dims, spacing)
            if not np.any(occ & taken):
                placed.append(PlacedObject(db.classes[cls], exemplar, pose))
                taken |= occ
                break
        else:
            raise PlacementFailure(f"could not place object {len(placed)} in "
                                   f"{scene_module.MAX_PLACEMENT_ATTEMPTS} attempts")
    return Scene(seed=seed, objects=tuple(placed))


def _counting_rasterisations(monkeypatch):
    """A list that grows by one for each voxelize_occupancy call of scene.py."""
    calls = []
    rasterise = scene_module.voxelize_occupancy

    def counted(*args):
        calls.append(None)
        return rasterise(*args)

    monkeypatch.setattr(scene_module, "voxelize_occupancy", counted)
    return calls


@pytest.mark.parametrize("n_objects", [1, 3, 6, 9])
def test_generate_scene_matches_per_candidate_loop(toy_db, monkeypatch, n_objects):
    # The same scene, byte for byte, from as many rasterisations: no
    # candidate is rasterised that the one-at-a-time loop would not judge.
    calls = _counting_rasterisations(monkeypatch)
    for seed in range(4):
        calls.clear()
        want = scene_to_json(_generate_scene_per_candidate(toy_db, n_objects, seed))
        judged = len(calls)
        assert scene_to_json(generate_scene(toy_db, n_objects, seed)) == want
        assert len(calls) == 2 * judged


def test_generate_scene_fails_as_the_per_candidate_loop(cube_db, monkeypatch):
    # A ground too full for the next cube within a budget that is no multiple
    # of the batch: the same object fails after the same attempts.
    monkeypatch.setattr(scene_module, "MAX_PLACEMENT_ATTEMPTS", 13)
    calls = _counting_rasterisations(monkeypatch)
    with pytest.raises(PlacementFailure) as want:
        _generate_scene_per_candidate(cube_db, 40, seed=3)
    judged = len(calls)
    with pytest.raises(PlacementFailure) as got:
        generate_scene(cube_db, 40, seed=3)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith(" in 13 attempts")
    assert len(calls) == 2 * judged


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

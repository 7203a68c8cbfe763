"""Tests of the benchmark's own tracer, counters and reference geometry.

Run with: python3 -m pytest benchmarks/tests -q
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from shapescene import cli, collision, metrics, optim, scene, sdf, shapedb  # noqa: E402
from shapescene.collision import SceneObject  # noqa: E402
from shapescene.geom import Pose9DoF, apply_pose  # noqa: E402
from shapescene.mesh import TriMesh  # noqa: E402
from shapescene.sdf import clamp_interior  # noqa: E402
from shapescene.toys import make_box, make_cylinder  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import convex_sdf, grid_subdivide  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_mesh_to_sdf_counts_voxels_times_triangles(tracer):
    box = make_box()  # 12 triangles
    assert tracer.command(lambda argv: sdf.mesh_to_sdf(box, 5) and 0, ["build-db"], 0) == 0
    m = tracer.summary()
    assert m["sdf.mesh_to_sdf.calls"] == 1
    assert m["sdf.mesh_to_sdf.voxels"] == 125
    assert m["mesh.point_triangle_distance.pairs"] == 125 * 12
    assert m["mesh.points_inside.pairs"] == 125 * 12 * 3
    # Every nanosecond of the root span is attributed to exactly one span.
    assert m["trace.attributed_s"] == pytest.approx(m["cli.build-db.s"], abs=1e-9)


def test_collision_pairs_sampled_and_hit():
    box = make_box()
    g = clamp_interior(sdf.mesh_to_sdf(box, 8))
    pts = box.vertices * 0.9

    def objects(dx):
        return [SceneObject(0, 0, Pose9DoF(t=np.array([x, 0.0, 0.0])), g, pts)
                for x in (0.0, dx)]

    t = Tracer()
    t.install()
    try:
        collision.collision_gradient(objects(0.1))   # overlapping: 2 energies + 2 gradients
        collision.collision_gradient(objects(5.0))   # apart: 2 energies, gradients skipped
        collision.collision_loss_total(objects(5.0))  # 2 energies
    finally:
        t.uninstall()
    m = t.summary()
    assert m["collision.pairs_sampled"] == 4 + 2 + 2
    assert m["collision.pairs_hit"] == 4
    assert m["sdf.sample_zero_outside.points"] == 8 * len(pts)
    assert m["collision.collision_gradient.calls"] == 2
    assert m["collision.collision_loss_total.calls"] == 1


@pytest.fixture(scope="module")
def tiny_db():
    return shapedb.build_database([(0, make_box()), (1, make_cylinder(segments=8))],
                                  k_per_class=1, seed=0, resolution=8)


def test_kmeans_buffer_bytes(tracer):
    data = np.arange(60, dtype=float).reshape(6, 10)
    shapedb.kmeans_pp(data, 2, np.random.default_rng(0))
    assert tracer.summary()["shapedb.kmeans_pp.buffer_bytes"] == 6 * 2 * 10 * 8


def test_generate_scene_attempts(tiny_db, tracer):
    placed = scene.generate_scene(tiny_db, 3, seed=4)
    m = tracer.summary()
    assert m["scene.generate_scene.placed"] == 3 == len(placed.objects)
    assert m["scene.generate_scene.attempts"] == m["mesh.voxelize_occupancy.calls"] >= 3
    assert m["scene.generate_scene.accept_ratio"] == 3 / m["scene.generate_scene.attempts"]


def test_optimizer_iterations_and_budget_stops(tiny_db, tracer):
    gt = scene.generate_scene(tiny_db, 1, seed=1)
    o = gt.objects[0]
    init = scene.Scene(gt.seed, (scene.PlacedObject(
        o.class_name, o.exemplar, scene.perturb_pose(o.pose, 5.0, 0.05, 0.05, seed=2)),))
    target = [apply_pose(o.pose, tiny_db.entry(scene.class_id(tiny_db, o.class_name),
                                                o.exemplar).points)]
    optim.fit_poses(tiny_db, init, target, optim.OptimConfig(iterations=3))
    m = tracer.summary()
    assert m["optim.fit_poses.iterations"] == 3
    assert m["optim.budget_stops"] == 1
    assert m["geom.project_to_so3.calls"] >= 4  # one per evaluated iterate


def test_wrapping_rebinds_imported_names_and_restores_them():
    sites = [(sdf, "points_inside"), (collision, "sample_zero_outside"),
             (scene, "voxelize_occupancy"), (metrics, "voxelize_occupancy"),
             (cli, "voxelize_occupancy"), (cli, "generate_scene")]
    originals = [getattr(mod, name) for mod, name in sites]
    t = Tracer()
    t.install()
    try:
        for (mod, name), orig in zip(sites, originals):
            assert getattr(mod, name) is not orig
            assert getattr(mod, name).__wrapped__ is orig
    finally:
        assert t.uninstall()
    for (mod, name), orig in zip(sites, originals):
        assert getattr(mod, name) is orig


def test_traced_cli_output_is_byte_identical(tmp_path):
    def run_build(out, traced):
        argv = ["build-db", "--meshes", str(tmp_path / "toys"), "--out", str(out),
                "--k", "1", "--res", "8", "--points", "16"]
        if not traced:
            return cli.main(argv)
        t = Tracer()
        t.install()
        try:
            return t.command(cli.main, argv, 0)
        finally:
            t.uninstall()

    assert cli.main(["make-toys", "--out", str(tmp_path / "toys")]) == 0
    assert run_build(tmp_path / "a", False) == 0
    assert run_build(tmp_path / "b", True) == 0
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_self_time_subtracts_union_of_children():
    t = Tracer()
    t.spans = [["root", 0, 0, 100, -1], ["a", 0, 10, 40, 0], ["b", 0, 30, 60, 0],
               ["c", 0, 15, 20, 1]]
    assert t.self_times_ns() == [50, 25, 30, 5]


def test_convex_reference_matches_mesh_to_sdf():
    frustum = make_box(1.0, 1.0, 1.0, taper=0.5)
    verts, tris = grid_subdivide(frustum.vertices, frustum.triangles, 2)
    assert len(tris) == 48
    grid = sdf.mesh_to_sdf(TriMesh(verts, tris), 8)
    exact = convex_sdf(verts, tris, grid.voxel_centers().reshape(-1, 3))
    assert np.allclose(exact, grid.values.reshape(-1), atol=1e-12)
    cube = make_box()
    assert np.allclose(convex_sdf(cube.vertices, cube.triangles,
                                  np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])),
                       [-0.5, 0.5, np.sqrt(0.5)])

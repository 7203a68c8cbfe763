import numpy as np
import pytest

from shapescene.errors import DegenerateMesh, NonWatertight
from shapescene.geom import Pose9DoF, Rotation, rotation_about_axis
from shapescene.mesh import (
    TriMesh,
    canonicalize_mesh,
    load_obj,
    point_triangle_distance,
    points_inside,
    sample_surface_points,
    save_obj,
    voxelize_occupancy,
)
from shapescene.toys import make_box, make_cylinder


def _cube_surface_distance(points):
    """Analytic unsigned distance from points to the unit cube's surface."""
    p = np.abs(np.asarray(points, dtype=np.float64)) - 0.5
    outside = np.linalg.norm(np.maximum(p, 0.0), axis=1)
    inside = -np.minimum(np.max(p, axis=1), 0.0)
    return outside + inside


def test_obj_round_trip(tmp_path):
    mesh = make_box(1.0, 2.0, 0.5)
    path = tmp_path / "box.obj"
    save_obj(path, mesh)
    back = load_obj(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    save_obj(tmp_path / "box2.obj", back)
    assert (tmp_path / "box.obj").read_bytes() == (tmp_path / "box2.obj").read_bytes()


def test_obj_fan_triangulation(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    mesh = load_obj(path)
    assert len(mesh.triangles) == 2
    assert np.array_equal(mesh.triangles, [[0, 1, 2], [0, 2, 3]])


def test_obj_empty_raises(tmp_path):
    path = tmp_path / "empty.obj"
    path.write_text("# nothing here\n")
    with pytest.raises(DegenerateMesh):
        load_obj(path)


def test_canonicalize_extents():
    mesh = make_box(2.0, 4.0, 1.0)
    canon = canonicalize_mesh(mesh)
    lo, hi = canon.bounds()
    assert np.allclose(lo, -0.5, atol=1e-12)
    assert np.allclose(hi, 0.5, atol=1e-12)


def test_canonicalize_centers_bounding_box():
    mesh = make_box()
    shifted = TriMesh(mesh.vertices + np.array([3.0, -1.0, 7.0]), mesh.triangles)
    canon = canonicalize_mesh(shifted)
    lo, hi = canon.bounds()
    assert np.allclose((lo + hi) / 2.0, 0.0, atol=1e-9)


def test_canonicalize_idempotent():
    canon = canonicalize_mesh(make_box())
    again = canonicalize_mesh(canon)
    assert np.allclose(again.vertices, canon.vertices, atol=1e-9)


def test_canonicalize_degenerate_raises():
    flat = TriMesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]),
                   np.array([[0, 1, 2]]))
    with pytest.raises(DegenerateMesh):
        canonicalize_mesh(flat)


def test_sample_surface_single_triangle():
    tri = TriMesh(np.array([[0.0, 0, 0], [2, 0, 0], [0, 3, 0]]),
                  np.array([[0, 1, 2]]))
    pts = sample_surface_points(tri, 500, seed=5)
    # Barycentric coordinates of each sample must be a convex combination.
    alpha = pts[:, 0] / 2.0
    beta = pts[:, 1] / 3.0
    assert np.all(alpha >= -1e-12) and np.all(beta >= -1e-12)
    assert np.all(alpha + beta <= 1.0 + 1e-12)
    assert np.allclose(pts[:, 2], 0.0)


def test_sample_surface_area_weighting():
    # Triangles with areas 1 and 3: the larger receives 30000 +- 500 of 40000.
    verts = np.array([
        [0.0, 0, 0], [2, 0, 0], [0, 1, 0],   # area 1
        [10.0, 0, 0], [12, 0, 0], [10, 3, 0],  # area 3
    ])
    mesh = TriMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
    pts = sample_surface_points(mesh, 40_000, seed=9)
    n_large = int(np.count_nonzero(pts[:, 0] >= 5.0))
    assert abs(n_large - 30_000) <= 500


def test_sample_surface_deterministic():
    mesh = make_box()
    a = sample_surface_points(mesh, 256, seed=3)
    b = sample_surface_points(mesh, 256, seed=3)
    assert np.array_equal(a, b)


def test_points_inside_cube(rng):
    cube = make_box()
    pts = rng.uniform(-1.0, 1.0, size=(500, 3))
    inside, disagreement = points_inside(cube, pts)
    oracle = np.all(np.abs(pts) < 0.5, axis=1)
    assert disagreement == 0.0
    assert np.array_equal(inside, oracle)


def test_voxelize_cube_exact():
    cube = make_box()
    origin = np.full(3, -0.95)
    occ = voxelize_occupancy(cube, Pose9DoF.identity(), origin, (20, 20, 20), 0.1)
    centers = origin + 0.1 * np.indices((20, 20, 20)).transpose(1, 2, 3, 0)
    oracle = np.all(np.abs(centers) < 0.5, axis=-1)
    assert np.array_equal(occ, oracle)


def test_voxelize_open_mesh_raises(open_box):
    with pytest.raises(NonWatertight):
        voxelize_occupancy(open_box, Pose9DoF.identity(), np.full(3, -0.95), (20, 20, 20), 0.1)


def test_voxelize_scale_doubles_count():
    cube = make_box()
    origin = np.full(3, -2.475)
    dims = (99, 99, 99)
    base = voxelize_occupancy(cube, Pose9DoF.identity(), origin, dims, 0.05)
    wide = voxelize_occupancy(
        cube, Pose9DoF(Rotation.identity(), np.zeros(3), np.array([2.0, 1.0, 1.0])),
        origin, dims, 0.05)
    n0, n1 = np.count_nonzero(base), np.count_nonzero(wide)
    shell = 2 * 20 * 20  # one voxel shell on the stretched axis
    assert abs(n1 - 2 * n0) <= shell


def test_voxelize_empty_region():
    cube = make_box()
    pose = Pose9DoF(Rotation.identity(), np.array([100.0, 0.0, 0.0]), np.ones(3))
    occ = voxelize_occupancy(cube, pose, np.zeros(3), (8, 8, 8), 0.1)
    assert not occ.any()


def test_voxelize_rotation_invariance_of_volume():
    cube = make_box()
    origin = np.full(3, -1.0)
    dims = (40, 40, 40)
    base = voxelize_occupancy(cube, Pose9DoF.identity(), origin, dims, 0.05)
    rot = rotation_about_axis(np.array([0.3, 1.0, 0.2]), 0.7)
    turned = voxelize_occupancy(cube, Pose9DoF(rot, np.zeros(3), np.ones(3)),
                                origin, dims, 0.05)
    assert abs(np.count_nonzero(turned) - np.count_nonzero(base)) < 0.05 * base.sum()


def test_point_triangle_distance_cube_oracle(rng):
    cube = make_box()
    pts = rng.uniform(-1.2, 1.2, size=(300, 3))
    dist = point_triangle_distance(pts, cube)
    assert np.allclose(dist, _cube_surface_distance(pts), atol=1e-9)


def _all_pairs_distance(points, mesh):
    """Every point against every triangle, in triangle order: the reference
    the brick-culled `point_triangle_distance` must match bit for bit."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    best = np.full(len(points), np.inf)
    for p0, p1, p2 in zip(*mesh.corners()):
        e1 = p1 - p0
        e2 = p2 - p0
        a = e1 @ e1
        b = e1 @ e2
        c = e2 @ e2
        det = a * c - b * b
        d = points - p0
        d1 = d @ e1
        d2 = d @ e2
        if det > 1e-15:
            alpha = (c * d1 - b * d2) / det
            beta = (a * d2 - b * d1) / det
            interior = (alpha >= 0) & (beta >= 0) & (alpha + beta <= 1)
            closest = p0 + alpha[:, None] * e1 + beta[:, None] * e2
            dist = np.linalg.norm(points - closest, axis=1)
        else:
            interior = np.zeros(len(points), dtype=bool)
            dist = np.zeros(len(points))
        edges = []
        for u, v in ((p0, p1), (p1, p2), (p0, p2)):
            uv = v - u
            denom = uv @ uv
            if denom < 1e-30:
                edges.append(np.linalg.norm(points - u, axis=1))
            else:
                t = np.clip(((points - u) @ uv) / denom, 0.0, 1.0)
                edges.append(np.linalg.norm(points - (u + t[:, None] * uv), axis=1))
        edge = np.minimum(edges[0], np.minimum(edges[1], edges[2]))
        best = np.minimum(best, np.where(interior, dist, edge))
    return best


def test_point_triangle_distance_matches_all_pairs(rng):
    cylinder = make_cylinder(0.5, 1.0, segments=64, taper=0.6)  # 256 triangles
    axis = np.linspace(-0.7, 0.7, 16)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    on_surface = np.concatenate([
        cylinder.vertices,
        (cylinder.vertices[cylinder.triangles[:, 0]] + cylinder.vertices[cylinder.triangles[:, 1]]) / 2,
    ])
    # A zero-area triangle (collinear corners) exercises the edge-only branch.
    sliver = TriMesh(
        np.vstack([make_box().vertices, [[0.0, 0.0, 0.0], [0.3, 0.3, 0.3], [0.6, 0.6, 0.6]]]),
        np.vstack([make_box().triangles, [[8, 9, 10]]]),
    )
    cases = [
        (cylinder, grid),
        (cylinder, rng.normal(scale=0.05, size=(500, 3)) + rng.choice(cylinder.vertices, 500)),
        (cylinder, rng.uniform(-50.0, 50.0, size=(200, 3))),
        (cylinder, on_surface),
        (sliver, rng.uniform(-1.0, 1.0, size=(500, 3))),
        (sliver, sliver.vertices),
        (cylinder, np.array([[0.1, -0.2, 0.3]])),
        (cylinder, np.tile([[0.2, 0.1, 0.5]], (40, 1))),
        (cylinder, np.zeros((0, 3))),
    ]
    for mesh, points in cases:
        got = point_triangle_distance(points, mesh)
        assert got.shape == (len(points),)
        assert np.array_equal(got, _all_pairs_distance(points, mesh))


def test_point_triangle_distance_rejects_non_finite():
    with pytest.raises(ValueError):
        point_triangle_distance(np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]), make_box())

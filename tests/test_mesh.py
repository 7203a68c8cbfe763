import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_rotation

from shapescene import mesh as mesh_module
from shapescene.errors import DegenerateMesh, MalformedFile, NonWatertight
from shapescene.geom import Pose9DoF, Rotation, apply_pose, rotation_about_axis
from shapescene import sdf as sdf_module
from shapescene.mesh import (
    _BLOCK_ELEMENTS,
    _RAY_JITTER,
    WATERTIGHT_DISAGREEMENT,
    PointBricks,
    TriMesh,
    _distance_rounding,
    _edge_owners,
    _float32_below,
    _parity_along_axis,
    _triangle_distance,
    canonicalize_mesh,
    grid_axes,
    grid_centers,
    load_obj,
    point_triangle_distance,
    points_inside,
    sample_surface_points,
    save_obj,
    voxelize_occupancy,
)
from shapescene.scene import scene_grid
from shapescene.sdf import MIN_SDF_RESOLUTION, mesh_to_sdf
from shapescene.toys import make_box, make_cylinder, toy_shape_set


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


@pytest.mark.parametrize("face", ["f 1 2", "f 4", "f"])
def test_obj_short_face_raises(tmp_path, face):
    path = tmp_path / "short.obj"
    path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\n{face}\n")
    with pytest.raises(MalformedFile) as err:
        load_obj(path)
    assert str(err.value) == f"{path}:6: face needs at least 3 vertices"


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



@pytest.mark.parametrize("n", [(2**63 - 1) // 24 + 1, 2**63 - 1, 2**63])
def test_sample_surface_unaddressable_count_raises(n):
    """A count whose (n, 3) float array numpy could not address is refused
    before anything is drawn or allocated."""
    with pytest.raises(MemoryError, match=f"{n} surface points are too many to allocate"):
        sample_surface_points(make_box(), n, seed=0)


def _lattice_points(axes):
    """The (n, 3) points of the lattice whose coordinates along x, y and z
    are `axes`, in C order."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


def test_points_inside_cube(rng):
    cube = make_box()
    axes = rng.uniform(-1.0, 1.0, size=(3, 8))
    inside, disagreement = points_inside(cube, axes)
    oracle = np.all(np.abs(_lattice_points(axes)) < 0.5, axis=1)
    assert disagreement == 0.0
    assert np.array_equal(inside, oracle)


def _all_points_parity(mesh, points, axis):
    """Every point against every triangle: the reference the line-by-line
    `_parity_along_axis` must match bit for bit."""
    b_ax, c_ax = [a for a in range(3) if a != axis]
    p0, p1, p2 = mesh.corners()
    q = points.copy()
    q[:, b_ax] += _RAY_JITTER
    q[:, c_ax] += _RAY_JITTER * np.sqrt(3.0)
    count = np.zeros(len(points), dtype=np.int64)
    for t in range(len(p0)):
        e1 = p1[t] - p0[t]
        e2 = p2[t] - p0[t]
        denom = e1[b_ax] * e2[c_ax] - e1[c_ax] * e2[b_ax]
        if abs(denom) < 1e-15:
            continue
        db = q[:, b_ax] - p0[t][b_ax]
        dc = q[:, c_ax] - p0[t][c_ax]
        alpha = (db * e2[c_ax] - dc * e2[b_ax]) / denom
        beta = (e1[b_ax] * dc - e1[c_ax] * db) / denom
        hit = (alpha >= 0.0) & (beta >= 0.0) & (alpha + beta <= 1.0)
        if not hit.any():
            continue
        x_int = p0[t][axis] + alpha * e1[axis] + beta * e2[axis]
        count += hit & (x_int > q[:, axis])
    return (count % 2).astype(bool)


def _assert_containment_matches_all_points(mesh, axes):
    points = _lattice_points(axes)
    votes = []
    for axis in range(3):
        votes.append(_all_points_parity(mesh, points, axis))
        assert np.array_equal(_parity_along_axis(mesh, axes, axis).ravel(), votes[-1])
    total = np.sum(votes, axis=0)
    inside, disagreement = points_inside(mesh, axes)
    assert np.array_equal(inside, total >= 2)
    assert disagreement == (float(np.mean((total != 0) & (total != 3))) if len(points) else 0.0)


def _box_probe_lattices(mesh, rng):
    """A lattice of random coordinates around the mesh's box and, per axis,
    one whose coordinates along that axis lie on the box's two faces,
    shifted by a few ulps, by the ray jitter and by a little more, and whose
    other coordinates are random inside the box."""
    lo, hi = mesh.bounds()
    pad = 0.3 * (hi - lo)
    lattices = [list(rng.uniform(lo - pad, hi + pad, size=(13, 3)).T)]
    for a in range(3):
        faces = []
        for face in (lo[a], hi[a]):
            for shift in (0.0, -_RAY_JITTER, -_RAY_JITTER * np.sqrt(3.0)):
                for ulps in (-4, -1, 0, 1, 4):
                    value = face + shift
                    step = np.inf if ulps > 0 else -np.inf
                    for _ in range(abs(ulps)):
                        value = np.nextafter(value, step)
                    faces.extend(value + offset for offset in (0.0, -1e-9, 1e-9))
        axes = list(rng.uniform(lo, hi, size=(6, 3)).T)
        axes[a] = np.array(faces)
        lattices.append(axes)
    return lattices


@pytest.mark.parametrize("name, mesh", [
    *[(f"{cls}{i}", m) for i, (cls, m) in enumerate(toy_shape_set())],
    ("cylinder1000", make_cylinder(0.5, 1.0, segments=250, taper=0.7)),
])
def test_points_inside_matches_all_points(name, mesh):
    rng = np.random.default_rng(7)
    for axes in _box_probe_lattices(mesh, rng):
        _assert_containment_matches_all_points(mesh, axes)
    spread = [rng.normal(scale=0.4 * s, size=8) for s in (1.0, 0.3, 2.0)]
    _assert_containment_matches_all_points(mesh, spread)


@pytest.mark.parametrize("span, delta", [
    (0.1, 1.2e-14),   # |denom| = 1.2e-15 over a span of 0.1
    (1.0, 1.2e-15),   # |denom| = 1.2e-15 over a span of 1: the widest rounding edge
    (0.1, 1e-12),
])
def test_points_inside_near_parallel_triangle(span, delta):
    # A sliver almost parallel to z: rounding counts some z rays from points
    # just beyond its x extent, a rounding edge the lines must get as every
    # point's own ray does.
    verts = np.array([[0.0, 0.0, 0.3], [span, 0.37 * span, 0.5],
                      [span, 0.37 * span + delta, 0.4]])
    sliver = TriMesh(verts, np.array([[0, 1, 2]]))
    rng = np.random.default_rng(3)
    x = span * (1.0 + rng.uniform(-1e-4, 1e-4, 1000))
    y = 0.37 * x + delta * rng.uniform(-1.0, 2.0, 1000)
    axes = [x - _RAY_JITTER, y - _RAY_JITTER * np.sqrt(3.0), np.zeros(1)]
    counted = _all_points_parity(sliver, _lattice_points(axes), 2)
    assert np.any(counted & (np.repeat(x, len(y)) > span))  # hits outside the box exist
    _assert_containment_matches_all_points(sliver, axes)


def test_points_inside_crossing_rounded_above_the_box():
    # Near its top vertex, this triangle's rounded crossing height exceeds the
    # top vertex for some z rays: points at that height count the crossing,
    # on the lines as on every point's own ray.
    verts = np.array([[0.6454420452537737, 0.7705093968064936, -0.8735500770425177],
                      [-0.8039240153090772, 0.6201169833167535, 0.2794474454738909],
                      [-0.45889446934322353, 0.2790807213609332, -0.25632883444754895]])
    tri = TriMesh(verts, np.array([[0, 1, 2]]))
    rng = np.random.default_rng(5)
    weights = rng.dirichlet([1.0, 1.0, 1.0], size=1000) * rng.choice([1e-3, 1e-9, 1e-15], (1000, 1))
    weights[:, 1] += 1.0 - weights.sum(axis=1)
    x, y, _ = (weights @ verts - [_RAY_JITTER, _RAY_JITTER * np.sqrt(3.0), 0.0]).T
    axes = [x, y, verts[1, 2:]]
    assert np.any(_all_points_parity(tri, _lattice_points(axes), 2))
    _assert_containment_matches_all_points(tri, axes)


def _inner_axes(mesh, counts, rng):
    """Sorted random coordinates strictly inside the mesh's box, counts[a]
    along axis a: every lattice line crosses the box."""
    lo, hi = mesh.bounds()
    return [np.sort(rng.uniform(lo[a] + 1e-3, hi[a] - 1e-3, n)) for a, n in enumerate(counts)]


def _block_sizes(mesh, axes, axis):
    """(triangles `_parity_along_axis` tests, triangles per block) for the
    lattice `axes` and rays along `axis`."""
    b_ax, c_ax = [a for a in range(3) if a != axis]
    p0, p1, p2 = mesh.corners()
    e1, e2 = p1 - p0, p2 - p0
    tested = np.count_nonzero(np.abs(e1[:, b_ax] * e2[:, c_ax] - e1[:, c_ax] * e2[:, b_ax]) >= 1e-15)
    return tested, max(1, _BLOCK_ELEMENTS // (len(axes[b_ax]) * len(axes[c_ax])))


def test_parity_blocks_end_in_a_partial_block():
    mesh = make_cylinder(0.5, 1.0, segments=250, taper=0.7)
    axes = _inner_axes(mesh, (37, 41, 43), np.random.default_rng(11))
    for axis in range(3):
        tested, per_block = _block_sizes(mesh, axes, axis)
        assert tested > 2 * per_block and tested % per_block != 0
    _assert_containment_matches_all_points(mesh, axes)


def test_parity_blocks_of_one_triangle():
    mesh = make_cylinder(0.5, 1.0, segments=8)
    axes = _inner_axes(mesh, (257, 257, 2), np.random.default_rng(12))
    assert len(axes[0]) * len(axes[1]) > _BLOCK_ELEMENTS
    assert _block_sizes(mesh, axes, 2)[1] == 1
    _assert_containment_matches_all_points(mesh, axes)


def test_parity_with_no_near_lines_on_an_axis():
    # Every y lies below the box: x and z rays miss it, y rays cross it twice.
    mesh = make_box()
    rng = np.random.default_rng(13)
    axes = [rng.uniform(-0.4, 0.4, 9), rng.uniform(-2.0, -0.6, 7), rng.uniform(-0.4, 0.4, 8)]
    for axis in (0, 2):
        assert not _parity_along_axis(mesh, axes, axis).any()
    _assert_containment_matches_all_points(mesh, axes)


def test_points_inside_open_mesh_matches_all_points(open_box):
    axes = [np.linspace(-0.7, 0.7, 15)] * 3
    _assert_containment_matches_all_points(open_box, axes)
    assert points_inside(open_box, axes)[1] > 0.0


def test_points_inside_empty():
    for empty in range(3):
        axes = [np.linspace(-0.7, 0.7, 4)] * 3
        axes[empty] = np.zeros(0)
        inside, disagreement = points_inside(make_box(), axes)
        assert inside.shape == (0,) and inside.dtype == bool
        assert disagreement == 0.0


def test_voxelize_cube_exact():
    cube = make_box()
    origin = np.full(3, -0.95)
    occ = voxelize_occupancy(cube, Pose9DoF.identity(), origin, (20, 20, 20), 0.1)
    centers = origin + 0.1 * np.indices((20, 20, 20)).transpose(1, 2, 3, 0)
    oracle = np.all(np.abs(centers) < 0.5, axis=-1)
    assert np.array_equal(occ, oracle)


def _canonical_frame_occupancy(mesh, pose, origin, dims, spacing):
    """Occupancy by mapping every voxel centre of the posed mesh's box back
    into the canonical frame, S^-1 R^T (c - t), and ray-testing it there."""
    world = apply_pose(pose, mesh.vertices)
    i_lo = np.maximum(np.ceil((world.min(axis=0) - origin) / spacing - 0.5).astype(int), 0)
    i_hi = np.minimum(np.floor((world.max(axis=0) - origin) / spacing + 0.5).astype(int),
                      np.array(dims) - 1)
    occ = np.zeros(dims, dtype=bool)
    if np.any(i_lo > i_hi):
        return occ
    centers = grid_centers(origin, spacing, i_lo, i_hi + 1).reshape(-1, 3)
    inside, _ = _majority_of_all_points(mesh, ((centers - pose.t) @ pose.r.m) / pose.s)
    box = tuple(slice(i_lo[a], i_hi[a] + 1) for a in range(3))
    occ[box] = inside.reshape(occ[box].shape)
    return occ


@pytest.mark.parametrize("resolution", [64, 128])
@pytest.mark.parametrize("turn", ["yaw", "random"])
def test_voxelize_matches_canonical_frame_reference(resolution, turn):
    # Posing the vertices and casting along world axes rounds differently
    # from mapping each voxel centre back; every voxel must still vote alike.
    rng = np.random.default_rng(resolution)
    origin, dims, spacing = scene_grid(((-1.5, 1.5), (-1.5, 1.5), (-1.0, 1.0)), resolution)
    occupied = 0
    for _, mesh in toy_shape_set():
        for _ in range(2):
            rot = (rotation_about_axis(np.array([0.0, 0.0, 1.0]), rng.uniform(0.0, 2.0 * np.pi))
                   if turn == "yaw" else random_rotation(rng))
            pose = Pose9DoF(rot, rng.uniform(-0.4, 0.4, size=3),
                            np.exp(rng.uniform(np.log(0.5), np.log(1.5), size=3)))
            grid = (origin, dims, spacing)
            occ = voxelize_occupancy(mesh, pose, *grid)
            assert np.array_equal(occ, _canonical_frame_occupancy(mesh, pose, *grid))
            occupied += np.count_nonzero(occ)
    assert occupied > 0


@pytest.mark.parametrize("pose", [
    Pose9DoF.identity(),
    Pose9DoF(rotation_about_axis(np.array([0.3, -0.5, 1.0]), 0.8),
             np.array([0.05, -0.1, 0.02]), np.array([1.2, 0.7, 0.9])),
])
def test_voxelize_open_mesh_raises(open_box, pose):
    with pytest.raises(NonWatertight):
        voxelize_occupancy(open_box, pose, np.full(3, -0.95), (20, 20, 20), 0.1)


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


def _owned_slots(mesh):
    """The edge owner rule, slot by slot: of the slots p0->p1, p1->p2 and
    p0->p2 that share an undirected edge (by vertex index), the first in
    triangle order that starts at p0 owns it, else the first in triangle
    order. (m, 3) bool."""
    slots = sorted(((min(u, v), max(u, v)), slot == 1, t, slot)
                   for t, (i, j, k) in enumerate(mesh.triangles.tolist())
                   for slot, (u, v) in enumerate(((i, j), (j, k), (i, k))))
    owned = np.zeros(mesh.triangles.shape, dtype=bool)
    seen = set()
    for key, _, t, slot in slots:
        if key not in seen:
            seen.add(key)
            owned[t, slot] = True
    return owned


def _all_pairs_distance(points, mesh):
    """Every point against every triangle, in triangle order: the reference
    the brick-culled `point_triangle_distance` must match bit for bit. A
    triangle is measured by its plane where the point projects inside it,
    else by the edges it owns (`_owned_slots`), as in the kernel's loop. The
    points are (3, n) rows; a dot product is `(x * v[0] + y * v[1]) + z * v[2]`
    and a norm `sqrt((x * x + y * y) + z * z)`, as in the kernel."""
    rows = np.ascontiguousarray(np.asarray(points, dtype=np.float64).reshape(-1, 3).T)
    best = np.full(rows.shape[1], np.inf)

    def dot(d, v):
        return (d[0] * v[0] + d[1] * v[1]) + d[2] * v[2]

    def norm(d):
        return np.sqrt((d[0] * d[0] + d[1] * d[1]) + d[2] * d[2])

    for (p0, p1, p2), owned in zip(zip(*mesh.corners()), _owned_slots(mesh)):
        e1 = p1 - p0
        e2 = p2 - p0
        a = e1 @ e1
        b = e1 @ e2
        c = e2 @ e2
        det = a * c - b * b
        d = rows - p0[:, None]
        d1 = dot(d, e1)
        d2 = dot(d, e2)
        if det > 1e-15:
            alpha = (c * d1 - b * d2) / det
            beta = (a * d2 - b * d1) / det
            interior = (alpha >= 0) & (beta >= 0) & (alpha + beta <= 1)
            dist = norm(rows - (p0[:, None] + alpha * e1[:, None] + beta * e2[:, None]))
        else:
            interior = np.zeros(rows.shape[1], dtype=bool)
            dist = np.zeros(rows.shape[1])
        edge = np.full(rows.shape[1], np.inf)
        for (u, v), owns in zip(((p0, p1), (p1, p2), (p0, p2)), owned):
            if not owns:
                continue
            uv = v - u
            denom = uv @ uv
            if denom < 1e-30:
                edge = np.minimum(edge, norm(rows - u[:, None]))
            else:
                t = np.clip(dot(rows - u[:, None], uv) / denom, 0.0, 1.0)
                edge = np.minimum(edge, norm(rows - (u[:, None] + t * uv[:, None])))
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
    # Triangles with two (or three) equal corners exercise the zero-length
    # edge branch, in each of the three edge slots.
    box = make_box()
    pinched = TriMesh(
        np.vstack([box.vertices, [[0.9, 0.1, 0.2], [1.3, -0.2, 0.4]]]),
        np.vstack([box.triangles, [[8, 8, 9], [9, 8, 8], [8, 9, 9], [9, 9, 9]]]),
    )
    near_pinch = rng.normal(scale=0.3, size=(400, 3)) + [1.1, -0.05, 0.3]
    # Points inside the cylinder's faces and just off them: the plane branch
    # decides their distance.
    p0, p1, p2 = cylinder.corners()
    bary = rng.dirichlet([2.0, 2.0, 2.0], size=len(p0))
    on_faces = bary[:, :1] * p0 + bary[:, 1:2] * p1 + bary[:, 2:] * p2
    normals = np.cross(p1 - p0, p2 - p0)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    off_faces = on_faces + rng.uniform(-0.02, 0.02, size=(len(p0), 1)) * normals
    cases = [
        (pinched, rng.uniform(-1.5, 1.5, size=(500, 3))),
        (pinched, near_pinch),
        (pinched, pinched.vertices),
        (cylinder, on_faces),
        (cylinder, off_faces),
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


def _sdf_axes(resolution=32):
    """The coordinates along x, y and z of the voxel-centre lattice
    `mesh_to_sdf` computes on."""
    h = 1.0 / (resolution - 4)
    return grid_axes(np.full(3, -0.5 - 1.5 * h), h, (0, 0, 0), (resolution,) * 3)


def _sdf_lattice(resolution=32):
    """The (r^3, 3) voxel centres `mesh_to_sdf` computes on, in C order."""
    return _lattice_points(_sdf_axes(resolution))


def _majority_of_all_points(mesh, points):
    """Inside mask and disagreement from the all-points parity reference."""
    total = np.sum([_all_points_parity(mesh, points, axis) for axis in range(3)], axis=0)
    return total >= 2, float(np.mean((total != 0) & (total != 3)))


def _box_on_lattice_planes(shift):
    """A box whose faces lie on voxel-centre planes of `_sdf_axes()`,
    moved by `shift` along every axis."""
    axis = _sdf_axes()[0]
    lo, hi = axis[6] + shift, axis[25] + shift
    box = make_box()
    return TriMesh(np.where(box.vertices > 0, hi, lo), box.triangles)


def _cracked_cylinder():
    """The 1000-triangle cylinder without four adjacent bottom-cap wedges:
    its votes disagree on the voxels of the few columns through the crack."""
    cylinder = make_cylinder(0.5, 1.0, segments=250, taper=0.7)
    return TriMesh(cylinder.vertices, np.delete(cylinder.triangles, [2, 6, 10, 14], axis=0))


@pytest.mark.parametrize("name, mesh", [
    ("cylinder1000", make_cylinder(0.5, 1.0, segments=250, taper=0.7)),
    *[(f"box_on_planes{shift:+.1e}", _box_on_lattice_planes(shift))
      for shift in (0.0, _RAY_JITTER, -_RAY_JITTER, _RAY_JITTER * np.sqrt(3.0))],
    ("cracked", _cracked_cylinder()),
])
def test_lattice_containment_matches_all_points(name, mesh):
    axes = _sdf_axes()
    inside, disagreement = _majority_of_all_points(mesh, _lattice_points(axes))
    got, got_disagreement = points_inside(mesh, axes)
    assert np.array_equal(got, inside)
    assert got_disagreement == disagreement
    if name == "cracked":
        assert 0.0 < disagreement < WATERTIGHT_DISAGREEMENT
    if disagreement <= WATERTIGHT_DISAGREEMENT:
        values = mesh_to_sdf(mesh, 32).values.reshape(-1)
        assert np.array_equal(np.signbit(values), inside)
    else:
        with pytest.raises(NonWatertight):
            mesh_to_sdf(mesh, 32)


_CYLINDER_MOVED = TriMesh(make_cylinder(0.5, 1.0, 64, taper=0.6).vertices + 1e3,
                          make_cylinder(0.5, 1.0, 64, taper=0.6).triangles)


@pytest.mark.parametrize("name, mesh, shift", [
    ("cylinder1000", make_cylinder(0.5, 1.0, segments=250, taper=0.7), 0.0),
    ("cylinder_moved_1e3", _CYLINDER_MOVED, 0.0),  # far from every voxel
    ("both_moved_1e3", _CYLINDER_MOVED, 1e3),  # the same geometry, coordinates near 1e3
    ("box_ties", make_box(), 0.0),  # voxels equidistant from two or three faces
    ("box_on_planes", _box_on_lattice_planes(0.0), 0.0),  # voxels on the faces
])
def test_point_triangle_distance_on_sdf_lattice_matches_all_pairs(name, mesh, shift):
    points = _sdf_lattice() + shift
    assert np.array_equal(point_triangle_distance(points, mesh), _all_pairs_distance(points, mesh))


def test_centre_distance_store_never_exceeds_the_distance():
    cylinder = make_cylinder(0.5, 1.0, segments=64, taper=0.6)
    rows = np.ascontiguousarray(_sdf_lattice(16).T)
    dists = np.concatenate([
        _triangle_distance(rows, p0, p1, p2) for p0, p1, p2 in zip(*cylinder.corners())
    ])
    f32 = np.finfo(np.float32)
    extremes = np.array([0.0, 5e-324, f32.tiny, float(f32.max), 2.0 * float(f32.max), 1e300,
                         0.1, 1.0 / 3.0, float(np.float32(0.1))])
    for x in (dists, extremes):
        low = _float32_below(x)
        assert low.dtype == np.float32
        assert np.all(low.astype(np.float64) <= x)
        # The largest such float32: the next one up is above x.
        with np.errstate(over="ignore"):
            assert np.all(np.nextafter(low, np.float32(np.inf)).astype(np.float64) > x)


def _exact_distance(point, p0, p1, p2):
    """Distance from a point to the triangle (p0, p1, p2), exact in rational
    arithmetic up to the final square root: the plane's closest point where
    it lies in the triangle, else the nearest edge."""
    p, p0, p1, p2 = ([Fraction(float(x)) for x in v] for v in (point, p0, p1, p2))

    def sub(u, v):
        return [x - y for x, y in zip(u, v)]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def segment(a, b):
        ab = sub(b, a)
        denom = dot(ab, ab)
        t = min(max(dot(sub(p, a), ab) / denom, 0), 1) if denom else 0
        off = sub(p, [x + t * y for x, y in zip(a, ab)])
        return dot(off, off)

    squared = min(segment(p0, p1), segment(p1, p2), segment(p0, p2))
    e1, e2, d = sub(p1, p0), sub(p2, p0), sub(p, p0)
    a, b, c = dot(e1, e1), dot(e1, e2), dot(e2, e2)
    det = a * c - b * b
    if det > 0:
        alpha = (c * dot(d, e1) - b * dot(d, e2)) / det
        beta = (a * dot(d, e2) - b * dot(d, e1)) / det
        if alpha >= 0 and beta >= 0 and alpha + beta <= 1:
            off = [x - alpha * y - beta * z for x, y, z in zip(d, e1, e2)]
            squared = dot(off, off)
    return math.sqrt(squared)


@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_distance_rounding_bounds_the_computed_distance(offset):
    rng = np.random.default_rng(11)
    triangles = [
        np.array([[0.0, 0.0, 0.0], [1.0, 0.1, 0.0], [0.2, 0.9, 0.3]]),      # well shaped
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1e-4, 0.0]]),     # kappa 2.5e7
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1e-7, 1e-8]]),    # det 1e-14, kappa 1e14
        np.array([[0.0, 0.0, 0.0], [1e-4, 0.0, 0.0], [0.0, 1e-4, 0.0]]),    # det 1e-16: edges alone
        np.array([[0.0, 0.0, 0.0], [0.3, 0.3, 0.3], [0.6, 0.6, 0.6]]),      # collinear
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.2, -0.1, 0.4]]),     # zero-length edge
    ]
    for tri in triangles:
        tri = tri + offset
        centre = tri.mean(axis=0)
        size = max(np.abs(tri - centre).max(), 1e-3)
        points = np.concatenate([
            centre + rng.normal(scale=size, size=(100, 3)),
            centre + rng.normal(scale=size, size=(100, 3)) * [1.0, 1.0, 1e-6],
            tri[rng.integers(0, 3, 50)] + rng.normal(scale=1e-6, size=(50, 3)),
        ])
        scale = max(np.abs(points).max(), np.abs(tri).max())
        got = _triangle_distance(np.ascontiguousarray(points.T), *tri)
        exact = np.array([_exact_distance(p, *tri) for p in points])
        assert np.abs(got - exact).max() <= _distance_rounding(tri[:1], tri[1:2], tri[2:], scale)


@pytest.mark.parametrize("level", ["coarse", "fine"])
def test_cull_keeps_the_nearest_triangle_by_the_slimmest_margin(level):
    # Lattice points 0..31 per axis: a fine brick holds 2 x 2 x 2 of them
    # and a coarse one 4 x 4 x 4. The coarse brick of coordinates 12..15 has
    # centre c = 13.5 and half-diagonal r = 1.5 sqrt(3); its child of
    # coordinates 14..15 has centre c + sqrt(3) along the diagonal and
    # half-diagonal sqrt(3) / 2. A speck 2 below c along the diagonal is c's
    # nearest triangle.
    # coarse: a speck just under 2 + r beyond the corner (15, 15, 15) is that
    # corner's nearest. Its distance from c passes the coarse test by 0.01,
    # the tightest case, and its distance from the child's centre passes
    # the child's test by as little.
    # fine: a speck 0.01 nearer the child's centre than the first is that
    # centre's nearest, so it sets the child's bound. It passes the coarse
    # test by twice the child's half-diagonal plus 0.01, the slimmest margin
    # the nearest triangle of a child's centre can have.
    axis = np.arange(32.0)
    points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    diagonal = np.ones(3) / np.sqrt(3.0)
    speck = 1e-4 * np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]])
    r = 1.5 * np.sqrt(3.0)
    if level == "coarse":
        corner, reach = np.full(3, 15.0), 2.0 + r
    else:
        corner, reach = np.full(3, 14.5), 2.0 + np.sqrt(3.0)
    centres = [13.5 - 2.0 * diagonal, corner + (reach - 0.01) * diagonal]
    mesh = TriMesh(np.concatenate([c + speck for c in centres]), np.array([[0, 1, 2], [3, 4, 5]]))
    got = point_triangle_distance(points, mesh)
    assert np.array_equal(got, _all_pairs_distance(points, mesh))
    assert _all_pairs_distance(corner[None], mesh)[0] < reach - 0.009


@pytest.mark.parametrize("resolution", [MIN_SDF_RESOLUTION, 33])
def test_point_triangle_distance_on_ragged_sdf_lattice_matches_all_pairs(resolution):
    # At 5^3 the fine bricks hold one voxel or none; at 33^3 the last fine
    # brick on each axis holds 3 voxels and the others 2.
    cylinder = make_cylinder(0.5, 1.0, segments=64, taper=0.6)
    points = _sdf_lattice(resolution)
    assert np.array_equal(point_triangle_distance(points, cylinder),
                          _all_pairs_distance(points, cylinder))


def test_distance_work_and_memory_on_the_sdf_lattice(monkeypatch):
    # The loop measures each triangle on the points of the fine bricks it
    # passes, one `_triangle_distance` call with its owned edges per
    # triangle: 2,171,456 (point, triangle) pairs on the 1000-triangle
    # cylinder at 32^3, where the one-level 8^3 brick cull measured
    # 5,191,552. It measures only the edges a triangle owns: 3,243,192
    # (point, edge) pairs, where all three edges of every pair were
    # 6,514,368.
    cylinder = make_cylinder(0.5, 1.0, segments=250, taper=0.7)
    points = _sdf_lattice()
    pairs, edges = [], []

    def counted(rows, p0, p1, p2, owned=None, scratch=None):
        if p0.ndim == 1:  # one triangle: the loop's call
            pairs.append(rows.shape[1])
            edges.append(rows.shape[1] * sum(owned))
        return _triangle_distance(rows, p0, p1, p2, owned, scratch)

    monkeypatch.setattr(mesh_module, "_triangle_distance", counted)
    point_triangle_distance(points, cylinder)
    assert sum(pairs) == 2_171_456
    assert sum(edges) == 3_243_192
    monkeypatch.undo()
    # Traced peak of a cold call, which bins the points itself: 4,467,802
    # bytes, 3,167,008 on the lattice's `PointBricks` (4,320,240 before the
    # kernel's scratch buffer, 4,562,025 with three square roots per
    # triangle); the one-level cull peaked at 5,659,842 measured the same way.
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        point_triangle_distance(points, cylinder)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 5_700_000


def _unmerged(mesh):
    """The mesh with three vertices of its own per triangle: no vertex, so
    no edge, is shared by index."""
    return TriMesh(np.stack(mesh.corners(), axis=1).reshape(-1, 3),
                   np.arange(3 * len(mesh.triangles)).reshape(-1, 3))


def test_edge_owners_own_each_edge_once(open_box):
    # Every undirected edge has one owner slot, a slot that starts at p0
    # when the edge has one: on closed meshes, on an open box's boundary, on
    # zero-length edges and repeated indices, and on unmerged vertices,
    # where every copy of an edge is its own.
    cylinder = make_cylinder(0.5, 1.0, segments=64, taper=0.6)
    box = make_box()
    pinched = TriMesh(np.vstack([box.vertices, [[0.9, 0.1, 0.2], [1.3, -0.2, 0.4]]]),
                      np.vstack([box.triangles, [[8, 8, 9], [9, 8, 8], [8, 9, 9], [9, 9, 9]]]))
    for mesh in (cylinder, box, pinched, open_box, _unmerged(cylinder)):
        owned = _edge_owners(mesh)
        assert owned.shape == mesh.triangles.shape and owned.dtype == bool
        assert np.array_equal(owned, _owned_slots(mesh))
        holders = {}
        for t, (i, j, k) in enumerate(mesh.triangles.tolist()):
            for slot, edge in enumerate(((i, j), (j, k), (i, k))):
                holders.setdefault(frozenset(edge), []).append((t, slot))
        for slots in holders.values():
            owners = [slot for t, slot in slots if owned[t, slot]]
            assert len(owners) == 1
            assert owners[0] != 1 or all(slot == 1 for _, slot in slots)
        assert owned.sum() == len(holders)
    # A closed mesh shares every edge between two triangles: half its slots.
    assert _edge_owners(cylinder).sum() == 3 * len(cylinder.triangles) // 2
    assert _edge_owners(_unmerged(cylinder)).all()
    # The open box's boundary edges have one slot each, which owns them.
    assert _edge_owners(open_box).sum() == 3 * len(open_box.triangles) // 2 + 2
    points = np.concatenate([_sdf_lattice(16), np.random.default_rng(5).uniform(-1, 1, (300, 3))])
    for mesh in (open_box, _unmerged(cylinder)):
        assert np.array_equal(point_triangle_distance(points, mesh),
                              _all_pairs_distance(points, mesh))


def _three_edge_distance(rows, p0, p1, p2):
    """`_triangle_distance` before its terms were shared: every edge forms
    its own differences, clip numerator and denominator, and takes its own
    square root, as does the plane point. The bits the shared form keeps."""
    def xyz(v):
        return v[..., 0], v[..., 1], v[..., 2]

    def segment(a, ab):
        x, y, z = rows
        (ax, ay, az), (ux, uy, uz) = xyz(a), xyz(ab)
        dx, dy, dz = x - ax, y - ay, z - az
        denom = np.vecdot(ab, ab)
        denom = np.where(denom < 1e-30, np.inf, denom)
        t = np.clip(((dx * ux + dy * uy) + dz * uz) / denom, 0.0, 1.0)
        return norm(x - (ax + t * ux), y - (ay + t * uy), z - (az + t * uz))

    def norm(x, y, z):
        return np.sqrt((x * x + y * y) + z * z)

    e1 = p1 - p0
    e2 = p2 - p0
    dist = np.minimum(segment(p0, e1), np.minimum(segment(p1, p2 - p1), segment(p0, e2)))
    a, b, c = np.vecdot(e1, e1), np.vecdot(e1, e2), np.vecdot(e2, e2)
    det = a * c - b * b
    plane = det > 1e-15
    det = np.where(plane, det, 1.0)
    (ox, oy, oz), (ux, uy, uz), (vx, vy, vz) = xyz(p0), xyz(e1), xyz(e2)
    x, y, z = rows
    dx, dy, dz = x - ox, y - oy, z - oz
    d1 = (dx * ux + dy * uy) + dz * uz
    d2 = (dx * vx + dy * vy) + dz * vz
    alpha = (c * d1 - b * d2) / det
    beta = (a * d2 - b * d1) / det
    inner = plane & (alpha >= 0) & (beta >= 0) & (alpha + beta <= 1)
    on = norm(x - (ox + alpha * ux + beta * vx), y - (oy + alpha * uy + beta * vy),
              z - (oz + alpha * uz + beta * vz))
    return np.where(inner, on, dist)


def test_shared_terms_keep_their_bits(rng):
    # The stacked form decides which pairs the loop evaluates, so it must
    # keep its bits; the one-triangle form keeps them too with every slot
    # owned, as a square before its one square root.
    corners = np.array([
        [[0.0, 0.0, 0.0], [1.0, 0.1, 0.0], [0.2, 0.9, 0.3]],      # well shaped
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1e-7, 1e-8]],    # det 1e-14
        [[0.0, 0.0, 0.0], [1e-4, 0.0, 0.0], [0.0, 1e-4, 0.0]],    # det 1e-16: edges alone
        [[0.0, 0.0, 0.0], [0.3, 0.3, 0.3], [0.6, 0.6, 0.6]],      # collinear
        [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3], [0.2, -0.1, 0.4]],     # zero-length p0->p1
        [[0.2, -0.1, 0.4], [0.1, 0.2, 0.3], [0.1, 0.2, 0.3]],     # zero-length p1->p2
        [[0.1, 0.2, 0.3], [0.2, -0.1, 0.4], [0.1, 0.2, 0.3]],     # zero-length p0->p2
        [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3], [0.1, 0.2, 0.3]],      # one point
    ])
    corners = np.concatenate([corners, np.stack(make_cylinder(0.5, 1.0, 16).corners(), axis=1)])
    t = rng.random((8, 1))
    on_edges = np.concatenate([p + t * (q - p) for tri in corners[:4]
                               for p, q in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2]))])
    points = np.concatenate([rng.normal(scale=0.5, size=(256, 3)), on_edges,
                             corners.reshape(-1, 3)])
    points = points[:len(points) // 8 * 8]
    rows = np.ascontiguousarray(points.T)
    p0, p1, p2 = corners[:, 0], corners[:, 1], corners[:, 2]
    # The coarse test's shapes: (3, 1, n) centres against (k, 1, 3) corners.
    coarse = (rows[:, None], p0[:, None], p1[:, None], p2[:, None])
    assert _triangle_distance(*coarse).tobytes() == _three_edge_distance(*coarse).tobytes()
    # The fine test's: (3, 8, k) children against (k, 3) corners.
    k = len(points) // 8
    fine = (rows.reshape(3, 8, k), *(np.resize(p, (k, 3)) for p in (p0, p1, p2)))
    assert _triangle_distance(*fine).tobytes() == _three_edge_distance(*fine).tobytes()
    for tri in corners:
        want = _three_edge_distance(rows, *tri).tobytes()
        assert _triangle_distance(rows, *tri).tobytes() == want
        assert np.sqrt(_triangle_distance(rows, *tri, (True, True, True))).tobytes() == want


def _allocating_triangle_distance(rows, p0, p1, p2, owned=None):
    """`_triangle_distance` before it wrote into scratch buffers: every
    temporary is a new array. The bits the buffered form keeps, in all
    three of its forms: stacked, one triangle, and one triangle's owned
    features as squares."""
    def xyz(v):
        return v[..., 0], v[..., 1], v[..., 2]

    def squared_norm(x, y, z):
        return (x * x + y * y) + z * z

    def segment(a, ab, along=None, length2=None):
        x, y, z = rows
        (ax, ay, az), (ux, uy, uz) = xyz(a), xyz(ab)
        if along is None:
            along = ((x - ax) * ux + (y - ay) * uy) + (z - az) * uz
        if length2 is None:
            length2 = np.vecdot(ab, ab)
        t = np.clip(along / np.where(length2 < 1e-30, np.inf, length2), 0.0, 1.0)
        return squared_norm(x - (ax + t * ux), y - (ay + t * uy), z - (az + t * uz))

    owns01, owns12, owns02 = (True, True, True) if owned is None else owned
    e1 = p1 - p0
    e2 = p2 - p0
    a, b, c = np.vecdot(e1, e1), np.vecdot(e1, e2), np.vecdot(e2, e2)
    (ox, oy, oz), (ux, uy, uz), (vx, vy, vz) = xyz(p0), xyz(e1), xyz(e2)
    x, y, z = rows
    dx, dy, dz = x - ox, y - oy, z - oz
    d1 = (dx * ux + dy * uy) + dz * uz
    d2 = (dx * vx + dy * vy) + dz * vz
    near = segment(p0, e1, d1, a) if owns01 else np.full(d1.shape, np.inf)
    if owns12:
        near = np.minimum(near, segment(p1, p2 - p1))
    if owns02:
        near = np.minimum(near, segment(p0, e2, d2, c))
    det = a * c - b * b
    plane = det > 1e-15
    det = np.where(plane, det, 1.0)
    alpha = (c * d1 - b * d2) / det
    beta = (a * d2 - b * d1) / det
    inner = plane & (alpha >= 0) & (beta >= 0) & (alpha + beta <= 1)
    if p0.ndim == 1:
        inner = np.flatnonzero(inner)
        alpha, beta = alpha[inner], beta[inner]
        x, y, z = rows.take(inner, axis=1)
    on = squared_norm(x - (ox + alpha * ux + beta * vx), y - (oy + alpha * uy + beta * vy),
                      z - (oz + alpha * uz + beta * vz))
    if p0.ndim > 1:
        return np.sqrt(np.where(inner, on, near))
    near[inner] = on
    return near if owned is not None else np.sqrt(near)


def _kernel_cases(rng):
    """Seeded random triangles, with slivers (det <= 1e-15, collinear and
    near-collinear) and zero-length edges in each slot, and points around
    them: spread, on the edges and at the corners."""
    base = rng.normal(size=(40, 3, 3))
    p, q = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    slivers = np.array([
        [p[0], p[0] + 5e-5 * q[0], p[0] + 5e-5 * q[1]],        # legs 5e-5: det ~1e-16
        [p[0], p[0] + q[0], p[0] + 2.0 * q[0]],                 # collinear
        [p[0], p[0] + q[0], p[0] + q[0] * (1 + 1e-9) + 1e-9 * q[1]],  # nearly collinear
        [p[1], p[1], p[1] + q[1]],                              # zero-length p0->p1
        [p[1] + q[1], p[1], p[1]],                              # zero-length p1->p2
        [p[1], p[1] + q[0], p[1]],                              # zero-length p0->p2
        [p[1], p[1], p[1]],                                     # one point
    ])
    corners = np.concatenate([base, slivers])
    dets = [np.dot(t[1] - t[0], t[1] - t[0]) * np.dot(t[2] - t[0], t[2] - t[0])
            - np.dot(t[1] - t[0], t[2] - t[0]) ** 2 for t in slivers]
    assert all(d <= 1e-15 for d in dets)
    s = rng.random((4, 1))
    on_edges = np.concatenate([tri[i] + s * (tri[j] - tri[i]) for tri in corners[::5]
                               for i, j in ((0, 1), (1, 2), (0, 2))])
    points = np.concatenate([rng.normal(scale=1.5, size=(600, 3)), on_edges,
                             corners.reshape(-1, 3)])
    return corners, points[:len(points) // 8 * 8]


def test_buffered_kernel_keeps_the_bits_of_the_allocating_one(rng):
    corners, points = _kernel_cases(rng)
    rows = np.ascontiguousarray(points.T)
    p0, p1, p2 = corners[:, 0], corners[:, 1], corners[:, 2]
    # One scratch buffer, large enough for every call, through all of them,
    # left dirty by the one before.
    scratch = np.full(mesh_module._SLOTS * len(corners) * len(points), np.nan)
    # The coarse test's shapes: (3, 1, n) centres against (k, 1, 3) corners.
    coarse = (rows[:, None], p0[:, None], p1[:, None], p2[:, None])
    want = _allocating_triangle_distance(*coarse).tobytes()
    assert _triangle_distance(*coarse).tobytes() == want
    assert _triangle_distance(*coarse, scratch=scratch).tobytes() == want
    # The fine test's: (3, 8, k) children against (k, 3) corners.
    k = len(points) // 8
    fine = (rows.reshape(3, 8, k), *(np.resize(p, (k, 3)) for p in (p0, p1, p2)))
    want = _allocating_triangle_distance(*fine).tobytes()
    assert _triangle_distance(*fine).tobytes() == want
    assert _triangle_distance(*fine, scratch=scratch).tobytes() == want
    # The loop's: one triangle, each pattern of owned edges, and all three
    # edges as distances; on gathered rows of several lengths.
    owners = [tuple(bool(b >> i & 1) for i in range(3)) for b in range(8)]
    for n, tri in enumerate(corners):
        part = rows[:, :len(points) - 7 * n]
        for owned in owners:
            want = _allocating_triangle_distance(part, *tri, owned).tobytes()
            assert _triangle_distance(part, *tri, owned, scratch).tobytes() == want
        want = _allocating_triangle_distance(part, *tri).tobytes()
        assert _triangle_distance(part, *tri).tobytes() == want
        assert _triangle_distance(part, *tri, None, scratch).tobytes() == want


def _cold_sdf(mesh, resolution):
    """mesh_to_sdf's values from a lattice binned for this call alone, with
    the distances of the all-pairs reference checked on the way."""
    points = _sdf_lattice(resolution)
    dist = point_triangle_distance(points, mesh)
    assert np.array_equal(dist, _all_pairs_distance(points, mesh))
    inside, _ = points_inside(mesh, _sdf_axes(resolution))
    return np.where(inside, -dist, dist).reshape((resolution,) * 3)


@pytest.mark.parametrize("resolution", [MIN_SDF_RESOLUTION, 8, 12, 24, 32, 48])
def test_reused_sdf_lattice_keeps_the_bits(resolution):
    # At 24^3 the fine bricks hold 1 or 2 voxels per axis, unevenly.
    cylinder = make_cylinder(0.5, 1.0, segments=24, taper=0.6)
    box = canonicalize_mesh(make_box(1.0, 1.0, 1.0, taper=0.5))
    want = {id(mesh): _cold_sdf(mesh, resolution).tobytes() for mesh in (cylinder, box)}
    for mesh in (cylinder, box, cylinder):  # the second and third reuse the lattice
        assert mesh_to_sdf(mesh, resolution).values.tobytes() == want[id(mesh)]
        assert sdf_module._lattice.cache_info().currsize == 1


def test_sdf_lattice_switches_between_resolutions():
    # One lattice is held at a time; switching back rebuilds it, with the
    # same bits.
    cylinder = make_cylinder(0.5, 1.0, segments=24, taper=0.6)
    want = {r: _cold_sdf(cylinder, r).tobytes() for r in (12, 24)}
    for resolution in (12, 24, 12, 24, 24):
        assert mesh_to_sdf(cylinder, resolution).values.tobytes() == want[resolution]
        assert sdf_module._lattice.cache_info().currsize == 1
        origin, spacing, axes, bricks = sdf_module._lattice(resolution)
        assert np.array_equal(bricks.rows[:, np.argsort(bricks.order)], _sdf_lattice(resolution).T)


def test_point_bricks_are_shared_read_only():
    points = _sdf_lattice(8)
    bricks = PointBricks(points)
    cylinder = make_cylinder(0.5, 1.0, segments=24, taper=0.6)
    assert np.array_equal(point_triangle_distance(bricks, cylinder),
                          point_triangle_distance(points, cylinder))
    for value in vars(bricks).values():
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable
    with pytest.raises(ValueError):
        PointBricks(np.array([[0.0, np.inf, 0.0]]))
    assert point_triangle_distance(PointBricks(np.zeros((0, 3))), cylinder).shape == (0,)

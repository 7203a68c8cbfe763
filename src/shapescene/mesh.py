"""Triangle meshes: OBJ I/O, canonicalization, surface sampling, containment
and point-to-mesh distance.

Containment is decided on a lattice given by its coordinates along x, y and z
(`grid_axes`), by parity ray casting along the three axes with a majority vote,
which tolerates small cracks in near-watertight input; each line of the lattice
the caller passes casts one ray per axis, and the triangles are tested against
them in blocks, one array operation per block (see `_axis_parities`).
Distance is exact; it skips the point-triangle pairs that a per-brick bound
shows cannot hold the minimum, by the distance from the brick's centre,
coarse to fine: every triangle is tested against the coarse bricks, and only
those that pass a coarse brick against its eight fine children. Each edge is
measured by the one triangle that owns it (see `point_triangle_distance`).
The bricks depend on the points alone, so one binning (`PointBricks`) serves
every mesh measured on the same points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMesh, MalformedFile, NonWatertight, read_text
from .geom import Pose9DoF, apply_pose

# Fixed sub-voxel jitter applied to ray origins so rays never pass exactly
# through triangle edges of axis-aligned fixtures. Irrational, deterministic.
_RAY_JITTER = 1e-9 * np.sqrt(2.0)

# Cells per axis of the fine brick grid `point_triangle_distance` bins points
# into; its coarse grid has half as many. At 32^3 a fine brick holds 8 voxels
# and a coarse one 64. Of 8, 16 and 32 on the `build` benchmark meshes, 16
# was the fastest (8 took 1.03-1.25x its time and 32 about 2x).
_BRICKS_PER_AXIS = 16

# Elements of the (triangles x bricks) arrays the two tests of
# `point_triangle_distance` form per block. On the `build` benchmark meshes
# 1 << 12 was slower and 1 << 14 no faster; 1 << 14 raised the traced peak
# of a 1000-triangle mesh at 32^3 from 4.6 to 5.9 MB.
_BOUND_ELEMENTS = 1 << 13

# Float64 temporaries of its result's shape that `_triangle_distance` holds
# in its scratch buffer (`_grown`).
_SLOTS = 6

# Elements of the (triangles x b lines x c lines) arrays `_axis_parities`
# forms per block of triangles; a block holds at least one triangle.
_BLOCK_ELEMENTS = 1 << 16

# Fraction of voxels on which the three parity votes may disagree before the
# mesh is rejected as non-watertight.
WATERTIGHT_DISAGREEMENT = 0.01


@dataclass(frozen=True)
class TriMesh:
    """Indexed triangle mesh. `vertices` is (n, 3) float, `triangles` (m, 3) int."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64)
        t = np.asarray(self.triangles, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError("vertices must be (n, 3)")
        if t.ndim != 2 or t.shape[1] != 3 or len(t) < 1:
            raise ValueError("triangles must be (m, 3) with m >= 1")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices contain non-finite values")
        if t.min() < 0 or t.max() >= len(v):
            raise ValueError("triangle index out of range")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

    def corners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        v, t = self.vertices, self.triangles
        return v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]

    def triangle_areas(self) -> np.ndarray:
        p0, p1, p2 = self.corners()
        return 0.5 * np.linalg.norm(np.cross(p1 - p0, p2 - p0), axis=1)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


def load_obj(path) -> TriMesh:
    """Read an ASCII OBJ (v/f records, 1-based indices, fan-triangulated).

    Raises MalformedFile for a file that is not UTF-8 text, a record that
    does not parse, a face of fewer than 3 vertices, a non-finite vertex
    coordinate or a face index outside the vertex list.
    """
    vertices: list[list[float]] = []
    triangles: list[list[int]] = []
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        parts = line.split()
        if not parts:
            continue
        try:
            if parts[0] == "v":
                if len(parts) < 4:
                    raise ValueError("vertex needs 3 coordinates")
                vertices.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                idx = [int(p.split("/")[0]) - 1 for p in parts[1:]]
                if len(idx) < 3:
                    raise ValueError("face needs at least 3 vertices")
                for k in range(1, len(idx) - 1):
                    triangles.append([idx[0], idx[k], idx[k + 1]])
        except ValueError as e:
            raise MalformedFile(f"{path}:{lineno}: {e}") from None
    if not vertices or not triangles:
        raise DegenerateMesh(f"{path}: no v/f records")
    v = np.array(vertices)
    t = np.array(triangles)
    if not np.all(np.isfinite(v)):
        raise MalformedFile(f"{path}: non-finite vertex coordinate")
    if t.min() < 0 or t.max() >= len(v):
        bad = t.max() + 1 if t.max() >= len(v) else t.min() + 1
        raise MalformedFile(f"{path}: face index {bad} outside 1..{len(v)}")
    return TriMesh(v, t)


def save_obj(path, mesh: TriMesh) -> None:
    with open(path, "w") as fh:
        for v in mesh.vertices:
            fh.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for t in mesh.triangles:
            fh.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")


def canonicalize_mesh(mesh: TriMesh) -> TriMesh:
    """Anisotropically fit the mesh into the unit cube [-0.5, 0.5]^3.

    Each axis is scaled independently so the extents span exactly 1, and the
    bounding-box center is moved to the origin. Orientation is taken as-given.
    """
    lo, hi = mesh.bounds()
    extent = hi - lo
    if np.any(extent < 1e-12):
        raise DegenerateMesh(f"axis extent below 1e-12: {extent}")
    center = (lo + hi) / 2.0
    verts = (mesh.vertices - center) / extent
    return TriMesh(verts, mesh.triangles)


def sample_surface_points(mesh: TriMesh, n: int, seed: int) -> np.ndarray:
    """Draw n points area-uniformly from the mesh surface. Deterministic per seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if 24 * n > np.iinfo(np.intp).max:  # numpy could not form the (n, 3) points
        raise MemoryError(f"{n} surface points are too many to allocate")
    areas = mesh.triangle_areas()
    total = areas.sum()
    if total <= 0:
        raise DegenerateMesh("total surface area is zero")
    rng = np.random.default_rng(seed)
    tri = rng.choice(len(areas), size=n, p=areas / total)
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    p0, p1, p2 = mesh.corners()
    return p0[tri] + u[:, None] * (p1[tri] - p0[tri]) + v[:, None] * (p2[tri] - p0[tri])


def _axis_parities(mesh: TriMesh, axes):
    """Yield, for axis 0, 1 and 2 in turn, the crossing parity of the +axis
    ray from each point of the lattice whose coordinates along x, y and z
    are `axes`: 1 where the ray crosses the mesh an odd number of times
    (inside), as an int64 (len(axes[b]), len(axes[c]), len(axes[axis]))
    array, b < c being the other two axes.

    The ray test of a point reads its `axis` coordinate only in the last
    comparison, the start against the crossing height. Everything before
    it, the jittered (b, c) sums, alpha, beta, the hit test and the crossing
    height, is a function of the (b, c) floats alone, and those are the same
    floats for every point of a lattice line along `axis`. So each triangle
    is tested once per line, and the crossing height of each hit line is
    compared with every start in `axes[axis]`. The corners, the edge
    vectors, the three axes' denominators and the jittered coordinates are
    formed once for the three axes.

    The triangles are tested in blocks of (triangles x b lines x c lines)
    arrays of at most `_BLOCK_ELEMENTS` elements, or of one triangle where
    the lines alone are more. The products of alpha's and beta's numerators are formed per
    triangle and b, and per triangle and c coordinate, and broadcast over the
    block; one `nonzero` gives its (triangle, line) hits, whose heights are
    gathered with a flat `take`. Each element is the same operations on the
    same operands as one ray per point, hence the same bits; the crossings
    are counted by one `bincount`, in any order.

    Every line of the lattice is cast; a line that misses the mesh adds no
    crossings. The caller owns the lattice and is the one to cull it
    (`voxelize_occupancy` passes only the voxels inside the posed mesh's box).
    """
    p0, p1, p2 = mesh.corners()
    e1, e2 = p1 - p0, p2 - p0
    # Rows 0-2 of `rows` are the triangles' first corners, 3-5 and 6-8 their
    # edge vectors, and row 9 + axis the denominator e1[b] e2[c] - e1[c] e2[b]
    # of the rays along axis.
    b_axes, c_axes = [1, 0, 0], [2, 2, 1]
    denoms = e1[:, b_axes] * e2[:, c_axes] - e1[:, c_axes] * e2[:, b_axes]
    rows = np.concatenate([p0, e1, e2, denoms], axis=1).T
    qbs = (axes[0] + _RAY_JITTER, axes[1] + _RAY_JITTER)
    qcs = (None, axes[1] + _RAY_JITTER * np.sqrt(3.0), axes[2] + _RAY_JITTER * np.sqrt(3.0))
    for axis, b_ax, c_ax in zip(range(3), b_axes, c_axes):
        qb, qc, starts = qbs[b_ax], qcs[c_ax], axes[axis]
        # Below 1e-15 the ray is parallel to the triangle plane and never counts.
        tested = rows[:, np.abs(rows[9 + axis]) >= 1e-15]

        hits, heights = [], []
        lines = len(qb) * len(qc)
        step = max(1, _BLOCK_ELEMENTS // max(lines, 1))
        for s in range(0, max(tested.shape[1], 1), step):
            # One block: each value of its triangles is a (t, 1, 1) column,
            # which broadcasts over the (b, c) lines as one triangle's scalar did.
            block = tested[:, s:s + step, None, None]
            p, u, v, denom = block[0:3], block[3:6], block[6:9], block[9 + axis]
            db, dc = qb[:, None] - p[b_ax], qc - p[c_ax]
            alpha = (db * v[c_ax] - dc * v[b_ax]) / denom
            beta = (u[b_ax] * dc - u[c_ax] * db) / denom
            counted = (alpha >= 0.0) & (beta >= 0.0) & (alpha + beta <= 1.0)
            tri, hit = counted.reshape(len(denom), lines).nonzero()
            flat = tri * lines + hit
            # Each hit triangle's corner and edges along axis, gathered at once.
            p, u, v = tested[axis:9:3, s:s + step].take(tri, axis=1)
            hits.append(hit)
            heights.append(p + alpha.take(flat) * u + beta.take(flat) * v)
        # Every crossing against all the starts at once; the parity of a point
        # is that of the number of crossings above it.
        line = np.concatenate(hits)
        above = np.concatenate(heights)[:, None] > starts
        m = len(starts)
        crossings = np.bincount((line[:, None] * m + np.arange(m))[above], minlength=lines * m)
        yield (crossings & 1).reshape(len(qb), len(qc), m)


def points_inside(mesh: TriMesh, axes) -> tuple[np.ndarray, float]:
    """Majority-vote containment of the lattice whose coordinates along x, y
    and z are the 1-D arrays `axes`, such as `grid_axes` returns.

    Each lattice line casts one ray per axis (`_axis_parities`); the votes
    are the same as for its points one by one. Each axis's parities are
    added into one C-ordered int8 vote count over the lattice, through its
    view with that axis last. Every line is cast: the one cull is the
    caller's, which passes only the lattice it needs, as
    `voxelize_occupancy` clips it to the posed mesh's bounding box.

    Returns (inside mask over the lattice's points in C order, fraction of
    points where the three axis votes disagree). Callers decide whether the
    disagreement is fatal.
    """
    votes = np.zeros([len(a) for a in axes], dtype=np.int8)
    for parity, order in zip(_axis_parities(mesh, axes), ((1, 2, 0), (0, 2, 1), (0, 1, 2))):
        view = votes.transpose(order)  # (b, c, axis), as the parity
        view += parity
    total = votes.ravel()
    inside = total >= 2
    disagree = np.count_nonzero((total != 0) & (total != 3)) / total.size if total.size else 0.0
    return inside, disagree


def require_watertight(disagreement: float) -> None:
    if disagreement > WATERTIGHT_DISAGREEMENT:
        raise NonWatertight(
            f"parity votes disagree on {disagreement * 100:.2f}% of samples"
        )


def grid_axes(origin, spacing: float, lo, hi) -> list[np.ndarray]:
    """World coordinates along x, y and z of the centres of the voxels with
    lo[a] <= index < hi[a] on each axis a, on the cubic grid whose voxel
    (0, 0, 0) is centred at `origin`."""
    return [origin[a] + spacing * np.arange(lo[a], hi[a]) for a in range(3)]


def grid_centers(origin, spacing: float, lo, hi) -> np.ndarray:
    """(nx, ny, nz, 3) world centres of the voxels `grid_axes` spans."""
    return np.stack(np.meshgrid(*grid_axes(origin, spacing, lo, hi), indexing="ij"), axis=-1)


def voxelize_occupancy(
    mesh: TriMesh,
    pose: Pose9DoF,
    origin: np.ndarray,
    dims: tuple[int, int, int],
    spacing: float,
) -> np.ndarray:
    """Boolean occupancy: voxel center inside the posed mesh.

    `origin` is the world position of voxel (0, 0, 0)'s center; cubic voxels.
    The mesh's vertices are posed once, and the grid is clipped to the voxels
    inside the posed mesh's bounding box, the one cull of containment:
    `points_inside` takes their world axes (`grid_axes`) and casts one ray
    per line of that lattice and world axis, as for `sdf.mesh_to_sdf`; the
    watertight check covers the box.
    """
    origin = np.asarray(origin, dtype=np.float64)
    occ = np.zeros(dims, dtype=bool)

    world = TriMesh(apply_pose(pose, mesh.vertices), mesh.triangles)
    lo, hi = world.bounds()
    i_lo = np.maximum(np.ceil((lo - origin) / spacing - 0.5).astype(int), 0)
    i_hi = np.minimum(np.floor((hi - origin) / spacing + 0.5).astype(int), np.array(dims) - 1)
    if np.any(i_lo > i_hi):
        return occ

    inside, disagreement = points_inside(world, grid_axes(origin, spacing, i_lo, i_hi + 1))
    require_watertight(disagreement)
    box = tuple(slice(i_lo[a], i_hi[a] + 1) for a in range(3))
    occ[box] = inside.reshape(occ[box].shape)
    return occ


class PointBricks:
    """Points binned into the bricks of `point_triangle_distance`'s cull.

    The binning depends on the points alone, so one `PointBricks` serves
    every mesh measured on the same points: `sdf.mesh_to_sdf` keeps the one
    of its voxel-centre lattice. Its arrays are read-only.

    The points are binned into a 16x16x16 grid of fine bricks over their
    bounding box; the 2x2x2 fine bricks, the children, of each cell of the
    8x8x8 grid make one coarse brick. A key is the coarse cell, then the
    fine cell's octant in it, so the children of a coarse brick are one run
    of keys. `rows` (3, n) holds the points in key order, and `order` maps
    each back to its input position; fine brick j is the run of `sizes[j]`
    rows from `starts[j]`. `kids` (8, coarse bricks) lists each coarse
    brick's children, padded to eight with its last one, and `real` marks
    the unpadded. A brick's centre is that of its points' bounding box and
    its radius the box's half-diagonal. `scale` is the largest coordinate
    magnitude of the points.
    """

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(points)):
            raise ValueError("points contain non-finite values")
        rows = np.ascontiguousarray(points.T)
        self.rows = rows
        if rows.shape[1] == 0:  # no points, no bricks
            return
        self.scale = np.abs(rows).max()
        lo = rows.min(axis=1, keepdims=True)
        extent = rows.max(axis=1, keepdims=True) - lo
        cell = np.floor((rows - lo) / np.where(extent > 0, extent, 1.0) * _BRICKS_PER_AXIS)
        cell = np.minimum(cell.astype(np.int64), _BRICKS_PER_AXIS - 1)
        half = _BRICKS_PER_AXIS // 2
        key = ((((cell[0] >> 1) * half + (cell[1] >> 1)) * half + (cell[2] >> 1)) * 8
               + (cell[0] & 1) * 4 + (cell[1] & 1) * 2 + (cell[2] & 1))
        del cell  # each table is freed once read, to keep the peak memory low
        self.order = np.argsort(key, kind="stable")
        key = key[self.order]
        self.rows = rows.take(self.order, axis=1)  # C order, unlike rows[:, order]
        self.starts = np.flatnonzero(np.diff(key, prepend=-1))
        self.sizes = np.diff(np.append(self.starts, len(key)))
        first = np.flatnonzero(np.diff(key[self.starts] >> 3, prepend=-1))
        del key
        fine_lo = np.minimum.reduceat(self.rows, self.starts, axis=1)
        fine_hi = np.maximum.reduceat(self.rows, self.starts, axis=1)
        coarse_lo = np.minimum.reduceat(fine_lo, first, axis=1)
        coarse_hi = np.maximum.reduceat(fine_hi, first, axis=1)
        children = np.diff(np.append(first, len(self.starts)))
        self.kids = first + np.minimum(np.arange(8)[:, None], children - 1)
        self.real = np.arange(8)[:, None] < children
        self.coarse_centres = (coarse_lo + coarse_hi) / 2.0
        self.coarse_radius = np.sqrt(_squared_norm(*(coarse_hi - coarse_lo))) / 2.0
        self.fine_centres = (fine_lo + fine_hi) / 2.0
        self.fine_radius = np.sqrt(_squared_norm(*(fine_hi - fine_lo))) / 2.0
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


def point_triangle_distance(points, mesh: TriMesh) -> np.ndarray:
    """Unsigned distance from each point to the nearest mesh triangle.

    `points` is an (n, 3) array, or the `PointBricks` of one, which skips
    the binning; the result is in the points' order either way, with the
    same bits.

    Exact, and culled coarse to fine (Ericson, Real-Time Collision
    Detection, ch. 4 and 6) over the bricks of `PointBricks`. For a brick,
    with c its centre, r its radius and D_t the distance from c to triangle
    t, every point of the brick is within B + r of its nearest triangle,
    where B = min_t D_t. A triangle is evaluated on a brick only if
    D_t <= B + 2 (r + s): as d(p, t) >= d(c, t) - |p - c|, a triangle that
    fails it is farther than B + r from every point p of the brick.

    Every triangle is tested against every coarse brick, then each triangle
    that passes a coarse brick against the brick's children, with B for a
    child the minimum over its parent's passing triangles only. That minimum
    is exact: the child's centre lies in the parent's box, so the parent's
    test keeps the triangle nearest it, as for any point of the box, and the
    child's test is the same test with the same B as if it stood alone.

    The loop then evaluates each triangle on the fine bricks it passes, by
    its owned features: its plane where the point projects inside it, else
    only the edges it owns (`_edge_owners`). On a closed mesh each edge
    belongs to two triangles, and one of them owns it, so each edge is
    measured once per point. The two tests still measure all three edges,
    the triangle distances the cull bounds, so the evaluated pairs do not
    depend on the owners. The skipped pairs cannot hold a point's minimum
    (below), and the evaluated ones use the same arithmetic as testing
    every pair, so the result is bit-identical to the minimum over all
    (point, triangle) pairs of the owned-feature distances. That is within
    2e (below) of the minimum over all triangle distances.

    The slack s. Write u for the unit roundoff, S for the largest coordinate
    magnitude of the points and vertices, and F(p, t) and d(p, t) for the
    computed and exact distances, |F - d| <= e (`_distance_rounding`;
    e >= 128 u S). Rounding c and r lets |p - c| exceed r by at most
    8 u S <= e. Then, for t* the triangle of B, F(p, t*) <= d(c, t*) + r +
    8 u S + e <= B + r + 3e. A triangle the test skips has F(p, t) >= D_t -
    r - 8 u S - 2e > B + r + 2s - 3e, which stays >= B + r + 3e when
    s >= 3e, apart from the rounding of the sums and the comparison, a few
    u (B + r + S). So s = 1e-9 (B + r + S) + 4e (`_reach`). The coarse test
    reads D_t rounded down to float32 (`_float32_below`), which only skips
    fewer pairs.

    The owners. Write O(p, t) for the owned-feature distance, so
    O(p, t) >= F(p, t): a skipped triangle has O(p, t) > B + r + 2s - 3e
    >= B + r + 5e. Let F(p, t) be least at t = m. If p projects inside m,
    O(p, m) = F(p, m). Else F(p, m) is the distance to an edge E of m,
    owned by a triangle t' that has E. An edge lies in every triangle that
    has it, so d(c, t') <= d(c, E) <= F(p, m) + e + r + 8 u S, and D_t' <=
    B + 2r + 6e: t' passes every test. O(p, t') is at most t''s own
    measure of E (which may walk E the other way than m), or, where p
    projects inside t', its plane distance; either is at most d(p, E) + e
    <= F(p, m) + 2e. So an evaluated pair has O <= F(p, m) + 2e <=
    B + r + 5e, and no skipped pair holds the minimum. No union of two
    triangles' bricks is needed.

    The points and the brick centres are held once, as (3, n) rows: the
    differences, dot products `(x * v[0] + y * v[1]) + z * v[2]` and norms
    `sqrt((x * x + y * y) + z * z)` run on the rows, where numpy is fast.
    The two tests broadcast blocks of stacked triangles against the centres,
    arrays of about `_BOUND_ELEMENTS` elements; the loop takes one triangle
    at a time, against its gathered points, and keeps squared distances,
    with one square root of its minimum at the end. Each kernel call writes
    its temporaries into one scratch buffer that the next call reuses.
    """
    bricks = points if isinstance(points, PointBricks) else PointBricks(points)
    rows = bricks.rows
    if rows.shape[1] == 0:
        return np.zeros(0)
    p0s, p1s, p2s = mesh.corners()
    scale = max(bricks.scale, np.abs(mesh.vertices).max())
    rounding = 4.0 * _distance_rounding(p0s, p1s, p2s, scale)
    starts, sizes, kids, real = bricks.starts, bricks.sizes, bricks.kids, bricks.real

    # Coarse test. `centre_low[t]` holds each coarse centre's distance to
    # triangle t rounded down to float32, half the memory of float64 and
    # never above the distance it stands for.
    centres = bricks.coarse_centres[:, None]
    coarse = centres.shape[2]
    centre_low = np.empty((len(p0s), coarse), dtype=np.float32)
    nearest = np.full(coarse, np.inf)
    step = max(1, _BOUND_ELEMENTS // coarse)
    scratch = np.empty(_SLOTS * step * coarse)
    for s in range(0, len(p0s), step):
        block = slice(s, s + step)
        dist = _triangle_distance(centres, p0s[block, None], p1s[block, None], p2s[block, None],
                                  scratch=scratch)
        np.minimum(nearest, dist.min(axis=0), out=nearest)
        centre_low[block] = _float32_below(dist)
    near = centre_low <= _reach(bricks.coarse_radius, nearest, scale, rounding)
    del centre_low

    # Fine test, over runs of coarse bricks with about `_BOUND_ELEMENTS`
    # (triangle, child) pairs each. Bit j of `passed[t, c]` is set if
    # triangle t passes child j of coarse brick c.
    nearest = np.full(len(starts), np.inf)
    passed = np.zeros(near.shape, dtype=np.uint8)
    pairs = np.cumsum(np.count_nonzero(near, axis=0)) * 8
    runs = np.flatnonzero(np.diff(pairs // _BOUND_ELEMENTS, prepend=-1))
    for a, b in zip(runs, np.append(runs[1:], coarse)):
        tri, brick = np.nonzero(near[:, a:b])
        brick += a
        kid = kids.take(brick, axis=1)
        scratch = _grown(scratch, kid.size)
        dist = _triangle_distance(bricks.fine_centres.take(kid, axis=1), p0s[tri], p1s[tri],
                                  p2s[tri], scratch=scratch)
        # The run holds every passing triangle of its bricks: their children's
        # nearest is complete.
        np.minimum.at(nearest, kid.ravel(), dist.ravel())
        reach = _reach(bricks.fine_radius[kid], nearest[kid], scale, rounding)
        keep = (dist <= reach) & real[:, brick]
        passed[tri, brick] = np.packbits(keep, axis=0, bitorder="little")[0]
    del near

    # The loop measures only each triangle's owned edges, and keeps squares.
    owned = _edge_owners(mesh).tolist()
    best = np.full(rows.shape[1], np.inf)
    for t in range(len(p0s)):
        brick = passed[t].nonzero()[0]
        if len(brick) == 0:
            continue
        keep = np.unpackbits(passed[t, brick, None], axis=1, bitorder="little").view(bool)
        bricks_t = kids.T[brick][keep]
        # The passing bricks' runs of points, gathered in one pass; `take`
        # copies the same values as fancy indexing, several times faster.
        lens = sizes[bricks_t]
        at = np.repeat(starts[bricks_t] - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())
        scratch = _grown(scratch, len(at))
        best[at] = np.minimum(best[at], _triangle_distance(
            rows.take(at, axis=1), p0s[t], p1s[t], p2s[t], owned[t], scratch))
    out = np.empty_like(best)
    out[bricks.order] = np.sqrt(best, out=best)
    return out


def _reach(radius: np.ndarray, nearest: np.ndarray, scale: float, rounding: float) -> np.ndarray:
    """B + 2 (r + s) for bricks of half-diagonal r = `radius` whose centres
    are B = `nearest` from the mesh: the farthest a triangle's distance from
    the centre may be for it to hold a point's minimum, with the slack s
    derived in `point_triangle_distance` (`rounding` is its 4e term)."""
    slack = 1e-9 * ((nearest + radius) + scale) + rounding
    return nearest + 2.0 * (radius + slack)


def _float32_below(x: np.ndarray) -> np.ndarray:
    """The largest float32 at or below each float64 of x (x not NaN)."""
    with np.errstate(over="ignore"):  # beyond the float32 range: inf, stepped down below
        low = x.astype(np.float32)
    return np.where(low > x, np.nextafter(low, np.float32(-np.inf)), low)


def _distance_rounding(p0s: np.ndarray, p1s: np.ndarray, p2s: np.ndarray,
                       scale: float) -> float:
    """A bound e on |F - d|, where F is the distance `_triangle_distance`
    computes from a point to one of the triangles (p0s, p1s, p2s), d the
    exact one, and `scale` bounds every coordinate magnitude.

    First-order error analysis, with u the unit roundoff and S = scale, so
    every difference of two points has norm at most 2 sqrt(3) S < 3.5 S:
    - A segment's rounded, clipped parameter moves its point by at most
      (4.1 |p - a| + 5 |ab|) u <= 32 u S; forming the edge vector, the
      point and the norm adds at most 28 u S. A zero-length edge
      (|ab| < 1e-15) is measured to its start, off by less than 1e-15.
    - The plane branch, taken when det = ac - b^2 > 1e-15, solves a 2x2
      system of condition kappa = ac / det. Rounding moves alpha e1 by at
      most u kappa (18.2 |d| + 16 alpha |e1|), and likewise beta e2; with
      alpha + beta <= 1 that is at most 184 u kappa S, plus at most 50 u S
      for forming the point and the norm. Its point lies in the triangle,
      so F also exceeds d by at most the triangle's diameter, under half
      its perimeter P. The analysis needs 1024 u kappa <= 1; beyond that
      only the diameter term holds.
    - A triangle with det <= 1e-15 is measured by its edges alone. A point
      over its interior is at most the inradius sqrt(det) / P farther from
      the border than from the triangle.
    A computed point near the triangle's border may take the other branch
    than the exact one; each branch then misses by at most the same
    displacement. The a, b, c and det formed here sum in another order
    than `_triangle_distance`'s dot products: each det lies within 15 u ac
    of the exact one, so a margin of 32 u ac decides which branches a
    triangle may take, and bounds kappa and the inradius. e is the largest
    of these per-triangle terms, plus 128 u S + 1e-15 for the fixed ones.
    """
    u = np.finfo(np.float64).eps / 2.0
    e1 = p1s - p0s
    e2 = p2s - p0s
    a = np.einsum("ij,ij->i", e1, e1)
    b = np.einsum("ij,ij->i", e1, e2)
    c = np.einsum("ij,ij->i", e2, e2)
    det = a * c - b * b
    margin = 32.0 * u * (a * c)
    perimeter = np.sqrt(a) + np.sqrt(c) + np.linalg.norm(e2 - e1, axis=1)
    fixed = 128.0 * u * scale + 1e-15
    kappa = a * c / np.maximum(det - margin, 1e-15)
    plane = np.minimum(np.where(1024.0 * u * kappa <= 1.0, 184.0 * u * kappa * scale, np.inf),
                       perimeter / 2.0)
    edges = np.sqrt(np.maximum(det + margin, 0.0)) / np.maximum(perimeter, np.finfo(float).tiny)
    err = np.maximum(np.where(det + margin > 1e-15, plane, 0.0),
                     np.where(det - margin <= 1e-15, edges, 0.0))
    return float(err.max()) + fixed


def _squared_norm(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of the vectors (x, y, z), summed as
    np.linalg.norm sums a length-3 row; its square root is that norm."""
    return (x * x + y * y) + z * z


def _edge_owners(mesh: TriMesh) -> np.ndarray:
    """(m, 3) bool: the edge slots p0->p1, p1->p2 and p0->p2 of each
    triangle that `point_triangle_distance`'s loop measures.

    An edge is keyed by its sorted vertex indices, and each key has one
    owner slot: the first one in triangle order that starts at p0, if the
    edge has one (those reuse the plane test's dot products), else the
    first in triangle order. A mesh whose shared vertices are not merged
    has several keys for one edge, and each is owned once.
    """
    tri = mesh.triangles
    start, end = tri[:, [0, 1, 0]].ravel(), tri[:, [1, 2, 2]].ravel()
    key = np.minimum(start, end) * len(mesh.vertices) + np.maximum(start, end)
    # The sort is stable: equal keys keep their (triangle, slot) order.
    order = np.lexsort((np.tile([0, 1, 0], len(tri)), key))
    owned = np.zeros(len(key), dtype=bool)
    owned[order[np.diff(key[order], prepend=-1) != 0]] = True
    return owned.reshape(-1, 3)


def _triangle_distance(rows: np.ndarray, p0: np.ndarray, p1: np.ndarray, p2: np.ndarray,
                       owned=None, scratch=None) -> np.ndarray:
    """Unsigned distance from the points `rows` (3, m) to the triangle
    (p0, p1, p2), whose corners are (3,) vectors.

    Stacked corners, (..., 3) arrays, are as many triangles: their leading
    shape broadcasts against the rows' trailing shape, as the (k, 1, 3)
    corners of k triangles against (3, 1, n) brick centres give (k, n)
    distances. Each element takes the operations one triangle's call takes
    on the same operands, so it has the same bits; the edges' dot products
    are `np.vecdot`'s, which has the bits of `@`. The plane's closest point
    wins only where it lies in the triangle: one triangle forms it only for
    those points, stacked triangles for every element. Where
    det = ac - b^2 <= 1e-15 the edges alone decide.

    The differences d = x - p0 are formed once, for d1 = d.e1 and
    d2 = d.e2, which the plane test and the edges p0->p1 and p0->p2 share
    (the numerators and, with a = e1.e1 and c = e2.e2, the denominators of
    their clipped parameters). The minimum is taken on squared norms, with
    one square root at the end: a square root is monotone, so it has the
    bits of the minimum of the norms.

    Every temporary of the result's shape, and the result, is a slot of
    `scratch`, a float64 buffer the caller may pass to reuse across calls
    (`_grown`); each operation writes into its slot with `out=`, on the
    operands and in the order of the expressions above, so the bits do not
    depend on the buffers. The result is a view of `scratch`, valid until
    the next call with it.

    `owned`, three bools for one triangle's slots p0->p1, p1->p2 and
    p0->p2 (`_edge_owners`), is the loop's form: only the owned edges are
    measured, with the plane where the point projects inside (inf where
    neither applies), and the squared distances are returned, for the loop
    to take one square root of its minimum.
    """
    owns01, owns12, owns02 = (True, True, True) if owned is None else owned
    e1 = p1 - p0
    e2 = p2 - p0
    a, b, c = np.vecdot(e1, e1), np.vecdot(e1, e2), np.vecdot(e2, e2)
    o, u, v = _xyz(p0), _xyz(e1), _xyz(e2)
    shape = np.broadcast(rows[0], o[0]).shape
    size = math.prod(shape)
    scratch = _grown(np.empty(0) if scratch is None else scratch, size)
    d1, d2, near, t, w, w2 = scratch[:_SLOTS * size].reshape(_SLOTS, *shape)
    # d1 = (dx * ux + dy * uy) + dz * uz for d = x - p0, and d2 likewise.
    np.subtract(rows[0], o[0], out=t)
    np.multiply(t, u[0], out=d1)
    np.multiply(t, v[0], out=d2)
    for k in (1, 2):
        np.subtract(rows[k], o[k], out=t)
        d1 += np.multiply(t, u[k], out=w)
        d2 += np.multiply(t, v[k], out=t)
    if owns01:
        _point_segment_distance(rows, p0, e1, near, t, w, d1, a)
    else:
        near.fill(np.inf)
    if owns12:
        np.minimum(near, _point_segment_distance(rows, p1, p2 - p1, w2, t, w), out=near)
    if owns02:
        np.minimum(near, _point_segment_distance(rows, p0, e2, w2, t, w, d2, c), out=near)
    det = a * c - b * b
    plane = det > 1e-15
    if p0.ndim == 1 and not plane:  # no point projects inside
        return near if owned is not None else np.sqrt(near, out=near)
    det = np.where(plane, det, 1.0)
    # alpha = (c * d1 - b * d2) / det into t, beta = (a * d2 - b * d1) / det into d2.
    np.multiply(d1, c, out=t)
    np.multiply(d2, b, out=w)
    t -= w
    t /= det
    np.multiply(d1, b, out=w)
    d2 *= a
    d2 -= w
    d2 /= det
    alpha, beta = t, d2
    np.add(alpha, beta, out=w)
    inner = (alpha >= 0) & (beta >= 0) & (w <= 1)
    if p0.ndim == 1:
        inner = inner.nonzero()[0]
        n = len(inner)
        _squared_gap(rows.take(inner, axis=1), o, u, alpha.take(inner), d1[:n], w[:n],
                     v, beta.take(inner), w2[:n])
        near[inner] = d1[:n]
        return near if owned is not None else np.sqrt(near, out=near)
    inner &= plane
    _squared_gap(rows, o, u, alpha, d1, w, v, beta, w2)
    np.copyto(near, d1, where=inner)
    return np.sqrt(near, out=near)


def _point_segment_distance(rows: np.ndarray, a: np.ndarray, ab: np.ndarray, out: np.ndarray,
                            t: np.ndarray, w: np.ndarray, along=None, length2=None) -> np.ndarray:
    """Squared distance from the points `rows` (3, m) to the segment from
    `a` along `ab`, written to and returned in `out`; stacked segments
    broadcast as in `_triangle_distance`, whose slots `t` and `w` are
    overwritten.

    `along` = (x - a).ab and `length2` = ab.ab, the clipped parameter's
    numerator and denominator, are formed here unless the caller holds
    them, with the same expressions and bits. A segment with
    |ab|^2 < 1e-30 is measured to `a`: its parameter is 0."""
    o, u = _xyz(a), _xyz(ab)
    if along is None:  # ((x - ax) * ux + (y - ay) * uy) + (z - az) * uz
        along = np.multiply(np.subtract(rows[0], o[0], out=t), u[0], out=t)
        for k in (1, 2):
            along += np.multiply(np.subtract(rows[k], o[k], out=w), u[k], out=w)
    if length2 is None:
        length2 = np.vecdot(ab, ab)
    np.divide(along, np.where(length2 < 1e-30, np.inf, length2), out=t)
    t.clip(0.0, 1.0, out=t)
    return _squared_gap(rows, o, u, t, out, w)


def _squared_gap(rows, o, u, s, out, w, v=None, r=None, w2=None) -> np.ndarray:
    """(gx * gx + gy * gy) + gz * gz into and returned in `out`: the squared
    norm of the gap g = x - (o + s * u) from the points `rows` to a point
    along u, or to g = x - ((o + s * u) + r * v) on a plane. o, u and v are
    coordinate triples (`_xyz`); `w` and `w2` are scratch of out's shape."""
    for k, x in enumerate(rows):
        np.multiply(s, u[k], out=w)
        w += o[k]
        if v is not None:
            np.multiply(r, v[k], out=w2)
            w += w2
        np.subtract(x, w, out=w)
        if k == 0:
            np.multiply(w, w, out=out)
        else:
            w *= w
            out += w
    return out


def _grown(scratch: np.ndarray, size: int) -> np.ndarray:
    """`scratch` if it holds `_SLOTS` temporaries of `size` elements, else
    a new buffer that does."""
    return scratch if scratch.size >= _SLOTS * size else np.empty(_SLOTS * size)


def _xyz(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x, y and z of the (..., 3) vectors v, each of shape (...)."""
    return v[..., 0], v[..., 1], v[..., 2]

"""Evaluation metrics: voxel-grid scene IoU (absolute/relative), oriented-box
IoU, 3D mAP, and intersecting-volume statistics.

Voxel metrics rasterize posed meshes onto a shared world grid. Oriented-box
IoU is exact: the intersection volume of the two boxes, clipped face by face
(as Objectron, Ahmadyan et al., CVPR 2021, defines 3D box IoU).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, EmptyScenes
from .geom import Pose9DoF, apply_pose
from .mesh import voxelize_occupancy
from .scene import PlacedObject, Scene, scene_grid, shape_entry
from .shapedb import ShapeDatabase, assign_exemplar


@dataclass(frozen=True)
class IoUReport:
    per_class: dict[str, float]
    mean: float
    global_iou: float
    relative_per_class: dict[str, float]
    relative_global: float


@dataclass
class DetectionBox:
    class_name: str
    pose: Pose9DoF           # unit cube under this pose
    score: float = 1.0


# World margin around the posed objects in scene_voxel_grid's bounds.
_SCENE_PAD = 0.1
# A pair of objects collides when their voxel overlap exceeds this count.
MIV_EPSILON_VOXELS = 1


# The largest E (E + spacing) of a posed mesh whose box is E wide at most on
# every axis, on a grid of that spacing. voxelize_occupancy casts the lattice
# lines within half a voxel of the box, and `mesh._parity_along_axis` adds a
# ray jitter J, so a line's offset from a vertex is at most E + spacing / 2
# + J, and an edge coordinate at most E. alpha's and beta's numerators are
# differences of two such products; each is divided by a |denom| >= 1e-15,
# and the two are summed: at most 4e15 E (E + spacing / 2 + J). That is at
# most 8e15 E (E + spacing) wherever J <= E + 1.5 spacing; where it is not,
# E and the spacing are below J = 2.5e-9, and every term is far from the
# float range. The denominators, at most 2 E^2, stay below the bound too,
# and the crossing heights lie between the vertices.
_MAX_EXTENT_PRODUCT = np.finfo(np.float64).max / 8e15


# A pose past the float range makes inf or NaN vertices: one DataError, not a
# NumPy warning per operation.
@np.errstate(over="ignore", invalid="ignore")
def scene_voxel_grid(scenes: list[Scene], db: ShapeDatabase, resolution: int):
    """scene_grid over the bounds of the scenes' posed meshes, padded by
    _SCENE_PAD on every side; EmptyScenes if no scene holds an object, and
    DataError if the bounds' extent is past the float range, or if a posed
    mesh is too large for containment to test on that grid in floats (see
    _MAX_EXTENT_PRODUCT)."""
    posed = [apply_pose(o.pose, shape_entry(db, o).mesh.vertices)
             for scene in scenes for o in scene.objects]
    if not posed:
        raise EmptyScenes("no objects in any scene")
    verts = np.concatenate(posed)
    lo, hi = verts.min(axis=0) - _SCENE_PAD, verts.max(axis=0) + _SCENE_PAD
    if not np.all(np.isfinite(hi - lo)):
        raise DataError("the posed meshes span more than the float range")
    origin, dims, spacing = scene_grid(list(zip(lo, hi)), resolution)
    extent = max(np.ptp(v, axis=0).max() for v in posed)
    if extent * (extent + spacing) > _MAX_EXTENT_PRODUCT:
        raise DataError("a posed mesh and its voxels are too large to rasterise in floats")
    return origin, dims, spacing


def _object_occupancy(scene: Scene, db: ShapeDatabase, origin, dims, spacing):
    """(class name, occupancy grid) of each object of a scene, in object order."""
    for o in scene.objects:
        mesh = shape_entry(db, o).mesh
        yield o.class_name, voxelize_occupancy(mesh, o.pose, origin, dims, spacing)


def scene_class_occupancy(
    scene: Scene, db: ShapeDatabase, origin, dims, spacing
) -> dict[str, np.ndarray]:
    """Per-class union occupancy grids for all objects of a scene."""
    grids: dict[str, np.ndarray] = {}
    for cls, occ in _object_occupancy(scene, db, origin, dims, spacing):
        if cls in grids:
            grids[cls] |= occ
        else:
            grids[cls] = occ
    return grids


def _mean(values: dict[str, float]) -> float:
    return float(np.mean(list(values.values()))) if values else 0.0


def _occupancy_iou(occ_p: dict[str, np.ndarray], occ_g: dict[str, np.ndarray],
                   dims) -> tuple[dict[str, float], float]:
    """Per-class and class-agnostic IoU of two scenes' per-class occupancy grids.

    Classes present on one side only score 0.
    """
    if not occ_p and not occ_g:
        raise EmptyScenes("both scenes rasterize empty")

    per_class: dict[str, float] = {}
    for cls in sorted(set(occ_p) | set(occ_g)):
        a = occ_p.get(cls)
        b = occ_g.get(cls)
        if a is None or b is None:
            per_class[cls] = 0.0
            continue
        union = np.count_nonzero(a | b)
        per_class[cls] = np.count_nonzero(a & b) / union if union else 0.0

    any_p = np.zeros(dims, dtype=bool)
    any_g = np.zeros(dims, dtype=bool)
    for g in occ_p.values():
        any_p |= g
    for g in occ_g.values():
        any_g |= g
    union = np.count_nonzero(any_p | any_g)
    global_iou = np.count_nonzero(any_p & any_g) / union if union else 0.0
    return per_class, float(global_iou)


def oracle_scene(gt: Scene, db: ShapeDatabase) -> Scene:
    """Ground-truth poses with each object's database-nearest exemplar shape."""
    objects = []
    for o in gt.objects:
        entry = shape_entry(db, o)
        nearest = assign_exemplar(db, entry.sdf, entry.class_id)
        objects.append(PlacedObject(o.class_name, nearest, o.pose))
    return Scene(gt.seed, tuple(objects))


def relative_iou(pred: Scene, gt: Scene, db: ShapeDatabase, resolution: int = 128) -> IoUReport:
    """Per-class and class-agnostic voxel IoU on a shared world grid, each also
    divided by the oracle-reconstruction IoU and clamped to [0, 1].

    Classes absent from both scenes are excluded from the mean; classes
    present on one side only contribute 0. Classes whose oracle IoU is zero
    have no relative IoU (omitted).
    """
    origin, dims, spacing = scene_voxel_grid([pred, gt], db, resolution)
    occ_p = scene_class_occupancy(pred, db, origin, dims, spacing)
    occ_g = scene_class_occupancy(gt, db, origin, dims, spacing)
    per_class, global_iou = _occupancy_iou(occ_p, occ_g, dims)
    # The oracle is scored on the same grid, so the ground truth is rasterized
    # once. Scenes drawn from the database already hold each object's nearest
    # exemplar; the oracle is then the ground truth and shares its grids.
    oracle_gt = oracle_scene(gt, db)
    if all(o.exemplar == g.exemplar for o, g in zip(oracle_gt.objects, gt.objects)):
        occ_o = occ_g
    else:
        occ_o = scene_class_occupancy(oracle_gt, db, origin, dims, spacing)
    oracle_class, oracle_global = _occupancy_iou(occ_o, occ_g, dims)

    rel = {cls: min(a / oracle_class[cls], 1.0)
           for cls, a in per_class.items() if oracle_class.get(cls, 0.0) > 0.0}
    rel_global = min(global_iou / oracle_global, 1.0) if oracle_global > 0.0 else 0.0
    return IoUReport(per_class, _mean(per_class), global_iou, rel, rel_global)


def _unit_cube_faces() -> np.ndarray:
    """(6, 4, 3) faces of the centred unit cube, each counter-clockwise about
    its outward normal; face f has normal row f of _CUBE_NORMALS."""
    square = 0.5 * np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    faces = np.empty((6, 4, 3))
    for f in range(6):
        sign, k = (1.0, -1.0)[f // 3], f % 3
        a, b = (k + 1) % 3, (k + 2) % 3  # (e_a, e_b, e_k) is right-handed
        faces[f, :, k] = 0.5 * sign
        faces[f, :, a] = square[:, 0]
        faces[f, :, b] = square[:, 1] * sign  # mirrored order on the -e_k side
    return faces


_CUBE_FACES = _unit_cube_faces()
_CUBE_NORMALS = np.vstack([np.eye(3), -np.eye(3)])
# Face planes of the two boxes closer than this (unit normals; offsets relative
# to the larger box extent) are one plane: its face is counted once.
_COINCIDENT_TOL = 1e-9


def _box_faces(p: Pose9DoF, origin: np.ndarray, shift: int):
    """World faces (6, 4, 3), unit outward normals (6, 3) and plane offsets (6,)
    of the unit cube under `p`, in coordinates relative to `origin` scaled by
    2**shift."""
    t, s = np.ldexp(p.t - origin, shift), np.ldexp(p.s, shift)
    normals = _CUBE_NORMALS @ p.r.m.T
    offsets = normals @ t + 0.5 * np.tile(s, 2)
    return (s * _CUBE_FACES) @ p.r.m.T + t, normals, offsets


def _clip(poly, count, normal, offset):
    """Clip convex polygons (F, M, 3), each `count` vertices then zero padding,
    to the half-spaces normal . x <= offset (one per polygon), keeping vertex
    order; returns the clipped polygons in the same layout."""
    n_poly, m = poly.shape[:2]
    rows = np.arange(n_poly)[:, None]
    idx = np.arange(m)
    nxt = (idx + 1) % np.maximum(count, 1)[:, None]
    dist = np.einsum("fmi,fi->fm", poly, normal) - offset[:, None]
    valid = idx < count[:, None]
    inside = dist <= 0.0
    crossing = valid & (inside != inside[rows, nxt])
    frac = dist / np.where(crossing, dist - dist[rows, nxt], 1.0)
    # Edge v -> w emits v if inside, then the crossing point if it crosses.
    cand = np.empty((n_poly, m, 2, 3))
    cand[:, :, 0] = poly
    cand[:, :, 1] = poly + frac[..., None] * (poly[rows, nxt] - poly)
    emit = np.empty((n_poly, m, 2), dtype=bool)
    emit[:, :, 0] = valid & inside
    emit[:, :, 1] = crossing
    emit = emit.reshape(n_poly, 2 * m)
    count = np.count_nonzero(emit, axis=1)
    out = np.zeros((n_poly, count.max(), 3))
    hit_rows, hit_cols = np.nonzero(emit)
    slot = np.cumsum(emit, axis=1) - 1
    out[hit_rows, slot[hit_rows, hit_cols]] = cand.reshape(n_poly, 2 * m, 3)[hit_rows, hit_cols]
    return out, count


def oriented_box_iou(a: Pose9DoF, b: Pose9DoF) -> float:
    """Exact IoU of two unit cubes under 9-DoF poses.

    The intersection is a convex polytope bounded by at most the 12 face
    planes. Each box's faces are clipped to the other box (Sutherland-Hodgman)
    and the volume is the divergence-theorem sum of offset times area over
    the clipped faces. A face plane shared by both boxes is counted once.

    IoU is scale-free, so both boxes are scaled by the power of two that
    brings their largest side into [0.5, 1). That rounds every operation as
    before, bit for bit, and keeps every coordinate within a few units, so no
    product overflows. DataError if the larger volume, so scaled, is below
    the normal floats: the boxes' sides span more than the float range.
    """
    with np.errstate(over="ignore"):  # centres past the float range apart: inf, no overlap
        if np.linalg.norm(a.t - b.t) > (np.linalg.norm(a.s) + np.linalg.norm(b.s)) / 2:
            return 0.0  # each box lies inside its circumscribed sphere
    # A fixed argument order makes the result exactly symmetric.
    if tuple(np.concatenate([b.t, b.s, b.r.m.ravel()])) < tuple(
            np.concatenate([a.t, a.s, a.r.m.ravel()])):
        a, b = b, a
    largest = max(a.s.max(), b.s.max())
    shift = -int(np.frexp(largest)[1])
    vol_a, vol_b = (float(np.prod(np.ldexp(p.s, shift))) for p in (a, b))
    if max(vol_a, vol_b) < np.finfo(np.float64).tiny:
        raise DataError("a box's sides span more than the float range")
    faces_a, normals_a, offsets_a = _box_faces(a, a.t, shift)
    faces_b, normals_b, offsets_b = _box_faces(b, a.t, shift)
    tol = _COINCIDENT_TOL * np.ldexp(largest, shift)
    shared = ((np.abs(normals_a[:, None] - normals_b[None]).max(axis=2) <= _COINCIDENT_TOL)
              & (np.abs(offsets_a[:, None] - offsets_b[None]) <= tol))

    # Each face is clipped by the other box's six planes, except that a face of
    # a is not clipped by a plane of b it lies on (a no-op plane stands in),
    # and a face of b on a shared plane is dropped, since a's face covers it.
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
        poly, count = _clip(poly, count, clip_n[:, k], clip_d[:, k])

    # Shoelace sum per face about its first vertex, so a thin face far from
    # a's centre keeps its area. The edges from the last vertex on, padding
    # included, end at the first vertex, which is 0 in rel, and add nothing.
    rel = poly - poly[:, :1]
    nxt = np.arange(1, poly.shape[1] + 1)
    edges = np.cross(rel, rel[np.arange(len(rel))[:, None], nxt * (nxt < count[:, None])])
    twice_area = np.einsum("fmi,fi->f", edges, face_n)
    inter = min(max(float(face_d @ twice_area) / 6.0, 0.0), vol_a, vol_b)
    return inter / (vol_a + vol_b - inter)


def average_precision(matches: list[tuple[float, bool]], n_gt: int) -> float:
    """All-point interpolated AP from (score, is_true_positive) pairs."""
    if n_gt == 0:
        return 0.0
    if not matches:
        return 0.0
    matches = sorted(matches, key=lambda m: -m[0])
    tp = np.cumsum([1 if m[1] else 0 for m in matches])
    fp = np.cumsum([0 if m[1] else 1 for m in matches])
    recall = tp / n_gt
    precision = tp / (tp + fp)
    # Monotone precision envelope, integrated over recall steps.
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for r, p_max in zip(recall, envelope):
        if r > prev_r:
            ap += (r - prev_r) * p_max
            prev_r = r
    return float(ap)


def map3d(
    preds: list[DetectionBox], gts: list[DetectionBox], iou_threshold: float
) -> tuple[dict[str, float], float]:
    """Greedy score-ordered matching, per-class AP, and the mean over classes
    with at least one ground truth."""
    classes = sorted({g.class_name for g in gts})
    per_class: dict[str, float] = {}
    for cls in classes:
        cls_gts = [g for g in gts if g.class_name == cls]
        cls_preds = sorted(
            (p for p in preds if p.class_name == cls), key=lambda p: -p.score
        )
        matched = [False] * len(cls_gts)
        outcomes: list[tuple[float, bool]] = []
        for p in cls_preds:
            best_iou = 0.0
            best_j = -1
            for j, g in enumerate(cls_gts):
                if matched[j]:
                    continue
                iou = oriented_box_iou(p.pose, g.pose)
                if iou > best_iou:
                    best_iou = iou
                    best_j = j
            if best_j >= 0 and best_iou >= iou_threshold:
                matched[best_j] = True
                outcomes.append((p.score, True))
            else:
                outcomes.append((p.score, False))
        per_class[cls] = average_precision(outcomes, len(cls_gts))
    return per_class, _mean(per_class)


@np.errstate(over="ignore")  # a volume past the float range is the DataError below
def miv_and_collisions(
    scene: Scene,
    db: ShapeDatabase,
    resolution: int = 64,
) -> tuple[float, int]:
    """Mean intersecting volume over colliding object pairs, and their count.

    A pair collides when its voxel overlap exceeds MIV_EPSILON_VOXELS; the
    volume is overlap count times voxel volume (world units cubed).
    """
    origin, dims, spacing = scene_voxel_grid([scene], db, resolution)
    occs = [occ for _, occ in _object_occupancy(scene, db, origin, dims, spacing)]
    voxel_volume = np.float64(spacing)**3  # inf past the float range, where Python's ** raises
    volumes = []
    for i in range(len(occs)):
        for j in range(i + 1, len(occs)):
            overlap = int(np.count_nonzero(occs[i] & occs[j]))
            if overlap > MIV_EPSILON_VOXELS:
                volumes.append(overlap * voxel_volume)
    if not volumes:
        return 0.0, 0
    miv = float(np.mean(volumes))
    if miv == np.inf:
        raise DataError("the mean intersecting volume is past the float range")
    return miv, len(volumes)
